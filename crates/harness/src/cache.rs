//! Persistent, content-addressed sweep cache: checkpoint-on-write cell
//! results that make warm re-runs near-instant and long sweeps
//! interruptible, plus the profiled fault maps those cells were computed
//! from.
//!
//! # Content addressing
//!
//! Every grid cell's result is stored under a [`CellKey`]: a canonical
//! set of named fields covering **everything that determined the cell's
//! numbers** — the chip's synthesis seed and configuration fingerprint,
//! the profiled fault map's content fingerprint, the stress value, the
//! benchmark identity (name + topology + dataset seed/scale), the full
//! trainer/quantizer configuration fingerprint, the walk context (axis
//! kind, the complete point list, reuse policy — model reuse makes a
//! cell's provenance depend on the points walked before it), the failure
//! margins, and a schema/version tag. Execution details (worker-thread
//! count, output paths) are deliberately **not** part of the key, so a
//! cell computed on one thread count is a valid hit on any other.
//!
//! The digest is computed over the fields **sorted by name**
//! ([`CellKey::canonical`]), so neither insertion order in the engine nor
//! field reordering in a refactor can silently re-key the cache.
//!
//! # Profile entries
//!
//! MATIC profiles a die once, at compile time (paper §III-A), and the
//! cache keeps that result: the second entry kind, under `profiles/`, is
//! a profiled [`FaultMap`], keyed by a [`ProfileKey`] — the die's identity
//! ([`die_of`](matic_sram::die_of) its synthesis configuration and seed,
//! computed without synthesizing it), the exact bits of the voltage and
//! temperature, [`PROFILE_SCHEMA`] and the package version. Profiling is a
//! pure function of those, so the key names no plan, scenario or fault
//! model: every sweep (and every daemon job) that profiles the same die
//! at the same point replays one entry. A run whose every cell and
//! profile replays builds no chip at all.
//!
//! An entry is binary, not JSON (a JSON round trip of one map costs about
//! as much as the profile it replaces): the schema tag, the canonical key
//! text, the map's [`fingerprint`](FaultMap::fingerprint), then per bank
//! a bitmap of the words that carry a fault and only those words' OR,
//! AND and XOR masks (see [`SweepCache::store_profile`]). A read
//! recomputes the fingerprint from the decoded planes; that digest is
//! also the one the point's cell keys use, so each point is still hashed
//! once.
//!
//! # Crash safety
//!
//! Each cell is persisted the moment it is computed
//! ([`SweepCache::store`]) via [`write_atomic`], and so is each profile:
//! the entry is written to a temporary file in the destination directory
//! and `rename`d into place, so a killed sweep leaves either a complete
//! entry or no entry — never a truncated one. Re-running the same plan
//! with the cache enabled resumes: cache-hit cells skip training and
//! evaluation entirely, and the resumed report is byte-identical to a
//! cold run (enforced by `tests/cache_resume.rs` and in CI).
//!
//! # Trust model
//!
//! Keys identify external workloads by [`Scenario`](crate::Scenario)
//! name, topology and dataset seed/scale. A custom scenario that changes
//! its data generator while keeping the same name must be paired with a
//! cache clear (or a new cache directory) — the cache cannot see inside
//! closures. The built-in benchmarks are pure functions of the keyed
//! fields.
//!
//! Any defect in an entry of either kind is a miss, never an error or a
//! wrong result: the engine recomputes and overwrites. For a profile that
//! means a foreign schema, different key text, a truncated or overlong
//! entry, or planes whose fingerprint differs from the stored one. Cells
//! never depend on a profile entry being present: deleting `profiles/`
//! costs one profile per die and point, and changes no byte.

use crate::plan::{StressAxis, SweepPlan, TrainingMode, FAIL_MARGIN_MSE, FAIL_MARGIN_PERCENT};
use crate::report::CellRecord;
use matic_snnac::ChipConfig;
use matic_sram::fingerprint::Fingerprint;
use matic_sram::{BankFaultMap, FaultMap};
use serde::{Deserialize, Serialize};
use std::fmt::Display;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Schema identifier of on-disk cache entries. Bumping it (or the crate
/// version baked into every key) orphans old entries rather than
/// misreading them.
///
/// v2: cached [`CellRecord`]s carry the structured
/// [`CellEnergy`](crate::report::CellEnergy) record instead of scalar
/// `energy_pj`/`cycles` fields — v1 entries are unreadable and must be
/// orphaned, not partially deserialized.
///
/// v3: cells carry the `fault_model` / `clock_stress` fields of report
/// schema v3, and keys identify the plan's
/// [`FaultModel`](matic_core::FaultModel) by name and canonical
/// fingerprint — v2 entries (which baked in the implicit SRAM voltage
/// model) are orphaned.
pub const CACHE_SCHEMA: &str = "matic.sweep-cache/v3";

/// Key-schema tag for cells of extended (conv/pool) topologies. Plain
/// dense MLP scenarios keep keying under [`CACHE_SCHEMA`] — every v3
/// entry stays a valid hit through the layer-chain refactor — while
/// extended-topology cells (whose records are summarized under report
/// schema v4) are namespaced apart so a v3-era reader never replays
/// them. The on-disk entry envelope is unchanged (same [`CellRecord`]
/// layout), so both generations share one cache directory.
pub const CACHE_SCHEMA_V4: &str = "matic.sweep-cache/v4";

/// Schema identifier of profile entries (`profiles/`). Bumping it (or
/// the crate version baked into every profile key) orphans old entries.
pub const PROFILE_SCHEMA: &str = "matic.profile-cache/v1";

/// The grid position of one cell, as the cache key builder consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCoords {
    /// Scenario index in [`SweepPlan::scenarios`] order.
    pub scen_idx: usize,
    /// Chip index within the population.
    pub chip_idx: usize,
    /// Stress-point index in [`StressAxis::points`] order.
    pub point_idx: usize,
    /// Training mode of the cell.
    pub mode: TrainingMode,
}

/// A canonical, content-addressed cache key for one sweep cell.
///
/// Build one with [`CellKey::for_cell`] (the engine's constructor) or
/// assemble fields manually with [`CellKey::push`] for tests. The digest
/// is order-free: fields are sorted by name before hashing.
#[derive(Debug, Clone, Default)]
pub struct CellKey {
    entries: Vec<(String, String)>,
}

impl CellKey {
    /// An empty key (add fields with [`CellKey::push`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one named field. Field names must be unique; the value's
    /// `Display` form is what gets hashed.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already pushed — a duplicated field means two
    /// different inputs silently share one slot, which would make the
    /// key lie about what it covers.
    pub fn push(&mut self, name: &str, value: impl Display) -> &mut Self {
        assert!(
            self.entries.iter().all(|(n, _)| n != name),
            "duplicate cache-key field `{name}`"
        );
        self.entries.push((name.to_string(), value.to_string()));
        self
    }

    /// Adds a float field by its exact IEEE-754 bit pattern (plus a
    /// human-readable rendering), so `0.1 + 0.2`-style near-misses can
    /// never alias.
    pub fn push_f64(&mut self, name: &str, value: f64) -> &mut Self {
        self.push(name, format_f64(value))
    }

    /// The canonical text form: fields sorted by name, one `name=value`
    /// line each. This is what gets hashed, and it is stored verbatim in
    /// every cache entry so hits can verify they matched on content, not
    /// merely on digest.
    pub fn canonical(&self) -> String {
        let mut sorted: Vec<&(String, String)> = self.entries.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (name, value) in sorted {
            out.push_str(name);
            out.push('=');
            out.push_str(value);
            out.push('\n');
        }
        out
    }

    /// The content digest as 32 hex chars (the cache file name).
    pub fn digest(&self) -> String {
        let mut f = Fingerprint::new();
        f.write_str(CACHE_SCHEMA);
        f.write_str(&self.canonical());
        f.to_hex()
    }

    /// Builds the full key of one grid cell. `map` is the cell's fault
    /// map — profiled on silicon-backed models, injected otherwise (on
    /// the clock axis, the timing-drop *surrogate* map) — and its content
    /// fingerprint is what makes the key honest about the faults.
    ///
    /// Equivalent to [`UnitKeyPrefix::new`] + [`UnitKeyPrefix::cell`];
    /// the engine uses the split form so the per-unit fields (topology,
    /// trainer and chip-config fingerprints, the formatted axis) are
    /// hashed once per unit instead of once per cell.
    pub fn for_cell(plan: &SweepPlan, coords: CellCoords, map: &FaultMap) -> CellKey {
        UnitKeyPrefix::new(plan, coords.scen_idx, coords.chip_idx).cell(
            plan,
            coords.point_idx,
            coords.mode,
            map.fingerprint(),
        )
    }
}

/// The per-unit half of a [`CellKey`]: every field shared by all cells
/// of one (scenario, chip) unit — schema/version, benchmark identity
/// (name, topology, metric, dataset seed/scale), the full
/// trainer/quantizer recipe, root seed and unit coordinates, the walk
/// context (axis kind, complete point list, reuse policy), failure
/// margins, the fault model's name and canonical fingerprint, and — for
/// silicon-backed models — the chip identity. Build once per unit, then
/// stamp per-cell fields with [`UnitKeyPrefix::cell`].
#[derive(Debug, Clone)]
pub struct UnitKeyPrefix {
    scen_idx: usize,
    chip_idx: usize,
    key: CellKey,
}

impl UnitKeyPrefix {
    /// Hashes the unit-invariant fields of (`scen_idx`, `chip_idx`).
    pub fn new(plan: &SweepPlan, scen_idx: usize, chip_idx: usize) -> UnitKeyPrefix {
        let scen = &*plan.scenarios[scen_idx];
        let mut key = CellKey::new();
        let schema = if scen.topology().is_plain_dense() {
            CACHE_SCHEMA
        } else {
            CACHE_SCHEMA_V4
        };
        key.push(
            "schema",
            format!("{schema};pkg={}", env!("CARGO_PKG_VERSION")),
        );
        // Benchmark identity: name, topology, metric and the dataset's
        // exact provenance (seed + scale).
        key.push("scenario.name", scen.name());
        key.push(
            "scenario.topology",
            format!(
                "{:032x}",
                matic_sram::fingerprint::fingerprint_of(&scen.topology())
            ),
        );
        key.push("scenario.classification", scen.is_classification());
        key.push("data.seed", plan.data_seed(scen_idx));
        key.push_f64("data.scale", plan.data_scale);
        // The complete training + quantizer recipe (SGD knobs, weight
        // Q-format, init/shuffle seeds, restarts, update rule). The
        // epoch_scale knob is folded into the config's epoch count.
        key.push(
            "trainer.config",
            format!("{:032x}", plan.train_config(scen).fingerprint()),
        );
        // The fault model: which taxonomy member generated the cell's
        // faults, and the exact geometry/format/parameter recipe it was
        // configured with.
        key.push("model.name", plan.model.name());
        key.push(
            "model.fingerprint",
            format!("{:032x}", plan.model.fingerprint()),
        );
        // Grid position and root seed: together these pin every derived
        // seed, including the ones earlier walk points used, which is
        // what makes model-reuse provenance reproducible.
        key.push("plan.base_seed", plan.base_seed);
        key.push("grid.scen_idx", scen_idx);
        key.push("grid.chip_idx", chip_idx);
        // Walk context: the stress axis a cell sits on, in full. Model
        // reuse across points means a cell's record (at minimum its
        // `reused_model` flag) depends on the points walked before it.
        key.push("axis.kind", plan.axis.kind());
        key.push(
            "axis.points",
            plan.axis
                .points()
                .iter()
                .map(|&p| format_f64(p))
                .collect::<Vec<_>>()
                .join(","),
        );
        key.push("reuse.policy", format!("{:?}", plan.reuse));
        key.push_f64("fail.margin_percent", FAIL_MARGIN_PERCENT);
        key.push_f64("fail.margin_mse", FAIL_MARGIN_MSE);
        if plan.model.needs_silicon() {
            key.push("chip.seed", plan.chip_seed(chip_idx));
            let chip_cfg = ChipConfig::with_geometry(
                plan.model.geometry(),
                plan.model.weight_format().unwrap_or_default(),
            );
            key.push("chip.config", format!("{:032x}", chip_cfg.fingerprint()));
        }
        UnitKeyPrefix {
            scen_idx,
            chip_idx,
            key,
        }
    }

    /// Completes the prefix with one cell's fields: the stress point,
    /// the training mode, and the fault map's content fingerprint (pass
    /// `map.fingerprint()`, computed once per point — it covers every
    /// mode at that point).
    pub fn cell(
        &self,
        plan: &SweepPlan,
        point_idx: usize,
        mode: TrainingMode,
        map_fingerprint: u128,
    ) -> CellKey {
        let mut key = self.key.clone();
        key.push("grid.point_idx", point_idx);
        key.push("mode", mode.name());
        // The faults themselves (and, on the BER axis, how they were
        // drawn — the unit coordinates are the prefix's, by construction).
        match &plan.axis {
            StressAxis::Voltage(points) => {
                key.push_f64("stress.voltage", points[point_idx]);
            }
            StressAxis::BitErrorRate(points) => {
                key.push(
                    "map.seed",
                    plan.cell_map_seed(self.chip_idx, self.scen_idx, point_idx),
                );
                key.push_f64("stress.ber", points[point_idx]);
            }
            StressAxis::ClockStress(points) => {
                key.push(
                    "map.seed",
                    plan.unit_fault_seed(self.chip_idx, self.scen_idx),
                );
                key.push_f64("stress.clock", points[point_idx]);
            }
        }
        key.push("map.fingerprint", format!("{map_fingerprint:032x}"));
        key
    }
}

/// The key of one profiled fault map: the die
/// ([`die_of`](matic_sram::die_of) its synthesis config and seed), the
/// operating point the profile ran at, and the profile schema with the
/// package version. Profiling is a pure function of these, so neither
/// the sweep nor the fault model is part of it: every plan that profiles
/// the same die at the same point shares the entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileKey {
    voltage: f64,
    temp_c: f64,
    canonical: String,
}

impl ProfileKey {
    /// The key of die `die`'s profile at `voltage` and `temp_c`.
    pub fn new(die: u128, voltage: f64, temp_c: f64) -> ProfileKey {
        let mut key = CellKey::new();
        key.push(
            "schema",
            format!("{PROFILE_SCHEMA};pkg={}", env!("CARGO_PKG_VERSION")),
        );
        key.push("die", format!("{die:032x}"));
        key.push_f64("voltage", voltage);
        key.push_f64("temp_c", temp_c);
        ProfileKey {
            voltage,
            temp_c,
            canonical: key.canonical(),
        }
    }

    /// The canonical text form (one sorted `name=value` line per field),
    /// stored verbatim in the entry.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The content digest as 32 hex chars (the entry's file name).
    pub fn digest(&self) -> String {
        let mut f = Fingerprint::new();
        f.write_str(PROFILE_SCHEMA);
        f.write_str(&self.canonical);
        f.to_hex()
    }
}

fn format_f64(value: f64) -> String {
    format!("{value:?}/{:016x}", value.to_bits())
}

/// One on-disk cache entry: the schema tag, the canonical key text (so a
/// hit verifies content, not merely a digest), and the cell itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    schema: String,
    key: String,
    cell: CellRecord,
}

/// Aggregate statistics of a cache directory, per entry kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of stored cell entries.
    pub cells: usize,
    /// Total size of the files under `cells/`, bytes.
    pub bytes: u64,
    /// Number of stored profile entries.
    pub profiles: usize,
    /// Total size of the files under `profiles/`, bytes.
    pub profile_bytes: u64,
}

/// What a run did with silicon: dies synthesized and profiles replayed
/// from the cache or computed on a chip. Run metadata, like the rest of
/// [`CacheUsage`]; synthetic fault models leave it zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiliconUsage {
    /// Profiled fault maps read from the cache's `profiles/` entries.
    pub profiles_replayed: usize,
    /// Profiles run on a chip (and stored, when a cache is attached).
    pub profiles_computed: usize,
    /// Chips synthesized. A unit builds its chip only when a profile
    /// misses or a cell is computed, so a fully warm run builds none.
    pub chips_synthesized: usize,
}

impl std::ops::AddAssign for SiliconUsage {
    fn add_assign(&mut self, other: SiliconUsage) {
        self.profiles_replayed += other.profiles_replayed;
        self.profiles_computed += other.profiles_computed;
        self.chips_synthesized += other.chips_synthesized;
    }
}

/// How a sweep run used the cache (returned by
/// [`run_sweep_with_cache`](crate::run_sweep_with_cache)).
///
/// This is the per-run provenance channel: it counts the cells replayed
/// from the cache without touching the serialized report —
/// reports must stay byte-identical between cold and resumed runs, so
/// `cached` flags can never live inside [`CellRecord`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheUsage {
    /// Whether a cache was attached to the run at all.
    pub enabled: bool,
    /// Cells replayed from the cache.
    pub hits: usize,
    /// Cells replayed from a concurrent job's in-flight computation
    /// (the scheduler's exactly-once dedup; always 0 for batch runs).
    pub deduped: usize,
    /// Cells computed (and, when a cache is attached, stored).
    pub misses: usize,
    /// Chips synthesized and profiles replayed or computed, summed over
    /// the run's units by [`run_sweep_observed`](crate::run_sweep_observed)
    /// (and so by every batch entry point). [`assemble_sweep`](crate::assemble_sweep)
    /// alone, which sees only unit outcomes, leaves it zero.
    pub silicon: SiliconUsage,
    /// Per-scenario datasets the run generated, counted like `silicon`.
    /// A cached run generates a scenario's dataset only when one of its
    /// cells computes, so a fully warm run generates none; an uncached
    /// run generates every scenario's.
    pub datasets_generated: usize,
}

impl CacheUsage {
    /// Total cells the run produced.
    pub fn cells(&self) -> usize {
        self.hits + self.deduped + self.misses
    }

    /// `true` when every cell came from the cache (a fully warm resume:
    /// the run did zero training and zero evaluation work).
    pub fn all_hits(&self) -> bool {
        self.enabled && self.misses == 0 && self.hits > 0
    }

    /// Total cells replayed rather than computed (cache hits plus
    /// in-flight dedup).
    pub fn replayed(&self) -> usize {
        self.hits + self.deduped
    }
}

/// A persistent, content-addressed store of sweep-cell results and of
/// the profiled fault maps they were computed from.
///
/// Layout: `<root>/cells/<digest>.json`, one JSON file per cell, and
/// `<root>/profiles/<digest>.bin`, one binary file per profiled map
/// (see [`ProfileKey`]), every file written atomically. The store is safe
/// to share between concurrent sweeps — identical keys hold identical
/// content by construction, and writers never leave partial files.
#[derive(Debug, Clone)]
pub struct SweepCache {
    root: PathBuf,
}

impl SweepCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<SweepCache> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(root.join("cells"))?;
        fs::create_dir_all(root.join("profiles"))?;
        Ok(SweepCache { root })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn cell_path(&self, digest: &str) -> PathBuf {
        self.root.join("cells").join(format!("{digest}.json"))
    }

    fn profile_path(&self, digest: &str) -> PathBuf {
        self.root.join("profiles").join(format!("{digest}.bin"))
    }

    /// Looks up a cell. Any defect — missing file, unreadable JSON, a
    /// schema mismatch, or a digest collision (canonical key text
    /// differs) — is a miss, never an error: the engine recomputes and
    /// overwrites.
    pub fn lookup(&self, key: &CellKey) -> Option<CellRecord> {
        let text = fs::read_to_string(self.cell_path(&key.digest())).ok()?;
        let entry: CacheEntry = serde_json::from_str(&text).ok()?;
        if entry.schema != CACHE_SCHEMA || entry.key != key.canonical() {
            return None;
        }
        Some(entry.cell)
    }

    /// Persists one computed cell (checkpoint-on-write, atomic).
    pub fn store(&self, key: &CellKey, cell: &CellRecord) -> io::Result<()> {
        let entry = CacheEntry {
            schema: CACHE_SCHEMA.to_string(),
            key: key.canonical(),
            cell: cell.clone(),
        };
        let json =
            serde_json::to_string_pretty(&entry).expect("cache entry serialization is infallible");
        write_atomic(&self.cell_path(&key.digest()), json)
    }

    /// Looks up a profiled fault map, returning it with its
    /// [`fingerprint`](FaultMap::fingerprint), recomputed from the decoded
    /// planes. Like [`lookup`](Self::lookup), any defect — a missing file,
    /// a foreign schema, different key text, a truncated or overlong
    /// entry, or a fingerprint mismatch — is a miss: the caller profiles
    /// and overwrites.
    pub fn lookup_profile(&self, key: &ProfileKey) -> Option<(FaultMap, u128)> {
        decode_profile(&fs::read(self.profile_path(&key.digest())).ok()?, key)
    }

    /// Persists the map profiled under `key`, whose fingerprint is
    /// `fingerprint` (atomic, like [`store`](Self::store)). The entry holds
    /// the schema tag, the key text, the fingerprint, and per bank a bitmap
    /// of the words that carry a fault followed by only those words' OR,
    /// AND and XOR masks, each in the word's width rounded up to bytes.
    pub fn store_profile(
        &self,
        key: &ProfileKey,
        map: &FaultMap,
        fingerprint: u128,
    ) -> io::Result<()> {
        let bytes = encode_profile(key, map, fingerprint);
        write_atomic(&self.profile_path(&key.digest()), bytes)
    }

    /// Counts entries and bytes currently stored, per kind. The bytes
    /// cover every file in each directory — including any temp file a
    /// killed writer left behind — so the reported footprint matches the
    /// disk.
    pub fn stats(&self) -> io::Result<CacheStats> {
        let (cells, bytes) = self.walk("cells", "json", false)?;
        let (profiles, profile_bytes) = self.walk("profiles", "bin", false)?;
        Ok(CacheStats {
            cells,
            bytes,
            profiles,
            profile_bytes,
        })
    }

    /// Removes every stored cell and profile — and any orphaned temp file
    /// a killed writer left behind — returning what was removed. The
    /// cache directory itself stays usable.
    pub fn clear(&self) -> io::Result<CacheStats> {
        let (cells, bytes) = self.walk("cells", "json", true)?;
        let (profiles, profile_bytes) = self.walk("profiles", "bin", true)?;
        Ok(CacheStats {
            cells,
            bytes,
            profiles,
            profile_bytes,
        })
    }

    /// Counts the entries (files ending in `.{ext}`) and the bytes of
    /// every file under `<root>/{dir}`, deleting each file when `remove`.
    /// A missing directory holds nothing.
    fn walk(&self, dir: &str, ext: &str, remove: bool) -> io::Result<(usize, u64)> {
        let entries = match fs::read_dir(self.root.join(dir)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, 0)),
            entries => entries?,
        };
        let (mut count, mut bytes) = (0, 0);
        for entry in entries {
            let entry = entry?;
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            count += entry.path().extension().is_some_and(|e| e == ext) as usize;
            bytes += meta.len();
            if remove {
                fs::remove_file(entry.path())?;
            }
        }
        Ok((count, bytes))
    }
}

/// The profile entry of `map` under `key`: the schema tag, the key's
/// canonical text, the map's `fingerprint`, then per bank its word width,
/// word count, a bitmap of the words that carry a fault, and the OR, AND
/// and XOR masks of those words only (clean words are implicit), each
/// in the word's width rounded up to whole bytes. Every integer is
/// little-endian; strings are a `u32` length plus UTF-8.
pub(crate) fn encode_profile(key: &ProfileKey, map: &FaultMap, fingerprint: u128) -> Vec<u8> {
    let mut out = Vec::new();
    for text in [PROFILE_SCHEMA, key.canonical()] {
        out.extend_from_slice(&(text.len() as u32).to_le_bytes());
        out.extend_from_slice(text.as_bytes());
    }
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(map.banks().len() as u32).to_le_bytes());
    for bank in map.banks() {
        let clean = clean_and_mask(bank.word_bits());
        let dirty: Vec<usize> = (0..bank.words())
            .filter(|&w| bank.or_mask(w) != 0 || bank.and_mask(w) != clean || bank.xor_mask(w) != 0)
            .collect();
        out.push(bank.word_bits());
        out.extend_from_slice(&(bank.words() as u32).to_le_bytes());
        let mut bitmap = vec![0u8; bank.words().div_ceil(8)];
        for &w in &dirty {
            bitmap[w / 8] |= 1 << (w % 8);
        }
        out.extend_from_slice(&bitmap);
        let width = mask_bytes(bank.word_bits());
        for &w in &dirty {
            for mask in [bank.or_mask(w), bank.and_mask(w), bank.xor_mask(w)] {
                out.extend_from_slice(&mask.to_le_bytes()[..width]);
            }
        }
    }
    out
}

/// Decodes a profile entry (see [`encode_profile`]) stored under `key`,
/// returning the map with its recomputed fingerprint. `None` — never a
/// panic — for a foreign schema, different key text, a bad word width, a
/// truncated or overlong entry, or a fingerprint that does not match the
/// decoded planes.
pub(crate) fn decode_profile(bytes: &[u8], key: &ProfileKey) -> Option<(FaultMap, u128)> {
    let mut r = ByteReader(bytes);
    if r.text()? != PROFILE_SCHEMA || r.text()? != key.canonical() {
        return None;
    }
    let stored = u128::from_le_bytes(r.take(16)?.try_into().ok()?);
    let mut banks = Vec::new();
    for _ in 0..r.u32()? {
        let word_bits = r.take(1)?[0];
        if !(1..=32).contains(&word_bits) {
            return None;
        }
        let words = r.u32()? as usize;
        let bitmap = r.take(words.div_ceil(8))?;
        let (clean, width) = (clean_and_mask(word_bits), mask_bytes(word_bits));
        let (mut or, mut and, mut xor) = (vec![0; words], vec![clean; words], vec![0; words]);
        for w in (0..words).filter(|w| (bitmap[w / 8] >> (w % 8)) & 1 == 1) {
            (or[w], and[w], xor[w]) = (r.mask(width)?, r.mask(width)?, r.mask(width)?);
        }
        banks.push(BankFaultMap::from_masks(word_bits, or, and, xor)?);
    }
    if !r.0.is_empty() {
        return None;
    }
    let map = FaultMap::new(key.voltage, key.temp_c, banks);
    let fingerprint = map.fingerprint();
    (fingerprint == stored).then_some((map, fingerprint))
}

/// Bytes per stored mask of a `word_bits`-bit word. A mask with bits
/// above the word would lose them, and its entry would then fail the
/// fingerprint check: a miss, never a wrong map.
fn mask_bytes(word_bits: u8) -> usize {
    usize::from(word_bits).div_ceil(8)
}

/// The AND mask of a fault-free word of `word_bits` bits.
fn clean_and_mask(word_bits: u8) -> u32 {
    BankFaultMap::clean(1, word_bits).and_mask(0)
}

/// A little-endian cursor over untrusted bytes: every read is bounds
/// checked and answers `None` past the end.
struct ByteReader<'a>(&'a [u8]);

impl<'a> ByteReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        self.mask(4)
    }

    /// A little-endian value of `width` (at most 4) bytes.
    fn mask(&mut self, width: usize) -> Option<u32> {
        let mut word = [0u8; 4];
        word[..width].copy_from_slice(self.take(width)?);
        Some(u32::from_le_bytes(word))
    }

    fn text(&mut self) -> Option<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }
}

/// Process-unique suffix counter for temporary file names (two threads
/// writing distinct targets never share a temp file; two writing the
/// same target serialize through `rename`).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: the bytes land in a temporary
/// file in the same directory, which is then `rename`d over the target.
/// Readers (and an interrupted run) see either the old file or the
/// complete new one — never a truncated mix. Used for cache entries and
/// for the CLI's report outputs.
pub fn write_atomic(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if p.as_os_str().is_empty() => Path::new("."),
        Some(p) => p,
        None => Path::new("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    fs::write(&tmp, contents)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SweepPlanBuilder;
    use crate::scenario::Scenario;
    use matic_core::MatConfig;
    use matic_datasets::Split;
    use matic_fixed::QFormat;
    use matic_nn::{NetSpec, SgdConfig};
    use std::sync::Arc;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "matic-cache-test-{tag}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn base_plan() -> SweepPlanBuilder {
        SweepPlan::builder()
            .chips(2)
            .voltages(&[0.9, 0.5])
            .benchmark("inversek2j")
            .expect("builtin benchmark")
    }

    fn coords() -> CellCoords {
        CellCoords {
            scen_idx: 0,
            chip_idx: 1,
            point_idx: 1,
            mode: TrainingMode::Mat,
        }
    }

    fn small_map() -> FaultMap {
        let mut map = FaultMap::clean(0.5, 2, 8, 16);
        map.bank_mut(0).set_fault(3, 7, true);
        map
    }

    #[test]
    fn digest_is_field_order_invariant() {
        let mut forward = CellKey::new();
        forward
            .push("alpha", 1)
            .push("beta", 2)
            .push_f64("gamma", 0.5);
        let mut backward = CellKey::new();
        backward
            .push_f64("gamma", 0.5)
            .push("beta", 2)
            .push("alpha", 1);
        assert_eq!(forward.canonical(), backward.canonical());
        assert_eq!(forward.digest(), backward.digest());
    }

    #[test]
    #[should_panic(expected = "duplicate cache-key field")]
    fn duplicate_fields_are_rejected() {
        CellKey::new().push("x", 1).push("x", 2);
    }

    #[test]
    fn cell_key_ignores_thread_count() {
        let one = base_plan().threads(1).build().unwrap();
        let eight = base_plan().threads(8).build().unwrap();
        let map = small_map();
        assert_eq!(
            CellKey::for_cell(&one, coords(), &map).digest(),
            CellKey::for_cell(&eight, coords(), &map).digest(),
            "worker count must not re-key the cache"
        );
    }

    #[test]
    fn cell_key_tracks_every_input() {
        let plan = base_plan().build().unwrap();
        let map = small_map();
        let reference = CellKey::for_cell(&plan, coords(), &map).digest();

        let seed = base_plan().seed(43).build().unwrap();
        assert_ne!(
            reference,
            CellKey::for_cell(&seed, coords(), &map).digest(),
            "root seed"
        );

        let voltages = base_plan().voltages(&[0.9, 0.52]).build().unwrap();
        assert_ne!(
            reference,
            CellKey::for_cell(&voltages, coords(), &map).digest(),
            "stress points"
        );

        let clock = base_plan().clock_stress(&[0.9, 0.5]).build().unwrap();
        assert_ne!(
            reference,
            CellKey::for_cell(&clock, coords(), &map).digest(),
            "fault model"
        );

        let epochs = base_plan().epoch_scale(0.5).build().unwrap();
        assert_ne!(
            reference,
            CellKey::for_cell(&epochs, coords(), &map).digest(),
            "trainer config via epoch scale"
        );

        let scale = base_plan().data_scale(0.25).build().unwrap();
        assert_ne!(
            reference,
            CellKey::for_cell(&scale, coords(), &map).digest(),
            "dataset scale"
        );

        let mut other_map = small_map();
        other_map.bank_mut(1).set_fault(0, 0, false);
        assert_ne!(
            reference,
            CellKey::for_cell(&plan, coords(), &other_map).digest(),
            "fault-map content"
        );

        let other_coords = CellCoords {
            mode: TrainingMode::Naive,
            ..coords()
        };
        assert_ne!(
            reference,
            CellKey::for_cell(&plan, other_coords, &map).digest(),
            "training mode"
        );
    }

    /// A scenario identical to inversek2j except for the weight format —
    /// proves the quantizer configuration reaches the key.
    struct NarrowWeights(Arc<dyn Scenario>);

    impl Scenario for NarrowWeights {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn topology(&self) -> NetSpec {
            self.0.topology()
        }
        fn is_classification(&self) -> bool {
            self.0.is_classification()
        }
        fn generate(&self, seed: u64, scale: f64) -> Split {
            self.0.generate(seed, scale)
        }
        fn sgd(&self) -> SgdConfig {
            self.0.sgd()
        }
        fn train_config(&self, epoch_scale: f64) -> MatConfig {
            MatConfig {
                weight_fmt: QFormat::new(8, 5).expect("valid narrow format"),
                ..self.0.train_config(epoch_scale)
            }
        }
    }

    #[test]
    fn cell_key_tracks_quantizer_config() {
        let stock = base_plan().build().unwrap();
        let narrow = SweepPlan::builder()
            .chips(2)
            .voltages(&[0.9, 0.5])
            .scenario(Arc::new(NarrowWeights(
                crate::scenario::scenario_by_name("inversek2j").unwrap(),
            )))
            .build()
            .unwrap();
        let map = small_map();
        assert_ne!(
            CellKey::for_cell(&stock, coords(), &map).digest(),
            CellKey::for_cell(&narrow, coords(), &map).digest(),
            "weight Q-format must re-key the cache"
        );
    }

    fn sample_cell() -> CellRecord {
        CellRecord {
            scenario: "inversek2j".into(),
            chip_index: 1,
            chip_seed: 42,
            mode: "mat".into(),
            fault_model: "sram-voltage".into(),
            voltage: Some(0.5),
            ber_target: None,
            clock_stress: None,
            error: 0.0125,
            nominal_error: 0.01,
            metric: "mse".into(),
            energy: Some(crate::report::CellEnergy {
                v_logic: 0.9,
                v_sram: 0.5,
                freq_hz: 250.0e6,
                logic_pj_per_cycle: 30.58,
                sram_pj_per_cycle: 7.24,
                cycles: 4096,
                energy_pj: 321.5,
                power_watts: 9.4e-3,
            }),
            measured_ber: 0.28,
            fault_count: 1234,
            settled_voltage: None,
            reused_model: true,
            failed: false,
        }
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let cache = SweepCache::open(&dir).unwrap();
        let plan = base_plan().build().unwrap();
        let key = CellKey::for_cell(&plan, coords(), &small_map());
        assert!(cache.lookup(&key).is_none(), "cold cache misses");
        cache.store(&key, &sample_cell()).unwrap();
        assert_eq!(cache.lookup(&key), Some(sample_cell()));
        let stats = cache.stats().unwrap();
        assert_eq!(stats.cells, 1);
        assert!(stats.bytes > 0);
        assert_eq!(cache.clear().unwrap().cells, 1);
        assert!(cache.lookup(&key).is_none(), "cleared cache misses");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = tmp_dir("corrupt");
        let cache = SweepCache::open(&dir).unwrap();
        let plan = base_plan().build().unwrap();
        let key = CellKey::for_cell(&plan, coords(), &small_map());
        cache.store(&key, &sample_cell()).unwrap();
        // Truncate the entry mid-file: must read as a miss, not an error.
        let path = dir.join("cells").join(format!("{}.json", key.digest()));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(cache.lookup(&key).is_none());
        // A digest collision (same file name, different canonical key)
        // must also be a miss.
        fs::write(
            &path,
            serde_json::to_string(&CacheEntry {
                schema: CACHE_SCHEMA.to_string(),
                key: "not=the same key\n".to_string(),
                cell: sample_cell(),
            })
            .unwrap(),
        )
        .unwrap();
        assert!(cache.lookup(&key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn profiles_roundtrip_and_any_other_key_misses() {
        let dir = tmp_dir("profiles");
        let cache = SweepCache::open(&dir).unwrap();
        let map = small_map();
        let key = ProfileKey::new(11, map.voltage, map.temp_c);
        assert!(cache.lookup_profile(&key).is_none(), "cold cache misses");
        cache.store_profile(&key, &map, map.fingerprint()).unwrap();
        assert_eq!(
            cache.lookup_profile(&key),
            Some((map.clone(), map.fingerprint()))
        );
        // Die, voltage and temperature each re-key the entry.
        for other in [
            ProfileKey::new(12, map.voltage, map.temp_c),
            ProfileKey::new(11, 0.51, map.temp_c),
            ProfileKey::new(11, map.voltage, 60.0),
        ] {
            assert_ne!(other.digest(), key.digest());
            assert!(cache.lookup_profile(&other).is_none());
        }
        // An entry whose stored fingerprint disagrees with its planes is
        // a miss, and a store overwrites it.
        cache.store_profile(&key, &map, 0).unwrap();
        assert!(cache.lookup_profile(&key).is_none());
        cache.store_profile(&key, &map, map.fingerprint()).unwrap();
        assert!(cache.lookup_profile(&key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_clear_cover_both_entry_kinds_and_temp_files() {
        let dir = tmp_dir("kinds");
        let cache = SweepCache::open(&dir).unwrap();
        let plan = base_plan().build().unwrap();
        let map = small_map();
        cache
            .store(&CellKey::for_cell(&plan, coords(), &map), &sample_cell())
            .unwrap();
        let key = ProfileKey::new(11, map.voltage, map.temp_c);
        cache.store_profile(&key, &map, map.fingerprint()).unwrap();
        // A temp file a killed writer left behind.
        fs::write(dir.join("profiles").join(".x.bin.tmp.1.2"), b"partial").unwrap();
        let stats = cache.stats().unwrap();
        assert_eq!((stats.cells, stats.profiles), (1, 1));
        let profile_file = fs::metadata(dir.join("profiles").join(format!("{}.bin", key.digest())))
            .unwrap()
            .len();
        assert_eq!(stats.profile_bytes, profile_file + 7);
        let removed = cache.clear().unwrap();
        assert_eq!(removed, stats);
        assert_eq!(cache.stats().unwrap(), CacheStats::default());
        assert_eq!(fs::read_dir(dir.join("profiles")).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_whole_files() {
        let dir = tmp_dir("atomic");
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("report.json");
        write_atomic(&target, "first").unwrap();
        assert_eq!(fs::read_to_string(&target).unwrap(), "first");
        write_atomic(&target, "second, longer contents").unwrap();
        assert_eq!(
            fs::read_to_string(&target).unwrap(),
            "second, longer contents"
        );
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains(".tmp.")
            })
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive");
        let _ = fs::remove_dir_all(&dir);
    }
}
