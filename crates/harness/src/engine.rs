//! The sweep executor: parallel evaluation of the plan's cell grid.
//!
//! # Parallel decomposition
//!
//! The unit of parallel work is one **(scenario, chip)** pair: the
//! chip-stateful stages of a unit (profiling, the naive baseline,
//! per-point adaptive training) run sequentially so that the SRAM
//! mechanics stay deterministic, while units — which share nothing — are
//! distributed over a work queue that idle workers pull from
//! ([`rayon`]'s dynamic scheduling). MAT training times vary wildly with
//! fault density, which is exactly the load shape that queue balancing
//! handles well. Inside a unit, each cell's NPU evaluation additionally
//! splits its test set into fixed-size chunks across the pool
//! ([`eval_composed_set`]) — sound because the composed weight artifact
//! is immutable during evaluation, and byte-stable because the
//! per-sample contributions are reassembled and folded in sample order
//! (see that function's determinism notes). Small grids therefore no
//! longer leave cores idle.
//!
//! # Determinism
//!
//! Reports are byte-identical for every worker-thread count **and every
//! cache hit/miss mix** because:
//!
//! * every random quantity derives its seed from the plan and the cell's
//!   grid position ([`crate::seeds`]), never from execution order;
//! * each unit owns its chip instance, so no cross-unit state exists;
//! * results are reassembled in grid order, not completion order;
//! * reports carry no timestamps or run-environment details;
//! * every chip evaluation is a pure function of (model, fault map), and
//!   every trained model a pure function of (topology, recipe, dataset,
//!   fault map) — so a cell replayed from the cache holds exactly the
//!   bytes a recomputation would produce.
//!
//! # Model reuse
//!
//! Two mechanisms keep a sweep from training a model twice; neither
//! changes a report byte.
//!
//! **Superset reuse.** Under
//! [`ReusePolicy::SupersetMap`](crate::ReusePolicy::SupersetMap) the
//! engine walks voltages high-to-low and keeps the last trained model; a
//! new point reuses it iff the training-time fault map is a superset of
//! the point's map (bit-cell failures are monotone in voltage, so "no new
//! faults appeared" means the trained model already routes around
//! everything present). This decision, and the `reused_model` flag it
//! records, reproduce the paper's one-model-per-operating-point flow
//! wherever maps differ.
//!
//! **The training memo.** Every training the engine needs — the naive
//! baseline, each adaptive model, and the MAT step of every `mat-canary`
//! deployment — is requested from one [`TrainingMemo`] per sweep
//! execution. Its key is training *content* (topology, recipe, train
//! split, fault-mask planes), never the operating point, so a repeat
//! trains once: every chip of a scenario shares the naive baseline, MAT
//! against a fault-free profile is that baseline, and canary targets above
//! the first bit-cell failures pin identical maps. Training is a pure
//! function of the key's content, so a hit is the model a fresh training
//! would produce.
//!
//! [`run_sweep_observed`] builds the memo (unless the context carries
//! one) and, through [`MemoEviction`], drops a scenario's models as soon
//! as its last unit finishes: keys include the train split, so no other
//! unit can hit them. A serve job owns its memo the same way, and
//! [`run_unit_observed`] without one memoizes within the unit. The memo
//! never outlives a sweep; the cell cache is what spans runs. A training
//! never enters rayon while it fills a memo slot (see [`TrainingMemo`]).
//!
//! # The cache skip path
//!
//! With a [`SweepCache`] attached, each cell is looked up by its content
//! key ([`CellKey`]) right after the point's fault map is known, and
//! skipped on a hit. Training is **lazy** so skipping stays sound:
//!
//! * the naive baseline (and its nominal-voltage error, which every cell
//!   records) is trained on the first cache miss in the unit — a fully
//!   cached unit never trains it;
//! * the adaptive-model slot tracks *which fault map* the cold walk
//!   would have trained against at every point (reuse decisions replay
//!   eagerly), but the actual training runs only when a miss needs the
//!   model. A miss that follows cache-hit points therefore trains
//!   against the exact map the cold run would have used, reproducing
//!   both the model bytes and the `reused_model` provenance flag.

use crate::cache::{CacheUsage, CellKey, SweepCache, UnitKeyPrefix};
use crate::plan::{ReusePolicy, StressAxis, SweepPlan, TrainingMode};
use crate::report::{
    CellEnergy, CellRecord, PlanSummary, SweepReport, REPORT_SCHEMA, REPORT_SCHEMA_V4,
};
use crate::scenario::Scenario;
use crate::sched::{
    par_chunked, CancelledSweep, CellOrigin, ExecContext, Resolution, SweepOutcome, UnitOutcome,
};
use matic_core::{
    drop_surrogate_map, upload_weights, CellFaults, DeploymentFlow, FaultContext, FaultedWeights,
    MatTrainer, ParamRef, TrainedModel, TrainingMemo, TrainingSet, WeightLayout,
};
use matic_datasets::Split;
use matic_nn::kernel::MacDropSpec;
use matic_nn::Sample;
use matic_snnac::microcode::Program;
use matic_snnac::npu::NpuStats;
use matic_snnac::{Chip, ChipConfig, Snnac};
use matic_sram::{ArrayConfig, FaultMap, SramArray};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The outcome of one sweep run: the deterministic report plus the
/// run's cache provenance. The provenance lives here — not inside the
/// serialized report — precisely so that cold and resumed runs emit
/// byte-identical bytes.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The aggregated report (serializes identically for every thread
    /// count and cache state).
    pub report: SweepReport,
    /// How the attached cache was used (all-miss when none was).
    pub cache: CacheUsage,
}

/// Runs the full sweep described by `plan` and aggregates the report.
///
/// Uses every worker rayon gives the process unless the plan pins
/// [`threads`](SweepPlan::threads), and attaches the persistent cell
/// cache when the plan names a [`cache_dir`](SweepPlan::cache_dir). The
/// returned report serializes byte-identically for any thread count and
/// any cache hit/miss mix.
///
/// # Panics
///
/// Panics if the plan's cache directory cannot be created or opened;
/// use [`run_sweep_with_cache`] to handle cache I/O errors yourself.
pub fn run_sweep(plan: &SweepPlan) -> SweepReport {
    let cache = plan.cache_dir.as_ref().map(|dir| {
        SweepCache::open(dir)
            .unwrap_or_else(|e| panic!("opening sweep cache at {}: {e}", dir.display()))
    });
    run_sweep_with_cache(plan, cache.as_ref()).report
}

/// Runs the sweep with an explicitly managed cache (or none), returning
/// the report together with per-cell cache provenance.
pub fn run_sweep_with_cache(plan: &SweepPlan, cache: Option<&SweepCache>) -> SweepRun {
    match run_sweep_observed(plan, &ExecContext::batch(cache)) {
        SweepOutcome::Complete(run) => run,
        SweepOutcome::Cancelled(_) => {
            unreachable!("a batch context carries no cancel token")
        }
    }
}

/// The deterministic per-scenario datasets of a plan, generated up
/// front. Datasets are shared per scenario (population statistics vary
/// the silicon, not the data); index the result by scenario index.
pub fn sweep_splits(plan: &SweepPlan) -> Vec<Split> {
    plan.scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| s.generate(plan.data_seed(i), plan.data_scale))
        .collect()
}

/// The plan's work units — one `(scenario index, chip index)` pair per
/// unit, scenario-major — in the exact order whose flattened cells form
/// the documented grid order. External schedulers (the serve daemon's
/// shared worker pool) distribute these units however they like, run
/// each through [`run_unit_observed`], and hand the outcomes **in this
/// order** to [`assemble_sweep`]; the report bytes are then independent
/// of completion order by construction.
pub fn sweep_units(plan: &SweepPlan) -> Vec<(usize, usize)> {
    (0..plan.scenarios.len())
        .flat_map(|s| (0..plan.chips).map(move |c| (s, c)))
        .collect()
}

/// Runs the full sweep through an [`ExecContext`]: the incremental,
/// cancellable entry point. With a default (batch) context this is
/// exactly [`run_sweep_with_cache`]; with a cancel token it stops at the
/// next cell boundary of every unit once the token flips; with an
/// in-flight table it deduplicates cell computations against concurrent
/// sweeps sharing the same table and cache. Its units share the context's
/// training memo, or one built for this run.
pub fn run_sweep_observed(plan: &SweepPlan, ctx: &ExecContext<'_>) -> SweepOutcome {
    let splits = sweep_splits(plan);
    let units = sweep_units(plan);
    let own_memo = TrainingMemo::new();
    let memo = ctx.memo.unwrap_or(&own_memo);
    let eviction = MemoEviction::new(plan, &units);
    let ctx = ExecContext {
        memo: Some(memo),
        ..*ctx
    };
    let pool = ThreadPoolBuilder::new()
        .num_threads(plan.threads.unwrap_or(0))
        .build()
        .expect("thread pool construction is infallible");
    let per_unit: Vec<UnitOutcome> = pool.install(|| {
        units
            .par_iter()
            .map(|&(scen_idx, chip_idx)| {
                let split = &splits[scen_idx];
                let outcome = run_unit_observed(plan, scen_idx, chip_idx, split, &ctx);
                eviction.unit_done(memo, scen_idx, split);
                outcome
            })
            .collect()
    });
    assemble_sweep(plan, per_unit, ctx.cache.is_some())
}

/// Evicts each scenario's models from a sweep's [`TrainingMemo`] once the
/// last of its units has finished. Training keys include the train split,
/// and splits are per scenario, so no other unit can hit those entries:
/// a model lives exactly as long as a unit that could reuse it may run.
#[derive(Debug)]
pub struct MemoEviction {
    /// Units not yet finished, per scenario index.
    pending: Vec<AtomicUsize>,
}

impl MemoEviction {
    /// Tracks `units` (the `(scenario, chip)` pairs this execution runs).
    pub fn new(plan: &SweepPlan, units: &[(usize, usize)]) -> Self {
        let pending = (0..plan.scenarios.len())
            .map(|s| AtomicUsize::new(units.iter().filter(|u| u.0 == s).count()))
            .collect();
        MemoEviction { pending }
    }

    /// Records that a unit of `scen_idx` finished (completed or
    /// cancelled); the scenario's last one evicts the models trained on
    /// its split.
    pub fn unit_done(&self, memo: &TrainingMemo, scen_idx: usize, split: &Split) {
        if self.pending[scen_idx].fetch_sub(1, Ordering::SeqCst) == 1 && !memo.is_empty() {
            memo.evict(&TrainingSet::new(&split.train));
        }
    }
}

/// Reassembles per-unit outcomes (in [`sweep_units`] order) into the
/// sweep outcome. Grid order — not completion order — determines the
/// report, which is what keeps service-scheduled sweeps byte-identical
/// to batch runs.
pub fn assemble_sweep(
    plan: &SweepPlan,
    per_unit: Vec<UnitOutcome>,
    cache_enabled: bool,
) -> SweepOutcome {
    let cancelled = per_unit.iter().any(|u| u.cancelled);
    let mut cells = Vec::with_capacity(plan.cell_count());
    let mut per_cell = Vec::with_capacity(plan.cell_count());
    let (mut hits, mut deduped) = (0usize, 0usize);
    for (cell, origin) in per_unit.into_iter().flat_map(|u| u.cells) {
        per_cell.push(origin.is_replay());
        hits += (origin == CellOrigin::CacheHit) as usize;
        deduped += (origin == CellOrigin::Deduped) as usize;
        cells.push(cell);
    }
    let usage = CacheUsage {
        enabled: cache_enabled,
        hits,
        deduped,
        misses: per_cell.len() - hits - deduped,
        per_cell,
    };
    if cancelled {
        return SweepOutcome::Cancelled(CancelledSweep {
            cells_done: cells.len(),
            cells_total: plan.cell_count(),
            cache: usage,
        });
    }
    let points = SweepReport::summarize(&cells);
    // Plans sweeping only plain dense MLPs keep the exact v3 byte layout;
    // an extended (conv/pool) topology upgrades the report to v4 and adds
    // the per-scenario topology echo.
    let extended = plan
        .scenarios
        .iter()
        .any(|s| !s.topology().is_plain_dense());
    let schema = if extended {
        REPORT_SCHEMA_V4
    } else {
        REPORT_SCHEMA
    };
    let topologies = extended.then(|| {
        plan.scenarios
            .iter()
            .map(|s| {
                let topo = s.topology();
                format!(
                    "{}:{:032x}",
                    topo.tag(),
                    matic_sram::fingerprint::fingerprint_of(&topo)
                )
            })
            .collect()
    });
    SweepOutcome::Complete(SweepRun {
        report: SweepReport {
            schema: schema.to_string(),
            plan: PlanSummary {
                chips: plan.chips,
                fault_model: plan.model.name().to_string(),
                stress_kind: plan.axis.kind().to_string(),
                stress_points: plan.axis.points().to_vec(),
                scenarios: plan
                    .scenarios
                    .iter()
                    .map(|s| s.name().to_string())
                    .collect(),
                modes: plan.modes.iter().map(|m| m.name().to_string()).collect(),
                data_scale: plan.data_scale,
                epoch_scale: plan.epoch_scale,
                base_seed: plan.base_seed,
                topologies,
            },
            cells,
            points,
        },
        cache: usage,
    })
}

/// Evaluates a trained model **on the chip**: uploads the quantized
/// weights at a safe voltage, overscales the SRAM rail to `voltage`,
/// composes the post-disturb weight contents into a
/// [`FaultedWeights`](matic_core::FaultedWeights) artifact **once**, and
/// runs the test set through the NPU's dense kernel — the fault map is
/// never consulted per MAC. Returns the Table I metric and the cycle
/// counters of one inference (for energy accounting).
pub fn eval_on_chip(
    chip: &mut Chip,
    model: &TrainedModel,
    is_classification: bool,
    test: &[Sample],
    voltage: f64,
) -> (f64, NpuStats) {
    chip.set_sram_voltage(0.9);
    matic_core::upload_weights(model, chip.array_mut());
    chip.set_sram_voltage(voltage);
    let npu = Snnac::snnac(model.format());
    let program = Program::compile(model.master().spec(), npu.pe_count());
    let weights =
        matic_core::FaultedWeights::from_array(model.layout(), model.format(), chip.array_mut());
    eval_composed_set(&npu, &program, &weights, None, is_classification, test)
}

/// Process-wide override of the eval chunk size (`None` restores the
/// default resolution: the `MATIC_EVAL_CHUNK` environment variable, then
/// 32). Exists for differential tests; like the kernel-tier override,
/// flipping it can never change results — only how the identical
/// per-sample contributions are grouped into batched NPU calls.
pub fn set_eval_chunk(chunk: Option<usize>) {
    // 0 encodes "no override"; an explicit Some(0) is clamped to 1.
    let encoded = match chunk {
        Some(c) => c.max(1),
        None => 0,
    };
    EVAL_CHUNK_OVERRIDE.store(encoded, Ordering::Relaxed);
}

/// `0` means "no override active".
static EVAL_CHUNK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Samples per batched NPU call (and per parallel work item) inside one
/// cell's evaluation: the [`set_eval_chunk`] override if active, else
/// `MATIC_EVAL_CHUNK`, else 32 — large enough to amortize each weight-row
/// traversal across the lanes, small enough to split a few-hundred-sample
/// eval set across workers.
fn eval_chunk() -> usize {
    let v = EVAL_CHUNK_OVERRIDE.load(Ordering::Relaxed);
    if v > 0 {
        return v;
    }
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var("MATIC_EVAL_CHUNK").ok().map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| {
                    panic!("MATIC_EVAL_CHUNK must be a positive integer, got {v:?}")
                })
                .max(1)
        })
    })
    .unwrap_or(32)
}

/// Evaluates a composed weight set over the whole test set through the
/// NPU's batched kernel, with the eval set split into fixed-size chunks
/// (see [`set_eval_chunk`]) across the worker pool. Returns the
/// Table I metric and the per-inference cycle counters (identical for
/// every sample — the NPU schedule is data-independent).
///
/// # Determinism
///
/// The result is bit-identical to the sequential per-sample
/// `execute_composed_dropped` loop it replaces, and invariant across
/// worker counts, chunk sizes and kernel tiers, because every stage
/// either computes exact per-sample values or folds them in a fixed
/// order:
///
/// 1. each sample's NPU output is bit-identical in every batching (exact
///    integer MACs, per-sample lanes);
/// 2. each sample's contribution — a 0/1 miss indicator or its MSE term —
///    depends on that sample alone;
/// 3. [`par_chunked`] reassembles the contributions in sample order
///    regardless of which worker computed which chunk;
/// 4. the final fold is strictly sequential over that order, one f64
///    accumulator, exactly like the old loop.
pub fn eval_composed_set(
    npu: &Snnac,
    program: &Program,
    weights: &FaultedWeights,
    drops: Option<&MacDropSpec>,
    is_classification: bool,
    test: &[Sample],
) -> (f64, NpuStats) {
    let per_sample: Vec<(f64, NpuStats)> = par_chunked(test, eval_chunk(), |samples| {
        let inputs: Vec<&[f64]> = samples.iter().map(|s| s.input.as_slice()).collect();
        let (outs, stats) = npu.execute_batch_dropped(program, weights, &inputs, drops);
        outs.iter()
            .zip(samples)
            .map(|(out, s)| {
                let contribution = if is_classification {
                    f64::from(!classified_correctly(out, &s.target) as u8)
                } else {
                    out.iter()
                        .zip(&s.target)
                        .map(|(y, t)| (y - t) * (y - t))
                        .sum::<f64>()
                        / out.len() as f64
                };
                (contribution, stats)
            })
            .collect()
    });
    let stats = per_sample.first().map(|&(_, s)| s).unwrap_or_default();
    let mut sum = 0.0f64;
    for &(c, _) in &per_sample {
        sum += c;
    }
    let metric = if is_classification {
        100.0 * sum / test.len().max(1) as f64
    } else {
        sum / test.len().max(1) as f64
    };
    (metric, stats)
}

fn classified_correctly(out: &[f64], target: &[f64]) -> bool {
    if out.len() == 1 {
        (out[0] >= 0.5) == (target[0] >= 0.5)
    } else {
        argmax(out) == argmax(target)
    }
}

fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

/// The full per-cell energy record at the chip's **current** operating
/// point for an inference whose NPU counters are `npu`: the point itself,
/// the calibrated per-domain pJ/cycle there, energy/inference and power
/// at the point's clock. The caller must have programmed the rail to the
/// cell's voltage first (both `eval_on_chip` and `cached_eval` do).
fn cell_energy(chip: &Chip, npu: NpuStats) -> CellEnergy {
    let op = chip.operating_point();
    let (logic_pj_per_cycle, sram_pj_per_cycle) = chip.energy_per_cycle();
    let per_cycle = logic_pj_per_cycle + sram_pj_per_cycle;
    CellEnergy {
        v_logic: op.v_logic,
        v_sram: op.v_sram,
        freq_hz: op.freq_hz,
        logic_pj_per_cycle,
        sram_pj_per_cycle,
        cycles: npu.cycles,
        energy_pj: per_cycle * npu.cycles as f64,
        power_watts: per_cycle * 1e-12 * op.freq_hz,
    }
}

/// The sequential evaluation of one (scenario, chip) unit through an
/// [`ExecContext`]: cells replay, dedup or compute per the context, the
/// cancel token is polled **before every cell**, and a cancelled walk
/// returns the prefix finished so far (all of it already checkpointed
/// when a cache is attached). `split` must be the scenario's entry from
/// [`sweep_splits`].
pub fn run_unit_observed(
    plan: &SweepPlan,
    scen_idx: usize,
    chip_idx: usize,
    split: &Split,
    ctx: &ExecContext<'_>,
) -> UnitOutcome {
    let scen = &*plan.scenarios[scen_idx];
    let points = plan.axis.points();
    let unit_memo = TrainingMemo::new();
    let training = UnitTraining {
        memo: ctx.memo.unwrap_or(&unit_memo),
        trainer: MatTrainer::new(scen.topology(), plan.train_config(scen)),
        data: TrainingSet::new(&split.train),
    };
    if plan.model.needs_silicon() {
        run_silicon_unit(
            plan, scen, scen_idx, chip_idx, split, &training, points, ctx,
        )
    } else {
        run_injected_unit(
            plan, scen, scen_idx, chip_idx, split, &training, points, ctx,
        )
    }
}

/// How a unit trains: every model comes from the memo (the sweep's, or
/// the unit's own), with the scenario's trainer and train split (hashed
/// at most once per unit).
struct UnitTraining<'a> {
    memo: &'a TrainingMemo,
    trainer: MatTrainer,
    data: TrainingSet<'a>,
}

impl UnitTraining<'_> {
    /// The model trained against `faults`.
    fn train(&self, faults: &FaultMap) -> Arc<TrainedModel> {
        self.memo.train(&self.trainer, &self.data, faults)
    }
}

/// The unit's fault-oblivious baseline (quantization-aware, trained
/// against a clean map — the paper disables only the memory-adaptive
/// modifications) plus its error at the 0.9 V nominal point, which every
/// cell of the unit records. Materialized on the first cache miss; a
/// fully cached unit never trains it.
struct NaiveBaseline {
    model: Arc<TrainedModel>,
    nominal: f64,
}

/// Trains the baseline (if not yet trained) and evaluates nominal error
/// **on the chip** at 0.9 V — the voltage-axis flavour.
fn ensure_naive_on_chip<'a>(
    slot: &'a mut Option<NaiveBaseline>,
    training: &UnitTraining<'_>,
    is_classification: bool,
    split: &Split,
    chip: &mut Chip,
) -> &'a NaiveBaseline {
    if slot.is_none() {
        let geom = chip.config().array.clone();
        let clean = FaultMap::clean(0.9, geom.banks, geom.bank.words, geom.bank.word_bits);
        let model = training.train(&clean);
        let (nominal, _) = eval_on_chip(chip, &model, is_classification, &split.test, 0.9);
        *slot = Some(NaiveBaseline { model, nominal });
    }
    slot.as_ref().expect("filled above")
}

/// Baseline flavour for synthetic (injected) fault models: nominal error
/// is the quantized model through the NPU against a clean store and an
/// undropped kernel — the same evaluation path the stressed cells use,
/// with zero faults composed in.
fn ensure_naive_injected<'a>(
    slot: &'a mut Option<NaiveBaseline>,
    training: &UnitTraining<'_>,
    is_classification: bool,
    split: &Split,
    geom: &ArrayConfig,
) -> &'a NaiveBaseline {
    if slot.is_none() {
        let clean = FaultMap::clean(0.9, geom.banks, geom.bank.words, geom.bank.word_bits);
        let model = training.train(&clean);
        let clean_faults = CellFaults {
            map: clean,
            drops: None,
        };
        let nominal = eval_injected(&model, is_classification, &split.test, &clean_faults, geom);
        *slot = Some(NaiveBaseline { model, nominal });
    }
    slot.as_ref().expect("filled above")
}

/// The unit's adaptive-model slot. `map` is the fault map the cold walk
/// would have trained against at the current point — advanced eagerly at
/// **every** point so reuse decisions (and the `reused_model` provenance
/// flag) replay the cold run exactly even when earlier points were
/// cache hits. `model` is materialized only when a miss needs it, and is
/// always trained against `map`, reproducing the cold run's model bytes.
struct AdaptiveModel {
    map: FaultMap,
    model: Option<Arc<TrainedModel>>,
}

/// Advances the adaptive slot for a point whose profiled/injected map is
/// `map`. Returns `true` when the cold walk would have reused the
/// previously trained model (the slot keeps its training-time map),
/// `false` when it would retrain (the slot re-targets `map`, lazily).
fn advance_adaptive(plan: &SweepPlan, slot: &mut Option<AdaptiveModel>, map: &FaultMap) -> bool {
    let reuse = plan.reuse == ReusePolicy::SupersetMap
        && slot.as_ref().is_some_and(|a| map.is_subset_of(&a.map));
    if !reuse {
        *slot = Some(AdaptiveModel {
            map: map.clone(),
            model: None,
        });
    }
    reuse
}

/// Trains the slot's model against its recorded map, if a previous miss
/// has not already done so.
fn materialize_adaptive<'a>(
    slot: &'a mut AdaptiveModel,
    training: &UnitTraining<'_>,
) -> &'a TrainedModel {
    if slot.model.is_none() {
        slot.model = Some(training.train(&slot.map));
    }
    slot.model.as_ref().expect("filled above")
}

/// Chip-evaluation results cached across voltage points whose profiled
/// fault maps are identical. The fault-composed weights — and therefore
/// the metric and the cycle counters — are a pure function of
/// (model, fault map), so when a voltage step adds no new faults the NPU
/// would reproduce the same numbers read-for-read; only the
/// operating-point energy scaling (computed outside the cache) changes.
struct EvalCache {
    map: FaultMap,
    naive: Option<(f64, NpuStats)>,
    mat: Option<(f64, NpuStats)>,
}

/// The sweep unit for silicon-backed fault models
/// ([`needs_silicon`](matic_core::FaultModel::needs_silicon)): a chip is
/// synthesized to the model's declared geometry, profiled at every stress
/// point, and the model turns the profile into the cell's fault content.
#[allow(clippy::too_many_arguments)]
fn run_silicon_unit(
    plan: &SweepPlan,
    scen: &dyn Scenario,
    scen_idx: usize,
    chip_idx: usize,
    split: &Split,
    training: &UnitTraining<'_>,
    points: &[f64],
    ctx: &ExecContext<'_>,
) -> UnitOutcome {
    let is_class = scen.is_classification();
    let chip_cfg = ChipConfig::with_geometry(
        plan.model.geometry(),
        plan.model.weight_format().unwrap_or_default(),
    );
    let mut chip = Chip::synthesize(chip_cfg, plan.chip_seed(chip_idx));
    // The unit-invariant half of every cell key, hashed once.
    let prefix = ctx
        .cache
        .map(|_| UnitKeyPrefix::new(plan, scen_idx, chip_idx));

    let mut naive: Option<NaiveBaseline> = None;
    let mut adaptive: Option<AdaptiveModel> = None;
    let mut evals: Option<EvalCache> = None;
    let mut cells = Vec::with_capacity(points.len() * plan.modes.len());
    for (point_idx, &voltage) in points.iter().enumerate() {
        let profiled = chip.profile(voltage);
        let map = plan
            .model
            .faults_at(&FaultContext {
                stress: voltage,
                cell_seed: plan.cell_map_seed(chip_idx, scen_idx, point_idx),
                unit_seed: plan.unit_fault_seed(chip_idx, scen_idx),
                profiled: Some(&profiled),
            })
            .map;
        // One fault-content digest per point, shared by all modes.
        let map_fp = prefix.as_ref().map(|_| map.fingerprint());
        // A voltage step that adds no new faults recomputes nothing: the
        // trained model is reused below (superset-map policy) and the
        // chip evaluations are replayed from the cache (valid because the
        // models are unchanged whenever the map is). Compare fault
        // *content* (the bank masks), not `FaultMap` equality — the map
        // carries the profiled voltage, which differs at every step and
        // would make this replay unreachable.
        let keep_evals = plan.reuse == ReusePolicy::SupersetMap
            && evals.as_ref().is_some_and(|e| e.map.banks() == map.banks());
        if !keep_evals {
            evals = Some(EvalCache {
                map: map.clone(),
                naive: None,
                mat: None,
            });
        }
        // Adaptive-model provenance for this operating point (shared by
        // Mat cells; MatCanary trains its own because canary pins change
        // the map). Advanced even when every cell here turns out cached,
        // so later misses see the cold walk's training-time map.
        let reused =
            plan.modes.contains(&TrainingMode::Mat) && advance_adaptive(plan, &mut adaptive, &map);
        for &mode in &plan.modes {
            // The cooperative cancellation point: a cancelled sweep stops
            // before starting the next cell, with everything finished so
            // far already checkpointed.
            if ctx.is_cancelled() {
                return UnitOutcome {
                    cells,
                    cancelled: true,
                };
            }
            let key = prefix
                .as_ref()
                .map(|p| p.cell(plan, point_idx, mode, map_fp.expect("set with prefix")));
            let claim = match ctx.resolve(key.as_ref()) {
                Resolution::Replay(hit, origin) => {
                    cells.push((*hit, origin));
                    continue;
                }
                Resolution::Compute(claim) => claim,
            };
            let cell = match mode {
                TrainingMode::Naive => {
                    let baseline =
                        ensure_naive_on_chip(&mut naive, training, is_class, split, &mut chip);
                    let nominal = baseline.nominal;
                    let slot = &mut evals.as_mut().expect("initialized above").naive;
                    let (error, stats) = cached_eval(
                        slot,
                        &mut chip,
                        &baseline.model,
                        is_class,
                        &split.test,
                        voltage,
                    );
                    base_cell(plan, scen, chip_idx, mode, voltage, error, nominal, &map)
                        .with_energy(cell_energy(&chip, stats))
                }
                TrainingMode::Mat => {
                    let nominal =
                        ensure_naive_on_chip(&mut naive, training, is_class, split, &mut chip)
                            .nominal;
                    let model =
                        materialize_adaptive(adaptive.as_mut().expect("advanced above"), training);
                    let slot = &mut evals.as_mut().expect("initialized above").mat;
                    let (error, stats) =
                        cached_eval(slot, &mut chip, model, is_class, &split.test, voltage);
                    let mut cell =
                        base_cell(plan, scen, chip_idx, mode, voltage, error, nominal, &map)
                            .with_energy(cell_energy(&chip, stats));
                    cell.reused_model = reused;
                    cell
                }
                TrainingMode::MatCanary => {
                    let nominal =
                        ensure_naive_on_chip(&mut naive, training, is_class, split, &mut chip)
                            .nominal;
                    run_canary_cell(
                        plan, scen, chip_idx, &mut chip, training, split, voltage, nominal,
                    )
                }
            };
            ctx.finish(claim, key.as_ref(), &cell);
            cells.push((cell, CellOrigin::Computed));
        }
    }
    UnitOutcome {
        cells,
        cancelled: false,
    }
}

/// Checkpoint-on-write: persists a freshly computed cell. Best-effort —
/// a full disk degrades the run to uncached, it does not kill the sweep.
/// Warns once per process (a dead disk would otherwise print one line
/// per remaining cell of a large grid, burying the sweep's own output).
pub(crate) fn store_checkpoint(
    cache: Option<&SweepCache>,
    key: Option<&CellKey>,
    cell: &CellRecord,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static STORE_FAILURE_WARNED: AtomicBool = AtomicBool::new(false);
    if let (Some(cache), Some(key)) = (cache, key) {
        if let Err(e) = cache.store(key, cell) {
            if !STORE_FAILURE_WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: sweep cache store failed under {} ({e}); \
                     further store failures will be silent",
                    cache.root().display()
                );
            }
        }
    }
}

/// Replays a cached chip evaluation, or runs [`eval_on_chip`] and fills
/// the slot. Replay is only valid because the evaluation is a pure
/// function of (model, fault map) — the caller guarantees the slot was
/// cleared whenever either changed — and it still programs the rail so
/// the caller's energy accounting sees the correct operating point.
fn cached_eval(
    slot: &mut Option<(f64, NpuStats)>,
    chip: &mut Chip,
    model: &TrainedModel,
    is_classification: bool,
    test: &[Sample],
    voltage: f64,
) -> (f64, NpuStats) {
    match *slot {
        Some(cached) => {
            chip.set_sram_voltage(voltage);
            cached
        }
        None => *slot.insert(eval_on_chip(chip, model, is_classification, test, voltage)),
    }
}

/// The full deployment-flow cell: profile → canary selection → MAT with
/// pinned canaries → upload/arm → runtime controller settles the rail →
/// evaluate through the NPU at the settled voltage.
#[allow(clippy::too_many_arguments)]
fn run_canary_cell(
    plan: &SweepPlan,
    scen: &dyn Scenario,
    chip_idx: usize,
    chip: &mut Chip,
    training: &UnitTraining<'_>,
    split: &Split,
    voltage: f64,
    nominal: f64,
) -> CellRecord {
    let is_class = scen.is_classification();
    let flow = DeploymentFlow {
        mat: training.trainer.config().clone(),
        ..DeploymentFlow::new(voltage)
    };
    // Only the pure training step is memoized; canary selection,
    // profiling, upload and arming run on the chip as always.
    let mut net = chip.deploy_with(&flow, training.trainer.spec(), |faults| {
        TrainedModel::clone(&training.train(faults))
    });
    let settled = chip.poll_canaries(&mut net);
    // Compose the post-disturb contents once at the settled rail and run
    // the whole eval set through the batched kernel. Bit-identical to
    // the per-sample `chip.infer` loop it replaces: read-disturb flips
    // are idempotent, so every later per-sample composition would read
    // back the same words the first one settled.
    let weights = chip.compose(&net);
    let (error, first_npu) = eval_composed_set(
        net.npu(),
        net.program(),
        &weights,
        None,
        is_class,
        &split.test,
    );
    let map = net.deployment().fault_map().clone();
    let mut cell = base_cell(
        plan,
        scen,
        chip_idx,
        TrainingMode::MatCanary,
        voltage,
        error,
        nominal,
        &map,
    )
    .with_energy(cell_energy(chip, first_npu));
    cell.settled_voltage = Some(settled);
    cell
}

/// Evaluates a trained model under injected faults, **without profiled
/// silicon**: the quantized weights land in a behaviourally clean store
/// (an SRAM array held at the 0.9 V nominal point, where every bit-cell
/// reads back faithfully — the Vmin distribution tops out far below it),
/// the model's storage faults are applied word-by-word, and the test set
/// runs through the NPU's dense kernel with the model's MAC-drop spec
/// composed into the accumulation. [`FaultedWeights`] stays the hot
/// path; the fault map is never consulted per MAC.
fn eval_injected(
    model: &TrainedModel,
    is_classification: bool,
    test: &[Sample],
    faults: &CellFaults,
    geom: &ArrayConfig,
) -> f64 {
    let mut array = SramArray::synthesize(geom, 0);
    upload_weights(model, &mut array);
    for b in 0..geom.banks {
        for w in 0..geom.bank.words {
            let stored = array.read(b, w);
            let faulted = faults.map.apply(b, w, stored);
            if faulted != stored {
                array.write(b, w, faulted);
            }
        }
    }
    let weights = FaultedWeights::from_array(model.layout(), model.format(), &mut array);
    let npu = Snnac::snnac(model.format());
    let program = Program::compile(model.master().spec(), npu.pe_count());
    let drops = faults.drops.as_ref();
    eval_composed_set(&npu, &program, &weights, drops, is_classification, test).0
}

/// How many of the layout's weight parameters a drop spec kills, as
/// `(count, fraction)` — the clock-axis analogue of a measured bit-error
/// rate (biases are accumulated outside the MAC issue slots and are
/// never dropped).
fn dropped_weight_stats(drops: &MacDropSpec, layout: &WeightLayout) -> (usize, f64) {
    let (mut dropped, mut total) = (0usize, 0usize);
    for (param, _) in layout.entries() {
        if let ParamRef::Weight { layer, row, col } = param {
            total += 1;
            if drops.dropped(layer, row, col) {
                dropped += 1;
            }
        }
    }
    (dropped, dropped as f64 / total.max(1) as f64)
}

/// The sweep unit for synthetic fault models (`needs_silicon() == false`):
/// fault content is derived from the plan's seeds, MAT trains against the
/// injected map — or, for kernel-side drops, against the exact stuck-at-0
/// surrogate (a dropped MAC contributes zero to the integer accumulation,
/// precisely what a zeroed weight word does) — and every evaluation runs
/// through the NPU with the faults composed in.
#[allow(clippy::too_many_arguments)]
fn run_injected_unit(
    plan: &SweepPlan,
    scen: &dyn Scenario,
    scen_idx: usize,
    chip_idx: usize,
    split: &Split,
    training: &UnitTraining<'_>,
    points: &[f64],
    ctx: &ExecContext<'_>,
) -> UnitOutcome {
    let is_class = scen.is_classification();
    let geom = plan.model.geometry();
    let layout = WeightLayout::new(training.trainer.spec(), geom.banks, geom.bank.words)
        .expect("scenario topology fits the model's weight memory");

    // The unit-invariant half of every cell key, hashed once.
    let prefix = ctx
        .cache
        .map(|_| UnitKeyPrefix::new(plan, scen_idx, chip_idx));
    let mut naive: Option<NaiveBaseline> = None;
    let mut adaptive: Option<AdaptiveModel> = None;
    let mut cells = Vec::with_capacity(points.len() * plan.modes.len());
    for (point_idx, &stress) in points.iter().enumerate() {
        let faults = plan.model.faults_at(&FaultContext {
            stress,
            cell_seed: plan.cell_map_seed(chip_idx, scen_idx, point_idx),
            unit_seed: plan.unit_fault_seed(chip_idx, scen_idx),
            profiled: None,
        });
        // The map MAT trains against — and the content the cell key
        // fingerprints: the injected map itself for storage faults, the
        // stuck-at-0 surrogate for kernel-side drops.
        let train_map = match &faults.drops {
            Some(drops) => drop_surrogate_map(drops, &layout, geom.bank.word_bits),
            None => faults.map.clone(),
        };
        let drop_stats = faults
            .drops
            .as_ref()
            .map(|d| dropped_weight_stats(d, &layout));
        // One fault-content digest per point, shared by all modes.
        let map_fp = prefix.as_ref().map(|_| train_map.fingerprint());
        let reused = plan.modes.contains(&TrainingMode::Mat)
            && advance_adaptive(plan, &mut adaptive, &train_map);
        for &mode in &plan.modes {
            if ctx.is_cancelled() {
                return UnitOutcome {
                    cells,
                    cancelled: true,
                };
            }
            let key = prefix
                .as_ref()
                .map(|p| p.cell(plan, point_idx, mode, map_fp.expect("set with prefix")));
            let claim = match ctx.resolve(key.as_ref()) {
                Resolution::Replay(hit, origin) => {
                    cells.push((*hit, origin));
                    continue;
                }
                Resolution::Compute(claim) => claim,
            };
            let cell = match mode {
                TrainingMode::Naive => {
                    let baseline =
                        ensure_naive_injected(&mut naive, training, is_class, split, &geom);
                    let error =
                        eval_injected(&baseline.model, is_class, &split.test, &faults, &geom);
                    base_injected_cell(
                        plan,
                        scen,
                        chip_idx,
                        mode,
                        stress,
                        error,
                        baseline.nominal,
                        &train_map,
                        drop_stats,
                    )
                }
                TrainingMode::Mat => {
                    let nominal =
                        ensure_naive_injected(&mut naive, training, is_class, split, &geom).nominal;
                    let model =
                        materialize_adaptive(adaptive.as_mut().expect("advanced above"), training);
                    let error = eval_injected(model, is_class, &split.test, &faults, &geom);
                    let mut cell = base_injected_cell(
                        plan, scen, chip_idx, mode, stress, error, nominal, &train_map, drop_stats,
                    );
                    cell.reused_model = reused;
                    cell
                }
                TrainingMode::MatCanary => {
                    unreachable!("plan validation rejects mat-canary on synthetic fault models")
                }
            };
            ctx.finish(claim, key.as_ref(), &cell);
            cells.push((cell, CellOrigin::Computed));
        }
    }
    UnitOutcome {
        cells,
        cancelled: false,
    }
}

#[allow(clippy::too_many_arguments)]
fn base_cell(
    plan: &SweepPlan,
    scen: &dyn Scenario,
    chip_idx: usize,
    mode: TrainingMode,
    voltage: f64,
    error: f64,
    nominal: f64,
    map: &FaultMap,
) -> CellRecord {
    let mut cell = new_cell(plan, scen, chip_idx, mode, error, nominal, map);
    cell.voltage = Some(voltage);
    cell
}

/// A cell of the injected (synthetic-model) path: the stress value lands
/// in the axis-appropriate column, and for kernel-side drop models the
/// storage-map statistics — meaningless there — are replaced by the
/// dropped-MAC population.
#[allow(clippy::too_many_arguments)]
fn base_injected_cell(
    plan: &SweepPlan,
    scen: &dyn Scenario,
    chip_idx: usize,
    mode: TrainingMode,
    stress: f64,
    error: f64,
    nominal: f64,
    map: &FaultMap,
    drop_stats: Option<(usize, f64)>,
) -> CellRecord {
    let mut cell = new_cell(plan, scen, chip_idx, mode, error, nominal, map);
    match &plan.axis {
        StressAxis::Voltage(_) => cell.voltage = Some(stress),
        StressAxis::BitErrorRate(_) => cell.ber_target = Some(stress),
        StressAxis::ClockStress(_) => cell.clock_stress = Some(stress),
    }
    if let Some((dropped, fraction)) = drop_stats {
        cell.fault_count = dropped;
        cell.measured_ber = fraction;
    }
    cell
}

fn new_cell(
    plan: &SweepPlan,
    scen: &dyn Scenario,
    chip_idx: usize,
    mode: TrainingMode,
    error: f64,
    nominal: f64,
    map: &FaultMap,
) -> CellRecord {
    let is_class = scen.is_classification();
    let margin = if is_class {
        plan.fail_margin_percent
    } else {
        plan.fail_margin_mse
    };
    CellRecord {
        scenario: scen.name().to_string(),
        chip_index: chip_idx,
        chip_seed: plan.chip_seed(chip_idx),
        mode: mode.name().to_string(),
        fault_model: plan.model.name().to_string(),
        voltage: None,
        ber_target: None,
        clock_stress: None,
        error,
        nominal_error: nominal,
        metric: if is_class {
            "classification_error_percent".to_string()
        } else {
            "mse".to_string()
        },
        energy: None,
        measured_ber: map.ber(),
        fault_count: map.fault_count(),
        settled_voltage: None,
        reused_model: false,
        failed: error > nominal + margin,
    }
}

trait WithEnergy {
    fn with_energy(self, energy: CellEnergy) -> Self;
}

impl WithEnergy for CellRecord {
    fn with_energy(mut self, energy: CellEnergy) -> Self {
        self.energy = Some(energy);
        self
    }
}
