//! The sweep executor: parallel evaluation of the plan's cell grid.
//!
//! # Parallel decomposition
//!
//! The one unit of parallel work is a **(scenario, chip)** pair. Units
//! share nothing, and [`run_sweep_observed`] distributes them over a work
//! queue that idle workers pull from ([`rayon`]'s dynamic scheduling). MAT
//! training times vary wildly with fault density, which is exactly the
//! load shape that queue balancing handles well. Everything inside a unit
//! — profiling, training, every cell's NPU evaluation — runs sequentially
//! on the unit's worker, so the SRAM mechanics stay deterministic and the
//! plan's [`threads`](SweepPlan::threads) (the daemon's `--workers`) is
//! the exact number of compute threads. The serve daemon runs the same
//! units on its own pool through the same runner, [`SweepInputs`].
//!
//! # Determinism
//!
//! Reports are byte-identical for every worker-thread count **and every
//! cache hit/miss mix** because:
//!
//! * every random quantity derives its seed from the plan and the cell's
//!   grid position ([`crate::seeds`]), never from execution order;
//! * each unit owns its chip instance, so no cross-unit state exists
//!   (units share profile entries only through the cache, and a profile
//!   is a pure function of its key);
//! * results are reassembled in grid order, not completion order;
//! * reports carry no timestamps or run-environment details;
//! * every chip evaluation is a pure function of (model, fault map), and
//!   every trained model a pure function of (topology, recipe, dataset,
//!   fault map) — so a cell replayed from the cache holds exactly the
//!   bytes a recomputation would produce.
//!
//! # Model reuse
//!
//! Every unit runs one per-point walk ([`run_unit_observed`]) whatever
//! the fault model; a private `FaultSource` (profiled silicon, or injected
//! synthetic faults) is the only place the models differ. Four
//! mechanisms keep that walk from training or evaluating a model, or
//! walking a die's canaries, twice; none changes a report byte.
//!
//! **Superset reuse.** Under
//! [`ReusePolicy::SupersetMap`](crate::ReusePolicy::SupersetMap) the
//! engine walks the stress axis from the mildest point and keeps the last
//! trained model; a new point reuses it iff the training-time fault map is
//! a superset of the point's map (bit-cell failures are monotone in
//! voltage, so "no new faults appeared" means the trained model already
//! routes around everything present). This decision, and the
//! `reused_model` flag it records, reproduce the paper's
//! one-model-per-operating-point flow wherever maps differ.
//!
//! **Evaluation replay.** On every axis, a point whose storage and
//! training fault masks equal the previous point's replays its
//! evaluations instead of re-running the NPU (for drop models the
//! training map is the drop set's exact surrogate, so e.g. clock points
//! below the drop onset share one evaluation).
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
//! **Canary selection.** A `mat-canary` deployment's selection walk
//! (destructive profiles below the target) depends on the die, never on
//! the deployed network, so the same memo walks it once per die and
//! walk: below the first bit-cell failures each target starts its own
//! walk, and every target above the safe voltage shares one. A hit
//! returns the walk's cells and leaves the chip's array exactly as the
//! walk would (see [`TrainingMemo::select_canaries`]). The deployment
//! also reuses the profile the point already took at its target.
//!
//! [`SweepInputs`] owns a sweep's memo (unless the context carries one)
//! and drops a scenario's models as soon as its last unit finishes: keys
//! include the train split, so no other unit can hit them. Canary
//! selections are per die, which every scenario shares, and stay for the
//! sweep. Batch sweeps and serve jobs both run their units through it,
//! and [`run_unit_observed`] without a memo memoizes within the unit. The
//! memo never outlives a sweep; the cell cache is what spans runs. A
//! training never enters rayon while it fills a memo slot (see
//! [`TrainingMemo`]): nothing inside a unit is parallel.
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
//!   both the model bytes and the `reused_model` provenance flag;
//! * evaluation-replay slots track the fault content at every point but
//!   fill only on misses, so a miss after cache hits evaluates afresh.
//!
//! Silicon is **lazy** like training. A silicon-backed unit holds its
//! chip's configuration and seed, and takes each point's fault map from
//! the cache's profile entry when one exists (storing it after a profile
//! miss). The chip is synthesized only when something has to run on it:
//! a profile miss, an evaluation, a canary deployment or a rail change.
//! So a fully cached unit neither synthesizes nor profiles. Skipping stays
//! sound because a profile's outcome is a pure function of (die, voltage,
//! temperature), and because the chip ends in the same state either way:
//!
//! * a chip first built after replayed profiles is fresh, which is the
//!   state a profile leaves (every word zero, the array at the rail's
//!   voltage);
//! * an already-built chip is parked on a replayed profile
//!   ([`Chip::park`]) exactly as [`Chip::profile`] would have left it.
//!
//! Without a cache every point profiles the chip, as before. What a run
//! did with silicon is reported in [`CacheUsage::silicon`], never in the
//! report.
//!
//! Datasets are **lazy** like silicon. With a cache attached, a
//! scenario's dataset is generated by the first of its units that trains
//! or evaluates (the naive baseline, an adaptive model, a canary
//! deployment, any evaluation), so a job whose cells all replay generates
//! none. A dataset is a pure function of the plan's data seed and scale,
//! so when it is generated changes no byte. Without a cache every cell
//! computes and every dataset is needed, so [`SweepInputs::new`]
//! generates them all up front on the calling thread, as a batch sweep
//! always has. Generating them on the rayon workers instead spreads the
//! allocations over each worker's glibc malloc arena, which raised an
//! uncached sweep's peak RSS by about a quarter. How many datasets a run
//! generated is reported in [`CacheUsage::datasets_generated`].

use crate::cache::{CacheUsage, CellKey, ProfileKey, SiliconUsage, SweepCache, UnitKeyPrefix};
use crate::plan::{
    ReusePolicy, StressAxis, SweepPlan, TrainingMode, FAIL_MARGIN_MSE, FAIL_MARGIN_PERCENT,
};
use crate::report::{
    CellEnergy, CellRecord, PlanSummary, SweepReport, REPORT_SCHEMA, REPORT_SCHEMA_V4,
};
use crate::scenario::Scenario;
use crate::sched::{
    CancelledSweep, CellOrigin, ExecContext, Resolution, SweepOutcome, UnitOutcome,
};
use matic_core::{
    drop_surrogate_map, CellFaults, DeploymentFlow, FaultContext, FaultModel, FaultedWeights,
    MatTrainer, ParamRef, TrainedModel, TrainingMemo, TrainingSet, WeightLayout,
};
use matic_datasets::Split;
use matic_nn::kernel::MacDropSpec;
use matic_nn::Sample;
use matic_snnac::microcode::Program;
use matic_snnac::npu::NpuStats;
use matic_snnac::{Chip, ChipConfig, Snnac, POWER_ON_TEMP_C};
use matic_sram::{die_of, ArrayConfig, FaultMap};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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

/// Runs the full sweep described by `plan`, without a cache, and
/// aggregates the report.
///
/// Uses every worker rayon gives the process unless the plan pins
/// [`threads`](SweepPlan::threads). The returned report serializes
/// byte-identically for any thread count; [`run_sweep_with_cache`]
/// attaches a persistent cell cache.
pub fn run_sweep(plan: &SweepPlan) -> SweepReport {
    run_sweep_with_cache(plan, None).report
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
    (0..plan.scenarios.len())
        .map(|i| scenario_split(plan, i))
        .collect()
}

/// Scenario `scen_idx`'s dataset, from its own seed.
fn scenario_split(plan: &SweepPlan, scen_idx: usize) -> Split {
    plan.scenarios[scen_idx].generate(plan.data_seed(scen_idx), plan.data_scale)
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
///
/// Units run on [`threads`](SweepPlan::threads) workers (rayon's default
/// when unset); this is the engine's only parallel call.
pub fn run_sweep_observed(plan: &SweepPlan, ctx: &ExecContext<'_>) -> SweepOutcome {
    let units = sweep_units(plan);
    let inputs = SweepInputs::new(plan, &units, ctx.cache.is_some());
    let pool = ThreadPoolBuilder::new()
        .num_threads(plan.threads.unwrap_or(0))
        .build()
        .expect("thread pool construction is infallible");
    let per_unit: Vec<UnitOutcome> = pool.install(|| {
        units
            .par_iter()
            .map(|&unit| inputs.run_unit(plan, unit, ctx))
            .collect()
    });
    let mut outcome = assemble_sweep(plan, per_unit, ctx.cache.is_some());
    let usage = match &mut outcome {
        SweepOutcome::Complete(run) => &mut run.cache,
        SweepOutcome::Cancelled(cancelled) => &mut cancelled.cache,
    };
    usage.silicon = *inputs
        .silicon
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    usage.datasets_generated = inputs.datasets_generated.load(Ordering::Relaxed);
    outcome
}

/// What a sweep's units run on: the per-scenario datasets (the splits
/// [`sweep_splits`] generates) and the sweep's [`TrainingMemo`]. It
/// evicts each scenario's models once the last of its units has
/// finished. Training keys include the train split, and splits are per
/// scenario, so no other unit can hit those entries: a model lives
/// exactly as long as a unit that could reuse it may run.
///
/// With a cache, a scenario's dataset is generated by the first of its
/// units that trains or evaluates, so a job whose cells all replay
/// generates none. Without one every cell computes, and every dataset is
/// generated up front on the constructing thread (see the module docs).
///
/// Batch sweeps ([`run_sweep_observed`]) and serve jobs run every unit
/// through [`run_unit`](Self::run_unit), in any order and from any
/// thread.
#[derive(Debug)]
pub struct SweepInputs {
    /// Per-scenario datasets, indexed by scenario; each filled on first use.
    splits: Vec<OnceLock<Split>>,
    /// Datasets generated so far.
    datasets_generated: AtomicUsize,
    /// The memo units share when their context carries none.
    memo: TrainingMemo,
    /// Units not yet finished, per scenario index.
    pending: Vec<AtomicUsize>,
    /// What the finished units did with silicon, summed.
    silicon: Mutex<SiliconUsage>,
}

impl SweepInputs {
    /// Tracks `units` (the `(scenario, chip)` pairs this execution runs).
    /// Without a cache (`cached` false) every scenario's dataset is
    /// generated here; with one, each waits for its first use.
    pub fn new(plan: &SweepPlan, units: &[(usize, usize)], cached: bool) -> Self {
        let scenarios = plan.scenarios.len();
        let pending = (0..scenarios)
            .map(|s| AtomicUsize::new(units.iter().filter(|u| u.0 == s).count()))
            .collect();
        let inputs = SweepInputs {
            splits: (0..scenarios).map(|_| OnceLock::new()).collect(),
            datasets_generated: AtomicUsize::new(0),
            memo: TrainingMemo::new(),
            pending,
            silicon: Mutex::default(),
        };
        if !cached {
            for s in 0..scenarios {
                inputs.split(plan, s);
            }
        }
        inputs
    }

    /// Scenario `scen_idx`'s dataset, generated on the first request.
    fn split(&self, plan: &SweepPlan, scen_idx: usize) -> &Split {
        self.splits[scen_idx].get_or_init(|| {
            self.datasets_generated.fetch_add(1, Ordering::Relaxed);
            scenario_split(plan, scen_idx)
        })
    }

    /// Runs one of the tracked units through `ctx` with the context's
    /// memo, or this sweep's own when the context carries none. When it
    /// was its scenario's last unit (completed or cancelled), the models
    /// trained on the scenario's split are evicted; a scenario whose
    /// dataset was never generated trained none.
    pub fn run_unit(
        &self,
        plan: &SweepPlan,
        (scen_idx, chip_idx): (usize, usize),
        ctx: &ExecContext<'_>,
    ) -> UnitOutcome {
        let memo = ctx.memo.unwrap_or(&self.memo);
        let ctx = ExecContext {
            memo: Some(memo),
            ..*ctx
        };
        let split = || self.split(plan, scen_idx);
        let (outcome, silicon) = walk_unit(plan, scen_idx, chip_idx, &split, &ctx);
        *self.silicon.lock().unwrap_or_else(PoisonError::into_inner) += silicon;
        if self.pending[scen_idx].fetch_sub(1, Ordering::SeqCst) == 1 && !memo.is_empty() {
            if let Some(split) = self.splits[scen_idx].get() {
                memo.evict(&TrainingSet::new(&split.train));
            }
        }
        outcome
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
    let (mut hits, mut deduped) = (0usize, 0usize);
    for (cell, origin) in per_unit.into_iter().flat_map(|u| u.cells) {
        hits += (origin == CellOrigin::CacheHit) as usize;
        deduped += (origin == CellOrigin::Deduped) as usize;
        cells.push(cell);
    }
    let usage = CacheUsage {
        enabled: cache_enabled,
        hits,
        deduped,
        misses: cells.len() - hits - deduped,
        silicon: SiliconUsage::default(),
        datasets_generated: 0,
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

/// Overrides the eval chunk size (`None` restores the default of 32).
/// Exists for the determinism proptests: flipping it can never change
/// results — only how the identical per-sample contributions are grouped
/// into batched NPU calls.
#[cfg(test)]
pub(crate) fn set_eval_chunk(chunk: Option<usize>) {
    // 0 encodes "no override"; an explicit Some(0) is clamped to 1.
    EVAL_CHUNK_OVERRIDE.store(chunk.map_or(0, |c| c.max(1)), Ordering::Relaxed);
}

/// `0` means "no override active".
static EVAL_CHUNK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Samples per batched NPU call inside one cell's evaluation: 32 — large
/// enough to amortize each weight-row traversal across the lanes.
fn eval_chunk() -> usize {
    match EVAL_CHUNK_OVERRIDE.load(Ordering::Relaxed) {
        0 => 32,
        v => v,
    }
}

/// Evaluates a composed weight set over the whole test set through the
/// NPU's batched interpreter, in chunks of 32 samples on the calling
/// thread. Returns the Table I metric and the per-inference cycle
/// counters (identical for every sample — the NPU schedule is
/// data-independent).
///
/// # Determinism
///
/// The result is bit-identical to a loop of one-sample batches, and
/// invariant across chunk sizes, because:
///
/// 1. each sample's NPU output is bit-identical in every batching (exact
///    integer MACs, per-sample lanes);
/// 2. each sample's contribution — a 0/1 miss indicator or its MSE term —
///    depends on that sample alone;
/// 3. the fold is strictly sequential in sample order, one f64
///    accumulator.
pub fn eval_composed_set(
    npu: &Snnac,
    program: &Program,
    weights: &FaultedWeights,
    drops: Option<&MacDropSpec>,
    is_classification: bool,
    test: &[Sample],
) -> (f64, NpuStats) {
    let mut stats = None;
    let mut sum = 0.0f64;
    for samples in test.chunks(eval_chunk()) {
        let inputs: Vec<&[f64]> = samples.iter().map(|s| s.input.as_slice()).collect();
        let (outs, chunk_stats) = npu.execute_batch_dropped(program, weights, &inputs, drops);
        stats.get_or_insert(chunk_stats);
        for (out, s) in outs.iter().zip(samples) {
            sum += if is_classification {
                f64::from(!classified_correctly(out, &s.target) as u8)
            } else {
                out.iter()
                    .zip(&s.target)
                    .map(|(y, t)| (y - t) * (y - t))
                    .sum::<f64>()
                    / out.len() as f64
            };
        }
    }
    let stats = stats.unwrap_or_default();
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
/// cell's voltage first (`eval_on_chip` does, and so does
/// `FaultSource::set_stress` for a replayed evaluation).
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
    let unit_memo = TrainingMemo::new();
    let ctx = ExecContext {
        memo: Some(ctx.memo.unwrap_or(&unit_memo)),
        ..*ctx
    };
    walk_unit(plan, scen_idx, chip_idx, &|| split, &ctx).0
}

/// [`run_unit_observed`] with the scenario's dataset behind `split`,
/// called only once the unit trains or evaluates, and the memo `ctx`
/// must carry; also returns what the unit did with silicon.
fn walk_unit<'a>(
    plan: &'a SweepPlan,
    scen_idx: usize,
    chip_idx: usize,
    split: &'a dyn Fn() -> &'a Split,
    ctx: &ExecContext<'a>,
) -> (UnitOutcome, SiliconUsage) {
    let scen = &*plan.scenarios[scen_idx];
    let unit = Unit {
        plan,
        scen,
        chip_idx,
        split,
        memo: ctx.memo.expect("the caller supplies the unit's memo"),
        trainer: MatTrainer::new(scen.topology(), plan.train_config(scen)),
        data: OnceCell::new(),
    };
    let mut source = FaultSource::new(&unit);
    // The unit-invariant half of every cell key, hashed once.
    let prefix = ctx
        .cache
        .map(|_| UnitKeyPrefix::new(plan, scen_idx, chip_idx));

    let mut naive: Option<NaiveBaseline> = None;
    let mut adaptive: Option<AdaptiveModel> = None;
    // The previous point, and its naive / adaptive evaluations once a
    // miss computed them.
    let mut prev: Option<PointFaults> = None;
    let (mut naive_eval, mut mat_eval) = (None, None);
    let points = plan.axis.points();
    let mut cells = Vec::with_capacity(points.len() * plan.modes.len());
    for (point_idx, &stress) in points.iter().enumerate() {
        let point = source.point(
            plan,
            ctx.cache,
            FaultContext {
                stress,
                cell_seed: plan.cell_map_seed(chip_idx, scen_idx, point_idx),
                unit_seed: plan.unit_fault_seed(chip_idx, scen_idx),
                profiled: None,
            },
        );
        // One fault-content digest per point, shared by all modes: a
        // replayed profile's verified digest, or a fresh hash.
        let map_fp = prefix.as_ref().map(|_| {
            point
                .train_fp
                .unwrap_or_else(|| point.train_map.fingerprint())
        });
        // A step that adds no new faults recomputes nothing: the trained
        // model is reused below (superset-map policy) and the evaluations
        // are replayed (valid because the models are unchanged whenever
        // the fault content is).
        let replay = plan.reuse == ReusePolicy::SupersetMap
            && prev.as_ref().is_some_and(|p| p.same_content(&point));
        if !replay {
            (naive_eval, mat_eval) = (None, None);
        }
        // Adaptive-model provenance for this operating point (shared by
        // Mat cells; MatCanary trains its own because canary pins change
        // the map). Advanced even when every cell here turns out cached,
        // so later misses see the cold walk's training-time map.
        let reused = plan.modes.contains(&TrainingMode::Mat)
            && advance_adaptive(plan, &mut adaptive, &point.train_map);
        for &mode in &plan.modes {
            // The cooperative cancellation point: a cancelled sweep stops
            // before starting the next cell, with everything finished so
            // far already checkpointed.
            if ctx.is_cancelled() {
                let outcome = UnitOutcome {
                    cells,
                    cancelled: true,
                };
                return (outcome, source.silicon());
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
            let baseline = ensure_naive(&mut naive, &unit, &mut source);
            let cell = if mode == TrainingMode::MatCanary {
                let FaultSource::Silicon(die) = &mut source else {
                    unreachable!("plan validation rejects mat-canary on synthetic fault models")
                };
                run_canary_cell(&unit, die.chip(), &point.faults.map, baseline.nominal)
            } else {
                let (model, slot) = if mode == TrainingMode::Naive {
                    (&*baseline.model, &mut naive_eval)
                } else {
                    let adaptive = adaptive.as_mut().expect("advanced above");
                    (materialize_adaptive(adaptive, &unit), &mut mat_eval)
                };
                let (error, stats) = match *slot {
                    Some(cached) => {
                        source.set_stress(stress);
                        cached
                    }
                    None => *slot.insert(source.eval(&unit, model, &point.faults, stress)),
                };
                let (nominal, map) = (baseline.nominal, &point.train_map);
                let mut cell = new_cell(&unit, mode, stress, error, nominal, map, point.drops);
                cell.energy = source.energy(stats);
                cell.reused_model = mode == TrainingMode::Mat && reused;
                cell
            };
            ctx.finish(claim, key.as_ref(), &cell);
            cells.push((cell, CellOrigin::Computed));
        }
        prev = Some(point);
    }
    let outcome = UnitOutcome {
        cells,
        cancelled: false,
    };
    (outcome, source.silicon())
}

/// Where a unit's fault content comes from — the only place the
/// silicon-backed and synthetic fault models differ. The walk in
/// [`run_unit_observed`] is shared.
enum FaultSource {
    /// A die of the voltage model's geometry, profiled at every stress
    /// point (or replayed from the cache) and evaluated through its own
    /// SRAM.
    Silicon(Box<LazyChip>),
    /// Seed-derived faults composed straight into the stored weight
    /// words; `layout` places the scenario's weights for the drop
    /// statistics.
    Injected {
        geom: ArrayConfig,
        layout: WeightLayout,
    },
}

/// One stress point's fault content.
struct PointFaults {
    /// What the evaluation composes in.
    faults: CellFaults,
    /// The map MAT trains against — and the content the cell key
    /// fingerprints: the storage map itself, or for kernel-side drops the
    /// exact stuck-at-0 surrogate (a dropped MAC contributes zero to the
    /// integer accumulation, precisely what a zeroed weight word does).
    train_map: FaultMap,
    /// For drop models, the dropped weight population (see
    /// [`dropped_weight_stats`]), which replaces the storage-map
    /// statistics in the cell.
    drops: Option<(usize, f64)>,
    /// `train_map`'s fingerprint when it is already known: silicon trains
    /// on its profile unchanged, so a cached profile's verified digest.
    train_fp: Option<u128>,
}

impl PointFaults {
    /// Whether `other` holds the same fault content, so evaluations at
    /// one replay at the other. An evaluation is a pure function of
    /// (model, storage faults, drops), and what the drops do is fixed by
    /// the training map (their exact surrogate). Compares the bank masks,
    /// not `FaultMap` equality: a map carries its profiled voltage, which
    /// differs at every step.
    fn same_content(&self, other: &PointFaults) -> bool {
        self.faults.map.banks() == other.faults.map.banks()
            && self.train_map.banks() == other.train_map.banks()
    }
}

impl FaultSource {
    fn new(unit: &Unit<'_>) -> Self {
        match &unit.plan.model {
            FaultModel::SramVoltage { array } => {
                let chip_cfg = ChipConfig::with_geometry(array.clone(), Default::default());
                let seed = unit.plan.chip_seed(unit.chip_idx);
                FaultSource::Silicon(Box::new(LazyChip::new(chip_cfg, seed)))
            }
            FaultModel::RandomBer { array } | FaultModel::TimingError { array } => {
                let layout = WeightLayout::new(unit.trainer.spec(), array.banks, array.bank.words)
                    .expect("scenario topology fits the model's weight memory");
                FaultSource::Injected {
                    geom: array.clone(),
                    layout,
                }
            }
        }
    }

    /// The fault content at `ctx.stress`: silicon's is the die's profile
    /// there (once per point, replayed from `cache` when it holds one),
    /// trained against unchanged.
    fn point(
        &mut self,
        plan: &SweepPlan,
        cache: Option<&SweepCache>,
        ctx: FaultContext<'_>,
    ) -> PointFaults {
        match self {
            FaultSource::Silicon(die) => {
                let (map, train_fp) = die.profile(cache, ctx.stress);
                PointFaults {
                    train_map: map.clone(),
                    faults: CellFaults { map, drops: None },
                    drops: None,
                    train_fp,
                }
            }
            FaultSource::Injected { geom, layout } => {
                let faults = plan.model.faults_at(&ctx);
                let (train_map, drops) = match &faults.drops {
                    Some(d) => (
                        drop_surrogate_map(d, layout, geom.bank.word_bits),
                        Some(dropped_weight_stats(d, layout)),
                    ),
                    None => (faults.map.clone(), None),
                };
                PointFaults {
                    faults,
                    train_map,
                    drops,
                    train_fp: None,
                }
            }
        }
    }

    /// The Table I metric and per-inference NPU counters of `model` on
    /// the unit's test set under `faults` at `stress`: on the chip at that
    /// SRAM voltage, or with the faults composed into the stored words.
    fn eval(
        &mut self,
        unit: &Unit<'_>,
        model: &TrainedModel,
        faults: &CellFaults,
        stress: f64,
    ) -> (f64, NpuStats) {
        let (is_class, test) = (unit.scen.is_classification(), &unit.split().test);
        match self {
            FaultSource::Silicon(die) => eval_on_chip(die.chip(), model, is_class, test, stress),
            FaultSource::Injected { .. } => eval_injected(model, is_class, test, faults),
        }
    }

    /// Programs the rail to `stress` for a replayed evaluation, so the
    /// energy accounting sees the cell's operating point.
    fn set_stress(&mut self, stress: f64) {
        if let FaultSource::Silicon(die) = self {
            die.chip().set_sram_voltage(stress);
        }
    }

    /// The cell's energy record at the current operating point; synthetic
    /// sources have no silicon to meter.
    fn energy(&mut self, npu: NpuStats) -> Option<CellEnergy> {
        match self {
            FaultSource::Silicon(die) => Some(cell_energy(die.chip(), npu)),
            FaultSource::Injected { .. } => None,
        }
    }

    /// The fault-free map the naive baseline trains against.
    fn clean_map(&self) -> FaultMap {
        let geom = match self {
            FaultSource::Silicon(die) => &die.cfg.array,
            FaultSource::Injected { geom, .. } => geom,
        };
        FaultMap::clean(0.9, geom.banks, geom.bank.words, geom.bank.word_bits)
    }

    /// What the source did with silicon so far.
    fn silicon(&self) -> SiliconUsage {
        match self {
            FaultSource::Silicon(die) => die.usage,
            FaultSource::Injected { .. } => SiliconUsage::default(),
        }
    }
}

/// A unit's die, synthesized only when something has to run on it: a
/// profile the cache cannot replay, an evaluation, a canary deployment or
/// a rail change. A unit whose every point replays its profile and every
/// cell replays from the cache never builds one.
struct LazyChip {
    cfg: ChipConfig,
    seed: u64,
    /// [`die_of`] the array config and seed: the profile entries' key.
    die: u128,
    chip: Option<Chip>,
    usage: SiliconUsage,
}

impl LazyChip {
    fn new(cfg: ChipConfig, seed: u64) -> Self {
        LazyChip {
            die: die_of(&cfg.array, seed),
            cfg,
            seed,
            chip: None,
            usage: SiliconUsage::default(),
        }
    }

    /// The chip, synthesized on first use. A chip first built after
    /// replayed profiles is already in the state those profiles would
    /// have left: a fresh chip's banks hold zeros at the rail's voltage,
    /// exactly as a profile parks them.
    fn chip(&mut self) -> &mut Chip {
        let usage = &mut self.usage;
        self.chip.get_or_insert_with(|| {
            usage.chips_synthesized += 1;
            Chip::synthesize(self.cfg.clone(), self.seed)
        })
    }

    /// The die's fault map at `voltage`, with its fingerprint whenever a
    /// cache is attached. A hit in `cache` replays the entry and parks a
    /// built chip as [`Chip::profile`] would have left it; a miss profiles
    /// the chip and stores the entry.
    fn profile(&mut self, cache: Option<&SweepCache>, voltage: f64) -> (FaultMap, Option<u128>) {
        let Some(cache) = cache else {
            self.usage.profiles_computed += 1;
            return (self.chip().profile(voltage), None);
        };
        let temp_c = self
            .chip
            .as_ref()
            .map_or(POWER_ON_TEMP_C, Chip::temperature);
        let key = ProfileKey::new(self.die, voltage, temp_c);
        if let Some((map, fingerprint)) = cache.lookup_profile(&key) {
            self.usage.profiles_replayed += 1;
            if let Some(chip) = &mut self.chip {
                chip.park();
            }
            return (map, Some(fingerprint));
        }
        self.usage.profiles_computed += 1;
        let map = self.chip().profile(voltage);
        let fingerprint = map.fingerprint();
        if let Err(e) = cache.store_profile(&key, &map, fingerprint) {
            warn_store_failure(cache, &e);
        }
        (map, Some(fingerprint))
    }
}

/// One (scenario, chip) unit's invariants. Every model comes from the
/// memo (the sweep's, or the unit's own), with the scenario's trainer and
/// train split (hashed at most once per unit). The dataset is asked for
/// only by a training or an evaluation, so a unit whose cells all replay
/// never has one generated.
struct Unit<'a> {
    plan: &'a SweepPlan,
    scen: &'a dyn Scenario,
    chip_idx: usize,
    split: &'a dyn Fn() -> &'a Split,
    memo: &'a TrainingMemo,
    trainer: MatTrainer,
    data: OnceCell<TrainingSet<'a>>,
}

impl<'a> Unit<'a> {
    /// The scenario's dataset.
    fn split(&self) -> &'a Split {
        (self.split)()
    }

    /// The model trained against `faults`.
    fn train(&self, faults: &FaultMap) -> Arc<TrainedModel> {
        let data = self
            .data
            .get_or_init(|| TrainingSet::new(&self.split().train));
        self.memo.train(&self.trainer, data, faults)
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

/// Trains the baseline (if not yet trained) and evaluates its nominal
/// error: on the chip at 0.9 V, or for synthetic sources through the same
/// path the stressed cells use, with zero faults composed in.
fn ensure_naive<'a>(
    slot: &'a mut Option<NaiveBaseline>,
    unit: &Unit<'_>,
    source: &mut FaultSource,
) -> &'a NaiveBaseline {
    if slot.is_none() {
        let clean = CellFaults {
            map: source.clean_map(),
            drops: None,
        };
        let model = unit.train(&clean.map);
        let (nominal, _) = source.eval(unit, &model, &clean, 0.9);
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

/// Advances the adaptive slot for a point whose training map is `map`.
/// Returns `true` when the cold walk would have reused the previously
/// trained model (the slot keeps its training-time map), `false` when it
/// would retrain (the slot re-targets `map`, lazily).
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
fn materialize_adaptive<'a>(slot: &'a mut AdaptiveModel, unit: &Unit<'_>) -> &'a TrainedModel {
    if slot.model.is_none() {
        slot.model = Some(unit.train(&slot.map));
    }
    slot.model.as_ref().expect("filled above")
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
    if let (Some(cache), Some(key)) = (cache, key) {
        if let Err(e) = cache.store(key, cell) {
            warn_store_failure(cache, &e);
        }
    }
}

/// Reports a failed cache store (of a cell or a profile) once per process.
fn warn_store_failure(cache: &SweepCache, e: &std::io::Error) {
    use std::sync::atomic::AtomicBool;
    static STORE_FAILURE_WARNED: AtomicBool = AtomicBool::new(false);
    if !STORE_FAILURE_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: sweep cache store failed under {} ({e}); \
             further store failures will be silent",
            cache.root().display()
        );
    }
}

/// The full deployment-flow cell: canary selection against the point's
/// profile `at_target` → MAT with pinned canaries → upload/arm → runtime
/// controller settles the rail → evaluate through the NPU at the settled
/// voltage.
fn run_canary_cell(
    unit: &Unit<'_>,
    chip: &mut Chip,
    at_target: &FaultMap,
    nominal: f64,
) -> CellRecord {
    let voltage = at_target.voltage;
    let flow = DeploymentFlow {
        mat: unit.trainer.config().clone(),
        ..DeploymentFlow::new(voltage)
    };
    // The point's profile is the flow's step (1); selection and training
    // come from the memo. Pinning, upload and arming run on the chip.
    let mut net = chip.deploy_with(
        &flow,
        unit.trainer.spec(),
        at_target.clone(),
        |array, at_target, per_bank, step_v| {
            unit.memo
                .select_canaries(array, at_target, per_bank, step_v)
        },
        |faults| TrainedModel::clone(&unit.train(faults)),
    );
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
        unit.scen.is_classification(),
        &unit.split().test,
    );
    let map = net.deployment().fault_map();
    let mut cell = new_cell(
        unit,
        TrainingMode::MatCanary,
        voltage,
        error,
        nominal,
        map,
        None,
    );
    cell.energy = Some(cell_energy(chip, first_npu));
    cell.settled_voltage = Some(settled);
    cell
}

/// Evaluates a trained model under injected faults, **without profiled
/// silicon**: each parameter's stored word (what
/// [`upload_weights`](matic_core::upload_weights) would write) passes
/// through the model's storage fault map straight into
/// [`FaultedWeights`], and the test set runs through the NPU's dense
/// kernel with the model's MAC-drop spec composed into the accumulation.
/// The fault map is never consulted per MAC.
fn eval_injected(
    model: &TrainedModel,
    is_classification: bool,
    test: &[Sample],
    faults: &CellFaults,
) -> (f64, NpuStats) {
    let weights = FaultedWeights::compose(model.layout(), model.format(), |param, loc| {
        faults
            .map
            .apply(loc.bank, loc.word, model.stored_word(param))
    });
    let npu = Snnac::snnac(model.format());
    let program = Program::compile(model.master().spec(), npu.pe_count());
    let drops = faults.drops.as_ref();
    eval_composed_set(&npu, &program, &weights, drops, is_classification, test)
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

/// A cell at stress point `stress`: the value lands in the plan axis's
/// column, and for kernel-side drop models the storage-map statistics —
/// meaningless there — are replaced by the dropped-weight population.
fn new_cell(
    unit: &Unit<'_>,
    mode: TrainingMode,
    stress: f64,
    error: f64,
    nominal: f64,
    map: &FaultMap,
    drops: Option<(usize, f64)>,
) -> CellRecord {
    let (plan, scen, chip_idx) = (unit.plan, unit.scen, unit.chip_idx);
    let is_class = scen.is_classification();
    let margin = if is_class {
        FAIL_MARGIN_PERCENT
    } else {
        FAIL_MARGIN_MSE
    };
    let (fault_count, measured_ber) = drops.unwrap_or((map.fault_count(), map.ber()));
    let mut cell = CellRecord {
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
        measured_ber,
        fault_count,
        settled_voltage: None,
        reused_model: false,
        failed: error > nominal + margin,
    };
    match &plan.axis {
        StressAxis::Voltage(_) => cell.voltage = Some(stress),
        StressAxis::BitErrorRate(_) => cell.ber_target = Some(stress),
        StressAxis::ClockStress(_) => cell.clock_stress = Some(stress),
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two regression scenarios, two chips, one nominal naive point: each
    /// scenario trains exactly one model (its baseline, shared by chips).
    fn two_scenario_plan() -> SweepPlan {
        SweepPlan::builder()
            .chips(2)
            .voltages(&[0.9])
            .benchmark("inversek2j")
            .unwrap()
            .benchmark("bscholes")
            .unwrap()
            .modes(&[TrainingMode::Naive])
            .data_scale(0.05)
            .epoch_scale(0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_inputs_evict_a_scenario_right_after_its_last_unit() {
        let plan = two_scenario_plan();
        let inputs = SweepInputs::new(&plan, &sweep_units(&plan), false);
        let ctx = ExecContext::default();
        // Non-grid order; after each unit: (models held, trainings run).
        let walk = [
            ((1, 0), (1, 1)),
            ((0, 0), (2, 2)),
            // Scenario 0's second unit reuses its baseline, then evicts it.
            ((0, 1), (1, 2)),
            // Scenario 1's baseline survived that eviction: a hit again.
            ((1, 1), (0, 2)),
        ];
        for (unit, (held, trained)) in walk {
            let outcome = inputs.run_unit(&plan, unit, &ctx);
            assert!(!outcome.cancelled);
            assert_eq!(outcome.cells.len(), 1);
            assert_eq!(inputs.memo.len(), held, "models held after unit {unit:?}");
            assert_eq!(inputs.memo.trainings(), trained, "trainings after {unit:?}");
        }
        assert_eq!(inputs.memo.requests(), 4);
    }

    /// Every stored word, each bank's `(voltage, temperature)`, the
    /// array's `(voltage, temperature)` and the regulator's volts.
    type ChipState = (Vec<u32>, Vec<(f64, f64)>, (f64, f64), f64);

    /// Everything a later step could observe of a chip: every stored word
    /// (via the oracle `peek`), each bank's voltage and temperature, the
    /// array's operating point and the regulator's setting.
    fn chip_state(chip: &Chip) -> ChipState {
        let array = chip.array();
        let banks = (0..array.bank_count()).map(|b| array.bank(b));
        let words = banks
            .clone()
            .flat_map(|bank| (0..bank.words()).map(|w| bank.peek(w)))
            .collect();
        let points = banks.map(|b| (b.voltage(), b.temperature())).collect();
        let array_point = (array.voltage(), array.temperature());
        (words, points, array_point, chip.sram_voltage())
    }

    /// Loads words, then reads them back overscaled, as an evaluation
    /// does: the banks hold disturbed contents at a low rail.
    fn dirty(chip: &mut Chip) {
        chip.set_sram_voltage(0.9);
        for bank in 0..chip.array().bank_count() {
            for word in (0..chip.array().bank(bank).words()).step_by(3) {
                let value = (word as u32 * 0x2F1 + bank as u32) & 0xFFFF;
                chip.array_mut().write(bank, word, value);
            }
        }
        chip.set_sram_voltage(0.47);
        for bank in 0..chip.array().bank_count() {
            for word in 0..chip.array().bank(bank).words() {
                chip.array_mut().read(bank, word);
            }
        }
    }

    fn profile_cache(tag: &str, seed: u64, voltages: &[f64]) -> (std::path::PathBuf, SweepCache) {
        let dir =
            std::env::temp_dir().join(format!("matic-engine-{tag}-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = SweepCache::open(&dir).expect("cache opens");
        let mut filler = LazyChip::new(ChipConfig::default(), seed);
        for &v in voltages {
            filler.profile(Some(&cache), v);
        }
        assert_eq!(filler.usage.profiles_computed, voltages.len());
        (dir, cache)
    }

    #[test]
    fn a_profile_hit_leaves_a_built_chip_as_profiling_would() {
        let (dir, cache) = profile_cache("park", 7, &[0.5]);
        let mut lazy = LazyChip::new(ChipConfig::default(), 7);
        let mut reference = Chip::synthesize(ChipConfig::default(), 7);
        dirty(lazy.chip());
        dirty(&mut reference);
        assert_eq!(chip_state(lazy.chip()), chip_state(&reference));
        let (map, fingerprint) = lazy.profile(Some(&cache), 0.5);
        assert_eq!(lazy.usage.profiles_replayed, 1, "the point must replay");
        let profiled = reference.profile(0.5);
        assert!(profiled.fault_count() > 0);
        assert_eq!(
            (map, fingerprint),
            (profiled.clone(), Some(profiled.fingerprint()))
        );
        assert_eq!(chip_state(lazy.chip()), chip_state(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_chip_built_after_replayed_profiles_equals_one_that_profiled_them() {
        let voltages = [0.9, 0.5, 0.46];
        let (dir, cache) = profile_cache("lazy", 9, &voltages);
        let mut lazy = LazyChip::new(ChipConfig::default(), 9);
        let mut reference = Chip::synthesize(ChipConfig::default(), 9);
        for v in voltages {
            let (map, _) = lazy.profile(Some(&cache), v);
            assert_eq!(map, reference.profile(v));
        }
        let replayed_only = SiliconUsage {
            profiles_replayed: voltages.len(),
            ..SiliconUsage::default()
        };
        assert_eq!(lazy.usage, replayed_only, "no chip until one must run");
        assert_eq!(chip_state(lazy.chip()), chip_state(&reference));
        assert_eq!(lazy.usage.chips_synthesized, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
