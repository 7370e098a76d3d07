//! The traced passes over a sweep plan.
//!
//! * [`engine_pass`] drives the engine unit by unit through
//!   `run_unit_observed` on the benchmark's own two workers, timing each
//!   unit and stamping every finished cell through a `ProgressSink`, then
//!   assembles the report.
//! * [`redrive`] walks every unit again through the layer crates' public
//!   entry points, with a span around each call: it trains exactly where
//!   the engine trained (the naive baseline once per unit, a MAT model
//!   wherever a cell's `reused_model` is false, a canary deployment per
//!   canary cell) and reproduces every cell's `error`, which the caller
//!   checks against the report so the spans describe the same program.
//! * [`step_split`] replays one training's SGD loop step by step, timing
//!   quantize + mask, gradients and update, and checks that it lands on
//!   the model `MatTrainer` produced.

use crate::metrics::median;
use crate::trace::Recorder;
use matic_core::{
    drop_surrogate_map, upload_weights, CellFaults, ComposedQuantizer, DeploymentFlow,
    FaultContext, FaultedWeights, MatConfig, MatTrainer, TrainedModel, UpdateRule, WeightLayout,
};
use matic_datasets::Split;
use matic_harness::{
    assemble_sweep, eval_composed_set, run_unit_observed, sweep_units, CellOrigin, ExecContext,
    ProgressSink, ReusePolicy, Scenario, SweepOutcome, SweepPlan, SweepRun, TrainingMode,
    UnitOutcome,
};
use matic_nn::{BatchScratch, Gradients, Mlp, MomentumState, NetSpec, Sample};
use matic_snnac::microcode::Program;
use matic_snnac::{Chip, ChipConfig, Snnac};
use matic_sram::{ArrayConfig, FaultMap, SramArray};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Runs `f(i)` for `i in 0..n` on `threads` workers pulling from one
/// shared cursor (the engine's own dynamic schedule); results come back
/// in index order.
pub fn par_units<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let out = f(i);
                *slots[i].lock().expect("unit slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("unit slot poisoned")
                .expect("every unit ran")
        })
        .collect()
}

/// Counts finished cells by origin.
#[derive(Default)]
struct CellStamps {
    computed: AtomicUsize,
    replayed: AtomicUsize,
}

impl ProgressSink for CellStamps {
    fn cell_done(&self, origin: CellOrigin) {
        match origin {
            CellOrigin::Computed => &self.computed,
            _ => &self.replayed,
        }
        .fetch_add(1, Ordering::Relaxed);
    }
}

/// What [`engine_pass`] measured.
pub struct EnginePass {
    pub run: SweepRun,
    pub wall_s: f64,
    pub unit_s: Vec<f64>,
    pub assemble_s: f64,
    pub cells_computed: usize,
}

/// Engine metrics over one or more passes: unit times pooled, assembly
/// times and computed cells summed.
pub fn record_engine(passes: &[EnginePass], out: &mut BTreeMap<&'static str, f64>) {
    let unit_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.unit_s.iter().copied())
        .collect();
    let mean = unit_s.iter().sum::<f64>() / unit_s.len().max(1) as f64;
    let max = unit_s.iter().copied().fold(0.0, f64::max);
    out.insert("harness.engine.unit_p50_s", median(&unit_s));
    out.insert("harness.engine.unit_max_s", max);
    out.insert(
        "harness.engine.unit_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
    out.insert(
        "harness.engine.assemble_s",
        passes.iter().map(|p| p.assemble_s).sum(),
    );
    out.insert(
        "harness.engine.cells_computed",
        passes.iter().map(|p| p.cells_computed).sum::<usize>() as f64,
    );
}

/// One uncached sweep of `plan`, driven unit by unit.
pub fn engine_pass(plan: &SweepPlan, threads: usize) -> EnginePass {
    let t0 = Instant::now();
    let splits = matic_harness::sweep_splits(plan);
    let units = sweep_units(plan);
    let stamps = CellStamps::default();
    let ctx = ExecContext {
        progress: Some(&stamps),
        ..ExecContext::default()
    };
    let timed: Vec<(UnitOutcome, f64)> = par_units(units.len(), threads, |i| {
        let (s, c) = units[i];
        let t = Instant::now();
        let outcome = run_unit_observed(plan, s, c, &splits[s], &ctx);
        (outcome, t.elapsed().as_secs_f64())
    });
    let (per_unit, unit_s): (Vec<UnitOutcome>, Vec<f64>) = timed.into_iter().unzip();
    let ta = Instant::now();
    let run = match assemble_sweep(plan, per_unit, false) {
        SweepOutcome::Complete(run) => run,
        SweepOutcome::Cancelled(_) => unreachable!("no cancel token was attached"),
    };
    let assemble_s = ta.elapsed().as_secs_f64();
    EnginePass {
        run,
        wall_s: t0.elapsed().as_secs_f64(),
        unit_s,
        assemble_s,
        cells_computed: stamps.computed.load(Ordering::Relaxed),
    }
}

/// Work counted during a re-drive. Every field is a pure function of the
/// plan.
#[derive(Default)]
pub struct Counters {
    pub dataset_calls: AtomicU64,
    pub profile_calls: AtomicU64,
    pub faulty_bits: AtomicU64,
    pub faults_calls: AtomicU64,
    pub trainings: AtomicU64,
    pub sgd_steps: AtomicU64,
    pub deploys: AtomicU64,
    pub evals: AtomicU64,
    pub inferences: AtomicU64,
    pub cycles: AtomicU64,
    /// (topology, recipe, train split, training map) of every training.
    pub training_keys: Mutex<BTreeSet<(u128, u128, u64, u128)>>,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

impl Counters {
    pub fn record(&self, out: &mut BTreeMap<&'static str, f64>) {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
        let trainings = get(&self.trainings);
        let unique = self.training_keys.lock().expect("key set poisoned").len() as f64;
        let inferences = get(&self.inferences);
        out.insert("datasets.calls", get(&self.dataset_calls));
        out.insert("sram.profile_calls", get(&self.profile_calls));
        out.insert("sram.faulty_bits", get(&self.faulty_bits));
        out.insert("core.models.faults_calls", get(&self.faults_calls));
        out.insert("core.mat.trainings", trainings);
        out.insert("core.mat.sgd_steps", get(&self.sgd_steps));
        out.insert("core.mat.trainings_unique", unique);
        out.insert(
            "core.mat.unique_ratio",
            if trainings > 0.0 {
                unique / trainings
            } else {
                0.0
            },
        );
        out.insert("core.flow.deploys", get(&self.deploys));
        out.insert("snnac.evals", get(&self.evals));
        out.insert("snnac.inferences", inferences);
        out.insert(
            "snnac.cycles_per_inference",
            if inferences > 0.0 {
                get(&self.cycles) / inferences
            } else {
                0.0
            },
        );
    }
}

/// Layer span totals of a recorder, keyed by metric name.
pub fn record_spans(rec: &Recorder, out: &mut BTreeMap<&'static str, f64>) {
    for (metric, span) in [
        ("datasets.generate_s", "datasets.generate"),
        ("sram.synthesize_s", "sram.synthesize"),
        ("sram.profile_s", "sram.profile"),
        ("core.models.faults_s", "core.models.faults"),
        ("core.mat.train_s", "core.mat.train"),
        ("core.flow.deploy_s", "core.flow.deploy"),
        ("snnac.compose_s", "snnac.compose"),
        ("snnac.eval_s", "snnac.eval"),
        ("harness.cache.key_s", "harness.cache.key"),
        ("harness.cache.lookup_s", "harness.cache.lookup"),
        ("harness.cache.store_s", "harness.cache.store"),
    ] {
        out.insert(metric, rec.total(span));
    }
}

/// Sum of the self times of every layer span (a name with a crate
/// prefix), i.e. the busy time the trace attributes to some layer.
pub fn layer_self_time(rec: &Recorder) -> f64 {
    rec.self_times()
        .into_iter()
        .filter(|(name, _)| {
            ["datasets.", "sram.", "core.", "nn.", "snnac.", "harness."]
                .iter()
                .any(|p| name.starts_with(p))
        })
        .map(|(_, t)| t)
        .sum()
}

/// One cell as the re-drive reproduced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reproduced {
    pub error: f64,
    pub reused_model: bool,
}

/// A MAT model the re-drive trained, kept for [`step_split`].
pub struct Stashed {
    pub spec: NetSpec,
    pub cfg: MatConfig,
    pub scen_idx: usize,
    pub map: FaultMap,
    pub model: TrainedModel,
}

/// The shared state of one re-drive.
pub struct Redrive<'a> {
    pub plan: &'a SweepPlan,
    pub rec: &'a Recorder,
    pub counters: &'a Counters,
    /// The last MAT model trained on chip 0 of each scenario.
    pub stash: Mutex<BTreeMap<usize, Stashed>>,
}

impl<'a> Redrive<'a> {
    pub fn new(plan: &'a SweepPlan, rec: &'a Recorder, counters: &'a Counters) -> Self {
        Redrive {
            plan,
            rec,
            counters,
            stash: Mutex::new(BTreeMap::new()),
        }
    }

    /// Generates every scenario's split, then walks every unit on
    /// `threads` workers. Returns the reproduced cells in report order.
    pub fn run(&self, threads: usize) -> Vec<Reproduced> {
        let splits: Vec<Split> = self
            .plan
            .scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                bump(&self.counters.dataset_calls, 1);
                self.rec.span("datasets.generate", || {
                    s.generate(self.plan.data_seed(i), self.plan.data_scale)
                })
            })
            .collect();
        let units = sweep_units(self.plan);
        par_units(units.len(), threads, |i| {
            let (s, c) = units[i];
            self.rec
                .span("redrive.unit", || self.unit(s, c, &splits[s]))
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn train(
        &self,
        spec: &NetSpec,
        cfg: &MatConfig,
        scen_idx: usize,
        data: &[Sample],
        map: &FaultMap,
    ) -> TrainedModel {
        let c = self.counters;
        bump(&c.trainings, 1);
        let per_epoch = data.len().div_ceil(cfg.sgd.batch_size.max(1));
        bump(
            &c.sgd_steps,
            (cfg.restarts.max(1) * cfg.sgd.epochs * per_epoch) as u64,
        );
        c.training_keys.lock().expect("key set poisoned").insert((
            matic_sram::fingerprint::fingerprint_of(spec),
            cfg.fingerprint(),
            self.plan.data_seed(scen_idx),
            map.fingerprint(),
        ));
        self.rec.span("core.mat.train", || {
            MatTrainer::new(spec.clone(), cfg.clone()).train(data, map)
        })
    }

    fn eval(
        &self,
        npu: &Snnac,
        program: &Program,
        weights: &FaultedWeights,
        drops: Option<&matic_nn::kernel::MacDropSpec>,
        is_class: bool,
        test: &[Sample],
    ) -> (f64, matic_snnac::npu::NpuStats) {
        let c = self.counters;
        let (metric, stats) = self.rec.span("snnac.eval", || {
            eval_composed_set(npu, program, weights, drops, is_class, test)
        });
        bump(&c.evals, 1);
        bump(&c.inferences, test.len() as u64);
        bump(&c.cycles, stats.cycles * test.len() as u64);
        (metric, stats)
    }

    /// The engine's `eval_on_chip`: upload at a safe rail, overscale,
    /// compose the post-disturb words once, run the test set.
    fn eval_on_chip(
        &self,
        chip: &mut Chip,
        model: &TrainedModel,
        is_class: bool,
        test: &[Sample],
        voltage: f64,
    ) -> f64 {
        chip.set_sram_voltage(0.9);
        self.rec.span("core.flow.upload", || {
            upload_weights(model, chip.array_mut())
        });
        chip.set_sram_voltage(voltage);
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(model.master().spec(), npu.pe_count());
        let weights = self.rec.span("snnac.compose", || {
            FaultedWeights::from_array(model.layout(), model.format(), chip.array_mut())
        });
        self.eval(&npu, &program, &weights, None, is_class, test).0
    }

    /// The engine's `eval_injected`: a clean store at nominal voltage,
    /// the cell's storage faults written word by word, MAC drops composed
    /// into the kernel.
    fn eval_injected(
        &self,
        model: &TrainedModel,
        is_class: bool,
        test: &[Sample],
        faults: &CellFaults,
        geom: &ArrayConfig,
    ) -> f64 {
        let mut array = self
            .rec
            .span("sram.synthesize", || SramArray::synthesize(geom, 0));
        self.rec
            .span("core.flow.upload", || upload_weights(model, &mut array));
        self.rec.span("core.models.inject", || {
            for b in 0..geom.banks {
                for w in 0..geom.bank.words {
                    let stored = array.read(b, w);
                    let faulted = faults.map.apply(b, w, stored);
                    if faulted != stored {
                        array.write(b, w, faulted);
                    }
                }
            }
        });
        let weights = self.rec.span("snnac.compose", || {
            FaultedWeights::from_array(model.layout(), model.format(), &mut array)
        });
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(model.master().spec(), npu.pe_count());
        self.eval(
            &npu,
            &program,
            &weights,
            faults.drops.as_ref(),
            is_class,
            test,
        )
        .0
    }

    fn stash(
        &self,
        scen_idx: usize,
        chip_idx: usize,
        spec: &NetSpec,
        cfg: &MatConfig,
        map: &FaultMap,
        model: &TrainedModel,
    ) {
        if chip_idx == 0 {
            self.stash.lock().expect("stash poisoned").insert(
                scen_idx,
                Stashed {
                    spec: spec.clone(),
                    cfg: cfg.clone(),
                    scen_idx,
                    map: map.clone(),
                    model: model.clone(),
                },
            );
        }
    }

    /// Whether the engine keeps the previous MAT model at a point whose
    /// map is `map` (superset-map reuse).
    fn reuses(&self, trained_on: Option<&FaultMap>, map: &FaultMap) -> bool {
        self.plan.reuse == ReusePolicy::SupersetMap
            && trained_on.is_some_and(|t| map.is_subset_of(t))
    }

    fn unit(&self, scen_idx: usize, chip_idx: usize, split: &Split) -> Vec<Reproduced> {
        if self.plan.model.needs_silicon() {
            self.silicon_unit(scen_idx, chip_idx, split)
        } else {
            self.injected_unit(scen_idx, chip_idx, split)
        }
    }

    fn faults_at(
        &self,
        stress: f64,
        scen_idx: usize,
        chip_idx: usize,
        point_idx: usize,
        profiled: Option<&FaultMap>,
    ) -> CellFaults {
        bump(&self.counters.faults_calls, 1);
        self.rec.span("core.models.faults", || {
            self.plan.model.faults_at(&FaultContext {
                stress,
                cell_seed: self.plan.cell_map_seed(chip_idx, scen_idx, point_idx),
                unit_seed: self.plan.unit_fault_seed(chip_idx, scen_idx),
                profiled,
            })
        })
    }

    fn silicon_unit(&self, scen_idx: usize, chip_idx: usize, split: &Split) -> Vec<Reproduced> {
        let plan = self.plan;
        let scen: &dyn Scenario = &*plan.scenarios[scen_idx];
        let spec = scen.topology();
        let cfg = plan.train_config(scen);
        let is_class = scen.is_classification();
        let chip_cfg = ChipConfig::with_geometry(
            plan.model.geometry(),
            plan.model.weight_format().unwrap_or_default(),
        );
        let mut chip = self.rec.span("sram.synthesize", || {
            Chip::synthesize(chip_cfg, plan.chip_seed(chip_idx))
        });
        let mut naive: Option<(TrainedModel, f64)> = None;
        let mut adaptive: Option<(FaultMap, Option<TrainedModel>)> = None;
        // (map, naive eval, mat eval) replayed while the fault content
        // does not change, as the engine does.
        let mut evals: Option<(FaultMap, Option<f64>, Option<f64>)> = None;
        let mut cells = Vec::new();
        for (point_idx, &voltage) in plan.axis.points().iter().enumerate() {
            bump(&self.counters.profile_calls, 1);
            let profiled = self.rec.span("sram.profile", || chip.profile(voltage));
            bump(&self.counters.faulty_bits, profiled.fault_count() as u64);
            let map = self
                .faults_at(voltage, scen_idx, chip_idx, point_idx, Some(&profiled))
                .map;
            let keep_evals = plan.reuse == ReusePolicy::SupersetMap
                && evals.as_ref().is_some_and(|e| e.0.banks() == map.banks());
            if !keep_evals {
                evals = Some((map.clone(), None, None));
            }
            let reused = plan.modes.contains(&TrainingMode::Mat)
                && self.reuses(adaptive.as_ref().map(|a| &a.0), &map);
            if plan.modes.contains(&TrainingMode::Mat) && !reused {
                adaptive = Some((map.clone(), None));
            }
            for &mode in &plan.modes {
                if naive.is_none() {
                    let geom = chip.config().array.clone();
                    let clean =
                        FaultMap::clean(0.9, geom.banks, geom.bank.words, geom.bank.word_bits);
                    let model = self.train(&spec, &cfg, scen_idx, &split.train, &clean);
                    let nominal = self.eval_on_chip(&mut chip, &model, is_class, &split.test, 0.9);
                    naive = Some((model, nominal));
                }
                let (naive_model, _) = naive.as_ref().expect("trained above");
                let slots = evals.as_mut().expect("initialized above");
                let cell = match mode {
                    TrainingMode::Naive => {
                        let error = match slots.1 {
                            Some(e) => {
                                chip.set_sram_voltage(voltage);
                                e
                            }
                            None => {
                                let e = self.eval_on_chip(
                                    &mut chip,
                                    naive_model,
                                    is_class,
                                    &split.test,
                                    voltage,
                                );
                                slots.1 = Some(e);
                                e
                            }
                        };
                        Reproduced {
                            error,
                            reused_model: false,
                        }
                    }
                    TrainingMode::Mat => {
                        let slot = adaptive.as_mut().expect("advanced above");
                        if slot.1.is_none() {
                            let model = self.train(&spec, &cfg, scen_idx, &split.train, &slot.0);
                            self.stash(scen_idx, chip_idx, &spec, &cfg, &slot.0, &model);
                            slot.1 = Some(model);
                        }
                        let model = slot.1.as_ref().expect("trained above");
                        let error = match slots.2 {
                            Some(e) => {
                                chip.set_sram_voltage(voltage);
                                e
                            }
                            None => {
                                let e = self.eval_on_chip(
                                    &mut chip,
                                    model,
                                    is_class,
                                    &split.test,
                                    voltage,
                                );
                                slots.2 = Some(e);
                                e
                            }
                        };
                        Reproduced {
                            error,
                            reused_model: reused,
                        }
                    }
                    TrainingMode::MatCanary => {
                        let flow = DeploymentFlow {
                            mat: plan.train_config(scen),
                            ..DeploymentFlow::new(voltage)
                        };
                        bump(&self.counters.deploys, 1);
                        let net = self.rec.span("core.flow.deploy", || {
                            let mut net = chip.deploy(&flow, &spec, &split.train);
                            chip.poll_canaries(&mut net);
                            net
                        });
                        let weights = self.rec.span("snnac.compose", || chip.compose(&net));
                        let (error, _) = self.eval(
                            net.npu(),
                            net.program(),
                            &weights,
                            None,
                            is_class,
                            &split.test,
                        );
                        Reproduced {
                            error,
                            reused_model: false,
                        }
                    }
                };
                cells.push(cell);
            }
        }
        cells
    }

    fn injected_unit(&self, scen_idx: usize, chip_idx: usize, split: &Split) -> Vec<Reproduced> {
        let plan = self.plan;
        let scen: &dyn Scenario = &*plan.scenarios[scen_idx];
        let spec = scen.topology();
        let cfg = plan.train_config(scen);
        let is_class = scen.is_classification();
        let geom = plan.model.geometry();
        let layout = WeightLayout::new(&spec, geom.banks, geom.bank.words)
            .expect("scenario topology fits the model's weight memory");
        let mut naive: Option<(TrainedModel, f64)> = None;
        let mut adaptive: Option<(FaultMap, Option<TrainedModel>)> = None;
        let mut cells = Vec::new();
        for (point_idx, &stress) in plan.axis.points().iter().enumerate() {
            let faults = self.faults_at(stress, scen_idx, chip_idx, point_idx, None);
            let train_map = match &faults.drops {
                Some(drops) => drop_surrogate_map(drops, &layout, geom.bank.word_bits),
                None => faults.map.clone(),
            };
            let reused = plan.modes.contains(&TrainingMode::Mat)
                && self.reuses(adaptive.as_ref().map(|a| &a.0), &train_map);
            if plan.modes.contains(&TrainingMode::Mat) && !reused {
                adaptive = Some((train_map.clone(), None));
            }
            for &mode in &plan.modes {
                if naive.is_none() {
                    let clean =
                        FaultMap::clean(0.9, geom.banks, geom.bank.words, geom.bank.word_bits);
                    let model = self.train(&spec, &cfg, scen_idx, &split.train, &clean);
                    let clean_faults = CellFaults {
                        map: clean,
                        drops: None,
                    };
                    let nominal =
                        self.eval_injected(&model, is_class, &split.test, &clean_faults, &geom);
                    naive = Some((model, nominal));
                }
                let cell = match mode {
                    TrainingMode::Naive => {
                        let model = &naive.as_ref().expect("trained above").0;
                        Reproduced {
                            error: self.eval_injected(model, is_class, &split.test, &faults, &geom),
                            reused_model: false,
                        }
                    }
                    TrainingMode::Mat => {
                        let slot = adaptive.as_mut().expect("advanced above");
                        if slot.1.is_none() {
                            let model = self.train(&spec, &cfg, scen_idx, &split.train, &slot.0);
                            self.stash(scen_idx, chip_idx, &spec, &cfg, &slot.0, &model);
                            slot.1 = Some(model);
                        }
                        let model = slot.1.as_ref().expect("trained above");
                        Reproduced {
                            error: self.eval_injected(model, is_class, &split.test, &faults, &geom),
                            reused_model: reused,
                        }
                    }
                    TrainingMode::MatCanary => {
                        unreachable!("plan validation rejects mat-canary on synthetic fault models")
                    }
                };
                cells.push(cell);
            }
        }
        cells
    }
}

/// Compares the re-drive's cells with the report's, cell by cell.
pub fn check_reproduction(
    report: &matic_harness::SweepReport,
    cells: &[Reproduced],
) -> Result<(), String> {
    if report.cells.len() != cells.len() {
        return Err(format!(
            "re-drive produced {} cells, the report has {}",
            cells.len(),
            report.cells.len()
        ));
    }
    for (i, (want, got)) in report.cells.iter().zip(cells).enumerate() {
        if want.error.to_bits() != got.error.to_bits() || want.reused_model != got.reused_model {
            return Err(format!(
                "cell {i} ({} chip {} {}): report error {} reused {}, re-drive error {} reused {}",
                want.scenario,
                want.chip_index,
                want.mode,
                want.error,
                want.reused_model,
                got.error,
                got.reused_model
            ));
        }
    }
    Ok(())
}

/// Replays `stashed`'s training loop with a span around each step's
/// quantize + mask (`ComposedQuantizer::effective_into`), gradients
/// (`Mlp::gradients_indexed`) and update (`Mlp::apply_update`), then
/// checks the result is the model `MatTrainer` trained.
pub fn step_split(stashed: &Stashed, data: &[Sample], rec: &Recorder) -> Result<(), String> {
    let cfg = &stashed.cfg;
    if cfg.update_rule != UpdateRule::FloatMaster {
        return Err("step split replays the FloatMaster update rule only".into());
    }
    let map = &stashed.map;
    let layout = WeightLayout::new(&stashed.spec, map.banks().len(), map.banks()[0].words())
        .map_err(|e| format!("layout: {e:?}"))?;
    let quant = ComposedQuantizer::new(cfg.weight_fmt, &layout, Some(map));
    let mut best: Option<(f64, Mlp)> = None;
    for restart in 0..cfg.restarts.max(1) as u64 {
        let mut master = Mlp::init(stashed.spec.clone(), cfg.init_seed + restart);
        let mut momentum = MomentumState::zeros_like(&master);
        let mut effective = master.clone();
        let mut grads = Gradients::zeros_like(&master);
        let mut scratch = BatchScratch::default();
        let mut rng = StdRng::seed_from_u64(cfg.shuffle_seed + restart);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut lr = cfg.sgd.lr;
        for _ in 0..cfg.sgd.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.sgd.batch_size.max(1)) {
                rec.span("core.quantizer.effective", || {
                    quant.effective_into(&master, &mut effective)
                });
                rec.span("nn.gradients", || {
                    effective.gradients_indexed(data, chunk, &mut grads, &mut scratch)
                });
                rec.span("nn.update", || {
                    master.apply_update(&grads, lr, cfg.sgd.momentum, &mut momentum)
                });
            }
            lr *= cfg.sgd.lr_decay;
        }
        let loss = quant.effective(&master).mean_loss(data);
        if best.as_ref().is_none_or(|(b, _)| loss < *b) {
            best = Some((loss, master));
        }
    }
    let (_, master) = best.expect("at least one restart");
    if &master != stashed.model.master() {
        return Err(format!(
            "step-split replay of scenario {} diverged from MatTrainer's model",
            stashed.scen_idx
        ));
    }
    Ok(())
}

/// The step-split metrics of every stashed training.
pub fn step_split_all(
    stash: &BTreeMap<usize, Stashed>,
    splits: &[Split],
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<Recorder, String> {
    let rec = Recorder::new();
    for stashed in stash.values() {
        step_split(stashed, &splits[stashed.scen_idx].train, &rec)?;
    }
    out.insert(
        "core.quantizer.effective_s",
        rec.total("core.quantizer.effective"),
    );
    out.insert("nn.gradients_s", rec.total("nn.gradients"));
    out.insert("nn.update_s", rec.total("nn.update"));
    Ok(rec)
}

/// Per-step time of the re-drive's trainings.
pub fn record_step_time(out: &mut BTreeMap<&'static str, f64>) {
    let train_s = out.get("core.mat.train_s").copied().unwrap_or(0.0);
    let steps = out.get("core.mat.sgd_steps").copied().unwrap_or(0.0);
    out.insert(
        "core.mat.step_us",
        if steps > 0.0 {
            1e6 * train_s / steps
        } else {
            0.0
        },
    );
}
