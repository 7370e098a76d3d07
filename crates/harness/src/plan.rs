//! [`SweepPlan`]: the declarative description of a chip-population sweep.

use crate::scenario::{builtin_scenarios, scenario_by_name, Scenario, TopologyScenario};
use matic_core::{fitted_array_config, FaultModel, MatConfig};
use matic_nn::NetSpec;
use matic_sram::ArrayConfig;
use std::fmt;
use std::sync::Arc;

/// How the deployed model was trained for a sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrainingMode {
    /// Fault-oblivious baseline: quantization-aware training against a
    /// clean fault map (the paper's "naive" column).
    Naive,
    /// Memory-adaptive training against the profiled fault map (§III-B).
    Mat,
    /// Memory-adaptive training plus in-situ canaries and the runtime
    /// voltage controller (§III-C); the cell is evaluated at the
    /// controller's settled voltage.
    MatCanary,
}

impl TrainingMode {
    /// All modes, in report order.
    pub const ALL: [TrainingMode; 3] = [
        TrainingMode::Naive,
        TrainingMode::Mat,
        TrainingMode::MatCanary,
    ];

    /// Stable identifier used in reports and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            TrainingMode::Naive => "naive",
            TrainingMode::Mat => "mat",
            TrainingMode::MatCanary => "mat-canary",
        }
    }

    /// Parses a CLI identifier.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl fmt::Display for TrainingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The stress dimension a sweep walks.
#[derive(Debug, Clone, PartialEq)]
pub enum StressAxis {
    /// SRAM supply voltages: chips are profiled and evaluated **on the
    /// NPU** at each point (the Table I / Fig. 10 experiment).
    Voltage(Vec<f64>),
    /// Synthetic i.i.d. bit-error rates: fault maps are injected from the
    /// plan's fault model and evaluated on the NPU (the Fig. 5-style
    /// feasibility experiment). No energy accounting on this axis.
    BitErrorRate(Vec<f64>),
    /// Normalized clock-period stress in `[0, 1]`: MACs drop their
    /// partial products with a stress-dependent probability
    /// (ThUnderVolt's TE-Drop semantics). No energy accounting on this
    /// axis.
    ClockStress(Vec<f64>),
}

impl StressAxis {
    /// The stress values, in sweep order.
    pub fn points(&self) -> &[f64] {
        match self {
            StressAxis::Voltage(v) | StressAxis::BitErrorRate(v) | StressAxis::ClockStress(v) => v,
        }
    }

    /// `"voltage"`, `"ber"` or `"clock"`.
    pub fn kind(&self) -> &'static str {
        match self {
            StressAxis::Voltage(_) => "voltage",
            StressAxis::BitErrorRate(_) => "ber",
            StressAxis::ClockStress(_) => "clock",
        }
    }
}

/// When a cell may reuse a model trained at an earlier sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReusePolicy {
    /// Always retrain — the strict one-model-per-operating-point flow
    /// (Fig. 3).
    PerPoint,
    /// Reuse the most recently trained model whenever its fault map is a
    /// superset of the current point's map (it already routes around every
    /// present fault). With voltages walked high-to-low this reuses models
    /// across the fault-free top of the range and retrains exactly when
    /// new faults appear — same results as [`ReusePolicy::PerPoint`]
    /// wherever the maps differ.
    SupersetMap,
}

/// An invalid [`SweepPlan`] description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PlanError {}

/// A validated sweep description: the cartesian grid
/// `{chips} x {stress points} x {scenarios} x {training modes}` plus
/// effort and seeding knobs. Build one with [`SweepPlan::builder`].
///
/// # Examples
///
/// ```
/// use matic_harness::{SweepPlan, TrainingMode};
///
/// let plan = SweepPlan::builder()
///     .chips(8)
///     .voltage_grid(0.46, 0.90, 5)
///     .benchmark("all")?
///     .modes(&[TrainingMode::Naive, TrainingMode::Mat])
///     .seed(42)
///     .build()?;
///
/// // Voltages walk high-to-low so superset fault maps come first.
/// assert_eq!(plan.axis.points()[0], 0.90);
/// assert_eq!(plan.cell_count(), 8 * 5 * 4 * 2);
/// // Every random quantity is seeded from the grid position, never from
/// // execution order, so `run_sweep` reports are byte-identical for any
/// // worker-thread count.
/// assert_ne!(plan.chip_seed(0), plan.chip_seed(1));
/// # Ok::<(), matic_harness::PlanError>(())
/// ```
#[derive(Clone)]
pub struct SweepPlan {
    /// Number of synthesized chip instances (process-variation samples).
    pub chips: usize,
    /// The stress dimension and its points (voltages sorted descending).
    pub axis: StressAxis,
    /// The fault model stressed along the axis, picked by it: voltage →
    /// [`FaultModel::SramVoltage`], BER → [`FaultModel::RandomBer`], clock
    /// → [`FaultModel::TimingError`], each over a weight memory fitted to
    /// every scenario's topology.
    pub model: FaultModel,
    /// Workloads swept.
    pub scenarios: Vec<Arc<dyn Scenario>>,
    /// Training modes swept.
    pub modes: Vec<TrainingMode>,
    /// Dataset scale factor (1.0 = reference size).
    pub data_scale: f64,
    /// Multiplier on each scenario's reference epoch budget.
    pub epoch_scale: f64,
    /// Root seed; every chip/dataset/fault-map seed derives from it.
    pub base_seed: u64,
    /// Worker threads (`None` = rayon's default for this process).
    pub threads: Option<usize>,
    /// Model-reuse policy across stress points.
    pub reuse: ReusePolicy,
}

/// A classification cell counts as failed when its error exceeds nominal
/// by this many percentage points.
pub const FAIL_MARGIN_PERCENT: f64 = 10.0;

/// A regression cell counts as failed when its MSE exceeds nominal by
/// this much.
pub const FAIL_MARGIN_MSE: f64 = 0.05;

impl fmt::Debug for SweepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepPlan")
            .field("chips", &self.chips)
            .field("axis", &self.axis)
            .field("model", &self.model.name())
            .field(
                "scenarios",
                &self
                    .scenarios
                    .iter()
                    .map(|s| s.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .field("modes", &self.modes)
            .field("data_scale", &self.data_scale)
            .field("epoch_scale", &self.epoch_scale)
            .field("base_seed", &self.base_seed)
            .field("threads", &self.threads)
            .field("reuse", &self.reuse)
            .finish_non_exhaustive()
    }
}

impl SweepPlan {
    /// Starts building a plan.
    pub fn builder() -> SweepPlanBuilder {
        SweepPlanBuilder::default()
    }

    /// The synthesis seed of chip instance `chip_idx`.
    pub fn chip_seed(&self, chip_idx: usize) -> u64 {
        crate::seeds::mix2(self.base_seed, 0xC41B_0001, chip_idx as u64)
    }

    /// The dataset seed of scenario `scen_idx` (shared by all chips, so
    /// population statistics vary the silicon, not the data).
    pub fn data_seed(&self, scen_idx: usize) -> u64 {
        crate::seeds::mix2(self.base_seed, 0xDA7A_0002, scen_idx as u64)
    }

    /// The seed of the synthetic fault map for (`chip_idx`, `scen_idx`,
    /// `point_idx`) on the BER axis. Independent of execution order and
    /// worker count by construction.
    pub fn cell_map_seed(&self, chip_idx: usize, scen_idx: usize, point_idx: usize) -> u64 {
        crate::seeds::mix4(
            self.base_seed,
            0xFA17_0003,
            chip_idx as u64,
            scen_idx as u64,
            point_idx as u64,
        )
    }

    /// The fault seed shared by every stress point of the
    /// (`chip_idx`, `scen_idx`) work unit. Fault models whose per-point
    /// error sets must nest monotonically across stress (so model reuse
    /// stays sound) key on this instead of the per-cell seed.
    pub fn unit_fault_seed(&self, chip_idx: usize, scen_idx: usize) -> u64 {
        crate::seeds::mix4(
            self.base_seed,
            0xD309_0004,
            chip_idx as u64,
            scen_idx as u64,
            0,
        )
    }

    /// The training recipe for `scenario` under this plan: the scenario's
    /// own config at the plan's epoch scale, with the weight format
    /// overridden when the fault model requires one (e.g. the robust
    /// Q1.14 range of the random-BER model). Models with no format
    /// requirement leave the scenario's choice in force.
    pub fn train_config(&self, scenario: &dyn Scenario) -> MatConfig {
        let mut cfg = scenario.train_config(self.epoch_scale);
        if let Some(fmt) = self.model.weight_format() {
            cfg.weight_fmt = fmt;
        }
        cfg
    }

    /// Total number of sweep cells.
    pub fn cell_count(&self) -> usize {
        self.chips * self.axis.points().len() * self.scenarios.len() * self.modes.len()
    }

    /// Stable 128-bit fingerprint (32 hex chars) of everything that
    /// determines the sweep's *results*: the grid, the scenarios (name,
    /// topology, metric), the training recipes, the seeds, the reuse
    /// policy and the failure margins. Execution details — worker-thread
    /// count, cache directory, output paths — are excluded, so two plans
    /// share a fingerprint exactly when their reports are byte-identical.
    ///
    /// The CLI prints this next to every sweep, and the cache's
    /// per-cell keys cover the same inputs cell-by-cell; the plan-level
    /// digest is the cheap way to answer "is this the same experiment?".
    pub fn fingerprint(&self) -> String {
        let mut f = matic_sram::fingerprint::Fingerprint::new();
        f.write_str("matic.sweep-plan/v2");
        f.write_str(env!("CARGO_PKG_VERSION"));
        f.write_u64(self.chips as u64);
        f.write_str(self.axis.kind());
        f.write_u64(self.axis.points().len() as u64);
        for &p in self.axis.points() {
            f.write_u64(p.to_bits());
        }
        f.write_str(self.model.name());
        f.write_u128(self.model.fingerprint());
        f.write_u64(self.scenarios.len() as u64);
        for s in &self.scenarios {
            f.write_str(s.name());
            f.write_u128(matic_sram::fingerprint::fingerprint_of(&s.topology()));
            f.write(if s.is_classification() { b"C" } else { b"R" });
            f.write_u128(self.train_config(s.as_ref()).fingerprint());
        }
        f.write_u64(self.modes.len() as u64);
        for m in &self.modes {
            f.write_str(m.name());
        }
        f.write_u64(self.data_scale.to_bits());
        f.write_u64(self.epoch_scale.to_bits());
        f.write_u64(self.base_seed);
        f.write_str(match self.reuse {
            ReusePolicy::PerPoint => "per-point",
            ReusePolicy::SupersetMap => "superset-map",
        });
        f.write_u64(FAIL_MARGIN_PERCENT.to_bits());
        f.write_u64(FAIL_MARGIN_MSE.to_bits());
        f.to_hex()
    }
}

/// Builder for [`SweepPlan`]; see [`SweepPlan::builder`].
#[derive(Clone)]
pub struct SweepPlanBuilder {
    chips: usize,
    axis: Option<StressAxis>,
    scenarios: Vec<Arc<dyn Scenario>>,
    topology: Option<NetSpec>,
    modes: Vec<TrainingMode>,
    data_scale: f64,
    epoch_scale: f64,
    base_seed: u64,
    threads: Option<usize>,
    reuse: ReusePolicy,
}

impl Default for SweepPlanBuilder {
    fn default() -> Self {
        SweepPlanBuilder {
            chips: 1,
            axis: None,
            scenarios: Vec::new(),
            topology: None,
            modes: vec![TrainingMode::Naive, TrainingMode::Mat],
            data_scale: 1.0,
            epoch_scale: 1.0,
            base_seed: 42,
            threads: None,
            reuse: ReusePolicy::SupersetMap,
        }
    }
}

impl SweepPlanBuilder {
    /// Number of chip instances to synthesize (default 1).
    pub fn chips(mut self, n: usize) -> Self {
        self.chips = n;
        self
    }

    /// Sweeps the given SRAM voltages (sorted descending, deduplicated).
    /// Non-finite values are tolerated here and rejected with a
    /// [`PlanError`] by [`build`](SweepPlanBuilder::build) — builder
    /// methods never panic on bad input.
    pub fn voltages(mut self, volts: &[f64]) -> Self {
        let mut v: Vec<f64> = volts.to_vec();
        v.sort_by(|a, b| b.total_cmp(a));
        v.dedup();
        self.axis = Some(StressAxis::Voltage(v));
        self
    }

    /// Sweeps `steps` evenly spaced voltages across `[lo, hi]`.
    pub fn voltage_grid(self, lo: f64, hi: f64, steps: usize) -> Self {
        self.voltages(&linspace(lo, hi, steps))
    }

    /// Sweeps synthetic Bernoulli bit-error rates (ascending,
    /// deduplicated). Like [`voltages`](SweepPlanBuilder::voltages),
    /// non-finite values surface as a [`PlanError`] at build time.
    pub fn bit_error_rates(mut self, rates: &[f64]) -> Self {
        let mut r: Vec<f64> = rates.to_vec();
        r.sort_by(|a, b| a.total_cmp(b));
        r.dedup();
        self.axis = Some(StressAxis::BitErrorRate(r));
        self
    }

    /// Sweeps normalized clock-period stress values in `[0, 1]`
    /// (ascending, deduplicated). Like the other axis setters, bad values
    /// surface as a [`PlanError`] at build time.
    pub fn clock_stress(mut self, stress: &[f64]) -> Self {
        let mut s: Vec<f64> = stress.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        s.dedup();
        self.axis = Some(StressAxis::ClockStress(s));
        self
    }

    /// Adds one workload.
    pub fn scenario(mut self, s: Arc<dyn Scenario>) -> Self {
        self.scenarios.push(s);
        self
    }

    /// Adds a built-in workload by Table I name, or `"all"` for the full
    /// suite.
    pub fn benchmark(mut self, name: &str) -> Result<Self, PlanError> {
        if name == "all" {
            self.scenarios.extend(builtin_scenarios());
            return Ok(self);
        }
        match scenario_by_name(name) {
            Some(s) => {
                self.scenarios.push(s);
                Ok(self)
            }
            None => {
                let builtins = builtin_scenarios();
                let known: Vec<&str> = builtins.iter().map(|s| s.name()).collect();
                Err(PlanError(format!(
                    "unknown benchmark `{name}` (expected one of {}, all)",
                    known.join(", ")
                )))
            }
        }
    }

    /// Adds all four paper benchmarks.
    pub fn all_benchmarks(mut self) -> Self {
        self.scenarios.extend(builtin_scenarios());
        self
    }

    /// Replaces every scenario's network topology with `spec` (the CLI's
    /// `--topology` axis). Each scenario is wrapped in a
    /// [`TopologyScenario`] at build time — mismatched input/output
    /// widths surface as a [`PlanError`] there — and the fault model's
    /// weight-memory geometry is grown with [`fitted_array_config`] so
    /// larger chains fit.
    pub fn topology(mut self, spec: NetSpec) -> Self {
        self.topology = Some(spec);
        self
    }

    /// Replaces the training-mode set (default: naive + mat). Duplicates
    /// are dropped (first occurrence wins) so population statistics never
    /// double-count a mode.
    pub fn modes(mut self, modes: &[TrainingMode]) -> Self {
        self.modes = Vec::new();
        for &m in modes {
            if !self.modes.contains(&m) {
                self.modes.push(m);
            }
        }
        self
    }

    /// Dataset scale factor (default 1.0).
    pub fn data_scale(mut self, scale: f64) -> Self {
        self.data_scale = scale;
        self
    }

    /// Epoch-budget multiplier (default 1.0).
    pub fn epoch_scale(mut self, scale: f64) -> Self {
        self.epoch_scale = scale;
        self
    }

    /// Root seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Explicit worker-thread count (default: rayon's process default).
    /// The report is byte-identical for every choice.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Model-reuse policy (default [`ReusePolicy::SupersetMap`]).
    pub fn reuse(mut self, policy: ReusePolicy) -> Self {
        self.reuse = policy;
        self
    }

    /// Validates and produces the plan.
    pub fn build(self) -> Result<SweepPlan, PlanError> {
        let axis = self
            .axis
            .ok_or_else(|| PlanError("a stress axis is required (voltages or BERs)".into()))?;
        if axis.points().is_empty() {
            return Err(PlanError("the stress axis has no points".into()));
        }
        if let Some(bad) = axis.points().iter().find(|p| !p.is_finite()) {
            return Err(PlanError(format!(
                "stress points must be finite numbers, got `{bad}`"
            )));
        }
        // Apply the topology override before anything geometry-dependent.
        let scenarios: Vec<Arc<dyn Scenario>> = match &self.topology {
            None => self.scenarios,
            Some(spec) => self
                .scenarios
                .into_iter()
                .map(|s| {
                    let name = s.name().to_string();
                    TopologyScenario::new(s, spec.clone())
                        .map(|t| Arc::new(t) as Arc<dyn Scenario>)
                        .map_err(|e| PlanError(format!("topology override for `{name}`: {e}")))
                })
                .collect::<Result<_, _>>()?,
        };
        // The axis picks the fault model and the domain of its points. The
        // model's memory is sized to the largest swept topology (the SNNAC
        // geometry verbatim whenever everything fits, so stock-benchmark
        // fingerprints and cache keys are unchanged).
        let array = scenarios.iter().fold(ArrayConfig::default(), |g, s| {
            fitted_array_config(&s.topology(), &g)
        });
        let model = match &axis {
            StressAxis::Voltage(_) => FaultModel::SramVoltage { array },
            StressAxis::BitErrorRate(_) => FaultModel::RandomBer { array },
            StressAxis::ClockStress(_) => FaultModel::TimingError { array },
        };
        let (what, lo, hi, unit) = match &axis {
            StressAxis::Voltage(_) => ("supply voltage", 0.2, 1.2, " V"),
            StressAxis::BitErrorRate(_) => ("bit-error rate", 0.0, 1.0, ""),
            StressAxis::ClockStress(_) => ("clock stress", 0.0, 1.0, ""),
        };
        if let Some(bad) = axis.points().iter().find(|&&p| !(lo..=hi).contains(&p)) {
            return Err(PlanError(format!(
                "fault model `{}`: {what} {bad} outside [{lo}, {hi}]{unit}",
                model.name()
            )));
        }
        if self.modes.contains(&TrainingMode::MatCanary) {
            if !model.needs_silicon() {
                return Err(PlanError(format!(
                    "mat-canary needs a fault model with canary support (the runtime \
                     controller walks the SRAM rail); `{}` has none",
                    model.name()
                )));
            }
            // Canary selection probes below target and bottoms out at the
            // 0.40 V all-fail floor; targets at/below the first probe step
            // would panic mid-sweep instead.
            if axis.points().iter().any(|&x| x < 0.41) {
                return Err(PlanError(
                    "mat-canary requires voltages of at least 0.41 V (the canary \
                     search bottoms out at the 0.40 V all-fail floor)"
                        .into(),
                ));
            }
        }
        if self.chips == 0 {
            return Err(PlanError("at least one chip is required".into()));
        }
        if scenarios.is_empty() {
            return Err(PlanError("at least one scenario is required".into()));
        }
        if self.modes.is_empty() {
            return Err(PlanError("at least one training mode is required".into()));
        }
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if !positive(self.data_scale) || !positive(self.epoch_scale) {
            return Err(PlanError("scales must be positive".into()));
        }
        if self.threads == Some(0) {
            return Err(PlanError(
                "threads must be at least 1 (omit the option for automatic)".into(),
            ));
        }
        Ok(SweepPlan {
            chips: self.chips,
            axis,
            model,
            scenarios,
            modes: self.modes,
            data_scale: self.data_scale,
            epoch_scale: self.epoch_scale,
            base_seed: self.base_seed,
            threads: self.threads,
            reuse: self.reuse,
        })
    }
}

/// `steps` evenly spaced values covering `[lo, hi]` inclusive.
pub fn linspace(lo: f64, hi: f64, steps: usize) -> Vec<f64> {
    assert!(steps >= 1, "linspace needs at least one step");
    if steps == 1 {
        return vec![lo];
    }
    (0..steps)
        .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(SweepPlan::builder().build().is_err(), "axis required");
        assert!(
            SweepPlan::builder().voltages(&[0.5]).build().is_err(),
            "scenario required"
        );
        let plan = SweepPlan::builder()
            .voltages(&[0.5, 0.9, 0.5])
            .all_benchmarks()
            .chips(2)
            .build()
            .unwrap();
        assert_eq!(plan.axis.points(), [0.9, 0.5], "sorted descending, deduped");
        assert_eq!(plan.cell_count(), 2 * 2 * 4 * 2);
    }

    #[test]
    fn non_finite_stress_points_error_instead_of_panicking() {
        // Regression: `--voltages nan,0.5` used to panic in the builder's
        // descending sort before build() could reject it.
        let err = SweepPlan::builder()
            .voltages(&[f64::NAN, 0.5])
            .all_benchmarks()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        let err = SweepPlan::builder()
            .voltages(&[f64::INFINITY])
            .all_benchmarks()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
        let err = SweepPlan::builder()
            .bit_error_rates(&[0.01, f64::NAN])
            .all_benchmarks()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
    }

    #[test]
    fn canary_rejected_on_ber_axis() {
        let err = SweepPlan::builder()
            .bit_error_rates(&[0.01])
            .all_benchmarks()
            .modes(&[TrainingMode::MatCanary])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("mat-canary"));
    }

    #[test]
    fn clock_axis_builds_with_timing_model() {
        let plan = SweepPlan::builder()
            .clock_stress(&[0.8, 0.2, 0.8])
            .benchmark("inversek2j")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(plan.axis.points(), [0.2, 0.8], "ascending, deduped");
        assert_eq!(plan.model.name(), "timing-error");
        let err = SweepPlan::builder()
            .clock_stress(&[1.5])
            .benchmark("inversek2j")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("[0, 1]"), "{err}");
    }

    #[test]
    fn stress_domains_are_enforced() {
        let build = |builder: SweepPlanBuilder| builder.all_benchmarks().build();
        let ok = [
            SweepPlan::builder().voltages(&[0.9, 0.46]),
            SweepPlan::builder().bit_error_rates(&[0.0, 0.3]),
            SweepPlan::builder().clock_stress(&[0.0, 1.0]),
        ];
        for builder in ok {
            assert!(build(builder).is_ok());
        }
        let bad = [
            (
                SweepPlan::builder().voltages(&[1.5]),
                "fault model `sram-voltage`: supply voltage 1.5 outside [0.2, 1.2] V",
            ),
            (
                SweepPlan::builder().bit_error_rates(&[-0.1]),
                "fault model `random-ber`: bit-error rate -0.1 outside [0, 1]",
            ),
            (
                SweepPlan::builder().clock_stress(&[1.1]),
                "fault model `timing-error`: clock stress 1.1 outside [0, 1]",
            ),
        ];
        for (builder, message) in bad {
            assert_eq!(build(builder).unwrap_err().to_string(), message);
        }
    }

    #[test]
    fn canary_rejected_on_clock_axis() {
        let err = SweepPlan::builder()
            .clock_stress(&[0.5])
            .all_benchmarks()
            .modes(&[TrainingMode::MatCanary])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("mat-canary"));
    }

    #[test]
    fn default_models_follow_the_axis() {
        let v = SweepPlan::builder()
            .voltages(&[0.9])
            .all_benchmarks()
            .build()
            .unwrap();
        assert_eq!(v.model.name(), "sram-voltage");
        let b = SweepPlan::builder()
            .bit_error_rates(&[0.01])
            .all_benchmarks()
            .build()
            .unwrap();
        assert_eq!(b.model.name(), "random-ber");
    }

    #[test]
    fn ber_model_overrides_weight_format() {
        let plan = SweepPlan::builder()
            .bit_error_rates(&[0.01])
            .benchmark("inversek2j")
            .unwrap()
            .build()
            .unwrap();
        let cfg = plan.train_config(plan.scenarios[0].as_ref());
        assert_eq!(
            cfg.weight_fmt,
            matic_fixed::QFormat::snnac_weight_robust(),
            "random-ber imposes the robust range"
        );
        let vplan = SweepPlan::builder()
            .voltages(&[0.9])
            .benchmark("inversek2j")
            .unwrap()
            .build()
            .unwrap();
        let vcfg = vplan.train_config(vplan.scenarios[0].as_ref());
        assert_eq!(
            vcfg.weight_fmt,
            vplan.scenarios[0].train_config(1.0).weight_fmt,
            "voltage model leaves the scenario's format alone"
        );
    }

    #[test]
    fn linspace_covers_endpoints() {
        let v = linspace(0.46, 0.90, 5);
        assert_eq!(v.len(), 5);
        assert!((v[0] - 0.46).abs() < 1e-12);
        assert!((v[4] - 0.90).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_covers_results_not_execution() {
        let base = || {
            SweepPlan::builder()
                .chips(2)
                .voltages(&[0.9, 0.5])
                .benchmark("inversek2j")
                .expect("builtin benchmark")
        };
        let reference = base().build().unwrap().fingerprint();
        assert_eq!(
            reference,
            base().threads(7).build().unwrap().fingerprint(),
            "threads are an execution detail"
        );
        assert_ne!(
            reference,
            base().seed(43).build().unwrap().fingerprint(),
            "seed is a result input"
        );
        assert_ne!(
            reference,
            base().epoch_scale(0.5).build().unwrap().fingerprint(),
            "epoch scale is a result input"
        );
        assert_ne!(
            reference,
            base()
                .reuse(ReusePolicy::PerPoint)
                .build()
                .unwrap()
                .fingerprint(),
            "reuse policy is a result input"
        );
    }

    #[test]
    fn topology_override_wraps_scenarios_and_keeps_stock_geometry() {
        let spec = NetSpec::parse_topology("10x10x1;conv3x4;pool2;dense10").unwrap();
        let plan = SweepPlan::builder()
            .voltages(&[0.9])
            .benchmark("mnist")
            .unwrap()
            .topology(spec)
            .build()
            .unwrap();
        assert_eq!(plan.scenarios[0].name(), "mnist@conv3x4-pool2-dense10");
        // The conv chain fits the stock SNNAC memory: geometry (and with
        // it the chip-config fingerprint) is unchanged.
        assert_eq!(plan.model.geometry(), ArrayConfig::default());
    }

    #[test]
    fn topology_override_grows_default_geometry() {
        let spec = NetSpec::parse_topology("100;600;10").unwrap();
        let plan = SweepPlan::builder()
            .voltages(&[0.9])
            .benchmark("mnist")
            .unwrap()
            .topology(spec)
            .build()
            .unwrap();
        let geom = plan.model.geometry();
        assert_eq!(geom.banks, 8);
        // Bank-0 demand: 75×101 + 2×601 = 8777 words, grown to whole
        // 576-word macros.
        assert_eq!(geom.bank.words, 8777usize.div_ceil(576) * 576);
        // The plan fingerprint tracks the override (geometry + topology).
        let stock = SweepPlan::builder()
            .voltages(&[0.9])
            .benchmark("mnist")
            .unwrap()
            .build()
            .unwrap();
        assert_ne!(plan.fingerprint(), stock.fingerprint());
    }

    #[test]
    fn topology_override_validates_dataset_shape() {
        let spec = NetSpec::parse_topology("9x9x1;conv2x2;dense10").unwrap();
        let err = SweepPlan::builder()
            .voltages(&[0.9])
            .benchmark("mnist")
            .unwrap()
            .topology(spec)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("topology override"), "{err}");
    }

    #[test]
    fn seeds_are_order_free_and_distinct() {
        let plan = SweepPlan::builder()
            .voltages(&[0.5])
            .all_benchmarks()
            .chips(4)
            .build()
            .unwrap();
        let seeds: Vec<u64> = (0..4).map(|i| plan.chip_seed(i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4);
        assert_ne!(plan.data_seed(0), plan.data_seed(1));
        assert_ne!(
            plan.cell_map_seed(0, 1, 2),
            plan.cell_map_seed(2, 1, 0),
            "cell seeds must depend on position, not iteration order"
        );
    }
}
