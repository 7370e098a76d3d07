//! One submitted job: its plan, its per-unit result slots, and its
//! lifecycle (`queued → running → done | cancelled | failed`).
//!
//! A job is the scheduler's unit of *admission*; its plan's
//! `(scenario, chip)` units are the unit of *execution*. Workers from
//! the shared pool complete units in any order; the job reassembles them
//! in [`sweep_units`](matic_harness::sweep_units) order, so the final
//! report is byte-identical to a batch run of the same plan no matter
//! how jobs interleave on the pool.

use crate::protocol::{JobKind, JobSpec, JobStatusInfo, ShardUnit};
use matic_harness::{
    assemble_sweep, energy_report, AccuracyBudget, CancelToken, CellOrigin, EnergyReport,
    ProgressSink, ReusePolicy, SweepInputs, SweepOutcome, SweepPlan, SweepReport, TrainingMode,
    UnitOutcome,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Builds the sweep plan a spec describes. This is the one validation
/// surface for every sweep: the CLI commands parse their flags into a
/// spec and call it, and the daemon calls it at admission (so a bad
/// spec is refused up front, not discovered mid-run). Execution knobs
/// are not part of a spec; callers set `plan.threads` themselves.
pub fn build_plan(spec: &JobSpec) -> Result<SweepPlan, String> {
    let axes_named = [&spec.voltages, &spec.bers, &spec.clock]
        .iter()
        .filter(|a| a.is_some())
        .count();
    if axes_named > 1 {
        return Err(
            "voltages, bers and clock (--voltages/--bers/--clock-stress) are mutually exclusive"
                .into(),
        );
    }
    if spec.kind == JobKind::Energy && (spec.bers.is_some() || spec.clock.is_some()) {
        return Err(
            "energy jobs need a voltage-axis sweep; the synthetic bers/clock \
             axes (--bers/--clock-stress) have no silicon to meter"
                .into(),
        );
    }
    if !spec.budget_percent.is_finite() || !spec.budget_mse.is_finite() {
        return Err("accuracy budgets must be finite numbers".into());
    }
    if let Some((start, end)) = spec.chip_range {
        if spec.kind != JobKind::Sweep {
            return Err("shard jobs are sweep-only; the coordinator derives energy \
                 reports locally from the merged sweep"
                .into());
        }
        if start >= end || end > spec.chips {
            return Err(format!(
                "chip_range {start}..{end} is not a non-empty subrange of 0..{}",
                spec.chips
            ));
        }
    }
    let modes: Vec<TrainingMode> = spec
        .modes
        .iter()
        .map(|m| TrainingMode::from_name(m).ok_or_else(|| format!("unknown mode `{m}`")))
        .collect::<Result<_, _>>()?;
    let mut builder = SweepPlan::builder()
        .chips(spec.chips)
        .data_scale(spec.data_scale)
        .epoch_scale(spec.epoch_scale)
        .seed(spec.seed)
        .modes(&modes)
        .reuse(if spec.no_reuse {
            ReusePolicy::PerPoint
        } else {
            ReusePolicy::SupersetMap
        });
    builder = match (&spec.voltages, &spec.bers, &spec.clock) {
        (_, Some(r), _) => builder.bit_error_rates(r),
        (_, _, Some(c)) => builder.clock_stress(c),
        (Some(v), None, None) => builder.voltages(v),
        (None, None, None) => builder.voltage_grid(0.46, 0.90, 5),
    };
    for name in &spec.benchmarks {
        builder = builder.benchmark(name.trim()).map_err(|e| e.to_string())?;
    }
    if let Some(dsl) = &spec.topology {
        let topo =
            matic_nn::NetSpec::parse_topology(dsl).map_err(|e| format!("topology `{dsl}`: {e}"))?;
        builder = builder.topology(topo);
    }
    builder.build().map_err(|e| e.to_string())
}

/// The accuracy–energy analysis of a finished sweep `report` under the
/// spec's accuracy budgets.
pub fn energy_analysis(spec: &JobSpec, report: &SweepReport) -> Result<EnergyReport, String> {
    let budget = AccuracyBudget {
        percent: spec.budget_percent,
        mse: spec.budget_mse,
    };
    energy_report(report, budget).map_err(|e| e.to_string())
}

/// The report text a finished job answers with: the sweep report, or
/// its [`energy_analysis`] for [`JobKind::Energy`] specs.
pub fn report_text(spec: &JobSpec, report: &SweepReport) -> Result<String, String> {
    match spec.kind {
        JobKind::Sweep => Ok(report.to_json_pretty()),
        JobKind::Energy => energy_analysis(spec, report).map(|e| e.to_json_pretty()),
    }
}

/// Cumulative per-cell counters, updated lock-free from worker threads
/// and read by the progress-streaming connection thread.
#[derive(Debug, Default)]
pub struct JobProgress {
    hits: AtomicUsize,
    deduped: AtomicUsize,
    misses: AtomicUsize,
}

impl JobProgress {
    /// `(done, hits, deduped, misses)` — one coherent-enough snapshot
    /// for progress display (counters only ever grow).
    pub fn snapshot(&self) -> (usize, usize, usize, usize) {
        let hits = self.hits.load(Ordering::Relaxed);
        let deduped = self.deduped.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        (hits + deduped + misses, hits, deduped, misses)
    }
}

impl ProgressSink for JobProgress {
    fn cell_done(&self, origin: CellOrigin) {
        let counter = match origin {
            CellOrigin::CacheHit => &self.hits,
            CellOrigin::Deduped => &self.deduped,
            CellOrigin::Computed => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Where a job is in its lifecycle. Terminal phases carry everything the
/// client stream needs, so a status query never has to re-derive them.
/// The payload (a report, or a shard's cells) is handed over once, to the
/// connection that streams it ([`Job::take_terminal`]); the job keeps the
/// phase and its counts.
#[derive(Debug, Clone)]
pub enum JobPhase {
    /// Admitted, no unit started yet.
    Queued,
    /// At least one unit ran (or is running).
    Running,
    /// Every unit finished; `report` is the exact pretty-printed text.
    Done {
        /// The report bytes the batch CLI would have written (empty once
        /// taken).
        report: String,
        /// Cache replays.
        hits: usize,
        /// In-flight dedup replays.
        deduped: usize,
        /// Fresh computations.
        misses: usize,
    },
    /// Every unit of a shard job finished; the coordinator merges the
    /// per-unit cells into the full-plan report.
    ShardDone {
        /// Each covered `(scenario, chip)` unit with its cells (empty
        /// once taken).
        units: Vec<ShardUnit>,
        /// Cache replays.
        hits: usize,
        /// In-flight dedup replays.
        deduped: usize,
        /// Fresh computations.
        misses: usize,
    },
    /// Cancelled at a cell boundary; finished cells are checkpointed.
    Cancelled {
        /// Cells finished before the stop.
        cells_done: usize,
    },
    /// The run could not produce a report.
    Failed(String),
}

impl JobPhase {
    /// Lowercase phase name for status displays.
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done { .. } | JobPhase::ShardDone { .. } => "done",
            JobPhase::Cancelled { .. } => "cancelled",
            JobPhase::Failed(_) => "failed",
        }
    }

    /// Whether the job can no longer change.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobPhase::Done { .. }
                | JobPhase::ShardDone { .. }
                | JobPhase::Cancelled { .. }
                | JobPhase::Failed(_)
        )
    }
}

struct JobState {
    phase: JobPhase,
    /// Per-unit outcome slots in [`matic_harness::sweep_units`] order.
    slots: Vec<Option<UnitOutcome>>,
    remaining: usize,
    /// The datasets and training memo the job's units run on. Dropped
    /// when the job turns terminal, so a long-lived daemon keeps no
    /// finished job's datasets or models.
    inputs: Option<Arc<SweepInputs>>,
}

/// One admitted job. Shared between the connection thread that streams
/// its events and the pool workers that execute its units.
pub struct Job {
    /// Daemon-assigned id.
    pub id: u64,
    /// What to compute (sweep vs energy, and the energy budgets).
    pub spec: JobSpec,
    /// The validated plan.
    pub plan: SweepPlan,
    /// The job's `(scenario, chip)` units, scenario-major — the full
    /// grid, or the `chip_range` slice of it for shard jobs.
    pub units: Vec<(usize, usize)>,
    /// Cooperative cancellation for every unit of this job.
    pub cancel: CancelToken,
    /// Per-cell counters for progress streams.
    pub progress: JobProgress,
    /// Whether the daemon had a cache attached when this job ran.
    pub cache_enabled: bool,
    state: Mutex<JobState>,
    changed: Condvar,
}

impl Job {
    /// Validates the spec and materializes the job's plan and units.
    /// With a cache (`cache_enabled`), no dataset is generated here: a
    /// scenario's dataset is built by the first of its units that trains
    /// or evaluates, on a pool worker, so a job whose cells all replay
    /// never builds one. Without a cache every cell computes, and every
    /// dataset is generated here, on the submitting connection's thread.
    pub fn admit(id: u64, spec: JobSpec, cache_enabled: bool) -> Result<Job, String> {
        let plan = build_plan(&spec)?;
        let units = match spec.chip_range {
            Some(range) => matic_harness::shard_units(&plan, range),
            None => matic_harness::sweep_units(&plan),
        };
        let slots = units.iter().map(|_| None).collect::<Vec<_>>();
        let remaining = units.len();
        let inputs = SweepInputs::new(&plan, &units, cache_enabled);
        Ok(Job {
            id,
            spec,
            plan,
            units,
            cancel: CancelToken::new(),
            progress: JobProgress::default(),
            cache_enabled,
            state: Mutex::new(JobState {
                phase: JobPhase::Queued,
                slots,
                remaining,
                inputs: Some(Arc::new(inputs)),
            }),
            changed: Condvar::new(),
        })
    }

    /// Cells this job produces in total (the whole plan, or the
    /// `chip_range` slice of it for shard jobs).
    pub fn cells_total(&self) -> usize {
        let full_units = self.plan.scenarios.len() * self.plan.chips;
        self.plan.cell_count() / full_units * self.units.len()
    }

    /// The datasets and memo the job's units run on; `None` once the job
    /// is terminal (a unit still running keeps its own handle).
    pub(crate) fn inputs(&self) -> Option<Arc<SweepInputs>> {
        self.state
            .lock()
            .expect("job state poisoned")
            .inputs
            .clone()
    }

    /// Marks the first unit pickup (idempotent).
    pub fn mark_running(&self) {
        let mut st = self.state.lock().expect("job state poisoned");
        if matches!(st.phase, JobPhase::Queued) {
            st.phase = JobPhase::Running;
            self.changed.notify_all();
        }
    }

    /// Records one unit's outcome; the last unit in assembles the report
    /// (or the cancellation summary) and flips the job terminal.
    pub fn complete_unit(&self, unit_idx: usize, outcome: UnitOutcome) {
        let mut st = self.state.lock().expect("job state poisoned");
        if st.phase.is_terminal() {
            return; // a failed job ignores stragglers
        }
        assert!(
            st.slots[unit_idx].is_none(),
            "unit {unit_idx} completed twice"
        );
        st.slots[unit_idx] = Some(outcome);
        st.remaining -= 1;
        if st.remaining == 0 {
            let per_unit: Vec<UnitOutcome> = st
                .slots
                .iter_mut()
                .map(|s| s.take().expect("all units complete"))
                .collect();
            st.phase = self.finalize(per_unit);
            st.inputs = None;
        }
        self.changed.notify_all();
    }

    /// Marks the job failed (worker panic, unrenderable report, ...).
    pub fn fail(&self, reason: String) {
        let mut st = self.state.lock().expect("job state poisoned");
        if !st.phase.is_terminal() {
            st.phase = JobPhase::Failed(reason);
            st.inputs = None;
            self.changed.notify_all();
        }
    }

    fn finalize(&self, per_unit: Vec<UnitOutcome>) -> JobPhase {
        if self.spec.chip_range.is_some() {
            return self.finalize_shard(per_unit);
        }
        match assemble_sweep(&self.plan, per_unit, self.cache_enabled) {
            SweepOutcome::Cancelled(c) => JobPhase::Cancelled {
                cells_done: c.cells_done,
            },
            SweepOutcome::Complete(run) => match report_text(&self.spec, &run.report) {
                Ok(report) => JobPhase::Done {
                    report,
                    hits: run.cache.hits,
                    deduped: run.cache.deduped,
                    misses: run.cache.misses,
                },
                Err(e) => JobPhase::Failed(e),
            },
        }
    }

    /// Shard jobs skip report assembly: the coordinator owns the merge,
    /// so the terminal payload is the raw per-unit cells in this job's
    /// unit order.
    fn finalize_shard(&self, per_unit: Vec<UnitOutcome>) -> JobPhase {
        if per_unit.iter().any(|u| u.cancelled) {
            let cells_done = per_unit.iter().map(|u| u.cells.len()).sum();
            return JobPhase::Cancelled { cells_done };
        }
        let (mut hits, mut deduped, mut misses) = (0usize, 0usize, 0usize);
        let units = self
            .units
            .iter()
            .zip(per_unit)
            .map(|(&(scen, chip), unit)| {
                let cells = unit
                    .cells
                    .into_iter()
                    .map(|(cell, origin)| {
                        match origin {
                            CellOrigin::CacheHit => hits += 1,
                            CellOrigin::Deduped => deduped += 1,
                            CellOrigin::Computed => misses += 1,
                        }
                        cell
                    })
                    .collect();
                ShardUnit { scen, chip, cells }
            })
            .collect();
        JobPhase::ShardDone {
            units,
            hits,
            deduped,
            misses,
        }
    }

    /// The current phase's name (see [`JobPhase::name`]).
    pub fn phase_name(&self) -> &'static str {
        self.state.lock().expect("job state poisoned").phase.name()
    }

    /// Whether the job can no longer change.
    pub fn is_terminal(&self) -> bool {
        self.state
            .lock()
            .expect("job state poisoned")
            .phase
            .is_terminal()
    }

    /// The terminal phase with its payload, or `None` while the job still
    /// runs. The report (or a shard's cells) moves out to the caller, the
    /// connection that streams it, so a finished job in the registry
    /// keeps only its phase and counts; a later call sees an empty
    /// payload.
    pub fn take_terminal(&self) -> Option<JobPhase> {
        let mut st = self.state.lock().expect("job state poisoned");
        let kept = match &mut st.phase {
            JobPhase::Queued | JobPhase::Running => return None,
            JobPhase::Done {
                report,
                hits,
                deduped,
                misses,
            } => JobPhase::Done {
                report: std::mem::take(report),
                hits: *hits,
                deduped: *deduped,
                misses: *misses,
            },
            JobPhase::ShardDone {
                units,
                hits,
                deduped,
                misses,
            } => JobPhase::ShardDone {
                units: std::mem::take(units),
                hits: *hits,
                deduped: *deduped,
                misses: *misses,
            },
            phase => phase.clone(),
        };
        Some(kept)
    }

    /// Blocks until the phase changes or `timeout` elapses (progress
    /// streams poll counters on this cadence).
    pub fn wait_changed(&self, timeout: Duration) {
        let st = self.state.lock().expect("job state poisoned");
        if !st.phase.is_terminal() {
            let _ = self
                .changed
                .wait_timeout(st, timeout)
                .expect("job state poisoned");
        }
    }

    /// Blocks until the job reaches a terminal phase.
    pub fn wait_terminal(&self) {
        let mut st = self.state.lock().expect("job state poisoned");
        while !st.phase.is_terminal() {
            st = self.changed.wait(st).expect("job state poisoned");
        }
    }

    /// One status-line snapshot for `matic status`.
    pub fn status(&self) -> JobStatusInfo {
        let (done, hits, deduped, misses) = self.progress.snapshot();
        JobStatusInfo {
            id: self.id,
            phase: self.phase_name().to_string(),
            kind: self.spec.kind,
            cells_done: done,
            cells_total: self.cells_total(),
            hits,
            deduped,
            misses,
        }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("kind", &self.spec.kind)
            .field("units", &self.units.len())
            .field("phase", &self.phase_name())
            .finish()
    }
}
