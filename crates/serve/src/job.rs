//! One submitted job: its work (plan, units, per-unit result slots) and
//! its lifecycle (`queued → running → done | cancelled | failed`).
//!
//! A job is the scheduler's unit of *admission*; its plan's
//! `(scenario, chip)` units are the unit of *execution*. Workers from
//! the shared pool complete units in any order; the job reassembles them
//! in [`sweep_units`](matic_harness::sweep_units) order, so the final
//! report is byte-identical to a batch run of the same plan no matter
//! how jobs interleave on the pool.
//!
//! A job ends in the terminal [`Event`] its stream sends (`Done`,
//! `ShardDone`, `Cancelled` or `Failed`), built once by the last unit, a
//! failure or a cancel. Everything the units run on lives in a
//! `JobWork` bundle that only the pool's queue and its workers hold,
//! so a finished job in the daemon's registry keeps just what a status
//! line shows.

use crate::protocol::{Event, JobKind, JobSpec, JobStatusInfo, ShardUnit};
use matic_harness::{
    assemble_sweep, energy_report, AccuracyBudget, CancelToken, CellOrigin, EnergyReport,
    ProgressSink, ReusePolicy, SweepInputs, SweepOutcome, SweepPlan, SweepReport, TrainingMode,
    UnitOutcome,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
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

/// Cumulative per-cell counters, updated lock-free from worker threads.
/// Progress ticks, status lines and the terminal event's counts all read
/// them.
#[derive(Debug, Default)]
pub(crate) struct JobProgress {
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

/// Everything a job's units run on. The pool's queue entries and the
/// workers running its units hold it, the job never does: it is freed
/// once the last unit has been handed out and has finished.
pub(crate) struct JobWork {
    /// What to compute (sweep vs energy, the energy budgets, the chip
    /// range).
    spec: JobSpec,
    /// The validated plan.
    pub plan: SweepPlan,
    /// The job's `(scenario, chip)` units, scenario-major — the full
    /// grid, or the `chip_range` slice of it for shard jobs.
    pub units: Vec<(usize, usize)>,
    /// The datasets and training memo the units run on.
    pub inputs: SweepInputs,
    /// Whether the daemon had a cache attached when this job ran.
    cache_enabled: bool,
    /// Per-unit outcomes in `units` order, and how many are still
    /// missing.
    slots: Mutex<(Vec<Option<UnitOutcome>>, usize)>,
}

impl JobWork {
    /// Validates the spec and materializes its plan and units. With a
    /// cache (`cache_enabled`), no dataset is generated here: a
    /// scenario's dataset is built by the first of its units that trains
    /// or evaluates, on a pool worker, so a job whose cells all replay
    /// never builds one. Without a cache every cell computes, and every
    /// dataset is generated here, on the submitting connection's thread.
    pub fn new(spec: JobSpec, cache_enabled: bool) -> Result<JobWork, String> {
        let plan = build_plan(&spec)?;
        let units = match spec.chip_range {
            Some(range) => matic_harness::shard_units(&plan, range),
            None => matic_harness::sweep_units(&plan),
        };
        let inputs = SweepInputs::new(&plan, &units, cache_enabled);
        let slots = Mutex::new((units.iter().map(|_| None).collect(), units.len()));
        Ok(JobWork {
            spec,
            plan,
            units,
            inputs,
            cache_enabled,
            slots,
        })
    }

    /// Records one unit's outcome; returns every outcome, in unit order,
    /// once the last one is in. Poison policy as [`Job::lock`]'s: only a
    /// unit completed twice panics under this lock, and every later
    /// completion of the job panics too.
    fn fill(&self, unit_idx: usize, outcome: UnitOutcome) -> Option<Vec<UnitOutcome>> {
        let mut slots = self.slots.lock().expect("job slots poisoned");
        let (outcomes, remaining) = &mut *slots;
        assert!(
            outcomes[unit_idx].is_none(),
            "unit {unit_idx} completed twice"
        );
        outcomes[unit_idx] = Some(outcome);
        *remaining -= 1;
        if *remaining > 0 {
            return None;
        }
        std::mem::take(outcomes).into_iter().collect()
    }
}

struct JobState {
    /// `queued`, `running`, `done`, `cancelled` or `failed`.
    phase: &'static str,
    /// The terminal event, from the moment the job ends until the
    /// connection streaming the job takes it.
    end: Option<Event>,
}

/// Whether `phase` is one a job can no longer leave.
fn terminal(phase: &str) -> bool {
    !matches!(phase, "queued" | "running")
}

/// One admitted job, as the daemon's registry keeps it: shared between
/// the connection thread that streams its events and the pool workers
/// that execute its units.
pub(crate) struct Job {
    /// Daemon-assigned id.
    pub id: u64,
    /// Sweep or energy.
    kind: JobKind,
    /// Cells the job produces in total (the whole plan, or the
    /// `chip_range` slice of it for shard jobs).
    pub cells_total: usize,
    /// Cooperative cancellation for every unit of this job.
    pub cancel: CancelToken,
    /// Per-cell counters by origin.
    pub progress: JobProgress,
    state: Mutex<JobState>,
    changed: Condvar,
}

impl Job {
    /// A queued job `id` for the admitted `work`.
    pub fn new(id: u64, work: &JobWork) -> Job {
        let full_units = work.plan.scenarios.len() * work.plan.chips;
        Job {
            id,
            kind: work.spec.kind,
            cells_total: work.plan.cell_count() / full_units * work.units.len(),
            cancel: CancelToken::new(),
            progress: JobProgress::default(),
            state: Mutex::new(JobState {
                phase: "queued",
                end: None,
            }),
            changed: Condvar::new(),
        }
    }

    /// Locks the job's state. Poison policy: the lock is poisoned only
    /// when a thread panicked while it held it, mid-update. The phase
    /// and the terminal event may then disagree, so nothing reads them
    /// again: every later [`Job::lock`] or [`Job::wait`] on this job
    /// panics too.
    fn lock(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().expect("job state poisoned")
    }

    /// Waits on `changed` for at most `timeout` (forever with `None`),
    /// under [`Job::lock`]'s poison policy.
    fn wait<'a>(
        &self,
        st: MutexGuard<'a, JobState>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, JobState> {
        match timeout {
            Some(t) => {
                self.changed
                    .wait_timeout(st, t)
                    .expect("job state poisoned")
                    .0
            }
            None => self.changed.wait(st).expect("job state poisoned"),
        }
    }

    /// Marks the first unit pickup (idempotent).
    pub fn mark_running(&self) {
        let mut st = self.lock();
        if st.phase == "queued" {
            st.phase = "running";
            self.changed.notify_all();
        }
    }

    /// Records one unit's outcome; the last unit in assembles the report
    /// (or the cancellation summary) and ends the job.
    pub fn complete_unit(&self, work: &JobWork, unit_idx: usize, outcome: UnitOutcome) {
        if let Some(per_unit) = work.fill(unit_idx, outcome) {
            if !self.is_terminal() {
                self.end(self.finalize(work, per_unit));
            }
        }
    }

    /// Ends the job failed (worker panic, unrenderable report, ...).
    pub fn fail(&self, reason: String) {
        self.end(Event::Failed {
            id: self.id,
            reason,
        });
    }

    /// Ends the job in `end`, its terminal event, unless it already
    /// ended: the first end wins.
    fn end(&self, end: Event) {
        let mut st = self.lock();
        if terminal(st.phase) {
            return;
        }
        st.phase = match end {
            Event::Cancelled { .. } => "cancelled",
            Event::Failed { .. } => "failed",
            _ => "done",
        };
        st.end = Some(end);
        self.changed.notify_all();
    }

    /// The terminal event of a job whose units all reported. Its counts
    /// are the progress counters, which saw every cell by origin.
    fn finalize(&self, work: &JobWork, per_unit: Vec<UnitOutcome>) -> Event {
        let id = self.id;
        let (cells_done, hits, deduped, misses) = self.progress.snapshot();
        let cancelled = Event::Cancelled {
            id,
            cells_done,
            cells_total: self.cells_total,
        };
        if work.spec.chip_range.is_none() {
            return match assemble_sweep(&work.plan, per_unit, work.cache_enabled) {
                SweepOutcome::Cancelled(_) => cancelled,
                SweepOutcome::Complete(run) => match report_text(&work.spec, &run.report) {
                    Ok(report) => Event::Done {
                        id,
                        report,
                        hits,
                        deduped,
                        misses,
                    },
                    Err(reason) => Event::Failed { id, reason },
                },
            };
        }
        // Shard jobs skip report assembly: the coordinator owns the
        // merge, so the payload is the raw per-unit cells in unit order.
        if per_unit.iter().any(|u| u.cancelled) {
            return cancelled;
        }
        let units = work
            .units
            .iter()
            .zip(per_unit)
            .map(|(&(scen, chip), unit)| ShardUnit {
                scen,
                chip,
                cells: unit.cells.into_iter().map(|(cell, _)| cell).collect(),
            })
            .collect();
        Event::ShardDone {
            id,
            units,
            hits,
            deduped,
            misses,
        }
    }

    /// The current phase's name.
    pub fn phase_name(&self) -> &'static str {
        self.lock().phase
    }

    /// Whether the job can no longer change.
    pub fn is_terminal(&self) -> bool {
        terminal(self.phase_name())
    }

    /// The terminal event, once: `None` while the job still runs and
    /// after the event was taken by the connection that streams it.
    pub fn take_terminal(&self) -> Option<Event> {
        self.lock().end.take()
    }

    /// Blocks until the phase changes or `timeout` elapses (progress
    /// streams poll counters on this cadence).
    pub fn wait_changed(&self, timeout: Duration) {
        let st = self.lock();
        if !terminal(st.phase) {
            drop(self.wait(st, Some(timeout)));
        }
    }

    /// Blocks until the job reaches a terminal phase.
    pub fn wait_terminal(&self) {
        let mut st = self.lock();
        while !terminal(st.phase) {
            st = self.wait(st, None);
        }
    }

    /// One status-line snapshot for `matic status`. The phase is read
    /// first: once it reads terminal, the counters are final.
    pub fn status(&self) -> JobStatusInfo {
        let phase = self.phase_name().to_string();
        let (done, hits, deduped, misses) = self.progress.snapshot();
        JobStatusInfo {
            id: self.id,
            phase,
            kind: self.kind,
            cells_done: done,
            cells_total: self.cells_total,
            hits,
            deduped,
            misses,
        }
    }
}
