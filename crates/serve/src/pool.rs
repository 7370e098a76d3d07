//! The shared worker pool: the list of admitted jobs with units still
//! to hand out, plus `N` OS threads pulling from it.
//!
//! Every job's `(scenario, chip)` units go through **one** queue, and
//! workers pull, they are never partitioned. The queue holds jobs, not
//! units: each entry is a job, its [`JobWork`] and the index of its next
//! unit not yet handed out. A worker takes the front job's next unit and
//! moves that job to the back, so concurrent jobs get units round-robin
//! and a small job never starves behind a large one's tail. Admitting a
//! job is one [`WorkQueue::push`] that never blocks, so its submitter
//! streams progress from the moment the job is accepted.
//!
//! Workers execute units through the harness scheduler's
//! [`ExecContext`], wiring in the daemon-wide cache, the shared
//! in-flight dedup table, the job's cancel token, its progress
//! counters and its training memo.

use crate::job::{Job, JobWork};
use matic_harness::{ExecContext, Inflight, SweepCache, UnitOutcome};
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// State every worker shares: the persistent cell cache (if the daemon
/// was started with one) and the cross-job in-flight dedup table.
#[derive(Debug, Default)]
pub struct SharedExec {
    /// The daemon's cache; every job replays from and checkpoints into it.
    pub cache: Option<SweepCache>,
    /// The claim table that makes overlapping jobs compute each cell once.
    pub inflight: Inflight,
}

/// A job with units left to hand out: the job, its work, and the index
/// of its next unit.
type Entry = (Arc<Job>, Arc<JobWork>, usize);

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Entry>,
    closed: bool,
}

/// The admitted jobs the workers pull units from, round-robin (mutex +
/// condvar; std only).
#[derive(Default)]
pub struct WorkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl WorkQueue {
    /// Locks the queue. Poison policy: the lock guards only `VecDeque`
    /// pushes and pops, `Arc` clones and the closed flag, none of which
    /// can leave the state half-updated, so a poisoned queue is used as
    /// it stands and the workers keep running.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on `ready`, under [`WorkQueue::lock`]'s poison policy.
    fn wait<'a>(&self, st: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
        self.ready.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits every unit of `job` at once, without blocking. Returns
    /// `false` if the queue was closed.
    pub fn push(&self, job: &Arc<Job>, work: &Arc<JobWork>) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        st.jobs.push_back((Arc::clone(job), Arc::clone(work), 0));
        self.ready.notify_all();
        true
    }

    /// Hands out the front job's next unit and moves that job to the
    /// back, blocking while no unit is left; `None` once the queue is
    /// closed and drained (the worker-exit signal).
    pub fn pop(&self) -> Option<Entry> {
        let mut st = self.lock();
        loop {
            if let Some((job, work, unit_idx)) = st.jobs.pop_front() {
                if unit_idx + 1 < work.units.len() {
                    st.jobs
                        .push_back((Arc::clone(&job), Arc::clone(&work), unit_idx + 1));
                }
                return Some((job, work, unit_idx));
            }
            if st.closed {
                return None;
            }
            st = self.wait(st);
        }
    }

    /// Closes the queue: pending units still drain, new pushes fail,
    /// idle workers wake up and exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Spawns `workers` threads pulling from `queue` into `spawned`; close
/// the queue and join them for a clean shutdown, also when spawning a
/// later one failed.
pub fn spawn_workers(
    workers: usize,
    queue: &Arc<WorkQueue>,
    exec: &Arc<SharedExec>,
    spawned: &mut Vec<JoinHandle<()>>,
) -> io::Result<()> {
    for i in 0..workers.max(1) {
        let queue = Arc::clone(queue);
        let exec = Arc::clone(exec);
        spawned.push(
            std::thread::Builder::new()
                .name(format!("matic-serve-worker-{i}"))
                .spawn(move || {
                    while let Some((job, work, unit_idx)) = queue.pop() {
                        run_one_unit(&exec, &job, &work, unit_idx);
                    }
                })?,
        );
    }
    Ok(())
}

/// Executes one unit of one job (the worker loop body).
pub fn run_one_unit(exec: &SharedExec, job: &Job, work: &JobWork, unit_idx: usize) {
    if job.is_terminal() {
        return; // a terminal job's stragglers are dead work
    }
    if job.cancel.is_cancelled() {
        // Skip the walk entirely; an empty cancelled outcome still
        // participates in assembly so the job terminates.
        let cancelled = UnitOutcome {
            cells: Vec::new(),
            cancelled: true,
        };
        job.complete_unit(work, unit_idx, cancelled);
        return;
    }
    job.mark_running();
    let (scen_idx, chip_idx) = work.units[unit_idx];
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let ctx = ExecContext {
            cache: exec.cache.as_ref(),
            inflight: Some(&exec.inflight),
            cancel: Some(&job.cancel),
            progress: Some(&job.progress),
            ..ExecContext::default()
        };
        work.inputs.run_unit(&work.plan, (scen_idx, chip_idx), &ctx)
    }));
    match outcome {
        Ok(outcome) => job.complete_unit(work, unit_idx, outcome),
        Err(_) => job.fail(format!(
            "worker panicked in unit {unit_idx} (scenario {scen_idx}, chip {chip_idx})"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Event, JobStatusInfo};

    /// A one-voltage naive sweep of `chips` chips, small enough to run.
    fn tiny_job(chips: usize) -> (Arc<Job>, Arc<JobWork>) {
        let spec = crate::protocol::JobSpec {
            kind: crate::protocol::JobKind::Sweep,
            chips,
            voltages: Some(vec![0.9]),
            bers: None,
            clock: None,
            benchmarks: vec!["inversek2j".into()],
            modes: vec!["naive".into()],
            data_scale: 0.05,
            epoch_scale: 0.1,
            seed: 1,
            no_reuse: false,
            budget_percent: 2.0,
            budget_mse: 0.02,
            chip_range: None,
            topology: None,
        };
        let work = JobWork::new(spec, false).expect("valid spec");
        (Arc::new(Job::new(1, &work)), Arc::new(work))
    }

    #[test]
    fn queue_hands_out_units_round_robin_across_jobs_and_closes_cleanly() {
        let q = WorkQueue::default();
        let (a, a_work) = tiny_job(3);
        let (b, b_work) = tiny_job(3);
        assert!(q.push(&a, &a_work));
        let (first, _, idx) = q.pop().expect("job a has units");
        assert!(Arc::ptr_eq(&first, &a) && idx == 0);
        assert!(q.push(&b, &b_work));
        let order: Vec<(&str, usize)> = (0..5)
            .map(|_| {
                let (job, _, idx) = q.pop().expect("units left");
                (if Arc::ptr_eq(&job, &a) { "a" } else { "b" }, idx)
            })
            .collect();
        assert_eq!(
            order,
            [("a", 1), ("b", 0), ("a", 2), ("b", 1), ("b", 2)],
            "a late job's units alternate with the running job's"
        );
        q.close();
        assert!(q.pop().is_none(), "closed + empty means worker exit");
        assert!(!q.push(&a, &a_work), "closed queue refuses new work");
    }

    #[test]
    fn terminal_jobs_release_their_datasets_and_memo() {
        let exec = SharedExec::default();
        for end in ["done", "cancelled", "failed"] {
            let (job, work) = tiny_job(2);
            // The whole work bundle: spec, plan, units, datasets, memo
            // and outcome slots.
            let bundle = Arc::downgrade(&work);
            let queue = WorkQueue::default();
            assert!(queue.push(&job, &work));
            drop(work);
            match end {
                "done" => {}
                "cancelled" => job.cancel.cancel(),
                _ => job.fail("injected failure".into()),
            }
            queue.close();
            while let Some((job, work, unit)) = queue.pop() {
                run_one_unit(&exec, &job, &work, unit);
            }
            assert_eq!(job.phase_name(), end);
            let event = job.take_terminal().expect("the job finished");
            match (end, &event) {
                ("done", Event::Done { misses: 2, .. }) => {} // both units ran
                ("cancelled", Event::Cancelled { cells_done: 0, .. }) => {}
                ("failed", Event::Failed { reason, .. }) => {
                    assert_eq!(reason, "injected failure")
                }
                _ => panic!("{end}: unexpected terminal event {event:?}"),
            }
            assert!(
                job.take_terminal().is_none(),
                "{end}: the terminal event is handed out once"
            );
            assert!(
                bundle.upgrade().is_none(),
                "{end}: the work bundle was freed"
            );
        }
    }

    #[test]
    fn a_taken_report_leaves_the_job_done_with_its_counts() {
        let exec = SharedExec::default();
        let (job, work) = tiny_job(2);
        for unit in 0..work.units.len() {
            run_one_unit(&exec, &job, &work, unit);
        }
        let before = job.status();
        let Some(Event::Done {
            report,
            hits,
            deduped,
            misses,
            ..
        }) = job.take_terminal()
        else {
            panic!("the job must be done");
        };
        assert!(!report.is_empty(), "the first take carries the report");
        let counts =
            |s: &JobStatusInfo| (s.phase.clone(), s.cells_done, s.hits, s.deduped, s.misses);
        let want = (
            "done".into(),
            hits + deduped + misses,
            hits,
            deduped,
            misses,
        );
        assert_eq!(counts(&before), want);
        assert_eq!(counts(&job.status()), want, "the take changes no status");
        assert!(
            job.take_terminal().is_none(),
            "the report is handed out once"
        );
    }
}
