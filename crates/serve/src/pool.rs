//! The shared worker pool: a bounded unit queue plus `N` OS threads
//! draining it.
//!
//! Every job's `(scenario, chip)` units go through **one** queue, so
//! concurrent jobs multiplex onto the same workers in admission order
//! and a small job never starves behind a large one's tail (workers
//! pull, they are never partitioned). The queue is **bounded**: when
//! it is full, the submitting connection thread blocks in
//! [`WorkQueue::push`] — that blocking *is* the backpressure, and it
//! propagates to the client because the daemon only acknowledges units
//! it has actually enqueued.
//!
//! Workers execute units through the harness scheduler's
//! [`ExecContext`], wiring in the daemon-wide cache, the shared
//! in-flight dedup table, the job's cancel token, its progress
//! counters and its training memo.

use crate::job::Job;
use matic_harness::{ExecContext, Inflight, SweepCache, UnitOutcome};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
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

/// One queued piece of work: a job and the index of one of its units.
pub type WorkItem = (Arc<Job>, usize);

struct QueueState {
    items: VecDeque<WorkItem>,
    closed: bool,
}

/// A bounded MPMC queue of units (mutex + condvars; std only).
#[derive(Debug)]
pub struct WorkQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl std::fmt::Debug for QueueState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueState")
            .field("len", &self.items.len())
            .field("closed", &self.closed)
            .finish()
    }
}

impl WorkQueue {
    /// An empty queue holding at most `capacity` units.
    pub fn new(capacity: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues one unit, blocking while the queue is full (the
    /// backpressure path). Returns `false` if the queue was closed.
    pub fn push(&self, item: WorkItem) -> bool {
        let mut st = self.state.lock().expect("work queue poisoned");
        while st.items.len() >= self.capacity && !st.closed {
            st = self.not_full.wait(st).expect("work queue poisoned");
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the oldest unit, blocking while empty; `None` once the
    /// queue is closed and drained (the worker-exit signal).
    pub fn pop(&self) -> Option<WorkItem> {
        let mut st = self.state.lock().expect("work queue poisoned");
        loop {
            if let Some(item) = st.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("work queue poisoned");
        }
    }

    /// Closes the queue: pending units still drain, new pushes fail,
    /// idle workers wake up and exit.
    pub fn close(&self) {
        let mut st = self.state.lock().expect("work queue poisoned");
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Units currently queued (diagnostics only).
    pub fn len(&self) -> usize {
        self.state.lock().expect("work queue poisoned").items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Spawns `workers` threads draining `queue`; join the handles after
/// closing the queue for a clean shutdown.
pub fn spawn_workers(
    workers: usize,
    queue: &Arc<WorkQueue>,
    exec: &Arc<SharedExec>,
) -> Vec<JoinHandle<()>> {
    (0..workers.max(1))
        .map(|i| {
            let queue = Arc::clone(queue);
            let exec = Arc::clone(exec);
            std::thread::Builder::new()
                .name(format!("matic-serve-worker-{i}"))
                .spawn(move || {
                    while let Some((job, unit_idx)) = queue.pop() {
                        run_one_unit(&exec, &job, unit_idx);
                    }
                })
                .expect("spawning worker thread")
        })
        .collect()
}

/// Executes one unit of one job (the worker loop body).
pub fn run_one_unit(exec: &SharedExec, job: &Arc<Job>, unit_idx: usize) {
    let Some(inputs) = job.inputs() else {
        return; // a terminal job's stragglers are dead work
    };
    if job.cancel.is_cancelled() {
        // Skip the walk entirely; an empty cancelled outcome still
        // participates in assembly so the job terminates.
        job.complete_unit(
            unit_idx,
            UnitOutcome {
                cells: Vec::new(),
                cancelled: true,
            },
        );
        return;
    }
    job.mark_running();
    let (scen_idx, chip_idx) = job.units[unit_idx];
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let ctx = ExecContext {
            cache: exec.cache.as_ref(),
            inflight: Some(&exec.inflight),
            cancel: Some(&job.cancel),
            progress: Some(&job.progress),
            ..ExecContext::default()
        };
        inputs.run_unit(&job.plan, (scen_idx, chip_idx), &ctx)
    }));
    match outcome {
        Ok(outcome) => job.complete_unit(unit_idx, outcome),
        Err(_) => job.fail(format!(
            "worker panicked in unit {unit_idx} (scenario {scen_idx}, chip {chip_idx})"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobPhase;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A one-voltage naive sweep of `chips` chips, small enough to run.
    fn tiny_job(chips: usize) -> Arc<Job> {
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
        Arc::new(Job::admit(1, spec, false).expect("valid spec"))
    }

    #[test]
    fn queue_delivers_in_fifo_order_and_closes_cleanly() {
        let q = Arc::new(WorkQueue::new(8));
        let job = tiny_job(1);
        assert!(q.push((Arc::clone(&job), 0)));
        let (_, idx) = q.pop().expect("one queued item");
        assert_eq!(idx, 0);
        q.close();
        assert!(q.pop().is_none(), "closed + empty means worker exit");
        assert!(!q.push((job, 0)), "closed queue refuses new work");
    }

    #[test]
    fn full_queue_blocks_push_until_a_pop_frees_a_slot() {
        let q = Arc::new(WorkQueue::new(1));
        let job = tiny_job(2);
        assert!(q.push((Arc::clone(&job), 0)));

        let pushed = Arc::new(AtomicUsize::new(0));
        let blocked = {
            let q = Arc::clone(&q);
            let job = Arc::clone(&job);
            let pushed = Arc::clone(&pushed);
            std::thread::spawn(move || {
                let ok = q.push((job, 1)); // must block: capacity 1
                pushed.store(1 + ok as usize, Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            pushed.load(Ordering::SeqCst),
            0,
            "push must block while the queue is full"
        );
        let _ = q.pop().expect("frees the slot");
        blocked.join().expect("pusher thread");
        assert_eq!(pushed.load(Ordering::SeqCst), 2, "push succeeded");
    }

    #[test]
    fn terminal_jobs_release_their_datasets_and_memo() {
        let exec = SharedExec::default();
        for end in ["done", "cancelled", "failed"] {
            let job = tiny_job(2);
            let inputs = Arc::downgrade(&job.inputs().expect("an admitted job holds its inputs"));
            match end {
                "done" => {}
                "cancelled" => job.cancel.cancel(),
                _ => job.fail("injected failure".into()),
            }
            for unit in 0..job.units.len() {
                run_one_unit(&exec, &job, unit);
            }
            let phase = job.phase();
            assert_eq!(phase.name(), end);
            if let JobPhase::Done { misses, .. } = phase {
                assert_eq!(misses, 2, "both units ran");
            }
            assert!(
                job.inputs().is_none(),
                "{end}: the job let go of its inputs"
            );
            assert!(
                inputs.upgrade().is_none(),
                "{end}: the splits and memo were freed"
            );
        }
    }
}
