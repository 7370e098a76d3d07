//! Incremental execution primitives for the sweep engine: cooperative
//! cancellation, per-cell progress observation, and cross-run in-flight
//! deduplication.
//!
//! The batch entry points ([`run_sweep`](crate::run_sweep),
//! [`run_sweep_with_cache`](crate::run_sweep_with_cache)) drive the
//! engine with a default [`ExecContext`] — no cancellation, no observer,
//! no dedup — and behave exactly as before. A long-running scheduler
//! (the `matic-serve` daemon) builds a richer context per job:
//!
//! * a [`CancelToken`] checked cooperatively **between cells**, so a
//!   cancelled job stops at cell granularity with every completed cell
//!   already checkpointed by the cache's atomic writer;
//! * a [`ProgressSink`] invoked once per finished cell (computed,
//!   replayed from cache, or deduplicated against another job);
//! * an [`Inflight`] table shared by all jobs of a process, so two jobs
//!   covering the same [`CellKey`] trigger **one** computation — the
//!   second claims the key, finds it held, waits, and replays the first
//!   job's checkpoint from the shared cache.
//!
//! # Exactly-once protocol
//!
//! The dedup discipline is *claim, then look up*: a worker first claims
//! the cell's digest in the in-flight table (waiting while another
//! holder has it), and only then consults the cache. Because a holder
//! releases its claim strictly **after** storing the computed cell, a
//! waiter that wakes and finds a cache hit knows the work happened
//! elsewhere ([`CellOrigin::Deduped`]); a waiter that wakes to a miss
//! (the holder's store failed, or the holder's job was cancelled before
//! reaching the cell) inherits the claim and computes. Looking up before
//! claiming would race: two jobs could both miss, then serialize through
//! the claim and compute the cell twice.

use crate::cache::{CellKey, SweepCache};
use crate::report::CellRecord;
use matic_core::TrainingMemo;
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Order-preserving parallel map over fixed-size chunks of a slice: each
/// chunk is handed to `f` on the worker pool, and the per-chunk outputs
/// are concatenated **in chunk order**, so the result is element-for-
/// element identical to `f` applied over a sequential `items.chunks(..)`
/// walk — for any worker count.
///
/// This is the intra-cell parallelism primitive: a cell splits its eval
/// set into chunks here, computes order-independent per-sample
/// contributions in parallel, and folds them sequentially afterwards.
/// Chunks are fixed-size (never sized by worker count), so the chunk
/// boundaries — and everything derived from them — are identical no
/// matter how many workers the pool has.
///
/// `chunk == 0` is treated as 1.
pub fn par_chunked<T, U, F>(items: &[T], chunk: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> Vec<U> + Sync,
{
    let chunks: Vec<&[T]> = items.chunks(chunk.max(1)).collect();
    chunks
        .into_par_iter()
        .map(f)
        .collect::<Vec<Vec<U>>>()
        .into_iter()
        .flatten()
        .collect()
}

/// A clonable cooperative-cancellation handle. The engine polls it
/// between cells; flipping it stops every unit of the sweep at the next
/// cell boundary, leaving all completed cells checkpointed.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Where a finished cell's bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellOrigin {
    /// Trained/evaluated in this run (a cache miss).
    Computed,
    /// Replayed from the persistent cache without waiting.
    CacheHit,
    /// Replayed from the cache after waiting for another run's in-flight
    /// computation of the same cell (the cross-job dedup path).
    Deduped,
}

impl CellOrigin {
    /// `true` for the replay origins (anything but a fresh computation).
    pub fn is_replay(self) -> bool {
        !matches!(self, CellOrigin::Computed)
    }
}

/// Per-cell progress observer. Implementations must be cheap and
/// non-blocking: the engine calls this from worker threads on the hot
/// path, once per finished cell.
pub trait ProgressSink: Sync {
    /// One cell finished (in some unit's walk order, not grid order).
    fn cell_done(&self, origin: CellOrigin);
}

/// The set of cell digests currently being computed, shared by every
/// concurrent sweep of one process. See the module docs for the
/// exactly-once claim protocol.
#[derive(Debug, Default)]
pub struct Inflight {
    held: Mutex<HashSet<String>>,
    freed: Condvar,
}

impl Inflight {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims `digest`, blocking while another holder has it. Returns
    /// the guard plus whether this call had to wait (a wait means some
    /// other run was computing the same cell — the dedup signal).
    pub fn claim(&self, digest: &str) -> (InflightGuard<'_>, bool) {
        let mut held = self.held.lock().expect("inflight lock poisoned");
        let mut waited = false;
        while held.contains(digest) {
            waited = true;
            held = self.freed.wait(held).expect("inflight lock poisoned");
        }
        held.insert(digest.to_string());
        (
            InflightGuard {
                table: self,
                digest: digest.to_string(),
            },
            waited,
        )
    }

    /// How many digests are currently claimed (diagnostics only).
    pub fn len(&self) -> usize {
        self.held.lock().expect("inflight lock poisoned").len()
    }

    /// Whether no computation is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An exclusive claim on one cell digest. Dropping it — after the cell
/// was stored, or on any unwind — releases the claim and wakes waiters,
/// so a panicking worker can never strand the cell.
#[derive(Debug)]
pub struct InflightGuard<'a> {
    table: &'a Inflight,
    digest: String,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let mut held = self
            .table
            .held
            .lock()
            .expect("inflight lock poisoned in guard drop");
        held.remove(&self.digest);
        self.table.freed.notify_all();
    }
}

/// Everything the engine consults while executing cells: the cache to
/// replay from and checkpoint into, the in-flight table for cross-run
/// dedup, the cancellation token, the progress observer, and the training
/// memo. All fields are optional; [`ExecContext::batch`] is the plain batch
/// configuration.
#[derive(Default, Clone, Copy)]
pub struct ExecContext<'a> {
    /// Persistent cell cache (replay + checkpoint-on-write), if any.
    pub cache: Option<&'a SweepCache>,
    /// Cross-run in-flight dedup table, if any (only meaningful with a
    /// cache attached — the cache is where deduplicated results travel).
    pub inflight: Option<&'a Inflight>,
    /// Cooperative cancellation, if the caller wants to be able to stop
    /// the sweep between cells.
    pub cancel: Option<&'a CancelToken>,
    /// Per-cell progress observer, if any.
    pub progress: Option<&'a dyn ProgressSink>,
    /// The sweep's training memo, shared by all of its units. Without one,
    /// each unit memoizes its own trainings.
    pub memo: Option<&'a TrainingMemo>,
}

/// What [`ExecContext::resolve`] decided about one cell.
pub enum Resolution<'a> {
    /// The cell's bytes were replayed (from the cache, possibly after
    /// waiting out another run's computation).
    Replay(Box<CellRecord>, CellOrigin),
    /// The caller must compute the cell, then hand it to
    /// [`ExecContext::finish`] together with this claim.
    Compute(Option<InflightGuard<'a>>),
}

impl<'a> ExecContext<'a> {
    /// The plain batch context: optional cache, nothing else.
    pub fn batch(cache: Option<&'a SweepCache>) -> Self {
        ExecContext {
            cache,
            ..ExecContext::default()
        }
    }

    /// Whether the caller requested cancellation.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Decides how to produce the cell addressed by `key`: replay it, or
    /// compute it (holding an in-flight claim when dedup is active).
    /// `key` is `None` when no cache is attached — then every cell is
    /// computed and nothing can dedup.
    pub fn resolve(&self, key: Option<&CellKey>) -> Resolution<'a> {
        let (Some(cache), Some(key)) = (self.cache, key) else {
            return Resolution::Compute(None);
        };
        match self.inflight {
            // Claim before looking up: the holder stores before it
            // releases, so a post-claim lookup can never miss work that
            // finished elsewhere (see module docs).
            Some(table) => {
                let (guard, waited) = table.claim(&key.digest());
                match cache.lookup(key) {
                    Some(cell) => {
                        drop(guard);
                        let origin = if waited {
                            CellOrigin::Deduped
                        } else {
                            CellOrigin::CacheHit
                        };
                        self.note(origin);
                        Resolution::Replay(Box::new(cell), origin)
                    }
                    None => Resolution::Compute(Some(guard)),
                }
            }
            None => match cache.lookup(key) {
                Some(cell) => {
                    self.note(CellOrigin::CacheHit);
                    Resolution::Replay(Box::new(cell), CellOrigin::CacheHit)
                }
                None => Resolution::Compute(None),
            },
        }
    }

    /// Checkpoints a freshly computed cell and releases its in-flight
    /// claim (in that order — waiters must observe the stored bytes).
    pub fn finish(
        &self,
        claim: Option<InflightGuard<'a>>,
        key: Option<&CellKey>,
        cell: &CellRecord,
    ) {
        crate::engine::store_checkpoint(self.cache, key, cell);
        drop(claim);
        self.note(CellOrigin::Computed);
    }

    fn note(&self, origin: CellOrigin) {
        if let Some(sink) = self.progress {
            sink.cell_done(origin);
        }
    }
}

impl std::fmt::Debug for ExecContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("cache", &self.cache.is_some())
            .field("inflight", &self.inflight.is_some())
            .field("cancel", &self.cancel.is_some())
            .field("progress", &self.progress.is_some())
            .field("memo", &self.memo.is_some())
            .finish()
    }
}

/// The outcome of one (scenario, chip) unit driven through an
/// [`ExecContext`]: the cells finished so far (in the unit's walk
/// order) and whether the walk stopped early on cancellation.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Finished cells with their origins, in walk order. Complete when
    /// `cancelled` is false; a prefix of the walk otherwise.
    pub cells: Vec<(CellRecord, CellOrigin)>,
    /// Whether the walk stopped early at a cancellation check.
    pub cancelled: bool,
}

/// The outcome of a whole observed sweep.
// One value exists per sweep (never collections of them), so the size
// gap between the report-carrying and cancelled variants is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum SweepOutcome {
    /// Every cell finished; the report is byte-identical to what the
    /// batch entry points produce for the same plan.
    Complete(crate::engine::SweepRun),
    /// The sweep was cancelled mid-flight. Every finished cell was
    /// checkpointed (when a cache was attached), so resubmitting the
    /// same plan resumes instead of recomputing.
    Cancelled(CancelledSweep),
}

/// What a cancelled sweep managed to finish before stopping.
#[derive(Debug, Clone)]
pub struct CancelledSweep {
    /// Cells finished before the cancellation took effect.
    pub cells_done: usize,
    /// Cells the plan would have produced in total.
    pub cells_total: usize,
    /// Cache provenance of the finished cells (`misses` of a cached run
    /// = cells computed and checkpointed by this run).
    pub cache: crate::cache::CacheUsage,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_chunked_preserves_order_for_any_chunk_size() {
        let items: Vec<usize> = (0..37).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for chunk in [0usize, 1, 2, 5, 8, 37, 64] {
            let got = par_chunked(&items, chunk, |c| c.iter().map(|x| x * 2).collect());
            assert_eq!(got, expect, "chunk {chunk}");
        }
        let empty: Vec<usize> = par_chunked(&[], 4, |c: &[usize]| c.to_vec());
        assert!(empty.is_empty());
    }

    #[test]
    fn cancel_token_is_shared_and_idempotent() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        clone.cancel();
        assert!(t.is_cancelled(), "clones share one flag");
    }

    #[test]
    fn inflight_claim_blocks_second_claimant_until_release() {
        let table = Arc::new(Inflight::new());
        let (guard, waited) = table.claim("cell-a");
        assert!(!waited, "an uncontended claim never waits");
        // An unrelated digest is claimable immediately.
        let (other, other_waited) = table.claim("cell-b");
        assert!(!other_waited);
        drop(other);

        let contended = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let (g, waited) = table.claim("cell-a");
                drop(g);
                waited
            })
        };
        // Give the thread a moment to reach the wait, then release.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard);
        assert!(
            contended.join().expect("claimant thread"),
            "the second claimant must report that it waited"
        );
        assert!(table.is_empty(), "all claims released");
    }

    #[test]
    fn inflight_guard_releases_on_panic() {
        let table = Arc::new(Inflight::new());
        let panicking = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let (_guard, _) = table.claim("doomed");
                panic!("worker dies mid-cell");
            })
        };
        assert!(panicking.join().is_err());
        // The claim must not be stranded: a fresh claim goes through.
        let (_g, waited) = table.claim("doomed");
        assert!(!waited || table.len() == 1, "claim after panic succeeds");
    }

    struct Counter(AtomicUsize);
    impl ProgressSink for Counter {
        fn cell_done(&self, _origin: CellOrigin) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn context_notes_progress_through_the_sink() {
        let sink = Counter(AtomicUsize::new(0));
        let ctx = ExecContext {
            progress: Some(&sink),
            ..ExecContext::default()
        };
        assert!(!ctx.is_cancelled(), "no token means never cancelled");
        // No cache attached: resolve always says compute, and finishing
        // a computed cell (with no key to store under) still reports.
        match ctx.resolve(None) {
            Resolution::Compute(claim) => {
                assert!(claim.is_none());
            }
            Resolution::Replay(..) => panic!("nothing to replay without a cache"),
        }
        let cell = CellRecord {
            scenario: "inversek2j".into(),
            chip_index: 0,
            chip_seed: 42,
            mode: "mat".into(),
            fault_model: "sram-voltage".into(),
            voltage: Some(0.5),
            ber_target: None,
            clock_stress: None,
            error: 0.01,
            nominal_error: 0.01,
            metric: "mse".into(),
            energy: None,
            measured_ber: 0.0,
            fault_count: 0,
            settled_voltage: None,
            reused_model: false,
            failed: false,
        };
        ctx.finish(None, None, &cell);
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
    }
}
