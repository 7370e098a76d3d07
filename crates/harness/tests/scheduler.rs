//! Scheduler correctness: cooperative cancellation leaves the cache
//! consistent (every finished cell checkpointed, the plan resumable),
//! and concurrent sweeps over overlapping grids sharing one cache and
//! one in-flight table compute each distinct cell exactly once while
//! producing byte-identical reports.

use matic_harness::{
    run_sweep_observed, run_sweep_with_cache, CancelToken, CellOrigin, ExecContext, Inflight,
    ProgressSink, SweepCache, SweepOutcome, SweepPlan, SweepReport, TrainingMode,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch cache directory per test (std-only tempdir).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "matic-sched-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The stress axis a test plan sweeps.
#[derive(Debug, Clone, Copy)]
enum Axis {
    /// Profiled silicon: a fault-free and a faulty voltage point, all
    /// three modes.
    Voltage,
    /// Injected i.i.d. bit errors at two rates, naive and MAT.
    Ber,
    /// Injected MAC timing drops: two points below the drop onset (the
    /// second reuses the first's model and evaluations) and one above.
    Clock,
}

/// The same small-but-representative plan the resume tests use.
fn plan(axis: Axis, chips: usize, threads: usize) -> SweepPlan {
    use TrainingMode::{Mat, MatCanary, Naive};
    let builder = SweepPlan::builder();
    let (builder, modes): (_, &[TrainingMode]) = match axis {
        Axis::Voltage => (builder.voltages(&[0.9, 0.52]), &[Naive, Mat, MatCanary]),
        Axis::Ber => (builder.bit_error_rates(&[0.001, 0.01]), &[Naive, Mat]),
        Axis::Clock => (builder.clock_stress(&[0.1, 0.2, 0.6]), &[Naive, Mat]),
    };
    builder
        .chips(chips)
        .benchmark("inversek2j")
        .expect("builtin benchmark")
        .modes(modes)
        .data_scale(0.1)
        .epoch_scale(0.2)
        .seed(11)
        .threads(threads)
        .build()
        .expect("plan is valid")
}

fn report_bytes(r: &SweepReport) -> (String, String) {
    (r.to_json_pretty(), r.to_csv())
}

/// A progress sink that flips a cancel token once `limit` cells have
/// finished — the "user hits cancel mid-sweep" stand-in.
struct CancelAfter {
    token: CancelToken,
    seen: AtomicUsize,
    limit: usize,
}

impl ProgressSink for CancelAfter {
    fn cell_done(&self, _origin: CellOrigin) {
        if self.seen.fetch_add(1, Ordering::SeqCst) + 1 >= self.limit {
            self.token.cancel();
        }
    }
}

/// Cancels a single-threaded sweep after three cells, on every stress
/// axis. The cut leaves the first unit partially cached, so the resumed
/// walk materializes the naive baseline and the adaptive model lazily
/// after cache hits — on the clock axis right where the cold walk reuses
/// the previous point's model and evaluations.
#[test]
fn cancel_mid_sweep_checkpoints_the_prefix_and_resumes_byte_identical() {
    for axis in [Axis::Voltage, Axis::Ber, Axis::Clock] {
        let dir = scratch_dir("cancel");
        let cache = SweepCache::open(&dir).expect("cache opens");
        let plan1 = plan(axis, 2, 1); // one worker: the walk is strictly sequential
        let total = plan1.cell_count();

        let token = CancelToken::new();
        let sink = CancelAfter {
            token: token.clone(),
            seen: AtomicUsize::new(0),
            limit: 3,
        };
        let ctx = ExecContext {
            cache: Some(&cache),
            inflight: None,
            cancel: Some(&token),
            progress: Some(&sink),
            memo: None,
        };
        let cancelled = match run_sweep_observed(&plan1, &ctx) {
            SweepOutcome::Cancelled(c) => c,
            SweepOutcome::Complete(_) => {
                panic!("{axis:?}: the sweep must stop at the cancellation")
            }
        };
        assert_eq!(
            cancelled.cells_done, 3,
            "{axis:?}: a single-threaded walk stops exactly at the next cell boundary"
        );
        assert_eq!(cancelled.cells_total, total);
        assert_eq!(
            cancelled.cache.misses, 3,
            "{axis:?}: every finished cell was computed"
        );
        assert_eq!(cancelled.cache.hits, 0);

        // Cancellation must leave the cache consistent: exactly the
        // finished prefix is checkpointed, nothing partial.
        assert_eq!(
            cache.stats().expect("stats").cells,
            cancelled.cells_done,
            "{axis:?}: each finished cell was checkpointed before the stop"
        );

        // Resubmitting the plan resumes: the prefix replays, only the rest
        // computes, and the report matches an uncached cold run
        // byte-for-byte.
        let resumed = run_sweep_with_cache(&plan1, Some(&cache));
        assert_eq!(resumed.cache.hits, cancelled.cells_done);
        assert_eq!(resumed.cache.misses, total - cancelled.cells_done);
        if let Axis::Clock = axis {
            // The first cell computed after the cut reuses the model the
            // cold walk trained at the previous, cached point.
            assert!(resumed.report.cells[3].reused_model);
        }
        let baseline = run_sweep_with_cache(&plan(axis, 2, 2), None);
        assert_eq!(
            report_bytes(&baseline.report),
            report_bytes(&resumed.report),
            "{axis:?}: a cancel/resume cycle must reproduce the uninterrupted bytes"
        );

        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_identical_sweeps_compute_each_cell_once() {
    let dir = scratch_dir("concurrent");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let inflight = Inflight::new();
    let run_plan = plan(Axis::Voltage, 2, 2);
    let total = run_plan.cell_count();

    // Two fully overlapping jobs race over one cache and one in-flight
    // table — the serve daemon's sharing arrangement.
    let observed = || {
        let ctx = ExecContext {
            cache: Some(&cache),
            inflight: Some(&inflight),
            cancel: None,
            progress: None,
            memo: None,
        };
        match run_sweep_observed(&run_plan, &ctx) {
            SweepOutcome::Complete(run) => run,
            SweepOutcome::Cancelled(_) => unreachable!("no cancel token attached"),
        }
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(observed);
        let b = scope.spawn(observed);
        (a.join().expect("sweep a"), b.join().expect("sweep b"))
    });

    // Exactly-once: every distinct cell was computed by one of the two
    // runs and replayed — as a cache hit or an in-flight dedup — by the
    // other, whatever the interleaving.
    assert_eq!(
        a.cache.misses + b.cache.misses,
        total,
        "each overlapping cell must be computed exactly once \
         (a: {:?}, b: {:?})",
        a.cache,
        b.cache
    );
    assert_eq!(
        a.cache.replayed() + b.cache.replayed(),
        total,
        "the other run's copy of every cell must be a replay"
    );
    assert_eq!(a.cache.cells(), total);
    assert_eq!(b.cache.cells(), total);
    assert_eq!(
        cache.stats().expect("stats").cells,
        total,
        "the shared cache holds each distinct cell once"
    );

    // Determinism: both racing runs and a plain batch run agree on bytes.
    assert_eq!(report_bytes(&a.report), report_bytes(&b.report));
    let batch = run_sweep_with_cache(&run_plan, None);
    assert_eq!(report_bytes(&a.report), report_bytes(&batch.report));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_overlapping_grids_share_the_common_cells() {
    // Partial overlap: the two-chip grid is a strict subset of the
    // three-chip grid (chip cells key on chip index, not population
    // size). The overlap must be computed once across both runs.
    let dir = scratch_dir("overlap");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let inflight = Inflight::new();
    let small = plan(Axis::Voltage, 2, 2);
    let large = plan(Axis::Voltage, 3, 2);
    let overlap = small.cell_count();
    let distinct = large.cell_count(); // small's cells ⊂ large's cells

    let observed = |p: &SweepPlan| {
        let ctx = ExecContext {
            cache: Some(&cache),
            inflight: Some(&inflight),
            cancel: None,
            progress: None,
            memo: None,
        };
        match run_sweep_observed(p, &ctx) {
            SweepOutcome::Complete(run) => run,
            SweepOutcome::Cancelled(_) => unreachable!("no cancel token attached"),
        }
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| observed(&small));
        let b = scope.spawn(|| observed(&large));
        (
            a.join().expect("small sweep"),
            b.join().expect("large sweep"),
        )
    });

    assert_eq!(
        a.cache.misses + b.cache.misses,
        distinct,
        "only the union of the grids is ever computed \
         (a: {:?}, b: {:?})",
        a.cache,
        b.cache
    );
    assert_eq!(
        a.cache.replayed() + b.cache.replayed(),
        overlap,
        "every overlapping cell is computed by one run and replayed by the other"
    );
    assert_eq!(cache.stats().expect("stats").cells, distinct);

    // Each racing run still matches its own batch bytes exactly.
    let small_batch = run_sweep_with_cache(&small, None);
    let large_batch = run_sweep_with_cache(&large, None);
    assert_eq!(report_bytes(&a.report), report_bytes(&small_batch.report));
    assert_eq!(report_bytes(&b.report), report_bytes(&large_batch.report));

    let _ = fs::remove_dir_all(&dir);
}
