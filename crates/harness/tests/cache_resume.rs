//! Resume correctness: a sweep replayed from the persistent cell cache —
//! fully or partially warm, on any thread count — must emit a report
//! byte-identical to the cold run, while doing none of the cached work.

use matic_harness::{
    run_sweep_with_cache, SiliconUsage, SweepCache, SweepPlan, SweepReport, TrainingMode,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch cache directory per test (std-only tempdir).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "matic-resume-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A small but representative plan: two chips, a fault-free and a faulty
/// voltage point, and all three training modes (mat-canary exercises the
/// full deployment flow through the cache skip path).
fn plan(threads: usize) -> SweepPlan {
    SweepPlan::builder()
        .chips(2)
        .voltages(&[0.9, 0.52])
        .benchmark("inversek2j")
        .expect("builtin benchmark")
        .modes(&[
            TrainingMode::Naive,
            TrainingMode::Mat,
            TrainingMode::MatCanary,
        ])
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

#[test]
fn warm_resume_is_byte_identical_and_does_zero_work() {
    let dir = scratch_dir("warm");
    let cache = SweepCache::open(&dir).expect("cache opens");

    let cold = run_sweep_with_cache(&plan(2), Some(&cache));
    assert!(cold.cache.enabled);
    assert_eq!(cold.cache.hits, 0, "first run must be all misses");
    assert_eq!(cold.cache.misses, plan(2).cell_count());
    // One chip per unit, profiled once per voltage, every profile stored.
    let cold_silicon = SiliconUsage {
        profiles_replayed: 0,
        profiles_computed: 4,
        chips_synthesized: 2,
    };
    assert_eq!(cold.cache.silicon, cold_silicon);
    assert_eq!(cache.stats().expect("stats").profiles, 4);

    // Every cell was checkpointed as it completed.
    assert_eq!(
        cache.stats().expect("stats").cells,
        plan(2).cell_count(),
        "checkpoint-on-write must persist every cell"
    );

    // Warm resume on a *different* thread count: all hits, same bytes.
    let warm = run_sweep_with_cache(&plan(4), Some(&cache));
    assert!(
        warm.cache.all_hits(),
        "a fully cached grid must do zero training/evaluation work: {:?} hits / {:?} misses",
        warm.cache.hits,
        warm.cache.misses
    );
    assert_eq!(
        warm.cache.silicon,
        SiliconUsage {
            profiles_replayed: 4,
            profiles_computed: 0,
            chips_synthesized: 0,
        },
        "a fully cached grid must replay every profile and build no chip"
    );
    assert_eq!(report_bytes(&cold.report), report_bytes(&warm.report));

    // And an uncached run of the same plan agrees too (the cache layer
    // never changes results, only work).
    let uncached = run_sweep_with_cache(&plan(1), None);
    assert!(!uncached.cache.enabled);
    assert_eq!(uncached.cache.silicon, cold_silicon);
    assert_eq!(report_bytes(&cold.report), report_bytes(&uncached.report));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn partial_resume_is_byte_identical() {
    let dir = scratch_dir("partial");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let cold = run_sweep_with_cache(&plan(2), Some(&cache));

    // Simulate an interrupted run: keep every other checkpoint file.
    let cells_dir = dir.join("cells");
    let mut entries: Vec<PathBuf> = fs::read_dir(&cells_dir)
        .expect("cache dir listable")
        .map(|e| e.expect("entry").path())
        .collect();
    entries.sort();
    for path in entries.iter().step_by(2) {
        fs::remove_file(path).expect("delete cached cell");
    }
    let kept = entries.len() - entries.len().div_ceil(2);

    // Every profile is still cached: the recomputed cells run on chips
    // first built after replayed profiles.
    let resumed = run_sweep_with_cache(&plan(2), Some(&cache));
    assert_eq!(resumed.cache.silicon.profiles_computed, 0);
    assert_eq!(resumed.cache.hits, kept, "kept checkpoints must replay");
    assert_eq!(resumed.cache.misses, entries.len() - kept);
    assert_eq!(
        report_bytes(&cold.report),
        report_bytes(&resumed.report),
        "a partially cached resume must reproduce the cold bytes"
    );
    // The resume also re-checkpointed what it recomputed.
    assert_eq!(cache.stats().expect("stats").cells, entries.len());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ber_axis_resumes_byte_identical() {
    let plan = |threads: usize| {
        SweepPlan::builder()
            .chips(2)
            .bit_error_rates(&[0.0, 0.05])
            .benchmark("bscholes")
            .expect("builtin benchmark")
            .data_scale(0.1)
            .epoch_scale(0.2)
            .threads(threads)
            .build()
            .expect("plan is valid")
    };
    let dir = scratch_dir("ber");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let cold = run_sweep_with_cache(&plan(1), Some(&cache));
    let warm = run_sweep_with_cache(&plan(3), Some(&cache));
    assert!(warm.cache.all_hits());
    assert_eq!(cold.report.to_json(), warm.report.to_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn clock_axis_resumes_byte_identical() {
    let plan = |threads: usize| {
        SweepPlan::builder()
            .chips(2)
            .clock_stress(&[0.3, 0.8])
            .benchmark("inversek2j")
            .expect("builtin benchmark")
            .data_scale(0.1)
            .epoch_scale(0.2)
            .threads(threads)
            .build()
            .expect("plan is valid")
    };
    let dir = scratch_dir("clock");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let cold = run_sweep_with_cache(&plan(1), Some(&cache));
    assert_eq!(cold.cache.misses, plan(1).cell_count());
    let warm = run_sweep_with_cache(&plan(3), Some(&cache));
    assert!(warm.cache.all_hits());
    assert_eq!(cold.report.to_json(), warm.report.to_json());
    let uncached = run_sweep_with_cache(&plan(2), None);
    assert_eq!(cold.report.to_json(), uncached.report.to_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_schema_entries_are_orphaned_not_trusted() {
    // A cache directory left over from an older binary may hold entries
    // under the previous cache schema. Those must never replay — even if
    // the file sits at exactly the path the new key hashes to — and the
    // resume must recompute the cell, reproducing the cold bytes.
    let dir = scratch_dir("stale");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let cold = run_sweep_with_cache(&plan(2), Some(&cache));

    let cells_dir = dir.join("cells");
    let mut entries: Vec<PathBuf> = fs::read_dir(&cells_dir)
        .expect("cache dir listable")
        .map(|e| e.expect("entry").path())
        .collect();
    entries.sort();
    let victim = &entries[0];
    let text = fs::read_to_string(victim).expect("cached cell readable");
    assert!(
        text.contains("matic.sweep-cache/v3"),
        "entries carry the tag"
    );
    // Downgrade the tag and corrupt the payload: if the loader ever
    // trusted this entry, the warm report would visibly diverge.
    let stale = text
        .replace("matic.sweep-cache/v3", "matic.sweep-cache/v2")
        .replace("\"error\":", "\"error_was\":");
    fs::write(victim, stale).expect("tamper with cached cell");

    let warm = run_sweep_with_cache(&plan(2), Some(&cache));
    assert_eq!(
        warm.cache.misses, 1,
        "the stale entry must be recomputed, not replayed"
    );
    assert_eq!(warm.cache.hits, plan(2).cell_count() - 1);
    assert_eq!(
        report_bytes(&cold.report),
        report_bytes(&warm.report),
        "recomputing an orphaned entry must reproduce the cold bytes"
    );
    // The recompute re-checkpointed the cell under the current schema.
    let healed = fs::read_to_string(victim).expect("cell re-written");
    assert!(healed.contains("matic.sweep-cache/v3"));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn changed_inputs_do_not_hit_a_stale_cache() {
    let dir = scratch_dir("invalidate");
    let cache = SweepCache::open(&dir).expect("cache opens");
    run_sweep_with_cache(&plan(2), Some(&cache));

    // Same grid, different seed: different silicon, zero hits.
    let other_seed = SweepPlan::builder()
        .chips(2)
        .voltages(&[0.9, 0.52])
        .benchmark("inversek2j")
        .expect("builtin benchmark")
        .modes(&[
            TrainingMode::Naive,
            TrainingMode::Mat,
            TrainingMode::MatCanary,
        ])
        .data_scale(0.1)
        .epoch_scale(0.2)
        .seed(12)
        .threads(2)
        .build()
        .expect("plan is valid");
    let rerun = run_sweep_with_cache(&other_seed, Some(&cache));
    assert_eq!(
        rerun.cache.hits, 0,
        "a different root seed must never replay old silicon"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn growing_the_population_reuses_existing_chips() {
    // The scaling story: adding chips to a cached sweep only computes the
    // new silicon — existing (scenario, chip) cells replay.
    let base = |chips: usize| {
        SweepPlan::builder()
            .chips(chips)
            .voltages(&[0.9, 0.52])
            .benchmark("inversek2j")
            .expect("builtin benchmark")
            .data_scale(0.1)
            .epoch_scale(0.2)
            .seed(11)
            .threads(2)
            .build()
            .expect("plan is valid")
    };
    let dir = scratch_dir("grow");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let two = run_sweep_with_cache(&base(2), Some(&cache));
    let three = run_sweep_with_cache(&base(3), Some(&cache));
    assert_eq!(
        three.cache.hits,
        base(2).cell_count(),
        "the first two chips' cells must replay"
    );
    assert_eq!(
        three.cache.misses,
        base(3).cell_count() - base(2).cell_count()
    );
    // The shared prefix of the reports is identical cell-for-cell.
    for (a, b) in two.report.cells.iter().zip(&three.report.cells) {
        let same_coords = a.chip_index == b.chip_index
            && a.voltage == b.voltage
            && a.mode == b.mode
            && a.scenario == b.scenario;
        if same_coords {
            assert_eq!(a, b, "grown sweep must not disturb existing cells");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn datasets_are_generated_only_for_scenarios_with_a_cell_to_compute() {
    let plan = |threads: usize| {
        SweepPlan::builder()
            .chips(2)
            .voltages(&[0.9, 0.52])
            .benchmark("inversek2j")
            .expect("builtin benchmark")
            .benchmark("bscholes")
            .expect("builtin benchmark")
            .modes(&[TrainingMode::Naive, TrainingMode::Mat])
            .data_scale(0.05)
            .epoch_scale(0.1)
            .seed(5)
            .threads(threads)
            .build()
            .expect("plan is valid")
    };
    let dir = scratch_dir("datasets");
    let cache = SweepCache::open(&dir).expect("cache opens");

    // Cold: every cell computes, so both scenarios' datasets are built.
    let cold = run_sweep_with_cache(&plan(2), Some(&cache));
    assert_eq!(cold.cache.misses, plan(2).cell_count());
    assert_eq!(cold.cache.datasets_generated, 2);

    // Warm: every cell replays and no dataset is built.
    let warm = run_sweep_with_cache(&plan(2), Some(&cache));
    assert!(warm.cache.all_hits());
    assert_eq!(warm.cache.datasets_generated, 0, "a warm run needs no data");
    assert_eq!(report_bytes(&cold.report), report_bytes(&warm.report));

    // Partial: one bscholes cell is gone, so only bscholes is built.
    let victim = fs::read_dir(dir.join("cells"))
        .expect("cache dir listable")
        .map(|e| e.expect("entry").path())
        .find(|p| {
            fs::read_to_string(p)
                .expect("cached cell readable")
                .contains("\"scenario\": \"bscholes\"")
        })
        .expect("a cached bscholes cell");
    fs::remove_file(victim).expect("delete cached cell");
    let partial = run_sweep_with_cache(&plan(1), Some(&cache));
    assert_eq!(partial.cache.misses, 1);
    assert_eq!(
        partial.cache.datasets_generated, 1,
        "only the scenario with a miss builds its dataset"
    );
    assert_eq!(report_bytes(&cold.report), report_bytes(&partial.report));

    // Uncached: every dataset is built up front.
    let uncached = run_sweep_with_cache(&plan(2), None);
    assert_eq!(uncached.cache.datasets_generated, 2);
    assert_eq!(report_bytes(&cold.report), report_bytes(&uncached.report));

    let _ = fs::remove_dir_all(&dir);
}
