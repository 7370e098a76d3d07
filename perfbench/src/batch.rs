//! The batch workloads, `voltage-mlp` and `ber-conv`: cold, uncached
//! `run_sweep_with_cache(plan, None)` sweeps on two worker threads.

use crate::metrics::{median, peak_rss_mb, quantile, Outcome, PER_LAYER};
use crate::redrive::{self, Counters, Redrive};
use crate::trace::Recorder;
use crate::workloads::{self, Batch, THREADS};
use matic_harness::{run_sweep_with_cache, SweepPlan, SweepReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The committed golden report, relative to the repository root the
/// benchmark runs from.
const GOLDEN: &str = "tests/golden/sweep_all_v3.json";

/// Re-runs the grid `tests/golden/sweep_all_v3.json` was written from
/// and compares the bytes.
pub fn golden_check() -> Result<(), String> {
    let want = std::fs::read_to_string(GOLDEN).map_err(|e| format!("reading {GOLDEN}: {e}"))?;
    let got = matic_harness::run_sweep(&workloads::golden()).to_json_pretty();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "golden grid diverged from tests/golden/sweep_all_v3.json ({} vs {} bytes)",
            got.len(),
            want.len()
        ))
    }
}

/// 128-bit content digest of report bytes.
pub fn digest(bytes: &str) -> u128 {
    let mut f = matic_sram::fingerprint::Fingerprint::new();
    f.write_str(bytes);
    f.finish()
}

/// Table I's "AEI reduction" at the sweep's harshest point (lowest
/// voltage, highest bit-error rate): per benchmark, the naive model's
/// error increase over its nominal error divided by MAT's, averaged
/// over benchmarks as the paper averages its 18.6×. Benchmarks where
/// MAT shows no increase at all (an infinite ratio) are left out.
pub fn mat_error_reduction(report: &SweepReport) -> Option<f64> {
    let points = &report.plan.stress_points;
    let harshest = if report.plan.stress_kind == "voltage" {
        points.iter().copied().fold(f64::INFINITY, f64::min)
    } else {
        points.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    };
    let mean_error = |scen: &str, mode: &str| {
        report
            .points
            .iter()
            .find(|p| p.scenario == scen && p.mode == mode && p.stress == harshest)
            .map(|p| p.error.mean)
    };
    let mut ratios = Vec::new();
    for scen in &report.plan.scenarios {
        let nominals: Vec<f64> = report
            .cells
            .iter()
            .filter(|c| &c.scenario == scen && c.mode == "naive")
            .map(|c| c.nominal_error)
            .collect();
        let (Some(naive), Some(mat)) = (mean_error(scen, "naive"), mean_error(scen, "mat")) else {
            continue;
        };
        if nominals.is_empty() {
            continue;
        }
        let nominal = nominals.iter().sum::<f64>() / nominals.len() as f64;
        let r = matic_core::AeiSummary::from_sweeps(nominal, &[naive], nominal, &[mat]).reduction();
        if r.is_finite() {
            ratios.push(r);
        }
    }
    (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64)
}

/// Golden re-check plus plan construction, [`SETUPS`] times.
fn setup(plan_of: fn() -> SweepPlan, out: &mut Outcome) -> (SweepPlan, f64) {
    let mut times = Vec::new();
    let mut plan = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        if let Err(e) = golden_check() {
            out.problem(e);
        }
        plan = Some(plan_of());
        times.push(t.elapsed().as_secs_f64());
    }
    (plan.expect("at least one set-up"), median(&times))
}

/// The untraced run: back-to-back cold sweeps for `seconds`.
pub fn untraced(w: &Batch, seconds: f64, out: &mut Outcome) {
    let (plan, setup_s) = setup(w.plan, out);
    out.set("setup_s", setup_s);
    let mut walls = Vec::new();
    let mut cells = 0usize;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
        out.attempted += 1;
        let t = Instant::now();
        let run = run_sweep_with_cache(&plan, None);
        walls.push(t.elapsed().as_secs_f64());
        eprintln!(
            "perfbench: sweep {} took {:.4} s",
            walls.len(),
            walls[walls.len() - 1]
        );
        if walls.len() == 1 {
            match mat_error_reduction(&run.report) {
                Some(r) => out.set("mat_error_reduction_x", r),
                None => out.problem("no benchmark has a finite MAT error reduction".into()),
            }
        }
        if let Err(e) = check_report(w, &plan, &run.report) {
            out.failed += 1;
            out.problem(format!("sweep {}: {e}", walls.len()));
        }
        cells += run.report.cells.len();
    }
    let total = start.elapsed().as_secs_f64();
    out.set("sweep_s", median(&walls));
    out.set("job_p50_s", median(&walls));
    out.set("job_p90_s", quantile(&walls, 0.9));
    out.set("jobs_per_s", walls.len() as f64 / total);
    out.set("cells_per_s", cells as f64 / total);
    out.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "perfbench: {} sweeps of {} cells in {total:.2} s",
        walls.len(),
        plan.cell_count()
    );
}

/// A sweep's report must have the plan's cells and the pinned bytes.
fn check_report(w: &Batch, plan: &SweepPlan, report: &SweepReport) -> Result<(), String> {
    if report.cells.len() != plan.cell_count() {
        return Err("report cell count differs from the plan's".into());
    }
    let d = digest(&report.to_json_pretty());
    if d != w.digest {
        return Err(format!(
            "report digest {d:032x} != pinned {:032x}",
            w.digest
        ));
    }
    Ok(())
}

/// The traced run: passes of (engine pass, traced re-drive) for
/// `seconds`, plus one step split.
pub fn traced(w: &Batch, seconds: f64, trace_path: &std::path::Path, out: &mut Outcome) {
    let (plan, _) = setup(w.plan, out);
    let mut passes: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first: Option<(Recorder, Recorder)> = None;
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
        out.attempted += 1;
        let mut m = BTreeMap::new();
        let engine = redrive::engine_pass(&plan, THREADS);
        redrive::record_engine(std::slice::from_ref(&engine), &mut m);
        if let Err(e) = check_report(w, &plan, &engine.run.report) {
            out.failed += 1;
            out.problem(format!("traced pass {}: {e}", passes.len()));
        }
        let rec = Recorder::new();
        let counters = Counters::default();
        let rd = Redrive::new(&plan, &rec, &counters);
        let t = Instant::now();
        let cells = rd.run(THREADS);
        let wall = t.elapsed().as_secs_f64();
        if let Err(e) = redrive::check_reproduction(&engine.run.report, &cells) {
            out.failed += 1;
            out.problem(format!("re-drive does not reproduce the report: {e}"));
        }
        counters.record(&mut m);
        redrive::record_spans(&rec, &mut m);
        redrive::record_step_time(&mut m);
        m.insert("trace.overhead_x", wall / engine.wall_s);
        m.insert(
            "trace.coverage",
            redrive::layer_self_time(&rec) / (wall * THREADS as f64),
        );
        if first.is_none() {
            let splits = matic_harness::sweep_splits(&plan);
            let stash = rd.stash.lock().expect("stash poisoned");
            match redrive::step_split_all(&stash, &splits, &mut m) {
                Ok(steps) => first = Some((rec, steps)),
                Err(e) => {
                    out.problem(e);
                    first = Some((rec, Recorder::new()));
                }
            }
        }
        passes.push(m);
    }
    aggregate(&passes, out);
    for (name, want) in w.exact {
        let got = out.values.get(name).copied().unwrap_or(f64::NAN);
        if got.to_bits() != want.to_bits() {
            out.problem(format!("{name} is {got}, pinned {want}"));
        }
    }
    if let Some((rec, steps)) = first {
        for (suffix, r) in [("redrive", rec), ("steps", steps)] {
            let path = trace_path.with_extension(format!("{suffix}.jsonl"));
            if let Err(e) = r.write_jsonl(&path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
    }
}

/// Folds per-pass metrics: counts must repeat exactly across passes and
/// are reported once; times are reported as their median.
pub fn aggregate(passes: &[BTreeMap<&'static str, f64>], out: &mut Outcome) {
    for &(name, unit) in PER_LAYER {
        let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
        if values.is_empty() {
            continue;
        }
        if matches!(unit, "count" | "cycles") {
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                out.problem(format!("{name} did not repeat across passes: {values:?}"));
            }
            out.set(name, values[0]);
        } else {
            out.set(name, median(&values));
        }
    }
}
