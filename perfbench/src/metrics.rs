//! The metric catalog and the result line.
//!
//! Every end-to-end metric is printed on every workload of an untraced
//! run, and every per-layer metric on every workload of a traced run (a
//! layer that does no work on a workload reads 0). `BENCHMARK.json`
//! lists the same names and units; `layers.json` in this directory maps
//! each layer metric to the end-to-end metric it should move.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("cells_per_s", "cells/s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
    ("mat_error_reduction_x", "x"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_s", "s"),
    ("datasets.calls", "count"),
    ("sram.synthesize_s", "s"),
    ("sram.profile_s", "s"),
    ("sram.profile_calls", "count"),
    ("sram.faulty_bits", "count"),
    ("core.models.faults_s", "s"),
    ("core.models.faults_calls", "count"),
    ("core.mat.train_s", "s"),
    ("core.mat.trainings", "count"),
    ("core.mat.sgd_steps", "count"),
    ("core.mat.step_us", "us"),
    ("core.mat.trainings_unique", "count"),
    ("core.mat.unique_ratio", "ratio"),
    ("core.quantizer.effective_s", "s"),
    ("nn.gradients_s", "s"),
    ("nn.update_s", "s"),
    ("core.flow.deploy_s", "s"),
    ("core.flow.deploys", "count"),
    ("snnac.compose_s", "s"),
    ("snnac.eval_s", "s"),
    ("snnac.evals", "count"),
    ("snnac.inferences", "count"),
    ("snnac.cycles_per_inference", "cycles"),
    ("harness.engine.unit_p50_s", "s"),
    ("harness.engine.unit_max_s", "s"),
    ("harness.engine.unit_imbalance", "ratio"),
    ("harness.engine.assemble_s", "s"),
    ("harness.engine.cells_computed", "count"),
    ("harness.cache.key_s", "s"),
    ("harness.cache.lookup_s", "s"),
    ("harness.cache.lookups", "count"),
    ("harness.cache.hit_ratio", "ratio"),
    ("harness.cache.store_s", "s"),
    ("harness.cache.stores", "count"),
    ("harness.cache.bytes_written", "B"),
    ("harness.sched.cells_hit", "count"),
    ("harness.sched.cells_deduped", "count"),
    ("harness.sched.dedup_ratio", "ratio"),
    ("serve.accept_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.stream_s", "s"),
    ("serve.unix_job_s", "s"),
    ("serve.http_job_s", "s"),
    ("serve.events_per_job", "count"),
    ("serve.report_bytes", "B"),
    ("serve.rejected", "count"),
    ("serve.coordinator.dispatch_s", "s"),
    ("serve.coordinator.retries", "count"),
    ("harness.shard.merge_s", "s"),
    ("harness.pareto.energy_report_s", "s"),
    ("trace.overhead_x", "x"),
    ("trace.coverage", "ratio"),
];

/// The outcome of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (sweeps, jobs or traced passes) attempted.
    pub attempted: usize,
    /// Operations rejected, failed, or producing wrong bytes.
    pub failed: usize,
    /// Every correctness check that failed, in words.
    pub problems: Vec<String>,
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.problems.push(what);
    }

    /// The human-readable table, then the one-line JSON result.
    pub fn print(&self, catalog: &[(&str, &str)]) {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<34} {:>14} share of operations",
            "failed_frac", failed_frac
        );
        let mut metrics = Vec::new();
        for &(name, unit) in catalog {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            // `+ 0.0` folds an empty sum's -0.0 into 0.0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            println!("{name:<34} {value:>14.6} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') {
        format!("{v}")
    } else {
        s
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_numbers_keep_digits() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(1e-7), "0.0000001");
    }

    /// `BENCHMARK.json` at the repository root must name exactly this
    /// catalog, with the same units.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, catalog) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, catalog.len(), "{section} lists {listed} metrics");
            for (name, unit) in catalog {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} is missing {entry}");
            }
        }
    }

    /// `layers.json` assigns every per-layer metric to exactly one layer,
    /// and names only end-to-end metrics as what a layer should move.
    #[test]
    fn layer_map_covers_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
        let text = std::fs::read_to_string(path).expect("layers.json next to Cargo.toml");
        for (name, _) in PER_LAYER {
            let n = text.matches(&format!("\"{name}\"")).count();
            assert_eq!(n, 1, "{name} is listed {n} times");
        }
        for moved in text.split("\"metric\": \"").skip(1) {
            let name = &moved[..moved.find('"').expect("closing quote")];
            assert!(
                END_TO_END.iter().any(|(n, _)| *n == name),
                "{name} is not an end-to-end metric"
            );
        }
    }
}
