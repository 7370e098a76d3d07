//! Pins the fault-model fingerprints as literal hex.
//!
//! A model's fingerprint feeds every cell key of the sweep cache and the
//! plan fingerprint. If it drifts, every cached cell silently re-keys: a
//! warm cache turns cold without any report byte changing, so neither
//! the golden reports nor a cache filled and replayed by the same binary
//! would notice. These literals hold the bytes across refactors of the
//! fault-model code.

use matic_harness::SweepPlan;
use matic_nn::NetSpec;

fn model_fingerprint(plan: &SweepPlan) -> String {
    format!("{:032x}", plan.model.fingerprint())
}

#[test]
fn stock_benchmark_model_fingerprints_are_pinned() {
    let stock = SweepPlan::builder().all_benchmarks();
    let cases = [
        (
            stock.clone().voltages(&[0.9, 0.5]),
            "sram-voltage",
            "e0366eeed77a3d8abb0d37e47c4d3438",
        ),
        (
            stock.clone().bit_error_rates(&[0.01]),
            "random-ber",
            "bed227269c071cd28aa70ab83d874589",
        ),
        (
            stock.clone().clock_stress(&[0.5]),
            "timing-error",
            "7699c156cb9582b195c4bb584949a064",
        ),
    ];
    for (builder, name, pinned) in cases {
        let plan = builder.build().expect("valid plan");
        assert_eq!(plan.model.name(), name);
        assert_eq!(model_fingerprint(&plan), pinned, "{name} fingerprint moved");
    }
}

#[test]
fn fitted_geometry_model_fingerprints_are_pinned() {
    // `--topology '100;600;10'` outgrows the stock 8 x 576-word banks, so
    // every axis's model carries a grown geometry.
    let fitted = SweepPlan::builder()
        .benchmark("mnist")
        .expect("builtin benchmark")
        .topology(NetSpec::parse_topology("100;600;10").expect("valid topology"));
    let cases = [
        (
            fitted.clone().voltages(&[0.9]),
            "sram-voltage",
            "2f54d21c3fd12638860b068f86e76c6c",
        ),
        (
            fitted.clone().bit_error_rates(&[0.01]),
            "random-ber",
            "5baf014784d41954b7246730036c9115",
        ),
        (
            fitted.clone().clock_stress(&[0.5]),
            "timing-error",
            "5e3c3c84513d3d6e0138f3347fb4a5d0",
        ),
    ];
    for (builder, name, pinned) in cases {
        let plan = builder.build().expect("valid plan");
        assert_eq!(plan.model.name(), name);
        assert_eq!(
            model_fingerprint(&plan),
            pinned,
            "fitted {name} fingerprint moved"
        );
    }
}
