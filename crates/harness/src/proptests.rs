//! Property-based determinism tests over the sweep engine.
//!
//! These drive the whole pipeline — training, fault injection, batched
//! on-chip eval, the chunked intra-cell reduction — under randomly drawn
//! scheduling knobs (worker-thread count, eval chunk size) and require
//! the serialized report to stay **byte-identical** to a single-threaded,
//! one-sample-batch baseline. This is the load-bearing invariant behind
//! every golden file in the repo: no observable output may depend on how
//! the work was scheduled or how the samples were batched.
//!
//! Flipping the eval-chunk override mid-process is safe precisely
//! because of that invariant; it is restored to the default after every
//! case regardless.

use crate::cache::{decode_profile, encode_profile, ProfileKey};
use crate::engine::set_eval_chunk;
use crate::{
    assemble_sharded, run_sweep, run_unit_observed, shard_units, sweep_splits, ExecContext,
    SweepOutcome, SweepPlan, TrainingMode,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small but non-trivial plan: two voltage points (one overscaled, so
/// fault maps are non-empty), two training modes, a real benchmark.
fn tiny_plan(threads: usize) -> SweepPlan {
    SweepPlan::builder()
        .chips(1)
        .voltages(&[0.9, 0.52])
        .benchmark("inversek2j")
        .expect("builtin benchmark")
        .modes(&[TrainingMode::Naive, TrainingMode::Mat])
        .data_scale(0.05)
        .epoch_scale(0.1)
        .seed(13)
        .threads(threads)
        .build()
        .expect("plan is valid")
}

/// The report of `plan` with every NPU call a batch of one.
fn one_sample_batches(plan: &SweepPlan) -> String {
    set_eval_chunk(Some(1));
    let report = run_sweep(plan).to_json_pretty();
    set_eval_chunk(None);
    report
}

/// The reference report: one worker, one-sample batches.
fn baseline() -> &'static String {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| one_sample_batches(&tiny_plan(1)))
}

proptest! {
    // Full sweeps are expensive; a handful of drawn configurations per
    // run still covers the {threads x chunk} space over time.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Accumulation-order invariance, end to end: the full sweep report
    /// is byte-identical across worker-thread counts and eval chunk sizes
    /// (including chunk 1 and chunks larger than the eval set).
    #[test]
    fn sweep_report_invariant_under_scheduling_knobs(
        threads in 1usize..5,
        chunk_pick in 0usize..4,
        raw_chunk in 2usize..8,
    ) {
        let chunk = [1, raw_chunk, 64, 1024][chunk_pick];
        let expected = baseline().clone();
        set_eval_chunk(Some(chunk));
        let got = run_sweep(&tiny_plan(threads)).to_json_pretty();
        set_eval_chunk(None);
        prop_assert_eq!(
            got, expected,
            "report must not depend on threads={} chunk={}",
            threads, chunk
        );
    }
}

/// A conv-chain plan: the same invariance contract as [`tiny_plan`],
/// but through the extended-topology pipeline — whole-layer conv/pool
/// micro-ops lowered onto position × sample lanes, and the v4 report
/// schema.
fn conv_plan(threads: usize) -> SweepPlan {
    let topo =
        matic_nn::NetSpec::parse_topology("10x10x1;conv3x2;pool2;dense10").expect("valid chain");
    SweepPlan::builder()
        .chips(1)
        .voltages(&[0.9, 0.52])
        .benchmark("mnist")
        .expect("builtin benchmark")
        .topology(topo)
        .modes(&[TrainingMode::Naive, TrainingMode::Mat])
        .data_scale(0.05)
        .epoch_scale(0.1)
        .seed(17)
        .threads(threads)
        .build()
        .expect("plan is valid")
}

/// The conv reference report: one worker, one-sample batches.
fn conv_baseline() -> &'static String {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| one_sample_batches(&conv_plan(1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The extended-topology pipeline honors the same invariant as the
    /// dense one: a conv-chain sweep report is byte-identical across
    /// worker-thread counts and eval chunk sizes — the batch shape the
    /// conv kernel's position × sample lanes take.
    #[test]
    fn conv_report_invariant_under_threads_and_batch_shape(
        threads in 1usize..4,
        chunk_pick in 0usize..3,
    ) {
        let chunk = [1, 7, 1024][chunk_pick];
        let expected = baseline_conv_checked();
        set_eval_chunk(Some(chunk));
        let got = run_sweep(&conv_plan(threads)).to_json_pretty();
        set_eval_chunk(None);
        prop_assert_eq!(
            got, expected,
            "conv report must not depend on threads={} chunk={}",
            threads, chunk
        );
    }
}

/// The conv baseline, with its schema and scenario naming asserted once
/// (an extended topology must leave the v3 namespace and carry its tag).
fn baseline_conv_checked() -> String {
    let report = conv_baseline().clone();
    assert!(
        report.contains("\"matic.sweep-report/v4\""),
        "conv-chain sweeps must report under the v4 schema"
    );
    assert!(
        report.contains("mnist@conv3x2-pool2-dense10"),
        "the overridden scenario must carry its topology tag"
    );
    report
}

/// A plan with enough chips to shard unevenly (`shard-sweep`'s unit of
/// distribution is the chip index).
fn shard_plan() -> SweepPlan {
    SweepPlan::builder()
        .chips(5)
        .voltages(&[0.9, 0.52])
        .benchmark("inversek2j")
        .expect("builtin benchmark")
        .modes(&[TrainingMode::Naive, TrainingMode::Mat])
        .data_scale(0.05)
        .epoch_scale(0.1)
        .seed(29)
        .build()
        .expect("plan is valid")
}

/// The unsharded reference report for [`shard_plan`].
fn shard_baseline() -> &'static String {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| run_sweep(&shard_plan()).to_json_pretty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Distributed determinism: any contiguous partition of the chip
    /// seeds into 1..=8 shards — balanced, uneven, or single-chip —
    /// merges back to a report byte-identical to the unsharded sweep,
    /// regardless of the order shard results arrive in. This is the
    /// invariant the `matic shard-sweep` coordinator relies on.
    #[test]
    fn sharded_partition_merges_byte_identical(
        balanced_shards in 1usize..=8,
        use_balanced in 0usize..2,
        cut_mask in proptest::collection::vec(0usize..2, 4),
        rotate in 0usize..8,
    ) {
        let plan = shard_plan();
        let ranges = if use_balanced == 1 {
            crate::shard_chip_ranges(plan.chips, balanced_shards)
        } else {
            // Cut between chips i and i+1 wherever the mask is set:
            // every contiguous partition of 5 chips is reachable.
            let mut ranges = Vec::new();
            let mut start = 0;
            for (i, &cut) in cut_mask.iter().enumerate() {
                if cut == 1 {
                    ranges.push((start, i + 1));
                    start = i + 1;
                }
            }
            ranges.push((start, plan.chips));
            ranges
        };
        let splits = sweep_splits(&plan);
        let ctx = ExecContext::batch(None);
        let mut parts = Vec::new();
        for &range in &ranges {
            for (s, c) in shard_units(&plan, range) {
                parts.push(((s, c), run_unit_observed(&plan, s, c, &splits[s], &ctx)));
            }
        }
        // Arrival order of shard results must not matter.
        let k = rotate % parts.len().max(1);
        parts.rotate_left(k);
        let outcome = assemble_sharded(&plan, parts, false)
            .expect("shard ranges form an exact cover");
        let got = match outcome {
            SweepOutcome::Complete(run) => run.report.to_json_pretty(),
            SweepOutcome::Cancelled(_) => unreachable!("batch context cannot cancel"),
        };
        prop_assert_eq!(
            &got,
            shard_baseline(),
            "merge must be byte-exact for ranges {:?} rotated by {}",
            ranges, k
        );
    }
}

/// A profile entry of a small map holding stuck-at-1, stuck-at-0 and
/// flipping bits next to clean words, with the key it was stored under.
fn profile_entry() -> (ProfileKey, Vec<u8>) {
    let mut map = matic_sram::FaultMap::clean(0.5, 2, 24, 16);
    map.bank_mut(0).set_fault(3, 15, true);
    map.bank_mut(0).set_fault(9, 0, false);
    map.bank_mut(1).set_flip(23, 7);
    let key = ProfileKey::new(7, map.voltage, map.temp_c);
    let entry = encode_profile(&key, &map, map.fingerprint());
    assert_eq!(
        decode_profile(&entry, &key),
        Some((map.clone(), map.fingerprint())),
        "the undamaged entry must decode"
    );
    (key, entry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Profile-entry decoding is total: arbitrary bytes, and a valid
    /// entry with one byte changed, cut short or extended, all decode to
    /// `None` (a cache miss) and never panic.
    #[test]
    fn arbitrary_or_damaged_profile_entries_decode_to_none(
        noise in proptest::collection::vec(0u8..=255, 0..96),
        at in 0usize..usize::MAX,
        flip in 1u8..=255,
        damage in 0usize..4,
    ) {
        let (key, entry) = profile_entry();
        let at = at % entry.len();
        let bytes = match damage {
            0 => noise,
            1 => {
                let mut changed = entry;
                changed[at] ^= flip;
                changed
            }
            2 => entry[..at].to_vec(),
            _ => [entry.as_slice(), &noise, &[flip]].concat(),
        };
        prop_assert!(decode_profile(&bytes, &key).is_none());
    }
}
