//! Property-based tests over the NN substrate.

use crate::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Backprop agrees with central differences on random small nets.
    #[test]
    fn gradients_match_numerics(
        seed in 0u64..500,
        hidden in 2usize..6,
        input in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let spec = NetSpec::classifier(&[3, hidden, 2]);
        let net = Mlp::init(spec, seed);
        let s = Sample::new(input, vec![1.0, 0.0]);
        let analytic = net.sample_gradients(&s);
        let numeric = numerical_gradients(&net, &s, 1e-6);
        for l in 0..net.spec().depth() {
            for (a, n) in analytic.weights[l].as_slice().iter()
                .zip(numeric.weights[l].as_slice()) {
                prop_assert!((a - n).abs() < 1e-5);
            }
        }
    }

    /// Sigmoid-output networks always emit values in [0, 1].
    #[test]
    fn sigmoid_outputs_in_unit_interval(
        seed in 0u64..1000,
        input in proptest::collection::vec(-5.0f64..5.0, 4),
    ) {
        let net = Mlp::init(NetSpec::classifier(&[4, 6, 3]), seed);
        for y in net.forward(&input) {
            prop_assert!((0.0..=1.0).contains(&y));
        }
    }

    /// Loss is non-negative and zero iff prediction equals target (MSE).
    #[test]
    fn mse_loss_nonnegative(
        seed in 0u64..1000,
        input in proptest::collection::vec(-1.0f64..1.0, 2),
    ) {
        let net = Mlp::init(NetSpec::regressor(&[2, 3, 1]), seed);
        let y = net.forward(&input);
        let exact = Sample::new(input.clone(), y);
        prop_assert!(net.sample_loss(&exact) < 1e-20);
        let off = Sample::new(input, vec![123.0]);
        prop_assert!(net.sample_loss(&off) > 0.0);
    }

    /// A gradient step along the analytic gradient decreases the loss for
    /// a sufficiently small learning rate.
    #[test]
    fn gradient_step_descends(seed in 0u64..200) {
        let spec = NetSpec::classifier(&[3, 4, 2]);
        let mut net = Mlp::init(spec, seed);
        let s = Sample::new(vec![0.3, -0.2, 0.8], vec![0.0, 1.0]);
        let before = net.sample_loss(&s);
        let grads = net.sample_gradients(&s);
        let mut momentum = MomentumState::zeros_like(&net);
        net.apply_update(&grads, 1e-3, 0.0, &mut momentum);
        let after = net.sample_loss(&s);
        prop_assert!(after <= before + 1e-12, "{before} -> {after}");
    }

    /// map_weights is a pure elementwise transform: applying identity
    /// preserves the network.
    #[test]
    fn map_weights_identity(seed in 0u64..1000) {
        let net = Mlp::init(NetSpec::classifier(&[2, 3, 2]), seed);
        prop_assert_eq!(net.map_weights(|w| w), net);
    }

    /// The TE-Drop mask is idempotent: the verdict for any coordinate is
    /// a pure function of (seed, p, layer, row, col), stable across
    /// repeated queries and across fresh specs with identical fields.
    #[test]
    fn drop_mask_is_idempotent(
        seed in 0u64..1000,
        p in 0.0f64..=1.0,
        layer in 0usize..4,
        row in 0usize..128,
        col in 0usize..512,
    ) {
        let a = kernel::MacDropSpec::new(seed, p);
        let b = kernel::MacDropSpec::new(seed, p);
        let first = a.dropped(layer, row, col);
        prop_assert_eq!(a.dropped(layer, row, col), first);
        prop_assert_eq!(b.dropped(layer, row, col), first);
    }

    /// The TE-Drop mask is monotone in drop probability at a fixed seed:
    /// every MAC dropped at the lower probability is also dropped at the
    /// higher one (clock-period stress only ever fails *more* paths).
    #[test]
    fn drop_mask_is_monotone_in_stress(
        seed in 0u64..500,
        p_pair in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let (a, b) = p_pair;
        let (p_lo, p_hi) = if a <= b { (a, b) } else { (b, a) };
        let lo = kernel::MacDropSpec::new(seed, p_lo);
        let hi = kernel::MacDropSpec::new(seed, p_hi);
        for layer in 0..2 {
            for row in 0..16 {
                for col in 0..16 {
                    if lo.dropped(layer, row, col) {
                        prop_assert!(hi.dropped(layer, row, col));
                    }
                }
            }
        }
    }

    /// Dropped-kernel variants agree with the plain kernels when nothing
    /// drops, for every seed.
    #[test]
    fn dropped_kernels_degenerate_to_plain(seed in 0u64..500, batch in 1usize..4) {
        let never = kernel::MacDropSpec::new(seed, 0.0);
        let w: Vec<i32> = (0..60).map(|i| (i * 37) % 201 - 100).collect();
        let x: Vec<i32> = (0..20 * batch as i32).map(|i| (i * 91) % 201 - 100).collect();
        let mut plain = vec![0i64; 3 * batch];
        let mut dropped = vec![0i64; 3 * batch];
        kernel::fx_matmul(&w, &x, batch, &mut plain);
        kernel::fx_matmul_dropped(&w, &x, batch, &mut dropped, &never, 1, 7);
        prop_assert_eq!(plain, dropped);
    }

    /// The kernel and the sequential `i64` sum agree at every tail
    /// residue class: for each base length multiple of eight and each
    /// residue 0..8, a one-row, one-lane product equals the sequential
    /// dot product on random data.
    #[test]
    fn dot_tiers_agree_at_every_tail_residue(
        base in 0usize..12,
        values in proptest::collection::vec(-32768i32..32768, 96 + 8),
    ) {
        for residue in 0..8usize {
            let n = base * 8 + residue;
            let (w, x) = (&values[..n], &values[8..8 + n]);
            let mut out = [0i64];
            kernel::fx_matmul(w, x, 1, &mut out);
            prop_assert_eq!(&out[..], &sequential(w, x, 1, 1, None)[..]);
        }
    }

    /// The batched kernel is batch-invariant: for random shapes, every
    /// lane of the batched product is the sequential sum of its column.
    #[test]
    fn matmul_tiers_agree_for_random_shapes(
        rows in 1usize..10,
        cols in 0usize..24,
        batch in 1usize..34,
        seed in 0u64..1000,
    ) {
        let val = |i: u64| ((seed.wrapping_mul(31).wrapping_add(i) * 2654435761) % 65537) as i32 - 32768;
        let w: Vec<i32> = (0..rows * cols).map(|i| val(i as u64)).collect();
        let x: Vec<i32> = (0..cols * batch).map(|i| val(1000 + i as u64)).collect();
        let mut out = vec![0i64; rows * batch];
        kernel::fx_matmul(&w, &x, batch, &mut out);
        prop_assert_eq!(out, sequential(&w, &x, rows, batch, None));
    }

    /// The dropped kernel computes the exact masked sum: every lane
    /// agrees with the sequential masked sum for random drop rates, tail
    /// lengths and batch sizes.
    #[test]
    fn dropped_tiers_agree(
        n in 0usize..70,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
        batch in 1usize..10,
    ) {
        let drops = kernel::MacDropSpec::new(seed, p);
        let w: Vec<i32> = (0..2 * n).map(|i| ((i * 7919) % 65537) as i32 - 32768).collect();
        let x: Vec<i32> = (0..n * batch).map(|i| ((i * 104729) % 65537) as i32 - 32768).collect();
        let mut out = vec![0i64; 2 * batch];
        kernel::fx_matmul_dropped(&w, &x, batch, &mut out, &drops, 1, 3);
        prop_assert_eq!(out, sequential(&w, &x, 2, batch, Some((&drops, 1, 3))));
    }
}

proptest! {
    // Parsing is cheap: fuzz the DSL broadly.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The topology DSL never panics: random token soup over its
    /// alphabet — separators, `x`, the stage keywords and integers from 0
    /// up to `usize::MAX` — always parses to `Ok` or a structured `Err`,
    /// and every accepted spec is self-consistent.
    #[test]
    fn parse_topology_never_panics(tokens in proptest::collection::vec((0usize..10, 0usize..12), 1..14)) {
        let dsl: String = tokens.iter().map(|&(kind, n)| dsl_token(kind, n)).collect();
        if let Ok(spec) = NetSpec::parse_topology(&dsl) {
            assert_consistent(&spec, &dsl);
        }
    }

    /// Well-formed stage sequences with extreme sizes: the same
    /// contract where the grammar is satisfied and only the arithmetic
    /// can fail.
    #[test]
    fn parse_topology_handles_extreme_sizes(
        input in (0usize..2, (0usize..12, 0usize..12, 0usize..12)),
        stages in proptest::collection::vec((0usize..3, 0usize..12, 0usize..12), 1..5),
    ) {
        let (image, (h, w, c)) = input;
        let mut dsl = if image == 1 {
            format!("{}x{}x{}", dsl_int(h), dsl_int(w), dsl_int(c))
        } else {
            dsl_int(h)
        };
        for (kind, a, b) in stages {
            dsl += &match kind {
                0 => format!(";dense{}", dsl_int(a)),
                1 => format!(";conv{}x{}", dsl_int(a), dsl_int(b)),
                _ => format!(";pool{}", dsl_int(a)),
            };
        }
        if let Ok(spec) = NetSpec::parse_topology(&dsl) {
            assert_consistent(&spec, &dsl);
        }
    }
}

/// Integers the topology fuzzers draw from: the degenerate 0 and 1,
/// ordinary sizes, and values whose products overflow `usize`.
fn dsl_int(n: usize) -> String {
    const INTS: [usize; 12] = [
        0,
        1,
        2,
        3,
        4,
        10,
        1 << 31,
        1 << 32,
        1 << 58,
        1 << 61,
        usize::MAX - 1,
        usize::MAX,
    ];
    INTS[n % INTS.len()].to_string()
}

/// One token of the topology DSL's alphabet.
fn dsl_token(kind: usize, n: usize) -> String {
    match kind {
        0 | 1 => ";".into(),
        2 => ",".into(),
        3 => "x".into(),
        4 => "conv".into(),
        5 => "pool".into(),
        6 => "dense".into(),
        _ => dsl_int(n),
    }
}

/// An accepted spec's stage widths, resolved stages, weight extents and
/// parameter count agree with each other.
fn assert_consistent(spec: &NetSpec, dsl: &str) {
    let depth = spec.depth();
    let extents = spec.param_extents();
    assert_eq!(extents.len(), depth, "{dsl}");
    assert!(spec.layers.iter().all(|&w| w > 0), "{dsl}");
    let mut total = 0usize;
    for (l, &(rows, cols)) in extents.iter().enumerate() {
        let stage = spec.layer_spec(l);
        assert_eq!(stage.in_width(), spec.layers[l], "{dsl} stage {l}");
        assert_eq!(stage.out_width(), spec.layers[l + 1], "{dsl} stage {l}");
        assert_eq!(stage.weight_extent(), (rows, cols), "{dsl} stage {l}");
        total = cols
            .checked_add(1)
            .and_then(|c| rows.checked_mul(c))
            .and_then(|n| total.checked_add(n))
            .unwrap_or_else(|| panic!("{dsl}: parameter count overflows"));
    }
    assert_eq!(spec.param_count(), total, "{dsl}");
}

/// The sequential reference the kernels must equal: one `i64` sum per
/// (row, lane) of a `rows`-row product, columns in order, skipping the MACs `drops` flags at
/// `(layer, row_base + row, col)`.
fn sequential(
    w: &[i32],
    x: &[i32],
    rows: usize,
    batch: usize,
    drops: Option<(&kernel::MacDropSpec, usize, usize)>,
) -> Vec<i64> {
    let cols = x.len() / batch;
    let mut out = Vec::with_capacity(rows * batch);
    for r in 0..rows {
        for s in 0..batch {
            let mut sum = 0i64;
            for c in 0..cols {
                if !drops.is_some_and(|(d, layer, base)| d.dropped(layer, base + r, c)) {
                    sum += w[r * cols + c] as i64 * x[c * batch + s] as i64;
                }
            }
            out.push(sum);
        }
    }
    out
}
