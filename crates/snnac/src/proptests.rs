//! Property-based tests over the accelerator simulator.

use crate::afu::Afu;
use crate::microcode::{MicroOp, Program};
use crate::regulator::VoltageRegulator;
use matic_fixed::Fx;
use matic_nn::{Activation, NetSpec};
use proptest::prelude::*;

proptest! {
    /// The PWL sigmoid is monotone, bounded to [0, 1], and within its
    /// error budget of the exact function everywhere.
    #[test]
    fn afu_sigmoid_properties(x in -20.0f64..20.0, dx in 0.0f64..2.0) {
        let afu = Afu::snnac();
        let f = afu.input_format();
        let clamp = |v: f64| v.clamp(f.min_value(), f.max_value());
        let y1 = afu.apply(Activation::Sigmoid, Fx::from_f64(clamp(x), f)).to_f64();
        let y2 = afu.apply(Activation::Sigmoid, Fx::from_f64(clamp(x + dx), f)).to_f64();
        prop_assert!((0.0..=1.0).contains(&y1));
        prop_assert!(y2 >= y1 - 1e-9, "non-monotone at {x}");
        let exact = 1.0 / (1.0 + (-clamp(x)).exp());
        prop_assert!((y1 - exact).abs() < 0.005);
    }

    /// ReLU through the AFU equals max(0, x) up to output quantization.
    #[test]
    fn afu_relu_property(x in -30.0f64..30.0) {
        let afu = Afu::snnac();
        let f = afu.input_format();
        let xc = x.clamp(f.min_value(), f.max_value());
        let y = afu.apply(Activation::Relu, Fx::from_f64(xc, f)).to_f64();
        let expect = xc.max(0.0).clamp(0.0, afu.output_format().max_value());
        prop_assert!((y - expect).abs() <= afu.output_format().lsb() + f.lsb());
    }

    /// Microcode covers every neuron of every layer exactly once.
    #[test]
    fn microcode_covers_all_neurons(
        l0 in 1usize..40, l1 in 1usize..40, l2 in 1usize..40, pes in 1usize..12,
    ) {
        let spec = NetSpec::classifier(&[l0, l1, l2]);
        let prog = Program::compile(&spec, pes);
        let mut current_layer = usize::MAX;
        let mut covered: Vec<Vec<bool>> = vec![vec![false; l1], vec![false; l2]];
        for op in prog.ops() {
            match *op {
                MicroOp::SetLayer { layer, .. } => current_layer = layer as usize,
                MicroOp::Macc { neuron_base, active } => {
                    let range = neuron_base as usize..(neuron_base + active) as usize;
                    for slot in &mut covered[current_layer][range] {
                        prop_assert!(!*slot, "neuron covered twice");
                        *slot = true;
                    }
                    prop_assert!(active as usize <= pes);
                }
                _ => {}
            }
        }
        prop_assert!(covered.iter().all(|l| l.iter().all(|&c| c)));
    }

    /// Regulator set-points always land on the 5 mV grid inside the
    /// 0.40–0.90 V range, as close to the request as the range allows.
    #[test]
    fn regulator_grid_invariants(mv in 0u32..2000) {
        let mut r = VoltageRegulator::snnac_sram_rail();
        let set = r.set_mv(mv);
        prop_assert_eq!(set % 5, 0);
        prop_assert!((400..=900).contains(&set));
        prop_assert!(set.abs_diff(mv.clamp(400, 900)) <= 2);
        prop_assert_eq!(r.volts(), set as f64 / 1000.0);
    }
}
