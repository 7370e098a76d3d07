//! Microcode: the statically compiled control program of the NPU.
//!
//! "The operation of the PEs is coordinated by a lightweight control core
//! that executes statically compiled microcode. … the computation of wide
//! DNN layers is time-multiplexed onto the PEs in the systolic ring" (§IV).
//!
//! The compiler turns a network topology into a linear program of
//! [`MicroOp`]s; the sequencer in [`npu`](crate::npu) executes them with
//! cycle accounting.

use matic_nn::{Activation, NetSpec};
use serde::{Deserialize, Serialize};

/// One microcode operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MicroOp {
    /// Latch layer parameters into the sequencer.
    SetLayer {
        /// Parameterized layer index.
        layer: u16,
        /// Input width.
        fan_in: u16,
        /// Output width.
        fan_out: u16,
        /// Activation routed through the AFU.
        activation: Activation,
    },
    /// Stream the current input vector into the PE ring's input FIFO.
    LoadInput,
    /// One time-multiplexed group: PEs `0..active` each compute one
    /// neuron's full dot product from their private weight banks.
    Macc {
        /// First neuron index of the group.
        neuron_base: u16,
        /// Number of active PEs in this group (≤ PE count).
        active: u16,
    },
    /// Route the group's accumulators through the AFU into the output
    /// buffer.
    Activate,
    /// Commit the output buffer as the next layer's input (or the final
    /// network output).
    StoreOutput,
    /// A whole convolutional layer: each filter behaves like one neuron
    /// whose fan-in weights are its `kernel²·in_c` taps, swept over every
    /// output position. One op covers the layer (load, MACs, AFU, store);
    /// filters time-multiplex onto the PE ring like dense neurons do.
    Conv {
        /// Parameterized layer index.
        layer: u16,
        /// Input height.
        in_h: u16,
        /// Input width.
        in_w: u16,
        /// Input channels.
        in_c: u16,
        /// Filters (output channels).
        filters: u16,
        /// Square kernel side.
        kernel: u16,
        /// Activation routed through the AFU.
        activation: Activation,
    },
    /// A whole non-overlapping max-pooling layer. Raw fixed-point max is
    /// value max (two's-complement words decode monotonically), so the
    /// comparator tree needs no AFU pass and touches no weight SRAM.
    Pool {
        /// Input height.
        in_h: u16,
        /// Input width.
        in_w: u16,
        /// Channels.
        channels: u16,
        /// Square window side.
        window: u16,
    },
}

/// A compiled microcode program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    ops: Vec<MicroOp>,
}

impl Program {
    /// Compiles a network topology for a ring of `pes` processing
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if `pes == 0` or any layer exceeds 65 535 neurons.
    pub fn compile(spec: &NetSpec, pes: usize) -> Self {
        assert!(pes > 0, "need at least one PE");
        let mut ops = Vec::new();
        for layer in 0..spec.depth() {
            match spec.layer_spec(layer) {
                matic_nn::LayerSpec::Dense { inputs, units, act } => {
                    let (fan_in, fan_out) = (inputs, units);
                    assert!(fan_in <= u16::MAX as usize && fan_out <= u16::MAX as usize);
                    ops.push(MicroOp::SetLayer {
                        layer: layer as u16,
                        fan_in: fan_in as u16,
                        fan_out: fan_out as u16,
                        activation: act,
                    });
                    ops.push(MicroOp::LoadInput);
                    let mut neuron = 0;
                    while neuron < fan_out {
                        let active = pes.min(fan_out - neuron);
                        ops.push(MicroOp::Macc {
                            neuron_base: neuron as u16,
                            active: active as u16,
                        });
                        ops.push(MicroOp::Activate);
                        neuron += active;
                    }
                    ops.push(MicroOp::StoreOutput);
                }
                matic_nn::LayerSpec::Conv2d {
                    in_h,
                    in_w,
                    in_c,
                    filters,
                    kernel,
                    act,
                } => {
                    assert!(
                        in_h <= u16::MAX as usize
                            && in_w <= u16::MAX as usize
                            && in_c <= u16::MAX as usize
                            && filters <= u16::MAX as usize
                            && kernel <= u16::MAX as usize
                    );
                    ops.push(MicroOp::Conv {
                        layer: layer as u16,
                        in_h: in_h as u16,
                        in_w: in_w as u16,
                        in_c: in_c as u16,
                        filters: filters as u16,
                        kernel: kernel as u16,
                        activation: act,
                    });
                }
                matic_nn::LayerSpec::MaxPool {
                    in_h,
                    in_w,
                    channels,
                    window,
                } => {
                    assert!(
                        in_h <= u16::MAX as usize
                            && in_w <= u16::MAX as usize
                            && channels <= u16::MAX as usize
                            && window <= u16::MAX as usize
                    );
                    ops.push(MicroOp::Pool {
                        in_h: in_h as u16,
                        in_w: in_w as u16,
                        channels: channels as u16,
                        window: window as u16,
                    });
                }
            }
        }
        Program { ops }
    }

    /// The operation stream.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of `Macc` groups (a proxy for time-multiplexing depth).
    pub fn macc_groups(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, MicroOp::Macc { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_layer_uses_one_group() {
        // 2-16-2 on 8 PEs: hidden needs 2 groups, output 1.
        let spec = NetSpec::regressor(&[2, 16, 2]);
        let prog = Program::compile(&spec, 8);
        assert_eq!(prog.macc_groups(), 2 + 1);
    }

    #[test]
    fn wide_layer_time_multiplexes() {
        // The paper's MNIST topology: 32 hidden = 4 groups, 10 out = 2.
        let spec = NetSpec::classifier(&[100, 32, 10]);
        let prog = Program::compile(&spec, 8);
        assert_eq!(prog.macc_groups(), 4 + 2);
    }

    #[test]
    fn last_group_activates_remainder() {
        let spec = NetSpec::classifier(&[4, 10, 1]);
        let prog = Program::compile(&spec, 8);
        let maccs: Vec<_> = prog
            .ops()
            .iter()
            .filter_map(|op| match op {
                MicroOp::Macc {
                    neuron_base,
                    active,
                } => Some((*neuron_base, *active)),
                _ => None,
            })
            .collect();
        assert_eq!(maccs, vec![(0, 8), (8, 2), (0, 1)]);
    }

    #[test]
    fn every_layer_is_bracketed() {
        let spec = NetSpec::classifier(&[3, 5, 2]);
        let prog = Program::compile(&spec, 4);
        let ops = prog.ops();
        assert!(matches!(ops[0], MicroOp::SetLayer { layer: 0, .. }));
        assert!(matches!(ops[1], MicroOp::LoadInput));
        assert!(matches!(ops.last(), Some(MicroOp::StoreOutput)));
    }

    #[test]
    fn single_pe_ring_works() {
        let spec = NetSpec::classifier(&[2, 3, 1]);
        let prog = Program::compile(&spec, 1);
        assert_eq!(prog.macc_groups(), 3 + 1);
    }

    #[test]
    fn conv_chains_compile_to_whole_layer_ops() {
        let spec = NetSpec::parse_topology("10x10x1;conv3x4;pool2;dense10").unwrap();
        let prog = Program::compile(&spec, 8);
        assert!(matches!(
            prog.ops()[0],
            MicroOp::Conv {
                layer: 0,
                in_h: 10,
                filters: 4,
                kernel: 3,
                ..
            }
        ));
        assert!(matches!(
            prog.ops()[1],
            MicroOp::Pool {
                in_h: 8,
                window: 2,
                ..
            }
        ));
        // The trailing dense layer keeps the classic bracketed sequence.
        assert!(matches!(prog.ops()[2], MicroOp::SetLayer { layer: 2, .. }));
        assert!(matches!(prog.ops().last(), Some(MicroOp::StoreOutput)));
    }
}
