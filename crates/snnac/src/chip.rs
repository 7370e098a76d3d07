//! The full SNNAC test chip: NPU + weight SRAMs + regulator + runtime µC +
//! energy accounting.

use crate::microcode::Program;
use crate::msp430::{assemble, canary_map, canary_program, Mmio, Msp430};
use crate::npu::{NpuStats, Snnac};
use crate::regulator::VoltageRegulator;
use matic_core::{CanarySet, DeployedModel, DeploymentFlow, FaultedWeights, TrainedModel};
use matic_energy::{EnergyModel, OperatingPoint};
use matic_fixed::QFormat;
use matic_nn::{NetSpec, Sample};
use matic_sram::{profile_array, ArrayConfig, FaultMap, SramArray};
use serde::{Deserialize, Serialize};

/// Static configuration of a synthesized chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Weight-memory geometry (8 × 576 × 16 bit = 9 KB on SNNAC).
    pub array: ArrayConfig,
    /// Weight word format.
    pub weight_fmt: QFormat,
    /// Logic-rail voltage at power-on.
    pub v_logic: f64,
    /// Nominal clock ceiling, Hz (250 MHz on SNNAC).
    pub f_max: f64,
}

impl ChipConfig {
    /// The fabricated SNNAC configuration.
    pub fn snnac() -> Self {
        ChipConfig {
            array: ArrayConfig::snnac(),
            weight_fmt: QFormat::snnac_weight(),
            v_logic: 0.9,
            f_max: 250.0e6,
        }
    }

    /// The SNNAC rails and clock with an arbitrary weight-memory geometry
    /// and weight format — the shape a pluggable fault model dictates
    /// (`FaultModel::geometry` / `FaultModel::weight_format`). With the
    /// default SNNAC geometry and weight format this is exactly
    /// [`ChipConfig::snnac`].
    pub fn with_geometry(array: ArrayConfig, weight_fmt: QFormat) -> Self {
        ChipConfig {
            array,
            weight_fmt,
            ..Self::snnac()
        }
    }

    /// Stable 128-bit content fingerprint of the configuration: array
    /// geometry, the `Vmin` distribution the silicon is synthesized from,
    /// weight format and rails. Together with a synthesis seed this
    /// identifies a die exactly, which is how the sweep cache knows a
    /// cached cell was measured on the same (virtual) silicon.
    pub fn fingerprint(&self) -> u128 {
        let mut f = matic_sram::fingerprint::Fingerprint::new();
        f.write_str("matic.chip-config/v1");
        f.write_u128(matic_sram::fingerprint::fingerprint_of(self));
        f.finish()
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::snnac()
    }
}

/// Per-inference statistics including the energy model's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InferenceStats {
    /// NPU cycle/traffic counters.
    pub npu: NpuStats,
    /// Clock frequency used, Hz.
    pub freq_hz: f64,
    /// Logic-domain energy, pJ.
    pub logic_pj: f64,
    /// Weight-SRAM energy, pJ.
    pub sram_pj: f64,
    /// Total energy, pJ.
    pub energy_pj: f64,
}

/// A network deployed onto a chip: the MATIC deployment plus compiled
/// microcode and the NPU datapath parameterization.
#[derive(Debug, Clone)]
pub struct DeployedNetwork {
    model: DeployedModel,
    program: Program,
    npu: Snnac,
}

impl DeployedNetwork {
    /// The MATIC deployment (trained model, fault map, controller).
    pub fn deployment(&self) -> &DeployedModel {
        &self.model
    }

    /// Mutable deployment access (the runtime controller holds state).
    pub fn deployment_mut(&mut self) -> &mut DeployedModel {
        &mut self.model
    }

    /// The compiled microcode.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The NPU datapath parameterization this deployment was compiled for.
    pub fn npu(&self) -> &Snnac {
        &self.npu
    }
}

/// One synthesized SNNAC chip instance (process variation frozen by the
/// synthesis seed, like one die from the shuttle run).
#[derive(Debug, Clone)]
pub struct Chip {
    cfg: ChipConfig,
    array: SramArray,
    regulator: VoltageRegulator,
    energy: EnergyModel,
    v_logic: f64,
    temp_c: f64,
}

impl Chip {
    /// Synthesizes a chip: draws every bit-cell's variation from `seed`.
    pub fn synthesize(cfg: ChipConfig, seed: u64) -> Self {
        let array = SramArray::synthesize(&cfg.array, seed);
        Chip {
            v_logic: cfg.v_logic,
            cfg,
            array,
            regulator: VoltageRegulator::snnac_sram_rail(),
            energy: EnergyModel::snnac(),
            temp_c: 25.0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.cfg
    }

    /// The weight-memory array.
    pub fn array(&self) -> &SramArray {
        &self.array
    }

    /// Mutable array access (profiling, direct experiments).
    pub fn array_mut(&mut self) -> &mut SramArray {
        &mut self.array
    }

    /// The energy model.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Current SRAM rail voltage.
    pub fn sram_voltage(&self) -> f64 {
        self.regulator.volts()
    }

    /// Current logic rail voltage.
    pub fn logic_voltage(&self) -> f64 {
        self.v_logic
    }

    /// Die temperature, °C.
    pub fn temperature(&self) -> f64 {
        self.temp_c
    }

    /// Programs the SRAM rail (snapped to the regulator LSB).
    pub fn set_sram_voltage(&mut self, volts: f64) {
        self.regulator.set_mv((volts * 1000.0).round() as u32);
        self.array
            .set_operating_point(self.regulator.volts(), self.temp_c);
    }

    /// Sets the logic rail (bounded below by the delay model's threshold).
    pub fn set_logic_voltage(&mut self, volts: f64) {
        self.v_logic = volts;
    }

    /// Sets the ambient/die temperature.
    pub fn set_temperature(&mut self, temp_c: f64) {
        self.temp_c = temp_c;
        self.array
            .set_operating_point(self.regulator.volts(), temp_c);
    }

    /// The clock the chip runs at: the delay model's maximum for the logic
    /// rail, capped at the design ceiling.
    pub fn frequency(&self) -> f64 {
        self.energy
            .delay()
            .frequency(self.v_logic)
            .min(self.cfg.f_max)
    }

    /// The chip's current operating point.
    pub fn operating_point(&self) -> OperatingPoint {
        OperatingPoint {
            v_logic: self.v_logic,
            v_sram: self.regulator.volts(),
            freq_hz: self.frequency(),
        }
    }

    /// Profiles the weight SRAM read-stability fault map at `voltage`
    /// (destructive; part of the compile-time flow).
    pub fn profile(&mut self, voltage: f64) -> FaultMap {
        let temp = self.temp_c;
        let (map, _) = profile_array(self.array.banks_mut(), voltage, temp);
        self.array.set_operating_point(self.regulator.volts(), temp);
        map
    }

    /// Runs the full MATIC deployment flow (Fig. 3) on this chip and
    /// compiles the network's microcode. Leaves the chip loaded, armed and
    /// at a safe SRAM voltage.
    pub fn deploy(
        &mut self,
        flow: &DeploymentFlow,
        spec: &NetSpec,
        train_data: &[Sample],
    ) -> DeployedNetwork {
        self.deploy_with(flow, spec, |faults| {
            flow.trainer(spec).train(train_data, faults)
        })
    }

    /// [`Chip::deploy`] with the pure training step supplied by the caller
    /// (see [`DeploymentFlow::deploy_with`]); every other step of the flow
    /// runs on this chip.
    pub fn deploy_with(
        &mut self,
        flow: &DeploymentFlow,
        spec: &NetSpec,
        train: impl FnOnce(&FaultMap) -> TrainedModel,
    ) -> DeployedNetwork {
        let model = flow.deploy_with(&mut self.array, train);
        self.regulator
            .set_mv((flow.controller.v_safe * 1000.0).round() as u32);
        let npu = Snnac::snnac(model.model().format());
        let program = Program::compile(spec, npu.pe_count());
        DeployedNetwork {
            model,
            program,
            npu,
        }
    }

    /// The calibrated per-cycle energy costs at the chip's **current**
    /// operating point: `(logic, weight-SRAM)` pJ/cycle. The single
    /// source of energy truth on the chip — [`Chip::infer`],
    /// [`Chip::account_inference`] and the sweep harness's per-cell
    /// energy records all book through this.
    pub fn energy_per_cycle(&self) -> (f64, f64) {
        let op = self.operating_point();
        (
            self.energy.logic_breakdown(op).total_pj(),
            self.energy.sram_breakdown(op).total_pj(),
        )
    }

    /// Books the energy of an inference whose NPU counters are `npu`,
    /// at the chip's **current** operating point:
    /// [`energy_per_cycle`](Chip::energy_per_cycle) times the measured
    /// cycles. Pure accounting — nothing on the chip runs or changes.
    /// This is how the sweep harness converts cycle statistics gathered
    /// at one rail setting into pJ/inference records.
    pub fn account_inference(&self, npu: NpuStats) -> InferenceStats {
        let (logic_cy, sram_cy) = self.energy_per_cycle();
        let logic = logic_cy * npu.cycles as f64;
        let sram = sram_cy * npu.cycles as f64;
        InferenceStats {
            npu,
            freq_hz: self.frequency(),
            logic_pj: logic,
            sram_pj: sram,
            energy_pj: logic + sram,
        }
    }

    /// Runs one inference on the NPU at the chip's current operating
    /// point, with full energy accounting.
    pub fn infer(&mut self, net: &DeployedNetwork, input: &[f64]) -> (Vec<f64>, InferenceStats) {
        let (output, npu_stats) = net.npu.execute(
            &net.program,
            net.model.model().layout(),
            &mut self.array,
            input,
        );
        (output, self.account_inference(npu_stats))
    }

    /// Composes the array's current post-disturb contents into the dense
    /// [`FaultedWeights`] artifact for `net` at the chip's current
    /// operating point — the same physical reads [`Chip::infer`] issues
    /// internally. Read-disturb flips are deterministic and idempotent
    /// (a marginal cell settles to its preferred state on the first read
    /// at this voltage), so composing once and evaluating many inputs
    /// with [`Chip::infer_batch`] is bit-identical to repeated
    /// per-sample [`Chip::infer`] calls.
    pub fn compose(&mut self, net: &DeployedNetwork) -> FaultedWeights {
        FaultedWeights::from_array(
            net.model.model().layout(),
            net.npu.weight_format(),
            &mut self.array,
        )
    }

    /// Batched [`Chip::infer`]: composes the weights once and runs every
    /// input through the NPU's batched kernel. Outputs are bit-identical
    /// to a per-sample `infer` loop; the returned stats are the
    /// per-inference counters every sample shares (the NPU schedule is
    /// data-independent), booked at the current operating point.
    pub fn infer_batch(
        &mut self,
        net: &DeployedNetwork,
        inputs: &[&[f64]],
    ) -> (Vec<Vec<f64>>, InferenceStats) {
        let weights = self.compose(net);
        let (outputs, npu_stats) = net.npu.execute_batch(&net.program, &weights, inputs);
        (outputs, self.account_inference(npu_stats))
    }

    /// Polls the in-situ canaries with the pure-Rust controller
    /// (fast path) and syncs the regulator to the settled voltage.
    pub fn poll_canaries(&mut self, net: &mut DeployedNetwork) -> f64 {
        net.model.controller_mut().poll(&mut self.array);
        let v = net.model.controller().voltage();
        self.regulator.set_mv((v * 1000.0).round() as u32);
        self.array
            .set_operating_point(self.regulator.volts(), self.temp_c);
        self.regulator.volts()
    }

    /// Runs Algorithm 1 **as machine code on the integrated MSP430-style
    /// µC**, with the regulator and canary logic memory-mapped into its
    /// address space. Returns the settled voltage.
    ///
    /// # Panics
    ///
    /// Panics if the control routine fails to assemble or exceeds its step
    /// budget (neither can happen with the shipped program).
    pub fn poll_canaries_via_uc(&mut self, net: &mut DeployedNetwork) -> f64 {
        let start_mv = self.regulator.millivolts() as u16;
        let step_mv = self.regulator.lsb_mv() as u16;
        let src = canary_program(step_mv, 900, 400, start_mv);
        let program = assemble(&src).expect("canary routine assembles");
        let mut cpu = Msp430::new(256);
        let canaries = net.model.controller().canaries().clone();
        let mut bus = CanaryBus {
            array: &mut self.array,
            regulator: &mut self.regulator,
            canaries: &canaries,
            temp_c: self.temp_c,
            status: 0,
            result_mv: 0,
        };
        cpu.run(&program, &mut bus, 100_000)
            .expect("canary routine halts");
        let settled = bus.result_mv;
        self.regulator.set_mv(settled as u32);
        self.array
            .set_operating_point(self.regulator.volts(), self.temp_c);
        self.regulator.volts()
    }
}

/// Memory-mapped bridge between the µC and the chip's voltage/canary
/// machinery.
struct CanaryBus<'a> {
    array: &'a mut SramArray,
    regulator: &'a mut VoltageRegulator,
    canaries: &'a CanarySet,
    temp_c: f64,
    status: u16,
    result_mv: u16,
}

impl Mmio for CanaryBus<'_> {
    fn read(&mut self, addr: u16) -> u16 {
        match addr {
            canary_map::VREG_MV => self.regulator.millivolts() as u16,
            canary_map::CANARY_STATUS => self.status,
            canary_map::RESULT_MV => self.result_mv,
            _ => 0,
        }
    }

    fn write(&mut self, addr: u16, value: u16) {
        match addr {
            canary_map::VREG_MV => {
                self.regulator.set_mv(value as u32);
                self.array
                    .set_operating_point(self.regulator.volts(), self.temp_c);
            }
            canary_map::CANARY_CTRL => match value {
                1 => self.canaries.restore(self.array),
                2 => self.status = self.canaries.any_failed(self.array) as u16,
                _ => {}
            },
            canary_map::RESULT_MV => self.result_mv = value,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_core::MatConfig;
    use matic_nn::mean_squared_error;

    fn toy_data() -> Vec<Sample> {
        (0..48)
            .map(|i| {
                let x = i as f64 / 48.0;
                Sample::new(vec![x], vec![0.4 * x + 0.2])
            })
            .collect()
    }

    fn quick_flow(v: f64) -> DeploymentFlow {
        DeploymentFlow {
            mat: MatConfig::quick(),
            ..DeploymentFlow::new(v)
        }
    }

    fn small_chip(seed: u64) -> Chip {
        let mut cfg = ChipConfig::snnac();
        cfg.array.banks = 4;
        cfg.array.bank.words = 128;
        Chip::synthesize(cfg, seed)
    }

    #[test]
    fn deploy_and_infer_end_to_end() {
        let mut chip = small_chip(1);
        let spec = NetSpec::regressor(&[1, 4, 1]);
        let net = chip.deploy(&quick_flow(0.52), &spec, &toy_data());
        chip.set_sram_voltage(0.52);
        let (y, stats) = chip.infer(&net, &[0.5]);
        assert!((y[0] - 0.4).abs() < 0.05, "output {y:?}");
        assert!(stats.npu.cycles > 0);
        assert!(stats.energy_pj > 0.0);
        assert!((stats.energy_pj - (stats.logic_pj + stats.sram_pj)).abs() < 1e-9);
    }

    #[test]
    fn account_inference_matches_infer_and_scales_with_voltage() {
        let mut chip = small_chip(1);
        let spec = NetSpec::regressor(&[1, 4, 1]);
        let net = chip.deploy(&quick_flow(0.52), &spec, &toy_data());
        chip.set_sram_voltage(0.52);
        let (_, stats) = chip.infer(&net, &[0.5]);
        let booked = chip.account_inference(stats.npu);
        assert_eq!(booked, stats, "accounting must match the live path");
        // Re-booking the same cycles at a higher SRAM rail costs more.
        chip.set_sram_voltage(0.9);
        let at_nominal = chip.account_inference(stats.npu);
        assert!(at_nominal.sram_pj > booked.sram_pj);
        assert_eq!(at_nominal.npu, stats.npu);
    }

    #[test]
    fn npu_inference_matches_read_back_network() {
        let mut chip = small_chip(2);
        let spec = NetSpec::regressor(&[1, 4, 1]);
        let net = chip.deploy(&quick_flow(0.52), &spec, &toy_data());
        chip.set_sram_voltage(0.52);
        // Evaluate through the NPU and through the read-back float view;
        // both consume identical weight words, so errors are just AFU +
        // activation quantization.
        let mut npu_err = 0.0;
        for s in toy_data() {
            let (y, _) = chip.infer(&net, &s.input);
            npu_err += (y[0] - s.target[0]).powi(2);
        }
        npu_err /= toy_data().len() as f64;
        let float_view = net.deployment().read_back(chip.array_mut());
        let float_err = mean_squared_error(&float_view, &toy_data());
        assert!(
            (npu_err - float_err).abs() < 0.01,
            "npu {npu_err} vs float view {float_err}"
        );
    }

    #[test]
    fn infer_batch_matches_per_sample_infer_at_overscaled_voltage() {
        let spec = NetSpec::regressor(&[1, 4, 1]);
        // Two identical dice: one evaluated sample-by-sample (each infer
        // re-reads the array, settling read-disturb flips), one through
        // compose-once + batched execution. Idempotent disturb makes the
        // two bit-identical.
        let mut chip_a = small_chip(11);
        let net_a = chip_a.deploy(&quick_flow(0.50), &spec, &toy_data());
        chip_a.set_sram_voltage(0.48);
        let mut chip_b = small_chip(11);
        let net_b = chip_b.deploy(&quick_flow(0.50), &spec, &toy_data());
        chip_b.set_sram_voltage(0.48);

        let inputs: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 9.0]).collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let (batched, bstats) = chip_b.infer_batch(&net_b, &refs);
        assert_eq!(batched.len(), refs.len());
        for (input, out) in refs.iter().zip(&batched) {
            let (single, sstats) = chip_a.infer(&net_a, input);
            assert_eq!(out, &single);
            assert_eq!(bstats, sstats, "stats are per-inference");
        }
    }

    #[test]
    fn uc_and_rust_controllers_settle_identically() {
        let spec = NetSpec::regressor(&[1, 4, 1]);
        // Two identical dice (same seed) — one polled by the Rust
        // controller, one by the MSP430 routine.
        let mut chip_a = small_chip(7);
        let mut net_a = chip_a.deploy(&quick_flow(0.50), &spec, &toy_data());
        let v_rust = chip_a.poll_canaries(&mut net_a);

        let mut chip_b = small_chip(7);
        let mut net_b = chip_b.deploy(&quick_flow(0.50), &spec, &toy_data());
        let v_uc = chip_b.poll_canaries_via_uc(&mut net_b);

        assert!((v_rust - v_uc).abs() < 1e-9, "rust {v_rust} vs µC {v_uc}");
        assert!(v_uc < 0.55, "no overscaling from µC: {v_uc}");
    }

    #[test]
    fn uc_controller_raises_voltage_when_cold() {
        let spec = NetSpec::regressor(&[1, 4, 1]);
        let mut chip = small_chip(9);
        let mut net = chip.deploy(&quick_flow(0.50), &spec, &toy_data());
        let v_warm = chip.poll_canaries_via_uc(&mut net);
        chip.set_temperature(-15.0);
        let v_cold = chip.poll_canaries_via_uc(&mut net);
        assert!(v_cold > v_warm, "cold {v_cold} vs warm {v_warm}");
    }

    #[test]
    fn frequency_tracks_logic_voltage() {
        let mut chip = small_chip(3);
        assert!((chip.frequency() - 250.0e6).abs() < 1e-3);
        chip.set_logic_voltage(0.55);
        assert!((chip.frequency() - 17.8e6).abs() / 17.8e6 < 1e-9);
    }

    #[test]
    fn regulator_snaps_sram_voltage() {
        let mut chip = small_chip(4);
        chip.set_sram_voltage(0.5031);
        assert_eq!(chip.sram_voltage(), 0.505);
    }
}
