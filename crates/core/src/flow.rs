//! The compile-time deployment flow (paper Fig. 3): memory profiling →
//! adaptive training → canary selection → deploy to chip.

use crate::canary::CanarySet;
use crate::controller::{CanaryController, ControllerConfig};
use crate::layout::ParamRef;
use crate::mat::{MatConfig, MatTrainer, TrainedModel};
use matic_nn::{Mlp, NetSpec, Sample};
use matic_sram::{profile_array, FaultMap, SramArray};
use serde::{Deserialize, Serialize};

/// Parameters of a deployment (one benchmark onto one chip at one target
/// operating point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentFlow {
    /// Target SRAM operating voltage (the accuracy/energy trade-off knob).
    pub target_voltage: f64,
    /// Die temperature during profiling, °C.
    pub temp_c: f64,
    /// Canaries per weight SRAM (the paper conservatively uses eight).
    pub canaries_per_bank: usize,
    /// Runtime controller configuration.
    pub controller: ControllerConfig,
    /// Memory-adaptive training configuration.
    pub mat: MatConfig,
}

impl DeploymentFlow {
    /// A flow targeting `target_voltage` with paper defaults.
    pub fn new(target_voltage: f64) -> Self {
        DeploymentFlow {
            target_voltage,
            temp_c: 25.0,
            canaries_per_bank: 8,
            controller: ControllerConfig::default(),
            mat: MatConfig::paper(),
        }
    }

    /// Runs the full Fig. 3 flow against a chip's weight memories:
    ///
    /// 1. profile the read-stability fault map at the target voltage;
    /// 2. select in-situ canaries (multi-voltage profiling below it);
    /// 3. pin canary bits in the map (their state belongs to the runtime
    ///    controller, so training treats them as stuck at the armed value);
    /// 4. memory-adaptive training;
    /// 5. upload weights at a safe voltage and arm the canaries.
    ///
    /// The returned [`DeployedModel`] owns the trained model and runtime
    /// controller; the array is left at the safe voltage, loaded and armed.
    pub fn deploy(
        &self,
        spec: &NetSpec,
        train_data: &[Sample],
        array: &mut SramArray,
    ) -> DeployedModel {
        let (at_target, _) = profile_array(array.banks_mut(), self.target_voltage, self.temp_c);
        self.deploy_with(array, at_target, CanarySet::select, |faults| {
            self.trainer(spec).train(train_data, faults)
        })
    }

    /// The trainer of step (4): `spec` under this flow's
    /// [`mat`](Self::mat) recipe.
    pub fn trainer(&self, spec: &NetSpec) -> MatTrainer {
        MatTrainer::new(spec.clone(), self.mat.clone())
    }

    /// [`deploy`](Self::deploy) from step (2) on, with the outcomes of its
    /// pure steps supplied by the caller:
    ///
    /// * `at_target` is step (1)'s profile of `array` at this flow's target
    ///   voltage and temperature (a sweep has just profiled that point);
    /// * `select` runs step (2) with [`CanarySet::select`]'s arguments —
    ///   this flow's [`canaries_per_bank`](Self::canaries_per_bank) and
    ///   rail step — and must return what `CanarySet::select` would, leaving
    ///   the array as it would (a
    ///   [`TrainingMemo::select_canaries`](crate::TrainingMemo::select_canaries)
    ///   lookup, say);
    /// * `train` receives the canary-pinned fault map and must return what
    ///   [`trainer`](Self::trainer) would train against it (a
    ///   [`TrainingMemo::train`](crate::TrainingMemo::train) lookup, say).
    ///
    /// Pinning, upload and arming run on `array`.
    ///
    /// # Panics
    ///
    /// Panics if `at_target` was profiled at another operating point than
    /// this flow's target.
    pub fn deploy_with(
        &self,
        array: &mut SramArray,
        at_target: FaultMap,
        select: impl FnOnce(&mut SramArray, &FaultMap, usize, f64) -> CanarySet,
        train: impl FnOnce(&FaultMap) -> TrainedModel,
    ) -> DeployedModel {
        assert!(
            at_target.voltage == self.target_voltage && at_target.temp_c == self.temp_c,
            "profile at {} V / {} °C, flow targets {} V / {} °C",
            at_target.voltage,
            at_target.temp_c,
            self.target_voltage,
            self.temp_c
        );
        // (2) Canary selection against the target map — destructive
        // profiling below the target, so it precedes weight upload.
        let canaries = select(
            array,
            &at_target,
            self.canaries_per_bank,
            self.controller.step_v,
        );
        // (3) Canary bits are runtime-owned: pin them at the armed
        // (anti-preferred) value so training routes around them too.
        let mut faults = at_target;
        for c in canaries.cells() {
            faults
                .bank_mut(c.bank)
                .set_fault(c.word, c.bit, !c.preferred);
        }
        // (4) Memory-adaptive training.
        let model = train(&faults);
        // (5) Upload + arm at a safe voltage.
        array.set_operating_point(self.controller.v_safe, self.temp_c);
        upload_weights(&model, array);
        canaries.arm(array);
        DeployedModel {
            model,
            faults,
            controller: CanaryController::new(canaries, self.controller),
        }
    }
}

/// Writes a model's quantized weights into the physical array (call at a
/// safe voltage; reads at overscaled voltages then exercise the real
/// failure mechanics).
pub fn upload_weights(model: &TrainedModel, array: &mut SramArray) {
    for (param, loc) in model.layout().entries() {
        array.write(loc.bank, loc.word, model.stored_word(param));
    }
}

/// A model deployed onto a chip: trained weights, the training-time fault
/// map, and the armed runtime controller.
#[derive(Debug, Clone)]
pub struct DeployedModel {
    model: TrainedModel,
    faults: FaultMap,
    controller: CanaryController,
}

impl DeployedModel {
    /// The trained model (float masters + layout).
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The fault map used during training (profile + canary pins).
    pub fn fault_map(&self) -> &FaultMap {
        &self.faults
    }

    /// The runtime voltage controller.
    pub fn controller(&self) -> &CanaryController {
        &self.controller
    }

    /// Mutable access to the runtime controller (polling mutates state).
    pub fn controller_mut(&mut self) -> &mut CanaryController {
        &mut self.controller
    }

    /// Reads the weights back out of the physical array at its **current**
    /// operating point and reconstructs the effective network — the ground
    /// truth of what inference on the chip would compute, including any
    /// upsets beyond the training-time profile.
    pub fn read_back(&self, array: &mut SramArray) -> Mlp {
        let fmt = self.model.format();
        let spec = self.model.master().spec().clone();
        let mut net = self.model.master().clone();
        for (param, loc) in self.model.layout().entries() {
            let word = array.read(loc.bank, loc.word);
            let v = matic_fixed::dequantize(fmt.decode(word), fmt);
            match param {
                ParamRef::Weight { layer, row, col } => {
                    net.weights_mut()[layer].set(row, col, v);
                }
                ParamRef::Bias { layer, row } => {
                    net.biases_mut()[layer][row] = v;
                }
            }
        }
        debug_assert_eq!(net.spec(), &spec);
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_nn::mean_squared_error;
    use matic_sram::{ArrayConfig, SramConfig, VminDistribution};

    fn array(seed: u64) -> SramArray {
        SramArray::synthesize(
            &ArrayConfig {
                banks: 4,
                bank: SramConfig {
                    words: 128,
                    word_bits: 16,
                    dist: VminDistribution::date2018(),
                },
            },
            seed,
        )
    }

    fn toy_data() -> Vec<Sample> {
        (0..48)
            .map(|i| {
                let x = i as f64 / 48.0;
                Sample::new(vec![x], vec![0.3 * x + 0.25])
            })
            .collect()
    }

    fn quick_flow(v: f64) -> DeploymentFlow {
        DeploymentFlow {
            mat: MatConfig::quick(),
            ..DeploymentFlow::new(v)
        }
    }

    #[test]
    fn full_flow_deploys_and_infers_at_target() {
        // A 1-4-1 toy net cannot absorb the 28 % BER of 0.50 V (that regime
        // is exercised with the real benchmark topologies); target a mild
        // overscale where a handful of cells fail.
        let mut arr = array(11);
        let spec = NetSpec::regressor(&[1, 4, 1]);
        let flow = quick_flow(0.52);
        let mut deployed = flow.deploy(&spec, &toy_data(), &mut arr);
        // Runtime: controller walks to the canary boundary.
        deployed.controller_mut().poll(&mut arr);
        let settled = deployed.controller().voltage();
        assert!(settled < 0.55, "no overscaling achieved: {settled}");
        // Inference view at the settled voltage.
        let net = deployed.read_back(&mut arr);
        let err = mean_squared_error(&net, &toy_data());
        assert!(err < 0.02, "deployed error {err}");
    }

    #[test]
    fn read_back_at_safe_voltage_matches_armed_quantized_model() {
        let mut arr = array(12);
        let spec = NetSpec::regressor(&[1, 4, 1]);
        let flow = quick_flow(0.52);
        let deployed = flow.deploy(&spec, &toy_data(), &mut arr);
        // At the safe voltage no cell fails: the read-back equals the
        // quantized master with ONLY the armed canary bits overridden
        // (target-voltage fault masks do not manifest here).
        let mut canary_pins = FaultMap::clean(0.9, arr.bank_count(), arr.bank(0).words(), 16);
        for c in deployed.controller().canaries().cells() {
            canary_pins
                .bank_mut(c.bank)
                .set_fault(c.word, c.bit, !c.preferred);
        }
        let read = deployed.read_back(&mut arr);
        let expect = deployed.model().deploy(&canary_pins);
        for l in 0..read.spec().depth() {
            for (a, b) in read.weights()[l]
                .as_slice()
                .iter()
                .zip(expect.weights()[l].as_slice())
            {
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn read_back_at_target_matches_fault_map_view() {
        let mut arr = array(13);
        let spec = NetSpec::regressor(&[1, 4, 1]);
        let flow = quick_flow(0.50);
        let deployed = flow.deploy(&spec, &toy_data(), &mut arr);
        arr.set_operating_point(0.50, 25.0);
        let read = deployed.read_back(&mut arr);
        let expect = deployed.model().deploy(deployed.fault_map());
        for l in 0..read.spec().depth() {
            for (a, b) in read.weights()[l]
                .as_slice()
                .iter()
                .zip(expect.weights()[l].as_slice())
            {
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn deeper_overscaling_degrades_gracefully_not_catastrophically() {
        let mut arr = array(14);
        let spec = NetSpec::regressor(&[1, 4, 1]);
        let flow = quick_flow(0.50);
        let deployed = flow.deploy(&spec, &toy_data(), &mut arr);
        arr.set_operating_point(0.50, 25.0);
        let err_at_target = mean_squared_error(&deployed.read_back(&mut arr), &toy_data());
        // 20 mV below target: a few unprofiled cells fail.
        arr.set_operating_point(0.48, 25.0);
        let err_below = mean_squared_error(&deployed.read_back(&mut arr), &toy_data());
        assert!(err_below >= err_at_target * 0.5, "unexpected improvement");
    }
}
