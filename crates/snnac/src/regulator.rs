//! The digitally-programmable voltage regulator model.
//!
//! The test chip's SRAM rail is driven by external digitally-programmable
//! regulators commanded by the runtime canary controller (§III-A, §V-C).
//! The model exposes the same contract: millivolt set-points snapped to an
//! LSB, clamped to a safe range.

/// Set-point resolution, mV.
const LSB_MV: u32 = 5;
/// Lowest programmable set-point, mV.
const MIN_MV: u32 = 400;
/// Highest programmable (safe) set-point, mV.
const MAX_MV: u32 = 900;

/// A programmable supply-rail regulator.
#[derive(Debug, Clone, Copy)]
pub struct VoltageRegulator {
    mv: u32,
}

impl VoltageRegulator {
    /// A regulator with 5 mV resolution spanning 0.40–0.90 V, initialized
    /// at the maximum (safe) setting.
    pub fn snnac_sram_rail() -> Self {
        VoltageRegulator { mv: MAX_MV }
    }

    /// Current setting in volts.
    pub fn volts(&self) -> f64 {
        self.mv as f64 / 1000.0
    }

    /// Programs a set-point in millivolts; snaps to the LSB grid
    /// (round-to-nearest) and clamps to the range. Returns the actual
    /// setting.
    pub fn set_mv(&mut self, mv: u32) -> u32 {
        let snapped = (mv + LSB_MV / 2) / LSB_MV * LSB_MV;
        self.mv = snapped.clamp(MIN_MV, MAX_MV);
        self.mv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapping_and_clamping() {
        let mut r = VoltageRegulator::snnac_sram_rail();
        assert_eq!(r.set_mv(503), 505);
        assert_eq!(r.set_mv(502), 500);
        assert_eq!(r.set_mv(2000), 900);
        assert_eq!(r.set_mv(100), 400);
    }
}
