//! Sweep results: per-cell records, per-point aggregates, and JSON/CSV
//! rendering.
//!
//! Reports contain no timestamps, host names, thread counts or any other
//! run-environment detail — serialized output is a pure function of the
//! [`SweepPlan`](crate::SweepPlan), which is what makes the
//! byte-identical-across-thread-counts guarantee checkable.
//!
//! For the same reason, *cache provenance* (which cells were replayed
//! from the persistent sweep cache rather than recomputed) is
//! deliberately **not** part of [`CellRecord`]: a resumed run must emit
//! exactly the bytes of a cold run. Per-cell `cached` flags and hit/miss
//! totals travel in [`CacheUsage`](crate::CacheUsage) on the
//! [`SweepRun`](crate::SweepRun) outcome instead, aligned with
//! [`SweepReport::cells`] by index.

use serde::{Deserialize, Error, Serialize, Value};
use std::fmt::Write as _;

/// Schema identifier embedded in every JSON report.
///
/// v2: the scalar `energy_pj`/`cycles` cell fields became the structured
/// [`CellEnergy`] record (operating point, per-domain pJ/cycle, power),
/// and point summaries gained `mean_power_watts`.
///
/// v3: fault models became pluggable — cells carry the `fault_model` name
/// and a `clock_stress` column (the TE-Drop axis), and the plan summary
/// echoes the swept model. `stress_kind` may now also be `"clock"`.
pub const REPORT_SCHEMA: &str = "matic.sweep-report/v3";

/// Schema identifier of reports whose plan sweeps at least one extended
/// (conv/pool) topology: the plan summary then carries a `topologies`
/// echo (per-scenario `tag:fingerprint`). Plans whose every scenario is
/// a plain dense MLP keep emitting [`REPORT_SCHEMA`] v3 bytes verbatim —
/// pre-existing reports stay byte-identical through the layer-chain
/// refactor (enforced by the golden-report test and in CI).
pub const REPORT_SCHEMA_V4: &str = "matic.sweep-report/v4";

/// The energy accounting of one cell's inference: the cell's operating
/// point, the calibrated per-cycle costs there, and the resulting
/// energy/power of one inference. Only voltage-axis cells carry one —
/// the BER axis is synthetic (no silicon, no rails, no clock).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellEnergy {
    /// Logic-rail voltage of the operating point, volts.
    pub v_logic: f64,
    /// Weight-SRAM rail voltage of the operating point, volts.
    pub v_sram: f64,
    /// Clock frequency at the operating point, Hz.
    pub freq_hz: f64,
    /// Calibrated logic-domain cost at the point, pJ/cycle.
    pub logic_pj_per_cycle: f64,
    /// Calibrated weight-SRAM cost at the point, pJ/cycle.
    pub sram_pj_per_cycle: f64,
    /// NPU cycles of one inference (measured, voltage-independent).
    pub cycles: u64,
    /// Energy of one inference: (logic + sram) pJ/cycle × cycles.
    pub energy_pj: f64,
    /// Power while inferring: (logic + sram) pJ/cycle × clock, watts.
    pub power_watts: f64,
}

/// The plan echo embedded in a report (everything that determined the
/// numbers; no execution detail).
///
/// Serialization is hand-written: the `topologies` field — present only
/// under [`REPORT_SCHEMA_V4`] — is appended after the v3 fields when
/// `Some`, and omitted entirely when `None`, so all-MLP plans keep their
/// exact v3 byte layout.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// Chip-population size.
    pub chips: usize,
    /// Fault-model name (`"sram-voltage"`, `"random-ber"`,
    /// `"timing-error"`, or a custom model's name).
    pub fault_model: String,
    /// `"voltage"`, `"ber"` or `"clock"`.
    pub stress_kind: String,
    /// Stress points in sweep order.
    pub stress_points: Vec<f64>,
    /// Scenario names in sweep order.
    pub scenarios: Vec<String>,
    /// Training-mode names in sweep order.
    pub modes: Vec<String>,
    /// Dataset scale factor.
    pub data_scale: f64,
    /// Epoch-budget multiplier.
    pub epoch_scale: f64,
    /// Root seed.
    pub base_seed: u64,
    /// Per-scenario topology echo (`tag:fingerprint`, sweep order), set
    /// exactly when the plan sweeps an extended (conv/pool) topology.
    pub topologies: Option<Vec<String>>,
}

impl Serialize for PlanSummary {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("chips".to_string(), self.chips.to_value()),
            ("fault_model".to_string(), self.fault_model.to_value()),
            ("stress_kind".to_string(), self.stress_kind.to_value()),
            ("stress_points".to_string(), self.stress_points.to_value()),
            ("scenarios".to_string(), self.scenarios.to_value()),
            ("modes".to_string(), self.modes.to_value()),
            ("data_scale".to_string(), self.data_scale.to_value()),
            ("epoch_scale".to_string(), self.epoch_scale.to_value()),
            ("base_seed".to_string(), self.base_seed.to_value()),
        ];
        if let Some(t) = &self.topologies {
            fields.push(("topologies".to_string(), t.to_value()));
        }
        Value::Map(fields)
    }
}

impl Deserialize for PlanSummary {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| Error::custom(format!("PlanSummary: missing field `{name}`")))
        };
        Ok(PlanSummary {
            chips: usize::from_value(field("chips")?)?,
            fault_model: String::from_value(field("fault_model")?)?,
            stress_kind: String::from_value(field("stress_kind")?)?,
            stress_points: Vec::<f64>::from_value(field("stress_points")?)?,
            scenarios: Vec::<String>::from_value(field("scenarios")?)?,
            modes: Vec::<String>::from_value(field("modes")?)?,
            data_scale: f64::from_value(field("data_scale")?)?,
            epoch_scale: f64::from_value(field("epoch_scale")?)?,
            base_seed: u64::from_value(field("base_seed")?)?,
            topologies: match v.get("topologies") {
                Some(t) => Some(Vec::<String>::from_value(t)?),
                None => None,
            },
        })
    }
}

/// One evaluated grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// Scenario name.
    pub scenario: String,
    /// Chip index within the population.
    pub chip_index: usize,
    /// The chip's synthesis seed (reproduces the exact die).
    pub chip_seed: u64,
    /// Training-mode name.
    pub mode: String,
    /// Fault-model name this cell was stressed under.
    pub fault_model: String,
    /// SRAM voltage of this cell (`None` off the voltage axis).
    pub voltage: Option<f64>,
    /// Target bit-error rate (`None` off the BER axis).
    pub ber_target: Option<f64>,
    /// Normalized clock-period stress (`None` off the clock axis).
    pub clock_stress: Option<f64>,
    /// Table I metric value: classification error % or MSE.
    pub error: f64,
    /// The naive model's error at the 0.9 V nominal (fault-free) point.
    pub nominal_error: f64,
    /// `"classification_error_percent"` or `"mse"`.
    pub metric: String,
    /// Energy accounting of one inference at the cell's operating point
    /// (`None` on the BER axis, which has no silicon to meter).
    pub energy: Option<CellEnergy>,
    /// Measured bit-error rate of the cell's fault map.
    pub measured_ber: f64,
    /// Faulty bit-cells in the cell's fault map.
    pub fault_count: usize,
    /// Voltage the canary controller settled at (mat-canary cells only).
    pub settled_voltage: Option<f64>,
    /// Whether the deployed model was reused from a previous stress point
    /// (its training-time fault map covered this point's map).
    pub reused_model: bool,
    /// Whether the cell's error exceeded nominal by more than the failure
    /// margin ([`FAIL_MARGIN_PERCENT`](crate::FAIL_MARGIN_PERCENT) or
    /// [`FAIL_MARGIN_MSE`](crate::FAIL_MARGIN_MSE)).
    pub failed: bool,
}

/// Summary statistics of one sample of values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Stats {
    /// Computes stats over `values` (which must be non-empty).
    pub fn from_values(values: &[f64]) -> Stats {
        assert!(!values.is_empty(), "stats need at least one value");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Stats {
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

/// Chip-population aggregate for one (scenario, stress point, mode).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSummary {
    /// Scenario name.
    pub scenario: String,
    /// Training-mode name.
    pub mode: String,
    /// The stress value (a voltage or a BER, per the plan's axis).
    pub stress: f64,
    /// Number of chips aggregated.
    pub chips: usize,
    /// Error statistics across the population.
    pub error: Stats,
    /// Mean per-inference energy, pJ (`None` on the BER axis).
    pub mean_energy_pj: Option<f64>,
    /// Mean power while inferring, watts (`None` on the BER axis).
    pub mean_power_watts: Option<f64>,
    /// Mean measured bit-error rate across the population.
    pub mean_ber: f64,
    /// Fraction of chips whose error exceeded the failure margin.
    pub fail_rate: f64,
}

/// A complete sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Schema identifier ([`REPORT_SCHEMA`]).
    pub schema: String,
    /// The plan that produced this report.
    pub plan: PlanSummary,
    /// Every evaluated cell, in deterministic grid order
    /// (scenario-major, then chip, then stress point, then mode).
    pub cells: Vec<CellRecord>,
    /// Population aggregates, in the same deterministic order.
    pub points: Vec<PointSummary>,
}

impl SweepReport {
    /// Compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization is infallible")
    }

    /// Pretty-printed JSON (the `matic` CLI's report format).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }

    /// The per-cell table as CSV (header + one row per cell). The
    /// [`CellEnergy`] record flattens into the `v_logic` … `power_watts`
    /// columns, which are empty on the BER axis.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,chip_index,chip_seed,mode,fault_model,voltage,ber_target,clock_stress,\
             error,nominal_error,\
             metric,v_logic,v_sram,freq_hz,logic_pj_per_cycle,sram_pj_per_cycle,cycles,\
             energy_pj,power_watts,measured_ber,fault_count,settled_voltage,\
             reused_model,failed\n",
        );
        for c in &self.cells {
            let e = c.energy.as_ref();
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                c.scenario,
                c.chip_index,
                c.chip_seed,
                c.mode,
                c.fault_model,
                opt(c.voltage),
                opt(c.ber_target),
                opt(c.clock_stress),
                c.error,
                c.nominal_error,
                c.metric,
                opt(e.map(|e| e.v_logic)),
                opt(e.map(|e| e.v_sram)),
                opt(e.map(|e| e.freq_hz)),
                opt(e.map(|e| e.logic_pj_per_cycle)),
                opt(e.map(|e| e.sram_pj_per_cycle)),
                e.map(|e| e.cycles.to_string()).unwrap_or_default(),
                opt(e.map(|e| e.energy_pj)),
                opt(e.map(|e| e.power_watts)),
                c.measured_ber,
                c.fault_count,
                opt(c.settled_voltage),
                c.reused_model,
                c.failed,
            );
        }
        out
    }

    /// Computes the per-point aggregates from `cells` (respecting the
    /// given failure margins is the engine's job; this just aggregates).
    pub fn summarize(cells: &[CellRecord]) -> Vec<PointSummary> {
        // Group on the stress value's bit pattern so cells without any
        // stress value (or with a NaN) still form well-defined groups.
        let stress_bits = |c: &CellRecord| {
            c.voltage
                .or(c.ber_target)
                .or(c.clock_stress)
                .map(f64::to_bits)
        };
        let mut keys: Vec<(String, Option<u64>, String)> = Vec::new();
        for c in cells {
            let key = (c.scenario.clone(), stress_bits(c), c.mode.clone());
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys.into_iter()
            .map(|(scenario, bits, mode)| {
                let stress = bits.map(f64::from_bits).unwrap_or(f64::NAN);
                let group: Vec<&CellRecord> = cells
                    .iter()
                    .filter(|c| c.scenario == scenario && c.mode == mode && stress_bits(c) == bits)
                    .collect();
                let errors: Vec<f64> = group.iter().map(|c| c.error).collect();
                let mean_of = |f: fn(&CellEnergy) -> f64| {
                    let values: Vec<f64> = group
                        .iter()
                        .filter_map(|c| c.energy.as_ref().map(f))
                        .collect();
                    if values.is_empty() {
                        None
                    } else {
                        Some(values.iter().sum::<f64>() / values.len() as f64)
                    }
                };
                let mean_energy_pj = mean_of(|e| e.energy_pj);
                let mean_power_watts = mean_of(|e| e.power_watts);
                let mean_ber =
                    group.iter().map(|c| c.measured_ber).sum::<f64>() / group.len() as f64;
                let fail_rate =
                    group.iter().filter(|c| c.failed).count() as f64 / group.len() as f64;
                PointSummary {
                    scenario,
                    mode,
                    stress,
                    chips: group.len(),
                    error: Stats::from_values(&errors),
                    mean_energy_pj,
                    mean_power_watts,
                    mean_ber,
                    fail_rate,
                }
            })
            .collect()
    }
}

fn opt(v: Option<f64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(scenario: &str, chip: usize, mode: &str, v: f64, err: f64, failed: bool) -> CellRecord {
        CellRecord {
            scenario: scenario.into(),
            chip_index: chip,
            chip_seed: chip as u64,
            mode: mode.into(),
            fault_model: "sram-voltage".into(),
            voltage: Some(v),
            ber_target: None,
            clock_stress: None,
            error: err,
            nominal_error: 1.0,
            metric: "classification_error_percent".into(),
            energy: Some(CellEnergy {
                v_logic: 0.9,
                v_sram: v,
                freq_hz: 250.0e6,
                logic_pj_per_cycle: 0.06,
                sram_pj_per_cycle: 0.04,
                cycles: 1000,
                energy_pj: 100.0,
                power_watts: 25.0e-3,
            }),
            measured_ber: 0.1,
            fault_count: 42,
            settled_voltage: None,
            reused_model: false,
            failed,
        }
    }

    #[test]
    fn stats_basics() {
        let s = Stats::from_values(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.std_dev - 1.118033988749895).abs() < 1e-12);
    }

    #[test]
    fn summarize_groups_and_counts_failures() {
        let cells = vec![
            cell("mnist", 0, "mat", 0.5, 5.0, false),
            cell("mnist", 1, "mat", 0.5, 7.0, true),
            cell("mnist", 0, "naive", 0.5, 60.0, true),
        ];
        let points = SweepReport::summarize(&cells);
        assert_eq!(points.len(), 2);
        let mat = &points[0];
        assert_eq!((mat.scenario.as_str(), mat.mode.as_str()), ("mnist", "mat"));
        assert_eq!(mat.chips, 2);
        assert!((mat.error.mean - 6.0).abs() < 1e-12);
        assert!((mat.fail_rate - 0.5).abs() < 1e-12);
        assert!((mat.mean_energy_pj.unwrap() - 100.0).abs() < 1e-12);
        assert!((mat.mean_power_watts.unwrap() - 25.0e-3).abs() < 1e-12);
        assert_eq!(points[1].mode, "naive");
        assert!((points[1].fail_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let report = SweepReport {
            schema: REPORT_SCHEMA.into(),
            plan: PlanSummary {
                chips: 1,
                fault_model: "sram-voltage".into(),
                stress_kind: "voltage".into(),
                stress_points: vec![0.5],
                scenarios: vec!["mnist".into()],
                modes: vec!["mat".into()],
                data_scale: 1.0,
                epoch_scale: 1.0,
                base_seed: 42,
                topologies: None,
            },
            cells: vec![cell("mnist", 0, "mat", 0.5, 5.0, false)],
            points: vec![],
        };
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("scenario,chip_index"));
        assert!(lines[1].starts_with("mnist,0,"));
    }

    #[test]
    fn json_roundtrips() {
        let report = SweepReport {
            schema: REPORT_SCHEMA.into(),
            plan: PlanSummary {
                chips: 1,
                fault_model: "sram-voltage".into(),
                stress_kind: "voltage".into(),
                stress_points: vec![0.5],
                scenarios: vec!["mnist".into()],
                modes: vec!["mat".into()],
                data_scale: 0.25,
                epoch_scale: 0.5,
                base_seed: 42,
                topologies: None,
            },
            cells: vec![cell("mnist", 0, "mat", 0.5, 5.0, false)],
            points: vec![],
        };
        let json = report.to_json();
        let back: SweepReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
