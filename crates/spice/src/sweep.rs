//! DC sweeps, built on the shared parallel [`se_engine::SweepRunner`].

use crate::circuit::{Circuit, OperatingPoint};
use crate::dc::{solve_dc_with_overrides, NewtonOptions};
use crate::error::SpiceError;
use se_engine::SweepRunner;
use std::collections::HashMap;

/// Result of a DC sweep: the swept values and the operating point at each.
#[derive(Debug, Clone)]
pub struct SweepResult {
    source: String,
    values: Vec<f64>,
    points: Vec<OperatingPoint>,
}

impl SweepResult {
    /// Name of the swept source.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The swept source values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The operating points, one per swept value.
    #[must_use]
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// Convenience: the voltage of `node` at every sweep point.
    #[must_use]
    pub fn node_voltages(&self, node: &str) -> Vec<f64> {
        self.points
            .iter()
            .map(|op| op.voltage(node).unwrap_or(f64::NAN))
            .collect()
    }

    /// Convenience: the current through voltage source `source` at every
    /// sweep point.
    #[must_use]
    pub fn source_currents(&self, source: &str) -> Vec<f64> {
        self.points
            .iter()
            .map(|op| op.source_current(source).unwrap_or(f64::NAN))
            .collect()
    }

    /// Number of sweep points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the sweep produced no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Sweeps the DC value of the named voltage source over `values`, solving
/// the operating point at each value.
///
/// The first point is solved cold (the solver's `gmin` stepping handles
/// hard starting points); its solution then seeds the Newton iteration of
/// *every* remaining point, which are fanned out in parallel across cores
/// by the shared [`SweepRunner`]. Because each point's initial guess
/// depends only on the first point — never on its neighbour — results are
/// independent of thread scheduling. Note this differs from a classic
/// serial `.dc` continuation: on a multi-valued characteristic
/// (hysteretic circuits) the sweep anchors to the branch of the first
/// point instead of tracking branches point-to-point.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidArgument`] if the source does not exist or
/// no values are given, and propagates solver errors.
pub fn dc_sweep(
    circuit: &Circuit,
    source: &str,
    values: &[f64],
    options: &NewtonOptions,
) -> Result<SweepResult, SpiceError> {
    if circuit.source_row(source).is_none() {
        return Err(SpiceError::InvalidArgument(format!(
            "no voltage source named `{source}`"
        )));
    }
    if values.is_empty() {
        return Err(SpiceError::InvalidArgument(
            "a DC sweep needs at least one value".into(),
        ));
    }
    let lowered = source.to_ascii_lowercase();
    let solve_at = |value: f64, initial: Option<Vec<f64>>| {
        let mut overrides = HashMap::new();
        overrides.insert(lowered.clone(), value);
        solve_dc_with_overrides(circuit, options, &overrides, initial)
    };
    let anchor = solve_at(values[0], None)?;
    let warm_start = anchor.solution().to_vec();
    let mut points = SweepRunner::new().map_points(values.len() - 1, |i, _seed| {
        solve_at(values[i + 1], Some(warm_start.clone()))
    })?;
    points.insert(0, anchor);
    Ok(SweepResult {
        source: source.to_string(),
        values: values.to_vec(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_engine::linspace;
    use se_netlist::parse_deck;
    use se_units::constants::E;

    #[test]
    fn sweep_validates_inputs() {
        let netlist = parse_deck("divider\nV1 in 0 1\nR1 in out 1k\nR2 out 0 1k\n").unwrap();
        let circuit = Circuit::new(&netlist).unwrap();
        let options = NewtonOptions::default();
        assert!(dc_sweep(&circuit, "VX", &[0.0, 1.0], &options).is_err());
        assert!(dc_sweep(&circuit, "V1", &[], &options).is_err());
        assert!(linspace(0.0, 1.0, 1).is_err());
        assert!(linspace(1.0, 1.0, 5).is_err());
        // Descending grids are allowed (reverse sweeps).
        let down = linspace(1.0, 0.0, 5).unwrap();
        assert_eq!(down[0], 1.0);
        assert_eq!(down[4], 0.0);
    }

    #[test]
    fn divider_sweep_is_linear() {
        let netlist = parse_deck("divider\nV1 in 0 1\nR1 in out 1k\nR2 out 0 1k\n").unwrap();
        let circuit = Circuit::new(&netlist).unwrap();
        let values = linspace(0.0, 2.0, 5).unwrap();
        let sweep = dc_sweep(&circuit, "V1", &values, &NewtonOptions::default()).unwrap();
        assert_eq!(sweep.len(), 5);
        assert!(!sweep.is_empty());
        assert_eq!(sweep.source(), "V1");
        let outs = sweep.node_voltages("out");
        for (v_in, v_out) in values.iter().zip(&outs) {
            assert!((v_out - 0.5 * v_in).abs() < 1e-9);
        }
        let currents = sweep.source_currents("V1");
        assert!((currents[4] + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn diode_sweep_turns_on_smoothly() {
        let netlist = parse_deck("diode\nV1 in 0 0\nR1 in a 1k\nD1 a 0\n").unwrap();
        let circuit = Circuit::new(&netlist).unwrap();
        let values = linspace(0.0, 2.0, 21).unwrap();
        let sweep = dc_sweep(&circuit, "V1", &values, &NewtonOptions::default()).unwrap();
        let va = sweep.node_voltages("a");
        // Monotone increase, saturating near the diode drop.
        for pair in va.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9);
        }
        assert!(*va.last().unwrap() < 0.85);
    }

    #[test]
    fn set_gate_sweep_shows_periodic_output_modulation() {
        // SET + load resistor driven by a swept gate: the output node must
        // oscillate with period e/Cg (this is the circuit-level face of the
        // Coulomb oscillations).
        let deck = "set inverter-ish\nVDD vdd 0 5m\nVG g 0 0\nRL vdd out 10meg\nX1 out g 0 SET CG=1a CS=0.5a CD=0.5a RS=100k RD=100k\n";
        let netlist = parse_deck(deck).unwrap();
        let circuit = Circuit::new(&netlist).unwrap();
        let period = E / 1e-18;
        let values = linspace(0.0, 2.0 * period, 41).unwrap();
        let sweep = dc_sweep(&circuit, "VG", &values, &NewtonOptions::default()).unwrap();
        let outs = sweep.node_voltages("out");
        // Output at gate = half period (SET conducting) is much lower than at
        // gate = 0 or one full period (SET blockaded).
        let at = |frac: f64| {
            let target = frac * period;
            let idx = values
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    (a.1 - target)
                        .abs()
                        .partial_cmp(&(b.1 - target).abs())
                        .unwrap()
                })
                .unwrap()
                .0;
            outs[idx]
        };
        assert!(at(0.5) < 0.7 * at(0.0));
        assert!(at(1.5) < 0.7 * at(1.0));
        // Periodicity: valleys at 0 and 1 periods agree.
        assert!((at(0.0) - at(1.0)).abs() < 0.05 * at(0.0));
    }
}
