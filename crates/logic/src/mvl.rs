//! The merged SET/MOSFET multiple-valued logic element of Inokawa et al.
//!
//! The circuit is a SET (input on its gate) in series with a MOSFET that
//! acts as a constant-current load / gain element. Because the SET current
//! is periodic in the input voltage while the MOSFET provides an almost
//! constant comparison current, the output node flips between a high and a
//! low level once per Coulomb-oscillation period — a periodic, multi-valued
//! transfer characteristic that would need many transistors to replicate in
//! pure CMOS. This module builds the circuit as a netlist, solves it with
//! the SPICE engine (using the analytic SET compact model, exactly as the
//! original authors did), and extracts the multi-valued transfer curve.

use crate::error::LogicError;
use se_engine::{linspace, Waveform};
use se_netlist::{Element, MosfetParams, Netlist, Node, SetParams};
use se_spice::sweep::dc_sweep;
use se_spice::{transient, Circuit, NewtonOptions, Stimulus, TransientOptions};

/// Parameters of the SET/MOSFET literal gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MvlGate {
    /// SET compact-model parameters.
    pub set: SetParams,
    /// MOSFET parameters of the load / gain element.
    pub mosfet: MosfetParams,
    /// Supply voltage, volt.
    pub supply: f64,
    /// MOSFET gate bias setting the comparison current, volt.
    pub load_bias: f64,
    /// Operating temperature for the SET model, kelvin.
    pub temperature: f64,
}

impl MvlGate {
    /// The reference gate used by the experiments: the default SET, an NMOS
    /// load biased just above threshold, a 20 mV supply (so the SET stays in
    /// its low-bias regime) and 4.2 K operation.
    #[must_use]
    pub fn reference() -> Self {
        MvlGate {
            set: SetParams::symmetric(1e-18, 0.5e-18, 100e3),
            mosfet: MosfetParams::nmos_180nm(),
            supply: 20e-3,
            load_bias: 0.46,
            temperature: 4.2,
        }
    }

    /// Gate-voltage period of the underlying SET.
    #[must_use]
    pub fn input_period(&self) -> f64 {
        se_units::constants::E / self.set.c_gate
    }

    /// Builds the two-device netlist: NMOS from the supply to the output
    /// node (gate at `load_bias`), SET from the output node to ground with
    /// its gate driven by the input source `VIN`.
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn netlist(&self) -> Result<Netlist, LogicError> {
        let mut netlist = Netlist::new("SET/MOSFET multiple-valued literal gate");
        let vdd = netlist.node("vdd");
        let bias = netlist.node("bias");
        let input = netlist.node("in");
        let output = netlist.node("out");
        netlist.add(Element::voltage_source(
            "VDD",
            vdd,
            Node::GROUND,
            self.supply,
        ))?;
        netlist.add(Element::voltage_source(
            "VB",
            bias,
            Node::GROUND,
            self.load_bias,
        ))?;
        netlist.add(Element::voltage_source("VIN", input, Node::GROUND, 0.0))?;
        netlist.add(Element::mosfet("M1", vdd, bias, output, self.mosfet))?;
        netlist.add(Element::set_transistor(
            "X1",
            output,
            input,
            Node::GROUND,
            self.set,
        ))?;
        Ok(netlist)
    }

    /// Computes the transfer curve `(v_in, v_out)` over the given input
    /// range.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidArgument`] for a degenerate range and
    /// propagates SPICE errors.
    pub fn transfer_curve(
        &self,
        v_in_start: f64,
        v_in_stop: f64,
        points: usize,
    ) -> Result<Vec<(f64, f64)>, LogicError> {
        let netlist = self.netlist()?;
        let circuit = Circuit::with_temperature(&netlist, self.temperature)?;
        let values = linspace(v_in_start, v_in_stop, points)?;
        let sweep = dc_sweep(&circuit, "VIN", &values, &NewtonOptions::default())?;
        let outputs = sweep.node_voltages("out");
        Ok(values.into_iter().zip(outputs).collect())
    }

    /// Quantizes a time-domain input ramp: drives `VIN` with a
    /// [`Waveform::Ramp`] from `v_in_start` to `v_in_stop` over
    /// `ramp_time` seconds through the SPICE transient integrator and
    /// returns `(v_in(t), v_out(t))` pairs at `points` uniform samples —
    /// the literal gate acting as the paper's multi-level quantizer on a
    /// live signal rather than on a precomputed DC grid.
    ///
    /// The gate's devices are static (no capacitors), so this coincides
    /// with [`MvlGate::transfer_curve`] on the same input values; the
    /// transient path is what lets the same circuit run inside larger
    /// time-domain co-simulations.
    ///
    /// # Errors
    ///
    /// Returns [`LogicError::InvalidArgument`] for a degenerate range,
    /// fewer than two points or a non-positive ramp time, and propagates
    /// SPICE errors.
    pub fn ramp_response(
        &self,
        v_in_start: f64,
        v_in_stop: f64,
        points: usize,
        ramp_time: f64,
    ) -> Result<Vec<(f64, f64)>, LogicError> {
        if points < 2 {
            return Err(LogicError::InvalidArgument(format!(
                "a ramp response needs at least two points, got {points}"
            )));
        }
        if !(ramp_time > 0.0) || !ramp_time.is_finite() {
            return Err(LogicError::InvalidArgument(format!(
                "ramp time must be positive and finite, got {ramp_time}"
            )));
        }
        let netlist = self.netlist()?;
        let circuit = Circuit::with_temperature(&netlist, self.temperature)?;
        let ramp = Waveform::ramp(v_in_start, v_in_stop, 0.0, ramp_time)?;
        let stimulus = Stimulus::new().with_source("VIN", ramp.clone());
        let dt = ramp_time / (points - 1) as f64;
        let result = transient(&circuit, &TransientOptions::new(dt, ramp_time), &stimulus)?;
        let outputs = result.node_waveform("out");
        Ok(result
            .times()
            .iter()
            .map(|&t| ramp.value_at(t))
            .zip(outputs)
            .collect())
    }

    /// Counts the output plateaus (distinct logic levels) of a transfer
    /// curve: maximal runs of consecutive points whose output stays within
    /// `tolerance` of the run's mean and which are at least three points
    /// long.
    #[must_use]
    pub fn count_plateaus(curve: &[(f64, f64)], tolerance: f64) -> usize {
        if curve.len() < 3 {
            return 0;
        }
        let mut plateaus = 0;
        let mut run: Vec<f64> = Vec::new();
        for &(_, v_out) in curve {
            let mean = if run.is_empty() {
                v_out
            } else {
                run.iter().sum::<f64>() / run.len() as f64
            };
            if (v_out - mean).abs() <= tolerance {
                run.push(v_out);
            } else {
                if run.len() >= 3 {
                    plateaus += 1;
                }
                run.clear();
                run.push(v_out);
            }
        }
        if run.len() >= 3 {
            plateaus += 1;
        }
        plateaus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netlist_builds_and_validates() {
        let gate = MvlGate::reference();
        let netlist = gate.netlist().unwrap();
        assert_eq!(netlist.len(), 5);
        assert!(netlist.validate().is_ok());
    }

    #[test]
    fn transfer_curve_is_periodic_and_bounded() {
        let gate = MvlGate::reference();
        let period = gate.input_period();
        let curve = gate.transfer_curve(0.0, 3.0 * period, 121).unwrap();
        assert_eq!(curve.len(), 121);
        for &(_, v_out) in &curve {
            assert!(
                (-1e-3..=gate.supply + 1e-3).contains(&v_out),
                "output {v_out} escaped the rails"
            );
        }
        // Periodicity: compare outputs one period apart (away from the ends).
        let at = |idx: usize| curve[idx].1;
        let points_per_period = 40;
        for idx in 10..30 {
            let a = at(idx);
            let b = at(idx + points_per_period);
            assert!(
                (a - b).abs() < 0.15 * gate.supply,
                "transfer curve should repeat every period: {a} vs {b}"
            );
        }
    }

    #[test]
    fn output_modulates_with_input() {
        let gate = MvlGate::reference();
        let period = gate.input_period();
        let curve = gate.transfer_curve(0.0, 2.0 * period, 81).unwrap();
        let outputs: Vec<f64> = curve.iter().map(|&(_, v)| v).collect();
        let max = outputs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = outputs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min > 0.2 * gate.supply,
            "the literal gate must swing visibly: min {min}, max {max}"
        );
    }

    #[test]
    fn multiple_plateaus_appear_over_several_periods() {
        let gate = MvlGate::reference();
        let period = gate.input_period();
        let curve = gate.transfer_curve(0.0, 3.0 * period, 181).unwrap();
        let plateaus = MvlGate::count_plateaus(&curve, 0.1 * gate.supply);
        assert!(
            plateaus >= 3,
            "a multiple-valued literal gate needs several plateaus, found {plateaus}"
        );
    }

    #[test]
    fn ramp_response_quantizes_like_the_dc_transfer_curve() {
        // No capacitors in the gate: the time-domain quantizer must agree
        // with the DC transfer curve at every shared input value.
        let gate = MvlGate::reference();
        let period = gate.input_period();
        let points = 41;
        let dc = gate.transfer_curve(0.0, 2.0 * period, points).unwrap();
        let ramped = gate.ramp_response(0.0, 2.0 * period, points, 1e-6).unwrap();
        assert_eq!(ramped.len(), points);
        for (&(vin_dc, vout_dc), &(vin_t, vout_t)) in dc.iter().zip(&ramped) {
            assert!(
                (vin_dc - vin_t).abs() < 1e-12 * period,
                "{vin_dc} vs {vin_t}"
            );
            assert!(
                (vout_dc - vout_t).abs() < 1e-6,
                "at vin = {vin_dc}: dc {vout_dc} vs transient {vout_t}"
            );
        }
    }

    #[test]
    fn ramp_response_validates_inputs() {
        let gate = MvlGate::reference();
        assert!(gate.ramp_response(0.0, 0.1, 1, 1e-6).is_err());
        assert!(gate.ramp_response(0.0, 0.1, 41, 0.0).is_err());
        assert!(gate.ramp_response(0.0, 0.1, 41, f64::NAN).is_err());
    }

    #[test]
    fn plateau_counter_handles_degenerate_input() {
        assert_eq!(MvlGate::count_plateaus(&[], 0.1), 0);
        assert_eq!(MvlGate::count_plateaus(&[(0.0, 1.0), (0.1, 1.0)], 0.1), 0);
        let flat: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0)).collect();
        assert_eq!(MvlGate::count_plateaus(&flat, 0.01), 1);
    }
}
