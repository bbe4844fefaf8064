//! Exact (master-equation) model of the canonical three-terminal
//! single-electron transistor.
//!
//! The SET of the paper is a metallic island connected to drain and source
//! leads through two tunnel junctions and to a gate through a capacitor.
//! For a *single* island the stationary master equation over the number of
//! excess electrons `n` is a birth–death chain, so the occupation
//! probabilities follow from the detailed-balance-like recursion
//! `p(n+1)/p(n) = Γ₊(n)/Γ₋(n+1)` and the drain current is
//! `I = e·Σₙ p(n)·(Γ_d→(n) − Γ_d←(n))`.
//!
//! This is the reference characteristic used throughout the experiments: it
//! shows the periodic Id–Vg oscillation (period `e/C_g`), the fact that a
//! background charge shifts only the *phase* of that oscillation, the
//! Coulomb staircase and diamonds, the temperature washout and the voltage
//! gain `C_g/C_d`.

use crate::error::OrthodoxError;
use crate::rates::tunnel_rate;
use se_units::constants::{BOLTZMANN, E};

/// Exact orthodox model of a single SET.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleElectronTransistor {
    c_gate: f64,
    c_source: f64,
    c_drain: f64,
    r_source: f64,
    r_drain: f64,
    /// Half-width of the charge-state window used by the master equation.
    window: i64,
}

/// One simulated bias point of a SET.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasPoint {
    /// Drain-source voltage in volt.
    pub vds: f64,
    /// Gate voltage in volt.
    pub vgs: f64,
    /// Drain current in ampere.
    pub current: f64,
}

impl SingleElectronTransistor {
    /// Creates a SET with explicit junction parameters.
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::InvalidParameter`] if any capacitance or
    /// resistance is not strictly positive and finite.
    pub fn new(
        c_gate: f64,
        c_source: f64,
        c_drain: f64,
        r_source: f64,
        r_drain: f64,
    ) -> Result<Self, OrthodoxError> {
        for (name, value) in [
            ("gate capacitance", c_gate),
            ("source capacitance", c_source),
            ("drain capacitance", c_drain),
            ("source resistance", r_source),
            ("drain resistance", r_drain),
        ] {
            if value <= 0.0 || !value.is_finite() {
                return Err(OrthodoxError::InvalidParameter(format!(
                    "{name} must be positive and finite, got {value}"
                )));
            }
        }
        Ok(SingleElectronTransistor {
            c_gate,
            c_source,
            c_drain,
            r_source,
            r_drain,
            window: 8,
        })
    }

    /// Creates a SET with symmetric junctions.
    ///
    /// # Errors
    ///
    /// See [`SingleElectronTransistor::new`].
    pub fn symmetric(c_gate: f64, c_junction: f64, r_junction: f64) -> Result<Self, OrthodoxError> {
        SingleElectronTransistor::new(c_gate, c_junction, c_junction, r_junction, r_junction)
    }

    /// Sets the half-width of the charge-state window (default 8). Larger
    /// windows are needed at high temperature or large bias.
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::InvalidParameter`] if `window` is zero or
    /// larger than 512.
    pub fn with_window(mut self, window: i64) -> Result<Self, OrthodoxError> {
        if !(1..=512).contains(&window) {
            return Err(OrthodoxError::InvalidParameter(format!(
                "charge window must lie in [1, 512], got {window}"
            )));
        }
        self.window = window;
        Ok(self)
    }

    /// Total island capacitance `CΣ`.
    #[must_use]
    pub fn total_capacitance(&self) -> f64 {
        self.c_gate + self.c_source + self.c_drain
    }

    /// Single-electron charging energy `e²/2CΣ` in joule.
    #[must_use]
    pub fn charging_energy(&self) -> f64 {
        E * E / (2.0 * self.total_capacitance())
    }

    /// Gate-voltage period `e/C_g` of the Coulomb oscillations.
    #[must_use]
    pub fn gate_period(&self) -> f64 {
        E / self.c_gate
    }

    /// Maximum voltage gain of the SET used as an amplifier / logic element:
    /// `C_g / C_d` (the paper's "voltage gain is given by the ratio of gate
    /// capacitance to junction capacitance").
    #[must_use]
    pub fn voltage_gain(&self) -> f64 {
        self.c_gate / self.c_drain
    }

    /// Maximum operating temperature (kelvin) at which the blockade is still
    /// visible, requiring `E_C ≥ margin·k_B·T`.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is not strictly positive.
    #[must_use]
    pub fn max_operating_temperature(&self, margin: f64) -> f64 {
        assert!(margin > 0.0, "margin must be positive");
        self.charging_energy() / (margin * BOLTZMANN)
    }

    /// Free-energy change of adding one electron to the island through the
    /// *drain* junction when the island already holds `n` excess electrons.
    fn delta_f_drain_in(&self, n: i64, vds: f64, vgs: f64, q0: f64) -> f64 {
        self.delta_f_in(n, vds, vgs, q0, self.c_source, vds)
    }

    /// Free-energy change of adding one electron through the *source*
    /// junction (source grounded).
    fn delta_f_source_in(&self, n: i64, vds: f64, vgs: f64, q0: f64) -> f64 {
        self.delta_f_in(n, vds, vgs, q0, self.c_drain, 0.0)
    }

    /// Common expression: electron enters the island from a lead at
    /// potential `v_lead`; `c_other` is the capacitance of the *other*
    /// junction (the one not tunnelled through).
    ///
    /// ΔF = (e/CΣ)·[e/2 + (n·e − q0·e) − C_g·(V_g − V_lead) − C_other·(V_other − V_lead)]
    /// which follows from the general endpoint formula of
    /// [`crate::system::TunnelSystem`]; here it is written out explicitly for
    /// speed and testability.
    #[allow(clippy::too_many_arguments)]
    fn delta_f_in(&self, n: i64, vds: f64, vgs: f64, q0: f64, c_other: f64, v_lead: f64) -> f64 {
        let c_sigma = self.total_capacitance();
        let q_island = -E * n as f64 + E * q0;
        // Island potential before the event.
        let phi =
            (q_island + self.c_drain * vds + self.c_source * 0.0 + self.c_gate * vgs) / c_sigma;
        // Electron moves from the lead (potential v_lead) onto the island.
        let _ = c_other;
        E * (v_lead - phi) + E * E / (2.0 * c_sigma)
    }

    /// Drain current (ampere) at the given bias, gate voltage, background
    /// charge `q0` (units of `e`) and temperature (kelvin).
    ///
    /// Positive current flows from the drain terminal through the device to
    /// the grounded source when `vds > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::InvalidParameter`] for a negative or
    /// non-finite temperature or non-finite bias values.
    pub fn current(
        &self,
        vds: f64,
        vgs: f64,
        q0: f64,
        temperature: f64,
    ) -> Result<f64, OrthodoxError> {
        if temperature < 0.0 || !temperature.is_finite() {
            return Err(OrthodoxError::InvalidParameter(format!(
                "temperature must be non-negative and finite, got {temperature}"
            )));
        }
        if !vds.is_finite() || !vgs.is_finite() || !q0.is_finite() {
            return Err(OrthodoxError::InvalidParameter(
                "bias voltages and background charge must be finite".into(),
            ));
        }

        // Centre the charge window on the electrostatically preferred n.
        let gate_charge = (self.c_gate * vgs + self.c_drain * vds) / E + q0;
        let n_center = gate_charge.round() as i64;
        let lo = n_center - self.window;
        let hi = n_center + self.window;
        let states = (hi - lo + 1) as usize;

        // Rates per state.
        let mut rate_in_drain = vec![0.0; states];
        let mut rate_out_drain = vec![0.0; states];
        let mut rate_in_source = vec![0.0; states];
        let mut rate_out_source = vec![0.0; states];
        for (idx, n) in (lo..=hi).enumerate() {
            let df_d_in = self.delta_f_drain_in(n, vds, vgs, q0);
            let df_s_in = self.delta_f_source_in(n, vds, vgs, q0);
            rate_in_drain[idx] = tunnel_rate(df_d_in, self.r_drain, temperature)?;
            rate_in_source[idx] = tunnel_rate(df_s_in, self.r_source, temperature)?;
            // Out-rates: electron leaves island with n electrons; this is the
            // reverse of the in-event at n-1, so compute directly from the
            // free-energy of the reverse process.
            let df_d_out = -self.delta_f_drain_in(n - 1, vds, vgs, q0);
            let df_s_out = -self.delta_f_source_in(n - 1, vds, vgs, q0);
            rate_out_drain[idx] = tunnel_rate(df_d_out, self.r_drain, temperature)?;
            rate_out_source[idx] = tunnel_rate(df_s_out, self.r_source, temperature)?;
        }

        // Stationary distribution of the birth-death chain.
        let mut log_p = vec![0.0_f64; states];
        for idx in 1..states {
            let gain = rate_in_drain[idx - 1] + rate_in_source[idx - 1];
            let loss = rate_out_drain[idx] + rate_out_source[idx];
            let ratio = if gain > 0.0 && loss > 0.0 {
                (gain / loss).ln()
            } else if gain == 0.0 {
                -700.0
            } else {
                700.0
            };
            log_p[idx] = log_p[idx - 1] + ratio;
        }
        let max_log = log_p.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = log_p.iter().map(|&l| (l - max_log).exp()).collect();
        let norm: f64 = weights.iter().sum();

        // Drain current: electrons arriving at the drain minus leaving it.
        let mut current = 0.0;
        for idx in 0..states {
            let p = weights[idx] / norm;
            current += p * (rate_out_drain[idx] - rate_in_drain[idx]);
        }
        Ok(E * current)
    }

    /// Sweeps the gate voltage at fixed `vds`, returning one [`BiasPoint`]
    /// per sample. Runs through the shared parallel
    /// [`se_engine::SweepRunner`], fanning bias points across all cores;
    /// descending ranges (`vg_start > vg_stop`) are swept in that order.
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::InvalidParameter`] if `points < 2` or the
    /// sweep range is degenerate, or propagates bias-point errors.
    pub fn gate_sweep(
        &self,
        vds: f64,
        vg_start: f64,
        vg_stop: f64,
        points: usize,
        q0: f64,
        temperature: f64,
    ) -> Result<Vec<BiasPoint>, OrthodoxError> {
        let values = se_engine::linspace(vg_start, vg_stop, points)?;
        se_engine::SweepRunner::new().map_points(values.len(), |i, _seed| {
            let vgs = values[i];
            Ok(BiasPoint {
                vds,
                vgs,
                current: self.current(vds, vgs, q0, temperature)?,
            })
        })
    }

    /// Sweeps the drain voltage at fixed `vgs` (the Coulomb-staircase /
    /// blockade curve), in parallel over bias points. A descending range
    /// (`vd_start > vd_stop`) runs a reverse-bias sweep.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SingleElectronTransistor::gate_sweep`].
    pub fn drain_sweep(
        &self,
        vgs: f64,
        vd_start: f64,
        vd_stop: f64,
        points: usize,
        q0: f64,
        temperature: f64,
    ) -> Result<Vec<BiasPoint>, OrthodoxError> {
        let values = se_engine::linspace(vd_start, vd_stop, points)?;
        se_engine::SweepRunner::new().map_points(values.len(), |i, _seed| {
            let vds = values[i];
            Ok(BiasPoint {
                vds,
                vgs,
                current: self.current(vds, vgs, q0, temperature)?,
            })
        })
    }

    /// Modulation depth `(I_max − I_min)/(I_max + I_min)` of the Coulomb
    /// oscillation over one gate period at the given bias and temperature —
    /// the quantity that washes out as `k_BT` approaches the charging
    /// energy (experiment E4).
    ///
    /// # Errors
    ///
    /// Propagates errors from the underlying gate sweep.
    pub fn modulation_depth(
        &self,
        vds: f64,
        q0: f64,
        temperature: f64,
    ) -> Result<f64, OrthodoxError> {
        let period = self.gate_period();
        let sweep = self.gate_sweep(vds, 0.0, period, 41, q0, temperature)?;
        let currents: Vec<f64> = sweep.iter().map(|p| p.current.abs()).collect();
        let max = currents.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = currents.iter().cloned().fold(f64::INFINITY, f64::min);
        if max + min == 0.0 {
            return Ok(0.0);
        }
        Ok((max - min) / (max + min))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_set() -> SingleElectronTransistor {
        SingleElectronTransistor::symmetric(1e-18, 0.5e-18, 100e3).unwrap()
    }

    #[test]
    fn constructor_validates_parameters() {
        assert!(SingleElectronTransistor::new(0.0, 1e-18, 1e-18, 1e5, 1e5).is_err());
        assert!(SingleElectronTransistor::new(1e-18, -1e-18, 1e-18, 1e5, 1e5).is_err());
        assert!(SingleElectronTransistor::new(1e-18, 1e-18, 1e-18, 0.0, 1e5).is_err());
        assert!(reference_set().with_window(0).is_err());
        assert!(reference_set().with_window(1000).is_err());
        assert!(reference_set().with_window(16).is_ok());
    }

    #[test]
    fn derived_quantities() {
        let set = reference_set();
        assert!((set.total_capacitance() - 2e-18).abs() < 1e-30);
        assert!((set.gate_period() - E / 1e-18).abs() < 1e-6);
        assert!((set.voltage_gain() - 2.0).abs() < 1e-12);
        assert!(set.charging_energy() > 0.0);
        assert!(set.max_operating_temperature(10.0) > 0.0);
    }

    #[test]
    fn current_validates_inputs() {
        let set = reference_set();
        assert!(set.current(1e-3, 0.0, 0.0, -1.0).is_err());
        assert!(set.current(f64::NAN, 0.0, 0.0, 1.0).is_err());
    }

    #[test]
    fn blockade_suppresses_current_at_low_bias() {
        let set = reference_set();
        let blocked = set.current(1e-4, 0.0, 0.0, 0.05).unwrap();
        let open = set
            .current(1e-4, set.gate_period() / 2.0, 0.0, 0.05)
            .unwrap();
        assert!(open.abs() > 1e3 * blocked.abs());
    }

    #[test]
    fn current_is_odd_in_drain_bias_at_degeneracy() {
        let set = reference_set();
        let vg = set.gate_period() / 2.0;
        let plus = set.current(2e-4, vg, 0.0, 0.1).unwrap();
        let minus = set.current(-2e-4, vg, 0.0, 0.1).unwrap();
        assert!(plus > 0.0);
        assert!(minus < 0.0);
        assert!((plus + minus).abs() < 0.05 * plus.abs());
    }

    #[test]
    fn oscillation_period_is_e_over_cg() {
        let set = reference_set();
        let period = set.gate_period();
        let i1 = set.current(1e-4, 0.3 * period, 0.0, 0.1).unwrap();
        let i2 = set.current(1e-4, 1.3 * period, 0.0, 0.1).unwrap();
        assert!(
            (i1 - i2).abs() < 0.02 * i1.abs().max(1e-15),
            "current should be periodic: {i1} vs {i2}"
        );
    }

    #[test]
    fn background_charge_shifts_phase_only() {
        // Shifting q0 by 0.3 e is equivalent to shifting Vg by 0.3 periods.
        let set = reference_set();
        let period = set.gate_period();
        let q0 = 0.3;
        for frac in [0.1, 0.35, 0.6, 0.85] {
            let with_q0 = set.current(1e-4, frac * period, q0, 0.1).unwrap();
            let shifted = set.current(1e-4, (frac + q0) * period, 0.0, 0.1).unwrap();
            assert!(
                (with_q0 - shifted).abs() < 0.03 * with_q0.abs().max(1e-15),
                "phase-shift equivalence failed at {frac}: {with_q0} vs {shifted}"
            );
        }
    }

    #[test]
    fn high_temperature_washes_out_oscillations() {
        // Charging energy of the reference SET is ~40 meV, so oscillations
        // are deep at 4 K and largely washed out at room temperature where
        // k_BT ≈ 26 meV.
        let set = reference_set();
        let cold = set.modulation_depth(1e-4, 0.0, 4.0).unwrap();
        let hot = set.modulation_depth(1e-4, 0.0, 300.0).unwrap();
        assert!(cold > 0.9, "cold modulation should be deep, got {cold}");
        assert!(hot < 0.7, "hot modulation should be washed out, got {hot}");
        assert!(cold > hot);
    }

    #[test]
    fn staircase_current_increases_with_bias() {
        let set = reference_set();
        let sweep = set.drain_sweep(0.0, 0.0, 0.1, 21, 0.0, 0.1).unwrap();
        let first = sweep.first().unwrap().current;
        let last = sweep.last().unwrap().current;
        assert!(last > first);
        assert!(last > 0.0);
        // Currents must be monotically non-decreasing within tolerance.
        for pair in sweep.windows(2) {
            assert!(pair[1].current >= pair[0].current - 1e-12);
        }
    }

    #[test]
    fn sweep_validation() {
        let set = reference_set();
        assert!(set.gate_sweep(1e-4, 0.0, 1.0, 1, 0.0, 1.0).is_err());
        assert!(set.drain_sweep(0.0, 0.0, 0.0, 10, 0.0, 1.0).is_err());
    }

    #[test]
    fn descending_sweeps_run_reverse_bias() {
        // A descending drain sweep measures the reverse-bias branch in the
        // order requested — no caller-side reversal.
        let set = reference_set();
        let sweep = set.drain_sweep(0.0, 0.05, -0.05, 11, 0.0, 0.1).unwrap();
        assert_eq!(sweep.len(), 11);
        assert_eq!(sweep[0].vds, 0.05);
        assert_eq!(sweep[10].vds, -0.05);
        assert!(sweep[0].current > 0.0);
        assert!(sweep[10].current < 0.0);

        // Descending gate sweeps mirror the ascending characteristic.
        let period = set.gate_period();
        let down = set.gate_sweep(1e-4, period, 0.0, 21, 0.0, 1.0).unwrap();
        let up = set.gate_sweep(1e-4, 0.0, period, 21, 0.0, 1.0).unwrap();
        for (d, u) in down.iter().zip(up.iter().rev()) {
            assert!((d.vgs - u.vgs).abs() < 1e-9 * period);
            let scale = d.current.abs().max(u.current.abs()).max(1e-18);
            assert!((d.current - u.current).abs() < 1e-6 * scale);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A background charge of q0 is exactly equivalent to a gate-voltage
        /// shift of q0·(e/C_g): the characteristic keeps its period and
        /// amplitude and only its phase moves. (This is the paper's key
        /// claim about background charges.)
        #[test]
        fn prop_background_charge_is_a_pure_phase_shift(
            q0 in -1.0_f64..1.0,
            vg_frac in 0.0_f64..1.0,
            temp in 0.1_f64..10.0,
        ) {
            let set = reference_set();
            let period = set.gate_period();
            let vg = vg_frac * period;
            let with_q0 = set.current(1e-4, vg, q0, temp).unwrap();
            let shifted = set.current(1e-4, vg + q0 * period, 0.0, temp).unwrap();
            let scale = with_q0.abs().max(shifted.abs()).max(1e-18);
            prop_assert!((with_q0 - shifted).abs() < 1e-6 * scale);
        }

        /// Current at zero bias is (numerically) zero for any gate voltage —
        /// no perpetual-motion current.
        #[test]
        fn prop_no_current_at_zero_bias(vg_frac in 0.0_f64..1.0, q0 in -0.5_f64..0.5) {
            let set = reference_set();
            let vg = vg_frac * set.gate_period();
            let i = set.current(0.0, vg, q0, 1.0).unwrap();
            // Compare against the scale of the on-state current at 1 mV.
            let scale = set.current(1e-3, set.gate_period() / 2.0, 0.0, 1.0).unwrap().abs();
            prop_assert!(i.abs() < 1e-6 * scale.max(1e-12));
        }
    }
}
