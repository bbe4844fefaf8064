//! Integration tests of the SPICE engine against analytic references and
//! against the detailed single-electron model.

use single_electronics::engine::linspace;
use single_electronics::prelude::*;

#[test]
fn rc_low_pass_transient_matches_the_analytic_time_constant() {
    let netlist = se_netlist::parse_deck("rc\nV1 in 0 0\nR1 in out 10k\nC1 out 0 100p\n").unwrap();
    let circuit = Circuit::new(&netlist).unwrap();
    // Step from 0 to 1 V; tau = 1 µs.
    let stimulus = Stimulus::new().with_step("V1", 0.0, 1.0, 1e-12);
    let result = transient(&circuit, &TransientOptions::new(10e-9, 4e-6), &stimulus).unwrap();
    let out = result.node_waveform("out");
    let times = result.times();
    let idx_tau = times.iter().position(|&t| t >= 1e-6).unwrap();
    assert!(
        (out[idx_tau] - 0.632).abs() < 0.02,
        "V(tau) = {}",
        out[idx_tau]
    );
    let idx_3tau = times.iter().position(|&t| t >= 3e-6).unwrap();
    assert!(
        (out[idx_3tau] - 0.950).abs() < 0.02,
        "V(3 tau) = {}",
        out[idx_3tau]
    );
}

#[test]
fn hybrid_setmos_deck_parses_and_solves_end_to_end() {
    // A SET compact model in series with an NMOS load from a full deck.
    let period = E / 1e-18;
    let deck = format!(
        "literal gate\nVDD vdd 0 20m\nVB bias 0 0.46\nVIN in 0 {}\nM1 vdd bias out NMOS\nX1 out in 0 SET CG=1a CS=0.5a CD=0.5a RS=100k RD=100k\n",
        0.5 * period
    );
    let netlist = se_netlist::parse_deck(&deck).unwrap();
    let circuit = Circuit::with_temperature(&netlist, 4.2).unwrap();
    let op = circuit.dc_operating_point().unwrap();
    let v_out = op.voltage("out").unwrap();
    assert!((-1e-3..=21e-3).contains(&v_out), "out = {v_out}");
}

#[test]
fn spice_set_model_tracks_the_detailed_model_at_low_bias_only() {
    // The compact model matches the master-equation reference at low bias
    // and undershoots at high bias (no multi-state staircase): this is the
    // documented accuracy trade-off of SPICE-level SET simulation (E10).
    let set_exact = single_electronics::orthodox::set::SingleElectronTransistor::symmetric(
        1e-18, 0.5e-18, 100e3,
    )
    .unwrap();
    let compact =
        SetAnalyticModel::new(se_netlist::SetParams::symmetric(1e-18, 0.5e-18, 100e3), 1.0);
    let period = set_exact.gate_period();

    // Low bias: agreement within 5 %.
    let vg = 0.5 * period;
    let exact_low = set_exact.current(1e-3, vg, 0.0, 1.0).unwrap();
    let compact_low = compact.drain_current(vg, 1e-3);
    assert!((exact_low - compact_low).abs() < 0.05 * exact_low.abs());

    // High bias: the compact model falls below the exact staircase current.
    let exact_high = set_exact.current(0.4, 0.0, 0.0, 1.0).unwrap();
    let compact_high = compact.drain_current(0.0, 0.4);
    assert!(compact_high < 0.8 * exact_high);
}

#[test]
fn dc_sweep_of_a_set_loaded_divider_shows_periodic_output() {
    let deck = "set divider\nVDD vdd 0 5m\nVG g 0 0\nRL vdd out 10meg\nX1 out g 0 SET CG=1a CS=0.5a CD=0.5a RS=100k RD=100k\n";
    let netlist = se_netlist::parse_deck(deck).unwrap();
    let circuit = Circuit::with_temperature(&netlist, 1.0).unwrap();
    let period = E / 1e-18;
    let values = linspace(0.0, 2.0 * period, 33).unwrap();
    let sweep = dc_sweep(&circuit, "VG", &values, &NewtonOptions::default()).unwrap();
    let outs = sweep.node_voltages("out");
    let max = outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = outs.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(max - min > 1e-3, "output must be modulated: {min}..{max}");
}
