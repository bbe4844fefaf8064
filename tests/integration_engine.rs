//! Integration tests of the unified engine layer: the kinetic Monte-Carlo
//! engine, the master-equation solver and the analytic SET model all
//! implement [`StationaryEngine`] and run through the same parallel
//! [`SweepRunner`], with bit-identical serial and parallel results.

use single_electronics::montecarlo::{MasterEquation, MonteCarloSimulator, SimulationOptions};
use single_electronics::prelude::*;

fn reference_system(vds: f64) -> TunnelSystem {
    let mut builder = TunnelSystemBuilder::new();
    let island = builder.island("island", 0.0);
    let drain = builder.external("drain", vds);
    let source = builder.external("source", 0.0);
    let gate = builder.external("gate", 0.0);
    builder.junction("JD", drain, island, 0.5e-18, 100e3);
    builder.junction("JS", island, source, 0.5e-18, 100e3);
    builder.capacitor("CG", gate, island, 1e-18);
    builder.build().expect("valid reference system")
}

/// The satellite requirement: one test driving all three engine families
/// through the same trait surface on the same physical device, with the
/// same control/observable names, asserting the currents agree.
#[test]
fn three_engine_families_agree_through_the_stationary_engine_trait() {
    let vds = 1e-3;
    let temperature = 1.0;
    let set = SingleElectronTransistor::symmetric(1e-18, 0.5e-18, 100e3).unwrap();
    let period = set.gate_period();
    let gate_values = [0.25 * period, 0.5 * period, 0.75 * period];

    // The three engines, all behind the one trait.
    let analytic = set
        .stationary_engine(temperature, 0.0)
        .unwrap()
        .with_bias(vds, 0.0);
    let master = MasterEquation::new(reference_system(vds), temperature).unwrap();
    let kmc = MonteCarloSimulator::new(
        reference_system(vds),
        SimulationOptions::new(temperature).with_events_per_solve(60_000),
    )
    .unwrap();

    let runner = SweepRunner::new().with_seed(11);
    let reference = runner.run(&analytic, "gate", &gate_values, "JD").unwrap();
    let exact = runner.run(&master, "gate", &gate_values, "JD").unwrap();
    let sampled = runner.run(&kmc, "gate", &gate_values, "JD").unwrap();

    for ((r, m), k) in reference.iter().zip(&exact).zip(&sampled) {
        let scale = r.current.abs().max(1e-15);
        assert!(
            (m.current - r.current).abs() < 0.03 * scale,
            "master vs analytic at Vg = {}: {} vs {}",
            r.control,
            m.current,
            r.current
        );
        assert!(
            (k.current - r.current).abs() < 0.15 * scale,
            "kmc vs analytic at Vg = {}: {} vs {}",
            r.control,
            k.current,
            r.current
        );
    }
}

/// Serial and parallel execution of the same stochastic sweep must be
/// bit-identical: per-point seeds depend only on `(sweep seed, index)`.
#[test]
fn serial_and_parallel_kmc_sweeps_are_bit_identical() {
    let temperature = 1.0;
    let set = SingleElectronTransistor::symmetric(1e-18, 0.5e-18, 100e3).unwrap();
    let period = set.gate_period();
    let values = single_electronics::engine::linspace(0.1 * period, 0.9 * period, 9).unwrap();

    let kmc = MonteCarloSimulator::new(
        reference_system(1e-3),
        SimulationOptions::new(temperature).with_events_per_solve(4_000),
    )
    .unwrap();

    let parallel = SweepRunner::new()
        .with_seed(42)
        .run(&kmc, "gate", &values, "JD")
        .unwrap();
    let serial = SweepRunner::new()
        .with_seed(42)
        .serial()
        .run(&kmc, "gate", &values, "JD")
        .unwrap();
    assert_eq!(parallel, serial, "scheduling must never change results");

    // And a different sweep seed gives a different stochastic stream.
    let reseeded = SweepRunner::new()
        .with_seed(43)
        .run(&kmc, "gate", &values, "JD")
        .unwrap();
    assert_ne!(parallel, reseeded);
}

/// The 2-D stability map runs through the same runner, parallel across all
/// grid points, and is identical to the serial path for the deterministic
/// master-equation engine too.
#[test]
fn stability_maps_are_deterministic_and_structured() {
    let temperature = 1.0;
    let period = se_units::constants::E / 1e-18;
    let master = MasterEquation::new(reference_system(0.0), temperature).unwrap();

    let gate_values = [0.0, 0.5 * period];
    let drain_values = single_electronics::engine::linspace(-0.15, 0.15, 11).unwrap();
    let runner = SweepRunner::new();
    let map = runner
        .stability_map(&master, "gate", &gate_values, "drain", &drain_values, "JD")
        .unwrap();
    let map_serial = runner
        .serial()
        .stability_map(&master, "gate", &gate_values, "drain", &drain_values, "JD")
        .unwrap();
    assert_eq!(map, map_serial);

    // Blockade at the gate valley around zero bias, conduction at the
    // degeneracy point — the diamond structure.
    assert_eq!(map.outer_values().len(), 2);
    assert_eq!(map.inner_values().len(), 11);
    assert!(map.at(0, 5).abs() < 1e-15);
    assert!(map.at(0, 0).abs() > 1e-12);
    assert!(map.at(1, 0).abs() > 1e-12);
}

/// The SPICE DC engine speaks the same trait: sweep a SET-compact-model
/// circuit's gate source and watch the supply current oscillate with the
/// gate period.
#[test]
fn spice_dc_engine_joins_the_unified_surface() {
    let period = se_units::constants::E / 1e-18;
    let deck = "set with load\nVDD vdd 0 5m\nVG g 0 0\nRL vdd out 10meg\nX1 out g 0 SET CG=1a CS=0.5a CD=0.5a RS=100k RD=100k\n";
    let netlist = se_netlist::parse_deck(deck).unwrap();
    let engine = SpiceDcEngine::new(Circuit::new(&netlist).unwrap(), NewtonOptions::default());

    let values = single_electronics::engine::linspace(0.0, period, 21).unwrap();
    let sweep = SweepRunner::new()
        .run(&engine, "VG", &values, "VDD")
        .unwrap();
    // Supply current is largest in magnitude when the SET conducts (gate at
    // half period) and smallest at the blockade points.
    let at = |idx: usize| sweep[idx].current.abs();
    assert!(at(10) > 2.0 * at(0), "peak {} vs valley {}", at(10), at(0));
    let serial = SweepRunner::new()
        .serial()
        .run(&engine, "VG", &values, "VDD")
        .unwrap();
    assert_eq!(sweep, serial);
}

/// The master-equation gate sweep shows the Coulomb oscillations: over two
/// gate periods the current peaks at half-integer gate charge, is
/// blockaded at integer gate charge, and both peaks agree (periodicity).
#[test]
fn master_gate_sweep_shows_coulomb_oscillations() {
    let period = se_units::constants::E / 1e-18;
    let master = MasterEquation::new(reference_system(1e-3), 1.0).unwrap();
    let values = single_electronics::engine::linspace(0.0, 2.0 * period, 81).unwrap();
    let sweep = SweepRunner::new()
        .run(&master, "gate", &values, "JD")
        .unwrap();
    let current_at = |frac: f64| {
        let target = frac * period;
        sweep
            .iter()
            .min_by(|a, b| {
                (a.control - target)
                    .abs()
                    .total_cmp(&(b.control - target).abs())
            })
            .unwrap()
            .current
    };
    assert!(current_at(0.5) > 100.0 * current_at(0.0).abs().max(1e-18));
    assert!(current_at(1.5) > 100.0 * current_at(1.0).abs().max(1e-18));
    let (p1, p2) = (current_at(0.5), current_at(1.5));
    assert!((p1 - p2).abs() < 0.05 * p1, "peaks {p1} vs {p2}");
}
