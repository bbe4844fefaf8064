//! Integration tests of the unified transient layer: the SPICE
//! backward-Euler integrator, the kinetic Monte-Carlo event clock and the
//! quasi-static adapter (lifting the hybrid co-simulator and the analytic
//! SET) all implement [`TransientEngine`] and run through the same
//! parallel [`TransientRunner`], with bit-identical serial and parallel
//! ensembles.

use proptest::prelude::*;
use single_electronics::montecarlo::{MonteCarloSimulator, SimulationOptions};
use single_electronics::prelude::*;

/// The reference SET as a tunnel system for the detailed engines.
fn reference_system(vds: f64, vg: f64) -> TunnelSystem {
    let mut builder = TunnelSystemBuilder::new();
    let island = builder.island("island", 0.0);
    let drain = builder.external("drain", vds);
    let source = builder.external("source", 0.0);
    let gate = builder.external("gate", vg);
    builder.junction("JD", drain, island, 0.5e-18, 100e3);
    builder.junction("JS", island, source, 0.5e-18, 100e3);
    builder.capacitor("CG", gate, island, 1e-18);
    builder.build().expect("valid reference system")
}

/// The gate voltage of the conductance peak (gate charge e/2 at 1 aF).
fn peak_gate() -> f64 {
    E / (2.0 * 1e-18)
}

/// The acceptance requirement: one pulse train, three engine families, one
/// trait surface — a drain pulse on the analytic SET device must drive a
/// visible on/off current contrast through every backend, all reached from
/// the `single_electronics` facade.
#[test]
fn a_pulse_train_runs_through_all_three_backends() {
    let pulse = Waveform::pulse(0.0, 1e-3, 20e-9, 40e-9, 1e-6).unwrap();
    let times: Vec<f64> = (1..8).map(|i| i as f64 * 10e-9).collect();
    let runner = TransientRunner::new().with_seed(42);

    // 1. SPICE family: the analytic SET compact model in a netlist, drain
    //    driven through its voltage source.
    let deck = format!(
        "pulsed set\nVD d 0 0\nVG g 0 {}\nX1 d g 0 SET CG=1a CS=0.5a CD=0.5a RS=100k RD=100k\n",
        peak_gate()
    );
    let netlist = se_netlist::parse_deck(&deck).unwrap();
    let spice = SpiceTransientEngine::new(
        Circuit::new(&netlist).unwrap(),
        NewtonOptions::default(),
        1e-9,
    )
    .unwrap();
    let spice_trace = runner
        .run(&spice, &[("VD", pulse.clone())], &["VD"], &times)
        .unwrap();

    // 2. Monte-Carlo family: the same device as a tunnel system, sampled
    //    by the kinetic event clock (window-averaged currents).
    let kmc = MonteCarloSimulator::new(
        reference_system(0.0, peak_gate()),
        SimulationOptions::new(1.0).with_seed(5),
    )
    .unwrap();
    let kmc_trace = runner
        .run(&kmc, &[("drain", pulse.clone())], &["JD"], &times)
        .unwrap();

    // 3. Hybrid family: the tunnel-junction netlist inside a SPICE
    //    envelope, co-simulated to convergence at each sample.
    let hybrid_deck = format!(
        "pulsed hybrid set\nVD vd 0 0\nVG gate 0 {}\nRL vd drain 1k\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n",
        peak_gate()
    );
    let hybrid_netlist = se_netlist::parse_deck(&hybrid_deck).unwrap();
    let hybrid = QuasiStatic::new(
        HybridStationaryEngine::new(&hybrid_netlist, HybridOptions::new(1.0)).unwrap(),
    );
    let hybrid_trace = runner
        .run(&hybrid, &[("VD", pulse)], &["J1"], &times)
        .unwrap();

    // Sample 1 (t = 20 ns) through sample 5 (t = 60 ns) see the pulse; the
    // first and last samples see zero drain bias. Every family must show
    // the contrast.
    for (name, trace) in [
        ("spice", &spice_trace),
        ("kmc", &kmc_trace),
        ("hybrid", &hybrid_trace),
    ] {
        assert_eq!(trace.len(), times.len(), "{name}");
        assert_eq!(trace.observable_count(), 1, "{name}");
        let on = trace.at(2, 0).abs().max(trace.at(3, 0).abs());
        let off = trace.at(0, 0).abs().max(trace.at(6, 0).abs());
        assert!(on > 3.0 * off.max(1e-13), "{name}: on {on} vs off {off}");
    }
}

/// Corner-sweep ensembles (different pulse amplitudes) through the hybrid
/// engine are deterministic: the same seed reproduces the same traces, and
/// serial equals parallel.
#[test]
fn hybrid_ensembles_are_bit_identical_serial_vs_parallel() {
    let deck = format!(
        "hybrid corners\nVD vd 0 0\nVG gate 0 {}\nRL vd drain 100k\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n",
        peak_gate()
    );
    let netlist = se_netlist::parse_deck(&deck).unwrap();
    let engine =
        QuasiStatic::new(HybridStationaryEngine::new(&netlist, HybridOptions::new(1.0)).unwrap());
    let scenarios: Vec<Scenario> = [0.5e-3, 1e-3, 2e-3]
        .iter()
        .map(|&amp| {
            Scenario::new(format!("amplitude {amp}"))
                .drive("VD", Waveform::step(0.0, amp, 1e-9).unwrap())
        })
        .collect();
    let times = [0.5e-9, 2e-9];
    let parallel = TransientRunner::new()
        .with_seed(9)
        .run_ensemble(&engine, &scenarios, &["J1"], &times)
        .unwrap();
    let serial = TransientRunner::new()
        .with_seed(9)
        .serial()
        .run_ensemble(&engine, &scenarios, &["J1"], &times)
        .unwrap();
    assert_eq!(parallel, serial);
    // Larger drive corners draw larger currents after the step.
    assert!(parallel[2].at(1, 0).abs() > parallel[0].at(1, 0).abs());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The satellite requirement: serial and parallel `TransientRunner`
    /// ensembles are bit-identical for every seed, step count and backend
    /// choice.
    #[test]
    fn prop_transient_ensembles_are_scheduling_independent(
        seed in 0_u64..1_000_000,
        steps in 2_usize..6,
        backend in 0_usize..3,
        repeats in 2_usize..5,
    ) {
        let times: Vec<f64> = (1..=steps).map(|i| i as f64 * 10e-9).collect();
        let pulse = Waveform::pulse(0.0, 1e-3, 10e-9, 20e-9, 1e-6).unwrap();

        let run = |serial: bool| -> Vec<TransientTrace> {
            let runner = if serial {
                TransientRunner::new().with_seed(seed).serial()
            } else {
                TransientRunner::new().with_seed(seed)
            };
            match backend {
                // Quasi-static analytic SET (deterministic).
                0 => {
                    let set = SingleElectronTransistor::symmetric(1e-18, 0.5e-18, 100e3).unwrap();
                    let engine = QuasiStatic::new(
                        set.stationary_engine(1.0, 0.0).unwrap().with_bias(0.0, peak_gate()),
                    );
                    runner
                        .run_repeats(&engine, &[("drain", pulse.clone())], &["drain"], &times, repeats)
                        .unwrap()
                }
                // Kinetic Monte-Carlo event clock (stochastic).
                1 => {
                    let kmc = MonteCarloSimulator::new(
                        reference_system(0.0, peak_gate()),
                        SimulationOptions::new(1.0)
                            .with_seed(1)
                            .with_equilibration(50),
                    )
                    .unwrap();
                    runner
                        .run_repeats(&kmc, &[("drain", pulse.clone())], &["JD"], &times, repeats)
                        .unwrap()
                }
                // SPICE backward-Euler integrator (deterministic).
                _ => {
                    let deck = format!(
                        "prop set\nVD d 0 0\nVG g 0 {}\nX1 d g 0 SET CG=1a CS=0.5a CD=0.5a RS=100k RD=100k\n",
                        peak_gate()
                    );
                    let netlist = se_netlist::parse_deck(&deck).unwrap();
                    let engine = SpiceTransientEngine::new(
                        Circuit::new(&netlist).unwrap(),
                        NewtonOptions::default(),
                        5e-9,
                    )
                    .unwrap();
                    runner
                        .run_repeats(&engine, &[("VD", pulse.clone())], &["VD"], &times, repeats)
                        .unwrap()
                }
            }
        };

        let parallel = run(false);
        let serial = run(true);
        prop_assert_eq!(parallel.len(), repeats);
        prop_assert_eq!(parallel, serial);
    }

    /// Distinct ensemble seeds decorrelate stochastic repeats, and the
    /// derived per-repeat seeds differ within one ensemble.
    #[test]
    fn prop_stochastic_repeats_explore_distinct_streams(seed in 0_u64..1_000_000) {
        let times = [10e-9, 20e-9];
        let kmc = MonteCarloSimulator::new(
            reference_system(1e-3, peak_gate()),
            SimulationOptions::new(1.0).with_seed(1).with_equilibration(50),
        )
        .unwrap();
        let repeats = TransientRunner::new()
            .with_seed(seed)
            .run_repeats(&kmc, &[], &["JD"], &times, 3)
            .unwrap();
        prop_assert!(repeats[0] != repeats[1]);
        let reseeded = TransientRunner::new()
            .with_seed(seed.wrapping_add(1))
            .run_repeats(&kmc, &[], &["JD"], &times, 3)
            .unwrap();
        prop_assert!(repeats[0] != reseeded[0]);
    }
}
