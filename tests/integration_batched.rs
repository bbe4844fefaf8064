//! The batched-ensemble contract: a `BatchedKmcEngine` replica is not
//! "statistically equivalent" to a standalone simulator — it is the *same
//! walk*, bit for bit.
//!
//! The lockstep engine shares seeds, goldens and tests with the scalar
//! `MonteCarloSimulator` because replica `k` (seeded with
//! `derive_seed(base, k)`) must reproduce the standalone run exactly:
//! every waiting time, every chosen event, every cached potential. These
//! tests pin that contract over random circuits, replica counts, event
//! budgets and temperatures — including `T = 0`, where whole batches
//! freeze — plus a dedicated test that frozen replicas are masked without
//! stalling or corrupting the lanes still running.

use proptest::prelude::*;
use single_electronics::engine::derive_seed;
use single_electronics::montecarlo::{BatchedKmcEngine, MonteCarloSimulator, SimulationOptions};
use single_electronics::netlist::parse_full_deck;
use single_electronics::numeric::sampling::ln_unit;
use single_electronics::orthodox::{TunnelSystem, TunnelSystemBuilder};
use single_electronics::sim::{compile, execute_with_options, ExecOptions};

/// A randomly parameterised island chain (drain — islands — source, each
/// island optionally gated), the same shape the incremental-hot-path
/// proptests use: chain junctions keep the capacitance matrix
/// non-singular for every draw.
#[derive(Debug, Clone)]
struct RandomCircuit {
    junction_caps: Vec<f64>,
    junction_resistances: Vec<f64>,
    gate_caps: Vec<Option<f64>>,
    backgrounds: Vec<f64>,
    vds: f64,
    vg: f64,
    temperature: f64,
}

impl RandomCircuit {
    fn build(&self) -> TunnelSystem {
        let islands = self.gate_caps.len();
        let mut b = TunnelSystemBuilder::new();
        let drain = b.external("drain", self.vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", self.vg);
        let mut previous = drain;
        for i in 0..islands {
            let island = b.island(format!("i{i}"), self.backgrounds[i]);
            b.junction(
                format!("J{i}"),
                previous,
                island,
                self.junction_caps[i],
                self.junction_resistances[i],
            );
            if let Some(cg) = self.gate_caps[i] {
                b.capacitor(format!("Cg{i}"), gate, island, cg);
            }
            previous = island;
        }
        b.junction(
            format!("J{islands}"),
            previous,
            source,
            *self.junction_caps.last().unwrap(),
            *self.junction_resistances.last().unwrap(),
        );
        b.build().expect("chain circuits are always non-singular")
    }
}

/// Strategy producing random 1–3-island chains with a temperature drawn
/// from the regimes the engine distinguishes: exactly zero (frozen-only
/// kernels), deep cryogenic (thermal-window patching) and warm.
#[derive(Debug)]
struct ArbCircuit;

impl Strategy for ArbCircuit {
    type Value = RandomCircuit;

    fn sample(&self, rng: &mut proptest::TestRng) -> RandomCircuit {
        let islands = 1 + rng.below(3) as usize;
        let temperature_regime = rng.below(4);
        let mut range = |lo: f64, hi: f64| lo + rng.unit_f64() * (hi - lo);
        let junction_caps = (0..islands).map(|_| range(0.1e-18, 2.0e-18)).collect();
        let junction_resistances = (0..islands).map(|_| range(50e3, 500e3)).collect();
        let gate_caps = (0..islands)
            .map(|_| {
                let cg = range(0.0, 1.5e-18);
                (cg > 0.5e-18).then_some(cg)
            })
            .collect();
        let backgrounds = (0..islands).map(|_| range(-1.0, 1.0)).collect();
        let temperature = match temperature_regime {
            0 => 0.0,
            1 => range(0.05, 0.5),
            _ => range(0.5, 4.2),
        };
        RandomCircuit {
            junction_caps,
            junction_resistances,
            gate_caps,
            backgrounds,
            vds: range(-0.1, 0.1),
            vg: range(-0.2, 0.2),
            temperature,
        }
    }
}

/// Runs `replicas` lanes batched and the same replicas standalone, then
/// asserts replica `k` of the batch is bit-identical to the scalar
/// simulator seeded with `derive_seed(base_seed, k)`: executed events,
/// total simulated time (to the bit), final charge state, net junction
/// transfers and the frozen flag.
fn assert_batch_matches_standalone(
    system: &TunnelSystem,
    temperature: f64,
    base_seed: u64,
    replicas: usize,
    equilibration: usize,
    events: usize,
) {
    let options = SimulationOptions::new(temperature).with_equilibration(equilibration);
    let mut batch = BatchedKmcEngine::from_base_seed(system.clone(), options, replicas, base_seed)
        .expect("valid batch");
    let batch_results = batch.run_events_all(events).expect("batched run succeeds");
    assert_eq!(batch_results.len(), replicas);
    for (k, batch_result) in batch_results.iter().enumerate() {
        let mut scalar = MonteCarloSimulator::new(
            system.clone(),
            SimulationOptions::new(temperature)
                .with_equilibration(equilibration)
                .with_seed(derive_seed(base_seed, k as u64)),
        )
        .expect("valid scalar simulator");
        let scalar_result = scalar.run_events(events).expect("scalar run succeeds");
        assert_eq!(
            batch_result.events(),
            scalar_result.events(),
            "replica {k}: event counts diverged"
        );
        assert_eq!(
            batch_result.total_time().to_bits(),
            scalar_result.total_time().to_bits(),
            "replica {k}: simulated time diverged (batched {} vs scalar {})",
            batch_result.total_time(),
            scalar_result.total_time()
        );
        assert_eq!(
            batch.time(k).to_bits(),
            scalar.time().to_bits(),
            "replica {k}: clock diverged"
        );
        assert_eq!(
            &batch.state(k),
            scalar.state(),
            "replica {k}: final charge state diverged"
        );
        assert_eq!(
            batch.net_transfers(k),
            scalar.net_transfers(),
            "replica {k}: junction transfer counters diverged"
        );
        assert_eq!(
            batch.is_frozen(k),
            scalar.is_frozen(),
            "replica {k}: frozen flags diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random circuits, temperatures (including exactly zero),
    /// replica counts, equilibration prefixes and event budgets, every
    /// batch lane reproduces its standalone scalar walk bit for bit.
    #[test]
    fn prop_batched_replicas_are_bit_identical_to_standalone_runs(
        circuit in ArbCircuit,
        replicas in 1_usize..7,
        events in 1_usize..250,
        equilibrate in 0_usize..2,
        base_seed in 0_u64..1_000_000,
    ) {
        let system = circuit.build();
        assert_batch_matches_standalone(
            &system,
            circuit.temperature,
            base_seed,
            replicas,
            equilibrate * 16,
            events,
        );
    }
}

/// Distance in units-in-the-last-place between two finite same-sign
/// doubles (their IEEE-754 bit patterns are order-isomorphic there).
fn ulp_distance(a: f64, b: f64) -> u64 {
    let (a, b) = (a.to_bits() as i64, b.to_bits() as i64);
    a.abs_diff(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The deterministic event-clock kernel tracks the platform libm to
    /// ≤ 2 ulp over the whole open unit interval — uniformly dense draws
    /// plus draws pushed toward the underflow boundary, where the range
    /// reduction works hardest.
    #[test]
    fn prop_ln_unit_stays_within_two_ulp_of_libm(
        mantissa in 0.0_f64..1.0,
        scale_exp in 0_i32..300,
    ) {
        // u spans (0, 1] across ~300 binades, not just the dense top one.
        let u = (mantissa + f64::MIN_POSITIVE) * 2.0_f64.powi(-scale_exp);
        prop_assume!(u > 0.0 && u <= 1.0);
        let kernel = ln_unit(u);
        let libm = u.ln();
        prop_assert!(
            ulp_distance(kernel, libm) <= 2,
            "ln_unit({u:e}) = {kernel:e} vs libm {libm:e} ({} ulp apart)",
            ulp_distance(kernel, libm)
        );
    }
}

/// The analysis shapes an ensemble deck can take.
#[derive(Debug, Clone, Copy)]
enum EnsembleShape {
    /// A `.dc` drain sweep: the Coulomb staircase.
    Sweep,
    /// A two-source `.dc` drain × gate map: a patch of the stability
    /// diagram.
    Map,
    /// A `.tran` run under a drain pulse, the gate at the conductance peak.
    Transient,
}

/// A `repeats=` ensemble deck over the reference SET in the given shape.
fn ensemble_deck(seed: u64, temperature: f64, repeats: usize, shape: EnsembleShape) -> String {
    let (drain, gate, analysis) = match shape {
        EnsembleShape::Sweep => ("0", "0", ".dc VD 0 0.06 0.02\n.print dc i(J1)"),
        EnsembleShape::Map => (
            "0",
            "0",
            ".dc VD 0 0.06 0.03 VG 0 0.08 0.04\n.print dc i(J1)",
        ),
        EnsembleShape::Transient => (
            "PULSE(0 1m 10n 20n 40n)",
            "0.08",
            ".tran 5n 50n\n.print tran i(J1)",
        ),
    };
    format!(
        "lane-width identity\n\
         VD drain 0 {drain}\n\
         VG gate 0 {gate}\n\
         J1 drain island C=0.5a R=100k\n\
         J2 island 0 C=0.5a R=100k\n\
         CG gate island 1a\n\
         .options temp={temperature:?} seed={seed} engine=kmc events=600 repeats={repeats}\n\
         {analysis}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The published ensemble tables — sweep, map and transient — are
    /// byte-identical across lane widths, worker counts and the per-seed
    /// scalar fallback: replica `k` of a point is always the same walk,
    /// however the replicas are grouped into work items. Up to 19
    /// repeats, so stationary groups of 8 or more replicas take the
    /// batched engine while narrower ones loop the scalar engine.
    #[test]
    fn prop_ensemble_tables_are_identical_across_lane_widths(
        seed in 0_u64..1_000_000,
        temperature in 0.05_f64..4.2,
        repeats in 1_usize..20,
        widths in proptest::collection::vec(1_usize..12, 2),
    ) {
        for shape in [EnsembleShape::Sweep, EnsembleShape::Map, EnsembleShape::Transient] {
            let text = ensemble_deck(seed, temperature, repeats, shape);
            let deck = parse_full_deck(&text).unwrap();
            let plan = compile(&deck).unwrap();
            let run = |lane_width: Option<usize>, scalar: bool| {
                execute_with_options(&deck, &plan, &ExecOptions {
                    lane_width,
                    scalar_ensemble: scalar,
                    ..ExecOptions::default()
                })
                .expect("ensemble deck runs")
            };
            let baseline = run(None, false);
            for &width in &widths {
                prop_assert_eq!(&run(Some(width), false), &baseline, "{:?} width {}", shape, width);
            }
            // The scalar fallback (under an arbitrary grouping) matches too.
            prop_assert_eq!(&run(Some(widths[0]), true), &baseline, "{:?} scalar", shape);
        }
    }
}

/// Builds a relaxation-only circuit: zero bias, zero temperature, but
/// gated islands whose ground state holds electrons. Starting from the
/// neutral state, each replica fires a few downhill tunnel events in a
/// seed-dependent order and then freezes — lanes freeze at different
/// rounds, which is exactly the partial-freeze regime the lockstep loop
/// must mask.
fn relaxing_system() -> TunnelSystem {
    let mut b = TunnelSystemBuilder::new();
    let drain = b.external("drain", 0.0);
    let source = b.external("source", 0.0);
    let gate = b.external("gate", 0.35);
    let a = b.island("a", 0.0);
    let c = b.island("c", 0.0);
    b.junction("J0", drain, a, 0.5e-18, 100e3);
    b.junction("J1", a, c, 0.5e-18, 100e3);
    b.junction("J2", c, source, 0.5e-18, 100e3);
    b.capacitor("CgA", gate, a, 2.0e-18);
    b.capacitor("CgC", gate, c, 2.0e-18);
    b.build().expect("valid relaxation fixture")
}

/// Frozen replicas are masked in the lockstep loop without stalling the
/// batch or perturbing the still-running lanes, and every frozen lane
/// still matches its standalone walk bit for bit — whether the lanes
/// freeze during the measurement or inside `equilibrate_all`.
#[test]
fn frozen_replicas_retire_without_stalling_the_batch() {
    let system = relaxing_system();
    let replicas = 8;
    let budget = 500;
    let base_seed = 11;
    let options = SimulationOptions::new(0.0).with_equilibration(0);
    let mut batch = BatchedKmcEngine::from_base_seed(system.clone(), options, replicas, base_seed)
        .expect("valid batch");
    let results = batch.run_events_all(budget).expect("run completes");

    // At T = 0 the relaxation cascade is finite: every lane must have
    // frozen well short of the budget (the run returned instead of
    // spinning on frozen lanes), after at least one downhill event.
    for (k, result) in results.iter().enumerate() {
        assert!(batch.is_frozen(k), "replica {k} should have frozen");
        assert!(
            result.events() > 0 && result.events() < budget as u64,
            "replica {k} should freeze mid-budget, executed {}",
            result.events()
        );
    }
    // The cascades differ in length, so the lanes froze at different
    // rounds.
    let first = results[0].events();
    assert!(
        results.iter().any(|result| result.events() != first),
        "the fixture should freeze its lanes at different rounds"
    );
    assert_batch_matches_standalone(&system, 0.0, base_seed, replicas, 0, budget);

    // An equilibration longer than every cascade freezes the same lanes
    // at the same different rounds inside `equilibrate_all`; the
    // measurement then finds every lane frozen after 0 events.
    let equilibration = 64;
    let options = options.with_equilibration(equilibration);
    let mut batch = BatchedKmcEngine::from_base_seed(system.clone(), options, replicas, base_seed)
        .expect("valid batch");
    for (k, result) in batch.run_events_all(budget).unwrap().iter().enumerate() {
        assert!(result.is_frozen(), "replica {k} should stay frozen");
        assert_eq!(result.events(), 0, "replica {k} froze while equilibrating");
    }
    assert_batch_matches_standalone(&system, 0.0, base_seed, replicas, equilibration, budget);
}
