//! Validation of the incremental physics core against full recomputation,
//! plus a golden regression pinning the three stationary engines to the
//! Coulomb-staircase characteristic.
//!
//! The incremental hot path (`LiveState` + `RateContext`) replaces a dense
//! potential solve per event with axpy corrections; these tests are the
//! contract that the shortcut is exact: over random circuits, random event
//! walks and random drive changes, cached potentials and per-event ΔF must
//! match the from-scratch computation to 1e-12 relative.

use proptest::prelude::*;
use single_electronics::montecarlo::{
    MasterEquation, MonteCarloSimulator, SimulationOptions, StationarySolver,
};
use single_electronics::numeric::partial_sum::PartialSumTree;
use single_electronics::orthodox::live::{LiveState, RateContext};
use single_electronics::orthodox::set::SingleElectronTransistor;
use single_electronics::orthodox::{
    tunnel_rate, ChargeState, Direction, EventRateTable, TunnelEvent, TunnelSystem,
    TunnelSystemBuilder,
};

/// A randomly parameterised island chain: every island couples to the
/// previous endpoint (lead for the first) through a tunnel junction, plus
/// an optional gate capacitor, which keeps the capacitance matrix
/// non-singular for every parameter draw.
#[derive(Debug, Clone)]
struct RandomCircuit {
    junction_caps: Vec<f64>,
    junction_resistances: Vec<f64>,
    gate_caps: Vec<Option<f64>>,
    backgrounds: Vec<f64>,
    vds: f64,
    vg: f64,
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

/// Strategy producing random 1–4-island chain circuits.
#[derive(Debug)]
struct ArbCircuit;

impl Strategy for ArbCircuit {
    type Value = RandomCircuit;

    fn sample(&self, rng: &mut proptest::TestRng) -> RandomCircuit {
        let islands = 1 + rng.below(4) as usize;
        let mut range = |lo: f64, hi: f64| lo + rng.unit_f64() * (hi - lo);
        let junction_caps = (0..islands).map(|_| range(0.1e-18, 2.0e-18)).collect();
        let junction_resistances = (0..islands).map(|_| range(50e3, 500e3)).collect();
        let gate_caps = (0..islands)
            .map(|_| {
                let cg = range(0.0, 1.5e-18);
                // A third of the islands go ungated — the chain junctions
                // keep the capacitance matrix non-singular regardless.
                (cg > 0.5e-18).then_some(cg)
            })
            .collect();
        let backgrounds = (0..islands).map(|_| range(-1.0, 1.0)).collect();
        RandomCircuit {
            junction_caps,
            junction_resistances,
            gate_caps,
            backgrounds,
            vds: range(-0.05, 0.05),
            vg: range(-0.2, 0.2),
        }
    }
}

fn assert_live_matches_full(system: &TunnelSystem, live: &LiveState, temperature: f64) {
    let exact = system.island_potentials(live.state());
    for (cached, full) in live.potentials().iter().zip(&exact) {
        assert!(
            (cached - full).abs() <= 1e-12 * full.abs().max(1e-9),
            "potential drifted: cached {cached} vs full {full}"
        );
    }
    let ctx = RateContext::new(system, temperature).unwrap();
    let mut rates = Vec::new();
    ctx.fill_rates(system, live, &mut rates);
    for (idx, event) in system.events().into_iter().enumerate() {
        let df_incremental = live.delta_free_energy(system, event);
        let df_full = system.delta_free_energy(live.state(), event);
        assert!(
            (df_incremental - df_full).abs() <= 1e-12 * df_full.abs().max(1e-25),
            "ΔF drifted for event {idx}: incremental {df_incremental} vs full {df_full}"
        );
        let rate_full = tunnel_rate(df_full, system.event_resistance(event), temperature).unwrap();
        let scale = rate_full.abs().max(1e-6);
        assert!(
            (rates[idx] - rate_full).abs() <= 1e-9 * scale,
            "rate drifted for event {idx}: table {} vs full {rate_full}",
            rates[idx]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over random circuits, random starting states and random event walks,
    /// the incremental potentials and ΔF match the full recomputation to
    /// 1e-12.
    #[test]
    fn prop_incremental_matches_full_recompute_over_event_walks(
        circuit in ArbCircuit,
        start in proptest::collection::vec(-2_i64..=2, 4..=4),
        walk in proptest::collection::vec(0_usize..10_000, 1..200),
    ) {
        let islands = circuit.gate_caps.len();
        let system = circuit.build();
        let state = ChargeState(start[..islands].to_vec());
        let mut live = LiveState::new(&system, state);
        for &step in &walk {
            let event = system.event(step % system.event_count());
            live.apply(&system, event);
        }
        assert_live_matches_full(&system, &live, 1.0);
    }

    /// Drive-voltage and background-charge changes folded in by
    /// `LiveState::sync` match a from-scratch rebuild to 1e-12.
    #[test]
    fn prop_incremental_matches_full_recompute_over_drive_changes(
        circuit in ArbCircuit,
        voltages in proptest::collection::vec(-0.1_f64..0.1, 8..=8),
        backgrounds in proptest::collection::vec(-0.5_f64..0.5, 4..=4),
        walk in proptest::collection::vec(0_usize..10_000, 0..50),
    ) {
        let islands = circuit.gate_caps.len();
        let mut system = circuit.build();
        let mut live = LiveState::new(&system, ChargeState::neutral(islands));
        for (i, chunk) in voltages.chunks(2).enumerate() {
            // Alternate voltage changes with event applications and
            // background-charge moves — the three mutation paths the sync
            // machinery must fold in.
            system.set_external_voltage(i % 3, chunk[0]).unwrap();
            live.sync(&system);
            if let Some(&w) = walk.get(i) {
                let event = system.event(w % system.event_count());
                live.apply(&system, event);
            }
            system
                .set_background_charge(i % islands, backgrounds[i % backgrounds.len()])
                .unwrap();
            live.sync(&system);
        }
        assert_live_matches_full(&system, &live, 4.2);
    }
}

/// At a refill boundary the event table holds `fill_rates`' bits exactly.
fn assert_table_is_fill_rates(
    system: &TunnelSystem,
    ctx: &RateContext,
    live: &LiveState,
    table: &EventRateTable,
    context: &str,
) {
    let mut rates = Vec::new();
    ctx.fill_rates(system, live, &mut rates);
    for (e, &rate) in rates.iter().enumerate() {
        assert_eq!(
            table.rate(e).to_bits(),
            rate.to_bits(),
            "{context}: event {e} diverged from fill_rates at a refill"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incremental event-rate table against the reference fill: over
    /// random circuits, temperatures and event walks, a refill boundary
    /// (full potential refresh + table sync — the cadence `LiveState`
    /// re-synchronizes on) reproduces `RateContext::fill_rates` bit for
    /// bit. Between refills the axpy-maintained rates may differ from a
    /// fresh fill in final ulps; at every refill they must not differ at
    /// all.
    #[test]
    fn prop_event_table_refill_matches_fill_rates_bit_for_bit(
        circuit in ArbCircuit,
        temperature_index in 0usize..4,
        walk in proptest::collection::vec(0_usize..10_000, 1..300),
    ) {
        let temperature = [0.0, 0.1, 1.0, 4.2][temperature_index];
        let islands = circuit.gate_caps.len();
        let system = circuit.build();
        let ctx = RateContext::new(&system, temperature).unwrap();
        let mut live = LiveState::new(&system, ChargeState::neutral(islands));
        let mut table = EventRateTable::new(&system, &ctx, &live);
        for &step in &walk {
            let event = system.event(step % system.event_count());
            live.apply(&system, event);
            table.apply_event(&system, &ctx, &live, event);
        }
        live.refresh(&system);
        prop_assert!(table.sync(&system, &ctx, &live), "refresh must trigger a refill");
        assert_table_is_fill_rates(&system, &ctx, &live, &table, "after the walk");
    }
}

/// Frozen-cutoff reclassification mid-run: deep in Coulomb blockade at low
/// temperature, the axpy-maintained ΔF of individual events crosses the
/// frozen cutoff in both directions between refills. The table must hard-
/// zero an event the moment its ΔF exceeds the cutoff and revive it when
/// the walk brings it back — with no full refill in between — and the next
/// refill boundary must still reproduce `fill_rates` bit for bit.
#[test]
fn event_table_reclassifies_frozen_events_across_the_cutoff_mid_run() {
    let mut b = TunnelSystemBuilder::new();
    let drain = b.external("drain", 5e-3);
    let source = b.external("source", 0.0);
    let gate = b.external("gate", 0.0);
    let i0 = b.island("i0", 0.0);
    let i1 = b.island("i1", 0.0);
    b.junction("J0", drain, i0, 0.7e-18, 80e3);
    b.junction("J1", i0, i1, 0.4e-18, 120e3);
    b.junction("J2", i1, source, 0.6e-18, 90e3);
    b.capacitor("Cg0", gate, i0, 0.3e-18);
    b.capacitor("Cg1", gate, i1, 0.5e-18);
    let system = b.build().unwrap();

    let ctx = RateContext::new(&system, 0.02).unwrap();
    let mut live = LiveState::new(&system, ChargeState::neutral(2));
    let mut table = EventRateTable::new(&system, &ctx, &live);
    let mut froze = false;
    let mut thawed = false;
    let mut was_zero: Vec<bool> = (0..table.event_count())
        .map(|e| table.rate(e) == 0.0)
        .collect();
    let mut lcg = 12345_u64;
    for _ in 0..4000 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let event = system.event((lcg >> 33) as usize % system.event_count());
        live.apply(&system, event);
        table.apply_event(&system, &ctx, &live, event);
        assert!(
            !table.sync(&system, &ctx, &live),
            "no full refill may occur during the walk"
        );
        for (e, seen_zero) in was_zero.iter_mut().enumerate() {
            let zero = table.rate(e) == 0.0;
            froze |= zero && !*seen_zero;
            thawed |= !zero && *seen_zero;
            *seen_zero = zero;
        }
    }
    assert!(froze, "the walk must freeze at least one event");
    assert!(thawed, "the walk must thaw at least one frozen event");

    live.refresh(&system);
    assert!(table.sync(&system, &ctx, &live));
    assert_table_is_fill_rates(&system, &ctx, &live, &table, "after the walk");
}

/// The entry-by-entry event pass, kept as the reference the table's run
/// pass must reproduce bit for bit: strong lists as sorted index lists
/// rebuilt from the `junction_coupling` threshold, one axpy per listed
/// entry, each rate by the `fill_rates` cutoff-then-cascade expression,
/// and the total from a fresh `PartialSumTree::fill`.
struct EntrywiseTable {
    /// `strong[f]`: every `(j, g)` with `|g| = |junction_coupling(f, j)|`
    /// above the build-time threshold, ascending in `j`.
    strong: Vec<Vec<(usize, f64)>>,
    df: Vec<f64>,
    rates: Vec<f64>,
    tree: PartialSumTree,
}

impl EntrywiseTable {
    fn new(system: &TunnelSystem, ctx: &RateContext, live: &LiveState) -> Self {
        let junctions = system.junctions().len();
        let g_max = (0..junctions)
            .flat_map(|f| (0..junctions).map(move |j| system.junction_coupling(f, j).abs()))
            .fold(0.0_f64, f64::max);
        let strong = (0..junctions)
            .map(|f| {
                (0..junctions)
                    .map(|j| (j, system.junction_coupling(f, j)))
                    .filter(|(_, g)| g.abs() > 1e-7 * g_max)
                    .collect()
            })
            .collect();
        let mut table = EntrywiseTable {
            strong,
            df: vec![0.0; 2 * junctions],
            rates: vec![0.0; 2 * junctions],
            tree: PartialSumTree::new(2 * junctions),
        };
        table.refill(ctx, live);
        table
    }

    fn rate(ctx: &RateContext, j: usize, df: f64) -> f64 {
        if df > ctx.frozen_cutoff() {
            0.0
        } else {
            ctx.event_rate(j, df)
        }
    }

    fn refill(&mut self, ctx: &RateContext, live: &LiveState) {
        ctx.fill_delta_f(live, &mut self.df);
        for (e, rate) in self.rates.iter_mut().enumerate() {
            *rate = Self::rate(ctx, e / 2, self.df[e]);
        }
        self.tree.fill(&self.rates);
    }

    fn apply_event(&mut self, ctx: &RateContext, event: TunnelEvent) {
        let sign = match event.direction {
            Direction::AToB => 1.0,
            Direction::BToA => -1.0,
        };
        for &(j, g) in &self.strong[event.junction] {
            let shift = sign * g;
            self.df[2 * j] += shift;
            self.df[2 * j + 1] -= shift;
            self.rates[2 * j] = Self::rate(ctx, j, self.df[2 * j]);
            self.rates[2 * j + 1] = Self::rate(ctx, j, self.df[2 * j + 1]);
        }
        self.tree.fill(&self.rates);
    }

    fn assert_matches(&self, table: &EventRateTable, context: &str) {
        assert_eq!(
            table.total().to_bits(),
            self.tree.total().to_bits(),
            "{context}: total"
        );
        for (e, (&rate, &df)) in self.rates.iter().zip(&self.df).enumerate() {
            assert_eq!(
                table.rate(e).to_bits(),
                rate.to_bits(),
                "{context}: rate of event {e}"
            );
            assert_eq!(
                table.delta_f(e).to_bits(),
                df.to_bits(),
                "{context}: ΔF of event {e}"
            );
        }
    }
}

/// A single-electron transistor with a leakage junction straight from
/// drain to source, listed between the dot's two junctions: the leak moves
/// no island charge, so its strong list is empty and the dot junctions'
/// lists have a gap.
fn leaky_set(vd: f64) -> TunnelSystem {
    let mut b = TunnelSystemBuilder::new();
    let dot = b.island("dot", 0.1);
    let drain = b.external("drain", vd);
    let source = b.external("source", 0.0);
    let gate = b.external("gate", 0.02);
    b.junction("JD", drain, dot, 0.7e-18, 80e3);
    b.junction("Jleak", drain, source, 0.1e-18, 1e9);
    b.junction("JS", dot, source, 0.6e-18, 90e3);
    b.capacitor("Cg", gate, dot, 0.3e-18);
    b.build().expect("the leaky SET is non-singular")
}

/// Two islands joined by two parallel junctions, each island also tied to
/// one lead and one gate: the parallel pair's couplings to each other are
/// `±` their own diagonal coupling, the case where an off-diagonal entry
/// meets the table's strongest value.
fn parallel_pair(c_a: f64, c_b: f64, c_lead: f64) -> TunnelSystem {
    let mut b = TunnelSystemBuilder::new();
    let left = b.island("left", 0.0);
    let right = b.island("right", 0.2);
    let drain = b.external("drain", 0.01);
    let source = b.external("source", 0.0);
    let gate = b.external("gate", 0.05);
    b.junction("JD", drain, left, c_lead, 100e3);
    b.junction("JA", left, right, c_a, 120e3);
    b.junction("JB", right, left, c_b, 80e3);
    b.junction("JS", right, source, c_lead, 100e3);
    b.capacitor("CgL", gate, left, 0.2e-18);
    b.capacitor("CgR", gate, right, 0.3e-18);
    b.build().expect("the parallel pair is non-singular")
}

/// Every strong list is the definition, bit for bit: the junctions `j`
/// with `|junction_coupling(f, j)| > 1e-7 · max |junction_coupling|`, as
/// maximal ascending runs, each value the dense coupling's bits.
fn assert_strong_lists_are_the_definition(system: &TunnelSystem, context: &str) {
    let junctions = system.junctions().len();
    let g_max = (0..junctions)
        .flat_map(|f| (0..junctions).map(move |j| system.junction_coupling(f, j).abs()))
        .fold(0.0_f64, f64::max);
    for f in 0..junctions {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let mut values = Vec::new();
        for (j, idx) in (0..junctions).zip(0_u32..) {
            let g = system.junction_coupling(f, j);
            if g.abs() > 1e-7 * g_max {
                match runs.last_mut() {
                    Some((start, len)) if *start + *len == idx => *len += 1,
                    _ => runs.push((idx, 1)),
                }
                values.push(g.to_bits());
            }
        }
        let strong = system.junction_strong_couplings(f);
        assert_eq!(strong.runs(), &runs[..], "{context}: runs of junction {f}");
        assert_eq!(
            strong.len(),
            values.len(),
            "{context}: length of junction {f}"
        );
        let stored: Vec<u64> = system
            .junction_strong_coupling_values(f)
            .iter()
            .map(|g| g.to_bits())
            .collect();
        assert_eq!(stored, values, "{context}: values of junction {f}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The build's one-pass strong lists equal the threshold definition
    /// over stray-capacitance arrays of 2×2 to 6×6 islands, random chains,
    /// a SET with a junction between its two electrodes (an empty list)
    /// and two parallel junctions on one island pair.
    #[test]
    fn prop_strong_lists_equal_the_threshold_definition(
        n in 2_usize..=6,
        seed in 0_u64..1_000_000,
        chain in ArbCircuit,
        vd in 0.0_f64..0.4,
        c_a in 0.1e-18_f64..2.0e-18,
        c_b in 0.1e-18_f64..2.0e-18,
        c_lead in 0.1e-18_f64..2.0e-18,
    ) {
        assert_strong_lists_are_the_definition(
            &se_bench::array_system(n, seed),
            &format!("{n}x{n} array, seed {seed}"),
        );
        assert_strong_lists_are_the_definition(&chain.build(), &format!("{chain:?}"));
        assert_strong_lists_are_the_definition(&leaky_set(vd), "leaky SET");
        assert_strong_lists_are_the_definition(
            &parallel_pair(c_a, c_b, c_lead),
            &format!("parallel pair {c_a:e} {c_b:e} {c_lead:e}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The table's run pass is the entry-by-entry pass: over random event
    /// walks at T ∈ {0, 0.1, 4.2} K — on a small stray-capacitance array
    /// (lists of several runs with gaps), a 64-island chain (one run per
    /// list), a one-island SET (a 4-event table, far below the Auto
    /// threshold) and a SET with an electrode-to-electrode junction (an
    /// empty list) — the table and [`EntrywiseTable`] agree in every ΔF,
    /// every leaf and the total, bit for bit, after every event; and at
    /// every refill the table is bitwise `fill_rates`.
    #[test]
    fn prop_run_pass_is_bitwise_the_entrywise_pass(
        circuit in 0_usize..4,
        temperature_index in 0_usize..3,
        seed in 0_u64..1_000_000,
        vd in 0.0_f64..0.4,
        walk in proptest::collection::vec(0_usize..100_000, 1..250),
    ) {
        let temperature = [0.0, 0.1, 4.2][temperature_index];
        let system = match circuit {
            0 => se_bench::array_system(4, seed),
            1 => se_bench::chain_system(64, vd, 0.08),
            2 => se_bench::chain_system(1, vd, 0.08),
            _ => leaky_set(vd),
        };
        let ctx = RateContext::new(&system, temperature).unwrap();
        let mut live = LiveState::new(&system, ChargeState::neutral(system.island_count()));
        let mut table = EventRateTable::new(&system, &ctx, &live);
        let mut reference = EntrywiseTable::new(&system, &ctx, &live);
        assert_table_is_fill_rates(&system, &ctx, &live, &table, "fresh");
        reference.assert_matches(&table, "fresh");
        for (step, &draw) in walk.iter().enumerate() {
            let event = system.event(draw % system.event_count());
            live.apply(&system, event);
            table.apply_event(&system, &ctx, &live, event);
            reference.apply_event(&ctx, event);
            let context = format!("T = {temperature}, circuit {circuit}, step {step}");
            reference.assert_matches(&table, &context);
            // Every 97th draw also forces an exact refresh mid-walk.
            if draw % 97 == 0 {
                live.refresh(&system);
                prop_assert!(table.sync(&system, &ctx, &live));
                reference.refill(&ctx, &live);
                assert_table_is_fill_rates(&system, &ctx, &live, &table, &context);
                reference.assert_matches(&table, &context);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The preconditioned BiCGSTAB solver and the anchored Gauss–Seidel
    /// reference solve the same master equation: over random chain
    /// circuits, temperatures and state windows, the stationary
    /// distributions agree to 1e-10 absolutely and the junction currents
    /// to 1e-8 relative, and each solution reports its true provenance.
    #[test]
    fn prop_krylov_and_gauss_seidel_solve_the_same_master_equation(
        circuit in ArbCircuit,
        temperature in 0.5_f64..4.2,
        window in 2_i64..5,
    ) {
        let islands = circuit.gate_caps.len();
        let gauss_seidel = MasterEquation::new(circuit.build(), temperature)
            .unwrap()
            .with_window(window)
            .unwrap()
            .with_solver(StationarySolver::GaussSeidel)
            .solve()
            .unwrap();
        let krylov = MasterEquation::new(circuit.build(), temperature)
            .unwrap()
            .with_window(window)
            .unwrap()
            .solve()
            .unwrap();
        prop_assert_eq!(gauss_seidel.stats().solver, "gauss-seidel");
        prop_assert!(
            krylov.stats().solver == "bicgstab-jacobi"
                || krylov.stats().solver == "gauss-seidel(fallback)",
            "unexpected solver provenance {}", krylov.stats().solver
        );
        for (index, (p_ref, p_krylov)) in gauss_seidel
            .probabilities()
            .iter()
            .zip(krylov.probabilities())
            .enumerate()
        {
            prop_assert!(
                (p_ref - p_krylov).abs() <= 1e-10,
                "state {index}: gauss-seidel {p_ref} vs krylov {p_krylov}"
            );
        }
        for junction in (0..=islands).map(|j| format!("J{j}")) {
            let i_ref = gauss_seidel.junction_current(&junction).unwrap();
            let i_krylov = krylov.junction_current(&junction).unwrap();
            // Mixed tolerance: currents are probability differences, so a
            // near-cancelled current keeps the solvers' 1e-10 distribution
            // agreement rather than an 1e-8 relative one.
            prop_assert!(
                (i_ref - i_krylov).abs() <= 1e-8 * i_ref.abs() + 1e-18,
                "{junction}: gauss-seidel {i_ref} vs krylov {i_krylov}"
            );
        }
    }
}

/// Golden regression: the Coulomb staircase of an asymmetric double
/// junction, pinned at fixed bias points for all three engine families.
///
/// The analytic values are hard-coded from the specialised birth–death SET
/// solver (`se-orthodox::set`), whose mathematics this PR does not touch;
/// the master equation must reproduce them to 1 %, the kinetic Monte-Carlo
/// estimate to 10 %. A change in any engine's physics shows up here before
/// it shows up in an experiment harness.
#[test]
fn golden_staircase_pins_all_three_engines() {
    // E2's asymmetric staircase device: C/R asymmetry makes the steps deep.
    let cg = 1e-18;
    let (c_d, c_s) = (0.1e-18, 1.0e-18);
    let (r_d, r_s) = (1000e3, 50e3);
    let temperature = 1.0;
    // The analytic solver takes (gate, source, drain) parameter order.
    let set = SingleElectronTransistor::new(cg, c_s, c_d, r_s, r_d).unwrap();

    let build = |vds: f64| -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", 0.0);
        b.junction("JD", drain, island, c_d, r_d);
        b.junction("JS", island, source, c_s, r_s);
        b.capacitor("CG", gate, island, cg);
        b.build().unwrap()
    };

    // (Vds, golden analytic current in ampere — regenerate with
    // `set.current(vds, 0.0, 0.0, 1.0)` if the device parameters change.)
    let golden: [(f64, f64); 4] = [
        (0.1, GOLDEN_100),
        (0.15, GOLDEN_150),
        (0.2, GOLDEN_200),
        (0.3, GOLDEN_300),
    ];
    for (vds, pinned) in golden {
        let analytic = set.current(vds, 0.0, 0.0, temperature).unwrap();
        assert!(
            (analytic - pinned).abs() <= 1e-3 * pinned.abs(),
            "analytic staircase moved at Vds = {vds}: {analytic} vs pinned {pinned}"
        );

        // The staircase at 0.3 V spreads over ~8 charge states; a wide
        // window is exactly what the sparse state space makes cheap.
        let master = MasterEquation::new(build(vds), temperature)
            .unwrap()
            .with_window(12)
            .unwrap()
            .solve()
            .unwrap()
            .junction_current("JD")
            .unwrap();
        assert!(
            (master - pinned).abs() <= 0.01 * pinned.abs(),
            "master staircase at Vds = {vds}: {master} vs pinned {pinned}"
        );

        let mut kmc =
            MonteCarloSimulator::new(build(vds), SimulationOptions::new(temperature).with_seed(7))
                .unwrap();
        let sampled = kmc
            .run_events(60_000)
            .unwrap()
            .junction_current("JD")
            .unwrap();
        assert!(
            (sampled - pinned).abs() <= 0.1 * pinned.abs(),
            "kmc staircase at Vds = {vds}: {sampled} vs pinned {pinned}"
        );
    }
}

// Golden analytic staircase currents (ampere); see the test above.
const GOLDEN_100: f64 = 5.352991434652985e-8;
const GOLDEN_150: f64 = 9.668731531978366e-8;
const GOLDEN_200: f64 = 1.4122215866572211e-7;
const GOLDEN_300: f64 = 2.3120211081667966e-7;

/// FNV-1a over the bits of every public table the `TunnelSystem` build
/// produces: the coupling of every junction pair, the strong runs and
/// values, the self-charging constants and the coupling margin, the island
/// potentials of a fixed charge state, and the cached potentials after one
/// drive step on every electrode (which applies the drive responses).
fn build_fingerprint(system: &TunnelSystem) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let junctions = system.junctions().len();
    for f in 0..junctions {
        for j in 0..junctions {
            mix(system.junction_coupling(f, j).to_bits());
        }
        for &(start, len) in system.junction_strong_couplings(f).runs() {
            mix(u64::from(start) << 32 | u64::from(len));
        }
        for g in system.junction_strong_coupling_values(f) {
            mix(g.to_bits());
        }
        mix(system.junction_self_charging(f).to_bits());
    }
    mix(system.coupling_margin().to_bits());
    let islands = system.island_count();
    let state = ChargeState((0..islands).map(|i| i as i64 % 3 - 1).collect());
    for phi in system.island_potentials(&state) {
        mix(phi.to_bits());
    }
    let mut driven = system.clone();
    let mut live = LiveState::new(&driven, state);
    for k in 0..driven.external_count() {
        let v = driven.external_voltage(k) + 0.013 * (k + 1) as f64;
        driven.set_external_voltage(k, v).unwrap();
    }
    live.sync(&driven);
    for phi in live.potentials() {
        mix(phi.to_bits());
    }
    hash
}

/// The build tables are pinned to the bit: a refactor of the
/// `TunnelSystem` build that moves any coupling, strong list, potential or
/// drive response fails here, at the table itself, before any golden
/// trace does.
#[test]
fn build_tables_match_their_recorded_fingerprints() {
    let cases = [
        (
            "16x16 array, seed 3",
            se_bench::array_system(16, 3),
            0x705b_4344_50b3_4c9d_u64,
        ),
        (
            "7x7 array, seed 1",
            se_bench::array_system(7, 1),
            0x37d1_a51b_161c_e044,
        ),
        (
            "64-island chain",
            se_bench::chain_system(64, 0.1, 0.05),
            0xa269_a1bb_e11a_c38a,
        ),
    ];
    for (name, system, recorded) in cases {
        assert_eq!(
            build_fingerprint(&system),
            recorded,
            "{name}: build tables moved"
        );
    }
}
