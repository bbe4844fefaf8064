//! Seeded deck generator: the benchmark's inputs are deck *text*, made
//! here from the workload seed, so the program under test receives exactly
//! what a user would hand it and no deck is committed.
//!
//! Disorder comes from a 64-bit LCG (Knuth's MMIX constants) started from
//! `derive_seed(seed, workload)`: the same seed always gives byte-identical
//! decks, and two seeds give different disorder.

use std::fmt::Write;

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2-D island array with stray-capacitance background charge (KMC).
    ArrayBg,
    /// Long 1-D chain at 0.1 K with long event runs per bias point (KMC).
    ChainTransport,
    /// Small chain swept with a `repeats=16` seed ensemble (batched KMC).
    SmallEnsemble,
    /// Hot small chain solved as a 2-D `.dc` map (master equation).
    MasterMap,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ArrayBg,
        Workload::ChainTransport,
        Workload::SmallEnsemble,
        Workload::MasterMap,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArrayBg => "array_bg",
            Workload::ChainTransport => "chain_transport",
            Workload::SmallEnsemble => "small_ensemble",
            Workload::MasterMap => "master_map",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Deck size: `Full` is what the benchmark measures, `Tiny` the same deck
/// shape shrunk for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A seconds-free smoke size with the same structure.
    Tiny,
}

/// Deterministic 64-bit linear congruential generator.
pub struct Lcg(u64);

impl Lcg {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Lcg(se_exec::split_mix64(seed))
    }

    /// The next value, uniform in `[0, 1)` (top 53 bits).
    pub fn next_unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The next value, uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_unit()
    }
}

/// The deck text of `workload` at `scale` for benchmark seed `seed`.
pub fn generate(workload: Workload, scale: Scale, seed: u64) -> String {
    let index = Workload::ALL
        .iter()
        .position(|&w| w == workload)
        .expect("ALL lists every workload") as u64;
    let mut lcg = Lcg::new(se_exec::derive_seed(seed, index));
    let tiny = scale == Scale::Tiny;
    match workload {
        Workload::ArrayBg => {
            let n = if tiny { 4 } else { 32 };
            let events = if tiny { 300 } else { 1000 };
            let (start, stop, points) = if tiny { (0.3, 0.6, 2) } else { (1.3, 2.0, 8) };
            array_deck(n, &mut lcg, seed, events, (start, stop, points))
        }
        Workload::ChainTransport => {
            let n = if tiny { 16 } else { 256 };
            let events = if tiny { 2_000 } else { 150_000 };
            chain_transport_deck(n, &mut lcg, seed, events)
        }
        Workload::SmallEnsemble => {
            let points = if tiny { 6 } else { 49 };
            let events = if tiny { 1_000 } else { 5_000 };
            ensemble_deck(&mut lcg, seed, events, points)
        }
        Workload::MasterMap => {
            let (islands, window, points) = if tiny { (3, 3, 5) } else { (4, 5, 8) };
            master_map_deck(islands, window, &mut lcg, seed, points)
        }
    }
}

/// A `.dc` directive over `points` evenly spaced values from `start` to
/// `stop`, written with the exact step the planner divides back out.
fn dc_range(source: &str, start: f64, stop: f64, points: usize) -> String {
    let step = (stop - start) / (points - 1) as f64;
    format!("{source} {start} {stop} {step}")
}

/// `n`×`n` islands: each row is a drain → ground chain of `n + 1`
/// horizontal junctions, rows are coupled by vertical junctions, and every
/// island has a seeded stray capacitor (0.03–0.2 aF) to the biased `bg`
/// electrode — the frozen offset-charge landscape of the committed
/// `array16x16_background.cir`, at any size.
pub fn array_deck(
    n: usize,
    lcg: &mut Lcg,
    seed: u64,
    events: usize,
    (start, stop, points): (f64, f64, usize),
) -> String {
    let mut deck = String::new();
    let _ = writeln!(
        deck,
        "{n}x{n} junction array with seeded background charges (KMC)"
    );
    deck.push_str("VD drain 0 0\nVB bg 0 0.5\n");
    let node = |r: usize, c: usize| format!("n{r}_{c}");
    let mut j = 0;
    let mut drain_side = Vec::with_capacity(n);
    for r in 0..n {
        for c in 0..=n {
            j += 1;
            let a = if c == 0 {
                "drain".to_string()
            } else {
                node(r, c - 1)
            };
            let b = if c == n { "0".to_string() } else { node(r, c) };
            if c == 0 {
                drain_side.push(j);
            }
            let _ = writeln!(deck, "J{j} {a} {b} C=0.5a R=100k");
        }
    }
    for r in 0..n - 1 {
        for c in 0..n {
            j += 1;
            let _ = writeln!(deck, "J{j} {} {} C=0.3a R=150k", node(r, c), node(r + 1, c));
        }
    }
    for r in 0..n {
        for c in 0..n {
            let cap = lcg.uniform(0.03, 0.2);
            let _ = writeln!(deck, "CB{} bg {} {cap:.4}a", r * n + c + 1, node(r, c));
        }
    }
    let _ = writeln!(
        deck,
        ".options temp=4.2 seed={seed} engine=kmc events={events}"
    );
    let _ = writeln!(deck, ".dc {}", dc_range("VD", start, stop, points));
    let probes: Vec<String> = drain_side.iter().map(|j| format!("i(J{j})")).collect();
    let _ = writeln!(deck, ".print dc {}\n.end", probes.join(" "));
    deck
}

/// `n` islands in series between drain and ground, every island gated at
/// the charge-degeneracy point e/(2·Cg) so the chain conducts at small
/// bias; the seed disorders the tunnel resistances (80–120 kΩ), which
/// moves rates but keeps the electrostatics of the committed
/// `chain256_transport.cir`.
pub fn chain_transport_deck(n: usize, lcg: &mut Lcg, seed: u64, events: usize) -> String {
    let mut deck = String::new();
    let _ = writeln!(deck, "{n}-island chain transport (KMC, seeded resistances)");
    deck.push_str("VD drain 0 0\nVG gate 0 0.0801088\n");
    for j in 1..=n + 1 {
        let a = if j == 1 {
            "drain".to_string()
        } else {
            format!("n{}", j - 2)
        };
        let b = if j == n + 1 {
            "0".to_string()
        } else {
            format!("n{}", j - 1)
        };
        let r = lcg.uniform(80.0, 120.0);
        let _ = writeln!(deck, "J{j} {a} {b} C=0.5a R={r:.3}k");
    }
    for i in 0..n {
        let _ = writeln!(deck, "CG{} gate n{i} 1a", i + 1);
    }
    let _ = writeln!(
        deck,
        ".options temp=0.1 seed={seed} engine=kmc events={events}"
    );
    let _ = writeln!(deck, ".dc {}", dc_range("VD", 0.1, 0.16, 4));
    let _ = writeln!(deck, ".print dc i(J1) i(J{})\n.end", n + 1);
    deck
}

/// Four gated islands in series with seeded junction capacitances and
/// resistances, swept over `points` drain biases with a 16-replica seed
/// ensemble per point.
pub fn ensemble_deck(lcg: &mut Lcg, seed: u64, events: usize, points: usize) -> String {
    let islands = 4;
    let mut deck = String::new();
    deck.push_str("4-island chain seed ensemble (batched KMC)\n");
    deck.push_str("VD drain 0 0\nVG gate 0 0.04\n");
    for j in 1..=islands + 1 {
        let a = if j == 1 {
            "drain".to_string()
        } else {
            format!("n{}", j - 2)
        };
        let b = if j == islands + 1 {
            "0".to_string()
        } else {
            format!("n{}", j - 1)
        };
        let c = lcg.uniform(0.4, 0.6);
        let r = lcg.uniform(80.0, 120.0);
        let _ = writeln!(deck, "J{j} {a} {b} C={c:.4}a R={r:.3}k");
    }
    for i in 0..islands {
        let _ = writeln!(deck, "CG{} gate n{i} 1a", i + 1);
    }
    let _ = writeln!(
        deck,
        ".options temp=2 seed={seed} engine=kmc events={events} repeats=16"
    );
    let _ = writeln!(deck, ".dc {}", dc_range("VD", 0.0, 0.24, points));
    let _ = writeln!(deck, ".print dc i(J1) i(J{})\n.end", islands + 1);
    deck
}

/// `islands` gated islands in series at 100 K, solved by the master
/// equation with charge window ±`window` over a `points`×`points` map of
/// drain (fast axis) and gate (slow axis) bias. The seed disorders the
/// junction capacitances and resistances by only ±2–5 %: solver effort
/// depends on the circuit, and the map's cost must not swing from seed to
/// seed.
pub fn master_map_deck(
    islands: usize,
    window: usize,
    lcg: &mut Lcg,
    seed: u64,
    points: usize,
) -> String {
    let mut deck = String::new();
    let _ = writeln!(
        deck,
        "{islands}-island chain stability map (master equation)"
    );
    deck.push_str("VD drain 0 0\nVG gate 0 0\n");
    for j in 1..=islands + 1 {
        let a = if j == 1 {
            "drain".to_string()
        } else {
            format!("n{}", j - 2)
        };
        let b = if j == islands + 1 {
            "0".to_string()
        } else {
            format!("n{}", j - 1)
        };
        let c = lcg.uniform(0.49, 0.51);
        let r = lcg.uniform(95.0, 105.0);
        let _ = writeln!(deck, "J{j} {a} {b} C={c:.4}a R={r:.3}k");
    }
    for i in 0..islands {
        let _ = writeln!(deck, "CG{} gate n{i} 1a", i + 1);
    }
    let _ = writeln!(
        deck,
        ".options temp=100 seed={seed} engine=master window={window}"
    );
    let _ = writeln!(
        deck,
        ".dc {} {}",
        dc_range("VD", -0.2, 0.2, points),
        dc_range("VG", 0.0, 0.16, points)
    );
    let _ = writeln!(deck, ".print dc i(J1) i(J{})\n.end", islands + 1);
    deck
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_montecarlo::tunnel_system_from_netlist;
    use se_netlist::parse_full_deck;

    #[test]
    fn same_seed_gives_identical_bytes() {
        for workload in Workload::ALL {
            for scale in [Scale::Tiny, Scale::Full] {
                assert_eq!(
                    generate(workload, scale, 7),
                    generate(workload, scale, 7),
                    "{}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_disorder() {
        for workload in Workload::ALL {
            // Compare the element cards only: the `.options seed=` line
            // differs trivially, the disorder must differ too.
            let cards = |seed| {
                generate(workload, Scale::Full, seed)
                    .lines()
                    .filter(|line| !line.starts_with('.'))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_ne!(cards(1), cards(2), "{}", workload.name());
        }
    }

    #[test]
    fn generated_16x16_array_matches_the_committed_deck_shape() {
        let committed = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../examples/decks/array16x16_background.cir"
        ))
        .expect("the committed 16x16 deck is readable");
        let mut lcg = Lcg::new(3);
        let generated = array_deck(16, &mut lcg, 23, 1500, (0.2, 1.0, 3));
        let shape = |text: &str| {
            let deck = parse_full_deck(text).expect("deck parses");
            let plan = se_sim::compile(&deck).expect("deck compiles");
            assert_eq!(plan.runs.len(), 1);
            let system = tunnel_system_from_netlist(&deck.netlist).expect("system builds");
            (system.island_count(), system.junctions().len())
        };
        assert_eq!(shape(&generated), shape(&committed));
        assert_eq!(shape(&generated), (256, 512));
    }

    #[test]
    fn full_decks_plan_the_documented_point_counts() {
        let points = |workload| {
            let deck = parse_full_deck(&generate(workload, Scale::Full, 1)).unwrap();
            let plan = se_sim::compile(&deck).unwrap();
            match &plan.runs[0].analysis {
                se_sim::PlannedAnalysis::Sweep { values, .. } => values.len(),
                se_sim::PlannedAnalysis::Map {
                    outer_values,
                    inner_values,
                    ..
                } => outer_values.len() * inner_values.len(),
                se_sim::PlannedAnalysis::Transient { .. } => 0,
            }
        };
        assert_eq!(points(Workload::ArrayBg), 8);
        assert_eq!(points(Workload::ChainTransport), 4);
        assert_eq!(points(Workload::SmallEnsemble), 49);
        assert_eq!(points(Workload::MasterMap), 8 * 8);
    }
}
