//! Shared fixtures for the experiment harnesses and Criterion benches.
//!
//! Every binary in `src/bin/` reproduces one experiment of EXPERIMENTS.md;
//! the helpers here build the reference devices and circuits so the
//! harnesses stay focused on the sweep being reproduced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kmc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use se_orthodox::set::SingleElectronTransistor;
use se_orthodox::{TunnelSystem, TunnelSystemBuilder};

/// Gate capacitance of the reference SET, farad.
pub const REFERENCE_C_GATE: f64 = 1e-18;

/// Junction capacitance of the reference SET, farad.
pub const REFERENCE_C_JUNCTION: f64 = 0.5e-18;

/// Junction tunnel resistance of the reference SET, ohm.
pub const REFERENCE_R_JUNCTION: f64 = 100e3;

/// The reference single-electron transistor used across the experiments.
///
/// # Panics
///
/// Never panics: the reference parameters are valid by construction.
#[must_use]
pub fn reference_set() -> SingleElectronTransistor {
    SingleElectronTransistor::symmetric(
        REFERENCE_C_GATE,
        REFERENCE_C_JUNCTION,
        REFERENCE_R_JUNCTION,
    )
    .expect("reference parameters are valid")
}

/// The reference SET as a [`TunnelSystem`] for the Monte-Carlo and
/// master-equation engines, with the drain at `vds`, the source grounded
/// and the gate at `vg`.
///
/// # Panics
///
/// Never panics: the reference parameters are valid by construction.
#[must_use]
pub fn reference_system(vds: f64, vg: f64, q0: f64) -> TunnelSystem {
    let mut builder = TunnelSystemBuilder::new();
    let island = builder.island("island", q0);
    let drain = builder.external("drain", vds);
    let source = builder.external("source", 0.0);
    let gate = builder.external("gate", vg);
    builder.junction(
        "JD",
        drain,
        island,
        REFERENCE_C_JUNCTION,
        REFERENCE_R_JUNCTION,
    );
    builder.junction(
        "JS",
        island,
        source,
        REFERENCE_C_JUNCTION,
        REFERENCE_R_JUNCTION,
    );
    builder.capacitor("CG", gate, island, REFERENCE_C_GATE);
    builder.build().expect("reference parameters are valid")
}

/// A serial chain of `islands` islands between the drain and the source,
/// each with its own gate capacitor — used for the circuit-size scaling
/// benchmarks of experiment E10.
///
/// # Panics
///
/// Panics if `islands == 0`.
#[must_use]
pub fn chain_system(islands: usize, vds: f64, vg: f64) -> TunnelSystem {
    assert!(islands > 0, "the chain needs at least one island");
    let mut builder = TunnelSystemBuilder::new();
    let drain = builder.external("drain", vds);
    let source = builder.external("source", 0.0);
    let gate = builder.external("gate", vg);
    let mut previous = drain;
    for i in 0..islands {
        let island = builder.island(format!("island{i}"), 0.0);
        builder.junction(
            format!("J{i}"),
            previous,
            island,
            REFERENCE_C_JUNCTION,
            REFERENCE_R_JUNCTION,
        );
        builder.capacitor(format!("CG{i}"), gate, island, REFERENCE_C_GATE);
        previous = island;
    }
    builder.junction(
        format!("J{islands}"),
        previous,
        source,
        REFERENCE_C_JUNCTION,
        REFERENCE_R_JUNCTION,
    );
    builder.build().expect("chain parameters are valid")
}

/// An `n`×`n` island array with background charge — the shape of the
/// committed `array16x16_background.cir` at any size, without committing a
/// large deck. Each row is a drain → ground chain of `n + 1` horizontal
/// junctions (0.5 aF, 100 kΩ), adjacent rows are coupled by vertical
/// junctions (0.3 aF, 150 kΩ), and every island has a stray capacitor of
/// 0.03–0.2 aF, drawn from `seed`, to a `bg` electrode at 0.5 V. The
/// drain sits at `n` × 50 mV, inside the conducting range of the deck
/// benchmark's array sweeps.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn array_system(n: usize, seed: u64) -> TunnelSystem {
    let mut builder = TunnelSystemBuilder::new();
    let drain = builder.external("drain", array_drain_voltage(n));
    let ground = builder.external("ground", 0.0);
    let bg = builder.external("bg", ARRAY_BG_VOLTAGE);
    let branches = array_branches(n, seed);
    let islands: Vec<_> = (0..n * n)
        .map(|k| builder.island(array_node_name(n, k), 0.0))
        .collect();
    let endpoint = |node: ArrayNode| match node {
        ArrayNode::Drain => drain,
        ArrayNode::Ground => ground,
        ArrayNode::Bg => bg,
        ArrayNode::Island(k) => islands[k],
    };
    for branch in branches {
        let (a, b) = (endpoint(branch.a), endpoint(branch.b));
        match branch.resistance {
            Some(r) => builder.junction(branch.name, a, b, branch.capacitance, r),
            None => builder.capacitor(branch.name, a, b, branch.capacitance),
        };
    }
    builder.build().expect("array parameters are valid")
}

/// The deck text of [`array_system`]: the same islands, element names,
/// values and seeded strays (written so they parse back to the same
/// bits), with the drain driven by source `VD`, the ground rail on node
/// `0` and `bg` driven by `VB`, run as a one-point KMC `.dc` at 4.2 K.
/// It feeds the deck front end and the netlist → `TunnelSystem`
/// conversion decks of any size without committing them.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn array_deck(n: usize, seed: u64) -> String {
    let branches = array_branches(n, seed);
    let vd = array_drain_voltage(n);
    let mut deck = format!(
        "{n}x{n} island array with seeded background charge (KMC)\n\
         VD drain 0 {vd}\nVB bg 0 {ARRAY_BG_VOLTAGE}\n"
    );
    let node = |node: ArrayNode| match node {
        ArrayNode::Drain => "drain".to_string(),
        ArrayNode::Ground => "0".to_string(),
        ArrayNode::Bg => "bg".to_string(),
        ArrayNode::Island(k) => array_node_name(n, k),
    };
    for branch in branches {
        let (a, b, c) = (node(branch.a), node(branch.b), branch.capacitance);
        let name = branch.name;
        deck.push_str(&match branch.resistance {
            Some(r) => format!("{name} {a} {b} C={c:e} R={r:e}\n"),
            None => format!("{name} {a} {b} {c:e}\n"),
        });
    }
    deck.push_str(&format!(
        ".options temp=4.2 seed={seed} engine=kmc events=1000\n\
         .dc VD {vd} {vd} 1\n.print dc i(J0_0)\n.end\n"
    ));
    deck
}

/// The `bg` electrode voltage of [`array_system`], volt.
const ARRAY_BG_VOLTAGE: f64 = 0.5;

fn array_drain_voltage(n: usize) -> f64 {
    0.05 * n as f64
}

fn array_node_name(n: usize, k: usize) -> String {
    format!("n{}_{}", k / n, k % n)
}

/// A terminal of [`array_branches`]: a rail electrode or island `k`
/// (row-major).
#[derive(Clone, Copy)]
enum ArrayNode {
    Drain,
    Ground,
    Bg,
    Island(usize),
}

/// A junction (with its resistance) or a stray capacitor of the array.
struct ArrayBranch {
    name: String,
    a: ArrayNode,
    b: ArrayNode,
    capacitance: f64,
    resistance: Option<f64>,
}

/// The array's branches in build order, shared by [`array_system`] and
/// [`array_deck`]: horizontal junctions row by row, vertical junctions,
/// then the seeded stray capacitors.
fn array_branches(n: usize, seed: u64) -> Vec<ArrayBranch> {
    assert!(n > 0, "the array needs at least one island");
    let junction = |name: String, a, b, capacitance, resistance| ArrayBranch {
        name,
        a,
        b,
        capacitance,
        resistance: Some(resistance),
    };
    let mut branches = Vec::with_capacity(n * (3 * n + 1));
    for r in 0..n {
        for c in 0..=n {
            let a = if c == 0 {
                ArrayNode::Drain
            } else {
                ArrayNode::Island(r * n + c - 1)
            };
            let b = if c == n {
                ArrayNode::Ground
            } else {
                ArrayNode::Island(r * n + c)
            };
            branches.push(junction(format!("J{r}_{c}"), a, b, 0.5e-18, 100e3));
        }
    }
    for r in 0..n - 1 {
        for c in 0..n {
            let (a, b) = (
                ArrayNode::Island(r * n + c),
                ArrayNode::Island((r + 1) * n + c),
            );
            branches.push(junction(format!("JV{r}_{c}"), a, b, 0.3e-18, 150e3));
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..n * n {
        branches.push(ArrayBranch {
            name: format!("CB{k}"),
            a: ArrayNode::Bg,
            b: ArrayNode::Island(k),
            capacitance: 0.03e-18 + 0.17e-18 * rng.gen::<f64>(),
            resistance: None,
        });
    }
    branches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_fixtures_build() {
        let set = reference_set();
        assert!(set.gate_period() > 0.0);
        let system = reference_system(1e-3, 0.0, 0.0);
        assert_eq!(system.island_count(), 1);
        assert_eq!(system.junctions().len(), 2);
    }

    #[test]
    fn chain_grows_with_island_count() {
        let chain = chain_system(4, 1e-3, 0.0);
        assert_eq!(chain.island_count(), 4);
        assert_eq!(chain.junctions().len(), 5);
        assert_eq!(chain.capacitors().len(), 4);
    }

    #[test]
    fn array_has_the_deck_shape_and_is_seeded() {
        let array = array_system(4, 7);
        assert_eq!(array.island_count(), 16);
        assert_eq!(array.junctions().len(), 4 * 5 + 3 * 4);
        assert_eq!(array.capacitors().len(), 16);
        let strays = |system: &TunnelSystem| -> Vec<f64> {
            system.capacitors().iter().map(|c| c.capacitance).collect()
        };
        assert_eq!(strays(&array), strays(&array_system(4, 7)));
        assert_ne!(strays(&array), strays(&array_system(4, 8)));
        assert!(strays(&array)
            .iter()
            .all(|&c| (0.03e-18..0.2e-18).contains(&c)));
    }

    #[test]
    fn array_deck_is_the_text_twin_of_the_array_system() {
        let deck = se_netlist::parse_full_deck(&array_deck(5, 11)).unwrap();
        let plan = se_sim::compile(&deck).unwrap();
        assert_eq!(plan.runs.len(), 1);
        let from_deck = se_montecarlo::tunnel_system_from_netlist(&deck.netlist).unwrap();
        let built = array_system(5, 11);
        assert_eq!(from_deck.island_count(), built.island_count());
        assert_eq!(from_deck.external_count(), built.external_count());
        let junctions = |system: &TunnelSystem| -> Vec<(String, u64, u64)> {
            system
                .junctions()
                .iter()
                .map(|j| {
                    (
                        j.name.clone(),
                        j.capacitance.to_bits(),
                        j.resistance.to_bits(),
                    )
                })
                .collect()
        };
        let capacitors = |system: &TunnelSystem| -> Vec<(String, u64)> {
            system
                .capacitors()
                .iter()
                .map(|c| (c.name.clone(), c.capacitance.to_bits()))
                .collect()
        };
        assert_eq!(junctions(&from_deck), junctions(&built));
        assert_eq!(capacitors(&from_deck), capacitors(&built));
        let vd = deck.netlist.element("VD").unwrap();
        assert_eq!(
            vd.kind(),
            &se_netlist::ElementKind::VoltageSource {
                voltage: array_drain_voltage(5)
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least one island")]
    fn empty_array_panics() {
        let _ = array_deck(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one island")]
    fn empty_chain_panics() {
        let _ = chain_system(0, 0.0, 0.0);
    }
}
