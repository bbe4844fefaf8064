//! Integration suite of the deck-driven pipeline: golden multi-engine runs
//! of the reference decks in `examples/decks/`, plus the serialization
//! round-trip property (deck → text → deck → identical plan).

use proptest::prelude::*;
use single_electronics::netlist::directive::{Analysis, AnalysisOptions, Deck, SweepSpec};
use single_electronics::netlist::{parse_full_deck, Element, EnginePreference, Netlist, Node};
use single_electronics::sim::{compile, execute, execute_serial, run_deck, EngineChoice};

fn example_deck(name: &str) -> String {
    let path = format!("{}/../../examples/decks/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Runs the reference staircase deck with the given engine override and
/// returns the `(VD, I(J1))` pairs.
fn staircase_currents(engine: EnginePreference) -> Vec<(f64, f64)> {
    let mut deck = parse_full_deck(&example_deck("set_staircase.cir")).expect("deck parses");
    deck.options.engine = engine;
    let plan = compile(&deck).expect("deck compiles");
    let results = execute(&deck, &plan).expect("deck runs");
    assert_eq!(results.len(), 1);
    let vd = results[0].column("VD").expect("VD column");
    let current = results[0].column("I(J1)").expect("I(J1) column");
    vd.into_iter().zip(current).collect()
}

/// The acceptance requirement: `sesim examples/decks/set_staircase.cir`
/// semantics end to end, with the same deck forced onto the analytic,
/// master-equation and kinetic Monte-Carlo backends — no Rust circuit
/// construction anywhere, and mutual agreement within stated tolerances.
#[test]
fn staircase_deck_agrees_across_analytic_master_and_kmc() {
    let master = staircase_currents(EnginePreference::Master);
    let analytic = staircase_currents(EnginePreference::Analytic);
    let kmc = staircase_currents(EnginePreference::Kmc);
    assert_eq!(master.len(), 51);
    assert_eq!(analytic.len(), 51);
    assert_eq!(kmc.len(), 51);

    // Golden staircase shape (the gate sits at the blockade point): no
    // current below the ~40 mV Coulomb threshold, conduction above ~56 mV,
    // and a monotonically rising envelope.
    let peak = master.last().expect("non-empty sweep").1;
    assert!(peak > 1e-8, "staircase must reach tens of nA, got {peak}");
    for &(vd, current) in &master {
        if vd < 0.04 {
            assert!(
                current.abs() < 1e-12,
                "blockade must hold at {vd} V, got {current}"
            );
        }
        if vd > 0.056 {
            assert!(
                current > 1e-9,
                "conduction must be open at {vd} V, got {current}"
            );
        }
    }

    // Mutual agreement: the analytic birth–death solution tracks the full
    // master equation within 5 %, the 40 000-event KMC estimate within
    // 15 %, on every conducting point (absolute floor 1 pA below that).
    for (((vd, i_master), (_, i_analytic)), (_, i_kmc)) in master.iter().zip(&analytic).zip(&kmc) {
        let scale = i_master.abs();
        if scale < 1e-12 {
            assert!(
                i_analytic.abs() < 1e-12 && i_kmc.abs() < 1e-12,
                "blockade point {vd} V must be dark on every engine"
            );
            continue;
        }
        let analytic_rel = (i_analytic - i_master).abs() / scale;
        assert!(
            analytic_rel < 0.05,
            "analytic vs master at {vd} V: {i_analytic} vs {i_master} ({analytic_rel:.3})"
        );
        let kmc_rel = (i_kmc - i_master).abs() / scale;
        assert!(
            kmc_rel < 0.15,
            "kmc vs master at {vd} V: {i_kmc} vs {i_master} ({kmc_rel:.3})"
        );
    }
}

/// Deck execution is deterministic and scheduling-independent: the
/// stochastic KMC backend produces bit-identical tables serial vs
/// parallel, and reruns reproduce exactly.
#[test]
fn deck_execution_is_bit_identical_serial_vs_parallel() {
    let mut deck = parse_full_deck(&example_deck("set_staircase.cir")).expect("deck parses");
    deck.options.engine = EnginePreference::Kmc;
    deck.options.kmc_events = Some(5_000);
    let plan = compile(&deck).expect("deck compiles");
    let parallel = execute(&deck, &plan).expect("parallel run");
    let serial = execute_serial(&deck, &plan).expect("serial run");
    assert_eq!(parallel, serial);
    let again = execute(&deck, &plan).expect("rerun");
    assert_eq!(parallel, again);
}

/// The stability-map deck compiles to a 2-D master-equation run whose
/// long-format table shows Coulomb diamonds: dark at the charge-degeneracy
/// drain axis crossings, conducting at large drain bias.
#[test]
fn stability_map_deck_produces_coulomb_diamonds() {
    let run = run_deck(&example_deck("stability_map.cir")).expect("deck runs");
    assert_eq!(run.results[0].engine(), "master-equation");
    let rows = run.results[0].rows();
    assert_eq!(rows.len(), 21 * 21);
    // Columns are [VG, VD, I(J1)] (outer axis first).
    assert_eq!(
        run.results[0].columns(),
        &["VG".to_string(), "VD".into(), "I(J1)".into()]
    );
    // Blockade at (VG = 0, VD = 0) — the first diamond's centre column.
    let dark = rows
        .iter()
        .find(|row| row[0] == 0.0 && row[1] == 0.0)
        .expect("origin point");
    assert!(
        dark[2].abs() < 1e-12,
        "origin must be blockaded: {}",
        dark[2]
    );
    // Conduction at the largest drain bias of the map.
    let bright = rows.iter().map(|row| row[2].abs()).fold(0.0_f64, f64::max);
    assert!(bright > 1e-8, "diamond edges must conduct, got {bright}");
}

/// The pulse-train deck auto-selects the KMC clock and the window-averaged
/// junction current follows the drive with a visible on/off contrast.
#[test]
fn pulse_train_deck_follows_the_drive_through_kmc() {
    let run = run_deck(&example_deck("pulse_train.cir")).expect("deck runs");
    let result = &run.results[0];
    assert_eq!(result.engine(), "kinetic-monte-carlo");
    assert_eq!(run.plan.runs[0].engine, EngineChoice::Kmc);
    let times = result.column("t").expect("t column");
    let current = result.column("I(J1)").expect("I(J1) column");
    assert_eq!(times.len(), 17);
    // Pulses occupy [20, 60) and [100, 140) ns; drives act on the window
    // ending at each sample, so samples 2..=6 and 10..=14 are "on".
    let on: f64 = [2_usize, 3, 4, 5, 10, 11, 12, 13]
        .iter()
        .map(|&i| current[i])
        .sum::<f64>()
        / 8.0;
    let off = current[8].abs().max(current[16].abs());
    assert!(on > 3.0 * off.max(1e-12), "on {on} vs off {off}");
}

/// The hybrid MVL-gate deck partitions into a master-equation island
/// behind a SPICE MOSFET load; the plan rationale names the bridge, and
/// the swept input shows the SET's Coulomb oscillation through the
/// co-simulated boundary.
#[test]
fn hybrid_mvl_deck_names_its_bridge_and_oscillates() {
    let run = run_deck(&example_deck("hybrid_mvl_gate.cir")).expect("deck runs");
    let result = &run.results[0];
    assert_eq!(result.engine(), "hybrid-cosim");
    let rationale = &run.plan.runs[0].rationale;
    assert!(rationale.contains("`out`"), "{rationale}");
    assert!(rationale.contains("`M1`"), "{rationale}");
    let current = result.column("I(J1)").expect("I(J1) column");
    // Coulomb oscillation over two periods: conducting near the two
    // degeneracy inputs (~80 mV and ~240 mV), blockaded at 0 and 160 mV.
    assert!(current[5].abs() > 1e-8, "first peak: {}", current[5]);
    assert!(current[15].abs() > 1e-8, "second peak: {}", current[15]);
    assert!(current[0].abs() < 1e-12, "blockade at 0: {}", current[0]);
    assert!(
        current[10].abs() < 1e-12,
        "blockade mid-period: {}",
        current[10]
    );
}

/// The pure-SPICE deck runs on the Newton engine and reports source branch
/// currents.
#[test]
fn mosfet_deck_runs_on_the_spice_engine() {
    let run = run_deck(&example_deck("mosfet_follower.cir")).expect("deck runs");
    let result = &run.results[0];
    assert_eq!(result.engine(), "spice-dc");
    assert_eq!(
        result.columns(),
        &["VIN".to_string(), "I(VDD)".into(), "I(VIN)".into()]
    );
    // The follower turns on once VIN clears the threshold: supply current
    // grows by orders of magnitude across the sweep.
    let supply = result.column("I(VDD)").expect("I(VDD) column");
    assert!(supply[0].abs() < 1e-9);
    assert!(supply.last().expect("rows").abs() > 1e-6);
}

/// Builds the reference-style SET deck programmatically (no text).
#[allow(clippy::too_many_arguments)]
fn programmatic_deck(
    c_gate: f64,
    c_junction: f64,
    resistance: f64,
    vd: f64,
    sweep_stop: f64,
    points: usize,
    seed: u64,
    temperature: f64,
    engine: EnginePreference,
) -> Deck {
    let mut netlist = Netlist::new("programmatic SET deck");
    let drain = netlist.node("drain");
    let island = netlist.node("island");
    let gate = netlist.node("gate");
    netlist
        .add(Element::voltage_source("VD", drain, Node::GROUND, vd))
        .unwrap();
    netlist
        .add(Element::voltage_source("VG", gate, Node::GROUND, 0.0))
        .unwrap();
    netlist
        .add(Element::tunnel_junction(
            "J1", drain, island, c_junction, resistance,
        ))
        .unwrap();
    netlist
        .add(Element::tunnel_junction(
            "J2",
            island,
            Node::GROUND,
            c_junction,
            resistance,
        ))
        .unwrap();
    netlist
        .add(Element::capacitor("CG", gate, island, c_gate))
        .unwrap();
    Deck {
        netlist,
        analyses: vec![Analysis::DcSweep {
            sweep: SweepSpec {
                source: "VG".into(),
                start: 0.0,
                stop: sweep_stop,
                points,
            },
        }],
        options: AnalysisOptions {
            temperature,
            seed,
            engine,
            ..AnalysisOptions::default()
        },
        probes: vec!["J1".into()],
        waveforms: Vec::new(),
        diagnostics: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The satellite requirement: a programmatically built deck serialized
    /// to `.cir` text and re-parsed compiles to an *identical* simulation
    /// plan — the deck text is a faithful, lossless job format.
    #[test]
    fn prop_deck_serialization_round_trips_to_the_same_plan(
        c_gate_af in 0.5_f64..2.0,
        c_junction_af in 0.3_f64..1.0,
        resistance_kohm in 60.0_f64..500.0,
        vd_mv in 0.2_f64..2.0,
        sweep_stop_mv in 50.0_f64..400.0,
        points in 2_usize..64,
        seed in 0_u64..1_000_000,
        temperature in 0.5_f64..4.2,
        engine_pick in 0_usize..3,
    ) {
        let engine = [
            EnginePreference::Auto,
            EnginePreference::Master,
            EnginePreference::Kmc,
        ][engine_pick];
        let deck = programmatic_deck(
            c_gate_af * 1e-18,
            c_junction_af * 1e-18,
            resistance_kohm * 1e3,
            vd_mv * 1e-3,
            sweep_stop_mv * 1e-3,
            points,
            seed,
            temperature,
            engine,
        );
        let text = deck.to_deck_string();
        let reparsed = parse_full_deck(&text).expect("serialized deck parses");
        prop_assert!(reparsed.diagnostics.is_empty(), "{:?}", reparsed.diagnostics);
        prop_assert_eq!(reparsed.analyses.clone(), deck.analyses.clone());
        prop_assert_eq!(reparsed.options.clone(), deck.options.clone());
        let original_plan = compile(&deck).expect("original deck compiles");
        let reparsed_plan = compile(&reparsed).expect("re-parsed deck compiles");
        prop_assert_eq!(original_plan, reparsed_plan);
    }
}

/// Every example deck's text, in file-name order.
fn example_deck_texts() -> Vec<(String, String)> {
    let dir = format!("{}/../../examples/decks", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
        .filter_map(Result::ok)
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.ends_with(".cir"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let text = example_deck(&name);
            (name, text)
        })
        .collect()
}

/// Applies one mutation, encoded in `op`, to a deck's lines: the low two
/// bits pick delete, duplicate, swap or truncate-a-token, the rest pick
/// the lines, the token and the cut.
fn mutate(lines: &mut Vec<String>, op: u64) {
    if lines.is_empty() {
        return;
    }
    let pick = |shift: u32, bound: usize| ((op >> shift) % bound as u64) as usize;
    let line = pick(2, lines.len());
    match op & 3 {
        0 => {
            lines.remove(line);
        }
        1 => {
            let copy = lines[line].clone();
            lines.insert(line, copy);
        }
        2 => {
            let other = pick(22, lines.len());
            lines.swap(line, other);
        }
        _ => {
            let mut tokens: Vec<String> =
                lines[line].split_whitespace().map(str::to_string).collect();
            if tokens.is_empty() {
                return;
            }
            let token = pick(22, tokens.len());
            let keep = pick(42, tokens[token].chars().count());
            tokens[token] = tokens[token].chars().take(keep).collect();
            lines[line] = tokens.join(" ");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Parser robustness: deleting, duplicating and swapping lines of an
    /// example deck, or truncating one of its tokens, never panics
    /// `parse_full_deck` or `compile`, and a parse error always locates
    /// its card — by line number, or (a duplicate element) by a name that
    /// two cards of the mutated deck share.
    #[test]
    fn prop_mutated_example_decks_fail_cleanly_with_located_errors(
        deck_pick in 0_usize..64,
        ops in proptest::collection::vec(0_u64..u64::MAX, 1..=4),
    ) {
        let decks = example_deck_texts();
        let (name, text) = &decks[deck_pick % decks.len()];
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        for &op in &ops {
            mutate(&mut lines, op);
        }
        let mutated = lines.join("\n");
        let outcome = std::panic::catch_unwind(|| {
            parse_full_deck(&mutated).map(|deck| compile(&deck).map(|_| ()))
        });
        prop_assert!(outcome.is_ok(), "{name}: panicked on\n{mutated}");
        if let Err(err) = outcome.unwrap() {
            match &err {
                single_electronics::netlist::NetlistError::Parse { line, .. } => {
                    prop_assert!(
                        (1..=lines.len()).contains(line),
                        "{name}: {err} (deck has {} lines)\n{mutated}",
                        lines.len()
                    );
                }
                single_electronics::netlist::NetlistError::DuplicateElement { name: element } => {
                    let cards = lines
                        .iter()
                        .filter_map(|l| l.split_whitespace().next())
                        .filter(|first| first.eq_ignore_ascii_case(element))
                        .count();
                    prop_assert!(cards >= 2, "{name}: {err}\n{mutated}");
                }
                other => {
                    prop_assert!(false, "{name}: unlocated error {other}\n{mutated}");
                }
            }
        }
    }
}
