//! Integration tests of the deterministic replay traces: the PR-7
//! acceptance surface.
//!
//! * property: record → verify round-trips clean for random decks, seeds,
//!   chunk sizes and worker counts — on both sides of the recording;
//! * property: a single injected bit flip is always detected and localized
//!   to the correct chunk, item and column, by both the trace integrity
//!   check and the re-execution diff;
//! * the committed golden trace corpus (`tests/golden/`, one directory per
//!   example deck) verifies clean against a live re-execution AND is
//!   reproduced byte-for-byte by a fresh recording — any engine or
//!   substrate change that perturbs even one output bit fails loudly.

use proptest::prelude::*;
use single_electronics::exec::Workers;
use single_electronics::netlist::parse_full_deck;
use single_electronics::sim::{compile, record_deck, verify_trace_dir, ExecOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A process-unique scratch directory.
fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "se-integration-trace-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The reference SET staircase deck with a configurable grid, seed and
/// engine.
fn staircase_deck(seed: u64, points: usize, engine: &str) -> String {
    let stop = 0.16_f64;
    let step = stop / (points - 1) as f64;
    format!(
        "trace battery\n\
         VD drain 0 1m\n\
         VG gate 0 0\n\
         J1 drain island C=0.5a R=100k\n\
         J2 island 0 C=0.5a R=100k\n\
         CG gate island 1a\n\
         .options temp=1 seed={seed} engine={engine} events=1500\n\
         .dc VG 0 {stop:?} {step:?}\n\
         .print dc i(J1)\n"
    )
}

fn options(workers: usize, chunk: Option<usize>) -> ExecOptions {
    ExecOptions {
        workers: Workers::Count(workers),
        chunk,
        ..ExecOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Record under one (worker count, chunk size), verify under another:
    /// the verification is clean for every combination, whatever the
    /// engine — the trace is a property of the deck, not the scheduling.
    #[test]
    fn prop_record_verify_round_trips_clean(
        seed in 0u64..10_000,
        points in 3usize..24,
        engine_index in 0usize..3,
        chunk in 0usize..8,
        record_workers in 1usize..5,
        verify_workers in 1usize..5,
    ) {
        let engine = ["analytic", "master", "kmc"][engine_index];
        let chunk = (chunk > 0).then_some(chunk); // 0 = automatic chunking
        let deck = parse_full_deck(&staircase_deck(seed, points, engine)).unwrap();
        let plan = compile(&deck).unwrap();
        let dir = temp_dir("prop-clean");

        let (results, summary) =
            record_deck(&deck, &plan, &options(record_workers, chunk), &dir).unwrap();
        prop_assert_eq!(results.len(), 1);
        prop_assert_eq!(results[0].len(), points);
        prop_assert_eq!(summary.analyses.len(), 1);
        // Every engine schedules one point per item.
        let expected_items = points;
        prop_assert_eq!(summary.analyses[0].2, expected_items);

        // The verifier takes the chunk layout from the trace; only the
        // worker count varies here.
        let report = verify_trace_dir(&dir, &options(verify_workers, None)).unwrap();
        prop_assert!(report.is_clean(), "unexpected divergence: {:?}", report.analyses);
        prop_assert_eq!(report.analyses[0].items, expected_items);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flip one random bit of one random recorded value: the verification
    /// must (a) fail, (b) localize the trace corruption to the containing
    /// chunk, and (c) localize the execution divergence to the exact item
    /// and column, with the recorded and computed bit patterns differing
    /// in precisely the flipped bit.
    #[test]
    fn prop_injected_bit_flip_is_detected_and_localized(
        seed in 0u64..10_000,
        points in 4usize..20,
        chunk in 1usize..6,
        target in 0usize..1_000,
        column in 0usize..2,
        bit in 0u32..64,
    ) {
        let target = target % points;
        let deck = parse_full_deck(&staircase_deck(seed, points, "analytic")).unwrap();
        let plan = compile(&deck).unwrap();
        let dir = temp_dir("prop-flip");
        let (_, summary) = record_deck(&deck, &plan, &options(2, Some(chunk)), &dir).unwrap();

        // Flip `bit` of the item's `column`-th value, in place in the file.
        let trace_path = dir.join(&summary.analyses[0].1);
        let text = std::fs::read_to_string(&trace_path).unwrap();
        let marker = format!("item {target} ");
        let mut flipped_bits = None;
        let corrupted: String = text
            .lines()
            .map(|line| {
                let Some(payload) = line.strip_prefix(&marker) else {
                    return format!("{line}\n");
                };
                let tokens: Vec<String> = payload
                    .split_whitespace()
                    .enumerate()
                    .map(|(position, token)| {
                        if position != column {
                            return token.to_string();
                        }
                        let bits = u64::from_str_radix(token, 16).unwrap() ^ (1u64 << bit);
                        flipped_bits = Some(bits);
                        format!("{bits:016x}")
                    })
                    .collect();
                format!("{marker}{}\n", tokens.join(" "))
            })
            .collect();
        std::fs::write(&trace_path, corrupted).unwrap();

        let report = verify_trace_dir(&dir, &options(3, None)).unwrap();
        prop_assert!(!report.is_clean());
        let verdict = &report.analyses[0];
        // The integrity check catches the file edit at the right chunk…
        prop_assert_eq!(verdict.corrupt_chunk, Some(target / chunk));
        // …and the re-execution pinpoints item, column and both patterns.
        let divergence = verdict.divergence.expect("one flipped bit must diverge");
        prop_assert_eq!(divergence.item, target);
        prop_assert_eq!(divergence.chunk, target / chunk);
        prop_assert_eq!(divergence.row, 0);
        prop_assert_eq!(divergence.column, column);
        use single_electronics::exec::TraceValue;
        let TraceValue::Bits(recorded) = divergence.recorded else {
            return Err(TestCaseError::Fail("recorded value missing".into()));
        };
        let TraceValue::Bits(computed) = divergence.computed else {
            return Err(TestCaseError::Fail("computed value missing".into()));
        };
        prop_assert_eq!(recorded, flipped_bits.unwrap());
        prop_assert_eq!(recorded ^ computed, 1u64 << bit, "exactly the flipped bit differs");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The committed corpus: one trace directory per example deck.
const GOLDEN_DECKS: &[&str] = &[
    "array16x16_background",
    "chain256_transport",
    "ensemble_chain",
    "ensemble_repeats",
    "hybrid_mvl_gate",
    "hybrid_ramp",
    "mosfet_follower",
    "pulse_train",
    "set_staircase",
    "stability_map",
];

/// The golden regression: every committed trace directory still verifies
/// clean against a live re-execution, and a fresh recording of its example
/// deck reproduces the committed files byte for byte.
#[test]
fn golden_trace_corpus_verifies_and_reproduces_byte_identically() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden_root = root.join("tests/golden");

    // The corpus covers every example deck — a new deck without a golden
    // trace (or a stale trace for a removed deck) fails here.
    let mut committed: Vec<String> = std::fs::read_dir(&golden_root)
        .expect("tests/golden/ exists")
        .filter_map(Result::ok)
        .filter(|entry| entry.path().is_dir())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    committed.sort();
    assert_eq!(committed, GOLDEN_DECKS, "golden corpus out of sync");
    let mut decks: Vec<String> = std::fs::read_dir(root.join("examples/decks"))
        .unwrap()
        .filter_map(Result::ok)
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter_map(|name| name.strip_suffix(".cir").map(str::to_string))
        .collect();
    decks.sort();
    assert_eq!(decks, GOLDEN_DECKS, "example decks drifted from the corpus");

    for stem in GOLDEN_DECKS {
        let golden_dir = golden_root.join(stem);

        // 1. The recording still replays bit-identically.
        let report = verify_trace_dir(&golden_dir, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(report.is_clean(), "{stem} diverged: {:?}", report.analyses);

        // 2. A fresh recording reproduces every committed byte.
        let deck_path = root.join("examples/decks").join(format!("{stem}.cir"));
        let deck = parse_full_deck(&std::fs::read_to_string(&deck_path).unwrap()).unwrap();
        let plan = compile(&deck).unwrap();
        let fresh_dir = temp_dir(&format!("golden-{stem}"));
        record_deck(&deck, &plan, &ExecOptions::default(), &fresh_dir).unwrap();

        let list = |dir: &Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .filter_map(Result::ok)
                .filter_map(|entry| entry.file_name().into_string().ok())
                .collect();
            names.sort();
            names
        };
        assert_eq!(
            list(&golden_dir),
            list(&fresh_dir),
            "{stem}: file set drifted"
        );
        for name in list(&golden_dir) {
            let golden_bytes = std::fs::read(golden_dir.join(&name)).unwrap();
            let fresh_bytes = std::fs::read(fresh_dir.join(&name)).unwrap();
            assert!(
                golden_bytes == fresh_bytes,
                "{stem}/{name}: a fresh recording no longer reproduces the committed bytes"
            );
        }
        let _ = std::fs::remove_dir_all(&fresh_dir);
    }
}
