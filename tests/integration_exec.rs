//! Integration tests of the `se-exec` job substrate through the deck
//! pipeline: the PR-5 acceptance surface.
//!
//! * serial ≡ parallel ≡ chunked ≡ checkpoint-interrupt-then-resume, all
//!   bit-identical, across random chunk sizes, seeds and backends
//!   (analytic / master equation / kinetic Monte-Carlo);
//! * a golden byte-for-byte CSV snapshot of one streamed sweep;
//! * a killed checkpointed run (simulated by tearing the manifest the way
//!   `kill -9` between chunk completions would) resumes to the exact
//!   uninterrupted tables.

use proptest::prelude::*;
use single_electronics::exec::{
    run_collect, CancelToken, CheckpointStore, JobBuilder, JobSpec, Workers,
};
use single_electronics::netlist::parse_full_deck;
use single_electronics::sim::{
    compile, execute, execute_serial, execute_with_options, ExecOptions,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A process-unique scratch directory.
fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "se-integration-exec-{tag}-{}-{}",
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
        "staircase battery\n\
         VD drain 0 1m\n\
         VG gate 0 0\n\
         J1 drain island C=0.5a R=100k\n\
         J2 island 0 C=0.5a R=100k\n\
         CG gate island 1a\n\
         .options temp=1 seed={seed} engine={engine} events=2000\n\
         .dc VG 0 {stop:?} {step:?}\n\
         .print dc i(J1)\n"
    )
}

/// The golden snapshot: one streamed 5-point analytic staircase sweep.
/// The bytes pin the whole streaming path — header naming, shortest
/// round-trip float rendering, row order — so any substrate change that
/// perturbs the CSV stream fails loudly.
#[test]
fn golden_csv_snapshot_for_a_streamed_sweep() {
    let deck = parse_full_deck(&staircase_deck(7, 5, "analytic")).unwrap();
    let plan = compile(&deck).unwrap();
    let dir = temp_dir("golden");
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("golden.csv");
    let options = ExecOptions {
        csv: Some(csv_path.to_string_lossy().into_owned()),
        ..ExecOptions::default()
    };
    let results = execute_with_options(&deck, &plan, &options).unwrap();
    let streamed = std::fs::read_to_string(&csv_path).unwrap();
    // The streamed file and the post-hoc export are byte-identical.
    assert_eq!(streamed, results[0].to_csv());
    assert_eq!(streamed, GOLDEN_STAIRCASE_CSV, "streamed CSV drifted");
    let _ = std::fs::remove_dir_all(&dir);
}

const GOLDEN_STAIRCASE_CSV: &str = "VG,I(J1)\n\
0.0,1.6391455383601426e-205\n\
0.04,1.5719188825929312e-107\n\
0.08,1.6788561471429485e-9\n\
0.12,1.784714178493118e-104\n\
0.16,5.763631269422553e-205\n";

/// Tears a checkpoint the way a mid-flight kill would: keep the manifest
/// header plus the first `keep` chunk lines. (Chunk payload files may
/// remain — unlisted chunks must be ignored on resume.)
fn tear_manifest(checkpoint_root: &PathBuf, keep: usize) {
    let job_dir = std::fs::read_dir(checkpoint_root)
        .unwrap()
        .filter_map(Result::ok)
        .find(|e| e.path().is_dir())
        .expect("one job directory")
        .path();
    let manifest = job_dir.join("manifest.txt");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let kept: Vec<&str> = text.lines().take(1 + keep).collect();
    std::fs::write(&manifest, format!("{}\n", kept.join("\n"))).unwrap();
}

/// The headline acceptance: a checkpointed run killed mid-flight resumes
/// to tables — and a streamed CSV — bit-identical to the uninterrupted
/// run.
#[test]
fn torn_checkpoint_resumes_to_identical_tables_and_csv() {
    let deck = parse_full_deck(&staircase_deck(11, 12, "master")).unwrap();
    let plan = compile(&deck).unwrap();
    let baseline = execute(&deck, &plan).unwrap();

    let dir = temp_dir("torn");
    let checkpoint = dir.join("ck");
    std::fs::create_dir_all(&dir).unwrap();

    // Full checkpointed run (12 points, chunk 2 → 6 chunks), then tear the
    // manifest back to 2 completed chunks.
    let options = ExecOptions {
        chunk: Some(2),
        checkpoint: Some(checkpoint.clone()),
        ..ExecOptions::default()
    };
    let first = execute_with_options(&deck, &plan, &options).unwrap();
    assert_eq!(first, baseline);
    tear_manifest(&checkpoint, 2);

    // Resume from the torn state, streaming a CSV on the way.
    let csv_path = dir.join("resumed.csv");
    let resumed = execute_with_options(
        &deck,
        &plan,
        &ExecOptions {
            chunk: Some(2),
            checkpoint: Some(checkpoint),
            resume: true,
            csv: Some(csv_path.to_string_lossy().into_owned()),
            ..ExecOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed, baseline, "resume must be bit-identical");
    let streamed = std::fs::read_to_string(&csv_path).unwrap();
    assert_eq!(streamed, baseline[0].to_csv());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming against an *edited* deck — same analysis directive, same grid,
/// different circuit — must be refused (the checkpoint carries a deck
/// fingerprint), never silently restore the old circuit's currents.
/// And a failed resume must not destroy a previous CSV export.
#[test]
fn resume_against_an_edited_deck_is_refused_and_preserves_exports() {
    let text = staircase_deck(5, 8, "master");
    let deck = parse_full_deck(&text).unwrap();
    let plan = compile(&deck).unwrap();
    let dir = temp_dir("edited");
    std::fs::create_dir_all(&dir).unwrap();
    let checkpoint = dir.join("ck");
    let csv_path = dir.join("out.csv");
    let options = ExecOptions {
        checkpoint: Some(checkpoint.clone()),
        csv: Some(csv_path.to_string_lossy().into_owned()),
        ..ExecOptions::default()
    };
    let first = execute_with_options(&deck, &plan, &options).unwrap();
    let exported = std::fs::read_to_string(&csv_path).unwrap();
    assert_eq!(exported, first[0].to_csv());

    // Edit a junction capacitance: identical geometry, different physics.
    let edited = parse_full_deck(&text.replace("C=0.5a", "C=0.6a")).unwrap();
    let edited_plan = compile(&edited).unwrap();
    let err = execute_with_options(
        &edited,
        &edited_plan,
        &ExecOptions {
            resume: true,
            ..options
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("different job"), "{err}");
    // The old export survives the refused run untouched.
    assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), exported);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The effort of a master map counts one cold solve per point on the
/// default solver and carries the largest window-boundary mass of its
/// solves: a hot SET map spills real probability over the edge of a ±1
/// window and far less over a ±3 one. Effort stays outside the result
/// identity, so the two tables still differ only where their data does.
#[test]
fn master_map_effort_reports_the_window_boundary_mass() {
    let run = |window: u32| {
        let deck = parse_full_deck(&format!(
            "hot SET map\n\
             VD drain 0 0\n\
             VG gate 0 0\n\
             J1 drain island C=0.5a R=100k\n\
             J2 island 0 C=0.5a R=100k\n\
             CG gate island 1a\n\
             .options temp=300 engine=master window={window}\n\
             .dc VD -0.01 0.01 0.01 VG 0 0.08 0.04\n\
             .print dc i(J1)\n"
        ))
        .unwrap();
        let plan = compile(&deck).unwrap();
        execute_serial(&deck, &plan).unwrap().remove(0)
    };
    let (narrow, wide) = (run(1), run(3));
    let effort = |result: &single_electronics::sim::SimulationResult| {
        result
            .solver_effort()
            .expect("master maps report effort")
            .clone()
    };
    for result in [&narrow, &wide] {
        assert_eq!(effort(result).solver, "bicgstab-jacobi");
        assert_eq!(effort(result).solves, 9);
    }
    let mass =
        |result: &single_electronics::sim::SimulationResult| effort(result).boundary_mass_max;
    assert!(
        mass(&narrow) > 0.1,
        "±1 window edge carries {}",
        mass(&narrow)
    );
    assert!(
        mass(&wide) < 0.1 * mass(&narrow),
        "±3 window edge carries {}",
        mass(&wide)
    );
    let rerun = run(1);
    assert_eq!(narrow, rerun);
    assert_eq!(mass(&narrow).to_bits(), mass(&rerun).to_bits());
}

/// Cooperative cancellation at the deck level: a pre-fired token stops the
/// run before any chunk completes, and the checkpointed resume still
/// reproduces the baseline.
#[test]
fn cancelled_deck_runs_resume_cleanly() {
    let deck = parse_full_deck(&staircase_deck(3, 9, "master")).unwrap();
    let plan = compile(&deck).unwrap();
    let baseline = execute_serial(&deck, &plan).unwrap();

    let dir = temp_dir("cancel");
    let cancel = CancelToken::new();
    cancel.cancel();
    let err = execute_with_options(
        &deck,
        &plan,
        &ExecOptions {
            checkpoint: Some(dir.clone()),
            cancel: Some(cancel),
            ..ExecOptions::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("cancelled"), "{err}");

    let resumed = execute_with_options(
        &deck,
        &plan,
        &ExecOptions {
            checkpoint: Some(dir.clone()),
            resume: true,
            ..ExecOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed, baseline);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole invariant at the deck level: chunked ≡ unchunked ≡
    /// serial ≡ checkpointed-and-resumed, bit for bit, across random chunk
    /// sizes, seeds and all three island backends.
    #[test]
    fn prop_all_execution_modes_are_bit_identical(
        seed in 0_u64..1_000_000,
        chunk in 1_usize..9,
        points in 5_usize..14,
        engine_pick in 0_usize..3,
    ) {
        let engine = ["analytic", "master", "kmc"][engine_pick];
        let deck = parse_full_deck(&staircase_deck(seed, points, engine)).unwrap();
        let plan = compile(&deck).unwrap();

        let serial = execute_serial(&deck, &plan).unwrap();
        let parallel = execute(&deck, &plan).unwrap();
        prop_assert_eq!(&serial, &parallel);

        let chunked = execute_with_options(&deck, &plan, &ExecOptions {
            chunk: Some(chunk),
            workers: Workers::Count(3),
            ..ExecOptions::default()
        }).unwrap();
        prop_assert_eq!(&serial, &chunked);

        // Checkpoint the run, tear the manifest to one completed chunk,
        // resume — still identical.
        let dir = temp_dir("prop");
        let options = ExecOptions {
            chunk: Some(chunk),
            checkpoint: Some(dir.clone()),
            ..ExecOptions::default()
        };
        let checkpointed = execute_with_options(&deck, &plan, &options).unwrap();
        prop_assert_eq!(&serial, &checkpointed);
        tear_manifest(&dir, 1);
        let resumed = execute_with_options(&deck, &plan, &ExecOptions {
            resume: true,
            ..options
        }).unwrap();
        prop_assert_eq!(&serial, &resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Master sweeps are schedule-independent: for every stationary solver
    /// choice, the streamed CSV bytes and the collected tables are
    /// identical across serial, parallel, chunked and
    /// torn-checkpoint-resumed runs (whatever workspace each point's
    /// worker reuses), and the solver-effort ledger counts one cold solve
    /// per point.
    #[test]
    fn prop_master_warm_sweeps_are_deterministic(
        seed in 0_u64..1_000_000,
        points in 9_usize..28,
        chunk in 1_usize..5,
        workers in 2_usize..5,
        solver_pick in 0_usize..3,
    ) {
        let solver = ["krylov", "krylov-jacobi", "gauss-seidel"][solver_pick];
        let text = staircase_deck(seed, points, "master")
            .replace("engine=master", &format!("engine=master solver={solver}"));
        let deck = parse_full_deck(&text).unwrap();
        let plan = compile(&deck).unwrap();

        let dir = temp_dir("warm");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_for = |tag: &str, options: ExecOptions| {
            let path = dir.join(format!("{tag}.csv"));
            let options = ExecOptions {
                csv: Some(path.to_string_lossy().into_owned()),
                ..options
            };
            let results = execute_with_options(&deck, &plan, &options).unwrap();
            (results, std::fs::read_to_string(&path).unwrap())
        };

        let (serial, serial_csv) = csv_for("serial", ExecOptions {
            workers: Workers::Serial,
            ..ExecOptions::default()
        });
        let (parallel, parallel_csv) = csv_for("parallel", ExecOptions {
            workers: Workers::Count(workers),
            ..ExecOptions::default()
        });
        let (chunked, chunked_csv) = csv_for("chunked", ExecOptions {
            workers: Workers::Count(workers),
            chunk: Some(chunk),
            ..ExecOptions::default()
        });
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(&serial, &chunked);
        prop_assert_eq!(&serial_csv, &parallel_csv, "parallel CSV bytes drifted");
        prop_assert_eq!(&serial_csv, &chunked_csv, "chunked CSV bytes drifted");

        // Tear a checkpointed run back to one completed chunk and resume.
        let checkpoint = dir.join("ck");
        let options = ExecOptions {
            chunk: Some(chunk),
            checkpoint: Some(checkpoint.clone()),
            ..ExecOptions::default()
        };
        let checkpointed = execute_with_options(&deck, &plan, &options).unwrap();
        prop_assert_eq!(&serial, &checkpointed);
        tear_manifest(&checkpoint, 1);
        let (resumed, resumed_csv) = csv_for("resumed", ExecOptions {
            resume: true,
            ..options
        });
        prop_assert_eq!(&serial, &resumed);
        prop_assert_eq!(&serial_csv, &resumed_csv, "resumed CSV bytes drifted");

        // Every fully-computed run reports the configured solver and one
        // solve per point.
        for result in [&serial, &parallel, &chunked] {
            let effort = result[0].solver_effort().expect("master sweeps report effort");
            let name_matches = match solver {
                "krylov" => effort.solver == "bicgstab-ilu0",
                "krylov-jacobi" => effort.solver == "bicgstab-jacobi",
                _ => effort.solver == "gauss-seidel",
            } || effort.solver == "gauss-seidel(fallback)" || effort.solver == "mixed";
            prop_assert!(name_matches, "solver={} reported {}", solver, effort.solver);
            prop_assert_eq!(effort.solves, points);
        }
        let configured = match solver {
            "krylov" => "bicgstab-ilu0",
            "krylov-jacobi" => "bicgstab-jacobi",
            _ => "gauss-seidel",
        };
        prop_assert_eq!(
            serial[0].metadata().iter().find(|(k, _)| k == "solver").map(|(_, v)| v.as_str()),
            Some(configured)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The substrate-level half: a *deterministically* interrupted job
    /// (cancelled at a random solve count under serial scheduling) resumes
    /// bit-identically, whatever the chunking.
    #[test]
    fn prop_substrate_interrupt_resume_is_bit_identical(
        seed in 0_u64..1_000_000,
        chunk in 1_usize..9,
        items in 10_usize..40,
        cancel_at in 0_usize..40,
    ) {
        let solve = |i: usize, s: u64| Ok::<_, std::io::Error>(vec![i as f64, f64::from_bits(s)]);
        let spec = JobSpec::new(items).with_seed(seed).with_chunk(chunk).serial();
        let baseline = run_collect(&spec, &mut (), solve).unwrap();

        let dir = temp_dir("sub");
        let store = CheckpointStore::new(&dir);
        let cancel = CancelToken::new();
        let solved = AtomicUsize::new(0);
        let mut no_sink = ();
        let job = JobBuilder::new(spec)
            .collect()
            .checkpoint(&store, "prop", false)
            .build(&mut no_sink, |i, s| {
                if solved.fetch_add(1, Ordering::SeqCst) == cancel_at {
                    cancel.cancel();
                }
                solve(i, s)
            })
            .unwrap();
        single_electronics::exec::run_batch(&[&job], Workers::Serial, &cancel);
        let interrupted = job.finish();

        let mut still_no_sink = ();
        let job = JobBuilder::new(spec)
            .collect()
            .checkpoint(&store, "prop", true)
            .build(&mut still_no_sink, solve)
            .unwrap();
        single_electronics::exec::run_batch(&[&job], Workers::Serial, &CancelToken::new());
        let (resumed, report) = job.finish().unwrap();
        // Compare raw bit patterns: the seed column can hold NaNs, and the
        // claim really is *bit*-identity, not float equality.
        let bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|row| row.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        prop_assert_eq!(bits(&resumed), bits(&baseline));
        prop_assert_eq!(report.restored + report.computed, items);
        if interrupted.is_err() {
            // A genuine interruption must have left something to restore
            // whenever at least one whole chunk completed first.
            let whole_chunks_before_cancel = cancel_at / chunk;
            if whole_chunks_before_cancel > 0 {
                prop_assert!(report.restored > 0);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// NaN payloads survive the checkpoint codec bit-exactly (the classic
/// round-trip killer for decimal serialization).
#[test]
fn checkpointed_nan_bit_patterns_round_trip() {
    let weird = f64::from_bits(0x7ff8_dead_beef_0001); // a payloaded NaN
    let solve = move |i: usize, _s: u64| {
        Ok::<_, std::io::Error>(vec![if i == 3 { weird } else { i as f64 }])
    };
    let dir = temp_dir("nan");
    let store = CheckpointStore::new(&dir);
    let spec = JobSpec::new(8).with_chunk(2);
    let mut no_sink = ();
    let job = JobBuilder::new(spec)
        .collect()
        .checkpoint(&store, "nan", false)
        .build(&mut no_sink, solve)
        .unwrap();
    single_electronics::exec::run_batch(&[&job], Workers::Auto, &CancelToken::new());
    job.finish().unwrap();

    let mut still_no_sink = ();
    let job = JobBuilder::new(spec)
        .collect()
        .checkpoint(&store, "nan", true)
        .build(
            &mut still_no_sink,
            |_, _| -> Result<Vec<f64>, std::io::Error> {
                panic!("everything must be restored, nothing recomputed")
            },
        )
        .unwrap();
    single_electronics::exec::run_batch(&[&job], Workers::Auto, &CancelToken::new());
    let (restored, report) = job.finish().unwrap();
    assert_eq!(report.restored, 8);
    assert_eq!(restored[3][0].to_bits(), weird.to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}
