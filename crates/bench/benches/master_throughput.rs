//! Throughput record of the Krylov master-equation solver: the PR-9
//! acceptance surface.
//!
//! A plain `harness = false` main (no criterion) that writes
//! `BENCH_master.json` at the workspace root with the records CI gates
//! on:
//!
//! * **solver**: the default solver (Jacobi-scaled BiCGSTAB) vs the
//!   anchored Gauss–Seidel reference, timed on the same assembled
//!   generator (a 4-island chain at window ±11 → 23⁴ = 279 841 states)
//!   through `stationary_distribution_of`, the entry every deck solve
//!   takes, so the ratio compares iteration engines and nothing else — the
//!   gate asserts `solver_speedup ≥ 2` and `krylov_solver` =
//!   `bicgstab-jacobi`;
//! * **above-cap**: one full solve beyond the old 400 000-state ceiling
//!   (3 islands at window ±40 → 81³ = 531 441 states), proving the new
//!   2 000 000-state default is real head-room, not a constant edit;
//! * **sweep**: a 32-point gate sweep across the charge-degeneracy point,
//!   run three ways — cold Gauss–Seidel (the pre-Krylov sweep behaviour),
//!   cold ILU(0) Krylov and warm-started ILU(0) Krylov (each point seeded
//!   with its predecessor's converged distribution; no deck runs warm
//!   starts) — reporting points/s for each, the old-vs-new ratio and the
//!   cold-vs-warm ratio;
//! * **preconditioner map**: the `master_map` deck's shape (4-island chain,
//!   window ±5, an 8×8 drain × gate map) solved cold at every point with
//!   the Jacobi and the ILU(0) preconditioner, at 4.2 K and at 100 K —
//!   seconds, Krylov iterations and Gauss–Seidel fallbacks of each, the
//!   evidence behind the default preconditioner (Jacobi);
//! * **deck map**: the same map run the way a deck runs it, at 100 K and
//!   at 4.2 K (`map_{100k,4k2}_deck_seconds`: the default solver, every
//!   point a cold solve of the one built system at its bias, its box
//!   grown from ±1 up to the ±5 ceiling, one solve workspace reused across
//!   the map), with the largest final box and the box rounds at 100 K;
//! * **scaling**: one full solve per chain length (1–3 islands, window
//!   ±2), the state-space scaling argument of experiment E10b.
//!
//! Every record that states a state count (solver, above-cap, sweep,
//! preconditioner map, scaling) solves the full ±window box, so its count
//! is the one it states; only the deck map grows its box.
//!
//! The comparison runs hot, at `kT` a sizeable fraction of the charging
//! energy, so the stationary distribution genuinely spreads over the
//! enumeration window. In deep Coulomb blockade (the kmc_hotpath record's
//! 1 K point) the distribution is a delta at the ground state and *any*
//! anchored solver converges in one sweep — there is no solver to
//! compare. The hot generator is the numerically hard case: Gauss–Seidel
//! needs hundreds of sweeps where Jacobi-scaled BiCGSTAB takes a few
//! dozen iterations.

use se_bench::chain_system;
use se_engine::{ControlId, StationaryEngine};
use se_montecarlo::{MasterEquation, MasterWorkspace};
use se_numeric::sparse::{
    stationary_distribution_of, Generator, StationaryOptions, StationaryWorkspace,
};
use se_numeric::{Preconditioner, StationarySolver};
use se_units::constants::E;
use std::time::Instant;

/// Solver comparison: 4-island chain, window ±11 → 23⁴ = 279 841 states.
const MASTER_ISLANDS: usize = 4;
const MASTER_WINDOW: i64 = 11;
/// Above-cap demonstration: 3 islands, window ±40 → 81³ = 531 441 states,
/// past the retired 400 000-state ceiling.
const ABOVE_CAP_ISLANDS: usize = 3;
const ABOVE_CAP_WINDOW: i64 = 40;
const OLD_STATE_CAP: usize = 400_000;
/// Warm-start sweep: a narrow gate excursion around the degeneracy point
/// (±5 %), small bias steps being exactly where a predecessor's converged
/// distribution is a good seed; window ±5 → 11⁴ = 14 641 states keeps
/// 2 × 32 full solves quick.
const SWEEP_POINTS: usize = 32;
const SWEEP_WINDOW: i64 = 5;
const SWEEP_HALF_RANGE: f64 = 0.05;
/// Preconditioner map: the `master_map` deck's chain, window and bias
/// ranges (drain −0.2…0.2 V, gate 0…0.16 V), every point a cold solve.
const MAP_SIDE: usize = 8;
const MAP_WINDOW: i64 = 5;
const MAP_TEMPERATURES: [(&str, f64); 2] = [("4k2", 4.2), ("100k", 100.0)];
/// Scaling record: chain lengths at window ±2 (5, 25 and 125 states).
const SCALING_ISLANDS: [usize; 3] = [1, 2, 3];
/// Linear-response drain bias, all islands gated to charge degeneracy.
const VDS: f64 = 1e-3;
const VG: f64 = E / (2.0 * se_bench::REFERENCE_C_GATE);
/// kT ≈ 0.4 × the chain's charging energy: the window is thermally
/// populated and iterative-solver choice actually matters (see the module
/// doc).
const MASTER_TEMPERATURE: f64 = 400.0;

fn states_of(islands: usize, window: i64) -> usize {
    (2 * window as usize + 1).pow(islands as u32)
}

/// Best-of-N wall-clock of one cold stationary solve on a pre-assembled
/// generator; returns (seconds, iterations, provenance, distribution).
/// Each repeat gets a fresh workspace so none inherits warm buffers.
fn time_solver(
    generator: &impl Generator,
    anchor: usize,
    solver: StationarySolver,
    repeats: usize,
) -> (f64, usize, &'static str, Vec<f64>) {
    let options = StationaryOptions {
        solver,
        ..StationaryOptions::default()
    };
    let mut best = f64::MAX;
    let mut kept = None;
    for _ in 0..repeats {
        let mut workspace = StationaryWorkspace::new();
        let start = Instant::now();
        let (p, stats) =
            stationary_distribution_of(generator, anchor, &options, None, &mut workspace)
                .expect("stationary solve succeeds");
        best = best.min(start.elapsed().as_secs_f64());
        kept = Some((stats.iterations, stats.solver, p));
    }
    let (iterations, provenance, p) = kept.expect("at least one repeat");
    (best, iterations, provenance, p)
}

/// Full sweep pass: one solve per gate point with the given solver,
/// optionally warm-started from the previous point. Returns (seconds,
/// warm-started solve count, total iterations).
fn run_sweep(solver: StationarySolver, warm_start: bool) -> (f64, usize, usize) {
    let start = Instant::now();
    let mut previous = None;
    let mut warm_used = 0;
    let mut iterations = 0;
    for point in 0..SWEEP_POINTS {
        let phase = point as f64 / (SWEEP_POINTS - 1) as f64;
        let vg = VG * (1.0 - SWEEP_HALF_RANGE + 2.0 * SWEEP_HALF_RANGE * phase);
        let equation =
            MasterEquation::new(chain_system(MASTER_ISLANDS, VDS, vg), MASTER_TEMPERATURE)
                .expect("valid system")
                .with_window(SWEEP_WINDOW)
                .expect("valid window")
                .with_solver(solver);
        let solution = equation
            .solve_full_window(
                if warm_start { previous.as_ref() } else { None },
                &mut MasterWorkspace::new(),
            )
            .expect("sweep point solves");
        warm_used += usize::from(solution.stats().warm_started);
        iterations += solution.stats().iterations;
        previous = Some(solution);
    }
    (start.elapsed().as_secs_f64(), warm_used, iterations)
}

/// Best-of-two sweep passes; the sweep layout is deterministic, so both
/// passes do identical work and the min damps scheduler noise.
fn best_sweep(solver: StationarySolver, warm_start: bool) -> (f64, usize, usize) {
    let (a, warm_used, iterations) = run_sweep(solver, warm_start);
    let (b, _, _) = run_sweep(solver, warm_start);
    (a.min(b), warm_used, iterations)
}

/// One pass over the preconditioner map: every point cold-started with the
/// given preconditioner. Returns (seconds, Krylov iterations, Gauss–Seidel
/// fallbacks).
fn run_map(preconditioner: Preconditioner, temperature: f64) -> (f64, usize, usize) {
    let start = Instant::now();
    let (mut iterations, mut fallbacks) = (0, 0);
    let at = |k: usize, lo: f64, hi: f64| lo + (hi - lo) * k as f64 / (MAP_SIDE - 1) as f64;
    for drain in 0..MAP_SIDE {
        for gate in 0..MAP_SIDE {
            let system = chain_system(MASTER_ISLANDS, at(drain, -0.2, 0.2), at(gate, 0.0, 0.16));
            let solution = MasterEquation::new(system, temperature)
                .expect("valid system")
                .with_window(MAP_WINDOW)
                .expect("valid window")
                .with_solver(StationarySolver::Krylov(preconditioner))
                .solve_full_window(None, &mut MasterWorkspace::new())
                .expect("map point solves");
            if solution.stats().solver == "gauss-seidel(fallback)" {
                fallbacks += 1;
            } else {
                iterations += solution.stats().iterations;
            }
        }
    }
    (start.elapsed().as_secs_f64(), iterations, fallbacks)
}

/// The work of one deck-path map pass: solver iterations, box rounds and
/// the largest final box, all summed or maxed over the points.
#[derive(Debug, Default, PartialEq)]
struct DeckMapWork {
    iterations: usize,
    rounds: usize,
    box_states_max: usize,
}

/// One pass over the map as a deck runs it: the default solver, one
/// system built at zero bias, every point a cold solve of it at the
/// point's drain and gate voltages, its box grown up to the window
/// ceiling, and one solve workspace reused across the points. Returns the
/// seconds and the work.
fn run_map_as_deck(temperature: f64) -> (f64, DeckMapWork) {
    let start = Instant::now();
    let at = |k: usize, lo: f64, hi: f64| lo + (hi - lo) * k as f64 / (MAP_SIDE - 1) as f64;
    let equation = MasterEquation::new(chain_system(MASTER_ISLANDS, 0.0, 0.0), temperature)
        .expect("valid system")
        .with_window(MAP_WINDOW)
        .expect("valid window");
    let control = |name: &str| -> ControlId {
        equation
            .resolve_control(name)
            .expect("the chain has this electrode")
    };
    let (drain, gate) = (control("drain"), control("gate"));
    let mut workspace = MasterWorkspace::new();
    let mut work = DeckMapWork::default();
    for point in 0..MAP_SIDE * MAP_SIDE {
        let bias = [
            (gate, at(point / MAP_SIDE, 0.0, 0.16)),
            (drain, at(point % MAP_SIDE, -0.2, 0.2)),
        ];
        let (_, stats) = equation
            .stationary_currents_with(&bias, &[], &mut workspace)
            .expect("map point solves");
        work.iterations += stats.iterations;
        work.rounds += stats.rounds;
        work.box_states_max = work.box_states_max.max(stats.box_states);
    }
    (start.elapsed().as_secs_f64(), work)
}

/// Best of three deck-path map passes, which must do identical work.
fn best_map_as_deck(temperature: f64) -> (f64, DeckMapWork) {
    let (mut best, work) = run_map_as_deck(temperature);
    for _ in 0..2 {
        let (seconds, again) = run_map_as_deck(temperature);
        assert_eq!(again, work);
        best = best.min(seconds);
    }
    (best, work)
}

/// Map passes per preconditioner record: each pass does identical work, and
/// the best of five damps the scheduler noise of a shared host.
const MAP_PASSES: usize = 5;

/// Best-of-[`MAP_PASSES`] map passes as JSON fields for one temperature and
/// preconditioner.
fn map_fields(
    label: &str,
    name: &str,
    preconditioner: Preconditioner,
    temperature: f64,
) -> (f64, String) {
    let (first, iterations, fallbacks) = run_map(preconditioner, temperature);
    let seconds = (1..MAP_PASSES)
        .map(|_| run_map(preconditioner, temperature).0)
        .fold(first, f64::min);
    let fields = format!(
        "  \"map_{label}_{name}_seconds\": {seconds:.3},\n  \
         \"map_{label}_{name}_iterations\": {iterations},\n  \
         \"map_{label}_{name}_fallbacks\": {fallbacks},\n"
    );
    (seconds, fields)
}

fn main() {
    // Part 1: solver-only comparison on one assembled generator, the
    // default solver against Gauss–Seidel.
    let system = chain_system(MASTER_ISLANDS, VDS, VG);
    let equation = MasterEquation::new(system, MASTER_TEMPERATURE)
        .expect("valid system")
        .with_window(MASTER_WINDOW)
        .expect("valid window");
    let (generator, anchor) = equation.generator().expect("generator assembles");
    let states = states_of(MASTER_ISLANDS, MASTER_WINDOW);
    assert_eq!(generator.out_rate().len(), states);

    let (gs_seconds, gs_iterations, gs_name, gs_p) =
        time_solver(&generator, anchor, StationarySolver::GaussSeidel, 3);
    let (krylov_seconds, krylov_iterations, krylov_name, krylov_p) =
        time_solver(&generator, anchor, StationarySolver::default(), 3);
    assert_eq!(gs_name, "gauss-seidel");
    assert_eq!(krylov_name, "bicgstab-jacobi");
    let max_diff = gs_p
        .iter()
        .zip(&krylov_p)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0_f64, f64::max);
    assert!(
        max_diff < 1e-9,
        "solvers disagree on the bench generator: max |Δp| = {max_diff:e}"
    );
    let solver_speedup = gs_seconds / krylov_seconds;

    // Part 2: one full solve past the old 400k-state cap.
    let above_cap_states = states_of(ABOVE_CAP_ISLANDS, ABOVE_CAP_WINDOW);
    assert!(above_cap_states > OLD_STATE_CAP);
    let above_cap =
        MasterEquation::new(chain_system(ABOVE_CAP_ISLANDS, VDS, VG), MASTER_TEMPERATURE)
            .expect("valid system")
            .with_window(ABOVE_CAP_WINDOW)
            .expect("window fits the 2M-state default cap");
    let start = Instant::now();
    let solution = above_cap
        .solve_full_window(None, &mut MasterWorkspace::new())
        .expect("above-cap solve succeeds");
    let above_cap_seconds = start.elapsed().as_secs_f64();
    assert_eq!(solution.probabilities().len(), above_cap_states);
    let mass: f64 = solution.probabilities().iter().sum();
    assert!((mass - 1.0).abs() < 1e-9);

    // Part 3: the gate sweep three ways. Generator assembly and (for the
    // Krylov runs) ILU setup sit inside every measurement, so the ratios
    // reflect end-to-end sweep throughput, not bare iteration counts.
    let krylov = StationarySolver::Krylov(Preconditioner::Ilu0);
    let (old_seconds, _, old_iterations) = best_sweep(StationarySolver::GaussSeidel, false);
    let (cold_seconds, cold_used, _) = best_sweep(krylov, false);
    let (warm_seconds, warm_used, warm_iterations) = best_sweep(krylov, true);
    assert_eq!(cold_used, 0);
    assert!(
        warm_used >= SWEEP_POINTS / 2,
        "warm seeding mostly rejected: only {warm_used}/{SWEEP_POINTS} solves warm-started"
    );
    let old_points_per_sec = SWEEP_POINTS as f64 / old_seconds;
    let cold_points_per_sec = SWEEP_POINTS as f64 / cold_seconds;
    let warm_points_per_sec = SWEEP_POINTS as f64 / warm_seconds;

    // Part 4: Jacobi against ILU(0) over the preconditioner map, cold and
    // hot.
    let mut map_json = format!(
        "  \"map_points\": {},\n  \"map_states\": {},\n",
        MAP_SIDE * MAP_SIDE,
        states_of(MASTER_ISLANDS, MAP_WINDOW)
    );
    for (label, temperature) in MAP_TEMPERATURES {
        let (jacobi, fields) = map_fields(label, "jacobi", Preconditioner::Jacobi, temperature);
        map_json.push_str(&fields);
        let (ilu0, fields) = map_fields(label, "ilu0", Preconditioner::Ilu0, temperature);
        map_json.push_str(&fields);
        map_json.push_str(&format!(
            "  \"map_{label}_jacobi_speedup_vs_ilu0\": {:.3},\n",
            ilu0 / jacobi
        ));
    }

    // The map the way a deck runs it, hot and cold.
    let (deck_seconds, deck) = best_map_as_deck(100.0);
    let (cold_deck_seconds, _) = best_map_as_deck(4.2);
    map_json.push_str(&format!(
        "  \"map_100k_deck_seconds\": {deck_seconds:.3},\n  \
         \"map_100k_deck_iterations\": {},\n  \
         \"map_100k_deck_rounds\": {},\n  \
         \"map_100k_deck_box_states_max\": {},\n  \
         \"map_4k2_deck_seconds\": {cold_deck_seconds:.4},\n",
        deck.iterations, deck.rounds, deck.box_states_max
    ));

    // Part 5: full-solve time against chain length, best of 20.
    let mut scaling_json = String::new();
    for islands in SCALING_ISLANDS {
        let equation = MasterEquation::new(chain_system(islands, VDS, 0.08), 1.0)
            .expect("valid system")
            .with_window(2)
            .expect("valid window");
        let mut best = f64::MAX;
        for _ in 0..20 {
            let start = Instant::now();
            equation
                .solve_full_window(None, &mut MasterWorkspace::new())
                .expect("scaling point solves");
            best = best.min(start.elapsed().as_secs_f64());
        }
        scaling_json.push_str(&format!(
            "  \"scaling_{islands}_islands_solve_ms\": {:.4},\n",
            best * 1e3
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"master_throughput\",\n  \
         \"temperature_kelvin\": {MASTER_TEMPERATURE},\n  \
         \"master_islands\": {MASTER_ISLANDS},\n  \"master_window\": {MASTER_WINDOW},\n  \
         \"master_states\": {states},\n  \
         \"gs_solve_ms\": {:.3},\n  \"gs_iterations\": {gs_iterations},\n  \
         \"krylov_solve_ms\": {:.3},\n  \"krylov_iterations\": {krylov_iterations},\n  \
         \"krylov_solver\": \"{krylov_name}\",\n  \
         \"solver_speedup\": {solver_speedup:.2},\n  \
         \"old_state_cap\": {OLD_STATE_CAP},\n  \
         \"above_cap_islands\": {ABOVE_CAP_ISLANDS},\n  \
         \"above_cap_window\": {ABOVE_CAP_WINDOW},\n  \
         \"above_cap_states\": {above_cap_states},\n  \
         \"above_cap_solve_seconds\": {above_cap_seconds:.3},\n  \
         \"sweep_points\": {SWEEP_POINTS},\n  \
         \"sweep_states\": {},\n  \
         \"sweep_warm_started_solves\": {warm_used},\n  \
         \"sweep_gs_iterations\": {old_iterations},\n  \
         \"sweep_krylov_warm_iterations\": {warm_iterations},\n  \
         \"old_gs_cold_points_per_sec\": {old_points_per_sec:.2},\n  \
         \"cold_points_per_sec\": {cold_points_per_sec:.2},\n  \
         \"warm_points_per_sec\": {warm_points_per_sec:.2},\n  \
         \"sweep_speedup_vs_gs_cold\": {:.3},\n\
         {map_json}{scaling_json}  \
         \"warm_speedup\": {:.3}\n}}\n",
        gs_seconds * 1e3,
        krylov_seconds * 1e3,
        states_of(MASTER_ISLANDS, SWEEP_WINDOW),
        warm_points_per_sec / old_points_per_sec,
        warm_points_per_sec / cold_points_per_sec,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_master.json");
    std::fs::write(path, &json).expect("BENCH_master.json is writable");
    println!("wrote {path}:\n{json}");
}
