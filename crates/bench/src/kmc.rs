//! Shared kinetic Monte-Carlo bench harness.
//!
//! One place that builds, runs and times the scalar incremental engine and
//! the batched lockstep engine for `benches/kmc_hotpath.rs` and its
//! `BENCH_kmc.json` record.

use se_engine::derive_seed;
use se_exec::{lane_group_count, lane_group_range, run_collect, JobSpec};
use se_montecarlo::{
    BatchedKmcEngine, KmcKernel, MonteCarloError, MonteCarloSimulator, SimulationOptions,
};
use se_orthodox::TunnelSystem;
use std::time::Instant;

/// Builds a scalar simulator over a clone of `system`.
///
/// # Panics
///
/// Panics if the system is rejected by the engine (bench fixtures are
/// valid by construction).
#[must_use]
pub fn simulator(
    system: &TunnelSystem,
    temperature: f64,
    seed: u64,
    equilibration: usize,
) -> MonteCarloSimulator {
    MonteCarloSimulator::new(
        system.clone(),
        SimulationOptions::new(temperature)
            .with_seed(seed)
            .with_equilibration(equilibration),
    )
    .expect("valid bench system")
}

/// Runs `events` measured events on the scalar incremental engine (with
/// its default event-rate kernel) and returns
/// `(events executed, simulated seconds)`.
///
/// # Panics
///
/// Panics if the engine rejects the system or the run fails.
#[must_use]
pub fn run_scalar(
    system: &TunnelSystem,
    temperature: f64,
    seed: u64,
    equilibration: usize,
    events: usize,
) -> (u64, f64) {
    let mut sim = simulator(system, temperature, seed, equilibration);
    let result = sim.run_events(events).expect("run succeeds");
    (result.events(), result.total_time())
}

/// Runs `events` measured events on each of `replicas` sequential scalar
/// simulators with the batched engine's per-replica seed contract
/// (replica `k` gets [`derive_seed`]`(base_seed, k)`) and returns the
/// aggregate `(events executed, summed simulated seconds)` — the
/// one-replica-at-a-time baseline the batched engine is measured against.
///
/// # Panics
///
/// Panics if the engine rejects the system or a run fails.
#[must_use]
pub fn run_sequential_replicas(
    system: &TunnelSystem,
    temperature: f64,
    base_seed: u64,
    replicas: usize,
    equilibration: usize,
    events: usize,
) -> (u64, f64) {
    let mut total_events = 0;
    let mut total_time = 0.0;
    for replica in 0..replicas as u64 {
        let (executed, time) = run_scalar(
            system,
            temperature,
            derive_seed(base_seed, replica),
            equilibration,
            events,
        );
        total_events += executed;
        total_time += time;
    }
    (total_events, total_time)
}

/// Runs `events` measured events on each of `replicas` lockstep replicas
/// of the batched engine and returns the aggregate
/// `(events executed, summed simulated seconds)`. Replica `k` is
/// bit-identical to the scalar run with seed
/// [`derive_seed`]`(base_seed, k)`.
///
/// # Panics
///
/// Panics if the engine rejects the system or the run fails.
#[must_use]
pub fn run_batched(
    system: &TunnelSystem,
    temperature: f64,
    base_seed: u64,
    replicas: usize,
    equilibration: usize,
    events: usize,
) -> (u64, f64) {
    let options = SimulationOptions::new(temperature).with_equilibration(equilibration);
    let mut batch = BatchedKmcEngine::from_base_seed(system.clone(), options, replicas, base_seed)
        .expect("valid bench system");
    let results = batch.run_events_all(events).expect("batched run succeeds");
    let total_events = results.iter().map(se_montecarlo::RunResult::events).sum();
    let total_time = results
        .iter()
        .map(se_montecarlo::RunResult::total_time)
        .sum();
    (total_events, total_time)
}

/// Runs `replicas` batched lockstep replicas sharded into lane groups of
/// `lane_width` — each group one work item on an se-exec job capped at
/// `workers` workers, exactly the deck executor's ensemble geometry — and
/// returns the aggregate `(events executed, summed simulated seconds)`.
/// Replica `k` keeps the [`derive_seed`]`(base_seed, k)` contract whatever
/// the width or worker count, so every replica walk is bit-identical to
/// [`run_batched`] and [`run_sequential_replicas`]; the summed simulated
/// time is reduction-order deterministic per width (groups reduce in index
/// order), identical for every worker count.
///
/// # Panics
///
/// Panics if the engine rejects the system or a run fails.
#[must_use]
// Bench harness entry point: the argument list mirrors the sibling
// `run_batched`/`run_sequential_replicas` signatures plus the two
// scheduling knobs under measurement.
#[allow(clippy::too_many_arguments)]
pub fn run_lane_groups(
    system: &TunnelSystem,
    temperature: f64,
    base_seed: u64,
    replicas: usize,
    lane_width: usize,
    equilibration: usize,
    events: usize,
    workers: usize,
) -> (u64, f64) {
    let groups = lane_group_count(replicas, lane_width);
    let spec = JobSpec::new(groups)
        .with_seed(base_seed)
        .with_chunk(1)
        .with_workers(workers);
    let per_group = run_collect(&spec, &mut (), |group, _item_seed| {
        let seeds: Vec<u64> = lane_group_range(replicas, lane_width, group)
            .map(|k| derive_seed(base_seed, k as u64))
            .collect();
        let options = SimulationOptions::new(temperature).with_equilibration(equilibration);
        let mut batch = BatchedKmcEngine::new(system.clone(), options, &seeds)?;
        let results = batch.run_events_all(events)?;
        let group_events: u64 = results.iter().map(se_montecarlo::RunResult::events).sum();
        let group_time: f64 = results
            .iter()
            .map(se_montecarlo::RunResult::total_time)
            .sum();
        Ok::<_, MonteCarloError>((group_events, group_time))
    })
    .expect("lane-group run succeeds");
    let total_events = per_group.iter().map(|&(events, _)| events).sum();
    // Groups are summed in index order, so the total is reduction-order
    // deterministic for every worker count.
    let total_time = per_group.iter().map(|&(_, time)| time).sum();
    (total_events, total_time)
}

/// Best-of-`samples` wall-clock throughput of the scalar measurement
/// loop under an explicit event-rate kernel, in events/second.
///
/// Unlike [`best_events_per_sec`] over [`run_scalar`], the simulator is
/// constructed *outside* the timed region, so the number is the per-event
/// cost of the kernel itself. That is the honest basis for
/// the N ∈ {8, 64, 256} scaling sweep: at 256 islands the capacitance
/// solve and coupling-table build would otherwise dominate a sample and
/// mask the per-event comparison the speedup gate is about.
///
/// # Panics
///
/// Panics if the engine rejects the system or a sample executes fewer
/// than `events` events (the circuit froze).
#[must_use]
pub fn kernel_events_per_sec(
    system: &TunnelSystem,
    temperature: f64,
    samples: usize,
    events: usize,
    kernel: KmcKernel,
) -> f64 {
    let mut best = 0.0_f64;
    for sample in 0..samples as u64 {
        let mut sim = MonteCarloSimulator::new(
            system.clone(),
            SimulationOptions::new(temperature)
                .with_seed(sample + 1)
                .with_equilibration(0)
                .with_kernel(kernel),
        )
        .expect("valid bench system");
        let start = Instant::now();
        let result = sim.run_events(events).expect("run succeeds");
        let elapsed = start.elapsed().as_secs_f64();
        assert!(
            result.events() == events as u64,
            "expected {events} events, executed {} (the circuit froze)",
            result.events()
        );
        best = best.max(events as f64 / elapsed);
    }
    best
}

/// Best-of-`samples` wall-clock throughput of one run shape, in
/// events/second. `run` is handed the 1-based sample index (vary the seed
/// with it so samples are independent) and must return
/// `(events executed, simulated seconds)`.
///
/// # Panics
///
/// Panics if a sample executes fewer events than `expected` (the circuit
/// froze) or reports a non-positive simulated time.
#[must_use]
pub fn best_events_per_sec(
    expected: u64,
    samples: usize,
    mut run: impl FnMut(u64) -> (u64, f64),
) -> f64 {
    (0..samples)
        .map(|sample| sample_events_per_sec(expected, sample as u64 + 1, &mut run))
        .fold(0.0, f64::max)
}

/// One timed sample of `run` (handed `seed`), in events/second.
fn sample_events_per_sec(expected: u64, seed: u64, run: &mut impl FnMut(u64) -> (u64, f64)) -> f64 {
    let start = Instant::now();
    let (executed, time) = run(seed);
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        executed == expected,
        "expected {expected} events, executed {executed} (the circuit froze)"
    );
    assert!(time > 0.0, "simulated time must advance");
    expected as f64 / elapsed
}

/// A run shape of [`interleaved_events_per_sec`]: the events one sample
/// must execute, and the sample itself (as for [`best_events_per_sec`]).
pub type Shape<'a> = (u64, &'a mut dyn FnMut(u64) -> (u64, f64));

/// Throughput of several run shapes measured in interleaved rounds: round
/// `r` runs one sample of every shape back to back, starting from shape
/// `r mod shapes`, so a slow stretch of the machine lands on all of them
/// alike. Returns the events/second of every round, `[round][shape]`;
/// a ratio between two shapes is best taken per round (and its median
/// over rounds), a single shape's rate as its best round.
///
/// # Panics
///
/// As [`best_events_per_sec`].
pub fn interleaved_events_per_sec(rounds: usize, shapes: &mut [Shape<'_>]) -> Vec<Vec<f64>> {
    let count = shapes.len();
    (0..rounds)
        .map(|round| {
            let mut rates = vec![0.0; count];
            for k in 0..count {
                let index = (round + k) % count;
                let (expected, run) = &mut shapes[index];
                rates[index] = sample_events_per_sec(*expected, round as u64 + 1, run);
            }
            rates
        })
        .collect()
}

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
#[must_use]
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain_system;

    #[test]
    fn batched_and_sequential_replicas_agree_bit_for_bit() {
        let system = chain_system(2, 0.15, crate::REFERENCE_C_GATE);
        let (seq_events, seq_time) = run_sequential_replicas(&system, 0.1, 9, 4, 0, 500);
        let (batch_events, batch_time) = run_batched(&system, 0.1, 9, 4, 0, 500);
        assert_eq!(seq_events, batch_events);
        assert_eq!(seq_time.to_bits(), batch_time.to_bits());
    }

    #[test]
    fn lane_group_runs_match_the_flat_batch_for_every_width_and_worker_count() {
        let system = chain_system(2, 0.15, crate::REFERENCE_C_GATE);
        let (flat_events, flat_time) = run_batched(&system, 0.1, 9, 6, 0, 300);
        for width in [1, 2, 4, 6, 8] {
            for workers in [1, 4] {
                let (events, time) = run_lane_groups(&system, 0.1, 9, 6, width, 0, 300, workers);
                assert_eq!(events, flat_events, "width {width} workers {workers}");
                // Same replica walks; the group-wise reduction may round
                // differently from the flat sum, but stays within an ulp
                // per group.
                assert!(
                    (time - flat_time).abs() <= 1e-12 * flat_time.abs(),
                    "width {width} workers {workers}: {time} vs {flat_time}"
                );
            }
        }
        // Width ≥ replicas is exactly the flat batch: one group, one sum.
        let (events, time) = run_lane_groups(&system, 0.1, 9, 6, 8, 0, 300, 1);
        assert_eq!(events, flat_events);
        assert_eq!(time.to_bits(), flat_time.to_bits());
    }

    #[test]
    fn throughput_harness_reports_positive_rates() {
        let system = chain_system(2, 0.15, crate::REFERENCE_C_GATE);
        let rate = best_events_per_sec(1000, 2, |seed| run_scalar(&system, 0.1, seed, 0, 1000));
        assert!(rate > 0.0);
        let (mut seeds_a, mut seeds_b) = (Vec::new(), Vec::new());
        let mut a = |seed| {
            seeds_a.push(seed);
            run_scalar(&system, 0.1, seed, 0, 1000)
        };
        let mut b = |seed| {
            seeds_b.push(seed);
            run_scalar(&system, 0.1, seed, 0, 500)
        };
        let rounds = interleaved_events_per_sec(3, &mut [(1000, &mut a), (500, &mut b)]);
        assert_eq!(rounds.len(), 3);
        assert!(rounds.iter().flatten().all(|&rate| rate > 0.0));
        assert_eq!((seeds_a, seeds_b), (vec![1, 2, 3], vec![1, 2, 3]));
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
