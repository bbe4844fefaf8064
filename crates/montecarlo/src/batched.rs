//! Batched ensemble kinetic Monte-Carlo: N stationary replicas of one
//! system stepped in lockstep on the struct-of-arrays hot path.
//!
//! A [`BatchedKmcEngine`] owns N independent Gillespie walks of the *same*
//! [`TunnelSystem`] at fixed drives — the ensemble shape behind seed
//! repeats of a stationary solve. The physics state lives in a
//! [`BatchedLiveState`] / [`BatchedRateContext`] pair (see
//! [`se_orthodox::batch`]), so every lockstep round evaluates all replicas'
//! rates in one junction-major pass over the shared per-junction columns
//! instead of N cache-cold scalar walks.
//!
//! Randomness stays strictly per replica: each lane owns its own `StdRng`,
//! seeded via the se-exec discipline ([`se_engine::derive_seed`] of a base
//! seed and the replica index in [`BatchedKmcEngine::from_base_seed`]).
//! Combined with the bit-identity contract of the SoA state (same f64
//! operations in the same order as the scalar [`LiveState`] path) this
//! makes replica `k` **bit-identical** to a standalone
//! [`MonteCarloSimulator`] running seed `k` — same event sequence, same
//! times, same transfer counters — which is what lets the stationary
//! ensemble face swap the batched engine in for a loop of scalar runs
//! without changing a single published number.
//!
//! The engine serves one circuit shape: the flat full-recompute kernel
//! ([`KmcKernel::uses_tree`] false) with at most 64 candidate events, so
//! that one `u64` hit mask per lane covers every event.
//! [`BatchedKmcEngine::new`] refuses any other circuit: its scalar twin
//! would maintain rates incrementally, and the lanes would no longer match
//! its bits. The stationary ensemble face of [`MonteCarloSimulator`] routes
//! a group here only when it also has enough replicas for the lockstep loop
//! to pay (`BATCH_MIN_REPLICAS`); every other group, and every transient
//! ensemble, loops the scalar engine.
//!
//! Frozen replicas (total rate zero — deep blockade at zero temperature)
//! are masked, not retired: a frozen lane stays in the full-width rate fill
//! but draws, advances and applies nothing, and the loop ends as soon as
//! every lane is frozen or has run its count.
//!
//! [`LiveState`]: se_orthodox::LiveState
//! [`MonteCarloSimulator`]: crate::MonteCarloSimulator

use crate::error::MonteCarloError;
use crate::kmc::{select_with_target, KmcKernel, SimulationOptions};
use crate::observables::RunResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use se_engine::derive_seed;
use se_numeric::sampling::{ln_unit, unit_interval_open, validate_waiting_rate};
use se_orthodox::{BatchedLiveState, BatchedRateContext, ChargeState, TunnelSystem};
use se_units::constants::E;
use std::collections::HashMap;

/// Most candidate events a batch takes: the select pass keeps one hit bit
/// per event in a `u64` per lane.
const MAX_BATCH_EVENTS: usize = u64::BITS as usize;

/// Whether [`BatchedKmcEngine`] serves a circuit with `events` candidate
/// events under `kernel`: the flat full-recompute kernel, every event in
/// one hit-mask bit.
pub(crate) fn batch_serves(kernel: KmcKernel, events: usize) -> bool {
    !kernel.uses_tree(events) && events <= MAX_BATCH_EVENTS
}

/// N lockstep replicas of one [`TunnelSystem`] at fixed drives, advanced
/// by kinetic Monte-Carlo over SoA-packed state.
#[derive(Debug, Clone)]
pub struct BatchedKmcEngine {
    system: TunnelSystem,
    options: SimulationOptions,
    /// One independent RNG per replica — the batch never shares randomness.
    rngs: Vec<StdRng>,
    /// SoA charge states and cached potentials, one lane per replica.
    live: BatchedLiveState,
    /// Shared rate table + batched fill over the potential planes.
    rate_ctx: BatchedRateContext,
    /// Event-major rate planes: `rates[e * replicas + r]`.
    rates: Vec<f64>,
    /// Per-replica total rates, accumulated in scalar junction order.
    totals: Vec<f64>,
    times: Vec<f64>,
    /// Replica-major transfer counters: `net_transfers[r * junctions + j]`.
    net_transfers: Vec<i64>,
    events_executed: Vec<u64>,
    frozen: Vec<bool>,
    /// Scratch: per-replica selection targets drawn in the RNG phase.
    targets: Vec<f64>,
    /// Scratch: per-replica waiting-time uniforms of the current round —
    /// the RNG pass fills this plane serially (RNG streams are per-lane
    /// state), the clock pass consumes it branch-free.
    wait_u: Vec<f64>,
    /// Scratch: per-replica selection uniforms of the current round, drawn
    /// immediately after the waiting-time uniform to preserve the scalar
    /// per-lane draw order.
    sel_u: Vec<f64>,
    /// Scratch: per-replica running prefix sums of the mask-select pass.
    select_acc: Vec<f64>,
    /// Scratch: per-replica hit masks — bit `e` set when event `e` has a
    /// positive rate and its prefix sum exceeds the replica's target.
    select_hits: Vec<u64>,
    /// Scratch: per-replica chosen event indices of the current round.
    chosen: Vec<usize>,
}

impl BatchedKmcEngine {
    /// Creates a batch with one replica per entry of `seeds`, every lane
    /// starting from the charge-neutral state. `options.seed` is ignored —
    /// the batch's randomness is fully determined by `seeds` (replica `r`
    /// is bit-identical to a standalone scalar simulator built with
    /// `options.with_seed(seeds[r])`).
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] for an empty seed list,
    /// an invalid temperature, or a circuit outside the engine's shape: a
    /// tree-kernel circuit or one with more than 64 candidate events.
    pub fn new(
        system: TunnelSystem,
        options: SimulationOptions,
        seeds: &[u64],
    ) -> Result<Self, MonteCarloError> {
        if seeds.is_empty() {
            return Err(MonteCarloError::InvalidArgument(
                "a batch needs at least one replica seed".into(),
            ));
        }
        if options.temperature < 0.0 || !options.temperature.is_finite() {
            return Err(MonteCarloError::InvalidArgument(format!(
                "temperature must be non-negative and finite, got {}",
                options.temperature
            )));
        }
        let events = system.event_count();
        if !batch_serves(options.kernel, events) {
            return Err(MonteCarloError::InvalidArgument(format!(
                "the batched engine serves only flat-kernel circuits with at most \
                 {MAX_BATCH_EVENTS} candidate events, got {events} events under the \
                 {:?} kernel",
                options.kernel
            )));
        }
        let replicas = seeds.len();
        let islands = system.island_count();
        let junctions = system.junctions().len();
        let rate_ctx = BatchedRateContext::new(&system, options.temperature, replicas)?;
        let live = BatchedLiveState::new(&system, ChargeState::neutral(islands), replicas)?;
        Ok(BatchedKmcEngine {
            system,
            options,
            rngs: seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect(),
            live,
            rate_ctx,
            rates: vec![0.0; 2 * junctions * replicas],
            totals: vec![0.0; replicas],
            times: vec![0.0; replicas],
            net_transfers: vec![0; junctions * replicas],
            events_executed: vec![0; replicas],
            frozen: vec![false; replicas],
            targets: vec![0.0; replicas],
            wait_u: vec![0.0; replicas],
            sel_u: vec![0.0; replicas],
            select_acc: vec![0.0; replicas],
            select_hits: vec![0; replicas],
            chosen: vec![0; replicas],
        })
    }

    /// [`Self::new`] with the se-exec seed discipline: replica `r` is
    /// seeded with [`derive_seed`]`(base_seed, r)`, so an ensemble job that
    /// derives per-repeat seeds from one base seed gets the identical
    /// per-replica streams whether it loops scalar simulators or runs this
    /// batch.
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] for `replicas == 0`, an
    /// invalid temperature, or a circuit outside the engine's shape.
    pub fn from_base_seed(
        system: TunnelSystem,
        options: SimulationOptions,
        replicas: usize,
        base_seed: u64,
    ) -> Result<Self, MonteCarloError> {
        let seeds: Vec<u64> = (0..replicas as u64)
            .map(|r| derive_seed(base_seed, r))
            .collect();
        Self::new(system, options, &seeds)
    }

    /// Number of replicas in the batch.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.totals.len()
    }

    /// The shared tunnel system being simulated.
    #[must_use]
    pub fn system(&self) -> &TunnelSystem {
        &self.system
    }

    /// The options the batch was created with.
    #[must_use]
    pub fn options(&self) -> &SimulationOptions {
        &self.options
    }

    /// Replica `r`'s simulation clock in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn time(&self, r: usize) -> f64 {
        self.times[r]
    }

    /// Whether replica `r` is frozen (its last step found no executable
    /// event).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn is_frozen(&self, r: usize) -> bool {
        self.frozen[r]
    }

    /// Replica `r`'s net a→b electron transfers per junction (indexed like
    /// [`TunnelSystem::junctions`]) since the counters were last reset.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn net_transfers(&self, r: usize) -> &[i64] {
        let junctions = self.system.junctions().len();
        &self.net_transfers[r * junctions..(r + 1) * junctions]
    }

    /// Number of events replica `r` has executed since the counters were
    /// last reset.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn events_executed(&self, r: usize) -> u64 {
        self.events_executed[r]
    }

    /// Replica `r`'s current charge state (a strided gather — meant for
    /// observation, not the hot loop).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn state(&self, r: usize) -> ChargeState {
        self.live.charge_state(r)
    }

    /// Resets every replica's time, transfer counters and event counter,
    /// keeping the current charge states (used after equilibration and
    /// between sweep points) — the batch-wide
    /// [`MonteCarloSimulator::reset_counters`].
    ///
    /// [`MonteCarloSimulator::reset_counters`]:
    ///     crate::MonteCarloSimulator::reset_counters
    pub fn reset_counters_all(&mut self) {
        self.times.fill(0.0);
        self.events_executed.fill(0);
        self.frozen.fill(false);
        self.net_transfers.fill(0);
    }

    /// Advances every replica through up to `rounds` lockstep rounds — the
    /// one loop behind [`Self::equilibrate_all`] and
    /// [`Self::run_events_all`]. Each round fills every lane's rates in one
    /// batched pass, then draws, selects and applies one event per live
    /// lane, so after the loop each lane has run `rounds` events or frozen.
    ///
    /// A lane whose total rate is zero freezes and stays frozen: its state
    /// no longer changes, so it stays in the full-width fill (a bit-neutral
    /// re-evaluation whose total stays zero) but draws no random number,
    /// advances no clock, applies no event and ticks no refresh counter —
    /// exactly the scalar walk, which stops at its first failed step. A
    /// round with a frozen lane therefore applies lane by lane instead of
    /// through the batched [`BatchedLiveState::apply_all`], which ticks
    /// every lane. The loop ends early once every lane is frozen.
    ///
    /// `tracker` holds replica-major occupation planes with one spill slot
    /// per replica after the islands (`occupation[r * (islands + 1) + i]`,
    /// ditto `segments`) updated with the scalar occupation-tracker
    /// arithmetic when present; the spill entries absorb the unconditional
    /// external-endpoint settles and are never read back.
    ///
    /// Each round runs four passes instead of one interleaved per-replica
    /// loop: a per-lane RNG pass filling the waiting-time and selection
    /// uniform planes (the raw draws are the only serial work — RNG
    /// streams are per-lane state), a branch-free clock pass evaluating
    /// `dt = -ln_unit(u) / total` and the selection targets across the
    /// whole plane with the polynomial log kernel
    /// ([`se_numeric::sampling::ln_unit`] — vectorizable, no libm call),
    /// a branch-free mask-select pass over the
    /// event-major rate planes, and a table-driven apply pass. Sixteen
    /// interleaved Gillespie walks are hostile to a branch predictor — the
    /// scan/skip/endpoint branches of the scalar loop carry sixteen
    /// independent histories — so the hot phases avoid data-dependent
    /// branches entirely. The selections are still bit-identical: the
    /// prefix sums include the zero rates the scalar scan skips, and adding
    /// `+0.0` to a non-negative accumulation is the identity, so bit `e` of
    /// a hit mask is set exactly when the scalar scan would have stopped at
    /// (or passed) event `e`; the first set bit is the scalar choice, and
    /// an empty mask falls back to the scalar round-off rule.
    fn lockstep_rounds(
        &mut self,
        rounds: usize,
        mut tracker: Option<(&mut [f64], &mut [f64])>,
    ) -> Result<(), MonteCarloError> {
        let replicas = self.replicas();
        let junctions = self.system.junctions().len();
        let islands = self.system.island_count();
        for _ in 0..rounds {
            self.rate_ctx.fill_rates_batch(
                &self.system,
                &self.live,
                &mut self.rates,
                &mut self.totals,
            );
            // RNG pass: per lane, the exact scalar draw order — the
            // guarded waiting-time uniform first, then the selection
            // uniform. Only the draws happen here (RNG streams are
            // serial per-lane state); the `ln` and the target scaling
            // run in the vectorizable clock pass below.
            let mut any_frozen = false;
            for r in 0..replicas {
                let total = self.totals[r];
                if total <= 0.0 {
                    self.frozen[r] = true;
                    any_frozen = true;
                    // u = 1 keeps the masked clock pass finite
                    // (ln_unit(1) = 0); the NaN selection uniform
                    // poisons the lane's mask so no hit bit can set.
                    self.wait_u[r] = 1.0;
                    self.sel_u[r] = f64::NAN;
                    continue;
                }
                validate_waiting_rate(total)?;
                let rng = &mut self.rngs[r];
                self.wait_u[r] = unit_interval_open(rng);
                self.sel_u[r] = rng.gen::<f64>();
            }
            // Clock pass: dt = -ln_unit(u) / total over the whole plane —
            // the same expression `exponential_waiting_time` evaluates per
            // scalar draw, so live lanes stay bit-identical — as pure
            // elementwise arithmetic (polynomial ln, one divide, one
            // select) that vectorizes across lanes. Frozen lanes
            // contribute an exact zero.
            for r in 0..replicas {
                let total = self.totals[r];
                let dt = -ln_unit(self.wait_u[r]) / total;
                self.times[r] += if total > 0.0 { dt } else { 0.0 };
                self.targets[r] = self.sel_u[r] * total;
            }
            // Select pass: branch-free prefix-sum-and-compare over the
            // event-major planes, one mask bit per event (the engine only
            // takes circuits whose events fit one `u64`, see `Self::new`).
            self.select_acc.fill(0.0);
            self.select_hits.fill(0);
            let targets = &self.targets[..];
            let select_acc = &mut self.select_acc[..];
            let select_hits = &mut self.select_hits[..];
            for (e, plane) in self.rates.chunks_exact(replicas).enumerate() {
                let bit = 1u64 << e;
                let lanes = plane
                    .iter()
                    .zip(select_acc.iter_mut())
                    .zip(targets.iter())
                    .zip(select_hits.iter_mut());
                for (((&w, acc), &target), hits) in lanes {
                    *acc += w;
                    let hit = (w > 0.0) & (target < *acc);
                    *hits |= if hit { bit } else { 0 };
                }
            }
            // Resolve pass: each lane's chosen event from its hit mask
            // (first set bit = the scalar scan's stop), the scalar scan on
            // a mask miss (round-off fallback).
            for r in 0..replicas {
                if self.totals[r] <= 0.0 {
                    continue;
                }
                self.chosen[r] = if self.select_hits[r] != 0 {
                    self.select_hits[r].trailing_zeros() as usize
                } else {
                    select_with_target(
                        self.rates.chunks_exact(replicas).map(|plane| plane[r]),
                        self.targets[r],
                    )
                };
            }
            if any_frozen {
                // Rare: a lane is frozen. Apply the live lanes one by one,
                // leaving the frozen lanes' refresh counters untouched.
                for r in 0..replicas {
                    if self.frozen[r] {
                        continue;
                    }
                    let chosen = self.chosen[r];
                    self.live.apply(&self.system, self.system.event(chosen), r);
                    self.bookkeep_event(chosen, r, &mut tracker, islands, junctions);
                }
                if self.frozen.iter().all(|&f| f) {
                    break;
                }
            } else {
                // Apply pass: every lane stepped, so the store-width-aware
                // batched apply folds all lanes' events in at once.
                self.live.apply_all(&self.system, &self.chosen);
                for r in 0..replicas {
                    self.bookkeep_event(self.chosen[r], r, &mut tracker, islands, junctions);
                }
            }
        }
        Ok(())
    }

    /// Post-apply accounting for one executed event on lane `r`: event and
    /// transfer counters plus, when a tracker is attached, the slot-based
    /// occupation settle.
    #[inline]
    fn bookkeep_event(
        &mut self,
        chosen: usize,
        r: usize,
        tracker: &mut Option<(&mut [f64], &mut [f64])>,
        islands: usize,
        junctions: usize,
    ) {
        let j = chosen >> 1;
        self.events_executed[r] += 1;
        self.net_transfers[r * junctions + j] += 1 - 2 * (chosen as i64 & 1);
        if let Some((occupation, segments)) = tracker.as_mut() {
            settle_occupation_slots(
                occupation,
                segments,
                r * (islands + 1),
                self.live.event_slots(chosen),
                &self.live,
                r,
                self.times[r],
            );
        }
    }

    /// Runs the equilibration phase configured in the options on every
    /// replica — each lane steps until it has executed
    /// `equilibration_events` events or freezes — then resets the
    /// observable counters, exactly like the scalar
    /// [`MonteCarloSimulator::equilibrate`] per lane.
    ///
    /// [`MonteCarloSimulator::equilibrate`]:
    ///     crate::MonteCarloSimulator::equilibrate
    ///
    /// # Errors
    ///
    /// Propagates waiting-time sampling errors.
    pub fn equilibrate_all(&mut self) -> Result<(), MonteCarloError> {
        self.lockstep_rounds(self.options.equilibration_events, None)?;
        self.reset_counters_all();
        Ok(())
    }

    /// Runs `events` measurement events on every replica (after batch-wide
    /// equilibration) and returns one [`RunResult`] per replica — the
    /// ensemble face of [`MonteCarloSimulator::run_events`]. A replica
    /// that freezes ends its measurement there (`RunResult::is_frozen`
    /// reports it) while the remaining lanes keep stepping.
    ///
    /// [`MonteCarloSimulator::run_events`]:
    ///     crate::MonteCarloSimulator::run_events
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] if `events == 0`, and
    /// propagates waiting-time sampling errors.
    pub fn run_events_all(&mut self, events: usize) -> Result<Vec<RunResult>, MonteCarloError> {
        if events == 0 {
            return Err(MonteCarloError::InvalidArgument(
                "a run needs at least one event".into(),
            ));
        }
        self.equilibrate_all()?;
        let islands = self.system.island_count();
        let replicas = self.replicas();
        // Replica-major occupation planes, the flat form of one scalar
        // occupation tracker per lane (same arithmetic, same order), with
        // one spill slot per replica after the islands so external
        // endpoints settle unconditionally (see `lockstep_rounds`).
        let stride = islands + 1;
        let mut occupation = vec![0.0; stride * replicas];
        let mut segments = vec![0.0; stride * replicas];
        for r in 0..replicas {
            segments[r * stride..(r + 1) * stride].fill(self.times[r]);
        }
        self.lockstep_rounds(events, Some((&mut occupation, &mut segments)))?;
        Ok((0..replicas)
            .map(|r| {
                let base = r * stride;
                let time = self.times[r];
                let occupation_time: Vec<f64> = (0..islands)
                    .map(|i| {
                        occupation[base + i]
                            + self.live.electron_count(i, r) as f64 * (time - segments[base + i])
                    })
                    .collect();
                self.collect_replica(r, occupation_time)
            })
            .collect())
    }

    /// Assembles replica `r`'s [`RunResult`] from its counters — the exact
    /// scalar `collect` arithmetic on lane `r`'s slice.
    fn collect_replica(&self, r: usize, occupation_time: Vec<f64>) -> RunResult {
        let time = self.times[r];
        let transfers = self.net_transfers(r);
        let mut junction_currents = HashMap::new();
        let mut junction_transfers = HashMap::new();
        for (idx, junction) in self.system.junctions().iter().enumerate() {
            let net = transfers[idx];
            junction_transfers.insert(junction.name.clone(), net);
            let current = if time > 0.0 {
                // Electrons moving a→b carry conventional current b→a; report
                // the conventional current in the a→b reference direction.
                -E * net as f64 / time
            } else {
                0.0
            };
            junction_currents.insert(junction.name.clone(), current);
        }
        let mean_occupation = occupation_time
            .iter()
            .map(|&t| if time > 0.0 { t / time } else { 0.0 })
            .collect();
        RunResult::new(
            time,
            self.events_executed[r],
            junction_currents,
            junction_transfers,
            mean_occupation,
            self.frozen[r],
        )
    }
}

/// Settles the occupation segments an event's endpoints just closed — the
/// scalar `OccupationTracker::record_endpoints` arithmetic on one replica's
/// plane slice (`base = r · (islands + 1)`), addressed by endpoint *slot*
/// so both updates run unconditionally: island slots get the exact scalar
/// arithmetic (`live` supplies the **post-event** charges), external
/// endpoints land in the spill slot at index `islands`, whose accumulated
/// garbage is never read back.
#[inline]
fn settle_occupation_slots(
    occupation: &mut [f64],
    segments: &mut [f64],
    base: usize,
    slots: [usize; 2],
    live: &BatchedLiveState,
    r: usize,
    t: f64,
) {
    let [from, to] = slots;
    // The electron just left `from`: the segment that ended held n + 1.
    let n_from = live.slot_electron_count(from, r);
    occupation[base + from] += (n_from + 1) as f64 * (t - segments[base + from]);
    segments[base + from] = t;
    let n_to = live.slot_electron_count(to, r);
    occupation[base + to] += (n_to - 1) as f64 * (t - segments[base + to]);
    segments[base + to] = t;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonteCarloSimulator;
    use se_orthodox::TunnelSystemBuilder;

    /// Symmetric SET at its conductance peak: gate charge = e/2.
    fn set_at_peak(vds: f64) -> TunnelSystem {
        let cg = 1e-18;
        let vg = E / (2.0 * cg);
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        b.capacitor("CG", gate, island, cg);
        b.build().unwrap()
    }

    /// Deep zero-temperature blockade: every event is uphill.
    fn blockaded() -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", 1e-5);
        let source = b.external("source", 0.0);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        b.build().unwrap()
    }

    #[test]
    fn replica_runs_match_standalone_simulators_bit_for_bit() {
        let options = SimulationOptions::new(1.0).with_equilibration(100);
        let base_seed = 42;
        let replicas = 5;
        let mut batch =
            BatchedKmcEngine::from_base_seed(set_at_peak(1e-3), options, replicas, base_seed)
                .unwrap();
        let batch_results = batch.run_events_all(2_000).unwrap();
        for (r, batch_result) in batch_results.iter().enumerate() {
            let seed = derive_seed(base_seed, r as u64);
            let mut scalar =
                MonteCarloSimulator::new(set_at_peak(1e-3), options.with_seed(seed)).unwrap();
            let scalar_result = scalar.run_events(2_000).unwrap();
            assert_eq!(
                batch_result.total_time().to_bits(),
                scalar_result.total_time().to_bits(),
                "replica {r} time diverged"
            );
            assert_eq!(
                batch_result.junction_transfer("JD"),
                scalar_result.junction_transfer("JD")
            );
            assert_eq!(batch_result.events(), scalar_result.events());
            assert_eq!(batch.state(r), *scalar.state());
            let occ_batch = batch_result.mean_occupation(0).unwrap();
            let occ_scalar = scalar_result.mean_occupation(0).unwrap();
            assert_eq!(occ_batch.to_bits(), occ_scalar.to_bits());
        }
    }

    #[test]
    fn frozen_replicas_retire_without_stalling_the_batch() {
        // Replica lanes share one system, so they freeze together here: a
        // budget of 10⁹ events must return at once, every lane frozen
        // after 0 events, instead of spinning through the rounds.
        let options = SimulationOptions::new(0.0).with_equilibration(0);
        let mut batch = BatchedKmcEngine::from_base_seed(blockaded(), options, 4, 3).unwrap();
        let results = batch.run_events_all(1_000_000_000).unwrap();
        for (r, result) in results.iter().enumerate() {
            assert!(result.is_frozen());
            assert_eq!(result.events(), 0);
            assert_eq!(result.total_time(), 0.0);
            assert!(batch.is_frozen(r));
        }
    }

    /// A gated chain with `junctions` junctions (`2 · junctions` events).
    fn chain(junctions: usize) -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let drain = b.external("drain", 0.1);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", 0.04);
        let mut previous = drain;
        for i in 0..junctions - 1 {
            let island = b.island(format!("n{i}"), 0.0);
            b.junction(format!("J{i}"), previous, island, 0.5e-18, 100e3);
            b.capacitor(format!("CG{i}"), gate, island, 1e-18);
            previous = island;
        }
        b.junction("Jout", previous, source, 0.5e-18, 100e3);
        b.build().unwrap()
    }

    #[test]
    fn refuses_circuits_outside_the_flat_kernel_shape() {
        let refusal = |system: TunnelSystem, kernel: KmcKernel| {
            let options = SimulationOptions::new(1.0).with_kernel(kernel);
            match BatchedKmcEngine::new(system, options, &[1, 2]) {
                Err(MonteCarloError::InvalidArgument(msg)) => msg,
                other => panic!("expected a refusal, got {other:?}"),
            }
        };
        // Auto resolves to the tree kernel from 64 events up.
        let msg = refusal(chain(32), KmcKernel::Auto);
        assert!(msg.contains("64 events under the Auto kernel"), "{msg}");
        assert!(BatchedKmcEngine::new(chain(31), SimulationOptions::new(1.0), &[1]).is_ok());
        // An explicit tree kernel, however small the circuit.
        refusal(set_at_peak(1e-3), KmcKernel::Incremental);
        // The flat kernel past one 64-bit hit mask.
        let full = SimulationOptions::new(1.0).with_kernel(KmcKernel::FullRecompute);
        assert!(BatchedKmcEngine::new(chain(32), full, &[1]).is_ok());
        let msg = refusal(chain(33), KmcKernel::FullRecompute);
        assert!(msg.contains("66 events"), "{msg}");
    }

    #[test]
    fn rejects_empty_batches_and_bad_arguments() {
        let options = SimulationOptions::new(1.0);
        assert!(BatchedKmcEngine::new(set_at_peak(1e-3), options, &[]).is_err());
        assert!(BatchedKmcEngine::from_base_seed(set_at_peak(1e-3), options, 0, 1).is_err());
        assert!(
            BatchedKmcEngine::new(set_at_peak(1e-3), SimulationOptions::new(-1.0), &[1]).is_err()
        );
        let mut batch = BatchedKmcEngine::from_base_seed(set_at_peak(1e-3), options, 2, 1).unwrap();
        assert!(batch.run_events_all(0).is_err());
    }
}
