//! Kinetic Monte-Carlo (Gillespie) engine.
//!
//! Each step evaluates the orthodox rate of every candidate tunnel event in
//! the current charge state, draws an exponential waiting time from the
//! total rate, selects one event with probability proportional to its rate,
//! and applies it. Net electron transfers through every junction are
//! counted, so time-averaged junction currents fall out directly.
//!
//! The step loop runs on the incremental hot path of
//! [`se_orthodox::live`]: island potentials live in a [`LiveState`] and are
//! corrected with one `K`-column axpy per event instead of being re-solved,
//! every per-event ΔF is O(1), the [`RateContext`] keeps the ΔF-independent
//! rate factors persistent, and the loop is allocation-free. Drive-voltage
//! and background-charge changes made through
//! [`MonteCarloSimulator::system_mut`] are folded in lazily at the next
//! step (`LiveState::sync`), so the public mutate-then-run protocol is
//! unchanged.

use crate::error::MonteCarloError;
use crate::observables::RunResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use se_numeric::sampling::exponential_waiting_time;
use se_orthodox::{ChargeState, EventRateTable, LiveState, RateContext, TunnelEvent, TunnelSystem};
use se_units::constants::E;
use std::collections::HashMap;

pub use se_orthodox::events::AUTO_TREE_THRESHOLD;

/// Which event-rate maintenance strategy the step loop runs on.
///
/// Both kernels draw the same RNG stream (one waiting-time draw, one
/// selection draw per event); they differ in how rates are maintained and
/// how the total rate is reduced, so the waiting times — and therefore
/// recorded traces — are kernel-revision-specific for circuits where the
/// kernels actually diverge (see `docs/DETERMINISM.md` §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KmcKernel {
    /// Pick per circuit, at construction: [`KmcKernel::Incremental`] when
    /// the candidate-event count reaches [`AUTO_TREE_THRESHOLD`],
    /// [`KmcKernel::FullRecompute`] below it. Deterministic — a pure
    /// function of the circuit — so replays resolve identically. The
    /// default.
    #[default]
    Auto,
    /// Incremental maintenance: after each event one axpy over the fired
    /// junction's strong list updates the affected ΔFs, only those
    /// Boltzmann kernels are recomputed, and totals plus selection run on
    /// an O(log E) partial-sum tree ([`se_orthodox::EventRateTable`]).
    Incremental,
    /// Reference path: every candidate rate is recomputed from scratch each
    /// step ([`RateContext::fill_rates`]) and selection is a linear scan.
    FullRecompute,
}

impl KmcKernel {
    /// Whether this kernel choice routes a circuit with `events` candidate
    /// events through the incremental table + selection tree.
    #[must_use]
    pub fn uses_tree(self, events: usize) -> bool {
        match self {
            KmcKernel::Auto => events >= AUTO_TREE_THRESHOLD,
            KmcKernel::Incremental => true,
            KmcKernel::FullRecompute => false,
        }
    }
}

/// Options controlling a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationOptions {
    /// Temperature in kelvin.
    pub temperature: f64,
    /// RNG seed; `None` seeds from the operating system.
    pub seed: Option<u64>,
    /// Number of events used to equilibrate (discarded from observables)
    /// before measurement runs.
    pub equilibration_events: usize,
    /// Measurement events per stationary solve when the simulator is driven
    /// through the [`se_engine::StationaryEngine`] trait (sweeps, stability
    /// maps, co-simulation).
    pub events_per_solve: usize,
    /// Event-rate maintenance strategy ([`KmcKernel::Auto`] by default:
    /// tree-based maintenance for large circuits, full recompute for
    /// small ones).
    pub kernel: KmcKernel,
}

impl SimulationOptions {
    /// Creates options for the given temperature with a random seed, a
    /// default equilibration of 1000 events and 40 000 measurement events
    /// per stationary solve.
    #[must_use]
    pub fn new(temperature: f64) -> Self {
        SimulationOptions {
            temperature,
            seed: None,
            equilibration_events: 1000,
            events_per_solve: 40_000,
            kernel: KmcKernel::default(),
        }
    }

    /// Sets a deterministic RNG seed (recommended for tests and benches).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Selects the event-rate maintenance kernel.
    #[must_use]
    pub fn with_kernel(mut self, kernel: KmcKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sets the number of equilibration events.
    #[must_use]
    pub fn with_equilibration(mut self, events: usize) -> Self {
        self.equilibration_events = events;
        self
    }

    /// Sets the number of measurement events per stationary solve.
    #[must_use]
    pub fn with_events_per_solve(mut self, events: usize) -> Self {
        self.events_per_solve = events;
        self
    }
}

/// One recorded point of a time-domain trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracePoint {
    /// Simulation time in seconds at which the state below became current.
    pub time: f64,
    /// Number of excess electrons per island.
    pub electrons: Vec<i64>,
    /// Island potentials in volt.
    pub potentials: Vec<f64>,
}

/// Kinetic Monte-Carlo simulator over a [`TunnelSystem`].
#[derive(Debug, Clone)]
pub struct MonteCarloSimulator {
    system: TunnelSystem,
    options: SimulationOptions,
    rng: StdRng,
    /// Charge state plus incrementally-maintained island potentials.
    live: LiveState,
    /// Persistent ΔF-independent rate factors (junction prefactors, kT).
    rate_ctx: RateContext,
    /// Reusable per-event rate buffer — keeps the step loop allocation-free.
    /// Only the [`KmcKernel::FullRecompute`] path writes it.
    rates: Vec<f64>,
    /// Incrementally maintained event rates + selection tree; present iff
    /// the kernel resolves to the tree path ([`KmcKernel::uses_tree`], so
    /// [`KmcKernel::Auto`] picks it for large circuits).
    table: Option<EventRateTable>,
    /// Set by [`Self::system_mut`]: the next step must fold pending drive /
    /// background changes into the live state before evaluating rates.
    drives_dirty: bool,
    time: f64,
    /// Net number of electrons that have tunnelled from endpoint `a` to
    /// endpoint `b` of each junction.
    net_transfers: Vec<i64>,
    /// Total number of events executed since the counters were last reset.
    events_executed: u64,
    frozen: bool,
}

impl MonteCarloSimulator {
    /// Creates a simulator for the given system and options, starting from
    /// the charge-neutral state.
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] for a negative or
    /// non-finite temperature.
    pub fn new(system: TunnelSystem, options: SimulationOptions) -> Result<Self, MonteCarloError> {
        if options.temperature < 0.0 || !options.temperature.is_finite() {
            return Err(MonteCarloError::InvalidArgument(format!(
                "temperature must be non-negative and finite, got {}",
                options.temperature
            )));
        }
        let rng = match options.seed {
            Some(seed) => StdRng::seed_from_u64(seed),
            None => StdRng::from_entropy(),
        };
        let islands = system.island_count();
        let junctions = system.junctions().len();
        let rate_ctx = RateContext::new(&system, options.temperature)?;
        let live = LiveState::new(&system, ChargeState::neutral(islands));
        let table = options
            .kernel
            .uses_tree(system.event_count())
            .then(|| EventRateTable::new(&system, &rate_ctx, &live));
        Ok(MonteCarloSimulator {
            system,
            options,
            rng,
            live,
            rate_ctx,
            rates: vec![0.0; 2 * junctions],
            table,
            drives_dirty: false,
            time: 0.0,
            net_transfers: vec![0; junctions],
            events_executed: 0,
            frozen: false,
        })
    }

    /// The tunnel system being simulated.
    #[must_use]
    pub fn system(&self) -> &TunnelSystem {
        &self.system
    }

    /// The options the simulator was created with.
    #[must_use]
    pub fn options(&self) -> &SimulationOptions {
        &self.options
    }

    /// Mutable access to the tunnel system, used to change source voltages
    /// or background charges between runs (counters should normally be
    /// reset afterwards with [`Self::reset_counters`]). Any changes are
    /// folded into the cached island potentials at the next step.
    pub fn system_mut(&mut self) -> &mut TunnelSystem {
        self.drives_dirty = true;
        &mut self.system
    }

    /// Folds pending drive/background changes into the live state. Cheap
    /// when nothing is pending (one flag test), so the step loop never pays
    /// the comparison pass for runs that do not touch the drives.
    fn sync_drives(&mut self) {
        if self.drives_dirty {
            self.live.sync(&self.system);
            self.drives_dirty = false;
        }
    }

    /// Current charge state.
    #[must_use]
    pub fn state(&self) -> &ChargeState {
        self.live.state()
    }

    /// Current simulation time in seconds.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Returns `true` if the last step found no executable event (all rates
    /// zero, which can only happen at exactly zero temperature deep in
    /// blockade).
    #[must_use]
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Net number of electrons that have tunnelled from endpoint `a` to
    /// endpoint `b` of each junction (indexed like
    /// [`TunnelSystem::junctions`]) since the counters were last reset.
    /// Differences of these counters across a time window are what the
    /// transient sampling layer turns into window-averaged currents.
    #[must_use]
    pub fn net_transfers(&self) -> &[i64] {
        &self.net_transfers
    }

    /// Advances the event clock to at least `t` (absolute simulation time,
    /// seconds), executing tunnel events as they come. If the system
    /// freezes (every rate zero — deep blockade at zero temperature) the
    /// clock jumps directly to `t`: time passes, no charge moves. A later
    /// call after the drive voltages change re-evaluates the rates, so a
    /// frozen system thaws as soon as an event becomes favourable.
    ///
    /// This is the trait-driven sampling face of the engine's internal
    /// Gillespie loop: callers alternate `run_until` with voltage updates
    /// and read [`Self::net_transfers`] between calls.
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] for a non-finite
    /// target time, and propagates [`Self::step`] errors.
    pub fn run_until(&mut self, t: f64) -> Result<(), MonteCarloError> {
        if !t.is_finite() {
            return Err(MonteCarloError::InvalidArgument(format!(
                "target time must be finite, got {t}"
            )));
        }
        while self.time < t {
            if self.step()?.is_none() {
                self.time = t;
                break;
            }
        }
        Ok(())
    }

    /// Resets the time, transfer counters and event counter, keeping the
    /// current charge state (used after equilibration and between sweep
    /// points).
    pub fn reset_counters(&mut self) {
        self.time = 0.0;
        self.events_executed = 0;
        self.frozen = false;
        for t in &mut self.net_transfers {
            *t = 0;
        }
    }

    /// Executes a single tunnel event. Returns the event that occurred, or
    /// `None` if the system is frozen (no event has a non-zero rate).
    ///
    /// This is the incremental hot path: pending drive/background changes
    /// are folded in with precomputed response columns
    /// ([`LiveState::sync`]), and applying the chosen event is an
    /// O(islands) potential correction — no linear solve, no allocation.
    /// Under [`KmcKernel::Incremental`] (what [`KmcKernel::Auto`], the
    /// default, resolves to on large circuits) the candidate rates are
    /// maintained in an [`EventRateTable`] — only the fired junction's
    /// strongly-coupled events are re-evaluated after each event, and the
    /// total and selection run on an O(log E) partial-sum tree. Under
    /// [`KmcKernel::FullRecompute`] every rate refreshes its ΔF-dependent
    /// factor ([`RateContext::fill_rates`] into a reusable buffer) and
    /// selection is a linear scan.
    ///
    /// # Errors
    ///
    /// Propagates waiting-time sampling errors (which cannot occur for the
    /// finite, positive total rate this method establishes first).
    pub fn step(&mut self) -> Result<Option<TunnelEvent>, MonteCarloError> {
        self.sync_drives();
        let (total, chosen_by_table) = match &mut self.table {
            Some(table) => {
                table.sync(&self.system, &self.rate_ctx, &self.live);
                (table.total(), true)
            }
            None => (
                self.rate_ctx
                    .fill_rates(&self.system, &self.live, &mut self.rates),
                false,
            ),
        };
        if total <= 0.0 {
            self.frozen = true;
            return Ok(None);
        }
        let dt = exponential_waiting_time(&mut self.rng, total)?;
        let chosen = if chosen_by_table {
            let target = self.rng.gen::<f64>() * total;
            self.table
                .as_ref()
                .expect("the incremental kernel owns a table")
                .select(target)
        } else {
            select_event(&mut self.rng, &self.rates, total)
        };
        let event = self.system.event(chosen);
        self.live.apply(&self.system, event);
        if let Some(table) = &mut self.table {
            table.apply_event(&self.system, &self.rate_ctx, &self.live, event);
        }
        self.time += dt;
        self.events_executed += 1;
        match event.direction {
            se_orthodox::Direction::AToB => self.net_transfers[event.junction] += 1,
            se_orthodox::Direction::BToA => self.net_transfers[event.junction] -= 1,
        }
        self.frozen = false;
        Ok(Some(event))
    }

    /// Runs the equilibration phase configured in the options and resets the
    /// observable counters afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::step`] errors.
    pub fn equilibrate(&mut self) -> Result<(), MonteCarloError> {
        for _ in 0..self.options.equilibration_events {
            if self.step()?.is_none() {
                break;
            }
        }
        self.reset_counters();
        Ok(())
    }

    /// Runs `events` measurement events (after equilibration) and returns
    /// the collected observables.
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] if `events == 0`, and
    /// propagates step errors.
    pub fn run_events(&mut self, events: usize) -> Result<RunResult, MonteCarloError> {
        if events == 0 {
            return Err(MonteCarloError::InvalidArgument(
                "a run needs at least one event".into(),
            ));
        }
        self.equilibrate()?;
        let mut occupation = OccupationTracker::new(self.system.island_count(), self.time);
        for _ in 0..events {
            match self.step()? {
                Some(event) => occupation.record(&self.system, self.live.state(), event, self.time),
                None => break,
            }
        }
        Ok(self.collect(occupation.finish(self.live.state(), self.time)))
    }

    /// Runs until the simulation clock advances by `duration` seconds
    /// (after equilibration) or the system freezes.
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] for a non-positive
    /// duration, and propagates step errors.
    pub fn run_for(&mut self, duration: f64) -> Result<RunResult, MonteCarloError> {
        if !(duration > 0.0) || !duration.is_finite() {
            return Err(MonteCarloError::InvalidArgument(format!(
                "duration must be positive and finite, got {duration}"
            )));
        }
        self.equilibrate()?;
        let t_end = self.time + duration;
        let mut occupation = OccupationTracker::new(self.system.island_count(), self.time);
        while self.time < t_end {
            match self.step()? {
                Some(event) => occupation.record(&self.system, self.live.state(), event, self.time),
                None => break,
            }
        }
        // The final event may overshoot `t_end`; occupation is integrated
        // over the full elapsed window so that `collect`'s division by the
        // elapsed time yields a consistent time average (currents use the
        // same window through the transfer counters).
        Ok(self.collect(occupation.finish(self.live.state(), self.time)))
    }

    /// Records a time-domain trace of `events` tunnel events (no
    /// equilibration, no counter reset) — used for telegraph-noise and
    /// logic-transient experiments.
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] if `events == 0`, and
    /// propagates step errors.
    pub fn record_trace(&mut self, events: usize) -> Result<Vec<TracePoint>, MonteCarloError> {
        if events == 0 {
            return Err(MonteCarloError::InvalidArgument(
                "a trace needs at least one event".into(),
            ));
        }
        let mut trace = Vec::with_capacity(events + 1);
        self.sync_drives();
        trace.push(TracePoint {
            time: self.time,
            electrons: self.live.state().0.clone(),
            potentials: self.live.potentials().to_vec(),
        });
        for _ in 0..events {
            if self.step()?.is_none() {
                break;
            }
            trace.push(TracePoint {
                time: self.time,
                electrons: self.live.state().0.clone(),
                potentials: self.live.potentials().to_vec(),
            });
        }
        Ok(trace)
    }

    fn collect(&self, occupation_time: Vec<f64>) -> RunResult {
        let mut junction_currents = HashMap::new();
        let mut junction_transfers = HashMap::new();
        for (idx, junction) in self.system.junctions().iter().enumerate() {
            let net = self.net_transfers[idx];
            junction_transfers.insert(junction.name.clone(), net);
            let current = if self.time > 0.0 {
                // Electrons moving a→b carry conventional current b→a; report
                // the conventional current in the a→b reference direction.
                -E * net as f64 / self.time
            } else {
                0.0
            };
            junction_currents.insert(junction.name.clone(), current);
        }
        let mean_occupation = occupation_time
            .iter()
            .map(|&t| if self.time > 0.0 { t / self.time } else { 0.0 })
            .collect();
        RunResult::new(
            self.time,
            self.events_executed,
            junction_currents,
            junction_transfers,
            mean_occupation,
            self.frozen,
        )
    }
}

/// Time-weighted island-occupation accumulator, shared by the scalar step
/// loop and the batched ensemble engine ([`crate::batched`]).
///
/// The occupation integral `∫ n_i dt` is piecewise constant and only
/// changes when an event touches island `i`, so instead of accumulating
/// `dwell · n` across **all** islands every step (which needs a copy of the
/// pre-event state), each island carries the start time of its current
/// segment and settles the finished segment only when its charge actually
/// changes — O(islands touched) per event.
pub(crate) struct OccupationTracker {
    occupation_time: Vec<f64>,
    segment_start: Vec<f64>,
}

impl OccupationTracker {
    pub(crate) fn new(islands: usize, start: f64) -> Self {
        OccupationTracker {
            occupation_time: vec![0.0; islands],
            segment_start: vec![start; islands],
        }
    }

    /// Settles the finished segments of the islands `event` touched.
    /// `state` is the post-event charge state and `t` the (possibly
    /// clamped) event time.
    #[inline]
    fn record(&mut self, system: &TunnelSystem, state: &ChargeState, event: TunnelEvent, t: f64) {
        self.record_endpoints(system.event_endpoints(event), |i| state.0[i], t);
    }

    /// [`Self::record`] with the post-event island charges supplied by a
    /// lookup instead of a materialized [`ChargeState`] — the batched
    /// engine's lanes keep their electrons in island-major planes.
    #[inline]
    pub(crate) fn record_endpoints(
        &mut self,
        endpoints: (se_orthodox::Endpoint, se_orthodox::Endpoint),
        electrons: impl Fn(usize) -> i64,
        t: f64,
    ) {
        let (from, to) = endpoints;
        if let se_orthodox::Endpoint::Island(i) = from {
            // The electron just left: the segment that ended held n + 1.
            self.occupation_time[i] += (electrons(i) + 1) as f64 * (t - self.segment_start[i]);
            self.segment_start[i] = t;
        }
        if let se_orthodox::Endpoint::Island(i) = to {
            self.occupation_time[i] += (electrons(i) - 1) as f64 * (t - self.segment_start[i]);
            self.segment_start[i] = t;
        }
    }

    /// Settles every island's open segment up to `t_end` and returns the
    /// per-island occupation times.
    fn finish(self, state: &ChargeState, t_end: f64) -> Vec<f64> {
        self.finish_with(|i| state.0[i], t_end)
    }

    /// [`Self::finish`] with the final island charges supplied by a lookup.
    pub(crate) fn finish_with(mut self, electrons: impl Fn(usize) -> i64, t_end: f64) -> Vec<f64> {
        for (i, occ) in self.occupation_time.iter_mut().enumerate() {
            *occ += electrons(i) as f64 * (t_end - self.segment_start[i]);
        }
        self.occupation_time
    }
}

/// Selects the event index with probability `rates[i] / total`.
///
/// This is [`se_numeric::sampling::select_weighted`] minus the per-call
/// validation pass: the step loop has already established that every rate
/// is finite and non-negative and that `total > 0`. The round-off fallback
/// is the same — if `total` (summed junction-pairwise) lands marginally
/// above the linear scan's accumulation, the last non-zero rate wins.
#[inline]
fn select_event<R: Rng + ?Sized>(rng: &mut R, rates: &[f64], total: f64) -> usize {
    select_event_from(rng, rates.iter().copied(), total)
}

/// [`select_event`] over any event-ordered weight iterator — the batched
/// engine feeds one replica's strided lane of the event-major rate matrix.
/// One forward pass: the zero-skip accumulation of the scalar scan plus the
/// round-off fallback (last non-zero weight wins) folded into the same
/// traversal, so the selected index — and the single RNG draw — are
/// bit-identical to the scalar path.
#[inline]
pub(crate) fn select_event_from<R: Rng + ?Sized>(
    rng: &mut R,
    weights: impl Iterator<Item = f64>,
    total: f64,
) -> usize {
    let target = rng.gen::<f64>() * total;
    select_with_target(weights, target)
}

/// The deterministic tail of [`select_event_from`]: the zero-skip linear
/// scan for the first positive weight whose running sum exceeds `target`,
/// falling back to the last positive weight when round-off leaves the
/// target unreached. Split out so the batched engine can draw every
/// replica's target in its per-lane RNG phase and resolve the selections
/// afterwards (by mask or by this scan) without touching any stream order.
#[inline]
pub(crate) fn select_with_target(weights: impl Iterator<Item = f64>, target: f64) -> usize {
    let mut acc = 0.0;
    let mut last_nonzero = None;
    for (i, w) in weights.enumerate() {
        // Skipping zero rates leaves the accumulation unchanged and spares
        // the frozen majority of a cold circuit's events the fp add.
        if w > 0.0 {
            acc += w;
            if target < acc {
                return i;
            }
            last_nonzero = Some(i);
        }
    }
    last_nonzero.expect("the total rate was positive")
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_orthodox::TunnelSystemBuilder;

    /// Symmetric SET at its conductance peak: gate charge = e/2.
    fn set_at_peak(vds: f64, temperature: f64) -> MonteCarloSimulator {
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
        let system = b.build().unwrap();
        MonteCarloSimulator::new(system, SimulationOptions::new(temperature).with_seed(12345))
            .unwrap()
    }

    #[test]
    fn rejects_bad_options() {
        let sim = set_at_peak(1e-3, 1.0);
        let system = sim.system().clone();
        assert!(MonteCarloSimulator::new(system.clone(), SimulationOptions::new(-1.0)).is_err());
        let mut ok = MonteCarloSimulator::new(system, SimulationOptions::new(1.0)).unwrap();
        assert!(ok.run_events(0).is_err());
        assert!(ok.run_for(0.0).is_err());
        assert!(ok.record_trace(0).is_err());
    }

    #[test]
    fn current_flows_at_conductance_peak() {
        let mut sim = set_at_peak(1e-3, 1.0);
        let result = sim.run_events(20_000).unwrap();
        let i_drain = result.junction_current("JD").unwrap();
        let i_source = result.junction_current("JS").unwrap();
        assert!(i_drain.abs() > 1e-12, "drain current {i_drain}");
        // Current continuity: the same current flows through both junctions
        // (within Monte-Carlo noise).
        assert!(
            (i_drain - i_source).abs() < 0.1 * i_drain.abs(),
            "continuity violated: {i_drain} vs {i_source}"
        );
    }

    #[test]
    fn current_direction_follows_bias_sign() {
        let mut forward = set_at_peak(1e-3, 1.0);
        let mut reverse = set_at_peak(-1e-3, 1.0);
        let i_f = forward
            .run_events(20_000)
            .unwrap()
            .junction_current("JD")
            .unwrap();
        let i_r = reverse
            .run_events(20_000)
            .unwrap()
            .junction_current("JD")
            .unwrap();
        assert!(
            i_f * i_r < 0.0,
            "bias reversal must reverse the current: {i_f} vs {i_r}"
        );
    }

    #[test]
    fn blockade_freezes_at_zero_temperature() {
        // Gate at zero charge, tiny bias, T = 0: every event is uphill.
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", 1e-5);
        let source = b.external("source", 0.0);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        let system = b.build().unwrap();
        let mut sim = MonteCarloSimulator::new(
            system,
            SimulationOptions::new(0.0)
                .with_seed(1)
                .with_equilibration(0),
        )
        .unwrap();
        let step = sim.step().unwrap();
        assert!(step.is_none());
        assert!(sim.is_frozen());
        let result = sim.run_events(100).unwrap();
        assert!(result.is_frozen());
        assert_eq!(result.events(), 0);
    }

    #[test]
    fn select_with_target_clamps_the_final_bucket() {
        // Round-off can leave `u * total` at or above the accumulated sum
        // (the junction-pairwise total associates differently from the
        // scan's fold). The selection must then clamp to the last event
        // with a non-zero rate — never panic, never return a zero-rate
        // event. The trailing zero rates model a cold circuit's frozen
        // tail.
        let rates = [0.0, 0.25, 0.5, 0.25, 0.0, 0.0];
        let total: f64 = rates.iter().sum();
        assert_eq!(select_with_target(rates.iter().copied(), total), 3);
        assert_eq!(
            select_with_target(rates.iter().copied(), total * (1.0 + 1e-9)),
            3
        );
        // In-range targets behave like the plain inverse-CDF scan.
        assert_eq!(select_with_target(rates.iter().copied(), 0.0), 1);
        assert_eq!(select_with_target(rates.iter().copied(), 0.3), 2);
        assert_eq!(select_with_target(rates.iter().copied(), 0.8), 3);
    }

    #[test]
    fn auto_kernel_resolves_by_event_count() {
        // Auto is a pure function of the circuit's event count: below the
        // threshold the flat fill_rates path, at or above it the tree —
        // explicit kernels override in both directions.
        assert!(!KmcKernel::Auto.uses_tree(AUTO_TREE_THRESHOLD - 1));
        assert!(KmcKernel::Auto.uses_tree(AUTO_TREE_THRESHOLD));
        assert!(KmcKernel::Incremental.uses_tree(2));
        assert!(!KmcKernel::FullRecompute.uses_tree(10_000));
        assert_eq!(KmcKernel::default(), KmcKernel::Auto);
    }

    #[test]
    fn kernels_agree_on_the_physics() {
        // The incremental table refills to bit-identical rates at every
        // refresh boundary, but its tree total associates differently from
        // the sequential fold (and between refills the maintained rates
        // may differ in final ulps), so the trajectories diverge; the
        // *currents* must still agree within Monte-Carlo error.
        let run = |kernel| {
            let mut sim = set_at_peak(1e-3, 1.0);
            sim.options.kernel = kernel;
            let mut sim = MonteCarloSimulator::new(sim.system().clone(), sim.options).unwrap();
            sim.run_events(50_000)
                .unwrap()
                .junction_current("JD")
                .unwrap()
        };
        let i_inc = run(KmcKernel::Incremental);
        let i_full = run(KmcKernel::FullRecompute);
        let rel = (i_inc - i_full).abs() / i_full.abs();
        assert!(
            rel < 0.05,
            "kernel currents diverged: {i_inc} vs {i_full} ({rel:.3})"
        );
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let mut a = set_at_peak(1e-3, 1.0);
        let mut b = set_at_peak(1e-3, 1.0);
        let ra = a.run_events(5_000).unwrap();
        let rb = b.run_events(5_000).unwrap();
        assert_eq!(
            ra.junction_transfer("JD"),
            rb.junction_transfer("JD"),
            "same seed must give identical transfer counts"
        );
        assert!((ra.total_time() - rb.total_time()).abs() < 1e-18);
    }

    #[test]
    fn kmc_current_agrees_with_master_equation_reference() {
        // The KMC estimate at the conductance peak must agree with the exact
        // orthodox (master-equation) current within Monte-Carlo error.
        let vds = 1e-3;
        let temperature = 1.0;
        let mut sim = set_at_peak(vds, temperature);
        let result = sim.run_events(100_000).unwrap();
        let i_kmc = result.junction_current("JD").unwrap();

        let set =
            se_orthodox::set::SingleElectronTransistor::symmetric(1e-18, 0.5e-18, 100e3).unwrap();
        let vg = E / (2.0 * 1e-18);
        let i_exact = set.current(vds, vg, 0.0, temperature).unwrap();
        let rel = (i_kmc - i_exact).abs() / i_exact.abs();
        assert!(
            rel < 0.1,
            "KMC {i_kmc} vs exact {i_exact} differ by {rel:.2}"
        );
    }

    #[test]
    fn trace_times_are_monotone() {
        let mut sim = set_at_peak(1e-3, 1.0);
        let trace = sim.record_trace(500).unwrap();
        assert!(trace.len() > 1);
        for pair in trace.windows(2) {
            assert!(pair[1].time >= pair[0].time);
        }
        // Island occupation in a single-island SET stays near 0/1 at the peak.
        assert!(trace.iter().all(|p| p.electrons[0].abs() <= 3));
    }

    #[test]
    fn run_for_advances_the_requested_duration() {
        let mut sim = set_at_peak(1e-3, 1.0);
        let result = sim.run_for(2e-9).unwrap();
        assert!(result.total_time() >= 2e-9);
        assert!(result.events() > 0);
    }

    #[test]
    fn run_until_advances_the_clock_and_counts_transfers() {
        let mut sim = set_at_peak(1e-3, 1.0);
        assert!(sim.run_until(f64::NAN).is_err());
        sim.run_until(1e-9).unwrap();
        assert!(sim.time() >= 1e-9);
        let early: Vec<i64> = sim.net_transfers().to_vec();
        sim.run_until(20e-9).unwrap();
        assert!(sim.time() >= 20e-9);
        // At the conductance peak, charge keeps flowing through the drain
        // junction as the clock advances.
        assert!(sim.net_transfers()[0].abs() > early[0].abs());
    }

    #[test]
    fn run_until_jumps_through_frozen_blockade() {
        // Zero temperature, zero bias: every event is uphill, so the clock
        // must jump to the target time with no transfers.
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", 1e-5);
        let source = b.external("source", 0.0);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        let system = b.build().unwrap();
        let mut sim = MonteCarloSimulator::new(
            system,
            SimulationOptions::new(0.0)
                .with_seed(1)
                .with_equilibration(0),
        )
        .unwrap();
        sim.run_until(5e-9).unwrap();
        assert_eq!(sim.time(), 5e-9);
        assert!(sim.is_frozen());
        assert!(sim.net_transfers().iter().all(|&n| n == 0));
        // Raising the drain bias far above the blockade threshold thaws it.
        sim.system_mut().set_external_voltage(0, 0.5).unwrap();
        sim.run_until(6e-9).unwrap();
        assert!(!sim.is_frozen());
        assert!(sim.net_transfers()[0] != 0);
    }

    #[test]
    fn mean_occupation_tracks_gate_charge() {
        // With the gate set to one full period (gate charge = e), the island
        // prefers exactly one extra electron.
        let cg = 1e-18;
        let vg = E / cg;
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", 0.0);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        b.capacitor("CG", gate, island, cg);
        let system = b.build().unwrap();
        let mut sim =
            MonteCarloSimulator::new(system, SimulationOptions::new(4.2).with_seed(99)).unwrap();
        let result = sim.run_events(20_000).unwrap();
        let occupation = result.mean_occupation(0).unwrap();
        assert!(
            (occupation - 1.0).abs() < 0.1,
            "mean occupation {occupation} should be ≈ 1"
        );
    }
}
