//! The incremental hot path: cached island potentials with O(islands)
//! per-event updates and an O(1) per-event free-energy contract.
//!
//! Both hot loops of the toolkit — the kinetic Monte-Carlo event loop and
//! the master-equation state-space assembly — evaluate the free-energy
//! change of every candidate tunnel event in a long sequence of *nearby*
//! charge states. Recomputing island potentials from scratch costs
//! O(islands²) per state (a dense matrix–vector product against
//! `K = C_II⁻¹`); but a tunnel event only moves one electron, so the
//! potential update is a rank-one correction:
//!
//! ```text
//! φ' = φ + Δq_i · K[:, i]        (one axpy per changed island)
//! ```
//!
//! [`LiveState`] owns the charge state plus that cached potential vector,
//! and [`LiveState::delta_free_energy`] combines the cached potentials with
//! the per-junction self-charging table precomputed at build time
//! ([`TunnelSystem::junction_self_charging`]) into an **O(1) per event**
//! evaluation. Drive (voltage) and background-charge changes are folded in
//! the same way through the precomputed per-electrode response columns, so
//! a bias step is O(islands), not a fresh solve.
//!
//! Internally the cache is one flat endpoint-potential buffer — island
//! potentials followed by the external voltages — so the rate loop reads
//! any endpoint's potential by a precomputed flat index with no branching
//! on the endpoint kind.
//!
//! [`RateContext`] is the companion persistent rate table: junction
//! prefactors `1/(e²·R)`, self-charging energies, flat endpoint indices
//! and the thermal energy are computed once, so a rate refresh after an
//! event touches only the ΔF-dependent factors.
//! [`RateContext::fill_rates`] enumerates the events of one state and rates
//! them for the flat Gillespie loop; the master-equation walk splits the
//! same evaluation into [`RateContext::fill_delta_f`] per state and one
//! [`RateContext::rates_from_delta_f`] pass over many states.
//!
//! Floating-point discipline: incremental updates drift by one rounding
//! step per axpy, so [`LiveState`] transparently recomputes its potentials
//! from scratch every [`REFRESH_INTERVAL`] updates. The refresh schedule
//! depends only on the number of updates applied — never on wall clock or
//! thread scheduling — so runs remain bit-for-bit reproducible.

use crate::error::OrthodoxError;
use crate::rates::{rate_from_parts, rate_from_parts_branchfree, rate_zero_kelvin};
use crate::system::{ChargeState, Endpoint, TunnelEvent, TunnelSystem};
use se_units::constants::{BOLTZMANN, E};

/// Number of incremental potential updates after which [`LiveState`]
/// recomputes its potentials exactly, bounding floating-point drift to
/// ~√`REFRESH_INTERVAL` rounding steps (≈10⁻¹⁴ relative) between resyncs.
pub const REFRESH_INTERVAL: u32 = 8192;

/// A charge state with incrementally-maintained island potentials.
///
/// See the [module documentation](self) for the update algebra. The
/// invariant is: `potentials() == system.island_potentials(state)` up to
/// accumulated rounding, **provided** the system's drive voltages and
/// background charges have not changed since the last [`LiveState::sync`]
/// (or construction/refresh).
#[derive(Debug, Clone, PartialEq)]
pub struct LiveState {
    state: ChargeState,
    /// Flat endpoint-potential buffer: `[island potentials | external
    /// voltages]`. The external tail doubles as the record of the last
    /// drive values folded in, which is what `sync` compares against.
    phi: Vec<f64>,
    islands: usize,
    seen_backgrounds: Vec<f64>,
    updates_since_refresh: u32,
    /// Monotone counter of non-event potential revisions: every exact
    /// refresh, drive/background sync fold and island shift bumps it.
    /// Derived caches keyed on the potentials (the incremental event-rate
    /// table) compare generations to detect that their base state was
    /// rebuilt under them and they must refill rather than patch.
    generation: u64,
}

impl LiveState {
    /// Creates a live state for `state`, computing the potentials exactly.
    #[must_use]
    pub fn new(system: &TunnelSystem, state: ChargeState) -> Self {
        let islands = system.island_count();
        let mut live = LiveState {
            state,
            phi: vec![0.0; islands + system.external_count()],
            islands,
            seen_backgrounds: vec![0.0; islands],
            updates_since_refresh: 0,
            generation: 0,
        };
        live.refresh(system);
        live
    }

    /// The tracked charge state.
    #[must_use]
    pub fn state(&self) -> &ChargeState {
        &self.state
    }

    /// Consumes the live state, returning the charge state.
    #[must_use]
    pub fn into_state(self) -> ChargeState {
        self.state
    }

    /// The cached island potentials in volt.
    #[must_use]
    pub fn potentials(&self) -> &[f64] {
        &self.phi[..self.islands]
    }

    /// The full flat endpoint-potential buffer (islands, then externals),
    /// indexed by the flat endpoint indices of [`RateContext`].
    pub(crate) fn endpoint_potentials(&self) -> &[f64] {
        &self.phi
    }

    /// The non-event revision counter (see the `generation` field). Event
    /// applies bump it only when they trigger the periodic exact refresh.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Recomputes the potentials exactly from the current system state and
    /// resets the drift counter.
    pub fn refresh(&mut self, system: &TunnelSystem) {
        let islands = system.island_potentials(&self.state);
        self.phi[..self.islands].copy_from_slice(&islands);
        for k in 0..system.external_count() {
            self.phi[self.islands + k] = system.external_voltage(k);
        }
        for (seen, i) in self.seen_backgrounds.iter_mut().zip(0..) {
            *seen = system.background_charge(i);
        }
        self.updates_since_refresh = 0;
        self.generation = self.generation.wrapping_add(1);
    }

    /// Folds any drive-voltage or background-charge changes made to the
    /// system since the last sync into the cached potentials — one axpy of
    /// the precomputed response column per changed value, O(islands) each.
    ///
    /// Call this after mutating the system (and before reading potentials
    /// or free energies); the comparison pass itself is O(externals +
    /// islands) and free of floating-point effects when nothing changed.
    pub fn sync(&mut self, system: &TunnelSystem) {
        for k in 0..(self.phi.len() - self.islands) {
            let v = system.external_voltage(k);
            let seen = self.phi[self.islands + k];
            if v != seen {
                let dv = v - seen;
                axpy(&mut self.phi[..self.islands], system.drive_response(k), dv);
                self.phi[self.islands + k] = v;
                self.generation = self.generation.wrapping_add(1);
                self.count_update(system);
            }
        }
        for i in 0..self.seen_backgrounds.len() {
            let q0 = system.background_charge(i);
            if q0 != self.seen_backgrounds[i] {
                // q_i = −e·n_i + e·q0_i, so Δq0 adds e·Δq0 of island charge.
                let dq = E * (q0 - self.seen_backgrounds[i]);
                axpy(&mut self.phi[..self.islands], system.inverse_row(i), dq);
                self.seen_backgrounds[i] = q0;
                self.generation = self.generation.wrapping_add(1);
                self.count_update(system);
            }
        }
    }

    /// Applies a tunnel event: the island charges move one electron and the
    /// potentials are corrected with a single axpy of the junction's
    /// precomputed event-response column — O(islands) total, independent of
    /// junction count.
    ///
    /// # Panics
    ///
    /// Panics if the event's junction index is out of range.
    #[inline]
    pub fn apply(&mut self, system: &TunnelSystem, event: TunnelEvent) {
        let (from, to) = system.event_endpoints(event);
        if let Endpoint::Island(i) = from {
            self.state.0[i] -= 1;
        }
        if let Endpoint::Island(i) = to {
            self.state.0[i] += 1;
        }
        let sign = match event.direction {
            crate::system::Direction::AToB => 1.0,
            crate::system::Direction::BToA => -1.0,
        };
        axpy(
            &mut self.phi[..self.islands],
            system.junction_response(event.junction),
            sign,
        );
        self.count_update(system);
    }

    /// Adds `delta` electrons to island `i` and corrects the potentials
    /// with one axpy — the primitive the master-equation enumeration uses
    /// to walk its state lattice incrementally.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shift_island(&mut self, system: &TunnelSystem, i: usize, delta: i64) {
        if delta == 0 {
            return;
        }
        self.state.0[i] += delta;
        // q_i = −e·n_i + …, so `delta` electrons change the charge by −e·Δ.
        axpy(
            &mut self.phi[..self.islands],
            system.inverse_row(i),
            -E * delta as f64,
        );
        self.generation = self.generation.wrapping_add(1);
        self.count_update(system);
    }

    /// Free-energy change of a candidate event in the tracked state — O(1):
    /// two cached potentials and one precomputed self-charging constant.
    ///
    /// # Panics
    ///
    /// Panics if the event's junction index is out of range.
    #[must_use]
    pub fn delta_free_energy(&self, system: &TunnelSystem, event: TunnelEvent) -> f64 {
        system.delta_free_energy_with_potentials(self.potentials(), event)
    }

    fn count_update(&mut self, system: &TunnelSystem) {
        self.updates_since_refresh += 1;
        if self.updates_since_refresh >= REFRESH_INTERVAL {
            self.refresh(system);
        }
    }
}

fn axpy(target: &mut [f64], column: &[f64], factor: f64) {
    for (t, &c) in target.iter_mut().zip(column) {
        *t += factor * c;
    }
}

/// Persistent per-junction rate table: everything about the orthodox rate
/// that does **not** depend on ΔF — junction prefactors, self-charging
/// energies, flat endpoint indices into the [`LiveState`] potential buffer
/// and the thermal energy — is computed once here, so a post-event rate
/// refresh touches only the ΔF-dependent factors.
#[derive(Debug, Clone, PartialEq)]
pub struct RateContext {
    temperature: f64,
    kt: f64,
    /// Reciprocal thermal energy, hoisting the division out of the
    /// per-event path (0 at zero temperature, where it is never used).
    inv_kt: f64,
    /// The ΔF above which the Boltzmann suppression underflows to exact
    /// zero (`MAX_EXPONENT · kT`): the one-compare fast path for frozen
    /// events, which dominate cold circuits.
    frozen_cutoff: f64,
    /// `1/(e²·R_j)` per junction.
    prefactors: Vec<f64>,
    /// `e²/2 · (K_aa + K_bb − 2·K_ab)` per junction: the self-charging
    /// energy in joule.
    self_energies: Vec<f64>,
    /// Flat endpoint indices `(a, b)` per junction into
    /// `LiveState::endpoint_potentials` (islands first, then externals).
    endpoints: Vec<(usize, usize)>,
}

impl RateContext {
    /// Builds the rate table for a system at the given temperature.
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::InvalidParameter`] for a negative or
    /// non-finite temperature (junction resistances were validated when the
    /// system was built).
    pub fn new(system: &TunnelSystem, temperature: f64) -> Result<Self, OrthodoxError> {
        if temperature < 0.0 || !temperature.is_finite() {
            return Err(OrthodoxError::InvalidParameter(format!(
                "temperature must be non-negative and finite, got {temperature}"
            )));
        }
        let islands = system.island_count();
        let flat = |e: Endpoint| match e {
            Endpoint::Island(i) => i,
            Endpoint::External(k) => islands + k,
        };
        let kt = BOLTZMANN * temperature;
        Ok(RateContext {
            temperature,
            kt,
            inv_kt: if kt > 0.0 { 1.0 / kt } else { 0.0 },
            frozen_cutoff: crate::rates::MAX_EXPONENT * kt,
            prefactors: system
                .junctions()
                .iter()
                .map(|j| 1.0 / (E * E * j.resistance))
                .collect(),
            self_energies: (0..system.junctions().len())
                .map(|j| 0.5 * E * E * system.junction_self_charging(j))
                .collect(),
            endpoints: system
                .junctions()
                .iter()
                .map(|j| (flat(j.a), flat(j.b)))
                .collect(),
        })
    }

    /// The temperature the table was built for, in kelvin.
    #[must_use]
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Orthodox rate of a single event given its free-energy change — the
    /// infallible O(1) fast path (same limits as
    /// [`crate::rates::tunnel_rate`]).
    ///
    /// # Panics
    ///
    /// Panics if `junction` is out of range.
    #[must_use]
    pub fn event_rate(&self, junction: usize, delta_f: f64) -> f64 {
        rate_from_parts(delta_f, self.prefactors[junction], self.kt, self.inv_kt)
    }

    /// The thermal energy `k_B·T` in joule.
    pub(crate) fn kt(&self) -> f64 {
        self.kt
    }

    /// The frozen-event ΔF cutoff `MAX_EXPONENT · kT` in joule: every
    /// event whose ΔF exceeds it rates exactly zero in
    /// [`Self::fill_rates`].
    #[must_use]
    pub fn frozen_cutoff(&self) -> f64 {
        self.frozen_cutoff
    }

    /// Per-junction prefactors `1/(e²·R)`.
    pub(crate) fn prefactors(&self) -> &[f64] {
        &self.prefactors
    }

    /// Per-junction self-charging energies in joule.
    pub(crate) fn self_energies(&self) -> &[f64] {
        &self.self_energies
    }

    /// Per-junction flat endpoint index pairs.
    pub(crate) fn endpoints(&self) -> &[(usize, usize)] {
        &self.endpoints
    }

    /// Evaluates the rate of **every** candidate event of the system in the
    /// given live state, in canonical event order ([`TunnelSystem::event`]),
    /// and returns the total rate. `rates` is resized to
    /// [`TunnelSystem::event_count`]; reusing one buffer across calls keeps
    /// the loop allocation-free.
    ///
    /// This is the flat Gillespie loop's rate pass (`se-montecarlo`'s
    /// `step`); the master-equation walk reaches the same bits through
    /// [`Self::fill_delta_f`] and [`Self::rates_from_delta_f`]. Each rate is
    /// compare-first ([`crate::rates`]): a frozen or strongly favourable
    /// event costs one compare, which keeps this per-event loop ahead of a
    /// branch-free pass on cold circuits. The live state must be in sync
    /// with the system ([`LiveState::sync`]).
    pub fn fill_rates(&self, system: &TunnelSystem, live: &LiveState, rates: &mut Vec<f64>) -> f64 {
        debug_assert_eq!(self.endpoints.len(), system.junctions().len());
        let phi = live.endpoint_potentials();
        rates.resize(2 * self.endpoints.len(), 0.0);
        let mut total = 0.0;
        // A ΔF above `frozen_cutoff` underflows to rate 0 inside
        // `rate_from_parts` anyway; testing it here first makes the frozen
        // majority of a cold circuit's events cost one compare, no division.
        let cutoff = self.frozen_cutoff;
        for ((pair, &(ia, ib)), j) in rates
            .chunks_exact_mut(2)
            .zip(&self.endpoints)
            .zip(0_usize..)
        {
            let phi_gap = E * (phi[ia] - phi[ib]);
            let self_energy = self.self_energies[j];
            let df_ab = phi_gap + self_energy;
            let df_ba = self_energy - phi_gap;
            let rate_ab = if df_ab > cutoff {
                0.0
            } else {
                rate_from_parts(df_ab, self.prefactors[j], self.kt, self.inv_kt)
            };
            let rate_ba = if df_ba > cutoff {
                0.0
            } else {
                rate_from_parts(df_ba, self.prefactors[j], self.kt, self.inv_kt)
            };
            pair[0] = rate_ab;
            pair[1] = rate_ba;
            total += rate_ab + rate_ba;
        }
        total
    }

    /// The ΔF half of [`Self::fill_rates`], for a caller that evaluates the
    /// rates of many states in one pass (the master-equation walk): writes
    /// the free-energy change of every event in `live`, in canonical event
    /// order, into `delta_f` (one slot per event).
    ///
    /// # Panics
    ///
    /// Panics if `delta_f` is shorter than the event count.
    pub fn fill_delta_f(&self, live: &LiveState, delta_f: &mut [f64]) {
        let phi = live.endpoint_potentials();
        let slots = delta_f[..2 * self.endpoints.len()].chunks_exact_mut(2);
        for ((pair, &(ia, ib)), &self_energy) in slots.zip(&self.endpoints).zip(&self.self_energies)
        {
            let phi_gap = E * (phi[ia] - phi[ib]);
            pair[0] = phi_gap + self_energy;
            pair[1] = self_energy - phi_gap;
        }
    }

    /// The rate half of [`Self::fill_rates`]: replaces each ΔF in `values`
    /// — consecutive states, each a full set of events in canonical order,
    /// as [`Self::fill_delta_f`] writes them — by its event's rate, bitwise
    /// the rate `fill_rates` returns, through the event table's kernel
    /// (`rates_into`).
    ///
    /// # Panics
    ///
    /// Panics if the length of `values` is not a multiple of the event
    /// count.
    pub fn rates_from_delta_f(&self, values: &mut [f64]) {
        // The kernel reads its ΔFs from a copy. Copying a block of states
        // at a time keeps the copy off the kernel's path: a copy per state
        // made the pass ≈ 1.4× slower on a 14 641-state, 10-event buffer.
        const BLOCK_STATES: usize = 64;
        let junctions = self.endpoints.len();
        assert_eq!(values.len() % (2 * junctions), 0, "whole states only");
        let (pairs, _) = values.as_chunks_mut::<2>();
        let mut scratch = vec![[0.0; 2]; BLOCK_STATES * junctions];
        for block in pairs.chunks_mut(BLOCK_STATES * junctions) {
            let df = &mut scratch[..block.len()];
            df.copy_from_slice(block);
            for (rates, df) in block
                .chunks_exact_mut(junctions)
                .zip(df.chunks_exact(junctions))
            {
                self.rates_into(df, &self.prefactors, rates);
            }
        }
    }

    /// The `fill_rates` cutoff-then-kernel expression over junction pairs:
    /// `rates[k]` receives both directed rates for the ΔF pair `df[k]` and
    /// the prefactor `prefactors[k]`, every slot evaluated. At zero
    /// temperature the frozen cutoff is 0, so cutoff-then-kernel is exactly
    /// the 0 K select; above it the kernel is [`crate::rates`]' branch-free
    /// one behind the frozen-cutoff select. Both loops auto-vectorize, and
    /// their bits equal `rate_from_parts`' (pinned in `rates.rs`).
    pub(crate) fn rates_into(&self, df: &[[f64; 2]], prefactors: &[f64], rates: &mut [[f64; 2]]) {
        let slots = rates.iter_mut().zip(df).zip(prefactors);
        if self.kt == 0.0 {
            for ((rate, df), &pf) in slots {
                for (rate, &df) in rate.iter_mut().zip(df) {
                    *rate = rate_zero_kelvin(df, pf);
                }
            }
        } else {
            for ((rate, df), &pf) in slots {
                for (rate, &df) in rate.iter_mut().zip(df) {
                    *rate = self.thermal_rate(df, pf);
                }
            }
        }
    }

    /// The rate above zero temperature as a lane loop evaluates it: the
    /// branch-free kernel behind the frozen-cutoff select, bitwise
    /// `fill_rates`' value. The select is not redundant: one ulp above the
    /// cutoff, `ΔF/kT` can round to exactly `MAX_EXPONENT`, where the kernel
    /// alone gives a tiny non-zero rate.
    #[inline(always)]
    pub(crate) fn thermal_rate(&self, delta_f: f64, prefactor: f64) -> f64 {
        let rate = rate_from_parts_branchfree(delta_f, prefactor, self.kt, self.inv_kt);
        if delta_f > self.frozen_cutoff {
            0.0
        } else {
            rate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::tunnel_rate;
    use crate::system::{Direction, TunnelSystemBuilder};

    /// Two-island chain with a gate: drain — J0 — i0 — J1 — i1 — J2 — source.
    fn chain(vd: f64, vg: f64) -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let i0 = b.island("i0", 0.0);
        let i1 = b.island("i1", 0.1);
        let drain = b.external("drain", vd);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("J0", drain, i0, 0.7e-18, 80e3);
        b.junction("J1", i0, i1, 0.4e-18, 120e3);
        b.junction("J2", i1, source, 0.6e-18, 90e3);
        b.capacitor("Cg0", gate, i0, 0.3e-18);
        b.capacitor("Cg1", gate, i1, 0.5e-18);
        b.build().unwrap()
    }

    fn assert_tracks(system: &TunnelSystem, live: &LiveState) {
        let exact = system.island_potentials(live.state());
        for (a, b) in live.potentials().iter().zip(&exact) {
            assert!(
                (a - b).abs() <= 1e-12 * b.abs().max(1e-9),
                "cached {a} vs exact {b}"
            );
        }
        for event in system.events() {
            let incremental = live.delta_free_energy(system, event);
            let full = system.delta_free_energy(live.state(), event);
            assert!(
                (incremental - full).abs() <= 1e-12 * full.abs().max(1e-25),
                "event {event:?}: incremental {incremental} vs full {full}"
            );
        }
    }

    #[test]
    fn apply_tracks_full_recompute_over_an_event_walk() {
        let system = chain(2e-3, 0.05);
        let mut live = LiveState::new(&system, ChargeState::neutral(2));
        // Deterministic pseudo-random event walk.
        let mut x = 9_u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let event = system.event((x >> 33) as usize % system.event_count());
            live.apply(&system, event);
        }
        assert_tracks(&system, &live);
    }

    #[test]
    fn sync_tracks_drive_and_background_changes() {
        let mut system = chain(0.0, 0.0);
        let mut live = LiveState::new(&system, ChargeState(vec![1, -2]));
        system.set_external_voltage(0, 4e-3).unwrap();
        system.set_external_voltage(2, -0.07).unwrap();
        system.set_background_charge(1, 0.35).unwrap();
        live.sync(&system);
        assert_tracks(&system, &live);
        // A second sync with nothing changed is a no-op.
        let before = live.clone();
        live.sync(&system);
        assert_eq!(before, live);
    }

    #[test]
    fn periodic_refresh_bounds_drift() {
        let system = chain(1e-3, 0.02);
        let mut live = LiveState::new(&system, ChargeState::neutral(2));
        let onto = TunnelEvent {
            junction: 0,
            direction: Direction::AToB,
        };
        // Walk far past the refresh interval; the counter must have wrapped.
        for _ in 0..(REFRESH_INTERVAL + 10) {
            live.apply(&system, onto);
            live.apply(&system, onto.reversed());
        }
        assert!(live.updates_since_refresh < REFRESH_INTERVAL);
        assert_tracks(&system, &live);
    }

    #[test]
    fn rate_context_matches_tunnel_rate() {
        let system = chain(3e-3, 0.04);
        let live = LiveState::new(&system, ChargeState(vec![0, 1]));
        for temperature in [0.0, 0.05, 1.0, 77.0] {
            let ctx = RateContext::new(&system, temperature).unwrap();
            let mut rates = Vec::new();
            let total = ctx.fill_rates(&system, &live, &mut rates);
            assert_eq!(rates.len(), system.event_count());
            let mut expected_total = 0.0;
            for (idx, event) in system.events().into_iter().enumerate() {
                let df = live.delta_free_energy(&system, event);
                let expected =
                    tunnel_rate(df, system.event_resistance(event), temperature).unwrap();
                let got = rates[idx];
                assert!(
                    (got - expected).abs() <= 1e-12 * expected.max(1e-30),
                    "event {idx} at T = {temperature}: {got} vs {expected}"
                );
                assert!(
                    (ctx.event_rate(event.junction, df) - expected).abs()
                        <= 1e-12 * expected.max(1e-30)
                );
                expected_total += got;
            }
            assert!((total - expected_total).abs() <= 1e-9 * expected_total.max(1e-30));
        }
    }

    #[test]
    fn split_rate_pass_is_bitwise_fill_rates() {
        // Many states in one buffer, at 0 K, with frozen events (0.05 K)
        // and hot: ΔF per state, then one rate pass over the whole buffer.
        let system = chain(3e-3, 0.04);
        let states: Vec<LiveState> = (-3..=3)
            .flat_map(|a| (-3..=3).map(move |b| ChargeState(vec![a, b])))
            .map(|state| LiveState::new(&system, state))
            .collect();
        let events = system.event_count();
        for temperature in [0.0, 0.05, 1.0, 77.0, 300.0] {
            let ctx = RateContext::new(&system, temperature).unwrap();
            let mut buffer = vec![0.0; states.len() * events];
            for (live, slots) in states.iter().zip(buffer.chunks_exact_mut(events)) {
                ctx.fill_delta_f(live, slots);
            }
            ctx.rates_from_delta_f(&mut buffer);
            let mut rates = Vec::new();
            for (live, split) in states.iter().zip(buffer.chunks_exact(events)) {
                ctx.fill_rates(&system, live, &mut rates);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(split), bits(&rates), "T = {temperature}");
            }
        }
    }

    #[test]
    fn rate_context_rejects_bad_temperature() {
        let system = chain(0.0, 0.0);
        assert!(RateContext::new(&system, -1.0).is_err());
        assert!(RateContext::new(&system, f64::NAN).is_err());
        assert_eq!(RateContext::new(&system, 4.2).unwrap().temperature(), 4.2);
    }
}
