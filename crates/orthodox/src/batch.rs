//! Struct-of-arrays twin of the incremental hot path: N replicas of one
//! system, stepped in lockstep over endpoint-major potential planes.
//!
//! The Monte-Carlo method is embarrassingly ensemble-shaped — seed repeats,
//! stationary solves at one bias point, noise statistics — yet running N
//! independent [`LiveState`](crate::LiveState)/[`crate::RateContext`] walks makes
//! every replica re-load the same per-junction constants (endpoint indices,
//! prefactors, self-charging energies) once per event. This module packs the
//! per-replica state the other way round, so one warm pass over the junction
//! tables serves the whole batch:
//!
//! ```text
//! BatchedLiveState (N replicas, endpoint-major planes)
//!
//!   phi:        [ φ(island 0): r0 r1 … rN-1 | φ(island 1): r0 … | … | φ(ext 0): r0 … ]
//!   electrons:  [ n(island 0): r0 r1 … rN-1 | n(island 1): r0 … ]
//!   rates:      [ Γ(event 0):  r0 r1 … rN-1 | Γ(event 1):  r0 … ]   (event-major planes)
//!   totals:     [ Σ_e Γ_e  per replica ]
//! ```
//!
//! [`BatchedRateContext::fill_rates_batch`] walks the junctions once; for
//! each junction it loads the endpoint pair, prefactor and self-charging
//! energy a single time and evaluates the two directed rates for all N
//! replicas over the two contiguous potential planes, in one of three lane
//! loops. At `kT = 0` every lane takes the 0 K select. Above it a cold fast
//! pass covers the frozen cutoff and the strongly favourable linear rate
//! (two compares and one multiply per rate, every event of a cold circuit)
//! and flags a junction whose ΔFs reach the thermal window; a flagged
//! junction's lanes then run through the branch-free thermal kernel of
//! [`crate::rates`], the one the scalar event table uses. A junction whose
//! lane 0 already sits in the window skips the fast pass. On a warm
//! circuit most junctions need the kernel: running the fast pass first on
//! every junction made the 2 K `small_ensemble` deck ≈ 10 % slower in
//! `run_s` than a fill that predicted warm junctions from the previous
//! fill, and the stateless probe takes back about half of that.
//!
//! The batch serves stationary ensembles: every lane shares the system's
//! drive voltages and background charges, which stay fixed for the batch's
//! lifetime, so only tunnel events move a lane's potentials.
//!
//! Bit-identity contract: every floating-point operation applied to one
//! replica's lane — the potential axpys of [`BatchedLiveState::apply`] and
//! [`BatchedLiveState::apply_all`], the per-junction rate evaluation and
//! the junction-order total accumulation, and the periodic exact refresh
//! after [`REFRESH_INTERVAL`] lane updates — is the *same operation in the
//! same order* as the scalar [`LiveState`](crate::LiveState) path. A batch lane is therefore
//! bit-for-bit identical to a standalone scalar walk of the same event
//! sequence, which is what lets the batched Monte-Carlo engine share seeds
//! (and tests, and goldens) with the single-replica simulator.

use crate::error::OrthodoxError;
use crate::live::{RateContext, REFRESH_INTERVAL};
use crate::rates::{rate_zero_kelvin, MAX_EXPONENT};
use crate::system::{ChargeState, Direction, Endpoint, TunnelEvent, TunnelSystem};
use se_units::constants::E;

/// N replicas of one system's charge state and cached island potentials,
/// packed as endpoint-major struct-of-arrays planes.
///
/// The batched sibling of [`LiveState`](crate::LiveState): replica `r`'s lane — the strided
/// elements `phi[e·N + r]`, `electrons[i·N + r]` — evolves through exactly
/// the scalar update algebra (one response-column axpy per event, an exact
/// recompute every [`REFRESH_INTERVAL`] lane updates), so each lane stays
/// bit-identical to a standalone `LiveState` fed the same sequence of
/// events.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedLiveState {
    replicas: usize,
    islands: usize,
    externals: usize,
    /// Endpoint-major potential planes: `phi[e * replicas + r]`, islands
    /// first, then the externals' drive voltages, exactly like the scalar
    /// flat buffer's tail.
    phi: Vec<f64>,
    /// Island-major electron planes: `electrons[i * replicas + r]`, plus
    /// one trailing *spill plane* at index `islands`. The spill plane lets
    /// [`Self::apply_slotted`] update both event endpoints unconditionally
    /// — external endpoints are routed to the spill slot instead of being
    /// branched around, which keeps the batched hot loop free of the
    /// data-dependent branches a lockstep front cannot predict. Spill
    /// contents are garbage by design and never read back as physics.
    electrons: Vec<i64>,
    /// Per-replica incremental-update counters driving the periodic exact
    /// refresh (the same deterministic schedule as the scalar path).
    updates_since_refresh: Vec<u32>,
    /// Scratch charge state reused by per-replica refreshes.
    scratch: ChargeState,
    /// Per-event `[from_slot, to_slot]` decode table (see
    /// [`Self::endpoint_slot`]) for the branchless batched applies.
    event_slots: Vec<[usize; 2]>,
    /// Island-plane-major scratch (`islands × replicas`, the same layout as
    /// `phi`) holding each lane's signed response column during
    /// [`Self::apply_all`]. Pass one scatters the per-lane columns here with
    /// narrow stores; pass two then folds whole planes into `phi` with
    /// contiguous vector adds — see `apply_all` for why the split matters.
    apply_scratch: Vec<f64>,
}

impl BatchedLiveState {
    /// Creates a batch of `replicas` lanes, all starting from `state`, with
    /// the potentials computed exactly (the same construction as
    /// [`LiveState::new`](crate::LiveState::new) per lane).
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::InvalidParameter`] if `replicas == 0` or the
    /// state's island count does not match the system.
    pub fn new(
        system: &TunnelSystem,
        state: ChargeState,
        replicas: usize,
    ) -> Result<Self, OrthodoxError> {
        if replicas == 0 {
            return Err(OrthodoxError::InvalidParameter(
                "a batch needs at least one replica".into(),
            ));
        }
        let islands = system.island_count();
        if state.0.len() != islands {
            return Err(OrthodoxError::InvalidParameter(format!(
                "charge state has {} islands, system has {islands}",
                state.0.len()
            )));
        }
        let externals = system.external_count();
        let event_slots = (0..system.event_count())
            .map(|e| {
                let (from, to) = system.event_endpoints(system.event(e));
                let slot = |endpoint| match endpoint {
                    Endpoint::Island(i) => i,
                    Endpoint::External(_) => islands,
                };
                [slot(from), slot(to)]
            })
            .collect();
        let mut live = BatchedLiveState {
            replicas,
            islands,
            externals,
            phi: vec![0.0; (islands + externals) * replicas],
            // One extra spill plane (see the field docs) after the islands.
            electrons: vec![0; (islands + 1) * replicas],
            updates_since_refresh: vec![0; replicas],
            scratch: state.clone(),
            event_slots,
            apply_scratch: vec![0.0; islands * replicas],
        };
        // All lanes start identical: compute the exact potentials once
        // (the very computation a scalar refresh performs) and broadcast.
        let potentials = system.island_potentials(&state);
        for (i, &n) in state.0.iter().enumerate() {
            live.electrons[i * replicas..(i + 1) * replicas].fill(n);
        }
        for (i, &p) in potentials.iter().enumerate() {
            live.phi[i * replicas..(i + 1) * replicas].fill(p);
        }
        for k in 0..externals {
            let plane = (islands + k) * replicas;
            live.phi[plane..plane + replicas].fill(system.external_voltage(k));
        }
        Ok(live)
    }

    /// Number of replica lanes.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Number of islands per replica.
    #[must_use]
    pub fn islands(&self) -> usize {
        self.islands
    }

    /// The number of excess electrons on `island` in replica `r`.
    ///
    /// # Panics
    ///
    /// Panics if `island` or `r` is out of range.
    #[inline]
    #[must_use]
    pub fn electron_count(&self, island: usize, r: usize) -> i64 {
        assert!(island < self.islands, "island {island} out of range");
        assert!(r < self.replicas, "replica {r} out of range");
        self.electrons[island * self.replicas + r]
    }

    /// [`Self::electron_count`] addressed by *slot*: a slot is either an
    /// island index or the spill slot `islands()` that
    /// [`Self::apply_slotted`] routes external endpoints to. Reading the
    /// spill slot is allowed and returns its (meaningless) accumulator —
    /// callers that settle per-slot occupation unconditionally multiply it
    /// into the matching spill entry of their own planes and never report
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `slot > islands()` or `r` is out of range.
    #[inline]
    #[must_use]
    pub fn slot_electron_count(&self, slot: usize, r: usize) -> i64 {
        assert!(slot <= self.islands, "slot {slot} out of range");
        assert!(r < self.replicas, "replica {r} out of range");
        self.electrons[slot * self.replicas + r]
    }

    /// Materializes replica `r`'s charge state (a strided gather — meant
    /// for observation, not the hot loop).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn charge_state(&self, r: usize) -> ChargeState {
        assert!(r < self.replicas, "replica {r} out of range");
        ChargeState(
            (0..self.islands)
                .map(|i| self.electrons[i * self.replicas + r])
                .collect(),
        )
    }

    /// Materializes replica `r`'s cached island potentials in volt.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[must_use]
    pub fn potentials(&self, r: usize) -> Vec<f64> {
        assert!(r < self.replicas, "replica {r} out of range");
        (0..self.islands)
            .map(|i| self.phi[i * self.replicas + r])
            .collect()
    }

    /// The full endpoint-major potential planes (for the batched rate fill).
    pub(crate) fn endpoint_planes(&self) -> &[f64] {
        &self.phi
    }

    /// Recomputes replica `r`'s potentials exactly from the system and
    /// resets its drift counter — the per-lane twin of
    /// [`LiveState::refresh`](crate::LiveState::refresh).
    pub fn refresh_replica(&mut self, system: &TunnelSystem, r: usize) {
        let replicas = self.replicas;
        for i in 0..self.islands {
            self.scratch.0[i] = self.electrons[i * replicas + r];
        }
        let potentials = system.island_potentials(&self.scratch);
        for (i, &p) in potentials.iter().enumerate() {
            self.phi[i * replicas + r] = p;
        }
        for k in 0..self.externals {
            self.phi[(self.islands + k) * replicas + r] = system.external_voltage(k);
        }
        self.updates_since_refresh[r] = 0;
    }

    /// Applies a tunnel event to replica `r`: one electron moves and the
    /// lane's potentials are corrected with a single axpy of the junction's
    /// precomputed event-response column — the scalar [`LiveState::apply`](crate::LiveState::apply)
    /// on lane `r`.
    ///
    /// # Panics
    ///
    /// Panics if the event's junction index or `r` is out of range.
    #[inline]
    pub fn apply(&mut self, system: &TunnelSystem, event: TunnelEvent, r: usize) {
        let (from, to) = system.event_endpoints(event);
        let sign = match event.direction {
            Direction::AToB => 1.0,
            Direction::BToA => -1.0,
        };
        self.apply_slotted(
            system,
            event.junction,
            sign,
            self.endpoint_slot(from),
            self.endpoint_slot(to),
            r,
        );
    }

    /// The `[from_slot, to_slot]` pair of canonical event `event` (see
    /// [`Self::endpoint_slot`]), from the table the batched applies decode.
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range.
    #[inline]
    #[must_use]
    pub fn event_slots(&self, event: usize) -> [usize; 2] {
        self.event_slots[event]
    }

    /// The slot (electron-plane index) an endpoint maps to: the island
    /// index for an island, the spill slot `islands()` for an external —
    /// the addressing scheme of [`Self::apply_slotted`].
    #[inline]
    #[must_use]
    pub fn endpoint_slot(&self, endpoint: Endpoint) -> usize {
        match endpoint {
            Endpoint::Island(i) => i,
            Endpoint::External(_) => self.islands,
        }
    }

    /// [`Self::apply`] with the event pre-decoded into its branchless form:
    /// junction index, direction sign (`+1.0` for a→b, `-1.0` for b→a) and
    /// the two endpoint slots (see [`Self::endpoint_slot`]). Both electron
    /// updates execute unconditionally — external endpoints land in the
    /// spill plane — so a lockstep caller pays no data-dependent branch per
    /// event. Island lanes see the exact scalar arithmetic; bit-identity is
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if a slot, the junction index or `r` is out of range.
    #[inline]
    pub fn apply_slotted(
        &mut self,
        system: &TunnelSystem,
        junction: usize,
        sign: f64,
        from_slot: usize,
        to_slot: usize,
        r: usize,
    ) {
        let replicas = self.replicas;
        assert!(r < replicas, "replica {r} out of range");
        assert!(from_slot <= self.islands, "from slot out of range");
        assert!(to_slot <= self.islands, "to slot out of range");
        self.electrons[from_slot * replicas + r] -= 1;
        self.electrons[to_slot * replicas + r] += 1;
        let column = system.junction_response(junction);
        // `chunks_exact_mut` walks the endpoint planes with the single
        // bounds check above instead of one per plane.
        for (plane, &c) in self.phi.chunks_exact_mut(replicas).zip(column.iter()) {
            plane[r] += sign * c;
        }
        self.updates_since_refresh[r] += 1;
        if self.updates_since_refresh[r] >= REFRESH_INTERVAL {
            self.refresh_replica(system, r);
        }
    }

    /// Applies one chosen event **per lane** — `chosen[r]` is the canonical
    /// event index lane `r` executes — in a store-width-aware two-pass
    /// sweep. This is the lockstep engine's apply: per lane it performs
    /// exactly the [`Self::apply`] arithmetic (same electron moves, same
    /// response-column axpy, same refresh schedule), so bit-identity with
    /// the scalar path is untouched.
    ///
    /// Why not just call [`Self::apply`] per lane? Each lane's axpy scatters
    /// narrow stores across the endpoint planes, and the very next batched
    /// rate fill reads those planes with full-width vector loads — loads
    /// that overlap several pending narrow stores cannot be
    /// store-forwarded and stall until the stores retire, which measures
    /// as ~4× the cost of the apply arithmetic itself. So pass one
    /// scatters each lane's signed column into a plane-major scratch (the
    /// narrow stores land *there*), and pass two folds the scratch into
    /// the potentials plane-by-plane as a contiguous vectorized
    /// read-modify-write — the planes only ever see full-width stores, so
    /// the fill's full-width loads always forward.
    ///
    /// # Panics
    ///
    /// Panics if `chosen.len() != replicas()` or an event index is out of
    /// range.
    pub fn apply_all(&mut self, system: &TunnelSystem, chosen: &[usize]) {
        let replicas = self.replicas;
        let islands = self.islands;
        assert_eq!(chosen.len(), replicas, "one chosen event per lane");
        // Pass 1: per lane — move the electron (the spill plane absorbs
        // external endpoints) and scatter sign · column into the lane's
        // strided scratch slots.
        for (r, &e) in chosen.iter().enumerate() {
            let [from, to] = self.event_slots[e];
            self.electrons[from * replicas + r] -= 1;
            self.electrons[to * replicas + r] += 1;
            let sign = if e & 1 == 0 { 1.0 } else { -1.0 };
            let column = system.junction_response(e >> 1);
            for (i, &c) in column.iter().enumerate() {
                self.apply_scratch[i * replicas + r] = sign * c;
            }
        }
        // The drift counters tick between the scratch scatter and the
        // scratch reload below, giving the scattered stores time to drain.
        // Any lane that hits the refresh interval resyncs *after* pass 2 —
        // the scalar order (axpy, then refresh) — so the exact recompute is
        // never clobbered by the pending scratch fold.
        let mut refresh_due = false;
        for ticks in &mut self.updates_since_refresh {
            *ticks += 1;
            refresh_due |= *ticks >= REFRESH_INTERVAL;
        }
        // Pass 2: plane-major accumulate — wide scratch loads, one wide
        // read-modify-write per island plane.
        let scratch = self.apply_scratch[..islands * replicas].chunks_exact(replicas);
        for (plane, adds) in self.phi.chunks_exact_mut(replicas).zip(scratch) {
            for (p, &a) in plane.iter_mut().zip(adds.iter()) {
                *p += a;
            }
        }
        if refresh_due {
            for r in 0..replicas {
                if self.updates_since_refresh[r] >= REFRESH_INTERVAL {
                    self.refresh_replica(system, r);
                }
            }
        }
    }
}

/// The batched rate evaluator: one [`RateContext`] shared by N replica
/// lanes, filling an `n_events × n_replicas` rate matrix (event-major
/// planes) in a single junction-major pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedRateContext {
    ctx: RateContext,
    replicas: usize,
}

impl BatchedRateContext {
    /// Builds the shared rate table for a system at the given temperature.
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::InvalidParameter`] for `replicas == 0` or an
    /// invalid temperature (see [`RateContext::new`]).
    pub fn new(
        system: &TunnelSystem,
        temperature: f64,
        replicas: usize,
    ) -> Result<Self, OrthodoxError> {
        if replicas == 0 {
            return Err(OrthodoxError::InvalidParameter(
                "a batch needs at least one replica".into(),
            ));
        }
        Ok(BatchedRateContext {
            ctx: RateContext::new(system, temperature)?,
            replicas,
        })
    }

    /// Number of replica lanes the fill serves.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Evaluates the rate of every candidate event for **all** replicas in
    /// one junction-major pass. `rates` is resized to
    /// `event_count × replicas`, laid out as event-major planes
    /// (`rates[e·N + r]` is event `e`'s rate in replica `r`, events in the
    /// canonical [`TunnelSystem::event`] order); `totals` is resized to one
    /// total rate per replica, accumulated junction-by-junction in exactly
    /// the scalar [`RateContext::fill_rates`] order.
    ///
    /// # Panics
    ///
    /// Panics if `live` was built for a different replica count.
    pub fn fill_rates_batch(
        &self,
        system: &TunnelSystem,
        live: &BatchedLiveState,
        rates: &mut Vec<f64>,
        totals: &mut Vec<f64>,
    ) {
        let replicas = self.replicas;
        assert_eq!(live.replicas(), replicas, "replica counts must match");
        debug_assert_eq!(self.ctx.endpoints().len(), system.junctions().len());
        let phi = live.endpoint_planes();
        let endpoints = self.ctx.endpoints();
        rates.resize(2 * endpoints.len() * replicas, 0.0);
        totals.clear();
        totals.resize(replicas, 0.0);
        let (kt, cutoff) = (self.ctx.kt(), self.ctx.frozen_cutoff());
        // Below `linear_floor` (`ΔF/kT < −MAX_EXPONENT`) a rate is the
        // strongly favourable linear one; between it and the frozen cutoff
        // lies the thermal window.
        let linear_floor = -MAX_EXPONENT * kt;
        for (j, &(ia, ib)) in endpoints.iter().enumerate() {
            let prefactor = self.ctx.prefactors()[j];
            let self_energy = self.ctx.self_energies()[j];
            let plane_a = &phi[ia * replicas..(ia + 1) * replicas];
            let plane_b = &phi[ib * replicas..(ib + 1) * replicas];
            let (out_ab, rest) = rates[2 * j * replicas..].split_at_mut(replicas);
            let out_ba = &mut rest[..replicas];
            if kt == 0.0 {
                let lanes = plane_a
                    .iter()
                    .zip(plane_b)
                    .zip(out_ab.iter_mut())
                    .zip(out_ba.iter_mut());
                for (((&pa, &pb), ab), ba) in lanes {
                    let phi_gap = E * (pa - pb);
                    *ab = rate_zero_kelvin(phi_gap + self_energy, prefactor);
                    *ba = rate_zero_kelvin(self_energy - phi_gap, prefactor);
                }
            } else {
                // Cold fast pass, branch-free so it vectorizes across
                // lanes: frozen events pin to zero and everything else
                // takes the linear rate, which is the kernel's value
                // outside the thermal window. A flag records whether any
                // directed ΔF lands inside the window; only then do this
                // junction's lanes run through the thermal kernel, which is
                // exact for every lane. When lane 0 already lands inside
                // the window, the fast pass would be overwritten and is
                // skipped.
                let in_window = |df: f64| (df <= cutoff) & (df >= linear_floor);
                let gap = E * (plane_a[0] - plane_b[0]);
                let mut thermal = in_window(gap + self_energy) | in_window(self_energy - gap);
                if !thermal {
                    let lanes = plane_a
                        .iter()
                        .zip(plane_b)
                        .zip(out_ab.iter_mut())
                        .zip(out_ba.iter_mut());
                    for (((&pa, &pb), ab), ba) in lanes {
                        let phi_gap = E * (pa - pb);
                        let df_ab = phi_gap + self_energy;
                        let df_ba = self_energy - phi_gap;
                        *ab = if df_ab > cutoff {
                            0.0
                        } else {
                            -df_ab * prefactor
                        };
                        *ba = if df_ba > cutoff {
                            0.0
                        } else {
                            -df_ba * prefactor
                        };
                        thermal |= in_window(df_ab) | in_window(df_ba);
                    }
                }
                if thermal {
                    let lanes = plane_a
                        .iter()
                        .zip(plane_b)
                        .zip(out_ab.iter_mut())
                        .zip(out_ba.iter_mut());
                    for (((&pa, &pb), ab), ba) in lanes {
                        let phi_gap = E * (pa - pb);
                        *ab = self.ctx.thermal_rate(phi_gap + self_energy, prefactor);
                        *ba = self.ctx.thermal_rate(self_energy - phi_gap, prefactor);
                    }
                }
            }
            // Totals fold in junction-by-junction — exactly the scalar
            // [`RateContext::fill_rates`] accumulation order, so each
            // lane's total is bitwise the scalar walk's total. Folding here,
            // while the junction's freshly written planes still sit in L1,
            // replaces a whole streaming re-read of `rates` at the end.
            for ((total, &a), &b) in totals.iter_mut().zip(out_ab.iter()).zip(out_ba.iter()) {
                *total += a + b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::LiveState;
    use crate::system::TunnelSystemBuilder;

    /// Two-island chain with a gate (the `live` module's test circuit).
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

    /// A deterministic per-replica event walk: replica `r` draws its own
    /// pseudo-random event sequence.
    fn walk_event(x: &mut u64, system: &TunnelSystem) -> TunnelEvent {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        system.event((*x >> 33) as usize % system.event_count())
    }

    /// Drives `replicas` batch lanes and `replicas` scalar `LiveState`s
    /// through identical per-replica event walks and asserts bitwise
    /// identical potentials and rates at every checkpoint.
    fn assert_lockstep_bit_identity(temperature: f64, steps: usize, replicas: usize) {
        let system = chain(2e-3, 0.05);
        let mut batch = BatchedLiveState::new(&system, ChargeState::neutral(2), replicas).unwrap();
        let batch_ctx = BatchedRateContext::new(&system, temperature, replicas).unwrap();
        let scalar_ctx = RateContext::new(&system, temperature).unwrap();
        let mut scalars: Vec<LiveState> = (0..replicas)
            .map(|_| LiveState::new(&system, ChargeState::neutral(2)))
            .collect();
        let mut walks: Vec<u64> = (0..replicas).map(|r| 9 + 1000 * r as u64).collect();
        let mut batch_rates = Vec::new();
        let mut batch_totals = Vec::new();
        let mut scalar_rates = Vec::new();
        for step in 0..steps {
            for (r, scalar) in scalars.iter_mut().enumerate() {
                let event = walk_event(&mut walks[r], &system);
                batch.apply(&system, event, r);
                scalar.apply(&system, event);
            }
            if step % 16 == 0 || step + 1 == steps {
                batch_ctx.fill_rates_batch(&system, &batch, &mut batch_rates, &mut batch_totals);
                for (r, scalar) in scalars.iter().enumerate() {
                    let total = scalar_ctx.fill_rates(&system, scalar, &mut scalar_rates);
                    assert_eq!(
                        batch.potentials(r),
                        scalar.potentials(),
                        "replica {r} potentials diverged at step {step}"
                    );
                    assert_eq!(batch.charge_state(r), *scalar.state());
                    for (e, &expected) in scalar_rates.iter().enumerate() {
                        assert_eq!(
                            batch_rates[e * replicas + r].to_bits(),
                            expected.to_bits(),
                            "replica {r} event {e} rate diverged at step {step}"
                        );
                    }
                    assert_eq!(
                        batch_totals[r].to_bits(),
                        total.to_bits(),
                        "replica {r} total diverged at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn lanes_track_scalar_live_states_bit_for_bit() {
        // Cold (fast pass), warm (thermal patch) and zero temperature (the
        // 0 K select), at odd widths and at the 16-lane width of the
        // benchmark's ensembles.
        assert_lockstep_bit_identity(0.1, 200, 5);
        assert_lockstep_bit_identity(4.2, 200, 3);
        assert_lockstep_bit_identity(0.0, 50, 2);
        for temperature in [0.0, 0.1, 2.0] {
            assert_lockstep_bit_identity(temperature, 400, 16);
        }
    }

    #[test]
    fn periodic_refresh_matches_the_scalar_schedule() {
        let system = chain(1e-3, 0.02);
        let mut batch = BatchedLiveState::new(&system, ChargeState::neutral(2), 2).unwrap();
        let mut scalar = LiveState::new(&system, ChargeState::neutral(2));
        let onto = TunnelEvent {
            junction: 0,
            direction: Direction::AToB,
        };
        // Walk replica 0 far past the refresh interval while replica 1
        // idles; only lane 0 must have refreshed.
        for _ in 0..(REFRESH_INTERVAL + 10) {
            batch.apply(&system, onto, 0);
            batch.apply(&system, onto.reversed(), 0);
            scalar.apply(&system, onto);
            scalar.apply(&system, onto.reversed());
        }
        assert_eq!(batch.potentials(0), scalar.potentials());
        let expected = 2 * (REFRESH_INTERVAL + 10) % REFRESH_INTERVAL;
        assert_eq!(batch.updates_since_refresh[0], expected);
        assert_eq!(batch.updates_since_refresh[1], 0);
        let exact = system.island_potentials(&batch.charge_state(1));
        assert_eq!(batch.potentials(1), exact, "idle lane holds exact values");
    }

    #[test]
    fn rejects_empty_batches_and_mismatched_states() {
        let system = chain(0.0, 0.0);
        assert!(BatchedLiveState::new(&system, ChargeState::neutral(2), 0).is_err());
        assert!(BatchedLiveState::new(&system, ChargeState::neutral(3), 4).is_err());
        assert!(BatchedRateContext::new(&system, 1.0, 0).is_err());
        assert!(BatchedRateContext::new(&system, -1.0, 4).is_err());
    }
}
