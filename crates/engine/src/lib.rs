//! The unified engine layer of the single-electronics toolkit: one
//! stationary trait, one transient trait, and one deterministic parallel
//! runner for each.
//!
//! The paper's central contrast (Section 4) is between SPICE-style analytic
//! SET models and detailed Monte-Carlo / master-equation simulators — and
//! its closing argument is that device-level accuracy must compose with
//! *circuit-level time-domain* simulation before real single-electron logic
//! can be evaluated. This crate gives every engine of the toolkit one face
//! and one execution layer in both domains:
//!
//! * [`StationaryEngine`] — "bias point in, junction currents out". An
//!   engine resolves electrode/observable *names* to typed handles once
//!   ([`ControlId`], [`ObservableId`]) and then solves stationary currents
//!   at arbitrary control values;
//! * [`SweepRunner`] — the single generic sweep loop used by the analytic
//!   SET, the master-equation solver, the kinetic Monte-Carlo engine and
//!   the SPICE DC engine. It is a thin adapter over the [`se_exec`] job
//!   substrate: bias points fan out across all cores in chunks, and every
//!   point's RNG seed derives deterministically from the sweep seed and
//!   the point index (see [`runner::derive_seed`], re-exported from
//!   [`se_exec::seed`] — the single source of truth), so **serial,
//!   parallel, chunked and resumed runs are bit-identical**;
//! * [`TransientEngine`] — "initial state + stimulus waveforms in, sampled
//!   currents out". Implemented by the SPICE backward-Euler integrator and
//!   the kinetic Monte-Carlo event clock, and by [`QuasiStatic`], which
//!   lifts any stationary engine (the analytic SET, the master equation,
//!   the hybrid co-simulator) into a sampling transient backend;
//! * [`TransientRunner`] — the ensemble loop of the time domain: seed
//!   ensembles, corner sweeps and input-vector batteries run concurrently
//!   under the same SplitMix64 per-run seeding discipline, so transient
//!   ensembles are also bit-identical serial vs parallel;
//! * [`Waveform`] — the shared stimulus vocabulary (step, ramp, pulse
//!   train, PWL, sine) every transient backend consumes;
//! * [`grid`] — shared grid construction: [`grid::linspace`] (ascending
//!   *and* descending ranges) for bias sweeps, [`grid::sample_times`] and
//!   [`grid::validate_sample_times`] for transient sample grids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(a > b)` is the idiom this workspace uses to reject NaN alongside
// ordinary range violations.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod grid;
pub mod runner;
pub mod transient;
pub mod waveform;

pub use grid::{linspace, sample_times, validate_sample_times, GridError};
pub use runner::{derive_seed, StabilityMap, SweepPoint, SweepRunner};
pub use transient::{QuasiStatic, Scenario, TransientEngine, TransientRunner, TransientTrace};
pub use waveform::{Waveform, WaveformError};

/// Typed handle to a swept control (an electrode or voltage source),
/// returned by [`StationaryEngine::resolve_control`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ControlId(pub usize);

/// Typed handle to a measured observable (a junction or source current),
/// returned by [`StationaryEngine::resolve_observable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObservableId(pub usize);

/// A stationary simulation engine: voltages in, stationary currents out.
///
/// Implementations must be cheap to share across threads (`Sync`); the
/// [`SweepRunner`] calls [`StationaryEngine::stationary_current`] for many
/// bias points concurrently, each call carrying its own derived seed.
/// Deterministic engines (master equation, analytic models) simply ignore
/// the seed; stochastic engines must use it as the *only* source of
/// randomness so sweeps are reproducible.
pub trait StationaryEngine: Sync {
    /// The engine's error type.
    type Error: std::error::Error + Send + 'static;

    /// A short human-readable engine name (used in reports and benches).
    fn engine_name(&self) -> &'static str;

    /// Resolves a control name (electrode / voltage source) to a typed
    /// handle, or errors if no such control exists.
    fn resolve_control(&self, name: &str) -> Result<ControlId, Self::Error>;

    /// Resolves an observable name (junction / source current) to a typed
    /// handle, or errors if no such observable exists.
    fn resolve_observable(&self, name: &str) -> Result<ObservableId, Self::Error>;

    /// Solves the stationary state with the given control values applied
    /// and returns the current (ampere) of each requested observable, in
    /// order. One call performs one solve, however many observables are
    /// read from it.
    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seed: u64,
    ) -> Result<Vec<f64>, Self::Error>;

    /// Convenience wrapper for a single observable.
    fn stationary_current(
        &self,
        controls: &[(ControlId, f64)],
        observable: ObservableId,
        seed: u64,
    ) -> Result<f64, Self::Error> {
        let currents = self.stationary_currents(controls, &[observable], seed)?;
        Ok(currents
            .first()
            .copied()
            .expect("stationary_currents returns one value per observable"))
    }

    /// Solves `seeds.len()` statistically independent repeats of the *same*
    /// bias point — a seed ensemble — returning one observable row per
    /// seed, in seed order.
    ///
    /// The default implementation loops [`Self::stationary_currents`] once
    /// per seed; engines with a batched ensemble path (the kinetic
    /// Monte-Carlo engine steps large enough groups in lockstep over
    /// SoA-packed state) override it. Overrides must keep the ensemble
    /// contract: row `k` is **bit-identical** to
    /// `stationary_currents(controls, observables, seeds[k])`.
    ///
    /// # Errors
    ///
    /// Propagates the first failing solve.
    fn stationary_currents_ensemble(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seeds: &[u64],
    ) -> Result<Vec<Vec<f64>>, Self::Error> {
        seeds
            .iter()
            .map(|&seed| self.stationary_currents(controls, observables, seed))
            .collect()
    }
}

impl<E: StationaryEngine + ?Sized> StationaryEngine for &E {
    type Error = E::Error;

    fn engine_name(&self) -> &'static str {
        (**self).engine_name()
    }

    fn resolve_control(&self, name: &str) -> Result<ControlId, Self::Error> {
        (**self).resolve_control(name)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, Self::Error> {
        (**self).resolve_observable(name)
    }

    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seed: u64,
    ) -> Result<Vec<f64>, Self::Error> {
        (**self).stationary_currents(controls, observables, seed)
    }

    fn stationary_currents_ensemble(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seeds: &[u64],
    ) -> Result<Vec<Vec<f64>>, Self::Error> {
        (**self).stationary_currents_ensemble(controls, observables, seeds)
    }
}
