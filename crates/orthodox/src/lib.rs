//! Orthodox theory of single-electron tunnelling.
//!
//! This crate implements the physics layer the whole toolkit rests on: the
//! electrostatics of metallic islands coupled by tunnel junctions and
//! capacitors, the free-energy change of individual tunnel events, the
//! orthodox (first-order, sequential) tunnel rates, a second-order
//! cotunneling approximation, and the background-charge processes that the
//! paper identifies as the central obstacle for single-electron logic.
//!
//! The main entry points are:
//!
//! * [`TunnelSystem`] — a circuit of islands, external (voltage-driven)
//!   nodes, capacitors and tunnel junctions, with its capacitance-matrix
//!   electrostatics ([`system`]);
//! * [`tunnel_rate`] — the orthodox rate formula with its zero-temperature
//!   and zero-energy limits handled explicitly ([`rates`]);
//! * [`live`] — the incremental hot path: [`LiveState`] caches island
//!   potentials with O(islands) per-event updates (making per-event ΔF
//!   O(1)), and [`RateContext`] is the persistent rate table both the
//!   Monte-Carlo loop and the master-equation assembly share;
//! * [`cotunneling`] — the inelastic cotunneling rate estimate used to show
//!   when sequential-only simulation under-estimates blockade leakage;
//! * [`background`] — static offset charges, random-telegraph and
//!   random-walk drift processes;
//! * [`set`] — an exact (master-equation) solver for the canonical
//!   three-terminal SET, used as the reference characteristic throughout the
//!   experiments.
//!
//! # Example: blockade vs. conductance peak of a symmetric SET
//!
//! ```
//! use se_orthodox::set::SingleElectronTransistor;
//!
//! # fn main() -> Result<(), se_orthodox::OrthodoxError> {
//! let set = SingleElectronTransistor::symmetric(1e-18, 0.5e-18, 100e3)?;
//! // Deep inside the blockade region the current at 10 mK is negligible.
//! let i_blocked = set.current(1e-4, 0.0, 0.0, 0.01)?;
//! // On a conductance peak (gate charge = e/2) the same bias conducts.
//! let i_peak = set.current(1e-4, set.gate_period() / 2.0, 0.0, 0.01)?;
//! assert!(i_peak.abs() > 1e3 * i_blocked.abs());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(a > b)` is the idiom this crate uses to reject NaN alongside ordinary
// range violations.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod background;
pub mod batch;
pub mod cotunneling;
pub mod engine;
pub mod error;
pub mod events;
pub mod live;
pub mod rates;
pub mod set;
pub mod system;

pub use batch::{BatchedLiveState, BatchedRateContext};
pub use engine::AnalyticSetEngine;
pub use error::OrthodoxError;
pub use events::EventRateTable;
pub use live::{LiveState, RateContext};
pub use rates::{tunnel_rate, tunnel_rate_zero_temperature};
pub use system::{
    Capacitor, ChargeState, Direction, Endpoint, Junction, StrongCouplings, TunnelEvent,
    TunnelSystem, TunnelSystemBuilder,
};
