//! SIMON-class single-electron circuit simulator.
//!
//! The paper's Section 4 contrasts two simulator families: SPICE extensions
//! with analytic SET models, and "detailed Monte-Carlo simulators, such as
//! SIMON, \[which\] capture all the necessary physics but are limited in terms
//! of circuit size". This crate is the Monte-Carlo family member of the
//! toolkit. It consumes a [`se_netlist::Netlist`] (or a hand-built
//! [`se_orthodox::TunnelSystem`]) and offers two engines over the same
//! orthodox physics:
//!
//! * [`kmc::MonteCarloSimulator`] — a kinetic Monte-Carlo (Gillespie) engine
//!   that samples individual (sequential) tunnel events; handles any island
//!   count and gives time-domain traces and noise. Cotunneling is not
//!   simulated: [`se_orthodox::cotunneling`] only estimates how much it
//!   would add. Its step loop runs on the incremental hot path of
//!   [`se_orthodox::live`]: cached island potentials, O(1) per-event ΔF, a
//!   persistent rate table, no per-step allocation;
//! * [`master::MasterEquation`] — a deterministic master-equation solver
//!   that enumerates charge states in a window around the ground state and
//!   solves for the stationary distribution; the accuracy reference. The
//!   generator is assembled sparsely (one stencil lane per event offset
//!   over the state lattice) and solved iteratively (Jacobi-scaled
//!   BiCGSTAB by default, anchored Gauss–Seidel as fallback), so the
//!   enumeration scales to millions of states; a bias sweep can reuse one
//!   solve workspace across its points, or warm-start each point from its
//!   neighbour's converged distribution.
//!
//! Both engines implement [`se_engine::StationaryEngine`], so
//! [`se_engine::SweepRunner`] (and anything else built on the trait) drives
//! them through one parallel, deterministic execution layer; [`builder`]
//! converts netlists into tunnel systems.
//!
//! # Example
//!
//! ```
//! use se_montecarlo::prelude::*;
//!
//! # fn main() -> Result<(), se_montecarlo::MonteCarloError> {
//! // Single SET, drain biased at 1 mV, gate at the conductance peak.
//! let deck = "single SET\n\
//!             VD drain 0 1m\n\
//!             VG gate 0 0.08\n\
//!             J1 drain island C=1a R=100k\n\
//!             J2 island 0 C=1a R=100k\n\
//!             CG gate island 1a\n";
//! let netlist = se_netlist::parse_deck(deck).map_err(MonteCarloError::from)?;
//! let system = tunnel_system_from_netlist(&netlist)?;
//! let mut sim = MonteCarloSimulator::new(system, SimulationOptions::new(4.2).with_seed(7))?;
//! let result = sim.run_events(20_000)?;
//! let drain_current = result.junction_current("J1");
//! assert!(drain_current.is_some());
//! # Ok(())
//! # }
//! ```
//!
//! The same device through the unified sweep layer — the master-equation
//! engine, swept in parallel across bias points:
//!
//! ```
//! use se_montecarlo::prelude::*;
//!
//! # fn main() -> Result<(), se_montecarlo::MonteCarloError> {
//! let deck = "single SET\n\
//!             VD drain 0 1m\n\
//!             VG gate 0 0\n\
//!             J1 drain island C=1a R=100k\n\
//!             J2 island 0 C=1a R=100k\n\
//!             CG gate island 1a\n";
//! let netlist = se_netlist::parse_deck(deck).map_err(MonteCarloError::from)?;
//! let system = tunnel_system_from_netlist(&netlist)?;
//! let solver = MasterEquation::new(system, 1.0)?;
//! let values = se_engine::linspace(0.0, 0.16, 9)?;
//! let sweep = SweepRunner::new().run(&solver, "gate", &values, "J1")?;
//! assert_eq!(sweep.len(), 9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(a > b)` is the idiom this crate uses to reject NaN alongside ordinary
// range violations.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod batched;
pub mod builder;
pub mod engine;
pub mod error;
pub mod kmc;
pub mod master;
pub mod observables;

pub use batched::BatchedKmcEngine;
pub use builder::tunnel_system_from_netlist;
pub use engine::{resolve_electrode, resolve_junction, BATCH_MIN_REPLICAS};
pub use error::MonteCarloError;
pub use kmc::{KmcKernel, MonteCarloSimulator, SimulationOptions, TracePoint, AUTO_TREE_THRESHOLD};
pub use master::{
    MasterEquation, MasterSolution, MasterSolveStats, MasterWorkspace, FACE_TOLERANCE,
};
pub use observables::RunResult;
pub use se_engine::SweepPoint;
pub use se_numeric::{Preconditioner, StationarySolver};

/// Commonly used types for driving the Monte-Carlo simulator.
pub mod prelude {
    pub use crate::batched::BatchedKmcEngine;
    pub use crate::builder::tunnel_system_from_netlist;
    pub use crate::error::MonteCarloError;
    pub use crate::kmc::{KmcKernel, MonteCarloSimulator, SimulationOptions, TracePoint};
    pub use crate::master::MasterEquation;
    pub use crate::observables::RunResult;
    pub use se_engine::{StationaryEngine, SweepPoint, SweepRunner};
    pub use se_orthodox::{ChargeState, TunnelSystem};
}
