//! Co-simulation of single-electron islands (Monte-Carlo / master-equation
//! domain) with conventional devices (SPICE domain).
//!
//! Section 4 of the paper argues that neither simulator family is enough on
//! its own: SPICE-with-SET-models scales to large circuits but misses the
//! single-electron physics, while SIMON-class simulators capture the physics
//! but "are limited in terms of circuit size and circuit element types", and
//! concludes that "a combination of both simulator types is desirable. It
//! allows detailed analysis of small circuit parts as accurately as we are
//! able today, as well as the simulation of large designs with reasonable
//! accuracy and speed." This crate is that combination.
//!
//! [`HybridSimulator`] partitions one netlist into
//!
//! * the **single-electron domain**: islands and the capacitive elements
//!   touching them, solved exactly with the master-equation engine of
//!   `se-montecarlo`;
//! * the **conventional domain**: everything else (sources, resistors,
//!   MOSFETs, diodes, compact SET models), solved by the `se-spice` Newton
//!   engine;
//!
//! and couples the two by Gauss–Seidel relaxation on the boundary nodes: the
//! SPICE half supplies boundary voltages, the single-electron half returns
//! the stationary currents its junctions draw from those nodes, which are
//! injected back into the SPICE half as current sources, until the boundary
//! voltages stop moving.
//!
//! # Example
//!
//! ```
//! use se_hybrid::{HybridError, HybridOptions, HybridSimulator};
//!
//! # fn main() -> Result<(), se_hybrid::HybridError> {
//! // A SET whose drain is fed from a 5 mV supply through a 10 MΩ resistor:
//! // the resistor belongs to the SPICE domain, the SET island to the
//! // Monte-Carlo domain, and node `drain` is the boundary.
//! let deck = "hybrid set load\n\
//!             VDD vdd 0 5m\n\
//!             VG gate 0 0.08\n\
//!             RL vdd drain 10meg\n\
//!             J1 drain island C=0.5a R=100k\n\
//!             J2 island 0 C=0.5a R=100k\n\
//!             CG gate island 1a\n";
//! let netlist = se_netlist::parse_deck(deck).map_err(HybridError::from)?;
//! let solution = HybridSimulator::new(&netlist, HybridOptions::new(1.0))?.solve()?;
//! assert!(solution.converged());
//! let v_drain = solution.boundary_voltage("drain").expect("boundary node");
//! assert!(v_drain > 0.0 && v_drain < 5e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cosim;
pub mod error;
pub mod stationary;

pub use cosim::{HybridOptions, HybridSimulator, HybridSolution, IslandEngine};
pub use error::HybridError;
pub use stationary::HybridStationaryEngine;
