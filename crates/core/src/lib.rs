//! # single-electronics
//!
//! A toolkit for simulating single-electron circuits and the hybrid
//! SET/CMOS applications surveyed in *"Recent Advances and Future Prospects
//! in Single-Electronics"*: orthodox-theory physics, a SIMON-class
//! Monte-Carlo / master-equation simulator, a SPICE-class circuit simulator
//! with analytic SET compact models, a co-simulator coupling the two, and
//! the application layer (background-charge-immune AM/FM logic, the
//! SET/MOSFET multiple-valued literal gate, the SET/CMOS random-number
//! generator and the power-dissipation analysis).
//!
//! This crate is the facade: it re-exports the sub-crates under stable
//! names and provides a [`prelude`] plus a small [`report`] helper used by
//! the experiment harnesses to print aligned tables.
//!
//! | Layer | Crate | Re-export |
//! |---|---|---|
//! | Constants & quantities | `se-units` | [`units`] |
//! | Numerics | `se-numeric` | [`numeric`] |
//! | Netlists | `se-netlist` | [`netlist`] |
//! | Execution substrate (jobs, sinks, checkpoints) | `se-exec` | [`exec`] |
//! | Unified engine trait & parallel sweeps | `se-engine` | [`engine`] |
//! | Orthodox physics | `se-orthodox` | [`orthodox`] |
//! | Monte-Carlo / master equation | `se-montecarlo` | [`montecarlo`] |
//! | SPICE engine | `se-spice` | [`spice`] |
//! | Co-simulation | `se-hybrid` | [`hybrid`] |
//! | Logic & applications | `se-logic` | [`logic`] |
//! | Deck pipeline & `sesim` | `se-sim` | [`sim`] |
//!
//! Every simulator implements [`engine::StationaryEngine`] ("bias point in,
//! junction currents out"), and every sweep — gate sweeps, staircases, 2-D
//! stability maps — runs through the one parallel, deterministic
//! [`engine::SweepRunner`]. The time domain mirrors the design: the SPICE
//! integrator, the kinetic Monte-Carlo event clock and the
//! [`engine::QuasiStatic`] adapter (which lifts any stationary engine, the
//! hybrid co-simulator included) all implement
//! [`engine::TransientEngine`] ("initial state + stimulus waveforms in,
//! sampled currents out"), driven by the same [`engine::Waveform`]
//! vocabulary and fanned out by the ensemble-parallel
//! [`engine::TransientRunner`]. Both runners derive per-run seeds with the
//! same SplitMix64 discipline, so serial and parallel runs are
//! bit-identical everywhere. See `docs/ARCHITECTURE.md` for the full map.
//!
//! # Quickstart: a 1-D stationary sweep
//!
//! ```
//! use single_electronics::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The reference SET: 1 aF gate, 0.5 aF junctions, 100 kΩ.
//! let set = SingleElectronTransistor::symmetric(1e-18, 0.5e-18, 100e3)?;
//! // Coulomb oscillations: one full gate period at 1 mV drain bias, 1 K.
//! let sweep = set.gate_sweep(1e-3, 0.0, set.gate_period(), 41, 0.0, 1.0)?;
//! let peak = sweep.iter().map(|p| p.current).fold(f64::MIN, f64::max);
//! assert!(peak > 0.0);
//!
//! // The same device through the unified engine surface: any
//! // StationaryEngine sweeps through the parallel, deterministic runner.
//! let engine = set.stationary_engine(1.0, 0.0)?.with_bias(1e-3, 0.0);
//! let values = single_electronics::engine::linspace(0.0, set.gate_period(), 41)?;
//! let points = SweepRunner::new().with_seed(7).run(&engine, "gate", &values, "drain")?;
//! assert_eq!(points.len(), 41);
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart: a transient pulse run
//!
//! ```
//! use single_electronics::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Lift the analytic SET into a transient backend and pulse its drain:
//! // 0 → 1 mV pulses, 2 ns wide, 8 ns period, gate held at the
//! // conductance peak.
//! let set = SingleElectronTransistor::symmetric(1e-18, 0.5e-18, 100e3)?;
//! let engine = QuasiStatic::new(set.stationary_engine(1.0, 0.0)?);
//! let pulse = Waveform::pulse(0.0, 1e-3, 1e-9, 2e-9, 8e-9)?;
//! let gate = Waveform::dc(0.5 * set.gate_period());
//! let times = single_electronics::engine::sample_times(0.5e-9, 8e-9)?;
//! let trace = TransientRunner::new().with_seed(7).run(
//!     &engine,
//!     &[("drain", pulse), ("gate", gate)],
//!     &["drain"],
//!     &times,
//! )?;
//! // The drain current follows the pulse train: on inside, off outside.
//! let on = trace.at(3, 0).abs(); // t = 1.5 ns, inside the first pulse
//! let off = trace.at(0, 0).abs(); // t = 0, before the first edge
//! assert!(on > 10.0 * off.max(1e-18));
//! # Ok(())
//! # }
//! ```
//!
//! # Quickstart: run a deck
//!
//! No Rust required at all: a SPICE-style deck carries the circuit *and*
//! the analysis commands, and [`sim::run_deck`] (or the `sesim` binary)
//! parses, compiles and executes it — the partition picks the engine.
//!
//! ```
//! use single_electronics::sim::run_deck;
//!
//! # fn main() -> Result<(), single_electronics::sim::SimError> {
//! let deck = "\
//! single SET gate sweep
//! VD drain 0 1m
//! VG gate 0 0
//! J1 drain island C=0.5a R=100k
//! J2 island 0 C=0.5a R=100k
//! CG gate island 1a
//! .options temp=1 seed=7
//! .dc VG 0 0.16 8m
//! .print dc i(J1)
//! .end
//! ";
//! let run = run_deck(deck)?;
//! // Pure tunnel-junction deck: the compiler picked the master equation.
//! assert_eq!(run.results[0].engine(), "master-equation");
//! assert_eq!(run.results[0].len(), 21);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use se_engine as engine;
pub use se_exec as exec;
pub use se_hybrid as hybrid;
pub use se_logic as logic;
pub use se_montecarlo as montecarlo;
pub use se_netlist as netlist;
pub use se_numeric as numeric;
pub use se_orthodox as orthodox;
pub use se_sim as sim;
pub use se_spice as spice;
pub use se_units as units;

pub mod report;

/// The most commonly used types across the whole toolkit.
pub mod prelude {
    pub use crate::report::Table;
    pub use se_engine::{
        ControlId, ObservableId, QuasiStatic, Scenario, StabilityMap, StationaryEngine,
        SweepRunner, TransientEngine, TransientRunner, TransientTrace, Waveform,
    };
    pub use se_exec::{
        CancelToken, CheckpointStore, CsvSink, JobBuilder, JobSpec, ProgressSink, ResultSink,
        TableSink, Workers,
    };
    pub use se_hybrid::{HybridOptions, HybridSimulator, HybridStationaryEngine, IslandEngine};
    pub use se_logic::amfm::{AmCodedGate, FmCodedGate, GateSpeedModel};
    pub use se_logic::encoding::{AmplitudeEncoding, FrequencyEncoding, LevelEncoding};
    pub use se_logic::gates::SetInverter;
    pub use se_logic::mvl::MvlGate;
    pub use se_logic::power::{CmosPowerModel, SetLogicPowerModel};
    pub use se_logic::randomness::RandomnessReport;
    pub use se_logic::rng::{RngComparison, SetMosRng};
    pub use se_montecarlo::prelude::*;
    pub use se_netlist::prelude::*;
    pub use se_orthodox::set::SingleElectronTransistor;
    pub use se_orthodox::{AnalyticSetEngine, ChargeState, TunnelSystem, TunnelSystemBuilder};
    pub use se_sim::{
        compile, execute, execute_serial, execute_with_options, run_deck, run_deck_batch,
        BatchOutcome, DeckRun, EngineChoice, ExecOptions, SimError, SimulationPlan,
        SimulationResult,
    };
    pub use se_spice::prelude::*;
    pub use se_units::constants::{BOLTZMANN, E, RESISTANCE_QUANTUM};
}
