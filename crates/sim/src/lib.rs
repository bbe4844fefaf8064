//! The deck-driven simulation pipeline: SPICE-style deck text in, result
//! tables out, no host-language programming required.
//!
//! The simulator line the paper belongs to (SIMON and the SET-aware SPICE
//! extensions) is defined by its front end: a user hands the tool a circuit
//! description *plus analysis commands* and gets currents back. This crate
//! closes that loop for the toolkit:
//!
//! ```text
//! deck text ──parse──▶ Deck ──compile──▶ SimulationPlan ──execute──▶ [SimulationResult]
//!            se-netlist       se-sim           se-sim
//! ```
//!
//! * [`compile`] lowers a parsed [`Deck`] onto the engine
//!   layer: the netlist partition ([`se_netlist::partition_report`]) picks
//!   the backend — pure tunnel-junction decks run on the master equation
//!   (DC) or the kinetic Monte-Carlo clock (transient), pure conventional
//!   decks on SPICE, mixed decks on the hybrid co-simulator — unless the
//!   deck's `.options ENGINE=` overrides it, in which case the choice is
//!   checked against the partition and rejections name the nodes and
//!   elements responsible.
//! * [`execute`] runs every analysis of the plan concurrently through the
//!   [`se_exec`] job substrate — chunked across all cores, serial ≡
//!   parallel ≡ chunked ≡ resumed, all bit-identical — and returns one
//!   [`SimulationResult`] table per analysis, with engine provenance in
//!   the metadata. [`execute_with_options`] adds streamed CSV export,
//!   progress reporting, cancellation and checkpoint/resume;
//!   [`run_deck_batch`] runs many decks through **one** shared worker
//!   pool.
//! * [`run_deck`] is the one-call convenience: parse, compile, execute.
//! * [`record_deck`] / [`verify_trace_dir`] close the determinism loop:
//!   record a deck run's every output bit into a self-contained trace
//!   directory, then re-execute it — under any worker count, any time
//!   later — and either confirm bit-identity or localize the first
//!   divergence to analysis, chunk, item, row and column.
//!
//! # Example
//!
//! ```
//! use se_sim::run_deck;
//!
//! # fn main() -> Result<(), se_sim::SimError> {
//! let deck = "\
//! single SET, gate sweep over one Coulomb period
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
//! // The partition found a pure single-electron deck, so the master
//! // equation ran the sweep.
//! assert_eq!(run.results[0].engine(), "master-equation");
//! let current = run.results[0].column("I(J1)").unwrap();
//! assert_eq!(current.len(), 21);
//! // Coulomb oscillation: the conductance peak sits mid-period.
//! assert!(current[10] > 10.0 * current[0].abs().max(1e-15));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(a > b)` is the idiom this workspace uses to reject NaN alongside
// ordinary range violations.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod backend;
pub mod batch;
pub mod error;
pub mod exec;
pub mod plan;
pub mod result;
pub mod trace;

pub use backend::{
    analytic_from_netlist, build_stationary, build_transient, stationary_solver,
    AnalyticDeckEngine, SourceMapped, StationaryBackend, TransientBackend,
};
pub use batch::{deck_export_base, run_deck_batch, BatchOutcome};
pub use error::SimError;
pub use exec::{
    execute, execute_serial, execute_with_options, export_path, ExecOptions, MASTER_WARM_BLOCK,
};
pub use plan::{compile, EngineChoice, PlannedAnalysis, PlannedRun, SimulationPlan};
pub use result::{SimulationResult, SolverEffort};
pub use trace::{record_deck, verify_trace_dir, AnalysisVerdict, RecordSummary, VerifyReport};

use se_netlist::{parse_full_deck, Deck};

/// A completed deck run: the parsed deck (with its diagnostics), the
/// compiled plan and the executed results.
#[derive(Debug, Clone)]
pub struct DeckRun {
    /// The parsed deck, including parser diagnostics.
    pub deck: Deck,
    /// The compiled plan.
    pub plan: SimulationPlan,
    /// One result table per analysis, in deck order.
    pub results: Vec<SimulationResult>,
}

/// Parses, compiles and executes a deck in one call.
///
/// # Errors
///
/// Propagates parse errors ([`SimError::Netlist`]), compilation errors
/// ([`SimError::Plan`] and friends) and engine solve errors.
pub fn run_deck(text: &str) -> Result<DeckRun, SimError> {
    let deck = parse_full_deck(text)?;
    let plan = compile(&deck)?;
    let results = execute(&deck, &plan)?;
    Ok(DeckRun {
        deck,
        plan,
        results,
    })
}

/// Commonly used types for driving the deck pipeline.
pub mod prelude {
    pub use crate::backend::{StationaryBackend, TransientBackend};
    pub use crate::batch::{run_deck_batch, BatchOutcome};
    pub use crate::error::SimError;
    pub use crate::exec::{execute, execute_serial, execute_with_options, ExecOptions};
    pub use crate::plan::{compile, EngineChoice, PlannedAnalysis, PlannedRun, SimulationPlan};
    pub use crate::result::SimulationResult;
    pub use crate::{run_deck, DeckRun};
    pub use se_netlist::{parse_full_deck, Deck};
}

#[cfg(test)]
mod tests {
    use super::*;

    const SET_DECK: &str = "single SET\nVD drain 0 1m\nVG gate 0 0\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n.options temp=1 seed=3\n.dc VG 0 0.16 16m\n.print dc i(J1)\n";

    #[test]
    fn run_deck_goes_end_to_end() {
        let run = run_deck(SET_DECK).unwrap();
        assert!(run.deck.diagnostics.is_empty());
        assert_eq!(run.plan.runs.len(), 1);
        assert_eq!(run.results.len(), 1);
        let result = &run.results[0];
        assert_eq!(result.engine(), "master-equation");
        assert_eq!(result.columns(), &["VG".to_string(), "I(J1)".into()]);
        assert_eq!(result.len(), 11);
    }

    #[test]
    fn parallel_and_serial_execution_are_bit_identical() {
        let deck = parse_full_deck(SET_DECK).unwrap();
        let plan = compile(&deck).unwrap();
        let parallel = execute(&deck, &plan).unwrap();
        let serial = execute_serial(&deck, &plan).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn forcing_kmc_changes_the_engine_but_keeps_the_shape() {
        let text = SET_DECK.replace(
            ".options temp=1 seed=3",
            ".options temp=1 seed=3 engine=kmc events=4000",
        );
        let run = run_deck(&text).unwrap();
        assert_eq!(run.results[0].engine(), "kinetic-monte-carlo");
        assert_eq!(run.results[0].len(), 11);
    }

    #[test]
    fn repeats_produce_mean_and_stderr_columns() {
        let text = SET_DECK.replace(
            ".options temp=1 seed=3",
            ".options temp=1 seed=3 engine=kmc events=2000 repeats=4",
        );
        let run = run_deck(&text).unwrap();
        let result = &run.results[0];
        assert_eq!(
            result.columns(),
            &["VG".to_string(), "I(J1)".into(), "stderr(I(J1))".into()]
        );
        assert_eq!(result.len(), 11);
        assert!(result
            .metadata()
            .iter()
            .any(|(k, v)| k == "repeats" && v == "4"));
        // A stochastic ensemble at the conductance peak spreads: at least
        // one bias point must report a positive standard error.
        let stderr = result.column("stderr(I(J1))").unwrap();
        assert!(stderr.iter().any(|&s| s > 0.0), "{stderr:?}");
    }

    #[test]
    fn batched_ensembles_match_the_scalar_fallback_bit_for_bit() {
        let text = SET_DECK.replace(
            ".options temp=1 seed=3",
            ".options temp=1 seed=3 engine=kmc events=1500 repeats=3",
        );
        let deck = parse_full_deck(&text).unwrap();
        let plan = compile(&deck).unwrap();
        let batched = execute(&deck, &plan).unwrap();
        let scalar = execute_with_options(
            &deck,
            &plan,
            &ExecOptions {
                scalar_ensemble: true,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn transient_repeats_go_through_the_batched_clock() {
        let deck_text = "pulsed SET\n\
             VD drain 0 1m\n\
             VG gate 0 PULSE(0 0.08 20n 40n 80n)\n\
             J1 drain island C=0.5a R=100k\n\
             J2 island 0 C=0.5a R=100k\n\
             CG gate island 1a\n\
             .options temp=1 seed=5 engine=kmc repeats=3\n\
             .tran 10n 80n\n\
             .print tran i(J1)\n";
        let deck = parse_full_deck(deck_text).unwrap();
        let plan = compile(&deck).unwrap();
        let batched = execute(&deck, &plan).unwrap();
        assert_eq!(
            batched[0].columns(),
            &["t".to_string(), "I(J1)".into(), "stderr(I(J1))".into()]
        );
        let scalar = execute_with_options(
            &deck,
            &plan,
            &ExecOptions {
                scalar_ensemble: true,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(batched, scalar);
    }
}
