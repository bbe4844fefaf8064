//! Analysis directives: the `.`-card AST of a simulation deck.
//!
//! A SPICE-style deck is more than a circuit: it carries *analysis
//! commands* — "sweep this source", "integrate until 1 µs", "print that
//! junction current". This module is the typed form of those commands. The
//! parser ([`crate::parser`]) produces a [`Deck`] — the netlist plus every
//! directive it understood and a [`ParseDiagnostic`] for every card it did
//! not — and the `se-sim` compiler lowers the deck onto the engine layer.
//!
//! Supported directives:
//!
//! ```text
//! .dc SRC start stop step [SRC2 start2 stop2 step2]   1-D sweep / 2-D map
//! .tran tstep tstop                                   transient analysis
//! .options KEY=VALUE ...                              simulation options
//! .print [dc|tran] i(NAME) ...                        observables
//! .probe i(NAME) ...                                  alias of .print
//! .end                                                end of deck
//! ```
//!
//! In the two-source `.dc` form the *first* source is the fast (inner) axis
//! and the second the slow (outer) axis, following SPICE convention.
//! `.options` keys (all case-insensitive): `TEMP` (kelvin), `SEED`,
//! `ENGINE` (`auto`, `analytic`, `master`, `kmc`, `spice`, `hybrid`),
//! `WINDOW` and `MAXSTATES` (master-equation caps), `EVENTS` (kinetic
//! Monte-Carlo measurement events per stationary solve), `REPEATS` (seed
//! ensemble size per bias point / trace — kinetic Monte-Carlo only).

use crate::netlist::Netlist;
use se_engine::Waveform;
use std::fmt;

/// One analysis directive of a deck, in deck order.
#[derive(Debug, Clone, PartialEq)]
pub enum Analysis {
    /// A 1-D `.dc` sweep of one source.
    DcSweep {
        /// The swept source and its grid.
        sweep: SweepSpec,
    },
    /// A 2-D `.dc` sweep: a stability map over `outer × inner` grids.
    DcMap {
        /// The slow axis (the second source named on the card).
        outer: SweepSpec,
        /// The fast axis (the first source named on the card).
        inner: SweepSpec,
    },
    /// A `.tran tstep tstop` transient analysis.
    Transient {
        /// Sample interval, seconds.
        step: f64,
        /// Stop time, seconds.
        stop: f64,
    },
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Analysis::DcSweep { sweep } => write!(f, "dc {sweep}"),
            Analysis::DcMap { outer, inner } => write!(f, "dc {inner} x {outer}"),
            Analysis::Transient { step, stop } => write!(f, "tran {step:?} {stop:?}"),
        }
    }
}

/// The grid of one swept source: `points` values evenly spaced over
/// `[start, stop]` (descending when `stop < start`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Name of the swept voltage source, as written in the deck.
    pub source: String,
    /// First grid value, volt.
    pub start: f64,
    /// Last grid value, volt.
    pub stop: f64,
    /// Number of grid points (at least 1).
    pub points: usize,
}

impl SweepSpec {
    /// The step between consecutive grid values (0 for a 1-point grid).
    #[must_use]
    pub fn step(&self) -> f64 {
        if self.points < 2 {
            0.0
        } else {
            (self.stop - self.start) / (self.points - 1) as f64
        }
    }
}

impl fmt::Display for SweepSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:?}..{:?} ({} points)",
            self.source, self.start, self.stop, self.points
        )
    }
}

/// Which engine the deck asks for (the `.options ENGINE=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnginePreference {
    /// Pick automatically from the partition (the default).
    #[default]
    Auto,
    /// The closed-form analytic SET model (single-SET decks only).
    Analytic,
    /// The deterministic master-equation solver.
    Master,
    /// The kinetic Monte-Carlo event sampler.
    Kmc,
    /// The SPICE Newton / backward-Euler engine.
    Spice,
    /// The SPICE ↔ single-electron co-simulator.
    Hybrid,
}

impl EnginePreference {
    /// Parses an `ENGINE=` value (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised text.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.to_ascii_lowercase().as_str() {
            "auto" => Ok(EnginePreference::Auto),
            "analytic" | "set" => Ok(EnginePreference::Analytic),
            "master" | "master-equation" => Ok(EnginePreference::Master),
            "kmc" | "montecarlo" | "monte-carlo" => Ok(EnginePreference::Kmc),
            "spice" => Ok(EnginePreference::Spice),
            "hybrid" | "cosim" => Ok(EnginePreference::Hybrid),
            other => Err(format!(
                "unknown engine `{other}` (use auto, analytic, master, kmc, spice or hybrid)"
            )),
        }
    }

    /// The canonical deck spelling of this preference.
    #[must_use]
    pub fn as_deck_str(&self) -> &'static str {
        match self {
            EnginePreference::Auto => "auto",
            EnginePreference::Analytic => "analytic",
            EnginePreference::Master => "master",
            EnginePreference::Kmc => "kmc",
            EnginePreference::Spice => "spice",
            EnginePreference::Hybrid => "hybrid",
        }
    }
}

/// Which stationary solver the master-equation path should use (the
/// `.options SOLVER=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverPreference {
    /// Preconditioned BiCGSTAB with an ILU(0) factorisation.
    KrylovIlu0,
    /// Preconditioned BiCGSTAB with Jacobi (diagonal) scaling only (the
    /// default when no `solver=` is given).
    #[default]
    KrylovJacobi,
    /// The anchored Gauss–Seidel sweep (the pre-Krylov reference path).
    GaussSeidel,
}

impl SolverPreference {
    /// Parses a `SOLVER=` value (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns the unrecognised text.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.to_ascii_lowercase().as_str() {
            "krylov" | "krylov-ilu0" | "bicgstab" => Ok(SolverPreference::KrylovIlu0),
            "krylov-jacobi" | "bicgstab-jacobi" => Ok(SolverPreference::KrylovJacobi),
            "gs" | "gauss-seidel" | "gaussseidel" => Ok(SolverPreference::GaussSeidel),
            other => Err(format!(
                "unknown solver `{other}` (use krylov, krylov-jacobi or gauss-seidel)"
            )),
        }
    }

    /// The canonical deck spelling of this preference.
    #[must_use]
    pub fn as_deck_str(&self) -> &'static str {
        match self {
            SolverPreference::KrylovIlu0 => "krylov",
            SolverPreference::KrylovJacobi => "krylov-jacobi",
            SolverPreference::GaussSeidel => "gauss-seidel",
        }
    }
}

/// Simulation options accumulated from every `.options` card of a deck.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisOptions {
    /// Temperature of the single-electron domain, kelvin (default 1 K).
    pub temperature: f64,
    /// Master seed of the deterministic seeding discipline (default 0).
    pub seed: u64,
    /// Requested engine (default [`EnginePreference::Auto`]).
    pub engine: EnginePreference,
    /// Master-equation per-island charge-window half-width override: the
    /// ceiling each solve's charge box grows up to.
    pub master_window: Option<i64>,
    /// Master-equation state-enumeration cap override.
    pub master_max_states: Option<usize>,
    /// Master-equation stationary solver override (`None` means the
    /// built-in default, currently Jacobi-scaled Krylov).
    pub solver: Option<SolverPreference>,
    /// Kinetic Monte-Carlo measurement events per stationary solve.
    pub kmc_events: Option<usize>,
    /// Seed-ensemble size: every bias point (or the whole trace) is solved
    /// this many times with per-repeat derived seeds, and the result table
    /// reports mean and standard-error columns. Kinetic Monte-Carlo only.
    pub repeats: Option<usize>,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            temperature: 1.0,
            seed: 0,
            engine: EnginePreference::Auto,
            master_window: None,
            master_max_states: None,
            solver: None,
            kmc_events: None,
            repeats: None,
        }
    }
}

/// A card the parser accepted but did not act on, with the reason — the
/// structured replacement for silently dropping unknown input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDiagnostic {
    /// 1-based line number of the card in the deck.
    pub line: usize,
    /// What the parser saw and why it was ignored.
    pub message: String,
}

impl fmt::Display for ParseDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// A parsed simulation deck: the circuit plus everything the `.`-cards
/// asked for.
///
/// Produced by [`crate::parser::parse_full_deck`]; consumed by the `se-sim`
/// compiler. All fields are public so decks can equally be built
/// programmatically and serialized with [`Deck::to_deck_string`] — the
/// round-trip (`build → serialize → parse → compile`) is pinned by the
/// integration tests.
#[derive(Debug, Clone, Default)]
pub struct Deck {
    /// The circuit.
    pub netlist: Netlist,
    /// Analyses, in deck order.
    pub analyses: Vec<Analysis>,
    /// Merged `.options` values.
    pub options: AnalysisOptions,
    /// Observable names requested by `.print` / `.probe` cards (the `NAME`
    /// of each `i(NAME)`), in deck order. Empty means "use the engine's
    /// default observables".
    pub probes: Vec<String>,
    /// Time-dependent sources: `(source name, waveform)` for every source
    /// card that carried a `PULSE(...)`, `SIN(...)` or `PWL(...)` spec.
    pub waveforms: Vec<(String, Waveform)>,
    /// Cards that were accepted but ignored, with reasons.
    pub diagnostics: Vec<ParseDiagnostic>,
}

impl Deck {
    /// Looks up the waveform attached to a source (case-insensitive).
    #[must_use]
    pub fn waveform_of(&self, source: &str) -> Option<&Waveform> {
        self.waveforms
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(source))
            .map(|(_, w)| w)
    }

    /// Serializes the deck back to `.cir` text the parser accepts.
    ///
    /// Numeric values are written with Rust's shortest round-trip `f64`
    /// formatting, so `parse(to_deck_string(deck))` reproduces every value
    /// bit-exactly. Diagnostics are not serialized (they describe input the
    /// parser ignored, not deck state).
    #[must_use]
    pub fn to_deck_string(&self) -> String {
        let mut out = String::new();
        let title = if self.netlist.title().is_empty() {
            "untitled deck"
        } else {
            self.netlist.title()
        };
        out.push_str(title);
        out.push('\n');
        for element in self.netlist.elements() {
            out.push_str(&element_card(
                &self.netlist,
                element,
                self.waveform_of(element.name()),
            ));
            out.push('\n');
        }
        let defaults = AnalysisOptions::default();
        if self.options != defaults {
            out.push_str(&options_card(&self.options, &defaults));
            out.push('\n');
        }
        for analysis in &self.analyses {
            out.push_str(&analysis_card(analysis));
            out.push('\n');
        }
        if !self.probes.is_empty() {
            out.push_str(".print");
            for probe in &self.probes {
                out.push_str(&format!(" i({probe})"));
            }
            out.push('\n');
        }
        out.push_str(".end\n");
        out
    }
}

/// Serializes one element as a deck card.
fn element_card(
    netlist: &Netlist,
    element: &crate::element::Element,
    waveform: Option<&Waveform>,
) -> String {
    use crate::element::ElementKind;
    let node = |n: crate::node::Node| -> String {
        if n.is_ground() {
            "0".to_string()
        } else {
            netlist.node_name(n).unwrap_or("?").to_string()
        }
    };
    let nodes: Vec<String> = element.nodes().iter().map(|&n| node(n)).collect();
    let name = element.name();
    match element.kind() {
        ElementKind::Resistor { resistance } => {
            format!("{name} {} {} {resistance:?}", nodes[0], nodes[1])
        }
        ElementKind::Capacitor { capacitance } => {
            format!("{name} {} {} {capacitance:?}", nodes[0], nodes[1])
        }
        ElementKind::TunnelJunction {
            capacitance,
            resistance,
        } => format!(
            "{name} {} {} C={capacitance:?} R={resistance:?}",
            nodes[0], nodes[1]
        ),
        ElementKind::VoltageSource { voltage } => match waveform {
            Some(w) => format!(
                "{name} {} {} DC {voltage:?} {}",
                nodes[0],
                nodes[1],
                waveform_spec(w)
            ),
            None => format!("{name} {} {} {voltage:?}", nodes[0], nodes[1]),
        },
        ElementKind::CurrentSource { current } => {
            format!("{name} {} {} {current:?}", nodes[0], nodes[1])
        }
        ElementKind::Diode {
            saturation_current,
            ideality,
        } => format!(
            "{name} {} {} IS={saturation_current:?} N={ideality:?}",
            nodes[0], nodes[1]
        ),
        ElementKind::Mosfet { params } => {
            let polarity = match params.polarity {
                crate::element::MosfetType::Nmos => "NMOS",
                crate::element::MosfetType::Pmos => "PMOS",
            };
            format!(
                "{name} {} {} {} {polarity} VTH={:?} KP={:?} LAMBDA={:?}",
                nodes[0], nodes[1], nodes[2], params.vth, params.kp, params.lambda
            )
        }
        ElementKind::SetTransistor { params } => format!(
            "{name} {} {} {} SET CG={:?} CS={:?} CD={:?} RS={:?} RD={:?} Q0={:?}",
            nodes[0],
            nodes[1],
            nodes[2],
            params.c_gate,
            params.c_source,
            params.c_drain,
            params.r_source,
            params.r_drain,
            params.background_charge
        ),
    }
}

/// Serializes a waveform as the functional source spec the parser accepts.
fn waveform_spec(waveform: &Waveform) -> String {
    match waveform {
        Waveform::Dc { level } => format!("{level:?}"),
        Waveform::Pulse {
            low,
            high,
            delay,
            width,
            period,
        } => format!("PULSE({low:?} {high:?} {delay:?} {width:?} {period:?})"),
        Waveform::Sine {
            offset,
            amplitude,
            frequency,
            phase,
        } => format!("SIN({offset:?} {amplitude:?} {frequency:?} {phase:?})"),
        Waveform::Pwl { points } => {
            let pairs: Vec<String> = points.iter().map(|(t, v)| format!("{t:?} {v:?}")).collect();
            format!("PWL({})", pairs.join(" "))
        }
        Waveform::Step { before, after, at } => {
            // A step is PWL-representable exactly only in the limit; emit
            // the same ideal step the parser reconstructs from two PWL
            // points one ulp apart is lossy, so use the dedicated spelling.
            format!("STEP({before:?} {after:?} {at:?})")
        }
        Waveform::Ramp {
            start,
            stop,
            t_start,
            t_stop,
        } => format!("PWL({t_start:?} {start:?} {t_stop:?} {stop:?})"),
    }
}

/// Serializes the non-default options as one `.options` card.
fn options_card(options: &AnalysisOptions, defaults: &AnalysisOptions) -> String {
    let mut card = String::from(".options");
    if options.temperature != defaults.temperature {
        card.push_str(&format!(" temp={:?}", options.temperature));
    }
    if options.seed != defaults.seed {
        card.push_str(&format!(" seed={}", options.seed));
    }
    if options.engine != defaults.engine {
        card.push_str(&format!(" engine={}", options.engine.as_deck_str()));
    }
    if let Some(window) = options.master_window {
        card.push_str(&format!(" window={window}"));
    }
    if let Some(max_states) = options.master_max_states {
        card.push_str(&format!(" maxstates={max_states}"));
    }
    if let Some(solver) = options.solver {
        card.push_str(&format!(" solver={}", solver.as_deck_str()));
    }
    if let Some(events) = options.kmc_events {
        card.push_str(&format!(" events={events}"));
    }
    if let Some(repeats) = options.repeats {
        card.push_str(&format!(" repeats={repeats}"));
    }
    card
}

/// Serializes one analysis as a deck card.
fn analysis_card(analysis: &Analysis) -> String {
    let sweep = |s: &SweepSpec| {
        // `.dc` carries start/stop/step; emit the exact step of the spec so
        // re-parsing recovers the same point count (see Deck::to_deck_string
        // round-trip guarantee).
        format!("{} {:?} {:?} {:?}", s.source, s.start, s.stop, s.step())
    };
    match analysis {
        Analysis::DcSweep { sweep: s } => format!(".dc {}", sweep(s)),
        Analysis::DcMap { outer, inner } => {
            format!(".dc {} {}", sweep(inner), sweep(outer))
        }
        Analysis::Transient { step, stop } => format!(".tran {step:?} {stop:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_spec_reports_its_step() {
        let sweep = SweepSpec {
            source: "VD".into(),
            start: 0.0,
            stop: 0.1,
            points: 11,
        };
        assert!((sweep.step() - 0.01).abs() < 1e-15);
        let single = SweepSpec {
            source: "VD".into(),
            start: 0.5,
            stop: 0.5,
            points: 1,
        };
        assert_eq!(single.step(), 0.0);
    }

    #[test]
    fn engine_preference_parses_aliases() {
        assert_eq!(
            EnginePreference::parse("KMC").unwrap(),
            EnginePreference::Kmc
        );
        assert_eq!(
            EnginePreference::parse("Master-Equation").unwrap(),
            EnginePreference::Master
        );
        assert!(EnginePreference::parse("verilog").is_err());
        for pref in [
            EnginePreference::Auto,
            EnginePreference::Analytic,
            EnginePreference::Master,
            EnginePreference::Kmc,
            EnginePreference::Spice,
            EnginePreference::Hybrid,
        ] {
            assert_eq!(EnginePreference::parse(pref.as_deck_str()).unwrap(), pref);
        }
    }

    #[test]
    fn default_options_match_the_documented_defaults() {
        let options = AnalysisOptions::default();
        assert_eq!(options.temperature, 1.0);
        assert_eq!(options.seed, 0);
        assert_eq!(options.engine, EnginePreference::Auto);
        assert!(options.master_window.is_none());
    }

    #[test]
    fn diagnostics_display_their_line() {
        let diag = ParseDiagnostic {
            line: 7,
            message: "unknown directive `.ac`".into(),
        };
        assert_eq!(diag.to_string(), "line 7: unknown directive `.ac`");
    }
}
