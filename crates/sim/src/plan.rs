//! The deck compiler: validated [`Deck`] in, executable [`SimulationPlan`]
//! out.
//!
//! Compilation is pure planning — no engine is built and no point is
//! solved. The compiler:
//!
//! 1. validates the netlist structurally;
//! 2. partitions it ([`se_netlist::partition_report`]) and picks an engine
//!    per analysis — the deck's `.options ENGINE=` preference if present
//!    (checked for compatibility, with the partition's named nodes and
//!    elements in every rejection), otherwise automatically: pure
//!    tunnel-junction decks take the master equation for DC work and the
//!    kinetic Monte-Carlo clock for transients, pure conventional decks
//!    take SPICE, and mixed decks take the hybrid co-simulator;
//! 3. materialises each `.dc` grid and `.tran` sample schedule;
//! 4. resolves `.print` probes (or fills in the engine family's default
//!    observables) against the netlist.
//!
//! The resulting plan is plain data (`PartialEq`), which is what makes
//! "same deck → same plan" testable: the integration suite round-trips
//! programmatically built decks through [`Deck::to_deck_string`] and
//! re-compiles them to identical plans.

use crate::error::SimError;
use se_engine::{linspace, sample_times};
use se_netlist::{partition_report, Analysis, Deck, EnginePreference, PartitionReport, SweepSpec};

/// The engine family a planned run executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The closed-form analytic SET model.
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

impl EngineChoice {
    /// The short name used in reports and provenance metadata.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EngineChoice::Analytic => "analytic",
            EngineChoice::Master => "master",
            EngineChoice::Kmc => "kmc",
            EngineChoice::Spice => "spice",
            EngineChoice::Hybrid => "hybrid",
        }
    }

    /// Whether the engine measures junction currents (`true`) or
    /// voltage-source branch currents (`false`).
    #[must_use]
    pub fn measures_junctions(&self) -> bool {
        !matches!(self, EngineChoice::Spice)
    }
}

/// One lowered analysis: the concrete grid a run visits.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedAnalysis {
    /// A 1-D sweep of one source.
    Sweep {
        /// The swept source name.
        control: String,
        /// The bias grid, volt.
        values: Vec<f64>,
    },
    /// A 2-D stability map.
    Map {
        /// Slow-axis source name.
        outer_control: String,
        /// Slow-axis grid, volt.
        outer_values: Vec<f64>,
        /// Fast-axis source name.
        inner_control: String,
        /// Fast-axis grid, volt.
        inner_values: Vec<f64>,
    },
    /// A transient run.
    Transient {
        /// Integration ceiling (the `.tran` step), seconds.
        step: f64,
        /// The sample schedule, seconds.
        times: Vec<f64>,
    },
}

/// One executable run of a plan: an analysis bound to an engine and a set
/// of observables.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedRun {
    /// Human-readable label (the directive it came from).
    pub label: String,
    /// The engine family that executes this run.
    pub engine: EngineChoice,
    /// Why that engine was chosen (preference or partition narrative).
    pub rationale: String,
    /// The lowered analysis.
    pub analysis: PlannedAnalysis,
    /// Observable names, in output-column order.
    pub observables: Vec<String>,
}

/// A compiled deck: everything the executor needs except the netlist
/// itself (which stays on the [`Deck`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationPlan {
    /// The deck title.
    pub title: String,
    /// Temperature of the single-electron domain, kelvin.
    pub temperature: f64,
    /// Master seed of the deterministic seeding discipline.
    pub seed: u64,
    /// Seed-ensemble size (`.options repeats=`): every bias point / trace
    /// is solved this many times and the tables report mean and
    /// standard-error columns. `None` = single-shot tables.
    pub repeats: Option<usize>,
    /// The runs, in deck order.
    pub runs: Vec<PlannedRun>,
}

/// Whether an analysis is stationary (`.dc`) or time-domain (`.tran`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnalysisKind {
    Stationary,
    Transient,
}

/// Compiles a parsed deck into an executable [`SimulationPlan`].
///
/// # Errors
///
/// Returns [`SimError::Netlist`] for structural netlist problems and
/// [`SimError::Plan`] for planning failures: no analyses, an engine
/// preference the partition cannot honour (the message names the nodes and
/// elements responsible), unknown swept sources, or probes the chosen
/// engine cannot measure.
pub fn compile(deck: &Deck) -> Result<SimulationPlan, SimError> {
    deck.netlist.validate()?;
    if deck.analyses.is_empty() {
        return Err(SimError::Plan(
            "the deck has no analyses — add a `.dc` or `.tran` card".into(),
        ));
    }
    let report = partition_report(&deck.netlist);

    let mut runs = Vec::with_capacity(deck.analyses.len());
    for analysis in &deck.analyses {
        let kind = match analysis {
            Analysis::Transient { .. } => AnalysisKind::Transient,
            _ => AnalysisKind::Stationary,
        };
        let (engine, rationale) = choose_engine(&report, deck.options.engine, kind)?;
        let observables = resolve_observables(deck, engine)?;
        let planned = match analysis {
            Analysis::DcSweep { sweep } => PlannedAnalysis::Sweep {
                control: checked_source(deck, engine, sweep)?,
                values: grid_of(sweep)?,
            },
            Analysis::DcMap { outer, inner } => PlannedAnalysis::Map {
                outer_control: checked_source(deck, engine, outer)?,
                outer_values: grid_of(outer)?,
                inner_control: checked_source(deck, engine, inner)?,
                inner_values: grid_of(inner)?,
            },
            Analysis::Transient { step, stop } => {
                for (source, _) in &deck.waveforms {
                    checked_drive(deck, engine, source)?;
                }
                PlannedAnalysis::Transient {
                    step: *step,
                    times: sample_times(*step, *stop)?,
                }
            }
        };
        if deck.options.repeats.is_some() && engine != EngineChoice::Kmc {
            return Err(SimError::Plan(format!(
                ".options repeats= runs a seed ensemble through the kinetic Monte-Carlo \
                 engine, but `{analysis}` would run on engine {} ({rationale}); add \
                 `.options engine=kmc` or drop repeats=",
                engine.name()
            )));
        }
        runs.push(PlannedRun {
            label: analysis.to_string(),
            engine,
            rationale,
            analysis: planned,
            observables,
        });
    }
    Ok(SimulationPlan {
        title: deck.netlist.title().to_string(),
        temperature: deck.options.temperature,
        seed: deck.options.seed,
        repeats: deck.options.repeats,
        runs,
    })
}

/// Materialises the bias grid of one sweep spec.
fn grid_of(sweep: &SweepSpec) -> Result<Vec<f64>, SimError> {
    if sweep.points == 1 {
        Ok(vec![sweep.start])
    } else {
        Ok(linspace(sweep.start, sweep.stop, sweep.points)?)
    }
}

/// Validates that a swept source exists, is a voltage source, and — for
/// the engines that lower onto a `TunnelSystem` — pins its electrode with
/// the positive terminal.
fn checked_source(
    deck: &Deck,
    engine: EngineChoice,
    sweep: &SweepSpec,
) -> Result<String, SimError> {
    let name = &sweep.source;
    let Some(element) = deck.netlist.element(name) else {
        let available: Vec<&str> = deck
            .netlist
            .voltage_sources()
            .map(se_netlist::Element::name)
            .collect();
        return Err(SimError::Plan(format!(
            ".dc sweeps source `{name}`, but the deck has no such element (voltage sources: {})",
            available.join(", ")
        )));
    };
    if !element.is_voltage_source() {
        return Err(SimError::Plan(format!(
            ".dc sweeps `{name}`, which is not a voltage source"
        )));
    }
    positive_terminal_check(deck, engine, name, "swept")?;
    Ok(name.clone())
}

/// Validates a `.tran` drive (a source carrying a waveform) the same way a
/// swept source is validated: on the engines that lower onto a
/// `TunnelSystem`, the wrapper translates the source to the electrode it
/// pins and applies the waveform value directly, so the positive terminal
/// must sit on the electrode or the drive polarity would silently flip.
fn checked_drive(deck: &Deck, engine: EngineChoice, source: &str) -> Result<(), SimError> {
    positive_terminal_check(deck, engine, source, "driven")
}

/// The shared positive-terminal rule of the island backends.
fn positive_terminal_check(
    deck: &Deck,
    engine: EngineChoice,
    name: &str,
    action: &str,
) -> Result<(), SimError> {
    if !matches!(
        engine,
        EngineChoice::Analytic | EngineChoice::Master | EngineChoice::Kmc
    ) {
        return Ok(());
    }
    let Some(element) = deck.netlist.element(name) else {
        return Ok(());
    };
    if element.is_voltage_source() && !element.nodes()[1].is_ground() {
        return Err(SimError::Plan(format!(
            "source `{name}` must be ground-referenced with its positive terminal on the \
             electrode to be {action} on the {} backend (write `{name} <node> 0 <value>`)",
            engine.name()
        )));
    }
    Ok(())
}

/// Resolves the `.print` probes (or the engine family's defaults) against
/// the netlist.
fn resolve_observables(deck: &Deck, engine: EngineChoice) -> Result<Vec<String>, SimError> {
    let junctions: Vec<String> = deck
        .netlist
        .tunnel_junctions()
        .map(|e| e.name().to_string())
        .collect();
    let sources: Vec<String> = deck
        .netlist
        .voltage_sources()
        .map(|e| e.name().to_string())
        .collect();
    if deck.probes.is_empty() {
        let defaults = if engine.measures_junctions() {
            junctions
        } else {
            sources
        };
        if defaults.is_empty() {
            return Err(SimError::Plan(format!(
                "no default observables: the {} backend measures {}, and the deck has none",
                engine.name(),
                if engine.measures_junctions() {
                    "tunnel-junction currents"
                } else {
                    "voltage-source branch currents"
                }
            )));
        }
        return Ok(defaults);
    }
    let canonical = |pool: &[String], probe: &String| -> Option<String> {
        pool.iter()
            .find(|name| name.eq_ignore_ascii_case(probe))
            .cloned()
    };
    deck.probes
        .iter()
        .map(|probe| {
            let (pool, kind) = if engine.measures_junctions() {
                (&junctions, "tunnel junction")
            } else {
                (&sources, "voltage source")
            };
            canonical(pool, probe).ok_or_else(|| {
                SimError::Plan(format!(
                    "probe `i({probe})` does not name a {kind} (the {} backend measures {kind} \
                     currents; available: {})",
                    engine.name(),
                    pool.join(", ")
                ))
            })
        })
        .collect()
}

/// Picks the engine for one analysis from the deck preference and the
/// partition, or explains why the preference cannot be honoured.
fn choose_engine(
    report: &PartitionReport,
    preference: EnginePreference,
    kind: AnalysisKind,
) -> Result<(EngineChoice, String), SimError> {
    let islands = report.split.islands.len();
    let reasons = report.hybrid_reasons();
    match preference {
        EnginePreference::Auto => {
            if report.is_pure_single_electron() {
                let choice = match kind {
                    AnalysisKind::Stationary => EngineChoice::Master,
                    AnalysisKind::Transient => EngineChoice::Kmc,
                };
                Ok((
                    choice,
                    format!(
                        "auto: pure single-electron deck ({islands} island group{}, nodes [{}])",
                        if islands == 1 { "" } else { "s" },
                        report.island_nodes.join(", ")
                    ),
                ))
            } else if report.is_pure_conventional() {
                Ok((
                    EngineChoice::Spice,
                    "auto: no single-electron islands — conventional SPICE deck".into(),
                ))
            } else {
                Ok((
                    EngineChoice::Hybrid,
                    format!("auto: mixed deck — {}", reasons.join("; ")),
                ))
            }
        }
        EnginePreference::Analytic => {
            require_pure_single_electron(report, "analytic")?;
            Ok((EngineChoice::Analytic, "requested: engine=analytic".into()))
        }
        EnginePreference::Master => {
            require_pure_single_electron(report, "master")?;
            Ok((EngineChoice::Master, "requested: engine=master".into()))
        }
        EnginePreference::Kmc => {
            require_pure_single_electron(report, "kmc")?;
            Ok((EngineChoice::Kmc, "requested: engine=kmc".into()))
        }
        EnginePreference::Spice => {
            if report.has_islands() {
                return Err(SimError::Plan(format!(
                    "engine=spice cannot simulate single-electron islands (island nodes [{}] \
                     with junctions {}); use master, kmc or hybrid",
                    report.island_nodes.join(", "),
                    report
                        .split
                        .islands
                        .iter()
                        .flat_map(|i| i.junctions.iter().cloned())
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            Ok((EngineChoice::Spice, "requested: engine=spice".into()))
        }
        EnginePreference::Hybrid => {
            if !report.has_islands() {
                return Err(SimError::Plan(
                    "engine=hybrid needs at least one single-electron island; this deck is \
                     purely conventional — use engine=spice"
                        .into(),
                ));
            }
            Ok((EngineChoice::Hybrid, "requested: engine=hybrid".into()))
        }
    }
}

/// Rejects engine preferences that need a pure single-electron deck,
/// naming the offending nodes and elements.
fn require_pure_single_electron(report: &PartitionReport, engine: &str) -> Result<(), SimError> {
    if report.is_pure_single_electron() {
        return Ok(());
    }
    if !report.has_islands() {
        return Err(SimError::Plan(format!(
            "engine={engine} needs single-electron islands, but the partition found none — use \
             engine=spice for a conventional deck"
        )));
    }
    Err(SimError::Plan(format!(
        "engine={engine} needs a pure single-electron deck, but the partition is mixed: {}",
        report.hybrid_reasons().join("; ")
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_engine::GridError;
    use se_netlist::parse_full_deck;

    const SET_DECK: &str = "single SET\nVD drain 0 1m\nVG gate 0 0\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n";

    fn with_cards(cards: &str) -> Deck {
        parse_full_deck(&format!("{SET_DECK}{cards}")).unwrap()
    }

    #[test]
    fn pure_se_decks_default_to_master_for_dc_and_kmc_for_tran() {
        let plan = compile(&with_cards(".dc VG 0 0.16 4m\n.tran 10n 100n\n")).unwrap();
        assert_eq!(plan.runs.len(), 2);
        assert_eq!(plan.runs[0].engine, EngineChoice::Master);
        assert!(
            plan.runs[0].rationale.contains("island"),
            "{}",
            plan.runs[0].rationale
        );
        assert_eq!(plan.runs[1].engine, EngineChoice::Kmc);
        match &plan.runs[0].analysis {
            PlannedAnalysis::Sweep { control, values } => {
                assert_eq!(control, "VG");
                assert_eq!(values.len(), 41);
            }
            other => panic!("unexpected analysis {other:?}"),
        }
        match &plan.runs[1].analysis {
            PlannedAnalysis::Transient { times, step } => {
                assert_eq!(times.len(), 11);
                assert_eq!(*step, 10e-9);
            }
            other => panic!("unexpected analysis {other:?}"),
        }
        // Default observables: all junctions.
        assert_eq!(
            plan.runs[0].observables,
            vec!["J1".to_string(), "J2".into()]
        );
    }

    #[test]
    fn conventional_decks_take_the_spice_engine() {
        let deck =
            parse_full_deck("divider\nV1 in 0 1\nR1 in out 1k\nR2 out 0 1k\n.dc V1 0 2 0.5\n")
                .unwrap();
        let plan = compile(&deck).unwrap();
        assert_eq!(plan.runs[0].engine, EngineChoice::Spice);
        // Default observables: all source branch currents.
        assert_eq!(plan.runs[0].observables, vec!["V1".to_string()]);
    }

    #[test]
    fn mixed_decks_take_the_hybrid_engine_and_name_the_bridge() {
        let deck = parse_full_deck(
            "mixed\nVDD vdd 0 5m\nVG gate 0 0\nRL vdd drain 10meg\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n.dc VG 0 0.16 8m\n",
        )
        .unwrap();
        let plan = compile(&deck).unwrap();
        assert_eq!(plan.runs[0].engine, EngineChoice::Hybrid);
        assert!(
            plan.runs[0].rationale.contains("`drain`"),
            "{}",
            plan.runs[0].rationale
        );
        assert!(
            plan.runs[0].rationale.contains("`RL`"),
            "{}",
            plan.runs[0].rationale
        );
    }

    #[test]
    fn engine_preferences_are_checked_against_the_partition() {
        let err = compile(&with_cards(".options engine=spice\n.dc VG 0 0.16 4m\n")).unwrap_err();
        assert!(err.to_string().contains("island"), "{err}");
        assert!(err.to_string().contains("J1"), "{err}");

        let conventional = parse_full_deck(
            "divider\nV1 in 0 1\nR1 in out 1k\nR2 out 0 1k\n.options engine=master\n.dc V1 0 2 0.5\n",
        )
        .unwrap();
        let err = compile(&conventional).unwrap_err();
        assert!(err.to_string().contains("no"), "{err}");

        let mixed = parse_full_deck(
            "mixed\nVDD vdd 0 5m\nVG gate 0 0\nRL vdd drain 10meg\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n.options engine=kmc\n.dc VG 0 0.16 8m\n",
        )
        .unwrap();
        let err = compile(&mixed).unwrap_err();
        assert!(err.to_string().contains("`RL`"), "{err}");
    }

    #[test]
    fn probes_resolve_case_insensitively_and_reject_wrong_kinds() {
        let plan = compile(&with_cards(".dc VG 0 0.16 4m\n.print i(j1)\n")).unwrap();
        assert_eq!(plan.runs[0].observables, vec!["J1".to_string()]);

        let err = compile(&with_cards(".dc VG 0 0.16 4m\n.print i(CG)\n")).unwrap_err();
        assert!(err.to_string().contains("CG"), "{err}");
        assert!(err.to_string().contains("available"), "{err}");
    }

    #[test]
    fn unknown_swept_sources_are_rejected_with_candidates() {
        let err = compile(&with_cards(".dc VX 0 0.16 4m\n")).unwrap_err();
        assert!(err.to_string().contains("VX"), "{err}");
        assert!(err.to_string().contains("VD"), "{err}");
    }

    #[test]
    fn decks_without_analyses_are_rejected() {
        let err = compile(&with_cards("")).unwrap_err();
        assert!(err.to_string().contains("no analyses"), "{err}");
    }

    #[test]
    fn repeats_require_the_kmc_engine() {
        // Auto picks the master equation for `.dc` on a pure SE deck, which
        // cannot run a seed ensemble.
        let err = compile(&with_cards(".options repeats=8\n.dc VG 0 0.16 4m\n")).unwrap_err();
        assert!(err.to_string().contains("repeats"), "{err}");
        assert!(err.to_string().contains("engine=kmc"), "{err}");

        let plan = compile(&with_cards(
            ".options engine=kmc repeats=8\n.dc VG 0 0.16 4m\n.tran 10n 100n\n",
        ))
        .unwrap();
        assert_eq!(plan.repeats, Some(8));
        assert!(plan.runs.iter().all(|r| r.engine == EngineChoice::Kmc));

        // No repeats: the plan stays single-shot.
        assert_eq!(
            compile(&with_cards(".dc VG 0 0.16 4m\n")).unwrap().repeats,
            None
        );
    }

    #[test]
    fn single_point_sweeps_compile() {
        let plan = compile(&with_cards(".dc VG 0.05 0.05 1m\n")).unwrap();
        match &plan.runs[0].analysis {
            PlannedAnalysis::Sweep { values, .. } => assert_eq!(values, &vec![0.05]),
            other => panic!("unexpected analysis {other:?}"),
        }
    }

    #[test]
    fn reversed_sources_cannot_be_swept_on_island_backends() {
        let deck = parse_full_deck(
            "rev\nVD 0 drain 1m\nVG gate 0 0\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n.dc VD 0 1m 0.1m\n",
        )
        .unwrap();
        let err = compile(&deck).unwrap_err();
        assert!(err.to_string().contains("positive terminal"), "{err}");
    }

    #[test]
    fn reversed_sources_cannot_drive_transients_on_island_backends() {
        // The KMC wrapper would apply the waveform to the `drain` electrode
        // with inverted polarity; the compiler must reject it like the `.dc`
        // path does.
        let deck = parse_full_deck(
            "rev tran\nVD 0 drain PULSE(0 1m 20n 40n 80n)\nVG gate 0 0\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n.tran 10n 160n\n",
        )
        .unwrap();
        let err = compile(&deck).unwrap_err();
        assert!(err.to_string().contains("positive terminal"), "{err}");
        assert!(err.to_string().contains("driven"), "{err}");
    }

    #[test]
    fn map_axes_follow_spice_order() {
        let plan = compile(&with_cards(".dc VD -50m 50m 10m VG 0 0.16 4m\n")).unwrap();
        match &plan.runs[0].analysis {
            PlannedAnalysis::Map {
                outer_control,
                inner_control,
                outer_values,
                inner_values,
            } => {
                assert_eq!(outer_control, "VG");
                assert_eq!(inner_control, "VD");
                assert_eq!(outer_values.len(), 41);
                assert_eq!(inner_values.len(), 11);
            }
            other => panic!("unexpected analysis {other:?}"),
        }
    }

    #[test]
    fn an_oversized_transient_grid_built_in_code_is_refused_before_allocation() {
        // No parser sits between this deck and `compile`: 1 s in steps of
        // 1 ns would be a 1e9-sample grid.
        let mut deck = with_cards("");
        deck.analyses = vec![Analysis::Transient {
            step: 1e-9,
            stop: 1.0,
        }];
        match compile(&deck) {
            Err(SimError::Grid(GridError::BadSampleTimes(reason))) => {
                assert!(reason.contains("2000000"), "{reason}");
            }
            other => panic!("expected a refused sample grid, got {other:?}"),
        }
    }
}
