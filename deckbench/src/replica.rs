//! The traced replica: the deck pipeline re-walked single-threaded from
//! outside the program, one span around each call into a layer's public
//! functions, so the per-layer split of a run is measured without a line
//! of program code changing.
//!
//! The replica must publish `execute_serial`'s tables bit for bit: the
//! same per-item seeds (`derive_seed(plan seed, item)`), the same lane-group
//! replica seeding and the same `MASTER_WARM_BLOCK` warm chains. The caller
//! compares every row; a replica that drifted from the executor would time
//! a different computation.

use se_engine::{ControlId, ObservableId};
use se_exec::{derive_seed, lane_group_count, lane_group_range};
use se_montecarlo::{
    resolve_electrode, resolve_junction, tunnel_system_from_netlist, BatchedKmcEngine, KmcKernel,
    MasterEquation, MonteCarloSimulator, Preconditioner, SimulationOptions, StationarySolver,
};
use se_netlist::{parse_full_deck, AnalysisOptions, Netlist, SolverPreference};
use se_orthodox::TunnelSystem;
use se_sim::exec::DEFAULT_LANE_WIDTH;
use se_sim::{compile, EngineChoice, PlannedAnalysis, SimulationResult, MASTER_WARM_BLOCK};
use se_units::constants::E;
use std::path::Path;
use std::time::Instant;

/// One table of rows per planned analysis.
pub type Tables = Vec<Vec<Vec<f64>>>;

/// Busy time and work counts of one replica pass, by layer.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `se_netlist::parse_full_deck`.
    pub parse_s: f64,
    /// `se_sim::compile`.
    pub plan_s: f64,
    /// `tunnel_system_from_netlist` (C_II factorisation, response columns,
    /// event-coupling table).
    pub build_s: f64,
    /// Per-point system / master-equation clone plus bias application.
    pub clone_s: f64,
    /// `MonteCarloSimulator::new` and `MasterEquation::new`.
    pub new_s: f64,
    /// `MonteCarloSimulator::equilibrate`.
    pub equil_s: f64,
    /// The measured `MonteCarloSimulator::step` loop.
    pub measure_s: f64,
    /// `BatchedKmcEngine::new` + `run_events_all`, per lane group.
    pub batched_s: f64,
    /// `MasterEquation::solve_warm` (state enumeration, assembly, solve).
    pub master_solve_s: f64,
    /// `SimulationResult::to_csv` + file write.
    pub sink_s: f64,
    /// Wall time of the pass, minus the untimed counter reads.
    pub wall_s: f64,
    /// Strong event-coupling entries over all fired junctions.
    pub strong_entries: u64,
    /// Strong entries / junctions².
    pub strong_density: f64,
    /// Whether the KMC engines resolved `Auto` to the tree kernel.
    pub tree_kernel: bool,
    /// Measured scalar KMC events.
    pub events: u64,
    /// Lane groups run on the batched engine.
    pub lane_groups: u64,
    /// Measured events summed over batched replicas.
    pub replica_events: u64,
    /// Largest master-equation state count solved.
    pub master_states: u64,
    /// Master-equation solves, warm-started solves, solver iterations and
    /// Gauss–Seidel fallbacks.
    pub solves: u64,
    pub warm_solves: u64,
    pub iterations: u64,
    pub fallbacks: u64,
}

impl Layers {
    /// Sum of the timed layers.
    pub fn layer_sum(&self) -> f64 {
        self.parse_s
            + self.plan_s
            + self.build_s
            + self.clone_s
            + self.new_s
            + self.equil_s
            + self.measure_s
            + self.batched_s
            + self.master_solve_s
            + self.sink_s
    }
}

/// Runs `f`, adding its wall time to `slot`.
fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

/// The electrode a deck control name drives: a ground-referenced voltage
/// source's name maps to the node it pins (as the executor's source map
/// does); any other name is taken as an electrode name.
pub fn electrode(netlist: &Netlist, system: &TunnelSystem, name: &str) -> Result<usize, String> {
    let pinned = netlist
        .voltage_sources()
        .find(|source| source.name().eq_ignore_ascii_case(name))
        .and_then(|source| {
            let nodes = source.nodes();
            if nodes[1].is_ground() {
                Some(nodes[0])
            } else if nodes[0].is_ground() {
                Some(nodes[1])
            } else {
                None
            }
        })
        .and_then(|node| netlist.node_name(node));
    resolve_electrode(system, pinned.unwrap_or(name))
        .map(|ControlId(index)| index)
        .map_err(|e| e.to_string())
}

/// One bias point: its published prefix columns and the electrode values.
struct Point {
    prefix: Vec<f64>,
    controls: Vec<(usize, f64)>,
}

/// The bias points of a stationary analysis, in executor item order.
fn points(
    netlist: &Netlist,
    system: &TunnelSystem,
    analysis: &PlannedAnalysis,
) -> Result<Vec<Point>, String> {
    match analysis {
        PlannedAnalysis::Sweep { control, values } => {
            let e = electrode(netlist, system, control)?;
            Ok(values
                .iter()
                .map(|&v| Point {
                    prefix: vec![v],
                    controls: vec![(e, v)],
                })
                .collect())
        }
        PlannedAnalysis::Map {
            outer_control,
            outer_values,
            inner_control,
            inner_values,
        } => {
            let outer = electrode(netlist, system, outer_control)?;
            let inner = electrode(netlist, system, inner_control)?;
            Ok(outer_values
                .iter()
                .flat_map(|&o| {
                    inner_values.iter().map(move |&i| Point {
                        prefix: vec![o, i],
                        controls: vec![(outer, o), (inner, i)],
                    })
                })
                .collect())
        }
        PlannedAnalysis::Transient { .. } => {
            Err("the replica covers stationary analyses only".into())
        }
    }
}

fn apply(system: &mut TunnelSystem, controls: &[(usize, f64)]) -> Result<(), String> {
    for &(electrode, value) in controls {
        system
            .set_external_voltage(electrode, value)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The KMC options the executor's backend carries for this deck.
fn kmc_options(options: &AnalysisOptions) -> SimulationOptions {
    let base = SimulationOptions::new(options.temperature).with_seed(options.seed);
    match options.kmc_events {
        Some(events) => base.with_events_per_solve(events),
        None => base,
    }
}

/// The master-equation solver the executor's backend builds for this deck.
fn master_equation(
    system: TunnelSystem,
    options: &AnalysisOptions,
) -> Result<MasterEquation, String> {
    let mut solver = MasterEquation::new(system, options.temperature).map_err(|e| e.to_string())?;
    if let Some(window) = options.master_window {
        solver = solver.with_window(window).map_err(|e| e.to_string())?;
    }
    if let Some(max_states) = options.master_max_states {
        solver = solver
            .with_max_states(max_states)
            .map_err(|e| e.to_string())?;
    }
    if let Some(preference) = options.solver {
        solver = solver.with_solver(match preference {
            SolverPreference::KrylovIlu0 => StationarySolver::Krylov(Preconditioner::Ilu0),
            SolverPreference::KrylovJacobi => StationarySolver::Krylov(Preconditioner::Jacobi),
            SolverPreference::GaussSeidel => StationarySolver::GaussSeidel,
        });
    }
    Ok(solver)
}

/// Sample mean and standard error, summed in replica order exactly as the
/// executor's ensemble rows are.
fn mean_stderr(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let variance = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    (mean, (variance / n as f64).sqrt())
}

/// One scalar KMC solve: clone + bias, `new`, equilibrate, then the
/// measured step loop, with currents formed exactly as
/// `MonteCarloSimulator::run_events` forms them.
fn kmc_point(
    base: &TunnelSystem,
    controls: &[(usize, f64)],
    options: SimulationOptions,
    junctions: &[usize],
    layers: &mut Layers,
) -> Result<Vec<f64>, String> {
    let mut system = timed(&mut layers.clone_s, || base.clone());
    timed(&mut layers.clone_s, || apply(&mut system, controls))?;
    let mut sim = timed(&mut layers.new_s, || {
        MonteCarloSimulator::new(system, options)
    })
    .map_err(|e| e.to_string())?;
    timed(&mut layers.equil_s, || sim.equilibrate()).map_err(|e| e.to_string())?;
    let executed = timed(&mut layers.measure_s, || {
        let mut executed = 0u64;
        for _ in 0..options.events_per_solve {
            match sim.step() {
                Ok(Some(_)) => executed += 1,
                Ok(None) => break,
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(executed)
    })?;
    layers.events += executed;
    let time = sim.time();
    let net = sim.net_transfers();
    Ok(junctions
        .iter()
        .map(|&j| {
            if time > 0.0 {
                -E * net[j] as f64 / time
            } else {
                0.0
            }
        })
        .collect())
}

/// Re-walks the deck pipeline for `text`, returning one table of rows per
/// planned analysis plus the layer split. `references` are the executor's
/// tables: the replica's rows go through the same CSV sink under their
/// label, engine and columns. The CSV is written to `sink_path` and
/// removed again.
pub fn replicate(
    text: &str,
    references: &[SimulationResult],
    sink_path: &Path,
) -> Result<(Tables, Layers), String> {
    let start = Instant::now();
    let mut untimed = 0.0;
    let mut layers = Layers::default();
    let deck = timed(&mut layers.parse_s, || parse_full_deck(text)).map_err(|e| e.to_string())?;
    let plan = timed(&mut layers.plan_s, || compile(&deck)).map_err(|e| e.to_string())?;
    if references.len() != plan.runs.len() {
        return Err("reference tables do not match the plan".into());
    }
    let mut tables = Vec::with_capacity(plan.runs.len());
    for (run, reference) in plan.runs.iter().zip(references) {
        let base = timed(&mut layers.build_s, || {
            tunnel_system_from_netlist(&deck.netlist)
        })
        .map_err(|e| e.to_string())?;
        let counted = Instant::now();
        let junction_count = base.junctions().len();
        layers.strong_entries = (0..junction_count)
            .map(|f| base.junction_strong_couplings(f).len() as u64)
            .sum();
        layers.strong_density =
            layers.strong_entries as f64 / (junction_count * junction_count) as f64;
        let observables: Vec<usize> = run
            .observables
            .iter()
            .map(|name| {
                resolve_junction(&base, name)
                    .map(|ObservableId(j)| j)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        let points = points(&deck.netlist, &base, &run.analysis)?;
        untimed += counted.elapsed().as_secs_f64();

        let mut rows = Vec::with_capacity(points.len());
        match (run.engine, plan.repeats) {
            (EngineChoice::Kmc, None) => {
                let options = kmc_options(&deck.options);
                layers.tree_kernel = KmcKernel::Auto.uses_tree(base.event_count());
                for (index, point) in points.iter().enumerate() {
                    let seeded = SimulationOptions {
                        seed: Some(derive_seed(plan.seed, index as u64)),
                        ..options
                    };
                    let currents =
                        kmc_point(&base, &point.controls, seeded, &observables, &mut layers)?;
                    rows.push([point.prefix.clone(), currents].concat());
                }
            }
            (EngineChoice::Kmc, Some(repeats)) => {
                let options = kmc_options(&deck.options);
                layers.tree_kernel = KmcKernel::Auto.uses_tree(base.event_count());
                let groups = lane_group_count(repeats, DEFAULT_LANE_WIDTH).max(1);
                for (index, point) in points.iter().enumerate() {
                    // With several groups per point the replica seeds derive
                    // from the point; with one they derive from the item —
                    // the same value, as items and points coincide.
                    let point_seed = derive_seed(plan.seed, index as u64);
                    let mut replicas: Vec<Vec<f64>> = Vec::with_capacity(repeats);
                    for group in 0..groups {
                        let seeds: Vec<u64> = lane_group_range(repeats, DEFAULT_LANE_WIDTH, group)
                            .map(|k| derive_seed(point_seed, k as u64))
                            .collect();
                        let mut system = timed(&mut layers.clone_s, || base.clone());
                        timed(&mut layers.clone_s, || apply(&mut system, &point.controls))?;
                        let results = timed(&mut layers.batched_s, || {
                            BatchedKmcEngine::new(system, options, &seeds).and_then(|mut batch| {
                                batch.run_events_all(options.events_per_solve)
                            })
                        })
                        .map_err(|e| e.to_string())?;
                        layers.lane_groups += 1;
                        for result in &results {
                            layers.replica_events += result.events();
                            let currents = run
                                .observables
                                .iter()
                                .map(|name| {
                                    result
                                        .junction_current(name)
                                        .ok_or_else(|| format!("no current for junction {name}"))
                                })
                                .collect::<Result<Vec<f64>, String>>()?;
                            replicas.push(currents);
                        }
                    }
                    let mut row = point.prefix.clone();
                    for k in 0..observables.len() {
                        let samples: Vec<f64> = replicas.iter().map(|r| r[k]).collect();
                        let (mean, stderr) = mean_stderr(&samples);
                        row.push(mean);
                        row.push(stderr);
                    }
                    rows.push(row);
                }
            }
            (EngineChoice::Master, None) => {
                let master = timed(&mut layers.new_s, || master_equation(base, &deck.options))?;
                for block in points.chunks(MASTER_WARM_BLOCK) {
                    let mut warm = None;
                    for point in block {
                        let mut solver = timed(&mut layers.clone_s, || master.clone());
                        timed(&mut layers.clone_s, || {
                            apply(solver.system_mut(), &point.controls)
                        })?;
                        let solution = timed(&mut layers.master_solve_s, || {
                            solver.solve_warm(warm.as_ref())
                        })
                        .map_err(|e| e.to_string())?;
                        let stats = solution.stats();
                        layers.solves += 1;
                        layers.warm_solves += u64::from(stats.warm_started);
                        layers.iterations += stats.iterations as u64;
                        layers.fallbacks += u64::from(stats.solver.contains("fallback"));
                        layers.master_states =
                            layers.master_states.max(solution.states().len() as u64);
                        let mut row = point.prefix.clone();
                        for name in &run.observables {
                            row.push(
                                solution
                                    .junction_current(name)
                                    .ok_or_else(|| format!("no current for junction {name}"))?,
                            );
                        }
                        rows.push(row);
                        warm = Some(solution);
                    }
                }
            }
            (engine, _) => {
                return Err(format!(
                    "the replica covers KMC and master-equation runs, not {}",
                    engine.name()
                ))
            }
        }

        let table = SimulationResult::new(
            reference.label(),
            reference.engine(),
            reference.columns().to_vec(),
            rows,
            reference.metadata().to_vec(),
        );
        timed(&mut layers.sink_s, || {
            std::fs::write(sink_path, table.to_csv())
        })
        .map_err(|e| format!("cannot write {}: {e}", sink_path.display()))?;
        tables.push(table.rows().to_vec());
    }
    layers.wall_s = start.elapsed().as_secs_f64() - untimed;
    let _ = std::fs::remove_file(sink_path);
    Ok((tables, layers))
}
