//! The plan executor: runs every planned analysis of a deck concurrently
//! through the [`se_exec`] job substrate and collects [`SimulationResult`]
//! tables.
//!
//! Each planned run becomes one substrate job whose items are output rows
//! (one bias point for `.dc`, one whole trace for `.tran`); all of a deck's
//! jobs — and, in batch mode, all decks' jobs — share **one** chunked
//! worker pool ([`se_exec::run_batch`]). Every item seeds from its bias
//! point through the shared SplitMix64 discipline
//! ([`derive_seed`]`(seed, point)`), so serial, parallel, chunked and
//! checkpoint-resumed executions are all bit-identical. [`ExecOptions`]
//! adds the substrate features on top of the plain [`execute`] API:
//! worker/chunk control, streamed CSV export, throttled progress
//! reporting, cooperative cancellation and checkpoint/resume.

use crate::backend::{build_stationary, build_transient, StationaryBackend, TransientBackend};
use crate::error::SimError;
use crate::plan::{PlannedAnalysis, PlannedRun, SimulationPlan};
use crate::result::{SimulationResult, SolverEffort};
use se_engine::{
    derive_seed, ControlId, ObservableId, StationaryEngine, TransientEngine, Waveform,
};
use se_exec::{
    lane_group_count, lane_group_range, run_batch, CancelToken, CheckpointStore, ChunkTask,
    CsvSink, JobBuilder, JobSpec, ProgressSink, Tee, Workers,
};
use se_montecarlo::{MasterEquation, MasterSolveStats, MasterWorkspace, BATCH_MIN_REPLICAS};
use se_netlist::Deck;
use std::fs::File;
use std::io::{BufWriter, Stderr};
use std::path::PathBuf;
use std::sync::Mutex;

/// Substrate settings for deck execution. [`Default`] reproduces the plain
/// [`execute`] behaviour: all cores, automatic chunking, no export, no
/// checkpoint, no progress output.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Worker policy of the shared pool.
    pub workers: Workers,
    /// Explicit chunk size (items per scheduled task); `None` = automatic.
    pub chunk: Option<usize>,
    /// Checkpoint directory: completed chunks are persisted here.
    pub checkpoint: Option<PathBuf>,
    /// With a checkpoint directory: restore completed chunks instead of
    /// recomputing them (the resumed tables are bit-identical).
    pub resume: bool,
    /// Print throttled per-analysis progress lines to stderr.
    pub progress: bool,
    /// Stream results to CSV while running: the base path; analysis 2, 3,…
    /// get `-2`, `-3` suffixes (see [`export_path`]).
    pub csv: Option<String>,
    /// Label prefix for progress lines and checkpoint job ids (defaults to
    /// the deck title).
    pub label: Option<String>,
    /// Cooperative cancellation: when the token fires, workers stop, and a
    /// checkpointed run can later resume from the completed chunks.
    pub cancel: Option<CancelToken>,
    /// Force `.options repeats=` stationary ensembles (`.dc` sweeps and
    /// maps) through the per-seed scalar loop, bypassing the engine's
    /// ensemble routing (which runs lane groups of [`DEFAULT_LANE_WIDTH`]
    /// or more replicas on flat-kernel circuits on the batched lockstep
    /// engine). The batched path is bit-identical by contract; this switch
    /// exists so the determinism gate can *prove* it by diffing the two
    /// executions. Transient ensembles always loop the scalar engine, so
    /// the switch leaves them unchanged.
    pub scalar_ensemble: bool,
    /// Replicas per ensemble lane group (`None` = [`DEFAULT_LANE_WIDTH`]):
    /// each bias point's `repeats` replicas shard into
    /// `ceil(repeats / width)` work items on the shared pool, so an
    /// ensemble spreads across cores instead of running as one serial
    /// batch. Replica `k` is always seeded `derive_seed(point_seed, k)`
    /// whatever the width, and group results recombine in plain replica
    /// order — the published tables are byte-identical across widths (and
    /// across `--jobs` and the scalar fallback).
    pub lane_width: Option<usize>,
}

/// The default ensemble lane width: replicas per lane-group work item —
/// the KMC engine's [`BATCH_MIN_REPLICAS`], the narrowest group it runs on
/// the batched lockstep engine, so a full default group takes the batched
/// route while a 16-replica deck ensemble still splits into two
/// schedulable items.
pub const DEFAULT_LANE_WIDTH: usize = BATCH_MIN_REPLICAS;

/// Length of the warm-start chains master-equation sweeps and maps run: 1,
/// so every bias point is its own work item and cold-starts. Seeding a
/// point with its predecessor's distribution measured more BiCGSTAB
/// iterations than cold starts on the hot `master_map` shape. Callers
/// that chain [`MasterEquation::solve_warm`] themselves and must match a
/// deck's tables bit for bit chain this many points.
///
/// [`MasterEquation::solve_warm`]: se_montecarlo::MasterEquation::solve_warm
pub const MASTER_WARM_BLOCK: usize = 1;

/// Commutative accumulator of per-solve [`MasterSolveStats`]: sums, a max
/// and a name-agreement check only, so concurrent work items merging in
/// any order produce the same aggregate as a serial run.
#[derive(Debug, Default)]
struct SolverAgg {
    solver: Option<&'static str>,
    solves: usize,
    iterations: usize,
    residual_max: f64,
    boundary_mass_max: f64,
}

impl SolverAgg {
    fn record(&mut self, stats: &MasterSolveStats) {
        self.solver = match self.solver {
            None => Some(stats.solver),
            Some(name) if name == stats.solver => Some(name),
            Some(_) => Some("mixed"),
        };
        self.solves += 1;
        self.iterations += stats.iterations;
        if stats.residual > self.residual_max {
            self.residual_max = stats.residual;
        }
        if stats.boundary_mass > self.boundary_mass_max {
            self.boundary_mass_max = stats.boundary_mass;
        }
    }

    fn effort(&self) -> Option<SolverEffort> {
        let solver = self.solver?;
        Some(SolverEffort {
            solver: solver.to_string(),
            solves: self.solves,
            iterations: self.iterations,
            residual_max: self.residual_max,
            boundary_mass_max: self.boundary_mass_max,
        })
    }
}

/// What the points of one master-equation job share: the effort aggregate
/// and the idle solve workspaces. A point takes a workspace (or starts a
/// new one) and puts it back when solved, so a job holds at most one per
/// concurrent worker, and they are freed with the job.
#[derive(Debug, Default)]
struct MasterShared {
    effort: SolverAgg,
    workspaces: Vec<MasterWorkspace>,
}

impl MasterShared {
    /// Solves one bias point on a pooled workspace and records its effort.
    fn solve(
        shared: &Mutex<MasterShared>,
        engine: &MasterEquation,
        bias: &[(ControlId, f64)],
        observables: &[ObservableId],
    ) -> Result<Vec<f64>, SimError> {
        let lock = || shared.lock().expect("master job state mutex poisoned");
        let mut workspace = lock().workspaces.pop().unwrap_or_default();
        let solved = engine.stationary_currents_with(bias, observables, &mut workspace);
        let mut state = lock();
        state.workspaces.push(workspace);
        let (currents, stats) = solved?;
        state.effort.record(&stats);
        Ok(currents)
    }
}

/// Executes a compiled plan against its deck: every analysis runs as one
/// job on the shared chunked worker pool, fanning bias points and traces
/// out across all cores.
///
/// Every run uses the deck seed through the shared SplitMix64 discipline
/// of [`se_exec::JobSpec`], so results are bit-identical to
/// [`execute_serial`] (and to any chunking or resume configuration).
///
/// # Errors
///
/// Propagates backend construction and solve errors.
pub fn execute(deck: &Deck, plan: &SimulationPlan) -> Result<Vec<SimulationResult>, SimError> {
    execute_with_options(deck, plan, &ExecOptions::default())
}

/// Single-threaded [`execute`] (identical results; useful for profiling
/// and determinism tests).
///
/// # Errors
///
/// See [`execute`].
pub fn execute_serial(
    deck: &Deck,
    plan: &SimulationPlan,
) -> Result<Vec<SimulationResult>, SimError> {
    execute_with_options(
        deck,
        plan,
        &ExecOptions {
            workers: Workers::Serial,
            ..ExecOptions::default()
        },
    )
}

/// [`execute`] with full substrate control: workers, chunking, streamed
/// CSV, progress, cancellation and checkpoint/resume.
///
/// # Errors
///
/// Propagates backend construction and solve errors, plus sink/checkpoint
/// I/O failures and cancellation as [`SimError::Exec`].
pub fn execute_with_options(
    deck: &Deck,
    plan: &SimulationPlan,
    options: &ExecOptions,
) -> Result<Vec<SimulationResult>, SimError> {
    let label = options.label.clone().unwrap_or_else(|| plan.title.clone());
    let jobs = prepare_deck(deck, plan, &label, options)?;
    run_prepared(vec![Ok(jobs)], options)
        .pop()
        .expect("one outcome per prepared group")
}

/// Provenance metadata shared by every result of a plan. `solver` is the
/// configured stationary solver of master-equation runs — configuration,
/// not measurement, so it is identical across serial, parallel, chunked
/// and resumed executions (runtime effort lives in
/// [`SimulationResult::solver_effort`] instead).
fn metadata(
    plan: &SimulationPlan,
    run: &PlannedRun,
    engine_name: &str,
    solver: Option<&'static str>,
) -> Vec<(String, String)> {
    let mut metadata = vec![
        ("deck".into(), plan.title.clone()),
        ("engine".into(), engine_name.to_string()),
        ("engine_choice".into(), run.engine.name().to_string()),
        ("rationale".into(), run.rationale.clone()),
        ("temperature_k".into(), format!("{:?}", plan.temperature)),
        ("seed".into(), plan.seed.to_string()),
    ];
    if let Some(solver) = solver {
        metadata.push(("solver".into(), solver.to_string()));
    }
    if let Some(repeats) = plan.repeats {
        metadata.push(("repeats".into(), repeats.to_string()));
    }
    metadata
}

/// The backend-bound form of one planned analysis: resolved handles plus
/// the owned grids the solve closure walks.
enum PreparedKind {
    /// A `.dc` sweep or map: one stationary solve per bias point.
    Stationary {
        backend: StationaryBackend,
        /// The swept controls in application order (a map's outer first).
        controls: Vec<ControlId>,
        observables: Vec<ObservableId>,
        /// `points[p]` holds point `p`'s control values, one per entry of
        /// `controls`; they double as the point's row prefix.
        points: Vec<Vec<f64>>,
    },
    Transient {
        backend: TransientBackend,
        drives: Vec<(ControlId, Waveform)>,
        observables: Vec<ObservableId>,
        times: Vec<f64>,
    },
}

/// One fully prepared run: everything a substrate job needs, owned.
pub(crate) struct PreparedJob {
    kind: PreparedKind,
    /// Table label (the analysis directive).
    pub(crate) result_label: String,
    /// Progress label and checkpoint job id.
    pub(crate) job_label: String,
    pub(crate) columns: Vec<String>,
    pub(crate) metadata: Vec<(String, String)>,
    /// Seed-ensemble size per bias point (`.options repeats=`); `None` =
    /// single-shot rows.
    repeats: Option<usize>,
    /// Route stationary ensembles through the per-seed scalar loop (the
    /// determinism gate's reference execution) instead of the engine's own
    /// ensemble face.
    scalar_ensemble: bool,
    /// Lane groups per point: `ceil(repeats / lane_width)`, 1 when not an
    /// ensemble.
    groups_per_point: usize,
    /// Replicas per lane group (see [`DEFAULT_LANE_WIDTH`]).
    lane_width: usize,
    /// The effort aggregate and solve workspaces of a master-equation
    /// sweep or map (`None` for every other kind of run).
    master: Option<Mutex<MasterShared>>,
    /// The plan seed: every item seeds from `derive_seed(base_seed, point)`,
    /// so replica seeding is independent of the lane width.
    base_seed: u64,
    pub(crate) spec: JobSpec,
    /// Streamed CSV target, if exporting.
    csv_path: Option<String>,
    /// Deck-content fingerprint stamped into checkpoints, so a resume
    /// against an *edited* deck with unchanged geometry is refused.
    fingerprint: u64,
}

impl PreparedKind {
    fn engine_name(&self) -> &'static str {
        match self {
            PreparedKind::Stationary { backend, .. } => backend.engine_name(),
            PreparedKind::Transient { backend, .. } => backend.engine_name(),
        }
    }

    /// Output points: bias points for `.dc`, 1 for a transient (its whole
    /// trace is one work item: time marches serially).
    fn point_count(&self) -> usize {
        match self {
            PreparedKind::Stationary { points, .. } => points.len(),
            PreparedKind::Transient { .. } => 1,
        }
    }
}

impl PreparedJob {
    pub(crate) fn engine_name(&self) -> &'static str {
        self.kind.engine_name()
    }

    /// Solves work item `index`. Without an ensemble an item is one bias
    /// point (one row) for sweeps and maps, the whole trace (all rows) for
    /// transients. With an ensemble (`.options repeats=`) every point
    /// shards into [`Self::groups_per_point`] lane groups — item `index`
    /// is `(point, group) = (index / groups, index % groups)` — and the
    /// item returns the group's **raw replica rows** (no prefix, no
    /// mean/stderr): replica `k` of the point always runs under seed
    /// [`derive_seed`]`(point_seed, k)`, whatever the lane width, and
    /// recombination into published rows happens downstream (the sink's
    /// [`PointCombiner`] and [`Self::assemble`]).
    ///
    /// Every item seeds from its *point*: `point_seed` is
    /// [`derive_seed`]`(base_seed, point)`, which is
    /// [`JobSpec::item_seed`]`(index)` wherever an item is one point.
    pub(crate) fn solve_item(&self, index: usize) -> Result<Vec<Vec<f64>>, SimError> {
        let point = index / self.groups_per_point;
        let group = index % self.groups_per_point;
        let point_seed = derive_seed(self.base_seed, point as u64);
        match &self.kind {
            PreparedKind::Stationary {
                backend,
                controls,
                observables,
                points,
            } => {
                let prefix = &points[point];
                let bias = bias(controls, prefix);
                if self.repeats.is_some() {
                    return self.stationary_group_rows(
                        backend,
                        &bias,
                        observables,
                        point_seed,
                        group,
                    );
                }
                let currents = match (backend, &self.master) {
                    (StationaryBackend::Master(engine), Some(shared)) => {
                        MasterShared::solve(shared, engine.inner(), &bias, observables)?
                    }
                    _ => backend.stationary_currents(&bias, observables, point_seed)?,
                };
                Ok(vec![single_row(prefix, currents)])
            }
            PreparedKind::Transient {
                backend,
                drives,
                observables,
                times,
            } => {
                if self.repeats.is_none() {
                    let trace =
                        backend.transient_currents(drives, observables, times, point_seed)?;
                    return Ok((0..trace.len())
                        .map(|i| single_row(&[trace.times()[i]], trace.row(i).to_vec()))
                        .collect());
                }
                self.transient_group_rows(backend, drives, observables, times, point_seed, group)
            }
        }
    }

    /// The seeds of lane group `group` of a point's ensemble: replica `k`
    /// always gets [`derive_seed`]`(point_seed, k)` — the grouping only
    /// decides *which* replicas an item runs, never how they are seeded.
    fn group_seeds(&self, point_seed: u64, group: usize) -> Vec<u64> {
        let repeats = self
            .repeats
            .expect("grouped solves only exist for ensembles");
        lane_group_range(repeats, self.lane_width, group)
            .map(|k| derive_seed(point_seed, k as u64))
            .collect()
    }

    /// One lane group of a stationary point: the raw per-replica observable
    /// currents, in replica order.
    fn stationary_group_rows(
        &self,
        backend: &StationaryBackend,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        point_seed: u64,
        group: usize,
    ) -> Result<Vec<Vec<f64>>, SimError> {
        let seeds = self.group_seeds(point_seed, group);
        if self.scalar_ensemble {
            seeds
                .iter()
                .map(|&s| backend.stationary_currents(controls, observables, s))
                .collect()
        } else {
            backend.stationary_currents_ensemble(controls, observables, &seeds)
        }
    }

    /// One lane group of a transient ensemble: the raw observable rows of
    /// every replica trace, **replica-major** (`group_size × times.len()`
    /// rows, no time column — the combiner re-attaches it).
    fn transient_group_rows(
        &self,
        backend: &TransientBackend,
        drives: &[(ControlId, Waveform)],
        observables: &[ObservableId],
        times: &[f64],
        point_seed: u64,
        group: usize,
    ) -> Result<Vec<Vec<f64>>, SimError> {
        let seeds = self.group_seeds(point_seed, group);
        let mut rows = Vec::with_capacity(seeds.len() * times.len());
        for &seed in &seeds {
            let trace = backend.transient_currents(drives, observables, times, seed)?;
            for i in 0..times.len() {
                rows.push(trace.row(i).to_vec());
            }
        }
        Ok(rows)
    }

    /// The recombination step matching this job's geometry: `None` for
    /// single-shot runs (items already are published rows).
    fn combiner(&self) -> Option<PointCombiner> {
        self.repeats?;
        Some(match &self.kind {
            PreparedKind::Stationary { points, .. } => PointCombiner::Stationary {
                prefixes: points.clone(),
            },
            PreparedKind::Transient { times, .. } => PointCombiner::Transient {
                times: times.clone(),
            },
        })
    }

    pub(crate) fn assemble(&self, blocks: Vec<Vec<Vec<f64>>>) -> SimulationResult {
        let rows: Vec<Vec<f64>> = match self.combiner() {
            None => blocks.into_iter().flatten().collect(),
            Some(combiner) => blocks
                .chunks(self.groups_per_point)
                .enumerate()
                .flat_map(|(point, group_blocks)| {
                    let replica_rows: Vec<Vec<f64>> =
                        group_blocks.iter().flatten().cloned().collect();
                    combiner.combine(point, &replica_rows)
                })
                .collect(),
        };
        let result = SimulationResult::new(
            self.result_label.clone(),
            self.engine_name(),
            self.columns.clone(),
            rows,
            self.metadata.clone(),
        );
        match self.master.as_ref().and_then(|shared| {
            shared
                .lock()
                .expect("master job state mutex poisoned")
                .effort
                .effort()
        }) {
            Some(effort) => result.with_solver_effort(effort),
            None => result,
        }
    }
}

/// One point's bias: each swept control paired with its value.
fn bias(controls: &[ControlId], values: &[f64]) -> Vec<(ControlId, f64)> {
    controls
        .iter()
        .copied()
        .zip(values.iter().copied())
        .collect()
}

/// Prefix + currents, one published single-shot row.
fn single_row(prefix: &[f64], currents: Vec<f64>) -> Vec<f64> {
    let mut row = Vec::with_capacity(prefix.len() + currents.len());
    row.extend_from_slice(prefix);
    row.extend(currents);
    row
}

/// Recombines one point's raw replica rows (its lane-group items
/// concatenated in group order — which *is* plain replica order, see
/// [`se_exec::lane_group_range`]) into the published mean/stderr rows.
/// Summation always walks replicas `0..repeats` in order, so the published
/// tables are byte-identical across lane widths, worker counts and the
/// scalar fallback.
pub(crate) enum PointCombiner {
    /// One output row per point: the point's bias prefix + mean/stderr
    /// pairs over the replica rows.
    Stationary { prefixes: Vec<Vec<f64>> },
    /// `times.len()` output rows per point from replica-major raw rows:
    /// each output row is its time + mean/stderr pairs across replicas.
    Transient { times: Vec<f64> },
}

impl PointCombiner {
    fn combine(&self, point: usize, replica_rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        match self {
            PointCombiner::Stationary { prefixes } => {
                let rows: Vec<&[f64]> = replica_rows.iter().map(Vec::as_slice).collect();
                vec![ensemble_row(&prefixes[point], &rows)]
            }
            PointCombiner::Transient { times } => {
                // Replica r occupies rows [r*T, (r+1)*T); time i of every
                // replica sits at stride T.
                let t_count = times.len();
                (0..t_count)
                    .map(|i| {
                        let rows: Vec<&[f64]> = replica_rows
                            .iter()
                            .skip(i)
                            .step_by(t_count)
                            .map(Vec::as_slice)
                            .collect();
                        ensemble_row(&[times[i]], &rows)
                    })
                    .collect()
            }
        }
    }
}

/// Binds every planned run of a deck to its backend and grids.
pub(crate) fn prepare_deck(
    deck: &Deck,
    plan: &SimulationPlan,
    label: &str,
    options: &ExecOptions,
) -> Result<Vec<PreparedJob>, SimError> {
    // Only checkpointed runs consume the fingerprint; keep the deck
    // serialization + hash off the hot (un-checkpointed) pipeline.
    let fingerprint = if options.checkpoint.is_some() {
        se_exec::content_fingerprint(&deck.to_deck_string())
    } else {
        0
    };
    plan.runs
        .iter()
        .enumerate()
        .map(|(index, run)| prepare_run(deck, plan, run, index, label, fingerprint, options))
        .collect()
}

fn prepare_run(
    deck: &Deck,
    plan: &SimulationPlan,
    run: &PlannedRun,
    run_index: usize,
    label: &str,
    fingerprint: u64,
    options: &ExecOptions,
) -> Result<PreparedJob, SimError> {
    // A sweep gives 1-value points; a map, the outer-major
    // `outer × inner` product.
    let (kind, mut columns) = match &run.analysis {
        PlannedAnalysis::Sweep { control, values } => prepare_stationary(
            deck,
            run,
            &[control],
            values.iter().map(|&value| vec![value]).collect(),
        )?,
        PlannedAnalysis::Map {
            outer_control,
            outer_values,
            inner_control,
            inner_values,
        } => prepare_stationary(
            deck,
            run,
            &[outer_control, inner_control],
            outer_values
                .iter()
                .flat_map(|&outer| inner_values.iter().map(move |&inner| vec![outer, inner]))
                .collect(),
        )?,
        PlannedAnalysis::Transient { step, times } => {
            let backend = build_transient(&deck.netlist, &deck.options, run.engine, *step)?;
            let drives: Vec<(ControlId, Waveform)> = deck
                .waveforms
                .iter()
                .map(|(name, waveform)| Ok((backend.resolve_drive(name)?, waveform.clone())))
                .collect::<Result<_, SimError>>()?;
            let observables: Vec<ObservableId> = run
                .observables
                .iter()
                .map(|name| backend.resolve_observable(name))
                .collect::<Result<_, _>>()?;
            (
                PreparedKind::Transient {
                    backend,
                    drives,
                    observables,
                    times: times.clone(),
                },
                vec!["t".to_string()],
            )
        }
    };
    columns.extend(current_columns(&run.observables, plan.repeats.is_some()));
    let points = kind.point_count();
    let lane_width = options.lane_width.unwrap_or(DEFAULT_LANE_WIDTH).max(1);
    // An ensemble fans every point out into lane groups; the substrate
    // geometry (and thus checkpoints and traces) is lane-width-bound.
    let groups_per_point = plan
        .repeats
        .map_or(1, |repeats| lane_group_count(repeats, lane_width).max(1));
    let solver = match &kind {
        PreparedKind::Stationary {
            backend: StationaryBackend::Master(engine),
            ..
        } => Some(engine.inner().solver().solver_name()),
        _ => None,
    };
    let mut spec = JobSpec::new(points * groups_per_point).with_seed(plan.seed);
    if let Some(chunk) = options.chunk {
        spec = spec.with_chunk(chunk);
    }
    Ok(PreparedJob {
        metadata: metadata(plan, run, kind.engine_name(), solver),
        result_label: run.label.clone(),
        job_label: format!("{label}/{}", run.label),
        columns,
        repeats: plan.repeats,
        scalar_ensemble: options.scalar_ensemble,
        groups_per_point,
        lane_width,
        // The planner rejects `repeats=` for deterministic engines, so a
        // master job's items are always single points.
        master: solver.map(|_| Mutex::default()),
        base_seed: plan.seed,
        spec,
        csv_path: options
            .csv
            .as_ref()
            .map(|base| export_path(base, run_index)),
        fingerprint,
        kind,
    })
}

/// Binds a `.dc` analysis to its stationary backend: resolves the swept
/// controls (`names`, in application order) and the observables, and
/// returns the prepared kind with the table's prefix columns.
fn prepare_stationary(
    deck: &Deck,
    run: &PlannedRun,
    names: &[&String],
    points: Vec<Vec<f64>>,
) -> Result<(PreparedKind, Vec<String>), SimError> {
    let backend = build_stationary(&deck.netlist, &deck.options, run.engine)?;
    let controls = names
        .iter()
        .map(|name| backend.resolve_control(name))
        .collect::<Result<_, _>>()?;
    let observables = run
        .observables
        .iter()
        .map(|name| backend.resolve_observable(name))
        .collect::<Result<_, _>>()?;
    let kind = PreparedKind::Stationary {
        backend,
        controls,
        observables,
        points,
    };
    Ok((kind, names.iter().map(|&name| name.clone()).collect()))
}

/// The streamed CSV export of one job.
///
/// The file is created (and truncated) only when the first row is emitted
/// — i.e. after every checkpoint of the batch has been opened and
/// validated and this job has actually produced data — so a run that fails
/// before emitting (a checkpoint geometry mismatch, a sibling analysis
/// failing to bind) never destroys a previous successful export.
///
/// Ensemble items are recombined into published rows on the way. Items
/// arrive in strict index order (the substrate's sink contract), so a
/// point's lane groups are consecutive: buffer the raw replica rows, and on
/// the point's last group emit one combined item under the *point* index.
/// Only the CSV stream recombines — progress counts and replay traces stay
/// at raw sharded-item granularity.
struct CsvExportSink {
    path: String,
    columns: Vec<String>,
    writer: Option<CsvSink<BufWriter<File>>>,
    groups_per_point: usize,
    /// `None` for single-shot runs: items pass through untouched.
    combiner: Option<PointCombiner>,
    /// Raw replica rows of the point currently being assembled.
    buffer: Vec<Vec<f64>>,
}

impl CsvExportSink {
    /// Opens the file and writes the header on first use.
    fn open(&mut self) -> std::io::Result<&mut CsvSink<BufWriter<File>>> {
        if self.writer.is_none() {
            let file = File::create(&self.path).map_err(|e| {
                std::io::Error::new(
                    e.kind(),
                    format!("cannot create CSV export `{}`: {e}", self.path),
                )
            })?;
            let mut sink = CsvSink::new(BufWriter::new(file), self.columns.clone());
            se_exec::ResultSink::<Vec<Vec<f64>>>::start(&mut sink, &JobSpec::new(0))?;
            self.writer = Some(sink);
        }
        Ok(self.writer.as_mut().expect("just opened"))
    }
}

impl se_exec::ResultSink<Vec<Vec<f64>>> for CsvExportSink {
    fn item(&mut self, index: usize, item: &Vec<Vec<f64>>) -> std::io::Result<()> {
        let Some(combiner) = &self.combiner else {
            return self.open()?.item(index, item);
        };
        self.buffer.extend(item.iter().cloned());
        if !(index + 1).is_multiple_of(self.groups_per_point) {
            return Ok(());
        }
        let point = index / self.groups_per_point;
        let combined = combiner.combine(point, &self.buffer);
        self.buffer.clear();
        self.open()?.item(point, &combined)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        se_exec::ResultSink::<Vec<Vec<f64>>>::flush(&mut self.writer)
    }

    fn finish(&mut self, report: &se_exec::Report) -> std::io::Result<()> {
        // Zero-item jobs still deliver a header-only CSV.
        self.open()?;
        se_exec::ResultSink::<Vec<Vec<f64>>>::finish(&mut self.writer, report)
    }
}

/// The per-job sink stack: optional streamed CSV (recombined to published
/// rows) plus optional progress (raw item counts).
type RunSink = Tee<Option<CsvExportSink>, Option<ProgressSink<Stderr>>>;

fn make_sink(prep: &PreparedJob, options: &ExecOptions) -> RunSink {
    let csv = prep.csv_path.as_ref().map(|path| CsvExportSink {
        path: path.clone(),
        columns: prep.columns.clone(),
        writer: None,
        groups_per_point: prep.groups_per_point,
        combiner: prep.combiner(),
        buffer: Vec::new(),
    });
    let progress = options
        .progress
        .then(|| ProgressSink::stderr(prep.job_label.clone()));
    Tee(csv, progress)
}

/// Runs any number of prepared groups (one per deck) through **one**
/// shared worker pool and assembles per-group results. Group-level
/// failures (a compile error carried in, a sink that cannot be created, a
/// failing solve) stay contained to their group.
pub(crate) fn run_prepared(
    groups: Vec<Result<Vec<PreparedJob>, SimError>>,
    options: &ExecOptions,
) -> Vec<Result<Vec<SimulationResult>, SimError>> {
    let store = options.checkpoint.as_ref().map(CheckpointStore::new);
    let cancel = options.cancel.clone().unwrap_or_default();

    // Build every sink (lazy: no file is touched yet), then every job; a
    // failure poisons its whole group.
    let mut outcomes: Vec<Option<SimError>> = Vec::with_capacity(groups.len());
    let mut sinks: Vec<Vec<RunSink>> = Vec::with_capacity(groups.len());
    let prepared: Vec<Vec<PreparedJob>> = groups
        .into_iter()
        .map(|group| match group {
            Ok(preps) => {
                sinks.push(preps.iter().map(|prep| make_sink(prep, options)).collect());
                outcomes.push(None);
                preps
            }
            Err(e) => {
                outcomes.push(Some(e));
                sinks.push(Vec::new());
                Vec::new()
            }
        })
        .collect();

    // No two jobs may stream to the same export file: concurrent writers
    // would silently corrupt it. Poison every group involved in a clash
    // (adversarial deck names can collide across decks despite the batch
    // layer's unique naming).
    let mut csv_owners: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    let mut clashing: Vec<usize> = Vec::new();
    for (group_index, preps) in prepared.iter().enumerate() {
        for prep in preps {
            if let Some(path) = &prep.csv_path {
                if let Some(&owner) = csv_owners.get(path.as_str()) {
                    clashing.push(owner);
                    clashing.push(group_index);
                } else {
                    csv_owners.insert(path, group_index);
                }
            }
        }
    }
    for group_index in clashing {
        if outcomes[group_index].is_none() {
            outcomes[group_index] = Some(SimError::Exec(
                "CSV export paths collide between analyses/decks — rename the decks or \
                 choose a different export base"
                    .into(),
            ));
        }
    }

    // Bind jobs: (group index, job) pairs over borrowed sinks and preps.
    // The first build failure poisons the group and stops binding its
    // remaining runs (their side effects — checkpoint wipes — are skipped).
    // Note: a *solver* failure deliberately does NOT stop the group's other
    // jobs mid-run — which error surfaces must never depend on thread
    // scheduling, so every claimed chunk computes (see
    // `se_exec::Job::run_pending`); the wasted work only occurs on the
    // failure path.
    let mut jobs = Vec::new();
    for ((group_index, preps), group_sinks) in prepared.iter().enumerate().zip(sinks.iter_mut()) {
        if outcomes[group_index].is_some() {
            continue;
        }
        for (prep, sink) in preps.iter().zip(group_sinks.iter_mut()) {
            let mut builder = JobBuilder::new(prep.spec)
                .label(prep.job_label.clone())
                .collect();
            if let Some(store) = &store {
                builder = builder
                    .checkpoint(store, &prep.job_label, options.resume)
                    .fingerprint(prep.fingerprint);
            }
            match builder.build(sink, |index, _| prep.solve_item(index)) {
                Ok(job) => jobs.push((group_index, job)),
                Err(e) => {
                    outcomes[group_index] = Some(SimError::from(e));
                    break;
                }
            }
        }
    }
    // Drop jobs of groups poisoned mid-bind (an earlier sibling built but
    // the group can never complete): running them would waste work, and
    // their lazy sinks never having started means no export was touched.
    jobs.retain(|(group_index, _)| outcomes[*group_index].is_none());

    let tasks: Vec<&dyn ChunkTask> = jobs.iter().map(|(_, job)| job as &dyn ChunkTask).collect();
    run_batch(&tasks, options.workers, &cancel);
    drop(tasks);

    // Finish jobs in order, assembling per-group tables.
    let mut results: Vec<Vec<SimulationResult>> = prepared.iter().map(|_| Vec::new()).collect();
    let mut job_cursor: Vec<usize> = vec![0; prepared.len()];
    for (group_index, job) in jobs {
        let prep_index = job_cursor[group_index];
        job_cursor[group_index] += 1;
        match job.finish() {
            Ok((blocks, _report)) => {
                results[group_index].push(prepared[group_index][prep_index].assemble(blocks));
            }
            Err(e) => {
                if outcomes[group_index].is_none() {
                    outcomes[group_index] = Some(SimError::from(e));
                }
            }
        }
    }

    outcomes
        .into_iter()
        .zip(results)
        .map(|(failure, tables)| match failure {
            Some(e) => Err(e),
            None => Ok(tables),
        })
        .collect()
}

/// Column names of the observable currents: `I(J1)`, `I(VD)`, … For an
/// ensemble run every observable becomes a mean/stderr pair:
/// `I(J1)`, `stderr(I(J1))`, …
fn current_columns(observables: &[String], ensemble: bool) -> Vec<String> {
    observables
        .iter()
        .flat_map(|name| {
            let mut pair = vec![format!("I({name})")];
            if ensemble {
                pair.push(format!("stderr(I({name}))"));
            }
            pair
        })
        .collect()
}

/// Builds one ensemble output row: the bias/time prefix followed by the
/// mean and standard error of each observable over the replica rows.
fn ensemble_row(prefix: &[f64], rows: &[&[f64]]) -> Vec<f64> {
    let width = rows.first().map_or(0, |row| row.len());
    let mut out = Vec::with_capacity(prefix.len() + 2 * width);
    out.extend_from_slice(prefix);
    for k in 0..width {
        let (mean, stderr) = mean_stderr(rows.iter().map(|row| row[k]));
        out.push(mean);
        out.push(stderr);
    }
    out
}

/// Sample mean and standard error of the mean (zero for one sample, where
/// the sample variance is undefined).
fn mean_stderr(samples: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = samples.clone().count();
    let mean = samples.clone().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let variance = samples.map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    (mean, (variance / n as f64).sqrt())
}

/// Splices a `-suffix` into an export path's file name, before the
/// extension: `runs.v1/out.csv` + `2` → `runs.v1/out-2.csv`. Only the
/// file name is rewritten — dots in directory components are left alone.
/// The one splicing rule behind [`export_path`] and
/// [`crate::batch::deck_export_base`].
pub(crate) fn splice_export_suffix(base: &str, suffix: &str) -> String {
    let (dir, file) = match base.rsplit_once('/') {
        Some((dir, file)) => (Some(dir), file),
        None => (None, base),
    };
    let renamed = match file.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{suffix}.{ext}"),
        _ => format!("{file}-{suffix}"),
    };
    match dir {
        Some(dir) => format!("{dir}/{renamed}"),
        None => renamed,
    }
}

/// Splices an analysis index into an export path: `out.csv` → `out-2.csv`
/// for the second analysis (the first keeps the bare name).
#[must_use]
pub fn export_path(base: &str, index: usize) -> String {
    if index == 0 {
        return base.to_string();
    }
    splice_export_suffix(base, &(index + 1).to_string())
}

#[cfg(test)]
mod tests {
    use super::{ensemble_row, export_path, mean_stderr, PointCombiner};

    #[test]
    fn mean_stderr_matches_hand_computation() {
        let (mean, stderr) = mean_stderr([1.0, 2.0, 3.0, 4.0].into_iter());
        assert!((mean - 2.5).abs() < 1e-15);
        // Sample variance 5/3; stderr = sqrt(5/3/4).
        assert!((stderr - (5.0 / 12.0_f64).sqrt()).abs() < 1e-15, "{stderr}");
        // One sample: the variance is undefined, the stderr reports 0.
        assert_eq!(mean_stderr(std::iter::once(7.5)), (7.5, 0.0));
    }

    #[test]
    fn ensemble_rows_interleave_mean_and_stderr_pairs() {
        let rows: Vec<&[f64]> = vec![&[1.0, 10.0], &[3.0, 10.0]];
        let row = ensemble_row(&[0.5], &rows);
        assert_eq!(row.len(), 5);
        assert_eq!(row[0], 0.5);
        assert_eq!(row[1], 2.0); // mean of observable 0
        assert!(row[2] > 0.0); // its stderr
        assert_eq!(row[3], 10.0); // mean of observable 1
        assert_eq!(row[4], 0.0); // identical replicas → zero stderr
    }

    #[test]
    fn lane_group_seeds_are_width_independent() {
        // Replica k of a point always gets derive_seed(point_seed, k):
        // the concatenated group seed lists must match the plain replica
        // list for every width.
        let point_seed = 42u64;
        let repeats = 7usize;
        let flat: Vec<u64> = (0..repeats as u64)
            .map(|k| se_engine::derive_seed(point_seed, k))
            .collect();
        for width in [1usize, 2, 3, 7, 8, 16] {
            let grouped: Vec<u64> = (0..se_exec::lane_group_count(repeats, width))
                .flat_map(|group| {
                    se_exec::lane_group_range(repeats, width, group)
                        .map(|k| se_engine::derive_seed(point_seed, k as u64))
                })
                .collect();
            assert_eq!(grouped, flat, "width={width}");
        }
        // Distinct replicas must draw distinct randomness.
        assert!(flat.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn transient_combiner_reassembles_replica_major_rows() {
        // Two replicas × three times, one observable; replica-major raw
        // rows as transient_group_rows emits them.
        let combiner = PointCombiner::Transient {
            times: vec![0.0, 1.0, 2.0],
        };
        let raw: Vec<Vec<f64>> = vec![
            vec![10.0], // replica 0, t0
            vec![20.0], // replica 0, t1
            vec![30.0], // replica 0, t2
            vec![14.0], // replica 1, t0
            vec![20.0], // replica 1, t1
            vec![26.0], // replica 1, t2
        ];
        let rows = combiner.combine(0, &raw);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], 0.0); // time prefix restored
        assert_eq!(rows[0][1], 12.0); // mean over replicas at t0
        assert_eq!(rows[1][1], 20.0);
        assert_eq!(rows[1][2], 0.0); // identical replicas → zero stderr
        assert_eq!(rows[2][1], 28.0);
    }

    #[test]
    fn export_paths_suffix_only_the_file_name() {
        assert_eq!(export_path("out.csv", 0), "out.csv");
        assert_eq!(export_path("out.csv", 1), "out-2.csv");
        assert_eq!(export_path("out", 2), "out-3");
        // A dot in a directory component must not be split.
        assert_eq!(export_path("runs.v1/out", 1), "runs.v1/out-2");
        assert_eq!(export_path("runs.v1/out.csv", 1), "runs.v1/out-2.csv");
        // Hidden files keep their leading dot.
        assert_eq!(export_path(".hidden", 1), ".hidden-2");
    }
}
