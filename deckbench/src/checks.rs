//! Output checks: each one fails on a wrong answer, not only on a crash.
//! A failed check counts the bias points it covers as failed.

use crate::decks::Workload;
use crate::replica::electrode;
use se_engine::{ControlId, ObservableId, StationaryEngine};
use se_montecarlo::{resolve_junction, tunnel_system_from_netlist, MasterEquation};
use se_netlist::{AnalysisOptions, Deck, Netlist};
use se_sim::{PlannedAnalysis, SimulationPlan, SimulationResult};

/// Ensemble means must lie within this many standard errors of the
/// master-equation current…
const ENSEMBLE_SIGMAS: f64 = 4.0;
/// …plus this share of the sweep's peak master current, which covers
/// points where sixteen replicas underestimate their own spread.
const ENSEMBLE_FLOOR: f64 = 0.02;
/// First and last junction of a master-equation map carry the same
/// current up to the solver's convergence: relative to the map's peak.
const CONSERVATION_TOLERANCE: f64 = 1e-9;

/// A workload's output check, with any reference answer precomputed.
pub struct Checker {
    workload: Workload,
    /// Master-equation currents per point and observable (ensemble only).
    reference: Vec<Vec<f64>>,
}

/// Bias points of a planned stationary analysis.
pub fn point_count(plan: &SimulationPlan) -> usize {
    plan.runs
        .iter()
        .map(|run| match &run.analysis {
            PlannedAnalysis::Sweep { values, .. } => values.len(),
            PlannedAnalysis::Map {
                outer_values,
                inner_values,
                ..
            } => outer_values.len() * inner_values.len(),
            PlannedAnalysis::Transient { .. } => 1,
        })
        .sum()
}

impl Checker {
    /// Prepares the check of `workload`'s deck.
    pub fn new(workload: Workload, deck: &Deck, plan: &SimulationPlan) -> Result<Self, String> {
        let reference = match (workload, &plan.runs[..]) {
            (Workload::SmallEnsemble, [run]) => match &run.analysis {
                PlannedAnalysis::Sweep { control, values } => master_reference(
                    &deck.netlist,
                    &deck.options,
                    control,
                    values,
                    &run.observables,
                )?,
                _ => return Err("the ensemble deck must be a 1-D sweep".into()),
            },
            (Workload::SmallEnsemble, _) => {
                return Err("the ensemble deck must have one analysis".into())
            }
            _ => Vec::new(),
        };
        Ok(Checker {
            workload,
            reference,
        })
    }

    /// Number of bias points whose published values fail the check.
    pub fn failed_points(&self, results: &[SimulationResult]) -> usize {
        results.iter().map(|table| self.failed_in(table)).sum()
    }

    fn failed_in(&self, table: &SimulationResult) -> usize {
        let rows = table.rows();
        let finite = |row: &Vec<f64>| row.iter().all(|v| v.is_finite());
        let mut failed: Vec<bool> = rows.iter().map(|row| !finite(row)).collect();
        match self.workload {
            Workload::ArrayBg | Workload::ChainTransport => {
                // Columns: VD, then one current per probed junction, every
                // probe oriented drain → ground. The top bias point must
                // carry net current in the direction VD drives it.
                if let Some(top) = rows.last() {
                    let drive = top[0];
                    let total: f64 = top[1..].iter().sum();
                    if !(total * drive > 0.0) {
                        *failed.last_mut().expect("rows is non-empty") = true;
                    }
                }
            }
            Workload::SmallEnsemble => {
                // Columns: VD, then (mean, stderr) per observable.
                if rows.len() != self.reference.len() {
                    return rows.len().max(self.reference.len());
                }
                let observables = self.reference.first().map_or(0, Vec::len);
                let peaks: Vec<f64> = (0..observables)
                    .map(|k| {
                        self.reference
                            .iter()
                            .map(|r| r[k].abs())
                            .fold(0.0, f64::max)
                    })
                    .collect();
                for ((row, expected), bad) in rows.iter().zip(&self.reference).zip(&mut failed) {
                    for k in 0..observables {
                        let (mean, stderr) = (row[1 + 2 * k], row[2 + 2 * k]);
                        let allowed = ENSEMBLE_SIGMAS * stderr + ENSEMBLE_FLOOR * peaks[k];
                        if !((mean - expected[k]).abs() <= allowed) {
                            *bad = true;
                        }
                    }
                }
            }
            Workload::MasterMap => {
                // Columns: VG, VD, I(first junction), I(last junction).
                let peak = rows
                    .iter()
                    .flat_map(|row| row[2..].iter().map(|v| v.abs()))
                    .fold(0.0, f64::max);
                for (row, bad) in rows.iter().zip(&mut failed) {
                    let (first, last) = (row[2], row[row.len() - 1]);
                    if !((first - last).abs() <= CONSERVATION_TOLERANCE * peak) {
                        *bad = true;
                    }
                }
            }
        }
        failed.into_iter().filter(|&bad| bad).count()
    }
}

/// The master-equation stationary currents of `netlist` at each sweep
/// value of `control`, for `observables` — the reference the ensemble
/// check compares KMC means against.
fn master_reference(
    netlist: &Netlist,
    options: &AnalysisOptions,
    control: &str,
    values: &[f64],
    observables: &[String],
) -> Result<Vec<Vec<f64>>, String> {
    let system = tunnel_system_from_netlist(netlist).map_err(|e| e.to_string())?;
    let e = electrode(netlist, &system, control)?;
    let handles: Vec<ObservableId> = observables
        .iter()
        .map(|name| resolve_junction(&system, name).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let master = MasterEquation::new(system, options.temperature).map_err(|e| e.to_string())?;
    values
        .iter()
        .map(|&v| {
            master
                .stationary_currents(&[(ControlId(e), v)], &handles, 0)
                .map_err(|e| e.to_string())
        })
        .collect()
}
