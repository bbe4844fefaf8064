//! [`StationaryEngine`] implementations for the two detailed simulators,
//! plus the shared electrode/junction name resolver.
//!
//! Both the deterministic master-equation solver and the stochastic kinetic
//! Monte-Carlo engine answer the same question — "what stationary current
//! flows through this junction at this bias point?" — so both implement the
//! unified trait and are driven by the same parallel
//! [`se_engine::SweepRunner`]. The kinetic engine derives all of its
//! randomness from the per-point seed handed in by the runner, which is
//! what makes parallel KMC sweeps bit-identical to serial ones.

use crate::batched::{batch_serves, BatchedKmcEngine};
use crate::error::MonteCarloError;
use crate::kmc::{MonteCarloSimulator, SimulationOptions};
use crate::master::{MasterEquation, MasterSolveStats, MasterWorkspace};
use se_engine::{
    ControlId, ObservableId, StationaryEngine, TransientEngine, TransientTrace, Waveform,
};
use se_orthodox::TunnelSystem;
use se_units::constants::E;

/// Least replicas a stationary ensemble group needs to run on the
/// [`BatchedKmcEngine`]. Narrower groups loop the scalar engine: measured
/// with `sesim --serial` on a 4-island chain ensemble (2-vCPU AVX-512 Xeon
/// host), 4–7-lane batches ran 1.4–1.5× slower than scalar replicas, and
/// 8- and 16-lane batches 1.6× and 1.9× faster.
pub const BATCH_MIN_REPLICAS: usize = 8;

/// The stationary ensemble routing rule: a group of `replicas` runs
/// batched only when it has at least [`BATCH_MIN_REPLICAS`] replicas and
/// the circuit is one the batched engine serves (flat kernel, at most 64
/// events; on the tree kernel the scalar walk measured faster). Every
/// replica is bit-identical to its scalar walk either way, so the rule
/// decides speed only.
fn runs_batched(system: &TunnelSystem, options: &SimulationOptions, replicas: usize) -> bool {
    replicas >= BATCH_MIN_REPLICAS && batch_serves(options.kernel, system.event_count())
}

/// Resolves an external electrode name to its typed index.
///
/// This is the single resolver used by every sweep helper and trait
/// implementation in this crate (it used to be copy-pasted three times).
///
/// # Errors
///
/// Returns [`MonteCarloError::InvalidArgument`] if no electrode has that
/// name.
pub fn resolve_electrode(system: &TunnelSystem, name: &str) -> Result<ControlId, MonteCarloError> {
    system
        .external_index(name)
        .map(ControlId)
        .ok_or_else(|| MonteCarloError::InvalidArgument(format!("no electrode named `{name}`")))
}

/// Resolves a junction name to its typed index.
///
/// # Errors
///
/// Returns [`MonteCarloError::InvalidArgument`] if no junction has that
/// name.
pub fn resolve_junction(
    system: &TunnelSystem,
    name: &str,
) -> Result<ObservableId, MonteCarloError> {
    system
        .junctions()
        .iter()
        .position(|j| j.name == name)
        .map(ObservableId)
        .ok_or_else(|| MonteCarloError::InvalidArgument(format!("no junction named `{name}`")))
}

/// Applies control values to a copy of the system's electrodes.
fn apply_controls(
    system: &mut TunnelSystem,
    controls: &[(ControlId, f64)],
) -> Result<(), MonteCarloError> {
    for &(ControlId(electrode), value) in controls {
        system.set_external_voltage(electrode, value)?;
    }
    Ok(())
}

/// Reads the requested junction currents out of a name-keyed lookup.
fn collect_observables(
    system: &TunnelSystem,
    observables: &[ObservableId],
    current_of: impl Fn(&str) -> Option<f64>,
) -> Result<Vec<f64>, MonteCarloError> {
    observables
        .iter()
        .map(|&ObservableId(index)| {
            let junction = system.junctions().get(index).ok_or_else(|| {
                MonteCarloError::InvalidArgument(format!("unknown junction handle {index}"))
            })?;
            current_of(&junction.name).ok_or_else(|| {
                MonteCarloError::InvalidArgument(format!(
                    "no current recorded for junction `{}`",
                    junction.name
                ))
            })
        })
        .collect()
}

impl MasterEquation {
    /// [`StationaryEngine::stationary_currents`] over a caller-owned
    /// [`MasterWorkspace`], returning the solve's [`MasterSolveStats`]
    /// alongside the currents. A sweep layer that keeps one workspace per
    /// job allocates the per-point buffers once; the currents are
    /// bit-identical to a fresh workspace's.
    ///
    /// # Errors
    ///
    /// As [`StationaryEngine::stationary_currents`].
    pub fn stationary_currents_with(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        workspace: &mut MasterWorkspace,
    ) -> Result<(Vec<f64>, MasterSolveStats), MonteCarloError> {
        // Only clone when a control value actually has to be applied; the
        // hybrid co-simulator's hot loop solves with the bias already baked
        // into the system.
        let solution = if controls.is_empty() {
            self.solve_with(None, workspace)?
        } else {
            let mut solver = self.clone();
            apply_controls(solver.system_mut(), controls)?;
            solver.solve_with(None, workspace)?
        };
        let currents = collect_observables(self.system(), observables, |name| {
            solution.junction_current(name)
        })?;
        Ok((currents, *solution.stats()))
    }
}

impl StationaryEngine for MasterEquation {
    type Error = MonteCarloError;

    fn engine_name(&self) -> &'static str {
        "master-equation"
    }

    fn resolve_control(&self, name: &str) -> Result<ControlId, MonteCarloError> {
        resolve_electrode(self.system(), name)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, MonteCarloError> {
        resolve_junction(self.system(), name)
    }

    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        _seed: u64,
    ) -> Result<Vec<f64>, MonteCarloError> {
        self.stationary_currents_with(controls, observables, &mut MasterWorkspace::new())
            .map(|(currents, _)| currents)
    }
}

impl StationaryEngine for MonteCarloSimulator {
    type Error = MonteCarloError;

    fn engine_name(&self) -> &'static str {
        "kinetic-monte-carlo"
    }

    fn resolve_control(&self, name: &str) -> Result<ControlId, MonteCarloError> {
        resolve_electrode(self.system(), name)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, MonteCarloError> {
        resolve_junction(self.system(), name)
    }

    /// One stationary solve = a fresh simulator seeded with `seed`, the
    /// configured equilibration, and
    /// [`SimulationOptions::events_per_solve`] measurement events. The
    /// simulator's own RNG state is untouched, so trait-driven sweeps never
    /// perturb an ongoing time-domain run. The per-solve system clone is
    /// O(islands): it shares the build-time tables (`C_II⁻¹`, response
    /// columns, coupling lists) and copies only the electrode voltages and
    /// background charges the controls overwrite.
    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seed: u64,
    ) -> Result<Vec<f64>, MonteCarloError> {
        let mut system = self.system().clone();
        apply_controls(&mut system, controls)?;
        let options = SimulationOptions {
            seed: Some(seed),
            ..*self.options()
        };
        let mut simulator = MonteCarloSimulator::new(system, options)?;
        let result = simulator.run_events(options.events_per_solve)?;
        collect_observables(simulator.system(), observables, |name| {
            result.junction_current(name)
        })
    }

    /// A seed ensemble at one bias point that passes the routing rule
    /// (`BATCH_MIN_REPLICAS` replicas or more on a flat-kernel circuit)
    /// runs through the [`BatchedKmcEngine`]: all replicas step in lockstep
    /// over SoA-packed state, sharing one warm pass over the junction
    /// tables per round. Any other ensemble loops
    /// [`Self::stationary_currents`]. Replica `k` is bit-identical to
    /// [`Self::stationary_currents`] with `seeds[k]` on both routes.
    fn stationary_currents_ensemble(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seeds: &[u64],
    ) -> Result<Vec<Vec<f64>>, MonteCarloError> {
        if !runs_batched(self.system(), self.options(), seeds.len()) {
            return seeds
                .iter()
                .map(|&seed| self.stationary_currents(controls, observables, seed))
                .collect();
        }
        let mut system = self.system().clone();
        apply_controls(&mut system, controls)?;
        let options = *self.options();
        let mut batch = BatchedKmcEngine::new(system, options, seeds)?;
        let results = batch.run_events_all(options.events_per_solve)?;
        results
            .iter()
            .map(|result| {
                collect_observables(batch.system(), observables, |name| {
                    result.junction_current(name)
                })
            })
            .collect()
    }
}

/// The kinetic Monte-Carlo event clock as a [`TransientEngine`].
///
/// Drives are external electrodes, observables are junctions. A run clones
/// the system, seeds a fresh simulator with the per-run seed, equilibrates
/// at the `t = 0` drive values, then alternates zero-order-hold voltage
/// updates with [`MonteCarloSimulator::run_until`] calls: the drives are
/// evaluated at each sample time `t` and held over the window
/// `(t_prev, t]` (the backward-Euler convention, so a step aligned with a
/// sample boundary acts in the same window as in the SPICE backend).
///
/// Sample `k` reports the **window-averaged** conventional current of each
/// junction over `(t_prev, t]` — net tunnelled charge divided by the
/// window — which is the physically meaningful current observable of a
/// discrete-event simulator; a sample at exactly `t = 0` reports zero. The
/// shared simulator is never mutated, so concurrent ensemble runs off one
/// engine value are safe and bit-reproducible.
impl TransientEngine for MonteCarloSimulator {
    type Error = MonteCarloError;

    fn engine_name(&self) -> &'static str {
        "kinetic-monte-carlo"
    }

    fn resolve_drive(&self, name: &str) -> Result<ControlId, MonteCarloError> {
        resolve_electrode(self.system(), name)
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, MonteCarloError> {
        resolve_junction(self.system(), name)
    }

    fn transient_currents(
        &self,
        drives: &[(ControlId, Waveform)],
        observables: &[ObservableId],
        times: &[f64],
        seed: u64,
    ) -> Result<TransientTrace, MonteCarloError> {
        se_engine::transient::check_sample_times::<MonteCarloError>(times)?;
        let junction_count = self.system().junctions().len();
        for &ObservableId(junction) in observables {
            if junction >= junction_count {
                return Err(MonteCarloError::InvalidArgument(format!(
                    "unknown junction handle {junction}"
                )));
            }
        }

        let mut system = self.system().clone();
        for &(ControlId(electrode), ref waveform) in drives {
            system.set_external_voltage(electrode, waveform.value_at(0.0))?;
        }
        let options = SimulationOptions {
            seed: Some(seed),
            ..*self.options()
        };
        let mut simulator = MonteCarloSimulator::new(system, options)?;
        simulator.equilibrate()?;

        let mut currents = Vec::with_capacity(times.len() * observables.len());
        let mut previous_transfers = vec![0_i64; junction_count];
        let mut t_prev = 0.0;
        for &t in times {
            if t == 0.0 {
                currents.resize(currents.len() + observables.len(), 0.0);
                continue;
            }
            for &(ControlId(electrode), ref waveform) in drives {
                simulator
                    .system_mut()
                    .set_external_voltage(electrode, waveform.value_at(t))?;
            }
            simulator.run_until(t)?;
            let window = t - t_prev;
            let transfers = simulator.net_transfers();
            for &ObservableId(junction) in observables {
                let tunnelled = transfers[junction] - previous_transfers[junction];
                // Electrons moving a→b carry conventional current b→a;
                // report the conventional current in the a→b reference
                // direction, exactly as the stationary face does.
                currents.push(-E * tunnelled as f64 / window);
            }
            previous_transfers.copy_from_slice(transfers);
            t_prev = t;
        }
        Ok(TransientTrace::new(
            times.to_vec(),
            observables.len(),
            currents,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_engine::SweepRunner;
    use se_orthodox::TunnelSystemBuilder;

    fn set_system(vds: f64, vg: f64) -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        b.capacitor("CG", gate, island, 1e-18);
        b.build().unwrap()
    }

    #[test]
    fn resolver_returns_typed_indices() {
        let system = set_system(1e-3, 0.0);
        assert_eq!(resolve_electrode(&system, "gate").unwrap(), ControlId(2));
        assert_eq!(resolve_junction(&system, "JS").unwrap(), ObservableId(1));
        assert!(resolve_electrode(&system, "island").is_err());
        assert!(resolve_junction(&system, "CG").is_err());
    }

    #[test]
    fn master_engine_matches_direct_solve() {
        let vg = E / (2.0 * 1e-18);
        let solver = MasterEquation::new(set_system(1e-3, 0.0), 1.0).unwrap();
        let gate = solver.resolve_control("gate").unwrap();
        let jd = solver.resolve_observable("JD").unwrap();
        let via_trait = solver.stationary_current(&[(gate, vg)], jd, 7).unwrap();

        let direct = MasterEquation::new(set_system(1e-3, vg), 1.0)
            .unwrap()
            .solve()
            .unwrap()
            .junction_current("JD")
            .unwrap();
        assert!((via_trait - direct).abs() < 1e-9 * direct.abs().max(1e-18));
    }

    #[test]
    fn kmc_engine_is_seed_deterministic_and_leaves_self_untouched() {
        let vg = E / (2.0 * 1e-18);
        let sim = MonteCarloSimulator::new(
            set_system(1e-3, vg),
            SimulationOptions::new(1.0)
                .with_seed(5)
                .with_events_per_solve(5_000),
        )
        .unwrap();
        let jd = StationaryEngine::resolve_observable(&sim, "JD").unwrap();
        let a = sim.stationary_current(&[], jd, 123).unwrap();
        let b = sim.stationary_current(&[], jd, 123).unwrap();
        let c = sim.stationary_current(&[], jd, 124).unwrap();
        assert_eq!(a, b, "same seed, same current");
        assert_ne!(a, c, "different seeds explore different event sequences");
        assert_eq!(sim.time(), 0.0, "the shared simulator never advanced");
    }

    #[test]
    fn kmc_transient_tracks_a_drain_pulse() {
        // Gate at the conductance peak; pulse the drain 0 → 1 mV → 0 and
        // watch the window-averaged drain-junction current follow.
        let vg = E / (2.0 * 1e-18);
        let sim = MonteCarloSimulator::new(
            set_system(0.0, vg),
            SimulationOptions::new(1.0)
                .with_seed(3)
                .with_equilibration(200),
        )
        .unwrap();
        let drain = TransientEngine::resolve_drive(&sim, "drain").unwrap();
        let jd = TransientEngine::resolve_observable(&sim, "JD").unwrap();
        // 10 ns sample windows: long enough that the ±e/window shot noise
        // of the zero-bias windows averages well below the on-pulse
        // current.
        let pulse = Waveform::pulse(0.0, 1e-3, 20e-9, 40e-9, 1e-6).unwrap();
        let times: Vec<f64> = (0..8).map(|i| i as f64 * 10e-9).collect();
        let trace = sim
            .transient_currents(&[(drain, pulse)], &[jd], &times, 11)
            .unwrap();
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.at(0, 0), 0.0, "a t = 0 sample has no window yet");
        // Drives are evaluated at the window *end* (backward-Euler
        // convention), so the pulse rising at 20 ns first acts in window
        // (10,20] — samples 2..=5 are on, samples 1 and 6..=7 are off.
        let on: f64 = (2..=5).map(|i| trace.at(i, 0)).sum::<f64>() / 4.0;
        let off = trace.at(1, 0).abs().max(trace.at(7, 0).abs());
        assert!(on.abs() > 3.0 * off.max(1e-12), "on {on} vs off {off}");
        // Seed-deterministic: same seed, bit-identical trace.
        let again = sim
            .transient_currents(
                &[(
                    drain,
                    Waveform::pulse(0.0, 1e-3, 20e-9, 40e-9, 1e-6).unwrap(),
                )],
                &[jd],
                &times,
                11,
            )
            .unwrap();
        assert_eq!(trace, again);
        assert_eq!(sim.time(), 0.0, "the shared simulator never advanced");
    }

    #[test]
    fn kmc_transient_mean_current_matches_the_stationary_estimate() {
        // A long constant-bias transient window must reproduce the
        // stationary KMC current at the same bias (same physics, two
        // faces).
        let vg = E / (2.0 * 1e-18);
        let sim = MonteCarloSimulator::new(
            set_system(1e-3, vg),
            SimulationOptions::new(1.0)
                .with_seed(5)
                .with_events_per_solve(40_000),
        )
        .unwrap();
        let jd = TransientEngine::resolve_observable(&sim, "JD").unwrap();
        let times = [200e-9];
        let trace = sim.transient_currents(&[], &[jd], &times, 21).unwrap();
        let stationary = sim.stationary_current(&[], ObservableId(0), 21).unwrap();
        let rel = (trace.at(0, 0) - stationary).abs() / stationary.abs();
        assert!(
            rel < 0.15,
            "transient mean {} vs stationary {stationary}: {rel:.2}",
            trace.at(0, 0)
        );
    }

    #[test]
    fn kmc_transient_validates_inputs() {
        let sim = MonteCarloSimulator::new(
            set_system(1e-3, 0.0),
            SimulationOptions::new(1.0).with_seed(1),
        )
        .unwrap();
        assert!(sim
            .transient_currents(&[], &[ObservableId(0)], &[], 0)
            .is_err());
        assert!(sim
            .transient_currents(&[], &[ObservableId(0)], &[2e-9, 1e-9], 0)
            .is_err());
        assert!(sim
            .transient_currents(&[], &[ObservableId(99)], &[1e-9], 0)
            .is_err());
    }

    /// A gated chain of `islands` islands at the charge-degeneracy point —
    /// from 31 islands up (≥ 64 events) Auto puts it on the tree kernel.
    fn chain_system(islands: usize, vds: f64) -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let drain = b.external("drain", vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", E / (2.0 * 1e-18));
        let mut previous = drain;
        for i in 0..islands {
            let island = b.island(format!("n{i}"), 0.0);
            b.junction(format!("J{i}"), previous, island, 0.5e-18, 100e3);
            b.capacitor(format!("CG{i}"), gate, island, 1e-18);
            previous = island;
        }
        b.junction(format!("J{islands}"), previous, source, 0.5e-18, 100e3);
        b.build().unwrap()
    }

    /// Row `k` of the stationary ensemble equals the scalar solve seeded
    /// `seeds[k]`, bit for bit.
    fn assert_stationary_rows_match(sim: &MonteCarloSimulator, seeds: &[u64]) {
        let observables = [ObservableId(0), ObservableId(1)];
        let rows = sim
            .stationary_currents_ensemble(&[], &observables, seeds)
            .unwrap();
        assert_eq!(rows.len(), seeds.len());
        for (row, &seed) in rows.iter().zip(seeds) {
            let scalar = sim.stationary_currents(&[], &observables, seed).unwrap();
            for (b, s) in row.iter().zip(&scalar) {
                assert_eq!(b.to_bits(), s.to_bits(), "seed {seed} diverged");
            }
        }
    }

    #[test]
    fn ensembles_route_by_group_width_and_kernel() {
        let options = SimulationOptions::new(1.0);
        let set = set_system(1e-3, 0.0);
        assert!(!runs_batched(&set, &options, 0));
        assert!(!runs_batched(&set, &options, BATCH_MIN_REPLICAS - 1));
        assert!(runs_batched(&set, &options, BATCH_MIN_REPLICAS));
        assert!(runs_batched(&set, &options, 16));
        // Tree-kernel circuits loop the scalar engine at any width.
        let chain = chain_system(40, 0.1);
        assert!(!runs_batched(&chain, &options, 16));
        let forced = options.with_kernel(crate::KmcKernel::Incremental);
        assert!(!runs_batched(&set, &forced, 16));
    }

    #[test]
    fn stationary_ensemble_is_bit_identical_to_the_per_seed_loop() {
        let vg = E / (2.0 * 1e-18);
        let sim = MonteCarloSimulator::new(
            set_system(1e-3, vg),
            SimulationOptions::new(1.0)
                .with_equilibration(100)
                .with_events_per_solve(2_000),
        )
        .unwrap();
        // A 4-replica group (scalar route) and an 8-replica flat group
        // (batched route).
        assert_stationary_rows_match(&sim, &[11, 22, 33, 44]);
        assert_stationary_rows_match(&sim, &[11, 22, 33, 44, 55, 66, 77, 88]);
        assert!(sim
            .stationary_currents_ensemble(&[], &[ObservableId(0)], &[])
            .unwrap()
            .is_empty());
        // A 16-replica group on a 40-island chain (tree kernel, scalar
        // route).
        let chain = MonteCarloSimulator::new(
            chain_system(40, 0.1),
            SimulationOptions::new(1.0)
                .with_equilibration(50)
                .with_events_per_solve(300),
        )
        .unwrap();
        let seeds: Vec<u64> = (0..16).map(|k| 100 + k).collect();
        assert_stationary_rows_match(&chain, &seeds);
    }

    #[test]
    fn both_engines_agree_through_the_runner() {
        let system = set_system(1e-3, 0.0);
        let period = E / 1e-18;
        let values = [0.25 * period, 0.5 * period];

        let master = MasterEquation::new(system.clone(), 1.0).unwrap();
        let kmc = MonteCarloSimulator::new(
            system,
            SimulationOptions::new(1.0).with_events_per_solve(40_000),
        )
        .unwrap();

        let runner = SweepRunner::new().with_seed(11);
        let exact = runner.run(&master, "gate", &values, "JD").unwrap();
        let sampled = runner.run(&kmc, "gate", &values, "JD").unwrap();
        for (m, k) in exact.iter().zip(&sampled) {
            let scale = m.current.abs().max(1e-15);
            assert!(
                (m.current - k.current).abs() < 0.15 * scale,
                "master {} vs kmc {}",
                m.current,
                k.current
            );
        }
    }
}
