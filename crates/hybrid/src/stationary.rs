//! The hybrid co-simulator as a [`StationaryEngine`]: DC sweeps and
//! stability maps of mixed SET/conventional circuits through the unified
//! parallel sweep layer.
//!
//! Controls are the netlist's voltage sources (swept by name, as in a
//! `.dc` statement); observables are its tunnel junctions. Every
//! stationary solve rebuilds the netlist with the control values applied
//! and runs the full boundary relaxation of [`HybridSimulator`] to
//! convergence, so bias points are independent and fan out across threads
//! through [`se_engine::SweepRunner`] with bit-identical serial/parallel
//! results.
//!
//! The same engine is the hybrid circuit's time-domain model under a slow
//! stimulus: [`se_engine::QuasiStatic`] lifts it into a sequence of
//! self-consistent stationary SPICE↔island solutions, one per sample time,
//! with the drives frozen at their waveform values.

use crate::cosim::{HybridOptions, HybridSimulator, IslandEngine};
use crate::error::HybridError;
use se_engine::{ControlId, ObservableId, StationaryEngine};
use se_netlist::{ElementKind, Netlist};

/// The hybrid co-simulator as a [`StationaryEngine`].
///
/// When the island domain runs the kinetic Monte-Carlo engine, each solve
/// replaces the configured seed with the per-point seed handed in by the
/// sweep runner (or, under [`se_engine::QuasiStatic`], the per-sample
/// seed), keeping hybrid KMC runs reproducible and parallel-safe; the
/// master-equation engine is deterministic and ignores the seed.
#[derive(Debug, Clone)]
pub struct HybridStationaryEngine {
    netlist: Netlist,
    options: HybridOptions,
    /// Voltage-source names (lower-cased), indexed by control handle.
    sources: Vec<String>,
    /// Tunnel-junction names, indexed by observable handle.
    junctions: Vec<String>,
}

impl HybridStationaryEngine {
    /// Prepares the engine: validates the netlist and options by building a
    /// prototype [`HybridSimulator`], and indexes the sweepable sources and
    /// observable junctions.
    ///
    /// # Errors
    ///
    /// Propagates [`HybridSimulator::new`] validation errors.
    pub fn new(netlist: &Netlist, options: HybridOptions) -> Result<Self, HybridError> {
        // Surface bad options / bad netlists at construction, not per point.
        HybridSimulator::new(netlist, options)?;
        let sources = netlist
            .elements()
            .iter()
            .filter(|e| e.is_voltage_source())
            .map(|e| e.name().to_ascii_lowercase())
            .collect();
        let junctions = netlist
            .elements()
            .iter()
            .filter(|e| matches!(e.kind(), ElementKind::TunnelJunction { .. }))
            .map(|e| e.name().to_string())
            .collect();
        Ok(HybridStationaryEngine {
            netlist: netlist.clone(),
            options,
            sources,
            junctions,
        })
    }

    /// The co-simulation options.
    #[must_use]
    pub fn options(&self) -> &HybridOptions {
        &self.options
    }

    /// The observable tunnel-junction names, in handle order.
    #[must_use]
    pub fn junction_names(&self) -> &[String] {
        &self.junctions
    }
}

impl StationaryEngine for HybridStationaryEngine {
    type Error = HybridError;

    fn engine_name(&self) -> &'static str {
        "hybrid-cosim"
    }

    fn resolve_control(&self, name: &str) -> Result<ControlId, HybridError> {
        let lowered = name.to_ascii_lowercase();
        self.sources
            .iter()
            .position(|s| *s == lowered)
            .map(ControlId)
            .ok_or_else(|| {
                HybridError::InvalidArgument(format!("no voltage source named `{name}`"))
            })
    }

    fn resolve_observable(&self, name: &str) -> Result<ObservableId, HybridError> {
        self.junctions
            .iter()
            .position(|j| j == name)
            .map(ObservableId)
            .ok_or_else(|| {
                HybridError::InvalidArgument(format!("no tunnel junction named `{name}`"))
            })
    }

    fn stationary_currents(
        &self,
        controls: &[(ControlId, f64)],
        observables: &[ObservableId],
        seed: u64,
    ) -> Result<Vec<f64>, HybridError> {
        let junction_names: Vec<&String> = observables
            .iter()
            .map(|&ObservableId(junction)| {
                self.junctions.get(junction).ok_or_else(|| {
                    HybridError::InvalidArgument(format!("unknown observable handle {junction}"))
                })
            })
            .collect::<Result<_, _>>()?;

        let mut netlist = self.netlist.clone();
        for &(ControlId(source), value) in controls {
            let name = self.sources.get(source).ok_or_else(|| {
                HybridError::InvalidArgument(format!("unknown control handle {source}"))
            })?;
            netlist.set_source_voltage(name, value)?;
        }
        let mut options = self.options;
        if let IslandEngine::MonteCarlo { events, .. } = options.engine {
            options.engine = IslandEngine::MonteCarlo { events, seed };
        }
        let solution = HybridSimulator::new(&netlist, options)?.solve()?;
        junction_names
            .iter()
            .map(|&name| {
                solution.junction_current(name).ok_or_else(|| {
                    HybridError::InvalidArgument(format!(
                        "no current recorded for junction `{name}`"
                    ))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_engine::{QuasiStatic, SweepRunner, TransientEngine, Waveform};
    use se_netlist::parse_deck;
    use se_units::constants::E;

    fn set_with_load() -> Netlist {
        parse_deck(
            "hybrid set load\nVDD vdd 0 5m\nVG gate 0 0\nRL vdd drain 10meg\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n",
        )
        .unwrap()
    }

    #[test]
    fn names_resolve_and_validate() {
        let engine =
            HybridStationaryEngine::new(&set_with_load(), HybridOptions::new(1.0)).unwrap();
        assert!(engine.resolve_control("vg").is_ok());
        assert!(engine.resolve_control("VDD").is_ok());
        assert!(engine.resolve_control("RL").is_err());
        assert!(engine.resolve_observable("J1").is_ok());
        assert!(engine.resolve_observable("CG").is_err());
        assert_eq!(engine.junction_names(), &["J1".to_string(), "J2".into()]);
        assert!(HybridStationaryEngine::new(&set_with_load(), HybridOptions::new(-1.0)).is_err());
    }

    #[test]
    fn gate_sweep_through_the_runner_shows_coulomb_oscillation() {
        let vg_peak = E / (2.0 * 1e-18);
        let engine =
            HybridStationaryEngine::new(&set_with_load(), HybridOptions::new(1.0)).unwrap();
        let values = [0.0, vg_peak];
        let sweep = SweepRunner::new()
            .with_seed(3)
            .run(&engine, "VG", &values, "J1")
            .unwrap();
        assert_eq!(sweep.len(), 2);
        let blockade = sweep[0].current.abs();
        let peak = sweep[1].current.abs();
        assert!(
            peak > 10.0 * blockade.max(1e-15),
            "peak {peak} vs {blockade}"
        );
    }

    #[test]
    fn monte_carlo_islands_use_the_per_point_seed() {
        let vg_peak = E / (2.0 * 1e-18);
        let engine = HybridStationaryEngine::new(
            &set_with_load(),
            HybridOptions::new(1.0).with_monte_carlo(4000, 999),
        )
        .unwrap();
        let gate = engine.resolve_control("VG").unwrap();
        let j1 = engine.resolve_observable("J1").unwrap();
        let a = engine
            .stationary_current(&[(gate, vg_peak)], j1, 7)
            .unwrap();
        let b = engine
            .stationary_current(&[(gate, vg_peak)], j1, 7)
            .unwrap();
        let c = engine
            .stationary_current(&[(gate, vg_peak)], j1, 8)
            .unwrap();
        assert_eq!(a, b, "same seed, same relaxed current");
        assert_ne!(a, c, "the runner seed must reach the island engine");
    }

    #[test]
    fn lifted_names_resolve_and_validate() {
        let engine = QuasiStatic::new(
            HybridStationaryEngine::new(&set_with_load(), HybridOptions::new(1.0)).unwrap(),
        );
        assert!(engine.resolve_drive("vg").is_ok());
        assert!(engine.resolve_drive("VDD").is_ok());
        assert!(engine.resolve_drive("RL").is_err());
        assert!(TransientEngine::resolve_observable(&engine, "J1").is_ok());
        assert!(TransientEngine::resolve_observable(&engine, "CG").is_err());
        assert_eq!(
            engine.inner().junction_names(),
            &["J1".to_string(), "J2".into()]
        );
        // Bad options are refused when the stationary engine is built,
        // before anything is lifted.
        assert!(HybridStationaryEngine::new(&set_with_load(), HybridOptions::new(-1.0)).is_err());
    }

    #[test]
    fn lifted_gate_pulse_switches_the_set_between_blockade_and_conduction() {
        // Pulse the gate from the blockade point to the conductance peak:
        // the converged junction current must follow the pulse.
        let vg_peak = E / (2.0 * 1e-18);
        let engine = QuasiStatic::new(
            HybridStationaryEngine::new(&set_with_load(), HybridOptions::new(1.0)).unwrap(),
        );
        let gate = engine.resolve_drive("VG").unwrap();
        let j1 = TransientEngine::resolve_observable(&engine, "J1").unwrap();
        let pulse = || Waveform::pulse(0.0, vg_peak, 2e-9, 4e-9, 100e-9).unwrap();
        let times = [1e-9, 3e-9, 5e-9, 7e-9];
        let trace = engine
            .transient_currents(&[(gate, pulse())], &[j1], &times, 0)
            .unwrap();
        // Samples at 3 ns and 5 ns sit inside the pulse (conducting),
        // samples at 1 ns and 7 ns outside it (blockaded).
        let on = trace.at(1, 0).abs().min(trace.at(2, 0).abs());
        let off = trace.at(0, 0).abs().max(trace.at(3, 0).abs());
        assert!(on > 10.0 * off.max(1e-15), "on {on} vs off {off}");
        // Deterministic master-equation islands: the trace reproduces.
        let again = engine
            .transient_currents(&[(gate, pulse())], &[j1], &times, 0)
            .unwrap();
        assert_eq!(trace, again);
    }

    #[test]
    fn lifted_sample_grid_violations_are_rejected() {
        let engine = QuasiStatic::new(
            HybridStationaryEngine::new(&set_with_load(), HybridOptions::new(1.0)).unwrap(),
        );
        let j1 = TransientEngine::resolve_observable(&engine, "J1").unwrap();
        assert!(engine.transient_currents(&[], &[j1], &[], 0).is_err());
        assert!(engine
            .transient_currents(&[], &[j1], &[2e-9, 1e-9], 0)
            .is_err());
    }
}
