//! The boundary-relaxation co-simulation engine.

use crate::error::HybridError;
use se_engine::{ObservableId, StationaryEngine};

/// Junction currents and per-boundary-node drawn currents of one
/// single-electron solve.
type IslandCurrents = (HashMap<String, f64>, HashMap<String, f64>);
use se_montecarlo::builder::tunnel_system_with_boundary_voltages;
use se_montecarlo::{MasterEquation, MonteCarloError, MonteCarloSimulator, SimulationOptions};
use se_netlist::{Element, Netlist, Node};
use se_spice::{Circuit, NewtonOptions, OperatingPoint};
use std::collections::HashMap;

/// Which engine solves the single-electron domain at each relaxation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IslandEngine {
    /// Exact master-equation solution (deterministic, the default).
    Master {
        /// Per-island charge window half-width: the ceiling each solve's
        /// charge box grows up to.
        window: i64,
    },
    /// Kinetic Monte-Carlo sampling (stochastic; use for large island
    /// counts where state enumeration is impossible).
    MonteCarlo {
        /// Measurement events per relaxation step.
        events: usize,
        /// RNG seed for reproducibility.
        seed: u64,
    },
}

/// Options of the hybrid co-simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridOptions {
    /// Temperature of the single-electron domain, kelvin.
    pub temperature: f64,
    /// Maximum number of relaxation iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on boundary voltages, volt.
    pub tolerance: f64,
    /// Under-relaxation factor in `(0, 1]` applied to boundary updates.
    pub relaxation: f64,
    /// Engine for the single-electron domain.
    pub engine: IslandEngine,
    /// Newton options for the conventional domain.
    pub newton: NewtonOptions,
}

impl HybridOptions {
    /// Creates default options at the given temperature: master-equation
    /// islands, 100 iterations, 1 µV tolerance, 0.7 under-relaxation.
    #[must_use]
    pub fn new(temperature: f64) -> Self {
        HybridOptions {
            temperature,
            max_iterations: 100,
            tolerance: 1e-6,
            relaxation: 0.7,
            engine: IslandEngine::Master { window: 3 },
            newton: NewtonOptions::default(),
        }
    }

    /// Switches the single-electron domain to the kinetic Monte-Carlo
    /// engine.
    #[must_use]
    pub fn with_monte_carlo(mut self, events: usize, seed: u64) -> Self {
        self.engine = IslandEngine::MonteCarlo { events, seed };
        self
    }

    /// Sets the relaxation factor.
    #[must_use]
    pub fn with_relaxation(mut self, relaxation: f64) -> Self {
        self.relaxation = relaxation;
        self
    }
}

/// Result of a hybrid co-simulation.
#[derive(Debug, Clone)]
pub struct HybridSolution {
    converged: bool,
    iterations: usize,
    residual: f64,
    boundary_voltages: HashMap<String, f64>,
    junction_currents: HashMap<String, f64>,
    operating_point: OperatingPoint,
    island_count: usize,
}

impl HybridSolution {
    /// Returns `true` if the boundary relaxation converged.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of relaxation iterations performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Largest boundary-voltage change of the final iteration, volt.
    #[must_use]
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Number of single-electron islands in the partition.
    #[must_use]
    pub fn island_count(&self) -> usize {
        self.island_count
    }

    /// Final voltage of a boundary node (volt).
    #[must_use]
    pub fn boundary_voltage(&self, node: &str) -> Option<f64> {
        self.boundary_voltages.get(node).copied().or_else(|| {
            self.boundary_voltages
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(node))
                .map(|(_, &v)| v)
        })
    }

    /// Final voltage of any node of the conventional domain (volt).
    #[must_use]
    pub fn node_voltage(&self, node: &str) -> Option<f64> {
        self.operating_point
            .voltage(node)
            .or_else(|| self.boundary_voltage(node))
    }

    /// Stationary current through a single-electron junction (ampere, in the
    /// junction's `a → b` reference direction).
    #[must_use]
    pub fn junction_current(&self, junction: &str) -> Option<f64> {
        self.junction_currents.get(junction).copied()
    }

    /// The final operating point of the conventional domain.
    #[must_use]
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.operating_point
    }
}

/// The hybrid co-simulator.
#[derive(Debug, Clone)]
pub struct HybridSimulator {
    netlist: Netlist,
    options: HybridOptions,
    /// Names of the boundary nodes (non-ground nodes the islands couple to).
    boundary_nodes: Vec<String>,
    /// Norton conductance of the single-electron domain per boundary node.
    boundary_conductance: HashMap<String, f64>,
    /// Names of the elements belonging to the single-electron domain.
    island_elements: Vec<String>,
    island_count: usize,
}

impl HybridSimulator {
    /// Partitions the netlist and prepares the co-simulation.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::Netlist`] for an invalid netlist and
    /// [`HybridError::InvalidArgument`] for invalid options.
    pub fn new(netlist: &Netlist, options: HybridOptions) -> Result<Self, HybridError> {
        if options.temperature < 0.0 || !options.temperature.is_finite() {
            return Err(HybridError::InvalidArgument(format!(
                "temperature must be non-negative and finite, got {}",
                options.temperature
            )));
        }
        if !(options.relaxation > 0.0 && options.relaxation <= 1.0) {
            return Err(HybridError::InvalidArgument(format!(
                "relaxation factor must lie in (0, 1], got {}",
                options.relaxation
            )));
        }
        if options.max_iterations == 0 {
            return Err(HybridError::InvalidArgument(
                "at least one relaxation iteration is required".into(),
            ));
        }
        netlist.validate()?;
        let split = se_netlist::partition::classify_elements(netlist);
        let mut boundary_nodes = Vec::new();
        for island in &split.islands {
            for &node in &island.boundary {
                if node.is_ground() {
                    continue;
                }
                let name = netlist.node_name(node).unwrap_or("boundary").to_string();
                if !boundary_nodes.contains(&name) {
                    boundary_nodes.push(name);
                }
            }
        }
        let island_count = split.islands.iter().map(|i| i.nodes.len()).sum();

        // Norton conductance of the single-electron domain as seen from each
        // boundary node: the parallel combination of the tunnel resistances
        // attached to it. This over-estimates the true differential
        // conductance (which vanishes in blockade), which is exactly what
        // makes the relaxation a contraction even for high-impedance loads.
        let mut boundary_conductance: HashMap<String, f64> =
            boundary_nodes.iter().map(|n| (n.clone(), 0.0)).collect();
        for element in netlist.elements() {
            if !split.monte_carlo.iter().any(|n| n == element.name()) {
                continue;
            }
            if let se_netlist::ElementKind::TunnelJunction { resistance, .. } = element.kind() {
                for &node in element.nodes() {
                    if let Some(name) = netlist.node_name(node) {
                        if let Some(g) = boundary_conductance.get_mut(name) {
                            *g += 1.0 / resistance;
                        }
                    }
                }
            }
        }

        Ok(HybridSimulator {
            netlist: netlist.clone(),
            options,
            boundary_nodes,
            boundary_conductance,
            island_elements: split.monte_carlo,
            island_count,
        })
    }

    /// The boundary node names discovered by the partition.
    #[must_use]
    pub fn boundary_nodes(&self) -> &[String] {
        &self.boundary_nodes
    }

    /// Number of islands in the single-electron domain.
    #[must_use]
    pub fn island_count(&self) -> usize {
        self.island_count
    }

    /// Builds the conventional-domain netlist with the single-electron
    /// domain replaced by its Norton equivalent at each boundary node: a
    /// conductance (from `conductances`) plus a current source whose value
    /// makes the Norton model reproduce the current the islands actually
    /// drew at the present boundary voltages.
    fn spice_netlist(
        &self,
        injections: &HashMap<String, f64>,
        conductances: &HashMap<String, f64>,
    ) -> Result<Netlist, HybridError> {
        let mut sub = Netlist::new(format!("{} (conventional domain)", self.netlist.title()));
        for element in self.netlist.elements() {
            if self.island_elements.iter().any(|n| n == element.name()) {
                continue;
            }
            // Re-intern the nodes by name so handles stay consistent.
            let nodes: Vec<Node> = element
                .nodes()
                .iter()
                .map(|&n| {
                    if n.is_ground() {
                        Node::GROUND
                    } else {
                        sub.node(self.netlist.node_name(n).unwrap_or("n"))
                    }
                })
                .collect();
            let rebuilt = Element::new(element.name(), nodes, element.kind().clone())?;
            sub.add(rebuilt)?;
        }
        for node_name in &self.boundary_nodes {
            let node = sub.node(node_name);
            let current = injections.get(node_name).copied().unwrap_or(0.0);
            sub.add(Element::current_source(
                format!("IINJ_{node_name}"),
                node,
                Node::GROUND,
                current,
            ))?;
            let g = conductances.get(node_name).copied().unwrap_or(0.0);
            if g > 0.0 {
                sub.add(Element::resistor(
                    format!("RNJ_{node_name}"),
                    node,
                    Node::GROUND,
                    1.0 / g,
                ))?;
            }
        }
        Ok(sub)
    }

    /// Builds the configured detailed engine over `system` behind the
    /// unified [`StationaryEngine`] face, together with the seed its
    /// stationary solves should use. The returned engine solves all
    /// junction currents of one boundary iteration in a single stationary
    /// solve; stochastic engines re-sample the same stream each iteration
    /// (exactly as the pre-trait dispatch did), deterministic engines
    /// ignore the seed.
    #[allow(clippy::type_complexity)]
    fn island_engine(
        &self,
        system: se_orthodox::TunnelSystem,
    ) -> Result<(Box<dyn StationaryEngine<Error = MonteCarloError>>, u64), HybridError> {
        Ok(match self.options.engine {
            IslandEngine::Master { window } => (
                Box::new(
                    MasterEquation::new(system, self.options.temperature)?.with_window(window)?,
                ),
                0,
            ),
            IslandEngine::MonteCarlo { events, seed } => (
                Box::new(MonteCarloSimulator::new(
                    system,
                    SimulationOptions::new(self.options.temperature)
                        .with_seed(seed)
                        .with_events_per_solve(events),
                )?),
                seed,
            ),
        })
    }

    /// Solves the single-electron domain at the given boundary voltages and
    /// returns `(junction currents, current drawn from each boundary node)`.
    fn solve_islands(
        &self,
        boundary_voltages: &HashMap<String, f64>,
    ) -> Result<IslandCurrents, HybridError> {
        let system = tunnel_system_with_boundary_voltages(&self.netlist, boundary_voltages)?;
        let (engine, seed) = self.island_engine(system.clone())?;
        // One stationary solve per relaxation step, reading every junction.
        let observables: Vec<ObservableId> =
            (0..system.junctions().len()).map(ObservableId).collect();
        let currents = engine.stationary_currents(&[], &observables, seed)?;
        let junction_currents: HashMap<String, f64> = system
            .junctions()
            .iter()
            .zip(&currents)
            .map(|(junction, &current)| (junction.name.clone(), current))
            .collect();

        // Current drawn out of each boundary node: sum of junction currents
        // oriented away from that node.
        let mut drawn: HashMap<String, f64> = self
            .boundary_nodes
            .iter()
            .map(|n| (n.clone(), 0.0))
            .collect();
        for junction in system.junctions() {
            let current = junction_currents
                .get(&junction.name)
                .copied()
                .unwrap_or(0.0);
            for (endpoint, sign) in [(junction.a, 1.0), (junction.b, -1.0)] {
                if let se_orthodox::Endpoint::External(k) = endpoint {
                    let name = system.external_name(k);
                    if let Some(entry) = drawn.get_mut(name) {
                        // Current in the a→b direction leaves the `a`-side
                        // node and enters the `b`-side node.
                        *entry += sign * current;
                    }
                }
            }
        }
        Ok((junction_currents, drawn))
    }

    /// Runs the relaxation to convergence.
    ///
    /// # Errors
    ///
    /// Returns [`HybridError::NoConvergence`] if the boundary voltages do
    /// not settle within the iteration budget, or propagates domain errors.
    pub fn solve(&self) -> Result<HybridSolution, HybridError> {
        // Pure conventional circuit: nothing to relax.
        if self.island_count == 0 {
            let circuit = Circuit::with_temperature(&self.netlist, self.options.temperature)?;
            let op = circuit.dc_operating_point_with(&self.options.newton)?;
            return Ok(HybridSolution {
                converged: true,
                iterations: 0,
                residual: 0.0,
                boundary_voltages: HashMap::new(),
                junction_currents: HashMap::new(),
                operating_point: op,
                island_count: 0,
            });
        }

        // Initial conventional solve: zero injections, static Norton
        // conductances (the parallel tunnel resistances).
        let zero_injections: HashMap<String, f64> = self
            .boundary_nodes
            .iter()
            .map(|n| (n.clone(), 0.0))
            .collect();
        let spice_netlist = self.spice_netlist(&zero_injections, &self.boundary_conductance)?;
        let circuit = Circuit::with_temperature(&spice_netlist, self.options.temperature)?;
        let mut op = circuit.dc_operating_point_with(&self.options.newton)?;
        let mut boundary: HashMap<String, f64> = self
            .boundary_nodes
            .iter()
            .map(|n| (n.clone(), op.voltage(n).unwrap_or(0.0)))
            .collect();

        let mut residual = f64::INFINITY;
        for iteration in 1..=self.options.max_iterations {
            let (junction_currents, drawn) = self.solve_islands(&boundary)?;

            // Newton-like coupling: estimate the differential conductance of
            // the single-electron domain at every junction-connected
            // boundary node by a one-sided finite difference, so the Norton
            // equivalent tracks the true load line and the relaxation
            // converges in a handful of iterations even for megaohm loads.
            let mut conductances: HashMap<String, f64> = HashMap::new();
            for name in &self.boundary_nodes {
                let g_max = self.boundary_conductance.get(name).copied().unwrap_or(0.0);
                if g_max <= 0.0 {
                    conductances.insert(name.clone(), 0.0);
                    continue;
                }
                let dv = 1e-5_f64.max(1e-3 * boundary[name].abs());
                let mut perturbed = boundary.clone();
                perturbed.insert(name.clone(), boundary[name] + dv);
                let (_, drawn_perturbed) = self.solve_islands(&perturbed)?;
                let g_est = (drawn_perturbed[name] - drawn[name]) / dv;
                conductances.insert(name.clone(), g_est.clamp(0.0, g_max));
            }

            // Norton correction: the injected current source carries the
            // difference between the true drawn current and what the Norton
            // conductance already accounts for at the present boundary
            // voltage.
            let corrected: HashMap<String, f64> = drawn
                .iter()
                .map(|(name, &i_drawn)| {
                    let g = conductances.get(name).copied().unwrap_or(0.0);
                    (name.clone(), i_drawn - g * boundary[name])
                })
                .collect();

            let spice_netlist = self.spice_netlist(&corrected, &conductances)?;
            let circuit = Circuit::with_temperature(&spice_netlist, self.options.temperature)?;
            op = circuit.dc_operating_point_with(&self.options.newton)?;

            residual = 0.0;
            for name in &self.boundary_nodes {
                let old = boundary[name];
                let target = op.voltage(name).unwrap_or(0.0);
                let new = old + self.options.relaxation * (target - old);
                residual = residual.max((new - old).abs());
                boundary.insert(name.clone(), new);
            }
            if residual < self.options.tolerance {
                return Ok(HybridSolution {
                    converged: true,
                    iterations: iteration,
                    residual,
                    boundary_voltages: boundary,
                    junction_currents,
                    operating_point: op,
                    island_count: self.island_count,
                });
            }
        }
        Err(HybridError::NoConvergence {
            iterations: self.options.max_iterations,
            residual,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_netlist::parse_deck;
    use se_units::constants::E;

    /// SET fed through a 10 MΩ load from a 5 mV supply, gate at the
    /// conductance peak.
    fn set_with_load_deck(vg: f64) -> String {
        format!(
            "hybrid set load\nVDD vdd 0 5m\nVG gate 0 {vg}\nRL vdd drain 10meg\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n"
        )
    }

    #[test]
    fn options_are_validated() {
        let netlist = parse_deck(&set_with_load_deck(0.0)).unwrap();
        assert!(HybridSimulator::new(&netlist, HybridOptions::new(-1.0)).is_err());
        assert!(
            HybridSimulator::new(&netlist, HybridOptions::new(1.0).with_relaxation(0.0)).is_err()
        );
        let mut opts = HybridOptions::new(1.0);
        opts.max_iterations = 0;
        assert!(HybridSimulator::new(&netlist, opts).is_err());
    }

    #[test]
    fn partition_finds_boundary_and_islands() {
        let netlist = parse_deck(&set_with_load_deck(0.08)).unwrap();
        let sim = HybridSimulator::new(&netlist, HybridOptions::new(1.0)).unwrap();
        assert_eq!(sim.island_count(), 1);
        let mut boundary = sim.boundary_nodes().to_vec();
        boundary.sort();
        assert_eq!(boundary, vec!["drain".to_string(), "gate".to_string()]);
    }

    #[test]
    fn set_with_load_resistor_is_self_consistent() {
        let vg = E / (2.0 * 1e-18); // conductance peak of Cg = 1 aF
        let netlist = parse_deck(&set_with_load_deck(vg)).unwrap();
        let sim = HybridSimulator::new(&netlist, HybridOptions::new(1.0)).unwrap();
        let solution = sim.solve().unwrap();
        assert!(solution.converged());
        assert!(solution.iterations() >= 1);

        let v_drain = solution.boundary_voltage("drain").unwrap();
        assert!(v_drain > 0.0 && v_drain < 5e-3, "drain voltage {v_drain}");

        // Self-consistency: the load-resistor current equals the SET current
        // computed by the exact single-SET reference at the converged bias.
        let i_load = (5e-3 - v_drain) / 10e6;
        let set =
            se_orthodox::set::SingleElectronTransistor::new(1e-18, 0.5e-18, 0.5e-18, 100e3, 100e3)
                .unwrap();
        let i_set = set.current(v_drain, vg, 0.0, 1.0).unwrap();
        assert!(
            (i_load - i_set).abs() < 0.05 * i_load.abs().max(1e-15),
            "load current {i_load} vs SET current {i_set}"
        );
        // And the reported junction current matches as well.
        let i_junction = solution.junction_current("J1").unwrap();
        assert!((i_junction - i_load).abs() < 0.05 * i_load.abs());
    }

    #[test]
    fn blockaded_set_leaves_drain_near_supply() {
        // Gate at the blockade point: the SET draws almost no current, so
        // the drain floats up to the 5 mV supply.
        let netlist = parse_deck(&set_with_load_deck(0.0)).unwrap();
        let sim = HybridSimulator::new(&netlist, HybridOptions::new(1.0)).unwrap();
        let solution = sim.solve().unwrap();
        assert!(solution.converged());
        let v_drain = solution.boundary_voltage("drain").unwrap();
        assert!(
            (v_drain - 5e-3).abs() < 0.1e-3,
            "blockaded drain should stay near the supply, got {v_drain}"
        );
    }

    #[test]
    fn pure_conventional_circuit_falls_back_to_spice() {
        let netlist = parse_deck("divider\nV1 in 0 1\nR1 in out 1k\nR2 out 0 1k\n").unwrap();
        let sim = HybridSimulator::new(&netlist, HybridOptions::new(1.0)).unwrap();
        let solution = sim.solve().unwrap();
        assert!(solution.converged());
        assert_eq!(solution.iterations(), 0);
        assert_eq!(solution.island_count(), 0);
        assert!((solution.node_voltage("out").unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn monte_carlo_engine_agrees_with_master_engine() {
        let vg = E / (2.0 * 1e-18);
        let netlist = parse_deck(&set_with_load_deck(vg)).unwrap();
        let master = HybridSimulator::new(&netlist, HybridOptions::new(1.0))
            .unwrap()
            .solve()
            .unwrap();
        let kmc_options = HybridOptions::new(1.0).with_monte_carlo(30_000, 42);
        // Monte-Carlo noise on the boundary needs a looser tolerance.
        let kmc_options = HybridOptions {
            tolerance: 2e-5,
            ..kmc_options
        };
        let kmc = HybridSimulator::new(&netlist, kmc_options)
            .unwrap()
            .solve()
            .unwrap();
        let vm = master.boundary_voltage("drain").unwrap();
        let vk = kmc.boundary_voltage("drain").unwrap();
        assert!(
            (vm - vk).abs() < 0.15 * vm.abs().max(1e-4),
            "master {vm} vs kmc {vk}"
        );
    }

    #[test]
    fn mosfet_loaded_set_converges() {
        // The Inokawa/Uchida-style configuration: an NMOS current source in
        // series with a SET island stack.
        let vg = E / (2.0 * 1e-18);
        let deck = format!(
            "set-mos\nVDD vdd 0 1.8\nVB bias 0 0.55\nVG gate 0 {vg}\nM1 vdd bias mid NMOS\nRM mid drain 100k\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n"
        );
        let netlist = parse_deck(&deck).unwrap();
        let sim = HybridSimulator::new(&netlist, HybridOptions::new(4.2)).unwrap();
        let solution = sim.solve().unwrap();
        assert!(solution.converged());
        // The SET can only sink a few nanoamperes, so the MOSFET source
        // follower output is pulled down close to the SET's compliance.
        let v_drain = solution.boundary_voltage("drain").unwrap();
        assert!((0.0..1.8).contains(&v_drain));
    }
}
