//! Deterministic master-equation solver.
//!
//! The stationary state of the orthodox model can be computed without
//! sampling: enumerate the charge states in a box around the
//! electrostatic ground state, assemble the transition-rate generator from
//! the same orthodox rates the Monte-Carlo engine samples, and solve for
//! the stationary probability distribution. This is the accuracy reference
//! used to validate the Monte-Carlo engine (and the analytic SPICE model)
//! in experiment E10, exactly the role the paper assigns to "detailed"
//! simulators.
//!
//! The box is grown, not guessed (adaptive state selection after Fonseca,
//! Korotkov, Likharev & Odintsov, J. Appl. Phys. 78, 3238 (1995)): a solve
//! starts from ±1 charge per island around the ground state and, round by
//! round, moves every island face that still carries more than
//! [`FACE_TOLERANCE`] of the stationary mass out by one charge, up to the
//! configured window, which is a ceiling. Over the 8×8 bias map of a
//! 4-island chain with window ±5 (14 641 states), a 100 K point settles
//! after 3–4 rounds on a final box of 1 296–3 136 states, a 4.2 K point
//! after 1–2 rounds on 81–625 states.
//!
//! The state space is handled sparsely: each charge state couples to at
//! most two neighbours per junction, and on the mixed-radix state lattice
//! every event moves a state by a constant index offset (no hash lookups).
//! The stationary distribution comes from the solver selection in
//! [`se_numeric::sparse`] — Jacobi-scaled BiCGSTAB by default, its
//! anchored system stamped one lane per offset straight from the rate
//! buffer, with the anchored Gauss–Seidel sweep (over an inflow CSR built
//! only when it runs) as selectable alternative and automatic fallback.
//! A caller that solves many bias points passes one [`MasterWorkspace`]
//! to [`MasterEquation::solve_with`], so the rate buffer, the stencil and
//! the solver vectors are allocated once. Together with the incremental
//! [`LiveState`] walk of the enumeration (one axpy per lattice step
//! instead of a dense solve per state), this lets the window cover
//! millions of states — the old dense-LU implementation capped out at
//! 20 000 and the Gauss–Seidel-only sparse path at 400 000.
//!
//! [`MasterEquation::solve_warm`] seeds every round's iteration with a
//! previous solution, re-indexed by physical charge onto the round's box.
//! Warm-starting changes only the starting iterate — solves are
//! deterministic for a given (system, warm seed) pair.

use crate::error::MonteCarloError;
use se_numeric::krylov::AnchoredStencil;
use se_numeric::sparse::{
    stationary_distribution_of, CsrMatrix, Generator, StationaryOptions, StationarySolver,
    StationaryWorkspace,
};
use se_numeric::NumericError;
use se_orthodox::{ChargeState, Endpoint, LiveState, RateContext, TunnelEvent, TunnelSystem};
use se_units::constants::E;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Default half-width of the per-island charge window: the ceiling of the
/// grown box.
const DEFAULT_WINDOW: i64 = 3;

/// Default maximum number of enumerated states. The sparse generator and
/// iterative stationary solve keep both memory and time roughly linear in
/// this number (times the junction count); the old dense-LU path was capped
/// at 20 000 states and the Gauss–Seidel-only sparse path at 400 000 —
/// the Krylov solver pushes the practical ceiling into the millions.
const DEFAULT_MAX_STATES: usize = 2_000_000;

/// Share of a box's stationary mass above which one of its faces (the
/// states with one island at the lowest or at the highest charge of the
/// box) grows by one charge in the next round. Looser values cost
/// accuracy quickly: a ±2 box of the hot `master_map` chain leaves a
/// first-to-last junction current mismatch of 1e-8 of the map's peak.
pub const FACE_TOLERANCE: f64 = 1e-10;

/// Provenance of one master-equation solve: which stationary solver
/// produced the distribution and how hard it had to work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MasterSolveStats {
    /// Name of the solver that produced the accepted distribution (for
    /// example `"bicgstab-jacobi"`, or `"gauss-seidel(fallback)"` when the
    /// Krylov iteration failed and the sweep finished the job).
    pub solver: &'static str,
    /// Iterations (Krylov steps or Gauss–Seidel sweeps) performed, summed
    /// over every round of the box growth.
    pub iterations: usize,
    /// Final convergence measure reported by the solver.
    pub residual: f64,
    /// Whether the solve was seeded from a previous solution (see
    /// [`MasterEquation::solve_warm`]).
    pub warm_started: bool,
    /// Stationary probability on the final box's boundary: the states with
    /// at least one island at either edge of its charge range. It bounds
    /// the mass the truncation could misplace; a value that is not small
    /// means the window ceiling is too narrow for the temperature and bias.
    pub boundary_mass: f64,
    /// Box solves the growth ran (1 when the ±1 start already holds the
    /// distribution, or for a fixed box).
    pub rounds: usize,
    /// States of the final box.
    pub box_states: usize,
}

/// Stationary solution of the master equation.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterSolution {
    probabilities: Vec<f64>,
    junction_currents: HashMap<String, f64>,
    /// The enumeration box the probabilities are indexed by. The state
    /// list, the lookups and a later solve's warm re-indexing all decode
    /// it.
    charge_box: ChargeBox,
    /// The window ceiling of the solve: a warm seed must share it.
    window: i64,
    stats: MasterSolveStats,
}

impl MasterSolution {
    /// The enumerated charge states, in the order of
    /// [`Self::probabilities`], decoded on the fly from the box.
    pub fn states(&self) -> impl ExactSizeIterator<Item = ChargeState> + '_ {
        let ChargeBox { lower, span } = &self.charge_box;
        (0..self.probabilities.len()).map(move |index| {
            let mut rem = index;
            ChargeState(
                lower
                    .iter()
                    .zip(span)
                    .map(|(&lowest, &span)| {
                        let digit = rem % span;
                        rem /= span;
                        lowest + digit as i64
                    })
                    .collect(),
            )
        })
    }

    /// Stationary probability of each state (same order as
    /// [`Self::states`]).
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Stationary conventional current through the named junction, in the
    /// junction's `a → b` reference direction (ampere).
    #[must_use]
    pub fn junction_current(&self, junction: &str) -> Option<f64> {
        self.junction_currents.get(junction).copied()
    }

    /// Probability of the given charge state, or 0 if it was outside the
    /// enumeration box.
    #[must_use]
    pub fn probability_of(&self, state: &ChargeState) -> f64 {
        self.charge_box
            .index_of(&state.0)
            .map_or(0.0, |index| self.probabilities[index])
    }

    /// Mean number of excess electrons on island `i`.
    #[must_use]
    pub fn mean_occupation(&self, island: usize) -> f64 {
        let ChargeBox { lower, span } = &self.charge_box;
        let place: usize = span[..island].iter().product();
        self.probabilities
            .iter()
            .enumerate()
            .map(|(index, &p)| p * (lower[island] + ((index / place) % span[island]) as i64) as f64)
            .sum()
    }

    /// Provenance of the stationary solve that produced this solution.
    #[must_use]
    pub fn stats(&self) -> &MasterSolveStats {
        &self.stats
    }
}

/// An enumeration box: island `i` takes the `span_i` charges from
/// `lower_i` up. The state at counter value `index` is the mixed-radix
/// number whose digit `i`, of place value `span_0 · … · span_{i−1}`, is
/// `n_i − lower_i`.
#[derive(Debug, Clone, PartialEq)]
struct ChargeBox {
    lower: Vec<i64>,
    span: Vec<usize>,
}

impl ChargeBox {
    /// The box reaching `reach[i] = [below, above]` charges around island
    /// `i`'s charge in `center`.
    fn around(center: &ChargeState, reach: &[[i64; 2]]) -> Self {
        ChargeBox {
            lower: center.0.iter().zip(reach).map(|(&c, r)| c - r[0]).collect(),
            span: reach.iter().map(|r| (r[0] + r[1] + 1) as usize).collect(),
        }
    }

    fn state_count(&self) -> usize {
        self.span.iter().product()
    }

    /// The counter value of the state with these charges, if it is inside.
    fn index_of(&self, charges: &[i64]) -> Option<usize> {
        if charges.len() != self.lower.len() {
            return None;
        }
        let mut index = 0;
        for ((&n, &lowest), &span) in charges.iter().zip(&self.lower).zip(&self.span).rev() {
            let digit = n
                .checked_sub(lowest)
                .and_then(|d| usize::try_from(d).ok())
                .filter(|&d| d < span)?;
            index = index * span + digit;
        }
        Some(index)
    }
}

/// Master-equation solver over a [`TunnelSystem`].
#[derive(Debug, Clone)]
pub struct MasterEquation {
    system: TunnelSystem,
    temperature: f64,
    window: i64,
    max_states: usize,
    solver: StationarySolver,
}

impl MasterEquation {
    /// Creates a solver at the given temperature with the default charge
    /// window ceiling (±3 electrons per island around the electrostatic
    /// ground state).
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] for a negative or
    /// non-finite temperature.
    pub fn new(system: TunnelSystem, temperature: f64) -> Result<Self, MonteCarloError> {
        if temperature < 0.0 || !temperature.is_finite() {
            return Err(MonteCarloError::InvalidArgument(format!(
                "temperature must be non-negative and finite, got {temperature}"
            )));
        }
        Ok(MasterEquation {
            system,
            temperature,
            window: DEFAULT_WINDOW,
            max_states: DEFAULT_MAX_STATES,
            solver: StationarySolver::default(),
        })
    }

    /// Selects the stationary solver (default: Jacobi-scaled BiCGSTAB with
    /// an automatic Gauss–Seidel fallback).
    #[must_use]
    pub fn with_solver(mut self, solver: StationarySolver) -> Self {
        self.solver = solver;
        self
    }

    /// The configured stationary solver.
    #[must_use]
    pub fn solver(&self) -> StationarySolver {
        self.solver
    }

    /// Sets the per-island charge window half-width: the ceiling the box
    /// grows up to (see [`MasterEquation::solve_with`]).
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] if `window < 1`.
    pub fn with_window(mut self, window: i64) -> Result<Self, MonteCarloError> {
        if window < 1 {
            return Err(MonteCarloError::InvalidArgument(format!(
                "window must be at least 1, got {window}"
            )));
        }
        self.window = window;
        Ok(self)
    }

    /// Sets the maximum number of enumerated states (the guard against
    /// accidentally exponential windows, default 2 000 000).
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::InvalidArgument`] if `max_states == 0`.
    pub fn with_max_states(mut self, max_states: usize) -> Result<Self, MonteCarloError> {
        if max_states == 0 {
            return Err(MonteCarloError::InvalidArgument(
                "the state limit must be at least 1".into(),
            ));
        }
        self.max_states = max_states;
        Ok(self)
    }

    /// The tunnel system being solved.
    #[must_use]
    pub fn system(&self) -> &TunnelSystem {
        &self.system
    }

    /// Mutable access to the tunnel system (to change bias points between
    /// solves).
    pub fn system_mut(&mut self) -> &mut TunnelSystem {
        &mut self.system
    }

    /// Finds the electrostatic ground state by greedy descent from the
    /// charge-neutral state.
    ///
    /// At a conducting bias point no true minimum exists — the sources do
    /// work, so the free energy keeps decreasing around the
    /// current-carrying cycle. The descent therefore stops at the first
    /// revisited charge state; because every step strictly lowers the free
    /// energy, the stopping state is the lowest-free-energy state seen,
    /// deterministic, and a natural center for the enumeration window.
    /// (The pre-sparse implementation span through its full iteration
    /// bound at every conducting point instead, which dominated
    /// small-sweep wall-clock.)
    #[must_use]
    pub fn ground_state(&self) -> ChargeState {
        let islands = self.system.island_count();
        let mut live = LiveState::new(&self.system, ChargeState::neutral(islands));
        let mut visited: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
        visited.insert(live.state().0.clone());
        // Bounded for robustness; descent paths and cycles are short.
        for _ in 0..10_000 {
            let mut best_step: Option<(f64, TunnelEvent)> = None;
            for idx in 0..self.system.event_count() {
                let event = self.system.event(idx);
                let df = live.delta_free_energy(&self.system, event);
                if df < -1e-30 && best_step.is_none_or(|(b, _)| df < b) {
                    best_step = Some((df, event));
                }
            }
            match best_step {
                Some((_, event)) => {
                    live.apply(&self.system, event);
                    if !visited.insert(live.state().0.clone()) {
                        break;
                    }
                }
                None => break,
            }
        }
        live.into_state()
    }

    /// Solves for the stationary distribution and junction currents.
    ///
    /// # Errors
    ///
    /// Returns [`MonteCarloError::StateSpaceTooLarge`] if the window
    /// ceiling's box exceeds the state limit, and propagates numerical
    /// errors from the iterative stationary solve (including
    /// [`se_numeric::NumericError::NoConvergence`] if the selected solver
    /// and its fallback both exhaust their iteration budgets).
    pub fn solve(&self) -> Result<MasterSolution, MonteCarloError> {
        self.solve_warm(None)
    }

    /// [`MasterEquation::solve_warm`] over caller-owned buffers: the
    /// assembly's rate and out-rate buffers, the anchored stencil and the
    /// solver vectors all come from `workspace` and go back into it, grown
    /// to the largest box solved so far. Every solve overwrites what it
    /// reads, so the solution is bit-identical to one with a fresh
    /// workspace.
    ///
    /// The box grows from ±1 charge per island around the ground state.
    /// Each round solves its box and sums the stationary mass on each of
    /// its `2·islands` faces; every face holding more than
    /// [`FACE_TOLERANCE`] of the box's mass moves out by one charge, unless
    /// it already sits at the window ceiling, and the next round solves the
    /// grown box from scratch. The solve ends at the first round in which
    /// no face grows. The ceiling box is admitted against the state limit
    /// before the first round.
    ///
    /// # Errors
    ///
    /// As [`MasterEquation::solve`].
    pub fn solve_with(
        &self,
        warm: Option<&MasterSolution>,
        workspace: &mut MasterWorkspace,
    ) -> Result<MasterSolution, MonteCarloError> {
        let (center, rate_ctx) = self.prepare()?;
        let mut reach = vec![[1_i64; 2]; center.0.len()];
        let (mut rounds, mut iterations) = (0, 0);
        loop {
            let charge_box = ChargeBox::around(&center, &reach);
            let (mut solution, faces) =
                self.solve_box(&center, charge_box, &rate_ctx, warm, workspace)?;
            rounds += 1;
            iterations += solution.stats.iterations;
            let total: f64 = solution.probabilities.iter().sum();
            let mut grew = false;
            for (reach, &mass) in reach.iter_mut().flatten().zip(&faces) {
                if mass > FACE_TOLERANCE * total && *reach < self.window {
                    *reach += 1;
                    grew = true;
                }
            }
            if !grew {
                solution.stats.rounds = rounds;
                solution.stats.iterations = iterations;
                return Ok(solution);
            }
        }
    }

    /// Solves the whole ±window ceiling box in one round, without growing
    /// a box. This exists for bit-identity pins and for benchmarks that
    /// time a stated state count; it is not part of the supported API
    /// surface.
    ///
    /// # Errors
    ///
    /// As [`MasterEquation::solve`].
    #[doc(hidden)]
    pub fn solve_full_window(
        &self,
        warm: Option<&MasterSolution>,
        workspace: &mut MasterWorkspace,
    ) -> Result<MasterSolution, MonteCarloError> {
        let (center, rate_ctx) = self.prepare()?;
        let full = self.full_window(&center);
        self.solve_box(&center, full, &rate_ctx, warm, workspace)
            .map(|(solution, _)| solution)
    }

    /// Solves for the stationary distribution, optionally warm-starting
    /// every round's iteration from a previously converged solution.
    ///
    /// The previous distribution is re-indexed onto each round's box (the
    /// boxes may sit around different ground states and have different
    /// extents — each state is matched by its physical island charges, and
    /// charges that fall outside the previous box start at 0). A seed is
    /// used only if it is structurally compatible (same island count and
    /// window ceiling) and carries probability on this solve's ground
    /// state; otherwise the solve cold-starts exactly like
    /// [`MasterEquation::solve`]. Warm-starting changes the starting
    /// iterate, not the fixed iteration/reduction order, so a solve is
    /// deterministic for a given (system, warm seed) pair.
    ///
    /// # Errors
    ///
    /// As [`MasterEquation::solve`].
    pub fn solve_warm(
        &self,
        warm: Option<&MasterSolution>,
    ) -> Result<MasterSolution, MonteCarloError> {
        self.solve_with(warm, &mut MasterWorkspace::new())
    }

    /// Admits the window ceiling's box against the state limit, then finds
    /// the ground state every box is centred on and the rate context every
    /// round evaluates.
    fn prepare(&self) -> Result<(ChargeState, RateContext), MonteCarloError> {
        let islands = self.system.island_count();
        let span = (2 * self.window + 1) as usize;
        let state_count =
            span.checked_pow(islands as u32)
                .ok_or(MonteCarloError::StateSpaceTooLarge {
                    states: usize::MAX,
                    limit: self.max_states,
                })?;
        // More than 32 islands (3³³ states and up) would also overflow the
        // 64-bit box-edge masks.
        if state_count > self.max_states || islands > 32 {
            return Err(MonteCarloError::StateSpaceTooLarge {
                states: state_count,
                limit: self.max_states,
            });
        }
        let center = self.ground_state();
        let rate_ctx = RateContext::new(&self.system, self.temperature)?;
        Ok((center, rate_ctx))
    }

    /// The ±window ceiling box around `center`.
    fn full_window(&self, center: &ChargeState) -> ChargeBox {
        ChargeBox::around(center, &vec![[self.window; 2]; center.0.len()])
    }

    /// Assembles and solves one box, handing the buffers back to the
    /// workspace. Returns the solution with the stationary mass on each
    /// face of the box: the lower face of island `i` at `2i`, its upper
    /// face at `2i + 1`.
    fn solve_box(
        &self,
        center: &ChargeState,
        charge_box: ChargeBox,
        rate_ctx: &RateContext,
        warm: Option<&MasterSolution>,
        workspace: &mut MasterWorkspace,
    ) -> Result<(MasterSolution, Vec<f64>), MonteCarloError> {
        let assembly = self.assemble(center, charge_box, rate_ctx, workspace);
        let solution = self.solve_assembled(&assembly, warm, &mut workspace.stationary);
        workspace.rates = assembly.rates;
        workspace.out_rate = assembly.out_rate;
        solution
    }

    /// Solves an assembled box and reads its currents and face masses back
    /// from the rate buffer.
    fn solve_assembled(
        &self,
        assembly: &Assembly,
        warm: Option<&MasterSolution>,
        workspace: &mut StationaryWorkspace,
    ) -> Result<(MasterSolution, Vec<f64>), MonteCarloError> {
        let Assembly {
            ref charge_box,
            ground_index,
            ref rates,
            ..
        } = *assembly;
        let state_count = assembly.out_rate.len();
        let islands = self.system.island_count();

        // Re-index the warm seed onto this box by physical charge: the
        // walk keeps each state's charges in step with the counter.
        let warm_p: Option<Vec<f64>> = warm.and_then(|prev| {
            if prev.window != self.window || prev.charge_box.lower.len() != islands {
                return None;
            }
            let seed = if prev.charge_box == *charge_box {
                prev.probabilities.clone()
            } else {
                let mut seed = vec![0.0_f64; state_count];
                let mut charges = charge_box.lower.clone();
                let mut digits = vec![0_usize; islands];
                for slot in &mut seed {
                    if let Some(index) = prev.charge_box.index_of(&charges) {
                        *slot = prev.probabilities[index];
                    }
                    advance(&mut digits, &charge_box.span, |i, delta| {
                        charges[i] += delta
                    });
                }
                seed
            };
            // The solver re-scales the seed so the anchor carries 1; a
            // seed with no mass there cannot be used.
            (seed[ground_index] > 0.0).then_some(seed)
        });

        // The ground state anchors the iteration: its balance equation is
        // the one the normalisation condition replaces (as in the dense
        // implementation), and the regularisation in `assemble` guarantees
        // every state drains towards it.
        let options = StationaryOptions {
            solver: self.solver,
            ..StationaryOptions::default()
        };
        let (probabilities, solve_stats) = stationary_distribution_of(
            assembly,
            ground_index,
            &options,
            warm_p.as_deref(),
            workspace,
        )?;

        // Junction currents: net a→b tunnel rate weighted by the stationary
        // occupation, using the *real* event rates the assembly buffered
        // (out-of-box targets included — charge that leaves the box still
        // crossed the junction). Events keep their canonical order, so
        // junction `j` owns rate slots `2j` (a→b) and `2j + 1` (b→a). The
        // same pass sums the probability on the box boundary and on each
        // face of it.
        let mut net_rates = vec![0.0_f64; self.system.junctions().len()];
        let mut boundary_mass = 0.0_f64;
        let mut faces = vec![0.0_f64; 2 * islands];
        let mut digits = vec![0_usize; islands];
        let event_count = self.system.event_count();
        for (&p, state_rates) in probabilities.iter().zip(rates.chunks_exact(event_count)) {
            if p != 0.0 {
                for (net, pair) in net_rates.iter_mut().zip(state_rates.chunks_exact(2)) {
                    *net += p * (pair[0] - pair[1]);
                }
                let mut edges = edge_mask(&digits, &charge_box.span);
                if edges != 0 {
                    boundary_mass += p;
                }
                while edges != 0 {
                    faces[edges.trailing_zeros() as usize] += p;
                    edges &= edges - 1;
                }
            }
            advance(&mut digits, &charge_box.span, |_, _| {});
        }
        let junction_currents = self
            .system
            .junctions()
            .iter()
            .zip(&net_rates)
            .map(|(junction, &net)| (junction.name.clone(), -E * net))
            .collect();

        let solution = MasterSolution {
            probabilities,
            junction_currents,
            charge_box: charge_box.clone(),
            window: self.window,
            stats: MasterSolveStats {
                solver: solve_stats.solver,
                iterations: solve_stats.iterations,
                residual: solve_stats.residual,
                warm_started: warm_p.is_some(),
                boundary_mass,
                rounds: 1,
                box_states: state_count,
            },
        };
        Ok((solution, faces))
    }

    /// Enumerates the box and assembles the regularised generator into
    /// the workspace's rate and out-rate buffers (which the assembly holds
    /// until the caller hands them back).
    fn assemble(
        &self,
        center: &ChargeState,
        charge_box: ChargeBox,
        rate_ctx: &RateContext,
        workspace: &mut MasterWorkspace,
    ) -> Assembly {
        let islands = self.system.island_count();
        let state_count = charge_box.state_count();
        let events = self.system.events();
        let event_count = events.len();

        // The enumeration is a mixed-radix counter over the box: island
        // `i` is digit `i` with place value `span_0 · … · span_{i−1}`, so
        // the state at counter value `index` has
        // `n_i = lower_i + digit_i(index)`. An event shifts at most two
        // digits by ±1, which makes its target state a *constant* index
        // offset away — the whole generator assembles with integer
        // arithmetic, no state hashing.
        let place: Vec<i64> = charge_box
            .span
            .iter()
            .scan(1_i64, |acc, &span| {
                let p = *acc;
                *acc *= span as i64;
                Some(p)
            })
            .collect();
        let geometry: Vec<EventGeometry> = events
            .iter()
            .map(|&event| {
                let (from, to) = self.system.event_endpoints(event);
                let mut geo = EventGeometry {
                    offset: 0,
                    leaves_from: 0,
                    arrives_from: 0,
                };
                // An electron leaving island `i` cannot fire from its lower
                // edge nor arrive at its upper edge; one arriving, the
                // reverse.
                if let Endpoint::Island(i) = from {
                    geo.offset -= place[i];
                    geo.leaves_from |= LOWER << (2 * i);
                    geo.arrives_from |= UPPER << (2 * i);
                }
                if let Endpoint::Island(i) = to {
                    geo.offset += place[i];
                    geo.leaves_from |= UPPER << (2 * i);
                    geo.arrives_from |= LOWER << (2 * i);
                }
                geo
            })
            .collect();
        let ground_index = charge_box
            .index_of(&center.0)
            .expect("the ground state is inside its own box");

        // One walk of the lattice with an incrementally-updated LiveState
        // (one axpy per counter step) evaluates every state's event rates
        // once, into a `states × events` buffer the junction currents read
        // back after the solve: the walk writes each state's ΔFs, then one
        // vectorizable pass turns them into rates (bitwise `fill_rates`').
        // Rates towards states outside the box are dropped from the
        // generator entirely (they neither appear as inflows nor count into
        // the out-rate), exactly as in the dense implementation.
        let mut live = LiveState::new(&self.system, ChargeState(charge_box.lower.clone()));
        let mut digits = vec![0_usize; islands];
        let mut rates = std::mem::take(&mut workspace.rates);
        rates.clear();
        rates.resize(state_count * event_count, 0.0);
        for (index, delta_f) in rates.chunks_exact_mut(event_count).enumerate() {
            rate_ctx.fill_delta_f(&live, delta_f);
            // Advance the counter, keeping the live state in lockstep (a
            // wrap of digit `i` steps the island back by its full span; the
            // carry target steps forward by one).
            if index + 1 < state_count {
                advance(&mut digits, &charge_box.span, |i, delta| {
                    live.shift_island(&self.system, i, delta);
                });
            }
        }
        rate_ctx.rates_from_delta_f(&mut rates);
        let mut out_rate = std::mem::take(&mut workspace.out_rate);
        out_rate.clear();
        out_rate.resize(state_count, 0.0);
        let mut inflow_entries = 0;
        digits.fill(0);
        for (out, state_rates) in out_rate.iter_mut().zip(rates.chunks_exact(event_count)) {
            let edges = edge_mask(&digits, &charge_box.span);
            for (&rate, geo) in state_rates.iter().zip(&geometry) {
                if rate > 0.0 && edges & geo.leaves_from == 0 {
                    *out += rate;
                    inflow_entries += 1;
                }
            }
            advance(&mut digits, &charge_box.span, |_, _| {});
        }

        // Regularise isolated states: at low temperature every rate out of
        // a deeply blockaded state can underflow to exactly zero, leaving
        // an absorbing state that is not the ground state. A vanishingly
        // small escape rate towards the ground state (10⁻¹² of the largest
        // total out-rate) makes the chain irreducible without affecting any
        // junction current, which is computed from the real event rates
        // only.
        let rate_scale = out_rate.iter().fold(0.0_f64, |m, &v| m.max(v));
        let epsilon = 1e-12 * if rate_scale > 0.0 { rate_scale } else { 1.0 };
        for (i, out) in out_rate.iter_mut().enumerate() {
            if i != ground_index {
                *out += epsilon;
            }
        }
        Assembly {
            charge_box,
            ground_index,
            geometry,
            epsilon,
            inflow_entries,
            out_rate,
            rates,
        }
    }

    /// Assembles and returns the regularised anchored generator of the
    /// ±window ceiling box — the inflow matrix, total out-rate vector and
    /// anchor index — without solving it. This exists so benchmarks can
    /// time the stationary solvers alone on a real master-equation
    /// generator; it is not part of the supported API surface.
    ///
    /// # Errors
    ///
    /// As [`MasterEquation::solve`], for the assembly phase.
    #[doc(hidden)]
    pub fn generator(&self) -> Result<(CsrMatrix, Vec<f64>, usize), MonteCarloError> {
        let (center, rate_ctx) = self.prepare()?;
        let full = self.full_window(&center);
        let assembly = self.assemble(&center, full, &rate_ctx, &mut MasterWorkspace::new());
        let inflow = assembly.inflow()?.into_owned();
        Ok((inflow, assembly.out_rate, assembly.ground_index))
    }
}

/// Reusable buffers of [`MasterEquation::solve_with`]: the assembly's
/// `states × events` rate buffer and out-rates, and the stationary
/// solver's [`StationaryWorkspace`] (anchored stencil, ILU(0) factor,
/// Krylov and Gauss–Seidel vectors). They grow on first use; dropping the
/// workspace frees them.
#[derive(Debug, Default)]
pub struct MasterWorkspace {
    rates: Vec<f64>,
    out_rate: Vec<f64>,
    stationary: StationaryWorkspace,
}

impl MasterWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        MasterWorkspace::default()
    }
}

/// How one event moves the mixed-radix state counter.
struct EventGeometry {
    /// Index offset of the target state.
    offset: i64,
    /// The [`edge_mask`] bits of a source state the event cannot leave
    /// without landing outside the box.
    leaves_from: u64,
    /// The [`edge_mask`] bits of a target state the event cannot reach from
    /// inside the box.
    arrives_from: u64,
}

/// [`edge_mask`] bit of an island at the lower edge of its charge range.
const LOWER: u64 = 1;
/// [`edge_mask`] bit of an island at the upper edge of its charge range.
const UPPER: u64 = 2;

/// Which islands of the state with these digits sit at a box edge: bit
/// `2i` for the lower edge of island `i`, bit `2i + 1` for the upper
/// (`prepare` admits at most 32 islands).
fn edge_mask(digits: &[usize], span: &[usize]) -> u64 {
    digits
        .iter()
        .zip(span)
        .enumerate()
        .fold(0, |mask, (i, (&d, &span))| {
            let bits = if d == 0 { LOWER } else { 0 } | if d == span - 1 { UPPER } else { 0 };
            mask | bits << (2 * i)
        })
}

/// Steps the mixed-radix counter by one, reporting each digit move to
/// `shift` as `(island, Δcharge)`: a wrapped digit first, then its carry.
fn advance(digits: &mut [usize], span: &[usize], mut shift: impl FnMut(usize, i64)) {
    for (i, (digit, &span)) in digits.iter_mut().zip(span).enumerate() {
        *digit += 1;
        if *digit < span {
            shift(i, 1);
            return;
        }
        *digit = 0;
        shift(i, -(span as i64 - 1));
    }
}

/// The assembled generator of one enumeration box: the event rates of
/// every state and the regularised out-rates. The stationary solvers read
/// it through [`Generator`] — stamped straight into the anchored stencil
/// on the Krylov path, as an inflow matrix for the Gauss–Seidel sweep.
struct Assembly {
    charge_box: ChargeBox,
    ground_index: usize,
    geometry: Vec<EventGeometry>,
    /// The regularising escape rate of every state into the ground state.
    epsilon: f64,
    /// In-box inflow entries, the ε entries aside.
    inflow_entries: usize,
    out_rate: Vec<f64>,
    /// Every event rate of every state, `states × events` in canonical
    /// event order.
    rates: Vec<f64>,
}

impl Assembly {
    /// Calls `visit(target, event, source, rate)` for every in-box inflow
    /// of positive rate: targets ascending, and within a target its
    /// sources `target − offset_e` ascending (events by descending
    /// offset), events with one offset in canonical order.
    fn for_each_inflow(&self, mut visit: impl FnMut(usize, usize, usize, f64)) {
        let event_count = self.geometry.len();
        let mut by_source: Vec<(usize, i64, u64)> = self
            .geometry
            .iter()
            .enumerate()
            .map(|(e, geo)| (e, geo.offset, geo.arrives_from))
            .collect();
        by_source.sort_by_key(|&(_, offset, _)| Reverse(offset));
        let span = &self.charge_box.span;
        let mut digits = vec![0_usize; span.len()];
        for target in 0..self.out_rate.len() {
            let edges = edge_mask(&digits, span);
            for &(e, offset, arrives_from) in &by_source {
                if edges & arrives_from != 0 {
                    continue;
                }
                let source = (target as i64 - offset) as usize;
                let rate = self.rates[source * event_count + e];
                if rate > 0.0 {
                    visit(target, e, source, rate);
                }
            }
            advance(&mut digits, span, |_, _| {});
        }
    }
}

impl Generator for Assembly {
    fn out_rate(&self) -> &[f64] {
        &self.out_rate
    }

    /// The inflow rows in [`Assembly::for_each_inflow`] order, the anchor
    /// row's ε entries last in it.
    fn inflow(&self) -> Result<Cow<'_, CsrMatrix>, NumericError> {
        let (n, anchor) = (self.out_rate.len(), self.ground_index);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let nnz = self.inflow_entries + n - 1;
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        // Ends every row before `row`.
        let mut end_rows_before = |row: usize, col_idx: &mut Vec<usize>, values: &mut Vec<f64>| {
            while row_ptr.len() <= row {
                if row_ptr.len() - 1 == anchor {
                    for source in (0..n).filter(|&j| j != anchor) {
                        col_idx.push(source);
                        values.push(self.epsilon);
                    }
                }
                row_ptr.push(col_idx.len());
            }
        };
        self.for_each_inflow(|target, _, source, rate| {
            end_rows_before(target, &mut col_idx, &mut values);
            col_idx.push(source);
            values.push(rate);
        });
        end_rows_before(n, &mut col_idx, &mut values);
        CsrMatrix::from_parts(n, n, row_ptr, col_idx, values).map(Cow::Owned)
    }

    /// Event `e` lands in the lane of column offset `−offset_e`; a slot's
    /// events arrive in canonical order. The anchor row's ε entries belong
    /// to an identity row and are never stamped.
    fn stamp(&self, system: &mut AnchoredStencil) {
        let lanes: Vec<_> = self
            .geometry
            .iter()
            .map(|geo| system.lane(-geo.offset as isize))
            .collect();
        self.for_each_inflow(|target, e, _, rate| system.add_inflow(lanes[e], target, rate));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use se_numeric::krylov::{
        reference, stationary_bicgstab, stationary_bicgstab_of, KrylovOptions, KrylovWorkspace,
    };
    use se_numeric::sparse::SolveStats;
    use se_numeric::{NumericError, Preconditioner};
    use se_orthodox::TunnelSystemBuilder;

    /// The assembly the single walk replaced, kept as its bit-identity
    /// reference: one `ChargeState` per state, `(row, col, rate)` triplets
    /// in walk order, the ε triplets appended, then `from_triplets`.
    fn reference_assembly(me: &MasterEquation) -> (Vec<ChargeState>, CsrMatrix, Vec<f64>, usize) {
        let system = &me.system;
        let islands = system.island_count();
        let span = (2 * me.window + 1) as usize;
        let state_count = span.pow(islands as u32);
        let center = me.ground_state();
        let rate_ctx = RateContext::new(system, me.temperature).unwrap();
        let place: Vec<i64> = (0..islands).map(|i| span.pow(i as u32) as i64).collect();
        let geometry: Vec<(i64, Vec<(usize, i64)>)> = system
            .events()
            .iter()
            .map(|&event| {
                let (from, to) = system.event_endpoints(event);
                let mut moves = Vec::new();
                if let Endpoint::Island(i) = from {
                    moves.push((i, -1_i64));
                }
                if let Endpoint::Island(i) = to {
                    moves.push((i, 1_i64));
                }
                (moves.iter().map(|&(i, d)| d * place[i]).sum(), moves)
            })
            .collect();
        let ground_index = (0..islands).map(|i| me.window * place[i]).sum::<i64>() as usize;
        let first = ChargeState(center.0.iter().map(|&c| c - me.window).collect());
        let mut live = LiveState::new(system, first);
        let mut digits = vec![0_usize; islands];
        let spans = vec![span; islands];
        let mut states = Vec::new();
        let mut out_rate = vec![0.0_f64; state_count];
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut scratch = Vec::new();
        for (index, out) in out_rate.iter_mut().enumerate() {
            states.push(live.state().clone());
            rate_ctx.fill_rates(system, &live, &mut scratch);
            for (e, (offset, moves)) in geometry.iter().enumerate() {
                let rate = scratch[e];
                let in_window = moves
                    .iter()
                    .all(|&(i, d)| (0..span as i64).contains(&(digits[i] as i64 + d)));
                if rate > 0.0 && in_window {
                    triplets.push(((index as i64 + offset) as usize, index, rate));
                    *out += rate;
                }
            }
            if index + 1 < state_count {
                advance(&mut digits, &spans, |i, delta| {
                    live.shift_island(system, i, delta)
                });
            }
        }
        let rate_scale = out_rate.iter().fold(0.0_f64, |m, &v| m.max(v));
        let epsilon = 1e-12 * if rate_scale > 0.0 { rate_scale } else { 1.0 };
        for (i, out) in out_rate.iter_mut().enumerate() {
            if i != ground_index {
                triplets.push((ground_index, i, epsilon));
                *out += epsilon;
            }
        }
        let inflow = CsrMatrix::from_triplets(state_count, state_count, &triplets).unwrap();
        (states, inflow, out_rate, ground_index)
    }

    /// The currents the single walk replaced: a second lattice walk that
    /// re-evaluates the rates of every state with nonzero probability.
    fn reference_currents(me: &MasterEquation, states: &[ChargeState], p: &[f64]) -> Vec<f64> {
        let system = &me.system;
        let rate_ctx = RateContext::new(system, me.temperature).unwrap();
        let spans = vec![(2 * me.window + 1) as usize; system.island_count()];
        let mut live = LiveState::new(system, states[0].clone());
        let mut digits = vec![0_usize; spans.len()];
        let mut net = vec![0.0_f64; system.junctions().len()];
        let mut scratch = Vec::new();
        for (index, &pi) in p.iter().enumerate() {
            if pi != 0.0 {
                rate_ctx.fill_rates(system, &live, &mut scratch);
                for (j, net) in net.iter_mut().enumerate() {
                    *net += pi * (scratch[2 * j] - scratch[2 * j + 1]);
                }
            }
            if index + 1 < p.len() {
                advance(&mut digits, &spans, |i, delta| {
                    live.shift_island(system, i, delta)
                });
            }
        }
        net.iter().map(|&n| -E * n).collect()
    }

    /// A random circuit of `min_islands`–4 islands: a drain–islands–source
    /// chain, extra lead junctions (two events with one index offset),
    /// optional gates and background charges, at a temperature from 0 K
    /// (no thermal rates) through 0.05 K (frozen events beyond 500 kT) to
    /// 100 K.
    fn random_circuit(seed: u64, min_islands: u64) -> (TunnelSystem, f64) {
        let mut rng = proptest::TestRng::deterministic(&seed.to_string());
        let mut b = TunnelSystemBuilder::new();
        let drain = b.external("drain", 0.2 * rng.unit_f64() - 0.1);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", 0.4 * rng.unit_f64() - 0.2);
        let islands: Vec<Endpoint> = (0..min_islands + rng.below(5 - min_islands))
            .map(|i| b.island(format!("i{i}"), if rng.below(2) == 0 { 0.0 } else { 0.3 }))
            .collect();
        let mut previous = drain;
        for (k, &island) in islands.iter().enumerate() {
            b.junction(
                format!("J{k}"),
                previous,
                island,
                0.6e-18,
                1e5 + 4e4 * k as f64,
            );
            if rng.below(2) == 0 {
                b.capacitor(format!("CG{k}"), gate, island, 0.4e-18 * (1 + k) as f64);
            }
            previous = island;
        }
        b.junction("Jout", previous, source, 0.5e-18, 1.5e5);
        for k in 0..rng.below(3) {
            let island = islands[rng.below(islands.len() as u64) as usize];
            let lead = if rng.below(2) == 0 { drain } else { source };
            b.junction(format!("Jx{k}"), lead, island, 0.3e-18, 2e5);
        }
        let temperature = [0.0, 0.05, 1.0, 4.2, 30.0, 100.0][rng.below(6) as usize];
        (b.build().unwrap(), temperature)
    }

    /// Asserts that a Krylov solve returned the reference's bits: the
    /// distribution and its statistics, or the same error.
    fn assert_same_solve(
        got: &Result<(Vec<f64>, SolveStats), NumericError>,
        expected: &Result<(Vec<f64>, SolveStats), NumericError>,
    ) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (got, expected) {
            (Ok((p, stats)), Ok((q, want))) => {
                assert_eq!(bits(p), bits(q));
                assert_eq!(stats.solver, want.solver);
                assert_eq!(stats.iterations, want.iterations);
                assert_eq!(stats.residual.to_bits(), want.residual.to_bits());
            }
            (Err(a), Err(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}")),
            (a, b) => panic!("stencil {a:?} vs reference {b:?}"),
        }
    }

    /// Solves one circuit both ways and asserts every bit agrees: the
    /// generator rows, the out-rates, the anchored system and ILU(0)
    /// factor — stamped straight from the rate buffer and from the inflow
    /// matrix — with both preconditioners, cold and warm, the Krylov
    /// result or error, the accepted distribution and its provenance, the
    /// currents, the occupations and the state list.
    fn assert_matches_reference(system: TunnelSystem, temperature: f64, window: i64) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let me = MasterEquation::new(system, temperature)
            .unwrap()
            .with_window(window)
            .unwrap();
        let (states, ref_inflow, ref_out, ref_anchor) = reference_assembly(&me);
        let (inflow, out_rate, anchor) = me.generator().unwrap();
        assert_eq!(anchor, ref_anchor);
        assert_eq!(bits(&out_rate), bits(&ref_out));
        assert_eq!(inflow.rows(), ref_inflow.rows());
        for r in 0..inflow.rows() {
            let ((cols, vals), (ref_cols, ref_vals)) = (inflow.row(r), ref_inflow.row(r));
            assert_eq!((cols, bits(vals)), (ref_cols, bits(ref_vals)), "row {r}");
        }

        let defaults = StationaryOptions::default();
        let (center, rate_ctx) = me.prepare().unwrap();
        let full = me.full_window(&center);
        let assembly = me.assemble(&center, full, &rate_ctx, &mut MasterWorkspace::new());
        let seed: Vec<f64> = (0..out_rate.len()).map(|i| 1.0 + (i % 7) as f64).collect();
        let mut ref_krylov = None;
        for preconditioner in [Preconditioner::Ilu0, Preconditioner::Jacobi] {
            for warm in [None, Some(&seed[..])] {
                let options = KrylovOptions {
                    preconditioner,
                    tolerance: defaults.tolerance,
                    max_iterations: (defaults.max_sweeps / 20).clamp(64, 1024),
                };
                let (expected, ref_system) =
                    reference::stationary_bicgstab(&ref_inflow, &ref_out, anchor, &options, warm);
                let mut ws = KrylovWorkspace::new();
                let direct = stationary_bicgstab_of(&assembly, anchor, &options, warm, &mut ws);
                assert_eq!(ws.anchored_system().bits(), ref_system.bits());
                assert_same_solve(&direct, &expected);
                let csr = stationary_bicgstab(&inflow, &out_rate, anchor, &options, warm, &mut ws);
                assert_eq!(ws.anchored_system().bits(), ref_system.bits());
                assert_same_solve(&csr, &expected);
                if StationarySolver::Krylov(preconditioner) == defaults.solver && warm.is_none() {
                    ref_krylov = Some(expected);
                }
            }
        }
        let expected: Result<(Vec<f64>, &str, usize, f64), NumericError> =
            match ref_krylov.expect("the cold solve with the default preconditioner ran") {
                Ok((p, stats)) => Ok((p, stats.solver, stats.iterations, stats.residual)),
                Err(_) => {
                    let gauss_seidel = StationaryOptions {
                        solver: StationarySolver::GaussSeidel,
                        ..defaults
                    };
                    se_numeric::sparse::stationary_distribution(
                        &ref_inflow,
                        &ref_out,
                        anchor,
                        &gauss_seidel,
                    )
                    .map(|p| (p, "gauss-seidel(fallback)", 0, 0.0))
                }
            };

        match (
            me.solve_full_window(None, &mut MasterWorkspace::new()),
            expected,
        ) {
            (Ok(solution), Ok((p, solver, iterations, residual))) => {
                assert_eq!(bits(solution.probabilities()), bits(&p));
                assert_eq!(solution.stats().solver, solver);
                if solver.starts_with("bicgstab") {
                    assert_eq!(solution.stats().iterations, iterations);
                    assert_eq!(solution.stats().residual.to_bits(), residual.to_bits());
                }
                let currents = reference_currents(&me, &states, &p);
                for (junction, current) in me.system.junctions().iter().zip(currents) {
                    let got = solution.junction_current(&junction.name).unwrap();
                    assert_eq!(got.to_bits(), current.to_bits(), "{}", junction.name);
                }
                assert!(solution.states().eq(states.iter().cloned()));
                for island in 0..me.system.island_count() {
                    let mean: f64 = states
                        .iter()
                        .zip(&p)
                        .map(|(s, &p)| p * s.0[island] as f64)
                        .sum();
                    assert_eq!(solution.mean_occupation(island).to_bits(), mean.to_bits());
                }
                for (state, &p) in states.iter().zip(&p).step_by(7) {
                    assert_eq!(solution.probability_of(state).to_bits(), p.to_bits());
                }
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), MonteCarloError::from(b).to_string()),
            (a, b) => panic!("single walk {a:?} vs reference {b:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The single-walk assembly and the stencil Krylov kernel, stamped
        /// from the rate buffer or from the inflow matrix, reproduce the
        /// triplet assembly, the unfused CSR kernel and the two-walk
        /// currents bit for bit on random circuits and windows.
        #[test]
        fn prop_single_walk_solve_matches_the_triplet_reference(
            seed in 0_u64..u64::MAX,
            window in 1_i64..=3,
        ) {
            let (system, temperature) = random_circuit(seed, 1);
            assert_matches_reference(system, temperature, window);
        }
    }

    #[test]
    fn single_walk_solve_matches_the_triplet_reference_on_edge_cases() {
        let cg = 1e-18;
        // An SET: drain and source junctions on one island, so two events
        // share each index offset; hot, at 0 K and with frozen events.
        // Then the same SET with a lead-to-lead junction, whose events move
        // no island charge (offset 0: they merge into the diagonal), and a
        // double dot fed by two parallel drain junctions (four events on
        // two shared offsets).
        for temperature in [0.0, 0.05, 4.2, 100.0] {
            for window in 1..=3 {
                assert_matches_reference(set_system(1e-3, 0.3 * E / cg, 0.1), temperature, window);
                assert_matches_reference(lead_to_lead_system(), temperature, window);
                assert_matches_reference(parallel_junction_system(), temperature, window);
            }
        }
    }

    /// An SET whose drain and source are also joined by a junction.
    fn lead_to_lead_system() -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", 0.05);
        let drain = b.external("drain", 2e-3);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", 0.04);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        b.junction("JL", drain, source, 0.2e-18, 300e3);
        b.capacitor("CG", gate, island, 1e-18);
        b.build().unwrap()
    }

    /// A double dot whose first island hangs on two parallel drain
    /// junctions.
    fn parallel_junction_system() -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let i1 = b.island("i1", 0.0);
        let i2 = b.island("i2", 0.2);
        let drain = b.external("drain", 5e-3);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", 0.06);
        b.junction("JA", drain, i1, 0.4e-18, 100e3);
        b.junction("JB", drain, i1, 0.3e-18, 250e3);
        b.junction("JM", i1, i2, 0.5e-18, 120e3);
        b.junction("JS", i2, source, 0.5e-18, 100e3);
        b.capacitor("CG", gate, i2, 1e-18);
        b.build().unwrap()
    }

    /// Point (`drain`, `gate`) of the 8×8 map of the `master_map` deck's
    /// shape: a 4-island chain, drain −0.2…0.2 V, gate 0…0.16 V.
    fn master_map_system(drain: usize, gate: usize) -> TunnelSystem {
        let at = |k: usize, lo: f64, hi: f64| lo + (hi - lo) * k as f64 / 7.0;
        let mut b = TunnelSystemBuilder::new();
        let drain = b.external("drain", at(drain, -0.2, 0.2));
        let source = b.external("source", 0.0);
        let gate = b.external("gate", at(gate, 0.0, 0.16));
        let mut previous = drain;
        for i in 0..4 {
            let island = b.island(format!("island{i}"), 0.0);
            b.junction(format!("J{i}"), previous, island, 0.5e-18, 100e3);
            b.capacitor(format!("CG{i}"), gate, island, 1e-18);
            previous = island;
        }
        b.junction("J4", previous, source, 0.5e-18, 100e3);
        b.build().unwrap()
    }

    /// The 4.2 K point of the `master_map` shape (window ±5, 14 641
    /// states) where BiCGSTAB with ILU(0) breaks down.
    fn master_map_fallback_system() -> TunnelSystem {
        master_map_system(4, 6)
    }

    /// The `master_map` point where ILU(0) breaks down and the Gauss–Seidel
    /// fallback finishes the solve: with the default solver it matches the
    /// reference bit for bit, and with ILU(0) selected it keeps the
    /// fingerprint of its distribution and currents from before the
    /// stencil solver.
    #[test]
    fn master_map_fallback_point_keeps_its_bits() {
        let system = master_map_fallback_system();
        assert_matches_reference(system.clone(), 4.2, 5);

        let solution = MasterEquation::new(system, 4.2)
            .unwrap()
            .with_window(5)
            .unwrap()
            .with_solver(StationarySolver::Krylov(Preconditioner::Ilu0))
            .solve_full_window(None, &mut MasterWorkspace::new())
            .unwrap();
        assert_eq!(solution.stats().solver, "gauss-seidel(fallback)");
        assert_eq!(solution.stats().iterations, 42);
        // FNV-1a over the probability bits, then the currents J0..J4.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let currents = (0..5).map(|j| solution.junction_current(&format!("J{j}")).unwrap());
        for value in solution.probabilities().iter().copied().chain(currents) {
            for byte in value.to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0xec8a_6543_e549_7034);
    }

    fn set_system(vds: f64, vg: f64, q0: f64) -> TunnelSystem {
        let mut b = TunnelSystemBuilder::new();
        let island = b.island("island", q0);
        let drain = b.external("drain", vds);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("JD", drain, island, 0.5e-18, 100e3);
        b.junction("JS", island, source, 0.5e-18, 100e3);
        b.capacitor("CG", gate, island, 1e-18);
        b.build().unwrap()
    }

    #[test]
    fn rejects_invalid_arguments() {
        let system = set_system(0.0, 0.0, 0.0);
        assert!(MasterEquation::new(system.clone(), -1.0).is_err());
        let me = MasterEquation::new(system, 1.0).unwrap();
        assert!(me.clone().with_window(0).is_err());
        assert!(me.clone().with_max_states(0).is_err());
    }

    #[test]
    fn probabilities_are_normalised_and_non_negative() {
        let me = MasterEquation::new(set_system(1e-3, 0.05, 0.0), 4.2).unwrap();
        let solution = me.solve().unwrap();
        let total: f64 = solution.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(solution.probabilities().iter().all(|&p| p >= 0.0));
        assert_eq!(solution.states().len(), solution.probabilities().len());
    }

    #[test]
    fn blockade_keeps_island_neutral() {
        let me = MasterEquation::new(set_system(1e-4, 0.0, 0.0), 1.0).unwrap();
        let solution = me.solve().unwrap();
        let neutral = ChargeState(vec![0]);
        assert!(solution.probability_of(&neutral) > 0.99);
        // Charges far outside the box, or of the wrong island count, hold
        // no probability.
        for far in [vec![i64::MAX], vec![i64::MIN], vec![0, 0]] {
            assert_eq!(solution.probability_of(&ChargeState(far)), 0.0);
        }
        assert!(solution.mean_occupation(0).abs() < 0.01);
        // And the blockade current is vanishingly small.
        let i = solution.junction_current("JD").unwrap();
        assert!(i.abs() < 1e-15, "blockade current {i}");
    }

    #[test]
    fn current_continuity_between_junctions() {
        let cg = 1e-18;
        let vg = E / (2.0 * cg);
        let me = MasterEquation::new(set_system(1e-3, vg, 0.0), 1.0).unwrap();
        let solution = me.solve().unwrap();
        let i_d = solution.junction_current("JD").unwrap();
        let i_s = solution.junction_current("JS").unwrap();
        assert!(i_d.abs() > 1e-12);
        assert!(
            (i_d - i_s).abs() < 1e-6 * i_d.abs(),
            "continuity violated: {i_d} vs {i_s}"
        );
    }

    #[test]
    fn master_equation_matches_single_set_reference() {
        // The generic multi-island solver must agree with the specialised
        // birth–death solution in `se-orthodox::set`.
        let cg = 1e-18;
        let vds = 1e-3;
        let temperature = 1.0;
        let set =
            se_orthodox::set::SingleElectronTransistor::new(cg, 0.5e-18, 0.5e-18, 100e3, 100e3)
                .unwrap();
        for vg_frac in [0.1, 0.25, 0.5, 0.75] {
            let vg = vg_frac * E / cg;
            let me = MasterEquation::new(set_system(vds, vg, 0.0), temperature).unwrap();
            let solution = me.solve().unwrap();
            let i_master = solution.junction_current("JD").unwrap();
            let i_ref = set.current(vds, vg, 0.0, temperature).unwrap();
            let scale = i_ref.abs().max(1e-15);
            assert!(
                (i_master - i_ref).abs() < 0.02 * scale + 1e-15,
                "vg fraction {vg_frac}: master {i_master} vs reference {i_ref}"
            );
        }
    }

    #[test]
    fn ground_state_follows_gate_charge() {
        // Gate charge of ~2 e pulls two electrons onto the island.
        let cg = 1e-18;
        let vg = 2.0 * E / cg;
        let me = MasterEquation::new(set_system(0.0, vg, 0.0), 0.1).unwrap();
        let ground = me.ground_state();
        assert_eq!(ground.0, vec![2]);
    }

    #[test]
    fn state_space_limit_is_enforced() {
        // A 2-island system with a huge window (1601² states) exceeds the
        // default 2M limit.
        let mut b = TunnelSystemBuilder::new();
        let i1 = b.island("i1", 0.0);
        let i2 = b.island("i2", 0.0);
        let s = b.external("s", 0.0);
        b.junction("J1", s, i1, 1e-18, 1e5);
        b.junction("J2", i1, i2, 1e-18, 1e5);
        b.junction("J3", i2, s, 1e-18, 1e5);
        let system = b.build().unwrap();
        let me = MasterEquation::new(system.clone(), 1.0)
            .unwrap()
            .with_window(800)
            .unwrap();
        assert!(matches!(
            me.solve(),
            Err(MonteCarloError::StateSpaceTooLarge { .. })
        ));
        // A caller-supplied limit tightens the guard further.
        let small = MasterEquation::new(system, 1.0)
            .unwrap()
            .with_max_states(10)
            .unwrap();
        assert!(matches!(
            small.solve(),
            Err(MonteCarloError::StateSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn double_dot_solution_is_normalised() {
        let mut b = TunnelSystemBuilder::new();
        let i1 = b.island("i1", 0.0);
        let i2 = b.island("i2", 0.0);
        let s = b.external("s", 1e-3);
        let d = b.external("d", 0.0);
        let g = b.external("g", 0.05);
        b.junction("J1", s, i1, 1e-18, 1e5);
        b.junction("J2", i1, i2, 1e-18, 1e5);
        b.junction("J3", i2, d, 1e-18, 1e5);
        b.capacitor("Cg1", g, i1, 0.5e-18);
        b.capacitor("Cg2", g, i2, 0.5e-18);
        let system = b.build().unwrap();
        let me = MasterEquation::new(system, 4.2)
            .unwrap()
            .with_window(2)
            .unwrap();
        let solution = me.solve().unwrap();
        let total: f64 = solution.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Current continuity through the series chain.
        let i1c = solution.junction_current("J1").unwrap();
        let i3c = solution.junction_current("J3").unwrap();
        assert!((i1c - i3c).abs() < 1e-6 * i1c.abs().max(1e-18));
    }

    #[test]
    fn solver_selections_agree_and_report_provenance() {
        let cg = 1e-18;
        let vg = E / (2.0 * cg);
        let gs = MasterEquation::new(set_system(1e-3, vg, 0.0), 1.0)
            .unwrap()
            .with_solver(StationarySolver::GaussSeidel);
        let reference = gs.solve().unwrap();
        assert_eq!(reference.stats().solver, "gauss-seidel");
        assert!(reference.stats().iterations > 0);
        assert!(!reference.stats().warm_started);
        let krylov = MasterEquation::new(set_system(1e-3, vg, 0.0), 1.0).unwrap();
        let solution = krylov.solve().unwrap();
        assert_eq!(solution.stats().solver, "bicgstab-jacobi");
        for (a, b) in solution
            .probabilities()
            .iter()
            .zip(reference.probabilities())
        {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        let i_gs = reference.junction_current("JD").unwrap();
        let i_kr = solution.junction_current("JD").unwrap();
        assert!((i_gs - i_kr).abs() < 1e-8 * i_gs.abs().max(1e-18));
    }

    /// One workspace carried through a large window, a smaller one and
    /// other circuits, with each preconditioner and through a Gauss–Seidel
    /// fallback, solves every one of them to the bits of a fresh
    /// workspace: the full window, and the grown box, whose rounds leave
    /// the workspace at each box size in turn.
    #[test]
    fn a_reused_workspace_keeps_every_bit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut workspace = MasterWorkspace::new();
        let mut check = |solver, (system, temperature, window): &(TunnelSystem, f64, i64)| {
            let me = MasterEquation::new(system.clone(), *temperature)
                .unwrap()
                .with_window(*window)
                .unwrap()
                .with_solver(solver);
            let solver_name = |s: &Result<MasterSolution, _>| s.as_ref().unwrap().stats().solver;
            let pairs = [
                (
                    me.solve_full_window(None, &mut MasterWorkspace::new()),
                    me.solve_full_window(None, &mut workspace),
                ),
                (me.solve(), me.solve_with(None, &mut workspace)),
            ];
            let name = solver_name(&pairs[0].0);
            for (fresh, reused) in pairs {
                let (fresh, reused) = (fresh.unwrap(), reused.unwrap());
                assert_eq!(bits(reused.probabilities()), bits(fresh.probabilities()));
                let stats = (reused.stats(), fresh.stats());
                assert_eq!(stats.0.solver, stats.1.solver);
                assert_eq!(stats.0.iterations, stats.1.iterations);
                assert_eq!(stats.0.residual.to_bits(), stats.1.residual.to_bits());
                assert_eq!(
                    stats.0.boundary_mass.to_bits(),
                    stats.1.boundary_mass.to_bits()
                );
                assert_eq!(
                    (stats.0.rounds, stats.0.box_states),
                    (stats.1.rounds, stats.1.box_states)
                );
                assert!(reused.states().eq(fresh.states()));
                for junction in me.system().junctions() {
                    let current = |s: &MasterSolution| s.junction_current(&junction.name).unwrap();
                    assert_eq!(current(&reused).to_bits(), current(&fresh).to_bits());
                }
            }
            name
        };
        let double_dot = |window| {
            let mut b = TunnelSystemBuilder::new();
            let i1 = b.island("i1", 0.1);
            let i2 = b.island("i2", 0.0);
            let s = b.external("s", 4e-3);
            let d = b.external("d", 0.0);
            b.junction("J1", s, i1, 1e-18, 1e5);
            b.junction("J2", i1, i2, 1e-18, 1e5);
            b.junction("J3", i2, d, 1e-18, 1e5);
            (b.build().unwrap(), 30.0, window)
        };
        let cases = [
            double_dot(6),
            double_dot(2),
            (set_system(1e-3, 0.3 * E / 1e-18, 0.1), 4.2, 3),
            (parallel_junction_system(), 100.0, 2),
            (lead_to_lead_system(), 0.0, 1),
            (master_map_fallback_system(), 100.0, 5),
        ];
        let (ilu0, jacobi) = (
            StationarySolver::Krylov(Preconditioner::Ilu0),
            StationarySolver::Krylov(Preconditioner::Jacobi),
        );
        for solver in [ilu0, jacobi] {
            for case in &cases {
                check(solver, case);
            }
        }
        let fallback = (master_map_fallback_system(), 4.2, 5);
        assert_eq!(check(ilu0, &fallback), "gauss-seidel(fallback)");
        check(jacobi, &cases[0]);
    }

    /// The full ceiling window's solution, the grown box's, and the full
    /// window's regularising escape rate ε.
    fn solve_both(me: &MasterEquation) -> (MasterSolution, MasterSolution, f64) {
        let full = me
            .solve_full_window(None, &mut MasterWorkspace::new())
            .unwrap();
        let (center, rate_ctx) = me.prepare().unwrap();
        let ceiling = me.full_window(&center);
        let epsilon = me
            .assemble(&center, ceiling, &rate_ctx, &mut MasterWorkspace::new())
            .epsilon;
        (full, me.solve().unwrap(), epsilon)
    }

    /// Asserts the grown box's error contract on solutions of one circuit
    /// family that share one peak current: every junction current of the
    /// grown box is within `1e-8·|I| + 1e-12·peak|I| + e·ε` of the full
    /// window's, and the mass the full window holds outside the grown box
    /// is no more than the grown box's own boundary mass.
    ///
    /// The `e·ε` term is the regularisation floor: the escape rate ε
    /// (10⁻¹² of the box's largest out-rate) returns probability to the
    /// ground state without crossing a junction, so neither solve
    /// conserves current below `e·ε`, and ε grows with the box. On a
    /// blockaded 4.2 K `master_map` point the full ±5 window carries
    /// 1.55382e-14 A through J0–J2 but 1.55598e-14 A through J3–J4, a
    /// mismatch of exactly its `e·ε` (2.2e-17 A).
    fn assert_error_contract(
        solved: &[(MasterSolution, MasterSolution, f64)],
        junctions: &[String],
    ) {
        let peak = solved
            .iter()
            .flat_map(|(full, ..)| junctions.iter().map(|j| full.junction_current(j).unwrap()))
            .fold(0.0_f64, |m, i| m.max(i.abs()));
        for (point, (full, grown, epsilon)) in solved.iter().enumerate() {
            for j in junctions {
                let (want, got) = (
                    full.junction_current(j).unwrap(),
                    grown.junction_current(j).unwrap(),
                );
                assert!(
                    (got - want).abs() <= 1e-8 * want.abs() + 1e-12 * peak + E * epsilon,
                    "point {point}, {j}: grown box {got:e} vs full window {want:e} \
                     (peak {peak:e}, ε {epsilon:e})"
                );
            }
            let dropped: f64 = full
                .states()
                .zip(full.probabilities())
                .filter(|(state, _)| grown.charge_box.index_of(&state.0).is_none())
                .map(|(_, &p)| p)
                .sum();
            assert!(
                dropped <= grown.stats().boundary_mass,
                "point {point}: {dropped:e} dropped, boundary mass {:e}",
                grown.stats().boundary_mass
            );
        }
    }

    /// The error contract of [`FACE_TOLERANCE`] against the full ceiling
    /// window, on seeds and maps fixed before any result was seen: 40
    /// random 2–4-island circuits (ceiling ±4, each its own peak) and the
    /// `master_map` chain's 8×8 drain × gate map (ceiling ±5) at 4.2 K and
    /// at 100 K.
    #[test]
    fn the_grown_box_keeps_the_error_contract() {
        let names = |system: &TunnelSystem| -> Vec<String> {
            system.junctions().iter().map(|j| j.name.clone()).collect()
        };
        for seed in 0..40 {
            let (system, temperature) = random_circuit(seed, 2);
            let me = MasterEquation::new(system, temperature)
                .unwrap()
                .with_window(4)
                .unwrap();
            assert_error_contract(&[solve_both(&me)], &names(me.system()));
        }
        for temperature in [4.2, 100.0] {
            let solved: Vec<_> = (0..64)
                .map(|point| {
                    let chain = master_map_system(point % 8, point / 8);
                    let me = MasterEquation::new(chain, temperature)
                        .unwrap()
                        .with_window(5)
                        .unwrap();
                    solve_both(&me)
                })
                .collect();
            assert_error_contract(&solved, &names(&master_map_system(0, 0)));
        }
    }

    #[test]
    fn warm_started_solve_agrees_with_cold_start_across_a_bias_step() {
        let cg = 1e-18;
        let me = |vg_frac: f64| {
            MasterEquation::new(set_system(1e-3, vg_frac * E / cg, 0.0), 1.0).unwrap()
        };
        let previous = me(0.48).solve().unwrap();
        // The next bias point may shift the window center; the warm solve
        // must land on the cold solution regardless.
        let cold = me(0.52).solve().unwrap();
        let warm = me(0.52).solve_warm(Some(&previous)).unwrap();
        assert!(warm.stats().warm_started);
        assert!(!cold.stats().warm_started);
        for (a, b) in warm.probabilities().iter().zip(cold.probabilities()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
        let i_cold = cold.junction_current("JD").unwrap();
        let i_warm = warm.junction_current("JD").unwrap();
        assert!((i_cold - i_warm).abs() < 1e-8 * i_cold.abs().max(1e-18));
    }

    #[test]
    fn incompatible_warm_seeds_fall_back_to_cold_start() {
        let cg = 1e-18;
        let system = || set_system(1e-3, 0.5 * E / cg, 0.0);
        let cold = MasterEquation::new(system(), 1.0).unwrap().solve().unwrap();
        // A seed from a different window half-width is rejected outright.
        let narrow = MasterEquation::new(system(), 1.0)
            .unwrap()
            .with_window(2)
            .unwrap()
            .solve()
            .unwrap();
        let solved = MasterEquation::new(system(), 1.0)
            .unwrap()
            .solve_warm(Some(&narrow))
            .unwrap();
        assert!(!solved.stats().warm_started);
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(solved.probabilities()), bits(cold.probabilities()));
    }

    #[test]
    fn boundary_mass_falls_as_the_window_grows() {
        // A hot SET (kT ≈ 0.65 E_c at 300 K) spreads over several charge
        // states, so a narrow window truncates real probability; widening
        // it must shrink the mass on the window edge towards nothing.
        let cg = 1e-18;
        let masses: Vec<f64> = (1..=4)
            .map(|window| {
                MasterEquation::new(set_system(1e-3, 0.3 * E / cg, 0.0), 300.0)
                    .unwrap()
                    .with_window(window)
                    .unwrap()
                    .solve()
                    .unwrap()
                    .stats()
                    .boundary_mass
            })
            .collect();
        assert!(masses[0] > 0.1, "±1 window edge carries {}", masses[0]);
        for pair in masses.windows(2) {
            assert!(pair[1] < 0.1 * pair[0], "boundary mass {masses:?}");
        }
        assert!(masses[3] < 1e-6, "±4 window edge carries {}", masses[3]);
        // A cold blockaded SET sits on its ground state, far from any edge.
        let cold = MasterEquation::new(set_system(1e-4, 0.0, 0.0), 1.0)
            .unwrap()
            .solve()
            .unwrap();
        assert!(cold.stats().boundary_mass < 1e-30);
    }

    #[test]
    fn state_spaces_beyond_the_old_dense_limit_solve() {
        // A full 2-island window of ±100 enumerates 201² = 40 401 states —
        // past the old dense-LU cap of 20 000 — and still solves within the
        // default limits of the sparse path.
        let mut b = TunnelSystemBuilder::new();
        let i1 = b.island("i1", 0.0);
        let i2 = b.island("i2", 0.0);
        let s = b.external("s", 1e-3);
        let d = b.external("d", 0.0);
        b.junction("J1", s, i1, 1e-18, 1e5);
        b.junction("J2", i1, i2, 1e-18, 1e5);
        b.junction("J3", i2, d, 1e-18, 1e5);
        let system = b.build().unwrap();
        let me = MasterEquation::new(system, 1.0)
            .unwrap()
            .with_window(100)
            .unwrap();
        let solution = me
            .solve_full_window(None, &mut MasterWorkspace::new())
            .unwrap();
        assert_eq!(solution.states().len(), 201 * 201);
        let total: f64 = solution.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let i1c = solution.junction_current("J1").unwrap();
        let i3c = solution.junction_current("J3").unwrap();
        assert!((i1c - i3c).abs() < 1e-6 * i1c.abs().max(1e-18));
        // The distribution concentrates on the handful of physical states;
        // the vast window padding carries no weight.
        let neutral = ChargeState(vec![0, 0]);
        assert!(solution.probability_of(&neutral) > 0.5);
    }
}
