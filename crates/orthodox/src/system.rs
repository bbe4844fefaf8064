//! The tunnel-system electrostatics: islands, external electrodes,
//! capacitors, tunnel junctions, and the free-energy change of tunnel events.
//!
//! # Physics
//!
//! Let the circuit consist of *islands* (metallic nodes whose charge is an
//! integer number of electrons plus a background offset) and *external*
//! nodes whose potentials are fixed by voltage sources. With the Maxwell
//! capacitance matrix partitioned into island–island (`C_II`) and
//! island–external (`C_IE`) blocks, the island potentials for island charge
//! vector `q` are
//!
//! ```text
//! φ_I = C_II⁻¹ · (q + s),     s_i = Σ_k C(i,k) · V_k
//! ```
//!
//! where `C(i,k)` is the coupling capacitance between island `i` and
//! external node `k`. The free energy (the thermodynamic potential
//! appropriate for fixed source voltages) is `F = ½ (q+s)ᵀ C_II⁻¹ (q+s)`
//! up to state-independent terms, and the change caused by one electron
//! tunnelling from endpoint `a` to endpoint `b` is
//!
//! ```text
//! ΔF = e·(φ_a − φ_b) + (e²/2)·(K_aa + K_bb − 2·K_ab)
//! ```
//!
//! with `K = C_II⁻¹` and `K` entries taken as zero for external endpoints
//! (their potential is pinned). The first term contains the work done by
//! the sources when the tunnelling electron enters or leaves an electrode;
//! the second is the self-charging cost. This is the standard orthodox
//! result used by Monte-Carlo simulators of the SIMON family.

use crate::error::OrthodoxError;
use se_numeric::{LuDecomposition, Matrix, NumericError};
use se_units::constants::E;
use std::sync::Arc;

/// Relative negligibility threshold of the event-coupling table: a coupling
/// below this fraction of the system's strongest coupling is left off the
/// strong lists (see [`TunnelSystem::junction_strong_couplings`]). The
/// resulting worst-case ΔF drift of a skipped event between two exact
/// refreshes — `REFRESH_INTERVAL · threshold · g_max`, doubled for safety —
/// becomes the [`TunnelSystem::coupling_margin`] stability guard, a few kT
/// at millikelvin scales versus the thousands of kT of slack a deep-frozen
/// event has.
const COUPLING_THRESHOLD_REL: f64 = 1e-7;

/// One end of a capacitive branch: either a charge-quantised island or an
/// external, voltage-driven electrode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// Island by index.
    Island(usize),
    /// External electrode by index.
    External(usize),
}

/// A tunnel junction between two endpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct Junction {
    /// Human-readable name (netlist element name).
    pub name: String,
    /// First endpoint (the "a" side).
    pub a: Endpoint,
    /// Second endpoint (the "b" side).
    pub b: Endpoint,
    /// Junction capacitance in farad.
    pub capacitance: f64,
    /// Tunnel resistance in ohm.
    pub resistance: f64,
}

/// A purely capacitive branch (gate or coupling capacitor).
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    /// Human-readable name (netlist element name).
    pub name: String,
    /// First endpoint.
    pub a: Endpoint,
    /// Second endpoint.
    pub b: Endpoint,
    /// Capacitance in farad.
    pub capacitance: f64,
}

/// The charge state of a tunnel system: the number of *extra electrons* on
/// each island.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ChargeState(pub Vec<i64>);

impl ChargeState {
    /// The state with zero extra electrons on every island.
    #[must_use]
    pub fn neutral(islands: usize) -> Self {
        ChargeState(vec![0; islands])
    }

    /// Number of extra electrons on island `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn electrons(&self, i: usize) -> i64 {
        self.0[i]
    }

    /// Total number of extra electrons across all islands.
    #[must_use]
    pub fn total_electrons(&self) -> i64 {
        self.0.iter().sum()
    }
}

/// Direction of a tunnel event across a junction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// An electron tunnels from endpoint `a` to endpoint `b`.
    AToB,
    /// An electron tunnels from endpoint `b` to endpoint `a`.
    BToA,
}

/// A candidate tunnel event: a junction and a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TunnelEvent {
    /// Index of the junction in [`TunnelSystem::junctions`].
    pub junction: usize,
    /// Tunnelling direction.
    pub direction: Direction,
}

impl TunnelEvent {
    /// Returns the event in the opposite direction across the same junction.
    #[must_use]
    pub fn reversed(self) -> Self {
        TunnelEvent {
            junction: self.junction,
            direction: match self.direction {
                Direction::AToB => Direction::BToA,
                Direction::BToA => Direction::AToB,
            },
        }
    }
}

/// Builder for a [`TunnelSystem`].
#[derive(Debug, Clone, Default)]
pub struct TunnelSystemBuilder {
    island_names: Vec<String>,
    background_charges: Vec<f64>,
    external_names: Vec<String>,
    external_voltages: Vec<f64>,
    junctions: Vec<Junction>,
    capacitors: Vec<Capacitor>,
}

impl TunnelSystemBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an island and returns its endpoint handle.
    ///
    /// `background_charge` is the static offset charge in units of the
    /// elementary charge `e` (the `q0` of the paper's random-background-
    /// charge discussion).
    pub fn island(&mut self, name: impl Into<String>, background_charge: f64) -> Endpoint {
        self.island_names.push(name.into());
        self.background_charges.push(background_charge);
        Endpoint::Island(self.island_names.len() - 1)
    }

    /// Adds an external electrode at the given voltage and returns its
    /// endpoint handle.
    pub fn external(&mut self, name: impl Into<String>, voltage: f64) -> Endpoint {
        self.external_names.push(name.into());
        self.external_voltages.push(voltage);
        Endpoint::External(self.external_names.len() - 1)
    }

    /// Adds a tunnel junction between two endpoints.
    pub fn junction(
        &mut self,
        name: impl Into<String>,
        a: Endpoint,
        b: Endpoint,
        capacitance: f64,
        resistance: f64,
    ) -> &mut Self {
        self.junctions.push(Junction {
            name: name.into(),
            a,
            b,
            capacitance,
            resistance,
        });
        self
    }

    /// Adds a capacitor between two endpoints.
    pub fn capacitor(
        &mut self,
        name: impl Into<String>,
        a: Endpoint,
        b: Endpoint,
        capacitance: f64,
    ) -> &mut Self {
        self.capacitors.push(Capacitor {
            name: name.into(),
            a,
            b,
            capacitance,
        });
        self
    }

    /// Validates the description and builds the [`TunnelSystem`].
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::InvalidParameter`] for non-positive
    /// capacitances/resistances, missing junctions or out-of-range endpoint
    /// indices, and [`OrthodoxError::SingularCapacitanceMatrix`] if an island
    /// has no capacitive connection (its potential would be undefined).
    pub fn build(&self) -> Result<TunnelSystem, OrthodoxError> {
        if self.island_names.is_empty() {
            return Err(OrthodoxError::InvalidParameter(
                "a tunnel system needs at least one island".into(),
            ));
        }
        if self.junctions.is_empty() {
            return Err(OrthodoxError::InvalidParameter(
                "a tunnel system needs at least one tunnel junction".into(),
            ));
        }
        let n_islands = self.island_names.len();
        let n_externals = self.external_names.len();
        let check_endpoint = |e: Endpoint, context: &str| -> Result<(), OrthodoxError> {
            match e {
                Endpoint::Island(i) if i >= n_islands => Err(OrthodoxError::UnknownNode(format!(
                    "{context} references island {i}, but only {n_islands} islands exist"
                ))),
                Endpoint::External(k) if k >= n_externals => Err(OrthodoxError::UnknownNode(
                    format!("{context} references external node {k}, but only {n_externals} exist"),
                )),
                _ => Ok(()),
            }
        };

        for j in &self.junctions {
            check_endpoint(j.a, &j.name)?;
            check_endpoint(j.b, &j.name)?;
            if j.capacitance <= 0.0 || !j.capacitance.is_finite() {
                return Err(OrthodoxError::InvalidParameter(format!(
                    "junction `{}` capacitance must be positive, got {}",
                    j.name, j.capacitance
                )));
            }
            if j.resistance <= 0.0 || !j.resistance.is_finite() {
                return Err(OrthodoxError::InvalidParameter(format!(
                    "junction `{}` resistance must be positive, got {}",
                    j.name, j.resistance
                )));
            }
            if j.a == j.b {
                return Err(OrthodoxError::InvalidParameter(format!(
                    "junction `{}` connects an endpoint to itself",
                    j.name
                )));
            }
        }
        for c in &self.capacitors {
            check_endpoint(c.a, &c.name)?;
            check_endpoint(c.b, &c.name)?;
            if c.capacitance <= 0.0 || !c.capacitance.is_finite() {
                return Err(OrthodoxError::InvalidParameter(format!(
                    "capacitor `{}` capacitance must be positive, got {}",
                    c.name, c.capacitance
                )));
            }
            if c.a == c.b {
                return Err(OrthodoxError::InvalidParameter(format!(
                    "capacitor `{}` connects an endpoint to itself",
                    c.name
                )));
            }
        }

        // Assemble the island-island Maxwell matrix and the island-external
        // coupling list.
        let mut c_ii = Matrix::zeros(n_islands, n_islands);
        let mut coupling: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_islands];

        let mut add_branch = |a: Endpoint, b: Endpoint, c: f64| match (a, b) {
            (Endpoint::Island(i), Endpoint::Island(j)) => {
                c_ii.add_at(i, i, c);
                c_ii.add_at(j, j, c);
                c_ii.add_at(i, j, -c);
                c_ii.add_at(j, i, -c);
            }
            (Endpoint::Island(i), Endpoint::External(k))
            | (Endpoint::External(k), Endpoint::Island(i)) => {
                c_ii.add_at(i, i, c);
                coupling[i].push((k, c));
            }
            (Endpoint::External(_), Endpoint::External(_)) => {
                // Purely external branches do not influence island
                // electrostatics; they matter only for source currents.
            }
        };
        for j in &self.junctions {
            add_branch(j.a, j.b, j.capacitance);
        }
        for c in &self.capacitors {
            add_branch(c.a, c.b, c.capacitance);
        }

        for i in 0..n_islands {
            if c_ii[(i, i)] <= 0.0 {
                return Err(OrthodoxError::SingularCapacitanceMatrix(format!(
                    "island `{}` has no capacitive connection",
                    self.island_names[i]
                )));
            }
        }

        let c_ii_diagonal = (0..n_islands).map(|i| c_ii[(i, i)]).collect();
        let lu = LuDecomposition::new(&c_ii).map_err(|err| match err {
            // Elimination columns are never permuted, so the pivot column is
            // the island whose row became linearly dependent — name it.
            NumericError::SingularMatrix { pivot } => {
                OrthodoxError::SingularCapacitanceMatrix(format!(
                    "island capacitance matrix is singular at elimination column {pivot} \
                     (island `{}`): its capacitive couplings are linearly dependent on the \
                     other islands' — typically a group of islands connected only to each \
                     other with no path to any external electrode",
                    self.island_names[pivot]
                ))
            }
            other => OrthodoxError::Numeric(other),
        })?;
        drop(c_ii);
        let inverse = lu.inverse()?;
        drop(lu);

        // Per-junction self-charging constant K_aa + K_bb − 2·K_ab (external
        // endpoints contribute zero), the state-independent half of ΔF.
        let k_entry = |e: Endpoint, f: Endpoint| match (e, f) {
            (Endpoint::Island(i), Endpoint::Island(j)) => inverse[(i, j)],
            _ => 0.0,
        };
        let self_charging = self
            .junctions
            .iter()
            .map(|j| k_entry(j.a, j.a) + k_entry(j.b, j.b) - 2.0 * k_entry(j.a, j.b))
            .collect();

        // Per-junction potential response of one a→b tunnel event:
        // Δφ = e·K[:,a] − e·K[:,b] (island endpoints only). Applying an
        // event to cached potentials is then a single ±axpy of this column.
        // Each row carries one trailing zero slot through the coupling pass
        // below, where every electrode endpoint reads it.
        let zero_slot = n_islands as u32;
        let slot = |e: Endpoint| match e {
            Endpoint::Island(i) => i as u32,
            Endpoint::External(_) => zero_slot,
        };
        let slots: Vec<[u32; 2]> = self
            .junctions
            .iter()
            .map(|j| [slot(j.a), slot(j.b)])
            .collect();
        let mut event_response = response_rows(&inverse, &slots);

        // Event-coupling table: orthodox ΔF is linear in the island
        // occupation, so firing an a→b event on junction `f` shifts every
        // junction `j`'s potential-gap term by the build-time constant
        //
        //   g[f][j] = e·(resp_f[a_j] − resp_f[b_j])   (joule),
        //
        // external endpoints contributing zero. The incremental event-rate
        // table (`events.rs`) only needs the *sparsity*: per fired junction,
        // the list of junctions whose coupling exceeds a small threshold
        // relative to the strongest coupling in the system. A coupling below
        // the threshold drifts an untouched event's ΔF by at most
        // REFRESH_INTERVAL·θ between two exact refreshes, which is what the
        // `coupling_margin` stability guard accounts for.
        //
        // Each row is evaluated once, through each junction's two endpoint
        // slots (the zero slot for an electrode). The strongest coupling is
        // only known after the last row, so the pass lists every coupling
        // above a provisional threshold seeded from the diagonal couplings
        // g[f][f]. With K symmetric positive definite these bound every |g|
        // in exact arithmetic; being entries of the table, they never exceed
        // its maximum, so the provisional threshold never exceeds the final
        // one and the strongest coupling is listed. Only rounding can lift
        // an off-diagonal coupling above every diagonal one; the lists are
        // then rebuilt at the final threshold.
        let diagonal_max = event_response
            .iter()
            .zip(&slots)
            .map(|(resp, &ends)| coupling_entry(resp, ends).abs())
            .fold(0.0_f64, f64::max);
        let provisional = COUPLING_THRESHOLD_REL * diagonal_max;
        let mut strong = StrongLists::build(&event_response, &slots, provisional);
        let threshold = COUPLING_THRESHOLD_REL * diagonal_max.max(strong.listed_max);
        if threshold > provisional {
            strong = StrongLists::build(&event_response, &slots, threshold);
        }
        for row in &mut event_response {
            row.pop();
        }
        let coupling_margin = 2.0 * f64::from(crate::live::REFRESH_INTERVAL) * threshold;

        // Per-electrode potential response ∂φ/∂V_k = K · C(:,k): a voltage
        // step on electrode k moves every island potential by one axpy of
        // this column, which is what keeps drive changes O(islands) on the
        // incremental hot path.
        let drive_rhs: Vec<Vec<f64>> = (0..n_externals)
            .map(|k| {
                (0..n_islands)
                    .map(|i| {
                        coupling[i]
                            .iter()
                            .filter(|&&(electrode, _)| electrode == k)
                            .map(|&(_, c)| c)
                            .sum()
                    })
                    .collect()
            })
            .collect();
        let drive_response = mul_vecs(&inverse, &drive_rhs);

        Ok(TunnelSystem {
            tables: Arc::new(SystemTables {
                island_names: self.island_names.clone(),
                external_names: self.external_names.clone(),
                junctions: self.junctions.clone(),
                capacitors: self.capacitors.clone(),
                c_ii_diagonal,
                c_ii_inverse: inverse,
                coupling,
                self_charging,
                event_response,
                coupling_strong_runs: strong.runs,
                coupling_strong_values: strong.values,
                coupling_margin,
                drive_response,
            }),
            background_charges: self.background_charges.clone(),
            external_voltages: self.external_voltages.clone(),
        })
    }
}

/// Per junction with endpoint slots `[a, b]`, the response row
/// `E·(K[i][a] − K[i][b])` over islands `i` plus one trailing zero slot,
/// where slot `K.rows()` (an electrode) reads zero. K is read in tiles of a
/// few rows, each copied column-major next to a zero pad column, so that
/// every junction gathers its two columns as contiguous runs and no
/// transposed copy of K is made.
fn response_rows(k: &Matrix, slots: &[[u32; 2]]) -> Vec<Vec<f64>> {
    const TILE: usize = 32;
    let n = k.rows();
    let mut rows: Vec<Vec<f64>> = slots.iter().map(|_| Vec::with_capacity(n + 1)).collect();
    let mut tile = vec![0.0; (n + 1) * TILE];
    for block in k.as_slice().chunks(TILE * n) {
        let height = block.len() / n;
        for (t, k_row) in block.chunks_exact(n).enumerate() {
            for (column, &v) in tile.chunks_exact_mut(TILE).zip(k_row) {
                column[t] = v;
            }
        }
        for (row, &[a, b]) in rows.iter_mut().zip(slots) {
            let a = &tile[a as usize * TILE..][..height];
            let b = &tile[b as usize * TILE..][..height];
            row.extend(a.iter().zip(b).map(|(x, y)| E * (x - y)));
        }
    }
    for row in &mut rows {
        row.push(0.0);
    }
    rows
}

/// Per right-hand side `r`, the product `k · r`, bit for bit as
/// [`Matrix::mul_vec`], reading `k` once, row by row.
///
/// A right-hand side that is mostly zeros visits only its non-zero entries
/// on each finite row of `k`: a finite entry times a zero is a zero, and
/// adding a zero to a sum changes at most the sign of a zero sum, so the
/// sparse dot equals the dense one unless it is zero. A zero dot, a row
/// with a non-finite entry and a dense right-hand side take the dense dot.
fn mul_vecs(k: &Matrix, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let sparse: Vec<Vec<(usize, f64)>> = rhs
        .iter()
        .map(|r| {
            let entries: Vec<_> = r
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, c)| c != 0.0)
                .collect();
            if 2 * entries.len() < r.len() {
                entries
            } else {
                Vec::new()
            }
        })
        .collect();
    let mut out: Vec<Vec<f64>> = rhs.iter().map(|_| Vec::with_capacity(k.rows())).collect();
    for row in k.as_slice().chunks_exact(k.cols()) {
        let finite = row.iter().fold(true, |finite, v| finite & v.is_finite());
        for ((out, rhs), sparse) in out.iter_mut().zip(rhs).zip(&sparse) {
            let dot: f64 = if finite {
                sparse.iter().map(|&(j, c)| row[j] * c).sum()
            } else {
                0.0
            };
            out.push(if dot == 0.0 {
                row.iter().zip(rhs).map(|(a, b)| a * b).sum()
            } else {
                dot
            });
        }
    }
    out
}

/// Coupling `g[f][j] = e·(resp_f[a_j] − resp_f[b_j])` from fired junction
/// `f`'s response row (trailing zero slot included) and junction `j`'s
/// endpoint slots.
fn coupling_entry(response: &[f64], [a, b]: [u32; 2]) -> f64 {
    E * (response[a as usize] - response[b as usize])
}

/// The event-coupling strong lists at one cut: per fired junction, the
/// junctions whose coupling `|g|` exceeds the cut as maximal runs
/// `(start, len)`, and those couplings in run order.
struct StrongLists {
    runs: Vec<Vec<(u32, u32)>>,
    values: Vec<Vec<f64>>,
    /// The largest listed `|g|` (zero when nothing is listed).
    listed_max: f64,
}

impl StrongLists {
    /// Evaluates each fired junction's coupling row once, from its response
    /// row (trailing zero slot included) and every junction's endpoint
    /// slots.
    fn build(responses: &[Vec<f64>], slots: &[[u32; 2]], cut: f64) -> Self {
        let n = slots.len();
        let mut lists = StrongLists {
            runs: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
            listed_max: 0.0,
        };
        // Branch-free compaction: every coupling is written and its cursor
        // advances past the strong ones; every index where the row enters
        // or leaves a run is written and its cursor advances past the
        // change.
        let mut kept_values = vec![0.0; n];
        let mut edges = vec![0_u32; n + 1];
        for response in responses {
            let (mut kept, mut n_edges, mut inside) = (0, 0, false);
            for (idx, &ends) in (0_u32..).zip(slots) {
                let g = coupling_entry(response, ends);
                let strong = g.abs() > cut;
                kept_values[kept] = g;
                kept += usize::from(strong);
                edges[n_edges] = idx;
                n_edges += usize::from(strong != inside);
                inside = strong;
            }
            edges[n_edges] = n as u32;
            n_edges += usize::from(inside);
            let values = &kept_values[..kept];
            lists.runs.push(
                edges[..n_edges]
                    .chunks_exact(2)
                    .map(|run| (run[0], run[1] - run[0]))
                    .collect(),
            );
            lists.listed_max = values
                .iter()
                .fold(lists.listed_max, |max, g| max.max(g.abs()));
            lists.values.push(values.to_vec());
        }
        lists
    }
}

/// One junction's strong list ([`TunnelSystem::junction_strong_couplings`]):
/// ascending junction indices, stored as maximal runs of consecutive
/// indices.
#[derive(Debug, Clone, Copy)]
pub struct StrongCouplings<'a> {
    runs: &'a [(u32, u32)],
    len: usize,
}

impl<'a> StrongCouplings<'a> {
    /// Number of listed junctions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no junction is listed — a junction between two electrodes
    /// moves no island charge.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The listed junction indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + 'a {
        self.runs
            .iter()
            .flat_map(|&(start, len)| start as usize..(start + len) as usize)
    }

    /// The list as maximal runs `(start, len)`: junctions
    /// `start..start + len`, ascending, non-empty, no two runs adjacent.
    #[must_use]
    pub fn runs(&self) -> &'a [(u32, u32)] {
        self.runs
    }
}

/// A circuit of islands and external electrodes connected by tunnel
/// junctions and capacitors, with precomputed electrostatics.
///
/// The build-time tables are shared behind one [`Arc`], so a clone — one per
/// bias point in a sweep — copies only the per-instance electrode voltages
/// and background charges, O(islands + electrodes).
#[derive(Debug, Clone)]
pub struct TunnelSystem {
    tables: Arc<SystemTables>,
    background_charges: Vec<f64>,
    external_voltages: Vec<f64>,
}

/// The immutable part of a [`TunnelSystem`]: topology and every table
/// derived from the capacitance matrix.
#[derive(Debug)]
struct SystemTables {
    island_names: Vec<String>,
    external_names: Vec<String>,
    junctions: Vec<Junction>,
    capacitors: Vec<Capacitor>,
    /// Diagonal of `C_II`: each island's total capacitance.
    c_ii_diagonal: Vec<f64>,
    c_ii_inverse: Matrix,
    /// For each island, the list of (external index, coupling capacitance).
    coupling: Vec<Vec<(usize, f64)>>,
    /// Per-junction self-charging constant `K_aa + K_bb − 2·K_ab` (1/farad).
    self_charging: Vec<f64>,
    /// Per-junction island-potential change of one a→b tunnel event
    /// (volt): `e·K[:,a] − e·K[:,b]`, zero contribution for external
    /// endpoints.
    event_response: Vec<Vec<f64>>,
    /// Per-junction event-coupling strong list as maximal runs
    /// `(start, len)` of consecutive junction indices, ascending: every
    /// junction whose ΔF potential-gap term moves by more than the
    /// negligibility threshold when an event fires on junction `f` (see
    /// [`TunnelSystem::junction_coupling`]).
    coupling_strong_runs: Vec<Vec<(u32, u32)>>,
    /// `coupling_strong_values[f]` holds the strong list's coupling
    /// constants in run order, one per listed junction, so the incremental
    /// event-rate table's axpy streams each run's ΔF slice and values
    /// together.
    coupling_strong_values: Vec<Vec<f64>>,
    /// Stability margin (joule) for the incremental event-rate table: the
    /// accumulated ΔF drift that below-threshold (unlisted) couplings can
    /// contribute between two exact refreshes, with a 2× safety factor.
    coupling_margin: f64,
    /// Per-external-electrode island-potential response `K · C(:,k)`
    /// (dimensionless): the change of every island potential per volt of
    /// electrode `k`.
    drive_response: Vec<Vec<f64>>,
}

impl TunnelSystem {
    /// Starts building a new tunnel system.
    #[must_use]
    pub fn builder() -> TunnelSystemBuilder {
        TunnelSystemBuilder::new()
    }

    /// Number of islands.
    #[must_use]
    pub fn island_count(&self) -> usize {
        self.tables.island_names.len()
    }

    /// Number of external electrodes.
    #[must_use]
    pub fn external_count(&self) -> usize {
        self.tables.external_names.len()
    }

    /// The junctions of the system, in insertion order.
    #[must_use]
    pub fn junctions(&self) -> &[Junction] {
        &self.tables.junctions
    }

    /// The capacitors of the system, in insertion order.
    #[must_use]
    pub fn capacitors(&self) -> &[Capacitor] {
        &self.tables.capacitors
    }

    /// Name of island `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn island_name(&self, i: usize) -> &str {
        &self.tables.island_names[i]
    }

    /// Name of external electrode `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn external_name(&self, k: usize) -> &str {
        &self.tables.external_names[k]
    }

    /// Finds an external electrode index by name.
    #[must_use]
    pub fn external_index(&self, name: &str) -> Option<usize> {
        self.tables
            .external_names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))
    }

    /// Current voltage of external electrode `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn external_voltage(&self, k: usize) -> f64 {
        self.external_voltages[k]
    }

    /// Sets the voltage of external electrode `k`.
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::UnknownNode`] if `k` is out of range and
    /// [`OrthodoxError::InvalidParameter`] if the voltage is not finite.
    pub fn set_external_voltage(&mut self, k: usize, voltage: f64) -> Result<(), OrthodoxError> {
        if k >= self.external_voltages.len() {
            return Err(OrthodoxError::UnknownNode(format!(
                "external node {k} does not exist"
            )));
        }
        if !voltage.is_finite() {
            return Err(OrthodoxError::InvalidParameter(format!(
                "external voltage must be finite, got {voltage}"
            )));
        }
        self.external_voltages[k] = voltage;
        Ok(())
    }

    /// Background (offset) charge of island `i` in units of `e`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn background_charge(&self, i: usize) -> f64 {
        self.background_charges[i]
    }

    /// Sets the background charge of island `i` (in units of `e`).
    ///
    /// # Errors
    ///
    /// Returns [`OrthodoxError::UnknownNode`] if `i` is out of range.
    pub fn set_background_charge(&mut self, i: usize, q0: f64) -> Result<(), OrthodoxError> {
        if i >= self.background_charges.len() {
            return Err(OrthodoxError::UnknownNode(format!(
                "island {i} does not exist"
            )));
        }
        self.background_charges[i] = q0;
        Ok(())
    }

    /// Total capacitance attached to island `i` (the `CΣ` of the charging
    /// energy `e²/2CΣ`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn total_island_capacitance(&self, i: usize) -> f64 {
        self.tables.c_ii_diagonal[i]
    }

    /// Charging energy `e²/(2·CΣ)` of island `i` in joule.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn charging_energy(&self, i: usize) -> f64 {
        E * E / (2.0 * self.total_island_capacitance(i))
    }

    /// Island charge vector in coulomb for a given charge state:
    /// `q_i = −e·n_i + e·q0_i`.
    #[must_use]
    pub fn island_charges(&self, state: &ChargeState) -> Vec<f64> {
        state
            .0
            .iter()
            .zip(&self.background_charges)
            .map(|(&n, &q0)| -E * n as f64 + E * q0)
            .collect()
    }

    /// Island potentials for a given charge state, in volt.
    #[must_use]
    pub fn island_potentials(&self, state: &ChargeState) -> Vec<f64> {
        let q = self.island_charges(state);
        let rhs: Vec<f64> = (0..self.island_count())
            .map(|i| {
                let s: f64 = self.tables.coupling[i]
                    .iter()
                    .map(|&(k, c)| c * self.external_voltages[k])
                    .sum();
                q[i] + s
            })
            .collect();
        self.tables.c_ii_inverse.mul_vec(&rhs)
    }

    /// Potential of an endpoint given precomputed island potentials.
    #[must_use]
    pub fn endpoint_potential(&self, endpoint: Endpoint, island_potentials: &[f64]) -> f64 {
        match endpoint {
            Endpoint::Island(i) => island_potentials[i],
            Endpoint::External(k) => self.external_voltages[k],
        }
    }

    /// Work done by the voltage sources when the tunnelling electron of
    /// `event` enters or leaves an external electrode, in joule.
    ///
    /// The invariant connecting the three energy methods is
    /// `delta_free_energy(state, event) == electrostatic_energy(after) −
    /// electrostatic_energy(before) − event_source_work(event)`.
    ///
    /// # Panics
    ///
    /// Panics if the event's junction index is out of range.
    #[must_use]
    pub fn event_source_work(&self, event: TunnelEvent) -> f64 {
        let (from, to) = self.event_endpoints(event);
        let v = |e: Endpoint| match e {
            Endpoint::External(k) => self.external_voltages[k],
            Endpoint::Island(_) => 0.0,
        };
        let is_external = |e: Endpoint| matches!(e, Endpoint::External(_));
        let mut work = 0.0;
        if is_external(to) {
            work += E * v(to);
        }
        if is_external(from) {
            work -= E * v(from);
        }
        work
    }

    /// Electrostatic energy of a charge state (up to a state-independent
    /// constant), in joule.
    ///
    /// This is the capacitive part only; the work done by the voltage sources
    /// on tunnelling electrons is accounted for separately by
    /// [`Self::event_source_work`]. See [`Self::delta_free_energy`] for the
    /// quantity that decides whether an event is favourable.
    #[must_use]
    pub fn electrostatic_energy(&self, state: &ChargeState) -> f64 {
        let q = self.island_charges(state);
        let rhs: Vec<f64> = (0..self.island_count())
            .map(|i| {
                let s: f64 = self.tables.coupling[i]
                    .iter()
                    .map(|&(k, c)| c * self.external_voltages[k])
                    .sum();
                q[i] + s
            })
            .collect();
        let phi = self.tables.c_ii_inverse.mul_vec(&rhs);
        0.5 * rhs.iter().zip(&phi).map(|(a, b)| a * b).sum::<f64>()
    }

    /// All candidate tunnel events (two per junction).
    #[must_use]
    pub fn events(&self) -> Vec<TunnelEvent> {
        (0..self.event_count()).map(|i| self.event(i)).collect()
    }

    /// Number of candidate tunnel events (two per junction).
    #[must_use]
    pub fn event_count(&self) -> usize {
        2 * self.tables.junctions.len()
    }

    /// The candidate tunnel event with canonical index `index`: events are
    /// ordered `(junction 0, a→b)`, `(junction 0, b→a)`, `(junction 1, a→b)`,
    /// … — the same order [`Self::events`] enumerates. This is the
    /// allocation-free face of the enumeration used by the hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.event_count()`.
    #[must_use]
    pub fn event(&self, index: usize) -> TunnelEvent {
        assert!(index < self.event_count(), "event index out of bounds");
        TunnelEvent {
            junction: index / 2,
            direction: if index.is_multiple_of(2) {
                Direction::AToB
            } else {
                Direction::BToA
            },
        }
    }

    /// The `(from, to)` endpoints of an event (the electron moves from
    /// `from` to `to`).
    ///
    /// # Panics
    ///
    /// Panics if the event's junction index is out of range.
    #[must_use]
    pub fn event_endpoints(&self, event: TunnelEvent) -> (Endpoint, Endpoint) {
        let j = &self.tables.junctions[event.junction];
        match event.direction {
            Direction::AToB => (j.a, j.b),
            Direction::BToA => (j.b, j.a),
        }
    }

    /// Free-energy change `ΔF` (joule) caused by the tunnel event in the
    /// given charge state. Negative `ΔF` means the event is energetically
    /// favourable.
    ///
    /// # Panics
    ///
    /// Panics if the event's junction index is out of range.
    #[must_use]
    pub fn delta_free_energy(&self, state: &ChargeState, event: TunnelEvent) -> f64 {
        let potentials = self.island_potentials(state);
        self.delta_free_energy_with_potentials(&potentials, event)
    }

    /// Same as [`Self::delta_free_energy`] but re-using island potentials
    /// computed once for the current state — the hot path of the Monte-Carlo
    /// loop, which evaluates every candidate event in the same state.
    #[must_use]
    pub fn delta_free_energy_with_potentials(
        &self,
        island_potentials: &[f64],
        event: TunnelEvent,
    ) -> f64 {
        let (from, to) = self.event_endpoints(event);
        let phi_from = self.endpoint_potential(from, island_potentials);
        let phi_to = self.endpoint_potential(to, island_potentials);
        E * (phi_from - phi_to) + 0.5 * E * E * self.tables.self_charging[event.junction]
    }

    /// The self-charging constant `K_aa + K_bb − 2·K_ab` of a junction
    /// (1/farad), precomputed at build time. `e²/2` times this constant is
    /// the state- and direction-independent part of the junction's ΔF, which
    /// is what makes per-event free-energy evaluation O(1) once island
    /// potentials are cached (see [`crate::live::LiveState`]).
    ///
    /// # Panics
    ///
    /// Panics if `junction` is out of range.
    #[must_use]
    pub fn junction_self_charging(&self, junction: usize) -> f64 {
        self.tables.self_charging[junction]
    }

    /// Row `i` of the precomputed inverse island capacitance matrix
    /// `K = C_II⁻¹` (equal to column `i`: `C_II` is symmetric). Adding
    /// `Δq·K[i]` to the island potentials is the O(islands) incremental
    /// update for a charge change `Δq` on island `i`.
    pub(crate) fn inverse_row(&self, i: usize) -> &[f64] {
        self.tables.c_ii_inverse.row(i)
    }

    /// The island-potential response `∂φ/∂V_k` of external electrode `k`.
    pub(crate) fn drive_response(&self, k: usize) -> &[f64] {
        &self.tables.drive_response[k]
    }

    /// The island-potential change caused by one a→b tunnel event across
    /// junction `j` (negate for b→a).
    pub(crate) fn junction_response(&self, j: usize) -> &[f64] {
        &self.tables.event_response[j]
    }

    /// The event-coupling constant `g[fired][observed]` in joule: how much
    /// the *potential-gap* term of junction `observed`'s ΔF moves when one
    /// a→b event fires on junction `fired` (negate for b→a; the
    /// self-charging term never moves). Orthodox ΔF is linear in the island
    /// occupation, so this is a build-time constant of the capacitance
    /// matrix — the algebraic fact the incremental event-rate table's
    /// sparsity rests on.
    ///
    /// # Panics
    ///
    /// Panics if either junction index is out of range.
    #[must_use]
    pub fn junction_coupling(&self, fired: usize, observed: usize) -> f64 {
        let resp = &self.tables.event_response[fired];
        let at = |e: Endpoint| match e {
            Endpoint::Island(i) => resp[i],
            Endpoint::External(_) => 0.0,
        };
        let j = &self.tables.junctions[observed];
        E * (at(j.a) - at(j.b))
    }

    /// The junctions whose ΔF moves non-negligibly when an event fires on
    /// junction `fired` — every `observed` with
    /// `|junction_coupling(fired, observed)|` above the build-time
    /// negligibility threshold, ascending, stored as runs of consecutive
    /// indices. The incremental event-rate table re-evaluates exactly these
    /// junctions after each event; the drift every *unlisted* coupling can
    /// accumulate between two exact refreshes is bounded by
    /// [`TunnelSystem::coupling_margin`].
    ///
    /// # Panics
    ///
    /// Panics if `fired` is out of range.
    #[must_use]
    pub fn junction_strong_couplings(&self, fired: usize) -> StrongCouplings<'_> {
        StrongCouplings {
            runs: &self.tables.coupling_strong_runs[fired],
            len: self.tables.coupling_strong_values[fired].len(),
        }
    }

    /// The coupling constants of `fired`'s strong list, aligned entry for
    /// entry with [`StrongCouplings::iter`]: the `k`-th value is
    /// `junction_coupling(f, j)` for the `k`-th listed junction `j`.
    ///
    /// # Panics
    ///
    /// Panics if `fired` is out of range.
    #[must_use]
    pub fn junction_strong_coupling_values(&self, fired: usize) -> &[f64] {
        &self.tables.coupling_strong_values[fired]
    }

    /// The ΔF stability margin in joule: an event whose ΔF exceeds the
    /// frozen cutoff *plus this margin* is guaranteed to stay past the
    /// cutoff (rate exactly zero) under any sequence of weak-coupling
    /// drifts until the next exact refresh, so the incremental event-rate
    /// table can skip it entirely.
    #[must_use]
    pub fn coupling_margin(&self) -> f64 {
        self.tables.coupling_margin
    }

    /// Tunnel resistance of the junction involved in `event`, in ohm.
    ///
    /// # Panics
    ///
    /// Panics if the event's junction index is out of range.
    #[must_use]
    pub fn event_resistance(&self, event: TunnelEvent) -> f64 {
        self.tables.junctions[event.junction].resistance
    }

    /// Applies the event to a charge state, moving one electron between the
    /// island endpoints involved (external endpoints are charge reservoirs
    /// and are not tracked).
    ///
    /// # Panics
    ///
    /// Panics if the event's junction index is out of range.
    pub fn apply_event(&self, state: &mut ChargeState, event: TunnelEvent) {
        let (from, to) = self.event_endpoints(event);
        if let Endpoint::Island(i) = from {
            state.0[i] -= 1;
        }
        if let Endpoint::Island(i) = to {
            state.0[i] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Canonical symmetric SET: drain (external), source (external, grounded),
    /// gate (external) coupled to a single island through Cg.
    fn symmetric_set(vd: f64, vg: f64, q0: f64) -> (TunnelSystem, TunnelEvent, TunnelEvent) {
        let mut b = TunnelSystem::builder();
        let island = b.island("island", q0);
        let drain = b.external("drain", vd);
        let source = b.external("source", 0.0);
        let gate = b.external("gate", vg);
        b.junction("J_d", drain, island, 1e-18, 100e3);
        b.junction("J_s", island, source, 1e-18, 100e3);
        b.capacitor("C_g", gate, island, 0.5e-18);
        let system = b.build().unwrap();
        // Event 0/1 belong to J_d, event 2/3 to J_s.
        let onto_island = TunnelEvent {
            junction: 0,
            direction: Direction::AToB,
        };
        let off_island = TunnelEvent {
            junction: 1,
            direction: Direction::AToB,
        };
        (system, onto_island, off_island)
    }

    #[test]
    fn builder_rejects_invalid_systems() {
        // No islands.
        let mut b = TunnelSystemBuilder::new();
        let a = b.external("a", 0.0);
        let c = b.external("c", 1.0);
        b.junction("J", a, c, 1e-18, 1e5);
        assert!(b.build().is_err());

        // No junction.
        let mut b = TunnelSystemBuilder::new();
        let i = b.island("i", 0.0);
        let g = b.external("g", 0.0);
        b.capacitor("C", g, i, 1e-18);
        assert!(b.build().is_err());

        // Bad capacitance.
        let mut b = TunnelSystemBuilder::new();
        let i = b.island("i", 0.0);
        let g = b.external("g", 0.0);
        b.junction("J", g, i, -1e-18, 1e5);
        assert!(b.build().is_err());

        // Island without any connection.
        let mut b = TunnelSystemBuilder::new();
        let _lonely = b.island("lonely", 0.0);
        let i = b.island("i", 0.0);
        let g = b.external("g", 0.0);
        b.junction("J", g, i, 1e-18, 1e5);
        assert!(matches!(
            b.build(),
            Err(OrthodoxError::SingularCapacitanceMatrix(_))
        ));

        // Endpoint out of range.
        let mut b = TunnelSystemBuilder::new();
        let i = b.island("i", 0.0);
        b.junction("J", i, Endpoint::External(7), 1e-18, 1e5);
        assert!(matches!(b.build(), Err(OrthodoxError::UnknownNode(_))));
    }

    #[test]
    fn total_capacitance_and_charging_energy() {
        let (system, _, _) = symmetric_set(0.0, 0.0, 0.0);
        let c_total = system.total_island_capacitance(0);
        assert!((c_total - 2.5e-18).abs() < 1e-30);
        let ec = system.charging_energy(0);
        assert!((ec - E * E / (2.0 * 2.5e-18)).abs() < 1e-25);
    }

    #[test]
    fn island_potential_matches_hand_formula() {
        let vd = 0.01;
        let vg = 0.05;
        let (system, _, _) = symmetric_set(vd, vg, 0.0);
        let state = ChargeState(vec![2]);
        let phi = system.island_potentials(&state)[0];
        // phi = (q + C_d*V_d + C_g*V_g) / C_sigma with q = -2e.
        let expected = (-2.0 * E + 1e-18 * vd + 0.5e-18 * vg) / 2.5e-18;
        assert!((phi - expected).abs() < 1e-9 * expected.abs().max(1e-6));
    }

    #[test]
    fn blockade_at_zero_gate_charge() {
        // With q0 = 0, Vg = 0 and a tiny bias, both "electron onto island"
        // events must cost energy (Coulomb blockade).
        let (system, onto, _) = symmetric_set(1e-4, 0.0, 0.0);
        let state = ChargeState::neutral(1);
        let df_onto = system.delta_free_energy(&state, onto);
        assert!(
            df_onto > 0.0,
            "ΔF = {df_onto} should be positive in blockade"
        );
        // The charging energy scale is e²/2CΣ ≈ 32 meV here.
        let ec = system.charging_energy(0);
        assert!(df_onto > 0.5 * ec);
    }

    #[test]
    fn degeneracy_point_lifts_blockade() {
        // At gate charge CgVg = e/2 the n=0 and n=1 states are degenerate,
        // so the cost of adding an electron vanishes (up to the small bias).
        let cg = 0.5e-18;
        let vg = E / (2.0 * cg);
        let (system, onto, _) = symmetric_set(0.0, vg, 0.0);
        let state = ChargeState::neutral(1);
        let df = system.delta_free_energy(&state, onto);
        let ec = system.charging_energy(0);
        assert!(
            df.abs() < 1e-3 * ec,
            "ΔF at the degeneracy point should be ≈ 0, got {df} (Ec = {ec})"
        );
    }

    #[test]
    fn background_charge_shifts_degeneracy_point() {
        // A background charge of +0.5 e moves the degeneracy to Vg = 0.
        let (system, onto, _) = symmetric_set(0.0, 0.0, 0.5);
        let state = ChargeState::neutral(1);
        let df = system.delta_free_energy(&state, onto);
        let ec = system.charging_energy(0);
        assert!(df.abs() < 1e-3 * ec);
    }

    #[test]
    fn delta_free_energy_matches_textbook_double_junction() {
        // Pure double junction (no gate): ΔF for tunnelling onto the island
        // through the drain junction is (e/CΣ)(e/2 − q_I + C_s·V_d).
        let vd = 0.002;
        let mut b = TunnelSystem::builder();
        let island = b.island("island", 0.0);
        let drain = b.external("drain", vd);
        let source = b.external("source", 0.0);
        b.junction("J_d", drain, island, 1.5e-18, 50e3);
        b.junction("J_s", island, source, 0.5e-18, 50e3);
        let system = b.build().unwrap();
        let state = ChargeState(vec![-1]); // one electron removed: q_I = +e
        let event = TunnelEvent {
            junction: 0,
            direction: Direction::AToB,
        };
        let df = system.delta_free_energy(&state, event);
        let c_sigma = 2e-18;
        let q_i = E; // n = -1 means q = +e
        let expected = (E / c_sigma) * (E / 2.0 - q_i + 0.5e-18 * vd);
        assert!(
            (df - expected).abs() < 1e-6 * expected.abs().max(1e-25),
            "ΔF = {df}, expected {expected}"
        );
    }

    #[test]
    fn forward_and_backward_events_are_consistent() {
        // ΔF(forward, state) == −ΔF(backward, state after forward).
        let (system, onto, _) = symmetric_set(5e-3, 0.02, 0.1);
        let mut state = ChargeState::neutral(1);
        let df_forward = system.delta_free_energy(&state, onto);
        system.apply_event(&mut state, onto);
        let df_backward = system.delta_free_energy(&state, onto.reversed());
        assert!(
            (df_forward + df_backward).abs() < 1e-9 * df_forward.abs().max(1e-25),
            "forward {df_forward} vs backward {df_backward}"
        );
    }

    #[test]
    fn delta_free_energy_equals_energy_difference_minus_source_work() {
        let (system, onto, off) = symmetric_set(3e-3, 0.04, 0.2);
        for event in [onto, off, onto.reversed(), off.reversed()] {
            let state = ChargeState(vec![1]);
            let mut after = state.clone();
            system.apply_event(&mut after, event);
            let df_direct = system.delta_free_energy(&state, event);
            let df_from_f = system.electrostatic_energy(&after)
                - system.electrostatic_energy(&state)
                - system.event_source_work(event);
            assert!(
                (df_direct - df_from_f).abs() < 1e-9 * df_direct.abs().max(1e-25),
                "event {event:?}: direct {df_direct} vs difference {df_from_f}"
            );
        }
    }

    #[test]
    fn apply_event_moves_electrons_between_islands() {
        let mut b = TunnelSystem::builder();
        let i1 = b.island("i1", 0.0);
        let i2 = b.island("i2", 0.0);
        let lead = b.external("lead", 0.0);
        b.junction("J1", lead, i1, 1e-18, 1e5);
        b.junction("J12", i1, i2, 1e-18, 1e5);
        let gate = b.external("g", 0.0);
        b.capacitor("Cg1", gate, i1, 0.5e-18);
        b.capacitor("Cg2", gate, i2, 0.5e-18);
        let system = b.build().unwrap();

        let mut state = ChargeState::neutral(2);
        // Electron from lead onto island 1.
        system.apply_event(
            &mut state,
            TunnelEvent {
                junction: 0,
                direction: Direction::AToB,
            },
        );
        assert_eq!(state.0, vec![1, 0]);
        // Electron from island 1 to island 2.
        system.apply_event(
            &mut state,
            TunnelEvent {
                junction: 1,
                direction: Direction::AToB,
            },
        );
        assert_eq!(state.0, vec![0, 1]);
        assert_eq!(state.total_electrons(), 1);
    }

    #[test]
    fn external_voltage_and_background_charge_setters() {
        let (mut system, _, _) = symmetric_set(0.0, 0.0, 0.0);
        system.set_external_voltage(0, 0.01).unwrap();
        assert_eq!(system.external_voltage(0), 0.01);
        assert!(system.set_external_voltage(9, 0.0).is_err());
        assert!(system.set_external_voltage(0, f64::NAN).is_err());
        system.set_background_charge(0, 0.25).unwrap();
        assert_eq!(system.background_charge(0), 0.25);
        assert!(system.set_background_charge(5, 0.1).is_err());
        assert_eq!(system.external_index("gate"), Some(2));
        assert_eq!(system.external_index("nope"), None);
    }

    #[test]
    fn setters_on_a_clone_leave_the_original_untouched() {
        let (system, onto, _) = symmetric_set(0.01, 0.02, 0.1);
        let state = ChargeState::neutral(1);
        let df = system.delta_free_energy(&state, onto);
        let mut clone = system.clone();
        clone.set_external_voltage(0, 0.05).unwrap();
        clone.set_background_charge(0, 0.4).unwrap();
        assert_eq!(system.external_voltage(0), 0.01);
        assert_eq!(system.background_charge(0), 0.1);
        assert_eq!(clone.external_voltage(0), 0.05);
        assert_eq!(clone.background_charge(0), 0.4);
        assert_eq!(system.delta_free_energy(&state, onto), df);
        assert_ne!(clone.delta_free_energy(&state, onto), df);
        // The build tables are shared, not copied.
        assert!(Arc::ptr_eq(&system.tables, &clone.tables));
    }

    #[test]
    fn events_enumerates_two_per_junction() {
        let (system, _, _) = symmetric_set(0.0, 0.0, 0.0);
        assert_eq!(system.events().len(), 4);
        assert_eq!(system.event_count(), 4);
        for (i, event) in system.events().into_iter().enumerate() {
            assert_eq!(system.event(i), event, "canonical order at index {i}");
        }
    }

    #[test]
    fn singular_capacitance_error_names_the_degenerate_island() {
        // Two islands coupled only to each other: C_II = [[c, −c], [−c, c]]
        // is singular even though both diagonal entries are positive.
        let mut b = TunnelSystemBuilder::new();
        let i1 = b.island("inner1", 0.0);
        let i2 = b.island("inner2", 0.0);
        b.junction("J", i1, i2, 1e-18, 1e5);
        match b.build().unwrap_err() {
            OrthodoxError::SingularCapacitanceMatrix(msg) => {
                assert!(
                    msg.contains("`inner2`") && msg.contains("column 1"),
                    "message should name the degenerate island and row: {msg}"
                );
            }
            other => panic!("expected a singular-capacitance error, got {other:?}"),
        }
    }

    #[test]
    fn self_charging_table_matches_inverse_matrix_expression() {
        let mut b = TunnelSystem::builder();
        let i1 = b.island("i1", 0.0);
        let i2 = b.island("i2", 0.0);
        let lead = b.external("lead", 0.0);
        b.junction("J1", lead, i1, 1.5e-18, 1e5);
        b.junction("J12", i1, i2, 0.7e-18, 2e5);
        b.capacitor("Cg", lead, i2, 0.4e-18);
        let system = b.build().unwrap();
        // Lead junction: only the island end contributes (K_aa of island 0).
        let neutral = ChargeState::neutral(2);
        let potentials = system.island_potentials(&neutral);
        for event in system.events() {
            // ΔF from the table must equal the explicit two-potential form.
            let df = system.delta_free_energy_with_potentials(&potentials, event);
            let df_full = system.delta_free_energy(&neutral, event);
            assert!((df - df_full).abs() < 1e-9 * df.abs().max(1e-25));
        }
        // The island–island junction constant is K_00 + K_11 − 2·K_01 > 0.
        assert!(system.junction_self_charging(1) > 0.0);
        // And it is direction-independent by construction: events 2 and 3
        // (both directions of J12) share the same self-charging cost.
        let c = system.junction_self_charging(1);
        let ev_ab = system.event(2);
        let ev_ba = system.event(3);
        let sum =
            system.delta_free_energy(&neutral, ev_ab) + system.delta_free_energy(&neutral, ev_ba);
        assert!((sum - E * E * c).abs() < 1e-9 * sum.abs().max(1e-30));
    }

    /// An `n`×`n` island array shaped like the benchmark arrays: rows of
    /// drain → ground junction chains, vertical junctions between rows and
    /// a seeded stray capacitor from every island to a `bg` electrode.
    /// An `idle` electrode couples to no island.
    fn stray_array(n: usize, seed: u64) -> TunnelSystem {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut b = TunnelSystem::builder();
        let drain = b.external("drain", 0.05 * n as f64);
        let ground = b.external("ground", 0.0);
        let bg = b.external("bg", 0.5);
        let idle = b.external("idle", 0.2);
        let islands: Vec<_> = (0..n * n).map(|k| b.island(format!("x{k}"), 0.0)).collect();
        for r in 0..n {
            for c in 0..=n {
                let a = if c == 0 {
                    drain
                } else {
                    islands[r * n + c - 1]
                };
                let z = if c == n { ground } else { islands[r * n + c] };
                b.junction(format!("J{r}_{c}"), a, z, 0.5e-18, 100e3);
            }
        }
        for k in 0..n * (n - 1) {
            b.junction(format!("JV{k}"), islands[k], islands[k + n], 0.3e-18, 150e3);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for (k, &island) in islands.iter().enumerate() {
            b.capacitor(
                format!("CB{k}"),
                bg,
                island,
                (0.03 + 0.17 * rng.gen::<f64>()) * 1e-18,
            );
        }
        b.capacitor("CI", idle, drain, 1e-18);
        b.build().unwrap()
    }

    /// Every electrode's drive response is the dense product
    /// `K · C(:,k)` bit for bit — on arrays, where the drain and ground
    /// couple to one island column each and `bg` to every island; on a
    /// chain; on the reference SET; on two SETs whose islands do not
    /// couple (exact zeros in K); and for an electrode that couples to no
    /// island (an all-zero right-hand side).
    #[test]
    fn drive_response_is_the_dense_product() {
        let mut systems: Vec<TunnelSystem> = (2..=6).map(|n| stray_array(n, n as u64)).collect();
        let mut chain = TunnelSystem::builder();
        let drain = chain.external("drain", 0.1);
        let source = chain.external("source", 0.0);
        let gate = chain.external("gate", 0.05);
        let mut previous = drain;
        for i in 0..12 {
            let island = chain.island(format!("c{i}"), 0.0);
            chain.junction(format!("J{i}"), previous, island, 1e-18, 1e5);
            chain.capacitor(format!("C{i}"), gate, island, 0.2e-18);
            previous = island;
        }
        chain.junction("Jout", previous, source, 1e-18, 1e5);
        systems.push(chain.build().unwrap());
        systems.push(symmetric_set(0.02, 0.01, 0.1).0);
        let mut pair = TunnelSystem::builder();
        let drain = pair.external("drain", 0.1);
        let gate = pair.external("gate", 0.05);
        for name in ["left", "right"] {
            let island = pair.island(name, 0.0);
            pair.junction(format!("J{name}"), drain, island, 1e-18, 1e5);
            pair.capacitor(format!("C{name}"), gate, island, 0.3e-18);
        }
        systems.push(pair.build().unwrap());
        for system in &systems {
            let tables = &system.tables;
            for k in 0..system.external_count() {
                let rhs: Vec<f64> = tables
                    .coupling
                    .iter()
                    .map(|list| list.iter().filter(|&&(e, _)| e == k).map(|&(_, c)| c).sum())
                    .collect();
                let dense: Vec<u64> = tables
                    .c_ii_inverse
                    .mul_vec(&rhs)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let stored: Vec<u64> = system
                    .drive_response(k)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(stored, dense, "electrode `{}`", system.external_name(k));
            }
        }
    }

    proptest! {
        /// The free-energy change of any event equals the electrostatic
        /// energy difference minus the source work, for arbitrary biases,
        /// background charges and starting states.
        #[test]
        fn prop_delta_f_is_a_difference(
            vd in -0.05_f64..0.05,
            vg in -0.2_f64..0.2,
            q0 in -1.0_f64..1.0,
            n in -3_i64..=3,
            event_idx in 0_usize..4,
        ) {
            let (system, _, _) = symmetric_set(vd, vg, q0);
            let events = system.events();
            let event = events[event_idx];
            let state = ChargeState(vec![n]);
            let mut after = state.clone();
            system.apply_event(&mut after, event);
            let direct = system.delta_free_energy(&state, event);
            let diff = system.electrostatic_energy(&after)
                - system.electrostatic_energy(&state)
                - system.event_source_work(event);
            prop_assert!((direct - diff).abs() < 1e-9 * direct.abs().max(1e-24));
        }

        /// Energy is conserved around a cycle: tunnelling an electron onto
        /// the island and immediately back must cost exactly zero in total.
        #[test]
        fn prop_cycle_energy_is_zero(
            vd in -0.05_f64..0.05,
            vg in -0.2_f64..0.2,
            q0 in -1.0_f64..1.0,
        ) {
            let (system, onto, _) = symmetric_set(vd, vg, q0);
            let mut state = ChargeState::neutral(1);
            let df1 = system.delta_free_energy(&state, onto);
            system.apply_event(&mut state, onto);
            let df2 = system.delta_free_energy(&state, onto.reversed());
            prop_assert!((df1 + df2).abs() < 1e-9 * df1.abs().max(1e-24));
        }
    }
}
