//! Preconditioned BiCGSTAB Krylov solver for anchored stationary systems.
//!
//! The Gauss–Seidel iteration in [`crate::sparse`] converges linearly, and
//! on large charge-state lattices (hundreds of thousands of states) its
//! sweep count grows with the diffusion length of probability across the
//! lattice. This module solves the same anchored balance as a linear
//! system with a Krylov method instead:
//!
//! * the generator is assembled into a row-scaled anchored matrix
//!   `A = D⁻¹·(diag(out_rate) − Q)` with the anchor row replaced by the
//!   identity row and right-hand side `b = e_anchor` — the exact algebraic
//!   statement of "pin the anchor at 1 and balance every other state";
//! * a BiCGSTAB iteration (deterministic: every reduction is a fixed-order
//!   sequential sum, so the same inputs produce bit-identical output on
//!   any machine or thread count) drives the residual below the requested
//!   tolerance;
//! * the preconditioner is selectable: [`Preconditioner::Jacobi`] (the
//!   default) is the diagonal scaling alone, already baked into the
//!   assembled system, so its iteration reads `p` and `s` where the
//!   preconditioned vectors would be; [`Preconditioner::Ilu0`] adds a
//!   zero-fill incomplete LU factorisation of the scaled matrix, which cuts
//!   the iteration count three- to fourfold on the master-equation
//!   lattices but pays two latency-bound triangular solves per iteration.
//!
//! The anchored system is stored once, in offset-diagonal (stencil) form:
//! [`AnchoredStencil`] keeps one `n`-long lane per column offset `o`
//! (entry `A[i][i + o]` at row `i` of lane `o`), +0 in every slot the
//! generator leaves empty, and one presence bit per slot. On the master
//! equation's mixed-radix window every event moves a state by a constant
//! index offset, so the generator is a handful of lanes (11 for a 4-island
//! chain) that [`Generator::stamp`] writes straight from the rate buffer.
//! A generator whose entries span `D` distinct offsets costs `O(D·n)`
//! memory and time.
//!
//! The kernels keep the bits of a row-by-row CSR solve over the present
//! entries alone:
//!
//! * the matrix–vector product runs lane by lane over blocks of rows, and
//!   each row still folds its terms in ascending column order from +0; a
//!   padded term is `+0·x = ±0` for finite `x`, and a sum that starts at +0
//!   is never −0, so adding it changes nothing;
//! * ILU(0) eliminates in IKJ order over the present slots only — an entry
//!   that underflowed to ±0 is present and still a fill target — finding
//!   each update's target lane in a precomputed offset-pair table;
//! * the triangular solves read the padded lanes: a padded term can flip
//!   only the sign of a zero component of the preconditioned vector, which
//!   reaches neither a non-zero iterate, a dot product nor the clamped
//!   probabilities;
//! * a non-finite operand makes the fused dot non-finite in both forms
//!   (every row holds its own unit diagonal), so a breakdown — and with it
//!   the Gauss–Seidel fallback — happens at the same iteration.
//!
//! Each BiCGSTAB pass fuses a vector update with the reductions that read
//! it (the matrix–vector product with its dot product, the residual update
//! with its norm), and every reduction still folds sequentially in index
//! order — so the iterates are bit-identical to the one-reduction-per-pass
//! CSR form kept as the test reference, which reads its CSR input through
//! a test-only [`Generator`] adapter.
//!
//! The solver can fail (breakdown of the BiCGSTAB recurrence, stagnation
//! short of the tolerance); callers fall back to the unconditionally
//! convergent Gauss–Seidel sweep — see
//! [`crate::sparse::stationary_distribution_of`], which owns that routing.

use crate::error::NumericError;
use crate::sparse::{Generator, SolveStats};

#[cfg(any(test, feature = "reference"))]
pub mod reference;

/// Preconditioner of the BiCGSTAB stationary solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preconditioner {
    /// Diagonal (Jacobi) scaling only: the anchored system is assembled
    /// with a unit diagonal, so this runs plain BiCGSTAB on the scaled
    /// matrix. No setup cost and the cheapest iteration; the default,
    /// because on the master-equation lattices its extra iterations cost
    /// less than ILU(0)'s latency-bound triangular solves.
    #[default]
    Jacobi,
    /// Zero-fill incomplete LU factorisation of the scaled anchored
    /// matrix. One extra `nnz`-sized factor plus two triangular solves per
    /// iteration, for a third to a quarter of Jacobi's iterations on the
    /// master-equation lattices.
    Ilu0,
}

impl Preconditioner {
    /// The solver name reported in [`SolveStats`] for this preconditioner.
    #[must_use]
    pub fn solver_name(&self) -> &'static str {
        match self {
            Preconditioner::Jacobi => "bicgstab-jacobi",
            Preconditioner::Ilu0 => "bicgstab-ilu0",
        }
    }
}

/// Options of one BiCGSTAB solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrylovOptions {
    /// Preconditioner choice.
    pub preconditioner: Preconditioner,
    /// Convergence threshold on the 2-norm of the scaled residual. The
    /// right-hand side is `e_anchor` (2-norm 1), so this is an absolute
    /// threshold comparable to the Gauss–Seidel per-state tolerance.
    pub tolerance: f64,
    /// Iteration budget before reporting [`NumericError::NoConvergence`].
    pub max_iterations: usize,
}

/// Handle of one lane of an [`AnchoredStencil`] under assembly, from
/// [`AnchoredStencil::lane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane(usize);

/// The row-scaled anchored system `A = D⁻¹·(diag(out_rate) − Q)` in
/// offset-diagonal form, written by a [`Generator`] through
/// [`AnchoredStencil::lane`] and [`AnchoredStencil::add_inflow`].
///
/// Lanes are stored in creation order (the diagonal first); `order` lists
/// them by ascending offset, which is ascending column order within every
/// row.
#[derive(Debug, Default)]
pub struct AnchoredStencil {
    n: usize,
    /// Presence-bit words per row.
    words: usize,
    /// Column offset of each stored lane.
    offsets: Vec<isize>,
    /// Stored lanes by ascending offset.
    order: Vec<usize>,
    /// Position of the diagonal lane (stored lane 0) within `order`.
    diag: usize,
    /// Lane-major values: slot `(lane, i)` at `lane·n + i`.
    values: Vec<f64>,
    /// Row-major presence bits: slot `(lane, i)` is bit `lane % 64` of
    /// word `i·words + lane / 64`.
    present: Vec<u64>,
    /// Rows assembled before an anchored-diagonal error (`n` on success).
    rows_done: usize,
}

/// Whether row `i` is a balance row: neither the anchor nor a row with
/// `out_rate ≤ 0`, both of which become identity rows.
fn balance_row(out_rate: &[f64], anchor: usize, i: usize) -> bool {
    i != anchor && !(out_rate[i] <= 0.0)
}

impl AnchoredStencil {
    /// Starts an `n`-row system with the diagonal lane seeded by the
    /// out-rates (so within the diagonal the out-rate adds up first).
    fn begin(&mut self, out_rate: &[f64]) {
        let n = out_rate.len();
        self.n = n;
        self.words = 1;
        self.offsets.clear();
        self.offsets.push(0);
        self.order.clear();
        self.order.push(0);
        self.values.clear();
        self.values.extend_from_slice(out_rate);
        self.present.clear();
        self.present.resize(n, 1);
        self.rows_done = 0;
    }

    /// The lane of column offset `offset` (column `i + offset` of row `i`),
    /// created empty on first use.
    pub fn lane(&mut self, offset: isize) -> Lane {
        let found = self
            .order
            .binary_search_by_key(&offset, |&lane| self.offsets[lane]);
        match found {
            Ok(pos) => Lane(self.order[pos]),
            Err(pos) => {
                let lane = self.offsets.len();
                if lane == 64 * self.words {
                    // One more presence word per row.
                    let words = self.words;
                    let mut present = vec![0; self.n * (words + 1)];
                    for (grown, row) in present
                        .chunks_exact_mut(words + 1)
                        .zip(self.present.chunks_exact(words))
                    {
                        grown[..words].copy_from_slice(row);
                    }
                    self.present = present;
                    self.words += 1;
                }
                self.offsets.push(offset);
                self.order.insert(pos, lane);
                self.values.resize(self.values.len() + self.n, 0.0);
                Lane(lane)
            }
        }
    }

    /// Adds inflow rate `rate` into row `row` of `lane` as `−rate`. The
    /// first entry of a slot is stored as is and later ones add up in call
    /// order, so a generator that stamps each column's entries in row order
    /// merges them exactly as a CSR row would. Entries of identity rows are
    /// discarded when the system is finished.
    #[inline]
    pub fn add_inflow(&mut self, lane: Lane, row: usize, rate: f64) {
        let word = &mut self.present[row * self.words + lane.0 / 64];
        let bit = 1_u64 << (lane.0 % 64);
        let value = &mut self.values[lane.0 * self.n + row];
        if *word & bit == 0 {
            *word |= bit;
            *value = -rate;
        } else {
            *value += -rate;
        }
    }

    fn is_present(&self, lane: usize, row: usize) -> bool {
        (self.present[row * self.words + lane / 64] >> (lane % 64)) & 1 != 0
    }

    /// Turns identity rows into unit rows and divides every balance row by
    /// its merged diagonal. The diagonal lane ends up all ones (`d/d` is
    /// exactly 1), which the matrix–vector product relies on.
    ///
    /// # Errors
    ///
    /// [`NumericError::InvalidArgument`] at the first balance row whose
    /// diagonal is not positive and finite; the rows before it are scaled,
    /// the ones after it are left as stamped.
    fn finish(&mut self, out_rate: &[f64], anchor: usize) -> Result<(), NumericError> {
        let (n, words) = (self.n, self.words);
        let mut failure = None;
        for i in 0..n {
            if !balance_row(out_rate, anchor, i) {
                for lane in 1..self.offsets.len() {
                    self.values[lane * n + i] = 0.0;
                }
                self.values[i] = 1.0;
                self.present[i * words..(i + 1) * words].fill(0);
                self.present[i * words] = 1;
                continue;
            }
            let d = self.values[i];
            if !(d > 0.0) || !d.is_finite() {
                failure = Some(NumericError::InvalidArgument(format!(
                    "state {i}: anchored diagonal must be positive and finite, got {d}"
                )));
                self.rows_done = i;
                break;
            }
        }
        if failure.is_none() {
            self.rows_done = n;
        }
        let (diagonal, lanes) = self.values.split_at_mut(n);
        let scaled = ..self.rows_done;
        for lane in lanes.chunks_exact_mut(n) {
            for (value, &d) in lane[scaled].iter_mut().zip(&diagonal[scaled]) {
                *value /= d;
            }
        }
        diagonal[scaled].fill(1.0);
        self.diag = self
            .order
            .iter()
            .position(|&lane| lane == 0)
            .expect("the diagonal lane exists from the start");
        failure.map_or(Ok(()), Err)
    }

    /// The lanes by ascending offset, as `(offset, start of the lane)`.
    fn sorted_lanes(&self) -> Vec<(isize, usize)> {
        self.order
            .iter()
            .map(|&lane| (self.offsets[lane], lane * self.n))
            .collect()
    }

    /// The present slots of the system and its ILU(0) factor as CSR
    /// arrays, for bit-identity pins against [the reference
    /// kernel](self::reference). After an anchored-diagonal error the row
    /// that failed follows the finished rows unscaled, without its row
    /// pointer, as the reference leaves it.
    #[cfg(any(test, feature = "reference"))]
    fn to_reference(&self, ilu: &[f64]) -> reference::AnchoredSystem {
        let mut sys = reference::AnchoredSystem::default();
        sys.row_ptr.push(0);
        for i in 0..self.n.min(self.rows_done + 1) {
            for &lane in &self.order {
                if self.is_present(lane, i) {
                    if lane == 0 && i < self.rows_done {
                        sys.diag_ptr.push(sys.col_idx.len());
                    }
                    sys.col_idx.push((i as isize + self.offsets[lane]) as usize);
                    sys.values.push(self.values[lane * self.n + i]);
                    if !ilu.is_empty() {
                        sys.ilu.push(ilu[lane * self.n + i]);
                    }
                }
            }
            if i < self.rows_done {
                sys.row_ptr.push(sys.col_idx.len());
            }
        }
        sys
    }
}

/// Reusable buffers of the BiCGSTAB solve: the anchored stencil, its
/// optional ILU(0) factor and the iteration vectors. The buffers grow to
/// the problem size on first use; passing one workspace to several solves
/// skips those allocations.
#[derive(Debug, Default)]
pub struct KrylovWorkspace {
    system: AnchoredStencil,
    /// ILU(0) factor values, lane-major like the system's.
    ilu: Vec<f64>,
    // BiCGSTAB vectors.
    x: Vec<f64>,
    r: Vec<f64>,
    rhat: Vec<f64>,
    p: Vec<f64>,
    v: Vec<f64>,
    s: Vec<f64>,
    t: Vec<f64>,
    phat: Vec<f64>,
    shat: Vec<f64>,
}

impl KrylovWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        KrylovWorkspace::default()
    }

    /// The anchored system and ILU(0) factor of the last solve as CSR
    /// arrays (present slots only), for bit-identity pins against [the
    /// reference kernel](self::reference).
    #[cfg(any(test, feature = "reference"))]
    #[must_use]
    pub fn anchored_system(&self) -> reference::AnchoredSystem {
        self.system.to_reference(&self.ilu)
    }
}

/// Fixed-order sequential dot product — the deterministic reduction every
/// BiCGSTAB step uses. The fused kernels below fold their reductions in
/// the same order, term for term.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Rows per block of the lane-by-lane matrix–vector product: the block's
/// partial sums stay in L1 while every lane passes over them.
const MATVEC_BLOCK: usize = 512;

/// `out = A·x`, handing each finished row to `fold(i, out_i)` in row order
/// (the fused reductions).
fn matvec_fold(
    sys: &AnchoredStencil,
    lanes: &[(isize, usize)],
    x: &[f64],
    out: &mut [f64],
    mut fold: impl FnMut(usize, f64),
) {
    let n = sys.n;
    for (b, block) in out.chunks_mut(MATVEC_BLOCK).enumerate() {
        let start = b * MATVEC_BLOCK;
        let end = start + block.len();
        block.fill(0.0);
        for &(offset, base) in lanes {
            if offset == 0 {
                // The unit diagonal: `1·x` is `x`.
                for (o, &xv) in block.iter_mut().zip(&x[start..end]) {
                    *o += xv;
                }
                continue;
            }
            // Rows whose column `i + offset` lies inside the system.
            let lo = start.max(offset.min(0).unsigned_abs());
            let hi = end.min(n - offset.max(0).unsigned_abs().min(n));
            if lo >= hi {
                continue;
            }
            let column = (lo as isize + offset) as usize;
            let values = &sys.values[base + lo..base + hi];
            let xs = &x[column..column + (hi - lo)];
            for ((o, &a), &xv) in block[lo - start..hi - start].iter_mut().zip(values).zip(xs) {
                *o += a * xv;
            }
        }
        for (k, &o) in block.iter().enumerate() {
            fold(start + k, o);
        }
    }
}

/// Computes the ILU(0) factorisation of the assembled system into `ilu`
/// (same lanes; `L` unit-lower, `U` upper with the pivots on the diagonal
/// lane). Row-wise IKJ elimination over the present slots, lower lanes and
/// the pivot row's upper lanes in ascending column order, so the factor is
/// deterministic and the one a CSR elimination over the same pattern
/// computes. The offset-pair table lists, for every lower lane, the upper
/// lanes whose summed offset is itself a lane, with that target lane: an
/// update lands nowhere else.
fn factor_ilu0(sys: &AnchoredStencil, ilu: &mut Vec<f64>) -> Result<(), NumericError> {
    let n = sys.n;
    let (lower, rest) = sys.order.split_at(sys.diag);
    let upper = &rest[1..];
    let pairs: Vec<Vec<(usize, usize)>> = lower
        .iter()
        .map(|&l| {
            upper
                .iter()
                .filter_map(|&u| {
                    let target = sys.offsets[l] + sys.offsets[u];
                    let pos = sys
                        .order
                        .binary_search_by_key(&target, |&lane| sys.offsets[lane])
                        .ok()?;
                    Some((u, sys.order[pos]))
                })
                .collect()
        })
        .collect();
    ilu.clear();
    ilu.extend_from_slice(&sys.values);
    for i in 0..n {
        for (&l, pairs) in lower.iter().zip(&pairs) {
            if !sys.is_present(l, i) {
                continue;
            }
            let k = (i as isize + sys.offsets[l]) as usize;
            let pivot = ilu[k];
            if pivot == 0.0 || !pivot.is_finite() {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            let factor = ilu[l * n + i] / pivot;
            ilu[l * n + i] = factor;
            // Subtract factor × (U-part of row k) from row i, keeping only
            // slots present in row i (zero fill-in).
            for &(u, target) in pairs {
                if sys.is_present(u, k) && sys.is_present(target, i) {
                    ilu[target * n + i] -= factor * ilu[u * n + k];
                }
            }
        }
        let pivot = ilu[i];
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(NumericError::SingularMatrix { pivot: i });
        }
    }
    Ok(())
}

/// Applies the ILU(0) preconditioner, `out = M⁻¹·z`: a forward solve
/// against unit-lower `L` followed by a back substitution against `U`,
/// each row over its in-range lanes in ascending column order. (Jacobi's
/// `M` is the identity, because the system is assembled with a unit
/// diagonal; the iteration skips its apply altogether.)
fn apply_ilu0(
    sys: &AnchoredStencil,
    lanes: &[(isize, usize)],
    ilu: &[f64],
    z: &[f64],
    out: &mut [f64],
) {
    let n = sys.n;
    let (lower, rest) = lanes.split_at(sys.diag);
    let upper = &rest[1..];
    // The nearest neighbours (offsets −1 and +1, present on every
    // master-equation lattice) are the previous row's result on the
    // solves' dependency chain: read from a register, not memory.
    let (lower, left) = match lower.split_last() {
        Some((&(-1, base), far)) => (far, Some(base)),
        _ => (lower, None),
    };
    let (upper, right) = match upper.split_first() {
        Some((&(1, base), far)) => (far, Some(base)),
        _ => (upper, None),
    };
    // Forward: L y = z. Row i reaches back to the lower lanes with
    // offset ≥ −i, a suffix of `lower` that grows with i.
    let mut first = lower.len();
    let mut previous = 0.0;
    for i in 0..n {
        while first > 0 && lower[first - 1].0 >= -(i as isize) {
            first -= 1;
        }
        let mut acc = z[i];
        for &(offset, base) in &lower[first..] {
            acc -= ilu[base + i] * out[(i as isize + offset) as usize];
        }
        if let (Some(base), true) = (left, i > 0) {
            acc -= ilu[base + i] * previous;
        }
        out[i] = acc;
        previous = acc;
    }
    // Backward: U x = y. Row i reaches the upper lanes with
    // offset < n − i, a prefix of `upper` that grows as i falls.
    let mut end = 0;
    let mut next = 0.0;
    for i in (0..n).rev() {
        while end < upper.len() && upper[end].0 < (n - i) as isize {
            end += 1;
        }
        let mut acc = out[i];
        if let (Some(base), true) = (right, i + 1 < n) {
            acc -= ilu[base + i] * next;
        }
        for &(offset, base) in &upper[..end] {
            acc -= ilu[base + i] * out[i + offset as usize];
        }
        next = acc / ilu[i];
        out[i] = next;
    }
}

/// Resizes and zero-fills one iteration vector.
fn reset(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

/// Solves the anchored stationary balance of a [`Generator`] with
/// preconditioned BiCGSTAB and returns the normalised distribution plus
/// its [`SolveStats`].
///
/// The system solved is the same one the Gauss–Seidel sweep relaxes:
/// `out_rate[i]·p_i − Σ_j Q[i][j]·p_j = 0` for every `i ≠ anchor`, with the
/// anchor pinned at 1; the result is clamped to non-negative values
/// (BiCGSTAB components may undershoot 0 by rounding) and normalised to
/// sum 1 — the identical anchoring/normalisation contract.
///
/// The generator's [`stamp`](Generator::stamp) writes the inflow entries
/// into the stencil between seeding the diagonal with the out-rates and
/// scaling the rows, so within one slot the diagonal `out_rate[i]` comes
/// first and the entries follow in stamp order. A generator whose balance
/// rows hold `D` distinct column offsets costs `O(D·n)` memory and time.
///
/// `warm_start` optionally seeds the iteration with a previous converged
/// distribution (any positive scaling; it is re-scaled so the anchor is 1).
/// An unusable warm start (wrong length, no mass on the anchor, non-finite
/// entries) silently degrades to the cold start.
///
/// Every reduction is a fixed-order sequential sum, so the solve is
/// deterministic — bit-identical across runs, machines and thread counts.
///
/// # Errors
///
/// Returns [`NumericError::NoConvergence`] if the recurrence breaks down
/// or the tolerance is not reached within the iteration budget,
/// [`NumericError::SingularMatrix`] if the ILU(0) factorisation hits a
/// zero pivot, and [`NumericError::InvalidArgument`] for a non-positive
/// anchored diagonal. Callers are expected to fall back to Gauss–Seidel
/// (see [`crate::sparse::stationary_distribution_of`]); input validation
/// lives there as well.
pub fn stationary_bicgstab_of<G: Generator + ?Sized>(
    generator: &G,
    anchor: usize,
    options: &KrylovOptions,
    warm_start: Option<&[f64]>,
    ws: &mut KrylovWorkspace,
) -> Result<(Vec<f64>, SolveStats), NumericError> {
    let out_rate = generator.out_rate();
    let n = out_rate.len();
    ws.system.begin(out_rate);
    ws.ilu.clear();
    generator.stamp(&mut ws.system);
    ws.system.finish(out_rate, anchor)?;
    if options.preconditioner == Preconditioner::Ilu0 {
        factor_ilu0(&ws.system, &mut ws.ilu)?;
    }
    let tol = options.tolerance.max(f64::MIN_POSITIVE);
    let KrylovWorkspace {
        system,
        ilu,
        x,
        r,
        rhat,
        p,
        v,
        s,
        t,
        phat,
        shat,
    } = ws;
    let system = &*system;
    let lanes = system.sorted_lanes();
    let lanes = &lanes[..];
    let ilu0 = options.preconditioner == Preconditioner::Ilu0;

    // Cold start: the anchor alone carries mass (the Gauss–Seidel initial
    // state). Warm start: a previous distribution re-scaled to anchor 1.
    reset(x, n);
    match warm_start {
        Some(w) if w.len() == n && w[anchor] > 0.0 && w.iter().all(|value| value.is_finite()) => {
            let scale = 1.0 / w[anchor];
            for (x, &wv) in x.iter_mut().zip(w) {
                *x = wv * scale;
            }
        }
        _ => x[anchor] = 1.0,
    }

    for buf in [&mut *r, &mut *rhat, &mut *p, &mut *v, &mut *s, &mut *t] {
        reset(buf, n);
    }
    // Jacobi's preconditioned vectors are `p` and `s` themselves.
    if ilu0 {
        reset(phat, n);
        reset(shat, n);
    }

    // r = b − A x, with b = e_anchor.
    matvec_fold(system, lanes, x, r, |_, _| {});
    for r in r.iter_mut() {
        *r = -*r;
    }
    r[anchor] += 1.0;

    // Each pass below fuses a vector update with the reductions that read
    // it; every reduction still folds its terms sequentially in index order,
    // so the iterates are those of one-reduction-per-pass BiCGSTAB, bit for
    // bit (pinned against `reference`).
    let solver = options.preconditioner.solver_name();
    let mut residual = dot(r, r).sqrt();
    let mut iterations = 0usize;
    let mut converged = residual <= tol && residual.is_finite();
    if !converged {
        rhat.copy_from_slice(r);
        let (mut rho, mut alpha, mut omega) = (1.0_f64, 1.0_f64, 1.0_f64);
        // ρ = r̂·r of the coming iteration, folded by the previous one's
        // residual pass.
        let mut rho_new = dot(rhat, r);
        let breakdown = |iterations: usize, residual: f64| NumericError::NoConvergence {
            iterations,
            residual,
        };
        for iter in 1..=options.max_iterations {
            iterations = iter;
            if rho_new == 0.0 || !rho_new.is_finite() {
                return Err(breakdown(iter, residual));
            }
            if iter == 1 {
                p.copy_from_slice(r);
            } else {
                let beta = (rho_new / rho) * (alpha / omega);
                if !beta.is_finite() {
                    return Err(breakdown(iter, residual));
                }
                for ((p, &r), &v) in p.iter_mut().zip(&r[..]).zip(&v[..]) {
                    *p = r + beta * (*p - omega * v);
                }
            }
            rho = rho_new;
            let phat: &[f64] = if ilu0 {
                apply_ilu0(system, lanes, ilu, p, phat);
                phat
            } else {
                p
            };
            // v = A·p̂ with r̂·v.
            let mut denom = 0.0;
            matvec_fold(system, lanes, phat, v, |i, vi| denom += rhat[i] * vi);
            if denom == 0.0 || !denom.is_finite() {
                return Err(breakdown(iter, residual));
            }
            alpha = rho / denom;
            // s = r − α·v with s·s.
            let mut ss = 0.0;
            for ((s, &r), &v) in s.iter_mut().zip(&r[..]).zip(&v[..]) {
                *s = r - alpha * v;
                ss += *s * *s;
            }
            let s_norm = ss.sqrt();
            if !s_norm.is_finite() {
                return Err(breakdown(iter, s_norm));
            }
            if s_norm <= tol {
                for (x, &ph) in x.iter_mut().zip(phat) {
                    *x += alpha * ph;
                }
                r.copy_from_slice(s);
                residual = s_norm;
                converged = true;
                break;
            }
            let shat: &[f64] = if ilu0 {
                apply_ilu0(system, lanes, ilu, s, shat);
                shat
            } else {
                s
            };
            // t = A·ŝ with t·t and t·s.
            let (mut tt, mut ts) = (0.0, 0.0);
            matvec_fold(system, lanes, shat, t, |i, ti| {
                tt += ti * ti;
                ts += ti * s[i];
            });
            if tt == 0.0 || !tt.is_finite() {
                return Err(breakdown(iter, s_norm));
            }
            omega = ts / tt;
            if omega == 0.0 || !omega.is_finite() {
                return Err(breakdown(iter, s_norm));
            }
            // x += α·p̂ + ω·ŝ and r = s − ω·t, with r·r and r̂·r.
            let (mut rr, mut rho_next) = (0.0, 0.0);
            for i in 0..n {
                x[i] += alpha * phat[i] + omega * shat[i];
                let ri = s[i] - omega * t[i];
                r[i] = ri;
                rr += ri * ri;
                rho_next += rhat[i] * ri;
            }
            rho_new = rho_next;
            residual = rr.sqrt();
            if !residual.is_finite() {
                return Err(breakdown(iter, residual));
            }
            if residual <= tol {
                converged = true;
                break;
            }
        }
    }
    if !converged {
        return Err(NumericError::NoConvergence {
            iterations,
            residual,
        });
    }

    // The recurrence residual can drift from the true residual; re-check
    // against the assembled system before accepting the solution.
    matvec_fold(system, lanes, x, t, |_, _| {});
    t[anchor] -= 1.0;
    let true_residual = dot(t, t).sqrt();
    if !true_residual.is_finite() || true_residual > 10.0 * tol.max(1e-300) {
        return Err(NumericError::NoConvergence {
            iterations,
            residual: true_residual,
        });
    }

    // Clamp rounding undershoot and normalise — the same contract as the
    // Gauss–Seidel path (whose iterates are non-negative by construction).
    let mut probabilities = vec![0.0; n];
    let mut total = 0.0;
    for (p, &x) in probabilities.iter_mut().zip(&x[..]) {
        *p = if x > 0.0 { x } else { 0.0 };
        total += *p;
    }
    if !total.is_finite() || total <= 0.0 {
        return Err(NumericError::NoConvergence {
            iterations,
            residual: total,
        });
    }
    for p in &mut probabilities {
        *p /= total;
    }
    Ok((
        probabilities,
        SolveStats {
            solver,
            iterations,
            residual: true_residual,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;
    use proptest::prelude::*;
    use reference::MatrixGenerator;

    /// [`stationary_bicgstab_of`] over an inflow matrix, through the test
    /// adapter.
    fn solve_csr(
        inflow: &CsrMatrix,
        out_rate: &[f64],
        anchor: usize,
        options: &KrylovOptions,
        warm_start: Option<&[f64]>,
        ws: &mut KrylovWorkspace,
    ) -> Result<(Vec<f64>, SolveStats), NumericError> {
        let generator = MatrixGenerator {
            matrix: inflow,
            out_rate,
            anchor,
        };
        stationary_bicgstab_of(&generator, anchor, options, warm_start, ws)
    }

    /// A random generator shaped like the master equation's: each row pulls
    /// from a few nearby sources, often the same source twice or more (events
    /// with one index offset) and sometimes itself; one row in five arrives
    /// unsorted; some states have no outflow. A `wide` generator has up to
    /// 200 states and draws its sources from the whole state range instead,
    /// repeating the previous source one time in three: up to `2n − 1`
    /// distinct offsets, so one stencil lane per handful of entries and,
    /// past 64 lanes, more than one presence word per row. Rows stay within
    /// 20 merged entries (see the note in
    /// `fused_kernel_matches_the_reference_bits`).
    fn random_generator(seed: u64, wide: bool) -> (CsrMatrix, Vec<f64>) {
        let mut rng = proptest::TestRng::deterministic(&seed.to_string());
        let n = 2 + rng.below(if wide { 200 } else { 40 }) as usize;
        let (mut row_ptr, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut previous = None;
            let mut row: Vec<(usize, f64)> = (0..rng.below(9))
                .map(|_| {
                    let c = match previous {
                        Some(c) if wide && rng.below(3) == 0 => c,
                        _ if wide => rng.below(n as u64) as usize,
                        _ => (i + n * 3 - 2 + rng.below(5) as usize) % n,
                    };
                    previous = Some(c);
                    (c, 1e9 * 10f64.powf(6.0 * rng.unit_f64() - 3.0))
                })
                .collect();
            if rng.below(5) != 0 {
                row.sort_by_key(|&(c, _)| c);
            }
            for (c, v) in row {
                out[c] += v;
                cols.push(c);
                vals.push(v);
            }
            row_ptr.push(cols.len());
        }
        for d in &mut out {
            *d = if rng.below(10) == 0 {
                0.0
            } else {
                *d * (1.0 + 0.1 * rng.unit_f64())
            };
        }
        (
            CsrMatrix::from_parts(n, n, row_ptr, cols, vals).unwrap(),
            out,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stencil kernel (rows stamped into offset lanes, padded
        /// products and triangular solves, offset-pair ILU(0), fused
        /// reductions) reproduces the unfused CSR reference bit for bit:
        /// the anchored system, the factor, the distribution, the
        /// residual, the iteration count and every error — on narrow
        /// generators and on wide ones with many distinct offsets.
        ///
        /// Rows are capped at 20 merged entries: up to that length the
        /// reference's unstable sort is an insertion sort, so its merge order
        /// (row order, diagonal first) is defined and is the fused kernel's
        /// contract. On longer sorted rows with three or more entries in one
        /// column the reference's order is whatever the sort does.
        #[test]
        fn fused_kernel_matches_the_reference_bits(
            seed in 0_u64..u64::MAX,
            anchor_draw in 0_usize..1000,
            ilu in 0_u8..2,
            budget in 1_usize..40,
            warm in 0_u8..3,
            wide in 0_u8..2,
        ) {
            let (inflow, out) = random_generator(seed, wide == 1);
            let n = inflow.rows();
            let anchor = anchor_draw % n;
            let options = KrylovOptions {
                preconditioner: if ilu == 1 { Preconditioner::Ilu0 } else { Preconditioner::Jacobi },
                tolerance: 1e-13,
                max_iterations: budget,
            };
            let seed_p: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
            let warm = (warm == 0).then_some(&seed_p[..]);
            let mut ws = KrylovWorkspace::new();
            let fused = solve_csr(&inflow, &out, anchor, &options, warm, &mut ws);
            let (reference, system) =
                reference::stationary_bicgstab(&inflow, &out, anchor, &options, warm);
            prop_assert_eq!(ws.anchored_system().bits(), system.bits());
            match (fused, reference) {
                (Ok((p, stats)), Ok((q, expected))) => {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&p), bits(&q));
                    prop_assert_eq!(stats.iterations, expected.iterations);
                    prop_assert_eq!(stats.residual.to_bits(), expected.residual.to_bits());
                    prop_assert_eq!(stats.solver, expected.solver);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                }
                (a, b) => {
                    prop_assert!(false, "fused {a:?} vs reference {b:?}");
                }
            }
        }
    }

    #[test]
    fn underflowed_entries_stay_present_and_match_the_reference() {
        // Rates of a few 1e-320 against out-rates near 1e15: `−rate/d`
        // rounds to −0, an entry the CSR kernel kept, so the stencil keeps
        // it present rather than absent — the +3 entries are ILU(0) fill
        // targets of the −1 and +4 lanes.
        let n = 12;
        let mut triplets = Vec::new();
        let mut out = vec![0.0; n];
        for k in 0..n - 1 {
            let (up, down) = if k % 3 == 1 {
                (3e-320, 2e15)
            } else {
                (1e15, 2e15)
            };
            triplets.push((k + 1, k, up));
            triplets.push((k, k + 1, down));
            triplets.push((k, (k + 3) % n, 5e-321));
            triplets.push((k, (k + 4) % n, 5e-321));
            out[k] += up + 1e-320;
            out[k + 1] += down;
        }
        for d in &mut out {
            *d += 1e3;
        }
        let inflow = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        for preconditioner in [Preconditioner::Ilu0, Preconditioner::Jacobi] {
            let options = KrylovOptions {
                preconditioner,
                tolerance: 1e-13,
                max_iterations: 200,
            };
            let mut ws = KrylovWorkspace::new();
            let got = solve_csr(&inflow, &out, 0, &options, None, &mut ws);
            let (expected, system) =
                reference::stationary_bicgstab(&inflow, &out, 0, &options, None);
            let anchored = ws.anchored_system();
            assert_eq!(anchored.bits(), system.bits());
            assert!(anchored
                .values
                .iter()
                .any(|v| v.to_bits() == (-0.0_f64).to_bits()));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let ((p, stats), (q, want)) = (got.unwrap(), expected.unwrap());
            assert_eq!(bits(&p), bits(&q));
            assert_eq!(
                (stats.iterations, stats.residual.to_bits()),
                (want.iterations, want.residual.to_bits())
            );
        }
    }

    fn solve(
        inflow: &CsrMatrix,
        out: &[f64],
        anchor: usize,
        preconditioner: Preconditioner,
    ) -> (Vec<f64>, SolveStats) {
        let mut ws = KrylovWorkspace::new();
        solve_csr(
            inflow,
            out,
            anchor,
            &KrylovOptions {
                preconditioner,
                tolerance: 1e-13,
                max_iterations: 500,
            },
            None,
            &mut ws,
        )
        .unwrap()
    }

    #[test]
    fn two_state_chain_matches_analytic_stationary_distribution() {
        let (a, b) = (3.0e9, 1.0e9);
        let inflow = CsrMatrix::from_triplets(2, 2, &[(1, 0, a), (0, 1, b)]).unwrap();
        for pc in [Preconditioner::Jacobi, Preconditioner::Ilu0] {
            let (p, stats) = solve(&inflow, &[a, b], 0, pc);
            assert!((p[0] - b / (a + b)).abs() < 1e-12, "{pc:?}: {p:?}");
            assert!((p[1] - a / (a + b)).abs() < 1e-12);
            assert!(stats.residual <= 1e-12, "{stats:?}");
            assert!(stats.solver.starts_with("bicgstab"));
        }
    }

    #[test]
    fn birth_death_chain_matches_detailed_balance() {
        let n = 40;
        let (lambda, mu) = (2.0e8, 5.0e8);
        let mut triplets = Vec::new();
        let mut out = vec![0.0; n];
        for k in 0..n - 1 {
            triplets.push((k + 1, k, lambda));
            triplets.push((k, k + 1, mu));
            out[k] += lambda;
            out[k + 1] += mu;
        }
        let inflow = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let r = lambda / mu;
        for pc in [Preconditioner::Jacobi, Preconditioner::Ilu0] {
            let (p, _) = solve(&inflow, &out, 0, pc);
            for k in 1..n {
                let expected = p[0] * r.powi(k as i32);
                // The residual tolerance is absolute (the anchored system's
                // right-hand side has 2-norm 1), so tiny tail components
                // carry absolute error near the tolerance.
                assert!(
                    (p[k] - expected).abs() < 1e-8 * expected + 1e-12,
                    "{pc:?} level {k}: {} vs {expected}",
                    p[k]
                );
            }
            let total: f64 = p.iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_out_rate_states_keep_probability_zero() {
        // State 2 is absorbing (anchor); states 0 and 1 drain into it.
        let inflow =
            CsrMatrix::from_triplets(3, 3, &[(1, 0, 1.0e9), (2, 1, 2.0e9), (2, 0, 0.5e9)]).unwrap();
        let (p, _) = solve(&inflow, &[1.5e9, 2.0e9, 0.0], 2, Preconditioner::Ilu0);
        assert!(p[2] > 1.0 - 1e-12);
        assert!(p[0] < 1e-12 && p[1] < 1e-12);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn warm_start_reconverges_in_fewer_iterations() {
        let n = 60;
        let mut triplets = Vec::new();
        let mut out = vec![0.0; n];
        for k in 0..n - 1 {
            triplets.push((k + 1, k, 3.0e8));
            triplets.push((k, k + 1, 5.0e8));
            out[k] += 3.0e8;
            out[k + 1] += 5.0e8;
        }
        let inflow = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let options = KrylovOptions {
            preconditioner: Preconditioner::Ilu0,
            tolerance: 1e-13,
            max_iterations: 500,
        };
        let mut ws = KrylovWorkspace::new();
        let (cold, cold_stats) = solve_csr(&inflow, &out, 0, &options, None, &mut ws).unwrap();
        let (warm, warm_stats) =
            solve_csr(&inflow, &out, 0, &options, Some(&cold), &mut ws).unwrap();
        assert!(warm_stats.iterations <= cold_stats.iterations);
        for (a, b) in cold.iter().zip(&warm) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn breakdown_and_budget_exhaustion_report_no_convergence() {
        // A chain long enough that two unpreconditioned iterations cannot
        // solve it exactly — the unreachable tolerance must surface as
        // NoConvergence, not as a silently accepted result.
        let n = 40;
        let mut triplets = Vec::new();
        let mut out = vec![0.0; n];
        for k in 0..n - 1 {
            triplets.push((k + 1, k, 2.0e8));
            triplets.push((k, k + 1, 5.0e8));
            out[k] += 2.0e8;
            out[k + 1] += 5.0e8;
        }
        let inflow = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let mut ws = KrylovWorkspace::new();
        let err = solve_csr(
            &inflow,
            &out,
            0,
            &KrylovOptions {
                preconditioner: Preconditioner::Jacobi,
                tolerance: 1e-300,
                max_iterations: 2,
            },
            None,
            &mut ws,
        )
        .unwrap_err();
        assert!(matches!(err, NumericError::NoConvergence { .. }), "{err}");
    }

    #[test]
    fn determinism_bit_identical_across_repeated_solves() {
        let n = 50;
        let mut triplets = Vec::new();
        let mut out = vec![0.0; n];
        for k in 0..n - 1 {
            triplets.push((k + 1, k, 1.0e9 + k as f64));
            triplets.push((k, k + 1, 2.0e9 - k as f64));
            out[k] += 1.0e9 + k as f64;
            out[k + 1] += 2.0e9 - k as f64;
        }
        let inflow = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let (first, _) = solve(&inflow, &out, 0, Preconditioner::Ilu0);
        let (second, _) = solve(&inflow, &out, 0, Preconditioner::Ilu0);
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second));
    }
}
