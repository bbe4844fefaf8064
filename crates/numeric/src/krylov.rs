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
//! * the preconditioner is selectable: [`Preconditioner::Jacobi`] is the
//!   diagonal scaling alone (already baked into the assembled system),
//!   [`Preconditioner::Ilu0`] adds a zero-fill incomplete LU factorisation
//!   of the scaled matrix, which typically cuts the iteration count by an
//!   order of magnitude on the master-equation lattices.
//!
//! All inner loops run over [`KrylovWorkspace`] buffers with 32-bit column
//! indices. Each BiCGSTAB pass fuses a vector update with the reductions
//! that read it (the matrix–vector product with its dot product, the
//! residual update with its norm), and every reduction still folds
//! sequentially in index order — so the iterates are bit-identical to the
//! one-reduction-per-pass form kept as the test reference.
//!
//! The solver can fail (breakdown of the BiCGSTAB recurrence, stagnation
//! short of the tolerance); callers fall back to the unconditionally
//! convergent Gauss–Seidel sweep — see
//! [`crate::sparse::stationary_distribution_with`], which owns that
//! routing.

use crate::error::NumericError;
use crate::sparse::{CsrMatrix, SolveStats};

#[cfg(any(test, feature = "reference"))]
pub mod reference;

/// Preconditioner of the BiCGSTAB stationary solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preconditioner {
    /// Diagonal (Jacobi) scaling only: the anchored system is assembled
    /// with a unit diagonal, so this runs plain BiCGSTAB on the scaled
    /// matrix. No setup cost, weakest acceleration.
    Jacobi,
    /// Zero-fill incomplete LU factorisation of the scaled anchored
    /// matrix. One extra `nnz`-sized factor plus two triangular solves per
    /// iteration, typically an order of magnitude fewer iterations.
    #[default]
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

/// Reusable buffers of the BiCGSTAB solve: the assembled anchored system,
/// the optional ILU(0) factor and the iteration vectors. The buffers grow to
/// the problem size on first use; passing one workspace to several solves
/// skips those allocations.
#[derive(Debug, Default)]
pub struct KrylovWorkspace {
    // Assembled row-scaled anchored system (sorted, deduplicated columns).
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
    /// Position of the diagonal entry within each row.
    diag_ptr: Vec<usize>,
    /// ILU(0) factor values (same sparsity pattern as `values`).
    ilu: Vec<f64>,
    /// ILU(0) scatter map: the position of column `j` in the row under
    /// elimination, [`NO_SLOT`] elsewhere.
    slot: Vec<usize>,
    /// Row-assembly scratch for an inflow row that arrives unsorted.
    row_scratch: Vec<(usize, f64)>,
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

/// Scatter-map marker of a column absent from the row under elimination.
const NO_SLOT: usize = usize::MAX;

impl KrylovWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        KrylovWorkspace::default()
    }

    /// The anchored system and ILU(0) factor of the last solve, for
    /// bit-identity pins against [the reference kernel](self::reference).
    #[cfg(any(test, feature = "reference"))]
    #[must_use]
    pub fn anchored_system(&self) -> reference::AnchoredSystem {
        reference::AnchoredSystem {
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.iter().map(|&c| c as usize).collect(),
            values: self.values.clone(),
            diag_ptr: self.diag_ptr.clone(),
            ilu: self.ilu.clone(),
        }
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

/// Assembles the row-scaled anchored system into the workspace:
/// `A = D⁻¹·(diag(out_rate) − Q)` with row `anchor` replaced by the
/// identity row (and rows with zero out-rate decoupled the same way, which
/// pins their probability at 0 exactly as the Gauss–Seidel sweep does).
///
/// Columns come out sorted with duplicates merged, which the ILU(0)
/// factorisation requires. Merge order: within one column the entries add
/// up in row order, the diagonal `out_rate[i]` first. An inflow row whose
/// columns already ascend (the master equation emits them so) takes one
/// merge pass with the diagonal spliced in; any other row is sorted first.
fn assemble_anchored(
    ws: &mut KrylovWorkspace,
    inflow: &CsrMatrix,
    out_rate: &[f64],
    anchor: usize,
) -> Result<(), NumericError> {
    let n = inflow.rows();
    if u32::try_from(n).is_err() {
        return Err(NumericError::InvalidArgument(format!(
            "{n} states exceed the solver's 32-bit column indices"
        )));
    }
    ws.row_ptr.clear();
    ws.col_idx.clear();
    ws.values.clear();
    ws.diag_ptr.clear();
    ws.row_ptr.reserve(n + 1);
    ws.col_idx.reserve(inflow.nnz() + n);
    ws.values.reserve(inflow.nnz() + n);
    ws.diag_ptr.reserve(n);
    ws.row_ptr.push(0);
    for i in 0..n {
        let row_start = ws.col_idx.len();
        if i == anchor || out_rate[i] <= 0.0 {
            ws.diag_ptr.push(row_start);
            ws.col_idx.push(i as u32);
            ws.values.push(1.0);
            ws.row_ptr.push(row_start + 1);
            continue;
        }
        let (cols, vals) = inflow.row(i);
        let diag = if cols.windows(2).all(|w| w[0] <= w[1]) {
            let split = cols.partition_point(|&c| c < i);
            merge_negated(
                &mut ws.col_idx,
                &mut ws.values,
                row_start,
                &cols[..split],
                &vals[..split],
            );
            let diag = push_merged(&mut ws.col_idx, &mut ws.values, row_start, i, out_rate[i]);
            merge_negated(
                &mut ws.col_idx,
                &mut ws.values,
                row_start,
                &cols[split..],
                &vals[split..],
            );
            diag
        } else {
            let mut scratch = std::mem::take(&mut ws.row_scratch);
            scratch.clear();
            scratch.push((i, out_rate[i]));
            scratch.extend(cols.iter().zip(vals).map(|(&c, &v)| (c, -v)));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut diag = 0;
            for &(c, v) in &scratch {
                let pos = push_merged(&mut ws.col_idx, &mut ws.values, row_start, c, v);
                if c == i {
                    diag = pos;
                }
            }
            ws.row_scratch = scratch;
            diag
        };
        let d = ws.values[diag];
        if !(d > 0.0) || !d.is_finite() {
            return Err(NumericError::InvalidArgument(format!(
                "state {i}: anchored diagonal must be positive and finite, got {d}"
            )));
        }
        for value in &mut ws.values[row_start..] {
            *value /= d;
        }
        ws.diag_ptr.push(diag);
        ws.row_ptr.push(ws.col_idx.len());
    }
    Ok(())
}

/// Appends entry `(c, v)` to the row that starts at `row_start`, adding it
/// into the row's last entry if that has column `c`. Entries must arrive in
/// ascending column order. Returns the entry's position.
#[inline(always)]
fn push_merged(
    col_idx: &mut Vec<u32>,
    values: &mut Vec<f64>,
    row_start: usize,
    c: usize,
    v: f64,
) -> usize {
    let c = c as u32;
    if col_idx.len() > row_start && col_idx.last() == Some(&c) {
        let last = values.len() - 1;
        values[last] += v;
        return last;
    }
    col_idx.push(c);
    values.push(v);
    col_idx.len() - 1
}

/// [`push_merged`] over a run of inflow entries, negated.
fn merge_negated(
    col_idx: &mut Vec<u32>,
    values: &mut Vec<f64>,
    row_start: usize,
    cols: &[usize],
    vals: &[f64],
) {
    for (&c, &v) in cols.iter().zip(vals) {
        push_merged(col_idx, values, row_start, c, -v);
    }
}

/// Row `i` of `A·x` (a fixed-order row sum).
#[inline(always)]
fn row_dot(row_ptr: &[usize], col_idx: &[u32], values: &[f64], x: &[f64], i: usize) -> f64 {
    let span = row_ptr[i]..row_ptr[i + 1];
    let mut acc = 0.0;
    for (&c, &a) in col_idx[span.clone()].iter().zip(&values[span]) {
        acc += a * x[c as usize];
    }
    acc
}

/// `out = A·x` over the assembled system.
fn matvec(row_ptr: &[usize], col_idx: &[u32], values: &[f64], x: &[f64], out: &mut [f64]) {
    for (i, out_i) in out.iter_mut().enumerate() {
        *out_i = row_dot(row_ptr, col_idx, values, x, i);
    }
}

/// `out = A·x` and, in the same pass, `Σ w_i·out_i` (the fold of [`dot`]).
fn matvec_dot(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &mut [f64],
    w: &[f64],
) -> f64 {
    let mut dot = 0.0;
    for (i, (out_i, &w_i)) in out.iter_mut().zip(w).enumerate() {
        *out_i = row_dot(row_ptr, col_idx, values, x, i);
        dot += w_i * *out_i;
    }
    dot
}

/// `out = A·x` and, in the same pass, `(out·out, out·w)`.
fn matvec_dot2(
    row_ptr: &[usize],
    col_idx: &[u32],
    values: &[f64],
    x: &[f64],
    out: &mut [f64],
    w: &[f64],
) -> (f64, f64) {
    let (mut oo, mut ow) = (0.0, 0.0);
    for (i, (out_i, &w_i)) in out.iter_mut().zip(w).enumerate() {
        let o = row_dot(row_ptr, col_idx, values, x, i);
        *out_i = o;
        oo += o * o;
        ow += o * w_i;
    }
    (oo, ow)
}

/// Computes the ILU(0) factorisation of the assembled system into
/// `ws.ilu` (same sparsity pattern; `L` unit-lower, `U` upper with the
/// pivots on the stored diagonal). Row-wise IKJ elimination in fixed
/// order, so the factor is deterministic. The row under elimination is
/// scattered into a column→position map, so each update of the `U`-part
/// of pivot row `k` finds its target (or its absence) in one lookup: the
/// same positions, in the same order, that a merge scan of the two sorted
/// rows visits.
fn factor_ilu0(ws: &mut KrylovWorkspace, n: usize) -> Result<(), NumericError> {
    let KrylovWorkspace {
        row_ptr,
        col_idx,
        values,
        diag_ptr,
        ilu,
        slot,
        ..
    } = ws;
    ilu.clear();
    ilu.extend_from_slice(values);
    slot.clear();
    slot.resize(n, NO_SLOT);
    for i in 0..n {
        let row = row_ptr[i]..row_ptr[i + 1];
        for pos in row.clone() {
            slot[col_idx[pos] as usize] = pos;
        }
        for ptr in row.start..diag_ptr[i] {
            let k = col_idx[ptr] as usize;
            let pivot = ilu[diag_ptr[k]];
            if pivot == 0.0 || !pivot.is_finite() {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            let factor = ilu[ptr] / pivot;
            ilu[ptr] = factor;
            // Subtract factor × (U-part of row k) from row i, keeping only
            // positions already present (zero fill-in).
            for pk in (diag_ptr[k] + 1)..row_ptr[k + 1] {
                let target = slot[col_idx[pk] as usize];
                if target != NO_SLOT {
                    ilu[target] -= factor * ilu[pk];
                }
            }
        }
        for pos in row {
            slot[col_idx[pos] as usize] = NO_SLOT;
        }
        let pivot = ilu[diag_ptr[i]];
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(NumericError::SingularMatrix { pivot: i });
        }
    }
    Ok(())
}

/// Applies the preconditioner: `out = M⁻¹·z`. Jacobi is the identity (the
/// system is assembled with a unit diagonal); ILU(0) is a forward solve
/// against unit-lower `L` followed by a back substitution against `U`.
/// Takes the workspace fields individually so callers can borrow the input
/// and output vectors from the same workspace without copying.
fn apply_preconditioner(
    row_ptr: &[usize],
    diag_ptr: &[usize],
    col_idx: &[u32],
    ilu: &[f64],
    kind: Preconditioner,
    z: &[f64],
    out: &mut [f64],
) {
    match kind {
        Preconditioner::Jacobi => out.copy_from_slice(z),
        Preconditioner::Ilu0 => {
            let n = z.len();
            // Forward: L y = z (unit diagonal, strictly-lower entries).
            for i in 0..n {
                let mut acc = z[i];
                for k in row_ptr[i]..diag_ptr[i] {
                    acc -= ilu[k] * out[col_idx[k] as usize];
                }
                out[i] = acc;
            }
            // Backward: U x = y.
            for i in (0..n).rev() {
                let mut acc = out[i];
                for k in (diag_ptr[i] + 1)..row_ptr[i + 1] {
                    acc -= ilu[k] * out[col_idx[k] as usize];
                }
                out[i] = acc / ilu[diag_ptr[i]];
            }
        }
    }
}

/// Resizes and zero-fills one iteration vector.
fn reset(buf: &mut Vec<f64>, n: usize) {
    buf.clear();
    buf.resize(n, 0.0);
}

/// Solves the anchored stationary balance with preconditioned BiCGSTAB and
/// returns the normalised distribution plus its [`SolveStats`].
///
/// The system solved is the same one the Gauss–Seidel sweep relaxes:
/// `out_rate[i]·p_i − Σ_j inflow[i][j]·p_j = 0` for every `i ≠ anchor`,
/// with the anchor pinned at 1; the result is clamped to non-negative
/// values (BiCGSTAB components may undershoot 0 by rounding) and
/// normalised to sum 1 — the identical anchoring/normalisation contract.
///
/// `warm_start` optionally seeds the iteration with a previous converged
/// distribution (any positive scaling; it is re-scaled so the anchor is 1).
/// A warm start from an adjacent bias point typically converges in a
/// handful of iterations. An unusable warm start (wrong length, no mass on
/// the anchor, non-finite entries) silently degrades to the cold start.
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
/// (see [`crate::sparse::stationary_distribution_with`]); input shape and
/// sign validation lives there as well.
pub fn stationary_bicgstab(
    inflow: &CsrMatrix,
    out_rate: &[f64],
    anchor: usize,
    options: &KrylovOptions,
    warm_start: Option<&[f64]>,
    ws: &mut KrylovWorkspace,
) -> Result<(Vec<f64>, SolveStats), NumericError> {
    let n = inflow.rows();
    assemble_anchored(ws, inflow, out_rate, anchor)?;
    if options.preconditioner == Preconditioner::Ilu0 {
        factor_ilu0(ws, n)?;
    }
    let tol = options.tolerance.max(f64::MIN_POSITIVE);
    let KrylovWorkspace {
        row_ptr,
        col_idx,
        values,
        diag_ptr,
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
        ..
    } = ws;
    let (row_ptr, col_idx, values) = (&row_ptr[..], &col_idx[..], &values[..]);
    let precondition = |z: &[f64], out: &mut [f64]| {
        apply_preconditioner(
            row_ptr,
            diag_ptr,
            col_idx,
            ilu,
            options.preconditioner,
            z,
            out,
        );
    };

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

    for buf in [
        &mut *r, &mut *rhat, &mut *p, &mut *v, &mut *s, &mut *t, &mut *phat, &mut *shat,
    ] {
        reset(buf, n);
    }

    // r = b − A x, with b = e_anchor.
    matvec(row_ptr, col_idx, values, x, r);
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
            precondition(p, phat);
            // v = A·p̂ with r̂·v.
            let denom = matvec_dot(row_ptr, col_idx, values, phat, v, rhat);
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
                for (x, &ph) in x.iter_mut().zip(&phat[..]) {
                    *x += alpha * ph;
                }
                r.copy_from_slice(s);
                residual = s_norm;
                converged = true;
                break;
            }
            precondition(s, shat);
            // t = A·ŝ with t·t and t·s.
            let (tt, ts) = matvec_dot2(row_ptr, col_idx, values, shat, t, s);
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
    matvec(row_ptr, col_idx, values, x, t);
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
    use proptest::prelude::*;

    /// A random generator shaped like the master equation's: each row pulls
    /// from a few nearby sources, often the same source twice or more (events
    /// with one index offset) and sometimes itself; one row in five arrives
    /// unsorted; some states have no outflow. Rows stay within 20 merged
    /// entries (see the note in `fused_kernel_matches_the_reference_bits`).
    fn random_generator(seed: u64) -> (CsrMatrix, Vec<f64>) {
        let mut rng = proptest::TestRng::deterministic(&seed.to_string());
        let n = 2 + rng.below(40) as usize;
        let (mut row_ptr, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
        let mut out = vec![0.0; n];
        for i in 0..n {
            let mut row: Vec<(usize, f64)> = (0..rng.below(9))
                .map(|_| {
                    let c = (i + n * 3 - 2 + rng.below(5) as usize) % n;
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

        /// The fused kernel (sorted-row diagonal merge, 32-bit columns,
        /// scatter-map ILU(0), fused reductions) reproduces the unfused
        /// reference bit for bit: the anchored system, the factor, the
        /// distribution, the residual, the iteration count and every error.
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
        ) {
            let (inflow, out) = random_generator(seed);
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
            let fused = stationary_bicgstab(&inflow, &out, anchor, &options, warm, &mut ws);
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

    fn solve(
        inflow: &CsrMatrix,
        out: &[f64],
        anchor: usize,
        preconditioner: Preconditioner,
    ) -> (Vec<f64>, SolveStats) {
        let mut ws = KrylovWorkspace::new();
        stationary_bicgstab(
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
        let (cold, cold_stats) =
            stationary_bicgstab(&inflow, &out, 0, &options, None, &mut ws).unwrap();
        let (warm, warm_stats) =
            stationary_bicgstab(&inflow, &out, 0, &options, Some(&cold), &mut ws).unwrap();
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
        let err = stationary_bicgstab(
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
