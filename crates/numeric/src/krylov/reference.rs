//! The straightforward CSR form of the anchored BiCGSTAB kernel, kept as
//! the bit-identity reference for the stencil kernel in [`crate::krylov`].
//!
//! Every row of the anchored system is gathered with its diagonal into a
//! scratch list, sorted by column and merged; the ILU(0) update positions
//! are found by a merge scan; every BiCGSTAB vector update and reduction is
//! its own pass. The stencil kernel must produce the same bits: the same
//! anchored system (its present slots), the same factor, the same iterates
//! and iteration count.
//! [`MatrixGenerator`] feeds an arbitrary inflow matrix to the solvers,
//! which take only a [`Generator`], so the same CSR input reaches both
//! kernels. Compiled for tests only (and behind the `reference` feature,
//! so downstream crates can pin their callers against it).

use super::{balance_row, AnchoredStencil, KrylovOptions, Preconditioner};
use crate::error::NumericError;
use crate::sparse::{CsrMatrix, Generator, SolveStats};

/// An inflow matrix with its out-rates and anchor as a [`Generator`]. Its
/// stamp walks the balance rows in storage order and skips the identity
/// rows (the anchor's and those with `out_rate ≤ 0`), whose columns would
/// otherwise open lanes.
#[derive(Debug, Clone, Copy)]
pub struct MatrixGenerator<'a> {
    /// The inflow matrix `Q`, `Q[i][j]` the rate from state `j` into `i`.
    pub matrix: &'a CsrMatrix,
    /// Total out-rate of every state.
    pub out_rate: &'a [f64],
    /// The anchor the solve pins.
    pub anchor: usize,
}

impl Generator for MatrixGenerator<'_> {
    fn out_rate(&self) -> &[f64] {
        self.out_rate
    }

    fn inflow(&self) -> Result<CsrMatrix, NumericError> {
        Ok(self.matrix.clone())
    }

    fn stamp(&self, system: &mut AnchoredStencil) {
        let balance_rows =
            (0..self.out_rate.len()).filter(|&i| balance_row(self.out_rate, self.anchor, i));
        for i in balance_rows {
            let (cols, vals) = self.matrix.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let lane = system.lane(c as isize - i as isize);
                system.add_inflow(lane, i, v);
            }
        }
    }
}

/// The row-scaled anchored system and its ILU(0) factor, as plain arrays
/// (the factor is empty under [`Preconditioner::Jacobi`]).
#[derive(Debug, Clone, Default)]
pub struct AnchoredSystem {
    /// Row offsets into `col_idx`/`values`.
    pub row_ptr: Vec<usize>,
    /// Sorted, deduplicated column indices of each row.
    pub col_idx: Vec<usize>,
    /// Row-scaled values.
    pub values: Vec<f64>,
    /// Position of each row's diagonal entry.
    pub diag_ptr: Vec<usize>,
    /// ILU(0) factor values on the same pattern.
    pub ilu: Vec<f64>,
}

impl AnchoredSystem {
    /// Every array as integers (floats by their bits), for exact
    /// comparison.
    #[must_use]
    pub fn bits(&self) -> [Vec<u64>; 5] {
        let ints = |v: &[usize]| v.iter().map(|&x| x as u64).collect();
        let floats = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        [
            ints(&self.row_ptr),
            ints(&self.col_idx),
            floats(&self.values),
            ints(&self.diag_ptr),
            floats(&self.ilu),
        ]
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn assemble_anchored(
    sys: &mut AnchoredSystem,
    inflow: &CsrMatrix,
    out_rate: &[f64],
    anchor: usize,
) -> Result<(), NumericError> {
    let n = inflow.rows();
    sys.row_ptr.push(0);
    let mut row_scratch: Vec<(usize, f64)> = Vec::new();
    for i in 0..n {
        if i == anchor || out_rate[i] <= 0.0 {
            sys.diag_ptr.push(sys.col_idx.len());
            sys.col_idx.push(i);
            sys.values.push(1.0);
            sys.row_ptr.push(sys.col_idx.len());
            continue;
        }
        row_scratch.clear();
        row_scratch.push((i, out_rate[i]));
        let (cols, vals) = inflow.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            row_scratch.push((c, -v));
        }
        row_scratch.sort_unstable_by_key(|&(c, _)| c);
        let mut diag = None;
        let mut cursor: Option<usize> = None;
        for &(c, v) in &row_scratch {
            match cursor {
                Some(last) if sys.col_idx[last] == c => sys.values[last] += v,
                _ => {
                    if c == i {
                        diag = Some(sys.col_idx.len());
                    }
                    cursor = Some(sys.col_idx.len());
                    sys.col_idx.push(c);
                    sys.values.push(v);
                }
            }
        }
        let diag = diag.expect("the out-rate entry puts a diagonal in every balance row");
        let d = sys.values[diag];
        if !(d > 0.0) || !d.is_finite() {
            return Err(NumericError::InvalidArgument(format!(
                "state {i}: anchored diagonal must be positive and finite, got {d}"
            )));
        }
        let row_start = sys.row_ptr[i];
        for value in &mut sys.values[row_start..] {
            *value /= d;
        }
        sys.diag_ptr.push(diag);
        sys.row_ptr.push(sys.col_idx.len());
    }
    Ok(())
}

fn factor_ilu0(sys: &mut AnchoredSystem, n: usize) -> Result<(), NumericError> {
    sys.ilu.clone_from(&sys.values);
    for i in 0..n {
        let (start, end) = (sys.row_ptr[i], sys.row_ptr[i + 1]);
        let diag = sys.diag_ptr[i];
        for ptr in start..diag {
            let k = sys.col_idx[ptr];
            let pivot = sys.ilu[sys.diag_ptr[k]];
            if pivot == 0.0 || !pivot.is_finite() {
                return Err(NumericError::SingularMatrix { pivot: k });
            }
            let factor = sys.ilu[ptr] / pivot;
            sys.ilu[ptr] = factor;
            let mut pi = ptr + 1;
            for pk in (sys.diag_ptr[k] + 1)..sys.row_ptr[k + 1] {
                let j = sys.col_idx[pk];
                while pi < end && sys.col_idx[pi] < j {
                    pi += 1;
                }
                if pi < end && sys.col_idx[pi] == j {
                    sys.ilu[pi] -= factor * sys.ilu[pk];
                }
            }
        }
        let pivot = sys.ilu[diag];
        if pivot == 0.0 || !pivot.is_finite() {
            return Err(NumericError::SingularMatrix { pivot: i });
        }
    }
    Ok(())
}

fn matvec(sys: &AnchoredSystem, x: &[f64], out: &mut [f64]) {
    for (i, out_i) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for k in sys.row_ptr[i]..sys.row_ptr[i + 1] {
            acc += sys.values[k] * x[sys.col_idx[k]];
        }
        *out_i = acc;
    }
}

fn apply_preconditioner(sys: &AnchoredSystem, kind: Preconditioner, z: &[f64], out: &mut [f64]) {
    match kind {
        Preconditioner::Jacobi => out.copy_from_slice(z),
        Preconditioner::Ilu0 => {
            let n = z.len();
            for i in 0..n {
                let mut acc = z[i];
                for k in sys.row_ptr[i]..sys.diag_ptr[i] {
                    acc -= sys.ilu[k] * out[sys.col_idx[k]];
                }
                out[i] = acc;
            }
            for i in (0..n).rev() {
                let mut acc = out[i];
                for k in (sys.diag_ptr[i] + 1)..sys.row_ptr[i + 1] {
                    acc -= sys.ilu[k] * out[sys.col_idx[k]];
                }
                out[i] = acc / sys.ilu[sys.diag_ptr[i]];
            }
        }
    }
}

/// The reference solve: same contract as
/// [`super::stationary_bicgstab_of`] over a [`MatrixGenerator`], returning the assembled system (as far
/// as assembly and factorisation got) alongside the result.
pub fn stationary_bicgstab(
    inflow: &CsrMatrix,
    out_rate: &[f64],
    anchor: usize,
    options: &KrylovOptions,
    warm_start: Option<&[f64]>,
) -> (Result<(Vec<f64>, SolveStats), NumericError>, AnchoredSystem) {
    let mut sys = AnchoredSystem::default();
    let result = solve(&mut sys, inflow, out_rate, anchor, options, warm_start);
    (result, sys)
}

fn solve(
    sys: &mut AnchoredSystem,
    inflow: &CsrMatrix,
    out_rate: &[f64],
    anchor: usize,
    options: &KrylovOptions,
    warm_start: Option<&[f64]>,
) -> Result<(Vec<f64>, SolveStats), NumericError> {
    let n = inflow.rows();
    assemble_anchored(sys, inflow, out_rate, anchor)?;
    if options.preconditioner == Preconditioner::Ilu0 {
        factor_ilu0(sys, n)?;
    }
    let sys = &*sys;
    let tol = options.tolerance.max(f64::MIN_POSITIVE);
    let mut x = vec![0.0; n];
    match warm_start {
        Some(w) if w.len() == n && w[anchor] > 0.0 && w.iter().all(|value| value.is_finite()) => {
            let scale = 1.0 / w[anchor];
            for (x, &wv) in x.iter_mut().zip(w) {
                *x = wv * scale;
            }
        }
        _ => x[anchor] = 1.0,
    }
    let [mut r, mut rhat, mut p, mut v, mut s, mut t, mut phat, mut shat] =
        std::array::from_fn(|_| vec![0.0; n]);
    matvec(sys, &x, &mut r);
    for r in r.iter_mut() {
        *r = -*r;
    }
    r[anchor] += 1.0;

    let solver = options.preconditioner.solver_name();
    let mut residual = norm2(&r);
    let mut iterations = 0usize;
    let mut converged = residual <= tol && residual.is_finite();
    if !converged {
        rhat.copy_from_slice(&r);
        let (mut rho, mut alpha, mut omega) = (1.0_f64, 1.0_f64, 1.0_f64);
        let breakdown = |iterations: usize, residual: f64| NumericError::NoConvergence {
            iterations,
            residual,
        };
        for iter in 1..=options.max_iterations {
            iterations = iter;
            let rho_new = dot(&rhat, &r);
            if rho_new == 0.0 || !rho_new.is_finite() {
                return Err(breakdown(iter, residual));
            }
            if iter == 1 {
                p.copy_from_slice(&r);
            } else {
                let beta = (rho_new / rho) * (alpha / omega);
                if !beta.is_finite() {
                    return Err(breakdown(iter, residual));
                }
                for i in 0..n {
                    p[i] = r[i] + beta * (p[i] - omega * v[i]);
                }
            }
            rho = rho_new;
            apply_preconditioner(sys, options.preconditioner, &p, &mut phat);
            matvec(sys, &phat, &mut v);
            let denom = dot(&rhat, &v);
            if denom == 0.0 || !denom.is_finite() {
                return Err(breakdown(iter, residual));
            }
            alpha = rho / denom;
            for i in 0..n {
                s[i] = r[i] - alpha * v[i];
            }
            let s_norm = norm2(&s);
            if !s_norm.is_finite() {
                return Err(breakdown(iter, s_norm));
            }
            if s_norm <= tol {
                for i in 0..n {
                    x[i] += alpha * phat[i];
                }
                r.copy_from_slice(&s);
                residual = s_norm;
                converged = true;
                break;
            }
            apply_preconditioner(sys, options.preconditioner, &s, &mut shat);
            matvec(sys, &shat, &mut t);
            let tt = dot(&t, &t);
            if tt == 0.0 || !tt.is_finite() {
                return Err(breakdown(iter, s_norm));
            }
            omega = dot(&t, &s) / tt;
            if omega == 0.0 || !omega.is_finite() {
                return Err(breakdown(iter, s_norm));
            }
            for i in 0..n {
                x[i] += alpha * phat[i] + omega * shat[i];
            }
            for i in 0..n {
                r[i] = s[i] - omega * t[i];
            }
            residual = norm2(&r);
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
    matvec(sys, &x, &mut t);
    t[anchor] -= 1.0;
    let true_residual = norm2(&t);
    if !true_residual.is_finite() || true_residual > 10.0 * tol.max(1e-300) {
        return Err(NumericError::NoConvergence {
            iterations,
            residual: true_residual,
        });
    }
    let mut probabilities = vec![0.0; n];
    let mut total = 0.0;
    for (p, &x) in probabilities.iter_mut().zip(&x) {
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
