//! LU decomposition with partial pivoting, linear solves, matrix inversion
//! and determinants.
//!
//! This is the workhorse behind both the capacitance-matrix inversion in
//! `se-orthodox` and the modified-nodal-analysis solves in `se-spice`.
//!
//! # Bit contract
//!
//! The kernels choose *when* each element is updated, never *which*
//! floating-point operations it sees. Every entry of the factors, of a
//! solution and of the inverse goes through exactly the operation sequence
//! of the textbook per-column algorithm — elimination `a[r][k] −= l·a[c][k]`
//! for pivot columns `c` ascending, forward substitution
//! `x[i] −= L[i][j]·x[j]` for `j` ascending, back substitution
//! `x[i] −= U[i][j]·x[j]` for `j` ascending followed by one division by
//! `U[i][i]` — so the results are bit-identical to it:
//!
//! * the elimination updates whole rows as slice axpys;
//! * [`LuDecomposition::inverse`] substitutes blocks of 64 unit right-hand
//!   sides at once, row by row (`X[i,:] −= L[i][j]·X[j,:]`), so every step
//!   is a contiguous, auto-vectorised axpy over a cache-resident block;
//!   [`LuDecomposition::solve`] is the same kernel at block width 1.
//!
//! Rust performs no floating-point contraction, so a vectorised axpy rounds
//! exactly like the scalar loop. The one liberty the kernels take is to skip
//! work on exact zeros. `d − 0·s` equals `d` bit for bit unless `s` is
//! non-finite (`0·∞` is NaN) or `d` is `−0` (`−0 − (−0) = +0`), and a
//! subtraction yields `−0` only from a `−0` operand. So every skip needs
//! targets free of `−0`, and each has one more guard:
//!
//! * **Zero multipliers** (elimination) and **zero factor entries**
//!   (substitution, through each row's span of non-zeros). The elimination
//!   checks each pivot row for non-finite values before it skips. The
//!   substitution checks its result instead: a non-finite value never
//!   turns finite again, so a skip that met one leaves a non-finite result,
//!   and such a block is redone from its right-hand sides without skips.
//! * **The envelope** (elimination). Each row's first possibly non-zero
//!   column travels with the row; fill-in never moves it left. A row whose
//!   envelope starts right of the pivot column holds `+0` there: the pivot
//!   search passes it over, and so does the multiplier loop while the
//!   pivot is positive (`+0/p` is `+0` only for `p > 0`). The envelope
//!   holds only while every earlier column ran with the zero-multiplier
//!   skip; otherwise a zero multiplier against a non-finite pivot row may
//!   have written NaN left of it, and it is off for the rest of the
//!   factorisation.
//! * **Trailing zeros** (elimination). A row update stops at the pivot
//!   row's last non-zero, when the multiplier is finite (`NaN·0` is NaN)
//!   and the pivot row is.
//! * **Leading zero rows** (substitution). A block of right-hand sides that
//!   is `+0` above its first non-zero row stays so through forward
//!   substitution, which starts there and starts each row's L span there
//!   too — when every L entry is finite, which the factorisation records.
//!
//! The skips are what let a banded matrix — the island capacitance matrix
//! of a row-major 2-D array has bandwidth ≈ its row length `N` — factor in
//! ≈ `N²·n` operations plus `O(n²)` contiguous scans, and invert (64 unit
//! columns at a time) in ≈ `1.5·N·n²` operations, instead of `n³/3` and
//! `n³`.

use crate::error::NumericError;
use crate::matrix::Matrix;

/// LU decomposition `P·A = L·U` of a square matrix with partial pivoting.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation, used for the determinant.
    perm_sign: f64,
    /// Per row `i`, the columns `first..end` outside which the row of the
    /// factors holds only zeros (`first ≤ i < end`).
    row_span: Vec<(usize, usize)>,
    /// Whether every entry of L is finite, so that `L[i][j]·(+0)` is a
    /// zero and the substitution may skip the rows of a block above its
    /// first non-zero row.
    lower_finite: bool,
}

/// Relative pivot threshold below which a matrix is declared singular.
const SINGULARITY_THRESHOLD: f64 = 1e-13;

/// Right-hand sides [`LuDecomposition::inverse`] substitutes at once: an
/// `n × 64` block stays cache-resident up to a few thousand rows (512 KiB
/// at n = 1024).
const INVERSE_BLOCK: usize = 64;

impl LuDecomposition {
    /// Factorises the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the matrix is not
    /// square and [`NumericError::SingularMatrix`] if a pivot falls below the
    /// singularity threshold relative to the matrix scale.
    pub fn new(a: &Matrix) -> Result<Self, NumericError> {
        if !a.is_square() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let scale = a.max_abs().max(f64::MIN_POSITIVE);
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        // The multipliers stored below the diagonal are never updated again,
        // so the active rows hold a −0 only if the input did.
        let targets_clean = !has_negative_zero(a.as_slice());
        // Per row, the first column that may hold a non-zero; the row moves
        // with its entry. While `envelope` holds, every active entry left of
        // it is still the input's +0.
        let mut first_nz: Vec<usize> = a
            .as_slice()
            .chunks_exact(n)
            .map(|row| row.iter().position(|&v| v != 0.0).unwrap_or(n))
            .collect();
        let mut envelope = targets_clean;

        for col in 0..n {
            // Find pivot; rows whose envelope starts right of `col` hold a
            // zero there and can never win.
            let data = lu.as_slice();
            let mut pivot_row = col;
            let mut pivot_val = data[col * n + col].abs();
            for (row, &first) in first_nz.iter().enumerate().skip(col + 1) {
                if envelope && first > col {
                    continue;
                }
                let v = data[row * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < SINGULARITY_THRESHOLD * scale {
                return Err(NumericError::SingularMatrix { pivot: col });
            }
            if pivot_row != col {
                lu.swap_rows(pivot_row, col);
                perm.swap(pivot_row, col);
                first_nz.swap(pivot_row, col);
                perm_sign = -perm_sign;
            }
            let (done, active) = lu.as_mut_slice().split_at_mut((col + 1) * n);
            let pivot = done[col * n + col];
            let upper = &done[col * n + col + 1..];
            let skip_zeros = targets_clean && all_finite(upper);
            // A finite multiplier leaves the entries past the pivot row's
            // last non-zero untouched.
            let band = if skip_zeros {
                upper.iter().rposition(|&u| u != 0.0).map_or(0, |k| k + 1)
            } else {
                upper.len()
            };
            // `+0 / pivot` is `+0` only for a positive pivot.
            let skip_rows = envelope && skip_zeros && pivot > 0.0;
            for (row, &first) in active.chunks_exact_mut(n).zip(&first_nz[col + 1..]) {
                if skip_rows && first > col {
                    continue;
                }
                let factor = row[col] / pivot;
                row[col] = factor;
                if skip_zeros && factor == 0.0 {
                    continue;
                }
                let len = if skip_zeros && factor.is_finite() {
                    band
                } else {
                    upper.len()
                };
                subtract_scaled(&mut row[col + 1..col + 1 + len], factor, &upper[..len]);
            }
            // Rows outside their envelope met a zero multiplier: without the
            // skip, `0·∞` may have written NaN left of the envelope. (A NaN
            // pivot turns every later row, and so every later pivot, NaN.)
            envelope &= skip_zeros;
        }

        let mut lower_finite = true;
        let row_span = lu
            .as_slice()
            .chunks_exact(n)
            .enumerate()
            .map(|(i, row)| {
                let first = row[..i].iter().position(|&l| l != 0.0).unwrap_or(i);
                let last = row[i + 1..].iter().rposition(|&u| u != 0.0);
                lower_finite &= all_finite(&row[first..i]);
                (first, last.map_or(i + 1, |k| i + 2 + k))
            })
            .collect();
        Ok(LuDecomposition {
            lu,
            perm,
            perm_sign,
            row_span,
            lower_finite,
        })
    }

    /// Dimension of the factorised matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        let mut x = vec![0.0; n];
        self.substitute(&mut x, 1, |x| {
            for (xi, &p) in x.iter_mut().zip(&self.perm) {
                *xi = b[p];
            }
        });
        Ok(x)
    }

    /// Computes the inverse matrix by solving against the unit vectors, 64
    /// columns at a time.
    ///
    /// # Errors
    ///
    /// Never fails for a successfully factorised matrix; the `Result` is
    /// kept for API stability.
    pub fn inverse(&self) -> Result<Matrix, NumericError> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut block = vec![0.0; n * INVERSE_BLOCK.min(n)];
        for first in (0..n).step_by(INVERSE_BLOCK) {
            let width = INVERSE_BLOCK.min(n - first);
            let block = &mut block[..n * width];
            // Unit vectors e_first.. e_first+width−1, in pivot order.
            self.substitute(block, width, |block| {
                block.fill(0.0);
                for (i, &p) in self.perm.iter().enumerate() {
                    if (first..first + width).contains(&p) {
                        block[i * width + p - first] = 1.0;
                    }
                }
            });
            for (dst, src) in inv
                .as_mut_slice()
                .chunks_exact_mut(n)
                .zip(block.chunks_exact(width))
            {
                dst[first..first + width].copy_from_slice(src);
            }
        }
        Ok(inv)
    }

    /// Forward and back substitution in place on `x`, an `n × width`
    /// row-major block that `fill` loads with the right-hand sides in pivot
    /// order. Zeros of the factors are skipped unless that could change a
    /// bit (see the module docs); a result that might differ is recomputed
    /// from a fresh `fill` without skips.
    fn substitute(&self, x: &mut [f64], width: usize, fill: impl Fn(&mut [f64])) {
        fill(x);
        let skip_zeros = !has_negative_zero(x);
        self.substitute_rows(x, width, skip_zeros);
        if skip_zeros && !all_finite(x) {
            fill(x);
            self.substitute_rows(x, width, false);
        }
    }

    fn substitute_rows(&self, x: &mut [f64], width: usize, skip_zeros: bool) {
        let n = self.dim();
        let lu = self.lu.as_slice();
        // Rows above the block's first non-zero row stay +0 through forward
        // substitution, and their products with finite L entries are zeros.
        let start = if skip_zeros && self.lower_finite {
            x.chunks_exact(width)
                .position(|row| row.iter().any(|&v| v != 0.0))
                .unwrap_or(n)
        } else {
            0
        };
        // Forward substitution (L is unit lower triangular).
        for i in start..n {
            let first = if skip_zeros {
                self.row_span[i].0.max(start)
            } else {
                0
            };
            let (solved, rest) = x.split_at_mut(i * width);
            let target = &mut rest[..width];
            for (j, &l) in (first..i).zip(&lu[i * n + first..i * n + i]) {
                if !(skip_zeros && l == 0.0) {
                    subtract_scaled(target, l, &solved[j * width..(j + 1) * width]);
                }
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            let end = if skip_zeros { self.row_span[i].1 } else { n };
            let (head, solved) = x.split_at_mut((i + 1) * width);
            let target = &mut head[i * width..];
            let row = &lu[i * n..(i + 1) * n];
            for (k, &u) in row[i + 1..end].iter().enumerate() {
                if !(skip_zeros && u == 0.0) {
                    subtract_scaled(target, u, &solved[k * width..(k + 1) * width]);
                }
            }
            for v in target.iter_mut() {
                *v /= row[i];
            }
        }
    }

    /// Determinant of the original matrix.
    #[must_use]
    pub fn determinant(&self) -> f64 {
        let n = self.dim();
        let mut det = self.perm_sign;
        for i in 0..n {
            det *= self.lu[(i, i)];
        }
        det
    }
}

/// `dst −= factor · src`, element by element.
fn subtract_scaled(dst: &mut [f64], factor: f64, src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d -= factor * s;
    }
}

// Both scans run branch-free so that they vectorise.
fn has_negative_zero(values: &[f64]) -> bool {
    let negative_zero = (-0.0_f64).to_bits();
    values
        .iter()
        .fold(false, |found, v| found | (v.to_bits() == negative_zero))
}

fn all_finite(values: &[f64]) -> bool {
    values.iter().fold(true, |finite, v| finite & v.is_finite())
}

/// Convenience function: solves `A·x = b` in one call.
///
/// # Errors
///
/// Returns the factorisation or solve error.
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, NumericError> {
    LuDecomposition::new(a)?.solve(b)
}

/// Convenience function: inverts `A` in one call.
///
/// # Errors
///
/// Returns the factorisation error if `A` is singular or not square.
pub fn invert(a: &Matrix) -> Result<Matrix, NumericError> {
    LuDecomposition::new(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The per-column algorithm the kernels must reproduce bit for bit,
    /// kept verbatim from before the blocked kernels as the reference.
    mod reference {
        use super::*;

        pub fn factor(a: &Matrix) -> Result<LuDecomposition, NumericError> {
            let n = a.rows();
            let scale = a.max_abs().max(f64::MIN_POSITIVE);
            let mut lu = a.clone();
            let mut perm: Vec<usize> = (0..n).collect();
            let mut perm_sign = 1.0;
            for col in 0..n {
                let mut pivot_row = col;
                let mut pivot_val = lu[(col, col)].abs();
                for row in (col + 1)..n {
                    let v = lu[(row, col)].abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = row;
                    }
                }
                if pivot_val < SINGULARITY_THRESHOLD * scale {
                    return Err(NumericError::SingularMatrix { pivot: col });
                }
                if pivot_row != col {
                    lu.swap_rows(pivot_row, col);
                    perm.swap(pivot_row, col);
                    perm_sign = -perm_sign;
                }
                let pivot = lu[(col, col)];
                for row in (col + 1)..n {
                    let factor = lu[(row, col)] / pivot;
                    lu[(row, col)] = factor;
                    for k in (col + 1)..n {
                        let upper = lu[(col, k)];
                        lu[(row, k)] -= factor * upper;
                    }
                }
            }
            Ok(LuDecomposition {
                lu,
                perm,
                perm_sign,
                row_span: Vec::new(),
                lower_finite: false,
            })
        }

        pub fn solve(f: &LuDecomposition, b: &[f64]) -> Vec<f64> {
            let n = f.dim();
            let mut x: Vec<f64> = f.perm.iter().map(|&p| b[p]).collect();
            for i in 1..n {
                let mut sum = x[i];
                for j in 0..i {
                    sum -= f.lu[(i, j)] * x[j];
                }
                x[i] = sum;
            }
            for i in (0..n).rev() {
                let mut sum = x[i];
                for j in (i + 1)..n {
                    sum -= f.lu[(i, j)] * x[j];
                }
                x[i] = sum / f.lu[(i, i)];
            }
            x
        }

        pub fn inverse(f: &LuDecomposition) -> Matrix {
            let n = f.dim();
            let mut inv = Matrix::zeros(n, n);
            let mut e = vec![0.0; n];
            for col in 0..n {
                e[col] = 1.0;
                let x = solve(f, &e);
                for row in 0..n {
                    inv[(row, col)] = x[row];
                }
                e[col] = 0.0;
            }
            inv
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Asserts that the factors, a solve of every `rhs`, the inverse and the
    /// determinant all equal the reference's to the bit.
    fn assert_bit_identical(a: &Matrix, rhs: &[Vec<f64>]) {
        let fast = LuDecomposition::new(a);
        let slow = reference::factor(a);
        let (fast, slow) = match (fast, slow) {
            (Ok(fast), Ok(slow)) => (fast, slow),
            (Err(fast), Err(slow)) => {
                assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
                return;
            }
            (fast, slow) => panic!("factorisations disagree: {fast:?} vs {slow:?}"),
        };
        assert_eq!(
            bits(fast.lu.as_slice()),
            bits(slow.lu.as_slice()),
            "factors"
        );
        assert_eq!(fast.perm, slow.perm);
        for b in rhs {
            let x = fast.solve(b).unwrap();
            assert_eq!(bits(&x), bits(&reference::solve(&slow, b)), "solve");
        }
        let inv = fast.inverse().unwrap();
        let inv_ref = reference::inverse(&slow);
        assert_eq!(bits(inv.as_slice()), bits(inv_ref.as_slice()), "inverse");
        assert_eq!(
            fast.determinant().to_bits(),
            slow.determinant().to_bits(),
            "determinant"
        );
    }

    /// A value that is `+0`, `−0` or uniform in `[-2, 2)`, with the given
    /// probabilities of the two zeros.
    fn sparse_value(rng: &mut StdRng, zero: f64, negative_zero: f64) -> f64 {
        let u: f64 = rng.gen();
        if u < negative_zero {
            -0.0
        } else if u < negative_zero + zero {
            0.0
        } else {
            4.0 * rng.gen::<f64>() - 2.0
        }
    }

    #[test]
    fn solves_small_system_exactly() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = solve(&a, &[3.0, 5.0]).unwrap();
        // 2x + y = 3, x + 3y = 5 -> x = 0.8, y = 1.4
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let err = LuDecomposition::new(&a).unwrap_err();
        assert!(matches!(err, NumericError::SingularMatrix { .. }));
    }

    #[test]
    fn rejects_non_square_matrix() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a =
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]).unwrap();
        let inv = invert(&a).unwrap();
        let prod = a.mul_matrix(&inv).unwrap();
        let diff = &prod - &Matrix::identity(3);
        assert!(diff.max_abs() < 1e-12);
    }

    #[test]
    fn determinant_of_triangular_matrix() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.0], &[0.0, 3.0, 5.0], &[0.0, 0.0, 4.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() - 24.0).abs() < 1e-10);
    }

    #[test]
    fn determinant_sign_tracks_permutation() {
        // Swapping two rows of the identity gives determinant -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuDecomposition::new(&a).unwrap();
        assert!((lu.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_rejects_wrong_length_rhs() {
        let a = Matrix::identity(3);
        let lu = LuDecomposition::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    /// The cases where skipping a zero product would change a bit:
    /// `−0 − (−0)` is `+0`, and `0·∞` and `NaN·0` are NaN. A `−0` on the
    /// right-hand side must switch the substitution's skips off; an infinite
    /// pivot row the elimination's; a NaN multiplier must not be skipped;
    /// an infinite source row in the substitution leaves a non-finite
    /// result, which makes the block run again from its right-hand side
    /// without skips; and a non-finite pivot row must switch the envelope
    /// off for the rest of the factorisation.
    #[test]
    fn signed_zeros_and_non_finite_values_match_the_reference() {
        let inf = f64::INFINITY;
        let diagonal = Matrix::from_diagonal(&[2.0, 3.0]);
        assert_bit_identical(&diagonal, &[vec![-1.0, -0.0]]);
        let infinite_pivot_row = Matrix::from_rows(&[&[inf, inf], &[1.0, inf]]).unwrap();
        assert_bit_identical(&infinite_pivot_row, &[vec![1.0, 2.0]]);
        let nan_multiplier =
            Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[f64::NAN, 1.0, 1.0], &[0.0, 1.0, 1.0]])
                .unwrap();
        assert_bit_identical(&nan_multiplier, &[vec![1.0, 2.0, 3.0]]);
        // Skipping `U[0][1]·x[1]` with `x[1] = −∞` leaves x[0] = 1, where the
        // reference has `1 − 0·(−∞)` = NaN; the redo must start from b, or
        // x[1] would be divided by −2 twice.
        let negative_diagonal = Matrix::from_diagonal(&[1.0, -2.0]);
        assert_bit_identical(&negative_diagonal, &[vec![1.0, inf], vec![1.0, 2.0]]);
        let x = LuDecomposition::new(&negative_diagonal)
            .unwrap()
            .solve(&[1.0, inf])
            .unwrap();
        assert!(x[0].is_nan() && x[1] == -inf);
        // Column 0 overflows row 1 to −∞ at column 2, so column 1's pivot
        // row is non-finite and its zero multiplier writes NaN into row 3
        // left of row 3's envelope. Column 2's pivot is then +∞ with a
        // finite row: the envelope must be off for row 3 to take its NaN
        // multiplier there.
        let huge = 1e308;
        let overflow = Matrix::from_rows(&[
            &[1e300, 0.0, huge, 0.0],
            &[1e300, 1e300, -huge, 0.0],
            &[0.0, 1e300, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1e300],
        ])
        .unwrap();
        assert_bit_identical(&overflow, &[vec![1.0, 0.0, 0.0, 1.0]]);
    }

    /// The island capacitance matrix of a 2-D array built like the array
    /// decks: rows of `side` islands (the band width of the matrix), 0.5 aF
    /// horizontal and 0.3 aF vertical junctions, leads at both row ends and
    /// a seeded 0.03–0.2 aF stray capacitor per island.
    fn grid_capacitance_matrix(side: usize, rows: usize, seed: u64) -> Matrix {
        let n = side * rows;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Matrix::zeros(n, n);
        let mut couple = |i: usize, j: Option<usize>, cap: f64| {
            c.add_at(i, i, cap);
            if let Some(j) = j {
                c.add_at(j, j, cap);
                c.add_at(i, j, -cap);
                c.add_at(j, i, -cap);
            }
        };
        for r in 0..rows {
            for col in 0..side {
                let i = r * side + col;
                let right = (col + 1 < side).then_some(i + 1);
                couple(i, right, 0.5e-18);
                if col == 0 {
                    couple(i, None, 0.5e-18);
                }
                if r + 1 < rows {
                    couple(i, Some(i + side), 0.3e-18);
                }
                couple(i, None, (0.03 + 0.17 * rng.gen::<f64>()) * 1e-18);
            }
        }
        c
    }

    /// Six rows of 32 islands make 192 islands, three inverse blocks; the
    /// full 32×32 array would take the per-column reference inverse most
    /// of a minute in an unoptimised build.
    #[test]
    fn grid_capacitance_matrix_inverts_bit_identically() {
        let c = grid_capacitance_matrix(32, 6, 7);
        let b: Vec<f64> = (0..c.rows()).map(|i| (i % 7) as f64 * 1e-19).collect();
        assert_bit_identical(&c, &[b]);
    }

    /// The full 32×32 array, where the envelope skips do most of their
    /// work: the factors, a solve and the determinant against the
    /// reference, and the inverse columns at the block edges and in the
    /// last block against reference solves of their unit vectors.
    #[test]
    fn full_grid_capacitance_matrix_factors_bit_identically() {
        let c = grid_capacitance_matrix(32, 32, 11);
        let n = c.rows();
        let fast = LuDecomposition::new(&c).unwrap();
        let slow = reference::factor(&c).unwrap();
        assert_eq!(bits(fast.lu.as_slice()), bits(slow.lu.as_slice()));
        assert_eq!(fast.perm, slow.perm);
        let b: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 1e-19).collect();
        assert_eq!(
            bits(&fast.solve(&b).unwrap()),
            bits(&reference::solve(&slow, &b))
        );
        assert_eq!(fast.determinant().to_bits(), slow.determinant().to_bits());
        let inverse = fast.inverse().unwrap();
        for col in [0, 1, 63, 64, 65, 511, 960, n - 2, n - 1] {
            let mut e = vec![0.0; n];
            e[col] = 1.0;
            let column: Vec<f64> = (0..n).map(|row| inverse[(row, col)]).collect();
            assert_eq!(
                bits(&column),
                bits(&reference::solve(&slow, &e)),
                "column {col}"
            );
        }
    }

    proptest! {
        /// Diagonally dominant random matrices are well conditioned; solving
        /// and multiplying back must reproduce the right-hand side.
        #[test]
        fn prop_solve_residual_is_small(
            seed_values in proptest::collection::vec(-1.0_f64..1.0, 9..=9),
            b in proptest::collection::vec(-10.0_f64..10.0, 3..=3),
        ) {
            let mut a = Matrix::zeros(3, 3);
            for i in 0..3 {
                for j in 0..3 {
                    a[(i, j)] = seed_values[i * 3 + j];
                }
                // Force diagonal dominance.
                a[(i, i)] += 4.0;
            }
            let x = solve(&a, &b).unwrap();
            let r = a.mul_vec(&x);
            for (ri, bi) in r.iter().zip(&b) {
                prop_assert!((ri - bi).abs() < 1e-9);
            }
        }

        /// det(A) * det(A^-1) == 1 for well-conditioned matrices.
        #[test]
        fn prop_determinant_of_inverse(
            seed_values in proptest::collection::vec(-1.0_f64..1.0, 16..=16),
        ) {
            let mut a = Matrix::zeros(4, 4);
            for i in 0..4 {
                for j in 0..4 {
                    a[(i, j)] = seed_values[i * 4 + j];
                }
                a[(i, i)] += 5.0;
            }
            let lu = LuDecomposition::new(&a).unwrap();
            let inv = lu.inverse().unwrap();
            let lu_inv = LuDecomposition::new(&inv).unwrap();
            let prod = lu.determinant() * lu_inv.determinant();
            prop_assert!((prod - 1.0).abs() < 1e-6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        /// The blocked kernels against the per-column reference on random
        /// sparse general matrices, at sizes around the block width: factors,
        /// solves, inverse and determinant agree to the bit, signed zeros
        /// included. A scaled random permutation on top of the sparse fill
        /// forces row swaps and negative pivots; half the cases seed `−0`
        /// entries into the matrix or the right-hand side, which must switch
        /// the zero-multiplier skip off rather than change a bit.
        #[test]
        fn prop_blocked_kernels_are_bit_identical_to_the_reference(
            size in 0_usize..5,
            seed in 0_u64..u64::MAX,
            zero in 0.3_f64..0.95,
            signed_zeros in 0_u8..4,
        ) {
            let n = [1, INVERSE_BLOCK - 1, INVERSE_BLOCK, INVERSE_BLOCK + 1, 2 * INVERSE_BLOCK + 3][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix_negative_zero = if signed_zeros & 1 == 1 { 0.05 } else { 0.0 };
            let rhs_negative_zero = if signed_zeros & 2 == 2 { 0.2 } else { 0.0 };
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = sparse_value(&mut rng, zero, matrix_negative_zero);
                }
            }
            let mut targets: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                targets.swap(i, rng.gen::<u64>() as usize % (i + 1));
            }
            for (i, &j) in targets.iter().enumerate() {
                let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                a[(i, j)] += sign * (1.0 + 3.0 * rng.gen::<f64>());
            }
            let b: Vec<f64> = (0..n)
                .map(|_| sparse_value(&mut rng, 0.3, rhs_negative_zero))
                .collect();
            assert_bit_identical(&a, &[b]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(60))]

        /// The envelope and trailing-zero skips against the reference on
        /// profile matrices: each row holds values only in its own band
        /// `[i − left, i + right]`, drawn per row so the envelope is not
        /// monotone, with exact zeros inside it. Diagonals of random sign
        /// give negative pivots, and a dominant entry at a row's left edge
        /// forces row swaps inside the envelope. Some cases place a NaN or
        /// an infinity inside one row's band, where it reaches multipliers
        /// and pivot rows, and some seed `−0` into the matrix or the
        /// right-hand side.
        #[test]
        fn prop_envelope_skips_are_bit_identical_to_the_reference(
            size in 0_usize..5,
            seed in 0_u64..u64::MAX,
            band in 1_usize..12,
            zero in 0.0_f64..0.6,
            special in 0_u8..8,
        ) {
            let n = [1, INVERSE_BLOCK - 1, INVERSE_BLOCK, INVERSE_BLOCK + 1, 2 * INVERSE_BLOCK + 3][size];
            let mut rng = StdRng::seed_from_u64(seed);
            let matrix_negative_zero = if special & 1 == 1 { 0.05 } else { 0.0 };
            let rhs_negative_zero = if special & 2 == 2 { 0.2 } else { 0.0 };
            let mut a = Matrix::zeros(n, n);
            let mut bands = Vec::with_capacity(n);
            for i in 0..n {
                let left = i.saturating_sub(rng.gen::<u64>() as usize % (band + 1));
                let right = (i + rng.gen::<u64>() as usize % (band + 1)).min(n - 1);
                for j in left..=right {
                    a[(i, j)] = sparse_value(&mut rng, zero, matrix_negative_zero);
                }
                let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
                a[(i, i)] = sign * (1.0 + 3.0 * rng.gen::<f64>());
                if left < i && rng.gen_bool(0.2) {
                    a[(i, left)] = -sign * (8.0 + rng.gen::<f64>());
                }
                bands.push((left, right));
            }
            if special & 4 == 4 {
                let i = rng.gen::<u64>() as usize % n;
                let (left, right) = bands[i];
                let j = left + rng.gen::<u64>() as usize % (right - left + 1);
                a[(i, j)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen::<u64>() as usize % 3];
            }
            let b: Vec<f64> = (0..n)
                .map(|_| sparse_value(&mut rng, 0.3, rhs_negative_zero))
                .collect();
            let unit: Vec<f64> = (0..n).map(|i| if i + 1 == n { 1.0 } else { 0.0 }).collect();
            assert_bit_identical(&a, &[b, unit]);
        }
    }
}
