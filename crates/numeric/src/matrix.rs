//! Dense, row-major `f64` matrix with the operations needed by the
//! capacitance-matrix and modified-nodal-analysis code.

use crate::error::NumericError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Dense, row-major matrix of `f64` values.
///
/// The type itself stays simple; the kernels that work on large instances
/// live with their algorithms. The island capacitance matrix of a 2-D array
/// reaches thousands of rows (1 024 at 32×32 islands) with a band of
/// non-zeros, which the LU kernels in [`crate::lu`] exploit through cache
/// blocking and exact-zero skips. Sparse systems such as master-equation
/// generators use [`crate::CsrMatrix`] instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the rows are empty or
    /// have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NumericError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(NumericError::DimensionMismatch {
                expected: "at least 1x1".into(),
                found: "empty".into(),
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(NumericError::DimensionMismatch {
                    expected: format!("{cols} columns"),
                    found: format!("{} columns in row {i}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if `diag` is empty.
    #[must_use]
    pub fn from_diagonal(diag: &[f64]) -> Self {
        assert!(!diag.is_empty(), "diagonal must be non-empty");
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the entry at `(row, col)`, or `None` if out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Adds `value` to the entry at `(row, col)` (the MNA "stamp" operation).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn add_at(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] += value;
    }

    /// Matrix × vector product.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[must_use]
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "vector length must equal column count");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            out[i] = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Returns the transpose of the matrix.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        // Square tiles keep both the reads and the strided writes within a
        // few cache lines per row.
        const TILE: usize = 32;
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i0 in (0..self.rows).step_by(TILE) {
            for j0 in (0..self.cols).step_by(TILE) {
                for i in i0..(i0 + TILE).min(self.rows) {
                    for j in j0..(j0 + TILE).min(self.cols) {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// Returns `true` if the matrix is symmetric within `tol`.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Maximum absolute entry (infinity norm of the flattened data).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    #[must_use]
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Scales every entry by `factor` in place.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Returns a view of the given row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    #[must_use]
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Swaps two rows in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of bounds");
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    /// Returns the raw row-major data slice.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the raw row-major data slice, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix × matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the inner dimensions do
    /// not agree.
    pub fn mul_matrix(&self, other: &Matrix) -> Result<Matrix, NumericError> {
        if self.cols != other.rows {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{} rows", self.cols),
                found: format!("{} rows", other.rows),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix dimensions must match for addition"
        );
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o += r;
        }
        out
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix dimensions must match for subtraction"
        );
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(&rhs.data) {
            *o -= r;
        }
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        let mut out = self.clone();
        out.scale(rhs);
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_vector_is_vector() {
        let id = Matrix::identity(4);
        let v = vec![1.0, -2.0, 3.0, 4.5];
        assert_eq!(id.mul_vec(&v), v);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, NumericError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty_input() {
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn stamping_accumulates() {
        let mut m = Matrix::zeros(2, 2);
        m.add_at(0, 0, 1.0);
        m.add_at(0, 0, 2.5);
        assert_eq!(m[(0, 0)], 3.5);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_crosses_tile_boundaries() {
        let (rows, cols) = (45, 70);
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = (i * cols + j) as f64;
            }
        }
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (cols, rows));
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(t[(j, i)], m[(i, j)]);
            }
        }
    }

    #[test]
    fn symmetric_detection() {
        let s = Matrix::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        let a = Matrix::from_rows(&[&[2.0, -1.0], &[1.0, 2.0]]).unwrap();
        assert!(!a.is_symmetric(1e-12));
    }

    #[test]
    fn matrix_product_against_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul_matrix(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matrix_product_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.mul_matrix(&b).is_err());
    }

    #[test]
    fn addition_and_scaling() {
        let a = Matrix::identity(2);
        let b = &a + &a;
        assert_eq!(b[(0, 0)], 2.0);
        let c = &b * 0.5;
        assert_eq!(c[(1, 1)], 1.0);
        let d = &c - &a;
        assert_eq!(d.max_abs(), 0.0);
    }

    #[test]
    fn swap_rows_swaps_contents() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[3.0, 4.0]);
        assert_eq!(m.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn diagonal_constructor() {
        let m = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m.rows(), 3);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        let id = Matrix::identity(9);
        assert!((id.frobenius_norm() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }
}
