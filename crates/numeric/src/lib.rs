//! Numerical substrate for the single-electronics toolkit.
//!
//! The simulators in this workspace need a small, predictable set of
//! numerical tools: dense linear algebra for capacitance matrices and
//! modified nodal analysis, sparse (CSR) matrices and an iterative
//! stationary solver for the master-equation state space, root finding for
//! Newton iterations, statistics
//! and histograms for Monte-Carlo observables and randomness analysis, and a
//! discrete Fourier transform for the FM-coded logic demodulation.
//!
//! Rather than pulling in a large linear-algebra dependency, this crate
//! implements exactly what is needed with a bias towards clarity and
//! robustness (partial pivoting, explicit singularity detection, residual
//! checks in the tests).
//!
//! # Example
//!
//! ```
//! use se_numeric::matrix::Matrix;
//! use se_numeric::lu::LuDecomposition;
//!
//! # fn main() -> Result<(), se_numeric::NumericError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuDecomposition::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((a.mul_vec(&x)[0] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// `!(a < b)` is the idiom this crate uses to reject NaN alongside ordinary
// range violations, and the LU / matrix hot paths keep the textbook
// index-based loops for auditability against the reference algorithms.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod dft;
pub mod error;
pub mod histogram;
pub mod krylov;
pub mod lu;
pub mod matrix;
pub mod partial_sum;
pub mod rootfind;
pub mod sampling;
pub mod sparse;
pub mod stats;

pub use error::NumericError;
pub use krylov::Preconditioner;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use partial_sum::PartialSumTree;
pub use sparse::{CsrMatrix, SolveStats, StationarySolver, StationaryWorkspace};
