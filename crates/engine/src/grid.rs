//! Shared sweep-grid construction.
//!
//! Every engine used to carry its own copy of `linspace` with its own error
//! type and its own quirks (none of them accepted descending ranges, which
//! made reverse-bias sweeps impossible without manual `rev()` gymnastics).
//! This is now the single canonical implementation; the per-engine wrappers
//! only convert [`GridError`] into their local error enums.

use std::fmt;

/// Errors of grid construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// Fewer than two points were requested.
    TooFewPoints(usize),
    /// The range endpoints coincide or are not finite.
    DegenerateRange {
        /// The requested start value (stringified to keep `Eq`).
        start: String,
        /// The requested stop value.
        stop: String,
    },
    /// A transient sample grid is empty, non-finite, negative, or not
    /// strictly increasing.
    BadSampleTimes(
        /// Human-readable description of the violation.
        String,
    ),
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::TooFewPoints(points) => {
                write!(f, "a sweep needs at least two points, got {points}")
            }
            GridError::DegenerateRange { start, stop } => write!(
                f,
                "sweep range must have distinct, finite endpoints, got [{start}, {stop}]"
            ),
            GridError::BadSampleTimes(reason) => {
                write!(f, "invalid transient sample times: {reason}")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// The most steps one sweep axis or transient sample grid may span. Every
/// grid is materialised, so a mistyped step or stop (`1n` → `1`) must be
/// an error, not a multi-gigabyte allocation; the deck parser refuses
/// larger `.dc` and `.tran` grids with a line number, and
/// [`sample_times`] refuses them for decks built in code.
pub const MAX_POINTS: f64 = 2_000_000.0;

/// Generates `points` evenly spaced values covering `[start, stop]`.
///
/// Ascending (`start < stop`) and descending (`start > stop`) ranges are
/// both supported — a descending grid runs a reverse-bias sweep without any
/// caller-side reversal. The first value is exactly `start` and the last is
/// exactly `stop`.
///
/// # Errors
///
/// Returns [`GridError::TooFewPoints`] if `points < 2` and
/// [`GridError::DegenerateRange`] if the endpoints coincide or are not
/// finite.
pub fn linspace(start: f64, stop: f64, points: usize) -> Result<Vec<f64>, GridError> {
    if points < 2 {
        return Err(GridError::TooFewPoints(points));
    }
    if start == stop || !start.is_finite() || !stop.is_finite() {
        return Err(GridError::DegenerateRange {
            start: start.to_string(),
            stop: stop.to_string(),
        });
    }
    let last = (points - 1) as f64;
    Ok((0..points)
        .map(|i| {
            if i == points - 1 {
                stop
            } else {
                start + (stop - start) * i as f64 / last
            }
        })
        .collect())
}

/// Builds the uniform transient sample grid `[0, step, 2·step, …]` up to
/// and including the last multiple of `step` that does not exceed
/// `stop + step/2` (so `stop` itself is hit despite rounding).
///
/// ```
/// let times = se_engine::grid::sample_times(1e-9, 4e-9).unwrap();
/// assert_eq!(times.len(), 5);
/// assert_eq!(times[0], 0.0);
/// assert!((times[4] - 4e-9).abs() < 1e-21);
/// ```
///
/// # Errors
///
/// Returns [`GridError::BadSampleTimes`] for a non-positive or non-finite
/// step, a stop time smaller than one step, or a grid of more than
/// [`MAX_POINTS`] steps (refused before anything is allocated).
pub fn sample_times(step: f64, stop: f64) -> Result<Vec<f64>, GridError> {
    if !(step > 0.0) || !step.is_finite() {
        return Err(GridError::BadSampleTimes(format!(
            "step must be positive and finite, got {step}"
        )));
    }
    if !(stop >= step) || !stop.is_finite() {
        return Err(GridError::BadSampleTimes(format!(
            "stop must be at least one step, got {stop} with step {step}"
        )));
    }
    if stop / step > MAX_POINTS {
        return Err(GridError::BadSampleTimes(format!(
            "a grid from 0 to {stop} in steps of {step} would have more than {MAX_POINTS} samples"
        )));
    }
    let steps = (stop / step).round() as usize;
    Ok((0..=steps).map(|i| i as f64 * step).collect())
}

/// Validates a transient sample grid: non-empty, finite, non-negative and
/// strictly increasing. Every [`crate::TransientEngine`] backend runs its
/// sample times through this check (mapped into its own error type).
///
/// # Errors
///
/// Returns [`GridError::BadSampleTimes`] describing the first violation.
pub fn validate_sample_times(times: &[f64]) -> Result<(), GridError> {
    if times.is_empty() {
        return Err(GridError::BadSampleTimes(
            "at least one sample time is required".into(),
        ));
    }
    if !(times[0] >= 0.0) || !times[0].is_finite() {
        return Err(GridError::BadSampleTimes(format!(
            "sample times must start at or after t = 0, got {}",
            times[0]
        )));
    }
    for (index, pair) in times.windows(2).enumerate() {
        if !(pair[1] > pair[0]) || !pair[1].is_finite() {
            return Err(GridError::BadSampleTimes(format!(
                "sample times must be strictly increasing and finite, got {} then {} at index {}",
                pair[0],
                pair[1],
                index + 1
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_too_few_points_and_degenerate_ranges() {
        assert_eq!(linspace(0.0, 1.0, 0), Err(GridError::TooFewPoints(0)));
        assert_eq!(linspace(0.0, 1.0, 1), Err(GridError::TooFewPoints(1)));
        assert!(matches!(
            linspace(2.0, 2.0, 5),
            Err(GridError::DegenerateRange { .. })
        ));
        assert!(linspace(f64::NAN, 1.0, 5).is_err());
        assert!(linspace(0.0, f64::INFINITY, 5).is_err());
    }

    #[test]
    fn ascending_grid_covers_the_range() {
        let xs = linspace(0.0, 1.0, 5).unwrap();
        assert_eq!(xs, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn descending_grid_enables_reverse_bias_sweeps() {
        let xs = linspace(0.1, -0.1, 5).unwrap();
        assert_eq!(xs.len(), 5);
        assert_eq!(xs[0], 0.1);
        assert_eq!(xs[4], -0.1);
        for pair in xs.windows(2) {
            assert!(pair[1] < pair[0]);
        }
    }

    #[test]
    fn endpoints_are_exact() {
        let xs = linspace(-3.0, 7.0, 1001).unwrap();
        assert_eq!(xs[0], -3.0);
        assert_eq!(*xs.last().unwrap(), 7.0);
    }

    // The PR-1 descending-range support left the `n = 0` / `n = 1` and
    // reversed-bounds corners untested; these pin the edge behaviour down.

    #[test]
    fn zero_and_one_point_requests_error_for_reversed_bounds_too() {
        assert_eq!(linspace(1.0, 0.0, 0), Err(GridError::TooFewPoints(0)));
        assert_eq!(linspace(1.0, -1.0, 1), Err(GridError::TooFewPoints(1)));
        assert_eq!(linspace(-5.0, -5.0, 0), Err(GridError::TooFewPoints(0)));
    }

    #[test]
    fn two_point_grids_are_exactly_the_endpoints_in_either_direction() {
        assert_eq!(linspace(0.25, 0.75, 2).unwrap(), vec![0.25, 0.75]);
        assert_eq!(linspace(0.75, 0.25, 2).unwrap(), vec![0.75, 0.25]);
        assert_eq!(linspace(-1.0, 1.0, 2).unwrap(), vec![-1.0, 1.0]);
    }

    #[test]
    fn reversed_bounds_mirror_the_ascending_grid() {
        let up = linspace(-0.2, 0.4, 31).unwrap();
        let down = linspace(0.4, -0.2, 31).unwrap();
        for (a, b) in up.iter().zip(down.iter().rev()) {
            assert!((a - b).abs() < 1e-15, "asymmetric grid: {a} vs {b}");
        }
    }

    #[test]
    fn sample_grid_covers_zero_to_stop_inclusive() {
        let times = sample_times(0.5e-9, 2e-9).unwrap();
        assert_eq!(times.len(), 5);
        assert_eq!(times[0], 0.0);
        assert!((times[4] - 2e-9).abs() < 1e-24);
        validate_sample_times(&times).unwrap();
    }

    #[test]
    fn sample_grid_rejects_degenerate_requests() {
        assert!(matches!(
            sample_times(0.0, 1e-9),
            Err(GridError::BadSampleTimes(_))
        ));
        assert!(sample_times(-1e-9, 1e-9).is_err());
        assert!(sample_times(1e-9, 0.5e-9).is_err());
        assert!(sample_times(1e-9, f64::INFINITY).is_err());
        // An oversized grid is refused, the largest accepted one is built.
        assert!(matches!(
            sample_times(1e-9, 1.0),
            Err(GridError::BadSampleTimes(_))
        ));
        assert_eq!(sample_times(1.0, MAX_POINTS).unwrap().len(), 2_000_001);
    }

    #[test]
    fn sample_time_validation_catches_each_violation() {
        assert!(validate_sample_times(&[]).is_err());
        assert!(validate_sample_times(&[-1e-9]).is_err());
        assert!(validate_sample_times(&[0.0, 0.0]).is_err());
        assert!(validate_sample_times(&[0.0, 2e-9, 1e-9]).is_err());
        assert!(validate_sample_times(&[0.0, 1e-9, f64::NAN]).is_err());
        assert!(validate_sample_times(&[0.0]).is_ok());
        assert!(validate_sample_times(&[1e-9, 2e-9]).is_ok());
    }
}
