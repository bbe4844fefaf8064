//! Descriptive statistics, running estimators and correlation tools used by
//! the Monte-Carlo observables and the randomness analysis of the
//! single-electron random-number generator.

use crate::error::NumericError;

/// Arithmetic mean of a slice. Returns `0.0` for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population variance of a slice. Returns `0.0` for slices shorter than 2.
#[must_use]
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Population standard deviation.
#[must_use]
pub fn std_dev(values: &[f64]) -> f64 {
    variance(values).sqrt()
}

/// Root-mean-square value of a signal (used for the telegraph-noise RMS
/// figure of the SET random-number generator).
#[must_use]
pub fn rms(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v * v).sum::<f64>() / values.len() as f64).sqrt()
}

/// Normalised autocorrelation of a signal at integer `lag`.
///
/// Returns `0.0` when there is not enough data or the signal has zero
/// variance.
#[must_use]
pub fn autocorrelation(values: &[f64], lag: usize) -> f64 {
    if values.len() <= lag + 1 {
        return 0.0;
    }
    let m = mean(values);
    let var = variance(values);
    if var == 0.0 {
        return 0.0;
    }
    let n = values.len() - lag;
    let cov: f64 = (0..n)
        .map(|i| (values[i] - m) * (values[i + lag] - m))
        .sum::<f64>()
        / n as f64;
    cov / var
}

/// Pearson correlation coefficient between two equally long signals.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if the slices differ in
/// length, and [`NumericError::InvalidArgument`] if either has zero variance.
pub fn pearson_correlation(a: &[f64], b: &[f64]) -> Result<f64, NumericError> {
    if a.len() != b.len() {
        return Err(NumericError::DimensionMismatch {
            expected: format!("{} samples", a.len()),
            found: format!("{} samples", b.len()),
        });
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    if va == 0.0 || vb == 0.0 {
        return Err(NumericError::InvalidArgument(
            "cannot correlate a constant signal".into(),
        ));
    }
    let cov: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| (x - ma) * (y - mb))
        .sum::<f64>()
        / a.len() as f64;
    Ok(cov / (va.sqrt() * vb.sqrt()))
}

/// Linear regression `y = slope·x + intercept` by least squares.
///
/// Returns `(slope, intercept)`.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] on length mismatch and
/// [`NumericError::InvalidArgument`] when `x` has zero variance or fewer than
/// two samples are provided.
pub fn linear_regression(x: &[f64], y: &[f64]) -> Result<(f64, f64), NumericError> {
    if x.len() != y.len() {
        return Err(NumericError::DimensionMismatch {
            expected: format!("{} samples", x.len()),
            found: format!("{} samples", y.len()),
        });
    }
    if x.len() < 2 {
        return Err(NumericError::InvalidArgument(
            "linear regression needs at least two samples".into(),
        ));
    }
    let mx = mean(x);
    let my = mean(y);
    let sxx: f64 = x.iter().map(|v| (v - mx) * (v - mx)).sum();
    if sxx == 0.0 {
        return Err(NumericError::InvalidArgument(
            "x values are all identical".into(),
        ));
    }
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let slope = sxy / sxx;
    Ok((slope, my - slope * mx))
}

/// Welford running estimator of mean and variance, suitable for streaming
/// Monte-Carlo observables without storing every sample.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty estimator.
    #[must_use]
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds a weighted sample, e.g. a dwell-time weighted Monte-Carlo state.
    pub fn push_weighted(&mut self, value: f64, weight: f64) {
        // Treat the weight as a (possibly fractional) repeat count by simple
        // accumulation; adequate for time-averaged KMC observables.
        if weight <= 0.0 {
            return;
        }
        let n = self.count as f64;
        let new_n = n + weight;
        let delta = value - self.mean;
        self.mean += delta * weight / new_n;
        self.m2 += weight * delta * (value - self.mean);
        self.count = new_n.round() as u64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples pushed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Current population variance (0 if fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Current standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observed sample (`+inf` if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observed sample (`-inf` if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variance_of_known_data() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data) - 5.0).abs() < 1e-12);
        assert!((variance(&data) - 4.0).abs() < 1e-12);
        assert!((std_dev(&data) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_do_not_panic() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(autocorrelation(&[], 1), 0.0);
    }

    #[test]
    fn rms_of_square_wave_is_amplitude() {
        let signal = [0.12, -0.12, 0.12, -0.12, 0.12, -0.12];
        assert!((rms(&signal) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_of_alternating_signal_is_negative_at_lag_one() {
        let signal: Vec<f64> = (0..200)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&signal, 1) < -0.9);
        assert!(autocorrelation(&signal, 2) > 0.9);
    }

    #[test]
    fn pearson_correlation_of_identical_signals_is_one() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let r = pearson_correlation(&a, &a).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_rejects_constant_signal() {
        let a = vec![1.0; 10];
        let b: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert!(pearson_correlation(&a, &b).is_err());
    }

    #[test]
    fn linear_regression_recovers_line() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let (slope, intercept) = linear_regression(&x, &y).unwrap();
        assert!((slope - 3.0).abs() < 1e-10);
        assert!((intercept + 7.0).abs() < 1e-9);
    }

    #[test]
    fn running_stats_matches_batch_stats() {
        let data = [1.5, 2.5, -0.5, 4.0, 3.25, 0.0, -2.0];
        let mut rs = RunningStats::new();
        for &v in &data {
            rs.push(v);
        }
        assert_eq!(rs.count(), data.len() as u64);
        assert!((rs.mean() - mean(&data)).abs() < 1e-12);
        assert!((rs.variance() - variance(&data)).abs() < 1e-12);
        assert_eq!(rs.min(), -2.0);
        assert_eq!(rs.max(), 4.0);
    }

    #[test]
    fn weighted_push_with_unit_weight_matches_push() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            a.push(v);
            b.push_weighted(v, 1.0);
        }
        assert!((a.mean() - b.mean()).abs() < 1e-12);
        assert!((a.variance() - b.variance()).abs() < 1e-9);
    }

    proptest! {
        /// Shifting every sample by a constant shifts the mean but leaves the
        /// variance unchanged.
        #[test]
        fn prop_variance_is_shift_invariant(
            data in proptest::collection::vec(-100.0_f64..100.0, 2..64),
            shift in -50.0_f64..50.0,
        ) {
            let shifted: Vec<f64> = data.iter().map(|v| v + shift).collect();
            prop_assert!((variance(&data) - variance(&shifted)).abs() < 1e-6);
            prop_assert!((mean(&shifted) - mean(&data) - shift).abs() < 1e-8);
        }

        /// The running estimator agrees with the batch formulas.
        #[test]
        fn prop_running_stats_agree_with_batch(
            data in proptest::collection::vec(-1e3_f64..1e3, 1..128),
        ) {
            let mut rs = RunningStats::new();
            for &v in &data {
                rs.push(v);
            }
            prop_assert!((rs.mean() - mean(&data)).abs() < 1e-6);
            prop_assert!((rs.variance() - variance(&data)).abs() < 1e-3);
        }
    }
}
