//! The generic, parallel, deterministic sweep runner — a thin adapter over
//! the [`se_exec`] job substrate.

use crate::StationaryEngine;
use se_exec::{ExecError, JobSpec};

/// One point of a 1-D bias sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept control value (a gate or drain voltage, in volt).
    pub control: f64,
    /// The measured observable current in ampere.
    pub current: f64,
}

/// A 2-D stability (Coulomb-diamond) map: the observable current on an
/// `outer × inner` control grid, stored row-major with the outer control as
/// the slow axis.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityMap {
    outer: Vec<f64>,
    inner: Vec<f64>,
    currents: Vec<f64>,
}

impl StabilityMap {
    /// The outer (slow-axis, usually gate) control values.
    #[must_use]
    pub fn outer_values(&self) -> &[f64] {
        &self.outer
    }

    /// The inner (fast-axis, usually drain) control values.
    #[must_use]
    pub fn inner_values(&self) -> &[f64] {
        &self.inner
    }

    /// The current at outer index `i`, inner index `j`.
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.currents[i * self.inner.len() + j]
    }

    /// One row of currents (fixed outer value).
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        let n = self.inner.len();
        &self.currents[i * n..(i + 1) * n]
    }

    /// The raw row-major current data.
    #[must_use]
    pub fn as_flat(&self) -> &[f64] {
        &self.currents
    }

    /// Converts into nested `rows[outer][inner]` vectors (the historical
    /// return shape of the per-engine stability-map helpers). A map with an
    /// empty inner grid yields one empty row per outer value.
    #[must_use]
    pub fn into_rows(self) -> Vec<Vec<f64>> {
        let n = self.inner.len();
        if n == 0 {
            return vec![Vec::new(); self.outer.len()];
        }
        self.currents.chunks(n).map(<[f64]>::to_vec).collect()
    }
}

/// The toolkit-wide per-item seed derivation, re-exported from its single
/// source of truth, [`se_exec::seed`]:
/// `SplitMix64(SplitMix64(seed) ⊕ index)`. The derivation depends only on
/// `(seed, index)` — never on thread scheduling or chunking — which is
/// what makes parallel sweeps bit-identical to serial ones.
pub use se_exec::seed::derive_seed;

/// The parallel core shared by [`SweepRunner`] and
/// [`crate::TransientRunner`]: evaluates `solve(index, derive_seed(seed,
/// index))` for `count` indices through the [`se_exec`] substrate —
/// chunked across all cores when `parallel` — and returns the results in
/// index order, or the first error by index.
pub(crate) fn map_indexed<T, Err, F>(
    seed: u64,
    parallel: bool,
    chunk: Option<usize>,
    count: usize,
    solve: F,
) -> Result<Vec<T>, Err>
where
    T: Send,
    Err: Send,
    F: Fn(usize, u64) -> Result<T, Err> + Sync,
{
    let mut spec = JobSpec::new(count).with_seed(seed);
    if let Some(chunk) = chunk {
        spec = spec.with_chunk(chunk);
    }
    if !parallel {
        spec = spec.serial();
    }
    match se_exec::run_collect(&spec, &mut (), solve) {
        Ok(items) => Ok(items),
        Err(ExecError::Job { error, .. }) => Err(error),
        Err(other) => unreachable!(
            "collect-only jobs cannot fail outside the solver ({})",
            match other {
                ExecError::Sink(_) => "sink",
                ExecError::Checkpoint(_) => "checkpoint",
                ExecError::Cancelled { .. } => "cancelled",
                ExecError::Job { .. } => "job",
            }
        ),
    }
}

/// The single generic sweep loop shared by every engine — a thin adapter
/// over the [`se_exec`] job substrate.
///
/// A runner is a small value object holding the sweep seed, the
/// parallelism switch and an optional chunk size. Every execution mode
/// visits the same points with the same derived seeds, so toggling
/// [`SweepRunner::serial`] or [`SweepRunner::with_chunk`] never changes
/// results — only scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRunner {
    seed: u64,
    parallel: bool,
    chunk: Option<usize>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A parallel runner with seed 0 and automatic chunking.
    #[must_use]
    pub fn new() -> Self {
        SweepRunner {
            seed: 0,
            parallel: true,
            chunk: None,
        }
    }

    /// Sets the sweep seed all per-point seeds are derived from.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets how many consecutive points one scheduled task solves (see
    /// [`se_exec::JobSpec::with_chunk`]); larger chunks amortize per-task
    /// overhead on cheap engines. Results never depend on it.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk);
        self
    }

    /// Forces single-threaded execution (results are identical; useful for
    /// profiling and for the determinism tests).
    #[must_use]
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// The sweep seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The explicit chunk size, if one was set.
    #[must_use]
    pub fn chunk(&self) -> Option<usize> {
        self.chunk
    }

    /// The parallel core every sweep is built on: evaluates
    /// `solve(index, derived_seed)` for `points` indices — across all cores
    /// when the runner is parallel — and returns the results in index
    /// order, or the first error by index.
    ///
    /// # Errors
    ///
    /// Propagates the first (lowest-index) error returned by `solve`.
    pub fn map_points<T, Err, F>(&self, points: usize, solve: F) -> Result<Vec<T>, Err>
    where
        T: Send,
        Err: Send,
        F: Fn(usize, u64) -> Result<T, Err> + Sync,
    {
        map_indexed(self.seed, self.parallel, self.chunk, points, solve)
    }

    /// Runs a 1-D sweep: applies each value of `values` to `control` and
    /// measures `observable`.
    ///
    /// # Errors
    ///
    /// Propagates name-resolution failures and the first per-point engine
    /// error.
    pub fn run<E: StationaryEngine>(
        &self,
        engine: &E,
        control: &str,
        values: &[f64],
        observable: &str,
    ) -> Result<Vec<SweepPoint>, E::Error> {
        let control = engine.resolve_control(control)?;
        let observable = engine.resolve_observable(observable)?;
        self.map_points(values.len(), |i, seed| {
            let value = values[i];
            let current = engine.stationary_current(&[(control, value)], observable, seed)?;
            Ok(SweepPoint {
                control: value,
                current,
            })
        })
    }

    /// Runs a 2-D sweep over `outer × inner` control grids (for a SET:
    /// gate × drain) and returns the stability map. Every grid point is an
    /// independent task, so the whole map parallelises, not just rows.
    ///
    /// # Errors
    ///
    /// Propagates name-resolution failures and the first per-point engine
    /// error.
    pub fn stability_map<E: StationaryEngine>(
        &self,
        engine: &E,
        outer_control: &str,
        outer_values: &[f64],
        inner_control: &str,
        inner_values: &[f64],
        observable: &str,
    ) -> Result<StabilityMap, E::Error> {
        let outer = engine.resolve_control(outer_control)?;
        let inner = engine.resolve_control(inner_control)?;
        let observable = engine.resolve_observable(observable)?;
        let n_inner = inner_values.len();
        let currents = self.map_points(outer_values.len() * n_inner, |index, seed| {
            let controls = [
                (outer, outer_values[index / n_inner]),
                (inner, inner_values[index % n_inner]),
            ];
            engine.stationary_current(&controls, observable, seed)
        })?;
        Ok(StabilityMap {
            outer: outer_values.to_vec(),
            inner: inner_values.to_vec(),
            currents,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ControlId, ObservableId, StationaryEngine};
    use std::fmt;

    /// A deterministic toy engine: current = sum of control values plus a
    /// seed-dependent jitter, so determinism tests notice wrong seeds.
    struct ToyEngine;

    #[derive(Debug, PartialEq)]
    struct ToyError(String);

    impl fmt::Display for ToyError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    impl std::error::Error for ToyError {}

    impl StationaryEngine for ToyEngine {
        type Error = ToyError;

        fn engine_name(&self) -> &'static str {
            "toy"
        }

        fn resolve_control(&self, name: &str) -> Result<ControlId, ToyError> {
            match name {
                "gate" => Ok(ControlId(0)),
                "drain" => Ok(ControlId(1)),
                other => Err(ToyError(format!("no control `{other}`"))),
            }
        }

        fn resolve_observable(&self, name: &str) -> Result<ObservableId, ToyError> {
            match name {
                "I" => Ok(ObservableId(0)),
                other => Err(ToyError(format!("no observable `{other}`"))),
            }
        }

        fn stationary_currents(
            &self,
            controls: &[(ControlId, f64)],
            observables: &[ObservableId],
            seed: u64,
        ) -> Result<Vec<f64>, ToyError> {
            let bias: f64 = controls.iter().map(|(_, v)| v).sum();
            let jitter = (seed % 1024) as f64 * 1e-12;
            Ok(observables.iter().map(|_| bias + jitter).collect())
        }
    }

    #[test]
    fn resolution_errors_surface() {
        let runner = SweepRunner::new();
        assert!(runner.run(&ToyEngine, "nope", &[0.0], "I").is_err());
        assert!(runner.run(&ToyEngine, "gate", &[0.0], "nope").is_err());
    }

    #[test]
    fn parallel_and_serial_runs_are_bit_identical() {
        let values: Vec<f64> = (0..257).map(|i| i as f64 * 1e-3).collect();
        let parallel = SweepRunner::new()
            .with_seed(42)
            .run(&ToyEngine, "gate", &values, "I")
            .unwrap();
        let serial = SweepRunner::new()
            .with_seed(42)
            .serial()
            .run(&ToyEngine, "gate", &values, "I")
            .unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let values = [0.0_f64; 4];
        let a = SweepRunner::new()
            .with_seed(1)
            .run(&ToyEngine, "gate", &values, "I")
            .unwrap();
        let b = SweepRunner::new()
            .with_seed(2)
            .run(&ToyEngine, "gate", &values, "I")
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn stability_map_is_row_major_and_complete() {
        let outer = [0.0, 1.0];
        let inner = [10.0, 20.0, 30.0];
        let map = SweepRunner::new()
            .stability_map(&ToyEngine, "gate", &outer, "drain", &inner, "I")
            .unwrap();
        assert_eq!(map.outer_values(), &outer);
        assert_eq!(map.inner_values(), &inner);
        for (i, &vg) in outer.iter().enumerate() {
            for (j, &vd) in inner.iter().enumerate() {
                let expected_bias = vg + vd;
                assert!((map.at(i, j) - expected_bias).abs() < 1e-9 + 1e-9 * expected_bias);
            }
        }
        let rows = map.clone().into_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 3);
        assert_eq!(rows[1], map.row(1));
    }

    #[test]
    fn empty_inner_grid_degenerates_gracefully() {
        let map = SweepRunner::new()
            .stability_map(&ToyEngine, "gate", &[0.0, 1.0], "drain", &[], "I")
            .unwrap();
        assert_eq!(map.into_rows(), vec![Vec::<f64>::new(), Vec::new()]);
        let empty = SweepRunner::new()
            .stability_map(&ToyEngine, "gate", &[], "drain", &[1.0], "I")
            .unwrap();
        assert!(empty.into_rows().is_empty());
    }

    #[test]
    fn first_error_by_index_wins() {
        let runner = SweepRunner::new();
        let err = runner
            .map_points(8, |i, _| {
                if i >= 3 {
                    Err(ToyError(format!("boom at {i}")))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
        assert_eq!(err, ToyError("boom at 3".into()));
    }

    #[test]
    fn derive_seed_is_the_substrate_derivation() {
        // The historical `se_engine::derive_seed` path must keep producing
        // the exact values the substrate pins (see `se_exec::seed`).
        assert_eq!(derive_seed(42, 0), 0x57e1_faba_6510_7204);
        assert_eq!(derive_seed(42, 7), se_exec::derive_seed(42, 7));
    }

    #[test]
    fn chunked_sweeps_are_bit_identical_to_unchunked() {
        let values: Vec<f64> = (0..101).map(|i| i as f64 * 1e-3).collect();
        let baseline = SweepRunner::new()
            .with_seed(11)
            .run(&ToyEngine, "gate", &values, "I")
            .unwrap();
        for chunk in [1, 7, 64, 1000] {
            let chunked = SweepRunner::new()
                .with_seed(11)
                .with_chunk(chunk)
                .run(&ToyEngine, "gate", &values, "I")
                .unwrap();
            assert_eq!(chunked, baseline, "chunk={chunk}");
        }
    }
}
