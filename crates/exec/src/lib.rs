//! # se-exec — the chunked, streaming, resumable job substrate
//!
//! Every parallel workload of the single-electronics toolkit — bias-point
//! sweeps, transient ensembles, whole deck batteries — is "N independent
//! items, each solved under a deterministic per-item seed". This crate is
//! the one execution layer for that shape, so batching, streaming,
//! progress, cancellation and resume are inherited by every engine instead
//! of reimplemented per runner:
//!
//! * [`JobSpec`] — the job geometry: item count, seed, chunk size, worker
//!   policy. Per-item seeds come from [`seed::derive_seed`] (the
//!   SplitMix64 discipline, moved here as the single source of truth) and
//!   depend only on `(seed, index)` — never on scheduling — which is what
//!   makes **serial ≡ parallel ≡ chunked ≡ resumed, bit-identically**.
//! * Chunked scheduling — consecutive items are computed in chunks
//!   (configurable via [`JobSpec::with_chunk`]) to amortize per-task
//!   overhead on hot engines; [`run_batch`] lets any number of jobs share
//!   one bounded worker pool, which is how a multi-deck batch saturates a
//!   machine.
//! * [`ResultSink`] — streaming consumption in strict index order:
//!   in-memory tables ([`TableSink`]), an incremental CSV writer
//!   ([`CsvSink`]), a throttled progress reporter
//!   ([`ProgressSink`]), all composable with [`Tee`].
//! * [`CancelToken`] — cooperative cancellation, polled between items.
//! * [`CheckpointStore`] — a completed-chunk manifest plus bit-exact
//!   payload files; an interrupted run resumes from the last finished
//!   chunk and reproduces the uninterrupted output bit for bit.
//! * [`trace`] — deterministic replay: [`TraceSink`] records a job's
//!   geometry, per-chunk content hashes and every output bit;
//!   [`VerifySink`] re-executes against the recording and localizes the
//!   first [`Divergence`] to chunk, item, row and column. The raw-bits
//!   float codec both checkpoint and trace payloads use lives in
//!   [`bits`].
//!
//! # Example
//!
//! ```
//! use se_exec::{run_collect, JobSpec};
//!
//! // 100 items, each "solved" from its index and derived seed.
//! let spec = JobSpec::new(100).with_seed(42).with_chunk(8);
//! let solve = |i: usize, seed: u64| Ok::<_, std::io::Error>(vec![i as f64, (seed % 97) as f64]);
//! let parallel = run_collect(&spec, &mut (), solve).unwrap();
//! let serial = run_collect(&spec.serial(), &mut (), solve).unwrap();
//! assert_eq!(parallel, serial); // bit-identical, whatever the scheduling
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bits;
pub mod cancel;
pub mod checkpoint;
pub mod job;
pub mod seed;
pub mod sink;
pub mod trace;

pub use batch::run_batch;
pub use cancel::CancelToken;
pub use checkpoint::{content_fingerprint, sanitize_job_id, CheckpointStore, Codec};
pub use job::{
    lane_group_count, lane_group_range, ChunkTask, ExecError, Job, JobBuilder, JobSpec, Report,
    Workers,
};
pub use seed::{derive_seed, split_mix64};
pub use sink::{CsvSink, ProgressSink, ResultSink, TableSink, Tee, ToRows};
pub use trace::{Divergence, JobTrace, TraceSink, TraceValue, VerifySink};

/// Runs one job, streaming results into `sink`.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run<'s, T, E, F>(
    spec: &JobSpec,
    sink: &'s mut (dyn ResultSink<T> + Send),
    solve: F,
) -> Result<Report, ExecError<E>>
where
    T: Send + 's,
    E: Send + 's,
    F: Fn(usize, u64) -> Result<T, E> + Sync + 's,
{
    let job = JobBuilder::new(*spec).build(sink, solve)?;
    run_batch(&[&job], spec.workers(), &CancelToken::new());
    job.finish().map(|(_, report)| report)
}

/// Runs one job and returns the items in index order (streaming them
/// through `sink` on the way; pass `&mut ()` to only collect).
///
/// # Errors
///
/// See [`ExecError`].
pub fn run_collect<'s, T, E, F>(
    spec: &JobSpec,
    sink: &'s mut (dyn ResultSink<T> + Send),
    solve: F,
) -> Result<Vec<T>, ExecError<E>>
where
    T: Send + 's,
    E: Send + 's,
    F: Fn(usize, u64) -> Result<T, E> + Sync + 's,
{
    let job = JobBuilder::new(*spec).collect().build(sink, solve)?;
    run_batch(&[&job], spec.workers(), &CancelToken::new());
    job.finish().map(|(items, _)| items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, PartialEq)]
    struct ToyError(String);

    impl fmt::Display for ToyError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{}", self.0)
        }
    }

    impl std::error::Error for ToyError {}

    fn toy_solve(index: usize, seed: u64) -> Result<Vec<f64>, ToyError> {
        Ok(vec![index as f64, (seed % 1024) as f64])
    }

    #[test]
    fn serial_parallel_and_chunked_runs_are_bit_identical() {
        let baseline =
            run_collect(&JobSpec::new(257).with_seed(9).serial(), &mut (), toy_solve).unwrap();
        for chunk in [1, 2, 7, 64, 1000] {
            let spec = JobSpec::new(257).with_seed(9).with_chunk(chunk);
            let chunked = run_collect(&spec, &mut (), toy_solve).unwrap();
            assert_eq!(chunked, baseline, "chunk={chunk}");
        }
    }

    #[test]
    fn first_error_by_index_wins_even_across_chunks() {
        let spec = JobSpec::new(64).with_chunk(4);
        let err = run_collect(&spec, &mut (), |i, _| {
            if i >= 10 {
                Err(ToyError(format!("boom at {i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        match err {
            ExecError::Job { index, error } => {
                assert_eq!(index, 10);
                assert_eq!(error, ToyError("boom at 10".into()));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn cancellation_stops_the_run_and_reports_progress() {
        let spec = JobSpec::new(100).with_chunk(5).serial();
        let cancel = CancelToken::new();
        let solved = AtomicUsize::new(0);
        let mut sink = TableSink::new();
        let job = JobBuilder::new(spec)
            .build(&mut sink, |i, _| {
                if solved.fetch_add(1, Ordering::SeqCst) == 12 {
                    cancel.cancel();
                }
                Ok::<_, ToyError>(vec![i as f64])
            })
            .unwrap();
        run_batch(&[&job], spec.workers(), &cancel);
        match job.finish() {
            Err(ExecError::Cancelled { emitted }) => {
                assert!(emitted < 100);
                assert_eq!(emitted % 5, 0, "only whole chunks are emitted");
            }
            other => panic!("expected cancellation, got {:?}", other.map(|(_, r)| r)),
        }
        assert!(sink.rows().len() < 100);
    }

    #[test]
    fn empty_jobs_finish_cleanly() {
        let report = run(&JobSpec::new(0), &mut (), toy_solve).unwrap();
        assert_eq!(report.items, 0);
        assert_eq!(report.chunks, 0);
    }

    #[test]
    fn checkpointed_interrupted_runs_resume_bit_identically() {
        let dir = std::env::temp_dir().join(format!("se-exec-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir);
        let spec = JobSpec::new(57).with_seed(5).with_chunk(8);

        let uninterrupted = run_collect(&spec, &mut (), toy_solve).unwrap();

        // First attempt: cancel once a few items have been solved.
        let cancel = CancelToken::new();
        let solved = AtomicUsize::new(0);
        let mut no_sink = ();
        let job = JobBuilder::new(spec)
            .collect()
            .checkpoint(&store, "demo", false)
            .build(&mut no_sink, |i, seed| {
                if solved.fetch_add(1, Ordering::SeqCst) == 20 {
                    cancel.cancel();
                }
                toy_solve(i, seed)
            })
            .unwrap();
        run_batch(&[&job], spec.workers(), &cancel);
        assert!(matches!(job.finish(), Err(ExecError::Cancelled { .. })));

        // Second attempt: resume; restored chunks are not recomputed.
        let recomputed = AtomicUsize::new(0);
        let mut still_no_sink = ();
        let job = JobBuilder::new(spec)
            .collect()
            .checkpoint(&store, "demo", true)
            .build(&mut still_no_sink, |i, seed| {
                recomputed.fetch_add(1, Ordering::SeqCst);
                toy_solve(i, seed)
            })
            .unwrap();
        run_batch(&[&job], spec.workers(), &CancelToken::new());
        let (resumed, report) = job.finish().unwrap();
        assert_eq!(resumed, uninterrupted, "resume must be bit-identical");
        assert!(report.restored > 0, "{report:?}");
        assert_eq!(report.restored + report.computed, 57);
        assert_eq!(recomputed.load(Ordering::SeqCst), report.computed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_csv_matches_across_modes() {
        let spec = JobSpec::new(13).with_seed(3).with_chunk(4);
        let columns = vec!["i".to_string(), "seed".into()];
        let mut parallel = CsvSink::new(Vec::new(), columns.clone());
        run(&spec, &mut parallel, toy_solve).unwrap();
        let mut serial = CsvSink::new(Vec::new(), columns);
        run(&spec.serial().with_chunk(1), &mut serial, toy_solve).unwrap();
        assert_eq!(parallel.into_inner(), serial.into_inner());
    }
}
