//! Deck-level deterministic replay: `record` a deck run's every output
//! bit into a trace directory, then `verify` it by re-executing the deck
//! and diffing the streams.
//!
//! A trace directory is self-contained — it carries the deck itself, so a
//! verification months later (or on another machine, or under a newer
//! build) needs nothing but the directory:
//!
//! ```text
//! <dir>/deck.cir       the deck, serialized losslessly at record time
//! <dir>/a<i>-….trace   one se-exec trace per analysis (geometry, chunk
//!                      hashes, raw-bits payloads, engine provenance)
//! <dir>/manifest.txt   the completion marker, written last: format
//!                      version, deck fingerprint, the analysis file list
//! ```
//!
//! [`record_deck`] executes the plan through per-analysis
//! [`se_exec::TraceSink`]s (any worker count — the recorded bytes are
//! identical) and writes the manifest only after every analysis finished,
//! so a crashed recording is refused by [`verify_trace_dir`] rather than
//! half-verified. [`verify_trace_dir`] re-parses the embedded deck,
//! recompiles it, refuses fingerprint or geometry drift, re-executes every
//! analysis against a [`se_exec::VerifySink`], and reports per analysis:
//! trace integrity (recomputed chunk hashes) and the first execution
//! [`Divergence`], localized to chunk, item, row and column with both
//! values as raw bits and decimals.

use crate::error::SimError;
use crate::exec::{prepare_deck, ExecOptions};
use crate::plan::{compile, SimulationPlan};
use crate::result::SimulationResult;
use se_exec::trace::{Divergence, JobTrace, TraceSink, VerifySink};
use se_exec::{
    content_fingerprint, run_batch, sanitize_job_id, CancelToken, ChunkTask, JobBuilder,
};
use se_netlist::{parse_full_deck, Deck};
use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// The format tag of a trace directory manifest.
const MANIFEST_MAGIC: &str = "se-sim-trace v1";

/// The deck file name inside a trace directory.
const DECK_FILE: &str = "deck.cir";

/// The manifest file name inside a trace directory.
const MANIFEST_FILE: &str = "manifest.txt";

/// The trace file name of analysis `index` with the given label.
fn trace_file_name(index: usize, label: &str) -> String {
    format!("a{index}-{}.trace", sanitize_job_id(label))
}

/// What [`record_deck`] wrote: where, and what the verifier will check.
#[derive(Debug, Clone)]
pub struct RecordSummary {
    /// The trace directory.
    pub dir: PathBuf,
    /// The deck-content fingerprint stamped into every trace header.
    pub fingerprint: u64,
    /// One `(analysis label, trace file name, item count)` per analysis.
    pub analyses: Vec<(String, String, usize)>,
}

/// Records a deck run: executes every analysis of `plan` through the
/// shared worker pool, streaming every output bit into per-analysis trace
/// files under `dir`, and returns the result tables (identical to
/// [`crate::execute_with_options`]) plus a [`RecordSummary`].
///
/// The manifest is written last — only after every analysis completed — so
/// an interrupted recording leaves no verifiable directory behind.
///
/// # Errors
///
/// Propagates backend construction and solve errors, plus trace I/O
/// failures as [`SimError::Exec`].
pub fn record_deck(
    deck: &Deck,
    plan: &SimulationPlan,
    options: &ExecOptions,
    dir: &Path,
) -> Result<(Vec<SimulationResult>, RecordSummary), SimError> {
    let deck_text = deck.to_deck_string();
    let fingerprint = content_fingerprint(&deck_text);
    fs::create_dir_all(dir)
        .map_err(|e| SimError::Exec(format!("cannot create trace dir `{}`: {e}", dir.display())))?;
    fs::write(dir.join(DECK_FILE), &deck_text)
        .map_err(|e| SimError::Exec(format!("cannot write `{DECK_FILE}`: {e}")))?;

    let label = options.label.clone().unwrap_or_else(|| plan.title.clone());
    let prepared = prepare_deck(deck, plan, &label, options)?;

    // One trace sink per analysis, created up front (truncating any stale
    // recording of the same name).
    let mut sinks: Vec<TraceSink<BufWriter<fs::File>>> = Vec::with_capacity(prepared.len());
    let mut files: Vec<String> = Vec::with_capacity(prepared.len());
    for (index, prep) in prepared.iter().enumerate() {
        let name = trace_file_name(index, &prep.result_label);
        let path = dir.join(&name);
        let file = fs::File::create(&path)
            .map_err(|e| SimError::Exec(format!("cannot create `{}`: {e}", path.display())))?;
        let sink = TraceSink::new(BufWriter::new(file), fingerprint)
            .with_meta("deck", &plan.title)
            .with_meta("analysis", &prep.result_label)
            .with_meta("engine", prep.engine_name())
            .with_meta("columns", prep.columns.join(","))
            .with_meta(
                "options",
                format!(
                    "temp={:?} seed={} repeats={}",
                    plan.temperature,
                    plan.seed,
                    plan.repeats
                        .map_or_else(|| "none".into(), |r| r.to_string())
                ),
            );
        sinks.push(sink);
        files.push(name);
    }

    // Bind and run every analysis on one pool, exactly like execute().
    let mut jobs = Vec::with_capacity(prepared.len());
    for (prep, sink) in prepared.iter().zip(sinks.iter_mut()) {
        let job = JobBuilder::new(prep.spec)
            .label(prep.job_label.clone())
            .collect()
            .build(sink, |index, _| prep.solve_item(index))
            .map_err(SimError::from)?;
        jobs.push(job);
    }
    let tasks: Vec<&dyn ChunkTask> = jobs.iter().map(|job| job as &dyn ChunkTask).collect();
    run_batch(
        &tasks,
        options.workers,
        &options.cancel.clone().unwrap_or_default(),
    );
    drop(tasks);

    let mut results = Vec::with_capacity(prepared.len());
    let mut analyses = Vec::with_capacity(prepared.len());
    for ((job, prep), file) in jobs.into_iter().zip(&prepared).zip(&files) {
        let (blocks, report) = job.finish().map_err(SimError::from)?;
        analyses.push((prep.result_label.clone(), file.clone(), report.items));
        results.push(prep.assemble(blocks));
    }

    // Every analysis completed: write the manifest (the completion marker).
    let mut manifest = format!(
        "{MANIFEST_MAGIC} fp={fingerprint:016x} analyses={}\n",
        files.len()
    );
    for (index, file) in files.iter().enumerate() {
        manifest.push_str(&format!("analysis {index} {file}\n"));
    }
    fs::write(dir.join(MANIFEST_FILE), manifest)
        .map_err(|e| SimError::Exec(format!("cannot write `{MANIFEST_FILE}`: {e}")))?;

    Ok((
        results,
        RecordSummary {
            dir: dir.to_path_buf(),
            fingerprint,
            analyses,
        },
    ))
}

/// One analysis' verification outcome.
#[derive(Debug, Clone)]
pub struct AnalysisVerdict {
    /// The analysis label (the directive it came from).
    pub label: String,
    /// The engine that produced — and re-produced — the trace.
    pub engine: String,
    /// Items compared.
    pub items: usize,
    /// Chunks in the trace.
    pub chunks: usize,
    /// `Some(chunk id)` if the trace file itself no longer matches its
    /// recorded per-chunk content hash (bit rot / hand edits), localized
    /// to the first corrupt chunk.
    pub corrupt_chunk: Option<usize>,
    /// The first point where the re-execution differed from the recording.
    pub divergence: Option<Divergence>,
    /// Provenance recorded at trace time (engine, columns, options).
    pub provenance: Vec<(String, String)>,
}

impl AnalysisVerdict {
    /// `true` when the trace is intact and the re-execution reproduced
    /// every bit.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt_chunk.is_none() && self.divergence.is_none()
    }
}

/// A whole trace directory's verification outcome.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The deck title.
    pub title: String,
    /// The deck-content fingerprint both sides agreed on.
    pub fingerprint: u64,
    /// One verdict per analysis, in deck order.
    pub analyses: Vec<AnalysisVerdict>,
}

impl VerifyReport {
    /// `true` when every analysis verified clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.analyses.iter().all(AnalysisVerdict::is_clean)
    }
}

/// Reads one file of the trace directory.
fn read_dir_file(dir: &Path, name: &str) -> Result<String, SimError> {
    fs::read_to_string(dir.join(name)).map_err(|e| {
        SimError::Exec(format!(
            "cannot read `{}`: {e} — is `{}` a complete trace directory? (an \
             interrupted recording writes no manifest)",
            dir.join(name).display(),
            dir.display()
        ))
    })
}

/// Parses the manifest: the fingerprint and the ordered trace file names.
fn parse_manifest(text: &str) -> Result<(u64, Vec<String>), SimError> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let rest = header.strip_prefix(MANIFEST_MAGIC).ok_or_else(|| {
        SimError::Exec(format!(
            "not a `{MANIFEST_MAGIC}` manifest: starts `{header}`"
        ))
    })?;
    let mut fingerprint = None;
    let mut declared = None;
    for field in rest.split_whitespace() {
        match field.split_once('=') {
            Some(("fp", value)) => fingerprint = u64::from_str_radix(value, 16).ok(),
            Some(("analyses", value)) => declared = value.parse::<usize>().ok(),
            _ => {
                return Err(SimError::Exec(format!(
                    "malformed manifest field `{field}`"
                )))
            }
        }
    }
    let (Some(fingerprint), Some(declared)) = (fingerprint, declared) else {
        return Err(SimError::Exec(format!(
            "incomplete manifest header `{header}`"
        )));
    };
    let mut files = Vec::with_capacity(declared);
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some("analysis"), Some(index), Some(file), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(SimError::Exec(format!("malformed manifest line `{line}`")));
        };
        if index.parse() != Ok(files.len()) {
            return Err(SimError::Exec(format!(
                "manifest analysis `{index}` out of order (expected {})",
                files.len()
            )));
        }
        files.push(file.to_string());
    }
    if files.len() != declared {
        return Err(SimError::Exec(format!(
            "manifest declares {declared} analyses but lists {}",
            files.len()
        )));
    }
    Ok((fingerprint, files))
}

/// Verifies a trace directory: re-parses the embedded deck, recompiles it,
/// re-executes every analysis under `options` (any worker count) and
/// compares every output bit against the recording.
///
/// Returns a per-analysis [`VerifyReport`]; a report is returned even when
/// divergences are found — only *structural* failures (missing manifest,
/// fingerprint mismatch, geometry drift, solver errors) are `Err`.
///
/// # Errors
///
/// Missing or malformed trace files, a deck whose fingerprint no longer
/// matches the recording, geometry drift (the recompiled plan visits a
/// different item count or seed than the trace), and execution errors.
pub fn verify_trace_dir(dir: &Path, options: &ExecOptions) -> Result<VerifyReport, SimError> {
    let (fingerprint, files) = parse_manifest(&read_dir_file(dir, MANIFEST_FILE)?)?;
    let deck_text = read_dir_file(dir, DECK_FILE)?;
    let deck = parse_full_deck(&deck_text)?;
    let found = content_fingerprint(&deck.to_deck_string());
    if found != fingerprint {
        return Err(SimError::Exec(format!(
            "deck fingerprint mismatch: manifest says {fingerprint:016x}, the embedded \
             deck hashes to {found:016x} — `{DECK_FILE}` was edited after recording",
        )));
    }
    let plan = compile(&deck)?;
    let label = options.label.clone().unwrap_or_else(|| plan.title.clone());
    let mut prepared = prepare_deck(&deck, &plan, &label, options)?;
    if prepared.len() != files.len() {
        return Err(SimError::Exec(format!(
            "the deck compiles to {} analyses but the trace recorded {}",
            prepared.len(),
            files.len()
        )));
    }

    // Load every trace, check geometry, force the recorded chunk layout.
    let mut traces = Vec::with_capacity(files.len());
    for (prep, file) in prepared.iter_mut().zip(&files) {
        let trace = JobTrace::parse(&read_dir_file(dir, file)?)
            .map_err(|e| SimError::Exec(format!("`{file}`: {e}")))?;
        if trace.fingerprint != fingerprint {
            return Err(SimError::Exec(format!(
                "`{file}` carries fingerprint {:016x}, manifest says {fingerprint:016x}",
                trace.fingerprint
            )));
        }
        if trace.items != prep.spec.items() || trace.seed != prep.spec.seed() {
            return Err(SimError::Exec(format!(
                "`{file}` geometry drift: trace has items={} seed={}, the recompiled \
                 plan produces items={} seed={}",
                trace.items,
                trace.seed,
                prep.spec.items(),
                prep.spec.seed()
            )));
        }
        prep.spec = prep.spec.with_chunk(trace.chunk);
        traces.push(trace);
    }

    // Re-execute everything on one pool, comparing as the streams emit.
    let mut sinks: Vec<VerifySink<'_>> = traces.iter().map(VerifySink::new).collect();
    let mut jobs = Vec::with_capacity(prepared.len());
    for (prep, sink) in prepared.iter().zip(sinks.iter_mut()) {
        let job = JobBuilder::new(prep.spec)
            .label(prep.job_label.clone())
            .build(sink, |index, _| prep.solve_item(index))
            .map_err(SimError::from)?;
        jobs.push(job);
    }
    let tasks: Vec<&dyn ChunkTask> = jobs.iter().map(|job| job as &dyn ChunkTask).collect();
    run_batch(&tasks, options.workers, &CancelToken::new());
    drop(tasks);
    for job in jobs {
        job.finish().map_err(SimError::from)?;
    }

    let analyses = prepared
        .iter()
        .zip(&traces)
        .zip(&sinks)
        .map(|((prep, trace), sink)| AnalysisVerdict {
            label: prep.result_label.clone(),
            engine: prep.engine_name().to_string(),
            items: trace.items,
            chunks: trace.chunks.len(),
            corrupt_chunk: trace.integrity_check().err(),
            divergence: sink.divergence(),
            provenance: trace.meta.clone(),
        })
        .collect();
    Ok(VerifyReport {
        title: plan.title.clone(),
        fingerprint,
        analyses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const SET_DECK: &str = "single SET\nVD drain 0 1m\nVG gate 0 0\nJ1 drain island C=0.5a R=100k\nJ2 island 0 C=0.5a R=100k\nCG gate island 1a\n.options temp=1 seed=3\n.dc VG 0 0.16 16m\n.print dc i(J1)\n";

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "se-sim-trace-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record_set_deck(dir: &Path) -> (Vec<SimulationResult>, RecordSummary) {
        let deck = parse_full_deck(SET_DECK).unwrap();
        let plan = compile(&deck).unwrap();
        record_deck(&deck, &plan, &ExecOptions::default(), dir).unwrap()
    }

    #[test]
    fn record_then_verify_is_clean_and_results_match_execute() {
        let dir = temp_dir("roundtrip");
        let (results, summary) = record_set_deck(&dir);
        let deck = parse_full_deck(SET_DECK).unwrap();
        let plan = compile(&deck).unwrap();
        assert_eq!(results, crate::exec::execute(&deck, &plan).unwrap());
        assert_eq!(summary.analyses.len(), 1);
        // 11 master bias points schedule as 11 one-point items.
        assert_eq!(summary.analyses[0].2, 11);

        let report = verify_trace_dir(&dir, &ExecOptions::default()).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.analyses[0].engine, "master-equation");
        assert_eq!(report.analyses[0].items, 11);
        assert!(report.analyses[0]
            .provenance
            .iter()
            .any(|(k, v)| k == "options" && v.contains("seed=3")));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_edited_deck_is_refused_by_fingerprint() {
        let dir = temp_dir("edited");
        record_set_deck(&dir);
        let deck_path = dir.join(DECK_FILE);
        let text = fs::read_to_string(&deck_path).unwrap();
        fs::write(&deck_path, text.replace("seed=3", "seed=4")).unwrap();
        let err = verify_trace_dir(&dir, &ExecOptions::default()).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_manifest_is_refused_as_incomplete() {
        let dir = temp_dir("nomanifest");
        record_set_deck(&dir);
        fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let err = verify_trace_dir(&dir, &ExecOptions::default()).unwrap_err();
        assert!(err.to_string().contains("manifest"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_corrupted_payload_is_localized_to_chunk_and_item() {
        let dir = temp_dir("corrupt");
        let (_, summary) = record_set_deck(&dir);
        let trace_path = dir.join(&summary.analyses[0].1);
        // Flip the last hex digit of item 1's payload (the second
        // warm-started block of the sweep).
        let text = fs::read_to_string(&trace_path).unwrap();
        let corrupted: String = text
            .lines()
            .map(|line| {
                if line.starts_with("item 1 ") {
                    let (head, tail) = line.split_at(line.len() - 1);
                    let last = if tail == "0" { "1" } else { "0" };
                    format!("{head}{last}\n")
                } else {
                    format!("{line}\n")
                }
            })
            .collect();
        fs::write(&trace_path, corrupted).unwrap();

        let report = verify_trace_dir(&dir, &ExecOptions::default()).unwrap();
        assert!(!report.is_clean());
        let verdict = &report.analyses[0];
        // The file itself no longer hashes clean…
        let chunk = 1 / JobTrace::parse(&fs::read_to_string(&trace_path).unwrap())
            .unwrap()
            .chunk;
        assert_eq!(verdict.corrupt_chunk, Some(chunk));
        // …and the re-execution pinpoints the exact item.
        let divergence = verdict.divergence.expect("must diverge");
        assert_eq!(divergence.item, 1);
        assert_eq!(divergence.chunk, chunk);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifests_parse_strictly() {
        assert!(parse_manifest("bogus").is_err());
        assert!(parse_manifest("se-sim-trace v1 fp=00 analyses=1\n").is_err());
        assert!(
            parse_manifest("se-sim-trace v1 fp=00 analyses=1\nanalysis 1 a.trace\n").is_err(),
            "out-of-order analysis index must be refused"
        );
        let (fp, files) =
            parse_manifest("se-sim-trace v1 fp=0bad analyses=1\nanalysis 0 a.trace\n").unwrap();
        assert_eq!(fp, 0xbad);
        assert_eq!(files, vec!["a.trace".to_string()]);
    }
}
