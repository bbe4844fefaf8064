//! Streaming result consumption: the [`ResultSink`] trait and the stock
//! sinks (in-memory table, incremental CSV writer, throttled
//! progress reporter, tee combinator).
//!
//! The scheduler feeds a sink its items **in index order**, whatever the
//! thread scheduling, chunking or resume state of the job — so a sink can
//! write straight to a file and the bytes come out identical to a serial
//! run. [`ResultSink::flush`] is called at chunk boundaries of the emission
//! stream, which is what makes an interrupted checkpointed run leave a
//! clean, resumable prefix behind.

use crate::job::{JobSpec, Report};
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// A streaming consumer of job results.
///
/// The scheduler calls [`ResultSink::start`] once before any item,
/// [`ResultSink::item`] for every item **in index order**,
/// [`ResultSink::flush`] after each emitted chunk, and
/// [`ResultSink::finish`] once after the last item of a successful run
/// (errors and cancellations skip it). Items arrive by reference; a sink
/// that retains data copies what it needs.
pub trait ResultSink<T> {
    /// Called once, before any item, with the job geometry.
    ///
    /// # Errors
    ///
    /// An I/O failure here aborts the job with
    /// [`crate::ExecError::Sink`].
    fn start(&mut self, spec: &JobSpec) -> io::Result<()> {
        let _ = spec;
        Ok(())
    }

    /// Consumes the item at `index`. Items arrive in strictly increasing
    /// index order with no gaps.
    ///
    /// # Errors
    ///
    /// An I/O failure here aborts the job with
    /// [`crate::ExecError::Sink`].
    fn item(&mut self, index: usize, item: &T) -> io::Result<()>;

    /// Called after each emitted chunk; durable sinks should push buffered
    /// bytes to their backing store here.
    ///
    /// # Errors
    ///
    /// An I/O failure here aborts the job with
    /// [`crate::ExecError::Sink`].
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Called once after the last item of a successful run.
    ///
    /// # Errors
    ///
    /// An I/O failure here fails the job with
    /// [`crate::ExecError::Sink`].
    fn finish(&mut self, report: &Report) -> io::Result<()> {
        let _ = report;
        Ok(())
    }
}

/// The no-op sink: discards every item. Useful when a job is run only for
/// its collected results (see [`crate::run_collect`]).
impl<T> ResultSink<T> for () {
    fn item(&mut self, _index: usize, _item: &T) -> io::Result<()> {
        Ok(())
    }
}

/// `Option<S>` forwards to `S` when present and discards otherwise —
/// convenient for optional CSV export or progress reporting.
impl<T, S: ResultSink<T>> ResultSink<T> for Option<S> {
    fn start(&mut self, spec: &JobSpec) -> io::Result<()> {
        match self {
            Some(sink) => sink.start(spec),
            None => Ok(()),
        }
    }

    fn item(&mut self, index: usize, item: &T) -> io::Result<()> {
        match self {
            Some(sink) => sink.item(index, item),
            None => Ok(()),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }

    fn finish(&mut self, report: &Report) -> io::Result<()> {
        match self {
            Some(sink) => sink.finish(report),
            None => Ok(()),
        }
    }
}

/// Feeds two sinks from one stream (chain `Tee`s for more).
#[derive(Debug)]
pub struct Tee<A, B>(pub A, pub B);

impl<T, A: ResultSink<T>, B: ResultSink<T>> ResultSink<T> for Tee<A, B> {
    fn start(&mut self, spec: &JobSpec) -> io::Result<()> {
        self.0.start(spec)?;
        self.1.start(spec)
    }

    fn item(&mut self, index: usize, item: &T) -> io::Result<()> {
        self.0.item(index, item)?;
        self.1.item(index, item)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()?;
        self.1.flush()
    }

    fn finish(&mut self, report: &Report) -> io::Result<()> {
        self.0.finish(report)?;
        self.1.finish(report)
    }
}

/// An item that renders as zero or more rows of named-column `f64` data —
/// the shape the tabular sinks ([`TableSink`], [`CsvSink`]) consume.
///
/// A bias-point result is one row; a whole transient trace is one row per
/// sample time.
pub trait ToRows {
    /// Emits the item's rows, in order, through `emit`.
    ///
    /// # Errors
    ///
    /// Propagates the first error `emit` returns.
    fn rows(&self, emit: &mut dyn FnMut(&[f64]) -> io::Result<()>) -> io::Result<()>;
}

impl ToRows for Vec<f64> {
    fn rows(&self, emit: &mut dyn FnMut(&[f64]) -> io::Result<()>) -> io::Result<()> {
        emit(self)
    }
}

impl ToRows for Vec<Vec<f64>> {
    fn rows(&self, emit: &mut dyn FnMut(&[f64]) -> io::Result<()>) -> io::Result<()> {
        for row in self {
            emit(row)?;
        }
        Ok(())
    }
}

/// The in-memory table sink: accumulates every row of the stream.
#[derive(Debug, Default)]
pub struct TableSink {
    rows: Vec<Vec<f64>>,
}

impl TableSink {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        TableSink::default()
    }

    /// The accumulated rows, in index order.
    #[must_use]
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Consumes the sink, returning the accumulated rows.
    #[must_use]
    pub fn into_rows(self) -> Vec<Vec<f64>> {
        self.rows
    }
}

impl<T: ToRows> ResultSink<T> for TableSink {
    fn item(&mut self, _index: usize, item: &T) -> io::Result<()> {
        let rows = &mut self.rows;
        item.rows(&mut |row| {
            rows.push(row.to_vec());
            Ok(())
        })
    }
}

/// Formats one CSV cell with shortest-round-trip precision — the same
/// `{v:?}` rendering the result tables use, so a streamed CSV is
/// byte-identical to one exported after the fact.
fn csv_cell(value: f64) -> String {
    format!("{value:?}")
}

/// The incremental CSV writer: a header row of column names at
/// [`ResultSink::start`], then one line per data row as chunks stream in,
/// flushed at every chunk boundary.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    out: W,
    columns: Vec<String>,
}

impl<W: Write> CsvSink<W> {
    /// A CSV sink writing `columns` as the header line.
    pub fn new(out: W, columns: Vec<String>) -> Self {
        CsvSink { out, columns }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<T: ToRows, W: Write> ResultSink<T> for CsvSink<W> {
    fn start(&mut self, _spec: &JobSpec) -> io::Result<()> {
        writeln!(self.out, "{}", self.columns.join(","))
    }

    fn item(&mut self, _index: usize, item: &T) -> io::Result<()> {
        let out = &mut self.out;
        item.rows(&mut |row| {
            let cells: Vec<String> = row.iter().map(|&v| csv_cell(v)).collect();
            writeln!(out, "{}", cells.join(","))
        })
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    fn finish(&mut self, _report: &Report) -> io::Result<()> {
        self.out.flush()
    }
}

/// The throttled progress reporter: counts emitted items and prints
/// `label: done/total (pct%)` lines, at most one per refresh interval
/// (plus a final summary), so a million-point sweep does not flood the
/// terminal.
#[derive(Debug)]
pub struct ProgressSink<W: Write> {
    label: String,
    out: W,
    every: Duration,
    last: Option<Instant>,
    done: usize,
    total: usize,
}

impl ProgressSink<io::Stderr> {
    /// A progress reporter printing to stderr, refreshing at most every
    /// 200 ms.
    #[must_use]
    pub fn stderr(label: impl Into<String>) -> Self {
        ProgressSink::to_writer(label, io::stderr()).with_interval(Duration::from_millis(200))
    }
}

impl<W: Write> ProgressSink<W> {
    /// A progress reporter printing to an arbitrary writer with no
    /// throttling (every item reports) — useful for tests.
    pub fn to_writer(label: impl Into<String>, out: W) -> Self {
        ProgressSink {
            label: label.into(),
            out,
            every: Duration::ZERO,
            last: None,
            done: 0,
            total: 0,
        }
    }

    /// Sets the minimum interval between progress lines.
    #[must_use]
    pub fn with_interval(mut self, every: Duration) -> Self {
        self.every = every;
        self
    }
}

impl<T, W: Write> ResultSink<T> for ProgressSink<W> {
    fn start(&mut self, spec: &JobSpec) -> io::Result<()> {
        self.total = spec.items();
        self.done = 0;
        self.last = None;
        Ok(())
    }

    fn item(&mut self, _index: usize, _item: &T) -> io::Result<()> {
        self.done += 1;
        let due = self.last.is_none_or(|t| t.elapsed() >= self.every);
        if due && self.done < self.total {
            let pct = 100.0 * self.done as f64 / self.total.max(1) as f64;
            writeln!(
                self.out,
                "{}: {}/{} ({pct:.0}%)",
                self.label, self.done, self.total
            )?;
            self.last = Some(Instant::now());
        }
        Ok(())
    }

    fn finish(&mut self, report: &Report) -> io::Result<()> {
        writeln!(
            self.out,
            "{}: done — {} items ({} computed, {} restored)",
            self.label, report.items, report.computed, report.restored
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn feed<S: ResultSink<Vec<f64>>>(sink: &mut S, rows: &[Vec<f64>]) {
        let spec = JobSpec::new(rows.len());
        sink.start(&spec).unwrap();
        for (i, row) in rows.iter().enumerate() {
            sink.item(i, row).unwrap();
        }
        sink.flush().unwrap();
        let report = Report {
            items: rows.len(),
            computed: rows.len(),
            restored: 0,
            chunks: 1,
        };
        sink.finish(&report).unwrap();
    }

    #[test]
    fn table_sink_accumulates_rows_in_order() {
        let mut sink = TableSink::new();
        feed(&mut sink, &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(sink.rows(), &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(sink.into_rows().len(), 2);
    }

    #[test]
    fn csv_sink_writes_header_and_round_trippable_cells() {
        let mut sink = CsvSink::new(Vec::new(), vec!["VG".into(), "I(J1)".into()]);
        feed(&mut sink, &[vec![0.0, 1e-12], vec![0.1, 2.5e-9]]);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("VG,I(J1)"));
        let row: Vec<f64> = lines
            .next()
            .unwrap()
            .split(',')
            .map(|cell| cell.parse().unwrap())
            .collect();
        assert_eq!(row, vec![0.0, 1e-12]);
    }

    #[test]
    fn transient_blocks_expand_to_one_row_per_sample() {
        let mut sink = TableSink::new();
        let spec = JobSpec::new(1);
        ResultSink::<Vec<Vec<f64>>>::start(&mut sink, &spec).unwrap();
        let block = vec![vec![0.0, 1.0], vec![1e-9, 2.0]];
        sink.item(0, &block).unwrap();
        assert_eq!(sink.rows().len(), 2);
    }

    #[test]
    fn tee_and_option_forward_to_both_arms() {
        let mut sink = Tee(TableSink::new(), Some(TableSink::new()));
        feed(&mut sink, &[vec![7.0]]);
        assert_eq!(sink.0.rows().len(), 1);
        assert_eq!(sink.1.as_ref().unwrap().rows().len(), 1);
        let mut none: Option<TableSink> = None;
        feed(&mut none, &[vec![7.0]]);
        assert!(none.is_none());
    }

    #[test]
    fn progress_sink_reports_and_summarises() {
        let mut sink = ProgressSink::to_writer("deck/dc", Vec::new());
        let rows: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64]).collect();
        feed(&mut sink, &rows);
        let text = String::from_utf8(sink.out).unwrap();
        assert!(text.contains("deck/dc: 1/3 (33%)"), "{text}");
        assert!(
            text.contains("done — 3 items (3 computed, 0 restored)"),
            "{text}"
        );
    }
}
