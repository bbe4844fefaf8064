//! Deck benchmark: generated decks through the real pipeline
//! (`parse_full_deck` → `compile` → `execute_with_options`).
//!
//! ```text
//! cargo run --release --manifest-path deckbench/Cargo.toml -- \
//!     --workload array_bg --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on an untraced, closed-loop
//! run (one process, one deck at a time, one worker), in seconds of a
//! reference host (see [`normalised_median`]).
//! `--trace 1` measures the per-layer split: a traced single-threaded
//! replica of the same deck, checked bit for bit against `execute_serial`.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; see `deckbench/README.md`.

// `!(a > b)` rejects NaN alongside ordinary range violations, as in the
// workspace crates.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod checks;
mod decks;
mod replica;

use checks::{point_count, Checker};
use decks::{Scale, Workload};
use se_exec::Workers;
use se_netlist::parse_full_deck;
use se_sim::{build_stationary, compile, execute_with_options, ExecOptions, SimulationResult};
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 3] = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 27] = [
    ("netlist.parse_s", "s"),
    ("sim.plan_s", "s"),
    ("orthodox.build_s", "s"),
    ("orthodox.strong_entries", "count"),
    ("orthodox.strong_density", "ratio"),
    ("montecarlo.clone_s", "s"),
    ("montecarlo.new_s", "s"),
    ("montecarlo.equil_s", "s"),
    ("montecarlo.measure_s", "s"),
    ("montecarlo.events", "count"),
    ("montecarlo.events_per_s", "1/s"),
    ("montecarlo.tree_kernel", "count"),
    ("montecarlo.batched_s", "s"),
    ("montecarlo.lane_groups", "count"),
    ("montecarlo.replica_events", "count"),
    ("montecarlo.master_solve_s", "s"),
    ("montecarlo.master_states", "count"),
    ("numeric.iterations", "count"),
    ("numeric.warm_ratio", "ratio"),
    ("numeric.fallbacks", "count"),
    ("exec.sink_s", "s"),
    ("exec.substrate_s", "s"),
    ("exec.serial_s", "s"),
    ("exec.parallel_speedup", "ratio"),
    ("exec.hardware_threads", "count"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
];

/// A traced run whose layers explain less of its wall time than this is
/// refused: the split would not account for the run.
const MIN_COVERAGE: f64 = 0.9;
/// Least samples behind every reported time.
const MIN_SAMPLES: usize = 5;
/// Least duration of one set-up sample: small decks set up in well under
/// a millisecond, so a sample repeats the set-up until it lasts this long.
const SETUP_SAMPLE_S: f64 = 0.05;
/// Entries of the calibration table: 1 MiB, about the hot working set of
/// the decks. Of the random-access tables tried (8 KiB to 32 MiB), this
/// size tracked host contention best on all four workloads.
const CALIBRATION_ENTRIES: usize = 1 << 17;
/// Steps of the calibration compute loop (about 32 ms uncontended).
const CALIBRATION_COMPUTE_STEPS: usize = 2_000_000;
/// Steps of the calibration memory loop (about 20 ms uncontended).
const CALIBRATION_MEMORY_STEPS: usize = 8_000_000;
/// What [`calibration_pass`] reports on an uncontended core of the
/// reference host (2-vCPU Intel Xeon KVM guest): end-to-end times are
/// reported in seconds of that host.
const CALIBRATION_REFERENCE_S: f64 = 0.025;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one benchmark run prints: `values` are in the order of `table`
/// ([`END_TO_END`] or [`PER_LAYER`]).
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Report {
    fn to_json(&self) -> String {
        assert_eq!(self.table.len(), self.values.len(), "one value per metric");
        let metrics: Vec<String> = self
            .table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// The median of the samples.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        0.5 * (samples[mid - 1] + samples[mid])
    }
}

/// One step of the calibration loops' random stream (Knuth's MMIX LCG).
fn lcg_step(state: u64) -> u64 {
    state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Time of one calibration pass, on the calling thread (the thread that
/// runs the work it brackets): the geometric mean of a compute loop
/// (`ln`, `exp` and an L1-resident table) and a loop of random
/// read-modify-writes over all of `table`. Each loop alone now and then
/// slows for a whole run while the decks do not; the mean halves such a
/// departure. No program change can touch either loop.
fn calibration_pass(table: &mut [f64]) -> f64 {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0.0;
    let t = Instant::now();
    for _ in 0..CALIBRATION_COMPUTE_STEPS {
        state = lcg_step(state);
        let i = (state >> 33) as usize % 1024;
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        let v = table[i] * 0.999 + (-(u + 1e-300).ln()).exp() * 0.001;
        table[i] = v;
        acc += v;
    }
    let compute = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..CALIBRATION_MEMORY_STEPS {
        state = lcg_step(state);
        let i = (state >> 33) as usize % table.len();
        let v = table[i] * 0.999 + (state >> 11) as f64 / (1u64 << 53) as f64;
        table[i] = v;
        acc += v;
    }
    let memory = t.elapsed().as_secs_f64();
    black_box(acc);
    (compute * memory).sqrt()
}

/// Host-normalised median of `sample` (which returns its own time in
/// seconds) over at least [`MIN_SAMPLES`] samples and `budget`.
///
/// The host shares its cores with other tenants, whose load slows every
/// instruction stream on them by up to 2× for tens of seconds at a time.
/// Each sample is therefore bracketed by calibration passes and scaled by
/// [`CALIBRATION_REFERENCE_S`] over the mean of the two passes: a slowdown
/// of the host cancels, a slowdown of the program does not, since the
/// calibration loops run none of its code.
fn normalised_median(
    budget: Duration,
    table: &mut [f64],
    mut sample: impl FnMut() -> Result<f64, String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut before = calibration_pass(table);
    let mut scaled = Vec::new();
    while scaled.len() < MIN_SAMPLES || start.elapsed() < budget {
        let seconds = sample()?;
        let after = calibration_pass(table);
        scaled.push(seconds * CALIBRATION_REFERENCE_S / (0.5 * (before + after)));
        before = after;
    }
    Ok(median(&mut scaled))
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// High-water resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Deck text → engines ready to solve: parse, compile and build every
/// planned run's stationary backend.
fn set_up(text: &str) -> Result<(), String> {
    let deck = parse_full_deck(text).map_err(|e| e.to_string())?;
    let plan = compile(&deck).map_err(|e| e.to_string())?;
    for run in &plan.runs {
        black_box(
            build_stationary(&deck.netlist, &deck.options, run.engine)
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(())
}

/// Deck text → result tables: the user's time to solution.
fn pipeline(text: &str, workers: Workers) -> Result<Vec<SimulationResult>, String> {
    let deck = parse_full_deck(text).map_err(|e| e.to_string())?;
    let plan = compile(&deck).map_err(|e| e.to_string())?;
    let options = ExecOptions {
        workers,
        ..ExecOptions::default()
    };
    execute_with_options(&deck, &plan, &options).map_err(|e| e.to_string())
}

/// Host-normalised median set-up time over at least [`MIN_SAMPLES`]
/// samples and `budget`, after one warm-up set-up that also calibrates the
/// sample length.
fn measure_setup(text: &str, budget: Duration, table: &mut [f64]) -> Result<f64, String> {
    let warm = Instant::now();
    set_up(text)?;
    let inner = (SETUP_SAMPLE_S / warm.elapsed().as_secs_f64().max(1e-9)).ceil() as usize;
    let inner = inner.max(1);
    normalised_median(budget, table, || {
        let t = Instant::now();
        for _ in 0..inner {
            set_up(text)?;
        }
        Ok(t.elapsed().as_secs_f64() / inner as f64)
    })
}

/// The untraced run: set-up for 30 % of the budget, then whole pipeline
/// runs on the calling thread (`Workers::Serial`), each checked, for the
/// rest.
fn untraced(args: &Args) -> Result<Report, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let text = decks::generate(args.workload, Scale::Full, args.seed);
    let deck = parse_full_deck(&text).map_err(|e| e.to_string())?;
    let plan = compile(&deck).map_err(|e| e.to_string())?;
    let checker = Checker::new(args.workload, &deck, &plan)?;
    let points = point_count(&plan);

    // One calibration table for the whole run, so that its 1 MiB counts
    // the same towards `peak_rss_mb` in every run.
    let mut table = vec![1.0; CALIBRATION_ENTRIES];
    let setup_s = measure_setup(&text, budget.mul_f64(0.3), &mut table)?;

    let (mut attempted, mut failed) = (0, 0);
    let run_s = normalised_median(budget.saturating_sub(start.elapsed()), &mut table, || {
        let t = Instant::now();
        let outcome = pipeline(&text, Workers::Serial);
        let seconds = t.elapsed().as_secs_f64();
        attempted += points;
        failed += match outcome {
            Ok(results) => checker.failed_points(&results),
            Err(e) => {
                eprintln!("deckbench: {} run failed: {e}", args.workload.name());
                points
            }
        };
        Ok(seconds)
    })?;
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        table: &END_TO_END,
        values: vec![run_s, setup_s, peak_rss_mb()?],
    })
}

/// Bit-for-bit row comparison; returns the number of mismatching rows.
fn mismatched_rows(replica: &[Vec<f64>], reference: &SimulationResult) -> usize {
    let rows = reference.rows();
    if replica.len() != rows.len() {
        return replica.len().max(rows.len());
    }
    replica
        .iter()
        .zip(rows)
        .filter(|(a, b)| {
            a.len() != b.len()
                || a.iter()
                    .zip(b.iter())
                    .any(|(x, y)| x.to_bits() != y.to_bits())
        })
        .count()
}

/// The traced run: rounds of one untraced parallel run, one
/// `execute_serial` and one traced replica checked against it, until the
/// budget is spent. Alternating the three keeps them under the same host
/// load; every figure is a mean over the rounds.
fn traced(args: &Args) -> Result<Report, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let text = decks::generate(args.workload, Scale::Full, args.seed);
    let deck = parse_full_deck(&text).map_err(|e| e.to_string())?;
    let plan = compile(&deck).map_err(|e| e.to_string())?;
    let checker = Checker::new(args.workload, &deck, &plan)?;
    let points = point_count(&plan);
    let threads = hardware_threads();
    let sink = sink_path(args.workload);

    let (mut attempted, mut failed) = (0, 0);
    let (mut run_s, mut serial_s) = (0.0, 0.0);
    let mut passes: Vec<replica::Layers> = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let parallel = pipeline(&text, Workers::Count(threads))?;
        run_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let serial = pipeline(&text, Workers::Serial)?;
        serial_s += t.elapsed().as_secs_f64();
        let (tables, layers) = replica::replicate(&text, &serial, &sink)?;
        attempted += 3 * points;
        failed += checker.failed_points(&parallel) + checker.failed_points(&serial);
        failed += tables
            .iter()
            .zip(&serial)
            .map(|(rows, reference)| mismatched_rows(rows, reference))
            .sum::<usize>();
        passes.push(layers);
    }
    let n = passes.len() as f64;
    let (run_s, serial_s) = (run_s / n, serial_s / n);
    let mean = |f: fn(&replica::Layers) -> f64| passes.iter().map(f).sum::<f64>() / n;
    let wall_s = mean(|l| l.wall_s);
    let coverage = mean(|l| l.layer_sum()) / wall_s;
    if !(coverage >= MIN_COVERAGE) {
        return Err(format!(
            "traced run refused: layers cover {coverage:.3} of the replica wall time (< {MIN_COVERAGE})"
        ));
    }
    // Counts repeat exactly from pass to pass; times are means.
    let last = passes.last().expect("at least one replica pass");
    let measure_s = mean(|l| l.measure_s);
    let events = last.events as f64;
    // In PER_LAYER order.
    let values = vec![
        mean(|l| l.parse_s),
        mean(|l| l.plan_s),
        mean(|l| l.build_s),
        last.strong_entries as f64,
        last.strong_density,
        mean(|l| l.clone_s),
        mean(|l| l.new_s),
        mean(|l| l.equil_s),
        measure_s,
        events,
        ratio(events, measure_s),
        f64::from(u8::from(last.tree_kernel)),
        mean(|l| l.batched_s),
        last.lane_groups as f64,
        last.replica_events as f64,
        mean(|l| l.master_solve_s),
        last.master_states as f64,
        last.iterations as f64,
        ratio(last.warm_solves as f64, last.solves as f64),
        last.fallbacks as f64,
        mean(|l| l.sink_s),
        serial_s - wall_s,
        serial_s,
        ratio(serial_s, run_s),
        threads as f64,
        wall_s,
        coverage,
    ];
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        table: &PER_LAYER,
        values,
    })
}

/// Where the traced sink writes its CSV: inside the build directory of
/// the checkout, never outside it.
fn sink_path(workload: Workload) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("deckbench/target"), PathBuf::from);
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("deckbench-{}.csv", workload.name()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "deckbench: {e}\nusage: deckbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match report {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("deckbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_within_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        assert!(names.iter().all(|name| valid_name(name)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names must be unique");
        assert!(END_TO_END.len() <= 16);
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for workload in Workload::ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", workload.name())),
                "{} missing",
                workload.name()
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }

    #[test]
    fn report_prints_one_json_line_with_full_digits() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            table: &END_TO_END,
            values: vec![1.2345678901234, 0.5, 13.0],
        };
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.2345678901234, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 13.0, \"unit\": \"MB\"}}}"
        );
    }

    /// Every workload at smoke size: the parallel pipeline passes its
    /// output check and the traced replica reproduces `execute_serial`
    /// bit for bit with layers covering its wall time.
    #[test]
    fn tiny_workloads_pass_their_checks_and_replicate_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("deckbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for workload in Workload::ALL {
            let text = decks::generate(workload, Scale::Tiny, 5);
            let deck = parse_full_deck(&text).unwrap();
            let plan = compile(&deck).unwrap();
            let checker = Checker::new(workload, &deck, &plan).unwrap();
            let parallel = pipeline(&text, Workers::Count(2)).unwrap();
            assert_eq!(checker.failed_points(&parallel), 0, "{}", workload.name());
            let serial = pipeline(&text, Workers::Serial).unwrap();
            let sink = dir.join(format!("{}.csv", workload.name()));
            let (tables, layers) = replica::replicate(&text, &serial, &sink).unwrap();
            for (rows, reference) in tables.iter().zip(&serial) {
                assert_eq!(mismatched_rows(rows, reference), 0, "{}", workload.name());
            }
            assert!(
                layers.layer_sum() <= layers.wall_s * 1.0001,
                "{}",
                workload.name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checks_fail_on_wrong_answers() {
        let text = decks::generate(Workload::MasterMap, Scale::Tiny, 5);
        let deck = parse_full_deck(&text).unwrap();
        let plan = compile(&deck).unwrap();
        let checker = Checker::new(Workload::MasterMap, &deck, &plan).unwrap();
        let good = pipeline(&text, Workers::Serial).unwrap();
        let table = &good[0];
        let mut rows = table.rows().to_vec();
        rows[3][2] *= 1.01; // break current conservation at one point
        let broken = SimulationResult::new(
            table.label(),
            table.engine(),
            table.columns().to_vec(),
            rows,
            table.metadata().to_vec(),
        );
        assert_eq!(checker.failed_points(&[broken]), 1);

        let text = decks::generate(Workload::ChainTransport, Scale::Tiny, 5);
        let deck = parse_full_deck(&text).unwrap();
        let plan = compile(&deck).unwrap();
        let checker = Checker::new(Workload::ChainTransport, &deck, &plan).unwrap();
        let good = pipeline(&text, Workers::Serial).unwrap();
        let table = &good[0];
        let mut rows = table.rows().to_vec();
        let top = rows.len() - 1;
        for v in &mut rows[top][1..] {
            *v = -*v; // top point conducting against VD
        }
        rows[0][1] = f64::NAN;
        let broken = SimulationResult::new(
            table.label(),
            table.engine(),
            table.columns().to_vec(),
            rows,
            table.metadata().to_vec(),
        );
        assert_eq!(checker.failed_points(&[broken]), 2);

        let text = decks::generate(Workload::SmallEnsemble, Scale::Tiny, 5);
        let deck = parse_full_deck(&text).unwrap();
        let plan = compile(&deck).unwrap();
        let checker = Checker::new(Workload::SmallEnsemble, &deck, &plan).unwrap();
        let good = pipeline(&text, Workers::Serial).unwrap();
        let table = &good[0];
        let mut rows = table.rows().to_vec();
        let top = rows.len() - 1;
        rows[top][1] *= 1.5; // top-bias mean far off the master equation
        let broken = SimulationResult::new(
            table.label(),
            table.engine(),
            table.columns().to_vec(),
            rows,
            table.metadata().to_vec(),
        );
        assert_eq!(checker.failed_points(&[broken]), 1);
    }
}
