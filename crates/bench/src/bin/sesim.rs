//! `sesim` — run SPICE-style simulation decks end to end.
//!
//! ```text
//! sesim deck.cir                   parse, compile, run, print tables
//! sesim deck.cir --csv out.csv     stream CSV while running (per-analysis suffixes)
//! sesim deck.cir --json out.json   also export JSON
//! sesim deck.cir --engine kmc      override the deck's .options engine
//! sesim deck.cir --serial          single-threaded execution (same results)
//! sesim deck.cir --jobs 4          cap the shared worker pool at 4 workers
//! sesim deck.cir --chunk 32        32 bias points per scheduled task
//! sesim deck.cir --plan            compile and report the plan, don't run
//! sesim --batch 'decks/*.cir'      run every matching deck through ONE scheduler
//! sesim deck.cir --checkpoint ck/  persist completed chunks under ck/
//! sesim deck.cir --checkpoint ck/ --resume   restore them (bit-identical)
//! sesim deck.cir --quiet           errors only: no tables, no chatter
//! sesim record deck.cir trace/     run the deck AND record every output bit
//! sesim verify trace/              re-execute the recording; exit 3 on drift
//! ```
//!
//! The deck carries the circuit *and* the analysis commands (`.dc`,
//! `.tran`, `.options`, `.print`); `sesim` parses it with
//! `se_netlist::parse_full_deck`, compiles it with `se_sim::compile`
//! (partition-driven engine auto-selection) and executes it through the
//! `se-exec` job substrate — all decks and analyses share one chunked
//! worker pool. Parser diagnostics, progress and the engine rationale go
//! to stderr; result tables go to stdout, so `--csv`/`--json` output and
//! piped stdout stay machine-clean. The exit code is 0 only if every deck
//! ran to completion.

use se_exec::Workers;
use se_netlist::{parse_full_deck, Deck, EnginePreference};
use se_sim::{
    compile, execute_with_options, run_deck_batch, ExecOptions, SimulationPlan, SimulationResult,
};
use single_electronics::report::Table;
use std::path::PathBuf;
use std::process::ExitCode;

/// Rows above this threshold are summarised on stdout instead of printed
/// in full (exports always carry every row).
const MAX_PRINTED_ROWS: usize = 64;

/// What the invocation does with its positional arguments.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Run decks (the historical behaviour; single or `--batch`).
    Run,
    /// `sesim record <deck.cir> <trace-dir>`: run AND record every bit.
    Record,
    /// `sesim verify <trace-dir>`: re-execute a recording, report drift.
    Verify,
}

struct Args {
    mode: Mode,
    decks: Vec<String>,
    batch: Vec<String>,
    csv: Option<String>,
    json: Option<String>,
    engine: Option<EnginePreference>,
    serial: bool,
    jobs: Option<usize>,
    chunk: Option<usize>,
    checkpoint: Option<PathBuf>,
    resume: bool,
    quiet: bool,
    progress: bool,
    plan_only: bool,
    scalar_ensemble: bool,
    lane_width: Option<usize>,
}

fn usage() -> &'static str {
    "usage: sesim <deck.cir> [options]\n\
     \u{20}      sesim --batch '<glob>' [options]\n\
     \u{20}      sesim record <deck.cir> <trace-dir> [options]\n\
     \u{20}      sesim verify <trace-dir> [options]\n\
     \n\
     Runs SPICE-style decks (.dc / .tran / .options / .print cards) through\n\
     the partition-selected engine and prints one table per analysis.\n\
     \n\
     --batch PATTERN   run every matching deck through one shared scheduler\n\
     \u{20}                 (repeatable; * and ? match within the file name)\n\
     --csv PATH        stream results to CSV while running\n\
     --json PATH       export JSON after running\n\
     --engine NAME     override the deck's .options engine\n\
     \u{20}                 (auto, analytic, master, kmc, spice, hybrid)\n\
     --serial          single-threaded execution (identical results)\n\
     --jobs N          cap the worker pool at N workers\n\
     --chunk N         N work items per scheduled task\n\
     --checkpoint DIR  persist completed chunks under DIR\n\
     --resume          restore completed chunks from DIR (bit-identical)\n\
     --progress        throttled per-analysis progress lines on stderr\n\
     --quiet           errors only: no tables, no warnings, no chatter\n\
     --plan            compile and report the plan, don't run\n\
     --scalar-ensemble run .options repeats= stationary ensembles through\n\
     \u{20}                 the per-seed scalar loop for every lane group (by\n\
     \u{20}                 default, groups of 8+ replicas on circuits with\n\
     \u{20}                 < 64 events take the batched engine; the results\n\
     \u{20}                 are bit-identical; used by the CI gate)\n\
     --lane-width N    replicas per ensemble lane group (default 8): each\n\
     \u{20}                 bias point's repeats shard into ceil(repeats/N)\n\
     \u{20}                 work items on the shared pool; the published\n\
     \u{20}                 tables are byte-identical for every N\n\
     \n\
     record / verify close the determinism loop: `record` runs a deck and\n\
     writes every output bit (raw IEEE-754) plus the job geometry into a\n\
     self-contained trace directory; `verify` re-executes the recording —\n\
     under any --jobs/--serial setting — and either confirms bit-identity\n\
     (exit 0) or reports the first divergence, localized to analysis,\n\
     chunk, item, row and column (exit 3)."
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    argv.next(); // program name
    let mut args = Args {
        mode: Mode::Run,
        decks: Vec::new(),
        batch: Vec::new(),
        csv: None,
        json: None,
        engine: None,
        serial: false,
        jobs: None,
        chunk: None,
        checkpoint: None,
        resume: false,
        quiet: false,
        progress: false,
        plan_only: false,
        scalar_ensemble: false,
        lane_width: None,
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--batch" => args
                .batch
                .push(argv.next().ok_or("--batch needs a glob pattern")?),
            "--csv" => args.csv = Some(argv.next().ok_or("--csv needs a path")?),
            "--json" => args.json = Some(argv.next().ok_or("--json needs a path")?),
            "--engine" => {
                let name = argv.next().ok_or("--engine needs a name")?;
                args.engine = Some(EnginePreference::parse(&name)?);
            }
            "--jobs" => {
                let n = argv.next().ok_or("--jobs needs a count")?;
                let n: usize = n.parse().map_err(|_| format!("--jobs: bad count `{n}`"))?;
                if n == 0 {
                    return Err("--jobs needs a count of at least 1".into());
                }
                args.jobs = Some(n);
            }
            "--chunk" => {
                let n = argv.next().ok_or("--chunk needs a size")?;
                let n: usize = n.parse().map_err(|_| format!("--chunk: bad size `{n}`"))?;
                if n == 0 {
                    return Err("--chunk needs a size of at least 1".into());
                }
                args.chunk = Some(n);
            }
            "--checkpoint" => {
                args.checkpoint = Some(PathBuf::from(
                    argv.next().ok_or("--checkpoint needs a directory")?,
                ));
            }
            "--resume" => args.resume = true,
            "--serial" => args.serial = true,
            "--quiet" => args.quiet = true,
            "--progress" => args.progress = true,
            "--plan" => args.plan_only = true,
            "--scalar-ensemble" => args.scalar_ensemble = true,
            "--lane-width" => {
                let n = argv.next().ok_or("--lane-width needs a width")?;
                let n: usize = n
                    .parse()
                    .map_err(|_| format!("--lane-width: bad width `{n}`"))?;
                if n == 0 {
                    return Err("--lane-width needs a width of at least 1".into());
                }
                args.lane_width = Some(n);
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            "record" if args.mode == Mode::Run && args.decks.is_empty() => {
                args.mode = Mode::Record;
            }
            "verify" if args.mode == Mode::Run && args.decks.is_empty() => {
                args.mode = Mode::Verify;
            }
            other => args.decks.push(other.to_string()),
        }
    }
    if args.serial && args.jobs.is_some() {
        return Err("--serial and --jobs are mutually exclusive".into());
    }
    match args.mode {
        Mode::Run => {
            if args.decks.is_empty() && args.batch.is_empty() {
                return Err("a deck file (or --batch pattern) is required".into());
            }
            if args.decks.len() > 1 && args.batch.is_empty() {
                return Err("exactly one deck file is expected (use --batch for many)".into());
            }
            if args.resume && args.checkpoint.is_none() {
                return Err("--resume needs --checkpoint DIR".into());
            }
        }
        Mode::Record | Mode::Verify => {
            let verb = if args.mode == Mode::Record {
                "record"
            } else {
                "verify"
            };
            let expected = if args.mode == Mode::Record {
                "a deck file and a trace directory"
            } else {
                "a trace directory"
            };
            let want = if args.mode == Mode::Record { 2 } else { 1 };
            if args.decks.len() != want {
                return Err(format!("`{verb}` expects {expected}"));
            }
            for (flag, set) in [
                ("--batch", !args.batch.is_empty()),
                ("--csv", args.csv.is_some()),
                ("--json", args.json.is_some()),
                ("--checkpoint", args.checkpoint.is_some()),
                ("--resume", args.resume),
                ("--plan", args.plan_only),
            ] {
                if set {
                    return Err(format!("{flag} cannot be combined with `{verb}`"));
                }
            }
            if args.mode == Mode::Verify && args.engine.is_some() {
                return Err(
                    "--engine cannot be combined with `verify`: the engine is part of the \
                     recorded deck"
                        .into(),
                );
            }
        }
    }
    Ok(args)
}

/// Matches a `*`/`?` wildcard pattern against a file name (iterative, no
/// backtracking blow-up).
fn glob_match(pattern: &str, text: &str) -> bool {
    let (p, t): (Vec<char>, Vec<char>) = (pattern.chars().collect(), text.chars().collect());
    let (mut pi, mut ti) = (0, 0);
    let (mut star, mut mark) = (None, 0);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some(pi);
            mark = ti;
            pi += 1;
        } else if let Some(s) = star {
            pi = s + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

/// Expands one `--batch` pattern: wildcards match within the final path
/// component only; a pattern without wildcards names a file literally.
///
/// `position` is the 1-based position of the pattern among the `--batch`
/// arguments: a multi-pattern invocation that fails must say *which*
/// pattern is at fault, not just quote it (two patterns can be textually
/// identical yet only one intended). Zero-match patterns and missing
/// literal files are hard errors — a silently empty pattern would let a
/// typo'd glob pass the whole batch as vacuously successful.
fn expand_pattern(pattern: &str, position: usize) -> Result<Vec<String>, String> {
    if !pattern.contains(['*', '?']) {
        if !std::path::Path::new(pattern).is_file() {
            return Err(format!(
                "--batch pattern #{position} names `{pattern}`, which is not a file"
            ));
        }
        return Ok(vec![pattern.to_string()]);
    }
    let (dir, file_pattern) = match pattern.rsplit_once('/') {
        Some((dir, file)) => (dir.to_string(), file),
        None => (".".to_string(), pattern),
    };
    if dir.contains(['*', '?']) {
        return Err(format!(
            "--batch pattern #{position} (`{pattern}`): wildcards are only supported in \
             the file name, not in directories"
        ));
    }
    let entries = std::fs::read_dir(&dir).map_err(|e| {
        format!("--batch pattern #{position} (`{pattern}`): cannot read directory `{dir}`: {e}")
    })?;
    let mut matches: Vec<String> = entries
        .filter_map(Result::ok)
        .filter(|entry| entry.path().is_file())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| glob_match(file_pattern, name))
        .map(|name| {
            if dir == "." && !pattern.starts_with("./") {
                name
            } else {
                format!("{dir}/{name}")
            }
        })
        .collect();
    matches.sort();
    if matches.is_empty() {
        return Err(format!(
            "--batch pattern #{position} (`{pattern}`) matched no files in `{dir}/`"
        ));
    }
    Ok(matches)
}

/// The file stem of a deck path: `examples/decks/set.cir` → `set`.
fn deck_stem(path: &str) -> String {
    let file = path.rsplit_once('/').map_or(path, |(_, file)| file);
    let stem = match file.rsplit_once('.') {
        Some((stem, _)) if !stem.is_empty() => stem,
        _ => file,
    };
    stem.to_string()
}

fn print_result(result: &SimulationResult) {
    println!("## {} — engine: {}", result.label(), result.engine());
    if let Some(effort) = result.solver_effort() {
        eprintln!(
            "sesim: solver {}: {} solves, {} iterations, max residual {:.3e}, \
             max boundary mass {:.3e}",
            effort.solver,
            effort.solves,
            effort.iterations,
            effort.residual_max,
            effort.boundary_mass_max
        );
    }
    if result.len() > MAX_PRINTED_ROWS {
        println!(
            "({} rows x {} columns; use --csv or --json to export the full table)",
            result.len(),
            result.columns().len()
        );
        return;
    }
    let headers: Vec<&str> = result.columns().iter().map(String::as_str).collect();
    let mut table = Table::new(result.label(), &headers);
    for row in result.rows() {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.4e}")).collect();
        table.add_row(&cells);
    }
    print!("{table}");
}

/// Loads and parses one deck, printing diagnostics to stderr.
fn load_deck(path: &str, args: &Args) -> Result<Deck, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut deck = parse_full_deck(&text).map_err(|e| e.to_string())?;
    if !args.quiet {
        for diagnostic in &deck.diagnostics {
            eprintln!("sesim: warning: {path}: {diagnostic}");
        }
    }
    if let Some(engine) = args.engine {
        deck.options.engine = engine;
    }
    Ok(deck)
}

fn exec_options(args: &Args, label: String) -> ExecOptions {
    ExecOptions {
        workers: if args.serial {
            Workers::Serial
        } else {
            match args.jobs {
                Some(n) => Workers::Count(n),
                None => Workers::Auto,
            }
        },
        chunk: args.chunk,
        checkpoint: args.checkpoint.clone(),
        resume: args.resume,
        progress: (args.progress || !args.batch.is_empty()) && !args.quiet,
        csv: args.csv.clone(),
        label: Some(label),
        cancel: None,
        scalar_ensemble: args.scalar_ensemble,
        lane_width: args.lane_width,
    }
}

/// Compiles one deck, printing the plan to stderr, and returns the plan
/// so the caller never has to compile twice.
fn report_plan(deck: &Deck, args: &Args, name: &str) -> Result<SimulationPlan, String> {
    let plan = compile(deck).map_err(|e| e.to_string())?;
    if !args.quiet {
        eprintln!("sesim: deck `{}` ({name})", plan.title);
        for run in &plan.runs {
            eprintln!(
                "sesim: {} -> engine {} ({})",
                run.label,
                run.engine.name(),
                run.rationale
            );
            if run.engine == se_sim::EngineChoice::Master {
                let solver = se_sim::stationary_solver(deck.options.solver.unwrap_or_default());
                eprintln!(
                    "sesim: {} -> solver {} (cold, one point per item)",
                    run.label,
                    solver.solver_name()
                );
            }
        }
    }
    Ok(plan)
}

/// Prints results and writes the post-hoc JSON export. `csv_base` is only
/// used to *announce* the files the substrate already streamed.
/// `json_written` tracks every JSON path of the invocation: adversarial
/// deck names can make two decks' spliced paths collide, and silently
/// overwriting one deck's export with another's must be refused.
fn emit_results(
    results: &[SimulationResult],
    args: &Args,
    csv_base: Option<&str>,
    json_base: Option<&str>,
    json_written: &mut std::collections::HashSet<String>,
) -> Result<(), String> {
    for (index, result) in results.iter().enumerate() {
        if !args.quiet {
            if index > 0 {
                println!();
            }
            print_result(result);
            if let Some(base) = csv_base {
                eprintln!("sesim: wrote {}", se_sim::export_path(base, index));
            }
        }
        if let Some(base) = json_base {
            let path = se_sim::export_path(base, index);
            if !json_written.insert(path.clone()) {
                return Err(format!(
                    "JSON export path `{path}` collides with an earlier export — rename \
                     the decks or choose a different export base"
                ));
            }
            std::fs::write(&path, result.to_json())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            if !args.quiet {
                eprintln!("sesim: wrote {path}");
            }
        }
    }
    Ok(())
}

/// Single-deck mode: the historical behaviour, now over the substrate.
fn run_single(args: &Args) -> Result<(), String> {
    let path = &args.decks[0];
    let deck = load_deck(path, args)?;
    let plan = report_plan(&deck, args, path)?;
    if args.plan_only {
        return Ok(());
    }
    let results = execute_with_options(&deck, &plan, &exec_options(args, deck_stem(path)))
        .map_err(|e| e.to_string())?;
    let mut json_written = std::collections::HashSet::new();
    emit_results(
        &results,
        args,
        args.csv.as_deref(),
        args.json.as_deref(),
        &mut json_written,
    )
}

/// Assigns each deck path a unique batch name: the file stem, with a
/// `-2`, `-3`, … suffix on collisions (two `set.cir` files in different
/// directories must not share CSV exports or checkpoint directories).
/// Candidates are checked against *every* name already taken, so a
/// generated `x-2` can never collide with a literal `x-2.cir` stem.
fn unique_names(paths: &[String]) -> Vec<String> {
    let mut taken = std::collections::HashSet::new();
    paths
        .iter()
        .map(|path| {
            let stem = deck_stem(path);
            let mut name = stem.clone();
            let mut n = 1_usize;
            while !taken.insert(name.clone()) {
                n += 1;
                name = format!("{stem}-{n}");
            }
            name
        })
        .collect()
}

/// Batch mode: every matching deck through one shared scheduler.
fn run_batch_mode(args: &Args) -> Result<(), String> {
    let mut paths: Vec<String> = Vec::new();
    for (position, pattern) in args.batch.iter().enumerate() {
        paths.extend(expand_pattern(pattern, position + 1)?);
    }
    paths.extend(args.decks.iter().cloned());
    // Global, order-preserving dedup: overlapping patterns (or a pattern
    // plus an explicit path) must not run a deck twice — two jobs with one
    // name would clobber each other's CSV exports and checkpoints.
    let mut seen = std::collections::HashSet::new();
    paths.retain(|path| seen.insert(path.clone()));
    let total = paths.len();
    let names = unique_names(&paths);

    let mut decks: Vec<(String, Deck)> = Vec::with_capacity(paths.len());
    let mut failures = 0usize;
    for (path, name) in paths.iter().zip(names) {
        match load_deck(path, args) {
            Ok(deck) => {
                if args.plan_only {
                    if let Err(message) = report_plan(&deck, args, path) {
                        eprintln!("sesim: error: {path}: {message}");
                        failures += 1;
                    }
                } else {
                    decks.push((name, deck));
                }
            }
            Err(message) => {
                eprintln!("sesim: error: {message}");
                failures += 1;
            }
        }
    }
    if args.plan_only {
        return if failures == 0 {
            Ok(())
        } else {
            Err(format!("{failures} of {total} decks failed to compile"))
        };
    }

    if !args.quiet {
        eprintln!("sesim: batch of {} decks on one scheduler", decks.len());
    }
    let outcomes = run_deck_batch(decks, &exec_options(args, "batch".into()));
    let mut ok = 0usize;
    let mut first = true;
    let mut json_written = std::collections::HashSet::new();
    for outcome in &outcomes {
        match &outcome.results {
            Ok(results) => {
                ok += 1;
                if !args.quiet {
                    if !first {
                        println!();
                    }
                    println!("# deck {}", outcome.name);
                    first = false;
                }
                let csv_base = args
                    .csv
                    .as_ref()
                    .map(|base| se_sim::deck_export_base(base, &outcome.name));
                let json_base = args
                    .json
                    .as_ref()
                    .map(|base| se_sim::deck_export_base(base, &outcome.name));
                emit_results(
                    results,
                    args,
                    csv_base.as_deref(),
                    json_base.as_deref(),
                    &mut json_written,
                )?;
            }
            Err(e) => {
                eprintln!("sesim: error: deck {}: {e}", outcome.name);
                failures += 1;
            }
        }
    }
    if !args.quiet {
        eprintln!("sesim: batch done — {ok} ok, {failures} failed");
    }
    if failures > 0 {
        return Err(format!("{failures} of {total} decks failed"));
    }
    Ok(())
}

/// `sesim record <deck.cir> <trace-dir>`: run the deck (printing tables as
/// usual) while recording every output bit into the trace directory.
fn run_record(args: &Args) -> Result<(), String> {
    let path = &args.decks[0];
    let dir = PathBuf::from(&args.decks[1]);
    let deck = load_deck(path, args)?;
    let plan = report_plan(&deck, args, path)?;
    let options = exec_options(args, deck_stem(path));
    let (results, summary) =
        se_sim::record_deck(&deck, &plan, &options, &dir).map_err(|e| e.to_string())?;
    let mut json_written = std::collections::HashSet::new();
    emit_results(&results, args, None, None, &mut json_written)?;
    if !args.quiet {
        eprintln!(
            "sesim: recorded {} analyses (deck fingerprint {:016x}) into {}",
            summary.analyses.len(),
            summary.fingerprint,
            summary.dir.display()
        );
        for (label, file, items) in &summary.analyses {
            eprintln!("sesim: trace {file}: `{label}`, {items} items");
        }
    }
    Ok(())
}

/// `sesim verify <trace-dir>`: re-execute the recorded deck and compare
/// every output bit. Returns whether the verification was clean; the
/// divergence report goes to stdout.
fn run_verify(args: &Args) -> Result<bool, String> {
    let dir = PathBuf::from(&args.decks[0]);
    let options = exec_options(args, "verify".into());
    let report = se_sim::verify_trace_dir(&dir, &options).map_err(|e| e.to_string())?;
    if !args.quiet || !report.is_clean() {
        println!(
            "# verify {} — deck `{}`, fingerprint {:016x}",
            dir.display(),
            report.title,
            report.fingerprint
        );
        for verdict in &report.analyses {
            if verdict.is_clean() {
                println!(
                    "ok   {}: engine {}, {} items in {} chunks — bit-identical",
                    verdict.label, verdict.engine, verdict.items, verdict.chunks
                );
                continue;
            }
            if let Some(chunk) = verdict.corrupt_chunk {
                println!(
                    "FAIL {}: trace corruption — chunk {chunk} no longer matches its \
                     recorded content hash",
                    verdict.label
                );
            }
            if let Some(divergence) = &verdict.divergence {
                println!("FAIL {}: {divergence}", verdict.label);
            }
            for (key, value) in &verdict.provenance {
                println!("     recorded {key}: {value}");
            }
        }
    }
    Ok(report.is_clean())
}

/// Exit code of a completed invocation: 0 clean, 3 divergence/corruption
/// (1 = usage and 2 = error are produced in `main`).
fn run(args: &Args) -> Result<ExitCode, String> {
    match args.mode {
        Mode::Run => {
            if args.batch.is_empty() {
                run_single(args)?;
            } else {
                run_batch_mode(args)?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Mode::Record => {
            run_record(args)?;
            Ok(ExitCode::SUCCESS)
        }
        Mode::Verify => {
            if run_verify(args)? {
                Ok(ExitCode::SUCCESS)
            } else {
                Ok(ExitCode::from(3))
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("sesim: {message}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(1);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sesim: error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{deck_stem, expand_pattern, glob_match, unique_names};

    #[test]
    fn glob_matching_covers_star_and_question_mark() {
        assert!(glob_match("*.cir", "set_staircase.cir"));
        assert!(glob_match("set_*.cir", "set_staircase.cir"));
        assert!(!glob_match("set_*.cir", "pulse_train.cir"));
        assert!(glob_match("pulse_trai?.cir", "pulse_train.cir"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*b*c", "a-x-b-y-c"));
        assert!(!glob_match("a*b*c", "a-x-b-y"));
        assert!(!glob_match("?", ""));
        assert!(glob_match("**", "x"));
    }

    #[test]
    fn colliding_deck_stems_get_unique_batch_names() {
        let paths = vec![
            "a/set.cir".to_string(),
            "b/set.cir".into(),
            "c/other.cir".into(),
            "d/set.cir".into(),
        ];
        assert_eq!(unique_names(&paths), vec!["set", "set-2", "other", "set-3"]);
        // A generated suffix must not collide with a literal `-2` stem.
        let tricky = vec!["x-2.cir".to_string(), "a/x.cir".into(), "b/x.cir".into()];
        assert_eq!(unique_names(&tricky), vec!["x-2", "x", "x-3"]);
    }

    #[test]
    fn zero_match_patterns_fail_with_their_argument_position() {
        let dir = std::env::temp_dir().join(format!("sesim-glob-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("one.cir"), "").unwrap();
        let dir_text = dir.to_str().unwrap();

        // A matching wildcard pattern expands.
        let found = expand_pattern(&format!("{dir_text}/*.cir"), 1).unwrap();
        assert_eq!(found, vec![format!("{dir_text}/one.cir")]);

        // A zero-match pattern is a hard error naming its 1-based position
        // and the directory searched — not a silently empty batch.
        let err = expand_pattern(&format!("{dir_text}/*.deck"), 3).unwrap_err();
        assert!(err.contains("#3"), "{err}");
        assert!(err.contains("matched no files"), "{err}");
        assert!(err.contains(dir_text), "{err}");

        // A literal (wildcard-free) pattern must name an existing file.
        let err = expand_pattern(&format!("{dir_text}/absent.cir"), 2).unwrap_err();
        assert!(err.contains("#2"), "{err}");
        assert!(err.contains("not a file"), "{err}");
        let ok = expand_pattern(&format!("{dir_text}/one.cir"), 2).unwrap();
        assert_eq!(ok, vec![format!("{dir_text}/one.cir")]);

        // An unreadable directory also cites the pattern position.
        let err = expand_pattern(&format!("{dir_text}/absent-dir/*.cir"), 4).unwrap_err();
        assert!(err.contains("#4"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deck_stems_strip_directories_and_extensions() {
        assert_eq!(deck_stem("examples/decks/set.cir"), "set");
        assert_eq!(deck_stem("set.cir"), "set");
        assert_eq!(deck_stem("set"), "set");
        assert_eq!(deck_stem(".hidden"), ".hidden");
    }
}
