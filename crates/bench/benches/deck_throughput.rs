//! Criterion bench of the deck pipeline: the full parse → compile →
//! execute path of the reference staircase deck, plus the compile-only
//! planning cost.
//!
//! Besides the criterion timings it writes `BENCH_deck.json` at the
//! workspace root with the median wall-clock of both paths and the derived
//! decks-per-second rate, so CI can track front-end throughput over time.
//! The record also times the large-deck set-up on generated 32×32 and
//! 48×48 background-charge arrays ([`se_bench::array_deck`]): parse +
//! compile, and the netlist → `TunnelSystem` conversion with its build.

use criterion::{criterion_group, criterion_main, Criterion};
use se_montecarlo::tunnel_system_from_netlist;
use se_netlist::parse_full_deck;
use se_sim::{compile, execute};
use std::time::Instant;

fn staircase_deck() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/decks/set_staircase.cir"
    );
    std::fs::read_to_string(path).expect("reference deck exists")
}

fn median_seconds(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Full pipeline: text in, result table out.
fn run_once(text: &str) -> usize {
    let deck = parse_full_deck(text).expect("deck parses");
    let plan = compile(&deck).expect("deck compiles");
    let results = execute(&deck, &plan).expect("deck runs");
    results[0].len()
}

fn time_runs(text: &str, samples: usize) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            assert_eq!(run_once(text), 51);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median_seconds(times)
}

/// Median `(parse + compile, netlist → TunnelSystem)` seconds of the
/// generated `n`×`n` array deck.
fn array_setup_seconds(n: usize, samples: usize) -> (f64, f64) {
    let text = se_bench::array_deck(n, 1);
    let (front, build): (Vec<f64>, Vec<f64>) = (0..samples)
        .map(|_| {
            let start = Instant::now();
            let deck = parse_full_deck(&text).expect("array deck parses");
            assert_eq!(compile(&deck).expect("array deck compiles").runs.len(), 1);
            let front = start.elapsed().as_secs_f64();
            let start = Instant::now();
            let system = tunnel_system_from_netlist(&deck.netlist).expect("array builds");
            let build = start.elapsed().as_secs_f64();
            assert_eq!(system.island_count(), n * n);
            (front, build)
        })
        .unzip();
    (median_seconds(front), median_seconds(build))
}

fn deck_throughput(c: &mut Criterion) {
    let text = staircase_deck();
    let mut group = c.benchmark_group("deck_throughput");

    group.bench_function("staircase_parse_compile_run", |b| {
        b.iter(|| run_once(&text));
    });
    group.bench_function("staircase_parse_compile_only", |b| {
        b.iter(|| {
            let deck = parse_full_deck(&text).expect("deck parses");
            compile(&deck).expect("deck compiles").runs.len()
        });
    });
    group.finish();

    // Structured record for CI tracking.
    let run_seconds = time_runs(&text, 15);
    let compile_seconds = median_seconds(
        (0..200)
            .map(|_| {
                let start = Instant::now();
                let deck = parse_full_deck(&text).expect("deck parses");
                assert_eq!(compile(&deck).expect("deck compiles").runs.len(), 1);
                start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    let (array32_parse_compile, array32_system) = array_setup_seconds(32, 7);
    let (array48_parse_compile, array48_system) = array_setup_seconds(48, 3);
    let json = format!(
        "{{\n  \"bench\": \"deck_throughput\",\n  \"deck\": \"set_staircase.cir\",\n  \"sweep_points\": 51,\n  \"parse_compile_seconds\": {compile_seconds:.9},\n  \"parse_compile_run_seconds\": {run_seconds:.9},\n  \"decks_per_second\": {:.1},\n  \"plans_per_second\": {:.1},\n  \"array32_parse_compile_seconds\": {array32_parse_compile:.9},\n  \"array32_tunnel_system_seconds\": {array32_system:.9},\n  \"array48_parse_compile_seconds\": {array48_parse_compile:.9},\n  \"array48_tunnel_system_seconds\": {array48_system:.9}\n}}\n",
        1.0 / run_seconds,
        1.0 / compile_seconds,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_deck.json");
    std::fs::write(path, &json).expect("BENCH_deck.json is writable");
    println!("wrote {path}:\n{json}");
}

criterion_group!(benches, deck_throughput);
criterion_main!(benches);
