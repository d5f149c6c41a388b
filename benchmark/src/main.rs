//! The repository's benchmark harness.
//!
//! ```text
//! sprout-benchmark run --root REPO --bin-dir DIR [--workload NAME] [--seed N]
//!                      [--seconds S | --reps K] [--trace 0|1] [--smoke]
//! sprout-benchmark compare FIRST.json SECOND.json [--benchmark-json FILE]
//! ```
//!
//! `run` is what `benchmark/run.sh` ends in. Without `--workload` it runs
//! all six workloads, each untraced (end-to-end metrics) and then traced
//! (per-layer metrics), and writes `benchmark/out/report.json` and
//! `trace.jsonl`. With `--workload NAME --trace T` it runs that one pass
//! and prints the result object as the last line of standard output.
//! README.md describes the metrics, the workloads and how to read the
//! trace.

mod child;
mod compare;
mod json;
mod probes;
mod report;
mod spec;
mod stats;
mod timed;
mod tracer;
mod workloads;
mod yardstick;

use std::path::PathBuf;

const USAGE: &str = "usage:
  sprout-benchmark run --root REPO --bin-dir DIR [--workload NAME] [--seed N] [--seconds S | --reps K] [--trace 0|1] [--smoke]
  sprout-benchmark compare FIRST.json SECOND.json [--benchmark-json FILE]";

fn usage_error(msg: &str) -> ! {
    eprintln!("sprout-benchmark: {msg}\n{USAGE}");
    std::process::exit(2);
}

/// Flags of `run` and `child` (the child gets a few more).
#[derive(Default)]
struct Flags {
    root: Option<PathBuf>,
    bin_dir: Option<PathBuf>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: Option<bool>,
    smoke: bool,
    part: Option<child::Part>,
    dir: Option<PathBuf>,
    result: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || -> &String {
            iter.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} expects a value")))
        };
        match arg.as_str() {
            "--root" => flags.root = Some(value().into()),
            "--bin-dir" => flags.bin_dir = Some(value().into()),
            "--workload" => flags.workload = Some(value().clone()),
            "--seed" => match value().parse() {
                Ok(seed) => flags.seed = Some(seed),
                Err(_) => usage_error("--seed expects a whole number"),
            },
            "--seconds" => match value().parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => flags.seconds = Some(s),
                _ => usage_error("--seconds expects a positive number"),
            },
            "--reps" => match value().parse::<usize>() {
                Ok(k) if k >= 1 => flags.reps = Some(k),
                _ => usage_error("--reps expects a positive whole number"),
            },
            "--trace" => match value().as_str() {
                "0" => flags.trace = Some(false),
                "1" => flags.trace = Some(true),
                _ => usage_error("--trace expects 0 or 1"),
            },
            "--smoke" => flags.smoke = true,
            "--part" => match value().as_str() {
                "primary" => flags.part = Some(child::Part::Primary),
                "secondary" => flags.part = Some(child::Part::Secondary),
                _ => usage_error("--part expects primary or secondary"),
            },
            "--dir" => flags.dir = Some(value().into()),
            "--result" => flags.result = Some(value().into()),
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    flags
}

/// The repository's default master seed doubles as the benchmark's
/// default request seed.
const DEFAULT_SEED: u64 = workloads::DATASET_SEED;
/// Seconds of timed repetitions per pass when neither `--seconds` nor
/// `--reps` is given (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 14.0;

fn required<T>(value: Option<T>, flag: &str) -> T {
    value.unwrap_or_else(|| usage_error(&format!("{flag} is required")))
}

fn read_json(path: &str) -> json::Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("sprout-benchmark: cannot read {path}: {e}");
        std::process::exit(1);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("sprout-benchmark: {path} is not JSON: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage_error("missing subcommand");
    };
    match cmd.as_str() {
        "run" => {
            let flags = parse_flags(rest);
            let opts = report::RunOpts {
                root: required(flags.root, "--root"),
                bin_dir: required(flags.bin_dir, "--bin-dir"),
                workload: flags.workload,
                seed: flags.seed.unwrap_or(DEFAULT_SEED),
                seconds: flags.seconds.unwrap_or(DEFAULT_SECONDS),
                reps: flags.reps,
                trace: flags.trace,
                smoke: flags.smoke,
            };
            std::process::exit(report::run(&opts));
        }
        // Internal: one workload in its own process (see `child.rs`).
        "child" => {
            let flags = parse_flags(rest);
            let root = required(flags.root, "--root");
            let opts = child::ChildOpts {
                workload: required(flags.workload, "--workload"),
                dir: required(flags.dir, "--dir"),
                seconds: flags.seconds.unwrap_or(DEFAULT_SECONDS),
                reps: flags.reps,
                traced: flags.trace.unwrap_or(false),
                part: flags.part.unwrap_or(child::Part::Whole),
                ctx: workloads::Ctx {
                    seed: flags.seed.unwrap_or(DEFAULT_SEED),
                    shrink: if flags.smoke { 6 } else { 1 },
                    pid_dir: root.join("benchmark/out/tmp/pids"),
                    bin_dir: required(flags.bin_dir, "--bin-dir"),
                },
            };
            let result = required(flags.result, "--result");
            let doc = child::run(&opts);
            if let Err(e) = std::fs::write(&result, doc.render()) {
                eprintln!("sprout-benchmark: cannot write {result:?}: {e}");
                std::process::exit(1);
            }
        }
        "compare" => {
            let mut files = Vec::new();
            let mut benchmark_json = None;
            let mut iter = rest.iter();
            while let Some(arg) = iter.next() {
                if arg == "--benchmark-json" {
                    benchmark_json = Some(
                        iter.next()
                            .unwrap_or_else(|| usage_error("--benchmark-json expects a file"))
                            .clone(),
                    );
                } else {
                    files.push(arg.clone());
                }
            }
            let [first, second] = files.as_slice() else {
                usage_error("compare expects two report files");
            };
            let benchmark = read_json(benchmark_json.as_deref().unwrap_or("BENCHMARK.json"));
            let flagged = compare::compare(&read_json(first), &read_json(second), &benchmark);
            println!("{flagged} row(s) worse, unresolved, or simulating something else");
            std::process::exit(i32::from(flagged > 0));
        }
        "--help" | "-h" => println!("{USAGE}"),
        other => usage_error(&format!("unknown subcommand {other:?}")),
    }
}
