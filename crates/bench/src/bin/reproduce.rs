//! Regenerate the paper's tables and figures: `reproduce [<experiment>]
//! [flags]`. `reproduce --help` prints every experiment and flag — the
//! text is generated from the experiment table in
//! `sprout_bench::figures` and the flag tables in `sprout_bench::cli`,
//! so it is not repeated here.
//!
//! Every experiment writes TSV artifacts plus a canonical
//! `<matrix>_sweep.json` record of the scenario matrix it ran; with
//! the same seed the JSON is bit-identical for any `--threads` value,
//! identical whether the artifact cache is cold, warm, or disabled, and
//! identical whether the sweep ran in one process or as `--shard` slices
//! merged afterwards.

use std::time::Instant;

use sprout_bench::cli;
use sprout_bench::figures::{Experiment, ExperimentConfig, ALL};
use sprout_bench::{CellCachePolicy, CellFailure, ScenarioMatrix, ShardSpec, SweepError};
use sprout_cache::CacheCounters;

struct Options {
    cmd: String,
    rows: Vec<&'static Experiment>,
    cfg: ExperimentConfig,
    json: bool,
    controlled: bool,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    eprintln!("{}", cli::usage());
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut cfg = ExperimentConfig::default();
    let mut cmd: Option<String> = None;
    let mut json = false;
    let mut merge = false;
    let mut resume = false;
    let mut no_cache = false;
    let mut controlled = false;
    // Worker-safe flags (timing, seeding, axis trims) are collected in
    // argv order and applied by the shared parser in `sprout_bench::cli`
    // — the same code path the control daemon runs at submit time, so a
    // flag vector means the same matrix here and there.
    let mut worker_args: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(arity) = cli::worker_flag_arity(&arg) {
            let flag = arg;
            worker_args.push(flag.clone());
            for _ in 0..arity {
                match args.next() {
                    Some(v) => worker_args.push(v),
                    None => usage_error(&format!("{flag} expects a value")),
                }
            }
            continue;
        }
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => cfg.out_dir = dir.into(),
                None => usage_error("--out expects a directory"),
            },
            "--json" => json = true,
            "--cache-dir" => match args.next() {
                Some(dir) => sprout_cache::set_dir(dir),
                None => usage_error("--cache-dir expects a directory"),
            },
            "--no-cache" => {
                no_cache = true;
                sprout_cache::disable();
            }
            "--shard" => match args.next() {
                Some(spec) => match ShardSpec::parse(&spec) {
                    Some(shard) => cfg.shard = shard,
                    None => usage_error(&format!(
                        "--shard expects I/N with I < N (e.g. 0/2), got {spec:?}"
                    )),
                },
                None => usage_error("--shard expects a spec like 0/2"),
            },
            "--merge" => merge = true,
            "--resume" => resume = true,
            "--controlled" => controlled = true,
            "--help" | "-h" => {
                print!("{}", cli::help());
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                usage_error(&format!("unknown flag {other:?}"));
            }
            other if cmd.is_none() => cmd = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument {other:?}")),
        }
    }
    let cmd = cmd.unwrap_or_else(|| ALL.to_string());
    let rows = cli::apply_worker_args(&mut cfg, &cmd, &worker_args)
        .unwrap_or_else(|msg| usage_error(&msg));
    if merge && resume {
        usage_error("--merge and --resume are mutually exclusive");
    }
    if merge && !cfg.shard.is_full() {
        usage_error("--merge reassembles the whole matrix; drop --shard");
    }
    if no_cache && (merge || resume || !cfg.shard.is_full()) {
        usage_error("--shard/--merge/--resume need the artifact cache; drop --no-cache");
    }
    if json && !cfg.shard.is_full() {
        usage_error("--shard runs write no sweep artifacts; --json has nothing to print");
    }
    cfg.cell_policy = if merge {
        CellCachePolicy::Merge
    } else if resume {
        CellCachePolicy::Resume
    } else {
        CellCachePolicy::Execute
    };
    Options {
        cmd,
        rows,
        cfg,
        json,
        controlled,
    }
}

/// `--controlled`: announce liveness to a supervising `sprout-control`
/// daemon. A detached thread prints one heartbeat line per interval to
/// stdout — explicitly flushed, because a piped stdout is block-buffered
/// and an unflushed heartbeat is indistinguishable from a wedged worker.
/// The line carries the abandoned-thread gauge so the daemon can alarm
/// on a worker whose watchdog is abandoning cells.
fn start_heartbeat() {
    std::thread::spawn(|| {
        use std::io::Write;
        let mut seq: u64 = 0;
        loop {
            {
                let mut out = std::io::stdout().lock();
                let _ = writeln!(
                    out,
                    "CONTROL hb {seq} abandoned={}",
                    sprout_bench::abandoned_cell_threads()
                );
                let _ = out.flush();
            }
            seq += 1;
            std::thread::sleep(std::time::Duration::from_millis(500));
        }
    });
}

/// `--shard I/N`: execute this process's slice of each matrix the
/// experiment declares, depositing finished cells in the shared cell
/// cache. Renders no figures and writes no sweep artifacts — a later
/// `--merge` (or `--resume`) run assembles those from the cache. Stops
/// at the first matrix whose sweep fails and returns that sweep's error.
fn run_shard<'a>(
    cfg: &ExperimentConfig,
    matrices: impl IntoIterator<Item = &'a ScenarioMatrix>,
) -> Result<(), SweepError> {
    let engine = cfg.engine();
    for matrix in matrices {
        let t0 = Instant::now();
        let results = engine.try_run(matrix)?;
        println!(
            "{}: shard {}/{} finished {} of {} cells in {:.0?}",
            matrix.name(),
            cfg.shard.index,
            cfg.shard.count,
            results.len(),
            matrix.len(),
            t0.elapsed()
        );
    }
    Ok(())
}

/// The stable cell-cache summary line (CI greps it to assert a resumed
/// run executed nothing). Names the experiment; single-experiment runs
/// print it once with the process totals, and `all` prints one line per
/// experiment (the delta since `mark`) so the traffic of each sweep is
/// attributable, plus a final `[all]` total. `F failed, T timed out`
/// count the failures of the sweep that ended the run — nonzero only on
/// a `--shard` run, since a failed full run returns before its line.
fn print_cell_cache_line(experiment: &str, failures: &[CellFailure]) {
    print_cell_cache_delta(experiment, CacheCounters::default(), failures);
}

/// Print the cell-cache traffic since `mark` and `failures` under
/// `experiment`'s name and return the current counters (the next
/// experiment's `mark`).
fn print_cell_cache_delta(
    experiment: &str,
    mark: CacheCounters,
    failures: &[CellFailure],
) -> CacheCounters {
    let now = sprout_bench::cell_cache_counters();
    let c = now.since(mark);
    let timed_out = failures.iter().filter(|f| f.timed_out).count();
    let failed = failures.len() - timed_out;
    let (workers, batches) = sprout_bench::last_batch_layout();
    println!(
        "cell cache [{experiment}]: {} hits, {} misses, {} stores, {} quarantined | cells: {failed} failed, {timed_out} timed out | layout: {} workers, {} batches",
        c.hits, c.misses, c.stores, c.quarantined, workers, batches
    );
    now
}

fn main() {
    if let Err(e) = run() {
        // One readable message (merge misses span several lines), not
        // the Debug dump `Termination` would produce.
        eprintln!("reproduce: {e}");
        std::process::exit(1);
    }
}

fn run() -> std::io::Result<()> {
    let Options {
        cmd,
        rows,
        cfg,
        json,
        controlled,
    } = parse_args();
    std::fs::create_dir_all(&cfg.out_dir)?;
    if controlled {
        start_heartbeat();
    }
    let declared: Vec<Vec<ScenarioMatrix>> = rows.iter().map(|row| row.declare(&cfg)).collect();
    if !cfg.shard.is_full() {
        let r = run_shard(&cfg, declared.iter().flatten());
        let failures = match &r {
            Err(SweepError::CellsPanicked { failures, .. }) => &failures[..],
            _ => &[],
        };
        print_cell_cache_line(&cmd, failures);
        return r.map_err(|e| std::io::Error::other(e.to_string()));
    }
    println!(
        "reproduce: {cmd} (runs {}s, warmup {}s, seed {}, threads {}, out {:?})",
        // Exact for `all` too: its members all run at the global length
        // and warm-up.
        rows[0].secs(&cfg),
        rows[0].warmup(&cfg),
        cfg.seed,
        if cfg.threads == 0 {
            "auto".to_string()
        } else {
            cfg.threads.to_string()
        },
        cfg.out_dir
    );

    // find row -> run matrix -> report; `all` is the same loop over its
    // members, each followed by the cache traffic of its sweep.
    let t0 = Instant::now();
    let mut mark = sprout_bench::cell_cache_counters();
    for (row, matrices) in rows.iter().zip(&declared) {
        // Not a held lock: the heartbeat thread writes between lines.
        row.run(&cfg, matrices, &mut std::io::stdout())?;
        if cmd == ALL {
            let names: Vec<&str> = matrices.iter().map(|m| m.name()).collect();
            mark = print_cell_cache_delta(&names.join("+"), mark, &[]);
        }
    }
    if cmd == ALL {
        println!("\nall experiments done in {:.0?}", t0.elapsed());
    }
    print_cell_cache_line(&cmd, &[]);
    if json {
        for matrix in declared.iter().flatten() {
            let path = cfg.sweep_json_path(matrix.name());
            print!("{}", std::fs::read_to_string(path)?);
        }
    }
    Ok(())
}
