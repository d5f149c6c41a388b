//! One workload, one process: set-up, warm-up, timed repetitions and —
//! in a traced run — the traced pass. The harness starts fresh children
//! per workload so process-global memos and counters start empty and
//! `VmHWM` belongs to the workload alone. An untraced pass is two
//! children, one per thread count ([`Part`]).
//!
//! Every set-up and every repetition sits between two yardstick readings
//! (`yardstick.rs`), and the seconds behind the end-to-end metrics are
//! nominal seconds: wall time multiplied by the host's speed meanwhile.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::json::Value;
use crate::spec;
use crate::stats;
use crate::tracer::Tracer;
use crate::workloads::{self, Ctx, Layer, Rep};
use crate::yardstick::{host_speed, Yardstick};

/// Which repetitions a child runs.
///
/// The untraced pass gives each thread count its own process, because
/// they want different allocators. Every cell runs on a fresh watchdog
/// thread, and glibc hands a new thread a new malloc arena whenever the
/// previous thread has not quite gone; what the older arenas still hold
/// then adds to the peak. `baseline-bulk` peaked at 27 MB in twelve passes
/// of twelve on an idle host, at 35-43 MB in every pass beside two busy
/// loops, and at 37 MB in four of ten ordinary passes: the host's
/// scheduling, not the repository's memory. With `MALLOC_ARENA_MAX=1`
/// (set by the harness for [`Part::Primary`]) it is 26 MB in all three
/// cases. But two threads on one arena queue for its lock - `baseline-bulk`
/// at `threads=2` fell from 33 to 6 cells/s - so [`Part::Secondary`] runs
/// with glibc's default, and reads no memory.
#[derive(Clone, Copy, PartialEq)]
pub enum Part {
    /// All but one set-up, the repetitions at the primary thread count,
    /// peak memory.
    Primary,
    /// One set-up, the repetitions at the other thread count.
    Secondary,
    /// Everything in one process: the traced pass, which reports no
    /// memory.
    Whole,
}

/// How a child is asked to run.
pub struct ChildOpts {
    pub workload: String,
    pub ctx: Ctx,
    /// Private directory of this child (does not exist yet).
    pub dir: PathBuf,
    /// Measure repetitions for this long…
    pub seconds: f64,
    /// …or run exactly this many at the primary thread count (and
    /// ⌈0.6·reps⌉ at the other one).
    pub reps: Option<usize>,
    pub traced: bool,
    pub part: Part,
}

/// Repetitions at one thread count, each with the host's speed while it
/// ran.
#[derive(Default)]
struct Series {
    reps: Vec<(Rep, f64)>,
}

impl Series {
    /// Wall seconds as measured.
    fn walls(&self) -> Vec<f64> {
        self.reps.iter().map(|(r, _)| r.wall_s).collect()
    }

    /// Nominal seconds.
    fn nominal_s(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|(r, speed)| r.wall_s * speed)
            .collect()
    }

    /// `amount` per nominal second.
    fn per_second(&self, amount: impl Fn(&Rep) -> f64) -> Vec<f64> {
        self.reps
            .iter()
            .map(|(r, speed)| amount(r) / (r.wall_s * speed))
            .collect()
    }
}

/// The smallest number of repetitions per thread count, and the share
/// of a traced run's time budget the untraced repetitions may use.
const MIN_PRIMARY: usize = 3;
const MIN_SECONDARY: usize = 2;
const TRACED_REP_SHARE: f64 = 0.4;

/// Run the workload and return the child's result document.
pub fn run(opts: &ChildOpts) -> Value {
    let mut workload = workloads::build(&opts.workload, &opts.ctx).expect("a declared workload");
    let smoke = opts.ctx.shrink > 1;
    let mut notes: Vec<String> = Vec::new();

    let mut yard = Yardstick::new();
    yard.reading(); // discarded: faults the yardstick's memory in
    let mut host_speeds: Vec<f64> = Vec::new();

    let primary_threads = workload.primary_threads();
    let secondary_threads = workload.secondary_threads();

    // Set-up, timed, each time against a directory that does not exist.
    // The two children of an untraced pass share the set-ups between them.
    let setups = match (opts.part, secondary_threads) {
        _ if smoke => 1,
        (Part::Secondary, _) => 1,
        (Part::Primary, Some(_)) => workload.setups() - 1,
        (Part::Primary, None) | (Part::Whole, _) => workload.setups(),
    };
    let mut before = yard.reading();
    let setup_s: Vec<f64> = (0..setups)
        .map(|i| {
            let t0 = Instant::now();
            workload.setup(&opts.dir.join(format!("setup-{i}")));
            let wall_s = t0.elapsed().as_secs_f64();
            let after = yard.reading();
            let speed = host_speed(before, after);
            before = after;
            host_speeds.push(speed);
            wall_s * speed
        })
        .collect();

    // One discarded warm-up repetition; its output is the reference
    // every later repetition must reproduce.
    let warmup = workload.rep(match (opts.part, secondary_threads) {
        (Part::Secondary, Some(threads)) => threads,
        _ => primary_threads,
    });
    let reference = warmup.fingerprint;

    let (min_primary, min_secondary) = match (opts.reps, smoke) {
        (Some(k), _) => (k, (k * 3).div_ceil(5)),
        (None, true) => (1, 1),
        (None, false) => (MIN_PRIMARY, MIN_SECONDARY),
    };
    let budget_s = match (opts.reps, smoke) {
        (Some(_), _) | (None, true) => 0.0,
        (None, false) if opts.traced => opts.seconds * TRACED_REP_SHARE,
        (None, false) => opts.seconds,
    };
    // Three fifths of the budget at the primary thread count, the rest at
    // the other one, if the workload has one. Peak memory is read after
    // the former, so it does not depend on which cells two threads happen
    // to overlap.
    let mut primary = Series::default();
    let mut secondary = Series::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut peak_rss_kb = 0;
    let mut phases = match secondary_threads {
        Some(threads) => vec![
            (&mut primary, primary_threads, min_primary, 0.6),
            (&mut secondary, threads, min_secondary, 0.4),
        ],
        None => vec![(&mut primary, primary_threads, min_primary, 1.0)],
    };
    match opts.part {
        Part::Primary => phases.truncate(1),
        Part::Secondary => drop(phases.remove(0)),
        Part::Whole => {}
    }
    for (series, threads, min_reps, share) in phases {
        let t0 = Instant::now();
        let mut before = yard.reading();
        loop {
            let mut rep = workload.rep(threads);
            let after = yard.reading();
            let speed = host_speed(before, after);
            before = after;
            host_speeds.push(speed);
            if rep.fingerprint != reference {
                notes.push(format!(
                    "repetition at threads={threads} produced other bytes than the first ({:016x} vs {reference:016x})",
                    rep.fingerprint
                ));
                rep.failed = rep.attempted;
            }
            attempted += rep.attempted;
            failed += rep.failed;
            let (last_s, broken) = (rep.wall_s, rep.failed == rep.attempted);
            series.reps.push((rep, speed));
            // Stop where one more repetition would overshoot the budget
            // by more than stopping now undershoots it — or at once when
            // nothing works (a dead daemon fails in microseconds; do not
            // spin on it for the whole budget).
            let spent_s = t0.elapsed().as_secs_f64();
            if series.reps.len() >= min_reps
                && (broken || spent_s + last_s / 2.0 >= budget_s * share)
            {
                break;
            }
        }
        if threads == primary_threads {
            peak_rss_kb = workload.peak_rss_kb();
        }
    }

    // A workload with one thread count reports it under both names.
    let (one, two) = match (secondary_threads, primary_threads) {
        (None, _) => (&primary, &primary),
        (Some(_), 1) => (&primary, &secondary),
        (Some(_), _) => (&secondary, &primary),
    };
    let mut samples: Vec<(&'static str, Vec<f64>)> = vec![
        ("setup_s", setup_s),
        ("cells_per_sec", one.per_second(|r| r.cells as f64)),
        ("cells_per_sec_2t", two.per_second(|r| r.cells as f64)),
        (
            "sessions_per_sec",
            primary.per_second(|r| r.session_virtual_s),
        ),
        ("submit_to_merged_s", primary.nominal_s()),
    ];

    let mut layer = Layer::new();
    let mut spans = String::new();
    if opts.traced {
        let mut tracer = Tracer::default();
        let untraced_s = stats::median(&primary.walls());
        let pass = catch_unwind(AssertUnwindSafe(|| {
            workload.traced(&mut tracer, untraced_s, &mut layer)
        }));
        if let Err(panic) = pass {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            notes.push(format!("traced pass failed: {why}"));
            failed += 1;
            attempted += 1;
        }
        let scaling = stats::median(&two.per_second(|r| r.cells as f64))
            / stats::median(&one.per_second(|r| r.cells as f64));
        layer.insert("bench.scaling_2t", scaling);
        spans = tracer.to_jsonl(&opts.workload);
    }
    if opts.part == Part::Primary {
        samples.push(("peak_rss_mb", vec![peak_rss_kb as f64 / 1024.0]));
    }
    // What this part did not run it does not report.
    samples.retain(|(_, values)| !values.is_empty());
    workload.teardown();

    Value::object([
        ("workload", Value::from(opts.workload.as_str())),
        ("seed", Value::from(opts.ctx.seed)),
        ("traced", Value::from(opts.traced)),
        ("operation", Value::from(workload.operation())),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("sim_fingerprint", Value::from(format!("{reference:016x}"))),
        ("reps_1t", Value::from(one.reps.len() as u64)),
        ("reps_2t", Value::from(two.reps.len() as u64)),
        ("has_secondary", Value::from(secondary_threads.is_some())),
        (
            "host_speed",
            Value::Arr(host_speeds.into_iter().map(Value::from).collect()),
        ),
        (
            "samples",
            Value::object(samples.into_iter().map(|(name, values)| {
                (
                    name,
                    Value::Arr(values.into_iter().map(Value::from).collect()),
                )
            })),
        ),
        (
            "layer",
            Value::object(spec::PER_LAYER.iter().map(|def| {
                (
                    def.name,
                    Value::from(layer.get(def.name).copied().unwrap_or(0.0)),
                )
            })),
        ),
        (
            "notes",
            Value::Arr(notes.into_iter().map(Value::from).collect()),
        ),
        ("spans", Value::from(spans)),
    ])
}
