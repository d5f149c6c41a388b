//! The shared command-line vocabulary of the reproduction harness.
//!
//! Both the `reproduce` binary and the `sprout-control` daemon speak
//! the same experiment names and axis flags: `reproduce` parses them
//! from its own argv, while the daemon receives them as an opaque
//! argument vector attached to a submitted sweep, validates them at
//! submit time (rejecting a bad sweep *before* any worker is spawned),
//! and forwards them verbatim to every worker and to the final merge
//! run. Keeping one parser here is what makes the daemon's determinism
//! contract cheap to state: a worker and the merge see byte-identical
//! axis flags, so they build byte-identical scenario matrices.

use std::fmt::Write as _;

use crate::figures::{select, Experiment, ExperimentConfig, ALL, EXPERIMENTS};
use crate::scenario::{
    FlowSpec, LinkSpec, QueueSpec, MAX_CONTENTION_FLOWS, MAX_SERVE_SESSIONS, PROP_DELAY_MS,
};
use crate::schemes::Scheme;
use sprout_trace::{Duration, Impairment, NetProfile};

/// One command-line flag.
pub struct Flag {
    /// The flag as typed (`--links`).
    pub name: &'static str,
    /// Placeholder of the one value it consumes; empty for a bare flag.
    pub value: &'static str,
    /// One line of help. For an [`AXIS_FLAGS`] entry it completes
    /// "`<flag>` expects …", so help and parse error are one text.
    pub help: &'static str,
}

const fn flag(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag { name, value, help }
}

/// The longest run `--secs` (and so `--warmup`) accepts, in virtual
/// seconds. Run lengths become microsecond [`sprout_trace::Duration`]s by
/// an unchecked multiply, after Figure 2 has scaled its probe by ten, so
/// the bound is what keeps `secs × 10 × 10⁶` inside a `u64` — set far
/// below that, at a hundred times the paper's longest run, because a run
/// also has to finish.
pub const MAX_RUN_SECS: u64 = 100_000;

/// The worker-safe flags every experiment takes.
#[rustfmt::skip]
pub const GLOBAL_FLAGS: &[Flag] = &[
    flag("--secs", "N", "virtual seconds per run, 1..=100000 (default 300)"),
    flag("--warmup", "N", "warm-up seconds skipped before measurement, 0..=100000 (default 60)"),
    flag("--seed", "N", "master seed of all randomness (default 20130401)"),
    flag("--threads", "N", "sweep worker threads (default: one per core)"),
    flag("--quick", "", "--secs 90 --warmup 20, where those are not given"),
    flag("--cell-timeout", "SECS", "per-cell watchdog, wall seconds (default 600)"),
];

/// The worker-safe flags that trim or replace one axis of a matrix. An
/// experiment accepts exactly those its [`Experiment::flags`] lists.
#[rustfmt::skip]
pub const AXIS_FLAGS: &[Flag] = &[
    flag("--links", "LIST", "comma-separated distinct link ids, e.g. vz-lte-down,tmo-3g-up"),
    flag("--prop-delays", "LIST", "comma-separated distinct one-way delays in ms, each 1..=10000"),
    flag("--queues", "LIST", "comma-separated distinct auto|droptail|codel|bytes:N"),
    flag("--flows", "N", "a flow count in 2..=16 for the default workloads"),
    flag("--contend", "LIST", "2..=16 comma-separated flows replacing the default workloads: \
        scheme tags (never omniscient) or app flows like skype-over-sprout"),
    flag("--impairments", "LIST", "comma-separated distinct presets of \
        none,burst,outage,flap,jitter,reorder,storm"),
    flag("--sessions", "LIST", "comma-separated distinct session counts, each 1..=4096"),
    flag("--trace", "FILE", "a Saturator capture; repeatable (replaces the default corpus)"),
    flag("--schemes", "LIST", "comma-separated distinct scheme tags, e.g. sprout,cubic,skype"),
    flag("--timeseries", "", "per-cell delay and series TSVs by the sweep JSON; new cell identity"),
];

/// The `reproduce` flags the control daemon reserves for itself when it
/// assembles a worker command line. A submitted sweep naming one of
/// these is rejected at submit time: the daemon owns sharding, cache
/// placement, artifact output, and the worker handshake.
#[rustfmt::skip]
pub const RESERVED_FLAGS: &[Flag] = &[
    flag("--shard", "I/N", "run only cells with id % N == I into the cell cache; renders nothing"),
    flag("--merge", "", "render from the cell cache alone; an absent cell is a named error"),
    flag("--resume", "", "like --merge, but execute whatever the cache is missing"),
    flag("--out", "DIR", "artifact directory (default results/)"),
    flag("--cache-dir", "DIR", "artifact cache (default .sprout-cache or $SPROUT_CACHE_DIR)"),
    flag("--no-cache", "", "disable the artifact cache for this run"),
    flag("--json", "", "after running, print the sweep JSON artifact(s) to stdout"),
    flag("--controlled", "", "print `CONTROL hb <seq> abandoned=<n>` every 500 ms (the daemon's probe)"),
];

/// How many values a worker-safe flag consumes: `Some(0)` for bare
/// flags, `Some(1)` for flags taking one value, `None` for flags this
/// module does not apply (the [`RESERVED_FLAGS`]).
pub fn worker_flag_arity(flag: &str) -> Option<usize> {
    let mut known = GLOBAL_FLAGS.iter().chain(AXIS_FLAGS);
    let found = known.find(|f| f.name == flag)?;
    Some(usize::from(!found.value.is_empty()))
}

/// The rows of the experiment table that accept axis flag `flag`.
fn accepting(flag: &str) -> Vec<&'static str> {
    let rows = EXPERIMENTS.iter().filter(|e| e.flags.contains(&flag));
    rows.map(|e| e.name).collect()
}

/// The synopsis printed with every usage error.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: reproduce [<experiment>] [flags]   (`reproduce --help` lists the flags)\nexperiments: {} {ALL} (the default)",
        names.join(" ")
    )
}

/// The `reproduce --help` text, rendered from the experiment table and
/// the three flag tables.
pub fn help() -> String {
    let defaults = ExperimentConfig::default();
    let mut out = format!("{}\n\nexperiments:\n", usage());
    for e in &EXPERIMENTS {
        let _ = write!(out, "  {:11} {}", e.name, e.help);
        if e.secs(&defaults) != defaults.run_secs {
            let _ = write!(out, " (default --secs {})", e.secs(&defaults));
        }
        out.push('\n');
    }
    let members: Vec<&str> = EXPERIMENTS
        .iter()
        .filter(|e| e.in_all)
        .map(|e| e.name)
        .collect();
    let _ = writeln!(out, "  {ALL:11} {}", members.join(", "));
    let mut section = |title: &str, flags: &[Flag]| {
        let _ = writeln!(out, "\n{title}:");
        for f in flags {
            let typed = format!("{} {}", f.name, f.value);
            let _ = write!(out, "  {typed:20} ");
            // Only an axis flag has rows that list it.
            let takers = accepting(f.name);
            if !takers.is_empty() {
                let _ = write!(out, "[{}] ", takers.join(", "));
            }
            let _ = writeln!(out, "{}", f.help);
        }
    };
    section("flags", GLOBAL_FLAGS);
    section(
        "flags of one process (sprout-control reserves them)",
        RESERVED_FLAGS,
    );
    section("axis flags [the experiments that take them]", AXIS_FLAGS);
    out
}

/// `Some(values)` only when every value is distinct: a duplicated axis
/// value would cross into duplicate cells with identical labels, each
/// simulated and cached separately.
pub fn all_distinct<T: PartialEq>(values: Vec<T>) -> Option<Vec<T>> {
    let distinct = values
        .iter()
        .enumerate()
        .all(|(i, v)| !values[..i].contains(v));
    distinct.then_some(values)
}

/// Parse `--links`: a comma-separated list of distinct link ids.
pub fn parse_links(spec: &str) -> Option<Vec<NetProfile>> {
    spec.split(',')
        .map(|part| NetProfile::all().into_iter().find(|p| p.id() == part))
        .collect::<Option<Vec<_>>>()
        .and_then(all_distinct)
}

/// Parse `--prop-delays`: comma-separated distinct one-way delays in
/// whole ms, each in [`PROP_DELAY_MS`].
pub fn parse_prop_delays(spec: &str) -> Option<Vec<u64>> {
    spec.split(',')
        .map(|part| match part.parse::<u64>() {
            Ok(ms) if PROP_DELAY_MS.contains(&ms) => Some(ms),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()
        .and_then(all_distinct)
}

/// Parse `--queues`: comma-separated distinct specs from `auto`,
/// `droptail`, `codel`, or `bytes:N` (a DropTail byte cap, N ≥ 1).
pub fn parse_queues(spec: &str) -> Option<Vec<QueueSpec>> {
    spec.split(',')
        .map(|part| match part {
            "auto" => Some(QueueSpec::Auto),
            "droptail" => Some(QueueSpec::DropTail),
            "codel" => Some(QueueSpec::CoDel),
            _ => match part.strip_prefix("bytes:")?.parse::<u64>() {
                Ok(cap) if cap >= 1 => Some(QueueSpec::DropTailBytes(cap)),
                _ => None,
            },
        })
        .collect::<Option<Vec<_>>>()
        .and_then(all_distinct)
}

/// Parse one `--contend` entry: a scheme tag (`cubic`, `sprout-ewma`,
/// `skype`, …; never `omniscient`) or a tunneled app flow in the
/// `app-over-carrier` form (`skype-over-sprout`).
pub fn parse_flow_spec(part: &str) -> Option<FlowSpec> {
    if let Some((app_tag, carrier_tag)) = part.split_once("-over-") {
        let app = sprout_baselines::VideoApp::all()
            .into_iter()
            .find(|a| a.id() == app_tag)?;
        let over = Scheme::from_tag(carrier_tag)?;
        over.tunnels_apps().then_some(FlowSpec::App { app, over })
    } else {
        let scheme = Scheme::from_tag(part)?;
        (scheme != Scheme::Omniscient).then_some(FlowSpec::Scheme(scheme))
    }
}

/// Parse `--contend`: 2..=[`MAX_CONTENTION_FLOWS`] comma-separated flow
/// specs (duplicates are the point — `cubic,cubic,cubic` is a
/// homogeneous contention cell).
pub fn parse_contend(spec: &str) -> Option<Vec<FlowSpec>> {
    let flows = spec
        .split(',')
        .map(parse_flow_spec)
        .collect::<Option<Vec<_>>>()?;
    (2..=MAX_CONTENTION_FLOWS)
        .contains(&flows.len())
        .then_some(flows)
}

/// Parse `--impairments`: comma-separated distinct preset names from
/// [`sprout_trace::IMPAIRMENT_PRESETS`], kept as `(name, spec)` pairs so artifacts can
/// report the human-readable preset name alongside the canonical id.
pub fn parse_impairments(spec: &str) -> Option<Vec<(String, Impairment)>> {
    spec.split(',')
        .map(|part| Impairment::preset(part).map(|imp| (part.to_string(), imp)))
        .collect::<Option<Vec<_>>>()
        .and_then(all_distinct)
}

/// Parse `--schemes`: comma-separated distinct scheme tags (the replay
/// roster).
pub fn parse_schemes(spec: &str) -> Option<Vec<Scheme>> {
    spec.split(',')
        .map(Scheme::from_tag)
        .collect::<Option<Vec<_>>>()
        .and_then(all_distinct)
}

/// Parse `--sessions`: comma-separated distinct session counts, each in
/// 1..=[`MAX_SERVE_SESSIONS`].
pub fn parse_sessions(spec: &str) -> Option<Vec<u32>> {
    spec.split(',')
        .map(|part| match part.parse::<u32>() {
            Ok(n) if (1..=MAX_SERVE_SESSIONS).contains(&n) => Some(n),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()
        .and_then(all_distinct)
}

/// Apply the worker-safe flags in `args` to `cfg` and return the rows of
/// the experiment table `experiment` selects. The validation is the
/// table's: an axis flag must be one every selected row accepts,
/// `--quick` fills only what `--secs`/`--warmup` left unset, an explicit
/// run length hands soak/serve/replay timing back to the global knobs,
/// and the warmup must leave each row a non-empty measurement window.
/// Returns a one-line usage message on the first violation. `--trace`
/// registers each capture as it parses, so a malformed file is reported
/// to its submitter here — before any worker is spawned.
///
/// Only flags [`worker_flag_arity`] recognizes are accepted; anything
/// else (including every [`RESERVED_FLAGS`] entry) is an error, which is
/// exactly the submit-time screen the control daemon needs.
pub fn apply_worker_args(
    cfg: &mut ExperimentConfig,
    experiment: &str,
    args: &[String],
) -> Result<Vec<&'static Experiment>, String> {
    let rows = select(experiment).ok_or_else(|| format!("unknown experiment {experiment:?}"))?;
    let mut quick = false;
    let mut explicit_secs = false;
    let mut explicit_warmup = false;
    let mut explicit_flows = false;
    let mut traces: Vec<u64> = Vec::new();
    type Args<'a> = std::slice::Iter<'a, String>;
    fn value<'a>(iter: &mut Args<'a>, name: &str) -> Result<&'a str, String> {
        iter.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{name} expects a value"))
    }
    fn numeric(iter: &mut Args<'_>, name: &str) -> Result<u64, String> {
        value(iter, name)?
            .parse()
            .map_err(|_| format!("{name} expects a number"))
    }
    /// A run length in `min..=`[`MAX_RUN_SECS`].
    fn run_secs(iter: &mut Args<'_>, name: &str, min: u64) -> Result<u64, String> {
        match numeric(iter, name)? {
            secs if (min..=MAX_RUN_SECS).contains(&secs) => Ok(secs),
            _ => Err(format!("{name} expects a number in {min}..={MAX_RUN_SECS}")),
        }
    }
    /// The parsed value of an axis flag; its help line is the error.
    fn axis<T>(
        iter: &mut Args<'_>,
        flag: &Flag,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        parse(value(iter, flag.name)?).ok_or_else(|| format!("{} expects {}", flag.name, flag.help))
    }
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let name = arg.as_str();
        if let Some(flag) = AXIS_FLAGS.iter().find(|f| f.name == name) {
            if !rows.iter().all(|row| row.flags.contains(&name)) {
                return Err(format!(
                    "{name} is an axis of {} only; {experiment} does not take it",
                    accepting(name).join(", ")
                ));
            }
            match name {
                "--links" => {
                    let links = axis(&mut iter, flag, parse_links)?;
                    cfg.soak.links = links.clone();
                    cfg.contention.links = links.clone();
                    cfg.impair.links = links.clone();
                    cfg.serve.links = links;
                }
                "--prop-delays" => {
                    cfg.soak.prop_delays_ms = axis(&mut iter, flag, parse_prop_delays)?
                }
                "--queues" => cfg.soak.queues = axis(&mut iter, flag, parse_queues)?,
                "--flows" => {
                    cfg.contention.flows = axis(&mut iter, flag, |v| {
                        let n = v.parse().ok()?;
                        (2..=MAX_CONTENTION_FLOWS).contains(&n).then_some(n)
                    })?;
                    explicit_flows = true;
                }
                "--contend" => {
                    cfg.contention.contenders = Some(axis(&mut iter, flag, parse_contend)?)
                }
                "--impairments" => {
                    cfg.impair.impairments = axis(&mut iter, flag, parse_impairments)?
                }
                "--sessions" => cfg.serve.sessions = axis(&mut iter, flag, parse_sessions)?,
                "--trace" => {
                    let path = value(&mut iter, name)?;
                    // Registration validates the capture (a malformed file is
                    // reported here, at submit/parse time) and is what makes
                    // the fingerprint resolvable in *this* process.
                    match sprout_trace::register_trace_file(path) {
                        Ok(fp) => traces.push(fp),
                        Err(e) => return Err(format!("--trace {path}: {e}")),
                    }
                }
                "--schemes" => cfg.replay.schemes = axis(&mut iter, flag, parse_schemes)?,
                "--timeseries" => cfg.timeseries = true,
                other => unreachable!("axis flag {other} has no parser"),
            }
            continue;
        }
        match name {
            "--secs" => {
                cfg.run_secs = run_secs(&mut iter, name, 1)?;
                explicit_secs = true;
            }
            "--warmup" => {
                cfg.warmup_secs = run_secs(&mut iter, name, 0)?;
                explicit_warmup = true;
            }
            "--seed" => cfg.seed = numeric(&mut iter, name)?,
            "--threads" => cfg.threads = numeric(&mut iter, name)? as usize,
            "--quick" => quick = true,
            "--cell-timeout" => {
                cfg.cell_timeout_secs = numeric(&mut iter, name)?;
                if cfg.cell_timeout_secs == 0 {
                    return Err("--cell-timeout expects a positive number of seconds".to_string());
                }
            }
            other => return Err(format!("unknown worker flag {other:?}")),
        }
    }
    if !traces.is_empty() {
        // Duplicate captures (same bytes under any path) would cross into
        // duplicate cells with identical labels and cache keys.
        cfg.replay.traces = all_distinct(traces).ok_or(
            "--trace captures must be distinct (two of the given files have identical bytes)",
        )?;
    }
    // --quick fills in whatever the user did not set explicitly, so
    // `--warmup 100 --quick` is the contradiction it looks like (and is
    // rejected below) rather than being silently clobbered to 20 s.
    if quick {
        if !explicit_secs {
            cfg.run_secs = 90;
        }
        if !explicit_warmup {
            cfg.warmup_secs = 20;
        }
    }
    if explicit_flows && cfg.contention.contenders.is_some() {
        return Err(
            "--flows sizes the default contention workloads and --contend replaces them; pick one"
                .to_string(),
        );
    }
    // The experiments with their own default run length keep it on their
    // axes struct (so the library builds the identical matrix); an
    // explicit --secs or --quick hands timing back to the global knobs.
    if explicit_secs || quick {
        cfg.soak.secs = None;
        cfg.serve.secs = None;
        cfg.replay.secs = None;
    }
    // Validate against the run length each row will actually use. A row
    // that derives its warmup from the run length can never have an
    // empty window.
    for row in rows.iter().filter(|row| !row.own_warmup) {
        if cfg.warmup_secs >= row.secs(cfg) {
            return Err(format!(
                "warmup ({}s) must be shorter than the run ({}s): the measurement window would be empty",
                cfg.warmup_secs,
                row.secs(cfg)
            ));
        }
    }
    // A replay past the end of its capture would simulate a dead link and
    // report the silence as a result: the shortest capture must cover the
    // run.
    for row in rows.iter().filter(|row| row.flags.contains(&"--trace")) {
        let secs = row.secs(cfg);
        let ends = cfg.replay.traces.iter();
        let ends = ends.filter_map(|&fp| Some((sprout_trace::lookup_trace(fp)?.duration(), fp)));
        if let Some((end, fingerprint)) = ends.min() {
            if Duration::from_secs(secs) > end {
                return Err(format!(
                    "{} runs {secs}s, but capture {} ends at {:.3}s: a replay cannot run \
                     past its capture's last delivery opportunity",
                    row.name,
                    LinkSpec::Measured { fingerprint }.id(),
                    end.as_secs_f64()
                ));
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(experiment: &str, args: &[&str]) -> Result<ExperimentConfig, String> {
        let mut cfg = ExperimentConfig::default();
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        apply_worker_args(&mut cfg, experiment, &args).map(|_| cfg)
    }

    /// The run length `experiment`'s one row uses under `cfg`.
    fn effective_secs(cfg: &ExperimentConfig, experiment: &str) -> u64 {
        select(experiment).expect("a table row")[0].secs(cfg)
    }

    #[test]
    fn a_replay_never_runs_past_its_shortest_capture() {
        // The default corpus ends at 39.975 s (downlink) and 39.8 s
        // (uplink): past that, a cell would replay a dead link.
        for args in [&["--secs", "41"][..], &["--secs", "40"], &["--quick"]] {
            let err = apply("replay", args).expect_err("past the uplink excerpt");
            assert!(err.contains("ends at 39.800s"), "{args:?}: {err}");
            assert!(err.contains(" m"), "names the capture's id: {err}");
        }
        for args in [&["--secs", "39"][..], &[]] {
            let cfg = apply("replay", args).expect("inside every capture");
            assert!(effective_secs(&cfg, "replay") <= 39, "{args:?}");
        }
    }

    #[test]
    fn the_cli_and_the_matrix_builder_refuse_the_same_prop_delays() {
        use crate::scenario::ScenarioMatrix;
        let builds = |ms: u64| {
            std::panic::catch_unwind(|| ScenarioMatrix::builder("d").prop_delays_ms([ms])).is_ok()
        };
        let (lo, hi) = (*PROP_DELAY_MS.start(), *PROP_DELAY_MS.end());
        for ms in [0, lo, 20, hi, hi + 1, u64::MAX / 1_000] {
            let parsed = parse_prop_delays(&ms.to_string()).is_some();
            assert_eq!(parsed, PROP_DELAY_MS.contains(&ms), "--prop-delays {ms}");
            assert_eq!(builds(ms), parsed, "prop_delays_ms([{ms}])");
        }
        assert_eq!((lo, hi), (1, 10_000));
    }

    #[test]
    fn the_experiment_table_and_the_flag_tables_agree() {
        let cfg = ExperimentConfig::default();
        for (i, row) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|e| e.name != row.name) && row.name != ALL,
                "row name {:?} is taken",
                row.name
            );
            // A row names only axis flags, and only ones the parser knows.
            for name in row.flags {
                assert!(AXIS_FLAGS.iter().any(|f| f.name == *name), "{name}");
                assert!(worker_flag_arity(name).is_some(), "{name}");
            }
            assert_eq!(select(row.name).unwrap().len(), 1);
        }
        // Every axis flag the parser knows has a row that takes it; the
        // global flags are nobody's axis.
        for f in AXIS_FLAGS {
            let takers = accepting(f.name);
            assert!(!takers.is_empty(), "{} has no experiment", f.name);
            // ...and a parser: given alone it is applied or refused for
            // its missing value, never a panic.
            let alone = apply(takers[0], &[f.name]);
            assert_eq!(alone.is_ok(), f.value.is_empty(), "{}", f.name);
        }
        for f in GLOBAL_FLAGS {
            assert!(accepting(f.name).is_empty() && worker_flag_arity(f.name).is_some());
        }
        for f in RESERVED_FLAGS {
            assert_eq!(worker_flag_arity(f.name), None, "{}", f.name);
        }

        // `all` is today's six sweeps in today's order, each executed
        // once; its members take no axis flag and no timing of their own.
        let all = select(ALL).unwrap();
        let sweeps: Vec<String> = all
            .iter()
            .flat_map(|e| e.declare(&cfg))
            .map(|m| m.name().to_string())
            .collect();
        assert_eq!(sweeps, ["fig1", "fig2", "fig7", "fig9", "loss", "tunnel"]);
        assert!(all
            .iter()
            .all(|e| e.flags.is_empty() && e.own_secs.is_none()));
        // fig8 is a second report over the fig7 sweep, not a second sweep.
        let sweep_of = |name: &str| select(name).unwrap()[0].declare(&cfg)[0].fingerprint();
        assert_eq!(sweep_of("fig7"), sweep_of("fig8"));
        assert!(select("fig99").is_none() && select("").is_none());
    }

    #[test]
    fn help_is_rendered_from_the_tables() {
        let help = help();
        for row in &EXPERIMENTS {
            assert!(help.contains(&format!("  {:11} {}", row.name, row.help)));
        }
        let flags = GLOBAL_FLAGS.iter().chain(AXIS_FLAGS).chain(RESERVED_FLAGS);
        for f in flags {
            assert!(help.contains(&format!("  {} ", f.name)), "{}", f.name);
        }
        assert!(
            help.contains("[contention, soak, impair, serve] comma-separated distinct link ids")
        );
        assert!(help.contains("(default --secs 1020)") && help.contains("(default --secs 30)"));
        // The ranges the help promises are the ones the parsers enforce.
        let promised = |flag: &str, bound: String| {
            let f = AXIS_FLAGS.iter().find(|f| f.name == flag).unwrap();
            assert!(f.help.contains(&bound), "{flag}: {}", f.help);
        };
        promised("--flows", format!("2..={MAX_CONTENTION_FLOWS}"));
        promised("--contend", format!("2..={MAX_CONTENTION_FLOWS}"));
        promised("--sessions", format!("1..={MAX_SERVE_SESSIONS}"));
        promised("--impairments", sprout_trace::IMPAIRMENT_PRESETS.join(","));
    }

    #[test]
    fn worker_args_apply_and_validate() {
        let cfg = apply("soak", &["--secs", "40", "--warmup", "8"]).unwrap();
        assert_eq!((cfg.run_secs, cfg.warmup_secs), (40, 8));
        // Explicit --secs hands soak timing back to the global knob.
        assert_eq!(cfg.soak.secs, None);

        let cfg = apply("fig1", &["--quick", "--seed", "7"]).unwrap();
        assert_eq!((cfg.run_secs, cfg.warmup_secs, cfg.seed), (90, 20, 7));

        // The validation matrix carries over from the binary.
        assert!(apply("fig1", &["--links", "vz-lte-down"]).is_err());
        assert!(apply("soak", &["--secs", "30", "--warmup", "30"]).is_err());
        assert!(apply("contention", &["--flows", "1"]).is_err());
        assert!(apply("soak", &["--queues", "bogus"]).is_err());
        assert!(apply("nope", &[]).is_err());

        // Reserved control-plane flags are not worker flags.
        for flag in RESERVED_FLAGS {
            assert!(
                apply("soak", &[flag.name]).is_err(),
                "{} must be rejected as a worker flag",
                flag.name
            );
        }
        // The retired `--bench` is no longer reserved, only unknown: a
        // `sprout-control submit … -- --bench` is still refused at
        // submit time.
        assert!(RESERVED_FLAGS.iter().all(|f| f.name != "--bench"));
        assert_eq!(worker_flag_arity("--bench"), None);
        let err = apply("soak", &["--bench"]).unwrap_err();
        assert!(err.contains("unknown worker flag"), "{err}");
    }

    #[test]
    fn run_lengths_are_bounded_so_microseconds_cannot_wrap() {
        let max = MAX_RUN_SECS.to_string();
        let past = (MAX_RUN_SECS + 1).to_string();
        let huge = u64::MAX.to_string();
        // The vector that used to wrap to a 0.45 s sweep: 2⁶⁴ / 10⁶ + 1.
        let wrapping = "18446744073710";
        let cfg = apply("fig9", &["--secs", &max, "--warmup", "0"]).unwrap();
        assert_eq!((cfg.run_secs, cfg.warmup_secs), (MAX_RUN_SECS, 0));
        // At the bound, the longest duration any matrix derives (Figure
        // 2's tenfold probe) is exact.
        let probe = &select("fig2").unwrap()[0];
        let longest = probe.declare(&cfg)[0].cells()[0].duration;
        assert_eq!(longest.as_micros(), MAX_RUN_SECS * 10 * 1_000_000);
        for flag in ["--secs", "--warmup"] {
            for bad in [past.as_str(), wrapping, huge.as_str()] {
                for experiment in ["fig9", "fig2", "soak", "serve", ALL] {
                    let err = apply(experiment, &[flag, bad]).unwrap_err();
                    assert!(err.contains(flag) && err.contains(&max), "{err}");
                }
            }
        }
        assert!(apply("serve", &["--secs", "0"]).is_err());
        // The range the help promises is the one enforced.
        for (name, range) in [
            ("--secs", format!("1..={max}")),
            ("--warmup", format!("0..={max}")),
        ] {
            let f = GLOBAL_FLAGS.iter().find(|f| f.name == name).unwrap();
            assert!(f.help.contains(&range), "{name}: {}", f.help);
        }
    }

    #[test]
    fn arity_covers_every_worker_flag() {
        assert_eq!(worker_flag_arity("--quick"), Some(0));
        assert_eq!(worker_flag_arity("--timeseries"), Some(0));
        assert_eq!(worker_flag_arity("--links"), Some(1));
        assert_eq!(worker_flag_arity("--trace"), Some(1));
        assert_eq!(worker_flag_arity("--schemes"), Some(1));
        assert_eq!(worker_flag_arity("--out"), None);
        assert_eq!(worker_flag_arity("--shard"), None);
    }

    fn corpus(file: &str) -> String {
        format!("{}/../trace/tests/data/{file}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn replay_flags_apply_and_validate() {
        // Defaults: the embedded corpus, the fig-7 roster, short timing.
        let dflt = apply("replay", &[]).unwrap();
        assert_eq!(
            dflt.replay.traces,
            crate::figures::default_corpus_fingerprints()
        );
        assert_eq!(dflt.replay.schemes, Scheme::fig7().to_vec());
        assert_eq!(dflt.replay.secs, Some(crate::figures::REPLAY_SECS));
        assert!(!dflt.timeseries);

        // --trace replaces the default corpus; the fingerprint comes from
        // the file's bytes, and the capture is now registered.
        let cfg = apply("replay", &["--trace", &corpus("uplink-excerpt.trace")]).unwrap();
        assert_eq!(cfg.replay.traces.len(), 1);
        assert!(sprout_trace::lookup_trace(cfg.replay.traces[0]).is_some());

        // A malformed capture is rejected here, naming its bad line.
        let err = apply("replay", &["--trace", &corpus("backwards.trace")]).unwrap_err();
        assert!(err.contains("line 4"), "{err}");

        // Two paths to identical bytes are one capture, not two cells.
        let dup = corpus("downlink-excerpt.trace");
        let err = apply("replay", &["--trace", &dup, "--trace", &dup]).unwrap_err();
        assert!(err.contains("distinct"), "{err}");

        // --schemes trims the roster (order preserved, duplicates refused).
        let cfg = apply("replay", &["--schemes", "sprout,cubic"]).unwrap();
        assert_eq!(cfg.replay.schemes, vec![Scheme::Sprout, Scheme::Cubic]);
        assert!(apply("replay", &["--schemes", "cubic,cubic"]).is_err());
        assert!(apply("replay", &["--schemes", "bogus"]).is_err());

        // The replay axes are replay-only; --timeseries also covers the
        // impair and soak matrices.
        assert!(apply("fig1", &["--schemes", "sprout"]).is_err());
        assert!(apply("soak", &["--trace", &dup]).is_err());
        assert!(apply("fig1", &["--timeseries"]).is_err());
        assert!(apply("impair", &["--timeseries"]).unwrap().timeseries);
        assert!(apply("soak", &["--timeseries"]).unwrap().timeseries);
        assert!(apply("replay", &["--timeseries"]).unwrap().timeseries);

        // Explicit timing hands replay back to the global knobs (and the
        // warmup is derived, so a paper-default 60 s warmup with the
        // short 30 s replay default is fine).
        assert_eq!(apply("replay", &[]).unwrap().warmup_secs, 60);
        let cfg = apply("replay", &["--secs", "35", "--warmup", "8"]).unwrap();
        assert_eq!(cfg.replay.secs, None);
        assert_eq!(effective_secs(&cfg, "replay"), 35);
        assert_eq!(effective_secs(&apply("replay", &[]).unwrap(), "replay"), 30);
    }
}
