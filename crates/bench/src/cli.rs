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

use crate::figures::ExperimentConfig;
use crate::scenario::{FlowSpec, QueueSpec, MAX_CONTENTION_FLOWS, MAX_SERVE_SESSIONS};
use crate::schemes::Scheme;
use sprout_trace::{Impairment, NetProfile, IMPAIRMENT_PRESETS};

/// Every experiment the harness can run, in help-text order.
pub const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "loss",
    "tunnel",
    "contention",
    "soak",
    "impair",
    "serve",
    "replay",
    "all",
];

/// True when `name` is a runnable experiment.
pub fn is_experiment(name: &str) -> bool {
    EXPERIMENTS.contains(&name)
}

/// The sweep JSON artifacts each experiment records (basenames of the
/// `<name>_sweep.json` files a full run writes).
pub fn artifacts_of(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "fig1" => &["fig1"],
        "fig2" => &["fig2"],
        "fig7" | "fig8" => &["fig7"],
        "fig9" => &["fig9"],
        "loss" => &["loss"],
        "tunnel" => &["tunnel"],
        "contention" => &["contention"],
        "soak" => &["soak"],
        "impair" => &["impair"],
        "serve" => &["serve"],
        "replay" => &["replay"],
        "all" => &["fig1", "fig2", "fig7", "fig9", "loss", "tunnel"],
        _ => &[],
    }
}

/// Flags the control daemon reserves for itself when it assembles a
/// worker command line. A submitted sweep naming one of these is
/// rejected at submit time: the daemon owns sharding, cache placement,
/// artifact output, and the worker handshake.
pub const CONTROL_RESERVED_FLAGS: &[&str] = &[
    "--shard",
    "--merge",
    "--resume",
    "--out",
    "--cache-dir",
    "--no-cache",
    "--json",
    "--controlled",
];

/// How many values a worker-safe flag consumes: `Some(0)` for bare
/// flags, `Some(1)` for flags taking one value, `None` for flags this
/// module does not own (binary-specific flags like `--out`).
pub fn worker_flag_arity(flag: &str) -> Option<usize> {
    match flag {
        "--quick" | "--timeseries" => Some(0),
        "--secs" | "--warmup" | "--seed" | "--threads" | "--cell-timeout" | "--links"
        | "--prop-delays" | "--queues" | "--flows" | "--contend" | "--impairments"
        | "--sessions" | "--trace" | "--schemes" => Some(1),
        _ => None,
    }
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
/// whole ms, each in [1, 10_000].
pub fn parse_prop_delays(spec: &str) -> Option<Vec<u64>> {
    spec.split(',')
        .map(|part| match part.parse::<u64>() {
            Ok(ms) if (1..=10_000).contains(&ms) => Some(ms),
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
/// [`IMPAIRMENT_PRESETS`], kept as `(name, spec)` pairs so artifacts can
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

/// Apply the worker-safe flags in `args` to `cfg`, with the same
/// validation matrix the `reproduce` binary enforces: axis flags must
/// match `experiment`, `--quick` fills only what `--secs`/`--warmup`
/// left unset, an explicit run length hands soak/serve/replay timing
/// back to the global knobs, and the warmup must leave a non-empty
/// measurement window. Returns a one-line usage message on the first
/// violation. `--trace` registers each capture as it parses, so a
/// malformed file is reported to its submitter here — before any worker
/// is spawned.
///
/// Only flags [`worker_flag_arity`] recognizes are accepted; anything
/// else (including every [`CONTROL_RESERVED_FLAGS`] entry) is an error,
/// which is exactly the submit-time screen the control daemon needs.
pub fn apply_worker_args(
    cfg: &mut ExperimentConfig,
    experiment: &str,
    args: &[String],
) -> Result<(), String> {
    if !is_experiment(experiment) {
        return Err(format!("unknown experiment {experiment:?}"));
    }
    let mut quick = false;
    let mut explicit_secs = false;
    let mut explicit_warmup = false;
    let mut links_flag = false;
    let mut soak_axis_flags = false;
    let mut explicit_flows = false;
    let mut explicit_contend = false;
    let mut explicit_impairments = false;
    let mut explicit_sessions = false;
    let mut explicit_schemes = false;
    let mut timeseries = false;
    let mut traces: Vec<u64> = Vec::new();
    fn value<'a>(iter: &mut std::slice::Iter<'a, String>, name: &str) -> Result<&'a str, String> {
        iter.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{name} expects a value"))
    }
    fn numeric(iter: &mut std::slice::Iter<'_, String>, name: &str) -> Result<u64, String> {
        match iter.next().map(|v| v.parse::<u64>()) {
            Some(Ok(v)) => Ok(v),
            Some(Err(_)) => Err(format!("{name} expects a number")),
            None => Err(format!("{name} expects a value")),
        }
    }
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--secs" => {
                cfg.run_secs = numeric(&mut iter, "--secs")?;
                explicit_secs = true;
            }
            "--warmup" => {
                cfg.warmup_secs = numeric(&mut iter, "--warmup")?;
                explicit_warmup = true;
            }
            "--seed" => cfg.seed = numeric(&mut iter, "--seed")?,
            "--threads" => cfg.threads = numeric(&mut iter, "--threads")? as usize,
            "--quick" => quick = true,
            "--cell-timeout" => {
                let secs = numeric(&mut iter, "--cell-timeout")?;
                if secs == 0 {
                    return Err("--cell-timeout expects a positive number of seconds".to_string());
                }
                cfg.cell_timeout_secs = secs;
            }
            "--links" => match parse_links(value(&mut iter, arg)?) {
                Some(links) => {
                    cfg.soak.links = links.clone();
                    cfg.contention.links = links.clone();
                    cfg.impair.links = links.clone();
                    cfg.serve.links = links;
                    links_flag = true;
                }
                None => {
                    return Err(
                        "--links expects a comma-separated list of distinct link ids (e.g. vz-lte-down,tmo-3g-up)"
                            .to_string(),
                    )
                }
            },
            "--prop-delays" => match parse_prop_delays(value(&mut iter, arg)?) {
                Some(ms) => {
                    cfg.soak.prop_delays_ms = ms;
                    soak_axis_flags = true;
                }
                None => {
                    return Err(
                        "--prop-delays expects comma-separated distinct one-way delays in ms, each in 1..=10000 (e.g. 10,25,50)"
                            .to_string(),
                    )
                }
            },
            "--queues" => match parse_queues(value(&mut iter, arg)?) {
                Some(queues) => {
                    cfg.soak.queues = queues;
                    soak_axis_flags = true;
                }
                None => {
                    return Err(
                        "--queues expects comma-separated distinct specs from auto|droptail|codel|bytes:N (e.g. auto,bytes:75000)"
                            .to_string(),
                    )
                }
            },
            "--flows" => {
                let n = numeric(&mut iter, "--flows")? as usize;
                if !(2..=MAX_CONTENTION_FLOWS).contains(&n) {
                    return Err(format!(
                        "--flows expects a flow count in 2..={MAX_CONTENTION_FLOWS}, got {n}"
                    ));
                }
                cfg.contention.flows = n;
                explicit_flows = true;
            }
            "--contend" => match parse_contend(value(&mut iter, arg)?) {
                Some(flows) => {
                    cfg.contention.contenders = Some(flows);
                    explicit_contend = true;
                }
                None => {
                    return Err(
                        "--contend expects 2..=16 comma-separated flow specs: scheme tags (sprout, sprout-ewma, cubic, cubic-codel, reno, vegas, compound, ledbat, skype, facetime, google-hangout) or tunneled app flows like skype-over-sprout; omniscient cannot contend"
                            .to_string(),
                    )
                }
            },
            "--impairments" => match parse_impairments(value(&mut iter, arg)?) {
                Some(impairments) => {
                    cfg.impair.impairments = impairments;
                    explicit_impairments = true;
                }
                None => {
                    return Err(format!(
                        "--impairments expects comma-separated distinct preset names from {}",
                        IMPAIRMENT_PRESETS.join(", ")
                    ))
                }
            },
            "--sessions" => match parse_sessions(value(&mut iter, arg)?) {
                Some(sessions) => {
                    cfg.serve.sessions = sessions;
                    explicit_sessions = true;
                }
                None => {
                    return Err(format!(
                        "--sessions expects comma-separated distinct session counts, each in 1..={MAX_SERVE_SESSIONS} (e.g. 1,64,1024)"
                    ))
                }
            },
            "--trace" => {
                let path = value(&mut iter, arg)?;
                // Registration validates the capture (a malformed file is
                // reported here, at submit/parse time) and is what makes
                // the fingerprint resolvable in *this* process.
                match sprout_trace::register_trace_file(path) {
                    Ok(fp) => traces.push(fp),
                    Err(e) => return Err(format!("--trace {path}: {e}")),
                }
            }
            "--schemes" => match parse_schemes(value(&mut iter, arg)?) {
                Some(schemes) => {
                    cfg.replay.schemes = schemes;
                    explicit_schemes = true;
                }
                None => {
                    return Err(
                        "--schemes expects comma-separated distinct scheme tags (sprout, sprout-ewma, cubic, cubic-codel, reno, vegas, compound, ledbat, skype, facetime, google-hangout, omniscient)"
                            .to_string(),
                    )
                }
            },
            "--timeseries" => timeseries = true,
            other => return Err(format!("unknown worker flag {other:?}")),
        }
    }
    let explicit_traces = !traces.is_empty();
    if explicit_traces {
        // Duplicate captures (same bytes under any path) would cross into
        // duplicate cells with identical labels and cache keys.
        match all_distinct(traces) {
            Some(fps) => cfg.replay.traces = fps,
            None => return Err(
                "--trace captures must be distinct (two of the given files have identical bytes)"
                    .to_string(),
            ),
        }
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
    if soak_axis_flags && experiment != "soak" {
        return Err(
            "--prop-delays/--queues configure the soak matrix; they require the soak experiment"
                .to_string(),
        );
    }
    if links_flag
        && experiment != "soak"
        && experiment != "contention"
        && experiment != "impair"
        && experiment != "serve"
    {
        return Err(
            "--links trims the soak/contention/impair/serve link axis; it requires one of those experiments"
                .to_string(),
        );
    }
    if (explicit_flows || explicit_contend) && experiment != "contention" {
        return Err(
            "--flows/--contend configure the contention matrix; they require the contention experiment"
                .to_string(),
        );
    }
    if explicit_impairments && experiment != "impair" {
        return Err(
            "--impairments configures the impair matrix; it requires the impair experiment"
                .to_string(),
        );
    }
    if explicit_sessions && experiment != "serve" {
        return Err(
            "--sessions configures the serve matrix; it requires the serve experiment".to_string(),
        );
    }
    if (explicit_traces || explicit_schemes) && experiment != "replay" {
        return Err(
            "--trace/--schemes configure the replay matrix; they require the replay experiment"
                .to_string(),
        );
    }
    if timeseries {
        if !matches!(experiment, "replay" | "impair" | "soak") {
            return Err(
                "--timeseries emits per-cell series for the replay, impair, and soak matrices; it requires one of those experiments"
                    .to_string(),
            );
        }
        cfg.timeseries = true;
    }
    if explicit_flows && explicit_contend {
        return Err(
            "--flows sizes the default contention workloads and --contend replaces them; pick one"
                .to_string(),
        );
    }
    // The paper-length soak default (and the short serve default) live
    // on their axes structs (so the library builds the identical
    // matrix); an explicit --secs or --quick hands timing back to the
    // global knobs.
    if explicit_secs || quick {
        cfg.soak.secs = None;
        cfg.serve.secs = None;
        cfg.replay.secs = None;
    }
    // Validate against the run length the experiment will actually use
    // (soak defaults to SOAK_SECS, serve to SERVE_SECS, replay to
    // REPLAY_SECS, independently of --secs). Serve and replay derive
    // their warmup from the run length (one sixth) instead of --warmup,
    // so their windows can never be empty.
    let effective_secs = effective_secs(cfg, experiment);
    if experiment != "serve" && experiment != "replay" && cfg.warmup_secs >= effective_secs {
        return Err(format!(
            "warmup ({}s) must be shorter than the run ({}s): the measurement window would be empty",
            cfg.warmup_secs, effective_secs
        ));
    }
    Ok(())
}

/// The run length `experiment` will actually use under `cfg` (soak,
/// serve, and replay carry their own defaults independently of
/// `--secs`).
pub fn effective_secs(cfg: &ExperimentConfig, experiment: &str) -> u64 {
    match experiment {
        "soak" => cfg.soak.secs.unwrap_or(cfg.run_secs),
        "serve" => cfg.serve.secs.unwrap_or(cfg.run_secs),
        "replay" => cfg.replay.secs.unwrap_or(cfg.run_secs),
        _ => cfg.run_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(experiment: &str, args: &[&str]) -> Result<ExperimentConfig, String> {
        let mut cfg = ExperimentConfig::default();
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        apply_worker_args(&mut cfg, experiment, &args).map(|()| cfg)
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
        for flag in CONTROL_RESERVED_FLAGS {
            assert!(
                apply("soak", &[flag]).is_err(),
                "{flag} must be rejected as a worker flag"
            );
        }
        // The retired `--bench` is no longer reserved, only unknown: a
        // `sprout-control submit … -- --bench` is still refused at
        // submit time.
        assert!(!CONTROL_RESERVED_FLAGS.contains(&"--bench"));
        assert_eq!(worker_flag_arity("--bench"), None);
        let err = apply("soak", &["--bench"]).unwrap_err();
        assert!(err.contains("unknown worker flag"), "{err}");
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
        let cfg = apply("replay", &["--secs", "40", "--warmup", "8"]).unwrap();
        assert_eq!(cfg.replay.secs, None);
        assert_eq!(effective_secs(&cfg, "replay"), 40);
        assert_eq!(effective_secs(&apply("replay", &[]).unwrap(), "replay"), 30);
    }
}
