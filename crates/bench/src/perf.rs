//! The `BENCH_sweep.json` performance trajectory.
//!
//! `reproduce --bench` runs a small canonical scenario matrix plus a set
//! of hot-path microbenchmarks and writes one JSON document recording:
//!
//! * per-cell wall time and the deterministic per-cell metrics (the
//!   metrics double as a cross-machine determinism check — they must
//!   match the committed baseline *exactly* for the same seed);
//! * sweep-level wall time and artifact-cache traffic (hits mean the
//!   run skipped forecast-table DP / trace synthesis);
//! * nanoseconds-per-iteration for the forecast, model-tick, and
//!   table-build hot paths.
//!
//! [`check_regression`] compares a fresh report against a recorded
//! baseline: timing fields may drift up to a tolerance (CI uses 20%),
//! deterministic metric fields must be identical. CI archives the file
//! as an artifact so the repository accumulates a perf trajectory.

use std::time::Instant;

use sprout_core::{
    ForecastScratch, ForecastTables, RateModel, SproutConfig, SproutEndpoint, TransitionKernel,
};
use sprout_sim::{FlowId, PathConfig, ServeSim};
use sprout_trace::{Duration, NetProfile, Timestamp};
use sprout_tunnel::SproutServer;

use crate::figures::ExperimentConfig;
use crate::scenario::{paired_profile, ScenarioMatrix};
use crate::schemes::{RunConfig, Scheme};
use crate::sweep::{json_f64, json_str, SweepResult, SweepStats};

/// One microbenchmark sample.
#[derive(Clone, Debug)]
pub struct MicroBench {
    /// Stable metric key (doubles as the JSON field name).
    pub key: &'static str,
    /// Nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// Wall-clock capacity of the multi-session serve loop, measured by
/// [`run_serve_capacity`]. These are host-dependent timing numbers (like
/// the microbenchmarks), deliberately separate from the deterministic
/// virtual-time [`ServeStats`](crate::sweep::ServeStats) the serve sweep
/// records.
#[derive(Clone, Copy, Debug)]
pub struct ServeCapacity {
    /// Sessions the probe drove concurrently.
    pub sessions: u32,
    /// Real-time serving capacity: `sessions × virtual seconds / wall
    /// seconds` — how many sessions this host could drive at 1× speed.
    pub sessions_per_sec: f64,
    /// Approximate per-session heap bytes of the session pool (the
    /// shared forecast table amortized away).
    pub per_session_bytes: f64,
    /// 99th-percentile wall time of one 20 ms event-loop tick across all
    /// sessions, nanoseconds.
    pub tick_p99_ns: f64,
}

/// A full `--bench` run: the sweep's results and stats plus the
/// microbenchmark samples.
#[derive(Debug)]
pub struct BenchReport {
    /// Master seed the bench matrix ran with.
    pub seed: u64,
    /// Results of the bench matrix, in matrix order.
    pub results: Vec<SweepResult>,
    /// Sweep-level wall time and cache traffic.
    pub stats: SweepStats,
    /// Hot-path microbenchmarks.
    pub micro: Vec<MicroBench>,
    /// Multi-session serve-loop capacity probe.
    pub serve: ServeCapacity,
}

impl BenchReport {
    /// Sweep throughput in cells per second (0 for an empty/instant run).
    pub fn cells_per_sec(&self) -> f64 {
        if self.stats.total_wall_ms > 0.0 {
            self.results.len() as f64 / (self.stats.total_wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// The canonical bench matrix: Sprout across the Figure-9 confidence
/// axis on the T-Mobile 3G uplink — small enough for CI, broad enough
/// to exercise forecast tables, trace synthesis, and the full endpoint
/// hot path.
pub fn bench_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("bench")
        .schemes([Scheme::Sprout])
        .links([NetProfile::TmobileUmtsUp])
        .confidences_pct(crate::figures::FIG9_CONFIDENCES)
        .build()
}

/// Best-of-runs timing loop: times `iters` iterations of `f`, `runs`
/// times, and reports the fastest run (the minimum suppresses scheduler
/// noise without a statistics engine — remember it when reasoning about
/// baseline variance).
fn time_ns<O>(runs: usize, iters: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Run the hot-path microbenchmarks at paper scale (except the table
/// build, which uses the scaled-down test config — the paper-scale build
/// is a one-time cost measured by the sweep's cold-cache wall time).
pub fn run_micro_benches() -> Vec<MicroBench> {
    let cfg = SproutConfig::paper();
    let tables = ForecastTables::get(&cfg);
    let mut model = RateModel::new(cfg.clone());
    for _ in 0..50 {
        model.evolve();
        model.observe(8.0);
    }
    let mut scratch = ForecastScratch::default();
    let forecast_ns = time_ns(5, 200, || {
        tables
            .forecast_into(model.distribution(), 5.0, &mut scratch)
            .cumulative_units
            .len()
    });
    // The same call in situ: one forecast after every tick of a link
    // whose rate wanders, so the posterior moves between calls, last
    // call's answers are only predictions and the search has to look.
    // (`forecast_ns` above forecasts one frozen posterior: its predictions
    // are always exact.) The posteriors are prepared up front so only
    // `forecast_into` is timed.
    let moving = moving_posteriors(&cfg, 200);
    let mut next = moving.iter().cycle();
    let forecast_moving_ns = time_ns(5, moving.len(), || {
        let posterior = next.next().expect("cycle over a non-empty list");
        tables
            .forecast_into(posterior, 5.0, &mut scratch)
            .cumulative_units
            .len()
    });
    let model_tick_ns = time_ns(5, 200, || {
        model.evolve();
        model.observe(std::hint::black_box(8.0));
    });
    // The chunked/SIMD-dispatched evolve kernel in isolation (no
    // observation): the inner loop the batched table DP and the per-tick
    // model both stand on.
    let evolve_batched_ns = time_ns(5, 200, || model.evolve());
    let small = SproutConfig::test_small();
    let kernel = TransitionKernel::new(&small);
    let table_build_ns = time_ns(2, 3, || ForecastTables::build(&small, &kernel));
    vec![
        MicroBench {
            key: "forecast_ns",
            ns_per_iter: forecast_ns,
        },
        MicroBench {
            key: "forecast_moving_ns",
            ns_per_iter: forecast_moving_ns,
        },
        MicroBench {
            key: "model_tick_ns",
            ns_per_iter: model_tick_ns,
        },
        MicroBench {
            key: "evolve_batched_ns",
            ns_per_iter: evolve_batched_ns,
        },
        MicroBench {
            key: "table_build_small_ns",
            ns_per_iter: table_build_ns,
        },
    ]
}

/// The posterior after each of `ticks` ticks of a link whose delivery
/// rate swings between ~1 and ~15 packets a tick over a 2 s period, with
/// per-tick jitter and a silent tick now and then (fixed sequence, no
/// seed: this feeds a timing probe, not a result).
fn moving_posteriors(cfg: &SproutConfig, ticks: usize) -> Vec<Vec<f64>> {
    let mut model = RateModel::new(cfg.clone());
    let mut lcg = 0x2013_0401u32;
    (0..ticks)
        .map(|t| {
            lcg = lcg.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let swing = 8.0 + 7.0 * (t as f64 * std::f64::consts::TAU / 100.0).sin();
            let jitter = (lcg >> 16) as f64 / 65_536.0 * 4.0 - 2.0;
            let packets = if lcg.is_multiple_of(17) {
                0.0
            } else {
                (swing + jitter).max(0.0).round()
            };
            model.evolve();
            model.observe(packets);
            model.distribution().to_vec()
        })
        .collect()
}

/// Sessions the serve capacity probe drives: large enough that shared
/// state and the O(due) event loop dominate, small enough for CI.
pub const CAPACITY_SESSIONS: u32 = 128;

/// Virtual seconds the serve capacity probe simulates.
const CAPACITY_SECS: u64 = 10;

/// Time the multi-session serve loop: [`CAPACITY_SESSIONS`] saturating
/// Sprout sessions on the T-Mobile 3G uplink, stepped in 20 ms virtual
/// ticks so each `run_until` call is one "tick" of the shared event
/// loop. Wall-clock only — the deterministic serve results come from the
/// `serve` sweep matrix.
pub fn run_serve_capacity(seed: u64) -> ServeCapacity {
    let sessions = CAPACITY_SESSIONS;
    let duration = Duration::from_secs(CAPACITY_SECS);
    let link = NetProfile::TmobileUmtsUp;
    let rc = RunConfig {
        duration,
        warmup: Duration::ZERO,
        ..RunConfig::new(
            link.generate(duration, seed),
            paired_profile(link).generate(duration, seed),
        )
    };
    let mut server = SproutServer::new(rc.sprout.clone(), rc.serve_seed);
    for i in 0..sessions {
        server.add_session(i + 1);
    }
    let per_session_bytes = server.pool().approx_session_bytes() as f64;
    let mut sim = ServeSim::new(server);
    for i in 0..sessions {
        let up = PathConfig::standard(rc.data_trace.clone()).with_prop_delay(rc.prop_delay);
        let down = PathConfig::standard(rc.feedback_trace.clone()).with_prop_delay(rc.prop_delay);
        let mut client = SproutEndpoint::new_ewma(rc.sprout.clone());
        client.set_saturating();
        client.set_flow(FlowId(i + 1));
        sim.add_session(FlowId(i + 1), client, up, down);
    }

    let end = Timestamp::ZERO + duration;
    let tick = Duration::from_millis(20);
    let mut samples = Vec::with_capacity((CAPACITY_SECS * 50) as usize + 1);
    let t0 = Instant::now();
    let mut now = Timestamp::ZERO;
    while now < end {
        now = (now + tick).min(end);
        let s = Instant::now();
        sim.run_until(now);
        samples.push(s.elapsed().as_nanos() as f64);
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    samples.sort_by(f64::total_cmp);
    let tick_p99_ns = samples[(samples.len() - 1) * 99 / 100];
    ServeCapacity {
        sessions,
        sessions_per_sec: sessions as f64 * CAPACITY_SECS as f64 / wall_s,
        per_session_bytes,
        tick_p99_ns,
    }
}

/// Render a bench report as one stable-key-order JSON document
/// (`BENCH_sweep.json`).
pub fn bench_report_to_json(report: &BenchReport) -> String {
    let mut o = String::with_capacity(1024);
    o.push_str("{\"bench_version\":1,\"seed\":");
    o.push_str(&report.seed.to_string());
    o.push_str(",\"cells\":[\n");
    for (i, r) in report.results.iter().enumerate() {
        o.push_str("{\"label\":");
        json_str(&mut o, &r.scenario.label);
        o.push_str(",\"wall_ms\":");
        json_f64(&mut o, r.wall_ms);
        if let Some(m) = &r.metrics {
            o.push_str(",\"throughput_kbps\":");
            json_f64(&mut o, m.throughput_kbps);
            o.push_str(",\"self_inflicted_ms\":");
            json_f64(&mut o, m.self_inflicted_ms);
        }
        o.push('}');
        if i + 1 < report.results.len() {
            o.push(',');
        }
        o.push('\n');
    }
    o.push_str("],\"total_wall_ms\":");
    json_f64(&mut o, report.stats.total_wall_ms);
    // Sweep throughput: the headline the batch executor optimizes.
    // Higher is better — `check_regression` gates it downward.
    o.push_str(",\"cells_per_sec\":");
    json_f64(&mut o, report.cells_per_sec());
    // Batch-executor layout and in-memory amortization. Field names must
    // not contain the substring "misses" — the CI warm-cache assertion
    // counts `"misses":` occurrences across the document and expects
    // exactly the three disk-cache counters.
    let b = &report.stats.batch;
    o.push_str(",\"batch\":{\"enabled\":");
    o.push_str(if b.enabled { "true" } else { "false" });
    o.push_str(",\"workers\":");
    o.push_str(&b.workers.to_string());
    o.push_str(",\"batches\":");
    o.push_str(&b.batches.to_string());
    o.push_str(",\"tables_built\":");
    o.push_str(&b.tables.built.to_string());
    o.push_str(",\"tables_reused\":");
    o.push_str(&b.tables.reused.to_string());
    o.push_str(",\"traces_built\":");
    o.push_str(&b.traces.built.to_string());
    o.push_str(",\"traces_reused\":");
    o.push_str(&b.traces.reused.to_string());
    o.push('}');
    let cache = |o: &mut String, c: sprout_cache::CacheCounters| {
        o.push_str("{\"hits\":");
        o.push_str(&c.hits.to_string());
        o.push_str(",\"misses\":");
        o.push_str(&c.misses.to_string());
        o.push_str(",\"stores\":");
        o.push_str(&c.stores.to_string());
        o.push('}');
    };
    o.push_str(",\"cache\":{\"table\":");
    cache(&mut o, report.stats.table_cache);
    o.push_str(",\"trace\":");
    cache(&mut o, report.stats.trace_cache);
    o.push_str(",\"cell\":");
    cache(&mut o, report.stats.cell_cache);
    // Serve-loop capacity. Like cells_per_sec, sessions_per_sec gates
    // *downward* in `check_regression`; the other fields are recorded
    // for the trajectory.
    let s = &report.serve;
    o.push_str("},\"serve\":{\"sessions\":");
    o.push_str(&s.sessions.to_string());
    o.push_str(",\"sessions_per_sec\":");
    json_f64(&mut o, s.sessions_per_sec);
    o.push_str(",\"per_session_bytes\":");
    json_f64(&mut o, s.per_session_bytes);
    o.push_str(",\"tick_p99_ns\":");
    json_f64(&mut o, s.tick_p99_ns);
    o.push_str("},\"micro\":{");
    for (i, m) in report.micro.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push('"');
        o.push_str(m.key);
        o.push_str("\":");
        json_f64(&mut o, m.ns_per_iter);
    }
    o.push_str("}}\n");
    o
}

/// Extract the first number following `"key":` in a JSON document. Good
/// enough for the flat, uniquely-keyed fields of `BENCH_sweep.json`
/// (this workspace is offline — no serde).
fn find_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compare a fresh bench report against a recorded baseline document.
///
/// * Timing metrics (`total_wall_ms` and each microbenchmark) may be up
///   to `tolerance` (e.g. `0.20`) slower than the baseline.
/// * Deterministic metrics (per-cell throughput, exact to the printed
///   digit for the same seed) must match the baseline exactly; a
///   mismatch means behavior changed and the baseline needs a deliberate
///   update.
///
/// Returns the list of violations (empty = pass).
pub fn check_regression(report: &BenchReport, baseline_json: &str, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    let mut check_timing = |key: &str, current: f64| {
        match find_number(baseline_json, key) {
            Some(base) if base > 0.0 => {
                if current > base * (1.0 + tolerance) {
                    violations.push(format!(
                        "{key}: {current:.0} exceeds baseline {base:.0} by more than {:.0}%",
                        tolerance * 100.0
                    ));
                }
            }
            _ => violations.push(format!("{key}: missing from baseline")),
        };
    };
    check_timing("total_wall_ms", report.stats.total_wall_ms);
    for m in &report.micro {
        check_timing(m.key, m.ns_per_iter);
    }
    // Throughput gates downward: lower is worse. Baselines predating a
    // field are tolerated (the additive-key guard, not this check,
    // forbids dropping fields going forward).
    let mut check_throughput = |key: &str, current: f64| {
        if let Some(base) = find_number(baseline_json, key) {
            if base > 0.0 && current < base * (1.0 - tolerance) {
                violations.push(format!(
                    "{key}: {current:.2} fell below baseline {base:.2} by more than {:.0}%",
                    tolerance * 100.0
                ));
            }
        }
    };
    check_throughput("cells_per_sec", report.cells_per_sec());
    check_throughput("sessions_per_sec", report.serve.sessions_per_sec);
    // Determinism: each cell's throughput must equal the value the
    // baseline records under the *same label* (same seed ⇒ same
    // simulated bytes ⇒ exact f64 round trip) — a whole-document
    // substring match would let swapped cells pass.
    for r in &report.results {
        if let Some(m) = &r.metrics {
            match cell_throughput(baseline_json, &r.scenario.label) {
                None => violations.push(format!(
                    "{}: cell missing from baseline (matrix changed — regenerate BENCH_sweep.json deliberately)",
                    r.scenario.label
                )),
                Some(base) if base != m.throughput_kbps => violations.push(format!(
                    "{}: throughput {} kbps differs from baseline {base} (nondeterminism or behavior change — regenerate BENCH_sweep.json deliberately)",
                    r.scenario.label, m.throughput_kbps
                )),
                Some(_) => {}
            }
        }
    }
    violations
}

/// Every JSON key present in `baseline_json` but absent from
/// `report_json`, in baseline order (deduplicated).
///
/// `BENCH_sweep.json` is an append-only trajectory: later engine
/// versions may add fields, but silently dropping one would sever the
/// perf history it anchors (and break downstream tooling keyed on it).
/// `reproduce --bench` refuses to overwrite a baseline whose keys the
/// fresh report no longer carries.
pub fn missing_keys(baseline_json: &str, report_json: &str) -> Vec<String> {
    let report_keys: std::collections::HashSet<String> = json_keys(report_json).collect();
    let mut missing = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for key in json_keys(baseline_json) {
        if seen.insert(key.clone()) && !report_keys.contains(&key) {
            missing.push(key);
        }
    }
    missing
}

/// All `"key":` tokens of a JSON document (a string immediately followed
/// by a colon). String values never precede a colon in valid JSON, so
/// this names exactly the object keys.
fn json_keys(json: &str) -> impl Iterator<Item = String> + '_ {
    let bytes = json.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            if bytes[i] == b'"' {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\\' {
                        j += 1;
                    }
                    j += 1;
                }
                let end = j.min(bytes.len());
                i = end + 1;
                if i < bytes.len() && bytes[i] == b':' {
                    return Some(json[start..end].to_string());
                }
            } else {
                i += 1;
            }
        }
        None
    })
}

/// The `throughput_kbps` the baseline records for the cell labelled
/// `label`. Cell objects in `BENCH_sweep.json` are flat (no nested
/// braces), so the cell ends at the first `}` after its label.
fn cell_throughput(json: &str, label: &str) -> Option<f64> {
    let mut needle = String::from("\"label\":");
    json_str(&mut needle, label);
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest.find('}').unwrap_or(rest.len());
    find_number(&rest[..end], "throughput_kbps")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepEngine;

    fn tiny_report() -> BenchReport {
        let cfg = ExperimentConfig {
            run_secs: 12,
            warmup_secs: 2,
            seed: 7,
            ..ExperimentConfig::default()
        };
        let matrix = bench_matrix(&cfg);
        let (results, stats) = SweepEngine::new(cfg.seed).run_with_stats(&matrix);
        BenchReport {
            seed: cfg.seed,
            results,
            stats,
            micro: vec![
                MicroBench {
                    key: "forecast_ns",
                    ns_per_iter: 1000.0,
                },
                MicroBench {
                    key: "model_tick_ns",
                    ns_per_iter: 2000.0,
                },
                MicroBench {
                    key: "table_build_small_ns",
                    ns_per_iter: 3000.0,
                },
            ],
            serve: ServeCapacity {
                sessions: 8,
                sessions_per_sec: 100.0,
                per_session_bytes: 1024.0,
                tick_p99_ns: 5000.0,
            },
        }
    }

    #[test]
    fn report_round_trips_through_regression_check() {
        let report = tiny_report();
        let json = bench_report_to_json(&report);
        assert!(json.contains("\"cache\""));
        assert!(json.contains("\"forecast_ns\""));
        assert!(json.contains("\"sessions_per_sec\""));
        // A report always passes against its own rendering.
        let violations = check_regression(&report, &json, 0.20);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn slower_serve_capacity_fails_against_baseline() {
        let mut report = tiny_report();
        let json = bench_report_to_json(&report);
        report.serve.sessions_per_sec /= 2.0;
        let violations = check_regression(&report, &json, 0.20);
        assert!(
            violations.iter().any(|v| v.contains("sessions_per_sec")),
            "{violations:?}"
        );
    }

    #[test]
    fn slower_run_fails_against_tight_baseline() {
        let mut report = tiny_report();
        let json = bench_report_to_json(&report);
        report.micro[0].ns_per_iter *= 2.0; // 100% slower than baseline
        let violations = check_regression(&report, &json, 0.20);
        assert!(
            violations.iter().any(|v| v.contains("forecast_ns")),
            "{violations:?}"
        );
    }

    #[test]
    fn swapped_cells_fail_determinism_check() {
        // Both values still appear in the baseline document — only the
        // per-label comparison catches the swap.
        let mut report = tiny_report();
        let json = bench_report_to_json(&report);
        let (a, b) = (0, report.results.len() - 1);
        let tmp = report.results[a].metrics;
        report.results[a].metrics = report.results[b].metrics;
        report.results[b].metrics = tmp;
        let violations = check_regression(&report, &json, 1000.0);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("differs from baseline")),
            "{violations:?}"
        );
    }

    #[test]
    fn changed_metrics_fail_determinism_check() {
        let report = tiny_report();
        let mut json = bench_report_to_json(&report);
        // Corrupt every digit so the throughput strings cannot match.
        json = json.replace(['1', '2', '3', '4'], "9");
        let violations = check_regression(&report, &json, 1000.0);
        assert!(!violations.is_empty());
    }

    #[test]
    fn find_number_parses_fields() {
        let doc = r#"{"a":12.5,"b":-3e2,"nested":{"c":7}}"#;
        assert_eq!(find_number(doc, "a"), Some(12.5));
        assert_eq!(find_number(doc, "b"), Some(-300.0));
        assert_eq!(find_number(doc, "c"), Some(7.0));
        assert_eq!(find_number(doc, "missing"), None);
    }
}
