//! Multi-session serve cells, end to end: N sessions behind one
//! SproutServer must produce bit-identical sweeps for any thread count
//! (however the schedule batches them), amortize the forecast table across the pool (one
//! build, N−1 reuses per link group), and conserve bytes between the
//! per-session path logs and the server's wire counter.

use std::sync::Mutex;

use sprout_bench::{sweep_to_json, ScenarioMatrix, SweepEngine};
use sprout_core::table_memory_counters;
use sprout_trace::{Duration, NetProfile};

/// Serializes the tests: the table amortization counters are
/// process-global, so concurrent serve sweeps would interleave deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// A small serve matrix: two session counts on the slow 3G uplink.
fn tiny_matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder("servetest")
        .serve([1, 4])
        .links([NetProfile::TmobileUmtsUp])
        .timing(Duration::from_secs(12), Duration::from_secs(2))
        .build()
}

#[test]
fn serve_sweeps_are_thread_and_batch_invariant() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let m = tiny_matrix();
    let one = SweepEngine::new(41).with_threads(1).run(&m);
    let four = SweepEngine::new(41).with_threads(4).run(&m);
    let want = sweep_to_json(m.name(), 41, &one);
    assert_eq!(
        want,
        sweep_to_json(m.name(), 41, &four),
        "serve cells must be bit-identical for any thread count"
    );
    assert!(
        want.contains("\"serve\":{\"sessions\":"),
        "the canonical JSON carries the serve column: {want}"
    );
}

#[test]
fn serve_pool_amortizes_the_forecast_table() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let n = 16u32;
    let m = ScenarioMatrix::builder("serveamort")
        .serve([n])
        .links([NetProfile::TmobileUmtsUp])
        .timing(Duration::from_secs(8), Duration::from_secs(1))
        .build();
    let before = table_memory_counters();
    let results = SweepEngine::new(43).with_threads(1).run(&m);
    let delta = table_memory_counters().since(before);
    assert_eq!(results.len(), 1);
    // The EWMA clients never fetch tables; the pool's N Bayesian
    // receivers perform exactly N lookups over one shared link group:
    // at most one materialization (zero when an earlier test of this
    // binary already built the paper geometry), the rest reuses.
    assert!(
        delta.built <= 1,
        "one table build per link group, got {} builds",
        delta.built
    );
    assert_eq!(
        delta.built + delta.reused,
        u64::from(n),
        "exactly one table lookup per session (got {} built + {} reused)",
        delta.built,
        delta.reused
    );
}

#[test]
fn serve_cells_conserve_bytes_and_report_fairness() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let m = tiny_matrix();
    // run_cell's serve arm asserts the exact conservation equality (sum
    // of per-session full-run path deliveries == the server's wire
    // counter) on every execution, so completing at all is the equality
    // proof; the checks below pin the derived summary.
    let results = SweepEngine::new(47).with_threads(1).run(&m);
    for r in &results {
        let n = r
            .scenario
            .workload
            .serve_sessions()
            .expect("every cell of this matrix is a serve cell");
        let s = r.serve.expect("serve cells produce serve stats");
        assert_eq!(s.sessions, n, "{}: session count", r.scenario.label);
        assert!(
            s.delivered_bytes > 0,
            "{}: sessions must deliver data",
            r.scenario.label
        );
        assert!(
            s.min_session_bytes <= s.max_session_bytes,
            "{}: per-session extremes ordered",
            r.scenario.label
        );
        assert!(
            u64::from(n) * s.min_session_bytes <= s.delivered_bytes
                && s.delivered_bytes <= u64::from(n) * s.max_session_bytes,
            "{}: window sum {} outside [n*min, n*max] = [{}, {}]",
            r.scenario.label,
            s.delivered_bytes,
            u64::from(n) * s.min_session_bytes,
            u64::from(n) * s.max_session_bytes
        );
        assert!(
            s.delivered_bytes <= s.wire_delivered_bytes,
            "{}: the measurement window is a subset of the full run",
            r.scenario.label
        );
        let j = r.fairness.expect("serve cells report fairness");
        assert!(
            (1.0 / f64::from(n) - 1e-12..=1.0 + 1e-12).contains(&j),
            "{}: Jain index {j} outside [1/{n}, 1]",
            r.scenario.label
        );
        assert!(
            r.metrics.is_none() && r.flows.is_empty(),
            "{}: serve cells report the serve column, not direction metrics",
            r.scenario.label
        );
    }
}
