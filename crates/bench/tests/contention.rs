//! Multi-flow contention cells, end to end: N flows sharing one
//! bottleneck queue must report per-flow metrics that conserve the
//! aggregate, a Jain's fairness index within its mathematical bounds,
//! bit-identical sweeps for any thread count, and cache round trips that
//! preserve the fairness column (shard + merge reassembly included).

use std::path::PathBuf;
use std::sync::Mutex;

use sprout_bench::{
    sweep_to_json, CellCachePolicy, FlowSpec, ScenarioMatrix, Scheme, ShardSpec, SweepEngine,
    VideoApp, Workload,
};
use sprout_trace::{Duration, NetProfile};

mod support;

/// Serializes the tests: each points the process-global cache override
/// somewhere, and the shard test's merge must read the directory its
/// shards stored into.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn temp_cache_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "sprout-contention-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A small contention matrix: a homogeneous bulk trio, a lone Sprout
/// flow against bulk, and a tunneled Skype flow against bulk.
fn tiny_matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder("contendtest")
        .contention([
            vec![FlowSpec::Scheme(Scheme::Cubic); 3],
            vec![
                FlowSpec::Scheme(Scheme::Sprout),
                FlowSpec::Scheme(Scheme::Cubic),
            ],
            vec![
                FlowSpec::App {
                    app: VideoApp::Skype,
                    over: Scheme::Sprout,
                },
                FlowSpec::Scheme(Scheme::Cubic),
            ],
        ])
        .links([NetProfile::TmobileUmtsDown])
        .timing(Duration::from_secs(30), Duration::from_secs(6))
        .build()
}

/// §5.7's "direct" pair is declared three ways — the mux cell, Skype
/// over a Cubic carrier, Cubic and Skype contending — and is one
/// topology: flows 1 and 2 behind one mux pair on one shared path. The
/// three cells must agree to the last bit; only the contention cell
/// reports fairness.
#[test]
fn three_declarations_of_the_direct_pair_are_one_simulation() {
    let _g = CACHE_LOCK.lock().unwrap();
    support::cache_outside_the_checkout();
    let m = ScenarioMatrix::builder("onetopology")
        .workloads([Workload::MuxDirect])
        .apps([VideoApp::Skype], [Scheme::Cubic])
        .contention([vec![
            FlowSpec::Scheme(Scheme::Cubic),
            FlowSpec::Scheme(Scheme::Skype),
        ]])
        .links([NetProfile::VerizonLteDown])
        .timing(Duration::from_secs(20), Duration::from_secs(4))
        .build();
    let results = SweepEngine::new(17).with_threads(1).run(&m);
    let ids: Vec<&str> = results.iter().map(|r| r.scenario.workload.id()).collect();
    assert_eq!(ids, ["mux-direct", "app", "contention"]);

    let bits = |r: &sprout_bench::SweepResult| -> Vec<u64> {
        let m = r
            .metrics
            .expect("a two-endpoint cell has direction metrics");
        let mut bits = vec![
            m.throughput_kbps.to_bits(),
            m.p95_delay_ms.to_bits(),
            m.self_inflicted_ms.to_bits(),
            m.omniscient_ms.to_bits(),
            m.utilization.to_bits(),
            u64::from(m.outages),
            m.recovery_ms.to_bits(),
            m.degraded_delivery.to_bits(),
        ];
        assert_eq!(r.flows.len(), 2, "{}", r.scenario.label);
        for f in &r.flows {
            bits.extend([
                u64::from(f.flow),
                f.throughput_kbps.to_bits(),
                f.p95_delay_ms.to_bits(),
            ]);
        }
        bits
    };
    assert!(results[0].metrics.unwrap().throughput_kbps > 0.0);
    assert_eq!(bits(&results[0]), bits(&results[1]), "mux-direct vs app");
    assert_eq!(
        bits(&results[0]),
        bits(&results[2]),
        "mux-direct vs contention"
    );
    let fairness: Vec<bool> = results.iter().map(|r| r.fairness.is_some()).collect();
    assert_eq!(fairness, [false, false, true]);
}

#[test]
fn contention_cells_report_per_flow_metrics_and_fairness() {
    let _g = CACHE_LOCK.lock().unwrap();
    support::cache_outside_the_checkout();
    let m = tiny_matrix();
    let results = SweepEngine::new(17).with_threads(1).run(&m);
    assert_eq!(results.len(), m.len());

    for r in &results {
        let specs = r
            .scenario
            .workload
            .contention_flows()
            .expect("every cell of this matrix is a contention cell");
        assert_eq!(
            r.flows.len(),
            specs.len(),
            "{}: one summary per declared flow",
            r.scenario.label
        );
        for (i, flow) in r.flows.iter().enumerate() {
            assert_eq!(
                flow.flow,
                i as u32 + 1,
                "{}: flow ids follow declaration order",
                r.scenario.label
            );
        }

        // Conservation: the per-flow split must sum to the aggregate —
        // every delivered packet belongs to exactly one declared flow.
        let m_all = r.metrics.expect("contention cells produce metrics");
        let flow_sum: f64 = r.flows.iter().map(|f| f.throughput_kbps).sum();
        assert!(
            (flow_sum - m_all.throughput_kbps).abs() <= 1e-9 * m_all.throughput_kbps.max(1.0),
            "{}: per-flow throughputs ({flow_sum}) must sum to the aggregate ({})",
            r.scenario.label,
            m_all.throughput_kbps
        );

        // Jain's index within its bounds, present in every cell.
        let n = specs.len() as f64;
        let j = r.fairness.expect("contention cells report fairness");
        assert!(
            (1.0 / n - 1e-12..=1.0 + 1e-12).contains(&j),
            "{}: Jain index {j} outside [1/{n}, 1]",
            r.scenario.label
        );
    }

    // The homogeneous all-Cubic cell sits well above the one-hog floor
    // (1/3). It does not reach 1.0 in a 30 s window: identical Cubic
    // flows desynchronize over a deep buffer and converge slowly — which
    // is exactly the effect the fairness column exists to expose.
    let homogeneous = &results[0];
    assert!(
        homogeneous.fairness.unwrap() > 0.6,
        "identical bulk flows must share tolerably, got {}",
        homogeneous.fairness.unwrap()
    );
    assert!(homogeneous
        .flows
        .iter()
        .all(|f| f.throughput_kbps > 0.0 && f.p95_delay_ms.is_finite()));

    // The tunneled Skype flow gets through next to a bulk Cubic flow.
    let tunneled = &results[2];
    assert!(
        tunneled.flows[0].throughput_kbps > 0.0,
        "the tunneled app flow must deliver"
    );
    assert!(
        tunneled.flows[1].throughput_kbps > tunneled.flows[0].throughput_kbps,
        "bulk Cubic should out-consume a rate-limited video call"
    );

    // Non-contention cells carry no fairness column.
    let scheme_matrix = ScenarioMatrix::builder("plain")
        .schemes([Scheme::Cubic])
        .links([NetProfile::TmobileUmtsDown])
        .timing(Duration::from_secs(12), Duration::from_secs(2))
        .build();
    let plain = SweepEngine::new(17).run(&scheme_matrix);
    assert_eq!(plain[0].fairness, None);
}

#[test]
fn contention_sweeps_are_thread_count_invariant() {
    let _g = CACHE_LOCK.lock().unwrap();
    support::cache_outside_the_checkout();
    let m = tiny_matrix();
    let one = SweepEngine::new(23).with_threads(1).run(&m);
    let four = SweepEngine::new(23).with_threads(4).run(&m);
    assert_eq!(
        sweep_to_json(m.name(), 23, &one),
        sweep_to_json(m.name(), 23, &four),
        "contention cells must be bit-identical for any thread count"
    );
    let json = sweep_to_json(m.name(), 23, &one);
    assert!(
        json.contains("\"fairness\":0.") || json.contains("\"fairness\":1"),
        "the canonical JSON carries the fairness column: {json}"
    );
}

#[test]
fn contention_shard_merge_reassembles_bit_identically_with_fairness() {
    let _g = CACHE_LOCK.lock().unwrap();
    let m = tiny_matrix();

    sprout_cache::set_dir(temp_cache_dir("single"));
    let single = SweepEngine::new(31).with_threads(1).run(&m);
    let want = sweep_to_json(m.name(), 31, &single);

    sprout_cache::set_dir(temp_cache_dir("shared"));
    SweepEngine::new(31)
        .with_shard(ShardSpec::new(0, 2))
        .run(&m);
    SweepEngine::new(31)
        .with_shard(ShardSpec::new(1, 2))
        .run(&m);
    let merged = SweepEngine::new(31)
        .with_policy(CellCachePolicy::Merge)
        .run(&m);
    assert_eq!(
        sweep_to_json(m.name(), 31, &merged),
        want,
        "2-shard + merge must reassemble the single-process sweep"
    );
    assert!(
        merged.iter().all(|r| r.fairness.is_some()),
        "fairness must survive the cell-cache round trip"
    );
    assert_eq!(
        merged[0].fairness, single[0].fairness,
        "cached fairness must be the executed value"
    );

    sprout_cache::reset_override();
}
