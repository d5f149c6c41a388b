//! The new scenario axes, end to end: hand-built standard paths must run
//! the engine's deep default queue, shallow byte caps must actually bind
//! (and be accounted), the propagation delay must shift the omniscient
//! floor exactly and floor measured RTTs, and app-over-transport cells
//! must run over Sprout and over a baseline scheme.

use sprout_baselines::{Cubic, TcpReceiver, TcpSender};
use sprout_bench::scenario::paired;
use sprout_bench::sweep::{execute_scenario, BULK_FLOW, INTERACTIVE_FLOW};
use sprout_bench::{
    build_endpoints, QueueSpec, RunConfig, ScenarioMatrix, Scheme, SchemeResult, SweepEngine,
    TraceMemo, VideoApp,
};
use sprout_sim::{direction_stats, PathConfig, QueueConfig, Simulation};
use sprout_trace::{Duration, NetProfile, Timestamp};

const SEED: u64 = 7;

/// Each cell's metrics, executed one by one on the engine's path.
fn metrics_of(m: &ScenarioMatrix) -> Vec<SchemeResult> {
    m.cells()
        .iter()
        .map(|cell| {
            execute_scenario(m.name(), cell, SEED)
                .metrics
                .expect("scheme cells produce metrics")
        })
        .collect()
}

/// Cubic, the sweep's worst queue-builder, for 60 s on the paper's
/// headline link, behind `queues`.
fn cubic_fig7(queues: impl IntoIterator<Item = QueueSpec>) -> ScenarioMatrix {
    ScenarioMatrix::builder("fig7")
        .schemes([Scheme::Cubic])
        .links([NetProfile::VerizonLteDown])
        .queues(queues)
        .timing(Duration::from_secs(60), Duration::from_secs(10))
        .build()
}

/// A cell's run config over the traces the engine resolves for it (the
/// pre-axes execution shape, for tests that build paths by hand).
fn hand_rc(m: &ScenarioMatrix) -> RunConfig {
    let cell = &m.cells()[0];
    let memo = TraceMemo::new(SEED);
    let data = memo.link(cell.link, cell.duration).trace().clone();
    let feedback = memo.link(paired(cell.link), cell.duration).trace().clone();
    RunConfig {
        duration: cell.duration,
        warmup: cell.warmup,
        ..RunConfig::new(data, feedback)
    }
}

/// The engine's default DropTail and `PathConfig::standard` are one
/// queue: a Cubic cell on hand-built standard paths (which built the
/// unbounded queue the deep default replaced), queue untouched, equals
/// the engine's `ResolvedQueue::DropTail` cell bit for bit.
#[test]
fn deep_default_queue_matches_old_unbounded_fig7_behavior() {
    let m = cubic_fig7([QueueSpec::DropTail]);
    let engine = metrics_of(&m).remove(0);
    let rc = hand_rc(&m);
    let (a, b) = build_endpoints(Scheme::Cubic, &rc);
    let data = PathConfig::standard(rc.data_trace.clone());
    let feedback = PathConfig::standard(rc.feedback_trace.clone());
    let mut sim = Simulation::new(a, b, data, feedback);
    let end = Timestamp::ZERO + rc.duration;
    sim.run_until(end);
    let standard = SchemeResult::from_stats(&direction_stats(
        sim.ab_path(),
        Timestamp::ZERO + rc.warmup,
        end,
    ));
    // Compare the Debug renderings: unimpaired cells carry NaN
    // degradation sentinels, and NaN != NaN under derived PartialEq.
    assert_eq!(
        format!("{standard:?}"),
        format!("{engine:?}"),
        "a standard path must run the engine's deep default queue"
    );
    assert!(engine.p95_delay_ms > 100.0, "cubic must still bufferbloat");
}

/// The shallow end of the queue-depth axis must actually bind: a small
/// byte cap changes Cubic's results and registers drops at the link.
#[test]
fn shallow_byte_cap_binds_and_is_accounted() {
    let m = cubic_fig7([QueueSpec::DropTail, QueueSpec::DropTailBytes(30_000)]);
    let [deep, shallow] = <[SchemeResult; 2]>::try_from(metrics_of(&m)).unwrap();
    assert!(
        shallow.p95_delay_ms < deep.p95_delay_ms,
        "a 20-MTU buffer must curb Cubic's standing-queue delay ({} vs {})",
        shallow.p95_delay_ms,
        deep.p95_delay_ms
    );

    // Same condition at the sim layer: the cap's drops are counted.
    let rc = hand_rc(&m);
    let (a, b) = build_endpoints(Scheme::Cubic, &rc);
    let mut data = PathConfig::standard(rc.data_trace.clone());
    data.link.queue = QueueConfig::DropTailBytes(30_000);
    let mut sim = Simulation::new(a, b, data, PathConfig::standard(rc.feedback_trace.clone()));
    sim.run_until(Timestamp::ZERO + rc.duration);
    assert!(
        sim.ab_path().link().queue_drops() > 0,
        "an overdriven 30 kB cap must tail-drop"
    );
}

/// The prop-delay axis moves the omniscient floor by exactly the
/// configured difference and floors every measured delay.
#[test]
fn prop_delay_shifts_floor_exactly_and_floors_p95() {
    let m = ScenarioMatrix::builder("prop-delay")
        .schemes([Scheme::SproutEwma])
        .links([NetProfile::TmobileUmtsDown])
        .prop_delays_ms([20, 100])
        .timing(Duration::from_secs(40), Duration::from_secs(6))
        .build();
    let [near, far] = <[SchemeResult; 2]>::try_from(metrics_of(&m)).unwrap();
    assert!(
        (far.omniscient_ms - near.omniscient_ms - 80.0).abs() < 1e-9,
        "omniscient floor must shift by exactly 80 ms ({} -> {})",
        near.omniscient_ms,
        far.omniscient_ms
    );
    assert!(near.p95_delay_ms >= 20.0 && far.p95_delay_ms >= 100.0);
}

/// End-to-end RTT floor: with one-way propagation `d` in each
/// direction, no measured round trip beats 2·d.
#[test]
fn measured_rtt_never_beats_twice_the_one_way_delay() {
    let d = Duration::from_millis(40);
    let down = NetProfile::TmobileUmtsDown.generate(Duration::from_secs(30), 5);
    let up = NetProfile::TmobileUmtsUp.generate(Duration::from_secs(30), 6);
    let mut sim = Simulation::new(
        TcpSender::new(Box::new(Cubic::new())),
        TcpReceiver::new(),
        PathConfig::standard(down).with_prop_delay(d),
        PathConfig::standard(up).with_prop_delay(d),
    );
    sim.run_until(Timestamp::from_millis(30_000));
    let min_rtt = sim.a.rtt().min_rtt().expect("the transfer measured RTTs");
    assert!(
        min_rtt >= Duration::from_millis(80),
        "min RTT {min_rtt} beat the 2x40 ms propagation floor"
    );
}

/// Acceptance: the video apps run as workloads over Sprout (inside a
/// SproutTunnel) and over a baseline transport (sharing the carrier
/// queue with a bulk flow), on the engine's normal execution path.
#[test]
fn app_workloads_run_over_sprout_and_over_cubic() {
    let m = ScenarioMatrix::builder("apps")
        .apps([VideoApp::Skype], [Scheme::Sprout, Scheme::Cubic])
        .links([NetProfile::VerizonLteDown])
        .timing(Duration::from_secs(30), Duration::from_secs(5))
        .build();
    let results = SweepEngine::new(3).run(&m);
    assert_eq!(results.len(), 2);

    let over_sprout = &results[0];
    assert_eq!(
        over_sprout.scenario.workload.app(),
        Some((VideoApp::Skype, Scheme::Sprout))
    );
    assert_eq!(
        over_sprout.flows.len(),
        1,
        "tunneled app cells report the app flow only"
    );
    let app_flow = &over_sprout.flows[0];
    assert_eq!(app_flow.flow, INTERACTIVE_FLOW.0);
    assert!(
        app_flow.throughput_kbps > 0.0,
        "the app's frames got through"
    );
    assert!(app_flow.p95_delay_ms.is_finite());

    let over_cubic = &results[1];
    assert_eq!(
        over_cubic.scenario.workload.app(),
        Some((VideoApp::Skype, Scheme::Cubic))
    );
    let flows: Vec<u32> = over_cubic.flows.iter().map(|f| f.flow).collect();
    assert_eq!(
        flows,
        vec![BULK_FLOW.0, INTERACTIVE_FLOW.0],
        "mux app cells report bulk and app flows"
    );
    assert!(over_cubic.flows.iter().all(|f| f.throughput_kbps > 0.0));
    assert!(
        over_cubic.metrics.unwrap().throughput_kbps > over_sprout.metrics.unwrap().throughput_kbps,
        "cubic bulk saturates the link harder than a lone tunneled app"
    );
}
