//! A one-way Sprout pair runs one Bayesian model. The saturating data
//! sender of every Sprout pair (`sprout_data_sender`) forecasts the
//! reverse link with the EWMA, and that must change no bit of any cell:
//! the data receiver never has a byte to send, so the sender's forecast
//! reaches nothing but the forecast field of its own headers.
//!
//! The oracle: each cell below, executed by the engine, equals — every
//! `SchemeResult` field and every flow row, compared by `to_bits` — the
//! same cell driven by hand through a pair whose data sender runs the
//! Bayesian forecaster, as every Sprout pair did before. The run config
//! and the paths are rebuilt from public pieces. One test in its own
//! binary: it reads the process-global table counters.

use sprout_baselines::{Cubic, TcpReceiver, TcpSender};
use sprout_bench::executor::execute_scenario;
use sprout_bench::scenario::paired;
use sprout_bench::{
    FlowSpec, FlowSummary, LinkSpec, QueueSpec, ResolvedQueue, RunConfig, ScenarioMatrix, Scheme,
    SchemeResult, SweepResult,
};
use sprout_core::{table_memory_counters, SproutConfig, SproutEndpoint};
use sprout_sim::{
    direction_stats, jain_fairness_index, CoDelConfig, Endpoint, FlowId, LinkImpairment,
    MuxEndpoint, PathConfig, QueueConfig, Simulation, DEEP_QUEUE_BYTES,
};
use sprout_trace::{
    derive_labeled_seed, Duration, Impairment, NetProfile, OutageSchedule, Timestamp, Trace,
};

const SEED: u64 = 20_130_401;

/// Every condition the oracle covers, one matrix each: the two links and
/// the measured excerpt at both ends of the confidence axis.
fn matrices(measured: LinkSpec) -> Vec<ScenarioMatrix> {
    let links = [
        LinkSpec::Profile(NetProfile::VerizonLteDown),
        LinkSpec::Profile(NetProfile::TmobileUmtsUp),
        measured,
    ];
    let sprout = |name: &str| {
        ScenarioMatrix::builder(name)
            .schemes([Scheme::Sprout])
            .links(links)
            .confidences_pct([95.0, 5.0])
            .timing(Duration::from_secs(6), Duration::from_secs(1))
    };
    vec![
        sprout("one-way-clean").build(),
        sprout("one-way-storm")
            .impairments([Impairment::preset("storm").expect("built-in preset")])
            .build(),
        sprout("one-way-loss").loss_rates([0.05]).build(),
        sprout("one-way-codel").queue(QueueSpec::CoDel).build(),
        ScenarioMatrix::builder("one-way-contention")
            .contention([vec![
                FlowSpec::Scheme(Scheme::Sprout),
                FlowSpec::Scheme(Scheme::Cubic),
            ]])
            .links([NetProfile::VerizonLteDown])
            .timing(Duration::from_secs(6), Duration::from_secs(1))
            .build(),
    ]
}

/// The link trace a cell replays, resolved the way the engine does.
fn trace_for(link: LinkSpec, duration: Duration) -> Trace {
    match link {
        LinkSpec::Profile(profile) => profile.generate(duration, SEED),
        LinkSpec::Measured { fingerprint } => sprout_trace::lookup_trace(fingerprint)
            .expect("registered above")
            .truncated(Timestamp::ZERO + duration),
    }
}

/// The engine's run config of `result`'s cell, rebuilt.
fn run_config(result: &SweepResult) -> RunConfig {
    let cell = &result.scenario;
    let cell_seed = derive_labeled_seed(SEED, "cell", cell.id);
    assert_eq!(cell_seed, result.cell_seed, "{}: cell seed", cell.label);
    RunConfig {
        duration: cell.duration,
        warmup: cell.warmup,
        prop_delay: cell.prop_delay,
        loss_rate: cell.loss_rate,
        sprout: match cell.confidence_pct {
            Some(pct) => SproutConfig::with_confidence_percent(pct),
            None => SproutConfig::paper(),
        },
        impairment: cell.impairment,
        serve_seed: cell_seed,
        ..RunConfig::new(
            trace_for(cell.link, cell.duration),
            trace_for(paired(cell.link), cell.duration),
        )
    }
    .seeded(cell_seed)
}

/// Both directions' paths: the resolved queue on both, per-direction
/// loss and impairment streams, one outage schedule shared by the pair.
fn path_configs(rc: &RunConfig, queue: ResolvedQueue) -> (PathConfig, PathConfig) {
    let outages = rc
        .impairment
        .outage
        .map(|spec| OutageSchedule::generate(&spec, rc.outage_seed, rc.duration))
        .unwrap_or_default();
    let path = |trace: &Trace, loss_seed, impair_seed| {
        let mut cfg = PathConfig::standard(trace.clone()).with_prop_delay(rc.prop_delay);
        cfg.link.queue = match queue {
            ResolvedQueue::DropTail => QueueConfig::DropTailBytes(DEEP_QUEUE_BYTES),
            ResolvedQueue::DropTailBytes(cap) => QueueConfig::DropTailBytes(cap),
            ResolvedQueue::CoDel => QueueConfig::CoDel(CoDelConfig::default()),
        };
        if rc.loss_rate > 0.0 {
            cfg.link.loss_rate = rc.loss_rate;
            cfg.link.loss_seed = loss_seed;
        }
        if !rc.impairment.is_none() {
            cfg.link.impair =
                LinkImpairment::from_spec(&rc.impairment, impair_seed, outages.clone());
        }
        cfg
    };
    (
        path(&rc.data_trace, rc.loss_seed_data, rc.impair_seed_data),
        path(
            &rc.feedback_trace,
            rc.loss_seed_feedback,
            rc.impair_seed_feedback,
        ),
    )
}

/// The data sender every Sprout pair had before: the Bayesian model.
fn bayesian_sender(cfg: &SproutConfig) -> SproutEndpoint {
    let mut a = SproutEndpoint::new(cfg.clone());
    a.set_saturating();
    a
}

/// What the comparison sees of one cell.
#[derive(Debug, PartialEq)]
struct Bits {
    metrics: [u64; 8],
    flows: Vec<[u64; 3]>,
    fairness: Option<u64>,
}

fn bits(metrics: &SchemeResult, flows: &[FlowSummary], fairness: Option<f64>) -> Bits {
    // Destructured, so a new field cannot escape the comparison.
    let SchemeResult {
        throughput_kbps,
        p95_delay_ms,
        self_inflicted_ms,
        omniscient_ms,
        utilization,
        outages,
        recovery_ms,
        degraded_delivery,
    } = *metrics;
    Bits {
        metrics: [
            throughput_kbps.to_bits(),
            p95_delay_ms.to_bits(),
            self_inflicted_ms.to_bits(),
            omniscient_ms.to_bits(),
            utilization.to_bits(),
            u64::from(outages),
            recovery_ms.to_bits(),
            degraded_delivery.to_bits(),
        ],
        flows: flows
            .iter()
            .map(|f| {
                [
                    u64::from(f.flow),
                    f.throughput_kbps.to_bits(),
                    f.p95_delay_ms.to_bits(),
                ]
            })
            .collect(),
        fairness: fairness.map(f64::to_bits),
    }
}

/// Drive `a` → `b` over the cell's paths and reduce the data direction
/// as the engine does: the standard metrics, then one row per flow.
fn reduce<A: Endpoint, B: Endpoint>(
    sim: &mut Simulation<A, B>,
    rc: &RunConfig,
    flows: &[FlowId],
) -> Bits {
    let (from, end) = (Timestamp::ZERO + rc.warmup, Timestamp::ZERO + rc.duration);
    sim.run_until(end);
    let metrics = SchemeResult::from_stats(&direction_stats(sim.ab_path(), from, end));
    let m = sim.ab_metrics();
    let rows: Vec<FlowSummary> = flows
        .iter()
        .map(|&flow| FlowSummary {
            flow: flow.0,
            throughput_kbps: m.flow_throughput_kbps(flow, from, end),
            p95_delay_ms: m
                .flow_p95_delay(flow, from, end)
                .map(|d| d.as_micros() as f64 / 1e3)
                .unwrap_or(f64::NAN),
        })
        .collect();
    let fairness = (!rows.is_empty())
        .then(|| jain_fairness_index(&rows.iter().map(|f| f.throughput_kbps).collect::<Vec<_>>()))
        .flatten();
    bits(&metrics, &rows, fairness)
}

/// The cell driven by hand with a Bayesian data sender.
fn reference(result: &SweepResult) -> Bits {
    let rc = run_config(result);
    let (ab, ba) = path_configs(&rc, result.queue);
    let label = &result.scenario.label;
    match result.scenario.workload.contention_flows() {
        None => {
            let a = bayesian_sender(&rc.sprout);
            let b = SproutEndpoint::new(rc.sprout.clone());
            let mut sim = Simulation::new(a, b, ab, ba);
            let out = reduce(&mut sim, &rc, &[]);
            assert_eq!(
                sim.b.stats().data_packets_sent,
                0,
                "{label}: the data receiver sent data"
            );
            assert!(
                sim.b.stats().control_packets_sent > 0,
                "{label}: no feedback"
            );
            out
        }
        Some(specs) => {
            assert_eq!(
                specs,
                [
                    FlowSpec::Scheme(Scheme::Sprout),
                    FlowSpec::Scheme(Scheme::Cubic)
                ]
            );
            let (mut a, mut b) = (MuxEndpoint::new(), MuxEndpoint::new());
            a.add(FlowId(1), Box::new(bayesian_sender(&rc.sprout)));
            b.add(FlowId(1), Box::new(SproutEndpoint::new(rc.sprout.clone())));
            a.add(FlowId(2), Box::new(TcpSender::new(Box::new(Cubic::new()))));
            b.add(FlowId(2), Box::new(TcpReceiver::new()));
            reduce(
                &mut Simulation::new(a, b, ab, ba),
                &rc,
                &[FlowId(1), FlowId(2)],
            )
        }
    }
}

#[test]
fn a_one_way_sprout_pair_runs_one_bayesian_model_and_moves_no_bit() {
    let excerpt = format!(
        "{}/../trace/tests/data/downlink-excerpt.trace",
        env!("CARGO_MANIFEST_DIR")
    );
    let measured = LinkSpec::Measured {
        fingerprint: sprout_trace::register_trace_file(excerpt).expect("committed excerpt"),
    };
    let mut cells = 0;
    for matrix in matrices(measured) {
        for cell in matrix.cells() {
            let before = table_memory_counters();
            let engine = execute_scenario(matrix.name(), cell, SEED);
            let lookups = table_memory_counters().since(before);
            let label = &cell.label;
            assert_eq!(
                lookups.built + lookups.reused,
                1,
                "{label}: one Bayesian model per one-way pair"
            );
            let metrics = engine.metrics.expect("direction metrics");
            assert!(metrics.throughput_kbps > 0.0, "{label}: nothing delivered");
            assert_eq!(
                bits(&metrics, &engine.flows, engine.fairness),
                reference(&engine),
                "{label}: an EWMA data sender moved a bit"
            );
            cells += 1;
        }
    }
    assert_eq!(cells, 4 * 6 + 1);
}
