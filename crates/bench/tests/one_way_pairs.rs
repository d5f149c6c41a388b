//! A one-way Sprout pair runs one Bayesian model. The saturating data
//! sender of every Sprout pair (`sprout_data_sender`) forecasts the
//! reverse link with the EWMA, and that must change no bit of any cell:
//! the data receiver never has a byte to send, so the sender's forecast
//! reaches nothing but the forecast field of its own headers.
//!
//! The oracle: each cell below, executed by the engine, equals — every
//! `SchemeResult` field and every flow row, compared by `to_bits` — the
//! same cell driven by hand through a pair whose data sender runs the
//! Bayesian forecaster, as every Sprout pair did before. The traces, the
//! run config and the paths are the engine's own (`LinkSpec::trace`,
//! `RunConfig::for_cell`, `RunConfig::paths`). One test in its own
//! binary: it reads the process-global table counters.

use sprout_baselines::{Cubic, TcpReceiver, TcpSender};
use sprout_bench::executor::execute_scenario;
use sprout_bench::scenario::paired;
use sprout_bench::{
    FlowSpec, FlowSummary, LinkSpec, QueueSpec, RunConfig, ScenarioMatrix, Scheme, SchemeResult,
    SweepResult,
};
use sprout_core::{table_memory_counters, SproutConfig, SproutEndpoint};
use sprout_sim::{direction_stats, jain_fairness_index, Endpoint, FlowId, MuxEndpoint, Simulation};
use sprout_trace::{derive_labeled_seed, Duration, Impairment, NetProfile, Timestamp};

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
        sprout("one-way-codel").queues([QueueSpec::CoDel]).build(),
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
    let cell = &result.scenario;
    let trace = |link: LinkSpec| link.trace(cell.duration, SEED);
    let rc = RunConfig::for_cell(
        cell,
        result.cell_seed,
        trace(cell.link),
        trace(paired(cell.link)),
    );
    let (ab, ba) = rc.paths(result.queue);
    let label = &cell.label;
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
                engine.cell_seed,
                derive_labeled_seed(SEED, "cell", cell.id),
                "{label}: cell seed"
            );
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
