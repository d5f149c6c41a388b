//! A Sprout server ticks its due sessions in three passes — every
//! receiver tick, then every forecast, then every poll — and that must
//! change no bit of any serve cell. The oracle: each cell below, executed
//! by the engine, equals the same cell driven by hand through a server
//! that polls each due session to completion before the next one starts,
//! the order `SproutServer` used before the split. Both hand-driven runs
//! (the production server and the session-by-session one) are also
//! compared session by session, so a mix-up between sessions cannot hide
//! in the cell's aggregates. The `storm` cells give every session its own
//! impairment streams, so the sessions of one cell differ; the run config
//! and the paths are rebuilt from public pieces.

use sprout_bench::executor::execute_scenario;
use sprout_bench::scenario::paired;
use sprout_bench::{
    sprout_data_sender, LinkSpec, ResolvedQueue, RunConfig, ScenarioMatrix, SchemeResult,
    ServeStats, SweepResult,
};
use sprout_core::{SessionPool, SproutConfig};
use sprout_sim::{
    direction_stats, jain_fairness_index, CoDelConfig, Endpoint, FlowId, LinkImpairment,
    PathConfig, QueueConfig, ServeSim, TimerWheel, DEEP_QUEUE_BYTES,
};
use sprout_trace::{
    derive_labeled_seed, session_seed, Duration, Impairment, NetProfile, OutageSchedule, Timestamp,
    Trace,
};
use sprout_tunnel::SproutServer;

const SEED: u64 = 20_130_401;

/// The server as it polled before the phase split: each due session
/// ticks, forecasts and sends before the next due session starts.
struct SessionBySession {
    pool: SessionPool,
    wheel: TimerWheel,
    dirty: Vec<bool>,
    next_deadline: Option<Timestamp>,
}

impl SessionBySession {
    fn new(cfg: SproutConfig, cell_seed: u64, sessions: u32) -> Self {
        let mut server = SessionBySession {
            pool: SessionPool::new(cfg, cell_seed),
            wheel: TimerWheel::new(),
            dirty: Vec::new(),
            next_deadline: None,
        };
        for sid in 1..=sessions {
            let idx = server.pool.add_session(sid);
            server.dirty.push(false);
            let wakeup = server.pool.endpoint_mut(idx).next_wakeup();
            server.wheel.schedule(idx, wakeup);
        }
        server.next_deadline = server.wheel.next_deadline();
        server
    }

    fn poll_session(&mut self, idx: usize, now: Timestamp, out: &mut Vec<sprout_sim::Packet>) {
        self.dirty[idx] = false;
        let endpoint = self.pool.endpoint_mut(idx);
        endpoint.poll_into(now, out);
        let wakeup = endpoint.next_wakeup();
        self.wheel.schedule(idx, wakeup);
    }
}

impl Endpoint for SessionBySession {
    fn on_packet(&mut self, packet: sprout_sim::Packet, now: Timestamp) {
        if let Some(idx) = self.pool.index_of(packet.flow.0) {
            self.pool.endpoint_mut(idx).on_packet(packet, now);
            self.dirty[idx] = true;
        }
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<sprout_sim::Packet>) {
        while let Some(idx) = self.wheel.pop_due(now) {
            self.poll_session(idx, now, out);
        }
        for idx in 0..self.dirty.len() {
            if self.dirty[idx] {
                self.poll_session(idx, now, out);
            }
        }
        self.next_deadline = self.wheel.next_deadline();
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        self.next_deadline
    }
}

/// The engine's run config of `result`'s cell, rebuilt.
fn run_config(result: &SweepResult) -> RunConfig {
    let cell = &result.scenario;
    let cell_seed = derive_labeled_seed(SEED, "cell", cell.id);
    assert_eq!(cell_seed, result.cell_seed, "{}: cell seed", cell.label);
    let trace = |link: LinkSpec| -> Trace {
        let LinkSpec::Profile(profile) = link else {
            panic!("{}: a profile link", cell.label)
        };
        profile.generate(cell.duration, SEED)
    };
    RunConfig {
        duration: cell.duration,
        warmup: cell.warmup,
        prop_delay: cell.prop_delay,
        loss_rate: cell.loss_rate,
        sprout: SproutConfig::paper(),
        impairment: cell.impairment,
        serve_seed: cell_seed,
        ..RunConfig::new(trace(cell.link), trace(paired(cell.link)))
    }
    .seeded(cell_seed)
}

/// One session's two paths: the resolved queue on both, per-direction
/// impairment streams from the session's seeds, one outage schedule
/// shared by the pair.
fn path_configs(rc: &RunConfig, queue: ResolvedQueue) -> (PathConfig, PathConfig) {
    let outages = rc
        .impairment
        .outage
        .map(|spec| OutageSchedule::generate(&spec, rc.outage_seed, rc.duration))
        .unwrap_or_default();
    let path = |trace: &Trace, impair_seed| {
        let mut cfg = PathConfig::standard(trace.clone()).with_prop_delay(rc.prop_delay);
        cfg.link.queue = match queue {
            ResolvedQueue::DropTail => QueueConfig::DropTailBytes(DEEP_QUEUE_BYTES),
            ResolvedQueue::DropTailBytes(cap) => QueueConfig::DropTailBytes(cap),
            ResolvedQueue::CoDel => QueueConfig::CoDel(CoDelConfig::default()),
        };
        assert_eq!(rc.loss_rate, 0.0, "no loss axis in these cells");
        if !rc.impairment.is_none() {
            cfg.link.impair =
                LinkImpairment::from_spec(&rc.impairment, impair_seed, outages.clone());
        }
        cfg
    };
    (
        path(&rc.data_trace, rc.impair_seed_data),
        path(&rc.feedback_trace, rc.impair_seed_feedback),
    )
}

/// What the comparison sees of one serve run: the cell's serve column
/// and fairness as the engine reduces them, and every session's uplink
/// metrics.
#[derive(Debug, PartialEq)]
struct Run {
    serve: [u64; 5],
    fairness: Option<u64>,
    sessions: Vec<[u64; 8]>,
}

fn serve_bits(serve: &ServeStats) -> [u64; 5] {
    // Destructured, so a new field cannot escape the comparison.
    let ServeStats {
        sessions,
        delivered_bytes,
        min_session_bytes,
        max_session_bytes,
        wire_delivered_bytes,
    } = *serve;
    [
        u64::from(sessions),
        delivered_bytes,
        min_session_bytes,
        max_session_bytes,
        wire_delivered_bytes,
    ]
}

fn metric_bits(m: &SchemeResult) -> [u64; 8] {
    [
        m.throughput_kbps.to_bits(),
        m.p95_delay_ms.to_bits(),
        m.self_inflicted_ms.to_bits(),
        m.omniscient_ms.to_bits(),
        m.utilization.to_bits(),
        u64::from(m.outages),
        m.recovery_ms.to_bits(),
        m.degraded_delivery.to_bits(),
    ]
}

/// Drive `server` and one EWMA data sender per session over the cell's
/// per-session paths, then reduce as the engine's serve arm does.
fn drive<S: Endpoint>(server: S, rc: &RunConfig, queue: ResolvedQueue, n: u32) -> Run {
    let (from, end) = (Timestamp::ZERO + rc.warmup, Timestamp::ZERO + rc.duration);
    let mut sim = ServeSim::new(server);
    for sid in 1..=n {
        let src = rc.clone().seeded(session_seed(rc.serve_seed, sid));
        let (up, down) = path_configs(&src, queue);
        let mut client = sprout_data_sender(&rc.sprout);
        client.set_flow(FlowId(sid));
        sim.add_session(FlowId(sid), client, up, down);
    }
    sim.run_until(end);
    let window: Vec<u64> = (0..n as usize)
        .map(|i| sim.up_path(i).metrics().delivered_bytes(from, end, None))
        .collect();
    let throughputs: Vec<f64> = (0..n as usize)
        .map(|i| sim.up_path(i).metrics().throughput_kbps(from, end))
        .collect();
    Run {
        serve: serve_bits(&ServeStats {
            sessions: n,
            delivered_bytes: window.iter().sum(),
            min_session_bytes: window.iter().copied().min().unwrap_or(0),
            max_session_bytes: window.iter().copied().max().unwrap_or(0),
            wire_delivered_bytes: sim.delivered_to_server_bytes(),
        }),
        fairness: jain_fairness_index(&throughputs).map(f64::to_bits),
        sessions: (0..n as usize)
            .map(|i| {
                let stats = direction_stats(sim.up_path(i), from, end);
                metric_bits(&SchemeResult::from_stats(&stats))
            })
            .collect(),
    }
}

#[test]
fn a_server_that_ticks_its_due_sessions_in_phases_moves_no_bit() {
    let matrix = ScenarioMatrix::builder("serve-phases")
        .serve([1, 4, 16])
        .links([NetProfile::VerizonLteDown, NetProfile::TmobileUmtsUp])
        .impairments(["none", "storm"].map(|p| Impairment::preset(p).expect("built-in preset")))
        .timing(Duration::from_secs(4), Duration::from_secs(1))
        .build();
    let mut cells = 0;
    let mut differing = 0;
    for cell in matrix.cells() {
        let label = &cell.label;
        let engine = execute_scenario(matrix.name(), cell, SEED);
        let n = cell.workload.serve_sessions().expect("a serve cell");
        let rc = run_config(&engine);
        let mut server = SproutServer::new(rc.sprout.clone(), rc.serve_seed);
        for sid in 1..=n {
            server.add_session(sid);
        }
        let phased = drive(server, &rc, engine.queue, n);
        let reference = drive(
            SessionBySession::new(rc.sprout.clone(), rc.serve_seed, n),
            &rc,
            engine.queue,
            n,
        );
        let serve = engine.serve.as_ref().expect("a serve column");
        assert!(serve.delivered_bytes > 0, "{label}: nothing delivered");
        assert_eq!(
            (serve_bits(serve), engine.fairness.map(f64::to_bits)),
            (reference.serve, reference.fairness),
            "{label}: the engine's serve cell moved a bit"
        );
        assert_eq!(phased, reference, "{label}: the phased server moved a bit");
        differing += usize::from(reference.sessions.windows(2).any(|w| w[0] != w[1]));
        cells += 1;
    }
    assert_eq!(cells, 3 * 2 * 2);
    // The storm cells of more than one session: sessions that differ.
    assert_eq!(
        differing,
        2 * 2,
        "per-session streams must make sessions differ"
    );
}
