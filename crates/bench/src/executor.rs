//! The cell executor: one scenario in, one [`SweepResult`] out.
//!
//! [`execute_scenario`] resolves a cell's link inputs through the
//! sweep's [`TraceMemo`] — a link's slot holds its trace and the
//! omniscient floors computed from it, so every cell of a link shares one
//! synthesis, one trace allocation and one floor per measurement window —
//! derives its run config and paths ([`RunConfig::for_cell`],
//! [`RunConfig::paths`]), builds the workload's endpoints, runs the
//! simulation, and reduces the measured direction's delivery log into the
//! record's [`Measured`] part. Nothing here knows about threads, shards,
//! or the result cache — that is `crate::sweep`.

use std::sync::{Arc, Mutex, PoisonError};

use sprout_baselines::VideoApp;
use sprout_sim::{
    direction_stats_with_floor, jain_fairness_index, omniscient_p95_delay, Endpoint, FlowId,
    MetricsCollector, MuxEndpoint, PathConfig, ServeSim, Simulation,
};
use sprout_trace::{
    derive_labeled_seed, session_seed, Duration, InterarrivalHistogram, Timestamp, Trace,
};
use sprout_tunnel::{SproutServer, TunnelEndpoint, TunnelHost};

use crate::record::{
    CellSeries, CellSeriesBin, FlowSummary, InterarrivalSummary, Measured, SchemeResult, SeriesRow,
    ServeStats, SweepResult,
};
use crate::scenario::{paired, FlowSpec, LinkSpec, ResolvedQueue, Scenario, Workload};
use crate::schemes::{
    app_endpoints, build_endpoints, sprout_data_sender, sprout_endpoint, with_endpoints,
    PairVisitor, RunConfig, Scheme,
};

/// Built / reused counts of every sweep's [`TraceMemo`].
static TRACE_COUNTERS: sprout_core::MemoCounters = sprout_core::MemoCounters::zeroed();

/// Process-wide in-memory trace amortization counters: `built` counts
/// link-trace syntheses actually performed, `reused` counts requests
/// served by an already-synthesized in-memory trace (the sweep memo).
pub fn trace_memory_counters() -> sprout_core::MemCounters {
    TRACE_COUNTERS.memory()
}

/// The bulk flow of the §5.7 mux/tunnel cells.
pub const BULK_FLOW: FlowId = FlowId(1);
/// The interactive flow of the §5.7 mux/tunnel cells.
pub const INTERACTIVE_FLOW: FlowId = FlowId(2);

/// Per-worker arena recycled across the cells a worker runs: the
/// event-loop packet buffer and the measured directions' delivery logs
/// ([`Simulation::into_scratch`], [`ServeSim::into_scratch`]), whose
/// capacity is worth keeping warm between simulations. Contents never
/// carry over — each cell clears before use — so recycling is invisible
/// to results.
pub type CellScratch = sprout_sim::SimScratch;

/// Lazily resolved link inputs shared by every cell of one sweep, keyed
/// by `(link, duration)`. A slot is a [`LinkInputs`]: the trace, and the
/// floors derived from it. The memo keeps every key the sweep asks for
/// and is dropped with the sweep, so its traces die with it. Values are
/// byte-identical to what a cell would build locally: synthetic links
/// depend only on `(master_seed, profile, duration)`, measured links
/// only on `(capture bytes, duration)` — so memoization cannot change
/// results. Synthesis happens inside the requesting cell's thread (under
/// its watchdog), first-come: concurrent requesters of one key share a
/// per-key `OnceLock` build slot and block only on that key.
pub struct TraceMemo {
    master_seed: u64,
    slots: sprout_core::Memo<(LinkSpec, Duration), Arc<LinkInputs>>,
}

/// Arguments of one omniscient floor on a given trace: `(prop_delay,
/// from, to)`.
type FloorKey = (Duration, Timestamp, Timestamp);

/// What every cell on one `(link, duration)` shares: the trace (one
/// allocation; [`Trace::clone`] is a reference count) and the omniscient
/// floors computed from it, memoised by their full argument tuple. The
/// floors live and die with the trace they were computed from — dropping
/// the memo drops both.
pub struct LinkInputs {
    trace: Trace,
    floors: Mutex<Vec<(FloorKey, Option<Duration>)>>,
}

impl LinkInputs {
    /// The link's delivery schedule.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// `omniscient_p95_delay(trace, prop_delay, from, to)`, computed on
    /// first request and remembered: the six schemes of a link ask for
    /// the same floor. Computed under the slot's lock, so a concurrent
    /// requester of the same floor waits for it instead of repeating it.
    pub fn floor(&self, prop_delay: Duration, from: Timestamp, to: Timestamp) -> Option<Duration> {
        let key = (prop_delay, from, to);
        let mut floors = self.floors.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&(_, floor)) = floors.iter().find(|(k, _)| *k == key) {
            return floor;
        }
        let floor = omniscient_p95_delay(&self.trace, prop_delay, from, to);
        floors.push((key, floor));
        floor
    }

    /// How many distinct floors this slot has computed (each exactly
    /// once). Test hook.
    #[doc(hidden)]
    pub fn floors_computed(&self) -> usize {
        let floors = self.floors.lock().unwrap_or_else(PoisonError::into_inner);
        floors.len()
    }
}

impl TraceMemo {
    /// An empty memo for one sweep at `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        TraceMemo {
            master_seed,
            slots: sprout_core::Memo::new(&TRACE_COUNTERS),
        }
    }

    /// The shared inputs of `(link, duration)`, resolving the trace
    /// ([`LinkSpec::trace`] at the master seed) on first use.
    pub fn link(&self, link: LinkSpec, duration: Duration) -> Arc<LinkInputs> {
        self.slots.get_or_build(&(link, duration), || {
            Arc::new(LinkInputs {
                trace: link.trace(duration, self.master_seed),
                floors: Mutex::default(),
            })
        })
    }
}

/// Execute one cell. Public so single-cell callers (`benchmark/`)
/// share the exact code path of full sweeps.
pub fn execute_scenario(matrix: &str, scenario: &Scenario, master_seed: u64) -> SweepResult {
    let memo = TraceMemo::new(master_seed);
    let mut scratch = CellScratch::default();
    execute_with_memo(matrix, scenario, master_seed, &memo, &mut scratch)
}

/// [`execute_scenario`] against a caller-held memo and scratch arena:
/// what the sweep's workers call, cell after cell.
pub fn execute_with_memo(
    matrix: &str,
    scenario: &Scenario,
    master_seed: u64,
    memo: &TraceMemo,
    scratch: &mut CellScratch,
) -> SweepResult {
    let started = std::time::Instant::now();
    let mut result = SweepResult::unmeasured(matrix, scenario, master_seed);
    result.measured = if scenario.workload == Workload::InterarrivalProbe {
        interarrival_probe(scenario, master_seed)
    } else {
        // Link traces derive from the master seed and link spec only:
        // every cell on this link sees the same conditions (the
        // controlled variable). Measured links resolve from the
        // process-global registry.
        let data = memo.link(scenario.link, scenario.duration);
        let feedback = memo.link(paired(scenario.link), scenario.duration);
        let rc = RunConfig::for_cell(
            scenario,
            result.cell_seed,
            data.trace().clone(),
            feedback.trace().clone(),
        );
        run_cell_scratch(scenario, &rc, result.queue, scratch, &data)
    };
    result.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    result
}

/// The probe workload has no endpoints: it analyses the saturated
/// link's own delivery process.
fn interarrival_probe(scenario: &Scenario, master_seed: u64) -> Measured {
    let trace_seed = derive_labeled_seed(master_seed, "interarrival-probe", 0);
    let trace = scenario.link.trace(scenario.duration, trace_seed);
    let hist = InterarrivalHistogram::from_trace(&trace, 10, 10_000.0);
    Measured {
        interarrival: Some(InterarrivalSummary {
            fraction_within_20ms: hist.fraction_within_ms(20.0),
            tail_slope: hist.tail_power_law_slope(20.0, 5_000.0),
            samples: hist.total(),
            rows: hist.rows().filter(|&(_, _, pct)| pct > 0.0).collect(),
        }),
        ..Measured::default()
    }
}

fn flow_summaries(
    flows: &[FlowId],
    m: &MetricsCollector,
    from: Timestamp,
    to: Timestamp,
) -> Vec<FlowSummary> {
    flows
        .iter()
        .copied()
        .map(|flow| FlowSummary {
            flow: flow.0,
            throughput_kbps: m.flow_throughput_kbps(flow, from, to),
            p95_delay_ms: m
                .flow_p95_delay(flow, from, to)
                .map(|d| d.as_micros() as f64 / 1e3)
                .unwrap_or(f64::NAN),
        })
        .collect()
}

/// The columns both time series share, one `(t_s, capacity_kbps,
/// throughput_kbps)` per bin of the measurement window `[from, to)`.
/// The throughput series covers every bin of the window; the capacity
/// series ends at the window's last delivery opportunity and so can fall
/// short. It is reconciled to the full window — trailing
/// opportunity-free bins carry zero capacity — so no bin (and no sample
/// landing in one) is silently dropped.
fn window_bins(
    m: &MetricsCollector,
    trace: &Trace,
    bin: Duration,
    from: Timestamp,
    to: Timestamp,
) -> Vec<(f64, f64, f64)> {
    let tput = m.throughput_series_kbps(bin, from, to);
    let mut capacity = trace.window(from, to).capacity_series_kbps(bin);
    let n = tput.len();
    debug_assert!(
        capacity.len() <= n,
        "capacity series ({} bins) outran the measurement window ({} bins)",
        capacity.len(),
        n
    );
    capacity.resize(n, 0.0);
    let bin_s = bin.as_secs_f64();
    (0..n)
        .map(|i| (i as f64 * bin_s, capacity[i], tput[i].1))
        .collect()
}

/// Fig. 1's rows: the shared window bins plus each bin's worst
/// per-arrival delay.
fn collect_series(
    m: &MetricsCollector,
    trace: &Trace,
    bin: Duration,
    from: Timestamp,
    to: Timestamp,
) -> Vec<SeriesRow> {
    let bins = window_bins(m, trace, bin, from, to);
    let mut worst: Vec<f64> = vec![0.0; bins.len()];
    for (at, d) in m.delay_series() {
        if at < from || at >= to {
            continue;
        }
        let key = ((at.as_micros() - from.as_micros()) / bin.as_micros()) as usize;
        if key < worst.len() {
            worst[key] = worst[key].max(d.as_micros() as f64 / 1e3);
        }
    }
    let rows = bins.into_iter().zip(worst);
    rows.map(
        |((t_s, capacity_kbps, throughput_kbps), worst_delay_ms)| SeriesRow {
            t_s,
            capacity_kbps,
            throughput_kbps,
            worst_delay_ms,
        },
    )
    .collect()
}

/// Collect the per-cell time series: every per-arrival delay sample in
/// the measurement window plus the shared window bins, each with its
/// queue depth. Queue depth is reconstructed from the delivery log alone
/// — each delivered packet was in flight from `delivered_at − delay` to
/// `delivered_at` — so cache hits can replay the artifact without the
/// trace or the simulation.
fn collect_cell_series(
    m: &MetricsCollector,
    trace: &Trace,
    bin: Duration,
    from: Timestamp,
    to: Timestamp,
) -> CellSeries {
    let mut delays: Vec<(f64, f64)> = Vec::new();
    // Flight events in absolute microseconds: +1 when a packet enters
    // the link, −1 when it is delivered.
    let mut events: Vec<(u64, i64)> = Vec::new();
    for (at, d) in m.delay_series() {
        if at < from || at >= to {
            continue;
        }
        let rel_us = at.as_micros() - from.as_micros();
        delays.push((rel_us as f64 / 1e6, d.as_micros() as f64 / 1e3));
        events.push((at.as_micros().saturating_sub(d.as_micros()), 1));
        events.push((at.as_micros(), -1));
    }
    events.sort_unstable();

    let mut depth: i64 = 0;
    let mut next_event = 0;
    let bins = window_bins(m, trace, bin, from, to)
        .into_iter()
        .enumerate()
        .map(|(i, (t_s, capacity_kbps, throughput_kbps))| {
            // Sample in-flight depth at the bin start: a packet counts
            // while `sent <= t < delivered`.
            let t = from.as_micros() + i as u64 * bin.as_micros();
            while next_event < events.len() && events[next_event].0 <= t {
                depth += events[next_event].1;
                next_event += 1;
            }
            CellSeriesBin {
                t_s,
                capacity_kbps,
                throughput_kbps,
                queue_depth: depth.max(0) as u64,
            }
        })
        .collect();
    CellSeries {
        bin_us: bin.as_micros(),
        delays,
        bins,
    }
}

/// One flow of a multi-flow cell: its id on the shared path, its sender
/// and its receiver.
type Flow = (FlowId, Box<dyn Endpoint>, Box<dyn Endpoint>);

/// What a multi-flow workload declares: its flows and, when they ride
/// inside a SproutTunnel session (§4.3), the carrier of that session.
/// Every multi-flow cell is this list run through [`mux_pair`] and, if
/// tunnelled, [`tunnel_pair`].
fn flows_of(workload: &Workload, rc: &RunConfig) -> (Vec<Flow>, Option<Scheme>) {
    let scheme = |flow: FlowId, scheme: Scheme| {
        let (sender, receiver) = build_endpoints(scheme, rc);
        (flow, sender, receiver)
    };
    let call = |app: VideoApp| {
        let (sender, receiver) = app_endpoints(app);
        let flow: Flow = (INTERACTIVE_FLOW, Box::new(sender), Box::new(receiver));
        flow
    };
    match workload {
        Workload::App { app, over } => {
            assert!(
                over.is_transport(),
                "app carrier must be a transport scheme, got {}",
                over.name()
            );
            if over.tunnels_apps() {
                (vec![call(*app)], Some(*over))
            } else {
                // Over any other transport the app's open-loop flow
                // shares the carrier queue with a bulk flow of that
                // scheme (§5.7 "direct", generalized from Cubic+Skype).
                (vec![scheme(BULK_FLOW, *over), call(*app)], None)
            }
        }
        // Flow i runs as FlowId(i + 1). An app flow is the tunnelled
        // single-flow cell, whole, as one child: the shared queue
        // carries that session's Sprout wire packets.
        Workload::Contention { flows } => {
            let child = |(i, spec): (usize, &FlowSpec)| {
                let flow = FlowId(i as u32 + 1);
                match *spec {
                    FlowSpec::Scheme(s) => scheme(flow, s),
                    FlowSpec::App { app, over } => {
                        let (a, b) = tunnel_pair(mux_pair(vec![call(app)]), over, rc);
                        (flow, Box::new(a) as _, Box::new(b) as _)
                    }
                }
            };
            (flows.iter().enumerate().map(child).collect(), None)
        }
        Workload::MuxDirect | Workload::MuxTunneled => (
            vec![
                scheme(BULK_FLOW, Scheme::Cubic),
                scheme(INTERACTIVE_FLOW, Scheme::Skype),
            ],
            (*workload == Workload::MuxTunneled).then_some(Scheme::Sprout),
        ),
        Workload::Scheme(_) | Workload::Serve { .. } | Workload::InterarrivalProbe => {
            unreachable!("{} cells are not flow lists", workload.id())
        }
    }
}

/// The two ends of a shared path carrying `flows`: senders behind one
/// mux, receivers behind the other.
fn mux_pair(flows: Vec<Flow>) -> (MuxEndpoint, MuxEndpoint) {
    let (mut a, mut b) = (MuxEndpoint::new(), MuxEndpoint::new());
    for (flow, sender, receiver) in flows {
        a.add(flow, sender);
        b.add(flow, receiver);
    }
    (a, b)
}

/// Wrap each end in one side of a SproutTunnel session (§4.3) carried by
/// `over`: the path between the hosts carries Sprout wire packets, the
/// far host decapsulates the clients' flows and logs them (the near
/// host's deliveries, the reverse direction's, are never read).
fn tunnel_pair(
    (a, b): (MuxEndpoint, MuxEndpoint),
    over: Scheme,
    rc: &RunConfig,
) -> (TunnelHost, TunnelHost) {
    let tunnel = || TunnelEndpoint::new(sprout_endpoint(over, rc));
    (
        TunnelHost::unlogged(tunnel(), a),
        TunnelHost::with_clients(tunnel(), b),
    )
}

/// The spine every two-endpoint workload shares: build the simulation
/// from the arena's recycled buffers, run it to `end`, take the data
/// direction's standard metrics against the link's `floor`, let `reduce`
/// add the workload's extras (series, per-flow rows, fairness), and hand
/// the buffers back.
fn run_pair<A: Endpoint, B: Endpoint>(
    a: A,
    b: B,
    (ab, ba): (PathConfig, PathConfig),
    scratch: &mut CellScratch,
    (from, end): (Timestamp, Timestamp),
    floor: impl FnOnce() -> Option<Duration>,
    reduce: impl FnOnce(&Simulation<A, B>, &mut Measured),
) -> Measured {
    let mut sim = Simulation::with_scratch(a, b, ab, ba, std::mem::take(scratch));
    sim.run_until(end);
    let stats = direction_stats_with_floor(sim.ab_path(), from, end, floor());
    let mut measured = Measured {
        metrics: Some(SchemeResult::from_stats(&stats)),
        ..Measured::default()
    };
    reduce(&sim, &mut measured);
    *scratch = sim.into_scratch();
    measured
}

/// [`run_pair`] over a scheme's pair as its concrete types, the data
/// direction's log handed to `reduce`: one `run_pair` per shape of pair,
/// and no `dyn` per packet.
struct RunPair<'a, F, R> {
    paths: (PathConfig, PathConfig),
    scratch: &'a mut CellScratch,
    window: (Timestamp, Timestamp),
    floor: F,
    reduce: R,
}

impl<F, R> PairVisitor for RunPair<'_, F, R>
where
    F: FnOnce() -> Option<Duration>,
    R: FnOnce(&MetricsCollector, &mut Measured),
{
    type Output = Measured;

    fn visit<A: Endpoint + 'static, B: Endpoint + 'static>(self, a: A, b: B) -> Measured {
        let RunPair {
            paths,
            scratch,
            window,
            floor,
            reduce,
        } = self;
        run_pair(a, b, paths, scratch, window, floor, |sim, out| {
            reduce(sim.ab_metrics(), out)
        })
    }
}

/// Run one cell's workload under `rc`, the simulation's recycled
/// buffers taken from (and returned to) `scratch`, so cells run
/// back-to-back reuse one set of allocations. `data` is the data
/// direction's link, which keeps its omniscient floors.
fn run_cell_scratch(
    cell: &Scenario,
    rc: &RunConfig,
    queue: ResolvedQueue,
    scratch: &mut CellScratch,
    data: &LinkInputs,
) -> Measured {
    let from = Timestamp::ZERO + rc.warmup;
    let end = Timestamp::ZERO + rc.duration;
    let paths = rc.paths(queue);
    let floor = || data.floor(rc.prop_delay, from, end);

    match &cell.workload {
        Workload::InterarrivalProbe => {
            unreachable!("probe cells are handled by execute_scenario")
        }
        Workload::Scheme(scheme) => {
            let reduce = |m: &MetricsCollector, out: &mut Measured| {
                if let Some(bin) = cell.series_bin {
                    out.series = collect_series(m, &rc.data_trace, bin, from, end);
                }
                out.cell_series = cell
                    .cell_series_bin
                    .map(|bin| collect_cell_series(m, &rc.data_trace, bin, from, end));
            };
            let run = RunPair {
                paths,
                scratch,
                window: (from, end),
                floor,
                reduce,
            };
            with_endpoints(*scheme, rc, run)
        }
        Workload::App { .. }
        | Workload::Contention { .. }
        | Workload::MuxDirect
        | Workload::MuxTunneled => {
            // flows → mux → (tunnel) → path pair. Per-flow rows come from
            // the log that attributes every client packet to its flow:
            // the shared path's own, or — when the path carries the
            // tunnel's wire packets instead — the far host's
            // post-decapsulation one.
            let (flows, tunnel) = flows_of(&cell.workload, rc);
            let ids: Vec<FlowId> = flows.iter().map(|(flow, ..)| *flow).collect();
            let contended = matches!(cell.workload, Workload::Contention { .. });
            let reduce = |log: &MetricsCollector, out: &mut Measured| {
                out.flows = flow_summaries(&ids, log, from, end);
                if contended {
                    let throughputs: Vec<f64> =
                        out.flows.iter().map(|f| f.throughput_kbps).collect();
                    out.fairness = jain_fairness_index(&throughputs);
                }
            };
            let (a, b) = mux_pair(flows);
            let window = (from, end);
            match tunnel {
                None => run_pair(a, b, paths, scratch, window, floor, |sim, out| {
                    reduce(sim.ab_metrics(), out)
                }),
                Some(over) => {
                    let (a, b) = tunnel_pair((a, b), over, rc);
                    run_pair(a, b, paths, scratch, window, floor, |sim, out| {
                        reduce(sim.b.deliveries(), out)
                    })
                }
            }
        }
        Workload::Serve { sessions } => {
            // N independent Sprout sessions, each with its own path pair
            // over the *same* link conditions (the controlled variable),
            // served by one shared-event-loop SproutServer. Clients are
            // one-way data senders, server halves the Bayesian
            // receivers. Session i runs as FlowId(i + 1), with
            // per-session loss/impairment streams derived from
            // session_seed(cell_seed, i + 1).
            let n = *sessions;
            let mut server = SproutServer::new(rc.sprout.clone(), rc.serve_seed);
            for sid in 1..=n {
                server.add_session(sid);
            }
            let mut sim = ServeSim::with_scratch(server, std::mem::take(scratch));
            for sid in 1..=n {
                let src = rc.clone().seeded(session_seed(rc.serve_seed, sid));
                let (up, down) = src.paths(queue);
                let mut client = sprout_data_sender(&rc.sprout);
                client.set_flow(FlowId(sid));
                sim.add_session(FlowId(sid), client, up, down);
            }
            sim.run_until(end);

            let mut window_bytes = Vec::with_capacity(n as usize);
            let mut throughputs = Vec::with_capacity(n as usize);
            let mut full_run_sum: u64 = 0;
            for i in 0..n as usize {
                let m = sim.up_path(i).metrics();
                window_bytes.push(m.delivered_bytes(from, end, None));
                throughputs.push(m.throughput_kbps(from, end));
                full_run_sum += m.delivered_bytes(Timestamp::ZERO, Timestamp::FAR_FUTURE, None);
            }
            assert_eq!(
                full_run_sum,
                sim.delivered_to_server_bytes(),
                "conservation: per-session delivered bytes must sum to the \
                 link-level bytes the event loop handed to the server"
            );
            let serve = ServeStats {
                sessions: n,
                delivered_bytes: window_bytes.iter().sum(),
                min_session_bytes: window_bytes.iter().copied().min().unwrap_or(0),
                max_session_bytes: window_bytes.iter().copied().max().unwrap_or(0),
                wire_delivered_bytes: sim.delivered_to_server_bytes(),
            };
            let measured = Measured {
                fairness: jain_fairness_index(&throughputs),
                serve: Some(serve),
                ..Measured::default()
            };
            *scratch = sim.into_scratch();
            measured
        }
    }
}
