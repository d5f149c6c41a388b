//! `serve-pool`: one server process's worth of saturating Sprout
//! sessions, built from the public `SproutServer` / `ServeSim` /
//! `SproutEndpoint` API and stepped in 20 ms virtual ticks. The same
//! `core` kernels as `sprout-forecast`, reached through `SessionPool` and
//! three timer wheels (an O(due) loop) instead of the two-endpoint loop.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sprout_bench::scenario::paired_profile;
use sprout_core::{ForecastTables, SproutConfig, SproutEndpoint};
use sprout_sim::{Endpoint, FlowId, PathConfig, ServeSim};
use sprout_trace::{Duration, NetProfile, Timestamp, Trace};
use sprout_tunnel::SproutServer;

use super::{Ctx, Layer, Rep, Workload, DATASET_SEED};
use crate::probes;
use crate::stats;
use crate::timed::{CallStats, Timed};
use crate::tracer::Tracer;

const LINK: NetProfile = NetProfile::TmobileUmtsUp;
const SESSIONS: u32 = 96;
const TICK: Duration = Duration::from_millis(20);

pub struct ServePool {
    seed: u64,
    duration: Duration,
    /// First session id; the seed places the pool's ids.
    base_id: u32,
    cache_dir: PathBuf,
    traces: Option<(Trace, Trace)>,
    /// Host time of every 20 ms virtual tick of every single-pool
    /// repetition, ms.
    tick_ms: Vec<f64>,
}

/// What one pool run produced.
struct PoolRun {
    wall_s: f64,
    tick_ms: Vec<f64>,
    /// Per-session full-run delivered bytes and the loop's wire counter.
    delivered: Vec<u64>,
    wire_bytes: u64,
    session_bytes: usize,
}

impl PoolRun {
    fn failed_sessions(&self) -> u64 {
        // Conservation: what the sessions' uplinks delivered is what the
        // event loop handed to the server. A mismatch cannot be pinned
        // on one session, so it fails them all.
        if self.delivered.iter().sum::<u64>() == self.wire_bytes {
            self.delivered.iter().filter(|&&b| b == 0).count() as u64
        } else {
            self.delivered.len() as u64
        }
    }

    fn canonical(&self) -> String {
        format!("{:?}/{}", self.delivered, self.wire_bytes)
    }
}

impl ServePool {
    pub fn new(ctx: &Ctx) -> Self {
        ServePool {
            seed: ctx.seed,
            duration: Duration::from_secs(ctx.secs(8, 2)),
            base_id: 1 + (ctx.seed % 1_000) as u32,
            cache_dir: PathBuf::new(),
            traces: None,
            tick_ms: Vec::new(),
        }
    }

    /// Build the pool with the wrappers around the server and every
    /// client and run it tick by tick, calling `after_tick` with the loop
    /// and the tick's host nanoseconds. Returns what the run produced and
    /// the finished loop.
    fn run_pool<C: Endpoint, S: Endpoint>(
        &self,
        wrap_client: impl Fn(SproutEndpoint) -> C,
        wrap_server: impl FnOnce(SproutServer) -> S,
        mut after_tick: impl FnMut(&ServeSim<C, S>, u64),
    ) -> (PoolRun, ServeSim<C, S>) {
        let (up_trace, down_trace) = self.traces.clone().expect("set-up ran");
        let cfg = SproutConfig::paper();
        let mut server = SproutServer::new(cfg.clone(), self.seed);
        for i in 0..SESSIONS {
            server.add_session(self.base_id + i);
        }
        let session_bytes = server.pool().approx_session_bytes();
        let mut sim = ServeSim::new(wrap_server(server));
        for i in 0..SESSIONS {
            let flow = FlowId(self.base_id + i);
            let mut client = SproutEndpoint::new_ewma(cfg.clone());
            client.set_saturating();
            client.set_flow(flow);
            sim.add_session(
                flow,
                wrap_client(client),
                PathConfig::standard(up_trace.clone()),
                PathConfig::standard(down_trace.clone()),
            );
        }

        let end = Timestamp::ZERO + self.duration;
        let mut tick_ms = Vec::with_capacity((self.duration.as_millis() / 20) as usize + 1);
        let mut now = Timestamp::ZERO;
        let t0 = Instant::now();
        while now < end {
            now = (now + TICK).min(end);
            let tick0 = Instant::now();
            sim.run_until(now);
            let ns = tick0.elapsed().as_nanos() as u64;
            tick_ms.push(ns as f64 / 1e6);
            after_tick(&sim, ns);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let delivered = (0..SESSIONS as usize)
            .map(|i| {
                sim.up_path(i).metrics().delivered_bytes(
                    Timestamp::ZERO,
                    Timestamp::FAR_FUTURE,
                    None,
                )
            })
            .collect();
        let run = PoolRun {
            wall_s,
            tick_ms,
            delivered,
            wire_bytes: sim.delivered_to_server_bytes(),
            session_bytes,
        };
        (run, sim)
    }

    fn run_plain(&self) -> PoolRun {
        self.run_pool(|c| c, |s| s, |_, _| ()).0
    }

    fn session_virtual_s(&self) -> f64 {
        f64::from(SESSIONS) * self.duration.as_secs_f64()
    }
}

impl Workload for ServePool {
    fn operation(&self) -> &'static str {
        "sessions"
    }

    fn setup(&mut self, dir: &Path) {
        self.cache_dir = dir.join("cache");
        sprout_cache::set_dir(&self.cache_dir);
        // A server's cold start: the forecast tables every session
        // shares, and the two link directions.
        ForecastTables::load_or_build(&SproutConfig::paper());
        self.traces = Some((
            LINK.generate(self.duration, DATASET_SEED),
            paired_profile(LINK).generate(self.duration, DATASET_SEED),
        ));
    }

    /// One pool per thread, run side by side.
    fn rep(&mut self, threads: usize) -> Rep {
        let t0 = Instant::now();
        let runs: Vec<PoolRun> = if threads == 1 {
            vec![self.run_plain()]
        } else {
            let this = &*self;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| scope.spawn(|| this.run_plain()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("a pool thread panicked"))
                    .collect()
            })
        };
        let wall_s = t0.elapsed().as_secs_f64();
        if threads == 1 {
            self.tick_ms.extend(&runs[0].tick_ms);
        }
        let canonical: Vec<String> = runs.iter().map(PoolRun::canonical).collect();
        // Pools are identical; side-by-side pools must agree with each
        // other as well as with every other repetition.
        let agree = canonical.windows(2).all(|w| w[0] == w[1]);
        let attempted = u64::from(SESSIONS) * runs.len() as u64;
        Rep {
            wall_s,
            cells: runs.len() as u64,
            session_virtual_s: self.session_virtual_s() * runs.len() as f64,
            fingerprint: sprout_cache::fingerprint64(canonical[0].as_bytes()),
            attempted,
            failed: if agree {
                runs.iter().map(PoolRun::failed_sessions).sum()
            } else {
                attempted
            },
        }
    }

    fn traced(&mut self, tracer: &mut Tracer, untraced_s: f64, layer: &mut Layer) {
        // The pool once more with the server and every client behind the
        // timing adapter; per tick, loop self time is the tick minus
        // what the adapters saw.
        let busy = |sim: &ServeSim<Timed<SproutEndpoint>, Timed<SproutServer>>| {
            let mut clients = CallStats::default();
            for i in 0..sim.sessions() {
                clients.add(sim.client(i).stats);
            }
            (sim.server().stats, clients)
        };
        let run_span = tracer.enter("sim.serve_run", "sim", "pool");
        let (mut loop_self_ns, mut seen_busy_ns) = (0u64, 0u64);
        let (run, sim) = self.run_pool(Timed::new, Timed::new, |sim, tick_ns| {
            let (server, clients) = busy(sim);
            let busy_ns = server.busy_ns() + clients.busy_ns();
            loop_self_ns += tick_ns.saturating_sub(busy_ns - seen_busy_ns);
            seen_busy_ns = busy_ns;
        });
        tracer.exit(run_span);
        let (server, clients) = busy(&sim);
        // `after_tick` reads 129 counters per tick outside the tick's
        // own timing; span self time would charge that to the loop, so
        // the share below uses the per-tick sums instead.
        for (name, layer, calls) in [
            ("server.poll_into", "tunnel", server.polls),
            ("server.on_packet", "tunnel", server.packets),
            ("client.poll_into", "core", clients.polls),
            ("client.on_packet", "core", clients.packets),
        ] {
            tracer.aggregate(name, layer, run_span, calls.ns(), calls.count);
        }
        assert_eq!(
            run.canonical(),
            self.run_plain().canonical(),
            "the adapter changed the simulation"
        );

        let tick_total_ns: f64 = run.tick_ms.iter().sum::<f64>() * 1e6;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        layer.insert(
            "sim.serve_loop_self_share",
            loop_self_ns as f64 / tick_total_ns,
        );
        layer.insert(
            "tunnel.server_busy_share",
            server.busy_ns() as f64 / tick_total_ns,
        );
        layer.insert(
            "tunnel.server_ns_per_poll",
            ratio(server.polls.ns(), server.polls.count),
        );
        layer.insert(
            "tunnel.server_ns_per_packet",
            ratio(server.packets.ns(), server.packets.count),
        );
        layer.insert(
            "core.endpoint_busy_share",
            clients.busy_ns() as f64 / tick_total_ns,
        );
        layer.insert(
            "core.ns_per_poll",
            ratio(clients.polls.ns(), clients.polls.count),
        );
        layer.insert(
            "core.ns_per_packet",
            ratio(clients.packets.ns(), clients.packets.count),
        );
        layer.insert("core.polls", clients.polls.count as f64);
        layer.insert("core.packets_in", clients.packets.count as f64);
        layer.insert("core.session_bytes", run.session_bytes as f64);
        layer.insert("bench.trace_overhead", run.wall_s / untraced_s);

        // Tick percentiles over the untraced repetitions' pooled ticks.
        // p99 is reported only with at least ten samples beyond it; the
        // pool is sized so that two repetitions suffice.
        let mut ticks = self.tick_ms.clone();
        ticks.sort_by(f64::total_cmp);
        layer.insert("sim.tick_ms_p50", stats::percentile(&ticks, 50.0));
        match stats::tail_percentile(&ticks) {
            Some(tail) if tail.percentile >= 99.0 => {
                layer.insert("sim.tick_ms_p99", stats::percentile(&ticks, 99.0));
            }
            tail => eprintln!(
                "serve-pool: {} pooled ticks support no p99 (highest: {:?}); sim.tick_ms_p99 left at 0",
                ticks.len(),
                tail.map(|t| t.percentile)
            ),
        }

        probes::sim_wheel(self.seed, layer);
        probes::core_tables(tracer, layer);
        probes::core_kernels(self.seed, layer);
    }
}
