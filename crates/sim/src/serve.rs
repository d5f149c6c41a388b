//! Multi-session event loop: N clients, N per-session path pairs, one
//! shared server.
//!
//! [`Simulation`](crate::Simulation) is hardwired to two endpoints and
//! one path pair. `ServeSim` generalizes it for the capacity experiment:
//! each session `i` gets its own uplink (`client[i] → server`) and
//! downlink (`server → client[i]`) [`DirectedPath`], while the server is
//! a single shared [`Endpoint`] that demultiplexes by [`FlowId`].
//!
//! Both loops run under the one driver (`run::EventLoop::drive_until`:
//! time advanced to the minimum pending event, 1 µs forced progress, an
//! idempotent final step at `end`) and keep the same phase order within
//! an instant — deliveries before polls. Per-session paths and client
//! wakeups live in [`TimerWheel`]s, so a step visits only the sessions
//! with something due at the current instant rather than all N.
//!
//! What "due" means is wider than a delivery or a declared wakeup, and
//! results depend on it. A client is polled whenever its wakeup is due
//! **and at every event of its downlink path** — a wire arrival, a
//! delivery opportunity, a buffered release — whether or not that event
//! delivered anything (`step` marks the session pending either way). The
//! server is polled after an uplink delivery or at its declared wakeup.
//! [`Simulation`](crate::Simulation) is blunter still: it polls both
//! endpoints at every step. The extra polls are not idle: a
//! `SproutEndpoint`'s send window is a function of `now`, and its
//! `next_wakeup` declares only the end of the current tick, so in both
//! loops it is the link's opportunity schedule that paces how often
//! Sprout gets to send within a tick. Skipping the polls that follow no
//! delivery leaves the TCP baselines' results unchanged and moves every
//! Sprout, app, mux, tunnel and serve cell (ROADMAP item 2: *Sprout's send
//! cadence is set by trace density*), so the cadence is part of what
//! `ENGINE_VERSION` pins; see [`Endpoint::poll_into`].

use std::collections::HashMap;

use crate::cellsim::{DirectedPath, PathConfig};
use crate::endpoint::Endpoint;
use crate::packet::FlowId;
use crate::run::{EventLoop, SimScratch};
use crate::wheel::TimerWheel;
use sprout_trace::Timestamp;

/// N independent client/server sessions over per-session paths, driven
/// by one event loop around a shared server endpoint.
///
/// Each session's uplink (client → server) is the measured direction and
/// logs every delivery ([`ServeSim::up_path`]); its downlink only counts
/// what it delivers.
pub struct ServeSim<C: Endpoint, S: Endpoint> {
    clients: Vec<C>,
    /// Per-session flow ids; client output is re-stamped on the way up so
    /// the server can demux, and server output routes back by the same id.
    flows: Vec<FlowId>,
    server: S,
    up: Vec<DirectedPath>,
    down: Vec<DirectedPath>,
    /// FlowId.0 → dense session index, for routing server output.
    route: HashMap<u32, usize>,
    up_wheel: TimerWheel,
    down_wheel: TimerWheel,
    client_wheel: TimerWheel,
    /// Clients owed a poll this instant (delivery arrived or wakeup due);
    /// `pending[i]` guards duplicate queue entries, the queue is sorted
    /// before draining for determinism.
    pending: Vec<bool>,
    pending_queue: Vec<usize>,
    server_pending: bool,
    now: Timestamp,
    /// Recycled buffers, as in [`Simulation`](crate::Simulation): the
    /// poll buffer, and the free list each new session's uplink log comes
    /// from.
    scratch: SimScratch,
}

impl<C: Endpoint, S: Endpoint> ServeSim<C, S> {
    /// Empty loop around `server`; add sessions before running.
    pub fn new(server: S) -> Self {
        ServeSim::with_scratch(server, SimScratch::default())
    }

    /// [`ServeSim::new`] on recycled buffers (recovered via
    /// [`ServeSim::into_scratch`]), so batch executors keep the packet
    /// buffer and the sessions' uplink logs across cells. Contents are
    /// cleared before first use, so recycling cannot affect results.
    pub fn with_scratch(server: S, mut scratch: SimScratch) -> Self {
        scratch.packets.clear();
        ServeSim {
            clients: Vec::new(),
            flows: Vec::new(),
            server,
            up: Vec::new(),
            down: Vec::new(),
            route: HashMap::new(),
            up_wheel: TimerWheel::new(),
            down_wheel: TimerWheel::new(),
            client_wheel: TimerWheel::new(),
            pending: Vec::new(),
            pending_queue: Vec::new(),
            server_pending: false,
            now: Timestamp::ZERO,
            scratch,
        }
    }

    /// Tear down, recovering the buffers for the next cell.
    pub fn into_scratch(self) -> SimScratch {
        let mut scratch = self.scratch;
        for up in self.up.into_iter().rev() {
            scratch.put_log(up);
        }
        scratch
    }

    /// Attach session `flow`: its client endpoint and its two directed
    /// paths, the uplink logged and the downlink counted. Returns the
    /// dense session index.
    pub fn add_session(
        &mut self,
        flow: FlowId,
        client: C,
        up: PathConfig,
        down: PathConfig,
    ) -> usize {
        let idx = self.clients.len();
        assert!(
            self.route.insert(flow.0, idx).is_none(),
            "duplicate session flow id {}",
            flow.0
        );
        let up = DirectedPath::with_log(up, self.scratch.take_log());
        let down = DirectedPath::unlogged(down);
        self.up_wheel.schedule(idx, up.next_event());
        self.down_wheel.schedule(idx, down.next_event());
        self.client_wheel.schedule(idx, client.next_wakeup());
        self.clients.push(client);
        self.flows.push(flow);
        self.up.push(up);
        self.down.push(down);
        self.pending.push(false);
        idx
    }

    /// Number of attached sessions.
    pub fn sessions(&self) -> usize {
        self.clients.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// The shared server endpoint.
    pub fn server(&self) -> &S {
        &self.server
    }

    /// Session `idx`'s client endpoint.
    pub fn client(&self, idx: usize) -> &C {
        &self.clients[idx]
    }

    /// Session `idx`'s uplink path (client → server), with its delivery
    /// log.
    pub fn up_path(&self, idx: usize) -> &DirectedPath {
        &self.up[idx]
    }

    /// Total wire bytes the uplink paths have handed to the server — the
    /// link-level side of the conservation property (it must equal the
    /// sum of per-session delivered bytes).
    pub fn delivered_to_server_bytes(&self) -> u64 {
        self.up.iter().map(DirectedPath::delivered_bytes).sum()
    }

    /// Run the event loop until virtual time `end`.
    pub fn run_until(&mut self, end: Timestamp) {
        self.drive_until(end);
    }

    fn mark_pending(&mut self, idx: usize) {
        if !self.pending[idx] {
            self.pending[idx] = true;
            self.pending_queue.push(idx);
        }
    }
}

impl<C: Endpoint, S: Endpoint> EventLoop for ServeSim<C, S> {
    fn clock(&mut self) -> &mut Timestamp {
        &mut self.now
    }

    fn next_event(&mut self) -> Timestamp {
        [
            self.up_wheel.next_deadline(),
            self.down_wheel.next_deadline(),
            self.client_wheel.next_deadline(),
            self.server.next_wakeup(),
        ]
        .into_iter()
        .flatten()
        .fold(Timestamp::FAR_FUTURE, Timestamp::min)
    }

    /// Process everything due at the current instant, mirroring
    /// [`Simulation`](crate::Simulation)'s phase order: uplink deliveries
    /// → downlink deliveries → client polls → server poll. Within each
    /// phase, sessions are handled in deterministic order (the wheels pop
    /// in `(deadline, index)` order; pending clients drain ascending).
    fn step(&mut self) {
        let now = self.now;
        debug_assert!(self.scratch.packets.is_empty());

        // Uplink deliveries → the shared server.
        while let Some(idx) = self.up_wheel.pop_due(now) {
            let (server, pending) = (&mut self.server, &mut self.server_pending);
            self.up[idx].advance_with(now, |p| {
                server.on_packet(p, now);
                *pending = true;
            });
            self.up_wheel.schedule(idx, self.up[idx].next_event());
        }

        // Downlink deliveries → their clients, which then owe a poll this
        // instant (feedback follows an arrival immediately, exactly as in
        // `Simulation::step`).
        while let Some(idx) = self.down_wheel.pop_due(now) {
            let client = &mut self.clients[idx];
            self.down[idx].advance_with(now, |p| client.on_packet(p, now));
            self.down_wheel.schedule(idx, self.down[idx].next_event());
            self.mark_pending(idx);
        }

        // Client polls: due wakeups plus delivery-marked sessions.
        while let Some(idx) = self.client_wheel.pop_due(now) {
            self.mark_pending(idx);
        }
        self.pending_queue.sort_unstable();
        for qi in 0..self.pending_queue.len() {
            let idx = self.pending_queue[qi];
            self.pending[idx] = false;
            self.clients[idx].poll_into(now, &mut self.scratch.packets);
            for mut p in self.scratch.packets.drain(..) {
                p.flow = self.flows[idx];
                self.up[idx].send(p, now);
            }
            self.up_wheel.schedule(idx, self.up[idx].next_event());
            self.client_wheel
                .schedule(idx, self.clients[idx].next_wakeup());
        }
        self.pending_queue.clear();

        // Server poll: route each output packet to its session's downlink.
        if self.server_pending || self.server.next_wakeup().is_some_and(|w| w <= now) {
            self.server_pending = false;
            self.server.poll_into(now, &mut self.scratch.packets);
            for p in self.scratch.packets.drain(..) {
                let Some(&idx) = self.route.get(&p.flow.0) else {
                    debug_assert!(false, "server emitted unroutable flow {}", p.flow.0);
                    continue;
                };
                self.down[idx].send(p, now);
                self.down_wheel.schedule(idx, self.down[idx].next_event());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::run::{direction_stats, SimScratch};
    use sprout_trace::{Duration, Trace};

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// Sends one 100-byte packet every `period`, starting at t=0.
    struct Ticker {
        period: Duration,
        next: Timestamp,
        sent: u64,
        received: u64,
    }

    impl Ticker {
        fn new(period_ms: u64) -> Self {
            Ticker {
                period: Duration::from_millis(period_ms),
                next: Timestamp::ZERO,
                sent: 0,
                received: 0,
            }
        }
    }

    impl Endpoint for Ticker {
        fn on_packet(&mut self, _packet: Packet, _now: Timestamp) {
            self.received += 1;
        }

        fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
            while self.next <= now {
                out.push(Packet::opaque(FlowId::PRIMARY, self.sent, 100));
                self.sent += 1;
                self.next += self.period;
            }
        }

        fn next_wakeup(&self) -> Option<Timestamp> {
            Some(self.next)
        }
    }

    /// Echoes every arrival back on its own flow, once per packet.
    #[derive(Default)]
    struct EchoServer {
        queued: Vec<Packet>,
        per_flow: HashMap<u32, u64>,
    }

    impl Endpoint for EchoServer {
        fn on_packet(&mut self, packet: Packet, _now: Timestamp) {
            *self.per_flow.entry(packet.flow.0).or_insert(0) += u64::from(packet.size);
            self.queued.push(packet);
        }

        fn poll_into(&mut self, _now: Timestamp, out: &mut Vec<Packet>) {
            out.append(&mut self.queued);
        }

        fn next_wakeup(&self) -> Option<Timestamp> {
            None
        }
    }

    fn dense_trace(secs: u64) -> Trace {
        Trace::from_millis((0..secs * 1000).step_by(2))
    }

    #[test]
    fn per_session_bytes_are_conserved_and_routed() {
        let mut sim: ServeSim<Ticker, EchoServer> = ServeSim::new(EchoServer::default());
        for sid in 0..3u32 {
            sim.add_session(
                FlowId(sid + 10),
                Ticker::new(10 + u64::from(sid)),
                PathConfig::standard(dense_trace(2)),
                PathConfig::standard(dense_trace(2)),
            );
        }
        sim.run_until(t(1000));

        // Conservation: wire bytes handed to the server equal the sum of
        // per-session uplink deliveries, and the server saw each session
        // under its own flow id.
        let mut sum = 0;
        for idx in 0..sim.sessions() {
            let stats = direction_stats(sim.up_path(idx), Timestamp::ZERO, Timestamp::FAR_FUTURE);
            assert!(stats.delivered_bytes > 0, "session {idx} idle");
            sum += stats.delivered_bytes;
            let flow = 10 + idx as u32;
            assert_eq!(
                sim.server().per_flow.get(&flow).copied(),
                Some(stats.delivered_bytes),
                "session {idx} bytes must arrive under flow {flow}"
            );
        }
        assert_eq!(sim.delivered_to_server_bytes(), sum);

        // Sessions tick at different periods, so their counts differ.
        assert!(sim.client(0).sent > sim.client(2).sent);
        // Echoes actually came back down the per-session paths.
        for idx in 0..sim.sessions() {
            assert!(sim.client(idx).received > 0, "session {idx} got no echo");
        }
    }

    #[test]
    fn a_session_logs_only_its_uplink() {
        let mut scratch = SimScratch::default();
        for _ in 0..2 {
            let mut sim: ServeSim<Ticker, EchoServer> =
                ServeSim::with_scratch(EchoServer::default(), scratch);
            for sid in 0..3u32 {
                sim.add_session(
                    FlowId(sid + 1),
                    Ticker::new(10),
                    PathConfig::standard(dense_trace(1)),
                    PathConfig::standard(dense_trace(1)),
                );
            }
            sim.run_until(t(500));
            for idx in 0..3 {
                let up = sim.up_path(idx);
                assert!(sim.down[idx].delivered_packets() > 0, "echoes came back");
                assert_eq!(sim.down[idx].metrics().records().len(), 0);
                assert_eq!(up.metrics().records().len() as u64, up.delivered_packets());
            }
            scratch = sim.into_scratch();
            assert_eq!(scratch.logs.len(), 3, "one log per session");
        }
    }

    #[test]
    fn duplicate_flow_is_rejected() {
        let mut sim: ServeSim<Ticker, EchoServer> = ServeSim::new(EchoServer::default());
        sim.add_session(
            FlowId(1),
            Ticker::new(10),
            PathConfig::standard(dense_trace(1)),
            PathConfig::standard(dense_trace(1)),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_session(
                FlowId(1),
                Ticker::new(10),
                PathConfig::standard(dense_trace(1)),
                PathConfig::standard(dense_trace(1)),
            );
        }));
        assert!(result.is_err(), "duplicate flow id must panic");
    }
}
