//! The virtual-time event loop: two endpoints bridged by a bidirectional
//! Cellsim path, advanced deterministically from event to event.

use crate::cellsim::{DirectedPath, PathConfig};
use crate::endpoint::Endpoint;
use crate::metrics::{
    degradation_stats, omniscient_p95_delay, self_inflicted_delay, utilization, DegradationStats,
    DeliveryRecord, MetricsCollector,
};
use crate::packet::Packet;
use sprout_trace::{Duration, Timestamp};

/// What the shared driver needs of an event loop: its clock, how to
/// process the current instant, and when something is next due. The two
/// loops differ only in [`EventLoop::step`] (O(N) over two endpoints here,
/// O(due) over timer wheels in [`crate::ServeSim`]); the driver —
/// [`EventLoop::drive_until`] — exists once.
pub(crate) trait EventLoop {
    /// The loop's virtual clock.
    fn clock(&mut self) -> &mut Timestamp;

    /// Process everything due at the current instant (idempotent: a
    /// second call at the same instant finds nothing left).
    fn step(&mut self);

    /// The earliest pending event over every source, or
    /// [`Timestamp::FAR_FUTURE`] when nothing is pending.
    fn next_event(&mut self) -> Timestamp;

    /// Run until virtual time `end`: step, advance to the next pending
    /// event (clamped to `end`), repeat; then step once more for events
    /// falling exactly at `end`.
    #[inline]
    fn drive_until(&mut self, end: Timestamp) {
        let mut steps = 0u32;
        while *self.clock() < end {
            // Honor watchdog cancellation between steps: a timed-out
            // sweep cell must release its thread instead of simulating
            // the remaining virtual hours at wall speed. ~1k steps keeps
            // the check off the per-event hot path.
            steps = steps.wrapping_add(1);
            if steps.is_multiple_of(1024) {
                sprout_trace::cancel::checkpoint();
            }
            self.step();
            let now = *self.clock();
            let mut next = self.next_event();
            // Guard against endpoints that request an immediate wakeup in
            // a loop: force minimal progress.
            if next <= now {
                next = now + Duration::from_micros(1);
            }
            *self.clock() = next.min(end);
        }
        self.step();
    }
}

/// The buffers of a finished simulation whose capacity is worth keeping
/// for the next one: the event loop's packet buffer and the delivery log
/// of each measured direction (megabytes on a long baseline cell) — one
/// log per [`Simulation`], one per [`ServeSim`](crate::ServeSim)
/// session. Contents never carry over — every buffer is cleared before
/// use — so recycling cannot affect results; a second simulation on a
/// warm `SimScratch` pushes into capacity that is already grown and
/// already faulted in.
#[derive(Default)]
pub struct SimScratch {
    pub(crate) packets: Vec<Packet>,
    /// Free list of delivery logs, popped one per measured direction. A
    /// teardown pushes its logs back in reverse order, so the next
    /// simulation of the same shape hands each direction the log it
    /// filled last time.
    pub(crate) logs: Vec<Vec<DeliveryRecord>>,
}

impl SimScratch {
    /// A delivery log from the free list, or a fresh one.
    pub(crate) fn take_log(&mut self) -> Vec<DeliveryRecord> {
        self.logs.pop().unwrap_or_default()
    }

    /// Return `path`'s delivery log, if it kept one, to the free list.
    pub(crate) fn put_log(&mut self, path: DirectedPath) {
        self.logs.extend(path.into_log());
    }
}

/// A full experiment: endpoint `a`, endpoint `b`, and the two directed
/// paths between them (`ab` carries a→b traffic, `ba` the reverse).
///
/// The a→b direction is the measured one: it logs every delivery
/// ([`Simulation::ab_metrics`]). The b→a direction — ACKs and feedback —
/// only counts what it delivers; its [`DirectedPath::metrics`] is empty.
pub struct Simulation<A: Endpoint, B: Endpoint> {
    /// The "a" endpoint (by convention: the sender/client side).
    pub a: A,
    /// The "b" endpoint (by convention: the receiver/server side).
    pub b: B,
    ab: DirectedPath,
    ba: DirectedPath,
    now: Timestamp,
    /// Recycled buffers: `packets` is what the endpoints poll into every
    /// step, drained before the step ends; the log free list is held only
    /// to be handed back.
    scratch: SimScratch,
}

impl<A: Endpoint, B: Endpoint> Simulation<A, B> {
    /// Assemble a simulation. `ab` is the path carrying a→b traffic.
    pub fn new(a: A, b: B, ab: PathConfig, ba: PathConfig) -> Self {
        Simulation::with_scratch(a, b, ab, ba, SimScratch::default())
    }

    /// [`Simulation::new`] on recycled buffers. Batch executors that run
    /// many simulations back-to-back pass the previous run's
    /// [`Simulation::into_scratch`], so the packet buffer's and the a→b
    /// delivery log's capacity survives across cells.
    pub fn with_scratch(
        a: A,
        b: B,
        ab: PathConfig,
        ba: PathConfig,
        mut scratch: SimScratch,
    ) -> Self {
        scratch.packets.clear();
        Simulation {
            a,
            b,
            ab: DirectedPath::with_log(ab, scratch.take_log()),
            ba: DirectedPath::unlogged(ba),
            now: Timestamp::ZERO,
            scratch,
        }
    }

    /// Tear down the simulation, recovering its buffers for the next
    /// [`Simulation::with_scratch`].
    pub fn into_scratch(self) -> SimScratch {
        let mut scratch = self.scratch;
        scratch.put_log(self.ab);
        scratch
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Delivery log of the a→b direction.
    pub fn ab_metrics(&self) -> &MetricsCollector {
        self.ab.metrics()
    }

    /// The a→b path (queue state, drop counters, trace).
    pub fn ab_path(&self) -> &DirectedPath {
        &self.ab
    }

    /// The b→a path. It counts its deliveries but keeps no log.
    pub fn ba_path(&self) -> &DirectedPath {
        &self.ba
    }

    /// Run the event loop until virtual time `end`.
    pub fn run_until(&mut self, end: Timestamp) {
        self.drive_until(end);
    }
}

impl<A: Endpoint, B: Endpoint> EventLoop for Simulation<A, B> {
    fn clock(&mut self) -> &mut Timestamp {
        &mut self.now
    }

    fn next_event(&mut self) -> Timestamp {
        [
            self.a.next_wakeup(),
            self.b.next_wakeup(),
            self.ab.next_event(),
            self.ba.next_event(),
        ]
        .into_iter()
        .flatten()
        .fold(Timestamp::FAR_FUTURE, Timestamp::min)
    }

    /// Process all events due at the current instant: deliveries first,
    /// then endpoint transmissions (so feedback generated by an arrival is
    /// sent in the same instant, as a real event-driven process would).
    /// A delivered packet goes from the path straight into the receiving
    /// endpoint; the two poll phases drain one recycled buffer — no
    /// per-step allocation.
    fn step(&mut self) {
        let now = self.now;
        let (a, b) = (&mut self.a, &mut self.b);
        self.ab.advance_with(now, |p| b.on_packet(p, now));
        self.ba.advance_with(now, |p| a.on_packet(p, now));
        let buf = &mut self.scratch.packets;
        debug_assert!(buf.is_empty());
        a.poll_into(now, buf);
        for p in buf.drain(..) {
            self.ab.send(p, now);
        }
        b.poll_into(now, buf);
        for p in buf.drain(..) {
            self.ba.send(p, now);
        }
    }
}

/// Summary statistics of one direction over a measurement window.
#[derive(Clone, Copy, Debug)]
pub struct DirectionStats {
    /// Bytes delivered in the window.
    pub delivered_bytes: u64,
    /// Average throughput, kbps.
    pub throughput_kbps: f64,
    /// 95% end-to-end delay (None if no deliveries).
    pub p95_delay: Option<Duration>,
    /// The omniscient protocol's 95% delay on the same trace window.
    pub omniscient_p95: Option<Duration>,
    /// Self-inflicted delay = p95 − omniscient p95.
    pub self_inflicted: Option<Duration>,
    /// Fraction of link capacity used.
    pub utilization: f64,
    /// Graceful-degradation metrics under injected outages (all-default
    /// when the link had none).
    pub degradation: DegradationStats,
}

/// Compute [`DirectionStats`] for a finished path over `[from, to)`.
pub fn direction_stats(path: &DirectedPath, from: Timestamp, to: Timestamp) -> DirectionStats {
    let floor = omniscient_p95_delay(path.link().trace(), path.prop_delay(), from, to);
    direction_stats_with_floor(path, from, to, floor)
}

/// [`direction_stats`] for a caller that already knows the omniscient
/// floor. `floor` must be
/// `omniscient_p95_delay(path.link().trace(), path.prop_delay(), from, to)`:
/// a pure function of the link and the window, so every cell on one link
/// can share one computation of it.
pub fn direction_stats_with_floor(
    path: &DirectedPath,
    from: Timestamp,
    to: Timestamp,
    floor: Option<Duration>,
) -> DirectionStats {
    let m = path.metrics();
    let trace = path.link().trace();
    let delivered = m.delivered_bytes(from, to, None);
    let p95 = m.p95_delay(from, to);
    DirectionStats {
        delivered_bytes: delivered,
        throughput_kbps: m.throughput_kbps(from, to),
        p95_delay: p95,
        omniscient_p95: floor,
        self_inflicted: match (p95, floor) {
            (Some(p), Some(o)) => Some(self_inflicted_delay(p, o)),
            _ => None,
        },
        utilization: utilization(delivered, trace, from, to),
        degradation: degradation_stats(m, trace, path.link().outage_windows(), from, to, p95),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::SinkEndpoint;
    use crate::packet::FlowId;
    use sprout_trace::{Trace, MTU_BYTES};

    /// Sends one MTU packet every `interval`, unconditionally.
    struct Blaster {
        interval: Duration,
        next_send: Timestamp,
        seq: u64,
    }

    impl Blaster {
        fn new(interval: Duration) -> Self {
            Blaster {
                interval,
                next_send: Timestamp::ZERO,
                seq: 0,
            }
        }
    }

    impl Endpoint for Blaster {
        fn on_packet(&mut self, _p: Packet, _now: Timestamp) {}
        fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
            while self.next_send <= now {
                out.push(Packet::opaque(FlowId::PRIMARY, self.seq, MTU_BYTES));
                self.seq += 1;
                self.next_send += self.interval;
            }
        }
        fn next_wakeup(&self) -> Option<Timestamp> {
            Some(self.next_send)
        }
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn underloaded_link_delivers_everything_quickly() {
        // Link: 100 opportunities/s. Sender: 20 packets/s. No queueing.
        let trace = Trace::from_millis((0..3_000).map(|i| i * 10));
        let blaster = Blaster::new(Duration::from_millis(50));
        let mut sim = Simulation::new(
            blaster,
            SinkEndpoint::new(),
            PathConfig::standard(trace.clone()),
            PathConfig::standard(Trace::from_millis((0..3_000).map(|i| i * 10))),
        );
        sim.run_until(t(30_000));
        let m = sim.ab_metrics();
        // ~20 pps × 1500 B = 240 kbps.
        let tput = m.throughput_kbps(t(1_000), t(29_000));
        assert!((tput - 240.0).abs() < 25.0, "throughput {tput}");
        // Every packet: ≤ 20 ms prop + ≤ 10 ms wait.
        for (_, delay) in m.delay_series() {
            assert!(delay <= Duration::from_millis(31), "delay {delay}");
        }
    }

    #[test]
    fn overloaded_link_builds_standing_queue() {
        // Link: 50 opportunities/s. Sender: 100 packets/s. Queue grows
        // without bound and the p95 delay explodes — the Figure 1 Skype
        // pathology in miniature.
        let trace = Trace::from_millis((0..1_500).map(|i| i * 20));
        let mut sim = Simulation::new(
            Blaster::new(Duration::from_millis(10)),
            SinkEndpoint::new(),
            PathConfig::standard(trace),
            PathConfig::standard(Trace::from_millis((0..1_500).map(|i| i * 20))),
        );
        sim.run_until(t(30_000));
        let stats = direction_stats(sim.ab_path(), t(5_000), t(30_000));
        assert!(stats.p95_delay.unwrap() > Duration::from_secs(5));
        assert!(stats.utilization > 0.95, "bottleneck saturated");
        // The sink never talks back.
        assert_eq!(sim.ba_path().delivered_packets(), 0);
    }

    #[test]
    fn saturating_sender_matches_link_capacity() {
        // Sender at exactly link rate: throughput ≈ capacity, utilization
        // ≈ 1.
        let trace = Trace::from_millis((0..3_000).map(|i| i * 10));
        let mut sim = Simulation::new(
            Blaster::new(Duration::from_millis(10)),
            SinkEndpoint::new(),
            PathConfig::standard(trace),
            PathConfig::standard(Trace::from_millis([0])),
        );
        sim.run_until(t(30_000));
        let stats = direction_stats(sim.ab_path(), t(1_000), t(29_000));
        assert!(
            stats.utilization > 0.98,
            "utilization {}",
            stats.utilization
        );
        assert!((stats.throughput_kbps - 1_200.0).abs() < 60.0);
    }

    #[test]
    fn omniscient_baseline_bounds_measured_delay() {
        let trace = Trace::from_millis((0..3_000).map(|i| i * 10));
        let mut sim = Simulation::new(
            Blaster::new(Duration::from_millis(100)),
            SinkEndpoint::new(),
            PathConfig::standard(trace),
            PathConfig::standard(Trace::from_millis([0])),
        );
        sim.run_until(t(30_000));
        let stats = direction_stats(sim.ab_path(), t(1_000), t(29_000));
        let (p95, omni) = (stats.p95_delay.unwrap(), stats.omniscient_p95.unwrap());
        assert!(p95 >= omni, "protocol can't beat omniscient");
        assert_eq!(stats.self_inflicted.unwrap(), p95.saturating_sub(omni));
    }

    /// Asks to be polled at every instant: its wakeup is never in the
    /// future.
    #[derive(Default)]
    struct Nagger {
        polls: u64,
    }

    impl Endpoint for Nagger {
        fn on_packet(&mut self, _p: Packet, _now: Timestamp) {}
        fn poll_into(&mut self, _now: Timestamp, _out: &mut Vec<Packet>) {
            self.polls += 1;
        }
        fn next_wakeup(&self) -> Option<Timestamp> {
            Some(Timestamp::ZERO)
        }
    }

    #[test]
    fn both_loops_force_progress_and_step_exactly_at_end() {
        let idle = || PathConfig::standard(Trace::from_millis([0]));

        // Forced progress: a wakeup that is never in the future advances
        // the clock 1 µs a step — 50 steps to reach 50 µs, plus the step
        // at `end` — under either loop.
        let end = Timestamp::from_micros(50);
        let mut pair = Simulation::new(Nagger::default(), SinkEndpoint::new(), idle(), idle());
        pair.run_until(end);
        assert_eq!((pair.now(), pair.a.polls), (end, 51));
        let mut pool: crate::ServeSim<Blaster, Nagger> = crate::ServeSim::new(Nagger::default());
        pool.run_until(end);
        assert_eq!((pool.now(), pool.server().polls), (end, 51));

        // Exactly at `end`: a sender due at 0, 10, 20 and 30 ms has sent
        // four packets when the run stops at 30 ms, and running to the
        // same `end` again sends nothing more.
        let every_10ms = || Blaster::new(Duration::from_millis(10));
        let mut pair = Simulation::new(every_10ms(), SinkEndpoint::new(), idle(), idle());
        let mut pool: crate::ServeSim<Blaster, SinkEndpoint> =
            crate::ServeSim::new(SinkEndpoint::new());
        pool.add_session(FlowId(1), every_10ms(), idle(), idle());
        for _ in 0..2 {
            pair.run_until(t(30));
            pool.run_until(t(30));
            assert_eq!((pair.now(), pair.a.seq), (t(30), 4));
            assert_eq!((pool.now(), pool.client(0).seq), (t(30), 4));
        }
    }

    #[test]
    fn a_pair_logs_only_its_measured_direction() {
        // Traffic both ways; only a→b keeps a log, both count.
        let trace = || PathConfig::standard(Trace::from_millis((0..500).map(|i| i * 10)));
        let every = |ms| Blaster::new(Duration::from_millis(ms));
        let mut scratch = SimScratch::default();
        for _ in 0..3 {
            let mut sim = Simulation::with_scratch(every(20), every(30), trace(), trace(), scratch);
            sim.run_until(t(4_000));
            let (ab, ba) = (sim.ab_path(), sim.ba_path());
            let logged = ab.metrics().records();
            assert!(
                ba.delivered_packets() > 0,
                "the reverse direction carried traffic"
            );
            assert_eq!(ba.metrics().records().len(), 0, "and kept no log of it");
            assert_eq!(logged.len() as u64, ab.delivered_packets());
            assert_eq!(
                logged.iter().map(|r| u64::from(r.size)).sum::<u64>(),
                ab.delivered_bytes()
            );
            let delivered = ab.delivered_packets() as usize;
            scratch = sim.into_scratch();
            // One log per cell — the a→b one — recycled into the next.
            assert_eq!(scratch.logs.len(), 1);
            assert_eq!(scratch.logs[0].len(), delivered);
        }
    }

    #[test]
    fn run_until_is_idempotent_at_end() {
        let trace = Trace::from_millis((0..100).map(|i| i * 10));
        let mut sim = Simulation::new(
            Blaster::new(Duration::from_millis(10)),
            SinkEndpoint::new(),
            PathConfig::standard(trace),
            PathConfig::standard(Trace::from_millis([0])),
        );
        sim.run_until(t(2_000));
        let n = sim.ab_metrics().records().len();
        sim.run_until(t(2_000));
        assert_eq!(sim.ab_metrics().records().len(), n);
        assert_eq!(sim.now(), t(2_000));
    }
}
