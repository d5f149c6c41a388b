//! The trace-driven cellular link (§4.2).
//!
//! A [`TraceLink`] replays a Saturator trace: at each recorded delivery
//! opportunity it may release up to one MTU's worth of queued bytes.
//! Accounting is per byte (footnote 6): fifteen 100-byte packets leave on a
//! single opportunity, and a 1500-byte packet may need the remainder of one
//! opportunity plus part of the next if a smaller packet already consumed
//! budget. Opportunities that find nothing to send are wasted — the queue
//! cannot "bank" capacity.
//!
//! The link optionally drops arriving packets with a fixed Bernoulli
//! probability (tail drop), emulating shallow-buffered carriers for the
//! §5.6 loss-resilience experiment.
//!
//! On top of that sits the fault-injection layer ([`LinkImpairment`]):
//! Gilbert-Elliott burst loss gates packets at ingress alongside the
//! Bernoulli process; a precomputed outage schedule suppresses delivery
//! opportunities while the link is dark (queued bytes survive the
//! outage); and a jitter/reorder perturber shifts delivery timestamps,
//! with a release buffer that re-sorts perturbed deliveries so emission
//! stays in non-decreasing time order. All processes are seeded from the
//! per-cell seed, so impaired runs are exactly as deterministic as clean
//! ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codel::{CoDelConfig, CoDelQueue};
use crate::packet::Packet;
use crate::queue::{Bottleneck, DropTail, Policy, DEEP_QUEUE_BYTES};
use sprout_trace::{
    derive_seed, DeliveryPerturber, Duration, GilbertElliott, GilbertElliottProcess, Impairment,
    JitterSpec, OutageCursor, OutageSchedule, ReorderSpec, Timestamp, Trace, TraceCursor,
    MTU_BYTES,
};

/// Queue policy selection for a link.
#[derive(Clone, Debug)]
pub enum QueueConfig {
    /// DropTail bounded to a byte capacity ([`DEEP_QUEUE_BYTES`] is the
    /// paper's deeply buffered carrier, §2.1).
    DropTailBytes(u64),
    /// CoDel AQM (§5.4).
    CoDel(CoDelConfig),
}

impl QueueConfig {
    fn build(&self) -> Bottleneck {
        Bottleneck::new(match self {
            QueueConfig::DropTailBytes(cap) => {
                Policy::DropTail(DropTail::with_capacity_bytes(*cap))
            }
            QueueConfig::CoDel(cfg) => Policy::CoDel(CoDelQueue::new(*cfg)),
        })
    }
}

/// Fault-injection processes applied at one link direction: the specs to
/// enable, the seeds that drive them, and the (shared, precomputed)
/// outage schedule. The default injects nothing.
#[derive(Clone, Debug, Default)]
pub struct LinkImpairment {
    /// Gilbert-Elliott burst loss at packet ingress.
    pub burst_loss: Option<GilbertElliott>,
    /// Outage windows during which delivery opportunities are suppressed.
    /// Shared by both directions of a path (the radio goes dark as one).
    pub outages: OutageSchedule,
    /// Delivery-timestamp jitter.
    pub jitter: Option<JitterSpec>,
    /// Probabilistic packet holding (reordering).
    pub reorder: Option<ReorderSpec>,
    /// Seed of this direction's impairment randomness; the burst-loss and
    /// jitter/reorder processes each derive their own stream from it.
    pub seed: u64,
}

impl LinkImpairment {
    /// Realize an [`Impairment`] spec for one direction. `seed` is this
    /// direction's impairment seed; `outages` is the path-wide schedule
    /// (generated once per cell so both directions flap together).
    pub fn from_spec(spec: &Impairment, seed: u64, outages: OutageSchedule) -> Self {
        LinkImpairment {
            burst_loss: spec.burst_loss,
            outages,
            jitter: spec.jitter,
            reorder: spec.reorder,
            seed,
        }
    }

    /// Whether nothing is injected (the fast path).
    pub fn is_none(&self) -> bool {
        self.burst_loss.is_none()
            && self.outages.is_empty()
            && self.jitter.is_none()
            && self.reorder.is_none()
    }
}

/// Configuration of one direction of the emulated path.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Delivery-opportunity schedule.
    pub trace: Trace,
    /// Queue policy at the bottleneck.
    pub queue: QueueConfig,
    /// Probability an arriving packet is dropped before enqueue
    /// (§5.6 stochastic loss; 0.0 disables).
    pub loss_rate: f64,
    /// Seed for the loss process.
    pub loss_seed: u64,
    /// One-way propagation delay of the wire ahead of the bottleneck
    /// queue (the paper measures ~20 ms each way, §4.2). Consumed by
    /// `DirectedPath`, which delays packets by this much before they
    /// reach the queue.
    pub prop_delay: Duration,
    /// Fault injection at this link (none by default).
    pub impair: LinkImpairment,
}

impl LinkConfig {
    /// A loss-free link over `trace` behind the deep DropTail
    /// ([`DEEP_QUEUE_BYTES`]) every sweep cell runs, with the paper's
    /// 20 ms propagation — the standard experimental condition.
    pub fn standard(trace: Trace) -> Self {
        LinkConfig {
            trace,
            queue: QueueConfig::DropTailBytes(DEEP_QUEUE_BYTES),
            loss_rate: 0.0,
            loss_seed: 0,
            prop_delay: Duration::from_millis(20),
            impair: LinkImpairment::default(),
        }
    }
}

/// A packet delivered by the link, with the time it crossed.
#[derive(Debug)]
pub struct LinkDelivery {
    /// The delivered packet.
    pub packet: Packet,
    /// The delivery-opportunity time at which its last byte crossed.
    pub at: Timestamp,
}

/// A delivery waiting in the jitter/reorder release buffer. Ordered by
/// `(release time, insertion sequence)`, so equal-time releases keep
/// their service order and emission is globally non-decreasing.
#[derive(Debug)]
struct PendingDelivery {
    at: Timestamp,
    seq: u64,
    packet: Packet,
}

impl PartialEq for PendingDelivery {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for PendingDelivery {}
impl PartialOrd for PendingDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One direction of the cellular bottleneck.
///
/// The link holds its direction's packets in one ring (`Bottleneck`):
/// a [`crate::DirectedPath`] puts them on the wire at its back, they are
/// admitted to the queue (or dropped) in arrival order, and the queue's
/// head is served in place until its last byte crosses.
pub struct TraceLink {
    queue: Bottleneck,
    cursor: TraceCursor,
    /// Bytes of the queue's head that have already crossed; non-zero
    /// exactly while a packet is partly served.
    head_served: u32,
    loss_rate: f64,
    rng: StdRng,
    /// Gilbert-Elliott burst-loss chain (fault injection).
    burst: Option<GilbertElliottProcess>,
    /// Outage windows during which opportunities are suppressed.
    outages: OutageCursor,
    /// Jitter/reorder perturber; `None` keeps the zero-cost direct path.
    perturb: Option<DeliveryPerturber>,
    /// Perturbed deliveries waiting for their release time (min-heap).
    pending: BinaryHeap<Reverse<PendingDelivery>>,
    release_seq: u64,
    random_drops: u64,
    burst_drops: u64,
    /// Bytes of the packets the random- and burst-loss processes dropped.
    loss_bytes: u64,
    outage_suppressed: u64,
    reorder_holds: u64,
    wasted_opportunities: u64,
    used_opportunities: u64,
}

impl TraceLink {
    /// Build a link from its configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.loss_rate),
            "loss rate must be a probability"
        );
        let imp = cfg.impair;
        TraceLink {
            queue: cfg.queue.build(),
            cursor: TraceCursor::new(cfg.trace),
            head_served: 0,
            loss_rate: cfg.loss_rate,
            rng: StdRng::seed_from_u64(cfg.loss_seed),
            burst: imp
                .burst_loss
                .map(|ge| GilbertElliottProcess::new(ge, derive_seed(imp.seed, 0))),
            outages: OutageCursor::new(imp.outages),
            perturb: DeliveryPerturber::new(imp.jitter, imp.reorder, derive_seed(imp.seed, 1)),
            pending: BinaryHeap::new(),
            release_seq: 0,
            random_drops: 0,
            burst_drops: 0,
            loss_bytes: 0,
            outage_suppressed: 0,
            reorder_holds: 0,
            wasted_opportunities: 0,
            used_opportunities: 0,
        }
    }

    /// A packet reaches the bottleneck queue at `now`. A link driven by
    /// a [`crate::DirectedPath`] has its packets arrive off the wire
    /// instead; nothing may be on the wire when this is called.
    pub fn ingress(&mut self, packet: Packet, now: Timestamp) {
        debug_assert_eq!(self.queue.wire_packets(), 0, "ingress behind the wire");
        self.queue.push_wire(packet, now);
        self.admit_next();
    }

    /// Put `packet` on the wire ahead of this link; it reaches the queue
    /// at `arrive_at`, no earlier than the packets already on the wire.
    #[inline]
    pub(crate) fn push_wire(&mut self, packet: Packet, arrive_at: Timestamp) {
        self.queue.push_wire(packet, arrive_at);
    }

    /// When the first packet on the wire reaches the queue.
    #[inline]
    pub(crate) fn next_arrival(&self) -> Option<Timestamp> {
        self.queue.next_arrival()
    }

    /// The first packet on the wire reaches the queue: the random- and
    /// burst-loss processes draw for it, then the queue policy admits or
    /// drops it.
    #[inline]
    pub(crate) fn admit_next(&mut self) {
        if self.loss_rate > 0.0 && self.rng.gen::<f64>() < self.loss_rate {
            self.random_drops += 1;
            self.loss_bytes += u64::from(self.queue.next_arrival_size());
            self.queue.remove_next();
            return;
        }
        if let Some(burst) = &mut self.burst {
            if burst.should_drop() {
                self.burst_drops += 1;
                self.loss_bytes += u64::from(self.queue.next_arrival_size());
                self.queue.remove_next();
                return;
            }
        }
        self.queue.admit_next();
    }

    /// Packets on the wire ahead of this link.
    pub(crate) fn wire_packets(&self) -> usize {
        self.queue.wire_packets()
    }

    /// Bytes on the wire ahead of this link.
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.queue.wire_bytes()
    }

    /// Time of the next delivery opportunity, if the trace has any left.
    #[inline]
    pub fn next_opportunity(&self) -> Option<Timestamp> {
        self.cursor.peek()
    }

    /// Earliest release time in the jitter/reorder buffer, if any.
    #[inline]
    pub fn next_pending_release(&self) -> Option<Timestamp> {
        self.pending.peek().map(|Reverse(p)| p.at)
    }

    /// The next instant this link does anything on its own: a delivery
    /// opportunity or a buffered release coming due.
    #[inline]
    pub fn next_link_event(&self) -> Option<Timestamp> {
        match (self.next_opportunity(), self.next_pending_release()) {
            (Some(o), Some(r)) => Some(o.min(r)),
            (o, r) => o.or(r),
        }
    }

    /// [`TraceLink::service_with`], collected into a fresh `Vec` (tests
    /// and `benchmark/`'s `sim.link_service_ns` probe).
    pub fn service(&mut self, now: Timestamp) -> Vec<LinkDelivery> {
        let mut out = Vec::new();
        self.service_with(now, |packet, at| out.push(LinkDelivery { packet, at }));
        out
    }

    /// Fire all delivery opportunities due at or before `now` and release
    /// any buffered (jittered/held) deliveries that have come due, handing
    /// each packet whose final byte crossed the link to `sink` together
    /// with its delivery time, in non-decreasing delivery-time order. The
    /// packet goes straight from the queue (or the release buffer) to the
    /// sink; nothing is collected in between.
    pub fn service_with(&mut self, now: Timestamp, mut sink: impl FnMut(Packet, Timestamp)) {
        while let Some(op_time) = self.cursor.pop_due(now) {
            if self.outages.is_out(op_time) {
                // The link is dark: the opportunity is lost outright.
                // Queued bytes survive and drain when the link returns.
                self.outage_suppressed += 1;
                continue;
            }
            let mut budget = MTU_BYTES;
            let mut used = false;
            while budget > 0 {
                // A head not yet in service must first leave the policy's
                // backlog (CoDel may drop heads instead).
                let size = match self.head_served {
                    0 => match self.queue.start_service(op_time) {
                        Some(size) => size,
                        None => break,
                    },
                    _ => self.queue.head_size(),
                };
                used = true;
                let need = size - self.head_served;
                if need <= budget {
                    budget -= need;
                    self.head_served = 0;
                    let packet = self.queue.pop_head();
                    self.emit(packet, op_time, &mut sink);
                } else {
                    self.head_served += budget;
                    budget = 0;
                }
            }
            if used {
                self.used_opportunities += 1;
            } else {
                self.wasted_opportunities += 1;
            }
        }
        self.release_due(now, &mut sink);
    }

    /// Route one crossed packet to the sink: directly (unimpaired), or
    /// through the release buffer with a perturbed timestamp.
    #[inline]
    fn emit(
        &mut self,
        packet: Packet,
        op_time: Timestamp,
        sink: &mut impl FnMut(Packet, Timestamp),
    ) {
        match &mut self.perturb {
            None => sink(packet, op_time),
            Some(p) => {
                let (extra, held) = p.perturb();
                if held {
                    self.reorder_holds += 1;
                }
                self.release_seq += 1;
                self.pending.push(Reverse(PendingDelivery {
                    at: op_time + extra,
                    seq: self.release_seq,
                    packet,
                }));
            }
        }
    }

    /// Pop buffered deliveries whose release time has arrived. Every
    /// opportunity consumed so far precedes `now`, and fresh holds are
    /// never scheduled before their opportunity, so pops are globally
    /// non-decreasing in `at`.
    fn release_due(&mut self, now: Timestamp, sink: &mut impl FnMut(Packet, Timestamp)) {
        while self
            .pending
            .peek()
            .map(|Reverse(p)| p.at <= now)
            .unwrap_or(false)
        {
            let Reverse(p) = self.pending.pop().unwrap();
            sink(p.packet, p.at);
        }
    }

    /// Bytes waiting at the bottleneck (including the partially-served
    /// packet's unsent remainder).
    pub fn queued_bytes(&self) -> u64 {
        let partial = match self.head_served {
            0 => 0,
            served => u64::from(self.queue.head_size() - served),
        };
        self.queue.bytes() + partial
    }

    /// Packets waiting (including one partially served).
    pub fn queued_packets(&self) -> usize {
        self.queue.queued_packets()
    }

    /// Packets dropped by the random-loss process.
    pub fn random_drops(&self) -> u64 {
        self.random_drops
    }

    /// Packets dropped by the queue policy (DropTail overflow or CoDel).
    pub fn queue_drops(&self) -> u64 {
        self.queue.drops()
    }

    /// Packets dropped by the Gilbert-Elliott burst-loss process.
    pub fn burst_drops(&self) -> u64 {
        self.burst_drops
    }

    /// Bytes of every packet dropped so far: by the random-loss and
    /// burst-loss processes and by the queue policy.
    pub fn dropped_bytes(&self) -> u64 {
        self.loss_bytes + self.queue.drop_bytes()
    }

    /// Bytes of the partially served packet that have already crossed the
    /// link. The packet counts as delivered only once its last byte does;
    /// until then it is one of [`TraceLink::queued_packets`], and these
    /// bytes are the part of it [`TraceLink::queued_bytes`] leaves out.
    pub fn served_in_progress_bytes(&self) -> u64 {
        u64::from(self.head_served)
    }

    /// Delivery opportunities lost to link outages.
    pub fn outage_suppressed_opportunities(&self) -> u64 {
        self.outage_suppressed
    }

    /// Packets held back by the reorder process.
    pub fn reorder_holds(&self) -> u64 {
        self.reorder_holds
    }

    /// Packets sitting in the jitter/reorder release buffer (crossed the
    /// link, not yet emitted).
    pub fn pending_release_packets(&self) -> usize {
        self.pending.len()
    }

    /// Bytes of the packets in the jitter/reorder release buffer.
    pub fn pending_release_bytes(&self) -> u64 {
        self.pending
            .iter()
            .map(|Reverse(p)| u64::from(p.packet.size))
            .sum()
    }

    /// The outage windows injected at this link (empty when unimpaired).
    pub fn outage_windows(&self) -> &[(Timestamp, Timestamp)] {
        self.outages.schedule().windows()
    }

    /// Opportunities that found an empty queue (wasted capacity).
    pub fn wasted_opportunities(&self) -> u64 {
        self.wasted_opportunities
    }

    /// Opportunities that carried at least one byte.
    pub fn used_opportunities(&self) -> u64 {
        self.used_opportunities
    }

    /// The trace this link replays.
    pub fn trace(&self) -> &Trace {
        self.cursor.trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn mtu_pkt(seq: u64) -> Packet {
        Packet::opaque(FlowId::PRIMARY, seq, MTU_BYTES)
    }

    #[test]
    fn one_opportunity_delivers_one_mtu_packet() {
        let mut link = TraceLink::new(LinkConfig::standard(Trace::from_millis([10, 20])));
        link.ingress(mtu_pkt(1), t(0));
        link.ingress(mtu_pkt(2), t(0));
        let d = link.service(t(10));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.seq, 1);
        assert_eq!(d[0].at, t(10));
        let d = link.service(t(20));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.seq, 2);
    }

    #[test]
    fn footnote6_many_small_packets_share_one_opportunity() {
        // Fifteen 100-byte packets all leave on a single 1500-byte
        // opportunity (§4.2 footnote 6).
        let mut link = TraceLink::new(LinkConfig::standard(Trace::from_millis([10])));
        for i in 0..15 {
            link.ingress(Packet::opaque(FlowId::PRIMARY, i, 100), t(0));
        }
        let d = link.service(t(10));
        assert_eq!(d.len(), 15);
        assert!(d.iter().all(|x| x.at == t(10)));
    }

    #[test]
    fn partial_packet_carries_over_to_next_opportunity() {
        // A 100-byte packet then an MTU packet: the MTU packet gets 1400
        // bytes of the first opportunity and needs 100 bytes of the second.
        let mut link = TraceLink::new(LinkConfig::standard(Trace::from_millis([10, 30])));
        link.ingress(Packet::opaque(FlowId::PRIMARY, 1, 100), t(0));
        link.ingress(mtu_pkt(2), t(0));
        let d = link.service(t(10));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.seq, 1);
        assert_eq!(link.queued_packets(), 1); // the partially-served MTU
        assert_eq!(link.queued_bytes(), 100); // its remainder
        let d = link.service(t(30));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].packet.seq, 2);
        assert_eq!(d[0].at, t(30));
    }

    #[test]
    fn empty_queue_wastes_opportunities() {
        let mut link = TraceLink::new(LinkConfig::standard(Trace::from_millis([10, 20, 30])));
        assert!(link.service(t(25)).is_empty());
        assert_eq!(link.wasted_opportunities(), 2);
        link.ingress(mtu_pkt(1), t(26));
        let d = link.service(t(30));
        assert_eq!(d.len(), 1);
        assert_eq!(link.used_opportunities(), 1);
    }

    #[test]
    fn wasted_capacity_does_not_accumulate() {
        // Two opportunities pass with an empty queue; a packet arriving
        // later must wait for the *next* opportunity, not use banked ones.
        let mut link = TraceLink::new(LinkConfig::standard(Trace::from_millis([10, 20, 100])));
        assert!(link.service(t(50)).is_empty());
        link.ingress(mtu_pkt(1), t(60));
        assert!(link.service(t(60)).is_empty());
        let d = link.service(t(100));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].at, t(100));
    }

    #[test]
    fn bernoulli_loss_drops_expected_fraction() {
        let trace = Trace::from_millis(0..10_000);
        let mut link = TraceLink::new(LinkConfig {
            loss_rate: 0.10,
            loss_seed: 99,
            ..LinkConfig::standard(trace)
        });
        for i in 0..10_000 {
            link.ingress(mtu_pkt(i), t(i));
        }
        let frac = link.random_drops() as f64 / 10_000.0;
        assert!((frac - 0.10).abs() < 0.02, "drop fraction {frac}");
    }

    #[test]
    fn zero_loss_rate_never_drops() {
        let mut link = TraceLink::new(LinkConfig::standard(Trace::from_millis([1])));
        for i in 0..1_000 {
            link.ingress(mtu_pkt(i), t(0));
        }
        assert_eq!(link.random_drops(), 0);
    }

    fn impaired(trace: Trace, impair: LinkImpairment) -> TraceLink {
        TraceLink::new(LinkConfig {
            impair,
            ..LinkConfig::standard(trace)
        })
    }

    #[test]
    fn outage_suppresses_opportunities_but_keeps_queued_bytes() {
        use sprout_trace::OutageSpec;
        let outages = OutageSchedule::generate(
            &OutageSpec {
                duration: Duration::from_millis(40),
                spacing: Duration::from_millis(100),
            },
            7,
            Duration::from_millis(400),
        );
        let windows = outages.windows().to_vec();
        assert!(!windows.is_empty());
        let mut link = impaired(
            Trace::from_millis((0..40).map(|i| i * 10)),
            LinkImpairment {
                outages,
                ..LinkImpairment::default()
            },
        );
        for i in 0..40 {
            link.ingress(mtu_pkt(i), t(0));
        }
        let d = link.service(t(400));
        // No delivery timestamp may fall inside an outage window.
        for del in &d {
            for &(start, end) in &windows {
                assert!(
                    del.at < start || del.at >= end,
                    "delivery at {} inside outage [{start}, {end})",
                    del.at
                );
            }
        }
        assert!(link.outage_suppressed_opportunities() > 0);
        // Conservation: delivered + still queued = sent.
        assert_eq!(d.len() + link.queued_packets(), 40);
    }

    #[test]
    fn burst_loss_drops_in_bursts_and_is_counted() {
        let mut link = impaired(
            Trace::from_millis(0..4_000),
            LinkImpairment {
                burst_loss: Some(GilbertElliott {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.3,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                }),
                seed: 11,
                ..LinkImpairment::default()
            },
        );
        for i in 0..4_000 {
            link.ingress(mtu_pkt(i), t(i));
        }
        let frac = link.burst_drops() as f64 / 4_000.0;
        let expected = 0.05 / 0.35; // stationary bad-state occupancy
        assert!((frac - expected).abs() < 0.06, "burst drop fraction {frac}");
        assert_eq!(link.random_drops(), 0);
    }

    #[test]
    fn jitter_delays_but_preserves_order_and_multiset() {
        use sprout_trace::{JitterSpec, ReorderSpec};
        let mut link = impaired(
            Trace::from_millis((0..200).map(|i| i * 10)),
            LinkImpairment {
                jitter: Some(JitterSpec {
                    max: Duration::from_millis(8),
                }),
                reorder: Some(ReorderSpec {
                    probability: 0.2,
                    extra_delay: Duration::from_millis(50),
                }),
                seed: 13,
                ..LinkImpairment::default()
            },
        );
        for i in 0..200 {
            link.ingress(mtu_pkt(i), t(i * 10));
        }
        let mut all = Vec::new();
        for step in 0..=300 {
            let batch = link.service(t(step * 10));
            all.extend(batch);
        }
        // Everything eventually emits, each packet exactly once.
        let mut seqs: Vec<u64> = all.iter().map(|d| d.packet.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..200).collect::<Vec<u64>>());
        assert_eq!(link.pending_release_packets(), 0);
        // Emission timestamps are non-decreasing...
        for w in all.windows(2) {
            assert!(w[0].at <= w[1].at, "emission must stay time-ordered");
        }
        // ...but sequence order is genuinely perturbed (reordering).
        assert!(link.reorder_holds() > 0);
        let in_order: Vec<u64> = all.iter().map(|d| d.packet.seq).collect();
        assert_ne!(in_order, (0..200).collect::<Vec<u64>>(), "some reordering");
        // Jitter only ever delays: no delivery before its opportunity.
        // (Opportunity i fires at 10i ms and serves at most one MTU, so
        // packet k crosses no earlier than opportunity k.)
        for d in &all {
            assert!(d.at >= t(d.packet.seq * 10));
        }
    }

    #[test]
    fn impaired_link_is_deterministic_per_seed() {
        use sprout_trace::{JitterSpec, OutageSpec, ReorderSpec};
        let run = |seed: u64| -> Vec<(u64, u64)> {
            let outages = OutageSchedule::generate(
                &OutageSpec {
                    duration: Duration::from_millis(30),
                    spacing: Duration::from_millis(200),
                },
                seed,
                Duration::from_secs(2),
            );
            let mut link = impaired(
                Trace::from_millis(0..2_000),
                LinkImpairment {
                    burst_loss: Some(GilbertElliott {
                        p_good_to_bad: 0.02,
                        p_bad_to_good: 0.2,
                        loss_good: 0.0,
                        loss_bad: 0.8,
                    }),
                    outages,
                    jitter: Some(JitterSpec {
                        max: Duration::from_millis(5),
                    }),
                    reorder: Some(ReorderSpec {
                        probability: 0.1,
                        extra_delay: Duration::from_millis(20),
                    }),
                    seed,
                },
            );
            let mut out = Vec::new();
            for ms in 0..2_100 {
                link.ingress(mtu_pkt(ms), t(ms));
                out.extend(
                    link.service(t(ms))
                        .into_iter()
                        .map(|d| (d.packet.seq, d.at.as_micros())),
                );
            }
            out
        };
        assert_eq!(run(5), run(5), "identical seeds, identical deliveries");
        assert_ne!(run(5), run(6), "seeds matter");
    }

    #[test]
    fn codel_policy_is_wired_through() {
        let trace = Trace::from_millis((0..2_000).map(|i| i * 20)); // 50 pps
        let mut link = TraceLink::new(LinkConfig {
            queue: QueueConfig::CoDel(CoDelConfig::default()),
            ..LinkConfig::standard(trace)
        });
        // Overload 4x: 200 MTU/s for 10 s.
        for (seq, ms) in (0..10_000u64).step_by(5).enumerate() {
            link.ingress(mtu_pkt(seq as u64), t(ms));
            link.service(t(ms));
        }
        assert!(link.queue_drops() > 0, "CoDel should shed persistent load");
    }
}
