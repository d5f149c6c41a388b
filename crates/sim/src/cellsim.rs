//! Cellsim (§4.2): the bidirectional trace-driven path emulator.
//!
//! Each direction is a [`DirectedPath`]: a fixed propagation delay (the
//! paper measures ~20 ms each way, §4.2) followed by the bottleneck queue
//! and the trace-driven [`TraceLink`]. The two directions are independent
//! — cellular up- and downlinks have separate, asymmetric schedules.
//!
//! A direction keeps its packets in one ring of `(arrival, Packet)`, owned
//! by its link, from [`DirectedPath::send`] until delivery: the wire is the
//! ring's back, the bottleneck queue its front. A packet reaching the
//! queue is admitted (or dropped in place) by moving an index, in arrival
//! order, with the random draws the loss processes always made; the link
//! serves the head where it lies and hands it to the receiving endpoint
//! by value. The event loop around two directions is generic over both
//! endpoints, so a pair built concretely (every scheme cell's is) crosses
//! no `dyn` per packet.

use crate::link::{LinkConfig, TraceLink};
use crate::metrics::{DeliveryRecord, MetricsCollector};
use crate::packet::Packet;
use sprout_trace::{Duration, Timestamp, Trace};

/// Configuration of one direction of the emulated path. The one-way
/// propagation delay lives on [`LinkConfig::prop_delay`].
#[derive(Clone, Debug)]
pub struct PathConfig {
    /// Bottleneck link (trace, queue policy, loss, propagation delay).
    pub link: LinkConfig,
}

impl PathConfig {
    /// The paper's standard condition: 20 ms propagation, the deep
    /// DropTail ([`crate::DEEP_QUEUE_BYTES`]) every sweep cell runs, no
    /// random loss.
    pub fn standard(trace: Trace) -> Self {
        PathConfig {
            link: LinkConfig::standard(trace),
        }
    }

    /// Override the one-way propagation delay.
    pub fn with_prop_delay(mut self, prop_delay: Duration) -> Self {
        self.link.prop_delay = prop_delay;
        self
    }
}

/// One direction of the path: wire delay, then the cellular bottleneck.
/// The packets on the wire sit in the link's ring behind its queue.
///
/// Every direction counts the packets and bytes it delivers. Only a
/// direction built with a log ([`DirectedPath::new`],
/// [`DirectedPath::with_log`]) also records each delivery: the event
/// loops log the direction they measure and build the other one
/// [`DirectedPath::unlogged`].
pub struct DirectedPath {
    prop_delay: Duration,
    link: TraceLink,
    /// The delivery log, on a logged direction.
    log: Option<MetricsCollector>,
    delivered_packets: u64,
    delivered_bytes: u64,
}

/// What [`DirectedPath::metrics`] reads on an unlogged direction.
static UNLOGGED: MetricsCollector = MetricsCollector::new();

impl DirectedPath {
    /// Build one direction from its configuration, logging every delivery.
    pub fn new(cfg: PathConfig) -> Self {
        DirectedPath::with_log(cfg, Vec::new())
    }

    /// [`DirectedPath::new`], recording deliveries into `log` (cleared
    /// first) so a recycled log's capacity survives from one simulation to
    /// the next; recover it with [`DirectedPath::into_log`].
    pub fn with_log(cfg: PathConfig, log: Vec<DeliveryRecord>) -> Self {
        DirectedPath {
            log: Some(MetricsCollector::with_log(log)),
            ..DirectedPath::unlogged(cfg)
        }
    }

    /// A direction that only counts what it delivers: no delivery log,
    /// and [`DirectedPath::metrics`] is empty.
    pub fn unlogged(cfg: PathConfig) -> Self {
        DirectedPath {
            prop_delay: cfg.link.prop_delay,
            link: TraceLink::new(cfg.link),
            log: None,
            delivered_packets: 0,
            delivered_bytes: 0,
        }
    }

    /// Tear down, recovering the delivery log's storage (`None` on an
    /// unlogged direction).
    pub fn into_log(self) -> Option<Vec<DeliveryRecord>> {
        self.log.map(MetricsCollector::into_log)
    }

    /// Hand a packet to this direction at `now` (stamps `sent_at`).
    #[inline]
    pub fn send(&mut self, mut packet: Packet, now: Timestamp) {
        debug_assert!(
            packet.payload.len() as u64 + packet.padding as u64 <= packet.size as u64,
            "packet carries {} + {} wire bytes but is accounted as {}",
            packet.payload.len(),
            packet.padding,
            packet.size
        );
        packet.sent_at = now;
        self.link.push_wire(packet, now + self.prop_delay);
    }

    /// The next time something happens inside this direction: a wire
    /// arrival reaching the queue, a trace delivery opportunity, or a
    /// jittered/held delivery coming due in the link's release buffer.
    #[inline]
    pub fn next_event(&self) -> Option<Timestamp> {
        let arrival = self.link.next_arrival();
        let link_event = self.link.next_link_event();
        match (arrival, link_event) {
            (Some(a), Some(o)) => Some(a.min(o)),
            (a, o) => a.or(o),
        }
    }

    /// Advance internal state to `now`, processing wire arrivals and
    /// delivery opportunities in strict time order. Each packet that
    /// reaches the far end is counted, recorded in the delivery log on a
    /// logged direction, and handed to `sink` in the same place, in
    /// delivery order.
    pub fn advance_with(&mut self, now: Timestamp, mut sink: impl FnMut(Packet)) {
        loop {
            let next_arrival = self.link.next_arrival();
            // Link events cover delivery opportunities and due releases
            // from the jitter/reorder buffer; `service` handles both.
            let next_op = self.link.next_link_event();
            // Pick the earliest pending event that is due.
            let arrival_due = next_arrival.map(|t| t <= now).unwrap_or(false);
            let op_due = next_op.map(|t| t <= now).unwrap_or(false);
            match (arrival_due, op_due) {
                (false, false) => break,
                (true, false) => self.link.admit_next(),
                (false, true) => self.service_due(next_op.unwrap(), &mut sink),
                (true, true) => {
                    // Arrivals strictly before the opportunity must be
                    // queued first; at a tie, enqueue first so the packet
                    // can use this very opportunity (it reached the queue
                    // by then).
                    if next_arrival.unwrap() <= next_op.unwrap() {
                        self.link.admit_next();
                    } else {
                        self.service_due(next_op.unwrap(), &mut sink);
                    }
                }
            }
        }
    }

    #[inline]
    fn service_due(&mut self, op_time: Timestamp, sink: &mut impl FnMut(Packet)) {
        let (log, packets, bytes) = (
            &mut self.log,
            &mut self.delivered_packets,
            &mut self.delivered_bytes,
        );
        self.link.service_with(op_time, |packet, at| {
            *packets += 1;
            *bytes += u64::from(packet.size);
            if let Some(log) = log {
                log.record(DeliveryRecord {
                    sent_at: packet.sent_at,
                    delivered_at: at,
                    size: packet.size,
                    flow: packet.flow,
                });
            }
            sink(packet);
        });
    }

    /// Delivery log of this direction. On an unlogged direction
    /// ([`DirectedPath::unlogged`]) this is an empty collector: it has no
    /// records, and every window of it delivered nothing. The counters
    /// ([`DirectedPath::delivered_packets`],
    /// [`DirectedPath::delivered_bytes`]) hold on every direction.
    pub fn metrics(&self) -> &MetricsCollector {
        self.log.as_ref().unwrap_or(&UNLOGGED)
    }

    /// Packets this direction has delivered to the far end so far.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered_packets
    }

    /// Wire bytes this direction has delivered to the far end so far.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// The bottleneck link (for queue occupancy, drop counters, trace).
    pub fn link(&self) -> &TraceLink {
        &self.link
    }

    /// One-way propagation delay of this direction.
    pub fn prop_delay(&self) -> Duration {
        self.prop_delay
    }

    /// Bytes currently in flight on the wire (not yet at the queue).
    pub fn wire_bytes(&self) -> u64 {
        self.link.wire_bytes()
    }

    /// Packets currently in flight on the wire (not yet at the queue).
    pub fn wire_packets(&self) -> usize {
        self.link.wire_packets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use sprout_trace::MTU_BYTES;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn mtu(seq: u64) -> Packet {
        Packet::opaque(FlowId::PRIMARY, seq, MTU_BYTES)
    }

    /// The packets `advance_with` hands its sink, collected.
    fn advance(path: &mut DirectedPath, now: Timestamp) -> Vec<Packet> {
        let mut delivered = Vec::new();
        path.advance_with(now, |p| delivered.push(p));
        delivered
    }

    #[test]
    fn propagation_delays_queue_entry() {
        // Opportunity at 10 ms, packet sent at 0 with 20 ms propagation:
        // it misses the 10 ms opportunity and uses the one at 30 ms.
        let mut path = DirectedPath::new(PathConfig::standard(Trace::from_millis([10, 30])));
        path.send(mtu(1), t(0));
        let d = advance(&mut path, t(10));
        assert!(d.is_empty());
        let d = advance(&mut path, t(30));
        assert_eq!(d.len(), 1);
        assert_eq!(path.metrics().records()[0].delivered_at, t(30));
        assert_eq!(path.metrics().records()[0].sent_at, t(0));
    }

    #[test]
    fn tie_between_arrival_and_opportunity_enqueues_first() {
        // Arrival lands exactly on an opportunity: the packet crosses
        // immediately (one-way delay = propagation).
        let mut path = DirectedPath::new(PathConfig::standard(Trace::from_millis([20])));
        path.send(mtu(1), t(0));
        let d = advance(&mut path, t(20));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].sent_at, t(0));
    }

    #[test]
    fn next_event_tracks_both_sources() {
        let mut path = DirectedPath::new(PathConfig::standard(Trace::from_millis([100])));
        assert_eq!(path.next_event(), Some(t(100)));
        path.send(mtu(1), t(0)); // arrival at 20 ms
        assert_eq!(path.next_event(), Some(t(20)));
        advance(&mut path, t(50));
        assert_eq!(path.next_event(), Some(t(100)));
        advance(&mut path, t(100));
        assert_eq!(path.next_event(), None);
    }

    #[test]
    fn events_process_in_time_order_within_one_advance() {
        // Opportunity at 25 ms (before the 30 ms arrival) must be wasted
        // even when advance() is called late, at 100 ms.
        let mut path = DirectedPath::new(PathConfig::standard(Trace::from_millis([25, 60])));
        path.send(mtu(1), t(10)); // arrives at queue at 30 ms
        let d = advance(&mut path, t(100));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].sent_at, t(10));
        assert_eq!(path.metrics().records()[0].delivered_at, t(60));
        assert_eq!(path.link().wasted_opportunities(), 1);
    }

    #[test]
    fn wire_bytes_counts_unarrived_packets() {
        let mut path = DirectedPath::new(PathConfig::standard(Trace::from_millis([100])));
        path.send(mtu(1), t(0));
        path.send(mtu(2), t(5));
        assert_eq!(path.wire_bytes(), 2 * MTU_BYTES as u64);
        advance(&mut path, t(21)); // first has arrived at queue
        assert_eq!(path.wire_bytes(), MTU_BYTES as u64);
    }
}
