//! The sans-IO endpoint abstraction.
//!
//! Every protocol in this workspace — Sprout itself, the TCP baselines, the
//! videoconference app models, the tunnel — is a state machine implementing
//! [`Endpoint`]. The state machine never touches sockets or clocks, and
//! the trait names no I/O type; the virtual-time event loops
//! ([`crate::run`], [`crate::serve`]) are its drivers. This is the smoltcp
//! idiom: explicit `poll_into(now, ..)`-style interfaces keep the protocol
//! logic deterministic and testable.

use crate::packet::Packet;
use sprout_trace::Timestamp;

/// A protocol endpoint driven by packet arrivals and time.
///
/// `Send` is a supertrait so whole simulations — including `Box<dyn
/// Endpoint>` trait objects — can move onto worker threads; the sweep
/// engine in `sprout-bench` executes scenario cells in parallel.
pub trait Endpoint: Send {
    /// A packet addressed to this endpoint has arrived.
    fn on_packet(&mut self, packet: Packet, now: Timestamp);

    /// Give the endpoint a chance to transmit: *append* every packet the
    /// endpoint is willing to send at `now` to `out` (which may already
    /// hold other endpoints' packets — do not clear or reorder it). The
    /// driver stamps `sent_at`. This is the required method so the event
    /// loop can recycle one buffer across all endpoints and steps instead
    /// of allocating a fresh `Vec` per poll tick.
    ///
    /// A driver may poll at any instant, not only after an arrival or at
    /// [`Endpoint::next_wakeup`], and today's drivers do: `Simulation`
    /// polls both endpoints at every path event (each delivery
    /// opportunity of either trace included), `ServeSim` polls a client at
    /// every event of its downlink path. An endpoint whose answer depends
    /// on `now` (Sprout's window does) therefore sends on the cadence of
    /// those polls; a driver that polls less often simulates something
    /// else.
    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>);

    /// The next time this endpoint needs to be polled even if no packet
    /// arrives (tick boundaries, retransmission timers, pacing release
    /// times). `None` means "only wake me on packet arrival". This is a
    /// lower bound on attention, not a schedule: the driver guarantees a
    /// poll at this instant and is free to poll earlier and more often
    /// (see [`Endpoint::poll_into`]).
    fn next_wakeup(&self) -> Option<Timestamp>;
}

impl<T: Endpoint + ?Sized> Endpoint for Box<T> {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        (**self).on_packet(packet, now)
    }
    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        (**self).poll_into(now, out)
    }
    fn next_wakeup(&self) -> Option<Timestamp> {
        (**self).next_wakeup()
    }
}

/// An endpoint that discards everything and never transmits. Useful as the
/// quiet end of one-directional experiments.
#[derive(Debug, Default, Clone, Copy)]
pub struct SinkEndpoint {
    received: u64,
}

impl SinkEndpoint {
    /// New sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes received.
    pub fn received_bytes(&self) -> u64 {
        self.received
    }
}

impl Endpoint for SinkEndpoint {
    fn on_packet(&mut self, packet: Packet, _now: Timestamp) {
        self.received += packet.size as u64;
    }
    fn poll_into(&mut self, _now: Timestamp, _out: &mut Vec<Packet>) {}
    fn next_wakeup(&self) -> Option<Timestamp> {
        None
    }
}

/// Several independent endpoints sharing one network path, distinguished
/// by [`crate::packet::FlowId`]: the "direct" (untunneled) configuration
/// of the §5.7 experiment — a Skype call and a TCP download commingling
/// in one per-user cellular queue — and the substrate of the N-flow
/// contention cells that generalize it. Outgoing packets are re-stamped
/// with each child's flow id, so the path's delivery log attributes
/// every packet to its flow and per-flow metrics fall out of the shared
/// link's own records.
pub struct MuxEndpoint {
    children: Vec<(crate::packet::FlowId, Box<dyn Endpoint>)>,
}

impl MuxEndpoint {
    /// Empty mux.
    pub fn new() -> Self {
        MuxEndpoint {
            children: Vec::new(),
        }
    }

    /// Attach `child` under `flow`. Outgoing packets are re-stamped with
    /// the flow id; incoming packets are routed by it.
    pub fn add(&mut self, flow: crate::packet::FlowId, child: Box<dyn Endpoint>) {
        self.children.push((flow, child));
    }

    /// Borrow a child endpoint by flow.
    pub fn child(&self, flow: crate::packet::FlowId) -> Option<&dyn Endpoint> {
        self.children
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, c)| &**c)
    }
}

impl Default for MuxEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl Endpoint for MuxEndpoint {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        if let Some((_, child)) = self.children.iter_mut().find(|(f, _)| *f == packet.flow) {
            child.on_packet(packet, now);
        }
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        for (flow, child) in &mut self.children {
            // Re-stamp only this child's packets: everything it appended
            // beyond the high-water mark it was handed.
            let start = out.len();
            child.poll_into(now, out);
            for p in &mut out[start..] {
                p.flow = *flow;
            }
        }
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        self.children
            .iter()
            .filter_map(|(_, c)| c.next_wakeup())
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    /// Everything `e` sends at `now`.
    pub(super) fn polled(e: &mut impl Endpoint, now: Timestamp) -> Vec<Packet> {
        let mut out = Vec::new();
        e.poll_into(now, &mut out);
        out
    }

    #[test]
    fn sink_counts_bytes_and_stays_silent() {
        let mut sink = SinkEndpoint::new();
        sink.on_packet(Packet::opaque(FlowId::PRIMARY, 0, 100), Timestamp::ZERO);
        sink.on_packet(Packet::opaque(FlowId::PRIMARY, 1, 50), Timestamp::ZERO);
        assert_eq!(sink.received_bytes(), 150);
        assert!(polled(&mut sink, Timestamp::ZERO).is_empty());
        assert_eq!(sink.next_wakeup(), None);
    }

    #[test]
    fn boxed_endpoint_delegates() {
        let mut boxed: Box<dyn Endpoint> = Box::new(SinkEndpoint::new());
        boxed.on_packet(Packet::opaque(FlowId::PRIMARY, 0, 10), Timestamp::ZERO);
        assert!(polled(&mut boxed, Timestamp::ZERO).is_empty());
        assert_eq!(boxed.next_wakeup(), None);
    }
}

#[cfg(test)]
mod mux_tests {
    use super::tests::polled;
    use super::*;
    use crate::packet::FlowId;

    /// Echoes every received packet back and sends one greeting at t=0.
    struct Chatter {
        sent_greeting: bool,
        echoes: Vec<Packet>,
    }
    impl Chatter {
        fn new() -> Self {
            Chatter {
                sent_greeting: false,
                echoes: Vec::new(),
            }
        }
    }
    impl Endpoint for Chatter {
        fn on_packet(&mut self, packet: Packet, _now: Timestamp) {
            self.echoes.push(packet);
        }
        fn poll_into(&mut self, _now: Timestamp, out: &mut Vec<Packet>) {
            out.append(&mut self.echoes);
            if !self.sent_greeting {
                self.sent_greeting = true;
                out.push(Packet::opaque(FlowId(99), 0, 100)); // wrong flow id on purpose
            }
        }
        fn next_wakeup(&self) -> Option<Timestamp> {
            None
        }
    }

    #[test]
    fn mux_restamps_and_routes_flows() {
        let mut mux = MuxEndpoint::new();
        mux.add(FlowId(1), Box::new(Chatter::new()));
        mux.add(FlowId(2), Box::new(Chatter::new()));
        let out = polled(&mut mux, Timestamp::ZERO);
        assert_eq!(out.len(), 2);
        // Children's flow ids are overwritten by the mux.
        assert!(out.iter().any(|p| p.flow == FlowId(1)));
        assert!(out.iter().any(|p| p.flow == FlowId(2)));
        // Routing: a packet for flow 2 only reaches child 2.
        mux.on_packet(Packet::opaque(FlowId(2), 7, 10), Timestamp::ZERO);
        let echoed = polled(&mut mux, Timestamp::ZERO);
        assert_eq!(echoed.len(), 1);
        assert_eq!(echoed[0].flow, FlowId(2));
        assert_eq!(echoed[0].seq, 7);
    }

    #[test]
    fn unknown_flow_is_dropped() {
        let mut mux = MuxEndpoint::new();
        mux.add(FlowId(1), Box::new(Chatter::new()));
        let _ = polled(&mut mux, Timestamp::ZERO);
        mux.on_packet(Packet::opaque(FlowId(5), 0, 10), Timestamp::ZERO);
        assert!(polled(&mut mux, Timestamp::ZERO).is_empty());
    }
}
