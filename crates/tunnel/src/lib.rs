//! SproutTunnel (§4.3): carry arbitrary client traffic across the
//! cellular link inside a Sprout session, isolating flows from each other.
//!
//! "SproutTunnel provides each flow with the abstraction of a low-delay
//! connection, without modifying carrier equipment. It does this by
//! separating each flow into its own queue, and filling up the Sprout
//! window in round-robin fashion among the flows that have pending data.
//! The total queue length of all flows is limited to the receiver's most
//! recent estimate of the number of packets that can be delivered over
//! the life of the forecast. When the queue lengths exceed this value,
//! the tunnel endpoints drop packets from the head of the longest queue."
//!
//! [`TunnelEndpoint`] is the tunnel itself (local packets in/out, Sprout
//! wire packets toward the network); [`TunnelHost`] composes a tunnel
//! with a [`MuxEndpoint`] of local client endpoints into a single
//! [`Endpoint`] suitable for [`sprout_sim::Simulation`].

#![warn(missing_docs)]

pub mod server;

pub use server::SproutServer;

use std::collections::VecDeque;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use sprout_core::SproutEndpoint;
use sprout_sim::{Endpoint, FlowId, MuxEndpoint, Packet};
use sprout_trace::Timestamp;

/// Encapsulation header inside a Sprout datagram: flow(4) seq(8)
/// sent_at(8) size(4).
const ENCAP_LEN: usize = 24;

/// The datagram a client packet travels in: the encapsulation header,
/// then the packet's full wire payload with its counted padding
/// materialised as zeros (the one place that does, see
/// [`Packet::padding`]).
///
/// Known inconsistency, changing it is an ENGINE_VERSION bump: the
/// datagram is `ENCAP_LEN + payload.len() + padding` bytes, not
/// `ENCAP_LEN + size` as `fill_window` charges — a 40-byte TCP ACK
/// ships 24 + 25 bytes, an app report 24 + 17.
fn encapsulate(packet: &Packet) -> Bytes {
    let wire_len = ENCAP_LEN + packet.payload.len() + packet.padding as usize;
    let mut b = BytesMut::with_capacity(wire_len);
    b.put_u32_le(packet.flow.0);
    b.put_u64_le(packet.seq);
    b.put_u64_le(packet.sent_at.as_micros());
    b.put_u32_le(packet.size);
    b.extend_from_slice(&packet.payload);
    b.resize(wire_len, 0);
    b.freeze()
}

fn decapsulate(mut datagram: Bytes) -> Option<Packet> {
    if datagram.len() < ENCAP_LEN {
        return None;
    }
    let flow = FlowId(datagram.get_u32_le());
    let seq = datagram.get_u64_le();
    let sent_at = Timestamp::from_micros(datagram.get_u64_le());
    let size = datagram.get_u32_le();
    Some(Packet {
        flow,
        seq,
        sent_at,
        size,
        padding: 0, // already materialised by `encapsulate`
        payload: datagram,
    })
}

/// Counters for tests and reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct TunnelStats {
    /// Client packets accepted into per-flow queues.
    pub enqueued: u64,
    /// Client packets dropped by the head-drop AQM.
    pub dropped: u64,
    /// Client packets handed to Sprout for transmission.
    pub forwarded: u64,
    /// Client packets decapsulated for local delivery.
    pub delivered: u64,
}

/// One end of a SproutTunnel.
pub struct TunnelEndpoint {
    sprout: SproutEndpoint,
    /// Per-flow client queues, in insertion order of first use.
    queues: Vec<(FlowId, VecDeque<Packet>)>,
    /// Round-robin position.
    rr_next: usize,
    stats: TunnelStats,
}

impl TunnelEndpoint {
    /// Wrap a Sprout endpoint (typically `SproutEndpoint::new(cfg)`).
    pub fn new(sprout: SproutEndpoint) -> Self {
        TunnelEndpoint {
            sprout,
            queues: Vec::new(),
            rr_next: 0,
            stats: TunnelStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> TunnelStats {
        self.stats
    }

    /// The underlying Sprout endpoint (diagnostics).
    pub fn sprout(&self) -> &SproutEndpoint {
        &self.sprout
    }

    /// A client (local-side) packet enters the tunnel.
    pub fn inject_local(&mut self, packet: Packet, _now: Timestamp) {
        // Resolve the flow's queue by position: if absent, push a fresh
        // queue first so the index is valid by construction — no `last_mut
        // + unwrap` whose invariant lives three lines away.
        let idx = match self.queues.iter().position(|(f, _)| *f == packet.flow) {
            Some(idx) => idx,
            None => {
                self.queues.push((packet.flow, VecDeque::new()));
                self.queues.len() - 1
            }
        };
        self.queues[idx].1.push_back(packet);
        self.stats.enqueued += 1;
    }

    /// Total queued client bytes across flows.
    pub fn queued_bytes(&self) -> u64 {
        self.queues
            .iter()
            .flat_map(|(_, q)| q.iter())
            .map(|p| p.size as u64)
            .sum()
    }

    /// Queued bytes of one flow (diagnostics/tests).
    pub fn flow_queue_len(&self, flow: FlowId) -> usize {
        self.queues
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, q)| q.len())
            .unwrap_or(0)
    }

    /// §4.3 queue management: cap the total backlog at the bytes the
    /// forecast says can be delivered over its remaining life, dropping
    /// from the *head* of the *longest* queue while over.
    fn enforce_cap(&mut self, now: Timestamp) {
        let cap = self.sprout.forecast_life_bytes(now);
        if cap == 0 {
            // No forecast yet (first RTT): keep the backlog rather than
            // dropping everything at startup.
            return;
        }
        while self.queued_bytes() > cap {
            let longest = self
                .queues
                .iter_mut()
                .max_by_key(|(_, q)| q.iter().map(|p| p.size as u64).sum::<u64>());
            match longest {
                Some((_, q)) if !q.is_empty() => {
                    q.pop_front();
                    self.stats.dropped += 1;
                }
                _ => break,
            }
        }
    }

    /// Move queued client packets into the Sprout send buffer,
    /// round-robin among flows with pending data, as long as the Sprout
    /// window has room.
    fn fill_window(&mut self, now: Timestamp) {
        let mut window = self.sprout.window_bytes(now);
        loop {
            let n = self.queues.len();
            if n == 0 {
                return;
            }
            let mut advanced = false;
            for step in 0..n {
                let idx = (self.rr_next + step) % n;
                let (_, q) = &mut self.queues[idx];
                let Some(front_size) = q.front().map(|p| p.size as u64) else {
                    continue;
                };
                // Overhead: Sprout full header + encapsulation header.
                // Known inconsistency, changing it is an ENGINE_VERSION
                // bump: the window is charged for the client packet's
                // `size`, while `encapsulate` ships only its payload and
                // padding (15 bytes fewer for a TCP ACK).
                let wire = front_size + (sprout_core::wire::FULL_HEADER_LEN + ENCAP_LEN) as u64;
                if window < wire {
                    return;
                }
                window -= wire;
                let packet = q.pop_front().unwrap();
                self.sprout.push_app_datagram(encapsulate(&packet));
                self.stats.forwarded += 1;
                self.rr_next = (idx + 1) % n;
                advanced = true;
                break;
            }
            if !advanced {
                return;
            }
        }
    }

    /// A Sprout wire packet arrives from the network; *appends* the
    /// decapsulated client packets to deliver locally onto `out` (the
    /// caller's recycled buffer — never cleared here), mirroring the
    /// [`Endpoint::poll_into`] contract so the per-packet hot path stays
    /// allocation-free.
    pub fn on_wire_packet_into(&mut self, packet: Packet, now: Timestamp, out: &mut Vec<Packet>) {
        self.sprout.on_packet(packet, now);
        for dgram in self.sprout.take_app_datagrams() {
            if let Some(p) = decapsulate(dgram) {
                self.stats.delivered += 1;
                out.push(p);
            }
        }
    }

    /// Produce Sprout wire packets to transmit toward the network,
    /// appending to `out` (the event loop's recycled buffer).
    pub fn poll_wire_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        self.enforce_cap(now);
        self.fill_window(now);
        self.sprout.poll_into(now, out);
    }

    /// Next wakeup of the underlying Sprout machinery.
    pub fn next_wakeup(&self) -> Option<Timestamp> {
        self.sprout.next_wakeup()
    }
}

/// A tunnel endpoint composed with its local client endpoints, presenting
/// one [`Endpoint`] to the emulator: tunnel ∘ [`MuxEndpoint`]. The mux
/// owns the clients — routing arrivals by flow, polling in order,
/// re-stamping flow ids — and the host moves packets between it and the
/// tunnel. The "wired" segment between tunnel and clients is modeled as
/// zero-delay (the paper's relay is well-connected; the cellular hop
/// dominates end-to-end behaviour).
pub struct TunnelHost {
    tunnel: TunnelEndpoint,
    clients: MuxEndpoint,
    /// End-to-end delivery log of decapsulated client packets (client
    /// `sent_at` → local delivery time), for per-flow §5.7 metrics.
    deliveries: sprout_sim::MetricsCollector,
    /// Recycled buffer for client polls (client packets are re-stamped
    /// and injected locally, so they cannot share the wire buffer).
    client_scratch: Vec<Packet>,
    /// Recycled buffer for decapsulated deliveries on the receive path.
    deliver_scratch: Vec<Packet>,
}

impl TunnelHost {
    /// A tunnel with no clients yet (see [`TunnelHost::add_client`]).
    pub fn new(tunnel: TunnelEndpoint) -> Self {
        Self::with_clients(tunnel, MuxEndpoint::new())
    }

    /// Compose a tunnel with an already-built client set.
    pub fn with_clients(tunnel: TunnelEndpoint, clients: MuxEndpoint) -> Self {
        TunnelHost {
            tunnel,
            clients,
            deliveries: sprout_sim::MetricsCollector::new(),
            client_scratch: Vec::new(),
            deliver_scratch: Vec::new(),
        }
    }

    /// End-to-end client-packet delivery log (per-flow throughput and
    /// delay for the §5.7 experiment).
    pub fn deliveries(&self) -> &sprout_sim::MetricsCollector {
        &self.deliveries
    }

    /// Attach a client endpoint under `flow`.
    pub fn add_client(&mut self, flow: FlowId, client: Box<dyn Endpoint>) {
        self.clients.add(flow, client);
    }

    /// Tunnel counters.
    pub fn stats(&self) -> TunnelStats {
        self.tunnel.stats()
    }

    /// The tunnel (diagnostics).
    pub fn tunnel(&self) -> &TunnelEndpoint {
        &self.tunnel
    }
}

impl Endpoint for TunnelHost {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        self.tunnel
            .on_wire_packet_into(packet, now, &mut self.deliver_scratch);
        for client_packet in self.deliver_scratch.drain(..) {
            self.deliveries.record(sprout_sim::DeliveryRecord {
                sent_at: client_packet.sent_at,
                delivered_at: now,
                size: client_packet.size,
                flow: client_packet.flow,
            });
            self.clients.on_packet(client_packet, now);
        }
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        self.clients.poll_into(now, &mut self.client_scratch);
        for mut p in self.client_scratch.drain(..) {
            p.sent_at = now; // end-to-end timing starts at the client
            self.tunnel.inject_local(p, now);
        }
        self.tunnel.poll_wire_into(now, out)
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        match (self.clients.next_wakeup(), self.tunnel.next_wakeup()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_core::SproutConfig;
    use sprout_sim::{PathConfig, Simulation};
    use sprout_trace::{Duration, Trace};

    fn client_packet(flow: u32, seq: u64, size: u32) -> Packet {
        Packet::opaque(FlowId(flow), seq, size)
    }

    #[test]
    fn encapsulation_round_trips() {
        let mut p = client_packet(7, 42, 900);
        p.sent_at = Timestamp::from_millis(123);
        let d = encapsulate(&p);
        let back = decapsulate(d).unwrap();
        assert_eq!(back.flow, FlowId(7));
        assert_eq!(back.seq, 42);
        assert_eq!(back.size, 900);
        assert_eq!(back.sent_at, Timestamp::from_millis(123));
    }

    /// One data segment as today's `TcpSender` emits it (17 header bytes
    /// plus counted padding) and the ACK a `TcpReceiver` answers it with.
    fn tcp_segment_and_ack() -> (Packet, Packet) {
        use sprout_baselines::{Cubic, TcpReceiver, TcpSender};
        let now = Timestamp::from_millis(7);
        let mut sent = Vec::new();
        TcpSender::new(Box::new(Cubic::new())).poll_into(now, &mut sent);
        let mut segment = sent.remove(0);
        segment.flow = FlowId(2);
        segment.sent_at = now;
        let mut receiver = TcpReceiver::new();
        receiver.on_packet(segment.clone(), now);
        let mut acks = Vec::new();
        receiver.poll_into(now, &mut acks);
        (segment, acks.remove(0))
    }

    #[test]
    fn header_only_segment_encapsulates_like_the_fully_padded_one() {
        let (segment, ack) = tcp_segment_and_ack();
        assert_eq!((segment.payload.len(), segment.padding), (17, 1_483));
        // Behind the encapsulation header: the payload first, then the
        // counted padding as zeros, nothing else.
        let datagram = encapsulate(&segment);
        assert_eq!(datagram.len(), ENCAP_LEN + 17 + 1_483);
        assert_eq!(&datagram[ENCAP_LEN..ENCAP_LEN + 17], &segment.payload[..]);
        assert!(datagram[ENCAP_LEN + 17..].iter().all(|&b| b == 0));
        // Without padding the payload is all there is.
        assert_eq!(ack.padding, 0);
        assert_eq!(&encapsulate(&ack)[ENCAP_LEN..], &ack.payload[..]);
        // The oracle: the segment as the previous encoder built it, its
        // filler 1483 real zero bytes (`encode_data` before `padding`).
        let mut padded = BytesMut::with_capacity(segment.size as usize);
        padded.extend_from_slice(&segment.payload);
        padded.resize(segment.size as usize, 0);
        let oracle = Packet {
            padding: 0,
            payload: padded.freeze(),
            ..segment.clone()
        };
        assert_eq!(datagram, encapsulate(&oracle));
        // And the far end still understands it.
        let delivered = decapsulate(datagram).unwrap();
        assert_eq!((delivered.size, delivered.padding), (1_500, 0));
        assert_eq!(delivered.payload.len(), 1_500);
        let mut receiver = sprout_baselines::TcpReceiver::new();
        receiver.on_packet(delivered, Timestamp::from_millis(50));
        assert_eq!(receiver.segments_received(), 1);
        let mut acks = Vec::new();
        receiver.poll_into(Timestamp::from_millis(50), &mut acks);
        assert_eq!(acks.len(), 1);
    }

    /// Pins a known inconsistency (changing it is an ENGINE_VERSION
    /// bump): a 40-byte TCP ACK costs the window `40 + FULL_HEADER_LEN +
    /// ENCAP_LEN`, but the Sprout packet carrying it is only
    /// `FULL_HEADER_LEN + ENCAP_LEN + 25` long — the ACK's 25 serialized
    /// bytes, not its 40 accounted ones.
    #[test]
    fn tunnelled_ack_is_charged_for_its_size_but_ships_its_payload() {
        use sprout_core::wire::FULL_HEADER_LEN;
        let (_, ack) = tcp_segment_and_ack();
        assert_eq!((ack.size, ack.payload.len(), ack.padding), (40, 25, 0));

        let mut t = TunnelEndpoint::new(SproutEndpoint::new_ewma(SproutConfig::test_small()));
        let feedback = sprout_core::SproutHeader {
            seq: 0,
            throwaway: 0,
            time_to_next: Duration::ZERO,
            sent_at: Timestamp::ZERO,
            heartbeat: false,
            datagram: false,
            forecast: Some(sprout_core::WireForecast {
                recv_or_lost_bytes: 0,
                tick: 1,
                cumulative_units: [16, 32, 48, 64, 80, 96, 112, 128],
            }),
            payload_len: 0,
        }
        .encode_with_padding();
        let now = Timestamp::from_millis(5);
        let feedback = Packet::from_payload(FlowId::PRIMARY, 0, feedback);
        t.on_wire_packet_into(feedback, now, &mut Vec::new());
        let window = t.sprout.window_bytes(now);
        let charged = (40 + FULL_HEADER_LEN + ENCAP_LEN) as u64;
        let shipped = (FULL_HEADER_LEN + ENCAP_LEN + 25) as u64;
        assert!(window / charged < window / shipped, "window {window}");

        // More ACKs than the window admits, fewer than the §4.3 cap sheds.
        let offered = window / shipped + 10;
        assert!(offered * 40 < t.sprout.forecast_life_bytes(now));
        for _ in 0..offered {
            t.inject_local(ack.clone(), now);
        }
        let mut wire = Vec::new();
        t.poll_wire_into(now, &mut wire);
        assert_eq!(t.stats().dropped, 0);
        assert_eq!(t.stats().forwarded, window / charged);
        assert_eq!(wire.len() as u64, window / charged);
        for p in &wire {
            assert_eq!(p.size as u64, shipped);
            assert_eq!((p.payload.len() as u64, p.padding), (shipped, 0));
        }
    }

    #[test]
    fn decapsulate_rejects_short_datagrams() {
        assert!(decapsulate(Bytes::from_static(b"tiny")).is_none());
    }

    #[test]
    fn inject_into_empty_queue_list_creates_the_flow() {
        // The first packet of the first flow ever seen: the queue list is
        // empty and the endpoint must mint the queue rather than panic.
        let mut t = TunnelEndpoint::new(SproutEndpoint::new_ewma(SproutConfig::test_small()));
        assert!(t.queues.is_empty());
        t.inject_local(client_packet(9, 0, 128), Timestamp::ZERO);
        assert_eq!(t.stats().enqueued, 1);
        assert_eq!(t.flow_queue_len(FlowId(9)), 1);
        // A second packet of the same flow reuses the queue; a new flow
        // appends its own.
        t.inject_local(client_packet(9, 1, 128), Timestamp::ZERO);
        t.inject_local(client_packet(10, 0, 128), Timestamp::ZERO);
        assert_eq!(t.flow_queue_len(FlowId(9)), 2);
        assert_eq!(t.flow_queue_len(FlowId(10)), 1);
        assert_eq!(t.queues.len(), 2);
    }

    #[test]
    fn per_flow_queues_fill_round_robin() {
        let mut t = TunnelEndpoint::new(SproutEndpoint::new_ewma(SproutConfig::test_small()));
        for seq in 0..3 {
            t.inject_local(client_packet(1, seq, 200), Timestamp::ZERO);
            t.inject_local(client_packet(2, seq, 200), Timestamp::ZERO);
        }
        assert_eq!(t.stats().enqueued, 6);
        t.poll_wire_into(Timestamp::ZERO, &mut Vec::new());
        // With the EWMA's startup window at least two packets fit, and
        // round-robin must take them from both flows before repeating one.
        assert!(
            t.stats().forwarded >= 2,
            "forwarded {}",
            t.stats().forwarded
        );
        let f1 = t.flow_queue_len(FlowId(1));
        let f2 = t.flow_queue_len(FlowId(2));
        assert!(
            (f1 as i64 - f2 as i64).abs() <= 1,
            "round robin balances: {f1} vs {f2}"
        );
    }

    #[test]
    fn tunnel_carries_packets_end_to_end() {
        // Tunnel A (with a pulsing client) ↔ steady link ↔ tunnel B.
        let cfg = SproutConfig::test_small();
        struct Pulser {
            next: Timestamp,
            seq: u64,
        }
        impl Endpoint for Pulser {
            fn on_packet(&mut self, _p: Packet, _n: Timestamp) {}
            fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
                while self.next <= now {
                    out.push(Packet::opaque(FlowId(3), self.seq, 400));
                    self.seq += 1;
                    self.next += Duration::from_millis(50);
                }
            }
            fn next_wakeup(&self) -> Option<Timestamp> {
                Some(self.next)
            }
        }
        let mut host_a =
            TunnelHost::new(TunnelEndpoint::new(SproutEndpoint::new_ewma(cfg.clone())));
        host_a.add_client(
            FlowId(3),
            Box::new(Pulser {
                next: Timestamp::ZERO,
                seq: 0,
            }),
        );
        let host_b = TunnelHost::new(TunnelEndpoint::new(SproutEndpoint::new_ewma(cfg)));
        let fast = || Trace::from_millis((0..4_000).map(|i| i * 5));
        let mut sim = Simulation::new(
            host_a,
            host_b,
            PathConfig::standard(fast()),
            PathConfig::standard(fast()),
        );
        sim.run_until(Timestamp::from_secs(20));
        let delivered = sim.b.stats().delivered;
        assert!(
            delivered > 300,
            "client packets must traverse the tunnel: {delivered}"
        );
        assert_eq!(sim.b.stats().dropped, 0, "uncongested: no drops");
    }

    #[test]
    fn cap_drops_from_head_of_longest_queue() {
        let mut t = TunnelEndpoint::new(SproutEndpoint::new_ewma(SproutConfig::test_small()));
        // Hand-feed feedback predicting 1 packet/tick so the §4.3 cap is
        // active and small (8 ticks × 1500 B = 12 kB).
        use sprout_core::{SproutHeader, WireForecast};
        let fb = WireForecast {
            recv_or_lost_bytes: 0,
            tick: 1,
            cumulative_units: [4, 8, 12, 16, 20, 24, 28, 32],
        };
        let payload = SproutHeader {
            seq: 0,
            throwaway: 0,
            time_to_next: Duration::ZERO,
            sent_at: Timestamp::ZERO,
            heartbeat: false,
            datagram: false,
            forecast: Some(fb),
            payload_len: 0,
        }
        .encode_with_padding();
        let wire = Packet::from_payload(FlowId::PRIMARY, 0, payload);
        t.on_wire_packet_into(wire, Timestamp::ZERO, &mut Vec::new());
        // Flow 1: a deep backlog far over the cap; flow 2: two packets.
        for seq in 0..40 {
            t.inject_local(client_packet(1, seq, 1_000), Timestamp::ZERO);
        }
        t.inject_local(client_packet(2, 0, 100), Timestamp::ZERO);
        t.inject_local(client_packet(2, 1, 100), Timestamp::ZERO);
        t.poll_wire_into(Timestamp::ZERO, &mut Vec::new());
        assert!(t.stats().dropped > 0, "cap must shed backlog");
        // Drops come from the long flow; the short flow is untouched
        // (either still queued or already forwarded).
        let flow2_left = t.flow_queue_len(FlowId(2));
        let flow1_left = t.flow_queue_len(FlowId(1));
        assert!(flow1_left < 40);
        assert!(flow2_left <= 2);
        let total_flow2 = 2 - flow2_left;
        let _ = total_flow2;
        // Total backlog respects the cap after enforcement.
        let cap = 8 * 1_500;
        assert!(
            t.queued_bytes() <= cap,
            "backlog {} > cap",
            t.queued_bytes()
        );
    }
}
