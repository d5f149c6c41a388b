//! The full-duplex Sprout endpoint: receiver inference + sender window,
//! assembled behind the sans-IO [`sprout_sim::Endpoint`] trait, which
//! the virtual-time emulator drives.

use bytes::Bytes;

use crate::config::SproutConfig;
use crate::forecaster::{BayesianForecaster, EwmaForecaster, Forecaster};
use crate::receiver::SproutReceiver;
use crate::sender::SproutSender;
use crate::wire::{SproutHeader, WireForecast, FULL_HEADER_LEN};
use sprout_sim::{Endpoint, FlowId, Packet};
use sprout_trace::{Duration, Timestamp};

/// Application traffic source feeding the sender.
#[derive(Clone, Debug)]
enum AppSource {
    /// Always has data (bulk/saturating workloads; the paper's main
    /// evaluation saturates the protocol, §5.1).
    Saturating,
    /// A byte bucket filled by `push_app_bytes` (videoconference-style
    /// frame sources).
    Buffered(u64),
    /// A queue of opaque datagrams with preserved boundaries (the
    /// SproutTunnel encapsulation mode, §4.3). Each datagram rides in its
    /// own Sprout packet.
    Datagrams(std::collections::VecDeque<Bytes>),
}

impl AppSource {
    fn available(&self) -> u64 {
        match self {
            AppSource::Saturating => u64::MAX,
            AppSource::Buffered(n) => *n,
            AppSource::Datagrams(q) => q.iter().map(|d| d.len() as u64).sum(),
        }
    }

    fn consume(&mut self, n: u64) {
        if let AppSource::Buffered(b) = self {
            *b = b.saturating_sub(n);
        }
    }
}

/// What goes after the header of an outgoing packet.
enum PacketBody {
    /// Opaque zero filler of the given length (benchmark workloads).
    Padding(u16),
    /// An encapsulated client datagram (tunnel mode).
    Datagram(Bytes),
}

/// Counters exposed for tests, examples, and experiment logging.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndpointStats {
    /// Data-bearing packets sent.
    pub data_packets_sent: u64,
    /// Control packets sent (feedback-only and heartbeats).
    pub control_packets_sent: u64,
    /// Packets received and decoded.
    pub packets_received: u64,
    /// Packets that failed to decode (should stay 0 in experiments).
    pub decode_errors: u64,
    /// Application payload bytes sent.
    pub app_bytes_sent: u64,
    /// Application payload bytes received.
    pub app_bytes_received: u64,
}

/// A Sprout endpoint. Construct one per side of a session; wire them with
/// the emulator ([`sprout_sim::Simulation`]).
pub struct SproutEndpoint {
    cfg: SproutConfig,
    sender: SproutSender,
    receiver: SproutReceiver,
    app: AppSource,
    /// Fresh feedback should be sent (a receiver tick completed).
    need_feedback: bool,
    flow: FlowId,
    stats: EndpointStats,
    /// Emulator-level packet counter (diagnostic sequence).
    packet_counter: u64,
    /// Slack added to announced time-to-next so in-order queue drain does
    /// not spuriously expire the promise at the receiver.
    ttn_margin: Duration,
    /// Datagrams decapsulated from received tunnel-mode packets.
    delivered_datagrams: Vec<Bytes>,
}

impl SproutEndpoint {
    /// Standard Sprout endpoint (Bayesian forecaster, paper config).
    pub fn new(cfg: SproutConfig) -> Self {
        let f = Box::new(BayesianForecaster::new(cfg.clone()));
        Self::with_forecaster(cfg, f)
    }

    /// Sprout-EWMA endpoint (§5.3 ablation).
    pub fn new_ewma(cfg: SproutConfig) -> Self {
        let f = Box::new(EwmaForecaster::new(cfg.clone()));
        Self::with_forecaster(cfg, f)
    }

    /// Endpoint with a custom forecaster.
    pub fn with_forecaster(cfg: SproutConfig, forecaster: Box<dyn Forecaster>) -> Self {
        cfg.validate();
        let receiver = SproutReceiver::new(cfg.clone(), forecaster, Timestamp::ZERO);
        SproutEndpoint {
            sender: SproutSender::new(cfg.clone()),
            receiver,
            cfg,
            app: AppSource::Buffered(0),
            need_feedback: false,
            flow: FlowId::PRIMARY,
            stats: EndpointStats::default(),
            packet_counter: 0,
            ttn_margin: Duration::from_millis(2),
            delivered_datagrams: Vec::new(),
        }
    }

    /// Mark this endpoint's application as always having data to send.
    pub fn set_saturating(&mut self) {
        self.app = AppSource::Saturating;
    }

    /// Add application bytes to the send buffer (no effect if saturating).
    pub fn push_app_bytes(&mut self, bytes: u64) {
        if let AppSource::Buffered(b) = &mut self.app {
            *b += bytes;
        }
    }

    /// Switch to datagram mode (tunnel encapsulation) and enqueue one
    /// datagram. Boundaries are preserved end to end; each datagram
    /// travels in its own Sprout packet (the wire packet may slightly
    /// exceed the MTU for full-size client packets — the emulator's
    /// per-byte accounting handles that, and a real deployment would rely
    /// on IP fragmentation exactly as tunnels over UDP do).
    pub fn push_app_datagram(&mut self, datagram: Bytes) {
        match &mut self.app {
            AppSource::Datagrams(q) => q.push_back(datagram),
            _ => {
                let mut q = std::collections::VecDeque::new();
                q.push_back(datagram);
                self.app = AppSource::Datagrams(q);
            }
        }
    }

    /// Datagrams decapsulated from received Sprout packets, in arrival
    /// order.
    pub fn take_app_datagrams(&mut self) -> Vec<Bytes> {
        std::mem::take(&mut self.delivered_datagrams)
    }

    /// Bytes the peer is predicted to accept over the remaining life of
    /// the current forecast (§4.3 uses this as the tunnel's total queue
    /// cap). Zero before the first forecast arrives.
    pub fn forecast_life_bytes(&mut self, now: Timestamp) -> u64 {
        self.sender.advance(now);
        self.sender.forecast_remaining_bytes(now)
    }

    /// Bytes waiting in the application send buffer (`u64::MAX` when
    /// saturating).
    pub fn app_backlog(&self) -> u64 {
        self.app.available()
    }

    /// Set the flow id stamped on outgoing packets (tunnel use).
    pub fn set_flow(&mut self, flow: FlowId) {
        self.flow = flow;
    }

    /// Endpoint counters.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// The sender half (diagnostics).
    pub fn sender(&self) -> &SproutSender {
        &self.sender
    }

    /// The receiver half (diagnostics).
    pub fn receiver(&self) -> &SproutReceiver {
        &self.receiver
    }

    /// Current send window in bytes (after advancing to `now`).
    pub fn window_bytes(&mut self, now: Timestamp) -> u64 {
        self.sender.advance(now);
        self.sender.window_bytes(now)
    }

    /// The receiver's part of a poll, step 1: run every tick that has
    /// ended by `now` (evolve and observe, §3.2) and owe the peer fresh
    /// feedback if one did. [`Endpoint::poll_into`] starts with it; a
    /// server holding many sessions runs it for every due session before
    /// any of them forecasts or sends. Each session's own sequence of
    /// operations is the same either way, so the bytes are too.
    pub fn process_ticks(&mut self, now: Timestamp) {
        if self.receiver.process_ticks(now) > 0 {
            self.need_feedback = true;
        }
    }

    /// Step 2: compute the newest tick's forecast (§3.3) for the feedback
    /// this endpoint's next packets carry; the poll that sends them reads
    /// it from the receiver's cache.
    pub fn prepare_feedback(&mut self) {
        self.receiver.forecast_units();
    }

    fn next_wakeup_at(&self) -> Timestamp {
        self.receiver.next_tick_end()
    }

    fn build_packet(
        &mut self,
        body: PacketBody,
        heartbeat: bool,
        forecast: Option<WireForecast>,
        ttn: Duration,
        now: Timestamp,
    ) -> Packet {
        let header_len = if forecast.is_some() {
            FULL_HEADER_LEN
        } else {
            crate::wire::BASE_HEADER_LEN
        };
        let (payload_len, datagram) = match &body {
            PacketBody::Padding(n) => (*n, false),
            PacketBody::Datagram(d) => (d.len() as u16, true),
        };
        let wire_len = (header_len + payload_len as usize) as u32;
        let seq = self.sender.on_send(wire_len, now);
        let header = SproutHeader {
            seq,
            throwaway: self.sender.throwaway(now),
            time_to_next: ttn,
            sent_at: now,
            heartbeat,
            datagram,
            forecast,
            payload_len,
        };
        let (payload, padding) = match &body {
            PacketBody::Padding(n) => (header.encode_header(), *n as u32),
            PacketBody::Datagram(d) => (header.encode_with_payload(d), 0),
        };
        self.packet_counter += 1;
        Packet {
            flow: self.flow,
            seq: self.packet_counter,
            sent_at: Timestamp::ZERO, // stamped by the driver
            size: wire_len,
            padding,
            payload,
        }
    }
}

impl Endpoint for SproutEndpoint {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        let header = match SproutHeader::decode(&packet.payload) {
            Ok(h) => h,
            Err(_) => {
                self.stats.decode_errors += 1;
                return;
            }
        };
        self.stats.packets_received += 1;
        self.stats.app_bytes_received += header.payload_len as u64;
        if header.datagram
            && packet.payload.len() >= header.encoded_len() + header.payload_len as usize
        {
            let start = header.encoded_len();
            self.delivered_datagrams.push(
                packet
                    .payload
                    .slice(start..start + header.payload_len as usize),
            );
        }
        self.receiver.on_packet(&header, packet.size, now);
        if let Some(fb) = &header.forecast {
            self.sender.on_feedback(fb, now);
        }
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        self.process_ticks(now);
        self.sender.advance(now);

        // `out` may carry other endpoints' packets; everything from
        // `start` on is this flight.
        let start = out.len();
        // One feedback block per poll, shared by every packet in the
        // flight (the receiver keeps only the freshest tick anyway).
        let feedback = self.receiver.make_feedback();

        // --- data packets, governed by the window (§3.5) ---
        let mut window = self.sender.window_bytes(now);
        let max_payload = (self.cfg.mtu_bytes as usize - FULL_HEADER_LEN) as u64;
        loop {
            let body = match &mut self.app {
                AppSource::Datagrams(q) => {
                    let Some(front_len) = q.front().map(|d| d.len() as u64) else {
                        break;
                    };
                    let wire = front_len + FULL_HEADER_LEN as u64;
                    if window < wire {
                        break;
                    }
                    window -= wire;
                    let d = q.pop_front().unwrap();
                    self.stats.app_bytes_sent += d.len() as u64;
                    PacketBody::Datagram(d)
                }
                _ => {
                    if self.app.available() == 0 {
                        break;
                    }
                    let payload = self.app.available().min(max_payload);
                    let wire = payload + FULL_HEADER_LEN as u64;
                    if window < wire {
                        break;
                    }
                    window -= wire;
                    self.app.consume(payload);
                    self.stats.app_bytes_sent += payload;
                    PacketBody::Padding(payload as u16)
                }
            };
            self.stats.data_packets_sent += 1;
            let pkt = self.build_packet(body, false, Some(feedback.clone()), Duration::ZERO, now);
            out.push(pkt);
        }

        // --- control packet: feedback each tick / heartbeat when idle ---
        // Control packets bypass the window (they are ~60 bytes and carry
        // the feedback that un-sticks the whole session), but they do
        // count against the sequence space and queue estimate.
        if out.len() == start && (self.need_feedback || self.sender.heartbeat_due(now)) {
            let heartbeat = self.sender.heartbeat_due(now);
            let pkt = self.build_packet(
                PacketBody::Padding(0),
                heartbeat,
                Some(feedback),
                Duration::ZERO,
                now,
            );
            self.stats.control_packets_sent += 1;
            out.push(pkt);
        }
        if out.len() > start {
            self.need_feedback = false;
            // The final packet of every flight announces when we will
            // speak next (§3.2: "for a flight of several packets, the
            // time-to-next will be zero for all but the last packet").
            // The receiver cancels the promise if it turns out the queue
            // was backlogged (the next arrival shows queueing delay).
            let ttn = self.next_wakeup_at().saturating_since(now) + self.ttn_margin;
            if let Some(last) = out.last_mut() {
                patch_time_to_next(last, ttn);
            }
        }
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        Some(self.next_wakeup_at())
    }
}

/// Rewrite the time-to-next field of an already-encoded packet. The field
/// lives at a fixed offset, so this avoids re-encoding the whole packet —
/// and a freshly built payload has no other owners, so the usual case is
/// an in-place patch with no copy at all.
fn patch_time_to_next(packet: &mut Packet, ttn: Duration) {
    // Offset 4: u32 LE time-to-next (see wire.rs layout).
    let us = (ttn.as_micros() as u32).to_le_bytes();
    if let Some(buf) = packet.payload.try_mut() {
        buf[4..8].copy_from_slice(&us);
    } else {
        let mut buf = packet.payload.to_vec();
        buf[4..8].copy_from_slice(&us);
        packet.payload = Bytes::from(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything `e` sends at `now`.
    fn polled(e: &mut impl Endpoint, now: Timestamp) -> Vec<Packet> {
        let mut out = Vec::new();
        e.poll_into(now, &mut out);
        out
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn endpoint() -> SproutEndpoint {
        SproutEndpoint::new_ewma(SproutConfig::test_small())
    }

    #[test]
    fn idle_endpoint_heartbeats_every_tick() {
        let mut e = endpoint();
        let mut control = 0;
        for ms in (0..200).step_by(20) {
            let pkts = polled(&mut e, t(ms));
            control += pkts.len();
            for p in &pkts {
                let h = SproutHeader::decode(&p.payload).unwrap();
                assert_eq!(h.payload_len, 0);
                assert!(h.forecast.is_some());
                assert!(h.time_to_next > Duration::ZERO);
            }
        }
        assert!(control >= 9, "one control packet per tick, got {control}");
        assert_eq!(e.stats().data_packets_sent, 0);
    }

    #[test]
    fn startup_sends_limited_data_before_forecast() {
        let mut e = endpoint();
        e.set_saturating();
        let pkts = polled(&mut e, t(0));
        // Startup window is one MTU: at most one data packet (plus no
        // separate control packet since data carries the feedback).
        let data: Vec<_> = pkts
            .iter()
            .filter(|p| SproutHeader::decode(&p.payload).unwrap().payload_len > 0)
            .collect();
        assert_eq!(data.len(), 1);
    }

    #[test]
    fn the_mtu_bounds_build_whole_packets() {
        // The startup window is one MTU: one packet of a full header and
        // the largest payload, its length carried untruncated.
        for mtu_bytes in [61, 65_595] {
            let mut e = SproutEndpoint::new_ewma(SproutConfig {
                mtu_bytes,
                ..SproutConfig::test_small()
            });
            e.set_saturating();
            let pkts = polled(&mut e, t(0));
            assert_eq!(pkts.len(), 1, "mtu {mtu_bytes}");
            let h = SproutHeader::decode(&pkts[0].payload).unwrap();
            assert_eq!(pkts[0].size, mtu_bytes);
            assert_eq!(h.payload_len as usize, mtu_bytes as usize - FULL_HEADER_LEN);
            assert_eq!(e.stats().app_bytes_sent, u64::from(h.payload_len));
        }
    }

    #[test]
    fn forecast_feedback_opens_window() {
        let mut e = endpoint();
        e.set_saturating();
        let _ = polled(&mut e, t(0));
        // Hand-craft generous feedback: 4 packets per tick, nothing lost.
        let fb = WireForecast {
            recv_or_lost_bytes: e.sender().bytes_sent(),
            tick: 1,
            cumulative_units: [16, 32, 48, 64, 80, 96, 112, 128],
        };
        let packet_with_fb = SproutHeader {
            seq: 0,
            throwaway: 0,
            time_to_next: Duration::ZERO,
            sent_at: t(0),
            heartbeat: false,
            datagram: false,
            forecast: Some(fb),
            payload_len: 0,
        }
        .encode_with_padding();
        e.on_packet(
            Packet::from_payload(FlowId::PRIMARY, 0, packet_with_fb),
            t(25),
        );
        let pkts = polled(&mut e, t(25));
        // Window: 5 ticks × 4 pkts × 1500 B = 30 kB minus queue estimate;
        // expect a burst of MTU-sized data packets.
        let data_count = pkts
            .iter()
            .filter(|p| SproutHeader::decode(&p.payload).unwrap().payload_len > 0)
            .count();
        assert!(data_count >= 10, "window should open: {data_count} packets");
        // All but the last packet of the flight carry time-to-next zero;
        // the flight-final packet announces the next transmission (§3.2).
        let headers: Vec<_> = pkts
            .iter()
            .map(|p| SproutHeader::decode(&p.payload).unwrap())
            .collect();
        for h in &headers[..headers.len() - 1] {
            assert_eq!(h.time_to_next, Duration::ZERO);
        }
        assert!(headers.last().unwrap().time_to_next > Duration::ZERO);
    }

    #[test]
    fn idle_heartbeats_carry_promises() {
        let mut e = endpoint();
        // Idle endpoint: heartbeats must carry a positive time-to-next so
        // the peer's observations stay gated during the silence.
        let pkts = polled(&mut e, t(0));
        assert_eq!(pkts.len(), 1);
        let h = SproutHeader::decode(&pkts[0].payload).unwrap();
        assert!(h.heartbeat);
        assert!(h.time_to_next > Duration::ZERO);
    }

    #[test]
    fn app_limited_sends_only_backlog() {
        let mut e = endpoint();
        e.push_app_bytes(2_000);
        // Give it a forecast so the window is not the bottleneck.
        let fb = WireForecast {
            recv_or_lost_bytes: 0,
            tick: 1,
            cumulative_units: [40, 80, 120, 160, 200, 240, 280, 320],
        };
        let payload = SproutHeader {
            seq: 0,
            throwaway: 0,
            time_to_next: Duration::ZERO,
            sent_at: t(0),
            heartbeat: false,
            datagram: false,
            forecast: Some(fb),
            payload_len: 0,
        }
        .encode_with_padding();
        e.on_packet(Packet::from_payload(FlowId::PRIMARY, 0, payload), t(5));
        let pkts = polled(&mut e, t(5));
        let sent: u64 = pkts
            .iter()
            .map(|p| SproutHeader::decode(&p.payload).unwrap().payload_len as u64)
            .sum();
        assert_eq!(sent, 2_000);
        assert_eq!(e.app_backlog(), 0);
        assert_eq!(e.stats().app_bytes_sent, 2_000);
    }

    #[test]
    fn malformed_packets_are_counted_not_fatal() {
        let mut e = endpoint();
        e.on_packet(
            Packet::from_payload(FlowId::PRIMARY, 0, Bytes::from_static(b"garbage")),
            t(0),
        );
        assert_eq!(e.stats().decode_errors, 1);
        assert_eq!(e.stats().packets_received, 0);
    }

    #[test]
    fn patch_time_to_next_rewrites_field() {
        let mut e = endpoint();
        e.set_saturating();
        let mut pkts = polled(&mut e, t(0));
        let pkt = pkts.last_mut().unwrap();
        patch_time_to_next(pkt, Duration::from_millis(123));
        let h = SproutHeader::decode(&pkt.payload).unwrap();
        assert_eq!(h.time_to_next, Duration::from_millis(123));
    }

    #[test]
    fn datagrams_round_trip_with_boundaries_preserved() {
        use bytes::Bytes;
        let mut tx = endpoint();
        let mut rx = endpoint();
        tx.push_app_datagram(Bytes::from_static(b"first datagram"));
        tx.push_app_datagram(Bytes::from_static(b"second"));
        // Walk packets across a perfect wire for a few ticks.
        for step in 0..10u64 {
            let now = t(step * 20);
            for p in polled(&mut tx, now) {
                rx.on_packet(p, now);
            }
            for p in polled(&mut rx, now) {
                tx.on_packet(p, now);
            }
        }
        let got = rx.take_app_datagrams();
        assert_eq!(got.len(), 2, "both datagrams delivered");
        assert_eq!(&got[0][..], b"first datagram");
        assert_eq!(&got[1][..], b"second");
        // Taking drains the queue.
        assert!(rx.take_app_datagrams().is_empty());
    }

    #[test]
    fn forecast_life_bytes_tracks_feedback() {
        let mut e = endpoint();
        assert_eq!(e.forecast_life_bytes(t(0)), 0, "no forecast yet");
        let fb = WireForecast {
            recv_or_lost_bytes: 0,
            tick: 1,
            cumulative_units: [16, 32, 48, 64, 80, 96, 112, 128], // 4 MTU/tick
        };
        let payload = SproutHeader {
            seq: 0,
            throwaway: 0,
            time_to_next: Duration::ZERO,
            sent_at: t(0),
            heartbeat: false,
            datagram: false,
            forecast: Some(fb),
            payload_len: 0,
        }
        .encode_with_padding();
        e.on_packet(Packet::from_payload(FlowId::PRIMARY, 0, payload), t(5));
        // Whole life of the forecast: 32 packets × 1500 = 48 kB.
        assert_eq!(e.forecast_life_bytes(t(5)), 48_000);
        // Two ticks later, two ticks' worth (8 packets) have aged out.
        assert_eq!(e.forecast_life_bytes(t(45)), 36_000);
    }

    #[test]
    fn a_server_can_run_the_poll_steps_in_any_order() {
        // Three Bayesian endpoints fed the same arrivals; at each tick
        // boundary one polls as is, one ticks and forecasts first (the
        // server's passes), one forecasts *before* its tick. A tick drops
        // the cached forecast, so all three send the same bytes. (Polls
        // only at tick ends: a poll between ticks would cache a forecast
        // all three share, hiding a tick that failed to drop it.)
        let cfg = SproutConfig::test_small();
        let mut plain = SproutEndpoint::new(cfg.clone());
        let mut phased = SproutEndpoint::new(cfg.clone());
        let mut early = SproutEndpoint::new(cfg.clone());
        let mut seq = 0;
        for ms in (0..400).step_by(5) {
            let now = t(ms);
            let arrival = SproutHeader {
                seq,
                throwaway: 0,
                time_to_next: Duration::ZERO,
                sent_at: now,
                heartbeat: false,
                datagram: false,
                forecast: None,
                payload_len: 1_000,
            }
            .encode_with_padding();
            seq += 1_000 + crate::wire::BASE_HEADER_LEN as u64;
            for e in [&mut plain, &mut phased, &mut early] {
                e.on_packet(
                    Packet::from_payload(FlowId::PRIMARY, 0, arrival.clone()),
                    now,
                );
            }
            if ms % 20 != 0 || ms == 0 {
                continue;
            }
            phased.process_ticks(now);
            phased.prepare_feedback();
            early.prepare_feedback();
            early.process_ticks(now);
            let want = polled(&mut plain, now);
            for e in [&mut phased, &mut early] {
                let got = polled(e, now);
                assert_eq!(got.len(), want.len(), "{ms} ms");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.payload[..], w.payload[..], "{ms} ms");
                }
            }
        }
        assert!(plain.stats().control_packets_sent >= 19);
    }

    #[test]
    fn next_wakeup_is_tick_aligned() {
        let e = endpoint();
        assert_eq!(e.next_wakeup(), Some(t(20)));
    }
}
