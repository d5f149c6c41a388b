//! A reliable, ACK-clocked transport skeleton — the substrate under every
//! TCP congestion-control baseline in the evaluation (§5: Cubic, Reno,
//! Vegas, Compound TCP, LEDBAT).
//!
//! The skeleton handles sequencing, cumulative ACKs with duplicate-ACK
//! fast retransmit, RTO estimation per RFC 6298, and hands congestion
//! decisions to a pluggable [`CongestionControl`]. It is deliberately a
//! *model* of TCP at MTU-segment granularity: enough fidelity for the
//! queueing dynamics the paper studies (window growth → standing queue →
//! delay), without reimplementing byte-stream reassembly.

use std::collections::{BTreeSet, VecDeque};

use bytes::Bytes;

use sprout_sim::{Endpoint, FlowId, Packet};
use sprout_trace::{Duration, Timestamp, MTU_BYTES};

use crate::wire;

/// Congestion-control algorithm interface. Window units are MTU segments
/// (fractional, as most algorithms accumulate sub-segment credit).
pub trait CongestionControl: Send {
    /// A new cumulative ACK advanced the window by `newly_acked` segments.
    fn on_ack(&mut self, newly_acked: u64, rtt: Duration, now: Timestamp);
    /// A one-way delay sample measured from the data packet's transmit
    /// timestamp to the receiver's arrival timestamp (echoed in the ACK).
    /// Only delay-based algorithms (LEDBAT) care; default is a no-op.
    fn on_one_way_delay(&mut self, _delay: Duration) {}
    /// Loss inferred from triple duplicate ACKs (fast retransmit).
    fn on_loss(&mut self, now: Timestamp);
    /// Retransmission timeout fired.
    fn on_timeout(&mut self, now: Timestamp);
    /// Current congestion window in segments (≥ 1).
    fn window(&self) -> f64;
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// RFC 6298 retransmission-timeout estimator.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    srtt: Option<Duration>,
    rttvar: Duration,
    rto: Duration,
    /// Smallest RTT seen (used by delay-based algorithms).
    min_rtt: Option<Duration>,
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator {
            srtt: None,
            rttvar: Duration::ZERO,
            rto: Duration::from_secs(1),
            min_rtt: None,
        }
    }
}

impl RttEstimator {
    /// Incorporate a fresh RTT sample.
    pub fn update(&mut self, sample: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = Duration::from_micros(sample.as_micros() / 2);
            }
            Some(srtt) => {
                let sample_us = sample.as_micros() as i64;
                let srtt_us = srtt.as_micros() as i64;
                let err = (sample_us - srtt_us).unsigned_abs();
                // RTTVAR = 3/4 RTTVAR + 1/4 |err|; SRTT = 7/8 SRTT + 1/8 sample.
                self.rttvar = Duration::from_micros((3 * self.rttvar.as_micros() + err) / 4);
                self.srtt = Some(Duration::from_micros(
                    ((7 * srtt_us + sample_us) / 8) as u64,
                ));
            }
        }
        let srtt = self.srtt.unwrap();
        let candidate = srtt + Duration::from_micros(4 * self.rttvar.as_micros());
        // RFC 6298: RTO = max(1s floor is classical; we use 200 ms to suit
        // the 40 ms-RTT emulated path) and cap at 60 s.
        self.rto = candidate
            .max(Duration::from_millis(200))
            .min(Duration::from_secs(60));
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(sample),
            None => sample,
        });
    }

    /// Current smoothed RTT, if any sample arrived.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> Duration {
        self.rto
    }

    /// Minimum RTT observed.
    pub fn min_rtt(&self) -> Option<Duration> {
        self.min_rtt
    }

    /// Back off the RTO (exponential, on timeout).
    pub fn backoff(&mut self) {
        self.rto = (self.rto + self.rto).min(Duration::from_secs(60));
    }
}

// --- wire format (the baseline suite's one header layout, `wire`) ---

const MAGIC_DATA: u8 = 0xD0;
const MAGIC_ACK: u8 = 0xA0;
/// Data header: magic(1) seq(8) sent_at(8).
const DATA_HEADER: usize = wire::len(2);
/// ACK: magic(1) cum_ack(8) echo_sent_at(8) recv_at(8).
const ACK_LEN: usize = wire::len(3);

/// The 17 header bytes of a data segment; the rest of the MTU is filler
/// the packet carries as [`Packet::padding`], never as bytes.
fn encode_data(seq: u64, sent_at: Timestamp) -> Bytes {
    wire::encode(MAGIC_DATA, [seq, sent_at.as_micros()])
}

fn encode_ack(cum_ack: u64, echo_sent_at: Timestamp, recv_at: Timestamp) -> Bytes {
    wire::encode(
        MAGIC_ACK,
        [cum_ack, echo_sent_at.as_micros(), recv_at.as_micros()],
    )
}

/// Bulk-transfer TCP-model sender. Always has data (the §5.1 saturating
/// workload); sends MTU segments under `cc`'s window with fast retransmit
/// and RTO recovery.
pub struct TcpSender {
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    flow: FlowId,
    /// Next new sequence number to send.
    next_seq: u64,
    /// Highest cumulatively ACKed sequence (all below delivered).
    cum_ack: u64,
    /// Outstanding segments as a ring: entry `i` is sequence
    /// `cum_ack + i`, holding (last transmit time, transmit count). The
    /// ring always covers exactly `[cum_ack, next_seq)`.
    outstanding: VecDeque<(Timestamp, u32)>,
    dup_acks: u32,
    /// In fast-recovery until cum_ack passes this point.
    recover_until: Option<u64>,
    /// RTO deadline for the oldest outstanding segment.
    rto_deadline: Option<Timestamp>,
    /// Segments presumed lost (after an RTO all unacked segments are
    /// go-back-N candidates); they no longer count as in flight and are
    /// retransmitted ahead of new data as the window allows.
    lost: BTreeSet<u64>,
    /// Fast-retransmit packets generated inside `on_packet`, drained by
    /// the next `poll`.
    pending_retx: Vec<Packet>,
    segments_sent: u64,
    retransmits: u64,
}

/// Receive-window cap in segments (≈ 6 MB, the order of Linux's default
/// tcp_rmem maximum): even an unbounded cellular queue cannot hold more
/// than one receive window of a single flow's data.
const MAX_WINDOW_SEGMENTS: usize = 4_096;

impl TcpSender {
    /// New saturating sender driven by `cc`.
    pub fn new(cc: Box<dyn CongestionControl>) -> Self {
        TcpSender {
            cc,
            rtt: RttEstimator::default(),
            flow: FlowId::PRIMARY,
            next_seq: 0,
            cum_ack: 0,
            outstanding: VecDeque::new(),
            dup_acks: 0,
            recover_until: None,
            rto_deadline: None,
            lost: BTreeSet::new(),
            pending_retx: Vec::new(),
            segments_sent: 0,
            retransmits: 0,
        }
    }

    /// Tag outgoing packets with a flow id (for shared-queue experiments).
    pub fn set_flow(&mut self, flow: FlowId) {
        self.flow = flow;
    }

    /// The congestion controller (diagnostics).
    pub fn cc(&self) -> &dyn CongestionControl {
        &*self.cc
    }

    /// The RTT estimator (diagnostics).
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Total segments transmitted, including retransmits.
    pub fn segments_sent(&self) -> u64 {
        self.segments_sent
    }

    /// Retransmitted segments.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    fn in_flight(&self) -> usize {
        self.outstanding.len() - self.lost.len()
    }

    /// Account one transmission of `seq` — the next new sequence, or any
    /// outstanding one again — and build its MTU segment: the header as
    /// payload, the rest of the MTU as padding.
    fn transmit(&mut self, seq: u64, now: Timestamp) -> Packet {
        let idx = (seq - self.cum_ack) as usize;
        if idx == self.outstanding.len() {
            self.outstanding.push_back((now, 1));
        } else {
            let entry = &mut self.outstanding[idx];
            *entry = (now, entry.1 + 1);
            self.retransmits += 1;
        }
        self.segments_sent += 1;
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rtt.rto());
        }
        Packet {
            flow: self.flow,
            seq,
            sent_at: Timestamp::ZERO,
            size: MTU_BYTES,
            padding: MTU_BYTES - DATA_HEADER as u32,
            payload: encode_data(seq, now),
        }
    }
}

impl Endpoint for TcpSender {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        let Some([cum_ack, echo_sent_at, recv_at]) = wire::decode(&packet.payload, MAGIC_ACK)
        else {
            return;
        };
        let (echo_sent_at, recv_at) = (
            Timestamp::from_micros(echo_sent_at),
            Timestamp::from_micros(recv_at),
        );
        if cum_ack > self.next_seq {
            return; // acknowledges data never sent (RFC 793: ignore)
        }
        // One-way delay of the acked data packet (sender clock → receiver
        // clock; the virtual clock is shared, and delay-based algorithms
        // only use differences so a fixed offset would cancel anyway).
        let one_way = recv_at.saturating_since(echo_sent_at);
        if one_way > Duration::ZERO {
            self.cc.on_one_way_delay(one_way);
        }
        if cum_ack > self.cum_ack {
            let newly = cum_ack - self.cum_ack;
            // Drop everything acked from the front of the ring.
            self.outstanding.drain(..newly as usize);
            self.cum_ack = cum_ack;
            self.dup_acks = 0;
            self.lost = self.lost.split_off(&cum_ack);
            // Karn's rule: only time un-retransmitted segments. We use
            // the echoed transmit timestamp, which already excludes
            // ambiguity for retransmissions of the *echoed* segment.
            let sample = now.saturating_since(echo_sent_at);
            if sample > Duration::ZERO {
                self.rtt.update(sample);
            }
            if let Some(rec) = self.recover_until {
                if cum_ack >= rec {
                    self.recover_until = None;
                }
            }
            self.cc
                .on_ack(newly, now.saturating_since(echo_sent_at), now);
            // Continuous hole repair: any segment transmitted more than an
            // RTO ago while later data is being acked is presumed lost and
            // re-enters the window, instead of stalling for a global RTO
            // per hole (crucial after a mass-loss burst, e.g. CoDel during
            // an outage drain).
            let cutoff = self.rtt.rto();
            let stale = self
                .outstanding
                .iter() // the ring is seq-ordered ≈ send-ordered
                .take_while(|&&(sent_at, _)| now.saturating_since(sent_at) > cutoff)
                .count();
            // While the window keeps them from being retransmitted, the
            // same stale front is seen again on every ACK: insert only
            // when some of it is not yet marked lost.
            let front = cum_ack..cum_ack + stale as u64;
            if self.lost.range(front.clone()).count() < stale {
                self.lost.extend(front);
            }
            self.rto_deadline = if self.outstanding.is_empty() {
                None
            } else {
                Some(now + self.rtt.rto())
            };
        } else {
            // Duplicate cumulative ACK: a later segment arrived before
            // `cum_ack`. Three in a row trigger fast retransmit.
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.recover_until.is_none() {
                self.recover_until = Some(self.next_seq);
                self.cc.on_loss(now);
                // Retransmit the missing segment now; the next `poll`
                // drains it ahead of everything else.
                if !self.outstanding.is_empty() {
                    let retx = self.transmit(self.cum_ack, now);
                    self.pending_retx.push(retx);
                }
            }
        }
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        out.append(&mut self.pending_retx);
        // RTO?
        if let Some(deadline) = self.rto_deadline {
            if now >= deadline && !self.outstanding.is_empty() {
                self.cc.on_timeout(now);
                self.rtt.backoff();
                self.dup_acks = 0;
                self.recover_until = None;
                // Go-back-N: everything unacked is presumed lost and will
                // be retransmitted under the (collapsed) window, oldest
                // first.
                self.lost = (self.cum_ack..self.next_seq).collect();
                self.rto_deadline = Some(now + self.rtt.rto());
            }
        }
        // Fill the window: retransmissions of presumed-lost segments take
        // priority over new data.
        let cwnd = self.cc.window().max(1.0) as usize;
        let cwnd = cwnd.min(MAX_WINDOW_SEGMENTS);
        while self.in_flight() < cwnd {
            if let Some(seq) = self.lost.pop_first() {
                out.push(self.transmit(seq, now));
            } else if self.next_seq < self.cum_ack + MAX_WINDOW_SEGMENTS as u64 {
                let seq = self.next_seq;
                self.next_seq += 1;
                out.push(self.transmit(seq, now));
            } else {
                break; // receive-window limited
            }
        }
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        self.rto_deadline
    }
}

/// Receiver side of the TCP model: cumulative ACK per arriving segment
/// (no delayed ACKs — interactivity experiments want tight feedback).
pub struct TcpReceiver {
    flow: FlowId,
    /// Next in-order sequence expected.
    expected: u64,
    /// Out-of-order segments already received.
    ooo: BTreeSet<u64>,
    pending_acks: Vec<Packet>,
    segments_received: u64,
}

impl TcpReceiver {
    /// New receiver.
    pub fn new() -> Self {
        TcpReceiver {
            flow: FlowId::PRIMARY,
            expected: 0,
            ooo: BTreeSet::new(),
            pending_acks: Vec::new(),
            segments_received: 0,
        }
    }

    /// Tag ACKs with a flow id.
    pub fn set_flow(&mut self, flow: FlowId) {
        self.flow = flow;
    }

    /// Segments received (any order, not deduplicated).
    pub fn segments_received(&self) -> u64 {
        self.segments_received
    }
}

impl Default for TcpReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Endpoint for TcpReceiver {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        let Some([seq, sent_at]) = wire::decode(&packet.payload, MAGIC_DATA) else {
            return;
        };
        let sent_at = Timestamp::from_micros(sent_at);
        self.segments_received += 1;
        if seq == self.expected {
            self.expected += 1;
            while self.ooo.remove(&self.expected) {
                self.expected += 1;
            }
        } else if seq > self.expected {
            self.ooo.insert(seq);
        }
        self.pending_acks.push(Packet {
            flow: self.flow,
            seq: self.expected,
            sent_at: Timestamp::ZERO,
            size: ACK_LEN as u32 + 15, // ACK + L3/L4 overhead ≈ 40 B
            padding: 0,
            payload: encode_ack(self.expected, sent_at, now),
        });
    }

    fn poll_into(&mut self, _now: Timestamp, out: &mut Vec<Packet>) {
        out.append(&mut self.pending_acks);
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        None
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

    /// Fixed-window controller for exercising the transport skeleton.
    struct FixedWindow(f64);
    impl CongestionControl for FixedWindow {
        fn on_ack(&mut self, _n: u64, _rtt: Duration, _now: Timestamp) {}
        fn on_loss(&mut self, _now: Timestamp) {}
        fn on_timeout(&mut self, _now: Timestamp) {}
        fn window(&self) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// A 40-byte ACK packet as [`TcpReceiver`] builds it.
    fn ack(cum_ack: u64, echo_sent_at: Timestamp, recv_at: Timestamp) -> Packet {
        Packet {
            size: ACK_LEN as u32 + 15,
            ..Packet::from_payload(
                FlowId::PRIMARY,
                cum_ack,
                encode_ack(cum_ack, echo_sent_at, recv_at),
            )
        }
    }

    #[test]
    fn rtt_estimator_converges_and_bounds_rto() {
        let mut e = RttEstimator::default();
        for _ in 0..50 {
            e.update(Duration::from_millis(40));
        }
        let srtt = e.srtt().unwrap();
        assert!(srtt >= Duration::from_millis(39) && srtt <= Duration::from_millis(41));
        assert!(e.rto() >= Duration::from_millis(200)); // floor
        assert_eq!(e.min_rtt().unwrap(), Duration::from_millis(40));
        e.backoff();
        e.backoff();
        assert!(e.rto() <= Duration::from_secs(60));
    }

    #[test]
    fn sender_fills_fixed_window() {
        let mut s = TcpSender::new(Box::new(FixedWindow(8.0)));
        let pkts = polled(&mut s, t(0));
        assert_eq!(pkts.len(), 8);
        // No acks: window stays full, nothing more to send.
        assert_eq!(polled(&mut s, t(10)).len(), 0);
    }

    #[test]
    fn ack_clock_releases_new_segments() {
        let mut s = TcpSender::new(Box::new(FixedWindow(4.0)));
        let first = polled(&mut s, t(0));
        assert_eq!(first.len(), 4);
        // Receiver acks segment 0 → expected becomes 1.
        s.on_packet(ack(1, t(0), t(20)), t(40));
        let next = polled(&mut s, t(40));
        assert_eq!(next.len(), 1, "one acked → one new");
        assert!(s.rtt().srtt().is_some());
    }

    #[test]
    fn triple_dupack_triggers_single_fast_retransmit() {
        struct LossSpySync(std::sync::Arc<std::sync::atomic::AtomicU32>);
        impl CongestionControl for LossSpySync {
            fn on_ack(&mut self, _: u64, _: Duration, _: Timestamp) {}
            fn on_loss(&mut self, _now: Timestamp) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            fn on_timeout(&mut self, _: Timestamp) {}
            fn window(&self) -> f64 {
                10.0
            }
            fn name(&self) -> &'static str {
                "spy"
            }
        }
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut s = TcpSender::new(Box::new(LossSpySync(counter.clone())));
        let _ = polled(&mut s, t(0)); // 10 segments out

        // Segment 0 lost: acks echo later segments but cum stays 0.
        for i in 1..=4u64 {
            s.on_packet(ack(0, t(0), t(20 + i)), t(20 + i));
        }
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 1);
        let out = polled(&mut s, t(30));
        // The fast-retransmitted segment 0 is among the emitted packets.
        assert!(out.iter().any(|p| p.seq == 0));
        assert!(s.retransmits() >= 1);
    }

    #[test]
    fn rto_fires_and_backs_off() {
        struct TimeoutSpy(std::sync::Arc<std::sync::atomic::AtomicU32>);
        impl CongestionControl for TimeoutSpy {
            fn on_ack(&mut self, _: u64, _: Duration, _: Timestamp) {}
            fn on_loss(&mut self, _: Timestamp) {}
            fn on_timeout(&mut self, _now: Timestamp) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            fn window(&self) -> f64 {
                2.0
            }
            fn name(&self) -> &'static str {
                "tspy"
            }
        }
        let counter = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let mut s = TcpSender::new(Box::new(TimeoutSpy(counter.clone())));
        let _ = polled(&mut s, t(0));
        let deadline = s.next_wakeup().unwrap();
        assert!(deadline > t(0));
        // Nothing acked by the deadline: timeout fires on the next poll.
        let out = polled(&mut s, deadline + Duration::from_millis(1));
        assert_eq!(counter.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(out.iter().any(|p| p.seq == 0), "oldest seg retransmitted");
    }

    #[test]
    fn receiver_acks_cumulatively_and_handles_reorder() {
        let mut r = TcpReceiver::new();
        let data = |seq: u64| Packet {
            padding: MTU_BYTES - DATA_HEADER as u32,
            size: MTU_BYTES,
            ..Packet::from_payload(FlowId::PRIMARY, seq, encode_data(seq, t(0)))
        };
        r.on_packet(data(0), t(1));
        r.on_packet(data(2), t(2)); // gap at 1
        r.on_packet(data(1), t(3)); // fills the gap
        let acks = polled(&mut r, t(3));
        assert_eq!(acks.len(), 3);
        let cums: Vec<u64> = acks
            .iter()
            .map(|a| wire::decode::<3>(&a.payload, MAGIC_ACK).expect("an ack")[0])
            .collect();
        assert_eq!(cums, vec![1, 1, 3]);
        assert_eq!(r.segments_received(), 3);
    }

    #[test]
    fn junk_packets_are_ignored() {
        let mut s = TcpSender::new(Box::new(FixedWindow(2.0)));
        let mut r = TcpReceiver::new();
        let junk = Packet::from_payload(FlowId::PRIMARY, 0, Bytes::from_static(b"xx"));
        s.on_packet(junk.clone(), t(0));
        r.on_packet(junk, t(0));
        assert_eq!(r.segments_received(), 0);
    }

    /// The sender this one replaced, kept as the ring's oracle: retransmit
    /// state in a `BTreeMap` rebuilt by `split_off` on every ACK, and data
    /// segments whose filler is 1483 real zero bytes.
    mod reference {
        use super::super::*;
        use bytes::BufMut;
        use std::collections::BTreeMap;

        /// What the old `encode_data` built: header, then real zeros up to
        /// `size`.
        pub fn encode_data_padded(seq: u64, sent_at: Timestamp, size: u32) -> Bytes {
            let mut wire = vec![0u8; size as usize];
            let mut w = &mut wire[..];
            w.put_u8(MAGIC_DATA);
            w.put_u64_le(seq);
            w.put_u64_le(sent_at.as_micros());
            Bytes::from(wire)
        }

        pub struct BTreeSender {
            cc: Box<dyn CongestionControl>,
            rtt: RttEstimator,
            pub next_seq: u64,
            pub cum_ack: u64,
            outstanding: BTreeMap<u64, (Timestamp, u32)>,
            dup_acks: u32,
            recover_until: Option<u64>,
            rto_deadline: Option<Timestamp>,
            pub lost: BTreeSet<u64>,
            pending_retx: Vec<Packet>,
            pub segments_sent: u64,
            pub retransmits: u64,
        }

        impl BTreeSender {
            pub fn new(cc: Box<dyn CongestionControl>) -> Self {
                BTreeSender {
                    cc,
                    rtt: RttEstimator::default(),
                    next_seq: 0,
                    cum_ack: 0,
                    outstanding: BTreeMap::new(),
                    dup_acks: 0,
                    recover_until: None,
                    rto_deadline: None,
                    lost: BTreeSet::new(),
                    pending_retx: Vec::new(),
                    segments_sent: 0,
                    retransmits: 0,
                }
            }

            pub fn in_flight(&self) -> usize {
                self.outstanding.len() - self.lost.len()
            }

            fn transmit(&mut self, seq: u64, now: Timestamp, out: &mut Vec<Packet>) {
                let entry = self.outstanding.entry(seq).or_insert((now, 0));
                entry.0 = now;
                entry.1 += 1;
                if entry.1 > 1 {
                    self.retransmits += 1;
                }
                self.segments_sent += 1;
                out.push(Packet {
                    size: MTU_BYTES,
                    ..Packet::from_payload(
                        FlowId::PRIMARY,
                        seq,
                        encode_data_padded(seq, now, MTU_BYTES),
                    )
                });
                if self.rto_deadline.is_none() {
                    self.rto_deadline = Some(now + self.rtt.rto());
                }
            }
        }

        impl Endpoint for BTreeSender {
            fn on_packet(&mut self, packet: Packet, now: Timestamp) {
                let Some([cum_ack, echo_sent_at, recv_at]) =
                    wire::decode(&packet.payload, MAGIC_ACK)
                else {
                    return;
                };
                let (echo_sent_at, recv_at) = (
                    Timestamp::from_micros(echo_sent_at),
                    Timestamp::from_micros(recv_at),
                );
                let one_way = recv_at.saturating_since(echo_sent_at);
                if one_way > Duration::ZERO {
                    self.cc.on_one_way_delay(one_way);
                }
                if cum_ack > self.cum_ack {
                    let newly = cum_ack - self.cum_ack;
                    self.cum_ack = cum_ack;
                    self.dup_acks = 0;
                    let keep = self.outstanding.split_off(&cum_ack);
                    self.outstanding = keep;
                    self.lost = self.lost.split_off(&cum_ack);
                    let sample = now.saturating_since(echo_sent_at);
                    if sample > Duration::ZERO {
                        self.rtt.update(sample);
                    }
                    if let Some(rec) = self.recover_until {
                        if cum_ack >= rec {
                            self.recover_until = None;
                        }
                    }
                    self.cc
                        .on_ack(newly, now.saturating_since(echo_sent_at), now);
                    let cutoff = self.rtt.rto();
                    for (&seq, &(sent_at, _)) in self.outstanding.iter() {
                        if now.saturating_since(sent_at) > cutoff {
                            self.lost.insert(seq);
                        } else {
                            break;
                        }
                    }
                    self.rto_deadline = if self.outstanding.is_empty() {
                        None
                    } else {
                        Some(now + self.rtt.rto())
                    };
                } else {
                    self.dup_acks += 1;
                    if self.dup_acks == 3 && self.recover_until.is_none() {
                        self.recover_until = Some(self.next_seq);
                        self.cc.on_loss(now);
                        if let Some((&seq, _)) = self.outstanding.iter().next() {
                            let mut out = Vec::new();
                            self.transmit(seq, now, &mut out);
                            self.pending_retx.extend(out);
                        }
                    }
                }
            }

            fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
                out.append(&mut self.pending_retx);
                if let Some(deadline) = self.rto_deadline {
                    if now >= deadline && !self.outstanding.is_empty() {
                        self.cc.on_timeout(now);
                        self.rtt.backoff();
                        self.dup_acks = 0;
                        self.recover_until = None;
                        self.lost = self.outstanding.keys().copied().collect();
                        self.rto_deadline = Some(now + self.rtt.rto());
                    }
                }
                let cwnd = self.cc.window().max(1.0) as usize;
                let cwnd = cwnd.min(MAX_WINDOW_SEGMENTS);
                while self.in_flight() < cwnd {
                    if let Some(&seq) = self.lost.iter().next() {
                        self.lost.remove(&seq);
                        self.transmit(seq, now, out);
                    } else if self.next_seq < self.cum_ack + MAX_WINDOW_SEGMENTS as u64 {
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        self.transmit(seq, now, out);
                    } else {
                        break;
                    }
                }
            }

            fn next_wakeup(&self) -> Option<Timestamp> {
                self.rto_deadline
            }
        }
    }

    /// Drive the ring sender and the B-tree reference with one script
    /// and compare everything observable after every step. A script step
    /// is `(kind, a, b)`; `a` and `b` parameterise the step.
    fn ring_matches_reference(
        cc: impl Fn() -> Box<dyn CongestionControl>,
        script: &[(u32, u64, u64)],
    ) -> Result<(), String> {
        use proptest::{prop_assert, prop_assert_eq};
        let mut ring = TcpSender::new(cc());
        let mut tree = reference::BTreeSender::new(cc());
        let mut now = Timestamp::ZERO;
        let (mut ring_out, mut tree_out) = (Vec::new(), Vec::new());
        for &(kind, a, b) in script {
            let outstanding = tree.next_seq - tree.cum_ack;
            // What arrives before the poll: `count` ACKs up to `cum_ack`.
            let (cum_ack, count) = match kind % 8 {
                // Time passes (up to 100 ms); nothing arrives.
                0 | 1 => {
                    now += Duration::from_micros(a % 100_000);
                    (0, 0)
                }
                // A cumulative ACK for up to 40 more segments.
                2 | 3 if outstanding > 0 => (tree.cum_ack + 1 + a % outstanding.min(40), 1),
                // One duplicate ACK, or three at once.
                4 => (tree.cum_ack, 1 + 2 * (a % 2)),
                // A stale ACK from below the cumulative point.
                5 => (tree.cum_ack.saturating_sub(1 + a % 5), 1),
                // The RTO expires.
                6 => {
                    if let Some(deadline) = tree.next_wakeup() {
                        now = now.max(deadline + Duration::from_micros(a % 1_000));
                    }
                    (0, 0)
                }
                // Mass loss (CoDel draining after an outage): silence for
                // longer than an RTO, then an ACK that passes the first
                // hole arrives *before* the next poll, so hole repair
                // rather than the timer finds the stale front.
                7 if outstanding > 0 => {
                    now += Duration::from_millis(200 + a % 2_000);
                    (tree.cum_ack + 1 + b % outstanding.min(8), 1)
                }
                _ => (0, 0),
            };
            for _ in 0..count {
                // The echoed segment left up to 400 ms ago.
                let echo = Timestamp::from_micros(now.as_micros().saturating_sub(b % 400_000));
                let p = ack(cum_ack, echo, echo + Duration::from_millis(a % 50));
                ring.on_packet(p.clone(), now);
                tree.on_packet(p, now);
            }
            ring.poll_into(now, &mut ring_out);
            tree.poll_into(now, &mut tree_out);
            prop_assert_eq!(ring_out.len(), tree_out.len());
            for (r, t) in ring_out.drain(..).zip(tree_out.drain(..)) {
                prop_assert_eq!((r.seq, r.size, r.flow), (t.seq, t.size, t.flow));
                prop_assert_eq!(&r.payload[..], &t.payload[..DATA_HEADER]);
                // The reference's payload is ours followed by our padding
                // as zero bytes.
                let (head, filler) = t.payload.split_at(r.payload.len());
                prop_assert_eq!(head, &r.payload[..]);
                prop_assert_eq!(filler.len(), r.padding as usize);
                prop_assert!(filler.iter().all(|&z| z == 0));
            }
            prop_assert_eq!(ring.next_wakeup(), tree.next_wakeup());
            prop_assert_eq!(ring.segments_sent(), tree.segments_sent);
            prop_assert_eq!(ring.retransmits(), tree.retransmits);
            prop_assert_eq!((ring.cum_ack, ring.next_seq), (tree.cum_ack, tree.next_seq));
            prop_assert_eq!(ring.in_flight(), tree.in_flight());
            prop_assert_eq!(&ring.lost, &tree.lost);
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn ring_sender_matches_the_btree_reference_under_a_fixed_window(
            window in 1u64..64,
            script in proptest::collection::vec((0u32..8, 0u64..1 << 40, 0u64..1 << 40), 1..400),
        ) {
            ring_matches_reference(|| Box::new(FixedWindow(window as f64)), &script)?;
        }

        #[test]
        fn ring_sender_matches_the_btree_reference_under_cubic(
            script in proptest::collection::vec((0u32..8, 0u64..1 << 40, 0u64..1 << 40), 1..400),
        ) {
            ring_matches_reference(|| Box::new(crate::cubic::Cubic::new()), &script)?;
        }
    }
}
