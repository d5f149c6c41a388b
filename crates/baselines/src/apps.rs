//! Models of the closed-source interactive applications the paper
//! measures: Skype, FaceTime, and Google Hangout (§5.2).
//!
//! The paper attributes their poor behaviour over cellular paths to one
//! mechanism (§5.2): "they do not react to rate increases and decreases
//! quickly enough … By continuing to send when the network has
//! dramatically slowed, these programs induce high delays that destroy
//! interactivity." The model is therefore an **open-loop, rate-based
//! sender** (no ACK clock): it transmits video frames at its current
//! encoding rate, ramps the rate up slowly while the receiver reports
//! low delay, and only after congestion has persisted for several
//! seconds does it cut the rate multiplicatively. Per-application
//! parameters (rate caps, ramp and reaction speeds) are calibrated to
//! the qualitative placements in Figure 7. This is a deliberate,
//! documented substitution for the unavailable closed-source binaries.

use bytes::Bytes;

use sprout_sim::{Endpoint, FlowId, Packet};
use sprout_trace::{Duration, Timestamp, MTU_BYTES};

use crate::wire;

/// One of the paper's modeled interactive applications, as a nameable
/// value: the app-workload axis of the scenario matrix refers to apps by
/// this enum and builds the sender/receiver pair from
/// [`VideoApp::profile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VideoApp {
    /// Skype ([`AppProfile::skype`]).
    Skype,
    /// FaceTime ([`AppProfile::facetime`]).
    Facetime,
    /// Google Hangout ([`AppProfile::hangout`]).
    Hangout,
}

impl VideoApp {
    /// All modeled apps, in the paper's order.
    pub fn all() -> [VideoApp; 3] {
        [VideoApp::Skype, VideoApp::Facetime, VideoApp::Hangout]
    }

    /// Machine-friendly identifier (labels, canonical encodings).
    pub fn id(self) -> &'static str {
        match self {
            VideoApp::Skype => "skype",
            VideoApp::Facetime => "facetime",
            VideoApp::Hangout => "hangout",
        }
    }

    /// The behavioural profile of this app.
    pub fn profile(self) -> AppProfile {
        match self {
            VideoApp::Skype => AppProfile::skype(),
            VideoApp::Facetime => AppProfile::facetime(),
            VideoApp::Hangout => AppProfile::hangout(),
        }
    }
}

/// Behavioural parameters of one application model.
#[derive(Clone, Debug)]
pub struct AppProfile {
    /// Application name as reported in figures.
    pub name: &'static str,
    /// Lowest encoding rate the app will drop to, bits/s.
    pub min_rate_bps: f64,
    /// Hard cap on the encoding rate, bits/s.
    pub max_rate_bps: f64,
    /// Rate at call start, bits/s.
    pub start_rate_bps: f64,
    /// Interval between video frames.
    pub frame_interval: Duration,
    /// Multiplicative rate growth per second of good feedback.
    pub increase_per_sec: f64,
    /// Multiplicative cut when reacting to congestion.
    pub decrease_factor: f64,
    /// Reported delay above this counts as congestion.
    pub congestion_threshold: Duration,
    /// Congestion must persist this long before the app reacts (the
    /// "several seconds and a user-visible outage" of §1).
    pub reaction_time: Duration,
    /// Minimum spacing between consecutive rate cuts.
    pub cooldown: Duration,
}

impl AppProfile {
    /// Skype model: climbs to high rates ("on fast network paths, Skype
    /// uses up to 5 Mbps", §5.2 fn. 8), reacts after ~3 s of congestion.
    pub fn skype() -> Self {
        AppProfile {
            name: "Skype",
            min_rate_bps: 64e3,
            max_rate_bps: 5e6,
            start_rate_bps: 300e3,
            frame_interval: Duration::from_millis(33),
            increase_per_sec: 1.10,
            decrease_factor: 0.5,
            congestion_threshold: Duration::from_millis(400),
            reaction_time: Duration::from_millis(2_500),
            cooldown: Duration::from_millis(1_500),
        }
    }

    /// FaceTime model: conservative cap, slowest to cut.
    pub fn facetime() -> Self {
        AppProfile {
            name: "Facetime",
            min_rate_bps: 96e3,
            max_rate_bps: 1e6,
            start_rate_bps: 300e3,
            frame_interval: Duration::from_millis(33),
            increase_per_sec: 1.08,
            decrease_factor: 0.7,
            congestion_threshold: Duration::from_millis(400),
            reaction_time: Duration::from_secs(3),
            cooldown: Duration::from_secs(2),
        }
    }

    /// Hangout model: mid cap, long reaction delay.
    pub fn hangout() -> Self {
        AppProfile {
            name: "Google Hangout",
            min_rate_bps: 64e3,
            max_rate_bps: 2.5e6,
            start_rate_bps: 300e3,
            frame_interval: Duration::from_millis(33),
            increase_per_sec: 1.08,
            decrease_factor: 0.5,
            congestion_threshold: Duration::from_millis(500),
            reaction_time: Duration::from_secs(4),
            cooldown: Duration::from_secs(2),
        }
    }
}

// --- wire format (the baseline suite's one header layout, `wire`) ---

const MAGIC_FRAME: u8 = 0xF0;
const MAGIC_REPORT: u8 = 0xF1;
/// Frame chunk: magic(1) seq(8) sent_at(8).
const FRAME_HEADER: usize = wire::len(2);
/// Report: magic(1) max_delay_us(8) received(8).
const REPORT_LEN: usize = wire::len(2);

/// The 17 header bytes of a frame chunk; the media bytes behind it are
/// filler the packet carries as [`Packet::padding`].
fn encode_frame_chunk(seq: u64, sent_at: Timestamp) -> Bytes {
    wire::encode(MAGIC_FRAME, [seq, sent_at.as_micros()])
}

fn encode_report(max_delay: Duration, received: u64) -> Bytes {
    wire::encode(MAGIC_REPORT, [max_delay.as_micros(), received])
}

/// The sending side of a modeled videoconference application.
pub struct VideoAppSender {
    profile: AppProfile,
    flow: FlowId,
    rate_bps: f64,
    next_frame: Timestamp,
    seq: u64,
    /// Sub-packet remainder carried between frames.
    carry_bytes: f64,
    /// When the current congestion episode started.
    congested_since: Option<Timestamp>,
    last_cut: Option<Timestamp>,
    last_increase: Timestamp,
}

impl VideoAppSender {
    /// New sender with the given behavioural profile.
    pub fn new(profile: AppProfile) -> Self {
        VideoAppSender {
            rate_bps: profile.start_rate_bps,
            profile,
            flow: FlowId::PRIMARY,
            next_frame: Timestamp::ZERO,
            seq: 0,
            carry_bytes: 0.0,
            congested_since: None,
            last_cut: None,
            last_increase: Timestamp::ZERO,
        }
    }

    /// Tag outgoing packets with a flow id.
    pub fn set_flow(&mut self, flow: FlowId) {
        self.flow = flow;
    }

    /// Current encoding rate, bits/s (diagnostics).
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    fn maybe_adapt(&mut self, reported_delay: Duration, now: Timestamp) {
        let p = &self.profile;
        if reported_delay > p.congestion_threshold {
            let since = *self.congested_since.get_or_insert(now);
            let cooled = self
                .last_cut
                .map(|t| now.saturating_since(t) >= p.cooldown)
                .unwrap_or(true);
            if now.saturating_since(since) >= p.reaction_time && cooled {
                self.rate_bps = (self.rate_bps * p.decrease_factor).max(p.min_rate_bps);
                self.last_cut = Some(now);
                self.congested_since = Some(now); // new episode measurement
            }
        } else {
            self.congested_since = None;
        }
    }
}

impl Endpoint for VideoAppSender {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        if let Some([max_delay_us, _received]) = wire::decode(&packet.payload, MAGIC_REPORT) {
            self.maybe_adapt(Duration::from_micros(max_delay_us), now);
        }
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        // Gentle multiplicative ramp while not congested.
        if self.congested_since.is_none()
            && now.saturating_since(self.last_increase) >= Duration::from_secs(1)
        {
            self.rate_bps =
                (self.rate_bps * self.profile.increase_per_sec).min(self.profile.max_rate_bps);
            self.last_increase = now;
        }
        while self.next_frame <= now {
            let frame_bytes =
                self.rate_bps * self.profile.frame_interval.as_secs_f64() / 8.0 + self.carry_bytes;
            let mut remaining = frame_bytes as u64;
            self.carry_bytes = frame_bytes - remaining as f64;
            // Chunk the frame into MTU packets (open loop — sent
            // regardless of network state; that is the §5.2 pathology).
            while remaining > 0 {
                let chunk = remaining.min((MTU_BYTES as usize - FRAME_HEADER) as u64);
                remaining -= chunk;
                let size = chunk as u32 + FRAME_HEADER as u32;
                out.push(Packet {
                    flow: self.flow,
                    seq: self.seq,
                    sent_at: Timestamp::ZERO,
                    size,
                    padding: chunk as u32,
                    payload: encode_frame_chunk(self.seq, now),
                });
                self.seq += 1;
            }
            self.next_frame += self.profile.frame_interval;
        }
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        Some(self.next_frame)
    }
}

/// Receiving side: measures arrival delay and reports the worst delay of
/// each reporting interval back to the sender (an RTCP-receiver-report
/// stand-in).
pub struct VideoAppReceiver {
    flow: FlowId,
    report_interval: Duration,
    next_report: Timestamp,
    worst_delay: Duration,
    received: u64,
    pending: Vec<Packet>,
}

impl VideoAppReceiver {
    /// New receiver reporting every 250 ms.
    pub fn new() -> Self {
        VideoAppReceiver {
            flow: FlowId::PRIMARY,
            report_interval: Duration::from_millis(250),
            next_report: Timestamp::ZERO + Duration::from_millis(250),
            worst_delay: Duration::ZERO,
            received: 0,
            pending: Vec::new(),
        }
    }

    /// Tag outgoing reports with a flow id.
    pub fn set_flow(&mut self, flow: FlowId) {
        self.flow = flow;
    }

    /// Frames chunks received so far.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Default for VideoAppReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Endpoint for VideoAppReceiver {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        if let Some([_seq, sent_at]) = wire::decode(&packet.payload, MAGIC_FRAME) {
            self.received += 1;
            let delay = now.saturating_since(Timestamp::from_micros(sent_at));
            if delay > self.worst_delay {
                self.worst_delay = delay;
            }
        }
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        out.append(&mut self.pending);
        while self.next_report <= now {
            out.push(Packet {
                flow: self.flow,
                seq: self.received,
                sent_at: Timestamp::ZERO,
                size: REPORT_LEN as u32 + 23, // + L3/L4 overhead ≈ 40 B
                padding: 0,
                payload: encode_report(self.worst_delay, self.received),
            });
            self.worst_delay = Duration::ZERO;
            self.next_report += self.report_interval;
        }
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        Some(self.next_report)
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

    fn report(delay_ms: u64) -> Packet {
        Packet {
            size: 40,
            ..Packet::from_payload(
                FlowId::PRIMARY,
                0,
                encode_report(Duration::from_millis(delay_ms), 0),
            )
        }
    }

    /// The worst delay a receiver report carries.
    fn reported_delay(report: &Packet) -> Duration {
        let [max_delay_us, _received] =
            wire::decode(&report.payload, MAGIC_REPORT).expect("a report");
        Duration::from_micros(max_delay_us)
    }

    #[test]
    fn sends_at_configured_rate() {
        let mut s = VideoAppSender::new(AppProfile::facetime());
        let mut bytes = 0u64;
        for ms in 0..2_000u64 {
            for p in polled(&mut s, t(ms)) {
                bytes += p.size as u64;
            }
        }
        let rate = bytes as f64 * 8.0 / 2.0;
        // ~300 kbps start rate, ramping ≤ 15%/s: within [280k, 500k].
        assert!(rate > 280e3 && rate < 500e3, "observed rate {rate:.0} bps");
    }

    #[test]
    fn ramps_up_while_feedback_is_good() {
        let mut s = VideoAppSender::new(AppProfile::skype());
        let r0 = s.rate_bps();
        for sec in 0..20u64 {
            s.on_packet(report(50), t(sec * 1_000));
            let _ = polled(&mut s, t(sec * 1_000));
        }
        assert!(s.rate_bps() > r0 * 2.0, "rate {} from {r0}", s.rate_bps());
        assert!(s.rate_bps() <= AppProfile::skype().max_rate_bps);
    }

    #[test]
    fn reacts_only_after_sustained_congestion() {
        let mut s = VideoAppSender::new(AppProfile::skype());
        let r0 = s.rate_bps();
        // 1 s of congestion: below the 3 s reaction time → no cut.
        s.on_packet(report(2_000), t(0));
        s.on_packet(report(2_000), t(1_000));
        assert!(s.rate_bps() >= r0);
        // Crossing the reaction time → multiplicative cut.
        s.on_packet(report(2_000), t(3_100));
        assert!((s.rate_bps() - r0 * 0.5).abs() < r0 * 0.01);
    }

    #[test]
    fn congestion_clears_on_good_report() {
        let mut s = VideoAppSender::new(AppProfile::skype());
        s.on_packet(report(2_000), t(0));
        s.on_packet(report(40), t(1_000)); // episode over
        s.on_packet(report(2_000), t(2_000)); // new episode starts at 2 s
        s.on_packet(report(2_000), t(4_000)); // only 2 s in → no cut
        assert!((s.rate_bps() - AppProfile::skype().start_rate_bps).abs() < 1.0);
    }

    #[test]
    fn rate_never_leaves_bounds() {
        let p = AppProfile::facetime();
        let mut s = VideoAppSender::new(p.clone());
        // Hammer with congestion for a minute.
        for sec in 0..60u64 {
            s.on_packet(report(5_000), t(sec * 1_000));
        }
        assert!(s.rate_bps() >= p.min_rate_bps);
        // Then good news for ten minutes.
        for sec in 60..660u64 {
            s.on_packet(report(10), t(sec * 1_000));
            let _ = polled(&mut s, t(sec * 1_000));
        }
        assert!(s.rate_bps() <= p.max_rate_bps);
    }

    #[test]
    fn receiver_reports_worst_interval_delay() {
        let mut r = VideoAppReceiver::new();
        let frame = |sent_ms: u64, size: u32| Packet {
            size,
            padding: size - FRAME_HEADER as u32,
            ..Packet::from_payload(FlowId::PRIMARY, 0, encode_frame_chunk(0, t(sent_ms)))
        };
        r.on_packet(frame(0, 500), t(100)); // 100 ms delay
        r.on_packet(frame(200, 500), t(220)); // 20 ms delay
        let reports = polled(&mut r, t(250));
        assert_eq!(reports.len(), 1);
        assert_eq!(reported_delay(&reports[0]), Duration::from_millis(100));
        // Next interval starts fresh.
        r.on_packet(frame(400, 500), t(410));
        let reports = polled(&mut r, t(500));
        assert_eq!(reported_delay(&reports[0]), Duration::from_millis(10));
    }

    #[test]
    fn frame_chunking_respects_mtu() {
        let mut profile = AppProfile::skype();
        profile.start_rate_bps = 4e6; // big frames → multiple chunks
        let mut s = VideoAppSender::new(profile);
        let pkts = polled(&mut s, t(0));
        assert!(!pkts.is_empty());
        assert!(pkts.iter().all(|p| p.size <= MTU_BYTES));
        assert!(pkts.iter().any(|p| p.size == MTU_BYTES));
    }
}
