//! The Saturator (§4.1): the paper's trace-capture tool, reproduced
//! against simulated radios.
//!
//! The sender "keeps a window of N packets in flight to the receiver, and
//! adjusts N in order to keep the observed RTT greater than 750 ms (but
//! less than 3000 ms)": with ≥750 ms of standing queue the link never
//! starves, so the receiver-side arrival times *are* the link's delivery
//! opportunities — the ground-truth trace Cellsim later replays.

use sprout_sim::{Endpoint, FlowId, Packet};
use sprout_trace::{Duration, Timestamp, Trace, MTU_BYTES};

use crate::wire;

/// Lower bound on the standing RTT (§4.1).
pub const RTT_FLOOR: Duration = Duration::from_millis(750);
/// Upper bound, beyond which carriers may throttle (§4.1).
pub const RTT_CEILING: Duration = Duration::from_millis(3_000);

const MAGIC_PROBE: u8 = 0xB0;
const MAGIC_PROBE_ACK: u8 = 0xB1;
/// Probe and probe ACK alike: magic(1) seq(8) timestamp(8). A probe
/// fills the rest of its MTU with [`Packet::padding`].
const PROBE_HEADER: usize = wire::len(2);

/// The window-adjusting sender half.
pub struct SaturatorSender {
    flow: FlowId,
    /// Target packets in flight.
    window: u64,
    next_seq: u64,
    acked: u64,
    last_rtt: Option<Duration>,
}

impl SaturatorSender {
    /// New saturator starting from a small window.
    pub fn new() -> Self {
        SaturatorSender {
            flow: FlowId::PRIMARY,
            window: 10,
            next_seq: 0,
            acked: 0,
            last_rtt: None,
        }
    }

    /// Latest observed RTT.
    pub fn last_rtt(&self) -> Option<Duration> {
        self.last_rtt
    }

    /// Current window target.
    pub fn window(&self) -> u64 {
        self.window
    }
}

impl Default for SaturatorSender {
    fn default() -> Self {
        Self::new()
    }
}

impl Endpoint for SaturatorSender {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        let Some([seq, echo]) = wire::decode(&packet.payload, MAGIC_PROBE_ACK) else {
            return;
        };
        let echo = Timestamp::from_micros(echo);
        self.acked = self.acked.max(seq + 1);
        let rtt = now.saturating_since(echo);
        self.last_rtt = Some(rtt);
        // §4.1 control law: grow while under the floor, shrink over the
        // ceiling, hold in between.
        if rtt < RTT_FLOOR {
            self.window += 1;
        } else if rtt > RTT_CEILING {
            self.window = self.window.saturating_sub(1).max(1);
        }
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        while self.next_seq.saturating_sub(self.acked) < self.window {
            out.push(Packet {
                flow: self.flow,
                seq: self.next_seq,
                sent_at: Timestamp::ZERO,
                size: MTU_BYTES,
                padding: MTU_BYTES - PROBE_HEADER as u32,
                payload: wire::encode(MAGIC_PROBE, [self.next_seq, now.as_micros()]),
            });
            self.next_seq += 1;
        }
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        None // purely ack-clocked
    }
}

/// Receiver half: acks every probe over the (well-provisioned) feedback
/// path and records arrival times — the captured trace.
pub struct SaturatorReceiver {
    flow: FlowId,
    arrivals: Vec<Timestamp>,
    pending: Vec<Packet>,
}

impl SaturatorReceiver {
    /// New recording receiver.
    pub fn new() -> Self {
        SaturatorReceiver {
            flow: FlowId::PRIMARY,
            arrivals: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The captured delivery-opportunity trace so far.
    pub fn captured_trace(&self) -> Trace {
        Trace::new(self.arrivals.clone())
    }
}

impl Default for SaturatorReceiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Endpoint for SaturatorReceiver {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        let Some([seq, echo]) = wire::decode(&packet.payload, MAGIC_PROBE) else {
            return;
        };
        self.arrivals.push(now);
        self.pending.push(Packet {
            flow: self.flow,
            seq,
            sent_at: Timestamp::ZERO,
            size: 40,
            padding: 0,
            payload: wire::encode(MAGIC_PROBE_ACK, [seq, echo]),
        });
    }

    fn poll_into(&mut self, _now: Timestamp, out: &mut Vec<Packet>) {
        out.append(&mut self.pending);
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_sim::{PathConfig, Simulation};

    #[test]
    fn keeps_rtt_between_floor_and_ceiling() {
        // Steady 100-opportunity/s link; generous feedback path.
        let trace = Trace::from_millis((0..6_000).map(|i| i * 10));
        let feedback = Trace::from_millis(0..60_000);
        let mut sim = Simulation::new(
            SaturatorSender::new(),
            SaturatorReceiver::new(),
            PathConfig::standard(trace),
            PathConfig::standard(feedback),
        );
        sim.run_until(Timestamp::from_secs(60));
        let rtt = sim.a.last_rtt().expect("acks flowed");
        assert!(
            rtt >= RTT_FLOOR && rtt <= RTT_CEILING + Duration::from_millis(200),
            "standing RTT {rtt}"
        );
    }

    #[test]
    fn captured_trace_matches_link_capacity() {
        // The whole point of the tool: arrivals at the receiver = the
        // link's delivery schedule, once the queue never starves.
        let trace = Trace::from_millis((0..6_000).map(|i| i * 10));
        let feedback = Trace::from_millis(0..60_000);
        let mut sim = Simulation::new(
            SaturatorSender::new(),
            SaturatorReceiver::new(),
            PathConfig::standard(trace.clone()),
            PathConfig::standard(feedback),
        );
        sim.run_until(Timestamp::from_secs(60));
        let captured = sim.b.captured_trace();
        // After the ramp-up (first ~5 s), every opportunity carries a
        // probe: captured rate ≈ true capacity.
        let window = |tr: &Trace| {
            tr.opportunities_between(Timestamp::from_secs(10), Timestamp::from_secs(55))
        };
        let true_ops = window(&trace);
        let captured_ops = window(&captured);
        let ratio = captured_ops as f64 / true_ops as f64;
        assert!(
            ratio > 0.98 && ratio < 1.02,
            "captured {captured_ops} vs true {true_ops}"
        );
    }
}
