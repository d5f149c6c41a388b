//! The Sprout sender half (§3.4–3.5): queue-occupancy estimation from
//! feedback, the evolving window computed from the forecast, throwaway
//! numbers, and heartbeat scheduling.

use std::collections::VecDeque;

use crate::config::{HEARTBEAT_INTERVAL, LOOKAHEAD_TICKS, REORDER_WINDOW};
use crate::wire::{WireForecast, WIRE_HORIZON};
use sprout_trace::{Timestamp, MTU_BYTES, TICK};

/// The forecast currently steering the sender, rebased to sender time.
#[derive(Clone, Debug)]
struct ActiveForecast {
    /// When the forecast arrived at the sender (its tick 0 reference;
    /// `sender-clock` in sprout-bench's `claims::INTERPRETATIONS`).
    received_at: Timestamp,
    /// Cumulative deliverable bytes per tick; index k = within k+1 ticks.
    cumulative_bytes: [u64; WIRE_HORIZON],
    /// Receiver tick counter, to discard stale reordered forecasts.
    tick: u32,
    /// Forecast ticks already credited against the queue estimate.
    drained_ticks: usize,
}

impl ActiveForecast {
    /// Cumulative bytes deliverable within `k` ticks of `received_at`
    /// (k = 0 → 0).
    fn cumulative(&self, k: usize) -> u64 {
        if k == 0 {
            return 0;
        }
        let idx = (k - 1).min(self.cumulative_bytes.len() - 1);
        self.cumulative_bytes[idx]
    }
}

/// Sender-half state.
#[derive(Default)]
pub struct SproutSender {
    /// Total wire bytes handed to the network on this direction.
    bytes_sent: u64,
    /// Estimated bytes still inside the network, on the wire as well as
    /// queued: all of it is queue the forecast must drain (`sender-clock`).
    queue_estimate: u64,
    forecast: Option<ActiveForecast>,
    /// Recent transmissions (send time, sequence number) for computing
    /// throwaway numbers (§3.4).
    recent_sends: VecDeque<(Timestamp, u64)>,
    /// Throwaway candidate: seq of the most recent packet sent more than
    /// [`REORDER_WINDOW`] ago.
    throwaway: u64,
    /// Time of the last transmission (for heartbeat scheduling).
    last_send: Option<Timestamp>,
}

impl SproutSender {
    /// New sender at the start of a connection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest a feedback block. Stale forecasts (older receiver tick than
    /// the current one) are ignored; a fresh one re-anchors the queue
    /// estimate from the received-or-lost total (§3.4–3.5).
    pub fn on_feedback(&mut self, fb: &WireForecast, now: Timestamp) {
        if let Some(cur) = &self.forecast {
            if fb.tick < cur.tick {
                return;
            }
        }
        let unit = MTU_BYTES as u64 / crate::forecast::UNITS_PER_MTU;
        // A receiver's cumulative forecast never decreases; a foreign
        // block's might, and every use below takes differences. Hold the
        // running maximum (the identity on a well-formed block).
        let mut floor = 0;
        let cumulative_bytes = fb.cumulative_units.map(|c| {
            floor = floor.max(c as u64 * unit);
            floor
        });
        self.queue_estimate = self.bytes_sent.saturating_sub(fb.recv_or_lost_bytes);
        self.forecast = Some(ActiveForecast {
            received_at: now,
            cumulative_bytes,
            tick: fb.tick,
            drained_ticks: 0,
        });
    }

    /// Credit forecast ticks that have elapsed against the queue estimate
    /// (§3.5: "every time it advances into a new tick of the 8-tick
    /// forecast, it decrements the estimate by the amount of the
    /// forecast").
    pub fn advance(&mut self, now: Timestamp) {
        let Some(f) = &mut self.forecast else {
            return;
        };
        let elapsed = now.saturating_since(f.received_at).as_micros() / TICK.as_micros();
        let elapsed = (elapsed as usize).min(f.cumulative_bytes.len());
        while f.drained_ticks < elapsed {
            let k = f.drained_ticks + 1;
            let delta = f.cumulative(k) - f.cumulative(k - 1);
            self.queue_estimate = self.queue_estimate.saturating_sub(delta);
            f.drained_ticks = k;
        }
    }

    /// The §3.5 window: bytes safe to transmit now such that everything
    /// clears the queue within the 100 ms lookahead with the forecast's
    /// confidence. Call [`advance`](Self::advance) first.
    pub fn window_bytes(&self, now: Timestamp) -> u64 {
        match &self.forecast {
            None => {
                // Startup: no forecast yet (the first one arrives within
                // ~1 RTT). Allow a single MTU so the receiver has
                // something to observe (`startup-window`).
                MTU_BYTES as u64
            }
            Some(f) => {
                let elapsed = now.saturating_since(f.received_at).as_micros() / TICK.as_micros();
                let e = (elapsed as usize).min(f.cumulative_bytes.len());
                let look = (e + LOOKAHEAD_TICKS).min(f.cumulative_bytes.len());
                let deliverable = f.cumulative(look) - f.cumulative(e);
                deliverable.saturating_sub(self.queue_estimate)
            }
        }
    }

    /// Bytes the current forecast still predicts deliverable from `now`
    /// to the end of its horizon — "the number of packets that can be
    /// delivered over the life of the forecast" (§4.3), used as the
    /// tunnel's total queue cap. Zero with no forecast.
    pub fn forecast_remaining_bytes(&self, now: Timestamp) -> u64 {
        match &self.forecast {
            None => 0,
            Some(f) => {
                let elapsed = now.saturating_since(f.received_at).as_micros() / TICK.as_micros();
                let e = (elapsed as usize).min(f.cumulative_bytes.len());
                f.cumulative(f.cumulative_bytes.len()) - f.cumulative(e)
            }
        }
    }

    /// Register a transmission of `wire_bytes`; returns the sequence
    /// number the packet must carry.
    pub fn on_send(&mut self, wire_bytes: u32, now: Timestamp) -> u64 {
        let seq = self.bytes_sent;
        self.bytes_sent += wire_bytes as u64;
        self.queue_estimate += wire_bytes as u64;
        self.recent_sends.push_back((now, seq));
        self.last_send = Some(now);
        self.refresh_throwaway(now);
        seq
    }

    /// Current throwaway number (§3.4): the sequence number of the most
    /// recent packet sent more than [`REORDER_WINDOW`] before `now`.
    pub fn throwaway(&mut self, now: Timestamp) -> u64 {
        self.refresh_throwaway(now);
        self.throwaway
    }

    fn refresh_throwaway(&mut self, now: Timestamp) {
        while let Some(&(t, seq)) = self.recent_sends.front() {
            if now.saturating_since(t) > REORDER_WINDOW {
                self.throwaway = self.throwaway.max(seq);
                self.recent_sends.pop_front();
            } else {
                break;
            }
        }
    }

    /// Whether a heartbeat is due: nothing sent for a heartbeat interval
    /// (§3.2: "the sender sends regular heartbeat packets when idle").
    pub fn heartbeat_due(&self, now: Timestamp) -> bool {
        match self.last_send {
            None => true,
            Some(t) => now.saturating_since(t) >= HEARTBEAT_INTERVAL,
        }
    }

    /// Total wire bytes sent.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Current estimate of bytes inside the network.
    pub fn queue_estimate(&self) -> u64 {
        self.queue_estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WIRE_HORIZON;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// Feedback forecasting `per_tick` packets each tick (wire units are
    /// quarter-MTU, hence the ×4).
    fn fb(recv_or_lost: u64, tick: u32, per_tick: u16) -> WireForecast {
        let mut cumulative_units = [0u16; WIRE_HORIZON];
        for (i, c) in cumulative_units.iter_mut().enumerate() {
            *c = per_tick * 4 * (i as u16 + 1);
        }
        WireForecast {
            recv_or_lost_bytes: recv_or_lost,
            tick,
            cumulative_units,
        }
    }

    #[test]
    fn startup_window_is_one_mtu() {
        let s = SproutSender::new();
        assert_eq!(s.window_bytes(t(0)), 1_500);
    }

    #[test]
    fn window_is_lookahead_minus_queue() {
        let mut s = SproutSender::new();
        // Send 10 MTU first so there's something in the network.
        for _ in 0..10 {
            s.on_send(1_500, t(0));
        }
        // Feedback: receiver got 4 of them; forecast 2 packets per tick.
        s.on_feedback(&fb(6_000, 1, 2), t(10));
        // queue_estimate = 15000 − 6000 = 9000.
        assert_eq!(s.queue_estimate(), 9_000);
        // Lookahead 5 ticks × 2 pkts × 1500 = 15000; window = 15000−9000.
        assert_eq!(s.window_bytes(t(10)), 6_000);
    }

    #[test]
    fn queue_drains_as_forecast_ticks_pass() {
        let mut s = SproutSender::new();
        for _ in 0..10 {
            s.on_send(1_500, t(0));
        }
        s.on_feedback(&fb(0, 1, 2), t(10));
        assert_eq!(s.queue_estimate(), 15_000);
        // After 2 forecast ticks (40 ms), 2×2×1500 = 6000 credited.
        s.advance(t(50));
        assert_eq!(s.queue_estimate(), 9_000);
        // Window now looks at ticks 2..7: still 5 ticks of 3000 = 15000,
        // minus remaining queue 9000.
        assert_eq!(s.window_bytes(t(50)), 6_000);
    }

    #[test]
    fn lookahead_clamps_at_forecast_end() {
        let mut s = SproutSender::new();
        s.on_feedback(&fb(0, 1, 2), t(0));
        // 7 ticks in: only 1 tick of forecast remains (8−7).
        s.advance(t(141));
        let w = s.window_bytes(t(141));
        assert_eq!(w, 3_000); // one tick × 2 pkts × 1500
                              // Past the horizon: nothing deliverable.
        s.advance(t(161));
        assert_eq!(s.window_bytes(t(161)), 0);
    }

    #[test]
    fn stale_feedback_is_ignored() {
        let mut s = SproutSender::new();
        s.on_feedback(&fb(0, 10, 2), t(0));
        for _ in 0..4 {
            s.on_send(1_500, t(1));
        }
        // An old forecast (tick 9) arrives late and must not clobber.
        s.on_feedback(&fb(6_000, 9, 1), t(2));
        assert_eq!(s.queue_estimate(), 6_000); // unchanged by stale fb
                                               // Fresh forecast re-anchors.
        s.on_feedback(&fb(6_000, 11, 1), t(3));
        assert_eq!(s.queue_estimate(), 0);
    }

    #[test]
    fn window_never_goes_negative() {
        let mut s = SproutSender::new();
        s.on_feedback(&fb(0, 1, 1), t(0));
        for _ in 0..100 {
            s.on_send(1_500, t(1));
        }
        assert_eq!(s.window_bytes(t(1)), 0);
    }

    #[test]
    fn throwaway_trails_by_reorder_window() {
        let mut s = SproutSender::new();
        let s0 = s.on_send(1_500, t(0));
        let s1 = s.on_send(1_500, t(5));
        let _s2 = s.on_send(1_500, t(12));
        assert_eq!(s0, 0);
        assert_eq!(s1, 1_500);
        // At 12 ms: packets sent at 0 ms qualify (>10 ms old); 5 ms does
        // not (7 ms old).
        assert_eq!(s.throwaway(t(12)), 0);
        // At 16 ms: the 5 ms packet (11 ms old) qualifies → throwaway is
        // its seq.
        assert_eq!(s.throwaway(t(16)), 1_500);
        // Monotone even if queried far in the future.
        assert_eq!(s.throwaway(t(1_000)), 3_000);
    }

    #[test]
    fn heartbeat_after_idle_interval() {
        let mut s = SproutSender::new();
        assert!(s.heartbeat_due(t(0))); // never sent anything
        s.on_send(100, t(0));
        assert!(!s.heartbeat_due(t(10)));
        assert!(s.heartbeat_due(t(20)));
    }

    #[test]
    fn feedback_after_sends_accounts_in_flight() {
        let mut s = SproutSender::new();
        for _ in 0..4 {
            s.on_send(1_500, t(0));
        }
        assert_eq!(s.bytes_sent(), 6_000);
        // Receiver saw nothing yet.
        s.on_feedback(&fb(0, 1, 4), t(5));
        assert_eq!(s.queue_estimate(), 6_000);
        // 5-tick lookahead: 4×5×1500 = 30000 − 6000 = 24000.
        assert_eq!(s.window_bytes(t(5)), 24_000);
    }
}
