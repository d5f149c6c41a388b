//! CoDel active queue management, from the pseudocode in Nichols &
//! Jacobson, "Controlling Queue Delay", ACM Queue 10(5), May 2012 — the
//! same reference (the paper's \[17\]) and pseudocode the paper's Cellsim used (§4.2,
//! §5.4).
//!
//! CoDel watches the *sojourn time* each packet spent in the queue. When
//! sojourn stays above `target` for at least `interval`, CoDel enters a
//! dropping state and drops packets at increasing frequency
//! (`interval / √count`) until sojourn falls below target.

use crate::queue::Fifo;
use sprout_trace::{Duration, Timestamp, MTU_BYTES};

/// CoDel parameters. Defaults are the reference values used by the paper's
/// era of CoDel: 5 ms target, 100 ms interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoDelConfig {
    /// Acceptable standing-queue delay.
    pub target: Duration,
    /// Sliding-minimum window width.
    pub interval: Duration,
}

impl Default for CoDelConfig {
    fn default() -> Self {
        CoDelConfig {
            target: Duration::from_millis(5),
            interval: Duration::from_millis(100),
        }
    }
}

/// The CoDel policy over a FIFO. It stores no packet: the link's ring
/// holds them, each with its arrival time, and CoDel judges the head's
/// sojourn from that stamp.
#[derive(Debug)]
pub struct CoDelQueue {
    cfg: CoDelConfig,
    bytes: u64,
    drops: u64,
    drop_bytes: u64,
    /// Time at which the sojourn time first exceeded target continuously
    /// (plus one interval); `None` when below target.
    first_above_time: Option<Timestamp>,
    /// Whether we are in the dropping state.
    dropping: bool,
    /// Scheduled time of the next drop while in the dropping state.
    drop_next: Timestamp,
    /// Number of drops since entering the current dropping state.
    count: u32,
}

impl CoDelQueue {
    /// A CoDel queue with the given parameters.
    pub fn new(cfg: CoDelConfig) -> Self {
        CoDelQueue {
            cfg,
            bytes: 0,
            drops: 0,
            drop_bytes: 0,
            first_above_time: None,
            dropping: false,
            drop_next: Timestamp::ZERO,
            count: 0,
        }
    }

    /// Whether the queue is currently in the dropping state (diagnostic).
    pub fn in_dropping_state(&self) -> bool {
        self.dropping
    }

    fn control_law(&self, t: Timestamp) -> Timestamp {
        let step = self.cfg.interval.as_micros() as f64 / (self.count.max(1) as f64).sqrt();
        t + Duration::from_micros(step as u64)
    }

    /// The reference `dodeque`: take the head out of the backlog and
    /// judge its sojourn time. `None` when the queue is empty; otherwise
    /// whether the head may be dropped.
    fn dodeque(&mut self, fifo: &Fifo, now: Timestamp) -> Option<bool> {
        let Some((enqueued, size)) = fifo.head() else {
            self.first_above_time = None;
            return None;
        };
        self.bytes -= u64::from(size);
        let sojourn = now.saturating_since(enqueued);
        let mut ok_to_drop = false;
        if sojourn < self.cfg.target || self.bytes <= MTU_BYTES as u64 {
            self.first_above_time = None;
        } else {
            match self.first_above_time {
                None => {
                    self.first_above_time = Some(now + self.cfg.interval);
                }
                Some(fat) => {
                    if now >= fat {
                        ok_to_drop = true;
                    }
                }
            }
        }
        Some(ok_to_drop)
    }

    /// Admit an arriving packet of `size` bytes; CoDel never drops at the
    /// tail.
    #[inline]
    pub(crate) fn admit(&mut self, size: u32) -> bool {
        self.bytes += u64::from(size);
        true
    }

    /// Pick the next packet to serve at `now`, dropping heads per the
    /// control law while sojourn time stays above target. `true` when a
    /// head is left to serve; it is out of the backlog from here on.
    pub(crate) fn dequeue(&mut self, fifo: &mut Fifo, now: Timestamp) -> bool {
        let mut r = self.dodeque(fifo, now);
        let ok_to_drop = |r: Option<bool>| r == Some(true);
        if self.dropping {
            if !ok_to_drop(r) {
                self.dropping = false;
            } else {
                while self.dropping && now >= self.drop_next {
                    // Drop the judged head and judge the next one.
                    self.count_drop(fifo);
                    self.count += 1;
                    r = self.dodeque(fifo, now);
                    if !ok_to_drop(r) {
                        self.dropping = false;
                    } else {
                        self.drop_next = self.control_law(self.drop_next);
                    }
                }
            }
        } else if ok_to_drop(r) {
            // Enter the dropping state: drop this packet, deliver the next.
            self.count_drop(fifo);
            r = self.dodeque(fifo, now);
            self.dropping = true;
            // Reuse drop frequency from a recent dropping state (the
            // "count decay" refinement from the reference pseudocode).
            let recently = now.saturating_since(self.drop_next) < self.cfg.interval;
            self.count = if self.count > 2 && recently {
                self.count - 2
            } else {
                1
            };
            self.drop_next = self.control_law(now);
        }
        r.is_some()
    }

    /// Drop the head `dodeque` judged droppable.
    fn count_drop(&mut self, fifo: &mut Fifo) {
        let dropped = fifo.pop_head();
        self.drops += 1;
        self.drop_bytes += u64::from(dropped.size);
    }

    /// Bytes currently queued.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Cumulative count of packets CoDel dropped.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Cumulative bytes of the packets CoDel dropped.
    pub fn drop_bytes(&self) -> u64 {
        self.drop_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::packet::Packet;
    use crate::queue::{Bottleneck, Policy};

    /// A default-parameter CoDel queue, driven the way the link drives
    /// it: through the bottleneck's ring.
    fn codel() -> Bottleneck {
        Bottleneck::new(Policy::CoDel(CoDelQueue::new(CoDelConfig::default())))
    }

    fn pkt(seq: u64) -> Packet {
        Packet::opaque(FlowId::PRIMARY, seq, MTU_BYTES)
    }

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn below_target_never_drops() {
        let mut q = codel();
        // Packets sit for < 5 ms: CoDel must behave as plain FIFO.
        for i in 0..100 {
            q.enqueue(pkt(i), t(i * 10));
            let got = q.dequeue(t(i * 10 + 2)).unwrap();
            assert_eq!(got.seq, i);
        }
        assert_eq!(q.drops(), 0);
    }

    #[test]
    fn persistent_standing_queue_triggers_drops() {
        let mut q = codel();
        // Fill a deep queue at time 0, then drain slowly: every packet has
        // a huge sojourn, so after the first interval CoDel must start
        // dropping.
        for i in 0..500 {
            q.enqueue(pkt(i), t(0));
        }
        let mut delivered = 0;
        let mut now_ms = 200; // everything already has 200 ms sojourn
        while q.queued_packets() > 0 {
            if q.dequeue(t(now_ms)).is_some() {
                delivered += 1;
            }
            now_ms += 10;
        }
        assert!(q.drops() > 0, "expected drops from a standing queue");
        assert!(delivered > 0, "must still deliver packets");
        assert_eq!(delivered + q.drops() as usize, 500);
    }

    #[test]
    fn drop_rate_increases_while_above_target() {
        let mut q = codel();
        for i in 0..2_000 {
            q.enqueue(pkt(i), t(0));
        }
        // Drain at a steady slow pace and record inter-drop gaps.
        let mut last_drops = 0;
        let mut drop_times = Vec::new();
        for step in 0..2_000u64 {
            let now = t(500 + step * 5);
            let _ = q.dequeue(now);
            if q.drops() > last_drops {
                last_drops = q.drops();
                drop_times.push(now);
            }
            if q.queued_packets() == 0 {
                break;
            }
        }
        assert!(drop_times.len() >= 3);
        // The control law spaces drops by interval/sqrt(count): gaps shrink.
        let first_gap = drop_times[1].saturating_since(drop_times[0]);
        let last_gap =
            drop_times[drop_times.len() - 1].saturating_since(drop_times[drop_times.len() - 2]);
        assert!(
            last_gap <= first_gap,
            "gaps should not grow: first {first_gap}, last {last_gap}"
        );
    }

    #[test]
    fn leaves_dropping_state_when_queue_clears() {
        let mut q = codel();
        for i in 0..300 {
            q.enqueue(pkt(i), t(0));
        }
        let mut now_ms = 300;
        while q.queued_packets() > 3 {
            let _ = q.dequeue(t(now_ms));
            now_ms += 20;
        }
        // Queue nearly empty → sojourn check sees < MTU of backlog and
        // resets; subsequent fresh traffic must not be dropped.
        for i in 0..50 {
            let now = t(now_ms + i * 20);
            q.enqueue(pkt(1000 + i), now);
            let got = q.dequeue(now + Duration::from_millis(1));
            assert!(got.is_some());
        }
        let Policy::CoDel(inner) = q.policy() else {
            unreachable!("built as CoDel")
        };
        assert!(!inner.in_dropping_state());
    }

    #[test]
    fn empty_queue_returns_none_and_resets() {
        let mut q = codel();
        assert!(q.dequeue(t(100)).is_none());
        assert_eq!(q.bytes(), 0);
        assert_eq!(q.drops(), 0);
    }
}
