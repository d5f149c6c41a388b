//! The in-memory representation of a cellular link trace.
//!
//! A trace is the ground truth the Saturator records (§4.1): the sequence of
//! times at which the link was able to transmit one MTU-sized packet. The
//! emulator replays these as *delivery opportunities* — whatever bytes are
//! queued when an opportunity fires are released, up to one MTU per
//! opportunity; opportunities that find an empty queue are wasted (§4.2).

use std::sync::Arc;

use crate::time::{Duration, Timestamp, MTU_BYTES};

/// A recorded (or synthesized) cellular link trace: a non-decreasing list of
/// delivery-opportunity timestamps. Several opportunities may share the same
/// millisecond on fast links.
///
/// The list is immutable shared storage: `clone()` is a reference count,
/// so every cell, path and cursor replaying one link holds the same
/// allocation. Equality compares the timestamps, not the storage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Delivery opportunities, in non-decreasing order.
    opportunities: Arc<[Timestamp]>,
}

impl Trace {
    /// Build a trace from raw opportunity timestamps. The list is sorted if
    /// it is not already in order.
    pub fn new(mut opportunities: Vec<Timestamp>) -> Self {
        if !opportunities.windows(2).all(|w| w[0] <= w[1]) {
            opportunities.sort_unstable();
        }
        Trace {
            opportunities: opportunities.into(),
        }
    }

    /// Build a trace from opportunity times given in milliseconds (the
    /// Saturator file unit).
    pub fn from_millis(ms: impl IntoIterator<Item = u64>) -> Self {
        Trace::new(ms.into_iter().map(Timestamp::from_millis).collect())
    }

    /// The delivery opportunities, in order.
    pub fn opportunities(&self) -> &[Timestamp] {
        &self.opportunities
    }

    /// Number of delivery opportunities (i.e. MTU-sized packets the link
    /// could have carried).
    pub fn len(&self) -> usize {
        self.opportunities.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.opportunities.is_empty()
    }

    /// Time of the last opportunity — the usable length of the trace.
    pub fn duration(&self) -> Duration {
        self.opportunities
            .last()
            .map(|t| t.saturating_since(Timestamp::ZERO))
            .unwrap_or(Duration::ZERO)
    }

    /// Total bytes the link could have carried (opportunities × MTU).
    pub fn capacity_bytes(&self) -> u64 {
        self.len() as u64 * MTU_BYTES as u64
    }

    /// Average capacity in bits per second over the whole trace.
    pub fn average_rate_bps(&self) -> f64 {
        let secs = self.duration().as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.capacity_bytes() as f64 * 8.0 / secs
    }

    /// Average capacity in kilobits per second (the paper's reporting unit).
    pub fn average_rate_kbps(&self) -> f64 {
        self.average_rate_bps() / 1e3
    }

    /// Truncate the trace to `limit`, dropping opportunities at or after it.
    pub fn truncated(&self, limit: Timestamp) -> Trace {
        let end = self.opportunities.partition_point(|&t| t < limit);
        Trace {
            opportunities: self.opportunities[..end].into(),
        }
    }

    /// The sub-trace within `[from, to)`, re-based so `from` becomes t=0.
    pub fn window(&self, from: Timestamp, to: Timestamp) -> Trace {
        let lo = self.opportunities.partition_point(|&t| t < from);
        let hi = self.opportunities.partition_point(|&t| t < to);
        Trace {
            opportunities: self.opportunities[lo..hi]
                .iter()
                .map(|&t| Timestamp::from_micros(t.as_micros() - from.as_micros()))
                .collect(),
        }
    }

    /// Capacity in each consecutive bin of width `bin`, in kbps — the
    /// "Capacity" staircase of Figure 1.
    pub fn capacity_series_kbps(&self, bin: Duration) -> Vec<f64> {
        assert!(bin > Duration::ZERO, "bin width must be positive");
        let total = self.duration();
        let nbins = (total.as_micros() / bin.as_micros() + 1) as usize;
        let mut counts = vec![0u64; nbins];
        for &t in self.opportunities.iter() {
            let idx = (t.as_micros() / bin.as_micros()) as usize;
            counts[idx] += 1;
        }
        let bin_secs = bin.as_secs_f64();
        counts
            .into_iter()
            .map(|c| c as f64 * MTU_BYTES as f64 * 8.0 / bin_secs / 1e3)
            .collect()
    }

    /// Interarrival gaps between consecutive opportunities.
    pub fn interarrivals(&self) -> impl Iterator<Item = Duration> + '_ {
        self.opportunities.windows(2).map(|w| w[1] - w[0])
    }

    /// Count of opportunities in `[from, to)`.
    pub fn opportunities_between(&self, from: Timestamp, to: Timestamp) -> usize {
        let lo = self.opportunities.partition_point(|&t| t < from);
        let hi = self.opportunities.partition_point(|&t| t < to);
        hi - lo
    }
}

/// Cursor over a trace used by the emulator: yields opportunities in order
/// and remembers its position, so replay is O(1) amortized per event.
#[derive(Clone, Debug)]
pub struct TraceCursor {
    trace: Trace,
    next: usize,
}

impl TraceCursor {
    /// Start replaying `trace` from its beginning.
    pub fn new(trace: Trace) -> Self {
        TraceCursor { trace, next: 0 }
    }

    /// Timestamp of the next unconsumed delivery opportunity.
    pub fn peek(&self) -> Option<Timestamp> {
        self.trace.opportunities().get(self.next).copied()
    }

    /// Consume and return the next opportunity if it is at or before `now`.
    pub fn pop_due(&mut self, now: Timestamp) -> Option<Timestamp> {
        match self.peek() {
            Some(t) if t <= now => {
                self.next += 1;
                Some(t)
            }
            _ => None,
        }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn new_sorts_out_of_order_input() {
        let tr = Trace::new(vec![t(30), t(10), t(20)]);
        assert_eq!(tr.opportunities(), &[t(10), t(20), t(30)]);
    }

    #[test]
    fn clone_shares_storage_and_derived_traces_do_not() {
        let tr = Trace::from_millis([100, 200, 300]);
        let copy = tr.clone();
        assert!(std::ptr::eq(tr.opportunities(), copy.opportunities()));
        // Equality is by timestamps, not by storage.
        let rebuilt = Trace::from_millis([100, 200, 300]);
        assert!(!std::ptr::eq(tr.opportunities(), rebuilt.opportunities()));
        assert_eq!(tr, rebuilt);
        assert_ne!(tr, tr.truncated(t(300)));
        assert_eq!(tr.truncated(t(301)), tr);
    }

    #[test]
    fn capacity_and_rate() {
        // 10 opportunities over 1 second: 10 * 1500 * 8 bits / 1 s = 120 kbps.
        let tr = Trace::from_millis((1..=10).map(|i| i * 100));
        assert_eq!(tr.len(), 10);
        assert_eq!(tr.capacity_bytes(), 15_000);
        assert!((tr.average_rate_kbps() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let tr = Trace::new(vec![]);
        assert!(tr.is_empty());
        assert_eq!(tr.duration(), Duration::ZERO);
        assert_eq!(tr.average_rate_bps(), 0.0);
        assert!(tr.capacity_series_kbps(Duration::from_millis(100)).len() <= 1);
    }

    #[test]
    fn window_rebases_to_zero() {
        let tr = Trace::from_millis([100, 200, 300, 400]);
        let w = tr.window(t(150), t(350));
        assert_eq!(w.opportunities(), &[t(50), t(150)]);
    }

    #[test]
    fn truncated_is_strictly_before_limit() {
        let tr = Trace::from_millis([100, 200, 300]);
        assert_eq!(tr.truncated(t(300)).len(), 2);
        assert_eq!(tr.truncated(t(301)).len(), 3);
    }

    #[test]
    fn capacity_series_bins_correctly() {
        // 2 opportunities in [0,1s), 1 in [1s,2s).
        let tr = Trace::from_millis([100, 900, 1500]);
        let series = tr.capacity_series_kbps(Duration::from_secs(1));
        assert_eq!(series.len(), 2);
        assert!((series[0] - 24.0).abs() < 1e-9); // 2*1500*8/1e3
        assert!((series[1] - 12.0).abs() < 1e-9);
    }

    #[test]
    fn cursor_pops_in_order_and_respects_now() {
        let tr = Trace::from_millis([10, 20, 20, 30]);
        let mut c = TraceCursor::new(tr);
        assert_eq!(c.pop_due(t(5)), None);
        assert_eq!(c.pop_due(t(20)), Some(t(10)));
        assert_eq!(c.pop_due(t(20)), Some(t(20)));
        assert_eq!(c.pop_due(t(20)), Some(t(20)));
        assert_eq!(c.pop_due(t(20)), None);
        assert_eq!(c.peek(), Some(t(30)));
        assert_eq!(c.pop_due(t(1000)), Some(t(30)));
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn interarrivals_are_gaps() {
        let tr = Trace::from_millis([10, 30, 60]);
        let gaps: Vec<u64> = tr.interarrivals().map(|d| d.as_millis()).collect();
        assert_eq!(gaps, vec![20, 30]);
    }

    #[test]
    fn opportunities_between_is_half_open() {
        let tr = Trace::from_millis([10, 20, 30]);
        assert_eq!(tr.opportunities_between(t(10), t(30)), 2);
        assert_eq!(tr.opportunities_between(t(0), t(100)), 3);
        assert_eq!(tr.opportunities_between(t(31), t(100)), 0);
    }
}
