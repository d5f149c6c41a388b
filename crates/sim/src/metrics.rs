//! Evaluation metrics (§5.1).
//!
//! * **Throughput**: bytes delivered in the measurement window divided by
//!   its duration.
//! * **95% end-to-end delay**: the 95th percentile, over time, of the
//!   instantaneous-delay function — at any instant, the time since the
//!   most recently *sent* packet that has already *arrived* was sent. Per
//!   the paper's footnote 7, without reordering this function jumps down
//!   to each arriving packet's delay and then grows at 1 s/s until the
//!   next arrival. We compute the percentile exactly from the piecewise-
//!   linear function, never by sampling.
//! * **Self-inflicted delay**: the protocol's 95% delay minus the 95%
//!   delay of an omniscient protocol that sends packets timed to arrive
//!   exactly when the link can take them.
//! * **Utilization** (Fig. 8): delivered bytes over the link's capacity in
//!   the window.
//!
//! All quantities honor the warm-up skip: the paper discards the first
//! minute of each run (§5.1).

use crate::packet::FlowId;
use sprout_trace::{Duration, Timestamp, Trace, MTU_BYTES};

/// One delivered packet, as recorded at the receiving edge of the link.
#[derive(Clone, Copy, Debug)]
pub struct DeliveryRecord {
    /// When the sender handed the packet to the network.
    pub sent_at: Timestamp,
    /// When the packet reached the receiver.
    pub delivered_at: Timestamp,
    /// Bytes on the wire.
    pub size: u32,
    /// Flow the packet belonged to.
    pub flow: FlowId,
}

/// Accumulates the delivery log of one path direction.
#[derive(Clone, Debug, Default)]
pub struct MetricsCollector {
    records: Vec<DeliveryRecord>,
}

impl MetricsCollector {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty collector that records into `log`'s storage: the log is
    /// cleared, its capacity kept.
    pub fn with_log(mut log: Vec<DeliveryRecord>) -> Self {
        log.clear();
        MetricsCollector { records: log }
    }

    /// Give the log's storage back, for the next
    /// [`MetricsCollector::with_log`].
    pub fn into_log(self) -> Vec<DeliveryRecord> {
        self.records
    }

    /// Record a delivery. Must be called in non-decreasing `delivered_at`
    /// order (the event loop guarantees this).
    #[inline]
    pub fn record(&mut self, rec: DeliveryRecord) {
        debug_assert!(self
            .records
            .last()
            .map(|l| l.delivered_at <= rec.delivered_at)
            .unwrap_or(true));
        self.records.push(rec);
    }

    /// All records, in delivery order.
    pub fn records(&self) -> &[DeliveryRecord] {
        &self.records
    }

    /// Bytes delivered with `delivered_at` ∈ `[from, to)`, optionally for
    /// one flow only. The log is in non-decreasing `delivered_at` order
    /// ([`MetricsCollector::record`]'s contract), so the window is a
    /// slice found by binary search — a binned series costs
    /// O(bins · log records + records), not O(bins × records).
    pub fn delivered_bytes(&self, from: Timestamp, to: Timestamp, flow: Option<FlowId>) -> u64 {
        let lo = self.records.partition_point(|r| r.delivered_at < from);
        let hi = lo + self.records[lo..].partition_point(|r| r.delivered_at < to);
        self.records[lo..hi]
            .iter()
            .filter(|r| flow.map(|f| r.flow == f).unwrap_or(true))
            .map(|r| r.size as u64)
            .sum()
    }

    /// Average throughput in kbps over `[from, to)`.
    pub fn throughput_kbps(&self, from: Timestamp, to: Timestamp) -> f64 {
        throughput_kbps_of(self.delivered_bytes(from, to, None), from, to)
    }

    /// Average throughput of one flow in kbps over `[from, to)`.
    pub fn flow_throughput_kbps(&self, flow: FlowId, from: Timestamp, to: Timestamp) -> f64 {
        throughput_kbps_of(self.delivered_bytes(from, to, Some(flow)), from, to)
    }

    /// The instantaneous-delay function restricted to `[from, to)`,
    /// described as linear segments `(segment_length, delay_at_start)`;
    /// within each segment delay grows at 1 s/s, and for the purpose of
    /// this metric only arrivals from `flow` (or all flows) count.
    fn delay_segments(
        &self,
        from: Timestamp,
        to: Timestamp,
        flow: Option<FlowId>,
    ) -> Vec<(Duration, Duration)> {
        let relevant = |r: &&DeliveryRecord| flow.map(|f| r.flow == f).unwrap_or(true);

        // The freshest (max sent_at) packet that arrived before the window
        // opens seeds the function; reordering is handled by tracking the
        // running max of sent_at rather than the last arrival.
        let mut max_sent: Option<Timestamp> = self
            .records
            .iter()
            .filter(relevant)
            .take_while(|r| r.delivered_at < from)
            .map(|r| r.sent_at)
            .max();

        let mut segments = Vec::new();
        let mut cursor = from;
        for r in self
            .records
            .iter()
            .filter(relevant)
            .skip_while(|r| r.delivered_at < from)
            .take_while(|r| r.delivered_at < to)
        {
            match max_sent {
                Some(ms) => {
                    let seg_len = r.delivered_at.saturating_since(cursor);
                    if seg_len > Duration::ZERO {
                        segments.push((seg_len, cursor.saturating_since(ms)));
                    }
                }
                None => {
                    // Nothing had arrived yet: the function is undefined
                    // before the first in-window arrival; start there.
                }
            }
            if max_sent.map(|ms| r.sent_at > ms).unwrap_or(true) {
                max_sent = Some(r.sent_at);
            }
            cursor = r.delivered_at;
        }
        if let Some(ms) = max_sent {
            let seg_len = to.saturating_since(cursor);
            if seg_len > Duration::ZERO {
                segments.push((seg_len, cursor.saturating_since(ms)));
            }
        }
        segments
    }

    /// Exact percentile (0 < pct < 100) over time of the instantaneous
    /// delay in `[from, to)`. `None` if no packet arrives in (or before)
    /// the window.
    pub fn delay_percentile(
        &self,
        pct: f64,
        from: Timestamp,
        to: Timestamp,
        flow: Option<FlowId>,
    ) -> Option<Duration> {
        assert!((0.0..100.0).contains(&pct) && pct > 0.0);
        let segments = self.delay_segments(from, to, flow);
        percentile_of_segments(&segments, pct)
    }

    /// The paper's headline "95% end-to-end delay".
    pub fn p95_delay(&self, from: Timestamp, to: Timestamp) -> Option<Duration> {
        self.delay_percentile(95.0, from, to, None)
    }

    /// 95% end-to-end delay of a single flow (used by the §5.7 tunnel
    /// experiment, which reports Skype's delay separately).
    pub fn flow_p95_delay(&self, flow: FlowId, from: Timestamp, to: Timestamp) -> Option<Duration> {
        self.delay_percentile(95.0, from, to, Some(flow))
    }

    /// Throughput per time bin (for Figure 1's throughput panel).
    pub fn throughput_series_kbps(
        &self,
        bin: Duration,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<(Timestamp, f64)> {
        assert!(bin > Duration::ZERO);
        let mut out = Vec::new();
        let mut start = from;
        while start < to {
            let end = (start + bin).min(to);
            let bytes = self.delivered_bytes(start, end, None);
            out.push((start, throughput_kbps_of(bytes, start, end)));
            start = end;
        }
        out
    }

    /// Per-arrival delay samples (for Figure 1's delay panel).
    pub fn delay_series(&self) -> impl Iterator<Item = (Timestamp, Duration)> + '_ {
        self.records
            .iter()
            .map(|r| (r.delivered_at, r.delivered_at.saturating_since(r.sent_at)))
    }
}

fn throughput_kbps_of(bytes: u64, from: Timestamp, to: Timestamp) -> f64 {
    let secs = to.saturating_since(from).as_secs_f64();
    if secs == 0.0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / secs / 1e3
}

/// Percentile over time of a piecewise function made of segments that each
/// last `len` and ramp linearly from `start_delay` to `start_delay + len`.
fn percentile_of_segments(segments: &[(Duration, Duration)], pct: f64) -> Option<Duration> {
    let total: u64 = segments.iter().map(|(len, _)| len.as_micros()).sum();
    if total == 0 {
        return None;
    }
    let want = (total as f64 * pct / 100.0).ceil() as u64;
    // time_at_or_below(d) is monotone in d: binary-search the percentile.
    let time_at_or_below = |d: u64| -> u64 {
        segments
            .iter()
            .map(|(len, start)| {
                let lo = start.as_micros();
                (d.saturating_sub(lo)).min(len.as_micros())
            })
            .sum()
    };
    let mut lo = 0u64;
    let mut hi = segments
        .iter()
        .map(|(len, start)| start.as_micros() + len.as_micros())
        .max()
        .unwrap_or(0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if time_at_or_below(mid) >= want {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(Duration::from_micros(lo))
}

/// 95% end-to-end delay of the omniscient protocol on `trace` (§5.1): its
/// packets arrive exactly at delivery opportunities after crossing the
/// `prop_delay` wire, so its instantaneous delay is `prop_delay` at each
/// opportunity, growing at 1 s/s until the next one.
pub fn omniscient_delay_percentile(
    trace: &Trace,
    prop_delay: Duration,
    pct: f64,
    from: Timestamp,
    to: Timestamp,
) -> Option<Duration> {
    let ops = trace.opportunities();
    let lo = ops.partition_point(|&t| t < from);
    let hi = ops.partition_point(|&t| t < to);
    if lo >= hi {
        return None;
    }
    let mut segments = Vec::with_capacity(hi - lo + 2);
    // If an opportunity gap straddles the window start, the instantaneous
    // delay is already ramping when measurement begins: continue it from
    // the last pre-window opportunity, exactly as the measured-delay
    // estimator (`delay_segments`) seeds itself from pre-window arrivals.
    // Skipping this prefix would understate the floor and turn an outage
    // at the warmup boundary into phantom self-inflicted delay.
    if lo > 0 && ops[lo] > from {
        let last_before = ops[lo - 1];
        segments.push((
            ops[lo].saturating_since(from),
            prop_delay + from.saturating_since(last_before),
        ));
    }
    let mut cursor = ops[lo];
    for &t in &ops[lo + 1..hi] {
        if t > cursor {
            segments.push((t - cursor, prop_delay));
            cursor = t;
        }
    }
    if to > cursor + Duration::ZERO {
        segments.push((to.saturating_since(cursor), prop_delay));
    }
    percentile_of_segments(&segments, pct)
}

/// The omniscient 95% end-to-end delay (the self-inflicted-delay baseline).
pub fn omniscient_p95_delay(
    trace: &Trace,
    prop_delay: Duration,
    from: Timestamp,
    to: Timestamp,
) -> Option<Duration> {
    omniscient_delay_percentile(trace, prop_delay, 95.0, from, to)
}

/// Self-inflicted delay: protocol p95 minus omniscient p95, floored at 0.
pub fn self_inflicted_delay(protocol_p95: Duration, omniscient_p95: Duration) -> Duration {
    protocol_p95.saturating_sub(omniscient_p95)
}

/// Jain's fairness index over per-flow allocations (throughputs):
/// `J = (Σxᵢ)² / (n · Σxᵢ²)`, ranging from `1/n` (one flow hogs
/// everything) to `1.0` (perfectly equal shares). Conventions:
///
/// * `None` for an empty slice — fairness of nothing is undefined;
/// * `Some(1.0)` when every allocation is zero (equal, if degenerate —
///   a cell whose flows all starved is "fair" in Jain's sense, and the
///   throughput column next to it makes the starvation obvious);
/// * non-finite or negative allocations are rejected with `None`
///   rather than silently skewing the index.
pub fn jain_fairness_index(allocations: &[f64]) -> Option<f64> {
    if allocations.is_empty() || allocations.iter().any(|x| !x.is_finite() || *x < 0.0) {
        return None;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return Some(1.0);
    }
    Some(sum * sum / (allocations.len() as f64 * sum_sq))
}

/// Link utilization over `[from, to)`: delivered bytes / capacity bytes.
pub fn utilization(delivered_bytes: u64, trace: &Trace, from: Timestamp, to: Timestamp) -> f64 {
    let cap = trace.opportunities_between(from, to) as u64 * MTU_BYTES as u64;
    if cap == 0 {
        return 0.0;
    }
    delivered_bytes as f64 / cap as f64
}

/// Graceful-degradation summary of one direction under fault injection
/// (all `None`/zero when the link had no outages in the window).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DegradationStats {
    /// Outage windows intersecting the measurement window.
    pub outage_count: u32,
    /// Worst-case post-outage recovery time: for each outage ending
    /// inside the window, the time from the link's return until
    /// end-to-end delay first re-enters the cell's 95th-percentile
    /// target; an outage whose delay never re-enters contributes the
    /// remaining window length (a lower bound), so the metric is always
    /// finite when an outage ends in-window. `None` when no outage ends
    /// inside the window.
    pub recovery: Option<Duration>,
    /// Fraction of link capacity delivered while degraded (inside an
    /// outage or its recovery tail). `None` when the degraded intervals
    /// contain no capacity.
    pub degraded_delivered_fraction: Option<f64>,
}

/// Compute [`DegradationStats`] for one direction over `[from, to)`.
///
/// `outages` is the link's injected outage schedule (non-overlapping,
/// sorted); `target` is the delay bar that defines "recovered" —
/// conventionally the direction's own p95 over the same window. With no
/// deliveries (`target == None`) every outage counts as unrecovered for
/// the remainder of the window.
pub fn degradation_stats(
    m: &MetricsCollector,
    trace: &Trace,
    outages: &[(Timestamp, Timestamp)],
    from: Timestamp,
    to: Timestamp,
    target: Option<Duration>,
) -> DegradationStats {
    let relevant: Vec<(Timestamp, Timestamp)> = outages
        .iter()
        .copied()
        .filter(|&(start, end)| start < to && end > from)
        .collect();
    if relevant.is_empty() {
        return DegradationStats::default();
    }
    let records = m.records();
    let mut worst_recovery: Option<Duration> = None;
    let mut degraded_delivered: u64 = 0;
    let mut degraded_capacity: u64 = 0;
    for (i, &(start, end)) in relevant.iter().enumerate() {
        // Degraded interval: the outage itself plus the recovery tail,
        // clamped to the measurement window and to the next outage's
        // start (whose own interval covers from there).
        let next_start = relevant.get(i + 1).map(|w| w.0).unwrap_or(to);
        let recovered_at = if end >= to {
            to // the outage never ends in-window: degraded to the end
        } else {
            let idx = records.partition_point(|r| r.delivered_at < end);
            let re_entry = target.and_then(|bar| {
                records[idx..]
                    .iter()
                    .find(|r| r.delivered_at.saturating_since(r.sent_at) <= bar)
                    .map(|r| r.delivered_at)
            });
            let recovered_at = re_entry.unwrap_or(to).min(to);
            let recovery = recovered_at.saturating_since(end);
            worst_recovery = Some(worst_recovery.map_or(recovery, |w| w.max(recovery)));
            recovered_at
        };
        let deg_from = start.max(from);
        let deg_to = recovered_at.min(to).min(next_start);
        if deg_to > deg_from {
            degraded_delivered += m.delivered_bytes(deg_from, deg_to, None);
            degraded_capacity +=
                trace.opportunities_between(deg_from, deg_to) as u64 * MTU_BYTES as u64;
        }
    }
    DegradationStats {
        outage_count: relevant.len() as u32,
        recovery: worst_recovery,
        degraded_delivered_fraction: if degraded_capacity > 0 {
            Some(degraded_delivered as f64 / degraded_capacity as f64)
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn d(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    fn rec(sent_ms: u64, delivered_ms: u64) -> DeliveryRecord {
        DeliveryRecord {
            sent_at: t(sent_ms),
            delivered_at: t(delivered_ms),
            size: MTU_BYTES,
            flow: FlowId::PRIMARY,
        }
    }

    #[test]
    fn degradation_stats_measures_recovery_and_degraded_delivery() {
        // Steady 30 ms-delay stream, an outage at [1s, 2s), a spike of
        // delayed deliveries afterwards, then delay re-enters the target.
        let mut m = MetricsCollector::new();
        for i in 0..100 {
            m.record(rec(i * 10, i * 10 + 30)); // up to 1.02 s
        }
        // Post-outage drain: packets sent during the outage arrive late.
        m.record(rec(1_100, 2_050));
        m.record(rec(1_200, 2_100));
        m.record(rec(2_170, 2_200)); // delay 30 ms: recovered at 2.2 s
        for i in 0..50 {
            m.record(rec(2_300 + i * 10, 2_330 + i * 10));
        }
        let trace = Trace::from_millis((0..300).map(|i| i * 10));
        let outages = [(t(1_000), t(2_000))];
        let stats = degradation_stats(&m, &trace, &outages, t(0), t(3_000), Some(d(100)));
        assert_eq!(stats.outage_count, 1);
        assert_eq!(stats.recovery, Some(d(200)), "recovered at 2.2 s");
        // Degraded interval [1.0 s, 2.2 s): 120 opportunities of capacity;
        // 5 packets delivered inside it (the stream's tail at 1.00–1.02 s
        // plus the two late drain packets; the 2.2 s one is excluded by
        // the half-open interval).
        let frac = stats.degraded_delivered_fraction.unwrap();
        assert!((frac - 5.0 / 120.0).abs() < 1e-9, "fraction {frac}");
        // No outage in window → all-default stats.
        assert_eq!(
            degradation_stats(&m, &trace, &[], t(0), t(3_000), Some(d(100))),
            DegradationStats::default()
        );
        // Outage that never ends in-window: clamped, not ignored.
        let open = degradation_stats(&m, &trace, &[(t(2_500), t(9_000))], t(0), t(3_000), None);
        assert_eq!(open.outage_count, 1);
        assert_eq!(open.recovery, None, "no post-outage period in window");
    }

    #[test]
    fn unrecovered_outage_counts_remaining_window() {
        // Delay never re-enters the target after the outage.
        let mut m = MetricsCollector::new();
        m.record(rec(0, 30));
        m.record(rec(500, 2_500)); // 2 s delay, way above target
        let trace = Trace::from_millis((0..300).map(|i| i * 10));
        let stats = degradation_stats(
            &m,
            &trace,
            &[(t(1_000), t(1_200))],
            t(0),
            t(3_000),
            Some(d(100)),
        );
        assert_eq!(stats.outage_count, 1);
        assert_eq!(
            stats.recovery,
            Some(t(3_000) - t(1_200)),
            "unrecovered outages are charged to the window end"
        );
    }

    #[test]
    fn throughput_counts_window_bytes() {
        let mut m = MetricsCollector::new();
        m.record(rec(0, 100));
        m.record(rec(50, 200));
        m.record(rec(100, 1_100)); // outside [0, 1000)
                                   // 2 × 1500 B × 8 / 1 s = 24 kbps.
        assert!((m.throughput_kbps(t(0), t(1_000)) - 24.0).abs() < 1e-9);
    }

    #[test]
    fn constant_delay_stream_has_that_delay_at_p95ish() {
        // Packets sent every 10 ms, each delayed 30 ms: the delay function
        // oscillates in [30, 40] ms, so p95 ≈ 39.5 ms.
        let mut m = MetricsCollector::new();
        for i in 0..1_000 {
            m.record(rec(i * 10, i * 10 + 30));
        }
        let p95 = m.p95_delay(t(0), t(10_030)).unwrap();
        assert!(p95 >= d(38) && p95 <= d(40), "expected ~39.5 ms, got {p95}");
    }

    #[test]
    fn delay_grows_across_gaps() {
        // One packet at 100 ms (delay 20 ms) then silence until 5.1 s.
        // Just before the second arrival the delay reaches 20 + 5000 ms.
        let mut m = MetricsCollector::new();
        m.record(rec(80, 100));
        m.record(rec(5_080, 5_100));
        // p99.9 over [0, 5.2 s): dominated by the tail of the long ramp.
        let p999 = m.delay_percentile(99.9, t(0), t(5_200), None).unwrap();
        assert!(p999 > d(4_900), "got {p999}");
        // Median is near half the ramp.
        let p50 = m.delay_percentile(50.0, t(0), t(5_200), None).unwrap();
        assert!(p50 > d(2_000) && p50 < d(3_000), "got {p50}");
    }

    #[test]
    fn reordering_uses_most_recently_sent_arrived_packet() {
        // A stale packet (sent at 0) arrives *after* a fresh one (sent at
        // 90): the stale arrival must not reset the delay function upward.
        let mut m = MetricsCollector::new();
        m.record(rec(90, 100));
        m.record(rec(0, 110)); // late straggler
        m.record(rec(190, 200));
        let p95 = m.p95_delay(t(100), t(200)).unwrap();
        // Delay at 100 ms is 10 ms, grows to 110 ms just before 200 ms:
        // p95 = 10 + 0.95*100 = 105 ms. With the bug (resetting to the
        // straggler) it would exceed 110 ms immediately at t=110.
        assert!(p95 > d(100) && p95 <= d(106), "got {p95}");
    }

    #[test]
    fn window_with_no_arrivals_is_none() {
        let m = MetricsCollector::new();
        assert_eq!(m.p95_delay(t(0), t(1_000)), None);
    }

    #[test]
    fn arrivals_before_window_seed_the_function() {
        let mut m = MetricsCollector::new();
        m.record(rec(0, 20));
        // Window [1 s, 2 s): no arrivals inside, delay ramps from 1 s to 2 s.
        let p50 = m.delay_percentile(50.0, t(1_000), t(2_000), None).unwrap();
        assert!(p50 >= d(1_480) && p50 <= d(1_520), "got {p50}");
    }

    #[test]
    fn omniscient_delay_on_regular_trace_is_prop_plus_gap_tail() {
        // Opportunities every 100 ms, prop 20 ms: delay ramps 20→120 ms;
        // p95 = 20 + 95 = 115 ms.
        let trace = Trace::from_millis((0..100).map(|i| i * 100));
        let p95 = omniscient_p95_delay(&trace, d(20), t(0), t(9_900)).unwrap();
        assert!(p95 >= d(114) && p95 <= d(116), "got {p95}");
    }

    #[test]
    fn omniscient_outage_dominates_tail() {
        // Dense opportunities except a 5 s hole: the p95 is pulled up by
        // the hole (the paper's point: even omniscient protocols suffer
        // outage delay).
        let mut ms: Vec<u64> = (0..1_000).map(|i| i * 10).collect(); // 0..10 s
        ms.extend((1_500..2_500).map(|i| i * 10)); // 15 s .. 25 s
        let trace = Trace::from_millis(ms);
        let p95 = omniscient_p95_delay(&trace, d(20), t(0), t(25_000)).unwrap();
        assert!(p95 > d(1_000), "outage must lift p95, got {p95}");
    }

    #[test]
    fn self_inflicted_is_difference_floored() {
        assert_eq!(self_inflicted_delay(d(500), d(120)), d(380));
        assert_eq!(self_inflicted_delay(d(100), d(120)), Duration::ZERO);
    }

    #[test]
    fn utilization_is_fraction_of_capacity() {
        let trace = Trace::from_millis((0..100).map(|i| i * 10));
        // 100 opportunities = 150000 B capacity; deliver half.
        let u = utilization(75_000, &trace, t(0), t(1_000));
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn jain_index_is_one_for_equal_flows() {
        for n in 1..=8 {
            let equal = vec![250.0; n];
            let j = jain_fairness_index(&equal).unwrap();
            assert!((j - 1.0).abs() < 1e-12, "n={n} equal flows, got {j}");
        }
    }

    #[test]
    fn jain_index_one_hog_hits_the_lower_bound() {
        // One flow takes everything: J = 1/n, the index's minimum.
        for n in 2..=8 {
            let mut hog = vec![0.0; n];
            hog[0] = 1000.0;
            let j = jain_fairness_index(&hog).unwrap();
            assert!((j - 1.0 / n as f64).abs() < 1e-12, "n={n}, got {j}");
        }
        // And every mix stays within [1/n, 1].
        let mixed = [900.0, 50.0, 25.0, 25.0];
        let j = jain_fairness_index(&mixed).unwrap();
        assert!(j > 0.25 && j < 1.0, "got {j}");
    }

    #[test]
    fn jain_index_edge_cases() {
        assert_eq!(jain_fairness_index(&[]), None, "empty is undefined");
        assert_eq!(
            jain_fairness_index(&[0.0, 0.0, 0.0]),
            Some(1.0),
            "all-zero flows are (degenerately) equal"
        );
        assert_eq!(jain_fairness_index(&[1.0, f64::NAN]), None);
        assert_eq!(jain_fairness_index(&[1.0, f64::INFINITY]), None);
        assert_eq!(jain_fairness_index(&[1.0, -1.0]), None);
        // The index is scale-invariant.
        let a = jain_fairness_index(&[1.0, 2.0, 3.0]).unwrap();
        let b = jain_fairness_index(&[100.0, 200.0, 300.0]).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn flow_filtering_separates_flows() {
        let mut m = MetricsCollector::new();
        let mut r1 = rec(0, 100);
        r1.flow = FlowId(1);
        let mut r2 = rec(0, 200);
        r2.flow = FlowId(2);
        m.record(r1);
        m.record(r2);
        assert_eq!(m.delivered_bytes(t(0), t(1_000), Some(FlowId(1))), 1_500);
        assert_eq!(m.delivered_bytes(t(0), t(1_000), None), 3_000);
        assert!(m.flow_p95_delay(FlowId(1), t(0), t(1_000)).is_some());
        assert!(m.flow_p95_delay(FlowId(9), t(0), t(1_000)).is_none());
    }

    #[test]
    fn delivered_bytes_window_matches_the_filter_form() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The definition, as a scan of the whole log.
        let by_filter = |m: &MetricsCollector, from, to, flow: Option<FlowId>| -> u64 {
            m.records()
                .iter()
                .filter(|r| r.delivered_at >= from && r.delivered_at < to)
                .filter(|r| flow.map(|f| r.flow == f).unwrap_or(true))
                .map(|r| r.size as u64)
                .sum()
        };
        let mut rng = StdRng::seed_from_u64(19);
        for case in 0..200 {
            // Non-decreasing delivery times with ties (step 0) and gaps;
            // every 20th log is empty.
            let len = if case % 20 == 0 {
                0
            } else {
                rng.gen_range(1..120u32)
            };
            let mut m = MetricsCollector::new();
            let mut at = rng.gen_range(0..50u64);
            for _ in 0..len {
                at += [0, 0, 1, 7, 40][rng.gen_range(0..5usize)];
                m.record(DeliveryRecord {
                    sent_at: t(0),
                    delivered_at: t(at),
                    size: rng.gen_range(40..1_501u32),
                    flow: FlowId(rng.gen_range(1..4u32)),
                });
            }
            // Windows inside, straddling, before and after the log,
            // empty (`from == to`) and inverted (`from > to`).
            for _ in 0..30 {
                let from = t(rng.gen_range(0..at + 60));
                let to = t(rng.gen_range(0..at + 60));
                for flow in [None, Some(FlowId(2)), Some(FlowId(9))] {
                    assert_eq!(
                        m.delivered_bytes(from, to, flow),
                        by_filter(&m, from, to, flow),
                        "case {case}: [{from}, {to}) flow {flow:?}"
                    );
                }
            }
            assert_eq!(
                m.delivered_bytes(Timestamp::ZERO, Timestamp::FAR_FUTURE, None),
                m.records().iter().map(|r| r.size as u64).sum::<u64>()
            );
        }
    }

    #[test]
    fn throughput_series_has_expected_bins() {
        let mut m = MetricsCollector::new();
        for i in 0..10 {
            m.record(rec(i * 100, i * 100 + 20));
        }
        let series = m.throughput_series_kbps(d(500), t(0), t(1_000));
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|(_, kbps)| *kbps > 0.0));
    }

    #[test]
    fn percentile_of_segments_handles_flat_segments() {
        // Two segments: 900 ms ramping from delay 10 ms, then 100 ms
        // ramping from delay 1000 ms. Cumulative time-below-D is piecewise
        // linear: p50 ⇒ 500 ms of time at or below D ⇒ D = 510 ms.
        let segs = vec![(d(900), d(10)), (d(100), d(1_000))];
        let p50 = percentile_of_segments(&segs, 50.0).unwrap();
        assert!(p50 >= d(509) && p50 <= d(511), "got {p50}");
        let p99 = percentile_of_segments(&segs, 99.0).unwrap();
        assert!(p99 >= d(1_089) && p99 <= d(1_091), "got {p99}");
    }
}
