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
    pub const fn new() -> Self {
        MetricsCollector {
            records: Vec::new(),
        }
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

    /// Exact percentile (0 < pct < 100) over time of the instantaneous
    /// delay in `[from, to)`. `None` if no packet arrives in (or before)
    /// the window. Computed by counting over the log in place: nothing
    /// proportional to the log is copied.
    pub fn delay_percentile(
        &self,
        pct: f64,
        from: Timestamp,
        to: Timestamp,
        flow: Option<FlowId>,
    ) -> Option<Duration> {
        assert!((0.0..100.0).contains(&pct) && pct > 0.0);
        percentile_of_ramps(&LogRamps::new(&self.records, from, to, flow), pct)
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

/// An instantaneous-delay function over a window, as the linear ramps it
/// is made of: on a ramp the delay starts at `start` µs and grows at 1 s/s
/// for `len` µs. A reduction of the function is a pass over its ramps;
/// no ramp is ever stored.
trait Ramps {
    /// An upper bound on every ramp's end, `start + len`.
    fn bound(&self) -> u64;

    /// Call `f(start, len)` for every ramp, in time order. Every `len` is
    /// nonzero.
    fn each(&self, f: impl FnMut(u64, u64));
}

/// The ramps of a delivery log over `[from, to)`, counting only arrivals
/// of `flow` (or of all flows). At any instant the delay is the time since
/// the freshest (largest `sent_at`) packet that has already arrived was
/// sent, so a stale packet arriving late never resets it upward. Before
/// the first arrival the function is undefined, unless one arrived before
/// the window: then it is already ramping when the window opens.
struct LogRamps<'a> {
    /// The deliveries with `delivered_at` ∈ `[from, to)`, all flows.
    window: &'a [DeliveryRecord],
    flow: Option<FlowId>,
    /// The freshest `sent_at` among the counted arrivals before `from`.
    seed: Option<Timestamp>,
    from: Timestamp,
    to: Timestamp,
}

impl<'a> LogRamps<'a> {
    fn new(
        records: &'a [DeliveryRecord],
        from: Timestamp,
        to: Timestamp,
        flow: Option<FlowId>,
    ) -> Self {
        let lo = records.partition_point(|r| r.delivered_at < from);
        let hi = lo + records[lo..].partition_point(|r| r.delivered_at < to);
        let seed = records[..lo]
            .iter()
            .filter(|r| counts(flow, r))
            .map(|r| r.sent_at)
            .max();
        LogRamps {
            window: &records[lo..hi],
            flow,
            seed,
            from,
            to,
        }
    }
}

fn counts(flow: Option<FlowId>, r: &DeliveryRecord) -> bool {
    flow.is_none_or(|f| r.flow == f)
}

impl Ramps for LogRamps<'_> {
    /// The delay at `t` is at most `t`: nothing is sent before time zero.
    fn bound(&self) -> u64 {
        self.to.as_micros()
    }

    fn each(&self, mut f: impl FnMut(u64, u64)) {
        let mut freshest = self.seed;
        let mut cursor = self.from;
        for r in self.window.iter().filter(|r| counts(self.flow, r)) {
            if let Some(sent) = freshest {
                let len = r.delivered_at.saturating_since(cursor).as_micros();
                if len > 0 {
                    f(cursor.saturating_since(sent).as_micros(), len);
                }
            }
            if freshest.is_none_or(|sent| r.sent_at > sent) {
                freshest = Some(r.sent_at);
            }
            cursor = r.delivered_at;
        }
        if let Some(sent) = freshest {
            let len = self.to.saturating_since(cursor).as_micros();
            if len > 0 {
                f(cursor.saturating_since(sent).as_micros(), len);
            }
        }
    }
}

/// The ramps of the omniscient protocol's delay over `[from, to)`: its
/// packets arrive exactly at the delivery opportunities `ops` (those in
/// the window) after crossing the `prop` µs wire, so the delay is `prop`
/// at each opportunity and grows until the next one.
struct OpportunityRamps<'a> {
    ops: &'a [Timestamp],
    /// The last opportunity before the window, when a gap straddles the
    /// window start: the delay is then already ramping at `from`.
    before: Option<Timestamp>,
    prop: u64,
    from: Timestamp,
    to: Timestamp,
}

impl Ramps for OpportunityRamps<'_> {
    fn bound(&self) -> u64 {
        self.prop.saturating_add(self.to.as_micros())
    }

    fn each(&self, mut f: impl FnMut(u64, u64)) {
        if let Some(last) = self.before {
            f(
                self.prop + self.from.saturating_since(last).as_micros(),
                self.ops[0].saturating_since(self.from).as_micros(),
            );
        }
        let mut cursor = self.ops[0];
        for &t in &self.ops[1..] {
            if t > cursor {
                f(self.prop, (t - cursor).as_micros());
                cursor = t;
            }
        }
        if self.to > cursor {
            f(self.prop, (self.to - cursor).as_micros());
        }
    }
}

/// log2 of the first pass's buckets per octave of delay: a bucket is at
/// most 1/128 as wide as the delays it holds.
const OCTAVE_BITS: u32 = 7;

/// The most breakpoints the second pass collects from its one bucket.
const MAX_BREAKPOINTS: usize = 4096;

/// The first pass's bucket of delay `v` µs. Delays below 256 µs get a
/// bucket each; above, each octave `[2^k, 2^(k+1))` is split into 128
/// equal buckets.
fn bucket_of(v: u64) -> usize {
    let shift = (63 - (v | 1).leading_zeros()).saturating_sub(OCTAVE_BITS);
    ((shift as usize) << OCTAVE_BITS) + (v >> shift) as usize
}

/// The first delay of bucket `i`, and log2 of its width.
fn bucket_start(i: usize) -> (u64, u32) {
    let shift = ((i >> OCTAVE_BITS) as u32).saturating_sub(1);
    (
        ((i - ((shift as usize) << OCTAVE_BITS)) as u64) << shift,
        shift,
    )
}

/// How the ramps spend time in one bucket of delay: `partial` µs from the
/// ramps that start or end inside it, plus the whole bucket once for each
/// ramp that spans it (`spans`, kept as a difference: +1 in the bucket
/// after the ramp's first, −1 in its last).
#[derive(Clone, Copy, Default)]
struct Bucket {
    partial: u64,
    spans: i64,
}

/// Exact percentile over time of the delay function made of `ramps`: the
/// smallest whole µs `d` at which the time spent at or below `d`,
/// `F(d) = Σ clamp(d − start, 0, len)`, reaches `⌈total · pct / 100⌉`.
/// `None` when the ramps cover no time.
///
/// One pass buckets the ramps by delay, which gives `F` exactly at every
/// bucket boundary and so the bucket holding the answer; a second pass
/// resolves the answer inside that bucket ([`refine`]). Memory is the
/// bucket array — a few thousand entries, set by the largest possible
/// delay — never proportional to the ramps.
fn percentile_of_ramps(ramps: &impl Ramps, pct: f64) -> Option<Duration> {
    let mut buckets = vec![Bucket::default(); bucket_of(ramps.bound()) + 1];
    let mut total = 0u64;
    ramps.each(|start, len| {
        total += len;
        let end = start.saturating_add(len);
        let (first, last) = (bucket_of(start), bucket_of(end - 1));
        if first == last {
            buckets[first].partial += len;
        } else {
            buckets[first].partial += bucket_start(first + 1).0 - start;
            buckets[last].partial += end - bucket_start(last).0;
            buckets[first + 1].spans += 1;
            buckets[last].spans -= 1;
        }
    });
    if total == 0 {
        return None;
    }
    let want = (total as f64 * pct / 100.0).ceil() as u64;
    if want == 0 {
        return Some(Duration::ZERO);
    }
    // F at each bucket's upper boundary, until it reaches `want`.
    let (mut below, mut spans) = (0u64, 0i64);
    for (i, bucket) in buckets.iter().enumerate() {
        spans += bucket.spans;
        let (lo, shift) = bucket_start(i);
        let at_end = below + bucket.partial + ((spans as u64) << shift);
        if at_end >= want {
            let hi = lo.saturating_add(1 << shift);
            return Some(Duration::from_micros(if shift == 0 {
                hi
            } else {
                refine(ramps, lo, hi, below, want)
            }));
        }
        below = at_end;
    }
    unreachable!("F reaches the total at the ramps' bound")
}

/// The smallest whole `d` in `(lo, hi]` with `F(d) ≥ want`, given
/// `F(lo) = below < want ≤ F(hi)`. One pass collects the breakpoints the
/// ramps have strictly inside the bucket — `F` is linear between them —
/// and walks them in order. A bucket holding more than
/// [`MAX_BREAKPOINTS`] is bisected instead, one counting pass per halving.
fn refine(ramps: &impl Ramps, lo: u64, hi: u64, below: u64, want: u64) -> u64 {
    let mut under_way = 0i64; // ramps rising through `lo`
    let mut breaks: Vec<(u64, bool)> = Vec::new(); // (at, a ramp starts)
    let mut crowded = false;
    ramps.each(|start, len| {
        let end = start.saturating_add(len);
        if crowded || end <= lo || start >= hi {
            return;
        }
        if start <= lo {
            under_way += 1;
        } else {
            breaks.push((start, true));
        }
        if end < hi {
            breaks.push((end, false));
        }
        crowded = breaks.len() > MAX_BREAKPOINTS;
    });
    if crowded {
        return bisect(ramps, lo, hi, want);
    }
    breaks.sort_unstable();
    let (mut at, mut f, mut slope) = (lo, below, under_way);
    for &(p, starts) in &breaks {
        if p > at {
            let reached = f + slope as u64 * (p - at);
            if reached >= want {
                break;
            }
            (at, f) = (p, reached);
        }
        slope += if starts { 1 } else { -1 };
    }
    at + (want - f).div_ceil(slope as u64)
}

/// [`refine`] by bisection: the smallest `d` in `(lo, hi]` with
/// `F(d) ≥ want`, given `F(lo) < want ≤ F(hi)`.
fn bisect(ramps: &impl Ramps, mut lo: u64, mut hi: u64, want: u64) -> u64 {
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let mut f = 0u64;
        ramps.each(|start, len| f += mid.saturating_sub(start).min(len));
        if f >= want {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// 95% end-to-end delay of the omniscient protocol on `trace` (§5.1): its
/// packets arrive exactly at delivery opportunities after crossing the
/// `prop_delay` wire, so its instantaneous delay is `prop_delay` at each
/// opportunity, growing at 1 s/s until the next one.
///
/// If an opportunity gap straddles the window start, the delay is already
/// ramping when measurement begins: it continues from the last pre-window
/// opportunity, exactly as the measured delay is seeded from pre-window
/// arrivals. Skipping that prefix would understate the floor and turn an
/// outage at the warm-up boundary into phantom self-inflicted delay.
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
    let ramps = OpportunityRamps {
        ops: &ops[lo..hi],
        before: (lo > 0 && ops[lo] > from).then(|| ops[lo - 1]),
        prop: prop_delay.as_micros(),
        from,
        to,
    };
    percentile_of_ramps(&ramps, pct)
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
    use super::reference::*;
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
        // linear: p50 ⇒ 500 ms of time at or below D ⇒ D = 510 ms. The
        // counting percentile and the bisection oracle agree on it.
        let segs = vec![(d(900), d(10)), (d(100), d(1_000))];
        for (pct, lo, hi) in [(50.0, 509, 511), (99.0, 1_089, 1_091)] {
            let p = percentile_of_segments_reference(&segs, pct).unwrap();
            assert!(p >= d(lo) && p <= d(hi), "p{pct}: got {p}");
            assert_eq!(percentile_of_ramps(&Listed::of(&segs), pct), Some(p));
        }
    }

    /// Ramps given as a list of `(len, start)` segments: the crafted and
    /// randomized inputs of the counting percentile's oracle checks.
    struct Listed(Vec<(u64, u64)>);

    impl Listed {
        fn of(segments: &[(Duration, Duration)]) -> Self {
            Listed(
                segments
                    .iter()
                    .map(|(len, start)| (len.as_micros(), start.as_micros()))
                    .collect(),
            )
        }

        fn segments(&self) -> Vec<(Duration, Duration)> {
            self.0
                .iter()
                .map(|&(len, start)| (Duration::from_micros(len), Duration::from_micros(start)))
                .collect()
        }
    }

    impl Ramps for Listed {
        fn bound(&self) -> u64 {
            self.0
                .iter()
                .map(|(len, start)| len + start)
                .max()
                .unwrap_or(0)
        }

        fn each(&self, mut f: impl FnMut(u64, u64)) {
            for &(len, start) in &self.0 {
                if len > 0 {
                    f(start, len);
                }
            }
        }
    }

    const PCTS: [f64; 8] = [0.1, 1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 99.9];

    fn random_pct(rng: &mut rand::rngs::StdRng) -> f64 {
        use rand::Rng;
        if rng.gen_range(0..2u32) == 0 {
            PCTS[rng.gen_range(0..PCTS.len())]
        } else {
            rng.gen_range(0.1..99.9)
        }
    }

    #[test]
    fn counting_matches_bisection_on_random_logs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for case in 0..600 {
            // Delays from a few µs to seconds, so answers land in 1 µs
            // buckets, in wide ones, and across octaves.
            let scale = [1u64, 30, 1_000, 40_000][case % 4];
            let len = if case % 25 == 0 {
                0
            } else {
                rng.gen_range(1..150u32)
            };
            let mut m = MetricsCollector::new();
            let mut at = rng.gen_range(0..20 * scale);
            for _ in 0..len {
                at += [0, 0, 1, 3, 10, 50][rng.gen_range(0..6usize)] * scale;
                // `sent_at` is not monotone: some packets overtake others.
                let delay = rng.gen_range(0..at.min(60 * scale) + 1);
                m.record(DeliveryRecord {
                    sent_at: Timestamp::from_micros(at - delay),
                    delivered_at: Timestamp::from_micros(at),
                    size: MTU_BYTES,
                    flow: FlowId(rng.gen_range(1..3u32)),
                });
            }
            // Windows that start before, inside and after the data, empty
            // and inverted ones among them.
            for _ in 0..20 {
                let from = Timestamp::from_micros(rng.gen_range(0..at + 20 * scale + 1));
                let to = Timestamp::from_micros(rng.gen_range(0..at + 40 * scale + 1));
                for flow in [None, Some(FlowId(1)), Some(FlowId(2))] {
                    let pct = random_pct(&mut rng);
                    let oracle = percentile_of_segments_reference(
                        &delay_segments_reference(&m, from, to, flow),
                        pct,
                    );
                    assert_eq!(
                        m.delay_percentile(pct, from, to, flow),
                        oracle,
                        "case {case}: p{pct} over [{from}, {to}) flow {flow:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn counting_matches_bisection_on_random_traces() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(37);
        for case in 0..400 {
            let scale = [1u64, 100, 5_000][case % 3];
            let mut at = 0;
            let ops: Vec<u64> = (0..rng.gen_range(1..120u32))
                .map(|_| {
                    // Repeated opportunities (gap 0) and outages.
                    at += [0, 1, 2, 7, 40, 300][rng.gen_range(0..6usize)] * scale;
                    at
                })
                .collect();
            let trace = Trace::new(ops.into_iter().map(Timestamp::from_micros).collect());
            for _ in 0..10 {
                let prop = Duration::from_micros(rng.gen_range(0..50 * scale));
                let from = Timestamp::from_micros(rng.gen_range(0..at + 10 * scale + 1));
                let to = Timestamp::from_micros(rng.gen_range(0..at + 50 * scale + 1));
                let pct = random_pct(&mut rng);
                let oracle = percentile_of_segments_reference(
                    &omniscient_segments_reference(&trace, prop, from, to),
                    pct,
                );
                assert_eq!(
                    omniscient_delay_percentile(&trace, prop, pct, from, to),
                    oracle,
                    "case {case}: p{pct}, prop {prop}, [{from}, {to})"
                );
            }
        }
    }

    #[test]
    fn counting_matches_bisection_on_crafted_edges() {
        let check = |ramps: Listed, what: &str| {
            for pct in PCTS {
                assert_eq!(
                    percentile_of_ramps(&ramps, pct),
                    percentile_of_segments_reference(&ramps.segments(), pct),
                    "{what}, p{pct}"
                );
            }
        };
        // No time at all: no percentile.
        check(Listed(vec![]), "no ramps");
        check(Listed(vec![(0, 5_000)]), "one empty ramp");
        // A single ramp, from zero and from far up.
        check(Listed(vec![(1, 0)]), "one 1 µs ramp");
        check(Listed(vec![(1_000, 0)]), "one ramp from zero");
        check(Listed(vec![(977, 3_000_000_000)]), "one ramp far up");
        // Every breakpoint in one first-pass bucket: 10 000 ramps inside
        // [999 424, 1 003 520), which holds more breakpoints than the
        // second pass collects, so it is bisected.
        let crowded = (0..10_000u64)
            .map(|i| (1 + i % 3_000, 999_500 + i % 7))
            .collect();
        check(Listed(crowded), "every breakpoint in one bucket");
        // The same ramp repeated: one breakpoint value, many times.
        check(Listed(vec![(100_000, 20_000); 9_000]), "identical ramps");
        // Ramps ending (and starting) exactly on bucket boundaries, in
        // the 1 µs buckets and in wide ones.
        for i in [10, 255, 256, 300, 1_000, 2_000, 3_000] {
            let (lo, shift) = bucket_start(i);
            let width = 1u64 << shift;
            check(
                Listed(vec![
                    (width, lo),
                    (lo, 0),
                    (3 * width, lo + width),
                    (1, lo - 1),
                ]),
                &format!("boundaries of bucket {i}"),
            );
        }
    }

    #[test]
    fn buckets_tile_the_delay_axis() {
        // Consecutive, gap-free and ordered: every bucket starts where the
        // previous one ends, and every delay maps into the bucket that
        // holds it.
        for i in 0..bucket_of(u64::MAX) {
            let (lo, shift) = bucket_start(i);
            assert_eq!(bucket_start(i + 1).0, lo + (1 << shift), "bucket {i}");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + (1 << shift) - 1), i);
        }
        assert!(bucket_of(u64::MAX) < 60 << OCTAVE_BITS);
    }
}

/// The percentile as it was computed before it counted over the log: the
/// delay function copied into a list of `(len, start)` segments, then
/// bisected on the delay, one pass over the list per step. Kept only as
/// the oracle of the counting percentile's tests.
#[cfg(test)]
mod reference {
    use super::*;

    /// [`MetricsCollector::delay_percentile`]'s delay function over
    /// `[from, to)`, as copied segments.
    pub(super) fn delay_segments_reference(
        m: &MetricsCollector,
        from: Timestamp,
        to: Timestamp,
        flow: Option<FlowId>,
    ) -> Vec<(Duration, Duration)> {
        let relevant = |r: &&DeliveryRecord| flow.map(|f| r.flow == f).unwrap_or(true);
        let mut max_sent: Option<Timestamp> = m
            .records()
            .iter()
            .filter(relevant)
            .take_while(|r| r.delivered_at < from)
            .map(|r| r.sent_at)
            .max();
        let mut segments = Vec::new();
        let mut cursor = from;
        for r in m
            .records()
            .iter()
            .filter(relevant)
            .skip_while(|r| r.delivered_at < from)
            .take_while(|r| r.delivered_at < to)
        {
            if let Some(ms) = max_sent {
                let seg_len = r.delivered_at.saturating_since(cursor);
                if seg_len > Duration::ZERO {
                    segments.push((seg_len, cursor.saturating_since(ms)));
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

    /// [`omniscient_delay_percentile`]'s delay function, as copied
    /// segments.
    pub(super) fn omniscient_segments_reference(
        trace: &Trace,
        prop_delay: Duration,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<(Duration, Duration)> {
        let ops = trace.opportunities();
        let lo = ops.partition_point(|&t| t < from);
        let hi = ops.partition_point(|&t| t < to);
        let mut segments = Vec::new();
        if lo >= hi {
            return segments;
        }
        if lo > 0 && ops[lo] > from {
            segments.push((
                ops[lo].saturating_since(from),
                prop_delay + from.saturating_since(ops[lo - 1]),
            ));
        }
        let mut cursor = ops[lo];
        for &t in &ops[lo + 1..hi] {
            if t > cursor {
                segments.push((t - cursor, prop_delay));
                cursor = t;
            }
        }
        if to > cursor {
            segments.push((to.saturating_since(cursor), prop_delay));
        }
        segments
    }

    /// Percentile over time of segments that each last `len` and ramp
    /// from `start` to `start + len`, by bisecting on the delay.
    pub(super) fn percentile_of_segments_reference(
        segments: &[(Duration, Duration)],
        pct: f64,
    ) -> Option<Duration> {
        let total: u64 = segments.iter().map(|(len, _)| len.as_micros()).sum();
        if total == 0 {
            return None;
        }
        let want = (total as f64 * pct / 100.0).ceil() as u64;
        let time_at_or_below = |d: u64| -> u64 {
            segments
                .iter()
                .map(|(len, start)| d.saturating_sub(start.as_micros()).min(len.as_micros()))
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
}
