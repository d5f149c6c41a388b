//! Trace analysis: interarrival statistics (Figure 2), outage statistics,
//! and capacity summaries.

use crate::time::Duration;
use crate::trace::Trace;

/// Histogram of interarrival times between delivery opportunities, with
/// logarithmic bins — the raw material of the paper's Figure 2.
#[derive(Clone, Debug)]
pub struct InterarrivalHistogram {
    /// Bin lower edges in milliseconds (log-spaced), plus a 0 ms bin for
    /// same-millisecond opportunities.
    edges_ms: Vec<f64>,
    /// Count of interarrivals falling in `[edges[i], edges[i+1])`.
    counts: Vec<u64>,
    total: u64,
}

impl InterarrivalHistogram {
    /// Build the histogram with `bins_per_decade` log-spaced bins covering
    /// 1 ms .. `max_ms`.
    pub fn from_trace(trace: &Trace, bins_per_decade: usize, max_ms: f64) -> Self {
        assert!(bins_per_decade > 0 && max_ms > 1.0);
        let decades = max_ms.log10();
        let nbins = (decades * bins_per_decade as f64).ceil() as usize + 1;
        // edges: [0, 1, 10^(1/bpd), 10^(2/bpd), ...]
        let mut edges_ms = Vec::with_capacity(nbins + 1);
        edges_ms.push(0.0);
        for i in 0..nbins {
            edges_ms.push(10f64.powf(i as f64 / bins_per_decade as f64));
        }
        let mut counts = vec![0u64; edges_ms.len()];
        let mut total = 0u64;
        for gap in trace.interarrivals() {
            let ms = gap.as_micros() as f64 / 1e3;
            // Find the last edge ≤ ms.
            let idx = edges_ms.partition_point(|&e| e <= ms).saturating_sub(1);
            counts[idx.min(edges_ms.len() - 1)] += 1;
            total += 1;
        }
        InterarrivalHistogram {
            edges_ms,
            counts,
            total,
        }
    }

    /// Total number of interarrivals observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterate over `(bin_start_ms, bin_end_ms, percent_of_interarrivals)`.
    pub fn rows(&self) -> impl Iterator<Item = (f64, f64, f64)> + '_ {
        let total = self.total.max(1) as f64;
        self.edges_ms
            .iter()
            .zip(
                self.edges_ms
                    .iter()
                    .skip(1)
                    .chain(std::iter::once(&f64::INFINITY)),
            )
            .zip(self.counts.iter())
            .map(move |((&lo, &hi), &c)| (lo, hi, 100.0 * c as f64 / total))
    }

    /// Fraction of interarrivals that arrive within `within_ms` of the
    /// previous packet (the paper's share within 20 ms on Verizon LTE is
    /// sprout-bench's claim `fig2.within_20ms_pct`).
    pub fn fraction_within_ms(&self, within_ms: f64) -> f64 {
        let total = self.total.max(1) as f64;
        let mut acc = 0u64;
        for ((&lo, &c), _) in self
            .edges_ms
            .iter()
            .zip(self.counts.iter())
            .zip(std::iter::repeat(()))
        {
            if lo < within_ms {
                acc += c;
            }
        }
        acc as f64 / total
    }

    /// Least-squares fit of the tail as a power law `percent ∝ t^slope`
    /// over bins whose start lies in `[lo_ms, hi_ms]` with nonzero counts.
    /// Figure 2's slope for the Verizon LTE downlink is sprout-bench's
    /// claim `fig2.tail_slope`. Returns
    /// `None` when fewer than 3 tail bins are populated.
    pub fn tail_power_law_slope(&self, lo_ms: f64, hi_ms: f64) -> Option<f64> {
        let total = self.total.max(1) as f64;
        let pts: Vec<(f64, f64)> = self
            .edges_ms
            .iter()
            .zip(self.counts.iter())
            .filter(|&(&lo, &c)| lo >= lo_ms && lo <= hi_ms && c > 0 && lo > 0.0)
            .map(|(&lo, &c)| (lo.log10(), (100.0 * c as f64 / total).log10()))
            .collect();
        linear_regression_slope(&pts)
    }
}

fn linear_regression_slope(pts: &[(f64, f64)]) -> Option<f64> {
    if pts.len() < 3 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Summary of the outages (delivery gaps) in a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OutageStats {
    /// Number of gaps longer than the threshold.
    pub count: usize,
    /// Longest gap observed.
    pub longest: Duration,
    /// Total time spent in gaps longer than the threshold.
    pub total_time: Duration,
}

/// Find all delivery gaps longer than `threshold`.
pub fn outage_stats(trace: &Trace, threshold: Duration) -> OutageStats {
    let mut stats = OutageStats::default();
    for gap in trace.interarrivals() {
        if gap > threshold {
            stats.count += 1;
            stats.total_time += gap;
            if gap > stats.longest {
                stats.longest = gap;
            }
        }
    }
    stats
}

/// One-line summary of a trace, for reports and examples.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Usable length of the trace.
    pub duration: Duration,
    /// Number of delivery opportunities.
    pub opportunities: usize,
    /// Mean capacity in kbps.
    pub mean_kbps: f64,
    /// Peak capacity over 1-second bins, kbps.
    pub peak_1s_kbps: f64,
    /// Minimum capacity over 1-second bins, kbps.
    pub min_1s_kbps: f64,
    /// Outages longer than one second.
    pub outages_over_1s: OutageStats,
}

/// Compute a [`TraceSummary`].
pub fn summarize(trace: &Trace) -> TraceSummary {
    let series = trace.capacity_series_kbps(Duration::from_secs(1));
    TraceSummary {
        duration: trace.duration(),
        opportunities: trace.len(),
        mean_kbps: trace.average_rate_kbps(),
        peak_1s_kbps: series.iter().copied().fold(0.0, f64::max),
        min_1s_kbps: series.iter().copied().fold(f64::INFINITY, f64::min),
        outages_over_1s: outage_stats(trace, Duration::from_secs(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::NetProfile;
    use crate::time::Timestamp;

    #[test]
    fn histogram_counts_every_gap() {
        let tr = Trace::from_millis([0, 1, 2, 50, 51, 4000]);
        let h = InterarrivalHistogram::from_trace(&tr, 10, 10_000.0);
        assert_eq!(h.total(), 5);
        let pct_sum: f64 = h.rows().map(|r| r.2).sum();
        assert!((pct_sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fraction_within_counts_short_gaps() {
        // Gaps: 1,1,48,1,3949 ms → 3 of 5 within 20 ms.
        let tr = Trace::from_millis([0, 1, 2, 50, 51, 4000]);
        let h = InterarrivalHistogram::from_trace(&tr, 10, 10_000.0);
        assert!((h.fraction_within_ms(20.0) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn synthetic_lte_interarrivals_are_mostly_short_with_heavy_tail() {
        // The §3.1/Fig. 2 claim our generator must reproduce: almost all
        // interarrivals are short (memoryless regime), but gaps of hundreds
        // of ms to seconds exist.
        let tr = NetProfile::VerizonLteDown.generate(Duration::from_secs(300), 2);
        let h = InterarrivalHistogram::from_trace(&tr, 10, 10_000.0);
        assert!(h.fraction_within_ms(20.0) > 0.95);
        let max_gap = tr.interarrivals().max().unwrap_or(Duration::ZERO);
        assert!(
            max_gap > Duration::from_millis(300),
            "expected a heavy tail, max gap {max_gap}"
        );
    }

    #[test]
    fn tail_slope_is_negative_on_synthetic_lte() {
        let tr = NetProfile::VerizonLteDown.generate(Duration::from_secs(600), 3);
        let h = InterarrivalHistogram::from_trace(&tr, 10, 10_000.0);
        if let Some(slope) = h.tail_power_law_slope(20.0, 5_000.0) {
            assert!(slope < -0.5, "tail should decay, slope {slope}");
        }
        // A fit can be absent on an unlucky seed (too few tail bins); the
        // fig2 harness uses much longer traces.
    }

    /// A trace of `n` interarrivals drawn from a Pareto law with minimum
    /// `min_ms` and shape `alpha`: density ∝ t^−(alpha+1) from `min_ms` on.
    fn pareto_trace(n: usize, min_ms: f64, alpha: f64, seed: u64) -> Trace {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut at_us = 0u64;
        let opportunities = (0..=n)
            .map(|_| {
                let now = Timestamp::from_micros(at_us);
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                at_us += (min_ms * 1e3 * u.powf(-1.0 / alpha)).round() as u64;
                now
            })
            .collect();
        Trace::new(opportunities)
    }

    #[test]
    fn the_tail_fit_reads_a_known_power_law_one_shallower_than_its_density() {
        // Figure 2's tail: density falling as t^−3.27 beyond 20 ms, a
        // Pareto law of shape 2.27. The histogram's bins are log-spaced,
        // so a bin's share is the density times a width ∝ t, and the fit
        // returns the per-bin exponent 1 − 3.27 = −2.27, not the density's
        // −3.27. This pins that reading; ROADMAP item 6 decides whether
        // the estimator should fit the density instead. Of the million
        // draws, ≈ 26 000 are ≥ 100 ms, 119–154 are ≥ 1 s and 1–6 are
        // ≥ 5 s (seeds 1–12), across 22–23 populated bins; the fitted
        // slope ranged −2.22 to −2.32 over those seeds.
        let n = 1_000_000;
        let trace = pareto_trace(n, 20.0, 2.27, 327);
        let h = InterarrivalHistogram::from_trace(&trace, 10, 10_000.0);
        let slope = h.tail_power_law_slope(20.0, 5_000.0).expect("a full tail");
        assert!(
            (slope + 3.27).abs() > 0.9,
            "the fit now recovers the density's exponent ({slope:.3}): \
             ROADMAP item 6's estimator gap is closed, re-pin this test"
        );
        assert!(
            (slope + 2.2333).abs() < 1e-3,
            "read {slope:.4} where this seed read -2.2333: the per-bin exponent of a \
             t^-3.27 density is -2.27 (ROADMAP item 6: the estimator fits per-bin \
             shares, not the density)"
        );
    }

    #[test]
    fn outage_stats_find_long_gaps() {
        let tr = Trace::from_millis([0, 100, 2_200, 2_300, 7_300]);
        let s = outage_stats(&tr, Duration::from_secs(1));
        assert_eq!(s.count, 2);
        assert_eq!(s.longest, Duration::from_secs(5));
        assert_eq!(s.total_time, Duration::from_millis(7_100));
    }

    #[test]
    fn summary_is_consistent() {
        let tr = NetProfile::TmobileUmtsUp.generate(Duration::from_secs(60), 9);
        let s = summarize(&tr);
        assert_eq!(s.opportunities, tr.len());
        assert!(s.peak_1s_kbps >= s.mean_kbps * 0.5);
        assert!(s.min_1s_kbps <= s.mean_kbps * 1.5);
    }

    #[test]
    fn regression_slope_of_known_line() {
        let pts: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 - 2.0 * i as f64)).collect();
        let slope = linear_regression_slope(&pts).unwrap();
        assert!((slope + 2.0).abs() < 1e-9);
    }
}
