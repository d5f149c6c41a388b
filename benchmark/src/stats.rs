//! Order statistics for benchmark samples: medians, MAD, quartile spread,
//! and the percentile rule from the metrics guide (report the highest
//! percentile that still has at least ten samples beyond it).

/// Summary of one metric's samples as `report.json` records it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle samples for even counts).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Min / median / max / MAD of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let med = median(&v);
    let deviations: Vec<f64> = v.iter().map(|x| (x - med).abs()).collect();
    Summary {
        n: v.len(),
        min: v[0],
        median: med,
        max: v[v.len() - 1],
        mad: median(&deviations),
    }
}

/// Linear-interpolated percentile `p` (0..=100) of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The percentiles a timing may be reported at, ascending, each with the
/// share of samples beyond it in thousandths (integers keep the
/// ten-samples rule exact).
pub const PERCENTILE_LADDER: [(f64, usize); 5] =
    [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest rung of [`PERCENTILE_LADDER`] that still has at least ten
/// of the `n` samples beyond it, or `None` when even the median does not
/// (fewer than twenty samples).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .find(|(_, beyond_permille)| n * beyond_permille >= 10 * 1_000)
        .map(|(p, _)| *p)
}

/// A tail percentile together with the evidence behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct TailPercentile {
    /// Which percentile was picked (e.g. `99.0`).
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was computed from.
    pub samples: usize,
}

/// The highest supported percentile of `values` and the sample count.
pub fn tail_percentile(values: &[f64]) -> Option<TailPercentile> {
    let p = highest_supported_percentile(values.len())?;
    Some(TailPercentile {
        percentile: p,
        value: percentile(&sorted(values), p),
        samples: values.len(),
    })
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the exclusive method). `None` below two samples.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    if v.len() < 2 {
        return None;
    }
    let quantile = |k: usize| {
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((quantile(3) - quantile(1)) / median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 100.0));
        assert_eq!(s.mad, 1.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        // 2500 pooled ticks support p99 (25 beyond) but not p99.9 (2.5).
        assert_eq!(highest_supported_percentile(2_500), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_percentile_reports_its_sample_count() {
        let values: Vec<f64> = (0..1_000).map(f64::from).collect();
        let tail = tail_percentile(&values).unwrap();
        assert_eq!(tail.percentile, 99.0);
        assert_eq!(tail.samples, 1_000);
        assert!((tail.value - 989.01).abs() < 1e-9);
        assert_eq!(tail_percentile(&values[..5]), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), None);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), Some(0.0));
    }
}
