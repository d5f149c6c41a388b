//! The forecast table against the model it is built from, open loop.
//!
//! The repo implements the paper's §3.1 link model twice: sprout-trace's
//! `LinkSimulator` steps it in 1 ms with Poisson deliveries, and
//! sprout-core's `ForecastTables` discretises it into rate bins and
//! 20 ms ticks, advancing the count axis by the *expected* delivery λτ
//! (`rate-path-percentile` in sprout-bench's `claims::INTERPRETATIONS`).
//! This runs `N` simulator paths for eight ticks from a point mass at a
//! bin's rate and compares their cumulative deliveries, in quarter-MTU
//! units, with the table's conditional CDF from that bin.
//!
//! `N` = 10 000 paths per start bin (≈ 2 s unoptimised): the
//! Monte-Carlo error of a share `p` is `sqrt(p (1 − p) / N)`, ≈ 0.3
//! points at `p` = 0.1, ≈ 0.47 at `p` = 0.32 and 0.5 at `p` = 0.5, and
//! every comparison below allows four of those.
//!
//! Bins 26, 64 and 128 start at 102, 251 and 502 packets/s. The 51
//! packets/s start (bin 13), where the two implementations part at the
//! outage boundary, is left out until that divergence is explained.

use sprout_core::forecast::UNITS_PER_MTU;
use sprout_core::{ForecastTables, SproutConfig};
use sprout_trace::{LinkModelParams, LinkSimulator};

/// Paths per start bin.
const N: usize = 10_000;

/// Forecast ticks compared (the paper's 160 ms horizon).
const TICKS: usize = 8;

/// Milliseconds per tick.
const TICK_MS: usize = 20;

/// Cumulative quarter-MTU units delivered by the end of each tick, one
/// row per simulated path from `rate_pps`.
fn paths(rate_pps: f64, seed: u64) -> Vec<[u32; TICKS]> {
    (0..N as u64)
        .map(|i| {
            let params = LinkModelParams::paper_frozen(rate_pps);
            let mut link = LinkSimulator::new(params, seed + i);
            let mut units = 0;
            std::array::from_fn(|_| {
                for _ in 0..TICK_MS {
                    units += link.step_ms() * UNITS_PER_MTU as u32;
                }
                units
            })
        })
        .collect()
}

/// The smallest count whose table CDF from `bin` reaches `p` at `tick`.
fn table_quantile(table: &ForecastTables, tick: usize, bin: usize, p: f64) -> u32 {
    let reaches = |count: &usize| table.conditional_cdf(tick, *count, bin) >= p;
    (0..).find(reaches).expect("the CDF reaches 1") as u32
}

/// Per start bin: the share of paths that deliver less than the table's
/// 5th percentile at each tick, as measured (seeds `20130401 + bin · N`
/// on). A well-calibrated table reads 0.05 everywhere.
const BELOW_P5: [(usize, [f64; TICKS]); 3] = [
    (26, [0.141, 0.110, 0.102, 0.104, 0.071, 0.089, 0.105, 0.096]),
    (64, [0.265, 0.234, 0.209, 0.142, 0.146, 0.120, 0.084, 0.081]),
    (
        128,
        [0.320, 0.284, 0.267, 0.201, 0.200, 0.171, 0.146, 0.112],
    ),
];

/// Four Monte-Carlo standard errors of a share `p` over `N` paths.
fn mc_band(p: f64) -> f64 {
    4.0 * (p * (1.0 - p) / N as f64).sqrt()
}

#[test]
fn the_table_matches_its_model_at_the_median_and_not_at_the_fifth_percentile() {
    let cfg = SproutConfig::paper();
    let table = ForecastTables::get(&cfg);
    for (bin, pinned) in BELOW_P5 {
        let runs = paths(cfg.bin_rate_pps(bin), 20130401 + (bin * N) as u64);
        for (tick, pinned) in pinned.into_iter().enumerate() {
            let share = |pred: &dyn Fn(u32) -> bool| {
                runs.iter().filter(|p| pred(p[tick])).count() as f64 / N as f64
            };
            // The medians agree within one unit: up to the sampling error
            // of a 50 % share, at most half the paths deliver less than
            // the table's median minus one, and at least half deliver at
            // most its median plus one.
            let median = table_quantile(&table, tick, bin, 0.5);
            let (under, over) = (share(&|u| u + 1 < median), share(&|u| u <= median + 1));
            assert!(
                under <= 0.5 + mc_band(0.5) && over >= 0.5 - mc_band(0.5),
                "bin {bin}, tick {tick}: the table's median {median} is not the model's \
                 ({under:.4} of paths deliver less than one unit under it, {over:.4} at most \
                 one over)"
            );
            // The 5th percentile does not: the table advances its count
            // axis by the expected λτ, so delivery noise is not in it.
            let p5 = table_quantile(&table, tick, bin, 0.05);
            let below = share(&|u| u < p5);
            assert!(
                (below - pinned).abs() <= mc_band(pinned),
                "bin {bin}, tick {tick}: {below:.4} of paths deliver less than the table's 5th \
                 percentile {p5}, pinned at {pinned} ± {:.4}. The gap is the reading \
                 `rate-path-percentile` (the percentile covers the rate path only, not the \
                 Poisson noise of the counts); a moved share means the table or the model \
                 changed — re-measure and re-pin on purpose",
                mc_band(pinned)
            );
        }
    }
}
