//! Kernel-vs-reference equivalence: the blocked evolve kernel (and a
//! whole model tick through it and the likelihood memo) must be
//! **bit-for-bit** equal to its scalar reference across random
//! configurations and inputs — not merely close; likewise the windowed
//! percentile search over the banded table (certain bins summed as a
//! prefix or skipped) against the one-count bisection and the memoised
//! likelihood update against the uncached one. Those restructured loops
//! preserve the floating-point accumulation order (ascending source bins
//! per output cell). The forecast-table build is a different algorithm
//! from its reference (a backward recursion against a forward DP) and
//! equals it byte for byte only after the narrowing to f32 — see
//! `blocked_table_dp_matches_scalar_reference`. Either way the canonical
//! artifacts stay byte-identical and [`sprout_bench::ENGINE_VERSION`]
//! did not bump; `tests/golden_fingerprints.tsv` locks the artifacts
//! themselves.

use proptest::collection;
use proptest::prelude::*;
use sprout_core::{
    likelihood_memo_occupancy, ForecastScratch, ForecastTables, RateModel, SproutConfig,
    TransitionKernel, LIKELIHOOD_MEMO_MAX_BYTES,
};

/// A validated config with the given geometry; `lookahead_ticks` is
/// pinned to 1 so any `horizon_ticks >= 1` is admissible.
fn cfg_with(
    num_bins: usize,
    sigma: f64,
    max_rate_pps: f64,
    horizon_ticks: usize,
    count_max: usize,
) -> SproutConfig {
    SproutConfig {
        num_bins,
        sigma,
        max_rate_pps,
        horizon_ticks,
        lookahead_ticks: 1,
        count_max,
        ..SproutConfig::default()
    }
}

proptest! {
    #[test]
    fn chunked_evolve_matches_scalar_reference(
        // Up to 320 bins: wide noise on a short grid reflects every row
        // (no shared band, one edge group), narrow noise on a long one
        // leaves a band hundreds of rows long, and the sizes in between
        // end on every tail-block length.
        raw in collection::vec(0.0f64..1.0, 8..321),
        sigma in 20.0f64..400.0,
        max_rate_pps in 100.0f64..1000.0,
    ) {
        let num_bins = raw.len();
        let cfg = cfg_with(num_bins, sigma, max_rate_pps, 8, 256);
        let kernel = TransitionKernel::new(&cfg);
        // Force exact zeros into the source distribution: the reference
        // skips zero-probability sources where the blocked kernel
        // multiplies them out, which may only ever add +0.0 contributions.
        let src: Vec<f64> = raw.iter().map(|&p| if p < 0.3 { 0.0 } else { p }).collect();
        let mut fast = vec![0.0f64; num_bins];
        let mut reference = vec![0.0f64; num_bins];
        kernel.evolve_into(&src, &mut fast);
        kernel.evolve_into_reference(&src, &mut reference);
        // Compare bit patterns, not values: -0.0 vs +0.0 or differently
        // rounded sums must fail.
        let fast_bits: Vec<u64> = fast.iter().map(|v| v.to_bits()).collect();
        let reference_bits: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(fast_bits, reference_bits);
    }

    /// The production build (a backward recursion over all start bins)
    /// against the scalar forward DP, byte for byte. The two are
    /// different summations of the same probabilities: they agree to
    /// rounding in f64 (a few ulps of 1e-16 relative), and to the bit
    /// after `as f32` only because such a difference straddles an f32
    /// rounding boundary with probability ≈ 1e-9 per entry. A failure
    /// here that shrinks to a single entry one f32 ulp apart is therefore
    /// a finding to record (seed, geometry, entry) and weigh against the
    /// localising tests below — not a flake to retry, and not by itself
    /// a bug in either DP.
    #[test]
    fn blocked_table_dp_matches_scalar_reference(
        bins_sel in 0usize..3,
        cm_sel in 0usize..3,
        horizon_ticks in 2usize..6,
        sigma in 40.0f64..300.0,
        max_rate_pps in 100.0f64..600.0,
    ) {
        // Small geometries keep 64 cases cheap while still ending the
        // count axis inside a tile (sizes straddle the tile width) and
        // overshooting it within the horizon.
        let num_bins = [9, 16, 33][bins_sel];
        let count_max = [32, 65, 96][cm_sel];
        let cfg = cfg_with(num_bins, sigma, max_rate_pps, horizon_ticks, count_max);
        let kernel = TransitionKernel::new(&cfg);
        let fast = ForecastTables::build(&cfg, &kernel);
        let reference = ForecastTables::build_reference(&cfg, &kernel);
        prop_assert_eq!(fast.to_bytes(), reference.to_bytes());
    }

    /// What a byte compare cannot localise: properties of the table that
    /// hold exactly (not to rounding) by the recursion's structure, each
    /// naming the axis a defect would sit on.
    #[test]
    fn table_structure_holds_on_random_geometries(
        num_bins in 5usize..40,
        count_max in 24usize..120,
        horizon_ticks in 2usize..7,
        sigma in 40.0f64..300.0,
        max_rate_pps in 100.0f64..600.0,
    ) {
        let cfg = cfg_with(num_bins, sigma, max_rate_pps, horizon_ticks, count_max);
        let kernel = TransitionKernel::new(&cfg);
        let full = ForecastTables::build(&cfg, &kernel);
        let at = |t: &ForecastTables, tick, c, i| t.conditional_cdf(tick, c, i);

        // Horizon prefix: tick `t` never looks at ticks after it, so the
        // `h`-tick table is the first `h` ticks of the `H`-tick one — and
        // the payload stores its spans tick-major, so its spans after the
        // 24-byte header are a prefix of the longer table's.
        let h = 1 + horizon_ticks / 2;
        let short = ForecastTables::build(
            &cfg_with(num_bins, sigma, max_rate_pps, h, count_max),
            &kernel,
        ).to_bytes();
        prop_assert!(
            short[24..] == full.to_bytes()[24..short.len()],
            "the {}-tick table is not a prefix of the {}-tick one", h, horizon_ticks
        );

        // Count-axis extension: the clamp touches only the top cell, so a
        // shorter count axis agrees on every count below its own top.
        let a = 8 + count_max / 2;
        let narrow = ForecastTables::build(
            &cfg_with(num_bins, sigma, max_rate_pps, horizon_ticks, a),
            &kernel,
        );
        for tick in 0..horizon_ticks {
            for i in 0..num_bins {
                for c in 0..a - 1 {
                    prop_assert!(
                        at(&narrow, tick, c, i).to_bits() == at(&full, tick, c, i).to_bits(),
                        "count axis {} vs {}: t={} c={} i={}", a, count_max, tick, c, i
                    );
                }
                prop_assert_eq!(at(&narrow, tick, a - 1, i), 1.0);
                prop_assert_eq!(at(&full, tick, count_max - 1, i), 1.0);
            }
        }

        // Tick monotonicity: cumulative volume never shrinks, so
        // `F[t+1][c][i] ≤ F[t][c][i]` — what the warm-started percentile
        // search relies on. Every term of the recursion is a non-negative
        // weight times a value that is monotone by induction, and
        // rounding is monotone; the induction's base (`G₁ ≤ G₀ = 1`) can
        // fail by an ulp of f64 only where every path stays under the
        // count, and those cells store as exactly 1.0.
        for tick in 1..horizon_ticks {
            for i in 0..num_bins {
                for c in 0..count_max {
                    prop_assert!(
                        at(&full, tick, c, i) <= at(&full, tick - 1, c, i),
                        "not monotone in the tick: t={} c={} i={}", tick, c, i
                    );
                }
            }
        }

        // The reference's exact zeros (counts no path can stay under) and
        // exact ones (counts every path stays under) sit in the same
        // cells: the reachable window is structure, not arithmetic.
        let reference = ForecastTables::build_reference(&cfg, &kernel);
        for tick in 0..horizon_ticks {
            for i in 0..num_bins {
                for c in 0..count_max {
                    let (f, r) = (at(&full, tick, c, i), at(&reference, tick, c, i));
                    prop_assert!(
                        (f == 0.0, f == 1.0) == (r == 0.0, r == 1.0),
                        "0/1 structure: t={} c={} i={}: {} vs {}", tick, c, i, f, r
                    );
                }
            }
        }
    }
}

/// `raw` scaled to sum to `total`.
fn scaled(raw: &[f64], total: f64) -> Vec<f64> {
    let sum: f64 = raw.iter().sum();
    raw.iter().map(|&p| p * total / sum).collect()
}

/// Forecast `posterior` through both searches, each with its own
/// long-lived scratch, and compare.
fn assert_searches_agree(
    tables: &ForecastTables,
    posterior: &[f64],
    pct: f64,
    windowed: &mut ForecastScratch,
    reference: &mut ForecastScratch,
) -> Result<(), String> {
    let fast = tables.forecast_into(posterior, pct, windowed).clone();
    let slow = tables.forecast_into_reference(posterior, pct, reference);
    prop_assert_eq!(&fast, slow);
    Ok(())
}

fn bits(dist: &[f64]) -> Vec<u64> {
    dist.iter().map(|p| p.to_bits()).collect()
}

proptest! {
    #[test]
    fn windowed_forecast_search_matches_reference_search(
        bins_sel in 0usize..3,
        cm_sel in 0usize..4,
        horizon_ticks in 1usize..7,
        sigma in 40.0f64..300.0,
        max_rate_pps in 100.0f64..600.0,
        raw in collection::vec(0.001f64..1.0, 64..65),
        observations in collection::vec(0u32..12, 8..9),
    ) {
        let num_bins = [9, 33, 64][bins_sel];
        // 96 is whole count blocks; the others end in a partial block,
        // and 43 is less than one fast tick's volume, so the count axis
        // saturates mid-horizon.
        let count_max = [43, 65, 96, 203][cm_sel];
        let cfg = cfg_with(num_bins, sigma, max_rate_pps, horizon_ticks, count_max);
        let tables = ForecastTables::build(&cfg, &TransitionKernel::new(&cfg));
        let raw = &raw[..num_bins];

        let mut posteriors: Vec<Vec<f64>> = Vec::new();
        // A session's worth of slowly moving posteriors (contiguous live
        // bins, predictions mostly right)...
        let mut model = RateModel::new(cfg.clone());
        for &obs in &observations {
            model.evolve();
            model.observe(obs as f64 * 0.5);
            posteriors.push(model.distribution().to_vec());
        }
        // ...a jump to an unrelated dense one (predictions wrong)...
        posteriors.push(scaled(raw, 1.0));
        // ...combs, whose live bins are not contiguous: the windowed pass
        // weighs the gaps 0.0 where the reference skips them...
        let sparse: Vec<f64> = raw.iter().map(|&p| if p < 0.3 { 0.0 } else { p }).collect();
        posteriors.push(scaled(&sparse, 1.0));
        let comb: Vec<f64> = (0..num_bins).map(|i| if i % 3 == 0 { 1.0 } else { 0.0 }).collect();
        posteriors.push(scaled(&comb, 1.0));
        // ...no live bin at all...
        posteriors.push(vec![0.0; num_bins]);
        // ...point masses at both ends of the grid...
        for at in [0, num_bins - 1] {
            let mut pm = vec![0.0; num_bins];
            pm[at] = 1.0;
            posteriors.push(pm);
        }
        // ...and the degenerate mixture whose total mass is below the
        // higher percentiles: the guess hits the cap, nothing reaches
        // `want`, every tick answers the end of the count axis.
        posteriors.push(scaled(raw, 0.3));

        // One scratch per search across the whole case: consecutive calls
        // feed each other's predictions, including across the percentile
        // switches.
        let mut windowed = ForecastScratch::default();
        let mut reference = ForecastScratch::default();
        for pct in [5.0, 25.0, 50.0, 75.0, 95.0] {
            for posterior in &posteriors {
                assert_searches_agree(&tables, posterior, pct, &mut windowed, &mut reference)?;
            }
        }
    }

    #[test]
    fn windowed_search_matches_reference_on_arbitrary_monotone_tables(
        num_bins in 2usize..6,
        horizon_ticks in 1usize..5,
        count_max in 8usize..70,
        raw in collection::vec(0.0f64..1.0, 1400..1401),
        weights in collection::vec(0.01f64..1.0, 5..6),
        total in 0.2f64..1.2,
    ) {
        // Tables no DP would produce, from hand-made rows: per (tick, bin)
        // a step-like CDF that is non-decreasing in the count — all the
        // search relies on — but unrelated from one tick to the next. A
        // row starts with a run of exact zeros of any length, then either
        // reaches 1.0 (a band that ends inside the axis), stops short of
        // 1 (one that runs to its end) or stays 0.0 throughout (an empty
        // band at the top). Answers land below the warm start, on block
        // boundaries, several blocks from the prediction and among the
        // last block's counts past the axis (which read 1.0).
        let mut draws = raw.iter().cycle().copied();
        let mut rows = vec![0.0f32; horizon_ticks * num_bins * count_max];
        for row in rows.chunks_exact_mut(count_max) {
            let ceiling = match draws.next().unwrap() {
                d if d < 0.45 => 1.0,
                d if d < 0.55 => 0.0,
                d => d,
            };
            let zeros = (draws.next().unwrap() * count_max as f64) as usize;
            let steps: Vec<f64> = (0..count_max)
                .map(|c| if c < zeros { 0.0 } else { draws.next().unwrap().powi(8) })
                .collect();
            let sum: f64 = steps.iter().sum::<f64>().max(1e-9);
            let mut acc = 0.0;
            for (slot, step) in row.iter_mut().zip(steps.iter()) {
                acc += step;
                *slot = (acc / sum * ceiling).min(1.0) as f32;
            }
        }
        let tables = ForecastTables::from_rows(num_bins, horizon_ticks, count_max, &rows);
        prop_assert!(ForecastTables::from_bytes(&tables.to_bytes()).is_some());
        let posterior = scaled(&weights[..num_bins], total);
        let mut windowed = ForecastScratch::default();
        let mut reference = ForecastScratch::default();
        for pct in [5.0, 50.0, 95.0, 25.0, 75.0] {
            assert_searches_agree(&tables, &posterior, pct, &mut windowed, &mut reference)?;
        }
    }

    #[test]
    fn memoised_observe_matches_uncached(
        num_bins in 8usize..97,
        max_rate_pps in 100.0f64..1000.0,
        observations in collection::vec((0u32..40, 0usize..4), 20..60),
    ) {
        let cfg = cfg_with(num_bins, 200.0, max_rate_pps, 8, 256);
        let tick = cfg.tick_secs();
        let mut memoised = RateModel::new(cfg.clone());
        let mut uncached = RateModel::new(cfg);
        // Quarter-packet observations from silence to well past the
        // grid's top rate, over full and censored exposures; the small
        // domain makes most of them repeats (memo hits).
        for &(quarters, exposure_sel) in &observations {
            let packets = quarters as f64 * 0.25;
            let exposure = [tick, tick, 0.013, 0.020_3][exposure_sel];
            memoised.evolve();
            uncached.evolve();
            memoised.observe_exposed(packets, exposure);
            uncached.observe_exposed_reference(packets, exposure);
            prop_assert_eq!(bits(memoised.distribution()), bits(uncached.distribution()));
        }
        let (_, bytes) = likelihood_memo_occupancy();
        prop_assert!(bytes <= LIKELIHOOD_MEMO_MAX_BYTES);
    }
}

#[test]
fn windowed_search_tracks_reference_over_a_long_session() {
    // 600 ticks of one endpoint's life on the unit-test geometry: ramps,
    // a plateau, an outage and the recovery, forecasting after every tick
    // with one scratch per search as the protocol does.
    let cfg = SproutConfig::test_small();
    let tables = ForecastTables::get(&cfg);
    let mut model = RateModel::new(cfg);
    let mut windowed = ForecastScratch::default();
    let mut reference = ForecastScratch::default();
    for t in 0..600u32 {
        let packets = match t {
            0..=199 => (t / 40) as f64,
            200..=349 => 4.0 + (t % 3) as f64 * 0.5,
            350..=449 => 0.0,
            _ => 3.0,
        };
        model.evolve();
        model.observe(packets);
        assert_searches_agree(
            &tables,
            model.distribution(),
            5.0,
            &mut windowed,
            &mut reference,
        )
        .unwrap();
    }
}

#[test]
fn evolve_tracks_reference_over_a_long_session() {
    // 2 000 ticks of one receiver's life at paper scale, every evolve
    // checked against the reference walk on the live posterior: busy
    // stretches with full-tick observations, censored ones (the sender's
    // queue ran dry part-way through the tick), gated ticks (no
    // observation at all, evolve only) and two long silences that push
    // the busy bins down to the likelihood floor, then the bursts that
    // flip the posterior back. Every tick also forecasts from the live
    // posterior through both searches on the paper table, at the
    // protocol's percentile and at the median, one scratch pair each.
    let cfg = SproutConfig::paper();
    let tick = cfg.tick_secs();
    let kernel = TransitionKernel::new(&cfg);
    let tables = ForecastTables::get(&cfg);
    let mut scratches: Vec<_> = [cfg.forecast_percentile, 50.0]
        .into_iter()
        .map(|pct| (pct, ForecastScratch::default(), ForecastScratch::default()))
        .collect();
    let mut model = RateModel::new(cfg);
    let mut reference = vec![0.0f64; model.distribution().len()];
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |below: u64| {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (lcg >> 33) % below
    };
    for t in 0..2000u32 {
        kernel.evolve_into_reference(model.distribution(), &mut reference);
        model.evolve();
        assert_eq!(
            bits(model.distribution()),
            bits(&reference),
            "tick {t} diverged"
        );
        for (pct, windowed, slow) in &mut scratches {
            assert_searches_agree(&tables, model.distribution(), *pct, windowed, slow)
                .unwrap_or_else(|e| panic!("tick {t}, percentile {pct}: {e}"));
        }
        let outage = (400..640).contains(&t) || (1500..1580).contains(&t);
        match draw(8) {
            _ if outage => model.observe(0.0),
            0 => {} // gated: the sender said nothing was due
            1 | 2 => {
                model.observe_exposed(draw(24) as f64 * 0.25, tick * (1 + draw(7)) as f64 / 8.0)
            }
            _ => model.observe((t / 250) as f64 + draw(9) as f64 * 0.5),
        }
    }
}

#[test]
fn a_model_tick_is_the_reference_evolve_then_the_reference_observe() {
    let small = SproutConfig::test_small();
    let geometries = [
        SproutConfig::paper(),
        small.clone(),
        // Ends inside a block.
        SproutConfig {
            num_bins: 100,
            ..small.clone()
        },
        // Every row reflected: no shared band.
        SproutConfig {
            num_bins: 12,
            sigma: 400.0,
            ..small.clone()
        },
        // No likelihood floor on a grid this fast: silence zeroes every
        // bin above the tenth exactly, and a burst only the top bin can
        // explain then zeroes the rest — normalize's reset to uniform.
        SproutConfig {
            max_rate_pps: 1e6,
            likelihood_floor: 0.0,
            ..small
        },
    ];
    for cfg in geometries {
        let tick = cfg.tick_secs();
        let n = cfg.num_bins;
        let mut model = RateModel::new(cfg.clone());
        // Kept bitwise equal to `model` before every tick, so its
        // observe acts on exactly the reference walk's output.
        let mut reference = RateModel::new(cfg.clone());
        let mut evolved = vec![0.0f64; n];
        let mut resets = 0;
        // Full and censored observations, gated ticks, silence, the
        // impossible observation (every bin's likelihood overflows: the
        // update is skipped) and the burst after silence.
        let observations = [
            Some((2.0, tick)),
            None,
            Some((0.0, tick)),
            Some((3.5, 0.013)),
            Some((1e308, tick)),
            None,
            Some((1e6, tick)),
            Some((4.0, tick)),
        ];
        for (t, &observation) in observations.iter().cycle().take(64).enumerate() {
            model
                .kernel()
                .evolve_into_reference(model.distribution(), &mut evolved);
            model.evolve();
            reference.evolve();
            assert_eq!(
                bits(model.distribution()),
                bits(&evolved),
                "{n} bins, tick {t}: evolve"
            );
            assert_eq!(bits(reference.distribution()), bits(&evolved));
            if let Some((packets, exposure_secs)) = observation {
                model.observe_exposed(packets, exposure_secs);
                reference.observe_exposed_reference(packets, exposure_secs);
            }
            assert_eq!(
                bits(model.distribution()),
                bits(reference.distribution()),
                "{n} bins, tick {t} ({observation:?})"
            );
            let uniform = (1.0 / n as f64).to_bits();
            resets += usize::from(model.distribution().iter().all(|p| p.to_bits() == uniform));
        }
        let floorless = cfg.likelihood_floor == 0.0;
        assert_eq!(
            resets > 0,
            floorless,
            "{n} bins: {resets} resets to uniform"
        );
    }
}

#[test]
fn windowed_search_masks_sub_epsilon_bins_like_the_reference() {
    // Three bins, one tick: bins 0 and 1 deliver by count 3, bin 2 by
    // count 6. Bin 1 holds mass below the mask, and counting it would
    // lift the CDF at count 3 from just under the median to just over.
    let (num_bins, count_max) = (3usize, 10usize);
    let rows: Vec<f32> = [3, 3, 6]
        .iter()
        .flat_map(|&reached_at| (0..count_max).map(move |c| if c < reached_at { 0.0 } else { 1.0 }))
        .collect();
    let tables = ForecastTables::from_rows(num_bins, 1, count_max, &rows);
    let posterior = [0.5 - 0.5e-12, 0.9e-12, 0.5];
    assert!(posterior[0] + posterior[1] >= 0.5 && posterior[0] < 0.5);
    let fast = tables
        .forecast_into(&posterior, 50.0, &mut ForecastScratch::default())
        .clone();
    let slow = tables
        .forecast_into_reference(&posterior, 50.0, &mut ForecastScratch::default())
        .clone();
    assert_eq!(fast.cumulative_units, vec![6]);
    assert_eq!(fast, slow);
}

#[test]
fn likelihood_memo_shares_hits_memoises_skips_and_evicts_at_the_cap() {
    // The memo is per thread: a thread of this test's own starts empty.
    std::thread::spawn(|| {
        let cfg = SproutConfig::test_small();
        let tick = cfg.tick_secs();
        let mut a = RateModel::new(cfg.clone());
        let mut b = RateModel::new(cfg.clone());
        let mut uncached = RateModel::new(cfg);
        assert_eq!(likelihood_memo_occupancy(), (0, 0));

        // Two models on one thread share one entry per observation.
        for model in [&mut a, &mut b] {
            model.evolve();
            model.observe_exposed(2.0, tick);
            model.observe_exposed(2.0, tick);
        }
        assert_eq!(likelihood_memo_occupancy().0, 1);
        uncached.evolve();
        uncached.observe_exposed_reference(2.0, tick);
        uncached.observe_exposed_reference(2.0, tick);
        assert_eq!(bits(a.distribution()), bits(uncached.distribution()));
        assert_eq!(bits(b.distribution()), bits(uncached.distribution()));

        // A packet count so large that every bin's log-likelihood
        // overflows is impossible under all of them: the update is
        // skipped, and the memo remembers that outcome too.
        let before = bits(a.distribution());
        a.observe_exposed(1e308, tick);
        a.observe_exposed(1e308, tick);
        uncached.observe_exposed_reference(1e308, tick);
        assert_eq!(bits(a.distribution()), before);
        assert_eq!(bits(uncached.distribution()), before);
        assert_eq!(likelihood_memo_occupancy().0, 2);

        // Enough distinct observations to overflow the budget: the memo
        // never exceeds it, starts over instead, and results stay exact
        // on both sides of the eviction.
        let mut evicted = false;
        let mut entries = 2;
        for k in 0..4_000u32 {
            let packets = k as f64 * 0.001;
            let exposure = if k % 2 == 0 { tick } else { 0.013 };
            a.evolve();
            uncached.evolve();
            a.observe_exposed(packets, exposure);
            uncached.observe_exposed_reference(packets, exposure);
            assert_eq!(bits(a.distribution()), bits(uncached.distribution()));
            let (now, bytes) = likelihood_memo_occupancy();
            assert!(bytes <= LIKELIHOOD_MEMO_MAX_BYTES, "{bytes} bytes");
            evicted |= now < entries;
            entries = now;
        }
        assert!(evicted, "4000 entries fit a 1 MB budget?");
        // The first observation is a miss again, and still exact.
        a.observe_exposed(2.0, tick);
        uncached.observe_exposed_reference(2.0, tick);
        assert_eq!(bits(a.distribution()), bits(uncached.distribution()));
    })
    .join()
    .expect("memo test thread");
}

#[test]
fn unit_test_geometry_tables_match_reference_byte_for_byte() {
    // One fixed data point beyond the randomized small geometries: the
    // geometry every unit test runs on, serialized form and all.
    let cfg = SproutConfig::test_small();
    let kernel = TransitionKernel::new(&cfg);
    let fast = ForecastTables::build(&cfg, &kernel);
    let reference = ForecastTables::build_reference(&cfg, &kernel);
    assert_eq!(fast.to_bytes(), reference.to_bytes());
}

#[test]
fn paper_geometry_table_bytes_are_pinned() {
    // The one geometry every experiment declares. The constant was
    // recorded from the per-start forward DP this build replaced (commit
    // 436129b), so a table that moves by one bit anywhere fails here —
    // and with it every cached cell computed from the old bytes would be
    // stale: that is an ENGINE_VERSION bump, not a new constant. It
    // fingerprints the dense image that forward DP's payload was — the
    // three dimensions, then every value row-major `(tick, count, bin)` —
    // rebuilt here through `conditional_cdf`, which is what proves the
    // band layout lossless.
    let cfg = SproutConfig::paper();
    let tables = ForecastTables::build(&cfg, &TransitionKernel::new(&cfg));
    let (n, h, cm) = (cfg.num_bins, cfg.horizon_ticks, cfg.count_max);
    let mut dense = sprout_cache::ByteWriter::with_capacity(24 + 4 * n * h * cm);
    dense.u64(n as u64).u64(h as u64).u64(cm as u64);
    for tick in 0..h {
        for count in 0..cm {
            for bin in 0..n {
                dense.f32(tables.conditional_cdf(tick, count, bin) as f32);
            }
        }
    }
    assert_eq!(
        sprout_cache::fingerprint64(&dense.finish()),
        0x1fe6_1f55_b088_2bdf
    );
    // The band payload itself, recorded from the row-major gather the
    // strip-major one replaced (see the next test).
    assert_eq!(
        sprout_cache::fingerprint64(&tables.to_bytes()),
        0xa0db_1d50_0066_46fd
    );
}

#[test]
fn table_bytes_are_pinned_where_the_strips_end() {
    // `build` and `build_reference` agree only to rounding in f64, so
    // they cannot show that the strip-major gather adds the row-major
    // gather's operands in its order. These payload fingerprints were
    // recorded from that row-major gather (the parent of the change that
    // replaced it) and must never be re-recorded: a moved bit is an
    // ENGINE_VERSION bump.
    let pins = [
        // The geometry every unit test runs on.
        (SproutConfig::test_small(), 0x7ccc_9fa6_c46a_7fb4),
        // A count axis ending 33 counts into its second 64-count strip,
        // with rows +0.0 across whole strips (1 908 skipped sources).
        (cfg_with(48, 150.0, 600.0, 6, 97), 0x8fa0_5df1_a5a6_542a),
        // A grid so narrow that every row reflects (no shared band), on
        // an axis whose last strip is one count.
        (cfg_with(9, 300.0, 100.0, 4, 65), 0xec82_875c_6286_8977),
    ];
    for (cfg, pin) in pins {
        let tables = ForecastTables::build(&cfg, &TransitionKernel::new(&cfg));
        assert_eq!(
            sprout_cache::fingerprint64(&tables.to_bytes()),
            pin,
            "{} bins, count axis {}",
            cfg.num_bins,
            cfg.count_max
        );
    }
}

#[test]
fn paper_geometry_table_footprint_is_pinned() {
    // The paper table keeps only its uncertain band: ≈ 1.5 MB of heap
    // where the dense layout held 6 MiB, however the table was made.
    let cfg = SproutConfig::paper();
    let tables = ForecastTables::get(&cfg);
    let decoded = ForecastTables::from_bytes(&tables.to_bytes()).expect("a table decodes");
    for (how, t) in [("fetched", &*tables), ("decoded", &decoded)] {
        assert!(
            t.heap_bytes() <= 1_800_000,
            "the {how} paper table holds {} bytes",
            t.heap_bytes()
        );
    }
}

#[test]
#[ignore = "the forward reference at paper scale: seconds optimised, minutes not; CI's release job runs it"]
fn paper_geometry_tables_match_reference_byte_for_byte() {
    let cfg = SproutConfig::paper();
    let kernel = TransitionKernel::new(&cfg);
    let fast = ForecastTables::build(&cfg, &kernel);
    let reference = ForecastTables::build_reference(&cfg, &kernel);
    assert!(
        fast.to_bytes() == reference.to_bytes(),
        "the paper-geometry table differs from the forward reference"
    );
}

#[test]
fn engine_version_unchanged_by_kernel_restructuring() {
    // The chunked kernels preserve accumulation order, so canonical
    // output is unchanged and the kernel restructuring shipped without
    // an engine-version bump (the version sat at 3 before and after).
    // The pin tracks the *current* version — v4 is the fault-injection
    // layer, v5 the multi-session serve workload, v6 measured-trace
    // links + the cell-series attachment, all deliberate identity
    // changes with matching golden churn — so that bumping it without
    // regenerating the golden fingerprints (or vice versa) is still
    // the bug this assertion catches.
    assert_eq!(sprout_bench::ENGINE_VERSION, 6);
    let golden = include_str!("golden_fingerprints.tsv");
    let rows = golden.lines().filter(|l| !l.starts_with('#')).count();
    assert!(
        rows >= 5,
        "golden fingerprint table went missing ({rows} rows)"
    );
}
