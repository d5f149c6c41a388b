//! The forecaster abstraction: Sprout's Bayesian model and the
//! Sprout-EWMA ablation (§5.3) behind one interface, so the rest of the
//! protocol is identical for both (as in the paper: "The rest of the
//! protocol is the same as Sprout").

use std::sync::Arc;

use crate::config::SproutConfig;
use crate::forecast::{ForecastScratch, ForecastTables};
use crate::model::RateModel;
use sprout_trace::{MTU_BYTES, TICK};

/// What the receiver saw during one tick: `bytes` of data arrived while
/// the sender's queue was (believed) non-empty for `exposure_secs` of the
/// tick. The time-to-next mechanism (§3.2) supplies the exposure: spans
/// the sender promised to be idle are excluded, so a window-limited burst
/// that crossed in 3 ms is correctly read as a fast link rather than
/// averaged over the whole tick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TickObservation {
    /// Data bytes that arrived during the exposed part of the tick.
    pub bytes: u64,
    /// Seconds of the tick during which arrivals were informative.
    pub exposure_secs: f64,
}

/// Produces cumulative delivery forecasts from per-tick arrival
/// observations. `tick(None)` means the whole tick was gated by the
/// time-to-next mechanism (§3.2): the queue was simply empty, so no
/// inference about the link should be drawn.
pub trait Forecaster: Send {
    /// Advance one tick, optionally incorporating an observation.
    fn tick(&mut self, observation: Option<TickObservation>);

    /// Fill `out` (cleared first) with the cumulative bytes the link is
    /// predicted to deliver within the first `t+1` ticks from now, for
    /// `t` in `0..horizon`. Non-decreasing. Takes `&mut self` so
    /// implementations can reuse internal scratch buffers — this runs in
    /// the receiver's per-poll hot path.
    fn forecast_cumulative_bytes_into(&mut self, out: &mut Vec<u64>);

    /// Current central rate estimate in bits per second (diagnostics).
    fn rate_estimate_bps(&self) -> f64;
}

/// The paper's forecaster: Bayesian inference on the doubly-stochastic
/// link model, forecasting at a cautious percentile (§3.1–3.3).
pub struct BayesianForecaster {
    /// The posterior; it holds the configuration.
    model: RateModel,
    tables: Arc<ForecastTables>,
    scratch: ForecastScratch,
}

impl BayesianForecaster {
    /// Build (or fetch from the global cache) the forecaster for `cfg`.
    /// The forecast tables and the model's transition kernel both come
    /// from the per-geometry cache, so forecasters on one link
    /// configuration share one allocation of each.
    pub fn new(cfg: SproutConfig) -> Self {
        cfg.validate();
        let (tables, kernel) = ForecastTables::get_with_kernel(&cfg);
        BayesianForecaster {
            model: RateModel::with_kernel(cfg, kernel),
            tables,
            scratch: ForecastScratch::default(),
        }
    }

    /// The underlying posterior (diagnostics and tests).
    pub fn model(&self) -> &RateModel {
        &self.model
    }

    /// The shared table handle this forecaster computes against. Session
    /// pools use it to assert every session of one link group shares a
    /// single build.
    pub fn tables(&self) -> &Arc<ForecastTables> {
        &self.tables
    }
}

impl Forecaster for BayesianForecaster {
    fn tick(&mut self, observation: Option<TickObservation>) {
        self.model.evolve();
        if let Some(obs) = observation {
            let packets = obs.bytes as f64 / MTU_BYTES as f64;
            self.model.observe_exposed(packets, obs.exposure_secs);
        }
    }

    fn forecast_cumulative_bytes_into(&mut self, out: &mut Vec<u64>) {
        let f = self.tables.forecast_into(
            self.model.distribution(),
            self.model.config().forecast_percentile,
            &mut self.scratch,
        );
        out.clear();
        out.extend((0..f.horizon()).map(|t| f.cumulative_bytes(t, MTU_BYTES)));
    }

    fn rate_estimate_bps(&self) -> f64 {
        self.model.mean_rate_pps() * MTU_BYTES as f64 * 8.0
    }
}

/// Sprout-EWMA (§5.3): an exponentially-weighted moving average of the
/// observed per-tick throughput, extrapolated flat across the horizon —
/// no caution, no model.
pub struct EwmaForecaster {
    cfg: SproutConfig,
    /// Smoothed estimate of bytes delivered per tick.
    bytes_per_tick: f64,
}

impl EwmaForecaster {
    /// Smoothing gain for samples above the estimate. The paper does not
    /// publish Sprout-EWMA's gain.
    pub const ALPHA_UP: f64 = 0.25;

    /// Smoothing gain for samples below the estimate (≈ halving in 9
    /// ticks / 180 ms). Smaller: §5.3 describes the EWMA as "a low-pass
    /// filter, which does not immediately respond to sudden rate
    /// reductions or outages" — that sluggishness is what costs
    /// Sprout-EWMA its delay.
    pub const ALPHA_DOWN: f64 = 0.08;

    /// Multiplicative estimate growth per *gated* tick. Gated ticks mean
    /// the sender underflowed the link, which is exactly when the
    /// estimate may be stale-low; without some upward drift a 1-packet
    /// flight chain can freeze the estimate forever (the flight both
    /// closes the previous idle span and opens the next, leaving zero
    /// exposure). This is the EWMA analogue of the Bayesian model's
    /// Brownian diffusion during unobserved ticks.
    pub const GATED_GROWTH: f64 = 1.03;

    /// New EWMA forecaster.
    pub fn new(cfg: SproutConfig) -> Self {
        cfg.validate();
        EwmaForecaster {
            cfg,
            // Start at one MTU per tick: lets the sender ramp from idle
            // without an initial forecast of zero.
            bytes_per_tick: MTU_BYTES as f64,
        }
    }

    /// Current smoothed per-tick byte estimate.
    pub fn bytes_per_tick(&self) -> f64 {
        self.bytes_per_tick
    }
}

impl Forecaster for EwmaForecaster {
    fn tick(&mut self, observation: Option<TickObservation>) {
        let tau = TICK.as_secs_f64();
        let ceiling = self.cfg.max_rate_pps * tau * MTU_BYTES as f64;
        match observation {
            Some(obs) => {
                // Normalize to a full-tick rate through the exposure,
                // clamped at the same ceiling as the Bayesian grid so a
                // tiny exposure cannot inject an absurd sample.
                let sample = (obs.bytes as f64 * tau / obs.exposure_secs).min(ceiling);
                let gain = if sample >= self.bytes_per_tick {
                    Self::ALPHA_UP
                } else {
                    Self::ALPHA_DOWN
                };
                self.bytes_per_tick = (1.0 - gain) * self.bytes_per_tick + gain * sample;
            }
            None => {
                // Underflow (gated): probe upward slowly; see GATED_GROWTH.
                // The floor keeps multiplicative growth alive after an
                // outage decays the estimate to ~0 (0 × 1.03 = 0 forever).
                let floor = MTU_BYTES as f64 / 8.0;
                self.bytes_per_tick = (self.bytes_per_tick * Self::GATED_GROWTH)
                    .max(floor)
                    .min(ceiling);
            }
        }
    }

    fn forecast_cumulative_bytes_into(&mut self, out: &mut Vec<u64>) {
        out.clear();
        out.extend((1..=self.cfg.horizon_ticks).map(|k| (self.bytes_per_tick * k as f64) as u64));
    }

    fn rate_estimate_bps(&self) -> f64 {
        self.bytes_per_tick * 8.0 / TICK.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full-tick observation of `bytes` (20 ms exposure).
    fn obs(bytes: u64) -> Option<TickObservation> {
        Some(TickObservation {
            bytes,
            exposure_secs: 0.02,
        })
    }

    #[test]
    fn bayesian_forecast_tracks_observed_rate() {
        let cfg = SproutConfig::test_small();
        let mut f = BayesianForecaster::new(cfg.clone());
        // 100 pps → 2 MTU per tick = 3000 bytes.
        for _ in 0..80 {
            f.tick(obs(3_000));
        }
        let mut fc = Vec::new();
        f.forecast_cumulative_bytes_into(&mut fc);
        assert_eq!(fc.len(), cfg.horizon_ticks);
        // The cautious forecast should be positive but below the true
        // delivered volume (8 ticks × 3000 = 24000).
        let last = *fc.last().unwrap();
        assert!(last > 0, "forecast must be positive after steady input");
        assert!(
            last <= 24_000,
            "cautious forecast {last} must not exceed truth"
        );
        for w in fc.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn bayesian_gated_ticks_do_not_collapse_estimate() {
        let cfg = SproutConfig::test_small();
        let mut f = BayesianForecaster::new(cfg);
        for _ in 0..60 {
            f.tick(obs(3_000));
        }
        let before = f.rate_estimate_bps();
        // 25 gated ticks (sender idle): estimate decays only via model
        // diffusion, not observation.
        for _ in 0..25 {
            f.tick(None);
        }
        let after = f.rate_estimate_bps();
        assert!(
            after > before * 0.5,
            "gated ticks should not collapse the estimate: {before} → {after}"
        );
        // Whereas observing zeros must collapse it.
        for _ in 0..25 {
            f.tick(obs(0));
        }
        assert!(f.rate_estimate_bps() < before * 0.5);
    }

    #[test]
    fn ewma_converges_to_observed_rate() {
        let cfg = SproutConfig::test_small();
        let mut f = EwmaForecaster::new(cfg.clone());
        for _ in 0..50 {
            f.tick(obs(6_000));
        }
        assert!((f.bytes_per_tick() - 6_000.0).abs() < 60.0);
        let mut fc = Vec::new();
        f.forecast_cumulative_bytes_into(&mut fc);
        // Flat extrapolation: tick k ≈ k × rate.
        assert!((fc[0] as f64 - 6_000.0).abs() < 100.0);
        let last = fc[cfg.horizon_ticks - 1] as f64;
        assert!((last - 6_000.0 * cfg.horizon_ticks as f64).abs() < 1_000.0);
    }

    #[test]
    fn ewma_is_a_low_pass_filter_on_outages() {
        // The §5.3 point: an EWMA reacts slowly to a sudden outage, while
        // the Bayesian model's cautious percentile reacts within ticks.
        let cfg = SproutConfig::test_small();
        let mut ewma = EwmaForecaster::new(cfg.clone());
        let mut bayes = BayesianForecaster::new(cfg);
        for _ in 0..60 {
            ewma.tick(obs(3_000));
            bayes.tick(obs(3_000));
        }
        // Outage begins: three silent (unexpectedly empty) ticks.
        for _ in 0..3 {
            ewma.tick(obs(0));
            bayes.tick(obs(0));
        }
        let (mut ewma_fc, mut bayes_fc) = (Vec::new(), Vec::new());
        ewma.forecast_cumulative_bytes_into(&mut ewma_fc);
        bayes.forecast_cumulative_bytes_into(&mut bayes_fc);
        let (ewma_fc, bayes_fc) = (ewma_fc[0], bayes_fc[0]);
        // EWMA still forecasts a sizable fraction of the old rate; the
        // cautious forecast has slammed to (near) zero.
        assert!(ewma_fc as f64 > 3_000.0 * 0.3, "ewma {ewma_fc}");
        assert!(bayes_fc < ewma_fc, "bayes {bayes_fc} < ewma {ewma_fc}");
    }

    #[test]
    fn ewma_gated_ticks_probe_upward_to_ceiling() {
        let cfg = SproutConfig::test_small();
        let ceiling = cfg.max_rate_pps * TICK.as_secs_f64() * MTU_BYTES as f64;
        let mut f = EwmaForecaster::new(cfg);
        for _ in 0..20 {
            f.tick(obs(4_500));
        }
        let before = f.bytes_per_tick();
        // Gated ticks (sender underflow) probe upward, never downward,
        // and never past the grid ceiling.
        for _ in 0..1_000 {
            f.tick(None);
            assert!(f.bytes_per_tick() >= before);
        }
        assert!(f.bytes_per_tick() <= ceiling + 1e-9);
        assert!(
            (f.bytes_per_tick() - ceiling).abs() < 1.0,
            "reaches ceiling"
        );
    }
}
