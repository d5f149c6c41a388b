//! Sprout tuning parameters.
//!
//! The paper freezes its parameters before collecting traces (§3.1, §5):
//! σ = 200 MTU/s/√s, λz = 1/s, 256 rate bins over 0..1000 MTU/s, 20 ms
//! ticks, an 8-tick forecast, a 100 ms (5-tick) sender window lookahead,
//! and a 95%-confidence (5th-percentile) forecast. Those are the defaults
//! here; Figure 9 sweeps the confidence parameter.

use crate::wire::FULL_HEADER_LEN;
use sprout_trace::{Duration, MTU_BYTES, TICK};

/// All tunables of a Sprout session. The model/forecast fields feed the
/// precomputed tables; the protocol fields govern the sender and wire.
#[derive(Clone, Debug, PartialEq)]
pub struct SproutConfig {
    /// Inference tick length (paper: 20 ms).
    pub tick: Duration,
    /// Number of discretized rate values (paper: 256).
    pub num_bins: usize,
    /// Largest modeled rate, MTU-sized packets per second (paper: 1000).
    pub max_rate_pps: f64,
    /// Brownian noise power σ, packets/s/√s (paper: 200).
    pub sigma: f64,
    /// Outage escape rate λz, 1/s (paper: 1).
    pub outage_escape_rate: f64,
    /// Forecast horizon in ticks (paper: 8 → 160 ms).
    pub horizon_ticks: usize,
    /// Sender window lookahead in ticks (paper: 5 → 100 ms).
    pub lookahead_ticks: usize,
    /// Forecast percentile: the forecast is a count the link will deliver
    /// with probability `100 − forecast_percentile` (paper default 5.0,
    /// i.e. 95% confidence; Figure 9 sweeps this).
    pub forecast_percentile: f64,
    /// Cumulative-volume axis size of the forecast tables, in quarter-MTU
    /// units. 768 quarters = 192 MTU over 160 ms ≈ 14 Mbps, above the
    /// rate grid's 11 Mbps ceiling.
    pub count_max: usize,
    /// Relative likelihood floor guarding against posterior collapse on
    /// surprising observations.
    pub likelihood_floor: f64,
    /// MTU in bytes; the unit of the rate grid and forecasts.
    pub mtu_bytes: u32,
    /// Reorder tolerance for the throwaway number (§3.4: packets sent
    /// more than 10 ms apart are assumed not to reorder).
    pub reorder_window: Duration,
    /// Idle-sender heartbeat interval (§3.2; one per tick).
    pub heartbeat_interval: Duration,
}

impl Default for SproutConfig {
    fn default() -> Self {
        SproutConfig {
            tick: TICK,
            num_bins: 256,
            max_rate_pps: 1000.0,
            sigma: 200.0,
            outage_escape_rate: 1.0,
            horizon_ticks: 8,
            lookahead_ticks: 5,
            forecast_percentile: 5.0,
            count_max: 768,
            likelihood_floor: 1e-12,
            mtu_bytes: MTU_BYTES,
            reorder_window: Duration::from_millis(10),
            heartbeat_interval: TICK,
        }
    }
}

impl SproutConfig {
    /// The paper's frozen configuration (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// The paper configuration at a different forecast confidence (Fig. 9:
    /// confidence ∈ {95, 75, 50, 25, 5} ⇒ percentile {5, 25, 50, 75, 95}).
    pub fn with_confidence_percent(confidence: f64) -> Self {
        assert!((0.0..100.0).contains(&confidence) && confidence > 0.0);
        SproutConfig {
            forecast_percentile: 100.0 - confidence,
            ..Self::default()
        }
    }

    /// A scaled-down configuration for fast unit tests: 64 bins to 250
    /// pps, short count axis. Keeps every code path, costs milliseconds.
    pub fn test_small() -> Self {
        SproutConfig {
            num_bins: 64,
            max_rate_pps: 250.0,
            sigma: 100.0,
            count_max: 256,
            ..Self::default()
        }
    }

    /// Rate-grid step in packets per second.
    pub fn bin_width_pps(&self) -> f64 {
        self.max_rate_pps / (self.num_bins - 1) as f64
    }

    /// Rate value of bin `i` in packets per second.
    pub fn bin_rate_pps(&self, i: usize) -> f64 {
        i as f64 * self.bin_width_pps()
    }

    /// Tick length in seconds.
    pub fn tick_secs(&self) -> f64 {
        self.tick.as_secs_f64()
    }

    /// Validate invariants; called by the model constructors.
    pub fn validate(&self) {
        assert!(self.num_bins >= 2, "need at least 2 rate bins");
        assert!(self.max_rate_pps > 0.0);
        assert!(self.sigma > 0.0);
        assert!(self.outage_escape_rate >= 0.0);
        assert!(self.horizon_ticks >= 1);
        assert!(
            self.lookahead_ticks >= 1 && self.lookahead_ticks <= self.horizon_ticks,
            "lookahead must fit inside the forecast horizon"
        );
        assert!(self.forecast_percentile > 0.0 && self.forecast_percentile < 100.0);
        assert!(self.count_max >= 8);
        assert!(self.tick > Duration::ZERO);
        // A data packet is a full header plus a `u16` payload length.
        let mtu = self.mtu_bytes as usize;
        assert!(
            FULL_HEADER_LEN < mtu && mtu <= FULL_HEADER_LEN + u16::MAX as usize,
            "mtu_bytes {mtu} must fit a {FULL_HEADER_LEN}-byte header and a payload of 1..={}",
            u16::MAX
        );
    }

    /// Key identifying the precomputed-table inputs (used for caching).
    pub(crate) fn table_key(&self) -> TableKey {
        TableKey {
            num_bins: self.num_bins,
            horizon_ticks: self.horizon_ticks,
            count_max: self.count_max,
            max_rate_bits: self.max_rate_pps.to_bits(),
            sigma_bits: self.sigma.to_bits(),
            escape_bits: self.outage_escape_rate.to_bits(),
            tick_us: self.tick.as_micros(),
        }
    }
}

/// Hashable identity of the model/forecast table inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct TableKey {
    num_bins: usize,
    horizon_ticks: usize,
    count_max: usize,
    max_rate_bits: u64,
    sigma_bits: u64,
    escape_bits: u64,
    tick_us: u64,
}

impl TableKey {
    /// Stable byte encoding of the full key, for content-addressing the
    /// on-disk forecast-table artifact. Field order is frozen; any change
    /// to it must bump the table artifact's schema version.
    pub(crate) fn cache_key_bytes(&self) -> Vec<u8> {
        let mut w = sprout_cache::ByteWriter::with_capacity(7 * 8);
        w.u64(self.num_bins as u64)
            .u64(self.horizon_ticks as u64)
            .u64(self.count_max as u64)
            .u64(self.max_rate_bits)
            .u64(self.sigma_bits)
            .u64(self.escape_bits)
            .u64(self.tick_us);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_3() {
        let c = SproutConfig::paper();
        assert_eq!(c.tick.as_millis(), 20);
        assert_eq!(c.num_bins, 256);
        assert_eq!(c.max_rate_pps, 1000.0);
        assert_eq!(c.sigma, 200.0);
        assert_eq!(c.outage_escape_rate, 1.0);
        assert_eq!(c.horizon_ticks, 8);
        assert_eq!(c.lookahead_ticks, 5);
        assert_eq!(c.forecast_percentile, 5.0);
        c.validate();
    }

    #[test]
    fn confidence_maps_to_percentile() {
        assert_eq!(
            SproutConfig::with_confidence_percent(95.0).forecast_percentile,
            5.0
        );
        assert_eq!(
            SproutConfig::with_confidence_percent(25.0).forecast_percentile,
            75.0
        );
    }

    #[test]
    fn bin_grid_spans_zero_to_max() {
        let c = SproutConfig::paper();
        assert_eq!(c.bin_rate_pps(0), 0.0);
        assert!((c.bin_rate_pps(255) - 1000.0).abs() < 1e-9);
        assert!((c.bin_width_pps() - 1000.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn table_key_distinguishes_configs() {
        let a = SproutConfig::paper().table_key();
        let b = SproutConfig {
            sigma: 100.0,
            ..SproutConfig::paper()
        }
        .table_key();
        assert_ne!(a, b);
        let c = SproutConfig {
            forecast_percentile: 50.0, // not a table input
            ..SproutConfig::paper()
        }
        .table_key();
        assert_eq!(a, c);
    }

    #[test]
    #[should_panic]
    fn lookahead_beyond_horizon_is_rejected() {
        SproutConfig {
            lookahead_ticks: 9,
            ..SproutConfig::paper()
        }
        .validate();
    }

    #[test]
    fn test_small_is_valid() {
        SproutConfig::test_small().validate();
    }

    fn with_mtu(mtu_bytes: u32) -> SproutConfig {
        SproutConfig {
            mtu_bytes,
            ..SproutConfig::paper()
        }
    }

    #[test]
    fn mtu_bounds_are_a_one_byte_and_a_u16_payload() {
        with_mtu(61).validate();
        with_mtu(65_595).validate();
    }

    #[test]
    #[should_panic(expected = "mtu_bytes 60 must fit a 60-byte header")]
    fn mtu_of_a_bare_full_header_is_rejected() {
        with_mtu(60).validate();
    }

    #[test]
    #[should_panic(expected = "mtu_bytes 65596 must fit a 60-byte header")]
    fn mtu_past_a_u16_payload_is_rejected() {
        with_mtu(65_596).validate();
    }
}
