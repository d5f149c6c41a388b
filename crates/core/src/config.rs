//! Sprout's parameters.
//!
//! The paper freezes its parameters before collecting traces (§3.1, §5).
//! The numbers no experiment varies are constants: 20 ms ticks
//! ([`TICK`]), a 1500-byte MTU ([`MTU_BYTES`]), λz = 1/s
//! ([`OUTAGE_ESCAPE_RATE`]), a 100 ms (5-tick) sender window lookahead
//! ([`LOOKAHEAD_TICKS`]), a 10 ms reorder window ([`REORDER_WINDOW`]) and
//! one heartbeat per idle tick ([`HEARTBEAT_INTERVAL`]). [`SproutConfig`]
//! holds the rest: the rate grid (256 bins over 0..1000 MTU/s), the table
//! geometry (σ = 200 MTU/s/√s, an 8-tick forecast, the count axis), the
//! likelihood floor and the forecast confidence (95%, i.e. the 5th
//! percentile). Those are the defaults here; the table and kernel suites
//! vary the geometry, and Figure 9 sweeps the confidence.

use crate::wire::{FULL_HEADER_LEN, WIRE_HORIZON};
use sprout_trace::{Duration, MTU_BYTES, TICK};

/// Outage escape rate λz, 1/s (§3.1).
pub const OUTAGE_ESCAPE_RATE: f64 = 1.0;

/// Sender window lookahead in ticks (§3.5: 100 ms).
pub const LOOKAHEAD_TICKS: usize = 5;

/// Reorder tolerance for the throwaway number (§3.4: packets sent more
/// than 10 ms apart are assumed not to reorder).
pub const REORDER_WINDOW: Duration = Duration::from_millis(10);

/// Idle-sender heartbeat interval (§3.2; one per tick).
pub const HEARTBEAT_INTERVAL: Duration = TICK;

// The lookahead fits inside the forecast a packet carries.
const _: () = assert!(LOOKAHEAD_TICKS >= 1 && LOOKAHEAD_TICKS <= WIRE_HORIZON);
// A data packet is a full header plus a `u16` payload length.
const _: () = assert!(
    FULL_HEADER_LEN < MTU_BYTES as usize
        && MTU_BYTES as usize <= FULL_HEADER_LEN + u16::MAX as usize
);

/// The inference layer's parameters: the rate grid and table geometry
/// feed the precomputed tables; the confidence picks the forecast.
#[derive(Clone, Debug, PartialEq)]
pub struct SproutConfig {
    /// Number of discretized rate values (paper: 256).
    pub num_bins: usize,
    /// Largest modeled rate, MTU-sized packets per second (paper: 1000).
    pub max_rate_pps: f64,
    /// Brownian noise power σ, packets/s/√s (paper: 200).
    pub sigma: f64,
    /// Forecast horizon in ticks (paper: 8 → 160 ms).
    pub horizon_ticks: usize,
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
}

impl Default for SproutConfig {
    fn default() -> Self {
        SproutConfig {
            num_bins: 256,
            max_rate_pps: 1000.0,
            sigma: 200.0,
            horizon_ticks: 8,
            forecast_percentile: 5.0,
            count_max: 768,
            likelihood_floor: 1e-12,
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

    /// Validate invariants; called by the model constructors.
    pub fn validate(&self) {
        assert!(self.num_bins >= 2, "need at least 2 rate bins");
        assert!(self.max_rate_pps > 0.0);
        assert!(self.sigma > 0.0);
        assert!(self.horizon_ticks >= 1);
        assert!(self.forecast_percentile > 0.0 && self.forecast_percentile < 100.0);
        assert!(self.count_max >= 8);
    }

    /// Key identifying the precomputed-table inputs (used for caching).
    pub(crate) fn table_key(&self) -> TableKey {
        TableKey {
            num_bins: self.num_bins,
            horizon_ticks: self.horizon_ticks,
            count_max: self.count_max,
            max_rate_bits: self.max_rate_pps.to_bits(),
            sigma_bits: self.sigma.to_bits(),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_3() {
        assert_eq!(TICK.as_millis(), 20);
        assert_eq!(MTU_BYTES, 1500);
        assert_eq!(OUTAGE_ESCAPE_RATE, 1.0);
        assert_eq!(LOOKAHEAD_TICKS, 5);
        assert_eq!(REORDER_WINDOW.as_millis(), 10);
        assert_eq!(HEARTBEAT_INTERVAL, TICK);
        let c = SproutConfig::paper();
        assert_eq!(c.num_bins, 256);
        assert_eq!(c.max_rate_pps, 1000.0);
        assert_eq!(c.sigma, 200.0);
        assert_eq!(c.horizon_ticks, 8);
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
    fn test_small_is_valid() {
        SproutConfig::test_small().validate();
    }
}
