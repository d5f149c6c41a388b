//! Property suite for the forecast-table decoder (vendored proptest, 64
//! cases per property). A `forecast-table` payload comes off disk, and a
//! file can pass the cache's checksum and still not be one this build
//! wrote, so `ForecastTables::from_bytes` must turn *any* byte string
//! into a table or `None` — never a panic, never an allocation sized by
//! what a header claims — and whatever it accepts must re-encode to the
//! bytes it came from.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use sprout_core::{ForecastTables, SproutConfig, TransitionKernel};

/// The unit-test geometry's payload, built once per test binary.
fn payload() -> &'static [u8] {
    static PAYLOAD: OnceLock<Vec<u8>> = OnceLock::new();
    PAYLOAD.get_or_init(|| {
        let cfg = SproutConfig::test_small();
        ForecastTables::build(&cfg, &TransitionKernel::new(&cfg)).to_bytes()
    })
}

/// What `from_bytes` may answer for `bytes`: a miss, or a table that
/// re-encodes to exactly `bytes`.
fn check_decode(bytes: &[u8]) -> Result<(), String> {
    if let Some(tables) = ForecastTables::from_bytes(bytes) {
        prop_assert!(
            tables.to_bytes() == bytes,
            "decoded, but re-encodes differently"
        );
    }
    Ok(())
}

/// Byte offset of span `span`'s bounds in [`payload`]: each span is its
/// `first` and `end` bins, then eight f32 values per stored bin.
fn span_offset(bytes: &[u8], span: usize) -> usize {
    let mut at = 24;
    for _ in 0..span {
        let first = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let end = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        at += 8 + 32 * (end - first) as usize;
    }
    at
}

#[test]
fn the_real_payload_round_trips_and_every_header_cut_misses() {
    let bytes = payload();
    check_decode(bytes).unwrap();
    assert!(ForecastTables::from_bytes(bytes).is_some());
    // Every cut through the header and the first spans, and the last ones.
    for cut in (0..span_offset(bytes, 3)).chain(bytes.len() - 64..bytes.len()) {
        assert!(
            ForecastTables::from_bytes(&bytes[..cut]).is_none(),
            "cut at {cut}"
        );
    }
}

proptest! {
    #[test]
    fn truncations_and_extensions_miss(cut in 0usize..1 << 20, extra in vec(any::<u8>(), 1..9)) {
        let bytes = payload();
        let cut = cut % bytes.len();
        prop_assert!(ForecastTables::from_bytes(&bytes[..cut]).is_none(), "cut at {}", cut);
        let mut longer = bytes.to_vec();
        longer.extend_from_slice(&extra);
        prop_assert!(ForecastTables::from_bytes(&longer).is_none(), "{} bytes appended", extra.len());
    }

    #[test]
    fn bit_flips_miss_or_round_trip(flips in vec(any::<u64>(), 1..4)) {
        let mut bytes = payload().to_vec();
        let bits = bytes.len() as u64 * 8;
        for flip in flips {
            let bit = (flip % bits) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        check_decode(&bytes)?;
    }

    #[test]
    fn lying_dimensions_miss_or_round_trip(
        field in 0usize..3,
        value in any::<u64>(),
        small in 0u64..600,
        pick_small in any::<bool>(),
    ) {
        // Absurd claims (allocation sizes, overflowing products) and
        // plausible ones (a few bins or counts off).
        let mut bytes = payload().to_vec();
        let claim = if pick_small { small } else { value };
        bytes[8 * field..8 * field + 8].copy_from_slice(&claim.to_le_bytes());
        check_decode(&bytes)?;
    }

    #[test]
    fn lying_span_bounds_miss_or_round_trip(
        span in 0usize..256,
        which in 0usize..2,
        value in any::<u32>(),
        nudge in 0u32..5,
        pick_nudge in any::<bool>(),
    ) {
        // A span's bounds moved anywhere, or by a few bins either way (the
        // unit-test geometry has 8 ticks × 32 windows of spans).
        let mut bytes = payload().to_vec();
        let at = span_offset(&bytes, span) + 4 * which;
        let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let claim = if pick_nudge { old.wrapping_add(nudge).wrapping_sub(2) } else { value };
        bytes[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        check_decode(&bytes)?;
    }

    #[test]
    fn arbitrary_bytes_after_a_real_header_miss_or_round_trip(
        rows in vec(any::<u32>(), 0..64),
        count_max in 1u64..40,
    ) {
        // A well-formed header over noise: one bin, up to five windows a
        // tick, one tick per two noise words — spans and values are
        // whatever the noise says.
        let mut bytes = Vec::new();
        for dim in [1, (rows.len() / 2).max(1) as u64, count_max] {
            bytes.extend_from_slice(&dim.to_le_bytes());
        }
        for word in &rows {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        check_decode(&bytes)?;
    }
}
