//! Property suite for Sprout's wire header (vendored-proptest, 64 cases
//! per property). A header arrives in a datagram somebody else wrote, so
//! `SproutHeader::decode` must turn *any* byte string into a header or a
//! [`WireError`] — never a panic, never a read past the end — and what
//! `encode_into` writes, `decode` must read back exactly, for every value
//! a field can hold.

use bytes::BytesMut;
use proptest::array::uniform8;
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use sprout_core::wire::{BASE_HEADER_LEN, FULL_HEADER_LEN, MAGIC};
use sprout_core::{SproutHeader, WireError, WireForecast};
use sprout_trace::{Duration, Timestamp};

type Fields = (u64, u64, u32, u64, u16);
type Feedback = (u64, u32, [u16; 8]);

/// `time_to_next` is a `u32` of microseconds on the wire, so that is the
/// range a header can carry.
fn header(
    (seq, throwaway, ttn_us, sent_us, payload_len): Fields,
    (heartbeat, datagram): (bool, bool),
    forecast: Option<Feedback>,
) -> SproutHeader {
    SproutHeader {
        seq,
        throwaway,
        time_to_next: Duration::from_micros(u64::from(ttn_us)),
        sent_at: Timestamp::from_micros(sent_us),
        heartbeat,
        datagram,
        forecast: forecast.map(
            |(recv_or_lost_bytes, tick, cumulative_units)| WireForecast {
                recv_or_lost_bytes,
                tick,
                cumulative_units,
            },
        ),
        payload_len,
    }
}

fn encoded(h: &SproutHeader) -> Vec<u8> {
    let mut buf = BytesMut::new();
    h.encode_into(&mut buf);
    buf.to_vec()
}

fn fields() -> impl Strategy<Value = Fields> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u64>(),
        any::<u16>(),
    )
}

fn feedback() -> impl Strategy<Value = Option<Feedback>> {
    option::of((any::<u64>(), any::<u32>(), uniform8(any::<u16>())))
}

/// What `decode` may answer for `bytes`: a header that fits inside them,
/// or an error that describes them.
fn check_decode(bytes: &[u8]) -> Result<(), String> {
    match SproutHeader::decode(bytes) {
        Ok(h) => prop_assert!(h.encoded_len() <= bytes.len()),
        Err(WireError::Truncated { need, have }) => {
            prop_assert!(have == bytes.len() && have < need && need <= FULL_HEADER_LEN)
        }
        Err(WireError::BadMagic(m)) => prop_assert!(m == bytes[0] && m != MAGIC),
        Err(WireError::UnknownFlags(f)) => prop_assert!(f == bytes[1] && f & !0b111 != 0),
    }
    Ok(())
}

proptest! {
    #[test]
    fn encode_then_decode_is_identity(
        fields in fields(),
        flags in (any::<bool>(), any::<bool>()),
        forecast in feedback(),
        trailing in vec(any::<u8>(), 0..64),
    ) {
        let h = header(fields, flags, forecast);
        let mut bytes = encoded(&h);
        prop_assert_eq!(bytes.len(), h.encoded_len());
        prop_assert_eq!(SproutHeader::decode(&bytes), Ok(h.clone()));
        // Whatever follows the header is payload, not header.
        bytes.extend_from_slice(&trailing);
        prop_assert_eq!(SproutHeader::decode(&bytes), Ok(h));
    }

    #[test]
    fn arbitrary_bytes_decode_or_fail_cleanly(
        noise in vec(any::<u8>(), 0..120),
        plausible in any::<bool>(),
    ) {
        // Pure noise almost never gets past the magic byte; half the
        // cases dress it as a Sprout packet with known flags.
        let mut bytes = noise;
        if plausible && bytes.len() >= 2 {
            bytes[0] = MAGIC;
            bytes[1] &= 0b111;
        }
        check_decode(&bytes)?;
    }

    #[test]
    fn every_single_byte_mutation_and_truncation_decodes_or_fails_cleanly(
        fields in fields(),
        flags in (any::<bool>(), any::<bool>()),
        forecast in feedback(),
    ) {
        let h = header(fields, flags, forecast);
        let valid = encoded(&h);
        for len in 0..valid.len() {
            check_decode(&valid[..len])?;
            let short = matches!(
                SproutHeader::decode(&valid[..len]),
                Err(WireError::Truncated { .. })
            );
            prop_assert!(short, "{len} of {} bytes decoded", valid.len());
        }
        let mut bytes = valid.clone();
        for at in 0..valid.len() {
            for value in 0..=u8::MAX {
                bytes[at] = value;
                check_decode(&bytes)?;
            }
            bytes[at] = valid[at];
        }
    }
}

#[test]
fn extreme_field_values_round_trip() {
    for ones in [false, true] {
        let (w64, w32, w16) = if ones {
            (u64::MAX, u32::MAX, u16::MAX)
        } else {
            (0, 0, 0)
        };
        for forecast in [None, Some((w64, w32, [w16; 8]))] {
            let h = header((w64, w64, w32, w64, w16), (ones, ones), forecast);
            let bytes = encoded(&h);
            let want = if forecast.is_some() {
                FULL_HEADER_LEN
            } else {
                BASE_HEADER_LEN
            };
            assert_eq!(bytes.len(), want);
            assert_eq!(SproutHeader::decode(&bytes), Ok(h));
        }
    }
}
