//! Sprout's wire format (§3.4).
//!
//! Every packet carries:
//! * a **sequence number** counting the wire bytes sent so far on this
//!   direction (so the receiver can total "received or lost" bytes);
//! * a **throwaway number**: the sequence number of the most recent packet
//!   sent more than `REORDER_WINDOW` (10 ms) earlier — once any later
//!   packet arrives, everything below it is either received or lost,
//!   never merely reordered;
//! * a **time-to-next** marking (§3.2) announcing when the sender expects
//!   to transmit next, letting the receiver distinguish an empty queue
//!   from an outage;
//! * optionally, a piggybacked **forecast**: the receiver-side
//!   received-or-lost total plus the cumulative delivery forecast.
//!
//! Layout (little-endian), base header 32 bytes:
//!
//! ```text
//!  0  u8   magic 0x5A
//!  1  u8   flags (bit0 = forecast present, bit1 = heartbeat)
//!  2  u16  payload length in bytes
//!  4  u32  time-to-next, µs
//!  8  u64  sequence number (wire bytes sent before this packet)
//! 16  u64  throwaway number
//! 24  u64  sender clock at transmission, µs
//! ```
//!
//! Forecast block (when present), 28 + 2·8 = 44... see [`FORECAST_LEN`]:
//!
//! ```text
//!  0  u64  received-or-lost total, bytes
//!  8  u32  receiver tick counter when the forecast was made
//! 12  u16 × HORIZON  cumulative volume per tick, quarter-MTU units
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sprout_trace::{Duration, Timestamp};

/// Wire magic byte.
pub const MAGIC: u8 = 0x5A;
/// Number of forecast entries carried on the wire (the paper's 8 ticks).
pub const WIRE_HORIZON: usize = 8;
/// Base header length in bytes.
pub const BASE_HEADER_LEN: usize = 32;
/// Forecast block length in bytes.
pub const FORECAST_LEN: usize = 8 + 4 + 2 * WIRE_HORIZON;
/// Header length with a forecast block attached.
pub const FULL_HEADER_LEN: usize = BASE_HEADER_LEN + FORECAST_LEN;

const FLAG_FORECAST: u8 = 0b0000_0001;
const FLAG_HEARTBEAT: u8 = 0b0000_0010;
const FLAG_DATAGRAM: u8 = 0b0000_0100;

/// The piggybacked receiver feedback (§3.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireForecast {
    /// Total wire bytes the receiver has received or written off as lost.
    pub recv_or_lost_bytes: u64,
    /// Receiver tick counter at forecast time (detects stale forecasts).
    pub tick: u32,
    /// Cumulative predicted deliveries for ticks 1..=8, in quarter-MTU
    /// units (fine enough for slow links; u16 reaches ~16k packets).
    pub cumulative_units: [u16; WIRE_HORIZON],
}

/// A decoded Sprout packet header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SproutHeader {
    /// Wire bytes sent on this direction before this packet.
    pub seq: u64,
    /// Received-or-lost horizon marker (see module docs).
    pub throwaway: u64,
    /// Expected time until the sender's next transmission; zero inside a
    /// flight.
    pub time_to_next: Duration,
    /// Sender clock when the packet was sent.
    pub sent_at: Timestamp,
    /// Whether this is an idle heartbeat.
    pub heartbeat: bool,
    /// Whether the payload is an encapsulated datagram (tunnel mode,
    /// §4.3) rather than opaque application filler.
    pub datagram: bool,
    /// Piggybacked feedback, if any.
    pub forecast: Option<WireForecast>,
    /// Application payload length.
    pub payload_len: u16,
}

impl SproutHeader {
    /// Serialized length of this header.
    pub fn encoded_len(&self) -> usize {
        if self.forecast.is_some() {
            FULL_HEADER_LEN
        } else {
            BASE_HEADER_LEN
        }
    }

    /// Encode the header alone. Experiment payloads are opaque filler, so
    /// a packet built from this carries its `payload_len` bytes as
    /// `sprout_sim::Packet::padding` — counted, never stored.
    pub fn encode_header(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// The full wire image of a filler packet: the header followed by
    /// `payload_len` zero bytes — what [`SproutHeader::encode_header`]
    /// plus its padding materialises to on a real wire.
    pub fn encode_with_padding(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len() + self.payload_len as usize);
        self.encode_into(&mut buf);
        buf.resize(self.encoded_len() + self.payload_len as usize, 0);
        buf.freeze()
    }

    /// Encode the header followed by real payload bytes (`payload.len()`
    /// must equal `payload_len`).
    pub fn encode_with_payload(&self, payload: &[u8]) -> Bytes {
        assert_eq!(payload.len(), self.payload_len as usize);
        let mut buf = BytesMut::with_capacity(self.encoded_len() + payload.len());
        self.encode_into(&mut buf);
        buf.extend_from_slice(payload);
        buf.freeze()
    }

    /// Encode just the header into `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u8(MAGIC);
        let mut flags = 0u8;
        if self.forecast.is_some() {
            flags |= FLAG_FORECAST;
        }
        if self.heartbeat {
            flags |= FLAG_HEARTBEAT;
        }
        if self.datagram {
            flags |= FLAG_DATAGRAM;
        }
        buf.put_u8(flags);
        buf.put_u16_le(self.payload_len);
        buf.put_u32_le(self.time_to_next.as_micros() as u32);
        buf.put_u64_le(self.seq);
        buf.put_u64_le(self.throwaway);
        buf.put_u64_le(self.sent_at.as_micros());
        if let Some(f) = &self.forecast {
            buf.put_u64_le(f.recv_or_lost_bytes);
            buf.put_u32_le(f.tick);
            for &c in &f.cumulative_units {
                buf.put_u16_le(c);
            }
        }
    }

    /// Decode a header from the front of `data`.
    pub fn decode(data: &[u8]) -> Result<SproutHeader, WireError> {
        let mut buf = data;
        if buf.len() < BASE_HEADER_LEN {
            return Err(WireError::Truncated {
                need: BASE_HEADER_LEN,
                have: buf.len(),
            });
        }
        let magic = buf.get_u8();
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let flags = buf.get_u8();
        if flags & !(FLAG_FORECAST | FLAG_HEARTBEAT | FLAG_DATAGRAM) != 0 {
            return Err(WireError::UnknownFlags(flags));
        }
        let payload_len = buf.get_u16_le();
        let time_to_next = Duration::from_micros(buf.get_u32_le() as u64);
        let seq = buf.get_u64_le();
        let throwaway = buf.get_u64_le();
        let sent_at = Timestamp::from_micros(buf.get_u64_le());
        let forecast = if flags & FLAG_FORECAST != 0 {
            if buf.len() < FORECAST_LEN {
                return Err(WireError::Truncated {
                    need: FULL_HEADER_LEN,
                    have: data.len(),
                });
            }
            let recv_or_lost_bytes = buf.get_u64_le();
            let tick = buf.get_u32_le();
            let mut cumulative_units = [0u16; WIRE_HORIZON];
            for c in &mut cumulative_units {
                *c = buf.get_u16_le();
            }
            Some(WireForecast {
                recv_or_lost_bytes,
                tick,
                cumulative_units,
            })
        } else {
            None
        };
        Ok(SproutHeader {
            seq,
            throwaway,
            time_to_next,
            sent_at,
            heartbeat: flags & FLAG_HEARTBEAT != 0,
            datagram: flags & FLAG_DATAGRAM != 0,
            forecast,
            payload_len,
        })
    }
}

/// Wire decoding failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Packet shorter than its advertised structure.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes available.
        have: usize,
    },
    /// First byte was not the Sprout magic.
    BadMagic(u8),
    /// Reserved flag bits were set.
    UnknownFlags(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated sprout packet: need {need} bytes, have {have}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic byte {m:#04x}"),
            WireError::UnknownFlags(fl) => write!(f, "unknown flag bits {fl:#010b}"),
        }
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header(with_forecast: bool) -> SproutHeader {
        SproutHeader {
            seq: 123_456_789,
            throwaway: 120_000_000,
            time_to_next: Duration::from_micros(22_000),
            sent_at: Timestamp::from_micros(5_500_123),
            heartbeat: false,
            datagram: false,
            forecast: with_forecast.then_some(WireForecast {
                recv_or_lost_bytes: 119_999_000,
                tick: 275,
                cumulative_units: [3, 7, 11, 14, 18, 21, 25, 29],
            }),
            payload_len: 1_440,
        }
    }

    #[test]
    fn round_trip_without_forecast() {
        let h = sample_header(false);
        let bytes = h.encode_with_padding();
        assert_eq!(bytes.len(), BASE_HEADER_LEN + 1_440);
        let back = SproutHeader::decode(&bytes).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn round_trip_with_forecast() {
        let h = sample_header(true);
        let bytes = h.encode_with_padding();
        assert_eq!(bytes.len(), FULL_HEADER_LEN + 1_440);
        let back = SproutHeader::decode(&bytes).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn heartbeat_flag_round_trips() {
        let mut h = sample_header(true);
        h.heartbeat = true;
        h.payload_len = 0;
        let bytes = h.encode_with_padding();
        let back = SproutHeader::decode(&bytes).unwrap();
        assert!(back.heartbeat);
        assert_eq!(back.payload_len, 0);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample_header(false).encode_with_padding().to_vec();
        bytes[0] = 0x00;
        assert_eq!(SproutHeader::decode(&bytes), Err(WireError::BadMagic(0)));
    }

    #[test]
    fn rejects_unknown_flags() {
        let mut bytes = sample_header(false).encode_with_padding().to_vec();
        bytes[1] = 0b1000_0000;
        assert!(matches!(
            SproutHeader::decode(&bytes),
            Err(WireError::UnknownFlags(_))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let full = sample_header(true).encode_with_padding();
        // Any prefix shorter than the full header must fail cleanly.
        for cut in 0..FULL_HEADER_LEN {
            let r = SproutHeader::decode(&full[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
        assert!(SproutHeader::decode(&full[..FULL_HEADER_LEN]).is_ok());
    }

    #[test]
    fn header_lengths_are_stable() {
        // The sender budgets MTU payloads around these constants; changing
        // them silently would corrupt queue accounting.
        assert_eq!(BASE_HEADER_LEN, 32);
        assert_eq!(FORECAST_LEN, 28);
        assert_eq!(FULL_HEADER_LEN, 60);
    }
}
