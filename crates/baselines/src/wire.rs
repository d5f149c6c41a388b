//! The one header layout of the baseline suite: a magic byte naming the
//! header, then `N` little-endian `u64` words. TCP data and ACKs, app
//! frames and reports, Saturator probes and probe ACKs all use it; only
//! the magic byte and the word count differ.

use bytes::Bytes;

/// The longest header any baseline sends: magic(1) and three words.
const MAX_LEN: usize = len(3);

/// The byte length of a header of `words` words.
pub(crate) const fn len(words: usize) -> usize {
    1 + 8 * words
}

/// A header of `magic` and `words`. At most three words, so the header
/// fits in the inline storage of a [`Bytes`] and costs no allocation.
pub(crate) fn encode<const N: usize>(magic: u8, words: [u64; N]) -> Bytes {
    const { assert!(len(N) <= MAX_LEN) };
    let mut buf = [0u8; MAX_LEN];
    buf[0] = magic;
    for (dst, w) in buf[1..].chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
    Bytes::copy_from_slice(&buf[..len(N)])
}

/// The `N` words of a `magic` header at the front of `payload`; `None`
/// for another magic byte or a payload too short to hold them. Bytes past
/// the header are ignored.
pub(crate) fn decode<const N: usize>(payload: &[u8], magic: u8) -> Option<[u64; N]> {
    let body = payload.strip_prefix(&[magic])?.get(..8 * N)?;
    Some(std::array::from_fn(|i| {
        u64::from_le_bytes(body[8 * i..8 * i + 8].try_into().unwrap())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_data_header_is_pinned_byte_for_byte() {
        let hdr = encode(0xD0, [7, 1_000]);
        assert_eq!(
            &hdr[..],
            [
                0xD0, //
                7, 0, 0, 0, 0, 0, 0, 0, //
                0xE8, 0x03, 0, 0, 0, 0, 0, 0,
            ]
        );
        assert_eq!(hdr.len(), len(2));
    }

    #[test]
    fn an_ack_header_is_pinned_byte_for_byte() {
        let hdr = encode(0xA0, [3, 0x0102_0304_0506_0708, u64::MAX]);
        assert_eq!(
            &hdr[..],
            [
                0xA0, //
                3, 0, 0, 0, 0, 0, 0, 0, //
                8, 7, 6, 5, 4, 3, 2, 1, //
                0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
            ]
        );
        assert_eq!(hdr.len(), len(3));
    }

    #[test]
    fn decode_round_trips_and_ignores_trailing_bytes() {
        let words = [u64::MAX, 0, 0x8000_0000_0000_0001];
        assert_eq!(decode(&encode(0xA0, words), 0xA0), Some(words));
        let mut long = encode(0xF1, [5, 6]).to_vec();
        long.extend_from_slice(&[0xEE; 40]);
        assert_eq!(decode(&long, 0xF1), Some([5, 6]));
    }

    #[test]
    fn decode_refuses_another_magic_byte() {
        let hdr = encode(0xD0, [1, 2]);
        assert_eq!(decode::<2>(&hdr, 0xA0), None);
        assert_eq!(decode::<2>(&hdr, 0xB0), None);
    }

    #[test]
    fn decode_refuses_every_short_payload() {
        let hdr = encode(0xA0, [1, 2, 3]);
        for n in 0..hdr.len() {
            assert_eq!(decode::<3>(&hdr[..n], 0xA0), None, "{n} bytes");
        }
        // A 17-byte header is too short for three words.
        assert_eq!(decode::<3>(&encode(0xA0, [1, 2]), 0xA0), None);
    }
}
