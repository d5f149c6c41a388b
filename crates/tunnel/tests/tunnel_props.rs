//! Property suite for the tunnel's receive path (vendored-proptest, 64
//! cases per property). The far side of a SproutTunnel is whoever sent
//! the datagram: a [`TunnelEndpoint`] fed arbitrary wire payloads must
//! never panic, must keep working afterwards, and must never hand its
//! clients more bytes than the datagram that carried them held.

use bytes::{BufMut, Bytes, BytesMut};
use proptest::collection::vec;
use proptest::prelude::*;
use sprout_core::{SproutConfig, SproutEndpoint, SproutHeader};
use sprout_sim::{FlowId, Packet};
use sprout_trace::{Duration, Timestamp};
use sprout_tunnel::TunnelEndpoint;

fn tunnel() -> TunnelEndpoint {
    TunnelEndpoint::new(SproutEndpoint::new_ewma(SproutConfig::test_small()))
}

/// Feed one wire payload at `now`; every client packet it yields must
/// fit inside it.
fn feed(t: &mut TunnelEndpoint, payload: Vec<u8>, now: Timestamp) -> Result<usize, String> {
    let carried = payload.len();
    let wire = Packet::from_payload(FlowId::PRIMARY, 0, Bytes::from(payload));
    let mut out = Vec::new();
    t.on_wire_packet_into(wire, now, &mut out);
    for p in &out {
        prop_assert!(
            p.payload.len() + p.padding as usize <= carried,
            "a {carried}-byte datagram delivered {} + {} bytes",
            p.payload.len(),
            p.padding
        );
    }
    Ok(out.len())
}

proptest! {
    #[test]
    fn arbitrary_wire_payloads_never_panic_or_overdeliver(
        payloads in vec(vec(any::<u8>(), 0..200), 1..8),
        gaps_ms in vec(0u64..200, 8..9),
    ) {
        let mut t = tunnel();
        let mut now = Timestamp::ZERO;
        let mut wire = Vec::new();
        for (payload, gap) in payloads.into_iter().zip(gaps_ms) {
            now += Duration::from_millis(gap);
            feed(&mut t, payload, now)?;
            // Still a working endpoint: it polls, and what it emits is
            // its own well-formed wire.
            wire.clear();
            t.poll_wire_into(now, &mut wire);
            for sent in &wire {
                prop_assert!(SproutHeader::decode(&sent.payload).is_ok());
            }
        }
    }

    #[test]
    fn well_formed_headers_around_arbitrary_datagrams_never_panic_or_overdeliver(
        packets in vec(
            (
                (any::<u64>(), any::<u64>(), any::<u32>(), any::<u64>()),
                proptest::option::of(
                    (any::<u64>(), any::<u32>(), proptest::array::uniform8(any::<u16>()))
                ),
                any::<u16>(),
                vec(any::<u8>(), 0..120),
                any::<bool>(),
            ),
            1..6,
        ),
    ) {
        // Past the header checks: valid Sprout headers in datagram mode
        // with hostile field values, a payload length that may lie, and
        // an encapsulated body of anything at all.
        let mut t = tunnel();
        let mut now = Timestamp::from_millis(40);
        let mut delivered = 0;
        for ((seq, throwaway, ttn_us, sent_us), forecast, claimed_len, body, honest) in packets {
            let header = SproutHeader {
                seq,
                throwaway,
                time_to_next: Duration::from_micros(u64::from(ttn_us)),
                sent_at: Timestamp::from_micros(sent_us),
                heartbeat: false,
                datagram: true,
                forecast: forecast.map(|(recv_or_lost_bytes, tick, cumulative_units)| {
                    sprout_core::WireForecast { recv_or_lost_bytes, tick, cumulative_units }
                }),
                payload_len: if honest { body.len() as u16 } else { claimed_len },
            };
            let mut wire = BytesMut::new();
            header.encode_into(&mut wire);
            wire.put_slice(&body);
            let got = feed(&mut t, wire.to_vec(), now)?;
            // An honest length around a body that holds an encapsulation
            // header is a delivery; a body too short for one never is.
            if honest {
                prop_assert_eq!(got, usize::from(body.len() >= 24));
            }
            delivered += got as u64;
            now += Duration::from_millis(7);
            t.poll_wire_into(now, &mut Vec::new());
        }
        prop_assert_eq!(t.stats().delivered, delivered);
    }
}

#[test]
fn all_ones_and_all_zero_headers_are_survived() {
    for (w64, w32, w16) in [(0, 0, 0), (u64::MAX, u32::MAX, u16::MAX)] {
        for forecast in [false, true] {
            let header = SproutHeader {
                seq: w64,
                throwaway: w64,
                time_to_next: Duration::from_micros(u64::from(w32)),
                sent_at: Timestamp::from_micros(w64),
                heartbeat: false,
                datagram: true,
                forecast: forecast.then_some(sprout_core::WireForecast {
                    recv_or_lost_bytes: w64,
                    tick: w32,
                    cumulative_units: [w16; 8],
                }),
                payload_len: 64,
            };
            let wire = header.encode_with_padding();
            let mut t = tunnel();
            for ms in [0, 5, 500, 5_000] {
                let now = Timestamp::from_millis(ms);
                feed(&mut t, wire.to_vec(), now).unwrap();
                t.poll_wire_into(now, &mut Vec::new());
            }
        }
    }
}
