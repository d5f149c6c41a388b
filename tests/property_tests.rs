//! Property-based tests (proptest) on the core data structures and
//! protocol invariants.

use proptest::prelude::*;

use sprout_core::{RateModel, SproutConfig, SproutHeader, WireForecast};
use sprout_sim::{
    CoDelConfig, DirectedPath, FlowId, LinkConfig, Packet, PathConfig, QueueConfig, TraceLink,
};
use sprout_trace::{Duration, Timestamp, Trace, MTU_BYTES};

proptest! {
    /// Trace construction sorts arbitrary input and preserves every
    /// opportunity; serialization round-trips exactly.
    #[test]
    fn trace_roundtrip(mut ms in proptest::collection::vec(0u64..1_000_000, 0..300)) {
        let trace = Trace::from_millis(ms.clone());
        prop_assert_eq!(trace.len(), ms.len());
        ms.sort_unstable();
        let sorted: Vec<u64> = trace.opportunities().iter().map(|t| t.as_millis()).collect();
        prop_assert_eq!(sorted, ms);

        let mut buf = Vec::new();
        sprout_trace::write_trace(&trace, &mut buf).unwrap();
        let back = sprout_trace::read_trace(buf.as_slice()).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// The wire header round-trips for arbitrary field values.
    #[test]
    fn wire_header_roundtrip(
        seq in any::<u64>(),
        throwaway in any::<u64>(),
        ttn_us in 0u32..10_000_000,
        sent_us in any::<u64>(),
        heartbeat in any::<bool>(),
        datagram in any::<bool>(),
        payload_len in 0u16..1_400,
        fc in proptest::option::of((any::<u64>(), any::<u32>(), proptest::array::uniform8(any::<u16>()))),
    ) {
        let header = SproutHeader {
            seq,
            throwaway,
            time_to_next: Duration::from_micros(ttn_us as u64),
            sent_at: Timestamp::from_micros(sent_us),
            heartbeat,
            datagram,
            forecast: fc.map(|(recv_or_lost_bytes, tick, cumulative_units)| WireForecast {
                recv_or_lost_bytes,
                tick,
                cumulative_units,
            }),
            payload_len,
        };
        let bytes = header.encode_with_padding();
        let back = SproutHeader::decode(&bytes).unwrap();
        prop_assert_eq!(back, header);
    }

    /// The Bayesian posterior stays a probability distribution under any
    /// interleaving of evolutions and (bounded) observations.
    #[test]
    fn posterior_remains_normalized(
        steps in proptest::collection::vec(proptest::option::of(0.0f64..50.0), 1..60)
    ) {
        let mut model = RateModel::new(SproutConfig::test_small());
        for obs in steps {
            model.evolve();
            if let Some(k) = obs {
                model.observe(k);
            }
            let sum: f64 = model.distribution().iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "sum {}", sum);
            prop_assert!(model.distribution().iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p)));
        }
    }

    /// DropTail never exceeds its byte capacity and conserves packets
    /// (delivered + dropped + queued == offered).
    #[test]
    fn droptail_conserves_packets(
        sizes in proptest::collection::vec(1u32..2_000, 1..200),
        cap in 1_000u64..20_000,
    ) {
        // Everything is offered before the first opportunity, and the
        // trace has enough of them to drain whatever was admitted.
        let offered = sizes.len();
        let mut link = TraceLink::new(LinkConfig {
            queue: QueueConfig::DropTailBytes(cap),
            ..LinkConfig::standard(Trace::from_millis(1..=2 * offered as u64 + 2))
        });
        for (i, size) in sizes.into_iter().enumerate() {
            link.ingress(Packet::opaque(FlowId::PRIMARY, i as u64, size), Timestamp::ZERO);
            prop_assert!(link.queued_bytes() <= cap);
        }
        let delivered = link.service(Timestamp::FAR_FUTURE).len();
        prop_assert_eq!(delivered + link.queue_drops() as usize, offered);
        prop_assert_eq!(link.queued_packets(), 0);
    }

    /// CoDel conserves packets too: everything offered is either
    /// delivered or counted as dropped.
    #[test]
    fn codel_conserves_packets(
        gaps_ms in proptest::collection::vec(0u64..50, 1..200),
    ) {
        // One MTU packet offered per gap, one MTU opportunity after every
        // second one (a standing queue when gaps are small), then one
        // opportunity per packet 1 ms after the last offer to drain.
        let offered = gaps_ms.len();
        let mut serves = Vec::new();
        let mut now = Timestamp::ZERO;
        for (i, gap) in gaps_ms.iter().enumerate() {
            now += Duration::from_millis(*gap);
            if i % 2 == 0 {
                serves.push(now);
            }
        }
        let drain = now + Duration::from_millis(1);
        serves.extend(std::iter::repeat_n(drain, offered));
        let mut link = TraceLink::new(LinkConfig {
            queue: QueueConfig::CoDel(CoDelConfig::default()),
            ..LinkConfig::standard(Trace::new(serves))
        });
        let mut delivered = 0;
        let mut now = Timestamp::ZERO;
        for (i, gap) in gaps_ms.iter().enumerate() {
            link.ingress(Packet::opaque(FlowId::PRIMARY, i as u64, 1_500), now);
            now += Duration::from_millis(*gap);
            if i % 2 == 0 {
                delivered += link.service(now).len();
            }
        }
        delivered += link.service(drain).len();
        prop_assert_eq!(link.queued_packets(), 0);
        prop_assert_eq!(delivered + link.queue_drops() as usize, offered);
    }

    /// The self-inflicted-delay metric is never negative and respects the
    /// omniscient floor for arbitrary traces.
    #[test]
    fn omniscient_floor_is_sane(ms in proptest::collection::vec(0u64..60_000, 2..400)) {
        let trace = Trace::from_millis(ms);
        let p95 = sprout_sim::omniscient_p95_delay(
            &trace,
            Duration::from_millis(20),
            Timestamp::ZERO,
            Timestamp::ZERO + trace.duration(),
        );
        if let Some(p) = p95 {
            prop_assert!(p >= Duration::from_millis(20));
        }
    }

    /// The propagation delay is a hard floor: for any trace and any
    /// prop-delay `d`, every packet a direction delivers took at least
    /// `d` end to end (an echoed round trip therefore takes ≥ 2·d).
    #[test]
    fn prop_delay_floors_every_delivery(
        gaps_ms in proptest::collection::vec(1u64..60, 5..120),
        d_ms in 1u64..200,
    ) {
        let mut at = 0u64;
        let ops: Vec<u64> = gaps_ms.iter().map(|g| { at += g; at }).collect();
        let horizon = at + d_ms + 1;
        let d = Duration::from_millis(d_ms);
        let mut path = DirectedPath::new(
            PathConfig::standard(Trace::from_millis(ops)).with_prop_delay(d),
        );
        for seq in 0..60u64 {
            path.send(Packet::opaque(FlowId::PRIMARY, seq, 1_200), Timestamp::from_millis(seq * 7));
        }
        path.advance_with(Timestamp::from_millis(horizon), drop);
        for rec in path.metrics().records() {
            prop_assert!(
                rec.delivered_at.saturating_since(rec.sent_at) >= d,
                "delivery beat the {d} propagation floor"
            );
        }
    }

    /// Changing the propagation delay translates the omniscient delay
    /// floor by *exactly* the difference, for any trace: the floor's
    /// delay function is the gap ramp shifted up by the prop delay.
    #[test]
    fn omniscient_floor_shifts_by_exactly_the_prop_delta(
        ms in proptest::collection::vec(1u64..30_000, 2..200),
        d1_ms in 0u64..150,
        d2_ms in 0u64..150,
    ) {
        let trace = Trace::from_millis(ms);
        let window_end = Timestamp::ZERO + trace.duration() + Duration::from_millis(1);
        let floor = |d_ms: u64| sprout_sim::omniscient_p95_delay(
            &trace,
            Duration::from_millis(d_ms),
            Timestamp::ZERO,
            window_end,
        ).expect("non-empty trace has a floor");
        let (p1, p2) = (floor(d1_ms), floor(d2_ms));
        prop_assert_eq!(
            p1.as_micros() as i64 - p2.as_micros() as i64,
            (d1_ms as i64 - d2_ms as i64) * 1_000
        );
    }

    /// A byte-capped DropTail link never holds more than the cap (plus
    /// at most one partially-served packet's remainder), and every
    /// offered packet is accounted for: delivered, dropped by the cap,
    /// or still queued.
    #[test]
    fn droptail_bytes_cap_bounds_the_link_queue(
        sizes in proptest::collection::vec(20u32..1_500, 1..150),
        cap in 2_000u64..30_000,
        gap_ms in 1u64..20,
    ) {
        let trace = Trace::from_millis((1..=400u64).map(|i| i * gap_ms));
        let mut link = TraceLink::new(LinkConfig {
            queue: QueueConfig::DropTailBytes(cap),
            ..LinkConfig::standard(trace)
        });
        let offered = sizes.len() as u64;
        let mut delivered = 0u64;
        for (i, size) in sizes.into_iter().enumerate() {
            let now = Timestamp::from_millis(i as u64);
            link.ingress(Packet::opaque(FlowId::PRIMARY, i as u64, size), now);
            delivered += link.service(now).len() as u64;
            // The queue proper respects the cap exactly; the link may
            // additionally hold the unsent remainder of the one packet
            // in service (< MTU).
            prop_assert!(
                link.queued_bytes() <= cap + MTU_BYTES as u64,
                "queued {} exceeds cap {cap} + one MTU",
                link.queued_bytes()
            );
        }
        delivered += link.service(Timestamp::from_millis(500 * gap_ms)).len() as u64;
        // Every offered packet is delivered, capped, or still queued.
        prop_assert_eq!(
            delivered + link.queue_drops() + link.queued_packets() as u64,
            offered
        );
    }
}
