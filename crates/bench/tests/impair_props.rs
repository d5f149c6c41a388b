//! Conservation properties of the fault-injection layer, checked over
//! randomized impairment configurations (vendored-proptest, 64 cases per
//! property): no packet may ever be duplicated or silently vanish —
//! every one is delivered exactly once, counted by a drop process, or
//! still sitting in the queue; deliveries never land inside an outage
//! window; jitter/reordering permute timestamps without touching the
//! multiset; and a perturbed delivery never beats the opportunity that
//! carried it. The sweep-level determinism of the same machinery is
//! locked by `impair_identity.rs`.
//!
//! The last two properties pin that the packet path exists once: the
//! link's sink form (`TraceLink::service_with`) and the buffer form over
//! it (`service`, which `benchmark/` probes) yield the same packets at the
//! same times in the same order and the same counters, and the path's
//! sink form (`DirectedPath::advance_with`) hands over exactly what its
//! delivery log records, for random packet sizes, queue policies and
//! impairments. CI also runs them optimised, where the sink closures are
//! inlined.

use proptest::option;
use proptest::prelude::*;
use sprout_sim::{
    CoDelConfig, DirectedPath, FlowId, LinkConfig, LinkDelivery, LinkImpairment, Packet,
    PathConfig, QueueConfig, TraceLink,
};
use sprout_trace::{
    Duration, GilbertElliott, JitterSpec, OutageSchedule, OutageSpec, ReorderSpec, Timestamp,
    Trace, MTU_BYTES,
};

/// Packets per property case. Small enough to keep 64 cases fast, large
/// enough for every stochastic process to fire.
const N: u64 = 200;

/// Milliseconds between both packet arrivals and delivery opportunities.
const GAP_MS: u64 = 5;

fn t(ms: u64) -> Timestamp {
    Timestamp::from_millis(ms)
}

fn mtu_pkt(seq: u64) -> Packet {
    Packet::opaque(FlowId::PRIMARY, seq, MTU_BYTES)
}

/// An impaired link over a dense trace: one MTU opportunity every
/// [`GAP_MS`] for `2 * N` slots (double the offered load, so loss-free
/// configurations always drain).
fn impaired_link(impair: LinkImpairment) -> TraceLink {
    let trace = Trace::from_millis((0..2 * N).map(|i| i * GAP_MS));
    TraceLink::new(LinkConfig {
        impair,
        ..LinkConfig::standard(trace)
    })
}

/// Ingress packet `i` at `i * GAP_MS`, polling `service` at every step,
/// then flush far past the trace end so every buffered (jittered/held)
/// delivery has come due. Returns the deliveries in emission order.
fn drive(link: &mut TraceLink) -> Vec<LinkDelivery> {
    let mut out = Vec::new();
    for step in 0..2 * N {
        if step < N {
            link.ingress(mtu_pkt(step), t(step * GAP_MS));
        }
        out.extend(link.service(t(step * GAP_MS)));
    }
    out.extend(link.service(t(10 * N * GAP_MS)));
    out
}

/// Build the outage schedule for a `(duration, extra spacing)` draw over
/// the whole driven horizon. Spacing is `duration + extra`, satisfying
/// the spacing-exceeds-duration invariant by construction.
fn outage_schedule(dur_ms: u64, extra_ms: u64, seed: u64) -> OutageSchedule {
    OutageSchedule::generate(
        &OutageSpec {
            duration: Duration::from_millis(dur_ms),
            spacing: Duration::from_millis(dur_ms + extra_ms),
        },
        seed,
        Duration::from_millis(2 * N * GAP_MS),
    )
}

/// Which of the two equivalent entry points drives a link.
#[derive(Clone, Copy, Debug)]
enum Form {
    /// `service_with`: the implementation.
    Sink,
    /// `service`: returns a fresh `Vec`.
    Fresh,
}

/// Everything observable about one driven link or path.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `(seq, size, delivery time µs)` in emission order. At the path
    /// level the time is the instant of the `advance` call that emitted
    /// the packet; the exact crossing times are in `log`.
    delivered: Vec<(u64, u32, u64)>,
    /// The path's delivery log as `(sent µs, delivered µs, size, flow)`;
    /// empty at the link level, which keeps none.
    log: Vec<(u64, u64, u32, u32)>,
    /// used, wasted, outage-suppressed, queue drops, reorder holds,
    /// random drops, burst drops, still queued, awaiting release.
    counters: [u64; 9],
}

fn link_counters(link: &TraceLink) -> [u64; 9] {
    [
        link.used_opportunities(),
        link.wasted_opportunities(),
        link.outage_suppressed_opportunities(),
        link.queue_drops(),
        link.reorder_holds(),
        link.random_drops(),
        link.burst_drops(),
        link.queued_packets() as u64,
        link.pending_release_packets() as u64,
    ]
}

/// The link configuration of one equivalence case: a dense trace (one
/// opportunity per [`GAP_MS`]) behind the drawn queue, loss and
/// impairment processes.
#[allow(clippy::type_complexity)]
fn drawn_link(
    seed: u64,
    steps: u64,
    queue: u32,
    loss: Option<f64>,
    ge: Option<(f64, f64, f64)>,
    outage: Option<(u64, u64)>,
    perturb: Option<(u64, f64, u64)>,
) -> LinkConfig {
    let trace = Trace::from_millis((0..steps).map(|i| i * GAP_MS));
    LinkConfig {
        queue: match queue {
            0 => QueueConfig::DropTailBytes(sprout_sim::DEEP_QUEUE_BYTES),
            1 => QueueConfig::DropTailBytes(6_000),
            _ => QueueConfig::CoDel(CoDelConfig::default()),
        },
        loss_rate: loss.unwrap_or(0.0),
        loss_seed: seed ^ 0x5eed,
        impair: LinkImpairment {
            burst_loss: ge.map(|(p_gb, p_bg, loss_bad)| GilbertElliott {
                p_good_to_bad: p_gb,
                p_bad_to_good: p_bg,
                loss_good: 0.0,
                loss_bad,
            }),
            outages: outage
                .map(|(dur, extra)| {
                    OutageSchedule::generate(
                        &OutageSpec {
                            duration: Duration::from_millis(dur),
                            spacing: Duration::from_millis(dur + extra),
                        },
                        seed,
                        Duration::from_millis(steps * GAP_MS),
                    )
                })
                .unwrap_or_default(),
            jitter: perturb.map(|(jit_ms, _, _)| JitterSpec {
                max: Duration::from_millis(jit_ms),
            }),
            reorder: perturb.map(|(_, probability, extra)| ReorderSpec {
                probability,
                extra_delay: Duration::from_millis(extra),
            }),
            seed,
        },
        ..LinkConfig::standard(trace)
    }
}

/// Draws above one MTU stand for "exactly one MTU", so half the packets
/// are full-sized and the rest anything down to one byte: small ones
/// share an opportunity, and a packet regularly meets less budget than it
/// needs and straddles two.
fn wire_size(draw: u32) -> u32 {
    draw.min(MTU_BYTES)
}

/// Offer two packets per step — about 1.5× the link's capacity, so the
/// shallow queue overflows and CoDel sheds — polling through `form` at
/// every step, then flush far past the trace end.
fn drive_link(cfg: LinkConfig, sizes: &[u32], form: Form) -> Outcome {
    let mut link = TraceLink::new(cfg);
    let mut delivered = Vec::new();
    let mut poll = |link: &mut TraceLink, now: Timestamp| match form {
        Form::Sink => link.service_with(now, |p, at| {
            delivered.push((p.seq, p.size, at.as_micros()));
        }),
        Form::Fresh => delivered.extend(
            link.service(now)
                .into_iter()
                .map(|d| (d.packet.seq, d.packet.size, d.at.as_micros())),
        ),
    };
    for (step, pair) in sizes.chunks(2).enumerate() {
        let now = t(step as u64 * GAP_MS);
        for (k, &draw) in pair.iter().enumerate() {
            let seq = (2 * step + k) as u64;
            link.ingress(Packet::opaque(FlowId::PRIMARY, seq, wire_size(draw)), now);
        }
        poll(&mut link, now);
    }
    poll(&mut link, t(100 * sizes.len() as u64 * GAP_MS));
    Outcome {
        delivered,
        log: Vec::new(),
        counters: link_counters(&link),
    }
}

/// [`drive_link`] one layer up, through `advance_with`: packets are sent
/// into a [`DirectedPath`] (wire delay, then the link) on two flows, and
/// the delivery log is part of the outcome.
fn drive_path(cfg: LinkConfig, sizes: &[u32]) -> Outcome {
    let mut path = DirectedPath::new(PathConfig { link: cfg });
    let mut delivered = Vec::new();
    let mut poll = |path: &mut DirectedPath, now: Timestamp| {
        let at = now.as_micros();
        path.advance_with(now, |p| delivered.push((p.seq, p.size, at)));
    };
    for (step, pair) in sizes.chunks(2).enumerate() {
        let now = t(step as u64 * GAP_MS);
        for (k, &draw) in pair.iter().enumerate() {
            let seq = (2 * step + k) as u64;
            path.send(
                Packet::opaque(FlowId(1 + k as u32), seq, wire_size(draw)),
                now,
            );
        }
        poll(&mut path, now);
    }
    poll(&mut path, t(100 * sizes.len() as u64 * GAP_MS));
    Outcome {
        delivered,
        log: path
            .metrics()
            .records()
            .iter()
            .map(|r| {
                (
                    r.sent_at.as_micros(),
                    r.delivered_at.as_micros(),
                    r.size,
                    r.flow.0,
                )
            })
            .collect(),
        counters: link_counters(path.link()),
    }
}

proptest! {
    /// Under ANY combination of burst loss, outages, jitter, and
    /// reordering, every offered packet is exactly one of: delivered
    /// (once), dropped by a counted loss process, or still queued behind
    /// suppressed opportunities. Nothing is duplicated, nothing vanishes
    /// uncounted, and emission stays in time order.
    #[test]
    fn every_packet_is_delivered_dropped_or_queued_exactly_once(
        seed in 0u64..1_000_000,
        ge in option::of((0.0f64..0.3, 0.05f64..0.9, 0.0f64..1.0)),
        outage in option::of((5u64..80, 20u64..200)),
        jit_ms in 0u64..30,
        ro in option::of((0.0f64..0.5, 1u64..60)),
    ) {
        let outages = outage
            .map(|(dur, extra)| outage_schedule(dur, extra, seed))
            .unwrap_or_default();
        let mut link = impaired_link(LinkImpairment {
            burst_loss: ge.map(|(p_gb, p_bg, loss_bad)| GilbertElliott {
                p_good_to_bad: p_gb,
                p_bad_to_good: p_bg,
                loss_good: 0.0,
                loss_bad,
            }),
            outages,
            jitter: Some(JitterSpec { max: Duration::from_millis(jit_ms) }),
            reorder: ro.map(|(probability, extra)| ReorderSpec {
                probability,
                extra_delay: Duration::from_millis(extra),
            }),
            seed,
        });
        let delivered = drive(&mut link);

        // The flush drained the release buffer completely.
        prop_assert_eq!(link.pending_release_packets(), 0);
        // Conservation: delivered + dropped + still queued == offered.
        let accounted = delivered.len() as u64
            + link.burst_drops()
            + link.random_drops()
            + link.queue_drops()
            + link.queued_packets() as u64;
        prop_assert_eq!(accounted, N);
        // At-most-once delivery: no sequence number appears twice.
        let mut seqs: Vec<u64> = delivered.iter().map(|d| d.packet.seq).collect();
        seqs.sort_unstable();
        let before = seqs.len();
        seqs.dedup();
        prop_assert_eq!(seqs.len(), before);
        // Emission order is non-decreasing in delivery time.
        for w in delivered.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
    }

    /// With only an outage process injected, no delivery timestamp ever
    /// falls inside a dark window, and the suppressed-opportunity counter
    /// equals exactly the number of trace opportunities the schedule
    /// covers — outages suppress capacity, they never drop packets.
    #[test]
    fn outages_suppress_exactly_the_covered_opportunities(
        seed in 0u64..1_000_000,
        dur_ms in 5u64..80,
        extra_ms in 20u64..200,
    ) {
        let outages = outage_schedule(dur_ms, extra_ms, seed);
        let windows = outages.windows().to_vec();
        let covered = (0..2 * N).filter(|i| outages.is_out(t(i * GAP_MS))).count() as u64;
        let mut link = impaired_link(LinkImpairment {
            outages,
            ..LinkImpairment::default()
        });
        let delivered = drive(&mut link);

        for d in &delivered {
            for &(start, end) in &windows {
                prop_assert!(d.at < start || d.at >= end);
            }
        }
        prop_assert_eq!(link.outage_suppressed_opportunities(), covered);
        // No loss process ran: every packet is delivered or still queued.
        prop_assert_eq!(delivered.len() as u64 + link.queued_packets() as u64, N);
    }

    /// Jitter and reordering are pure timestamp perturbations: the
    /// delivered multiset is exactly the offered sequence range, each
    /// packet once, however aggressively deliveries are held and shuffled.
    #[test]
    fn perturbation_preserves_the_packet_multiset(
        seed in 0u64..1_000_000,
        jit_ms in 0u64..30,
        ro_prob in 0.0f64..0.8,
        ro_extra_ms in 1u64..80,
    ) {
        let mut link = impaired_link(LinkImpairment {
            jitter: Some(JitterSpec { max: Duration::from_millis(jit_ms) }),
            reorder: Some(ReorderSpec {
                probability: ro_prob,
                extra_delay: Duration::from_millis(ro_extra_ms),
            }),
            seed,
            ..LinkImpairment::default()
        });
        let delivered = drive(&mut link);

        let mut seqs: Vec<u64> = delivered.iter().map(|d| d.packet.seq).collect();
        seqs.sort_unstable();
        prop_assert_eq!(seqs, (0..N).collect::<Vec<u64>>());
        prop_assert_eq!(link.pending_release_packets(), 0);
    }

    /// A perturbed delivery never beats the opportunity that carried it,
    /// and never trails it by more than the configured jitter-plus-hold
    /// bound. (MTU packets over an MTU-per-opportunity trace map packet
    /// `k` onto opportunity `k`, so the bracket is exact per packet.)
    #[test]
    fn perturbed_deliveries_stay_inside_the_jitter_hold_bracket(
        seed in 0u64..1_000_000,
        jit_ms in 0u64..30,
        ro in option::of((0.0f64..0.5, 1u64..60)),
    ) {
        let ro_extra = ro.map(|(_, e)| e).unwrap_or(0);
        let mut link = impaired_link(LinkImpairment {
            jitter: Some(JitterSpec { max: Duration::from_millis(jit_ms) }),
            reorder: ro.map(|(probability, extra)| ReorderSpec {
                probability,
                extra_delay: Duration::from_millis(extra),
            }),
            seed,
            ..LinkImpairment::default()
        });
        // Offer everything up front: the FIFO then pairs packet k with
        // opportunity k.
        for i in 0..N {
            link.ingress(mtu_pkt(i), t(0));
        }
        let delivered = link.service(t(10 * N * GAP_MS));

        prop_assert_eq!(delivered.len() as u64, N);
        for d in &delivered {
            let opportunity = t(d.packet.seq * GAP_MS);
            prop_assert!(d.at >= opportunity);
            let bound = opportunity
                + Duration::from_millis(jit_ms)
                + Duration::from_millis(ro_extra);
            prop_assert!(d.at <= bound);
        }
    }

    /// `service_with` is the link's one delivery path: the buffer form
    /// over it sees the same packets, times, order and counters.
    #[test]
    fn link_sink_and_buffer_forms_are_one_path(
        seed in 0u64..1_000_000,
        sizes in proptest::collection::vec(1u32..2 * MTU_BYTES, 100..240),
        queue in 0u32..3,
        loss in option::of(0.0f64..0.3),
        shape in (
            option::of((0.0f64..0.3, 0.05f64..0.9, 0.0f64..1.0)),
            option::of((5u64..80, 20u64..200)),
            option::of((0u64..30, 0.0f64..0.5, 1u64..60)),
        ),
    ) {
        let (ge, outage, perturb) = shape;
        let cfg = drawn_link(seed, 2 * sizes.len() as u64, queue, loss, ge, outage, perturb);
        let sink = drive_link(cfg.clone(), &sizes, Form::Sink);
        prop_assert_eq!(&drive_link(cfg, &sizes, Form::Fresh), &sink);
        // The case exercised the path: something crossed, and every
        // packet is accounted for exactly once.
        prop_assert!(!sink.delivered.is_empty());
        let [_, _, _, queue_drops, _, random, burst, queued, awaiting] = sink.counters;
        prop_assert_eq!(
            sink.delivered.len() as u64 + queue_drops + random + burst + queued + awaiting,
            sizes.len() as u64
        );
    }

    /// The same one layer up: `advance_with` records a delivery and hands
    /// it over in the same place, so what it hands over is the delivery
    /// log, record for record.
    #[test]
    fn path_sink_and_buffer_forms_are_one_path(
        seed in 0u64..1_000_000,
        sizes in proptest::collection::vec(1u32..2 * MTU_BYTES, 100..240),
        queue in 0u32..3,
        loss in option::of(0.0f64..0.3),
        shape in (
            option::of((0.0f64..0.3, 0.05f64..0.9, 0.0f64..1.0)),
            option::of((5u64..80, 20u64..200)),
            option::of((0u64..30, 0.0f64..0.5, 1u64..60)),
        ),
    ) {
        let (ge, outage, perturb) = shape;
        let cfg = drawn_link(seed, 2 * sizes.len() as u64, queue, loss, ge, outage, perturb);
        let sink = drive_path(cfg, &sizes);
        // The log is the delivered sequence, record for record.
        prop_assert_eq!(sink.log.len(), sink.delivered.len());
        for (rec, del) in sink.log.iter().zip(&sink.delivered) {
            prop_assert_eq!(rec.2, del.1);
            prop_assert!(rec.1 <= del.2);
        }
        for w in sink.log.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
    }
}
