//! One direction keeps its packets in one ring from `send` to delivery:
//! the wire at the back, the bottleneck queue at the front, admission an
//! index moving past a packet, a drop a removal in place, and the head
//! served where it lies.
//!
//! These tests pin what that layout must not change: a packet dropped at
//! admission leaves the packets on the wire behind it untouched, CoDel
//! judges sojourn from a packet's arrival at the queue (not from its
//! send), a packet larger than one opportunity is served across several,
//! and at every step the path's wire, queue and in-service byte counts
//! equal those of a test-only two-queue reference — the wire deque,
//! queue deque and in-service slot the ring replaced, driven by the same
//! random draws.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprout_sim::{
    CoDelConfig, DirectedPath, FlowId, LinkConfig, LinkImpairment, Packet, PathConfig, QueueConfig,
};
use sprout_trace::{
    derive_seed, Duration, GilbertElliott, GilbertElliottProcess, Timestamp, Trace, MTU_BYTES,
};

fn t(ms: u64) -> Timestamp {
    Timestamp::from_millis(ms)
}

fn pkt(seq: u64, size: u32) -> Packet {
    Packet::opaque(FlowId::PRIMARY, seq, size)
}

fn path(link: LinkConfig) -> DirectedPath {
    DirectedPath::new(PathConfig { link })
}

/// `(seq, delivered_at)` of every packet `path` delivers up to `now`.
fn advance(path: &mut DirectedPath, now: Timestamp) -> Vec<(u64, Timestamp)> {
    let mut out = Vec::new();
    path.advance_with(now, |p| out.push(p.seq));
    let log = path.metrics().records();
    let at = log[log.len() - out.len()..].iter().map(|r| r.delivered_at);
    out.into_iter().zip(at).collect()
}

#[test]
fn a_shallow_droptail_drops_at_admission_and_the_wire_behind_is_untouched() {
    // Capacity two MTUs; four MTUs sent 1 ms apart reach the queue at
    // 20–23 ms. The third finds the queue full and is dropped with the
    // fourth still on the wire; the opportunity at 22 ms then frees room,
    // so the fourth is admitted at 23 ms.
    let mut p = path(LinkConfig {
        queue: QueueConfig::DropTailBytes(2 * u64::from(MTU_BYTES)),
        ..LinkConfig::standard(Trace::from_millis([22, 30, 40, 50]))
    });
    for seq in 0..4 {
        p.send(pkt(seq, MTU_BYTES), t(seq));
    }
    assert_eq!(advance(&mut p, t(21)), []);
    assert_eq!((p.wire_packets(), p.link().queued_packets()), (2, 2));
    assert_eq!(advance(&mut p, t(22)), [(0, t(22))]);
    assert_eq!(
        p.link().queue_drops(),
        1,
        "the third packet met a full queue"
    );
    assert_eq!(p.wire_packets(), 1, "the fourth is still on the wire");
    assert_eq!(p.wire_bytes(), u64::from(MTU_BYTES));
    assert_eq!(p.link().queued_packets(), 1);
    assert_eq!(
        advance(&mut p, t(50)),
        [(1, t(30)), (3, t(40))],
        "the packet behind the drop keeps its place"
    );
    assert_eq!(p.link().dropped_bytes(), u64::from(MTU_BYTES));
}

#[test]
fn random_and_burst_loss_drop_at_admission_with_packets_on_the_wire_behind() {
    let bernoulli = LinkConfig {
        loss_rate: 0.5,
        loss_seed: 3,
        ..LinkConfig::standard(Trace::from_millis(100..200))
    };
    let burst = LinkConfig {
        impair: LinkImpairment {
            burst_loss: Some(GilbertElliott {
                p_good_to_bad: 0.5,
                p_bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
            seed: 5,
            ..LinkImpairment::default()
        },
        ..LinkConfig::standard(Trace::from_millis(100..200))
    };
    for link in [bernoulli, burst] {
        // Forty packets on the wire at once; each arrival is one draw.
        let mut p = path(link);
        for seq in 0..40 {
            p.send(pkt(seq, 100 + seq as u32), t(seq));
        }
        let (mut dropped, mut drops_ahead_of_the_wire) = (0, 0);
        for ms in 20..60 {
            advance(&mut p, t(ms));
            let link = p.link();
            let now_dropped = link.random_drops() + link.burst_drops();
            assert_eq!(
                link.queued_packets() as u64 + now_dropped + p.wire_packets() as u64,
                40
            );
            assert_eq!(p.wire_packets() as u64, 59 - ms);
            if now_dropped > dropped && p.wire_packets() > 0 {
                drops_ahead_of_the_wire += 1;
            }
            dropped = now_dropped;
        }
        assert!(
            drops_ahead_of_the_wire > 0,
            "no drop had the wire behind it"
        );
        assert!((1..40).contains(&dropped), "{dropped} of 40 dropped");
        // Every packet left standing is delivered, in send order.
        let delivered: Vec<u64> = advance(&mut p, t(200))
            .into_iter()
            .map(|(s, _)| s)
            .collect();
        assert_eq!(delivered.len() as u64 + dropped, 40);
        assert!(delivered.windows(2).all(|w| w[0] < w[1]));
        let sizes: u64 = delivered.iter().map(|&s| 100 + s).sum();
        assert_eq!(
            sizes + p.link().dropped_bytes(),
            (0..40).map(|s| 100 + s).sum()
        );
    }
}

#[test]
fn codel_measures_sojourn_from_arrival_at_the_queue() {
    // Forty MTUs sent at 0 reach the queue at 50 ms (the wire's 50 ms)
    // and leave one per 10 ms opportunity. Measured from arrival, the
    // head's sojourn first reaches the 5 ms target at 60 ms, so the first
    // drop is due one 100 ms interval later, at 160 ms. Measured from the
    // send it would be 50 ms already at 50 ms, and the drop due at 150.
    let mut p = path(LinkConfig {
        queue: QueueConfig::CoDel(CoDelConfig::default()),
        prop_delay: Duration::from_millis(50),
        ..LinkConfig::standard(Trace::from_millis((5..100).map(|k| k * 10)))
    });
    for seq in 0..40 {
        p.send(pkt(seq, MTU_BYTES), t(0));
    }
    let through_150 = advance(&mut p, t(150));
    assert_eq!(
        through_150.len(),
        11,
        "one packet per opportunity, 50..=150 ms"
    );
    assert_eq!(p.link().queue_drops(), 0, "no drop before 160 ms");
    let at_160 = advance(&mut p, t(160));
    assert_eq!(p.link().queue_drops(), 1, "the head at 160 ms is dropped");
    assert_eq!(
        at_160,
        [(12, t(160))],
        "and the next one served in its place"
    );
}

#[test]
fn a_packet_larger_than_an_opportunity_is_served_across_several() {
    // 4000 bytes against 1500-byte opportunities: 1500, 3000, then the
    // last 1000 bytes cross at the third, leaving 500 for the 400-byte
    // packet behind it.
    let mut p = path(LinkConfig::standard(Trace::from_millis([30, 40, 50, 60])));
    p.send(pkt(0, 4_000), t(0));
    p.send(pkt(1, 400), t(1));
    let link = |p: &DirectedPath| {
        let l = p.link();
        (
            l.served_in_progress_bytes(),
            l.queued_bytes(),
            l.queued_packets(),
        )
    };
    assert_eq!(advance(&mut p, t(30)), []);
    assert_eq!(link(&p), (1_500, 2_900, 2));
    assert_eq!(advance(&mut p, t(40)), []);
    assert_eq!(link(&p), (3_000, 1_400, 2));
    assert_eq!(advance(&mut p, t(50)), [(0, t(50)), (1, t(50))]);
    assert_eq!(link(&p), (0, 0, 0));
    assert_eq!(p.link().used_opportunities(), 3);
}

/// The two-queue direction the ring replaced: a wire deque, a DropTail
/// deque and an in-service slot, with the link's random and burst loss
/// drawing from the same streams.
struct TwoQueues {
    prop_delay: Duration,
    wire: VecDeque<(Timestamp, Packet)>,
    queue: VecDeque<Packet>,
    queue_bytes: u64,
    capacity: u64,
    in_service: Option<(Packet, u32)>,
    loss_rate: f64,
    rng: StdRng,
    burst: Option<GilbertElliottProcess>,
    opportunities: Vec<Timestamp>,
    next_op: usize,
    drops: u64,
}

impl TwoQueues {
    fn new(cfg: &LinkConfig) -> Self {
        let QueueConfig::DropTailBytes(capacity) = cfg.queue else {
            panic!("the reference models DropTail only")
        };
        TwoQueues {
            prop_delay: cfg.prop_delay,
            wire: VecDeque::new(),
            queue: VecDeque::new(),
            queue_bytes: 0,
            capacity,
            in_service: None,
            loss_rate: cfg.loss_rate,
            rng: StdRng::seed_from_u64(cfg.loss_seed),
            burst: cfg
                .impair
                .burst_loss
                .map(|ge| GilbertElliottProcess::new(ge, derive_seed(cfg.impair.seed, 0))),
            opportunities: cfg.trace.opportunities().to_vec(),
            next_op: 0,
            drops: 0,
        }
    }

    fn send(&mut self, packet: Packet, now: Timestamp) {
        self.wire.push_back((now + self.prop_delay, packet));
    }

    fn ingress(&mut self, packet: Packet) {
        if self.loss_rate > 0.0 && self.rng.gen::<f64>() < self.loss_rate {
            self.drops += 1;
            return;
        }
        if let Some(burst) = &mut self.burst {
            if burst.should_drop() {
                self.drops += 1;
                return;
            }
        }
        if self.queue_bytes + u64::from(packet.size) > self.capacity {
            self.drops += 1;
            return;
        }
        self.queue_bytes += u64::from(packet.size);
        self.queue.push_back(packet);
    }

    fn serve(&mut self, op: Timestamp, out: &mut Vec<(u64, Timestamp)>) {
        let mut budget = MTU_BYTES;
        while budget > 0 {
            let (packet, served) = match self.in_service.take() {
                Some(s) => s,
                None => match self.queue.pop_front() {
                    Some(p) => {
                        self.queue_bytes -= u64::from(p.size);
                        (p, 0)
                    }
                    None => break,
                },
            };
            let need = packet.size - served;
            if need <= budget {
                budget -= need;
                out.push((packet.seq, op));
            } else {
                self.in_service = Some((packet, served + budget));
                budget = 0;
            }
        }
    }

    fn advance(&mut self, now: Timestamp) -> Vec<(u64, Timestamp)> {
        let mut out = Vec::new();
        loop {
            let arrival = self.wire.front().map(|(t, _)| *t).filter(|&t| t <= now);
            let op = self
                .opportunities
                .get(self.next_op)
                .copied()
                .filter(|&t| t <= now);
            match (arrival, op) {
                (Some(a), o) if o.is_none_or(|o| a <= o) => {
                    let (_, packet) = self.wire.pop_front().expect("an arrival");
                    self.ingress(packet);
                }
                (_, Some(o)) => {
                    self.next_op += 1;
                    self.serve(o, &mut out);
                }
                (_, None) => break,
            }
        }
        out
    }

    fn wire_bytes(&self) -> u64 {
        self.wire.iter().map(|(_, p)| u64::from(p.size)).sum()
    }

    fn queued_bytes(&self) -> u64 {
        self.queue_bytes
            + self
                .in_service
                .as_ref()
                .map_or(0, |(p, s)| u64::from(p.size - s))
    }

    fn served_in_progress_bytes(&self) -> u64 {
        self.in_service.as_ref().map_or(0, |&(_, s)| u64::from(s))
    }
}

/// SplitMix64: the sends' random draws.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

#[test]
fn every_step_matches_the_two_queue_reference() {
    let trace = |d: &mut Draw| {
        let mut ms = 0;
        Trace::from_millis((0..3_000).map(move |_| {
            ms += d.below(4);
            ms
        }))
    };
    for seed in 0..12u64 {
        let mut d = Draw(seed);
        let mut link = LinkConfig::standard(trace(&mut d));
        link.prop_delay = Duration::from_millis(1 + d.below(40));
        match seed % 4 {
            0 => {}
            1 => link.queue = QueueConfig::DropTailBytes(3_000 + d.below(20_000)),
            2 => {
                link.loss_rate = 0.1;
                link.loss_seed = seed;
                link.queue = QueueConfig::DropTailBytes(30_000);
            }
            _ => {
                link.impair.burst_loss = Some(GilbertElliott {
                    p_good_to_bad: 0.05,
                    p_bad_to_good: 0.3,
                    loss_good: 0.01,
                    loss_bad: 0.8,
                });
                link.impair.seed = seed;
            }
        }
        let mut reference = TwoQueues::new(&link);
        let mut p = path(link);
        let mut seq = 0;
        for ms in 0..3_000u64 {
            let now = t(ms);
            let got = advance(&mut p, now);
            assert_eq!(got, reference.advance(now), "seed {seed} at {now}");
            // Bursts of sends, some packets larger than an opportunity.
            for _ in 0..d.below(4) {
                let size = [40, 600, MTU_BYTES, 4_000][d.below(4) as usize];
                p.send(pkt(seq, size), now);
                reference.send(pkt(seq, size), now);
                seq += 1;
            }
            let l = p.link();
            assert_eq!(
                (
                    p.wire_bytes(),
                    l.queued_bytes(),
                    l.served_in_progress_bytes()
                ),
                (
                    reference.wire_bytes(),
                    reference.queued_bytes(),
                    reference.served_in_progress_bytes()
                ),
                "seed {seed} at {now}"
            );
            assert_eq!(
                l.random_drops() + l.burst_drops() + l.queue_drops(),
                reference.drops
            );
        }
    }
}
