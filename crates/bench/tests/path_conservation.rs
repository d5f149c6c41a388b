//! Per-path conservation over random small cells: every packet an
//! endpoint hands to a direction is, at any instant, exactly one of
//! delivered, dropped (random loss, burst loss, queue policy), queued
//! (the partially served packet once), on the wire, or waiting in the
//! jitter/reorder release buffer — in packets and in bytes, on both
//! directions of a pair.
//!
//! Senders and receivers are wrapped in a tally that counts what they
//! emit and what they are handed, so both sides of each identity are
//! witnessed outside the path. The cells cross DropTail deep and
//! byte-capped queues and CoDel with Bernoulli loss and every impairment
//! preset, and stop at an arbitrary instant, mid-flight. Only the a→b
//! direction keeps a delivery log; there the identity also holds flow by
//! flow: the log and the receiving endpoints agree on every flow, and no
//! flow gets back more than it sent.

use std::collections::BTreeMap;

use sprout_bench::{build_endpoints, RunConfig, Scheme};
use sprout_sim::{
    CoDelConfig, DirectedPath, Endpoint, FlowId, LinkImpairment, MuxEndpoint, Packet, PathConfig,
    QueueConfig, Simulation, DEEP_QUEUE_BYTES,
};
use sprout_trace::{Duration, Impairment, OutageSchedule, Timestamp, Trace, IMPAIRMENT_PRESETS};

/// SplitMix64: the cells' random draws.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `range` (small ranges; the modulo bias is immaterial).
    fn range(&mut self, range: std::ops::Range<u64>) -> u64 {
        range.start + self.next() % (range.end - range.start)
    }

    /// Uniform in `[lo, hi)`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Packets and bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    packets: u64,
    bytes: u64,
}

impl Tally {
    fn add(&mut self, p: &Packet) {
        self.packets += 1;
        self.bytes += u64::from(p.size);
    }
}

/// Counts, per flow, what `inner` emits and what it is handed.
struct Counted<E> {
    inner: E,
    sent: BTreeMap<FlowId, Tally>,
    received: BTreeMap<FlowId, Tally>,
}

impl<E> Counted<E> {
    fn new(inner: E) -> Self {
        Counted {
            inner,
            sent: BTreeMap::new(),
            received: BTreeMap::new(),
        }
    }
}

fn total(per_flow: &BTreeMap<FlowId, Tally>) -> Tally {
    per_flow.values().fold(Tally::default(), |a, t| Tally {
        packets: a.packets + t.packets,
        bytes: a.bytes + t.bytes,
    })
}

impl<E: Endpoint> Endpoint for Counted<E> {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        self.received.entry(packet.flow).or_default().add(&packet);
        self.inner.on_packet(packet, now);
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        let start = out.len();
        self.inner.poll_into(now, out);
        for p in &out[start..] {
            self.sent.entry(p.flow).or_default().add(p);
        }
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        self.inner.next_wakeup()
    }
}

/// A random delivery schedule: mostly 1–6 ms apart, with the odd
/// 100–600 ms dead spell.
fn random_trace(rng: &mut Draw, secs: u64) -> Trace {
    let mut at = 0;
    let mut ms = Vec::new();
    while at < secs * 1_000 {
        at += if rng.range(0..400) == 0 {
            rng.range(100..600)
        } else {
            rng.range(1..7)
        };
        ms.push(at);
    }
    Trace::from_millis(ms)
}

/// What the far side of `path` can still account for: delivered,
/// dropped, queued, on the wire or awaiting release.
fn accounted(path: &DirectedPath) -> Tally {
    let link = path.link();
    Tally {
        packets: path.delivered_packets()
            + link.random_drops()
            + link.burst_drops()
            + link.queue_drops()
            + link.queued_packets() as u64
            + path.wire_packets() as u64
            + link.pending_release_packets() as u64,
        bytes: path.delivered_bytes()
            + link.dropped_bytes()
            + link.queued_bytes()
            + link.served_in_progress_bytes()
            + path.wire_bytes()
            + link.pending_release_bytes(),
    }
}

/// How often each way a packet can be in flight or lost was seen, so
/// the property cannot pass on cells that never exercised it.
#[derive(Debug, Default)]
struct Seen {
    random_drops: u64,
    burst_drops: u64,
    queue_drops: u64,
    partial: u64,
    wire: u64,
    pending: u64,
}

#[test]
fn every_packet_is_delivered_dropped_or_still_in_the_path() {
    let mut rng = Draw(2013);
    let mut seen = Seen::default();
    for case in 0..84usize {
        let secs = rng.range(2..5);
        let preset = IMPAIRMENT_PRESETS[case % IMPAIRMENT_PRESETS.len()];
        let impairment = Impairment::preset(preset).expect("a preset");
        let queue = match (case / IMPAIRMENT_PRESETS.len()) % 3 {
            0 => QueueConfig::DropTailBytes(DEEP_QUEUE_BYTES),
            1 => QueueConfig::DropTailBytes(rng.range(3_000..60_000)),
            _ => QueueConfig::CoDel(CoDelConfig::default()),
        };
        let loss_rate = if rng.range(0..2) == 0 {
            0.0
        } else {
            rng.float(0.005, 0.1)
        };
        let (down, up) = (random_trace(&mut rng, secs), random_trace(&mut rng, secs));
        let outages = impairment
            .outage
            .map(|spec| OutageSchedule::generate(&spec, rng.next(), Duration::from_secs(secs)))
            .unwrap_or_default();
        let prop = Duration::from_millis(rng.range(1..60));
        let mut path = |trace: Trace| {
            let mut cfg = PathConfig::standard(trace).with_prop_delay(prop);
            cfg.link.queue = queue.clone();
            cfg.link.loss_rate = loss_rate;
            cfg.link.loss_seed = rng.next();
            cfg.link.impair = LinkImpairment::from_spec(&impairment, rng.next(), outages.clone());
            cfg
        };
        let (ab, ba) = (path(down.clone()), path(up.clone()));

        // Two flows share the path: a bulk TCP flow and a second one of
        // another kind, whose feedback rides the reverse direction too.
        let rc = RunConfig::new(down, up);
        let second = [Scheme::Skype, Scheme::Vegas, Scheme::Hangout][case % 3];
        let (mut senders, mut receivers) = (MuxEndpoint::new(), MuxEndpoint::new());
        for (flow, scheme) in [(FlowId(1), Scheme::Cubic), (FlowId(2), second)] {
            let (a, b) = build_endpoints(scheme, &rc);
            senders.add(flow, a);
            receivers.add(flow, b);
        }
        let mut sim = Simulation::new(Counted::new(senders), Counted::new(receivers), ab, ba);
        // Stop at an arbitrary µs, mid-flight.
        sim.run_until(Timestamp::from_micros(
            rng.range(secs * 500_000..secs * 1_000_000),
        ));

        for (what, path, sender, receiver) in [
            ("a→b", sim.ab_path(), &sim.a.sent, &sim.b.received),
            ("b→a", sim.ba_path(), &sim.b.sent, &sim.a.received),
        ] {
            let ctx = format!("case {case} ({preset}, {queue:?}, loss {loss_rate:.3}) {what}");
            assert_eq!(total(sender), accounted(path), "{ctx}: sent");
            let delivered = Tally {
                packets: path.delivered_packets(),
                bytes: path.delivered_bytes(),
            };
            assert_eq!(total(receiver), delivered, "{ctx}: received");
            let link = path.link();
            seen.random_drops += link.random_drops();
            seen.burst_drops += link.burst_drops();
            seen.queue_drops += link.queue_drops();
            seen.partial += u64::from(link.served_in_progress_bytes() > 0);
            seen.wire += path.wire_packets() as u64;
            seen.pending += link.pending_release_packets() as u64;
        }

        // The logged direction, flow by flow.
        let ab = sim.ab_path();
        let mut logged: BTreeMap<FlowId, Tally> = BTreeMap::new();
        for r in ab.metrics().records() {
            let t = logged.entry(r.flow).or_default();
            t.packets += 1;
            t.bytes += u64::from(r.size);
        }
        assert_eq!(logged, sim.b.received, "case {case}: the log is what b got");
        for (flow, sent) in &sim.a.sent {
            let got = logged.get(flow).copied().unwrap_or_default();
            assert!(
                got.packets <= sent.packets && got.bytes <= sent.bytes,
                "case {case}: flow {flow:?} got back {got:?} of {sent:?}"
            );
        }
        assert!(
            sim.ba_path().metrics().records().is_empty(),
            "case {case}: b→a keeps no log"
        );
    }
    assert!(
        seen.random_drops > 0
            && seen.burst_drops > 0
            && seen.queue_drops > 0
            && seen.partial > 0
            && seen.wire > 0
            && seen.pending > 0,
        "some way through the path was never exercised: {seen:?}"
    );
}
