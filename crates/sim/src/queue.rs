//! Bottleneck queues: the DropTail policy and the one representation a
//! link holds its queue in.
//!
//! Cellular base stations keep one deep queue per user (§2.1); Cellsim
//! models that queue explicitly. The evaluation compares plain DropTail
//! (deep, "bufferbloated") against CoDel (§5.4), and emulates
//! shallow-buffered carriers via a byte cap. Two policies, one user (the
//! link): `Bottleneck` is an enum over them, dispatched by `match`.

use std::collections::VecDeque;

use crate::codel::CoDelQueue;
use crate::packet::Packet;
use sprout_trace::Timestamp;

/// The queue at a link's bottleneck, under either policy. Both share one
/// interface: `enqueue` offers a packet at `now` (the policy may drop
/// it); `dequeue` removes the next packet to serve, `now` being the time
/// service begins (CoDel measures sojourn time against it and may drop
/// packets instead of returning them); `bytes`/`packets` are the current
/// backlog and `drops`/`drop_bytes` the cumulative count and bytes of
/// policy drops.
#[derive(Debug)]
pub(crate) enum Bottleneck {
    DropTail(DropTail),
    CoDel(CoDelQueue),
}

impl Bottleneck {
    #[inline]
    pub(crate) fn enqueue(&mut self, packet: Packet, now: Timestamp) {
        match self {
            Bottleneck::DropTail(q) => q.enqueue(packet, now),
            Bottleneck::CoDel(q) => q.enqueue(packet, now),
        }
    }

    #[inline]
    pub(crate) fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        match self {
            Bottleneck::DropTail(q) => q.dequeue(now),
            Bottleneck::CoDel(q) => q.dequeue(now),
        }
    }

    pub(crate) fn bytes(&self) -> u64 {
        match self {
            Bottleneck::DropTail(q) => q.bytes(),
            Bottleneck::CoDel(q) => q.bytes(),
        }
    }

    pub(crate) fn packets(&self) -> usize {
        match self {
            Bottleneck::DropTail(q) => q.packets(),
            Bottleneck::CoDel(q) => q.packets(),
        }
    }

    pub(crate) fn drops(&self) -> u64 {
        match self {
            Bottleneck::DropTail(q) => q.drops(),
            Bottleneck::CoDel(q) => q.drops(),
        }
    }

    pub(crate) fn drop_bytes(&self) -> u64 {
        match self {
            Bottleneck::DropTail(q) => q.drop_bytes(),
            Bottleneck::CoDel(q) => q.drop_bytes(),
        }
    }
}

/// The explicit capacity standing in for a "deeply buffered" carrier
/// queue (§2.1). Far beyond any backlog a closed-loop or rate-adaptive
/// scheme builds in a paper-length run — measured worst case is Cubic
/// on the Verizon LTE downlink, which peaks at ~6 MiB of backlog over a
/// full 1020 s run (43× headroom, zero drops) — so behavior is
/// indistinguishable from unbounded, but finite: the byte-cap
/// accounting path is always exercised and a runaway sender cannot
/// consume unbounded memory.
pub const DEEP_QUEUE_BYTES: u64 = 256 * 1024 * 1024;

/// First-in-first-out queue that drops arriving packets once `capacity`
/// bytes are queued. Always bounded: a deeply buffered carrier (the
/// paper's measured networks "employ a non-trivial amount of packet
/// buffering", §2.1) is [`DEEP_QUEUE_BYTES`], a shallow one a small cap.
#[derive(Debug)]
pub struct DropTail {
    queue: VecDeque<Packet>,
    bytes: u64,
    capacity: u64,
    drops: u64,
    drop_bytes: u64,
}

impl DropTail {
    /// FIFO bounded at `capacity_bytes`.
    pub fn with_capacity_bytes(capacity_bytes: u64) -> Self {
        DropTail {
            queue: VecDeque::new(),
            bytes: 0,
            capacity: capacity_bytes,
            drops: 0,
            drop_bytes: 0,
        }
    }

    /// Offer a packet; it is dropped if it would overflow the capacity.
    #[inline]
    pub fn enqueue(&mut self, packet: Packet, _now: Timestamp) {
        if self.bytes + packet.size as u64 > self.capacity {
            self.drops += 1;
            self.drop_bytes += packet.size as u64;
            return;
        }
        self.bytes += packet.size as u64;
        self.queue.push_back(packet);
    }

    /// Remove the packet at the head of the queue.
    #[inline]
    pub fn dequeue(&mut self, _now: Timestamp) -> Option<Packet> {
        let p = self.queue.pop_front()?;
        self.bytes -= p.size as u64;
        Some(p)
    }

    /// Bytes currently queued.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Packets currently queued.
    pub fn packets(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative count of packets dropped at the tail.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Cumulative bytes of the packets dropped at the tail.
    pub fn drop_bytes(&self) -> u64 {
        self.drop_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    fn pkt(seq: u64, size: u32) -> Packet {
        Packet::opaque(FlowId::PRIMARY, seq, size)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = Bottleneck::DropTail(DropTail::with_capacity_bytes(DEEP_QUEUE_BYTES));
        q.enqueue(pkt(1, 100), Timestamp::ZERO);
        q.enqueue(pkt(2, 100), Timestamp::ZERO);
        assert_eq!(q.packets(), 2);
        assert_eq!(q.bytes(), 200);
        assert_eq!(q.dequeue(Timestamp::ZERO).unwrap().seq, 1);
        assert_eq!(q.dequeue(Timestamp::ZERO).unwrap().seq, 2);
        assert!(q.dequeue(Timestamp::ZERO).is_none());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn capacity_causes_tail_drop() {
        let mut q = Bottleneck::DropTail(DropTail::with_capacity_bytes(250));
        q.enqueue(pkt(1, 100), Timestamp::ZERO);
        q.enqueue(pkt(2, 100), Timestamp::ZERO);
        q.enqueue(pkt(3, 100), Timestamp::ZERO); // would exceed 250
        assert_eq!(q.packets(), 2);
        assert_eq!(q.drops(), 1);
        // Draining frees capacity again.
        q.dequeue(Timestamp::ZERO);
        q.enqueue(pkt(4, 100), Timestamp::ZERO);
        assert_eq!(q.packets(), 2);
    }

    #[test]
    fn exactly_full_is_allowed() {
        let mut q = Bottleneck::DropTail(DropTail::with_capacity_bytes(200));
        q.enqueue(pkt(1, 100), Timestamp::ZERO);
        q.enqueue(pkt(2, 100), Timestamp::ZERO);
        assert_eq!(q.packets(), 2);
        assert_eq!(q.drops(), 0);
    }
}
