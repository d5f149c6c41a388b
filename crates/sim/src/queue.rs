//! Bottleneck queues: the DropTail policy and the one ring a direction
//! holds its packets in.
//!
//! Cellular base stations keep one deep queue per user (§2.1); Cellsim
//! models that queue explicitly. The evaluation compares plain DropTail
//! (deep, "bufferbloated") against CoDel (§5.4), and emulates
//! shallow-buffered carriers via a byte cap. Two policies, one user (the
//! link): `Policy` is an enum over them, dispatched by `match`.
//!
//! Neither policy stores a packet. A direction's packets live in one
//! ring of `(arrival, Packet)` (`Bottleneck`) from the moment they are
//! sent until the link delivers them: the front of the ring is the
//! bottleneck queue, the back is the wire ahead of it. Admitting a packet
//! to the queue moves an index past it; a drop removes it where it lies;
//! the link serves the queue's head in place and pops it only once its
//! last byte crosses. A packet is written into the ring once and read out
//! of it once.

use std::collections::VecDeque;

use crate::codel::CoDelQueue;
use crate::packet::Packet;
use sprout_trace::Timestamp;

/// The packets of one direction and the policy that governs its queue.
///
/// `ring[..admitted]` is the bottleneck queue in arrival order (its head
/// possibly partly served by the link); `ring[admitted..]` is still on
/// the wire. Each entry carries the time the packet reaches (or reached)
/// the queue: the wire's arrival schedule and the queue's enqueue stamp
/// are one field.
#[derive(Debug)]
pub(crate) struct Bottleneck {
    fifo: Fifo,
    policy: Policy,
    /// When the first packet on the wire reaches the queue: read on every
    /// step of an event loop, so kept here rather than looked up in the
    /// ring.
    next_arrival: Option<Timestamp>,
}

/// The ring itself and the index where the wire begins.
#[derive(Debug)]
pub(crate) struct Fifo {
    ring: VecDeque<(Timestamp, Packet)>,
    admitted: usize,
}

/// The queue policy at a link's bottleneck. Both policies keep only
/// counters: `bytes` is the backlog the policy sees (the queue minus a
/// packet already in service), `drops`/`drop_bytes` the cumulative count
/// and bytes of policy drops.
#[derive(Debug)]
pub(crate) enum Policy {
    DropTail(DropTail),
    CoDel(CoDelQueue),
}

impl Bottleneck {
    pub(crate) fn new(policy: Policy) -> Self {
        Bottleneck {
            fifo: Fifo {
                ring: VecDeque::new(),
                admitted: 0,
            },
            policy,
            next_arrival: None,
        }
    }

    /// Put `packet` on the wire behind every packet already there; it
    /// reaches the queue at `arrive_at`, which must not precede the
    /// arrival of the packet ahead of it.
    #[inline]
    pub(crate) fn push_wire(&mut self, packet: Packet, arrive_at: Timestamp) {
        debug_assert!(self.fifo.ring.back().is_none_or(|&(t, _)| t <= arrive_at));
        if self.next_arrival.is_none() {
            self.next_arrival = Some(arrive_at);
        }
        self.fifo.ring.push_back((arrive_at, packet));
    }

    /// The time the first packet on the wire reaches the queue.
    #[inline]
    pub(crate) fn next_arrival(&self) -> Option<Timestamp> {
        self.next_arrival
    }

    /// The first packet on the wire has left it (admitted or dropped).
    #[inline]
    fn wire_advanced(&mut self) {
        self.next_arrival = self.fifo.ring.get(self.fifo.admitted).map(|&(t, _)| t);
    }

    /// Wire size of the first packet on the wire. Panics when the wire
    /// is empty.
    #[inline]
    pub(crate) fn next_arrival_size(&self) -> u32 {
        self.fifo.ring[self.fifo.admitted].1.size
    }

    /// Offer the first packet on the wire to the policy: the queue admits
    /// it, or the policy drops it where it lies.
    #[inline]
    pub(crate) fn admit_next(&mut self) {
        let size = self.next_arrival_size();
        let admitted = match &mut self.policy {
            Policy::DropTail(q) => q.admit(size),
            Policy::CoDel(q) => q.admit(size),
        };
        if admitted {
            self.fifo.admitted += 1;
            self.wire_advanced();
        } else {
            self.remove_next();
        }
    }

    /// Drop the first packet on the wire before the policy sees it (the
    /// link's random and burst loss).
    #[inline]
    pub(crate) fn remove_next(&mut self) {
        self.fifo.ring.remove(self.fifo.admitted);
        self.wire_advanced();
    }

    /// Begin serving the queue's head at `now`: the policy removes it
    /// from its backlog (CoDel may first drop heads instead). The size of
    /// the head to serve, or `None` when the queue is empty.
    #[inline]
    pub(crate) fn start_service(&mut self, now: Timestamp) -> Option<u32> {
        match &mut self.policy {
            Policy::DropTail(q) => {
                let (_, size) = self.fifo.head()?;
                q.release(size);
                Some(size)
            }
            Policy::CoDel(q) => q
                .dequeue(&mut self.fifo, now)
                .then(|| self.fifo.ring[0].1.size),
        }
    }

    /// Size of the queue's head.
    #[inline]
    pub(crate) fn head_size(&self) -> u32 {
        self.fifo.ring[0].1.size
    }

    /// Remove the head, whose last byte has crossed.
    #[inline]
    pub(crate) fn pop_head(&mut self) -> Packet {
        self.fifo.pop_head()
    }

    /// Packets in the queue, the one in service included.
    pub(crate) fn queued_packets(&self) -> usize {
        self.fifo.admitted
    }

    /// Bytes the policy counts as backlog (a packet in service excluded).
    pub(crate) fn bytes(&self) -> u64 {
        match &self.policy {
            Policy::DropTail(q) => q.bytes(),
            Policy::CoDel(q) => q.bytes(),
        }
    }

    /// Packets still on the wire.
    pub(crate) fn wire_packets(&self) -> usize {
        self.fifo.ring.len() - self.fifo.admitted
    }

    /// Bytes still on the wire.
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.fifo
            .ring
            .range(self.fifo.admitted..)
            .map(|(_, p)| u64::from(p.size))
            .sum()
    }

    pub(crate) fn drops(&self) -> u64 {
        match &self.policy {
            Policy::DropTail(q) => q.drops(),
            Policy::CoDel(q) => q.drops(),
        }
    }

    pub(crate) fn drop_bytes(&self) -> u64 {
        match &self.policy {
            Policy::DropTail(q) => q.drop_bytes(),
            Policy::CoDel(q) => q.drop_bytes(),
        }
    }
}

impl Fifo {
    /// Arrival time and size of the queue's head (what CoDel's `dodeque`
    /// judges).
    #[inline]
    pub(crate) fn head(&self) -> Option<(Timestamp, u32)> {
        match self.admitted {
            0 => None,
            _ => self.ring.front().map(|(t, p)| (*t, p.size)),
        }
    }

    /// Remove the queue's head: delivered whole, or dropped by CoDel.
    #[inline]
    pub(crate) fn pop_head(&mut self) -> Packet {
        self.admitted -= 1;
        self.ring.pop_front().expect("a queued head").1
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

/// The first-in-first-out policy that drops arriving packets once
/// `capacity` bytes are queued. Always bounded: a deeply buffered carrier
/// (the paper's measured networks "employ a non-trivial amount of packet
/// buffering", §2.1) is [`DEEP_QUEUE_BYTES`], a shallow one a small cap.
#[derive(Debug)]
pub struct DropTail {
    bytes: u64,
    capacity: u64,
    drops: u64,
    drop_bytes: u64,
}

impl DropTail {
    /// FIFO bounded at `capacity_bytes`.
    pub fn with_capacity_bytes(capacity_bytes: u64) -> Self {
        DropTail {
            bytes: 0,
            capacity: capacity_bytes,
            drops: 0,
            drop_bytes: 0,
        }
    }

    /// Offer a packet of `size` bytes: `false` (and counted as a drop) if
    /// it would overflow the capacity.
    #[inline]
    pub(crate) fn admit(&mut self, size: u32) -> bool {
        if self.bytes + u64::from(size) > self.capacity {
            self.drops += 1;
            self.drop_bytes += u64::from(size);
            return false;
        }
        self.bytes += u64::from(size);
        true
    }

    /// The head, `size` bytes, leaves the backlog for service.
    #[inline]
    pub(crate) fn release(&mut self, size: u32) {
        self.bytes -= u64::from(size);
    }

    /// Bytes currently queued.
    pub fn bytes(&self) -> u64 {
        self.bytes
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
impl Bottleneck {
    /// Admit `packet` straight into the queue at `now` (the policy may
    /// drop it).
    pub(crate) fn enqueue(&mut self, packet: Packet, now: Timestamp) {
        self.push_wire(packet, now);
        self.admit_next();
    }

    /// Serve the whole head at `now`.
    pub(crate) fn dequeue(&mut self, now: Timestamp) -> Option<Packet> {
        self.start_service(now).map(|_| self.pop_head())
    }

    pub(crate) fn policy(&self) -> &Policy {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;

    fn pkt(seq: u64, size: u32) -> Packet {
        Packet::opaque(FlowId::PRIMARY, seq, size)
    }

    fn droptail(capacity: u64) -> Bottleneck {
        Bottleneck::new(Policy::DropTail(DropTail::with_capacity_bytes(capacity)))
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = droptail(DEEP_QUEUE_BYTES);
        q.enqueue(pkt(1, 100), Timestamp::ZERO);
        q.enqueue(pkt(2, 100), Timestamp::ZERO);
        assert_eq!(q.queued_packets(), 2);
        assert_eq!(q.bytes(), 200);
        assert_eq!(q.dequeue(Timestamp::ZERO).unwrap().seq, 1);
        assert_eq!(q.dequeue(Timestamp::ZERO).unwrap().seq, 2);
        assert!(q.dequeue(Timestamp::ZERO).is_none());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn capacity_causes_tail_drop() {
        let mut q = droptail(250);
        q.enqueue(pkt(1, 100), Timestamp::ZERO);
        q.enqueue(pkt(2, 100), Timestamp::ZERO);
        q.enqueue(pkt(3, 100), Timestamp::ZERO); // would exceed 250
        assert_eq!(q.queued_packets(), 2);
        assert_eq!(q.drops(), 1);
        // Draining frees capacity again.
        q.dequeue(Timestamp::ZERO);
        q.enqueue(pkt(4, 100), Timestamp::ZERO);
        assert_eq!(q.queued_packets(), 2);
    }

    #[test]
    fn exactly_full_is_allowed() {
        let mut q = droptail(200);
        q.enqueue(pkt(1, 100), Timestamp::ZERO);
        q.enqueue(pkt(2, 100), Timestamp::ZERO);
        assert_eq!(q.queued_packets(), 2);
        assert_eq!(q.drops(), 0);
    }
}
