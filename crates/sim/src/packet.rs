//! Network-layer packets as seen by the emulator.

use bytes::Bytes;
use sprout_trace::Timestamp;

/// Identifier for an application flow multiplexed over a path. The tunnel
/// (§4.3) uses this to keep per-flow queues; single-flow protocols use
/// [`FlowId::PRIMARY`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The default flow for single-flow endpoints.
    pub const PRIMARY: FlowId = FlowId(0);
}

/// A packet in flight.
///
/// The packet model: `size` is what links and queues account; `payload`
/// holds only the bytes some endpoint will read (a protocol header,
/// an encapsulated datagram); `padding` is filler the protocol would put
/// on the wire after `payload` — counted, never stored. Bulk senders
/// emit a 17-byte header with `padding` of 1483 rather than a zeroed
/// 1500-byte buffer per segment. Exactly one place needs the filler as
/// real bytes and materialises it: tunnel encapsulation
/// (`sprout_tunnel::encapsulate`).
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Emulator-level sequence number, stamped by the sending endpoint for
    /// logging/debugging; protocols carry their real sequence numbers in
    /// `payload`.
    pub seq: u64,
    /// When the packet was handed to the network (stamped by the event
    /// loop as the packet leaves the sender).
    pub sent_at: Timestamp,
    /// Total size on the wire, bytes: the only length links and queues
    /// see. Must be ≥ `payload.len() + padding`; the difference models
    /// headers the protocol did not serialize.
    pub size: u32,
    /// Zero bytes the protocol's wire format carries after `payload`,
    /// as a count. Not derivable from `size`: a TCP ACK is 25 payload
    /// bytes in a 40-byte packet with no padding at all.
    pub padding: u32,
    /// Serialized protocol bytes an endpoint will read.
    pub payload: Bytes,
}

impl Packet {
    /// Convenience constructor: wire size equals payload length.
    pub fn from_payload(flow: FlowId, seq: u64, payload: Bytes) -> Self {
        let size = payload.len() as u32;
        Packet {
            flow,
            seq,
            sent_at: Timestamp::ZERO,
            size,
            padding: 0,
            payload,
        }
    }

    /// A packet of `size` opaque bytes (contents irrelevant to the
    /// experiment, e.g. bulk filler).
    pub fn opaque(flow: FlowId, seq: u64, size: u32) -> Self {
        Packet {
            flow,
            seq,
            sent_at: Timestamp::ZERO,
            size,
            padding: 0,
            payload: Bytes::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_payload_sets_size() {
        let p = Packet::from_payload(FlowId::PRIMARY, 7, Bytes::from_static(b"hello"));
        assert_eq!(p.size, 5);
        assert_eq!(p.seq, 7);
    }

    #[test]
    fn opaque_has_empty_payload() {
        let p = Packet::opaque(FlowId(3), 0, 1500);
        assert_eq!(p.size, 1500);
        assert!(p.payload.is_empty());
    }
}
