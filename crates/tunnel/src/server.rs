//! The multi-session Sprout server: N independent sessions behind one
//! [`Endpoint`].
//!
//! [`TunnelHost`](crate::TunnelHost) composes one Sprout session with its
//! clients; `MuxEndpoint` composes N arbitrary endpoints but polls every
//! child on every event. [`SproutServer`] generalizes both for the
//! serve-at-scale case: it owns a [`SessionPool`] (thin per-session state
//! over one shared forecast-table build), demuxes arriving wire packets
//! to their session by [`FlowId`](sprout_sim::FlowId) = session id, and drives polling off a
//! [`TimerWheel`] so an event only touches the sessions that are
//! actually due (tick deadline reached) or dirty (received a packet) —
//! the per-event cost is O(due + dirty), not O(N).

use sprout_core::{SessionPool, SproutConfig};
use sprout_sim::{Endpoint, Packet, TimerWheel};
use sprout_trace::Timestamp;

/// One process's worth of independent Sprout sessions behind a single
/// [`Endpoint`]: the pool holds per-session state, the wheel schedules
/// per-session ticks, and packets route by session id in both
/// directions. Session endpoints stamp their own [`FlowId`](sprout_sim::FlowId), so no
/// re-stamping pass is needed on the way out.
pub struct SproutServer {
    pool: SessionPool,
    wheel: TimerWheel,
    /// Sessions that received a packet since their last poll, by dense
    /// index; drained in ascending order for determinism.
    dirty: Vec<bool>,
    any_dirty: bool,
    /// The sessions due at the current poll, in wheel order (reused).
    due: Vec<usize>,
    /// Cached earliest tick deadline across all sessions. The wheel only
    /// changes inside `add_session` and `poll_into` (both `&mut self`),
    /// so recomputing it there keeps `next_wakeup` O(1) under the
    /// `&self` [`Endpoint`] contract.
    next_deadline: Option<Timestamp>,
}

impl SproutServer {
    /// Empty server over one link group (`cfg`) for one cell
    /// (`cell_seed`).
    pub fn new(cfg: SproutConfig, cell_seed: u64) -> Self {
        SproutServer {
            pool: SessionPool::new(cfg, cell_seed),
            wheel: TimerWheel::new(),
            dirty: Vec::new(),
            any_dirty: false,
            due: Vec::new(),
            next_deadline: None,
        }
    }

    /// Add (and arm) the server half of session `session_id`; returns
    /// the dense index. Saturating workloads are driven by the *clients*;
    /// the server half sends only feedback and heartbeats.
    pub fn add_session(&mut self, session_id: u32) -> usize {
        let idx = self.pool.add_session(session_id);
        self.dirty.push(false);
        let wakeup = self.pool.endpoint_mut(idx).next_wakeup();
        self.wheel.schedule(idx, wakeup);
        self.next_deadline = self.wheel.next_deadline();
        idx
    }

    /// The session pool (per-session stats, shared-table handle).
    pub fn pool(&self) -> &SessionPool {
        &self.pool
    }

    /// Number of sessions served.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when no sessions are attached.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    fn poll_session(&mut self, idx: usize, now: Timestamp, out: &mut Vec<Packet>) {
        self.dirty[idx] = false;
        let endpoint = self.pool.endpoint_mut(idx);
        endpoint.poll_into(now, out);
        let wakeup = endpoint.next_wakeup();
        self.wheel.schedule(idx, wakeup);
    }
}

impl Endpoint for SproutServer {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        if let Some(idx) = self.pool.index_of(packet.flow.0) {
            self.pool.endpoint_mut(idx).on_packet(packet, now);
            self.dirty[idx] = true;
            self.any_dirty = true;
        }
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        // Sessions whose tick deadline arrived, in deadline order, in
        // three passes: every receiver tick (evolve, observe), then every
        // forecast, then every poll, so each pass runs one kernel back to
        // back over the sessions with its tables hot. Exact: a session's
        // own operations keep their order, and the only state sessions
        // share that any pass writes — the thread's likelihood memo —
        // sees the observations in the same order as session-by-session
        // polling would.
        let mut due = std::mem::take(&mut self.due);
        due.extend(std::iter::from_fn(|| self.wheel.pop_due(now)));
        for &idx in &due {
            self.pool.endpoint_mut(idx).process_ticks(now);
        }
        for &idx in &due {
            self.pool.endpoint_mut(idx).prepare_feedback();
        }
        for idx in due.drain(..) {
            self.poll_session(idx, now, out);
        }
        self.due = due;
        // Sessions that received packets since their last poll (their
        // window or feedback state may allow immediate transmission).
        if self.any_dirty {
            self.any_dirty = false;
            for idx in 0..self.dirty.len() {
                if self.dirty[idx] {
                    self.poll_session(idx, now, out);
                }
            }
        }
        self.next_deadline = self.wheel.next_deadline();
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        // Dirty sessions need no deadline of their own: the driver polls
        // after every delivery anyway.
        self.next_deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_core::SproutEndpoint;
    use sprout_sim::FlowId;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn server_demuxes_by_session_id() {
        let cfg = sprout_core::SproutConfig::test_small();
        let mut server = SproutServer::new(cfg.clone(), 99);
        server.add_session(1);
        server.add_session(2);
        // A valid Sprout packet addressed to session 2 only bumps
        // session 2's counters.
        let mut client = SproutEndpoint::new_ewma(cfg);
        client.set_flow(FlowId(2));
        let mut pkts = Vec::new();
        client.poll_into(t(0), &mut pkts);
        assert!(!pkts.is_empty());
        for p in pkts {
            server.on_packet(p, t(0));
        }
        assert_eq!(server.pool().stats(0).packets_received, 0);
        assert_eq!(server.pool().stats(1).packets_received, 1);
    }

    #[test]
    fn server_polls_only_due_sessions_but_covers_all_ticks() {
        let cfg = sprout_core::SproutConfig::test_small();
        let mut server = SproutServer::new(cfg, 7);
        for sid in 0..4 {
            server.add_session(sid);
        }
        // All sessions tick on the same grid; at the first tick boundary
        // every session emits its heartbeat exactly once.
        let first = server.next_wakeup().expect("sessions are armed");
        let mut out = Vec::new();
        server.poll_into(first, &mut out);
        assert_eq!(out.len(), 4, "one heartbeat per session");
        // Immediately afterwards nothing is due: the wheel re-armed
        // every session for the *next* tick.
        out.clear();
        server.poll_into(first, &mut out);
        assert!(out.is_empty());
        assert!(server.next_wakeup() > Some(first));
    }
}
