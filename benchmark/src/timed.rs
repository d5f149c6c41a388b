//! The benchmark-owned timing adapter: wraps any [`Endpoint`] and records
//! how long the event loop spends inside it, without changing a single
//! call. This is how endpoint time (layers `core`, `baselines`, `tunnel`)
//! is told apart from the event loop's own time (layer `sim`) from
//! outside the crates.
//!
//! A TCP endpoint's poll costs tens of nanoseconds — about what reading
//! the clock twice costs — so timing every call would double what it
//! measures. Around such endpoints the adapter ([`Timed::sampled`])
//! counts every call but times one in [`SAMPLE_EVERY`], and scales the
//! sum up by the counts. Either way the clock's own cost is subtracted
//! from each timed call.

use std::sync::OnceLock;
use std::time::Instant;

use sprout_sim::{Endpoint, Packet};
use sprout_trace::Timestamp;

/// A sampling adapter times one call in this many.
pub const SAMPLE_EVERY: u64 = 8;

/// Nanoseconds an `Instant::now()` … `elapsed()` pair takes around
/// nothing: the median of a thousand back-to-back pairs, measured once.
fn clock_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..1_001)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(t0).elapsed().as_nanos() as u64
            })
            .collect();
        pairs.sort_unstable();
        pairs[pairs.len() / 2]
    })
}

/// Calls of one kind: all counted, all or a sample of them timed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Calls {
    pub count: u64,
    timed: u64,
    timed_ns: u64,
}

impl Calls {
    /// Estimated host time of all `count` calls.
    pub fn ns(&self) -> u64 {
        if self.timed == 0 {
            0
        } else {
            (self.timed_ns as u128 * self.count as u128 / self.timed as u128) as u64
        }
    }

    fn add(&mut self, other: Calls) {
        self.count += other.count;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }

    /// Run `f` as the next call, timing it when its turn comes (every
    /// `every`-th call).
    fn call(&mut self, every: u64, f: impl FnOnce()) {
        self.count += 1;
        if self.count.is_multiple_of(every) {
            let t0 = Instant::now();
            f();
            let ns = t0.elapsed().as_nanos() as u64;
            self.timed_ns += ns.saturating_sub(clock_cost_ns());
            self.timed += 1;
        } else {
            f();
        }
    }
}

/// Calls into one endpoint and the host time they took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStats {
    pub polls: Calls,
    pub packets: Calls,
}

impl CallStats {
    pub fn busy_ns(&self) -> u64 {
        self.polls.ns() + self.packets.ns()
    }

    pub fn add(&mut self, other: CallStats) {
        self.polls.add(other.polls);
        self.packets.add(other.packets);
    }
}

/// A pass-through [`Endpoint`] that times `on_packet` and `poll_into`.
/// `next_wakeup` is forwarded untimed (it takes `&self`); its cost stays
/// with the event loop that calls it.
pub struct Timed<E> {
    pub inner: E,
    pub stats: CallStats,
    every: u64,
}

impl<E> Timed<E> {
    /// Time every call: for endpoints whose calls cost microseconds.
    pub fn new(inner: E) -> Self {
        Timed::every(inner, 1)
    }

    /// Time one call in [`SAMPLE_EVERY`]: for endpoints whose calls cost
    /// about what the clock does.
    pub fn sampled(inner: E) -> Self {
        Timed::every(inner, SAMPLE_EVERY)
    }

    fn every(inner: E, every: u64) -> Self {
        clock_cost_ns(); // calibrate outside the measured region
        Timed {
            inner,
            stats: CallStats::default(),
            every,
        }
    }
}

impl<E: Endpoint> Endpoint for Timed<E> {
    fn on_packet(&mut self, packet: Packet, now: Timestamp) {
        let inner = &mut self.inner;
        self.stats
            .packets
            .call(self.every, || inner.on_packet(packet, now));
    }

    fn poll_into(&mut self, now: Timestamp, out: &mut Vec<Packet>) {
        let inner = &mut self.inner;
        self.stats
            .polls
            .call(self.every, || inner.poll_into(now, out));
    }

    fn next_wakeup(&self) -> Option<Timestamp> {
        self.inner.next_wakeup()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_time_scales_up_by_the_call_count() {
        let mut calls = Calls::default();
        for _ in 0..(SAMPLE_EVERY * 10) {
            calls.call(SAMPLE_EVERY, || {
                std::thread::sleep(std::time::Duration::from_micros(200))
            });
        }
        assert_eq!(calls.count, SAMPLE_EVERY * 10);
        assert_eq!(calls.timed, 10);
        // Ten timed calls of ≥ 200 µs stand for eighty.
        assert!(calls.ns() >= 80 * 200_000, "{}", calls.ns());
        assert_eq!(Calls::default().ns(), 0);
    }
}
