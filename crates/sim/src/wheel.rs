//! A lazy-deletion timer wheel over dense indices.
//!
//! Event loops that drive N independent components (the multi-session
//! server, the per-session paths of [`crate::ServeSim`]) need "who is
//! due at or before `now`?" without scanning all N per event. The wheel
//! groups armed indices into one bucket per distinct deadline, buckets in
//! deadline order, plus a `scheduled` column recording each index's
//! single *valid* deadline: re-arming is a push into the deadline's
//! bucket (the superseded entry goes stale and is skipped on pop).
//!
//! The buckets are what a serve pool needs: its sessions share one trace,
//! so at each delivery opportunity dozens of paths come due at one
//! instant and re-arm to the next one. Popping a bucket walks its
//! indices in order and arming appends to the newest bucket, both O(1)
//! amortized, where a heap of `(deadline, index)` sifted every entry
//! through O(log n) levels.

use std::collections::VecDeque;

use sprout_trace::Timestamp;

/// A lazy-deletion timer wheel: the buckets may hold stale entries, but
/// `scheduled` records each index's only valid deadline, so stale pops
/// are skipped and re-arming never rebuilds a bucket.
#[derive(Default)]
pub struct TimerWheel {
    /// One bucket per deadline armed, in ascending deadline order. A
    /// bucket may hold nothing but stale entries until it reaches the
    /// front.
    buckets: VecDeque<Bucket>,
    /// The currently valid deadline per index (`None` = unarmed).
    scheduled: Vec<Option<Timestamp>>,
    /// Storage of drained buckets, reused by new ones.
    spare: Vec<Vec<usize>>,
}

/// The indices armed for one deadline.
struct Bucket {
    at: Timestamp,
    /// `indices[next..]` have not been popped yet.
    indices: Vec<usize>,
    next: usize,
    /// Whether `indices[next..]` is ascending. Indices are mostly armed in
    /// the order they were popped, so a bucket rarely needs a sort.
    sorted: bool,
}

impl Bucket {
    fn push(&mut self, idx: usize) {
        if self.indices[self.next..]
            .last()
            .is_some_and(|&last| last > idx)
        {
            self.sorted = false;
        }
        self.indices.push(idx);
    }

    /// The smallest index not yet popped.
    fn front(&mut self) -> Option<usize> {
        if !self.sorted {
            self.indices[self.next..].sort_unstable();
            self.sorted = true;
        }
        self.indices.get(self.next).copied()
    }
}

impl TimerWheel {
    /// Empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm (or re-arm) index `idx` to fire at `at`. `None` disarms.
    pub fn schedule(&mut self, idx: usize, at: Option<Timestamp>) {
        if self.scheduled.len() <= idx {
            self.scheduled.resize(idx + 1, None);
        }
        // Skip the push when the valid deadline is unchanged — re-arming
        // an idle component to the same tick boundary every step would
        // otherwise grow its bucket without bound.
        if self.scheduled[idx] == at {
            return;
        }
        self.scheduled[idx] = at;
        if let Some(t) = at {
            self.bucket(t).push(idx);
        }
    }

    /// The bucket of deadline `t`, made if there is none. Deadlines are
    /// mostly armed at or after the latest one, so the back is looked at
    /// first.
    fn bucket(&mut self, t: Timestamp) -> &mut Bucket {
        let at = match self.buckets.back() {
            Some(b) if b.at == t => self.buckets.len() - 1,
            Some(b) if b.at > t => match self.buckets.binary_search_by_key(&t, |b| b.at) {
                Ok(i) => i,
                Err(i) => {
                    let fresh = self.fresh(t);
                    self.buckets.insert(i, fresh);
                    i
                }
            },
            _ => {
                let fresh = self.fresh(t);
                self.buckets.push_back(fresh);
                self.buckets.len() - 1
            }
        };
        &mut self.buckets[at]
    }

    fn fresh(&mut self, at: Timestamp) -> Bucket {
        Bucket {
            at,
            indices: self.spare.pop().unwrap_or_default(),
            next: 0,
            sorted: true,
        }
    }

    /// The front bucket's next valid entry, dropping stale entries and
    /// drained buckets on the way; `None` when nothing is armed.
    fn front(&mut self) -> Option<(Timestamp, usize)> {
        loop {
            let bucket = self.buckets.front_mut()?;
            match bucket.front() {
                Some(idx) if self.scheduled[idx] == Some(bucket.at) => {
                    return Some((bucket.at, idx));
                }
                Some(_) => bucket.next += 1, // stale: superseded or disarmed
                None => {
                    let mut drained = self.buckets.pop_front().expect("a front bucket").indices;
                    drained.clear();
                    self.spare.push(drained);
                }
            }
        }
    }

    /// Earliest armed deadline across all indices (amortized stale-entry
    /// cleanup).
    pub fn next_deadline(&mut self) -> Option<Timestamp> {
        self.front().map(|(t, _)| t)
    }

    /// Pop the next index due at or before `now` (disarming it), in
    /// deterministic `(deadline, index)` order.
    pub fn pop_due(&mut self, now: Timestamp) -> Option<usize> {
        let (t, idx) = self.front()?;
        if t > now {
            return None;
        }
        self.buckets[0].next += 1;
        self.scheduled[idx] = None;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn pops_in_deadline_order_and_skips_stale_entries() {
        let mut w = TimerWheel::new();
        w.schedule(0, Some(t(30)));
        w.schedule(1, Some(t(10)));
        w.schedule(2, Some(t(20)));
        w.schedule(1, Some(t(40))); // re-arm: the t(10) entry is now stale
        assert_eq!(w.next_deadline(), Some(t(20)));
        assert_eq!(w.pop_due(t(25)), Some(2));
        assert_eq!(w.pop_due(t(25)), None, "index 0 due at 30");
        assert_eq!(w.pop_due(t(50)), Some(0));
        assert_eq!(w.pop_due(t(50)), Some(1));
        assert_eq!(w.pop_due(t(50)), None);
        assert_eq!(w.next_deadline(), None);
    }

    #[test]
    fn disarm_and_rearm_to_same_deadline() {
        let mut w = TimerWheel::new();
        w.schedule(3, Some(t(5)));
        w.schedule(3, None);
        assert_eq!(w.pop_due(t(10)), None);
        w.schedule(3, Some(t(5)));
        w.schedule(3, Some(t(5))); // no-op: unchanged valid deadline
        assert_eq!(w.pop_due(t(10)), Some(3));
        assert_eq!(w.pop_due(t(10)), None, "popping disarms");
    }

    /// The binary heap of `(deadline, index)` the buckets replaced: the
    /// order oracle.
    #[derive(Default)]
    struct HeapWheel {
        heap: BinaryHeap<Reverse<(Timestamp, usize)>>,
        scheduled: Vec<Option<Timestamp>>,
    }

    impl HeapWheel {
        fn schedule(&mut self, idx: usize, at: Option<Timestamp>) {
            if self.scheduled.len() <= idx {
                self.scheduled.resize(idx + 1, None);
            }
            if self.scheduled[idx] == at {
                return;
            }
            self.scheduled[idx] = at;
            if let Some(t) = at {
                self.heap.push(Reverse((t, idx)));
            }
        }

        fn pop_due(&mut self, now: Timestamp) -> Option<usize> {
            while let Some(Reverse((t, idx))) = self.heap.peek().copied() {
                if self.scheduled[idx] != Some(t) {
                    self.heap.pop();
                    continue;
                }
                if t > now {
                    return None;
                }
                self.heap.pop();
                self.scheduled[idx] = None;
                return Some(idx);
            }
            None
        }

        fn next_deadline(&mut self) -> Option<Timestamp> {
            while let Some(Reverse((t, idx))) = self.heap.peek().copied() {
                if self.scheduled[idx] == Some(t) {
                    return Some(t);
                }
                self.heap.pop();
            }
            None
        }
    }

    #[test]
    fn buckets_pop_in_the_heaps_order_under_random_arming() {
        // SplitMix64 draws: arm, re-arm and disarm 40 indices over a few
        // shared deadlines (many entries per bucket, like a serve pool)
        // and over scattered ones, popping mid-bucket and re-arming into
        // the bucket being popped.
        let mut state = 7u64;
        let mut draw = |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let (mut wheel, mut heap) = (TimerWheel::new(), HeapWheel::default());
        let mut now = 0u64;
        for _ in 0..20_000 {
            match draw(8) {
                0..=3 => {
                    let idx = draw(40) as usize;
                    let at = match draw(6) {
                        0 => None,
                        1 | 2 => Some(t(now + draw(3))),
                        _ => Some(t(now + draw(50))),
                    };
                    wheel.schedule(idx, at);
                    heap.schedule(idx, at);
                }
                4 | 5 => {
                    let popped = wheel.pop_due(t(now));
                    assert_eq!(popped, heap.pop_due(t(now)));
                    if let Some(idx) = popped.filter(|_| draw(2) == 0) {
                        let at = Some(t(now + draw(2)));
                        wheel.schedule(idx, at);
                        heap.schedule(idx, at);
                    }
                }
                6 => assert_eq!(wheel.next_deadline(), heap.next_deadline()),
                _ => now += draw(4),
            }
        }
        while let Some(idx) = heap.pop_due(Timestamp::FAR_FUTURE) {
            assert_eq!(wheel.pop_due(Timestamp::FAR_FUTURE), Some(idx));
        }
        assert_eq!(wheel.pop_due(Timestamp::FAR_FUTURE), None);
    }
}
