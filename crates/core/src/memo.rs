//! A thread-safe memo for in-process memoization.
//!
//! The sweep engine and the forecast-table cache memoize expensive
//! pure-function results (synthesized traces, CDF tables) keyed by their
//! input configuration. [`Memo`] is the shared form both take: a map of
//! per-key build slots under a mutex, counting into a [`MemoCounters`]
//! block its owner names.
//!
//! A memo keeps every key it is asked for. The key populations are what
//! the process asks for and no more: the model parameters are frozen, so
//! a `reproduce` process builds one forecast-table geometry (a confidence
//! sweep shares it — the percentile is not part of the key), a trace memo
//! belongs to one sweep and dies with it, and the control daemon builds
//! neither.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// In-memory amortization counters: how many times a shared resource was
/// materialized in this process versus served from a live in-memory
/// handle. Distinct from `sprout_cache::CacheCounters`, which tracks the
/// *disk* artifact cache — a "built" here may still have been a disk hit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// First-time materializations (a build, or a disk decode for a
    /// kind the disk cache also stores).
    pub built: u64,
    /// Requests served from an already-live in-memory instance.
    pub reused: u64,
}

impl MemCounters {
    /// Counter deltas since an earlier snapshot of the same counters.
    pub fn since(self, earlier: MemCounters) -> MemCounters {
        MemCounters {
            built: self.built - earlier.built,
            reused: self.reused - earlier.reused,
        }
    }
}

/// The counter block a [`Memo`] reports into; its owner declares one
/// `static` per kind of memoized thing, so the numbers outlive any one
/// memo and accumulate over every memo that names the block.
#[derive(Debug)]
pub struct MemoCounters {
    built: AtomicU64,
    reused: AtomicU64,
}

impl MemoCounters {
    /// All zeros (`const`, so a block can be a `static`).
    pub const fn zeroed() -> Self {
        MemoCounters {
            built: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// Values built versus requests served by a live slot.
    pub fn memory(&self) -> MemCounters {
        MemCounters {
            built: self.built.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }
}

/// A thread-safe memo of expensive pure values. Each key owns a
/// `OnceLock` build slot: the first requester of a key builds while
/// holding only that slot, so concurrent requesters neither duplicate a
/// build nor block requesters of other keys.
#[derive(Debug)]
pub struct Memo<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    counters: &'static MemoCounters,
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty memo counting into `counters`.
    pub fn new(counters: &'static MemoCounters) -> Self {
        Memo {
            slots: Mutex::default(),
            counters,
        }
    }

    /// The value of `key` — a clone of the shared one, so `V` is a handle
    /// (an `Arc`, a tuple of them) — building it on first request.
    pub fn get_or_build(&self, key: &K, build: impl FnOnce() -> V) -> V {
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slots.entry(key.clone()).or_default())
        };
        let mut built = false;
        let value = slot.get_or_init(|| {
            built = true;
            build()
        });
        let counts = self.counters;
        let counter = if built { &counts.built } else { &counts.reused };
        counter.fetch_add(1, Ordering::Relaxed);
        value.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_builds_once_per_key_and_counts_into_its_block() {
        static COUNTERS: MemoCounters = MemoCounters::zeroed();
        let memo: Memo<u8, Arc<u32>> = Memo::new(&COUNTERS);
        let a = memo.get_or_build(&1, || Arc::new(10));
        let again = memo.get_or_build(&1, || unreachable!("slot is live"));
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(
            COUNTERS.memory(),
            MemCounters {
                built: 1,
                reused: 1
            }
        );
        assert_eq!(*memo.get_or_build(&2, || Arc::new(20)), 20);
        // Held by `a`, `again` and the memo's slot.
        assert_eq!(Arc::strong_count(&a), 3);
        assert_eq!(COUNTERS.memory().since(MemCounters::default()).built, 2);
        drop(memo);
        assert_eq!(Arc::strong_count(&a), 2);
    }
}
