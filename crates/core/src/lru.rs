//! A small bounded LRU map for in-process memoization.
//!
//! The sweep engine and the forecast-table cache memoize expensive
//! pure-function results (synthesized traces, CDF tables) keyed by their
//! input configuration. In a one-shot `reproduce` run the key population
//! is tiny and boundedness is irrelevant; in a long-running daemon that
//! sweeps many disjoint link geometries, an unbounded map is a slow
//! memory leak. [`LruCache`] caps the population: inserting past the cap
//! evicts the least-recently-*used* entry.
//!
//! [`Memo`] is the shared form both users take: an [`LruCache`] of per-key
//! build slots under a mutex, counting into a [`MemoCounters`] block its
//! owner names.
//!
//! Capacities here are single digits to low tens, so recency is a plain
//! monotonic tick per entry and eviction is an O(n) minimum scan — no
//! linked lists, no unsafe, and the scan is cheaper than one hash at
//! these sizes.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A bounded least-recently-used map. `get` and `get_or_insert_with`
/// refresh recency; inserting a new key while full evicts the stalest
/// entry (and counts it in [`LruCache::evictions`]).
#[derive(Debug)]
pub struct LruCache<K, V> {
    cap: usize,
    /// Monotonic use counter; each touch stamps the entry.
    tick: u64,
    map: HashMap<K, (u64, V)>,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "an LRU cache needs room for at least one entry");
        LruCache {
            cap,
            tick: 0,
            map: HashMap::with_capacity(cap + 1),
            evictions: 0,
        }
    }

    /// Live entry count (≤ the cap, always).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted to make room since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(stamp, v)| {
            *stamp = tick;
            &*v
        })
    }

    /// Look up `key`, building and inserting the value on a miss (evicting
    /// the least-recently-used entry if that overflows the cap). The
    /// returned flag reports whether the value was constructed by this
    /// call — callers use it to split built-vs-reused counters.
    pub fn get_or_insert_with(&mut self, key: &K, make: impl FnOnce() -> V) -> (&V, bool) {
        self.tick += 1;
        let tick = self.tick;
        let built = !self.map.contains_key(key);
        if built {
            self.map.insert(key.clone(), (tick, make()));
            if self.map.len() > self.cap {
                self.evict_stalest();
            }
        }
        let entry = self.map.get_mut(key).expect("just inserted or present");
        entry.0 = tick;
        (&entry.1, built)
    }

    /// Drop the entry with the oldest use stamp.
    fn evict_stalest(&mut self) {
        if let Some(stale) = self
            .map
            .iter()
            .min_by_key(|(_, (stamp, _))| *stamp)
            .map(|(k, _)| k.clone())
        {
            self.map.remove(&stale);
            self.evictions += 1;
        }
    }
}

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
/// memo (`built` / `reused` accumulate over every memo that names the
/// block; `evicted` / `live` describe the one that wrote last).
#[derive(Debug)]
pub struct MemoCounters {
    built: AtomicU64,
    reused: AtomicU64,
    evicted: AtomicU64,
    live: AtomicU64,
}

impl MemoCounters {
    /// All zeros (`const`, so a block can be a `static`).
    pub const fn zeroed() -> Self {
        MemoCounters {
            built: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            live: AtomicU64::new(0),
        }
    }

    /// Values built versus requests served by a live slot.
    pub fn memory(&self) -> MemCounters {
        MemCounters {
            built: self.built.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
        }
    }

    /// `(live_entries, evictions_total)` of the memo that wrote last.
    pub fn occupancy(&self) -> (usize, u64) {
        let read = |gauge: &AtomicU64| gauge.load(Ordering::Relaxed);
        (read(&self.live) as usize, read(&self.evicted))
    }
}

/// A bounded, thread-safe memo of expensive pure values. Each key owns a
/// `OnceLock` build slot: the first requester of a key builds while
/// holding only that slot, so concurrent requesters neither duplicate a
/// build nor block requesters of other keys. Eviction drops the map's
/// handle only — a builder mid-flight on an evicted slot still owns it
/// and finishes; the next request of that key simply rebuilds.
#[derive(Debug)]
pub struct Memo<K, V> {
    slots: Mutex<LruCache<K, Arc<OnceLock<V>>>>,
    counters: &'static MemoCounters,
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty memo of at most `cap` live keys, counting into `counters`.
    pub fn new(cap: usize, counters: &'static MemoCounters) -> Self {
        Memo {
            slots: Mutex::new(LruCache::new(cap)),
            counters,
        }
    }

    /// The value of `key` — a clone of the shared one, so `V` is a handle
    /// (an `Arc`, a tuple of them) — building it on first request.
    pub fn get_or_build(&self, key: &K, build: impl FnOnce() -> V) -> V {
        let counts = self.counters;
        let slot = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            let slot = Arc::clone(slots.get_or_insert_with(key, Arc::default).0);
            counts.evicted.store(slots.evictions(), Ordering::Relaxed);
            counts.live.store(slots.len() as u64, Ordering::Relaxed);
            slot
        };
        let mut built = false;
        let value = slot.get_or_init(|| {
            built = true;
            build()
        });
        let counter = if built { &counts.built } else { &counts.reused };
        counter.fetch_add(1, Ordering::Relaxed);
        value.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_bounded_and_evicts_the_stalest() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for k in 0..10 {
            let (_, built) = c.get_or_insert_with(&k, || k * 100);
            assert!(built, "fresh keys build");
            assert!(c.len() <= 3, "cap must hold at {} entries", c.len());
        }
        assert_eq!(c.evictions(), 7);
        // The three most recent keys survive.
        assert!(c.get(&9).is_some() && c.get(&8).is_some() && c.get(&7).is_some());
        assert!(c.get(&0).is_none());
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c: LruCache<&str, u8> = LruCache::new(2);
        c.get_or_insert_with(&"a", || 1);
        c.get_or_insert_with(&"b", || 2);
        // Touch "a" so "b" is now the stalest; inserting "c" evicts "b".
        assert_eq!(c.get(&"a"), Some(&1));
        let (_, built) = c.get_or_insert_with(&"c", || 3);
        assert!(built);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn repeat_lookups_do_not_rebuild() {
        let mut c: LruCache<u8, u8> = LruCache::new(2);
        let (_, built) = c.get_or_insert_with(&1, || 10);
        assert!(built);
        let (_, built) = c.get_or_insert_with(&1, || unreachable!("cached"));
        assert!(!built);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn memo_builds_once_per_live_key_and_counts_into_its_block() {
        static COUNTERS: MemoCounters = MemoCounters::zeroed();
        let memo: Memo<u8, Arc<u32>> = Memo::new(2, &COUNTERS);
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
        memo.get_or_build(&2, || Arc::new(20));
        memo.get_or_build(&3, || Arc::new(30));
        assert_eq!(COUNTERS.occupancy(), (2, 1));
        // Key 1 was the stalest: evicted, its value lives on in `a` only,
        // and asking again builds afresh.
        assert_eq!(Arc::strong_count(&a), 2);
        drop(again);
        assert_eq!(Arc::strong_count(&a), 1);
        assert_eq!(*memo.get_or_build(&1, || Arc::new(11)), 11);
        assert_eq!(COUNTERS.memory().since(MemCounters::default()).built, 4);
    }
}
