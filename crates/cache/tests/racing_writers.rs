//! Writers racing on one key, readers in the middle of them (vendored
//! proptest, 64 cases). It is the sweep engine's normal case — store
//! lanes, shard processes and a resuming run all work in one directory —
//! and the container's atomicity claim: a store is a complete temp file
//! renamed into place, so a load is a miss or one storer's whole payload,
//! never a mixture and never damage.
//!
//! One property and one `#[test]`: the cache directory is a process-wide
//! override.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use proptest::collection::vec;
use proptest::prelude::*;
use sprout_cache::ArtifactKind;

/// Stores per storer thread.
const ROUNDS: usize = 4;

proptest! {
    #[test]
    fn a_load_is_a_miss_or_one_storers_whole_payload(
        storers in 1usize..5,
        loaders in 1usize..4,
        base in vec(any::<u8>(), 0..6000),
        per_thread in any::<bool>(),
        case in any::<u64>(),
    ) {
        static KIND: ArtifactKind = ArtifactKind::new("test-racing", 1);
        let dir = std::env::temp_dir().join(format!(
            "sprout-cache-racing-{}-{case:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        sprout_cache::set_dir(&dir);
        KIND.reset_counters();

        // Identical bytes from every storer, or each storer's own (other
        // contents and another length).
        let payloads: Vec<Vec<u8>> = (0..storers)
            .map(|t| {
                let mut p = base.clone();
                if per_thread {
                    p.resize(p.len() + t + 1, t as u8);
                }
                p
            })
            .collect();
        let start = Barrier::new(storers + loaders);
        let (storing, stored) = (AtomicUsize::new(storers), AtomicUsize::new(0));
        let foreign: Vec<Vec<u8>> = std::thread::scope(|scope| {
            for payload in &payloads {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        if KIND.store(b"the one key", payload) {
                            stored.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    storing.fetch_sub(1, Ordering::Release);
                });
            }
            let loaders: Vec<_> = (0..loaders)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let mut foreign = Vec::new();
                        // At least one load after the last store.
                        let mut last = false;
                        while !last {
                            last = storing.load(Ordering::Acquire) == 0;
                            if let Some(got) = KIND.load(b"the one key") {
                                if !payloads.contains(&got) {
                                    foreign.push(got);
                                }
                            }
                        }
                        foreign
                    })
                })
                .collect();
            loaders
                .into_iter()
                .flat_map(|l| l.join().expect("a loader panicked"))
                .collect()
        });

        prop_assert!(foreign.is_empty(), "{} loads served bytes nobody stored", foreign.len());
        let counters = KIND.counters();
        prop_assert_eq!(counters.quarantined, 0);
        prop_assert_eq!(counters.stores, stored.load(Ordering::Relaxed) as u64);
        prop_assert_eq!(counters.stores, (storers * ROUNDS) as u64);
        let survivor = KIND.load(b"the one key");
        prop_assert!(survivor.is_some_and(|got| payloads.contains(&got)));
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("the stores made the directory")
            .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
            .collect();
        prop_assert!(
            names.len() == 1 && !names[0].starts_with(".tmp-"),
            "one entry and no temp file: {names:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
