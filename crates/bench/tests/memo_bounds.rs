//! What the in-memory memos hold on to. A sweep's trace memo belongs to
//! that sweep: it keeps every `(link, duration)` the sweep asks for and
//! is dropped when the sweep ends, so a second sweep of the same matrix
//! synthesizes its traces again instead of finding the first sweep's.
//!
//! A memo slot is a link's shared inputs — the trace and the omniscient
//! floors computed from it. The second test pins that sharing: cells of
//! one `(link, duration, prop_delay, window)` compute the floor once, a
//! different `prop_delay` or window computes its own, and dropping the
//! memo drops the floors with the trace.

use std::sync::{Arc, Mutex};

use sprout_bench::{
    execute_with_memo, trace_memory_counters, CellScratch, LinkSpec, ScenarioMatrix, Scheme,
    SweepEngine, TraceMemo,
};
use sprout_sim::omniscient_p95_delay;
use sprout_trace::{Duration, NetProfile, Timestamp};

/// `trace_memory_counters` counts every memo of the process: the tests
/// of this binary take turns.
static LOCK: Mutex<()> = Mutex::new(());

#[test]
fn a_sweeps_traces_die_with_the_sweep() {
    let _turn = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // No cell cache: both sweeps execute every cell.
    sprout_cache::disable();
    let matrix = ScenarioMatrix::builder("memo-sweep")
        .schemes([Scheme::SproutEwma])
        .links([NetProfile::VerizonLteDown, NetProfile::Verizon3gUp])
        .timing(Duration::from_secs(4), Duration::from_secs(1))
        .build();
    let sweep = || {
        let before = trace_memory_counters();
        let results = SweepEngine::new(23).with_threads(1).run(&matrix);
        assert_eq!(results.len(), matrix.len());
        trace_memory_counters().since(before).built
    };

    // 2 links × 2 directions at one duration.
    let first = sweep();
    assert_eq!(first, 4, "one synthesis per (link, duration) key");
    // Had the first sweep's traces outlived it, the second would reuse
    // them and build nothing.
    assert_eq!(sweep(), first, "the second sweep synthesizes afresh");
}

#[test]
fn a_link_computes_each_floor_once_and_drops_it_with_the_trace() {
    let _turn = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    sprout_cache::disable();
    const SEED: u64 = 23;
    let link = NetProfile::Verizon3gUp;
    let secs = Duration::from_secs(4);
    let cells = |name: &str, warmup_s: u64, prop_ms: &[u64]| {
        ScenarioMatrix::builder(name)
            .schemes([Scheme::Cubic, Scheme::Vegas])
            .links([link])
            .prop_delays_ms(prop_ms.iter().copied())
            .timing(secs, Duration::from_secs(warmup_s))
            .build()
    };
    let memo = TraceMemo::new(SEED);
    let mut scratch = CellScratch::default();
    let mut run = |matrix: &ScenarioMatrix| -> Vec<f64> {
        matrix
            .cells()
            .iter()
            .map(|cell| {
                execute_with_memo(matrix.name(), cell, SEED, &memo, &mut scratch)
                    .metrics
                    .expect("scheme cell")
                    .omniscient_ms
            })
            .collect()
    };
    let slot = || memo.link(LinkSpec::from(link), secs);
    let direct = |prop_ms: u64, warmup_s: u64| {
        omniscient_p95_delay(
            slot().trace(),
            Duration::from_millis(prop_ms),
            Timestamp::from_secs(warmup_s),
            Timestamp::ZERO + secs,
        )
        .expect("the window has opportunities")
        .as_micros() as f64
            / 1e3
    };

    // Two schemes, one (link, duration, prop_delay, window): one floor,
    // and it is the floor a cell would have computed for itself.
    let floors = run(&cells("floor-a", 1, &[20]));
    assert_eq!(floors, vec![direct(20, 1); 2]);
    assert_eq!(slot().floors_computed(), 1);

    // Another propagation delay is another floor; asking again for the
    // first one computes nothing.
    let floors = run(&cells("floor-b", 1, &[20, 60]));
    assert_eq!(floors.len(), 4);
    for floor in floors {
        assert!(floor == direct(20, 1) || floor == direct(60, 1));
    }
    assert_ne!(direct(20, 1), direct(60, 1));
    assert_eq!(slot().floors_computed(), 2);

    // Another measurement window is another floor.
    let floors = run(&cells("floor-c", 2, &[20]));
    assert_eq!(floors, vec![direct(20, 2); 2]);
    assert_eq!(slot().floors_computed(), 3);

    // The floors live in the trace's slot: dropping the memo frees both.
    let slot = Arc::downgrade(&slot());
    drop(memo);
    assert_eq!(slot.strong_count(), 0, "the link's slot outlived its memo");
}
