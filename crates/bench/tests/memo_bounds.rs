//! In-memory cache boundedness across disjoint-geometry sweeps: a
//! daemon that accepts arbitrary submitted matrices must not accumulate
//! synthesized traces or forecast tables without bound. The trace memo
//! is scoped to one sweep and LRU-bounded within it; the forecast-table
//! cache is process-global but LRU-bounded (its eviction behavior is
//! pinned in `sprout-core`). Here we pin the sweep-facing view: run two
//! sweeps with disjoint `(link, duration)` geometries and assert the
//! memo occupancy reflects only the latest sweep, never the union.
//!
//! A memo slot is a link's shared inputs — the trace and the omniscient
//! floors computed from it. The second test pins that sharing: cells of
//! one `(link, duration, prop_delay, window)` compute the floor once, a
//! different `prop_delay` or window computes its own, and evicting the
//! slot drops the floors with the trace.

use std::sync::{Arc, Mutex};

use sprout_bench::{
    execute_with_memo, trace_memo_occupancy, CellScratch, LinkSpec, ScenarioMatrix, Scheme,
    SweepEngine, TraceMemo,
};
use sprout_core::{table_cache_occupancy, FORECAST_TABLE_CACHE_CAP};
use sprout_sim::omniscient_p95_delay;
use sprout_trace::{Duration, NetProfile, Timestamp};

/// `trace_memo_occupancy` reads process-global gauges that every memo
/// writes: the tests of this binary take turns.
static LOCK: Mutex<()> = Mutex::new(());

fn matrix(name: &str, links: [NetProfile; 2], secs: u64) -> ScenarioMatrix {
    ScenarioMatrix::builder(name)
        .schemes([Scheme::SproutEwma])
        .links(links)
        .timing(Duration::from_secs(secs), Duration::from_secs(1))
        .build()
}

#[test]
fn disjoint_geometry_sweeps_do_not_accumulate_traces() {
    let _turn = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Two sweeps, zero shared (link, duration) keys: different links AND
    // different durations.
    let first = matrix(
        "memo-a",
        [NetProfile::VerizonLteDown, NetProfile::Verizon3gUp],
        4,
    );
    let second = matrix(
        "memo-b",
        [NetProfile::AttLteDown, NetProfile::TmobileUmtsUp],
        5,
    );

    let a = SweepEngine::new(23).with_threads(1).run(&first);
    assert_eq!(a.len(), first.len());
    let (after_a, _) = trace_memo_occupancy();

    let b = SweepEngine::new(23).with_threads(1).run(&second);
    assert_eq!(b.len(), second.len());
    let (after_b, _) = trace_memo_occupancy();

    // Each sweep touches at most 4 keys (2 links × 2 directions at one
    // duration). If geometries accumulated across sweeps, the second
    // occupancy would report the union (> 4).
    assert!(
        after_a <= 4,
        "first sweep's memo held {after_a} traces, expected ≤ 4"
    );
    assert!(
        after_b <= 4,
        "second sweep's memo must not retain the first sweep's \
         geometries: {after_b} traces live"
    );

    // The process-global forecast-table cache obeys its own cap.
    let (tables_live, _) = table_cache_occupancy();
    assert!(
        tables_live <= FORECAST_TABLE_CACHE_CAP,
        "forecast-table cache grew to {tables_live} entries past the cap"
    );
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

    // The floors live in the trace's slot: pushing the slot out of the
    // LRU (more distinct geometries than it holds) frees both, and the
    // link starts over when it is asked for again.
    let evicted = Arc::downgrade(&slot());
    let (_, evictions_before) = trace_memo_occupancy();
    let mut geometries = 0u64;
    while evicted.strong_count() > 0 {
        geometries += 1;
        assert!(geometries <= 64, "the memo never evicted the link's slot");
        memo.link(
            LinkSpec::from(NetProfile::Verizon3gDown),
            Duration::from_millis(200 + geometries),
        );
    }
    assert!(trace_memo_occupancy().1 > evictions_before);
    assert_eq!(slot().floors_computed(), 0);
}
