//! The watchdog must not leak threads: before cooperative cancellation,
//! a timed-out cell's abandoned thread kept simulating its remaining
//! virtual duration at wall speed (an hour-long cell burned a core for
//! minutes — forever, from a daemon's point of view). These tests pin
//! the new contract: a timed-out cell's thread honors its cancellation
//! token and exits promptly, observable through the
//! [`sprout_bench::abandoned_cell_threads`] gauge.
//!
//! The test mutates the process-global cache override, so it lives in
//! its own integration-test binary and serializes on one lock.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration as WallDuration, Instant};

use sprout_bench::{
    abandoned_cell_threads, cell_cache_counters, CellCachePolicy, ScenarioMatrix, Scheme,
    SweepEngine, SweepError,
};
use sprout_trace::{Duration, NetProfile};

/// Serializes tests (they share the global cache-dir override).
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_cache_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "sprout-watchdog-test-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One cell with an hour of virtual time: naturally it needs minutes of
/// wall clock, so if it outruns the watchdog only cancellation can
/// explain a prompt thread exit.
fn hour_long_matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder("watchdog-cancel")
        .schemes([Scheme::Cubic])
        .links([NetProfile::TmobileUmtsDown])
        .timing(Duration::from_secs(3600), Duration::from_secs(4))
        .build()
}

#[test]
fn timed_out_cell_threads_cancel_instead_of_leaking() {
    let _g = lock();
    sprout_cache::set_dir(temp_cache_dir("cancel"));

    let err = SweepEngine::new(19)
        .with_threads(1)
        .with_cell_timeout(WallDuration::from_millis(50))
        .try_run(&hour_long_matrix())
        .expect_err("a 50 ms watchdog must fire long before an hour-long cell finishes");
    match &err {
        SweepError::CellsPanicked { failures, .. } => {
            assert_eq!(failures.len(), 1);
            assert!(failures[0].timed_out, "the failure must be a timeout");
        }
        other => panic!("expected CellsPanicked, got {other:?}"),
    }
    // The abandoned thread must exit at its next cancellation checkpoint.
    // Give it generous wall time for slow CI — still two orders of
    // magnitude less than simulating the cell's remaining virtual hour.
    wait_for_abandoned_threads_to_exit();

    // The engine is still fully serviceable afterwards: a short sweep of
    // the same shape completes normally under the default watchdog.
    let quick = ScenarioMatrix::builder("watchdog-after")
        .schemes([Scheme::Cubic])
        .links([NetProfile::TmobileUmtsDown])
        .timing(Duration::from_secs(4), Duration::from_secs(1))
        .build();
    let results = SweepEngine::new(19).with_threads(1).run(&quick);
    assert_eq!(results.len(), 1);
    assert_eq!(abandoned_cell_threads(), 0);

    sprout_cache::reset_override();
}

/// Wait (generously) for every abandoned cell thread to honor its
/// cancellation.
fn wait_for_abandoned_threads_to_exit() {
    let deadline = Instant::now() + WallDuration::from_secs(30);
    while abandoned_cell_threads() > 0 {
        assert!(
            Instant::now() < deadline,
            "abandoned cell thread did not honor cancellation within 30 s \
             (gauge stuck at {})",
            abandoned_cell_threads()
        );
        std::thread::sleep(WallDuration::from_millis(10));
    }
}

#[test]
fn a_timeout_costs_the_worker_its_cell_thread_and_nothing_else() {
    // One worker, two cells: an hour of virtual time, then a cell that is
    // done in a few milliseconds. The worker's cell thread is busy
    // unwinding the first when the second is claimed, so the second runs
    // on a fresh one — inside the same budget, cached like any other.
    let _g = lock();
    sprout_cache::set_dir(temp_cache_dir("fresh-thread"));
    let mut cells = hour_long_matrix().cells().to_vec();
    let mut tiny = cells[0].clone();
    tiny.id = 1;
    tiny.label = "watchdog-cancel/tiny".to_string();
    tiny.duration = Duration::from_millis(300);
    tiny.warmup = Duration::from_millis(100);
    cells.push(tiny);
    let m = ScenarioMatrix::from_cells("watchdog-fresh-thread", cells);
    let engine = SweepEngine::new(19)
        .with_threads(1)
        .with_cell_timeout(WallDuration::from_millis(50));

    let cache0 = cell_cache_counters();
    let err = engine
        .try_run(&m)
        .expect_err("the hour-long cell times out");
    match &err {
        SweepError::CellsPanicked { failures, .. } => {
            let named: Vec<(u64, bool)> = failures
                .iter()
                .map(|f| (f.scenario_id, f.timed_out))
                .collect();
            assert_eq!(named, [(0, true)], "exactly the first cell, as a timeout");
            // A sub-second budget is named as such, not as "0s".
            assert_eq!(
                failures[0].message,
                "exceeded the 50ms cell watchdog timeout"
            );
        }
        other => panic!("expected CellsPanicked, got {other:?}"),
    }
    assert_eq!(
        cell_cache_counters().since(cache0).stores,
        1,
        "the tiny cell ran and was cached; the timed-out one never is"
    );
    wait_for_abandoned_threads_to_exit();

    // A resume serves the tiny cell and re-executes exactly the other.
    let cache0 = cell_cache_counters();
    let err = engine
        .with_policy(CellCachePolicy::Resume)
        .try_run(&m)
        .expect_err("still an hour long");
    assert!(matches!(err, SweepError::CellsPanicked { ref failures, .. } if failures.len() == 1));
    let cache = cell_cache_counters().since(cache0);
    assert_eq!((cache.hits, cache.misses, cache.stores), (1, 1, 0));
    wait_for_abandoned_threads_to_exit();

    sprout_cache::reset_override();
}
