//! Sweep-level guarantees of the fault-injection layer: an impaired
//! matrix must stay bit-identical across thread counts,
//! and shard + merge; the per-cell watchdog must convert a wedged cell
//! into a resumable timeout instead of hanging the sweep; and the
//! headline robustness claim — Sprout recovers from link outages faster
//! than a loss-based baseline in the very same cell — must hold in the
//! degradation metrics.
//!
//! These tests mutate the process-global cache override, so they live in
//! their own integration-test binary and serialize on one lock.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use sprout_bench::{
    cell_cache_counters, sweep_to_json, CellCachePolicy, ScenarioMatrix, Scheme, ShardSpec,
    SweepEngine, SweepError, SweepResult, VideoApp, Workload,
};
use sprout_trace::{Duration, Impairment, NetProfile, OutageSpec};

/// Serializes tests (they share the global cache-dir override). A
/// poisoned lock just means a sibling test failed; proceed anyway so its
/// failure is the one reported.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_cache_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "sprout-impair-test-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The storm preset with its outage process sped up (1.5 s dark every
/// ~8 s instead of 4 s every ~45 s), so short test cells still see
/// several complete outage/recovery cycles.
fn fast_storm() -> Impairment {
    let mut storm = Impairment::preset("storm").expect("storm preset exists");
    storm.outage = Some(OutageSpec {
        duration: Duration::from_millis(1500),
        spacing: Duration::from_secs(8),
    });
    storm.validate();
    storm
}

/// A small matrix with real fault injection on every cell: two cheap
/// schemes under the flap preset and the sped-up storm.
fn impaired_matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder("impair-identity")
        .schemes([Scheme::Cubic, Scheme::Vegas])
        .links([NetProfile::TmobileUmtsDown])
        .impairments([
            Impairment::preset("flap").expect("flap preset exists"),
            fast_storm(),
        ])
        .timing(Duration::from_secs(20), Duration::from_secs(4))
        .build()
}

#[test]
fn impaired_sweep_is_bit_identical_across_threads_batching_and_shards() {
    let _g = lock();
    let m = impaired_matrix();
    // Every cell must actually exercise the injection machinery.
    for cell in m.cells() {
        assert!(!cell.impairment.is_none(), "{}", cell.label);
    }

    // Single-threaded reference, fresh cache directory.
    sprout_cache::set_dir(temp_cache_dir("ref"));
    let reference = SweepEngine::new(21).with_threads(1).run(&m);
    let want = sweep_to_json(m.name(), 21, &reference);
    // The impaired cells genuinely degraded: the storm cells report
    // completed outages with finite recovery times.
    let storms = reference
        .iter()
        .filter(|r| r.scenario.impairment.outage == fast_storm().outage)
        .count();
    assert!(storms > 0, "the sped-up storm cells must be in the matrix");
    for r in &reference {
        let metrics = r.metrics.as_ref().expect("scheme cells carry metrics");
        if r.scenario.impairment.outage == fast_storm().outage {
            assert!(
                metrics.outages >= 2,
                "{}: {} outages",
                r.scenario.label,
                metrics.outages
            );
            assert!(metrics.recovery_ms.is_finite(), "{}", r.scenario.label);
        }
    }

    // Any thread count must reproduce it byte for byte (fresh cache
    // directory each, so every cell truly re-executes).
    for threads in [2, 4] {
        sprout_cache::set_dir(temp_cache_dir("variant"));
        let got = SweepEngine::new(21).with_threads(threads).run(&m);
        assert_eq!(
            sweep_to_json(m.name(), 21, &got),
            want,
            "threads={threads} diverged from the reference"
        );
    }

    // Two shards into one shared directory, then a pure merge.
    sprout_cache::set_dir(temp_cache_dir("shards"));
    SweepEngine::new(21)
        .with_threads(1)
        .with_shard(ShardSpec::new(0, 2))
        .run(&m);
    SweepEngine::new(21)
        .with_threads(4)
        .with_shard(ShardSpec::new(1, 2))
        .run(&m);
    let before = cell_cache_counters();
    let merged = SweepEngine::new(21)
        .with_policy(CellCachePolicy::Merge)
        .run(&m);
    let traffic = cell_cache_counters().since(before);
    assert_eq!(
        sweep_to_json(m.name(), 21, &merged),
        want,
        "2-shard + merge diverged from the single-shot reference"
    );
    assert_eq!(traffic.hits, m.len() as u64, "merge must hit every cell");
    assert_eq!((traffic.misses, traffic.stores), (0, 0));

    sprout_cache::reset_override();
}

/// A single-cell matrix big enough that executing it takes well over a
/// millisecond (trace synthesis alone does), so a 1 ms watchdog always
/// fires first.
fn slow_matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder("impair-watchdog")
        .schemes([Scheme::Cubic])
        .links([NetProfile::TmobileUmtsDown])
        .impairments([Impairment::preset("flap").expect("flap preset exists")])
        .timing(Duration::from_secs(30), Duration::from_secs(4))
        .build()
}

#[test]
fn watchdog_times_out_wedged_cells_and_resume_reexecutes_them() {
    let _g = lock();
    let m = slow_matrix();
    sprout_cache::set_dir(temp_cache_dir("watchdog"));

    let traffic_before = cell_cache_counters();
    let err = SweepEngine::new(17)
        .with_threads(1)
        .with_cell_timeout(std::time::Duration::from_millis(1))
        .try_run(&m)
        .expect_err("a 1 ms watchdog must fire before the cell finishes");
    match &err {
        SweepError::CellsPanicked { matrix, failures } => {
            assert_eq!(matrix, "impair-watchdog");
            assert_eq!(failures.len(), 1);
            assert!(
                failures[0].timed_out,
                "the failure is a timeout, not a panic"
            );
            assert!(
                failures[0].message.contains("watchdog"),
                "message should name the watchdog: {}",
                failures[0].message
            );
        }
        other => panic!("expected CellsPanicked, got {other:?}"),
    }
    assert_eq!(
        cell_cache_counters().since(traffic_before).stores,
        0,
        "a timed-out cell must never be cached"
    );

    // Resume with the default (generous) watchdog: the abandoned cell —
    // and only it — re-executes, completes, and is cached.
    let traffic_before = cell_cache_counters();
    let resumed = SweepEngine::new(17)
        .with_policy(CellCachePolicy::Resume)
        .run(&m);
    let traffic = cell_cache_counters().since(traffic_before);
    assert_eq!(resumed.len(), 1);
    assert_eq!((traffic.misses, traffic.stores), (1, 1));

    sprout_cache::reset_override();
}

/// Pull the one scheme-`s` row out of a sweep.
fn row_for(results: &[SweepResult], s: Scheme) -> &SweepResult {
    results
        .iter()
        .find(|r| r.scenario.workload == Workload::Scheme(s))
        .expect("scheme row present")
}

/// The robustness acceptance check: in one and the same outage-storm
/// cell, Sprout's worst post-outage recovery is finite and tight (tens
/// of milliseconds against its own strict delay envelope), while both
/// baselines — Cubic and Skype-over-Cubic — take several times longer to
/// re-enter even their own (far looser) envelopes. Full-duration (4 s)
/// outages every ~15 s leave Cubic's bloated queue seconds of backlog to
/// drain after every blackout; Sprout's forecast collapses its window
/// during the outage, so it is back inside its envelope almost at once.
/// (The paper-length version of this claim runs in CI's `impair` smoke.)
#[test]
fn sprout_recovers_from_outages_faster_than_the_baselines() {
    let _g = lock();
    sprout_cache::set_dir(temp_cache_dir("acceptance"));

    let mut storm = Impairment::preset("storm").expect("storm preset exists");
    storm.outage = Some(OutageSpec {
        duration: Duration::from_secs(4),
        spacing: Duration::from_secs(15),
    });
    let m = ScenarioMatrix::builder("impair-acceptance")
        .schemes([Scheme::Sprout, Scheme::Cubic])
        .apps([VideoApp::Skype], [Scheme::Cubic])
        .links([NetProfile::VerizonLteDown])
        .impairments([storm])
        .timing(Duration::from_secs(60), Duration::from_secs(5))
        .build();
    let results = SweepEngine::new(20130401).run(&m);

    let sprout = row_for(&results, Scheme::Sprout).metrics.as_ref().unwrap();
    let cubic = row_for(&results, Scheme::Cubic).metrics.as_ref().unwrap();
    let skype = results
        .iter()
        .find(|r| r.scenario.workload.app().is_some())
        .expect("the Skype-over-Cubic row is present")
        .metrics
        .as_ref()
        .unwrap();
    assert!(
        sprout.outages >= 2,
        "storm cell saw {} outages",
        sprout.outages
    );
    assert_eq!(
        sprout.outages, cubic.outages,
        "same cell, same outage schedule"
    );
    assert_eq!(
        sprout.outages, skype.outages,
        "same cell, same outage schedule"
    );

    assert!(
        sprout.recovery_ms.is_finite() && sprout.recovery_ms < 500.0,
        "Sprout must recover within half a second: {} ms",
        sprout.recovery_ms
    );
    for (name, baseline) in [("cubic", cubic), ("skype-over-cubic", skype)] {
        assert!(
            baseline.recovery_ms > 5.0 * sprout.recovery_ms,
            "{name} should recover measurably slower: sprout {} ms vs {name} {} ms",
            sprout.recovery_ms,
            baseline.recovery_ms
        );
    }

    sprout_cache::reset_override();
}
