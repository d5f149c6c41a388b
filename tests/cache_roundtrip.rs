//! Artifact-cache integration: cached artifacts must be bit-identical to
//! fresh builds, corruption and version bumps must invalidate cleanly,
//! forecast tables never reach the disk, and concurrent first builds must
//! not duplicate work or corrupt state.
//!
//! Every test that touches the disk redirects the process-global cache
//! root, so they all funnel through one mutex — `cargo test` runs tests
//! of one binary in parallel, and two tests swapping the root under each
//! other would race.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sprout_bench::{sweep_to_json, ScenarioMatrix, Scheme, SweepEngine};
use sprout_core::{ForecastTables, SproutConfig};
use sprout_trace::{Duration, NetProfile};

fn cache_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sprout-cache-it-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny but non-trivial sweep (3 schemes × 1 link, 20 virtual seconds).
fn tiny_matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder("cache-it")
        .schemes([Scheme::Sprout, Scheme::SproutEwma, Scheme::Cubic])
        .links([NetProfile::TmobileUmtsDown])
        .timing(Duration::from_secs(20), Duration::from_secs(4))
        .build()
}

fn run_tiny_sweep(seed: u64) -> String {
    let m = tiny_matrix();
    let results = SweepEngine::new(seed).with_threads(2).run(&m);
    sweep_to_json(m.name(), seed, &results)
}

#[test]
fn sweep_json_is_bit_identical_cold_warm_and_disabled() {
    let _g = cache_lock().lock().unwrap();
    let dir = fresh_dir("sweep");

    sprout_cache::set_dir(&dir);
    let cold = run_tiny_sweep(31);
    let m = tiny_matrix();
    let trace0 = sprout_trace::trace_cache_counters();
    let results = SweepEngine::new(31).with_threads(2).run(&m);
    let trace_cache = sprout_trace::trace_cache_counters().since(trace0);
    let warm = sweep_to_json(m.name(), 31, &results);
    sprout_cache::disable();
    let disabled = run_tiny_sweep(31);
    sprout_cache::reset_override();

    assert_eq!(cold, warm, "warm cache changed the sweep output");
    assert_eq!(cold, disabled, "disabling the cache changed the output");
    // The cold run stored the traces and cells this matrix needs, and no
    // forecast table: the Sprout cell's table is built in memory only.
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(!files.is_empty(), "cold run stored nothing");
    for file in &files {
        assert!(
            file.starts_with("trace-synth-") || file.starts_with("cell-result-"),
            "the cache holds {file}"
        );
    }
    // The warm run found every trace.
    assert!(trace_cache.hits > 0, "{trace_cache:?}");
    assert_eq!(
        trace_cache.misses, 0,
        "warm run missed a trace: {trace_cache:?}"
    );
}

#[test]
fn cached_traces_are_bit_identical_to_fresh_synthesis() {
    let _g = cache_lock().lock().unwrap();
    let dir = fresh_dir("traces");
    let duration = Duration::from_secs(15);

    sprout_cache::disable();
    let fresh = NetProfile::AttLteUp.generate(duration, 77);
    sprout_cache::set_dir(&dir);
    let stored = NetProfile::AttLteUp.generate(duration, 77); // cold: stores
    let cached = NetProfile::AttLteUp.generate(duration, 77); // warm: decodes
    sprout_cache::reset_override();

    assert_eq!(fresh, stored);
    assert_eq!(fresh, cached);
}

#[test]
fn corrupt_cache_files_are_rebuilt_transparently() {
    let _g = cache_lock().lock().unwrap();
    let dir = fresh_dir("corrupt");
    let duration = Duration::from_secs(10);

    sprout_cache::set_dir(&dir);
    let original = NetProfile::Verizon3gDown.generate(duration, 5);
    // Vandalize every stored artifact.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        for b in bytes.iter_mut().skip(8) {
            *b ^= 0xa5;
        }
        std::fs::write(&path, bytes).unwrap();
    }
    let rebuilt = NetProfile::Verizon3gDown.generate(duration, 5);
    sprout_cache::reset_override();

    assert_eq!(original, rebuilt, "corruption must rebuild, not garble");
}

#[test]
fn concurrent_first_builds_share_one_table() {
    // A geometry no other test uses, so this process has no in-memory
    // entry yet: the per-key OnceLock must hand every thread one Arc.
    let cfg = SproutConfig {
        num_bins: 56,
        max_rate_pps: 280.0,
        count_max: 160,
        ..SproutConfig::test_small()
    };

    let tables: Vec<Arc<ForecastTables>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| ForecastTables::get(&cfg)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for t in &tables[1..] {
        assert!(
            Arc::ptr_eq(&tables[0], t),
            "concurrent first builds must share one instance"
        );
    }
}
