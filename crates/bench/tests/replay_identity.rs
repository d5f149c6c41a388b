//! Sweep-level guarantees of measured-trace replay and the per-cell
//! time-series artifacts: a replay matrix must stay bit-identical across
//! thread counts and shard + merge — including the
//! cell-series TSV renderings, which must survive a cache round trip
//! byte for byte; cell identity must key on a capture's content
//! fingerprint (two paths to the same bytes are one set of cells, an
//! edited byte is a miss); and an unregistered fingerprint must fail
//! loudly, naming the missing capture.
//!
//! These tests mutate the process-global cache override, so they live in
//! their own integration-test binary and serialize on one lock.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use sprout_bench::{
    cell_cache_counters, sweep_to_json, write_cell_series, CellCachePolicy, ExperimentConfig,
    LinkSpec, ScenarioMatrix, Scheme, ShardSpec, SweepEngine, SweepError, SweepResult,
};
use sprout_trace::Duration;

/// Serializes tests (they share the global cache-dir override). A
/// poisoned lock just means a sibling test failed; proceed anyway so its
/// failure is the one reported.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "sprout-replay-test-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Path of a committed corpus capture.
fn corpus(file: &str) -> String {
    format!("{}/../trace/tests/data/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// A small measured-link matrix with cell-series collection on: two
/// cheap schemes over the given captures.
fn replay_matrix(fingerprints: &[u64]) -> ScenarioMatrix {
    ScenarioMatrix::builder("replay-identity")
        .schemes([Scheme::Cubic, Scheme::Vegas])
        .links(
            fingerprints
                .iter()
                .map(|&fp| LinkSpec::Measured { fingerprint: fp }),
        )
        .cell_series(Duration::from_millis(500))
        .timing(Duration::from_secs(20), Duration::from_secs(4))
        .build()
}

/// Render every cell's time-series TSVs through the real figures-layer
/// writer and return them as sorted `(filename, bytes)` pairs.
fn rendered_series(results: &[SweepResult], tag: &str) -> Vec<(String, Vec<u8>)> {
    let dir = temp_dir(tag);
    let cfg = ExperimentConfig {
        out_dir: dir.clone(),
        ..ExperimentConfig::default()
    };
    let rendered = write_cell_series(&cfg, results).expect("series TSVs render");
    assert_eq!(
        rendered,
        results.len(),
        "every replay cell carries a series"
    );
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("series dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().into_string().expect("utf-8 name"),
                std::fs::read(e.path()).expect("series file"),
            )
        })
        .collect();
    files.sort();
    let _ = std::fs::remove_dir_all(&dir);
    files
}

#[test]
fn measured_sweep_and_its_series_tsvs_are_bit_identical_everywhere() {
    let _g = lock();
    let fps = [
        sprout_trace::register_trace_file(corpus("downlink-excerpt.trace")).expect("downlink"),
        sprout_trace::register_trace_file(corpus("uplink-excerpt.trace")).expect("uplink"),
    ];
    let m = replay_matrix(&fps);
    assert_eq!(m.len(), 4, "2 schemes x 2 captures");
    for cell in m.cells() {
        assert!(
            cell.link.profile().is_none(),
            "{}: every cell replays a measured capture",
            cell.label
        );
    }

    // Single-threaded reference, fresh cache directory.
    sprout_cache::set_dir(temp_dir("ref"));
    let reference = SweepEngine::new(31).with_threads(1).run(&m);
    let want = sweep_to_json(m.name(), 31, &reference);
    let want_series = rendered_series(&reference, "ref-series");
    // The measured links genuinely carried traffic, and the series see
    // it: every cell has per-delivery delay samples and a bin with
    // nonzero capacity and throughput.
    for r in &reference {
        let s = r.cell_series.as_ref().expect("replay cells carry a series");
        assert!(!s.delays.is_empty(), "{}", r.scenario.label);
        assert!(
            s.bins.iter().any(|b| b.capacity_kbps > 0.0),
            "{}: capacity column is all zero",
            r.scenario.label
        );
        assert!(
            s.bins.iter().any(|b| b.throughput_kbps > 0.0),
            "{}: throughput column is all zero",
            r.scenario.label
        );
        let fp = r.scenario.link.measured_fingerprint().expect("measured");
        assert_eq!(r.scenario.link.id(), format!("m{fp:016x}"));
    }

    // Any thread count must reproduce both the sweep JSON and the
    // series TSVs byte for byte (fresh cache directory each, so every
    // cell truly re-executes).
    for threads in [2, 4] {
        sprout_cache::set_dir(temp_dir("variant"));
        let got = SweepEngine::new(31).with_threads(threads).run(&m);
        assert_eq!(
            sweep_to_json(m.name(), 31, &got),
            want,
            "threads={threads} diverged from the reference"
        );
        assert_eq!(
            rendered_series(&got, "variant-series"),
            want_series,
            "threads={threads}: series TSVs diverged"
        );
    }

    // Two shards into one shared directory, then a pure merge: the
    // JSON *and* the series must reassemble from the cache alone — this
    // is the cell-series artifact's round-trip pin.
    sprout_cache::set_dir(temp_dir("shards"));
    SweepEngine::new(31)
        .with_threads(1)
        .with_shard(ShardSpec::new(0, 2))
        .run(&m);
    SweepEngine::new(31)
        .with_threads(4)
        .with_shard(ShardSpec::new(1, 2))
        .run(&m);
    let before = cell_cache_counters();
    let merged = SweepEngine::new(31)
        .with_policy(CellCachePolicy::Merge)
        .run(&m);
    let traffic = cell_cache_counters().since(before);
    assert_eq!(
        sweep_to_json(m.name(), 31, &merged),
        want,
        "2-shard + merge diverged from the single-shot reference"
    );
    assert_eq!(
        rendered_series(&merged, "merged-series"),
        want_series,
        "cache-served series diverged from the executed ones"
    );
    assert_eq!(traffic.hits, m.len() as u64, "merge must hit every cell");
    assert_eq!((traffic.misses, traffic.stores), (0, 0));

    sprout_cache::reset_override();
}

#[test]
fn cells_key_on_capture_bytes_not_paths_and_resume_runs_only_whats_missing() {
    let _g = lock();
    let bytes = std::fs::read(corpus("downlink-excerpt.trace")).expect("corpus bytes");

    // The same bytes under two different paths are one capture.
    let dir = temp_dir("copies");
    std::fs::create_dir_all(&dir).expect("copy dir");
    let (a, b) = (dir.join("capture.trace"), dir.join("renamed-copy.trace"));
    std::fs::write(&a, &bytes).expect("copy a");
    std::fs::write(&b, &bytes).expect("copy b");
    let fp_a = sprout_trace::register_trace_file(&a).expect("register a");
    let fp_b = sprout_trace::register_trace_file(&b).expect("register b");
    assert_eq!(fp_a, fp_b, "identity keys on bytes, not paths");

    // "Kill" a sweep after one shard, then resume: only the missing
    // cells execute.
    let m = replay_matrix(&[fp_a]);
    sprout_cache::set_dir(temp_dir("resume"));
    let single = SweepEngine::new(7).with_threads(1).run(&m);
    let want = sweep_to_json(m.name(), 7, &single);

    sprout_cache::set_dir(temp_dir("resume-killed"));
    let done = SweepEngine::new(7)
        .with_shard(ShardSpec::new(0, 2))
        .run(&m)
        .len() as u64;
    let before = cell_cache_counters();
    let resumed = SweepEngine::new(7)
        .with_threads(4)
        .with_policy(CellCachePolicy::Resume)
        .run(&m);
    let traffic = cell_cache_counters().since(before);
    assert_eq!(sweep_to_json(m.name(), 7, &resumed), want);
    assert_eq!(traffic.hits, done, "finished cells come from the cache");
    assert_eq!(traffic.misses, m.len() as u64 - done);
    assert_eq!(traffic.stores, m.len() as u64 - done, "only misses execute");

    // A warm re-run through the *other* path's fingerprint is pure
    // cache hits: the path never entered the cell key.
    let m_via_b = replay_matrix(&[fp_b]);
    let before = cell_cache_counters();
    let again = SweepEngine::new(7)
        .with_policy(CellCachePolicy::Resume)
        .run(&m_via_b);
    let traffic = cell_cache_counters().since(before);
    assert_eq!(sweep_to_json(m_via_b.name(), 7, &again), want);
    assert_eq!((traffic.misses, traffic.stores), (0, 0));

    // Editing a single opportunity re-fingerprints the capture, and
    // every dependent cell is a miss — never a stale hit.
    let mut edited = bytes.clone();
    edited.extend_from_slice(b"39999\n");
    let fp_edited = sprout_trace::register_trace_bytes(&edited).expect("edited parses");
    assert_ne!(fp_edited, fp_a);
    let m_edited = replay_matrix(&[fp_edited]);
    let before = cell_cache_counters();
    SweepEngine::new(7)
        .with_policy(CellCachePolicy::Resume)
        .run(&m_edited);
    let traffic = cell_cache_counters().since(before);
    assert_eq!(traffic.hits, 0, "edited bytes must not hit the old cells");
    assert_eq!(traffic.misses, m_edited.len() as u64);

    let _ = std::fs::remove_dir_all(&dir);
    sprout_cache::reset_override();
}

#[test]
fn unregistered_fingerprint_fails_loudly_naming_the_capture() {
    let _g = lock();
    // Silence the default per-panic backtrace chatter; the engine
    // catches the unwind either way.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    sprout_cache::set_dir(temp_dir("unregistered"));
    let m = replay_matrix(&[0xdead_beef_0bad_cafe]);
    let err = SweepEngine::new(3)
        .with_threads(2)
        .try_run(&m)
        .expect_err("no capture with this fingerprint is registered");
    match &err {
        SweepError::CellsPanicked { failures, .. } => {
            assert_eq!(failures.len() as u64, m.len() as u64);
            assert!(
                failures[0].message.contains("mdeadbeef0badcafe")
                    && failures[0].message.contains("--trace"),
                "the failure must name the capture and the fix: {}",
                failures[0].message
            );
        }
        other => panic!("expected CellsPanicked, got {other:?}"),
    }

    std::panic::set_hook(hook);
    sprout_cache::reset_override();
}
