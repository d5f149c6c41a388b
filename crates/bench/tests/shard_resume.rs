//! Sharded, resumable sweeps against the per-cell result cache:
//! shard + merge and kill-mid-sweep + resume must both reassemble JSON
//! bit-identical to a single-shot run, and a panicking cell must not
//! take its siblings (or their cached results) down with it.
//!
//! These tests mutate the process-global cache override, so they live in
//! their own integration-test binary and serialize on one lock.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use sprout_bench::{
    cell_cache_counters, last_batch_layout, sweep_to_json, trace_memory_counters, CellCachePolicy,
    QueueSpec, Scenario, ScenarioMatrix, Scheme, ShardSpec, SweepEngine, SweepError, Workload,
};
use sprout_cache::CacheCounters;
use sprout_trace::{Duration, NetProfile};

/// Serializes tests (they share the global cache-dir override).
static LOCK: Mutex<()> = Mutex::new(());

fn temp_cache_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "sprout-shard-test-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn tiny_matrix() -> ScenarioMatrix {
    ScenarioMatrix::builder("shardtest")
        .schemes([Scheme::Cubic, Scheme::Vegas])
        .links([NetProfile::TmobileUmtsDown])
        .loss_rates([0.0, 0.03])
        .timing(Duration::from_secs(20), Duration::from_secs(4))
        .build()
}

/// Cell-cache traffic since `before`.
fn cell_traffic_since(before: CacheCounters) -> CacheCounters {
    cell_cache_counters().since(before)
}

#[test]
fn two_shards_plus_merge_match_single_shot_with_zero_executions() {
    let _g = LOCK.lock().unwrap();
    let m = tiny_matrix();

    // Single-shot baseline in its own cache directory.
    sprout_cache::set_dir(temp_cache_dir("single"));
    let single = SweepEngine::new(11).with_threads(1).run(&m);
    let want = sweep_to_json(m.name(), 11, &single);

    // Two shard processes' worth of work against one shared directory,
    // at different thread counts.
    sprout_cache::set_dir(temp_cache_dir("shared"));
    SweepEngine::new(11)
        .with_threads(1)
        .with_shard(ShardSpec::new(0, 2))
        .run(&m);
    SweepEngine::new(11)
        .with_threads(4)
        .with_shard(ShardSpec::new(1, 2))
        .run(&m);

    // Merge: every cell served from the cache, nothing executed.
    let before = cell_cache_counters();
    let merged = SweepEngine::new(11)
        .with_threads(4)
        .with_policy(CellCachePolicy::Merge)
        .run(&m);
    let traffic = cell_traffic_since(before);
    assert_eq!(sweep_to_json(m.name(), 11, &merged), want);
    assert_eq!(traffic.hits, m.len() as u64, "merge must hit every cell");
    assert_eq!(traffic.misses, 0);
    assert_eq!(traffic.stores, 0, "merge executes (and stores) nothing");

    sprout_cache::reset_override();
}

#[test]
fn shards_of_one_link_share_its_traces_and_merge_identical_to_single_shot() {
    let _g = LOCK.lock().unwrap();
    let m = tiny_matrix();

    // Single-shot reference in its own cache directory.
    sprout_cache::set_dir(temp_cache_dir("batch-ref"));
    let single = SweepEngine::new(13).with_threads(1).run(&m);
    let want = sweep_to_json(m.name(), 13, &single);

    // Two shards into one shared directory. All four cells share one
    // (link, duration) trace key, so each shard must synthesize its
    // traces once — the link plus its paired feedback profile — and
    // serve every cell from memory, however many workers run them: the
    // worker count follows the cells (2 here), not the one group.
    sprout_cache::set_dir(temp_cache_dir("batch-shared"));
    let traces0 = trace_memory_counters();
    SweepEngine::new(13)
        .with_threads(2)
        .with_shard(ShardSpec::new(0, 2))
        .run(&m);
    let traces = trace_memory_counters().since(traces0);
    assert_eq!(
        last_batch_layout(),
        (2, 1),
        "two cells on two workers; one trace key => one batch"
    );
    assert_eq!(
        traces.built, 2,
        "one synthesis for the link, one for its paired feedback profile"
    );
    assert!(
        traces.reused >= 2,
        "sibling cells reuse the in-memory traces: {traces:?}"
    );
    SweepEngine::new(13)
        .with_threads(4)
        .with_shard(ShardSpec::new(1, 2))
        .run(&m);

    // Merge must reassemble the single-shot sweep byte for byte.
    let merged = SweepEngine::new(13)
        .with_policy(CellCachePolicy::Merge)
        .run(&m);
    assert_eq!(
        sweep_to_json(m.name(), 13, &merged),
        want,
        "2-shard + merge must equal the single-shot sweep"
    );

    sprout_cache::reset_override();
}

#[test]
fn killed_sweep_resumes_bit_identically_and_only_runs_missing_cells() {
    let _g = LOCK.lock().unwrap();
    let m = tiny_matrix();

    sprout_cache::set_dir(temp_cache_dir("resume-baseline"));
    let single = SweepEngine::new(5).with_threads(1).run(&m);
    let want = sweep_to_json(m.name(), 5, &single);

    // "Kill" a sweep after half its cells: only shard 0 ever ran.
    sprout_cache::set_dir(temp_cache_dir("resume"));
    let done = SweepEngine::new(5)
        .with_shard(ShardSpec::new(0, 2))
        .run(&m)
        .len() as u64;

    let before = cell_cache_counters();
    let resumed = SweepEngine::new(5)
        .with_threads(4)
        .with_policy(CellCachePolicy::Resume)
        .run(&m);
    let traffic = cell_traffic_since(before);
    assert_eq!(sweep_to_json(m.name(), 5, &resumed), want);
    assert_eq!(traffic.hits, done, "finished cells come from the cache");
    assert_eq!(traffic.misses, m.len() as u64 - done);
    assert_eq!(traffic.stores, m.len() as u64 - done, "only misses execute");

    // A second resume serves everything.
    let before = cell_cache_counters();
    let again = SweepEngine::new(5)
        .with_policy(CellCachePolicy::Resume)
        .run(&m);
    let traffic = cell_traffic_since(before);
    assert_eq!(sweep_to_json(m.name(), 5, &again), want);
    assert_eq!((traffic.misses, traffic.stores), (0, 0));

    sprout_cache::reset_override();
}

#[test]
fn merge_without_all_shards_names_the_missing_cells() {
    let _g = LOCK.lock().unwrap();
    let m = tiny_matrix();
    sprout_cache::set_dir(temp_cache_dir("partial-merge"));
    SweepEngine::new(3).with_shard(ShardSpec::new(0, 2)).run(&m);

    let err = SweepEngine::new(3)
        .with_policy(CellCachePolicy::Merge)
        .try_run(&m)
        .expect_err("half the cells are absent");
    match err {
        SweepError::MissingCells { matrix, labels } => {
            assert_eq!(matrix, "shardtest");
            let expect: Vec<&str> = m
                .cells()
                .iter()
                .filter(|c| ShardSpec::new(1, 2).owns(c.id))
                .map(|c| c.label.as_str())
                .collect();
            assert_eq!(labels, expect);
        }
        other => panic!("expected MissingCells, got {other:?}"),
    }

    // A different seed never sees the cached cells either.
    let err = SweepEngine::new(4)
        .with_policy(CellCachePolicy::Merge)
        .try_run(&m)
        .expect_err("other seeds must not be served seed-3 results");
    assert!(matches!(err, SweepError::MissingCells { ref labels, .. } if labels.len() == m.len()));

    sprout_cache::reset_override();
}

/// Everything the cells measured, series included, wall time excluded
/// (through `Debug`, which prints every NaN alike).
fn measured(results: &[sprout_bench::SweepResult]) -> String {
    let cells: Vec<_> = results.iter().map(|r| (&r.scenario, &r.measured)).collect();
    format!("{cells:?}")
}

#[test]
fn resume_loads_on_every_worker_and_agrees_at_any_thread_count() {
    // Nine series-requesting cells, cached in full; then, at 1, 2 and 4
    // threads, a copy of that cache with every third cell file deleted.
    // Phase 1 fills disjoint slices of the result vector from as many
    // threads as the engine has: the results, which cells execute and the
    // cache traffic must not depend on how many.
    let _g = LOCK.lock().unwrap();
    let m = ScenarioMatrix::builder("par-resume")
        .schemes([Scheme::Cubic, Scheme::Vegas, Scheme::Reno])
        .links([NetProfile::TmobileUmtsDown])
        .loss_rates([0.0, 0.02, 0.05])
        .timing(Duration::from_secs(10), Duration::from_secs(2))
        .cell_series(Duration::from_millis(500))
        .build();
    let full = temp_cache_dir("par-resume-full");
    sprout_cache::set_dir(&full);
    let want = SweepEngine::new(17).with_threads(2).run(&m);
    let names = |dir: &PathBuf, prefix: &str| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with(prefix))
            .collect();
        names.sort();
        names
    };
    let cell_files = names(&full, "cell-");
    assert_eq!(
        cell_files.len(),
        m.len(),
        "one file per cell: {cell_files:?}"
    );
    let deleted = cell_files.iter().step_by(3).count() as u64;

    let mut outcomes = Vec::new();
    for threads in [1, 2, 4] {
        let dir = temp_cache_dir(&format!("par-resume-{threads}"));
        std::fs::create_dir_all(&dir).unwrap();
        for name in names(&full, "") {
            std::fs::copy(full.join(&name), dir.join(&name)).unwrap();
        }
        for name in cell_files.iter().step_by(3) {
            std::fs::remove_file(dir.join(name)).unwrap();
        }
        sprout_cache::set_dir(&dir);
        let before = cell_cache_counters();
        let resumed = SweepEngine::new(17)
            .with_threads(threads)
            .with_policy(CellCachePolicy::Resume)
            .try_run(&m)
            .expect("resume completes");
        let traffic = cell_traffic_since(before);
        // A cached load reports no wall time; an executed cell does.
        let executed: Vec<u64> = resumed
            .iter()
            .filter(|r| r.wall_ms > 0.0)
            .map(|r| r.scenario.id)
            .collect();
        assert_eq!(executed.len() as u64, deleted, "threads {threads}");
        assert_eq!(
            (
                traffic.hits,
                traffic.misses,
                traffic.stores,
                traffic.quarantined
            ),
            (m.len() as u64 - deleted, deleted, deleted, 0),
            "threads {threads}"
        );
        assert_eq!(
            names(&dir, "cell-"),
            cell_files,
            "threads {threads}: refilled"
        );
        outcomes.push((executed, measured(&resumed)));
    }
    for (threads, (executed, got)) in [1, 2, 4].into_iter().zip(&outcomes) {
        assert_eq!(
            executed, &outcomes[0].0,
            "threads {threads} executed other cells"
        );
        assert!(
            got == &measured(&want),
            "threads {threads}: resumed results (series included) differ from the executing run"
        );
    }

    sprout_cache::reset_override();
}

/// A matrix whose middle cell panics during setup: a negative confidence
/// override trips `SproutConfig::with_confidence_percent`'s assertion.
fn poisoned_matrix() -> ScenarioMatrix {
    poisoned_cells("poison", &[false, true, false])
}

/// One 12-second Cubic cell per flag; a `true` cell panics during setup.
fn poisoned_cells(name: &str, poisoned: &[bool]) -> ScenarioMatrix {
    let cell = |id: u64, confidence: Option<f64>| Scenario {
        id,
        label: format!("poison/cell{id}"),
        workload: Workload::Scheme(Scheme::Cubic),
        link: NetProfile::TmobileUmtsDown.into(),
        queue: QueueSpec::Auto,
        prop_delay: Duration::from_millis(20),
        loss_rate: 0.0,
        confidence_pct: confidence,
        duration: Duration::from_secs(12),
        warmup: Duration::from_secs(2),
        series_bin: None,
        impairment: sprout_trace::Impairment::none(),
        cell_series_bin: None,
    };
    let cells = (0..)
        .zip(poisoned)
        .map(|(id, &poison)| cell(id, poison.then_some(-5.0)));
    ScenarioMatrix::from_cells(name, cells.collect())
}

#[test]
fn panicking_cell_is_isolated_and_resume_redoes_only_it() {
    let _g = LOCK.lock().unwrap();
    // Silence the default per-panic backtrace chatter for this test; the
    // engine catches the unwind either way.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    sprout_cache::set_dir(temp_cache_dir("poison"));
    let m = poisoned_matrix();
    let before = cell_cache_counters();
    let err = SweepEngine::new(9)
        .with_threads(2)
        .try_run(&m)
        .expect_err("the poisoned cell must fail the sweep");
    let traffic = cell_traffic_since(before);
    match &err {
        SweepError::CellsPanicked { matrix, failures } => {
            assert_eq!(matrix, "poison", "the error names its matrix");
            assert_eq!(failures.len(), 1, "only the poisoned cell fails");
            assert_eq!(failures[0].scenario_id, 1);
            assert_eq!(failures[0].label, "poison/cell1");
            let shown = err.to_string();
            assert!(shown.contains("scenario 1"), "{shown}");
            assert!(
                shown.contains("\"poison\""),
                "the message must name the experiment: {shown}"
            );
        }
        other => panic!("expected CellsPanicked, got {other:?}"),
    }
    assert_eq!(traffic.stores, 2, "survivors must be cached");

    // Resuming reruns only the failed cell (which fails again — the
    // poison is deterministic — but touches nothing else).
    let before = cell_cache_counters();
    let err = SweepEngine::new(9)
        .with_policy(CellCachePolicy::Resume)
        .try_run(&m)
        .expect_err("still poisoned");
    let traffic = cell_traffic_since(before);
    assert!(matches!(err, SweepError::CellsPanicked { ref failures, .. } if failures.len() == 1));
    assert_eq!(traffic.hits, 2, "survivors served from the cache");
    assert_eq!(traffic.misses, 1, "only the failed cell re-executes");
    assert_eq!(traffic.stores, 0);

    std::panic::set_hook(hook);
    sprout_cache::reset_override();
}

#[test]
fn a_panic_costs_one_worker_neither_its_thread_nor_the_survivors_their_entries() {
    // One worker, so one cell thread: it catches two panics and still runs
    // every later cell, and each survivor — before, between and after the
    // panics — is cached.
    let _g = LOCK.lock().unwrap();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    sprout_cache::set_dir(temp_cache_dir("poison-one-worker"));
    let m = poisoned_cells("poison", &[false, true, false, true, false, false]);
    let before = cell_cache_counters();
    let err = SweepEngine::new(9)
        .with_threads(1)
        .try_run(&m)
        .expect_err("two poisoned cells");
    match &err {
        SweepError::CellsPanicked { failures, .. } => {
            let named: Vec<(u64, bool)> = failures
                .iter()
                .map(|f| (f.scenario_id, f.timed_out))
                .collect();
            assert_eq!(named, [(1, false), (3, false)]);
        }
        other => panic!("expected CellsPanicked, got {other:?}"),
    }
    assert_eq!(last_batch_layout().0, 1, "one cell worker");
    assert_eq!(cell_traffic_since(before).stores, 4, "survivors are cached");

    let before = cell_cache_counters();
    let err = SweepEngine::new(9)
        .with_threads(1)
        .with_policy(CellCachePolicy::Resume)
        .try_run(&m)
        .expect_err("still poisoned");
    assert!(matches!(err, SweepError::CellsPanicked { ref failures, .. } if failures.len() == 2));
    let traffic = cell_traffic_since(before);
    assert_eq!((traffic.hits, traffic.misses, traffic.stores), (4, 2, 0));

    std::panic::set_hook(hook);
    sprout_cache::reset_override();
}

/// `n` one-second cells on one link (loss rate is the axis): a cell is a
/// millisecond or two, so storing them is most of the sweep.
fn many_tiny_cells(name: &str, n: usize) -> ScenarioMatrix {
    ScenarioMatrix::builder(name)
        .schemes([Scheme::Cubic])
        .links([NetProfile::TmobileUmtsDown])
        .loss_rates((0..n).map(|i| i as f64 * 1e-4))
        .timing(Duration::from_secs(1), Duration::from_millis(200))
        .build()
}

#[test]
fn every_executed_cell_is_on_disk_when_the_sweep_returns() {
    // Stores run on lanes beside the workers; `try_run` must not return
    // before the last of them. A merge that starts the moment the
    // executing run returns finds every cell.
    let _g = LOCK.lock().unwrap();
    let m = many_tiny_cells("flush", 240);
    for threads in [1, 2] {
        sprout_cache::set_dir(temp_cache_dir(&format!("flush-{threads}")));
        let before = cell_cache_counters();
        let executed = SweepEngine::new(23).with_threads(threads).run(&m);
        let stores = cell_traffic_since(before).stores;
        let before = cell_cache_counters();
        let merged = SweepEngine::new(23)
            .with_threads(threads)
            .with_policy(CellCachePolicy::Merge)
            .try_run(&m)
            .unwrap_or_else(|e| panic!("threads {threads}: {e}"));
        let traffic = cell_traffic_since(before);
        assert_eq!(stores, m.len() as u64, "threads {threads}");
        assert_eq!(
            (traffic.hits, traffic.misses, traffic.stores),
            (m.len() as u64, 0, 0),
            "threads {threads}"
        );
        assert_eq!(
            sweep_to_json(m.name(), 23, &merged),
            sweep_to_json(m.name(), 23, &executed),
            "threads {threads}"
        );
    }
    sprout_cache::reset_override();
}

#[test]
fn a_cache_that_cannot_store_costs_the_sweep_nothing_but_the_cache() {
    // The cache directory is a regular file: every store fails. Stores are
    // best-effort, so the sweep returns the complete result set — the same
    // bytes as beside a healthy cache, more cells than the lanes' queue
    // holds — and leaves nothing behind.
    let _g = LOCK.lock().unwrap();
    let m = many_tiny_cells("unwritable", 40);
    sprout_cache::set_dir(temp_cache_dir("writable"));
    let want = sweep_to_json(m.name(), 29, &SweepEngine::new(29).with_threads(2).run(&m));

    let parent = temp_cache_dir("unwritable");
    std::fs::create_dir_all(&parent).unwrap();
    let not_a_dir = parent.join("cache");
    std::fs::write(&not_a_dir, b"not a directory").unwrap();
    sprout_cache::set_dir(&not_a_dir);
    let before = cell_cache_counters();
    let got = SweepEngine::new(29)
        .with_threads(2)
        .try_run(&m)
        .expect("a failing store is not a failing cell");
    assert_eq!(sweep_to_json(m.name(), 29, &got), want);
    assert_eq!(cell_traffic_since(before).stores, 0);
    assert_eq!(std::fs::read(&not_a_dir).unwrap(), b"not a directory");
    let left: Vec<_> = std::fs::read_dir(&parent)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["cache"], "no temp file beside it either");

    sprout_cache::reset_override();
}
