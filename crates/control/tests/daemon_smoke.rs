//! End-to-end contracts of the control daemon, pinned with real
//! `reproduce` worker processes:
//!
//! 1. A 2-worker daemon sweep — including a worker SIGKILLed mid-shard
//!    and re-dealt — produces a merged `*_sweep.json` byte-identical to
//!    a single-process run of the same flags.
//! 2. A cancelled sweep kills its workers and leaves only cached cells
//!    behind: no partial artifacts under the sweep's output directory.
//!
//! The tests run the daemon in-process (scheduler on a thread, real
//! child workers) and talk to it over the HTTP status API, exactly as
//! the CLI does. They share the process-global cache override, so they
//! serialize on one lock.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sprout_control::{client, Daemon, DaemonConfig};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "sprout-control-smoke-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The `reproduce` binary next to this test's target dir (built by a
/// workspace-wide `cargo build`/`cargo test`; `CARGO_BIN_EXE_*` only
/// covers a crate's own bins).
fn reproduce_bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test executable path");
    p.pop(); // deps/
    p.pop(); // debug/
    let p = p.join("reproduce");
    assert!(
        p.is_file(),
        "reproduce binary missing at {p:?}; build the workspace first (cargo build)"
    );
    p
}

/// The worker flags every test sweep uses: a trimmed soak matrix —
/// small enough to finish in CI, big enough that a worker is still
/// mid-shard when the test reaches in to kill it.
const SWEEP_ARGS: &[&str] = &[
    "--secs",
    "12",
    "--warmup",
    "3",
    "--links",
    "vz-lte-down",
    "--prop-delays",
    "20",
    "--queues",
    "auto,bytes:75000",
];

fn start_daemon(tag: &str) -> (String, std::thread::JoinHandle<()>, PathBuf, PathBuf) {
    let state = temp_dir(&format!("{tag}-state"));
    let cache = temp_dir(&format!("{tag}-cache"));
    let out = temp_dir(&format!("{tag}-out"));
    let mut cfg = DaemonConfig::new(&state);
    cfg.cache_dir = cache;
    cfg.out_dir = out.clone();
    cfg.reproduce_bin = reproduce_bin();
    cfg.retry_base = Duration::from_millis(100);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let endpoint = daemon.endpoint().to_string();
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    (endpoint, handle, out, state)
}

fn get(endpoint: &str, path: &str) -> String {
    let (status, body) = client::request(endpoint, "GET", path, "").expect("GET");
    assert_eq!(status, 200, "GET {path}: {body}");
    body
}

fn submit(endpoint: &str, workers: usize) -> u64 {
    let body = SWEEP_ARGS.join("\n");
    let (status, resp) = client::request(
        endpoint,
        "POST",
        &format!("/sweeps?experiment=soak&workers={workers}"),
        &body,
    )
    .expect("submit");
    assert_eq!(status, 200, "submit: {resp}");
    resp.split("\"id\":")
        .nth(1)
        .and_then(|s| s.split('}').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("submit returns an id")
}

/// First `"key":value` number after `needle` in `json`.
fn field_after<'a>(json: &'a str, needle: &str, key: &str) -> Option<&'a str> {
    json.split(needle)
        .nth(1)?
        .split(&format!("\"{key}\":"))
        .nth(1)?
        .split([',', '}', '"'])
        .find(|s| !s.is_empty())
}

fn sweep_state(endpoint: &str, id: u64) -> String {
    let body = get(endpoint, "/sweeps");
    let needle = format!("\"id\":{id},");
    body.split(&needle)
        .nth(1)
        .and_then(|row| row.split("\"state\":\"").nth(1))
        .and_then(|s| s.split('"').next())
        .unwrap_or("missing")
        .to_string()
}

fn wait_for_state(endpoint: &str, id: u64, want: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let state = sweep_state(endpoint, id);
        if state == want {
            return;
        }
        assert!(
            state != "failed" || want == "failed",
            "sweep {id} failed while waiting for {want}: {}",
            get(endpoint, "/sweeps")
        );
        assert!(
            Instant::now() < deadline,
            "sweep {id} stuck in {state:?} waiting for {want:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn shutdown(endpoint: &str, handle: std::thread::JoinHandle<()>, state_dir: &Path) {
    let (status, _) = client::request(endpoint, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("daemon thread exits cleanly");
    assert!(
        !state_dir.join("endpoint").exists(),
        "shutdown must remove the endpoint file"
    );
}

fn pid_alive(pid: u32) -> bool {
    Command::new("kill")
        .args(["-0", &pid.to_string()])
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

#[test]
fn killed_worker_is_redealt_and_merge_matches_single_process_run() {
    let _g = lock();

    // Reference: the same flags in one process, own cache and out dir.
    let ref_out = temp_dir("ref-out");
    let ref_cache = temp_dir("ref-cache");
    let status = Command::new(reproduce_bin())
        .arg("soak")
        .args(SWEEP_ARGS)
        .arg("--out")
        .arg(&ref_out)
        .arg("--cache-dir")
        .arg(&ref_cache)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("reference run spawns");
    assert!(status.success(), "reference run failed");
    let reference =
        std::fs::read(ref_out.join("soak_sweep.json")).expect("reference sweep artifact");

    // The daemon runs in this process but only spawns workers and reads
    // the cell cache: it builds no forecast table and synthesizes no
    // trace, in memory or through the trace artifact.
    let tables0 = sprout_core::table_memory_counters();
    let traces0 = sprout_bench::trace_memory_counters();
    let trace_disk0 = sprout_trace::trace_cache_counters();

    let (endpoint, handle, out, state_dir) = start_daemon("kill");
    let id = submit(&endpoint, 2);

    // Kill the first shard worker the moment it shows up in /status:
    // its undeposited cells must be re-dealt to a replacement.
    let deadline = Instant::now() + Duration::from_secs(30);
    let victim: u32 = loop {
        let body = get(&endpoint, "/status");
        if let Some(pid) = field_after(&body, "\"phase\":\"shard\"", "pid") {
            break pid.parse().expect("pid is a number");
        }
        assert!(Instant::now() < deadline, "no shard worker appeared");
        std::thread::sleep(Duration::from_millis(20));
    };
    let killed = Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .expect("kill spawns")
        .success();
    assert!(killed, "SIGKILL of worker {victim} failed");

    wait_for_state(&endpoint, id, "done", Duration::from_secs(300));

    // The death was observed and the shard re-dealt.
    let sweeps = get(&endpoint, "/sweeps");
    let retries: u64 = field_after(&sweeps, &format!("\"id\":{id},"), "retries")
        .and_then(|s| s.parse().ok())
        .expect("retries field");
    assert!(retries >= 1, "worker death must be counted as a retry");

    // Determinism contract: daemon-merged == single-process, byte for
    // byte, despite two workers and one murder.
    let merged = std::fs::read(out.join(format!("sweep-{id}")).join("soak_sweep.json"))
        .expect("merged sweep artifact");
    assert_eq!(
        merged, reference,
        "daemon-merged soak_sweep.json differs from the single-process run"
    );

    // The live cell probe agrees that everything is cached.
    let cells = get(&endpoint, &format!("/sweeps/{id}/cells"));
    let cached: u64 = field_after(&cells, "{", "cached")
        .and_then(|s| s.parse().ok())
        .unwrap();
    let total: u64 = field_after(&cells, "{", "total")
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(total > 0 && cached == total, "cells: {cached}/{total}");

    let none = sprout_core::MemCounters::default();
    assert_eq!(sprout_core::table_memory_counters().since(tables0), none);
    assert_eq!(sprout_bench::trace_memory_counters().since(traces0), none);
    assert_eq!(
        sprout_trace::trace_cache_counters().since(trace_disk0),
        Default::default()
    );

    shutdown(&endpoint, handle, &state_dir);
}

#[test]
fn replay_submissions_are_validated_at_submit_time() {
    let _g = lock();
    let (endpoint, handle, _out, state_dir) = start_daemon("replay-validate");
    let post = |experiment: &str, body: &str| {
        client::request(
            &endpoint,
            "POST",
            &format!("/sweeps?experiment={experiment}&workers=1"),
            body,
        )
        .expect("request")
    };

    // A capture that cannot be read fails the submit with a 400 —
    // before any worker is spawned.
    let (status, resp) = post("replay", "--trace\n/nonexistent/capture.trace");
    assert_eq!(status, 400, "{resp}");

    // The replay axis flags are experiment-scoped at submit time too.
    let (status, resp) = post("fig1", "--timeseries");
    assert_eq!(status, 400, "{resp}");
    let (status, resp) = post("soak", "--schemes\nsprout");
    assert_eq!(status, 400, "{resp}");
    let (status, resp) = post("replay", "--schemes\nbogus");
    assert_eq!(status, 400, "{resp}");

    // A replay longer than the embedded corpus's captures is refused.
    let (status, resp) = post("replay", "--schemes\nsprout\n--quick");
    assert_eq!(status, 400, "{resp}");

    // A well-formed replay sweep (embedded default corpus, trimmed
    // roster, inside the captures) passes the same screen; cancel it
    // rather than run it.
    let (status, resp) = post("replay", "--schemes\nsprout\n--secs\n20");
    assert_eq!(status, 200, "{resp}");
    let id: u64 = resp
        .split("\"id\":")
        .nth(1)
        .and_then(|s| s.split('}').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("submit returns an id");
    let (status, _) =
        client::request(&endpoint, "POST", &format!("/sweeps/{id}/cancel"), "").expect("cancel");
    assert_eq!(status, 200);
    wait_for_state(&endpoint, id, "cancelled", Duration::from_secs(60));

    shutdown(&endpoint, handle, &state_dir);
}

#[test]
fn cancelled_sweep_leaves_only_cached_cells() {
    let _g = lock();
    let (endpoint, handle, out, state_dir) = start_daemon("cancel");
    let id = submit(&endpoint, 2);

    // Wait for workers, note their pids, then cancel mid-flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    let pids: Vec<u32> = loop {
        let body = get(&endpoint, "/status");
        let pids: Vec<u32> = body
            .split("\"pid\":")
            .skip(1)
            .filter_map(|s| s.split([',', '}']).next()?.parse().ok())
            .collect();
        if !pids.is_empty() {
            break pids;
        }
        assert!(Instant::now() < deadline, "no workers appeared");
        std::thread::sleep(Duration::from_millis(20));
    };
    let (status, _) =
        client::request(&endpoint, "POST", &format!("/sweeps/{id}/cancel"), "").expect("cancel");
    assert_eq!(status, 200);
    wait_for_state(&endpoint, id, "cancelled", Duration::from_secs(60));

    // Workers are dead, not leaked.
    let reaped = Instant::now() + Duration::from_secs(10);
    for pid in pids {
        while pid_alive(pid) {
            assert!(
                Instant::now() < reaped,
                "worker {pid} still alive after cancel"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // No partial artifacts: the sweep's out dir is gone entirely.
    assert!(
        !out.join(format!("sweep-{id}")).exists(),
        "cancel must remove the sweep's artifact directory"
    );

    shutdown(&endpoint, handle, &state_dir);
}
