//! The scheduler's wake-up contract: it makes a pass when a `POST` was
//! answered, when a worker's stdout ended, and at the earliest deadline
//! a task declared — and at no other time.
//!
//! None of these tests asserts that something is *fast*. Each sets the
//! two durations the scheduler could otherwise fall back on
//! (`hb_timeout`, `retry_base`) to a minute and gives itself a few
//! seconds: only a wake-up that was lost, and so waited out a minute,
//! can exceed that. Workers are a shell script standing in for
//! `reproduce`; it picks its behaviour from the `--secs` value of the
//! sweep it is dealt, so one daemon can run several kinds.

use std::os::unix::fs::PermissionsExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sprout_control::{client, Daemon, DaemonConfig};

/// What a lost wake-up would wait for.
const MINUTE: Duration = Duration::from_secs(60);

const WORKER: &str = r#"#!/bin/sh
case " $* " in
*" --secs 11 "*) # Shards finish at once; the merge stays long enough to be seen.
    case " $* " in *" --merge "*) sleep 0.5 ;; esac
    exit 0 ;;
*" --secs 12 "*) exec sleep 30 ;;            # silent, stdout held open
*" --secs 13 "*) exec >&-; exec sleep 30 ;;  # stdout closed, alive
*" --secs 14 "*) exit 3 ;;
*" --secs 15 "*) exit 0 ;;
esac
exit 9
"#;

const QUICK: u32 = 11;
const SILENT: u32 = 12;
const CLOSES_STDOUT: u32 = 13;
const EXITS_3: u32 = 14;
const EXITS_0: u32 = 15;

struct Harness {
    endpoint: String,
    scheduler: JoinHandle<()>,
    passes: Arc<AtomicU64>,
    root: PathBuf,
    /// Everything this test waits for must happen by then.
    deadline: Instant,
}

fn start(tag: &str, budget: Duration, tune: impl FnOnce(&mut DaemonConfig)) -> Harness {
    static N: AtomicU32 = AtomicU32::new(0);
    let root = std::env::temp_dir().join(format!(
        "sprout-control-wakeups-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create the test dir");
    let script = root.join("fake-reproduce.sh");
    std::fs::write(&script, WORKER).expect("write the fake worker");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
        .expect("make the fake worker executable");
    let mut cfg = DaemonConfig::new(root.join("state"));
    cfg.cache_dir = root.join("cache");
    cfg.out_dir = root.join("out");
    cfg.reproduce_bin = script;
    cfg.hb_timeout = MINUTE;
    cfg.retry_base = MINUTE;
    tune(&mut cfg);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    Harness {
        endpoint: daemon.endpoint().to_string(),
        passes: daemon.passes(),
        scheduler: std::thread::spawn(move || daemon.run().expect("daemon run")),
        root,
        deadline: Instant::now() + budget,
    }
}

impl Harness {
    fn get(&self, path: &str) -> String {
        let (status, body) = client::request(&self.endpoint, "GET", path, "").expect("GET");
        assert_eq!(status, 200, "GET {path}: {body}");
        body
    }

    fn post(&self, path: &str, body: &str) -> String {
        let (status, resp) = client::request(&self.endpoint, "POST", path, body).expect("POST");
        assert_eq!(status, 200, "POST {path}: {resp}");
        resp
    }

    fn submit(&self, kind: u32, workers: usize) -> u64 {
        let resp = self.post(
            &format!("/sweeps?experiment=soak&workers={workers}"),
            &format!("--secs\n{kind}\n--warmup\n1"),
        );
        resp.trim_start_matches("{\"id\":")
            .trim_end_matches('}')
            .parse()
            .unwrap_or_else(|_| panic!("submit returns an id: {resp}"))
    }

    /// The `/sweeps` row of sweep `id`.
    fn row(&self, id: u64) -> String {
        let sweeps = self.get("/sweeps");
        let row = sweeps.split(&format!("{{\"id\":{id},")).nth(1);
        let row = row.unwrap_or_else(|| panic!("no sweep {id} in {sweeps}"));
        row.split("]}").next().unwrap_or(row).to_string()
    }

    /// Poll until `ready` holds of `read()`; only a lost wake-up can
    /// run into the test's deadline.
    fn until(&self, what: &str, read: impl Fn() -> String, ready: impl Fn(&str) -> bool) -> String {
        loop {
            let seen = read();
            if ready(&seen) {
                return seen;
            }
            assert!(
                Instant::now() < self.deadline,
                "{what}: not within the test's budget (a missed wake-up?); last saw {seen}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn until_state(&self, id: u64, state: &str) -> String {
        let want = format!("\"state\":\"{state}\"");
        self.until(
            &format!("sweep {id} → {state}"),
            || self.row(id),
            |row| row.contains(&want),
        )
    }

    fn until_worker(&self, id: u64) -> String {
        let want = format!("{{\"sweep\":{id},");
        self.until(
            &format!("a worker of sweep {id} in /status"),
            || self.get("/status"),
            |status| status.contains(&want),
        )
    }

    fn shutdown(self) {
        self.post("/shutdown", "");
        while !self.scheduler.is_finished() {
            assert!(
                Instant::now() < self.deadline,
                "/shutdown did not end the scheduler within the test's budget"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        self.scheduler.join().expect("daemon thread exits cleanly");
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn number_after(json: &str, key: &str) -> u64 {
    let rest = json.split(&format!("\"{key}\":")).nth(1);
    let digits = rest.and_then(|r| r.split(|c: char| !c.is_ascii_digit()).next());
    digits
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("no number {key:?} in {json}"))
}

#[test]
fn no_wake_up_is_lost() {
    let h = start("lost", Duration::from_secs(10), |_| {});

    // Worker exits (shards, then the merge) are announced by stdout EOF.
    let first = h.submit(QUICK, 2);
    h.until_state(first, "merging");
    // Submitted while the first sweep merges: nothing but the end of
    // that merge can get it dealt.
    let second = h.submit(QUICK, 2);
    h.until_state(first, "done");
    h.until_state(second, "done");
    assert_eq!(number_after(&h.row(first), "retries"), 0);
    assert_eq!(number_after(&h.row(second), "retries"), 0);

    // A cancel of a sweep whose workers will say nothing for a minute.
    let held = h.submit(SILENT, 2);
    h.until_worker(held);
    h.post(&format!("/sweeps/{held}/cancel"), "");
    h.until_state(held, "cancelled");

    // And a shutdown in the same position.
    let held = h.submit(SILENT, 2);
    h.until_worker(held);
    h.shutdown();
}

#[test]
fn a_worker_that_closes_stdout_and_lives_on_is_killed_at_the_heartbeat_deadline() {
    let h = start("eof", Duration::from_secs(20), |cfg| {
        cfg.hb_timeout = Duration::from_secs(1);
        cfg.max_retries = 0;
    });
    let dealt = Instant::now();
    let id = h.submit(CLOSES_STDOUT, 1);
    // The daemon keeps answering while the scheduler re-checks.
    let row = h.until(
        "the silent worker's sweep fails",
        || {
            h.get("/status");
            h.row(id)
        },
        |row| row.contains("\"state\":\"failed\""),
    );
    assert!(
        dealt.elapsed() >= Duration::from_secs(1),
        "killed before hb_timeout: {:?}",
        dealt.elapsed()
    );
    assert!(
        row.contains("shard 0/1 failed after 1 attempts: heartbeat silent for 1."),
        "{row}"
    );
    assert_eq!(number_after(&row, "retries"), 1);
    // Escalating re-checks (1, 2, 4 … 128 ms, then every 128 ms) for one
    // second are tens of passes; a spin would be tens of thousands.
    let passes = h.passes.load(Ordering::Relaxed);
    assert!((5..200).contains(&passes), "{passes} scheduler passes");
    h.shutdown();
}

#[test]
fn an_immediate_exit_is_always_seen_with_its_real_status() {
    const ATTEMPTS: u32 = 300;
    let h = start("race", Duration::from_secs(30), |cfg| {
        cfg.retry_base = Duration::ZERO;
        cfg.max_retries = ATTEMPTS - 1;
    });
    // Each attempt's stdout EOF can reach the scheduler before the exit
    // is reapable; a re-check that gave up would sit out `hb_timeout`
    // and report `heartbeat silent`.
    let failing = h.submit(EXITS_3, 1);
    let row = h.until_state(failing, "failed");
    assert!(
        row.contains(&format!(
            "shard 0/1 failed after {ATTEMPTS} attempts: worker exited with exit status: 3"
        )),
        "{row}"
    );
    assert_eq!(number_after(&row, "retries"), u64::from(ATTEMPTS));

    // The same race on the success path: 5 × (64 shards + a merge).
    let clean: Vec<u64> = (0..5).map(|_| h.submit(EXITS_0, 64)).collect();
    for id in clean {
        let row = h.until_state(id, "done");
        assert_eq!(number_after(&row, "retries"), 0, "{row}");
    }
    h.shutdown();
}

#[test]
fn status_is_computed_when_it_is_read() {
    let h = start("fresh", Duration::from_secs(10), |_| {});
    let id = h.submit(SILENT, 1);
    let before = number_after(&h.until_worker(id), "quiet_ms");
    // No POST, no worker output, no deadline in these 300 ms: the
    // scheduler makes no pass, and the silence still reads longer.
    let passes = h.passes.load(Ordering::Relaxed);
    std::thread::sleep(Duration::from_millis(300));
    let after = number_after(&h.get("/status"), "quiet_ms");
    assert!(
        after >= before + 290,
        "quiet_ms {before} → {after} across 300 ms"
    );
    assert_eq!(h.passes.load(Ordering::Relaxed), passes);
    h.shutdown();
}

#[test]
fn an_idle_daemon_makes_no_scheduler_pass() {
    let h = start("idle", Duration::from_secs(10), |_| {});
    // The pass `run` starts with, which finds nothing to do.
    h.until(
        "the scheduler's first pass",
        || h.passes.load(Ordering::Relaxed).to_string(),
        |passes| passes == "1",
    );
    let window = Instant::now() + Duration::from_secs(2);
    while Instant::now() < window {
        // Reads wake nobody.
        h.get("/status");
        h.get("/sweeps");
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(h.passes.load(Ordering::Relaxed), 1);
    h.shutdown();
}
