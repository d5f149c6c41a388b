//! `control-plane`: a reduced soak sweep submitted to a real
//! `sprout-control serve` daemon, which deals it to `reproduce --shard`
//! worker processes and merges. The harness is the daemon's only HTTP
//! client. The only workload where process spawn, heartbeats and the
//! merge cost anything; the same flags run as one `reproduce` process
//! give the reference, for bytes and for time.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sprout_bench::figures::{self, ExperimentConfig};
use sprout_control::client;

use super::{shuffle, vm_hwm_kb, Ctx, Layer, Rep, Workload};
use crate::json::{self, Value};
use crate::stats;
use crate::tracer::Tracer;

/// How often the harness polls the daemon.
const POLL: Duration = Duration::from_millis(20);
/// A sweep that has not finished by then counts as failed.
const SWEEP_TIMEOUT: Duration = Duration::from_secs(60);

pub struct ControlPlane {
    ctx: Ctx,
    /// The worker flag vector (`reproduce soak <flags>`).
    flags: Vec<String>,
    cells: u64,
    virtual_secs: u64,
    dir: PathBuf,
    daemon: Option<Child>,
    endpoint: String,
    reference: Vec<u8>,
    daemon_rss_kb: u64,
    /// Largest resident footprint of one sweep's workers, kB: its shard
    /// workers side by side, or its merge.
    workers_rss_kb: u64,
    queue_to_running_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    submit_rtt_ms: Vec<f64>,
    status_rtt_ms: Vec<f64>,
    retries: u64,
}

/// What the harness saw of one sweep.
struct SweepRun {
    wall_s: f64,
    done: bool,
}

impl ControlPlane {
    pub fn new(ctx: &Ctx) -> Self {
        // The seed orders the three soak axes: another matrix of exactly
        // the same cells (and, with two delays, the same two shards).
        let mut links = ["vz-lte-down", "tmo-3g-up"];
        let mut delays = ["10", "50"];
        let mut queues = ["auto", "codel"];
        shuffle(&mut links, ctx.seed, "control-plane/links");
        shuffle(&mut delays, ctx.seed, "control-plane/prop-delays");
        shuffle(&mut queues, ctx.seed, "control-plane/queues");
        let secs = ctx.secs(24, 6);
        let flags: Vec<String> = [
            "--links",
            &links.join(","),
            "--prop-delays",
            &delays.join(","),
            "--queues",
            &queues.join(","),
            "--secs",
            &secs.to_string(),
            "--warmup",
            &(secs / 6).to_string(),
        ]
        .map(String::from)
        .to_vec();
        let mut cfg = ExperimentConfig::default();
        sprout_bench::cli::apply_worker_args(&mut cfg, "soak", &flags)
            .expect("the benchmark's own flags parse");
        ControlPlane {
            ctx: ctx.clone(),
            cells: figures::soak_matrix(&cfg).len() as u64,
            virtual_secs: secs,
            flags,
            dir: PathBuf::new(),
            daemon: None,
            endpoint: String::new(),
            reference: Vec::new(),
            daemon_rss_kb: 0,
            workers_rss_kb: 0,
            queue_to_running_ms: Vec::new(),
            merge_ms: Vec::new(),
            submit_rtt_ms: Vec::new(),
            status_rtt_ms: Vec::new(),
            retries: 0,
        }
    }

    fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// Note a process the harness is responsible for, so `run.sh` can
    /// kill it if the harness itself dies.
    fn note_pid(&self, pid: u32) {
        let _ = std::fs::write(self.ctx.pid_dir.join(pid.to_string()), "");
    }

    /// The same flags as one `reproduce` process; returns its wall time.
    fn run_reference(&self, threads: usize, out: &Path) -> f64 {
        let t0 = Instant::now();
        let mut child = Command::new(self.ctx.bin_dir.join("reproduce"))
            .arg("soak")
            .args(&self.flags)
            .args(["--threads", &threads.to_string(), "--out"])
            .arg(out)
            .env("SPROUT_CACHE_DIR", self.cache_dir())
            .current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn reproduce");
        self.note_pid(child.id());
        let status = child.wait().expect("wait for reproduce");
        assert!(status.success(), "the reference run failed: {status}");
        t0.elapsed().as_secs_f64()
    }

    /// Forget every cached cell (results and series) but keep the
    /// forecast tables and traces, so each sweep executes its cells
    /// against a warm artifact cache.
    fn drop_cached_cells(&self) {
        for entry in std::fs::read_dir(self.cache_dir())
            .into_iter()
            .flatten()
            .flatten()
        {
            if entry.file_name().to_string_lossy().starts_with("cell-") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    fn get(&self, path: &str) -> Option<Value> {
        let (status, body) = client::request(&self.endpoint, "GET", path, "").ok()?;
        (status == 200).then(|| json::parse(&body).ok()).flatten()
    }

    /// Submit the sweep with `workers` workers and poll it to the end.
    fn run_sweep(&mut self, workers: usize) -> SweepRun {
        self.drop_cached_cells();
        let path = format!("/sweeps?experiment=soak&workers={workers}");
        let body = self.flags.join("\n");
        let t0 = Instant::now();
        let id = client::request(&self.endpoint, "POST", &path, &body)
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, resp)| json::parse(&resp).ok())
            .and_then(|v| v.get("id").and_then(Value::as_f64))
            .map(|id| id as u64);
        self.submit_rtt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let Some(id) = id else {
            return SweepRun {
                wall_s: t0.elapsed().as_secs_f64(),
                done: false,
            };
        };

        let (mut running_at, mut merging_at) = (None, None);
        // Worker pid → (is the merge, largest VmHWM seen).
        let mut rss: BTreeMap<u32, (bool, u64)> = BTreeMap::new();
        let state = loop {
            std::thread::sleep(POLL);
            let t_status = Instant::now();
            let status = self.get("/status");
            self.status_rtt_ms
                .push(t_status.elapsed().as_secs_f64() * 1e3);
            for worker in status
                .as_ref()
                .and_then(|s| s.get("workers"))
                .map(Value::as_array)
                .unwrap_or_default()
            {
                let Some(pid) = worker.get("pid").and_then(Value::as_f64) else {
                    continue;
                };
                let pid = pid as u32;
                let merge = worker.get("phase").and_then(Value::as_str) == Some("merge");
                if !rss.contains_key(&pid) {
                    self.note_pid(pid);
                }
                let seen = rss.entry(pid).or_insert((merge, 0));
                seen.1 = seen.1.max(vm_hwm_kb(pid).unwrap_or(0));
            }
            let sweeps = self.get("/sweeps");
            let row = sweeps
                .as_ref()
                .and_then(|s| s.get("sweeps"))
                .map(Value::as_array)
                .unwrap_or_default()
                .iter()
                .find(|row| row.get("id").and_then(Value::as_f64) == Some(id as f64));
            let state = row
                .and_then(|row| row.get("state"))
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string();
            let now = t0.elapsed();
            if state != "pending" {
                running_at.get_or_insert(now);
            }
            if state == "merging" || state == "done" {
                merging_at.get_or_insert(now);
            }
            if matches!(state.as_str(), "done" | "failed" | "cancelled") || now > SWEEP_TIMEOUT {
                self.retries += row
                    .and_then(|row| row.get("retries"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0) as u64;
                break state;
            }
        };
        let wall = t0.elapsed();
        if let (Some(running), Some(merging)) = (running_at, merging_at) {
            self.queue_to_running_ms.push(running.as_secs_f64() * 1e3);
            self.merge_ms.push((wall - merging).as_secs_f64() * 1e3);
        }
        let shards: u64 = rss
            .values()
            .filter(|(merge, _)| !merge)
            .map(|(_, kb)| kb)
            .sum();
        let merge = rss
            .values()
            .filter(|(merge, _)| *merge)
            .map(|(_, kb)| *kb)
            .max();
        self.workers_rss_kb = self.workers_rss_kb.max(shards.max(merge.unwrap_or(0)));
        if let Some(daemon) = &self.daemon {
            self.daemon_rss_kb = self.daemon_rss_kb.max(vm_hwm_kb(daemon.id()).unwrap_or(0));
        }

        let sweep_out = self.dir.join("out").join(format!("sweep-{id}"));
        let merged = std::fs::read(sweep_out.join("soak_sweep.json")).unwrap_or_default();
        let _ = std::fs::remove_dir_all(&sweep_out);
        SweepRun {
            wall_s: wall.as_secs_f64(),
            done: state == "done" && merged == self.reference,
        }
    }
}

impl Workload for ControlPlane {
    fn operation(&self) -> &'static str {
        "sweeps"
    }

    fn setups(&self) -> usize {
        2
    }

    fn primary_threads(&self) -> usize {
        2
    }

    /// Every sweep goes to two workers. One-worker sweeps took two fifths
    /// of the budget for a number no one asked for, and left either
    /// count three to five sweeps — whose median moved by 15 % from run
    /// to run, since a sweep is 240 `fsync`s and a dozen daemon ticks.
    fn secondary_threads(&self) -> Option<usize> {
        None
    }

    fn setup(&mut self, dir: &Path) {
        self.teardown();
        self.dir = dir.to_path_buf();
        std::fs::create_dir_all(dir).expect("create the workload dir");
        let state = dir.join("state");
        let daemon = Command::new(self.ctx.bin_dir.join("sprout-control"))
            .args(["serve", "--listen", "127.0.0.1:0", "--state-dir"])
            .arg(&state)
            .arg("--cache-dir")
            .arg(self.cache_dir())
            .arg("--out")
            .arg(dir.join("out"))
            .arg("--reproduce-bin")
            .arg(self.ctx.bin_dir.join("reproduce"))
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sprout-control");
        self.note_pid(daemon.id());
        self.daemon = Some(daemon);
        let deadline = Instant::now() + Duration::from_secs(10);
        self.endpoint = loop {
            // The daemon creates the file, then writes `host:port\n`: an
            // endpoint without its newline is not finished yet.
            match std::fs::read_to_string(state.join("endpoint")) {
                Ok(text) if text.ends_with('\n') => break text.trim().to_string(),
                _ => {}
            }
            assert!(
                Instant::now() < deadline,
                "the daemon never wrote its endpoint"
            );
            std::thread::sleep(Duration::from_millis(2));
        };
        // The single-process reference doubles as the cold start of the
        // shared cache: forecast tables and traces are built here once.
        let reference_out = dir.join("reference");
        self.run_reference(2, &reference_out);
        self.reference = std::fs::read(reference_out.join("soak_sweep.json"))
            .expect("the reference run wrote its sweep JSON");
    }

    /// `threads` is the worker count the sweep is dealt to.
    fn rep(&mut self, threads: usize) -> Rep {
        let run = self.run_sweep(threads);
        Rep {
            wall_s: run.wall_s,
            cells: self.cells,
            session_virtual_s: (self.cells * self.virtual_secs) as f64,
            fingerprint: sprout_cache::fingerprint64(&self.reference),
            attempted: 1,
            failed: u64::from(!run.done),
        }
    }

    fn traced(&mut self, tracer: &mut Tracer, untraced_s: f64, layer: &mut Layer) {
        self.drop_cached_cells();
        let out = self.dir.join("inproc");
        let (inproc_s, _) = tracer.span("control.inproc", "control", "soak", |_| {
            self.run_reference(2, &out)
        });
        let (run, _) = tracer.span("control.sweep", "control", "soak", |_| self.run_sweep(2));
        assert!(
            run.done,
            "the traced sweep must merge to the reference bytes"
        );
        layer.insert("control.inproc_s", inproc_s);
        layer.insert("control.overhead_s", untraced_s - inproc_s);
        layer.insert(
            "control.queue_to_running_ms",
            stats::median(&self.queue_to_running_ms),
        );
        layer.insert("control.merge_ms", stats::median(&self.merge_ms));
        layer.insert("control.submit_rtt_ms", stats::median(&self.submit_rtt_ms));
        layer.insert("control.status_rtt_ms", stats::median(&self.status_rtt_ms));
        layer.insert("control.worker_retries", self.retries as f64);
        layer.insert("bench.trace_overhead", run.wall_s / untraced_s);
    }

    /// The daemon plus the most its workers held at once; the harness
    /// process itself only polls.
    fn peak_rss_kb(&self) -> u64 {
        self.daemon_rss_kb + self.workers_rss_kb
    }

    fn teardown(&mut self) {
        let Some(mut daemon) = self.daemon.take() else {
            return;
        };
        // Ask first: a graceful shutdown reaps the daemon's own workers.
        let _ = client::request(&self.endpoint, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline && matches!(daemon.try_wait(), Ok(None)) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = daemon.kill();
        let _ = daemon.wait();
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.teardown();
    }
}
