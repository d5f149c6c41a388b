//! The scheduler: deals sweeps to `reproduce --shard` workers, watches
//! their heartbeats, re-deals orphaned shards, and runs the final merge.
//!
//! One sweep is active at a time (submission order); its `workers`
//! count becomes the shard denominator. Every worker is spawned as
//!
//! ```text
//! reproduce <experiment> <args…> --shard i/N --resume --controlled \
//!           --out <out>/sweep-<id>  (env SPROUT_CACHE_DIR=<cache>)
//! ```
//!
//! `--resume` is what makes worker death cheap: a replacement worker
//! re-executes only the cells its predecessor had not yet deposited in
//! the shared cell cache. `--controlled` makes liveness observable — a
//! worker prints a flushed heartbeat line every 500 ms, so a wedged
//! process (as opposed to a merely busy one) is killed and re-dealt
//! after `hb_timeout` of silence. Retries back off exponentially and
//! are bounded; exhausting them fails the sweep with a named reason
//! instead of looping forever.
//!
//! A sweep is a list of tasks: its shards, then one merge run
//! (`--merge`) that becomes eligible when every shard has reported
//! success, supervised and retried like any other task. The merge
//! serves all cells from the cache and renders the artifacts —
//! byte-identical to a single-process run of the same flags, which is
//! the contract the integration tests pin.
//!
//! Nothing here runs on a clock someone else picked. The scheduler
//! sleeps on one condvar and makes a pass when something it acts on can
//! have changed: a `POST` was answered (submit, cancel, shutdown), a
//! worker's stdout reached end-of-file (it exited), or the earliest
//! deadline a task declared has come — the end of a retry back-off, or
//! `hb_timeout` after a worker's last line. With no sweep queued it
//! sleeps indefinitely.

use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sprout_bench::figures::ExperimentConfig;
use sprout_bench::{cellcache, cli};
use sprout_cache::json;

use crate::httpd::{self, Request, Response};
use crate::state::{Queue, SweepSpec, SweepState, MAX_WORKERS};

/// Everything the daemon needs to run; see `sprout-control serve`.
/// The two durations are deadlines the scheduler wakes for, not polling
/// periods: there is no tick to configure.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Listen address, e.g. `127.0.0.1:0` (the bound port is written to
    /// `<state_dir>/endpoint`).
    pub listen: String,
    /// Queue file, endpoint file, and worker logs live here.
    pub state_dir: PathBuf,
    /// The shared artifact cache every worker and merge runs against.
    pub cache_dir: PathBuf,
    /// Artifact root; sweep `<id>` renders into `<out_dir>/sweep-<id>`.
    pub out_dir: PathBuf,
    /// The `reproduce` binary workers are spawned from.
    pub reproduce_bin: PathBuf,
    /// Kill a worker whose stdout has been silent this long.
    pub hb_timeout: Duration,
    /// First retry delay; doubles per retry of the same shard.
    pub retry_base: Duration,
    /// Retries per shard (and for the merge) before the sweep fails.
    pub max_retries: u32,
}

impl DaemonConfig {
    /// Defaults rooted at `state_dir`: cache in `.sprout-cache` (or
    /// `SPROUT_CACHE_DIR`), artifacts in `results/`, `reproduce`
    /// resolved as a sibling of the current executable.
    pub fn new(state_dir: impl Into<PathBuf>) -> DaemonConfig {
        let reproduce_bin = std::env::current_exe()
            .ok()
            .and_then(|exe| Some(exe.parent()?.join("reproduce")))
            .unwrap_or_else(|| PathBuf::from("reproduce"));
        let cache_dir = std::env::var_os("SPROUT_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".sprout-cache"));
        DaemonConfig {
            listen: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            cache_dir,
            out_dir: PathBuf::from("results"),
            reproduce_bin,
            hb_timeout: Duration::from_secs(10),
            retry_base: Duration::from_millis(500),
            max_retries: 4,
        }
    }
}

/// A worker's row in `/status`, published when its task changes state:
/// the fields that only a pass can change, rendered by that pass
/// (`{"sweep":…,"retries":N`), and the worker's live `abandoned` /
/// `last_line` handles, read at the moment a request is answered.
struct WorkerView {
    fixed: String,
    abandoned: Arc<AtomicU64>,
    last_line: Arc<Mutex<Instant>>,
}

struct Shared {
    cfg: DaemonConfig,
    queue: Mutex<Queue>,
    cancels: Mutex<HashSet<u64>>,
    shutdown: AtomicBool,
    views: Mutex<Vec<WorkerView>>,
    started: Instant,
    /// "Something the scheduler acts on may have changed", with the
    /// condvar it sleeps on.
    poked: Mutex<bool>,
    wake: Condvar,
    /// Scheduler passes made so far.
    passes: Arc<AtomicU64>,
}

impl Shared {
    /// Wake the scheduler for one pass. Call it *after* making the
    /// change the pass should see.
    fn poke(&self) {
        *lock(&self.poked) = true;
        self.wake.notify_one();
    }

    /// Sleep until poked or until `deadline` (forever when there is
    /// none). The flag is tested and cleared under its lock, so a poke
    /// that lands between a pass and this call is not lost: it was left
    /// set, and the wait returns at once.
    fn wait_until(&self, deadline: Option<Instant>) {
        let mut poked = lock(&self.poked);
        while !*poked {
            // `Duration::MAX` is past any clock: `wait_timeout` then waits
            // with no timeout, and would only come back here if it did not.
            let now = Instant::now();
            let left = deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(now));
            if left.is_zero() {
                break;
            }
            let waited = self.wake.wait_timeout(poked, left);
            poked = waited.unwrap_or_else(PoisonError::into_inner).0;
        }
        *poked = false;
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A worker whose stdout has ended is looked at again this soon, then
/// at twice the interval each time up to [`RECHECK_MAX`].
const RECHECK_MIN: Duration = Duration::from_millis(1);
/// Well below any `hb_timeout`, which is what ends the re-checks of a
/// worker that closed its stdout and lives on.
const RECHECK_MAX: Duration = Duration::from_millis(128);

/// One spawned `reproduce` process (a shard worker or the merge).
struct WorkerProc {
    child: Child,
    last_line: Arc<Mutex<Instant>>,
    abandoned: Arc<AtomicU64>,
    /// Set by the reader thread when the worker's stdout ends.
    eof: Arc<AtomicBool>,
    /// For a worker whose stdout has ended but which `try_wait` cannot
    /// reap yet: when to look again, and the interval that got there.
    recheck: Option<(Instant, Duration)>,
    reader: JoinHandle<()>,
}

impl WorkerProc {
    fn kill_and_reap(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.reap();
    }

    fn reap(self) {
        let _ = self.reader.join();
    }

    /// Where this process stands: still `Running`, exited cleanly
    /// (`Done`, reaped), or — dead, or silent past `hb_timeout` — killed,
    /// with the reason to retry it for.
    fn check(mut self, merge: bool, hb_timeout: Duration) -> Result<TaskState, String> {
        let (who, pre) = if merge {
            ("merge", "merge ")
        } else {
            ("worker", "")
        };
        let quiet = lock(&self.last_line).elapsed();
        let reason = match self.child.try_wait() {
            Ok(None) if quiet <= hb_timeout => {
                // An exiting process closes its files before it can be
                // reaped, so end-of-file may be announced a moment before
                // `try_wait` sees the exit. Never a blocking `wait`: a
                // worker may close stdout and live on.
                if self.eof.load(Ordering::Acquire) {
                    let last = self.recheck.map_or(Duration::ZERO, |(_, step)| step);
                    let step = (last * 2).clamp(RECHECK_MIN, RECHECK_MAX);
                    self.recheck = Some((Instant::now() + step, step));
                }
                return Ok(TaskState::Running(self));
            }
            Ok(Some(st)) if st.success() => {
                self.reap();
                return Ok(TaskState::Done);
            }
            Ok(Some(st)) => format!("{who} exited with {st}"),
            Ok(None) => format!("{pre}heartbeat silent for {:.1}s", quiet.as_secs_f64()),
            Err(e) => format!("{pre}wait failed: {e}"),
        };
        self.kill_and_reap();
        Err(reason)
    }
}

enum TaskState {
    Waiting,
    Running(WorkerProc),
    Done,
}

/// One unit of a sweep's work: a shard run, or the merge that follows
/// them all. Both are supervised, retried and shown the same way.
struct Task {
    /// `Some(i)` for shard `i`, `None` for the merge.
    shard: Option<usize>,
    state: TaskState,
    retries: u32,
    next_attempt: Instant,
}

impl Task {
    fn is_done(&self) -> bool {
        matches!(self.state, TaskState::Done)
    }
}

/// The sweep currently being dealt: its `count` shard tasks, then the
/// merge task, which becomes eligible when every shard before it is done.
struct Active {
    id: u64,
    experiment: String,
    args: Vec<String>,
    count: usize,
    tasks: Vec<Task>,
    out_dir: PathBuf,
}

impl Active {
    /// The earliest deadline among the tasks, each a look nobody will
    /// announce: for a running worker the end of its heartbeat
    /// allowance or its end-of-file re-check, for a waiting task that
    /// can be dealt the end of its back-off. The merge declares none
    /// until every shard is done — the pass that sees the last shard
    /// finish deals it.
    fn deadline(&self, hb_timeout: Duration) -> Option<Instant> {
        let shards_done = self.tasks[..self.count].iter().all(Task::is_done);
        let due = |task: &Task| match &task.state {
            TaskState::Running(w) => {
                let silent = *lock(&w.last_line) + hb_timeout;
                Some(w.recheck.map_or(silent, |(at, _)| at.min(silent)))
            }
            TaskState::Waiting if shards_done || task.shard.is_some() => Some(task.next_attempt),
            _ => None,
        };
        self.tasks.iter().filter_map(due).min()
    }
}

/// A running control daemon: HTTP thread + scheduler.
pub struct Daemon {
    shared: Arc<Shared>,
    endpoint: String,
    http: JoinHandle<()>,
}

impl Daemon {
    /// Bind the listener, write `<state-dir>/endpoint`, load the queue,
    /// and start serving the status API. The scheduler does not run
    /// until [`Daemon::run`].
    pub fn start(cfg: DaemonConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        std::fs::create_dir_all(&cfg.out_dir)?;
        // The daemon probes the shared cell cache directly (for
        // /sweeps/<id>/cells); point this process's cache at it once.
        sprout_cache::set_dir(cfg.cache_dir.clone());
        let queue = Queue::open(&cfg.state_dir)?;
        let listener = TcpListener::bind(&cfg.listen)?;
        let endpoint = listener.local_addr()?.to_string();
        std::fs::write(cfg.state_dir.join("endpoint"), format!("{endpoint}\n"))?;
        let shared = Arc::new(Shared {
            cfg,
            queue: Mutex::new(queue),
            cancels: Mutex::new(HashSet::new()),
            shutdown: AtomicBool::new(false),
            views: Mutex::new(Vec::new()),
            started: Instant::now(),
            poked: Mutex::new(false),
            wake: Condvar::new(),
            passes: Arc::new(AtomicU64::new(0)),
        });
        let served = Arc::clone(&shared);
        let http = std::thread::spawn(move || {
            let _ = httpd::run(listener, &served.shutdown, |req| handle(&served, req));
        });
        Ok(Daemon {
            endpoint,
            shared,
            http,
        })
    }

    /// The bound `host:port` of the status API.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Scheduler passes made so far — a gauge for the tests that pin
    /// "an idle daemon makes none".
    #[doc(hidden)]
    pub fn passes(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.shared.passes)
    }

    /// Run the scheduler until `/shutdown`: deal pending sweeps, watch
    /// workers, merge, repeat. Between passes it sleeps until a `POST`
    /// is answered, a worker's stdout ends, or the earliest task
    /// deadline (a retry back-off, `hb_timeout` of silence) — forever
    /// when no sweep is active. Kills every child and stops the status
    /// API before returning.
    pub fn run(self) -> io::Result<()> {
        let mut active: Option<Active> = None;
        let result = self.schedule(&mut active);
        if let Some(mut a) = active {
            kill_all(&mut a);
            // The queue still records the sweep as running / merging;
            // reload demotes it to pending, and its cached cells make
            // the restart cheap.
        }
        httpd::stop(&self.shared.shutdown, &self.endpoint);
        let _ = std::fs::remove_file(self.shared.cfg.state_dir.join("endpoint"));
        let _ = self.http.join();
        result
    }

    fn schedule(&self, active: &mut Option<Active>) -> io::Result<()> {
        let (shared, hb_timeout) = (&self.shared, self.shared.cfg.hb_timeout);
        while !shared.shutdown.load(Ordering::Acquire) {
            shared.passes.fetch_add(1, Ordering::Relaxed);
            if let Some(mut a) = active.take_if(|a| lock(&shared.cancels).remove(&a.id)) {
                kill_all(&mut a);
                // Leave only cached cells behind: no partial
                // artifacts survive a cancel.
                let _ = std::fs::remove_dir_all(&a.out_dir);
                self.finish(a.id, SweepState::Cancelled, String::new());
            }
            if active.is_none() {
                *active = self.next_pending()?;
            }
            if let Some(a) = active.as_mut() {
                if self.step(a)? {
                    *active = None;
                    // The next pending sweep is dealt by the next pass,
                    // which nothing else would announce.
                    shared.poke();
                }
            }
            self.publish(active.as_ref());
            shared.wait_until(active.as_ref().and_then(|a| a.deadline(hb_timeout)));
        }
        Ok(())
    }

    /// Promote the oldest pending sweep to running and set up its
    /// shard table.
    fn next_pending(&self) -> io::Result<Option<Active>> {
        let mut q = lock(&self.shared.queue);
        let Some(id) = q.first_pending() else {
            return Ok(None);
        };
        let spec = q.get_mut(id).expect("first_pending returned a live id");
        spec.state = SweepState::Running;
        let (experiment, args, count) = (spec.experiment.clone(), spec.args.clone(), spec.workers);
        q.persist()?;
        drop(q);
        let out_dir = self.shared.cfg.out_dir.join(format!("sweep-{id}"));
        std::fs::create_dir_all(&out_dir)?;
        let now = Instant::now();
        let tasks = (0..count).map(Some).chain([None]).map(|shard| Task {
            shard,
            state: TaskState::Waiting,
            retries: 0,
            next_attempt: now,
        });
        Ok(Some(Active {
            id,
            experiment,
            args,
            count,
            tasks: tasks.collect(),
            out_dir,
        }))
    }

    /// One scheduler pass over the active sweep's tasks, in order: look
    /// at a running one (success marks it done; a death or a silent
    /// heartbeat re-deals it after a backoff), deal a waiting one whose
    /// backoff has elapsed. Returns `true` when the sweep reached a
    /// terminal state.
    fn step(&self, a: &mut Active) -> io::Result<bool> {
        let cfg = &self.shared.cfg;
        let now = Instant::now();
        for i in 0..a.tasks.len() {
            let shard = a.tasks[i].shard;
            let merge = shard.is_none();
            // The merge renders from the cells every shard deposits.
            let blocked = merge && !a.tasks[..i].iter().all(Task::is_done);
            let state = std::mem::replace(&mut a.tasks[i].state, TaskState::Waiting);
            let outcome = match state {
                TaskState::Running(w) => w.check(merge, cfg.hb_timeout),
                TaskState::Waiting if !blocked && now >= a.tasks[i].next_attempt => {
                    if merge {
                        self.update(a.id, |spec| spec.state = SweepState::Merging);
                    }
                    self.spawn(a, shard, a.tasks[i].retries)
                        .map(TaskState::Running)
                        .map_err(|e| format!("spawn failed: {e}"))
                }
                idle => Ok(idle),
            };
            let task = &mut a.tasks[i];
            match outcome {
                Ok(state) => task.state = state,
                Err(reason) => {
                    self.update(a.id, |spec| spec.retries += 1);
                    task.retries += 1;
                    if task.retries > cfg.max_retries {
                        let what = match shard {
                            Some(i) => format!("shard {i}/{}", a.count),
                            None => "merge".to_string(),
                        };
                        let msg =
                            format!("{what} failed after {} attempts: {reason}", task.retries);
                        kill_all(a);
                        self.finish(a.id, SweepState::Failed, msg);
                        return Ok(true);
                    }
                    task.next_attempt = now + backoff(cfg.retry_base, task.retries);
                }
            }
        }
        let merged = a.tasks.last().is_some_and(Task::is_done);
        if merged {
            self.finish(a.id, SweepState::Done, String::new());
        }
        Ok(merged)
    }

    /// Change sweep `id`'s row of the queue and persist it.
    fn update(&self, id: u64, change: impl FnOnce(&mut SweepSpec)) {
        let mut q = lock(&self.shared.queue);
        if let Some(spec) = q.get_mut(id) {
            change(spec);
            let _ = q.persist();
        }
    }

    fn finish(&self, id: u64, state: SweepState, error: String) {
        self.update(id, |spec| (spec.state, spec.error) = (state, error));
    }

    /// Spawn one worker: `Some(shard)` for a shard run, `None` for the
    /// merge. Stdout is piped through a reader thread that timestamps
    /// every line (the liveness signal) and tees it to a log file;
    /// stderr goes straight to a log file.
    fn spawn(&self, a: &Active, shard: Option<usize>, attempt: u32) -> io::Result<WorkerProc> {
        let cfg = &self.shared.cfg;
        let logs = cfg.state_dir.join("logs");
        std::fs::create_dir_all(&logs)?;
        let tag = match shard {
            Some(i) => format!("shard{i}"),
            None => "merge".to_string(),
        };
        let log_path = logs.join(format!("sweep{}-{tag}-try{attempt}.log", a.id));
        let err_path = logs.join(format!("sweep{}-{tag}-try{attempt}.err", a.id));
        let mut cmd = Command::new(&cfg.reproduce_bin);
        cmd.arg(&a.experiment).args(&a.args);
        match shard {
            Some(i) => {
                cmd.arg("--shard").arg(format!("{i}/{}", a.count));
                cmd.arg("--resume");
            }
            None => {
                cmd.arg("--merge");
            }
        }
        cmd.arg("--controlled")
            .arg("--out")
            .arg(&a.out_dir)
            .env("SPROUT_CACHE_DIR", &cfg.cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(File::create(&err_path)?));
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let last_line = Arc::new(Mutex::new(Instant::now()));
        let abandoned = Arc::new(AtomicU64::new(0));
        let eof = Arc::new(AtomicBool::new(false));
        let (ll, ab) = (Arc::clone(&last_line), Arc::clone(&abandoned));
        let (ended, shared) = (Arc::clone(&eof), Arc::clone(&self.shared));
        let reader = std::thread::spawn(move || {
            let mut log = File::create(&log_path).ok();
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                *lock(&ll) = Instant::now();
                if let Some(rest) = line.strip_prefix("CONTROL hb ") {
                    if let Some(n) = rest
                        .split("abandoned=")
                        .nth(1)
                        .and_then(|v| v.trim().parse().ok())
                    {
                        ab.store(n, Ordering::Relaxed);
                    }
                } else if let Some(log) = log.as_mut() {
                    // Heartbeats are liveness, not output; log the rest.
                    let _ = writeln!(log, "{line}");
                }
            }
            // Stdout ended: the worker has exited, or is about to.
            ended.store(true, Ordering::Release);
            shared.poke();
        });
        Ok(WorkerProc {
            child,
            last_line,
            abandoned,
            eof,
            recheck: None,
            reader,
        })
    }

    /// Publish the `/status` worker table, one row per running task,
    /// at the end of every pass — the only time a task changes state.
    fn publish(&self, active: Option<&Active>) {
        let mut views = Vec::new();
        if let Some(a) = active {
            for task in &a.tasks {
                let TaskState::Running(w) = &task.state else {
                    continue;
                };
                let (phase, shard, count) = match task.shard {
                    Some(i) => ("shard", i, a.count),
                    None => ("merge", 0, 1),
                };
                let (sweep, pid, retries) = (a.id, w.child.id(), task.retries);
                views.push(WorkerView {
                    fixed: format!(
                        "{{\"sweep\":{sweep},\"phase\":\"{phase}\",\"shard\":{shard},\"count\":{count},\"pid\":{pid},\"retries\":{retries}"
                    ),
                    abandoned: Arc::clone(&w.abandoned),
                    last_line: Arc::clone(&w.last_line),
                });
            }
        }
        *lock(&self.shared.views) = views;
    }
}

/// Kill and reap everything the sweep still runs.
fn kill_all(a: &mut Active) {
    for task in &mut a.tasks {
        if let TaskState::Running(w) = std::mem::replace(&mut task.state, TaskState::Waiting) {
            w.kill_and_reap();
        }
    }
}

fn backoff(base: Duration, retries: u32) -> Duration {
    let factor = 1u32 << retries.saturating_sub(1).min(5);
    (base * factor).min(Duration::from_secs(10))
}

fn sweep_json(spec: &SweepSpec) -> String {
    let args: Vec<String> = spec.args.iter().map(|a| json::quoted(a)).collect();
    format!(
        "{{\"id\":{},\"experiment\":{},\"workers\":{},\"state\":\"{}\",\"retries\":{},\"error\":{},\"args\":[{}]}}",
        spec.id,
        json::quoted(&spec.experiment),
        spec.workers,
        spec.state.as_str(),
        spec.retries,
        json::quoted(&spec.error),
        args.join(",")
    )
}

/// Answer one status-API request. Any `POST` may have changed what the
/// scheduler should do, so it is woken once the answer is made (and
/// every lock the route took is released).
fn handle(shared: &Arc<Shared>, req: &Request) -> Response {
    let resp = route(shared, req);
    if req.method == "POST" {
        shared.poke();
    }
    resp
}

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["status"]) => status(shared),
        ("GET", ["sweeps"]) => {
            let q = lock(&shared.queue);
            let rows: Vec<String> = q.sweeps().iter().map(sweep_json).collect();
            Response::json(200, format!("{{\"sweeps\":[{}]}}", rows.join(",")))
        }
        ("POST", ["sweeps"]) => submit(shared, req),
        ("GET", ["sweeps", id, "cells"]) => match id.parse() {
            Ok(id) => cells(shared, id),
            Err(_) => Response::error(400, "sweep id must be a number"),
        },
        ("POST", ["sweeps", id, "cancel"]) => match id.parse() {
            Ok(id) => cancel(shared, id),
            Err(_) => Response::error(400, "sweep id must be a number"),
        },
        ("POST", ["shutdown"]) => {
            // This is the serving thread: it sees the flag before its
            // next accept, with no need for `httpd::stop`.
            shared.shutdown.store(true, Ordering::Release);
            Response::json(200, "{\"shutting_down\":true}")
        }
        _ => Response::error(404, &format!("no route for {} {}", req.method, req.path)),
    }
}

fn status(shared: &Arc<Shared>) -> Response {
    let q = lock(&shared.queue);
    let count = |s: SweepState| q.sweeps().iter().filter(|x| x.state == s).count();
    let counts = format!(
        "{{\"total\":{},\"pending\":{},\"running\":{},\"merging\":{},\"done\":{},\"failed\":{},\"cancelled\":{}}}",
        q.sweeps().len(),
        count(SweepState::Pending),
        count(SweepState::Running),
        count(SweepState::Merging),
        count(SweepState::Done),
        count(SweepState::Failed),
        count(SweepState::Cancelled),
    );
    drop(q);
    let views = lock(&shared.views);
    let workers: Vec<String> = views
        .iter()
        .map(|w| {
            let abandoned = w.abandoned.load(Ordering::Relaxed);
            let quiet_ms = lock(&w.last_line).elapsed().as_millis();
            format!(
                "{},\"abandoned\":{abandoned},\"quiet_ms\":{quiet_ms}}}",
                w.fixed
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"uptime_ms\":{},\"sweeps\":{},\"workers\":[{}]}}",
            shared.started.elapsed().as_millis(),
            counts,
            workers.join(",")
        ),
    )
}

/// `POST /sweeps?experiment=E&workers=N`, body = one worker flag per
/// line. Validation happens here, before any worker exists: unknown
/// experiments, reserved control-plane flags, and anything the shared
/// parser rejects all fail the submit with a 400.
fn submit(shared: &Arc<Shared>, req: &Request) -> Response {
    let Some(experiment) = req.query("experiment") else {
        return Response::error(400, "missing experiment query parameter");
    };
    let workers = match req.query("workers").map(str::parse::<usize>) {
        None => 2,
        Some(Ok(n)) if (1..=MAX_WORKERS).contains(&n) => n,
        Some(_) => {
            let msg = format!("workers must be a number in 1..={MAX_WORKERS}");
            return Response::error(400, &msg);
        }
    };
    let args: Vec<String> = req
        .body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    for arg in &args {
        if cli::RESERVED_FLAGS.iter().any(|f| f.name == arg) {
            return Response::error(
                400,
                &format!("{arg} is reserved for the control daemon (it owns sharding, cache placement, and artifact output)"),
            );
        }
    }
    let mut probe = ExperimentConfig::default();
    if let Err(msg) = cli::apply_worker_args(&mut probe, experiment, &args) {
        return Response::error(400, &msg);
    }
    match lock(&shared.queue).submit(experiment, workers, args) {
        Ok(id) => Response::json(200, format!("{{\"id\":{id}}}")),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// `GET /sweeps/<id>/cells`: live per-cell progress, computed by
/// probing the shared cell cache with the exact keys the sweep's
/// matrices declare — the same keys workers deposit under, so a cell
/// flips to `cached` the moment its worker stores it.
fn cells(shared: &Arc<Shared>, id: u64) -> Response {
    let spec = match lock(&shared.queue).get(id) {
        Some(spec) => spec.clone(),
        None => return Response::error(404, &format!("no sweep {id}")),
    };
    let mut cfg = ExperimentConfig::default();
    let experiments = match cli::apply_worker_args(&mut cfg, &spec.experiment, &spec.args) {
        Ok(experiments) => experiments,
        Err(msg) => return Response::error(400, &msg),
    };
    let mut rows = Vec::new();
    let mut cached_count = 0usize;
    for matrix in experiments.iter().flat_map(|e| e.declare(&cfg)) {
        let fingerprint = matrix.fingerprint();
        for cell in matrix.cells() {
            let cached = cellcache::load_cell(matrix.name(), fingerprint, cell, cfg.seed).is_some();
            cached_count += usize::from(cached);
            rows.push(format!(
                "{{\"matrix\":{},\"label\":{},\"cached\":{}}}",
                json::quoted(matrix.name()),
                json::quoted(&cell.label),
                cached
            ));
        }
    }
    Response::json(
        200,
        format!(
            "{{\"sweep\":{},\"state\":\"{}\",\"cached\":{},\"total\":{},\"cells\":[{}]}}",
            id,
            spec.state.as_str(),
            cached_count,
            rows.len(),
            rows.join(",")
        ),
    )
}

fn cancel(shared: &Arc<Shared>, id: u64) -> Response {
    let mut q = lock(&shared.queue);
    let Some(spec) = q.get_mut(id) else {
        return Response::error(404, &format!("no sweep {id}"));
    };
    if spec.state.is_terminal() {
        let state = spec.state.as_str();
        return Response::json(200, format!("{{\"id\":{id},\"state\":\"{state}\"}}"));
    }
    if spec.state == SweepState::Pending {
        spec.state = SweepState::Cancelled;
        let _ = q.persist();
        return Response::json(200, format!("{{\"id\":{id},\"state\":\"cancelled\"}}"));
    }
    drop(q);
    lock(&shared.cancels).insert(id);
    Response::json(200, format!("{{\"id\":{id},\"state\":\"cancelling\"}}"))
}
