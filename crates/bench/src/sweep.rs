//! The scenario-matrix sweep engine.
//!
//! [`SweepEngine`] executes every cell of a [`ScenarioMatrix`] and returns
//! one [`SweepResult`] per cell, in matrix order. Cells fan out across a
//! small worker pool ([`SweepEngine::threads`]); every stochastic input of
//! a cell — the link traces, the Bernoulli loss processes — is seeded
//! deterministically:
//!
//! * **link traces** derive from the master seed and the link profile
//!   alone, so every cell on one link sees *identical* link conditions
//!   (the controlled variable of Figure 7's scheme comparison);
//! * **per-cell randomness** (the loss processes) derives from
//!   `(master_seed, scenario.id)` via [`sprout_trace::derive_seed`], so
//!   cells are mutually independent but individually reproducible.
//!
//! Consequently a sweep is bit-identical for any thread count or
//! execution order, and [`sweep_to_json`] renders a canonical, diffable
//! record of the whole matrix (the `<matrix>_sweep.json` artifacts).
//!
//! This module is the **engine**: the worker pool, sharding, the cache
//! policy, the watchdog, and the schedule. What a cell *does* is
//! `crate::executor`; what a cell *produced* is `crate::record`.
//!
//! **Sharding and resumption.** Because every cell is a pure function of
//! `(engine version, matrix, scenario, master_seed)`, the engine can
//! split one matrix across processes ([`ShardSpec`]) and persist each
//! finished cell in the shared artifact cache (`crate::cellcache`). A
//! [`CellCachePolicy::Resume`] run serves cached cells and executes only
//! the rest; [`CellCachePolicy::Merge`] reassembles a complete sweep from
//! the cache alone, bit-identical to a single-shot run. Panicking cells
//! are isolated per cell: survivors finish (and are cached), and the
//! failure names every offending `scenario.id` instead of poisoning the
//! whole sweep. A per-cell wall-clock watchdog
//! ([`SweepEngine::cell_timeout`]) turns a wedged cell into the same
//! kind of named failure: a worker is a supervisor beside one long-lived,
//! abandonable cell thread, so a hang costs one timeout (and that
//! thread) instead of the sweep.
//!
//! **Threads of a sweep.** `W` workers execute cells: `W` scoped
//! supervisors, each blocked on its own non-scoped cell thread, and a
//! constant number of scoped *store lanes* that persist finished cells
//! behind a bounded queue while the next ones compute — `2 W + lanes`
//! threads, of which `W` burn CPU. The lanes are joined before
//! [`SweepEngine::try_run`] returns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};

use sprout_trace::{cancel, Duration};

use crate::scenario::{LinkSpec, Scenario, ScenarioMatrix};

// `benchmark/` and the integration tests name the record and the executor
// under `sweep::`.
pub use crate::executor::{
    execute_scenario, execute_with_memo, trace_memory_counters, CellScratch, LinkInputs, TraceMemo,
    BULK_FLOW, INTERACTIVE_FLOW,
};
pub use crate::record::{
    result_to_json, sweep_to_json, CellSeries, CellSeriesBin, FlowSummary, InterarrivalSummary,
    Measured, SeriesRow, ServeStats, SweepResult,
};

static LAST_WORKERS: AtomicUsize = AtomicUsize::new(0);
static LAST_BATCHES: AtomicUsize = AtomicUsize::new(0);
/// Gauge (not a counter): cell threads the watchdog has abandoned that
/// have not yet honored their cancellation and exited.
static ABANDONED_LIVE: AtomicU64 = AtomicU64::new(0);

/// Live abandoned cell threads: cells the watchdog timed out whose
/// threads have not yet honored the cooperative cancellation and exited.
/// Transiently nonzero right after a timeout; a value that *stays*
/// nonzero means a cell is wedged somewhere without a cancellation
/// checkpoint — a long-running daemon alarms on exactly that.
pub fn abandoned_cell_threads() -> u64 {
    ABANDONED_LIVE.load(Ordering::Acquire)
}

/// The layout of the most recent sweep execution in this process:
/// `(workers, batches)` — cell workers (threads executing cells side by
/// side; neither their supervisors nor the store lanes count) and
/// distinct `(link, duration)` groups among the executed cells — both 0
/// when the last sweep executed nothing (fully cache-served).
pub fn last_batch_layout() -> (usize, usize) {
    (
        LAST_WORKERS.load(Ordering::Relaxed),
        LAST_BATCHES.load(Ordering::Relaxed),
    )
}

/// Which slice of a matrix one process owns. Cells are dealt round-robin
/// by scenario id (`id % count == index`), so every shard gets a
/// near-equal share of each workload/link stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// This process's shard, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// The whole matrix in one process (the default).
    pub const FULL: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Shard `index` of `count`.
    pub fn new(index: usize, count: usize) -> Self {
        assert!(count > 0, "shard count must be positive");
        assert!(index < count, "shard index must be < count");
        ShardSpec { index, count }
    }

    /// Parse the CLI form `I/N` (e.g. `0/2`). `None` on any malformed or
    /// out-of-range spec.
    pub fn parse(spec: &str) -> Option<Self> {
        let (i, n) = spec.split_once('/')?;
        let index: usize = i.parse().ok()?;
        let count: usize = n.parse().ok()?;
        (count > 0 && index < count).then(|| ShardSpec::new(index, count))
    }

    /// Whether this shard owns scenario `id`.
    pub fn owns(&self, id: u64) -> bool {
        id % self.count as u64 == self.index as u64
    }

    /// Whether this spec covers the whole matrix.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec::FULL
    }
}

/// How a sweep uses the per-cell result cache. Executed cells are always
/// *stored* (best-effort, no-op when the cache is disabled); the policy
/// governs *loading*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CellCachePolicy {
    /// Execute every owned cell (the default — recomputation is itself
    /// the determinism check the CI smoke relies on).
    #[default]
    Execute,
    /// Serve cells already in the cache, execute the rest (`--resume`).
    Resume,
    /// Serve every owned cell from the cache; any miss is an error
    /// naming the absent cells (`--merge`).
    Merge,
}

/// One cell that panicked — or exceeded the watchdog timeout — during
/// execution.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// The failing cell's stable identity.
    pub scenario_id: u64,
    /// Its human-readable label.
    pub label: String,
    /// The panic message (or the watchdog's timeout description).
    pub message: String,
    /// Whether the cell was killed by the watchdog rather than
    /// panicking. Timed-out cells are never cached, so a `--resume`
    /// rerun re-executes exactly them (plus any panics).
    pub timed_out: bool,
}

/// Why a sweep could not produce a complete result set. Every variant
/// names the matrix (experiment) it belongs to, so a multi-experiment
/// invocation (`reproduce all`) reports *which* sweep failed, not just
/// scenario ids that are only unique within one matrix.
#[derive(Clone, Debug)]
pub enum SweepError {
    /// One or more cells panicked or exceeded the watchdog timeout.
    /// Surviving cells finished and were persisted to the cell cache,
    /// so a `Resume` rerun only redoes the failures.
    CellsPanicked {
        /// The matrix whose cells failed.
        matrix: String,
        /// Every failing cell, in scenario-id order.
        failures: Vec<CellFailure>,
    },
    /// A [`CellCachePolicy::Merge`] run found cells absent from the
    /// cache (a shard has not run yet, or the cache was keyed under a
    /// different matrix/seed/engine version).
    MissingCells {
        /// The matrix being merged.
        matrix: String,
        /// Labels of every absent cell.
        labels: Vec<String>,
    },
}

impl SweepError {
    /// The matrix (experiment) the failure belongs to.
    pub fn matrix(&self) -> &str {
        match self {
            SweepError::CellsPanicked { matrix, .. } => matrix,
            SweepError::MissingCells { matrix, .. } => matrix,
        }
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::CellsPanicked { matrix, failures } => {
                writeln!(f, "{} cell(s) of {matrix:?} failed:", failures.len())?;
                for c in failures {
                    writeln!(
                        f,
                        "  scenario {} ({}): {}",
                        c.scenario_id, c.label, c.message
                    )?;
                }
                write!(
                    f,
                    "surviving cells were cached; rerun with resume to redo only the failures"
                )
            }
            SweepError::MissingCells { matrix, labels } => {
                writeln!(
                    f,
                    "merge of {matrix:?}: {} cell(s) absent from the result cache:",
                    labels.len()
                )?;
                for l in labels {
                    writeln!(f, "  {l}")?;
                }
                write!(
                    f,
                    "run the missing shard(s) against this cache directory, or resume instead of merging"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Executes scenario matrices over a worker pool.
#[derive(Clone, Copy, Debug)]
pub struct SweepEngine {
    /// Master seed; every stochastic input of the sweep derives from it.
    pub master_seed: u64,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// The slice of each matrix this engine owns.
    pub shard: ShardSpec,
    /// How the per-cell result cache is consulted.
    pub policy: CellCachePolicy,
    /// Per-cell watchdog: a cell still running after this wall-clock
    /// budget is abandoned and reported as a named [`CellFailure`]
    /// (with [`CellFailure::timed_out`] set) instead of wedging the
    /// sweep. The default is generous — orders of magnitude above any
    /// real cell — so it only ever fires on genuine hangs. Timed-out
    /// cells are never cached, so a `Resume` rerun redoes exactly them.
    pub cell_timeout: std::time::Duration,
}

/// The default per-cell watchdog budget ([`SweepEngine::cell_timeout`]).
pub const DEFAULT_CELL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(600);

impl SweepEngine {
    /// An engine with the given master seed and automatic thread count.
    pub fn new(master_seed: u64) -> Self {
        SweepEngine {
            master_seed,
            threads: 0,
            shard: ShardSpec::FULL,
            policy: CellCachePolicy::Execute,
            cell_timeout: DEFAULT_CELL_TIMEOUT,
        }
    }

    /// Override the worker count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Restrict the engine to one shard of each matrix.
    pub fn with_shard(mut self, shard: ShardSpec) -> Self {
        self.shard = shard;
        self
    }

    /// Set the cell-result cache policy.
    pub fn with_policy(mut self, policy: CellCachePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Override the per-cell watchdog budget. Must be nonzero.
    pub fn with_cell_timeout(mut self, timeout: std::time::Duration) -> Self {
        assert!(
            !timeout.is_zero(),
            "the cell watchdog timeout must be nonzero"
        );
        self.cell_timeout = timeout;
        self
    }

    fn effective_threads(&self, cells: usize) -> usize {
        // `available_parallelism` probes the OS (cgroups, affinity masks)
        // on every call; one probe per process is plenty — the answer
        // cannot change in ways this engine should react to mid-run.
        static AUTO: OnceLock<usize> = OnceLock::new();
        let n = if self.threads == 0 {
            *AUTO.get_or_init(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        } else {
            self.threads
        };
        n.clamp(1, cells.max(1))
    }

    /// Run every owned cell of `matrix`; panics with the aggregated
    /// [`SweepError`] on failure. Library callers that want to keep
    /// surviving results should use [`Self::try_run`].
    pub fn run(&self, matrix: &ScenarioMatrix) -> Vec<SweepResult> {
        self.try_run(matrix).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run every cell of `matrix` this engine's shard owns, in matrix
    /// order: `results[k]` corresponds to the k-th owned cell regardless
    /// of thread interleaving (for the default full shard, `results[i]`
    /// is `matrix.cells()[i]`).
    ///
    /// Depending on [`Self::policy`], cells may be served from the
    /// per-cell result cache instead of executing; every *executed* cell
    /// is persisted there (best-effort) by the store lanes, each file
    /// written, synced and renamed into place as
    /// [`sprout_cache::ArtifactKind::store`] does, and the last of them
    /// before this function returns — a `Merge` may start the moment it
    /// does. A panicking cell does not take the sweep down: the other
    /// cells complete (and are cached) and the returned
    /// [`SweepError::CellsPanicked`] names each failure.
    pub fn try_run(&self, matrix: &ScenarioMatrix) -> Result<Vec<SweepResult>, SweepError> {
        let matrix_fp = matrix.fingerprint();
        let owned: Vec<&Scenario> = matrix
            .cells()
            .iter()
            .filter(|c| self.shard.owns(c.id))
            .collect();

        // Phase 1: serve what the cache already holds (policy permitting),
        // each worker filling its own contiguous slice of `results`.
        let mut results: Vec<Option<SweepResult>> = vec![None; owned.len()];
        if self.policy != CellCachePolicy::Execute {
            let load = |cells: &[&Scenario], slots: &mut [Option<SweepResult>]| {
                for (cell, slot) in cells.iter().zip(slots) {
                    *slot = crate::cellcache::load_cell(
                        matrix.name(),
                        matrix_fp,
                        cell,
                        self.master_seed,
                    );
                }
            };
            let threads = self.effective_threads(owned.len());
            if threads == 1 {
                load(&owned, &mut results);
            } else {
                let (load, per_worker) = (&load, owned.len().div_ceil(threads));
                std::thread::scope(|scope| {
                    let slices = owned.chunks(per_worker).zip(results.chunks_mut(per_worker));
                    for (cells, slots) in slices {
                        scope.spawn(move || load(cells, slots));
                    }
                });
            }
        }
        let pending: Vec<usize> = (0..owned.len()).filter(|&k| results[k].is_none()).collect();
        if self.policy == CellCachePolicy::Merge && !pending.is_empty() {
            return Err(SweepError::MissingCells {
                matrix: matrix.name().to_string(),
                labels: pending.iter().map(|&k| owned[k].label.clone()).collect(),
            });
        }

        // Phase 2: execute the rest over the worker pool. Traces depend
        // only on (master_seed, link, duration) — synthetic links
        // generate from the seed, measured links resolve from the
        // registry — so all pending cells sharing a link replay one
        // resolution instead of each redoing it (fig7: 80 cells but only
        // 8 links × 2 directions); fully-cached sweeps build nothing at
        // all.
        //
        // One schedule: pending cells are ordered by their shared-input
        // group (see [`schedule`]) and each worker claims the next *cell*,
        // its cell thread keeping one recycled [`CellScratch`] arena.
        // Cells are pure functions of their scenario, so the order cannot
        // change results — only locality.
        let mut failures: Vec<CellFailure> = Vec::new();
        if pending.is_empty() {
            LAST_WORKERS.store(0, Ordering::Relaxed);
            LAST_BATCHES.store(0, Ordering::Relaxed);
        } else {
            let memo = Arc::new(TraceMemo::new(self.master_seed));
            let (order, groups) = schedule(pending.iter().map(|&k| owned[k]));
            let threads = self.effective_threads(pending.len());
            LAST_WORKERS.store(threads, Ordering::Relaxed);
            LAST_BATCHES.store(groups, Ordering::Relaxed);
            let slots: Vec<Mutex<Option<Result<SweepResult, CellFailure>>>> =
                pending.iter().map(|_| Mutex::new(None)).collect();
            let fill = |j: usize, entry| {
                *slots[j].lock().expect("a slot is filled by one assignment") = Some(entry);
            };
            let next = AtomicUsize::new(0);
            let (to_lanes, finished) = sync_channel::<(usize, SweepResult)>(STORE_QUEUE);
            let finished = Mutex::new(finished);

            // A worker is a supervisor: it claims the next cell, hands it
            // to its cell thread, waits under the watchdog and passes the
            // result to the lanes.
            let work = |to_lanes: SyncSender<(usize, SweepResult)>| {
                let mut cell_thread: Option<CellThread> = None;
                while let Some(&j) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let thread = cell_thread.get_or_insert_with(|| {
                        CellThread::start(matrix.name(), self.master_seed, &memo)
                    });
                    match thread.run(owned[pending[j]], self.cell_timeout) {
                        Ok(result) => to_lanes
                            .send((j, result))
                            .expect("the lanes outlive the workers"),
                        Err(failure) => {
                            if failure.timed_out {
                                cell_thread = None; // abandoned; the next cell gets a fresh one
                            }
                            fill(j, Err(failure));
                        }
                    }
                }
                if let Some(thread) = cell_thread {
                    thread.retire();
                }
            };
            // A lane stores finished cells until every worker is done and
            // the queue is drained. Failed cells never get here.
            let lane = || loop {
                // The guard is a temporary of this statement: a lane holds
                // the queue only while it waits.
                let claimed = finished
                    .lock()
                    .expect("no lane panics holding the queue")
                    .recv();
                let Ok((j, result)) = claimed else { break };
                crate::cellcache::store_cell(matrix_fp, self.master_seed, &result);
                fill(j, Ok(result));
            };
            // The scope joins the lanes too: on return every executed cell
            // has been stored.
            std::thread::scope(|scope| {
                for _ in 0..STORE_LANES.min(pending.len()) {
                    scope.spawn(lane);
                }
                for _ in 0..threads {
                    let (work, to_lanes) = (&work, to_lanes.clone());
                    scope.spawn(move || work(to_lanes));
                }
                drop(to_lanes);
            });

            for (j, slot) in slots.into_iter().enumerate() {
                // Worker panics were caught per cell, so the slot mutex
                // cannot be poisoned and every slot was filled.
                match slot
                    .into_inner()
                    .unwrap()
                    .expect("every pending cell visited")
                {
                    Ok(r) => results[pending[j]] = Some(r),
                    Err(failure) => failures.push(failure),
                }
            }
        }

        if !failures.is_empty() {
            failures.sort_by_key(|f| f.scenario_id);
            return Err(SweepError::CellsPanicked {
                matrix: matrix.name().to_string(),
                failures,
            });
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every owned cell resolved"))
            .collect())
    }
}

/// Lane threads persisting finished cells while the workers compute the
/// next ones. A store is an fsync — latency, not CPU — so the gain is
/// overlap, and the count is how many fsyncs are in flight. Measured on
/// the 720-cell soak populate (`resume-warm` `setup_s`, one worker,
/// medians of rotating rounds; stores on the worker itself: 1.69 and
/// 1.87 s): 1 lane 1.48 s, 2 lanes 1.31 and 1.39, 4 lanes 1.24 and 1.32,
/// 8 lanes 1.22 — half of those cells are shorter than one fsync, so one
/// or two in flight leave the queue full and the worker waiting, and
/// past four the worker is the bottleneck.
const STORE_LANES: usize = 4;

/// Finished cells that may wait for a lane. Bounded, so a stalled disk
/// blocks the workers instead of growing memory: at most `STORE_QUEUE +
/// STORE_LANES` results are between a worker and the disk.
const STORE_QUEUE: usize = 2 * STORE_LANES;

/// One claimed cell on its way to a worker's cell thread.
struct CellJob {
    scenario: Scenario,
    token: cancel::CancelToken,
    /// The cell's lifecycle, shared with the watchdog: 0 = running,
    /// 1 = finished, 2 = abandoned. Whoever transitions *second* across
    /// the abandon/finish race settles the [`ABANDONED_LIVE`] gauge.
    state: Arc<AtomicU8>,
}

/// A worker's handle on its long-lived cell thread: a (non-scoped)
/// thread that owns clones of everything a cell needs plus one recycled
/// [`CellScratch`] arena, and executes the cells its supervisor sends it
/// one at a time. Being non-scoped is what lets a wedged cell be
/// *abandoned* — the supervisor stops waiting, drops this handle, reports
/// a named timeout failure and gives the next cell a fresh thread —
/// without wedging the sweep's scope join. A panic is caught per cell and
/// costs the arena (mid-panic state is unknown), not the thread.
///
/// Abandonment is not fire-and-forget: the watchdog arms the cell's
/// [`cancel::CancelToken`] on timeout, the simulation/synthesis loops
/// honor it at their next checkpoint, the thread then finds its job
/// channel closed and exits, and the [`abandoned_cell_threads`] gauge
/// tracks threads between abandonment and that cooperative unwind — so a
/// timed-out cell costs milliseconds of extra CPU, not the rest of its
/// virtual duration at wall speed.
struct CellThread {
    jobs: Sender<CellJob>,
    outcomes: Receiver<std::thread::Result<SweepResult>>,
    handle: std::thread::JoinHandle<()>,
}

impl CellThread {
    fn start(matrix: &str, master_seed: u64, memo: &Arc<TraceMemo>) -> Self {
        cancel::silence_cancelled_panics();
        let (jobs, claimed) = channel::<CellJob>();
        let (finished, outcomes) = channel();
        let (name, memo) = (matrix.to_string(), Arc::clone(memo));
        let handle = std::thread::spawn(move || {
            let mut scratch = CellScratch::default();
            // Ends when the supervisor drops its handle: after its last
            // cell, or on abandoning this thread.
            while let Ok(job) = claimed.recv() {
                let guard = cancel::CancelGuard::install(job.token);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    execute_with_memo(&name, &job.scenario, master_seed, &memo, &mut scratch)
                }));
                drop(guard);
                if outcome.is_err() {
                    scratch = CellScratch::default();
                }
                // Send fails only when the watchdog already gave up on
                // us; the late (or cancellation-unwound) result is
                // deliberately dropped and never cached.
                let _ = finished.send(outcome);
                if job.state.swap(1, Ordering::AcqRel) == 2 {
                    // The watchdog abandoned this cell and it has just
                    // unwound: settle the live-abandoned gauge back down.
                    ABANDONED_LIVE.fetch_sub(1, Ordering::AcqRel);
                }
            }
        });
        CellThread {
            jobs,
            outcomes,
            handle,
        }
    }

    /// Execute `cell` under the wall-clock watchdog. After a failure with
    /// [`CellFailure::timed_out`] set the cell has been cancelled and this
    /// thread must be dropped, not used again.
    fn run(
        &self,
        cell: &Scenario,
        timeout: std::time::Duration,
    ) -> Result<SweepResult, CellFailure> {
        let token = cancel::CancelToken::new();
        let state = Arc::new(AtomicU8::new(0));
        // The budget starts when the job is sent.
        let sent = std::time::Instant::now();
        self.jobs
            .send(CellJob {
                scenario: cell.clone(),
                token: token.clone(),
                state: Arc::clone(&state),
            })
            .expect("a cell thread lives until its supervisor drops it");
        let failure = |message, timed_out| CellFailure {
            scenario_id: cell.id,
            label: cell.label.clone(),
            message,
            timed_out,
        };
        match self
            .outcomes
            .recv_timeout(timeout.saturating_sub(sent.elapsed()))
        {
            Ok(outcome) => {
                outcome.map_err(|payload| failure(panic_message(payload.as_ref()), false))
            }
            // Timeout — or the cell thread dying without reporting, which
            // the per-cell catch_unwind makes unreachable in practice.
            Err(_) => {
                ABANDONED_LIVE.fetch_add(1, Ordering::AcqRel);
                if state.swap(2, Ordering::AcqRel) == 1 {
                    // Lost the race: the cell finished between the
                    // timeout and the abandonment mark. Undo the bump.
                    ABANDONED_LIVE.fetch_sub(1, Ordering::AcqRel);
                }
                token.cancel();
                Err(failure(
                    // `Debug` renders a `Duration` exactly: "600s", "50ms".
                    format!("exceeded the {timeout:?} cell watchdog timeout"),
                    true,
                ))
            }
        }
    }

    /// The supervisor has no more cells: close the job channel and wait
    /// for the (idle) thread to exit.
    fn retire(self) {
        drop(self.jobs);
        self.handle.join().expect("cell panics are caught per cell");
    }
}

/// Best-effort rendering of a panic payload (the common `&str`/`String`
/// payloads; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The one execution order: pending cells (`0..n`, matrix order) sorted
/// by their `(link, duration)` group — the key under which both the
/// synthesized traces and the forecast-table geometry are shared — with
/// groups in first-occurrence order and matrix order kept inside a
/// group. Consecutive cells then share warm trace and table handles
/// whether one worker runs them back to back or several run them side by
/// side (the trace memo's per-key build slot makes concurrent requesters
/// of one link share one synthesis). Returns the order and the number of
/// distinct groups.
fn schedule<'a>(pending: impl Iterator<Item = &'a Scenario>) -> (Vec<usize>, usize) {
    let mut groups: std::collections::HashMap<(LinkSpec, Duration), usize> =
        std::collections::HashMap::new();
    let group_of: Vec<usize> = pending
        .map(|cell| {
            let next = groups.len();
            *groups.entry((cell.link, cell.duration)).or_insert(next)
        })
        .collect();
    let mut order: Vec<usize> = (0..group_of.len()).collect();
    order.sort_by_key(|&j| group_of[j]); // stable: matrix order inside a group
    (order, groups.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioMatrix;
    use crate::schemes::Scheme;
    use sprout_trace::NetProfile;

    fn tiny_matrix() -> ScenarioMatrix {
        ScenarioMatrix::builder("tiny")
            .schemes([Scheme::SproutEwma, Scheme::Cubic])
            .links([NetProfile::TmobileUmtsDown])
            .timing(Duration::from_secs(30), Duration::from_secs(5))
            .build()
    }

    #[test]
    fn results_are_in_matrix_order() {
        let m = tiny_matrix();
        let results = SweepEngine::new(7).with_threads(2).run(&m);
        assert_eq!(results.len(), m.len());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.scenario.id, i as u64);
            assert_eq!(r.scenario, m.cells()[i]);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let m = tiny_matrix();
        let one = SweepEngine::new(11).with_threads(1).run(&m);
        let four = SweepEngine::new(11).with_threads(4).run(&m);
        assert_eq!(
            sweep_to_json(m.name(), 11, &one),
            sweep_to_json(m.name(), 11, &four)
        );
    }

    #[test]
    fn series_covers_every_bin_of_the_measurement_window() {
        // 21 s run − 5 s warmup over 500 ms bins ⇒ exactly 32 rows; the
        // capacity series may end at the link's last delivery opportunity
        // but must be padded, not truncate the throughput/delay rows.
        let m = ScenarioMatrix::builder("series")
            .schemes([Scheme::Cubic])
            .links([NetProfile::TmobileUmtsDown])
            .timing(Duration::from_secs(21), Duration::from_secs(5))
            .series_bin(Duration::from_millis(500))
            .build();
        let results = SweepEngine::new(13).run(&m);
        assert_eq!(results[0].series.len(), 32);
        for (i, row) in results[0].series.iter().enumerate() {
            assert_eq!(row.t_s, i as f64 * 0.5);
        }
    }

    #[test]
    fn simulations_are_send() {
        use sprout_sim::{Endpoint, Simulation};
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<Box<dyn Endpoint>, Box<dyn Endpoint>>>();
        assert_send::<Scenario>();
    }

    #[test]
    fn json_escapes_and_nan() {
        // Through the canonical document: a hostile matrix name is
        // escaped, a NaN metric renders as null.
        let m = tiny_matrix();
        let mut r = SweepResult::unmeasured("a\"b\\c\n", &m.cells()[0], 7);
        r.measured.fairness = Some(f64::NAN);
        let json = sweep_to_json("a\"b\\c\n", 7, &[r]);
        assert!(json.starts_with("{\"matrix\":\"a\\\"b\\\\c\\u000a\","));
        assert!(json.contains(",\"matrix\":\"a\\\"b\\\\c\\u000a\","));
        assert!(json.contains(",\"metrics\":null,\"fairness\":null,\"flows\":[],"));
    }

    #[test]
    fn the_schedule_groups_cells_by_link_keeping_matrix_order_inside() {
        // Matrix order interleaves the two links (workload is the outer
        // axis): the schedule runs the first link's cells, then the
        // second's, matrix order inside each.
        let m = ScenarioMatrix::builder("two-links")
            .schemes([Scheme::SproutEwma, Scheme::Cubic])
            .links([NetProfile::TmobileUmtsDown, NetProfile::TmobileUmtsUp])
            .timing(Duration::from_secs(10), Duration::from_secs(2))
            .build();
        assert_ne!(m.cells()[0].link, m.cells()[1].link);
        assert_eq!(schedule(m.cells().iter()), (vec![0, 2, 1, 3], 2));
    }
}
