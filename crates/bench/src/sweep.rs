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
//! execution order, and [`write_json`] emits a canonical, diffable record
//! of the whole matrix (the `<matrix>_sweep.json` artifacts).
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
//! kind of named failure: each cell runs on an abandonable thread, so a
//! hang costs one timeout instead of the sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use sprout_baselines::{
    AppProfile, Cubic, TcpReceiver, TcpSender, VideoAppReceiver, VideoAppSender,
};
use sprout_core::{SproutConfig, SproutEndpoint};
use sprout_sim::{
    direction_stats, jain_fairness_index, CoDelConfig, Endpoint, FlowId, LinkImpairment,
    MetricsCollector, MuxEndpoint, PathConfig, QueueConfig, ServeSim, Simulation, DEEP_QUEUE_BYTES,
};
use sprout_trace::{
    cancel, derive_labeled_seed, session_seed, Duration, InterarrivalHistogram, OutageSchedule,
    Timestamp, Trace,
};
use sprout_tunnel::{SproutServer, TunnelEndpoint, TunnelHost};

use crate::scenario::{
    paired, FlowSpec, LinkSpec, ResolvedQueue, Scenario, ScenarioMatrix, Workload,
};
use crate::schemes::{build_endpoints, RunConfig, Scheme, SchemeResult};

/// The bulk flow of the §5.7 mux/tunnel cells.
pub const BULK_FLOW: FlowId = FlowId(1);
/// The interactive flow of the §5.7 mux/tunnel cells.
pub const INTERACTIVE_FLOW: FlowId = FlowId(2);

/// Per-flow summary of a mux/tunnel cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowSummary {
    /// Flow identifier.
    pub flow: u32,
    /// Average throughput in the measurement window, kbps.
    pub throughput_kbps: f64,
    /// 95% end-to-end delay, ms (NaN when the flow never delivered).
    pub p95_delay_ms: f64,
}

/// One bin of a collected time series (Figure 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesRow {
    /// Bin start relative to the measurement window, seconds.
    pub t_s: f64,
    /// Link capacity in the bin, kbps.
    pub capacity_kbps: f64,
    /// Achieved throughput in the bin, kbps.
    pub throughput_kbps: f64,
    /// Worst per-arrival delay in the bin, ms (0 when nothing arrived).
    pub worst_delay_ms: f64,
}

/// Per-cell time-series payload of the "cell-series" artifact
/// (`reproduce --timeseries`): every per-arrival delay sample plus
/// per-bin capacity/throughput/queue-depth rows over the measurement
/// window. Collected for scheme workloads (the replay, impair, and soak
/// matrices); workloads without a single metered direction (probe,
/// serve) ignore the request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellSeries {
    /// Bin width of [`Self::bins`], microseconds (a [`Duration`] tick
    /// count; kept integral so the artifact encoding is exact).
    pub bin_us: u64,
    /// Per-arrival samples `(seconds since window start, delay ms)`.
    pub delays: Vec<(f64, f64)>,
    /// Per-bin rows covering the whole measurement window.
    pub bins: Vec<CellSeriesBin>,
}

/// One bin of a [`CellSeries`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellSeriesBin {
    /// Bin start, seconds since the measurement window opened.
    pub t_s: f64,
    /// Link capacity in the bin, kbps.
    pub capacity_kbps: f64,
    /// Achieved throughput in the bin, kbps.
    pub throughput_kbps: f64,
    /// Packets in flight (sent but not yet delivered) at the bin start.
    pub queue_depth: u64,
}

/// Interarrival statistics of a saturated link (Figure 2).
#[derive(Clone, Debug, PartialEq)]
pub struct InterarrivalSummary {
    /// Fraction of interarrivals within 20 ms (paper: 99.99%).
    pub fraction_within_20ms: f64,
    /// Power-law slope of the 20 ms–5 s tail (paper: −3.27).
    pub tail_slope: Option<f64>,
    /// Total interarrivals measured.
    pub samples: u64,
    /// Non-empty histogram bins: (bin start ms, bin end ms, percent).
    pub rows: Vec<(f64, f64, f64)>,
}

/// Deterministic summary of one multi-session serve cell. Wall-clock
/// capacity numbers (sessions/sec, per-session heap, tick latency) are
/// deliberately *not* here — `benchmark/`'s `serve-pool` workload
/// measures them — so this payload stays bit-identical across machines,
/// thread counts, and batch modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeStats {
    /// Number of concurrent sessions the cell served.
    pub sessions: u32,
    /// Sum of per-session uplink wire bytes delivered to the server in
    /// the measurement window.
    pub delivered_bytes: u64,
    /// Smallest per-session delivered-byte count in the window (a
    /// starving session shows up here, not hidden in the average).
    pub min_session_bytes: u64,
    /// Largest per-session delivered-byte count in the window.
    pub max_session_bytes: u64,
    /// Full-run wire bytes the event loop handed to the server, counted
    /// by the loop itself. The conservation property: this equals the
    /// sum over sessions of full-run per-path delivered bytes (the serve
    /// arm asserts it on every run).
    pub wire_delivered_bytes: u64,
}

/// The structured outcome of one scenario cell.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepResult {
    /// The cell that produced this row.
    pub scenario: Scenario,
    /// The matrix this cell belongs to.
    pub matrix: String,
    /// Queue discipline the cell actually ran behind.
    pub queue: ResolvedQueue,
    /// The derived per-cell seed (all cell-local randomness stems from it).
    pub cell_seed: u64,
    /// Standard direction metrics (absent for the interarrival probe).
    pub metrics: Option<SchemeResult>,
    /// Per-flow metrics (mux/tunnel/contention cells only). For
    /// contention cells, `flows[i]` is the cell's i-th declared
    /// [`FlowSpec`] (`FlowId(i + 1)`).
    pub flows: Vec<FlowSummary>,
    /// Jain's fairness index over the per-flow throughputs (contention
    /// cells only; `None` elsewhere).
    pub fairness: Option<f64>,
    /// Per-bin series (only when the scenario requested one).
    pub series: Vec<SeriesRow>,
    /// Interarrival statistics (probe cells only).
    pub interarrival: Option<InterarrivalSummary>,
    /// Multi-session capacity summary (serve cells only).
    pub serve: Option<ServeStats>,
    /// Per-cell time series (only when the scenario requested one via
    /// [`Scenario::cell_series_bin`] and the workload produces one —
    /// scheme workloads do, probe/serve cells don't). Persisted as its
    /// own "cell-series" artifact and **excluded** from the canonical
    /// sweep JSON; the TSV renderings are the deliverable.
    pub cell_series: Option<CellSeries>,
    /// Wall-clock execution time of this cell, milliseconds. Measured,
    /// not simulated — deliberately **excluded** from the canonical
    /// sweep JSON (which must stay bit-identical across machines and
    /// thread counts); `benchmark/` reads it for per-cell attribution.
    pub wall_ms: f64,
}

/// Execution statistics of one sweep run: wall time plus the disk-cache
/// traffic the run generated. Cache counters are process-global deltas,
/// so run sweeps one at a time when attributing traffic to a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepStats {
    /// Wall-clock time of the whole `run` call, milliseconds.
    pub total_wall_ms: f64,
    /// Forecast-table disk-cache traffic during the run.
    pub table_cache: sprout_cache::CacheCounters,
    /// Trace-synthesis disk-cache traffic during the run.
    pub trace_cache: sprout_cache::CacheCounters,
    /// Cell-result disk-cache traffic during the run (hits mean whole
    /// cells were served without simulating).
    pub cell_cache: sprout_cache::CacheCounters,
    /// Batch-executor layout and in-memory amortization during the run.
    pub batch: BatchStats,
}

/// How the batch executor laid out one sweep and how well the in-memory
/// shared resources amortized across its cells. Unlike the disk-cache
/// counters in [`SweepStats`], a "reuse" here means a live in-memory
/// handle was served — no disk I/O, no decode, no rebuild.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Whether batched execution was enabled ([`SweepEngine::batch`]).
    pub enabled: bool,
    /// Worker threads the executed phase actually spawned (0 when every
    /// cell was served from the result cache).
    pub workers: usize,
    /// Cell batches the pending work was grouped into (0 when nothing
    /// executed; equals the pending-cell count when batching is off).
    pub batches: usize,
    /// Forecast-table in-memory amortization (process-global delta).
    pub tables: sprout_core::MemCounters,
    /// Link-trace in-memory amortization (process-global delta).
    pub traces: sprout_core::MemCounters,
}

static TRACES_BUILT: AtomicU64 = AtomicU64::new(0);
static TRACES_REUSED: AtomicU64 = AtomicU64::new(0);
static TRACES_EVICTED: AtomicU64 = AtomicU64::new(0);
static TRACE_MEMO_LEN: AtomicU64 = AtomicU64::new(0);
static LAST_WORKERS: AtomicUsize = AtomicUsize::new(0);
static LAST_BATCHES: AtomicUsize = AtomicUsize::new(0);
static CELLS_PANICKED: AtomicU64 = AtomicU64::new(0);
static CELLS_TIMED_OUT: AtomicU64 = AtomicU64::new(0);
/// Gauge (not a counter): cell threads the watchdog has abandoned that
/// have not yet honored their cancellation and exited.
static ABANDONED_LIVE: AtomicU64 = AtomicU64::new(0);

/// Cumulative process-wide counts of cells that did not finish: `failed`
/// counts panics, `timed_out` counts watchdog kills. Like the cache
/// counters these only ever grow; attribute them to one sweep by taking
/// deltas with [`CellFailureCounters::since`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellFailureCounters {
    /// Cells whose execution panicked.
    pub failed: u64,
    /// Cells killed by the per-cell watchdog ([`SweepEngine::cell_timeout`]).
    pub timed_out: u64,
}

impl CellFailureCounters {
    /// The delta accumulated since an `earlier` snapshot.
    pub fn since(self, earlier: Self) -> Self {
        CellFailureCounters {
            failed: self.failed - earlier.failed,
            timed_out: self.timed_out - earlier.timed_out,
        }
    }
}

/// Process-wide cell-failure counters (cumulative).
pub fn cell_failure_counters() -> CellFailureCounters {
    CellFailureCounters {
        failed: CELLS_PANICKED.load(Ordering::Relaxed),
        timed_out: CELLS_TIMED_OUT.load(Ordering::Relaxed),
    }
}

/// Process-wide in-memory trace amortization counters: `built` counts
/// link-trace syntheses actually performed, `reused` counts requests
/// served by an already-synthesized in-memory trace (the sweep memo).
pub fn trace_memory_counters() -> sprout_core::MemCounters {
    sprout_core::MemCounters {
        built: TRACES_BUILT.load(Ordering::Relaxed),
        reused: TRACES_REUSED.load(Ordering::Relaxed),
    }
}

/// Live abandoned cell threads: cells the watchdog timed out whose
/// threads have not yet honored the cooperative cancellation and exited.
/// Transiently nonzero right after a timeout; a value that *stays*
/// nonzero means a cell is wedged somewhere without a cancellation
/// checkpoint — a long-running daemon alarms on exactly that.
pub fn abandoned_cell_threads() -> u64 {
    ABANDONED_LIVE.load(Ordering::Acquire)
}

/// Occupancy of the most recent sweep's trace memo: `(live_entries,
/// evictions_total)`. Live entries never exceed the memo's LRU cap, so a
/// daemon sweeping many disjoint `(link, duration)` geometries holds a
/// bounded number of synthesized traces in memory at once.
pub fn trace_memo_occupancy() -> (usize, u64) {
    (
        TRACE_MEMO_LEN.load(Ordering::Relaxed) as usize,
        TRACES_EVICTED.load(Ordering::Relaxed),
    )
}

/// The worker/batch layout of the most recent sweep execution in this
/// process: `(workers, batches)`, both 0 when the last sweep executed
/// nothing (fully cache-served).
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
    /// Batched execution (the default): pending cells are grouped by
    /// shared trace/table key and dealt to workers a batch at a time, so
    /// cells sharing heavy precomputed inputs run consecutively on one
    /// worker (warm in-memory handles, recycled scratch arenas). Off,
    /// every cell is its own batch — the pre-batching schedule. Either
    /// way results are bit-identical; only the execution order differs.
    pub batch: bool,
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
            batch: true,
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

    /// Enable or disable batched cell execution.
    pub fn with_batch(mut self, batch: bool) -> Self {
        self.batch = batch;
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

    /// Run every cell of `matrix` and report execution statistics
    /// alongside the results: per-cell wall time lands in each
    /// [`SweepResult::wall_ms`], sweep-level wall time and disk-cache
    /// traffic in the returned [`SweepStats`].
    pub fn run_with_stats(&self, matrix: &ScenarioMatrix) -> (Vec<SweepResult>, SweepStats) {
        let table0 = sprout_core::table_cache_counters();
        let trace0 = sprout_trace::trace_cache_counters();
        let cell0 = crate::cellcache::cell_cache_counters();
        let tmem0 = sprout_core::table_memory_counters();
        let trmem0 = trace_memory_counters();
        let t0 = std::time::Instant::now();
        let results = self.run(matrix);
        let (workers, batches) = last_batch_layout();
        let stats = SweepStats {
            total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            table_cache: sprout_core::table_cache_counters().since(table0),
            trace_cache: sprout_trace::trace_cache_counters().since(trace0),
            cell_cache: crate::cellcache::cell_cache_counters().since(cell0),
            batch: BatchStats {
                enabled: self.batch,
                workers,
                batches,
                tables: sprout_core::table_memory_counters().since(tmem0),
                traces: trace_memory_counters().since(trmem0),
            },
        };
        (results, stats)
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
    /// is persisted there (best-effort). A panicking cell does not take
    /// the sweep down: the other cells complete (and are cached) and the
    /// returned [`SweepError::CellsPanicked`] names each failure.
    pub fn try_run(&self, matrix: &ScenarioMatrix) -> Result<Vec<SweepResult>, SweepError> {
        let matrix_fp = matrix.fingerprint();
        let owned: Vec<&Scenario> = matrix
            .cells()
            .iter()
            .filter(|c| self.shard.owns(c.id))
            .collect();

        // Phase 1: serve what the cache already holds (policy permitting).
        let mut results: Vec<Option<SweepResult>> = vec![None; owned.len()];
        let mut pending: Vec<usize> = Vec::new();
        for (k, cell) in owned.iter().enumerate() {
            let cached = match self.policy {
                CellCachePolicy::Execute => None,
                CellCachePolicy::Resume | CellCachePolicy::Merge => {
                    crate::cellcache::load_cell(matrix.name(), matrix_fp, cell, self.master_seed)
                }
            };
            match cached {
                Some(r) => results[k] = Some(r),
                None => pending.push(k),
            }
        }
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
        // Batched execution deals cells to workers one *batch* at a time:
        // pending cells are grouped by their shared-input key (link
        // profile and duration — the trace key, which also covers the
        // forecast-table geometry, since every cell of one link/duration
        // stripe shares a [`sprout_core::SproutConfig`] table geometry)
        // and a worker claims a whole group, running its cells
        // consecutively with one recycled [`CellScratch`] arena. Cells
        // are pure functions of their scenario, so the schedule cannot
        // change results — only locality.
        let mut failures: Vec<CellFailure> = Vec::new();
        if pending.is_empty() {
            LAST_WORKERS.store(0, Ordering::Relaxed);
            LAST_BATCHES.store(0, Ordering::Relaxed);
        } else {
            let memo = std::sync::Arc::new(TraceMemo::new(self.master_seed));
            let groups = batch_groups(&pending, |j| owned[pending[j]], self.batch);
            let threads = self.effective_threads(groups.len());
            LAST_WORKERS.store(threads, Ordering::Relaxed);
            LAST_BATCHES.store(groups.len(), Ordering::Relaxed);
            let slots: Vec<Mutex<Option<Result<SweepResult, CellFailure>>>> =
                pending.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);

            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut scratch = CellScratch::default();
                        loop {
                            let g = next.fetch_add(1, Ordering::Relaxed);
                            if g >= groups.len() {
                                break;
                            }
                            for &j in &groups[g] {
                                let cell = owned[pending[j]];
                                let entry = match run_watchdogged(
                                    matrix.name(),
                                    cell,
                                    self.master_seed,
                                    &memo,
                                    std::mem::take(&mut scratch),
                                    self.cell_timeout,
                                ) {
                                    Ok((result, returned)) => {
                                        scratch = returned;
                                        crate::cellcache::store_cell(
                                            matrix_fp,
                                            self.master_seed,
                                            &result,
                                        );
                                        Ok(result)
                                    }
                                    Err(failure) => Err(failure),
                                };
                                *slots[j].lock().unwrap() = Some(entry);
                            }
                        }
                    });
                }
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
            for f in &failures {
                let counter = if f.timed_out {
                    &CELLS_TIMED_OUT
                } else {
                    &CELLS_PANICKED
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
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

/// Execute one cell on a dedicated (non-scoped) thread under a
/// wall-clock watchdog. The cell thread owns clones of everything it
/// needs, so a wedged cell can be *abandoned* — the worker stops
/// waiting, reports a named timeout failure, and moves on — without
/// wedging the sweep's scope join. On success the recycled scratch
/// arena rides back with the result; a panic or timeout forfeits it
/// (mid-panic state is unknown, and an abandoned thread still owns its
/// arena), so the worker starts the next cell from a fresh one.
///
/// Abandonment is not fire-and-forget: the watchdog arms the cell's
/// [`cancel::CancelToken`] on timeout, the simulation/synthesis loops
/// honor it at their next checkpoint, and the [`abandoned_cell_threads`]
/// gauge tracks threads between abandonment and their cooperative exit —
/// so a timed-out cell costs milliseconds of extra CPU, not the rest of
/// its virtual duration at wall speed.
fn run_watchdogged(
    matrix: &str,
    cell: &Scenario,
    master_seed: u64,
    memo: &std::sync::Arc<TraceMemo>,
    scratch: CellScratch,
    timeout: std::time::Duration,
) -> Result<(SweepResult, CellScratch), CellFailure> {
    cancel::silence_cancelled_panics();
    let (tx, rx) = std::sync::mpsc::channel();
    let name = matrix.to_string();
    let scenario = cell.clone();
    let memo = std::sync::Arc::clone(memo);
    let token = cancel::CancelToken::new();
    // Cell-thread lifecycle, shared with the watchdog: 0 = running,
    // 1 = exited, 2 = abandoned. Whoever transitions *second* across the
    // abandon/exit race settles the [`ABANDONED_LIVE`] gauge.
    let state = std::sync::Arc::new(std::sync::atomic::AtomicU8::new(0));
    let cell_token = token.clone();
    let cell_state = std::sync::Arc::clone(&state);
    std::thread::spawn(move || {
        let mut scratch = scratch;
        let guard = cancel::CancelGuard::install(cell_token);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            execute_with_memo(&name, &scenario, master_seed, &memo, &mut scratch)
        }));
        drop(guard);
        let scratch = match &outcome {
            Ok(_) => scratch,
            Err(_) => CellScratch::default(),
        };
        // Send fails only when the watchdog already gave up on us; the
        // late (or cancellation-unwound) result is deliberately dropped
        // and never cached.
        let _ = tx.send((outcome, scratch));
        if cell_state.swap(1, Ordering::AcqRel) == 2 {
            // The watchdog abandoned us and we just exited: settle the
            // live-abandoned gauge back down.
            ABANDONED_LIVE.fetch_sub(1, Ordering::AcqRel);
        }
    });
    match rx.recv_timeout(timeout) {
        Ok((Ok(result), scratch)) => Ok((result, scratch)),
        Ok((Err(payload), _)) => Err(CellFailure {
            scenario_id: cell.id,
            label: cell.label.clone(),
            message: panic_message(payload.as_ref()),
            timed_out: false,
        }),
        // Timeout — or the cell thread dying without reporting, which
        // the per-cell catch_unwind makes unreachable in practice.
        Err(_) => {
            ABANDONED_LIVE.fetch_add(1, Ordering::AcqRel);
            if state.swap(2, Ordering::AcqRel) == 1 {
                // Lost the race: the thread exited between the timeout
                // and the abandonment mark. Undo the gauge bump.
                ABANDONED_LIVE.fetch_sub(1, Ordering::AcqRel);
            }
            token.cancel();
            Err(CellFailure {
                scenario_id: cell.id,
                label: cell.label.clone(),
                message: format!("exceeded the {}s cell watchdog timeout", timeout.as_secs()),
                timed_out: true,
            })
        }
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

/// Group pending-cell indices (`0..pending_len`) into batches of cells
/// sharing one `(link, duration)` stripe — the key under which both the
/// synthesized traces and the forecast-table geometry are shared. Groups
/// preserve first-occurrence order and cells stay in matrix order within
/// a group, so the schedule is deterministic. With batching off, every
/// cell is its own (singleton) group.
fn batch_groups<'a>(
    pending: &[usize],
    cell_of: impl Fn(usize) -> &'a Scenario,
    batch: bool,
) -> Vec<Vec<usize>> {
    if !batch {
        return (0..pending.len()).map(|j| vec![j]).collect();
    }
    let mut index: std::collections::HashMap<(LinkSpec, Duration), usize> =
        std::collections::HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for j in 0..pending.len() {
        let cell = cell_of(j);
        let key = (cell.link, cell.duration);
        let g = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(j);
    }
    groups
}

/// Per-worker arena recycled across the cells of a batch: buffers whose
/// capacity is worth keeping warm between simulations. Contents never
/// carry over — each cell clears before use — so recycling is invisible
/// to results.
#[derive(Default)]
pub struct CellScratch {
    /// The event-loop packet buffer ([`Simulation::into_scratch`]).
    packets: Vec<sprout_sim::Packet>,
}

/// How many synthesized traces one sweep's memo keeps live at once.
/// Covers the widest matrix the experiments declare (8 link profiles ×
/// 2 directions at one duration) so in practice nothing evicts; a
/// daemon-submitted matrix crossing many `(link, duration)` geometries
/// recycles slots instead of holding every trace to the end of the
/// sweep.
const TRACE_MEMO_CAP: usize = 16;

/// Lazily resolved link traces shared by every cell of one sweep,
/// bounded by an LRU over `(link, duration)` keys. Values are
/// byte-identical to what a cell would build locally: synthetic links
/// depend only on `(master_seed, profile, duration)`, measured links
/// only on `(capture bytes, duration)` — so neither memoization nor
/// eviction can change results. Synthesis happens inside the requesting
/// cell's thread (under its watchdog), first-come: concurrent
/// requesters of one key share a per-key `OnceLock` build slot and
/// block only on that key.
struct TraceMemo {
    master_seed: u64,
    slots: Mutex<sprout_core::LruCache<(LinkSpec, Duration), TraceSlot>>,
}

/// A per-key build slot (see [`TraceMemo`]).
type TraceSlot = std::sync::Arc<OnceLock<Trace>>;

impl TraceMemo {
    fn new(master_seed: u64) -> Self {
        TraceMemo {
            master_seed,
            slots: Mutex::new(sprout_core::LruCache::new(TRACE_MEMO_CAP)),
        }
    }

    /// The trace for `(link, duration)`, resolving on first use:
    /// synthetic links generate, measured links come from the registry
    /// truncated to the cell duration.
    fn get_or_build(&self, link: LinkSpec, duration: Duration) -> Trace {
        let slot = {
            let mut slots = self
                .slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (slot, _) = slots.get_or_insert_with(&(link, duration), TraceSlot::default);
            let slot = std::sync::Arc::clone(slot);
            TRACES_EVICTED.store(slots.evictions(), Ordering::Relaxed);
            TRACE_MEMO_LEN.store(slots.len() as u64, Ordering::Relaxed);
            slot
        };
        let mut built_now = false;
        let trace = slot
            .get_or_init(|| {
                built_now = true;
                match link {
                    LinkSpec::Profile(profile) => profile.generate(duration, self.master_seed),
                    LinkSpec::Measured { fingerprint } => measured_trace(fingerprint, duration),
                }
            })
            .clone();
        if built_now {
            TRACES_BUILT.fetch_add(1, Ordering::Relaxed);
        } else {
            TRACES_REUSED.fetch_add(1, Ordering::Relaxed);
        }
        trace
    }
}

/// Resolve a measured link for one cell: the capture must already be
/// registered in this process (`--trace FILE` re-registers it in every
/// shard worker), and the replay is truncated to the cell's duration so
/// the trace key stays `(link, duration)`.
fn measured_trace(fingerprint: u64, duration: Duration) -> Trace {
    let full = sprout_trace::lookup_trace(fingerprint).unwrap_or_else(|| {
        panic!(
            "measured trace m{fingerprint:016x} is not registered in this \
             process — pass its capture file via --trace FILE"
        )
    });
    full.truncated(Timestamp::ZERO + duration)
}

/// Execute one cell. Public so single-cell callers (`benchmark/`)
/// share the exact code path of full sweeps.
pub fn execute_scenario(matrix: &str, scenario: &Scenario, master_seed: u64) -> SweepResult {
    let memo = TraceMemo::new(master_seed);
    execute_with_memo(
        matrix,
        scenario,
        master_seed,
        &memo,
        &mut CellScratch::default(),
    )
}

fn execute_with_memo(
    matrix: &str,
    scenario: &Scenario,
    master_seed: u64,
    memo: &TraceMemo,
    scratch: &mut CellScratch,
) -> SweepResult {
    let started = std::time::Instant::now();
    let cell_seed = derive_labeled_seed(master_seed, "cell", scenario.id);
    let queue = scenario.queue.resolve(&scenario.workload);

    if scenario.workload == Workload::InterarrivalProbe {
        // No endpoints: analyse the saturated link's own delivery process.
        let trace = match scenario.link {
            LinkSpec::Profile(profile) => {
                let trace_seed = derive_labeled_seed(master_seed, "interarrival-probe", 0);
                profile.generate(scenario.duration, trace_seed)
            }
            LinkSpec::Measured { fingerprint } => measured_trace(fingerprint, scenario.duration),
        };
        let hist = InterarrivalHistogram::from_trace(&trace, 10, 10_000.0);
        return SweepResult {
            scenario: scenario.clone(),
            matrix: matrix.to_string(),
            queue,
            cell_seed,
            metrics: None,
            flows: Vec::new(),
            fairness: None,
            series: Vec::new(),
            interarrival: Some(InterarrivalSummary {
                fraction_within_20ms: hist.fraction_within_ms(20.0),
                tail_slope: hist.tail_power_law_slope(20.0, 5_000.0),
                samples: hist.total(),
                rows: hist.rows().filter(|&(_, _, pct)| pct > 0.0).collect(),
            }),
            serve: None,
            cell_series: None,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
        };
    }

    // Link traces derive from the master seed and link spec only: every
    // cell on this link sees the same conditions (the controlled
    // variable). Measured links resolve from the process-global registry.
    let synth = |link: LinkSpec| memo.get_or_build(link, scenario.duration);
    let data_trace = synth(scenario.link);
    let feedback_trace = synth(paired(scenario.link));
    let sprout = match scenario.confidence_pct {
        Some(pct) => SproutConfig::with_confidence_percent(pct),
        None => SproutConfig::paper(),
    };
    let rc = RunConfig {
        duration: scenario.duration,
        warmup: scenario.warmup,
        prop_delay: scenario.prop_delay,
        loss_rate: scenario.loss_rate,
        sprout,
        loss_seed_data: derive_labeled_seed(cell_seed, "loss-data", 0),
        loss_seed_feedback: derive_labeled_seed(cell_seed, "loss-feedback", 0),
        impairment: scenario.impairment,
        impair_seed_data: derive_labeled_seed(cell_seed, "impair-data", 0),
        impair_seed_feedback: derive_labeled_seed(cell_seed, "impair-feedback", 0),
        outage_seed: derive_labeled_seed(cell_seed, "impair-outage", 0),
        serve_seed: cell_seed,
        ..RunConfig::new(data_trace, feedback_trace)
    };

    let outcome = run_cell_scratch(
        &scenario.workload,
        &rc,
        queue,
        scenario.series_bin,
        scenario.cell_series_bin,
        scratch,
    );
    SweepResult {
        scenario: scenario.clone(),
        matrix: matrix.to_string(),
        queue,
        cell_seed,
        metrics: outcome.metrics,
        flows: outcome.flows,
        fairness: outcome.fairness,
        series: outcome.series,
        interarrival: None,
        serve: outcome.serve,
        cell_series: outcome.cell_series,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    }
}

/// The raw outcome of [`run_cell`].
#[derive(Clone, Debug, Default)]
pub struct CellOutcome {
    /// Standard direction metrics.
    pub metrics: Option<SchemeResult>,
    /// Per-flow metrics (mux/tunnel/contention cells).
    pub flows: Vec<FlowSummary>,
    /// Jain's fairness index over the flow throughputs (contention
    /// cells).
    pub fairness: Option<f64>,
    /// Collected series (when requested).
    pub series: Vec<SeriesRow>,
    /// Multi-session capacity summary (serve cells).
    pub serve: Option<ServeStats>,
    /// Per-cell time series (when requested; scheme workloads only).
    pub cell_series: Option<CellSeries>,
}

fn path_configs(rc: &RunConfig, queue: ResolvedQueue) -> (PathConfig, PathConfig) {
    let mut data = PathConfig::standard(rc.data_trace.clone()).with_prop_delay(rc.prop_delay);
    let mut feedback =
        PathConfig::standard(rc.feedback_trace.clone()).with_prop_delay(rc.prop_delay);
    // Both directions run the resolved discipline: the paper's carriers
    // keep one (deep) per-user queue in each direction, and the queue
    // axis models that per-user buffer depth symmetrically.
    let queue_config = || match queue {
        ResolvedQueue::DropTail => QueueConfig::DropTailBytes(DEEP_QUEUE_BYTES),
        ResolvedQueue::DropTailBytes(cap) => QueueConfig::DropTailBytes(cap),
        ResolvedQueue::CoDel => QueueConfig::CoDel(CoDelConfig::default()),
    };
    data.link.queue = queue_config();
    feedback.link.queue = queue_config();
    if rc.loss_rate > 0.0 {
        data.link.loss_rate = rc.loss_rate;
        data.link.loss_seed = rc.loss_seed_data;
        feedback.link.loss_rate = rc.loss_rate;
        feedback.link.loss_seed = rc.loss_seed_feedback;
    }
    if !rc.impairment.is_none() {
        // One outage schedule per cell, shared by both directions: the
        // radio link goes dark as one. Burst loss, jitter and reordering
        // are per-direction processes with their own seeds.
        let outages = rc
            .impairment
            .outage
            .map(|spec| OutageSchedule::generate(&spec, rc.outage_seed, rc.duration))
            .unwrap_or_default();
        data.link.impair =
            LinkImpairment::from_spec(&rc.impairment, rc.impair_seed_data, outages.clone());
        feedback.link.impair =
            LinkImpairment::from_spec(&rc.impairment, rc.impair_seed_feedback, outages);
    }
    (data, feedback)
}

fn mux_clients_a() -> Vec<(FlowId, Box<dyn Endpoint>)> {
    vec![
        (
            BULK_FLOW,
            Box::new(TcpSender::new(Box::new(Cubic::new()))) as Box<dyn Endpoint>,
        ),
        (
            INTERACTIVE_FLOW,
            Box::new(VideoAppSender::new(AppProfile::skype())) as Box<dyn Endpoint>,
        ),
    ]
}

fn mux_clients_b() -> Vec<(FlowId, Box<dyn Endpoint>)> {
    vec![
        (BULK_FLOW, Box::new(TcpReceiver::new()) as Box<dyn Endpoint>),
        (
            INTERACTIVE_FLOW,
            Box::new(VideoAppReceiver::new()) as Box<dyn Endpoint>,
        ),
    ]
}

fn flow_summaries(
    flows: &[FlowId],
    m: &MetricsCollector,
    from: Timestamp,
    to: Timestamp,
) -> Vec<FlowSummary> {
    flows
        .iter()
        .copied()
        .map(|flow| FlowSummary {
            flow: flow.0,
            throughput_kbps: m.flow_throughput_kbps(flow, from, to),
            p95_delay_ms: m
                .flow_p95_delay(flow, from, to)
                .map(|d| d.as_micros() as f64 / 1e3)
                .unwrap_or(f64::NAN),
        })
        .collect()
}

fn collect_series(
    m: &MetricsCollector,
    trace: &Trace,
    bin: Duration,
    from: Timestamp,
    to: Timestamp,
) -> Vec<SeriesRow> {
    let tput = m.throughput_series_kbps(bin, from, to);
    let mut capacity = trace.window(from, to).capacity_series_kbps(bin);
    // The throughput series covers every bin of [from, to); the capacity
    // series ends at the window's last delivery opportunity and so can
    // fall short. Reconcile to the full measurement window — trailing
    // opportunity-free bins carry zero capacity — so no bin (and no
    // worst-delay sample landing in one) is silently dropped.
    let n = tput.len();
    debug_assert!(
        capacity.len() <= n,
        "capacity series ({} bins) outran the measurement window ({} bins)",
        capacity.len(),
        n
    );
    capacity.truncate(n);
    capacity.resize(n, 0.0);
    // Worst per-arrival delay per bin.
    let mut worst: Vec<f64> = vec![0.0; n];
    for (at, d) in m.delay_series() {
        if at < from || at >= to {
            continue;
        }
        let key = ((at.as_micros() - from.as_micros()) / bin.as_micros()) as usize;
        if key < worst.len() {
            worst[key] = worst[key].max(d.as_micros() as f64 / 1e3);
        }
    }
    let bin_s = bin.as_secs_f64();
    (0..n)
        .map(|i| SeriesRow {
            t_s: i as f64 * bin_s,
            capacity_kbps: capacity[i],
            throughput_kbps: tput[i].1,
            worst_delay_ms: worst[i],
        })
        .collect()
}

/// Collect the per-cell time series: every per-arrival delay sample in
/// the measurement window plus per-bin capacity/throughput/queue-depth
/// rows. Queue depth is reconstructed from the delivery log alone —
/// each delivered packet was in flight from `delivered_at − delay` to
/// `delivered_at` — so cache hits can replay the artifact without the
/// trace or the simulation.
fn collect_cell_series(
    m: &MetricsCollector,
    trace: &Trace,
    bin: Duration,
    from: Timestamp,
    to: Timestamp,
) -> CellSeries {
    let tput = m.throughput_series_kbps(bin, from, to);
    let n = tput.len();
    let mut capacity = trace.window(from, to).capacity_series_kbps(bin);
    capacity.truncate(n);
    capacity.resize(n, 0.0);

    let mut delays: Vec<(f64, f64)> = Vec::new();
    // Flight events in absolute microseconds: +1 when a packet enters
    // the link, −1 when it is delivered.
    let mut events: Vec<(u64, i64)> = Vec::new();
    for (at, d) in m.delay_series() {
        if at < from || at >= to {
            continue;
        }
        let rel_us = at.as_micros() - from.as_micros();
        delays.push((rel_us as f64 / 1e6, d.as_micros() as f64 / 1e3));
        events.push((at.as_micros().saturating_sub(d.as_micros()), 1));
        events.push((at.as_micros(), -1));
    }
    events.sort_unstable();

    let bin_s = bin.as_secs_f64();
    let mut depth: i64 = 0;
    let mut next_event = 0;
    let bins = (0..n)
        .map(|i| {
            // Sample in-flight depth at the bin start: a packet counts
            // while `sent <= t < delivered`.
            let t = from.as_micros() + i as u64 * bin.as_micros();
            while next_event < events.len() && events[next_event].0 <= t {
                depth += events[next_event].1;
                next_event += 1;
            }
            CellSeriesBin {
                t_s: i as f64 * bin_s,
                capacity_kbps: capacity[i],
                throughput_kbps: tput[i].1,
                queue_depth: depth.max(0) as u64,
            }
        })
        .collect();
    CellSeries {
        bin_us: bin.as_micros(),
        delays,
        bins,
    }
}

/// One side of a single-session SproutTunnel (§4.3) carried by `over`
/// (Sprout or Sprout-EWMA), before any client is attached.
fn tunnel_host(over: Scheme, rc: &RunConfig) -> TunnelHost {
    let sprout = if over == Scheme::SproutEwma {
        SproutEndpoint::new_ewma(rc.sprout.clone())
    } else {
        SproutEndpoint::new(rc.sprout.clone())
    };
    TunnelHost::new(TunnelEndpoint::new(sprout))
}

/// Build the (sender-side, receiver-side) endpoints of one contention
/// flow. Scheme flows reuse the standard scheme zoo pair; app flows ride
/// their own single-client SproutTunnel session (§4.3), so the shared
/// queue carries that flow's Sprout wire packets.
fn contention_children(spec: &FlowSpec, rc: &RunConfig) -> (Box<dyn Endpoint>, Box<dyn Endpoint>) {
    match spec {
        FlowSpec::Scheme(s) => build_endpoints(*s, rc),
        FlowSpec::App { app, over } => {
            let mut host_a = tunnel_host(*over, rc);
            host_a.add_client(
                INTERACTIVE_FLOW,
                Box::new(VideoAppSender::new(app.profile())),
            );
            let mut host_b = tunnel_host(*over, rc);
            host_b.add_client(INTERACTIVE_FLOW, Box::new(VideoAppReceiver::new()));
            (Box::new(host_a), Box::new(host_b))
        }
    }
}

/// The spine every two-endpoint workload shares: build the simulation
/// from the arena's recycled buffers, run it to `end`, take the data
/// direction's standard metrics, let `reduce` add the workload's extras
/// (series, per-flow rows, fairness), and hand the buffers back.
fn run_pair<A: Endpoint, B: Endpoint>(
    a: A,
    b: B,
    (ab, ba): (PathConfig, PathConfig),
    scratch: &mut CellScratch,
    from: Timestamp,
    end: Timestamp,
    reduce: impl FnOnce(&Simulation<A, B>, &mut CellOutcome),
) -> CellOutcome {
    let mut sim = Simulation::with_scratch(a, b, ab, ba, std::mem::take(&mut scratch.packets));
    sim.run_until(end);
    let stats = direction_stats(sim.ab_path(), from, end);
    let mut outcome = CellOutcome {
        metrics: Some(SchemeResult::from_stats(&stats)),
        ..CellOutcome::default()
    };
    reduce(&sim, &mut outcome);
    scratch.packets = sim.into_scratch();
    outcome
}

/// Run one workload over prepared traces. This is the single execution
/// path shared by the sweep engine and `run_scheme`.
pub fn run_cell(
    workload: &Workload,
    rc: &RunConfig,
    queue: ResolvedQueue,
    series_bin: Option<Duration>,
    cell_series_bin: Option<Duration>,
) -> CellOutcome {
    run_cell_scratch(
        workload,
        rc,
        queue,
        series_bin,
        cell_series_bin,
        &mut CellScratch::default(),
    )
}

/// [`run_cell`] with a caller-provided scratch arena: the simulation's
/// recycled buffers are taken from (and returned to) `scratch`, so a
/// batch of cells run back-to-back reuses one set of allocations.
pub fn run_cell_scratch(
    workload: &Workload,
    rc: &RunConfig,
    queue: ResolvedQueue,
    series_bin: Option<Duration>,
    cell_series_bin: Option<Duration>,
    scratch: &mut CellScratch,
) -> CellOutcome {
    let from = Timestamp::ZERO + rc.warmup;
    let end = Timestamp::ZERO + rc.duration;
    let paths = path_configs(rc, queue);
    const MUX_FLOWS: [FlowId; 2] = [BULK_FLOW, INTERACTIVE_FLOW];

    match workload {
        Workload::InterarrivalProbe => {
            unreachable!("probe cells are handled by execute_scenario")
        }
        Workload::Scheme(scheme) => {
            let (a, b) = build_endpoints(*scheme, rc);
            run_pair(a, b, paths, scratch, from, end, |sim, out| {
                let m = sim.ab_metrics();
                if let Some(bin) = series_bin {
                    out.series = collect_series(m, &rc.data_trace, bin, from, end);
                }
                out.cell_series = cell_series_bin
                    .map(|bin| collect_cell_series(m, &rc.data_trace, bin, from, end));
            })
        }
        Workload::App { app, over } => {
            assert!(
                over.is_transport(),
                "app carrier must be a transport scheme, got {}",
                over.name()
            );
            if over.tunnels_apps() {
                // Over Sprout the app rides inside a SproutTunnel
                // session (§4.3): the path carries Sprout wire packets,
                // the far host decapsulates the app's flow.
                let mut host_a = tunnel_host(*over, rc);
                host_a.add_client(
                    INTERACTIVE_FLOW,
                    Box::new(VideoAppSender::new(app.profile())),
                );
                let mut host_b = tunnel_host(*over, rc);
                host_b.add_client(INTERACTIVE_FLOW, Box::new(VideoAppReceiver::new()));
                run_pair(host_a, host_b, paths, scratch, from, end, |sim, out| {
                    out.flows = flow_summaries(&[INTERACTIVE_FLOW], sim.b.deliveries(), from, end);
                })
            } else {
                // Over any other transport the app's open-loop flow
                // shares the carrier queue with a bulk flow of that
                // scheme (§5.7 "direct", generalized from Cubic+Skype).
                let (bulk_a, bulk_b) = build_endpoints(*over, rc);
                let mut a = MuxEndpoint::new();
                a.add(BULK_FLOW, bulk_a);
                a.add(
                    INTERACTIVE_FLOW,
                    Box::new(VideoAppSender::new(app.profile())),
                );
                let mut b = MuxEndpoint::new();
                b.add(BULK_FLOW, bulk_b);
                b.add(INTERACTIVE_FLOW, Box::new(VideoAppReceiver::new()));
                run_pair(a, b, paths, scratch, from, end, |sim, out| {
                    out.flows = flow_summaries(&MUX_FLOWS, sim.ab_metrics(), from, end);
                })
            }
        }
        Workload::Contention { flows } => {
            // N independent endpoint pairs multiplexed over one shared
            // bottleneck path: the per-user buffer regime where N flows
            // contend for one queue. Flow i runs as FlowId(i + 1); the
            // path's delivery log attributes every packet to its flow,
            // so per-flow metrics come straight from the shared link.
            let mut a = MuxEndpoint::new();
            let mut b = MuxEndpoint::new();
            let mut ids = Vec::with_capacity(flows.len());
            for (i, spec) in flows.iter().enumerate() {
                let flow = FlowId(i as u32 + 1);
                let (child_a, child_b) = contention_children(spec, rc);
                a.add(flow, child_a);
                b.add(flow, child_b);
                ids.push(flow);
            }
            run_pair(a, b, paths, scratch, from, end, |sim, out| {
                out.flows = flow_summaries(&ids, sim.ab_metrics(), from, end);
                let throughputs: Vec<f64> = out.flows.iter().map(|f| f.throughput_kbps).collect();
                out.fairness = jain_fairness_index(&throughputs);
            })
        }
        Workload::Serve { sessions } => {
            // N independent Sprout sessions, each with its own path pair
            // over the *same* link conditions (the controlled variable),
            // served by one shared-event-loop SproutServer. Clients are
            // the saturating data senders (EWMA forecaster — no table
            // fetch), server halves are the Bayesian receivers, so the
            // pool performs exactly N table lookups: 1 build + N−1
            // reuses per link group. Session i runs as FlowId(i + 1),
            // with per-session loss/impairment streams derived from
            // session_seed(cell_seed, i + 1).
            let n = *sessions;
            let mut server = SproutServer::new(rc.sprout.clone(), rc.serve_seed);
            for i in 0..n {
                server.add_session(i + 1);
            }
            let mut sim = ServeSim::with_scratch(server, std::mem::take(&mut scratch.packets));
            for i in 0..n {
                let sid = i + 1;
                let s_seed = session_seed(rc.serve_seed, sid);
                let mut src = rc.clone();
                src.loss_seed_data = derive_labeled_seed(s_seed, "loss-data", 0);
                src.loss_seed_feedback = derive_labeled_seed(s_seed, "loss-feedback", 0);
                src.impair_seed_data = derive_labeled_seed(s_seed, "impair-data", 0);
                src.impair_seed_feedback = derive_labeled_seed(s_seed, "impair-feedback", 0);
                src.outage_seed = derive_labeled_seed(s_seed, "impair-outage", 0);
                let (up, down) = path_configs(&src, queue);
                let mut client = SproutEndpoint::new_ewma(rc.sprout.clone());
                client.set_saturating();
                client.set_flow(FlowId(sid));
                sim.add_session(FlowId(sid), client, up, down);
            }
            sim.run_until(end);

            let mut window_bytes = Vec::with_capacity(n as usize);
            let mut throughputs = Vec::with_capacity(n as usize);
            let mut full_run_sum: u64 = 0;
            for i in 0..n as usize {
                let m = sim.up_path(i).metrics();
                window_bytes.push(m.delivered_bytes(from, end, None));
                throughputs.push(m.throughput_kbps(from, end));
                full_run_sum += m.delivered_bytes(Timestamp::ZERO, Timestamp::FAR_FUTURE, None);
            }
            assert_eq!(
                full_run_sum,
                sim.delivered_to_server_bytes(),
                "conservation: per-session delivered bytes must sum to the \
                 link-level bytes the event loop handed to the server"
            );
            let serve = ServeStats {
                sessions: n,
                delivered_bytes: window_bytes.iter().sum(),
                min_session_bytes: window_bytes.iter().copied().min().unwrap_or(0),
                max_session_bytes: window_bytes.iter().copied().max().unwrap_or(0),
                wire_delivered_bytes: sim.delivered_to_server_bytes(),
            };
            let outcome = CellOutcome {
                fairness: jain_fairness_index(&throughputs),
                serve: Some(serve),
                ..CellOutcome::default()
            };
            scratch.packets = sim.into_scratch();
            outcome
        }
        Workload::MuxDirect => {
            let mut a = MuxEndpoint::new();
            for (flow, ep) in mux_clients_a() {
                a.add(flow, ep);
            }
            let mut b = MuxEndpoint::new();
            for (flow, ep) in mux_clients_b() {
                b.add(flow, ep);
            }
            run_pair(a, b, paths, scratch, from, end, |sim, out| {
                out.flows = flow_summaries(&MUX_FLOWS, sim.ab_metrics(), from, end);
            })
        }
        Workload::MuxTunneled => {
            let mut host_a = tunnel_host(Scheme::Sprout, rc);
            for (flow, ep) in mux_clients_a() {
                host_a.add_client(flow, ep);
            }
            let mut host_b = tunnel_host(Scheme::Sprout, rc);
            for (flow, ep) in mux_clients_b() {
                host_b.add_client(flow, ep);
            }
            // Flow metrics come from the far host's post-decapsulation
            // delivery log: the tunnel's own wire packets are what the
            // path sees, the clients' packets are what it delivers.
            run_pair(host_a, host_b, paths, scratch, from, end, |sim, out| {
                out.flows = flow_summaries(&MUX_FLOWS, sim.b.deliveries(), from, end);
            })
        }
    }
}

// ------------------------------------------------------------------ JSON

pub(crate) fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display is deterministic, giving
        // bit-identical files for identical results.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

pub(crate) fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render one result as a single-line JSON object with a stable key order.
pub fn result_to_json(r: &SweepResult) -> String {
    let mut o = String::with_capacity(256);
    o.push_str("{\"id\":");
    o.push_str(&r.scenario.id.to_string());
    o.push_str(",\"label\":");
    json_str(&mut o, &r.scenario.label);
    o.push_str(",\"matrix\":");
    json_str(&mut o, &r.matrix);
    o.push_str(",\"workload\":");
    json_str(&mut o, r.scenario.workload.id());
    o.push_str(",\"scheme\":");
    match r.scenario.workload.scheme() {
        Some(s) => json_str(&mut o, s.name()),
        None => o.push_str("null"),
    }
    o.push_str(",\"app\":");
    match r.scenario.workload.app() {
        Some((app, _)) => json_str(&mut o, app.id()),
        None => o.push_str("null"),
    }
    o.push_str(",\"over\":");
    match r.scenario.workload.app() {
        Some((_, over)) => json_str(&mut o, over.name()),
        None => o.push_str("null"),
    }
    o.push_str(",\"link\":");
    json_str(&mut o, &r.scenario.link.id());
    o.push_str(",\"queue\":");
    json_str(&mut o, &r.queue.id());
    o.push_str(",\"prop_delay_ms\":");
    json_f64(&mut o, r.scenario.prop_delay.as_micros() as f64 / 1e3);
    o.push_str(",\"loss_rate\":");
    json_f64(&mut o, r.scenario.loss_rate);
    o.push_str(",\"impairment\":");
    json_str(&mut o, &r.scenario.impairment.id());
    o.push_str(",\"confidence_pct\":");
    match r.scenario.confidence_pct {
        Some(p) => json_f64(&mut o, p),
        None => o.push_str("null"),
    }
    o.push_str(",\"duration_s\":");
    json_f64(&mut o, r.scenario.duration.as_secs_f64());
    o.push_str(",\"warmup_s\":");
    json_f64(&mut o, r.scenario.warmup.as_secs_f64());
    o.push_str(",\"cell_seed\":");
    o.push_str(&r.cell_seed.to_string());
    o.push_str(",\"metrics\":");
    match &r.metrics {
        None => o.push_str("null"),
        Some(m) => {
            o.push_str("{\"throughput_kbps\":");
            json_f64(&mut o, m.throughput_kbps);
            o.push_str(",\"p95_delay_ms\":");
            json_f64(&mut o, m.p95_delay_ms);
            o.push_str(",\"self_inflicted_ms\":");
            json_f64(&mut o, m.self_inflicted_ms);
            o.push_str(",\"omniscient_ms\":");
            json_f64(&mut o, m.omniscient_ms);
            o.push_str(",\"utilization\":");
            json_f64(&mut o, m.utilization);
            o.push_str(",\"outages\":");
            o.push_str(&m.outages.to_string());
            o.push_str(",\"recovery_ms\":");
            json_f64(&mut o, m.recovery_ms);
            o.push_str(",\"degraded_delivery\":");
            json_f64(&mut o, m.degraded_delivery);
            o.push('}');
        }
    }
    o.push_str(",\"fairness\":");
    match r.fairness {
        Some(j) => json_f64(&mut o, j),
        None => o.push_str("null"),
    }
    o.push_str(",\"flows\":[");
    for (i, f) in r.flows.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str("{\"flow\":");
        o.push_str(&f.flow.to_string());
        o.push_str(",\"throughput_kbps\":");
        json_f64(&mut o, f.throughput_kbps);
        o.push_str(",\"p95_delay_ms\":");
        json_f64(&mut o, f.p95_delay_ms);
        o.push('}');
    }
    o.push_str("],\"series\":[");
    for (i, s) in r.series.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push('[');
        json_f64(&mut o, s.t_s);
        o.push(',');
        json_f64(&mut o, s.capacity_kbps);
        o.push(',');
        json_f64(&mut o, s.throughput_kbps);
        o.push(',');
        json_f64(&mut o, s.worst_delay_ms);
        o.push(']');
    }
    o.push(']');
    o.push_str(",\"serve\":");
    match &r.serve {
        None => o.push_str("null"),
        Some(s) => {
            o.push_str("{\"sessions\":");
            o.push_str(&s.sessions.to_string());
            o.push_str(",\"delivered_bytes\":");
            o.push_str(&s.delivered_bytes.to_string());
            o.push_str(",\"min_session_bytes\":");
            o.push_str(&s.min_session_bytes.to_string());
            o.push_str(",\"max_session_bytes\":");
            o.push_str(&s.max_session_bytes.to_string());
            o.push_str(",\"wire_delivered_bytes\":");
            o.push_str(&s.wire_delivered_bytes.to_string());
            o.push('}');
        }
    }
    o.push_str(",\"interarrival\":");
    match &r.interarrival {
        None => o.push_str("null"),
        Some(ia) => {
            o.push_str("{\"fraction_within_20ms\":");
            json_f64(&mut o, ia.fraction_within_20ms);
            o.push_str(",\"tail_slope\":");
            match ia.tail_slope {
                Some(s) => json_f64(&mut o, s),
                None => o.push_str("null"),
            }
            o.push_str(",\"samples\":");
            o.push_str(&ia.samples.to_string());
            o.push_str(",\"histogram\":[");
            for (i, &(lo, hi, pct)) in ia.rows.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                o.push('[');
                json_f64(&mut o, lo);
                o.push(',');
                json_f64(&mut o, hi);
                o.push(',');
                json_f64(&mut o, pct);
                o.push(']');
            }
            o.push_str("]}");
        }
    }
    o.push('}');
    o
}

/// Render a whole sweep as a canonical JSON document: header line, then
/// one line per cell (diffable; bit-identical for identical results).
pub fn sweep_to_json(matrix_name: &str, master_seed: u64, results: &[SweepResult]) -> String {
    let mut o = String::new();
    o.push_str("{\"matrix\":");
    json_str(&mut o, matrix_name);
    o.push_str(",\"master_seed\":");
    o.push_str(&master_seed.to_string());
    o.push_str(",\"cells\":[\n");
    for (i, r) in results.iter().enumerate() {
        o.push_str(&result_to_json(r));
        if i + 1 < results.len() {
            o.push(',');
        }
        o.push('\n');
    }
    o.push_str("]}\n");
    o
}

/// Write a sweep's canonical JSON to `writer`.
pub fn write_json(
    writer: &mut impl std::io::Write,
    matrix_name: &str,
    master_seed: u64,
    results: &[SweepResult],
) -> std::io::Result<()> {
    writer.write_all(sweep_to_json(matrix_name, master_seed, results).as_bytes())
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
        fn assert_send<T: Send>() {}
        assert_send::<Simulation<Box<dyn Endpoint>, Box<dyn Endpoint>>>();
        assert_send::<Scenario>();
    }

    #[test]
    fn json_escapes_and_nan() {
        let mut s = String::new();
        json_str(&mut s, "a\"b\\c\n");
        assert_eq!(s, "\"a\\\"b\\\\c\\u000a\"");
        let mut f = String::new();
        json_f64(&mut f, f64::NAN);
        assert_eq!(f, "null");
    }
}
