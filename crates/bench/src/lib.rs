//! The reproduction harness: a scheme zoo, the scenario-matrix sweep
//! engine, and the experiment table that regenerates every table and
//! figure in the paper's evaluation (see ARCHITECTURE.md for the layering
//! and the scenario → sweep (engine) → executor → record → cellcache →
//! figures pipeline).
//!
//! Architecture: each row of [`EXPERIMENTS`] **declares** its
//! cross-product as a [`ScenarioMatrix`] (schemes × links × loss rates ×
//! confidences), the [`SweepEngine`] executes the cells in parallel with
//! deterministic per-cell seeding, and the row's report only **renders**
//! the resulting [`SweepResult`] rows into TSV artifacts beside the
//! engine's canonical JSON.

#![warn(missing_docs)]

pub mod cellcache;
pub mod cli;
pub mod executor;
pub mod figures;
pub mod record;
pub mod scenario;
pub mod schemes;
pub mod sweep;

pub use cellcache::{cell_cache_counters, ENGINE_VERSION};
pub use figures::{
    default_contention_workloads, default_corpus_fingerprints, select, soak, soak_matrix,
    write_cell_series, ContentionAxes, Experiment, ExperimentConfig, ImpairAxes, ReplayAxes,
    ServeAxes, SoakAxes, CELL_SERIES_BIN, DEFAULT_CONTENTION_FLOWS, EXPERIMENTS, REPLAY_SECS,
    SERVE_SECS, SERVE_SESSIONS, SHALLOW_QUEUE_BYTES, SOAK_SECS,
};
pub use scenario::{
    FlowSpec, LinkSpec, MatrixBuilder, QueueSpec, ResolvedQueue, Scenario, ScenarioMatrix,
    Workload, MAX_CONTENTION_FLOWS, MAX_SERVE_SESSIONS, PROP_DELAY_MS,
};
pub use schemes::{build_endpoints, sprout_data_sender, RunConfig, Scheme, SchemeResult};
pub use sprout_baselines::VideoApp;
pub use sweep::{
    abandoned_cell_threads, execute_with_memo, last_batch_layout, sweep_to_json,
    trace_memory_counters, CellCachePolicy, CellFailure, CellScratch, CellSeries, CellSeriesBin,
    FlowSummary, InterarrivalSummary, LinkInputs, Measured, SeriesRow, ServeStats, ShardSpec,
    SweepEngine, SweepError, SweepResult, TraceMemo, DEFAULT_CELL_TIMEOUT,
};
