//! Every experiment of the paper's evaluation (§5) and of this repo's
//! added sweeps, declared once.
//!
//! An experiment is one row of [`EXPERIMENTS`]: its name, a line of
//! help, the [`ScenarioMatrix`] it **declares**, the axis flags it
//! accepts, its own default run length if it has one, whether `all`
//! includes it, and the [`Report`] that **renders** the finished
//! [`SweepResult`] rows — TSVs into the output directory, a summary to
//! the caller's writer. Everything that needs to know what an experiment
//! is ([`select`], [`Experiment::run`], `crate::cli`'s validation and
//! help, the `reproduce` binary, the control daemon) looks the row up; no
//! experiment runs its own scheme×link loops, and all of them go through
//! the shared [`SweepEngine`] (parallel, deterministically seeded), which
//! also records the canonical `<matrix>_sweep.json`.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;

use sprout_baselines::VideoApp;
use sprout_trace::{Duration, Impairment, NetProfile, IMPAIRMENT_PRESETS};

use crate::scenario::{FlowSpec, LinkSpec, QueueSpec, ScenarioMatrix, Workload};
use crate::schemes::{Scheme, SchemeResult};
use crate::sweep::{
    self, CellCachePolicy, FlowSummary, SeriesRow, ShardSpec, SweepEngine, SweepResult,
};

pub use crate::scenario::{paired, paired_profile};

/// The shallow per-user buffer of the soak matrix's queue axis: 50 MTU
/// (≈ one RTT of a few Mbit/s), the thin-buffered carrier end of the
/// bufferbloat spectrum the per-user buffer-depth literature (C2TCP)
/// sweeps.
pub const SHALLOW_QUEUE_BYTES: u64 = 75_000;

/// The axes of the long-horizon soak matrix that are overridable from
/// the CLI (`--links`, `--prop-delays`, `--queues`).
#[derive(Clone, Debug)]
pub struct SoakAxes {
    /// Link directions under test.
    pub links: Vec<NetProfile>,
    /// One-way propagation delays, ms (min-RTT is 2× each).
    pub prop_delays_ms: Vec<u64>,
    /// Queue disciplines.
    pub queues: Vec<QueueSpec>,
    /// Soak run length override, seconds. Defaults to the paper-length
    /// [`SOAK_SECS`] so *every* soak entry point — CLI, library, shard
    /// workers — declares the identical matrix
    /// (and therefore the identical cache keys); `None` inherits the
    /// global `ExperimentConfig` timing (`--secs`/`--quick` set this).
    pub secs: Option<u64>,
}

impl Default for SoakAxes {
    fn default() -> Self {
        SoakAxes {
            links: NetProfile::all().to_vec(),
            prop_delays_ms: vec![10, 25, 50, 100],
            queues: vec![
                QueueSpec::Auto,
                QueueSpec::DropTailBytes(SHALLOW_QUEUE_BYTES),
                QueueSpec::CoDel,
            ],
            secs: Some(SOAK_SECS),
        }
    }
}

/// The axes of the `impair` experiment that are overridable from the
/// CLI (`--impairments`, `--links`).
#[derive(Clone, Debug)]
pub struct ImpairAxes {
    /// Fault-injection presets under test, as `(preset name, spec)`
    /// pairs in declaration order (`--impairments none,burst,...`).
    pub impairments: Vec<(String, Impairment)>,
    /// Link directions under test (`--links`).
    pub links: Vec<NetProfile>,
}

impl Default for ImpairAxes {
    fn default() -> Self {
        ImpairAxes {
            impairments: IMPAIRMENT_PRESETS
                .iter()
                .map(|&name| {
                    (
                        name.to_string(),
                        Impairment::preset(name).expect("built-in preset"),
                    )
                })
                .collect(),
            // The paper's headline downlink: the fault axes are the
            // experiment's variable, one well-understood link is the
            // control.
            links: vec![NetProfile::VerizonLteDown],
        }
    }
}

/// The default run length of a `serve` cell, virtual seconds. Much
/// shorter than the 300 s figures: a serve cell simulates `2 N` paths
/// and `N + 1` endpoints, so at N = 1024 one minute of virtual time is
/// already ~2000 path-minutes of work; capacity and fairness converge
/// well before that on the slow 3G uplink the matrix defaults to.
pub const SERVE_SECS: u64 = 60;

/// The default session counts of the `serve` capacity sweep.
pub const SERVE_SESSIONS: [u32; 4] = [1, 16, 128, 1024];

/// The axes of the `serve` experiment that are overridable from the
/// CLI (`--sessions`, `--links`).
#[derive(Clone, Debug)]
pub struct ServeAxes {
    /// Session counts under test (`--sessions 1,16,128,1024`).
    pub sessions: Vec<u32>,
    /// Link directions under test (`--links`).
    pub links: Vec<NetProfile>,
    /// Serve run length override, seconds. Defaults to the short
    /// [`SERVE_SECS`] so every serve entry point declares the identical
    /// matrix (and cache keys); `None` inherits the global
    /// `ExperimentConfig` timing (`--secs`/`--quick` set this).
    pub secs: Option<u64>,
}

impl Default for ServeAxes {
    fn default() -> Self {
        ServeAxes {
            sessions: SERVE_SESSIONS.to_vec(),
            // A slow 3G uplink: per-session packet rates stay low, so
            // the N = 1024 cell measures session-pool overhead rather
            // than raw packet-forwarding throughput.
            links: vec![NetProfile::TmobileUmtsUp],
            secs: Some(SERVE_SECS),
        }
    }
}

/// The default run length of a `replay` cell, virtual seconds. The
/// committed corpus excerpts are ~40 s of capture; 30 s keeps every
/// measured cell inside the shortest excerpt so no scheme ever runs past
/// the last recorded delivery opportunity. A `--secs` or `--quick` that
/// would is refused ([`crate::cli::apply_worker_args`]).
pub const REPLAY_SECS: u64 = 30;

/// The bin width of the per-cell time-series artifacts (`--timeseries`):
/// 500 ms, matching the Figure-1 series the paper plots.
pub const CELL_SERIES_BIN: Duration = Duration::from_millis(500);

/// The committed Saturator captures the `replay` experiment runs when no
/// `--trace` flags are given, embedded so the default corpus is
/// available offline in every process (shard workers, the control
/// daemon) without a path dependency.
const DEFAULT_CORPUS: [&str; 2] = [
    include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../trace/tests/data/downlink-excerpt.trace"
    )),
    include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../trace/tests/data/uplink-excerpt.trace"
    )),
];

/// Register the embedded default corpus and return its fingerprints, in
/// declaration order (downlink, uplink). Registration is idempotent, so
/// calling this from every `ReplayAxes::default()` is free after the
/// first.
pub fn default_corpus_fingerprints() -> Vec<u64> {
    DEFAULT_CORPUS
        .iter()
        .map(|text| {
            sprout_trace::register_trace_bytes(text.as_bytes())
                .expect("the committed corpus parses (pinned by sprout-trace's tests)")
        })
        .collect()
}

/// The axes of the `replay` experiment that are overridable from the
/// CLI (`--trace`, `--schemes`).
#[derive(Clone, Debug)]
pub struct ReplayAxes {
    /// Content fingerprints of the measured captures under replay, in
    /// declaration order (`--trace FILE` per capture; defaults to the
    /// embedded corpus). Every fingerprint must be registered in this
    /// process — `--trace` registers as it parses.
    pub traces: Vec<u64>,
    /// Schemes run over each capture (`--schemes sprout,cubic,...`;
    /// defaults to the nine Figure-7 schemes).
    pub schemes: Vec<Scheme>,
    /// Replay run length override, seconds. Defaults to the short
    /// [`REPLAY_SECS`] so every replay entry point declares the
    /// identical matrix (and cache keys); `None` inherits the global
    /// `ExperimentConfig` timing (`--secs`/`--quick` set this).
    pub secs: Option<u64>,
}

impl Default for ReplayAxes {
    fn default() -> Self {
        ReplayAxes {
            traces: default_corpus_fingerprints(),
            schemes: Scheme::fig7().to_vec(),
            secs: Some(REPLAY_SECS),
        }
    }
}

/// The default number of contending flows per contention cell.
pub const DEFAULT_CONTENTION_FLOWS: usize = 3;

/// The axes of the `contention` experiment that are overridable from the
/// CLI (`--flows`, `--contend`, `--links`).
#[derive(Clone, Debug)]
pub struct ContentionAxes {
    /// Flows per cell for the default workload set (`--flows N`).
    pub flows: usize,
    /// Explicit flow list replacing the default workload set
    /// (`--contend sprout,cubic,cubic`); the matrix then holds this one
    /// contention workload per link.
    pub contenders: Option<Vec<FlowSpec>>,
    /// Link directions under test (`--links`).
    pub links: Vec<NetProfile>,
}

impl Default for ContentionAxes {
    fn default() -> Self {
        ContentionAxes {
            flows: DEFAULT_CONTENTION_FLOWS,
            contenders: None,
            // The paper's headline downlink plus a lean 3G uplink: one
            // deep fast buffer, one slow one — the two ends of the
            // shared-queue contention regime.
            links: vec![NetProfile::VerizonLteDown, NetProfile::TmobileUmtsUp],
        }
    }
}

/// Global experiment knobs (trace length, warm-up, seed, output dir).
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Virtual seconds per run (the paper's traces are ~17 min; 300 s
    /// keeps the full sweep tractable while well past convergence).
    pub run_secs: u64,
    /// Warm-up skipped before measurement (§5.1: one minute).
    pub warmup_secs: u64,
    /// Master seed: every stochastic input of every sweep derives from it.
    pub seed: u64,
    /// Worker threads for the sweep engine (0 = one per core).
    pub threads: usize,
    /// The slice of each matrix this process runs (`--shard I/N`).
    pub shard: ShardSpec,
    /// Cell-result cache policy (`--resume` / `--merge`).
    pub cell_policy: CellCachePolicy,
    /// Per-cell watchdog budget in seconds (`--cell-timeout SECS`).
    pub cell_timeout_secs: u64,
    /// Output directory for TSV/JSON artifacts.
    pub out_dir: PathBuf,
    /// Axes of the `soak` experiment (CLI-overridable).
    pub soak: SoakAxes,
    /// Axes of the `contention` experiment (CLI-overridable).
    pub contention: ContentionAxes,
    /// Axes of the `impair` experiment (CLI-overridable).
    pub impair: ImpairAxes,
    /// Axes of the `serve` experiment (CLI-overridable).
    pub serve: ServeAxes,
    /// Axes of the `replay` experiment (CLI-overridable).
    pub replay: ReplayAxes,
    /// Emit per-cell time-series artifacts (`--timeseries`): delay
    /// vs. time plus binned capacity/throughput/queue-depth TSVs next
    /// to the sweep JSON, for the `replay`, `impair`, and `soak`
    /// matrices. Changes cell identity (the series rides the cell's
    /// cache entry), so it is part of the matrix declaration, not a
    /// render-time toggle.
    pub timeseries: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            run_secs: 300,
            warmup_secs: 60,
            seed: 20130401, // NSDI 2013
            threads: 0,
            shard: ShardSpec::FULL,
            cell_policy: CellCachePolicy::Execute,
            cell_timeout_secs: crate::sweep::DEFAULT_CELL_TIMEOUT.as_secs(),
            out_dir: PathBuf::from("results"),
            soak: SoakAxes::default(),
            contention: ContentionAxes::default(),
            impair: ImpairAxes::default(),
            serve: ServeAxes::default(),
            replay: ReplayAxes::default(),
            timeseries: false,
        }
    }
}

impl ExperimentConfig {
    fn duration(&self) -> Duration {
        Duration::from_secs(self.run_secs)
    }

    fn warmup(&self) -> Duration {
        Duration::from_secs(self.warmup_secs)
    }

    /// The sweep engine configured by these knobs.
    pub fn engine(&self) -> SweepEngine {
        SweepEngine::new(self.seed)
            .with_threads(self.threads)
            .with_shard(self.shard)
            .with_policy(self.cell_policy)
            .with_cell_timeout(std::time::Duration::from_secs(self.cell_timeout_secs))
    }

    /// Start declaring a matrix with this config's timing.
    pub fn matrix(&self, name: &str) -> crate::scenario::MatrixBuilder {
        ScenarioMatrix::builder(name).timing(self.duration(), self.warmup())
    }

    /// Apply the `--timeseries` request to a matrix under declaration:
    /// a no-op unless enabled, so the default matrices (and their cache
    /// keys) are untouched.
    fn with_timeseries(&self, b: crate::scenario::MatrixBuilder) -> crate::scenario::MatrixBuilder {
        if self.timeseries {
            b.cell_series(CELL_SERIES_BIN)
        } else {
            b
        }
    }

    /// A buffered writer on `<out_dir>/<name>`. Renderers end with
    /// `flush()?` so a failed write is reported, not lost in the drop.
    fn tsv(&self, name: &str) -> std::io::Result<BufWriter<fs::File>> {
        fs::create_dir_all(&self.out_dir)?;
        Ok(BufWriter::new(fs::File::create(self.out_dir.join(name))?))
    }

    /// Run `matrix` on the shared engine and record its canonical JSON
    /// artifact (`<matrix>_sweep.json`). Refuses to run with a partial
    /// shard — a shard's results would masquerade as the whole sweep;
    /// shard runs go through [`SweepEngine::try_run`] directly and rely
    /// on the cell cache (then a merge) for assembly.
    pub fn run_matrix(&self, matrix: &ScenarioMatrix) -> std::io::Result<Vec<SweepResult>> {
        if !self.shard.is_full() {
            return Err(std::io::Error::other(
                "partial shard runs cannot write canonical sweep artifacts",
            ));
        }
        let results = self
            .engine()
            .try_run(matrix)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        fs::create_dir_all(&self.out_dir)?;
        fs::write(
            self.sweep_json_path(matrix.name()),
            sweep::sweep_to_json(matrix.name(), self.seed, &results),
        )?;
        Ok(results)
    }

    /// Path of the JSON artifact for matrix `name`.
    pub fn sweep_json_path(&self, name: &str) -> PathBuf {
        self.out_dir.join(format!("{name}_sweep.json"))
    }
}

// ------------------------------------------------------------ the table

/// A finished sweep, as a [`Report`] sees it.
pub struct Sweep<'a> {
    /// The configuration the matrix was declared under; TSVs go to its
    /// `out_dir`.
    pub cfg: &'a ExperimentConfig,
    /// One result per cell, in matrix order.
    pub results: &'a [SweepResult],
    /// Wall time the engine spent on the matrix.
    pub elapsed: std::time::Duration,
}

/// Renders one experiment from its finished sweep: writes the TSVs into
/// `cfg.out_dir` and the console summary to the given writer (never to
/// process stdout, so a library caller decides where the text goes).
pub type Report = fn(&Sweep<'_>, &mut dyn Write) -> io::Result<()>;

/// One experiment. The rows of [`EXPERIMENTS`] are the only place an
/// experiment is declared; `reproduce`, `all`, shard/merge, the control
/// daemon's validation, the flag-ownership errors and the help text are
/// lookups in, or loops over, that table.
pub struct Experiment {
    /// The name `reproduce` and `sprout-control submit` take.
    pub name: &'static str,
    /// One line for `reproduce --help`.
    pub help: &'static str,
    /// The matrix it sweeps. Rows may share one: `fig8` is a second
    /// report over the `fig7` sweep.
    pub matrix: fn(&ExperimentConfig) -> ScenarioMatrix,
    /// The axis flags ([`crate::cli::AXIS_FLAGS`]) it accepts; any other
    /// axis flag is a usage error naming the rows that do accept it.
    pub flags: &'static [&'static str],
    /// Its own default run length, where it has one: `Some(secs)` until
    /// `--secs`/`--quick` hand timing back to the global knob.
    pub own_secs: Option<fn(&ExperimentConfig) -> Option<u64>>,
    /// Its matrix derives the warm-up from the run length (one sixth),
    /// so `--warmup` is not checked against it.
    pub own_warmup: bool,
    /// Whether `reproduce all` includes it. The rows left out are sized
    /// for sharded runs (`soak`), take axis flags that would silently
    /// change what `all` means, or — `fig7` — are rendered in full by a
    /// row that is in (`fig8`), so the shared sweep executes once.
    pub in_all: bool,
    /// Its TSVs and console summary.
    pub report: Report,
}

/// Every experiment, in help-text order.
pub static EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        name: "fig1",
        help: "Skype vs Sprout time series (Verizon LTE downlink)",
        matrix: fig1_matrix,
        flags: &[],
        own_secs: None,
        own_warmup: false,
        in_all: true,
        report: fig1_report,
    },
    Experiment {
        name: "fig2",
        help: "saturated-link interarrival distribution",
        matrix: fig2_matrix,
        flags: &[],
        own_secs: None,
        own_warmup: false,
        in_all: true,
        report: fig2_report,
    },
    Experiment {
        name: "fig7",
        help: "comparative sweep (10 schemes x 8 links) + intro tables 1 and 2",
        matrix: fig7_matrix,
        flags: &[],
        own_secs: None,
        own_warmup: false,
        in_all: false,
        report: fig7_report,
    },
    Experiment {
        name: "fig8",
        help: "fig7, then average utilization vs delay over the same sweep",
        matrix: fig7_matrix,
        flags: &[],
        own_secs: None,
        own_warmup: false,
        in_all: true,
        report: fig8_report,
    },
    Experiment {
        name: "fig9",
        help: "forecast-confidence sweep (T-Mobile 3G uplink)",
        matrix: fig9_matrix,
        flags: &[],
        own_secs: None,
        own_warmup: false,
        in_all: true,
        report: fig9_report,
    },
    Experiment {
        name: "loss",
        help: "s5.6 loss-resilience table",
        matrix: loss_matrix,
        flags: &[],
        own_secs: None,
        own_warmup: false,
        in_all: true,
        report: loss_report,
    },
    Experiment {
        name: "tunnel",
        help: "s5.7 SproutTunnel isolation table",
        matrix: tunnel_matrix,
        flags: &[],
        own_secs: None,
        own_warmup: false,
        in_all: true,
        report: tunnel_report,
    },
    Experiment {
        name: "contention",
        help: "N flows sharing one bottleneck queue: per-flow shares + Jain fairness",
        matrix: contention_matrix,
        flags: &["--links", "--flows", "--contend"],
        own_secs: None,
        own_warmup: false,
        in_all: false,
        report: contention_report,
    },
    Experiment {
        name: "soak",
        help: "schemes + apps x links x queues x delays at paper length; run it sharded",
        matrix: soak_matrix,
        flags: &["--links", "--prop-delays", "--queues", "--timeseries"],
        own_secs: Some(|cfg| cfg.soak.secs),
        own_warmup: false,
        in_all: false,
        report: soak_report,
    },
    Experiment {
        name: "impair",
        help: "schemes x fault-injection presets, with graceful-degradation metrics",
        matrix: impair_matrix,
        flags: &["--links", "--impairments", "--timeseries"],
        own_secs: None,
        own_warmup: false,
        in_all: false,
        report: impair_report,
    },
    Experiment {
        name: "serve",
        help: "one SproutServer driving N sessions: delivered bytes + fairness per N",
        matrix: serve_matrix,
        flags: &["--links", "--sessions"],
        own_secs: Some(|cfg| cfg.serve.secs),
        own_warmup: true,
        in_all: false,
        report: serve_report,
    },
    Experiment {
        name: "replay",
        help: "the scheme roster over measured Saturator captures replayed as the link",
        matrix: replay_matrix,
        flags: &["--trace", "--schemes", "--timeseries"],
        own_secs: Some(|cfg| cfg.replay.secs),
        own_warmup: true,
        in_all: false,
        report: replay_report,
    },
];

/// The name that selects every [`Experiment::in_all`] row.
pub const ALL: &str = "all";

/// The rows `name` selects, in table order: the row of that name, or
/// every `in_all` row for [`ALL`]. `None` when it names nothing.
pub fn select(name: &str) -> Option<Vec<&'static Experiment>> {
    let rows: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|e| {
            if name == ALL {
                e.in_all
            } else {
                e.name == name
            }
        })
        .collect();
    (!rows.is_empty()).then_some(rows)
}

/// Run length and warm-up of the row a matrix fn is declared in, as the
/// builder's `timing` takes them — for the matrices whose row owns its
/// timing, so the matrix is built from the numbers the banner prints.
fn own_timing(name: &str, cfg: &ExperimentConfig) -> (Duration, Duration) {
    let row = EXPERIMENTS.iter().find(|e| e.name == name);
    let row = row.expect("a matrix fn names the row that declares it");
    let (secs, warmup) = (row.secs(cfg), row.warmup(cfg));
    (Duration::from_secs(secs), Duration::from_secs(warmup))
}

impl Experiment {
    /// The run length this experiment uses under `cfg`: its own default
    /// while that stands, the global knob otherwise.
    pub fn secs(&self, cfg: &ExperimentConfig) -> u64 {
        self.own_secs
            .and_then(|own| own(cfg))
            .unwrap_or(cfg.run_secs)
    }

    /// The warm-up this experiment uses under `cfg`: one sixth of its
    /// run length where it derives it (`own_warmup`), the global knob
    /// otherwise. The banner prints it and the deriving matrices are
    /// built from it.
    pub fn warmup(&self, cfg: &ExperimentConfig) -> u64 {
        if self.own_warmup {
            self.secs(cfg) / 6
        } else {
            cfg.warmup_secs
        }
    }

    /// Run `matrix` — this row's, as declared under `cfg` — on the
    /// shared engine, record its `<matrix>_sweep.json`, and report.
    pub fn run(
        &self,
        cfg: &ExperimentConfig,
        matrix: &ScenarioMatrix,
        out: &mut dyn Write,
    ) -> io::Result<()> {
        run_and_report(cfg, matrix, self.report, out)
    }
}

fn run_and_report(
    cfg: &ExperimentConfig,
    matrix: &ScenarioMatrix,
    report: Report,
    out: &mut dyn Write,
) -> io::Result<()> {
    let t0 = std::time::Instant::now();
    let results = cfg.run_matrix(matrix)?;
    let sweep = Sweep {
        cfg,
        results: &results,
        elapsed: t0.elapsed(),
    };
    report(&sweep, out)
}

// -------------------------------------------------------- table writing

/// One column of a TSV table: its header and how a row renders in it. A
/// table is written from one list of these, so header and rows cannot
/// drift apart.
struct Col<'a, R>(&'static str, Box<dyn Fn(&R) -> String + 'a>);

/// A column over sweep cells, the rows of most tables.
fn col<'a>(name: &'static str, cell: impl Fn(&SweepResult) -> String + 'a) -> Col<'a, SweepResult> {
    Col(name, Box::new(cell))
}

/// A column holding one of the cell's direction metrics.
fn metric_col<'a>(
    name: &'static str,
    digits: usize,
    metric: fn(&SchemeResult) -> f64,
) -> Col<'a, SweepResult> {
    col(name, move |r| format!("{:.digits$}", metric(&metrics(r))))
}

/// The four metric columns the per-cell tables share, in their one
/// format.
fn metric_cols<'a>() -> [Col<'a, SweepResult>; 4] {
    [
        metric_col("throughput_kbps", 1, |m| m.throughput_kbps),
        metric_col("p95_delay_ms", 1, |m| m.p95_delay_ms),
        metric_col("self_inflicted_ms", 1, |m| m.self_inflicted_ms),
        metric_col("utilization", 4, |m| m.utilization),
    ]
}

fn label_col<'a>() -> Col<'a, SweepResult> {
    col("label", |r| r.scenario.label.clone())
}

fn link_col<'a>(name: &'static str) -> Col<'a, SweepResult> {
    col(name, |r| r.scenario.link.id())
}

fn scheme_col<'a>() -> Col<'a, SweepResult> {
    col("scheme", |r| scheme(r).name().to_string())
}

fn metrics(r: &SweepResult) -> SchemeResult {
    r.metrics.expect("the cell produces direction metrics")
}

fn scheme(r: &SweepResult) -> Scheme {
    r.scenario.workload.scheme().expect("a scheme matrix")
}

impl ExperimentConfig {
    /// Write `<out_dir>/<file>`: the column names, then one line per row.
    fn write_table<R>(&self, file: &str, rows: &[R], cols: &[Col<'_, R>]) -> io::Result<()> {
        let mut f = self.tsv(file)?;
        let header: Vec<&str> = cols.iter().map(|c| c.0).collect();
        writeln!(f, "{}", header.join("\t"))?;
        for row in rows {
            let cells: Vec<String> = cols.iter().map(|c| (c.1)(row)).collect();
            writeln!(f, "{}", cells.join("\t"))?;
        }
        f.flush()
    }
}

/// Render a `SchemeResult` row for console output.
fn fmt_result(name: &str, r: &SchemeResult) -> String {
    format!(
        "{name:16} {:>8.0} kbps  p95 {:>9.0} ms  self-inflicted {:>9.0} ms  util {:>5.2}",
        r.throughput_kbps, r.p95_delay_ms, r.self_inflicted_ms, r.utilization
    )
}

// ---------------------------------------------------------------- fig 1

/// The Figure 1 matrix: Skype vs Sprout with 500 ms series collection.
fn fig1_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("fig1")
        .schemes([Scheme::Skype, Scheme::Sprout])
        .links([NetProfile::VerizonLteDown])
        .series_bin(Duration::from_millis(500))
        .build()
}

/// Figure 1: Skype vs Sprout time series on the Verizon LTE downlink.
fn fig1_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    // Both cells replay the identical link trace, so either capacity
    // column works.
    let bins: Vec<(&SeriesRow, &SeriesRow)> = s.results[0]
        .series
        .iter()
        .zip(&s.results[1].series)
        .collect();
    let mut f = s.cfg.tsv("fig1_timeseries.tsv")?;
    writeln!(
        f,
        "time_s\tcapacity_kbps\tskype_kbps\tsprout_kbps\tskype_delay_ms\tsprout_delay_ms"
    )?;
    for (skype, sprout) in &bins {
        writeln!(
            f,
            "{:.1}\t{:.0}\t{:.0}\t{:.0}\t{:.0}\t{:.0}",
            skype.t_s,
            skype.capacity_kbps,
            skype.throughput_kbps,
            sprout.throughput_kbps,
            skype.worst_delay_ms,
            sprout.worst_delay_ms
        )?;
    }
    f.flush()?;

    let mean = |of: fn(&(&SeriesRow, &SeriesRow)) -> f64| {
        bins.iter().map(of).sum::<f64>() / bins.len().max(1) as f64
    };
    writeln!(
        out,
        "fig1: {} bins written to fig1_timeseries.tsv",
        bins.len()
    )?;
    writeln!(
        out,
        "  mean capacity {:.0} kbps | skype {:.0} kbps | sprout {:.0} kbps",
        mean(|b| b.0.capacity_kbps),
        mean(|b| b.0.throughput_kbps),
        mean(|b| b.1.throughput_kbps),
    )
}

// ---------------------------------------------------------------- fig 2

/// The Figure 2 matrix: a saturated-link interarrival probe. The paper's
/// sample is 1.2 M packets; at ~420 packets/s that is ~48 min of
/// saturation, so the probe scales with `run_secs` but keeps ≥ 10 min.
fn fig2_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    let secs = (cfg.run_secs * 10).max(600);
    ScenarioMatrix::builder("fig2")
        .workloads([Workload::InterarrivalProbe])
        .links([NetProfile::VerizonLteDown])
        .timing(Duration::from_secs(secs), Duration::ZERO)
        .build()
}

/// Figure 2: interarrival distribution of a long saturated Verizon LTE
/// downlink.
fn fig2_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    let ia = s.results[0]
        .interarrival
        .as_ref()
        .expect("probe cells produce interarrival stats");
    let mut f = s.cfg.tsv("fig2_interarrival.tsv")?;
    writeln!(f, "bin_start_ms\tbin_end_ms\tpercent")?;
    for &(lo, hi, pct) in &ia.rows {
        writeln!(f, "{lo:.3}\t{hi:.3}\t{pct:.6}")?;
    }
    f.flush()?;
    writeln!(
        out,
        "fig2: {} interarrivals; {:.3}% within 20 ms [paper: 99.99%]; tail slope {:?} [paper: -3.27]",
        ia.samples,
        ia.fraction_within_20ms * 100.0,
        ia.tail_slope
    )
}

// ------------------------------------------------------------ fig 7 + 8

/// The schemes of the Figure 7 sweep: the paper's nine plus Cubic-CoDel
/// (the intro tables and Figure 8 need it).
fn fig7_schemes() -> Vec<Scheme> {
    let mut schemes = Scheme::fig7().to_vec();
    schemes.push(Scheme::CubicCodel);
    schemes
}

/// The Figure 7 matrix: every scheme on every link direction.
fn fig7_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("fig7")
        .schemes(fig7_schemes())
        .links(NetProfile::all())
        .build()
}

/// The cell of scheme `of` on `link`, if the sweep has one.
fn cell(results: &[SweepResult], link: NetProfile, of: Scheme) -> Option<SchemeResult> {
    let on_link = |r: &&SweepResult| r.scenario.link.profile() == Some(link) && scheme(r) == of;
    results.iter().find(on_link).map(metrics)
}

/// Mean over all links of a per-cell metric for one scheme (cells whose
/// metric is not finite are left out).
fn mean_over_links(results: &[SweepResult], of: Scheme, metric: fn(&SchemeResult) -> f64) -> f64 {
    let vals: Vec<f64> = results
        .iter()
        .filter(|r| scheme(r) == of)
        .map(|r| metric(&metrics(r)))
        .filter(|v| v.is_finite())
        .collect();
    vals.iter().sum::<f64>() / vals.len().max(1) as f64
}

/// One intro comparison table (§1): each of `schemes` against
/// `reference` over the Figure 7 sweep, written as `<file>`. Returns,
/// per scheme: the mean over links of (reference throughput / scheme
/// throughput), (scheme mean self-inflicted delay) / (reference mean
/// delay), and the scheme's mean self-inflicted delay in seconds.
fn intro_table(
    s: &Sweep<'_>,
    file: &str,
    reference: Scheme,
    schemes: &[Scheme],
) -> io::Result<Vec<(Scheme, f64, f64, f64)>> {
    let mean_delay_s = |of| mean_over_links(s.results, of, |r| r.self_inflicted_ms) / 1e3;
    let reference_delay_s = mean_delay_s(reference);
    let mut f = s.cfg.tsv(file)?;
    writeln!(
        f,
        "scheme\tavg_speedup_vs_ref\tdelay_reduction\tavg_delay_s"
    )?;
    let mut rows = Vec::with_capacity(schemes.len());
    for &of in schemes {
        // Mean of per-link speedups (ratio of throughputs per link).
        let ratios: Vec<f64> = NetProfile::all()
            .into_iter()
            .filter_map(|link| {
                Some((
                    cell(s.results, link, reference)?,
                    cell(s.results, link, of)?,
                ))
            })
            .filter(|(_, theirs)| theirs.throughput_kbps > 0.0)
            .map(|(ours, theirs)| ours.throughput_kbps / theirs.throughput_kbps)
            .collect();
        let speedup = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        let delay_s = mean_delay_s(of);
        let delay_ratio = delay_s / reference_delay_s.max(1e-9);
        writeln!(
            f,
            "{}\t{speedup:.2}\t{delay_ratio:.2}\t{delay_s:.2}",
            of.name()
        )?;
        rows.push((of, speedup, delay_ratio, delay_s));
    }
    f.flush()?;
    Ok(rows)
}

/// Intro table 1's rows with the paper's own values: speedup, and delay
/// reduction (average delay).
const TABLE1_PAPER: [(Scheme, &str, &str); 8] = [
    (Scheme::Skype, "2.2x", "7.9x (2.52s)"),
    (Scheme::Hangout, "4.4x", "7.2x (2.28s)"),
    (Scheme::Facetime, "1.9x", "8.7x (2.75s)"),
    (Scheme::Compound, "1.3x", "4.8x (1.53s)"),
    (Scheme::Vegas, "1.1x", "2.1x (0.67s)"),
    (Scheme::Ledbat, "1.0x", "2.8x (0.89s)"),
    (Scheme::Cubic, "0.91x", "79x (25s)"),
    (Scheme::CubicCodel, "0.70x", "1.6x (0.50s)"),
];

/// Figure 7 (every scheme on every link direction) and the two intro
/// tables derived from it: table 1 against Sprout, table 2 against
/// Sprout-EWMA.
fn fig7_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    s.cfg.write_table(
        "fig7_comparative.tsv",
        s.results,
        &[
            link_col("link"),
            scheme_col(),
            metric_col("throughput_kbps", 1, |m| m.throughput_kbps),
            metric_col("p95_delay_ms", 1, |m| m.p95_delay_ms),
            metric_col("self_inflicted_ms", 1, |m| m.self_inflicted_ms),
            metric_col("omniscient_ms", 1, |m| m.omniscient_ms),
            metric_col("utilization", 4, |m| m.utilization),
        ],
    )?;
    writeln!(
        out,
        "\n== Figure 7: throughput vs self-inflicted delay ({:.0?}) ==",
        s.elapsed
    )?;
    for link in NetProfile::all() {
        writeln!(out, "\n--- {} ---", link.name())?;
        for of in fig7_schemes() {
            if let Some(m) = cell(s.results, link, of) {
                writeln!(out, "  {}", fmt_result(of.name(), &m))?;
            }
        }
    }

    let schemes = TABLE1_PAPER.map(|row| row.0);
    let table1 = intro_table(s, "table1_summary.tsv", Scheme::Sprout, &schemes)?;
    writeln!(
        out,
        "\n== Intro table 1 (reference: Sprout; paper values in brackets) =="
    )?;
    for ((of, speedup, delay_ratio, delay_s), (_, paper_speedup, paper_delay)) in
        table1.into_iter().zip(TABLE1_PAPER)
    {
        writeln!(
            out,
            "  {:16} speedup {speedup:>5.2}x [paper {paper_speedup:>5}]   delay {delay_ratio:>6.1}x ({delay_s:.2}s) [paper {paper_delay}]",
            of.name(),
        )?;
    }

    let schemes = [Scheme::Sprout, Scheme::Cubic, Scheme::CubicCodel];
    let table2 = intro_table(s, "table2_ewma.tsv", Scheme::SproutEwma, &schemes)?;
    writeln!(out, "\n== Intro table 2 (reference: Sprout-EWMA) ==")?;
    for (of, speedup, delay_ratio, delay_s) in table2 {
        writeln!(
            out,
            "  {:16} speedup {speedup:>6.2}x  delay reduction {delay_ratio:>6.2}x (avg {delay_s:.2}s)",
            of.name(),
        )?;
    }
    Ok(())
}

/// Figure 7's report, then Figure 8 over the same sweep: average
/// utilization vs average self-inflicted delay across the links.
fn fig8_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    fig7_report(s, out)?;
    let mut f = s.cfg.tsv("fig8_utilization.tsv")?;
    writeln!(f, "scheme\tavg_utilization_pct\tavg_self_inflicted_ms")?;
    writeln!(out, "\n== Figure 8: average utilization vs delay ==")?;
    for of in [
        Scheme::Sprout,
        Scheme::SproutEwma,
        Scheme::Cubic,
        Scheme::CubicCodel,
    ] {
        let utilization_pct = mean_over_links(s.results, of, |r| r.utilization) * 100.0;
        let delay_ms = mean_over_links(s.results, of, |r| r.self_inflicted_ms);
        writeln!(f, "{}\t{utilization_pct:.1}\t{delay_ms:.0}", of.name())?;
        writeln!(
            out,
            "  {:12} {utilization_pct:>5.1}% utilization at {delay_ms:>7.0} ms self-inflicted delay",
            of.name()
        )?;
    }
    f.flush()
}

// ---------------------------------------------------------------- fig 9

/// The confidence axis of Figure 9, in the paper's order.
pub const FIG9_CONFIDENCES: [f64; 5] = [95.0, 75.0, 50.0, 25.0, 5.0];

/// The Figure 9 matrix: Sprout across the confidence axis.
fn fig9_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("fig9")
        .schemes([Scheme::Sprout])
        .links([NetProfile::TmobileUmtsUp])
        .confidences_pct(FIG9_CONFIDENCES)
        .build()
}

/// Figure 9: the confidence-parameter sweep on the T-Mobile 3G uplink.
fn fig9_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    let confidence = |r: &SweepResult| r.scenario.confidence_pct.expect("confidence axis");
    s.cfg.write_table(
        "fig9_confidence.tsv",
        s.results,
        &[
            col("confidence_pct", |r| format!("{:.0}", confidence(r))),
            metric_col("throughput_kbps", 1, |m| m.throughput_kbps),
            metric_col("self_inflicted_ms", 1, |m| m.self_inflicted_ms),
        ],
    )?;
    writeln!(
        out,
        "\n== Figure 9: confidence sweep (T-Mobile 3G uplink) =="
    )?;
    for r in s.results {
        let m = metrics(r);
        writeln!(
            out,
            "  {:>3.0}% confidence: {:>6.0} kbps at {:>6.0} ms",
            confidence(r),
            m.throughput_kbps,
            m.self_inflicted_ms
        )?;
    }
    Ok(())
}

// ----------------------------------------------------------- §5.6 loss

/// The §5.6 loss matrix (Verizon LTE, both directions, 0/5/10%).
fn loss_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("loss")
        .schemes([Scheme::Sprout])
        .links([NetProfile::VerizonLteDown, NetProfile::VerizonLteUp])
        .loss_rates([0.0, 0.05, 0.10])
        .build()
}

/// The §5.6 loss-resilience table.
fn loss_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    s.cfg.write_table(
        "loss_resilience.tsv",
        s.results,
        &[
            link_col("link"),
            col("loss_pct", |r| {
                format!("{:.0}", r.scenario.loss_rate * 100.0)
            }),
            metric_col("throughput_kbps", 1, |m| m.throughput_kbps),
            metric_col("self_inflicted_ms", 1, |m| m.self_inflicted_ms),
        ],
    )?;
    writeln!(out, "\n== s5.6 loss resilience (Sprout) ==")?;
    writeln!(
        out,
        "  paper (downlink): 0% 4741kbps/73ms, 5% 3971/60, 10% 2768/58"
    )?;
    writeln!(
        out,
        "  paper (uplink):   0% 3703kbps/332ms, 5% 2598/378, 10% 1163/314"
    )?;
    for r in s.results {
        let m = metrics(r);
        writeln!(
            out,
            "  {:12} {:>3.0}% loss: {:>6.0} kbps at {:>6.0} ms",
            r.scenario.link.id(),
            r.scenario.loss_rate * 100.0,
            m.throughput_kbps,
            m.self_inflicted_ms
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------- §5.7 tunnel

/// The §5.7 tunnel matrix: mux'd flows direct vs through SproutTunnel.
fn tunnel_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("tunnel")
        .workloads([Workload::MuxDirect, Workload::MuxTunneled])
        .links([NetProfile::VerizonLteDown])
        .build()
}

/// §5.7: Cubic bulk + Skype on the Verizon LTE downlink, direct vs
/// through SproutTunnel.
fn tunnel_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    let mut f = s.cfg.tsv("tunnel_isolation.tsv")?;
    writeln!(f, "metric\tdirect\tvia_sprout")?;
    writeln!(
        out,
        "\n== s5.7 SproutTunnel isolation (Verizon LTE downlink) =="
    )?;
    writeln!(out, "  paper: cubic 8336->3776 kbps (-55%), skype 78->490 kbps (+528%), skype delay 6.0->0.17 s (-97%)")?;
    // One metric of one flow, in the direct cell and in the tunneled one.
    let mut row =
        |key, label, unit, digits, flow: sprout_sim::FlowId, metric: fn(&FlowSummary) -> f64| {
            let [direct, via] = [&s.results[0], &s.results[1]].map(|r| {
                let flow = r.flows.iter().find(|f| f.flow == flow.0);
                metric(flow.expect("mux cells report both flows"))
            });
            writeln!(f, "{key}\t{direct:.digits$}\t{via:.digits$}")?;
            writeln!(
                out,
                "  {label} {direct:>7.digits$} -> {via:>7.digits$} {unit} ({:+.0}%)",
                100.0 * (via / direct - 1.0)
            )
        };
    let (bulk, interactive) = (sweep::BULK_FLOW, sweep::INTERACTIVE_FLOW);
    row(
        "cubic_throughput_kbps",
        "cubic throughput",
        "kbps",
        0,
        bulk,
        |f| f.throughput_kbps,
    )?;
    row(
        "skype_throughput_kbps",
        "skype throughput",
        "kbps",
        0,
        interactive,
        |f| f.throughput_kbps,
    )?;
    row(
        "skype_p95_delay_s",
        "skype 95% delay ",
        "s",
        2,
        interactive,
        |f| f.p95_delay_ms / 1e3,
    )?;
    f.flush()
}

// ----------------------------------------------------------- contention

/// The default contention workload set for `n` flows per cell: the
/// homogeneous baselines (all-Cubic, all-Sprout), a lone Sprout or
/// Skype flow against `n − 1` Cubic bulk flows (the regime where a deep
/// shared buffer collapses the delay-sensitive flow), and a tunneled
/// Skype flow against the same bulk mix (§5.7 isolation, N-flow
/// generalized).
pub fn default_contention_workloads(n: usize) -> Vec<Vec<FlowSpec>> {
    assert!(
        (2..=crate::scenario::MAX_CONTENTION_FLOWS).contains(&n),
        "contention cells need 2..={} flows, got {n}",
        crate::scenario::MAX_CONTENTION_FLOWS
    );
    let versus_bulk = |lead: FlowSpec| {
        let mut flows = vec![lead];
        flows.extend(vec![FlowSpec::Scheme(Scheme::Cubic); n - 1]);
        flows
    };
    vec![
        vec![FlowSpec::Scheme(Scheme::Cubic); n],
        vec![FlowSpec::Scheme(Scheme::Sprout); n],
        versus_bulk(FlowSpec::Scheme(Scheme::Sprout)),
        versus_bulk(FlowSpec::Scheme(Scheme::Skype)),
        versus_bulk(FlowSpec::App {
            app: VideoApp::Skype,
            over: Scheme::Sprout,
        }),
    ]
}

/// The contention matrix: the default workload set (or the explicit
/// `--contend` flow list) across the configured links, every cell
/// sharing one deep per-user DropTail queue per direction.
fn contention_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    let workloads = match &cfg.contention.contenders {
        Some(flows) => vec![flows.clone()],
        None => default_contention_workloads(cfg.contention.flows),
    };
    cfg.matrix("contention")
        .contention(workloads)
        .links(cfg.contention.links.iter().copied())
        .build()
}

/// `contention_fairness.tsv` (one row per flow, with the cell's fairness
/// index and aggregate utilization repeated on each) and the per-cell
/// console summary.
fn contention_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    fn fairness(r: &SweepResult) -> f64 {
        r.fairness.expect("contention cells report fairness")
    }
    fn flows_of(r: &SweepResult) -> impl Iterator<Item = (&FlowSpec, &FlowSummary)> {
        let specs = r
            .scenario
            .workload
            .contention_flows()
            .expect("contention matrix cells are contention workloads");
        specs.iter().zip(&r.flows)
    }
    // One table row per flow: (its cell, its spec, its metrics).
    type Row<'r> = (&'r SweepResult, &'r FlowSpec, &'r FlowSummary);
    let rows: Vec<Row<'_>> = s
        .results
        .iter()
        .flat_map(|r| flows_of(r).map(move |(spec, flow)| (r, spec, flow)))
        .collect();
    let col = |name, cell: fn(&Row<'_>) -> String| Col(name, Box::new(cell));
    s.cfg.write_table(
        "contention_fairness.tsv",
        &rows,
        &[
            col("label", |r| r.0.scenario.label.clone()),
            col("link", |r| r.0.scenario.link.id()),
            col("queue", |r| r.0.queue.id()),
            col("flow", |r| r.2.flow.to_string()),
            col("spec", |r| r.1.tag()),
            col("throughput_kbps", |r| format!("{:.1}", r.2.throughput_kbps)),
            col("p95_delay_ms", |r| format!("{:.1}", r.2.p95_delay_ms)),
            col("jain_fairness", |r| format!("{:.4}", fairness(r.0))),
            col("utilization", |r| {
                format!("{:.4}", metrics(r.0).utilization)
            }),
        ],
    )?;
    writeln!(
        out,
        "\n== contention: {} cells, per-flow shares of one bottleneck queue ({:.0?}) ==",
        s.results.len(),
        s.elapsed
    )?;
    for r in s.results {
        writeln!(
            out,
            "  {} (util {:.2}, Jain {:.3})",
            r.scenario.label,
            metrics(r).utilization,
            fairness(r)
        )?;
        for (spec, flow) in flows_of(r) {
            writeln!(
                out,
                "    flow {} {:20} {:>8.0} kbps  p95 {:>9.0} ms",
                flow.flow,
                spec.tag(),
                flow.throughput_kbps,
                flow.p95_delay_ms
            )?;
        }
    }
    Ok(())
}

// ----------------------------------------------------------------- soak

/// The paper's trace length: ~17 minutes of virtual time (§4.1). The
/// `soak` experiment defaults to this where the other figures use 300 s.
pub const SOAK_SECS: u64 = 1_020;

/// The carriers the soak matrix runs each video app over: Sprout (the
/// §4.3 tunnel) and Cubic (the §5.7 "direct" commingling, generalized).
pub const SOAK_APP_CARRIERS: [Scheme; 2] = [Scheme::Sprout, Scheme::Cubic];

/// The long-horizon soak matrix: the nine Figure-7 schemes plus every
/// video app over Sprout and Cubic, crossed with links × queue depths ×
/// propagation delays at paper-length runs. Cubic-CoDel is deliberately
/// *not* a tenth scheme here: its endpoints are Cubic's, so the
/// explicit `Cubic × CoDel` cells of the queue axis already are its
/// soak representation, and listing it would re-simulate every
/// `Auto`-resolved-to-CoDel cell the axis produces. Far too large for
/// one sitting by design — run it as `--shard I/N` workers sharing one
/// cache directory, then `--merge`.
pub fn soak_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.with_timeseries(
        ScenarioMatrix::builder("soak")
            .timing(
                Duration::from_secs(cfg.soak.secs.unwrap_or(cfg.run_secs)),
                Duration::from_secs(cfg.warmup_secs),
            )
            .schemes(Scheme::fig7())
            .apps(VideoApp::all(), SOAK_APP_CARRIERS)
            .links(cfg.soak.links.iter().copied())
            .queues(cfg.soak.queues.iter().copied())
            .prop_delays_ms(cfg.soak.prop_delays_ms.iter().copied()),
    )
    .build()
}

/// Run the soak matrix and render its artifacts, discarding the console
/// summary (the entry point `benchmark/` times).
pub fn soak(cfg: &ExperimentConfig) -> io::Result<()> {
    run_and_report(cfg, &soak_matrix(cfg), soak_report, &mut io::sink())
}

/// `soak_matrix.tsv` (one row per cell, every axis spelled out), the
/// `--timeseries` artifacts, and a per-workload aggregate on the console.
fn soak_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    write_cell_series(s.cfg, s.results)?;
    let app = |r: &SweepResult, metric: fn(&FlowSummary) -> f64| {
        let flow = r.flows.iter().find(|f| f.flow == sweep::INTERACTIVE_FLOW.0);
        format!("{:.1}", flow.map(metric).unwrap_or(f64::NAN))
    };
    let cols: Vec<Col<'_, SweepResult>> = [
        label_col(),
        col("workload", |r| r.scenario.workload.canonical_detail()),
        link_col("link"),
        col("queue", |r| r.queue.id()),
        col("prop_delay_ms", |r| {
            (r.scenario.prop_delay.as_micros() / 1_000).to_string()
        }),
    ]
    .into_iter()
    .chain(metric_cols())
    .chain([
        col("app_kbps", |r| app(r, |f| f.throughput_kbps)),
        col("app_p95_ms", |r| app(r, |f| f.p95_delay_ms)),
    ])
    .collect();
    s.cfg.write_table("soak_matrix.tsv", s.results, &cols)?;

    let cells = s.results.len();
    writeln!(
        out,
        "soak: {cells} cells ({} links x {} delays x {} queues; kill/resume with --resume, farm out with --shard I/N)",
        s.cfg.soak.links.len(),
        s.cfg.soak.prop_delays_ms.len(),
        s.cfg.soak.queues.len()
    )?;
    writeln!(
        out,
        "\n== soak: per-workload means over {cells} cells ({:.0?}) ==",
        s.elapsed
    )?;
    // Aggregate per workload, in matrix declaration order.
    let mut workloads: Vec<(String, Vec<SchemeResult>)> = Vec::new();
    for r in s.results {
        let tag = r.scenario.workload.canonical_detail();
        match workloads.iter_mut().find(|w| w.0 == tag) {
            Some(w) => w.1.push(metrics(r)),
            None => workloads.push((tag, vec![metrics(r)])),
        }
    }
    for (workload, cells) in workloads {
        // The self-inflicted mean averages the *finite* samples only — a
        // cell whose measurement window saw no deliveries (NaN p95) must
        // not count as a zero-delay sample — and a workload with no valid
        // sample at all surfaces NaN (0/0) like the per-cell TSV, not a
        // fake 0 ms.
        let delays = cells.iter().map(|m| m.self_inflicted_ms);
        let delays: Vec<f64> = delays.filter(|d| d.is_finite()).collect();
        writeln!(
            out,
            "  {workload:24} {:>4} cells  {:>7.0} kbps  self-inflicted {:>8.0} ms",
            cells.len(),
            cells.iter().map(|m| m.throughput_kbps).sum::<f64>() / cells.len() as f64,
            delays.iter().sum::<f64>() / delays.len() as f64
        )?;
    }
    Ok(())
}

// --------------------------------------------------------------- impair

/// The schemes of the `impair` experiment: both Sprout variants against
/// the loss-based and open-loop baselines whose degradation behavior the
/// robustness story contrasts.
pub const IMPAIR_SCHEMES: [Scheme; 4] = [
    Scheme::Sprout,
    Scheme::SproutEwma,
    Scheme::Cubic,
    Scheme::Skype,
];

/// The fault-injection matrix: the impair scheme set crossed with the
/// configured links and impairment presets (burst loss, outages, flaps,
/// jitter, reordering, the all-at-once storm — plus the clean-link
/// control).
fn impair_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.with_timeseries(
        cfg.matrix("impair")
            .schemes(IMPAIR_SCHEMES)
            .links(cfg.impair.links.iter().copied())
            .impairments(cfg.impair.impairments.iter().map(|(_, imp)| *imp)),
    )
    .build()
}

/// `impair_degradation.tsv`: one row per cell with the degradation
/// metrics (outage count, worst post-outage recovery time, delivered
/// fraction while degraded) alongside the standard throughput/delay
/// columns; the same on the console.
fn impair_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    write_cell_series(s.cfg, s.results)?;
    let axes = &s.cfg.impair;
    let preset_name = |r: &SweepResult| -> String {
        let id = r.scenario.impairment.id();
        let named = axes.impairments.iter().find(|(_, spec)| spec.id() == id);
        named.map(|(name, _)| name.clone()).unwrap_or(id)
    };
    let cols: Vec<Col<'_, SweepResult>> = [
        label_col(),
        link_col("link"),
        scheme_col(),
        col("impairment", preset_name),
    ]
    .into_iter()
    .chain(metric_cols())
    .chain([
        col("outages", |r| metrics(r).outages.to_string()),
        metric_col("recovery_ms", 1, |m| m.recovery_ms),
        metric_col("degraded_delivery", 4, |m| m.degraded_delivery),
    ])
    .collect();
    s.cfg
        .write_table("impair_degradation.tsv", s.results, &cols)?;

    writeln!(
        out,
        "\n== impair: graceful degradation under injected faults ({} schemes x {} links x {} presets, {:.0?}) ==",
        IMPAIR_SCHEMES.len(),
        axes.links.len(),
        axes.impairments.len(),
        s.elapsed
    )?;
    let or_na = |v: f64, text: String| {
        if v.is_finite() {
            text
        } else {
            "n/a".to_string()
        }
    };
    for r in s.results {
        let m = metrics(r);
        writeln!(
            out,
            "  {:44} {:>7.0} kbps  p95 {:>7.0} ms  outages {:>2}  recovery {:>8}  degraded-delivery {:>5}",
            r.scenario.label,
            m.throughput_kbps,
            m.p95_delay_ms,
            m.outages,
            or_na(m.recovery_ms, format!("{:.0} ms", m.recovery_ms)),
            or_na(m.degraded_delivery, format!("{:.2}", m.degraded_delivery)),
        )?;
    }
    Ok(())
}

// ---------------------------------------------------------------- serve

/// The `serve` matrix: the multi-session server across the configured
/// session counts and links. Timing follows its own short default
/// ([`SERVE_SECS`], warmup = one sixth of the run) because each cell
/// costs ~`2 N` path-simulations of work.
fn serve_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    let (secs, warmup) = own_timing("serve", cfg);
    ScenarioMatrix::builder("serve")
        .timing(secs, warmup)
        .serve(cfg.serve.sessions.iter().copied())
        .links(cfg.serve.links.iter().copied())
        .build()
}

/// `serve_capacity.tsv` (one row per cell): the virtual-time side of
/// serving — bytes delivered and fairness, bit-identical across thread
/// counts. (The wall-clock capacity numbers are `benchmark/`'s
/// `serve-pool` workload's.)
fn serve_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    let stats = |r: &SweepResult| r.serve.expect("serve cells produce serve stats");
    let fairness = |r: &SweepResult| r.fairness.expect("serve cells report fairness");
    s.cfg.write_table(
        "serve_capacity.tsv",
        s.results,
        &[
            label_col(),
            link_col("link"),
            col("sessions", |r| stats(r).sessions.to_string()),
            col("delivered_bytes", |r| stats(r).delivered_bytes.to_string()),
            col("min_session_bytes", |r| {
                stats(r).min_session_bytes.to_string()
            }),
            col("max_session_bytes", |r| {
                stats(r).max_session_bytes.to_string()
            }),
            col("wire_delivered_bytes", |r| {
                stats(r).wire_delivered_bytes.to_string()
            }),
            col("jain_fairness", |r| format!("{:.4}", fairness(r))),
        ],
    )?;
    writeln!(
        out,
        "\n== serve: multi-session server capacity ({} session counts x {} links, {:.0?}) ==",
        s.cfg.serve.sessions.len(),
        s.cfg.serve.links.len(),
        s.elapsed
    )?;
    for r in s.results {
        let st = stats(r);
        writeln!(
            out,
            "  {:28} {:>5} sessions  {:>12} bytes delivered  per-session {:>9}..{:>9}  Jain {:.4}",
            r.scenario.label,
            st.sessions,
            st.delivered_bytes,
            st.min_session_bytes,
            st.max_session_bytes,
            fairness(r)
        )?;
    }
    Ok(())
}

// --------------------------------------------------------------- replay

/// The `replay` matrix: the configured scheme roster over each measured
/// capture (`LinkSpec::Measured`, identified by content fingerprint).
/// Timing follows its own short default ([`REPLAY_SECS`], warmup = one
/// sixth of the run) because the committed corpus excerpts are only
/// ~40 s long.
fn replay_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    let (secs, warmup) = own_timing("replay", cfg);
    let captures = cfg.replay.traces.iter();
    cfg.with_timeseries(
        ScenarioMatrix::builder("replay")
            .timing(secs, warmup)
            .schemes(cfg.replay.schemes.iter().copied())
            .links(captures.map(|&fingerprint| LinkSpec::Measured { fingerprint })),
    )
    .build()
}

/// `replay_comparative.tsv` (one row per cell), plus the per-cell
/// time-series TSVs when `--timeseries` is set.
fn replay_report(s: &Sweep<'_>, out: &mut dyn Write) -> io::Result<()> {
    write_cell_series(s.cfg, s.results)?;
    let cols: Vec<Col<'_, SweepResult>> = [label_col(), link_col("trace"), scheme_col()]
        .into_iter()
        .chain(metric_cols())
        .collect();
    s.cfg
        .write_table("replay_comparative.tsv", s.results, &cols)?;
    writeln!(
        out,
        "\n== replay: schemes over measured captures ({} schemes x {} captures, {:.0?}) ==",
        s.cfg.replay.schemes.len(),
        s.cfg.replay.traces.len(),
        s.elapsed
    )?;
    for r in s.results {
        writeln!(out, "  {}", fmt_result(&r.scenario.label, &metrics(r)))?;
    }
    if s.cfg.timeseries {
        writeln!(
            out,
            "per-cell time-series TSVs written next to replay_sweep.json"
        )?;
    }
    Ok(())
}

/// Write the per-cell time-series artifacts for every result that
/// carries one (the `--timeseries` flag): `<matrix>_<id>_delay.tsv`
/// (per-delivery delay vs. time) and `<matrix>_<id>_series.tsv` (binned
/// capacity/throughput/queue-depth), deterministic byte for byte, next
/// to the matrix's sweep JSON. Returns the number of cells rendered.
pub fn write_cell_series(cfg: &ExperimentConfig, results: &[SweepResult]) -> io::Result<usize> {
    let mut written = 0;
    for r in results {
        let Some(series) = &r.cell_series else {
            continue;
        };
        let stem = format!("{}_{:03}", r.matrix, r.scenario.id);

        let mut f = cfg.tsv(&format!("{stem}_delay.tsv"))?;
        writeln!(f, "# {}", r.scenario.label)?;
        writeln!(f, "t_s\tdelay_ms")?;
        for &(t_s, delay_ms) in &series.delays {
            writeln!(f, "{t_s:.6}\t{delay_ms:.3}")?;
        }
        f.flush()?;

        let mut f = cfg.tsv(&format!("{stem}_series.tsv"))?;
        writeln!(f, "# {}", r.scenario.label)?;
        writeln!(f, "t_s\tcapacity_kbps\tthroughput_kbps\tqueue_depth")?;
        for b in &series.bins {
            writeln!(
                f,
                "{:.3}\t{:.3}\t{:.3}\t{}",
                b.t_s, b.capacity_kbps, b.throughput_kbps, b.queue_depth
            )?;
        }
        f.flush()?;
        written += 1;
    }
    Ok(written)
}
