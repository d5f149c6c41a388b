//! Regeneration of every table and figure in the paper's evaluation
//! (§5).
//!
//! Each figure **declares** its experiment as a [`ScenarioMatrix`]
//! cross-product, hands it to the shared [`SweepEngine`] (parallel,
//! deterministically seeded), and **renders** the returned
//! [`SweepResult`] rows: machine-readable TSV plus a canonical
//! `<figure>_sweep.json` record into the output directory, and a
//! structured summary for display. No figure runs its own scheme×link
//! loops.

use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use sprout_baselines::VideoApp;
use sprout_trace::{Duration, Impairment, NetProfile, IMPAIRMENT_PRESETS};

use crate::scenario::{FlowSpec, LinkSpec, QueueSpec, ScenarioMatrix, Workload};
use crate::schemes::{Scheme, SchemeResult};
use crate::sweep::{self, CellCachePolicy, FlowSummary, ShardSpec, SweepEngine, SweepResult};

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
    /// [`SOAK_SECS`] so *every* soak entry point — CLI, library,
    /// `matrices_for` shard workers — declares the identical matrix
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
/// the last recorded delivery opportunity.
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

// ---------------------------------------------------------------- fig 1

/// Figure 1: Skype vs Sprout time series on the Verizon LTE downlink.
pub struct Fig1Result {
    /// (time s, capacity kbps, skype kbps, sprout kbps) per 500 ms bin.
    pub throughput_rows: Vec<(f64, f64, f64, f64)>,
    /// Worst per-arrival delay per 500 ms bin: (time s, skype ms, sprout ms).
    pub delay_rows: Vec<(f64, f64, f64)>,
}

/// The Figure 1 matrix: Skype vs Sprout with 500 ms series collection.
pub fn fig1_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("fig1")
        .schemes([Scheme::Skype, Scheme::Sprout])
        .links([NetProfile::VerizonLteDown])
        .series_bin(Duration::from_millis(500))
        .build()
}

/// Run Figure 1.
pub fn fig1(cfg: &ExperimentConfig) -> std::io::Result<Fig1Result> {
    let matrix = fig1_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;
    let (skype, sprout) = (&results[0], &results[1]);

    let n = skype.series.len().min(sprout.series.len());
    let mut throughput_rows = Vec::with_capacity(n);
    let mut delay_rows = Vec::with_capacity(n);
    for i in 0..n {
        let (sk, sp) = (&skype.series[i], &sprout.series[i]);
        // Both cells replay the identical link trace, so either capacity
        // column works.
        throughput_rows.push((
            sk.t_s,
            sk.capacity_kbps,
            sk.throughput_kbps,
            sp.throughput_kbps,
        ));
        delay_rows.push((sk.t_s, sk.worst_delay_ms, sp.worst_delay_ms));
    }

    let mut f = cfg.tsv("fig1_timeseries.tsv")?;
    writeln!(
        f,
        "time_s\tcapacity_kbps\tskype_kbps\tsprout_kbps\tskype_delay_ms\tsprout_delay_ms"
    )?;
    for (i, row) in throughput_rows.iter().enumerate() {
        writeln!(
            f,
            "{:.1}\t{:.0}\t{:.0}\t{:.0}\t{:.0}\t{:.0}",
            row.0, row.1, row.2, row.3, delay_rows[i].1, delay_rows[i].2
        )?;
    }
    f.flush()?;
    Ok(Fig1Result {
        throughput_rows,
        delay_rows,
    })
}

// ---------------------------------------------------------------- fig 2

/// Figure 2: interarrival distribution of a saturated downlink.
pub struct Fig2Result {
    /// Fraction of interarrivals within 20 ms (paper: 99.99%).
    pub fraction_within_20ms: f64,
    /// Power-law slope of the 20 ms–5 s tail (paper: −3.27).
    pub tail_slope: Option<f64>,
    /// Total interarrivals measured.
    pub samples: u64,
}

/// The Figure 2 matrix: a saturated-link interarrival probe. The paper's
/// sample is 1.2 M packets; at ~420 packets/s that is ~48 min of
/// saturation, so the probe scales with `run_secs` but keeps ≥ 10 min.
pub fn fig2_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    let secs = (cfg.run_secs * 10).max(600);
    ScenarioMatrix::builder("fig2")
        .workloads([Workload::InterarrivalProbe])
        .links([NetProfile::VerizonLteDown])
        .timing(Duration::from_secs(secs), Duration::ZERO)
        .build()
}

/// Run Figure 2 on a long saturated Verizon LTE downlink.
pub fn fig2(cfg: &ExperimentConfig) -> std::io::Result<Fig2Result> {
    let matrix = fig2_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;
    let ia = results[0]
        .interarrival
        .as_ref()
        .expect("probe cells produce interarrival stats");

    let mut f = cfg.tsv("fig2_interarrival.tsv")?;
    writeln!(f, "bin_start_ms\tbin_end_ms\tpercent")?;
    for &(lo, hi, pct) in &ia.rows {
        writeln!(f, "{lo:.3}\t{hi:.3}\t{pct:.6}")?;
    }
    f.flush()?;
    Ok(Fig2Result {
        fraction_within_20ms: ia.fraction_within_20ms,
        tail_slope: ia.tail_slope,
        samples: ia.samples,
    })
}

// ---------------------------------------------------------------- fig 7

/// All Figure 7 cells (plus Cubic-CoDel for the intro tables / Fig. 8).
pub struct Fig7Results {
    /// (link, scheme, result) for every cell.
    pub cells: Vec<(NetProfile, Scheme, SchemeResult)>,
}

impl Fig7Results {
    /// The result of one cell.
    pub fn get(&self, link: NetProfile, scheme: Scheme) -> Option<&SchemeResult> {
        self.cells
            .iter()
            .find(|(l, s, _)| *l == link && *s == scheme)
            .map(|(_, _, r)| r)
    }

    /// Mean over all links of a per-cell metric for one scheme.
    pub fn mean_over_links(&self, scheme: Scheme, f: impl Fn(&SchemeResult) -> f64) -> f64 {
        let vals: Vec<f64> = self
            .cells
            .iter()
            .filter(|(_, s, _)| *s == scheme)
            .map(|(_, _, r)| f(r))
            .filter(|v| v.is_finite())
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }
}

/// The schemes of the Figure 7 sweep: the paper's nine plus Cubic-CoDel
/// (the intro tables and Figure 8 need it).
pub fn fig7_schemes() -> Vec<Scheme> {
    let mut schemes = Scheme::fig7().to_vec();
    schemes.push(Scheme::CubicCodel);
    schemes
}

/// The Figure 7 matrix: every scheme on every link direction.
pub fn fig7_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("fig7")
        .schemes(fig7_schemes())
        .links(NetProfile::all())
        .build()
}

/// Run the full Figure 7 sweep: every scheme on every link direction.
pub fn fig7(cfg: &ExperimentConfig) -> std::io::Result<Fig7Results> {
    let matrix = fig7_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;

    let mut f = cfg.tsv("fig7_comparative.tsv")?;
    writeln!(
        f,
        "link\tscheme\tthroughput_kbps\tp95_delay_ms\tself_inflicted_ms\tomniscient_ms\tutilization"
    )?;
    let mut cells = Vec::with_capacity(results.len());
    for r in &results {
        let scheme = r.scenario.workload.scheme().expect("scheme matrix");
        let m = r.metrics.expect("scheme cells produce metrics");
        writeln!(
            f,
            "{}\t{}\t{:.1}\t{:.1}\t{:.1}\t{:.1}\t{:.4}",
            r.scenario.link.id(),
            scheme.name(),
            m.throughput_kbps,
            m.p95_delay_ms,
            m.self_inflicted_ms,
            m.omniscient_ms,
            m.utilization
        )?;
        let link = r
            .scenario
            .link
            .profile()
            .expect("fig7 sweeps synthetic links");
        cells.push((link, scheme, m));
    }
    f.flush()?;
    Ok(Fig7Results { cells })
}

/// One row of the intro comparison tables.
pub struct SummaryRow {
    /// Scheme being compared against the reference.
    pub scheme: Scheme,
    /// Mean over links of (reference throughput / scheme throughput).
    pub avg_speedup: f64,
    /// (scheme mean self-inflicted delay) / (reference mean delay).
    pub delay_reduction: f64,
    /// Scheme mean self-inflicted delay, seconds.
    pub avg_delay_s: f64,
}

/// Intro table 1 (reference = Sprout) or table 2 (reference =
/// Sprout-EWMA), §1.
pub fn summary_table(results: &Fig7Results, reference: Scheme, rows: &[Scheme]) -> Vec<SummaryRow> {
    let ref_delay = results.mean_over_links(reference, |r| r.self_inflicted_ms) / 1e3;
    rows.iter()
        .map(|&scheme| {
            // Mean of per-link speedups (ratio of throughputs per link).
            let mut ratios = Vec::new();
            for link in NetProfile::all() {
                if let (Some(a), Some(b)) =
                    (results.get(link, reference), results.get(link, scheme))
                {
                    if b.throughput_kbps > 0.0 {
                        ratios.push(a.throughput_kbps / b.throughput_kbps);
                    }
                }
            }
            let avg_speedup = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
            let avg_delay_s = results.mean_over_links(scheme, |r| r.self_inflicted_ms) / 1e3;
            SummaryRow {
                scheme,
                avg_speedup,
                delay_reduction: avg_delay_s / ref_delay.max(1e-9),
                avg_delay_s,
            }
        })
        .collect()
}

/// Write an intro summary table as TSV.
pub fn write_summary(
    cfg: &ExperimentConfig,
    name: &str,
    rows: &[SummaryRow],
) -> std::io::Result<()> {
    let mut f = cfg.tsv(name)?;
    writeln!(
        f,
        "scheme\tavg_speedup_vs_ref\tdelay_reduction\tavg_delay_s"
    )?;
    for r in rows {
        writeln!(
            f,
            "{}\t{:.2}\t{:.2}\t{:.2}",
            r.scheme.name(),
            r.avg_speedup,
            r.delay_reduction,
            r.avg_delay_s
        )?;
    }
    f.flush()?;
    Ok(())
}

// ---------------------------------------------------------------- fig 8

/// Figure 8: average utilization vs average self-inflicted delay.
pub struct Fig8Row {
    /// Scheme.
    pub scheme: Scheme,
    /// Mean utilization across the eight links, percent.
    pub avg_utilization_pct: f64,
    /// Mean self-inflicted delay across links, ms.
    pub avg_delay_ms: f64,
}

/// Derive Figure 8 from the Figure 7 sweep.
pub fn fig8(cfg: &ExperimentConfig, results: &Fig7Results) -> std::io::Result<Vec<Fig8Row>> {
    let schemes = [
        Scheme::Sprout,
        Scheme::SproutEwma,
        Scheme::Cubic,
        Scheme::CubicCodel,
    ];
    let rows: Vec<Fig8Row> = schemes
        .iter()
        .map(|&s| Fig8Row {
            scheme: s,
            avg_utilization_pct: results.mean_over_links(s, |r| r.utilization) * 100.0,
            avg_delay_ms: results.mean_over_links(s, |r| r.self_inflicted_ms),
        })
        .collect();
    let mut f = cfg.tsv("fig8_utilization.tsv")?;
    writeln!(f, "scheme\tavg_utilization_pct\tavg_self_inflicted_ms")?;
    for r in &rows {
        writeln!(
            f,
            "{}\t{:.1}\t{:.0}",
            r.scheme.name(),
            r.avg_utilization_pct,
            r.avg_delay_ms
        )?;
    }
    f.flush()?;
    Ok(rows)
}

// ---------------------------------------------------------------- fig 9

/// Figure 9: the confidence-parameter sweep on the T-Mobile 3G uplink.
pub struct Fig9Row {
    /// Forecast confidence percent (95 = paper default).
    pub confidence: f64,
    /// Result at that confidence.
    pub result: SchemeResult,
}

/// The confidence axis of Figure 9, in the paper's order.
pub const FIG9_CONFIDENCES: [f64; 5] = [95.0, 75.0, 50.0, 25.0, 5.0];

/// The Figure 9 matrix: Sprout across the confidence axis.
pub fn fig9_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("fig9")
        .schemes([Scheme::Sprout])
        .links([NetProfile::TmobileUmtsUp])
        .confidences_pct(FIG9_CONFIDENCES)
        .build()
}

/// Run Figure 9.
pub fn fig9(cfg: &ExperimentConfig) -> std::io::Result<Vec<Fig9Row>> {
    let matrix = fig9_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;

    let mut f = cfg.tsv("fig9_confidence.tsv")?;
    writeln!(f, "confidence_pct\tthroughput_kbps\tself_inflicted_ms")?;
    let mut rows = Vec::with_capacity(results.len());
    for r in &results {
        let confidence = r.scenario.confidence_pct.expect("confidence axis");
        let m = r.metrics.expect("scheme cells produce metrics");
        writeln!(
            f,
            "{confidence:.0}\t{:.1}\t{:.1}",
            m.throughput_kbps, m.self_inflicted_ms
        )?;
        rows.push(Fig9Row {
            confidence,
            result: m,
        });
    }
    f.flush()?;
    Ok(rows)
}

// ----------------------------------------------------------- §5.6 loss

/// One row of the §5.6 loss-resilience table.
pub struct LossRow {
    /// Link under test.
    pub link: NetProfile,
    /// Bernoulli per-direction loss probability.
    pub loss_rate: f64,
    /// Result.
    pub result: SchemeResult,
}

/// The §5.6 loss matrix (Verizon LTE, both directions, 0/5/10%).
pub fn loss_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("loss")
        .schemes([Scheme::Sprout])
        .links([NetProfile::VerizonLteDown, NetProfile::VerizonLteUp])
        .loss_rates([0.0, 0.05, 0.10])
        .build()
}

/// Run the §5.6 loss table (Verizon LTE, both directions, 0/5/10%).
pub fn loss_table(cfg: &ExperimentConfig) -> std::io::Result<Vec<LossRow>> {
    let matrix = loss_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;

    let mut f = cfg.tsv("loss_resilience.tsv")?;
    writeln!(f, "link\tloss_pct\tthroughput_kbps\tself_inflicted_ms")?;
    let mut rows = Vec::with_capacity(results.len());
    for r in &results {
        let m = r.metrics.expect("scheme cells produce metrics");
        writeln!(
            f,
            "{}\t{:.0}\t{:.1}\t{:.1}",
            r.scenario.link.id(),
            r.scenario.loss_rate * 100.0,
            m.throughput_kbps,
            m.self_inflicted_ms
        )?;
        rows.push(LossRow {
            link: r
                .scenario
                .link
                .profile()
                .expect("loss sweeps synthetic links"),
            loss_rate: r.scenario.loss_rate,
            result: m,
        });
    }
    f.flush()?;
    Ok(rows)
}

// ---------------------------------------------------------- §5.7 tunnel

/// §5.7: Cubic bulk + Skype, direct vs through SproutTunnel.
pub struct TunnelComparison {
    /// Cubic throughput, direct, kbps.
    pub cubic_direct_kbps: f64,
    /// Cubic throughput through the tunnel, kbps.
    pub cubic_tunnel_kbps: f64,
    /// Skype throughput, direct, kbps.
    pub skype_direct_kbps: f64,
    /// Skype throughput through the tunnel, kbps.
    pub skype_tunnel_kbps: f64,
    /// Skype 95% end-to-end delay, direct, s.
    pub skype_direct_delay_s: f64,
    /// Skype 95% end-to-end delay through the tunnel, s.
    pub skype_tunnel_delay_s: f64,
}

/// The §5.7 tunnel matrix: mux'd flows direct vs through SproutTunnel.
pub fn tunnel_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.matrix("tunnel")
        .workloads([Workload::MuxDirect, Workload::MuxTunneled])
        .links([NetProfile::VerizonLteDown])
        .build()
}

/// Run the §5.7 comparison on the Verizon LTE downlink.
pub fn tunnel_comparison(cfg: &ExperimentConfig) -> std::io::Result<TunnelComparison> {
    let matrix = tunnel_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;

    let flow = |r: &SweepResult, id: u32| -> sweep::FlowSummary {
        *r.flows
            .iter()
            .find(|f| f.flow == id)
            .expect("mux cells report both flows")
    };
    let (direct, tunneled) = (&results[0], &results[1]);
    let result = TunnelComparison {
        cubic_direct_kbps: flow(direct, sweep::BULK_FLOW.0).throughput_kbps,
        cubic_tunnel_kbps: flow(tunneled, sweep::BULK_FLOW.0).throughput_kbps,
        skype_direct_kbps: flow(direct, sweep::INTERACTIVE_FLOW.0).throughput_kbps,
        skype_tunnel_kbps: flow(tunneled, sweep::INTERACTIVE_FLOW.0).throughput_kbps,
        skype_direct_delay_s: flow(direct, sweep::INTERACTIVE_FLOW.0).p95_delay_ms / 1e3,
        skype_tunnel_delay_s: flow(tunneled, sweep::INTERACTIVE_FLOW.0).p95_delay_ms / 1e3,
    };

    let mut f = cfg.tsv("tunnel_isolation.tsv")?;
    writeln!(f, "metric\tdirect\tvia_sprout")?;
    writeln!(
        f,
        "cubic_throughput_kbps\t{:.0}\t{:.0}",
        result.cubic_direct_kbps, result.cubic_tunnel_kbps
    )?;
    writeln!(
        f,
        "skype_throughput_kbps\t{:.0}\t{:.0}",
        result.skype_direct_kbps, result.skype_tunnel_kbps
    )?;
    writeln!(
        f,
        "skype_p95_delay_s\t{:.2}\t{:.2}",
        result.skype_direct_delay_s, result.skype_tunnel_delay_s
    )?;
    f.flush()?;
    Ok(result)
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
pub fn contention_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    let workloads = match &cfg.contention.contenders {
        Some(flows) => vec![flows.clone()],
        None => default_contention_workloads(cfg.contention.flows),
    };
    cfg.matrix("contention")
        .contention(workloads)
        .links(cfg.contention.links.iter().copied())
        .build()
}

/// One contention cell's summary, flattened for display.
pub struct ContentionRow {
    /// The cell label.
    pub label: String,
    /// `+`-joined flow tags, in flow order.
    pub workload: String,
    /// Jain's fairness index over the flow throughputs.
    pub fairness: f64,
    /// Aggregate link utilization of the cell.
    pub utilization: f64,
    /// Per-flow tag + metrics, in flow order.
    pub flows: Vec<(String, FlowSummary)>,
}

/// Run the contention matrix and render `contention_fairness.tsv` (one
/// row per flow, with the cell's fairness index and aggregate
/// utilization repeated on each).
pub fn contention(cfg: &ExperimentConfig) -> std::io::Result<Vec<ContentionRow>> {
    let matrix = contention_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;

    let mut f = cfg.tsv("contention_fairness.tsv")?;
    writeln!(
        f,
        "label\tlink\tqueue\tflow\tspec\tthroughput_kbps\tp95_delay_ms\tjain_fairness\tutilization"
    )?;
    let mut rows = Vec::with_capacity(results.len());
    for r in &results {
        let specs = r
            .scenario
            .workload
            .contention_flows()
            .expect("contention matrix cells are contention workloads");
        let m = r.metrics.expect("contention cells produce metrics");
        let fairness = r.fairness.expect("contention cells report fairness");
        let mut flows = Vec::with_capacity(specs.len());
        for (spec, flow) in specs.iter().zip(&r.flows) {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{:.4}\t{:.4}",
                r.scenario.label,
                r.scenario.link.id(),
                r.queue.id(),
                flow.flow,
                spec.tag(),
                flow.throughput_kbps,
                flow.p95_delay_ms,
                fairness,
                m.utilization,
            )?;
            flows.push((spec.tag(), *flow));
        }
        rows.push(ContentionRow {
            label: r.scenario.label.clone(),
            workload: r.scenario.workload.canonical_detail(),
            fairness,
            utilization: m.utilization,
            flows,
        });
    }
    f.flush()?;
    Ok(rows)
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

/// Aggregate view of one workload across every soak cell it appears in.
pub struct SoakRow {
    /// The workload's label tag (scheme or `app-over-carrier`).
    pub workload: String,
    /// Cells aggregated.
    pub cells: usize,
    /// Mean throughput across the workload's cells, kbps.
    pub mean_throughput_kbps: f64,
    /// Mean self-inflicted delay across the workload's cells, ms.
    pub mean_self_inflicted_ms: f64,
}

/// Run the soak matrix and render `soak_matrix.tsv` (one row per cell,
/// every axis spelled out) plus a per-workload aggregate summary.
pub fn soak(cfg: &ExperimentConfig) -> std::io::Result<Vec<SoakRow>> {
    let matrix = soak_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;
    write_cell_series(cfg, &results)?;

    let mut f = cfg.tsv("soak_matrix.tsv")?;
    writeln!(
        f,
        "label\tworkload\tlink\tqueue\tprop_delay_ms\tthroughput_kbps\tp95_delay_ms\tself_inflicted_ms\tutilization\tapp_kbps\tapp_p95_ms"
    )?;
    for r in &results {
        let m = r.metrics.expect("soak cells produce direction metrics");
        let app = r
            .flows
            .iter()
            .find(|fl| fl.flow == sweep::INTERACTIVE_FLOW.0);
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.1}",
            r.scenario.label,
            r.scenario.workload.canonical_detail(),
            r.scenario.link.id(),
            r.queue.id(),
            r.scenario.prop_delay.as_micros() / 1_000,
            metric_columns(&m),
            app.map(|fl| fl.throughput_kbps).unwrap_or(f64::NAN),
            app.map(|fl| fl.p95_delay_ms).unwrap_or(f64::NAN),
        )?;
    }
    f.flush()?;

    // Aggregate per workload, in matrix declaration order. The
    // self-inflicted mean averages the *finite* samples only — a cell
    // whose measurement window saw no deliveries (NaN p95) must not be
    // counted as a zero-delay sample.
    struct Acc {
        workload: String,
        cells: usize,
        throughput_sum: f64,
        self_inflicted_sum: f64,
        self_inflicted_samples: usize,
    }
    let mut accs: Vec<Acc> = Vec::new();
    for r in &results {
        let tag = r.scenario.workload.canonical_detail();
        let m = r.metrics.expect("soak cells produce direction metrics");
        let acc = match accs.iter_mut().find(|a| a.workload == tag) {
            Some(a) => a,
            None => {
                accs.push(Acc {
                    workload: tag,
                    cells: 0,
                    throughput_sum: 0.0,
                    self_inflicted_sum: 0.0,
                    self_inflicted_samples: 0,
                });
                accs.last_mut().expect("just pushed")
            }
        };
        acc.cells += 1;
        acc.throughput_sum += m.throughput_kbps;
        if m.self_inflicted_ms.is_finite() {
            acc.self_inflicted_sum += m.self_inflicted_ms;
            acc.self_inflicted_samples += 1;
        }
    }
    Ok(accs
        .into_iter()
        .map(|a| SoakRow {
            cells: a.cells,
            mean_throughput_kbps: a.throughput_sum / a.cells as f64,
            mean_self_inflicted_ms: if a.self_inflicted_samples == 0 {
                // No cell of this workload produced a valid delay:
                // surface NaN (like the per-cell TSV), not a fake 0 ms.
                f64::NAN
            } else {
                a.self_inflicted_sum / a.self_inflicted_samples as f64
            },
            workload: a.workload,
        })
        .collect())
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
pub fn impair_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    cfg.with_timeseries(
        cfg.matrix("impair")
            .schemes(IMPAIR_SCHEMES)
            .links(cfg.impair.links.iter().copied())
            .impairments(cfg.impair.impairments.iter().map(|(_, imp)| *imp)),
    )
    .build()
}

/// Run the fault-injection matrix and render `impair_degradation.tsv`:
/// one row per cell with the degradation metrics (outage count, worst
/// post-outage recovery time, delivered fraction while degraded)
/// alongside the standard throughput/delay columns.
pub fn impair(cfg: &ExperimentConfig) -> std::io::Result<Vec<SweepResult>> {
    let matrix = impair_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;
    write_cell_series(cfg, &results)?;

    let preset_name = |imp: &Impairment| -> String {
        let id = imp.id();
        cfg.impair
            .impairments
            .iter()
            .find(|(_, spec)| spec.id() == id)
            .map(|(name, _)| name.clone())
            .unwrap_or(id)
    };

    let mut f = cfg.tsv("impair_degradation.tsv")?;
    writeln!(
        f,
        "label\tlink\tscheme\timpairment\tthroughput_kbps\tp95_delay_ms\tself_inflicted_ms\tutilization\toutages\trecovery_ms\tdegraded_delivery"
    )?;
    for r in &results {
        let scheme = r.scenario.workload.scheme().expect("scheme matrix");
        let m = r.metrics.expect("scheme cells produce metrics");
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.4}",
            r.scenario.label,
            r.scenario.link.id(),
            scheme.name(),
            preset_name(&r.scenario.impairment),
            metric_columns(&m),
            m.outages,
            m.recovery_ms,
            m.degraded_delivery,
        )?;
    }
    f.flush()?;
    Ok(results)
}

// ---------------------------------------------------------------- serve

/// The `serve` matrix: the multi-session server across the configured
/// session counts and links. Timing follows its own short default
/// ([`SERVE_SECS`], warmup = one sixth of the run) because each cell
/// costs ~`2 N` path-simulations of work.
pub fn serve_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    let secs = cfg.serve.secs.unwrap_or(cfg.run_secs);
    ScenarioMatrix::builder("serve")
        .timing(Duration::from_secs(secs), Duration::from_secs(secs / 6))
        .serve(cfg.serve.sessions.iter().copied())
        .links(cfg.serve.links.iter().copied())
        .build()
}

/// Run the serve capacity matrix and render `serve_capacity.tsv` (one
/// row per cell): the virtual-time side of serving — bytes delivered and
/// fairness, bit-identical across thread counts. (The wall-clock
/// capacity numbers are `benchmark/`'s `serve-pool` workload's.)
pub fn serve(cfg: &ExperimentConfig) -> std::io::Result<Vec<SweepResult>> {
    let matrix = serve_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;

    let mut f = cfg.tsv("serve_capacity.tsv")?;
    writeln!(
        f,
        "label\tlink\tsessions\tdelivered_bytes\tmin_session_bytes\tmax_session_bytes\twire_delivered_bytes\tjain_fairness"
    )?;
    for r in &results {
        let s = r.serve.expect("serve cells produce serve stats");
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}",
            r.scenario.label,
            r.scenario.link.id(),
            s.sessions,
            s.delivered_bytes,
            s.min_session_bytes,
            s.max_session_bytes,
            s.wire_delivered_bytes,
            r.fairness.expect("serve cells report fairness"),
        )?;
    }
    f.flush()?;
    Ok(results)
}

// --------------------------------------------------------------- replay

/// The `replay` matrix: the configured scheme roster over each measured
/// capture (`LinkSpec::Measured`, identified by content fingerprint).
/// Timing follows its own short default ([`REPLAY_SECS`], warmup = one
/// sixth of the run) because the committed corpus excerpts are only
/// ~40 s long.
pub fn replay_matrix(cfg: &ExperimentConfig) -> ScenarioMatrix {
    let secs = cfg.replay.secs.unwrap_or(cfg.run_secs);
    cfg.with_timeseries(
        ScenarioMatrix::builder("replay")
            .timing(Duration::from_secs(secs), Duration::from_secs(secs / 6))
            .schemes(cfg.replay.schemes.iter().copied())
            .links(
                cfg.replay
                    .traces
                    .iter()
                    .map(|&fp| LinkSpec::Measured { fingerprint: fp }),
            ),
    )
    .build()
}

/// Run the measured-trace replay matrix and render
/// `replay_comparative.tsv` (one row per cell), plus the per-cell
/// time-series TSVs when `--timeseries` is set.
pub fn replay(cfg: &ExperimentConfig) -> std::io::Result<Vec<SweepResult>> {
    let matrix = replay_matrix(cfg);
    let results = cfg.run_matrix(&matrix)?;
    write_cell_series(cfg, &results)?;

    let mut f = cfg.tsv("replay_comparative.tsv")?;
    writeln!(
        f,
        "label\ttrace\tscheme\tthroughput_kbps\tp95_delay_ms\tself_inflicted_ms\tutilization"
    )?;
    for r in &results {
        let scheme = r.scenario.workload.scheme().expect("scheme matrix");
        let m = r.metrics.expect("scheme cells produce metrics");
        writeln!(
            f,
            "{}\t{}\t{}\t{}",
            r.scenario.label,
            r.scenario.link.id(),
            scheme.name(),
            metric_columns(&m),
        )?;
    }
    f.flush()?;
    Ok(results)
}

/// Write the per-cell time-series artifacts for every result that
/// carries one (the `--timeseries` flag): `<matrix>_<id>_delay.tsv`
/// (per-delivery delay vs. time) and `<matrix>_<id>_series.tsv` (binned
/// capacity/throughput/queue-depth), deterministic byte for byte, next
/// to the matrix's sweep JSON. Returns the number of cells rendered.
pub fn write_cell_series(
    cfg: &ExperimentConfig,
    results: &[SweepResult],
) -> std::io::Result<usize> {
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

// -------------------------------------------------------------- helpers

/// The matrices one `reproduce` experiment runs (fig8 derives from the
/// fig7 sweep; `all` is every distinct matrix). Shard workers iterate
/// this to execute their slice of each matrix without rendering figures.
pub fn matrices_for(cfg: &ExperimentConfig, experiment: &str) -> Vec<ScenarioMatrix> {
    match experiment {
        "fig1" => vec![fig1_matrix(cfg)],
        "fig2" => vec![fig2_matrix(cfg)],
        "fig7" | "fig8" => vec![fig7_matrix(cfg)],
        "fig9" => vec![fig9_matrix(cfg)],
        "loss" => vec![loss_matrix(cfg)],
        "tunnel" => vec![tunnel_matrix(cfg)],
        "contention" => vec![contention_matrix(cfg)],
        "soak" => vec![soak_matrix(cfg)],
        "impair" => vec![impair_matrix(cfg)],
        "serve" => vec![serve_matrix(cfg)],
        "replay" => vec![replay_matrix(cfg)],
        // "all" deliberately excludes soak (sized for sharded, resumable
        // execution, not a single sitting) and
        // contention/impair/serve/replay (their matrices are
        // CLI-parameterized — axis flags would silently change what
        // "all" means).
        "all" => vec![
            fig1_matrix(cfg),
            fig2_matrix(cfg),
            fig7_matrix(cfg),
            fig9_matrix(cfg),
            loss_matrix(cfg),
            tunnel_matrix(cfg),
        ],
        other => panic!("unknown experiment {other:?}"),
    }
}

/// The four metric columns the per-cell TSVs share
/// (`throughput_kbps`, `p95_delay_ms`, `self_inflicted_ms`,
/// `utilization`), in their one format.
fn metric_columns(m: &SchemeResult) -> String {
    format!(
        "{:.1}\t{:.1}\t{:.1}\t{:.4}",
        m.throughput_kbps, m.p95_delay_ms, m.self_inflicted_ms, m.utilization
    )
}

/// Render a `SchemeResult` row for console output.
pub fn fmt_result(name: &str, r: &SchemeResult) -> String {
    format!(
        "{name:16} {:>8.0} kbps  p95 {:>9.0} ms  self-inflicted {:>9.0} ms  util {:>5.2}",
        r.throughput_kbps, r.p95_delay_ms, r.self_inflicted_ms, r.utilization
    )
}

/// Ensure the output directory exists (used by the binary).
pub fn ensure_out_dir(path: &Path) -> std::io::Result<()> {
    fs::create_dir_all(path)
}
