//! The three cold-sweep workloads: `sprout-forecast`, `baseline-bulk`,
//! `mixed-matrix`. Each hands one or more scenario matrices to the
//! [`SweepEngine`] with policy `Execute` against a warm table/trace
//! cache, encodes the canonical sweep JSON and writes it — what
//! `reproduce <experiment>` does for a user.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sprout_bench::scenario::paired;
use sprout_bench::{
    build_endpoints, cellcache, sweep_to_json, FlowSpec, LinkSpec, ResolvedQueue, RunConfig,
    Scenario, ScenarioMatrix, Scheme, SchemeResult, SweepEngine, SweepError, SweepResult, VideoApp,
    Workload as Cell,
};
use sprout_core::{ForecastTables, SproutConfig};
use sprout_sim::{
    direction_stats, CoDelConfig, LinkImpairment, PathConfig, QueueConfig, Simulation,
    DEEP_QUEUE_BYTES,
};
use sprout_trace::{
    derive_labeled_seed, Duration, Impairment, NetProfile, OutageSchedule, Timestamp, Trace,
};

use super::{shuffle, Ctx, Layer, Rep, Workload, DATASET_SEED};
use crate::probes;
use crate::stats;
use crate::timed::{CallStats, Timed};
use crate::tracer::Tracer;

/// Which layer's probes a sweep workload is home to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    SproutForecast,
    BaselineBulk,
    MixedMatrix,
}

/// A cold-sweep workload.
pub struct Sweep {
    kind: Kind,
    seed: u64,
    matrices: Vec<ScenarioMatrix>,
    cache_dir: PathBuf,
    out_dir: PathBuf,
    /// Per-cell wall times of every `threads=1` repetition, ms.
    cell_walls_ms: Vec<f64>,
    /// `(wall − Σ cell walls) / wall` of every `threads=1` repetition.
    overhead_shares: Vec<f64>,
    /// The most recent `threads=1` repetition: results by matrix, and
    /// the process-global counter deltas it caused.
    last: Option<LastRep>,
}

struct LastRep {
    results: Vec<Vec<SweepResult>>,
    cell_cache: sprout_cache::CacheCounters,
    tables: sprout_core::MemCounters,
    traces: sprout_core::MemCounters,
    batches: usize,
}

/// Put the cells of `matrix` in link-group order (groups in first
/// occurrence order, which is also the batch executor's order, so the
/// two-thread schedule is the same for every seed) and shuffle the cells
/// inside each group with `seed`. Ids are renumbered by position, so a
/// cell's derived seed follows the shuffle.
fn arrange(matrix: ScenarioMatrix, seed: u64) -> ScenarioMatrix {
    let mut groups: Vec<(LinkSpec, Vec<Scenario>)> = Vec::new();
    for cell in matrix.cells() {
        match groups.iter_mut().find(|(link, _)| *link == cell.link) {
            Some((_, cells)) => cells.push(cell.clone()),
            None => groups.push((cell.link, vec![cell.clone()])),
        }
    }
    let mut cells = Vec::with_capacity(matrix.len());
    for (link, mut group) in groups {
        shuffle(
            &mut group,
            seed,
            &format!("{}/{}", matrix.name(), link.id()),
        );
        cells.append(&mut group);
    }
    for (i, cell) in cells.iter_mut().enumerate() {
        cell.id = i as u64;
    }
    ScenarioMatrix::from_cells(matrix.name().to_string(), cells)
}

impl Sweep {
    fn new(kind: Kind, ctx: &Ctx, matrices: Vec<ScenarioMatrix>) -> Self {
        Sweep {
            kind,
            seed: ctx.seed,
            matrices: matrices.into_iter().map(|m| arrange(m, ctx.seed)).collect(),
            cache_dir: PathBuf::new(),
            out_dir: PathBuf::new(),
            cell_walls_ms: Vec::new(),
            overhead_shares: Vec::new(),
            last: None,
        }
    }

    /// Sprout across the Figure-9 confidence axis on a fast and a slow
    /// link: `sprout-core` (forecast + model tick) does most of the work.
    pub fn sprout_forecast(ctx: &Ctx) -> Self {
        let matrix = ScenarioMatrix::builder("sprout-forecast")
            .schemes([Scheme::Sprout])
            .links([NetProfile::VerizonLteDown, NetProfile::TmobileUmtsUp])
            .confidences_pct([95.0, 75.0, 50.0, 25.0, 5.0])
            .timing(
                Duration::from_secs(ctx.secs(60, 12)),
                Duration::from_secs(ctx.secs(10, 2)),
            )
            .build();
        Sweep::new(Kind::SproutForecast, ctx, vec![matrix])
    }

    /// Six TCP baselines on three LTE links at long runs: no
    /// `sprout-core` code runs; time goes to link/queue stepping, the
    /// delivery log, metrics reduction and the baseline endpoints.
    pub fn baseline_bulk(ctx: &Ctx) -> Self {
        let matrix = ScenarioMatrix::builder("baseline-bulk")
            .schemes([
                Scheme::Cubic,
                Scheme::CubicCodel,
                Scheme::Vegas,
                Scheme::Compound,
                Scheme::Ledbat,
                Scheme::Reno,
            ])
            .links([
                NetProfile::VerizonLteDown,
                NetProfile::VerizonLteUp,
                NetProfile::AttLteDown,
            ])
            .timing(
                Duration::from_secs(ctx.secs(300, 30)),
                Duration::from_secs(ctx.secs(20, 3)),
            )
            .build();
        Sweep::new(Kind::BaselineBulk, ctx, vec![matrix])
    }

    /// One cell of every workload kind on two links, plus impaired and
    /// measured-capture cells: three matrices run back to back.
    pub fn mixed_matrix(ctx: &Ctx) -> Self {
        let links = [NetProfile::VerizonLteDown, NetProfile::TmobileUmtsUp];
        let timing = (
            Duration::from_secs(ctx.secs(30, 10)),
            Duration::from_secs(ctx.secs(5, 2)),
        );
        let kinds = ScenarioMatrix::builder("mixed-kinds")
            .schemes([Scheme::Sprout, Scheme::Cubic, Scheme::Skype])
            .apps([VideoApp::Skype], [Scheme::Sprout, Scheme::Cubic])
            .workloads([Cell::MuxDirect, Cell::MuxTunneled])
            .contention([vec![
                FlowSpec::Scheme(Scheme::Sprout),
                FlowSpec::Scheme(Scheme::Cubic),
                FlowSpec::App {
                    app: VideoApp::Skype,
                    over: Scheme::Sprout,
                },
            ]])
            .serve([4])
            .workloads([Cell::InterarrivalProbe])
            .links(links)
            .timing(timing.0, timing.1)
            .build();
        let storm = ScenarioMatrix::builder("mixed-storm")
            .schemes([Scheme::Sprout, Scheme::Cubic])
            .links(links)
            .impairments([Impairment::preset("storm").expect("built-in preset")])
            .timing(timing.0, timing.1)
            .build();
        // The measured captures are ~40 s long; a replay cell stays
        // inside the shortest one.
        let replay_secs = ctx.secs(30, 10);
        let replay = ScenarioMatrix::builder("mixed-replay")
            .schemes([Scheme::Sprout, Scheme::Cubic])
            .links(
                sprout_bench::default_corpus_fingerprints()
                    .into_iter()
                    .map(|fingerprint| LinkSpec::Measured { fingerprint }),
            )
            .timing(
                Duration::from_secs(replay_secs),
                Duration::from_secs(replay_secs / 6),
            )
            .build();
        Sweep::new(Kind::MixedMatrix, ctx, vec![kinds, storm, replay])
    }

    fn cells(&self) -> impl Iterator<Item = &Scenario> {
        self.matrices.iter().flat_map(|m| m.cells())
    }

    fn reaches_core(&self) -> bool {
        self.kind != Kind::BaselineBulk
    }

    /// Every distinct synthetic `(link, duration)` the matrices replay,
    /// feedback directions included.
    fn synthetic_links(&self) -> Vec<(NetProfile, Duration)> {
        let mut links = Vec::new();
        for cell in self.cells() {
            if cell.workload == Cell::InterarrivalProbe {
                continue; // the probe synthesizes its own saturated trace
            }
            for link in [cell.link, paired(cell.link)] {
                if let Some(profile) = link.profile() {
                    if !links.contains(&(profile, cell.duration)) {
                        links.push((profile, cell.duration));
                    }
                }
            }
        }
        links
    }
}

/// Sessions (flows) one cell simulates, for `sessions_per_sec`.
fn sessions_of(cell: &Scenario) -> u64 {
    match &cell.workload {
        Cell::Scheme(_) => 1,
        Cell::App { over, .. } => {
            if over.tunnels_apps() {
                1
            } else {
                2
            }
        }
        Cell::Contention { flows } => flows.len() as u64,
        Cell::Serve { sessions } => u64::from(*sessions),
        Cell::MuxDirect | Cell::MuxTunneled => 2,
        Cell::InterarrivalProbe => 1,
    }
}

/// A cell's result is usable: the numbers a figure would plot are finite.
fn finite(result: &SweepResult) -> bool {
    result
        .metrics
        .is_none_or(|m| m.throughput_kbps.is_finite() && m.utilization.is_finite())
}

impl Workload for Sweep {
    fn operation(&self) -> &'static str {
        "cells"
    }

    fn setup(&mut self, dir: &Path) {
        self.cache_dir = dir.join("cache");
        self.out_dir = dir.join("out");
        std::fs::create_dir_all(&self.out_dir).expect("create the out dir");
        sprout_cache::set_dir(&self.cache_dir);
        // What the first sweep against an empty cache directory pays
        // before any cell runs: the forecast-table DP, trace synthesis
        // for every link direction, ingest of the measured captures.
        if self.reaches_core() {
            ForecastTables::load_or_build(&SproutConfig::paper());
        }
        for (link, duration) in self.synthetic_links() {
            link.generate(duration, DATASET_SEED);
        }
        if self.kind == Kind::MixedMatrix {
            sprout_bench::default_corpus_fingerprints();
        }
    }

    fn rep(&mut self, threads: usize) -> Rep {
        let cell0 = cellcache::cell_cache_counters();
        let tables0 = sprout_core::table_memory_counters();
        let traces0 = sprout_bench::trace_memory_counters();
        let mut rep = Rep::default();
        let mut canonical = String::new();
        let mut all_results = Vec::new();
        let mut batches = 0;
        let t0 = Instant::now();
        for matrix in &self.matrices {
            rep.attempted += matrix.len() as u64;
            let engine = SweepEngine::new(DATASET_SEED).with_threads(threads);
            match engine.try_run(matrix) {
                Ok(results) => {
                    let json = sweep_to_json(matrix.name(), DATASET_SEED, &results);
                    std::fs::write(
                        self.out_dir.join(format!("{}_sweep.json", matrix.name())),
                        &json,
                    )
                    .expect("write the sweep JSON");
                    rep.failed += results.iter().filter(|r| !finite(r)).count() as u64;
                    canonical.push_str(&json);
                    batches += sprout_bench::last_batch_layout().1;
                    all_results.push(results);
                }
                Err(SweepError::CellsPanicked { failures, .. }) => {
                    rep.failed += failures.len() as u64;
                    all_results.push(Vec::new());
                }
                Err(e @ SweepError::MissingCells { .. }) => {
                    unreachable!("policy Execute never merges: {e}")
                }
            }
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.cells = rep.attempted;
        rep.session_virtual_s = self
            .cells()
            .map(|c| sessions_of(c) as f64 * c.duration.as_secs_f64())
            .sum();
        rep.fingerprint = sprout_cache::fingerprint64(canonical.as_bytes());
        if threads == 1 {
            let cell_ms: Vec<f64> = all_results.iter().flatten().map(|r| r.wall_ms).collect();
            let busy_s = cell_ms.iter().sum::<f64>() / 1e3;
            self.overhead_shares
                .push(((rep.wall_s - busy_s) / rep.wall_s).max(0.0));
            self.cell_walls_ms.extend(cell_ms);
            self.last = Some(LastRep {
                results: all_results,
                cell_cache: cellcache::cell_cache_counters().since(cell0),
                tables: sprout_core::table_memory_counters().since(tables0),
                traces: sprout_bench::trace_memory_counters().since(traces0),
                batches,
            });
        }
        rep
    }

    fn traced(&mut self, tracer: &mut Tracer, _untraced_s: f64, layer: &mut Layer) {
        let last = self.last.take().expect("timed repetitions ran first");

        // Engine-level accounting of the untraced repetitions.
        layer.insert(
            "bench.engine_overhead_share",
            stats::median(&self.overhead_shares),
        );
        let mut walls = self.cell_walls_ms.clone();
        walls.sort_by(f64::total_cmp);
        layer.insert("bench.cell_ms_p50", stats::percentile(&walls, 50.0));
        layer.insert("bench.cell_ms_p95", stats::percentile(&walls, 95.0));
        layer.insert("bench.cell_ms_max", walls[walls.len() - 1]);
        layer.insert("bench.batches", last.batches as f64);
        layer.insert("bench.tables_built", last.tables.built as f64);
        layer.insert("bench.tables_reused", last.tables.reused as f64);
        layer.insert("bench.traces_built", last.traces.built as f64);
        layer.insert("bench.traces_reused", last.traces.reused as f64);
        layer.insert("cache.hits", last.cell_cache.hits as f64);
        layer.insert("cache.misses", last.cell_cache.misses as f64);
        layer.insert("cache.stores", last.cell_cache.stores as f64);

        // Encode and store spans, cell by cell, on the last repetition's
        // results.
        let (mut json_ns, mut store_ns, mut cells) = (0u64, 0u64, 0u64);
        for (matrix, results) in self.matrices.iter().zip(&last.results) {
            let fingerprint = matrix.fingerprint();
            let (_, ns) = tracer.span("bench.sweep_to_json", "bench", matrix.name(), |_| {
                sweep_to_json(matrix.name(), DATASET_SEED, results)
            });
            json_ns += ns;
            for result in results {
                let (_, ns) =
                    tracer.span("bench.store_cell", "bench", &result.scenario.label, |t| {
                        t.span("cache.store", "cache", &result.scenario.label, |_| {
                            cellcache::store_cell(fingerprint, DATASET_SEED, result)
                        })
                    });
                store_ns += ns;
                cells += 1;
            }
        }
        layer.insert(
            "bench.json_us_per_cell",
            json_ns as f64 / 1e3 / cells as f64,
        );
        layer.insert("bench.store_cell_us", store_ns as f64 / 1e3 / cells as f64);

        // Scheme cells once more, inside a benchmark-built simulation
        // whose endpoints sit behind the timing adapter — and, back to
        // back with each, the same cell without adapter or spans, so the
        // overhead ratio compares like with like under one host mood.
        let totals = adapter_pass(tracer, &last.results);
        totals.report(layer);
        if !self.reaches_core() {
            // Layer separation, checked: nothing this workload ran was
            // `sprout-core` code.
            assert_eq!(
                tracer.layer_ns("core"),
                0,
                "a core span on {:?}",
                self.out_dir
            );
            assert_eq!(last.tables.built + last.tables.reused, 0);
        }

        // Home probes.
        probes::trace_synth_and_load(&self.synthetic_links(), &self.cache_dir, tracer, layer);
        probes::sim_link(layer);
        if self.reaches_core() {
            probes::core_tables(tracer, layer);
            probes::core_kernels(self.seed, layer);
        }
        if self.kind == Kind::MixedMatrix {
            probes::trace_ingest(tracer, layer);
        }
        if self.kind == Kind::SproutForecast {
            probes::cache(self.seed, tracer, layer);
        }
    }
}

/// Every scheme cell of `results` twice, back to back: behind the timing
/// adapter with spans, and plain (alternating which goes first). Both
/// must reproduce the engine's metrics for the cell.
fn adapter_pass(tracer: &mut Tracer, results: &[Vec<SweepResult>]) -> AdapterTotals {
    let mut totals = AdapterTotals::default();
    for result in results.iter().flatten() {
        let Cell::Scheme(scheme) = result.scenario.workload else {
            continue;
        };
        let cell = &result.scenario;
        let engine = result.metrics.expect("scheme cells have metrics");
        let plain_first = totals.cells.is_multiple_of(2);
        for traced in [!plain_first, plain_first] {
            let metrics = if traced {
                traced_scheme_cell(tracer, cell, scheme, &mut totals)
            } else {
                let t0 = Instant::now();
                let metrics = plain_scheme_cell(cell, scheme);
                totals.plain_ms += t0.elapsed().as_secs_f64() * 1e3;
                metrics
            };
            assert!(
                same_metrics(&metrics, &engine),
                "{}: rebuilt outside the engine (adapter: {traced}), the cell simulated something else",
                cell.label
            );
        }
    }
    totals
}

/// One scheme cell the way the traced pass runs it, minus adapter and
/// spans: the like-for-like baseline of `bench.trace_overhead`.
fn plain_scheme_cell(cell: &Scenario, scheme: Scheme) -> SchemeResult {
    let rc = run_config(cell);
    let (ab, ba) = path_configs(&rc, cell.queue.resolve(&cell.workload));
    let (a, b) = build_endpoints(scheme, &rc);
    let mut sim = Simulation::new(a, b, ab, ba);
    let end = Timestamp::ZERO + cell.duration;
    sim.run_until(end);
    let stats = direction_stats(sim.ab_path(), Timestamp::ZERO + cell.warmup, end);
    SchemeResult::from_stats(&stats)
}

/// The link trace a cell replays, resolved the way the engine does.
fn trace_for(link: LinkSpec, duration: Duration) -> Trace {
    match link {
        LinkSpec::Profile(profile) => profile.generate(duration, DATASET_SEED),
        LinkSpec::Measured { fingerprint } => sprout_trace::lookup_trace(fingerprint)
            .expect("the corpus was registered when the matrix was declared")
            .truncated(Timestamp::ZERO + duration),
    }
}

/// The [`RunConfig`] the engine derives for `cell` (same seeds, same
/// traces), rebuilt from public pieces.
pub fn run_config(cell: &Scenario) -> RunConfig {
    let cell_seed = derive_labeled_seed(DATASET_SEED, "cell", cell.id);
    let sub = |label: &str| derive_labeled_seed(cell_seed, label, 0);
    RunConfig {
        duration: cell.duration,
        warmup: cell.warmup,
        prop_delay: cell.prop_delay,
        loss_rate: cell.loss_rate,
        sprout: match cell.confidence_pct {
            Some(pct) => SproutConfig::with_confidence_percent(pct),
            None => SproutConfig::paper(),
        },
        loss_seed_data: sub("loss-data"),
        loss_seed_feedback: sub("loss-feedback"),
        impairment: cell.impairment,
        impair_seed_data: sub("impair-data"),
        impair_seed_feedback: sub("impair-feedback"),
        outage_seed: sub("impair-outage"),
        serve_seed: cell_seed,
        ..RunConfig::new(
            trace_for(cell.link, cell.duration),
            trace_for(paired(cell.link), cell.duration),
        )
    }
}

/// Both directions' path configuration for a cell, as the engine builds
/// them: the resolved queue on both, per-direction loss and impairment
/// streams, one outage schedule shared by the pair.
pub fn path_configs(rc: &RunConfig, queue: ResolvedQueue) -> (PathConfig, PathConfig) {
    let path = |trace: &Trace, loss_seed: u64, impair_seed: u64, outages: OutageSchedule| {
        let mut cfg = PathConfig::standard(trace.clone()).with_prop_delay(rc.prop_delay);
        cfg.link.queue = match queue {
            ResolvedQueue::DropTail => QueueConfig::DropTailBytes(DEEP_QUEUE_BYTES),
            ResolvedQueue::DropTailBytes(cap) => QueueConfig::DropTailBytes(cap),
            ResolvedQueue::CoDel => QueueConfig::CoDel(CoDelConfig::default()),
        };
        if rc.loss_rate > 0.0 {
            cfg.link.loss_rate = rc.loss_rate;
            cfg.link.loss_seed = loss_seed;
        }
        if !rc.impairment.is_none() {
            cfg.link.impair = LinkImpairment::from_spec(&rc.impairment, impair_seed, outages);
        }
        cfg
    };
    let outages = rc
        .impairment
        .outage
        .map(|spec| OutageSchedule::generate(&spec, rc.outage_seed, rc.duration))
        .unwrap_or_default();
    (
        path(
            &rc.data_trace,
            rc.loss_seed_data,
            rc.impair_seed_data,
            outages.clone(),
        ),
        path(
            &rc.feedback_trace,
            rc.loss_seed_feedback,
            rc.impair_seed_feedback,
            outages,
        ),
    )
}

/// The crate a scheme's endpoints live in.
fn endpoint_layer(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::Sprout | Scheme::SproutEwma => "core",
        _ => "baselines",
    }
}

/// Bitwise equality of two metric rows (NaN equals NaN).
pub fn same_metrics(a: &SchemeResult, b: &SchemeResult) -> bool {
    let bits = |m: &SchemeResult| {
        [
            m.throughput_kbps,
            m.p95_delay_ms,
            m.self_inflicted_ms,
            m.omniscient_ms,
            m.utilization,
            m.recovery_ms,
            m.degraded_delivery,
        ]
        .map(f64::to_bits)
    };
    bits(a) == bits(b) && a.outages == b.outages
}

/// What the adapter pass adds up over a workload's scheme cells.
#[derive(Default)]
struct AdapterTotals {
    endpoint: BTreeMap<&'static str, CallStats>,
    /// `run_until` time of the cells whose endpoints belong to a layer.
    run_ns_by_layer: BTreeMap<&'static str, u64>,
    run_ns: u64,
    loop_self_ns: u64,
    reduce_ns: u64,
    cells: u64,
    deliveries: u64,
    opportunities: u64,
    queue_drops: u64,
    /// Wall time of the traced cells — trace lookups and reduction
    /// included — and of the same cells run plain.
    traced_ms: f64,
    plain_ms: f64,
}

impl AdapterTotals {
    fn report(&self, layer: &mut Layer) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        for (name, [busy_share, ns_per_poll, ns_per_packet]) in [
            (
                "core",
                [
                    "core.endpoint_busy_share",
                    "core.ns_per_poll",
                    "core.ns_per_packet",
                ],
            ),
            (
                "baselines",
                [
                    "baselines.endpoint_busy_share",
                    "baselines.ns_per_poll",
                    "baselines.ns_per_packet",
                ],
            ),
        ] {
            let Some(stats) = self.endpoint.get(name) else {
                continue;
            };
            let run_ns = self.run_ns_by_layer[name];
            layer.insert(busy_share, ratio(stats.busy_ns(), run_ns));
            layer.insert(ns_per_poll, ratio(stats.polls.ns(), stats.polls.count));
            layer.insert(
                ns_per_packet,
                ratio(stats.packets.ns(), stats.packets.count),
            );
        }
        if let Some(core) = self.endpoint.get("core") {
            layer.insert("core.polls", core.polls.count as f64);
            layer.insert("core.packets_in", core.packets.count as f64);
        }
        layer.insert("sim.loop_self_share", ratio(self.loop_self_ns, self.run_ns));
        layer.insert(
            "sim.loop_ns_per_delivery",
            ratio(self.loop_self_ns, self.deliveries),
        );
        layer.insert(
            "sim.loop_ns_per_opportunity",
            ratio(self.loop_self_ns, self.opportunities),
        );
        layer.insert("sim.deliveries", self.deliveries as f64);
        layer.insert("sim.opportunities", self.opportunities as f64);
        layer.insert("sim.queue_drops", self.queue_drops as f64);
        layer.insert(
            "sim.metrics_reduce_ms",
            self.reduce_ns as f64 / 1e6 / self.cells.max(1) as f64,
        );
        if self.plain_ms > 0.0 {
            layer.insert("bench.trace_overhead", self.traced_ms / self.plain_ms);
        }
    }
}

/// Run one scheme cell in a benchmark-built [`Simulation`] with both
/// endpoints behind [`Timed`], recording spans for the trace lookups, the
/// event loop and the metrics reduction. Returns the cell's metrics.
fn traced_scheme_cell(
    tracer: &mut Tracer,
    cell: &Scenario,
    scheme: Scheme,
    totals: &mut AdapterTotals,
) -> SchemeResult {
    let ep_layer = endpoint_layer(scheme);
    let (metrics, cell_ns) = tracer.span("cell", "bench", &cell.label, |tracer| {
        let (rc, _) = tracer.span("trace.load", "trace", &cell.label, |_| run_config(cell));
        let queue = cell.queue.resolve(&cell.workload);
        let (ab, ba) = path_configs(&rc, queue);
        let (a, b) = build_endpoints(scheme, &rc);
        let mut sim = Simulation::new(Timed::sampled(a), Timed::sampled(b), ab, ba);
        let end = Timestamp::ZERO + cell.duration;

        let run = tracer.enter("sim.run_until", "sim", &cell.label);
        sim.run_until(end);
        let run_ns = tracer.exit(run);
        let mut calls = sim.a.stats;
        calls.add(sim.b.stats);
        tracer.aggregate(
            "endpoint.poll_into",
            ep_layer,
            run,
            calls.polls.ns(),
            calls.polls.count,
        );
        tracer.aggregate(
            "endpoint.on_packet",
            ep_layer,
            run,
            calls.packets.ns(),
            calls.packets.count,
        );
        totals.endpoint.entry(ep_layer).or_default().add(calls);
        *totals.run_ns_by_layer.entry(ep_layer).or_default() += run_ns;
        totals.run_ns += run_ns;
        totals.loop_self_ns += tracer.self_ns(run);

        let from = Timestamp::ZERO + cell.warmup;
        let (stats, reduce_ns) = tracer.span("sim.metrics_reduce", "sim", &cell.label, |_| {
            direction_stats(sim.ab_path(), from, end)
        });
        totals.reduce_ns += reduce_ns;
        for path in [sim.ab_path(), sim.ba_path()] {
            totals.deliveries += path.metrics().records().len() as u64;
            totals.opportunities +=
                path.link().used_opportunities() + path.link().wasted_opportunities();
            totals.queue_drops += path.link().queue_drops();
        }
        SchemeResult::from_stats(&stats)
    });
    totals.cells += 1;
    totals.traced_ms += cell_ns as f64 / 1e6;
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_bench::sweep::execute_scenario;

    fn tiny_ctx() -> Ctx {
        Ctx {
            seed: 3,
            shrink: 6,
            bin_dir: PathBuf::new(),
            pid_dir: PathBuf::new(),
        }
    }

    /// The adapter is pass-through: a Sprout cell and a Cubic cell run
    /// behind it produce exactly the metrics the engine's own executor
    /// produces for the same scenario.
    #[test]
    fn traced_cells_match_the_engine_bit_for_bit() {
        sprout_cache::disable();
        let matrix = ScenarioMatrix::builder("adapter")
            .schemes([Scheme::Sprout, Scheme::Cubic])
            .links([NetProfile::TmobileUmtsUp])
            .timing(Duration::from_secs(12), Duration::from_secs(2))
            .build();
        let engine: Vec<SweepResult> = matrix
            .cells()
            .iter()
            .map(|cell| execute_scenario(matrix.name(), cell, DATASET_SEED))
            .collect();
        let mut tracer = Tracer::default();
        // Panics unless both cells reproduce the engine's metrics.
        let totals = adapter_pass(&mut tracer, &[engine]);
        assert_eq!(totals.cells, 2);
        assert!(totals.endpoint["core"].polls.count > 0);
        assert!(totals.endpoint["baselines"].packets.count > 0);
        assert!(totals.loop_self_ns > 0 && totals.loop_self_ns < totals.run_ns);
        assert!(tracer.layer_ns("core") > 0 && tracer.layer_ns("baselines") > 0);
    }

    #[test]
    fn arranging_keeps_link_groups_in_order_and_renumbers_cells() {
        let by_seed = |seed: u64| {
            Sweep::baseline_bulk(&Ctx { seed, ..tiny_ctx() })
                .matrices
                .remove(0)
        };
        let (a, b) = (by_seed(1), by_seed(2));
        assert_eq!(a.len(), 18);
        let links = |m: &ScenarioMatrix| m.cells().iter().map(|c| c.link.id()).collect::<Vec<_>>();
        assert_eq!(links(&a), links(&b), "group order does not follow the seed");
        assert!(links(&a).windows(2).filter(|w| w[0] != w[1]).count() == 2);
        let labels = |m: &ScenarioMatrix| {
            m.cells()
                .iter()
                .map(|c| c.label.clone())
                .collect::<Vec<_>>()
        };
        assert_ne!(labels(&a), labels(&b), "order inside a group does");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(by_seed(1).fingerprint(), a.fingerprint());
        let mut sorted = (labels(&a), labels(&b));
        sorted.0.sort();
        sorted.1.sort();
        assert_eq!(sorted.0, sorted.1, "every seed asks for the same cells");
    }

    #[test]
    fn mixed_matrix_has_one_cell_of_every_kind() {
        let sweep = Sweep::mixed_matrix(&tiny_ctx());
        assert_eq!(sweep.cells().count(), 28);
        let mut kinds: Vec<&str> = sweep.cells().map(|c| c.workload.id()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            kinds,
            [
                "app",
                "contention",
                "interarrival-probe",
                "mux-direct",
                "mux-tunneled",
                "scheme",
                "serve"
            ]
        );
        assert!(sweep.cells().any(|c| !c.impairment.is_none()));
        assert!(sweep.cells().any(|c| c.link.profile().is_none()));
    }
}
