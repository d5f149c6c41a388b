//! `resume-warm`: the soak matrix at tiny cells with `--timeseries`
//! semantics, served entirely from the cell cache. No simulation runs in
//! a timed repetition: the time is cache reads (a cell and its series
//! each), decode and JSON encoding — the read side of the layer the cold
//! workloads only write. Set-up populates the cache by executing the
//! matrix, itself the "many tiny cells" regime where per-cell fixed
//! overhead dominates.
//!
//! Rendering the artifacts (`figures::soak`: 866 TSV files, 130 000
//! lines, each line several `write` calls on an unbuffered `File`) is
//! NOT in the timed repetition. It was, and it was 85 % of it: two thirds
//! of a repetition were kernel time in ext4, a repetition took anything
//! from 0.5 s to 1.3 s inside one run while the CPU yardstick stood still
//! (overwriting files, or writing fresh ones — no difference), and the
//! quartiles of ten runs lay 13–35 % apart. That is the host's disk, not
//! the repository's code. The traced pass still renders once and reports
//! it as `bench.render_ms`.

use std::path::Path;
use std::time::Instant;

use sprout_bench::figures::{self, ExperimentConfig, SoakAxes};
use sprout_bench::{cellcache, sweep_to_json, CellCachePolicy, QueueSpec, ScenarioMatrix};
use sprout_trace::NetProfile;

use super::{shuffle, Ctx, Layer, Rep, Workload, DATASET_SEED};
use crate::probes;
use crate::stats;
use crate::tracer::Tracer;

/// Resumes of the whole matrix per repetition: one takes ~15 ms, and a
/// repetition should dwarf the yardstick readings around it.
const RESUMES_PER_REP: u64 = 32;

pub struct ResumeWarm {
    seed: u64,
    cfg: ExperimentConfig,
    matrix: ScenarioMatrix,
    /// Canonical JSON of the populating (executing) run.
    populated_json: String,
    /// Per-cell wall times of the populating run, ms, and the share of
    /// its worker time spent outside cells.
    populate_cell_ms: Vec<f64>,
    populate_overhead_share: f64,
}

impl ResumeWarm {
    pub fn new(ctx: &Ctx) -> Self {
        // The seed orders the two inner soak axes: a different matrix
        // (other ids, other cache keys) of exactly the same cells.
        let mut prop_delays_ms = vec![10, 25, 50, 100];
        let mut queues = vec![
            QueueSpec::Auto,
            QueueSpec::DropTailBytes(figures::SHALLOW_QUEUE_BYTES),
            QueueSpec::CoDel,
        ];
        shuffle(&mut prop_delays_ms, ctx.seed, "resume-warm/prop-delays");
        shuffle(&mut queues, ctx.seed, "resume-warm/queues");
        let cfg = ExperimentConfig {
            run_secs: ctx.secs(6, 3),
            warmup_secs: 1,
            seed: DATASET_SEED,
            timeseries: true,
            soak: SoakAxes {
                links: vec![
                    NetProfile::VerizonLteDown,
                    NetProfile::AttLteUp,
                    NetProfile::Verizon3gDown,
                    NetProfile::TmobileUmtsUp,
                ],
                prop_delays_ms,
                queues,
                secs: None,
            },
            ..ExperimentConfig::default()
        };
        let matrix = figures::soak_matrix(&cfg);
        ResumeWarm {
            seed: ctx.seed,
            cfg,
            matrix,
            populated_json: String::new(),
            populate_cell_ms: Vec::new(),
            populate_overhead_share: 0.0,
        }
    }
}

impl Workload for ResumeWarm {
    fn operation(&self) -> &'static str {
        "cells"
    }

    fn setups(&self) -> usize {
        2
    }

    fn setup(&mut self, dir: &Path) {
        sprout_cache::set_dir(dir.join("cache"));
        self.cfg.out_dir = dir.join("out");
        // Populate on one thread: with two, which cells overlap — and
        // with it the process's peak memory — changes from run to run.
        self.cfg.threads = 1;
        self.cfg.cell_policy = CellCachePolicy::Execute;
        let t0 = Instant::now();
        let results = self
            .cfg
            .run_matrix(&self.matrix)
            .expect("populate the cell cache");
        let worker_ms =
            t0.elapsed().as_secs_f64() * 1e3 * sprout_bench::last_batch_layout().0 as f64;
        self.populate_cell_ms = results.iter().map(|r| r.wall_ms).collect();
        self.populate_overhead_share =
            ((worker_ms - self.populate_cell_ms.iter().sum::<f64>()) / worker_ms).max(0.0);
        self.populated_json = sweep_to_json(self.matrix.name(), DATASET_SEED, &results);
        self.cfg.cell_policy = CellCachePolicy::Resume;
    }

    fn rep(&mut self, threads: usize) -> Rep {
        self.cfg.threads = threads;
        let cells = self.matrix.len() as u64;
        let engine = self.cfg.engine();
        let counters0 = cellcache::cell_cache_counters();
        let mut json = String::new();
        let mut served = true;
        let t0 = Instant::now();
        for _ in 0..RESUMES_PER_REP {
            json = match engine.try_run(&self.matrix) {
                Ok(results) => sweep_to_json(self.matrix.name(), DATASET_SEED, &results),
                Err(_) => String::new(),
            };
            // A resumed sweep whose bytes differ from the run that
            // populated the cache resolved nothing.
            served &= json == self.populated_json;
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let cache = cellcache::cell_cache_counters().since(counters0);
        // Nor did one that executed anything.
        let all = cells * RESUMES_PER_REP;
        served &= (cache.hits, cache.misses, cache.stores) == (all, 0, 0);
        Rep {
            wall_s,
            cells: all,
            session_virtual_s: all as f64 * self.cfg.run_secs as f64,
            fingerprint: sprout_cache::fingerprint64(json.as_bytes()),
            attempted: all,
            failed: if served { 0 } else { all },
        }
    }

    fn traced(&mut self, tracer: &mut Tracer, untraced_s: f64, layer: &mut Layer) {
        let cells = self.matrix.len() as f64;
        self.cfg.threads = 1;

        let (fingerprint, ns) = tracer.span("bench.matrix_build", "bench", "soak", |_| {
            figures::soak_matrix(&self.cfg).fingerprint()
        });
        assert_eq!(fingerprint, self.matrix.fingerprint());
        layer.insert("bench.matrix_build_ms", ns as f64 / 1e6);

        // The repetition, phase by phase: resolve every cell from the
        // cache, encode, render.
        let counters0 = cellcache::cell_cache_counters();
        let rep = tracer.enter("rep", "bench", "soak");
        let (results, run_ns) = tracer.span("bench.engine_run", "bench", "soak", |_| {
            self.cfg
                .engine()
                .try_run(&self.matrix)
                .expect("a populated cache resumes")
        });
        let counters = cellcache::cell_cache_counters().since(counters0);
        let (json, json_ns) = tracer.span("bench.sweep_to_json", "bench", "soak", |_| {
            sweep_to_json(self.matrix.name(), DATASET_SEED, &results)
        });
        assert_eq!(json, self.populated_json, "resume must reproduce populate");
        tracer.exit(rep);
        let (_, soak_ns) = tracer.span("bench.soak", "bench", "soak", |_| {
            figures::soak(&self.cfg).expect("render the soak artifacts")
        });
        layer.insert("bench.json_us_per_cell", json_ns as f64 / 1e3 / cells);
        layer.insert(
            "bench.render_ms",
            soak_ns.saturating_sub(run_ns) as f64 / 1e6,
        );
        // Of the populating run (set-up): tiny cells, so the engine's
        // per-cell fixed cost shows.
        layer.insert("bench.engine_overhead_share", self.populate_overhead_share);
        let mut walls = self.populate_cell_ms.clone();
        walls.sort_by(f64::total_cmp);
        layer.insert("bench.cell_ms_p50", stats::percentile(&walls, 50.0));
        layer.insert("bench.cell_ms_p95", stats::percentile(&walls, 95.0));
        layer.insert("bench.cell_ms_max", walls[walls.len() - 1]);
        layer.insert(
            "bench.trace_overhead",
            (run_ns + json_ns) as f64 / 1e9 / (untraced_s / RESUMES_PER_REP as f64),
        );
        layer.insert("cache.hits", counters.hits as f64);
        layer.insert("cache.misses", counters.misses as f64);
        layer.insert("cache.stores", counters.stores as f64);
        layer.insert(
            "cache.hit_ratio",
            counters.hits as f64 / (counters.hits + counters.misses).max(1) as f64,
        );

        // Cell by cell: one load and one store each.
        let matrix_fp = self.matrix.fingerprint();
        let mut load_us = Vec::with_capacity(results.len());
        let mut store_us = Vec::with_capacity(results.len());
        for (cell, result) in self.matrix.cells().iter().zip(&results) {
            let (loaded, ns) = tracer.span("bench.load_cell", "bench", &cell.label, |t| {
                t.span("cache.load", "cache", &cell.label, |_| {
                    cellcache::load_cell(self.matrix.name(), matrix_fp, cell, DATASET_SEED)
                })
                .0
            });
            assert!(loaded.is_some(), "{} is cached", cell.label);
            load_us.push(ns as f64 / 1e3);
            let (_, ns) = tracer.span("bench.store_cell", "bench", &cell.label, |t| {
                t.span("cache.store", "cache", &cell.label, |_| {
                    cellcache::store_cell(matrix_fp, DATASET_SEED, result)
                })
            });
            store_us.push(ns as f64 / 1e3);
        }
        layer.insert("bench.load_cell_us", stats::median(&load_us));
        layer.insert("bench.store_cell_us", stats::median(&store_us));

        probes::cache(self.seed, tracer, layer);
    }
}
