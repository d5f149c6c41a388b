//! The six workloads and what they share.
//!
//! Common rules. All times are host time; simulated statistics are
//! checked, never timed. A workload runs in its own child process of the
//! harness with a private cache/out/state directory under
//! `benchmark/out/tmp`. Load is closed-loop batch work from one process
//! with at most two threads or children.
//!
//! **What `--seed` generates.** The link traces are the benchmark's fixed
//! dataset: the repository's synthetic stand-ins for the paper's eight
//! captures at the default master seed ([`DATASET_SEED`]), the same traces
//! every `reproduce` run uses unless told otherwise. A trace's capacity —
//! and with it the host time a cell costs — moves by ±10 % from one trace
//! seed to the next (measured on `tmo-3g-up`, 180 s), which would drown a
//! 10 % regression bound, so the traces do not follow `--seed`. What does:
//! the *request*. The seed orders the cells inside each link group of a
//! matrix (and so gives each cell its id and its derived cell seed, from
//! which loss, impairment and per-session streams stem), orders the soak
//! axes, picks the session ids of the serve pool, and fills every probe's
//! inputs. Every seed therefore asks for the same amount of work in a
//! different arrangement, and the same seed asks for the same bytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sprout_trace::derive_labeled_seed;

use crate::tracer::Tracer;

pub mod control;
pub mod resume;
pub mod serve;
pub mod sweep;

/// Master seed of every sweep the benchmark runs: the repository's
/// default (`ExperimentConfig::default().seed`), so the traces are the
/// ones users simulate.
pub const DATASET_SEED: u64 = 20130401;

/// Where a workload runs and how big it is.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// `--seed`: generates the request (see the module docs).
    pub seed: u64,
    /// 1 for a measured run; 6 for `--smoke`, which divides every
    /// virtual duration by it.
    pub shrink: u64,
    /// Directory holding the `reproduce` and `sprout-control` binaries.
    pub bin_dir: PathBuf,
    /// Where a workload leaves one empty file per process it started,
    /// named by pid, so `run.sh` can kill leftovers if the harness dies.
    pub pid_dir: PathBuf,
}

impl Ctx {
    /// `secs / shrink`, at least `floor`.
    pub fn secs(&self, secs: u64, floor: u64) -> u64 {
        (secs / self.shrink).max(floor)
    }
}

/// Outcome of one repetition.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    /// Cells this repetition resolved.
    pub cells: u64,
    /// Session·virtual-seconds it resolved.
    pub session_virtual_s: f64,
    /// `fingerprint64` of the repetition's canonical output.
    pub fingerprint: u64,
    /// Operations attempted / failed (cells, sessions or sweeps).
    pub attempted: u64,
    pub failed: u64,
}

/// Per-layer metric values of a traced run, by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// One benchmark workload. The harness drives it: set-up (timed, several
/// times, each on a fresh directory), one discarded warm-up repetition,
/// timed repetitions, and — in a traced run — one traced pass.
pub trait Workload {
    /// The unit `attempted`/`failed` count.
    fn operation(&self) -> &'static str;

    /// How many times set-up is run and timed.
    fn setups(&self) -> usize {
        3
    }

    /// The thread (or worker) count `submit_to_merged_s` and
    /// `sessions_per_sec` are reported at.
    fn primary_threads(&self) -> usize {
        1
    }

    /// The other thread count repetitions run at, for `cells_per_sec` /
    /// `cells_per_sec_2t`; `None` gives the primary one the whole budget.
    fn secondary_threads(&self) -> Option<usize> {
        Some(3 - self.primary_threads())
    }

    /// Cold start in `dir` (which does not exist yet): everything a user
    /// pays once per cache directory before the first repetition.
    fn setup(&mut self, dir: &Path);

    /// One repetition at `threads` threads (or workers).
    fn rep(&mut self, threads: usize) -> Rep;

    /// The traced pass: run the workload once more with spans and timing
    /// adapters on, run the probes of the layers it reaches, and fill
    /// `layer`. `untraced_s` is the median untraced repetition at
    /// [`Self::primary_threads`].
    fn traced(&mut self, tracer: &mut Tracer, untraced_s: f64, layer: &mut Layer);

    /// Peak resident memory the workload cost, kB: this process's
    /// `VmHWM` unless the work happens in other processes.
    fn peak_rss_kb(&self) -> u64 {
        vm_hwm_kb(std::process::id()).unwrap_or(0)
    }

    /// Stop whatever set-up started.
    fn teardown(&mut self) {}
}

/// Build workload `name`.
pub fn build(name: &str, ctx: &Ctx) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sprout-forecast" => Box::new(sweep::Sweep::sprout_forecast(ctx)),
        "baseline-bulk" => Box::new(sweep::Sweep::baseline_bulk(ctx)),
        "mixed-matrix" => Box::new(sweep::Sweep::mixed_matrix(ctx)),
        "serve-pool" => Box::new(serve::ServePool::new(ctx)),
        "resume-warm" => Box::new(resume::ResumeWarm::new(ctx)),
        "control-plane" => Box::new(control::ControlPlane::new(ctx)),
        _ => return None,
    })
}

/// Deterministic Fisher–Yates shuffle driven by `seed` (no `rand`
/// dependency: each draw is one labeled seed derivation).
pub fn shuffle<T>(items: &mut [T], seed: u64, label: &str) {
    for i in (1..items.len()).rev() {
        let j = (derive_labeled_seed(seed, label, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// `VmHWM` of process `pid` in kB (`None` once it is gone).
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Median over `batches` batches of the mean nanoseconds one call of `f`
/// takes inside a batch of `iters` calls.
pub fn median_batch_ns<T>(batches: usize, iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::stats::median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let sorted: Vec<u32> = (0..20).collect();
        let mut a = sorted.clone();
        let mut b = sorted.clone();
        let mut c = sorted.clone();
        shuffle(&mut a, 7, "t");
        shuffle(&mut b, 7, "t");
        shuffle(&mut c, 8, "t");
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "another seed, another order");
        assert_ne!(a, sorted);
        a.sort_unstable();
        assert_eq!(a, sorted, "a permutation loses nothing");
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(vm_hwm_kb(std::process::id()).unwrap() > 0);
        assert_eq!(vm_hwm_kb(u32::MAX), None);
    }
}
