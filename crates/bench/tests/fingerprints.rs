//! Golden snapshot of every experiment matrix's cache identity.
//!
//! The cell-result cache keys on `Scenario::canonical_bytes` (via the
//! matrix fingerprint and the per-cell encoding), so *any* change to the
//! scenario schema — a new field, a reordered write, a renamed id —
//! silently retires every cached cell, or worse, collides two different
//! cells onto one key. This test pins, for the default configuration of
//! every experiment matrix: the cell count, the matrix fingerprint, the
//! first cell's fingerprint, and the first cell's full canonical byte
//! string (hex).
//!
//! If it fails, you changed cache identity. That is sometimes right —
//! new axes land exactly that way — but it must be deliberate:
//!
//! 1. bump `sprout_bench::ENGINE_VERSION` if execution semantics
//!    changed (see its doc comment),
//! 2. regenerate this snapshot:
//!    `UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints`,
//! 3. say so in the PR: every warm cache in the world just went cold.
//!
//! A second snapshot, `golden_results.tsv`, pins what a cell *computes*:
//! the fingerprint of the canonical JSON of the five Figure-9 Sprout
//! cells on `tmo-3g-up` plus one short cell of every other workload
//! kind. The determinism suites prove a run equals the next run; only
//! this file proves a run equals the previous commit's. If it fails,
//! execution semantics changed: bump `ENGINE_VERSION` and regenerate
//! (same `UPDATE_GOLDEN=1` command) in that same commit.

use std::fmt::Write as _;

use sprout_bench::figures::{self, ExperimentConfig, FIG9_CONFIDENCES};
use sprout_bench::sweep::result_to_json;
use sprout_bench::{FlowSpec, ScenarioMatrix, Scheme, SweepEngine, VideoApp, Workload};
use sprout_trace::{Impairment, NetProfile};

/// Every distinct experiment matrix (fig8 shares fig7's sweep and is
/// listed to document that identity).
const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "loss",
    "tunnel",
    "contention",
    "soak",
    "impair",
    "serve",
    "replay",
];

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_fingerprints.tsv");
const GOLDEN_RESULTS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_results.tsv");

fn snapshot() -> String {
    let cfg = ExperimentConfig::default();
    let mut out = String::from(
        "# experiment\tcells\tmatrix_fp\tcell0_fp\tcell0_canonical_bytes_hex\n\
         # Regenerate deliberately with: UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints\n",
    );
    for exp in EXPERIMENTS {
        for matrix in figures::matrices_for(&cfg, exp) {
            let cell0 = &matrix.cells()[0];
            let mut w = sprout_cache::ByteWriter::with_capacity(128);
            cell0.canonical_bytes(&mut w);
            let hex: String = w.finish().iter().fold(String::new(), |mut acc, b| {
                let _ = write!(acc, "{b:02x}");
                acc
            });
            let _ = writeln!(
                out,
                "{exp}\t{}\t{:016x}\t{:016x}\t{hex}",
                matrix.len(),
                matrix.fingerprint(),
                cell0.fingerprint(),
            );
        }
    }
    out
}

/// Compare `current` with a committed snapshot — or, under
/// `UPDATE_GOLDEN=1`, rewrite the snapshot at `path` instead.
fn check_golden(path: &str, committed: &str, current: &str, what_changed: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, current).expect("rewrite golden snapshot");
        eprintln!("golden snapshot rewritten: {path}");
        return;
    }
    assert_eq!(
        current, committed,
        "{what_changed}. If intentional, bump ENGINE_VERSION as needed and regenerate with \
         UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints"
    );
}

#[test]
fn matrix_fingerprints_match_the_committed_snapshot() {
    check_golden(
        GOLDEN_PATH,
        include_str!("golden_fingerprints.tsv"),
        &snapshot(),
        "scenario cache identity changed: every cached cell is now cold (or colliding)",
    );
}

/// The pinned cells: short (20 virtual seconds) and all on the slow
/// T-Mobile 3G uplink, so the whole set costs seconds in a debug build.
fn pinned_matrices() -> Vec<ScenarioMatrix> {
    let cfg = ExperimentConfig {
        run_secs: 20,
        warmup_secs: 4,
        ..ExperimentConfig::default()
    };
    let link = [NetProfile::TmobileUmtsUp];
    vec![
        cfg.matrix("pin-sprout")
            .schemes([Scheme::Sprout])
            .links(link)
            .confidences_pct(FIG9_CONFIDENCES)
            .build(),
        cfg.matrix("pin-kinds")
            .schemes([Scheme::Cubic, Scheme::CubicCodel])
            .apps([VideoApp::Skype], [Scheme::Sprout, Scheme::Cubic])
            .contention([vec![
                FlowSpec::Scheme(Scheme::Sprout),
                FlowSpec::Scheme(Scheme::Cubic),
            ]])
            .workloads([Workload::MuxDirect, Workload::MuxTunneled])
            .serve([4])
            .workloads([Workload::InterarrivalProbe])
            .links(link)
            .build(),
        cfg.matrix("pin-storm")
            .schemes([Scheme::Sprout])
            .links(link)
            .impairments([Impairment::preset("storm").expect("built-in preset")])
            .build(),
    ]
}

fn results_snapshot() -> String {
    let engine = SweepEngine::new(ExperimentConfig::default().seed);
    let mut out = String::from(
        "# label\tfingerprint64(result_to_json(cell))\n\
         # Regenerate deliberately (with an ENGINE_VERSION bump) with: UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints\n",
    );
    for matrix in pinned_matrices() {
        for r in engine.run(&matrix) {
            let fp = sprout_cache::fingerprint64(result_to_json(&r).as_bytes());
            let _ = writeln!(out, "{}\t{fp:016x}", r.scenario.label);
        }
    }
    out
}

#[test]
fn cell_results_match_the_committed_snapshot() {
    check_golden(
        GOLDEN_RESULTS_PATH,
        include_str!("golden_results.tsv"),
        &results_snapshot(),
        "a pinned cell computes different bytes than the committed snapshot: execution \
         semantics changed",
    );
}

#[test]
fn fig8_shares_fig7s_matrix_identity() {
    let cfg = ExperimentConfig::default();
    assert_eq!(
        figures::matrices_for(&cfg, "fig7")[0].fingerprint(),
        figures::matrices_for(&cfg, "fig8")[0].fingerprint(),
        "fig8 derives from the fig7 sweep; their cache identity must agree"
    );
}
