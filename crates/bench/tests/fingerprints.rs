//! Golden snapshot of every experiment matrix's cache identity.
//!
//! The cell-result cache keys on `Scenario::canonical_bytes` (via the
//! matrix fingerprint and the per-cell encoding), so *any* change to the
//! scenario schema — a new field, a reordered write, a renamed id —
//! silently retires every cached cell, or worse, collides two different
//! cells onto one key. This test pins, for the default configuration of
//! every row of the experiment table: the cell count, the matrix
//! fingerprint, the first cell's fingerprint, and the first cell's full
//! canonical byte string (hex).
//!
//! A second snapshot, `golden_results.tsv`, pins what a cell *computes*:
//! the fingerprint of the canonical JSON of the five Figure-9 Sprout
//! cells on `tmo-3g-up` plus one short cell of every other workload
//! kind. The determinism suites prove a run equals the next run; only
//! this file proves a run equals the previous commit's.
//!
//! Both snapshots open with two recorded facts — `# engine_version` and
//! `# result_schema` (the fingerprint of `record::schema()`, the listing
//! of every result field) — which make `ENGINE_VERSION` discipline
//! mechanical:
//!
//! * a pinned row or the result schema differs while the recorded
//!   version still equals `ENGINE_VERSION`: the test fails with "bump
//!   ENGINE_VERSION and regenerate", and `UPDATE_GOLDEN=1` refuses to
//!   paper over it (it only ever *adds* rows under an unchanged version —
//!   a new experiment matrix lands that way);
//! * only the version differs: "ENGINE_VERSION bumped — regenerate
//!   goldens in this commit".
//!
//! Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints`, and
//! say so in the PR: a version bump turns every warm cell cache cold.

use std::fmt::Write as _;

use sprout_bench::figures::{select, ExperimentConfig, EXPERIMENTS, FIG9_CONFIDENCES};
use sprout_bench::sweep::result_to_json;
use sprout_bench::{
    FlowSpec, ScenarioMatrix, Scheme, SweepEngine, VideoApp, Workload, ENGINE_VERSION,
};
use sprout_trace::{Impairment, NetProfile};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_fingerprints.tsv");
const GOLDEN_RESULTS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_results.tsv");

/// The two facts every snapshot records ahead of its rows.
fn recorded_header() -> String {
    format!(
        "# engine_version\t{ENGINE_VERSION}\n# result_schema\t{:016x}\n",
        sprout_cache::fingerprint64(sprout_bench::record::schema().as_bytes())
    )
}

fn snapshot() -> String {
    let cfg = ExperimentConfig::default();
    let mut out = recorded_header();
    out.push_str(
        "# experiment\tcells\tmatrix_fp\tcell0_fp\tcell0_canonical_bytes_hex\n\
         # Regenerate deliberately with: UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints\n",
    );
    // One line per row of the experiment table that declares one matrix
    // (fig8 shares fig7's sweep and is listed to document that identity;
    // a row of several matrices runs other rows' sweeps, see
    // `a_row_of_several_matrices_runs_its_members_sweeps`): a row added
    // to the table fails here until its line is committed.
    for row in EXPERIMENTS.iter().filter(|row| row.matrices.len() == 1) {
        let matrix = row.declare(&cfg).remove(0);
        let cell0 = &matrix.cells()[0];
        let mut w = sprout_cache::ByteWriter::with_capacity(128);
        cell0.canonical_bytes(&mut w);
        let hex: String = w.finish().iter().fold(String::new(), |mut acc, b| {
            let _ = write!(acc, "{b:02x}");
            acc
        });
        let _ = writeln!(
            out,
            "{}\t{}\t{:016x}\t{:016x}\t{hex}",
            row.name,
            matrix.len(),
            matrix.fingerprint(),
            cell0.fingerprint(),
        );
    }
    out
}

/// The value of a `# key\tvalue` header line.
fn recorded<'a>(snapshot: &'a str, key: &str) -> Option<&'a str> {
    snapshot
        .lines()
        .find_map(|l| l.strip_prefix("# ")?.strip_prefix(key)?.strip_prefix('\t'))
}

/// Whether every data row of `committed` survives unchanged in `current`
/// (rows are keyed by their first column; `current` may add rows).
fn rows_kept(committed: &str, current: &str) -> bool {
    let rows = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.starts_with('#'))
            .map(str::to_string)
            .collect()
    };
    let current = rows(current);
    rows(committed).iter().all(|row| current.contains(row))
}

/// What the snapshot rules say about `current` against `committed`:
/// `Ok(())` when they agree (or, with `updating`, when rewriting is
/// allowed), otherwise the message to fail with.
fn golden_verdict(committed: &str, current: &str, updating: bool) -> Result<(), String> {
    if current == committed {
        return Ok(());
    }
    let version = ENGINE_VERSION.to_string();
    let same_version = recorded(committed, "engine_version") == Some(version.as_str());
    let same_schema = recorded(committed, "result_schema") == recorded(current, "result_schema");
    if same_version && !(same_schema && rows_kept(committed, current)) {
        return Err(format!(
            "result schema or cell results changed under ENGINE_VERSION {version} — \
             bump ENGINE_VERSION and regenerate"
        ));
    }
    if updating {
        return Ok(());
    }
    Err(if same_version {
        "the snapshot is missing rows — regenerate goldens in this commit".to_string()
    } else {
        "ENGINE_VERSION bumped — regenerate goldens in this commit".to_string()
    })
}

/// Compare `current` with a committed snapshot — or, under
/// `UPDATE_GOLDEN=1`, rewrite the snapshot at `path` instead (when the
/// rules allow it).
fn check_golden(path: &str, committed: &str, current: &str) {
    let updating = std::env::var_os("UPDATE_GOLDEN").is_some();
    if let Err(why) = golden_verdict(committed, current, updating) {
        panic!(
            "{path}: {why} \
             (UPDATE_GOLDEN=1 cargo test -p sprout-bench --test fingerprints)"
        );
    }
    if updating && current != committed {
        std::fs::write(path, current).expect("rewrite golden snapshot");
        eprintln!("golden snapshot rewritten: {path}");
    }
}

#[test]
fn matrix_fingerprints_match_the_committed_snapshot() {
    check_golden(
        GOLDEN_PATH,
        include_str!("golden_fingerprints.tsv"),
        &snapshot(),
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
            // Appended last: a cell's id is its position, and the rows
            // above were pinned before this one existed.
            .contention([vec![
                FlowSpec::Scheme(Scheme::Cubic),
                FlowSpec::App {
                    app: VideoApp::Skype,
                    over: Scheme::SproutEwma,
                },
            ]])
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
    let mut out = recorded_header();
    out.push_str(
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
    );
}

#[test]
fn snapshot_rules_demand_a_version_bump_for_changed_rows_or_schema() {
    let v = ENGINE_VERSION;
    let snap = |version: u32, schema: &str, rows: &str| {
        format!("# engine_version\t{version}\n# result_schema\t{schema}\n# label\tfp\n{rows}")
    };
    let committed = snap(v, "aaaa", "cell-a\t1111\ncell-b\t2222\n");
    let bump = "bump ENGINE_VERSION and regenerate";
    let regen = "regenerate goldens in this commit";
    let verdict = |current: &str, updating| golden_verdict(&committed, current, updating);

    assert_eq!(verdict(&committed, false), Ok(()));
    // A changed row, a vanished row, or a changed schema under the same
    // version: refused, with or without UPDATE_GOLDEN.
    for current in [
        snap(v, "aaaa", "cell-a\t9999\ncell-b\t2222\n"),
        snap(v, "aaaa", "cell-a\t1111\n"),
        snap(v, "bbbb", "cell-a\t1111\ncell-b\t2222\n"),
    ] {
        for updating in [false, true] {
            let err = verdict(&current, updating).unwrap_err();
            assert!(err.contains(bump), "{err}");
        }
    }
    // An added row under the same version: stale without UPDATE_GOLDEN,
    // rewritable with it.
    let added = snap(v, "aaaa", "cell-a\t1111\ncell-b\t2222\ncell-c\t3333\n");
    assert!(verdict(&added, false).unwrap_err().contains(regen));
    assert_eq!(verdict(&added, true), Ok(()));
    // The committed snapshot recorded an older version (the constant was
    // bumped since): anything may change, but only by regenerating.
    let older = snap(v - 1, "aaaa", "cell-a\t1111\n");
    let now = snap(v, "bbbb", "cell-a\t9999\n");
    let err = golden_verdict(&older, &now, false).unwrap_err();
    assert!(
        err.contains("ENGINE_VERSION bumped") && err.contains(regen),
        "{err}"
    );
    assert_eq!(golden_verdict(&older, &now, true), Ok(()));
}

#[test]
fn a_row_of_several_matrices_runs_its_members_sweeps() {
    // `scorecard` runs the fig2, fig7, loss and tunnel matrices under
    // their own names: its cells are those rows' cells, so after `all`
    // it executes nothing.
    let cfg = ExperimentConfig::default();
    let rows = EXPERIMENTS.iter().filter(|row| row.matrices.len() > 1);
    assert_eq!(rows.clone().count(), 1, "scorecard is the one such row");
    for matrix in rows.flat_map(|row| row.declare(&cfg)) {
        let member = select(matrix.name()).expect("a row named like the matrix");
        let own = member[0].declare(&cfg).remove(0);
        assert_eq!(matrix.fingerprint(), own.fingerprint(), "{}", matrix.name());
    }
}

#[test]
fn fig8_shares_fig7s_matrix_identity() {
    let cfg = ExperimentConfig::default();
    let sweep_of = |name: &str| {
        select(name).expect("a table row")[0]
            .declare(&cfg)
            .remove(0)
    };
    assert_eq!(
        sweep_of("fig7").fingerprint(),
        sweep_of("fig8").fingerprint(),
        "fig8 derives from the fig7 sweep; their cache identity must agree"
    );
}
