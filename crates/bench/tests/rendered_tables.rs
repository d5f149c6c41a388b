//! Golden snapshot of every rendered table.
//!
//! `golden_results.tsv` pins what a cell computes and the `*_sweep.json`
//! contract pins the record of a sweep; this pins what a reader is
//! shown. Every row of the experiment table runs at a tiny fixed scale
//! into a temporary directory, and the `fingerprint64` of each TSV it
//! writes is compared with `golden_tables.tsv` — so a change to a
//! report, a column list, or a number format cannot move a rendered byte
//! unnoticed, and a row added to the table fails until its tables are
//! committed.
//!
//! Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p sprout-bench --test rendered_tables`
//! and say in the PR which bytes moved and why.

use std::fmt::Write as _;

use sprout_bench::cli::apply_worker_args;
use sprout_bench::figures::{ExperimentConfig, EXPERIMENTS};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_tables.tsv");

/// The worker flags a row renders under: 12 virtual seconds, and for
/// the rows with axes a trim to a handful of cells that still has every
/// column filled (an app workload, an impaired cell, a shallow queue).
fn scale(experiment: &str) -> Vec<String> {
    let axes: &[&str] = match experiment {
        "contention" => &["--flows", "2", "--links", "tmo-3g-up"],
        "soak" => &[
            "--links",
            "tmo-3g-up",
            "--prop-delays",
            "20",
            "--queues",
            "auto,bytes:75000",
        ],
        "impair" => &["--links", "tmo-3g-up", "--impairments", "none,storm"],
        "serve" => &["--sessions", "1,4"],
        "replay" => &["--schemes", "sprout,cubic"],
        _ => &[],
    };
    let timing = ["--secs", "12", "--warmup", "2"];
    timing.iter().chain(axes).map(|s| s.to_string()).collect()
}

fn snapshot() -> String {
    let root = std::env::temp_dir().join(format!("sprout-rendered-tables-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut out = String::from(
        "# experiment\tfile\tfingerprint64(bytes)\n\
         # Regenerate deliberately with: UPDATE_GOLDEN=1 cargo test -p sprout-bench --test rendered_tables\n",
    );
    for row in &EXPERIMENTS {
        let mut cfg = ExperimentConfig {
            out_dir: root.join(row.name),
            ..ExperimentConfig::default()
        };
        apply_worker_args(&mut cfg, row.name, &scale(row.name)).expect("the test's flags parse");
        let mut console = Vec::new();
        row.run(&cfg, &(row.matrix)(&cfg), &mut console)
            .expect("the row runs and reports");
        assert!(!console.is_empty(), "{}: no console summary", row.name);

        let mut tables: Vec<_> = std::fs::read_dir(&cfg.out_dir)
            .expect("the row wrote its out dir")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "tsv"))
            .collect();
        tables.sort();
        assert!(!tables.is_empty(), "{}: no TSV rendered", row.name);
        for path in tables {
            let bytes = std::fs::read(&path).expect("read a rendered table");
            let _ = writeln!(
                out,
                "{}\t{}\t{:016x}",
                row.name,
                path.file_name().expect("a file").to_string_lossy(),
                sprout_cache::fingerprint64(&bytes)
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    out
}

#[test]
fn rendered_tables_match_the_committed_snapshot() {
    let current = snapshot();
    let committed = include_str!("golden_tables.tsv");
    if current == committed {
        return;
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &current).expect("rewrite golden snapshot");
        eprintln!("golden snapshot rewritten: {GOLDEN_PATH}");
        return;
    }
    let moved: Vec<&str> = current
        .lines()
        .filter(|line| !committed.lines().any(|c| c == *line))
        .collect();
    panic!(
        "{GOLDEN_PATH}: rendered tables differ from the committed snapshot \
         (UPDATE_GOLDEN=1 cargo test -p sprout-bench --test rendered_tables); \
         lines not in it:\n{}",
        moved.join("\n")
    );
}
