//! Peak memory of the two ways a forecast table enters a process — a
//! build plus its store, and a warm load — read as the rise of `VmHWM`
//! over `VmRSS` after resetting the peak through `/proc/self/clear_refs`.
//! A dense 6 MiB table held twice (the table and its encoding, or the
//! file's bytes and the decoded table) raised it by ≈ 12 MiB each way.
//!
//! `#[ignore]`d — the peak is process-wide, so this runs on its own,
//! optimised (the verify skill's "Forecast table" section):
//!
//! ```text
//! cargo test --release -p sprout-core --test table_footprint -- --ignored --nocapture
//! ```

use sprout_core::{table_cache_counters, ForecastTables, SproutConfig};

/// A `/proc/self/status` field, in kB.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .expect("the field is present");
    line.trim()
        .trim_end_matches(" kB")
        .parse()
        .expect("a kB count")
}

/// How far `work` raises the process's peak resident set above where it
/// started, in kB.
fn peak_rise_kb(work: impl FnOnce()) -> u64 {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM");
    let base = status_kb("VmRSS:");
    work();
    status_kb("VmHWM:").saturating_sub(base)
}

#[test]
#[ignore = "reads the process-wide peak: run alone, optimised"]
fn a_paper_table_is_held_once_on_its_way_in() {
    let dir = std::env::temp_dir().join(format!("sprout-table-footprint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    sprout_cache::set_dir(&dir);
    let cfg = SproutConfig::paper();
    let before = table_cache_counters();
    let build = peak_rise_kb(|| drop(ForecastTables::load_or_build(&cfg)));
    let mut loaded = None;
    let load = peak_rise_kb(|| loaded = Some(ForecastTables::load_or_build(&cfg)));
    let traffic = table_cache_counters().since(before);
    sprout_cache::reset_override();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((traffic.stores, traffic.hits), (1, 1), "{traffic:?}");
    let table = loaded.expect("loaded");
    eprintln!(
        "VmHWM rise: build + store {build} kB, warm load {load} kB; \
         table {} B of heap, {} B of payload",
        table.heap_bytes(),
        table.to_bytes().len()
    );
    // The DP scratch (`G` and one strip of `M`, 1.6 MiB) and the table
    // (1.5 MB), or the file's bytes and the table: with headroom, and far
    // from two dense copies.
    assert!(
        build <= 7 * 1024,
        "build + store raised VmHWM by {build} kB"
    );
    assert!(load <= 5 * 1024, "a warm load raised VmHWM by {load} kB");
}
