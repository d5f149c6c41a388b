//! Peak memory of a forecast table's build, read as the rise of `VmHWM`
//! over `VmRSS` after resetting the peak through `/proc/self/clear_refs`.
//!
//! `#[ignore]`d — the peak is process-wide, so this runs on its own,
//! optimised (the verify skill's "Forecast table" section):
//!
//! ```text
//! cargo test --release -p sprout-core --test table_footprint -- --ignored --nocapture
//! ```

use sprout_core::{ForecastTables, SproutConfig, TransitionKernel};

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
fn a_paper_table_build_holds_one_table() {
    let cfg = SproutConfig::paper();
    let mut built = None;
    let build =
        peak_rise_kb(|| built = Some(ForecastTables::build(&cfg, &TransitionKernel::new(&cfg))));
    let table = built.expect("built");
    eprintln!(
        "VmHWM rise: build {build} kB; table {} B of heap",
        table.heap_bytes()
    );
    // The DP scratch (`G` and one strip of `M`, 1.6 MiB) and the table
    // (1.5 MB): with headroom, and far from two dense copies.
    assert!(build <= 7 * 1024, "a build raised VmHWM by {build} kB");
}
