//! Peak memory of a long baseline cell, read as the rise of `VmHWM` over
//! `VmRSS` after resetting the peak through `/proc/self/clear_refs`: two
//! 300 s Cubic cells on the Verizon LTE downlink, run back to back on one
//! scratch arena (the first grows it, the second runs warm), with the
//! link's trace built beforehand.
//!
//! What a cell may hold is its one delivery log, the a→b one. The b→a
//! direction only counts its ACKs, and the delay percentiles and the
//! omniscient floor count over the log and the trace in place instead of
//! copying them into segment lists.
//!
//! `#[ignore]`d — the peak is process-wide, so this runs on its own,
//! optimised:
//!
//! ```text
//! cargo test --release -p sprout-bench --test cell_footprint -- --ignored --nocapture
//! ```

use sprout_bench::{execute_with_memo, CellScratch, LinkSpec, ScenarioMatrix, Scheme, TraceMemo};
use sprout_trace::{Duration, NetProfile};

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
fn a_long_cell_holds_one_delivery_log_and_no_copy_of_it() {
    const SEED: u64 = 20130401;
    sprout_cache::disable();
    let secs = Duration::from_secs(300);
    let link = NetProfile::VerizonLteDown;
    let matrix = ScenarioMatrix::builder("footprint")
        .schemes([Scheme::Cubic])
        .links([link])
        .timing(secs, Duration::from_secs(60))
        .build();
    let cell = &matrix.cells()[0];
    let memo = TraceMemo::new(SEED);
    let ops = memo.link(LinkSpec::from(link), secs).trace().len();
    let mut scratch = CellScratch::default();
    let mut throughputs = Vec::new();
    let rise = peak_rise_kb(|| {
        for _ in 0..2 {
            let result = execute_with_memo(matrix.name(), cell, SEED, &memo, &mut scratch);
            throughputs.push(result.metrics.expect("a scheme cell").throughput_kbps);
        }
    });
    assert_eq!(
        throughputs[0], throughputs[1],
        "the warm cell is the same cell"
    );
    eprintln!(
        "VmHWM rise of two 300 s Cubic cells: {rise} kB ({ops} delivery opportunities, \
         {:.0} kbps)",
        throughputs[0]
    );
    // The a→b log (≈ 107 k 24-byte records, 3 MiB of capacity after
    // doubling) plus the endpoints' and the queue's working set measured
    // 4 632–4 696 kB. Before the b→a direction stopped logging its ACKs
    // and the percentiles stopped copying the log and the trace into
    // segment lists, the same two cells measured 9 140–9 304 kB.
    assert!(rise <= 6 * 1024, "two long cells raised VmHWM by {rise} kB");
}
