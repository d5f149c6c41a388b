//! Allocation budget of the TCP-baseline and Sprout packet paths.
//!
//! A baseline cell moves a few hundred thousand packets; one heap
//! allocation per packet (a payload `Vec`, an `Arc`, a per-opportunity
//! `Vec`, a B-tree node) once cost a third of the cell. This test pins
//! the path at *amortised zero*: running the same cell for 40 instead of
//! 20 virtual seconds may allocate only what growing the delivery log and
//! the queues takes, plus the B-tree nodes of the occasional loss episode
//! (`TcpSender::lost` after an RTO, `TcpReceiver::ooo`) — together below
//! one allocation per ten extra packets, where the old path took seven per
//! packet. A Sprout pair is pinned the same way at what its wire format
//! costs: every packet's header is a 32- or 60-byte buffer, one `Vec` and
//! one `Arc` in `vendor/bytes`, and nothing else on its way may allocate
//! (the sender's forecast, the receiver's received-range list).
//!
//! The same counter pins what a sweep shares instead of copying: cloning
//! a [`Trace`] allocates nothing, and a worker's second cell records into
//! the delivery log its first cell grew. And it pins the read path of a
//! warm resume: a cached cell is one buffer per entry, decoded in place.
//!
//! Own test binary, and the counter is per thread: every cell here runs
//! on the thread of the test that counts it, so neither the other tests
//! nor the harness show up in a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use sprout_bench::scenario::paired;
use sprout_bench::{
    cellcache, execute_with_memo, sprout_data_sender, CellScratch, ScenarioMatrix, Scheme,
    TraceMemo,
};
use sprout_core::{SproutConfig, SproutEndpoint};
use sprout_sim::{PathConfig, Simulation};
use sprout_trace::{Duration, NetProfile, Timestamp, Trace, MTU_BYTES};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates and stays valid for as long as the thread can allocate.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations (and reallocations) this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The cache setting is process-wide: tests that run with it off share
/// this lock, and the one test that points it at a directory holds it
/// alone.
static CACHE_SETTING: RwLock<()> = RwLock::new(());

/// Turn the cache off for as long as the guard lives.
fn cache_off() -> RwLockReadGuard<'static, ()> {
    let guard = CACHE_SETTING.read().unwrap_or_else(PoisonError::into_inner);
    sprout_cache::disable();
    guard
}

/// Allocations and delivered data packets of one `secs`-long cell, run
/// the way a sweep worker runs it. The link's traces are resolved before
/// the count starts, so only the cell itself is counted.
fn run(scheme: Scheme, secs: u64) -> (u64, f64) {
    let matrix = ScenarioMatrix::builder("alloc-budget")
        .schemes([scheme])
        .links([NetProfile::VerizonLteDown])
        .timing(Duration::from_secs(secs), Duration::ZERO)
        .build();
    let cell = &matrix.cells()[0];
    let memo = TraceMemo::new(11);
    memo.link(cell.link, cell.duration);
    memo.link(paired(cell.link), cell.duration);
    let before = allocs();
    let result = execute_with_memo(matrix.name(), cell, 11, &memo, &mut CellScratch::default());
    let allocs = allocs() - before;
    let kbps = result.metrics.expect("scheme cell").throughput_kbps;
    let packets = kbps * 1e3 / 8.0 * secs as f64 / MTU_BYTES as f64;
    (allocs, packets)
}

#[test]
fn steady_state_tcp_packet_path_allocates_nothing_per_packet() {
    let _cache = cache_off();
    for scheme in [Scheme::Cubic, Scheme::Vegas] {
        let (allocs_20, packets_20) = run(scheme, 20);
        let (allocs_40, packets_40) = run(scheme, 40);
        let extra_packets = packets_40 - packets_20;
        assert!(
            extra_packets > 2_000.0,
            "{}: the longer run must move more data ({packets_20:.0} → {packets_40:.0})",
            scheme.name()
        );
        let per_packet = allocs_40.saturating_sub(allocs_20) as f64 / extra_packets;
        assert!(
            per_packet < 0.1,
            "{}: {per_packet:.3} allocations per extra delivered packet \
             ({allocs_20} allocations for {packets_20:.0} packets in 20 s, \
             {allocs_40} for {packets_40:.0} in 40 s) — something on the \
             per-packet path allocates again",
            scheme.name()
        );
    }
}

/// Allocations and packets sent (both directions, data and control) of
/// one `secs`-long Sprout pair, its forecast tables already built.
fn run_sprout(secs: u64, up: &Trace, down: &Trace) -> (u64, u64) {
    let cfg = SproutConfig::paper();
    let end = Timestamp::from_secs(secs);
    let before = allocs();
    let mut sim = Simulation::new(
        sprout_data_sender(&cfg),
        SproutEndpoint::new(cfg),
        PathConfig::standard(down.truncated(end)),
        PathConfig::standard(up.truncated(end)),
    );
    sim.run_until(end);
    let allocs = allocs() - before;
    let (a, b) = (sim.a.stats(), sim.b.stats());
    let packets =
        a.data_packets_sent + a.control_packets_sent + b.data_packets_sent + b.control_packets_sent;
    (allocs, packets)
}

#[test]
fn steady_state_sprout_packet_path_allocates_only_its_headers() {
    let _cache = cache_off();
    let span = Duration::from_secs(40);
    let down = NetProfile::VerizonLteDown.generate(span, 11);
    let up = NetProfile::VerizonLteUp.generate(span, 12);
    // Builds the tables and warms the thread's likelihood memo.
    run_sprout(20, &up, &down);
    let (allocs_20, packets_20) = run_sprout(20, &up, &down);
    let (allocs_40, packets_40) = run_sprout(40, &up, &down);
    let extra_packets = packets_40 - packets_20;
    assert!(
        extra_packets > 2_000,
        "the longer run must send more ({packets_20} → {packets_40})"
    );
    let per_packet = allocs_40.saturating_sub(allocs_20) as f64 / extra_packets as f64;
    assert!(
        per_packet < 2.1,
        "{per_packet:.3} allocations per extra packet sent ({allocs_20} \
         allocations for {packets_20} packets in 20 s, {allocs_40} for \
         {packets_40} in 40 s) — beyond a header's `Vec` + `Arc`, something \
         on the Sprout packet path allocates again"
    );
}

#[test]
fn cloning_a_trace_allocates_nothing() {
    let trace = NetProfile::VerizonLteDown.generate(Duration::from_secs(5), 11);
    let mut copies: Vec<Trace> = Vec::with_capacity(64);
    let before = allocs();
    for _ in 0..64 {
        copies.push(trace.clone());
    }
    assert_eq!(allocs() - before, 0, "a trace clone is a reference count");
    for copy in &copies {
        assert!(
            std::ptr::eq(copy.opportunities(), trace.opportunities()),
            "a clone must share the original's storage"
        );
    }
}

#[test]
fn a_second_cell_on_a_warm_scratch_does_not_regrow_its_delivery_logs() {
    let _cache = cache_off();
    let matrix = ScenarioMatrix::builder("alloc-budget")
        .schemes([Scheme::Cubic])
        .links([NetProfile::VerizonLteDown])
        .timing(Duration::from_secs(20), Duration::from_secs(1))
        .build();
    let cell = &matrix.cells()[0];
    let memo = TraceMemo::new(11);
    let run = |scratch: &mut CellScratch| {
        let before = allocs();
        let result = execute_with_memo(matrix.name(), cell, 11, &memo, scratch);
        let metrics = result.metrics.expect("scheme cell");
        (
            allocs() - before,
            metrics.throughput_kbps,
            format!("{metrics:?}"),
        )
    };
    // A throwaway cell resolves the link's traces and floor, so the three
    // counted runs differ in nothing but the scratch they start from.
    run(&mut CellScratch::default());
    let mut scratch = CellScratch::default();
    let (cold, kbps, first) = run(&mut scratch);
    let (warm, _, second) = run(&mut scratch);
    let (warm_again, _, third) = run(&mut scratch);
    assert_eq!(first, second, "recycled buffers must not change results");
    assert_eq!(first, third);

    // A `Vec<DeliveryRecord>` grown from empty to n records reallocates
    // once per doubling from its first capacity of 4.
    let packets = kbps * 1e3 / 8.0 * 19.0 / MTU_BYTES as f64;
    assert!(packets > 2_000.0, "the cell must move data ({packets:.0})");
    let doublings = (packets / 4.0).log2().floor() as u64;
    assert!(
        warm + doublings <= cold,
        "cold cell: {cold} allocations, warm cell: {warm} — a warm scratch \
         must save at least the data log's {doublings} doublings"
    );
    assert_eq!(
        warm, warm_again,
        "on a warm scratch the allocation count is steady"
    );
}

#[test]
fn a_warm_cell_load_is_one_buffer_and_the_records_own_fields() {
    let matrix = ScenarioMatrix::builder("alloc-budget")
        .schemes([Scheme::Cubic])
        .links([NetProfile::VerizonLteDown])
        .timing(Duration::from_secs(4), Duration::from_secs(1))
        .cell_series(Duration::from_millis(500))
        .build();
    let cell = &matrix.cells()[0];
    let (name, fingerprint) = (matrix.name(), matrix.fingerprint());
    let result = {
        let _cache = cache_off();
        execute_with_memo(
            name,
            cell,
            11,
            &TraceMemo::new(11),
            &mut CellScratch::default(),
        )
    };
    let series = result
        .cell_series
        .as_ref()
        .expect("the cell asked for a series");
    let (delays, bins) = (series.delays.len(), series.bins.len());
    assert!(
        delays > 100 && bins == 6,
        "{delays} delay samples, {bins} bins"
    );

    let _cache = CACHE_SETTING
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("sprout-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    sprout_cache::set_dir(&dir);
    assert!(cellcache::store_cell(fingerprint, 11, &result));
    let load = || {
        let before = allocs();
        let loaded = cellcache::load_cell(name, fingerprint, cell, 11).expect("a hit");
        (allocs() - before, loaded)
    };
    let (first, loaded) = load();
    let (again, _) = load();
    sprout_cache::disable();
    let _ = std::fs::remove_dir_all(&dir);
    // Debug text, not `==`: a cell's metrics may hold NaN.
    assert_eq!(
        format!("{:?}", loaded.measured),
        format!("{:?}", result.measured)
    );
    assert_eq!(first, again, "a hit allocates the same every time");
    // The key: one buffer, which it never outgrows, and into which
    // `Scenario::canonical_bytes` writes the workload detail, link id and
    // queue id without a `String` of their own (1). The cache directory,
    // the file name and the path (3). The one buffer the whole entry is
    // read into, which the payload is decoded from in place (1). The
    // record's owned fields: its scenario and matrix name, and the
    // series' delay samples and bins (4). A second buffer per entry, a
    // rendered id, or an allocation per decoded field, breaks the count.
    assert_eq!(first, 9, "allocations of one warm `load_cell` hit");
}
