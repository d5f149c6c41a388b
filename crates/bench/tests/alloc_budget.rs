//! Allocation budget of the TCP-baseline packet path.
//!
//! A baseline cell moves a few hundred thousand packets; one heap
//! allocation per packet (a payload `Vec`, an `Arc`, a per-opportunity
//! `Vec`, a B-tree node) once cost a third of the cell. This test pins
//! the path at *amortised zero*: running the same cell for 40 instead of
//! 20 virtual seconds may allocate only what growing the delivery log and
//! the queues takes, plus the B-tree nodes of the occasional loss episode
//! (`TcpSender::lost` after an RTO, `TcpReceiver::ooo`) — together below
//! one allocation per ten extra packets, where the old path took seven per
//! packet.
//!
//! Own test binary: the counting `#[global_allocator]` must not see other
//! tests' threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sprout_bench::{run_scheme, RunConfig, Scheme};
use sprout_trace::{Duration, NetProfile, MTU_BYTES};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and delivered data packets of one `secs`-long cell.
fn run(scheme: Scheme, secs: u64, base: &RunConfig) -> (u64, f64) {
    let cfg = RunConfig {
        duration: Duration::from_secs(secs),
        warmup: Duration::ZERO,
        ..base.clone()
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = run_scheme(scheme, &cfg);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let packets = result.throughput_kbps * 1e3 / 8.0 * secs as f64 / MTU_BYTES as f64;
    (allocs, packets)
}

#[test]
fn steady_state_tcp_packet_path_allocates_nothing_per_packet() {
    sprout_cache::disable();
    let span = Duration::from_secs(40);
    let base = RunConfig::new(
        NetProfile::VerizonLteDown.generate(span, 11),
        NetProfile::VerizonLteUp.generate(span, 12),
    );
    for scheme in [Scheme::Cubic, Scheme::Vegas] {
        let (allocs_20, packets_20) = run(scheme, 20, &base);
        let (allocs_40, packets_40) = run(scheme, 40, &base);
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
