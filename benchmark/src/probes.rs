//! Layer probes: tight loops and single calls into one layer's public
//! functions, timed from outside. A workload's traced pass runs the
//! probes of the layers it reaches ("home" probes) and leaves the rest
//! at zero. Probe inputs come from `--seed`.

use std::path::Path;
use std::time::Instant;

use sprout_cache::ArtifactKind;
use sprout_core::{
    ForecastScratch, ForecastTables, RateModel, SproutConfig, SproutHeader, TransitionKernel,
    WireForecast,
};
use sprout_sim::{CoDelConfig, FlowId, LinkConfig, Packet, QueueConfig, TimerWheel, TraceLink};
use sprout_trace::{derive_labeled_seed, Duration, NetProfile, Timestamp, Trace, MTU_BYTES};

use crate::tracer::Tracer;
use crate::workloads::{median_batch_ns, Layer, DATASET_SEED};

/// Batches per tight-loop probe (the reported value is their median).
const BATCHES: usize = 9;

/// A converged posterior: a fresh model fed fifty seeded observations.
fn warmed_model(seed: u64) -> RateModel {
    let mut model = RateModel::new(SproutConfig::paper());
    for i in 0..50 {
        model.evolve();
        model.observe(4.0 + (derive_labeled_seed(seed, "probe-observe", i) % 9) as f64);
    }
    model
}

/// `core.forecast_ns`, `core.model_tick_ns`, `core.evolve_ns`,
/// `core.wire_codec_ns`: the kernels a Sprout receiver runs every tick
/// and the header every Sprout packet carries.
pub fn core_kernels(seed: u64, layer: &mut Layer) {
    let cfg = SproutConfig::paper();
    let tables = ForecastTables::get(&cfg);
    let mut model = warmed_model(seed);
    let mut scratch = ForecastScratch::default();
    layer.insert(
        "core.forecast_ns",
        median_batch_ns(BATCHES, 200, || {
            tables
                .forecast_into(model.distribution(), cfg.forecast_percentile, &mut scratch)
                .cumulative_units
                .len()
        }),
    );
    let packets = 4.0 + (seed % 9) as f64;
    layer.insert(
        "core.model_tick_ns",
        median_batch_ns(BATCHES, 200, || {
            model.evolve();
            model.observe(std::hint::black_box(packets));
        }),
    );
    layer.insert(
        "core.evolve_ns",
        median_batch_ns(BATCHES, 200, || model.evolve()),
    );

    let header = SproutHeader {
        seq: seed,
        throwaway: seed / 2,
        time_to_next: Duration::from_millis(seed % 20),
        sent_at: Timestamp::from_millis(seed % 100_000),
        heartbeat: false,
        datagram: false,
        forecast: Some(WireForecast {
            recv_or_lost_bytes: seed / 3,
            tick: (seed % 50_000) as u32,
            cumulative_units: std::array::from_fn(|i| (i as u16 + 1) * (1 + (seed % 40) as u16)),
        }),
        payload_len: 1_400,
    };
    layer.insert(
        "core.wire_codec_ns",
        median_batch_ns(BATCHES, 2_000, || {
            let bytes = std::hint::black_box(&header).encode_with_padding();
            SproutHeader::decode(&bytes).expect("a header decodes what it encoded")
        }),
    );
}

/// `core.table_build_ms` (the paper-scale DP) and `core.table_load_ms`
/// (the same tables from a warm disk cache: read, checksum, decode).
pub fn core_tables(tracer: &mut Tracer, layer: &mut Layer) {
    let cfg = SproutConfig::paper();
    let (tables, build_ns) = tracer.span("core.table_build", "core", "probe", |_| {
        ForecastTables::build(&cfg, &TransitionKernel::new(&cfg))
    });
    drop(tables);
    layer.insert("core.table_build_ms", build_ns as f64 / 1e6);
    // Make sure the entry exists, then time a warm load.
    ForecastTables::load_or_build(&cfg);
    let (_, load_ns) = tracer.span("core.table_load", "core", "probe", |_| {
        ForecastTables::load_or_build(&cfg)
    });
    layer.insert("core.table_load_ms", load_ns as f64 / 1e6);
}

/// `trace.synth_ms` / `trace.synth_events` (synthesis with the cache
/// disabled) and `trace.load_ms` (the same traces from the warm disk
/// cache), summed over the workload's `(link, duration)` set.
pub fn trace_synth_and_load(
    links: &[(NetProfile, Duration)],
    cache_dir: &Path,
    tracer: &mut Tracer,
    layer: &mut Layer,
) {
    let (mut synth_ns, mut load_ns, mut events) = (0u64, 0u64, 0usize);
    for &(link, duration) in links {
        sprout_cache::disable();
        let (trace, ns) = tracer.span("trace.synth", "trace", link.id(), |_| {
            link.generate(duration, DATASET_SEED)
        });
        synth_ns += ns;
        events += trace.len();
        sprout_cache::set_dir(cache_dir);
        link.generate(duration, DATASET_SEED); // ensure the entry exists
        let (_, ns) = tracer.span("trace.load", "trace", link.id(), |_| {
            link.generate(duration, DATASET_SEED)
        });
        load_ns += ns;
    }
    layer.insert("trace.synth_ms", synth_ns as f64 / 1e6);
    layer.insert("trace.synth_events", events as f64);
    layer.insert("trace.load_ms", load_ns as f64 / 1e6);
}

/// `trace.ingest_ms`: parse, validate and fingerprint the two embedded
/// measured captures (`register_trace_bytes` on each; registering again
/// re-parses, so a repeat costs what the first time did).
pub fn trace_ingest(tracer: &mut Tracer, layer: &mut Layer) {
    let (_, ns) = tracer.span("trace.ingest", "trace", "corpus", |_| {
        sprout_bench::default_corpus_fingerprints()
    });
    layer.insert("trace.ingest_ms", ns as f64 / 1e6);
}

/// Nanoseconds per packet through a saturated [`TraceLink`]: one MTU
/// packet in (`ingress`), one delivery opportunity out (`service`).
fn link_service_ns(queue: QueueConfig) -> f64 {
    const PACKETS: u64 = 20_000;
    // One opportunity per millisecond; a standing backlog of 64 packets
    // keeps the queue busy (and CoDel above its target).
    median_batch_ns(BATCHES, 1, || {
        let mut link = TraceLink::new(LinkConfig {
            queue: queue.clone(),
            ..LinkConfig::standard(Trace::from_millis(0..PACKETS))
        });
        for seq in 0..64 {
            link.ingress(
                Packet::opaque(FlowId::PRIMARY, seq, MTU_BYTES),
                Timestamp::ZERO,
            );
        }
        let mut delivered = 0;
        for ms in 0..PACKETS {
            let now = Timestamp::from_millis(ms);
            link.ingress(Packet::opaque(FlowId::PRIMARY, 64 + ms, MTU_BYTES), now);
            delivered += link.service(now).len();
        }
        delivered
    }) / PACKETS as f64
}

/// `sim.link_service_ns` (deep DropTail) and `sim.codel_service_ns`.
pub fn sim_link(layer: &mut Layer) {
    layer.insert(
        "sim.link_service_ns",
        link_service_ns(QueueConfig::DropTailBytes(sprout_sim::DEEP_QUEUE_BYTES)),
    );
    layer.insert(
        "sim.codel_service_ns",
        link_service_ns(QueueConfig::CoDel(CoDelConfig::default())),
    );
}

/// `sim.wheel_ns`: one arm plus one pop on a [`TimerWheel`] of 256
/// indices with seeded deadlines.
pub fn sim_wheel(seed: u64, layer: &mut Layer) {
    const SLOTS: usize = 256;
    let mut wheel = TimerWheel::new();
    let mut now_us = 0u64;
    for idx in 0..SLOTS {
        let jitter = derive_labeled_seed(seed, "probe-wheel", idx as u64) % 20_000;
        wheel.schedule(idx, Some(Timestamp::from_micros(jitter)));
    }
    let ns = median_batch_ns(BATCHES, 20_000, || {
        now_us += 80;
        let now = Timestamp::from_micros(now_us);
        while let Some(idx) = wheel.pop_due(now) {
            wheel.schedule(idx, Some(now + Duration::from_millis(20)));
        }
        wheel.next_deadline()
    });
    // 256 indices re-armed every 20 ms, advanced in 80 µs steps: one
    // arm+pop per step on average.
    layer.insert("sim.wheel_ns", ns);
}

/// `cache.store_us_4k`, `cache.load_us_4k`, `cache.load_ms_6m`,
/// `cache.fingerprint_mb_s`: the artifact store at a cell-sized and a
/// table-sized payload, through an artifact kind the benchmark declares.
pub fn cache(seed: u64, tracer: &mut Tracer, layer: &mut Layer) {
    static KIND: ArtifactKind = ArtifactKind::new("benchmark-probe", 1);
    let payload = |len: usize| -> Vec<u8> {
        (0..len as u64 / 8)
            .flat_map(|word| derive_labeled_seed(seed, "probe-cache", word).to_le_bytes())
            .collect()
    };
    let small = payload(4 << 10);
    let large = payload(6 << 20);
    const KEYS: u64 = 64;
    let key = |i: u64| derive_labeled_seed(seed, "probe-cache-key", i).to_le_bytes();

    let (_, ns) = tracer.span("cache.store_4k", "cache", "probe", |_| {
        for i in 0..KEYS {
            assert!(
                KIND.store(&key(i), &small),
                "the probe cache dir is writable"
            );
        }
    });
    layer.insert("cache.store_us_4k", ns as f64 / 1e3 / KEYS as f64);
    let (_, ns) = tracer.span("cache.load_4k", "cache", "probe", |_| {
        for i in 0..KEYS {
            assert!(KIND.load(&key(i)).is_some(), "a stored artifact loads");
        }
    });
    layer.insert("cache.load_us_4k", ns as f64 / 1e3 / KEYS as f64);

    assert!(KIND.store(b"table-sized", &large));
    let loads: Vec<f64> = (0..5)
        .map(|_| {
            let (_, ns) = tracer.span("cache.load_6m", "cache", "probe", |_| {
                assert_eq!(
                    KIND.load(b"table-sized").map(|p| p.len()),
                    Some(large.len())
                );
            });
            ns as f64 / 1e6
        })
        .collect();
    layer.insert("cache.load_ms_6m", crate::stats::median(&loads));

    let t0 = Instant::now();
    let rounds = 5;
    for _ in 0..rounds {
        std::hint::black_box(sprout_cache::fingerprint64(std::hint::black_box(&large)));
    }
    let mb = (rounds * large.len()) as f64 / 1e6;
    layer.insert("cache.fingerprint_mb_s", mb / t0.elapsed().as_secs_f64());
}
