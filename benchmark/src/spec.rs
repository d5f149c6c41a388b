//! The names this benchmark emits — workloads, end-to-end metrics,
//! per-layer metrics — declared once. `BENCHMARK.json` at the repository
//! root must list exactly these (a unit test compares the two).

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The six workloads, in the order the full run executes them.
pub const WORKLOADS: [&str; 6] = [
    "sprout-forecast",
    "baseline-bulk",
    "mixed-matrix",
    "serve-pool",
    "resume-warm",
    "control-plane",
];

/// End-to-end metrics: what a user of the system waits for or pays.
/// All are host time or host memory; none is a simulated statistic.
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    higher("cells_per_sec", "cells/s"),
    higher("cells_per_sec_2t", "cells/s"),
    higher("sessions_per_sec", "sessions/s"),
    lower("submit_to_merged_s", "s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured in the traced run. The prefix names the
/// layer (= crate). Zero means the workload does not reach that layer
/// (or has no home probe for it); README.md maps each metric to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: [MetricDef; 66] = [
    // sprout-trace
    lower("trace.synth_ms", "ms"),
    higher("trace.synth_events", "count"),
    lower("trace.load_ms", "ms"),
    lower("trace.ingest_ms", "ms"),
    // sprout-core
    lower("core.table_build_ms", "ms"),
    lower("core.table_load_ms", "ms"),
    lower("core.forecast_ns", "ns"),
    lower("core.model_tick_ns", "ns"),
    lower("core.evolve_ns", "ns"),
    lower("core.wire_codec_ns", "ns"),
    lower("core.endpoint_busy_share", "ratio"),
    lower("core.ns_per_poll", "ns"),
    lower("core.ns_per_packet", "ns"),
    lower("core.polls", "count"),
    lower("core.packets_in", "count"),
    lower("core.session_bytes", "bytes"),
    // sprout-baselines
    lower("baselines.endpoint_busy_share", "ratio"),
    lower("baselines.ns_per_poll", "ns"),
    lower("baselines.ns_per_packet", "ns"),
    // sprout-sim
    lower("sim.loop_self_share", "ratio"),
    lower("sim.loop_ns_per_delivery", "ns"),
    lower("sim.loop_ns_per_opportunity", "ns"),
    lower("sim.deliveries", "count"),
    lower("sim.opportunities", "count"),
    lower("sim.queue_drops", "count"),
    lower("sim.link_service_ns", "ns"),
    lower("sim.codel_service_ns", "ns"),
    lower("sim.metrics_reduce_ms", "ms"),
    lower("sim.wheel_ns", "ns"),
    lower("sim.serve_loop_self_share", "ratio"),
    lower("sim.tick_ms_p50", "ms"),
    lower("sim.tick_ms_p99", "ms"),
    // sprout-tunnel
    lower("tunnel.server_busy_share", "ratio"),
    lower("tunnel.server_ns_per_poll", "ns"),
    lower("tunnel.server_ns_per_packet", "ns"),
    // sprout-cache
    lower("cache.store_us_4k", "us"),
    lower("cache.load_us_4k", "us"),
    lower("cache.load_ms_6m", "ms"),
    higher("cache.fingerprint_mb_s", "MB/s"),
    higher("cache.hit_ratio", "ratio"),
    higher("cache.hits", "count"),
    lower("cache.misses", "count"),
    lower("cache.stores", "count"),
    // sprout-bench
    lower("bench.load_cell_us", "us"),
    lower("bench.store_cell_us", "us"),
    lower("bench.json_us_per_cell", "us"),
    lower("bench.render_ms", "ms"),
    lower("bench.matrix_build_ms", "ms"),
    lower("bench.engine_overhead_share", "ratio"),
    lower("bench.cell_ms_p50", "ms"),
    lower("bench.cell_ms_p95", "ms"),
    lower("bench.cell_ms_max", "ms"),
    higher("bench.scaling_2t", "ratio"),
    lower("bench.batches", "count"),
    lower("bench.tables_built", "count"),
    higher("bench.tables_reused", "count"),
    lower("bench.traces_built", "count"),
    higher("bench.traces_reused", "count"),
    lower("bench.trace_overhead", "ratio"),
    // sprout-control
    lower("control.inproc_s", "s"),
    lower("control.overhead_s", "s"),
    lower("control.queue_to_running_ms", "ms"),
    lower("control.merge_ms", "ms"),
    lower("control.submit_rtt_ms", "ms"),
    lower("control.status_rtt_ms", "ms"),
    lower("control.worker_retries", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(
                well_formed(name),
                "{name:?} must match [A-Za-z0-9][A-Za-z0-9_.-]*"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "names are used once");
    }

    #[test]
    fn benchmark_json_declares_exactly_these_names() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_object().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_array()
                .iter()
                .map(|entry| {
                    entry
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = doc.get(key).unwrap().as_array();
            assert_eq!(declared.len(), defs.len(), "{key}");
            for (entry, def) in declared.iter().zip(defs) {
                let field = |k: &str| entry.get(k).and_then(Value::as_str).unwrap();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
            }
        }
        for entry in doc.get("end_to_end").unwrap().as_array() {
            let bound = entry.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert_eq!(
            doc.get("paths").unwrap().as_array(),
            [Value::from("benchmark")]
        );
    }
}
