//! Per-cell result persistence: the `cell-result` artifact kind.
//!
//! A [`SweepResult`] is a pure function of `(engine version, matrix
//! declaration, scenario, master seed)` — everything else (thread count,
//! shard assignment, execution order) is guaranteed not to matter by the
//! sweep engine's determinism contract. This module persists finished
//! cells in the shared `sprout-cache` store under exactly that key, with
//! the same checksummed/atomic/versioned guarantees forecast tables and
//! synthesized traces already enjoy. It is what makes sweeps:
//!
//! * **shardable** — processes running disjoint shards of one matrix
//!   against one cache directory each deposit their cells; a merge pass
//!   reassembles the canonical sweep from the cache alone;
//! * **resumable** — a killed or partially-failed sweep reruns with
//!   [`CellCachePolicy::Resume`](crate::sweep::CellCachePolicy) and only
//!   executes the cells that never completed.
//!
//! The payload deliberately **excludes** [`SweepResult::wall_ms`]: wall
//! time is a property of one execution, not of the cell, and the
//! canonical sweep JSON excludes it for the same reason. Cached loads
//! report `wall_ms = 0.0`, which also makes "served from cache" visible
//! to anything that times cells (`benchmark/`).

use sprout_cache::{ArtifactKind, ByteReader, ByteWriter, CacheCounters};

use crate::scenario::{ResolvedQueue, Scenario};
use crate::schemes::SchemeResult;
use crate::sweep::{
    CellSeries, CellSeriesBin, FlowSummary, InterarrivalSummary, SeriesRow, ServeStats, SweepResult,
};

/// On-disk persistence of sweep cells. The version covers the payload
/// encoding only; simulation-semantics changes are keyed separately by
/// [`ENGINE_VERSION`].
static CELL_ARTIFACT: ArtifactKind = ArtifactKind::new("cell-result", 1);

/// On-disk persistence of per-cell time series, stored *alongside* the
/// cell result under the same key (own kind, own file). Split out so the
/// summary payload stays small for sweeps that never request a series,
/// while a `--timeseries` resume can serve both without re-simulating.
static CELL_SERIES_ARTIFACT: ArtifactKind = ArtifactKind::new("cell-series", 1);

/// Version of the sweep engine's *execution semantics*. Bump whenever a
/// change makes the same `(matrix, scenario, master_seed)` produce
/// different results — endpoint behavior, seed derivation, metrics
/// definitions — so stale cell results read as misses instead of
/// silently resurfacing pre-change numbers.
///
/// v2: the default DropTail queue became an explicit deep capacity
/// (`DEEP_QUEUE_BYTES`) instead of unbounded, and cells gained
/// prop-delay / queue-depth / app-workload axes (new `Scenario` fields
/// and a richer `ResolvedQueue` payload encoding).
///
/// v3: multi-flow contention workloads (`Workload::Contention` grows
/// the canonical workload detail) and `SweepResult` gained the Jain's
/// fairness field, which the cell payload now encodes.
///
/// v4: the fault-injection layer. `Scenario` gained the `impairment`
/// field (burst loss, outages, jitter, reordering — encoded into the
/// canonical bytes), the per-cell seed derivation grew the
/// `impair-data`/`impair-feedback`/`impair-outage` sub-streams, and
/// `SchemeResult` gained the graceful-degradation metrics (`outages`,
/// `recovery_ms`, `degraded_delivery`), which the payload now encodes.
///
/// v5: the multi-session serve workload. `Workload::Serve` joined the
/// scenario axis (new canonical workload id/detail), the per-cell seed
/// derivation grew the per-session `session` sub-streams
/// ([`sprout_trace::session_seed`]), and `SweepResult` gained the
/// [`ServeStats`] capacity summary, which the payload now encodes.
///
/// v6: measured-trace replay and the cell-series artifact. `Scenario`
/// links became [`crate::scenario::LinkSpec`] (measured captures keyed
/// by the content fingerprint of their raw bytes, never a path) and
/// gained the `cell_series_bin` request field; a cell result now
/// carries an optional time-series attachment persisted as its own
/// "cell-series" artifact under the same key, and a series-requesting
/// hit must find that artifact — the bump retires every pre-series
/// cell so the invariant holds from the first v6 run.
pub const ENGINE_VERSION: u32 = 6;

/// Disk-cache traffic counters for cell results (hits mean a sweep
/// served a whole cell without simulating it).
pub fn cell_cache_counters() -> CacheCounters {
    CELL_ARTIFACT.counters()
}

/// Disk-cache traffic counters for per-cell time-series artifacts.
pub fn cell_series_cache_counters() -> CacheCounters {
    CELL_SERIES_ARTIFACT.counters()
}

/// The full content address of one cell's result. The cache layer stores
/// these bytes verbatim and compares them on load, so two cells collide
/// only if every component below is identical.
fn cell_key(
    matrix_name: &str,
    matrix_fingerprint: u64,
    scenario: &Scenario,
    master_seed: u64,
) -> Vec<u8> {
    cell_key_versioned(
        ENGINE_VERSION,
        matrix_name,
        matrix_fingerprint,
        scenario,
        master_seed,
    )
}

/// [`cell_key`] under an explicit engine version, so tests can prove
/// cells stored by an older engine are *missed* (re-executed), never
/// wrongly served.
fn cell_key_versioned(
    engine_version: u32,
    matrix_name: &str,
    matrix_fingerprint: u64,
    scenario: &Scenario,
    master_seed: u64,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(128);
    w.u32(engine_version);
    w.str(matrix_name);
    w.u64(matrix_fingerprint);
    w.u64(master_seed);
    scenario.canonical_bytes(&mut w);
    w.finish()
}

fn encode_result(r: &SweepResult) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(256 + 40 * r.series.len());
    let (queue_tag, queue_cap) = match r.queue {
        ResolvedQueue::DropTail => (0u32, 0u64),
        ResolvedQueue::CoDel => (1, 0),
        ResolvedQueue::DropTailBytes(cap) => (2, cap),
    };
    w.u32(queue_tag).u64(queue_cap);
    w.u64(r.cell_seed);
    w.bool(r.metrics.is_some());
    if let Some(m) = &r.metrics {
        w.f64(m.throughput_kbps)
            .f64(m.p95_delay_ms)
            .f64(m.self_inflicted_ms)
            .f64(m.omniscient_ms)
            .f64(m.utilization)
            .u32(m.outages)
            .f64(m.recovery_ms)
            .f64(m.degraded_delivery);
    }
    w.u32(r.flows.len() as u32);
    for f in &r.flows {
        w.u32(f.flow).f64(f.throughput_kbps).f64(f.p95_delay_ms);
    }
    w.bool(r.fairness.is_some());
    w.f64(r.fairness.unwrap_or(0.0));
    w.u32(r.series.len() as u32);
    for s in &r.series {
        w.f64(s.t_s)
            .f64(s.capacity_kbps)
            .f64(s.throughput_kbps)
            .f64(s.worst_delay_ms);
    }
    w.bool(r.serve.is_some());
    if let Some(s) = &r.serve {
        w.u32(s.sessions)
            .u64(s.delivered_bytes)
            .u64(s.min_session_bytes)
            .u64(s.max_session_bytes)
            .u64(s.wire_delivered_bytes);
    }
    w.bool(r.interarrival.is_some());
    if let Some(ia) = &r.interarrival {
        w.f64(ia.fraction_within_20ms);
        w.bool(ia.tail_slope.is_some());
        w.f64(ia.tail_slope.unwrap_or(0.0));
        w.u64(ia.samples);
        w.u32(ia.rows.len() as u32);
        for &(lo, hi, pct) in &ia.rows {
            w.f64(lo).f64(hi).f64(pct);
        }
    }
    w.finish()
}

fn decode_result(scenario: &Scenario, matrix_name: &str, bytes: &[u8]) -> Option<SweepResult> {
    let mut r = ByteReader::new(bytes);
    let queue = match (r.u32()?, r.u64()?) {
        (0, _) => ResolvedQueue::DropTail,
        (1, _) => ResolvedQueue::CoDel,
        (2, cap) => ResolvedQueue::DropTailBytes(cap),
        _ => return None,
    };
    let cell_seed = r.u64()?;
    let metrics = if r.bool()? {
        Some(SchemeResult {
            throughput_kbps: r.f64()?,
            p95_delay_ms: r.f64()?,
            self_inflicted_ms: r.f64()?,
            omniscient_ms: r.f64()?,
            utilization: r.f64()?,
            outages: r.u32()?,
            recovery_ms: r.f64()?,
            degraded_delivery: r.f64()?,
        })
    } else {
        None
    };
    let n_flows = r.u32()? as usize;
    let mut flows = Vec::with_capacity(n_flows);
    for _ in 0..n_flows {
        flows.push(FlowSummary {
            flow: r.u32()?,
            throughput_kbps: r.f64()?,
            p95_delay_ms: r.f64()?,
        });
    }
    let has_fairness = r.bool()?;
    let fairness_value = r.f64()?;
    let fairness = has_fairness.then_some(fairness_value);
    let n_series = r.u32()? as usize;
    let mut series = Vec::with_capacity(n_series);
    for _ in 0..n_series {
        series.push(SeriesRow {
            t_s: r.f64()?,
            capacity_kbps: r.f64()?,
            throughput_kbps: r.f64()?,
            worst_delay_ms: r.f64()?,
        });
    }
    let serve = if r.bool()? {
        Some(ServeStats {
            sessions: r.u32()?,
            delivered_bytes: r.u64()?,
            min_session_bytes: r.u64()?,
            max_session_bytes: r.u64()?,
            wire_delivered_bytes: r.u64()?,
        })
    } else {
        None
    };
    let interarrival = if r.bool()? {
        let fraction_within_20ms = r.f64()?;
        let has_slope = r.bool()?;
        let slope = r.f64()?;
        let samples = r.u64()?;
        let n_rows = r.u32()? as usize;
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            rows.push((r.f64()?, r.f64()?, r.f64()?));
        }
        Some(InterarrivalSummary {
            fraction_within_20ms,
            tail_slope: has_slope.then_some(slope),
            samples,
            rows,
        })
    } else {
        None
    };
    if r.remaining() != 0 {
        return None;
    }
    Some(SweepResult {
        scenario: scenario.clone(),
        matrix: matrix_name.to_string(),
        queue,
        cell_seed,
        metrics,
        flows,
        fairness,
        series,
        interarrival,
        serve,
        cell_series: None,
        wall_ms: 0.0,
    })
}

/// Encode the time-series attachment. `None` writes an explicit marker:
/// a cell whose workload produces no series (probe, serve) still stores
/// a valid artifact, so its hits never demote for a series that never
/// existed.
fn encode_series(series: Option<&CellSeries>) -> Vec<u8> {
    let n = series.map_or(0, |s| s.delays.len() + s.bins.len());
    let mut w = ByteWriter::with_capacity(16 + 34 * n);
    w.bool(series.is_some());
    if let Some(s) = series {
        w.u64(s.bin_us);
        w.u32(s.delays.len() as u32);
        for &(t_s, delay_ms) in &s.delays {
            w.f64(t_s).f64(delay_ms);
        }
        w.u32(s.bins.len() as u32);
        for b in &s.bins {
            w.f64(b.t_s)
                .f64(b.capacity_kbps)
                .f64(b.throughput_kbps)
                .u64(b.queue_depth);
        }
    }
    w.finish()
}

/// Decode a time-series artifact. The outer `Option` is decode success;
/// the inner one mirrors [`SweepResult::cell_series`].
fn decode_series(bytes: &[u8]) -> Option<Option<CellSeries>> {
    let mut r = ByteReader::new(bytes);
    let series = if r.bool()? {
        let bin_us = r.u64()?;
        let n_delays = r.u32()? as usize;
        let mut delays = Vec::with_capacity(n_delays);
        for _ in 0..n_delays {
            delays.push((r.f64()?, r.f64()?));
        }
        let n_bins = r.u32()? as usize;
        let mut bins = Vec::with_capacity(n_bins);
        for _ in 0..n_bins {
            bins.push(CellSeriesBin {
                t_s: r.f64()?,
                capacity_kbps: r.f64()?,
                throughput_kbps: r.f64()?,
                queue_depth: r.u64()?,
            });
        }
        Some(CellSeries {
            bin_us,
            delays,
            bins,
        })
    } else {
        None
    };
    (r.remaining() == 0).then_some(series)
}

/// Load the cached result of one cell, if present and intact. A payload
/// that passed the file-level integrity checks but fails to *decode*
/// (schema drift inside one engine version, bit rot the checksum missed)
/// is quarantined — the entry is renamed to `*.corrupt` — and the hit is
/// demoted to a miss, so the sweep re-executes the cell instead of
/// failing.
pub fn load_cell(
    matrix_name: &str,
    matrix_fingerprint: u64,
    scenario: &Scenario,
    master_seed: u64,
) -> Option<SweepResult> {
    let key = cell_key(matrix_name, matrix_fingerprint, scenario, master_seed);
    let payload = CELL_ARTIFACT.load(&key)?;
    let mut decoded = match decode_result(scenario, matrix_name, &payload) {
        Some(r) => r,
        None => {
            CELL_ARTIFACT.quarantine(&key);
            CELL_ARTIFACT.demote_hit();
            return None;
        }
    };
    if scenario.cell_series_bin.is_some() {
        // The scenario requests a time series, so a hit must supply the
        // series artifact too; anything less demotes the whole cell to
        // a miss (re-execute), never a series-less stale hit.
        match CELL_SERIES_ARTIFACT.load(&key) {
            None => {
                CELL_ARTIFACT.demote_hit();
                return None;
            }
            Some(bytes) => match decode_series(&bytes) {
                Some(series) => decoded.cell_series = series,
                None => {
                    CELL_SERIES_ARTIFACT.quarantine(&key);
                    CELL_SERIES_ARTIFACT.demote_hit();
                    CELL_ARTIFACT.demote_hit();
                    return None;
                }
            },
        }
    }
    Some(decoded)
}

/// Persist one executed cell (best-effort; a disabled cache is a no-op).
pub fn store_cell(matrix_fingerprint: u64, master_seed: u64, result: &SweepResult) -> bool {
    let key = cell_key(
        &result.matrix,
        matrix_fingerprint,
        &result.scenario,
        master_seed,
    );
    let stored = CELL_ARTIFACT.store(&key, &encode_result(result));
    if result.scenario.cell_series_bin.is_some() {
        CELL_SERIES_ARTIFACT.store(&key, &encode_series(result.cell_series.as_ref()));
    }
    stored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;
    use crate::schemes::Scheme;
    use sprout_trace::{Duration, NetProfile};

    /// Serializes the tests that mutate the process-global cache-dir
    /// override (and read the process-global traffic counters).
    static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn sample_scenario() -> Scenario {
        Scenario {
            id: 3,
            label: "t/vz-lte-down/sprout".into(),
            workload: Workload::Scheme(Scheme::Sprout),
            link: NetProfile::VerizonLteDown.into(),
            queue: crate::scenario::QueueSpec::Auto,
            prop_delay: Duration::from_millis(20),
            loss_rate: 0.05,
            confidence_pct: Some(75.0),
            duration: Duration::from_secs(30),
            warmup: Duration::from_secs(5),
            series_bin: Some(Duration::from_millis(500)),
            impairment: sprout_trace::Impairment::preset("burst").expect("known preset"),
            cell_series_bin: None,
        }
    }

    fn sample_series() -> CellSeries {
        CellSeries {
            bin_us: 500_000,
            delays: vec![(0.25, 12.5), (0.75, 80.0)],
            bins: vec![CellSeriesBin {
                t_s: 0.0,
                capacity_kbps: 1000.0,
                throughput_kbps: 900.0,
                queue_depth: 3,
            }],
        }
    }

    fn sample_result() -> SweepResult {
        SweepResult {
            scenario: sample_scenario(),
            matrix: "t".into(),
            queue: ResolvedQueue::DropTail,
            cell_seed: 0xdead_beef,
            metrics: Some(SchemeResult {
                throughput_kbps: 1234.5,
                p95_delay_ms: f64::NAN, // NaN must survive the round trip
                self_inflicted_ms: 42.0,
                omniscient_ms: 20.0,
                utilization: 0.93,
                outages: 2,
                recovery_ms: 350.0,
                degraded_delivery: f64::NAN, // NaN → null must round-trip too
            }),
            flows: vec![FlowSummary {
                flow: 1,
                throughput_kbps: 100.0,
                p95_delay_ms: 17.0,
            }],
            fairness: Some(0.75),
            series: vec![SeriesRow {
                t_s: 0.5,
                capacity_kbps: 5000.0,
                throughput_kbps: 4500.0,
                worst_delay_ms: 12.0,
            }],
            interarrival: Some(InterarrivalSummary {
                fraction_within_20ms: 0.9999,
                tail_slope: None,
                samples: 7,
                rows: vec![(0.0, 10.0, 99.0)],
            }),
            serve: Some(ServeStats {
                sessions: 16,
                delivered_bytes: 1_000_000,
                min_session_bytes: 50_000,
                max_session_bytes: 70_000,
                wire_delivered_bytes: 1_200_000,
            }),
            cell_series: None,
            wall_ms: 123.0,
        }
    }

    #[test]
    fn result_encoding_round_trips_excluding_wall_time() {
        let r = sample_result();
        let bytes = encode_result(&r);
        let back = decode_result(&r.scenario, "t", &bytes).expect("decodes");
        let mut expect = r.clone();
        expect.wall_ms = 0.0; // wall time is per-execution, not cached
                              // NaN != NaN, so compare through the canonical JSON rendering,
                              // which is the representation the bit-identity guarantee is about.
        assert_eq!(
            crate::sweep::result_to_json(&back),
            crate::sweep::result_to_json(&expect)
        );
        assert_eq!(back.wall_ms, 0.0);
    }

    #[test]
    fn truncated_payload_decodes_to_none() {
        let r = sample_result();
        let bytes = encode_result(&r);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_result(&r.scenario, "t", &bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(
            decode_result(&r.scenario, "t", &padded).is_none(),
            "trailing bytes must not decode"
        );
    }

    #[test]
    fn pre_bump_engine_versions_are_cache_misses_not_stale_hits() {
        // Cells persisted by an older engine must be *missed* (and thus
        // re-executed by a resume/merge), never served: the key leads
        // with ENGINE_VERSION, so the bump retires every old cell.
        let _g = CACHE_LOCK.lock().unwrap();
        let dir =
            std::env::temp_dir().join(format!("sprout-engine-version-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sprout_cache::set_dir(&dir);

        let r = sample_result();
        let (fp, seed) = (0xfeed, 7);
        for old_version in [0, ENGINE_VERSION - 1] {
            let old_key = cell_key_versioned(old_version, "t", fp, &r.scenario, seed);
            assert!(
                CELL_ARTIFACT.store(&old_key, &encode_result(&r)),
                "storing under engine version {old_version}"
            );
        }
        assert!(
            load_cell("t", fp, &r.scenario, seed).is_none(),
            "cells keyed under a pre-bump engine version must be misses"
        );
        assert!(store_cell(fp, seed, &r));
        assert!(
            load_cell("t", fp, &r.scenario, seed).is_some(),
            "the current engine version serves its own cells"
        );

        sprout_cache::reset_override();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_payload_is_quarantined_and_demoted_to_a_miss() {
        // A file that passes the cache's magic/checksum checks but whose
        // payload no longer decodes (e.g. bit rot the checksum missed, or
        // schema drift inside one engine version) must not fail the sweep:
        // the entry is pushed aside to *.corrupt and the cell re-executes.
        let _g = CACHE_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!(
            "sprout-cell-quarantine-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        sprout_cache::set_dir(&dir);

        let r = sample_result();
        let (fp, seed) = (0xabad, 11);
        let key = cell_key("t", fp, &r.scenario, seed);
        assert!(
            CELL_ARTIFACT.store(&key, b"not a cell payload"),
            "a checksum-valid file with a garbage payload"
        );

        let before = cell_cache_counters();
        assert!(
            load_cell("t", fp, &r.scenario, seed).is_none(),
            "an undecodable payload must demote to a miss"
        );
        let traffic = cell_cache_counters().since(before);
        assert_eq!(
            (traffic.hits, traffic.misses, traffic.quarantined),
            (0, 1, 1),
            "the file-level hit is reclassified and the entry quarantined"
        );
        // The poisoned name is free: a fresh store then serves normally.
        assert!(store_cell(fp, seed, &r));
        assert!(load_cell("t", fp, &r.scenario, seed).is_some());

        sprout_cache::reset_override();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_payload_round_trips_and_none_is_an_explicit_marker() {
        let s = sample_series();
        let bytes = encode_series(Some(&s));
        assert_eq!(decode_series(&bytes), Some(Some(s)));
        assert_eq!(
            decode_series(&encode_series(None)),
            Some(None),
            "a workload without a series stores a valid 'none' artifact"
        );
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            decode_series(&padded),
            None,
            "trailing bytes must not decode"
        );
        assert_eq!(decode_series(&bytes[..bytes.len() - 1]), None);
        assert_eq!(decode_series(b""), None);
    }

    #[test]
    fn series_requesting_cells_round_trip_and_demote_without_their_series() {
        let _g = CACHE_LOCK.lock().unwrap();
        let dir =
            std::env::temp_dir().join(format!("sprout-cell-series-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sprout_cache::set_dir(&dir);

        let mut r = sample_result();
        r.scenario.cell_series_bin = Some(Duration::from_millis(500));
        r.cell_series = Some(sample_series());
        let (fp, seed) = (0xc0de, 13);
        assert!(store_cell(fp, seed, &r));
        let back = load_cell("t", fp, &r.scenario, seed).expect("hit serves both artifacts");
        assert_eq!(back.cell_series, r.cell_series);

        // A result entry without its requested series artifact (stored
        // directly, bypassing store_cell) must demote to a miss.
        let (fp2, seed2) = (0xc0df, 14);
        let key2 = cell_key("t", fp2, &r.scenario, seed2);
        assert!(CELL_ARTIFACT.store(&key2, &encode_result(&r)));
        let before = cell_cache_counters();
        assert!(
            load_cell("t", fp2, &r.scenario, seed2).is_none(),
            "a series-requesting hit without its series re-executes"
        );
        let traffic = cell_cache_counters().since(before);
        assert_eq!((traffic.hits, traffic.misses), (0, 1));

        // An undecodable series payload quarantines and demotes too.
        assert!(CELL_SERIES_ARTIFACT.store(&key2, b"not a series payload"));
        let s_before = cell_series_cache_counters();
        assert!(load_cell("t", fp2, &r.scenario, seed2).is_none());
        let s_traffic = cell_series_cache_counters().since(s_before);
        assert_eq!((s_traffic.hits, s_traffic.quarantined), (0, 1));

        sprout_cache::reset_override();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_matrices_seeds_and_cells() {
        let s = sample_scenario();
        let base = cell_key("t", 1, &s, 7);
        assert_eq!(base, cell_key("t", 1, &s, 7));
        assert_ne!(base, cell_key("u", 1, &s, 7));
        assert_ne!(base, cell_key("t", 2, &s, 7));
        assert_ne!(base, cell_key("t", 1, &s, 8));
        let mut other = s.clone();
        other.loss_rate = 0.10;
        assert_ne!(base, cell_key("t", 1, &other, 7));
    }
}
