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

use sprout_cache::{ArtifactKind, ByteWriter, CacheCounters};

use crate::record::{self, Part, SweepResult};
use crate::scenario::Scenario;

/// On-disk persistence of sweep cells. The version covers the payload
/// encoding only; simulation-semantics changes are keyed separately by
/// [`ENGINE_VERSION`].
///
/// v2: the payload is the record's [`Part::Canonical`] fields in walk
/// order under the one layout rule of `crate::record` (v1 hand-encoded
/// each field, with two option encodings and `u32` counts). The version
/// is part of the file name, so v1 files are never opened: a cell stored
/// by an older build is a plain miss.
static CELL_ARTIFACT: ArtifactKind = ArtifactKind::new("cell-result", 2);

/// On-disk persistence of per-cell time series, stored *alongside* the
/// cell result under the same key (own kind, own file). Split out so the
/// summary payload stays small for sweeps that never request a series,
/// while a `--timeseries` resume can serve both without re-simulating.
/// The payload is the record's [`Part::Series`] — an absent series is
/// stored as such, so a cell whose workload produces none (probe, serve)
/// still has a valid artifact and its hits never demote for a series
/// that never existed. v2 for the same reason as [`CELL_ARTIFACT`].
static CELL_SERIES_ARTIFACT: ArtifactKind = ArtifactKind::new("cell-series", 2);

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
/// [`ServeStats`](crate::record::ServeStats) capacity summary, which the
/// payload now encodes.
///
/// v6: measured-trace replay and the cell-series artifact. `Scenario`
/// links became [`crate::scenario::LinkSpec`] (measured captures keyed
/// by the content fingerprint of their raw bytes, never a path) and
/// gained the `cell_series_bin` request field; a cell result now
/// carries an optional time-series attachment persisted as its own
/// "cell-series" artifact under the same key, and a series-requesting
/// hit must find that artifact — the bump retires every pre-series
/// cell so the invariant holds from the first v6 run.
///
/// The bump is enforced, not remembered: `tests/fingerprints.rs` records
/// this constant and the fingerprint of [`record::schema`] in the golden
/// snapshots, and fails when pinned results or the schema change while
/// the recorded version still equals this one.
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
    let mut result = SweepResult::unmeasured(matrix_name, scenario, master_seed);
    if record::decode(&mut result, Part::Canonical, &payload).is_none() {
        CELL_ARTIFACT.quarantine(&key);
        CELL_ARTIFACT.demote_hit();
        return None;
    }
    if scenario.cell_series_bin.is_some() {
        // The scenario requests a time series, so a hit must supply the
        // series artifact too; anything less demotes the whole cell to
        // a miss (re-execute), never a series-less stale hit.
        let Some(bytes) = CELL_SERIES_ARTIFACT.load(&key) else {
            CELL_ARTIFACT.demote_hit();
            return None;
        };
        if record::decode(&mut result, Part::Series, &bytes).is_none() {
            CELL_SERIES_ARTIFACT.quarantine(&key);
            CELL_SERIES_ARTIFACT.demote_hit();
            CELL_ARTIFACT.demote_hit();
            return None;
        }
    }
    Some(result)
}

/// Persist one executed cell (best-effort; a disabled cache is a no-op).
pub fn store_cell(matrix_fingerprint: u64, master_seed: u64, result: &SweepResult) -> bool {
    let key = cell_key(
        &result.matrix,
        matrix_fingerprint,
        &result.scenario,
        master_seed,
    );
    let stored = CELL_ARTIFACT.store(&key, &record::encode(result, Part::Canonical));
    if result.scenario.cell_series_bin.is_some() {
        CELL_SERIES_ARTIFACT.store(&key, &record::encode(result, Part::Series));
    }
    stored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::scenario;
    use crate::record::{
        CellSeries, CellSeriesBin, FlowSummary, InterarrivalSummary, Measured, SchemeResult,
        SeriesRow, ServeStats,
    };
    use sprout_trace::Duration;

    /// Serializes the tests that mutate the process-global cache-dir
    /// override (and read the process-global traffic counters).
    static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Point the cache at a fresh directory for one test.
    fn fresh_cache(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sprout-{tag}-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sprout_cache::set_dir(&dir);
        dir
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

    const SEED: u64 = 7;

    fn sample_result() -> SweepResult {
        let mut r = SweepResult::unmeasured("t", &scenario(), SEED);
        r.wall_ms = 123.0;
        r.measured = Measured {
            metrics: Some(SchemeResult {
                throughput_kbps: 1234.5,
                p95_delay_ms: f64::NAN,
                self_inflicted_ms: 42.0,
                omniscient_ms: 20.0,
                utilization: 0.93,
                outages: 2,
                recovery_ms: 350.0,
                degraded_delivery: f64::NAN,
            }),
            fairness: Some(0.75),
            flows: vec![FlowSummary {
                flow: 1,
                throughput_kbps: 100.0,
                p95_delay_ms: 17.0,
            }],
            series: vec![SeriesRow {
                t_s: 0.5,
                capacity_kbps: 5000.0,
                throughput_kbps: 4500.0,
                worst_delay_ms: 12.0,
            }],
            serve: Some(ServeStats {
                sessions: 16,
                delivered_bytes: 1_000_000,
                min_session_bytes: 50_000,
                max_session_bytes: 70_000,
                wire_delivered_bytes: 1_200_000,
            }),
            interarrival: Some(InterarrivalSummary {
                fraction_within_20ms: 0.9999,
                tail_slope: None,
                samples: 7,
                rows: vec![(0.0, 10.0, 99.0)],
            }),
            cell_series: None,
        };
        r
    }

    #[test]
    fn pre_bump_engine_versions_are_cache_misses_not_stale_hits() {
        // Cells persisted by an older engine must be *missed* (and thus
        // re-executed by a resume/merge), never served: the key leads
        // with ENGINE_VERSION, so the bump retires every old cell.
        let _g = CACHE_LOCK.lock().unwrap();
        let dir = fresh_cache("engine-version");

        let r = sample_result();
        let fp = 0xfeed;
        for old_version in [0, ENGINE_VERSION - 1] {
            let old_key = cell_key_versioned(old_version, "t", fp, &r.scenario, SEED);
            assert!(
                CELL_ARTIFACT.store(&old_key, &record::encode(&r, Part::Canonical)),
                "storing under engine version {old_version}"
            );
        }
        assert!(
            load_cell("t", fp, &r.scenario, SEED).is_none(),
            "cells keyed under a pre-bump engine version must be misses"
        );
        assert!(store_cell(fp, SEED, &r));
        assert!(
            load_cell("t", fp, &r.scenario, SEED).is_some(),
            "the current engine version serves its own cells"
        );

        sprout_cache::reset_override();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_v2_cell_results_are_misses_not_quarantined() {
        // The payload-layout bump (artifact v1 -> v2) is in the file
        // name: a v1 file under the very same key is never opened, so it
        // is a plain miss — not damage to quarantine — and it stays put.
        let _g = CACHE_LOCK.lock().unwrap();
        let dir = fresh_cache("artifact-v1");
        static V1_RESULT: ArtifactKind = ArtifactKind::new("cell-result", 1);
        static V1_SERIES: ArtifactKind = ArtifactKind::new("cell-series", 1);

        let mut r = sample_result();
        r.scenario.cell_series_bin = Some(Duration::from_millis(500));
        let fp = 0x0001;
        let key = cell_key("t", fp, &r.scenario, SEED);
        assert!(V1_RESULT.store(&key, b"a v1 payload"));
        assert!(V1_SERIES.store(&key, b"a v1 series payload"));
        let files_before = std::fs::read_dir(&dir).unwrap().count();

        let (c0, s0) = (cell_cache_counters(), cell_series_cache_counters());
        assert!(load_cell("t", fp, &r.scenario, SEED).is_none());
        let (c, s) = (
            cell_cache_counters().since(c0),
            cell_series_cache_counters().since(s0),
        );
        assert_eq!((c.hits, c.misses, c.quarantined), (0, 1, 0));
        assert_eq!((s.hits, s.misses, s.quarantined), (0, 0, 0));
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            files_before,
            "the v1 files are left alone"
        );
        // A v2 store then serves, next to them.
        assert!(store_cell(fp, SEED, &r));
        assert!(load_cell("t", fp, &r.scenario, SEED).is_some());

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
        let dir = fresh_cache("cell-quarantine");

        let r = sample_result();
        let fp = 0xabad;
        let key = cell_key("t", fp, &r.scenario, SEED);
        assert!(
            CELL_ARTIFACT.store(&key, b"not a cell payload"),
            "a checksum-valid file with a garbage payload"
        );

        let before = cell_cache_counters();
        assert!(
            load_cell("t", fp, &r.scenario, SEED).is_none(),
            "an undecodable payload must demote to a miss"
        );
        let traffic = cell_cache_counters().since(before);
        assert_eq!(
            (traffic.hits, traffic.misses, traffic.quarantined),
            (0, 1, 1),
            "the file-level hit is reclassified and the entry quarantined"
        );
        // The poisoned name is free: a fresh store then serves normally.
        assert!(store_cell(fp, SEED, &r));
        assert!(load_cell("t", fp, &r.scenario, SEED).is_some());

        sprout_cache::reset_override();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn huge_stored_counts_are_quarantined_misses_not_allocations() {
        // Well-checksummed payloads whose sequence count claims ~4 G (or
        // ~2^64) elements: decoding must refuse before allocating — no
        // abort, no "capacity overflow" panic — and the cell re-executes.
        let _g = CACHE_LOCK.lock().unwrap();
        let dir = fresh_cache("cell-huge-count");

        let mut r = sample_result();
        r.scenario.cell_series_bin = Some(Duration::from_millis(500));
        r.measured.cell_series = Some(sample_series());
        for (i, count) in [u64::from(u32::MAX), u64::MAX].into_iter().enumerate() {
            // cell-result: no metrics, no fairness, then `flows` claims
            // `count` elements.
            let fp = 0xb16 + i as u64;
            let key = cell_key("t", fp, &r.scenario, SEED);
            let mut w = ByteWriter::new();
            w.bool(false).bool(false).u64(count).u64(0);
            assert!(CELL_ARTIFACT.store(&key, &w.finish()));
            let before = cell_cache_counters();
            assert!(load_cell("t", fp, &r.scenario, SEED).is_none());
            let c = cell_cache_counters().since(before);
            assert_eq!(
                (c.hits, c.misses, c.quarantined),
                (0, 1, 1),
                "count {count}"
            );

            // cell-series: a good result next to a series whose `delays`
            // claims `count` samples.
            assert!(store_cell(fp, SEED, &r));
            let mut w = ByteWriter::new();
            w.bool(true).u64(500_000).u64(count).f64(0.5);
            assert!(CELL_SERIES_ARTIFACT.store(&key, &w.finish()));
            let (c0, s0) = (cell_cache_counters(), cell_series_cache_counters());
            assert!(load_cell("t", fp, &r.scenario, SEED).is_none());
            let (c, s) = (
                cell_cache_counters().since(c0),
                cell_series_cache_counters().since(s0),
            );
            assert_eq!((c.hits, c.misses), (0, 1), "count {count}: hit demoted");
            assert_eq!((s.hits, s.quarantined), (0, 1), "count {count}");
        }

        sprout_cache::reset_override();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_requesting_cells_round_trip_and_demote_without_their_series() {
        let _g = CACHE_LOCK.lock().unwrap();
        let dir = fresh_cache("cell-series");

        let mut r = sample_result();
        r.scenario.cell_series_bin = Some(Duration::from_millis(500));
        r.measured.cell_series = Some(sample_series());
        let fp = 0xc0de;
        assert!(store_cell(fp, SEED, &r));
        let back = load_cell("t", fp, &r.scenario, SEED).expect("hit serves both artifacts");
        assert_eq!(back.cell_series, r.cell_series);

        // A workload without a series stores a valid "none" artifact, so
        // its hits never demote.
        let mut none = r.clone();
        none.measured.cell_series = None;
        assert!(store_cell(fp + 1, SEED, &none));
        let back = load_cell("t", fp + 1, &r.scenario, SEED).expect("a stored absence is a hit");
        assert_eq!(back.cell_series, None);

        // A result entry without its requested series artifact (stored
        // directly, bypassing store_cell) must demote to a miss.
        let fp2 = 0xc0df + 1;
        let key2 = cell_key("t", fp2, &r.scenario, SEED);
        assert!(CELL_ARTIFACT.store(&key2, &record::encode(&r, Part::Canonical)));
        let before = cell_cache_counters();
        assert!(
            load_cell("t", fp2, &r.scenario, SEED).is_none(),
            "a series-requesting hit without its series re-executes"
        );
        let traffic = cell_cache_counters().since(before);
        assert_eq!((traffic.hits, traffic.misses), (0, 1));

        // An undecodable series payload quarantines and demotes too.
        assert!(CELL_SERIES_ARTIFACT.store(&key2, b"not a series payload"));
        let s_before = cell_series_cache_counters();
        assert!(load_cell("t", fp2, &r.scenario, SEED).is_none());
        let s_traffic = cell_series_cache_counters().since(s_before);
        assert_eq!((s_traffic.hits, s_traffic.quarantined), (0, 1));

        sprout_cache::reset_override();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_matrices_seeds_and_cells() {
        let s = scenario();
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
