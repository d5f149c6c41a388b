//! Per-cell result persistence: the `cell-result` artifact kind.
//!
//! A [`SweepResult`] is a pure function of `(engine version, matrix
//! declaration, scenario, master seed)` — everything else (thread count,
//! shard assignment, execution order) is guaranteed not to matter by the
//! sweep engine's determinism contract. This module persists finished
//! cells in the shared `sprout-cache` store under exactly that key, with
//! the same checksummed/atomic/versioned guarantees synthesized traces
//! already enjoy. It is what makes sweeps:
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

/// On-disk persistence of sweep cells: one file per cell. The version
/// covers the payload encoding only; simulation-semantics changes are
/// keyed separately by [`ENGINE_VERSION`].
///
/// v3: the payload is the record's parts under the one layout rule of
/// `crate::record` — [`payload_parts`]: the canonical fields, and right
/// behind them the series of a cell that requests one (v2 kept the
/// series in a second file under the same key; v1 hand-encoded each
/// field). The version is part of the file name, so older files are
/// never opened: a cell stored by an older build is a plain miss.
static CELL_ARTIFACT: ArtifactKind = ArtifactKind::new("cell-result", 3);

/// The parts `scenario`'s payload holds. The series request is part of
/// the cache key ([`Scenario::canonical_bytes`]), so one key only ever
/// names one shape, and a series-requesting cell is one store, one hit or
/// one miss. An absent series is stored as such: a cell whose workload
/// produces none (probe, serve) still decodes.
fn payload_parts(scenario: &Scenario) -> &'static [Part] {
    match scenario.cell_series_bin {
        Some(_) => &[Part::Canonical, Part::Series],
        None => &[Part::Canonical],
    }
}

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
/// v6: measured-trace replay and the per-cell time series. `Scenario`
/// links became [`crate::scenario::LinkSpec`] (measured captures keyed
/// by the content fingerprint of their raw bytes, never a path) and
/// gained the `cell_series_bin` request field; a cell result now
/// carries an optional time-series attachment, persisted with it, and a
/// series-requesting hit must supply it — the bump retires every
/// pre-series cell so the invariant holds from the first v6 run.
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
    if record::decode(&mut result, payload_parts(scenario), &payload).is_none() {
        CELL_ARTIFACT.quarantine(&key);
        CELL_ARTIFACT.demote_hit();
        return None;
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
    let parts = payload_parts(&result.scenario);
    CELL_ARTIFACT.store(&key, &record::encode(result, parts))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::tests::scenario;
    use crate::record::{
        CellSeries, CellSeriesBin, FlowSummary, InterarrivalSummary, Measured, SchemeResult,
        SeriesRow, ServeStats,
    };
    use sprout_trace::Duration;

    /// Serializes the tests that mutate the process-global cache-dir
    /// override (and read the process-global traffic counters).
    pub(crate) static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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

    /// `r` as a series-requesting cell that produced a series.
    fn with_series(mut r: SweepResult) -> SweepResult {
        r.scenario.cell_series_bin = Some(Duration::from_millis(500));
        r.measured.cell_series = Some(sample_series());
        r
    }

    /// The names in the cache directory, sorted.
    fn listing(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// Write one artifact exactly as the parent commit's container did —
    /// `SPROUTAC` magic, byte-wise FNV-1a checksum, a file name hashed
    /// from the kind's name and the key alone — and return its name.
    /// (FNV-1a of a concatenation is the chained hash the parent used.)
    fn write_parent_layout_file(
        dir: &std::path::Path,
        kind: &str,
        version: u32,
        key: &[u8],
        payload: &[u8],
    ) -> String {
        let fnv = |a: &[u8], b: &[u8]| sprout_cache::fingerprint64(&[a, b].concat());
        let name = format!("{kind}-v{version}-{:016x}.bin", fnv(kind.as_bytes(), key));
        let mut w = ByteWriter::new();
        w.u32(version).u32(key.len() as u32);
        w.u64(payload.len() as u64).u64(fnv(key, payload));
        let bytes = [b"SPROUTAC", &w.finish()[..], key, payload].concat();
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(&name), bytes).unwrap();
        name
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
                CELL_ARTIFACT.store(&old_key, &record::encode(&r, payload_parts(&r.scenario))),
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
        // Every earlier layout of a cell — v1, and the v2 pair of a
        // `cell-result` and a `cell-series` file the parent commit wrote
        // — lives under file names this build never forms, so it is never
        // opened: a plain miss, not damage to quarantine, and it stays put.
        let _g = CACHE_LOCK.lock().unwrap();
        let dir = fresh_cache("old-artifacts");

        let r = with_series(sample_result());
        let fp = 0x0001;
        let key = cell_key("t", fp, &r.scenario, SEED);
        let canonical = record::encode(&r, &[Part::Canonical]);
        let series = &record::encode(&r, payload_parts(&r.scenario))[canonical.len()..];
        let mut old = vec![
            write_parent_layout_file(&dir, "cell-result", 1, &key, b"a v1 payload"),
            write_parent_layout_file(&dir, "cell-series", 1, &key, b"a v1 series payload"),
            write_parent_layout_file(&dir, "cell-result", 2, &key, &canonical),
            write_parent_layout_file(&dir, "cell-series", 2, &key, series),
        ];
        old.sort();
        assert_eq!(listing(&dir), old);

        let before = cell_cache_counters();
        assert!(load_cell("t", fp, &r.scenario, SEED).is_none());
        let c = cell_cache_counters().since(before);
        assert_eq!((c.hits, c.misses, c.quarantined), (0, 1, 0));
        assert_eq!(listing(&dir), old, "the old files are left alone");
        // A v3 store then serves, next to them, as one more file.
        assert!(store_cell(fp, SEED, &r));
        assert!(load_cell("t", fp, &r.scenario, SEED).is_some());
        assert_eq!(listing(&dir).len(), old.len() + 1);

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

    /// Store `payload` under `r`'s key as a checksum-valid file and
    /// assert the load quarantines it and reports one miss.
    fn assert_quarantined_miss(fp: u64, r: &SweepResult, payload: &[u8], what: &str) {
        let key = cell_key("t", fp, &r.scenario, SEED);
        assert!(CELL_ARTIFACT.store(&key, payload), "{what}");
        let before = cell_cache_counters();
        assert!(load_cell("t", fp, &r.scenario, SEED).is_none(), "{what}");
        let c = cell_cache_counters().since(before);
        assert_eq!((c.hits, c.misses, c.quarantined), (0, 1, 1), "{what}");
    }

    #[test]
    fn huge_stored_counts_are_quarantined_misses_not_allocations() {
        // Well-checksummed payloads whose sequence count claims ~4 G (or
        // ~2^64) elements: decoding must refuse before allocating — no
        // abort, no "capacity overflow" panic — and the cell re-executes.
        let _g = CACHE_LOCK.lock().unwrap();
        let dir = fresh_cache("cell-huge-count");

        let r = with_series(sample_result());
        let canonical = record::encode(&r, &[Part::Canonical]);
        for (i, count) in [u64::from(u32::MAX), u64::MAX].into_iter().enumerate() {
            // The canonical part: no metrics, no fairness, then `flows`
            // claims `count` elements.
            let fp = 0xb16 + i as u64;
            let mut w = ByteWriter::new();
            w.bool(false).bool(false).u64(count).u64(0);
            assert_quarantined_miss(fp, &r, &w.finish(), &format!("flows x {count}"));

            // The series part: a good canonical part, then a series whose
            // `delays` claims `count` samples.
            let mut w = ByteWriter::new();
            w.bool(true).u64(500_000).u64(count).f64(0.5);
            let payload = [&canonical[..], &w.finish()].concat();
            assert_quarantined_miss(fp, &r, &payload, &format!("delays x {count}"));
        }

        sprout_cache::reset_override();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn series_requesting_cells_round_trip_and_demote_without_their_series() {
        let _g = CACHE_LOCK.lock().unwrap();
        let dir = fresh_cache("cell-series");

        // One file, one store, one hit: the cell and its series.
        let r = with_series(sample_result());
        let fp = 0xc0de;
        let before = cell_cache_counters();
        assert!(store_cell(fp, SEED, &r));
        let back = load_cell("t", fp, &r.scenario, SEED).expect("one hit serves the series too");
        assert_eq!(back.cell_series, r.cell_series);
        assert_eq!(back.measured.flows, r.measured.flows);
        let c = cell_cache_counters().since(before);
        assert_eq!((c.hits, c.misses, c.stores), (1, 0, 1));
        let files = listing(&dir);
        assert_eq!(files.len(), 1, "{files:?}");
        assert!(files[0].starts_with("cell-result-v3-"), "{files:?}");

        // A workload without a series stores the absence, so its hits
        // never demote.
        let mut none = r.clone();
        none.measured.cell_series = None;
        assert!(store_cell(fp + 1, SEED, &none));
        let back = load_cell("t", fp + 1, &r.scenario, SEED).expect("a stored absence is a hit");
        assert_eq!(back.cell_series, None);

        // A good canonical part whose requested series part is missing,
        // cut short anywhere, garbled, or followed by anything: the file
        // is quarantined and the cell is a miss (it re-executes) — never
        // a series-less or half-a-series hit.
        let payload = record::encode(&r, payload_parts(&r.scenario));
        let canonical_len = record::encode(&r, &[Part::Canonical]).len();
        for cut in canonical_len..payload.len() {
            let what = format!("series part cut to {} bytes", cut - canonical_len);
            assert_quarantined_miss(fp + 2, &r, &payload[..cut], &what);
        }
        let mut garbled = payload.clone();
        garbled[canonical_len] = 7; // neither "absent" nor "present"
        assert_quarantined_miss(fp + 2, &r, &garbled, "garbled presence byte");
        let garbled = [&payload[..canonical_len], b"not a series payload"].concat();
        assert_quarantined_miss(fp + 2, &r, &garbled, "garbled series part");
        let trailing = [&payload[..], &[0]].concat();
        assert_quarantined_miss(fp + 2, &r, &trailing, "a byte after the last part");
        // Nor does a cell that requests no series accept one.
        let plain = sample_result();
        assert_quarantined_miss(fp + 3, &plain, &payload, "an unrequested series part");
        // The name is free again: the re-executed cell's store serves.
        assert!(store_cell(fp + 2, SEED, &r));
        assert!(load_cell("t", fp + 2, &r.scenario, SEED).is_some());

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
