//! The cell record: what one scenario cell produced, declared once.
//!
//! [`SweepResult`] and its parts are plain structs. Each has exactly one
//! [`Record::walk`] that names every field in order — its JSON key,
//! whether canonical JSON renders the record keyed or positionally, and
//! which [`Part`] of the result the field belongs to; a field's kind
//! (scalar, optional, sequence, nested record) is its type, through
//! [`Value`]. Everything that used to spell the fields out again is a
//! [`Walker`] over that one walk:
//!
//! * the canonical JSON line ([`result_to_json`]; `*_sweep.json` is
//!   [`sweep_to_json`] over it),
//! * the `cell-result` cache payload (`encode`: the canonical part and,
//!   for a cell that requests one, the series part behind it) and its
//!   decoder (`decode`),
//! * the `(path, kind)` listing ([`schema`]) whose fingerprint the golden
//!   snapshots pin next to `ENGINE_VERSION`.
//!
//! So a new result column is: a field on its struct, a line in that
//! struct's walk, and whoever produces it. **Payload layout rule:** a
//! payload is its parts' fields in walk order; a scalar is its
//! little-endian bits, an optional is one presence byte then the value
//! only when present, a sequence is a `u64` count then the elements.
//! Nothing else — no per-field special cases — which is why the payload
//! needs no schema of its own beyond the walk.
//!
//! The walk reaches fields through a [`Lens`] (a shared and an exclusive
//! accessor) because the readers hold `&SweepResult` while the decoder
//! fills a `&mut SweepResult`; everything is monomorphised per record and
//! walker.

use std::ops::Deref;

use sprout_cache::{json, ByteReader, ByteWriter};
use sprout_trace::{derive_labeled_seed, Duration};

use crate::scenario::{ResolvedQueue, Scenario};

// ------------------------------------------------------------ the structs

/// Outcome of one experiment cell (the quantities of Figure 7/8 and the
/// intro tables).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchemeResult {
    /// Average throughput in the measurement window, kbps.
    pub throughput_kbps: f64,
    /// 95% end-to-end delay, ms.
    pub p95_delay_ms: f64,
    /// Self-inflicted delay (p95 − omniscient p95), ms.
    pub self_inflicted_ms: f64,
    /// The omniscient floor, ms.
    pub omniscient_ms: f64,
    /// Fraction of link capacity used.
    pub utilization: f64,
    /// Injected link outages intersecting the measurement window.
    pub outages: u32,
    /// Worst post-outage recovery time, ms: how long after an outage
    /// ended before delay re-entered the cell's own 95th-percentile
    /// envelope (NaN when the window saw no completed outage).
    pub recovery_ms: f64,
    /// Fraction of available link capacity actually delivered while
    /// degraded (outage + recovery intervals; NaN when never degraded).
    pub degraded_delivery: f64,
}

impl SchemeResult {
    /// Convert a direction's raw stats into the paper's reporting units.
    pub fn from_stats(stats: &sprout_sim::DirectionStats) -> Self {
        let ms = |d: Option<Duration>| d.map(|d| d.as_micros() as f64 / 1e3).unwrap_or(f64::NAN);
        SchemeResult {
            throughput_kbps: stats.throughput_kbps,
            p95_delay_ms: ms(stats.p95_delay),
            self_inflicted_ms: ms(stats.self_inflicted),
            omniscient_ms: ms(stats.omniscient_p95),
            utilization: stats.utilization,
            outages: stats.degradation.outage_count,
            recovery_ms: ms(stats.degradation.recovery),
            degraded_delivery: stats
                .degradation
                .degraded_delivered_fraction
                .unwrap_or(f64::NAN),
        }
    }
}

/// Per-flow summary of a mux/tunnel cell.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowSummary {
    /// Flow identifier.
    pub flow: u32,
    /// Average throughput in the measurement window, kbps.
    pub throughput_kbps: f64,
    /// 95% end-to-end delay, ms (NaN when the flow never delivered).
    pub p95_delay_ms: f64,
}

/// One bin of a collected time series (Figure 1).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SeriesRow {
    /// Bin start relative to the measurement window, seconds.
    pub t_s: f64,
    /// Link capacity in the bin, kbps.
    pub capacity_kbps: f64,
    /// Achieved throughput in the bin, kbps.
    pub throughput_kbps: f64,
    /// Worst per-arrival delay in the bin, ms (0 when nothing arrived).
    pub worst_delay_ms: f64,
}

/// Deterministic summary of one multi-session serve cell. Wall-clock
/// capacity numbers (sessions/sec, per-session heap, tick latency) are
/// deliberately *not* here — `benchmark/`'s `serve-pool` workload
/// measures them — so this payload stays bit-identical across machines
/// and thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Number of concurrent sessions the cell served.
    pub sessions: u32,
    /// Sum of per-session uplink wire bytes delivered to the server in
    /// the measurement window.
    pub delivered_bytes: u64,
    /// Smallest per-session delivered-byte count in the window (a
    /// starving session shows up here, not hidden in the average).
    pub min_session_bytes: u64,
    /// Largest per-session delivered-byte count in the window.
    pub max_session_bytes: u64,
    /// Full-run wire bytes the event loop handed to the server, counted
    /// by the loop itself. The conservation property: this equals the
    /// sum over sessions of full-run per-path delivered bytes (the serve
    /// arm asserts it on every run).
    pub wire_delivered_bytes: u64,
}

/// Interarrival statistics of a saturated link (Figure 2).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct InterarrivalSummary {
    /// Fraction of interarrivals within 20 ms (the paper's: claim
    /// `fig2.within_20ms_pct`).
    pub fraction_within_20ms: f64,
    /// Power-law slope of the 20 ms–5 s tail (the paper's: claim
    /// `fig2.tail_slope`).
    pub tail_slope: Option<f64>,
    /// Total interarrivals measured.
    pub samples: u64,
    /// Non-empty histogram bins: (bin start ms, bin end ms, percent).
    pub rows: Vec<(f64, f64, f64)>,
}

/// Per-cell time series (`reproduce --timeseries`), the [`Part::Series`]
/// of a cell's cache payload: every per-arrival delay sample plus
/// per-bin capacity/throughput/queue-depth rows over the measurement
/// window. Collected for scheme workloads (the replay, impair, and soak
/// matrices); workloads without a single metered direction (probe,
/// serve) ignore the request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellSeries {
    /// Bin width of [`Self::bins`], microseconds (a [`Duration`] tick
    /// count; kept integral so the artifact encoding is exact).
    pub bin_us: u64,
    /// Per-arrival samples `(seconds since window start, delay ms)`.
    pub delays: Vec<(f64, f64)>,
    /// Per-bin rows covering the whole measurement window.
    pub bins: Vec<CellSeriesBin>,
}

/// One bin of a [`CellSeries`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CellSeriesBin {
    /// Bin start, seconds since the measurement window opened.
    pub t_s: f64,
    /// Link capacity in the bin, kbps.
    pub capacity_kbps: f64,
    /// Achieved throughput in the bin, kbps.
    pub throughput_kbps: f64,
    /// Packets in flight (sent but not yet delivered) at the bin start.
    pub queue_depth: u64,
}

/// What executing a cell measured — the part of a [`SweepResult`] the
/// executor fills and the cell cache persists. A `SweepResult` derefs to
/// this, so `result.metrics` reads straight through.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Measured {
    /// Standard direction metrics (absent for the interarrival probe and
    /// serve cells).
    pub metrics: Option<SchemeResult>,
    /// Jain's fairness index over the per-flow (contention cells) or
    /// per-session (serve cells) throughputs; `None` elsewhere.
    pub fairness: Option<f64>,
    /// Per-flow metrics (mux/tunnel/contention cells only). For
    /// contention cells, `flows[i]` is the cell's i-th declared
    /// [`crate::scenario::FlowSpec`] (`FlowId(i + 1)`).
    pub flows: Vec<FlowSummary>,
    /// Per-bin series (only when the scenario requested one).
    pub series: Vec<SeriesRow>,
    /// Multi-session capacity summary (serve cells only).
    pub serve: Option<ServeStats>,
    /// Interarrival statistics (probe cells only).
    pub interarrival: Option<InterarrivalSummary>,
    /// Per-cell time series (only when the scenario requested one via
    /// [`Scenario::cell_series_bin`] and the workload produces one —
    /// scheme workloads do, probe/serve cells don't). Persisted behind
    /// the canonical fields in the cell's one cache payload and
    /// **excluded** from the canonical sweep JSON; the TSV renderings are
    /// the deliverable.
    pub cell_series: Option<CellSeries>,
}

/// The structured outcome of one scenario cell.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepResult {
    /// The cell that produced this row.
    pub scenario: Scenario,
    /// The matrix this cell belongs to.
    pub matrix: String,
    /// Queue discipline the cell actually ran behind.
    pub queue: ResolvedQueue,
    /// The derived per-cell seed (all cell-local randomness stems from it).
    pub cell_seed: u64,
    /// What the execution measured.
    pub measured: Measured,
    /// Wall-clock execution time of this cell, milliseconds. Measured,
    /// not simulated — deliberately **excluded** from the canonical
    /// sweep JSON (which must stay bit-identical across machines and
    /// thread counts) and from the cache (a cached load reports 0, which
    /// makes "served from cache" visible to anything that times cells);
    /// `benchmark/` reads it for per-cell attribution.
    pub wall_ms: f64,
}

impl SweepResult {
    /// The record of `scenario` before anything is measured: its
    /// identity, and the two columns that follow from identity alone
    /// (the resolved queue, the per-cell seed). The executor and the
    /// cache decoder both start here and fill [`Self::measured`].
    pub fn unmeasured(matrix: &str, scenario: &Scenario, master_seed: u64) -> Self {
        SweepResult {
            scenario: scenario.clone(),
            matrix: matrix.to_string(),
            queue: scenario.queue.resolve(&scenario.workload),
            cell_seed: derive_labeled_seed(master_seed, "cell", scenario.id),
            measured: Measured::default(),
            wall_ms: 0.0,
        }
    }
}

impl Deref for SweepResult {
    type Target = Measured;

    fn deref(&self) -> &Measured {
        &self.measured
    }
}

// --------------------------------------------------------------- the walk

/// Which part of a result a top-level field belongs to. A nested
/// record's fields travel with the field that holds it. A `cell-result`
/// payload is a list of parts, each part's fields in walk order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// Rendered in canonical JSON and stored in every `cell-result`
    /// payload.
    Canonical,
    /// Stored behind the canonical fields in the `cell-result` payload
    /// of a cell whose scenario requests a series — the request is in the
    /// cache key, so a key's payload always has one shape; never in
    /// canonical JSON.
    Series,
    /// Measured per execution: neither stored nor canonical.
    Wall,
}

/// Something a field can hold — a scalar, an `Option` or `Vec` of
/// values, or a nested [`Record`] — and the four things that can be done
/// with it. Only the scalars and the two containers spell these out;
/// every record gets them from its walk.
pub trait Value: Sized {
    /// Append the canonical JSON rendering.
    fn json(&self, out: &mut String);
    /// Append the payload encoding.
    fn put(&self, w: &mut ByteWriter);
    /// Read the payload encoding back.
    fn take(r: &mut ByteReader<'_>) -> Option<Self>;
    /// Append the `path\tkind\tpart` lines [`schema`] lists for a field
    /// of this type at `path`.
    fn schema(path: &str, part: Part, out: &mut String);
}

fn schema_line(out: &mut String, path: &str, kind: &str, part: Part) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "{path}\t{kind}\t{part:?}");
}

macro_rules! scalar_values {
    ($($t:ident renders with $render:path),*) => {$(
        impl Value for $t {
            fn json(&self, out: &mut String) {
                $render(out, (*self).into());
            }
            fn put(&self, w: &mut ByteWriter) {
                w.$t(*self);
            }
            fn take(r: &mut ByteReader<'_>) -> Option<Self> {
                r.$t()
            }
            fn schema(path: &str, part: Part, out: &mut String) {
                schema_line(out, path, stringify!($t), part);
            }
        }
    )*};
}
scalar_values!(
    u32 renders with json::integer,
    u64 renders with json::integer,
    f64 renders with json::number
);

/// Absent is `null` in JSON; one presence byte, then the value only when
/// present, in a payload.
impl<V: Value> Value for Option<V> {
    fn json(&self, out: &mut String) {
        match self {
            Some(v) => v.json(out),
            None => out.push_str("null"),
        }
    }
    fn put(&self, w: &mut ByteWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn take(r: &mut ByteReader<'_>) -> Option<Self> {
        Some(match r.bool()? {
            true => Some(V::take(r)?),
            false => None,
        })
    }
    fn schema(path: &str, part: Part, out: &mut String) {
        V::schema(&format!("{path}?"), part, out);
    }
}

/// A JSON array; a `u64` count, then the elements, in a payload.
impl<V: Value> Value for Vec<V> {
    fn json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.json(out);
        }
        out.push(']');
    }
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.len() as u64);
        self.iter().for_each(|v| v.put(w));
    }
    fn take(r: &mut ByteReader<'_>) -> Option<Self> {
        // Every value encodes to at least one byte, so a count the
        // remaining bytes cannot hold is damage, caught before allocating.
        let n = r.count(1)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(V::take(r)?);
        }
        Some(items)
    }
    fn schema(path: &str, part: Part, out: &mut String) {
        V::schema(&format!("{path}[]"), part, out);
    }
}

/// A shared and an exclusive path from a record to one of its fields, so
/// one walk serves the walkers that read a record and the one that fills
/// it.
pub struct Lens<R, V> {
    get: fn(&R) -> &V,
    get_mut: fn(&mut R) -> &mut V,
}

/// The [`Lens`] to a field path of the record being walked.
macro_rules! at {
    ($($path:tt).+) => {
        Lens {
            get: |r| &r.$($path).+,
            get_mut: |r| &mut r.$($path).+,
        }
    };
}

/// A type whose fields one walk declares.
pub trait Record: Sized {
    /// Canonical JSON renders the record as a bare array in walk order
    /// (time-series rows) instead of an object keyed by field name.
    const POSITIONAL: bool = false;

    /// Show `w` every field, in the order JSON and the payload keep.
    /// `None` only from a walker that can fail (the decoder).
    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()>;
}

/// One pass over a record of type `R`.
pub trait Walker<R> {
    /// Whether this pass covers the top-level fields of `part`.
    fn wants(&mut self, part: Part) -> bool;
    /// A field: its JSON key and where it lives. Its kind — scalar,
    /// optional, sequence, nested — is its type.
    fn field<V: Value>(&mut self, name: &'static str, at: Lens<R, V>) -> Option<()>;
    /// A column that follows from the record's identity (its scenario):
    /// rendered as the JSON value `render` appends, never stored.
    fn derived(&mut self, name: &'static str, kind: &'static str, render: fn(&R, &mut String));
}

impl Record for SchemeResult {
    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        w.field("throughput_kbps", at!(throughput_kbps))?;
        w.field("p95_delay_ms", at!(p95_delay_ms))?;
        w.field("self_inflicted_ms", at!(self_inflicted_ms))?;
        w.field("omniscient_ms", at!(omniscient_ms))?;
        w.field("utilization", at!(utilization))?;
        w.field("outages", at!(outages))?;
        w.field("recovery_ms", at!(recovery_ms))?;
        w.field("degraded_delivery", at!(degraded_delivery))
    }
}

impl Record for FlowSummary {
    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        w.field("flow", at!(flow))?;
        w.field("throughput_kbps", at!(throughput_kbps))?;
        w.field("p95_delay_ms", at!(p95_delay_ms))
    }
}

impl Record for SeriesRow {
    const POSITIONAL: bool = true;

    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        w.field("t_s", at!(t_s))?;
        w.field("capacity_kbps", at!(capacity_kbps))?;
        w.field("throughput_kbps", at!(throughput_kbps))?;
        w.field("worst_delay_ms", at!(worst_delay_ms))
    }
}

impl Record for ServeStats {
    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        w.field("sessions", at!(sessions))?;
        w.field("delivered_bytes", at!(delivered_bytes))?;
        w.field("min_session_bytes", at!(min_session_bytes))?;
        w.field("max_session_bytes", at!(max_session_bytes))?;
        w.field("wire_delivered_bytes", at!(wire_delivered_bytes))
    }
}

/// A histogram row of [`InterarrivalSummary::rows`].
impl Record for (f64, f64, f64) {
    const POSITIONAL: bool = true;

    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        w.field("bin_start_ms", at!(0))?;
        w.field("bin_end_ms", at!(1))?;
        w.field("percent", at!(2))
    }
}

impl Record for InterarrivalSummary {
    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        w.field("fraction_within_20ms", at!(fraction_within_20ms))?;
        w.field("tail_slope", at!(tail_slope))?;
        w.field("samples", at!(samples))?;
        w.field("histogram", at!(rows))
    }
}

/// A delay sample of [`CellSeries::delays`].
impl Record for (f64, f64) {
    const POSITIONAL: bool = true;

    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        w.field("t_s", at!(0))?;
        w.field("delay_ms", at!(1))
    }
}

impl Record for CellSeriesBin {
    const POSITIONAL: bool = true;

    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        w.field("t_s", at!(t_s))?;
        w.field("capacity_kbps", at!(capacity_kbps))?;
        w.field("throughput_kbps", at!(throughput_kbps))?;
        w.field("queue_depth", at!(queue_depth))
    }
}

impl Record for CellSeries {
    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        w.field("bin_us", at!(bin_us))?;
        w.field("delays", at!(delays))?;
        w.field("bins", at!(bins))
    }
}

impl Record for SweepResult {
    fn walk<W: Walker<Self>>(w: &mut W) -> Option<()> {
        use json::{integer, number, string};
        fn opt_string(o: &mut String, s: Option<&str>) {
            match s {
                Some(s) => string(o, s),
                None => o.push_str("null"),
            }
        }
        if w.wants(Part::Canonical) {
            w.derived("id", "u64", |r, o| integer(o, r.scenario.id));
            w.derived("label", "str", |r, o| string(o, &r.scenario.label));
            w.derived("matrix", "str", |r, o| string(o, &r.matrix));
            w.derived("workload", "str", |r, o| {
                string(o, r.scenario.workload.id())
            });
            w.derived("scheme", "str?", |r, o| {
                opt_string(o, r.scenario.workload.scheme().map(|s| s.name()))
            });
            w.derived("app", "str?", |r, o| {
                opt_string(o, r.scenario.workload.app().map(|(app, _)| app.id()))
            });
            w.derived("over", "str?", |r, o| {
                opt_string(o, r.scenario.workload.app().map(|(_, over)| over.name()))
            });
            w.derived("link", "str", |r, o| string(o, &r.scenario.link.id()));
            w.derived("queue", "str", |r, o| string(o, &r.queue.id()));
            w.derived("prop_delay_ms", "f64", |r, o| {
                number(o, r.scenario.prop_delay.as_micros() as f64 / 1e3)
            });
            w.derived("loss_rate", "f64", |r, o| number(o, r.scenario.loss_rate));
            w.derived("impairment", "str", |r, o| {
                string(o, &r.scenario.impairment.id())
            });
            w.derived("confidence_pct", "f64?", |r, o| {
                r.scenario.confidence_pct.json(o)
            });
            w.derived("duration_s", "f64", |r, o| {
                number(o, r.scenario.duration.as_secs_f64())
            });
            w.derived("warmup_s", "f64", |r, o| {
                number(o, r.scenario.warmup.as_secs_f64())
            });
            w.derived("cell_seed", "u64", |r, o| integer(o, r.cell_seed));
            w.field("metrics", at!(measured.metrics))?;
            w.field("fairness", at!(measured.fairness))?;
            w.field("flows", at!(measured.flows))?;
            w.field("series", at!(measured.series))?;
            w.field("serve", at!(measured.serve))?;
            w.field("interarrival", at!(measured.interarrival))?;
        }
        if w.wants(Part::Series) {
            w.field("cell_series", at!(measured.cell_series))?;
        }
        if w.wants(Part::Wall) {
            w.field("wall_ms", at!(wall_ms))?;
        }
        Some(())
    }
}

// ------------------------------------------------------------ the walkers

/// Renders a record's fields as canonical JSON.
struct Json<'a, R> {
    out: &'a mut String,
    rec: &'a R,
    positional: bool,
    first: bool,
}

impl<R> Json<'_, R> {
    fn key(&mut self, name: &str) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        if !self.positional {
            self.out.push('"');
            self.out.push_str(name);
            self.out.push_str("\":");
        }
    }
}

impl<R> Walker<R> for Json<'_, R> {
    fn wants(&mut self, part: Part) -> bool {
        part == Part::Canonical
    }
    fn field<V: Value>(&mut self, name: &'static str, at: Lens<R, V>) -> Option<()> {
        self.key(name);
        (at.get)(self.rec).json(self.out);
        Some(())
    }
    fn derived(&mut self, name: &'static str, _kind: &'static str, render: fn(&R, &mut String)) {
        self.key(name);
        render(self.rec, self.out);
    }
}

fn json_record<C: Record>(rec: &C, out: &mut String) {
    let (open, close) = if C::POSITIONAL {
        ('[', ']')
    } else {
        ('{', '}')
    };
    out.push(open);
    let mut w = Json {
        out: &mut *out,
        rec,
        positional: C::POSITIONAL,
        first: true,
    };
    C::walk(&mut w).expect("rendering cannot fail");
    out.push(close);
}

/// Writes the payload of the listed parts of a record.
struct Encode<'a, R> {
    w: &'a mut ByteWriter,
    rec: &'a R,
    parts: &'a [Part],
}

impl<R> Walker<R> for Encode<'_, R> {
    fn wants(&mut self, part: Part) -> bool {
        self.parts.contains(&part)
    }
    fn field<V: Value>(&mut self, _name: &'static str, at: Lens<R, V>) -> Option<()> {
        (at.get)(self.rec).put(self.w);
        Some(())
    }
    fn derived(&mut self, _: &'static str, _: &'static str, _: fn(&R, &mut String)) {}
}

/// Fills the listed parts of a record from their payload.
struct Decode<'a, 'b, R> {
    r: &'a mut ByteReader<'b>,
    rec: &'a mut R,
    parts: &'a [Part],
}

impl<R> Walker<R> for Decode<'_, '_, R> {
    fn wants(&mut self, part: Part) -> bool {
        self.parts.contains(&part)
    }
    fn field<V: Value>(&mut self, _name: &'static str, at: Lens<R, V>) -> Option<()> {
        *(at.get_mut)(self.rec) = V::take(self.r)?;
        Some(())
    }
    fn derived(&mut self, _: &'static str, _: &'static str, _: fn(&R, &mut String)) {}
}

/// Lists a record's fields under `path`.
struct Schema<'a> {
    out: &'a mut String,
    path: &'a str,
    part: Part,
}

impl<R> Walker<R> for Schema<'_> {
    fn wants(&mut self, part: Part) -> bool {
        self.part = part;
        true
    }
    fn field<V: Value>(&mut self, name: &'static str, _: Lens<R, V>) -> Option<()> {
        V::schema(&format!("{}{name}", self.path), self.part, self.out);
        Some(())
    }
    fn derived(&mut self, name: &'static str, kind: &'static str, _: fn(&R, &mut String)) {
        let path = format!("{}{name}", self.path);
        schema_line(self.out, &path, &format!("derived {kind}"), self.part);
    }
}

/// A nested record is a value through its walk. (Nested fields travel
/// with their holder, so the inner passes cover `Part::Canonical`.)
impl<C: Record + Default> Value for C {
    fn json(&self, out: &mut String) {
        json_record(self, out);
    }
    fn put(&self, w: &mut ByteWriter) {
        let mut walker = Encode {
            w,
            rec: self,
            parts: &[Part::Canonical],
        };
        C::walk(&mut walker).expect("encoding cannot fail");
    }
    fn take(r: &mut ByteReader<'_>) -> Option<Self> {
        let mut rec = C::default();
        let mut walker = Decode {
            r,
            rec: &mut rec,
            parts: &[Part::Canonical],
        };
        C::walk(&mut walker)?;
        Some(rec)
    }
    fn schema(path: &str, part: Part, out: &mut String) {
        let kind = if C::POSITIONAL {
            "positional"
        } else {
            "object"
        };
        schema_line(out, path, kind, part);
        let path = &format!("{path}.");
        C::walk(&mut Schema { out, path, part }).expect("listing cannot fail");
    }
}

// ------------------------------------------------------------ entry points

/// Render one result as a single-line JSON object with a stable key order.
pub fn result_to_json(r: &SweepResult) -> String {
    let mut o = String::with_capacity(512);
    json_record(r, &mut o);
    o
}

/// Render a whole sweep as a canonical JSON document: header line, then
/// one line per cell (diffable; bit-identical for identical results).
pub fn sweep_to_json(matrix_name: &str, master_seed: u64, results: &[SweepResult]) -> String {
    let mut o = String::with_capacity(64 + 640 * results.len());
    o.push_str("{\"matrix\":");
    json::string(&mut o, matrix_name);
    o.push_str(",\"master_seed\":");
    json::integer(&mut o, master_seed);
    o.push_str(",\"cells\":[\n");
    for (i, r) in results.iter().enumerate() {
        json_record(r, &mut o);
        if i + 1 < results.len() {
            o.push(',');
        }
        o.push('\n');
    }
    o.push_str("]}\n");
    o
}

/// The payload of the listed `parts` of `r`, one behind the other in
/// walk order.
pub(crate) fn encode(r: &SweepResult, parts: &[Part]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(256);
    let mut walker = Encode {
        w: &mut w,
        rec: r,
        parts,
    };
    SweepResult::walk(&mut walker).expect("encoding cannot fail");
    w.finish()
}

/// Fill the listed `parts` of `r` from their payload; `None` (with `r`
/// possibly half-filled — discard it) unless `bytes` is exactly those
/// parts and nothing else.
pub(crate) fn decode(rec: &mut SweepResult, parts: &[Part], bytes: &[u8]) -> Option<()> {
    let mut r = ByteReader::new(bytes);
    SweepResult::walk(&mut Decode {
        r: &mut r,
        rec,
        parts,
    })?;
    (r.remaining() == 0).then_some(())
}

/// Every field of a [`SweepResult`] as `path\tkind\tpart` lines, in walk
/// order. The golden snapshots record the fingerprint of this listing
/// next to `ENGINE_VERSION`: changing what a result holds changes the
/// listing, and the snapshot test then insists on a version bump.
pub fn schema() -> String {
    let mut out = String::new();
    let mut walker = Schema {
        out: &mut out,
        path: "",
        part: Part::Canonical,
    };
    SweepResult::walk(&mut walker).expect("listing cannot fail");
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scenario::{QueueSpec, Workload};
    use crate::schemes::Scheme;
    use proptest::prelude::*;
    use sprout_trace::{Impairment, NetProfile};

    /// Any `f64` bit pattern — NaNs with payloads, ±inf, ±0, subnormals —
    /// with the landmark values over-represented.
    struct AnyBits;

    impl Strategy for AnyBits {
        type Value = f64;
        fn generate(&self, rng: &mut proptest::TestRng) -> f64 {
            let bits = any::<u64>().generate(rng);
            match bits % 8 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => f64::from_bits(any::<u64>().generate(rng)),
            }
        }
    }

    pub(crate) fn scenario() -> Scenario {
        Scenario {
            id: 3,
            label: "t/vz-lte-down/sprout".into(),
            workload: Workload::Scheme(Scheme::Sprout),
            link: NetProfile::VerizonLteDown.into(),
            queue: QueueSpec::Auto,
            prop_delay: Duration::from_millis(20),
            loss_rate: 0.05,
            confidence_pct: Some(75.0),
            duration: Duration::from_secs(30),
            warmup: Duration::from_secs(5),
            series_bin: None,
            impairment: Impairment::none(),
            cell_series_bin: None,
        }
    }

    /// An arbitrary measured part: every `Option` both ways, sequences
    /// from empty to `long` elements.
    fn measured(long: usize) -> impl Strategy<Value = Measured> {
        let f = || AnyBits;
        let metrics = proptest::option::of(((f(), f(), f(), f(), f()), any::<u32>(), (f(), f())));
        let flows = proptest::collection::vec((any::<u32>(), f(), f()), 0..long);
        let series = proptest::collection::vec((f(), f(), f(), f()), 0..long);
        let serve = proptest::option::of((any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>()));
        let interarrival = proptest::option::of((
            f(),
            proptest::option::of(f()),
            any::<u64>(),
            proptest::collection::vec((f(), f(), f()), 0..long),
        ));
        let cell_series = proptest::option::of((
            any::<u64>(),
            proptest::collection::vec((f(), f()), 0..long),
            proptest::collection::vec((f(), f(), f(), any::<u64>()), 0..long),
        ));
        Assemble((
            (metrics, proptest::option::of(f()), flows),
            (series, serve, interarrival, cell_series),
        ))
    }

    /// Maps the tuple soup of [`measured`] onto the structs.
    struct Assemble<S>(S);

    type Soup = (
        (
            Option<((f64, f64, f64, f64, f64), u32, (f64, f64))>,
            Option<f64>,
            Vec<(u32, f64, f64)>,
        ),
        (
            Vec<(f64, f64, f64, f64)>,
            Option<(u32, u64, u64, u64)>,
            Option<(f64, Option<f64>, u64, Vec<(f64, f64, f64)>)>,
            Option<(u64, Vec<(f64, f64)>, Vec<(f64, f64, f64, u64)>)>,
        ),
    );

    impl<S: Strategy<Value = Soup>> Strategy for Assemble<S> {
        type Value = Measured;
        fn generate(&self, rng: &mut proptest::TestRng) -> Measured {
            let ((metrics, fairness, flows), (series, serve, interarrival, cell_series)) =
                self.0.generate(rng);
            Measured {
                metrics: metrics.map(|((a, b, c, d, e), outages, (g, h))| SchemeResult {
                    throughput_kbps: a,
                    p95_delay_ms: b,
                    self_inflicted_ms: c,
                    omniscient_ms: d,
                    utilization: e,
                    outages,
                    recovery_ms: g,
                    degraded_delivery: h,
                }),
                fairness,
                flows: flows
                    .into_iter()
                    .map(|(flow, throughput_kbps, p95_delay_ms)| FlowSummary {
                        flow,
                        throughput_kbps,
                        p95_delay_ms,
                    })
                    .collect(),
                series: series
                    .into_iter()
                    .map(
                        |(t_s, capacity_kbps, throughput_kbps, worst_delay_ms)| SeriesRow {
                            t_s,
                            capacity_kbps,
                            throughput_kbps,
                            worst_delay_ms,
                        },
                    )
                    .collect(),
                serve: serve.map(|(sessions, a, b, c)| ServeStats {
                    sessions,
                    delivered_bytes: a,
                    min_session_bytes: b,
                    max_session_bytes: c,
                    wire_delivered_bytes: a ^ c,
                }),
                interarrival: interarrival.map(
                    |(fraction_within_20ms, tail_slope, samples, rows)| InterarrivalSummary {
                        fraction_within_20ms,
                        tail_slope,
                        samples,
                        rows,
                    },
                ),
                cell_series: cell_series.map(|(bin_us, delays, bins)| CellSeries {
                    bin_us,
                    delays,
                    bins: bins
                        .into_iter()
                        .map(
                            |(t_s, capacity_kbps, throughput_kbps, queue_depth)| CellSeriesBin {
                                t_s,
                                capacity_kbps,
                                throughput_kbps,
                                queue_depth,
                            },
                        )
                        .collect(),
                }),
            }
        }
    }

    fn record_of(measured: Measured) -> SweepResult {
        SweepResult {
            measured,
            wall_ms: 123.0,
            ..SweepResult::unmeasured("t", &scenario(), 7)
        }
    }

    /// The two payload shapes the cell cache stores.
    const SHAPES: [&[Part]; 2] = [&[Part::Canonical], &[Part::Canonical, Part::Series]];
    const WITH_SERIES: &[Part] = SHAPES[1];

    /// Decode both parts of `r` back onto a fresh record.
    fn round_trip(r: &SweepResult) -> Option<SweepResult> {
        let mut back = SweepResult::unmeasured(&r.matrix, &r.scenario, 7);
        decode(&mut back, WITH_SERIES, &encode(r, WITH_SERIES))?;
        Some(back)
    }

    proptest! {
        #[test]
        fn arbitrary_records_round_trip_excluding_wall_time(measured in measured(40)) {
            let r = record_of(measured);
            let back = round_trip(&r).expect("a fresh payload decodes");
            prop_assert_eq!(back.wall_ms, 0.0);
            // NaN != NaN, so compare bit for bit through the payloads
            // (every stored bit) and field for field through Debug (which
            // prints every NaN alike), wall time aside.
            prop_assert!(encode(&back, WITH_SERIES) == encode(&r, WITH_SERIES));
            // The series part sits right behind the canonical one.
            let canonical = encode(&r, &[Part::Canonical]);
            prop_assert!(encode(&r, WITH_SERIES).starts_with(&canonical));
            let mut alone = SweepResult::unmeasured("t", &r.scenario, 7);
            decode(&mut alone, &[Part::Canonical], &canonical).expect("the canonical part alone");
            prop_assert!(alone.cell_series.is_none());
            prop_assert_eq!(result_to_json(&alone), result_to_json(&r));
            let expect = SweepResult { wall_ms: 0.0, ..r.clone() };
            prop_assert_eq!(format!("{back:?}"), format!("{expect:?}"));
            prop_assert_eq!(result_to_json(&back), result_to_json(&r));
        }

        #[test]
        fn strict_prefixes_and_trailing_bytes_decode_to_none(measured in measured(6)) {
            let r = record_of(measured);
            for parts in SHAPES {
                let mut bytes = encode(&r, parts);
                for cut in 0..bytes.len() {
                    let mut back = SweepResult::unmeasured("t", &r.scenario, 7);
                    prop_assert!(
                        decode(&mut back, parts, &bytes[..cut]).is_none(),
                        "{parts:?}: a {cut}-byte prefix of {} bytes decoded", bytes.len()
                    );
                }
                bytes.push(0);
                let mut back = SweepResult::unmeasured("t", &r.scenario, 7);
                prop_assert!(decode(&mut back, parts, &bytes).is_none(), "{parts:?}: trailing byte");
            }
            // One shape's bytes are never the other's: the series part is
            // at least its presence byte.
            let mut back = SweepResult::unmeasured("t", &r.scenario, 7);
            prop_assert!(decode(&mut back, SHAPES[0], &encode(&r, SHAPES[1])).is_none());
            prop_assert!(decode(&mut back, SHAPES[1], &encode(&r, SHAPES[0])).is_none());
        }
    }

    #[test]
    fn long_sequences_and_the_empty_record_round_trip() {
        let long = record_of(Measured {
            series: vec![SeriesRow::default(); 10_000],
            cell_series: Some(CellSeries {
                bin_us: 1,
                delays: vec![(0.5, f64::NAN); 50_000],
                bins: vec![CellSeriesBin::default(); 3],
            }),
            ..Measured::default()
        });
        let back = round_trip(&long).expect("decodes");
        assert_eq!(back.series.len(), 10_000);
        assert_eq!(back.cell_series.as_ref().unwrap().delays.len(), 50_000);

        let empty = record_of(Measured::default());
        // Four absent options and two empty `u64` counts; one more absent
        // option when the series part rides behind.
        assert_eq!(encode(&empty, &[Part::Canonical]), [0; 4 + 2 * 8]);
        assert_eq!(encode(&empty, WITH_SERIES), [0; 4 + 2 * 8 + 1]);
        assert_eq!(round_trip(&empty).unwrap().measured, Measured::default());
    }

    #[test]
    fn canonical_json_keeps_its_shape_and_leaves_out_series_and_wall_time() {
        let mut r = record_of(Measured {
            fairness: Some(0.5),
            flows: vec![FlowSummary {
                flow: 1,
                throughput_kbps: 100.0,
                p95_delay_ms: f64::NAN,
            }],
            series: vec![SeriesRow {
                t_s: 0.5,
                capacity_kbps: 5000.0,
                throughput_kbps: 4500.25,
                worst_delay_ms: 12.0,
            }],
            interarrival: Some(InterarrivalSummary {
                fraction_within_20ms: 0.9999,
                tail_slope: None,
                samples: 7,
                rows: vec![(0.0, 10.0, 99.0)],
            }),
            cell_series: Some(CellSeries::default()),
            ..Measured::default()
        });
        r.cell_seed = 42;
        assert_eq!(
            result_to_json(&r),
            "{\"id\":3,\"label\":\"t/vz-lte-down/sprout\",\"matrix\":\"t\",\"workload\":\"scheme\",\
             \"scheme\":\"Sprout\",\"app\":null,\"over\":null,\"link\":\"vz-lte-down\",\
             \"queue\":\"droptail\",\"prop_delay_ms\":20,\"loss_rate\":0.05,\"impairment\":\"none\",\
             \"confidence_pct\":75,\"duration_s\":30,\"warmup_s\":5,\"cell_seed\":42,\
             \"metrics\":null,\"fairness\":0.5,\
             \"flows\":[{\"flow\":1,\"throughput_kbps\":100,\"p95_delay_ms\":null}],\
             \"series\":[[0.5,5000,4500.25,12]],\"serve\":null,\
             \"interarrival\":{\"fraction_within_20ms\":0.9999,\"tail_slope\":null,\"samples\":7,\
             \"histogram\":[[0,10,99]]}}"
        );
    }

    #[test]
    fn the_schema_lists_every_part_once() {
        let listing = schema();
        for line in [
            "label\tderived str\tCanonical\n",
            "metrics?.outages\tu32\tCanonical\n",
            "serve?.min_session_bytes\tu64\tCanonical\n",
            "interarrival?.histogram[].percent\tf64\tCanonical\n",
            "cell_series?.bins[].queue_depth\tu64\tSeries\n",
            "wall_ms\tf64\tWall\n",
        ] {
            assert_eq!(listing.matches(line).count(), 1, "{line:?} in:\n{listing}");
        }
    }
}
