//! The packet delivery forecast (§3.3).
//!
//! Given the posterior over the current rate, Sprout predicts — at a
//! cautious percentile — the *cumulative* number of packets the link will
//! deliver over each of the next `horizon_ticks` ticks, evolving the model
//! forward **without** observations.
//!
//! Exactly as the paper hints ("most of these steps can be precalculated…
//! the only work at runtime is to take a weighted sum over each λ"), the
//! heavy lifting happens once per configuration: for every starting rate
//! bin `i`, horizon tick `t`, and cumulative count `c`, we precompute
//!
//! ```text
//! F[t][c][i] = P( C_{t+1} ≤ c | λ₀ = bin i )
//! ```
//!
//! where one tick moves the rate bin by the Brownian/outage transition
//! `K(i→j)` and then advances the cumulative volume by bin `j`'s expected
//! per-tick deliveries (in quarter-MTU units, split across the two
//! adjacent integer cells to keep the expectation exact). Conditioning on
//! the *first* tick's destination gives the backward (Kolmogorov)
//! recursion [`ForecastTables::build`] runs — every start bin at once:
//!
//! ```text
//! G₀[j][c]  = 1
//! M[j][c]   = G_t[j][c − lo_j]·(1 − frac_j) + G_t[j][c − lo_j − 1]·frac_j
//! G_{t+1}[i][c] = Σ_j K(i→j) · M[j][c]            F[t] = G_{t+1}
//! ```
//!
//! (`G[j][c] = 0` for `c < 0`), one gather through the kernel's CSR rows
//! per tick instead of one forward DP over the joint (rate bin ×
//! cumulative volume) distribution per start bin. At runtime the forecast
//! CDF is the posterior-weighted mixture `Σᵢ P(λ₀=i)·F[t][c][i]`,
//! searched for the configured percentile.
//!
//! **The band layout.** After the narrowing to f32 most of `F` is exactly
//! 0.0 (counts no path stays under) or exactly 1.0 (counts every path
//! stays under) — 77 % of the paper table. A row `F[t][·][i]` is 0.0 below
//! its *band* of uncertain counts and 1.0 above it, and the bands of
//! ascending start bins move up the count axis. The table cuts the count
//! axis into windows of eight counts (`CDF_LANES`) and keeps, per `(tick,
//! window)`, only the *span* of bins between the leading run whose values
//! are exactly 1.0 across the window (their bands end at or below it) and
//! the trailing run exactly +0.0 across it (their bands start above it) —
//! lossless by definition, with no monotonicity assumed: a table that is
//! not monotone merely stores more. The stored bins' values sit side by
//! side, eight per bin, so one search probe reads one contiguous
//! slice. The windowed search then stays bit-identical to summing every
//! live bin at every count, by three exact rules:
//!
//! * a leading bin contributes `w × 1.0 = w` per lane, so the leading run
//!   is a prefix sum of its weights — in the same ascending order, from
//!   +0.0 — computed once per forecast;
//! * a trailing bin contributes `w × 0.0 = +0.0`, and adding +0.0 to a
//!   non-negative sum changes no bit, so the trailing run is skipped;
//! * every live bin of the span is loaded from the stored slice.
//!
//! **Implementation note (documented deviation).** The percentile is
//! taken over the *rate path* (the model's uncertainty about λ and
//! outages), not over the additional Poisson sampling noise of the
//! counts. §3.3's text suggests the full count distribution, but at 3G
//! rates (~1 packet per tick) the 5th percentile of a Poisson count is
//! zero, which would cap Sprout at ~150 kbps on links where the paper
//! measures ~400 kbps at 90% utilization — the published numbers are
//! only consistent with rate-uncertainty caution — a deliberate,
//! documented interpretation of the paper's text.

use std::sync::{Arc, LazyLock};

#[cfg(any(test, feature = "testing"))]
use sprout_cache::ByteWriter;

use crate::config::{SproutConfig, TableKey};
pub use crate::memo::MemCounters;
use crate::memo::{Memo, MemoCounters};
#[cfg(any(test, feature = "testing"))]
use crate::model::ScatterMatrix;
use crate::model::TransitionKernel;
use crate::simd::{mixture_lanes, strip_sum_into, CDF_LANES, STRIP_LANES};
use sprout_trace::TICK;

/// Built / reused counts of [`TABLE_MEMO`].
static TABLE_COUNTERS: MemoCounters = MemoCounters::zeroed();

/// Everything immutable that one table geometry needs at runtime: the
/// CDF tables and the transition kernel they were built from (the same
/// [`TableKey`] determines both).
type SharedModel = (Arc<ForecastTables>, Arc<TransitionKernel>);

/// The process-wide memo of built geometries.
static TABLE_MEMO: LazyLock<Memo<TableKey, SharedModel>> =
    LazyLock::new(|| Memo::new(&TABLE_COUNTERS));

/// Process-wide in-memory forecast-table amortization counters: `built`
/// counts [`ForecastTables::get`] calls that built a table, `reused`
/// counts calls served by the live in-memory cache.
pub fn table_memory_counters() -> MemCounters {
    TABLE_COUNTERS.memory()
}

/// Unit tests of this crate run as threads of one process and share the
/// table cache and the counters above. Every [`ForecastTables::get`]
/// holds this gate shared, so a test that asserts exact counter deltas
/// holds it exclusively and sees its own fetches only.
#[cfg(test)]
pub(crate) mod fetch_gate {
    use std::cell::Cell;
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static GATE: RwLock<()> = RwLock::new(());

    thread_local! {
        /// Whether this thread holds the gate exclusively (its own fetches
        /// must then not queue behind itself).
        static EXCLUSIVE: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) struct Exclusive(#[allow(dead_code)] RwLockWriteGuard<'static, ()>);

    impl Drop for Exclusive {
        fn drop(&mut self) {
            EXCLUSIVE.set(false);
        }
    }

    /// Wait out every fetch in flight and hold all later ones of other
    /// threads back until the guard drops.
    pub(crate) fn exclusive() -> Exclusive {
        let guard = GATE.write().unwrap_or_else(PoisonError::into_inner);
        EXCLUSIVE.set(true);
        Exclusive(guard)
    }

    /// Held across one fetch; `None` on the thread holding the gate
    /// exclusively.
    pub(crate) fn shared() -> Option<RwLockReadGuard<'static, ()>> {
        (!EXCLUSIVE.get()).then(|| GATE.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Resolution of the cumulative-volume axis: quarter-MTU units. Finer
/// than whole packets so slow links (1–2 packets per tick) don't lose
/// their entire forecast to quantization.
pub const UNITS_PER_MTU: u64 = 4;

/// A delivery forecast: entry `t` is the cumulative volume (in
/// quarter-MTU [`UNITS_PER_MTU`] units) predicted at the configured
/// percentile to be delivered within the first `t+1` ticks from the
/// forecast's reference time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Forecast {
    /// Cumulative volume in quarter-MTU units, one entry per horizon
    /// tick; non-decreasing.
    pub cumulative_units: Vec<u32>,
}

impl Forecast {
    /// Cumulative *bytes* deliverable within the first `t+1` ticks.
    pub fn cumulative_bytes(&self, tick_index: usize, mtu: u32) -> u64 {
        // Past the horizon the forecast extends flat; an empty one (the
        // `Default`) promises nothing.
        let last = self.cumulative_units.last().copied().unwrap_or(0);
        let units = self.cumulative_units.get(tick_index).copied();
        units.unwrap_or(last) as u64 * mtu as u64 / UNITS_PER_MTU
    }

    /// Number of horizon ticks covered.
    pub fn horizon(&self) -> usize {
        self.cumulative_units.len()
    }
}

/// Precomputed conditional CDF tables; build once, share via [`Arc`].
///
/// Stored banded (module docs): per `(tick, window)` one `Span` of the
/// bins whose values there are not all exactly 1.0 or all exactly 0.0,
/// and the stored bins' windows in one f32 buffer — ≈ 1.5 MB at paper
/// scale where the dense table took 6 MiB. Every table — [`Self::build`]
/// and the test-only constructors (`build_reference`, `from_rows`, which
/// only `cfg(test)` or the `testing` feature compiles) — goes through one
/// encoder (`push_tick`). One search reads it, [`Self::forecast_into`].
pub struct ForecastTables {
    num_bins: usize,
    horizon: usize,
    count_max: usize,
    /// Upper bound on the per-tick advance of the cumulative-volume axis:
    /// no rate bin delivers more than this many quarter-MTU units in one
    /// tick, so the percentile index grows by at most `max_step` per tick.
    /// Bounds the warm-started search in [`Self::forecast_into`]. Derived
    /// from the configuration; test tables made from explicit rows
    /// (`from_rows`) fall back to the unbounded `count_max` (identical
    /// results, more probes per search).
    max_step: usize,
    /// One per `(tick, window)`, tick-major; window `k` is the counts
    /// `k·CDF_LANES..(k + 1)·CDF_LANES`, and counts past `count_max` hold
    /// 1.0.
    spans: Vec<Span>,
    /// The stored bins' windows, [`CDF_LANES`] values each, in span order
    /// and ascending bin order within a span.
    vals: Vec<f32>,
}

/// Which bins of one `(tick, window)` a [`ForecastTables`] stores: every
/// bin below `first` is exactly 1.0 at all [`CDF_LANES`] counts of the
/// window, every bin from `end` on exactly +0.0, and bin `first + j`'s
/// values are `vals[at + j·CDF_LANES..][..CDF_LANES]`.
#[derive(Clone, Copy, Debug)]
struct Span {
    first: u32,
    end: u32,
    at: usize,
}

impl Span {
    /// The stored windows, bins `first..end` side by side.
    fn tile(self, vals: &[f32]) -> &[f32] {
        &vals[self.at..][..(self.end - self.first) as usize * CDF_LANES]
    }
}

impl ForecastTables {
    /// Fetch (building on first use) the tables for `cfg` from the global
    /// cache. Tables depend only on the model geometry, not the percentile,
    /// so Fig-9 style confidence sweeps share one build. The cache keeps
    /// every geometry asked for (≈ 1.5 MB each at paper scale): the model
    /// parameters are frozen, so a `reproduce` process asks for one.
    pub fn get(cfg: &SproutConfig) -> Arc<ForecastTables> {
        Self::get_with_kernel(cfg).0
    }

    /// [`Self::get`] plus the one [`TransitionKernel`] the cache keeps per
    /// geometry, so every model on that geometry evolves through a single
    /// shared allocation instead of a private copy.
    pub(crate) fn get_with_kernel(cfg: &SproutConfig) -> SharedModel {
        #[cfg(test)]
        let _gate = fetch_gate::shared();
        // One build per geometry (tens of milliseconds and ≈ 1.5 MB at
        // paper scale), shared by every concurrent sweep worker that asks
        // for it.
        TABLE_MEMO.get_or_build(&cfg.table_key(), || {
            let kernel = TransitionKernel::new(cfg);
            (
                Arc::new(ForecastTables::build(cfg, &kernel)),
                Arc::new(kernel),
            )
        })
    }

    /// [`Self::build`], bypassing the in-memory cache. Kept only because
    /// `benchmark/`'s probes and warm-ups call it; ROADMAP item 8 points
    /// them at [`Self::build`] and deletes this alias.
    #[doc(hidden)]
    pub fn load_or_build(cfg: &SproutConfig) -> ForecastTables {
        ForecastTables::build(cfg, &TransitionKernel::new(cfg))
    }

    /// A table of the given dimensions with no tick stored yet.
    fn empty(num_bins: usize, horizon: usize, count_max: usize, max_step: usize) -> Self {
        assert!(
            u32::try_from(num_bins).is_ok(),
            "a span bounds its bins in u32"
        );
        ForecastTables {
            num_bins,
            horizon,
            count_max,
            max_step,
            spans: Vec::with_capacity(horizon * count_max.div_ceil(CDF_LANES)),
            vals: Vec::new(),
        }
    }

    /// Windows per tick: the count axis in [`CDF_LANES`]-count steps.
    fn windows(&self) -> usize {
        self.count_max.div_ceil(CDF_LANES)
    }

    /// The encoder: append the next tick, given every bin's values at the
    /// counts of window `k` as `window(bin, k)` (1.0 past `count_max`).
    /// Of each window it keeps only the span between the leading run of
    /// bins exactly 1.0 across it and the trailing run exactly +0.0 across
    /// it (compared by bits: a -0.0 is stored, never implied) — reserving
    /// the tick's exact size first, so a build holds no spare capacity.
    /// One pass over the bins in ascending order classifies every `(bin,
    /// window)` once, reading each bin's windows side by side; the stored
    /// windows are then copied in span order.
    fn push_tick(&mut self, window: impl Fn(usize, usize) -> [f32; CDF_LANES]) {
        let n = self.num_bins;
        let new = self.spans.len();
        let unset = Span {
            first: n as u32,
            end: 0,
            at: 0,
        };
        self.spans.resize(new + self.windows(), unset);
        let spans = &mut self.spans[new..];
        // Bins ascend, so a span starts at the first bin not all 1.0 and
        // ends past the last one not all +0.0; the bins below its start
        // are 1.0s, never 0.0s, so it ends at or past its start. The folds
        // test all eight lanes without branching.
        for i in 0..n as u32 {
            for (k, span) in spans.iter_mut().enumerate() {
                let v = window(i as usize, k);
                let ones = v.iter().fold(true, |all, &f| all & (f == 1.0));
                let zeros = v.iter().fold(0, |bits, &f| bits | f.to_bits()) == 0;
                span.first = span.first.min(if ones { n as u32 } else { i });
                span.end = if zeros { span.end } else { i + 1 };
            }
        }
        let start = self.vals.len();
        let mut at = start;
        for span in spans.iter_mut() {
            span.at = at;
            at += (span.end - span.first) as usize * CDF_LANES;
        }
        self.vals.reserve_exact(at - start);
        for (k, span) in spans.iter().enumerate() {
            for i in span.first..span.end {
                self.vals.extend(window(i as usize, k));
            }
        }
    }

    /// A table from dense CDF rows, `rows[(tick · num_bins + bin) ·
    /// count_max + count]`, through the encoder.
    #[cfg(any(test, feature = "testing"))]
    fn from_dense(
        num_bins: usize,
        horizon: usize,
        count_max: usize,
        max_step: usize,
        rows: &[f32],
    ) -> Self {
        assert!(num_bins > 0 && horizon > 0 && count_max > 0);
        assert_eq!(rows.len(), num_bins * horizon * count_max);
        let mut tables = ForecastTables::empty(num_bins, horizon, count_max, max_step);
        for tick in rows.chunks_exact(num_bins * count_max) {
            tables.push_tick(|i, k| {
                let row = &tick[i * count_max..][..count_max];
                std::array::from_fn(|l| row.get(k * CDF_LANES + l).copied().unwrap_or(1.0))
            });
        }
        tables
    }

    /// A table from explicit CDF rows, `rows[(tick · num_bins + bin) ·
    /// count_max + count] = P(C_{tick+1} ≤ count | λ₀ = bin)` — for tests
    /// that need tables no DP produces. The search bound is unbounded
    /// (`count_max`). Only test builds compile it (`cfg(test)` or the
    /// `testing` feature).
    #[cfg(any(test, feature = "testing"))]
    pub fn from_rows(num_bins: usize, horizon: usize, count_max: usize, rows: &[f32]) -> Self {
        ForecastTables::from_dense(num_bins, horizon, count_max, count_max, rows)
    }

    /// Heap bytes the table holds (stored windows and spans): ≈ 1.5 MB at
    /// paper scale.
    pub fn heap_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<f32>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// The table's image, for pinning its bytes in tests: the three
    /// dimensions as `u64`, then per `(tick, window)`, tick-major, its span
    /// as `first: u32, end: u32` and the stored windows' f32 bit patterns.
    /// Only test builds compile it (`cfg(test)` or the `testing` feature).
    #[cfg(any(test, feature = "testing"))]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(24 + 8 * self.spans.len() + 4 * self.vals.len());
        w.u64(self.num_bins as u64)
            .u64(self.horizon as u64)
            .u64(self.count_max as u64);
        for span in &self.spans {
            w.u32(span.first).u32(span.end);
            for &v in span.tile(&self.vals) {
                w.f32(v);
            }
        }
        w.finish()
    }

    /// Build the tables by the backward recursion of the module docs: every
    /// start bin at once, one volume step per bin and one gather through
    /// the kernel's CSR rows per horizon tick — ≈ 93 M multiply-adds at
    /// paper scale, ≈ 11 ms on Sapphire Rapids (the row-major gather at
    /// SSE2 width this replaced took ≈ 26 ms).
    ///
    /// Each tick is walked strip-major, 64 counts at a time
    /// (`STRIP_LANES`) from the top of the count axis down: the volume
    /// step writes one strip of `M` for every bin, then each start bin's
    /// output strip accumulates over its CSR row in registers at the CPU's
    /// widest vector width (`simd::strip_sum_into`). `G` is updated in
    /// place — strip `c0` of `M` reads `G_t` below count `c0 + 64` only,
    /// and every strip above it already holds `G_{t+1}` — so the DP holds
    /// `G` and one strip of `M`, ≈ 1.6 MiB at paper scale.
    ///
    /// Every count still adds `K(i→j)·M[j][c]` in ascending `j` from
    /// +0.0, one IEEE multiply and one IEEE add per term: the operand
    /// sequence of the row-major `out[c] += w·m[j][c]` walk, so the table
    /// is bit-identical to that walk's. A source whose strip of `M` is all
    /// +0.0 — its first count that is not +0.0 lies at or past the strip's
    /// end, which assumes no monotonicity — is skipped: each of its terms
    /// is a non-negative weight times +0.0, and adding +0.0 to an
    /// accumulator that started at +0.0 changes no bit.
    ///
    /// Single-threaded on purpose: a second worker could save a few
    /// milliseconds once per geometry per process, less than the
    /// strip-and-merge scaffolding it needs is worth. Each tick is narrowed
    /// and encoded straight from the DP's own rows the moment it is
    /// computed: no dense f32 table, not even one tick of it, exists at
    /// any point.
    pub fn build(cfg: &SproutConfig, kernel: &TransitionKernel) -> ForecastTables {
        cfg.validate();
        let cm = cfg.count_max;
        let mut tables =
            ForecastTables::empty(cfg.num_bins, cfg.horizon_ticks, cm, max_unit_step(cfg));
        backward_recursion(cfg, kernel, |g| {
            // The count axis clamps at its top cell, so `P(C ≤ cm−1) = 1`
            // for every start bin: the top count reads 1.0 like the counts
            // past the axis. Below it the clamp moves no mass, so the
            // recursion runs unclamped.
            tables.push_tick(|i, k| {
                let below_top = &g[i * cm..][..cm - 1];
                let narrow = |p: f64| p.min(1.0) as f32;
                match below_top[(k * CDF_LANES).min(cm - 1)..].first_chunk() {
                    Some(whole) => whole.map(narrow),
                    None => std::array::from_fn(|l| {
                        below_top.get(k * CDF_LANES + l).map_or(1.0, |&p| narrow(p))
                    }),
                }
            })
        });
        tables
    }

    /// [`Self::build`] by the scalar forward DP — one pass over the joint
    /// (rate bin × cumulative volume) distribution per start bin — kept as
    /// the oracle of the recursion above; only tests call it (seconds at
    /// paper scale), and only test builds compile it (`cfg(test)` or the
    /// `testing` feature). The two agree to rounding in f64, and after the
    /// narrowing to f32 to the bit on every geometry the test suites
    /// build.
    #[cfg(any(test, feature = "testing"))]
    pub fn build_reference(cfg: &SproutConfig, kernel: &TransitionKernel) -> ForecastTables {
        cfg.validate();
        let n = cfg.num_bins;
        let horizon = cfg.horizon_ticks;
        let cm = cfg.count_max;
        let shifts = unit_shifts(cfg);
        let mut rows = vec![0.0f32; horizon * n * cm];
        let mut joint = vec![0.0f64; n * cm];
        let mut next = vec![0.0f64; n * cm];
        let mut conv = vec![0.0f64; cm];
        for start in 0..n {
            let strip = build_one_start_reference(
                start,
                horizon,
                cm,
                &shifts,
                kernel.scatter(),
                &mut joint,
                &mut next,
                &mut conv,
            );
            for (t, values) in strip.chunks_exact(cm).enumerate() {
                rows[(t * n + start) * cm..][..cm].copy_from_slice(values);
            }
        }
        ForecastTables::from_dense(n, horizon, cm, max_unit_step(cfg), &rows)
    }

    /// `P(C_{tick+1} ≤ count | λ₀ = bin)` as stored.
    #[inline]
    fn value(&self, tick: usize, count: usize, bin: usize) -> f32 {
        let span = self.spans[tick * self.windows() + count / CDF_LANES];
        match bin.checked_sub(span.first as usize) {
            None => 1.0,
            Some(_) if bin >= span.end as usize => 0.0,
            Some(j) => span.tile(&self.vals)[j * CDF_LANES + count % CDF_LANES],
        }
    }

    /// Conditional CDF `P(C_{t+1} ≤ c | λ₀ = bin)` (test/diagnostic hook).
    pub fn conditional_cdf(&self, tick: usize, count: usize, bin: usize) -> f64 {
        assert!(tick < self.horizon && count < self.count_max && bin < self.num_bins);
        self.value(tick, count, bin) as f64
    }

    /// The mixture CDF `P(C_{t+1} ≤ c)` under `posterior`.
    pub fn mixture_cdf(&self, posterior: &[f64], tick: usize, count: usize) -> f64 {
        assert_eq!(posterior.len(), self.num_bins);
        assert!(tick < self.horizon && count < self.count_max);
        posterior
            .iter()
            .enumerate()
            .map(|(i, &p)| p * self.value(tick, count, i) as f64)
            .sum()
    }

    /// The cautious forecast for `posterior` at `percentile` (e.g. 5.0
    /// for the paper's 95%-confidence forecast). Allocation-free: every
    /// per-tick working set lives in `scratch`, which the caller keeps
    /// between ticks.
    ///
    /// Four structural properties make this fast:
    ///
    /// * **Live-bin masking.** Converged posteriors concentrate their
    ///   mass in a narrow band of rate bins; the rest sit at or near the
    ///   likelihood floor. Bins holding ≤ [`MASS_EPSILON`] are dropped
    ///   once up front — their combined contribution to any mixture CDF
    ///   value is below `num_bins × MASS_EPSILON ≈ 3e-10`, orders of
    ///   magnitude under any percentile of interest — so every probe of
    ///   the search sums only the live bins.
    /// * **Warm-started search.** `C_t` is non-decreasing in `t`, so
    ///   `P(C_{t+1} ≤ c) ≤ P(C_t ≤ c)` holds per start bin and therefore
    ///   for (masked) mixtures: the percentile index can only grow from
    ///   one tick to the next, and the previous call's answers predict
    ///   this call's to within a unit or two.
    /// * **Windowed probes.** One mixture-CDF value is a serial add chain
    ///   over the live bins — latency-bound, and a bisection is a chain of
    ///   such chains. The windowed pass instead yields the CDF at the
    ///   eight consecutive counts of a block around the prediction in one
    ///   pass of independent lanes (`simd::mixture_lanes`), which usually
    ///   brackets the answer outright; a neighbouring block is evaluated
    ///   only on a miss. Each lane is the same ascending-bin chain the
    ///   one-count probe computes, and the mixture CDF is non-decreasing
    ///   in the count (the stored per-bin CDFs are, no weight is
    ///   negative, and rounding is monotone), so the smallest satisfying
    ///   index is the one `Self::forecast_into_reference` bisects to.
    /// * **Certain bins cost nothing.** A probe does arithmetic only on
    ///   the bins whose values at the block it does not already know —
    ///   the table's stored span for that block: the live bins below it
    ///   enter as one prefix sum of their weights, those above it are
    ///   skipped (the module docs' exactness rules).
    ///
    /// The windowed pass walks the live range, from the first to the last
    /// live bin, as one slice; a masked bin inside it weighs `0.0`, and
    /// `acc + 0.0 × f` leaves every lane's accumulator bit-identical to
    /// skipping the bin.
    pub fn forecast_into<'a>(
        &self,
        posterior: &[f64],
        percentile: f64,
        scratch: &'a mut ForecastScratch,
    ) -> &'a Forecast {
        assert_eq!(posterior.len(), self.num_bins);
        let ForecastScratch {
            live_w: w,
            certain,
            out,
            prev_units,
            ..
        } = scratch;
        let live = |p: f64| p > MASS_EPSILON;
        let first = posterior.iter().position(|&p| live(p)).unwrap_or(0);
        let end = posterior
            .iter()
            .rposition(|&p| live(p))
            .map_or(0, |l| l + 1);
        w.clear();
        w.extend(
            posterior[first..end]
                .iter()
                .map(|&p| if live(p) { p } else { 0.0 }),
        );
        // `certain[k] = ((+0.0 + w₀) + w₁) + … + w_{k−1}`: the lanes'
        // accumulator after `k` leading bins that each add `w × 1.0`.
        certain.clear();
        certain.push(0.0);
        certain.extend(w.iter().scan(0.0, |acc, &p| {
            *acc += p;
            Some(*acc)
        }));
        self.search_horizon(percentile, prev_units, out, |t, want, prev, guess| {
            self.percentile_index_windowed(t, want, prev, guess, first, w, certain)
        });
        out
    }

    /// [`Self::forecast_into`] by one-count probes: a bracketed bisection
    /// of `(prev, prev + max_step]` per tick, ~7 serial mixture sums at
    /// paper scale. Kept as the reference the windowed search must equal
    /// (`kernel_equivalence` suite); only tests call it, and only test
    /// builds compile it (`cfg(test)` or the `testing` feature).
    #[cfg(any(test, feature = "testing"))]
    pub fn forecast_into_reference<'a>(
        &self,
        posterior: &[f64],
        percentile: f64,
        scratch: &'a mut ForecastScratch,
    ) -> &'a Forecast {
        assert_eq!(posterior.len(), self.num_bins);
        let ForecastScratch {
            live_idx: idx,
            live_w: w,
            out,
            prev_units,
            ..
        } = scratch;
        idx.clear();
        w.clear();
        for (i, &p) in posterior.iter().enumerate() {
            if p > MASS_EPSILON {
                idx.push(i as u32);
                w.push(p);
            }
        }
        self.search_horizon(percentile, prev_units, out, |t, want, prev, guess| {
            self.percentile_index(t, want, prev, guess, idx, w)
        });
        out
    }

    /// The per-tick loop both searches share: `search(tick, want, start,
    /// guess)` returns the percentile index of one horizon tick, warm
    /// started at the previous tick's answer. `prev_units` and `out` are
    /// the scratch's.
    fn search_horizon(
        &self,
        percentile: f64,
        prev_units: &mut Vec<u32>,
        out: &mut Forecast,
        search: impl Fn(usize, f64, usize, usize) -> usize,
    ) {
        assert!(percentile > 0.0 && percentile < 100.0);
        let want = percentile / 100.0;

        // Last call's answers become this call's predictions: consecutive
        // forecasts from a slowly-evolving posterior land within a unit or
        // two of each other, so "previous answer (tick 0) / previous
        // increment (later ticks)" usually names the right block.
        std::mem::swap(prev_units, &mut out.cumulative_units);

        let cum = &mut out.cumulative_units;
        cum.clear();
        cum.reserve(self.horizon);
        let mut prev = 0usize;
        for t in 0..self.horizon {
            let guess = match (t, prev_units.get(t), prev_units.get(t.wrapping_sub(1))) {
                (0, Some(&g0), _) => g0 as usize,
                (_, Some(&gt), Some(&gp)) => prev + (gt - gp) as usize,
                _ => prev,
            };
            let c = search(t, want, prev, guess);
            cum.push(c as u32);
            prev = c;
        }
    }

    /// Mixture CDF at one count over the pre-masked live bins, summed in
    /// ascending bin order into one accumulator.
    #[cfg(any(test, feature = "testing"))]
    fn live_mixture_cdf(&self, tick: usize, count: usize, idx: &[u32], w: &[f64]) -> f64 {
        idx.iter()
            .zip(w.iter())
            .map(|(&i, &p)| p * self.value(tick, count, i as usize) as f64)
            .sum()
    }

    /// Smallest `c ≥ start` with masked mixture CDF ≥ `want` at `tick`
    /// (the last count if there is none), found by evaluating whole
    /// [`CDF_LANES`]-count blocks over the bins `first..first + w.len()`
    /// (masked ones weigh `0.0`; `certain` is their weights' prefix sums).
    /// `guess` only picks the first block evaluated.
    #[allow(clippy::too_many_arguments)]
    fn percentile_index_windowed(
        &self,
        tick: usize,
        want: f64,
        start: usize,
        guess: usize,
        first: usize,
        w: &[f64],
        certain: &[f64],
    ) -> usize {
        let last = self.count_max - 1;
        if start >= last {
            return last;
        }
        let windows = self.windows();
        let spans = &self.spans[tick * windows..][..windows];
        let end = first + w.len();
        // First count of `block` whose mixture CDF reaches `want`.
        let first_reaching = |block: usize| {
            // The live bins below the span are 1.0 across the block and
            // enter as their weights' prefix sum; those from its end on
            // are +0.0 and are skipped; the rest are one stored tile.
            let span = spans[block];
            let lead = (span.first as usize).clamp(first, end);
            let stop = (span.end as usize).clamp(lead, end);
            let tile = if stop > lead {
                // Then `span.first ≤ lead < stop ≤ span.end`.
                let stored = span.tile(&self.vals);
                let from = span.first as usize;
                &stored[(lead - from) * CDF_LANES..(stop - from) * CDF_LANES]
            } else {
                &[]
            };
            let live = &w[lead - first..stop - first];
            let lane = mixture_lanes(certain[lead - first], tile, live)
                .iter()
                .position(|&f| f >= want)?;
            Some(block * CDF_LANES + lane)
        };
        let cap = start.saturating_add(self.max_step).min(last);
        let mut block = guess.clamp(start + 1, cap) / CDF_LANES;
        let Some(mut c) = first_reaching(block) else {
            // Every count of the block falls short: the answer lies above.
            return (block + 1..windows)
                .find_map(first_reaching)
                .map_or(last, |c| c.min(last));
        };
        // The block's first count already reaches `want`: the answer may
        // lie below, down to `start`.
        while c == block * CDF_LANES && c > start {
            block -= 1;
            match first_reaching(block) {
                Some(lower) => c = lower,
                None => break,
            }
        }
        c.clamp(start, last)
    }

    /// Smallest `c ≥ start` with masked mixture CDF ≥ `want` at `tick`
    /// (clamped to the count axis). `start` must be a valid warm start,
    /// i.e. a lower bound on the answer. `guess` is a prediction of the
    /// answer (any value — it only steers which indices get probed, never
    /// the result): when it is exact, the search confirms it with two
    /// probes (`cdf(guess) ≥ want`, `cdf(guess−1) < want`) instead of a
    /// full bisection.
    #[cfg(any(test, feature = "testing"))]
    fn percentile_index(
        &self,
        tick: usize,
        want: f64,
        start: usize,
        guess: usize,
        idx: &[u32],
        w: &[f64],
    ) -> usize {
        let last = self.count_max - 1;
        if start >= last {
            return last; // the count axis is exhausted
        }
        // One tick advances every start bin's cumulative volume by at
        // most `max_step` units, so `F_{t+1}(c + max_step) ≥ F_t(c)`
        // holds per start bin and hence for any fixed nonnegative
        // mixture: a warm start that satisfied the previous tick's
        // percentile puts this tick's answer in `(start, start +
        // max_step]`. The CDF is non-decreasing in the count, so a
        // bracketed search over that range returns exactly the smallest
        // satisfying index — the same index an unbounded gallop-and-
        // bisect finds. The probe order starts at the predicted answer:
        // `cdf(g) ≥ want` and `cdf(g−1) < want` prove `g` is the smallest
        // satisfying index using two probes, no start probe needed.
        let cap = start.saturating_add(self.max_step).min(last);
        let g = guess.clamp(start + 1, cap);
        let (mut lo, mut hi);
        if self.live_mixture_cdf(tick, g, idx, w) >= want {
            if self.live_mixture_cdf(tick, g - 1, idx, w) < want {
                return g; // prediction confirmed exactly
            }
            if g - 1 == start {
                return start; // cdf(start) ≥ want
            }
            if self.live_mixture_cdf(tick, start, idx, w) >= want {
                return start;
            }
            lo = start;
            hi = g - 1;
        } else {
            lo = g;
            hi = cap;
            if hi == lo {
                // The guess hit the cap and still fell short: the bound
                // theorem's premise is void (degenerate mixture). Search
                // the rest of the axis exactly as the gallop did.
                if hi == last {
                    return last;
                }
                hi = last;
            } else if hi < last && self.live_mixture_cdf(tick, hi, idx, w) < want {
                // Defensive, same degenerate case: cap to the axis end.
                hi = last;
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.live_mixture_cdf(tick, mid, idx, w) >= want {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// Posterior mass below which a bin is dropped from the forecast's
/// mixture sums. With 256 bins the total dropped mass is ≤ 2.6e-10 —
/// invisible next to the coarsest percentile the protocol uses.
pub const MASS_EPSILON: f64 = 1e-12;

/// Reusable working memory for [`ForecastTables::forecast_into`]: the
/// live-bin mask, its weights' prefix sums and the output forecast, kept
/// allocated between ticks.
#[derive(Debug, Default)]
pub struct ForecastScratch {
    /// Indices of the live bins (the reference search only).
    #[cfg(any(test, feature = "testing"))]
    live_idx: Vec<u32>,
    /// Weights: one per bin of the live range (windowed search) or one
    /// per `live_idx` entry (reference search).
    live_w: Vec<f64>,
    /// Prefix sums of the live range's weights, from +0.0 (windowed
    /// search only).
    certain: Vec<f64>,
    out: Forecast,
    /// The previous call's answers, recycled as this call's search
    /// predictions (guesses only — they cannot affect results).
    prev_units: Vec<u32>,
}

/// Per-bin deterministic volume advance for one tick, in quarter-MTU
/// units: the expectation λ·τ·UNITS_PER_MTU as `(floor, fraction)`, split
/// between the two adjacent integer cells so the expected advance is
/// exact. (The percentile covers rate-path uncertainty, not Poisson
/// sampling noise — see the module docs.)
fn unit_shifts(cfg: &SproutConfig) -> Vec<(usize, f64)> {
    let tau = TICK.as_secs_f64();
    (0..cfg.num_bins)
        .map(|i| {
            let units = cfg.bin_rate_pps(i) * tau * UNITS_PER_MTU as f64;
            let lo = units.floor();
            (lo as usize, units - lo)
        })
        .collect()
}

/// Largest per-tick advance of the cumulative-volume axis, in
/// quarter-MTU units: the top bin's expected per-tick deliveries,
/// rounded up for the fractional two-point split. Rates are monotone in
/// the bin index, so this equals `max(unit_shifts[j].0 + 1)`.
fn max_unit_step(cfg: &SproutConfig) -> usize {
    let units = cfg.bin_rate_pps(cfg.num_bins - 1) * TICK.as_secs_f64() * UNITS_PER_MTU as f64;
    units.floor() as usize + 1
}

/// The recursion of [`ForecastTables::build`], strip-major: calls
/// `tick(g)` after every horizon tick with `g[j·cm + c] = G_{t+1}[j][c]`.
fn backward_recursion(cfg: &SproutConfig, kernel: &TransitionKernel, mut tick: impl FnMut(&[f64])) {
    let n = cfg.num_bins;
    let cm = cfg.count_max;
    let shifts = unit_shifts(cfg);
    let scatter = kernel.scatter();
    // `g[j·cm + c] = G_t[j][c]`, starting at `G₀ ≡ 1`, updated in place.
    let mut g = vec![1.0f64; n * cm];
    // One strip of `M`, `m[j][l] = M[j][c0 + l]` for the strip's `len`
    // lanes, and `lead[j]`: row `j`'s first lane that is not +0.0 (`len`
    // if none).
    let mut m = vec![[0.0f64; STRIP_LANES]; n];
    let mut lead = vec![0usize; n];
    for _ in 0..cfg.horizon_ticks {
        // Strips in descending count order: strip `c0` of `M` reads `G_t`
        // at counts below `c0 + STRIP_LANES` only, and every strip above
        // it already holds `G_{t+1}`.
        for c0 in (0..cm).step_by(STRIP_LANES).rev() {
            let len = STRIP_LANES.min(cm - c0);
            let rows = g.chunks_exact(cm).zip(m.iter_mut().zip(&mut lead));
            for ((g_row, (m_row, lead)), &shift) in rows.zip(&shifts) {
                *lead = shift_strip(&mut m_row[..len], g_row, c0, shift);
            }
            // Evolve the bin axis: start bin `i` reaches bin `j` with
            // `K(i→j)`, summed in ascending `j` in registers.
            for (i, out) in g.chunks_exact_mut(cm).enumerate() {
                let (dests, weights) = scatter.row(i);
                strip_sum_into(&mut out[c0..c0 + len], &m, &lead, dests, weights);
            }
        }
        tick(&g);
    }
}

/// Strip `c0..c0 + m_row.len()` of one bin's volume advance, `M[j][c] =
/// G[j][c − lo]·(1 − frac) + G[j][c − lo − 1]·frac`, from `g_row = G[j]`
/// into `m_row`; returns its first lane that is not +0.0 (`m_row.len()`
/// if none). Counts below `lo` are unreachable and `lo` itself only by the
/// low half from count 0; the outage bin (no advance) copies `G` through.
fn shift_strip(m_row: &mut [f64], g_row: &[f64], c0: usize, (lo, frac): (usize, f64)) -> usize {
    let len = m_row.len();
    let below = if lo == 0 && frac == 0.0 {
        m_row.copy_from_slice(&g_row[c0..c0 + len]);
        0
    } else {
        let keep = 1.0 - frac;
        let (below, mut reachable) = m_row.split_at_mut(lo.saturating_sub(c0).min(len));
        below.fill(0.0);
        // The first count of `reachable` is `lo` itself or lies above it
        // (when any count of the strip is reachable).
        let c = c0 + below.len();
        if c == lo {
            if let Some((first, rest)) = std::mem::take(&mut reachable).split_first_mut() {
                *first = g_row[0] * keep;
                reachable = rest;
            }
        }
        if !reachable.is_empty() {
            // Its counts now all lie above `lo`, from `max(c, lo + 1)` on,
            // and count `c′` reads `G[c′ − lo − 1..=c′ − lo]`.
            let from = c.max(lo + 1) - lo - 1;
            for (slot, pair) in reachable.iter_mut().zip(g_row[from..].windows(2)) {
                *slot = pair[1] * keep + pair[0] * frac;
            }
        }
        below.len()
    };
    m_row[below..]
        .iter()
        .position(|v| v.to_bits() != 0)
        .map_or(len, |l| below + l)
}

/// The scalar forward DP for a single starting bin: returns the
/// conditional CDF strip laid out as `strip[t * cm + c] = P(C_{t+1} ≤ c |
/// λ₀ = start)`. Kept verbatim as the oracle behind
/// `ForecastTables::build_reference`.
#[cfg(any(test, feature = "testing"))]
#[allow(clippy::too_many_arguments)]
fn build_one_start_reference(
    start: usize,
    horizon: usize,
    cm: usize,
    shifts: &[(usize, f64)],
    scatter: &ScatterMatrix,
    joint: &mut Vec<f64>,
    next: &mut Vec<f64>,
    conv: &mut [f64],
) -> Vec<f32> {
    let n = scatter.num_bins();
    let hw = scatter.max_reach();
    joint.fill(0.0);
    next.fill(0.0);
    joint[start * cm] = 1.0;
    let mut strip = vec![0.0f32; horizon * cm];
    let mut j_lo = start;
    let mut j_hi = start;
    let mut c_hi = 0usize;

    for t in 0..horizon {
        j_lo = j_lo.saturating_sub(hw);
        j_hi = (j_hi + hw).min(n - 1);
        let (jl, jh) = (j_lo, j_hi);

        // --- evolve the bin axis (count axis untouched) ---
        for v in next[jl * cm..(jh + 1) * cm].iter_mut() {
            *v = 0.0;
        }
        evolve_rows_reference(scatter, joint, next, jl, jh, c_hi, cm);
        std::mem::swap(joint, next);

        // --- advance the volume axis per bin (quarter-MTU units) ---
        let widest = shifts[jh].0 + 1;
        let new_c_hi = (c_hi + widest).min(cm - 1);
        for j in jl..=jh {
            let row = &mut joint[j * cm..(j + 1) * cm];
            let (lo, frac) = shifts[j];
            if lo == 0 && frac == 0.0 {
                continue; // outage bin: volume unchanged
            }
            conv[..=new_c_hi].fill(0.0);
            for (c, &p) in row.iter().enumerate().take(c_hi + 1) {
                if p == 0.0 {
                    continue;
                }
                let a = (c + lo).min(cm - 1);
                let b = (c + lo + 1).min(cm - 1);
                conv[a] += p * (1.0 - frac);
                conv[b] += p * frac;
            }
            row[..=new_c_hi].copy_from_slice(&conv[..=new_c_hi]);
        }
        c_hi = new_c_hi;

        // --- marginalize over bins, cumulative-sum, store ---
        let mut acc = 0.0f64;
        for c in 0..cm {
            if c <= c_hi {
                let mut pc = 0.0;
                for j in jl..=jh {
                    pc += joint[j * cm + c];
                }
                acc += pc;
            } else {
                acc = 1.0; // everything reachable is ≤ c_hi
            }
            strip[t * cm + c] = acc.min(1.0) as f32;
        }
    }
    strip
}

/// Apply the transition operator to bins `[j_lo, j_hi]` of the joint
/// distribution (only counts `0..=c_hi` carry mass), source-major.
#[cfg(any(test, feature = "testing"))]
fn evolve_rows_reference(
    scatter: &ScatterMatrix,
    joint: &[f64],
    next: &mut [f64],
    j_lo: usize,
    j_hi: usize,
    c_hi: usize,
    cm: usize,
) {
    for j in j_lo..=j_hi {
        let src = &joint[j * cm..j * cm + c_hi + 1];
        if src.iter().all(|&p| p == 0.0) {
            continue;
        }
        let (dests, weights) = scatter.row(j);
        for (&dst_bin, &w) in dests.iter().zip(weights.iter()) {
            let dst_bin = dst_bin as usize;
            let dst = &mut next[dst_bin * cm..dst_bin * cm + c_hi + 1];
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d += w * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SproutConfig {
        SproutConfig::test_small()
    }

    fn tables(cfg: &SproutConfig) -> Arc<ForecastTables> {
        ForecastTables::get(cfg)
    }

    /// The cautious forecast at `percentile`, on a fresh scratch.
    fn forecast(t: &ForecastTables, posterior: &[f64], percentile: f64) -> Forecast {
        t.forecast_into(posterior, percentile, &mut ForecastScratch::default())
            .clone()
    }

    fn uniform(n: usize) -> Vec<f64> {
        vec![1.0 / n as f64; n]
    }

    fn point_mass(n: usize, at: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        v[at] = 1.0;
        v
    }

    #[test]
    fn conditional_cdfs_are_valid() {
        let cfg = small_cfg();
        let t = tables(&cfg);
        for tick in 0..cfg.horizon_ticks {
            for bin in [0, 1, cfg.num_bins / 2, cfg.num_bins - 1] {
                let mut prev = 0.0;
                for c in 0..cfg.count_max {
                    let f = t.conditional_cdf(tick, c, bin);
                    assert!(
                        (0.0..=1.0 + 1e-6).contains(&f),
                        "cdf out of range: {f} at t={tick} c={c} bin={bin}"
                    );
                    assert!(f + 1e-6 >= prev, "cdf must be non-decreasing in c");
                    prev = f;
                }
                assert!(
                    (prev - 1.0).abs() < 1e-4,
                    "cdf must reach 1, got {prev} (tick {tick}, bin {bin})"
                );
            }
        }
    }

    #[test]
    fn outage_start_forecasts_nothing() {
        // Starting in a certain outage, the 5th-percentile forecast must
        // be 0 for every tick in the horizon (escape is unlikely and slow).
        let cfg = small_cfg();
        let t = tables(&cfg);
        let f = forecast(&t, &point_mass(cfg.num_bins, 0), 5.0);
        assert!(f.cumulative_units.iter().all(|&c| c == 0), "{f:?}");
    }

    #[test]
    fn fast_start_forecasts_roughly_rate_times_time() {
        // Start certain at the top bin (250 pps in the test config → 5
        // packets = 20 quarter-units per 20 ms tick). The *median*
        // cumulative forecast should grow ≈20 units per tick; the 5th
        // percentile strictly less.
        let cfg = small_cfg();
        let t = tables(&cfg);
        let top = point_mass(cfg.num_bins, cfg.num_bins - 1);
        let median = forecast(&t, &top, 50.0);
        let last = *median.cumulative_units.last().unwrap() as f64;
        let expect = 250.0 * 0.02 * cfg.horizon_ticks as f64 * UNITS_PER_MTU as f64;
        assert!(
            (last - expect).abs() < expect * 0.35,
            "median cumulative {last} units, expect ≈{expect}"
        );
        let cautious = forecast(&t, &top, 5.0);
        for (c, m) in cautious
            .cumulative_units
            .iter()
            .zip(median.cumulative_units.iter())
        {
            assert!(c <= m, "cautious must not exceed median");
        }
    }

    #[test]
    fn forecast_is_monotone_in_tick() {
        let cfg = small_cfg();
        let t = tables(&cfg);
        for posterior in [
            uniform(cfg.num_bins),
            point_mass(cfg.num_bins, cfg.num_bins / 2),
        ] {
            for pct in [5.0, 50.0, 95.0] {
                let f = forecast(&t, &posterior, pct);
                for w in f.cumulative_units.windows(2) {
                    assert!(w[0] <= w[1], "{f:?}");
                }
            }
        }
    }

    #[test]
    fn lower_percentile_is_more_cautious() {
        let cfg = small_cfg();
        let t = tables(&cfg);
        let posterior = point_mass(cfg.num_bins, cfg.num_bins / 2);
        let f5 = forecast(&t, &posterior, 5.0);
        let f50 = forecast(&t, &posterior, 50.0);
        let f95 = forecast(&t, &posterior, 95.0);
        for i in 0..f5.horizon() {
            assert!(f5.cumulative_units[i] <= f50.cumulative_units[i]);
            assert!(f50.cumulative_units[i] <= f95.cumulative_units[i]);
        }
        // And strictly so somewhere, or the sweep of Fig. 9 would be flat.
        assert_ne!(f5.cumulative_units, f95.cumulative_units);
    }

    #[test]
    fn mixture_matches_conditional_for_point_mass() {
        let cfg = small_cfg();
        let t = tables(&cfg);
        let bin = cfg.num_bins / 3;
        let pm = point_mass(cfg.num_bins, bin);
        for c in [0, 5, 20] {
            let a = t.mixture_cdf(&pm, 2, c);
            let b = t.conditional_cdf(2, c, bin);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn one_tick_cdf_matches_direct_computation() {
        // For one tick from a point mass, C₁'s distribution is the
        // one-step-evolved bin distribution pushed through the per-bin
        // volume advance (λ·τ in quarter-units, two-point split).
        let cfg = small_cfg();
        let kernel = TransitionKernel::new(&cfg);
        let t = ForecastTables::build(&cfg, &kernel);
        let bin = cfg.num_bins / 2;
        let mut evolved = vec![0.0; cfg.num_bins];
        let mut pm = vec![0.0; cfg.num_bins];
        pm[bin] = 1.0;
        kernel.evolve_into(&pm, &mut evolved);
        let tau = TICK.as_secs_f64();
        for c in [0usize, 2, 4, 8, 16] {
            let direct: f64 = evolved
                .iter()
                .enumerate()
                .map(|(j, &p)| {
                    let units = cfg.bin_rate_pps(j) * tau * UNITS_PER_MTU as f64;
                    let lo = units.floor() as usize;
                    let frac = units - units.floor();
                    // P(volume ≤ c | bin j): lands at lo w.p. 1−frac,
                    // lo+1 w.p. frac.
                    let cdf = if lo < c {
                        1.0
                    } else if lo <= c {
                        1.0 - frac
                    } else {
                        0.0
                    };
                    p * cdf
                })
                .sum();
            let table = t.conditional_cdf(0, c, bin);
            assert!(
                (direct - table).abs() < 1e-4,
                "c={c}: direct {direct} vs table {table}"
            );
        }
    }

    #[test]
    fn forecast_bytes_clamps_to_horizon() {
        // Units are quarter-MTU: 4 units = 1500 bytes.
        let f = Forecast {
            cumulative_units: vec![4, 8, 12],
        };
        assert_eq!(f.cumulative_bytes(0, 1500), 1_500);
        assert_eq!(f.cumulative_bytes(2, 1500), 4_500);
        assert_eq!(f.cumulative_bytes(99, 1500), 4_500); // clamped
    }

    #[test]
    fn empty_forecast_promises_zero_bytes() {
        let f = Forecast::default();
        assert_eq!(f.horizon(), 0);
        assert_eq!(f.cumulative_bytes(0, 1500), 0);
        assert_eq!(f.cumulative_bytes(7, 1500), 0);
    }

    #[test]
    fn blocked_build_is_byte_identical_to_reference() {
        let cfg = small_cfg();
        let kernel = TransitionKernel::new(&cfg);
        let fast = ForecastTables::build(&cfg, &kernel);
        let slow = ForecastTables::build_reference(&cfg, &kernel);
        assert_eq!(fast.to_bytes(), slow.to_bytes());
        assert_eq!(fast.max_step, slow.max_step);
    }

    #[test]
    fn the_f64_recursion_is_pinned_where_the_strips_end() {
        // Narrowed to f32, two summation orders of the same terms almost
        // never differ (a one-ulp f64 difference must straddle an f32
        // rounding boundary), so table pins cannot tell them apart. These
        // fingerprint every tick's f64 `G`, recorded from the row-major
        // gather the strip-major one replaced: the same operands in the
        // same order, at strip tails and skipped sources. Never re-record
        // them.
        let cfg_with = |num_bins, sigma, max_rate_pps, horizon_ticks, count_max| SproutConfig {
            num_bins,
            sigma,
            max_rate_pps,
            horizon_ticks,
            count_max,
            ..SproutConfig::default()
        };
        let pins = [
            (SproutConfig::paper(), 0x8d07_1b4b_7b6e_d1b4),
            (small_cfg(), 0xb71f_9113_b077_3cdd),
            // The axis ends 33 counts into its second strip, and whole
            // strips of `M` are +0.0 (1 908 skipped sources).
            (cfg_with(48, 150.0, 600.0, 6, 97), 0x5dfa_8268_82b2_bf06),
            // Every row reflects; the last strip is one count.
            (cfg_with(9, 300.0, 100.0, 4, 65), 0x874a_f7c8_ff23_f28a),
        ];
        for (cfg, pin) in pins {
            let mut bits = Vec::new();
            backward_recursion(&cfg, &TransitionKernel::new(&cfg), |g| {
                bits.extend(g.iter().flat_map(|v| v.to_bits().to_le_bytes()))
            });
            assert_eq!(
                sprout_cache::fingerprint64(&bits),
                pin,
                "{} bins, count axis {}",
                cfg.num_bins,
                cfg.count_max
            );
        }
    }

    #[test]
    fn bounded_search_matches_unbounded_gallop_domain() {
        // The same values through raw `from_rows` have no config-derived
        // search bound (max_step == count_max). Forecasts must be
        // identical either way.
        let cfg = small_cfg();
        let kernel = TransitionKernel::new(&cfg);
        let bounded = ForecastTables::build(&cfg, &kernel);
        assert!(bounded.max_step < bounded.count_max);
        let (n, horizon, cm) = (cfg.num_bins, cfg.horizon_ticks, cfg.count_max);
        let rows: Vec<f32> = (0..horizon * n * cm)
            .map(|at| bounded.value(at / (n * cm), at % cm, at / cm % n))
            .collect();
        let unbounded = ForecastTables::from_rows(n, horizon, cm, &rows);
        assert_eq!(unbounded.to_bytes(), bounded.to_bytes());
        assert_eq!(unbounded.max_step, unbounded.count_max);
        for posterior in [
            uniform(cfg.num_bins),
            point_mass(cfg.num_bins, 0),
            point_mass(cfg.num_bins, cfg.num_bins - 1),
        ] {
            for pct in [5.0, 25.0, 50.0, 75.0, 95.0] {
                assert_eq!(
                    forecast(&bounded, &posterior, pct),
                    forecast(&unbounded, &posterior, pct)
                );
            }
        }
    }

    #[test]
    fn cache_returns_shared_instance() {
        let cfg = small_cfg();
        let a = ForecastTables::get(&cfg);
        let b = ForecastTables::get(&cfg);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
