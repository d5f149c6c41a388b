//! The stochastic link model and its Bayesian updater (§3.1–3.2).
//!
//! The link is modeled as a doubly-stochastic process: packet deliveries
//! form a Poisson process whose rate λ performs Brownian motion with noise
//! power σ, except that λ = 0 (an outage) is *sticky*, escaped at
//! exponential rate λz. Sprout discretizes λ into `num_bins` values
//! uniformly spanning `[0, max_rate_pps]` and maintains a probability
//! distribution over them, updated every 20 ms tick in three steps:
//! evolve (Brownian blur + outage bias), observe (Poisson likelihood of
//! the bytes that arrived), normalize.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::config::SproutConfig;
use crate::simd::{evolve_block_into, BlockTerms, EVOLVE_BLOCK};
use crate::stats::{ln_gamma, normal_mass, poisson_ln_pmf_with_ln_gamma};

/// The per-tick transition matrix in CSR (compressed sparse row) form:
/// one flat `(destination, weight)` stream with per-row extents, so the
/// forecast-table DP walks contiguous memory instead of a `Vec` of
/// `Vec`s. Boundary reflections are already folded in (duplicate
/// destinations merged), and rows list destinations in ascending order.
/// This is the operator's declaration: the band split behind
/// [`TransitionKernel::evolve_into`] is derived from it by inspection.
#[derive(Debug)]
pub struct ScatterMatrix {
    num_bins: usize,
    /// Row `j` spans `row_ptr[j]..row_ptr[j+1]` of `dests`/`weights`.
    row_ptr: Vec<u32>,
    dests: Vec<u32>,
    weights: Vec<f64>,
    /// Largest `|dst − j|` over all rows — how far one tick can move
    /// probability mass (the DP's reachable-window growth rate).
    max_reach: usize,
}

impl ScatterMatrix {
    fn from_rows(num_bins: usize, rows: impl Iterator<Item = Vec<(usize, f64)>>) -> Self {
        let mut row_ptr = Vec::with_capacity(num_bins + 1);
        let mut dests = Vec::new();
        let mut weights = Vec::new();
        let mut max_reach = 1usize;
        row_ptr.push(0u32);
        for (j, row) in rows.enumerate() {
            for (dst, w) in row {
                max_reach = max_reach.max(dst.abs_diff(j));
                dests.push(dst as u32);
                weights.push(w);
            }
            row_ptr.push(dests.len() as u32);
        }
        assert_eq!(row_ptr.len(), num_bins + 1);
        ScatterMatrix {
            num_bins,
            row_ptr,
            dests,
            weights,
            max_reach,
        }
    }

    /// Number of rate bins (rows and columns).
    pub fn num_bins(&self) -> usize {
        self.num_bins
    }

    /// The outgoing `(destinations, weights)` of bin `j`, destinations
    /// ascending.
    pub fn row(&self, j: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[j] as usize;
        let hi = self.row_ptr[j + 1] as usize;
        (&self.dests[lo..hi], &self.weights[lo..hi])
    }

    /// Largest per-tick bin displacement (≥ 1).
    pub fn max_reach(&self) -> usize {
        self.max_reach
    }
}

/// A group of consecutive matrix rows stored densely for the evolve
/// kernel: `weights[(j − rows.start) · pitch + (d − first_dest)]` is row
/// `j`'s weight into destination `d`, `0.0` where the row has none.
/// `first_dest` and `pitch` are multiples of [`EVOLVE_BLOCK`], so every
/// destination block the group touches reads [`EVOLVE_BLOCK`] stored
/// lanes.
#[derive(Debug)]
struct EdgeRows {
    rows: Range<usize>,
    first_dest: usize,
    pitch: usize,
    weights: Vec<f64>,
}

impl EdgeRows {
    fn new(scatter: &ScatterMatrix, rows: Range<usize>) -> Self {
        let dests = || rows.clone().flat_map(|j| scatter.row(j).0.iter());
        let first_dest = dests().min().map_or(0, |&d| d as usize) / EVOLVE_BLOCK * EVOLVE_BLOCK;
        let end_dest = dests().max().map_or(0, |&d| d as usize + 1);
        let pitch = (end_dest - first_dest).next_multiple_of(EVOLVE_BLOCK);
        let mut weights = vec![0.0; rows.len() * pitch];
        for j in rows.clone() {
            let (dests, ws) = scatter.row(j);
            let base = (j - rows.start) * pitch;
            for (&d, &w) in dests.iter().zip(ws) {
                weights[base + d as usize - first_dest] = w;
            }
        }
        EdgeRows {
            rows,
            first_dest,
            pitch,
            weights,
        }
    }

    /// The group's sources for the destination block starting at `d0`.
    #[inline]
    fn terms<'a>(&'a self, src: &'a [f64], d0: usize) -> BlockTerms<'a> {
        if !(self.first_dest..self.first_dest + self.pitch).contains(&d0) {
            return BlockTerms::default();
        }
        BlockTerms {
            coef: &src[self.rows.clone()],
            lanes: &self.weights,
            first: d0 - self.first_dest,
            stride: self.pitch,
        }
    }
}

/// What [`TransitionKernel::evolve_into`] walks, derived from the
/// [`ScatterMatrix`] by inspection. Away from the two reflecting edges
/// every row of the §3.1 Brownian step is the same band shifted along the
/// diagonal, so the matrix is three groups of rows, in source order: the
/// low edge rows (row 0's sticky-outage mixture and the rows reflected at
/// the low edge), one shared band, the high edge rows (reflected at the
/// high edge). At paper scale that is 30 + 29 edge rows, ≈ 30 KB stored
/// densely, and one 59-weight band. A grid too small for any row to
/// escape both reflections has an empty band and every row in the high
/// group.
#[derive(Debug)]
struct BandSplit {
    low: EdgeRows,
    /// The rows that are each the row before shifted up one bin,
    /// bit-for-bit; empty when the matrix has no two such rows.
    band_rows: Range<usize>,
    /// The shared row's weights, *last destination first*: for
    /// destination `d`, the band source `d + band_reach − m` carries
    /// the row's `m`-th weight, so sources ascending are `m` descending.
    band: Vec<f64>,
    /// Band row `j`'s first destination is `j − band_reach`.
    band_reach: usize,
    /// Source `j` sits at `masked[j + lead]` in the masked copy, so the
    /// band's lowest source for destination 0 is at index ≥ 0.
    lead: usize,
    high: EdgeRows,
}

impl BandSplit {
    fn new(scatter: &ScatterMatrix) -> Self {
        let n = scatter.num_bins();
        // Row `j` is row `j − 1` one bin up, reaching no higher than its
        // own bin at the low end (true of any centred band).
        let continues_band = |j: usize| {
            let (prev_dests, prev_weights) = scatter.row(j - 1);
            let (dests, weights) = scatter.row(j);
            dests.first().is_some_and(|&d| d as usize <= j)
                && dests.len() == prev_dests.len()
                && dests.iter().zip(prev_dests).all(|(&d, &p)| d == p + 1)
                && weights
                    .iter()
                    .zip(prev_weights)
                    .all(|(w, p)| w.to_bits() == p.to_bits())
        };
        let mut band_rows = 0..0;
        let mut start = 0;
        for j in 1..=n {
            if j < n && continues_band(j) {
                continue;
            }
            if j - start >= 2 && j - start > band_rows.len() {
                band_rows = start..j;
            }
            start = j;
        }
        let mut band = Vec::new();
        let mut band_reach = 0;
        if !band_rows.is_empty() {
            let j = band_rows.start;
            let (dests, weights) = scatter.row(j);
            let first = dests[0] as usize;
            let span = dests[dests.len() - 1] as usize + 1 - first;
            band_reach = j - first;
            band = vec![0.0; span];
            for (&d, &w) in dests.iter().zip(weights) {
                band[span - 1 - (d as usize - first)] = w;
            }
        }
        BandSplit {
            low: EdgeRows::new(scatter, 0..band_rows.start),
            high: EdgeRows::new(scatter, band_rows.end..n),
            lead: band.len().saturating_sub(1 + band_reach),
            band_rows,
            band,
            band_reach,
        }
    }

    /// The band's terms for the destination block starting at `d0`:
    /// `band[k]` against the window of the masked copy whose lane `l`
    /// holds source `d0 + l + band_reach + 1 + k − band.len()` — the
    /// source that reaches destination `d0 + l` with that weight.
    fn band_terms<'a>(&'a self, masked: &'a [f64], d0: usize) -> BlockTerms<'a> {
        if self.band.is_empty() {
            return BlockTerms::default();
        }
        BlockTerms {
            coef: &self.band,
            lanes: masked,
            first: d0 + self.band_reach + self.lead + 1 - self.band.len(),
            stride: 1,
        }
    }

    /// `src` with every row outside the band replaced by +0.0, at
    /// offset `lead` inside `buf` and padded with +0.0 past both ends as
    /// far as any block's window reads; 64-byte aligned, so the
    /// kernel's shifted loads split cache lines alike on every run.
    fn masked_source<'a>(&self, buf: &'a mut Vec<f64>, src: &[f64]) -> &'a [f64] {
        if self.band.is_empty() {
            return &[];
        }
        let len = src.len().next_multiple_of(EVOLVE_BLOCK) + self.band_reach + self.lead;
        const LINE: usize = 64 / std::mem::size_of::<f64>();
        if buf.len() < len + LINE - 1 {
            buf.resize(len + LINE - 1, 0.0);
        }
        let at = buf.as_ptr().align_offset(64).min(LINE - 1);
        let masked = &mut buf[at..at + len];
        let kept = self.band_rows.start + self.lead..self.band_rows.end + self.lead;
        masked[..kept.start].fill(0.0);
        masked[kept.clone()].copy_from_slice(&src[self.band_rows.clone()]);
        masked[kept.end..].fill(0.0);
        masked
    }
}

thread_local! {
    /// The masked source copy of [`TransitionKernel::evolve_into`], one
    /// per thread: grown to the widest geometry the thread evolves, then
    /// reused by every model on it.
    static MASKED_SOURCE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Precomputed per-tick evolution operator: a banded Gaussian kernel for
/// the Brownian step plus the special sticky-outage row for bin 0.
#[derive(Debug)]
pub struct TransitionKernel {
    num_bins: usize,
    /// Half-width of the banded kernel, in bins (±4σ).
    half_width: usize,
    /// The whole operator flattened to CSR — the Gaussian Brownian band
    /// (reflected at both boundaries) for positive bins and the sticky
    /// outage/escape mixture for bin 0. The forecast-table builder and
    /// `Self::evolve_into_reference` walk it.
    scatter: ScatterMatrix,
    /// The same operator as `evolve_into` walks it.
    split: BandSplit,
}

impl TransitionKernel {
    /// Build the kernel for a configuration.
    pub fn new(cfg: &SproutConfig) -> Self {
        cfg.validate();
        let step = cfg.bin_width_pps();
        // Per-tick Brownian standard deviation: σ·√τ (§3.1).
        let sigma_tick = cfg.sigma * cfg.tick_secs().sqrt();
        let half_width = ((4.0 * sigma_tick / step).ceil() as usize).clamp(1, cfg.num_bins - 1);
        let mut weights = Vec::with_capacity(2 * half_width + 1);
        for d in -(half_width as i64)..=(half_width as i64) {
            let lo = (d as f64 - 0.5) * step;
            let hi = (d as f64 + 0.5) * step;
            weights.push(normal_mass(0.0, sigma_tick, lo, hi));
        }
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= total;
        }
        // Escape distribution: positive-offset half of the kernel.
        let mut escape_row: Vec<f64> = weights[half_width + 1..].to_vec();
        let esc_total: f64 = escape_row.iter().sum();
        if esc_total > 0.0 {
            for w in &mut escape_row {
                *w /= esc_total;
            }
        } else {
            // Degenerate kernel (huge bins): escape to the first bin.
            escape_row = vec![1.0];
        }
        let escape_prob = 1.0 - (-cfg.outage_escape_rate * cfg.tick_secs()).exp();
        let n = cfg.num_bins;
        let scatter = ScatterMatrix::from_rows(
            n,
            (0..n).map(|j| compute_row(j, n, half_width, &weights, escape_prob, &escape_row)),
        );
        TransitionKernel {
            num_bins: cfg.num_bins,
            half_width,
            split: BandSplit::new(&scatter),
            scatter,
        }
    }

    /// Kernel half-width in bins.
    pub fn half_width(&self) -> usize {
        self.half_width
    }

    /// The operator flattened to CSR (the forecast-table builder consumes
    /// this form).
    pub fn scatter(&self) -> &ScatterMatrix {
        &self.scatter
    }

    /// Apply one tick of evolution: `dst = T(src)`. `dst` is overwritten.
    /// Probability is conserved exactly up to floating-point rounding
    /// (out-of-range Brownian mass clamps to the edge bins).
    ///
    /// `src` must be finite and non-negative — what [`RateModel::normalize`]
    /// guarantees of every posterior (checked in debug builds).
    ///
    /// Walks the band split destination-major: one block of 64
    /// destinations at a time, accumulators in registers,
    /// the low edge rows ascending, then the band as `w[m] × src[d +
    /// reach − m]` for `m` descending (a broadcast weight against a
    /// shifted window of a copy of `src` with every row outside the band
    /// masked to +0.0), then the high edge rows ascending. Bit-identical
    /// to `Self::evolve_into_reference`:
    ///
    /// * *Order.* The three groups partition the rows in ascending order
    ///   and each is walked in ascending source order, so every
    ///   destination adds its sources in ascending order from `+0.0`, one
    ///   IEEE multiply and one IEEE add per source — the reference's
    ///   operand sequence.
    /// * *Zero terms.* An edge row that does not reach a lane meets a
    ///   stored `0.0` there, a band position whose source is not a band
    ///   row (or lies off the grid) reads a masked `+0.0`, and a zero
    ///   source is multiplied out where the reference skips it. With
    ///   `src` finite and non-negative and every weight finite and
    ///   non-negative, each such term is `±0.0`, and adding `±0.0` to an
    ///   accumulator that started at `+0.0` and has only had non-negative
    ///   terms added leaves its bits unchanged. An infinite or NaN source
    ///   would instead poison lanes the reference never touches, hence
    ///   the precondition.
    pub fn evolve_into(&self, src: &[f64], dst: &mut [f64]) {
        assert_eq!(src.len(), self.num_bins);
        assert_eq!(dst.len(), self.num_bins);
        debug_assert!(
            src.iter().all(|&p| p.is_finite() && p >= 0.0),
            "evolve_into needs a finite, non-negative source distribution"
        );
        let split = &self.split;
        MASKED_SOURCE.with(|buf| {
            let mut buf = buf.borrow_mut();
            let masked = split.masked_source(&mut buf, src);
            for (block, out) in dst.chunks_mut(EVOLVE_BLOCK).enumerate() {
                let d0 = block * EVOLVE_BLOCK;
                let groups = [
                    split.low.terms(src, d0),
                    split.band_terms(masked, d0),
                    split.high.terms(src, d0),
                ];
                evolve_block_into(out, &groups);
            }
        });
    }

    /// The scalar source-major CSR walk [`Self::evolve_into`] must equal
    /// bit for bit, kept as its reference. Equivalence is enforced by the
    /// `kernel_equivalence` proptest suite; only test builds compile it
    /// (`cfg(test)` or the `testing` feature).
    #[cfg(any(test, feature = "testing"))]
    pub fn evolve_into_reference(&self, src: &[f64], dst: &mut [f64]) {
        assert_eq!(src.len(), self.num_bins);
        assert_eq!(dst.len(), self.num_bins);
        dst.fill(0.0);
        for (j, &p) in src.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let (dests, weights) = self.scatter.row(j);
            for (&d, &w) in dests.iter().zip(weights.iter()) {
                dst[d as usize] += p * w;
            }
        }
    }
}

/// One CSR row of the transition operator: the sticky-outage mixture for
/// bin 0 (§3.1), the reflected Brownian band for positive bins. Both
/// boundaries reflect: mass pushed below the lowest positive rate folds
/// back up rather than entering the outage state (λ = 0 is a *discrete*
/// sticky state of the paper's model — a continuous diffusion has zero
/// probability of landing exactly on it; outage probability accumulates
/// through observation of silence instead), and mass pushed past the
/// grid ceiling folds back down.
fn compute_row(
    j: usize,
    num_bins: usize,
    half_width: usize,
    weights: &[f64],
    escape_prob: f64,
    escape_row: &[f64],
) -> Vec<(usize, f64)> {
    if j == 0 {
        let mut row = Vec::with_capacity(escape_row.len() + 1);
        row.push((0, 1.0 - escape_prob));
        for (k, &w) in escape_row.iter().enumerate() {
            let dst = (k + 1).min(num_bins - 1);
            match row.last_mut() {
                Some((d, acc)) if *d == dst => *acc += escape_prob * w,
                _ => row.push((dst, escape_prob * w)),
            }
        }
        return row;
    }
    let n = num_bins as i64;
    let hw = half_width as i64;
    let mut acc = vec![0.0f64; num_bins];
    let mut lo = num_bins - 1;
    let mut hi = 1;
    for (k, &w) in weights.iter().enumerate() {
        let dst = reflect_positive((j as i64) + k as i64 - hw, n);
        acc[dst] += w;
        lo = lo.min(dst);
        hi = hi.max(dst);
    }
    (lo..=hi)
        .filter(|&d| acc[d] > 0.0)
        .map(|d| (d, acc[d]))
        .collect()
}

/// Reflect a bin index into the positive range `[1, n-1]`. The lower
/// reflecting boundary sits at 0.5 (between the outage bin and bin 1):
/// `j' = 1 − j`; the upper at `n − 0.5`: `j' = 2n − 1 − j`. One
/// reflection per side suffices because the kernel half-width is bounded
/// by the grid size; any residue is clamped defensively.
fn reflect_positive(j: i64, n: i64) -> usize {
    let mut j = j;
    if j < 1 {
        j = 1 - j;
    }
    if j > n - 1 {
        j = 2 * n - 1 - j;
    }
    j.clamp(1, n - 1) as usize
}

/// Byte budget of the per-thread likelihood memo behind
/// [`RateModel::observe_exposed`] (vectors plus an allowance for the map's
/// own slots). At paper scale that is ~480 `(packets, exposure)` pairs — a
/// 60 s cell observes a few hundred distinct ones, a 96-session serve cell
/// under a hundred.
pub const LIKELIHOOD_MEMO_MAX_BYTES: usize = 1 << 20;

/// Everything a likelihood vector depends on: the observation and the
/// rate grid it is evaluated over, by bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct LikelihoodKey {
    packets_bits: u64,
    exposure_bits: u64,
    num_bins: usize,
    max_rate_bits: u64,
    floor_bits: u64,
}

/// Finished likelihood vectors by observation (`None` = the impossible
/// observation whose update is skipped). When an insert would exceed the
/// budget the memo starts over: the handful of hot pairs refill within a
/// few ticks, and no recency bookkeeping rides on the hit path.
#[derive(Default)]
struct LikelihoodMemo {
    map: HashMap<LikelihoodKey, Option<Box<[f64]>>>,
    bytes: usize,
}

impl LikelihoodMemo {
    /// Accounted cost of one entry beyond its vector: the map slot (key,
    /// value, control byte, at the table's worst load factor) and the
    /// allocator's header.
    const ENTRY_OVERHEAD: usize = 128;

    fn insert(&mut self, key: LikelihoodKey, like: Option<Box<[f64]>>) {
        let cost = Self::ENTRY_OVERHEAD + like.as_deref().map_or(0, std::mem::size_of_val);
        if cost > LIKELIHOOD_MEMO_MAX_BYTES {
            return; // a grid too wide to memoise at all
        }
        if self.bytes + cost > LIKELIHOOD_MEMO_MAX_BYTES {
            self.map.clear();
            self.bytes = 0;
        }
        self.bytes += cost;
        self.map.insert(key, like);
    }
}

thread_local! {
    static LIKELIHOOD_MEMO: RefCell<LikelihoodMemo> = RefCell::default();
}

/// Occupancy of the calling thread's likelihood memo: `(entries,
/// accounted_bytes)`. `accounted_bytes` never exceeds
/// [`LIKELIHOOD_MEMO_MAX_BYTES`].
pub fn likelihood_memo_occupancy() -> (usize, usize) {
    LIKELIHOOD_MEMO.with(|memo| {
        let memo = memo.borrow();
        (memo.map.len(), memo.bytes)
    })
}

/// The evolving posterior over the link rate.
#[derive(Clone, Debug)]
pub struct RateModel {
    cfg: SproutConfig,
    kernel: Arc<TransitionKernel>,
    dist: Vec<f64>,
    scratch: Vec<f64>,
}

impl RateModel {
    /// New model with the uniform prior of §3.1 ("at program startup, all
    /// values of λ are equally probable").
    pub fn new(cfg: SproutConfig) -> Self {
        let kernel = Arc::new(TransitionKernel::new(&cfg));
        Self::with_kernel(cfg, kernel)
    }

    /// New model sharing an existing kernel. [`BayesianForecaster::new`]
    /// passes the one kernel [`ForecastTables::get`] keeps per table
    /// geometry, so every endpoint on one link configuration evolves
    /// through a single allocation.
    ///
    /// [`BayesianForecaster::new`]: crate::forecaster::BayesianForecaster::new
    /// [`ForecastTables::get`]: crate::forecast::ForecastTables::get
    pub fn with_kernel(cfg: SproutConfig, kernel: Arc<TransitionKernel>) -> Self {
        cfg.validate();
        let n = cfg.num_bins;
        RateModel {
            cfg,
            kernel,
            dist: vec![1.0 / n as f64; n],
            scratch: vec![0.0; n],
        }
    }

    /// The configuration this model runs with.
    pub fn config(&self) -> &SproutConfig {
        &self.cfg
    }

    /// The shared evolution kernel.
    pub fn kernel(&self) -> &Arc<TransitionKernel> {
        &self.kernel
    }

    /// Current posterior over rate bins (sums to 1).
    pub fn distribution(&self) -> &[f64] {
        &self.dist
    }

    /// Reset to the uniform prior.
    pub fn reset_uniform(&mut self) {
        let n = self.dist.len() as f64;
        self.dist.fill(1.0 / n);
    }

    /// Step 1 of the tick (§3.2): evolve the distribution one tick.
    pub fn evolve(&mut self) {
        self.kernel.evolve_into(&self.dist, &mut self.scratch);
        std::mem::swap(&mut self.dist, &mut self.scratch);
    }

    /// Steps 2–3 of the tick (§3.2): multiply in the Poisson likelihood of
    /// having observed `packets` packet-equivalents over one full tick,
    /// then renormalize.
    pub fn observe(&mut self, packets: f64) {
        let tau = self.cfg.tick_secs();
        self.observe_exposed(packets, tau);
    }

    /// Censored observation: `packets` arrived during `exposure_secs` of
    /// *queue-backed* time (the §3.2 time-to-next mechanism tells the
    /// receiver how much of the tick the sender's queue was empty; that
    /// idle time carries no information about the link and is excluded
    /// from the Poisson exposure). Likelihoods are floored (relative to
    /// the maximum) to keep a surprising observation from annihilating
    /// the posterior.
    ///
    /// The per-bin likelihood vector depends only on `(packets,
    /// exposure_secs)` and the rate grid, and an endpoint sees the same
    /// few hundred pairs over and over, so finished vectors are kept in a
    /// bounded per-thread memo ([`LIKELIHOOD_MEMO_MAX_BYTES`]) shared by
    /// every model on the thread: a hit costs one multiply per bin and
    /// the normalize. A hit applies the very `f64`s a miss computed, so
    /// the posterior is bit-identical to
    /// `Self::observe_exposed_reference` either way.
    pub fn observe_exposed(&mut self, packets: f64, exposure_secs: f64) {
        assert!(packets >= 0.0 && packets.is_finite());
        assert!(exposure_secs > 0.0 && exposure_secs.is_finite());
        let key = LikelihoodKey {
            packets_bits: packets.to_bits(),
            exposure_bits: exposure_secs.to_bits(),
            num_bins: self.cfg.num_bins,
            max_rate_bits: self.cfg.max_rate_pps.to_bits(),
            floor_bits: self.cfg.likelihood_floor.to_bits(),
        };
        LIKELIHOOD_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if let Some(like) = memo.map.get(&key) {
                self.apply_likelihood(like.as_deref());
            } else {
                let like = self.likelihood(packets, exposure_secs);
                self.apply_likelihood(like.as_deref());
                memo.insert(key, like);
            }
        });
    }

    /// [`Self::observe_exposed`] without the likelihood memo: always
    /// computes the likelihood vector. Kept as the bit-exactness reference
    /// for the memoised path (`kernel_equivalence` suite); only test
    /// builds compile it (`cfg(test)` or the `testing` feature).
    #[cfg(any(test, feature = "testing"))]
    pub fn observe_exposed_reference(&mut self, packets: f64, exposure_secs: f64) {
        assert!(packets >= 0.0 && packets.is_finite());
        assert!(exposure_secs > 0.0 && exposure_secs.is_finite());
        let like = self.likelihood(packets, exposure_secs);
        self.apply_likelihood(like.as_deref());
    }

    /// The floored, max-normalized Poisson likelihood of the observation
    /// under every rate bin, or `None` when the observation is impossible
    /// under all of them (the update is then skipped).
    fn likelihood(&mut self, packets: f64, tau: f64) -> Option<Box<[f64]>> {
        let n = self.dist.len();
        // ln Γ(packets + 1) depends only on the observation, not the bin:
        // hoist the Lanczos evaluation out of the loop. The likelihood
        // memo keeps this path rare, so nothing else is cached per model.
        let lgk1 = ln_gamma(packets + 1.0);
        // Log-likelihood per bin, max-normalized before exponentiation.
        let mut max_ll = f64::NEG_INFINITY;
        for i in 0..n {
            let mean = self.cfg.bin_rate_pps(i) * tau;
            let ll = poisson_ln_pmf_with_ln_gamma(packets, mean, lgk1);
            self.scratch[i] = ll;
            if ll > max_ll {
                max_ll = ll;
            }
        }
        if !max_ll.is_finite() {
            // Impossible observation under every bin (an overflowing
            // packet count; cannot happen with real arrivals).
            return None;
        }
        let floor = self.cfg.likelihood_floor;
        // `exp` is the costliest op left in this loop, and for a peaked
        // likelihood most bins land on the floor anyway. Skipping the call
        // when `x < ln(floor) − 1e-9` is exact: exp is monotone with ~1 ulp
        // relative error, so `exp(x) ≤ floor·e^{−1e-9}·(1+ε) < floor` and
        // `max` would have produced precisely `floor`.
        let skip_below = floor.ln() - 1e-9;
        Some(
            self.scratch
                .iter()
                .map(|&ll| {
                    let x = ll - max_ll;
                    if x < skip_below {
                        floor
                    } else {
                        x.exp().max(floor)
                    }
                })
                .collect(),
        )
    }

    /// Multiply a likelihood vector into the posterior and renormalize;
    /// `None` (impossible observation) leaves the posterior untouched.
    fn apply_likelihood(&mut self, like: Option<&[f64]>) {
        let Some(like) = like else { return };
        for (p, &l) in self.dist.iter_mut().zip(like.iter()) {
            *p *= l;
        }
        self.normalize();
    }

    /// Renormalize the posterior to sum to 1, resetting to uniform if the
    /// mass underflowed entirely.
    pub fn normalize(&mut self) {
        let total: f64 = self.dist.iter().sum();
        if total > 0.0 && total.is_finite() {
            for p in &mut self.dist {
                *p /= total;
            }
        } else {
            self.reset_uniform();
        }
    }

    /// Posterior mean rate, packets per second.
    pub fn mean_rate_pps(&self) -> f64 {
        self.dist
            .iter()
            .enumerate()
            .map(|(i, &p)| p * self.cfg.bin_rate_pps(i))
            .sum()
    }

    /// Lower `pct` percentile of the posterior rate, packets per second.
    pub fn percentile_rate_pps(&self, pct: f64) -> f64 {
        assert!((0.0..=100.0).contains(&pct));
        let want = pct / 100.0;
        let mut acc = 0.0;
        for (i, &p) in self.dist.iter().enumerate() {
            acc += p;
            if acc >= want {
                return self.cfg.bin_rate_pps(i);
            }
        }
        self.cfg.max_rate_pps
    }

    /// Probability currently assigned to the outage state (bin 0).
    pub fn outage_probability(&self) -> f64 {
        self.dist[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SproutConfig {
        SproutConfig::test_small()
    }

    fn assert_is_distribution(d: &[f64]) {
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        assert!(d.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
    }

    #[test]
    fn evolution_conserves_probability() {
        let mut m = RateModel::new(small());
        for _ in 0..200 {
            m.evolve();
            assert_is_distribution(m.distribution());
        }
    }

    #[test]
    fn evolution_spreads_a_point_mass() {
        let mut m = RateModel::new(small());
        let n = m.distribution().len();
        m.dist.fill(0.0);
        m.dist[n / 2] = 1.0;
        m.evolve();
        let nonzero = m.distribution().iter().filter(|&&p| p > 1e-12).count();
        assert!(nonzero > 3, "Brownian step must blur: {nonzero} bins");
        assert_is_distribution(m.distribution());
    }

    #[test]
    fn observation_concentrates_posterior_near_true_rate() {
        // Feed 60 ticks of observations from a steady 100 pps link
        // (2 packets per 20 ms tick): the posterior mean should converge
        // near 100 pps.
        let mut m = RateModel::new(small());
        for _ in 0..60 {
            m.evolve();
            m.observe(2.0);
        }
        let mean = m.mean_rate_pps();
        assert!(
            (mean - 100.0).abs() < 30.0,
            "posterior mean {mean} pps, want ≈100"
        );
        assert_is_distribution(m.distribution());
    }

    #[test]
    fn zero_observations_drive_toward_outage() {
        let mut m = RateModel::new(small());
        // Converge on a healthy rate first.
        for _ in 0..30 {
            m.evolve();
            m.observe(2.0);
        }
        assert!(m.outage_probability() < 0.05);
        // Then silence: the model must shift mass toward λ = 0.
        for _ in 0..50 {
            m.evolve();
            m.observe(0.0);
        }
        assert!(
            m.percentile_rate_pps(50.0) < 20.0,
            "median {} pps should collapse toward 0",
            m.percentile_rate_pps(50.0)
        );
    }

    #[test]
    fn outage_is_sticky_under_evolution_alone() {
        let mut m = RateModel::new(small());
        m.dist.fill(0.0);
        m.dist[0] = 1.0;
        m.evolve();
        // One tick with λz=1: stay probability is exp(-0.02) ≈ 0.980.
        assert!(
            (m.outage_probability() - 0.980).abs() < 0.002,
            "outage stay prob {}",
            m.outage_probability()
        );
        // Escape is exponential at rate λz, and the reflecting boundary
        // keeps escaped mass from diffusing back, so bin-0 occupancy after
        // 1 s is exactly exp(−λz·1s) = e^-1 (§3.1: outage durations follow
        // exp[−λz]).
        let mut prev = m.outage_probability();
        for _ in 0..49 {
            m.evolve();
            let cur = m.outage_probability();
            assert!(cur <= prev + 1e-12, "occupancy must not grow");
            prev = cur;
        }
        let stayed = m.outage_probability();
        assert!(
            (stayed - (-1.0f64).exp()).abs() < 1e-6,
            "after 1 s, occupancy {stayed} should equal e^-1"
        );
    }

    #[test]
    fn recovery_after_outage_when_packets_return() {
        let mut m = RateModel::new(small());
        for _ in 0..100 {
            m.evolve();
            m.observe(0.0);
        }
        assert!(m.percentile_rate_pps(50.0) < 10.0);
        for _ in 0..50 {
            m.evolve();
            m.observe(3.0); // 150 pps
        }
        let mean = m.mean_rate_pps();
        assert!(mean > 80.0, "model must recover, mean {mean}");
    }

    #[test]
    fn fractional_observations_are_accepted() {
        let mut m = RateModel::new(small());
        m.evolve();
        m.observe(0.04); // a 60-byte heartbeat
        assert_is_distribution(m.distribution());
    }

    #[test]
    fn surprising_observation_does_not_collapse_posterior() {
        let mut m = RateModel::new(small());
        // Convince the model the link is dead...
        for _ in 0..200 {
            m.evolve();
            m.observe(0.0);
        }
        // ...then hit it with sustained bursts far beyond any bin's
        // per-tick mean. The likelihood floor keeps the posterior finite
        // (no collapse) and lets it flip to high rates within a few ticks
        // instead of being trapped by the astronomically confident prior.
        for _ in 0..6 {
            m.evolve();
            m.observe(8.0); // 400 pps-equivalent, above the 250 pps grid top
            assert_is_distribution(m.distribution());
        }
        assert!(
            m.percentile_rate_pps(50.0) > 100.0,
            "median {} pps should flip high",
            m.percentile_rate_pps(50.0)
        );
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut m = RateModel::new(small());
        for _ in 0..20 {
            m.evolve();
            m.observe(1.0);
        }
        let p5 = m.percentile_rate_pps(5.0);
        let p50 = m.percentile_rate_pps(50.0);
        let p95 = m.percentile_rate_pps(95.0);
        assert!(p5 <= p50 && p50 <= p95, "{p5} {p50} {p95}");
    }

    #[test]
    fn csr_rows_are_stochastic_and_sorted() {
        let k = TransitionKernel::new(&small());
        let s = k.scatter();
        assert_eq!(s.num_bins(), small().num_bins);
        assert!(s.max_reach() >= k.half_width());
        for j in 0..s.num_bins() {
            let (dests, weights) = s.row(j);
            assert!(!dests.is_empty());
            // Rows are probability distributions with ascending,
            // deduplicated destinations.
            let sum: f64 = weights.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {j} sums to {sum}");
            assert!(dests.windows(2).all(|w| w[0] < w[1]), "row {j} not sorted");
        }
    }

    #[test]
    fn evolve_into_matches_manual_row_application() {
        let cfg = small();
        let k = TransitionKernel::new(&cfg);
        let n = cfg.num_bins;
        // An arbitrary distribution touching the outage bin, the bulk,
        // and both boundaries.
        let mut src = vec![0.0; n];
        src[0] = 0.25;
        src[1] = 0.10;
        src[n / 2] = 0.40;
        src[n - 1] = 0.25;
        let mut dst = vec![0.0; n];
        k.evolve_into(&src, &mut dst);
        let mut manual = vec![0.0; n];
        for (j, &p) in src.iter().enumerate() {
            let (dests, weights) = k.scatter().row(j);
            for (&d, &w) in dests.iter().zip(weights) {
                manual[d as usize] += p * w;
            }
        }
        for (a, b) in dst.iter().zip(manual.iter()) {
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
    }

    #[test]
    fn evolve_into_bitwise_matches_reference() {
        // The two named geometries, then grids that end one short of, on
        // and one past a block boundary (all wide enough to keep a shared
        // band).
        let tail = |num_bins| SproutConfig {
            num_bins,
            ..small()
        };
        let cfgs = [
            small(),
            SproutConfig::paper(),
            tail(EVOLVE_BLOCK - 1),
            tail(EVOLVE_BLOCK),
            tail(EVOLVE_BLOCK + 1),
            tail(3 * EVOLVE_BLOCK - 1),
            tail(3 * EVOLVE_BLOCK + 1),
        ];
        for cfg in cfgs {
            let k = TransitionKernel::new(&cfg);
            let n = cfg.num_bins;
            // A handful of shapes: uniform, point masses at the edges,
            // and a sparse comb (zero sources the reference skips).
            let mut shapes: Vec<Vec<f64>> = vec![vec![1.0 / n as f64; n]];
            for idx in [0, 1, n / 2, n - 1] {
                let mut d = vec![0.0; n];
                d[idx] = 1.0;
                shapes.push(d);
            }
            let mut comb = vec![0.0; n];
            for i in (0..n).step_by(7) {
                comb[i] = 1.0 / n.div_ceil(7) as f64;
            }
            shapes.push(comb);
            for src in shapes {
                let mut fast = vec![0.0; n];
                let mut slow = vec![0.0; n];
                k.evolve_into(&src, &mut fast);
                k.evolve_into_reference(&src, &mut slow);
                for (a, b) in fast.iter().zip(slow.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{n} bins: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn evolve_plan_finds_the_shared_band() {
        // A silent fall-back to edge rows everywhere would still pass
        // every equivalence test; pin the regime instead.
        let paper = TransitionKernel::new(&SproutConfig::paper());
        let split = &paper.split;
        assert_eq!(paper.half_width(), 29);
        assert_eq!(split.band_rows, 30..227);
        assert_eq!(split.band_reach, 29);
        assert_eq!(split.band.len(), 59);
        // A centred band: block windows start on the block, 64-byte
        // aligned in the masked copy.
        assert_eq!(split.lead, 29);
        assert_eq!(split.band_terms(&[], 64).first, 64);
        assert_eq!(split.low.rows, 0..30);
        assert_eq!(split.high.rows, 227..256);
        let split_bytes = 8 * [&split.low.weights, &split.band, &split.high.weights]
            .map(Vec::len)
            .iter()
            .sum::<usize>();
        assert!(split_bytes < 32 << 10, "{split_bytes} bytes");

        let small = TransitionKernel::new(&small());
        assert_eq!(small.half_width(), 15);
        assert_eq!(small.split.band_rows, 16..49);

        // Every row of a grid this narrow is reflected: no band, one group.
        let narrow = TransitionKernel::new(&SproutConfig {
            num_bins: 12,
            sigma: 400.0,
            ..SproutConfig::test_small()
        });
        assert_eq!(narrow.half_width(), 10);
        assert!(narrow.split.band_rows.is_empty() && narrow.split.band.is_empty());
        assert!(narrow.split.low.rows.is_empty());
        assert_eq!(narrow.split.high.rows, 0..12);
    }

    #[test]
    fn all_zero_posterior_evolves_to_positive_zero() {
        // A posterior whose mass underflowed entirely reaches `evolve`
        // before `normalize` resets it: every lane multiplies zeros out
        // and must land on +0.0 like the reference, never -0.0 or NaN.
        for cfg in [small(), SproutConfig::paper()] {
            let k = TransitionKernel::new(&cfg);
            let src = vec![0.0; cfg.num_bins];
            let mut fast = vec![f64::NAN; cfg.num_bins];
            let mut slow = vec![f64::NAN; cfg.num_bins];
            k.evolve_into(&src, &mut fast);
            k.evolve_into_reference(&src, &mut slow);
            assert!(fast.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
            assert!(slow.iter().all(|v| v.to_bits() == 0.0f64.to_bits()));
        }
    }

    #[test]
    fn observe_exposed_bitwise_matches_poisson_reference() {
        use crate::stats::poisson_ln_pmf;
        let cfg = small();
        let mut m = RateModel::new(cfg.clone());
        // Mix of full-tick and censored exposures, repeats (cache hits)
        // and switches (cache refreshes), zero and surprise observations.
        let obs = [
            (2.0, cfg.tick_secs()),
            (0.0, cfg.tick_secs()),
            (3.5, 0.013),
            (8.0, cfg.tick_secs()),
            (0.04, 0.020_3),
        ];
        for &(packets, exposure) in obs.iter().cycle().take(40) {
            m.evolve();
            // Reference update (the pre-hoist scalar formulation) applied
            // to a copy of the current posterior.
            let prior: Vec<f64> = m.distribution().to_vec();
            let n = prior.len();
            let mut max_ll = f64::NEG_INFINITY;
            let lls: Vec<f64> = (0..n)
                .map(|i| {
                    let ll = poisson_ln_pmf(packets, cfg.bin_rate_pps(i) * exposure);
                    max_ll = max_ll.max(ll);
                    ll
                })
                .collect();
            assert!(max_ll.is_finite());
            let mut expect = prior;
            for (p, &ll) in expect.iter_mut().zip(lls.iter()) {
                *p *= (ll - max_ll).exp().max(cfg.likelihood_floor);
            }
            let total: f64 = expect.iter().sum();
            for p in &mut expect {
                *p /= total;
            }
            m.observe_exposed(packets, exposure);
            for (a, b) in m.distribution().iter().zip(expect.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn kernel_width_matches_sigma() {
        // Paper config: σ√τ = 200·√0.02 ≈ 28.3 pps; bins are 3.92 pps wide;
        // ±4σ ≈ ±29 bins.
        let k = TransitionKernel::new(&SproutConfig::paper());
        assert!(
            k.half_width() >= 28 && k.half_width() <= 30,
            "{}",
            k.half_width()
        );
    }

    #[test]
    fn uniform_prior_at_startup() {
        let m = RateModel::new(small());
        let n = m.distribution().len() as f64;
        for &p in m.distribution() {
            assert!((p - 1.0 / n).abs() < 1e-12);
        }
    }
}
