//! Runtime-dispatched lane-wise kernels for the evolve/forecast hot loops
//! and the forecast-table build.
//!
//! The workspace builds for baseline x86-64 (SSE2, two f64 lanes), but the
//! per-tick evolve, the forecast's mixture sums and the table build's
//! volume step and gather spend nearly all their time in lane-wise loops
//! ([`blend_into`] is the volume step's). Compiling
//! those loops a second time inside `#[target_feature(enable = ...)]`
//! wrappers — and dispatching on runtime CPU feature detection, once, in
//! `features()` — lets LLVM autovectorize them 4 (AVX2) or 8 (AVX-512)
//! lanes wide without changing how the workspace is built.
//!
//! **Bit-exactness.** Every kernel here is lane-wise: lane `l` accumulates
//! `acc[l] += p * w[l]` with one IEEE multiply and one IEEE add per term,
//! exactly like the scalar loop ([`mixture_lanes`] also widens an f32,
//! which is exact; [`strip_sum_into`] also skips sources whose every term
//! is ±0.0, which changes no bit of a sum started at +0.0, and starts every
//! lane at the prefix sum of the weights of a leading run of sources that
//! are exactly 1.0, the very sums the walk over them performs). Rust never
//! enables floating-point contraction (no FMA fusing) or reassociation,
//! and wider registers do not change per-lane rounding, so every dispatch path
//! produces bit-identical results. This invariant is what lets the sweep
//! keep byte-identical canonical output across machines — and it is
//! enforced by unit tests here and the `kernel_equivalence` suite.
//!
//! **The evolve kernel** ([`evolve_block_into`]) computes one block of
//! [`EVOLVE_BLOCK`] destinations of `T(src)`: the low edge rows, the
//! shared Brownian band, the high edge rows, each in ascending source
//! order. The band is walked as a convolution — per band weight, one
//! broadcast multiplied against a window of a copy of `src` in which every
//! row outside the band reads +0.0, shifted one position per weight — so
//! no lane carries padding. The 16-lane tile walk it replaced read each
//! source's band weights at a tile offset and dragged 15 stored zeros
//! through every tile, ≈ 25 % extra work at paper scale (256 bins, a
//! 59-weight band). Per paper-scale evolve on Sapphire Rapids (AVX-512),
//! medians of 41 batches of 2 000 on a converged posterior, six
//! alternating runs of each build: 1.07–1.17 µs against 1.56–1.73 µs for
//! the tile walk (≈ 0.68×). Two ways to lose that, both seen: slicing the
//! accumulator by a run-time length, which keeps it on the stack and
//! stores it on every source (1.2–4.9 µs per evolve from run to run,
//! depending on where the stack and the window fall), and folding the
//! observation's likelihood multiply and normalize's sum into the output
//! pass, which measured 3–10 % slower per tick than evolve and observe
//! apart (1.70–1.76 against 1.54–1.71 µs).

/// Destinations per block of the evolve kernel
/// ([`TransitionKernel::evolve_into`]): eight 512-bit accumulators, and
/// one block per 64 bins of the grid (four at paper scale).
///
/// [`TransitionKernel::evolve_into`]: crate::model::TransitionKernel::evolve_into
pub(crate) const EVOLVE_BLOCK: usize = 64;

/// One group of terms of an evolve block: `coef[i]` times the
/// [`EVOLVE_BLOCK`] values at `lanes[first + i·stride ..]`. A group of
/// edge rows stored densely is its sources against their weight rows
/// (`stride` = the row pitch); the shared band is its weights against
/// windows of the masked source, each one position further (`stride` 1).
/// The default has no terms.
#[derive(Default)]
pub(crate) struct BlockTerms<'a> {
    pub coef: &'a [f64],
    pub lanes: &'a [f64],
    pub first: usize,
    pub stride: usize,
}

/// `dst[l] = Σ coef[i] · lanes[first + i·stride + l]` over the groups in
/// order and each group's terms in order, every lane accumulating from
/// +0.0 in registers — per lane, one IEEE multiply and one IEEE add per
/// term. `dst` is one block, at most [`EVOLVE_BLOCK`] destinations.
#[inline]
pub(crate) fn evolve_block_into(dst: &mut [f64], groups: &[BlockTerms<'_>; 3]) {
    #[cfg(target_arch = "x86_64")]
    {
        match features() {
            Level::Avx512 => {
                // SAFETY: AVX-512F support verified at runtime.
                return unsafe { evolve_block_into_avx512(dst, groups) };
            }
            Level::Avx2 => {
                // SAFETY: AVX2 support verified at runtime.
                return unsafe { evolve_block_into_avx2(dst, groups) };
            }
            Level::Baseline => {}
        }
    }
    evolve_block_lanes::<16>(dst, groups);
}

/// Counts per strip of the forecast-table gather ([`strip_sum_into`]).
/// Sixty-four lanes are eight independent 512-bit accumulator chains, or
/// sixteen 256-bit ones, and one [`StripRow`] is eight whole cache lines.
/// Measured per paper-scale gather (≤ 93 M multiply-adds over 8 ticks)
/// on Sapphire Rapids, best of 15 builds, with rows as plain `[f64; 64]`
/// (off their cache lines): 512-bit at 16 / 32 / 64 lanes 9.9 / 9.0 /
/// 7.3 ms (fewer lanes are fewer add chains, and the volume step pays
/// per strip too: 2.4 / 1.5 / 1.3 ms), 256-bit at 64 lanes 9.9–10.5 ms,
/// the SSE2 baseline 20.3 ms. At 64 lanes and 512 bits on the same CPU,
/// median of six alternating rounds of that best of 15: 7.5 ms off the
/// lines, 5.0 ms on whole lines, 4.2 ms with the leading certain sources
/// folded too.
pub(crate) const STRIP_LANES: usize = 64;

/// One source's [`STRIP_LANES`] lanes of a strip, on eight cache lines
/// of its own: unaligned, every 512-bit load of the gather straddles two
/// lines (the global allocator places a plain `[f64; 64]` buffer at 16,
/// 32 or 48 mod 64, depending on what was allocated before it).
#[derive(Clone, Copy)]
#[repr(align(64))]
pub(crate) struct StripRow(pub [f64; STRIP_LANES]);

impl StripRow {
    /// One strip of `sources` rows, all +0.0: the gather's strip buffer.
    pub fn buffer(sources: usize) -> Vec<StripRow> {
        vec![StripRow([0.0; STRIP_LANES]); sources]
    }
}

/// `dst[l] = src[l + 1] · keep + src[l] · frac`, per lane two IEEE
/// multiplies and one IEEE add, in that order: the table build's volume
/// step over one strip. `src` holds at least `dst.len() + 1` values.
#[inline]
pub(crate) fn blend_into(dst: &mut [f64], src: &[f64], keep: f64, frac: f64) {
    #[cfg(target_arch = "x86_64")]
    {
        match features() {
            Level::Avx512 => {
                // SAFETY: AVX-512F support verified at runtime.
                return unsafe { blend_into_avx512(dst, src, keep, frac) };
            }
            Level::Avx2 => {
                // SAFETY: AVX2 support verified at runtime.
                return unsafe { blend_into_avx2(dst, src, keep, frac) };
            }
            Level::Baseline => {}
        }
    }
    blend_into_scalar(dst, src, keep, frac);
}

/// The serial prefix sums of `weights` from +0.0: `sums[k] = ((+0.0 +
/// w₀) + w₁) + … + w_{k−1}`, `weights.len() + 1` of them. `sums[k]` is
/// every lane of a walk whose first `k` sources are 1.0 at that lane.
pub(crate) fn prefix_sums(weights: &[f64]) -> Vec<f64> {
    let mut acc = 0.0f64;
    std::iter::once(acc)
        .chain(weights.iter().map(|&w| {
            acc += w;
            acc
        }))
        .collect()
}

/// `dst[l] = Σₖ weights[k] · rows[dests[k]][l]`, every lane accumulating
/// in ascending `k` from +0.0 in registers — per lane, one IEEE multiply
/// and one IEEE add per source, the operand sequence of the scalar
/// `out[c] += w · m[j][c]` walk over the same sources. Row `j` is +0.0 at
/// every lane below `lead[j]`, and exactly 1.0 at every lane of `dst` if
/// `ones[j]`. Two kinds of source are not walked, each exactly:
///
/// - the leading run of sources that are 1.0 at every lane: `w · 1.0 =
///   w`, so the walk over them adds the weights themselves, in order, and
///   every lane starts at their prefix sum, `sums[run]` (`sums` is
///   [`prefix_sums`] of `weights`). A 1.0 source after any other source
///   is walked;
/// - a source that is +0.0 at every lane of `dst` (`lead ≥ dst.len()`):
///   with a finite weight its terms are ±0.0, and adding ±0.0 to an
///   accumulator that is not −0.0 changes no bit — a sum that starts at
///   +0.0 never reads −0.0 under round-to-nearest.
///
/// `dst` is one strip, at most [`STRIP_LANES`] counts; the surplus lanes
/// of a shorter one are computed and dropped.
#[inline]
pub(crate) fn strip_sum_into(
    dst: &mut [f64],
    rows: &[StripRow],
    lead: &[usize],
    ones: &[bool],
    dests: &[u32],
    weights: &[f64],
    sums: &[f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        match features() {
            Level::Avx512 => {
                // SAFETY: AVX-512F support verified at runtime.
                return unsafe {
                    strip_sum_into_avx512(dst, rows, lead, ones, dests, weights, sums)
                };
            }
            Level::Avx2 => {
                // SAFETY: AVX2 support verified at runtime.
                return unsafe { strip_sum_into_avx2(dst, rows, lead, ones, dests, weights, sums) };
            }
            Level::Baseline => {}
        }
    }
    strip_sum_into_scalar(dst, rows, lead, ones, dests, weights, sums);
}

/// Consecutive counts per window of the in-memory forecast CDF (see
/// `ForecastTables`). Eight lanes are two independent 256-bit accumulator
/// chains (four at SSE2 width), and [`mixture_lanes`] then yields eight
/// counts for about 1.3× what the serial one-count sum costs for one.
/// Measured per forecast on a moving posterior, relative to the
/// one-count bisection: 4 lanes 0.28, 8 lanes 0.31, 16 lanes 0.47; when
/// every prediction is far off (many blocks walked): 4 lanes 0.80,
/// 8 lanes 0.70 — eight is within a tenth of the best in the common case
/// and has the better tail.
pub(crate) const CDF_LANES: usize = 8;

/// `out[l] = init + Σₖ w[k] · tile[k·CDF_LANES + l]`, every lane
/// accumulating its terms in ascending `k` from `init` — per lane, the
/// exact operand sequence of the scalar mixture sum over the same bins.
/// `tile` holds one [`CDF_LANES`]-wide row per weight.
#[inline]
pub(crate) fn mixture_lanes(init: f64, tile: &[f32], w: &[f64]) -> [f64; CDF_LANES] {
    debug_assert_eq!(tile.len(), w.len() * CDF_LANES);
    #[cfg(target_arch = "x86_64")]
    {
        // 256-bit even where AVX-512 is available: the loop is bound by
        // the add latency of its two chains, and 512-bit adds are the
        // slower ones (measured 25 % slower per forecast on Sapphire
        // Rapids).
        if features() != Level::Baseline {
            // SAFETY: AVX2 support verified at runtime (`features` reports
            // the AVX-512 level only on CPUs that also have AVX2).
            return unsafe { mixture_lanes_avx2(init, tile, w) };
        }
    }
    mixture_lanes_scalar(init, tile, w)
}

#[inline(always)]
fn mixture_lanes_scalar(init: f64, tile: &[f32], w: &[f64]) -> [f64; CDF_LANES] {
    let mut acc = [init; CDF_LANES];
    for (row, &p) in tile.chunks_exact(CDF_LANES).zip(w.iter()) {
        for (a, &f) in acc.iter_mut().zip(row.iter()) {
            *a += p * f as f64;
        }
    }
    acc
}

/// [`evolve_block_into`] `L` lanes at a time: the block's lanes are
/// independent sums, so splitting them changes no bit, and `L` is eight
/// accumulators of the width at hand (64 lanes at 512 bits, 32 at 256,
/// 16 at 128). At 64 lanes of 256 bits all sixteen `ymm` registers would
/// be accumulators and the loop would spill.
#[inline(always)]
fn evolve_block_lanes<const L: usize>(dst: &mut [f64], groups: &[BlockTerms<'_>; 3]) {
    for (h, out) in dst.chunks_mut(L).enumerate() {
        // A fixed-size accumulator indexed only by constants (every loop
        // over it has the constant bound `L`) is what LLVM keeps in
        // vector registers across all three groups. Slicing it by a
        // run-time length — a tail `copy_from_slice` — sends it through
        // the stack on every term instead (module docs).
        let mut acc = [0.0f64; L];
        for g in groups {
            for (i, &c) in g.coef.iter().enumerate() {
                let at = g.first + i * g.stride + h * L;
                let lanes: &[f64; L] = g.lanes[at..at + L].try_into().expect("L lanes");
                for (a, &x) in acc.iter_mut().zip(lanes) {
                    *a += c * x;
                }
            }
        }
        #[allow(clippy::needless_range_loop)]
        for l in 0..L {
            if l < out.len() {
                out[l] = acc[l];
            }
        }
    }
}

#[inline(always)]
fn strip_sum_into_scalar(
    dst: &mut [f64],
    rows: &[StripRow],
    lead: &[usize],
    ones: &[bool],
    dests: &[u32],
    weights: &[f64],
    sums: &[f64],
) {
    let run = dests.iter().take_while(|&&j| ones[j as usize]).count();
    // As in `evolve_block_lanes`: a fixed-size accumulator under a
    // constant-bound loop stays in registers — here only while the rows
    // arrive as a slice argument, which LLVM knows cannot alias it (rows
    // read through a struct reference sent it through the stack on every
    // source).
    let mut acc = [sums[run]; STRIP_LANES];
    for (&j, &w) in dests[run..].iter().zip(&weights[run..]) {
        let j = j as usize;
        if lead[j] >= dst.len() {
            continue;
        }
        let src = &rows[j].0;
        #[allow(clippy::needless_range_loop)]
        for l in 0..STRIP_LANES {
            acc[l] += w * src[l];
        }
    }
    dst.copy_from_slice(&acc[..dst.len()]);
}

#[inline(always)]
fn blend_into_scalar(dst: &mut [f64], src: &[f64], keep: f64, frac: f64) {
    let (lo, hi) = (&src[..dst.len()], &src[1..=dst.len()]);
    for ((d, &l), &h) in dst.iter_mut().zip(lo).zip(hi) {
        *d = h * keep + l * frac;
    }
}

/// Widest vector extension available on this CPU.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, PartialEq, Eq)]
enum Level {
    Baseline,
    Avx2,
    Avx512,
}

/// Detect (once) the widest usable extension. `is_x86_feature_detected!`
/// caches internally, but routing through one atomic keeps the hot-loop
/// dispatch to a single load.
#[cfg(target_arch = "x86_64")]
#[inline]
fn features() -> Level {
    use std::sync::atomic::{AtomicU8, Ordering};
    static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Baseline,
        1 => Level::Avx2,
        2 => Level::Avx512,
        _ => {
            // Every level includes the ones below it, so a kernel may use
            // a narrower wrapper than the level reported.
            let level = if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                Level::Avx512
            } else if std::arch::is_x86_feature_detected!("avx2") {
                Level::Avx2
            } else {
                Level::Baseline
            };
            LEVEL.store(level as u8, Ordering::Relaxed);
            level
        }
    }
}

// The wrappers contain only safe element-wise loops; `#[target_feature]`
// makes them `unsafe` to *call* (the caller must have verified CPU
// support) while letting LLVM autovectorize the body at the wider width.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn evolve_block_into_avx2(dst: &mut [f64], groups: &[BlockTerms<'_>; 3]) {
    evolve_block_lanes::<32>(dst, groups);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn evolve_block_into_avx512(dst: &mut [f64], groups: &[BlockTerms<'_>; 3]) {
    evolve_block_lanes::<64>(dst, groups);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn strip_sum_into_avx2(
    dst: &mut [f64],
    rows: &[StripRow],
    lead: &[usize],
    ones: &[bool],
    dests: &[u32],
    weights: &[f64],
    sums: &[f64],
) {
    strip_sum_into_scalar(dst, rows, lead, ones, dests, weights, sums);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn strip_sum_into_avx512(
    dst: &mut [f64],
    rows: &[StripRow],
    lead: &[usize],
    ones: &[bool],
    dests: &[u32],
    weights: &[f64],
    sums: &[f64],
) {
    strip_sum_into_scalar(dst, rows, lead, ones, dests, weights, sums);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn blend_into_avx2(dst: &mut [f64], src: &[f64], keep: f64, frac: f64) {
    blend_into_scalar(dst, src, keep, frac);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn blend_into_avx512(dst: &mut [f64], src: &[f64], keep: f64, frac: f64) {
    blend_into_scalar(dst, src, keep, frac);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mixture_lanes_avx2(init: f64, tile: &[f32], w: &[f64]) -> [f64; CDF_LANES] {
    mixture_lanes_scalar(init, tile, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_vec(n: usize, salt: u64) -> Vec<f64> {
        // Deterministic awkward values: denormal-adjacent, huge, negative,
        // zero — anything where a contracted or reordered op would differ.
        (0..n)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt) as f64;
                (x / u64::MAX as f64 - 0.5) * 1e3 + if i % 7 == 0 { 1e-300 } else { 0.0 }
            })
            .collect()
    }

    /// `evolve_block_into`'s definition, one lane at a time.
    fn evolve_block_by_lane(len: usize, groups: &[BlockTerms<'_>; 3]) -> Vec<f64> {
        (0..len)
            .map(|l| {
                let mut acc = 0.0f64;
                for g in groups {
                    for (i, &c) in g.coef.iter().enumerate() {
                        acc += c * g.lanes[g.first + i * g.stride + l];
                    }
                }
                acc
            })
            .collect()
    }

    #[test]
    fn every_compiled_evolve_block_width_is_bitwise_the_per_lane_sum() {
        type Kernel = unsafe fn(&mut [f64], &[BlockTerms<'_>; 3]);
        // Every width this build compiled and this CPU can run, called
        // directly: the check must not depend on which one `features()`
        // picks here.
        let mut kernels: Vec<(&str, Kernel)> = vec![
            ("scalar", |d, g| evolve_block_lanes::<16>(d, g)),
            ("dispatched", |d, g| evolve_block_into(d, g)),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(("avx2", evolve_block_into_avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                kernels.push(("avx512", evolve_block_into_avx512));
            }
        }
        const B: usize = EVOLVE_BLOCK;
        let ps = probe_vec(12, 11);
        // Two groups of edge rows at a column offset inside their rows,
        // around a 21-weight band over its shifted windows.
        let rows = probe_vec(9 * 3 * B, 12);
        let band = probe_vec(21, 13);
        let window = probe_vec(band.len() - 1 + B, 14);
        let groups = [
            BlockTerms {
                coef: &ps[..9],
                lanes: &rows,
                first: B,
                stride: 3 * B,
            },
            BlockTerms {
                coef: &band,
                lanes: &window,
                first: 0,
                stride: 1,
            },
            BlockTerms {
                coef: &ps[9..],
                lanes: &rows,
                first: 2 * B,
                stride: 3 * B,
            },
        ];
        let empty = Default::default();
        for (name, kernel) in kernels {
            // A whole block and the tails a grid can end on, across every
            // sub-block width.
            for len in [1, 15, 17, 33, B - 1, B] {
                // Stale contents must be overwritten.
                let mut got = vec![9.0; len];
                // SAFETY: each wrapper was pushed only after its feature
                // was detected.
                unsafe { kernel(&mut got, &groups) };
                let want = evolve_block_by_lane(len, &groups);
                for (x, y) in got.iter().zip(want.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name} len={len}");
                }
                // SAFETY: as above.
                unsafe { kernel(&mut got, &empty) };
                assert!(got.iter().all(|v| v.to_bits() == 0), "{name} len={len}");
            }
        }
    }

    /// `strip_sum_into`'s definition, one lane at a time, no source
    /// skipped or folded.
    fn strip_sum_by_lane(len: usize, rows: &[StripRow], dests: &[u32], w: &[f64]) -> Vec<f64> {
        (0..len)
            .map(|l| {
                let mut acc = 0.0f64;
                for (&j, &p) in dests.iter().zip(w) {
                    acc += p * rows[j as usize].0[l];
                }
                acc
            })
            .collect()
    }

    type StripKernel =
        unsafe fn(&mut [f64], &[StripRow], &[usize], &[bool], &[u32], &[f64], &[f64]);

    /// Every strip width this build compiled and this CPU can run, called
    /// directly: the check must not depend on which one `features()`
    /// picks here.
    fn strip_kernels() -> Vec<(&'static str, StripKernel)> {
        let mut kernels: Vec<(&str, StripKernel)> = vec![
            ("scalar", |d, m, z, o, j, w, s| {
                strip_sum_into_scalar(d, m, z, o, j, w, s)
            }),
            ("dispatched", |d, m, z, o, j, w, s| {
                strip_sum_into(d, m, z, o, j, w, s)
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(("avx2", strip_sum_into_avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                kernels.push(("avx512", strip_sum_into_avx512));
            }
        }
        kernels
    }

    /// Runs every kernel on `rows` at each strip length in `lens` and
    /// checks it against the per-lane walk, bit for bit, and with no
    /// source against +0.0. Each strip is classified over its first `len`
    /// lanes, as the volume step classifies one.
    fn check_strip_kernels(
        what: &str,
        rows: &[StripRow],
        dests: &[u32],
        weights: &[f64],
        lens: &[usize],
    ) {
        let sums = prefix_sums(weights);
        for (name, kernel) in strip_kernels() {
            for &len in lens {
                let lanes = || rows.iter().map(|r| &r.0[..len]);
                let lead: Vec<usize> = lanes()
                    .map(|r| r.iter().position(|v| v.to_bits() != 0).unwrap_or(len))
                    .collect();
                let ones: Vec<bool> = lanes()
                    .map(|r| r.iter().all(|v| v.to_bits() == 1.0f64.to_bits()))
                    .collect();
                // Stale contents must be overwritten.
                let mut got = vec![9.0; len];
                // SAFETY: each wrapper was pushed only after its feature
                // was detected.
                unsafe { kernel(&mut got, rows, &lead, &ones, dests, weights, &sums) };
                let want = strip_sum_by_lane(len, rows, dests, weights);
                for (l, (x, y)) in got.iter().zip(want.iter()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{what}: {name} len={len} lane={l}"
                    );
                }
                // SAFETY: as above.
                unsafe { kernel(&mut got, rows, &lead, &ones, &[], &[], &[0.0]) };
                assert!(
                    got.iter().all(|v| v.to_bits() == 0),
                    "{what}: {name} len={len}"
                );
            }
        }
    }

    #[test]
    fn every_compiled_strip_sum_width_is_bitwise_the_per_lane_sum() {
        const S: usize = STRIP_LANES;
        // Nine rows of awkward values (and weights): row 3 is +0.0 across
        // the strip, so every strip skips it; row 5 is +0.0 across its
        // first 40 lanes, so a 40-count strip skips it and longer ones
        // add it.
        let mut rows: Vec<StripRow> = (0..9)
            .map(|r| StripRow(probe_vec(S, 20 + r).try_into().expect("one strip")))
            .collect();
        rows[3] = StripRow([0.0; S]);
        rows[5].0[..40].fill(0.0);
        let dests: Vec<u32> = (0..9).collect();
        // A whole strip and the tails a count axis can end on.
        let lens = [1, 40, S - 1, S];
        check_strip_kernels("probe rows", &rows, &dests, &probe_vec(9, 31), &lens);
    }

    #[test]
    fn a_leading_run_of_certain_sources_folds_to_the_per_lane_sum() {
        const S: usize = STRIP_LANES;
        let ones = StripRow([1.0; S]);
        let zeros = StripRow([0.0; S]);
        // Row 6 is 1.0 only across its first 40 lanes: certain in a
        // 40-count strip, walked in longer ones. Row 7 differs from 1.0
        // only in the last lane of a whole strip.
        let mut short_ones = StripRow(probe_vec(S, 40).try_into().expect("one strip"));
        short_ones.0[..40].fill(1.0);
        let mut last_lane = ones;
        last_lane.0[S - 1] = 1.0 - f64::EPSILON;
        let probe = StripRow(probe_vec(S, 41).try_into().expect("one strip"));
        let rows = [ones, ones, zeros, ones, probe, ones, short_ones, last_lane];
        let tiny = [
            5e-324, 1e-310, 3e-300, 0.25, 1e-300, 0.125, 7e-308, 2.5e-308,
        ];
        let cases: [(&str, &[u32]); 6] = [
            // A run of 1.0 sources broken by an all-+0.0 one: the run
            // ends at the +0.0 source, the 1.0 after it is walked.
            ("zero in the run", &[0, 1, 2, 3, 4]),
            // A 1.0 source after a walked one is never folded.
            ("one after a walked source", &[4, 0, 5, 1]),
            ("whole row certain", &[0, 1, 3, 5]),
            ("certain only in a short strip", &[0, 6, 1, 4]),
            ("certain but for the last lane", &[0, 7, 1, 3]),
            ("no certain source", &[4, 6, 7]),
        ];
        for (what, dests) in cases {
            for weights in [&tiny[..dests.len()], &probe_vec(dests.len(), 42)[..]] {
                check_strip_kernels(what, &rows, dests, weights, &[1, 40, S - 1, S]);
            }
        }
    }

    #[test]
    fn every_compiled_blend_width_is_bitwise_the_per_lane_blend() {
        type Kernel = unsafe fn(&mut [f64], &[f64], f64, f64);
        let mut kernels: Vec<(&str, Kernel)> = vec![
            ("scalar", |d, s, k, f| blend_into_scalar(d, s, k, f)),
            ("dispatched", |d, s, k, f| blend_into(d, s, k, f)),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(("avx2", blend_into_avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                kernels.push(("avx512", blend_into_avx512));
            }
        }
        let src = probe_vec(STRIP_LANES + 1, 50);
        for (name, kernel) in kernels {
            for frac in [0.0, 0.3, 0.999_999_999, probe_vec(1, 51)[0]] {
                let keep = 1.0 - frac;
                for len in [0, 1, 7, 40, STRIP_LANES] {
                    // Stale contents must be overwritten.
                    let mut got = vec![9.0; len];
                    // SAFETY: each wrapper was pushed only after its
                    // feature was detected.
                    unsafe { kernel(&mut got, &src, keep, frac) };
                    for (l, x) in got.iter().enumerate() {
                        let want = src[l + 1] * keep + src[l] * frac;
                        assert_eq!(x.to_bits(), want.to_bits(), "{name} len={len} lane={l}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_gather_reads_whole_cache_lines() {
        assert_eq!(std::mem::align_of::<StripRow>(), 64);
        assert_eq!(std::mem::size_of::<StripRow>(), 8 * 64);
        // The paper geometry's 256 bins (128 KiB) among others, each after
        // a small allocation that leaves the allocator's next block off a
        // line.
        for sources in [1, 9, 48, 256] {
            let odd = vec![0u8; 24 + sources];
            let strip = StripRow::buffer(sources);
            assert_eq!(strip.as_ptr() as usize % 64, 0, "{sources} sources");
            drop(odd);
        }
    }

    #[test]
    fn mixture_lanes_is_bitwise_the_per_count_scalar_sum() {
        for bins in [0usize, 1, 3, 40, 181] {
            let w = probe_vec(bins, 5);
            let tile: Vec<f32> = probe_vec(bins * CDF_LANES, 6)
                .iter()
                .map(|&v| v as f32)
                .collect();
            for init in [0.0, -0.0, 0.375, probe_vec(1, 7)[0]] {
                let lanes = mixture_lanes(init, &tile, &w);
                for (l, lane) in lanes.iter().enumerate() {
                    let mut acc = init;
                    for (k, &p) in w.iter().enumerate() {
                        acc += p * tile[k * CDF_LANES + l] as f64;
                    }
                    assert_eq!(lane.to_bits(), acc.to_bits(), "bins={bins} lane={l}");
                }
            }
        }
    }
}
