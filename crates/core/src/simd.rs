//! Runtime-dispatched lane-wise kernels for the evolve/forecast hot loops
//! and the forecast-table build.
//!
//! The workspace builds for baseline x86-64 (SSE2, two f64 lanes), but the
//! per-tick evolve, the forecast's mixture sums and the table build's
//! gather spend nearly all their time in three lane-wise loops. Compiling
//! those loops a second time inside `#[target_feature(enable = ...)]`
//! wrappers — and dispatching on runtime CPU feature detection, once, in
//! `features()` — lets LLVM autovectorize them 4 (AVX2) or 8 (AVX-512)
//! lanes wide without changing how the workspace is built.
//!
//! **Bit-exactness.** Every kernel here is lane-wise: lane `l` accumulates
//! `acc[l] += p * w[l]` with one IEEE multiply and one IEEE add per term,
//! exactly like the scalar loop ([`mixture_lanes`] also widens an f32,
//! which is exact; [`strip_sum_into`] also skips sources whose every term
//! is ±0.0, which changes no bit of a sum started at +0.0). Rust never
//! enables floating-point contraction (no FMA fusing) or reassociation,
//! and wider registers do not change per-lane rounding, so every dispatch path
//! produces bit-identical results. This invariant is what lets the sweep
//! keep byte-identical canonical output across machines — and it is
//! enforced by unit tests here and the `kernel_equivalence` suite.

/// Destinations per register tile of the evolve walk
/// ([`TransitionKernel::evolve_into`]). Sixteen lanes are two 512-bit or
/// four 256-bit accumulators, enough independent add chains to cover the
/// add latency. Measured per evolve on the paper geometry (256 bins,
/// 59-weight band) on Sapphire Rapids, best of 40 interleaved rounds
/// because the host's clock wanders: 256-bit at 8 / 16 / 32 lanes 2.00 /
/// 1.64 / 1.60 µs, 512-bit 1.82 / 1.46 / 1.40 µs. Every tile also drags
/// `EVOLVE_TILE − 1` zero-padded band positions through its lanes, so 32
/// lanes buy nothing at 256 bits and 4 % at 512 for twice the padding in
/// the boundary blocks. At 16 lanes the 512-bit wrapper reads 3–11 %
/// faster than the 256-bit one, so — unlike [`mixture_lanes`] — each CPU
/// runs the widest wrapper it has. The pass-per-source walk this
/// replaced (59-wide `dst[i] += w·src[i]` passes over 182 KB of CSR
/// rows) took 1.9× as long in back-to-back runs (medians 4.9 vs 2.6 µs
/// in a slow phase of the same host).
///
/// [`TransitionKernel::evolve_into`]: crate::model::TransitionKernel::evolve_into
pub(crate) const EVOLVE_TILE: usize = 16;

/// A run of consecutive sources feeding one destination tile: source
/// `ps[i]` scatters into the tile's lanes with the [`EVOLVE_TILE`] weights
/// at `weights[first + i·stride ..]`. A dense block of rows has a positive
/// stride (its row pitch); a shared band has stride −1, each source
/// reading the band one position lower than the source before it.
pub(crate) struct TileTerms<'a> {
    pub ps: &'a [f64],
    pub weights: &'a [f64],
    pub first: usize,
    pub stride: isize,
}

impl TileTerms<'_> {
    /// No sources: contributes nothing to the tile.
    pub(crate) const EMPTY: TileTerms<'static> = TileTerms {
        ps: &[],
        weights: &[],
        first: 0,
        stride: 0,
    };
}

/// `dst[l] = Σ ps[i] · weights[first + i·stride + l]` over the groups in
/// order and each group's sources in order, every lane accumulating from
/// `0.0` in registers — per lane, one IEEE multiply and one IEEE add per
/// source, so the exact operand sequence of a scalar walk that visits the
/// same sources in the same order. `dst` is one tile: at most
/// [`EVOLVE_TILE`] destinations (fewer for a grid's tail; the surplus
/// lanes are computed and dropped).
#[inline]
pub(crate) fn tile_sum_into(dst: &mut [f64], groups: &[TileTerms<'_>; 3]) {
    #[cfg(target_arch = "x86_64")]
    {
        match features() {
            Level::Avx512 => {
                // SAFETY: AVX-512F support verified at runtime.
                return unsafe { tile_sum_into_avx512(dst, groups) };
            }
            Level::Avx2 => {
                // SAFETY: AVX2 support verified at runtime.
                return unsafe { tile_sum_into_avx2(dst, groups) };
            }
            Level::Baseline => {}
        }
    }
    tile_sum_into_scalar(dst, groups);
}

/// Counts per strip of the forecast-table gather ([`strip_sum_into`]).
/// Sixty-four lanes are eight independent 512-bit accumulator chains, or
/// sixteen 256-bit ones. Measured per paper-scale gather (≤ 93 M
/// multiply-adds over 8 ticks) on Sapphire Rapids, best of 15 builds:
/// 512-bit at 16 / 32 / 64 lanes 9.9 / 9.0 / 7.3 ms (fewer lanes are
/// fewer add chains, and the volume step pays per strip too: 2.4 / 1.5 /
/// 1.3 ms), 256-bit at 64 lanes 9.9–10.5 ms, the SSE2 baseline 20.3 ms.
pub(crate) const STRIP_LANES: usize = 64;

/// `dst[l] = Σₖ weights[k] · rows[dests[k]][l]`, every lane accumulating
/// in ascending `k` from +0.0 in registers — per lane, one IEEE multiply
/// and one IEEE add per source, the operand sequence of the scalar
/// `out[c] += w · m[j][c]` walk over the same sources. Row `j` is +0.0 at
/// every lane below `lead[j]`, and a source whose row is +0.0 at every
/// lane of `dst` (`lead ≥ dst.len()`) is skipped: with a finite weight
/// its terms are ±0.0, and adding ±0.0 to an accumulator that started at
/// +0.0 changes no bit. `dst` is one strip, at most [`STRIP_LANES`]
/// counts; the surplus lanes of a shorter one are computed and dropped.
#[inline]
pub(crate) fn strip_sum_into(
    dst: &mut [f64],
    rows: &[[f64; STRIP_LANES]],
    lead: &[usize],
    dests: &[u32],
    weights: &[f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        match features() {
            Level::Avx512 => {
                // SAFETY: AVX-512F support verified at runtime.
                return unsafe { strip_sum_into_avx512(dst, rows, lead, dests, weights) };
            }
            Level::Avx2 => {
                // SAFETY: AVX2 support verified at runtime.
                return unsafe { strip_sum_into_avx2(dst, rows, lead, dests, weights) };
            }
            Level::Baseline => {}
        }
    }
    strip_sum_into_scalar(dst, rows, lead, dests, weights);
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

#[inline(always)]
fn tile_sum_into_scalar(dst: &mut [f64], groups: &[TileTerms<'_>; 3]) {
    // A fixed-size accumulator indexed by a constant-bound loop is what
    // LLVM keeps in vector registers across the source loop; written as
    // a zip over the two slices the same kernel measures 4× slower (the
    // accumulators go through memory).
    let mut acc = [0.0f64; EVOLVE_TILE];
    for g in groups {
        let mut off = g.first as isize;
        for &p in g.ps {
            let w = &g.weights[off as usize..off as usize + EVOLVE_TILE];
            #[allow(clippy::needless_range_loop)]
            for l in 0..EVOLVE_TILE {
                acc[l] += p * w[l];
            }
            off += g.stride;
        }
    }
    dst.copy_from_slice(&acc[..dst.len()]);
}

#[inline(always)]
fn strip_sum_into_scalar(
    dst: &mut [f64],
    rows: &[[f64; STRIP_LANES]],
    lead: &[usize],
    dests: &[u32],
    weights: &[f64],
) {
    // As in `tile_sum_into_scalar`: a fixed-size accumulator under a
    // constant-bound loop stays in registers.
    let mut acc = [0.0f64; STRIP_LANES];
    for (&j, &w) in dests.iter().zip(weights) {
        let j = j as usize;
        if lead[j] >= dst.len() {
            continue;
        }
        let src = &rows[j];
        #[allow(clippy::needless_range_loop)]
        for l in 0..STRIP_LANES {
            acc[l] += w * src[l];
        }
    }
    dst.copy_from_slice(&acc[..dst.len()]);
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
unsafe fn tile_sum_into_avx2(dst: &mut [f64], groups: &[TileTerms<'_>; 3]) {
    tile_sum_into_scalar(dst, groups);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_sum_into_avx512(dst: &mut [f64], groups: &[TileTerms<'_>; 3]) {
    tile_sum_into_scalar(dst, groups);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn strip_sum_into_avx2(
    dst: &mut [f64],
    rows: &[[f64; STRIP_LANES]],
    lead: &[usize],
    dests: &[u32],
    weights: &[f64],
) {
    strip_sum_into_scalar(dst, rows, lead, dests, weights);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn strip_sum_into_avx512(
    dst: &mut [f64],
    rows: &[[f64; STRIP_LANES]],
    lead: &[usize],
    dests: &[u32],
    weights: &[f64],
) {
    strip_sum_into_scalar(dst, rows, lead, dests, weights);
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

    /// `tile_sum_into`'s definition, one lane at a time.
    fn tile_sum_by_lane(len: usize, groups: &[TileTerms<'_>; 3]) -> Vec<f64> {
        (0..len)
            .map(|l| {
                let mut acc = 0.0f64;
                for g in groups {
                    for (i, &p) in g.ps.iter().enumerate() {
                        let at = g.first as isize + i as isize * g.stride + l as isize;
                        acc += p * g.weights[at as usize];
                    }
                }
                acc
            })
            .collect()
    }

    #[test]
    fn every_compiled_tile_sum_width_is_bitwise_the_per_lane_sum() {
        type Kernel = unsafe fn(&mut [f64], &[TileTerms<'_>; 3]);
        // Every width this build compiled and this CPU can run, called
        // directly: the check must not depend on which one `features()`
        // picks here.
        let mut kernels: Vec<(&str, Kernel)> = vec![
            ("scalar", |d, g| tile_sum_into_scalar(d, g)),
            ("dispatched", |d, g| tile_sum_into(d, g)),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                kernels.push(("avx2", tile_sum_into_avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                kernels.push(("avx512", tile_sum_into_avx512));
            }
        }
        const T: usize = EVOLVE_TILE;
        let ps = probe_vec(40, 11);
        // A dense block at a column offset, a band walked downwards from
        // its top window to its bottom one, and a one-row block.
        let block = probe_vec(9 * 3 * T, 12);
        let band = probe_vec(21 + 2 * (T - 1), 13);
        let groups = [
            TileTerms {
                ps: &ps[..9],
                weights: &block,
                first: T,
                stride: 3 * T as isize,
            },
            TileTerms {
                ps: &ps[9..39],
                weights: &band,
                first: band.len() - T,
                stride: -1,
            },
            TileTerms {
                ps: &ps[39..],
                weights: &block,
                first: 2 * T,
                stride: 3 * T as isize,
            },
        ];
        let empty = [TileTerms::EMPTY; 3];
        for (name, kernel) in kernels {
            // A whole tile and the tails a grid can end on.
            for len in [1, T - 1, T] {
                // Stale contents must be overwritten.
                let mut got = vec![9.0; len];
                // SAFETY: each wrapper was pushed only after its feature
                // was detected.
                unsafe { kernel(&mut got, &groups) };
                let want = tile_sum_by_lane(len, &groups);
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
    /// skipped.
    fn strip_sum_by_lane(
        len: usize,
        rows: &[[f64; STRIP_LANES]],
        dests: &[u32],
        w: &[f64],
    ) -> Vec<f64> {
        (0..len)
            .map(|l| {
                let mut acc = 0.0f64;
                for (&j, &p) in dests.iter().zip(w) {
                    acc += p * rows[j as usize][l];
                }
                acc
            })
            .collect()
    }

    #[test]
    fn every_compiled_strip_sum_width_is_bitwise_the_per_lane_sum() {
        type Kernel = unsafe fn(&mut [f64], &[[f64; STRIP_LANES]], &[usize], &[u32], &[f64]);
        // As for the tile sum: every width this build compiled and this
        // CPU can run, called directly.
        let mut kernels: Vec<(&str, Kernel)> = vec![
            ("scalar", |d, r, z, j, w| {
                strip_sum_into_scalar(d, r, z, j, w)
            }),
            ("dispatched", |d, r, z, j, w| strip_sum_into(d, r, z, j, w)),
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
        const S: usize = STRIP_LANES;
        // Nine rows of awkward values (and weights): row 3 is +0.0 across
        // the strip, so every strip skips it; row 5 is +0.0 across its
        // first 40 lanes, so a 40-count strip skips it and longer ones
        // add it.
        let mut vals: Vec<[f64; S]> = (0..9)
            .map(|r| probe_vec(S, 20 + r).try_into().expect("one strip"))
            .collect();
        vals[3] = [0.0; S];
        vals[5][..40].fill(0.0);
        let lead: Vec<usize> = vals
            .iter()
            .map(|row| row.iter().position(|v| v.to_bits() != 0).unwrap_or(S))
            .collect();
        let dests: Vec<u32> = (0..9).collect();
        let weights = probe_vec(9, 31);
        for (name, kernel) in kernels {
            // A whole strip and the tails a count axis can end on.
            for len in [1, 40, S - 1, S] {
                // Stale contents must be overwritten.
                let mut got = vec![9.0; len];
                // SAFETY: each wrapper was pushed only after its feature
                // was detected.
                unsafe { kernel(&mut got, &vals, &lead, &dests, &weights) };
                let want = strip_sum_by_lane(len, &vals, &dests, &weights);
                for (x, y) in got.iter().zip(want.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{name} len={len}");
                }
                // SAFETY: as above.
                unsafe { kernel(&mut got, &vals, &lead, &[], &[]) };
                assert!(got.iter().all(|v| v.to_bits() == 0), "{name} len={len}");
            }
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
