//! Runtime-dispatched element-wise kernels for the evolve/DP/forecast hot
//! loops.
//!
//! The workspace builds for baseline x86-64 (SSE2, two f64 lanes), but the
//! forecast-table DP, the per-tick evolve and the forecast's mixture sums
//! spend nearly all their time in a few element-wise loops. Compiling
//! those loops a second time inside
//! `#[target_feature(enable = ...)]` wrappers — and dispatching on runtime
//! CPU feature detection — lets LLVM autovectorize them 4 (AVX2) or
//! 8 (AVX-512) lanes wide without changing how the workspace is built.
//!
//! **Bit-exactness.** Every kernel here is element-wise: lane `i` computes
//! `dst[i] += w * src[i]` (or `dst[i] += src[i]`) with one IEEE multiply
//! and one IEEE add, exactly like the scalar loop ([`mixture_lanes`] also
//! widens an f32, which is exact). Rust never enables
//! floating-point contraction (no FMA fusing) or reassociation, and wider
//! registers do not change per-lane rounding, so every dispatch path
//! produces bit-identical results. This invariant is what lets the sweep
//! keep byte-identical canonical output across machines — and it is
//! enforced by unit tests here and the `kernel_equivalence` suite.

/// `dst[i] += w * src[i]` over the common prefix of the two slices.
#[inline]
pub(crate) fn saxpy(dst: &mut [f64], w: f64, src: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        match features() {
            Level::Avx512 => {
                // SAFETY: AVX-512F support verified at runtime.
                return unsafe { saxpy_avx512(dst, w, src) };
            }
            Level::Avx2 => {
                // SAFETY: AVX2 support verified at runtime.
                return unsafe { saxpy_avx2(dst, w, src) };
            }
            Level::Baseline => {}
        }
    }
    saxpy_scalar(dst, w, src);
}

/// `dst[i] += src[i]` over the common prefix of the two slices.
#[inline]
pub(crate) fn add_assign(dst: &mut [f64], src: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        match features() {
            Level::Avx512 => {
                // SAFETY: AVX-512F support verified at runtime.
                return unsafe { add_assign_avx512(dst, src) };
            }
            Level::Avx2 => {
                // SAFETY: AVX2 support verified at runtime.
                return unsafe { add_assign_avx2(dst, src) };
            }
            Level::Baseline => {}
        }
    }
    add_assign_scalar(dst, src);
}

/// `dst[k] = Σᵢ wᵢ · flat[offᵢ + k]`, terms accumulated in slice order
/// starting from `0.0` — per lane, the exact operand sequence of
/// `dst.fill(0.0)` followed by one [`saxpy`] per term. Keeping the
/// accumulator in registers instead of re-reading `dst` per term is what
/// makes destination-major loops cheaper than the saxpy-per-source form.
#[inline]
pub(crate) fn weighted_sum_into(dst: &mut [f64], flat: &[f64], terms: &[(u32, f64)]) {
    #[cfg(target_arch = "x86_64")]
    {
        match features() {
            Level::Avx512 => {
                // SAFETY: AVX-512F support verified at runtime.
                return unsafe { weighted_sum_into_avx512(dst, flat, terms) };
            }
            Level::Avx2 => {
                // SAFETY: AVX2 support verified at runtime.
                return unsafe { weighted_sum_into_avx2(dst, flat, terms) };
            }
            Level::Baseline => {}
        }
    }
    weighted_sum_into_scalar(dst, flat, terms);
}

/// Consecutive counts per tile of the in-memory forecast CDF (see
/// `ForecastTables`). Eight lanes are two independent 256-bit accumulator
/// chains (four at SSE2 width), and [`mixture_lanes`] then yields eight
/// counts for about 1.3× what the serial one-count sum costs for one.
/// Measured per forecast on a moving posterior, relative to the
/// one-count bisection: 4 lanes 0.28, 8 lanes 0.31, 16 lanes 0.47; when
/// every prediction is far off (many blocks walked): 4 lanes 0.80,
/// 8 lanes 0.70 — eight is within a tenth of the best in the common case
/// and has the better tail.
pub(crate) const CDF_LANES: usize = 8;

/// `out[l] = Σₖ w[k] · tile[k·CDF_LANES + l]`, every lane accumulating its
/// terms in ascending `k` from `0.0` — per lane, the exact operand
/// sequence of the scalar mixture sum over one table row. `tile` holds one
/// [`CDF_LANES`]-wide row per weight.
#[inline]
pub(crate) fn mixture_lanes(tile: &[f32], w: &[f64]) -> [f64; CDF_LANES] {
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
            return unsafe { mixture_lanes_avx2(tile, w) };
        }
    }
    mixture_lanes_scalar(tile, w)
}

#[inline(always)]
fn mixture_lanes_scalar(tile: &[f32], w: &[f64]) -> [f64; CDF_LANES] {
    let mut acc = [0.0f64; CDF_LANES];
    for (row, &p) in tile.chunks_exact(CDF_LANES).zip(w.iter()) {
        for (a, &f) in acc.iter_mut().zip(row.iter()) {
            *a += p * f as f64;
        }
    }
    acc
}

#[inline(always)]
fn weighted_sum_into_scalar(dst: &mut [f64], flat: &[f64], terms: &[(u32, f64)]) {
    // 32-lane tiles spread each term's adds over enough independent
    // accumulator registers that the loop is bound by multiply/add
    // throughput, not by the latency chain through one accumulator.
    const TILE: usize = 32;
    let len = dst.len();
    let mut k = 0;
    while k + TILE <= len {
        let mut acc = [0.0f64; TILE];
        for &(off, w) in terms {
            let s = &flat[off as usize + k..off as usize + k + TILE];
            for (a, &v) in acc.iter_mut().zip(s.iter()) {
                *a += w * v;
            }
        }
        dst[k..k + TILE].copy_from_slice(&acc);
        k += TILE;
    }
    if k < len {
        let rem = len - k;
        let mut acc = [0.0f64; TILE];
        for &(off, w) in terms {
            let s = &flat[off as usize + k..off as usize + k + rem];
            for (a, &v) in acc.iter_mut().zip(s.iter()) {
                *a += w * v;
            }
        }
        dst[k..].copy_from_slice(&acc[..rem]);
    }
}

#[inline(always)]
fn saxpy_scalar(dst: &mut [f64], w: f64, src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += w * s;
    }
}

#[inline(always)]
fn add_assign_scalar(dst: &mut [f64], src: &[f64]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += s;
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
unsafe fn saxpy_avx2(dst: &mut [f64], w: f64, src: &[f64]) {
    saxpy_scalar(dst, w, src);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn saxpy_avx512(dst: &mut [f64], w: f64, src: &[f64]) {
    saxpy_scalar(dst, w, src);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_assign_avx2(dst: &mut [f64], src: &[f64]) {
    add_assign_scalar(dst, src);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn weighted_sum_into_avx2(dst: &mut [f64], flat: &[f64], terms: &[(u32, f64)]) {
    weighted_sum_into_scalar(dst, flat, terms);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn weighted_sum_into_avx512(dst: &mut [f64], flat: &[f64], terms: &[(u32, f64)]) {
    weighted_sum_into_scalar(dst, flat, terms);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn add_assign_avx512(dst: &mut [f64], src: &[f64]) {
    add_assign_scalar(dst, src);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mixture_lanes_avx2(tile: &[f32], w: &[f64]) -> [f64; CDF_LANES] {
    mixture_lanes_scalar(tile, w)
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

    #[test]
    fn dispatched_saxpy_is_bitwise_scalar() {
        for n in [0, 1, 3, 8, 31, 257] {
            let src = probe_vec(n, 1);
            for w in [0.0, 1.0, -3.5, 1e-200, 7.25] {
                let mut a = probe_vec(n, 2);
                let mut b = a.clone();
                saxpy(&mut a, w, &src);
                saxpy_scalar(&mut b, w, &src);
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "n={n} w={w}");
                }
            }
        }
    }

    #[test]
    fn weighted_sum_into_is_bitwise_fill_plus_saxpy() {
        let flat = probe_vec(600, 7);
        let terms: Vec<(u32, f64)> = vec![(3, 1.5), (40, -2.25), (301, 1e-150), (0, 0.5)];
        for len in [0usize, 1, 5, 8, 17, 64, 127, 128] {
            let mut a = vec![9.0; len]; // stale contents must be overwritten
            weighted_sum_into(&mut a, &flat, &terms);
            let mut b = vec![0.0; len];
            for &(off, w) in &terms {
                saxpy_scalar(&mut b, w, &flat[off as usize..off as usize + len]);
            }
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "len={len}");
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
            let lanes = mixture_lanes(&tile, &w);
            for (l, lane) in lanes.iter().enumerate() {
                let mut acc = 0.0f64;
                for (k, &p) in w.iter().enumerate() {
                    acc += p * tile[k * CDF_LANES + l] as f64;
                }
                assert_eq!(lane.to_bits(), acc.to_bits(), "bins={bins} lane={l}");
            }
        }
    }

    #[test]
    fn dispatched_add_assign_is_bitwise_scalar() {
        for n in [0, 1, 5, 64, 130] {
            let src = probe_vec(n, 3);
            let mut a = probe_vec(n, 4);
            let mut b = a.clone();
            add_assign(&mut a, &src);
            add_assign_scalar(&mut b, &src);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "n={n}");
            }
        }
    }
}
