//! int8 quantized GEMM for frozen inference weights.
//!
//! Weights are quantized **per output channel** (per column of the
//! `(k, n)` matrix): column `j` gets scale `s_j = absmax_j / 127` and
//! symmetric round-to-nearest int8 codes. Activations are quantized
//! **per row, dynamically** at call time with the same absmax scheme, so
//! each output is `Σ_p qx[p]·qw[p][j]` accumulated in i32 and dequantized
//! as `acc · (s_row · s_j)` in f32.
//!
//! Determinism contract: integer accumulation is exact, and the single
//! f32 dequantization expression is written identically in the AVX2 and
//! portable paths — so both produce **bit-identical** outputs, and the
//! result is independent of how rows are split across calls or threads
//! (activation scales are per row). The workspace's bit-exact replica
//! and serve-parity guarantees therefore carry over to quantized runs.
//!
//! Packed layout: columns are grouped in [`NRQ`]-wide panels and the `k`
//! dimension in pairs, `packed[panel][pair][col][2]` — exactly the
//! operand order `vpmaddwd` consumes (each 32-bit lane multiplies an
//! adjacent `(k, k+1)` int8 weight pair by the matching activation pair
//! and adds horizontally).

use std::sync::OnceLock;

/// Quantized panel width (output columns per packed panel): two AVX2
/// i32 accumulator registers.
const NRQ: usize = 16;

/// Max reduction depth. i32 accumulation of `k` products bounded by
/// 127·127 needs `k ≤ i32::MAX / 127²` ≈ 133k; real shapes here are
/// ≤ a few thousand.
const MAX_K: usize = 1 << 17;

/// Whether `ZG_QUANT=1` is set (read once): opt-in for *lazy
/// auto-calibration* of eligible inference weights, used by CI to force
/// the quantized path through the whole test suite.
pub fn quant_env_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("ZG_QUANT").is_ok_and(|v| v == "1"))
}

/// A `(k, n)` weight matrix quantized to int8 with per-output-channel
/// scales, packed for the `vpmaddwd` microkernel.
#[derive(Clone)]
pub struct QuantizedMatrix {
    k: usize,
    n: usize,
    /// `[panel][pair][col][2]` int8 codes, zero-padded in both the
    /// column remainder and the odd-`k` tail.
    packed: Vec<i8>,
    /// Per-column dequantization scales (`absmax / 127`).
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Calibrate a row-major `(k, n)` f32 matrix: per-column absmax
    /// scales, symmetric round-to-nearest int8.
    pub fn quantize(w: &[f32], k: usize, n: usize) -> QuantizedMatrix {
        assert_eq!(w.len(), k * n, "weight length must be k*n");
        assert!(k <= MAX_K, "reduction depth {k} exceeds i32 headroom");
        let mut scales = vec![0.0f32; n];
        for (j, s) in scales.iter_mut().enumerate() {
            let mut amax = 0.0f32;
            for p in 0..k {
                amax = amax.max(w[p * n + j].abs());
            }
            *s = amax / 127.0;
        }
        let pairs = k.div_ceil(2);
        let npanels = n.div_ceil(NRQ);
        let mut packed = vec![0i8; npanels * pairs * NRQ * 2];
        for jp in 0..npanels {
            let col0 = jp * NRQ;
            let nr = NRQ.min(n - col0);
            let base = jp * pairs * NRQ * 2;
            for p in 0..pairs {
                for jj in 0..nr {
                    let j = col0 + jj;
                    let s = scales[j];
                    if s <= 0.0 {
                        continue;
                    }
                    let inv = 1.0 / s;
                    for h in 0..2 {
                        let kk = 2 * p + h;
                        if kk < k {
                            let q = (w[kk * n + j] * inv).round().clamp(-127.0, 127.0);
                            packed[base + p * NRQ * 2 + jj * 2 + h] = q as i8;
                        }
                    }
                }
            }
        }
        QuantizedMatrix {
            k,
            n,
            packed,
            scales,
        }
    }

    /// Reduction depth (input features).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output features.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Heap footprint of the quantized representation in bytes.
    pub fn bytes(&self) -> usize {
        self.packed.len() + self.scales.len() * 4
    }

    /// `out(m, n) += x(m, k) · Wq`, quantizing each activation row
    /// dynamically. AVX2 when available, portable otherwise —
    /// bit-identical either way (see module docs).
    pub fn matmul_into(&self, x: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        assert_eq!(x.len(), m * k, "activation length must be m*k");
        assert_eq!(out.len(), m * n, "output length must be m*n");
        crate::ops_matmul::count_quant_dispatch(m, n, k);
        let pairs = k.div_ceil(2);
        let mut qx = vec![0i8; 2 * pairs];
        let avx2 = crate::simd::simd_available();
        #[cfg(target_arch = "x86_64")]
        let mut qpair: Vec<i32> = if avx2 {
            Vec::with_capacity(pairs)
        } else {
            Vec::new()
        };
        for i in 0..m {
            let row = &x[i * k..(i + 1) * k];
            let sx = quantize_row(row, &mut qx);
            let orow = &mut out[i * n..(i + 1) * n];
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                qpair.clear();
                qpair.extend((0..pairs).map(|p| {
                    (qx[2 * p] as u16 as u32 | ((qx[2 * p + 1] as u16 as u32) << 16)) as i32
                }));
                for jp in 0..n.div_ceil(NRQ) {
                    let col0 = jp * NRQ;
                    let nr = NRQ.min(n - col0);
                    let base = jp * pairs * NRQ * 2;
                    // SAFETY: `packed` holds `pairs·NRQ·2` bytes from
                    // `base`, `qpair` holds `pairs` i32s, `scales` and
                    // `orow` hold ≥ `col0 + nr` floats with `nr ≤ NRQ`;
                    // AVX2 presence was checked at runtime above.
                    unsafe {
                        qpanel_avx2(
                            pairs,
                            qpair.as_ptr(),
                            self.packed.as_ptr().add(base),
                            sx,
                            self.scales.as_ptr().add(col0),
                            orow.as_mut_ptr().add(col0),
                            nr,
                        );
                    }
                }
                continue;
            }
            let _ = avx2;
            for jp in 0..n.div_ceil(NRQ) {
                let col0 = jp * NRQ;
                let nr = NRQ.min(n - col0);
                let base = jp * pairs * NRQ * 2;
                for jj in 0..nr {
                    let mut acc = 0i32;
                    for p in 0..pairs {
                        let w0 = self.packed[base + p * NRQ * 2 + jj * 2] as i32;
                        let w1 = self.packed[base + p * NRQ * 2 + jj * 2 + 1] as i32;
                        acc += qx[2 * p] as i32 * w0 + qx[2 * p + 1] as i32 * w1;
                    }
                    // Keep this dequant expression in sync with
                    // qpanel_avx2: identical f32 ops => identical bits.
                    orow[col0 + jj] += acc as f32 * (sx * self.scales[col0 + jj]);
                }
            }
        }
    }

    /// Portable scalar reference path, ignoring CPU features — the
    /// parity oracle for [`QuantizedMatrix::matmul_into`].
    pub fn matmul_reference(&self, x: &[f32], m: usize, out: &mut [f32]) {
        let (k, n) = (self.k, self.n);
        assert_eq!(x.len(), m * k, "activation length must be m*k");
        assert_eq!(out.len(), m * n, "output length must be m*n");
        let pairs = k.div_ceil(2);
        let mut qx = vec![0i8; 2 * pairs];
        for i in 0..m {
            let row = &x[i * k..(i + 1) * k];
            let sx = quantize_row(row, &mut qx);
            let orow = &mut out[i * n..(i + 1) * n];
            for jp in 0..n.div_ceil(NRQ) {
                let col0 = jp * NRQ;
                let nr = NRQ.min(n - col0);
                let base = jp * pairs * NRQ * 2;
                for jj in 0..nr {
                    let mut acc = 0i32;
                    for p in 0..pairs {
                        let w0 = self.packed[base + p * NRQ * 2 + jj * 2] as i32;
                        let w1 = self.packed[base + p * NRQ * 2 + jj * 2 + 1] as i32;
                        acc += qx[2 * p] as i32 * w0 + qx[2 * p + 1] as i32 * w1;
                    }
                    orow[col0 + jj] += acc as f32 * (sx * self.scales[col0 + jj]);
                }
            }
        }
    }
}

/// Quantize one activation row with absmax scaling into `qx`
/// (zero-padded past `row.len()`); returns the dequantization scale.
fn quantize_row(row: &[f32], qx: &mut [i8]) -> f32 {
    let amax = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let s = amax / 127.0;
    qx.fill(0);
    if s > 0.0 {
        let inv = 127.0 / amax;
        for (q, &v) in qx.iter_mut().zip(row) {
            *q = (v * inv).round().clamp(-127.0, 127.0) as i8;
        }
    }
    s
}

/// AVX2 panel kernel: `vpmaddwd` over sign-extended int8 weight pairs
/// against the broadcast packed activation pair, i32 accumulation, then
/// the shared dequant expression. Zero-padding makes padded lanes
/// contribute exactly 0, so results match the portable path bitwise.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
// SAFETY: callers check `simd_available()` (AVX2 present) before calling
// and guarantee `qpair` holds `pairs` i32s, `wp` holds `pairs·NRQ·2`
// bytes, and `wscales`/`out` hold at least `nr ≤ NRQ` floats; all
// loads/stores are unaligned variants.
unsafe fn qpanel_avx2(
    pairs: usize,
    qpair: *const i32,
    wp: *const i8,
    sx: f32,
    wscales: *const f32,
    out: *mut f32,
    nr: usize,
) {
    use std::arch::x86_64::*;
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    for p in 0..pairs {
        // Each 32-bit lane of `qv` is the activation pair (qx[2p],
        // qx[2p+1]) as two i16s — the left operand vpmaddwd needs.
        let qv = _mm256_set1_epi32(*qpair.add(p));
        let wbytes = _mm256_loadu_si256(wp.add(p * NRQ * 2) as *const __m256i);
        let lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(wbytes));
        let hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(wbytes, 1));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(lo, qv));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(hi, qv));
    }
    let mut accs = [0i32; NRQ];
    _mm256_storeu_si256(accs.as_mut_ptr() as *mut __m256i, acc0);
    _mm256_storeu_si256(accs.as_mut_ptr().add(8) as *mut __m256i, acc1);
    for (jj, &acc) in accs.iter().take(nr).enumerate() {
        // Keep in sync with the portable dequant expression.
        *out.add(jj) += acc as f32 * (sx * *wscales.add(jj));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn simd_matches_reference_bitwise() {
        for (m, n, k) in [
            (1, 64, 64),
            (3, 17, 9),
            (7, 768, 64),
            (16, 128, 64),
            (5, 33, 127),
            (2, 16, 1),
        ] {
            let w = mat(9 + k as u64, k * n);
            let x = mat(10 + m as u64, m * k);
            let q = QuantizedMatrix::quantize(&w, k, n);
            let mut o0 = vec![0.0f32; m * n];
            let mut o1 = vec![0.0f32; m * n];
            q.matmul_reference(&x, m, &mut o0);
            q.matmul_into(&x, m, &mut o1);
            assert_eq!(o0, o1, "quant simd != reference at {m}x{n}x{k}");
        }
    }

    #[test]
    fn quantization_error_is_bounded() {
        let (m, n, k) = (4, 96, 96);
        let w = mat(1, k * n);
        let x = mat(2, m * k);
        let q = QuantizedMatrix::quantize(&w, k, n);
        let mut oq = vec![0.0f32; m * n];
        q.matmul_into(&x, m, &mut oq);
        let mut of = vec![0.0f32; m * n];
        crate::ops_matmul::gemm_naive(false, false, m, n, k, &x, &w, &mut of);
        let denom = of.iter().fold(0.0f32, |a, v| a.max(v.abs())).max(1.0);
        for (a, b) in oq.iter().zip(&of) {
            assert!(
                (a - b).abs() / denom < 0.05,
                "quantized output drifted: {a} vs {b}"
            );
        }
    }

    #[test]
    fn row_split_invariance() {
        // Per-row activation scales: quantizing 5 rows at once equals
        // quantizing them one at a time — prefill chunking is bit-safe.
        let (m, n, k) = (5, 48, 33);
        let w = mat(3, k * n);
        let x = mat(4, m * k);
        let q = QuantizedMatrix::quantize(&w, k, n);
        let mut whole = vec![0.0f32; m * n];
        q.matmul_into(&x, m, &mut whole);
        let mut split = vec![0.0f32; m * n];
        for i in 0..m {
            q.matmul_into(&x[i * k..(i + 1) * k], 1, &mut split[i * n..(i + 1) * n]);
        }
        assert_eq!(whole, split);
    }

    #[test]
    fn zero_column_and_zero_row_are_exact() {
        let (n, k) = (17, 8);
        let mut w = mat(5, k * n);
        for p in 0..k {
            w[p * n + 3] = 0.0; // dead output channel
        }
        let q = QuantizedMatrix::quantize(&w, k, n);
        let mut out = vec![0.0f32; n];
        q.matmul_into(&vec![0.0f32; k], 1, &mut out);
        assert_eq!(out, vec![0.0f32; n], "zero activations must emit zeros");
    }
}
