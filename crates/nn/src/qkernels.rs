//! Quantized distance kernels for the serving layer: int8 (per-row
//! symmetric scale) row encoding with a fused scan kernel, multiversioned
//! for AVX2/AVX-512 exactly like the matmuls in [`crate::matrix`].
//!
//! ## Determinism contract
//!
//! Everything here is bit-identical at any thread count **and across ISA
//! dispatch levels** (scalar / AVX2 / AVX-512):
//!
//! - Quantization is a pure function of the f32 row: the int8 scale is
//!   `max_abs/127` and codes round half-away-from-zero via [`f32::round`].
//!   No data-dependent tie breaking, no RNG.
//! - The int8 dot accumulates in `i32` via widening multiply-add. Integer
//!   addition is associative, so *any* vectorization the compiler picks
//!   produces the same value — ISA invariance for free.
//! - Score combination ([`combine_i8`]) is a fixed sequence of scalar f32
//!   operations.
//!
//! The serving store scores every candidate against these kernels and then
//! re-ranks the survivors with exact f32 scores, so quantization error
//! affects candidate *selection* only, never the final ranking arithmetic.

use crate::matrix::multiversioned;
use crate::pool;
use crate::sim::Scorer;
use serde::{Deserialize, Serialize, Value};

/// Storage precision of an embedding table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full-precision f32 rows (the original store format).
    #[default]
    F32,
    /// Symmetric per-row int8: a quarter of the bytes plus one f32 scale
    /// (and a reserved zero-point) per row.
    Int8,
}

impl Precision {
    /// Every precision, in a fixed order (useful for sweeps and tests).
    pub const ALL: [Precision; 2] = [Precision::F32, Precision::Int8];

    /// Parses the lowercase name used by the CLI and the HTTP API.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "f32" => Some(Self::F32),
            "int8" | "i8" => Some(Self::Int8),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Self::F32 => "f32",
            Self::Int8 => "int8",
        }
    }
}

impl Serialize for Precision {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl Deserialize for Precision {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::String(s) => Precision::parse(s)
                .ok_or_else(|| serde::Error::custom(format!("unknown precision {s:?}"))),
            other => {
                Err(serde::Error::custom(format!("expected precision name string, got {other:?}")))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// int8 quantization
// ---------------------------------------------------------------------------

/// Symmetric per-row int8 quantization: `scale = max|x|/127` (1.0 for an
/// all-zero row so dequantization stays well-defined), codes are
/// `clamp(round(x/scale), −127, 127)`. [`f32::round`] rounds half away
/// from zero — a pure function of the input with no data-dependent tie
/// behavior — and the clamp keeps −128 unused so negation is symmetric.
pub fn quantize_i8_row(row: &[f32]) -> (Vec<i8>, f32) {
    let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    let scale = if max_abs > 0.0 && max_abs.is_finite() { max_abs / 127.0 } else { 1.0 };
    let inv = 1.0 / scale;
    let codes = row.iter().map(|&x| (x * inv).round().clamp(-127.0, 127.0) as i8).collect();
    (codes, scale)
}

/// Exact integer sum of squared codes for one row (fits `i32` for any
/// realistic dimension: `127² · dim` overflows only past dim ≈ 133k, and
/// quantized stores cap dim at [`MAX_QUANT_DIM`]).
pub fn sumsq_i8(codes: &[i8]) -> i32 {
    codes.iter().map(|&c| (c as i32) * (c as i32)).sum()
}

/// Largest dimension a quantized store accepts: keeps the exact i32
/// accumulators of the int8 kernels far from overflow (`127²·65536 < 2³⁰`).
pub const MAX_QUANT_DIM: usize = 65_536;

// ---------------------------------------------------------------------------
// fused scan kernels
// ---------------------------------------------------------------------------

multiversioned! {
/// Widening-multiply-add int8 scan over one chunk of rows: `out[r]` is the
/// exact i32 dot of the query codes against row `r` of the chunk. Integer
/// accumulation is associative, so the result is identical however the
/// compiler vectorizes it.
fn i8_dot_block / i8_dot_block_inner(codes: &[i8], q: &[i8], dim: usize, out: &mut [i32]) {
    for (r, o) in out.iter_mut().enumerate() {
        let row = &codes[r * dim..(r + 1) * dim];
        let mut acc = 0i32;
        for (&a, &b) in q.iter().zip(row) {
            acc += (a as i32) * (b as i32);
        }
        *o = acc;
    }
}
}

/// Dispatched int8 dot over one contiguous chunk of rows on the calling
/// thread (no pool) — the per-candidate entry point for graph traversal,
/// where each call scores a handful of rows at most.
#[inline]
pub fn i8_dot_rows(codes: &[i8], q: &[i8], dim: usize, out: &mut [i32]) {
    i8_dot_block(codes, q, dim, out);
}

/// Rows per parallel chunk in the scan entry points: big enough to
/// amortize dispatch, small enough to load-balance a skewed pool.
const SCAN_CHUNK: usize = 512;

/// Scans every row of an int8 code table against a quantized query,
/// writing exact i32 dots. Parallel on the workspace pool over disjoint
/// row chunks; each dot is a pure integer function of its (query, row)
/// pair, so the output is bit-identical at any thread count and ISA level.
pub fn i8_dot_scan(codes: &[i8], q: &[i8], dim: usize, out: &mut [i32]) {
    assert_eq!(q.len(), dim, "i8_dot_scan query dimension mismatch");
    assert_eq!(codes.len(), out.len() * dim, "i8_dot_scan table shape mismatch");
    pool::parallel_chunks(out, SCAN_CHUNK, |start, slab| {
        i8_dot_block(&codes[start * dim..(start + slab.len()) * dim], q, dim, slab);
    });
}

/// Scalar reference for the int8 dot — the exact value every dispatch
/// level must reproduce (used by the ISA-equality tests).
pub fn i8_dot_reference(q: &[i8], row: &[i8]) -> i32 {
    q.iter().zip(row).map(|(&a, &b)| (a as i32) * (b as i32)).sum()
}

// ---------------------------------------------------------------------------
// score combination
// ---------------------------------------------------------------------------

/// Combines an exact int8 dot with per-side scales and code sums-of-squares
/// into a similarity score (greater = more similar, matching
/// [`Scorer::score`] orientation). A fixed sequence of scalar f32
/// operations — deterministic everywhere the integer inputs are.
#[inline]
pub fn combine_i8(
    scorer: Scorer,
    idot: i32,
    qscale: f32,
    qsumsq: i32,
    rscale: f32,
    rsumsq: i32,
) -> f32 {
    let d = idot as f32;
    match scorer {
        Scorer::Dot => d * (qscale * rscale),
        Scorer::Cosine => {
            let qn = qscale * (qsumsq as f32).sqrt();
            let rn = rscale * (rsumsq as f32).sqrt();
            (d * (qscale * rscale)) / (qn * rn + 1e-12)
        }
        Scorer::Euclidean => {
            let qs = qscale * qscale * (qsumsq as f32);
            let rs = rscale * rscale * (rsumsq as f32);
            -(qs - 2.0 * (qscale * rscale) * d + rs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (LCG) — no RNG dep in this crate.
    fn fill(seed: u64, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn precision_parse_roundtrips() {
        for p in Precision::ALL {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("i8"), Some(Precision::Int8));
        assert_eq!(Precision::parse("fp64"), None);
        assert_eq!(Precision::parse("f16"), None);
        assert_eq!(Precision::default(), Precision::F32);
    }

    #[test]
    fn i8_quantization_bounds_and_determinism() {
        let row = fill(3, 257);
        let (codes, scale) = quantize_i8_row(&row);
        let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!((scale - max_abs / 127.0).abs() < 1e-12);
        for (i, (&c, &x)) in codes.iter().zip(&row).enumerate() {
            assert!((-127..=127).contains(&(c as i32)), "code {c} out of range");
            let deq = c as f32 * scale;
            assert!((deq - x).abs() <= scale * 0.5 + 1e-7, "element {i}: {x} vs {deq}");
        }
        // Pure function: identical on every call.
        assert_eq!(quantize_i8_row(&row), (codes, scale));
        // All-zero rows take scale 1.0 and all-zero codes.
        let (z, s) = quantize_i8_row(&[0.0; 16]);
        assert_eq!(s, 1.0);
        assert!(z.iter().all(|&c| c == 0));
    }

    #[test]
    fn i8_scan_matches_reference_and_is_chunk_invariant() {
        let dim = 48;
        let n = 700; // crosses a SCAN_CHUNK boundary
        let rows = fill(1, n * dim);
        let q = fill(2, dim);
        let mut codes = Vec::with_capacity(n * dim);
        for r in 0..n {
            codes.extend(quantize_i8_row(&rows[r * dim..(r + 1) * dim]).0);
        }
        let (qc, _) = quantize_i8_row(&q);
        let mut out = vec![0i32; n];
        i8_dot_scan(&codes, &qc, dim, &mut out);
        for r in 0..n {
            assert_eq!(out[r], i8_dot_reference(&qc, &codes[r * dim..(r + 1) * dim]), "row {r}");
        }
    }

    #[test]
    fn scans_are_thread_count_invariant() {
        let dim = 32;
        let n = 1500;
        let rows = fill(11, n * dim);
        let q = fill(12, dim);
        let mut codes_i8 = Vec::with_capacity(n * dim);
        for r in 0..n {
            codes_i8.extend(quantize_i8_row(&rows[r * dim..(r + 1) * dim]).0);
        }
        let (qc, _) = quantize_i8_row(&q);
        let default_threads = pool::threads();
        let mut reference: Option<Vec<i32>> = None;
        for threads in [1usize, 4] {
            pool::set_threads(threads);
            let mut di = vec![0i32; n];
            i8_dot_scan(&codes_i8, &qc, dim, &mut di);
            match &reference {
                None => reference = Some(di),
                Some(ri) => assert_eq!(ri, &di, "int8 scan diverged at {threads} threads"),
            }
        }
        pool::set_threads(default_threads);
    }

    #[test]
    fn combine_i8_approximates_f32_scores() {
        let dim = 64;
        let a = fill(21, dim);
        let b = fill(22, dim);
        let (ac, asc) = quantize_i8_row(&a);
        let (bc, bsc) = quantize_i8_row(&b);
        let idot = i8_dot_reference(&ac, &bc);
        for scorer in Scorer::ALL {
            let approx = combine_i8(scorer, idot, asc, sumsq_i8(&ac), bsc, sumsq_i8(&bc));
            let exact = scorer.score(&a, &b);
            assert!(
                (approx - exact).abs() <= 0.02 * (1.0 + exact.abs()),
                "{}: {approx} vs {exact}",
                scorer.name()
            );
        }
    }

    #[test]
    fn zero_rows_score_zero_under_cosine() {
        let (zc, zs) = quantize_i8_row(&[0.0; 8]);
        let (qc, qs) = quantize_i8_row(&fill(41, 8));
        let d = i8_dot_reference(&qc, &zc);
        assert_eq!(combine_i8(Scorer::Cosine, d, qs, sumsq_i8(&qc), zs, sumsq_i8(&zc)), 0.0);
    }
}
