//! Shared vector-similarity scorers.
//!
//! One canonical implementation of the dot / cosine / Euclidean family used
//! across the workspace — embedding evaluation (`coane-eval::linkpred`),
//! baseline community-separation checks, and the ANN index + query engine in
//! `coane-serve` — instead of a per-crate reimplementation in each place.
//!
//! All pairwise functions reduce strictly left-to-right over the slices, so
//! a scorer call is bit-identical wherever it runs (sequential code, pool
//! workers, any thread count) — the same determinism contract as the kernels
//! in [`crate::matrix`].
//!
//! [`score_block`] is the batched entry point: many queries against one
//! store in a single blocked kernel call. Its dot products go through the
//! multi-lane [`crate::matrix::matmul_nt_slices`] kernel — *reassociated*
//! relative to the sequential [`dot`], so a block score is not bitwise equal
//! to the pairwise [`Scorer::score`] — but every output element is a pure
//! function of its (query row, store row) pair, so block results are
//! bit-identical for any batch composition and any thread count.

use serde::{Deserialize, Serialize, Value};

use crate::matrix::matmul_nt_slices;

/// Dot product `⟨a, b⟩`, reduced left-to-right in `f32`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean (L2) norm `‖a‖`, reduced left-to-right in `f32`.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Cosine similarity `⟨a, b⟩ / (‖a‖‖b‖ + 1e-12)`.
///
/// The `1e-12` stabilizer means all-zero vectors score 0 instead of NaN —
/// the convention every former inline copy in the workspace used.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    dot(a, b) / (norm(a) * norm(b) + 1e-12)
}

/// Squared Euclidean distance `‖a − b‖²`, reduced left-to-right in `f32`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "euclidean_sq: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// A named similarity scorer, convertible from/to its CLI and JSON spelling.
///
/// [`Scorer::score`] is oriented so that **greater is always more similar**
/// (Euclidean scores are negated squared distances); consumers can rank by
/// score descending regardless of the metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scorer {
    /// Raw dot product — the bilinear score CoANE's objective optimizes.
    Dot,
    /// Cosine similarity — scale-invariant, the default for kNN retrieval.
    #[default]
    Cosine,
    /// Negated squared Euclidean distance.
    Euclidean,
}

impl Scorer {
    /// Every scorer, in a fixed order (useful for sweeps and tests).
    pub const ALL: [Scorer; 3] = [Scorer::Dot, Scorer::Cosine, Scorer::Euclidean];

    /// Parses the lowercase name used by the CLI and the HTTP API.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "dot" => Some(Self::Dot),
            "cosine" => Some(Self::Cosine),
            "euclidean" | "l2" => Some(Self::Euclidean),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Dot => "dot",
            Self::Cosine => "cosine",
            Self::Euclidean => "euclidean",
        }
    }

    /// Similarity of `a` and `b`; greater is always more similar.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn score(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Self::Dot => dot(a, b),
            Self::Cosine => cosine(a, b),
            Self::Euclidean => -euclidean_sq(a, b),
        }
    }
}

/// Scores `m` queries against `n` store rows in one blocked kernel call,
/// returning the `m×n` score block in row-major order (greater is always
/// more similar, matching [`Scorer::score`] orientation).
///
/// `queries` is `m×dim` row-major, `store` is `n×dim` row-major. Dot and
/// cosine route through [`matmul_nt_slices`] (one matmul instead of `m·n`
/// sequential dot chains); Euclidean stays a direct per-pair `Σ(a−b)²`
/// because the expansion `‖a‖² − 2⟨a,b⟩ + ‖b‖²` changes the score bits and
/// cancels for near-duplicate rows. Every
/// element depends only on its own (query, store) row pair, so the block is
/// bit-identical however requests are batched and at any thread count.
///
/// # Panics
/// Panics if a slice length disagrees with its stated shape.
pub fn score_block(
    scorer: Scorer,
    queries: &[f32],
    m: usize,
    store: &[f32],
    n: usize,
    dim: usize,
) -> Vec<f32> {
    assert_eq!(queries.len(), m * dim, "score_block queries shape mismatch");
    assert_eq!(store.len(), n * dim, "score_block store shape mismatch");
    match scorer {
        Scorer::Dot => matmul_nt_slices(queries, store, m, dim, n),
        Scorer::Cosine => {
            let mut out = matmul_nt_slices(queries, store, m, dim, n);
            // Per-row norms are strict left-to-right [`norm`] sums — pure
            // per row, so the normalization is batch-invariant too.
            let store_norms: Vec<f32> =
                (0..n).map(|j| norm(&store[j * dim..(j + 1) * dim])).collect();
            for i in 0..m {
                let qn = norm(&queries[i * dim..(i + 1) * dim]);
                for (o, &sn) in out[i * n..(i + 1) * n].iter_mut().zip(&store_norms) {
                    *o /= qn * sn + 1e-12;
                }
            }
            out
        }
        Scorer::Euclidean => {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                let q = &queries[i * dim..(i + 1) * dim];
                for (j, o) in out[i * n..(i + 1) * n].iter_mut().enumerate() {
                    *o = -euclidean_sq(q, &store[j * dim..(j + 1) * dim]);
                }
            }
            out
        }
    }
}

impl Serialize for Scorer {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl Deserialize for Scorer {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::String(s) => Scorer::parse(s)
                .ok_or_else(|| serde::Error::custom(format!("unknown scorer {s:?}"))),
            other => {
                Err(serde::Error::custom(format!("expected scorer name string, got {other:?}")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm_match_hand_values() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(euclidean_sq(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
    }

    #[test]
    fn cosine_range_and_zero_vectors() {
        let a = [1.0f32, 0.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
        assert!((cosine(&a, &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &a), 0.0, "zero vector scores 0, not NaN");
    }

    #[test]
    fn scorer_orientation_greater_is_more_similar() {
        let q = [1.0f32, 1.0];
        let near = [1.1f32, 0.9];
        let far = [-1.0f32, -1.0];
        for s in Scorer::ALL {
            assert!(s.score(&q, &near) > s.score(&q, &far), "{}: near must outscore far", s.name());
        }
    }

    #[test]
    fn parse_roundtrips_names() {
        for s in Scorer::ALL {
            assert_eq!(Scorer::parse(s.name()), Some(s));
        }
        assert_eq!(Scorer::parse("l2"), Some(Scorer::Euclidean));
        assert_eq!(Scorer::parse("manhattan"), None);
        assert_eq!(Scorer::default(), Scorer::Cosine);
    }

    #[test]
    fn serde_roundtrip() {
        for s in Scorer::ALL {
            let v = s.to_value();
            assert_eq!(Scorer::from_value(&v).unwrap(), s);
        }
        assert!(Scorer::from_value(&Value::String("nope".into())).is_err());
        assert!(Scorer::from_value(&Value::Number(1.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

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
    fn score_block_matches_pairwise_scores_within_tolerance() {
        let (m, n, dim) = (5, 17, 24);
        let queries = fill(3, m * dim);
        let store = fill(7, n * dim);
        for scorer in Scorer::ALL {
            let block = score_block(scorer, &queries, m, &store, n, dim);
            assert_eq!(block.len(), m * n);
            for i in 0..m {
                for j in 0..n {
                    let pairwise = scorer
                        .score(&queries[i * dim..(i + 1) * dim], &store[j * dim..(j + 1) * dim]);
                    let got = block[i * n + j];
                    assert!(
                        (got - pairwise).abs() <= 1e-5 * (1.0 + pairwise.abs()),
                        "{} [{i},{j}]: block {got} vs pairwise {pairwise}",
                        scorer.name()
                    );
                }
            }
        }
    }

    #[test]
    fn score_block_rows_are_batch_invariant_bits() {
        let (n, dim) = (13, 16);
        let store = fill(11, n * dim);
        let queries = fill(5, 4 * dim);
        for scorer in Scorer::ALL {
            let all = score_block(scorer, &queries, 4, &store, n, dim);
            for i in 0..4 {
                let one = score_block(scorer, &queries[i * dim..(i + 1) * dim], 1, &store, n, dim);
                assert_eq!(
                    one,
                    all[i * n..(i + 1) * n].to_vec(),
                    "{}: query {i} scored alone must be bit-identical to the batch row",
                    scorer.name()
                );
            }
            // Any sub-batch, not just singletons.
            let pair = score_block(scorer, &queries[dim..3 * dim], 2, &store, n, dim);
            assert_eq!(pair, all[n..3 * n].to_vec(), "{}", scorer.name());
        }
    }

    #[test]
    fn score_block_empty_batch_is_empty() {
        let store = fill(1, 8 * 4);
        assert!(score_block(Scorer::Cosine, &[], 0, &store, 8, 4).is_empty());
    }
}
