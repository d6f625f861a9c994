//! Quality and determinism lockdown for the quantized serving path:
//! per-row round-trip error bounds for the int8 encoder, bit-identical
//! answers across thread counts and ISA dispatch levels, and the recall@10
//! ≥ 0.95 gate on the seeded 2k fixture with the default rerank factor.

use coane_nn::{pool, qkernels, Precision, Scorer};
use coane_serve::{
    knn_exact, EmbeddingStore, EngineLimits, HnswConfig, HnswIndex, KnnParams, KnnTarget,
    QueryEngine,
};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

const NODES: usize = 2000;
const DIM: usize = 24;
const K: usize = 10;
const N_QUERIES: usize = 100;

fn fixture_rows(seed: u64) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut uniform = || ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0;
    (0..NODES * DIM).map(|_| uniform()).collect()
}

fn fixture_store(seed: u64, precision: Precision) -> EmbeddingStore {
    EmbeddingStore::new(fixture_rows(seed), DIM, None, "quantization fixture")
        .expect("valid store")
        .with_precision(precision)
        .expect("quantize")
}

fn fixture_queries(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfeed);
    let mut uniform = || ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0;
    (0..N_QUERIES).map(|_| (0..DIM).map(|_| uniform()).collect()).collect()
}

#[test]
fn per_row_round_trip_error_is_bounded() {
    // The store quantizes through these exact pure functions; each row's
    // reconstruction error is bounded by half an int8 quantization step
    // (scale/2 per element).
    let rows = fixture_rows(42);
    for (r, row) in rows.chunks_exact(DIM).enumerate() {
        let (codes, scale) = qkernels::quantize_i8_row(row);
        let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!((scale - max_abs / 127.0).abs() <= 1e-12, "row {r}: scale off");
        for (c, &x) in codes.iter().zip(row) {
            let err = (*c as f32 * scale - x).abs();
            assert!(err <= scale * 0.5 + 1e-7, "row {r}: int8 error {err} > step/2 {scale}");
        }
    }
}

#[test]
fn fused_scans_match_scalar_reference_across_dispatch() {
    // The scan entry points dispatch to the widest ISA the CPU offers
    // (AVX-512 → AVX2 → scalar); the `*_reference` twin is the same
    // algorithm compiled at the baseline ISA only. Bitwise agreement here
    // is the cross-ISA determinism gate: int8 accumulates exactly in i32,
    // so whatever level actually ran must reproduce the scalar bytes.
    let rows = fixture_rows(7);
    let q = &fixture_queries(7)[0];
    let n = NODES;

    let mut i8_codes = Vec::with_capacity(n * DIM);
    for row in rows.chunks_exact(DIM) {
        i8_codes.extend(qkernels::quantize_i8_row(row).0);
    }
    let (qc, _) = qkernels::quantize_i8_row(q);
    let mut idots = vec![0i32; n];
    qkernels::i8_dot_scan(&i8_codes, &qc, DIM, &mut idots);
    for r in 0..n {
        let expect = qkernels::i8_dot_reference(&qc, &i8_codes[r * DIM..(r + 1) * DIM]);
        assert_eq!(idots[r], expect, "int8 dot diverged from scalar reference at row {r}");
    }
}

/// The whole quantized serving path — index build over quantized scores,
/// graph traversal, brute-force scans, and the engine's reranked
/// answers — must be bit-identical at 1 vs 4 threads.
#[test]
fn quantized_build_and_answers_bit_identical_across_thread_counts() {
    let precision = Precision::Int8;
    let queries = fixture_queries(99);
    let run = |threads: usize| {
        pool::set_threads(threads);
        let store = fixture_store(99, precision);
        let index = HnswIndex::build(&store, Scorer::Cosine, HnswConfig::default());
        let graph: Vec<Vec<Vec<u32>>> = (0..store.len())
            .map(|r| index.neighbors(r as u32).into_iter().map(<[u32]>::to_vec).collect())
            .collect();
        let engine = QueryEngine::new(
            store,
            index,
            None,
            EngineLimits::default(),
            coane_obs::Obs::disabled(),
        )
        .expect("engine");
        let batch: Vec<KnnTarget> =
            queries.iter().take(16).cloned().map(KnnTarget::Vector).collect();
        let approx = engine
            .knn(&batch, KnnParams { k: K, scorer: Scorer::Cosine, exact: false })
            .expect("approx batch");
        let exact = engine
            .knn(&batch, KnnParams { k: K, scorer: Scorer::Cosine, exact: true })
            .expect("exact batch");
        (graph, approx, exact)
    };
    let r1 = run(1);
    let r4 = run(4);
    pool::set_threads(1);
    assert_eq!(r1.0, r4.0, "{}: adjacency differs across thread counts", precision.name());
    assert_eq!(r1.1, r4.1, "{}: approx answers differ across threads", precision.name());
    assert_eq!(r1.2, r4.2, "{}: exact answers differ across threads", precision.name());
}

/// Recall@10 against the exact-f32 ground truth stays above 0.95 on the
/// seeded 2k fixture for the int8 store with the default rerank factor,
/// on both the HNSW path and the quantized brute-force
/// path — and every returned score is the *exact* f32 score (the rerank
/// stage's contract: quantization may cost candidate membership, never
/// score precision).
#[test]
fn quantized_recall_at_10_beats_095_with_default_rerank() {
    let f32_store = EmbeddingStore::new(fixture_rows(42), DIM, None, "truth").expect("valid store");
    let queries = fixture_queries(42);
    let precision = Precision::Int8;
    let store = fixture_store(42, precision);
    let index = HnswIndex::build(&store, Scorer::Cosine, HnswConfig::default());
    let engine =
        QueryEngine::new(store, index, None, EngineLimits::default(), coane_obs::Obs::disabled())
            .expect("engine");
    for exact in [false, true] {
        let mut total = 0.0;
        for q in &queries {
            let truth: Vec<u64> = knn_exact(&f32_store, q, K, Scorer::Cosine)
                .iter()
                .map(|h| h.index as u64)
                .collect();
            let answers = engine
                .knn(
                    &[KnnTarget::Vector(q.clone())],
                    KnnParams { k: K, scorer: Scorer::Cosine, exact },
                )
                .expect("query");
            let got = &answers[0].neighbors;
            assert_eq!(got.len(), K, "{}: fewer than k results", precision.name());
            for &(id, score) in got {
                let expect = Scorer::Cosine.score(q, f32_store.row(id as usize));
                assert_eq!(
                    score.to_bits(),
                    expect.to_bits(),
                    "{}: returned score is not the exact f32 score",
                    precision.name()
                );
            }
            let hit = truth.iter().filter(|id| got.iter().any(|(g, _)| g == *id)).count();
            total += hit as f64 / K as f64;
        }
        let recall = total / queries.len() as f64;
        assert!(
            recall >= 0.95,
            "{} (exact={exact}): recall@{K} = {recall:.4} below the 0.95 floor",
            precision.name()
        );
    }
}
