//! Serving-path benchmark: HNSW vs brute-force kNN throughput/latency on a
//! deterministic synthetic store, plus end-to-end HTTP round-trips over
//! loopback through the full server stack (parse → engine → HNSW →
//! serialize).
//!
//! The store is seeded random data — no training run — so the bench
//! isolates the serving layer and reproduces exactly on any machine.
//! Quality is reported as recall@k of the HNSW answers against the exact
//! scorer path, and the recall is also *gated* here (≥ 0.95 full, ≥ 0.90
//! smoke) so a quietly-degraded index fails the bench rather than shipping
//! fast wrong answers.
//!
//! ## Concurrency sweep
//!
//! The `concurrency` section measures what cross-request micro-batching
//! buys: N keep-alive clients hammer exact `/knn` concurrently, the server
//! coalesces their queries into pre-transposed matmul passes, and
//! throughput is compared against `baseline_qps` — the same exact route on
//! the same store driven one request per connection (the pre-keep-alive,
//! pre-coalescing serve path). The sweep runs on its own larger store
//! (`SWEEP_NODES`): batching amortizes the kernel's streaming pass over the
//! store, so the effect is measured where the kernel — not per-request HTTP
//! overhead — dominates, which is exactly the regime where a second of
//! serving capacity matters. Queries target store ids, keeping request
//! parsing identical and trivial on both sides. `batched_speedup` (best
//! sweep point over baseline) is gated ≥ 2.0 in full mode, and the
//! committed numbers are re-validated by `--smoke`. Both sides run the
//! exact scorer path, so the comparison holds recall constant at 1.0.
//!
//! ## Precision sweep
//!
//! The `precisions` section quantifies the quantized serving path on a
//! dedicated 100k-node store: for each payload precision (f32, int8)
//! it builds the HNSW index over the quantized scores and measures engine
//! throughput on the graph path and the fused brute-force path, recall@k
//! of the reranked answers against the exact-f32 ground truth, and the
//! bytes each precision's scan actually touches. int8's brute-force
//! throughput over f32 is gated ≥ 1.3× (the scan is bandwidth-bound, so
//! quartering the bytes must show up as throughput), and every precision's
//! recall is held to the same ≥ 0.95 floor as the f32 index — quantization
//! is not allowed to buy speed with quality.
//!
//! Output discipline: progress goes to stderr; stdout carries exactly one
//! JSON document (the report in full mode, the validation verdict in
//! `--smoke` mode). The report is also written to `BENCH_serve.json` at the
//! repository root; `--smoke` validates the committed file against the
//! constants compiled in here, so CI fails if it goes stale.

use std::sync::Arc;
use std::time::Instant;

use coane_nn::{pool, Scorer};
use coane_serve::{
    http_request, knn_exact, EmbeddingStore, EngineLimits, HnswConfig, HnswIndex, HttpClient,
    HttpServer, KnnParams, KnnTarget, Precision, QueryEngine, ServerConfig,
};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

const NODES: usize = 2000;
const DIM: usize = 64;
const K: usize = 10;
const QUERIES: usize = 256;
const HTTP_QUERIES: usize = 128;
const SEED: u64 = 42;
const RECALL_FLOOR: f64 = 0.95;
const SMOKE_RECALL_FLOOR: f64 = 0.90;
/// Store size for the concurrency sweep: large enough that the exact
/// kernel, not per-request HTTP overhead, dominates a query.
const SWEEP_NODES: usize = 20000;
/// Concurrent keep-alive client counts in the sweep.
const SWEEP_CONNECTIONS: &[usize] = &[1, 2, 4, 8];
/// Exact `/knn` requests per sweep point, split across the connections.
const SWEEP_REQUESTS: usize = 256;
/// One-shot exact requests timed for `baseline_qps`.
const BASELINE_REQUESTS: usize = 128;
/// Best coalesced throughput must beat the per-request baseline by this.
const SPEEDUP_FLOOR: f64 = 2.0;
/// Store size for the per-precision sweep: large enough that the fused
/// quantized scan's bandwidth advantage — not fixed per-query overhead —
/// decides the throughput numbers.
const PRECISION_NODES: usize = 100_000;
/// Engine HNSW-path queries per precision point.
const PRECISION_HNSW_QUERIES: usize = 256;
/// Engine brute-force queries per precision point (each streams the whole
/// store, so fewer suffice).
const PRECISION_EXACT_QUERIES: usize = 64;
/// int8 brute-force throughput must beat f32 by this at `PRECISION_NODES`.
const INT8_SPEEDUP_FLOOR: f64 = 1.3;
/// Intrinsic dimensionality of the precision sweep's store (see
/// [`manifold_vectors`]).
const PRECISION_LATENT_DIM: usize = 8;
/// Search width for the precision sweep's indexes. Embedding-scale recall
/// needs a wider candidate list than the 2k-node default: at 100k rows an
/// `ef` of 64 visits too small a fraction of the graph to hold the 0.95
/// floor, quantized or not.
const PRECISION_EF_SEARCH: usize = 256;

#[derive(Serialize, Deserialize)]
struct PathStats {
    /// Queries per second over the whole batch.
    qps: f64,
    /// Median per-query latency, microseconds.
    p50_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    p99_us: f64,
}

/// One concurrency-sweep measurement: `connections` keep-alive clients
/// driving exact `/knn` against the coalescing server.
#[derive(Serialize, Deserialize)]
struct SweepPoint {
    connections: usize,
    /// Completed queries per second across all connections.
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Requests shed with 429 (zero at the bench's default queue_cap).
    shed: u64,
}

/// The micro-batching story: per-request baseline vs coalesced sweep, both
/// on the dedicated `sweep_nodes` store.
#[derive(Serialize, Deserialize)]
struct ConcurrencyReport {
    /// Store size the baseline and sweep ran against.
    sweep_nodes: usize,
    /// Exact `/knn`, one request per connection — the pre-keep-alive,
    /// pre-coalescing serve path.
    baseline_qps: f64,
    points: Vec<SweepPoint>,
    /// Best sweep qps over `baseline_qps`; gated ≥ 2.0.
    batched_speedup: f64,
}

/// One precision's serving measurements on the dedicated sweep store.
#[derive(Serialize, Deserialize)]
struct PrecisionPoint {
    /// `"f32"` or `"int8"`.
    precision: String,
    /// HNSW build wall-clock over the quantized store, milliseconds.
    build_ms: f64,
    /// Engine kNN through the graph + exact-f32 rerank.
    hnsw_qps: f64,
    /// Engine brute-force kNN: the fused quantized scan + rerank.
    exact_qps: f64,
    /// Recall@k of the engine's (reranked) HNSW answers against the exact
    /// f32 ground truth.
    recall_at_k: f64,
    /// Bytes the scan path touches per full pass (codes + qparams; the
    /// rerank-only f32 sidecar is excluded).
    store_bytes: usize,
    /// On-disk size of the saved store (includes the sidecar).
    file_bytes: usize,
}

/// The quantization story: per-precision throughput/recall/footprint and
/// the int8-over-f32 brute-force speedup.
#[derive(Serialize, Deserialize)]
struct PrecisionReport {
    /// Store size all precision points ran against.
    nodes: usize,
    hnsw_queries: usize,
    exact_queries: usize,
    /// Rerank candidate pool per query = `k · rerank_factor`.
    rerank_factor: usize,
    points: Vec<PrecisionPoint>,
    /// int8 `exact_qps` over f32 `exact_qps`; gated ≥ 1.3 in full mode.
    int8_speedup: f64,
}

#[derive(Serialize, Deserialize)]
struct Report {
    nodes: usize,
    dim: usize,
    k: usize,
    queries: usize,
    http_queries: usize,
    seed: u64,
    scorer: String,
    /// HNSW build wall-clock, milliseconds.
    build_ms: f64,
    /// Fraction of exact top-k recovered by HNSW, averaged over queries.
    recall_at_k: f64,
    hnsw: PathStats,
    exact: PathStats,
    /// End-to-end HTTP round-trips (connect + parse + search + serialize).
    http: PathStats,
    /// Same route over one persistent keep-alive connection (no per-request
    /// TCP setup).
    http_keepalive: PathStats,
    concurrency: ConcurrencyReport,
    precisions: PrecisionReport,
}

fn json_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json")
}

/// Deterministic store: unit-scale uniform vectors from a seeded ChaCha8.
fn synthetic_store(nodes: usize, dim: usize, seed: u64) -> EmbeddingStore {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut uniform = || ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0;
    let data: Vec<f32> = (0..nodes * dim).map(|_| uniform()).collect();
    EmbeddingStore::new(data, dim, None, "bench_serve synthetic").expect("valid synthetic store")
}

/// Deterministic query vectors, disjoint from the store's stream.
fn synthetic_queries(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5_e27e);
    let mut uniform = || ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0;
    (0..n).map(|_| (0..dim).map(|_| uniform()).collect()).collect()
}

fn uniform(rng: &mut ChaCha8Rng) -> f32 {
    ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) as f32 * 2.0 - 1.0
}

/// Low-intrinsic-dimension synthetic vectors for the precision sweep. A
/// cloud that is uniform in 64 ambient dimensions has near-degenerate
/// neighbor structure — every pair is almost equidistant — so no index
/// (and no recall gate) is meaningful on it at 100k rows. Trained
/// embedding tables are the opposite: they concentrate near a
/// low-dimensional manifold, where nearest neighbors are well separated
/// from the bulk. Rows here are an 8-d uniform latent pushed through a
/// fixed seeded 8→64 linear map; `proj_seed` fixes the map (store and
/// queries must share it), `sample_seed` the latents.
fn manifold_vectors(n: usize, dim: usize, proj_seed: u64, sample_seed: u64) -> Vec<f32> {
    let mut prng = ChaCha8Rng::seed_from_u64(proj_seed ^ 0xCE27);
    let scale = 1.0 / (PRECISION_LATENT_DIM as f32).sqrt();
    let proj: Vec<f32> =
        (0..PRECISION_LATENT_DIM * dim).map(|_| uniform(&mut prng) * scale).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(sample_seed);
    let mut out = Vec::with_capacity(n * dim);
    let mut z = [0.0f32; PRECISION_LATENT_DIM];
    for _ in 0..n {
        for zi in z.iter_mut() {
            *zi = uniform(&mut rng);
        }
        for j in 0..dim {
            let mut x = 0.0f32;
            for (i, &zi) in z.iter().enumerate() {
                x += zi * proj[i * dim + j];
            }
            out.push(x);
        }
    }
    out
}

fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx]
}

/// Times `f` once per query, returning batch stats.
fn time_queries<F: FnMut(usize)>(n: usize, mut f: F) -> PathStats {
    let mut lat_us: Vec<f64> = Vec::with_capacity(n);
    let started = Instant::now();
    for i in 0..n {
        let t = Instant::now();
        f(i);
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let total = started.elapsed().as_secs_f64();
    lat_us.sort_by(f64::total_cmp);
    PathStats {
        qps: n as f64 / total,
        p50_us: percentile_us(&lat_us, 0.50),
        p99_us: percentile_us(&lat_us, 0.99),
    }
}

/// Mean fraction of the exact top-k present in the HNSW top-k.
fn recall(store: &EmbeddingStore, index: &HnswIndex, queries: &[Vec<f32>], k: usize) -> f64 {
    let mut total = 0.0;
    for q in queries {
        let exact: Vec<u32> =
            knn_exact(store, q, k, index.scorer()).iter().map(|h| h.index).collect();
        let approx: Vec<u32> = index.knn(store, q, k).iter().map(|h| h.index).collect();
        let hit = exact.iter().filter(|i| approx.contains(i)).count();
        total += hit as f64 / k as f64;
    }
    total / queries.len() as f64
}

fn knn_body(query: &[f32], exact: bool) -> String {
    let vec_json: Vec<String> = query.iter().map(|x| format!("{x}")).collect();
    format!("{{\"vectors\":[[{}]],\"k\":{K},\"exact\":{exact}}}", vec_json.join(","))
}

/// Exact `/knn` targeting a store row by id — the sweep/baseline request
/// shape (identical, trivially-parsed bodies on both sides).
fn knn_id_body(id: u64) -> String {
    format!("{{\"ids\":[{id}],\"k\":{K},\"exact\":true}}")
}

/// Deterministic store ids, disjoint streams per seed.
fn synthetic_ids(n: usize, nodes: usize, seed: u64) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u64() % nodes as u64).collect()
}

/// One sweep point: `connections` threads, each with a persistent
/// [`HttpClient`], splitting `total` exact `/knn` requests between them.
fn sweep_point(addr: &str, connections: usize, total: usize, nodes: usize) -> SweepPoint {
    let per_conn = total.div_ceil(connections);
    let started = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let ids = synthetic_ids(per_conn, nodes, SEED ^ (0xB00 + c as u64));
                let mut client = HttpClient::new(addr);
                let mut lat_us = Vec::with_capacity(per_conn);
                let mut shed = 0u64;
                for &id in &ids {
                    let body = knn_id_body(id);
                    let t = Instant::now();
                    let (status, resp) =
                        client.request("POST", "/knn", &body).expect("sweep request");
                    match status {
                        200 => lat_us.push(t.elapsed().as_secs_f64() * 1e6),
                        429 => shed += 1,
                        other => panic!("sweep request failed with {other}: {resp}"),
                    }
                }
                (lat_us, shed)
            })
        })
        .collect();
    let mut lat_us = Vec::new();
    let mut shed = 0u64;
    for w in workers {
        let (lat, s) = w.join().expect("sweep worker");
        lat_us.extend(lat);
        shed += s;
    }
    let elapsed = started.elapsed().as_secs_f64();
    lat_us.sort_by(f64::total_cmp);
    SweepPoint {
        connections,
        qps: lat_us.len() as f64 / elapsed,
        p50_us: percentile_us(&lat_us, 0.50),
        p99_us: percentile_us(&lat_us, 0.99),
        shed,
    }
}

/// Per-precision sweep: for each payload precision, build the HNSW index
/// over the (re)quantized store, then measure engine throughput on both
/// the graph path and the fused brute-force path, and recall@k of the
/// reranked answers against the exact-f32 ground truth. Ends with the
/// sidecar-vs-dequant rerank micro-comparison (int8 candidate pools).
fn measure_precisions(nodes: usize, hnsw_queries: usize, exact_queries: usize) -> PrecisionReport {
    let scorer = Scorer::Cosine;
    let rerank_factor = EngineLimits::default().rerank_factor;
    eprintln!(
        "bench_serve: precision sweep store ({nodes} x {DIM}, {PRECISION_LATENT_DIM}-d latent)"
    );
    let sweep_data = manifold_vectors(nodes, DIM, SEED, SEED ^ 0x9C0);
    let f32_store = EmbeddingStore::new(sweep_data.clone(), DIM, None, "bench_serve precision")
        .expect("valid sweep store");
    let qs: Vec<Vec<f32>> =
        manifold_vectors(hnsw_queries.max(exact_queries), DIM, SEED, SEED ^ 0x9C1)
            .chunks_exact(DIM)
            .map(<[f32]>::to_vec)
            .collect();
    let truth: Vec<Vec<u64>> = qs
        .iter()
        .map(|q| knn_exact(&f32_store, q, K, scorer).iter().map(|h| h.index as u64).collect())
        .collect();

    let mut points = Vec::with_capacity(Precision::ALL.len());
    for precision in Precision::ALL {
        let store = EmbeddingStore::new(sweep_data.clone(), DIM, None, "bench_serve precision")
            .expect("valid sweep store")
            .with_precision(precision)
            .expect("quantize sweep store");
        let store_bytes = store.store_bytes();
        let file = std::env::temp_dir().join(format!(
            "coane-bench-precision-{}-{}",
            precision.name(),
            std::process::id()
        ));
        store.save(&file).expect("save sweep store");
        let file_bytes = std::fs::metadata(&file).expect("stat sweep store").len() as usize;
        let _ = std::fs::remove_file(&file);

        let build_started = Instant::now();
        let config = HnswConfig { ef_search: PRECISION_EF_SEARCH, ..HnswConfig::default() };
        let index = HnswIndex::build(&store, scorer, config);
        let build_ms = build_started.elapsed().as_secs_f64() * 1e3;
        let engine = QueryEngine::new(
            store,
            index,
            None,
            EngineLimits::default(),
            coane_obs::Obs::enabled(),
        )
        .expect("sweep engine");

        let mut recall_total = 0.0;
        let hnsw_stats = time_queries(hnsw_queries, |i| {
            let params = KnnParams { k: K, scorer, exact: false };
            let answers =
                engine.knn(&[KnnTarget::Vector(qs[i].clone())], params).expect("hnsw query");
            let hit = truth[i]
                .iter()
                .filter(|id| answers[0].neighbors.iter().any(|(g, _)| g == *id))
                .count();
            recall_total += hit as f64 / K as f64;
        });
        let recall_at_k = recall_total / hnsw_queries as f64;
        let exact_stats = time_queries(exact_queries, |i| {
            let params = KnnParams { k: K, scorer, exact: true };
            let _ = engine.knn(&[KnnTarget::Vector(qs[i].clone())], params).expect("exact query");
        });
        eprintln!(
            "bench_serve: {:>4}: build {build_ms:.0} ms | hnsw {:.0} qps | exact {:.0} qps | \
             recall@{K} {recall_at_k:.4} | {store_bytes} scan bytes",
            precision.name(),
            hnsw_stats.qps,
            exact_stats.qps,
        );
        points.push(PrecisionPoint {
            precision: precision.name().to_string(),
            build_ms,
            hnsw_qps: hnsw_stats.qps,
            exact_qps: exact_stats.qps,
            recall_at_k,
            store_bytes,
            file_bytes,
        });
    }
    let exact_qps_of = |name: &str| {
        points.iter().find(|p| p.precision == name).map(|p| p.exact_qps).unwrap_or(f64::NAN)
    };
    let int8_speedup = exact_qps_of("int8") / exact_qps_of("f32");

    eprintln!("bench_serve: int8 exact speedup {int8_speedup:.2}x over f32");

    PrecisionReport { nodes, hnsw_queries, exact_queries, rerank_factor, points, int8_speedup }
}

/// Scale knobs for one [`measure`] run: the full bench and the CI smoke
/// run the same code at different sizes.
struct MeasurePlan {
    nodes: usize,
    queries: usize,
    http_queries: usize,
    sweep_nodes: usize,
    sweep_connections: &'static [usize],
    sweep_total: usize,
    baseline_requests: usize,
    precision_nodes: usize,
    precision_hnsw_queries: usize,
    precision_exact_queries: usize,
}

/// Runs the engine + HTTP measurements for one store size. Returns the
/// report (without writing anything).
fn measure(plan: &MeasurePlan) -> Report {
    let &MeasurePlan {
        nodes,
        queries,
        http_queries,
        sweep_nodes,
        sweep_connections,
        sweep_total,
        baseline_requests,
        precision_nodes,
        precision_hnsw_queries,
        precision_exact_queries,
    } = plan;
    let scorer = Scorer::Cosine;
    eprintln!("bench_serve: building store ({nodes} x {DIM}) and HNSW index");
    let store = synthetic_store(nodes, DIM, SEED);
    let build_started = Instant::now();
    let index = HnswIndex::build(&store, scorer, HnswConfig::default());
    let build_ms = build_started.elapsed().as_secs_f64() * 1e3;
    eprintln!("bench_serve: built in {build_ms:.1} ms ({} edges)", index.num_edges());

    let qs = synthetic_queries(queries, DIM, SEED);
    let recall_at_k = recall(&store, &index, &qs, K);
    eprintln!("bench_serve: recall@{K} = {recall_at_k:.4}");

    let hnsw_stats = time_queries(qs.len(), |i| {
        let _ = index.knn(&store, &qs[i], K);
    });
    let exact_stats = time_queries(qs.len(), |i| {
        let _ = knn_exact(&store, &qs[i], K, scorer);
    });
    eprintln!(
        "bench_serve: hnsw {:.0} qps (p50 {:.0} us) | exact {:.0} qps (p50 {:.0} us)",
        hnsw_stats.qps, hnsw_stats.p50_us, exact_stats.qps, exact_stats.p50_us
    );

    // End-to-end HTTP on the main store: one-shot round-trips (`http`,
    // connect + parse + search + serialize per request) and the same route
    // over a single persistent connection (`http_keepalive`). The default
    // config has a zero batch window, so serial traffic never lingers.
    let engine = Arc::new(
        QueryEngine::new(store, index, None, EngineLimits::default(), coane_obs::Obs::enabled())
            .expect("engine"),
    );
    let server = HttpServer::bind(
        Arc::clone(&engine),
        ServerConfig { addr: "127.0.0.1:0".into(), threads: 2, ..Default::default() },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let http_qs = synthetic_queries(http_queries, DIM, SEED ^ 0x177);
    let http_stats = time_queries(http_qs.len(), |i| {
        let body = knn_body(&http_qs[i], false);
        let (status, _) = http_request(&addr, "POST", "/knn", &body).expect("http knn");
        assert_eq!(status, 200, "http knn returned {status}");
    });
    let mut keepalive_client = HttpClient::new(addr.clone());
    let http_keepalive = time_queries(http_qs.len(), |i| {
        let body = knn_body(&http_qs[i], false);
        let (status, _) = keepalive_client.request("POST", "/knn", &body).expect("keepalive knn");
        assert_eq!(status, 200, "keepalive knn returned {status}");
    });
    drop(keepalive_client);
    let (status, _) = http_request(&addr, "POST", "/shutdown", "").expect("http shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("server run");
    eprintln!(
        "bench_serve: http {:.0} qps (p50 {:.0} us) | keep-alive {:.0} qps (p50 {:.0} us)",
        http_stats.qps, http_stats.p50_us, http_keepalive.qps, http_keepalive.p50_us
    );

    // Concurrency sweep on its own larger store, where the exact kernel
    // dominates per-request overhead (see module docs). Baseline first —
    // one request per connection, the pre-keep-alive serve path — then N
    // persistent clients whose concurrent queries coalesce into shared
    // matmul passes.
    eprintln!("bench_serve: building sweep store ({sweep_nodes} x {DIM}) and index");
    let sweep_store = synthetic_store(sweep_nodes, DIM, SEED ^ 0x51EE);
    let sweep_index = HnswIndex::build(&sweep_store, scorer, HnswConfig::default());
    let sweep_engine = Arc::new(
        QueryEngine::new(
            sweep_store,
            sweep_index,
            None,
            EngineLimits::default(),
            coane_obs::Obs::enabled(),
        )
        .expect("sweep engine"),
    );
    let max_connections = sweep_connections.iter().copied().max().unwrap_or(1);
    let server = HttpServer::bind(
        Arc::clone(&sweep_engine),
        ServerConfig { addr: "127.0.0.1:0".into(), threads: max_connections, ..Default::default() },
    )
    .expect("bind sweep server");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let baseline_ids = synthetic_ids(baseline_requests, sweep_nodes, SEED ^ 0x2EE);
    let baseline_stats = time_queries(baseline_ids.len(), |i| {
        let body = knn_id_body(baseline_ids[i]);
        let (status, _) = http_request(&addr, "POST", "/knn", &body).expect("baseline knn");
        assert_eq!(status, 200, "baseline knn returned {status}");
    });
    eprintln!(
        "bench_serve: per-request exact baseline {:.0} qps (p50 {:.0} us)",
        baseline_stats.qps, baseline_stats.p50_us
    );
    let mut points = Vec::with_capacity(sweep_connections.len());
    for &connections in sweep_connections {
        let point = sweep_point(&addr, connections, sweep_total, sweep_nodes);
        eprintln!(
            "bench_serve: sweep {connections} conn: {:.0} qps (p50 {:.0} us, p99 {:.0} us, shed {})",
            point.qps, point.p50_us, point.p99_us, point.shed
        );
        points.push(point);
    }
    let (status, _) = http_request(&addr, "POST", "/shutdown", "").expect("sweep shutdown");
    assert_eq!(status, 200);
    handle.join().expect("sweep server thread").expect("sweep server run");
    let best_qps = points.iter().map(|p| p.qps).fold(0.0, f64::max);
    let concurrency = ConcurrencyReport {
        sweep_nodes,
        baseline_qps: baseline_stats.qps,
        batched_speedup: best_qps / baseline_stats.qps,
        points,
    };
    eprintln!(
        "bench_serve: micro-batched speedup {:.2}x over per-request exact baseline",
        concurrency.batched_speedup
    );

    let precisions =
        measure_precisions(precision_nodes, precision_hnsw_queries, precision_exact_queries);

    Report {
        nodes,
        dim: DIM,
        k: K,
        queries,
        http_queries,
        seed: SEED,
        scorer: scorer.name().to_string(),
        build_ms,
        recall_at_k,
        hnsw: hnsw_stats,
        exact: exact_stats,
        http: http_stats,
        http_keepalive,
        concurrency,
        precisions,
    }
}

fn run_full() {
    pool::set_threads(4);
    let report = measure(&MeasurePlan {
        nodes: NODES,
        queries: QUERIES,
        http_queries: HTTP_QUERIES,
        sweep_nodes: SWEEP_NODES,
        sweep_connections: SWEEP_CONNECTIONS,
        sweep_total: SWEEP_REQUESTS,
        baseline_requests: BASELINE_REQUESTS,
        precision_nodes: PRECISION_NODES,
        precision_hnsw_queries: PRECISION_HNSW_QUERIES,
        precision_exact_queries: PRECISION_EXACT_QUERIES,
    });
    assert!(
        report.recall_at_k >= RECALL_FLOOR,
        "recall@{K} = {:.4} below the {RECALL_FLOOR} floor",
        report.recall_at_k
    );
    assert!(
        report.concurrency.batched_speedup >= SPEEDUP_FLOOR,
        "micro-batched throughput is only {:.2}x the per-request baseline (need {SPEEDUP_FLOOR}x)",
        report.concurrency.batched_speedup
    );
    for p in &report.precisions.points {
        assert!(
            p.recall_at_k >= RECALL_FLOOR,
            "{} recall@{K} = {:.4} below the {RECALL_FLOOR} floor at {PRECISION_NODES} nodes",
            p.precision,
            p.recall_at_k
        );
    }
    assert!(
        report.precisions.int8_speedup >= INT8_SPEEDUP_FLOOR,
        "int8 brute-force is only {:.2}x f32 (need {INT8_SPEEDUP_FLOOR}x)",
        report.precisions.int8_speedup
    );
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(json_path(), format!("{json}\n")).expect("write BENCH_serve.json");
    eprintln!("bench_serve: wrote {}", json_path());
    println!("{json}");
}

/// Smoke mode for CI: a small live run (store + index + recall + one HTTP
/// round-trip) plus validation of the committed `BENCH_serve.json` against
/// this binary's constants.
fn run_smoke() {
    pool::set_threads(2);
    // The precision sweep reuses the same tiny store size — a live spin of
    // all three precisions through build/query/rerank without the 100k
    // stores, keeping smoke well under the CI timeout; the full-size
    // numbers are validated from the committed report below.
    let report = measure(&MeasurePlan {
        nodes: 300,
        queries: 32,
        http_queries: 8,
        sweep_nodes: 300,
        sweep_connections: &[1, 2],
        sweep_total: 16,
        baseline_requests: 8,
        precision_nodes: 300,
        precision_hnsw_queries: 16,
        precision_exact_queries: 8,
    });
    if report.recall_at_k < SMOKE_RECALL_FLOOR {
        fail(&format!(
            "smoke recall@{K} = {:.4} below the {SMOKE_RECALL_FLOOR} floor",
            report.recall_at_k
        ));
    }
    // The tiny smoke sweep exercises the coalescing path; it is far too
    // small to gate a speedup, but every request must complete.
    for p in &report.concurrency.points {
        if p.shed > 0 {
            fail(&format!("smoke sweep shed {} requests at default queue_cap", p.shed));
        }
    }
    // Quantized recall on the tiny store (brute-force fetch + rerank covers
    // a large fraction of 300 rows, so only gross breakage can fail this).
    for p in &report.precisions.points {
        if p.recall_at_k < SMOKE_RECALL_FLOOR {
            fail(&format!(
                "smoke {} recall@{K} = {:.4} below the {SMOKE_RECALL_FLOOR} floor",
                p.precision, p.recall_at_k
            ));
        }
    }
    eprintln!("smoke: live serving path ok (recall@{K} {:.4})", report.recall_at_k);

    let text = match std::fs::read_to_string(json_path()) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read {}: {e}", json_path())),
    };
    let committed: Report = match serde_json::from_str(&text) {
        Ok(r) => r,
        Err(e) => fail(&format!("malformed BENCH_serve.json: {e}")),
    };
    if committed.nodes != NODES
        || committed.dim != DIM
        || committed.k != K
        || committed.queries != QUERIES
        || committed.http_queries != HTTP_QUERIES
        || committed.seed != SEED
    {
        fail("BENCH_serve.json header does not match the bench constants (stale file?)");
    }
    if committed.recall_at_k < RECALL_FLOOR {
        fail(&format!(
            "BENCH_serve.json recall@{K} = {:.4} below the {RECALL_FLOOR} floor",
            committed.recall_at_k
        ));
    }
    for (name, s) in [
        ("hnsw", &committed.hnsw),
        ("exact", &committed.exact),
        ("http", &committed.http),
        ("http_keepalive", &committed.http_keepalive),
    ] {
        let finite = [s.qps, s.p50_us, s.p99_us].iter().all(|x| x.is_finite() && *x > 0.0);
        if !finite {
            fail(&format!("BENCH_serve.json {name} stats are non-positive"));
        }
        if s.p50_us > s.p99_us {
            fail(&format!("BENCH_serve.json {name} p50 exceeds p99"));
        }
    }
    if !(committed.build_ms.is_finite() && committed.build_ms > 0.0) {
        fail("BENCH_serve.json build_ms is non-positive");
    }
    let conc = &committed.concurrency;
    if conc.sweep_nodes != SWEEP_NODES {
        fail("BENCH_serve.json concurrency.sweep_nodes does not match the bench constants");
    }
    if !(conc.baseline_qps.is_finite() && conc.baseline_qps > 0.0) {
        fail("BENCH_serve.json concurrency.baseline_qps is non-positive");
    }
    if conc.points.is_empty() {
        fail("BENCH_serve.json concurrency sweep has no points");
    }
    let mut best_qps: f64 = 0.0;
    for (i, p) in conc.points.iter().enumerate() {
        if !([p.qps, p.p50_us, p.p99_us].iter().all(|x| x.is_finite() && *x > 0.0)) {
            fail(&format!("BENCH_serve.json sweep point {i} has non-positive stats"));
        }
        if p.p50_us > p.p99_us {
            fail(&format!("BENCH_serve.json sweep point {i} p50 exceeds p99"));
        }
        if i > 0 && p.connections <= conc.points[i - 1].connections {
            fail("BENCH_serve.json sweep connections are not strictly increasing");
        }
        best_qps = best_qps.max(p.qps);
    }
    if conc.batched_speedup < SPEEDUP_FLOOR {
        fail(&format!(
            "BENCH_serve.json batched_speedup {:.2} below the {SPEEDUP_FLOOR} floor",
            conc.batched_speedup
        ));
    }
    // The recorded speedup must actually follow from the recorded points.
    let recomputed = best_qps / conc.baseline_qps;
    if (recomputed - conc.batched_speedup).abs() > 0.1 * conc.batched_speedup {
        fail(&format!(
            "BENCH_serve.json batched_speedup {:.2} inconsistent with points ({recomputed:.2})",
            conc.batched_speedup
        ));
    }

    // Per-precision section: both precisions at the full sweep size, every
    // recall at the full floor, a shrinking scan footprint, and an int8
    // speedup that clears the floor *and* follows from its points.
    let prec = &committed.precisions;
    if prec.nodes != PRECISION_NODES {
        fail("BENCH_serve.json precisions.nodes does not match the bench constants");
    }
    let names: Vec<&str> = prec.points.iter().map(|p| p.precision.as_str()).collect();
    if names != ["f32", "int8"] {
        fail(&format!("BENCH_serve.json precisions are {names:?}, want [f32, int8]"));
    }
    for p in &prec.points {
        let finite =
            [p.hnsw_qps, p.exact_qps, p.build_ms].iter().all(|x| x.is_finite() && *x > 0.0);
        if !finite {
            fail(&format!("BENCH_serve.json {} precision stats are non-positive", p.precision));
        }
        if p.recall_at_k < RECALL_FLOOR {
            fail(&format!(
                "BENCH_serve.json {} recall@{K} = {:.4} below the {RECALL_FLOOR} floor",
                p.precision, p.recall_at_k
            ));
        }
        if p.store_bytes == 0 || p.file_bytes == 0 {
            fail(&format!("BENCH_serve.json {} byte counts are zero", p.precision));
        }
    }
    let point = |name: &str| {
        prec.points.iter().find(|p| p.precision == name).expect("precision names checked above")
    };
    let (f32_point, int8_point) = (point("f32"), point("int8"));
    if f32_point.store_bytes <= int8_point.store_bytes {
        fail("BENCH_serve.json precision scan footprints must shrink f32 > int8");
    }
    if prec.int8_speedup < INT8_SPEEDUP_FLOOR {
        fail(&format!(
            "BENCH_serve.json int8_speedup {:.2} below the {INT8_SPEEDUP_FLOOR} floor",
            prec.int8_speedup
        ));
    }
    let recomputed = int8_point.exact_qps / f32_point.exact_qps;
    if (recomputed - prec.int8_speedup).abs() > 0.1 * prec.int8_speedup {
        fail(&format!(
            "BENCH_serve.json int8_speedup {:.2} inconsistent with points ({recomputed:.2})",
            prec.int8_speedup
        ));
    }
    eprintln!("smoke: BENCH_serve.json valid (recall@{K} {:.4})", committed.recall_at_k);
    println!(
        "{{\"smoke\":\"ok\",\"recall_at_k\":{:.4},\"committed_recall_at_k\":{:.4}}}",
        report.recall_at_k, committed.recall_at_k
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_serve --smoke: {msg}");
    std::process::exit(1);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        run_smoke();
    } else {
        run_full();
    }
}
