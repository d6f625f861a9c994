//! Set-up and training: graph generation, the held-out edge split, the
//! CoANE fit, and the serving store and index built from its embedding;
//! plus the traced replay of the training layers, timed call by call.

use std::time::Instant;

use coane_core::{embed_nodes, CacheMode, Coane, CoaneConfig, CoaneModel, ContextRowCache, Obs};
use coane_datasets::{scale_graph, Preset, ScaleConfig};
use coane_graph::{AttributedGraph, EdgeSplit, GraphBuilder, NodeAttributes, NodeId, SplitConfig};
use coane_nn::{Matrix, Scorer};
use coane_serve::{EmbeddingStore, HnswConfig, HnswIndex};
use coane_walks::{
    CoMatrices, ContextSet, ContextsConfig, ContextualNegativeSampler, PositivePairs, WalkConfig,
    Walker,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::stats::{embed_hash, median, timed};
use crate::{Metrics, Spec};

/// Worker threads for training and the serving pool: the host has two
/// cores, and the config default of four would oversubscribe them.
pub const THREADS: usize = 2;
/// Cache budget per node on the streaming path, bytes — far below the
/// materialized context-row cache, so the budget ladder leaves the first
/// rung.
const BUDGET_PER_NODE: usize = 100;
const WALK_BLOCK: usize = 4096;
const COOCC_BLOCK: usize = 2048;

pub fn generate(spec: &Spec, seed: u64) -> AttributedGraph {
    match spec.nodes {
        None => Preset::Cora.generate(seed).0,
        Some(n) => scale_graph(&ScaleConfig { seed, ..ScaleConfig::with_nodes(n) }).0,
    }
}

pub fn train_config(spec: &Spec, nodes: usize, seed: u64) -> CoaneConfig {
    let streaming = spec.nodes.is_some();
    CoaneConfig {
        epochs: spec.epochs,
        threads: THREADS,
        walk_block_size: if streaming { WALK_BLOCK } else { 0 },
        coocc_block_size: if streaming { COOCC_BLOCK } else { 0 },
        max_cache_bytes: if streaming { nodes * BUDGET_PER_NODE } else { 0 },
        seed,
        ..Default::default()
    }
}

/// One fit: embedding, model, and timings read from outside the call.
pub struct Fit {
    pub z: Matrix,
    pub model: CoaneModel,
    pub wall_s: f64,
    /// Sum of the trainer's per-epoch seconds (prepare and renewal excluded).
    pub epochs_s: f64,
    /// Seconds from the fit call to each epoch callback.
    pub marks: Vec<f64>,
}

pub fn fit(cfg: &CoaneConfig, graph: &AttributedGraph, obs: Obs) -> Fit {
    let trainer = Coane::new(cfg.clone()).with_observer(obs);
    let started = Instant::now();
    let mut marks = Vec::new();
    let (z, model, stats) = trainer
        .try_fit_full(graph, None, |_, _| marks.push(started.elapsed().as_secs_f64()))
        .expect("training succeeds on generated graphs");
    let wall_s = started.elapsed().as_secs_f64();
    Fit { z, model, wall_s, epochs_s: stats.epoch_seconds.iter().sum(), marks }
}

/// Everything one set-up produces; the serving phases use the last one.
pub struct Setup {
    pub graph: AttributedGraph,
    pub split: EdgeSplit,
    pub cfg: CoaneConfig,
    pub fit: Fit,
    pub store: EmbeddingStore,
    pub index: HnswIndex,
    pub generate_s: f64,
    pub store_build_s: f64,
    pub hnsw_build_s: f64,
    pub setup_s: f64,
}

pub fn setup(spec: &Spec, seed: u64, obs: &Obs) -> Setup {
    let started = Instant::now();
    let (generate_s, graph) = timed(|| generate(spec, seed));
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5_9117);
    let split =
        EdgeSplit::new(&graph, SplitConfig { train: 0.85, validation: 0.0, test: 0.15 }, &mut rng);
    let cfg = train_config(spec, graph.num_nodes(), seed);
    let fit = fit(&cfg, &split.train_graph, obs.clone());
    let dim = fit.z.cols();
    let (store_build_s, store) = timed(|| {
        EmbeddingStore::new(fit.z.as_slice().to_vec(), dim, None, spec.name)
            .and_then(|s| s.with_precision(spec.precision))
            .expect("trained embedding makes a valid store")
    });
    let hnsw = HnswConfig { m: spec.hnsw_m, ..HnswConfig::default() };
    let (hnsw_build_s, index) = timed(|| HnswIndex::build(&store, Scorer::Cosine, hnsw));
    let setup_s = started.elapsed().as_secs_f64();
    Setup { graph, split, cfg, fit, store, index, generate_s, store_build_s, hnsw_build_s, setup_s }
}

/// Held-out link prediction: a logistic regression on Hadamard features of
/// the training edges, scored by ROC-AUC on the held-out test edges.
pub fn linkpred_auc(s: &Setup) -> f64 {
    coane_eval::link_prediction_auc(
        s.fit.z.as_slice(),
        s.fit.z.cols(),
        &s.split.train_pos,
        &s.split.train_neg,
        &s.split.test_pos,
        &s.split.test_neg,
    )
}

/// The training half of the end-to-end metrics: `reps` set-ups, each
/// checked for a finite embedding whose hash matches the first. Set-up
/// time is their median. Fit time and throughput come from the fastest
/// fit: a fit is CPU-bound, and on a two-core host a slower one measures
/// where the scheduler put its threads.
pub struct TrainReport {
    pub last: Setup,
    pub setup_s: f64,
    pub fit_s: f64,
    pub nodes_per_s: f64,
    pub hash: u64,
    pub hashes_equal: bool,
    pub finite: bool,
}

pub fn train_reps(spec: &Spec, seed: u64, reps: usize) -> TrainReport {
    let (mut setup_s, mut fit_s, mut nps, mut hashes) = (vec![], vec![], vec![], vec![]);
    let mut finite = true;
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let s = setup(spec, seed, &Obs::disabled());
        setup_s.push(s.setup_s);
        fit_s.push(s.fit.wall_s);
        let n = s.split.train_graph.num_nodes();
        nps.push((n * s.cfg.epochs) as f64 / s.fit.epochs_s);
        finite &= s.fit.z.as_slice().iter().all(|x| x.is_finite());
        hashes.push(embed_hash(s.fit.z.as_slice()));
        last = Some(s);
    }
    eprintln!("perfbench: set-up s {setup_s:.3?}, fit s {fit_s:.3?}");
    TrainReport {
        last: last.expect("at least one set-up"),
        setup_s: median(&setup_s),
        fit_s: fit_s.iter().copied().fold(f64::INFINITY, f64::min),
        nodes_per_s: nps.iter().copied().fold(0.0, f64::max),
        hash: hashes[0],
        hashes_equal: hashes.iter().all(|&h| h == hashes[0]),
        finite,
    }
}

/// A node unseen in training: sparse attributes and edges into the graph.
pub type NewNode = (Vec<(u32, f32)>, Vec<NodeId>);

/// The extended graph `/encode` builds: `base` plus one node per request
/// entry with the given attributes and edges.
pub fn extend_graph(base: &AttributedGraph, nodes: &[NewNode]) -> AttributedGraph {
    let n = base.num_nodes();
    let mut b = GraphBuilder::new(n + nodes.len(), base.attr_dim());
    for (u, v, w) in base.edges() {
        b.add_edge(u, v, w);
    }
    let mut rows: Vec<Vec<(u32, f32)>> = (0..n as NodeId)
        .map(|v| {
            let (idx, val) = base.attrs().row(v);
            idx.iter().copied().zip(val.iter().copied()).collect()
        })
        .collect();
    for (k, (attrs, edges)) in nodes.iter().enumerate() {
        for &e in edges {
            b.add_edge((n + k) as NodeId, e, 1.0);
        }
        rows.push(attrs.clone());
    }
    b.with_attrs(NodeAttributes::from_sparse_rows(base.attr_dim(), &rows)).build()
}

/// Per-layer training metrics: each pre-processing layer called on its own
/// with the trainer's exact parameters, then a traced fit whose epochs are
/// timed by callback and whose internals are read from `coane_obs`.
pub fn trace_training(s: &Setup, m: &mut Metrics) -> f64 {
    let graph = &s.split.train_graph;
    let cfg = &s.cfg;
    let n = graph.num_nodes();
    let walker = Walker::new(
        graph,
        WalkConfig {
            walks_per_node: cfg.walks_per_node,
            walk_length: cfg.walk_length,
            p: 1.0,
            q: 1.0,
            seed: cfg.seed,
        },
    );
    let ctx_cfg = ContextsConfig {
        context_size: cfg.context_size,
        subsample_t: cfg.subsample_t,
        seed: cfg.seed ^ 0x51_7e,
    };
    let streaming = cfg.walk_block_size > 0;
    let mut steps = 0u64;
    // Walks alone; on the streaming path the context builder regenerates
    // them itself, so only `contexts_s` lies on the blocking path there.
    let (walks_s, walks) = if streaming {
        timed(|| {
            walker.stream_blocks(cfg.walk_block_size, 2, |_, block| {
                steps += block.iter().map(|w| w.len() as u64).sum::<u64>();
            });
            Vec::new()
        })
    } else {
        let out = timed(|| walker.generate_all(cfg.threads));
        steps = out.1.iter().map(|w| w.len() as u64).sum();
        out
    };
    let (contexts_s, contexts) = if streaming {
        timed(|| ContextSet::build_streamed(&walker, n, cfg.walk_block_size, &ctx_cfg))
    } else {
        timed(|| ContextSet::build(&walks, n, &ctx_cfg))
    };
    drop(walks);
    // The trainer shares the context set with the cache's rebuild rung.
    let contexts = std::sync::Arc::new(contexts);
    let (cooc_s, co) = if streaming {
        timed(|| CoMatrices::build_blocked(&contexts, graph, cfg.coocc_block_size))
    } else {
        timed(|| CoMatrices::build(&contexts, graph))
    };
    let (pairs_s, _pairs) = timed(|| PositivePairs::select(&co, contexts.max_count().max(1)));
    let (sampler_s, _sampler) = timed(|| ContextualNegativeSampler::new(&contexts));
    let (cache_s, cache) = timed(|| {
        if cfg.max_cache_bytes > 0 {
            ContextRowCache::build_budgeted(graph, &contexts, cfg.encoder, cfg.max_cache_bytes)
        } else {
            ContextRowCache::build(graph, &contexts, cfg.encoder)
        }
    });
    let prepare_outside =
        if streaming { 0.0 } else { walks_s } + contexts_s + cooc_s + pairs_s + sampler_s + cache_s;
    m.insert("walks.walks_s", (walks_s, "s"));
    m.insert("walks.contexts_s", (contexts_s, "s"));
    m.insert("walks.cooccurrence_s", (cooc_s, "s"));
    m.insert("walks.sampler_s", (sampler_s, "s"));
    m.insert("walks.steps", (steps as f64, "count"));
    m.insert("walks.contexts_kept", (contexts.num_contexts() as f64, "count"));
    m.insert(
        "walks.subsample_keep_frac",
        (contexts.num_contexts() as f64 / steps as f64, "fraction"),
    );
    m.insert("walks.nnz_d", (co.d.nnz() as f64, "count"));
    m.insert("core.cache_build_s", (cache_s, "s"));
    let mode = match cache.mode() {
        CacheMode::Materialized => 0.0,
        CacheMode::Compressed => 1.0,
        CacheMode::Rebuild => 2.0,
    };
    m.insert("core.cache_mode", (mode, "code"));
    m.insert("core.cache_resident_mb", (cache.resident_bytes() as f64 / (1 << 20) as f64, "MiB"));
    drop((contexts, co, cache));

    // Untraced, then traced: the difference is the tracing overhead.
    let plain = fit(cfg, graph, Obs::disabled());
    let obs = Obs::enabled();
    let traced = fit(cfg, graph, obs.clone());
    m.insert("obs.tracing_overhead_frac", (traced.wall_s / plain.wall_s - 1.0, "fraction"));
    let prepare_in_fit = obs.scope_stat("fit/prepare").map_or(0.0, |st| st.total.as_secs_f64());
    let renew = obs.scope_stat("fit/epoch/renew").expect("renew scope recorded");
    let renew_s = renew.total.as_secs_f64() / renew.calls.max(1) as f64;
    let first_epoch_s = traced.marks[0] - prepare_in_fit;
    let later: Vec<f64> = traced.marks.windows(2).map(|w| w[1] - w[0]).collect();
    let epoch_s = if later.is_empty() { first_epoch_s } else { median(&later) };
    m.insert("core.first_epoch_s", (first_epoch_s, "s"));
    m.insert("core.epoch_s", (epoch_s, "s"));
    m.insert("core.renew_s", (renew_s, "s"));
    m.insert("core.train_step_s", (epoch_s - renew_s, "s"));
    let occupancy = obs.gauge_stat("prefetch/occupancy").map_or(0.0, |g| g.mean());
    m.insert("core.prefetch_occupancy", (occupancy, "batches"));
    m.insert("core.batches", (obs.counter("train/batches") as f64, "count"));

    let sample: Vec<NodeId> = (0..n.min(2000) as NodeId).collect();
    let (infer_s, _) = timed(|| embed_nodes(&traced.model, cfg, graph, &sample));
    m.insert("core.infer_nodes_per_s", (sample.len() as f64 / infer_s, "nodes/s"));

    // Blocking path of the fit: pre-processing layers (timed outside) plus
    // every epoch with its renewal (timed by callback, prepare removed).
    let path_s = prepare_outside + traced.marks.last().copied().unwrap_or(0.0) - prepare_in_fit;
    path_s / traced.wall_s
}

/// Dense decoder matmuls at the trainer's shapes, and the int8 scan over the
/// serving store's codes.
pub fn trace_kernels(s: &Setup, m: &mut Metrics) {
    let cfg = &s.cfg;
    let (b, d) = (cfg.batch_size, cfg.embed_dim);
    let (h1, h2) = cfg.decoder_hidden;
    let attrs = s.graph.attr_dim();
    let shapes = [(b, d, h1), (b, h1, h2), (b, h2, attrs)];
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x6e6e);
    let mut rand_matrix = |r: usize, c: usize| {
        use rand::Rng;
        Matrix::from_vec(r, c, (0..r * c).map(|_| rng.gen::<f32>() - 0.5).collect())
    };
    let operands: Vec<(Matrix, Matrix)> =
        shapes.iter().map(|&(m_, k, n_)| (rand_matrix(m_, k), rand_matrix(k, n_))).collect();
    let flops_per_round: f64 = shapes.iter().map(|&(a, k, c)| 2.0 * (a * k * c) as f64).sum();
    let mut rates = Vec::new();
    for _ in 0..5 {
        let (secs, _) = timed(|| {
            for _ in 0..4 {
                for (a, bm) in &operands {
                    std::hint::black_box(a.matmul(bm));
                }
            }
        });
        rates.push(4.0 * flops_per_round / secs / 1e9);
    }
    m.insert("nn.matmul_gflops", (median(&rates), "GFLOP/s"));

    let dim = s.store.dim();
    let rows = s.store.len();
    let mut codes: Vec<i8> = Vec::with_capacity(rows * dim);
    for r in 0..rows {
        codes.extend(coane_nn::qkernels::quantize_i8_row(s.store.row(r)).0);
    }
    let q = coane_nn::qkernels::quantize_i8_row(s.store.row(0)).0;
    let mut out = vec![0i32; rows];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let (secs, _) = timed(|| {
            for _ in 0..8 {
                coane_nn::qkernels::i8_dot_scan(&codes, &q, dim, &mut out);
                std::hint::black_box(&out);
            }
        });
        rates.push(8.0 * codes.len() as f64 / secs / 1e9);
    }
    m.insert("nn.qscan_gbps", (median(&rates), "GB/s"));
    m.insert("nn.isa_level", (crate::stats::isa_level().1, "code"));
}
