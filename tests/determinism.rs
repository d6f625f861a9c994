//! Thread-count invariance: every parallel stage — walk generation, the
//! blocked matmul kernels, and the full `Coane::fit` pipeline — must produce
//! bit-identical results whether it runs on 1 worker or several. This is the
//! contract that makes `CoaneConfig::threads` a pure performance knob, and
//! the same contract extends to the batch-prefetch depth
//! (`prefetch_batches`) and the no-grad inference chunk size
//! (`infer_batch_size`).

use coane::nn::{pool, Matrix};
use coane::prelude::*;
use coane::walks::{WalkConfig, Walker};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn test_graph(seed: u64) -> AttributedGraph {
    let cfg = SocialCircleConfig {
        num_nodes: 150,
        num_communities: 3,
        circles_per_community: 2,
        attr_dim: 80,
        num_edges: 500,
        mixing: 0.1,
        ..Default::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    social_circle_graph(&cfg, &mut rng).0
}

#[test]
fn fit_is_bit_identical_across_thread_counts() {
    let graph = test_graph(7);
    let config = |threads: usize| CoaneConfig {
        embed_dim: 16,
        epochs: 3,
        context_size: 3,
        walk_length: 20,
        batch_size: 40,
        decoder_hidden: (32, 32),
        threads,
        ..Default::default()
    };
    let z1 = Coane::new(config(1)).fit(&graph);
    let z4 = Coane::new(config(4)).fit(&graph);
    assert_eq!(z1.as_slice(), z4.as_slice(), "embeddings differ between threads=1 and threads=4");
}

#[test]
fn fit_is_bit_identical_with_prefetch_on_or_off() {
    let graph = test_graph(7);
    let config = |prefetch_batches: usize, threads: usize| CoaneConfig {
        embed_dim: 16,
        epochs: 3,
        context_size: 3,
        walk_length: 20,
        batch_size: 40,
        decoder_hidden: (32, 32),
        threads,
        prefetch_batches,
        ..Default::default()
    };
    // Inline assembly (depth 0) is the reference; any pipeline depth and any
    // thread count must reproduce it exactly.
    let z_inline = Coane::new(config(0, 1)).fit(&graph);
    for (depth, threads) in [(1, 2), (2, 2), (2, 4), (8, 3)] {
        let z = Coane::new(config(depth, threads)).fit(&graph);
        assert_eq!(
            z_inline.as_slice(),
            z.as_slice(),
            "embeddings differ with prefetch_batches={depth}, threads={threads}"
        );
    }
}

#[test]
fn fit_is_bit_identical_across_infer_batch_sizes() {
    let graph = test_graph(7);
    let config = |infer_batch_size: usize| CoaneConfig {
        embed_dim: 16,
        epochs: 2,
        context_size: 3,
        walk_length: 20,
        batch_size: 40,
        decoder_hidden: (32, 32),
        threads: 2,
        infer_batch_size,
        ..Default::default()
    };
    let base = Coane::new(config(256)).fit(&graph);
    for ibs in [1, 7, 64, 10_000] {
        let z = Coane::new(config(ibs)).fit(&graph);
        assert_eq!(base.as_slice(), z.as_slice(), "embeddings differ at infer_batch_size={ibs}");
    }
}

#[test]
fn resume_with_prefetch_is_bit_identical() {
    let graph = test_graph(5);
    let config = |epochs: usize, prefetch_batches: usize| CoaneConfig {
        embed_dim: 16,
        epochs,
        context_size: 3,
        walk_length: 20,
        batch_size: 40,
        decoder_hidden: (32, 32),
        threads: 2,
        prefetch_batches,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join("coane_determinism_ckpt_prefetch");
    let _ = std::fs::remove_dir_all(&dir);
    // Interrupted run with a deep pipeline, resumed without one: the
    // prefetch depth is not part of the checkpoint fingerprint and must not
    // shift a bit of the trajectory.
    Coane::new(config(2, 4)).fit_resumable(&graph, &CheckpointConfig::new(&dir)).unwrap();
    let (z_resumed, stats) =
        Coane::new(config(4, 0)).fit_resumable(&graph, &CheckpointConfig::new(&dir)).unwrap();
    assert_eq!(stats.resumed_from_epoch, Some(2));
    let z_direct = Coane::new(config(4, 2)).fit(&graph);
    assert_eq!(z_resumed.as_slice(), z_direct.as_slice(), "resume with prefetch not bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Telemetry is observation-only: enabling the full observability stack —
/// scopes, counters, per-epoch records — must not shift a single bit of the
/// embedding at any thread count. This is the zero-interference contract
/// that lets production runs keep `--metrics-json` on.
#[test]
fn fit_is_bit_identical_with_telemetry_on_or_off() {
    let graph = test_graph(7);
    let config = |threads: usize| CoaneConfig {
        embed_dim: 16,
        epochs: 3,
        context_size: 3,
        walk_length: 20,
        batch_size: 40,
        decoder_hidden: (32, 32),
        threads,
        ..Default::default()
    };
    let reference = Coane::new(config(1)).fit(&graph);
    for threads in [1usize, 4] {
        let obs = Obs::enabled();
        let z = Coane::try_new(config(threads))
            .unwrap()
            .with_observer(obs.clone())
            .try_fit(&graph)
            .unwrap();
        assert_eq!(
            reference.as_slice(),
            z.as_slice(),
            "telemetry perturbed the embedding at threads={threads}"
        );
        // The observer must have actually observed: a silent no-op collector
        // would make this test vacuous.
        assert_eq!(obs.events_of("epoch").len(), 3, "missing per-epoch records");
        assert!(obs.counter("train/batches") > 0, "no batch counter recorded");
        assert!(obs.scope_stat("fit").is_some(), "no fit scope recorded");
        assert!(obs.scope_stat("fit/prepare/walks").is_some(), "no nested walk scope");
    }
}

/// Same contract for inductive inference: `embed_nodes_obs` with a live
/// collector reproduces `embed_nodes` exactly.
#[test]
fn inference_is_bit_identical_with_telemetry_on_or_off() {
    let graph = test_graph(9);
    let config = CoaneConfig {
        embed_dim: 16,
        epochs: 2,
        context_size: 3,
        walk_length: 20,
        batch_size: 40,
        decoder_hidden: (32, 32),
        ..Default::default()
    };
    let (_, model, _) = Coane::new(config.clone()).fit_with_model(&graph);
    let nodes: Vec<u32> = (0..graph.num_nodes() as u32).step_by(5).collect();
    let plain = coane::core::embed_nodes(&model, &config, &graph, &nodes);
    let obs = Obs::enabled();
    let observed = coane::core::embed_nodes_obs(&model, &config, &graph, &nodes, &obs);
    assert_eq!(plain.as_slice(), observed.as_slice(), "telemetry perturbed inference");
    assert_eq!(obs.counter("infer/nodes"), nodes.len() as u64);
    assert!(obs.scope_stat("infer/contexts").is_some(), "no nested context scope");
}

/// Every pre-processing path reports the same stage scopes, and its
/// counters agree with the stage outputs: the walk counters with the walk
/// corpus, the context counters with the walk steps, and the
/// co-occurrence counters with a directly built `CoMatrices`.
#[test]
fn pipeline_telemetry_matches_stage_outputs_on_every_path() {
    use coane::core::batch::first_hop_walks;
    use coane::walks::{CoMatrices, ContextSet, ContextsConfig};

    let graph = test_graph(7);
    let base = CoaneConfig {
        embed_dim: 16,
        epochs: 1,
        context_size: 3,
        walks_per_node: 2,
        walk_length: 20,
        batch_size: 40,
        decoder_hidden: (32, 32),
        subsample_t: 1e-3,
        threads: 2,
        ..Default::default()
    };
    let streamed = CoaneConfig { walk_block_size: 64, coocc_block_size: 16, ..base.clone() };
    let first_hop = CoaneConfig { context_source: ContextSource::FirstHop, ..base.clone() };
    let n = graph.num_nodes();
    let walks = Walker::new(
        &graph,
        WalkConfig {
            walks_per_node: base.walks_per_node,
            walk_length: base.walk_length,
            p: 1.0,
            q: 1.0,
            seed: base.seed,
        },
    )
    .generate_all(1);
    let steps: u64 = walks.iter().map(|w| w.len() as u64).sum();

    let paths = [("materialized", &base), ("streamed", &streamed), ("first-hop", &first_hop)];
    for (name, cfg) in paths {
        let obs = Obs::enabled();
        Coane::try_new(cfg.clone()).unwrap().with_observer(obs.clone()).try_fit(&graph).unwrap();
        for scope in ["fit/prepare/contexts", "fit/prepare/cooccurrence"] {
            assert!(obs.scope_stat(scope).is_some(), "{name}: no {scope} scope");
        }
        // Streamed walks are generated inside the context scope.
        let walk_scope = obs.scope_stat("fit/prepare/walks").is_some();
        assert_eq!(walk_scope, name != "streamed", "{name}: walks scope presence");

        let is_first_hop = name == "first-hop";
        let corpus = if is_first_hop { first_hop_walks(&graph) } else { walks.clone() };
        let ctx_cfg = ContextsConfig {
            context_size: cfg.context_size,
            subsample_t: if is_first_hop { f64::INFINITY } else { cfg.subsample_t },
            seed: cfg.seed ^ 0x51_7e,
        };
        let contexts = ContextSet::build(&corpus, n, &ctx_cfg);
        let kept = obs.counter("contexts/kept");
        assert_eq!(kept, contexts.num_contexts() as u64, "{name}: contexts/kept");
        if !is_first_hop {
            assert_eq!(obs.counter("walks/count"), (cfg.walks_per_node * n) as u64, "{name}");
            assert_eq!(obs.counter("walks/steps"), steps, "{name}: walks/steps");
            let dropped = obs.counter("contexts/subsample_dropped");
            assert!(dropped > 0, "{name}: subsampling should drop some positions");
            assert_eq!(kept + dropped, steps, "{name}: kept + dropped != steps");
        }
        let co = CoMatrices::build(&contexts, &graph);
        assert_eq!(obs.counter("cooccurrence/nnz_d"), co.d.nnz() as u64, "{name}: nnz_d");
        assert_eq!(obs.counter("cooccurrence/nnz_d1"), co.d1.nnz() as u64, "{name}: nnz_d1");
    }
}

#[test]
fn walk_generation_is_bit_identical_across_thread_counts() {
    let graph = test_graph(11);
    let walker = Walker::new(
        &graph,
        WalkConfig { walks_per_node: 4, walk_length: 25, p: 0.5, q: 2.0, seed: 99 },
    );
    let w1 = walker.generate_all(1);
    let w4 = walker.generate_all(4);
    let w7 = walker.generate_all(7);
    assert_eq!(w1, w4, "walks differ between 1 and 4 threads");
    assert_eq!(w1, w7, "walks differ between 1 and 7 threads");
}

#[test]
fn matmul_kernels_are_bit_identical_across_thread_counts() {
    // Big enough that `pool::threads_for` actually engages the pool.
    let (m, k, n) = (257, 93, 65);
    let fill = |rows: usize, cols: usize, salt: u64| -> Matrix {
        let mut mat = Matrix::zeros(rows, cols);
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for x in mat.as_mut_slice() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Mix in exact zeros to exercise the skip paths.
            *x = if s.is_multiple_of(7) {
                0.0
            } else {
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            };
        }
        mat
    };
    let a = fill(m, k, 1);
    let b = fill(k, n, 2);
    let at = fill(k, m, 3); // lhs for matmul_tn (shared dim on rows)
    let c = fill(m, n, 4); // rhs sharing columns for matmul_nt

    pool::set_threads(1);
    let mm1 = a.matmul(&b);
    let tn1 = at.matmul_tn(&b);
    let nt1 = b.matmul_nt(&c); // (k×n)·(m×n)ᵀ
    for threads in [2, 4, 5] {
        pool::set_threads(threads);
        assert_eq!(mm1, a.matmul(&b), "matmul differs at {threads} threads");
        assert_eq!(tn1, at.matmul_tn(&b), "matmul_tn differs at {threads} threads");
        assert_eq!(nt1, b.matmul_nt(&c), "matmul_nt differs at {threads} threads");
    }
    pool::set_threads(1);
}
