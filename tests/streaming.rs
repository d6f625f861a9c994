//! Streaming / blocked / budgeted equivalence suite.
//!
//! The million-node scaling path (ISSUE 9) replaces three monolithic
//! pre-processing stages with bounded-memory equivalents:
//!
//! * streamed walk→context generation (`walk_block_size`),
//! * blocked co-occurrence accumulation (`coocc_block_size`),
//! * the budgeted context-row cache ladder (`max_cache_bytes`).
//!
//! Each is advertised as a *pure memory knob*: any setting must reproduce
//! the seed pipeline bit for bit, at any thread count, and must compose
//! with checkpoint/resume. This suite locks that contract end to end; the
//! per-stage unit tests live next to the stages themselves.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use coane::core::checkpoint::list_checkpoint_epochs;
use coane::core::{CacheMode, ContextRowCache, EncoderKind};
use coane::datasets::{scale_graph, ScaleConfig};
use coane::prelude::*;
use coane::walks::{CoMatrices, ContextSet, ContextsConfig, WalkConfig, Walker};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_graph() -> AttributedGraph {
    let cfg = SocialCircleConfig {
        num_nodes: 60,
        num_communities: 3,
        circles_per_community: 2,
        attr_dim: 40,
        num_edges: 180,
        mixing: 0.1,
        ..Default::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    social_circle_graph(&cfg, &mut rng).0
}

fn fast_config() -> CoaneConfig {
    CoaneConfig {
        embed_dim: 8,
        context_size: 3,
        walk_length: 12,
        walks_per_node: 2,
        epochs: 4,
        batch_size: 20,
        decoder_hidden: (16, 16),
        num_negatives: 3,
        subsample_t: 1e-3,
        threads: 1,
        ..Default::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("coane_streaming").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------------
// 1. Each knob alone: bit-identical embeddings at 1 and 4 threads.
// ---------------------------------------------------------------------------

#[test]
fn streamed_walk_training_is_bit_identical() {
    let g = small_graph();
    let reference = Coane::new(fast_config()).fit(&g);
    for threads in [1, 4] {
        for block in [1, 37, 1000] {
            let cfg = CoaneConfig { walk_block_size: block, threads, ..fast_config() };
            let z = Coane::new(cfg).fit(&g);
            assert_eq!(z, reference, "walk_block_size={block} threads={threads} diverged");
        }
    }
}

#[test]
fn blocked_cooccurrence_training_is_bit_identical() {
    let g = small_graph();
    let reference = Coane::new(fast_config()).fit(&g);
    for threads in [1, 4] {
        for block in [1, 13, 100_000] {
            let cfg = CoaneConfig { coocc_block_size: block, threads, ..fast_config() };
            let z = Coane::new(cfg).fit(&g);
            assert_eq!(z, reference, "coocc_block_size={block} threads={threads} diverged");
        }
    }
}

#[test]
fn budgeted_cache_training_is_bit_identical_on_every_rung() {
    let g = small_graph();

    // Read the unbudgeted cache's resident size off the telemetry stream so
    // the budgets below provably land off the materialized rung.
    let obs = Obs::enabled();
    let reference = Coane::new(fast_config()).with_observer(obs.clone()).fit(&g);
    let materialized_bytes = obs.counter("cache/resident_bytes");
    assert!(materialized_bytes > 0, "reference run did not report cache bytes");
    assert_eq!(obs.counter("cache/mode_materialized"), 1);

    for threads in [1, 4] {
        // (budget, the rung it must select)
        let cases = [
            (usize::MAX, "cache/mode_materialized"),
            (materialized_bytes as usize - 1, "cache/mode_rebuild"),
            (1usize, "cache/mode_rebuild"),
        ];
        for (budget, mode_counter) in cases {
            let obs = Obs::enabled();
            let cfg = CoaneConfig { max_cache_bytes: budget, threads, ..fast_config() };
            let z = Coane::new(cfg).with_observer(obs.clone()).fit(&g);
            assert_eq!(obs.counter(mode_counter), 1, "budget={budget} picked the wrong rung");
            assert_eq!(z, reference, "budget={budget} threads={threads} diverged");
        }
    }
}

// ---------------------------------------------------------------------------
// 2. All knobs together, including with the FC encoder ablation.
// ---------------------------------------------------------------------------

#[test]
fn combined_memory_knobs_are_bit_identical() {
    let g = small_graph();
    for encoder in [EncoderKind::Convolution, EncoderKind::FullyConnected] {
        let reference = Coane::new(CoaneConfig { encoder, ..fast_config() }).fit(&g);
        for threads in [1, 4] {
            let cfg = CoaneConfig {
                encoder,
                walk_block_size: 53,
                coocc_block_size: 29,
                max_cache_bytes: 1, // worst case: rebuild rung
                threads,
                ..fast_config()
            };
            let z = Coane::new(cfg).fit(&g);
            assert_eq!(z, reference, "{encoder:?} threads={threads} diverged");
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Kill + resume on the streaming path: a checkpoint written by a
//    streaming, budgeted run resumes bit-identically — and matches an
//    uninterrupted run of the seed (fully materialized) pipeline.
// ---------------------------------------------------------------------------

#[test]
fn streaming_kill_and_resume_is_bit_identical() {
    let g = small_graph();
    let dir = tmp_dir("kill_resume_streaming");
    let ck = CheckpointConfig::new(&dir);
    let streaming = |epochs, threads| CoaneConfig {
        walk_block_size: 17,
        coocc_block_size: 11,
        max_cache_bytes: 1,
        epochs,
        threads,
        ..fast_config()
    };

    // "Killed" after epoch 2 of 4 (same device as fault_injection.rs: a
    // completed shorter run leaves exactly the post-kill directory state).
    Coane::new(streaming(2, 1)).fit_resumable(&g, &ck).unwrap();
    assert!(list_checkpoint_epochs(&dir).unwrap().contains(&2));

    // Resume at a different thread count — memory knobs and threads are all
    // excluded from the config fingerprint, so this must be accepted.
    let (z_resumed, stats) = Coane::new(streaming(4, 4)).fit_resumable(&g, &ck).unwrap();
    assert_eq!(stats.resumed_from_epoch, Some(2));

    let z_direct = Coane::new(fast_config()).fit(&g);
    assert_eq!(z_resumed, z_direct, "streaming resume diverged from materialized run");
}

// ---------------------------------------------------------------------------
// 4. Stage-level equivalence on a scale-generator graph: the components the
//    trainer composes, exercised on the graph family the scaling path
//    actually targets (power-law degrees, hubs, isolated-free).
// ---------------------------------------------------------------------------

#[test]
fn scale_graph_stage_equivalence() {
    let (g, _) = scale_graph(&ScaleConfig {
        attr_dim: 64,
        attrs_per_node: 4,
        ..ScaleConfig::with_nodes(1500)
    });
    let walker = Walker::new(
        &g,
        WalkConfig { walks_per_node: 1, walk_length: 10, seed: 3, ..Default::default() },
    );
    let ctx_cfg = ContextsConfig { context_size: 5, subsample_t: 1e-3, seed: 9 };

    let walks = walker.generate_all(2);
    let reference = ContextSet::build(&walks, g.num_nodes(), &ctx_cfg);
    for block in [64, 1024] {
        let streamed = ContextSet::build_streamed(&walker, g.num_nodes(), block, &ctx_cfg);
        assert_eq!(streamed.num_contexts(), reference.num_contexts(), "block={block}");
        for v in 0..g.num_nodes() as u32 {
            assert_eq!(streamed.slots_of(v), reference.slots_of(v), "block={block} node={v}");
        }
    }

    let co_ref = CoMatrices::build(&reference, &g);
    for block_nodes in [100, 1 << 20] {
        let co = CoMatrices::build_blocked(&reference, &g, block_nodes);
        assert_eq!(co.d, co_ref.d, "block_nodes={block_nodes}");
        assert_eq!(co.d1, co_ref.d1, "block_nodes={block_nodes}");
        assert_eq!(co.d_tilde, co_ref.d_tilde, "block_nodes={block_nodes}");
    }

    // Cache rungs produce identical batches on hub-heavy degree profiles too.
    let contexts = Arc::new(reference);
    let unbounded = ContextRowCache::build(&g, &contexts, EncoderKind::Convolution);
    let nodes: Vec<u32> = (0..g.num_nodes() as u32).step_by(97).collect();
    for budget in [unbounded.resident_bytes() - 1, 1] {
        let cache =
            ContextRowCache::build_budgeted(&g, &contexts, EncoderKind::Convolution, budget);
        assert_ne!(cache.mode(), CacheMode::Materialized, "budget={budget}");
        let a = cache.batch(&g, &nodes);
        let b = unbounded.batch(&g, &nodes);
        assert_eq!(*a.rb, *b.rb, "budget={budget}");
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.x_target, b.x_target);
    }
}
