//! Golden-fixture snapshot tests: every intermediate of the CoANE pipeline
//! — walks, padded contexts, the co-occurrence matrices D and D¹, the
//! first-epoch loss, and the final embedding — is locked against committed
//! values computed on a committed 40-node graph
//! (`tests/fixtures/golden_graph.json`).
//!
//! These tests pin the *exact* bits. Any change to walk order, subsampling,
//! padding, counting, or training arithmetic shows up here first, which is
//! the point: numerical refactors must either be provably identity-preserving
//! or consciously re-bless the constants below (run with
//! `GOLDEN_PRINT=1 cargo test --test golden -- --nocapture` to print the
//! values a changed pipeline produces).

use std::path::Path;

use coane::graph::io as gio;
use coane::prelude::*;
use coane::walks::{CoMatrices, ContextSet, ContextsConfig, WalkConfig, Walker, PAD};

// ── committed golden values ────────────────────────────────────────────────

const GOLDEN_WALK_COUNT: usize = 40;
const GOLDEN_WALK_STEPS: usize = 3200;
const GOLDEN_WALK_HASH: u64 = 0x1474c38ea44fa748;

const GOLDEN_NUM_CONTEXTS: usize = 3200;
const GOLDEN_CONTEXT_HASH: u64 = 0x68b202c539e03af1;
const GOLDEN_SUBSAMPLED_NUM_CONTEXTS: usize = 1394;
const GOLDEN_SUBSAMPLED_CONTEXT_HASH: u64 = 0x8a83ec393ba07dd1;

const GOLDEN_D_NNZ: usize = 310;
const GOLDEN_D_HASH: u64 = 0x5ee3a8793cd437b8;
const GOLDEN_D1_NNZ: usize = 132;
const GOLDEN_D1_HASH: u64 = 0x9c2db73fc1af4873;

const GOLDEN_FIRST_EPOCH_LOSS: f64 = 169.2196502685547;
const GOLDEN_EMBEDDING_HASH: u64 = 0x61a066189cae83c5;

// ── helpers ────────────────────────────────────────────────────────────────

/// 64-bit FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        // Hash the bit pattern: golden tests pin exact floats, including
        // signed zeros, so `to_bits` (not a rounded decimal) is the key.
        self.u32(v.to_bits());
    }
}

fn fixture() -> AttributedGraph {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_graph.json");
    gio::load_json(Path::new(path)).expect("committed fixture must load")
}

fn walk_cfg() -> WalkConfig {
    WalkConfig { walks_per_node: 1, walk_length: 80, p: 1.0, q: 1.0, seed: 42 }
}

fn ctx_cfg() -> ContextsConfig {
    // Subsampling disabled so every walk position becomes a context and the
    // snapshot covers padding behaviour at both walk ends.
    ContextsConfig { context_size: 5, subsample_t: f64::INFINITY, seed: 7 }
}

fn subsampled_ctx_cfg() -> ContextsConfig {
    // At t = 5e-3 an average fixture node (f ≈ 1/40) is dropped about half
    // the time, so this snapshot pins the subsampling keep/drop replay.
    ContextsConfig { subsample_t: 5e-3, ..ctx_cfg() }
}

fn blessed(name: &str, actual: u64, expected: u64) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("{name} = {actual:#018x}");
        return;
    }
    assert_eq!(actual, expected, "{name} drifted: got {actual:#018x}, committed {expected:#018x}");
}

// ── snapshots ──────────────────────────────────────────────────────────────

#[test]
fn walks_match_committed_snapshot() {
    let graph = fixture();
    let walks = Walker::new(&graph, walk_cfg()).generate_all(1);
    assert_eq!(walks.len(), GOLDEN_WALK_COUNT);
    let steps: usize = walks.iter().map(Vec::len).sum();
    assert_eq!(steps, GOLDEN_WALK_STEPS);
    let mut h = Fnv::new();
    for walk in &walks {
        h.u32(walk.len() as u32);
        for &v in walk {
            h.u32(v);
        }
    }
    blessed("GOLDEN_WALK_HASH", h.0, GOLDEN_WALK_HASH);

    // Thread count is a pure throughput knob: identical walks at 4 threads.
    assert_eq!(walks, Walker::new(&graph, walk_cfg()).generate_all(4));
}

#[test]
fn padded_contexts_match_committed_snapshot() {
    let graph = fixture();
    let walks = Walker::new(&graph, walk_cfg()).generate_all(1);
    let contexts = ContextSet::build(&walks, graph.num_nodes(), &ctx_cfg());
    assert_eq!(contexts.num_contexts(), GOLDEN_NUM_CONTEXTS);
    assert_eq!(contexts.context_size(), 5);
    // Padding must actually occur (walk-end windows are shorter than c).
    let padded = (0..graph.num_nodes() as u32).any(|v| contexts.slots_of(v).contains(&PAD));
    assert!(padded, "expected PAD slots at walk boundaries");

    blessed("GOLDEN_CONTEXT_HASH", hash_contexts(&contexts), GOLDEN_CONTEXT_HASH);

    let subsampled = ContextSet::build(&walks, graph.num_nodes(), &subsampled_ctx_cfg());
    let kept = subsampled.num_contexts();
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN_SUBSAMPLED_NUM_CONTEXTS = {kept}");
    } else {
        assert_eq!(kept, GOLDEN_SUBSAMPLED_NUM_CONTEXTS, "subsampled context count drifted");
    }
    assert!(kept > GOLDEN_WALK_COUNT && kept < GOLDEN_NUM_CONTEXTS, "want some positions dropped");
    blessed(
        "GOLDEN_SUBSAMPLED_CONTEXT_HASH",
        hash_contexts(&subsampled),
        GOLDEN_SUBSAMPLED_CONTEXT_HASH,
    );
}

/// FNV-1a over every node's context count and padded slots, in node order.
fn hash_contexts(contexts: &ContextSet) -> u64 {
    let mut h = Fnv::new();
    for v in 0..contexts.num_nodes() as u32 {
        h.u32(contexts.count(v) as u32);
        for &slot in contexts.slots_of(v) {
            h.u32(slot);
        }
    }
    h.0
}

#[test]
fn cooccurrence_matrices_match_committed_snapshot() {
    let graph = fixture();
    let walks = Walker::new(&graph, walk_cfg()).generate_all(1);
    let contexts = ContextSet::build(&walks, graph.num_nodes(), &ctx_cfg());
    let co = CoMatrices::build(&contexts, &graph);

    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN_D_NNZ = {}", co.d.nnz());
        println!("GOLDEN_D1_NNZ = {}", co.d1.nnz());
    } else {
        assert_eq!(co.d.nnz(), GOLDEN_D_NNZ, "D nnz drifted");
        assert_eq!(co.d1.nnz(), GOLDEN_D1_NNZ, "D¹ nnz drifted");
    }

    let hash_counts = |m: &coane::walks::cooccurrence::SparseCounts| {
        let mut h = Fnv::new();
        for i in 0..m.num_rows() as u32 {
            let (cols, vals) = m.row(i);
            h.u32(cols.len() as u32);
            for (&c, &v) in cols.iter().zip(vals) {
                h.u32(c);
                h.f32(v);
            }
        }
        h.0
    };
    blessed("GOLDEN_D_HASH", hash_counts(&co.d), GOLDEN_D_HASH);
    blessed("GOLDEN_D1_HASH", hash_counts(&co.d1), GOLDEN_D1_HASH);
}

fn train_cfg() -> CoaneConfig {
    CoaneConfig { embed_dim: 8, epochs: 3, seed: 42, threads: 1, ..Default::default() }
}

#[test]
fn first_epoch_loss_matches_committed_value() {
    let graph = fixture();
    let obs = Obs::enabled();
    let trainer = Coane::try_new(train_cfg()).unwrap().with_observer(obs.clone());
    trainer.try_fit(&graph).unwrap();
    let events = obs.events_of("epoch");
    assert_eq!(events.len(), 3, "expected one telemetry record per epoch");
    let coane::obs::Value::Object(first) = &events[0] else { panic!("epoch record not an object") };
    let Some(coane::obs::Value::Number(loss)) = first.get("loss") else {
        panic!("epoch record has no loss")
    };
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN_FIRST_EPOCH_LOSS = {loss:?}");
        return;
    }
    assert_eq!(
        *loss, GOLDEN_FIRST_EPOCH_LOSS,
        "first-epoch loss drifted: got {loss:?}, committed {GOLDEN_FIRST_EPOCH_LOSS:?}"
    );
}

#[test]
fn final_embedding_matches_committed_hash() {
    let graph = fixture();
    let z = Coane::try_new(train_cfg()).unwrap().try_fit(&graph).unwrap();
    assert_eq!(z.shape(), (40, 8));
    let mut h = Fnv::new();
    for &x in z.as_slice() {
        h.f32(x);
    }
    blessed("GOLDEN_EMBEDDING_HASH", h.0, GOLDEN_EMBEDDING_HASH);
}

// ── scale-generator snapshots (10k nodes) ──────────────────────────────────
//
// The million-node scaling path (ISSUE 9) rests on the synthetic generator
// being reproducible across releases: BENCH_scale numbers and the CI scale
// smoke are only comparable if the same seed yields the same graph. This
// section pins a 10k-node instance — generator output (via the walks it
// induces), co-occurrence matrices, and the trained embedding — exactly as
// the 40-node section does for the committed fixture file. The graph itself
// is regenerated, not committed: at this size the seed *is* the fixture.

const GOLDEN_SCALE_WALK_STEPS: usize = 100_000;
const GOLDEN_SCALE_WALK_HASH: u64 = 0x176d2e71d19218ee;
const GOLDEN_SCALE_NUM_CONTEXTS: usize = 100_000;
const GOLDEN_SCALE_CONTEXT_HASH: u64 = 0x915717f82bc0ee1d;
const GOLDEN_SCALE_D_NNZ: usize = 197_300;
const GOLDEN_SCALE_D_HASH: u64 = 0xac87049adb70e845;
const GOLDEN_SCALE_D1_NNZ: usize = 75_982;
const GOLDEN_SCALE_D1_HASH: u64 = 0x38f7742024341744;
const GOLDEN_SCALE_EMBEDDING_HASH: u64 = 0x87d8f187bbd72266;

fn scale_fixture() -> AttributedGraph {
    use coane::datasets::ScaleConfig;
    coane::datasets::scale_graph(&ScaleConfig {
        attr_dim: 64,
        attrs_per_node: 4,
        seed: 42,
        ..ScaleConfig::with_nodes(10_000)
    })
    .0
}

fn scale_walk_cfg() -> WalkConfig {
    WalkConfig { walks_per_node: 1, walk_length: 10, p: 1.0, q: 1.0, seed: 42 }
}

fn scale_ctx_cfg() -> ContextsConfig {
    // c = 5 so windows reach past direct walk neighbours: D then contains
    // non-edge pairs and the D¹ edge filter actually bites at scale.
    ContextsConfig { context_size: 5, subsample_t: f64::INFINITY, seed: 7 }
}

#[test]
fn scale_graph_walks_match_committed_snapshot() {
    let graph = scale_fixture();
    assert_eq!(graph.num_nodes(), 10_000);
    let walks = Walker::new(&graph, scale_walk_cfg()).generate_all(1);
    let steps: usize = walks.iter().map(Vec::len).sum();
    assert_eq!(steps, GOLDEN_SCALE_WALK_STEPS);
    let mut h = Fnv::new();
    for walk in &walks {
        h.u32(walk.len() as u32);
        for &v in walk {
            h.u32(v);
        }
    }
    blessed("GOLDEN_SCALE_WALK_HASH", h.0, GOLDEN_SCALE_WALK_HASH);
}

#[test]
fn scale_graph_cooccurrence_matches_committed_snapshot() {
    let graph = scale_fixture();
    let walks = Walker::new(&graph, scale_walk_cfg()).generate_all(1);
    let contexts = ContextSet::build(&walks, graph.num_nodes(), &scale_ctx_cfg());
    assert_eq!(contexts.num_contexts(), GOLDEN_SCALE_NUM_CONTEXTS);
    blessed("GOLDEN_SCALE_CONTEXT_HASH", hash_contexts(&contexts), GOLDEN_SCALE_CONTEXT_HASH);

    let co = CoMatrices::build(&contexts, &graph);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("GOLDEN_SCALE_D_NNZ = {}", co.d.nnz());
        println!("GOLDEN_SCALE_D1_NNZ = {}", co.d1.nnz());
    } else {
        assert_eq!(co.d.nnz(), GOLDEN_SCALE_D_NNZ, "scale D nnz drifted");
        assert_eq!(co.d1.nnz(), GOLDEN_SCALE_D1_NNZ, "scale D¹ nnz drifted");
    }
    let hash_counts = |m: &coane::walks::cooccurrence::SparseCounts| {
        let mut h = Fnv::new();
        for i in 0..m.num_rows() as u32 {
            let (cols, vals) = m.row(i);
            h.u32(cols.len() as u32);
            for (&c, &v) in cols.iter().zip(vals) {
                h.u32(c);
                h.f32(v);
            }
        }
        h.0
    };
    blessed("GOLDEN_SCALE_D_HASH", hash_counts(&co.d), GOLDEN_SCALE_D_HASH);
    blessed("GOLDEN_SCALE_D1_HASH", hash_counts(&co.d1), GOLDEN_SCALE_D1_HASH);
}

#[test]
fn scale_graph_embedding_matches_committed_hash() {
    let graph = scale_fixture();
    // Trained through the full memory-budget path (streamed walks, blocked
    // co-occurrence, budgeted cache): the streaming suite proves these equal
    // the materialized pipeline, so this one hash pins both.
    let cfg = CoaneConfig {
        embed_dim: 8,
        context_size: 3,
        walks_per_node: 1,
        walk_length: 10,
        epochs: 2,
        batch_size: 2048,
        decoder_hidden: (16, 16),
        num_negatives: 3,
        subsample_t: 1e-3,
        walk_block_size: 1024,
        coocc_block_size: 4096,
        max_cache_bytes: 1 << 30,
        threads: 1,
        seed: 42,
        ..Default::default()
    };
    let z = Coane::try_new(cfg).unwrap().try_fit(&graph).unwrap();
    assert_eq!(z.shape(), (10_000, 8));
    let mut h = Fnv::new();
    for &x in z.as_slice() {
        h.f32(x);
    }
    blessed("GOLDEN_SCALE_EMBEDDING_HASH", h.0, GOLDEN_SCALE_EMBEDDING_HASH);
}
