//! Random-walk generation.
//!
//! CoANE samples, for each start node, `r` walks of length `l`; at each step
//! the next node is drawn with probability `p(v_j) = E_ij / Σ_j E_ij` (§3.1).
//! For the node2vec baseline the biased second-order walk of Grover &
//! Leskovec (2016) with return parameter `p` and in-out parameter `q` is also
//! provided. Walks are generated in parallel with deterministic per-walk
//! seeds, so results are reproducible regardless of thread scheduling.

use coane_graph::{AttributedGraph, NodeId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One random-walk node sequence. A walk from an isolated node contains just
/// the start; a walk may be shorter than `l` only when it hits a dead end —
/// a node with no outgoing edges, or whose outgoing weights sum to zero or
/// a non-finite value (degenerate inputs that would otherwise make the
/// transition distribution undefined).
pub type Walk = Vec<NodeId>;

/// Walk-generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct WalkConfig {
    /// Walks per start node (`r`). The paper uses r = 1 for CoANE and r = 10
    /// for the random-walk baselines.
    pub walks_per_node: usize,
    /// Walk length (`l`); the paper uses 80.
    pub walk_length: usize,
    /// node2vec return parameter; `1.0` recovers the plain weighted walk.
    pub p: f32,
    /// node2vec in-out parameter; `1.0` recovers the plain weighted walk.
    pub q: f32,
    /// Master seed for the deterministic per-walk RNGs.
    pub seed: u64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self { walks_per_node: 1, walk_length: 80, p: 1.0, q: 1.0, seed: 42 }
    }
}

/// Generates random walks over an [`AttributedGraph`].
pub struct Walker<'g> {
    graph: &'g AttributedGraph,
    config: WalkConfig,
}

impl<'g> Walker<'g> {
    /// New walker for `graph` with `config`.
    pub fn new(graph: &'g AttributedGraph, config: WalkConfig) -> Self {
        assert!(config.walks_per_node >= 1, "need at least one walk per node");
        assert!(config.walk_length >= 1, "walks must have positive length");
        assert!(config.p > 0.0 && config.q > 0.0, "node2vec parameters must be positive");
        Self { graph, config }
    }

    /// The walk configuration.
    pub fn config(&self) -> &WalkConfig {
        &self.config
    }

    /// Generates all `r·n` walks, ordered by `(repeat, start node)`.
    /// Uses up to `threads` worker threads (1 = sequential); output is
    /// identical for any thread count because each walk derives its own RNG
    /// from `(seed, repeat, start)`.
    pub fn generate_all(&self, threads: usize) -> Vec<Walk> {
        let n = self.graph.num_nodes();
        let mut walks: Vec<Walk> = vec![Vec::new(); self.num_walks()];
        coane_nn::pool::parallel_chunks_with(&mut walks, 64, threads, |start, slab| {
            for (off, w) in slab.iter_mut().enumerate() {
                *w = self.walk_indexed(start + off, n);
            }
        });
        walks
    }

    /// Total number of walks this walker generates (`r·n`).
    pub fn num_walks(&self) -> usize {
        self.graph.num_nodes() * self.config.walks_per_node
    }

    /// Number of fixed-size blocks the walk sequence splits into.
    pub fn num_blocks(&self, block_size: usize) -> usize {
        assert!(block_size >= 1, "block size must be positive");
        self.num_walks().div_ceil(block_size)
    }

    /// Generates block `b` of the global walk sequence: walks
    /// `b·block_size .. min((b+1)·block_size, r·n)` in [`Walker::generate_all`]
    /// order. Because every walk derives its RNG purely from its global
    /// index, a block can be (re)generated independently of all others;
    /// concatenating all blocks reproduces `generate_all` byte for byte.
    pub fn walks_block(&self, b: usize, block_size: usize) -> Vec<Walk> {
        let n = self.graph.num_nodes();
        let total = self.num_walks();
        let start = (b * block_size).min(total);
        let end = ((b + 1) * block_size).min(total);
        (start..end).map(|k| self.walk_indexed(k, n)).collect()
    }

    /// Streams walk blocks through a bounded channel: blocks are produced
    /// up to `depth` ahead on a pool worker while `consume(block_idx, walks)`
    /// runs on the calling thread, strictly in block order. With `depth = 0`
    /// (or a single thread) blocks are generated inline — either way the
    /// consumer sees exactly the [`Walker::generate_all`] sequence, split at
    /// `block_size` boundaries, so streaming is a pure memory/throughput
    /// knob. Peak walk storage is `(depth + 2)` blocks instead of `r·n`.
    pub fn stream_blocks(
        &self,
        block_size: usize,
        depth: usize,
        consume: impl FnMut(usize, Vec<Walk>),
    ) {
        let blocks = self.num_blocks(block_size);
        coane_nn::pool::prefetch(blocks, depth, |b| self.walks_block(b, block_size), consume);
    }

    fn walk_indexed(&self, k: usize, n: usize) -> Walk {
        let repeat = k / n;
        let start = (k % n) as NodeId;
        let mut rng = self.walk_rng(repeat, start);
        self.walk_from(start, &mut rng)
    }

    fn walk_rng(&self, repeat: usize, start: NodeId) -> ChaCha8Rng {
        let s = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((repeat as u64) << 32)
            .wrapping_add(start as u64 + 1);
        ChaCha8Rng::seed_from_u64(s)
    }

    /// Samples a single walk starting at `start`.
    pub fn walk_from<R: Rng>(&self, start: NodeId, rng: &mut R) -> Walk {
        let l = self.config.walk_length;
        let mut walk = Vec::with_capacity(l);
        walk.push(start);
        let unbiased = self.config.p == 1.0 && self.config.q == 1.0;
        while walk.len() < l {
            let cur = *walk.last().unwrap();
            let next = if unbiased || walk.len() < 2 {
                self.step_weighted(cur, rng)
            } else {
                self.step_node2vec(walk[walk.len() - 2], cur, rng)
            };
            match next {
                Some(u) => walk.push(u),
                None => break, // dead end: isolated node or degenerate weights
            }
        }
        walk
    }

    /// First-order weighted step: `p(next = u) ∝ E_{cur,u}`. Returns `None`
    /// when `cur` is a dead end — no neighbours, or a total outgoing weight
    /// that is zero or non-finite (sampling would be undefined).
    fn step_weighted<R: Rng>(&self, cur: NodeId, rng: &mut R) -> Option<NodeId> {
        let nbrs = self.graph.neighbors_of(cur);
        let wts = self.graph.weights_of(cur);
        let total: f32 = wts.iter().sum();
        if nbrs.is_empty() || !total.is_finite() || total <= 0.0 {
            return None;
        }
        let mut x = rng.gen_range(0.0..total);
        for (&u, &w) in nbrs.iter().zip(wts) {
            if x < w {
                return Some(u);
            }
            x -= w;
        }
        nbrs.last().copied()
    }

    /// node2vec second-order step with unnormalized weights
    /// `w/p` (return), `w` (distance-1 from prev), `w/q` (distance-2).
    /// Returns `None` on a dead end, like [`Walker::step_weighted`].
    fn step_node2vec<R: Rng>(&self, prev: NodeId, cur: NodeId, rng: &mut R) -> Option<NodeId> {
        let nbrs = self.graph.neighbors_of(cur);
        let wts = self.graph.weights_of(cur);
        let (p, q) = (self.config.p, self.config.q);
        let mut cumulative = Vec::with_capacity(nbrs.len());
        let mut total = 0.0f32;
        for (&u, &w) in nbrs.iter().zip(wts) {
            let bias = if u == prev {
                w / p
            } else if self.graph.has_edge(u, prev) {
                w
            } else {
                w / q
            };
            total += bias;
            cumulative.push(total);
        }
        if nbrs.is_empty() || !total.is_finite() || total <= 0.0 {
            return None;
        }
        let x = rng.gen_range(0.0..total);
        let idx = cumulative.partition_point(|&c| c <= x);
        nbrs.get(idx.min(nbrs.len() - 1)).copied()
    }
}

/// Frequency of each node's appearance across `walks` (the `f(v)` of the
/// subsampling rule, as raw counts).
pub fn node_frequencies(walks: &[Walk], n: usize) -> Vec<u64> {
    let mut freq = vec![0u64; n];
    for w in walks {
        for &v in w {
            freq[v as usize] += 1;
        }
    }
    freq
}

#[cfg(test)]
mod tests {
    use super::*;
    use coane_graph::{GraphBuilder, NodeAttributes};

    fn star(n: usize) -> AttributedGraph {
        // node 0 is the hub
        let mut b = GraphBuilder::new(n, n);
        for i in 1..n {
            b.add_edge(0, i as NodeId, 1.0);
        }
        b.with_attrs(NodeAttributes::identity(n)).build()
    }

    fn weighted_pair() -> AttributedGraph {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 1, 9.0);
        b.add_edge(0, 2, 1.0);
        b.with_attrs(NodeAttributes::identity(3)).build()
    }

    #[test]
    fn walks_respect_edges() {
        let g = star(8);
        let walker = Walker::new(&g, WalkConfig { walks_per_node: 2, ..Default::default() });
        for w in walker.generate_all(1) {
            assert_eq!(w.len(), 80);
            for pair in w.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]), "invalid step {pair:?}");
            }
        }
    }

    #[test]
    fn walk_counts_and_order() {
        let g = star(5);
        let walker = Walker::new(&g, WalkConfig { walks_per_node: 3, ..Default::default() });
        let walks = walker.generate_all(2);
        assert_eq!(walks.len(), 15);
        for (k, w) in walks.iter().enumerate() {
            assert_eq!(w[0], (k % 5) as NodeId, "walk {k} wrong start");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = star(20);
        let walker = Walker::new(&g, WalkConfig { walks_per_node: 2, ..Default::default() });
        assert_eq!(walker.generate_all(1), walker.generate_all(4));
    }

    #[test]
    fn weighted_steps_follow_edge_weights() {
        let g = weighted_pair();
        let walker = Walker::new(&g, WalkConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut to1 = 0usize;
        for _ in 0..5000 {
            if walker.step_weighted(0, &mut rng) == Some(1) {
                to1 += 1;
            }
        }
        let frac = to1 as f64 / 5000.0;
        assert!((frac - 0.9).abs() < 0.03, "weighted fraction {frac}");
    }

    #[test]
    fn isolated_node_walk_is_singleton() {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 1, 1.0);
        let g = b.with_attrs(NodeAttributes::identity(3)).build();
        let walker = Walker::new(&g, WalkConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(walker.walk_from(2, &mut rng), vec![2]);
    }

    #[test]
    fn node2vec_low_p_returns_often() {
        // On a path graph 0-1-2, from cur=1 with prev=0: neighbors {0, 2};
        // 0 gets weight 1/p, 2 gets 1/q (not adjacent to 0). Tiny p → mostly
        // return to 0.
        let mut b = GraphBuilder::new(3, 3);
        b.add_edges(&[(0, 1), (1, 2)]);
        let g = b.with_attrs(NodeAttributes::identity(3)).build();
        let walker = Walker::new(&g, WalkConfig { p: 0.05, q: 1.0, ..Default::default() });
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut returns = 0usize;
        for _ in 0..2000 {
            if walker.step_node2vec(0, 1, &mut rng) == Some(0) {
                returns += 1;
            }
        }
        let frac = returns as f64 / 2000.0;
        assert!(frac > 0.9, "return fraction {frac}");
    }

    #[test]
    fn node2vec_high_q_stays_local() {
        // Triangle 0-1-2 plus pendant 3 on node 1. From cur=1, prev=0:
        // candidates 0 (1/p), 2 (adjacent to 0 → weight 1), 3 (1/q).
        // Huge q → node 3 almost never chosen.
        let mut b = GraphBuilder::new(4, 4);
        b.add_edges(&[(0, 1), (1, 2), (0, 2), (1, 3)]);
        let g = b.with_attrs(NodeAttributes::identity(4)).build();
        let walker = Walker::new(&g, WalkConfig { p: 1.0, q: 100.0, ..Default::default() });
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut explore = 0usize;
        for _ in 0..2000 {
            if walker.step_node2vec(0, 1, &mut rng) == Some(3) {
                explore += 1;
            }
        }
        assert!(explore < 40, "distant steps {explore}");
    }

    #[test]
    fn empty_graph_yields_no_walks() {
        let g = GraphBuilder::new(0, 0).with_attrs(NodeAttributes::identity(0)).build();
        let walker = Walker::new(&g, WalkConfig::default());
        assert!(walker.generate_all(1).is_empty());
        assert!(walker.generate_all(4).is_empty());
    }

    #[test]
    fn single_node_graph_walks_are_singletons() {
        let g = GraphBuilder::new(1, 1).with_attrs(NodeAttributes::identity(1)).build();
        let walker = Walker::new(&g, WalkConfig { walks_per_node: 3, ..Default::default() });
        assert_eq!(walker.generate_all(1), vec![vec![0]; 3]);
    }

    #[test]
    fn all_isolated_nodes_walk_without_panicking() {
        let g = GraphBuilder::new(5, 5).with_attrs(NodeAttributes::identity(5)).build();
        let walker = Walker::new(&g, WalkConfig::default());
        let walks = walker.generate_all(2);
        assert_eq!(walks.len(), 5);
        for (i, w) in walks.iter().enumerate() {
            assert_eq!(w, &vec![i as NodeId]);
        }
    }

    #[test]
    fn overflowing_weight_sum_ends_walk_instead_of_panicking() {
        // Every edge weight is individually valid (finite, positive) yet
        // their sum overflows to +inf — per-edge validation cannot catch
        // this, and the old sampler handed the non-finite total straight to
        // gen_range. The hardened step treats it as a dead end.
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 1, f32::MAX);
        b.add_edge(0, 2, f32::MAX);
        let g = b.with_attrs(NodeAttributes::identity(3)).build();
        let walker = Walker::new(&g, WalkConfig::default());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(walker.step_weighted(0, &mut rng), None);
        assert_eq!(walker.walk_from(0, &mut rng), vec![0]);
        // generate_all completes over the degenerate graph too.
        for w in walker.generate_all(2) {
            assert!(!w.is_empty());
        }
    }

    #[test]
    fn node2vec_overflowing_bias_total_is_dead_end() {
        // Path 0-1-2 with huge weights: from cur=1, prev=0, the in-out bias
        // w/q with q=0.5 doubles f32::MAX into +inf.
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 1, f32::MAX);
        b.add_edge(1, 2, f32::MAX);
        let g = b.with_attrs(NodeAttributes::identity(3)).build();
        let walker = Walker::new(&g, WalkConfig { p: 2.0, q: 0.5, ..Default::default() });
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(walker.step_node2vec(0, 1, &mut rng), None);
    }

    #[test]
    fn frequencies_count_appearances() {
        let walks = vec![vec![0, 1, 0], vec![2]];
        assert_eq!(node_frequencies(&walks, 3), vec![2, 1, 1]);
    }

    #[test]
    fn streamed_blocks_concatenate_to_generate_all() {
        let g = star(23);
        let walker = Walker::new(&g, WalkConfig { walks_per_node: 3, ..Default::default() });
        let all = walker.generate_all(1);
        assert_eq!(walker.num_walks(), 69);
        for block_size in [1usize, 7, 64, 1000] {
            assert_eq!(walker.num_blocks(block_size), 69usize.div_ceil(block_size));
            let mut got: Vec<Walk> = Vec::new();
            let mut next = 0usize;
            walker.stream_blocks(block_size, 2, |b, block| {
                assert_eq!(b, next, "blocks out of order");
                next += 1;
                got.extend(block);
            });
            assert_eq!(got, all, "block_size={block_size}");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let g = star(10);
        let mk = || Walker::new(&g, WalkConfig { seed: 99, ..Default::default() }).generate_all(3);
        assert_eq!(mk(), mk());
    }
}
