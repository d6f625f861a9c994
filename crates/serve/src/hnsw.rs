//! Deterministic HNSW approximate-nearest-neighbor index over an
//! [`EmbeddingStore`](crate::EmbeddingStore).
//!
//! ## Determinism contract
//!
//! Like every kernel in this workspace, the index is **bit-identical at any
//! thread count**:
//!
//! - Level assignment is a pure function of `(seed, row index)` through the
//!   vendored ChaCha8 — no shared RNG stream to race on.
//! - Construction is *generational*: rows are inserted in index order, but
//!   grouped into generations whose boundaries depend only on the row count
//!   (1, 1, 2, 4, … capped at [`HnswConfig::max_generation`]). Within a
//!   generation, every row's candidate search runs **read-only against the
//!   graph frozen at the previous generation boundary** — those searches are
//!   embarrassingly parallel on [`coane_nn::pool`] and independent of
//!   scheduling. Linking (the only mutation) then replays sequentially in
//!   row order.
//! - All candidate orderings break float ties by row index via
//!   [`f32::total_cmp`]-based comparison, so no ordering ever depends on an
//!   unstable sort or hash-map iteration.
//!
//! The price of frozen-generation searches is that rows inserted in the same
//! generation cannot select each other as neighbors at insert time (they can
//! still be linked later as reverse edges never arise; coverage comes from
//! the doubling schedule keeping generations small relative to the inserted
//! prefix). The recall test in `tests/hnsw.rs` pins the resulting quality:
//! recall@10 ≥ 0.95 against brute force on a seeded 2k-node fixture.

use coane_nn::sim::{norm, score_block};
use coane_nn::{pool, Matrix, Precision, Scorer};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::store::{EmbeddingStore, QuantProbe};

/// HNSW build/search parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Max neighbors per node on layers > 0 (layer 0 allows `2·m`).
    pub m: usize,
    /// Candidate-list width during construction.
    pub ef_construction: usize,
    /// Default candidate-list width during search (raised to `k` when the
    /// caller asks for more results than this).
    pub ef_search: usize,
    /// Seed for the per-row level assignment.
    pub seed: u64,
    /// Largest generation size during construction; smaller values tighten
    /// graph quality (searches see a fresher graph), larger values expose
    /// more build parallelism. Purely a build-schedule knob — the result is
    /// bit-identical for any thread count either way, but *different*
    /// `max_generation` values produce different (equally valid) graphs.
    pub max_generation: usize,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self { m: 16, ef_construction: 128, ef_search: 64, seed: 42, max_generation: 64 }
    }
}

/// An (id, score)-style search hit: `index` is the store row, `score` the
/// similarity under the query's scorer (greater = more similar).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// Store row index.
    pub index: u32,
    /// Similarity score (greater is more similar).
    pub score: f32,
}

/// Hierarchical navigable-small-world graph over store rows.
///
/// The scorer is fixed at build time: HNSW's navigability depends on the
/// metric the edges were chosen under, so queries use the same scorer.
#[derive(Clone, Debug)]
pub struct HnswIndex {
    config: HnswConfig,
    scorer: Scorer,
    /// `levels[v]` = highest layer row `v` appears on.
    levels: Vec<u8>,
    /// `layers[l][v]` = neighbor lists of row `v` on layer `l` (empty when
    /// `levels[v] < l`).
    layers: Vec<Vec<Vec<u32>>>,
    /// Entry point: a row on the top layer.
    entry: u32,
}

/// Max layer count; `floor(-ln(u) / ln(m))` virtually never exceeds this.
const MAX_LEVEL: usize = 24;

/// Deterministic per-row level: ChaCha8 keyed by `(seed, row)` drives the
/// standard exponential layer assignment with multiplier `1/ln(m)`.
fn level_for(seed: u64, row: u64, m: usize) -> u8 {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // 53 high bits → uniform in (0, 1]; the +1 offset excludes exact zero.
    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    let ml = 1.0 / (m.max(2) as f64).ln();
    ((-u.ln() * ml) as usize).min(MAX_LEVEL) as u8
}

/// Distance = negated similarity, so smaller is closer under every scorer.
/// All graph scoring goes through [`EmbeddingStore::quant_score`]: on an
/// f32 store that is exactly `-scorer.score(probe, row)` (bit-identical to
/// the pre-quantization behavior), and on an int8 store it is the
/// fused quantized kernel with the same determinism contract.
#[inline]
fn dist(store: &EmbeddingStore, scorer: Scorer, probe: &QuantProbe<'_>, row: u32) -> f32 {
    -store.quant_score(scorer, probe, row as usize)
}

/// Total order on (distance, row) pairs: by distance, then row index. Using
/// `total_cmp` keeps NaNs ordered instead of poisoning a sort.
#[inline]
fn by_dist(a: &(f32, u32), b: &(f32, u32)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

impl HnswIndex {
    /// Builds the index over every row of `store` in parallel on the
    /// workspace pool. Bit-identical for any thread count.
    pub fn build(store: &EmbeddingStore, scorer: Scorer, config: HnswConfig) -> Self {
        let n = store.len();
        let m = config.m.max(2);
        let levels: Vec<u8> = (0..n as u64).map(|v| level_for(config.seed, v, m)).collect();
        let max_level = levels.iter().copied().max().unwrap_or(0) as usize;
        let mut index = Self {
            config: HnswConfig { m, ..config },
            scorer,
            levels,
            layers: vec![vec![Vec::new(); n]; max_level + 1],
            entry: 0,
        };

        // Generation boundaries: 1, 1, 2, 4, 8, … capped. Depends only on n.
        let mut start = 0usize;
        let mut gen = 1usize;
        let mut inserted = 0usize; // rows visible to frozen searches
        while start < n {
            let end = (start + gen).min(n);
            // Phase 1 — parallel, read-only candidate searches against the
            // graph as of `inserted` rows. Each row writes only its own slot.
            let candidates: Vec<Vec<Vec<(f32, u32)>>> = pool::parallel_map(end - start, |k| {
                let v = (start + k) as u32;
                index.insert_candidates(store, v, inserted)
            });
            // Phase 2 — sequential linking in row order.
            for (k, cands) in candidates.into_iter().enumerate() {
                index.link(store, (start + k) as u32, cands);
            }
            inserted = end;
            start = end;
            gen = (gen * 2).min(index.config.max_generation.max(1));
        }
        index
    }

    /// Incremental insertion for the live-mutation path: appends rows
    /// `self.len()..store.len()` to the graph, **one row per generation**
    /// (each row's candidate search sees every previously inserted row).
    ///
    /// One-at-a-time insertion is what makes the mutation subsystem's
    /// replay-equality contract hold: the graph after inserting rows
    /// `a..c` is identical whether the range arrived as one `extend` call,
    /// row by row, or split anywhere in between (including across a crash
    /// and restart), because no generation boundary ever depends on how
    /// the stream was batched. Levels stay the same pure
    /// `(seed, row)` ChaCha8 function the batch build uses, so an index
    /// grown by `extend` and one built over the same rows assign identical
    /// layers — only the edge sets differ (extend's searches see a fresher
    /// graph than the doubling schedule's frozen generations).
    pub fn extend(&mut self, store: &EmbeddingStore) {
        let n = store.len();
        while self.levels.len() < n {
            let v = self.levels.len();
            let level = level_for(self.config.seed, v as u64, self.config.m) as usize;
            self.levels.push(level as u8);
            for layer in &mut self.layers {
                layer.push(Vec::new());
            }
            while self.layers.len() <= level {
                self.layers.push(vec![Vec::new(); v + 1]);
            }
            let candidates = self.insert_candidates(store, v as u32, v);
            self.link(store, v as u32, candidates);
        }
    }

    /// Number of rows the graph covers (rows `>= len()` of a grown store
    /// are unknown to it until [`HnswIndex::extend`] runs).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the index covers no rows.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    /// The similarity scorer the graph was built under.
    pub fn scorer(&self) -> Scorer {
        self.scorer
    }

    /// Neighbor lists of `row` per layer, for tests and diagnostics.
    pub fn neighbors(&self, row: u32) -> Vec<&[u32]> {
        self.layers.iter().map(|layer| layer[row as usize].as_slice()).collect()
    }

    /// Total directed edge count across all layers.
    pub fn num_edges(&self) -> usize {
        self.layers.iter().map(|l| l.iter().map(Vec::len).sum::<usize>()).sum()
    }

    /// Greedy candidate search for inserting `v`, seeing only rows
    /// `< frozen`. Returns one candidate list per layer `0..=level(v)`
    /// (outer index = layer).
    fn insert_candidates(
        &self,
        store: &EmbeddingStore,
        v: u32,
        frozen: usize,
    ) -> Vec<Vec<(f32, u32)>> {
        let node_level = self.levels[v as usize] as usize;
        if frozen == 0 {
            return vec![Vec::new(); node_level + 1];
        }
        // The inserted row probes with its *own* stored codes, so build and
        // replay scoring is an exact function of the code table (for int8,
        // pure integer arithmetic — ISA- and thread-invariant for free).
        let q = store.probe_for_row(v as usize);
        let top = self.levels[self.entry as usize] as usize;
        let mut ep = self.entry;
        let mut ep_d = dist(store, self.scorer, &q, ep);
        // Greedy descent through layers above the node's level.
        for l in (node_level + 1..=top).rev() {
            (ep, ep_d) = self.greedy_step(store, &q, ep, ep_d, l, frozen);
        }
        // Full beam search on each layer the node joins.
        let mut out = vec![Vec::new(); node_level + 1];
        for l in (0..=node_level.min(top)).rev() {
            let found =
                self.search_layer(store, &q, (ep, ep_d), l, self.config.ef_construction, frozen);
            if let Some(&(d, e)) = found.first() {
                (ep, ep_d) = (e, d);
            }
            out[l] = found;
        }
        out
    }

    /// Greedy hill-climb to the locally closest node on `layer`.
    fn greedy_step(
        &self,
        store: &EmbeddingStore,
        q: &QuantProbe<'_>,
        mut ep: u32,
        mut ep_d: f32,
        layer: usize,
        frozen: usize,
    ) -> (u32, f32) {
        loop {
            let mut improved = false;
            for &u in &self.layers[layer][ep as usize] {
                if (u as usize) >= frozen {
                    continue;
                }
                let d = dist(store, self.scorer, q, u);
                if by_dist(&(d, u), &(ep_d, ep)).is_lt() {
                    (ep, ep_d) = (u, d);
                    improved = true;
                }
            }
            if !improved {
                return (ep, ep_d);
            }
        }
    }

    /// Classic `SEARCH-LAYER`: beam search with candidate list width `ef`,
    /// restricted to rows `< frozen`. Returns hits sorted by (distance,
    /// row) ascending.
    fn search_layer(
        &self,
        store: &EmbeddingStore,
        q: &QuantProbe<'_>,
        entry: (u32, f32),
        layer: usize,
        ef: usize,
        frozen: usize,
    ) -> Vec<(f32, u32)> {
        let (ep, ep_d) = entry;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // BinaryHeap needs Ord; wrap (dist, row) in a total-order newtype.
        #[derive(PartialEq)]
        struct Key(f32, u32);
        impl Eq for Key {}
        impl PartialOrd for Key {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Key {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                by_dist(&(self.0, self.1), &(other.0, other.1))
            }
        }

        let mut visited = vec![false; frozen];
        visited[ep as usize] = true;
        // Min-heap of frontier candidates, max-heap of current best `ef`.
        let mut frontier: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
        let mut best: BinaryHeap<Key> = BinaryHeap::new();
        frontier.push(Reverse(Key(ep_d, ep)));
        best.push(Key(ep_d, ep));

        while let Some(Reverse(Key(cd, c))) = frontier.pop() {
            let worst = best.peek().expect("best is never empty").0;
            if cd > worst && best.len() >= ef {
                break;
            }
            for &u in &self.layers[layer][c as usize] {
                if (u as usize) >= frozen || visited[u as usize] {
                    continue;
                }
                visited[u as usize] = true;
                let d = dist(store, self.scorer, q, u);
                if best.len() < ef || d < best.peek().expect("non-empty").0 {
                    frontier.push(Reverse(Key(d, u)));
                    best.push(Key(d, u));
                    if best.len() > ef {
                        best.pop();
                    }
                }
            }
        }
        let mut out: Vec<(f32, u32)> = best.into_iter().map(|Key(d, u)| (d, u)).collect();
        out.sort_unstable_by(by_dist);
        out
    }

    /// Sequential link phase for row `v`: pick up to `M` neighbors per
    /// layer from the phase-1 candidates, add reverse edges, and shrink any
    /// list that overflows its cap. Promotes `v` to entry point if it tops
    /// the hierarchy.
    fn link(&mut self, store: &EmbeddingStore, v: u32, candidates: Vec<Vec<(f32, u32)>>) {
        let node_level = self.levels[v as usize] as usize;
        for (l, mut cands) in candidates.into_iter().enumerate() {
            cands.truncate(self.max_degree(l));
            for &(_, u) in &cands {
                self.layers[l][v as usize].push(u);
                self.layers[l][u as usize].push(v);
                if self.layers[l][u as usize].len() > self.max_degree(l) {
                    self.shrink(store, l, u);
                }
            }
        }
        if node_level > self.levels[self.entry as usize] as usize || v == 0 {
            self.entry = v;
        }
    }

    /// Neighbor cap on `layer`: `2·m` on the ground layer, `m` above.
    fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Re-selects the closest `max_degree` neighbors of `u` on `layer`.
    /// Called only from the sequential link phase, so mutation order is
    /// deterministic. Uses stored-row distances (not query distances), with
    /// the usual (distance, row) total order.
    fn shrink(&mut self, store: &EmbeddingStore, layer: usize, u: u32) {
        let cap = self.max_degree(layer);
        let list = std::mem::take(&mut self.layers[layer][u as usize]);
        let base = store.probe_for_row(u as usize);
        let mut scored: Vec<(f32, u32)> =
            list.into_iter().map(|w| (dist(store, self.scorer, &base, w), w)).collect();
        scored.sort_unstable_by(by_dist);
        scored.truncate(cap);
        self.layers[layer][u as usize] = scored.into_iter().map(|(_, w)| w).collect();
    }

    /// kNN search: the `k` most similar store rows to `query`, sorted by
    /// score descending (ties by row index). `ef` defaults to
    /// `max(ef_search, k)`.
    pub fn knn(&self, store: &EmbeddingStore, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), store.dim(), "query dimension mismatch");
        let n = store.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let probe = store.probe_for_vector(query);
        let ef = self.config.ef_search.max(k);
        let top = self.levels[self.entry as usize] as usize;
        let mut ep = self.entry;
        let mut ep_d = dist(store, self.scorer, &probe, ep);
        for l in (1..=top).rev() {
            (ep, ep_d) = self.greedy_step(store, &probe, ep, ep_d, l, n);
        }
        let found = self.search_layer(store, &probe, (ep, ep_d), 0, ef, n);
        found.into_iter().take(k).map(|(d, u)| Hit { index: u, score: -d }).collect()
    }
}

/// Exact brute-force kNN over every store row, parallel on the pool and
/// bit-identical at any thread count: per-row scores are computed into
/// disjoint slots, then selected with a total-order sort. The ground truth
/// for recall tests and the baseline the serve bench compares against.
pub fn knn_exact(store: &EmbeddingStore, query: &[f32], k: usize, scorer: Scorer) -> Vec<Hit> {
    assert_eq!(query.len(), store.dim(), "query dimension mismatch");
    let n = store.len();
    let mut scores = vec![0.0f32; n];
    pool::parallel_chunks(&mut scores, 256, |start, slab| {
        for (off, s) in slab.iter_mut().enumerate() {
            *s = scorer.score(query, store.row(start + off));
        }
    });
    let mut order: Vec<(f32, u32)> = scores.into_iter().zip(0..n as u32).collect();
    order.sort_unstable_by(|a, b| by_dist(&(-a.0, a.1), &(-b.0, b.1)));
    order.into_iter().take(k).map(|(s, u)| Hit { index: u, score: s }).collect()
}

/// Store-row tile height for [`knn_exact_batch`]: bounds the score block to
/// `queries × EXACT_TILE` floats (≤ 2 MB at the engine's max batch) while
/// each tile is still large enough to keep the blocked matmul kernel busy.
const EXACT_TILE: usize = 2048;

/// Batched exact kNN: scores *all* queries against the store through the
/// blocked [`score_block`] kernel (one matmul per store tile instead of one
/// sequential dot chain per pair), returning per-query hits sorted by score
/// descending, ties by row index — the same total order as [`knn_exact`].
///
/// ## Determinism
///
/// Bit-identical for any batch composition and any thread count: every
/// score is a pure function of its (query row, store row) pair, and tile
/// boundaries depend only on the store length. Selection keeps the exact
/// top-`k` of the union after each tile under the strict (−score, row)
/// total order, so it is also invariant to tiling. Note the scores are the
/// multi-lane kernel's — *reassociated* relative to [`knn_exact`]'s
/// sequential [`Scorer::score`] chains, so the two entry points agree on
/// ranking quality but not bitwise; `knn_exact` stays the recall ground
/// truth.
pub fn knn_exact_batch(
    store: &EmbeddingStore,
    queries: &[&[f32]],
    k: usize,
    scorer: Scorer,
) -> Vec<Vec<Hit>> {
    let dim = store.dim();
    for q in queries {
        assert_eq!(q.len(), dim, "query dimension mismatch");
    }
    let m = queries.len();
    let n = store.len();
    if m == 0 || n == 0 || k == 0 {
        return vec![Vec::new(); m];
    }
    let mut flat = Vec::with_capacity(m * dim);
    for q in queries {
        flat.extend_from_slice(q);
    }
    let mut best: Vec<Vec<(f32, u32)>> = vec![Vec::with_capacity(k + EXACT_TILE); m];
    let mut tile0 = 0usize;
    while tile0 < n {
        let rows = EXACT_TILE.min(n - tile0);
        let tile = &store.vectors()[tile0 * dim..(tile0 + rows) * dim];
        let block = score_block(scorer, &flat, m, tile, rows, dim);
        for (qi, cand) in best.iter_mut().enumerate() {
            cand.extend(
                block[qi * rows..(qi + 1) * rows]
                    .iter()
                    .enumerate()
                    .map(|(off, &s)| (s, (tile0 + off) as u32)),
            );
            cand.sort_unstable_by(|a, b| by_dist(&(-a.0, a.1), &(-b.0, b.1)));
            cand.truncate(k);
        }
        tile0 += rows;
    }
    best.into_iter()
        .map(|c| c.into_iter().map(|(s, u)| Hit { index: u, score: s }).collect())
        .collect()
}

/// Exact top-`k` of a score stream under the strict (−score, row) total
/// order — the same order every kNN entry point ranks by. An insertion list
/// instead of a full sort: for `k ≪ n` almost every candidate loses to the
/// current worst survivor and costs one comparison, which is what lets the
/// batched exact path spend its time in the matmul rather than in sorting.
/// Deterministic by construction — the result is the unique top-`k` of a
/// total order, independent of how the stream was produced or batched.
fn topk(scores: impl Iterator<Item = f32>, k: usize) -> Vec<Hit> {
    let mut top: Vec<(f32, u32)> = Vec::with_capacity(k + 1);
    for (i, s) in scores.enumerate() {
        let cand = (-s, i as u32);
        if top.len() == k {
            if by_dist(&cand, top.last().expect("k > 0")) != std::cmp::Ordering::Less {
                continue;
            }
            top.pop();
        }
        let pos = top.partition_point(|t| by_dist(t, &cand) == std::cmp::Ordering::Less);
        top.insert(pos, cand);
    }
    top.into_iter().map(|(d, u)| Hit { index: u, score: -d }).collect()
}

/// Pre-transposed store for the batched exact path.
///
/// [`knn_exact_batch`] streams `n×dim` store tiles through
/// [`score_block`]'s nt kernel — fine for one-off calls, but each score is
/// still a short dot chain, so coalescing queries barely amortizes anything.
/// `ExactIndex` pays the transpose once (`dim×n`, doubling the store's
/// resident size) so that `m` concurrent queries become a single
/// `m×dim · dim×n` product through the register-tiled [`Matrix::matmul`] —
/// the same multiversioned kernel the trainer runs — where the store
/// streams through cache once per *batch* instead of once per query. This
/// is what turns cross-request coalescing into real throughput: measured on
/// one core, per-query kernel time drops ~3–4× between batch 1 and batch 6.
///
/// ## Determinism
///
/// Bit-identical for any batch composition and any thread count:
/// [`Matrix::matmul`] preserves exact k-ascending summation per element, so
/// each score is a pure function of its (query, store row) pair; cosine
/// folds `1/(‖q‖ + 1e-12)` into the query and `1/(‖v‖ + 1e-12)` into the
/// selection scan, both pure per side. Selection via [`topk`] is the unique
/// top-`k` of a strict total order. Like [`knn_exact_batch`], scores are
/// *reassociated* relative to [`knn_exact`]'s sequential chains (and
/// cosine's stabilizer is folded per factor rather than added to the norm
/// product), so rankings agree but bytes differ across entry points —
/// `knn_exact` stays the recall ground truth.
pub struct ExactIndex(ExactImpl);

enum ExactImpl {
    /// f32 store: pre-transposed matmul route (see above).
    F32 {
        /// `dim×n` transpose of the store, so `queries · store_t` is one
        /// matmul.
        store_t: Matrix,
        /// Per-row `1/(‖v‖ + 1e-12)` for the cosine route (zero rows
        /// score 0).
        inv_norms: Vec<f32>,
    },
    /// Quantized store: no side table at all — the brute-force path is a
    /// fused streaming scan of the code table
    /// ([`EmbeddingStore::quant_scores_block`]), which reads ~4× fewer
    /// bytes per row than the f32 matmul and is exactly the
    /// memory-bandwidth reduction quantization buys.
    Quant,
}

impl ExactIndex {
    /// Builds the brute-force accelerator matching the store's precision:
    /// the `dim×n` transpose + inverse norms for f32, nothing for a
    /// quantized store (its scan reads the code table in place).
    pub fn build(store: &EmbeddingStore) -> Self {
        if store.precision() != Precision::F32 {
            return Self(ExactImpl::Quant);
        }
        let (n, dim) = (store.len(), store.dim());
        let data = store.vectors();
        let mut t = vec![0.0f32; n * dim];
        for r in 0..n {
            for (c, &v) in data[r * dim..(r + 1) * dim].iter().enumerate() {
                t[c * n + r] = v;
            }
        }
        let inv_norms = (0..n).map(|r| 1.0 / (norm(store.row(r)) + 1e-12)).collect();
        Self(ExactImpl::F32 { store_t: Matrix::from_vec(dim, n, t), inv_norms })
    }

    /// Batched exact kNN (exact over the store's *scoring table*: full
    /// f32 precision on an f32 store, quantized-score brute force on an
    /// int8 store, where the engine's rerank stage restores exact f32
    /// ordering). Per-query hits sorted by score descending, ties by row
    /// index. On the f32 matmul route, dot and cosine take the fast path
    /// and Euclidean falls back to [`knn_exact_batch`]. The L2 expansion
    /// `‖q‖² − 2⟨q,x⟩ + ‖x‖²` through the matmul would give different
    /// score bits from `knn_exact_batch`'s direct `Σ(q−x)²` and cancels
    /// for near-duplicate rows, so folding Euclidean in here needs a
    /// recall-checked re-bless. The quantized scan handles all three
    /// scorers in one fused kernel.
    ///
    /// # Panics
    /// Panics if a query's dimension disagrees with the store's.
    pub fn knn(
        &self,
        store: &EmbeddingStore,
        queries: &[&[f32]],
        k: usize,
        scorer: Scorer,
    ) -> Vec<Vec<Hit>> {
        let ExactImpl::F32 { store_t, inv_norms } = &self.0 else {
            return Self::knn_quant(store, queries, k, scorer);
        };
        if scorer == Scorer::Euclidean {
            return knn_exact_batch(store, queries, k, scorer);
        }
        let dim = store.dim();
        for q in queries {
            assert_eq!(q.len(), dim, "query dimension mismatch");
        }
        let (m, n) = (queries.len(), store.len());
        if m == 0 || n == 0 || k == 0 {
            return vec![Vec::new(); m];
        }
        let mut flat = Vec::with_capacity(m * dim);
        for q in queries {
            match scorer {
                Scorer::Dot => flat.extend_from_slice(q),
                Scorer::Cosine => {
                    let inv_qn = 1.0 / (norm(q) + 1e-12);
                    flat.extend(q.iter().map(|&x| x * inv_qn));
                }
                Scorer::Euclidean => unreachable!("handled above"),
            }
        }
        let scores = Matrix::from_vec(m, dim, flat).matmul(store_t);
        pool::parallel_map(m, |i| {
            let row = scores.row(i);
            match scorer {
                Scorer::Cosine => topk(row.iter().zip(inv_norms).map(|(&s, &inv)| s * inv), k),
                _ => topk(row.iter().copied(), k),
            }
        })
    }

    /// Brute force over a quantized store: one fused code-table scan per
    /// query (the scan itself parallelizes over row chunks on the pool, so
    /// queries run sequentially here — no nested parallelism). Every score
    /// is a pure function of its (query, row) pair, so results are
    /// bit-identical at any thread count and ISA level.
    fn knn_quant(
        store: &EmbeddingStore,
        queries: &[&[f32]],
        k: usize,
        scorer: Scorer,
    ) -> Vec<Vec<Hit>> {
        let dim = store.dim();
        for q in queries {
            assert_eq!(q.len(), dim, "query dimension mismatch");
        }
        if queries.is_empty() || store.is_empty() || k == 0 {
            return vec![Vec::new(); queries.len()];
        }
        let mut scores = vec![0.0f32; store.len()];
        queries
            .iter()
            .map(|q| {
                let probe = store.probe_for_vector(q);
                store.quant_scores_block(scorer, &probe, &mut scores);
                topk(scores.iter().copied(), k)
            })
            .collect()
    }
}
