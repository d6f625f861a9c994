//! Context extraction (§3.1).
//!
//! A fixed odd window of size `c` slides over each walk; the node at the
//! window's midst is the context's *center*. Positions outside the walk are
//! padded with [`PAD`] (the paper pads "like the image padding for CNN";
//! downstream the pad slots contribute all-zero attribute rows). Word2vec
//! subsampling discards contexts of over-frequent centers with probability
//! `1 − √(t / f(v))`, except at walk position 0 so that every start node
//! keeps at least one context.

use coane_graph::NodeId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::walker::{Walk, Walker};

/// Sentinel for an empty (padded) context slot.
pub const PAD: NodeId = NodeId::MAX;

/// Context-extraction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ContextsConfig {
    /// Window size `c` (odd, ≥ 1). The paper tunes `c ∈ {3,5,7,9,11}`.
    pub context_size: usize,
    /// Subsampling threshold `t` (the paper uses 1e-5); `f(v)` is measured as
    /// a relative frequency over all walk positions. Set to `f64::INFINITY`
    /// to disable subsampling.
    pub subsample_t: f64,
    /// Seed of the subsampling RNG.
    pub seed: u64,
}

impl Default for ContextsConfig {
    fn default() -> Self {
        Self { context_size: 5, subsample_t: 1e-5, seed: 7 }
    }
}

/// All extracted contexts, grouped by center node.
///
/// The contexts of node `v` are the consecutive `c`-slot rows
/// `offsets[v]..offsets[v+1]` of the internal slot buffer — the flattened
/// form of the paper's stacked attribute-context matrix `R_v`.
#[derive(Clone, Debug)]
pub struct ContextSet {
    c: usize,
    n: usize,
    /// Walk positions the contexts were extracted from (kept + dropped).
    positions: usize,
    /// Context-range offsets per node, length `n + 1` (units: contexts).
    offsets: Vec<usize>,
    /// Flattened windows, `num_contexts() * c` slots, PAD-padded.
    slots: Vec<NodeId>,
}

impl ContextSet {
    /// Extracts contexts from `walks` over an `n`-node graph.
    ///
    /// # Panics
    /// Panics if `context_size` is even or zero.
    pub fn build(walks: &[Walk], n: usize, cfg: &ContextsConfig) -> Self {
        Self::build_replayed(n, cfg, |visit| walks.iter().for_each(|w| visit(w)))
    }

    /// Streaming [`ContextSet::build`]: extracts the same contexts from
    /// `walker`'s walk sequence without ever materializing all `r·n` walks.
    /// Every pass regenerates the walks through [`Walker::stream_blocks`]
    /// (per-walk seeding makes regeneration exact), so peak walk storage is
    /// a handful of `block_size`-walk blocks, and the result is
    /// bit-identical to `build(&walker.generate_all(_), ..)` for any block
    /// size and thread count.
    ///
    /// # Panics
    /// Panics if `context_size` is even or zero, or `block_size` is zero.
    pub fn build_streamed(
        walker: &Walker,
        n: usize,
        block_size: usize,
        cfg: &ContextsConfig,
    ) -> Self {
        // How far ahead the producer may run (in blocks). Purely a
        // throughput knob: consumption order is block order regardless.
        const DEPTH: usize = 2;
        Self::build_replayed(n, cfg, |visit| {
            walker.stream_blocks(block_size, DEPTH, |_, block| block.iter().for_each(|w| visit(w)))
        })
    }

    /// The context builder behind both entry points. `replay(visit)` must
    /// call `visit` on every walk of the corpus, in corpus order, on each
    /// of its three calls:
    ///
    /// 1. **Frequencies** — `f(v)` over all walk positions gives every
    ///    node's discard probability `max(0, 1 − √(t / f(v)))`.
    /// 2. **Keep bits** — the sequential subsampling RNG is consumed in
    ///    walk-major position order (position 0 is always kept and draws
    ///    nothing), recording one keep bit per position and per-center
    ///    survivor counts.
    /// 3. **Slot fill** — with per-node offsets now known, every kept
    ///    window is copied into its center's next row.
    ///
    /// The RNG lives on the calling thread, so the result depends only on
    /// the walk sequence, never on how it is produced.
    fn build_replayed(
        n: usize,
        cfg: &ContextsConfig,
        mut replay: impl FnMut(&mut dyn FnMut(&[NodeId])),
    ) -> Self {
        assert!(cfg.context_size >= 1 && cfg.context_size % 2 == 1, "context size must be odd");
        let c = cfg.context_size;
        let half = c / 2;

        // Pass 1: global node frequencies.
        let mut freq = vec![0u64; n];
        replay(&mut |walk| walk.iter().for_each(|&v| freq[v as usize] += 1));
        let positions = freq.iter().sum::<u64>() as usize;
        let p_discard: Vec<f64> = freq
            .iter()
            .map(|&f| {
                if f == 0 {
                    return 0.0;
                }
                let rel = f as f64 / positions as f64;
                (1.0 - (cfg.subsample_t / rel).sqrt()).max(0.0)
            })
            .collect();

        // Pass 2: subsampling decisions, one bit per walk position.
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut keep_bits = vec![0u64; positions.div_ceil(64)];
        let mut counts = vec![0usize; n];
        let mut bit = 0usize;
        replay(&mut |walk| {
            for (pos, &center) in walk.iter().enumerate() {
                if pos == 0 || !rng.gen_bool(p_discard[center as usize]) {
                    keep_bits[bit / 64] |= 1u64 << (bit % 64);
                    counts[center as usize] += 1;
                }
                bit += 1;
            }
        });

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for &cnt in &counts {
            offsets.push(offsets.last().unwrap() + cnt);
        }
        let total_ctx = *offsets.last().unwrap();

        // Pass 3: fill the slots of every kept position.
        let mut slots = vec![PAD; total_ctx * c];
        let mut cursor = offsets[..n].to_vec();
        let mut bit = 0usize;
        replay(&mut |walk| {
            for (pos, &center) in walk.iter().enumerate() {
                let keep = keep_bits[bit / 64] >> (bit % 64) & 1 == 1;
                bit += 1;
                if !keep {
                    continue;
                }
                let row = cursor[center as usize];
                cursor[center as usize] += 1;
                let dst = &mut slots[row * c..(row + 1) * c];
                for (k, slot) in dst.iter_mut().enumerate() {
                    let rel = pos as isize + k as isize - half as isize;
                    if rel >= 0 && (rel as usize) < walk.len() {
                        *slot = walk[rel as usize];
                    }
                }
            }
        });
        Self { c, n, positions, offsets, slots }
    }

    /// Window size `c`.
    pub fn context_size(&self) -> usize {
        self.c
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Total number of contexts across all nodes.
    pub fn num_contexts(&self) -> usize {
        self.offsets[self.n]
    }

    /// Number of walk positions the contexts were extracted from: the kept
    /// contexts plus the positions subsampling dropped.
    pub fn num_positions(&self) -> usize {
        self.positions
    }

    /// `|context(v)|` — the number of contexts centered at `v`.
    pub fn count(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// All per-node context counts.
    pub fn counts(&self) -> Vec<usize> {
        (0..self.n).map(|v| self.count(v as NodeId)).collect()
    }

    /// `k_p = max_v |context(v)|` (§3.3.1's latent neighborhood size).
    pub fn max_count(&self) -> usize {
        (0..self.n).map(|v| self.count(v as NodeId)).max().unwrap_or(0)
    }

    /// Global context-row range of node `v`: in any matrix laid out with one
    /// row per context in center-node order (such as `coane-core`'s
    /// epoch-persistent context-row cache), `v`'s contexts occupy exactly
    /// these row indices.
    pub fn row_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Iterator over the `c`-slot windows of node `v`.
    pub fn contexts_of(&self, v: NodeId) -> impl Iterator<Item = &[NodeId]> {
        let (s, e) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        self.slots[s * self.c..e * self.c].chunks_exact(self.c)
    }

    /// Flat slot buffer of node `v`'s contexts (`count(v) * c` entries).
    pub fn slots_of(&self, v: NodeId) -> &[NodeId] {
        let (s, e) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        &self.slots[s * self.c..e * self.c]
    }

    /// Distinct non-PAD nodes appearing in `v`'s contexts (sorted), i.e. the
    /// membership test set for the contextual negative sampler.
    pub fn members_of(&self, v: NodeId) -> Vec<NodeId> {
        let mut m: Vec<NodeId> = self.slots_of(v).iter().copied().filter(|&x| x != PAD).collect();
        m.sort_unstable();
        m.dedup();
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_subsample(c: usize) -> ContextsConfig {
        ContextsConfig { context_size: c, subsample_t: f64::INFINITY, seed: 0 }
    }

    #[test]
    fn windows_padded_at_boundaries() {
        let walks = vec![vec![10, 11, 12]];
        let cs = ContextSet::build(&walks, 13, &no_subsample(3));
        assert_eq!(cs.num_contexts(), 3);
        let w10: Vec<&[NodeId]> = cs.contexts_of(10).collect();
        assert_eq!(w10, vec![&[PAD, 10, 11][..]]);
        let w11: Vec<&[NodeId]> = cs.contexts_of(11).collect();
        assert_eq!(w11, vec![&[10, 11, 12][..]]);
        let w12: Vec<&[NodeId]> = cs.contexts_of(12).collect();
        assert_eq!(w12, vec![&[11, 12, PAD][..]]);
    }

    #[test]
    fn center_occupies_midst() {
        let walks = vec![vec![0, 1, 2, 3, 4]];
        let cs = ContextSet::build(&walks, 5, &no_subsample(5));
        for v in 0..5u32 {
            for w in cs.contexts_of(v) {
                assert_eq!(w[2], v, "center not at midst of {w:?}");
            }
        }
    }

    #[test]
    fn counts_group_by_center() {
        // node 1 appears twice → two contexts
        let walks = vec![vec![0, 1, 1]];
        let cs = ContextSet::build(&walks, 2, &no_subsample(3));
        assert_eq!(cs.count(0), 1);
        assert_eq!(cs.count(1), 2);
        assert_eq!(cs.max_count(), 2);
        assert_eq!(cs.counts(), vec![1, 2]);
        assert_eq!(cs.row_range(0), 0..1);
        assert_eq!(cs.row_range(1), 1..3);
    }

    #[test]
    fn aggressive_subsampling_keeps_walk_starts() {
        // t = 0 → p_discard = 1 for every node; only position-0 contexts
        // survive, one per walk.
        let walks = vec![vec![0, 1, 2, 0, 1], vec![1, 0, 2]];
        let cfg = ContextsConfig { context_size: 3, subsample_t: 0.0, seed: 1 };
        let cs = ContextSet::build(&walks, 3, &cfg);
        assert_eq!(cs.num_contexts(), 2);
        assert_eq!(cs.count(0), 1);
        assert_eq!(cs.count(1), 1);
        assert_eq!(cs.count(2), 0);
    }

    #[test]
    fn members_deduplicated_sorted() {
        let walks = vec![vec![3, 1, 3, 2]];
        let cs = ContextSet::build(&walks, 4, &no_subsample(5));
        let m = cs.members_of(1);
        assert_eq!(m, vec![1, 2, 3]);
    }

    #[test]
    fn context_size_one_is_just_centers() {
        let walks = vec![vec![0, 1, 2]];
        let cs = ContextSet::build(&walks, 3, &no_subsample(1));
        for v in 0..3u32 {
            let w: Vec<&[NodeId]> = cs.contexts_of(v).collect();
            assert_eq!(w, vec![&[v][..]]);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_context_rejected() {
        ContextSet::build(&[vec![0]], 1, &no_subsample(4));
    }

    #[test]
    fn streamed_build_matches_materialized() {
        use crate::walker::WalkConfig;
        use coane_graph::{GraphBuilder, NodeAttributes};
        // A ring so walks never dead-end and subsampling has signal.
        let n = 30usize;
        let mut b = GraphBuilder::new(n, n);
        for v in 0..n {
            b.add_edge(v as NodeId, ((v + 1) % n) as NodeId, 1.0);
        }
        let g = b.with_attrs(NodeAttributes::identity(n)).build();
        let walker = Walker::new(
            &g,
            WalkConfig { walks_per_node: 2, walk_length: 15, p: 1.0, q: 1.0, seed: 5 },
        );
        let walks = walker.generate_all(1);
        for subsample_t in [f64::INFINITY, 2e-2] {
            let cfg = ContextsConfig { context_size: 5, subsample_t, seed: 11 };
            let reference = ContextSet::build(&walks, n, &cfg);
            for block_size in [1usize, 4, 60, 1000] {
                let streamed = ContextSet::build_streamed(&walker, n, block_size, &cfg);
                assert_eq!(streamed.offsets, reference.offsets, "t={subsample_t} b={block_size}");
                assert_eq!(streamed.slots, reference.slots, "t={subsample_t} b={block_size}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let walks = vec![vec![0, 1, 2, 1, 0, 2, 1]; 4];
        let cfg = ContextsConfig { context_size: 3, subsample_t: 0.05, seed: 9 };
        let a = ContextSet::build(&walks, 3, &cfg);
        let b = ContextSet::build(&walks, 3, &cfg);
        assert_eq!(a.slots, b.slots);
        assert_eq!(a.offsets, b.offsets);
    }
}
