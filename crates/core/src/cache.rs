//! Epoch-persistent context-row cache with a memory-budget ladder.
//!
//! Contexts are frozen once `prepare()` has run, yet the seed trainer
//! re-derived every batch's sparse operand from triplets (gather + sort)
//! each epoch. This module materializes *all* context rows once, in CSR
//! form and in [`ContextSet`] row order, so assembling a batch collapses to
//! concatenating per-node row ranges — two `memcpy`s per node via
//! [`SparseMatrix::select_row_ranges`], with exact-nnz allocation and no
//! sorting.
//!
//! The cache reproduces [`ContextBatch::build`]'s numbers *bit for bit*:
//! duplicate columns within a row are summed in slot-encounter order, which
//! is exactly the order `SparseMatrix::from_triplets`'s stable sort leaves
//! duplicates in. A proptest in `batch.rs` holds the two builders equal on
//! random graphs for both encoders.
//!
//! ## Memory budget (`CoaneConfig::max_cache_bytes`)
//!
//! At million-node scale the materialized CSR can dominate peak RSS. When a
//! budget is set, [`ContextRowCache::build_budgeted`] picks one of two
//! rungs (see DESIGN.md §2.12):
//!
//! 1. **Materialized** — the full CSR, when its (conservative) size
//!    estimate fits the budget. Batch assembly is a row-range `memcpy`.
//! 2. **Rebuild** — rows are not stored at all; each batch rebuilds its
//!    nodes' rows from the (already resident) [`ContextSet`] and attribute
//!    matrix. O(n) resident overhead; prefetch hides the extra CPU behind
//!    the training step.
//!
//! Both rungs produce **bit-identical batches**: they feed the same
//! row-construction routine. Equivalence across rungs and thread counts is
//! locked by `tests/streaming.rs`.

use coane_graph::{AttributedGraph, NodeAttributes, NodeId};
use coane_nn::{Matrix, SparseMatrix};
use coane_walks::{ContextSet, PAD};
use std::ops::Range;
use std::sync::Arc;

use crate::batch::ContextBatch;
use crate::config::EncoderKind;

/// Which rung of the budget ladder a cache landed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Full CSR resident (rung 1; also the unbudgeted default).
    Materialized,
    /// Never produced. The delta+varint compressed rung was removed: it was
    /// not faster per epoch than [`CacheMode::Rebuild`] by more than the
    /// spread between runs, while holding ~30× its memory (DESIGN.md
    /// §2.12). The variant stays so exhaustive matches written against the
    /// three-rung ladder compile.
    Compressed,
    /// Rows rebuilt per batch from contexts + attributes (rung 2).
    Rebuild,
}

/// Rung-2 source: enough state to rebuild any node's rows on demand. The
/// context set is shared (`Arc`) with the trainer's `Prepared` state; the
/// attribute matrix is cloned so `infer_batch` needs no graph borrow.
#[derive(Clone, Debug)]
struct RebuildSource {
    contexts: Arc<ContextSet>,
    attrs: NodeAttributes,
    encoder: EncoderKind,
}

#[derive(Clone, Debug)]
enum RowStore {
    Materialized(SparseMatrix),
    Rebuild(RebuildSource),
}

/// All context rows of a graph, materialized once per training run (or,
/// under a budget, rebuilt per batch).
#[derive(Clone, Debug)]
pub struct ContextRowCache {
    store: RowStore,
    /// Per-node context row ranges (`len = n + 1`), mirroring the context
    /// set's grouping so the cache can be used without re-borrowing it.
    offsets: Vec<usize>,
    attr_dim: usize,
    /// Row width (`c·d` conv, `d` fully-connected).
    cols: usize,
    /// Total nnz across all rows (identical for every rung).
    nnz: usize,
    /// Bytes held resident by the chosen representation.
    resident_bytes: usize,
}

/// Appends every context row of node `v` to a CSR-in-progress. Both cache
/// rungs and the budgeted builder's nnz count call this one routine, so
/// their rows cannot differ by construction.
#[allow(clippy::too_many_arguments)] // the CSR triple + scratch are one logical output
fn append_node_rows(
    attrs: &NodeAttributes,
    d: usize,
    encoder: EncoderKind,
    contexts: &ContextSet,
    v: NodeId,
    indptr: &mut Vec<usize>,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
    scratch: &mut Vec<(u32, f32)>,
) {
    for window in contexts.contexts_of(v) {
        let row_start = indices.len();
        match encoder {
            EncoderKind::Convolution => {
                // Slot bases ascend and attr indices ascend within a
                // slot, so columns arrive nondecreasing: merging
                // adjacent equals reproduces the stable triplet sort.
                for (p, &u) in window.iter().enumerate() {
                    if u == PAD {
                        continue;
                    }
                    let base = (p * d) as u32;
                    let (idx, val) = attrs.row(u);
                    for (&a, &x) in idx.iter().zip(val) {
                        push_merged(indices, values, row_start, base + a, x);
                    }
                }
            }
            EncoderKind::FullyConnected => {
                scratch.clear();
                for &u in window {
                    if u == PAD {
                        continue;
                    }
                    let (idx, val) = attrs.row(u);
                    scratch.extend(idx.iter().zip(val).map(|(&a, &x)| (a, x)));
                }
                // Stable by column: duplicates stay in slot-encounter
                // order, matching `from_triplets` exactly.
                scratch.sort_by_key(|&(a, _)| a);
                for &(a, x) in scratch.iter() {
                    push_merged(indices, values, row_start, a, x);
                }
            }
        }
        indptr.push(indices.len());
    }
}

impl ContextRowCache {
    /// Materializes every context row for `contexts` under `encoder` (the
    /// unbudgeted path: always rung 1).
    pub fn build(graph: &AttributedGraph, contexts: &ContextSet, encoder: EncoderKind) -> Self {
        let attrs = graph.attrs();
        let d = graph.attr_dim();
        let cols = Self::row_width(contexts, encoder, d);
        let n = contexts.num_nodes();
        let total_ctx = contexts.num_contexts();
        let nnz_bound = Self::nnz_bound(attrs, contexts);

        let mut indptr = Vec::with_capacity(total_ctx + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::with_capacity(nnz_bound);
        let mut values: Vec<f32> = Vec::with_capacity(nnz_bound);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        for v in 0..n as NodeId {
            append_node_rows(
                attrs,
                d,
                encoder,
                contexts,
                v,
                &mut indptr,
                &mut indices,
                &mut values,
                &mut scratch,
            );
            offsets.push(indptr.len() - 1);
        }

        let nnz = indices.len();
        let resident_bytes = Self::csr_bytes(nnz, total_ctx, n);
        let rows = SparseMatrix::from_csr(total_ctx, cols, indptr, indices, values);
        Self {
            store: RowStore::Materialized(rows),
            offsets,
            attr_dim: d,
            cols,
            nnz,
            resident_bytes,
        }
    }

    /// Budget-aware build: keeps the materialized CSR when its estimate
    /// fits `max_bytes`, and otherwise stores no rows and rebuilds each
    /// batch's rows on demand. Batches from either rung are bit-identical
    /// to the unbudgeted cache's.
    ///
    /// Sizing is honest-conservative: the materialized estimate uses the
    /// nnz *upper bound* (duplicate merging only shrinks it), so a
    /// materialized cache's reported [`ContextRowCache::resident_bytes`]
    /// never exceeds the budget that admitted it.
    ///
    /// # Panics
    /// Panics if `max_bytes` is zero (use [`ContextRowCache::build`] for an
    /// unbounded cache).
    pub fn build_budgeted(
        graph: &AttributedGraph,
        contexts: &Arc<ContextSet>,
        encoder: EncoderKind,
        max_bytes: usize,
    ) -> Self {
        assert!(max_bytes > 0, "max_bytes must be positive; unbudgeted builds use build()");
        let attrs = graph.attrs();
        let d = graph.attr_dim();
        let n = contexts.num_nodes();
        let total_ctx = contexts.num_contexts();
        let nnz_bound = Self::nnz_bound(attrs, contexts);

        // Rung 1: full CSR, if the conservative estimate fits.
        if Self::csr_bytes(nnz_bound, total_ctx, n) <= max_bytes {
            return Self::build(graph, contexts, encoder);
        }

        // Rung 2: store nothing row-shaped; rebuild per batch. One counting
        // pass through the shared row builder gives the exact nnz (merged
        // duplicates included) with only one node's rows alive at a time.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut nnz = 0usize;
        let (mut indptr, mut indices, mut values) = (Vec::new(), Vec::new(), Vec::new());
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for v in 0..n as NodeId {
            indptr.clear();
            indptr.push(0usize);
            indices.clear();
            values.clear();
            append_node_rows(
                attrs,
                d,
                encoder,
                contexts,
                v,
                &mut indptr,
                &mut indices,
                &mut values,
                &mut scratch,
            );
            nnz += indices.len();
            offsets.push(offsets.last().unwrap() + indptr.len() - 1);
        }
        // The context set is shared with the trainer, so only the attribute
        // clone and the offsets are newly resident.
        let resident_bytes = offsets.len() * 8 + attrs.nnz() * 8 + (attrs.num_rows() + 1) * 8;
        let source =
            RebuildSource { contexts: Arc::clone(contexts), attrs: attrs.clone(), encoder };
        Self {
            store: RowStore::Rebuild(source),
            offsets,
            attr_dim: d,
            cols: Self::row_width(contexts, encoder, d),
            nnz,
            resident_bytes,
        }
    }

    fn row_width(contexts: &ContextSet, encoder: EncoderKind, d: usize) -> usize {
        match encoder {
            EncoderKind::Convolution => contexts.context_size() * d,
            EncoderKind::FullyConnected => d,
        }
    }

    /// Exact upper bound on nnz: every non-PAD slot contributes its attr
    /// row once (duplicate-column merging can only shrink it; for the
    /// convolutional layout with duplicate-free attr rows it is exact).
    fn nnz_bound(attrs: &NodeAttributes, contexts: &ContextSet) -> usize {
        let mut bound = 0usize;
        for v in 0..contexts.num_nodes() as NodeId {
            for &u in contexts.slots_of(v) {
                if u != PAD {
                    bound += attrs.row(u).0.len();
                }
            }
        }
        bound
    }

    /// Resident size of a CSR with `nnz` entries, `rows` rows and `n` node
    /// offsets (u32 index + f32 value per entry, usize per row/node).
    fn csr_bytes(nnz: usize, rows: usize, n: usize) -> usize {
        nnz * 8 + (rows + 1) * 8 + (n + 1) * 8
    }

    /// Which representation the cache holds.
    pub fn mode(&self) -> CacheMode {
        match self.store {
            RowStore::Materialized(_) => CacheMode::Materialized,
            RowStore::Rebuild(_) => CacheMode::Rebuild,
        }
    }

    /// Bytes held resident by the chosen representation (≥ the actual
    /// allocation it accounts for; see [`ContextRowCache::build_budgeted`]).
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Total cached context rows.
    pub fn num_contexts(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Stored entries across all cached rows (same for every rung).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Context row range of node `v` within the cache.
    pub fn row_range(&self, v: NodeId) -> Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// Assembles the full training batch for `nodes`: cached sparse rows
    /// plus the dense attribute targets. Bit-identical to
    /// [`ContextBatch::build`] on the same inputs.
    pub fn batch(&self, graph: &AttributedGraph, nodes: &[NodeId]) -> ContextBatch {
        let mut batch = self.infer_batch(nodes);
        batch.x_target =
            Matrix::from_vec(nodes.len(), self.attr_dim, graph.attrs().gather_dense(nodes));
        batch
    }

    /// Assembles an inference-only batch: same `rb` and `offsets` as
    /// [`ContextRowCache::batch`] but with an empty `x_target` (renewal and
    /// inductive encoding never read the reconstruction targets).
    pub fn infer_batch(&self, nodes: &[NodeId]) -> ContextBatch {
        let rb = match &self.store {
            RowStore::Materialized(rows) => {
                let ranges: Vec<Range<usize>> = nodes.iter().map(|&v| self.row_range(v)).collect();
                rows.select_row_ranges(&ranges)
            }
            RowStore::Rebuild(src) => self.rebuild_nodes(src, nodes),
        };
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for &v in nodes {
            total += self.row_range(v).len();
            offsets.push(total);
        }
        ContextBatch {
            nodes: nodes.to_vec(),
            rb: Arc::new(rb),
            offsets: Arc::new(offsets),
            x_target: Matrix::zeros(0, self.attr_dim),
        }
    }

    /// Rebuilds the concatenated rows of `nodes` from contexts + attributes.
    fn rebuild_nodes(&self, src: &RebuildSource, nodes: &[NodeId]) -> SparseMatrix {
        let total_rows: usize = nodes.iter().map(|&v| self.row_range(v).len()).sum();
        let mut indptr = Vec::with_capacity(total_rows + 1);
        indptr.push(0usize);
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for &v in nodes {
            append_node_rows(
                &src.attrs,
                self.attr_dim,
                src.encoder,
                &src.contexts,
                v,
                &mut indptr,
                &mut indices,
                &mut values,
                &mut scratch,
            );
        }
        SparseMatrix::from_csr(total_rows, self.cols, indptr, indices, values)
    }
}

/// Appends `(col, val)` to the row that started at `row_start`, summing into
/// the previous entry when the column repeats — the on-the-fly equivalent of
/// the stable triplet sort-and-merge.
#[inline]
fn push_merged(
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
    row_start: usize,
    col: u32,
    val: f32,
) {
    if indices.len() > row_start && *indices.last().unwrap() == col {
        *values.last_mut().unwrap() += val;
    } else {
        indices.push(col);
        values.push(val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coane_graph::{GraphBuilder, NodeAttributes};
    use coane_walks::ContextsConfig;

    fn fixture() -> (AttributedGraph, ContextSet) {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edges(&[(0, 1), (1, 2)]);
        let g = b
            .with_attrs(NodeAttributes::from_sparse_rows(
                3,
                &[vec![(0, 1.0)], vec![(1, 2.0)], vec![(2, 3.0)]],
            ))
            .build();
        let walks = vec![vec![0, 1, 2], vec![2, 1, 0]];
        let cs = ContextSet::build(
            &walks,
            3,
            &ContextsConfig { context_size: 3, subsample_t: f64::INFINITY, seed: 0 },
        );
        (g, cs)
    }

    #[test]
    fn cached_batch_matches_fresh_build() {
        let (g, cs) = fixture();
        for encoder in [EncoderKind::Convolution, EncoderKind::FullyConnected] {
            let cache = ContextRowCache::build(&g, &cs, encoder);
            for nodes in [vec![1], vec![2, 0], vec![0, 1, 2], vec![1, 1]] {
                let fresh = ContextBatch::build(&g, &cs, &nodes, encoder);
                let cached = cache.batch(&g, &nodes);
                assert_eq!(*cached.rb, *fresh.rb, "{encoder:?} nodes={nodes:?}");
                assert_eq!(cached.offsets, fresh.offsets, "{encoder:?} nodes={nodes:?}");
                assert_eq!(cached.x_target, fresh.x_target, "{encoder:?} nodes={nodes:?}");
                assert_eq!(cached.nodes, fresh.nodes);
            }
        }
    }

    #[test]
    fn infer_batch_skips_targets_only() {
        let (g, cs) = fixture();
        let cache = ContextRowCache::build(&g, &cs, EncoderKind::Convolution);
        let full = cache.batch(&g, &[2, 1]);
        let infer = cache.infer_batch(&[2, 1]);
        assert_eq!(infer.rb, full.rb);
        assert_eq!(infer.offsets, full.offsets);
        assert_eq!(infer.x_target.shape(), (0, 3));
    }

    #[test]
    fn row_ranges_cover_all_contexts() {
        let (g, cs) = fixture();
        let cache = ContextRowCache::build(&g, &cs, EncoderKind::Convolution);
        assert_eq!(cache.num_contexts(), cs.num_contexts());
        let mut covered = 0;
        for v in 0..3u32 {
            let r = cache.row_range(v);
            assert_eq!(r.len(), cs.count(v));
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, cache.num_contexts());
    }

    #[test]
    fn fc_duplicate_columns_match_triplet_order() {
        // Two nodes sharing attribute 0 with different magnitudes: the FC
        // layout sums them; order must match the stable triplet merge.
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 1, 1.0);
        let g = b
            .with_attrs(NodeAttributes::from_sparse_rows(
                2,
                &[vec![(0, 1.0e-8), (1, 0.5)], vec![(0, 1.0)]],
            ))
            .build();
        let walks = vec![vec![0, 1]];
        let cs = ContextSet::build(
            &walks,
            2,
            &ContextsConfig { context_size: 3, subsample_t: f64::INFINITY, seed: 0 },
        );
        let cache = ContextRowCache::build(&g, &cs, EncoderKind::FullyConnected);
        for nodes in [vec![0u32], vec![1], vec![0, 1]] {
            let fresh = ContextBatch::build(&g, &cs, &nodes, EncoderKind::FullyConnected);
            let cached = cache.batch(&g, &nodes);
            assert_eq!(*cached.rb, *fresh.rb, "nodes={nodes:?}");
        }
    }

    #[test]
    fn budget_ladder_picks_every_rung_and_stays_bit_identical() {
        let (g, cs) = fixture();
        let cs = Arc::new(cs);
        for encoder in [EncoderKind::Convolution, EncoderKind::FullyConnected] {
            let unbounded = ContextRowCache::build(&g, &cs, encoder);
            // Huge budget → materialized; one byte short of the CSR, or
            // tiny → rebuild. The fixture's CSR is ~hundreds of bytes.
            let cases = [
                (1 << 20, CacheMode::Materialized),
                (unbounded.resident_bytes() - 1, CacheMode::Rebuild),
                (1, CacheMode::Rebuild),
            ];
            for (budget, want_mode) in cases {
                let cache = ContextRowCache::build_budgeted(&g, &cs, encoder, budget);
                assert_eq!(cache.mode(), want_mode, "budget={budget} {encoder:?}");
                assert_eq!(cache.nnz(), unbounded.nnz());
                assert_eq!(cache.num_contexts(), unbounded.num_contexts());
                if want_mode != CacheMode::Rebuild {
                    assert!(
                        cache.resident_bytes() <= budget,
                        "{want_mode:?} over budget: {} > {budget}",
                        cache.resident_bytes()
                    );
                }
                for nodes in [vec![1u32], vec![2, 0], vec![0, 1, 2], vec![1, 1]] {
                    let a = cache.batch(&g, &nodes);
                    let b = unbounded.batch(&g, &nodes);
                    assert_eq!(*a.rb, *b.rb, "{want_mode:?} {encoder:?} nodes={nodes:?}");
                    assert_eq!(a.offsets, b.offsets);
                    assert_eq!(a.x_target, b.x_target);
                }
            }
        }
    }
}
