//! Context co-occurrence matrices (§3.1, §3.3.1).
//!
//! `D_ij` counts how often `v_j` occurs in the contexts of `v_i`; `D¹` keeps
//! only the entries backed by a real edge (`E_ij > 0`). The positive graph
//! likelihood operates on `D̃ = Dᴺ + D¹` — the row-normalized `D` plus the
//! *raw* one-hop counts, which (per the paper's RWR argument) deliberately
//! over-weights direct neighbours — restricted to each row's top-`k_p`
//! entries to suppress noisy low-count pairs.

use coane_graph::{AttributedGraph, NodeId};

use crate::context::{ContextSet, PAD};

/// Sparse row-major counts with `f32` values (CSR).
#[derive(Clone, Debug, PartialEq)]
pub struct SparseCounts {
    n: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseCounts {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.n
    }

    /// Stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row view `(column indices, values)`.
    pub fn row(&self, i: NodeId) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[i as usize], self.indptr[i as usize + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Value at `(i, j)` (0 when absent).
    pub fn get(&self, i: NodeId, j: NodeId) -> f32 {
        let (idx, val) = self.row(i);
        idx.binary_search(&j).map(|p| val[p]).unwrap_or(0.0)
    }

    /// Sum of row `i`.
    pub fn row_sum(&self, i: NodeId) -> f32 {
        self.row(i).1.iter().sum()
    }
}

/// The pair of co-occurrence matrices `D` and `D¹` plus the combined `D̃`.
#[derive(Clone, Debug)]
pub struct CoMatrices {
    /// Full co-occurrence counts `D`.
    pub d: SparseCounts,
    /// Edge-masked counts `D¹` (`D¹_ij = D_ij` iff `E_ij > 0`).
    pub d1: SparseCounts,
    /// `D̃ = Dᴺ + D¹` with `Dᴺ` the row-normalized `D`.
    pub d_tilde: SparseCounts,
}

impl CoMatrices {
    /// Builds all three matrices from the extracted contexts. Diagonal
    /// entries (a node co-occurring with itself) are recorded in `D` but the
    /// likelihood machinery skips them via [`PositivePairs`]. This is
    /// [`CoMatrices::build_blocked`] with a single block of all nodes.
    pub fn build(contexts: &ContextSet, graph: &AttributedGraph) -> Self {
        Self::build_blocked(contexts, graph, contexts.num_nodes().max(1))
    }

    /// [`CoMatrices::build`] with blocked accumulation: `D` is assembled
    /// over fixed node ranges `[0, B), [B, 2B), …` in ascending order. Each
    /// range's `(row, col)` pairs are sorted and run-length counted into
    /// that range's `f32` CSR rows. A row of `D` depends only on its own
    /// center's contexts, so the result is **bit-identical** for every
    /// `block_nodes ≥ 1` (locked by `tests/streaming.rs`). What changes is
    /// peak memory: the transient pair buffer holds one entry per context
    /// slot of one block rather than of the whole graph.
    ///
    /// # Panics
    /// Panics if `block_nodes` is zero.
    pub fn build_blocked(
        contexts: &ContextSet,
        graph: &AttributedGraph,
        block_nodes: usize,
    ) -> Self {
        assert!(block_nodes >= 1, "block_nodes must be positive");
        let n = contexts.num_nodes();
        assert_eq!(n, graph.num_nodes(), "contexts/graph node count mismatch");
        let mut indptr = vec![0usize; n + 1];
        let mut indices: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut start = 0usize;
        while start < n {
            let end = (start + block_nodes).min(n);
            pairs.clear();
            for v in start as NodeId..end as NodeId {
                for w in contexts.contexts_of(v) {
                    for &u in w {
                        if u != PAD && u != v {
                            pairs.push((v, u));
                        }
                    }
                }
            }
            pairs.sort_unstable();
            // Append this block's rows, offset into the global CSR.
            let mut k = 0usize;
            for i in start as u32..end as u32 {
                while k < pairs.len() && pairs[k].0 == i {
                    let j = pairs[k].1;
                    let mut cnt = 0u32;
                    while k < pairs.len() && pairs[k] == (i, j) {
                        cnt += 1;
                        k += 1;
                    }
                    indices.push(j);
                    values.push(cnt as f32);
                }
                indptr[i as usize + 1] = indices.len();
            }
            start = end;
        }
        let d = SparseCounts { n, indptr, indices, values };
        Self::finish(d, graph)
    }

    /// Derives `D¹` and `D̃` from the assembled `D`.
    fn finish(d: SparseCounts, graph: &AttributedGraph) -> Self {
        let n = d.num_rows();
        // D¹: restrict to real edges.
        let mut d1_indptr = vec![0usize; n + 1];
        let mut d1_indices = Vec::new();
        let mut d1_values = Vec::new();
        for i in 0..n as NodeId {
            let (idx, val) = d.row(i);
            for (&j, &v) in idx.iter().zip(val) {
                if graph.has_edge(i, j) {
                    d1_indices.push(j);
                    d1_values.push(v);
                }
            }
            d1_indptr[i as usize + 1] = d1_indices.len();
        }
        let d1 = SparseCounts { n, indptr: d1_indptr, indices: d1_indices, values: d1_values };

        // D̃ = row-normalize(D) + D¹. D and D¹ share the sparsity pattern of D
        // (D¹ ⊆ D), so we can emit D̃ on D's pattern.
        let mut dt_values = Vec::with_capacity(d.nnz());
        for i in 0..n as NodeId {
            let (idx, val) = d.row(i);
            let sum: f32 = val.iter().sum();
            for (&j, &v) in idx.iter().zip(val) {
                let normalized = if sum > 0.0 { v / sum } else { 0.0 };
                let one_hop = if graph.has_edge(i, j) { v } else { 0.0 };
                dt_values.push(normalized + one_hop);
            }
        }
        let d_tilde = SparseCounts {
            n,
            indptr: d.indptr.clone(),
            indices: d.indices.clone(),
            values: dt_values,
        };
        Self { d, d1, d_tilde }
    }
}

/// The top-`k_p` positive pairs per node, flattened as `(i, j, D̃_ij)`
/// triples — the support of `L_pos` (§3.3.1).
#[derive(Clone, Debug)]
pub struct PositivePairs {
    /// `k_p = max_v |context(v)|`.
    pub k_p: usize,
    /// Pair ranges per node: pairs of node `i` are `offsets[i]..offsets[i+1]`.
    pub offsets: Vec<usize>,
    /// Flattened `(i, j, weight)` triples, grouped by `i`.
    pub pairs: Vec<(NodeId, NodeId, f32)>,
}

impl PositivePairs {
    /// Selects, for every node, the `k_p` highest-weight entries of its `D̃`
    /// row (excluding the diagonal).
    pub fn select(co: &CoMatrices, k_p: usize) -> Self {
        assert!(k_p > 0, "k_p must be positive");
        let n = co.d_tilde.num_rows();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut pairs = Vec::new();
        let mut scratch: Vec<(f32, NodeId)> = Vec::new();
        for i in 0..n as NodeId {
            let (idx, val) = co.d_tilde.row(i);
            scratch.clear();
            scratch.extend(idx.iter().zip(val).filter(|&(&j, _)| j != i).map(|(&j, &v)| (v, j)));
            if scratch.len() > k_p {
                // Partial selection of the k_p largest weights.
                scratch.select_nth_unstable_by(k_p - 1, |a, b| {
                    b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal)
                });
                scratch.truncate(k_p);
            }
            for &(w, j) in scratch.iter() {
                pairs.push((i, j, w));
            }
            offsets.push(pairs.len());
        }
        Self { k_p, offsets, pairs }
    }

    /// Pairs of node `i`.
    pub fn pairs_of(&self, i: NodeId) -> &[(NodeId, NodeId, f32)] {
        &self.pairs[self.offsets[i as usize]..self.offsets[i as usize + 1]]
    }

    /// Total number of selected pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pairs were selected.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ContextsConfig;
    use coane_graph::{GraphBuilder, NodeAttributes};

    fn graph_path3() -> AttributedGraph {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edges(&[(0, 1), (1, 2)]);
        b.with_attrs(NodeAttributes::identity(3)).build()
    }

    fn cs(walks: &[Vec<NodeId>], n: usize, c: usize) -> ContextSet {
        ContextSet::build(
            walks,
            n,
            &ContextsConfig { context_size: c, subsample_t: f64::INFINITY, seed: 0 },
        )
    }

    #[test]
    fn d_counts_match_bruteforce() {
        let g = graph_path3();
        let walks = vec![vec![0, 1, 2], vec![1, 0, 1]];
        let contexts = cs(&walks, 3, 3);
        let co = CoMatrices::build(&contexts, &g);
        // brute force count
        let mut brute = vec![vec![0f32; 3]; 3];
        for v in 0..3u32 {
            for w in contexts.contexts_of(v) {
                for &u in w {
                    if u != PAD && u != v {
                        brute[v as usize][u as usize] += 1.0;
                    }
                }
            }
        }
        for i in 0..3u32 {
            for j in 0..3u32 {
                assert_eq!(co.d.get(i, j), brute[i as usize][j as usize], "({i},{j})");
            }
        }
    }

    #[test]
    fn d1_masked_to_edges() {
        let g = graph_path3(); // 0-1, 1-2; no 0-2 edge
        let walks = vec![vec![0, 1, 2, 1, 0]];
        let contexts = cs(&walks, 3, 5);
        let co = CoMatrices::build(&contexts, &g);
        assert!(co.d.get(0, 2) > 0.0, "0 and 2 co-occur in the window");
        assert_eq!(co.d1.get(0, 2), 0.0, "but share no edge");
        assert_eq!(co.d1.get(0, 1), co.d.get(0, 1));
    }

    #[test]
    fn d_tilde_combines_normalized_and_one_hop() {
        let g = graph_path3();
        let walks = vec![vec![0, 1, 2]];
        let contexts = cs(&walks, 3, 3);
        let co = CoMatrices::build(&contexts, &g);
        for i in 0..3u32 {
            let (idx, _) = co.d.row(i);
            let row_sum = co.d.row_sum(i);
            for &j in idx {
                let want =
                    co.d.get(i, j) / row_sum + if g.has_edge(i, j) { co.d.get(i, j) } else { 0.0 };
                assert!((co.d_tilde.get(i, j) - want).abs() < 1e-6, "({i},{j})");
            }
        }
    }

    #[test]
    fn positive_pairs_top_k_ordering() {
        let g = {
            let mut b = GraphBuilder::new(4, 4);
            b.add_edges(&[(0, 1), (0, 2), (0, 3)]);
            b.with_attrs(NodeAttributes::identity(4)).build()
        };
        // Node 0's contexts: neighbor 1 appears 3×, 2 appears 1×, 3 appears 1×.
        let walks = vec![vec![0, 1], vec![0, 1], vec![0, 1], vec![0, 2], vec![0, 3]];
        let contexts = cs(&walks, 4, 3);
        let co = CoMatrices::build(&contexts, &g);
        let pp = PositivePairs::select(&co, 1);
        let top = pp.pairs_of(0);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].1, 1, "highest-weight neighbor kept");
    }

    #[test]
    fn positive_pairs_exclude_diagonal() {
        let g = graph_path3();
        let walks = vec![vec![1, 0, 1, 0, 1]];
        let contexts = cs(&walks, 3, 5);
        let co = CoMatrices::build(&contexts, &g);
        let pp = PositivePairs::select(&co, 10);
        for &(i, j, _) in &pp.pairs {
            assert_ne!(i, j, "diagonal pair selected");
        }
    }

    #[test]
    fn pair_offsets_consistent() {
        let g = graph_path3();
        let walks = vec![vec![0, 1, 2], vec![2, 1, 0]];
        let contexts = cs(&walks, 3, 3);
        let co = CoMatrices::build(&contexts, &g);
        let pp = PositivePairs::select(&co, 2);
        assert_eq!(*pp.offsets.last().unwrap(), pp.len());
        for i in 0..3u32 {
            for &(src, _, w) in pp.pairs_of(i) {
                assert_eq!(src, i);
                assert!(w > 0.0);
            }
        }
    }

    #[test]
    fn blocked_build_is_bit_identical_to_monolithic() {
        let g = graph_path3();
        let walks = vec![vec![0, 1, 2, 1, 0], vec![2, 1, 0, 1, 2], vec![1, 1, 0]];
        let contexts = cs(&walks, 3, 5);
        let reference = CoMatrices::build(&contexts, &g);
        for block_nodes in [1usize, 2, 3, 100] {
            let blocked = CoMatrices::build_blocked(&contexts, &g, block_nodes);
            assert_eq!(blocked.d, reference.d, "D differs at block={block_nodes}");
            assert_eq!(blocked.d1, reference.d1, "D1 differs at block={block_nodes}");
            assert_eq!(blocked.d_tilde, reference.d_tilde, "Dt differs at block={block_nodes}");
        }
    }

    #[test]
    fn empty_contexts_produce_empty_rows() {
        let g = graph_path3();
        let walks = vec![vec![0, 1]]; // node 2 never appears
        let contexts = cs(&walks, 3, 3);
        let co = CoMatrices::build(&contexts, &g);
        assert_eq!(co.d.row(2).0.len(), 0);
        let pp = PositivePairs::select(&co, 3);
        assert!(pp.pairs_of(2).is_empty());
    }
}
