//! Cross-crate property-based tests (proptest): structural invariants that
//! must hold for arbitrary inputs.

use coane::prelude::*;
use coane::walks::{ContextSet, ContextsConfig, PAD};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a random connected-ish edge list over `n` nodes.
fn arb_graph() -> impl Strategy<Value = AttributedGraph> {
    (5usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n, n);
        // spanning chain keeps every node reachable
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 1.0);
        }
        use rand::Rng;
        for _ in 0..n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                b.add_edge(u, v, rng.gen_range(0.5..2.0));
            }
        }
        b.with_attrs(NodeAttributes::identity(n)).build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn walks_only_traverse_edges(g in arb_graph(), seed in any::<u64>()) {
        let walker = coane::walks::Walker::new(
            &g,
            coane::walks::WalkConfig { walk_length: 12, seed, ..Default::default() },
        );
        for walk in walker.generate_all(1) {
            for w in walk.windows(2) {
                prop_assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn contexts_center_correct_and_counts_match(g in arb_graph(), seed in any::<u64>()) {
        let walker = coane::walks::Walker::new(
            &g,
            coane::walks::WalkConfig { walk_length: 10, seed, ..Default::default() },
        );
        let walks = walker.generate_all(1);
        let cs = ContextSet::build(
            &walks,
            g.num_nodes(),
            &ContextsConfig { context_size: 5, subsample_t: f64::INFINITY, seed },
        );
        // total contexts == total walk positions (no subsampling)
        let positions: usize = walks.iter().map(Vec::len).sum();
        prop_assert_eq!(cs.num_contexts(), positions);
        for v in 0..g.num_nodes() as u32 {
            for w in cs.contexts_of(v) {
                prop_assert_eq!(w[2], v);
                for &u in w {
                    prop_assert!(u == PAD || (u as usize) < g.num_nodes());
                }
            }
        }
    }

    #[test]
    fn d_matrix_row_sums_bounded_by_slots(g in arb_graph(), seed in any::<u64>()) {
        let walker = coane::walks::Walker::new(
            &g,
            coane::walks::WalkConfig { walk_length: 10, seed, ..Default::default() },
        );
        let walks = walker.generate_all(1);
        let cs = ContextSet::build(
            &walks,
            g.num_nodes(),
            &ContextsConfig { context_size: 3, subsample_t: f64::INFINITY, seed },
        );
        let co = coane::walks::CoMatrices::build(&cs, &g);
        for v in 0..g.num_nodes() as u32 {
            // each context contributes at most c−1 = 2 co-occurrences
            let bound = (cs.count(v) * 2) as f32;
            prop_assert!(co.d.row_sum(v) <= bound + 1e-3);
        }
    }

    #[test]
    fn edge_split_partitions_are_exact(g in arb_graph(), seed in any::<u64>()) {
        let m = g.num_edges();
        prop_assume!(m >= 10);
        // the split samples one non-edge per edge — the graph must be sparse
        // enough to supply them
        let n = g.num_nodes() as u64;
        prop_assume!(n * (n - 1) / 2 - m as u64 >= m as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let s = EdgeSplit::new(&g, SplitConfig::paper(), &mut rng);
        prop_assert_eq!(
            s.train_pos.len() + s.val_pos.len() + s.test_pos.len(),
            m
        );
        prop_assert_eq!(s.train_graph.num_edges(), s.train_pos.len());
        for &(u, v) in &s.test_neg {
            prop_assert!(!g.has_edge(u, v));
        }
    }

    #[test]
    fn nmi_label_permutation_invariant(labels in proptest::collection::vec(0u32..5, 10..60)) {
        let permuted: Vec<u32> = labels.iter().map(|&l| (l + 3) % 5).collect();
        let direct = coane::eval::nmi(&labels, &labels);
        let perm = coane::eval::nmi(&labels, &permuted);
        prop_assert!((direct - perm).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&perm));
    }

    #[test]
    fn auc_monotone_transform_invariant(
        scores in proptest::collection::vec(-10.0f64..10.0, 10..100),
        flips in proptest::collection::vec(any::<bool>(), 10..100),
    ) {
        let n = scores.len().min(flips.len());
        let scores = &scores[..n];
        let labels = &flips[..n];
        prop_assume!(labels.iter().any(|&l| l) && labels.iter().any(|&l| !l));
        let a1 = coane::eval::roc_auc(scores, labels);
        let transformed: Vec<f64> = scores.iter().map(|&s| s.exp()).collect();
        let a2 = coane::eval::roc_auc(&transformed, labels);
        prop_assert!((a1 - a2).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&a1));
    }

    #[test]
    fn builder_graph_always_valid(edges in proptest::collection::vec((0u32..20, 0u32..20), 0..80)) {
        let mut b = GraphBuilder::new(20, 20);
        for (u, v) in edges {
            if u != v {
                b.add_edge(u, v, 1.0);
            }
        }
        let g = b.with_attrs(NodeAttributes::identity(20)).build();
        g.validate(); // panics on violation
        // adjacency symmetric by construction
        for u in 0..20u32 {
            for &v in g.neighbors_of(u) {
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn matrix_matmul_associative_shapes(
        a in 1usize..6, b in 1usize..6, c in 1usize..6,
        seed in any::<u64>(),
    ) {
        use coane::nn::Matrix;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m1 = coane::nn::init::uniform(a, b, -1.0, 1.0, &mut rng);
        let m2 = coane::nn::init::uniform(b, c, -1.0, 1.0, &mut rng);
        let prod = m1.matmul(&m2);
        prop_assert_eq!(prod.shape(), (a, c));
        // (M1 M2)ᵀ == M2ᵀ M1ᵀ
        let lhs = prod.transpose();
        let rhs = m2.transpose().matmul(&m1.transpose());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
        let _ = Matrix::zeros(1, 1);
    }
}

/// Strategy: a graph with random *sparse* attribute rows — including
/// duplicate attribute indices within a row, which `NodeAttributes` keeps
/// (sorted, adjacent) and batch builders must sum in a pinned order.
fn arb_sparse_attr_graph() -> impl Strategy<Value = AttributedGraph> {
    (4usize..24, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let d = 6usize;
        let mut b = GraphBuilder::new(n, d);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 1.0);
        }
        for _ in 0..n {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                b.add_edge(u, v, 1.0);
            }
        }
        let rows: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|_| {
                (0..rng.gen_range(0..5))
                    .map(|_| (rng.gen_range(0..d as u32), rng.gen_range(-2.0..2.0)))
                    .collect()
            })
            .collect();
        b.with_attrs(NodeAttributes::from_sparse_rows(d, &rows)).build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The epoch-persistent context-row cache must reproduce the reference
    /// triplet builder bit for bit — same sparse operand, same segment
    /// offsets, same dense targets — for both encoders and arbitrary node
    /// multisets (duplicates included).
    #[test]
    fn context_row_cache_matches_reference_builder(
        g in arb_sparse_attr_graph(),
        seed in any::<u64>(),
    ) {
        use coane::core::batch::ContextBatch;
        use coane::core::ContextRowCache;
        let walker = coane::walks::Walker::new(
            &g,
            coane::walks::WalkConfig { walk_length: 12, seed, ..Default::default() },
        );
        let walks = walker.generate_all(1);
        let cs = ContextSet::build(
            &walks,
            g.num_nodes(),
            &ContextsConfig { context_size: 3, subsample_t: f64::INFINITY, seed },
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5);
        use rand::Rng;
        for encoder in [EncoderKind::Convolution, EncoderKind::FullyConnected] {
            let cache = ContextRowCache::build(&g, &cs, encoder);
            prop_assert_eq!(cache.num_contexts(), cs.num_contexts());
            let m = rng.gen_range(1..2 * g.num_nodes() + 1);
            let nodes: Vec<u32> =
                (0..m).map(|_| rng.gen_range(0..g.num_nodes() as u32)).collect();
            let fresh = ContextBatch::build(&g, &cs, &nodes, encoder);
            let cached = cache.batch(&g, &nodes);
            prop_assert!(*cached.rb == *fresh.rb, "rb mismatch ({:?})", encoder);
            prop_assert!(cached.offsets == fresh.offsets, "offsets mismatch ({:?})", encoder);
            prop_assert!(cached.x_target == fresh.x_target, "x_target mismatch ({:?})", encoder);
        }
    }
}

/// Strategy: arbitrary text built from a palette of benign and hostile
/// characters — digits, signs, exponents, `NaN`/`inf` fragments, whitespace
/// and separators. (The vendored proptest has no string strategies, so
/// strings are assembled from generated bytes.)
fn arb_parser_text() -> impl Strategy<Value = String> {
    const PALETTE: &[char] = &[
        'a', 'b', 'z', 'N', 'n', 'f', 'i', 'e', 'E', '0', '1', '7', '9', '.', '-', '+', '_', ':',
        ',', '"', ' ', ' ', '\t', '\n', '\n', '\r',
    ];
    proptest::collection::vec(any::<u8>(), 0..400)
        .prop_map(|bytes| bytes.iter().map(|&b| PALETTE[b as usize % PALETTE.len()]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn content_parser_never_panics_and_errors_carry_line_numbers(text in arb_parser_text()) {
        match coane::graph::io::parse_content_lines(text.as_bytes()) {
            Ok(rows) => {
                for row in rows {
                    prop_assert!(row.line >= 1);
                    prop_assert!(row.attrs.iter().all(|&(i, v)| {
                        (i as usize) < row.num_attrs && v.is_finite() && v != 0.0
                    }));
                }
            }
            Err(e) => prop_assert!(
                e.parse_line().is_some(),
                "parse error without a line number: {}", e
            ),
        }
    }

    #[test]
    fn cites_parser_never_panics_and_errors_carry_line_numbers(text in arb_parser_text()) {
        match coane::graph::io::parse_cites_lines(text.as_bytes()) {
            Ok(pairs) => {
                for (line, citing, cited) in pairs {
                    prop_assert!(line >= 1);
                    prop_assert!(!citing.is_empty() && !cited.is_empty());
                }
            }
            Err(e) => prop_assert!(
                e.parse_line().is_some(),
                "parse error without a line number: {}", e
            ),
        }
    }

    #[test]
    fn parsers_survive_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        // Raw (possibly non-UTF-8) input: never panic; invalid UTF-8 is an
        // Io error, everything else is a Parse error with a line number.
        for result in [
            coane::graph::io::parse_content_lines(&bytes[..]).map(|_| ()),
            coane::graph::io::parse_cites_lines(&bytes[..]).map(|_| ()),
        ] {
            if let Err(e) = result {
                prop_assert!(
                    e.kind() == "io" || e.parse_line().is_some(),
                    "unexpected error shape: {}", e
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn budgeted_cache_accounting_and_equivalence(g in arb_graph(), seed in any::<u64>()) {
        use coane::core::{CacheMode, ContextRowCache, EncoderKind};
        use std::sync::Arc;

        let walker = coane::walks::Walker::new(
            &g,
            coane::walks::WalkConfig { walk_length: 8, seed, ..Default::default() },
        );
        let walks = walker.generate_all(1);
        let contexts = Arc::new(ContextSet::build(
            &walks,
            g.num_nodes(),
            &ContextsConfig { context_size: 3, subsample_t: f64::INFINITY, seed },
        ));
        let unbounded = ContextRowCache::build(&g, &contexts, EncoderKind::Convolution);
        let nodes: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let reference = unbounded.batch(&g, &nodes);

        // Sweep budgets spanning both rungs. Invariants: a materialized
        // cache's reported bytes never exceed the budget that admitted it
        // (reported ≥ actual allocation by construction, so the budget
        // genuinely bounds memory), and every rung's batches are
        // bit-identical to the unbounded cache's.
        let m = unbounded.resident_bytes();
        for budget in [1usize, m / 4, m.saturating_sub(1), m, 2 * m] {
            let budget = budget.max(1);
            let cache = ContextRowCache::build_budgeted(&g, &contexts, EncoderKind::Convolution, budget);
            if cache.mode() != CacheMode::Rebuild {
                prop_assert!(
                    cache.resident_bytes() <= budget,
                    "{:?} reported {} > budget {}", cache.mode(), cache.resident_bytes(), budget
                );
            }
            prop_assert_eq!(cache.nnz(), unbounded.nnz());
            let batch = cache.batch(&g, &nodes);
            prop_assert_eq!(&*batch.rb, &*reference.rb);
            prop_assert_eq!(&batch.offsets, &reference.offsets);
            prop_assert_eq!(&batch.x_target, &reference.x_target);
        }
    }
}
