//! Inductive inference: embedding nodes that were unseen during training.
//!
//! Unlike lookup-table methods (DeepWalk, LINE, ASNE's id embeddings), the
//! CoANE encoder is a *function* of a node's contexts and their attributes —
//! nothing about it is tied to node identity. Given a trained filter bank,
//! any node that exists in some graph (with attributes and at least one
//! edge) can be embedded by sampling fresh walks from it and running the
//! same convolution + pooling. This mirrors the inductive capability the
//! paper credits GraphSAGE with (§2.3) and extends it to CoANE.

use coane_graph::{AttributedGraph, NodeId};
use coane_nn::Matrix;
use coane_walks::{ContextSet, ContextsConfig, WalkConfig, Walker};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cache::ContextRowCache;
use crate::config::CoaneConfig;
use crate::model::CoaneModel;
use crate::trainer::observe_contexts;

/// Embeds `nodes` of `graph` with a trained `model`, sampling
/// `config.walks_per_node` fresh walks per node. The graph may differ from
/// the training graph (new nodes, new edges) as long as its attribute
/// dimensionality matches the model.
///
/// Returns a `(nodes.len() × d')` matrix in the order of `nodes`.
///
/// # Panics
/// Panics if the graph's attribute dimensionality differs from the one the
/// model was constructed with.
pub fn embed_nodes(
    model: &CoaneModel,
    config: &CoaneConfig,
    graph: &AttributedGraph,
    nodes: &[NodeId],
) -> Matrix {
    embed_nodes_obs(model, config, graph, nodes, &coane_obs::Obs::disabled())
}

/// [`embed_nodes`] with phase telemetry: walk sampling, context extraction
/// and the no-grad forward are timed under an `infer` scope, and the number
/// of embedded nodes is counted. Telemetry is observation-only — the output
/// is bit-identical for any `obs` state.
///
/// # Panics
/// Panics if the graph's attribute dimensionality differs from the one the
/// model was constructed with.
pub fn embed_nodes_obs(
    model: &CoaneModel,
    config: &CoaneConfig,
    graph: &AttributedGraph,
    nodes: &[NodeId],
    obs: &coane_obs::Obs,
) -> Matrix {
    let _scope = obs.scope("infer");
    obs.add("infer/nodes", nodes.len() as u64);
    let walker = Walker::new(
        graph,
        WalkConfig {
            walks_per_node: config.walks_per_node.max(1),
            walk_length: config.walk_length,
            p: 1.0,
            q: 1.0,
            seed: config.seed ^ 0x1_0d0c,
        },
    );
    // Fresh walks from the target nodes only.
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x1_0d0d);
    let mut walks = Vec::with_capacity(nodes.len() * config.walks_per_node.max(1));
    for &v in nodes {
        for _ in 0..config.walks_per_node.max(1) {
            walks.push(walker.walk_from(v, &mut rng));
        }
    }
    // No subsampling at inference: every context of the target is welcome.
    let ctx_cfg = ContextsConfig {
        context_size: config.context_size,
        subsample_t: f64::INFINITY,
        seed: config.seed,
    };
    let contexts = observe_contexts(obs, || ContextSet::build(&walks, graph.num_nodes(), &ctx_cfg));
    // No-grad chunked inference off the context-row cache: each requested
    // node's embedding depends only on its own context rows, so the
    // `infer_batch_size` chunking and the thread count are pure throughput
    // knobs (bit-identical output either way).
    let cache = ContextRowCache::build(graph, &contexts, config.encoder);
    let d = model.embed_dim();
    let mut out = Matrix::zeros(nodes.len(), d);
    let chunk_nodes = config.infer_batch_size.max(1);
    coane_nn::pool::parallel_chunks(out.as_mut_slice(), chunk_nodes * d, |start, slab| {
        let k0 = start / d;
        let chunk = &nodes[k0..k0 + slab.len() / d];
        let z = model.encode_nograd(&cache.infer_batch(chunk));
        slab.copy_from_slice(z.as_slice());
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Coane;
    use coane_datasets::{social_circle_graph, SocialCircleConfig};
    use coane_graph::{GraphBuilder, NodeAttributes};

    fn cosine(a: &[f32], b: &[f32]) -> f64 {
        coane_nn::sim::cosine(a, b) as f64
    }

    #[test]
    fn unseen_node_lands_near_its_community() {
        // Train on a 2-community graph; then extend the graph with one new
        // node wired into community 0 and carrying community-0 attributes.
        let cfg = SocialCircleConfig {
            num_nodes: 120,
            num_communities: 2,
            circles_per_community: 2,
            attr_dim: 60,
            num_edges: 400,
            mixing: 0.08,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (graph, asg) = social_circle_graph(&cfg, &mut rng);
        let coane_cfg = CoaneConfig {
            embed_dim: 16,
            context_size: 3,
            walk_length: 20,
            epochs: 10,
            batch_size: 40,
            decoder_hidden: (32, 32),
            ..Default::default()
        };
        let (z_train, model, _) = Coane::new(coane_cfg.clone()).fit_with_model(&graph);

        // Extend the graph: new node n attached to 8 community-0 nodes,
        // copying a community-0 member's attributes.
        let n = graph.num_nodes();
        let comm0: Vec<u32> = (0..n as u32).filter(|&v| asg.community[v as usize] == 0).collect();
        let donor = comm0[0];
        let mut b = GraphBuilder::new(n + 1, graph.attr_dim());
        for (u, v, w) in graph.edges() {
            b.add_edge(u, v, w);
        }
        for &u in comm0.iter().take(8) {
            b.add_edge(n as u32, u, 1.0);
        }
        let mut rows: Vec<Vec<(u32, f32)>> = (0..n as u32)
            .map(|v| {
                let (idx, val) = graph.attrs().row(v);
                idx.iter().copied().zip(val.iter().copied()).collect()
            })
            .collect();
        let (didx, dval) = graph.attrs().row(donor);
        rows.push(didx.iter().copied().zip(dval.iter().copied()).collect());
        let extended =
            b.with_attrs(NodeAttributes::from_sparse_rows(graph.attr_dim(), &rows)).build();

        let z_new = embed_nodes(&model, &coane_cfg, &extended, &[n as u32]);
        assert_eq!(z_new.shape(), (1, 16));
        z_new.assert_finite("inductive embedding");

        // Compare mean cosine to each community's trained embeddings.
        let mean_cos = |comm: u32| -> f64 {
            let members: Vec<usize> = (0..n).filter(|&v| asg.community[v] == comm).collect();
            members.iter().map(|&v| cosine(z_new.row(0), z_train.row(v))).sum::<f64>()
                / members.len() as f64
        };
        let c0 = mean_cos(0);
        let c1 = mean_cos(1);
        assert!(c0 > c1, "new node closer to wrong community: {c0} vs {c1}");
    }

    #[test]
    fn embeds_training_nodes_consistently() {
        // Inductively re-embedding training nodes should correlate with the
        // trained embeddings (fresh walks → not identical, but aligned).
        let cfg = SocialCircleConfig {
            num_nodes: 90,
            num_communities: 3,
            attr_dim: 60,
            num_edges: 300,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (graph, _) = social_circle_graph(&cfg, &mut rng);
        let coane_cfg = CoaneConfig {
            embed_dim: 16,
            context_size: 3,
            walk_length: 20,
            epochs: 4,
            batch_size: 30,
            decoder_hidden: (32, 32),
            ..Default::default()
        };
        let (z_train, model, _) = Coane::new(coane_cfg.clone()).fit_with_model(&graph);
        let probe: Vec<u32> = (0..10).collect();
        let z_ind = embed_nodes(&model, &coane_cfg, &graph, &probe);
        for (k, &v) in probe.iter().enumerate() {
            let c = cosine(z_ind.row(k), z_train.row(v as usize));
            assert!(c > 0.5, "node {v}: inductive vs trained cosine {c}");
        }
    }
}
