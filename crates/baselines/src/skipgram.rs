//! Skip-gram with negative sampling (SGNS) over random walks — the engine
//! behind the DeepWalk and node2vec baselines. Hand-coded SGD in the
//! word2vec style (per-pair updates, linearly decaying learning rate), which
//! is much faster than taping millions of tiny graphs.

use coane_graph::{AttributedGraph, NodeId};
use coane_nn::init::uniform;
use coane_nn::tape::stable_sigmoid;
use coane_nn::Matrix;
use coane_walks::{WalkConfig, Walker};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::common::{unigram_table, walk_pairs, Embedder};

/// SGNS hyperparameters shared by DeepWalk and node2vec.
#[derive(Clone, Copy, Debug)]
pub struct SkipGramConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Context window radius (paper setting: 10).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Walks per node (paper setting for baselines: 10).
    pub walks_per_node: usize,
    /// Walk length (paper setting: 80).
    pub walk_length: usize,
    /// Passes over the pair list.
    pub epochs: usize,
    /// Initial learning rate, decayed linearly to 1e-4.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            window: 10,
            negatives: 5,
            walks_per_node: 10,
            walk_length: 80,
            epochs: 2,
            lr: 0.025,
            seed: 42,
        }
    }
}

/// Trains SGNS embeddings from pre-generated walks. Returns the input
/// ("center") embedding matrix, the standard word2vec output.
///
/// The SGD pass runs under a `train` timing scope and records pair/step
/// counters. Telemetry is observation-only — the embedding is bit-identical
/// for any `obs` state.
#[allow(clippy::needless_range_loop)] // indexed form is clearer in this kernel
pub fn train_skipgram(
    walks: &[Vec<NodeId>],
    n: usize,
    cfg: &SkipGramConfig,
    obs: &coane_obs::Obs,
) -> Matrix {
    let _scope = obs.scope("train");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x5697);
    let bound = 0.5 / cfg.dim as f32;
    let mut emb_in = uniform(n, cfg.dim, -bound, bound, &mut rng);
    let mut emb_out = Matrix::zeros(n, cfg.dim);
    let noise = unigram_table(walks, n);
    let mut pairs = walk_pairs(walks, cfg.window);
    if obs.is_enabled() {
        obs.add("sgns/pairs", pairs.len() as u64);
        obs.add("sgns/steps", (pairs.len() * cfg.epochs) as u64);
    }
    if pairs.is_empty() {
        return emb_in;
    }
    let total_steps = (pairs.len() * cfg.epochs) as f32;
    let mut step = 0usize;
    let mut grad_center = vec![0.0f32; cfg.dim];
    for _ in 0..cfg.epochs {
        pairs.shuffle(&mut rng);
        for &(center, context) in &pairs {
            let lr = (cfg.lr * (1.0 - step as f32 / total_steps)).max(1e-4);
            step += 1;
            grad_center.iter_mut().for_each(|g| *g = 0.0);
            // positive + negatives share the same update form:
            // err = σ(dot) − label.
            for sample in 0..=cfg.negatives {
                let (target, label) =
                    if sample == 0 { (context, 1.0f32) } else { (noise.sample(&mut rng), 0.0f32) };
                if target == center {
                    continue;
                }
                let ci = center as usize;
                let ti = target as usize;
                let dot: f32 =
                    emb_in.row(ci).iter().zip(emb_out.row(ti)).map(|(&a, &b)| a * b).sum();
                let err = stable_sigmoid(dot) - label;
                for k in 0..cfg.dim {
                    grad_center[k] += err * emb_out.get(ti, k);
                }
                for k in 0..cfg.dim {
                    let g = err * emb_in.get(ci, k);
                    let v = emb_out.get(ti, k) - lr * g;
                    emb_out.set(ti, k, v);
                }
            }
            let ci = center as usize;
            for (k, &g) in grad_center.iter().enumerate() {
                let v = emb_in.get(ci, k) - lr * g;
                emb_in.set(ci, k, v);
            }
        }
    }
    emb_in
}

/// DeepWalk (Perozzi et al., 2014): uniform random walks + SGNS.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeepWalk {
    /// SGNS configuration.
    pub config: SkipGramConfig,
}

impl Embedder for DeepWalk {
    fn name(&self) -> &'static str {
        "DeepWalk"
    }

    fn embed(&self, graph: &AttributedGraph) -> Matrix {
        self.embed_observed(graph, &coane_obs::Obs::disabled())
    }

    fn embed_observed(&self, graph: &AttributedGraph, obs: &coane_obs::Obs) -> Matrix {
        let _scope = obs.scope(self.name());
        walk_and_train(graph, &self.config, 1.0, 1.0, obs)
    }
}

/// node2vec (Grover & Leskovec, 2016): biased second-order walks + SGNS.
/// The paper compares with `p = q = 1`, which makes the walk distribution
/// identical to DeepWalk's but keeps node2vec's sampling machinery.
#[derive(Clone, Copy, Debug)]
pub struct Node2Vec {
    /// SGNS configuration.
    pub config: SkipGramConfig,
    /// Return parameter.
    pub p: f32,
    /// In-out parameter.
    pub q: f32,
}

impl Default for Node2Vec {
    fn default() -> Self {
        Self { config: SkipGramConfig::default(), p: 1.0, q: 1.0 }
    }
}

impl Embedder for Node2Vec {
    fn name(&self) -> &'static str {
        "node2vec"
    }

    fn embed(&self, graph: &AttributedGraph) -> Matrix {
        self.embed_observed(graph, &coane_obs::Obs::disabled())
    }

    fn embed_observed(&self, graph: &AttributedGraph, obs: &coane_obs::Obs) -> Matrix {
        let _scope = obs.scope(self.name());
        walk_and_train(graph, &self.config, self.p, self.q, obs)
    }
}

/// The pipeline DeepWalk and node2vec share: `(p, q)`-biased walks under a
/// `walks` timing scope with walk/step counters, then [`train_skipgram`].
fn walk_and_train(
    graph: &AttributedGraph,
    cfg: &SkipGramConfig,
    p: f32,
    q: f32,
    obs: &coane_obs::Obs,
) -> Matrix {
    let walker = Walker::new(
        graph,
        WalkConfig {
            walks_per_node: cfg.walks_per_node,
            walk_length: cfg.walk_length,
            p,
            q,
            seed: cfg.seed,
        },
    );
    let walks = {
        let _scope = obs.scope("walks");
        walker.generate_all(crate::common::worker_threads())
    };
    if obs.is_enabled() {
        obs.add("walks/count", walks.len() as u64);
        obs.add("walks/steps", walks.iter().map(|w| w.len() as u64).sum());
    }
    train_skipgram(&walks, graph.num_nodes(), cfg, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coane_datasets::generator::planted_partition;

    fn fast_cfg() -> SkipGramConfig {
        SkipGramConfig {
            dim: 16,
            window: 3,
            negatives: 3,
            walks_per_node: 4,
            walk_length: 20,
            epochs: 2,
            ..Default::default()
        }
    }

    fn community_separation(emb: &Matrix, labels: &[u32]) -> (f64, f64) {
        let cos = |a: &[f32], b: &[f32]| coane_nn::sim::cosine(a, b) as f64;
        let (mut same, mut ns, mut diff, mut nd) = (0.0, 0usize, 0.0, 0usize);
        for i in 0..emb.rows() {
            for j in (i + 1)..emb.rows() {
                let c = cos(emb.row(i), emb.row(j));
                if labels[i] == labels[j] {
                    same += c;
                    ns += 1;
                } else {
                    diff += c;
                    nd += 1;
                }
            }
        }
        (same / ns as f64, diff / nd as f64)
    }

    #[test]
    fn deepwalk_separates_planted_partition() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let g = planted_partition(150, 3, 0.15, 0.005, 64, &mut rng);
        let emb = DeepWalk { config: fast_cfg() }.embed(&g);
        assert_eq!(emb.shape(), (150, 16));
        emb.assert_finite("deepwalk");
        let (intra, inter) = community_separation(&emb, g.labels().unwrap());
        assert!(intra > inter + 0.05, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn node2vec_biased_walk_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = planted_partition(100, 2, 0.15, 0.01, 32, &mut rng);
        let emb = Node2Vec { config: fast_cfg(), p: 0.5, q: 2.0 }.embed(&g);
        emb.assert_finite("node2vec");
        let (intra, inter) = community_separation(&emb, g.labels().unwrap());
        assert!(intra > inter, "intra {intra} vs inter {inter}");
    }

    #[test]
    fn deterministic_under_seed() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = planted_partition(60, 2, 0.2, 0.02, 16, &mut rng);
        let e1 = DeepWalk { config: fast_cfg() }.embed(&g);
        let e2 = DeepWalk { config: fast_cfg() }.embed(&g);
        assert_eq!(e1, e2);
    }

    #[test]
    fn empty_walk_pairs_returns_init() {
        // A graph of isolated nodes produces singleton walks → no pairs.
        let g = {
            let mut b = coane_graph::GraphBuilder::new(5, 5);
            b.add_edge(0, 1, 1.0); // one edge so builder is happy
            b.with_attrs(coane_graph::NodeAttributes::identity(5)).build()
        };
        let cfg = SkipGramConfig { window: 0, ..fast_cfg() };
        let walker = Walker::new(
            &g,
            WalkConfig { walks_per_node: 1, walk_length: 2, p: 1.0, q: 1.0, seed: 0 },
        );
        let walks = walker.generate_all(1);
        let emb = train_skipgram(&walks, 5, &cfg, &coane_obs::Obs::disabled());
        emb.assert_finite("empty-pair skipgram");
    }
}
