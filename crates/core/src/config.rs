//! CoANE hyperparameters and ablation switches.

use coane_error::CoaneError;
use coane_walks::NegativeMode;

/// Which feature-extraction layer encodes a context (Fig. 6a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncoderKind {
    /// The paper's 1-D convolution: a distinct `d×d'` weight block per
    /// context position, capturing positional information.
    Convolution,
    /// The fully-connected control: one shared `d×d'` block for all
    /// positions (position-agnostic), as in the paper's FC-layer comparison.
    FullyConnected,
}

/// The positive structure-preservation term (§3.3.1 and Fig. 6c cases).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PositiveLossKind {
    /// CoANE's positive graph likelihood on top-`k_p` entries of `D̃`,
    /// with the `Z = [L|R]` split.
    GraphLikelihood,
    /// The plain skip-gram positive term (`SG` ablation): `−log σ(z_i·z_j)`
    /// over co-occurring pairs, no `[L|R]` split, no `D¹` boost, no top-`k_p`.
    SkipGram,
    /// No positive term (`WP` ablation).
    None,
}

/// The negative-sampling term (§3.3.2 and Fig. 6c cases).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegativeLossKind {
    /// CoANE's contextually negative sampling: negatives drawn from
    /// `P_V(v) ∝ |context(v)|` outside the target's context, squared-dot
    /// penalty with strength `a`.
    Contextual,
    /// Word2vec-style uniform negative sampling (`NS` ablation):
    /// uniform negatives, `−log σ(−z_i·z_j)` penalty.
    Uniform,
    /// No negative term (`WN` ablation).
    None,
}

/// How structural contexts are generated (Fig. 5 / Fig. 6a comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContextSource {
    /// Random-walk windows (the paper's method).
    RandomWalk,
    /// First-hop neighbours only: each context is `[u, v, u']` slots drawn
    /// from direct neighbours — the paper's "first-hop neighbors" control.
    FirstHop,
}

/// Ablation switches reproducing §4.5's eight cases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ablation {
    /// Positive term (WP = `None`, SG = `SkipGram`).
    pub positive: PositiveLossKind,
    /// Negative term (WN = `None`, NS = `Uniform`).
    pub negative: NegativeLossKind,
    /// `false` replaces node attributes with one-hot identity rows (WF).
    pub use_attributes: bool,
    /// `false` drops the attribute-preservation loss (WAP).
    pub attribute_preservation: bool,
}

impl Default for Ablation {
    fn default() -> Self {
        Self {
            positive: PositiveLossKind::GraphLikelihood,
            negative: NegativeLossKind::Contextual,
            use_attributes: true,
            attribute_preservation: true,
        }
    }
}

impl Ablation {
    /// The complete CoANE objective.
    pub fn full() -> Self {
        Self::default()
    }

    /// WP — without positive graph likelihood.
    pub fn wp() -> Self {
        Self { positive: PositiveLossKind::None, ..Self::default() }
    }

    /// SG — skip-gram positive term.
    pub fn sg() -> Self {
        Self { positive: PositiveLossKind::SkipGram, ..Self::default() }
    }

    /// WN — without contextually negative sampling.
    pub fn wn() -> Self {
        Self { negative: NegativeLossKind::None, ..Self::default() }
    }

    /// NS — uniform negative sampling.
    pub fn ns() -> Self {
        Self { negative: NegativeLossKind::Uniform, ..Self::default() }
    }

    /// SGNS — skip-gram + uniform negative sampling.
    pub fn sgns() -> Self {
        Self {
            positive: PositiveLossKind::SkipGram,
            negative: NegativeLossKind::Uniform,
            ..Self::default()
        }
    }

    /// WF — without node attributes (identity features).
    pub fn wf() -> Self {
        Self { use_attributes: false, ..Self::default() }
    }

    /// WAP — without attribute preservation.
    pub fn wap() -> Self {
        Self { attribute_preservation: false, ..Self::default() }
    }
}

/// Full CoANE configuration. Defaults follow §4.1: `d' = 128`, `r = 1`,
/// `l = 80`, `t = 1e-5`, `k = 20`, Adam with lr `1e-3`, 2-hidden-layer ReLU
/// decoder; `a`, `c`, `γ` sit inside their published tuning ranges.
#[derive(Clone, Debug)]
pub struct CoaneConfig {
    /// Embedding dimensionality `d'` (must be even for the `[L|R]` split).
    pub embed_dim: usize,
    /// Context window size `c` (odd).
    pub context_size: usize,
    /// Walks per node `r`.
    pub walks_per_node: usize,
    /// Walk length `l`.
    pub walk_length: usize,
    /// Subsampling threshold `t`.
    pub subsample_t: f64,
    /// Number of negative samples `k`.
    pub num_negatives: usize,
    /// Negative-loss strength `a` (tuned in `[1e-5, 1e-1]`).
    pub neg_strength: f32,
    /// Attribute-preservation weight `γ` (tuned in `[1e3, 1e7]`; note the
    /// MSE here averages over `b·d` entries, so the effective per-entry
    /// weight matches the paper's summed convention at `γ/d ≈` theirs).
    pub gamma: f32,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Maximum epochs `N_max`.
    pub epochs: usize,
    /// Training-batch node count `n_B`.
    pub batch_size: usize,
    /// Pre- vs batch-sampling of negatives (§3.3.2).
    pub negative_mode: NegativeMode,
    /// Hidden widths of the 2-hidden-layer ReLU attribute decoder.
    pub decoder_hidden: (usize, usize),
    /// Encoder layer kind (Fig. 6a).
    pub encoder: EncoderKind,
    /// Context generation strategy (Fig. 5 / 6a).
    pub context_source: ContextSource,
    /// Objective ablation switches (Fig. 6c).
    pub ablation: Ablation,
    /// Worker threads for all parallel compute: walk generation,
    /// preprocessing and the training kernels (set process-wide via
    /// `coane_nn::pool::set_threads` when `fit` starts). Embeddings are
    /// bit-identical for any value; this only controls throughput.
    pub threads: usize,
    /// Bound on non-finite-loss recovery attempts: when an epoch produces a
    /// NaN/Inf loss or parameter, the trainer rolls back to the last healthy
    /// epoch snapshot and halves the learning rate, at most this many times
    /// across the run before surfacing [`CoaneError::Numeric`].
    pub max_lr_retries: usize,
    /// Node-chunk size for no-grad inference passes (per-epoch embedding
    /// renewal and inductive encoding). Per-node outputs are independent, so
    /// like `threads` this is a pure throughput knob: embeddings are
    /// bit-identical for any value and it is excluded from the checkpoint
    /// config fingerprint.
    pub infer_batch_size: usize,
    /// Depth of the training-batch prefetch pipeline: how many upcoming
    /// batches may be assembled on pool workers while the current one trains.
    /// `0` disables prefetching (batches assemble inline). Consumption order
    /// is the batch order either way and negatives stay on the main-thread
    /// RNG, so this is also a pure throughput knob excluded from the
    /// checkpoint config fingerprint.
    pub prefetch_batches: usize,
    /// Memory budget in bytes for the context-row cache. `0` means
    /// unbounded (always materialize). When set, the cache keeps the
    /// materialized rows if their size estimate fits and otherwise rebuilds
    /// each batch's rows on demand (DESIGN.md §2.12). Both rungs yield
    /// bit-identical embeddings, so like `threads` this is excluded from
    /// the checkpoint config fingerprint.
    pub max_cache_bytes: usize,
    /// Walk-block size for streaming context generation: walks are produced
    /// and consumed in blocks of this many walks through a bounded channel
    /// instead of materializing all `n·r` walks at once. `0` means
    /// materialize (the seed behavior). Streaming reproduces the
    /// materialized contexts bit for bit at any block size or thread count,
    /// so this is a pure memory/throughput knob excluded from the
    /// checkpoint config fingerprint. Only the random-walk context source
    /// streams; `FirstHop` ignores this.
    pub walk_block_size: usize,
    /// Node-range block size for the co-occurrence accumulation: `D` is
    /// built per block of this many nodes and merged in deterministic block
    /// order, bounding the transient pair buffer to one block's pairs. `0`
    /// means monolithic (the seed behavior). Bit-identical to the
    /// monolithic builder for any value, so it is excluded from the
    /// checkpoint config fingerprint.
    pub coocc_block_size: usize,
    /// RNG seed (walks, init, batching, sampling).
    pub seed: u64,
}

impl Default for CoaneConfig {
    fn default() -> Self {
        Self {
            embed_dim: 128,
            context_size: 5,
            walks_per_node: 1,
            walk_length: 80,
            subsample_t: 1e-5,
            num_negatives: 20,
            neg_strength: 1e-3,
            gamma: 10.0,
            learning_rate: 1e-3,
            epochs: 10,
            batch_size: 256,
            negative_mode: NegativeMode::BatchSampling,
            decoder_hidden: (256, 256),
            encoder: EncoderKind::Convolution,
            context_source: ContextSource::RandomWalk,
            ablation: Ablation::full(),
            threads: 4,
            max_lr_retries: 3,
            infer_batch_size: 256,
            prefetch_batches: 2,
            max_cache_bytes: 0,
            walk_block_size: 0,
            coocc_block_size: 0,
            seed: 42,
        }
    }
}

impl CoaneConfig {
    /// Validates invariants (even `d'`, odd `c`, positive sizes). Returns a
    /// typed [`CoaneError::Config`] describing the first violation, so
    /// user-supplied configurations (CLI flags, config files) surface a
    /// message and an exit code instead of a panic.
    pub fn validate(&self) -> Result<(), CoaneError> {
        if self.embed_dim < 2 || !self.embed_dim.is_multiple_of(2) {
            return Err(CoaneError::config(format!(
                "embed_dim must be even and >= 2 (the [L|R] split), got {}",
                self.embed_dim
            )));
        }
        if self.context_size % 2 != 1 {
            return Err(CoaneError::config(format!(
                "context_size must be odd, got {}",
                self.context_size
            )));
        }
        if self.walks_per_node < 1 {
            return Err(CoaneError::config("walks_per_node must be >= 1"));
        }
        if self.walk_length < 1 {
            return Err(CoaneError::config("walk_length must be >= 1"));
        }
        if self.batch_size < 1 {
            return Err(CoaneError::config("batch_size must be >= 1"));
        }
        if self.num_negatives < 1 && self.ablation.negative != NegativeLossKind::None {
            return Err(CoaneError::config(
                "num_negatives must be >= 1 unless the negative term is ablated",
            ));
        }
        if !self.neg_strength.is_finite() || self.neg_strength < 0.0 {
            return Err(CoaneError::config(format!(
                "neg_strength must be finite and >= 0, got {}",
                self.neg_strength
            )));
        }
        if !self.gamma.is_finite() || self.gamma < 0.0 {
            return Err(CoaneError::config(format!(
                "gamma must be finite and >= 0, got {}",
                self.gamma
            )));
        }
        if !self.learning_rate.is_finite() || self.learning_rate <= 0.0 {
            return Err(CoaneError::config(format!(
                "learning_rate must be finite and > 0, got {}",
                self.learning_rate
            )));
        }
        if self.subsample_t.is_nan() || self.subsample_t < 0.0 {
            return Err(CoaneError::config(format!(
                "subsample_t must be >= 0 (infinity disables subsampling), got {}",
                self.subsample_t
            )));
        }
        if self.infer_batch_size < 1 {
            return Err(CoaneError::config("infer_batch_size must be >= 1"));
        }
        if self.max_lr_retries > 64 {
            return Err(CoaneError::config(format!(
                "max_lr_retries must be <= 64 (learning rate underflows beyond that), got {}",
                self.max_lr_retries
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_valid_and_paper_aligned() {
        let c = CoaneConfig::default();
        c.validate().unwrap();
        assert_eq!(c.embed_dim, 128);
        assert_eq!(c.walks_per_node, 1);
        assert_eq!(c.walk_length, 80);
        assert_eq!(c.num_negatives, 20);
        assert!((c.subsample_t - 1e-5).abs() < 1e-12);
        assert!((c.learning_rate - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn ablation_constructors() {
        assert_eq!(Ablation::wp().positive, PositiveLossKind::None);
        assert_eq!(Ablation::sg().positive, PositiveLossKind::SkipGram);
        assert_eq!(Ablation::wn().negative, NegativeLossKind::None);
        assert_eq!(Ablation::ns().negative, NegativeLossKind::Uniform);
        let sgns = Ablation::sgns();
        assert_eq!(sgns.positive, PositiveLossKind::SkipGram);
        assert_eq!(sgns.negative, NegativeLossKind::Uniform);
        assert!(!Ablation::wf().use_attributes);
        assert!(!Ablation::wap().attribute_preservation);
        assert_eq!(Ablation::full(), Ablation::default());
    }

    #[test]
    fn invalid_configs_are_typed_errors_not_panics() {
        let cases: Vec<(CoaneConfig, &str)> = vec![
            (CoaneConfig { embed_dim: 127, ..Default::default() }, "even"),
            (CoaneConfig { context_size: 4, ..Default::default() }, "odd"),
            (CoaneConfig { walks_per_node: 0, ..Default::default() }, "walks_per_node"),
            (CoaneConfig { walk_length: 0, ..Default::default() }, "walk_length"),
            (CoaneConfig { batch_size: 0, ..Default::default() }, "batch_size"),
            (CoaneConfig { num_negatives: 0, ..Default::default() }, "num_negatives"),
            (CoaneConfig { neg_strength: -1.0, ..Default::default() }, "neg_strength"),
            (CoaneConfig { gamma: f32::NAN, ..Default::default() }, "gamma"),
            (CoaneConfig { learning_rate: 0.0, ..Default::default() }, "learning_rate"),
            (CoaneConfig { subsample_t: f64::NAN, ..Default::default() }, "subsample_t"),
            (CoaneConfig { max_lr_retries: 100, ..Default::default() }, "max_lr_retries"),
            (CoaneConfig { infer_batch_size: 0, ..Default::default() }, "infer_batch_size"),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().expect_err(needle);
            assert!(matches!(err, CoaneError::Config { .. }), "{needle}: wrong variant");
            assert!(err.to_string().contains(needle), "{err} missing {needle:?}");
            assert_eq!(err.exit_code(), 2);
        }
        // The negative-term ablation lifts the num_negatives requirement.
        CoaneConfig { num_negatives: 0, ablation: Ablation::wn(), ..Default::default() }
            .validate()
            .unwrap();
    }
}
