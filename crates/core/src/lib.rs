//! # coane-core
//!
//! The CoANE model — *Context Co-occurrence-aware Attributed Network
//! Embedding* (Hsieh & Li, ICDE 2022) — implemented from scratch on the
//! `coane-nn` autograd engine.
//!
//! Pipeline (Fig. 1 of the paper):
//!
//! 1. **Generating structural contexts** (`coane-walks`): `r` random walks of
//!    length `l` per node; sliding windows of size `c` with padding and
//!    subsampling; co-occurrence matrices `D`, `D¹`.
//! 2. **Modeling context co-occurrence** ([`model`]): each context's
//!    attribute-context matrix `R_vi ∈ R^{c×d}` is convolved by `d'` filters
//!    `Θ_j ∈ R^{c×d}` (a 1-D CNN with receptive field = stride = `c`,
//!    treating each attribute as a channel), then 1-D average pooling over
//!    the node's contexts yields `z_v ∈ R^{d'}`.
//! 3. **Three-way objective** ([`loss`], §3.3): positive graph likelihood on
//!    top-`k_p` entries of `D̃ = Dᴺ + D¹`, contextually negative sampling with
//!    strength `a`, and attribute reconstruction through a 2-hidden-layer
//!    ReLU MLP weighted by `γ`.
//!
//! The [`trainer::Coane`] type runs Algorithm 1 (batch updating with
//! per-epoch embedding renewal). [`config::Ablation`] switches reproduce all
//! eight objective variants of Fig. 6 plus the fully-connected encoder of
//! Fig. 6a and the one-hop-context variant of Fig. 5.
//!
//! ```no_run
//! use coane_core::{Coane, CoaneConfig};
//! use coane_datasets::Preset;
//!
//! let (graph, _) = Preset::Cora.generate_scaled(0.1, 42);
//! let config = CoaneConfig { epochs: 3, ..Default::default() };
//! let embedding = Coane::new(config).fit(&graph);
//! assert_eq!(embedding.rows(), graph.num_nodes());
//! ```

pub mod batch;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod inductive;
pub mod loss;
pub mod model;
pub mod persist;
pub mod telemetry;
pub mod trainer;

pub use cache::{CacheMode, ContextRowCache};
pub use checkpoint::CheckpointConfig;
pub use coane_error::{CoaneError, CoaneResult};
pub use coane_obs::Obs;
pub use config::{
    Ablation, CoaneConfig, ContextSource, EncoderKind, NegativeLossKind, PositiveLossKind,
};
pub use inductive::{embed_nodes, embed_nodes_obs};
pub use model::CoaneModel;
pub use persist::{load_model, save_model};
pub use telemetry::{CheckpointRecord, EpochRecord, RecoveryRecord, ResumeRecord};
pub use trainer::{Coane, TrainStats};
