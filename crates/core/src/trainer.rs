//! Algorithm 1: CoANE training with batch updating and per-epoch renewal,
//! wrapped in a fault-tolerance layer: non-finite-loss recovery (rollback +
//! learning-rate halving) and atomic checkpoint/resume
//! ([`Coane::fit_resumable`]).

use coane_error::{CoaneError, CoaneResult};
use coane_graph::{AttributedGraph, NodeAttributes, NodeId};
use coane_nn::init::xavier_uniform;
use coane_nn::{Adam, Matrix, Tape};
use coane_walks::{
    CoMatrices, ContextSet, ContextsConfig, ContextualNegativeSampler, PositivePairs, WalkConfig,
    Walker,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use coane_obs::Obs;

use crate::batch::{first_hop_walks, ContextBatch};
use crate::cache::ContextRowCache;
use crate::checkpoint::{self, CheckpointConfig, TrainCheckpoint};
use crate::config::{CoaneConfig, ContextSource, NegativeLossKind};
use crate::loss::{attribute_loss, negative_loss, positive_loss, total_loss, LossContext};
use crate::model::CoaneModel;
use crate::telemetry::{CheckpointRecord, EpochRecord, RecoveryRecord, ResumeRecord};

/// Per-epoch training statistics.
#[derive(Clone, Debug, Default)]
pub struct TrainStats {
    /// Total objective value per epoch (summed over batches).
    pub epoch_losses: Vec<f32>,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
    /// `k_p` used by the positive likelihood.
    pub k_p: usize,
    /// Total contexts extracted.
    pub num_contexts: usize,
    /// Non-finite-loss recoveries performed (rollback + LR halving).
    pub recoveries: usize,
    /// When training resumed from a checkpoint, the epoch it restarted at.
    pub resumed_from_epoch: Option<usize>,
    /// Checkpoints written during this run.
    pub checkpoints_written: usize,
    /// Learning rate at the end of training (lower than configured iff
    /// recovery halved it).
    pub final_lr: f32,
}

/// The CoANE embedder. Construct with a [`CoaneConfig`], call
/// [`Coane::fit`] (or [`Coane::fit_detailed`] for stats and per-epoch
/// callbacks) to obtain the `(n × d')` embedding matrix. For long runs that
/// must survive interruption, [`Coane::fit_resumable`] adds crash-safe
/// checkpointing with bit-identical resume.
#[derive(Debug)]
pub struct Coane {
    config: CoaneConfig,
    /// Telemetry sink; disabled by default (every instrumentation call is a
    /// no-op branch). Never part of the checkpoint fingerprint: telemetry
    /// is observation-only and cannot affect results.
    obs: Obs,
    /// Test-only fault injection: epochs whose loss is forced to NaN once.
    fault_epochs: Vec<usize>,
}

/// Pre-processing-phase state: contexts, co-occurrence matrices, positive
/// pairs, the contextual negative sampler, and the epoch-persistent
/// context-row cache every batch is sliced from.
struct Prepared {
    contexts: std::sync::Arc<ContextSet>,
    co: CoMatrices,
    pairs: PositivePairs,
    sampler: ContextualNegativeSampler,
    cache: ContextRowCache,
}

/// Telemetry-only per-epoch accumulator. Filled by `train_batch` only when
/// the observer is enabled; its values never feed back into training.
#[derive(Default)]
struct EpochAccum {
    pos: f64,
    neg: f64,
    att: f64,
    grad_norm: f64,
    batches: u64,
    cache_rows: u64,
    nnz: u64,
}

impl Coane {
    /// New trainer with `config`.
    ///
    /// # Panics
    /// Panics on an invalid configuration; use [`Coane::try_new`] when the
    /// config comes from external input.
    pub fn new(config: CoaneConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("invalid CoaneConfig: {e}"))
    }

    /// New trainer with `config`, surfacing validation failures as a typed
    /// [`CoaneError::Config`] instead of panicking.
    pub fn try_new(config: CoaneConfig) -> CoaneResult<Self> {
        config.validate()?;
        Ok(Self { config, obs: Obs::disabled(), fault_epochs: Vec::new() })
    }

    /// The configuration.
    pub fn config(&self) -> &CoaneConfig {
        &self.config
    }

    /// Attaches a telemetry collector. Every training phase then records
    /// timing scopes, counters, and structured events (per-epoch
    /// [`EpochRecord`]s, NaN-guard [`RecoveryRecord`]s, checkpoint write
    /// latency) into `obs`. Telemetry is observation-only: it never draws
    /// from the training RNG or reorders float operations, so the returned
    /// embeddings are bit-identical to an unobserved run at any thread
    /// count (enforced by `tests/determinism.rs`).
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Forces the training loss to come out NaN once per listed epoch (an
    /// epoch listed twice faults twice, exercising repeated recovery). This
    /// exists so the recovery path is tested against the *real* rollback
    /// machinery rather than a simulation; it is not part of the public API.
    #[doc(hidden)]
    pub fn with_injected_loss_faults(mut self, epochs: &[usize]) -> Self {
        self.fault_epochs = epochs.to_vec();
        self
    }

    /// Trains and returns the final embedding matrix (`n × d'`).
    ///
    /// # Panics
    /// Panics if training fails (e.g. non-finite loss persists through all
    /// recovery attempts); use [`Coane::try_fit`] for a typed error.
    pub fn fit(&self, graph: &AttributedGraph) -> Matrix {
        self.try_fit(graph).unwrap_or_else(|e| panic!("training failed: {e}"))
    }

    /// Trains and returns the final embedding matrix, surfacing failures as
    /// typed [`CoaneError`]s.
    pub fn try_fit(&self, graph: &AttributedGraph) -> CoaneResult<Matrix> {
        Ok(self.run(graph, None, |_, _| {})?.0)
    }

    /// Trains and additionally returns the fitted model (for filter-weight
    /// inspection, Fig. 6b).
    pub fn fit_with_model(&self, graph: &AttributedGraph) -> (Matrix, CoaneModel, TrainStats) {
        self.run(graph, None, |_, _| {}).unwrap_or_else(|e| panic!("training failed: {e}"))
    }

    /// [`Coane::fit_with_model`] with typed errors instead of panics.
    pub fn try_fit_with_model(
        &self,
        graph: &AttributedGraph,
    ) -> CoaneResult<(Matrix, CoaneModel, TrainStats)> {
        self.run(graph, None, |_, _| {})
    }

    /// Trains, returning embeddings and statistics. `on_epoch(e, z)` is
    /// invoked after every epoch with the *renewed* full embedding matrix —
    /// the hook behind the convergence curves of Fig. 4d / Fig. 6.
    pub fn fit_detailed(
        &self,
        graph: &AttributedGraph,
        on_epoch: impl FnMut(usize, &Matrix),
    ) -> (Matrix, TrainStats) {
        let (z, _, stats) =
            self.run(graph, None, on_epoch).unwrap_or_else(|e| panic!("training failed: {e}"));
        (z, stats)
    }

    /// Fault-tolerant training: periodically writes atomic checkpoints into
    /// `ckpt.dir` and, when the directory already holds a valid checkpoint
    /// from a previous (interrupted) run with the same result-affecting
    /// configuration, resumes from it instead of starting over.
    ///
    /// Because checkpoints capture the exact RNG stream position alongside
    /// parameters and optimizer moments — and the whole pipeline is
    /// bit-deterministic for any thread count — an interrupted-and-resumed
    /// run produces embeddings `==` to those of an uninterrupted run.
    /// Corrupt or truncated checkpoint files are detected by CRC and
    /// skipped in favor of the newest valid one; a checkpoint written under
    /// a different configuration is rejected with
    /// [`CoaneError::Checkpoint`].
    pub fn fit_resumable(
        &self,
        graph: &AttributedGraph,
        ckpt: &CheckpointConfig,
    ) -> CoaneResult<(Matrix, TrainStats)> {
        let (z, _, stats) = self.run(graph, Some(ckpt), |_, _| {})?;
        Ok((z, stats))
    }

    /// [`Coane::fit_resumable`] variant that also returns the fitted model
    /// (e.g. to persist it with [`crate::persist::save_model`] afterwards).
    pub fn fit_resumable_with_model(
        &self,
        graph: &AttributedGraph,
        ckpt: &CheckpointConfig,
    ) -> CoaneResult<(Matrix, CoaneModel, TrainStats)> {
        self.run(graph, Some(ckpt), |_, _| {})
    }

    /// The fully general training entry point: optional checkpointing, a
    /// per-epoch callback (invoked with the renewed embedding matrix), and
    /// the fitted model in the result. Every other `fit_*` method is a
    /// specialization of this.
    pub fn try_fit_full(
        &self,
        graph: &AttributedGraph,
        checkpointing: Option<&CheckpointConfig>,
        on_epoch: impl FnMut(usize, &Matrix),
    ) -> CoaneResult<(Matrix, CoaneModel, TrainStats)> {
        self.run(graph, checkpointing, on_epoch)
    }

    fn run(
        &self,
        graph: &AttributedGraph,
        checkpointing: Option<&CheckpointConfig>,
        mut on_epoch: impl FnMut(usize, &Matrix),
    ) -> CoaneResult<(Matrix, CoaneModel, TrainStats)> {
        let cfg = &self.config;
        // One knob for every parallel stage: walk generation, preprocessing
        // and the training kernels all read the pool's thread count. Results
        // are bit-identical for any setting (see `coane_nn::pool`).
        coane_nn::pool::set_threads(cfg.threads);
        // WF ablation: strip attributes down to identity rows.
        let owned_graph;
        let graph: &AttributedGraph = if cfg.ablation.use_attributes {
            graph
        } else {
            owned_graph = graph.clone().with_attrs(NodeAttributes::identity(graph.num_nodes()));
            &owned_graph
        };

        let _fit_scope = self.obs.scope("fit");
        let n = graph.num_nodes();
        let prep = {
            let _scope = self.obs.scope("prepare");
            self.prepare(graph)
        };
        let mut stats = TrainStats {
            k_p: prep.pairs.k_p,
            num_contexts: prep.contexts.num_contexts(),
            final_lr: cfg.learning_rate,
            ..Default::default()
        };

        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed.wrapping_add(0xC0A0E));
        let mut model = CoaneModel::new(cfg, graph.attr_dim(), &mut rng);
        let mut adam = Adam::new(cfg.learning_rate);
        // Initialize the embedding cache with Xavier, as the paper
        // initializes "both model parameters and embedding vectors".
        let mut z_cache = xavier_uniform(n, cfg.embed_dim, &mut rng);

        let fingerprint = checkpoint::config_fingerprint(cfg);
        let mut start_epoch = 0usize;
        let mut renewed = false;
        if let Some(ck) = checkpointing {
            ck.validate()?;
            if let Some((path, saved)) = checkpoint::latest_valid(&ck.dir)? {
                if saved.fingerprint != fingerprint {
                    return Err(CoaneError::checkpoint(
                        &path,
                        "configuration fingerprint mismatch: this checkpoint was written under \
                         different result-affecting settings (resuming would produce embeddings \
                         matching neither run); use a fresh checkpoint directory",
                    ));
                }
                if saved.params.len() != model.params.len() {
                    return Err(CoaneError::checkpoint(
                        &path,
                        format!(
                            "parameter count mismatch: model has {}, checkpoint has {}",
                            model.params.len(),
                            saved.params.len()
                        ),
                    ));
                }
                for ((_, expect, _), (got, _)) in model.params.iter().zip(&saved.params) {
                    if expect != got {
                        return Err(CoaneError::checkpoint(
                            &path,
                            format!("parameter name mismatch: expected {expect:?}, found {got:?}"),
                        ));
                    }
                }
                let values: Vec<Matrix> = saved.params.into_iter().map(|(_, m)| m).collect();
                model
                    .params
                    .import_values(values)
                    .map_err(|msg| CoaneError::checkpoint(&path, msg))?;
                adam = Adam::import_state(saved.lr, saved.adam_t, saved.adam_m, saved.adam_v)
                    .map_err(|msg| CoaneError::checkpoint(&path, msg))?;
                rng = ChaCha8Rng::from_state(&saved.rng);
                stats.epoch_losses = saved.epoch_losses;
                stats.epoch_seconds = saved.epoch_seconds;
                stats.recoveries = saved.recoveries as usize;
                stats.final_lr = adam.lr;
                start_epoch = saved.epoch as usize;
                stats.resumed_from_epoch = Some(start_epoch);
                self.obs.event("resume", &ResumeRecord { epoch: start_epoch as u64 });
                // The embedding cache is not checkpointed: renewal recomputes
                // it deterministically from the restored filters.
                {
                    let _scope = self.obs.scope("renew");
                    self.renew(&prep.cache, &model, &mut z_cache);
                }
                renewed = true;
            }
        }

        let mut local_of: Vec<Option<u32>> = vec![None; n];
        let mut order: Vec<NodeId> = (0..n as NodeId).collect();
        let mut retries_left = cfg.max_lr_retries;
        let mut pending_faults = self.fault_epochs.clone();
        let mut epoch = start_epoch;
        while epoch < cfg.epochs {
            // Snapshot the healthy state at the epoch boundary so a
            // non-finite epoch can be rolled back and retried at a lower LR.
            let snap_params = model.params.export_values();
            let snap_adam = adam.clone();
            let snap_rng = rng.clone();
            let snap_z = z_cache.clone();

            let _epoch_scope = self.obs.scope("epoch");
            let started = std::time::Instant::now();
            // Reset to identity before shuffling: the epoch-e permutation
            // then depends only on the RNG state at the epoch boundary (which
            // checkpoints capture exactly), not on every earlier shuffle.
            for (i, slot) in order.iter_mut().enumerate() {
                *slot = i as NodeId;
            }
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f32;
            let mut accum = EpochAccum::default();
            let (mut occ_sum, mut occ_samples) = (0u64, 0u64);
            // Pipelined batch assembly: batch i+1's sparse operand is sliced
            // out of the context-row cache on a background worker while batch
            // i trains. Only the (pure-function-of-index) assembly moves off
            // the main thread — negative sampling and every parameter update
            // stay on the main-thread RNG in batch order, so the training
            // trajectory is bit-identical with prefetching on, off, or at any
            // depth. The occupancy probe only reads a producer-side counter.
            let batch_chunks: Vec<&[NodeId]> = order.chunks(cfg.batch_size).collect();
            coane_nn::pool::prefetch_probed(
                batch_chunks.len(),
                cfg.prefetch_batches,
                |i| prep.cache.batch(graph, batch_chunks[i]),
                |i, batch| {
                    epoch_loss += self.train_batch(
                        graph,
                        &prep,
                        &mut model,
                        &mut adam,
                        &mut z_cache,
                        &mut local_of,
                        batch_chunks[i],
                        batch,
                        &mut rng,
                        &mut accum,
                    );
                },
                |ready| {
                    occ_sum += ready as u64;
                    occ_samples += 1;
                },
            );
            if let Some(pos) = pending_faults.iter().position(|&e| e == epoch) {
                pending_faults.swap_remove(pos);
                epoch_loss = f32::NAN;
            }

            if !(epoch_loss.is_finite() && model.params.all_finite()) {
                if retries_left == 0 {
                    return Err(CoaneError::numeric(format!(
                        "non-finite training loss at epoch {epoch} persisted through \
                         {} rollback(s) with learning-rate halving (last lr {:e}); the \
                         objective is numerically unstable for this input — check the \
                         graph's attribute scale or lower the learning rate",
                        cfg.max_lr_retries, adam.lr
                    )));
                }
                retries_left -= 1;
                stats.recoveries += 1;
                self.obs.event(
                    "recovery",
                    &RecoveryRecord {
                        epoch: epoch as u64,
                        lr: (adam.lr * 0.5) as f64,
                        retries_left: retries_left as u64,
                    },
                );
                model
                    .params
                    .import_values(snap_params)
                    .expect("epoch snapshot matches live parameter shapes");
                adam = snap_adam;
                adam.lr *= 0.5;
                stats.final_lr = adam.lr;
                rng = snap_rng;
                z_cache = snap_z;
                continue; // retry the same epoch at the halved learning rate
            }

            let secs = started.elapsed().as_secs_f64();
            stats.epoch_losses.push(epoch_loss);
            stats.epoch_seconds.push(secs);
            if self.obs.is_enabled() {
                let record = EpochRecord {
                    epoch: epoch as u64,
                    loss: epoch_loss as f64,
                    loss_pos: accum.pos,
                    loss_neg: accum.neg,
                    loss_att: accum.att,
                    grad_norm: accum.grad_norm / accum.batches.max(1) as f64,
                    lr: adam.lr as f64,
                    seconds: secs,
                    nodes: n as u64,
                    nodes_per_sec: n as f64 / secs.max(f64::EPSILON),
                    batches: accum.batches,
                    cache_rows: accum.cache_rows,
                    nnz: accum.nnz,
                    prefetch_depth: cfg.prefetch_batches as u64,
                    prefetch_occupancy: if occ_samples == 0 {
                        0.0
                    } else {
                        occ_sum as f64 / occ_samples as f64
                    },
                };
                self.obs.add("train/batches", record.batches);
                self.obs.add("cache/rows_served", record.cache_rows);
                self.obs.add("train/nnz", record.nnz);
                self.obs.gauge("nodes_per_sec", record.nodes_per_sec);
                self.obs.gauge("prefetch/occupancy", record.prefetch_occupancy);
                self.obs.event("epoch", &record);
            }
            // Renew all embeddings with the current filters (Algorithm 1's
            // final "Renew z_v" step, run each epoch so callbacks and the
            // next epoch's cache see consistent embeddings).
            {
                let _scope = self.obs.scope("renew");
                self.renew(&prep.cache, &model, &mut z_cache);
            }
            renewed = true;
            on_epoch(epoch, &z_cache);

            if let Some(ck) = checkpointing {
                let done = epoch + 1;
                if done.is_multiple_of(ck.every_epochs) || done == cfg.epochs {
                    let (lr, adam_t, m, v) = adam.export_state();
                    let ckpt = TrainCheckpoint {
                        fingerprint,
                        epoch: done as u64,
                        lr,
                        adam_t,
                        rng: rng.state(),
                        recoveries: stats.recoveries as u64,
                        epoch_losses: stats.epoch_losses.clone(),
                        epoch_seconds: stats.epoch_seconds.clone(),
                        params: model
                            .params
                            .iter()
                            .map(|(_, name, value)| (name.to_string(), value.clone()))
                            .collect(),
                        adam_m: m.to_vec(),
                        adam_v: v.to_vec(),
                    };
                    let write_started = std::time::Instant::now();
                    {
                        let _scope = self.obs.scope("checkpoint");
                        checkpoint::save_checkpoint(&ck.dir, &ckpt, ck.keep)?;
                    }
                    stats.checkpoints_written += 1;
                    self.obs.event(
                        "checkpoint",
                        &CheckpointRecord {
                            epoch: done as u64,
                            write_secs: write_started.elapsed().as_secs_f64(),
                        },
                    );
                }
            }
            epoch += 1;
        }
        if !renewed {
            let _scope = self.obs.scope("renew");
            self.renew(&prep.cache, &model, &mut z_cache);
        }
        stats.final_lr = adam.lr;
        Ok((z_cache, model, stats))
    }

    /// Trains on one prebuilt batch (assembled inline or on the prefetch
    /// pipeline — either way bit-identical to [`ContextBatch::build`]).
    #[allow(clippy::too_many_arguments)]
    fn train_batch(
        &self,
        graph: &AttributedGraph,
        prep: &Prepared,
        model: &mut CoaneModel,
        adam: &mut Adam,
        z_cache: &mut Matrix,
        local_of: &mut [Option<u32>],
        batch_nodes: &[NodeId],
        batch: ContextBatch,
        rng: &mut ChaCha8Rng,
        accum: &mut EpochAccum,
    ) -> f32 {
        let cfg = &self.config;
        for (k, &v) in batch_nodes.iter().enumerate() {
            local_of[v as usize] = Some(k as u32);
        }

        // Draw negatives (outside the tape, always on the main-thread RNG).
        let negatives: Vec<Vec<NodeId>> = match cfg.ablation.negative {
            NegativeLossKind::None => vec![Vec::new(); batch_nodes.len()],
            NegativeLossKind::Contextual => batch_nodes
                .iter()
                .map(|&v| {
                    prep.sampler.negatives(
                        v,
                        cfg.num_negatives,
                        cfg.negative_mode,
                        batch_nodes,
                        rng,
                    )
                })
                .collect(),
            NegativeLossKind::Uniform => batch_nodes
                .iter()
                .map(|&v| {
                    (0..cfg.num_negatives)
                        .map(|_| {
                            use rand::Rng;
                            let mut u = rng.gen_range(0..graph.num_nodes()) as NodeId;
                            while u == v {
                                u = rng.gen_range(0..graph.num_nodes()) as NodeId;
                            }
                            u
                        })
                        .collect()
                })
                .collect(),
        };

        let mut tape = Tape::new();
        let vars = model.params.attach(&mut tape);
        let z = model.encode(&mut tape, &vars, &batch);
        let decoded = if cfg.ablation.attribute_preservation {
            model.decode(&mut tape, &vars, z)
        } else {
            None
        };
        let ctx = LossContext { batch_nodes, local: local_of, z_cache };
        let l_pos = positive_loss(&mut tape, z, &ctx, cfg.ablation.positive, &prep.pairs, &prep.co);
        let l_neg =
            negative_loss(&mut tape, z, &ctx, cfg.ablation.negative, &negatives, cfg.neg_strength);
        let l_att = attribute_loss(&mut tape, decoded, &batch.x_target, cfg.gamma);
        let loss_value = if let Some(loss) = total_loss(&mut tape, [l_pos, l_neg, l_att]) {
            tape.backward(loss);
            let grads = model.params.take_grads(&mut tape, &vars);
            if self.obs.is_enabled() {
                // Global gradient L2 norm, read before the optimizer step.
                accum.grad_norm += grads
                    .iter()
                    .flat_map(|g| g.as_slice())
                    .map(|&x| x as f64 * x as f64)
                    .sum::<f64>()
                    .sqrt();
            }
            adam.step(&mut model.params, &grads);
            tape.value(loss).item()
        } else {
            0.0
        };
        if self.obs.is_enabled() {
            accum.batches += 1;
            accum.cache_rows += batch.num_contexts() as u64;
            accum.nnz += batch.rb.nnz() as u64;
            let term = |v| tape.value(v).item() as f64;
            accum.pos += l_pos.map(&term).unwrap_or(0.0);
            accum.neg += l_neg.map(&term).unwrap_or(0.0);
            accum.att += l_att.map(&term).unwrap_or(0.0);
        }

        // Embedding-updating step: write the fresh batch embeddings into the
        // cache so later batches see them.
        let z_val = tape.value(z);
        for (k, &v) in batch_nodes.iter().enumerate() {
            z_cache.row_mut(v as usize).copy_from_slice(z_val.row(k));
            local_of[v as usize] = None;
        }
        loss_value
    }

    /// Recomputes every node's embedding with the current filters.
    ///
    /// Runs the no-grad forward over `infer_batch_size`-node chunks in
    /// parallel: each node's embedding depends only on its own cached
    /// context rows and `Θ`, so the chunk decomposition (and thread count)
    /// cannot change a single bit — see `coane_nn::pool`.
    fn renew(&self, cache: &ContextRowCache, model: &CoaneModel, z_cache: &mut Matrix) {
        let d = model.embed_dim();
        let chunk_nodes = self.config.infer_batch_size;
        coane_nn::pool::parallel_chunks(z_cache.as_mut_slice(), chunk_nodes * d, |start, out| {
            let v0 = (start / d) as NodeId;
            let nodes: Vec<NodeId> = (v0..v0 + (out.len() / d) as NodeId).collect();
            let z = model.encode_nograd(&cache.infer_batch(&nodes));
            out.copy_from_slice(z.as_slice());
        });
    }

    fn prepare(&self, graph: &AttributedGraph) -> Prepared {
        let cfg = &self.config;
        let ctx_cfg = ContextsConfig {
            context_size: cfg.context_size,
            subsample_t: match cfg.context_source {
                ContextSource::RandomWalk => cfg.subsample_t,
                // first-hop pseudo-walks already yield one context per
                // directed edge; subsampling would just lose edges.
                ContextSource::FirstHop => f64::INFINITY,
            },
            seed: cfg.seed ^ 0x51_7e,
        };
        let n = graph.num_nodes();
        let walker = Walker::new(
            graph,
            WalkConfig {
                walks_per_node: cfg.walks_per_node,
                walk_length: cfg.walk_length,
                p: 1.0,
                q: 1.0,
                seed: cfg.seed,
            },
        );
        let random_walk = cfg.context_source == ContextSource::RandomWalk;
        let contexts = if random_walk && cfg.walk_block_size > 0 {
            // Streaming path: walks flow through a bounded channel in blocks
            // and are dropped after context extraction — the full `r·n` walk
            // set is never resident, so walk generation is timed inside the
            // `contexts` scope. Contexts are bit-identical to the
            // materialized path (tests/streaming.rs).
            observe_contexts(&self.obs, || {
                ContextSet::build_streamed(&walker, n, cfg.walk_block_size, &ctx_cfg)
            })
        } else {
            let walks = {
                let _scope = self.obs.scope("walks");
                if random_walk {
                    walker.generate_all(cfg.threads)
                } else {
                    first_hop_walks(graph)
                }
            };
            observe_contexts(&self.obs, || ContextSet::build(&walks, n, &ctx_cfg))
        };
        if random_walk {
            self.obs.add("walks/count", walker.num_walks() as u64);
            self.obs.add("walks/steps", contexts.num_positions() as u64);
        }
        // Shared with the cache's rebuild rung (rung 2) without a second
        // copy, and with the trainer's own uses via deref.
        let contexts = std::sync::Arc::new(contexts);
        let co = {
            let _scope = self.obs.scope("cooccurrence");
            if cfg.coocc_block_size > 0 {
                CoMatrices::build_blocked(&contexts, graph, cfg.coocc_block_size)
            } else {
                CoMatrices::build(&contexts, graph)
            }
        };
        self.obs.add("cooccurrence/nnz_d", co.d.nnz() as u64);
        self.obs.add("cooccurrence/nnz_d1", co.d1.nnz() as u64);
        let k_p = contexts.max_count().max(1);
        let pairs = {
            let _scope = self.obs.scope("positive_pairs");
            PositivePairs::select(&co, k_p)
        };
        let sampler = {
            let _scope = self.obs.scope("sampler");
            ContextualNegativeSampler::new(&contexts)
        };
        // Contexts are frozen from here on: materialize every sparse context
        // row once so per-epoch batch assembly is a row-range concatenation.
        let cache = {
            let _scope = self.obs.scope("cache");
            if cfg.max_cache_bytes > 0 {
                ContextRowCache::build_budgeted(graph, &contexts, cfg.encoder, cfg.max_cache_bytes)
            } else {
                ContextRowCache::build(graph, &contexts, cfg.encoder)
            }
        };
        if self.obs.is_enabled() {
            self.obs.add("cache/rows_built", cache.num_contexts() as u64);
            self.obs.add("cache/nnz_built", cache.nnz() as u64);
            self.obs.add("cache/resident_bytes", cache.resident_bytes() as u64);
            let mode = match cache.mode() {
                crate::cache::CacheMode::Materialized => "cache/mode_materialized",
                crate::cache::CacheMode::Rebuild => "cache/mode_rebuild",
                crate::cache::CacheMode::Compressed => {
                    unreachable!("the context-row cache never builds the Compressed rung")
                }
            };
            self.obs.add(mode, 1);
        }
        Prepared { contexts, co, pairs, sampler, cache }
    }
}

/// Extracts contexts under a `contexts` timing scope and records the
/// `contexts/kept` and `contexts/subsample_dropped` counters from the
/// result — the one place training and inductive inference observe the
/// context stage.
pub(crate) fn observe_contexts(obs: &Obs, build: impl FnOnce() -> ContextSet) -> ContextSet {
    let contexts = {
        let _scope = obs.scope("contexts");
        build()
    };
    let kept = contexts.num_contexts();
    obs.add("contexts/kept", kept as u64);
    obs.add("contexts/subsample_dropped", (contexts.num_positions() - kept) as u64);
    contexts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Ablation;
    use coane_datasets::{social_circle_graph, SocialCircleConfig};

    fn small_graph() -> AttributedGraph {
        let cfg = SocialCircleConfig {
            num_nodes: 120,
            num_communities: 3,
            circles_per_community: 2,
            attr_dim: 60,
            num_edges: 360,
            mixing: 0.1,
            ..Default::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        social_circle_graph(&cfg, &mut rng).0
    }

    fn fast_config() -> CoaneConfig {
        CoaneConfig {
            embed_dim: 16,
            context_size: 3,
            walk_length: 20,
            epochs: 3,
            batch_size: 40,
            decoder_hidden: (32, 32),
            num_negatives: 5,
            subsample_t: 1e-3,
            threads: 2,
            ..Default::default()
        }
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("coane_trainer_ckpt").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fit_produces_finite_embeddings() {
        let g = small_graph();
        let z = Coane::new(fast_config()).fit(&g);
        assert_eq!(z.shape(), (120, 16));
        z.assert_finite("embedding");
        // Not collapsed: row norms vary and are non-zero.
        let norms: Vec<f32> =
            (0..z.rows()).map(|r| z.row(r).iter().map(|x| x * x).sum::<f32>().sqrt()).collect();
        assert!(norms.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let g = small_graph();
        let cfg = CoaneConfig { epochs: 6, ..fast_config() };
        let (_, stats) = Coane::new(cfg).fit_detailed(&g, |_, _| {});
        assert_eq!(stats.epoch_losses.len(), 6);
        let first = stats.epoch_losses[0];
        let last = *stats.epoch_losses.last().unwrap();
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn embeddings_reflect_communities() {
        // Mean intra-community cosine similarity should exceed
        // inter-community similarity after training.
        let g = small_graph();
        let labels = g.labels().unwrap().to_vec();
        let cfg = CoaneConfig { epochs: 8, ..fast_config() };
        let z = Coane::new(cfg).fit(&g);
        let cos = coane_nn::sim::cosine;
        let (mut same, mut ns) = (0.0f64, 0usize);
        let (mut diff, mut nd) = (0.0f64, 0usize);
        for i in 0..z.rows() {
            for j in (i + 1)..z.rows() {
                let c = cos(z.row(i), z.row(j)) as f64;
                if labels[i] == labels[j] {
                    same += c;
                    ns += 1;
                } else {
                    diff += c;
                    nd += 1;
                }
            }
        }
        let (ms, md) = (same / ns as f64, diff / nd as f64);
        assert!(ms > md, "intra {ms} <= inter {md}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = small_graph();
        let z1 = Coane::new(fast_config()).fit(&g);
        let z2 = Coane::new(fast_config()).fit(&g);
        assert_eq!(z1, z2);
    }

    #[test]
    fn all_ablations_run() {
        let g = small_graph();
        for ablation in [
            Ablation::full(),
            Ablation::wp(),
            Ablation::sg(),
            Ablation::wn(),
            Ablation::ns(),
            Ablation::sgns(),
            Ablation::wf(),
            Ablation::wap(),
        ] {
            let cfg = CoaneConfig { ablation, epochs: 1, ..fast_config() };
            let z = Coane::new(cfg).fit(&g);
            z.assert_finite("ablation embedding");
        }
    }

    #[test]
    fn fc_encoder_and_first_hop_contexts_run() {
        let g = small_graph();
        let cfg = CoaneConfig {
            encoder: crate::config::EncoderKind::FullyConnected,
            epochs: 1,
            ..fast_config()
        };
        Coane::new(cfg).fit(&g);
        let cfg =
            CoaneConfig { context_source: ContextSource::FirstHop, epochs: 1, ..fast_config() };
        Coane::new(cfg).fit(&g);
    }

    #[test]
    fn presampling_mode_runs() {
        let g = small_graph();
        let cfg = CoaneConfig {
            negative_mode: coane_walks::NegativeMode::PreSampling { pool_factor: 3 },
            epochs: 1,
            ..fast_config()
        };
        Coane::new(cfg).fit(&g);
    }

    #[test]
    fn epoch_callback_sees_renewed_embeddings() {
        let g = small_graph();
        let cfg = CoaneConfig { epochs: 2, ..fast_config() };
        let mut calls = 0usize;
        Coane::new(cfg).fit_detailed(&g, |e, z| {
            assert_eq!(e, calls);
            assert_eq!(z.shape(), (120, 16));
            calls += 1;
        });
        assert_eq!(calls, 2);
    }

    #[test]
    fn zero_epochs_still_renews() {
        let g = small_graph();
        let cfg = CoaneConfig { epochs: 0, ..fast_config() };
        let z = Coane::new(cfg).fit(&g);
        z.assert_finite("untrained embedding");
    }

    #[test]
    fn try_new_rejects_bad_config_without_panicking() {
        let err = Coane::try_new(CoaneConfig { embed_dim: 7, ..fast_config() }).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("embed_dim"), "{err}");
    }

    #[test]
    fn injected_nan_loss_triggers_rollback_and_lr_halving() {
        let g = small_graph();
        let cfg = fast_config();
        let base_lr = cfg.learning_rate;
        let (z, stats) = {
            let trainer = Coane::new(cfg).with_injected_loss_faults(&[1]);
            let (z, _, stats) = trainer.run(&g, None, |_, _| {}).unwrap();
            (z, stats)
        };
        z.assert_finite("post-recovery embedding");
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.epoch_losses.len(), 3, "all epochs completed after retry");
        assert!(
            (stats.final_lr - base_lr * 0.5).abs() < 1e-12,
            "lr {} not halved from {base_lr}",
            stats.final_lr
        );
    }

    #[test]
    fn persistent_nan_exhausts_retries_into_typed_numeric_error() {
        let g = small_graph();
        let cfg = CoaneConfig { max_lr_retries: 2, ..fast_config() };
        // Epoch 1 faults three times: two recoveries, then exhaustion.
        let trainer = Coane::new(cfg).with_injected_loss_faults(&[1, 1, 1]);
        let err = trainer.run(&g, None, |_, _| {}).unwrap_err();
        assert!(matches!(err, CoaneError::Numeric { .. }), "{err:?}");
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("epoch 1"), "{err}");
    }

    #[test]
    fn fresh_fit_resumable_matches_plain_fit() {
        let g = small_graph();
        let dir = ckpt_dir("fresh");
        let trainer = Coane::new(fast_config());
        let (z_resumable, stats) = trainer.fit_resumable(&g, &CheckpointConfig::new(&dir)).unwrap();
        let z_plain = trainer.fit(&g);
        assert_eq!(z_resumable, z_plain, "checkpoint writes must not perturb training");
        assert_eq!(stats.checkpoints_written, 3);
        assert!(stats.resumed_from_epoch.is_none());
    }

    #[test]
    fn resume_continues_bit_identically() {
        let g = small_graph();
        let dir = ckpt_dir("resume");
        // Interrupted run: 2 of 5 epochs, checkpointing each.
        let partial = Coane::new(CoaneConfig { epochs: 2, ..fast_config() });
        partial.fit_resumable(&g, &CheckpointConfig::new(&dir)).unwrap();
        // Resumed run picks up at epoch 2 and finishes 5.
        let full_cfg = CoaneConfig { epochs: 5, ..fast_config() };
        let (z_resumed, stats) =
            Coane::new(full_cfg.clone()).fit_resumable(&g, &CheckpointConfig::new(&dir)).unwrap();
        assert_eq!(stats.resumed_from_epoch, Some(2));
        assert_eq!(stats.epoch_losses.len(), 5);
        // Uninterrupted reference.
        let z_direct = Coane::new(full_cfg).fit(&g);
        assert_eq!(z_resumed, z_direct, "resume is not bit-identical");
    }

    #[test]
    fn resume_rejects_mismatched_config_fingerprint() {
        let g = small_graph();
        let dir = ckpt_dir("fingerprint");
        Coane::new(CoaneConfig { epochs: 1, ..fast_config() })
            .fit_resumable(&g, &CheckpointConfig::new(&dir))
            .unwrap();
        let other = CoaneConfig { seed: 777, epochs: 2, ..fast_config() };
        let err = Coane::new(other).fit_resumable(&g, &CheckpointConfig::new(&dir)).unwrap_err();
        assert!(matches!(err, CoaneError::Checkpoint { .. }), "{err:?}");
        assert_eq!(err.exit_code(), 7);
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn invalid_checkpoint_config_rejected() {
        let g = small_graph();
        let dir = ckpt_dir("invalid-cfg");
        let bad = CheckpointConfig { every_epochs: 0, ..CheckpointConfig::new(&dir) };
        let err = Coane::new(fast_config()).fit_resumable(&g, &bad).unwrap_err();
        assert!(matches!(err, CoaneError::Config { .. }), "{err:?}");
    }
}
