//! The query engine: typed request execution over generation-managed
//! [`EmbeddingStore`] + [`HnswIndex`] snapshots, with bounded batching on
//! the workspace pool and per-query-class telemetry.
//!
//! Four query classes (mirroring the HTTP routes):
//!
//! - **kNN** ([`QueryEngine::knn`]): approximate (HNSW) or exact
//!   (brute-force) retrieval for a batch of queries, each given by a stored
//!   node id or a raw vector.
//! - **Link scoring** ([`QueryEngine::score_links`]): batch edge scoring of
//!   `(u, v)` id pairs through the shared
//!   [`coane_eval::linkpred::edge_scores`] path — the same scorers the
//!   offline evaluation uses.
//! - **Inductive encoding** ([`QueryEngine::encode_unseen`]): embeds
//!   never-seen attributed nodes with the trained model
//!   ([`coane_core::inductive::embed_nodes_obs`] →
//!   `CoaneModel::encode_nograd`), given their attributes and their edges
//!   into the serving graph.
//! - **Mutation** ([`QueryEngine::upsert`] / [`QueryEngine::delete`]): live
//!   writes through the crash-safe generation layer
//!   ([`crate::generation`]). Upserts take a raw vector or an attributed
//!   node (encoded through the same inductive path, then logged as the
//!   resulting vector so replay needs no model); deletes tombstone ids
//!   until compaction reclaims them.
//!
//! ## Generations
//!
//! Every read path pins one [`GenerationView`] for its whole pass: the
//! store, index, exact index, and tombstone mask it works against cannot
//! change underneath it, and `/knn` never blocks on a mutation or a
//! compaction swap. kNN answers carry the pinned view's [`ViewStamp`] so a
//! client can tell which state produced them.
//!
//! ## Batching and backpressure
//!
//! Queries arrive in batches (one HTTP body = one batch) and are bounded by
//! [`EngineLimits::max_batch`]; oversized batches are rejected with a typed
//! config error rather than queued, so a client can never wedge the pool
//! with one request. Admission control for concurrent batches is a counting
//! [`Gate`] with two entry styles:
//!
//! - The public [`QueryEngine::knn`] / [`QueryEngine::score_links`] /
//!   [`QueryEngine::encode_unseen`] / [`QueryEngine::upsert`] /
//!   [`QueryEngine::delete`] convenience methods *block* while `queue_cap`
//!   batches are in flight (library callers lean on that backpressure).
//! - [`QueryEngine::try_admit`] is the load-shedding entry the HTTP layer
//!   uses: it never blocks, and each [`QueryClass`] saturates at its own
//!   fraction of `queue_cap` (kNN fills the whole queue, link scoring 3/4,
//!   inductive encoding and mutations 1/2) so cheap retrieval stays live
//!   while expensive work — and any write flood — is shed first. A
//!   saturated class gets a typed [`CoaneError::Busy`] (HTTP 429 +
//!   `Retry-After`) and bumps the `serve/shed` counter. Current depth is
//!   exported as the `serve/queue_depth` gauge either way.
//!
//! ## Cross-request coalescing
//!
//! [`QueryEngine::knn_multi`] and [`QueryEngine::score_links_multi`] execute
//! *several* request bodies in one kernel pass: every valid job's queries
//! are concatenated and scored together (exact kNN through the
//! pre-transposed [`ExactIndex`] matmul — one `m×dim · dim×n` product per
//! round — approximate through per-query HNSW searches on the pool), then
//! demultiplexed back per job. Per-job error
//! isolation holds — one job's unknown id fails *that* job only. The
//! determinism contract is that coalescing is invisible in the bytes:
//! every score is a pure function of its (query, store row) pair and result
//! order is per-job, so a job's answers are bit-identical whether it runs
//! alone or coalesced with any other jobs, at any thread count (locked by
//! `tests/keepalive.rs`). The whole round runs against one pinned view and
//! reports that view's stamp.
//!
//! Every query class times itself under a `serve/<class>` scope and counts
//! requests/batches, so `/stats` can report per-class QPS.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use coane_core::{embed_nodes_obs, CoaneConfig, CoaneModel};
use coane_error::{CoaneError, CoaneResult};
use coane_graph::{AttributedGraph, GraphBuilder, NodeAttributes};
use coane_nn::{pool, Precision, Scorer};
use coane_obs::Obs;

use crate::generation::{
    GenerationManager, GenerationView, MutationConfig, MutationStats, RecoveryReport, ViewStamp,
};
use crate::hnsw::{Hit, HnswIndex};
use crate::mutlog::MutOp;
use crate::store::EmbeddingStore;

/// Bounds on batch admission (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct EngineLimits {
    /// Max queries per batch; larger batches are rejected.
    pub max_batch: usize,
    /// Max concurrently admitted batches; further submitters block.
    pub queue_cap: usize,
    /// On a quantized store, each kNN query fetches `k · rerank_factor`
    /// candidates under quantized scores and re-ranks them with exact f32
    /// scores from the sidecar before taking the top `k`. Ignored (no
    /// rerank pass at all) on f32 stores. Clamped to ≥ 1.
    pub rerank_factor: usize,
}

impl Default for EngineLimits {
    fn default() -> Self {
        Self { max_batch: 256, queue_cap: 64, rerank_factor: 4 }
    }
}

/// One kNN query: exactly one of `id` (a stored node) or `vector` (a raw
/// embedding-space point).
#[derive(Clone, Debug)]
pub enum KnnTarget {
    /// Look up the stored vector of this external node id.
    Id(u64),
    /// Query with this raw vector.
    Vector(Vec<f32>),
}

/// Parameters shared by every query in a kNN batch. `PartialEq` lets the
/// HTTP micro-batcher group only jobs with identical parameters into one
/// kernel pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnnParams {
    /// Number of neighbors to return.
    pub k: usize,
    /// Scorer to rank under. Approximate search requires the index's build
    /// scorer; any scorer works with `exact`.
    pub scorer: Scorer,
    /// Brute-force scan instead of the HNSW graph.
    pub exact: bool,
}

/// One kNN answer: neighbor external ids with similarity scores, most
/// similar first. When the query was a stored id, that node itself is
/// filtered out of its own neighbor list; tombstoned nodes never appear.
#[derive(Clone, Debug, PartialEq)]
pub struct KnnAnswer {
    /// Neighbors as `(external id, score)`, score descending.
    pub neighbors: Vec<(u64, f32)>,
}

/// One job's queries resolved against the pinned view: `(vector, row to
/// exclude from its own neighbor list)` per query.
type ResolvedJob<'a> = Vec<(&'a [f32], Option<u32>)>;

/// An unseen node to encode: attributes (sparse) plus edges into the
/// serving graph, by external node id.
#[derive(Clone, Debug)]
pub struct UnseenNode {
    /// Sparse attribute indices (must be < the graph's attribute dim).
    pub attr_indices: Vec<u32>,
    /// Attribute values, parallel to `attr_indices`.
    pub attr_values: Vec<f32>,
    /// Existing nodes this node links to (external ids; at least one).
    pub edges: Vec<u64>,
}

/// Everything inductive encoding needs: the trained model, its
/// architecture config, and the graph the server walks for contexts.
pub struct InductiveContext {
    /// Trained CoANE model (filter bank + decoder).
    pub model: CoaneModel,
    /// The architecture configuration the model was trained with.
    pub config: CoaneConfig,
    /// The serving graph; unseen nodes attach to it by edges.
    pub graph: AttributedGraph,
}

/// How one upserted node's vector is produced.
#[derive(Clone, Debug)]
pub enum UpsertSource {
    /// A caller-supplied embedding-space vector (store dimension).
    Vector(Vec<f32>),
    /// An attributed node encoded through the inductive path; the
    /// *resulting* vector is what gets logged and stored.
    Node(UnseenNode),
}

/// One node of an upsert batch.
#[derive(Clone, Debug)]
pub struct UpsertItem {
    /// External node id to insert, overwrite, or revive.
    pub id: u64,
    /// Where its vector comes from.
    pub source: UpsertSource,
}

/// Acknowledgement of an applied (and durably logged) mutation batch.
#[derive(Clone, Copy, Debug)]
pub struct MutationAck {
    /// Operations applied (the whole batch, or none on error).
    pub applied: usize,
    /// Stamp of the resulting view.
    pub stamp: ViewStamp,
}

/// Priority class of a request for admission control: each class saturates
/// at its own fraction of `queue_cap` under [`QueryEngine::try_admit`], so
/// cheap high-priority retrieval keeps slots that expensive low-priority
/// work cannot occupy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// kNN retrieval — highest priority, may fill the whole queue.
    Knn,
    /// Link scoring — sheds once the queue is 3/4 full.
    Links,
    /// Inductive encoding (walk sampling + a model forward per request) —
    /// lowest priority, sheds once the queue is half full.
    Encode,
    /// Upserts and deletes — shed once the queue is half full, like
    /// encoding, so a write flood cannot starve kNN reads.
    Mutate,
}

impl QueryClass {
    /// Admission threshold for this class given the queue capacity.
    fn threshold(self, cap: usize) -> usize {
        match self {
            Self::Knn => cap,
            Self::Links => (cap * 3 / 4).max(1),
            Self::Encode | Self::Mutate => (cap / 2).max(1),
        }
    }

    /// The per-class batches counter bumped at admission.
    fn batches_counter(self) -> &'static str {
        match self {
            Self::Knn => "serve/knn/batches",
            Self::Links => "serve/links/batches",
            Self::Encode => "serve/encode/batches",
            Self::Mutate => "serve/mut/batches",
        }
    }

    /// Lowercase class name for error messages.
    fn name(self) -> &'static str {
        match self {
            Self::Knn => "knn",
            Self::Links => "links",
            Self::Encode => "encode",
            Self::Mutate => "mutate",
        }
    }
}

/// Counting admission gate with blocking and non-blocking entry (see
/// module docs).
struct Gate {
    state: Mutex<usize>,
    freed: Condvar,
    cap: usize,
}

impl Gate {
    fn new(cap: usize) -> Self {
        Self { state: Mutex::new(0), freed: Condvar::new(), cap: cap.max(1) }
    }

    /// Blocks until a slot frees, then returns the depth *after* admission.
    fn acquire(&self) -> usize {
        let mut depth = self.state.lock().unwrap();
        while *depth >= self.cap {
            depth = self.freed.wait(depth).unwrap();
        }
        *depth += 1;
        *depth
    }

    /// Admits iff the current depth is below `threshold` (clamped to the
    /// gate capacity): `Ok(depth after admission)` or `Err(depth now)`.
    fn try_acquire(&self, threshold: usize) -> Result<usize, usize> {
        let mut depth = self.state.lock().unwrap();
        if *depth >= threshold.min(self.cap) {
            return Err(*depth);
        }
        *depth += 1;
        Ok(*depth)
    }

    fn release(&self) {
        let mut depth = self.state.lock().unwrap();
        *depth -= 1;
        self.freed.notify_one();
    }
}

/// RAII admission permit: holds one queue slot until dropped. The HTTP
/// layer holds its permit across the micro-batcher round trip, so a
/// request occupies its slot from admission until its response is built.
pub struct Permit<'a>(&'a Gate);

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit").finish()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// The serving query engine. Cheap to share behind an `Arc`; all methods
/// take `&self` and are safe to call from many threads at once.
pub struct QueryEngine {
    views: GenerationManager,
    inductive: Option<InductiveContext>,
    /// Boot-time map from external id to serving-graph row. The graph
    /// never mutates (upserted nodes join the *store*, not the walk
    /// graph), so inductive edge endpoints resolve against the seed ids
    /// regardless of how the store has changed since.
    graph_rows: HashMap<u64, u32>,
    limits: EngineLimits,
    gate: Gate,
    obs: Obs,
}

impl QueryEngine {
    /// Assembles a read-only engine (single frozen generation). `inductive`
    /// enables [`QueryEngine::encode_unseen`]; without it the engine serves
    /// kNN and link scoring only.
    pub fn new(
        store: EmbeddingStore,
        index: HnswIndex,
        inductive: Option<InductiveContext>,
        limits: EngineLimits,
        obs: Obs,
    ) -> CoaneResult<Self> {
        let graph_rows = Self::check_inductive(&inductive, &store)?;
        let views = GenerationManager::new_static(store, index, obs.clone());
        Ok(Self { views, inductive, graph_rows, limits, gate: Gate::new(limits.queue_cap), obs })
    }

    /// Assembles a mutable engine over a generation directory: on first
    /// boot the seed store/index become generation 0; otherwise the
    /// directory's current generation is recovered (replaying its mutation
    /// log, falling back one generation when the current is damaged) and
    /// the seed state is ignored. The returned report says what happened.
    pub fn new_mutable(
        store: EmbeddingStore,
        index: HnswIndex,
        inductive: Option<InductiveContext>,
        limits: EngineLimits,
        obs: Obs,
        mutation: MutationConfig,
    ) -> CoaneResult<(Self, RecoveryReport)> {
        let graph_rows = Self::check_inductive(&inductive, &store)?;
        let (views, report) = GenerationManager::open(store, index, mutation, obs.clone())?;
        let engine =
            Self { views, inductive, graph_rows, limits, gate: Gate::new(limits.queue_cap), obs };
        Ok((engine, report))
    }

    /// Validates the inductive context against the *seed* store and builds
    /// the boot-time id → graph-row map.
    fn check_inductive(
        inductive: &Option<InductiveContext>,
        store: &EmbeddingStore,
    ) -> CoaneResult<HashMap<u64, u32>> {
        let Some(ctx) = inductive else { return Ok(HashMap::new()) };
        if ctx.graph.num_nodes() != store.len() {
            return Err(CoaneError::config(format!(
                "serving graph has {} nodes but the store holds {} vectors",
                ctx.graph.num_nodes(),
                store.len()
            )));
        }
        Ok(store.ids().iter().enumerate().map(|(row, &id)| (id, row as u32)).collect())
    }

    /// The current generation view (pinned: later mutations don't affect
    /// it). Every multi-query entry point pins exactly one.
    pub fn view(&self) -> Arc<GenerationView> {
        self.views.current()
    }

    /// The embedding store of the current view.
    pub fn store(&self) -> Arc<EmbeddingStore> {
        Arc::clone(self.views.current().store())
    }

    /// The ANN index of the current view.
    pub fn index(&self) -> Arc<HnswIndex> {
        Arc::clone(self.views.current().index())
    }

    /// Whether inductive encoding is available.
    pub fn can_encode(&self) -> bool {
        self.inductive.is_some()
    }

    /// Whether this engine accepts upserts and deletes.
    pub fn is_mutable(&self) -> bool {
        self.views.is_mutable()
    }

    /// Generation / tombstone / log summary for `/stats` and `/healthz`.
    pub fn mutation_stats(&self) -> MutationStats {
        self.views.stats()
    }

    /// Blocks until the background compactor has nothing runnable — test
    /// and shutdown helper.
    pub fn wait_compactions(&self) {
        self.views.wait_idle();
    }

    /// The batch/queue bounds this engine admits under.
    pub fn limits(&self) -> EngineLimits {
        self.limits
    }

    /// The telemetry handle (shared with the HTTP layer for /stats).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Batch-size precheck shared by both admission styles.
    fn check_batch(&self, n_queries: usize) -> CoaneResult<()> {
        if n_queries > self.limits.max_batch {
            return Err(CoaneError::config(format!(
                "batch of {n_queries} exceeds max_batch {} — split the request",
                self.limits.max_batch
            )));
        }
        Ok(())
    }

    /// Blocking admission: waits while `queue_cap` batches are in flight,
    /// records the post-admission depth on the `serve/queue_depth` gauge.
    fn admit(&self, n_queries: usize, class: QueryClass) -> CoaneResult<Permit<'_>> {
        self.check_batch(n_queries)?;
        let depth = self.gate.acquire();
        self.obs.gauge("serve/queue_depth", depth as f64);
        self.obs.add(class.batches_counter(), 1);
        Ok(Permit(&self.gate))
    }

    /// Load-shedding admission: never blocks. Sheds with a typed
    /// [`CoaneError::Busy`] when the queue depth has reached the class's
    /// priority threshold (see [`QueryClass`]); a shed bumps the
    /// `serve/shed` counter. On success the returned [`Permit`] holds one
    /// queue slot until dropped — callers pairing this with
    /// [`QueryEngine::knn_multi`] / [`QueryEngine::score_links_multi`] keep
    /// the permit alive across the execution round trip.
    pub fn try_admit(&self, n_queries: usize, class: QueryClass) -> CoaneResult<Permit<'_>> {
        self.check_batch(n_queries)?;
        match self.gate.try_acquire(class.threshold(self.limits.queue_cap)) {
            Ok(depth) => {
                self.obs.gauge("serve/queue_depth", depth as f64);
                self.obs.add(class.batches_counter(), 1);
                Ok(Permit(&self.gate))
            }
            Err(depth) => {
                self.obs.add("serve/shed", 1);
                Err(CoaneError::busy(
                    format!(
                        "admission queue saturated for class {} (depth {depth} of {})",
                        class.name(),
                        self.limits.queue_cap
                    ),
                    1,
                ))
            }
        }
    }

    /// Batch kNN. Answers come back in query order; each is the `k` most
    /// similar stored nodes as `(external id, score)`, score descending,
    /// ties broken by row index. Id queries exclude themselves; tombstoned
    /// rows are filtered.
    pub fn knn(&self, queries: &[KnnTarget], params: KnnParams) -> CoaneResult<Vec<KnnAnswer>> {
        let _permit = self.admit(queries.len(), QueryClass::Knn)?;
        self.knn_multi(&[queries], params).0.pop().expect("one job in, one answer out")
    }

    /// Validates batch-wide kNN parameters; the message applies to every
    /// job in a coalesced group identically.
    fn knn_params_error(&self, params: KnnParams) -> Option<String> {
        if params.k == 0 {
            return Some("k must be positive".to_string());
        }
        if !params.exact && params.scorer != self.views.scorer() {
            return Some(format!(
                "index was built for scorer {:?}; request exact=true to rank by {:?}",
                self.views.scorer().name(),
                params.scorer.name()
            ));
        }
        None
    }

    /// Resolves one job's queries to (vector, excluded row) pairs against
    /// the pinned view; the first bad query fails the job. Tombstoned ids
    /// read as unknown.
    fn resolve_knn_job<'a>(
        view: &'a GenerationView,
        queries: &'a [KnnTarget],
    ) -> CoaneResult<ResolvedJob<'a>> {
        let store = view.store();
        let mut resolved = Vec::with_capacity(queries.len());
        for (qi, q) in queries.iter().enumerate() {
            match q {
                KnnTarget::Id(id) => {
                    let row = view.resolve_live(*id).ok_or_else(|| {
                        CoaneError::config(format!("unknown node id {id} in knn query"))
                    })?;
                    resolved.push((store.row(row as usize), Some(row)));
                }
                KnnTarget::Vector(v) => {
                    if v.len() != store.dim() {
                        return Err(CoaneError::config(format!(
                            "query vector has dim {} but the store holds dim {}",
                            v.len(),
                            store.dim()
                        )));
                    }
                    if let Some(i) = v.iter().position(|x| !x.is_finite()) {
                        return Err(CoaneError::config(format!(
                            "knn query {qi}: vector element {i} is not finite ({})",
                            v[i]
                        )));
                    }
                    resolved.push((v.as_slice(), None));
                }
            }
        }
        Ok(resolved)
    }

    /// Coalesced kNN: executes several jobs (request bodies) sharing one
    /// [`KnnParams`] in a single kernel pass against one pinned view and
    /// demultiplexes per-job answers, returning that view's stamp alongside.
    /// Errors isolate per job — an unknown id or bad dimension fails only
    /// the job that sent it, and the remaining jobs' answers are
    /// bit-identical to running each alone (see module docs). Does **not**
    /// admit: callers hold a permit per job ([`QueryEngine::try_admit`]) or
    /// come through [`QueryEngine::knn`].
    pub fn knn_multi(
        &self,
        jobs: &[&[KnnTarget]],
        params: KnnParams,
    ) -> (Vec<CoaneResult<Vec<KnnAnswer>>>, ViewStamp) {
        let view = self.views.current();
        let stamp = view.stamp();
        (self.knn_multi_on(&view, jobs, params), stamp)
    }

    fn knn_multi_on(
        &self,
        view: &GenerationView,
        jobs: &[&[KnnTarget]],
        params: KnnParams,
    ) -> Vec<CoaneResult<Vec<KnnAnswer>>> {
        let _scope = self.obs.scope("serve/knn");
        let total: u64 = jobs.iter().map(|j| j.len() as u64).sum();
        self.obs.add("serve/knn/requests", total);
        if jobs.len() > 1 {
            self.obs.add("serve/knn/coalesced", jobs.len() as u64);
        }
        if let Some(msg) = self.knn_params_error(params) {
            return jobs.iter().map(|_| Err(CoaneError::config(msg.clone()))).collect();
        }
        let store = view.store();
        // Per-job resolution; invalid jobs drop out of the kernel pass.
        let resolved: Vec<CoaneResult<ResolvedJob>> =
            jobs.iter().map(|job| Self::resolve_knn_job(view, job)).collect();
        let flat: Vec<(&[f32], Option<u32>)> =
            resolved.iter().flatten().flatten().copied().collect();
        // One kernel pass over every valid job's queries, with a uniform
        // over-ask of `k + 1 + tombstones` (the extras cover self-exclusion
        // plus worst-case tombstone filtering; taking a prefix of the
        // strict total order is exclusion-count invariant). Exact goes
        // through the pre-transposed matmul; approximate keeps per-query
        // HNSW searches — each is a pure function of (graph, query), so
        // result bytes are batch-invariant either way.
        //
        // On a quantized store the candidate pass runs under quantized
        // scores, so it over-fetches by `rerank_factor` and the rerank
        // below restores exact f32 ordering before the top-`k` cut.
        let quantized = store.precision() != Precision::F32;
        let fetch = if quantized { params.k * self.limits.rerank_factor.max(1) } else { params.k };
        let want = fetch + 1 + view.tombstones();
        let mut hits: Vec<Vec<Hit>> = if params.exact {
            let refs: Vec<&[f32]> = flat.iter().map(|&(v, _)| v).collect();
            view.exact().knn(store, &refs, want, params.scorer)
        } else {
            pool::parallel_map(flat.len(), |i| {
                let (vec, _) = flat[i];
                view.index().knn(store, vec, want)
            })
        };
        if quantized {
            // Exact-f32 rerank: rescore every candidate against the f32
            // sidecar with the sequential `Scorer::score` (the recall
            // ground truth's arithmetic) and re-sort under the strict
            // (−score, row) total order. Each rescore is a pure function
            // of its (query, row) pair, so answers stay bit-identical at
            // any thread count and ISA level — and quantization error can
            // only cost candidate *membership*, never final score bytes.
            self.obs.add("serve/knn/reranked", hits.iter().map(|h| h.len() as u64).sum());
            for (i, list) in hits.iter_mut().enumerate() {
                let (q, _) = flat[i];
                for h in list.iter_mut() {
                    h.score = params.scorer.score(q, store.row(h.index as usize));
                }
                list.sort_unstable_by(|a, b| {
                    (-a.score).total_cmp(&(-b.score)).then(a.index.cmp(&b.index))
                });
            }
        }
        // Demultiplex in job order, filtering tombstones and self-hits.
        let mut cursor = hits.into_iter();
        resolved
            .into_iter()
            .map(|job| {
                job.map(|queries| {
                    queries
                        .into_iter()
                        .map(|(_, exclude)| {
                            let neighbors: Vec<(u64, f32)> = cursor
                                .next()
                                .expect("one hit list per resolved query")
                                .into_iter()
                                .filter(|h| {
                                    Some(h.index) != exclude && !view.is_dead(h.index as usize)
                                })
                                .take(params.k)
                                .map(|h| (store.id_of(h.index as usize), h.score))
                                .collect();
                            KnnAnswer { neighbors }
                        })
                        .collect()
                })
            })
            .collect()
    }

    /// Batch link scoring: the similarity of each `(u, v)` id pair under
    /// `scorer`, in pair order. Shares [`coane_eval::linkpred::edge_scores`]
    /// with the offline evaluation, so online and offline scores for the
    /// same embedding are bit-identical.
    pub fn score_links(&self, pairs: &[(u64, u64)], scorer: Scorer) -> CoaneResult<Vec<f64>> {
        let _permit = self.admit(pairs.len(), QueryClass::Links)?;
        self.score_links_multi(&[pairs], scorer).pop().expect("one job in, one answer out")
    }

    /// Coalesced link scoring: several jobs scored in one
    /// [`coane_eval::linkpred::edge_scores`] pass against one pinned view
    /// (per-pair scores are pure functions of the pair, so concatenation is
    /// score-invariant), with per-job error isolation. Does **not** admit —
    /// see [`QueryEngine::knn_multi`].
    pub fn score_links_multi(
        &self,
        jobs: &[&[(u64, u64)]],
        scorer: Scorer,
    ) -> Vec<CoaneResult<Vec<f64>>> {
        let _scope = self.obs.scope("serve/links");
        let total: u64 = jobs.iter().map(|j| j.len() as u64).sum();
        self.obs.add("serve/links/requests", total);
        if jobs.len() > 1 {
            self.obs.add("serve/links/coalesced", jobs.len() as u64);
        }
        let view = self.views.current();
        let resolved: Vec<CoaneResult<Vec<(u32, u32)>>> = jobs
            .iter()
            .map(|job| {
                job.iter()
                    .map(|&(u, v)| {
                        let ru = view
                            .resolve_live(u)
                            .ok_or_else(|| CoaneError::config(format!("unknown node id {u}")))?;
                        let rv = view
                            .resolve_live(v)
                            .ok_or_else(|| CoaneError::config(format!("unknown node id {v}")))?;
                        Ok((ru, rv))
                    })
                    .collect()
            })
            .collect();
        let flat: Vec<(u32, u32)> = resolved.iter().flatten().flatten().copied().collect();
        let store = view.store();
        let scores = coane_eval::edge_scores(store.vectors(), store.dim(), &flat, scorer);
        let mut cursor = scores.into_iter();
        resolved
            .into_iter()
            .map(|job| {
                job.map(|rows| (0..rows.len()).map(|_| cursor.next().expect("score")).collect())
            })
            .collect()
    }

    /// Encodes unseen attributed nodes: each request node is appended to
    /// the serving graph with its edges, fresh walks are sampled, and the
    /// trained encoder embeds it (no-grad forward, bit-identical at any
    /// thread count). Answers in request order.
    pub fn encode_unseen(&self, nodes: &[UnseenNode]) -> CoaneResult<Vec<Vec<f32>>> {
        let _permit = self.admit(nodes.len(), QueryClass::Encode)?;
        self.encode_unseen_admitted(nodes)
    }

    /// [`QueryEngine::encode_unseen`] minus admission, for callers already
    /// holding a [`Permit`] (the HTTP layer's try-admit path).
    pub fn encode_unseen_admitted(&self, nodes: &[UnseenNode]) -> CoaneResult<Vec<Vec<f32>>> {
        let _scope = self.obs.scope("serve/encode");
        self.obs.add("serve/encode/requests", nodes.len() as u64);
        self.encode_nodes(nodes)
    }

    /// The encode kernel, shared by the encode route and attributed
    /// upserts: no admission, no encode-route telemetry.
    fn encode_nodes(&self, nodes: &[UnseenNode]) -> CoaneResult<Vec<Vec<f32>>> {
        let ctx = self.inductive.as_ref().ok_or_else(|| {
            CoaneError::config(
                "this server has no model loaded; restart with --model/--graph to enable encoding",
            )
        })?;
        if nodes.is_empty() {
            return Ok(Vec::new());
        }
        let base = &ctx.graph;
        let n = base.num_nodes();
        let attr_dim = base.attr_dim();
        for (k, node) in nodes.iter().enumerate() {
            if node.edges.is_empty() {
                return Err(CoaneError::config(format!(
                    "unseen node {k} has no edges; contexts need at least one link"
                )));
            }
            if node.attr_indices.len() != node.attr_values.len() {
                return Err(CoaneError::config(format!(
                    "unseen node {k}: {} attribute indices vs {} values",
                    node.attr_indices.len(),
                    node.attr_values.len()
                )));
            }
            if let Some(&bad) = node.attr_indices.iter().find(|&&i| i as usize >= attr_dim) {
                return Err(CoaneError::config(format!(
                    "unseen node {k}: attribute index {bad} out of range (dim {attr_dim})"
                )));
            }
            if let Some(i) = node.attr_values.iter().position(|x| !x.is_finite()) {
                return Err(CoaneError::config(format!(
                    "unseen node {k}: attribute value {i} is not finite ({})",
                    node.attr_values[i]
                )));
            }
        }
        // Extend the serving graph with every request node at once: base
        // edges + request edges, base attribute rows + request rows. Edge
        // endpoints resolve against the boot-time graph ids — the walk
        // graph is fixed; upserted store rows are not walkable.
        let mut b = GraphBuilder::new(n + nodes.len(), attr_dim);
        for (u, v, w) in base.edges() {
            b.add_edge(u, v, w);
        }
        let mut rows: Vec<Vec<(u32, f32)>> = (0..n as u32)
            .map(|v| {
                let (idx, val) = base.attrs().row(v);
                idx.iter().copied().zip(val.iter().copied()).collect()
            })
            .collect();
        for (k, node) in nodes.iter().enumerate() {
            let new_id = (n + k) as u32;
            for &e in &node.edges {
                let row =
                    self.graph_rows.get(&e).copied().ok_or_else(|| {
                        CoaneError::config(format!("unknown edge endpoint id {e}"))
                    })?;
                b.add_edge(new_id, row, 1.0);
            }
            rows.push(
                node.attr_indices.iter().copied().zip(node.attr_values.iter().copied()).collect(),
            );
        }
        let extended = b.with_attrs(NodeAttributes::from_sparse_rows(attr_dim, &rows)).build();
        let new_ids: Vec<u32> = (0..nodes.len()).map(|k| (n + k) as u32).collect();
        let z = embed_nodes_obs(&ctx.model, &ctx.config, &extended, &new_ids, &self.obs);
        Ok((0..z.rows()).map(|r| z.row(r).to_vec()).collect())
    }

    /// Upserts a batch of nodes: raw vectors go straight to the log,
    /// attributed nodes are encoded through the inductive path first (the
    /// resulting vector is logged, so replay never needs the model). The
    /// batch is atomic and durable once this returns. New ids append store
    /// rows, known ids overwrite in place, tombstoned ids are revived.
    pub fn upsert(&self, items: &[UpsertItem]) -> CoaneResult<MutationAck> {
        let _permit = self.admit(items.len(), QueryClass::Mutate)?;
        self.upsert_admitted(items)
    }

    /// [`QueryEngine::upsert`] minus admission, for callers already holding
    /// a [`Permit`].
    pub fn upsert_admitted(&self, items: &[UpsertItem]) -> CoaneResult<MutationAck> {
        // Encode attributed items first, outside the writer lock — encoding
        // is the expensive part and must not serialize behind it.
        let attributed: Vec<UnseenNode> = items
            .iter()
            .filter_map(|it| match &it.source {
                UpsertSource::Node(node) => Some(node.clone()),
                UpsertSource::Vector(_) => None,
            })
            .collect();
        let encoded = if attributed.is_empty() {
            Vec::new() // vector-only batches work without a loaded model
        } else {
            self.encode_nodes(&attributed)?
        };
        let mut encoded = encoded.into_iter();
        let ops: Vec<MutOp> = items
            .iter()
            .map(|it| {
                let vector = match &it.source {
                    UpsertSource::Vector(v) => v.clone(),
                    UpsertSource::Node(_) => encoded.next().expect("one vector per encoded node"),
                };
                MutOp::Upsert { id: it.id, vector }
            })
            .collect();
        let stamp = self.views.mutate(ops)?;
        self.obs.add("serve/mut/upserts", items.len() as u64);
        Ok(MutationAck { applied: items.len(), stamp })
    }

    /// Tombstones a batch of live ids: they vanish from kNN and link
    /// scoring immediately and their rows are reclaimed at the next
    /// compaction. Atomic and durable once this returns. Deleting an
    /// unknown (or already-deleted) id fails the batch, as does emptying
    /// the store.
    pub fn delete(&self, ids: &[u64]) -> CoaneResult<MutationAck> {
        let _permit = self.admit(ids.len(), QueryClass::Mutate)?;
        self.delete_admitted(ids)
    }

    /// [`QueryEngine::delete`] minus admission, for callers already holding
    /// a [`Permit`].
    pub fn delete_admitted(&self, ids: &[u64]) -> CoaneResult<MutationAck> {
        let ops: Vec<MutOp> = ids.iter().map(|&id| MutOp::Delete { id }).collect();
        let stamp = self.views.mutate(ops)?;
        self.obs.add("serve/mut/deletes", ids.len() as u64);
        Ok(MutationAck { applied: ids.len(), stamp })
    }
}
