//! Crash-safe generations: the mutable state layer between the query
//! engine and the on-disk [`EmbeddingStore`].
//!
//! ## Shape
//!
//! Readers see an immutable [`GenerationView`] — store + HNSW index +
//! pre-transposed exact index + tombstone mask — behind an
//! `RwLock<Arc<…>>`. Every query pins one view for its whole pass, so
//! `/knn` never blocks on mutations or compaction; a mutation batch builds
//! the *successor* view off to the side and swaps the `Arc` (the write
//! lock is held only for the pointer swap).
//!
//! Mutations are serialized by a writer lock and follow WAL-then-apply:
//! encode → append + fsync to the generation's mutation log
//! ([`crate::mutlog`]) → apply to a cloned view → swap. An acknowledged
//! mutation is therefore durable, and the in-memory state is always
//! `apply(build(base store), logged records)` — the same expression
//! recovery evaluates, which is what makes kill−9 at any instant
//! recoverable to exactly the acknowledged prefix.
//!
//! ## Generation lifecycle (delta → compact → swap → drain)
//!
//! Generation `G` on disk is `gen-G.store` (a normal CRC-checked store
//! file) plus `gen-G.wal` (its delta). When the delta reaches
//! `compact_every` records, a background thread folds the **first**
//! `compact_every` records into the next base — the cut is count-based, so
//! `gen-(G+1).store` is a pure function of `(gen-G.store, log prefix)` and
//! an interrupted compaction re-produces identical bytes after restart.
//! Tombstoned rows are dropped (reclaimed) at this fold. The swap step
//! then, under the writer lock: writes `gen-(G+1).wal` carrying the
//! records past the cut, atomically updates the `CURRENT` marker, rebuilds
//! the live view from the new base + carried tail, and swaps it in.
//! Generation `G` is retained as the fallback until `G+1` in turn retires
//! it (drain), so at most three generations of files ever exist.
//!
//! ## Recovery
//!
//! Boot reads `CURRENT` → generation `G` and loads `gen-G.store` +
//! replayed `gen-G.wal`. A damaged log *tail* is truncated to the valid
//! prefix (crash mid-append loses only the unacknowledged suffix). A
//! damaged store or log *header* fails the whole generation: recovery
//! falls back to generation `G-1`, whose log still carries every record of
//! the interrupted fold window — the next compaction then regenerates the
//! `G` files byte-identically. Only when no generation loads does boot
//! fail, with a typed [`CoaneError::MutLog`] (exit code 10).
//!
//! ## Determinism contract
//!
//! Everything above is deterministic at any thread count and any batch
//! split: record sequence numbers are dense, the live index grows through
//! one-row-at-a-time [`HnswIndex::extend`] (batch-split invariant), a
//! compacted base index is always `HnswIndex::build` over the compacted
//! store, and the compaction cut depends only on the record count. Replays
//! of the same acknowledged mutation stream — live, after restart, or on a
//! fresh server — converge on bit-identical stores, adjacency, and
//! answers.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

use coane_error::{CoaneError, CoaneResult};
use coane_nn::{Precision, Scorer};
use coane_obs::Obs;

use crate::hnsw::{ExactIndex, HnswConfig, HnswIndex};
use crate::mutlog::{MutLog, MutOp, MutRecord};
use crate::store::{atomic_write_bytes, EmbeddingStore};

/// Identifies the store state a response was computed against: which
/// generation served it and the last mutation sequence number applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewStamp {
    /// Generation number of the view's base store.
    pub generation: u64,
    /// Last applied mutation sequence number (0 = pristine seed).
    pub seq: u64,
}

/// Configuration of the mutable path.
#[derive(Clone, Debug)]
pub struct MutationConfig {
    /// Directory holding generation stores, mutation logs, and `CURRENT`.
    pub dir: PathBuf,
    /// Fold the delta into the next generation once this many records are
    /// pending.
    pub compact_every: usize,
}

/// Everything loaded during a mutable boot, for operator logging.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Generation the server came up on.
    pub generation: u64,
    /// Last applied sequence number after log replay.
    pub seq: u64,
    /// Records replayed from the generation's mutation log.
    pub replayed: usize,
    /// Whether boot fell back from a damaged newer generation.
    pub fell_back: bool,
    /// Typed-error strings for everything skipped or truncated on the way.
    pub notes: Vec<String>,
}

/// An immutable snapshot of the serving state. Queries pin one view and
/// use it for their whole pass; clones share the underlying store/index.
#[derive(Clone)]
pub struct GenerationView {
    generation: u64,
    seq: u64,
    base_rows: usize,
    store: Arc<EmbeddingStore>,
    index: Arc<HnswIndex>,
    exact: Arc<ExactIndex>,
    /// `dead[row]` = tombstoned (filtered from every result until the row
    /// is reclaimed at compaction or revived by an upsert).
    dead: Vec<bool>,
    n_dead: usize,
}

impl std::fmt::Debug for GenerationView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerationView")
            .field("generation", &self.generation)
            .field("seq", &self.seq)
            .field("rows", &self.store.len())
            .field("tombstones", &self.n_dead)
            .finish()
    }
}

impl GenerationView {
    fn from_base(
        generation: u64,
        seq: u64,
        store: Arc<EmbeddingStore>,
        index: Arc<HnswIndex>,
    ) -> Self {
        let n = store.len();
        let exact = Arc::new(ExactIndex::build(&store));
        Self { generation, seq, base_rows: n, store, index, exact, dead: vec![false; n], n_dead: 0 }
    }

    /// Applies `records` in sequence order, producing the successor view.
    /// Pure in `(self, records)`: the appended rows enter the index one at
    /// a time ([`HnswIndex::extend`]), so the result is invariant to how
    /// the record stream was batched. Fails (without side effects) only
    /// when the records contradict the base state — which for CRC-valid
    /// logs means the log does not belong to this store.
    fn apply(&self, records: &[MutRecord]) -> Result<Self, String> {
        if records.is_empty() {
            return Ok(self.clone());
        }
        let mut store = (*self.store).clone();
        let mut index = (*self.index).clone();
        let mut dead = self.dead.clone();
        for r in records {
            match &r.op {
                MutOp::Upsert { id, vector } => {
                    if vector.len() != store.dim() {
                        return Err(format!(
                            "record seq {}: upsert vector has dim {} but the store holds dim {}",
                            r.seq,
                            vector.len(),
                            store.dim()
                        ));
                    }
                    if let Some(row) = store.index_of(*id) {
                        store.set_row(row as usize, vector);
                        dead[row as usize] = false;
                    } else {
                        store.push_row(*id, vector);
                        dead.push(false);
                        index.extend(&store);
                    }
                }
                MutOp::Delete { id } => {
                    let row = store.index_of(*id).ok_or_else(|| {
                        format!("record seq {}: delete of unknown node id {id}", r.seq)
                    })? as usize;
                    if dead[row] {
                        return Err(format!(
                            "record seq {}: delete of already-deleted node id {id}",
                            r.seq
                        ));
                    }
                    dead[row] = true;
                }
            }
        }
        let n_dead = dead.iter().filter(|&&d| d).count();
        if n_dead >= store.len() {
            return Err("mutation stream deletes every row".into());
        }
        let exact = Arc::new(ExactIndex::build(&store));
        let seq = records.last().expect("non-empty").seq;
        Ok(Self {
            generation: self.generation,
            seq,
            base_rows: self.base_rows,
            store: Arc::new(store),
            index: Arc::new(index),
            exact,
            dead,
            n_dead,
        })
    }

    /// The stamp identifying this view.
    pub fn stamp(&self) -> ViewStamp {
        ViewStamp { generation: self.generation, seq: self.seq }
    }

    /// The view's store (base rows followed by delta-appended rows).
    pub fn store(&self) -> &Arc<EmbeddingStore> {
        &self.store
    }

    /// The view's ANN index (covers every store row, including tombstoned
    /// ones — filtering happens at answer demux).
    pub fn index(&self) -> &Arc<HnswIndex> {
        &self.index
    }

    /// The view's pre-transposed exact index.
    pub fn exact(&self) -> &Arc<ExactIndex> {
        &self.exact
    }

    /// Whether `row` is tombstoned.
    #[inline]
    pub fn is_dead(&self, row: usize) -> bool {
        self.dead[row]
    }

    /// Row index of a **live** external id (tombstoned ids read as absent).
    pub fn resolve_live(&self, id: u64) -> Option<u32> {
        self.store.index_of(id).filter(|&r| !self.dead[r as usize])
    }

    /// Number of tombstoned rows.
    pub fn tombstones(&self) -> usize {
        self.n_dead
    }

    /// Number of live (non-tombstoned) rows.
    pub fn live_rows(&self) -> usize {
        self.store.len() - self.n_dead
    }

    /// Rows in the generation's base store (delta rows follow them).
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }
}

/// A point-in-time summary of the mutation subsystem for `/stats`.
#[derive(Clone, Copy, Debug)]
pub struct MutationStats {
    /// Whether this server accepts mutations.
    pub mutable: bool,
    /// Current generation number.
    pub generation: u64,
    /// Last applied mutation sequence number.
    pub seq: u64,
    /// Rows in the generation's base store.
    pub base_rows: usize,
    /// Live (queryable) rows.
    pub live_rows: usize,
    /// Tombstoned rows awaiting reclamation.
    pub tombstones: usize,
    /// Records pending in the current generation's log.
    pub pending: usize,
    /// Mutation-log size in bytes (header + records).
    pub wal_bytes: u64,
    /// Compaction threshold (0 on a read-only server).
    pub compact_every: usize,
    /// Precision of the scoring table the ANN path reads.
    pub precision: Precision,
    /// Bytes the ANN scoring path streams per full scan (codes +
    /// quantization parameters; the f32 sidecar is not counted).
    pub store_bytes: usize,
}

struct WriterState {
    /// `None` on a read-only (static) manager.
    wal: Option<MutLog>,
    /// Records since the current base, in sequence order (= log contents).
    records: Vec<MutRecord>,
    /// The current generation's base store.
    base: Arc<EmbeddingStore>,
    base_seq: u64,
    next_seq: u64,
    generation: u64,
    /// A compaction round is between cut and swap.
    compacting: bool,
    /// The last compaction attempt failed; cleared when the next starts.
    stalled: bool,
}

struct Inner {
    view: RwLock<Arc<GenerationView>>,
    writer: Mutex<WriterState>,
    /// Signalled (with the writer lock) whenever compaction state settles.
    idle: Condvar,
    config: Option<MutationConfig>,
    scorer: Scorer,
    hnsw: HnswConfig,
    obs: Obs,
}

/// Owner of the generation lifecycle: hands out views, serializes
/// mutations, and runs the background compactor. Dropping it stops and
/// joins the compactor (pending folds finish first).
pub struct GenerationManager {
    inner: Arc<Inner>,
    trigger: Option<SyncSender<()>>,
    compactor: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for GenerationManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenerationManager").field("mutable", &self.is_mutable()).finish()
    }
}

fn store_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("gen-{generation}.store"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("gen-{generation}.wal"))
}

impl GenerationManager {
    /// A frozen single-generation manager: every view is the seed state and
    /// [`GenerationManager::mutate`] reports the server read-only.
    pub fn new_static(store: EmbeddingStore, index: HnswIndex, obs: Obs) -> Self {
        let scorer = index.scorer();
        let hnsw = index.config().clone();
        let view = GenerationView::from_base(0, 0, Arc::new(store), Arc::new(index));
        let base = Arc::clone(&view.store);
        let inner = Arc::new(Inner {
            view: RwLock::new(Arc::new(view)),
            writer: Mutex::new(WriterState {
                wal: None,
                records: Vec::new(),
                base,
                base_seq: 0,
                next_seq: 1,
                generation: 0,
                compacting: false,
                stalled: false,
            }),
            idle: Condvar::new(),
            config: None,
            scorer,
            hnsw,
            obs,
        });
        Self { inner, trigger: None, compactor: None }
    }

    /// Opens (or initializes) a mutable generation directory. On first boot
    /// the seed store/index become generation 0; otherwise the directory's
    /// `CURRENT` generation is recovered — replaying its mutation log, and
    /// falling back to the previous generation when the current one is
    /// damaged — and the seed state is ignored. Spawns the compactor.
    pub fn open(
        seed_store: EmbeddingStore,
        seed_index: HnswIndex,
        config: MutationConfig,
        obs: Obs,
    ) -> CoaneResult<(Self, RecoveryReport)> {
        if config.compact_every == 0 {
            return Err(CoaneError::config("compact-every must be positive"));
        }
        let scorer = seed_index.scorer();
        let hnsw = seed_index.config().clone();
        std::fs::create_dir_all(&config.dir).map_err(|e| CoaneError::io(&config.dir, e))?;
        let current_path = config.dir.join("CURRENT");

        let (view, writer, report) = if current_path.exists() {
            Self::recover(&config, &current_path, scorer, &hnsw, &obs)?
        } else {
            // First boot: the seed becomes generation 0.
            seed_store.save(&store_path(&config.dir, 0))?;
            let wal = MutLog::create(&wal_path(&config.dir, 0), 0, 0, &[])?;
            atomic_write_bytes(&current_path, b"0\n")?;
            let view = GenerationView::from_base(0, 0, Arc::new(seed_store), Arc::new(seed_index));
            let base = Arc::clone(&view.store);
            let writer = WriterState {
                wal: Some(wal),
                records: Vec::new(),
                base,
                base_seq: 0,
                next_seq: 1,
                generation: 0,
                compacting: false,
                stalled: false,
            };
            let report = RecoveryReport {
                generation: 0,
                seq: 0,
                replayed: 0,
                fell_back: false,
                notes: Vec::new(),
            };
            (view, writer, report)
        };

        obs.gauge("serve/mut/generation", report.generation as f64);
        obs.gauge("serve/mut/tombstones", view.tombstones() as f64);
        obs.gauge("serve/mut/delta_rows", (view.store.len() - view.base_rows) as f64);
        obs.gauge("serve/mut/wal_bytes", writer.wal.as_ref().map_or(0, MutLog::bytes) as f64);
        if report.replayed > 0 {
            obs.add("serve/mut/replayed", report.replayed as u64);
        }
        if report.fell_back {
            obs.add("serve/mut/fallbacks", 1);
        }

        let pending = writer.records.len();
        let inner = Arc::new(Inner {
            view: RwLock::new(Arc::new(view)),
            writer: Mutex::new(writer),
            idle: Condvar::new(),
            config: Some(config),
            scorer,
            hnsw,
            obs,
        });
        let (tx, rx) = mpsc::sync_channel::<()>(1);
        let worker_inner = Arc::clone(&inner);
        let compactor = std::thread::Builder::new()
            .name("coane-compactor".into())
            .spawn(move || compactor_loop(&worker_inner, &rx))
            .expect("spawn compactor");
        let manager = Self { inner, trigger: Some(tx), compactor: Some(compactor) };
        // A recovered delta may already be over the threshold (this is also
        // the self-heal path after a fallback: re-folding regenerates the
        // damaged generation's files).
        if pending >= manager.compact_every() {
            manager.trigger_compaction();
        }
        Ok((manager, report))
    }

    /// Loads the `CURRENT` generation, falling back once to the previous
    /// one when the current is damaged.
    fn recover(
        config: &MutationConfig,
        current_path: &Path,
        scorer: Scorer,
        hnsw: &HnswConfig,
        obs: &Obs,
    ) -> CoaneResult<(GenerationView, WriterState, RecoveryReport)> {
        let text = std::fs::read_to_string(current_path)
            .map_err(|e| CoaneError::mutlog(current_path, format!("unreadable CURRENT: {e}")))?;
        let current: u64 = text.trim().parse().map_err(|_| {
            CoaneError::mutlog(
                current_path,
                format!("CURRENT does not name a generation: {:?}", text.trim()),
            )
        })?;
        let mut notes = Vec::new();
        let mut attempts = vec![current];
        if current > 0 {
            attempts.push(current - 1);
        }
        for (attempt, generation) in attempts.iter().copied().enumerate() {
            match Self::load_generation(config, generation, scorer, hnsw, obs, &mut notes) {
                Ok((view, writer)) => {
                    let report = RecoveryReport {
                        generation,
                        seq: view.seq,
                        replayed: writer.records.len(),
                        fell_back: attempt > 0,
                        notes,
                    };
                    return Ok((view, writer, report));
                }
                Err(e) => notes.push(format!("generation {generation} unusable: {e}")),
            }
        }
        Err(CoaneError::mutlog(
            &config.dir,
            format!("no usable generation to recover: {}", notes.join("; ")),
        ))
    }

    fn load_generation(
        config: &MutationConfig,
        generation: u64,
        scorer: Scorer,
        hnsw: &HnswConfig,
        obs: &Obs,
        notes: &mut Vec<String>,
    ) -> CoaneResult<(GenerationView, WriterState)> {
        let sp = store_path(&config.dir, generation);
        let wp = wal_path(&config.dir, generation);
        let base = Arc::new(EmbeddingStore::open(&sp)?);
        let (replay, wal) = MutLog::recover(&wp)?;
        if replay.generation != generation {
            return Err(CoaneError::mutlog(
                &wp,
                format!("log header names generation {}, expected {generation}", replay.generation),
            ));
        }
        if let Some(damage) = &replay.damage {
            notes.push(format!(
                "generation {generation}: log tail truncated to {} records ({damage})",
                replay.records.len()
            ));
        }
        // The recovered base index is always `build(store)` — the same
        // expression that produced it at compaction time — so the live
        // index below is identical to an uninterrupted run's.
        let index = {
            let _scope = obs.scope("serve/mut/recover_build");
            Arc::new(HnswIndex::build(&base, scorer, hnsw.clone()))
        };
        let base_view =
            GenerationView::from_base(generation, replay.base_seq, Arc::clone(&base), index);
        let view = base_view
            .apply(&replay.records)
            .map_err(|m| CoaneError::mutlog(&wp, format!("log does not match base store: {m}")))?;
        let next_seq = view.seq + 1;
        let writer = WriterState {
            wal: Some(wal),
            records: replay.records,
            base,
            base_seq: replay.base_seq,
            next_seq,
            generation,
            compacting: false,
            stalled: false,
        };
        Ok((view, writer))
    }

    /// The current view; cheap (one `Arc` clone under a read lock).
    pub fn current(&self) -> Arc<GenerationView> {
        Arc::clone(&self.inner.view.read().unwrap())
    }

    /// Whether this manager accepts mutations.
    pub fn is_mutable(&self) -> bool {
        self.inner.config.is_some()
    }

    /// The scorer every generation's indexes are built under.
    pub fn scorer(&self) -> Scorer {
        self.inner.scorer
    }

    fn compact_every(&self) -> usize {
        self.inner.config.as_ref().map_or(usize::MAX, |c| c.compact_every)
    }

    fn trigger_compaction(&self) {
        if let Some(tx) = &self.trigger {
            let _ = tx.try_send(()); // a queued trigger already covers us
        }
    }

    /// Applies one validated mutation batch: WAL-append + fsync, then view
    /// swap. Batches are atomic (all records or none) and serialized;
    /// readers never block. Returns the stamp of the resulting view.
    pub fn mutate(&self, ops: Vec<MutOp>) -> CoaneResult<ViewStamp> {
        let inner = &self.inner;
        if inner.config.is_none() {
            return Err(CoaneError::config(
                "server is read-only; restart with --mutable to accept upserts and deletes",
            ));
        }
        if ops.is_empty() {
            return Ok(self.current().stamp());
        }
        let mut w = inner.writer.lock().unwrap();
        // The view only changes under the writer lock, so this is the
        // latest state.
        let view = Arc::clone(&inner.view.read().unwrap());
        Self::validate(&view, &ops)?;
        let records: Vec<MutRecord> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| MutRecord { seq: w.next_seq + i as u64, op })
            .collect();
        // Apply first (pure — no side effects on error), then make the
        // records durable, then publish. A crash between append and swap
        // replays the records on restart; they were not yet acknowledged.
        let new_view = {
            let _scope = inner.obs.scope("serve/mut/apply");
            Arc::new(view.apply(&records).map_err(CoaneError::config)?)
        };
        w.wal.as_mut().expect("mutable manager has a log").append(&records)?;
        *inner.view.write().unwrap() = Arc::clone(&new_view);
        w.next_seq += records.len() as u64;
        w.records.extend(records);
        let stamp = new_view.stamp();
        inner.obs.gauge("serve/mut/tombstones", new_view.tombstones() as f64);
        inner.obs.gauge("serve/mut/delta_rows", (new_view.store.len() - new_view.base_rows) as f64);
        inner.obs.gauge("serve/mut/wal_bytes", w.wal.as_ref().map_or(0, MutLog::bytes) as f64);
        let should_compact = !w.compacting && w.records.len() >= self.compact_every();
        drop(w);
        if should_compact {
            self.trigger_compaction();
        }
        Ok(stamp)
    }

    /// Rejects a malformed batch (an upsert vector of the wrong dimension
    /// or with a non-finite element) or one that contradicts the current
    /// state, before anything reaches the log. Simulated sequentially so
    /// every *prefix* of the accepted stream keeps at least one live row —
    /// compaction cuts at arbitrary prefixes.
    fn validate(view: &GenerationView, ops: &[MutOp]) -> CoaneResult<()> {
        let dim = view.store.dim();
        let mut overlay: HashMap<u64, bool> = HashMap::new();
        let mut live = view.live_rows();
        for (i, op) in ops.iter().enumerate() {
            match op {
                MutOp::Upsert { id, vector } => {
                    if vector.len() != dim {
                        return Err(CoaneError::config(format!(
                            "upsert {i} (id {id}): vector has dim {} but the store holds dim {dim}",
                            vector.len()
                        )));
                    }
                    if let Some(j) = vector.iter().position(|x| !x.is_finite()) {
                        return Err(CoaneError::config(format!(
                            "upsert {i} (id {id}): vector element {j} is not finite ({})",
                            vector[j]
                        )));
                    }
                    let was_live = overlay
                        .get(id)
                        .copied()
                        .unwrap_or_else(|| view.resolve_live(*id).is_some());
                    if !was_live {
                        live += 1;
                    }
                    overlay.insert(*id, true);
                }
                MutOp::Delete { id } => {
                    let was_live = overlay
                        .get(id)
                        .copied()
                        .unwrap_or_else(|| view.resolve_live(*id).is_some());
                    if !was_live {
                        return Err(CoaneError::config(format!(
                            "delete {i}: unknown or already-deleted node id {id}"
                        )));
                    }
                    if live == 1 {
                        return Err(CoaneError::config(format!(
                            "delete {i} (id {id}) would empty the store"
                        )));
                    }
                    live -= 1;
                    overlay.insert(*id, false);
                }
            }
        }
        Ok(())
    }

    /// A point-in-time stats snapshot for `/stats` and `/healthz`.
    pub fn stats(&self) -> MutationStats {
        let w = self.inner.writer.lock().unwrap();
        let view = self.current();
        MutationStats {
            mutable: self.is_mutable(),
            generation: view.generation,
            seq: view.seq,
            base_rows: view.base_rows,
            live_rows: view.live_rows(),
            tombstones: view.tombstones(),
            pending: w.records.len(),
            wal_bytes: w.wal.as_ref().map_or(0, MutLog::bytes),
            compact_every: self.inner.config.as_ref().map_or(0, |c| c.compact_every),
            precision: view.store.precision(),
            store_bytes: view.store.store_bytes(),
        }
    }

    /// Blocks until no compaction is running or runnable — the delta is
    /// below the threshold, or the last attempt failed (stalled). Test and
    /// shutdown helper; mutations arriving concurrently can re-arm work.
    pub fn wait_idle(&self) {
        let Some(cfg) = self.inner.config.as_ref() else { return };
        let mut w = self.inner.writer.lock().unwrap();
        while w.compacting || (w.records.len() >= cfg.compact_every && !w.stalled) {
            let (next, _) = self.inner.idle.wait_timeout(w, Duration::from_millis(50)).unwrap();
            w = next;
        }
    }
}

impl Drop for GenerationManager {
    fn drop(&mut self) {
        drop(self.trigger.take()); // compactor's recv() errors out
        if let Some(worker) = self.compactor.take() {
            let _ = worker.join();
        }
    }
}

fn compactor_loop(inner: &Arc<Inner>, rx: &Receiver<()>) {
    while rx.recv().is_ok() {
        loop {
            match compact_once(inner) {
                Ok(true) => continue,
                Ok(false) => break,
                Err(e) => {
                    // Typed error to stderr; the server keeps serving on
                    // the current generation and retries at next trigger.
                    eprintln!("serve: compaction failed ({}): {e}", e.kind());
                    inner.obs.add("serve/mut/compact_errors", 1);
                    let mut w = inner.writer.lock().unwrap();
                    w.compacting = false;
                    w.stalled = true;
                    drop(w);
                    break;
                }
            }
        }
        inner.idle.notify_all();
    }
}

/// One fold: base + first `compact_every` records → next generation.
/// Returns `Ok(false)` when the delta is below the threshold.
fn compact_once(inner: &Arc<Inner>) -> CoaneResult<bool> {
    let cfg = inner.config.as_ref().expect("compactor only runs on mutable managers");
    let (base, window, generation, base_seq) = {
        let mut w = inner.writer.lock().unwrap();
        if w.records.len() < cfg.compact_every {
            return Ok(false);
        }
        w.compacting = true;
        w.stalled = false;
        (Arc::clone(&w.base), w.records[..cfg.compact_every].to_vec(), w.generation, w.base_seq)
    };
    let next = generation + 1;

    // Heavy work without any lock: fold the window into the next base,
    // rebuild its index, and persist the store. All pure functions of
    // (base store, window) — an interrupted fold reproduces these bytes.
    let (new_base, new_index) = {
        let _scope = inner.obs.scope("serve/mut/compact");
        let store = compact_base(&base, &window)
            .map_err(|m| CoaneError::mutlog(wal_path(&cfg.dir, generation), m))?;
        let index = HnswIndex::build(&store, inner.scorer, inner.hnsw.clone());
        store.save(&store_path(&cfg.dir, next))?;
        (Arc::new(store), Arc::new(index))
    };

    // Swap under the writer lock: rotate the log (carrying the tail),
    // flip CURRENT, rebuild the live view from the new base + tail.
    {
        let mut w = inner.writer.lock().unwrap();
        let _scope = inner.obs.scope("serve/mut/swap");
        let tail = w.records[cfg.compact_every..].to_vec();
        let next_base_seq = base_seq + cfg.compact_every as u64;
        let wal = MutLog::create(&wal_path(&cfg.dir, next), next, next_base_seq, &tail)?;
        atomic_write_bytes(&cfg.dir.join("CURRENT"), format!("{next}\n").as_bytes())?;
        let base_view = GenerationView::from_base(
            next,
            next_base_seq,
            Arc::clone(&new_base),
            Arc::clone(&new_index),
        );
        let new_view = base_view.apply(&tail).map_err(|m| {
            CoaneError::mutlog(wal_path(&cfg.dir, next), format!("carried tail rejected: {m}"))
        })?;
        inner.obs.gauge("serve/mut/generation", next as f64);
        inner.obs.gauge("serve/mut/tombstones", new_view.tombstones() as f64);
        inner.obs.gauge("serve/mut/delta_rows", (new_view.store.len() - new_view.base_rows) as f64);
        inner.obs.gauge("serve/mut/wal_bytes", wal.bytes() as f64);
        *inner.view.write().unwrap() = Arc::new(new_view);
        w.wal = Some(wal);
        w.records = tail;
        w.base = new_base;
        w.base_seq = next_base_seq;
        w.generation = next;
        w.compacting = false;
    }
    inner.obs.add("serve/mut/compactions", 1);
    inner.idle.notify_all();

    // Drain: generation `next-1` stays as the recovery fallback; anything
    // older is retired. Removal failures are harmless (retried next fold).
    if next >= 2 {
        let _ = std::fs::remove_file(store_path(&cfg.dir, next - 2));
        let _ = std::fs::remove_file(wal_path(&cfg.dir, next - 2));
    }
    Ok(true)
}

/// Folds `window` into `base` and drops tombstoned rows (row order
/// otherwise preserved): the next generation's base store. A pure function
/// of its inputs — this is what makes an interrupted compaction
/// re-runnable byte-identically.
fn compact_base(base: &EmbeddingStore, window: &[MutRecord]) -> Result<EmbeddingStore, String> {
    let mut store = base.clone();
    let mut dead = vec![false; store.len()];
    for r in window {
        match &r.op {
            MutOp::Upsert { id, vector } => {
                if vector.len() != store.dim() {
                    return Err(format!("record seq {}: upsert dimension mismatch", r.seq));
                }
                if let Some(row) = store.index_of(*id) {
                    store.set_row(row as usize, vector);
                    dead[row as usize] = false;
                } else {
                    store.push_row(*id, vector);
                    dead.push(false);
                }
            }
            MutOp::Delete { id } => {
                let row = store
                    .index_of(*id)
                    .ok_or_else(|| format!("record seq {}: delete of unknown id {id}", r.seq))?;
                dead[row as usize] = true;
            }
        }
    }
    let dim = store.dim();
    let mut ids = Vec::new();
    let mut vectors = Vec::new();
    for (row, &is_dead) in dead.iter().enumerate() {
        if !is_dead {
            ids.push(store.id_of(row));
            vectors.extend_from_slice(store.row(row));
        }
    }
    // Folding re-quantizes the whole table from the exact f32 rows (WAL
    // records are always f32), so the next base's code table is the same
    // pure function of (base rows, window) that a crash-and-replay run
    // would produce — byte-identical self-healing carries over to
    // quantized stores unchanged.
    EmbeddingStore::new(vectors, dim, Some(ids), store.meta().to_string())
        .and_then(|s| s.with_precision(base.precision()))
        .map_err(|e| e.to_string())
}
