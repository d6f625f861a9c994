//! Cross-request micro-batching for the HTTP front-end.
//!
//! Concurrent `/knn` and `/score_links` requests that queue up while a
//! round executes are coalesced into a single engine kernel pass
//! ([`QueryEngine::knn_multi`] / [`QueryEngine::score_links_multi`] — many
//! one-at-a-time dot products become one blocked matmul), and the per-job
//! answers are demultiplexed back to the waiting connections.
//!
//! ## Shape
//!
//! Handler threads never execute queries themselves: they enqueue a
//! [`Job`] carrying a reply channel and block on it. One dedicated worker
//! thread drains the queue — when a job arrives it takes everything
//! queued at once (no linger: a fixed linger taxes each lone request the
//! full window, ~3× off serial keep-alive throughput), groups jobs by
//! identical parameters (only equal [`KnnParams`] / scorers may share a
//! kernel pass), executes each group, and replies. A dedicated worker (rather
//! than electing a handler thread as leader) means submission can never
//! deadlock: every handler may block on its reply channel simultaneously
//! and the batch still runs.
//!
//! ## Determinism
//!
//! Coalescing must not change response bytes, and by construction it
//! cannot: the engine's multi-job entry points are bit-identical for any
//! batch composition (see `engine.rs` module docs), so the only thing
//! traffic interleaving can affect is *timing*. The
//! batched-vs-serial test in `tests/keepalive.rs` locks this down.

use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{mpsc, Arc, Condvar, Mutex};

use coane_error::{CoaneError, CoaneResult};
use coane_nn::Scorer;

use crate::engine::{KnnAnswer, KnnParams, KnnTarget, QueryEngine};
use crate::generation::ViewStamp;

/// Reply channel handing one kNN job its answers plus the stamp of the
/// generation view the round ran against.
type KnnReply = SyncSender<CoaneResult<(Vec<KnnAnswer>, ViewStamp)>>;
/// Reply channel handing one link-scoring job its scores.
type LinksReply = SyncSender<CoaneResult<Vec<f64>>>;
/// A drained link-scoring job: `(pairs, scorer, reply)`.
type LinksJob = (Vec<(u64, u64)>, Scorer, LinksReply);

/// One queued request body with its reply channel.
enum Job {
    Knn { queries: Vec<KnnTarget>, params: KnnParams, reply: KnnReply },
    Links { pairs: Vec<(u64, u64)>, scorer: Scorer, reply: LinksReply },
}

struct State {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<State>,
    arrived: Condvar,
}

/// The coalescing worker: owns a queue and one execution thread. Dropping
/// the batcher closes the queue and joins the worker (pending jobs are
/// executed first).
pub struct MicroBatcher {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MicroBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MicroBatcher").finish()
    }
}

impl MicroBatcher {
    /// Starts the worker thread. Each round executes as soon as a job is
    /// queued; jobs that pile up while a round runs share the next pass.
    pub fn start(engine: Arc<QueryEngine>) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State { jobs: VecDeque::new(), closed: false }),
            arrived: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("coane-batcher".into())
            .spawn(move || worker_loop(&worker_shared, &engine))
            .expect("spawn batcher worker");
        Self { shared, worker: Some(worker) }
    }

    fn enqueue(&self, job: Job) -> CoaneResult<()> {
        let mut state = self.shared.state.lock().unwrap();
        if state.closed {
            return Err(CoaneError::config("server is shutting down"));
        }
        state.jobs.push_back(job);
        drop(state);
        self.arrived_notify();
        Ok(())
    }

    fn arrived_notify(&self) {
        self.shared.arrived.notify_one();
    }

    /// Submits one kNN request body and blocks until its answers (and the
    /// stamp of the view they were computed against) are ready. Callers
    /// hold their admission [`crate::Permit`] across this call.
    pub fn submit_knn(
        &self,
        queries: Vec<KnnTarget>,
        params: KnnParams,
    ) -> CoaneResult<(Vec<KnnAnswer>, ViewStamp)> {
        let (reply, rx) = mpsc::sync_channel(1);
        self.enqueue(Job::Knn { queries, params, reply })?;
        rx.recv().map_err(|_| CoaneError::config("server is shutting down"))?
    }

    /// Submits one link-scoring request body and blocks for its scores.
    pub fn submit_links(&self, pairs: Vec<(u64, u64)>, scorer: Scorer) -> CoaneResult<Vec<f64>> {
        let (reply, rx) = mpsc::sync_channel(1);
        self.enqueue(Job::Links { pairs, scorer, reply })?;
        rx.recv().map_err(|_| CoaneError::config("server is shutting down"))?
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().closed = true;
        self.shared.arrived.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, engine: &QueryEngine) {
    loop {
        let round = {
            let mut state = shared.state.lock().unwrap();
            // Sleep until work arrives or shutdown.
            while state.jobs.is_empty() && !state.closed {
                state = shared.arrived.wait(state).unwrap();
            }
            if state.jobs.is_empty() {
                return; // closed and drained
            }
            std::mem::take(&mut state.jobs)
        };
        execute_round(engine, round);
    }
}

/// Executes one drained round: group jobs by identical parameters (arrival
/// order preserved within a group), one engine pass per group, replies in
/// job order. A receiver that gave up (disconnected) is skipped silently.
fn execute_round(engine: &QueryEngine, round: VecDeque<Job>) {
    let mut knn: Vec<(Vec<KnnTarget>, KnnParams, KnnReply)> = Vec::new();
    let mut links: Vec<LinksJob> = Vec::new();
    for job in round {
        match job {
            Job::Knn { queries, params, reply } => knn.push((queries, params, reply)),
            Job::Links { pairs, scorer, reply } => links.push((pairs, scorer, reply)),
        }
    }
    // kNN groups: all jobs sharing one KnnParams value run as one pass.
    let mut done = vec![false; knn.len()];
    for i in 0..knn.len() {
        if done[i] {
            continue;
        }
        let params = knn[i].1;
        let members: Vec<usize> = (i..knn.len()).filter(|&j| knn[j].1 == params).collect();
        for &j in &members {
            done[j] = true;
        }
        let jobs: Vec<&[KnnTarget]> = members.iter().map(|&j| knn[j].0.as_slice()).collect();
        let (results, stamp) = engine.knn_multi(&jobs, params);
        for (&j, result) in members.iter().zip(results) {
            let _ = knn[j].2.send(result.map(|answers| (answers, stamp)));
        }
    }
    let mut done = vec![false; links.len()];
    for i in 0..links.len() {
        if done[i] {
            continue;
        }
        let scorer = links[i].1;
        let members: Vec<usize> = (i..links.len()).filter(|&j| links[j].1 == scorer).collect();
        for &j in &members {
            done[j] = true;
        }
        let jobs: Vec<&[(u64, u64)]> = members.iter().map(|&j| links[j].0.as_slice()).collect();
        let results = engine.score_links_multi(&jobs, scorer);
        for (&j, result) in members.iter().zip(results) {
            let _ = links[j].2.send(result);
        }
    }
}
