//! Minimal std-only HTTP/1.1 JSON front-end for the [`QueryEngine`].
//!
//! No async runtime and no networking dependencies: a `TcpListener` accept
//! loop feeds a bounded channel drained by a fixed pool of handler threads.
//! The channel bound is the engine's `queue_cap`; when every handler is busy
//! and the channel is full, the accept loop blocks on `send` — connections
//! queue in the kernel backlog and clients see latency, not dropped
//! requests.
//!
//! ## Connection lifecycle
//!
//! Connections are **keep-alive** (HTTP/1.1 persistent): a handler thread
//! owns a connection and serves requests off it in a loop until the client
//! closes, sends `Connection: close`, or times out. Two timeouts guard the
//! loop (see [`ServerConfig`]):
//!
//! - *Idle timeout* (`keep_alive_timeout`): waiting for the **first byte**
//!   of the next request. Expiry is a normal end of conversation — the
//!   connection closes silently.
//! - *Read deadline* (`read_deadline`): once the first byte arrives the
//!   whole request (line, headers, body) must complete within this budget.
//!   Expiry gets `408 Request Timeout` and a close — a slow-loris peer
//!   dribbling header bytes cannot pin a handler beyond the deadline.
//!
//! HTTP/1.0 clients without `Connection: keep-alive` get one request per
//! connection, as they expect.
//!
//! ## Micro-batching and load shedding
//!
//! `/knn` and `/score_links` handlers do not execute queries directly:
//! after a non-blocking [`QueryEngine::try_admit`], the request body is
//! submitted to the [`MicroBatcher`], which coalesces concurrent bodies
//! into one engine kernel pass (identical response bytes — see
//! `batch.rs`). When the admission queue is saturated for the request's
//! [`QueryClass`], the server sheds with `429 Too Many Requests` +
//! `Retry-After` instead of queueing. Per-route latency histograms are
//! recorded under `serve/http/<route>` and surfaced at `/stats` with
//! p50/p90/p99 in microseconds.
//!
//! ## Routes
//!
//! | Route          | Method | Body                                              |
//! |----------------|--------|---------------------------------------------------|
//! | `/knn`         | POST   | `{"ids":[..]?, "vectors":[[..]]?, "k"?, "scorer"?, "exact"?}` |
//! | `/score_links` | POST   | `{"pairs":[[u,v],..], "scorer"?}`                 |
//! | `/encode`      | POST   | `{"nodes":[{"attr_indices","attr_values","edges"}], "k"?}` |
//! | `/upsert`      | POST   | `{"nodes":[{"id", "vector"? | "attr_indices"/"attr_values"/"edges"}]}` |
//! | `/delete`      | POST   | `{"ids":[..]}`                                    |
//! | `/healthz`     | GET    | —                                                 |
//! | `/stats`       | GET    | —                                                 |
//! | `/shutdown`    | POST   | —                                                 |
//!
//! `/upsert` and `/delete` are only live on servers started with
//! `--mutable`; read-only servers answer them with 400. Mutations have
//! their own admission class shed at **half** the query queue depth, so a
//! write burst backs off before it can starve reads. Successful mutation
//! responses carry the `(generation, seq)` stamp of the view the mutation
//! produced; `/knn` responses carry the stamp of the view they were
//! answered against.
//!
//! Every response is JSON. Errors map [`CoaneError`] kinds onto status
//! codes: config/parse/graph are the client's fault (400), busy is 429,
//! everything else is 500.
//!
//! The server never writes to stdout; connection-level problems go to
//! stderr so piped output stays clean.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use coane_error::{CoaneError, CoaneResult};
use coane_nn::Scorer;
use serde::{Deserialize, Serialize, Value};

use crate::batch::MicroBatcher;
use crate::engine::{
    KnnParams, KnnTarget, QueryClass, QueryEngine, UnseenNode, UpsertItem, UpsertSource,
};
use crate::generation::ViewStamp;

/// Maximum accepted request body (16 MiB) — larger bodies get 413.
const MAX_BODY: usize = 16 << 20;
/// Socket write timeout; a peer that stops reading cannot pin a handler.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878`; port `0` picks a free port.
    pub addr: String,
    /// Handler threads (connections served concurrently); at least 1.
    pub threads: usize,
    /// When set, the bound address is written here after binding — the
    /// rendezvous for scripts that start the server with port 0.
    pub addr_file: Option<PathBuf>,
    /// How long an idle keep-alive connection may wait for its next
    /// request before the server closes it silently.
    pub keep_alive_timeout: Duration,
    /// Budget for reading one full request once its first byte arrived;
    /// exceeding it gets `408` and a close (slow-loris guard).
    pub read_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            threads: 4,
            addr_file: None,
            keep_alive_timeout: Duration::from_secs(5),
            read_deadline: Duration::from_secs(10),
        }
    }
}

/// A bound (but not yet running) server: binding is separated from serving
/// so callers learn the port (and the addr-file is on disk) before the
/// accept loop starts.
pub struct HttpServer {
    listener: TcpListener,
    engine: Arc<QueryEngine>,
    config: ServerConfig,
    local_addr: SocketAddr,
}

impl HttpServer {
    /// Binds the listener, writes the addr-file if requested.
    pub fn bind(engine: Arc<QueryEngine>, config: ServerConfig) -> CoaneResult<Self> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| CoaneError::config(format!("cannot bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| CoaneError::config(format!("cannot read bound address: {e}")))?;
        if let Some(path) = &config.addr_file {
            std::fs::write(path, format!("{local_addr}\n")).map_err(|e| CoaneError::io(path, e))?;
        }
        Ok(Self { listener, engine, config, local_addr })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the accept loop until a `/shutdown` request lands. Blocks the
    /// calling thread; handler threads are joined before returning.
    pub fn run(self) -> CoaneResult<()> {
        let stop = Arc::new(AtomicBool::new(false));
        let queue_cap = self.engine.limits().queue_cap.max(1);
        let batcher = Arc::new(MicroBatcher::start(Arc::clone(&self.engine)));
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(queue_cap);
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let n_threads = self.config.threads.max(1);
        let mut handlers = Vec::with_capacity(n_threads);
        for _ in 0..n_threads {
            let rx = Arc::clone(&rx);
            let engine = Arc::clone(&self.engine);
            let batcher = Arc::clone(&batcher);
            let stop = Arc::clone(&stop);
            let addr = self.local_addr;
            let config = self.config.clone();
            handlers.push(std::thread::spawn(move || loop {
                // Hold the lock only for the recv, not while handling.
                let next = rx.lock().unwrap().recv();
                let Ok(stream) = next else { break };
                let shutdown = handle_connection(stream, &engine, &batcher, &config);
                if shutdown {
                    stop.store(true, Ordering::SeqCst);
                    // Wake the acceptor out of its blocking accept().
                    let _ = TcpStream::connect(addr);
                }
            }));
        }
        for incoming in self.listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match incoming {
                Ok(stream) => {
                    // Blocking send is the backpressure point (see module
                    // docs). Send only fails if every handler panicked.
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) => eprintln!("serve: accept failed: {e}"),
            }
        }
        drop(tx);
        for h in handlers {
            let _ = h.join();
        }
        // Handlers are gone; dropping the batcher joins its worker.
        drop(batcher);
        Ok(())
    }
}

/// What reading the next request off a keep-alive connection produced.
enum NextRequest {
    /// A complete request: method, path, body, and whether the client
    /// asked to close after the response.
    Request { method: String, path: String, body: String, close: bool },
    /// The peer closed, or the idle timeout expired — end silently.
    Gone,
    /// The request started but violated the read deadline → 408.
    Deadline,
    /// Malformed request → answer this and close.
    Bad(Response),
}

/// Serves requests off one connection until it ends (see module docs for
/// the lifecycle). Returns `true` when a shutdown order was served.
fn handle_connection(
    stream: TcpStream,
    engine: &QueryEngine,
    batcher: &MicroBatcher,
    config: &ServerConfig,
) -> bool {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // Keep-alive responses are small and latency-bound: Nagle + delayed
    // ACK would park every response on a reused connection for ~40 ms.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    loop {
        match read_next_request(&mut reader, config) {
            NextRequest::Gone => return false,
            NextRequest::Deadline => {
                let resp = Response::error(408, "config", "request read deadline exceeded");
                write_response(reader.get_mut(), &resp, true);
                return false;
            }
            NextRequest::Bad(resp) => {
                write_response(reader.get_mut(), &resp, true);
                return false;
            }
            NextRequest::Request { method, path, body, close } => {
                let started = Instant::now();
                let (resp, shutdown) = route(engine, batcher, &method, &path, &body);
                let close = close || shutdown;
                write_response(reader.get_mut(), &resp, close);
                if let Some(name) = route_histogram(&path) {
                    engine.obs().histogram(name, started.elapsed().as_micros() as f64);
                }
                if shutdown {
                    return true;
                }
                if close {
                    return false;
                }
            }
        }
    }
}

/// The `serve/http/<route>` latency histogram for a path, if it has one.
fn route_histogram(path: &str) -> Option<&'static str> {
    match path {
        "/knn" => Some("serve/http/knn"),
        "/score_links" => Some("serve/http/links"),
        "/encode" => Some("serve/http/encode"),
        "/upsert" => Some("serve/http/upsert"),
        "/delete" => Some("serve/http/delete"),
        "/healthz" => Some("serve/http/healthz"),
        "/stats" => Some("serve/http/stats"),
        _ => None,
    }
}

/// True for read errors that mean "the socket timed out" rather than "the
/// peer broke": both flavors appear depending on platform.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads one request under the keep-alive discipline: idle-wait for the
/// first byte under `keep_alive_timeout`, then the whole request under
/// `read_deadline`.
fn read_next_request(reader: &mut BufReader<TcpStream>, config: &ServerConfig) -> NextRequest {
    // Idle phase: wait for the first byte of the next request.
    let _ = reader.get_ref().set_read_timeout(Some(config.keep_alive_timeout));
    match reader.fill_buf() {
        Ok([]) => return NextRequest::Gone, // clean EOF between requests
        Ok(_) => {}
        Err(e) if is_timeout(&e) => return NextRequest::Gone, // idle timeout
        Err(_) => return NextRequest::Gone,
    }
    // Request phase: everything else must land within the read deadline.
    // Each raw read gets the *remaining* budget as its socket timeout, so
    // a peer dribbling one byte per read cannot stretch the total.
    let deadline = Instant::now() + config.read_deadline;
    let read_line =
        |reader: &mut BufReader<TcpStream>, line: &mut String| -> Result<usize, NextRequest> {
            let now = Instant::now();
            if now >= deadline {
                return Err(NextRequest::Deadline);
            }
            let _ = reader.get_ref().set_read_timeout(Some(deadline - now));
            reader.read_line(line).map_err(|e| {
                if is_timeout(&e) {
                    NextRequest::Deadline
                } else {
                    NextRequest::Bad(Response::error(400, "parse", &format!("request: {e}")))
                }
            })
        };

    let mut line = String::new();
    match read_line(reader, &mut line) {
        Ok(0) => return NextRequest::Gone,
        Ok(_) => {}
        Err(out) => return out,
    }
    let mut parts = line.split_whitespace();
    let Some(method) = parts.next().map(str::to_string) else {
        return NextRequest::Bad(Response::error(400, "parse", "empty request line"));
    };
    let Some(path) = parts.next().map(str::to_string) else {
        return NextRequest::Bad(Response::error(400, "parse", "request line has no path"));
    };
    // HTTP/1.0 defaults to close; 1.1 defaults to keep-alive.
    let http10 = parts.next().is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.0"));
    let mut close = http10;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        let n = match read_line(reader, &mut header) {
            Ok(n) => n,
            Err(out) => return out,
        };
        let header = header.trim_end();
        if n == 0 || header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                match value.parse() {
                    Ok(len) => content_length = len,
                    Err(_) => {
                        return NextRequest::Bad(Response::error(
                            400,
                            "parse",
                            "bad Content-Length",
                        ))
                    }
                }
            } else if name.eq_ignore_ascii_case("connection") {
                if value.eq_ignore_ascii_case("close") {
                    close = true;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    close = false;
                }
            }
        }
    }
    if content_length > MAX_BODY {
        return NextRequest::Bad(Response::error(
            413,
            "config",
            &format!("body exceeds {MAX_BODY} bytes"),
        ));
    }
    let mut body = vec![0u8; content_length];
    {
        let now = Instant::now();
        if now >= deadline {
            return NextRequest::Deadline;
        }
        let _ = reader.get_ref().set_read_timeout(Some(deadline - now));
        if let Err(e) = reader.read_exact(&mut body) {
            return if is_timeout(&e) {
                NextRequest::Deadline
            } else {
                NextRequest::Bad(Response::error(400, "parse", &format!("body: {e}")))
            };
        }
    }
    let Ok(body) = String::from_utf8(body) else {
        return NextRequest::Bad(Response::error(400, "parse", "body is not valid UTF-8"));
    };
    NextRequest::Request { method, path, body, close }
}

/// An HTTP response about to be serialized.
struct Response {
    status: u16,
    body: String,
    /// `Retry-After` seconds, set on 429 shed responses.
    retry_after: Option<u32>,
}

impl Response {
    fn ok(body: String) -> Self {
        Self { status: 200, body, retry_after: None }
    }

    fn json<T: Serialize>(value: &T) -> Self {
        match serde_json::to_string(value) {
            Ok(body) => Self::ok(body),
            Err(e) => Self::error(500, "internal", &format!("response serialization: {e}")),
        }
    }

    fn error(status: u16, kind: &str, message: &str) -> Self {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("error".to_string(), Value::String(message.to_string()));
        obj.insert("kind".to_string(), Value::String(kind.to_string()));
        let body = serde_json::to_string(&Value::Object(obj)).unwrap_or_default();
        Self { status, body, retry_after: None }
    }

    fn from_err(e: &CoaneError) -> Self {
        if let CoaneError::Busy { retry_after_secs, .. } = e {
            let mut resp = Self::error(429, e.kind(), &e.to_string());
            resp.retry_after = Some(*retry_after_secs);
            return resp;
        }
        let status = match e.kind() {
            "config" | "parse" | "graph" => 400,
            _ => 500,
        };
        Self::error(status, e.kind(), &e.to_string())
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response, close: bool) {
    let connection = if close { "close" } else { "keep-alive" };
    let retry = match resp.retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    // One write per response: head + body in a single segment, so the
    // peer's delayed ACK never splits a response across round-trips.
    let mut wire = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry}Connection: {connection}\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.body.len()
    );
    wire.push_str(&resp.body);
    if let Err(e) = stream.write_all(wire.as_bytes()) {
        eprintln!("serve: write failed: {e}");
    }
    let _ = stream.flush();
}

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

#[derive(Deserialize)]
struct KnnRequest {
    ids: Option<Vec<u64>>,
    vectors: Option<Vec<Vec<f32>>>,
    k: Option<usize>,
    scorer: Option<String>,
    exact: Option<bool>,
}

/// One neighbor on the wire.
#[derive(Serialize, Deserialize)]
pub struct Neighbor {
    /// External node id.
    pub id: u64,
    /// Similarity under the requested scorer (greater = more similar).
    pub score: f32,
}

/// One query's neighbor list on the wire.
#[derive(Serialize, Deserialize)]
pub struct KnnResult {
    /// Most similar first.
    pub neighbors: Vec<Neighbor>,
}

/// Response of `/knn`.
#[derive(Serialize, Deserialize)]
pub struct KnnResponse {
    /// Neighbors returned per query.
    pub k: usize,
    /// Scorer that ranked the neighbors.
    pub scorer: String,
    /// Generation of the view the answers were computed against.
    pub generation: u64,
    /// Last applied mutation sequence in that view (0 = pristine store).
    pub seq: u64,
    /// One entry per query, in request order (ids first, then vectors).
    pub results: Vec<KnnResult>,
}

#[derive(Deserialize)]
struct LinkRequest {
    pairs: Vec<(u64, u64)>,
    scorer: Option<String>,
}

/// Response of `/score_links`.
#[derive(Serialize, Deserialize)]
pub struct LinkResponse {
    /// Scorer used.
    pub scorer: String,
    /// One score per pair, in request order.
    pub scores: Vec<f64>,
}

#[derive(Deserialize)]
struct EncodeNodeRequest {
    attr_indices: Option<Vec<u32>>,
    attr_values: Option<Vec<f32>>,
    edges: Vec<u64>,
}

#[derive(Deserialize)]
struct EncodeRequest {
    nodes: Vec<EncodeNodeRequest>,
    k: Option<usize>,
}

/// Response of `/encode`.
#[derive(Serialize, Deserialize)]
pub struct EncodeResponse {
    /// Embedding dimensionality.
    pub dim: usize,
    /// One embedding per request node, in request order.
    pub embeddings: Vec<Vec<f32>>,
    /// When the request set `k`: each encoded node's nearest stored
    /// neighbors, in request order.
    pub neighbors: Option<Vec<KnnResult>>,
}

/// Response of `/healthz`.
#[derive(Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server answers at all.
    pub status: String,
    /// Live (non-tombstoned) vectors in the current view.
    pub nodes: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Scorer the ANN index was built with.
    pub scorer: String,
    /// Whether `/encode` is available (model + graph loaded).
    pub encode: bool,
    /// Whether `/upsert` and `/delete` are live (`--mutable`).
    pub mutable: bool,
    /// Current generation number.
    pub generation: u64,
    /// Last applied mutation sequence (0 = pristine store).
    pub seq: u64,
    /// Precision of the scoring table (`f32` or `int8`).
    pub precision: String,
    /// Bytes the ANN scoring path streams per full scan.
    pub store_bytes: usize,
}

#[derive(Deserialize)]
struct UpsertNodeRequest {
    id: Option<u64>,
    vector: Option<Vec<f32>>,
    attr_indices: Option<Vec<u32>>,
    attr_values: Option<Vec<f32>>,
    edges: Option<Vec<u64>>,
}

#[derive(Deserialize)]
struct UpsertRequest {
    nodes: Vec<UpsertNodeRequest>,
}

/// Response of `/upsert`.
#[derive(Serialize, Deserialize)]
pub struct UpsertResponse {
    /// Nodes applied (always the full batch — mutations are atomic).
    pub applied: usize,
    /// Generation of the view the batch produced.
    pub generation: u64,
    /// Sequence of the last mutation in the batch.
    pub seq: u64,
}

#[derive(Deserialize)]
struct DeleteRequest {
    ids: Vec<u64>,
}

/// Response of `/delete`.
#[derive(Serialize, Deserialize)]
pub struct DeleteResponse {
    /// Ids tombstoned (always the full batch — mutations are atomic).
    pub deleted: usize,
    /// Generation of the view the batch produced.
    pub generation: u64,
    /// Sequence of the last mutation in the batch.
    pub seq: u64,
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

fn parse_scorer(name: &Option<String>, default: Scorer) -> CoaneResult<Scorer> {
    match name {
        None => Ok(default),
        Some(s) => {
            Scorer::parse(s).ok_or_else(|| CoaneError::config(format!("unknown scorer {s:?}")))
        }
    }
}

fn parse_body<T: Deserialize>(body: &str) -> Result<T, Response> {
    serde_json::from_str(body)
        .map_err(|e| Response::error(400, "parse", &format!("request body: {e}")))
}

fn route(
    engine: &QueryEngine,
    batcher: &MicroBatcher,
    method: &str,
    path: &str,
    body: &str,
) -> (Response, bool) {
    let resp = match (method, path) {
        ("POST", "/knn") => handle_knn(engine, batcher, body),
        ("POST", "/score_links") => handle_links(engine, batcher, body),
        ("POST", "/encode") => handle_encode(engine, batcher, body),
        ("POST", "/upsert") => handle_upsert(engine, body),
        ("POST", "/delete") => handle_delete(engine, body),
        ("GET", "/healthz") => {
            let view = engine.view();
            let ViewStamp { generation, seq } = view.stamp();
            Response::json(&HealthResponse {
                status: "ok".into(),
                nodes: view.live_rows(),
                dim: view.store().dim(),
                scorer: engine.index().scorer().name().into(),
                encode: engine.can_encode(),
                mutable: engine.is_mutable(),
                generation,
                seq,
                precision: view.store().precision().name().into(),
                store_bytes: view.store().store_bytes(),
            })
        }
        ("GET", "/stats") => stats_response(engine),
        ("POST", "/shutdown") => {
            let mut obj = std::collections::BTreeMap::new();
            obj.insert("status".to_string(), Value::String("shutting down".to_string()));
            return (Response::json(&Value::Object(obj)), true);
        }
        (_, "/knn" | "/score_links" | "/encode" | "/upsert" | "/delete" | "/shutdown") => {
            Response::error(405, "config", "POST required")
        }
        (_, "/healthz" | "/stats") => Response::error(405, "config", "GET required"),
        _ => Response::error(404, "config", &format!("no route {path}")),
    };
    (resp, false)
}

fn handle_knn(engine: &QueryEngine, batcher: &MicroBatcher, body: &str) -> Response {
    let req: KnnRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let mut queries: Vec<KnnTarget> = Vec::new();
    queries.extend(req.ids.unwrap_or_default().into_iter().map(KnnTarget::Id));
    queries.extend(req.vectors.unwrap_or_default().into_iter().map(KnnTarget::Vector));
    if queries.is_empty() {
        return Response::error(400, "config", "knn request needs ids or vectors");
    }
    let scorer = match parse_scorer(&req.scorer, engine.index().scorer()) {
        Ok(s) => s,
        Err(e) => return Response::from_err(&e),
    };
    let params = KnnParams { k: req.k.unwrap_or(10), scorer, exact: req.exact.unwrap_or(false) };
    // Shed-or-admit, then hold the permit across the batcher round trip so
    // the request occupies its queue slot until its answer is built.
    let _permit = match engine.try_admit(queries.len(), QueryClass::Knn) {
        Ok(p) => p,
        Err(e) => return Response::from_err(&e),
    };
    match batcher.submit_knn(queries, params) {
        Ok((answers, stamp)) => Response::json(&KnnResponse {
            k: params.k,
            scorer: scorer.name().into(),
            generation: stamp.generation,
            seq: stamp.seq,
            results: answers.into_iter().map(to_knn_result).collect(),
        }),
        Err(e) => Response::from_err(&e),
    }
}

fn handle_upsert(engine: &QueryEngine, body: &str) -> Response {
    let req: UpsertRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    if req.nodes.is_empty() {
        return Response::error(400, "config", "upsert request needs nodes");
    }
    let mut items = Vec::with_capacity(req.nodes.len());
    for (i, n) in req.nodes.into_iter().enumerate() {
        let Some(id) = n.id else {
            return Response::error(400, "config", &format!("upsert node {i} has no id"));
        };
        let attributed = n.attr_indices.is_some() || n.attr_values.is_some() || n.edges.is_some();
        let source = match (n.vector, attributed) {
            (Some(_), true) => {
                return Response::error(
                    400,
                    "config",
                    &format!("upsert node {i} (id {id}): give a vector or attributes, not both"),
                )
            }
            (Some(v), false) => UpsertSource::Vector(v),
            (None, true) => UpsertSource::Node(UnseenNode {
                attr_indices: n.attr_indices.unwrap_or_default(),
                attr_values: n.attr_values.unwrap_or_default(),
                edges: n.edges.unwrap_or_default(),
            }),
            (None, false) => {
                return Response::error(
                    400,
                    "config",
                    &format!("upsert node {i} (id {id}) needs a vector or attributes"),
                )
            }
        };
        items.push(UpsertItem { id, source });
    }
    // Mutations bypass the micro-batcher (a mutation is already a batch and
    // must not coalesce with a neighbor's), but still go through admission
    // under their own class so a write burst sheds before starving reads.
    let _permit = match engine.try_admit(items.len(), QueryClass::Mutate) {
        Ok(p) => p,
        Err(e) => return Response::from_err(&e),
    };
    match engine.upsert_admitted(&items) {
        Ok(ack) => Response::json(&UpsertResponse {
            applied: ack.applied,
            generation: ack.stamp.generation,
            seq: ack.stamp.seq,
        }),
        Err(e) => Response::from_err(&e),
    }
}

fn handle_delete(engine: &QueryEngine, body: &str) -> Response {
    let req: DeleteRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    if req.ids.is_empty() {
        return Response::error(400, "config", "delete request needs ids");
    }
    let _permit = match engine.try_admit(req.ids.len(), QueryClass::Mutate) {
        Ok(p) => p,
        Err(e) => return Response::from_err(&e),
    };
    match engine.delete_admitted(&req.ids) {
        Ok(ack) => Response::json(&DeleteResponse {
            deleted: ack.applied,
            generation: ack.stamp.generation,
            seq: ack.stamp.seq,
        }),
        Err(e) => Response::from_err(&e),
    }
}

fn to_knn_result(answer: crate::engine::KnnAnswer) -> KnnResult {
    KnnResult {
        neighbors: answer.neighbors.into_iter().map(|(id, score)| Neighbor { id, score }).collect(),
    }
}

fn handle_links(engine: &QueryEngine, batcher: &MicroBatcher, body: &str) -> Response {
    let req: LinkRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let scorer = match parse_scorer(&req.scorer, engine.index().scorer()) {
        Ok(s) => s,
        Err(e) => return Response::from_err(&e),
    };
    let _permit = match engine.try_admit(req.pairs.len(), QueryClass::Links) {
        Ok(p) => p,
        Err(e) => return Response::from_err(&e),
    };
    match batcher.submit_links(req.pairs, scorer) {
        Ok(scores) => Response::json(&LinkResponse { scorer: scorer.name().into(), scores }),
        Err(e) => Response::from_err(&e),
    }
}

fn handle_encode(engine: &QueryEngine, batcher: &MicroBatcher, body: &str) -> Response {
    let req: EncodeRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let mut nodes = Vec::with_capacity(req.nodes.len());
    for n in req.nodes {
        nodes.push(UnseenNode {
            attr_indices: n.attr_indices.unwrap_or_default(),
            attr_values: n.attr_values.unwrap_or_default(),
            edges: n.edges,
        });
    }
    // One admission covers the whole request, including the optional kNN
    // composition below — a second blocking admission here could deadlock
    // a `queue_cap = 1` server.
    let _permit = match engine.try_admit(nodes.len(), QueryClass::Encode) {
        Ok(p) => p,
        Err(e) => return Response::from_err(&e),
    };
    let embeddings = match engine.encode_unseen_admitted(&nodes) {
        Ok(z) => z,
        Err(e) => return Response::from_err(&e),
    };
    let neighbors = match req.k {
        None => None,
        Some(k) => {
            let queries: Vec<KnnTarget> =
                embeddings.iter().cloned().map(KnnTarget::Vector).collect();
            let params = KnnParams { k, scorer: engine.index().scorer(), exact: false };
            match batcher.submit_knn(queries, params) {
                Ok((answers, _stamp)) => Some(answers.into_iter().map(to_knn_result).collect()),
                Err(e) => return Response::from_err(&e),
            }
        }
    };
    Response::json(&EncodeResponse { dim: engine.store().dim(), embeddings, neighbors })
}

fn stats_response(engine: &QueryEngine) -> Response {
    let obs = engine.obs();
    let mut counters = std::collections::BTreeMap::new();
    for (name, n) in obs.counters() {
        counters.insert(name.to_string(), Value::Number(n as f64));
    }
    let mut gauges = std::collections::BTreeMap::new();
    for (name, g) in obs.gauges() {
        let mut stat = std::collections::BTreeMap::new();
        stat.insert("count".to_string(), Value::Number(g.count as f64));
        stat.insert("last".to_string(), Value::Number(g.last));
        stat.insert("max".to_string(), Value::Number(g.max));
        gauges.insert(name.to_string(), Value::Object(stat));
    }
    let mut scopes = std::collections::BTreeMap::new();
    for (path, s) in obs.scopes() {
        let mut stat = std::collections::BTreeMap::new();
        stat.insert("calls".to_string(), Value::Number(s.calls as f64));
        stat.insert("total_secs".to_string(), Value::Number(s.total.as_secs_f64()));
        scopes.insert(path, Value::Object(stat));
    }
    let mut histograms = std::collections::BTreeMap::new();
    for (name, h) in obs.histograms() {
        let mut stat = std::collections::BTreeMap::new();
        stat.insert("count".to_string(), Value::Number(h.count as f64));
        stat.insert("min_us".to_string(), Value::Number(h.min));
        stat.insert("max_us".to_string(), Value::Number(h.max));
        stat.insert("p50_us".to_string(), Value::Number(h.p50));
        stat.insert("p90_us".to_string(), Value::Number(h.p90));
        stat.insert("p99_us".to_string(), Value::Number(h.p99));
        histograms.insert(name.to_string(), Value::Object(stat));
    }
    // Mutation-state snapshot: generation, tombstones, WAL size. Present on
    // read-only servers too (with `mutable: false` and zeroed log fields) so
    // dashboards can key off one shape.
    let ms = engine.mutation_stats();
    let mut store = std::collections::BTreeMap::new();
    store.insert("mutable".to_string(), Value::Bool(ms.mutable));
    store.insert("generation".to_string(), Value::Number(ms.generation as f64));
    store.insert("seq".to_string(), Value::Number(ms.seq as f64));
    store.insert("base_rows".to_string(), Value::Number(ms.base_rows as f64));
    store.insert("live_rows".to_string(), Value::Number(ms.live_rows as f64));
    store.insert("tombstones".to_string(), Value::Number(ms.tombstones as f64));
    store.insert("pending".to_string(), Value::Number(ms.pending as f64));
    store.insert("wal_bytes".to_string(), Value::Number(ms.wal_bytes as f64));
    store.insert("compact_every".to_string(), Value::Number(ms.compact_every as f64));
    store.insert("precision".to_string(), Value::String(ms.precision.name().to_string()));
    store.insert("store_bytes".to_string(), Value::Number(ms.store_bytes as f64));
    let mut root = std::collections::BTreeMap::new();
    root.insert("uptime_secs".to_string(), Value::Number(obs.elapsed_secs()));
    root.insert("store".to_string(), Value::Object(store));
    root.insert("counters".to_string(), Value::Object(counters));
    root.insert("gauges".to_string(), Value::Object(gauges));
    root.insert("scopes".to_string(), Value::Object(scopes));
    root.insert("histograms".to_string(), Value::Object(histograms));
    Response::json(&Value::Object(root))
}

// ---------------------------------------------------------------------------
// Blocking clients (shared by `coane query`, the bench, and the tests)
// ---------------------------------------------------------------------------

/// Reads one response off `reader`: `(status, body, server_closed)`.
fn read_response(reader: &mut BufReader<TcpStream>) -> CoaneResult<(u16, String, bool)> {
    let mut status_line = String::new();
    let n = reader
        .read_line(&mut status_line)
        .map_err(|e| CoaneError::config(format!("no response: {e}")))?;
    if n == 0 {
        return Err(CoaneError::config("connection closed before a response arrived"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| CoaneError::parse(format!("bad status line {status_line:?}")))?;
    let mut content_length = None;
    let mut closed = false;
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| CoaneError::parse(format!("response headers: {e}")))?;
        let header = header.trim_end();
        if n == 0 || header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close")
            {
                closed = true;
            }
        }
    }
    let mut body = String::new();
    match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader
                .read_exact(&mut buf)
                .map_err(|e| CoaneError::parse(format!("response body: {e}")))?;
            body = String::from_utf8(buf)
                .map_err(|_| CoaneError::parse("response body is not UTF-8"))?;
        }
        None => {
            reader
                .read_to_string(&mut body)
                .map_err(|e| CoaneError::parse(format!("response body: {e}")))?;
            closed = true;
        }
    }
    Ok((status, body, closed))
}

fn send_request(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    connection: &str,
) -> CoaneResult<()> {
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    wire.push_str(body);
    stream
        .write_all(wire.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| CoaneError::config(format!("request to {addr} failed: {e}")))
}

/// A blocking keep-alive HTTP client: one persistent connection, reused
/// across [`HttpClient::request`] calls, transparently re-established when
/// the server closed it (idle timeout, `Connection: close`, restart).
#[derive(Debug)]
pub struct HttpClient {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

impl HttpClient {
    /// A client for `addr` (`host:port`). No connection is made until the
    /// first request.
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), conn: None }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn open(&self) -> CoaneResult<BufReader<TcpStream>> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| CoaneError::config(format!("cannot connect to {}: {e}", self.addr)))?;
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // Request streams are ping-pong: never let Nagle hold a request
        // back waiting for the previous response's ACK.
        let _ = stream.set_nodelay(true);
        Ok(BufReader::new(stream))
    }

    /// Sends one JSON request on the persistent connection and returns
    /// `(status, body)`. A send or response failure on a *reused*
    /// connection (the server may have idle-closed it meanwhile) retries
    /// once on a fresh connection; errors on a fresh connection are real.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> CoaneResult<(u16, String)> {
        let reused = self.conn.is_some();
        match self.try_request(method, path, body) {
            Ok(out) => Ok(out),
            Err(e) if reused => {
                self.conn = None;
                self.try_request(method, path, body).map_err(|_| e)
            }
            Err(e) => Err(e),
        }
    }

    fn try_request(&mut self, method: &str, path: &str, body: &str) -> CoaneResult<(u16, String)> {
        if self.conn.is_none() {
            self.conn = Some(self.open()?);
        }
        let reader = self.conn.as_mut().expect("connection just ensured");
        let result = send_request(reader.get_mut(), &self.addr, method, path, body, "keep-alive")
            .and_then(|()| read_response(reader));
        match result {
            Ok((status, resp_body, closed)) => {
                if closed {
                    self.conn = None;
                }
                Ok((status, resp_body))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// Sends one JSON request on a fresh `Connection: close` connection and
/// returns `(status, body)` — the one-shot client. For request streams use
/// [`HttpClient`], which keeps its connection alive.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> CoaneResult<(u16, String)> {
    let mut stream = TcpStream::connect(addr)
        .map_err(|e| CoaneError::config(format!("cannot connect to {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);
    send_request(&mut stream, addr, method, path, body, "close")?;
    let mut reader = BufReader::new(stream);
    let (status, body, _) = read_response(&mut reader)?;
    Ok((status, body))
}
