//! `coane-cli` — end-to-end command-line workflow:
//!
//! ```text
//! # 1. get a graph (synthetic preset, or bring your own LINQS/edge-list files)
//! coane-cli generate --preset cora --scale 0.2 --seed 42 --out graph.json
//! coane-cli generate --preset scale --nodes 1000000 --seed 42 --out big.json
//! coane-cli convert  --content cora.content --cites cora.cites --out graph.json
//! coane-cli convert  --edges graph.edges --out graph.json
//!
//! # 2. embed it (--threads is a pure speed knob: output is bit-identical)
//! coane-cli embed --graph graph.json --method coane --dim 128 --epochs 10 \
//!                 --threads 4 --out embedding.csv
//!
//! # 2b. embed under a memory budget (streamed walks, blocked co-occurrence,
//! #     budgeted context-row cache — output stays bit-identical)
//! coane-cli embed --graph big.json --method coane --out embedding.csv \
//!                 --walk-block 4096 --coocc-block 65536 \
//!                 --max-cache-bytes 2000000000
//!
//! # 2a. observability: per-epoch progress on stderr, structured JSONL
//! #     telemetry (per-epoch loss terms, throughput, phase timings), or
//! #     silence — none of it changes the embedding by a single bit
//! coane-cli embed --graph graph.json --method coane --out embedding.csv \
//!                 --log-every 1 --metrics-json metrics.jsonl
//! coane-cli embed --graph graph.json --method coane --out embedding.csv --quiet
//!
//! # 2b. long runs: checkpoint every epoch; re-running the same command after
//! #     an interruption resumes from the newest valid checkpoint and yields
//! #     bit-identical output to an uninterrupted run
//! coane-cli embed --graph graph.json --method coane --out embedding.csv \
//!                 --checkpoint-dir ckpts --checkpoint-every 1
//!
//! # 3. evaluate
//! coane-cli evaluate --graph graph.json --embedding embedding.csv --task cluster
//! coane-cli evaluate --graph graph.json --embedding embedding.csv --task classify --ratio 0.2
//!
//! # 4. (CoANE only) persist the trained model, embed new nodes later
//! coane-cli embed --graph graph.json --method coane --out embedding.csv \
//!                 --save-model model.json
//! coane-cli infer --model model.json --graph extended.json --nodes 300,301 \
//!                 --out new_embeddings.csv
//!
//! # 5. serve it: pack the embedding into a binary store, start the HTTP
//! #    server (kNN / link scoring / inductive encoding), query it
//! coane-cli export-store --embedding embedding.csv --out embedding.store
//! coane-cli serve --store embedding.store --model model.json --graph graph.json \
//!                 --addr 127.0.0.1:0 --addr-file server.addr
//! coane-cli query --addr-file server.addr --route knn --body '{"ids":[0],"k":5}'
//! coane-cli query --addr-file server.addr --route shutdown
//!
//! # 5c. quantized serving: pack (or load) the store at int8 precision —
//! #     the ANN path scans ~4× fewer bytes and every answer is re-ranked
//! #     against the exact f32 sidecar (top k·rerank-factor candidates), so
//! #     final scores are full-precision either way
//! coane-cli export-store --embedding embedding.csv --out embedding.store \
//!                 --precision int8
//! coane-cli serve --store embedding.store --precision int8 --rerank-factor 4 \
//!                 --addr 127.0.0.1:0 --addr-file server.addr
//!
//! # 5b. mutable serving: accept live upserts and tombstone deletes,
//! #     journaled to a CRC-checked write-ahead log under --data-dir and
//! #     folded into fresh on-disk generations every --compact-every
//! #     mutations. kill -9 at any instant and restart with the same
//! #     --data-dir: the server comes back with exactly the acked prefix.
//! coane-cli serve --store embedding.store --mutable --data-dir server-data \
//!                 --compact-every 64 --addr 127.0.0.1:0 --addr-file server.addr
//! coane-cli query --addr-file server.addr --route upsert \
//!                 --body '{"nodes":[{"id":9001,"vector":[0.1,0.2,0.3]}]}'
//! coane-cli query --addr-file server.addr --route delete --body '{"ids":[9001]}'
//!
//! # 5a. load mode: N keep-alive clients hammer one route concurrently and a
//! #     JSON summary (qps, ok/shed/failed counts) lands on stdout. Shed
//! #     requests (HTTP 429) are counted, not fatal — the server is
//! #     load-shedding, not broken.
//! coane-cli query --addr-file server.addr --route knn \
//!                 --body '{"ids":[0],"k":5}' --concurrency 8 --repeat 50
//! ```
//!
//! Output discipline: stdout carries only *results* (evaluation scores);
//! progress, summaries, and telemetry go to stderr or the `--metrics-json`
//! sink, so every command stays pipe-clean. `--quiet` silences the progress
//! stream entirely (errors still reach stderr).
//!
//! Failures map to stable exit codes by error kind: 2 = invalid
//! configuration/usage, 3 = I/O, 4 = parse, 5 = graph structure,
//! 6 = numeric, 7 = checkpoint, 8 = embedding store, 9 = server busy
//! (load shed — retry later), 10 = unusable mutation log / generation
//! state (see `CoaneError::exit_code`).
//!
//! (Link prediction needs the split to happen *before* embedding; use the
//! `exp_linkpred` harness binary or the library API for that protocol.)

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use coane::prelude::*;
use coane::{baselines::skipgram::SkipGramConfig, eval, graph::io as gio};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Flags that never take a value.
const BOOL_FLAGS: &[&str] = &["quiet", "mutable"];

struct Cli {
    values: HashMap<String, String>,
}

impl Cli {
    fn parse(args: &[String]) -> Self {
        let mut values = HashMap::new();
        let mut i = 0usize;
        while i < args.len() {
            if let Some(k) = args[i].strip_prefix("--") {
                if BOOL_FLAGS.contains(&k) {
                    values.insert(k.to_string(), "true".to_string());
                    i += 1;
                    continue;
                }
                if i + 1 < args.len() {
                    values.insert(k.to_string(), args[i + 1].clone());
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
        Self { values }
    }

    fn get(&self, k: &str) -> Option<&str> {
        self.values.get(k).map(String::as_str)
    }

    fn req(&self, k: &str) -> Result<&str, CoaneError> {
        self.get(k).ok_or_else(|| CoaneError::config(format!("missing required flag --{k}")))
    }

    /// A numeric flag, or `default` when it is absent. A value that does
    /// not parse is a typed config error naming the flag.
    fn num<T: std::str::FromStr>(&self, k: &str, default: T) -> Result<T, CoaneError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(k) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| CoaneError::config(format!("--{k} {v:?}: {e}"))),
        }
    }

    /// A duration flag in seconds; negative, non-finite or overflowing
    /// values are typed config errors rather than a panic.
    fn secs(&self, k: &str, default: Duration) -> Result<Duration, CoaneError> {
        let secs = self.num(k, default.as_secs_f64())?;
        Duration::try_from_secs_f64(secs)
            .map_err(|e| CoaneError::config(format!("--{k} {secs}: {e}")))
    }

    fn flag(&self, k: &str) -> bool {
        self.get(k).is_some()
    }
}

/// Progress sink: everything goes to stderr (stdout is reserved for
/// results), and `--quiet` drops it entirely.
struct Log {
    quiet: bool,
}

impl Log {
    fn new(cli: &Cli) -> Self {
        Self { quiet: cli.flag("quiet") }
    }

    fn info(&self, msg: impl std::fmt::Display) {
        if !self.quiet {
            eprintln!("{msg}");
        }
    }
}

/// Builds the observer for a command: enabled iff telemetry has somewhere
/// to go (`--metrics-json`) or something to drive (`--log-every`).
fn observer(cli: &Cli) -> Result<Obs, CoaneError> {
    Ok(if cli.get("metrics-json").is_some() || cli.num("log-every", 0usize)? > 0 {
        Obs::enabled()
    } else {
        Obs::disabled()
    })
}

/// Writes the JSONL telemetry stream to `--metrics-json` (if given) and
/// prints the human-readable summary to stderr (unless `--quiet`).
fn finish_metrics(cli: &Cli, log: &Log, obs: &Obs) -> Result<(), CoaneError> {
    if !obs.is_enabled() {
        return Ok(());
    }
    if let Some(path) = cli.get("metrics-json") {
        let mut file =
            std::fs::File::create(path).map_err(|e| CoaneError::io(Path::new(path), e))?;
        obs.write_jsonl(&mut file).map_err(|e| CoaneError::io(Path::new(path), e))?;
        log.info(format!("wrote telemetry to {path} ({} event(s))", obs.num_events()));
    }
    if !log.quiet {
        eprint!("{}", obs.summary());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        eprintln!(
            "usage: coane-cli <generate|convert|embed|infer|evaluate|export-store|serve|query> [flags]"
        );
        return ExitCode::from(2);
    };
    let cli = Cli::parse(&args[1..]);
    let result = match command.as_str() {
        "generate" => cmd_generate(&cli),
        "convert" => cmd_convert(&cli),
        "embed" => cmd_embed(&cli),
        "infer" => cmd_infer(&cli),
        "evaluate" => cmd_evaluate(&cli),
        "export-store" => cmd_export_store(&cli),
        "serve" => cmd_serve(&cli),
        "query" => cmd_query(&cli),
        other => Err(CoaneError::config(format!("unknown command: {other}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn print_graph_summary(log: &Log, out: &str, graph: &AttributedGraph) {
    log.info(format!(
        "wrote {out}: {} nodes, {} edges, {} attrs, {} labels",
        graph.num_nodes(),
        graph.num_edges(),
        graph.attr_dim(),
        graph.num_labels()
    ));
}

fn cmd_generate(cli: &Cli) -> Result<(), CoaneError> {
    let seed: u64 = cli.num("seed", 42)?;
    let out = cli.req("out")?;
    let name = cli.req("preset")?;
    // `--preset scale --nodes N` is the parameterized million-node
    // generator (power-law degrees, planted communities, latent-factor
    // attributes); everything else is a fixed citation-network preset.
    let graph = if name.eq_ignore_ascii_case("scale") {
        let cfg = coane::datasets::ScaleConfig {
            seed,
            ..coane::datasets::ScaleConfig::with_nodes(cli.num("nodes", 100_000usize)?)
        };
        coane::datasets::scale_graph(&cfg).0
    } else {
        let preset = Preset::parse(name).ok_or_else(|| {
            CoaneError::config(
                "unknown preset (try: cora, citeseer, pubmed, webkb-cornell, flickr, scale)",
            )
        })?;
        let scale: f64 = cli.num("scale", 1.0)?;
        preset.generate_scaled(scale, seed).0
    };
    gio::save_json(&graph, Path::new(out))?;
    print_graph_summary(&Log::new(cli), out, &graph);
    Ok(())
}

fn cmd_convert(cli: &Cli) -> Result<(), CoaneError> {
    let out = cli.req("out")?;
    let graph = if let Some(edges) = cli.get("edges") {
        // Whitespace-separated `u v [w]` lines; `--nodes N` pins the node
        // count (ids >= N are then rejected instead of growing the graph).
        let num_nodes = cli.get("nodes").map(|v| v.parse::<usize>()).transpose().map_err(|e| {
            CoaneError::config(format!("--nodes must be a non-negative integer: {e}"))
        })?;
        gio::load_edge_list(Path::new(edges), num_nodes)?
    } else {
        let content = cli.req("content")?;
        let cites = cli.req("cites")?;
        gio::load_linqs(Path::new(content), Path::new(cites))?
    };
    gio::save_json(&graph, Path::new(out))?;
    print_graph_summary(&Log::new(cli), out, &graph);
    Ok(())
}

fn cmd_embed(cli: &Cli) -> Result<(), CoaneError> {
    let log = Log::new(cli);
    let obs = observer(cli)?;
    let method = cli.get("method").unwrap_or("coane").to_lowercase();
    let dim: usize = cli.num("dim", 128)?;
    let epochs: usize = cli.num("epochs", 10)?;
    let seed: u64 = cli.num("seed", 42)?;
    let threads: usize = cli.num("threads", CoaneConfig::default().threads)?;
    let log_every: usize = cli.num("log-every", 0)?;
    let graph = gio::load_json(Path::new(cli.req("graph")?))?;
    // Pure performance knob — embeddings are bit-identical for any value.
    coane::nn::pool::set_threads(threads);
    let out = cli.req("out")?;
    obs.event("run", &run_record(&method, &graph));
    let started = std::time::Instant::now();
    let embedding = match method.as_str() {
        "coane" => {
            let cfg = CoaneConfig {
                embed_dim: dim,
                epochs,
                seed,
                threads,
                // Memory-scaling knobs (DESIGN.md §2.12). All three are
                // bit-transparent: any setting reproduces the default
                // output exactly.
                max_cache_bytes: cli.num("max-cache-bytes", 0usize)?,
                walk_block_size: cli.num("walk-block", 0usize)?,
                coocc_block_size: cli.num("coocc-block", 0usize)?,
                ..Default::default()
            };
            let trainer = Coane::try_new(cfg.clone())?.with_observer(obs.clone());
            let every_epochs = cli.num("checkpoint-every", 1)?;
            let ck = cli
                .get("checkpoint-dir")
                .map(|dir| CheckpointConfig { every_epochs, ..CheckpointConfig::new(dir) });
            // `--log-every` reads its numbers straight out of the telemetry
            // stream: the trainer has already emitted this epoch's record by
            // the time the callback runs.
            let on_epoch = |e: usize, _z: &Matrix| {
                if log_every > 0 && (e + 1).is_multiple_of(log_every) {
                    match epoch_loss_from(&obs) {
                        Some((loss, secs)) => log
                            .info(format!("epoch {}/{epochs}: loss {loss:.4} ({secs:.2}s)", e + 1)),
                        None => log.info(format!("epoch {}/{epochs} done", e + 1)),
                    }
                }
            };
            let (z, model, stats) = trainer.try_fit_full(&graph, ck.as_ref(), on_epoch)?;
            if let Some(e) = stats.resumed_from_epoch {
                log.info(format!("resumed from checkpoint at epoch {e}"));
            }
            if stats.recoveries > 0 {
                log.info(format!(
                    "recovered from non-finite loss {} time(s); final lr {:e}",
                    stats.recoveries, stats.final_lr
                ));
            }
            if let Some(ck) = &ck {
                log.info(format!(
                    "wrote {} checkpoint(s) to {}",
                    stats.checkpoints_written,
                    ck.dir.display()
                ));
            }
            if let Some(model_path) = cli.get("save-model") {
                coane::core::save_model(Path::new(model_path), &model, &cfg, graph.attr_dim())?;
                log.info(format!("saved model to {model_path}"));
            }
            z
        }
        "deepwalk" => DeepWalk { config: SkipGramConfig { dim, seed, ..Default::default() } }
            .embed_observed(&graph, &obs),
        "node2vec" => Node2Vec {
            config: SkipGramConfig { dim, seed, ..Default::default() },
            p: cli.num("p", 1.0f32)?,
            q: cli.num("q", 1.0f32)?,
        }
        .embed_observed(&graph, &obs),
        "line" => Line { dim, seed, ..Default::default() }.embed_observed(&graph, &obs),
        "gae" => Gae { kind: GaeKind::Plain, dim, epochs: epochs * 10, seed, ..Default::default() }
            .embed_observed(&graph, &obs),
        "vgae" => {
            Gae { kind: GaeKind::Variational, dim, epochs: epochs * 10, seed, ..Default::default() }
                .embed_observed(&graph, &obs)
        }
        "graphsage" => GraphSage { dim, epochs: epochs * 6, seed, ..Default::default() }
            .embed_observed(&graph, &obs),
        "asne" => Asne { dim, epochs, seed, ..Default::default() }.embed_observed(&graph, &obs),
        "dane" => Dane { dim, epochs, seed, ..Default::default() }.embed_observed(&graph, &obs),
        "anrl" => Anrl { dim, epochs, seed, ..Default::default() }.embed_observed(&graph, &obs),
        "stne" => Stne { dim, epochs, seed, ..Default::default() }.embed_observed(&graph, &obs),
        "arga" => Arga { epochs: epochs * 10, dim, seed, ..Default::default() }
            .embed_observed(&graph, &obs),
        "arvga" => Arga { variational: true, epochs: epochs * 10, dim, seed, ..Default::default() }
            .embed_observed(&graph, &obs),
        other => return Err(CoaneError::config(format!("unknown method: {other}"))),
    };
    eval::io::save_embedding_csv(Path::new(out), embedding.as_slice(), embedding.cols())
        .map_err(|e| CoaneError::io(Path::new(out), e))?;
    log.info(format!(
        "wrote {out}: {}×{} embedding ({} via {method}, {:.1}s)",
        embedding.rows(),
        embedding.cols(),
        graph.num_nodes(),
        started.elapsed().as_secs_f64()
    ));
    finish_metrics(cli, &log, &obs)
}

/// Run-level telemetry record: method and graph shape.
fn run_record(method: &str, graph: &AttributedGraph) -> coane::obs::Value {
    use coane::obs::Value;
    let mut m = std::collections::BTreeMap::new();
    m.insert("method".to_string(), Value::String(method.to_string()));
    m.insert("nodes".to_string(), Value::Number(graph.num_nodes() as f64));
    m.insert("edges".to_string(), Value::Number(graph.num_edges() as f64));
    m.insert("attrs".to_string(), Value::Number(graph.attr_dim() as f64));
    Value::Object(m)
}

/// Pulls `(loss, seconds)` out of the most recent per-epoch telemetry
/// record, if one exists.
fn epoch_loss_from(obs: &Obs) -> Option<(f64, f64)> {
    use coane::obs::Value;
    let events = obs.events_of("epoch");
    let Value::Object(m) = events.last()? else { return None };
    let num = |k: &str| match m.get(k) {
        Some(Value::Number(x)) => Some(*x),
        _ => None,
    };
    Some((num("loss")?, num("seconds")?))
}

fn cmd_infer(cli: &Cli) -> Result<(), CoaneError> {
    let log = Log::new(cli);
    let obs = observer(cli)?;
    let (model, cfg) = coane::core::load_model(Path::new(cli.req("model")?))?;
    let graph = gio::load_json(Path::new(cli.req("graph")?))?;
    let nodes: Vec<u32> = match cli.get("nodes") {
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<u32>()
                    .map_err(|e| CoaneError::config(format!("bad node id {t:?}: {e}")))
            })
            .collect::<Result<_, _>>()?,
        None => (0..graph.num_nodes() as u32).collect(),
    };
    if let Some(&bad) = nodes.iter().find(|&&v| v as usize >= graph.num_nodes()) {
        return Err(CoaneError::graph(format!(
            "node {bad} out of range (graph has {})",
            graph.num_nodes()
        )));
    }
    let out = cli.req("out")?;
    let z = coane::core::embed_nodes_obs(&model, &cfg, &graph, &nodes, &obs);
    eval::io::save_embedding_csv(Path::new(out), z.as_slice(), z.cols())
        .map_err(|e| CoaneError::io(Path::new(out), e))?;
    log.info(format!("wrote {out}: {} inductively embedded nodes × {}", z.rows(), z.cols()));
    finish_metrics(cli, &log, &obs)
}

fn cmd_evaluate(cli: &Cli) -> Result<(), CoaneError> {
    let graph = gio::load_json(Path::new(cli.req("graph")?))?;
    let emb_path = cli.req("embedding")?;
    let (embedding, dim) = eval::io::load_embedding_csv(Path::new(emb_path))
        .map_err(|e| CoaneError::io(Path::new(emb_path), e))?;
    if embedding.len() != graph.num_nodes() * dim {
        return Err(CoaneError::graph(format!(
            "embedding rows ({}) don't match graph nodes ({})",
            embedding.len() / dim,
            graph.num_nodes()
        )));
    }
    let labels = graph.labels().ok_or_else(|| CoaneError::graph("graph has no labels"))?;
    let seed: u64 = cli.num("seed", 42)?;
    match cli.req("task")? {
        "cluster" => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let score = nmi_clustering(&embedding, dim, labels, &mut rng);
            println!("clustering NMI = {score:.4}");
        }
        "classify" => {
            let ratio: f64 = cli.num("ratio", 0.2)?;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (train, test) =
                coane::graph::split::node_label_split(graph.num_nodes(), ratio, &mut rng);
            let scores = classify_nodes(&embedding, dim, labels, &train, &test, 1e-3);
            println!(
                "classification @ {:.0}%: macro-F1 = {:.4}, micro-F1 = {:.4}",
                ratio * 100.0,
                scores.macro_f1,
                scores.micro_f1
            );
        }
        other => {
            return Err(CoaneError::config(format!("unknown task: {other} (use cluster|classify)")))
        }
    }
    Ok(())
}

/// Packs an embedding CSV into the versioned, CRC-checked binary store
/// format the server loads. `--ids` (optional) is a file with one external
/// id per line; without it, ids are row indices.
fn cmd_export_store(cli: &Cli) -> Result<(), CoaneError> {
    let log = Log::new(cli);
    let emb_path = cli.req("embedding")?;
    let out = cli.req("out")?;
    let precision = parse_precision(cli)?;
    let (embedding, dim) = eval::io::load_embedding_csv(Path::new(emb_path))
        .map_err(|e| CoaneError::io(Path::new(emb_path), e))?;
    let ids = match cli.get("ids") {
        None => None,
        Some(ids_path) => {
            let text = std::fs::read_to_string(ids_path)
                .map_err(|e| CoaneError::io(Path::new(ids_path), e))?;
            let ids: Vec<u64> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty())
                .map(|l| {
                    l.parse::<u64>()
                        .map_err(|e| CoaneError::parse(format!("bad node id {l:?}: {e}")))
                })
                .collect::<Result<_, _>>()?;
            Some(ids)
        }
    };
    let meta = cli.get("meta").unwrap_or("").to_string();
    let store =
        coane::serve::EmbeddingStore::new(embedding, dim, ids, meta)?.with_precision(precision)?;
    store.save(Path::new(out))?;
    log.info(format!(
        "wrote {out}: {} vectors × {dim} ({}, {} scan bytes)",
        store.len(),
        store.precision().name(),
        store.store_bytes()
    ));
    Ok(())
}

/// The `--precision {f32,int8}` flag (default f32 — byte-identical to
/// stores written before quantization existed).
fn parse_precision(cli: &Cli) -> Result<coane::serve::Precision, CoaneError> {
    let name = cli.get("precision").unwrap_or("f32");
    coane::serve::Precision::parse(name)
        .ok_or_else(|| CoaneError::config(format!("unknown precision {name:?} (f32, int8)")))
}

/// Loads an embedding store, builds the deterministic HNSW index, and
/// serves kNN / link-scoring / encoding over HTTP until `/shutdown`.
fn cmd_serve(cli: &Cli) -> Result<(), CoaneError> {
    let log = Log::new(cli);
    let defaults = coane::serve::ServerConfig::default();
    let server_config = coane::serve::ServerConfig {
        addr: cli.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
        threads: cli.num("http-threads", 4)?,
        addr_file: cli.get("addr-file").map(std::path::PathBuf::from),
        // Keep-alive idle timeout and slow-request deadline in seconds.
        keep_alive_timeout: cli.secs("keep-alive-timeout", defaults.keep_alive_timeout)?,
        read_deadline: cli.secs("read-deadline", defaults.read_deadline)?,
    };
    // `--precision` re-encodes the scoring table at load; absent, the
    // store serves at the precision it was exported with. Conversion is
    // lossless in any direction: quantized stores carry the exact f32
    // sidecar, so the result is byte-identical to an export at that
    // precision. In mutable mode this store only seeds a fresh
    // --data-dir — an existing data-dir keeps the precision its
    // generations were created with.
    let mut store = coane::serve::EmbeddingStore::open(Path::new(cli.req("store")?))?;
    if cli.get("precision").is_some() {
        store = store.with_precision(parse_precision(cli)?)?;
    }
    let threads: usize = cli.num("threads", CoaneConfig::default().threads)?;
    coane::nn::pool::set_threads(threads);
    let scorer_name = cli.get("scorer").unwrap_or("cosine");
    let scorer = coane::nn::Scorer::parse(scorer_name)
        .ok_or_else(|| CoaneError::config(format!("unknown scorer {scorer_name:?}")))?;
    let hnsw = coane::serve::HnswConfig {
        m: cli.num("m", coane::serve::HnswConfig::default().m)?,
        ef_construction: cli
            .num("ef-construction", coane::serve::HnswConfig::default().ef_construction)?,
        ef_search: cli.num("ef-search", coane::serve::HnswConfig::default().ef_search)?,
        seed: cli.num("hnsw-seed", coane::serve::HnswConfig::default().seed)?,
        max_generation: cli
            .num("max-generation", coane::serve::HnswConfig::default().max_generation)?,
    };
    let inductive = match (cli.get("model"), cli.get("graph")) {
        (Some(model_path), Some(graph_path)) => {
            let (model, config) = coane::core::load_model(Path::new(model_path))?;
            let graph = gio::load_json(Path::new(graph_path))?;
            Some(coane::serve::InductiveContext { model, config, graph })
        }
        (None, None) => None,
        _ => {
            return Err(CoaneError::config(
                "--model and --graph enable /encode and must be given together",
            ))
        }
    };
    let started = std::time::Instant::now();
    let index = coane::serve::HnswIndex::build(&store, scorer, hnsw);
    log.info(format!(
        "built HNSW index over {} vectors ({} edges, {:.2}s)",
        store.len(),
        index.num_edges(),
        started.elapsed().as_secs_f64()
    ));
    let limits = coane::serve::EngineLimits {
        max_batch: cli.num("max-batch", coane::serve::EngineLimits::default().max_batch)?,
        queue_cap: cli.num("queue-cap", coane::serve::EngineLimits::default().queue_cap)?,
        rerank_factor: cli
            .num("rerank-factor", coane::serve::EngineLimits::default().rerank_factor)?,
    };
    // /stats reads live telemetry, so the server always observes itself
    // (observation-only: answers are bit-identical either way).
    let obs = Obs::enabled();
    let engine = if cli.flag("mutable") {
        let data_dir = cli.req("data-dir").map_err(|_| {
            CoaneError::config("--mutable needs --data-dir for the generation files")
        })?;
        let mutation = coane::serve::MutationConfig {
            dir: std::path::PathBuf::from(data_dir),
            compact_every: cli.num("compact-every", 64usize)?,
        };
        let (engine, report) = coane::serve::QueryEngine::new_mutable(
            store,
            index,
            inductive,
            limits,
            obs.clone(),
            mutation,
        )?;
        log.info(format!(
            "mutable store at {data_dir}: generation {} seq {} ({} mutation(s) replayed{})",
            report.generation,
            report.seq,
            report.replayed,
            if report.fell_back { ", fell back to previous generation" } else { "" }
        ));
        for note in &report.notes {
            log.info(format!("recovery: {note}"));
        }
        std::sync::Arc::new(engine)
    } else {
        std::sync::Arc::new(coane::serve::QueryEngine::new(
            store,
            index,
            inductive,
            limits,
            obs.clone(),
        )?)
    };
    let server = coane::serve::HttpServer::bind(engine, server_config)?;
    log.info(format!("listening on {}", server.local_addr()));
    server.run()?;
    log.info("shutdown requested; server stopped");
    if let Some(path) = cli.get("metrics-json") {
        let mut file =
            std::fs::File::create(path).map_err(|e| CoaneError::io(Path::new(path), e))?;
        obs.write_jsonl(&mut file).map_err(|e| CoaneError::io(Path::new(path), e))?;
        log.info(format!("wrote telemetry to {path}"));
    }
    Ok(())
}

/// Waits for the addr-file rendezvous: the server writes its bound address
/// after binding, so a script can start both sides without racing. Polls
/// until the file holds an address or the deadline passes (typed error —
/// the caller's CI step fails fast instead of hanging).
fn wait_for_addr_file(path: &str, timeout: std::time::Duration) -> Result<String, CoaneError> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return Ok(addr.to_string());
            }
        }
        if std::time::Instant::now() >= deadline {
            return Err(CoaneError::config(format!(
                "server address file {path} did not appear within {:.1}s — is the server up?",
                timeout.as_secs_f64()
            )));
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// Sends one JSON request to a running server and prints the response body
/// (the result) to stdout. With `--concurrency`, switches to load mode:
/// N keep-alive clients send the same request `--repeat` times each and a
/// summary JSON (qps, ok/shed/failed) is printed instead.
fn cmd_query(cli: &Cli) -> Result<(), CoaneError> {
    let addr = match (cli.get("addr"), cli.get("addr-file")) {
        (Some(addr), _) => addr.to_string(),
        (None, Some(path)) => {
            wait_for_addr_file(path, cli.secs("addr-timeout", Duration::from_secs(10))?)?
        }
        (None, None) => return Err(CoaneError::config("need --addr or --addr-file")),
    };
    let route = cli.req("route")?;
    let path = if route.starts_with('/') { route.to_string() } else { format!("/{route}") };
    let method = match path.as_str() {
        "/healthz" | "/stats" => "GET",
        _ => "POST",
    };
    let body = cli.get("body").unwrap_or("");
    if let Some(concurrency) = cli.get("concurrency") {
        let concurrency: usize = concurrency
            .parse()
            .map_err(|e| CoaneError::config(format!("bad --concurrency: {e}")))?;
        let repeat: usize = cli.num("repeat", 1)?;
        return query_load(&addr, method, &path, body, concurrency.max(1), repeat.max(1));
    }
    let (status, response) = coane::serve::http_request(&addr, method, &path, body)?;
    if status == 429 {
        eprintln!("{response}");
        return Err(CoaneError::busy(format!("server shed the request to {path}"), 1));
    }
    if !(200..300).contains(&status) {
        eprintln!("{response}");
        return Err(CoaneError::config(format!("server returned HTTP {status} for {path}")));
    }
    println!("{response}");
    Ok(())
}

/// Load mode: `concurrency` threads, each with one persistent keep-alive
/// [`coane::serve::HttpClient`], each sending `repeat` identical requests.
/// Shed responses (429) count separately from failures — under deliberate
/// overload they are the server working as designed. The summary JSON goes
/// to stdout; a transport-level failure makes the command fail.
fn query_load(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    concurrency: usize,
    repeat: usize,
) -> Result<(), CoaneError> {
    let started = std::time::Instant::now();
    let workers: Vec<_> = (0..concurrency)
        .map(|_| {
            let (addr, method, path, body) =
                (addr.to_string(), method.to_string(), path.to_string(), body.to_string());
            std::thread::spawn(move || {
                let mut client = coane::serve::HttpClient::new(addr);
                let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
                for _ in 0..repeat {
                    match client.request(&method, &path, &body) {
                        Ok((status, _)) if (200..300).contains(&status) => ok += 1,
                        Ok((429, _)) => shed += 1,
                        Ok(_) | Err(_) => failed += 1,
                    }
                }
                (ok, shed, failed)
            })
        })
        .collect();
    let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
    for w in workers {
        let (o, s, f) = w.join().map_err(|_| CoaneError::config("load worker panicked"))?;
        ok += o;
        shed += s;
        failed += f;
    }
    let elapsed = started.elapsed().as_secs_f64();
    let total = (concurrency * repeat) as u64;
    println!(
        "{{\"concurrency\":{concurrency},\"repeat\":{repeat},\"total\":{total},\"ok\":{ok},\"shed\":{shed},\"failed\":{failed},\"elapsed_secs\":{elapsed:.4},\"qps\":{:.1}}}",
        total as f64 / elapsed.max(1e-9)
    );
    if failed > 0 {
        return Err(CoaneError::config(format!(
            "{failed} of {total} requests failed outright (ok {ok}, shed {shed})"
        )));
    }
    Ok(())
}
