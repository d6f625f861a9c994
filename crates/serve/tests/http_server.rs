//! End-to-end HTTP integration: train a tiny CoANE model, export the
//! embedding to a store, stand the server up on a loopback port, and drive
//! every route — happy paths, error paths, and the JSON schema — through
//! real sockets.

use std::sync::Arc;

use coane_core::{Coane, CoaneConfig};
use coane_datasets::Preset;
use coane_graph::AttributedGraph;
use coane_nn::Scorer;
use coane_serve::{
    http_request, EmbeddingStore, EngineLimits, HnswConfig, HnswIndex, HttpServer,
    InductiveContext, QueryEngine, ServerConfig,
};
use serde::{Deserialize, Value};
use serde_json::from_str;

/// Tiny-but-real training run shared by every test in this file.
fn trained_fixture() -> (AttributedGraph, EmbeddingStore) {
    let (graph, _) = Preset::Cora.generate_scaled(0.04, 11);
    let cfg = tiny_config();
    let trainer = Coane::try_new(cfg).expect("valid config");
    let (z, _model, _stats) = trainer.try_fit_full(&graph, None, |_, _| {}).expect("fit");
    let store = EmbeddingStore::new(z.as_slice().to_vec(), z.cols(), None, "http test fixture")
        .expect("store");
    (graph, store)
}

fn tiny_config() -> CoaneConfig {
    CoaneConfig {
        embed_dim: 16,
        epochs: 2,
        walk_length: 20,
        decoder_hidden: (32, 32),
        threads: 2,
        seed: 11,
        ..Default::default()
    }
}

fn start_server(with_model: bool) -> (String, std::thread::JoinHandle<()>) {
    let (graph, store) = trained_fixture();
    let inductive = if with_model {
        let cfg = tiny_config();
        let trainer = Coane::try_new(cfg.clone()).expect("valid config");
        let (_z, model, _stats) = trainer.try_fit_full(&graph, None, |_, _| {}).expect("fit");
        Some(InductiveContext { model, config: cfg, graph })
    } else {
        None
    };
    let index = HnswIndex::build(&store, Scorer::Cosine, HnswConfig::default());
    let engine = QueryEngine::new(
        store,
        index,
        inductive,
        EngineLimits { max_batch: 64, queue_cap: 8, ..Default::default() },
        coane_obs::Obs::enabled(),
    )
    .expect("engine");
    let server = HttpServer::bind(
        Arc::new(engine),
        ServerConfig { addr: "127.0.0.1:0".into(), threads: 2, ..Default::default() },
    )
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let (status, _) = http_request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

#[derive(Deserialize)]
struct Health {
    status: String,
    nodes: usize,
    dim: usize,
    scorer: String,
    encode: bool,
}

#[derive(Deserialize)]
struct Neighbor {
    id: u64,
    score: f32,
}

#[derive(Deserialize)]
struct KnnResult {
    neighbors: Vec<Neighbor>,
}

#[derive(Deserialize)]
struct KnnResponse {
    k: usize,
    scorer: String,
    results: Vec<KnnResult>,
}

#[derive(Deserialize)]
struct LinkResponse {
    scorer: String,
    scores: Vec<f64>,
}

#[derive(Deserialize)]
struct EncodeResponse {
    dim: usize,
    embeddings: Vec<Vec<f32>>,
    neighbors: Option<Vec<KnnResult>>,
}

#[test]
fn all_routes_end_to_end() {
    let (addr, handle) = start_server(true);

    // /healthz reflects the engine.
    let (status, body) = http_request(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    let health: Health = from_str(&body).expect("health json");
    assert_eq!(health.status, "ok");
    assert!(health.nodes > 50);
    assert_eq!(health.dim, 16);
    assert_eq!(health.scorer, "cosine");
    assert!(health.encode);

    // /knn by id: k neighbors, excluding the query node itself, scores
    // descending.
    let (status, body) =
        http_request(&addr, "POST", "/knn", r#"{"ids":[0,1],"k":5}"#).expect("knn");
    assert_eq!(status, 200, "body: {body}");
    let knn: KnnResponse = from_str(&body).expect("knn json");
    assert_eq!(knn.k, 5);
    assert_eq!(knn.scorer, "cosine");
    assert_eq!(knn.results.len(), 2);
    for (qi, result) in knn.results.iter().enumerate() {
        assert_eq!(result.neighbors.len(), 5);
        assert!(result.neighbors.iter().all(|n| n.id != qi as u64), "self in neighbor list");
        for w in result.neighbors.windows(2) {
            assert!(w[0].score >= w[1].score, "scores not descending");
        }
    }

    // Exact and approximate agree on the top hit for an easy query.
    let (_, exact_body) =
        http_request(&addr, "POST", "/knn", r#"{"ids":[0],"k":3,"exact":true}"#).expect("exact");
    let exact: KnnResponse = from_str(&exact_body).expect("exact json");
    assert_eq!(exact.results[0].neighbors.len(), 3);

    // /score_links matches the shared eval scorer path.
    let (status, body) =
        http_request(&addr, "POST", "/score_links", r#"{"pairs":[[0,1],[2,3]],"scorer":"dot"}"#)
            .expect("links");
    assert_eq!(status, 200, "body: {body}");
    let links: LinkResponse = from_str(&body).expect("links json");
    assert_eq!(links.scorer, "dot");
    assert_eq!(links.scores.len(), 2);
    assert!(links.scores.iter().all(|s| s.is_finite()));

    // /encode embeds an unseen node attached to nodes 0 and 1, and k
    // composes a kNN lookup over the fresh embedding.
    let (status, body) = http_request(
        &addr,
        "POST",
        "/encode",
        r#"{"nodes":[{"attr_indices":[0,3],"attr_values":[1.0,0.5],"edges":[0,1]}],"k":4}"#,
    )
    .expect("encode");
    assert_eq!(status, 200, "body: {body}");
    let enc: EncodeResponse = from_str(&body).expect("encode json");
    assert_eq!(enc.dim, 16);
    assert_eq!(enc.embeddings.len(), 1);
    assert_eq!(enc.embeddings[0].len(), 16);
    assert!(enc.embeddings[0].iter().all(|x| x.is_finite()));
    let neighbors = enc.neighbors.expect("k was set");
    assert_eq!(neighbors.len(), 1);
    assert_eq!(neighbors[0].neighbors.len(), 4);

    // /stats exposes the per-class telemetry the requests above generated.
    let (status, body) = http_request(&addr, "GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    let stats: Value = from_str(&body).expect("stats json");
    let Value::Object(root) = &stats else { panic!("stats is not an object") };
    let Some(Value::Object(counters)) = root.get("counters") else {
        panic!("stats has no counters")
    };
    let count = |name: &str| match counters.get(name) {
        Some(Value::Number(x)) => *x as u64,
        _ => 0,
    };
    assert_eq!(count("serve/knn/requests"), 4, "2 + 1 exact + 1 via encode k");
    assert_eq!(count("serve/links/requests"), 2);
    assert_eq!(count("serve/encode/requests"), 1);

    // A non-finite attribute value (1e39 overflows f32) is a typed 400.
    let (status, body) = http_request(
        &addr,
        "POST",
        "/encode",
        r#"{"nodes":[{"attr_indices":[0,3],"attr_values":[1.0,1e39],"edges":[0,1]}]}"#,
    )
    .expect("inf encode");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("unseen node 0: attribute value 1 is not finite"), "body: {body}");

    shutdown(&addr, handle);
}

#[test]
fn error_paths_map_to_http_statuses() {
    let (addr, handle) = start_server(false);

    // Unknown route.
    let (status, _) = http_request(&addr, "POST", "/nope", "{}").expect("404");
    assert_eq!(status, 404);

    // Wrong method.
    let (status, _) = http_request(&addr, "GET", "/knn", "").expect("405");
    assert_eq!(status, 405);

    // Malformed JSON.
    let (status, body) = http_request(&addr, "POST", "/knn", "{not json").expect("parse");
    assert_eq!(status, 400, "body: {body}");

    // Unknown node id.
    let (status, body) =
        http_request(&addr, "POST", "/knn", r#"{"ids":[999999],"k":3}"#).expect("bad id");
    assert_eq!(status, 400, "body: {body}");

    // Wrong vector dimensionality.
    let (status, body) =
        http_request(&addr, "POST", "/knn", r#"{"vectors":[[1.0,2.0]],"k":3}"#).expect("bad dim");
    assert_eq!(status, 400, "body: {body}");

    // A query element that overflows f32 (1e39 → +inf) is named, not ranked.
    let mut vector = vec!["0.5".to_string(); 16];
    vector[3] = "1e39".to_string();
    let knn_inf = format!("{{\"vectors\":[[{}]],\"k\":3,\"exact\":true}}", vector.join(","));
    let (status, body) = http_request(&addr, "POST", "/knn", &knn_inf).expect("inf query");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("knn query 0: vector element 3 is not finite"), "body: {body}");

    // Scorer mismatch without exact=true.
    let (status, body) =
        http_request(&addr, "POST", "/knn", r#"{"ids":[0],"k":3,"scorer":"euclidean"}"#)
            .expect("scorer mismatch");
    assert_eq!(status, 400, "body: {body}");
    // ... but exact=true serves any scorer.
    let (status, body) = http_request(
        &addr,
        "POST",
        "/knn",
        r#"{"ids":[0],"k":3,"scorer":"euclidean","exact":true}"#,
    )
    .expect("exact euclidean");
    assert_eq!(status, 200, "body: {body}");

    // Oversized batch (max_batch = 64 in the fixture).
    let ids: Vec<String> = (0..65).map(|i| i.to_string()).collect();
    let body_json = format!("{{\"ids\":[{}],\"k\":3}}", ids.join(","));
    let (status, body) = http_request(&addr, "POST", "/knn", &body_json).expect("oversize");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("max_batch"), "body: {body}");

    // /encode without a loaded model.
    let (status, body) = http_request(
        &addr,
        "POST",
        "/encode",
        r#"{"nodes":[{"attr_indices":[0],"attr_values":[1.0],"edges":[0]}]}"#,
    )
    .expect("encode unavailable");
    assert_eq!(status, 400, "body: {body}");
    assert!(body.contains("no model"), "body: {body}");

    // Every error body is structured JSON with kind + message.
    let (_, body) = http_request(&addr, "POST", "/knn", r#"{"ids":[999999],"k":3}"#).expect("err");
    let err: Value = from_str(&body).expect("error body is JSON");
    let Value::Object(obj) = &err else { panic!("error body is not an object") };
    assert!(obj.contains_key("error") && obj.contains_key("kind"), "body: {body}");

    shutdown(&addr, handle);
}

#[test]
fn addr_file_rendezvous_and_store_roundtrip_serving() {
    // The CI path: save the store, reopen it from disk, serve with
    // --addr-file-style discovery, and check answers match the in-memory
    // store's exact scorer path.
    let (_graph, store) = trained_fixture();
    let path = std::env::temp_dir().join(format!("coane-http-store-{}", std::process::id()));
    store.save(&path).expect("save");
    let reopened = EmbeddingStore::open(&path).expect("open");
    let _ = std::fs::remove_file(&path);
    assert_eq!(reopened.vectors(), store.vectors());

    let addr_file = std::env::temp_dir().join(format!("coane-http-addr-{}", std::process::id()));
    let index = HnswIndex::build(&reopened, Scorer::Cosine, HnswConfig::default());
    let engine = QueryEngine::new(
        reopened,
        index,
        None,
        EngineLimits::default(),
        coane_obs::Obs::disabled(),
    )
    .expect("engine");
    let server = HttpServer::bind(
        Arc::new(engine),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: 1,
            addr_file: Some(addr_file.clone()),
            ..Default::default()
        },
    )
    .expect("bind");
    let bound = server.local_addr().to_string();
    let from_file = std::fs::read_to_string(&addr_file).expect("addr file written");
    let _ = std::fs::remove_file(&addr_file);
    assert_eq!(from_file.trim(), bound, "addr file must hold the bound address");

    let handle = std::thread::spawn(move || server.run().expect("run"));
    let (status, body) = http_request(&bound, "POST", "/knn", r#"{"ids":[3],"k":2}"#).expect("knn");
    assert_eq!(status, 200, "body: {body}");
    shutdown(&bound, handle);
}
