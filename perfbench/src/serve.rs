//! The serving half of a workload: a mutable `QueryEngine` over the trained
//! store behind `HttpServer` on loopback, driven by the seeded load phases,
//! then checked against a `BTreeMap` oracle of acknowledged mutations and
//! against direct engine calls.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use coane_core::{embed_nodes, Obs};
use coane_graph::NodeId;
use coane_nn::Scorer;
use coane_serve::http::{DeleteResponse, KnnResponse, KnnResult, Neighbor, UpsertResponse};
use coane_serve::{
    knn_exact, EngineLimits, HttpClient, HttpServer, InductiveContext, KnnParams, KnnTarget,
    MutationConfig, QueryEngine, ServerConfig, UnseenNode, UpsertItem, UpsertSource,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::load::{self, Class, Outcome, Request, Tally};
use crate::stats::{median, quantile, timed};
use crate::train::{extend_graph, NewNode, Setup, THREADS};
use crate::{Metrics, Mix, Spec};

const K: usize = 10;
/// Offered `/delete` rate of the write mix, requests/s.
const DELETE_RATE: f64 = 15.0;
/// HTTP answers compared byte for byte with direct engine answers.
const CHECKED_QUERIES: usize = 64;
/// Queries scored against the brute-force oracle for `recall_at_10`.
const RECALL_QUERIES: usize = 200;

/// A mutation as scheduled, kept beside its request to replay acks.
#[derive(Clone, Debug)]
enum Op {
    Upsert(u64, Vec<f32>),
    Delete(u64),
}

/// Seeded request bodies over the workload's id pools.
struct Traffic<'a> {
    s: &'a Setup,
    /// Base ids that are never deleted: every read and overwrite uses them.
    safe: Vec<u64>,
    /// Base ids reserved for deletion, each deleted at most once.
    doomed: Vec<u64>,
    next_new: u64,
    ops: Vec<Option<Op>>,
    /// Share of upserts that overwrite a base row instead of adding one.
    overwrite_share: f64,
}

fn vector_json(v: &[f32]) -> String {
    // Through f64: every f32 prints exactly and parses back to itself.
    let parts: Vec<String> = v.iter().map(|&x| format!("{}", x as f64)).collect();
    format!("[{}]", parts.join(","))
}

/// `row` plus uniform noise of about a tenth of its per-component scale.
fn nudge(row: &[f32], rng: &mut ChaCha8Rng) -> Vec<f32> {
    let scale = 0.2 * row.iter().map(|x| x * x).sum::<f32>().sqrt() / (row.len() as f32).sqrt();
    row.iter().map(|&x| x + (rng.gen::<f32>() - 0.5) * scale).collect()
}

impl Traffic<'_> {
    fn pick(&self, rng: &mut ChaCha8Rng) -> u64 {
        self.safe[rng.gen_range(0..self.safe.len())]
    }

    /// A random stored row nudged off itself; see [`Traffic::refresh`].
    fn nearby(&self, rng: &mut ChaCha8Rng) -> Vec<f32> {
        self.refresh(self.pick(rng), rng)
    }

    /// Row `id` nudged off itself, rounded to multiples of 2⁻¹⁶ so the
    /// JSON round trip is exact.
    fn refresh(&self, id: u64, rng: &mut ChaCha8Rng) -> Vec<f32> {
        let noisy = nudge(self.s.store.row(id as usize), rng);
        noisy.iter().map(|&x| (x * 65536.0).round() / 65536.0).collect()
    }

    fn encode_node(&self, rng: &mut ChaCha8Rng) -> NewNode {
        let g = &self.s.split.train_graph;
        let v = self.pick(rng) as NodeId;
        let (idx, val) = g.attrs().row(v);
        let mut edges = vec![v];
        if let Some(&u) = g.neighbors_of(v).first() {
            edges.push(u);
        }
        (idx.iter().copied().zip(val.iter().copied()).collect(), edges)
    }

    fn body(&mut self, class: Class, rng: &mut ChaCha8Rng) -> String {
        let mut op = None;
        let body = match class {
            Class::Knn => format!("{{\"ids\":[{}],\"k\":{K}}}", self.pick(rng)),
            Class::KnnExact => format!(
                "{{\"vectors\":[{}],\"k\":{K},\"exact\":true}}",
                vector_json(&self.nearby(rng))
            ),
            Class::Links => {
                let pairs: Vec<String> =
                    (0..8).map(|_| format!("[{},{}]", self.pick(rng), self.pick(rng))).collect();
                format!("{{\"pairs\":[{}]}}", pairs.join(","))
            }
            Class::Encode => {
                let (attrs, edges) = self.encode_node(rng);
                let idx: Vec<String> = attrs.iter().map(|a| a.0.to_string()).collect();
                let val: Vec<String> = attrs.iter().map(|a| format!("{}", a.1 as f64)).collect();
                let e: Vec<String> = edges.iter().map(|e| e.to_string()).collect();
                format!(
                    "{{\"nodes\":[{{\"attr_indices\":[{}],\"attr_values\":[{}],\"edges\":[{}]}}]}}",
                    idx.join(","),
                    val.join(","),
                    e.join(",")
                )
            }
            Class::Upsert => {
                // An overwrite refreshes a row with a nudged copy of
                // itself, so the index's links stay meaningful; a new id
                // lands near a random row.
                let (id, v) = if rng.gen::<f64>() < self.overwrite_share {
                    let id = self.pick(rng);
                    (id, self.refresh(id, rng))
                } else {
                    self.next_new += 1;
                    (self.next_new, self.nearby(rng))
                };
                let body =
                    format!("{{\"nodes\":[{{\"id\":{id},\"vector\":{}}}]}}", vector_json(&v));
                op = Some(Op::Upsert(id, v));
                body
            }
            Class::Delete => {
                let id = self.doomed.pop().expect("delete pool sized for the schedule");
                op = Some(Op::Delete(id));
                format!("{{\"ids\":[{id}]}}")
            }
        };
        self.ops.push(op);
        body
    }

    /// A segment of `seconds` at the given per-class rates, with the
    /// mutation (if any) behind each request.
    fn open(
        &mut self,
        rng: &mut ChaCha8Rng,
        seconds: f64,
        rates: &[(Class, f64)],
    ) -> (Vec<Request>, Vec<Option<Op>>) {
        let requests = load::fixed_rate_schedule(rng, seconds, rates, |c, r| self.body(c, r));
        (requests, std::mem::take(&mut self.ops))
    }
}

const OPEN_NAMES: [&str; 4] =
    ["bench.open.sent", "bench.open.ok", "bench.open.shed", "bench.open.failed"];
const CLOSED_NAMES: [&str; 4] =
    ["bench.closed.sent", "bench.closed.ok", "bench.closed.shed", "bench.closed.failed"];

/// The read mix in requests/s: mostly `/knn`, some link scoring and
/// inductive encoding.
const READ_MIX: [(Class, f64); 4] =
    [(Class::Knn, 1000.0), (Class::KnnExact, 100.0), (Class::Links, 20.0), (Class::Encode, 20.0)];

/// What the serving phases measured and whether the checks passed.
pub struct ServeReport {
    pub tally: Tally,
    pub checks: Vec<(&'static str, bool)>,
    pub generator_late_p99_ms: f64,
}

/// Runs the serving half of `spec`. `seconds` is the measured traffic time.
pub fn serve(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    s: Setup,
    m: &mut Metrics,
) -> ServeReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x10ad);
    let n = s.store.len() as u64;
    let mut ids: Vec<u64> = (0..n).collect();
    // Fisher-Yates on the seeded stream.
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..i + 1));
    }
    let doomed_n = match spec.mix {
        Mix::Read => 0,
        Mix::Write => ((DELETE_RATE * seconds * 2.0) as usize + 64).min(ids.len() / 4),
    };
    let doomed = ids.split_off(ids.len() - doomed_n);
    let mut t = Traffic {
        s: &s,
        safe: ids,
        doomed,
        next_new: 1 << 40,
        ops: Vec::new(),
        overwrite_share: 0.0,
    };

    // Open-loop segments in run order, and the closed loop's request list
    // (a schedule whose due times the closed loop ignores).
    let mut segments: Vec<(Vec<Request>, Vec<Option<Op>>)> = Vec::new();
    let (closed_mix, closed_s) = match spec.mix {
        Mix::Read => {
            segments.push(t.open(&mut rng, seconds * 0.4, &READ_MIX));
            let closed = t.open(&mut rng, 8.0, &READ_MIX).0;
            // Refreshes only: the store keeps its size, so every upsert
            // costs the same and the segment can run fast enough to fill
            // two p99 windows.
            t.overwrite_share = 1.0;
            segments.push(t.open(&mut rng, seconds * 0.45, &[(Class::Upsert, 150.0)]));
            (closed, seconds * 0.15)
        }
        Mix::Write => {
            t.overwrite_share = 0.4;
            let rates = [(Class::Knn, 150.0), (Class::Upsert, 55.0), (Class::Delete, DELETE_RATE)];
            segments.push(t.open(&mut rng, seconds * 0.65, &rates));
            let closed = t.open(&mut rng, 8.0, &READ_MIX).0;
            // Encoding on its own: on the shared lane a 10 ms encode would
            // hold the writes queued behind it.
            segments.push(t.open(&mut rng, seconds * 0.15, &[(Class::Encode, 30.0)]));
            (closed, seconds * 0.2)
        }
    };
    let open_ops: Vec<&Option<Op>> = segments.iter().flat_map(|seg| &seg.1).collect();
    let recall_rng_seed = seed ^ 0x2ec4;
    let check_queries: Vec<KnnTarget> = (0..CHECKED_QUERIES)
        .map(|i| {
            if i % 4 == 3 {
                KnnTarget::Vector(t.nearby(&mut rng))
            } else {
                KnnTarget::Id(t.pick(&mut rng))
            }
        })
        .collect();
    let trace_ids: Vec<u64> = (0..200).map(|_| t.pick(&mut rng)).collect();
    let trace_vecs: Vec<Vec<f32>> = (0..50).map(|_| t.nearby(&mut rng)).collect();
    let trace_nodes: Vec<NewNode> = (0..20).map(|_| t.encode_node(&mut rng)).collect();
    let safe = t.safe.clone();
    drop(t);

    let Setup { split, cfg, fit, store, index, .. } = s;
    let graph = split.train_graph;
    let mut oracle: BTreeMap<u64, Vec<f32>> =
        (0..store.len()).map(|r| (store.id_of(r), store.row(r).to_vec())).collect();

    if trace {
        let base_n = graph.num_nodes();
        let mut enc = Vec::new();
        for node in &trace_nodes {
            let ext = extend_graph(&graph, std::slice::from_ref(node));
            enc.push(timed(|| embed_nodes(&fit.model, &cfg, &ext, &[base_n as NodeId])).0 * 1e3);
        }
        m.insert("core.encode_ms", (median(&enc), "ms"));
        let hnsw: Vec<f64> = trace_ids
            .iter()
            .map(|&id| timed(|| index.knn(&store, store.row(id as usize), K)).0 * 1e6)
            .collect();
        m.insert("serve.hnsw_knn_us", (median(&hnsw), "us"));
        let exact: Vec<f64> = trace_vecs
            .iter()
            .map(|q| timed(|| knn_exact(&store, q, K, Scorer::Cosine)).0 * 1e6)
            .collect();
        m.insert("serve.exact_knn_us", (median(&exact), "us"));
        m.insert("serve.store_bytes", (store.store_bytes() as f64, "bytes"));
    }

    let dir = PathBuf::from(".perfbench_run").join(format!("{}-{}", spec.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = if trace { Obs::enabled() } else { Obs::disabled() };
    let (engine, _) = QueryEngine::new_mutable(
        store,
        index,
        Some(InductiveContext { model: fit.model, config: cfg, graph }),
        EngineLimits::default(),
        obs.clone(),
        MutationConfig { dir: dir.clone(), compact_every: spec.compact_every },
    )
    .expect("mutable engine boots on a fresh data directory");
    let engine = Arc::new(engine);
    let approx = KnnParams { k: K, scorer: Scorer::Cosine, exact: false };

    if trace {
        trace_engine(&engine, &trace_ids, &trace_nodes, &safe, &mut oracle, m);
    }

    let server = HttpServer::bind(
        Arc::clone(&engine),
        ServerConfig { addr: "127.0.0.1:0".into(), threads: THREADS, ..Default::default() },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let mut outcomes: Vec<Outcome> = load::run_open(&addr, &segments[0].0);
    let (closed_tally, read_qps) = load::run_closed(&addr, &closed_mix, closed_s);
    for seg in &segments[1..] {
        outcomes.extend(load::run_open(&addr, &seg.0));
    }
    engine.wait_compactions();

    // Oracle: acknowledged mutations in sequence order.
    let mut acked: Vec<(u64, &Op)> = Vec::new();
    for (o, op) in outcomes.iter().zip(open_ops) {
        let (Some(op), Some(body), 200) = (op, &o.body, o.status) else { continue };
        let seq = match op {
            Op::Upsert(..) => serde_json::from_str::<UpsertResponse>(body).map(|r| r.seq),
            Op::Delete(_) => serde_json::from_str::<DeleteResponse>(body).map(|r| r.seq),
        };
        acked.push((seq.expect("mutation ack parses"), op));
    }
    acked.sort_by_key(|a| a.0);
    for (_, op) in acked {
        match op {
            Op::Upsert(id, v) => {
                oracle.insert(*id, v.clone());
            }
            Op::Delete(id) => {
                oracle.remove(id);
            }
        }
    }

    let mut checks = Vec::new();
    let view = engine.view();
    let vstore = view.store();
    let live: BTreeMap<u64, &[f32]> = (0..vstore.len())
        .filter(|&r| !view.is_dead(r))
        .map(|r| (vstore.id_of(r), vstore.row(r)))
        .collect();
    let same_live = live.len() == oracle.len()
        && live.iter().zip(&oracle).all(|((a, va), (b, vb))| {
            a == b && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
        });
    checks.push(("live rows equal the oracle of acknowledged mutations", same_live));

    let mut client = HttpClient::new(addr.clone());
    let stamp = view.stamp();
    let mut identical = true;
    for q in &check_queries {
        let body = match q {
            KnnTarget::Id(id) => format!("{{\"ids\":[{id}],\"k\":{K}}}"),
            KnnTarget::Vector(v) => format!("{{\"vectors\":[{}],\"k\":{K}}}", vector_json(v)),
        };
        let http = client.request("POST", "/knn", &body).map(|r| r.1).unwrap_or_default();
        let direct = engine.knn(std::slice::from_ref(q), approx).expect("direct knn");
        let expect = KnnResponse {
            k: K,
            scorer: Scorer::Cosine.name().into(),
            generation: stamp.generation,
            seq: stamp.seq,
            results: direct
                .into_iter()
                .map(|a| KnnResult {
                    neighbors: a
                        .neighbors
                        .into_iter()
                        .map(|(id, score)| Neighbor { id, score })
                        .collect(),
                })
                .collect(),
        };
        identical &= serde_json::to_string(&expect).expect("serialize") == http;
    }
    checks.push(("HTTP /knn answers equal direct QueryEngine::knn byte for byte", identical));

    // Recall of the served approximate answers against brute force over
    // the oracle's live rows.
    let mut rrng = ChaCha8Rng::seed_from_u64(recall_rng_seed);
    let live_ids: Vec<u64> = oracle.keys().copied().collect();
    let mut recall = 0.0;
    for _ in 0..RECALL_QUERIES {
        let base = &oracle[&live_ids[rrng.gen_range(0..live_ids.len())]];
        let q = nudge(base, &mut rrng);
        let mut exact: Vec<(f32, u64)> =
            oracle.iter().map(|(&id, v)| (Scorer::Cosine.score(&q, v), id)).collect();
        exact.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        // Ties at the k-th score count as hits whichever tied row comes back.
        let kth = exact[K - 1].0;
        let got = engine.knn(&[KnnTarget::Vector(q.clone())], approx).expect("recall query");
        let hits = got[0]
            .neighbors
            .iter()
            .filter(|(id, _)| oracle.get(id).is_some_and(|v| Scorer::Cosine.score(&q, v) >= kth))
            .count();
        recall += hits as f64 / K as f64;
    }
    let recall = recall / RECALL_QUERIES as f64;
    checks.push(("recall@10 at least 0.5", recall >= 0.5));

    let (status, _) = client.request("POST", "/shutdown", "").unwrap_or((0, String::new()));
    drop(client);
    let ran = server_thread.join().map(|r| r.is_ok()).unwrap_or(false);
    checks.push(("server shut down cleanly", status == 200 && ran));

    let latencies = |classes: &[Class]| -> Vec<f64> {
        let picked = outcomes.iter().filter(|o| classes.contains(&o.class));
        picked.map(|o| o.latency_or_inf() * 1e3).collect()
    };
    let knn = latencies(&[Class::Knn, Class::KnnExact]);
    let enc = latencies(&[Class::Encode]);
    let ups = latencies(&[Class::Upsert]);
    let open_tally = Tally::of(&outcomes);
    let mut tally = open_tally;
    tally.add(closed_tally);
    // On the shared two-core host the `/knn` and `/upsert` tails sit where
    // scheduler and compaction stalls begin and spread across seeds beyond
    // any allowed bound; they are reported by the traced run only.
    m.insert("knn_p50_ms", (quantile(&knn, 0.5), "ms"));
    m.insert("encode_p90_ms", (quantile(&enc, 0.9), "ms"));
    m.insert("upsert_p50_ms", (quantile(&ups, 0.5), "ms"));
    m.insert("bench.knn_p99_ms", (quantile(&knn, 0.99), "ms"));
    m.insert("bench.upsert_p99_ms", (quantile(&ups, 0.99), "ms"));
    m.insert("bench.encode_p50_ms", (quantile(&enc, 0.5), "ms"));
    for (what, v) in [("knn", &knn), ("encode", &enc), ("upsert", &ups)] {
        let q: Vec<String> = [0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
            .iter()
            .map(|&p| format!("{:.2}", quantile(v, p)))
            .collect();
        eprintln!("perfbench: {what} ms at p90/95/98/99/99.5/99.9: {}", q.join(" "));
    }
    m.insert("read_qps", (read_qps, "req/s"));
    m.insert("recall_at_10", (recall, "fraction"));
    m.insert("ok_frac", (tally.ok as f64 / tally.sent as f64, "fraction"));
    eprintln!(
        "perfbench: samples knn={} encode={} upsert={} closed={}",
        knn.len(),
        enc.len(),
        ups.len(),
        closed_tally.sent
    );
    let late: Vec<f64> = outcomes.iter().map(|o| o.late_s * 1e3).collect();
    let generator_late_p99_ms = quantile(&late, 0.99);

    if trace {
        let ids_knn: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.ok() && o.class == Class::Knn)
            .map(|o| o.latency_s * 1e6)
            .collect();
        let engine_knn_us = m.get("serve.engine_knn_us").map_or(0.0, |v| v.0);
        m.insert("serve.http_overhead_us", (median(&ids_knn) - engine_knn_us, "us"));
        m.insert("serve.shed", (obs.counter("serve/shed") as f64, "count"));
        let gauge_max = |name: &str| obs.gauge_stat(name).map_or(0.0, |g| g.max);
        m.insert("serve.queue_depth_max", (gauge_max("serve/queue_depth"), "count"));
        let batches = obs.counter("serve/knn/batches").max(1) as f64;
        m.insert(
            "serve.coalesced_per_round",
            (obs.counter("serve/knn/coalesced") as f64 / batches, "ratio"),
        );
        let scope = |suffix: &str| {
            obs.scopes()
                .into_iter()
                .filter(|(p, _)| p.ends_with(suffix))
                .fold((0.0, 0u64), |acc, (_, st)| {
                    (acc.0 + st.total.as_secs_f64(), acc.1 + st.calls)
                })
        };
        let (apply_s, apply_calls) = scope("serve/mut/apply");
        m.insert("serve.mut_apply_ms", (apply_s * 1e3 / apply_calls.max(1) as f64, "ms"));
        m.insert("serve.compactions", (obs.counter("serve/mut/compactions") as f64, "count"));
        m.insert("serve.compact_s", (scope("serve/mut/compact").0, "s"));
        m.insert("serve.swap_s", (scope("serve/mut/swap").0, "s"));
        m.insert("serve.wal_bytes", (gauge_max("serve/mut/wal_bytes"), "bytes"));
        m.insert("serve.tombstones_max", (gauge_max("serve/mut/tombstones"), "count"));
        m.insert("bench.generator_late_p99_ms", (generator_late_p99_ms, "ms"));
        for (names, tl) in [(OPEN_NAMES, open_tally), (CLOSED_NAMES, closed_tally)] {
            for (name, v) in names.into_iter().zip([tl.sent, tl.ok, tl.shed, tl.failed]) {
                m.insert(name, (v as f64, "count"));
            }
        }
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_run");
    ServeReport { tally, checks, generator_late_p99_ms }
}

/// Direct `QueryEngine` calls, timed one by one; the mutations go into the
/// oracle like any acknowledged HTTP mutation.
fn trace_engine(
    engine: &QueryEngine,
    ids: &[u64],
    nodes: &[NewNode],
    safe: &[u64],
    oracle: &mut BTreeMap<u64, Vec<f32>>,
    m: &mut Metrics,
) {
    let approx = KnnParams { k: K, scorer: Scorer::Cosine, exact: false };
    let knn: Vec<f64> = ids
        .iter()
        .map(|&id| timed(|| engine.knn(&[KnnTarget::Id(id)], approx).expect("knn")).0 * 1e6)
        .collect();
    m.insert("serve.engine_knn_us", (median(&knn), "us"));
    let links: Vec<f64> = ids
        .chunks(8)
        .map(|c| {
            let pairs: Vec<(u64, u64)> =
                c.iter().map(|&a| (a, safe[a as usize % safe.len()])).collect();
            timed(|| engine.score_links(&pairs, Scorer::Cosine).expect("links")).0 * 1e6
        })
        .collect();
    m.insert("serve.engine_links_us", (median(&links), "us"));
    let enc: Vec<f64> = nodes
        .iter()
        .map(|(attrs, edges)| {
            let node = UnseenNode {
                attr_indices: attrs.iter().map(|a| a.0).collect(),
                attr_values: attrs.iter().map(|a| a.1).collect(),
                edges: edges.iter().map(|&e| e as u64).collect(),
            };
            timed(|| engine.encode_unseen(&[node]).expect("encode")).0 * 1e3
        })
        .collect();
    m.insert("serve.engine_encode_ms", (median(&enc), "ms"));
    let (mut ups, mut dels) = (Vec::new(), Vec::new());
    for (i, &src) in ids.iter().take(40).enumerate() {
        let id = (1u64 << 41) + i as u64;
        let v = oracle[&src].clone();
        let item = UpsertItem { id, source: UpsertSource::Vector(v.clone()) };
        ups.push(timed(|| engine.upsert(&[item]).expect("upsert")).0 * 1e6);
        oracle.insert(id, v);
    }
    for i in 0..20u64 {
        let id = (1u64 << 41) + i;
        dels.push(timed(|| engine.delete(&[id]).expect("delete")).0 * 1e6);
        oracle.remove(&id);
    }
    m.insert("serve.engine_upsert_us", (median(&ups), "us"));
    m.insert("serve.engine_delete_us", (median(&dels), "us"));
}
