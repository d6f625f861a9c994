//! Lockdown of the live-mutation layer: deterministic replay (any thread
//! count, any batch split, across kill+restart), crash-safe generation
//! recovery with fallback and byte-identical self-heal, tombstone
//! filtering, mutation admission, and the contract that `/knn` answers
//! during a compaction storm are bit-identical to serial answers at the
//! same sequence number.
//!
//! The fixture is a synthetic store (deterministic LCG vectors) — none of
//! these paths touch a trained model.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use coane_nn::{pool, Scorer};
use coane_serve::{
    http_request, EmbeddingStore, EngineLimits, GenerationManager, HnswConfig, HnswIndex,
    HttpServer, KnnParams, KnnTarget, MutOp, MutationConfig, QueryClass, QueryEngine, ServerConfig,
    UpsertItem, UpsertSource,
};

const NODES: usize = 48;
const DIM: usize = 8;

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("coane-mutations-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Deterministic pseudo-random vector; `tag` varies the stream.
fn lcg_vec(tag: u64) -> Vec<f32> {
    let mut state = tag.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..DIM)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// Seed store: ids 100..100+NODES, LCG vectors.
fn fixture_store() -> EmbeddingStore {
    let mut data = Vec::with_capacity(NODES * DIM);
    for row in 0..NODES {
        data.extend_from_slice(&lcg_vec(row as u64));
    }
    let ids: Vec<u64> = (0..NODES as u64).map(|i| 100 + i).collect();
    EmbeddingStore::new(data, DIM, Some(ids), "mutations fixture").expect("store")
}

fn fixture_index(store: &EmbeddingStore) -> HnswIndex {
    HnswIndex::build(store, Scorer::Cosine, HnswConfig::default())
}

fn open_manager(dir: &Path, compact_every: usize) -> (GenerationManager, bool) {
    let store = fixture_store();
    let index = fixture_index(&store);
    let config = MutationConfig { dir: dir.to_path_buf(), compact_every };
    let (manager, report) =
        GenerationManager::open(store, index, config, coane_obs::Obs::disabled()).expect("open");
    (manager, report.fell_back)
}

/// 12 mixed batches of 5 records each: a fresh insert, an overwrite (which
/// sometimes revives a tombstone), a delete of a seed row, and an
/// insert+delete pair inside the same batch — exercising every mutation
/// shape across arbitrary compaction cuts.
fn mutation_stream() -> Vec<Vec<MutOp>> {
    (0..12u64)
        .map(|b| {
            vec![
                MutOp::Upsert { id: 1000 + b, vector: lcg_vec(7000 + b) },
                MutOp::Upsert { id: 100 + (b * 5) % NODES as u64, vector: lcg_vec(8000 + b) },
                MutOp::Delete { id: 100 + b },
                MutOp::Upsert { id: 2000 + b, vector: lcg_vec(9000 + b) },
                MutOp::Delete { id: 2000 + b },
            ]
        })
        .collect()
}

/// A complete fingerprint of a manager's live state: store bytes on disk,
/// the HNSW adjacency at every layer, and a kNN answer transcript.
fn snapshot(manager: &GenerationManager, name: &str) -> (Vec<u8>, String, String, u64, u64) {
    let view = manager.current();
    let path = tmp_dir(&format!("snap-{name}")).with_extension("store");
    view.store().save(&path).expect("save snapshot");
    let bytes = std::fs::read(&path).expect("read snapshot");
    let _ = std::fs::remove_file(&path);
    let index = view.index();
    let mut adj = String::new();
    for row in 0..index.len() as u32 {
        for layer in index.neighbors(row) {
            for &n in layer {
                adj.push_str(&format!("{n} "));
            }
            adj.push('|');
        }
        adj.push('\n');
    }
    let mut answers = String::new();
    for probe in 0..4u64 {
        for hit in index.knn(view.store(), &lcg_vec(40 + probe), 6) {
            if !view.is_dead(hit.index as usize) {
                answers.push_str(&format!(
                    "{}:{:08x} ",
                    view.store().id_of(hit.index as usize),
                    hit.score.to_bits()
                ));
            }
        }
        answers.push('\n');
    }
    let stamp = view.stamp();
    (bytes, adj, answers, stamp.generation, stamp.seq)
}

// ---------------------------------------------------------------------------
// Replay equality
// ---------------------------------------------------------------------------

/// The tentpole determinism contract: the same acknowledged mutation
/// stream converges on bit-identical store bytes, HNSW adjacency, and kNN
/// answers — at 1 or 4 pool threads, and when the run is killed and
/// restarted halfway through (recovery replays the log).
#[test]
fn replay_is_bit_identical_across_threads_and_restart() {
    let default_threads = pool::threads();
    let stream = mutation_stream();
    let mut reference = None;
    for (variant, threads, split) in
        [("t1", 1usize, None), ("t4", 4, None), ("restart", 4, Some(7usize))]
    {
        pool::set_threads(threads);
        let dir = tmp_dir(&format!("replay-{variant}"));
        let (manager, fell_back) = open_manager(&dir, 8);
        assert!(!fell_back);
        let cut = split.unwrap_or(stream.len());
        for batch in &stream[..cut] {
            manager.mutate(batch.clone()).expect("mutate");
        }
        let manager = if let Some(cut) = split {
            // Simulated restart: drop (joins the compactor), reopen — the
            // recovery path replays the log — and finish the stream.
            drop(manager);
            let (manager, fell_back) = open_manager(&dir, 8);
            assert!(!fell_back, "clean restart must not fall back");
            for batch in &stream[cut..] {
                manager.mutate(batch.clone()).expect("mutate after restart");
            }
            manager
        } else {
            manager
        };
        manager.wait_idle();
        let snap = snapshot(&manager, variant);
        assert_eq!(snap.3, 60 / 8, "{variant}: 60 records at compact-every 8 → generation 7");
        assert_eq!(snap.4, 60, "{variant}: last applied seq");
        match &reference {
            None => reference = Some(snap),
            Some(expected) => {
                assert_eq!(expected.0, snap.0, "{variant}: store bytes diverged");
                assert_eq!(expected.1, snap.1, "{variant}: HNSW adjacency diverged");
                assert_eq!(expected.2, snap.2, "{variant}: kNN answers diverged");
            }
        }
        drop(manager);
        let _ = std::fs::remove_dir_all(&dir);
    }
    pool::set_threads(default_threads);
}

/// The replay contract extends to quantized bases: with an int8 seed
/// store, the WAL stays f32 but every compacted generation re-quantizes to
/// the base precision, and the same stream converges on bit-identical v2
/// store bytes, adjacency, and kNN answers at 1 or 4 threads and across a
/// kill+restart (which recovers the int8 generation from disk, ignoring
/// the seed).
#[test]
fn int8_replay_is_bit_identical_across_threads_and_restart() {
    let default_threads = pool::threads();
    let open_int8 = |dir: &Path| {
        let store =
            fixture_store().with_precision(coane_serve::Precision::Int8).expect("quantize seed");
        let index = fixture_index(&store);
        let config = MutationConfig { dir: dir.to_path_buf(), compact_every: 8 };
        let (manager, report) =
            GenerationManager::open(store, index, config, coane_obs::Obs::disabled())
                .expect("open int8");
        (manager, report.fell_back)
    };
    let stream = mutation_stream();
    let mut reference: Option<(Vec<u8>, String, String, u64, u64)> = None;
    for (variant, threads, split) in
        [("i8-t1", 1usize, None), ("i8-t4", 4, None), ("i8-restart", 4, Some(7usize))]
    {
        pool::set_threads(threads);
        let dir = tmp_dir(&format!("replay-{variant}"));
        let (manager, fell_back) = open_int8(&dir);
        assert!(!fell_back);
        let cut = split.unwrap_or(stream.len());
        for batch in &stream[..cut] {
            manager.mutate(batch.clone()).expect("mutate");
        }
        let manager = if split.is_some() {
            drop(manager);
            let (manager, fell_back) = open_int8(&dir);
            assert!(!fell_back, "clean restart must not fall back");
            for batch in &stream[cut..] {
                manager.mutate(batch.clone()).expect("mutate after restart");
            }
            manager
        } else {
            manager
        };
        manager.wait_idle();
        let view = manager.current();
        assert_eq!(
            view.store().precision(),
            coane_serve::Precision::Int8,
            "{variant}: compaction must preserve the base precision"
        );
        let snap = snapshot(&manager, variant);
        assert_eq!(snap.4, 60, "{variant}: last applied seq");
        match &reference {
            None => reference = Some(snap),
            Some(expected) => {
                assert_eq!(expected.0, snap.0, "{variant}: int8 store bytes diverged");
                assert_eq!(expected.1, snap.1, "{variant}: HNSW adjacency diverged");
                assert_eq!(expected.2, snap.2, "{variant}: kNN answers diverged");
            }
        }
        drop(manager);
        let _ = std::fs::remove_dir_all(&dir);
    }
    pool::set_threads(default_threads);
}

/// Applying the stream one record per batch equals applying it as whole
/// batches: sequence numbers are dense and the index grows one row at a
/// time, so the batch split cannot leak into the result.
#[test]
fn batch_split_is_invariant() {
    let stream = mutation_stream();
    let dir_whole = tmp_dir("split-whole");
    let dir_single = tmp_dir("split-single");
    let (whole, _) = open_manager(&dir_whole, usize::MAX / 2);
    let (single, _) = open_manager(&dir_single, usize::MAX / 2);
    for batch in &stream {
        whole.mutate(batch.clone()).expect("whole batch");
        for op in batch {
            single.mutate(vec![op.clone()]).expect("single op");
        }
    }
    let a = snapshot(&whole, "split-a");
    let b = snapshot(&single, "split-b");
    assert_eq!(a, b, "batch split changed the replayed state");
    drop(whole);
    drop(single);
    let _ = std::fs::remove_dir_all(&dir_whole);
    let _ = std::fs::remove_dir_all(&dir_single);
}

// ---------------------------------------------------------------------------
// Crash-safety fault injection
// ---------------------------------------------------------------------------

/// Bit-flip the current generation's store: boot falls back to the
/// previous generation (whose log still carries the fold window), reports
/// it, and the triggered re-compaction regenerates the damaged
/// generation's store byte-identically.
#[test]
fn store_corruption_falls_back_and_self_heals_byte_identically() {
    let live_rows = |manager: &GenerationManager| {
        let view = manager.current();
        let mut rows: Vec<(u64, Vec<u32>)> = (0..view.store().len())
            .filter(|&row| !view.is_dead(row))
            .map(|row| {
                let bits = view.store().row(row).iter().map(|v| v.to_bits()).collect();
                (view.store().id_of(row), bits)
            })
            .collect();
        rows.sort();
        rows
    };
    let dir = tmp_dir("fallback");
    let (manager, _) = open_manager(&dir, 5);
    for batch in mutation_stream().into_iter().take(2) {
        manager.mutate(batch).expect("mutate");
    }
    manager.wait_idle(); // 10 records at compact-every 5 → generation 2
    let before = snapshot(&manager, "fallback-before");
    let before_rows = live_rows(&manager);
    assert_eq!(before.3, 2);
    drop(manager);
    let gen2 = dir.join("gen-2.store");
    let pristine = std::fs::read(&gen2).expect("gen-2 store bytes");
    let mut damaged = pristine.clone();
    damaged[50] ^= 0x04;
    std::fs::write(&gen2, &damaged).expect("corrupt gen-2 store");

    let store = fixture_store();
    let index = fixture_index(&store);
    let config = MutationConfig { dir: dir.clone(), compact_every: 5 };
    let (manager, report) =
        GenerationManager::open(store, index, config, coane_obs::Obs::disabled())
            .expect("fallback boot");
    assert!(report.fell_back, "boot must fall back to generation 1");
    assert_eq!(report.generation, 1);
    assert_eq!(report.seq, 10, "the fallback log replays the full fold window");
    assert_eq!(report.replayed, 5);
    assert!(
        report.notes.iter().any(|n| n.contains("generation 2 unusable")),
        "notes must name the damaged generation: {:?}",
        report.notes
    );
    // Before the re-fold the fallback view still carries its tombstones
    // physically, so compare the *live* state: the set of live ids and
    // their vectors must equal the pre-crash generation's.
    assert_eq!(before_rows, live_rows(&manager), "fallback live state differs from pre-crash");
    // Self-heal: the recovered delta is over the threshold, so boot
    // re-triggers the fold and regenerates gen-2.store bit-for-bit.
    manager.wait_idle();
    assert_eq!(manager.stats().generation, 2, "self-heal must re-fold to generation 2");
    let regenerated = std::fs::read(&gen2).expect("regenerated gen-2 store");
    assert_eq!(pristine, regenerated, "re-compaction must regenerate identical bytes");
    let healed = snapshot(&manager, "fallback-healed");
    assert_eq!(before.0, healed.0, "healed store bytes differ from pre-crash");
    assert_eq!(before.2, healed.2, "healed answers differ from pre-crash");
    drop(manager);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn or bit-flipped log tail (crash mid-append) loses only the
/// unacknowledged suffix: boot truncates to the valid prefix and reports
/// it in the recovery notes.
#[test]
fn wal_tail_damage_truncates_to_the_valid_prefix() {
    let torn = |bytes: &mut Vec<u8>| {
        let n = bytes.len();
        bytes.truncate(n - 3);
    };
    let bitflip = |bytes: &mut Vec<u8>| {
        let n = bytes.len();
        bytes[n - 10] ^= 0x40;
    };
    type Damage<'a> = &'a dyn Fn(&mut Vec<u8>);
    let modes: [(&str, Damage); 2] = [("torn", &torn), ("bitflip", &bitflip)];
    for (mode, damage) in modes {
        let dir = tmp_dir(&format!("tail-{mode}"));
        let (manager, _) = open_manager(&dir, usize::MAX / 2);
        for b in 0..3u64 {
            manager
                .mutate(vec![
                    MutOp::Upsert { id: 5000 + 2 * b, vector: lcg_vec(b) },
                    MutOp::Upsert { id: 5000 + 2 * b + 1, vector: lcg_vec(100 + b) },
                ])
                .expect("mutate");
        }
        drop(manager);
        let wal = dir.join("gen-0.wal");
        let mut bytes = std::fs::read(&wal).expect("wal bytes");
        damage(&mut bytes);
        std::fs::write(&wal, &bytes).expect("damage wal tail");

        let store = fixture_store();
        let index = fixture_index(&store);
        let config = MutationConfig { dir: dir.clone(), compact_every: usize::MAX / 2 };
        let (manager, report) =
            GenerationManager::open(store, index, config, coane_obs::Obs::disabled())
                .expect("prefix recovery");
        assert_eq!(report.generation, 0, "{mode}: tail damage must not fail the generation");
        assert_eq!(report.seq, 5, "{mode}: the damaged sixth record is dropped");
        assert_eq!(report.replayed, 5, "{mode}");
        assert!(
            report.notes.iter().any(|n| n.contains("truncated to 5 records")),
            "{mode}: notes must report the truncation: {:?}",
            report.notes
        );
        let view = manager.current();
        assert!(view.resolve_live(5004).is_some(), "{mode}: acked prefix survives");
        assert!(view.resolve_live(5005).is_none(), "{mode}: torn record must not apply");
        drop(manager);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// When no generation is usable (store damaged with no fallback, or a
/// garbage `CURRENT` marker), boot fails with the typed mutation-log error
/// and exit code 10 — never a panic, never a silently-empty server.
#[test]
fn unrecoverable_state_is_a_typed_mutlog_error() {
    let dir = tmp_dir("dead");
    let (manager, _) = open_manager(&dir, usize::MAX / 2);
    manager.mutate(vec![MutOp::Upsert { id: 9000, vector: lcg_vec(1) }]).expect("mutate");
    drop(manager);
    let gen0 = dir.join("gen-0.store");
    let mut bytes = std::fs::read(&gen0).expect("gen-0 store");
    bytes[40] ^= 0x01;
    std::fs::write(&gen0, &bytes).expect("corrupt gen-0 store");
    let store = fixture_store();
    let index = fixture_index(&store);
    let config = MutationConfig { dir: dir.clone(), compact_every: usize::MAX / 2 };
    let err = GenerationManager::open(store, index, config, coane_obs::Obs::disabled())
        .expect_err("generation 0 has no fallback");
    assert_eq!(err.kind(), "mutlog", "err: {err}");
    assert_eq!(err.exit_code(), 10);
    assert!(err.to_string().contains("no usable generation"), "err: {err}");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_dir("current");
    let (manager, _) = open_manager(&dir, usize::MAX / 2);
    drop(manager);
    std::fs::write(dir.join("CURRENT"), b"banana\n").expect("garbage CURRENT");
    let store = fixture_store();
    let index = fixture_index(&store);
    let config = MutationConfig { dir: dir.clone(), compact_every: usize::MAX / 2 };
    let err = GenerationManager::open(store, index, config, coane_obs::Obs::disabled())
        .expect_err("garbage CURRENT must not boot");
    assert_eq!(err.kind(), "mutlog", "err: {err}");
    assert!(err.to_string().contains("CURRENT"), "err: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Engine-level semantics
// ---------------------------------------------------------------------------

fn mutable_engine(dir: &Path, compact_every: usize) -> QueryEngine {
    let store = fixture_store();
    let index = fixture_index(&store);
    let config = MutationConfig { dir: dir.to_path_buf(), compact_every };
    let (engine, _) = QueryEngine::new_mutable(
        store,
        index,
        None,
        EngineLimits::default(),
        coane_obs::Obs::disabled(),
        config,
    )
    .expect("mutable engine");
    engine
}

/// Tombstoned rows vanish from kNN immediately (before any compaction),
/// re-upserting revives them, and the engine refuses to delete the last
/// live row or an unknown id.
#[test]
fn tombstones_filter_knn_and_upserts_revive() {
    let dir = tmp_dir("tombstones");
    let engine = mutable_engine(&dir, usize::MAX / 2);
    let probe = lcg_vec(0); // exactly row 0's vector, id 100
    let params = KnnParams { k: 5, scorer: Scorer::Cosine, exact: true };
    let top = |engine: &QueryEngine| {
        engine.knn(&[KnnTarget::Vector(probe.clone())], params).expect("knn")[0].neighbors[0].0
    };
    assert_eq!(top(&engine), 100, "the probe's own row must rank first");

    engine.delete(&[100]).expect("delete");
    assert_ne!(top(&engine), 100, "a tombstoned row must not be returned");
    let err = engine.delete(&[100]).expect_err("double delete");
    assert!(err.to_string().contains("unknown or already-deleted"), "err: {err}");

    engine
        .upsert(&[UpsertItem { id: 100, source: UpsertSource::Vector(probe.clone()) }])
        .expect("revive");
    assert_eq!(top(&engine), 100, "a revived row must be returned again");

    // Deleting every live row is refused with the whole batch rejected.
    let all: Vec<u64> = (0..NODES as u64).map(|i| 100 + i).collect();
    let err = engine.delete(&all).expect_err("emptying the store");
    assert!(err.to_string().contains("would empty the store"), "err: {err}");
    assert_eq!(engine.view().live_rows(), NODES, "a rejected batch must not apply partially");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A read-only engine reports mutations as a config error that tells the
/// operator how to enable them.
#[test]
fn read_only_engine_rejects_mutations() {
    let store = fixture_store();
    let index = fixture_index(&store);
    let engine =
        QueryEngine::new(store, index, None, EngineLimits::default(), coane_obs::Obs::disabled())
            .expect("static engine");
    assert!(!engine.is_mutable());
    let err = engine
        .upsert(&[UpsertItem { id: 7, source: UpsertSource::Vector(lcg_vec(7)) }])
        .expect_err("read-only upsert");
    assert!(err.to_string().contains("--mutable"), "err: {err}");
    assert_eq!(err.kind(), "config");
    let stats = engine.mutation_stats();
    assert!(!stats.mutable);
    assert_eq!(stats.compact_every, 0);
}

/// Mutations shed at half the queue depth while kNN still admits — a write
/// flood cannot occupy the slots retrieval needs.
#[test]
fn mutations_shed_at_half_queue_depth() {
    let dir = tmp_dir("admission");
    let store = fixture_store();
    let index = fixture_index(&store);
    let config = MutationConfig { dir: dir.clone(), compact_every: usize::MAX / 2 };
    let (engine, _) = QueryEngine::new_mutable(
        store,
        index,
        None,
        EngineLimits { queue_cap: 4, ..Default::default() },
        coane_obs::Obs::disabled(),
        config,
    )
    .expect("engine");
    let p1 = engine.try_admit(1, QueryClass::Mutate).expect("first mutate admitted");
    let p2 = engine.try_admit(1, QueryClass::Mutate).expect("second mutate admitted");
    let err = engine.try_admit(1, QueryClass::Mutate).expect_err("half-full queue sheds mutations");
    assert_eq!(err.kind(), "busy", "err: {err}");
    // Retrieval still has the remaining half of the queue.
    let p3 = engine.try_admit(1, QueryClass::Knn).expect("knn still admitted");
    drop((p1, p2, p3));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The HTTP surface of the mutation path: `/upsert` and `/delete`
/// round-trip with `(generation, seq)` stamps, `/healthz` and `/stats`
/// report the mutation state, wrong methods get 405, malformed upserts get
/// 400, and a read-only server rejects mutations with 400.
#[test]
fn http_mutation_routes_roundtrip() {
    let dir = tmp_dir("http");
    let engine = Arc::new(mutable_engine(&dir, usize::MAX / 2));
    let config = ServerConfig { addr: "127.0.0.1:0".into(), threads: 2, ..Default::default() };
    let server = HttpServer::bind(Arc::clone(&engine), config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let vec_json: Vec<String> = lcg_vec(3).iter().map(|v| format!("{v}")).collect();
    let body = format!("{{\"nodes\":[{{\"id\":9100,\"vector\":[{}]}}]}}", vec_json.join(","));
    let (status, resp) = http_request(&addr, "POST", "/upsert", &body).expect("upsert");
    assert_eq!(status, 200, "upsert response: {resp}");
    assert!(resp.contains("\"applied\":1"), "upsert response: {resp}");
    assert!(resp.contains("\"seq\":1"), "upsert response: {resp}");

    let (status, resp) = http_request(&addr, "POST", "/delete", "{\"ids\":[9100]}").expect("del");
    assert_eq!(status, 200, "delete response: {resp}");
    assert!(resp.contains("\"deleted\":1"), "delete response: {resp}");
    assert!(resp.contains("\"seq\":2"), "delete response: {resp}");

    let (status, resp) = http_request(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200);
    assert!(resp.contains("\"mutable\":true"), "healthz: {resp}");
    assert!(resp.contains(&format!("\"nodes\":{NODES}")), "healthz: {resp}");

    let (status, resp) = http_request(&addr, "GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    assert!(resp.contains("\"store\""), "stats: {resp}");
    assert!(resp.contains("\"tombstones\":1"), "deleted id shows as a tombstone: {resp}");
    assert!(resp.contains("\"wal_bytes\""), "stats: {resp}");

    let (status, _) = http_request(&addr, "GET", "/upsert", "").expect("405");
    assert_eq!(status, 405);
    let (status, resp) =
        http_request(&addr, "POST", "/upsert", "{\"nodes\":[{\"id\":5}]}").expect("bad upsert");
    assert_eq!(status, 400, "vectorless upsert: {resp}");
    assert!(resp.contains("needs a vector or attributes"), "bad upsert: {resp}");
    let (status, resp) =
        http_request(&addr, "POST", "/delete", "{\"ids\":[424242]}").expect("bad delete");
    assert_eq!(status, 400, "unknown delete: {resp}");
    // 1e39 overflows f32 to +inf: rejected before the log, so seq stays 2.
    let mut inf_vec = vec_json.clone();
    inf_vec[0] = "1e39".to_string();
    let body_inf = format!("{{\"nodes\":[{{\"id\":9101,\"vector\":[{}]}}]}}", inf_vec.join(","));
    let (status, resp) = http_request(&addr, "POST", "/upsert", &body_inf).expect("inf upsert");
    assert_eq!(status, 400, "non-finite upsert: {resp}");
    assert!(resp.contains("element 0 is not finite"), "non-finite upsert: {resp}");
    let (_, resp) = http_request(&addr, "GET", "/healthz", "").expect("healthz");
    assert!(resp.contains("\"seq\":2"), "rejected upsert reached the log: {resp}");

    let (status, _) = http_request(&addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    // Read-only server: mutation routes answer 400 with the enable hint.
    let store = fixture_store();
    let index = fixture_index(&store);
    let engine = Arc::new(
        QueryEngine::new(store, index, None, EngineLimits::default(), coane_obs::Obs::disabled())
            .expect("static engine"),
    );
    let config = ServerConfig { addr: "127.0.0.1:0".into(), threads: 1, ..Default::default() };
    let server = HttpServer::bind(Arc::clone(&engine), config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    let (status, resp) = http_request(&addr, "POST", "/upsert", &body).expect("ro upsert");
    assert_eq!(status, 400, "read-only upsert: {resp}");
    assert!(resp.contains("--mutable"), "read-only upsert: {resp}");
    let (status, resp) = http_request(&addr, "GET", "/healthz", "").expect("ro healthz");
    assert_eq!(status, 200);
    assert!(resp.contains("\"mutable\":false"), "read-only healthz: {resp}");
    let (status, _) = http_request(&addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

// ---------------------------------------------------------------------------
// Queries during the swap
// ---------------------------------------------------------------------------

/// The zero-downtime contract: exact `/knn` answers observed concurrently
/// with an upsert/delete storm (compaction folding every 7 records) are
/// bit-identical to serial answers at the same sequence number — the
/// generation swap is invisible to readers except through the stamp.
#[test]
fn concurrent_queries_during_swap_match_serial_answers() {
    let probe = lcg_vec(55);
    let params = KnnParams { k: 5, scorer: Scorer::Cosine, exact: true };
    let upsert_batch = |r: u64| {
        vec![
            UpsertItem { id: 3000 + r, source: UpsertSource::Vector(lcg_vec(500 + r)) },
            UpsertItem { id: 100 + r, source: UpsertSource::Vector(lcg_vec(600 + r)) },
        ]
    };
    let transcript = |answer: &coane_serve::KnnAnswer| {
        answer
            .neighbors
            .iter()
            .map(|&(id, score)| format!("{id}:{:08x}", score.to_bits()))
            .collect::<Vec<_>>()
            .join(" ")
    };

    // Serial control: apply each batch and record the exact answer at the
    // resulting sequence number (no compaction — exact answers at a seq are
    // generation-invariant, which is exactly what the storm run verifies).
    let control_dir = tmp_dir("swap-control");
    let control = mutable_engine(&control_dir, usize::MAX / 2);
    let mut expected: HashMap<u64, String> = HashMap::new();
    let answer_now = |engine: &QueryEngine| {
        transcript(&engine.knn(&[KnnTarget::Vector(probe.clone())], params).expect("knn")[0])
    };
    expected.insert(0, answer_now(&control));
    for r in 0..12u64 {
        let ack = control.upsert(&upsert_batch(r)).expect("control upsert");
        expected.insert(ack.stamp.seq, answer_now(&control));
        let ack = control.delete(&[3000 + r]).expect("control delete");
        expected.insert(ack.stamp.seq, answer_now(&control));
    }
    drop(control);
    let _ = std::fs::remove_dir_all(&control_dir);

    // Storm: the same stream with compaction folding every 7 records while
    // three reader threads hammer the same query and collect stamped
    // answers.
    let storm_dir = tmp_dir("swap-storm");
    let engine = mutable_engine(&storm_dir, 7);
    let stop = AtomicBool::new(false);
    let observed: Vec<(u64, String)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(|| {
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let query = vec![KnnTarget::Vector(probe.clone())];
                        let (mut results, stamp) = engine.knn_multi(&[&query], params);
                        let answers = results.pop().unwrap().expect("storm knn");
                        seen.push((stamp.seq, transcript(&answers[0])));
                    }
                    seen
                })
            })
            .collect();
        for r in 0..12u64 {
            engine.upsert(&upsert_batch(r)).expect("storm upsert");
            engine.delete(&[3000 + r]).expect("storm delete");
        }
        engine.wait_compactions();
        stop.store(true, Ordering::Relaxed);
        readers.into_iter().flat_map(|h| h.join().expect("reader thread")).collect()
    });
    assert!(!observed.is_empty());
    for (seq, answer) in &observed {
        let expected = expected
            .get(seq)
            .unwrap_or_else(|| panic!("observed seq {seq} is not a post-batch state"));
        assert_eq!(expected, answer, "answer at seq {seq} differs from the serial control");
    }
    // The storm actually compacted: 36 records at compact-every 7.
    assert_eq!(engine.mutation_stats().generation, 5);
    assert_eq!(
        &expected[&36],
        &transcript(&engine.knn(&[KnnTarget::Vector(probe.clone())], params).expect("knn")[0]),
        "final storm answers differ from the serial control"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&storm_dir);
}
