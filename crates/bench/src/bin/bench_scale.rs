//! Memory-budgeted scaling benchmark: trains the streaming pipeline
//! (streamed walk→context generation, blocked co-occurrence accumulation,
//! budgeted context-row cache) on synthetic power-law graphs from 100k to
//! 1M nodes, recording peak RSS and end-to-end throughput per size.
//!
//! Protocol: each size runs in a **fresh child process** (this binary
//! re-executes itself with `--child`), because `VmHWM` in
//! `/proc/self/status` is a per-process high-water mark — reusing one
//! process would let the largest size hide behind an earlier peak. The
//! child generates the graph, trains one epoch at one thread (the reference
//! container is single-core), then reports measurements as one JSON line.
//!
//! The cache budget scales with the graph: `nodes × BUDGET_PER_NODE` bytes.
//! That is deliberately far below the materialized CSR (~1.4 kB/node at
//! this configuration), so every bench size exercises the budget ladder's
//! rebuild rung rather than the trivial always-fits case. The committed
//! report's acceptance bar, re-checked by `validate_scale.py` in CI:
//!
//! * peak RSS must be ≤ the *implied budget* — the sum of every accounted
//!   resident component (graph, attributes, contexts, co-occurrence
//!   matrices, pair list, cache residency, embedding copies) times a 2×
//!   transient-slack factor, plus a 256 MiB process baseline. The cache
//!   component is bounded by `max_cache_bytes`, so RSS staying under this
//!   line means the budget accounting is honest end to end;
//! * peak RSS must be monotone in graph size and throughput positive;
//! * the streaming pipeline's embedding must be **bit-identical** to the
//!   fully materialized pipeline's, cross-checked at the smallest size at
//!   1 and 2 threads (and re-asserted on every CI run by `--smoke`).
//!
//! Writes `BENCH_scale.json` at the repository root. `--smoke` re-proves
//! bit-identity across both cache rungs, three budgets and two thread
//! counts on a small graph, then validates the committed JSON against the
//! constants compiled into this binary.

use coane_core::{Coane, CoaneConfig};
use coane_datasets::{scale_graph, ScaleConfig};
use coane_obs::Obs;
use serde::{Deserialize, Serialize};
use std::time::Instant;

const SIZES: [usize; 4] = [100_000, 250_000, 500_000, 1_000_000];
const SEED: u64 = 42;
/// Cache budget per node, bytes. ~14× below the materialized CSR at this
/// configuration, forcing the budget ladder onto the rebuild rung.
const BUDGET_PER_NODE: usize = 100;
const WALK_BLOCK: usize = 4096;
const COOCC_BLOCK: usize = 65_536;
/// Multiplier on accounted resident bytes covering transients the
/// accounting deliberately leaves out: per-block pair sort buffers,
/// prefetch blocks in flight, Adam moments, allocator slop.
const SLACK_FACTOR: f64 = 2.0;
/// Process baseline (binary, stacks, allocator arenas), bytes.
const SLACK_FIXED: u64 = 256 * 1024 * 1024;

fn graph_config(nodes: usize) -> ScaleConfig {
    ScaleConfig { attr_dim: 96, attrs_per_node: 6, seed: SEED, ..ScaleConfig::with_nodes(nodes) }
}

fn train_config(nodes: usize, streaming: bool, threads: usize) -> CoaneConfig {
    CoaneConfig {
        embed_dim: 16,
        context_size: 3,
        walks_per_node: 1,
        walk_length: 10,
        epochs: 1,
        batch_size: 4096,
        decoder_hidden: (32, 32),
        num_negatives: 3,
        subsample_t: 1e-3,
        walk_block_size: if streaming { WALK_BLOCK } else { 0 },
        coocc_block_size: if streaming { COOCC_BLOCK } else { 0 },
        max_cache_bytes: if streaming { nodes * BUDGET_PER_NODE } else { 0 },
        threads,
        seed: SEED,
        ..Default::default()
    }
}

/// 64-bit FNV-1a over the embedding's f32 bit patterns.
fn embed_hash(z: &coane_nn::Matrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in z.as_slice() {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set size of this process, bytes (`VmHWM`).
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 =
                rest.trim().trim_end_matches("kB").trim().parse().expect("parse VmHWM kB");
            return kb * 1024;
        }
    }
    panic!("VmHWM not present in /proc/self/status");
}

#[derive(Serialize, Deserialize, Clone)]
struct SizeRow {
    nodes: usize,
    edges: usize,
    /// Contexts kept after subsampling.
    contexts: u64,
    /// nnz of the co-occurrence matrix D.
    nnz_d: u64,
    max_cache_bytes: usize,
    /// Budget-ladder rung the cache landed on.
    cache_mode: String,
    /// Bytes the chosen cache representation reports resident.
    cache_resident_bytes: u64,
    /// Sum of accounted resident components (see module docs), bytes.
    accounted_bytes: u64,
    /// `SLACK_FACTOR × accounted + SLACK_FIXED` — the bar peak RSS must stay
    /// under for the budget accounting to be considered honest.
    implied_budget_bytes: u64,
    peak_rss_bytes: u64,
    /// Generation + prepare + 1 training epoch + renewal, seconds.
    train_seconds: f64,
    nodes_per_sec: f64,
    embed_hash: String,
}

#[derive(Serialize, Deserialize)]
struct BitCheck {
    nodes: usize,
    /// Streaming-pipeline embedding hash at 1 and 2 threads.
    streaming_hashes: Vec<String>,
    /// Materialized-pipeline embedding hash (1 thread).
    materialized_hash: String,
}

#[derive(Serialize, Deserialize)]
struct Report {
    seed: u64,
    walk_block: usize,
    coocc_block: usize,
    budget_bytes_per_node: usize,
    slack_factor: f64,
    slack_fixed_bytes: u64,
    protocol: String,
    rows: Vec<SizeRow>,
    /// Streaming == materialized, bit for bit, at every checked thread count.
    bit_identical: bool,
    bit_check: BitCheck,
}

fn json_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json")
}

// ── child: measure one size in a fresh process ─────────────────────────────

fn run_child(nodes: usize, streaming: bool, threads: usize) {
    let started = Instant::now();
    let (graph, _) = scale_graph(&graph_config(nodes));
    let obs = Obs::enabled();
    let cfg = train_config(nodes, streaming, threads);
    let z = Coane::new(cfg.clone()).with_observer(obs.clone()).fit(&graph);
    let train_seconds = started.elapsed().as_secs_f64();

    let n = graph.num_nodes() as u64;
    let contexts = obs.counter("contexts/kept");
    let nnz_d = obs.counter("cooccurrence/nnz_d");
    let nnz_d1 = obs.counter("cooccurrence/nnz_d1");
    let cache_resident = obs.counter("cache/resident_bytes");
    let cache_mode = if obs.counter("cache/mode_rebuild") > 0 { "rebuild" } else { "materialized" };
    // Accounted resident components, bytes. Each term is the exact size of
    // a structure held across training; transients are covered by the slack
    // factor in the implied budget.
    let attrs_nnz = graph.attrs().nnz() as u64;
    let accounted = (graph.num_edges() as u64) * 2 * 8      // CSR adjacency, both directions
        + (n + 1) * 8                                        // adjacency indptr
        + attrs_nnz * 8 + (n + 1) * 8                        // attribute CSR
        + contexts * cfg.context_size as u64 * 4 + (n + 1) * 8 // context slots + offsets
        + (nnz_d * 2 + nnz_d1) * 8 + 3 * (n + 1) * 8         // D, D̃, D¹
        + nnz_d * 12                                         // positive-pair list (≤ nnz of D̃)
        + n * 16                                             // negative-sampler tables
        + cache_resident                                     // cache representation
        + 3 * n * cfg.embed_dim as u64 * 4; // z + per-epoch snapshot + renewal target
    let implied = (accounted as f64 * SLACK_FACTOR) as u64 + SLACK_FIXED;

    let row = SizeRow {
        nodes,
        edges: graph.num_edges(),
        contexts,
        nnz_d,
        max_cache_bytes: cfg.max_cache_bytes,
        cache_mode: cache_mode.to_string(),
        cache_resident_bytes: cache_resident,
        accounted_bytes: accounted,
        implied_budget_bytes: implied,
        peak_rss_bytes: peak_rss_bytes(),
        train_seconds,
        nodes_per_sec: nodes as f64 / train_seconds,
        embed_hash: format!("{:#018x}", embed_hash(&z)),
    };
    println!("{}", serde_json::to_string(&row).expect("serialize child row"));
}

/// Spawns this binary as a measurement child and parses its JSON line.
fn spawn_child(nodes: usize, streaming: bool, threads: usize) -> SizeRow {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args([
            "--child",
            &nodes.to_string(),
            "--streaming",
            if streaming { "1" } else { "0" },
            "--threads",
            &threads.to_string(),
        ])
        .output()
        .expect("spawn measurement child");
    assert!(
        out.status.success(),
        "child (nodes={nodes}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("child stdout utf8");
    let line = stdout.lines().last().expect("child printed nothing");
    serde_json::from_str(line).expect("parse child row")
}

// ── full mode ──────────────────────────────────────────────────────────────

fn run_full() {
    // Bit-identity cross-check at the smallest size: streaming at 1 and 2
    // threads vs the fully materialized pipeline.
    println!("bit-identity check at {} nodes...", SIZES[0]);
    let mat = spawn_child(SIZES[0], false, 1);
    let s1 = spawn_child(SIZES[0], true, 1);
    let s2 = spawn_child(SIZES[0], true, 2);
    let bit_identical = s1.embed_hash == mat.embed_hash && s2.embed_hash == mat.embed_hash;
    assert!(
        bit_identical,
        "streaming diverged from materialized: streaming {} / {} vs materialized {}",
        s1.embed_hash, s2.embed_hash, mat.embed_hash
    );
    println!("bit-identity holds: {}", mat.embed_hash);

    let mut rows = Vec::new();
    for &nodes in &SIZES {
        println!("measuring {nodes} nodes...");
        let row = spawn_child(nodes, true, 1);
        assert!(
            row.peak_rss_bytes <= row.implied_budget_bytes,
            "{nodes} nodes: peak RSS {} exceeds implied budget {}",
            row.peak_rss_bytes,
            row.implied_budget_bytes
        );
        println!(
            "  {} edges | cache {} ({} B resident / {} B budget) | peak RSS {:.0} MiB \
             (implied {:.0} MiB) | {:.1}s | {:.0} nodes/s",
            row.edges,
            row.cache_mode,
            row.cache_resident_bytes,
            row.max_cache_bytes,
            row.peak_rss_bytes as f64 / (1 << 20) as f64,
            row.implied_budget_bytes as f64 / (1 << 20) as f64,
            row.train_seconds,
            row.nodes_per_sec
        );
        rows.push(row);
    }
    for pair in rows.windows(2) {
        assert!(
            pair[1].peak_rss_bytes > pair[0].peak_rss_bytes,
            "peak RSS not monotone: {} nodes used more than {} nodes",
            pair[0].nodes,
            pair[1].nodes
        );
    }

    let report = Report {
        seed: SEED,
        walk_block: WALK_BLOCK,
        coocc_block: COOCC_BLOCK,
        budget_bytes_per_node: BUDGET_PER_NODE,
        slack_factor: SLACK_FACTOR,
        slack_fixed_bytes: SLACK_FIXED,
        protocol: "one fresh process per size (VmHWM is per-process); generation + prepare + \
                   1 epoch + renewal at 1 thread; implied budget = slack_factor x accounted \
                   resident components + slack_fixed"
            .to_string(),
        rows,
        bit_identical,
        bit_check: BitCheck {
            nodes: SIZES[0],
            streaming_hashes: vec![s1.embed_hash, s2.embed_hash],
            materialized_hash: mat.embed_hash,
        },
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(json_path(), format!("{json}\n")).expect("write BENCH_scale.json");
    println!("wrote {}", json_path());
}

// ── smoke mode ─────────────────────────────────────────────────────────────

/// Fast CI gate: re-proves streaming/blocked/budgeted bit-identity across
/// both cache rungs at 1 and 2 threads on a small scale graph, then
/// validates the committed `BENCH_scale.json` against this binary's
/// constants. Exits nonzero on any mismatch.
fn run_smoke() {
    let (graph, _) = scale_graph(&graph_config(2_000));
    let reference = Coane::new(train_config(2_000, false, 1)).fit(&graph);

    // The scaled budget lands on one rung; sweep explicit budgets so the
    // smoke provably covers both, including the band just below the
    // materialized size.
    let obs = Obs::enabled();
    let unbounded_cfg = train_config(2_000, false, 1);
    Coane::new(unbounded_cfg).with_observer(obs.clone()).fit(&graph);
    let materialized_bytes = obs.counter("cache/resident_bytes") as usize;
    let rungs = [
        (usize::MAX, "cache/mode_materialized"),
        (materialized_bytes - 1, "cache/mode_rebuild"),
        (1, "cache/mode_rebuild"),
    ];
    for threads in [1usize, 2] {
        for (budget, want) in rungs {
            let obs = Obs::enabled();
            let cfg = CoaneConfig { max_cache_bytes: budget, ..train_config(2_000, true, threads) };
            let z = Coane::new(cfg).with_observer(obs.clone()).fit(&graph);
            if obs.counter(want) != 1 {
                fail(&format!("budget {budget} did not select {want} at {threads} threads"));
            }
            if z.as_slice() != reference.as_slice() {
                fail(&format!("{want} diverged from materialized at {threads} threads"));
            }
        }
    }
    println!("smoke: streaming bit-identity holds across 3 cache budgets x 2 thread counts");

    let text = match std::fs::read_to_string(json_path()) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read {}: {e}", json_path())),
    };
    let report: Report = match serde_json::from_str(&text) {
        Ok(r) => r,
        Err(e) => fail(&format!("malformed BENCH_scale.json: {e}")),
    };
    if report.seed != SEED
        || report.walk_block != WALK_BLOCK
        || report.coocc_block != COOCC_BLOCK
        || report.budget_bytes_per_node != BUDGET_PER_NODE
    {
        fail("BENCH_scale.json header does not match the bench constants (stale file?)");
    }
    let sizes: Vec<usize> = report.rows.iter().map(|r| r.nodes).collect();
    if sizes != SIZES {
        fail(&format!("BENCH_scale.json sizes {sizes:?} != expected {SIZES:?}"));
    }
    for row in &report.rows {
        if row.max_cache_bytes != row.nodes * BUDGET_PER_NODE {
            fail(&format!("{} nodes: budget does not match nodes x {BUDGET_PER_NODE}", row.nodes));
        }
        if !(row.nodes_per_sec.is_finite() && row.nodes_per_sec > 0.0) {
            fail(&format!("{} nodes: non-positive throughput", row.nodes));
        }
        if row.peak_rss_bytes > row.implied_budget_bytes {
            fail(&format!("{} nodes: peak RSS exceeds the implied budget", row.nodes));
        }
        if row.cache_mode != "rebuild" {
            fail(&format!(
                "{} nodes: cache landed on {:?}, not the rebuild rung — budget too generous",
                row.nodes, row.cache_mode
            ));
        }
    }
    for pair in report.rows.windows(2) {
        if pair[1].peak_rss_bytes <= pair[0].peak_rss_bytes {
            fail("BENCH_scale.json peak RSS is not monotone in graph size");
        }
    }
    if !report.bit_identical
        || report
            .bit_check
            .streaming_hashes
            .iter()
            .any(|h| *h != report.bit_check.materialized_hash)
    {
        fail("BENCH_scale.json does not record streaming/materialized bit-identity");
    }
    println!(
        "smoke: BENCH_scale.json valid ({} sizes up to {} nodes, peak {:.0} MiB)",
        report.rows.len(),
        report.rows.last().unwrap().nodes,
        report.rows.last().unwrap().peak_rss_bytes as f64 / (1 << 20) as f64
    );
}

fn fail(msg: &str) -> ! {
    eprintln!("bench_scale --smoke: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--child") {
        let nodes: usize = args[i + 1].parse().expect("--child <nodes>");
        let streaming = args.iter().position(|a| a == "--streaming").map(|j| args[j + 1] == "1");
        let threads = args
            .iter()
            .position(|a| a == "--threads")
            .map(|j| args[j + 1].parse().expect("--threads <n>"))
            .unwrap_or(1);
        run_child(nodes, streaming.unwrap_or(true), threads);
    } else if args.iter().any(|a| a == "--smoke") {
        run_smoke();
    } else {
        run_full();
    }
}
