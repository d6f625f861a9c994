//! The repository benchmark. One process runs one workload end to end:
//! generate → split → train → store → index → serve over HTTP → query,
//! and checks its outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cora-read|scale-write|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with telemetry off.
//! `--trace 1` is the separate traced run: it times each layer's public
//! functions from outside and reads the existing `coane_obs` scopes and
//! counters, and reports the per-layer metrics instead. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod load;
mod serve;
mod stats;
mod train;

use std::collections::BTreeMap;

use coane_core::Obs;
use coane_nn::Precision;
use serde::Value;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// Reads on the untouched store, then a burst of upserts.
    Read,
    /// Reads beside upserts and deletes, with background compaction.
    Write,
}

/// One workload.
pub struct Spec {
    pub name: &'static str,
    /// `None` is the full-size Cora preset; `Some(n)` an `n`-node scale
    /// graph trained on the streaming, memory-budgeted path.
    pub nodes: Option<usize>,
    pub epochs: usize,
    pub precision: Precision,
    pub compact_every: usize,
    /// HNSW out-degree `m` of the serving index.
    pub hnsw_m: usize,
    /// Set-ups per run.
    pub setup_reps: usize,
    pub mix: Mix,
}

const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "cora-read",
        nodes: None,
        epochs: 4,
        precision: Precision::F32,
        // Never reached: this workload's writes must not compact.
        compact_every: 1 << 30,
        // At the default m = 16 the index misses 10-25 % of the true
        // neighbors on Cora embeddings, by an amount that depends on the
        // seed; recall would then measure the seed.
        hnsw_m: 32,
        setup_reps: 3,
        mix: Mix::Read,
    },
    Spec {
        name: "scale-write",
        nodes: Some(10_000),
        epochs: 1,
        precision: Precision::Int8,
        compact_every: 256,
        hnsw_m: 16,
        // The one-epoch streaming fit varies more from fit to fit.
        setup_reps: 5,
        mix: Mix::Write,
    },
];

/// A run whose generator overslept due times by more than this at p99 is
/// invalid: its latencies would describe the generator, not the server.
const LATE_LIMIT_MS: f64 = 20.0;
/// The traced run's blocking-path layer times must sum to the fit's wall
/// time within this share.
const COVERAGE_TOLERANCE: f64 = 0.15;

const END_TO_END: [&str; 11] = [
    "setup_s",
    "fit_s",
    "train_nodes_per_s",
    "peak_rss_mb",
    "linkpred_auc",
    "knn_p50_ms",
    "encode_p90_ms",
    "read_qps",
    "upsert_p50_ms",
    "recall_at_10",
    "ok_frac",
];

const PER_LAYER: [&str; 57] = [
    "datasets.generate_s",
    "walks.walks_s",
    "walks.contexts_s",
    "walks.cooccurrence_s",
    "walks.sampler_s",
    "walks.steps",
    "walks.contexts_kept",
    "walks.subsample_keep_frac",
    "walks.nnz_d",
    "core.cache_build_s",
    "core.cache_mode",
    "core.cache_resident_mb",
    "core.first_epoch_s",
    "core.epoch_s",
    "core.renew_s",
    "core.train_step_s",
    "core.prefetch_occupancy",
    "core.batches",
    "core.infer_nodes_per_s",
    "core.encode_ms",
    "nn.matmul_gflops",
    "nn.qscan_gbps",
    "nn.isa_level",
    "serve.store_build_s",
    "serve.store_bytes",
    "serve.hnsw_build_s",
    "serve.hnsw_knn_us",
    "serve.exact_knn_us",
    "serve.engine_knn_us",
    "serve.engine_links_us",
    "serve.engine_encode_ms",
    "serve.engine_upsert_us",
    "serve.engine_delete_us",
    "serve.shed",
    "serve.queue_depth_max",
    "serve.http_overhead_us",
    "serve.coalesced_per_round",
    "serve.mut_apply_ms",
    "serve.compactions",
    "serve.compact_s",
    "serve.swap_s",
    "serve.wal_bytes",
    "serve.tombstones_max",
    "obs.tracing_overhead_frac",
    "trace.blocking_path_frac",
    "bench.generator_late_p99_ms",
    "bench.knn_p99_ms",
    "bench.upsert_p99_ms",
    "bench.encode_p50_ms",
    "bench.open.sent",
    "bench.open.ok",
    "bench.open.shed",
    "bench.open.failed",
    "bench.closed.sent",
    "bench.closed.ok",
    "bench.closed.shed",
    "bench.closed.failed",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

fn number(v: f64) -> Value {
    Value::Number(v)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[&str],
) -> String {
    let mut out = BTreeMap::new();
    for &name in names {
        let (value, unit) =
            metrics.get(name).unwrap_or_else(|| panic!("metric {name} not measured"));
        let mut entry = BTreeMap::new();
        entry.insert("value".to_string(), number(*value));
        entry.insert("unit".to_string(), Value::String(unit.to_string()));
        out.insert(name.to_string(), Value::Object(entry));
    }
    let mut root = BTreeMap::new();
    root.insert("correct".to_string(), Value::Bool(correct));
    root.insert("attempted".to_string(), number(attempted as f64));
    root.insert("failed".to_string(), number(failed as f64));
    root.insert("metrics".to_string(), Value::Object(out));
    serde_json::to_string(&Value::Object(root)).expect("serialize result")
}

fn run(spec: &Spec, args: &Args) -> i32 {
    let mut fingerprint = match stats::host_fingerprint() {
        Value::Object(o) => o,
        _ => unreachable!("fingerprint is an object"),
    };
    for (k, v) in [
        ("workload", Value::String(spec.name.into())),
        ("seed", number(args.seed as f64)),
        ("seconds", number(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("train_threads", number(train::THREADS as f64)),
        ("server_threads", number(train::THREADS as f64)),
        ("pool_threads", number(train::THREADS as f64)),
        ("connections", number(load::CONNECTIONS as f64)),
    ] {
        fingerprint.insert(k.to_string(), v);
    }
    println!("{}", serde_json::to_string(&Value::Object(fingerprint)).expect("fingerprint"));

    let mut m = Metrics::new();
    let mut checks: Vec<(&'static str, bool)> = Vec::new();
    let report = if args.trace {
        let s = train::setup(spec, args.seed, &Obs::disabled());
        m.insert("datasets.generate_s", (s.generate_s, "s"));
        m.insert("serve.store_build_s", (s.store_build_s, "s"));
        m.insert("serve.hnsw_build_s", (s.hnsw_build_s, "s"));
        let coverage = train::trace_training(&s, &mut m);
        m.insert("trace.blocking_path_frac", (coverage, "fraction"));
        checks.push((
            "traced layer times account for the fit wall time",
            (coverage - 1.0).abs() <= COVERAGE_TOLERANCE,
        ));
        train::trace_kernels(&s, &mut m);
        serve::serve(spec, args.seed, args.seconds, true, s, &mut m)
    } else {
        let t = train::train_reps(spec, args.seed, spec.setup_reps);
        println!(
            "embedding hash {:#018x} (identical across {} fits: {})",
            t.hash, spec.setup_reps, t.hashes_equal
        );
        checks.push(("embedding is finite", t.finite));
        checks.push(("embedding hash is identical across fits of one seed", t.hashes_equal));
        m.insert("setup_s", (t.setup_s, "s"));
        m.insert("fit_s", (t.fit_s, "s"));
        m.insert("train_nodes_per_s", (t.nodes_per_s, "nodes/s"));
        m.insert("linkpred_auc", (train::linkpred_auc(&t.last), "auc"));
        serve::serve(spec, args.seed, args.seconds, false, t.last, &mut m)
    };
    m.insert("peak_rss_mb", (stats::peak_rss_mb(), "MiB"));
    checks.extend(report.checks);

    if report.generator_late_p99_ms > LATE_LIMIT_MS {
        eprintln!(
            "perfbench: invalid run: generator p99 lateness {:.2} ms exceeds {LATE_LIMIT_MS} ms",
            report.generator_late_p99_ms
        );
        return 3;
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &name in names {
        let (value, unit) = m[name];
        println!("{name:<32} {value:>14.6} {unit}");
    }
    let mut correct = true;
    for (what, ok) in &checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        correct &= ok;
    }
    let failed = report.tally.shed + report.tally.failed;
    println!("{}", result_line(correct, report.tally.sent, failed, &m, names));
    if correct {
        0
    } else {
        1
    }
}

/// Runs every workload, each in a process of its own, and prints their
/// metrics side by side.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("current executable");
    let mut status = 0;
    let mut metrics = BTreeMap::new();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    for spec in &WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", spec.name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn workload process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let parsed = stdout.lines().last().and_then(|l| serde_json::from_str::<Value>(l).ok());
        let Some(Value::Object(result)) = parsed.filter(|_| out.status.success()) else {
            eprintln!("perfbench: workload {} failed ({})", spec.name, out.status);
            status = 1;
            correct = false;
            continue;
        };
        if let (Some(Value::Number(a)), Some(Value::Number(f))) =
            (result.get("attempted"), result.get("failed"))
        {
            attempted += a;
            failed += f;
        }
        if let Some(Value::Object(ms)) = result.get("metrics") {
            for (name, v) in ms {
                metrics.insert(format!("{}.{name}", spec.name), v.clone());
            }
        }
    }
    let mut root = BTreeMap::new();
    root.insert("correct".to_string(), Value::Bool(correct));
    root.insert("attempted".to_string(), number(attempted));
    root.insert("failed".to_string(), number(failed));
    root.insert("metrics".to_string(), Value::Object(metrics));
    println!("{}", serde_json::to_string(&Value::Object(root)).expect("serialize"));
    status
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = if args.workload == "all" {
        run_all(&args)
    } else if let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) {
        run(spec, &args)
    } else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        2
    };
    std::process::exit(code);
}
