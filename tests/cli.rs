//! End-to-end test of the `coane-cli` binary: generate → embed (+ save
//! model) → evaluate → infer, all through the real executable.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_coane-cli"))
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coane_cli_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_workflow_through_the_binary() {
    let dir = tmpdir();
    let graph = dir.join("g.json");
    let emb = dir.join("e.csv");
    let model = dir.join("m.json");
    let inferred = dir.join("new.csv");

    // generate
    let out = cli()
        .args(["generate", "--preset", "webkb-texas", "--scale", "1.0", "--seed", "3"])
        .args(["--out", graph.to_str().unwrap()])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(graph.exists());

    // embed + save model
    let out = cli()
        .args(["embed", "--graph", graph.to_str().unwrap(), "--method", "coane"])
        .args(["--dim", "16", "--epochs", "2", "--out", emb.to_str().unwrap()])
        .args(["--save-model", model.to_str().unwrap()])
        .output()
        .expect("run embed");
    assert!(out.status.success(), "embed failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(emb.exists() && model.exists());

    // evaluate (clustering)
    let out = cli()
        .args(["evaluate", "--graph", graph.to_str().unwrap()])
        .args(["--embedding", emb.to_str().unwrap(), "--task", "cluster"])
        .output()
        .expect("run evaluate");
    assert!(out.status.success(), "evaluate failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("NMI"), "unexpected output: {stdout}");

    // infer with the saved model
    let out = cli()
        .args(["infer", "--model", model.to_str().unwrap()])
        .args(["--graph", graph.to_str().unwrap(), "--nodes", "0,5,10"])
        .args(["--out", inferred.to_str().unwrap()])
        .output()
        .expect("run infer");
    assert!(out.status.success(), "infer failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&inferred).unwrap();
    assert_eq!(text.lines().count(), 3, "expected 3 inferred rows");
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = cli().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_flag_reports_error() {
    let out = cli().args(["generate", "--preset", "cora"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn exit_codes_match_the_error_taxonomy() {
    let dir = tmpdir();

    // 2 = configuration / usage errors.
    let out = cli().output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no command should exit 2");
    let out = cli().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown command should exit 2");
    let out = cli().args(["generate", "--preset", "cora"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing --out should exit 2");

    // Bad flag values are usage errors too, caught before any file is read:
    // an unparseable number, a negative duration, a removed precision.
    let missing = dir.join("nope.json");
    let bad_flags: [(&[&str], &str); 4] = [
        (
            &["embed", "--graph", missing.to_str().unwrap(), "--out", "e.csv", "--epochs", "ten"],
            "--epochs",
        ),
        (
            &["serve", "--store", missing.to_str().unwrap(), "--keep-alive-timeout", "-1"],
            "--keep-alive-timeout",
        ),
        (
            &[
                "query",
                "--addr-file",
                missing.to_str().unwrap(),
                "--addr-timeout",
                "-1",
                "--route",
                "healthz",
            ],
            "--addr-timeout",
        ),
        (
            &[
                "export-store",
                "--embedding",
                missing.to_str().unwrap(),
                "--out",
                "s.store",
                "--precision",
                "f16",
            ],
            "precision",
        ),
    ];
    for (args, flag) in bad_flags {
        let out = cli().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: error does not name {flag}: {stderr}");
    }

    // 3 = I/O: input file does not exist.
    let out = cli()
        .args(["embed", "--graph", missing.to_str().unwrap(), "--method", "coane"])
        .args(["--out", dir.join("e.csv").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "missing graph file should exit 3");

    // 4 = parse: file exists but is not a graph.
    let corrupt = dir.join("corrupt.json");
    std::fs::write(&corrupt, "{\"num_nodes\": oops").unwrap();
    let out = cli()
        .args(["embed", "--graph", corrupt.to_str().unwrap(), "--method", "coane"])
        .args(["--out", dir.join("e.csv").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "corrupt graph JSON should exit 4");
}

#[test]
fn checkpoint_resume_smoke_through_the_binary() {
    let dir = tmpdir().join("ckpt_smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.json");
    let ck = dir.join("ckpts");
    let embed = |epochs: &str, out: &PathBuf, ckpt: bool| {
        let mut c = cli();
        c.args(["embed", "--graph", graph.to_str().unwrap(), "--method", "coane"]).args([
            "--dim",
            "8",
            "--epochs",
            epochs,
            "--out",
            out.to_str().unwrap(),
        ]);
        if ckpt {
            c.args(["--checkpoint-dir", ck.to_str().unwrap(), "--checkpoint-every", "1"]);
        }
        c.output().unwrap()
    };

    assert!(cli()
        .args(["generate", "--preset", "webkb-cornell", "--scale", "1.0", "--seed", "11"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // "Interrupted" run: 2 of 4 epochs, checkpointing each one.
    let partial = dir.join("partial.csv");
    let out = embed("2", &partial, true);
    assert!(out.status.success(), "partial embed failed: {}", String::from_utf8_lossy(&out.stderr));
    // Progress lives on stderr; stdout stays pipe-clean.
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint(s)"));
    assert!(out.stdout.is_empty(), "embed wrote to stdout");

    // Re-run asking for 4 epochs: must resume from the checkpoint...
    let resumed = dir.join("resumed.csv");
    let out = embed("4", &resumed, true);
    assert!(out.status.success(), "resumed embed failed: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resumed from checkpoint at epoch 2"), "no resume notice: {stderr}");

    // ...and produce byte-identical output to an uninterrupted 4-epoch run.
    let direct = dir.join("direct.csv");
    let out = embed("4", &direct, false);
    assert!(out.status.success(), "direct embed failed: {}", String::from_utf8_lossy(&out.stderr));
    let resumed_bytes = std::fs::read(&resumed).unwrap();
    let direct_bytes = std::fs::read(&direct).unwrap();
    assert!(!resumed_bytes.is_empty());
    assert_eq!(resumed_bytes, direct_bytes, "resumed CSV differs from uninterrupted run");
}

/// stdout carries only results: `embed` with full progress/telemetry flags
/// must keep it byte-empty, and `--quiet` must silence stderr too.
#[test]
fn stdout_stays_pipe_clean() {
    let dir = tmpdir().join("pipe_clean");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.json");
    assert!(cli()
        .args(["generate", "--preset", "webkb-texas", "--scale", "1.0", "--seed", "5"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // Noisy flags on: everything lands on stderr, nothing on stdout.
    let emb = dir.join("e.csv");
    let metrics = dir.join("m.jsonl");
    let out = cli()
        .args(["embed", "--graph", graph.to_str().unwrap(), "--method", "coane"])
        .args(["--dim", "8", "--epochs", "2", "--out", emb.to_str().unwrap()])
        .args(["--log-every", "1", "--metrics-json", metrics.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "embed failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "stdout not clean: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("epoch 1/2"), "missing progress line: {stderr}");
    assert!(stderr.contains("observability summary"), "missing summary: {stderr}");

    // --quiet: both streams silent, but the telemetry file is still written.
    let emb_q = dir.join("eq.csv");
    let metrics_q = dir.join("mq.jsonl");
    let out = cli()
        .args(["embed", "--graph", graph.to_str().unwrap(), "--method", "coane"])
        .args(["--dim", "8", "--epochs", "2", "--out", emb_q.to_str().unwrap()])
        .args(["--metrics-json", metrics_q.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "quiet stdout not empty");
    assert!(
        out.stderr.is_empty(),
        "quiet stderr not empty: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(metrics_q.exists(), "--quiet must not suppress --metrics-json");

    // Telemetry observes but never perturbs: both runs are byte-identical.
    assert_eq!(std::fs::read(&emb).unwrap(), std::fs::read(&emb_q).unwrap());

    // `evaluate` results are the one thing that belongs on stdout.
    let out = cli()
        .args(["evaluate", "--graph", graph.to_str().unwrap()])
        .args(["--embedding", emb.to_str().unwrap(), "--task", "cluster"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("NMI"));
}

/// `--metrics-json` emits one JSON object per line; per-epoch records carry
/// all three objective terms, wall time, throughput, and cache statistics.
#[test]
fn metrics_jsonl_schema() {
    use serde::Value;

    let dir = tmpdir().join("metrics_schema");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.json");
    assert!(cli()
        .args(["generate", "--preset", "webkb-cornell", "--scale", "1.0", "--seed", "7"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let metrics = dir.join("m.jsonl");
    let out = cli()
        .args(["embed", "--graph", graph.to_str().unwrap(), "--method", "coane"])
        .args(["--dim", "8", "--epochs", "3", "--out", dir.join("e.csv").to_str().unwrap()])
        .args(["--metrics-json", metrics.to_str().unwrap(), "--quiet"])
        .output()
        .unwrap();
    assert!(out.status.success(), "embed failed: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&metrics).unwrap();
    let mut epochs = 0usize;
    let mut kinds = Vec::new();
    for line in text.lines() {
        let v: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("invalid JSON line {line:?}: {e:?}"));
        let Value::Object(map) = v else { panic!("line is not an object: {line}") };
        assert!(matches!(map.get("t"), Some(Value::Number(_))), "missing t: {line}");
        let Some(Value::String(kind)) = map.get("event") else {
            panic!("missing event kind: {line}");
        };
        kinds.push(kind.clone());
        if kind == "epoch" {
            epochs += 1;
            for key in [
                "epoch",
                "loss",
                "loss_pos",
                "loss_neg",
                "loss_att",
                "grad_norm",
                "lr",
                "seconds",
                "nodes",
                "nodes_per_sec",
                "batches",
                "cache_rows",
                "nnz",
                "prefetch_depth",
                "prefetch_occupancy",
            ] {
                assert!(
                    matches!(map.get(key), Some(Value::Number(_))),
                    "epoch record missing numeric {key}: {line}"
                );
            }
        }
    }
    assert_eq!(epochs, 3, "expected one record per epoch: {kinds:?}");
    assert!(kinds.iter().any(|k| k == "run"), "missing run record");
    assert!(kinds.iter().any(|k| k == "scope"), "missing scope aggregates");
    assert!(kinds.iter().any(|k| k == "summary"), "missing summary line");
}

#[test]
fn bad_node_id_rejected_by_infer() {
    let dir = tmpdir();
    let graph = dir.join("g2.json");
    let model = dir.join("m2.json");
    let emb = dir.join("e2.csv");
    assert!(cli()
        .args(["generate", "--preset", "webkb-cornell", "--scale", "1.0", "--seed", "9"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(cli()
        .args(["embed", "--graph", graph.to_str().unwrap(), "--method", "coane"])
        .args(["--dim", "8", "--epochs", "1", "--out", emb.to_str().unwrap()])
        .args(["--save-model", model.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let out = cli()
        .args(["infer", "--model", model.to_str().unwrap()])
        .args(["--graph", graph.to_str().unwrap(), "--nodes", "999999"])
        .args(["--out", dir.join("x.csv").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
}

/// End-to-end serving workflow through the binary: embed → export-store →
/// serve (addr-file rendezvous on port 0) → query every route → shutdown.
/// Also the stdout-purity check for the new subcommands: `query` prints
/// exactly one JSON document; `export-store` and `serve` print nothing.
#[test]
fn serve_workflow_through_the_binary() {
    let dir = tmpdir().join("serve_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let graph = dir.join("g.json");
    let emb = dir.join("e.csv");
    let model = dir.join("m.json");
    let store = dir.join("e.store");
    let addr_file = dir.join("server.addr");

    assert!(cli()
        .args(["generate", "--preset", "webkb-texas", "--scale", "1.0", "--seed", "5"])
        .args(["--out", graph.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(cli()
        .args(["embed", "--graph", graph.to_str().unwrap(), "--method", "coane"])
        .args(["--dim", "16", "--epochs", "1", "--out", emb.to_str().unwrap()])
        .args(["--save-model", model.to_str().unwrap()])
        .status()
        .unwrap()
        .success());

    // export-store: pipe-clean stdout, store file appears.
    let out = cli()
        .args(["export-store", "--embedding", emb.to_str().unwrap()])
        .args(["--out", store.to_str().unwrap(), "--meta", "cli smoke"])
        .output()
        .unwrap();
    assert!(out.status.success(), "export-store failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "export-store wrote to stdout");
    assert!(store.exists());

    // serve in the background; the addr file is the rendezvous, and the
    // query tool itself waits for it (no poll loop here). The connection
    // knobs parse through the binary.
    let server = cli()
        .args(["serve", "--store", store.to_str().unwrap()])
        .args(["--model", model.to_str().unwrap(), "--graph", graph.to_str().unwrap()])
        .args(["--addr", "127.0.0.1:0", "--addr-file", addr_file.to_str().unwrap()])
        .args(["--keep-alive-timeout", "5", "--read-deadline", "10"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    let query = |route: &str, body: Option<&str>| {
        let mut c = cli();
        c.args(["query", "--addr-file", addr_file.to_str().unwrap(), "--addr-timeout", "60"]);
        c.args(["--route", route]);
        if let Some(b) = body {
            c.args(["--body", b]);
        }
        c.output().unwrap()
    };

    // healthz through the query subcommand: one JSON line on stdout.
    let out = query("healthz", None);
    assert!(out.status.success(), "healthz failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"status\""), "unexpected stdout: {stdout}");
    assert_eq!(stdout.lines().count(), 1, "query stdout must be one JSON document");

    // kNN, link scoring, and inductive encoding all answer 200.
    let out = query("knn", Some(r#"{"ids":[0,1],"k":3}"#));
    assert!(out.status.success(), "knn failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"neighbors\""));
    let out = query("score_links", Some(r#"{"pairs":[[0,1]]}"#));
    assert!(out.status.success(), "score_links failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"scores\""));
    let out = query(
        "encode",
        Some(r#"{"nodes":[{"attr_indices":[0],"attr_values":[1.0],"edges":[0,1]}],"k":2}"#),
    );
    assert!(out.status.success(), "encode failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"embeddings\""));

    // A server-side error surfaces as a nonzero exit with the body on stderr.
    let out = query("knn", Some(r#"{"ids":[999999],"k":3}"#));
    assert_eq!(out.status.code(), Some(2), "bad query should exit 2");
    assert!(out.stdout.is_empty(), "failed query must not write stdout");

    // Load mode: N concurrent keep-alive clients, one summary JSON line.
    let out = cli()
        .args(["query", "--addr-file", addr_file.to_str().unwrap(), "--addr-timeout", "60"])
        .args(["--route", "knn", "--body", r#"{"ids":[0],"k":3}"#])
        .args(["--concurrency", "2", "--repeat", "4"])
        .output()
        .unwrap();
    assert!(out.status.success(), "load mode failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "load mode stdout must be one JSON document");
    assert!(stdout.contains("\"total\":8"), "unexpected load summary: {stdout}");
    assert!(stdout.contains("\"failed\":0"), "load run had failures: {stdout}");

    // shutdown; server exits cleanly with a pipe-clean stdout.
    let out = query("shutdown", None);
    assert!(out.status.success(), "shutdown failed: {}", String::from_utf8_lossy(&out.stderr));
    let server_out = server.wait_with_output().unwrap();
    assert!(server_out.status.success(), "server exited nonzero");
    assert!(server_out.stdout.is_empty(), "serve wrote to stdout");
    assert!(
        String::from_utf8_lossy(&server_out.stderr).contains("listening on"),
        "serve progress belongs on stderr"
    );
}

/// A query against an addr-file that never appears must fail with a typed
/// config error at the deadline — not poll forever.
#[test]
fn query_addr_file_rendezvous_times_out_with_typed_error() {
    let dir = tmpdir().join("no_server");
    std::fs::create_dir_all(&dir).unwrap();
    let missing = dir.join("never.addr");
    let started = std::time::Instant::now();
    let out = cli()
        .args(["query", "--addr-file", missing.to_str().unwrap(), "--addr-timeout", "0.3"])
        .args(["--route", "healthz"])
        .output()
        .unwrap();
    assert!(started.elapsed() < std::time::Duration::from_secs(10), "timeout did not bound wait");
    assert_eq!(out.status.code(), Some(2), "missing addr file should be a config error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("did not appear"), "unexpected stderr: {stderr}");
    assert!(out.stdout.is_empty(), "failed query must not write stdout");
}

/// Store-format failures through the binary: exit code 8 and a typed
/// message, per the error taxonomy.
#[test]
fn corrupt_store_exits_8_through_the_binary() {
    let dir = tmpdir().join("store_errors");
    std::fs::create_dir_all(&dir).unwrap();

    // Not a store at all.
    let fake = dir.join("fake.store");
    std::fs::write(&fake, b"definitely not a store").unwrap();
    let out = cli().args(["serve", "--store", fake.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(8), "bad magic should exit 8");
    assert!(String::from_utf8_lossy(&out.stderr).contains("embedding-store error"));

    // A real store with a flipped payload bit.
    let emb = dir.join("e.csv");
    std::fs::write(&emb, "0.5,0.25\n-1.0,2.0\n").unwrap();
    let store = dir.join("ok.store");
    assert!(cli()
        .args(["export-store", "--embedding", emb.to_str().unwrap()])
        .args(["--out", store.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let mut bytes = std::fs::read(&store).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&store, &bytes).unwrap();
    let out = cli().args(["serve", "--store", store.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(8), "CRC mismatch should exit 8");
    assert!(String::from_utf8_lossy(&out.stderr).contains("CRC32 mismatch"));

    // Mismatched id file through export-store.
    let ids = dir.join("ids.txt");
    std::fs::write(&ids, "7\n").unwrap();
    let out = cli()
        .args(["export-store", "--embedding", emb.to_str().unwrap()])
        .args(["--ids", ids.to_str().unwrap()])
        .args(["--out", dir.join("bad.store").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(8), "id/vector count mismatch should exit 8");
}
