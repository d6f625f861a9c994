#!/usr/bin/env python3
"""Validates serving-path artifacts captured by CI.

Usage:
  validate_serve.py <dir>              # route-response schemas (integration step)
  validate_serve.py --load <dir>       # concurrent load summary + shed stats
  validate_serve.py --bench <file>     # BENCH_serve.json concurrency sweep
  validate_serve.py --mutations <dir>  # mutation soak: kill -9 recovery + replay equality

Default mode expects one response per route saved into <dir>: healthz.json,
knn.json, links.json, encode.json, stats.json. Each file must parse as JSON
and carry the documented response schema (README "Serving"), including the
per-route latency histograms under /stats.

--load expects <dir>/load.json (the `coane-cli query --concurrency` summary
against a deliberately tiny admission queue) and <dir>/stats_load.json: every
request must have completed as 200 or a fast 429 — none hung, none errored —
and the server must have recorded the shed decisions it made.

--bench validates the committed BENCH_serve.json micro-batching section (a
concurrency sweep with strictly increasing connection counts, finite positive
throughput/latency, and a batched speedup >= 2x over the per-request baseline
that is arithmetically consistent with the recorded points) and the
per-precision quantization sweep: exactly f32/int8 points at >= 100k nodes,
every recall@k >= 0.95, a scan footprint shrinking f32 > int8, and an
int8-over-f32 brute-force speedup >= 1.3x that follows from the
recorded throughputs.

--mutations expects the artifacts of the CI mutation soak: acks.jsonl (one
upsert/delete response per acked mutation), health_before.json (just before
the SIGKILL) and health_after.json (after restarting on the same data dir),
knn_recovered.json / knn_replayed.json (the same exact-kNN query against the
crash-recovered server and against a fresh server that replayed the identical
mutation stream), stats_mut.json (recovered server, after compaction settled)
and stats_replay.json (replay server). It enforces the determinism contract:
ack seqs dense from 1, the recovered seq equals the acked prefix, the settled
generation arithmetic holds (generation = seq div compact_every), and the
recovered and replayed kNN answers match exactly — the generation stamp is the
one field allowed to differ, since a crash may land before or after a fold.
"""

import json
import sys

SPEEDUP_FLOOR = 2.0
PRECISION_MIN_NODES = 100_000
PRECISION_RECALL_FLOOR = 0.95
INT8_SPEEDUP_FLOOR = 1.3


def load(path: str):
    with open(path) as f:
        return json.load(f)


def check_neighbors(results, k: int, nodes: int, what: str) -> None:
    assert isinstance(results, list) and results, f"{what}: empty results"
    for res in results:
        neigh = res["neighbors"]
        assert len(neigh) == k, f"{what}: expected {k} neighbors, got {len(neigh)}"
        scores = [n["score"] for n in neigh]
        assert scores == sorted(scores, reverse=True), f"{what}: scores not descending"
        for n in neigh:
            assert isinstance(n["id"], int) and 0 <= n["id"] < nodes, f"{what}: bad id {n['id']}"
            assert isinstance(n["score"], (int, float)), f"{what}: non-numeric score"


def check_histogram(histograms, name: str) -> None:
    assert name in histograms, f"histogram {name} missing from {sorted(histograms)}"
    h = histograms[name]
    assert h["count"] > 0, f"histogram {name} recorded nothing"
    for field in ("min_us", "max_us", "p50_us", "p90_us", "p99_us"):
        v = h[field]
        assert isinstance(v, (int, float)) and v >= 0, f"histogram {name}.{field} invalid: {v}"
    assert h["p50_us"] <= h["p99_us"] <= h["max_us"], f"histogram {name} percentiles disordered"


def validate_routes(d: str) -> None:
    health = load(f"{d}/healthz.json")
    assert health["status"] == "ok", f"unhealthy: {health}"
    nodes, dim = health["nodes"], health["dim"]
    assert nodes > 0 and dim > 0, f"degenerate store: {health}"
    assert health["encode"] is True, "encode should be enabled in the CI smoke"
    assert isinstance(health["scorer"], str)

    knn = load(f"{d}/knn.json")
    assert knn["scorer"] == health["scorer"]
    check_neighbors(knn["results"], knn["k"], nodes, "knn")
    # Id queries exclude themselves (the smoke queries ids 0 and 1).
    for qid, res in zip((0, 1), knn["results"]):
        assert all(n["id"] != qid for n in res["neighbors"]), f"knn: query {qid} in own results"

    links = load(f"{d}/links.json")
    assert isinstance(links["scores"], list) and links["scores"], "links: no scores"
    assert all(isinstance(s, (int, float)) for s in links["scores"]), "links: non-numeric score"

    encode = load(f"{d}/encode.json")
    assert encode["dim"] == dim
    assert len(encode["embeddings"]) == 1, "encode: expected one embedded node"
    assert len(encode["embeddings"][0]) == dim, "encode: wrong embedding width"
    assert all(isinstance(x, (int, float)) for x in encode["embeddings"][0])
    check_neighbors(encode["neighbors"], 3, nodes, "encode.neighbors")

    stats = load(f"{d}/stats.json")
    counters = stats["counters"]
    assert counters.get("serve/knn/requests", 0) >= 2, f"knn uncounted: {counters}"
    assert counters.get("serve/links/requests", 0) >= 1, f"links uncounted: {counters}"
    assert counters.get("serve/encode/requests", 0) >= 1, f"encode uncounted: {counters}"
    assert "serve/queue_depth" in stats["gauges"], "queue-depth gauge missing"
    scopes = stats["scopes"]
    for cls in ("serve/knn", "serve/links", "serve/encode"):
        assert cls in scopes and scopes[cls]["calls"] > 0, f"scope {cls} missing from {scopes}"
    # Every route driven before /stats must have a latency histogram.
    for route in ("healthz", "knn", "links", "encode"):
        check_histogram(stats["histograms"], f"serve/http/{route}")

    print(f"{d} OK: {nodes} nodes x {dim}, all route schemas valid")


def validate_load(d: str) -> None:
    summary = load(f"{d}/load.json")
    total = summary["total"]
    assert total == summary["concurrency"] * summary["repeat"], f"load total mismatch: {summary}"
    # The 429-not-hangs contract: every request reached a terminal status.
    assert summary["failed"] == 0, f"load run had hard failures: {summary}"
    assert summary["ok"] + summary["shed"] == total, f"load accounting broken: {summary}"
    assert summary["ok"] >= 1, f"nothing got through the saturated queue: {summary}"
    # queue_cap=1 under 8 concurrent clients: shedding must actually happen,
    # otherwise the admission gate silently queued past its bound.
    assert summary["shed"] >= 1, f"saturated queue never shed: {summary}"
    assert summary["qps"] > 0 and summary["elapsed_secs"] > 0, f"degenerate timing: {summary}"

    stats = load(f"{d}/stats_load.json")
    shed = stats["counters"].get("serve/shed", 0)
    assert shed >= summary["shed"], f"server recorded {shed} sheds, client saw {summary['shed']}"
    check_histogram(stats["histograms"], "serve/http/knn")

    print(f"{d} OK: {summary['ok']} served / {summary['shed']} shed of {total}, none hung")


def validate_precisions(prec) -> None:
    assert prec["nodes"] >= PRECISION_MIN_NODES, (
        f"precision sweep ran at {prec['nodes']} nodes, need >= {PRECISION_MIN_NODES}"
    )
    assert prec["rerank_factor"] >= 1, f"degenerate rerank factor: {prec}"
    points = prec["points"]
    names = [p["precision"] for p in points]
    assert names == ["f32", "int8"], f"precision points are {names}"
    for p in points:
        for field in ("hnsw_qps", "exact_qps", "build_ms"):
            assert p[field] > 0, f"{p['precision']}: non-positive {field}: {p[field]}"
        assert p["recall_at_k"] >= PRECISION_RECALL_FLOOR, (
            f"{p['precision']}: recall {p['recall_at_k']:.4f} below {PRECISION_RECALL_FLOOR}"
        )
        assert p["store_bytes"] > 0 and p["file_bytes"] > 0, f"{p['precision']}: zero byte counts"
    by_name = {p["precision"]: p for p in points}
    f32, int8 = by_name["f32"], by_name["int8"]
    assert f32["store_bytes"] > int8["store_bytes"], (
        "scan footprints must shrink f32 > int8: "
        + str([p["store_bytes"] for p in points])
    )
    speedup = prec["int8_speedup"]
    assert speedup >= INT8_SPEEDUP_FLOOR, (
        f"int8 speedup {speedup:.2f} below {INT8_SPEEDUP_FLOOR}x"
    )
    recomputed = int8["exact_qps"] / f32["exact_qps"]
    assert abs(recomputed - speedup) <= 0.1 * speedup, (
        f"int8_speedup {speedup:.2f} inconsistent with points ({recomputed:.2f})"
    )
    print(
        f"  precisions OK: int8 {speedup:.2f}x f32 at {prec['nodes']} nodes, "
        f"recalls {[round(p['recall_at_k'], 4) for p in points]}, "
        f"scan bytes {[p['store_bytes'] for p in points]}"
    )


def validate_bench(path: str) -> None:
    report = load(path)
    validate_precisions(report["precisions"])
    conc = report["concurrency"]
    assert conc["sweep_nodes"] > 0, f"degenerate sweep store: {conc['sweep_nodes']}"
    assert conc["baseline_qps"] > 0, f"non-positive baseline qps: {conc['baseline_qps']}"
    points = conc["points"]
    assert points, "concurrency sweep has no points"
    best = 0.0
    for i, p in enumerate(points):
        assert p["qps"] > 0 and p["p50_us"] > 0, f"sweep point {i} non-positive: {p}"
        assert p["p50_us"] <= p["p99_us"], f"sweep point {i} percentiles disordered: {p}"
        assert i == 0 or p["connections"] > points[i - 1]["connections"], (
            "sweep connections not strictly increasing"
        )
        best = max(best, p["qps"])
    speedup = conc["batched_speedup"]
    assert speedup >= SPEEDUP_FLOOR, f"batched speedup {speedup:.2f} below {SPEEDUP_FLOOR}x"
    recomputed = best / conc["baseline_qps"]
    assert abs(recomputed - speedup) <= 0.1 * speedup, (
        f"batched_speedup {speedup:.2f} inconsistent with points ({recomputed:.2f})"
    )
    print(f"{path} OK: {speedup:.2f}x batched speedup over {conc['baseline_qps']:.0f} qps baseline")


def validate_mutations(d: str) -> None:
    acks = []
    with open(f"{d}/acks.jsonl") as f:
        for line in f:
            if line.strip():
                acks.append(json.loads(line))
    assert acks, "no mutation acks captured"
    upserts = deletes = 0
    for i, ack in enumerate(acks):
        assert ack["seq"] == i + 1, f"ack {i}: seq {ack['seq']} breaks dense numbering from 1"
        assert isinstance(ack["generation"], int) and ack["generation"] >= 0, f"ack {i}: {ack}"
        if "applied" in ack:
            assert ack["applied"] >= 1, f"ack {i} applied nothing: {ack}"
            upserts += ack["applied"]
        else:
            assert ack["deleted"] >= 1, f"ack {i} deleted nothing: {ack}"
            deletes += ack["deleted"]
    n = len(acks)

    before = load(f"{d}/health_before.json")
    after = load(f"{d}/health_after.json")
    for name, h in (("before kill", before), ("after restart", after)):
        assert h["status"] == "ok" and h["mutable"] is True, f"health {name}: {h}"
    assert before["seq"] == n, f"acked {n} mutations but pre-kill seq is {before['seq']}"
    assert after["seq"] == n, (
        f"kill -9 recovery broke the acked-prefix contract: acked {n}, recovered {after['seq']}"
    )
    assert after["nodes"] == before["nodes"], (
        f"live row count changed across crash recovery: {before['nodes']} -> {after['nodes']}"
    )

    recovered = load(f"{d}/knn_recovered.json")
    replayed = load(f"{d}/knn_replayed.json")
    # A crash can land before or after a background fold, so the physical
    # generation the recovered server boots on is the one thing allowed to
    # differ from a fresh replay. Everything observable — the seq stamp and
    # the exact scores — must match bit for bit across the two layouts.
    for resp in (recovered, replayed):
        assert isinstance(resp.pop("generation"), int), f"knn response lost its stamp: {resp}"
    assert recovered["seq"] == n, f"recovered kNN stamped seq {recovered['seq']}, expected {n}"
    assert recovered == replayed, (
        f"replay inequality:\n recovered: {recovered}\n  replayed: {replayed}"
    )

    stats = load(f"{d}/stats_mut.json")
    store = stats["store"]
    assert store["mutable"] is True and store["seq"] == n, f"recovered store stats: {store}"
    ce = store["compact_every"]
    assert ce >= 1, f"bad compact_every: {store}"
    assert store["generation"] == n // ce and store["pending"] == n % ce, (
        f"settled state must be generation {n // ce} + {n % ce} pending: {store}"
    )
    assert store["generation"] >= 1, "soak never compacted — raise the mutation count"
    assert store["live_rows"] == after["nodes"], f"stats/healthz row disagreement: {store}"

    replay_stats = load(f"{d}/stats_replay.json")
    counters = replay_stats["counters"]
    assert counters.get("serve/mut/upserts", 0) == upserts, f"upserts uncounted: {counters}"
    assert counters.get("serve/mut/deletes", 0) == deletes, f"deletes uncounted: {counters}"
    assert counters.get("serve/mut/batches", 0) >= n, f"mutation admissions uncounted: {counters}"
    for route in ("upsert", "delete"):
        check_histogram(replay_stats["histograms"], f"serve/http/{route}")

    print(
        f"{d} OK: {n} mutations ({upserts} upserts / {deletes} deletes) acked, "
        f"kill -9 recovered seq {n} on generation {store['generation']}, replay answers identical"
    )


def main() -> None:
    if sys.argv[1] == "--load":
        validate_load(sys.argv[2])
    elif sys.argv[1] == "--bench":
        validate_bench(sys.argv[2])
    elif sys.argv[1] == "--mutations":
        validate_mutations(sys.argv[2])
    else:
        validate_routes(sys.argv[1])


if __name__ == "__main__":
    main()
