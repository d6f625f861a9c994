#!/usr/bin/env python3
"""Validates the committed BENCH_scale.json scaling report.

Usage: validate_scale.py [BENCH_scale.json] [--metrics metrics.jsonl]

Checks (mirroring `bench_scale --smoke`, so a stale or hand-edited file
fails CI even if the Rust smoke is skipped):

* at least 4 sizes, the largest >= 500k nodes;
* every row has positive throughput and training time;
* peak RSS is strictly monotone in graph size (each size ran in a fresh
  process, so a larger graph can never hide behind a smaller one's peak);
* every row landed on the rebuild cache rung — the per-node budget must
  actually force the ladder off the always-fits materialized rung;
* every row's peak RSS stays under its implied budget (accounted resident
  components x slack factor + fixed baseline) — the budget accounting is
  honest, with the cache component bounded by max_cache_bytes;
* the streaming pipeline's embedding hash equals the materialized
  pipeline's at every checked thread count (bit-identity).

With --metrics, additionally checks a --metrics-json stream from a
memory-budgeted CLI training run: the cache telemetry must show the
rebuild rung engaged with positive resident bytes.
"""

import json
import sys

ROW_KEYS = {
    "nodes",
    "edges",
    "contexts",
    "nnz_d",
    "max_cache_bytes",
    "cache_mode",
    "cache_resident_bytes",
    "accounted_bytes",
    "implied_budget_bytes",
    "peak_rss_bytes",
    "train_seconds",
    "nodes_per_sec",
    "embed_hash",
}


def fail(msg):
    print(f"validate_scale: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_report(path):
    with open(path) as f:
        report = json.load(f)

    rows = report.get("rows", [])
    if len(rows) < 4:
        fail(f"only {len(rows)} sizes; need >= 4")
    if max(r["nodes"] for r in rows) < 500_000:
        fail("largest size is below 500k nodes")

    per_node = report["budget_bytes_per_node"]
    prev_nodes = prev_rss = 0
    for row in rows:
        missing = ROW_KEYS - row.keys()
        if missing:
            fail(f"{row.get('nodes', '?')} nodes: missing keys {sorted(missing)}")
        if row["nodes"] <= prev_nodes:
            fail("rows are not sorted by ascending node count")
        if row["max_cache_bytes"] != row["nodes"] * per_node:
            fail(f"{row['nodes']} nodes: budget != nodes x {per_node}")
        if not (row["train_seconds"] > 0 and row["nodes_per_sec"] > 0):
            fail(f"{row['nodes']} nodes: non-positive timing/throughput")
        if row["peak_rss_bytes"] <= prev_rss:
            fail(f"peak RSS not monotone at {row['nodes']} nodes")
        if row["cache_mode"] != "rebuild":
            fail(
                f"{row['nodes']} nodes: cache mode {row['cache_mode']!r} — "
                "the budget never forced the rebuild rung"
            )
        if row["peak_rss_bytes"] > row["implied_budget_bytes"]:
            fail(
                f"{row['nodes']} nodes: peak RSS {row['peak_rss_bytes']} exceeds "
                f"implied budget {row['implied_budget_bytes']}"
            )
        prev_nodes, prev_rss = row["nodes"], row["peak_rss_bytes"]

    if not report.get("bit_identical"):
        fail("bit_identical is not true")
    check = report["bit_check"]
    for h in check["streaming_hashes"]:
        if h != check["materialized_hash"]:
            fail(f"streaming hash {h} != materialized {check['materialized_hash']}")

    largest = rows[-1]
    print(
        f"validate_scale: OK — {len(rows)} sizes up to {largest['nodes']} nodes, "
        f"peak {largest['peak_rss_bytes'] / 2**20:.0f} MiB "
        f"(implied budget {largest['implied_budget_bytes'] / 2**20:.0f} MiB), "
        f"{largest['nodes_per_sec']:.0f} nodes/s, cache={largest['cache_mode']}"
    )


def validate_metrics(path):
    counters = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("event") == "counter":
                counters[rec["name"]] = rec["value"]
    if counters.get("cache/resident_bytes", 0) <= 0:
        fail("metrics: cache/resident_bytes missing or zero")
    if counters.get("cache/mode_rebuild", 0) != 1:
        fail("metrics: budgeted run did not engage the rebuild cache rung")
    print(
        "validate_scale: metrics OK — rebuild cache rung engaged "
        f"({int(counters.get('cache/resident_bytes', 0))} resident bytes)"
    )


def main():
    args = sys.argv[1:]
    metrics = None
    if "--metrics" in args:
        i = args.index("--metrics")
        metrics = args[i + 1]
        del args[i : i + 2]
    validate_report(args[0] if args else "BENCH_scale.json")
    if metrics:
        validate_metrics(metrics)


if __name__ == "__main__":
    main()
