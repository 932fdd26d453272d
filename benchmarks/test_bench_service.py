"""Benchmark: scheduling-service throughput under concurrent load.

Drives a closed-loop load generator — 64 concurrent clients, each with a
persistent connection, submitting a duplicate-heavy request mix — against
two live loopback daemons:

* **naive**: batching off, dedup off, ``cold=True`` (worker caches cleared
  per request).  Every submit pays the full one-shot CLI cost, exactly the
  pre-service world.
* **service**: micro-batching + content-addressed dedup + warm persistent
  pool, i.e. the default ``ServiceConfig``.
* **hardened**: the service config plus the full self-healing tier —
  write-ahead journal (fsync per accepted request), per-request deadline,
  supervision and heartbeat.  Measures what crash safety costs on the
  fault-free path; the bar is < 5% wall-clock regression (plus a small
  constant for short runs).

Writes sustained req/s and p50/p95/p99 latency for all three to
``benchmarks/BENCH_service.json`` and asserts the full service clears the
naive baseline by >= 3x while every reply stays byte-identical to a solo
``execute_batch`` run — the determinism contract under load.
"""

import json
import os
import threading
import time
from pathlib import Path

from conftest import run_once

from repro.service import (
    ScheduleRequest,
    ServiceClient,
    ServiceConfig,
    execute_batch,
    running_service,
)
from repro.topology.irregular import random_irregular_topology

BENCH_PATH = Path(__file__).parent / "BENCH_service.json"

CLIENTS = int(os.environ.get("REPRO_BENCH_CLIENTS", 64))
ROUNDS = int(os.environ.get("REPRO_BENCH_ROUNDS", 6))
UNIQUE = 8          # distinct requests in the mix (duplicate-heavy load)
WORKERS = 2
MIN_SPEEDUP = 3.0
# Hardening (WAL + deadlines + supervision) may cost at most 5% on the
# fault-free path, plus a small constant so short runs aren't judged on
# scheduler jitter alone.
MAX_HARDENED_OVERHEAD = 1.05
HARDENED_SLACK_SECONDS = 0.25


def _request_pool():
    """The shared request mix: UNIQUE seeds on one 8-switch network."""
    topo = random_irregular_topology(8, seed=101, name="bench-svc8")
    requests = [ScheduleRequest.build(topo, clusters=4, seed=s)
                for s in range(UNIQUE)]
    return [r.to_dict() for r in requests], [r.fingerprint() for r in requests]


def _drive(address, payloads):
    """Closed-loop load: CLIENTS threads, each submitting ROUNDS requests.

    Returns (wall_seconds, per-request latencies, replies by fingerprint,
    error strings).  Each client reuses one connection and never has more
    than one request outstanding — classic closed-loop offered load.
    """
    host, port = address
    latencies = [[] for _ in range(CLIENTS)]
    replies = {}
    errors = []
    lock = threading.Lock()
    barrier = threading.Barrier(CLIENTS + 1)

    def client(idx):
        try:
            with ServiceClient(host, port, timeout=300.0) as cli:
                barrier.wait()
                for r in range(ROUNDS):
                    payload = payloads[(idx + r) % len(payloads)]
                    t0 = time.perf_counter()
                    reply = cli.submit_payload(payload)
                    latencies[idx].append(time.perf_counter() - t0)
                    result = reply["result"]
                    with lock:
                        replies[result["fingerprint"]] = result
        except Exception as exc:  # collected, not raised: keep others going
            with lock:
                errors.append(f"client {idx}: {exc!r}")
            try:
                barrier.abort()
            except Exception:
                pass

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    flat = sorted(lat for per in latencies for lat in per)
    return wall, flat, replies, errors


def _percentile(sorted_vals, q):
    if not sorted_vals:
        return None
    idx = min(len(sorted_vals) - 1, round(q * (len(sorted_vals) - 1)))
    return sorted_vals[idx]


def _phase(config, payloads):
    with running_service(config) as svc:
        wall, lats, replies, errors = _drive(svc.address, payloads)
        status = svc.status()
    assert not errors, errors
    total = CLIENTS * ROUNDS
    assert len(lats) == total
    return {
        "requests": total,
        "wall_seconds": round(wall, 4),
        "throughput_rps": round(total / wall, 2),
        "latency_p50_ms": round(_percentile(lats, 0.50) * 1000, 3),
        "latency_p95_ms": round(_percentile(lats, 0.95) * 1000, 3),
        "latency_p99_ms": round(_percentile(lats, 0.99) * 1000, 3),
        "served_computed": status.served["computed"],
        "served_store": status.served["store"],
        "served_inflight": status.served["inflight"],
        "batches": status.batches["count"],
        "max_batch": status.batches["max_size"],
    }, replies


def _render(naive, full, hardened, speedup, overhead):
    rows = [("", "naive", "service", "hardened")]
    for key in ("requests", "wall_seconds", "throughput_rps",
                "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
                "served_computed", "served_store", "served_inflight",
                "batches", "max_batch"):
        rows.append((key, str(naive[key]), str(full[key]),
                     str(hardened[key])))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["service load test: %d clients x %d rounds, %d unique requests"
             % (CLIENTS, ROUNDS, UNIQUE)]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    lines.append(f"throughput speedup: {speedup:.2f}x "
                 f"(required >= {MIN_SPEEDUP:.1f}x)")
    lines.append(f"hardening overhead: {overhead:.3f}x wall "
                 f"(bar: {MAX_HARDENED_OVERHEAD:.2f}x "
                 f"+ {HARDENED_SLACK_SECONDS:.2f}s)")
    return "\n".join(lines)


def test_bench_service(benchmark, record, tmp_path):
    payloads, fingerprints = _request_pool()
    expected = dict(zip(fingerprints, execute_batch(payloads)))

    naive_cfg = ServiceConfig(port=0, workers=WORKERS, max_pending=256,
                              batching=False, dedup=False, cold=True)
    full_cfg = ServiceConfig(port=0, workers=WORKERS, max_pending=256)
    hardened_cfg = ServiceConfig(port=0, workers=WORKERS, max_pending=256,
                                 wal_path=tmp_path / "bench.wal",
                                 request_deadline=120.0,
                                 heartbeat_interval=5.0)

    naive, naive_replies = _phase(naive_cfg, payloads)
    full, full_replies = run_once(benchmark, lambda: _phase(full_cfg,
                                                            payloads))
    hardened, hardened_replies = _phase(hardened_cfg, payloads)

    # Determinism contract under load: whether a reply was computed cold,
    # coalesced into a batch, served from the store, or journaled through
    # the WAL, it is byte-identical to a solo execute_batch run.
    for fp, want in expected.items():
        assert naive_replies[fp] == want, f"naive reply diverged for {fp}"
        assert full_replies[fp] == want, f"service reply diverged for {fp}"
        assert hardened_replies[fp] == want, \
            f"hardened reply diverged for {fp}"

    speedup = full["throughput_rps"] / naive["throughput_rps"]
    overhead = hardened["wall_seconds"] / full["wall_seconds"]
    record("service_load_test",
           _render(naive, full, hardened, speedup, overhead))

    assert full["served_store"] + full["served_inflight"] > 0, \
        "dedup never fired on a duplicate-heavy mix"
    # Work done, not just bytes returned: with dedup on, every unique
    # request is computed exactly once and every duplicate is served from
    # the in-flight map or the store, journal fsyncs included.
    for name, phase in (("service", full), ("hardened", hardened)):
        assert phase["served_computed"] == UNIQUE, (
            f"{name} computed {phase['served_computed']} replies for "
            f"{UNIQUE} unique requests")
    assert speedup >= MIN_SPEEDUP, (
        f"batching+dedup service managed only {speedup:.2f}x the naive "
        f"baseline (required >= {MIN_SPEEDUP:.1f}x)")
    assert hardened["wall_seconds"] <= (
        full["wall_seconds"] * MAX_HARDENED_OVERHEAD
        + HARDENED_SLACK_SECONDS), (
        f"self-healing tier cost {overhead:.3f}x wall on the fault-free "
        f"path (bar: {MAX_HARDENED_OVERHEAD:.2f}x "
        f"+ {HARDENED_SLACK_SECONDS:.2f}s)")

    payload = {
        "benchmark": "service",
        "clients": CLIENTS,
        "rounds_per_client": ROUNDS,
        "unique_requests": UNIQUE,
        "workers": WORKERS,
        "naive": naive,
        "service": full,
        "hardened": hardened,
        "throughput_speedup": round(speedup, 3),
        "min_required_speedup": MIN_SPEEDUP,
        "hardened_overhead_wall": round(overhead, 4),
        "max_hardened_overhead": MAX_HARDENED_OVERHEAD,
        "deterministic": True,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[written to {BENCH_PATH.name}]")
