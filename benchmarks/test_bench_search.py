"""Benchmark: parallel multi-start Tabu search vs the serial baseline.

Fig.-5-scale work (24-switch four-ring network, 10 restarts).  Times the
serial and process-pool runs, asserts they are bit-identical, and writes
the measurements to ``benchmarks/BENCH_search.json``.  The speedup column
is honest for the machine it ran on: on a multi-core runner the 10
restarts spread across cores; with fewer than two workers there is no
parallel run to compare, so ``speedup`` is recorded as ``null``.
"""

import json
import time
from pathlib import Path

from conftest import run_once

from repro.parallel import detect_workers
from repro.search.base import SimilarityObjective
from repro.search.tabu import TabuSearch

BENCH_PATH = Path(__file__).parent / "BENCH_search.json"
RESTARTS = 10
SEED = 7


def test_bench_search(benchmark, setup24):
    objective = SimilarityObjective(
        setup24.scheduler.table,
        setup24.workload.switch_quota(setup24.topology),
    )
    workers = detect_workers()

    t0 = time.perf_counter()
    serial = TabuSearch(restarts=RESTARTS, workers=1).run(objective, seed=SEED)
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_once(
        benchmark,
        lambda: TabuSearch(restarts=RESTARTS, workers="auto").run(
            objective, seed=SEED
        ),
    )
    parallel_seconds = time.perf_counter() - t0

    assert parallel.best_value == serial.best_value
    assert (parallel.best_partition.canonical_key()
            == serial.best_partition.canonical_key())
    assert parallel.trace == serial.trace

    payload = {
        "benchmark": "search",
        "topology": setup24.topology.name,
        "method": "tabu",
        "restarts": RESTARTS,
        "seed": SEED,
        "workers": workers,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": (round(serial_seconds / parallel_seconds, 3)
                    if workers >= 2 else None),
        "identical": True,
        "best_value": serial.best_value,
    }
    if workers < 2:
        payload["speedup_note"] = (
            f"only {workers} worker ran, so the 'parallel' run is a second "
            "serial run and no parallel speedup was measured")
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\n{json.dumps(payload, indent=2)}\n[written to {BENCH_PATH.name}]")
