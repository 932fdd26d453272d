"""Shared pieces of the benchmark: seeds, spans, statistics, provenance.

Nothing here imports ``repro``; the workloads do, and only through the
package-level public names of ``repro``, ``repro.simulation``,
``repro.experiments`` and ``repro.service``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench_out"

# Layers a span name can start with (``<layer>.<what>``).
LAYERS = ("routing", "distance", "search", "core", "simulation", "service",
          "bench")

_NULL = nullcontext()


def derive(seed: int, *tags) -> int:
    """A 31-bit seed derived from the workload seed and ``tags``."""
    blob = repr((int(seed),) + tags).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "little") >> 1


def digest(obj) -> str:
    """sha256 of the canonical JSON form of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #

class _Span:
    __slots__ = ("tracer", "name", "op", "parent", "id", "start")

    def __init__(self, tracer: "Tracer", name: str, op, parent):
        self.tracer = tracer
        self.name = name
        self.op = op
        self.parent = parent

    def __enter__(self) -> int:
        stack = self.tracer._stack()
        self.id = next(self.tracer._ids)
        if self.parent is None and stack:
            self.parent = stack[-1]
        stack.append(self.id)
        self.start = time.perf_counter()
        return self.id

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append({
            "id": self.id, "name": self.name, "start": self.start,
            "end": end, "parent": self.parent, "op": self.op,
        })


class Tracer:
    """Spans kept in memory while ``enabled``; written out at the end.

    A span records name, start, end, parent span and operation id.  The
    parent is the innermost open span of the calling thread unless one is
    passed explicitly (client threads pass their pass span).  While
    disabled, :meth:`span` returns a shared no-op context.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op=None, parent: Optional[int] = None):
        if not self.enabled:
            return _NULL
        return _Span(self, name, op, parent)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    def durations(self, name: str) -> Dict[object, float]:
        """``{op: duration}`` of every span called ``name``."""
        return {s["op"]: s["end"] - s["start"]
                for s in self.spans if s["name"] == name}


def self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Seconds per layer during which some span of that layer ran itself.

    A span's self intervals are its own interval minus the union of its
    children's.  Spans of one layer may overlap (client threads), so the
    self intervals of a layer are merged before they are summed: a layer
    never counts more than the wall time it covers.
    """
    children: Dict[int, List[Dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    intervals: Dict[str, List[Tuple[float, float]]] = {
        layer: [] for layer in LAYERS}
    for s in spans:
        cursor, own = s["start"], intervals.setdefault(
            s["name"].split(".", 1)[0], [])
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            if c["start"] > cursor:
                own.append((cursor, min(c["start"], s["end"])))
            cursor = max(cursor, c["end"])
        if s["end"] > cursor:
            own.append((cursor, s["end"]))
    out = {}
    for layer, own in intervals.items():
        total, reach = 0.0, float("-inf")
        for lo, hi in sorted(own):
            lo = max(lo, reach)
            if hi > lo:
                total += hi - lo
                reach = hi
        out[layer] = total
    return out


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #

def tail(values: Sequence[float], pct: int) -> Optional[float]:
    """The ``pct`` percentile, or ``None`` unless >= 10 samples lie beyond."""
    if len(values) * (100 - pct) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100)[pct - 1]


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #

def _commit() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over ``src/`` Python files: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _scalar_kernel() -> None:
    acc = 0
    for i in range(300_000):
        acc += i * i


_MATRIX = np.random.default_rng(0).random((32, 32)) + 32.0 * np.eye(32)


def _vector_kernel() -> None:
    for _ in range(100):
        np.linalg.pinv(_MATRIX)


# Reference kernels measure the host's speed on fixed benchmark code,
# interleaved with the workload.  A shared host has a slower state that
# lasts from seconds to minutes; it slows this scalar loop about 1.35x and
# these LAPACK calls about 1.8x, and a workload by an amount in between
# that depends on its mix of the two.  The seconds are each kernel's time
# in the host's faster state (2-vCPU Xeon VM).
REFERENCES = {
    "scalar": (_scalar_kernel, 0.019),    # pure-Python integer loop
    "vector": (_vector_kernel, 0.018),    # 32 x 32 pseudo-inverses
}


def reference_s(kind: str) -> float:
    """Seconds of the ``kind`` reference kernel, run once now."""
    t0 = time.perf_counter()
    REFERENCES[kind][0]()
    return time.perf_counter() - t0


def host_speed(samples: Sequence[Dict[str, float]],
               scalar_share: float) -> float:
    """How many times slower than nominal the host ran during a run.

    The geometric blend of each kernel's median time over its nominal
    time, the scalar kernel weighing ``scalar_share``.
    """
    ratio = {kind: statistics.median(s[kind] for s in samples) / nominal
             for kind, (_fn, nominal) in REFERENCES.items()}
    return (ratio["scalar"] ** scalar_share
            * ratio["vector"] ** (1.0 - scalar_share))


def provenance() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "reference_s_before": {k: reference_s(k) for k in REFERENCES},
        "argv": sys.argv[1:],
    }
