"""Benchmark of the mapping pipeline, the simulator and the service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload map-scale --seed 1 --seconds 20 \
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists): ``map-scale``,
``paper-sim``, ``many-seed`` and ``service-mix``.  With ``--trace 0`` the
last stdout line reports the end-to-end metrics of ``BENCHMARK.json``,
scaled to the host's nominal speed (``harness.REFERENCES``; the record
keeps the host seconds and the speed); with ``--trace 1`` it reports the
per-layer metrics, in host seconds, taken from spans kept in memory and
written to ``perfbench_out/<run>.spans.jsonl`` at the end.
The full result set, with provenance, goes to ``perfbench_out/<run>.json``.
The exit code is 1 when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from statistics import median

# One thread per workload: keep BLAS pools out of the measurement, and
# keep the program's own environment knobs out of the inputs.
for _key in [k for k in os.environ if k.startswith("REPRO_")]:
    del os.environ[_key]
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from harness import (  # noqa: E402
    LAYERS, OUT_DIR, REFERENCES, ROOT, Tracer, host_speed, provenance,
    reference_s, self_times,
)


def _metrics(out, spec, values):
    """The declared metrics; a missing one fails the run."""
    unknown = sorted(set(values) - {m["name"] for m in spec})
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        out.failed += 1
        out.errors.append(f"metrics not measured: {missing}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in spec if m["name"] in values}


def _trace_metrics(tracer: Tracer, passes):
    """Per-layer values every traced run reports, and self seconds.

    Traced and untraced passes of a run do the same work, so the ratio of
    their mean walls is the tracing overhead.
    """
    traced = [w for t, w in passes if t]
    untraced = [w for t, w in passes if not t]
    wall = sum(traced)
    selfs = self_times(tracer.spans)
    values = {
        "trace.overhead": (wall / len(traced)) / (sum(untraced)
                                                  / len(untraced)),
        "trace.pass_s": wall,
        "trace.spans": float(len(tracer.spans)),
    }
    for layer in LAYERS:
        values[f"self_s.{layer}"] = selfs[layer]
        values[f"self_share.{layer}"] = selfs[layer] / wall
    return values, selfs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS, Ctx

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"one of {', '.join(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    prov = provenance()
    tracer = Tracer()
    ctx = Ctx(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
              tracer=tracer, tag=tag)
    out = WORKLOADS[args.workload](ctx)
    prov["loadavg_after"] = os.getloadavg()
    prov["reference_s_after"] = {k: reference_s(k) for k in REFERENCES}

    if args.trace:
        trace_values, selfs = _trace_metrics(tracer, out.passes)
        metrics = _metrics(out, spec["per_layer"],
                           {**out.layer, **trace_values})
        tracer.write(OUT_DIR / f"{tag}.spans.jsonl")
        wall = trace_values["trace.pass_s"]
        print(f"self time per layer over {wall:.3f} s of traced passes "
              f"(tracing overhead {trace_values['trace.overhead']:.4f}x "
              "traced/untraced pass wall):")
        for layer in LAYERS:
            print(f"  {layer:<11} {selfs[layer]:10.4f} s "
                  f"{selfs[layer] / wall:8.2%}")
    else:
        speed = host_speed(ctx.reference, out.scalar_share)
        metrics = _metrics(out, spec["end_to_end"],
                           {k: v / speed for k, v in out.e2e.items()})

    correct = out.failed == 0 and all(out.checks.values())
    result = {"correct": correct, "attempted": out.attempted,
              "failed": out.failed, "metrics": metrics}
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "checks": out.checks, "errors": out.errors, "info": out.info,
              "layer": out.layer, "e2e_host_s": out.e2e,
              "reference": {
                  "scalar_share": out.scalar_share,
                  "host_speed": host_speed(ctx.reference, out.scalar_share),
                  "median_s": {k: median(s[k] for s in ctx.reference)
                               for k in REFERENCES},
                  "samples": len(ctx.reference)},
              "passes": out.passes, "provenance": prov}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")

    print(f"workload {args.workload} seed {args.seed}: "
          f"{out.attempted} attempted, {out.failed} failed")
    for name, ok in out.checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for err in out.errors:
        print(f"  error {err}")
    for key, value in out.info.items():
        print(f"  {key}: {value}")
    print("provenance: " + json.dumps(prov, default=str))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
