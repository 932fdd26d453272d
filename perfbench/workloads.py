"""The four workloads.

Each workload builds its inputs from the seed, runs a warm-up outside the
measured window, then runs measured *passes* until ``--seconds`` have
elapsed (at least :data:`MIN_PASSES`).  Every pass of a run repeats the
same seeded inputs (service-mix: the same requests under per-pass
topology names, which keep the daemon's store from answering them but
change no computation), so exact counts and digests must repeat from pass
to pass, and every pass does the same work.  Timings are host seconds
from ``time.perf_counter``; the collector runs before each timed piece,
so garbage left by earlier pieces is not charged to the next one.

In a traced run every other pass is traced: the traced passes give the
per-layer numbers and, against the untraced passes on the same inputs,
the tracing overhead.

Every workload reports the same two end-to-end metrics, in host seconds
here (``Outcome.e2e``).  ``run.py`` divides them by the run's host speed
(:func:`harness.host_speed`, from reference kernels timed between the
pieces), which reports them at the host's nominal speed:

- ``setup_s`` — median of the set-ups of the workload's inputs, repeated
  at points spread over the run so they sample all of it;
- ``op_s`` — the workload's headline operation (``info["op"]``), built
  from the median untraced repeat of each of its pieces (map-scale: a
  geometric mean over the sizes; service-mix: one client's request list).
  The inputs of a piece are identical in every pass, so the repeats
  differ only by host interference.  A shared host switches between a
  faster and a slower state, in bursts from milliseconds to minutes:
  fastest repeats depend on whether a run caught the faster state,
  medians on which state held most of the run, and the host speed
  scaling takes that out.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import selectors
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro import (
    CommunicationAwareScheduler,
    ScheduleRequest,
    ServiceClient,
    TabuSearch,
    UpDownRouting,
    Workload,
    build_distance_table,
    clustering_coefficient,
    configure_cache,
    random_irregular_topology,
)
from repro.experiments import paper_16switch_setup, paper_24switch_setup
from repro.service import execute_batch
from repro.simulation import (
    IntraClusterTraffic,
    SimulationConfig,
    canonical_payload,
    find_saturation_rate,
    make_load_points,
    run_load_sweep,
    simulate_batch_vector,
)

from harness import (
    OUT_DIR, REFERENCES, ROOT, Tracer, derive, digest, reference_s, tail,
)

perf = time.perf_counter
# Relative tolerance between two floating-point routes to one quantity.
REL_TOL = 1e-9
MIN_PASSES = 5
REF_EVERY_S = 0.5             # seconds between reference kernel samples

# Per-layer metrics of each layer group; a workload sets the groups it
# does not exercise to 0 explicitly.
MAP_SIZES = (16, 24, 32)
MAP_LAYER = ["search.iterations", "search.evaluations", "core.c_c_mean",
             "search.best_f_g_mean", f"distance.share.{MAP_SIZES[-1]}"] + [
    f"{name}.{n}" for n in MAP_SIZES for name in (
        "routing.updown_s", "distance.table_s", "search.tabu_s",
        "core.evaluate_s", "search.s_per_evaluation")]
SIM_LAYER = ["simulation.cycles_executed", "simulation.cycles_skipped",
             "simulation.arb_requests", "simulation.arb_conflicts",
             "simulation.arb_conflict_rate", "simulation.host_us_per_cycle",
             "simulation.saturation_s", "simulation.vector_call_s"]
SVC_LAYER = ["service.unique", "service.computed",
             "service.computed_per_unique", "service.batches",
             "service.batch_mean_size", "service.wal_accepts",
             "service.wal_accepts_per_unique", "service.wal_unsettled",
             "service.rejected", "service.ping_s", "service.store_hit_s",
             "service.inflight_s", "service.uncached_p90_over_p50"]


@dataclass
class Ctx:
    seed: int
    seconds: int
    trace: bool
    tracer: Tracer
    tag: str
    # Reference kernel times ({kind: seconds}), taken between pieces.
    reference: List[Dict[str, float]] = field(default_factory=list)
    last_reference: float = float("-inf")

    def sample_reference(self) -> None:
        """Time the reference kernels, at most every REF_EVERY_S."""
        if perf() - self.last_reference >= REF_EVERY_S:
            self.reference.append({k: reference_s(k) for k in REFERENCES})
            self.last_reference = perf()


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    e2e: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)
    passes: List[Tuple[bool, float]] = field(default_factory=list)
    # The weight of the scalar reference kernel in the host speed that
    # scales the end-to-end times (harness.host_speed).  Each workload's
    # share is the one that gave the least spread over six seeds: 0 for
    # map-scale (its table is LAPACK work), 0.5 for paper-sim and
    # service-mix, 0.7 for many-seed (its engine loops over cycles in
    # Python around small numpy calls).
    scalar_share: float = 0.5

    def fail(self, what: str, exc: BaseException, ops: int = 1) -> None:
        self.failed += ops
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def check(self, name: str, ok: bool) -> None:
        """Record a correctness check; a failed one counts as a failure."""
        self.checks[name] = bool(ok)
        self.failed += not ok

    def not_exercised(self, names: Iterable[str]) -> None:
        self.layer.update({name: 0.0 for name in names})

    def untraced(self, passes: list) -> list:
        """The results of the untraced passes, from ``measure``."""
        return [r for (traced, _w), r in zip(self.passes, passes)
                if not traced]


def op_seconds(out: Outcome, samples: Iterable[Tuple[object, float]],
               total: Callable[[Dict[object, float]], float]) -> None:
    """Set ``op_s`` from ``(piece, seconds)`` samples of untraced passes.

    A piece's time is the median of its repeats; ``total`` turns the
    per-piece times into the operation's time.
    """
    pieces: Dict[object, List[float]] = {}
    for key, t in samples:
        pieces.setdefault(key, []).append(t)
    out.e2e["op_s"] = total({key: median(v) for key, v in pieces.items()})


class Setup:
    """Builds a workload's inputs from cold caches and times each build."""

    def __init__(self, build: Callable):
        self.build = build
        self.times: List[float] = []

    def __call__(self):
        configure_cache(clear=True)
        gc.collect()
        t0 = perf()
        inputs = self.build()
        self.times.append(perf() - t0)
        return inputs

    def median_s(self) -> float:
        return median(self.times)


def timed(ctx: Ctx, fn: Callable):
    """``(fn(), seconds)``, after a reference sample and a collection
    outside the timing."""
    ctx.sample_reference()
    gc.collect()
    t0 = perf()
    value = fn()
    return value, perf() - t0


def measure(ctx: Ctx, out: Outcome, body: Callable, ops_per_pass: int,
            max_passes: int, between: Optional[Callable] = None,
            between_count: int = 0, min_passes: int = MIN_PASSES) -> list:
    """Run passes for about ``ctx.seconds``, at least ``min_passes``.

    A further pass starts only if one more pass of the mean length so far
    still ends within ``ctx.seconds``.  ``body(index, pass_span_id)`` runs
    one pass; the span id is ``None`` when the pass is untraced.  Odd
    passes of a traced run are traced.  ``between()`` (a set-up repeat)
    runs ``between_count`` times in all, outside the pass timings: after
    a pass whenever the share of the run elapsed calls for one more, and
    after the last pass for any still missing.  A pass that raises counts
    all its operations as failed; the results and ``out.passes`` list the
    passes that completed.
    """
    results = []
    start = perf()
    index = done = 0
    while index < min_passes or (index < max_passes and (perf() - start) * (
            index + 1) / index <= ctx.seconds):
        traced = ctx.trace and index % 2 == 1
        ctx.tracer.enabled = traced
        out.attempted += ops_per_pass
        ctx.sample_reference()
        gc.collect()
        t0 = perf()
        try:
            with ctx.tracer.span("bench.pass", op=index) as pass_id:
                results.append(body(index, pass_id))
            out.passes.append((traced, perf() - t0))
        except Exception as exc:  # counted; the run goes on
            out.fail(f"pass {index}", exc, ops_per_pass)
        finally:
            ctx.tracer.enabled = False
        index += 1
        while between is not None and done < between_count * min(
                1.0, (perf() - start) / ctx.seconds):
            between()
            done += 1
    while between is not None and done < between_count:
        between()
        done += 1
    return results


# --------------------------------------------------------------------- #
# map-scale: topology -> up*/down* -> distance table -> Tabu -> evaluate
# --------------------------------------------------------------------- #

# One pass maps every (size, topology) input once.
# Seeded topologies per size.  Their generation is rejection sampling, so
# its time varies with the seed; several per size even that out.
MAP_TOPOLOGIES = 4
MAP_CLUSTERS = 4
MAP_SETUPS = 40               # set-up repeats per run


def _map_one(ctx: Ctx, n: int, topo_seed: int, tabu_seed: int,
             op: str) -> dict:
    """Map a freshly generated topology; the op time excludes generation."""
    span = ctx.tracer.span
    topo = random_irregular_topology(n, seed=topo_seed)
    ctx.sample_reference()
    gc.collect()
    t0 = perf()
    with span("bench.op", op=op):
        with span("routing.updown", op=op):
            routing = UpDownRouting(topo)
        with span("distance.table", op=op):
            table = build_distance_table(routing)
        t1 = perf()
        scheduler = CommunicationAwareScheduler(
            topo, routing=routing, table=table, search=TabuSearch(workers=1))
        workload = Workload.uniform(MAP_CLUSTERS, n)
        with span("search.tabu", op=op):
            result = scheduler.schedule(workload, seed=tabu_seed)
        t2 = perf()
        with span("core.evaluate", op=op):
            scores = scheduler.evaluate(result.partition)
    t3 = perf()
    labels = np.asarray(result.partition.labels)
    quotas = list(workload.switch_quota(topo))
    c_c = clustering_coefficient(table, result.partition)
    return {
        "n": n, "op": op, "wall": t3 - t0,
        "phases": {"table": t1 - t0, "search": t2 - t1, "evaluate": t3 - t2},
        "fills_quotas": bool(labels.min() >= 0 and np.bincount(
            labels, minlength=len(quotas)).tolist() == quotas),
        # The search tracks F_G incrementally; evaluate recomputes it.
        "f_g_tracked": abs(result.search.best_value - scores["F_G"])
        <= REL_TOL * scores["F_G"],
        # C_c through the single-product path of a separate evaluator.
        "c_c_recomputed": abs(c_c - scores["C_c"]) <= REL_TOL * c_c,
        "c_c": scores["C_c"], "f_g": scores["F_G"],
        "iterations": result.search.iterations,
        "evaluations": result.search.evaluations,
    }


def map_scale(ctx: Ctx) -> Outcome:
    out = Outcome(scalar_share=0.0)
    # Inputs: MAP_TOPOLOGIES seeded topologies of each size, each with its
    # own search seed; every pass maps all of them.
    inputs = [(n, k, derive(ctx.seed, "topo", n, k),
               derive(ctx.seed, "tabu", n, k))
              for n in MAP_SIZES for k in range(MAP_TOPOLOGIES)]
    setup = Setup(lambda: [random_irregular_topology(n, seed=topo_seed)
                           for n, _k, topo_seed, _tabu in inputs])
    setup()
    # Warm-up topologies are outside the measured list.
    for n in MAP_SIZES:
        _map_one(ctx, n, derive(ctx.seed, "warm-topo", n),
                 derive(ctx.seed, "warm", n), f"warm/{n}")

    def body(r, _pass_id):
        return [_map_one(ctx, n, topo_seed, tabu_seed, f"{r}/{k}/{n}")
                for n, k, topo_seed, tabu_seed in inputs]

    passes = measure(ctx, out, body, len(inputs), 10 * ctx.seconds,
                     between=setup, between_count=MAP_SETUPS)
    records = [rec for recs in passes for rec in recs]
    out.check("partitions_fill_quotas", all(
        r["fills_quotas"] for r in records))
    out.check("search_f_g_equals_evaluate", all(
        r["f_g_tracked"] for r in records))
    out.check("c_c_equals_recomputation", all(
        r["c_c_recomputed"] for r in records))
    exact = [[(r["iterations"], r["evaluations"], r["c_c"], r["f_g"])
              for r in recs] for recs in passes]
    out.check("counts_repeat", len(exact) >= 2 and all(
        e == exact[0] for e in exact))

    out.e2e["setup_s"] = setup.median_s()
    def per_size(est):
        """A size's time: the mean over its topologies of the summed
        phases; pieces are keyed ``((k, n), phase)``."""
        return {n: sum(t for ((_k, m), _phase), t in est.items()
                       if m == n) / MAP_TOPOLOGIES for n in MAP_SIZES}

    # Geometric mean over the sizes, so each size weighs the same however
    # long it takes.
    op_seconds(out, ((((r["op"].split("/", 1)[1], r["n"]), phase), t)
                     for recs in out.untraced(passes)
                     for r in recs for phase, t in r["phases"].items()),
               lambda est: math.exp(sum(
                   math.log(t) for t in per_size(est).values())
                   / len(MAP_SIZES)))
    out.info["op"] = (f"map one seeded topology into {MAP_CLUSTERS} "
                      f"clusters: geometric mean over {MAP_SIZES} switches")
    out.info["samples"] = {"passes": len(out.passes), "setups": len(
        setup.times), **{f"{n}-switch": sum(1 for r in records if r["n"] == n)
                         for n in MAP_SIZES}}
    out.info["map_s_p50"] = {n: median(r["wall"] for r in records
                                       if r["n"] == n) for n in MAP_SIZES}

    # Exact counts, over one pass (checked above to repeat).
    first = passes[0]
    lay = out.layer
    lay["search.iterations"] = sum(r["iterations"] for r in first)
    lay["search.evaluations"] = sum(r["evaluations"] for r in first)
    lay["core.c_c_mean"] = float(np.mean([r["c_c"] for r in first]))
    lay["search.best_f_g_mean"] = float(np.mean([r["f_g"] for r in first]))
    if ctx.trace:
        op_s = ctx.tracer.durations("bench.op")
        spans = {name: ctx.tracer.durations(name) for name in (
            "routing.updown", "distance.table", "search.tabu",
            "core.evaluate")}
        evals = {r["op"]: r["evaluations"] for r in records}
        for n in MAP_SIZES:
            ops = [op for op in op_s if op.endswith(f"/{n}")]
            for name, durs in spans.items():
                lay[f"{name}_s.{n}"] = median(durs[op] for op in ops)
            lay[f"search.s_per_evaluation.{n}"] = median(
                spans["search.tabu"][op] / evals[op] for op in ops)
        # Base: the whole mapping, at the largest size.
        lay[f"distance.share.{n}"] = median(
            spans["distance.table"][op] / op_s[op] for op in ops)
    out.not_exercised(SIM_LAYER + SVC_LAYER)
    return out


# --------------------------------------------------------------------- #
# paper-sim: saturation probe + S1..S9 ladders on the paper's networks
# --------------------------------------------------------------------- #

# The paper's 16-switch network is one fixed topology (the default of
# paper_16switch_setup); the seed picks mappings and simulation streams.
PAPER_TOPOLOGY = 42
FIG_RANDOMS = 3
FIG_SETUPS = 8                # set-up repeats per run
# Ladders run a quarter of the default simulation length, so one ladder
# is a short piece that repeats many times in a run.  The saturation probe
# keeps the default length: shorter runs can misjudge saturation by 4x,
# which leaves the whole ladder below it.
FIG_WARMUP, FIG_MEASURE = 250, 1000
SIM_COUNTERS = ("cycles_executed", "cycles_skipped", "arb_requests",
                "arb_conflicts")


def _sim_layer(out: Outcome, results, tracer: Tracer, busy_span: str,
               trace: bool) -> None:
    """Per-pass engine counters, read from the returned results."""
    lay = out.layer
    for key in SIM_COUNTERS:
        lay[f"simulation.{key}"] = float(sum(r.meta[key] for r in results))
    lay["simulation.arb_conflict_rate"] = (lay["simulation.arb_conflicts"]
                                           / lay["simulation.arb_requests"])
    if trace:
        busy = sum(tracer.durations(busy_span).values())
        traced = sum(1 for t, _w in out.passes if t)
        lay["simulation.host_us_per_cycle"] = 1e6 * busy / (
            lay["simulation.cycles_executed"] * traced)


def _digests_repeat(out: Outcome, digests: List[str]) -> None:
    out.check("digests_repeat", len(digests) >= 2 and len(set(digests)) == 1)
    out.info["digest"] = digests[0] if digests else None


def paper_sim(ctx: Ctx) -> Outcome:
    out = Outcome(scalar_share=0.5)
    cfg = SimulationConfig(warmup_cycles=FIG_WARMUP,
                           measure_cycles=FIG_MEASURE, engine="fast",
                           seed=derive(ctx.seed, "sim"))

    def inputs():
        nets = []
        for name, setup in (
                ("16", paper_16switch_setup(derive(ctx.seed, "net16"),
                                            topology_seed=PAPER_TOPOLOGY)),
                ("24", paper_24switch_setup(derive(ctx.seed, "net24")))):
            nets.append((name, setup, [setup.op_mapping()]
                         + setup.random_mappings(FIG_RANDOMS)))
        return nets

    setup = Setup(inputs)
    nets = setup()
    for name, net, recs in nets:   # warm-up, on seeds outside the pass
        run_load_sweep(net.routing_table, IntraClusterTraffic(
            recs[0].mapping), make_load_points(0.02, n=3),
            replace(cfg, seed=derive(ctx.seed, "warm", name)), workers=1)
    span = ctx.tracer.span

    def probe(name, net, recs, index):
        with span("simulation.saturation", op=f"{index}/{name}"):
            return find_saturation_rate(
                net.routing_table, IntraClusterTraffic(recs[0].mapping),
                SimulationConfig(engine="fast", seed=cfg.seed))

    def ladder(net, rec, rates, op, index):
        with span("simulation.sweep", op=f"{index}/{op}"):
            return run_load_sweep(
                net.routing_table, IntraClusterTraffic(rec.mapping), rates,
                replace(cfg, seed=derive(ctx.seed, op)), workers=1)

    def figure_pass(index, _pass_id):
        times, results, record, s9 = {}, [], [], {}
        for name, net, recs in nets:
            sat, times[f"{name}/saturation"] = timed(
                ctx, lambda: probe(name, net, recs, index))
            record.append(sat)
            rates = make_load_points(1.3 * sat["rate"])
            for rec in recs:
                op = f"{name}/{rec.name}"
                points, times[op] = timed(
                    ctx, lambda: ladder(net, rec, rates, op, index))
                results.extend(p.result for p in points)
                record.extend(canonical_payload(p.result) for p in points)
                s9[op] = points[-1].result.accepted_flits_per_switch_cycle
        # Only the first pass keeps its results, for the engine counters.
        return times, results if index == 0 else None, digest(record), s9

    ops_per_pass = len(nets) * (1 + 1 + FIG_RANDOMS)   # probe + ladders
    passes = measure(ctx, out, figure_pass, ops_per_pass, 4 * ctx.seconds,
                     between=setup, between_count=FIG_SETUPS)
    _digests_repeat(out, [p[2] for p in passes])
    s9 = passes[0][3]
    out.check("op_beats_randoms_at_s9", all(
        s9[f"{name}/OP"] > max(s9[f"{name}/{r.name}"] for r in recs[1:])
        for name, _s, recs in nets))

    out.e2e["setup_s"] = setup.median_s()
    op_seconds(out, (piece for p in out.untraced(passes)
                     for piece in p[0].items()),
               lambda est: sum(est.values()))
    out.info["op"] = ("one figure: saturation probe and S1..S9 ladders of "
                      "4 mappings on each network (fast engine; ladders of "
                      f"{FIG_WARMUP}+{FIG_MEASURE} cycles)")
    out.info["samples"] = {"passes": len(passes), "setups": len(setup.times)}
    out.info["ladder_s_p50"] = median(
        t for p in passes for op, t in p[0].items()
        if not op.endswith("/saturation"))
    out.info["s9_accepted"] = s9
    _sim_layer(out, passes[0][1], ctx.tracer, "simulation.sweep", ctx.trace)
    if ctx.trace:
        out.layer["simulation.saturation_s"] = median(
            ctx.tracer.durations("simulation.saturation").values())
    out.not_exercised(MAP_LAYER + SVC_LAYER + ["simulation.vector_call_s"])
    return out


# --------------------------------------------------------------------- #
# many-seed: 144 replications x 5 rates through the vector engine
# --------------------------------------------------------------------- #

VEC_REPS = 144
VEC_WARMUP, VEC_MEASURE = 50, 200
VEC_RATES = 5                 # S1, S3, S5, S7 and S9 of the 9-rate ladder
VEC_SETUPS = 3                # set-up repeats per run
# The ladder belongs to the fixed paper network: its probe seed is fixed,
# and the run seed draws the replications.
VEC_PROBE_SEED = 1


def many_seed(ctx: Ctx) -> Outcome:
    out = Outcome(scalar_share=0.7)

    def inputs():
        net = paper_16switch_setup(derive(ctx.seed, "net16"),
                                   topology_seed=PAPER_TOPOLOGY)
        traffic = IntraClusterTraffic(net.op_mapping().mapping)
        sat = find_saturation_rate(
            net.routing_table, traffic,
            SimulationConfig(engine="fast", seed=VEC_PROBE_SEED))
        cfg = SimulationConfig(warmup_cycles=VEC_WARMUP,
                               measure_cycles=VEC_MEASURE, engine="vector")
        # One replication set (one simulate_batch_vector call) per rate.
        return [[(net.routing_table, traffic, rate,
                  replace(cfg, seed=derive(ctx.seed, "rep", k, r)))
                 for r in range(VEC_REPS)]
                for k, rate in enumerate(make_load_points(
                    1.3 * sat["rate"], n=VEC_RATES))]

    setup = Setup(inputs)
    sets = setup()
    simulate_batch_vector([   # warm-up, on seeds outside the measured set
        (table, traffic, rate, replace(cfg, seed=derive(ctx.seed, "warm", k)))
        for k, (table, traffic, rate, cfg) in enumerate(
            jobs[0] for jobs in sets)])

    def call(k, jobs, index):
        with ctx.tracer.span("simulation.vector_call", op=f"{index}/{k}"):
            return simulate_batch_vector(jobs)

    def ladder(index, _pass_id):
        times, results = {}, []
        for k, jobs in enumerate(sets):
            found, times[k] = timed(ctx, lambda: call(k, jobs, index))
            results.extend(found)
        # Only the first pass keeps its results, for the engine counters.
        return times, results if index == 0 else None, digest(
            [canonical_payload(r) for r in results])

    passes = measure(ctx, out, ladder, len(sets), 10 * ctx.seconds,
                     between=setup, between_count=VEC_SETUPS)
    _digests_repeat(out, [p[2] for p in passes])

    out.e2e["setup_s"] = setup.median_s()
    op_seconds(out, (piece for p in out.untraced(passes)
                     for piece in p[0].items()),
               lambda est: sum(est.values()))
    out.info["op"] = (f"a {VEC_RATES}-rate ladder: one simulate_batch_vector "
                      f"call per rate, {VEC_REPS} replications x "
                      f"{VEC_WARMUP}+{VEC_MEASURE} cycles each")
    out.info["samples"] = {"passes": len(passes), "setups": len(setup.times)}
    out.info["sim_cycles_per_s"] = sum(
        r.warmup_cycles + r.cycles_measured for r in passes[0][1]
        ) / out.e2e["op_s"]
    _sim_layer(out, passes[0][1], ctx.tracer, "simulation.vector_call",
               ctx.trace)
    if ctx.trace:
        out.layer["simulation.vector_call_s"] = median(
            ctx.tracer.durations("simulation.vector_call").values())
    # The saturation probe is part of the set-up here.
    out.not_exercised(MAP_LAYER + SVC_LAYER + ["simulation.saturation_s"])
    return out


# --------------------------------------------------------------------- #
# service-mix: two closed-loop clients against a `repro serve` daemon
# --------------------------------------------------------------------- #

SVC_SWITCHES = 16
SVC_TOPOLOGIES = 4
SVC_PASS_UNIQUE = 8           # unique requests per measured pass
SVC_CLIENTS = 2               # = nproc; each caller blocks on its reply
# Every pass computes each of its unique requests once, so 13 passes
# give the uncached p90 at least its 100 samples.
SVC_MIN_PASSES = 13
SVC_SETUPS = 5                # spare daemon set-ups per run
SVC_PINGS = 50


class Daemon:
    """A ``repro serve`` subprocess: one pool worker, WAL and deadline.

    ``setup_s`` runs from the spawn to the first answered ``ping``.
    """

    def __init__(self, wal: Path, log: Path):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        wal.parent.mkdir(parents=True, exist_ok=True)
        self.wal = wal
        self.address = None
        self._log = open(log, "w")
        t0 = perf()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--workers", "1", "--wal", str(wal),
             "--deadline", "60"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            text=True)
        try:
            line = self._first_line(timeout=120.0)
            host, port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)
            self.address = (host, int(port))
            with ServiceClient(*self.address) as client:
                client.ping()
            self.setup_s = perf() - t0
        except BaseException:
            self.stop()
            raise

    def _first_line(self, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise TimeoutError("daemon did not report its address")
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"daemon failed to start: {line!r}")
        return line

    def stop(self) -> None:
        """Ask for a shutdown; kill the daemon if it does not exit."""
        if self.proc.poll() is None:
            try:
                if self.address is None:
                    raise RuntimeError("daemon has no address")
                with ServiceClient(*self.address, retries=0,
                                   timeout=10) as client:
                    client.shutdown()
                self.proc.wait(timeout=30)
            except Exception:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def _wal_counts(path: Path, fps) -> Dict[str, float]:
    """Accept records of ``fps`` and fingerprints left without a done."""
    accepts: Dict[str, int] = {}
    settled = set()
    for raw in path.read_text().splitlines():
        try:
            rec = json.loads(raw)
        except ValueError:
            continue
        if rec.get("op") == "accept":
            accepts[rec["fp"]] = accepts.get(rec["fp"], 0) + 1
            settled.discard(rec["fp"])
        elif rec.get("op") == "done":
            settled.add(rec["fp"])
    return {
        "accepts": float(sum(accepts.get(fp, 0) for fp in fps)),
        "unsettled": float(sum(1 for fp in accepts if fp not in settled)),
    }


def _key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _renamed(payload: dict, name: str) -> dict:
    """``payload`` with its topology called ``name``."""
    copy = json.loads(json.dumps(payload))
    copy["topology"]["name"] = name
    return copy


def _expected(solo: dict, payload: dict) -> str:
    """The solo result of ``solo``'s request, for the renamed ``payload``.

    The topology name is part of the request fingerprint but of no
    computation, so only the name and fingerprint fields differ.
    """
    return json.dumps({
        **solo, "topology_name": payload["topology"]["name"],
        "fingerprint": ScheduleRequest.from_dict(payload).fingerprint(),
    }, sort_keys=True)


def service_mix(ctx: Ctx) -> Outcome:
    out = Outcome()
    max_passes = SVC_MIN_PASSES + 4 * ctx.seconds
    topologies = [random_irregular_topology(
        SVC_SWITCHES, seed=derive(ctx.seed, "svc-topo", t), name=f"svc-{t}")
        for t in range(SVC_TOPOLOGIES)]

    def request(topo: int, *tags) -> dict:
        return ScheduleRequest.build(
            topologies[topo], clusters=4, method="tabu",
            seed=derive(ctx.seed, "svc-req", *tags)).to_dict()

    # Every pass sends the same requests under its own topology names: the
    # store answers none of a pass's first copies from an earlier pass,
    # and every pass computes the same searches.
    base = [request(i % SVC_TOPOLOGIES, i) for i in range(SVC_PASS_UNIQUE)]
    uniques = [[_renamed(payload, f"{payload['topology']['name']}-p{j}")
                for payload in base] for j in range(max_passes)]
    warm = [request(t, "warm", t) for t in range(SVC_TOPOLOGIES)]
    # Every unique request twice, in one seeded order both clients replay.
    order = [i for i in range(SVC_PASS_UNIQUE) for _ in range(2)]
    random.Random(derive(ctx.seed, "svc-order")).shuffle(order)

    rundir = OUT_DIR / ctx.tag
    setups: List[float] = []

    def spare_setup() -> None:
        """One more spawn-to-ping of a throwaway daemon."""
        spare = Daemon(rundir / f"spare{len(setups)}.wal",
                       rundir / f"spare{len(setups)}.log")
        setups.append(spare.setup_s)
        spare.stop()

    daemon = Daemon(rundir / "daemon.wal", rundir / "daemon.log")
    setups.append(daemon.setup_s)
    try:
        replies, pings, status = _drive(ctx, out, daemon, warm, uniques,
                                        order, max_passes, spare_setup)
    finally:
        daemon.stop()

    errors = [r["error"] for r in replies if "error" in r]
    out.failed += len(errors)
    out.errors.extend(errors)
    # Outside the timed window: each reply against the solo execution of
    # its payload.  The first and the last pass are executed solo; the
    # other passes are checked against the first pass's solo results.
    served = sorted({r["pass"] for r in replies})
    solo = {j: [json.dumps(result, sort_keys=True) for result in
                execute_batch(uniques[j])] for j in served[:1] + served[-1:]}
    first = [json.loads(text) for text in solo[served[0]]]
    expected = {_key(payload): _expected(first[i], payload)
                for j in served for i, payload in enumerate(uniques[j])}
    out.check("solo_results_differ_only_in_name", all(
        solo[j][i] == expected[_key(payload)]
        for j in solo for i, payload in enumerate(uniques[j])))
    out.check("replies_match_solo_execution", all(
        r["result"] == expected[r["key"]] for r in replies
        if r["result"] is not None))
    before, after = status
    rejected = float(sum(after.rejected.values())
                     - sum(before.rejected.values()))
    wal = _wal_counts(daemon.wal, {r["fp"] for r in replies if r["fp"]})
    out.check("no_rejects", rejected == 0)
    out.check("no_unsettled_journal_records", wal["unsettled"] == 0)

    uncached = [r["latency"] for r in replies
                if r["served"] in ("computed", "inflight")]
    p50 = median(uncached)
    p90 = tail(uncached, 90)
    out.check("uncached_p90_has_100_samples", p90 is not None)
    out.e2e["setup_s"] = median(setups)
    # One client's replay of its list, from the median repeat of each of
    # its requests (keyed by client and position; every pass repeats them).
    op_seconds(out, ((r["piece"], r["latency"]) for r in replies
                     if not (ctx.trace and r["pass"] % 2)),
               lambda est: sum(est.values()) / SVC_CLIENTS)
    out.info["pass_s_fastest"] = min(
        w for traced, w in out.passes if not traced)
    out.info["op"] = (f"{SVC_CLIENTS} clients each replay {SVC_PASS_UNIQUE} "
                      f"unique {SVC_SWITCHES}-switch Tabu requests, "
                      "each twice")
    out.info["samples"] = {"passes": len(out.passes), "setups": len(setups),
                           "uncached": len(uncached),
                           "replies": len(replies)}
    out.info["uncached_p50_s"] = p50
    out.info["uncached_p90_s"] = p90
    out.info["req_per_s"] = (sum(1 for r in replies if r["result"])
                             / sum(w for _t, w in out.passes))

    unique = float(len(expected))
    computed = float(after.served["computed"] - before.served["computed"])
    batches = float(after.batches["count"] - before.batches["count"])
    batched = float(after.batches["requests"] - before.batches["requests"])
    by = {kind: [r["latency"] for r in replies if r["served"] == kind]
          for kind in ("store", "inflight")}
    out.layer.update({
        "service.unique": unique,
        "service.computed": computed,
        "service.computed_per_unique": computed / unique,
        "service.batches": batches,
        "service.batch_mean_size": batched / batches,
        "service.wal_accepts": wal["accepts"],
        "service.wal_accepts_per_unique": wal["accepts"] / unique,
        "service.wal_unsettled": wal["unsettled"],
        "service.rejected": rejected,
        "service.ping_s": median(pings),
        "service.store_hit_s": median(by["store"]),
        # 0 when no reply joined a computation already in flight.
        "service.inflight_s": (median(by["inflight"])
                               if by["inflight"] else 0.0),
    })
    if p90 is not None:
        out.layer["service.uncached_p90_over_p50"] = p90 / p50
    out.info["ratio_bases"] = {"unique": unique, "uncached_p50_s": p50,
                               "batches": batches,
                               "inflight_replies": len(by["inflight"])}
    out.not_exercised(MAP_LAYER + SIM_LAYER)
    return out


def _drive(ctx: Ctx, out: Outcome, daemon: Daemon, warm, uniques, order,
           max_passes: int, between: Callable):
    """Warm the worker, probe ping, then replay measured passes."""
    span = ctx.tracer.span
    clients = [ServiceClient(*daemon.address) for _ in range(SVC_CLIENTS)]
    replies: List[dict] = []

    def replay(c: int, j: int, parent) -> List[dict]:
        recs = []
        for pos, i in enumerate(order):
            payload = uniques[j][i]
            rec = {"pass": j, "piece": f"{c}/{pos}", "key": _key(payload),
                   "fp": None, "served": None, "result": None}
            t0 = perf()
            try:
                with span("service.submit", op=f"{j}/{c}/{pos}",
                          parent=parent):
                    reply = clients[c].submit_payload(payload)
            except Exception as exc:  # counted after the pass
                rec["error"] = f"submit {j}/{c}/{pos}: {exc!r}"
            else:
                rec.update(fp=reply["result"].get("fingerprint"),
                           served=reply["served"]["from"],
                           result=json.dumps(reply["result"], sort_keys=True))
            rec["latency"] = perf() - t0
            recs.append(rec)
        return recs

    try:
        for payload in warm:   # requests outside the measured list
            clients[0].submit_payload(payload)
        pings = []
        for _ in range(SVC_PINGS):
            t0 = perf()
            clients[1].ping()
            pings.append(perf() - t0)
        before = clients[0].status()
        with ThreadPoolExecutor(max_workers=SVC_CLIENTS) as pool:
            def body(j, pass_id):
                futures = [pool.submit(replay, c, j, pass_id)
                           for c in range(SVC_CLIENTS)]
                return [rec for f in futures for rec in f.result()]

            for recs in measure(ctx, out, body,
                                SVC_CLIENTS * 2 * SVC_PASS_UNIQUE,
                                max_passes, between=between,
                                between_count=SVC_SETUPS,
                                min_passes=SVC_MIN_PASSES):
                replies.extend(recs)
        after = clients[0].status()
    finally:
        for client in clients:
            client.close()
    return replies, pings, (before, after)


WORKLOADS = {
    "map-scale": map_scale,
    "paper-sim": paper_sim,
    "many-seed": many_seed,
    "service-mix": service_mix,
}
