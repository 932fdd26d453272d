"""Flit-level wormhole network simulation.

Reimplementation of the paper's evaluation substrate (the methodology of
Duato [8]): switch-based irregular networks with wormhole switching,
up*/down* routing, finite channel buffers and 1 flit/cycle links.  The
simulator tracks each message as a *worm* — a contiguous chain of exclusively
held channels with per-channel flit counts — which is operationally
identical to per-flit simulation for wormhole switching with FIFO buffers
while being orders of magnitude cheaper in Python.

Key pieces:

- :class:`~repro.simulation.config.SimulationConfig` — message length,
  buffer depth, delivery channels, arbitration, warmup/measurement;
- :mod:`~repro.simulation.traffic` — traffic patterns (the paper's 100 %
  intracluster uniform pattern, plus uniform/hotspot/intercluster mixes);
- :mod:`~repro.simulation.engine` — the shared engine interface:
  :func:`~repro.simulation.engine.make_simulator` builds the readable
  reference engine
  (:class:`~repro.simulation.network.WormholeNetworkSimulator`), the
  bit-identical struct-of-arrays kernel
  (:class:`~repro.simulation.engine_fast.FastWormholeNetworkSimulator`)
  or the statistically equivalent many-replication numpy kernel
  (:class:`~repro.simulation.engine_vector.VectorWormholeNetworkSimulator`)
  selected by ``SimulationConfig.engine``;
- :mod:`~repro.simulation.sweep` — load sweeps (the S1…S9 points) and
  saturation-throughput estimation.
"""

from repro.simulation.config import SimulationConfig
from repro.simulation.message import Message
from repro.simulation.traffic import (
    TrafficPattern,
    UniformTraffic,
    IntraClusterTraffic,
    HotspotTraffic,
)
from repro.simulation.network import WormholeNetworkSimulator
from repro.simulation.engine import (
    BIT_IDENTICAL_ENGINES,
    ENGINE_NAMES,
    EnginePerf,
    canonical_payload,
    make_simulator,
)
from repro.simulation.engine_fast import FastWormholeNetworkSimulator
from repro.simulation.engine_vector import (
    VectorWormholeNetworkSimulator,
    simulate_batch_vector,
)
from repro.simulation.metrics import SimulationResult
from repro.simulation.sweep import (
    LoadPoint,
    run_load_sweep,
    find_saturation_rate,
    make_load_points,
)
from repro.simulation.probe import (
    RequirementEstimate,
    estimate_requirements,
    probe_requirements,
)

__all__ = [
    "SimulationConfig",
    "Message",
    "TrafficPattern",
    "UniformTraffic",
    "IntraClusterTraffic",
    "HotspotTraffic",
    "WormholeNetworkSimulator",
    "FastWormholeNetworkSimulator",
    "VectorWormholeNetworkSimulator",
    "simulate_batch_vector",
    "BIT_IDENTICAL_ENGINES",
    "ENGINE_NAMES",
    "EnginePerf",
    "canonical_payload",
    "make_simulator",
    "SimulationResult",
    "LoadPoint",
    "run_load_sweep",
    "find_saturation_rate",
    "make_load_points",
    "RequirementEstimate",
    "estimate_requirements",
    "probe_requirements",
]
