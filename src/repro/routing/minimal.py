"""Unrestricted minimal (shortest-path) routing.

The baseline against which up*/down* restrictions are measured: every
minimal path is legal, the phase is ignored, and the shortest-path link
support is computed from plain forward/backward BFS.  Note that minimal
routing on arbitrary topologies is *not* deadlock-free for wormhole
switching (see :mod:`repro.routing.deadlock`); the simulator accepts it for
ablations but the paper's configuration uses up*/down*.
"""

from __future__ import annotations

from typing import Tuple

from repro.routing.base import Hop, Phase, RoutingAlgorithm
from repro.topology.graph import Topology


class MinimalRouting(RoutingAlgorithm):
    """Shortest-path routing with every minimal path allowed."""

    def __init__(self, topology: Topology):
        super().__init__(topology)
        self._build_routes(
            ((a, Phase.UP, b, Phase.UP, link)
             for link, (u, v) in enumerate(topology.links)
             for a, b in ((u, v), (v, u))),
            phases=1)

    @property
    def name(self) -> str:
        return "minimal"

    def next_hops(self, current: int, phase: Phase, dst: int) -> Tuple[Hop, ...]:
        if current == dst:
            return ()
        ddst = self._bwd[dst]
        here = ddst[current]
        return tuple(
            (v, Phase.UP)
            for v in self.topology.neighbors(current)
            if ddst[v] == here - 1
        )


__all__ = ["MinimalRouting"]
