"""Up*/down* routing (Autonet-style).

A BFS spanning tree is grown from a root switch; every link is oriented so
that its "up" end is the endpoint closer to the root (ties by lower id).
A path is *legal* iff it consists of zero or more up traversals followed by
zero or more down traversals.  This forbids some minimal paths — the effect
the paper's distance model is designed to capture — and guarantees both
connectivity and deadlock freedom.

Implementation: a packet's routing state is ``(switch, phase)`` with
``phase`` from :class:`~repro.routing.base.Phase`; legality becomes a plain
reachability problem on a directed *state graph* with ``2N`` nodes:

- an up traversal keeps phase ``UP``;
- a down traversal moves (or keeps) phase ``DOWN``;
- no edge ever leaves ``DOWN`` for ``UP``.

Shortest legal distances, per-state next hops and shortest-path link
supports all come out of the forward/backward searches the base class runs
on this graph (:meth:`~repro.routing.base.RoutingAlgorithm._build_routes`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.routing.base import Hop, Phase, RoutingAlgorithm, StateEdge
from repro.topology.graph import Topology

_UNREACHED = -1


def bfs_levels(topology: Topology, root: int) -> np.ndarray:
    """BFS level of every switch from ``root`` (the spanning-tree depth)."""
    n = topology.num_switches
    level = np.full(n, _UNREACHED, dtype=np.int64)
    level[root] = 0
    frontier = [root]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in topology.neighbors(u):
                if level[v] == _UNREACHED:
                    level[v] = d
                    nxt.append(v)
        frontier = nxt
    return level


def choose_root(topology: Topology) -> int:
    """Deterministic root election: maximum degree, ties by lowest id.

    Autonet elects the root dynamically; any deterministic rule preserves
    the algorithm's structure, and max-degree roots tend to give shallower
    trees (slightly better legal distances).
    """
    best = 0
    best_deg = topology.degree(0)
    for s in range(1, topology.num_switches):
        d = topology.degree(s)
        if d > best_deg:
            best, best_deg = s, d
    return best


class UpDownRouting(RoutingAlgorithm):
    """Up*/down* routing over a fixed topology.

    Parameters
    ----------
    topology:
        The switch network (must be connected).
    root:
        Spanning-tree root.  ``None`` elects one via :func:`choose_root`.
    """

    def __init__(self, topology: Topology, *, root: Optional[int] = None):
        super().__init__(topology)
        n = topology.num_switches
        if root is None:
            root = choose_root(topology)
        if not (0 <= root < n):
            raise ValueError(f"root {root} outside 0..{n - 1}")
        self.root = root
        self.level = bfs_levels(topology, root)

        # Legal hops of the state graph; _succ[phase][u] lists the
        # (neighbor, phase') continuations of state (u, phase).
        self._succ: List[List[List[Hop]]] = [
            [[] for _ in range(n)] for _ in range(2)
        ]
        edges: List[StateEdge] = []
        for link, (u, v) in enumerate(topology.links):
            for a, b in ((u, v), (v, u)):
                if self.is_up(a, b):
                    hops = [(Phase.UP, Phase.UP)]
                else:
                    hops = [(Phase.UP, Phase.DOWN), (Phase.DOWN, Phase.DOWN)]
                for pa, pb in hops:
                    self._succ[pa][a].append((b, pb))
                    edges.append((a, pa, b, pb, link))
        self._build_routes(edges, phases=2)
        # _db[dst][phase, switch]: remaining legal distance to dst.
        self._db = list(self._bwd.reshape(n, 2, n))

    # ------------------------------------------------------------------ #
    # orientation
    # ------------------------------------------------------------------ #

    def is_up(self, frm: int, to: int) -> bool:
        """True when traversing the link ``frm -> to`` is an *up* traversal.

        The up end of a link is the endpoint with the lexicographically
        smaller ``(BFS level, id)``; travelling toward it is travelling up.
        """
        if not self.topology.has_link(frm, to):
            raise ValueError(f"({frm},{to}) is not a link of {self.topology.name}")
        return (self.level[to], to) < (self.level[frm], frm)

    def up_end(self, u: int, v: int) -> int:
        """The endpoint of link ``u-v`` closer to the root."""
        return v if self.is_up(u, v) else u

    # ------------------------------------------------------------------ #
    # RoutingAlgorithm interface
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return "updown"

    def next_hops(self, current: int, phase: Phase, dst: int) -> Tuple[Hop, ...]:
        if current == dst:
            return ()
        db = self._backward_dist(dst)
        here = db[phase, current]
        if here < 0:
            return ()
        out = [
            (v, nphase)
            for v, nphase in self._succ[phase][current]
            if db[nphase, v] == here - 1
        ]
        out.sort()
        return tuple(out)

    def _backward_dist(self, dst: int) -> np.ndarray:
        """Remaining legal distance from every state to switch ``dst``,
        shape ``(2, N)`` indexed ``[phase, switch]`` (``-1``: unreachable)."""
        return self._db[dst]


__all__ = ["UpDownRouting", "bfs_levels", "choose_root"]
