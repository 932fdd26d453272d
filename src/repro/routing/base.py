"""Routing-algorithm interface.

Legality in up*/down* routing depends on *how* a packet reached its current
switch (once it has travelled a "down" link it may never go up again), so
the interface threads a :class:`Phase` through every hop decision.  A
routing algorithm without history (minimal routing) simply ignores it.

A packet's routing state is ``(switch, phase)``, and an algorithm is
described by its legal hops between states (its *state graph*).  At
construction the base class runs one breadth-first search per source over
that graph, and one per destination over its reverse, all sources at once
as boolean array operations.  Everything else is read from those two
distance arrays:

- all-pairs *legal* shortest distances (``distances``),
- the links lying on any shortest legal path between a pair, in bulk
  (``shortest_path_mask``) and per pair (``links_on_shortest_paths``) —
  the input to the equivalent-distance model of :mod:`repro.distance`,
- per-hop next-hop enumeration (``next_hops``) — the input to the
  simulator's routing tables.

A link ``u-v`` is on a shortest legal ``i → j`` path exactly when some
legal hop ``(u, p) → (v, p')`` over it satisfies
``d(i, (u, p)) + 1 + d((v, p'), j) = d(i, j)``.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import FrozenSet, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.obs import trace as _trace
from repro.topology.graph import Link, Topology

_UNREACHED = -1


class Phase(enum.IntEnum):
    """Routing phase of a packet.

    ``UP``  — the packet has only traversed up links so far (or none);
              it may still ascend toward the spanning-tree root.
    ``DOWN`` — the packet has taken at least one down link; it may only
               descend from now on.

    Phase-free algorithms use ``UP`` throughout.
    """

    UP = 0
    DOWN = 1


# A next-hop option: (neighbor switch, phase after taking the hop).
Hop = Tuple[int, Phase]
# A legal hop of the state graph: (u, phase at u, v, phase at v, link id).
StateEdge = Tuple[int, Phase, int, Phase, int]


def _bfs(starts: np.ndarray, frm: np.ndarray, to: np.ndarray) -> np.ndarray:
    """Hop distances from each row's start states to every state.

    ``starts`` is a ``(rows, states)`` boolean array; the edges are
    ``frm[e] -> to[e]``.  All rows advance one level per step: a state is
    reached when any of its in-edges leaves the frontier.  Unreached
    states read ``-1``.
    """
    dist = np.where(starts, 0, _UNREACHED)
    if to.size == 0:
        return dist
    order = np.argsort(to, kind="stable")
    heads, first = np.unique(to[order], return_index=True)
    tails = frm[order]
    seen = starts.copy()
    frontier = starts
    level = 0
    while frontier.any():
        level += 1
        reached = np.zeros_like(frontier)
        reached[:, heads] = np.logical_or.reduceat(frontier[:, tails], first,
                                                   axis=1)
        frontier = reached & ~seen
        seen |= frontier
        dist[frontier] = level
    return dist


class RoutingAlgorithm(ABC):
    """Common contract for routing algorithms over a fixed topology."""

    def __init__(self, topology: Topology):
        if not topology.is_connected():
            raise ValueError(
                f"routing requires a connected topology; {topology.name} is not"
            )
        self.topology = topology
        self._mask: Optional[np.ndarray] = None

    def _build_routes(self, edges: Iterable[StateEdge], phases: int) -> None:
        """Run the per-source and per-destination searches over the state
        graph with ``phases`` phases and the given legal hops.

        Fills ``_fwd[src, state]`` (distance from ``(src, initial phase)``)
        and ``_bwd[dst, state]`` (distance from ``state`` to ``dst``,
        arriving in any phase), with states numbered ``phase * N + switch``.
        Subclasses call this once, at the end of construction.
        """
        n = self.topology.num_switches
        with _trace.span("routing.build", routing=self.name, switches=n):
            u, pu, v, pv, link = np.array(list(edges),
                                          dtype=np.int64).reshape(-1, 5).T
            self._tail, self._head, self._link = pu * n + u, pv * n + v, link
            switches = np.arange(n)
            starts = np.zeros((n, phases * n), dtype=bool)
            starts[switches, self.initial_phase() * n + switches] = True
            self._fwd = _bfs(starts, self._tail, self._head)
            ends = np.zeros_like(starts)
            for p in range(phases):
                ends[switches, p * n + switches] = True
            self._bwd = _bfs(ends, self._head, self._tail)
            # d(src, dst) is the remaining distance from (src, initial).
            dist = self._bwd[:, self.initial_phase() * n + switches].T.copy()
            if (dist < 0).any():
                src, dst = (int(x[0]) for x in np.nonzero(dist < 0))
                raise RuntimeError(f"{self.name}: {dst} unreachable from {src}")
            dist.setflags(write=False)
            self._dist = dist

    # -- identity ------------------------------------------------------- #

    @property
    @abstractmethod
    def name(self) -> str:
        """Short label used in reports ('updown', 'minimal', ...)."""

    def initial_phase(self) -> Phase:
        """Phase of a freshly injected packet."""
        return Phase.UP

    # -- distances ------------------------------------------------------ #

    def distances(self) -> np.ndarray:
        """All-pairs shortest *legal* path lengths (hops), shape ``(N, N)``.

        Satisfies ``d[i, i] == 0`` and ``d[i, j] >= hop_distance(i, j)``
        (legality can only lengthen paths).  Symmetric for the algorithms
        shipped here: the reverse of a legal path is legal.  Read-only.
        """
        return self._dist

    def shortest_path_mask(self) -> np.ndarray:
        """Links on shortest legal paths, for every unordered pair at once.

        A read-only boolean array of shape ``(N*(N-1)/2, L)``: row ``p`` is
        the pair ``(i, j)``, ``i < j``, at position ``p`` of
        ``np.triu_indices(N, k=1)``; column ``l`` is ``topology.links[l]``.
        Built on first use from the search distances (one vector step per
        source) and kept.  Supports are the same in both directions because
        the reverse of a shortest legal path is one too.
        """
        if self._mask is None:
            n = self.topology.num_switches
            hops = self._link.size
            # slots[l, k]: the k-th legal hop over link l; unused slots
            # point at an extra hop that is never on a shortest path.
            count = np.bincount(self._link, minlength=self.topology.num_links)
            order = np.argsort(self._link, kind="stable")
            rank = np.arange(hops) - np.repeat(np.cumsum(count) - count, count)
            slots = np.full((count.size, count.max(initial=0)), hops)
            slots[self._link[order], rank] = order
            # Hop-major distances, so a slot gathers rows: tail[hop, src] is
            # d(src, hop tail), head[hop, dst] is d(hop head, dst).
            big = self._fwd.shape[1] + 1  # longer than any legal path
            fwd = np.where(self._fwd < 0, big, self._fwd).T
            bwd = np.where(self._bwd < 0, big, self._bwd).T
            never = np.full((1, n), big)
            tail = np.vstack([fwd[self._tail], never])
            head = np.vstack([bwd[self._head], never])
            rows = []
            for i in range(n - 1):
                on = tail[:, i, None] + 1 + head[:, i + 1:] == self._dist[i, i + 1:]
                rows.append(on[slots].any(axis=1))
            mask = (np.concatenate(rows, axis=1).T.copy() if rows
                    else np.zeros((0, count.size), dtype=bool))
            mask.setflags(write=False)
            self._mask = mask
        return self._mask

    def links_on_shortest_paths(self, src: int, dst: int) -> FrozenSet[Link]:
        """Undirected links used by at least one shortest legal src→dst path.

        Empty for ``src == dst``.  This is the resistor-network support for
        the equivalent-distance model; a row of :meth:`shortest_path_mask`.
        """
        if src == dst:
            return frozenset()
        n = self.topology.num_switches
        i, j = min(src, dst), max(src, dst)
        row = self.shortest_path_mask()[i * n - i * (i + 1) // 2 + j - i - 1]
        links = self.topology.links
        return frozenset(links[l] for l in np.flatnonzero(row))

    # -- per-hop decisions ---------------------------------------------- #

    @abstractmethod
    def next_hops(self, current: int, phase: Phase, dst: int) -> Tuple[Hop, ...]:
        """Neighbours reachable in one legal hop that lie on a shortest legal
        continuation toward ``dst`` from state ``(current, phase)``.

        Returns an empty tuple when ``current == dst`` or when no legal
        continuation exists from this state (a packet can never actually be
        in such a state if it was routed consistently from injection).
        """

    # -- helpers shared by subclasses ------------------------------------ #

    def shortest_path(self, src: int, dst: int) -> Sequence[int]:
        """One concrete shortest legal path (lowest-id tie-break), inclusive."""
        path = [src]
        current, phase = src, self.initial_phase()
        guard = 0
        while current != dst:
            hops = self.next_hops(current, phase, dst)
            if not hops:
                raise RuntimeError(
                    f"{self.name}: no legal continuation from ({current}, {phase.name}) "
                    f"to {dst}"
                )
            current, phase = min(hops)
            path.append(current)
            guard += 1
            if guard > 4 * self.topology.num_switches:
                raise RuntimeError(f"{self.name}: path construction did not terminate")
        return path

    def average_distance(self) -> float:
        """Mean legal distance over ordered pairs ``i != j``."""
        d = self.distances().astype(float)
        n = d.shape[0]
        if n < 2:
            return 0.0
        return float((d.sum() - np.trace(d)) / (n * (n - 1)))


__all__ = ["Phase", "Hop", "RoutingAlgorithm"]
