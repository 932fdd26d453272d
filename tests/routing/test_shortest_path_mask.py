"""The bulk shortest-path link mask against a per-pair search.

``RoutingAlgorithm.shortest_path_mask`` derives every pair's link support
from one search per source and one per destination.  The reference here
is the per-pair definition: search forward from ``(i, initial phase)`` and
backward from ``j`` over the legal hops, and keep each link with a hop
``(u, p) -> (v, p')`` such that ``d(i, u, p) + 1 + d(v, p', j) = d(i, j)``.
The legal hops are rebuilt here from the up*/down* orientation
(``is_up``) or, for minimal routing, from the links alone.
"""

import hashlib
from collections import deque

import numpy as np
import pytest

from repro.routing.base import Phase
from repro.routing.minimal import MinimalRouting
from repro.routing.updown import UpDownRouting
from repro.topology.designed import ring_topology
from repro.topology.graph import Topology
from repro.topology.irregular import random_irregular_topology

# sha256 of repr([(i, j, sorted(links_on_shortest_paths(i, j))) for every
# ordered pair]) on the 16-switch paper network, recorded from the per-pair
# implementation that the bulk mask replaced.
PAPER16_SUPPORT_DIGEST = {
    "updown": "9e320576b918287408e919bcdc29f53760d88cb093bc1860d00ec13f106707ff",
    "minimal": "6219476a96af8e1b4bb795ab1c2666c2e5340d243e6998beaec53e9f5d6bfe02",
}


def legal_hops(routing):
    """``{(u, phase): [(v, phase', link), ...]}`` from first principles."""
    hops = {}
    for u, v in routing.topology.links:
        for a, b in ((u, v), (v, u)):
            if isinstance(routing, MinimalRouting):
                moves = [(Phase.UP, Phase.UP)]
            elif routing.is_up(a, b):
                moves = [(Phase.UP, Phase.UP)]
            else:
                moves = [(Phase.UP, Phase.DOWN), (Phase.DOWN, Phase.DOWN)]
            for pa, pb in moves:
                hops.setdefault((a, pa), []).append((b, pb, (u, v)))
    return hops


def search(starts, hops):
    dist = {s: 0 for s in starts}
    queue = deque(starts)
    while queue:
        s = queue.popleft()
        for v, pv, _link in hops.get(s, ()):
            if (v, pv) not in dist:
                dist[(v, pv)] = dist[s] + 1
                queue.append((v, pv))
    return dist


def per_pair_support(routing, i, j):
    hops = legal_hops(routing)
    reverse = {}
    for (u, pu), outs in hops.items():
        for v, pv, link in outs:
            reverse.setdefault((v, pv), []).append((u, pu, link))
    fwd = search([(i, Phase.UP)], hops)
    bwd = search([(j, Phase.UP), (j, Phase.DOWN)], reverse)
    total = min(d for (s, _p), d in fwd.items() if s == j)
    return total, frozenset(
        link for (u, pu), outs in hops.items() if (u, pu) in fwd
        for v, pv, link in outs
        if (v, pv) in bwd and fwd[(u, pu)] + 1 + bwd[(v, pv)] == total)


def support_digest(routing):
    n = routing.topology.num_switches
    sets = [(i, j, sorted(routing.links_on_shortest_paths(i, j)))
            for i in range(n) for j in range(n)]
    return hashlib.sha256(repr(sets).encode()).hexdigest()


ROUTINGS = [UpDownRouting, MinimalRouting]


@pytest.mark.parametrize("make", ROUTINGS, ids=lambda r: r.__name__)
class TestMaskMatchesPerPairSearch:
    def test_paper16_every_pair(self, make, topo16):
        routing = make(topo16)
        n = topo16.num_switches
        mask = routing.shortest_path_mask()
        links = topo16.links
        for p, (i, j) in enumerate(zip(*np.triu_indices(n, k=1))):
            total, support = per_pair_support(routing, int(i), int(j))
            assert routing.distances()[i, j] == total
            assert {links[l] for l in np.flatnonzero(mask[p])} == support
            assert routing.links_on_shortest_paths(int(i), int(j)) == support
            assert routing.links_on_shortest_paths(int(j), int(i)) == support

    def test_paper16_matches_recorded_supports(self, make, topo16):
        routing = make(topo16)
        assert support_digest(routing) == PAPER16_SUPPORT_DIGEST[routing.name]

    @pytest.mark.parametrize("n,seed", [(8, 1), (24, 2), (32, 5)])
    def test_random_topologies(self, make, n, seed):
        routing = make(random_irregular_topology(n, seed=seed))
        for i in range(0, n, 3):
            for j in range(n):
                if i != j:
                    total, support = per_pair_support(routing, i, j)
                    assert routing.distances()[i, j] == total
                    assert routing.links_on_shortest_paths(i, j) == support


class TestMaskShape:
    def test_shape_and_read_only(self, routing16, topo16):
        mask = routing16.shortest_path_mask()
        assert mask.shape == (16 * 15 // 2, topo16.num_links)
        assert mask.dtype == bool
        assert mask is routing16.shortest_path_mask()
        with pytest.raises(ValueError):
            mask[0, 0] = not mask[0, 0]
        with pytest.raises(ValueError):
            routing16.distances()[0, 1] = 7

    def test_every_pair_has_a_support(self, routing16):
        assert routing16.shortest_path_mask().any(axis=1).all()

    def test_minimal_distances_are_hop_distances(self):
        topo = ring_topology(7)
        assert (MinimalRouting(topo).distances() == topo.hop_distances()).all()

    def test_two_switches(self):
        routing = UpDownRouting(Topology(2, [(0, 1)]))
        assert routing.shortest_path_mask().tolist() == [[True]]
        assert routing.links_on_shortest_paths(1, 0) == frozenset({(0, 1)})

    def test_single_switch(self):
        routing = MinimalRouting(Topology(1, []))
        assert routing.distances().tolist() == [[0]]
        assert routing.shortest_path_mask().shape == (0, 0)
