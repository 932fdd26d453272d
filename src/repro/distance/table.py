"""The table of equivalent distances ``T_N``.

:func:`build_distance_table` implements the model in Section 3 of the
paper: per switch pair, take the shortest-legal-path link support from the
routing algorithm and measure the equivalent resistance across it.  All
pairs are solved together, as batched dense linear systems grouped by
support size; :func:`repro.distance.resistance.equivalent_resistance` is
the per-pair definition they agree with.  :class:`DistanceTable` wraps the
resulting ``N×N`` matrix with the derived quantities the quality functions
need.
"""

from __future__ import annotations


import numpy as np

from repro.obs import trace as _trace
from repro.routing.base import RoutingAlgorithm
from repro.util.validation import check_square_matrix

# Matrix entries per batched solve: bounds the scratch memory of one call
# (2**21 float64 entries = 16 MiB) at any network size.
_BATCH_ENTRIES = 1 << 21


class DistanceTable:
    """An ``N×N`` table of inter-switch communication-cost distances.

    Invariants enforced at construction: square, zero diagonal,
    non-negative entries.  Symmetry is *not* required by the interface
    (some routing functions are asymmetric) but holds for the tables this
    library builds, and the quality functions only read the upper triangle.
    """

    def __init__(self, values: np.ndarray, *, kind: str = "equivalent",
                 name: str = ""):
        a = check_square_matrix(values, "distance table")
        if not np.allclose(np.diag(a), 0.0, atol=1e-12):
            raise ValueError("distance table diagonal must be zero")
        if (a < -1e-12).any():
            raise ValueError("distance table entries must be non-negative")
        self.values = np.clip(a, 0.0, None)
        self.values.setflags(write=False)
        self.kind = kind
        self.name = name or f"T-{a.shape[0]}"

    @property
    def num_nodes(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, key) -> float:
        return self.values[key]

    def squared(self) -> np.ndarray:
        """Element-wise square ``T_ij²`` — the quantity the quality functions sum."""
        return self.values ** 2

    def quadratic_mean_squared(self) -> float:
        """Mean of ``T_ij²`` over unordered pairs ``i < j``.

        This is the normalization denominator shared by the paper's
        similarity and dissimilarity global functions (the "quadratic
        average value of all of the distances between the network nodes").
        """
        n = self.num_nodes
        if n < 2:
            return 0.0
        sq = self.squared()
        iu = np.triu_indices(n, k=1)
        return float(sq[iu].mean())

    def is_symmetric(self, atol: float = 1e-9) -> bool:
        """True when the table equals its transpose within ``atol``."""
        return bool(np.allclose(self.values, self.values.T, atol=atol))

    def to_dict(self) -> dict:
        """Serializable representation (used by example scripts to cache tables)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DistanceTable":
        return cls(np.asarray(d["values"], dtype=float), kind=d.get("kind", "equivalent"),
                   name=d.get("name", ""))

    def __repr__(self) -> str:
        return f"DistanceTable(name={self.name!r}, kind={self.kind!r}, n={self.num_nodes})"


def build_distance_table(routing: RoutingAlgorithm) -> DistanceTable:
    """Build the paper's table of equivalent distances for a routed topology.

    For each unordered pair ``(i, j)``: take the links on shortest legal
    ``i → j`` paths, treat each as a 1 Ω resistor, and record the equivalent
    resistance.  With a single shortest path of ``h`` hops this degenerates
    to ``h``; with parallel shortest paths it drops below ``h``.

    Each pair's Laplacian lives on its ``k`` support nodes, numbered with
    ``i`` first and ``j`` last.  Grounding ``j`` leaves a nonsingular
    ``(k-1)×(k-1)`` system ``L x = e_i`` whose ``x_i`` is the resistance;
    pairs with equal ``k`` are scattered with ``np.bincount`` into one
    stack and solved by one batched ``np.linalg.solve``.
    """
    topo = routing.topology
    n = topo.num_switches
    with _trace.span("distance.table", routing=routing.name, switches=n):
        t = np.zeros((n, n), dtype=float)
        iu, ju = np.triu_indices(n, k=1)
        mask = routing.shortest_path_mask()
        ends = np.array(topo.links, dtype=np.int64).reshape(-1, 2)
        pair, link = np.nonzero(mask)
        rows = np.arange(iu.size)
        support = np.zeros((iu.size, n), dtype=bool)
        support[pair, ends[link, 0]] = True
        support[pair, ends[link, 1]] = True
        size = support.sum(axis=1)
        # Local node numbers: i -> 0, the other support nodes in id order
        # -> 1..k-2, j -> k-1.
        support[rows, iu] = support[rows, ju] = False
        local = np.cumsum(support, axis=1, dtype=np.min_scalar_type(n))
        local[rows, iu] = 0
        local[rows, ju] = size - 1
        a = local[pair, ends[link, 0]].astype(np.int64)
        b = local[pair, ends[link, 1]].astype(np.int64)
        # Pairs sorted by support size (stably) and their links in that
        # order: a run of equal-size pairs is one slice of each.
        order = np.argsort(size, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        slot = rank[pair]
        by_slot = np.argsort(slot, kind="stable")
        slot, a, b = slot[by_slot], a[by_slot], b[by_slot]
        cut = np.searchsorted(slot, np.arange(order.size + 1))
        sizes, first = np.unique(size[order], return_index=True)
        r = np.empty(iu.size)
        for k, lo, hi in zip(sizes.tolist(), first.tolist(),
                             first[1:].tolist() + [order.size]):
            step = max(1, _BATCH_ENTRIES // (k * k))
            for c0 in range(lo, hi, step):
                c1 = min(c0 + step, hi)
                e = slice(cut[c0], cut[c1])
                r[order[c0:c1]] = _grounded_solve(k, c1 - c0, slot[e] - c0,
                                                  a[e], b[e])
        t[iu, ju] = t[ju, iu] = r
    return DistanceTable(t, kind="equivalent", name=f"T-{routing.name}-{topo.name}")


def _grounded_solve(k: int, count: int, batch: np.ndarray, u: np.ndarray,
                    v: np.ndarray) -> np.ndarray:
    """Resistances of ``count`` pairs with ``k`` support nodes each.

    Link ``e`` joins local nodes ``u[e]`` and ``v[e]`` of pair ``batch[e]``.
    """
    base = batch * (k * k)
    ones = np.ones(u.size)
    lap = np.bincount(
        np.concatenate([base + u * k + u, base + v * k + v,
                        base + u * k + v, base + v * k + u]),
        weights=np.concatenate([ones, ones, -ones, -ones]),
        minlength=count * k * k,
    ).reshape(count, k, k)
    rhs = np.zeros((count, k - 1, 1))
    rhs[:, 0] = 1.0
    return np.linalg.solve(lap[:, :k - 1, :k - 1], rhs)[:, 0, 0]


def hop_distance_table(routing: RoutingAlgorithm) -> DistanceTable:
    """Plain legal hop distances as a :class:`DistanceTable`.

    The ablation baseline: what the quality functions and the Tabu search
    see when the resistance model is replaced by hop count.
    """
    d = routing.distances().astype(float)
    d = 0.5 * (d + d.T)  # symmetrize; equal for the algorithms shipped here
    return DistanceTable(d, kind="hops", name=f"H-{routing.name}-{routing.topology.name}")


__all__ = ["DistanceTable", "build_distance_table", "hop_distance_table"]
