"""Equivalent electrical resistance of unit-resistor networks.

The classical identity used throughout: with ``L`` the graph Laplacian of
the resistor network and ``L⁺`` its Moore-Penrose pseudoinverse,

    R(a, b) = L⁺[a,a] + L⁺[b,b] - 2 L⁺[a,b].

These functions solve one network at a time with a dense pseudoinverse:
:func:`equivalent_resistance` is the per-pair definition of the paper's
equivalent distance, kept as a public utility and as the oracle the tests
hold the table against.  :func:`repro.distance.table.build_distance_table`
does not call it: it solves every pair of a topology at once, as batched
grounded Laplacian systems (see its docstring).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.topology.graph import Link


def _component_nodes(links: Iterable[Link], anchor: int) -> List[int]:
    """Nodes of the connected component of ``anchor`` in the link set."""
    adj: Dict[int, List[int]] = {}
    for u, v in links:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if anchor not in adj:
        return [anchor]
    seen = {anchor}
    stack = [anchor]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return sorted(seen)


def equivalent_resistance(links: Iterable[Link], a: int, b: int) -> float:
    """Equivalent resistance between ``a`` and ``b``, each link = 1 Ω.

    Node labels may be arbitrary ints; only the component containing ``a``
    is considered.  Raises ``ValueError`` when ``b`` is not connected to
    ``a`` (infinite resistance would otherwise propagate NaNs into the
    distance table silently).
    """
    if a == b:
        return 0.0
    links = list(links)
    nodes = _component_nodes(links, a)
    index = {node: i for i, node in enumerate(nodes)}
    if b not in index:
        raise ValueError(f"nodes {a} and {b} are not connected by the given links")
    n = len(nodes)
    lap = np.zeros((n, n), dtype=float)
    for u, v in links:
        iu, iv = index.get(u), index.get(v)
        if iu is None or iv is None:
            continue  # link in another component
        lap[iu, iu] += 1.0
        lap[iv, iv] += 1.0
        lap[iu, iv] -= 1.0
        lap[iv, iu] -= 1.0
    pinv = np.linalg.pinv(lap, hermitian=True)
    ia, ib = index[a], index[b]
    r = pinv[ia, ia] + pinv[ib, ib] - 2.0 * pinv[ia, ib]
    return float(r)


def resistance_matrix(num_nodes: int, links: Iterable[Link]) -> np.ndarray:
    """All-pairs equivalent resistance of one connected unit-resistor network.

    Utility for tests and for the "raw resistance" ablation (resistance over
    the *whole* topology rather than per-pair shortest-path subnetworks).
    ``inf`` marks disconnected pairs.
    """
    links = list(links)
    lap = np.zeros((num_nodes, num_nodes), dtype=float)
    for u, v in links:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    pinv = np.linalg.pinv(lap, hermitian=True)
    d = np.diag(pinv)
    r = d[:, None] + d[None, :] - 2.0 * pinv

    # Mark cross-component pairs as inf (pinv silently returns finite
    # garbage for them because the Laplacian is block diagonal).
    comp = np.full(num_nodes, -1, dtype=int)
    cid = 0
    adj: Dict[int, List[int]] = {i: [] for i in range(num_nodes)}
    for u, v in links:
        adj[u].append(v)
        adj[v].append(u)
    for s in range(num_nodes):
        if comp[s] >= 0:
            continue
        stack = [s]
        comp[s] = cid
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if comp[y] < 0:
                    comp[y] = cid
                    stack.append(y)
        cid += 1
    cross = comp[:, None] != comp[None, :]
    r = np.where(cross, np.inf, r)
    np.fill_diagonal(r, 0.0)
    return r


__all__ = ["equivalent_resistance", "resistance_matrix"]
