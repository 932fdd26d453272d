"""Incremental partition state shared by every search method.

A state is a partition with fixed cluster sizes plus the bookkeeping needed
to evaluate a swap of two switches in O(1):

- ``labels``   — cluster index per switch (−1 = unassigned);
- ``g``        — the cluster-load matrix ``G[s, c] = Σ_{x∈c} T[s,x]²``;
- ``raw``      — the current ``Σ_i F_{A_i}`` (unnormalized similarity sum).

The whole neighbourhood is one array expression over the assigned
switches (:meth:`PartitionState.swap_deltas`), evaluated in the same
order as the scalar :meth:`~repro.core.quality.QualityEvaluator.swap_delta_raw`,
so every delta is bit-identical to it.

``F_G = raw / (intracluster_pairs · norm)`` — the scale factor is constant
for fixed sizes, so searches may rank moves by raw delta and only convert
to ``F_G`` for reporting.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.core.mapping import Partition
from repro.core.quality import QualityEvaluator


class PartitionState:
    """Mutable search state over a fixed distance table and cluster sizes."""

    def __init__(self, evaluator: QualityEvaluator, partition: Partition):
        sizes = partition.sizes()
        pairs = sum(x * (x - 1) // 2 for x in sizes)
        if pairs == 0:
            raise ValueError("search objective undefined: no intracluster pairs")
        self.evaluator = evaluator
        self.labels = np.array(partition.labels, dtype=np.int64)
        self.g = evaluator.cluster_load_matrix(partition)
        self.raw = evaluator.intracluster_sum(partition)
        self.scale = pairs * evaluator.norm
        self._assigned = np.nonzero(self.labels >= 0)[0]
        a = self._assigned
        # Swap-invariant parts of the neighbourhood over the assigned
        # switches: the 2·T² term, the strict upper triangle (each
        # unordered pair once, row-major) and switch id -> position.
        self._sq2 = 2.0 * evaluator.sq[np.ix_(a, a)]
        self._upper = np.triu(np.ones((a.size, a.size), dtype=bool), k=1)
        self._pos = np.full(self.labels.size, -1)
        self._pos[a] = np.arange(a.size)

    # -- value ------------------------------------------------------------ #

    def value(self) -> float:
        """Current ``F_G``."""
        return self.raw / self.scale

    def partition(self) -> Partition:
        """Snapshot of the current labels as an immutable Partition."""
        return Partition(self.labels)

    @property
    def assigned(self) -> np.ndarray:
        """Switch ids that belong to some cluster (stable across swaps)."""
        return self._assigned

    # -- moves ------------------------------------------------------------ #

    def swap_delta(self, a: int, b: int) -> float:
        """``F_G`` change if switches ``a`` and ``b`` exchanged clusters. O(1)."""
        return self.evaluator.swap_delta_raw(self.labels, self.g, a, b) / self.scale

    def apply_swap(self, a: int, b: int) -> None:
        """Apply the swap, keeping ``raw``/``g`` consistent. O(N)."""
        delta = self.evaluator.swap_delta_raw(self.labels, self.g, a, b)
        self.evaluator.apply_swap(self.labels, self.g, a, b)
        self.raw += delta

    def _cross(self) -> np.ndarray:
        """``[x, y]``: assigned switches ``x < y`` sit in different clusters."""
        lab = self.labels[self._assigned]
        return self._upper & (lab[:, None] != lab[None, :])

    def candidate_swaps(self) -> Iterator[Tuple[int, int]]:
        """All unordered pairs of assigned switches in different clusters,
        row-major over the assigned switch ids."""
        x, y = np.nonzero(self._cross())
        a = self._assigned
        return zip(a[x].tolist(), a[y].tolist())

    def swap_deltas(self) -> np.ndarray:
        """``F_G`` change of swapping assigned switches ``x`` and ``y``, for
        every pair at once (meaningful where they sit in different clusters).

        With ``H[x, y] = g[a_x, label(a_y)]`` this is
        ``(Hᵀ + H − diag(H)·1ᵀ − 1·diag(H)ᵀ − 2·T²) / scale``, the term
        order of :meth:`swap_delta`, so each entry equals it bit for bit.
        """
        a = self._assigned
        h = self.g[a[:, None], self.labels[a][None, :]]
        d = h.diagonal()
        return (h.T + h - d[:, None] - d[None, :] - self._sq2) / self.scale

    def best_swap(
        self, forbidden: "set[Tuple[int, int]] | None" = None,
        aspiration_below: float = float("-inf"),
    ) -> Tuple[Tuple[int, int], float] | Tuple[None, float]:
        """The swap with the most negative (or least positive) ``F_G`` delta.

        ``forbidden`` holds tabu pairs; a tabu swap is still considered when
        it would drop the value strictly below ``aspiration_below`` (the
        classical aspiration criterion).  Returns ``(None, 0.0)`` when no
        candidate exists at all.
        """
        pair, delta, _ = self.best_swaps(forbidden, aspiration_below)
        return pair, delta

    def best_swaps(
        self, forbidden: "set[Tuple[int, int]] | None" = None,
        aspiration_below: float = float("-inf"),
    ) -> Tuple[Tuple[int, int] | None, float, float]:
        """One neighbourhood pass: allowed best *and* unrestricted best.

        Returns ``(pair, delta, free_delta)`` where ``pair``/``delta`` are
        the best swap honouring ``forbidden``/aspiration (``(None, 0.0)``
        when every candidate is excluded or none exists) and ``free_delta``
        is the best delta over the *whole* neighbourhood, tabu ignored.
        ``free_delta >= 0`` identifies a genuine local minimum even when the
        tabu list masks the improving move; ``free_delta`` is ``inf`` when
        the neighbourhood is empty.  Pairs are ``(a, b)`` with ``a < b``;
        ties go to the first pair in row-major order.
        """
        deltas = np.where(self._cross(), self.swap_deltas(), np.inf)
        free_delta = float(deltas.min())
        if forbidden:
            x, y = self._pos[np.array(list(forbidden), dtype=np.int64).T]
            tabu = (x >= 0) & (y >= 0)
            x, y = x[tabu], y[tabu]
            blocked = ~(self.value() + deltas[x, y] < aspiration_below)
            deltas[x[blocked], y[blocked]] = np.inf
        x, y = divmod(int(np.argmin(deltas)), deltas.shape[1])
        delta = float(deltas[x, y])
        if delta == np.inf:
            return None, 0.0, free_delta
        a = self._assigned
        return (int(a[x]), int(a[y])), delta, free_delta

    # -- misc --------------------------------------------------------------#

    def copy(self) -> "PartitionState":
        """Independent deep copy (labels and bookkeeping)."""
        clone = object.__new__(PartitionState)
        clone.evaluator = self.evaluator
        clone.labels = self.labels.copy()
        clone.g = self.g.copy()
        clone.raw = self.raw
        clone.scale = self.scale
        clone._assigned = self._assigned
        clone._sq2 = self._sq2
        clone._upper = self._upper
        clone._pos = self._pos
        return clone

    def recompute(self) -> None:
        """Rebuild ``g``/``raw`` from scratch (defensive; used by tests)."""
        part = self.partition()
        self.g = self.evaluator.cluster_load_matrix(part)
        self.raw = self.evaluator.intracluster_sum(part)


__all__ = ["PartitionState"]
