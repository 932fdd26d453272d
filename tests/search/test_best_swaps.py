"""The array neighbourhood of PartitionState against the scalar scan.

``best_swaps`` evaluates every swap as one matrix expression and picks the
winner with a row-major ``argmin``.  The reference here is the pair-by-pair
scan it replaced: walk the cross-cluster pairs in row-major order, price
each with the scalar ``swap_delta`` and keep the first strict minimum.  The
two must agree bit for bit — pair, delta and unrestricted delta — for any
partition (unassigned switches included), tabu set and aspiration level,
including tables whose entries tie exactly.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.mapping import Partition
from repro.core.quality import QualityEvaluator
from repro.search.state import PartitionState


def scalar_pairs(state):
    """Cross-cluster pairs of assigned switches, row-major."""
    assigned = [int(s) for s in state.assigned]
    for i, a in enumerate(assigned):
        for b in assigned[i + 1:]:
            if state.labels[a] != state.labels[b]:
                yield (a, b)


def scalar_best_swaps(state, forbidden, aspiration_below):
    """The pair-by-pair neighbourhood scan (first strict minimum wins)."""
    best_pair = None
    best_delta = float("inf")
    free_delta = float("inf")
    current = state.value()
    for pair in scalar_pairs(state):
        delta = state.swap_delta(*pair)
        if delta < free_delta:
            free_delta = delta
        if forbidden and pair in forbidden:
            if not (current + delta < aspiration_below):
                continue
        if delta < best_delta:
            best_delta = delta
            best_pair = pair
    if best_pair is None:
        return None, 0.0, free_delta
    return best_pair, best_delta, free_delta


@st.composite
def states(draw):
    """A PartitionState after a few applied swaps, with a tabu set and an
    aspiration level drawn to hit exact ties and boundaries."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    if max(sizes) < 2:
        sizes[0] = 2
    unassigned = draw(st.integers(0, 3))
    base = [c for c, k in enumerate(sizes) for _ in range(k)] + [-1] * unassigned
    labels = draw(st.permutations(base))
    n = len(labels)
    m = n * (n - 1) // 2
    if draw(st.booleans()):
        # Few distinct integer distances: many deltas tie exactly.
        upper = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                              min_size=m, max_size=m))
    else:
        upper = draw(st.lists(st.floats(0.25, 6.0, allow_nan=False),
                              min_size=m, max_size=m))
    t = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    t[iu] = upper
    t = t + t.T
    state = PartitionState(QualityEvaluator(t), Partition(labels))
    # Applied swaps leave g incrementally updated, as in a search.
    for _ in range(draw(st.integers(0, 3))):
        pairs = list(scalar_pairs(state))
        if not pairs:
            break
        state.apply_swap(*pairs[draw(st.integers(0, len(pairs) - 1))])

    pairs = list(scalar_pairs(state))
    forbidden = {p for p in pairs if draw(st.booleans())}
    assigned = [int(s) for s in state.assigned]
    if draw(st.booleans()) and pairs:
        a, b = pairs[0]
        forbidden.add((b, a))          # reversed: never a candidate
    if draw(st.booleans()) and len(assigned) < n:
        free = next(s for s in range(n) if s not in assigned)
        forbidden.add((min(free, assigned[0]), max(free, assigned[0])))
    levels = [float("-inf"), float("inf"), state.value()]
    if pairs:
        # The value a candidate swap reaches: an exact aspiration tie.
        a, b = pairs[draw(st.integers(0, len(pairs) - 1))]
        reached = state.value() + state.swap_delta(a, b)
        levels += [reached, math.nextafter(reached, math.inf)]
    aspiration = draw(st.sampled_from(levels))
    return state, forbidden, aspiration


@settings(max_examples=300, deadline=None)
@given(states())
def test_best_swaps_matches_scalar_scan(case):
    state, forbidden, aspiration = case
    assert state.best_swaps(forbidden, aspiration) == \
        scalar_best_swaps(state, forbidden, aspiration)
    assert state.best_swaps(None, aspiration) == \
        scalar_best_swaps(state, None, aspiration)


@settings(max_examples=100, deadline=None)
@given(states())
def test_swap_deltas_equal_scalar_deltas_bitwise(case):
    state, _forbidden, _aspiration = case
    deltas = state.swap_deltas()
    pos = {int(s): k for k, s in enumerate(state.assigned)}
    for a, b in scalar_pairs(state):
        assert deltas[pos[a], pos[b]] == state.swap_delta(a, b)


@settings(max_examples=100, deadline=None)
@given(states())
def test_candidate_swaps_are_the_scalar_pairs(case):
    state, _forbidden, _aspiration = case
    assert list(state.candidate_swaps()) == list(scalar_pairs(state))


def test_ties_go_to_the_first_pair_row_major():
    # All distances equal: every swap between the two clusters has the
    # same delta, so the first cross-cluster pair (0, 2) must win.
    t = np.ones((4, 4)) - np.eye(4)
    state = PartitionState(QualityEvaluator(t), Partition([0, 0, 1, 1]))
    pair, delta, free = state.best_swaps()
    assert pair == (0, 2)
    assert delta == free == state.swap_delta(0, 2)
    assert state.best_swaps({(0, 2)})[0] == (0, 3)
