"""Unit tests for the statistical-equivalence checker itself.

``repro.simulation.equivalence`` is the contract that admits the vector
engine without bit-identity, so the checker gets its own evidence: the
Welch t-test must match ``scipy.stats.ttest_ind``, known-same sample
sets must pass, shifted-mean sample sets must fail, and the whole
procedure must be deterministic — same samples in, same verdicts out.  The engine-facing application lives in
``test_engine_equivalence.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from repro.simulation.equivalence import (
    DEFAULT_ALPHA,
    check_equivalence,
    check_rank_preservation,
    mean_ci,
    student_t_cdf,
    student_t_sf,
    welch_t,
)

def _samples(rng, mean, sd, n=31):
    return list(rng.normal(mean, sd, n))


# --------------------------------------------------------------------- #
# the t machinery
# --------------------------------------------------------------------- #

def test_t_cdf_reference_values():
    # Textbook anchors: t(df=1) is Cauchy, large df approaches normal.
    assert student_t_cdf(0.0, 5) == pytest.approx(0.5)
    assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-10)
    assert student_t_cdf(-1.0, 1) == pytest.approx(0.25, abs=1e-10)
    # Symmetry and monotonicity.
    for df in (2, 7, 30, 120):
        for t in (0.3, 1.2, 2.8):
            assert student_t_cdf(t, df) + student_t_cdf(-t, df) == \
                pytest.approx(1.0, abs=1e-12)
        assert student_t_cdf(1.0, df) < student_t_cdf(2.0, df)
    # Large-df limit: standard normal quantile 1.96 -> ~0.975.
    assert student_t_cdf(1.96, 10_000) == pytest.approx(0.975, abs=1e-3)


def test_t_sf_two_sided():
    for df in (3, 29, 64):
        for t in (0.0, 0.7, 2.1, 5.0):
            two = student_t_sf(t, df)
            assert two == pytest.approx(
                2.0 * (1.0 - student_t_cdf(abs(t), df)), abs=1e-10)
    assert student_t_sf(0.0, 12) == pytest.approx(1.0)


def test_welch_matches_scipy_when_available():
    # scipy is a declared dependency, so this cross-check always runs.
    rng = np.random.default_rng(42)
    for _ in range(8):
        xs = _samples(rng, 10.0, 2.0, 31)
        ys = _samples(rng, 10.4, 3.0, 37)
        t, _df, p = welch_t(xs, ys)
        ref = scipy.stats.ttest_ind(xs, ys, equal_var=False)
        assert t == pytest.approx(float(ref.statistic), abs=1e-9)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-9)


def test_welch_degenerate_constant_samples():
    t, _df, p = welch_t([3.0] * 10, [3.0] * 12)
    assert (t, p) == (0.0, 1.0)
    t, _df, p = welch_t([3.0] * 10, [4.0] * 12)
    assert math.isinf(t) and p == 0.0


def test_mean_ci_coverage():
    # The 99% CI should cover the true mean in roughly 99% of draws.
    rng = np.random.default_rng(7)
    hits = sum(
        lo <= 5.0 <= hi
        for lo, hi in (
            mean_ci(_samples(rng, 5.0, 1.0, 30), alpha=0.01)[1:]
            for _ in range(400)
        )
    )
    assert hits >= 380  # ~396 expected; a hard floor far below noise


# --------------------------------------------------------------------- #
# the combined decision rule
# --------------------------------------------------------------------- #

def _grid(rng, mean_by_label, sd=1.0, n=31):
    return {
        label: {"latency": _samples(rng, mean, sd, n)}
        for label, mean in mean_by_label.items()
    }


def test_known_same_passes():
    rng = np.random.default_rng(11)
    a = _grid(rng, {"r1": 20.0, "r2": 45.0})
    b = _grid(rng, {"r1": 20.0, "r2": 45.0})
    report = check_equivalence(a, b)
    assert report.equivalent, report.summary()
    assert len(report.points) == 2


def test_identical_samples_pass():
    rng = np.random.default_rng(13)
    a = _grid(rng, {"r1": 33.0})
    report = check_equivalence(a, a)
    assert report.equivalent
    point = report.points[0]
    assert point.p_value == pytest.approx(1.0)
    assert not point.cis_disjoint


def test_shifted_mean_fails():
    rng = np.random.default_rng(17)
    a = _grid(rng, {"r1": 20.0}, sd=1.0)
    b = _grid(rng, {"r1": 24.0}, sd=1.0)  # 4 sigma apart: unmistakable
    report = check_equivalence(a, b)
    assert not report.equivalent
    point = report.failures[0]
    assert point.rejected_by_t and point.cis_disjoint
    assert "FAIL" in report.summary()


def test_small_shift_needs_both_detectors():
    # A shift small enough that CIs still overlap must NOT fail the
    # contract even if the t-test alone would reject it.
    rng = np.random.default_rng(19)
    a = _grid(rng, {"r1": 20.0}, sd=2.0, n=200)
    b = _grid(rng, {"r1": 20.5}, sd=2.0, n=200)
    report = check_equivalence(a, b)
    point = report.points[0]
    if point.rejected_by_t:
        assert not point.cis_disjoint
        assert point.equivalent


def test_checker_is_deterministic():
    rng = np.random.default_rng(23)
    a = _grid(rng, {"r1": 20.0, "r2": 45.0})
    b = _grid(rng, {"r1": 20.1, "r2": 44.8})
    first = check_equivalence(a, b)
    second = check_equivalence(a, b)
    assert first.points == second.points
    assert first.summary() == second.summary()


def test_mismatched_grids_raise():
    rng = np.random.default_rng(29)
    a = _grid(rng, {"r1": 20.0})
    b = _grid(rng, {"r2": 20.0})
    with pytest.raises(ValueError, match="labels"):
        check_equivalence(a, b)
    c = {"r1": {"throughput": [1.0, 2.0, 3.0]}}
    with pytest.raises(ValueError, match="metrics"):
        check_equivalence(a, c)


def test_too_few_samples_raise():
    with pytest.raises(ValueError, match="at least 2"):
        welch_t([1.0], [2.0, 3.0])


def test_alpha_is_recorded():
    rng = np.random.default_rng(31)
    a = _grid(rng, {"r1": 5.0})
    report = check_equivalence(a, a, alpha=0.05)
    assert report.alpha == 0.05
    assert DEFAULT_ALPHA == 0.01


# --------------------------------------------------------------------- #
# rank preservation
# --------------------------------------------------------------------- #

def test_rank_preserved():
    ok, order_a, order_b = check_rank_preservation(
        {"OP": 0.9, "R1": 0.5, "R2": 0.4},
        {"OP": 0.8, "R1": 0.6, "R2": 0.5},
    )
    assert ok and order_a == ["OP", "R1", "R2"] == order_b


def test_rank_violated():
    ok, order_a, order_b = check_rank_preservation(
        {"OP": 0.9, "R1": 0.5},
        {"OP": 0.4, "R1": 0.6},
    )
    assert not ok
    assert order_a == ["OP", "R1"] and order_b == ["R1", "OP"]


def test_rank_lower_is_better():
    ok, order_a, _ = check_rank_preservation(
        {"OP": 20.0, "R1": 45.0},
        {"OP": 22.0, "R1": 44.0},
        higher_is_better=False,
    )
    assert ok and order_a == ["OP", "R1"]


def test_rank_mismatched_keys_raise():
    with pytest.raises(ValueError, match="keys"):
        check_rank_preservation({"OP": 1.0}, {"R1": 1.0})
