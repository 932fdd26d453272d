"""Quick-configuration runs of every figure driver.

These are the integration tests for the paper's evaluation: each figure's
*shape claims* are asserted with reduced simulation windows so the suite
stays fast; the full-scale regeneration lives in benchmarks/.
"""

import math

import pytest

from repro.experiments.common import paper_16switch_setup, paper_24switch_setup
from repro.experiments.fig1_tabu_trace import render_fig1, run_fig1
from repro.experiments.fig2_partition16 import render_fig2, run_fig2
from repro.experiments.fig3_sim16 import render_fig3, run_fig3
from repro.experiments.fig4_partition24 import (
    expected_ring_clusters,
    render_fig4,
    run_fig4,
)
from repro.experiments.fig5_sim24 import render_fig5, run_fig5
from repro.experiments.fig6_correlation import (
    correlations_from_sim,
    render_fig6,
    run_fig6,
)
from repro.simulation.config import SimulationConfig

QUICK = SimulationConfig(warmup_cycles=150, measure_cycles=700, seed=5)

# OP partition labels of Figs. 2 and 4 (search seed 1), recorded before the
# distance table and the Tabu neighbourhood became array code; both must
# leave the found partitions exactly as they were.
FIG2_LABELS = [1, 3, 3, 0, 0, 1, 2, 0, 3, 1, 0, 2, 2, 2, 3, 1]
FIG4_LABELS = [2] * 6 + [1] * 6 + [0] * 6 + [3] * 6


@pytest.fixture(scope="module")
def setup16():
    return paper_16switch_setup()


@pytest.fixture(scope="module")
def setup24():
    return paper_24switch_setup()


@pytest.fixture(scope="module")
def fig3_result(setup16):
    return run_fig3(setup16, num_random=4, config=QUICK)


class TestFig1:
    def test_structure(self, setup16):
        res = run_fig1(setup16, seed=1)
        assert res.num_restarts == 10
        # Paper: value at each starting point is a peak (random ~ 1).
        for idx in res.restart_indices:
            assert res.trace[idx] > 2 * res.best_value
        # Rapid initial descent: after 5 iterations F drops below 60 % of start.
        first = res.trace[res.restart_indices[0]:res.restart_indices[0] + 6]
        assert min(first) < 0.6 * first[0]

    def test_minima_recorded_per_restart(self, setup16):
        res = run_fig1(setup16, seed=1)
        assert len(res.minima_per_restart) == 10
        assert min(res.minima_per_restart) == pytest.approx(res.best_value)
        assert 1 <= res.restarts_reaching_best <= 10

    def test_render(self, setup16):
        out = render_fig1(run_fig1(setup16, seed=1))
        assert "Figure 1" in out and "F(P_i) series" in out


class TestFig2:
    def test_balanced_partition(self, setup16):
        res = run_fig2(setup16, seed=1)
        assert sorted(len(c) for c in res.partition.clusters()) == [4, 4, 4, 4]
        assert res.c_c > 1.0
        assert res.f_g < 1.0

    def test_labels_pinned(self, setup16):
        assert run_fig2(setup16, seed=1).partition.labels.tolist() == \
            FIG2_LABELS

    def test_render(self, setup16):
        out = render_fig2(run_fig2(setup16, seed=1))
        assert "Figure 2" in out and "C_c=" in out


class TestFig3:
    def test_op_throughput_dominates(self, fig3_result):
        res = fig3_result
        ratio = res.op_over_best_random
        # Paper reports ~1.85x for its topology; require a clear win.
        assert ratio > 1.3, f"OP/random throughput ratio only {ratio:.2f}"

    def test_op_latency_lower_at_high_load(self, fig3_result):
        res = fig3_result
        k = len(res.rates) - 1
        op_lat = res.sweeps["OP"][k].result.avg_latency
        for m in res.random_records:
            assert op_lat < res.sweeps[m.name][k].result.avg_latency

    def test_c_c_gap(self, fig3_result):
        op = fig3_result.op_record
        assert all(op.c_c > r.c_c for r in fig3_result.random_records)

    def test_render(self, fig3_result):
        out = render_fig3(fig3_result)
        assert "Figure 3" in out and "OP" in out and "latency" in out


class TestFig4:
    def test_rings_identified(self, setup24):
        res = run_fig4(setup24, seed=1)
        assert res.matches_expected is True

    def test_labels_pinned(self, setup24):
        assert run_fig4(setup24, seed=1).partition.labels.tolist() == \
            FIG4_LABELS

    def test_expected_clusters_helper(self):
        assert expected_ring_clusters()[0] == (0, 1, 2, 3, 4, 5)

    def test_render(self, setup24):
        out = render_fig4(run_fig4(setup24, seed=1))
        assert "Figure 4" in out and "matches designed clusters: True" in out


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5_result(self, setup24):
        return run_fig5(setup24, num_random=2, config=QUICK)

    def test_gap_larger_than_fig3(self, fig5_result, fig3_result):
        # The paper's central comparative claim: the designed network shows
        # a much larger OP/random gap (5x vs 1.85x).
        assert fig5_result.op_over_best_random > fig3_result.op_over_best_random

    def test_c_c_higher_than_16switch(self, fig5_result, fig3_result):
        assert fig5_result.op_record.c_c > fig3_result.op_record.c_c

    def test_render(self, fig5_result):
        assert "Figure 5" in render_fig5(fig5_result)


class TestFig6:
    def test_correlations_positive(self, fig3_result):
        res = correlations_from_sim(fig3_result)
        # Combined power metric: strongly positive at both ends.
        assert res.low_load_power_corr() > 0.5
        assert res.saturation_power_corr() > 0.5
        # Accepted-traffic correlation must be high in saturation.
        assert res.corr_accepted[-1] > 0.7

    def test_shapes(self, fig3_result):
        res = correlations_from_sim(fig3_result)
        assert len(res.labels) == len(fig3_result.rates)
        assert len(res.c_c) == len(fig3_result.mappings)

    def test_run_fig6_from_scratch_quick(self, setup16):
        res = run_fig6(setup16, num_random=3, config=QUICK)
        assert not math.isnan(res.saturation_power_corr())

    def test_render(self, fig3_result):
        out = render_fig6(correlations_from_sim(fig3_result))
        assert "Figure 6" in out and "S1" in out
