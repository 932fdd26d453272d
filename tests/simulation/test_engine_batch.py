"""Batch compatibility: which replications may share one vector kernel.

:func:`repro.simulation.engine_vector.simulate_batch_vector` runs many
``(table, traffic, rate, config)`` jobs in one lockstep arena.  Members
may differ in seed, rate, traffic, message length, buffers and windows,
but mixed routing tables or mixed virtual-channel counts must fail
loudly with :class:`BatchCompatibilityError`, not silently desynchronize.
"""

import pytest

from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.simulation.config import SimulationConfig
from repro.simulation.engine_vector import (
    BatchCompatibilityError,
    check_batch_compatible,
    simulate_batch_vector,
)
from repro.simulation.traffic import UniformTraffic
from repro.topology.irregular import random_irregular_topology


def _network(topo_seed=11, switches=8):
    topo = random_irregular_topology(switches, degree=3, hosts_per_switch=2,
                                     seed=topo_seed)
    return topo, RoutingTable(UpDownRouting(topo))


def _cfg(**kw):
    base = dict(message_length=16, buffer_flits=2, warmup_cycles=150,
                measure_cycles=600, seed=0, engine="vector")
    base.update(kw)
    return SimulationConfig(**base)


class TestCompatibilityErrors:
    def test_empty_batch_rejected(self):
        with pytest.raises(BatchCompatibilityError, match="at least one"):
            simulate_batch_vector([])

    def test_mixed_routing_tables_rejected(self):
        topo_a, table_a = _network(11)
        topo_b, table_b = _network(12)
        jobs = [
            (table_a, UniformTraffic(topo_a), 0.01, _cfg(seed=1)),
            (table_b, UniformTraffic(topo_b), 0.01, _cfg(seed=2)),
        ]
        with pytest.raises(BatchCompatibilityError,
                           match="share one RoutingTable"):
            simulate_batch_vector(jobs)

    def test_same_topology_different_table_object_rejected(self):
        """Even an equal table is rejected — sharing must be by identity."""
        topo, table = _network(11)
        other = RoutingTable(UpDownRouting(topo))
        jobs = [
            (table, UniformTraffic(topo), 0.01, _cfg(seed=1)),
            (other, UniformTraffic(topo), 0.01, _cfg(seed=2)),
        ]
        with pytest.raises(BatchCompatibilityError, match="job 1"):
            check_batch_compatible(jobs)

    def test_mixed_virtual_channels_rejected(self):
        topo, table = _network(11)
        jobs = [
            (table, UniformTraffic(topo), 0.01,
             _cfg(seed=1, virtual_channels=1)),
            (table, UniformTraffic(topo), 0.01,
             _cfg(seed=2, virtual_channels=2)),
        ]
        with pytest.raises(BatchCompatibilityError,
                           match="virtual_channels"):
            simulate_batch_vector(jobs)

    def test_single_member_batch_is_fine(self):
        topo, table = _network(11)
        (res,) = simulate_batch_vector(
            [(table, UniformTraffic(topo), 0.01, _cfg(seed=4))])
        assert res.messages_generated > 0
