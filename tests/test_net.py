"""Tests for the simulated network: topology restriction and fault models."""

import pytest

from repro.config import NetworkConfig
from repro.errors import NetworkError, TopologyError
from repro.net.faults import NetworkFaultModel, PerfectNetworkFaults
from repro.net.message import CorruptedMessage, Message
from repro.net.network import Network
from repro.net.topology import Topology
from repro.sim.process import Process
from repro.sim.rand import DeterministicRandom
from repro.sim.scheduler import Scheduler
from repro.util.ids import agreement_id, client_id, execution_id, firewall_id


class _Probe(Message):
    def __init__(self, size=16):
        self.size = size

    def wire_size(self):
        return self.size


class _Sink(Process):
    def __init__(self, node_id, scheduler):
        super().__init__(node_id, scheduler)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((sender, message))


class TestTopology:
    def test_full_topology_allows_everything(self):
        topo = Topology.full()
        assert topo.allows(client_id(0), execution_id(2))

    def test_restricted_topology_blocks_unlisted_links(self):
        topo = Topology(fully_connected=False)
        topo.add_link(client_id(0), agreement_id(0))
        assert topo.allows(client_id(0), agreement_id(0))
        assert not topo.allows(client_id(0), execution_id(0))
        with pytest.raises(TopologyError):
            topo.check(client_id(0), execution_id(0))

    def test_self_links_always_allowed(self):
        topo = Topology(fully_connected=False)
        assert topo.allows(client_id(0), client_id(0))

    def test_privacy_firewall_topology_restrictions(self):
        clients = [client_id(0)]
        agreement = [agreement_id(i) for i in range(4)]
        execution = [execution_id(i) for i in range(3)]
        rows = [[firewall_id(0, 0), firewall_id(0, 1)],
                [firewall_id(1, 0), firewall_id(1, 1)]]
        topo = Topology.privacy_firewall(clients, agreement, rows, execution)

        # Clients may talk to agreement nodes only.
        assert topo.allows(clients[0], agreement[0])
        assert not topo.allows(clients[0], execution[0])
        assert not topo.allows(clients[0], rows[0][0])
        # Agreement nodes reach the bottom row but not execution directly.
        assert topo.allows(agreement[0], rows[0][0])
        assert not topo.allows(agreement[0], execution[0])
        # Adjacent filter rows are connected; rows do not skip levels.
        assert topo.allows(rows[0][0], rows[1][1])
        # Top row reaches execution nodes.
        assert topo.allows(rows[1][0], execution[1])
        assert not topo.allows(rows[0][0], execution[0])
        # Execution nodes talk among themselves (state transfer).
        assert topo.allows(execution[0], execution[2])

    def test_separate_clusters_topology(self):
        clients = [client_id(0)]
        agreement = [agreement_id(i) for i in range(4)]
        execution = [execution_id(i) for i in range(3)]
        topo = Topology.separate_clusters(clients, agreement, execution,
                                          allow_client_execution=False)
        assert topo.allows(clients[0], agreement[0])
        assert topo.allows(agreement[0], execution[0])
        assert not topo.allows(clients[0], execution[0])

    def test_neighbours(self):
        topo = Topology(fully_connected=False)
        topo.add_link(client_id(0), agreement_id(0))
        topo.add_link(client_id(0), agreement_id(1))
        assert topo.neighbours(client_id(0)) == [agreement_id(0), agreement_id(1)]


class TestFaultModels:
    def test_perfect_network_delivers_exactly_once(self):
        model = PerfectNetworkFaults(delay_ms=0.5)
        plan = model.plan(client_id(0), agreement_id(0), _Probe())
        assert not plan.dropped
        assert len(plan.deliveries) == 1

    def test_drop_probability_one_drops_everything(self):
        config = NetworkConfig(drop_probability=1.0)
        model = NetworkFaultModel(config, DeterministicRandom(1))
        plan = model.plan(client_id(0), agreement_id(0), _Probe())
        assert plan.dropped
        assert plan.deliveries == []

    def test_duplicate_probability_one_duplicates(self):
        config = NetworkConfig(duplicate_probability=1.0)
        model = NetworkFaultModel(config, DeterministicRandom(1))
        plan = model.plan(client_id(0), agreement_id(0), _Probe())
        assert len(plan.deliveries) == 2

    def test_corruption_replaces_payload(self):
        config = NetworkConfig(corrupt_probability=1.0)
        model = NetworkFaultModel(config, DeterministicRandom(1))
        plan = model.plan(client_id(0), agreement_id(0), _Probe())
        assert all(isinstance(msg, CorruptedMessage) for _, msg in plan.deliveries)

    def test_partition_blocks_link(self):
        model = PerfectNetworkFaults()
        model.partition(client_id(0), agreement_id(0))
        plan = model.plan(client_id(0), agreement_id(0), _Probe())
        assert plan.dropped
        model.heal(client_id(0), agreement_id(0))
        assert not model.plan(client_id(0), agreement_id(0), _Probe()).dropped

    def test_larger_messages_take_longer(self):
        model = PerfectNetworkFaults(delay_ms=0.1)
        small = model.plan(client_id(0), agreement_id(0), _Probe(size=100))
        large = model.plan(client_id(0), agreement_id(0), _Probe(size=100_000))
        assert large.deliveries[0][0] > small.deliveries[0][0]

    def test_delay_within_bounds(self):
        config = NetworkConfig(min_delay_ms=1.0, max_delay_ms=2.0)
        model = NetworkFaultModel(config, DeterministicRandom(2))
        for _ in range(50):
            delay = model.base_delay(0)
            assert 1.0 <= delay <= 2.0


class TestNetwork:
    def _build(self, topology=None):
        scheduler = Scheduler(seed=3)
        network = Network(scheduler, topology=topology)
        a = _Sink(client_id(0), scheduler)
        b = _Sink(agreement_id(0), scheduler)
        network.register(a)
        network.register(b)
        return scheduler, network, a, b

    def test_delivery(self):
        scheduler, network, a, b = self._build()
        network.send(a.node_id, b.node_id, _Probe())
        scheduler.run()
        assert len(b.received) == 1

    def test_double_registration_rejected(self):
        scheduler, network, a, b = self._build()
        with pytest.raises(NetworkError):
            network.register(_Sink(client_id(0), scheduler))

    def test_unknown_destination_is_ignored(self):
        scheduler, network, a, b = self._build()
        network.send(a.node_id, execution_id(7), _Probe())
        scheduler.run()  # no exception

    def test_topology_enforced_on_send(self):
        topo = Topology(fully_connected=False)
        topo.add_link(client_id(0), agreement_id(0))
        scheduler, network, a, b = self._build(topology=topo)
        c = _Sink(execution_id(0), scheduler)
        network.register(c)
        with pytest.raises(TopologyError):
            network.send(a.node_id, c.node_id, _Probe())

    def test_tap_can_replace_messages(self):
        scheduler, network, a, b = self._build()

        def tap(source, destination, message):
            return _Probe(size=1)

        network.add_tap(tap)
        network.send(a.node_id, b.node_id, _Probe(size=500))
        scheduler.run()
        assert b.received[0][1].wire_size() == 1

    def test_stats_count_sends_and_types(self):
        scheduler, network, a, b = self._build()
        network.send(a.node_id, b.node_id, _Probe())
        network.send(a.node_id, b.node_id, _Probe())
        scheduler.run()
        assert network.stats.sends == 2
        assert network.stats.per_type["_Probe"] == 2
        size = _Probe().wire_size()
        assert network.stats.bytes_sent == 2 * size
        assert network.stats.census() == {"_Probe": {"sends": 2, "bytes": 2 * size}}

    def test_broadcast_skips_self(self):
        scheduler, network, a, b = self._build()
        network.broadcast(a.node_id, [a.node_id, b.node_id], _Probe())
        scheduler.run()
        assert len(a.received) == 0
        assert len(b.received) == 1
