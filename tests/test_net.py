"""Tests for the simulated network: topology restriction and fault models."""

from math import nan

import pytest

from repro.config import NetworkConfig
from repro.errors import ConfigurationError, NetworkError, TopologyError
from repro.net.faults import LinkFault, NetworkFaultModel, PerfectNetworkFaults
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
        deliveries = model.plan(client_id(0), agreement_id(0), _Probe(), 16)
        assert len(deliveries) == 1

    def test_drop_probability_one_drops_everything(self):
        config = NetworkConfig(drop_probability=1.0)
        model = NetworkFaultModel(config, DeterministicRandom(1))
        assert model.plan(client_id(0), agreement_id(0), _Probe(), 16) == []

    def test_duplicate_probability_one_duplicates(self):
        config = NetworkConfig(duplicate_probability=1.0)
        model = NetworkFaultModel(config, DeterministicRandom(1))
        deliveries = model.plan(client_id(0), agreement_id(0), _Probe(), 16)
        assert len(deliveries) == 2

    def test_corruption_replaces_payload(self):
        config = NetworkConfig(corrupt_probability=1.0)
        model = NetworkFaultModel(config, DeterministicRandom(1))
        deliveries = model.plan(client_id(0), agreement_id(0), _Probe(), 16)
        assert all(isinstance(msg, CorruptedMessage) for _, msg in deliveries)

    def test_partition_blocks_link(self):
        model = PerfectNetworkFaults()
        model.partition(client_id(0), agreement_id(0))
        assert model.plan(client_id(0), agreement_id(0), _Probe(), 16) == []
        model.heal(client_id(0), agreement_id(0))
        assert model.plan(client_id(0), agreement_id(0), _Probe(), 16) != []

    def test_larger_messages_take_longer(self):
        model = PerfectNetworkFaults(delay_ms=0.1)
        small = model.plan(client_id(0), agreement_id(0), _Probe(size=100), 100)
        large = model.plan(client_id(0), agreement_id(0), _Probe(size=100_000),
                           100_000)
        assert large[0][0] > small[0][0]

    def test_delay_within_bounds(self):
        config = NetworkConfig(min_delay_ms=1.0, max_delay_ms=2.0)
        model = NetworkFaultModel(config, DeterministicRandom(2))
        for _ in range(50):
            delay = model.base_delay(0)
            assert 1.0 <= delay <= 2.0


class TestFaultFreePlan:
    """The fault-free early exit of ``plan`` is the general path's answer,
    and nothing about the clean state is cached between sends."""

    A, B = agreement_id(0), agreement_id(1)

    @pytest.mark.parametrize("config", [
        NetworkConfig(), NetworkConfig(min_delay_ms=1.0, max_delay_ms=3.0),
        NetworkConfig(min_delay_ms=0.1, max_delay_ms=0.1)])
    def test_clean_model_plans_as_the_full_path(self, config):
        clean = NetworkFaultModel(config, DeterministicRandom(5, "plan"))
        forced = NetworkFaultModel(config, DeterministicRandom(5, "plan"))
        # a link fault of zero probabilities sends every transmission on
        # the link down the full path, which changes nothing but the path
        forced.set_link_fault(self.A, self.B, LinkFault())
        probe = _Probe()
        for size in range(0, 40_000, 97):
            assert (clean.plan(self.A, self.B, probe, size)
                    == forced.plan(self.A, self.B, probe, size))
        assert clean.rng._rng.getstate() == forced.rng._rng.getstate()
        assert clean.stats_delivered == forced.stats_delivered == 413

    def test_partitions_and_link_faults_apply_from_the_next_send(self):
        scheduler = Scheduler()
        network = Network(scheduler, faults=NetworkFaultModel(
            NetworkConfig(), DeterministicRandom(3, "net")))
        a, b = _Sink(self.A, scheduler), _Sink(self.B, scheduler)
        network.register(a)
        network.register(b)
        faults = network.faults

        def delivered_after_send():
            before = network.stats.deliveries
            network.send(a.node_id, b.node_id, _Probe())
            return network.stats.deliveries - before

        assert delivered_after_send() == 1
        faults.partition(self.B, self.A)
        assert delivered_after_send() == 0
        faults.heal(self.A, self.B)
        assert delivered_after_send() == 1
        faults.set_link_fault(self.A, self.B, LinkFault(drop_probability=1.0))
        assert delivered_after_send() == 0
        faults.clear_link_fault(self.A, self.B)
        assert delivered_after_send() == 1
        faults.set_link_fault(self.A, self.B, LinkFault(duplicate_probability=1.0))
        assert delivered_after_send() == 2
        faults.clear_link_faults()
        assert delivered_after_send() == 1
        scheduler.run()
        assert len(b.received) == 6


class TestNanIsRefused:
    """NaN passes every ``<`` test; a NaN delay on a link or in the
    configuration would put NaN on every delivery of the run."""

    @pytest.mark.parametrize("field", ["min_delay_ms", "max_delay_ms"])
    def test_network_config(self, field):
        with pytest.raises(ConfigurationError):
            NetworkConfig(**{field: nan}).validate()

    def test_link_fault(self):
        with pytest.raises(ValueError):
            LinkFault(extra_delay_ms=nan).validate()
        with pytest.raises(ValueError):
            NetworkFaultModel(NetworkConfig(), DeterministicRandom(0)).set_link_fault(
                agreement_id(0), agreement_id(1), LinkFault(extra_delay_ms=nan))


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
