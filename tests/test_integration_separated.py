"""End-to-end integration tests of the separated architecture.

These tests drive complete simulated deployments (agreement cluster, message
queues, execution cluster, optional privacy firewall, clients) and check the
paper's safety properties: replies reflect a single linearizable execution
order, retransmissions are answered exactly once, replicas never diverge, and
all five evaluation configurations work.
"""

import pytest

from conftest import make_config
from repro.apps.counter import CounterService, increment, read_counter
from repro.apps.kvstore import KeyValueStore, get, put
from repro.apps.null_service import NullService, null_operation
from repro.config import (
    AuthenticationScheme,
    Deployment,
    ObservabilityConfig,
    SystemConfig,
)
from repro.core import CoupledSystem, SeparatedSystem, UnreplicatedSystem
from repro.crypto.certificate import Certificate
from repro.agreement.local import RetryOutcome
from repro.messages.reply import BatchReply, BatchReplyBody, ClientReply, ReplyBody
from repro.messages.request import RequestEnvelope
from repro.net.network import DROP
from repro.statemachine.interface import OperationResult
from repro.statemachine.nondet import NonDetInput
from repro.util.wirecache import wire_digest


def all_system_factories():
    """(label, builder) for every evaluation configuration."""
    return [
        ("separate-mac", lambda app: SeparatedSystem(make_config(), app, seed=11)),
        ("separate-same", lambda app: SeparatedSystem(
            make_config(deployment=Deployment.SAME), app, seed=11)),
        ("separate-threshold", lambda app: SeparatedSystem(
            make_config(authentication=AuthenticationScheme.THRESHOLD), app, seed=11)),
        ("privacy-firewall", lambda app: SeparatedSystem(
            make_config(authentication=AuthenticationScheme.THRESHOLD,
                        use_privacy_firewall=True), app, seed=11)),
        ("coupled-base", lambda app: CoupledSystem(make_config(), app, seed=11)),
        ("unreplicated", lambda app: UnreplicatedSystem(
            make_config(f=0, g=0, h=0), app, seed=11)),
    ]


@pytest.mark.parametrize("label,factory", all_system_factories(),
                         ids=[name for name, _ in all_system_factories()])
class TestAllConfigurations:
    def test_sequential_counter_is_linearizable(self, label, factory):
        system = factory(CounterService)
        values = [system.invoke(increment(1)).result.value for _ in range(6)]
        assert values == [1, 2, 3, 4, 5, 6]

    def test_reply_matches_reference_execution(self, label, factory):
        system = factory(KeyValueStore)
        reference = KeyValueStore()
        operations = [put("a", 1), put("b", 2), get("a"), put("a", 3), get("a"), get("c")]
        for operation in operations:
            record = system.invoke(operation)
            expected = reference.execute(operation, NonDetInput.empty())
            assert record.result.value == expected.value

    def test_multiple_clients_make_progress(self, label, factory):
        system = factory(CounterService)
        for round_index in range(3):
            for client_index in range(len(system.clients)):
                record = system.invoke(increment(1), client_index=client_index)
                assert record.result.error is None
        assert system.total_completed() == 3 * len(system.clients)


class TestSeparatedSafety:
    def test_counter_value_equals_number_of_executions(self, config):
        system = SeparatedSystem(config, CounterService, seed=3)
        total = 8
        for _ in range(total):
            system.invoke(increment(1))
        final = system.invoke(read_counter())
        assert final.result.value == total
        # Every correct execution replica executed each request exactly once.
        for node in system.execution_nodes:
            assert node.requests_executed == total + 1  # + the read

    def test_execution_replicas_never_diverge(self, config):
        system = SeparatedSystem(config, KeyValueStore, seed=4)
        for i in range(10):
            system.invoke(put(f"key{i % 3}", i))
        system.run(50.0)
        checkpoints = {node.app.checkpoint() for node in system.execution_nodes}
        assert len(checkpoints) == 1

    def test_sequence_numbers_assigned_without_gaps(self, config):
        system = SeparatedSystem(config, CounterService, seed=5)
        records = [system.invoke(increment(1)) for _ in range(6)]
        seqs = [record.seq for record in records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        for node in system.execution_nodes:
            assert node.max_executed >= max(seqs)

    def test_agreement_assigns_each_request_one_sequence_number(self, config):
        system = SeparatedSystem(config, CounterService, seed=6)
        for _ in range(5):
            system.invoke(increment(1))
        replica = system.agreement_replicas[0]
        assert replica.requests_delivered == 5
        assert replica.batches_delivered == 5  # bundle size 1

    def test_client_timestamps_are_monotonic_per_client(self, config):
        system = SeparatedSystem(config, CounterService, seed=7)
        for _ in range(4):
            system.invoke(increment(1), client_index=0)
            system.invoke(increment(1), client_index=1)
        for client in system.clients:
            timestamps = [record.timestamp for record in client.completed]
            assert timestamps == sorted(timestamps)
            assert len(set(timestamps)) == len(timestamps)

    def test_results_do_not_require_all_execution_nodes(self, config):
        """g + 1 = 2 matching replies suffice; the slowest replica is not needed."""
        system = SeparatedSystem(config, CounterService, seed=8)
        record = system.invoke(increment(1))
        assert record.result.value == 1

    def test_message_queue_reply_cache_serves_duplicates(self, config):
        """Fault-free, no queue caches: the certificates it assembles are
        bodiless.  A queue that relayed the answer to a retransmission
        caches it, and serves the next one from there."""
        system = SeparatedSystem(config, CounterService, seed=9)
        client = system.clients[0]
        executors = set(system.execution_ids)
        system.invoke(increment(5))
        system.run(50.0)
        assert all(queue.cache == {} for queue in system.message_queues)
        envelopes, relayed = [], []

        def watch(source, destination, message):
            if source == client.node_id and isinstance(message, RequestEnvelope):
                envelopes.append(message)
            elif isinstance(message, ClientReply):
                if source in executors:
                    return DROP
                relayed.append(source)
            return None

        system.network.add_tap(watch)
        assert system.invoke(increment(5)).result.value == 10
        system.run(50.0)
        assert client.retransmissions == 1
        queue = system.message_queues[0]
        cached = queue.cache.get(client.node_id)
        assert cached is not None and cached.reply.timestamp == 2
        assert queue.retry_hint(envelopes[-1].certificate) is RetryOutcome.HANDLED
        assert queue.cache_hits == 1
        system.run(50.0)
        assert relayed.count(queue.owner.node_id) == 2

    def test_message_queue_assembles_the_bodiless_form(self, config):
        """Where replicas answer clients directly a queue assembles the
        bodiless form of a bundle.  A client's view (it has the bundle's
        digest) is refused, and so is a complete bundle: the one complete
        reply a queue takes is a replica's answer to a retransmission it
        passed on."""
        system = SeparatedSystem(config, CounterService, seed=9)
        queue = system.message_queues[0]
        sender = system.execution_ids[0]
        replies = tuple(
            ReplyBody(view=0, seq=1, timestamp=1, client=client.node_id,
                      result=OperationResult(value=index))
            for index, client in enumerate(system.clients))
        body = BatchReplyBody(view=0, seq=1, replies=replies)
        for payload in (body.view_for(system.clients[0].node_id), "garbage",
                        body, body.view_for(None)):
            queue.on_batch_reply(sender, BatchReply(
                seq=1, sender=sender,
                certificate=Certificate(payload=payload,
                                        scheme=AuthenticationScheme.MAC)))
            assert not queue._retries
        assert len(queue._collectors) == 1
        ((_, key),) = queue._collectors
        assert key == wire_digest(body)

    def test_pipeline_backpressure_bounds_outstanding_batches(self):
        config = make_config(pipeline_depth=2, num_clients=4)
        system = SeparatedSystem(config, CounterService, seed=10)
        for client_index in range(4):
            for _ in range(3):
                system.submit(increment(1), client_index=client_index)
        system.run_until(lambda: system.total_completed() == 12, timeout_ms=30_000,
                         description="all submissions complete")
        assert system.total_completed() == 12

    def test_bundling_batches_multiple_requests(self):
        config = make_config(bundle_size=4, num_clients=4)
        system = SeparatedSystem(config, CounterService, seed=12)
        for client_index in range(4):
            system.submit(increment(1), client_index=client_index)
        system.run_until(lambda: system.total_completed() == 4, timeout_ms=30_000,
                         description="bundled requests complete")
        replica = system.agreement_replicas[0]
        # Four requests from four clients should need fewer than four batches.
        assert replica.batches_delivered < 4
        assert replica.requests_delivered == 4

    def test_app_processing_time_adds_to_latency(self):
        fast = SeparatedSystem(make_config(), NullService, seed=13)
        slow = SeparatedSystem(make_config(app_processing_ms=20.0), NullService, seed=13)
        fast_latency = fast.invoke(null_operation()).latency_ms
        slow_latency = slow.invoke(null_operation()).latency_ms
        assert slow_latency >= fast_latency + 15.0


class TestDeploymentShapes:
    def test_cluster_sizes_match_config(self, config):
        system = SeparatedSystem(config, CounterService, seed=1)
        assert len(system.agreement_replicas) == config.num_agreement_nodes == 4
        assert len(system.execution_nodes) == config.num_execution_nodes == 3
        assert system.firewall is None

    def test_firewall_deployment_has_filter_grid(self, firewall_config):
        system = SeparatedSystem(firewall_config, CounterService, seed=1)
        assert system.firewall is not None
        assert len(system.firewall.nodes) == firewall_config.num_firewall_nodes == 4
        assert len(system.firewall.rows) == 2

    def test_two_fault_tolerant_execution_cluster(self):
        config = make_config(g=2)
        system = SeparatedSystem(config, CounterService, seed=1)
        assert len(system.execution_nodes) == 5
        assert system.invoke(increment(1)).result.value == 1

    def test_threshold_group_created_only_for_threshold_scheme(self, config,
                                                               threshold_config):
        mac_system = SeparatedSystem(config, CounterService, seed=1)
        thresh_system = SeparatedSystem(threshold_config, CounterService, seed=1)
        assert mac_system.threshold_group is None
        assert thresh_system.threshold_group is not None


#: fault-free sends per committed request at f = g = 1, bundle_size = 1, MAC
#: certificates, no checkpoint in the window.  A regression in any message
#: class shows up under its name; the next message-count diet starts by
#: lowering a number here.
CENSUS_PER_COMMIT = {
    "RequestEnvelope": 1,   # client -> primary
    "PrePrepare": 3,        # primary -> 3f backups
    "Prepare": 9,           # each backup -> the 3f others
    "CommitMsg": 12,        # every agreement node -> the 3f others
    "OrderedBatch": 3,      # primary -> 2g + 1 execution replicas
    "BatchReply": 6,        # each execution replica -> the primary,
                            # bodiless, naming every agreement node; the
                            # primary -> each backup, the certificate cut
                            # to it (12 when every replica sent every node)
    "ClientReply": 3,       # every execution replica -> the client, directly:
                            # g + 1 carry the reply, g send the bodiless view
}

#: simulated bytes per committed request, by type, in the same run.  Most
#: are authenticators: an authenticator names no payload digest, and a
#: commit's MAC vector addresses only the 2g + 1 execution replicas, the
#: nodes that check agreement certificates (15,541 B before either cut).
#: A result crosses the wire g + 1 times: the primary no longer gets the
#: bundle and one direct reply is bodiless (10,969 B before; a counter's
#: result is small, so the large-value census below shows the cut).  Each
#: reply frame's MAC vector names its receiver alone, and a request
#: certificate sent downstream names no agreement node.  The replicas send
#: their bodiless partials to the primary alone, which relays the completed
#: certificate to each backup (8,261 B while every replica sent every node).
BYTES_PER_COMMIT = {
    "RequestEnvelope": 340,
    "PrePrepare": 1284,
    "Prepare": 522,
    "CommitMsg": 2088,
    "OrderedBatch": 2070,   # 2,502 while request vectors named the agreement nodes
    "BatchReply": 1239,     # 1,548 from every replica to every node;
                            # 3,276 while each carried the whole vector
    "ClientReply": 409,     # 841 while each carried the whole vector
}


#: sends per committed request with bundles of 8 and 4 KB values (eight
#: clients write, then read, their own key): one batch per phase.
LARGE_CENSUS_PER_COMMIT = {
    "RequestEnvelope": 1,
    "PrePrepare": 0.375,
    "Prepare": 1.125,
    "CommitMsg": 1.5,
    "OrderedBatch": 0.375,
    "BatchReply": 0.75,     # 1.5 from every replica to every node
    "ClientReply": 3,
}

#: simulated bytes per committed request in the same run.  A ``get``'s
#: result is carried only by the g + 1 direct replies that carry it; when
#: the primary got each bundle and every direct reply carried its result,
#: BatchReply was 13,620 B and ClientReply 14,760 B (60,386 B in all);
#: with every vector whole, OrderedBatch was 13,668 B, BatchReply 1,176 B
#: and ClientReply 10,612 B (43,794 B in all); while every replica sent
#: every agreement node its bodiless partial, BatchReply was 1.5 sends and
#: 582 B (41,580 B in all).
LARGE_BYTES_PER_COMMIT = {
    "RequestEnvelope": 4496,
    "PrePrepare": 13515.75,
    "Prepare": 65.25,
    "CommitMsg": 261,
    "OrderedBatch": 13236,
    "BatchReply": 349.125,  # 582 from every replica to every node
    "ClientReply": 9424,
}


class TestMessageCensus:
    def test_fault_free_sends_per_commit(self):
        config = make_config(checkpoint_interval=1_000,
                             observability=ObservabilityConfig(metrics=True))
        system = SeparatedSystem(config, CounterService, seed=12)
        stats = system.network.stats
        system.invoke(increment(1))
        system.run(50.0)
        before, bytes_before = dict(stats.per_type), stats.bytes_sent
        type_bytes_before = dict(stats.bytes_per_type)
        commits = 8
        for _ in range(commits):
            system.invoke(increment(1))
        system.run(50.0)
        census = {name: count - before.get(name, 0)
                  for name, count in stats.per_type.items()}
        assert census == {name: count * commits
                          for name, count in CENSUS_PER_COMMIT.items()}
        assert sum(CENSUS_PER_COMMIT.values()) == 37   # 43 before the relay
        assert {name: (total - type_bytes_before.get(name, 0)) / commits
                for name, total in stats.bytes_per_type.items()} == BYTES_PER_COMMIT
        assert sum(BYTES_PER_COMMIT.values()) == 7_952   # 8,261 before the relay
        # bytes are kept beside the counts, and the snapshot exposes both
        assert set(stats.bytes_per_type) == set(stats.per_type)
        assert sum(stats.bytes_per_type.values()) == stats.bytes_sent > bytes_before
        assert system.metrics_snapshot()["global"]["net_census"] == stats.census()

    def test_large_values_cross_the_wire_g_plus_1_times(self):
        """Bundles of 8, 4 KB values: every result's body travels in
        exactly g + 1 frames, each a direct reply to its client, and in no
        BatchReply -- the agreement nodes get bodiless certificates, and g
        of the 2g + 1 replicas send the client the bodiless view."""
        config = make_config(bundle_size=8, num_clients=8,
                             checkpoint_interval=1_000)
        system = SeparatedSystem(config, KeyValueStore, seed=12)
        stats = system.network.stats
        system.invoke(put("warm", "up"))
        system.run(50.0)
        carried = {}

        def count_bodies(source, destination, message):
            if isinstance(message, (BatchReply, ClientReply)):
                for reply in message.body.carried:
                    key = (reply.client, reply.timestamp)
                    carried.setdefault(key, []).append(type(message).__name__)
            return None

        system.network.add_tap(count_bodies)
        before, bytes_before = dict(stats.per_type), dict(stats.bytes_per_type)
        value = "v" * 4096
        for phase in (lambda index: put(f"k{index}", value),
                      lambda index: get(f"k{index}")):
            for index in range(8):
                system.submit(phase(index), client_index=index)
            system.run_until(lambda: not any(client.outstanding
                                             for client in system.clients),
                             timeout_ms=5_000.0, description="a phase completes")
        system.run(50.0)
        commits = 16
        assert all(client.completed[-1].result.value == {"value": value,
                                                         "found": True}
                   for client in system.clients)
        assert {name: (count - before.get(name, 0)) / commits
                for name, count in stats.per_type.items()} == LARGE_CENSUS_PER_COMMIT
        assert {name: (total - bytes_before.get(name, 0)) / commits
                for name, total in stats.bytes_per_type.items()} == LARGE_BYTES_PER_COMMIT
        assert sum(LARGE_BYTES_PER_COMMIT.values()) == 41_347.125   # 41,580 before
        assert len(carried) == commits
        assert all(frames == ["ClientReply"] * (config.g + 1)
                   for frames in carried.values())

    def test_fault_free_events_per_commit(self):
        """What the simulator executes for those 37 sends, by kind of event:
        a delivery per send, and one event at the end of a busy period that
        left something to do -- a ``flush`` if its handler sent anything
        (which also takes up the next parked message), a ``wake`` if there
        are only parked messages.  Before the inbox a parked message cost a
        re-deferral per handler that ran ahead of it.  One closed-loop
        client, seed 12, eight commits -- the counts repeat exactly, so the
        next diet starts by lowering a number here."""
        system = SeparatedSystem(make_config(checkpoint_interval=1_000),
                                 CounterService, seed=12)
        system.invoke(increment(1))
        system.run(50.0)
        kinds = {}
        pop = system.scheduler.queue.pop

        def counting_pop():
            event = pop()
            if event is not None:
                kind = ("deliver" if event.label.startswith("deliver:")
                        else event.label.rsplit(":", 1)[-1])
                kinds[kind] = kinds.get(kind, 0) + 1
            return event

        system.scheduler.queue.pop = counting_pop
        before = system.scheduler.events_processed
        commits = 8
        for _ in range(commits):
            system.invoke(increment(1))
        system.run(50.0)
        # 43 deliveries, 86 flushes and 35 wakes per eight commits before
        # the primary relayed the reply certificate
        assert kinds == {"deliver": 37 * commits, "flush": 96, "wake": 11}
        assert system.scheduler.events_processed - before == 403   # 50.4 per commit (58.1)
