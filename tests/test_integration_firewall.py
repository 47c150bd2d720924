"""Privacy-firewall integration tests (Section 4 of the paper).

These tests check the two halves of the confidentiality argument:

* **filtering** -- minority/corrupt replies from faulty execution nodes never
  reach clients, because a correct filter only forwards replies carrying a
  complete threshold-signed certificate over the agreed reply body;
* **restriction** -- nodes below the correct cut (agreement nodes, filters,
  and the network between them) only ever see encrypted request and reply
  bodies, so even a compromised agreement node cannot reveal application
  data.
"""

import pytest

from conftest import make_config
from repro.apps.counter import CounterService, increment
from repro.apps.kvstore import KeyValueStore, get, put
from repro.config import AuthenticationScheme
from repro.core import SeparatedSystem
from repro.errors import LivenessTimeoutError, TopologyError
from repro.faults import CorruptReplyBehaviour, LeakPlaintextBehaviour, make_byzantine
from repro.firewall.confidentiality import ConfidentialityAuditor
from repro.net.network import DROP
from repro.messages.agreement import OrderedBatch
from repro.messages.reply import BatchReply, ClientReply
from repro.messages.request import EncryptedBody, RequestEnvelope
from repro.util.ids import Role


def firewall_system(app_factory, seed=41, **overrides):
    config = make_config(authentication=AuthenticationScheme.THRESHOLD,
                         use_privacy_firewall=True, **overrides)
    return SeparatedSystem(config, app_factory, seed=seed)


def install_auditor(system):
    """Audit everything sent from the firewall boundary towards clients and
    agreement nodes (the region an attacker below the correct cut can see)."""
    sources = ([node.node_id for node in system.firewall.nodes]
               + [replica.node_id for replica in system.agreement_replicas])
    destinations = ([client.node_id for client in system.clients]
                    + [replica.node_id for replica in system.agreement_replicas])
    auditor = ConfidentialityAuditor(sources, destinations)
    auditor.install(system.network)
    return auditor


class TestFirewallOperation:
    def test_end_to_end_through_the_firewall(self):
        system = firewall_system(CounterService)
        values = [system.invoke(increment(1)).result.value for _ in range(4)]
        assert values == [1, 2, 3, 4]

    def test_filters_forward_requests_and_replies(self):
        system = firewall_system(CounterService)
        system.invoke(increment(1))
        system.run(50.0)
        assert any(node.requests_forwarded > 0 for node in system.firewall.nodes)
        assert any(node.replies_forwarded > 0 for node in system.firewall.nodes)

    def test_a_bottom_filter_forwards_no_batch_its_certificate_does_not_bind(self):
        """A genuine agreement certificate with another list of client-signed
        requests crosses no row: the filter checks the view, the sequence
        number and the digest of the request list, not only the quorum."""
        system = firewall_system(CounterService)
        victim = system.firewall.node_at(0, 0)
        batches = []

        def isolate(source, destination, message):
            if destination != victim.node_id:
                return None
            if isinstance(message, OrderedBatch):
                batches.append(message)
            return DROP

        system.network.add_tap(isolate)
        for _ in range(2):
            system.invoke(increment(1))
        first = batches[0]
        second = next(batch for batch in batches if batch.seq != first.seq)
        forged = OrderedBatch(seq=second.seq, view=second.view,
                              request_certificates=first.request_certificates,
                              agreement_certificate=second.agreement_certificate,
                              nondet=second.nondet)
        sender = system.agreement_ids[0]
        victim.on_message(sender, forged)
        assert victim.requests_forwarded == 0
        victim.on_message(sender, second)
        assert victim.requests_forwarded == 1

    def test_topology_blocks_client_to_execution(self):
        system = firewall_system(CounterService)
        client = system.clients[0]
        execution = system.execution_nodes[0]
        assert not system.network.topology.allows(client.node_id, execution.node_id)
        with pytest.raises(TopologyError):
            system.network.send(client.node_id, execution.node_id,
                                RequestEnvelope(certificate=None))  # type: ignore[arg-type]

    def test_topology_blocks_agreement_to_execution(self):
        system = firewall_system(CounterService)
        replica = system.agreement_replicas[0]
        execution = system.execution_nodes[0]
        assert not system.network.topology.allows(replica.node_id, execution.node_id)

    def test_tolerates_one_crashed_filter(self):
        system = firewall_system(CounterService)
        system.crash_firewall(0, 0)
        values = [system.invoke(increment(1)).result.value for _ in range(3)]
        assert values == [1, 2, 3]
        assert system.firewall.correct_cut_exists()
        assert system.firewall.correct_path_exists()

    def test_crashing_a_whole_row_breaks_availability(self):
        """With h + 1 = 2 faulty filters in one row there is no correct path;
        the system stops answering (but never leaks or lies)."""
        system = firewall_system(CounterService)
        system.crash_firewall(1, 0)
        system.crash_firewall(1, 1)
        assert not system.firewall.correct_path_exists()
        with pytest.raises(LivenessTimeoutError):
            system.invoke(increment(1), timeout_ms=2_000.0)

    def test_filter_and_execution_fault_together_are_tolerated(self):
        system = firewall_system(CounterService)
        system.crash_firewall(0, 1)
        system.crash_execution(0)
        values = [system.invoke(increment(1)).result.value for _ in range(3)]
        assert values == [1, 2, 3]


class TestConfidentiality:
    def test_request_and_reply_bodies_are_encrypted_below_the_firewall(self):
        system = firewall_system(KeyValueStore)
        auditor = install_auditor(system)
        system.invoke(put("secret-key", "secret-value"))
        system.invoke(get("secret-key"))
        system.run(100.0)
        assert auditor.clean, [leak.description for leak in auditor.leaks]
        assert auditor.reply_observations, "auditor should have seen reply traffic"

    def test_clients_still_read_their_replies(self):
        system = firewall_system(KeyValueStore)
        system.invoke(put("k", "v"))
        record = system.invoke(get("k"))
        assert record.result.value == {"value": "v", "found": True}

    def test_agreement_nodes_cannot_open_reply_bodies(self):
        system = firewall_system(KeyValueStore)
        system.invoke(put("k", "v"))
        system.run(100.0)
        cached = system.message_queues[0].cache.get(system.clients[0].node_id)
        assert cached is not None
        assert isinstance(cached.reply.result, EncryptedBody)
        assert not cached.reply.result.can_open(Role.AGREEMENT)
        assert not cached.reply.result.can_open(Role.FIREWALL)

    def test_corrupt_execution_replies_are_filtered_not_delivered(self):
        """A faulty execution node sends corrupted reply bodies: its share no
        longer matches the quorum, the threshold signature is formed from the
        correct replicas, and clients only ever see the correct answer."""
        system = firewall_system(CounterService)
        liar = system.execution_nodes[0].node_id
        behaviour = make_byzantine(system, CorruptReplyBehaviour(liar))
        values = [system.invoke(increment(1)).result.value for _ in range(4)]
        assert values == [1, 2, 3, 4]
        assert behaviour.messages_affected > 0

    def test_plaintext_leak_attempt_is_blocked_by_the_correct_cut(self):
        """A faulty execution node strips encryption from its replies.  The
        tampered body cannot gather a threshold quorum, so correct filters
        drop it and no plaintext crosses the boundary."""
        system = firewall_system(KeyValueStore)
        leaker = system.execution_nodes[0].node_id
        behaviour = make_byzantine(system, LeakPlaintextBehaviour(leaker))
        auditor = install_auditor(system)
        system.invoke(put("credit-card", "4111-1111"))
        system.invoke(get("credit-card"))
        system.run(100.0)
        assert behaviour.messages_affected > 0
        assert auditor.clean, [leak.description for leak in auditor.leaks]

    def test_output_set_matches_reference_execution(self):
        """Output-set confidentiality: every reply body that crossed the
        boundary matches what a single correct unreplicated server produces
        for the agreed request sequence."""
        system = firewall_system(KeyValueStore)
        auditor = install_auditor(system)
        operations = [put("a", 1), put("b", 2), get("a"), get("b")]
        records = [system.invoke(operation) for operation in operations]
        system.run(100.0)

        from repro.apps.kvstore import KeyValueStore as Reference
        from repro.statemachine.nondet import NonDetInput

        reference = Reference()
        reference_digests = {}
        client = system.clients[0].node_id
        for record, operation in zip(records, operations):
            expected = reference.execute(operation, NonDetInput.empty())
            assert record.result.value == expected.value
            reference_digests[(client, record.timestamp)] = EncryptedBody(
                record.result, readers=frozenset({Role.CLIENT, Role.EXECUTION})
            ).ciphertext_digest
        # Observed ciphertext digests must be consistent per (client, request):
        # the firewall never lets two different bodies through for one request.
        for (obs_client, timestamp), digests in auditor.observed_result_digests().items():
            assert len(digests) == 1

    def test_correct_cut_and_path_predicates(self):
        system = firewall_system(CounterService)
        assert system.firewall.correct_cut_exists()
        assert system.firewall.correct_path_exists()
        system.crash_firewall(0, 0)
        system.crash_firewall(1, 1)
        # One fault per row: still a correct path (diagonal) but no fully
        # correct row -- with h=1 this configuration exceeds the bound.
        assert system.firewall.correct_path_exists()
        assert not system.firewall.correct_cut_exists()
