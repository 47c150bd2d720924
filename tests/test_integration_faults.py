"""Fault-tolerance integration tests.

The paper's headline claims: the execution cluster masks up to ``g`` faulty
execution replicas with only ``2g + 1`` replicas; the agreement cluster masks
up to ``f`` faults with ``3f + 1`` replicas (including a faulty primary, via
view change); retransmission bridges lossy links between the clusters.
"""

import dataclasses

import pytest

from conftest import CHEAP_CRYPTO, FAST_TIMERS, make_config
from repro.agreement.replica import (VIEW_CHANGE_BACKOFF,
                                     VIEW_CHANGE_BACKOFF_CAP_MS)
from repro.apps.counter import CounterService, increment, read_counter
from repro.apps.kvstore import KeyValueStore, get, put
from repro.config import (AuthenticationScheme, NetworkConfig, SystemConfig,
                          TimerConfig)
from repro.core import CoupledSystem, SeparatedSystem
from repro.crypto.certificate import Certificate
from repro.errors import LivenessTimeoutError
from repro.faults import (
    CorruptReplyBehaviour,
    FaultInjector,
    FaultPlan,
    ForgedReplyBehaviour,
    LyingReplyBehaviour,
    make_byzantine,
)
from repro.messages.agreement import Prepare
from repro.messages.reply import BatchReply, BatchReplyBody, ClientReply, ReplyBody
from repro.messages.request import RequestEnvelope
from repro.net.network import DROP
from repro.sharding import ShardedSystem
from repro.statemachine.interface import OperationResult
from repro.workloads import equal_range_boundaries
from repro.workloads.skew import skew_key


class TestCrashFaults:
    def test_progress_with_one_crashed_execution_node(self, config):
        system = SeparatedSystem(config, CounterService, seed=21)
        system.crash_execution(0)
        values = [system.invoke(increment(1)).result.value for _ in range(5)]
        assert values == [1, 2, 3, 4, 5]

    def test_no_progress_with_majority_of_execution_nodes_crashed(self, config):
        """With g + 1 = 2 of 3 execution replicas down, no reply certificate
        can be formed -- the bound is tight."""
        system = SeparatedSystem(config, CounterService, seed=22)
        system.crash_execution(0)
        system.crash_execution(1)
        with pytest.raises(LivenessTimeoutError):
            system.invoke(increment(1), timeout_ms=2_000.0)

    def test_progress_with_one_crashed_agreement_backup(self, config):
        system = SeparatedSystem(config, CounterService, seed=23)
        system.crash_agreement(2)  # a backup in view 0
        values = [system.invoke(increment(1)).result.value for _ in range(5)]
        assert values == [1, 2, 3, 4, 5]

    def test_crashed_primary_triggers_view_change_and_progress(self, config):
        system = SeparatedSystem(config, CounterService, seed=24)
        system.crash_agreement(0)  # the primary of view 0
        record = system.invoke(increment(1), timeout_ms=30_000.0)
        assert record.result.value == 1
        views = {replica.view for replica in system.agreement_replicas
                 if not replica.crashed}
        assert max(views) >= 1
        # The system keeps working in the new view.
        assert system.invoke(increment(1)).result.value == 2

    def test_crash_mid_run_preserves_linearizability(self, config):
        system = SeparatedSystem(config, KeyValueStore, seed=25)
        system.invoke(put("k", "before"))
        system.crash_execution(1)
        system.invoke(put("k", "after"))
        assert system.invoke(get("k")).result.value["value"] == "after"

    def test_fault_injector_schedules_crash_and_recovery(self, config):
        system = SeparatedSystem(config, CounterService, seed=26)
        injector = FaultInjector(system)
        target = system.execution_nodes[0].node_id
        plan = FaultPlan().crash(target, at_ms=0.0).recover(target, at_ms=100.0)
        injector.install(plan)
        system.run(150.0)
        assert not system.execution_nodes[0].crashed
        assert {event.kind for event in injector.applied} == {"crash", "recover"}
        assert system.invoke(increment(1)).result.value == 1

    def test_coupled_baseline_tolerates_one_crashed_replica(self, config):
        system = CoupledSystem(config, CounterService, seed=27)
        system.crash_replica(3)
        values = [system.invoke(increment(1)).result.value for _ in range(4)]
        assert values == [1, 2, 3, 4]


class TestViewChangeDefences:
    def test_escalation_delay_backs_off_exponentially_to_the_cap(self, config):
        system = SeparatedSystem(config, CounterService, seed=31)
        replica = system.agreement_replicas[1]
        timers = replica.config.timers
        delays = []
        for attempts in range(6):
            replica._view_change_attempts = attempts
            delays.append(replica._escalation_delay_ms())
        assert delays[0] == timers.view_change_ms * VIEW_CHANGE_BACKOFF
        assert all(later >= earlier
                   for earlier, later in zip(delays, delays[1:]))
        assert delays[-1] == max(VIEW_CHANGE_BACKOFF_CAP_MS,
                                 timers.view_change_ms)

    def test_target_selection_skips_recently_deposed_primaries(self, config):
        system = SeparatedSystem(config, CounterService, seed=32)
        replica = system.agreement_replicas[1]
        assert replica.next_view_target(0) == 1
        replica._note_deposed(replica.primary_of(1), 0)
        assert replica.next_view_target(0) == 2
        assert replica.primaries_deposed == 1

    def test_deposed_skip_is_bounded_to_one_rotation(self, config):
        """If every candidate in the rotation was recently deposed,
        liveness beats placement: the immediate successor is used."""
        system = SeparatedSystem(config, CounterService, seed=33)
        replica = system.agreement_replicas[1]
        for view in range(len(replica.agreement_ids)):
            replica._note_deposed(replica.primary_of(view + 1), view)
        assert replica.next_view_target(0) == 1


class TestByzantineExecutionFaults:
    def test_corrupt_replies_from_one_node_are_masked(self, config):
        """A Byzantine execution node reports wrong results for everything;
        the g + 1 reply quorum means clients never accept its answer."""
        system = SeparatedSystem(config, CounterService, seed=31)
        liar = system.execution_nodes[0].node_id
        behaviour = make_byzantine(system, CorruptReplyBehaviour(liar))
        values = [system.invoke(increment(1)).result.value for _ in range(5)]
        assert values == [1, 2, 3, 4, 5]
        assert behaviour.messages_affected > 0

    def test_corrupt_replies_masked_under_threshold_certificates(self):
        config = make_config(authentication=AuthenticationScheme.THRESHOLD)
        system = SeparatedSystem(config, CounterService, seed=32)
        liar = system.execution_nodes[2].node_id
        make_byzantine(system, CorruptReplyBehaviour(liar))
        values = [system.invoke(increment(1)).result.value for _ in range(4)]
        assert values == [1, 2, 3, 4]

    def test_two_liars_exceed_the_bound(self, config):
        """With g + 1 = 2 of 3 execution replicas lying consistently, the
        remaining correct replica cannot form a quorum: the request hangs
        rather than returning a wrong answer (safety over liveness)."""
        system = SeparatedSystem(config, CounterService, seed=33)
        make_byzantine(system, CorruptReplyBehaviour(system.execution_nodes[0].node_id))
        make_byzantine(system, CorruptReplyBehaviour(system.execution_nodes[1].node_id))
        with pytest.raises(LivenessTimeoutError):
            system.invoke(increment(1), timeout_ms=2_000.0)


def _plain_system(scheme, seed):
    return SeparatedSystem(make_config(authentication=scheme), KeyValueStore,
                           seed=seed)


def _sharded_system(scheme, seed):
    config = SystemConfig.sharded(
        2, num_clients=2, pipeline_depth=16, checkpoint_interval=8,
        bundle_size=1, timers=FAST_TIMERS, crypto=CHEAP_CRYPTO,
        authentication=scheme)
    return ShardedSystem(config, KeyValueStore, seed=seed)


class TestForgedReplies:
    """One Byzantine *agreement* node must not be able to choose what a
    client reads.  It holds genuine ``g + 1`` certificates (it assembles
    them) and hands replies to clients (relayed, or from its cache on a
    retransmission), so anything a client took from beside the certified
    body -- a separate ``reply`` field, a body the threshold branch never
    compared with the signed payload -- was the forger's to write."""

    @pytest.mark.parametrize("build", [_plain_system, _sharded_system],
                             ids=["plain", "sharded"])
    @pytest.mark.parametrize("scheme", [AuthenticationScheme.MAC,
                                        AuthenticationScheme.THRESHOLD],
                             ids=lambda scheme: scheme.value)
    def test_forged_result_under_a_genuine_certificate_is_refused(self, build,
                                                                  scheme):
        system = build(scheme, seed=51)
        client = system.clients[0]
        system.invoke(put("k", "genuine"))
        forger = system.agreement_ids[0]
        behaviour = make_byzantine(
            system, ForgedReplyBehaviour(forger, corrupt_value="FORGED"))

        # Every honest node's reply to the client is held back: whatever
        # the client hears, it hears from the forger alone.
        def hold_back(source, destination, message):
            if isinstance(message, ClientReply) and source != forger:
                return DROP
            return None

        system.network.add_tap(hold_back)
        client.submit(get("k"))
        system.run(400.0)   # several retransmission rounds
        assert behaviour.messages_affected > 0
        assert len(client.completed) == 1, client.completed[-1].result
        system.network.remove_tap(hold_back)
        system.run_until(lambda: len(client.completed) == 2, 5_000.0)
        assert client.completed[-1].result.value["value"] == "genuine"


class TestLivenessWithoutTheRelay:
    """Where execution replies directly (MAC, no firewall) the agreement
    nodes assemble bodiless certificates and relay none to a client.  A
    client that misses its direct replies retransmits; each agreement node
    passes the request on to the execution replicas, which answer it with
    a complete certificate over the reply from their tables, and the node
    relays (and caches) it once ``g + 1`` match."""

    def test_all_direct_replies_lost(self, config):
        system = SeparatedSystem(config, CounterService, seed=61)
        executors = set(system.execution_ids)
        system.network.add_tap(
            lambda source, destination, message:
            DROP if source in executors and isinstance(message, ClientReply)
            else None)
        record = system.invoke(increment(1))
        assert record.result.value == 1
        client = system.clients[0]
        assert client.retransmissions == 1
        system.run(50.0)
        queues = system.message_queues
        # Each queue passes the retransmission on once: the primary not
        # again for each copy the backups forward it.
        assert all(queue.requests_forwarded == 1 and queue.replies_forwarded == 1
                   and queue.cache[client.node_id].reply.timestamp == 1
                   for queue in queues)
        assert all(node.retries_answered == len(queues)
                   for node in system.execution_nodes)
        assert len(client.completed) == 1
        assert [node.requests_executed for node in system.execution_nodes] \
            == [1, 1, 1]

    def test_a_backup_does_not_forward_an_ordered_retransmission(self, config):
        """A backup whose queue cannot serve a retransmission of an
        executed request passes it on to the replicas and stops there: it
        does not forward the copy to the primary (which would drop it), nor
        queue the request or arm a deadline the ordered request could never
        fire.  Only the primary orders it again, for the client's own
        copy.  (Each of the three backups forwarded its copy before.)"""
        system = SeparatedSystem(config, CounterService, seed=61)
        executors = set(system.execution_ids)
        client = system.clients[0]
        primary, *backups = system.agreement_replicas
        forwarded = []

        def tap(source, destination, message):
            if source in executors and isinstance(message, ClientReply):
                return DROP
            if (isinstance(message, RequestEnvelope)
                    and source != client.node_id
                    and destination == primary.node_id):
                forwarded.append(source)
            return None

        system.network.add_tap(tap)
        assert system.invoke(increment(1)).result.value == 1
        assert client.retransmissions == 1
        system.run(50.0)
        assert forwarded == []
        assert all(queue.requests_forwarded == 1 for queue in system.message_queues)
        for backup in backups:
            assert not backup.proposer.batcher.contains(client.node_id, 1)
            assert (client.node_id, 1) not in backup.proposer._request_deadlines
        assert [node.batches_executed for node in system.execution_nodes] == [2] * 3

    def test_a_retransmission_whose_answers_are_lost_is_passed_on_again(self, config):
        """The replicas' answers to the first passed-on retransmission are
        lost, and so is every direct reply: the client's next
        retransmission is passed on again, and its answers complete it."""
        system = SeparatedSystem(config, CounterService, seed=61)
        executors = set(system.execution_ids)
        client = system.clients[0]
        system.network.add_tap(
            lambda source, destination, message:
            DROP if source in executors and (
                isinstance(message, ClientReply)
                or (isinstance(message, BatchReply) and message.body.carried
                    and client.retransmissions < 2))
            else None)
        record = system.invoke(increment(1))
        assert record.result.value == 1
        assert client.retransmissions == 2
        system.run(50.0)
        assert all(queue.requests_forwarded == 2 and queue.replies_forwarded == 1
                   for queue in system.message_queues)
        assert [node.requests_executed for node in system.execution_nodes] \
            == [1, 1, 1]

    def test_a_retransmission_is_ordered_again_once(self, config):
        """The one retransmission finds no queue holding the executed
        request, so the primary orders it again -- for the client's own
        copy only, not again for each copy a backup relays: each replica
        executes one more batch, where it executed four more when every
        copy was ordered (``duplicate_requests`` 4, ``batches_executed``
        5)."""
        system = SeparatedSystem(config, CounterService, seed=61)
        executors = set(system.execution_ids)
        system.network.add_tap(
            lambda source, destination, message:
            DROP if source in executors and isinstance(message, ClientReply)
            else None)
        assert system.invoke(increment(1)).result.value == 1
        assert system.clients[0].retransmissions == 1
        system.run(50.0)
        assert [(node.duplicate_requests, node.batches_executed)
                for node in system.execution_nodes] == [(1, 2)] * 3

    def test_a_retransmission_the_primary_only_hears_relayed(self, config):
        """The client's first retransmission reaches the primary only
        through the backups, and every answer to it is lost: nothing orders
        it again, and the client's next retransmission -- which the primary
        hears itself -- completes it."""
        system = SeparatedSystem(config, CounterService, seed=61)
        executors = set(system.execution_ids)
        client = system.clients[0]
        primary = system.agreement_ids[0]
        system.network.add_tap(
            lambda source, destination, message:
            DROP if client.retransmissions < 2 and (
                (source == client.node_id and destination == primary
                 and client.retransmissions == 1)
                or (source in executors and message.type_name() == "BatchReply"
                    and message.body.carried))
            else DROP if source in executors and isinstance(message, ClientReply)
            else None)
        record = system.invoke(increment(1))
        assert record.result.value == 1
        assert client.retransmissions == 2
        system.run(50.0)
        assert [node.requests_executed for node in system.execution_nodes] \
            == [1, 1, 1]
        # ordered again once: on the copy the client sent the primary
        assert [node.batches_executed for node in system.execution_nodes] \
            == [2, 2, 2]

    def test_a_retransmission_resends_the_signed_request(self, config):
        """A client's retransmission timer signs nothing: every agreement
        node is sent the very envelope the client signed the first time."""
        system = SeparatedSystem(config, CounterService, seed=61)
        client = system.clients[0]
        sent = []
        system.network.add_tap(
            lambda source, destination, message:
            sent.append(message) if source == client.node_id else None)
        timestamp = client.submit(increment(1))
        (envelope,) = sent
        signed = client.stats.crypto_ops["mac_sign"]
        client._on_timeout(timestamp)
        assert client.stats.crypto_ops["mac_sign"] == signed
        assert len(sent) == 1 + len(system.agreement_ids)
        assert all(message is envelope for message in sent)
        system.run_until(lambda: client.completed, 5_000.0)
        assert client.completed[0].result.value == 1

    def test_a_liar_and_a_lost_direct_reply(self, config):
        """One of three direct replies is a re-signed lie and one is lost:
        the single honest one is below quorum, and the relayed answer to
        the retransmission is not -- the liar lies to the queues too."""
        system = SeparatedSystem(config, CounterService, seed=62)
        liar, muted = system.execution_ids[0], system.execution_ids[1]
        make_byzantine(system, LyingReplyBehaviour(liar))
        system.network.add_tap(
            lambda source, destination, message:
            DROP if source == muted and isinstance(message, ClientReply)
            else None)
        values = [system.invoke(increment(1)).result.value for _ in range(3)]
        assert values == [1, 2, 3]
        assert sum(queue.replies_forwarded for queue in system.message_queues) >= 3
        assert system.clients[0].retransmissions >= 3

    @pytest.mark.parametrize("liar_index", [0, 1],
                             ids=["carrying-liar", "bodiless-liar"])
    def test_a_liars_bodiless_word_retires_no_slot(self, config, liar_index):
        """A lying replica's bodiless certificate names digests of no
        genuine reply, whether it sent its client a carried lie first
        (replica 0 carries seq 1) or only the bodiless view (replica 1):
        with one more replica muted towards the agreement cluster, no
        queue -- the primary's included -- retires the slot on its word."""
        system = SeparatedSystem(config, CounterService, seed=66)
        nodes = system.execution_nodes
        liar, muted = nodes[liar_index], nodes[liar_index + 1]
        assert liar._carries_replies(1) is (liar_index == 0)
        make_byzantine(system, LyingReplyBehaviour(liar.node_id))
        system.network.add_tap(
            lambda source, destination, message:
            DROP if source == muted.node_id and isinstance(message, BatchReply)
            else None)
        system.clients[0].submit(increment(1))
        system.run(30.0)
        assert all(node.max_executed == 1 for node in nodes)
        for queue in system.message_queues:
            assert queue.highest_reply_seq == 0 and 1 in queue.pending_sends

    def test_no_queue_caches_on_the_fault_free_path(self, config):
        """Every queue assembles the bodiless form: it retires pending
        sends and advances the pipeline, and leaves nothing to cache or
        relay."""
        system = SeparatedSystem(config, CounterService, seed=67)
        client = system.clients[0].node_id
        for _ in range(3):
            system.invoke(increment(1))
        system.run(20.0)
        for queue in system.message_queues:
            assert queue.cache == {} and queue.replies_forwarded == 0
            assert queue.highest_reply_seq == 3
            assert queue.pending_sends == {}
        # A complete certificate is cached and relayed; a bodiless one
        # handed to the same queue displaces nothing.
        primary = system.message_queues[0]
        node = system.execution_nodes[0]
        last = node.reply_table[client]
        bundle = node._make_reply_body(last.view, last.seq, (last,))
        certificate = Certificate(payload=bundle, scheme=AuthenticationScheme.MAC)
        primary._forward_replies(certificate)
        cached = primary.cache[client]
        assert cached.certificate is certificate and primary.replies_forwarded == 1
        primary._forward_replies(certificate.with_payload(bundle.view_for(None)))
        assert primary.cache[client] is cached and primary.replies_forwarded == 1

    def test_relaying_queues_assemble_bundles_only(self, threshold_config):
        """Where the queues relay (threshold certificates here) every queue
        still gets the bundle, and a bodiless partial is refused: assembled
        first, it would leave a certificate with nothing to relay."""
        system = SeparatedSystem(threshold_config, CounterService, seed=70)
        system.invoke(increment(1))
        message = system.execution_nodes[0].replies_by_seq[1]
        bodiless = BatchReply(seq=message.seq, sender=message.sender,
                              certificate=message.certificate.with_payload(
                                  message.body.view_for(None)))
        assert bodiless.well_formed
        for queue in system.message_queues:
            assert queue._admissible(message) and not queue._admissible(bodiless)
            assert queue.replies_forwarded == 1

    def test_primary_crashes_after_execution(self, config):
        """The primary crashes once the replicas have executed -- before
        their partials reach it, so it relays no certificate -- and every
        direct reply is lost: the client completes through a backup that
        passes its retransmission on to the replicas, before any view
        change.  Every backup retires the slot through its own timer, and
        after the view change the new primary's pipeline window advances."""
        system = SeparatedSystem(config, CounterService, seed=68)
        client = system.clients[0]
        primary = system.agreement_replicas[0]
        executors = set(system.execution_ids)
        lost = []

        def lose_direct_replies(source, destination, message):
            if (source in executors and isinstance(message, ClientReply)
                    and not primary.crashed):
                lost.append(message)
                return DROP
            return None

        system.network.add_tap(lose_direct_replies)
        client.submit(increment(1))
        system.run_until(lambda: len(lost) == 3, 1_000.0)
        system.crash_agreement(0)
        system.run_until(lambda: client.completed, 5_000.0)
        assert client.completed[0].result.value == 1
        assert client.completed[0].view == 0
        assert sum(queue.requests_forwarded
                   for queue in system.message_queues[1:]) >= 1
        assert sum(node.retries_answered for node in system.execution_nodes) >= 2
        assert [node.requests_executed for node in system.execution_nodes] \
            == [1, 1, 1]
        assert system.message_queues[0].certificates_relayed == 0
        system.run(200.0)
        assert all(queue.highest_reply_seq == 1 and queue.pending_sends == {}
                   for queue in system.message_queues[1:])
        values = [system.invoke(increment(1), timeout_ms=5_000.0).result.value
                  for _ in range(3)]
        assert values == [2, 3, 4]
        new_primary = next(replica for replica in system.agreement_replicas[1:]
                           if replica.is_primary)
        queue = new_primary.local
        assert new_primary.view > 0
        system.run(50.0)
        assert queue.highest_reply_seq == new_primary.log.last_delivered_seq >= 4
        assert queue.pending_sends == {} and queue.certificates_relayed >= 3

    def test_a_replayed_request_yields_only_what_the_table_holds(self, config):
        """A Byzantine agreement node replaying a client's signed requests
        to the replicas gets nothing the reply tables did not already hold:
        an old request is answered with the latest reply, one not executed
        yet is ignored, and nothing executes.  Nor does the client hear of
        it: the node's queue passed no retransmission on, so it assembles
        none of the answers."""
        system = SeparatedSystem(config, CounterService, seed=69)
        client = system.clients[0]
        envelopes = []
        system.network.add_tap(
            lambda source, destination, message:
            envelopes.append(message)
            if source == client.node_id and isinstance(message, RequestEnvelope)
            else None)
        system.invoke(increment(1))
        system.invoke(increment(1))
        # The third request never reaches the agreement cluster.
        system.network.add_tap(
            lambda source, destination, message:
            DROP if source == client.node_id else None)
        client.submit(increment(1))
        old, unexecuted = envelopes[0], envelopes[-1]
        assert (old.request.timestamp, unexecuted.request.timestamp) == (1, 3)
        byzantine = system.agreement_replicas[1]
        answers, relayed = [], []
        system.network.add_tap(
            lambda source, destination, message:
            answers.append(message)
            if destination == byzantine.node_id and isinstance(message, BatchReply)
            and message.body.carried
            else relayed.append(message) if isinstance(message, ClientReply)
            else None)
        executed = [node.requests_executed for node in system.execution_nodes]
        byzantine.multicast(system.execution_ids, unexecuted)
        byzantine.multicast(system.execution_ids, old)
        system.run(5.0)
        assert [node.requests_executed for node in system.execution_nodes] == executed
        assert len(answers) == 3
        for answer in answers:
            (reply,) = answer.body.replies
            assert (reply.timestamp, reply.result.value) == (2, 2)
        assert relayed == []
        assert client.outstanding and len(client.completed) == 2

    def test_primary_crashes_mid_request(self, config):
        """Open loop across a crash of the primary (the ledger's failover
        phase in small): every request completes exactly once, and no
        agreement node ever relayed a reply."""
        system = SeparatedSystem(make_config(num_clients=4), CounterService,
                                 seed=63)
        sent = 24
        for index in range(sent):
            system.scheduler.call_at(
                system.now + 5.0 * index,
                lambda index=index: system.submit(increment(1),
                                                  client_index=index % 4),
                label="open-loop")
        system.scheduler.call_at(system.now + 42.0,
                                 lambda: system.crash_agreement(0),
                                 label="crash")
        system.run_until(lambda: system.total_completed() == sent, 30_000.0)
        assert sorted(record.result.value for client in system.clients
                      for record in client.completed) \
            == list(range(1, sent + 1))
        assert {replica.view for replica in system.agreement_replicas
                if not replica.crashed} != {0}
        assert all(queue.replies_forwarded == 0
                   for queue in system.message_queues)
        assert {node.requests_executed for node in system.execution_nodes} \
            == {sent}


def _forge_relay(kind, message):
    """A primary's relay to one backup as a faulty primary could frame it:
    its MACs wrong (``"macs"``), or its authenticators attached to another
    body (``"body"``)."""
    certificate = message.certificate
    if kind == "macs":
        certificate = Certificate(
            payload=certificate.payload, scheme=certificate.scheme,
            authenticators={
                signer: dataclasses.replace(authenticator, token={
                    name: bytes(len(mac)) for name, mac in authenticator.token.items()})
                for signer, authenticator in certificate.authenticators.items()})
    else:
        body = certificate.payload
        certificate = certificate.with_payload(dataclasses.replace(
            body, replies=tuple(b"\x01" * 32 for _ in body.replies)))
    return BatchReply(seq=message.seq, certificate=certificate,
                      sender=message.sender)


class TestTheRelayedReplyCertificate:
    """Where execution replies directly, each replica sends its bodiless
    partial to the primary of the slot's view alone, and the primary
    relays the completed certificate to each backup.  A backup checks all
    ``g + 1`` authenticators of a relay, and one whose primary withholds or
    forges it retires its pending sends through its own retransmission
    timer, which every replica answers to every agreement node."""

    def test_fault_free_every_backup_retires_on_the_relay(self, config):
        system = SeparatedSystem(config, CounterService, seed=64)
        for _ in range(3):
            system.invoke(increment(1))
        system.run(20.0)
        primary, *backups = system.message_queues
        assert primary.certificates_relayed == 3
        for queue in system.message_queues:
            assert queue.highest_reply_seq == 3 and queue.pending_sends == {}
            assert queue.retransmissions == 0
            assert queue.crypto.dropped_authenticators == 0

    def test_a_primary_that_never_relays(self, config):
        """(a) A tap drops every relay: each backup retires its sends when
        its own timer makes the replicas answer it, and the run completes."""
        system = SeparatedSystem(config, CounterService, seed=64)
        primary = system.agreement_ids[0]
        withheld = []

        def withhold(source, destination, message):
            if source == primary and isinstance(message, BatchReply):
                withheld.append(destination)
                return DROP
            return None

        system.network.add_tap(withhold)
        values = [system.invoke(increment(1)).result.value for _ in range(3)]
        assert values == [1, 2, 3]
        system.run(500.0)
        assert sorted(set(withheld)) == system.agreement_ids[1:]
        for queue in system.message_queues[1:]:
            assert queue.highest_reply_seq == 3 and queue.pending_sends == {}
            assert queue.retransmissions >= 1
        assert system.message_queues[0].retransmissions == 0

    @pytest.mark.parametrize("kind", ["macs", "body"])
    def test_a_forged_relay_is_refused_and_the_slot_stays_pending(self, config,
                                                                   kind):
        """(b) The primary relays authenticators that do not verify at the
        backup, or that are over another body: the backup refuses the relay
        and counts its ``g + 1`` authenticators, and the slot stays pending
        until the backup's own timer retires it."""
        system = SeparatedSystem(config, CounterService, seed=65)
        primary = system.agreement_ids[0]
        forged = []

        def forge(source, destination, message):
            if source == primary and isinstance(message, BatchReply):
                forged.append(destination)
                return _forge_relay(kind, message)
            return None

        system.network.add_tap(forge)
        system.clients[0].submit(increment(1))
        system.run(30.0)   # under agreement_retransmit_ms
        assert sorted(forged) == system.agreement_ids[1:]
        assert system.message_queues[0].highest_reply_seq == 1
        for queue in system.message_queues[1:]:
            assert queue.highest_reply_seq == 0 and 1 in queue.pending_sends
            assert queue.crypto.dropped_authenticators == config.reply_quorum
        system.run_until(lambda: all(queue.highest_reply_seq == 1
                                     for queue in system.message_queues), 1_000.0)
        assert system.clients[0].completed[0].result.value == 1

    def test_a_relay_only_names_what_every_vector_names(self, config):
        """A certificate the primary completed from resends -- each naming
        it alone -- is good for no backup, so it relays nothing."""
        system = SeparatedSystem(config, CounterService, seed=64)
        system.invoke(increment(1))
        system.run(20.0)
        queue = system.message_queues[0]
        relayed, sent = queue.certificates_relayed, []
        system.network.add_tap(lambda source, destination, message:
                               sent.append(message) if source == queue.owner.node_id
                               else None)
        node = system.execution_nodes[0]
        last = node.reply_table[system.clients[0].node_id]
        body = node._make_reply_body(last.view, 5, (last,))
        for replica in system.execution_nodes:
            whole = replica._partial_certificate(body).with_payload(
                body.view_for(None))
            queue.on_batch_reply(replica.node_id, BatchReply(
                seq=5, sender=replica.node_id,
                certificate=whole.addressed_to((queue.owner.node_id,))))
        assert queue.highest_reply_seq == 5
        assert queue.certificates_relayed == relayed and sent == []

    def test_a_whole_certificate_with_junk_beside_it_relays_nothing(self, config):
        """An agreement node hands the primary a certificate for a slot of
        its view whose g + 1 genuine authenticators verify there, and a
        junk one beside them: the primary retires the slot, relays nothing
        (no vector of the junk names a backup) and raises nothing."""
        system = SeparatedSystem(config, CounterService, seed=64)
        system.invoke(increment(1))
        system.run(20.0)
        queue = system.message_queues[0]
        relayed = queue.certificates_relayed
        node = system.execution_nodes[0]
        last = node.reply_table[system.clients[0].node_id]
        body = node._make_reply_body(last.view, 6, (last,))
        certificate = Certificate(payload=body.view_for(None),
                                  scheme=AuthenticationScheme.MAC)
        for replica in system.execution_nodes[:config.reply_quorum]:
            certificate.add(replica._partial_certificate(body).authenticators[
                replica.node_id])
        junk = system.execution_nodes[-1].node_id
        certificate.authenticators[junk] = dataclasses.replace(
            certificate.authenticators[node.node_id], signer=junk, token=b"junk")
        queue.on_batch_reply(system.agreement_ids[1], BatchReply(
            seq=6, sender=system.agreement_ids[1], certificate=certificate))
        assert queue.highest_reply_seq == 6
        assert queue.certificates_relayed == relayed


class TestMalformedAuthenticators:
    @pytest.mark.parametrize("shape", [
        lambda name: b"raw", lambda name: [name], lambda name: {name: "str"},
        lambda name: {name: 7}, lambda name: "str", lambda name: None,
    ], ids=["bytes", "list", "str-entry", "int-entry", "str", "none"])
    def test_ill_typed_request_token_is_refused_and_others_commit(self, config, shape):
        """A request certificate whose MAC vector has the wrong shape fails
        verification at every replica it reaches; no handler raises."""
        system = SeparatedSystem(config, CounterService, seed=41)
        victim = system.clients[0].node_id

        def rewrite_token(source, destination, message):
            if source != victim or not isinstance(message, RequestEnvelope):
                return None
            genuine = message.certificate
            forged = Certificate(payload=genuine.payload, scheme=genuine.scheme)
            for authenticator in genuine.authenticators.values():
                forged.add(dataclasses.replace(authenticator,
                                               token=shape(destination.name)))
            return RequestEnvelope(certificate=forged)

        system.network.add_tap(rewrite_token)
        system.submit(increment(100), client_index=0)
        values = [system.invoke(increment(1), client_index=1).result.value
                  for _ in range(3)]
        assert values == [1, 2, 3]
        assert not system.clients[0].completed
        system.network.remove_tap(rewrite_token)
        system.run_until(lambda: bool(system.clients[0].completed), 5_000.0)
        assert system.invoke(read_counter(), client_index=1).result.value == 103

    def test_a_reply_naming_an_unknown_threshold_group_is_dropped(self, config):
        """One Byzantine execution replica hands the client and a message
        queue a "combined" reply certificate of a group nobody knows.  Key
        material that cannot be found is a failed verification: both
        deliveries are dropped, and the genuine reply completes the request."""
        system = SeparatedSystem(config, CounterService, seed=41)
        client = system.clients[0]
        liar = system.execution_nodes[0]
        timestamp = client.submit(increment(1))
        body = BatchReplyBody(view=0, seq=1, replies=(ReplyBody(
            view=0, seq=1, timestamp=timestamp, client=client.node_id,
            result=OperationResult(value=999)),))
        certificate = Certificate(payload=body, scheme=AuthenticationScheme.THRESHOLD,
                                  threshold_group="no-such-group",
                                  threshold_signature=bytes(32))
        liar.send(client.node_id, ClientReply(certificate))
        liar.send(system.agreement_ids[0],
                  BatchReply(seq=1, certificate=certificate, sender=liar.node_id))
        system.run_until(lambda: bool(client.completed), 5_000.0)
        assert [record.result.value for record in client.completed] == [1]


    def test_a_share_naming_another_group_cannot_stall_the_queue(self):
        """The first share a message queue hears for a body names a group of
        its sender's choosing; the queue counts shares in its own group, so
        the genuine shares still certify the body."""
        config = make_config(authentication=AuthenticationScheme.THRESHOLD)
        system = SeparatedSystem(config, CounterService, seed=9)
        queue = system.message_queues[0]
        body = BatchReplyBody(view=0, seq=1, replies=(ReplyBody(
            view=0, seq=1, timestamp=1, client=system.clients[0].node_id,
            result=OperationResult(value=1)),))
        for node, named in zip(system.execution_nodes,
                               ("no-such-group", system.threshold_group)):
            certificate = Certificate(payload=body, scheme=AuthenticationScheme.THRESHOLD,
                                      threshold_group=named)
            certificate.add(node.crypto.threshold_share(body, system.threshold_group))
            queue.on_batch_reply(node.node_id, BatchReply(
                seq=1, certificate=certificate, sender=node.node_id))
        assert queue.highest_reply_seq == 1

class TestLossyNetwork:
    def test_progress_over_lossy_links(self):
        config = make_config(network=NetworkConfig(min_delay_ms=0.05, max_delay_ms=0.5,
                                                   drop_probability=0.08,
                                                   duplicate_probability=0.05,
                                                   reorder_probability=0.1))
        system = SeparatedSystem(config, CounterService, seed=34)
        values = [system.invoke(increment(1), timeout_ms=60_000.0).result.value
                  for _ in range(6)]
        assert values == [1, 2, 3, 4, 5, 6]

    def test_duplicated_messages_do_not_double_execute(self):
        config = make_config(network=NetworkConfig(min_delay_ms=0.05, max_delay_ms=0.3,
                                                   duplicate_probability=0.5))
        system = SeparatedSystem(config, CounterService, seed=35)
        for _ in range(5):
            system.invoke(increment(1), timeout_ms=60_000.0)
        final = system.invoke(read_counter(), timeout_ms=60_000.0)
        assert final.result.value == 5

    def test_partition_between_clusters_heals(self, config):
        system = SeparatedSystem(config, CounterService, seed=36)
        # Cut every agreement-to-execution link, then heal after 200 ms; the
        # message-queue retransmission timers must bridge the outage.
        for replica in system.agreement_replicas:
            for node in system.execution_nodes:
                system.network.faults.partition(replica.node_id, node.node_id)
        system.scheduler.call_after(200.0, system.network.faults.heal_all)
        record = system.invoke(increment(1), timeout_ms=30_000.0)
        assert record.result.value == 1
        assert sum(q.retransmissions for q in system.message_queues) > 0


#: the failover benchmark's timers: a 150 ms view-change fuse, clients
#: that retransmit after 240 ms
FAILOVER_TIMERS = TimerConfig(client_retransmit_ms=240.0,
                              agreement_retransmit_ms=60.0,
                              execution_fetch_ms=20.0, view_change_ms=150.0,
                              batch_timeout_ms=1.0)


class TestViewEntry:
    """What a replica does on entering a view: every request deadline runs
    a full fuse from there, and a backup hands its queue to the new
    primary."""

    def _loaded_system(self, seed=0, num_clients=24):
        config = SystemConfig.sharded(
            2, strategy="range", range_boundaries=equal_range_boundaries(64, 2),
            num_clients=num_clients, pipeline_depth=16,
            checkpoint_interval=64, app_processing_ms=1.0,
            timers=FAILOVER_TIMERS, crypto=CHEAP_CRYPTO)
        system = ShardedSystem(config, KeyValueStore, seed=seed)
        for index in range(40 * num_clients):
            system.submit(put(skew_key(index % 64), f"v{index}"),
                          client_index=index % num_clients)
        return system

    def test_live_replicas_commit_while_the_primary_stays_crashed(self):
        """The primary crashes for good under load.  Deadlines armed in view
        0 used to fire in a burst right after each view change, deposing
        every new primary before it could act, until the target view came
        round to the dead one; now the three live replicas settle on a live
        primary and commit long before a client gives up twice."""
        system = self._loaded_system()
        system.run(400.0)
        system.crash_agreement(0)
        crashed_at, before = system.now, system.total_completed()
        system.run_until(lambda: system.total_completed() >= before + 200,
                         2 * FAILOVER_TIMERS.client_retransmit_ms
                         + FAILOVER_TIMERS.view_change_ms,
                         "steady commits with the primary down")
        assert system.agreement_replicas[0].crashed
        live = system.agreement_replicas[1:]
        assert len({replica.view for replica in live}) == 1
        assert not live[0].primary_of(live[0].view) == system.agreement_ids[0]
        assert system.now - crashed_at < 700.0

    def test_view_entry_rearms_deadlines_and_forwards_the_queue(self):
        system = SeparatedSystem(make_config(), CounterService, seed=64)
        system.crash_agreement(0)
        system.submit(increment(1))
        backup = system.agreement_replicas[2]
        system.run_until(lambda: backup.proposer.batcher.has_work(), 1_000.0,
                         "the request queued at a backup")
        forwarded = []
        system.network.add_tap(
            lambda source, destination, message:
            forwarded.append((system.now, destination))
            if source == backup.node_id
            and isinstance(message, RequestEnvelope) else None)
        system.run_until(lambda: backup.view >= 1, 5_000.0, "view 1")
        entered = system.now
        assert forwarded[-1] == (entered, backup.primary_of(backup.view))
        deadlines = backup.proposer._request_deadlines.values()
        assert deadlines and all(
            timer.deadline >= entered + FAST_TIMERS.view_change_ms
            for timer in deadlines if timer.active)

    def test_the_primary_never_votes_itself_out(self):
        """Only a backup suspects the primary.  A request only the primary
        heard of outlives its deadline there (its PREPAREs are lost, the
        client has not retransmitted yet): the primary stays in its view.
        A primary that voted alone stopped ordering until the backups'
        own timers escalated.  The request commits once the client's
        retransmission arms the backups' deadlines."""
        timers = dataclasses.replace(FAST_TIMERS, client_retransmit_ms=1_000.0)
        system = SeparatedSystem(make_config(timers=timers), CounterService,
                                 seed=66)
        primary = system.agreement_replicas[0]
        healed = []
        system.network.add_tap(
            lambda source, destination, message:
            DROP if isinstance(message, Prepare) and not healed else None)
        system.submit(increment(1))
        system.run(2 * timers.view_change_ms)
        assert system.total_completed() == 0
        assert not primary._view_changing and primary.view == 0
        healed.append(True)
        system.run_until(lambda: system.total_completed() == 1,
                         timers.client_retransmit_ms + 4 * timers.view_change_ms,
                         "the request committed")

    def test_a_proposal_the_view_change_drops_is_queued_again(self):
        """A batch pre-prepared but not yet prepared when the view changes
        is not carried into the NEW-VIEW.  Every replica that saw it queues
        its requests again, so the new primary orders them without waiting
        for the client to retransmit (a planned rotation overtaking the
        outgoing primary's last proposal is the common case)."""
        system = SeparatedSystem(make_config(), CounterService, seed=65)
        client = system.clients[0]
        system.invoke(increment(1))
        healed = []
        system.network.add_tap(
            lambda source, destination, message:
            DROP if isinstance(message, Prepare) and not healed else None)
        client.submit(increment(1))
        system.run_until(
            lambda: all(replica.log.existing_entry(0, 2) is not None
                        and replica.log.existing_entry(0, 2).pre_prepare
                        is not None for replica in system.agreement_replicas),
            1_000.0, "the proposal pre-prepared everywhere")
        healed.append(True)
        for replica in system.agreement_replicas:
            replica.start_view_change(1, planned=True)
        system.run_until(lambda: len(client.completed) == 2,
                         FAST_TIMERS.client_retransmit_ms / 2,
                         "the dropped request ordered in view 1")
        assert client.retransmissions == 0
        assert client.completed[-1].result.value == 2
        assert {replica.view for replica in system.agreement_replicas} == {1}
