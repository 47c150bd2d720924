"""Fault-tolerance integration tests.

The paper's headline claims: the execution cluster masks up to ``g`` faulty
execution replicas with only ``2g + 1`` replicas; the agreement cluster masks
up to ``f`` faults with ``3f + 1`` replicas (including a faulty primary, via
view change); retransmission bridges lossy links between the clusters.
"""

import dataclasses

import pytest

from conftest import make_config
from repro.agreement.replica import VIEW_CHANGE_BACKOFF_CAP_MS
from repro.apps.counter import CounterService, increment, read_counter
from repro.apps.kvstore import KeyValueStore, get, put
from repro.config import AuthenticationScheme, NetworkConfig
from repro.core import CoupledSystem, SeparatedSystem
from repro.crypto.certificate import Certificate
from repro.errors import LivenessTimeoutError
from repro.faults import CorruptReplyBehaviour, FaultInjector, FaultPlan, make_byzantine
from repro.messages.request import RequestEnvelope


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
        assert delays[0] == timers.view_change_ms * timers.view_change_backoff
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
