"""Checkpointing, garbage collection, and state-transfer tests (Section 3.3)."""

import dataclasses

import pytest

from conftest import make_config
from repro.apps.counter import CounterService, increment, read_counter
from repro.apps.kvstore import KeyValueStore, get, put
from repro.core import SeparatedSystem
from repro.messages.agreement import AgreementCheckpoint, CommitMsg, OrderedBatch
from repro.net.network import DROP


class TestExecutionCheckpoints:
    def test_checkpoints_become_stable(self):
        config = make_config(checkpoint_interval=4)
        system = SeparatedSystem(config, CounterService, seed=51)
        for _ in range(9):
            system.invoke(increment(1))
        system.run(100.0)
        for node in system.execution_nodes:
            assert node.checkpoints.stable is not None
            assert node.checkpoints.stable.seq >= 4
            assert node.checkpoints.stable.proof is not None
            # Proof of stability carries at least g + 1 = 2 authenticators.
            assert node.checkpoints.stable.proof.count() >= config.checkpoint_quorum

    def test_garbage_collection_bounds_state(self):
        config = make_config(checkpoint_interval=4, pipeline_depth=4)
        system = SeparatedSystem(config, CounterService, seed=52)
        for _ in range(20):
            system.invoke(increment(1))
        system.run(200.0)
        for node in system.execution_nodes:
            stable = node.checkpoints.stable.seq
            assert all(seq >= stable for seq in node.checkpoints.taken)
            assert all(seq > stable for seq in node.pending)
            # The per-sequence reply cache is trimmed to a bounded window.
            assert len(node.replies_by_seq) <= 2 * config.pipeline_depth + 1

    def test_checkpoint_digests_match_across_replicas(self):
        config = make_config(checkpoint_interval=4)
        system = SeparatedSystem(config, KeyValueStore, seed=53)
        for i in range(8):
            system.invoke(put(f"k{i}", i))
        system.run(200.0)
        digests = {node.checkpoints.stable.seq: set() for node in system.execution_nodes}
        for node in system.execution_nodes:
            digests[node.checkpoints.stable.seq].add(node.checkpoints.stable.digest)
        for seq, values in digests.items():
            assert len(values) == 1

    def test_agreement_log_garbage_collection(self):
        config = make_config(checkpoint_interval=4)
        system = SeparatedSystem(config, CounterService, seed=54)
        for _ in range(12):
            system.invoke(increment(1))
        system.run(200.0)
        for replica in system.agreement_replicas:
            assert replica.log.stable_seq >= 4
            assert replica.log.size() <= 2 * config.checkpoint_interval + 4


class TestStateTransfer:
    def test_crashed_and_recovered_node_catches_up(self):
        """A node that misses a stretch of requests recovers from a peer's
        stable checkpoint (or fetches the missing batches) and converges."""
        config = make_config(checkpoint_interval=4)
        system = SeparatedSystem(config, CounterService, seed=55)
        system.invoke(increment(1))
        # Take one execution replica down for a while.
        lagging = system.execution_nodes[0]
        lagging.crash()
        for _ in range(10):
            system.invoke(increment(1))
        lagging.recover()
        # More traffic plus time for fetch/state-transfer to complete.
        for _ in range(6):
            system.invoke(increment(1))
        system.run_until(
            lambda: lagging.max_executed >= system.execution_nodes[1].max_executed - 1,
            timeout_ms=30_000.0, description="lagging replica catches up")
        assert lagging.app.checkpoint() == system.execution_nodes[1].app.checkpoint()

    def test_recovered_node_participates_in_new_requests(self):
        config = make_config(checkpoint_interval=4)
        system = SeparatedSystem(config, CounterService, seed=56)
        lagging = system.execution_nodes[2]
        lagging.crash()
        for _ in range(8):
            system.invoke(increment(1))
        lagging.recover()
        for _ in range(8):
            system.invoke(increment(1))
        final = system.invoke(read_counter())
        assert final.result.value == 16
        system.run(200.0)
        assert lagging.max_executed > 8

    def test_exactly_once_across_recovery(self):
        """Re-executing after recovery must not double-apply operations."""
        config = make_config(checkpoint_interval=4)
        system = SeparatedSystem(config, CounterService, seed=57)
        lagging = system.execution_nodes[1]
        lagging.crash()
        for _ in range(6):
            system.invoke(increment(1))
        lagging.recover()
        system.invoke(increment(1))
        final = system.invoke(read_counter())
        assert final.result.value == 7


class TestLateCommitsAtACheckpoint:
    def test_a_primary_delivers_what_it_holds_instead_of_syncing_past_it(self):
        """The checkpoint votes for 8 overtake the COMMITs A0 needs for 7:
        A0 holds every batch up to the cut, so it waits for the late
        COMMITs and sends 7's batch downstream itself -- well inside the
        retransmission timeout the backups would otherwise wait out --
        instead of adopting the checkpoint by state transfer and skipping
        the slots it is the first to send."""
        timers = dataclasses.replace(make_config().timers,
                                     agreement_retransmit_ms=1_000.0)
        system = SeparatedSystem(make_config(checkpoint_interval=8, timers=timers),
                                 CounterService, seed=54)
        primary = system.agreement_replicas[0]
        held, votes, sent_at = [], [], {}

        def tap(source, destination, message):
            if isinstance(message, OrderedBatch) and source == primary.node_id:
                sent_at.setdefault(message.seq, system.now)
            if destination != primary.node_id or held is None:
                return None
            if isinstance(message, CommitMsg) and message.seq == 7:
                held.append((source, message))
                return DROP
            if isinstance(message, AgreementCheckpoint) and message.seq == 8:
                votes.append(source)
                if len(votes) == 2 * system.config.f + 1:
                    system.scheduler.call_after(1.0, release)
            return None

        def release():
            nonlocal held
            late, held = held, None
            for source, message in late:
                system.network.send(source, primary.node_id, message)

        system.network.add_tap(tap)
        for _ in range(6):
            system.invoke(increment(1))
        ordered_at = system.now
        system.submit(increment(1), client_index=0)   # slot 7
        system.submit(increment(1), client_index=1)   # slot 8
        system.run_until(lambda: 7 in sent_at, timeout_ms=500.0,
                         description="A0 sends slot 7's batch")
        assert held is None and len(votes) == 3
        assert primary.checkpoint_syncs == 0
        assert sent_at[7] - ordered_at < 20.0
        system.run(50.0)
        assert primary.log.stable_seq == 8
        assert [node.max_executed for node in system.execution_nodes] == [8, 8, 8]
