"""The one agreement-side queue, and its one backoff policy.

:class:`~repro.sharding.queue.ShardRouterQueue` sends, retransmits and
forwards through the helpers on :class:`~repro.core.message_queue.QueueCore`.
It is the queue of every deployment -- the paper's one shard, any number of
shards and logs (``tests/test_structure.py`` pins that nothing subclasses
it).
"""

from __future__ import annotations

import pytest

from conftest import CHEAP_CRYPTO, FAST_TIMERS, make_config
from repro.agreement.local import RetryOutcome
from repro.apps.kvstore import KeyValueStore, put, transaction
from repro.config import (AuthenticationScheme, CrossShardConfig,
                          RebalanceConfig, SystemConfig)
from repro.core import SeparatedSystem
from repro.core.message_queue import QueueCore
from repro.messages.request import ClientRequest
from repro.net.network import DROP
from repro.sharding import MapChange, ShardedSystem
from repro.sharding.queue import ShardRouterQueue
from repro.workloads import equal_range_boundaries
from repro.workloads.crossshard import audit_key
from repro.workloads.skew import skew_key

KEY_SPACE = 64


def sharded_system(num_logs=1, num_shards=2, seed=61, **overrides):
    kwargs = dict(num_clients=2, pipeline_depth=16, checkpoint_interval=8,
                  bundle_size=1, timers=FAST_TIMERS, crypto=CHEAP_CRYPTO)
    kwargs.update(overrides)
    config = SystemConfig.multilog_sharded(
        num_logs=num_logs, num_shards=num_shards, strategy="range",
        range_boundaries=equal_range_boundaries(KEY_SPACE, num_shards),
        **kwargs)
    return ShardedSystem(config, KeyValueStore, seed=seed)


# ---------------------------------------------------------------------- #
# One backoff policy: resend, count, double the timeout, re-arm.
# ---------------------------------------------------------------------- #


def _separated():
    system = SeparatedSystem(make_config(), KeyValueStore, seed=62)
    stalled = system.execution_nodes[:2]  # g + 1: no reply quorum
    return (system, put("k", "v"), lambda queue: queue.shard_pending, stalled)


def _one_log():
    system = sharded_system()
    stalled = system.execution_cluster(0)[:2]
    return (system, put(skew_key(0), "v"), lambda queue: queue.shard_pending,
            stalled)


def _two_logs():
    system = sharded_system(num_logs=2, num_shards=4,
                            cross_shard=CrossShardConfig(enabled=True))
    # Log 1 cannot commit its leg of a cross-group marker without 2f + 1
    # replicas, so log 0's queues hold the marker and keep asking log 1
    # for its binding.
    stalled = system.log_replicas[1][:2]
    marker = transaction(reads={}, writes={
        audit_key(KEY_SPACE, 4, shard): "stamp" for shard in range(4)})
    return (system, marker,
            lambda queue: {key: hold.fetch
                           for key, hold in queue.cross_log._held.items()},
            stalled)


class TestRetransmitBackoff:
    @pytest.mark.parametrize("build, queue_class", [
        (_separated, ShardRouterQueue), (_one_log, ShardRouterQueue),
        (_two_logs, ShardRouterQueue)])
    def test_resend_doubles_the_timeout_until_the_answer_cancels_it(
            self, build, queue_class):
        system, operation, pendings, stalled = build()
        queue = system.message_queues[0]
        assert type(queue) is queue_class
        for node in stalled:
            node.crash()
        system.clients[0].submit(operation)
        system.run_until(lambda: bool(pendings(queue)), 5_000.0,
                         "a send awaiting its answer")
        pending = next(iter(pendings(queue).values()))
        base = system.config.timers.agreement_retransmit_ms
        assert pending.timeout_ms == base
        resent = queue.retransmissions
        system.run_until(lambda: pending.retransmissions == 2, 5_000.0,
                         "two timer-driven resends")
        # Resend count: the queue's counter moved with the send's own.
        assert queue.retransmissions >= resent + 2
        # Exponential backoff: doubled once per resend, and re-armed.
        assert pending.timeout_ms == 4 * base
        assert pending.timer.active
        for node in stalled:
            node.recover()
        system.run_until(lambda: not pendings(queue), 30_000.0,
                         "the answer arriving")
        # Cancelled on reply: the timer is dead and never fires again.
        assert not pending.timer.active
        settled = pending.retransmissions
        system.run(16 * base)
        assert pending.retransmissions == settled


# ---------------------------------------------------------------------- #
# Client retransmissions against pending config markers.
# ---------------------------------------------------------------------- #


class TestRetryHint:
    def test_pending_map_change_marker_is_not_mistaken_for_a_request(self):
        """A map-change marker is routed to every shard and stays pending
        like any batch; a client retransmission that scans the pending
        parts must step over it (it carries no client or timestamp)."""
        system = sharded_system(rebalance=RebalanceConfig(
            enabled=True, min_window_requests=10**9))
        for node in system.execution_cluster(0)[:2]:
            node.crash()  # shard 0 cannot answer: its marker part stays pending
        change = MapChange(kind="split", parent_epoch=0, key=skew_key(8),
                           owner=1)
        assert system.agreement_replicas[0].proposer.propose_map_change(change)
        queue = system.message_queues[0]
        system.run_until(
            lambda: any(certificate.payload == change
                        for pending in queue.shard_pending.values()
                        for certificate in pending.batch.request_certificates),
            5_000.0, "the marker pending at shard 0")
        client = system.clients[0]
        request = ClientRequest(operation=put(skew_key(0), "v"), timestamp=1,
                                client=client.node_id)
        certificate = client.crypto.new_certificate(
            request, AuthenticationScheme.MAC, client.request_verifiers)
        assert queue.retry_hint(certificate) is RetryOutcome.NEED_ORDER


# ---------------------------------------------------------------------- #
# The batch a slot sends downstream is built when it is first sent.
# ---------------------------------------------------------------------- #


class TestDownstreamBatch:
    @pytest.mark.parametrize("build", [
        lambda: SeparatedSystem(make_config(), KeyValueStore, seed=62),
        lambda: sharded_system()], ids=["separated", "one-log"])
    def test_built_by_whoever_sends_it_first(self, build, monkeypatch):
        """Fault-free only the primary's queue sends a slot downstream, so
        no backup builds the cut batch; when the primary's copy is lost,
        each backup builds it on its retransmission timer, and it is the
        batch the primary would have sent, under the agreement certificate
        that backup assembled."""
        system = build()
        built = []
        ordered_batch = QueueCore._ordered_batch

        def recording(queue, batch):
            if batch.ordered is None:
                built.append((queue.owner.node_id, batch.seq))
            return ordered_batch(queue, batch)

        monkeypatch.setattr(QueueCore, "_ordered_batch", recording)
        primary = system.agreement_ids[0]
        system.invoke(put("k", "v"))
        assert built == [(primary, 1)]
        sent = []

        def tap(source, destination, message):
            if type(message).__name__ == "OrderedBatch":
                sent.append((source, message))
                if source == primary:
                    return DROP
            return None

        system.network.add_tap(tap)
        system.invoke(put("k", "w"))
        backups = system.agreement_ids[1:]
        assert sorted(built[1:]) == sorted([(primary, 2)] + [
            (backup, 2) for backup in backups])
        by_source = {}
        for source, message in sent:
            by_source.setdefault(source, message)
            assert message is by_source[source]   # one object per slot
        assert set(backups) <= set(by_source)

        def agreed(batch):
            """All but the COMMIT authenticators each replica assembled."""
            return (batch.seq, batch.view, batch.nondet, batch.request_certificates,
                    batch.agreement_certificate.payload)

        assert all(agreed(by_source[backup]) == agreed(by_source[primary])
                   for backup in backups)
