"""What the two agreement-side queues share, and what they do not.

:class:`~repro.core.message_queue.MessageQueue` and
:class:`~repro.sharding.queue.ShardRouterQueue` send, retransmit and
forward through one set of helpers on
:class:`~repro.core.message_queue.QueueCore`; the router queue is *not* a
message queue, so nothing of the unsharded wire protocol leaks into it.
It is the one queue of the sharded deployment for any number of logs:
nothing subclasses it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from conftest import CHEAP_CRYPTO, FAST_TIMERS, make_config
from repro.agreement.local import RetryOutcome
from repro.apps.kvstore import KeyValueStore, put, transaction
from repro.config import (AuthenticationScheme, CrossShardConfig,
                          RebalanceConfig, SystemConfig)
from repro.core import SeparatedSystem
from repro.core.message_queue import MessageQueue, QueueCore
from repro.messages.request import ClientRequest
from repro.multilog.queue import MultiLogRouterQueue
from repro.sharding import MapChange, ShardedSystem, map_change_of
from repro.sharding.queue import ShardRouterQueue
from repro.workloads import equal_range_boundaries
from repro.workloads.crossshard import audit_key
from repro.workloads.skew import skew_key

SRC = Path(repro.__file__).resolve().parent
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


def unsharded_members():
    """The members a live :class:`MessageQueue` has that
    :class:`QueueCore` does not (the primary-first rule,
    ``_owner_is_primary``, is shared: both queues send a batch's body from
    the primary only)."""
    queue = SeparatedSystem(make_config(), KeyValueStore,
                            seed=60).message_queues[0]
    core_class = type("Core", (QueueCore,), {
        name: lambda *args: None for name in QueueCore.__abstractmethods__})
    core = core_class(queue.owner, queue.config, queue.client_ids)
    return sorted(set(dir(queue)) - set(dir(core)))


class TestRouterQueueIsNotAMessageQueue:
    @pytest.mark.parametrize("num_logs", [1, 2])
    def test_router_queue_has_no_unsharded_members(self, num_logs):
        system = sharded_system(num_logs=num_logs, num_shards=2)
        queue = system.message_queues[0]
        assert type(queue) is ShardRouterQueue
        assert not isinstance(queue, MessageQueue)
        members = unsharded_members()
        assert {"pending_sends", "downstream",
                "_on_retransmit_timeout"} <= set(members)
        assert [name for name in members if hasattr(queue, name)] == []


def test_nothing_under_src_subclasses_the_router_queue():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base).split(".")[-1] in ("ShardRouterQueue",
                                                         "MultiLogRouterQueue")
                    for base in node.bases):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                 f"{node.name}")
    assert offenders == []
    assert MultiLogRouterQueue is ShardRouterQueue


# ---------------------------------------------------------------------- #
# One backoff policy: resend, count, double the timeout, re-arm.
# ---------------------------------------------------------------------- #


def _separated():
    system = SeparatedSystem(make_config(), KeyValueStore, seed=62)
    stalled = system.execution_nodes[:2]  # g + 1: no reply quorum
    return (system, put("k", "v"), lambda queue: queue.pending_sends, stalled)


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
        (_separated, MessageQueue), (_one_log, ShardRouterQueue),
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
        assert system.agreement_replicas[0].proposer.propose_map_change(MapChange(
            kind="split", parent_epoch=0, key=skew_key(8), owner=1))
        queue = system.message_queues[0]
        system.run_until(
            lambda: any(map_change_of(pending.batch.batch.request_certificates)
                        for pending in queue.shard_pending.values()),
            5_000.0, "the marker pending at shard 0")
        client = system.clients[0]
        request = ClientRequest(operation=put(skew_key(0), "v"), timestamp=1,
                                client=client.node_id)
        certificate = client.crypto.new_certificate(
            request, AuthenticationScheme.MAC, client.request_verifiers)
        assert queue.retry_hint(certificate) is RetryOutcome.NEED_ORDER
