"""Skew-aware concurrency tests (per-shard pipeline windows, out-of-order
shard delivery, per-shard bundle controllers, RTT-derived gather window).

The safety-critical properties:

* a stalled shard must not stall admission for other shards (the tentpole),
  while the global-watermark configuration retains the old conservative
  behaviour;
* shard-local sequence numbers stay deterministic across replicas: a
  batch's route is derived only above the routed (committed) prefix;
* misroute rejection at the execution replicas is unchanged by the
  per-shard frontier;
* a hot shard's bundle controller grows without inflating cold shards'
  bundle sizes (the shared low-load controller stays at the minimum).
"""

import dataclasses

import pytest

from conftest import make_config
from repro.agreement.batching import AdaptiveBundleController, Batcher
from repro.agreement.proposer import GATHER_MS
from repro.apps.kvstore import KeyValueStore, extract_key, put
from repro.config import BatchingConfig, ShardingConfig, SystemConfig
from repro.errors import LivenessTimeoutError
from repro.messages.agreement import AgreementCertBody, OrderedBatch
from repro.sharding import ShardedSystem
from repro.sharding.queue import ShardRouterQueue


def keys_of_shard(system, shard, count, universe=200):
    keys = [f"key{i}" for i in range(universe)
            if system.shard_of_key(f"key{i}") == shard]
    assert len(keys) >= count, "probe universe too small"
    return keys[:count]


def pershard_config(num_shards=2, depth=4, **overrides):
    defaults = dict(
        pipeline_depth=depth,
        sharding=ShardingConfig(num_shards=num_shards),
        per_shard_windows=True,
    )
    defaults.update(overrides)
    return make_config(**defaults)


def global_config(num_shards=2, depth=4, **overrides):
    defaults = dict(
        pipeline_depth=depth,
        sharding=ShardingConfig(num_shards=num_shards),
    )
    defaults.update(overrides)
    return make_config(**defaults)


def batches_by_global_seq(system):
    """Reconstruct each OrderedBatch from the execution replicas' logs."""
    batches = {}
    for shard in range(system.num_shards):
        node = system.execution_node(shard, 0)
        for local in node.recent_batches.values():
            batches[local.global_seq] = OrderedBatch(
                seq=local.global_seq, view=local.view,
                request_certificates=local.full_request_certificates,
                agreement_certificate=local.agreement_certificate,
                nondet=local.nondet)
    return batches


def unrouted(batch):
    """The certificate body ``batch``'s replica routed, before routing."""
    body = batch.cert_body
    return AgreementCertBody(view=body.view, seq=body.seq,
                             batch_digest=body.batch_digest, nondet=body.nondet)


def relabelled(batch, **fields):
    """``batch`` under a certificate whose routed body says otherwise."""
    certificate = batch.agreement_certificate
    return dataclasses.replace(batch, agreement_certificate=certificate.with_payload(
        dataclasses.replace(certificate.payload, **fields)))


class TestPerShardWindows:
    def test_sharded_constructor_defaults_to_per_shard_windows(self):
        assert SystemConfig.sharded(4, pipeline_depth=8).per_shard_windows
        assert SystemConfig.multilog_sharded(2, 4).per_shard_windows
        explicit = SystemConfig.sharded(4, per_shard_windows=False)
        assert not explicit.per_shard_windows
        # The paper's single global watermark everywhere else.
        assert not make_config().per_shard_windows


class TestStalledShard:
    """The tentpole: one stalled shard must not throttle the others."""

    DEPTH = 4

    def _run(self, config, num_cold_ops):
        system = ShardedSystem(config, KeyValueStore, seed=51)
        hot_key = keys_of_shard(system, 0, 1)[0]
        cold_keys = keys_of_shard(system, 1, num_cold_ops)
        # Stall shard 0: with 2 of its 2g + 1 = 3 replicas crashed it can
        # never assemble a g + 1 reply certificate, so its batches stay
        # unanswered forever (agreement itself is unaffected).
        system.crash_execution(0, 1)
        system.crash_execution(0, 2)
        system.submit(put(hot_key, "stuck"), client_index=0)
        completed = 0
        try:
            for key in cold_keys:
                system.invoke(put(key, "v"), client_index=1, timeout_ms=1_500.0)
                completed += 1
        except LivenessTimeoutError:
            pass
        return completed

    def test_per_shard_windows_keep_cold_shard_flowing(self):
        num_ops = 3 * self.DEPTH
        completed = self._run(pershard_config(depth=self.DEPTH), num_ops)
        assert completed == num_ops

    def test_global_watermark_stalls_behind_the_hot_shard(self):
        """The baseline really has the pathology the tentpole removes: once
        the stalled shard-0 batch pins the contiguous answered frontier, the
        global window fills and shard-1 admission stops."""
        num_ops = 3 * self.DEPTH
        completed = self._run(global_config(depth=self.DEPTH), num_ops)
        assert completed < num_ops


class TestOutOfOrderDelivery:
    def _fresh_queue(self, system):
        return ShardRouterQueue(
            owner=system.agreement_replicas[0], config=system.config,
            shard_execution_ids=system.shard_execution_ids,
            client_ids=system.client_ids, router=system.router,
            log=0, log_agreement_ids=system.log_agreement_ids,
            log_registry=system.log_registry,
            shard_threshold_groups=system.shard_threshold_groups)

    def test_a_batch_gets_its_route_only_above_the_routed_prefix(self):
        """A batch's slots count the earlier same-shard batches, so its
        route is unknown until every earlier batch is routed (its COMMIT
        built in this view, or delivered): the queue answers no route above
        a gap, and the replica's COMMIT waits for it -- but not for the
        batch below to commit."""
        system = ShardedSystem(pershard_config(), KeyValueStore, seed=53)
        first, second = self._two_batches(system)

        queue = self._fresh_queue(system)
        assert queue.route_body(unrouted(second), second.request_certificates) is None
        assert queue.route_body(unrouted(first), first.request_certificates) \
            == first.cert_body
        assert queue.route_body(unrouted(second), second.request_certificates) \
            == second.cert_body
        self._deliver(queue, first)
        self._deliver(queue, second)
        assert queue._released_seq == second.seq
        assert len(queue.shard_pending) == 2

    def test_a_view_change_drops_the_routes_derived_ahead(self):
        """Routes derived over batches prepared in a view are dropped when
        the replica enters the next one (a NEW-VIEW may put other batches
        there): the next route again waits for the batch below it."""
        system = ShardedSystem(pershard_config(), KeyValueStore, seed=53)
        first, second = self._two_batches(system)

        queue = self._fresh_queue(system)
        assert queue.route_body(unrouted(first), first.request_certificates) \
            == first.cert_body
        queue.on_view_entered(1)
        assert queue.route_body(unrouted(second), second.request_certificates) is None
        self._deliver(queue, first)
        assert queue.route_body(unrouted(second), second.request_certificates) \
            == second.cert_body

    @staticmethod
    def _two_batches(system):
        keys = keys_of_shard(system, 0, 1) + keys_of_shard(system, 1, 1)
        for i, key in enumerate(keys):
            system.invoke(put(key, f"v{i}"), client_index=i % 2)
        batches = batches_by_global_seq(system)
        return (batches[seq] for seq in sorted(batches)[:2])

    @staticmethod
    def _deliver(queue, batch):
        queue.execute_batch(seq=batch.seq, view=batch.view,
                            request_certificates=batch.request_certificates,
                            agreement_certificate=batch.agreement_certificate,
                            nondet=batch.nondet)

    def test_shard_seq_assignment_identical_across_replicas_end_to_end(self):
        system = ShardedSystem(pershard_config(), KeyValueStore, seed=54)
        keys = keys_of_shard(system, 0, 3) + keys_of_shard(system, 1, 3)
        for i, key in enumerate(keys):
            system.invoke(put(key, f"v{i}"), client_index=i % 2)
        system.run(200.0)
        frontiers = [list(queue._next_shard_seq)
                     for queue in system.message_queues]
        assert all(frontier == frontiers[0] for frontier in frontiers)
        assert all(queue._released_seq == system.message_queues[0]._released_seq
                   for queue in system.message_queues)
        # Every shard executed exactly the batches its frontier released.
        for shard in range(system.num_shards):
            node = system.execution_node(shard, 0)
            assert node.max_executed == frontiers[0][shard]

    def test_misroute_rejection_unchanged_by_per_shard_frontier(self):
        system = ShardedSystem(pershard_config(), KeyValueStore, seed=55)
        key = keys_of_shard(system, 0, 1)[0]
        system.invoke(put(key, "v"))
        node = system.execution_node(0, 0)
        batch = node.recent_batches[node.max_executed].to_ordered_batch()
        victim = system.execution_node(1, 0)
        executed_before = victim.requests_executed
        # Shard 0's batch delivered to shard 1: rejected outright.
        victim.on_message(system.agreement_ids[0], batch)
        assert victim.misroutes == 1
        # Relabelled for shard 1: the victim re-derives ownership and finds
        # nothing it owns, even from every agreement node.
        forged = relabelled(batch, route=((1, 1),))
        for agreement_id in system.agreement_ids:
            victim.on_message(agreement_id, forged)
        assert victim.misroutes >= 2
        assert victim.requests_executed == executed_before


def request_cert(timestamp):
    """A bare request certificate (the batcher never verifies)."""
    from repro.config import AuthenticationScheme
    from repro.crypto.certificate import Certificate
    from repro.messages.request import ClientRequest
    from repro.statemachine.interface import Operation
    from repro.util.ids import client_id

    return Certificate(
        payload=ClientRequest(operation=Operation(kind="null", args={}),
                              timestamp=timestamp, client=client_id(0)),
        scheme=AuthenticationScheme.MAC)


class TestPerShardBatching:
    def test_hot_shard_controller_grows_cold_stays_minimal(self):
        batching = BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=16)
        batcher = Batcher(
            controller=AdaptiveBundleController(batching),
            classifier=lambda cert: cert.payload.timestamp % 2,
            controller_factory=lambda: AdaptiveBundleController(batching))

        # Hot shard 1 (odd timestamps): repeated congested takes.
        for round_start in range(1, 40, 8):
            for timestamp in range(round_start, round_start + 8, 2):
                batcher.add(request_cert(timestamp))
            batcher.take(shard=1, in_flight=8)
        assert batcher.controller_for(1) is not batcher.controller
        assert batcher.bundle_size_for(1) > 1
        # Cold shard 0: single uncongested request, stays on the shared
        # low-load controller at the minimum bundle size.
        batcher.add(request_cert(2))
        taken = batcher.take(shard=0, in_flight=0)
        assert len(taken) == 1
        assert batcher.controller_for(0) is batcher.controller
        assert batcher.bundle_size_for(0) == 1
        assert batcher.bundle_size == 1  # shared controller never grew

    def test_batcher_fifo_across_shards_and_removal(self):
        from repro.util.ids import client_id

        batcher = Batcher(classifier=lambda cert: cert.payload.timestamp % 2)
        cert = request_cert
        for timestamp in (1, 2, 3, 4):
            assert batcher.add(cert(timestamp))
        assert not batcher.add(cert(1))  # duplicate suppressed
        assert len(batcher) == 4
        assert batcher.shards() == [1, 0]  # shard of the oldest head first
        pending = [c.payload.timestamp for c in batcher.pending_requests()]
        assert pending == [1, 2, 3, 4]  # arrival order across queues

        batcher.remove(client_id(0), 1)
        assert len(batcher) == 3
        assert batcher.shards() == [0, 1]
        taken = batcher.take()  # FIFO: shard 0's head (timestamp 2) is oldest
        assert [c.payload.timestamp for c in taken] == [2]
        assert batcher.contains(client_id(0), 3)
        assert not batcher.contains(client_id(0), 2)

    def test_gather_window_tracks_measured_round_trip(self):
        system = ShardedSystem(pershard_config(), KeyValueStore, seed=56)
        key = keys_of_shard(system, 0, 1)[0]
        for i in range(4):
            system.invoke(put(key, f"v{i}"))
        proposer = system.agreement_replicas[0].proposer
        assert proposer.rtt_ewma is not None and proposer.rtt_ewma > 0
        window = proposer._gather_window()
        assert 0 < window <= system.config.timers.batch_timeout_ms
        # Without per-shard windows the static window is used.
        static = ShardedSystem(global_config(), KeyValueStore, seed=56)
        assert static.agreement_replicas[0].proposer._gather_window() == GATHER_MS


class TestAcceptanceWindow:
    def test_far_future_slots_are_ignored_not_buffered(self):
        """A Byzantine agreement node replaying a genuine batch relabelled
        to an arbitrarily distant slot must not grow the pending table: the
        relabelled route fails the certificate, even from every node."""
        system = ShardedSystem(pershard_config(), KeyValueStore, seed=57)
        key = keys_of_shard(system, 0, 1)[0]
        system.invoke(put(key, "v"))
        node = system.execution_node(0, 0)
        batch = node.recent_batches[node.max_executed].to_ordered_batch()
        far = node.max_executed + 10_000
        flood = relabelled(batch, route=((0, far),))
        for agreement_id in system.agreement_ids:
            node.on_message(agreement_id, flood)
        assert far not in node.pending
        assert not node.pending
