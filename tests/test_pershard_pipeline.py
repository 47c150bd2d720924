"""Skew-aware concurrency tests (per-shard pipeline windows, out-of-order
shard delivery, per-shard bundle controllers, RTT-derived gather window).

The safety-critical properties:

* a stalled shard must not stall admission for other shards (the tentpole),
  while the global-watermark configuration retains the old conservative
  behaviour;
* shard-local sequence numbers stay deterministic across replicas no matter
  how far out of commit order batches are staged;
* misroute rejection at the execution replicas is unchanged by the
  per-shard frontier;
* a hot shard's bundle controller grows without inflating cold shards'
  bundle sizes (the shared low-load controller stays at the minimum).
"""

import pytest

from conftest import make_config
from repro.agreement.batching import AdaptiveBundleController, Batcher
from repro.agreement.proposer import GATHER_MS
from repro.apps.kvstore import KeyValueStore, extract_key, put
from repro.config import BatchingConfig, ShardingConfig, SystemConfig
from repro.errors import LivenessTimeoutError
from repro.messages.agreement import OrderedBatch
from repro.sharding import ShardedBatch, ShardedSystem
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

    def test_staging_order_does_not_change_shard_seq_assignment(self):
        """Replaying the same committed batches into two routers -- one in
        global order, one scrambled -- must produce identical per-shard
        frontiers: the assignment is a pure function of the committed
        prefix, which is what keeps it consistent across replicas whose
        commits complete in different orders."""
        system = ShardedSystem(pershard_config(), KeyValueStore, seed=52)
        keys = keys_of_shard(system, 0, 2) + keys_of_shard(system, 1, 2)
        for i, key in enumerate([keys[0], keys[2], keys[1], keys[3]]):
            system.invoke(put(key, f"v{i}"), client_index=i % 2)
        batches = batches_by_global_seq(system)
        assert len(batches) >= 4

        in_order = self._fresh_queue(system)
        scrambled = self._fresh_queue(system)
        seqs = sorted(batches)
        for seq in seqs:
            batch = batches[seq]
            in_order.stage_batch(seq=batch.seq, view=batch.view,
                                 request_certificates=batch.request_certificates,
                                 agreement_certificate=batch.agreement_certificate,
                                 nondet=batch.nondet)
        for seq in reversed(seqs):
            batch = batches[seq]
            scrambled.stage_batch(seq=batch.seq, view=batch.view,
                                  request_certificates=batch.request_certificates,
                                  agreement_certificate=batch.agreement_certificate,
                                  nondet=batch.nondet)
        assert scrambled._next_shard_seq == in_order._next_shard_seq
        assert set(scrambled.shard_pending) == set(in_order.shard_pending)
        for part, pending in in_order.shard_pending.items():
            assert (scrambled.shard_pending[part].batch.batch.seq
                    == pending.batch.batch.seq)

    def test_gapped_batch_is_buffered_until_the_prefix_commits(self):
        """A batch staged above a gap must not be released: the count of
        earlier same-shard batches -- hence its shard_seq -- is unknown
        until every earlier batch's content is fixed locally."""
        system = ShardedSystem(pershard_config(), KeyValueStore, seed=53)
        keys = keys_of_shard(system, 0, 1) + keys_of_shard(system, 1, 1)
        for i, key in enumerate(keys):
            system.invoke(put(key, f"v{i}"), client_index=i % 2)
        batches = batches_by_global_seq(system)
        first, second = sorted(batches)[:2]

        queue = self._fresh_queue(system)
        late = batches[second]
        queue.stage_batch(seq=late.seq, view=late.view,
                          request_certificates=late.request_certificates,
                          agreement_certificate=late.agreement_certificate,
                          nondet=late.nondet)
        assert queue._released_seq == 0
        assert not queue.shard_pending
        early = batches[first]
        queue.stage_batch(seq=early.seq, view=early.view,
                          request_certificates=early.request_certificates,
                          agreement_certificate=early.agreement_certificate,
                          nondet=early.nondet)
        assert queue._released_seq == second
        assert len(queue.shard_pending) == 2

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
        local = node.recent_batches[node.max_executed]
        batch = OrderedBatch(seq=local.global_seq, view=local.view,
                             request_certificates=local.full_request_certificates,
                             agreement_certificate=local.agreement_certificate,
                             nondet=local.nondet)
        victim = system.execution_node(1, 0)
        executed_before = victim.requests_executed
        # Shard 0's envelope delivered to shard 1: rejected outright.
        victim.handle_sharded_batch(system.agreement_ids[0],
                                    ShardedBatch(shard=0, shard_seq=local.seq,
                                                 batch=batch))
        assert victim.misroutes == 1
        # Relabelled for shard 1: the victim re-derives ownership and finds
        # nothing it owns, even with every agreement node "vouching".
        forged = ShardedBatch(shard=1, shard_seq=1, batch=batch)
        for agreement_id in system.agreement_ids:
            victim.handle_sharded_batch(agreement_id, forged)
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
        """A Byzantine agreement node replaying a genuine batch at an
        arbitrarily distant slot must not grow the vote/pending tables."""
        system = ShardedSystem(pershard_config(), KeyValueStore, seed=57)
        key = keys_of_shard(system, 0, 1)[0]
        system.invoke(put(key, "v"))
        node = system.execution_node(0, 0)
        local = node.recent_batches[node.max_executed]
        batch = OrderedBatch(seq=local.global_seq, view=local.view,
                             request_certificates=local.full_request_certificates,
                             agreement_certificate=local.agreement_certificate,
                             nondet=local.nondet)
        far = node.max_executed + 10_000
        flood = ShardedBatch(shard=0, shard_seq=far, batch=batch)
        for agreement_id in system.agreement_ids:
            node.handle_sharded_batch(agreement_id, flood)
        assert far not in node._slots
        assert far not in node.pending
        # A slot just inside the window is still buffered normally.
        near = ShardedBatch(shard=0, shard_seq=node.max_executed + 2,
                            batch=batch)
        for agreement_id in system.agreement_ids[:2]:
            node.handle_sharded_batch(agreement_id, near)
        assert node.max_executed + 2 in node.pending
