"""Cross-shard operation tests.

The safety-critical properties of a consistent-cut operation:

* a multi-shard snapshot read returns values from one deterministic prefix
  of the agreed order -- the marker's sequence number -- no matter how many
  shards it spans (including all of them);
* a write transaction commits atomically (every touched shard applies its
  slice) or aborts atomically (no shard applies anything), with the
  read-set validated against certified peer-shard observations so every
  correct replica reaches the same decision;
* a marker racing a rebalance cut at the same position aborts
  deterministically -- every replica reports the stale pinned epoch
  identically -- and the client transparently retries on the new epoch;
* a Byzantine collator equivocating on the assembled reply is detected:
  the client trusts only the per-shard ``g + 1`` sub-certificates and
  re-derives the result from them;
* a collator that stops answering is not fatal: the client's
  retransmission makes every surviving touched cluster re-serve the
  assembled reply (fallover to the next-lowest shard).
"""

import pytest

from conftest import make_config
from repro.apps.kvstore import (
    KeyValueStore,
    extract_keys,
    get,
    multi_get,
    put,
    transaction,
)
from repro.config import (
    CrossShardConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.errors import ConfigurationError
from repro.net.network import DROP
from repro.sharding import (
    CrossShardReply,
    CrossShardVote,
    MapChange,
    ShardedSystem,
    cross_shard_request_of,
)
from repro.statemachine.nondet import NonDetInput
from repro.workloads import (
    audit_snapshot_consistency,
    equal_range_boundaries,
    mixed_cross_shard_operations,
    run_crossshard_window,
    seed_operations,
)
from repro.workloads.skew import skew_key

KEY_SPACE = 64


def make_system(num_shards=2, num_clients=4, seed=33, cross_shard=None,
                **overrides):
    config = make_config(
        num_clients=num_clients,
        sharding=ShardingConfig(
            num_shards=num_shards, strategy="range",
            range_boundaries=equal_range_boundaries(KEY_SPACE, num_shards)),
        per_shard_windows=True,
        cross_shard=cross_shard or CrossShardConfig(enabled=True),
        **overrides)
    return ShardedSystem(config, KeyValueStore, seed=seed)


def key_on(system, shard):
    """A key owned by ``shard`` at epoch 0."""
    num_shards = system.num_shards
    return skew_key((KEY_SPACE * (2 * shard + 1)) // (2 * num_shards))


def cluster_value(system, shard, key):
    """The value of ``key`` on every correct replica of ``shard`` (must agree)."""
    values = {node.app.snapshot().get(key)
              for node in system.execution_cluster(shard) if not node.crashed}
    assert len(values) == 1, f"replicas of shard {shard} diverge on {key!r}"
    return values.pop()


# ---------------------------------------------------------------------- #
# Application-level multi-key operations (unsharded semantics).
# ---------------------------------------------------------------------- #


class TestKvstoreMultiKey:
    def test_multi_get_and_txn_execute_locally(self):
        app = KeyValueStore()
        nondet = NonDetInput(timestamp_ms=0.0, random_bits=b"")
        app.execute(put("a", 1), nondet)
        app.execute(put("b", 2), nondet)
        read = app.execute(multi_get(["a", "b", "missing"]), nondet)
        assert read.value == {"values": {"a": 1, "b": 2, "missing": None}}
        committed = app.execute(transaction(reads={"a": 1}, writes={"b": 9}),
                                nondet)
        assert committed.value["committed"] is True
        assert app.snapshot()["b"] == 9
        aborted = app.execute(transaction(reads={"a": 999}, writes={"b": 0}),
                              nondet)
        assert aborted.value["committed"] is False
        assert aborted.value["observed"] == {"a": 1}
        assert app.snapshot()["b"] == 9

    def test_extract_keys_classifies_multi_key_kinds(self):
        assert extract_keys(multi_get(["b", "a"])) == ("a", "b")
        assert extract_keys(transaction(reads={"r": 1}, writes={"w": 2})) == \
            ("r", "w")
        assert extract_keys(put("k", 1)) is None
        assert extract_keys(get("k")) is None

    def test_cross_shard_request_of_requires_single_certificate(self):
        assert cross_shard_request_of(()) is None

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CrossShardConfig(max_keys=1).validate()
        with pytest.raises(ConfigurationError):
            CrossShardConfig(retry_limit=-1).validate()


# ---------------------------------------------------------------------- #
# Consistent-cut reads and transactions.
# ---------------------------------------------------------------------- #


class TestConsistentCut:
    def test_snapshot_read_across_two_shards(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        record = system.invoke(multi_get([left, right]))
        assert record.result.value == {"values": {left: "L", right: "R"}}
        assert system.message_queues[0].cross_shard_markers == 1

    def test_snapshot_read_spanning_all_shards(self):
        system = make_system(num_shards=4)
        keys = [key_on(system, shard) for shard in range(4)]
        for index, key in enumerate(keys):
            system.invoke(put(key, index))
        record = system.invoke(multi_get(keys))
        assert record.result.value == {
            "values": {key: index for index, key in enumerate(keys)}}
        # every cluster executed the marker exactly once
        for shard in range(4):
            executed = {node.cross_shard_executed
                        for node in system.execution_cluster(shard)}
            assert executed == {1}

    def test_transaction_commits_atomically_across_shards(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "base"))
        record = system.invoke(transaction(reads={left: "base"},
                                           writes={left: "L2", right: "R2"}))
        assert record.result.value["committed"] is True
        assert cluster_value(system, 0, left) == "L2"
        assert cluster_value(system, 1, right) == "R2"

    def test_transaction_aborts_atomically_on_read_conflict(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "actual"))
        record = system.invoke(transaction(reads={left: "expected-wrong"},
                                           writes={left: "NO", right: "NO"}))
        assert record.result.value["committed"] is False
        assert record.result.value["observed"] == {left: "actual"}
        assert cluster_value(system, 0, left) == "actual"
        assert cluster_value(system, 1, right) is None
        aborts = {node.cross_shard_aborts
                  for cluster in system.shard_execution_nodes
                  for node in cluster}
        assert aborts == {1}

    def test_write_only_transaction_needs_no_vote_round(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        record = system.invoke(transaction(reads={}, writes={left: 1, right: 2}))
        assert record.result.value["committed"] is True
        assert cluster_value(system, 0, left) == 1
        assert cluster_value(system, 1, right) == 2
        fetches = sum(node.vote_fetches
                      for cluster in system.shard_execution_nodes
                      for node in cluster)
        assert fetches == 0

    def test_single_shard_multi_get_routes_as_normal_request(self):
        system = make_system()
        key_a, key_b = skew_key(1), skew_key(2)  # both on shard 0
        system.invoke(put(key_a, "a"))
        system.invoke(put(key_b, "b"))
        record = system.invoke(multi_get([key_a, key_b]))
        assert record.result.value == {"values": {key_a: "a", key_b: "b"}}
        assert system.message_queues[0].cross_shard_markers == 0

    def test_disabled_cross_shard_fails_multi_shard_submission_locally(self):
        system = make_system(cross_shard=CrossShardConfig(enabled=False))
        record = system.invoke(multi_get([key_on(system, 0), key_on(system, 1)]))
        assert record.result.error is not None
        assert "disabled" in record.result.error
        # single-shard traffic is unaffected
        key = key_on(system, 0)
        system.invoke(put(key, "still-works"))
        assert system.invoke(get(key)).result.value["value"] == "still-works"

    def test_max_keys_bound_fails_locally_even_when_queued(self):
        system = make_system(cross_shard=CrossShardConfig(enabled=True,
                                                          max_keys=2))
        client = system.clients[0]
        too_many = [key_on(system, 0), key_on(system, 1), skew_key(1)]
        # Queue the oversized operation behind an outstanding one: the
        # failure happens inside the reply path, which must not raise.
        client.submit(put(key_on(system, 0), "x"))
        client.submit(multi_get(too_many))
        system.run_until(lambda: len(client.completed) == 2, 10_000.0,
                         description="queued oversized op fails locally")
        assert client.completed[-1].result.error is not None
        assert "max_keys" in client.completed[-1].result.error


# ---------------------------------------------------------------------- #
# A marker racing a rebalance cut.
# ---------------------------------------------------------------------- #


class TestEpochRace:
    def test_map_change_under_the_marker_aborts_and_retries(self):
        system = make_system()
        left, right = skew_key(4), skew_key(40)  # shards 0 and 1 at epoch 0
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        # A cut the client has not heard about (it moves no keys -- the
        # upper half keeps its owner -- so the operation stays cross-shard
        # at epoch 1 and the stale pin is the only problem).
        primary = system.agreement_replicas[0]
        assert primary.proposer.propose_map_change(
            MapChange(kind="split", parent_epoch=0, key=skew_key(56), owner=1))
        system.run(300.0)
        assert system.partition_epoch() == 1
        client = system.clients[0]
        assert client.epoch == 0
        # The marker is released at epoch 1 while pinned to epoch 0: every
        # touched replica reports the same deterministic abort, the client
        # adopts the certified newer epoch and transparently retries.
        record = system.invoke(multi_get([left, right]))
        assert record.result.value == {"values": {left: "L", right: "R"}}
        assert client.cross_shard_retries == 1
        assert client.epoch == 1
        epoch_aborts = sum(node.cross_shard_epoch_aborts
                           for cluster in system.shard_execution_nodes
                           for node in cluster)
        assert epoch_aborts > 0

    def test_retry_preserves_timestamp_monotonicity_for_queued_requests(self):
        system = make_system()
        left, right = skew_key(4), skew_key(40)
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        primary = system.agreement_replicas[0]
        assert primary.proposer.propose_map_change(
            MapChange(kind="split", parent_epoch=0, key=skew_key(56), owner=1))
        system.run(300.0)
        client = system.clients[0]
        done = len(client.completed)
        # A submission queued behind the epoch-aborting marker must still
        # execute after the transparent retry consumed a fresh timestamp.
        client.submit(multi_get([left, right]))
        client.submit(put(left, "after"))
        system.run_until(lambda: len(client.completed) == done + 2, 30_000.0,
                         description="queued request after an epoch retry")
        assert client.cross_shard_retries == 1
        assert client.completed[-2].result.value == {
            "values": {left: "L", right: "R"}}
        assert system.invoke(get(left)).result.value["value"] == "after"

    def test_retry_limit_bounds_transparent_retries(self):
        system = make_system(cross_shard=CrossShardConfig(enabled=True,
                                                          retry_limit=0))
        left, right = skew_key(4), skew_key(40)
        primary = system.agreement_replicas[0]
        assert primary.proposer.propose_map_change(
            MapChange(kind="split", parent_epoch=0, key=skew_key(56), owner=1))
        system.run(300.0)
        record = system.invoke(multi_get([left, right]))
        assert record.result.error is not None
        assert "retry limit" in record.result.error

    def test_merge_collapsing_the_operation_completes_normally(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)  # 16 and 48
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        # Move shard 0's upper half (including ``left``) to shard 1: at
        # epoch 1 both keys live on shard 1, so the marker-to-be routes as
        # an ordinary single-shard request and the client must accept the
        # ordinary certified reply (the cross expectation collapses).
        primary = system.agreement_replicas[0]
        assert primary.proposer.propose_map_change(
            MapChange(kind="split", parent_epoch=0, key=skew_key(8), owner=1))
        system.run(400.0)
        assert system.shard_of_key(left) == 1
        client = system.clients[0]
        assert client.epoch == 0
        record = system.invoke(multi_get([left, right]))
        assert record.result.value == {"values": {left: "L", right: "R"}}
        assert client.epoch == 1
        assert system.message_queues[0].cross_shard_markers == 0


# ---------------------------------------------------------------------- #
# Byzantine collator and collator fallover.
# ---------------------------------------------------------------------- #


def _patch_collator_sends(system, shard, rewrite):
    """Intercept ``shard``'s outgoing assembled replies with ``rewrite``
    (return None to drop the message)."""
    for node in system.execution_cluster(shard):
        original = node.send

        def patched(destination, message, _original=original):
            if isinstance(message, CrossShardReply):
                message = rewrite(message)
                if message is None:
                    return
            _original(destination, message)

        node.send = patched


class TestCollatorFaults:
    def test_equivocating_collator_is_detected_via_sub_certificates(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "truth"))
        system.invoke(put(right, "truth"))

        tampering = {"on": True}

        def tamper(message):
            if not tampering["on"]:
                return message
            forged = dict(message.assembled)
            forged[left] = "forged"
            return CrossShardReply(
                client=message.client, timestamp=message.timestamp,
                status=message.status, epoch=message.epoch,
                collator_shard=message.collator_shard,
                sub_certificates=message.sub_certificates,
                assembled=forged, sender=message.sender)

        _patch_collator_sends(system, 0, tamper)
        client = system.clients[0]
        done = len(client.completed)
        client.submit(multi_get([left, right]))
        system.run(60.0)
        # Before the first retransmission, only tampered replies arrived:
        # every one was rejected on sub-certificate evidence.
        assert client.collator_equivocations > 0
        assert len(client.completed) == done
        # The equivocating collator cannot block the operation either: the
        # client's retransmission makes the honest non-collator cluster
        # re-serve the genuine assembled reply (tampering stays on).
        system.run_until(lambda: len(client.completed) == done + 1, 10_000.0,
                         description="recovery from equivocating collator")
        assert tampering["on"]
        assert client.completed[-1].result.value == {
            "values": {left: "truth", right: "truth"}}
        assert client.collator_equivocations > 0

    def test_crashed_collator_falls_over_to_next_lowest_shard(self):
        system = make_system(num_shards=3)
        mid, high = key_on(system, 1), key_on(system, 2)
        system.invoke(put(mid, "M"))
        system.invoke(put(high, "H"))
        # The marker touches shards {1, 2}: shard 1 is the collator.  Its
        # replicas assemble but never deliver (a collator crashing after
        # the sub-reply broadcast); the client's retransmission makes the
        # duplicate marker re-serve the assembled reply from shard 2.
        _patch_collator_sends(system, 1, lambda message: None)
        client = system.clients[0]
        done = len(client.completed)
        client.submit(multi_get([mid, high]))
        system.run_until(lambda: len(client.completed) == done + 1, 20_000.0,
                         description="collator fallover")
        assert client.completed[-1].result.value == {
            "values": {mid: "M", high: "H"}}
        assert client.retransmissions > 0
        fallover_senders = sum(node.cross_shard_replies_sent
                               for node in system.execution_cluster(2))
        assert fallover_senders > 0


class TestByzantineFragments:
    def test_forged_high_timestamp_fragment_cannot_wedge_collation(self):
        from repro.config import AuthenticationScheme
        from repro.crypto.certificate import Certificate
        from repro.sharding import CrossShardSubReply, SubReplyBody

        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        # A Byzantine replica floods every node with a validly-MACed
        # fragment carrying an absurd timestamp; collation state is keyed
        # per (client, timestamp), so the forgery occupies one bounded
        # tentative slot and genuine operations assemble untouched.
        byz = system.execution_node(1, 0)
        everyone = [node for ids in system.shard_execution_ids for node in ids]
        body = SubReplyBody(client=system.clients[0].node_id,
                            timestamp=10 ** 9, shard=1, epoch=0, view=0,
                            op_seq=999, status="ok", values={})
        certificate = Certificate(payload=body,
                                  scheme=AuthenticationScheme.MAC)
        certificate.add(byz.crypto.mac_authenticator(body, everyone))
        forged = CrossShardSubReply(body=body, certificate=certificate,
                                    sender=byz.node_id)
        byz.multicast([node for node in everyone if node != byz.node_id],
                      forged)
        system.run(50.0)
        record = system.invoke(multi_get([left, right]))
        assert record.result.value == {"values": {left: "L", right: "R"}}


# ---------------------------------------------------------------------- #
# Exactly-once across client retransmissions.
# ---------------------------------------------------------------------- #


class TestExactlyOnce:
    def test_duplicate_markers_never_reexecute(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, 0))
        # A committed increment-style transaction; then force duplicate
        # markers by replaying the client's own retransmission path.
        record = system.invoke(transaction(reads={left: 0},
                                           writes={left: 1, right: 1}))
        assert record.result.value["committed"] is True
        executed_before = {node.node_id: node.cross_shard_executed
                           for cluster in system.shard_execution_nodes
                           for node in cluster}
        system.run(500.0)
        executed_after = {node.node_id: node.cross_shard_executed
                          for cluster in system.shard_execution_nodes
                          for node in cluster}
        assert executed_before == executed_after
        assert cluster_value(system, 0, left) == 1


class TestMarkerAcrossViewChange:
    def test_in_flight_marker_survives_a_view_change(self):
        """A multi-shard snapshot read submitted just before the primary
        dies completes across the view change with an untorn snapshot,
        executing exactly once per touched cluster (the NEW-VIEW
        re-proposal or the client's retransmission re-orders the marker;
        dedup keeps it single-shot)."""
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        client = system.clients[0]
        done = len(client.completed)
        client.submit(multi_get([left, right]))
        system.run(0.2)            # the marker's ordering is in flight
        system.crash_agreement(0)  # depose the primary mid-agreement
        system.run_until(lambda: len(client.completed) > done, 30_000.0,
                         description="marker completes across the view change")
        record = client.completed[-1]
        assert record.result.value == {"values": {left: "L", right: "R"}}
        live = [replica for replica in system.agreement_replicas
                if not replica.crashed]
        assert max(replica.view for replica in live) >= 1
        system.run(500.0)  # drain retransmitted duplicates
        for shard in (0, 1):
            executed = {node.cross_shard_executed
                        for node in system.execution_cluster(shard)}
            assert executed == {1}


# ---------------------------------------------------------------------- #
# The mixed workload and its snapshot audit.
# ---------------------------------------------------------------------- #


class TestVoteFetchTimer:
    def vote_fetches(self, system):
        return sum(node.vote_fetches
                   for cluster in system.shard_execution_nodes
                   for node in cluster)

    def test_fault_free_vote_rounds_never_fetch(self):
        """Every vote round of a fault-free run resolves from the votes
        that were sent; a fetch timer armed for one transaction must not
        outlive it and fire into a later one."""
        system = make_system(num_shards=4, num_clients=8)
        for operation in seed_operations(KEY_SPACE, 4):
            system.invoke(operation)
        operations = mixed_cross_shard_operations(
            600, key_space=KEY_SPACE, num_shards=4, multi_fraction=0.3,
            seed=11)
        run_crossshard_window(system, operations=operations,
                              duration_ms=1_500.0, warmup_ms=100.0)
        system.run(2_000.0)
        voted = sum(node.cross_shard_commits + node.cross_shard_aborts
                    for node in system.execution_cluster(0))
        assert voted > 20
        assert self.vote_fetches(system) == 0

    def test_dropped_votes_are_recovered_through_the_fetch(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "base"))
        start = system.scheduler.now

        def drop_first_votes(source, destination, message):
            if (isinstance(message, CrossShardVote)
                    and system.scheduler.now < start + 15.0):
                return DROP
            return None

        system.network.add_tap(drop_first_votes)
        record = system.invoke(transaction(reads={left: "base"},
                                           writes={left: "L2", right: "R2"}))
        assert record.result.value["committed"] is True
        assert cluster_value(system, 0, left) == "L2"
        assert cluster_value(system, 1, right) == "R2"
        assert self.vote_fetches(system) > 0
        # Recovered, and quiet again: no timer keeps firing afterwards.
        settled = self.vote_fetches(system)
        system.run(500.0)
        assert self.vote_fetches(system) == settled


class TestWorkloadAudit:
    def test_mixed_run_is_snapshot_consistent(self):
        system = make_system(num_shards=4, num_clients=8)
        for operation in seed_operations(KEY_SPACE, 4):
            system.invoke(operation)
        operations = mixed_cross_shard_operations(
            400, key_space=KEY_SPACE, num_shards=4, multi_fraction=0.2,
            seed=5)
        result = run_crossshard_window(system, operations=operations,
                                       duration_ms=800.0, warmup_ms=100.0)
        system.run(5_000.0)
        audit = audit_snapshot_consistency(system.clients)
        assert result.completed > 0
        assert result.multi_completed > 0
        assert audit.audited_reads > 0
        assert audit.committed_txns > 0
        assert audit.consistent

    def test_workload_is_deterministic(self):
        ops_a = mixed_cross_shard_operations(100, num_shards=4, seed=9)
        ops_b = mixed_cross_shard_operations(100, num_shards=4, seed=9)
        assert [op.to_wire() for op in ops_a] == [op.to_wire() for op in ops_b]
