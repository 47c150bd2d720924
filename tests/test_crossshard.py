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
* every touched replica answers the client directly: a replica sending a
  forged fragment is outvoted by its cluster's ``g + 1`` matching
  fragments, a lost fragment is re-served on the client's
  retransmission, and one crashed replica per touched cluster costs no
  retransmission at all;
* the client's fragment state is bounded: one live entry per sender, so a
  flooding Byzantine replica can neither grow it nor crowd out the honest
  fragments.
"""

from dataclasses import replace

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
    AuthenticationScheme,
    CrossShardConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.crypto.certificate import Certificate
from repro.errors import ConfigurationError
from repro.messages.agreement import AgreementCertBody, OrderedBatch
from repro.messages.request import ClientRequest
from repro.net.network import DROP
from repro.sharding import (
    CrossShardSubReply,
    CrossShardVote,
    MapChange,
    ShardedSystem,
    SubReplyBody,
)
from repro.sharding.router import CROSS_SHARD, ORDINARY
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

    def test_an_empty_batch_is_no_marker(self):
        route = make_system().router.route((), epoch=0)
        assert route.kind == ORDINARY and route.shards == []

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
            executed = {node.cross_shard.executed
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
        aborts = {node.cross_shard.aborts
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
        fetches = sum(node.cross_shard.fetches
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
        # a local failure completes the request like a reply does
        assert system.total_completed() == 2 == sum(
            len(each.completed) for each in system.clients)


class TestSmuggledBundle:
    """A cross-shard request inside a mixed bundle (only a faulty primary
    builds one) is owned by nobody; the same request alone is a marker."""

    def test_bundle_parts_are_ordinary_and_the_request_alone_is_a_marker(self):
        config = make_config(
            sharding=ShardingConfig(num_shards=2, strategy="range",
                                    range_boundaries=("key-5",)),
            cross_shard=CrossShardConfig(enabled=True))
        system = ShardedSystem(config, KeyValueStore, seed=33)
        system.invoke(put("key-0", 0))
        ordered = system.execution_node(0, 0).recent_batches[1]
        client = system.clients[0]

        def certificate(timestamp, operation):
            request = ClientRequest(operation=operation, timestamp=timestamp,
                                    client=client.node_id)
            return client.crypto.new_certificate(
                request, AuthenticationScheme.MAC, client.request_verifiers)

        low = certificate(10, put("key-1", 1))
        high = certificate(11, put("key-7", 7))
        spanning = certificate(12, multi_get(["key-2", "key-8"]))
        sent = {}

        def capture(source, destination, message):
            if isinstance(message, OrderedBatch):
                for shard, replicas in enumerate(system.shard_execution_ids):
                    if destination in replicas:
                        sent[shard] = message

        system.network.add_tap(capture)
        queue = system.message_queues[0]  # the primary's: it sends bodies

        def release(certificates):
            sent.clear()
            seq = queue._routed_seq + 1
            body = queue.route_body(AgreementCertBody(
                view=0, seq=seq, batch_digest=b"\x00" * 32,
                nondet=ordered.nondet), certificates)
            queue.execute_batch(seq=seq, view=0,
                                request_certificates=certificates,
                                agreement_certificate=Certificate(
                                    payload=body, scheme=AuthenticationScheme.MAC),
                                nondet=ordered.nondet)
            return {shard: system.execution_node(shard, 0)._localize(batch)[0]
                    for shard, batch in sent.items()}

        def downstream(certificate):
            # what a shard gets: the request certificate addressed to the
            # nodes downstream of agreement
            return certificate.addressed_to(queue.owner.cert_verifiers)

        bundle = (low, high, spanning)
        assert system.router.route(bundle, epoch=0).kind == ORDINARY
        local = release(bundle)
        assert sorted(local) == [0, 1] and queue.cross_shard_markers == 0
        assert local[0].request_certificates == (downstream(low),)
        assert local[1].request_certificates == (downstream(high),)

        route = system.router.route((spanning,), epoch=0)
        assert route.kind == CROSS_SHARD and route.shards == [0, 1]
        local = release((spanning,))
        assert sorted(local) == [0, 1] and queue.cross_shard_markers == 1
        assert all(each.request_certificates == (downstream(spanning),)
                   for each in local.values())


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
        epoch_aborts = sum(node.cross_shard.epoch_aborts
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
# The client assembles the touched clusters' fragments.
# ---------------------------------------------------------------------- #


def forged_fragment(node, client, timestamp, values, op_seq=0):
    """A fragment of ``node``'s shard that ``node`` validly MACs for
    ``client`` but whose body it made up."""
    body = SubReplyBody(client=client.node_id, timestamp=timestamp,
                        shard=node.shard, epoch=0, view=0, op_seq=op_seq,
                        status="ok", values=values)
    certificate = Certificate(payload=body, scheme=AuthenticationScheme.MAC)
    certificate.add(node.crypto.mac_authenticator(body, [client.node_id]))
    return CrossShardSubReply(body=body, certificate=certificate,
                              sender=node.node_id)


class TestFragmentAssembly:
    def test_one_multi_get_sends_one_fragment_per_touched_replica(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        client = system.clients[0]
        sent = []
        system.network.add_tap(
            lambda src, dst, message: sent.append((src, dst))
            if isinstance(message, CrossShardSubReply) else None)
        record = system.invoke(multi_get([left, right]))
        assert record.result.error is None
        touched = [node for shard in (0, 1)
                   for node in system.shard_execution_ids[shard]]
        assert len(sent) == 6 == len(touched)
        assert sorted(src for src, _ in sent) == sorted(touched)
        assert all(dst == client.node_id for _, dst in sent)

    def test_a_forged_fragment_is_outvoted(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "truth"))
        system.invoke(put(right, "truth"))
        liar = system.execution_node(0, 0)
        original = liar.send
        forged = []

        def lie(destination, message):
            if isinstance(message, CrossShardSubReply):
                body = message.body
                message = forged_fragment(liar, system.clients[0],
                                          body.timestamp, {left: "forged"},
                                          op_seq=body.op_seq)
                forged.append(message)
            original(destination, message)

        liar.send = lie
        record = system.invoke(multi_get([left, right]))
        assert forged
        assert record.result.value == {"values": {left: "truth",
                                                  right: "truth"}}
        assert all("forged" not in str(done.result.value)
                   for done in system.clients[0].completed)

    def test_lost_fragments_are_re_served_on_retransmission(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        client = system.clients[0]
        cluster = system.shard_execution_ids[0]
        # Every first send of shard 0's fragments is lost: the client
        # cannot certify shard 0 until its retransmission makes the
        # replicas re-send their cached fragments.
        system.network.add_tap(
            lambda src, dst, message: DROP
            if (isinstance(message, CrossShardSubReply) and src in cluster
                and client.retransmissions == 0) else None)
        sent_before = sum(node.cross_shard.replies_sent
                          for node in system.execution_cluster(0))
        record = system.invoke(multi_get([left, right]), timeout_ms=20_000.0)
        assert record.result.value == {"values": {left: "L", right: "R"}}
        assert client.retransmissions > 0
        re_sent = sum(node.cross_shard.replies_sent
                      for node in system.execution_cluster(0)) - sent_before
        assert re_sent > len(cluster)

    def test_one_crashed_replica_per_cluster_costs_no_retransmission(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        system.crash_execution(0, 0)
        system.crash_execution(1, 2)
        client = system.clients[0]
        record = system.invoke(multi_get([left, right]))
        assert record.result.value == {"values": {left: "L", right: "R"}}
        assert client.retransmissions == 0

    def test_a_flooding_replica_cannot_grow_the_client_state(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        client = system.clients[0]
        byz = system.execution_node(1, 0)
        sizes = []
        assemble = client.cross_shard.on_message

        def observed(sender, message):
            assemble(sender, message)
            if client._pending is not None and client._pending.cross:
                sizes.append(len(client._pending.cross.collectors))

        client.cross_shard.on_message = observed
        timestamp = client.submit(multi_get([left, right]))
        for index in range(200):
            byz.send(client.node_id, forged_fragment(
                byz, client, timestamp, {right: f"forged-{index}"}))
        system.run_until(lambda: not client.outstanding, 10_000.0)
        assert client.completed[-1].result.value == {
            "values": {left: "L", right: "R"}}
        senders = sum(len(cluster) for cluster in system.shard_execution_ids)
        assert len(sizes) > 200 and max(sizes) <= senders


class TestByzantineFragments:
    def test_forged_high_timestamp_fragment_is_never_stored(self):
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        client = system.clients[0]
        byz = system.execution_node(1, 0)
        client.submit(multi_get([left, right]))
        # A validly MACed fragment carrying an absurd timestamp: the client
        # keys its assembly on the pending timestamp, so it stores nothing.
        client.on_message(byz.node_id, forged_fragment(byz, client, 10 ** 9,
                                                       {right: "forged"}))
        cross = client._pending.cross
        assert not cross.collectors and not cross.senders
        system.run_until(lambda: not client.outstanding, 10_000.0)
        assert client.completed[-1].result.value == {
            "values": {left: "L", right: "R"}}

    @pytest.mark.parametrize("misdirection",
                             ["other-client", "other-timestamp",
                              "foreign-shard"])
    def test_a_fragment_the_pending_operation_cannot_use_is_never_stored(
            self, misdirection):
        """A validly MACed fragment for another client, for another
        timestamp, or claiming a shard whose cluster the sender is not in
        leaves the client's assembly state empty."""
        system = make_system()
        left, right = key_on(system, 0), key_on(system, 1)
        system.invoke(put(left, "L"))
        system.invoke(put(right, "R"))
        client, other = system.clients[0], system.clients[1]
        byz = system.execution_node(0, 0)
        timestamp = client.submit(multi_get([left, right]))
        body = forged_fragment(byz, client, timestamp, {left: "forged"}).body
        if misdirection == "other-client":
            body = replace(body, client=other.node_id)
        elif misdirection == "other-timestamp":
            body = replace(body, timestamp=timestamp + 1)
        else:
            body = replace(body, shard=1, values={right: "forged"})
        certificate = Certificate(payload=body,
                                  scheme=AuthenticationScheme.MAC)
        certificate.add(byz.crypto.mac_authenticator(body, [client.node_id]))
        client.on_message(byz.node_id, CrossShardSubReply(
            body=body, certificate=certificate, sender=byz.node_id))
        cross = client._pending.cross
        assert not cross.collectors and not cross.senders
        system.run_until(lambda: not client.outstanding, 10_000.0)
        assert client.completed[-1].result.value == {
            "values": {left: "L", right: "R"}}


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
        executed_before = {node.node_id: node.cross_shard.executed
                           for cluster in system.shard_execution_nodes
                           for node in cluster}
        system.run(500.0)
        executed_after = {node.node_id: node.cross_shard.executed
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
            executed = {node.cross_shard.executed
                        for node in system.execution_cluster(shard)}
            assert executed == {1}


# ---------------------------------------------------------------------- #
# The mixed workload and its snapshot audit.
# ---------------------------------------------------------------------- #


class TestVoteFetchTimer:
    def vote_fetches(self, system):
        return sum(node.cross_shard.fetches
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
        voted = sum(node.cross_shard.commits + node.cross_shard.aborts
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
        assert ops_a == ops_b
