"""Sharded execution tests (``repro.sharding``).

Covers the properties the subsystem's safety rests on: partitioner
determinism (every correct participant maps a key to the same shard),
misroute rejection at the execution replicas and at the clients, per-shard
checkpoint independence, and safety with one Byzantine execution node *per
shard* -- the fault bound the per-shard ``g + 1`` reply quorum buys.
"""

import collections
import dataclasses

import pytest

from conftest import make_config
from test_integration_separated import CENSUS_PER_COMMIT
from repro.apps.kvstore import KeyValueStore, delete, extract_key, get, put
from repro.config import AuthenticationScheme, ShardingConfig
from repro.errors import ConfigurationError
from repro.faults.byzantine import CorruptReplyBehaviour, make_byzantine
from repro.messages.agreement import AgreementCertBody, CommitMsg, OrderedBatch, Prepare
from repro.messages.checkpoint import BatchTransfer
from repro.messages.reply import BatchReplyBody, ClientReply
from repro.net.message import Message
from repro.net.network import DROP
from repro.sharding import (
    HashPartitioner,
    KeyRangePartitioner,
    ShardedSystem,
    make_partitioner,
)


def sharded_config(num_shards=2, **overrides):
    defaults = dict(sharding=ShardingConfig(num_shards=num_shards))
    defaults.update(overrides)
    return make_config(**defaults)


def keys_of_shard(system, shard, count, universe=200):
    """The first ``count`` probe keys owned by ``shard``."""
    keys = [f"key{i}" for i in range(universe)
            if system.shard_of_key(f"key{i}") == shard]
    assert len(keys) >= count, "probe universe too small"
    return keys[:count]


class TestPartitioners:
    def test_hash_partitioner_is_deterministic_across_instances(self):
        """Two independently built partitioners (different replicas, different
        processes) must agree on every key -- routing is agreement-free only
        because it is a pure function of the key."""
        first = HashPartitioner(4)
        second = HashPartitioner(4)
        for i in range(200):
            key = f"user-{i}"
            assert first.shard_of_key(key) == second.shard_of_key(key)
            assert 0 <= first.shard_of_key(key) < 4

    def test_hash_partitioner_spreads_keys(self):
        partitioner = HashPartitioner(4)
        hit = {partitioner.shard_of_key(f"key-{i}") for i in range(100)}
        assert hit == {0, 1, 2, 3}

    def test_keyless_operations_route_to_shard_zero(self):
        assert HashPartitioner(4).shard_of_key(None) == 0
        assert KeyRangePartitioner(["m"]).shard_of_key(None) == 0

    def test_key_range_partitioner(self):
        partitioner = KeyRangePartitioner(["h", "p"])
        assert partitioner.num_shards == 3
        assert partitioner.shard_of_key("apple") == 0
        assert partitioner.shard_of_key("h") == 1  # boundary belongs right
        assert partitioner.shard_of_key("melon") == 1
        assert partitioner.shard_of_key("zebra") == 2

    def test_key_range_partitioner_rejects_unsorted_boundaries(self):
        with pytest.raises(ConfigurationError):
            KeyRangePartitioner(["p", "h"])

    def test_make_partitioner_from_config(self):
        hashed = make_partitioner(ShardingConfig(num_shards=4))
        assert isinstance(hashed, HashPartitioner) and hashed.num_shards == 4
        ranged = make_partitioner(ShardingConfig(
            num_shards=2, strategy="range", range_boundaries=("m",)))
        assert isinstance(ranged, KeyRangePartitioner)
        assert ranged.shard_of_key("a") == 0 and ranged.shard_of_key("z") == 1

    def test_kvstore_key_extraction(self):
        assert extract_key(put("k", 1)) == "k"
        assert extract_key(get("k")) == "k"
        assert extract_key(delete("k")) == "k"
        from repro.apps.kvstore import compare_and_swap, list_keys
        assert extract_key(compare_and_swap("k", 1, 2)) == "k"
        assert extract_key(list_keys("pre")) == "pre"
        assert extract_key(list_keys()) is None

    def test_sharding_config_validation(self):
        with pytest.raises(ConfigurationError):
            ShardingConfig(num_shards=0).validate()
        with pytest.raises(ConfigurationError):
            ShardingConfig(num_shards=2, strategy="modulo").validate()
        with pytest.raises(ConfigurationError):
            ShardingConfig(num_shards=3, strategy="range",
                           range_boundaries=("a",)).validate()
        with pytest.raises(ConfigurationError):
            make_config(use_privacy_firewall=True,
                        authentication=AuthenticationScheme.THRESHOLD,
                        sharding=ShardingConfig(num_shards=2))


class TestShardedEndToEnd:
    def test_keys_route_to_owning_shard_only(self):
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=31)
        keys0 = keys_of_shard(system, 0, 4)
        keys1 = keys_of_shard(system, 1, 4)
        for i, key in enumerate(keys0 + keys1):
            record = system.invoke(put(key, i))
            assert record.result.value == {"stored": True}
        system.run(100.0)
        # Each shard executed exactly its own requests and holds only its keys.
        assert system.requests_executed_by_shard() == [4, 4]
        for shard, keys in ((0, keys0), (1, keys1)):
            for node in system.execution_cluster(shard):
                assert set(node.app.snapshot()) == set(keys)

    def test_reads_return_routed_writes(self):
        system = ShardedSystem(sharded_config(num_shards=4), KeyValueStore, seed=32)
        for i in range(12):
            system.invoke(put(f"key{i}", i * 10), client_index=i % 2)
        for i in range(12):
            record = system.invoke(get(f"key{i}"), client_index=i % 2)
            assert record.result.value["value"] == i * 10

    def test_mixed_shard_bundles_execute_each_request_once(self):
        """With bundle_size > 1 a batch can touch several shards: every owning
        shard receives the full (verifiable) batch and executes only its own
        subset, so nothing is lost or double-executed."""
        config = sharded_config(num_clients=4, bundle_size=2)
        system = ShardedSystem(config, KeyValueStore, seed=33)
        for i in range(12):
            system.submit(put(f"key{i}", i), client_index=i % 4)
        system.run_until(lambda: system.total_completed() >= 12, 60_000.0)
        assert sum(system.requests_executed_by_shard()) == 12
        for i in range(12):
            record = system.invoke(get(f"key{i}"), client_index=i % 4)
            assert record.result.value["value"] == i

    def test_threshold_authentication_per_shard(self):
        config = sharded_config(authentication=AuthenticationScheme.THRESHOLD)
        system = ShardedSystem(config, KeyValueStore, seed=34)
        for i in range(6):
            system.invoke(put(f"key{i}", i))
        for i in range(6):
            assert system.invoke(get(f"key{i}")).result.value["value"] == i


def captured_batch(system):
    """A committed batch routed to shard 0, and its slot there, rebuilt
    from a replica's log."""
    key = keys_of_shard(system, 0, 1)[0]
    system.invoke(put(key, "v"))
    node = system.execution_node(0, 0)
    local = node.recent_batches[node.max_executed]
    return local.to_ordered_batch(), local.seq


def relabelled(batch, **fields):
    """``batch`` under a certificate whose (routed) body says otherwise:
    the same authenticators over the relabelled body."""
    certificate = batch.agreement_certificate
    return dataclasses.replace(batch, agreement_certificate=certificate.with_payload(
        dataclasses.replace(certificate.payload, **fields)))


class TestMisrouteRejection:

    def test_a_batch_routed_to_another_shard_is_rejected(self):
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=35)
        batch, _ = captured_batch(system)
        victim = system.execution_node(1, 0)
        executed_before = victim.requests_executed
        victim.on_message(system.agreement_ids[0], batch)  # shard 0's
        assert victim.misroutes == 1
        assert victim.requests_executed == executed_before

    def test_an_unrouted_certificate_is_a_misroute(self):
        """A certificate body that names no route gives no shard a slot."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=37)
        batch, _ = captured_batch(system)
        body = batch.cert_body
        plain = dataclasses.replace(batch, agreement_certificate=(
            batch.agreement_certificate.with_payload(AgreementCertBody(
                view=body.view, seq=body.seq, batch_digest=body.batch_digest,
                nondet=body.nondet))))
        victim = system.execution_node(0, 1)
        victim.on_message(system.agreement_ids[0], plain)
        assert victim.misroutes == 1

    @pytest.mark.parametrize("senders", ["one", "all"])
    @pytest.mark.parametrize("label", ["slot", "shard", "epoch", "log"])
    def test_a_relabelled_route_is_refused(self, label, senders):
        """The route is inside the certified body, so a committed batch
        relabelled with another slot (here the next free one, or a slot on
        the other shard), epoch or log no longer verifies -- from one
        agreement node, or from every one of them: only ``2f + 1`` COMMIT
        authenticators over the relabelled body could make it verify."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=43)
        batch, slot = captured_batch(system)
        route = {"slot": ((0, slot + 1),), "shard": ((1, 1),)}.get(
            label, batch.cert_body.route)
        fields = {"route": route}
        if label == "epoch":
            fields["epoch"] = batch.cert_body.epoch + 1
        elif label == "log":
            fields["log"] = 0
        forged = relabelled(batch, **fields)
        victims = [system.execution_node(shard, 0) for shard in (0, 1)]
        executed = [victim.requests_executed for victim in victims]
        voters = system.agreement_ids[:1 if senders == "one" else None]
        for voter in voters:
            for victim in victims:
                victim.on_message(voter, forged)
        for victim, before in zip(victims, executed):
            assert not victim.pending
            assert victim.requests_executed == before
        assert victims[0].max_executed == slot

    @pytest.mark.parametrize("liar_index", [1, 0], ids=["backup", "primary"])
    def test_byzantine_agreement_router_cannot_scramble_a_shard(self,
                                                                 liar_index):
        """End to end: one agreement node relabels every batch it sends
        with a wrong slot -- the primary's first sends, or a backup's
        retransmissions (the primary's sends are lost here, so every
        backup retransmits).  The relabelled bodies never verify; the
        correct nodes' copies do, and every shard executes the agreed
        order."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=44)
        primary = system.agreement_ids[0]
        liar = system.agreement_ids[liar_index]
        forged = collections.Counter()

        def skew_slot(source, destination, message):
            if not isinstance(message, OrderedBatch):
                return None
            if source == primary and liar_index != 0:
                return DROP
            if source != liar:
                return None
            forged[message.seq] += 1
            body = message.cert_body
            return relabelled(message, route=tuple(
                (shard, shard_seq + 2) for shard, shard_seq in body.route))

        system.network.add_tap(skew_slot)
        for i in range(8):
            record = system.invoke(put(f"key{i}", i))
            assert record.result.value == {"stored": True}
        for i in range(8):
            assert system.invoke(get(f"key{i}")).result.value["value"] == i
        assert forged
        # Every replica of a shard executed the same slots, each under a
        # certificate naming that slot: no relabelled body got in.
        for shard in range(system.num_shards):
            executed = {node.max_executed for node in system.execution_cluster(shard)}
            assert len(executed) == 1
            for node in system.execution_cluster(shard):
                assert not node.pending
                for slot, local in node.recent_batches.items():
                    assert (shard, slot) in local.agreement_certificate.payload.route
        assert all(queue.retransmissions > 0
                   for queue in system.message_queues[1:])

    def test_client_rejects_reply_claiming_wrong_shard(self):
        """A reply relabelled with the wrong shard id is dropped by the client
        (quorums must come from the owning shard), and the request still
        completes from the correct replicas' replies."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=38)
        key = keys_of_shard(system, 0, 1)[0]
        liar = system.execution_node(0, 0).node_id
        relabelled = []

        def relabel(source, destination, message):
            if not isinstance(message, ClientReply):
                return None
            if source != liar:
                # The correct replicas' direct replies are lost until the
                # liar's is on the wire, so it reaches a client that is
                # still waiting, whichever replica executes first.
                return None if relabelled else DROP
            relabelled.append(message)
            return ClientReply(message.certificate.with_payload(
                dataclasses.replace(message.body, shard=1)))

        system.network.add_tap(relabel)
        record = system.invoke(put(key, "v"))
        assert record.result.value == {"stored": True}
        assert relabelled
        assert system.clients[0].misrouted_replies >= 1


def drop_first_batch_from(system, sender, destination):
    """A tap losing the first batch ``sender`` sends ``destination``."""
    dropped = []

    def tap(source, target, message):
        if (source, target) == (sender, destination) and not dropped \
                and isinstance(message, OrderedBatch):
            dropped.append(message)
            return DROP
        return None

    system.network.add_tap(tap)
    return dropped


class TestCertifiedRoute:
    """The agreement certificate covers each batch's route: the primary
    sends each touched cluster the plain batch, and nothing else travels
    for the route."""

    def test_fault_free_census(self):
        """One batch per execution replica per routed part, from the
        primary alone; no routing envelope and no route vote."""
        system = ShardedSystem(sharded_config(checkpoint_interval=1_000),
                               KeyValueStore, seed=45)
        received = collections.Counter()

        def count(source, destination, message):
            if isinstance(message, OrderedBatch):
                for part in message.cert_body.route:
                    received[(source, destination, part)] += 1
            return None

        system.network.add_tap(count)
        for i in range(8):
            system.invoke(put(f"key{i}", i))
        system.run(50.0)
        parts = {part for _, _, part in received}
        assert len(parts) == 8
        primary = system.agreement_ids[0]
        for shard, shard_seq in parts:
            for node in system.execution_cluster(shard):
                assert received[(primary, node.node_id, (shard, shard_seq))] == 1
        assert {source for source, _, _ in received} == {primary}
        per_type = system.network.stats.per_type
        assert per_type["OrderedBatch"] == system.config.num_execution_nodes * 8
        assert not {"ShardedBatch", "RouteVoucher"} & set(per_type)

    def test_a_missed_slot_is_fetched_from_peers(self):
        """A replica the primary's first batch does not reach learns of
        the gap from the next one and fetches the slot from its peers; one
        peer's copy is enough, because the certificate names the slot."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=47)
        first, second = keys_of_shard(system, 0, 2)
        cut_off = system.execution_node(0, 0)
        dropped = drop_first_batch_from(system, system.agreement_ids[0],
                                        cut_off.node_id)
        system.invoke(put(first, "a"))
        system.invoke(put(second, "b"))
        system.run_until(lambda: cut_off.max_executed == 2, 1_000.0,
                         "the cut-off replica catching up")
        assert dropped
        assert cut_off.app.snapshot() == {first: "a", second: "b"}
        assert cut_off.state_transfers == 0  # a peer's batch, not its state


class TestOneBatchCheck:
    """Ownership is judged once, when a body becomes a shard-local batch;
    acceptance checks authenticity only."""

    def test_validation_asks_the_router_nothing(self, monkeypatch):
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=51)
        captured_batch(system)
        node = system.execution_node(0, 0)
        local = node.recent_batches[node.max_executed]

        def consulted(*args, **kwargs):
            raise AssertionError("the router was asked at validation")

        for name in ("route", "request_owners", "touched", "targets",
                     "shard_of_operation"):
            monkeypatch.setattr(node.router, name, consulted)
        assert node._validate_batch(local)
        assert not node._validate_batch(dataclasses.replace(
            local, global_seq=local.global_seq + 1))
        # the certified route gives this shard the local batch's slot only
        assert not node._validate_batch(dataclasses.replace(
            local, seq=local.seq + 1))

    def test_a_peer_transfer_is_localized_afresh(self):
        """A peer's transfer carries the peer's own owned subset; the
        receiver discards it and derives the subset itself, so a doctored
        claim changes nothing."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=47)
        first, second = keys_of_shard(system, 0, 2)
        cut_off = system.execution_node(0, 0)
        drop_first_batch_from(system, system.agreement_ids[0], cut_off.node_id)
        doctored = []

        def tap(source, destination, message):
            if destination == cut_off.node_id and isinstance(message, BatchTransfer):
                doctored.append(message)
                return dataclasses.replace(message, batch=dataclasses.replace(
                    message.batch, request_certificates=()))
            return None

        system.network.add_tap(tap)
        system.invoke(put(first, "a"))
        system.invoke(put(second, "b"))
        system.run_until(lambda: cut_off.max_executed == 2, 1_000.0,
                         "the cut-off replica catching up")
        assert doctored
        assert cut_off.app.snapshot() == {first: "a", second: "b"}


class TestViewChangeHole:
    def test_a_delivered_batch_is_committed_again_under_its_route(self):
        """Two replicas deliver sequence 2; the other two never see its
        COMMITs.  The primary crashes, and the NEW-VIEW re-proposes 2.  The
        replica that delivered it commits it again with the route it
        delivered (a laggard needs its COMMIT: only three replicas are
        up), so the laggards deliver 2 and the next write completes."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=54)
        first, second, third = keys_of_shard(system, 0, 3)
        system.invoke(put(first, 1))
        laggards = {replica.node_id for replica in system.agreement_replicas[2:]}
        losing = [True]

        def lose_commits(source, destination, message):
            if (losing[0] and isinstance(message, CommitMsg)
                    and message.seq == 2 and destination in laggards):
                return DROP
            return None

        system.network.add_tap(lose_commits)
        system.invoke(put(second, 2))
        delivered = [replica.log.last_delivered_seq
                     for replica in system.agreement_replicas]
        assert delivered == [2, 2, 1, 1]
        losing[0] = False
        system.crash_agreement(0)
        assert system.invoke(put(third, 3), timeout_ms=30_000.0).result.value \
            == {"stored": True}
        assert all(replica.view >= 1 and replica.log.last_delivered_seq >= 3
                   for replica in system.agreement_replicas[1:])
        for key, value in ((first, 1), (second, 2), (third, 3)):
            assert system.invoke(get(key)).result.value["value"] == value

    def test_a_nulled_batch_below_a_prepared_one_leaves_no_slot_hole(self):
        """Sequence 1 pre-prepares but never prepares (its PREPAREs are
        lost), sequence 2 prepares everywhere.  The NEW-VIEW nulls 1 and
        carries 2.  Routes are derived over the prefix prepared in the view
        (or delivered) -- 2's COMMIT waited for 1, which never prepared --
        so the null batch takes no slot, 2 takes shard 0's next one, and
        every shard's slots stay dense (a route derived from the
        pre-prepared prefix would have given 2 slot 2 and left slot 1 empty
        forever)."""
        system = ShardedSystem(sharded_config(num_clients=2), KeyValueStore,
                               seed=52)
        keys = keys_of_shard(system, 0, 2)  # both batches route to shard 0

        def lose_first_prepares(source, destination, message):
            if (isinstance(message, Prepare) and message.view == 0
                    and message.seq == 1):
                return DROP
            return None

        system.network.add_tap(lose_first_prepares)
        for index, key in enumerate(keys):
            system.submit(put(key, index), client_index=index)
        system.run_until(lambda: system.total_completed() >= 2, 30_000.0,
                         "both writes across the view change")
        system.run(200.0)
        assert all(replica.view >= 1 for replica in system.agreement_replicas)
        queues = system.message_queues
        assert len({tuple(queue._next_shard_seq) for queue in queues}) == 1
        for shard in range(system.num_shards):
            for node in system.execution_cluster(shard):
                assert not node.pending
                assert node.max_executed == queues[0]._next_shard_seq[shard]
                # every slot up to the last executed one was a real part
                assert node.batches_executed == node.max_executed
        for index, key in enumerate(keys):
            assert system.invoke(get(key)).result.value["value"] == index


class TestShardedCensus:
    def test_sends_per_commit_carry_no_route_vote(self):
        """An unbatched write to one shard of two sends what a separated
        commit does, type by type (``TestMessageCensus``): the 2g + 1
        replicas of the touched shard get the batch from the primary and
        send it their bodiless partials, the primary relays the certificate
        to each backup, and nothing else is spent on the route."""
        system = ShardedSystem(sharded_config(checkpoint_interval=1_000),
                               KeyValueStore, seed=53)
        keys = keys_of_shard(system, 0, 10)
        system.invoke(put(keys[0], 0))
        system.run(50.0)
        before = dict(system.network.stats.per_type)
        for index, key in enumerate(keys[1:]):
            system.invoke(put(key, index))
        system.run(50.0)
        sent = {name: count - before.get(name, 0)
                for name, count in system.network.stats.per_type.items()
                if count - before.get(name, 0)}
        per_commit = {name: count / 9 for name, count in sent.items()}
        assert per_commit == CENSUS_PER_COMMIT


class TestPerShardFaultTolerance:
    def test_checkpoints_are_per_shard_and_independent(self):
        """Each shard checkpoints its own subsequence: digests match within a
        shard, and a Byzantine replica in shard 0 does not disturb shard 1's
        checkpoint lifecycle."""
        config = sharded_config(checkpoint_interval=4)
        system = ShardedSystem(config, KeyValueStore, seed=39)
        make_byzantine(system, CorruptReplyBehaviour(system.execution_ids[0]))
        for shard in (0, 1):
            for i, key in enumerate(keys_of_shard(system, shard, 6)):
                record = system.invoke(put(key, i))
                assert record.result.value == {"stored": True}
        system.run(300.0)
        for shard in (0, 1):
            correct = [node for node in system.execution_cluster(shard)
                       if node.node_id != system.execution_ids[0]]
            digests = set()
            for node in correct:
                assert node.checkpoints.stable is not None
                assert node.checkpoints.stable.seq >= 4
                assert node.checkpoints.stable.proof.count() >= config.checkpoint_quorum
                digests.add((node.checkpoints.stable.seq, node.checkpoints.stable.digest))
            # g + 1 correct replicas of one shard agree on the checkpoint.
            assert len({digest for _, digest in digests}) == 1

    def test_one_byzantine_execution_node_per_shard_is_masked(self):
        """The acceptance bound: with ``g = 1`` per shard, one reply-corrupting
        replica in *every* shard is masked by the per-shard ``g + 1`` quorum."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=40)
        behaviours = [
            make_byzantine(system, CorruptReplyBehaviour(
                system.execution_cluster(shard)[shard % 3].node_id))
            for shard in range(system.num_shards)
        ]
        for i in range(10):
            record = system.invoke(put(f"key{i}", i), client_index=i % 2)
            assert record.result.value == {"stored": True}
        for i in range(10):
            record = system.invoke(get(f"key{i}"), client_index=i % 2)
            assert record.result.value["value"] == i
        # The attack actually ran: corrupted replies were sent and discarded.
        assert any(b.messages_affected > 0 for b in behaviours)

    def test_crashed_shard_replica_recovers_via_state_transfer(self):
        """A replica that misses a stretch of its shard's subsequence catches
        up from a *same-shard* peer's stable checkpoint; the other shard's
        lifecycle is untouched."""
        config = sharded_config(checkpoint_interval=4)
        system = ShardedSystem(config, KeyValueStore, seed=41)
        keys0 = keys_of_shard(system, 0, 12)
        keys1 = keys_of_shard(system, 1, 3)
        lagging = system.execution_node(0, 1)
        lagging.crash()
        for i, key in enumerate(keys0[:10]):
            system.invoke(put(key, i))
        for i, key in enumerate(keys1):
            system.invoke(put(key, i))
        lagging.recover()
        for i, key in enumerate(keys0[10:]):
            system.invoke(put(key, 100 + i))
        system.run_until(
            lambda: lagging.max_executed >= system.execution_node(0, 0).max_executed,
            timeout_ms=30_000.0, description="lagging shard replica catches up")
        assert lagging.state_transfers > 0
        assert lagging.app.checkpoint() == system.execution_node(0, 0).app.checkpoint()
        # Shard 1 never saw shard 0's hiccup.
        assert all(node.state_transfers == 0
                   for node in system.execution_cluster(1))

    def test_crash_one_replica_per_shard_preserves_liveness(self):
        system = ShardedSystem(sharded_config(num_shards=2), KeyValueStore, seed=42)
        system.crash_execution(0, 0)
        system.crash_execution(1, 1)
        for i in range(8):
            record = system.invoke(put(f"key{i}", i))
            assert record.result.value == {"stored": True}
        for i in range(8):
            assert system.invoke(get(f"key{i}")).result.value["value"] == i
