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
from repro.apps.kvstore import KeyValueStore, delete, extract_key, get, put
from repro.config import AuthenticationScheme, ShardingConfig
from repro.errors import ConfigurationError
from repro.faults.byzantine import CorruptReplyBehaviour, make_byzantine
from repro.messages.agreement import OrderedBatch
from repro.messages.reply import BatchReplyBody, ClientReply
from repro.net.message import Message
from repro.net.network import DROP
from repro.sharding import (
    HashPartitioner,
    KeyRangePartitioner,
    RouteVoucher,
    ShardedBatch,
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


def captured_envelope(system):
    """A valid routed batch for shard 0, rebuilt from a replica's log."""
    key = keys_of_shard(system, 0, 1)[0]
    system.invoke(put(key, "v"))
    node = system.execution_node(0, 0)
    local = node.recent_batches[node.max_executed]
    batch = OrderedBatch(seq=local.global_seq, view=local.view,
                         request_certificates=local.full_request_certificates,
                         agreement_certificate=local.agreement_certificate,
                         nondet=local.nondet)
    return ShardedBatch(shard=0, shard_seq=local.seq, batch=batch)


class TestMisrouteRejection:

    def test_wrong_shard_envelope_is_rejected(self):
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=35)
        envelope = captured_envelope(system)
        victim = system.execution_node(1, 0)
        executed_before = victim.requests_executed
        victim.handle_sharded_batch(system.agreement_ids[0], envelope)  # shard 0's
        assert victim.misroutes == 1
        assert victim.requests_executed == executed_before

    def test_relabelled_envelope_is_rejected(self):
        """A Byzantine agreement node cannot make shard 1 execute shard 0's
        requests by relabelling the envelope: the replica re-derives ownership
        with its own router and finds nothing it owns."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=36)
        envelope = captured_envelope(system)
        forged = ShardedBatch(shard=1, shard_seq=1, batch=envelope.batch)
        victim = system.execution_node(1, 0)
        executed_before = victim.requests_executed
        for agreement_id in system.agreement_ids:  # even with "f+1 votes"
            victim.handle_sharded_batch(agreement_id, forged)
        assert victim.misroutes >= 1
        assert victim.requests_executed == executed_before
        assert 1 not in victim.pending

    def test_forged_shard_seq_needs_f_plus_one_vouchers(self):
        """shard_seq is not covered by the agreement certificate, so a single
        Byzantine agreement node must not be able to bind a genuine batch to
        a wrong slot: bindings are accepted only with f + 1 matching votes."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=43)
        envelope = captured_envelope(system)
        victim = system.execution_node(0, 0)
        # Replay the (genuine, already executed) batch at a future slot,
        # repeatedly, from one agreement node: never accepted.
        forged = ShardedBatch(shard=0, shard_seq=envelope.shard_seq + 3,
                              batch=envelope.batch)
        byzantine = system.agreement_ids[0]
        for _ in range(3):
            victim.handle_sharded_batch(byzantine, forged)
        assert forged.shard_seq not in victim.pending
        assert forged.shard_seq not in victim._route_accepted
        # A second distinct agreement node vouching for the same binding
        # reaches f + 1 = 2 and the batch enters the pipeline.
        victim.handle_sharded_batch(system.agreement_ids[1], forged)
        assert forged.shard_seq in victim.pending

    @pytest.mark.parametrize("liar_index", [1, 0], ids=["backup", "primary"])
    def test_byzantine_agreement_router_cannot_scramble_a_shard(self,
                                                                 liar_index):
        """End to end: one agreement node relabels every routing message it
        sends with a wrong slot -- a backup's vouchers, or the primary's
        envelopes, the only bodies sent on first release.  The forged
        bindings never gather f + 1 votes; the correct nodes' do, and the
        shard executes the agreed order (under a lying primary, from the
        envelopes the backups resend when no reply comes)."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=44)
        liar = system.agreement_ids[liar_index]
        honest = system.agreement_ids[2]
        relabelled = collections.Counter()
        agreed = {}

        def skew_slot(source, destination, message):
            if not isinstance(message, (ShardedBatch, RouteVoucher)):
                return None
            if source == honest:
                agreed[(message.shard, message.shard_seq)] = (
                    message.digest if isinstance(message, RouteVoucher) else
                    system.agreement_replicas[2].crypto.payload_digest(
                        message.batch.agreement_certificate.payload))
            if source != liar:
                return None
            relabelled[type(message).__name__] += 1
            return dataclasses.replace(message, shard_seq=message.shard_seq + 2)

        system.network.add_tap(skew_slot)
        for i in range(8):
            record = system.invoke(put(f"key{i}", i))
            assert record.result.value == {"stored": True}
        for i in range(8):
            assert system.invoke(get(f"key{i}")).result.value["value"] == i
        # The lie ran in the liar's role: vouchers from a backup, bodies
        # from the primary.
        role = "ShardedBatch" if liar_index == 0 else "RouteVoucher"
        assert relabelled[role] > 0
        # Every slot a replica accepted is bound to the batch the correct
        # nodes routed there; every replica of a shard executed the same.
        for shard in range(system.num_shards):
            executed = {node.max_executed for node in system.execution_cluster(shard)}
            assert len(executed) == 1
            for node in system.execution_cluster(shard):
                assert not node.pending
                assert node._route_accepted
                for slot, (digest, _, _) in node._route_accepted.items():
                    assert agreed[(shard, slot)] == digest
        if liar_index == 0:
            assert all(queue.retransmissions > 0
                       for queue in system.message_queues[1:])

    def test_raw_ordered_batch_is_rejected(self):
        """Unrouted batches carry no shard-local sequence number and must not
        enter a shard's pipeline."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=37)
        envelope = captured_envelope(system)
        victim = system.execution_node(1, 1)
        victim.on_message(system.agreement_ids[0], envelope.batch)
        assert victim.misroutes == 1

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


class TestRouteVouchers:
    """The primary routes each batch's body; the other agreement nodes vouch
    for its slot with a digest (:class:`RouteVoucher`)."""

    def test_fault_free_census(self):
        """One body per execution replica per routed part, from the primary,
        and a voucher from each of the 3f backups."""
        system = ShardedSystem(sharded_config(checkpoint_interval=1_000),
                               KeyValueStore, seed=45)
        received = collections.Counter()

        def count(source, destination, message):
            if isinstance(message, (ShardedBatch, RouteVoucher)):
                received[(type(message).__name__, destination,
                          (message.shard, message.shard_seq))] += 1
            return None

        system.network.add_tap(count)
        for i in range(8):
            system.invoke(put(f"key{i}", i))
        system.run(50.0)
        parts = {part for _, _, part in received}
        assert len(parts) == 8
        f = system.config.f
        for shard, shard_seq in parts:
            for node in system.execution_cluster(shard):
                assert received[("ShardedBatch", node.node_id,
                                 (shard, shard_seq))] == 1
                assert received[("RouteVoucher", node.node_id,
                                 (shard, shard_seq))] == 3 * f
        per_type = system.network.stats.per_type
        replicas = system.config.num_execution_nodes
        assert per_type["ShardedBatch"] == replicas * len(parts)
        assert per_type["RouteVoucher"] == 3 * f * replicas * len(parts)

    def test_vouchers_bind_the_body_an_envelope_brought(self):
        """Vouchers alone never execute a slot; the f + 1-th matching vote
        accepts the body the envelope brought, whichever came first, and a
        voucher for another batch counts for nothing."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=46)
        envelope = captured_envelope(system)
        victim = system.execution_node(0, 0)
        digest = victim.crypto.payload_digest(
            envelope.batch.agreement_certificate.payload)
        slot = envelope.shard_seq + 1
        first, second, third = system.agreement_ids[:3]
        for voter in (first, second):
            victim.handle_route_voucher(voter, RouteVoucher(
                shard=0, shard_seq=slot, digest=digest))
        assert slot not in victim._route_accepted  # vouched, but no body
        victim.handle_route_voucher(third, RouteVoucher(
            shard=0, shard_seq=slot + 1, digest=b"\x00" * 32))
        victim.handle_sharded_batch(third, ShardedBatch(
            shard=0, shard_seq=slot + 1, batch=envelope.batch))
        assert slot + 1 not in victim._route_accepted  # 1 vote for it
        victim.handle_sharded_batch(third, dataclasses.replace(
            envelope, shard_seq=slot))
        assert victim._route_accepted[slot] == (digest, 0, None)
        assert victim.max_executed == slot

    def test_vouched_slot_without_a_body_is_fetched_from_peers(self):
        """A replica the primary's bodies do not reach holds only vouchers;
        one fetch period later it asks its peers for the body, and one
        peer's copy is enough: the binding is already vouched."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=47)
        key = keys_of_shard(system, 0, 1)[0]
        cut_off = system.execution_node(0, 0)
        primary = system.agreement_ids[0]
        system.network.add_tap(
            lambda source, destination, message:
            DROP if (source, destination) == (primary, cut_off.node_id)
            and isinstance(message, ShardedBatch) else None)
        system.invoke(put(key, "v"))
        system.run_until(lambda: cut_off.max_executed == 1, 1_000.0,
                         "the cut-off replica catching up")
        assert cut_off.app.snapshot() == {key: "v"}
        assert cut_off._bodies_awaited  # it waited before asking
        assert cut_off.state_transfers == 0  # a peer's batch, not its state

    def test_primary_body_that_does_not_match_the_vouched_digest(self):
        """The primary sends every replica a body whose agreement
        certificate is not the one its backups vouch for: nothing from it
        binds, and the agreed batch executes from a backup's envelope."""
        system = ShardedSystem(sharded_config(), KeyValueStore, seed=48)
        primary = system.agreement_replicas[0]
        forged = set()

        def equivocate(source, destination, message):
            if source != primary.node_id or not isinstance(message, ShardedBatch):
                return None
            certificate = message.batch.agreement_certificate
            body = dataclasses.replace(certificate.payload,
                                       batch_digest=b"\x00" * 32)
            forged.add(primary.crypto.payload_digest(body))
            return dataclasses.replace(message, batch=dataclasses.replace(
                message.batch, agreement_certificate=certificate.with_payload(
                    body)))

        system.network.add_tap(equivocate)
        for i in range(4):
            assert system.invoke(put(f"key{i}", i)).result.value == {"stored": True}
        for i in range(4):
            assert system.invoke(get(f"key{i}")).result.value["value"] == i
        assert forged
        for node in [node for cluster in system.shard_execution_nodes
                     for node in cluster]:
            assert node._route_accepted
            assert not {digest for digest, _, _
                        in node._route_accepted.values()} & forged
        assert all(queue.retransmissions > 0
                   for queue in system.message_queues[1:])


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
                assert node.stable_checkpoint is not None
                assert node.stable_checkpoint.seq >= 4
                assert node.stable_checkpoint.proof.count() >= config.checkpoint_quorum
                digests.add((node.stable_checkpoint.seq, node.stable_checkpoint.digest))
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
