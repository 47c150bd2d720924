"""Dynamic shard rebalancing tests.

The safety-critical properties of an epoch cut:

* the partition map evolves only through agreed config operations, with
  every correct node applying (or deterministically rejecting) a change at
  the same position in the global order;
* state handoff moves a key range's data -- and the client-dedup reply
  table -- so every client request executes exactly once across split and
  merge cuts, with no per-shard sequence gaps or duplicates;
* a Byzantine agreement node advertising a stale or forged epoch cannot
  make an execution replica accept the binding (the ``f + 1``-vouched route
  binding now carries the epoch);
* clients with a stale map learn a newer epoch only from authenticated,
  registry-consistent replies and then complete normally;
* a replica that misses a handoff (partitioned or crashed mid-cut) recovers
  by itself: blocked gainers re-fetch the range, and a replica that missed
  the whole cut catches up through checkpoint state transfer, which now
  carries the epoch.

The per-shard batch-timeout and controller-demotion satellites of the same
PR are covered at the bottom.
"""

import dataclasses

import pytest

from conftest import make_config
from repro.agreement.batching import AdaptiveBundleController, Batcher
from repro.apps.kvstore import KeyValueStore, get, put
from repro.config import (
    AuthenticationScheme,
    BatchingConfig,
    RebalanceConfig,
    ShardingConfig,
    SystemConfig,
)
from repro.crypto.certificate import Certificate
from repro.errors import ConfigurationError
from repro.messages.agreement import OrderedBatch
from repro.messages.reply import BatchReplyBody, ClientReply, ReplyBody
from repro.net.network import DROP
from repro.sharding import (
    MapChange,
    PartitionMap,
    RangeHandoff,
    ShardedSystem,
    apply_map_change,
)
from repro.sharding.messages import handoff_payload
from repro.sharding.rebalance import RebalanceController, ShardLoadWindow
from repro.statemachine.interface import OperationResult
from repro.util.epochs import EpochRegistry
from repro.workloads import (
    equal_range_boundaries,
    migrating_hot_range_operations,
)
from repro.workloads.skew import skew_key

KEY_SPACE = 64

#: rebalancing wiring (cross-shard links, controllers) without automatic
#: proposals -- tests drive the cuts by hand for determinism
MANUAL = RebalanceConfig(enabled=True, min_window_requests=10**9)


def is_map_change(batch):
    """Whether an ordered batch is a partition-map change marker."""
    certificates = batch.request_certificates
    return len(certificates) == 1 and isinstance(certificates[0].payload,
                                                 MapChange)


def make_system(num_shards=2, rebalance=MANUAL, num_clients=4, seed=21,
                **overrides):
    config = make_config(
        num_clients=num_clients,
        sharding=ShardingConfig(
            num_shards=num_shards, strategy="range",
            range_boundaries=equal_range_boundaries(KEY_SPACE, num_shards)),
        per_shard_windows=True,
        rebalance=rebalance,
        **overrides)
    return ShardedSystem(config, KeyValueStore, seed=seed)


def propose(system, change):
    primary = system.agreement_replicas[0]
    assert primary.proposer.propose_map_change(change)
    system.run(300.0)


def cluster_digests(system, shard):
    return {node.app.state_digest()
            for node in system.execution_cluster(shard) if not node.crashed}


# ---------------------------------------------------------------------- #
# Partition maps and registry.
# ---------------------------------------------------------------------- #


class TestPartitionMap:
    def base(self):
        return PartitionMap(epoch=0, boundaries=("m",), owners=(0, 1),
                            num_clusters=2)

    def test_split_moves_upper_half_to_new_owner(self):
        split = self.base().split("f", new_owner=1)
        assert split.epoch == 1
        assert split.boundaries == ("f", "m")
        assert split.owners == (0, 1, 1)
        assert split.owner_of_key("a") == 0
        assert split.owner_of_key("g") == 1

    def test_merge_keeps_left_owner(self):
        merged = self.base().split("f", 1).merge("f")
        assert merged.epoch == 2
        assert merged.boundaries == ("m",)
        assert merged.owners == (0, 1)

    def test_move_boundary_keeps_owners(self):
        moved = self.base().move_boundary("m", "p")
        assert moved.boundaries == ("p",)
        assert moved.owners == (0, 1)
        with pytest.raises(ConfigurationError):
            self.base().split("f", 1).move_boundary("m", "e")  # crosses "f"

    def test_moved_ranges_exact_intervals(self):
        base = self.base()
        split = base.split("f", 1)
        moved = base.moved_ranges(split)
        assert [(m.lo, m.hi, m.old_owner, m.new_owner) for m in moved] == \
            [("f", "m", 0, 1)]
        back = split.merge("f")
        moved_back = split.moved_ranges(back)
        assert [(m.lo, m.hi, m.old_owner, m.new_owner) for m in moved_back] == \
            [("f", "m", 1, 0)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionMap(epoch=0, boundaries=("b", "a"), owners=(0, 1, 1),
                         num_clusters=2)
        with pytest.raises(ConfigurationError):
            PartitionMap(epoch=0, boundaries=("a",), owners=(0, 5),
                         num_clusters=2)
        with pytest.raises(ConfigurationError):
            self.base().split("m", 1)  # boundary already exists

    def test_registry_append_is_idempotent_and_ordered(self):
        registry = EpochRegistry(self.base())
        new_map = registry.latest.split("f", 1)
        registry.append(new_map)
        registry.append(new_map)  # idempotent: another role already derived it
        assert registry.latest_epoch == 1
        with pytest.raises(ConfigurationError):
            registry.append(new_map.split("a", 0).split("b", 0))  # skips epoch 2

    def test_apply_map_change_rejects_stale_parent_epoch(self):
        base = self.base()
        change = MapChange(kind="split", parent_epoch=1, key="f", owner=1)
        assert apply_map_change(base, change) is None
        current = MapChange(kind="split", parent_epoch=0, key="f", owner=1)
        assert apply_map_change(base, current).epoch == 1
        nonsense = MapChange(kind="merge", parent_epoch=0, key="zzz")
        assert apply_map_change(base, nonsense) is None


class TestRebalanceConfig:
    def test_requires_range_strategy(self):
        with pytest.raises(ConfigurationError):
            make_config(sharding=ShardingConfig(num_shards=2, strategy="hash"),
                        rebalance=RebalanceConfig(enabled=True))

    def test_field_validation(self):
        for bad in (dict(hot_ratio=0.5), dict(cold_ratio=0.0),
                    dict(min_window_requests=0),
                    dict(check_interval_ms=0.0)):
            with pytest.raises(ConfigurationError):
                RebalanceConfig(**bad).validate()

    def test_batching_satellite_validation(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(timeout_scale_max=0.5).validate()
        with pytest.raises(ConfigurationError):
            BatchingConfig(demote_idle_ms=0.0).validate()


class TestMergePolicy:
    """The controller merges adjacent cold ranges, and the merged range
    keeps its left owner -- so it never merges away a cluster's last range:
    that would idle the cluster until a split handed it a range back."""

    CONFIG = RebalanceConfig(enabled=True, hot_ratio=1.6, cold_ratio=0.6,
                             min_window_requests=96)

    @staticmethod
    def window(range_loads, pmap):
        window = ShardLoadWindow(num_clusters=pmap.num_clusters)
        for index, load in enumerate(range_loads):
            lo, _ = pmap.range_bounds(index)
            for _ in range(load):
                window.note(pmap.owners[index], lo or skew_key(0))
        return window

    def test_a_cold_pair_is_not_merged_when_the_right_owner_would_own_nothing(self):
        # The map and loads the controller saw before the flap at --seed 11
        # of the quick migrating-hotspot leg: [16, 48) on cluster 1 and
        # [48, ...) on cluster 3 are both cold, and the second is all
        # cluster 3 owns.
        pmap = PartitionMap(epoch=3,
                            boundaries=tuple(skew_key(k) for k in (6, 10, 16, 48)),
                            owners=(0, 1, 2, 1, 3), num_clusters=4)
        loads = [136, 93, 143, 53, 34]
        controller = RebalanceController(self.CONFIG)
        assert controller.propose(self.window(loads, pmap), pmap, now=780.0) is None

    def test_a_cold_pair_is_merged_when_the_right_owner_keeps_a_range(self):
        pmap = PartitionMap(epoch=2,
                            boundaries=tuple(skew_key(k) for k in (6, 10, 16, 32, 48)),
                            owners=(0, 1, 2, 1, 2, 3), num_clusters=4)
        loads = [130, 102, 137, 33, 38, 33]
        change = RebalanceController(self.CONFIG).propose(
            self.window(loads, pmap), pmap, now=540.0)
        assert change == MapChange(kind="merge", parent_epoch=2, key=skew_key(32))


# ---------------------------------------------------------------------- #
# Epoch cuts end to end: split, merge, and live state handoff.
# ---------------------------------------------------------------------- #


class TestEpochCut:
    def seeded_system(self):
        system = make_system()
        for index in range(0, KEY_SPACE, 8):
            system.invoke(put(skew_key(index), f"v{index}"),
                          client_index=index % 4)
        return system

    def test_split_hands_off_state_and_epoch_everywhere(self):
        system = self.seeded_system()
        # Move [key-00008, key-00032) from shard 0 to shard 1.
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        assert system.partition_epoch() == 1
        for queue in system.message_queues:
            assert queue.epoch == 1
        for shard in range(system.num_shards):
            for node in system.execution_cluster(shard):
                assert node.epoch == 1
        # The moved keys live on shard 1 now -- and only there.
        gainer = system.execution_node(1, 0)
        loser = system.execution_node(0, 0)
        for index in (8, 16, 24):
            assert skew_key(index) in gainer.app.snapshot()
            assert skew_key(index) not in loser.app.snapshot()
        assert gainer.handoffs.installed == 1
        assert loser.handoffs.sent == 1
        # Reads and writes of moved keys complete against the new owner.
        record = system.invoke(get(skew_key(16)))
        assert record.result.value["value"] == "v16"
        system.invoke(put(skew_key(16), "post-cut"))
        assert system.invoke(get(skew_key(16))).result.value["value"] == "post-cut"

    def test_merge_returns_range_to_left_owner(self):
        system = self.seeded_system()
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        propose(system, MapChange(kind="merge", parent_epoch=1,
                                  key=skew_key(8)))
        assert system.partition_epoch() == 2
        # The merged range [key-00008, key-00032) is back on shard 0.
        assert system.shard_of_key(skew_key(16)) == 0
        loser = system.execution_node(1, 0)
        gainer = system.execution_node(0, 0)
        for index in (8, 16, 24):
            assert skew_key(index) in gainer.app.snapshot()
            assert skew_key(index) not in loser.app.snapshot()
        assert system.invoke(get(skew_key(24))).result.value["value"] == "v24"

    def test_stale_parent_epoch_is_a_deterministic_noop(self):
        system = self.seeded_system()
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        rejected_before = [queue.map_changes_rejected
                          for queue in system.message_queues]
        # A change built against epoch 0 arriving after the cut no-ops on
        # every replica; the epoch and map stay put.
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(40), owner=0))
        assert system.partition_epoch() == 1
        for queue, before in zip(system.message_queues, rejected_before):
            assert queue.map_changes_rejected == before + 1
        for shard in range(system.num_shards):
            for node in system.execution_cluster(shard):
                assert node.epoch == 1
        # The service keeps answering.
        assert system.invoke(get(skew_key(8))).result.value["value"] == "v8"

    def test_reply_table_moves_with_the_range(self):
        """Exactly-once across the cut: the gaining cluster inherits the
        losing cluster's client-dedup table, so a pre-cut request cannot be
        re-executed post-cut."""
        system = self.seeded_system()
        gainer_nodes = system.execution_cluster(1)
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        client_id = system.clients[0].node_id
        for node in gainer_nodes:
            # Client 0 wrote key-00008/16/24 pre-cut on shard 0; shard 1's
            # replicas now know its latest executed timestamp.
            assert client_id in node.reply_table


class TestByzantineEpoch:
    def prepared_system(self):
        system = make_system()
        system.invoke(put(skew_key(8), "v"))   # shard 0 at epoch 0
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        system.invoke(put(skew_key(8), "post-cut"))  # shard 1 at epoch 1
        return system

    def _forged(self, system, victim, epoch):
        """The victim's last batch relabelled to its next slot at
        ``epoch``, under the authenticators of the genuine body."""
        local = victim.recent_batches[victim.max_executed]
        certificate = local.agreement_certificate
        body = dataclasses.replace(
            certificate.payload, epoch=epoch,
            route=((victim.shard, victim.max_executed + 1),))
        return dataclasses.replace(
            local.to_ordered_batch(),
            agreement_certificate=certificate.with_payload(body))

    def test_single_byzantine_sender_cannot_bind_any_epoch(self):
        system = self.prepared_system()
        victim = system.execution_node(1, 0)
        executed = victim.requests_executed
        forged = self._forged(system, victim, epoch=1)
        for _ in range(3):
            victim.on_message(system.agreement_ids[0], forged)
        assert victim.requests_executed == executed
        assert not victim.pending

    def test_stale_epoch_rejected_from_every_sender(self):
        """Relabelling a genuine post-cut batch with the pre-cut epoch makes
        the victim re-derive ownership under the old map -- under which it
        owns nothing -- so the batch dies as a misroute no matter how many
        agreement nodes send it (nor would its certificate verify)."""
        system = self.prepared_system()
        victim = system.execution_node(1, 0)
        executed = victim.requests_executed
        misroutes = victim.misroutes
        stale = self._forged(system, victim, epoch=0)
        for agreement_id in system.agreement_ids:
            victim.on_message(agreement_id, stale)
        assert victim.misroutes > misroutes
        assert victim.requests_executed == executed
        assert not victim.pending

    def test_forged_future_epoch_rejected(self):
        system = self.prepared_system()
        victim = system.execution_node(1, 0)
        executed = victim.requests_executed
        misroutes = victim.misroutes
        future = self._forged(system, victim, epoch=99)
        for agreement_id in system.agreement_ids:
            victim.on_message(agreement_id, future)
        assert victim.misroutes > misroutes
        assert victim.requests_executed == executed
        assert not victim.pending


class TestClientAcrossCut:
    def test_stale_client_completes_and_learns_the_epoch(self):
        """A client whose map predates a split retries against the old
        owner's quorum expectation; the authenticated reply from the new
        owner carries the newer epoch, the client verifies it against the
        agreed map history, re-scopes its quorum, and completes."""
        system = make_system()
        system.invoke(put(skew_key(16), "before"), client_index=0)
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        stale_client = system.clients[1]
        assert stale_client.epoch == 0
        record = system.invoke(get(skew_key(16)), client_index=1)
        assert record.result.value["value"] == "before"
        assert stale_client.epoch == 1
        assert stale_client.epoch_advances == 1
        assert stale_client.misrouted_replies == 0

    def test_client_rejects_epoch_claims_outside_the_agreed_history(self):
        system = make_system()
        system.invoke(put(skew_key(16), "v"), client_index=0)
        client = system.clients[0]
        assert client.epoch == 0
        # No epoch 7 was ever agreed: a reply to the outstanding request
        # that claims it must not steer the client's quorum counting.
        timestamp = client.submit(get(skew_key(16)))
        own = ReplyBody(view=0, seq=2, timestamp=timestamp,
                        client=client.node_id,
                        result=OperationResult(value=None))
        body = BatchReplyBody(view=0, seq=2, replies=(own,), shard=1, epoch=7)
        client._maybe_advance_epoch(ClientReply(
            Certificate(payload=body, scheme=AuthenticationScheme.MAC)))
        assert client.epoch == 0


# ---------------------------------------------------------------------- #
# Crash / partition during the handoff.
# ---------------------------------------------------------------------- #


class TestHandoffFaults:
    def test_crashed_source_replica_within_g_does_not_block_the_cut(self):
        system = make_system()
        for index in range(0, 32, 4):
            system.invoke(put(skew_key(index), f"v{index}"),
                          client_index=index % 4)
        system.crash_execution(0, 0)  # one of the losing cluster's 2g+1
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        # g+1 matching shares from the surviving source replicas suffice.
        for node in system.execution_cluster(1):
            assert node.handoffs.installed == 1
            assert node.epoch == 1
        assert system.invoke(get(skew_key(12))).result.value["value"] == "v12"

    def test_partitioned_gainer_recovers_via_range_fetch(self):
        """A gainer replica cut off from the source cluster during the
        handoff blocks at the cut, then re-fetches the range on its timer
        once the partition heals -- no operator, no lost slot."""
        system = make_system()
        for index in range(0, 32, 4):
            system.invoke(put(skew_key(index), f"v{index}"),
                          client_index=index % 4)
        blocked = system.execution_node(1, 0)
        for source in system.execution_cluster(0):
            system.network.faults.partition(blocked.node_id, source.node_id)
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        # Peers installed; the partitioned replica is blocked awaiting.
        assert blocked._blocked() is blocked.handoffs
        assert blocked.epoch == 1
        for node in system.execution_cluster(1)[1:]:
            assert node.handoffs.installed == 1
        system.network.faults.heal_all()
        system.run(300.0)
        assert blocked._blocked() is None
        assert blocked.handoffs.installed == 1
        assert blocked.handoffs.fetches > 0
        assert cluster_digests(system, 1) == {blocked.app.state_digest()}

    def test_crashed_gainer_recovers_via_state_transfer_with_epoch(self):
        """A replica that missed the whole cut catches up through the
        ordinary checkpoint state transfer, which now carries the epoch:
        it rejoins in the right map, with the moved range installed."""
        system = make_system()
        for index in range(0, 32, 4):
            system.invoke(put(skew_key(index), f"v{index}"),
                          client_index=index % 4)
        crashed = system.execution_node(1, 0)
        crashed.crash()
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        # Drive shard 1 past a checkpoint so recovery has a stable
        # checkpoint (with epoch) to transfer.
        interval = system.config.checkpoint_interval
        for round_index in range(interval + 2):
            system.invoke(put(skew_key(8 + (round_index % 6)), f"r{round_index}"),
                          client_index=round_index % 4)
        crashed.recover()
        system.invoke(put(skew_key(10), "after-recovery"))
        system.run(400.0)
        assert crashed.epoch == 1
        assert crashed.state_transfers >= 1
        assert cluster_digests(system, 1) == {crashed.app.state_digest()}


class TestCutCheckpoint:
    def test_cut_checkpoint_covers_post_install_pre_resume_state(self):
        """The marker reaches one gaining replica *after* the handoff shares
        and while successor batches are already pending.  Its checkpoint at
        the cut must still be taken over the state right after the install,
        not after the successors ran: every correct replica records the same
        digest for every checkpoint, and no checkpoint is ever taken for a
        slot other than the one just executed."""
        system = make_system(checkpoint_interval=1)
        for index in range(0, 32, 4):
            system.invoke(put(skew_key(index), f"v{index}"),
                          client_index=index % 4)
        slow = system.execution_node(1, 0)
        held = []

        def hold_marker_back(source, destination, message):
            if (destination == slow.node_id
                    and not any(message is late for late in held)
                    and isinstance(message, OrderedBatch)
                    and is_map_change(message)):
                # Delivered a little later (within one fetch period, so the
                # replica does not ask its peers for it meanwhile).
                held.append(message)
                system.scheduler.call_after(
                    10.0, lambda: system.network.send(source, destination,
                                                      message))
                return DROP
            return None

        system.network.add_tap(hold_marker_back)
        taken, digests = [], {}
        for node in system.execution_cluster(1):
            def recording(seq, node=node, original=node._take_checkpoint):
                taken.append((seq, node.max_executed))
                original(seq)
                if seq in node.checkpoints.taken:
                    digests.setdefault(seq, {})[node.node_id] = \
                        node.checkpoints.taken[seq].digest
            node._take_checkpoint = recording
        installed_before_marker = []
        original_execute = slow.handoffs.execute

        def execute_marker(change):
            installed_before_marker.append(bool(slow.handoffs.tallies))
            original_execute(change)
        slow.handoffs.execute = execute_marker

        primary = system.agreement_replicas[0]
        assert primary.proposer.propose_map_change(
            MapChange(kind="split", parent_epoch=0, key=skew_key(8), owner=1))
        for index in range(8):
            system.submit(put(skew_key(40 + index), f"after-{index}"),
                          client_index=index % 4)
        system.run(400.0)

        assert installed_before_marker == [True]  # the shares did pre-arrive
        assert slow.handoffs.installed == 1 and slow.epoch == 1
        assert slow.max_executed == system.execution_node(1, 1).max_executed
        assert all(seq == max_executed for seq, max_executed in taken)
        assert digests and all(len(set(by_node.values())) == 1
                               and len(by_node) == 3
                               for by_node in digests.values())


class TestByzantineHandoffSource:
    def test_equivocating_source_replica_buffers_one_blob(self):
        """One Byzantine replica of the losing cluster sends 100 distinct,
        validly MACed handoffs for the awaited range: the gainer keeps one
        blob from it, and installs what the honest ``g + 1`` certify."""
        system = make_system()
        for index in range(0, 32, 4):
            system.invoke(put(skew_key(index), f"v{index}"),
                          client_index=index % 4)
        blocked = system.execution_node(1, 0)
        liar, *honest = system.execution_cluster(0)
        for source in honest:
            system.network.faults.partition(blocked.node_id, source.node_id)
        propose(system, MapChange(kind="split", parent_epoch=0,
                                  key=skew_key(8), owner=1))
        assert blocked._blocked() is blocked.handoffs
        (item,) = blocked.handoffs.awaiting
        (epoch, lo, hi), source_shard = item
        targets = [node.node_id for node in system.execution_cluster(1)]
        for attempt in range(100):
            entries = b"forged-%d" % attempt
            digest = liar.crypto.digest(entries)
            forged = RangeHandoff(
                epoch=epoch, source_shard=source_shard, target_shard=1,
                lo=lo, hi=hi, entries=entries, reply_table=b"",
                state_digest=digest, replica=liar.node_id,
                authenticator=liar.crypto.mac_authenticator(
                    handoff_payload(epoch, lo, hi, source_shard, 1, digest),
                    targets))
            blocked.deliver(liar.node_id, forged, forged.wire_size())
            system.run(1.0)
        assert blocked._blocked() is blocked.handoffs
        assert list(blocked.handoffs.tallies[item]) == [liar.node_id]
        system.network.faults.heal_all()
        system.run(300.0)
        assert blocked._blocked() is None
        assert blocked.handoffs.installed == 1
        assert not blocked.handoffs.tallies
        assert cluster_digests(system, 1) == {blocked.app.state_digest()}


class TestCutAcrossViewChange:
    def test_map_change_cut_survives_a_view_change(self):
        """A split ordered just before the primary dies must survive the
        view change: the NEW-VIEW re-proposal carries the config operation,
        the cut applies exactly once at every live router, and traffic on
        both sides of the new boundary completes under the successor."""
        system = make_system()
        for index in range(0, KEY_SPACE, 8):
            system.invoke(put(skew_key(index), f"v{index}"),
                          client_index=index % 4)
        primary = system.agreement_replicas[0]
        assert primary.proposer.propose_map_change(
            MapChange(kind="split", parent_epoch=0, key=skew_key(8), owner=1))
        registry = system.router.partitioner.registry
        system.run(0.5)            # proposed, but the cut is still in flight
        assert registry.latest_epoch == 0
        system.crash_agreement(0)  # depose the proposer
        # Ordinary traffic escalates to the view change; the NEW-VIEW
        # re-proposal carries the prepared config operation with it.
        record = system.invoke(get(skew_key(16)), timeout_ms=30_000.0)
        assert record.result.value["value"] == "v16"
        system.run_until(lambda: registry.latest_epoch == 1, 30_000.0,
                         description="the cut lands despite the view change")
        system.run(500.0)  # let the view change and handoff settle
        live = [replica for replica in system.agreement_replicas
                if not replica.crashed]
        assert max(replica.view for replica in live) >= 1
        for index, queue in enumerate(system.message_queues):
            if not system.agreement_replicas[index].crashed:
                assert queue.epoch == 1
                assert queue.epoch_cuts == 1  # applied exactly once
        # The moved range serves reads and writes under the new owner.
        system.invoke(put(skew_key(16), "post-cut"), timeout_ms=30_000.0)
        assert system.invoke(
            get(skew_key(16)), timeout_ms=30_000.0
        ).result.value["value"] == "post-cut"
        for shard in range(system.num_shards):
            assert len(cluster_digests(system, shard)) == 1


# ---------------------------------------------------------------------- #
# Exactly-once across automatic split + merge cuts.
# ---------------------------------------------------------------------- #


def assert_exactly_once(system, num_requests):
    """Nothing lost, nothing duplicated, every cluster internally agreed."""
    assert system.total_completed() == num_requests
    assert sum(system.requests_executed_by_shard()) == num_requests
    assert sum(client.misrouted_replies for client in system.clients) == 0
    for shard in range(system.num_shards):
        cluster = system.execution_cluster(shard)
        assert len({node.max_executed for node in cluster}) == 1
        assert len(cluster_digests(system, shard)) == 1


class TestExactlyOnceAcrossCuts:
    def test_every_request_executes_exactly_once(self):
        """Load-triggered cuts while a migrating hotspot is live: every
        submitted request completes, the per-cluster executed totals sum to
        exactly the completed count (nothing lost, nothing duplicated), and
        every cluster's replicas agree on frontier and state."""
        rebalance = RebalanceConfig(enabled=True, check_interval_ms=15.0,
                                    cooldown_ms=40.0, hot_ratio=1.3,
                                    cold_ratio=0.8, min_window_requests=24)
        system = make_system(num_shards=4, rebalance=rebalance,
                             num_clients=16, seed=33)
        num_requests = 1200
        operations = migrating_hot_range_operations(
            num_requests, key_space=KEY_SPACE, num_phases=3,
            hot_key_fraction=0.25, seed=9)
        for index, operation in enumerate(operations):
            system.submit(operation, client_index=index % 16)
        system.run_until(lambda: system.total_completed() == num_requests,
                         timeout_ms=120_000.0,
                         description="all requests complete across cuts")
        system.run(300.0)  # let lagging replicas settle

        # Which cuts the controller proposes depends on where its load
        # windows fall; that it cuts at all under this hotspot does not.
        # The merge direction is driven by hand in the next test.
        assert system.router.partitioner.registry.latest_epoch >= 2
        assert_exactly_once(system, num_requests)

    def test_exactly_once_across_a_split_and_a_merge_under_traffic(self):
        """The same audit with both cut directions forced mid-traffic: a
        split once a quarter of the requests are done, the merge that undoes
        it at half, each racing the batches still in the pipeline."""
        system = make_system(num_shards=4, num_clients=16, seed=33)
        num_requests = 400
        operations = migrating_hot_range_operations(
            num_requests, key_space=KEY_SPACE, num_phases=3,
            hot_key_fraction=0.25, seed=9)
        for index, operation in enumerate(operations):
            system.submit(operation, client_index=index % 16)
        primary = system.agreement_replicas[0]
        registry = system.router.partitioner.registry
        for cut, change in enumerate((
                MapChange(kind="split", parent_epoch=0, key=skew_key(8),
                          owner=1),
                MapChange(kind="merge", parent_epoch=1, key=skew_key(8))),
                start=1):
            system.run_until(
                lambda: system.total_completed() >= cut * num_requests // 4,
                timeout_ms=60_000.0, description="traffic before the cut")
            # The primary refuses while its log window is full.
            system.run_until(lambda: primary.proposer.propose_map_change(change),
                             timeout_ms=60_000.0,
                             description="the primary admits the cut")
            assert system.total_completed() < num_requests
            system.run_until(lambda: registry.latest_epoch == cut,
                             timeout_ms=60_000.0, description="the cut")
        system.run_until(lambda: system.total_completed() == num_requests,
                         timeout_ms=120_000.0,
                         description="all requests complete across cuts")
        system.run(300.0)  # let lagging replicas settle

        assert [registry.map_for(epoch).num_ranges for epoch in range(3)] \
            == [4, 5, 4]
        assert_exactly_once(system, num_requests)

    def test_next_primary_controller_cuts_after_the_primary_dies(self):
        """The controller lives in every replica's queue: once the primary
        that made the first cut dies, its successor's controller proposes
        and cuts the next split of the migrating hotspot by itself."""
        rebalance = RebalanceConfig(enabled=True, check_interval_ms=15.0,
                                    cooldown_ms=40.0, hot_ratio=1.3,
                                    cold_ratio=0.8, min_window_requests=24)
        system = make_system(num_shards=4, rebalance=rebalance,
                             num_clients=16, seed=33)
        num_requests = 1200
        operations = migrating_hot_range_operations(
            num_requests, key_space=KEY_SPACE, num_phases=3,
            hot_key_fraction=0.25, seed=9)
        for index, operation in enumerate(operations):
            system.submit(operation, client_index=index % 16)
        registry = system.router.partitioner.registry
        system.run_until(lambda: registry.latest_epoch >= 1, 60_000.0,
                         description="the first primary's cut")
        cut_before_crash = registry.latest_epoch
        system.crash_agreement(0)
        system.run_until(lambda: system.total_completed() == num_requests,
                         timeout_ms=120_000.0,
                         description="all requests complete after the crash")
        system.run(300.0)

        # Whichever live replica leads at the end (not a name: how many
        # views the failover takes is the view change's business).
        (successor,) = [replica for replica in system.agreement_replicas
                        if replica.is_primary and not replica.crashed]
        assert successor.view >= 1
        index = system.agreement_replicas.index(successor)
        assert system.map_changes()[index].splits_proposed >= 1
        assert registry.latest_epoch > cut_before_crash
        assert_exactly_once(system, num_requests)


# ---------------------------------------------------------------------- #
# Batching satellites: per-shard batch timeouts and controller demotion.
# ---------------------------------------------------------------------- #


def request_cert(timestamp, client=0):
    from repro.config import AuthenticationScheme
    from repro.crypto.certificate import Certificate
    from repro.messages.request import ClientRequest
    from repro.statemachine.interface import Operation
    from repro.util.ids import client_id

    return Certificate(
        payload=ClientRequest(operation=Operation(kind="null", args={}),
                              timestamp=timestamp, client=client_id(client)),
        scheme=AuthenticationScheme.MAC)


class TestPerShardBatchTimeouts:
    def make_batcher(self, **batching):
        config = BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=16,
                                **batching)
        return Batcher(
            controller=AdaptiveBundleController(config),
            classifier=lambda cert: cert.payload.timestamp % 2,
            controller_factory=lambda: AdaptiveBundleController(config),
            demote_idle_ms=config.demote_idle_ms), config

    def heat_shard(self, batcher, shard, now=0.0):
        for round_index in range(6):
            for i in range(4):
                # timestamp parity == shard, so the classifier (t % 2) puts
                # every request of this burst on the shard under test
                timestamp = 2 * (round_index * 4 + i + 1) + shard
                batcher.add(request_cert(timestamp), now=now)
            batcher.take(shard=shard, in_flight=8, now=now)
        while batcher.backlog(shard):  # drain leftovers; heat is in the
            batcher.take(shard=shard, in_flight=8, now=now)  # controller now

    def test_hot_shard_gets_a_longer_fill_window(self):
        batcher, config = self.make_batcher(timeout_scale_max=4.0)
        self.heat_shard(batcher, shard=1)
        batcher.add(request_cert(101), now=10.0)  # hot shard 1, partial
        batcher.add(request_cert(100), now=10.0)  # cold shard 0
        base = 1.0
        hot_deadline = batcher.flush_deadline(1, base)
        cold_deadline = batcher.flush_deadline(0, base)
        assert cold_deadline == pytest.approx(11.0)
        assert hot_deadline > cold_deadline
        assert hot_deadline <= 10.0 + base * config.timeout_scale_max + 1e-9
        # Only the cold shard is due at the base timeout.
        assert batcher.due_shards(11.0, base) == [0]
        assert 1 in batcher.due_shards(10.0 + 4.0, base)

    def test_scale_one_keeps_base_window(self):
        batcher, _ = self.make_batcher(timeout_scale_max=1.0)
        self.heat_shard(batcher, shard=1)
        batcher.add(request_cert(101), now=10.0)
        assert batcher.flush_deadline(1, 1.0) == pytest.approx(11.0)

    def test_idle_shard_controller_demotes_to_shared(self):
        batcher, _ = self.make_batcher(demote_idle_ms=50.0)
        self.heat_shard(batcher, shard=1, now=0.0)
        assert batcher.controller_for(1) is not batcher.controller
        assert batcher.bundle_size_for(1) > 1
        # A lone request after a long idle period: the private controller is
        # forgotten and the shard is governed by the shared low-load
        # controller again (bundle size back to the minimum).
        batcher.add(request_cert(201), now=100.0)
        assert batcher.controller_for(1) is batcher.controller
        assert batcher.bundle_size_for(1) == 1
        assert batcher.demotions == 1

    def test_no_demotion_while_active(self):
        batcher, _ = self.make_batcher(demote_idle_ms=50.0)
        self.heat_shard(batcher, shard=1, now=0.0)
        batcher.add(request_cert(201), now=30.0)  # within the idle horizon
        assert batcher.controller_for(1) is not batcher.controller

    def test_end_to_end_with_per_shard_timeouts(self):
        """The full system with stretched fill windows and demotion enabled
        still answers everything (behavioural smoke: the satellites must
        not wedge the batch timer)."""
        system = make_system(
            batching=BatchingConfig(mode="adaptive", min_bundle=1,
                                    max_bundle=16, timeout_scale_max=4.0,
                                    demote_idle_ms=100.0))
        for index in range(0, 24, 2):
            record = system.invoke(put(skew_key(index), f"v{index}"),
                                   client_index=index % 4)
            assert record.result.value["stored"]
