"""Multi-log ordering tests.

The safety-critical properties of the partitioned ordering plane:

* a cross-group marker (multi-shard read or write transaction spanning log
  groups) is released at one cross-log cut even when a touched log changes
  view mid-coordination -- the marker commits atomically under the new
  primary or not at all;
* every queue certifies the cut itself from ``f + 1`` matching bindings per
  other touched log, so one lying log member can neither misplace a marker
  nor move a shard frontier, and garbage bindings are counted, not raised;
* a queue that missed bindings asks for them and is served whatever the
  arrival order was, and a binding never causes a send -- released queues
  cannot answer each other forever;
* a shard moving between log groups (`propose_log_map_change`) preserves
  exactly-once execution for traffic racing the move -- the epoch-versioned
  LogMap cut retargets clients and execution feeds without re-executing or
  losing any request;
* the `multilog` fuzz scenario replays bit-identically, so adversarial
  schedules over the coordination machinery are corpus material;
* proactive primary rotation (the `rotation_interval_checkpoints` knob)
  rotates every log's primary on schedule without deposing anyone and
  without costing more than the failover SLO in throughput.
"""

from __future__ import annotations

import dataclasses
import functools
from pathlib import Path

import pytest

from conftest import CHEAP_CRYPTO, FAST_TIMERS
from repro.apps.kvstore import KeyValueStore, get, put, transaction
from repro.config import AuthenticationScheme, CrossShardConfig, SystemConfig
from repro.crypto.certificate import Certificate
from repro.messages.agreement import AgreementCheckpoint, OrderedBatch
from repro.faults import FaultInjector, FaultPlan
from repro.net.faults import LinkFault
from repro.fuzz import FaultSchedule, ScheduleEvent, load_corpus, run_schedule
from repro.fuzz.harness import ScenarioSpec
from repro.fuzz.oracles import ExactlyOnceOracle
from repro.multilog import (CrossLogBinding, CrossLogBindingBody,
                            CrossLogBindingFetch, CrossLogRound)
from repro.multilog.messages import LogMapChange
from repro.multilog.queue import BOUND_RETENTION
from repro.net.network import DROP
from repro.sharding import ShardedSystem
from repro.sharding.queue import ShardRouterQueue
from repro.workloads import equal_range_boundaries, seed_operations
from repro.workloads.crossshard import audit_key
from repro.workloads.skew import skew_key

CORPUS_DIR = Path(__file__).parent.parent / "benchmarks" / "fuzz_corpus"
KEY_SPACE = 64
NUM_LOGS = 2
NUM_SHARDS = 4


def make_system(num_logs=NUM_LOGS, num_shards=NUM_SHARDS, num_clients=4,
                seed=33, **overrides):
    kwargs = dict(
        num_clients=num_clients, pipeline_depth=16, checkpoint_interval=8,
        bundle_size=1, timers=FAST_TIMERS, crypto=CHEAP_CRYPTO,
        cross_shard=CrossShardConfig(enabled=True))
    kwargs.update(overrides)
    config = SystemConfig.multilog_sharded(
        num_logs=num_logs, num_shards=num_shards, strategy="range",
        range_boundaries=equal_range_boundaries(KEY_SPACE, num_shards),
        **kwargs)
    return ShardedSystem(config, KeyValueStore, seed=seed)


def seed_system(system):
    for operation in seed_operations(KEY_SPACE, system.num_shards):
        system.invoke(operation)


def cross_group_txn(stamp, num_shards=NUM_SHARDS):
    """A write-only transaction stamping every shard's audit key."""
    return transaction(reads={}, writes={
        audit_key(KEY_SPACE, num_shards, shard): stamp
        for shard in range(num_shards)})


def audit_value(system, shard):
    """The audit stamp on every correct replica of ``shard`` (must agree)."""
    key = audit_key(KEY_SPACE, system.num_shards, shard)
    values = {node.app.snapshot().get(key)
              for node in system.execution_cluster(shard) if not node.crashed}
    assert len(values) == 1, f"replicas of shard {shard} diverge on {key!r}"
    return values.pop()


def all_queues(system):
    return list(system.message_queues)


def key_on(system, shard):
    """A key owned by ``shard`` at log epoch 0."""
    return skew_key((KEY_SPACE * (2 * shard + 1)) // (2 * system.num_shards))


# ---------------------------------------------------------------------- #
# Construction and single-group flow.
# ---------------------------------------------------------------------- #


def _corpus_seed(scenario_name):
    """The first committed corpus seed aimed at ``scenario_name``."""
    return next(schedule for schedule in load_corpus(CORPUS_DIR)
                if schedule.scenario == scenario_name)


class TestConstruction:
    def test_one_log_is_the_plain_sharded_deployment(self):
        system = make_system(num_logs=1, num_shards=2)
        assert system.num_logs == 1
        assert system.log_replicas == [system.agreement_replicas]
        assert all(type(queue) is ShardRouterQueue
                   for queue in all_queues(system))
        # One log: every shard is its, and its round has nobody to bind
        # for and no log to stamp on the wire.
        assert all(client.log_of_shard(shard) == 0
                   for client in system.clients for shard in range(2))
        assert all(queue.cross_log.peer_ids == []
                   and queue.cross_log.stamp is None
                   for queue in all_queues(system))
        assert not system.propose_log_map_change(shard=1, target_log=0)
        record = system.invoke(cross_group_txn("one-log", num_shards=2))
        assert record.result.value.get("committed") is True
        assert all(client.log_retargets == 0 for client in system.clients)

    def test_a_log_map_change_at_one_log_moves_nothing(self):
        """A primary may order a log-map change directly, as a Byzantine
        one could: with one log every queue rejects it and answers its slot
        vacuously, and no execution replica changes its upstream."""
        system = make_system(num_logs=1, num_shards=2)
        seed_system(system)
        nodes = [node for cluster in system.shard_execution_nodes
                 for node in cluster]
        upstreams = [list(node.upstream) for node in nodes]
        primary = system.log_primary(0)
        changes = [LogMapChange(shard=1, target_log=0, parent_log_epoch=0),
                   LogMapChange(shard=0, target_log=1, parent_log_epoch=0)]
        for rejected, change in enumerate(changes, start=1):
            assert primary.proposer.propose_map_change(change)
            seq = primary.next_seq - 1
            system.run_until(
                lambda: all(queue.seq_answered(seq)
                            for queue in all_queues(system)),
                5_000.0, "every queue answering the change's slot")
            assert all(queue.cross_log.log_map_changes_rejected == rejected
                       and queue.cross_log.log_map_cuts == 0
                       and queue.cross_log.log_epoch == 0
                       for queue in all_queues(system))
        assert system.log_registry.latest_epoch == 0
        assert [list(node.upstream) for node in nodes] == upstreams
        assert all(node.log_map_epoch == 0 for node in nodes)
        record = system.invoke(put(key_on(system, 1), "after"))
        assert record.result.error is None

    @pytest.mark.parametrize("scenario_name",
                             ["sharded", "rebalance", "crossshard"])
    def test_one_log_config_replays_to_the_sharded_digest(self, scenario_name,
                                                          monkeypatch):
        """The number of logs is a parameter, not a class: a deployment
        described as ``multilog_sharded(num_logs=1, ...)`` is
        indistinguishable, event for event, from ``sharded(...)``."""
        schedule = _corpus_seed(scenario_name)
        scenario_config = ScenarioSpec.make_config

        def through(build):
            def make_config(spec):
                base = scenario_config(spec)
                overrides = {
                    field.name: getattr(base, field.name)
                    for field in dataclasses.fields(base)
                    if field.name not in ("sharding", "multilog")}
                return build(base.sharding.num_shards, base.sharding.strategy,
                             base.sharding.range_boundaries, **overrides)
            return make_config

        digests = []
        for build in (SystemConfig.sharded,
                      functools.partial(SystemConfig.multilog_sharded, 1)):
            monkeypatch.setattr(ScenarioSpec, "make_config", through(build))
            digests.append(run_schedule(schedule).replay_digest)
        assert digests[0] == digests[1]

    def test_single_group_requests_stay_in_their_log(self):
        system = make_system()
        record = system.invoke(put(key_on(system, 0), "a"))
        assert record.result.error is None
        record = system.invoke(put(key_on(system, 3), "b"))
        assert record.result.error is None
        assert system.invoke(get(key_on(system, 0))).result.value["value"] == "a"
        assert system.invoke(get(key_on(system, 3))).result.value["value"] == "b"
        # Neither request spanned log groups, so no coordination ran.
        assert all(queue.cross_log_markers == 0 for queue in all_queues(system))

    def test_only_a_request_crossing_log_groups_is_coordinated(self):
        system = make_system()
        seed_system(system)
        # Shards 0 and 1 both belong to log 0: a multi-shard marker, bound
        # like any other, but released without waiting for anybody.
        record = system.invoke(transaction(reads={}, writes={
            audit_key(KEY_SPACE, NUM_SHARDS, shard): "in-group"
            for shard in (0, 1)}))
        assert record.result.value.get("committed") is True
        assert all(queue.cross_log_markers == 0 for queue in all_queues(system))
        record = system.invoke(cross_group_txn("across"))
        assert record.result.value.get("committed") is True
        system.run(500.0)
        assert all(queue.cross_log_markers == 1 for queue in all_queues(system))
        # Fault-free, every binding arrives by itself: nobody asks.
        assert all(queue.cross_log.bindings_served == 0
                   and queue.cross_log.bindings_rejected == 0
                   for queue in all_queues(system))

    def test_each_queue_asks_the_batch_question_once_per_batch(self):
        """Staging, the cross-log round's hold and release read one router
        answer per batch (the epoch never moves under multi-log ordering)."""
        system = make_system()
        router = system.router
        asked = [0] * len(system.message_queues)

        class Counting:
            def __init__(self, index):
                self.index = index

            def __getattr__(self, name):
                return getattr(router, name)

            def route(self, certificates, epoch):
                asked[self.index] += 1
                return router.route(certificates, epoch)

        for index, queue in enumerate(system.message_queues):
            queue.router = Counting(index)
        seed_system(system)
        for stamp in ("first", "second"):
            assert system.invoke(cross_group_txn(stamp)).result.value.get(
                "committed") is True
        system.run(500.0)
        for queue, count in zip(system.message_queues, asked):
            assert queue.cross_log_markers == 2
            assert 0 < count <= queue._released_seq + len(queue._staged)


# ---------------------------------------------------------------------- #
# Marker atomicity across a view change in one touched log.
# ---------------------------------------------------------------------- #


class TestViewChangeAtomicity:
    def test_cross_group_txn_survives_view_change_in_touched_log(self):
        system = make_system()
        seed_system(system)
        client = system.clients[0]
        before = len(client.completed)
        # Crash log 1's primary before the marker arrives: log 1 can only
        # order its leg of the marker after a view change, so the cut is
        # necessarily assembled across the old view (log 0's binding) and
        # the new one (log 1's), and the view change is guaranteed.
        system.crash_agreement(0, log=1)  # the primary of log 1's view 0
        client.submit(cross_group_txn("vc-stamp"))
        system.run_until(lambda: len(client.completed) == before + 1, 30_000.0,
                         "cross-group txn after view change")
        record = client.completed[-1]
        assert record.result.error is None
        assert record.result.value.get("committed") is True
        # Atomic release: every shard of every group applied the stamp,
        # and replicas within each shard agree.
        for shard in range(system.num_shards):
            assert audit_value(system, shard) == "vc-stamp"
        # The touched log really did change view.
        survivors = [replica for replica in system.log_replicas[1]
                     if not replica.crashed]
        assert max(replica.view for replica in survivors) > 0


# ---------------------------------------------------------------------- #
# Ask and serve: a queue that missed bindings asks; nobody else sends.
# ---------------------------------------------------------------------- #


def cross_log_sends(system):
    return sum(entry["sends"]
               for name, entry in system.network.stats.census().items()
               if name.startswith("CrossLog"))


def cut_off_victim(system, heal_ms, own_delay_ms=0.0):
    """Drop log 0's cross-log traffic to one log-1 backup for ``heal_ms``
    (and optionally slow the victim's own links to log 0); returns the
    victim and the virtual time of the heal."""
    victim = next(replica for replica in system.log_replicas[1]
                  if not replica.is_primary)
    log0 = {replica.node_id for replica in system.log_replicas[0]}
    heal_at = system.now + heal_ms

    def tap(source, destination, message):
        if (source in log0 and destination == victim.node_id
                and type(message).__name__.startswith("CrossLog")
                and system.now < heal_at):
            return DROP
        return None

    system.network.add_tap(tap)
    if own_delay_ms:
        plan = FaultPlan()
        for replica in system.log_replicas[0]:
            plan.link_fault(victim.node_id, replica.node_id,
                            LinkFault(extra_delay_ms=own_delay_ms), at_ms=0.0)
        FaultInjector(system).install(plan)
    return victim, heal_at


class TestAskAndServe:
    @pytest.mark.parametrize("heal_ms", [30.0, 150.0, 300.0])
    def test_no_answer_storm_after_a_heal(self, heal_ms):
        system = make_system()
        seed_system(system)
        victim, heal_at = cut_off_victim(system, heal_ms)
        record = system.invoke(cross_group_txn("storm"), timeout_ms=30_000.0)
        assert record.result.value.get("committed") is True
        system.run_until(
            lambda: system.now >= heal_at and not victim.local.cross_log._held,
            5_000.0, "the victim releasing after the heal")
        assert victim.local.cross_log_markers == 1
        assert sum(queue.cross_log.bindings_served for queue in all_queues(system)) > 0
        # Released queues have nothing left to say to each other: a binding
        # never causes a send, so the idle system stays idle.
        system.run(30_000.0)
        assert cross_log_sends(system) < 100
        for shard in range(system.num_shards):
            assert audit_value(system, shard) == "storm"

    def test_nobody_is_stranded_by_arrival_order(self):
        system = make_system()
        seed_system(system)
        # The victim's own bindings reach log 0 late, after log 0's queues
        # already certified log 1 on the other replicas' f + 1: who gets
        # served must not depend on whose copy came first.
        victim, heal_at = cut_off_victim(system, 150.0, own_delay_ms=5.0)
        record = system.invoke(cross_group_txn("late"), timeout_ms=30_000.0)
        assert record.result.value.get("committed") is True
        system.run_until(lambda: system.now >= heal_at + 1_000.0, 5_000.0)
        assert [queue.owner.node_id for queue in all_queues(system)
                if queue.cross_log._held] == []
        assert victim.local.cross_log_markers == 1

    def test_a_binding_timer_that_outlives_its_hold_asks_nobody(self):
        """A hold's timer that came due while its node was busy waits in the
        inbox and may run after the hold was released (seen on the asyncio
        backend): it finds no hold, and sends and re-arms nothing."""
        system = make_system()
        seed_system(system)
        system.invoke(cross_group_txn("outlived"))
        system.run(50.0)
        for queue in all_queues(system):
            released = queue.cross_log._released
            assert released and not queue.cross_log._held
            retransmissions = queue.retransmissions
            queue.cross_log._on_binding_retransmit(next(iter(released)))
            assert queue.retransmissions == retransmissions
        assert "CrossLogBindingFetch" not in system.network.stats.census()

    def test_a_fetch_costs_at_most_one_binding(self):
        system = make_system()
        seed_system(system)
        system.invoke(cross_group_txn("fetch"))
        server, asker, bystander = (system.log_replicas[0][1],
                                    system.log_replicas[1][1],
                                    system.log_replicas[1][2])
        marker = next(iter(server.local.cross_log._bound))
        idle = cross_log_sends(system)
        client = system.clients[0]
        refused = [
            # a marker nobody bound, and one that is not a marker at all
            (asker, CrossLogBindingFetch(marker=("xs", "C9", 99),
                                         sender=asker.node_id)),
            (asker, CrossLogBindingFetch(marker=("xs", ["C0"], 1),
                                         sender=asker.node_id)),
            # not an agreement replica
            (client, CrossLogBindingFetch(marker=marker,
                                          sender=client.node_id)),
            # naming somebody else as the asker
            (asker, CrossLogBindingFetch(marker=marker,
                                         sender=bystander.node_id)),
        ]
        for source, fetch in refused:
            source.send(server.node_id, fetch)
        system.run(50.0)
        assert cross_log_sends(system) == idle + len(refused)
        assert server.local.cross_log.bindings_served == 0
        for _ in range(5):
            asker.send(server.node_id, CrossLogBindingFetch(
                marker=marker, sender=asker.node_id))
        system.run(50.0)
        # Five fetches, five bindings, all to the asker -- and none of
        # them made the asker (which released long ago) say anything.
        assert server.local.cross_log.bindings_served == 5
        assert cross_log_sends(system) == idle + len(refused) + 10


    def test_a_checkpoint_sync_past_a_held_marker_ends_the_hold(self):
        system = make_system()
        seed_system(system)
        # Log 1 cannot commit its leg without 2f + 1 replicas: log 0 holds.
        for replica in system.log_replicas[1][:2]:
            replica.crash()
        system.clients[0].submit(cross_group_txn("synced"))
        queue = system.log_replicas[0][1].local
        system.run_until(lambda: bool(queue.cross_log._held), 5_000.0,
                         "log 0 holding")
        (marker, hold), = queue.cross_log._held.items()
        # The rest of log 0 moved on and certified a checkpoint: the batch
        # is released as far as this queue is concerned, and it must stop
        # asking for it.
        queue.sync_to_checkpoint(hold.seq, ())
        assert not queue.cross_log._held and not hold.fetch.timer.active
        # still servable
        assert queue.cross_log._bound[marker].body.seq == hold.seq


# ---------------------------------------------------------------------- #
# Byzantine log members: lies do not certify, garbage does not raise.
# ---------------------------------------------------------------------- #


def make_liar(replica, **lie):
    """``replica`` binds every marker to ``seq + 1`` (and ``lie``), under
    its own valid MACs."""
    honest_emit = replica.local.cross_log._emit_binding

    def emit(key, body):
        honest_emit(key, dataclasses.replace(body, seq=body.seq + 1, **lie))

    replica.local.cross_log._emit_binding = emit


@pytest.fixture
def certified_at_release(monkeypatch):
    """``{queue's node: {log: certified body}}`` of every hold released."""
    seen = {}
    finish = CrossLogRound.finish

    def record(round_, key):
        hold = round_._held.get(key)
        if hold is not None:
            seen[round_.queue.owner.node_id] = dict(round_._certified[key])
        finish(round_, key)

    monkeypatch.setattr(CrossLogRound, "finish", record)
    return seen


class TestLyingLogMember:
    def test_one_liar_cannot_place_a_client_marker(self, certified_at_release):
        system = make_system()
        seed_system(system)
        liar, honest = system.log_replicas[0][1], system.log_replicas[0][2]
        make_liar(liar)
        record = system.invoke(cross_group_txn("lie"), timeout_ms=30_000.0)
        assert record.result.value.get("committed") is True
        system.run(500.0)
        (marker, bound), = honest.local.cross_log._bound.items()
        assert liar.local.cross_log._bound[marker].body.seq == bound.body.seq + 1
        for replica in system.log_replicas[1]:
            assert certified_at_release[replica.node_id] == {0: bound.body}
        assert all(queue.cross_log_markers == 1 and not queue.cross_log._held
                   for queue in all_queues(system))
        for shard in range(system.num_shards):
            assert audit_value(system, shard) == "lie"
        assert ExactlyOnceOracle().check(system, completed_all=True) == []

    def test_one_liar_cannot_move_a_shard_frontier(self, certified_at_release):
        system = make_system()
        seed_system(system)
        moving = 1  # owned by log 0; the liar is a member of the source log
        for index in range(6):
            system.invoke(put(key_on(system, moving), f"before{index}"))
        liar, honest = system.log_replicas[0][1], system.log_replicas[0][2]
        make_liar(liar, shard_frontier=1_000)
        assert system.propose_log_map_change(moving, 1)
        system.run_until(
            lambda: all(queue.cross_log.log_epoch == 1
                        and not queue.cross_log._held
                        for queue in all_queues(system)),
            30_000.0, "the log-map cut")
        (marker, bound), = honest.local.cross_log._bound.items()
        assert liar.local.cross_log._bound[marker].body.shard_frontier == 1_000
        for replica in system.log_replicas[1]:
            assert certified_at_release[replica.node_id] == {0: bound.body}
            assert (replica.local._next_shard_seq[moving]
                    == bound.body.shard_frontier)
        # The moved shard's order continues gap-free under its new log.
        record = system.invoke(put(key_on(system, moving), "after"))
        assert record.result.error is None
        assert system.invoke(
            get(key_on(system, moving))).result.value["value"] == "after"
        assert ExactlyOnceOracle().check(system, completed_all=True) == []


class TestBindingAdmission:
    def _binding(self, sender, **fields):
        body = CrossLogBindingBody(**{
            "marker": ("xs", "C0", 1), "log": 0, "seq": 3, **fields})
        return CrossLogBinding(
            body=body, sender=sender.node_id,
            certificate=sender.crypto.new_certificate(
                body, AuthenticationScheme.MAC, []))

    def _unencodable(self, sender, **fields):
        """A binding no codec can encode (so no peer can send it): the
        sender's authenticator is over a well-typed body."""
        binding = self._binding(sender)
        return dataclasses.replace(
            binding, body=dataclasses.replace(binding.body, **fields),
            certificate=binding.certificate.with_payload(None))

    def test_ill_typed_bindings_are_counted_not_raised(self):
        system = make_system()
        sender, target = system.log_replicas[0][1], system.log_replicas[1][1]
        garbage = [
            self._unencodable(sender, log="0"),
            self._unencodable(sender, seq=None),
            self._binding(sender, shard_frontier=True),
            self._binding(sender, marker=("xs", ["C0"], 1)),  # unhashable
            self._binding(sender, marker=("xs", "C0")),
            self._binding(sender, log=1),  # not a member of the log it names
            dataclasses.replace(self._binding(sender),
                                sender=system.log_replicas[0][2].node_id),
            # no authenticator of the sender's own, or somebody else's
            # filed under the sender's name
            dataclasses.replace(self._binding(sender), certificate=Certificate(
                payload=None, scheme=AuthenticationScheme.MAC)),
            dataclasses.replace(self._binding(sender), certificate=Certificate(
                payload=None, scheme=AuthenticationScheme.MAC,
                authenticators={sender.node_id: self._binding(
                    target).certificate.authenticators[target.node_id]})),
        ]
        # handed to the queue as its replica would, after a delivery
        for binding in garbage:
            target.local.on_unknown_message(sender.node_id, binding)
        system.run(50.0)
        assert target.local.cross_log.bindings_rejected == len(garbage)
        assert not any(target.local.cross_log._tallies.values())
        assert cross_log_sends(system) == 0  # nobody answered

    def test_one_sender_cannot_fill_the_tally(self):
        system = make_system()
        seed_system(system)
        flooder, target = system.log_replicas[0][1], system.log_replicas[1][1]
        for stamp in range(1, 5_001):
            flooder.send(target.node_id,
                         self._binding(flooder, marker=("xs", "C9", stamp)))
        system.run(50.0)
        tallies = target.local.cross_log._tallies
        assert len(tallies[flooder.node_id]) == BOUND_RETENTION
        assert target.local.cross_log.bindings_rejected == 0
        # ... and evicted only itself: the honest members' bindings of a
        # real marker are all there when it reaches the release head, so
        # nobody has to ask.
        record = system.invoke(cross_group_txn("flooded"))
        assert record.result.value.get("committed") is True
        system.run(500.0)
        assert all(len(tally) <= BOUND_RETENTION
                   for tally in tallies.values())
        assert sum(queue.cross_log.bindings_served for queue in all_queues(system)) == 0


# ---------------------------------------------------------------------- #
# Exactly-once across a shard moving between log groups.
# ---------------------------------------------------------------------- #


class TestLogMapChange:
    def test_exactly_once_across_shard_move(self):
        system = make_system()
        seed_system(system)
        moving = 1  # owned by log 0 initially; moves to log 1
        clients = system.clients
        # Traffic over the moving shard (distinct values, so the final
        # state pins down which writes executed) plus other-shard noise.
        operations = []
        for index in range(40):
            shard = (moving, 0, 3)[index % 3]
            operations.append((shard, put(key_on(system, shard), f"v{index}")))
        for index, (shard, operation) in enumerate(operations):
            # One client owns the moving shard's writes, so their commit
            # order (and thus the key's final value) is the submission
            # order; the rest spread the noise traffic.
            if shard == moving:
                clients[0].submit(operation)
            else:
                clients[1 + index % (len(clients) - 1)].submit(operation)
        system.run(5.0)
        moved = False
        deadline = system.now + 20_000.0
        while not moved and system.now < deadline:
            moved = system.propose_log_map_change(moving, 1)
            if not moved:
                system.run(10.0)
        assert moved, "log-map change was never accepted"
        expected = len(seed_operations(KEY_SPACE, system.num_shards)) + len(
            operations)
        system.run_until(lambda: system.total_completed() >= expected,
                         30_000.0, "traffic across the shard move")
        system.run(500.0)  # quiesce retransmissions
        # The LogMap advanced one epoch and every queue reached it.
        assert system.log_registry.latest.log_of(moving) == 1
        assert all(queue.cross_log.log_epoch == 1
                   for queue in all_queues(system))
        # Exactly-once: the oracle audits duplicate completions and
        # replies no cluster stands behind.
        violations = ExactlyOnceOracle().check(system, completed_all=True)
        assert violations == [], [v.detail for v in violations]
        # The moved shard's replicas agree on the last committed write.
        last_value = f"v{max(i for i in range(40) if i % 3 == 0)}"
        values = {node.app.snapshot().get(key_on(system, moving))
                  for node in system.execution_cluster(moving)
                  if not node.crashed}
        assert values == {last_value}
        # And the new owner serves reads for the moved shard.
        record = system.invoke(get(key_on(system, moving)))
        assert record.result.value["value"] == last_value

    def test_the_moved_shards_slots_continue_gap_free(self):
        """The target log routes past the change only with the source
        log's certified frontier: while the source's bindings are lost, the
        target's writes to the moved shard wait (their COMMITs have no
        route yet), and once the frontier arrives the moved shard's
        certified parts are slots 1, 2, ... with no gap and no slot given
        twice -- the source log's up to the change's own part, the target
        log's after it."""
        system = make_system()
        moving = 1  # owned by log 0 initially; moves to log 1
        source = {replica.node_id for replica in system.log_replicas[0]}
        target = {replica.node_id for replica in system.log_replicas[1]}
        lose_bindings = [True]
        parts = {}

        def tap(sender, destination, message):
            if isinstance(message, OrderedBatch):
                body = message.cert_body
                slot = dict(body.route).get(moving)
                if slot is not None:
                    parts.setdefault(slot, set()).add((body.log, body.seq))
            elif (lose_bindings[0] and isinstance(message, CrossLogBinding)
                    and sender in source and destination in target):
                return DROP
            return None

        system.network.add_tap(tap)
        seed_system(system)
        for index in range(4):
            system.invoke(put(key_on(system, moving), f"before{index}"))
        assert system.propose_log_map_change(moving, 1)
        target_queues = [replica.local for replica in system.log_replicas[1]]
        system.run_until(lambda: all(queue.cross_log.log_epoch == 1
                                     for queue in target_queues),
                         30_000.0, "the target log routing the change")
        for index in range(2):
            system.clients[index].submit(put(key_on(system, moving), f"during{index}"))
        system.run(100.0)
        assert all(queue.cross_log.awaiting is not None for queue in target_queues)
        lose_bindings[0] = False
        system.run_until(lambda: system.total_completed() >= len(
            seed_operations(KEY_SPACE, system.num_shards)) + 6,
            30_000.0, "the writes waiting for the frontier")
        for index in range(4):
            system.invoke(put(key_on(system, moving), f"after{index}"))
        system.run(200.0)
        assert sorted(parts) == list(range(1, len(parts) + 1))
        assert all(len(owners) == 1 for owners in parts.values())
        logs = [next(iter(parts[slot]))[0] for slot in sorted(parts)]
        assert logs[0] == 0 and logs[-1] == 1 and logs == sorted(logs)
        for node in system.execution_cluster(moving):
            assert node.max_executed == len(parts)
        assert {queue.cross_log.awaiting for queue in all_queues(system)} == {None}
        assert ExactlyOnceOracle().check(system, completed_all=True) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_change_behind_a_held_marker_binds_when_routed(self, seed):
        """Corpus schedule 6a11dfd74c7d at other system seeds: one log
        orders a log-map change ahead of a cross-group marker, the other
        behind it.  Bound only at its release head, the change waited
        behind the marker, whose other log could not order it while its own
        release held the change -- a cycle every one of these seeds fell
        into.  Bound when routed (routing never waits on a hold), it cuts."""
        schedule = next(schedule for schedule in load_corpus(CORPUS_DIR)
                        if schedule.digest().startswith("6a11dfd74c7d"))
        result = run_schedule(dataclasses.replace(schedule, seed=seed))
        assert result.completed_all and result.ok, result.violations
        assert result.stats["log_epoch"] == 1
        assert result.stats["cross_log_markers"] > 0


class TestSnapshotGroupsOfTheReadsEpoch:
    """The snapshot oracle's per-group promise is judged under the log map
    a read executed under.  A read released before a log-map change
    (shards 0-1 on log 0, shard 2 on log 1) and stamped 3, 3, 2 is whole
    under that map, though the map after the change puts all three shards
    on log 0 -- the shape corpus schedule 6a11dfd74c7d reached at system
    seed 5."""

    KEYS = ("a-x-aud", "b-x-aud", "c-x-aud")

    def _oracle(self, groups, stamps):
        from types import SimpleNamespace

        from repro.apps.kvstore import multi_get
        from repro.core.client import CompletedRequest
        from repro.fuzz.oracles import SnapshotConsistencyOracle
        from repro.multilog.logmap import LogMap
        from repro.statemachine.interface import OperationResult
        from repro.util.epochs import EpochRegistry

        registry = EpochRegistry(LogMap(epoch=0, assignment=(0, 0, 1, 1),
                                        num_logs=2))
        registry.append(registry.latest.move(2, 0))
        record = CompletedRequest(
            timestamp=9, operation=multi_get(list(self.KEYS)),
            result=OperationResult(value={"values": dict(zip(self.KEYS, stamps))}),
            issued_at_ms=0.0, completed_at_ms=1.0, seq=20, view=0,
            groups=tuple(enumerate(groups)))
        system = SimpleNamespace(
            config=SimpleNamespace(multilog=SimpleNamespace(enabled=True)),
            router=SimpleNamespace(partitioner=SimpleNamespace(
                shard_of_key={key: shard for shard, key in enumerate(self.KEYS)}.get)),
            log_registry=registry, clients=[SimpleNamespace(completed=[record])])
        return SnapshotConsistencyOracle().check(system)

    def test_whole_under_its_own_epoch(self):
        assert self._oracle(groups=(0, 0, 1), stamps=(3, 3, 2)) == []

    def test_a_tear_inside_one_group_of_its_epoch_still_fires(self):
        assert self._oracle(groups=(0, 0, 1), stamps=(3, 2, 2))
        assert self._oracle(groups=(0, 0, 0), stamps=(3, 3, 2))

    def test_groups_of_no_epoch_fire(self):
        assert self._oracle(groups=(1, 0, 1), stamps=(3, 3, 3))


# ---------------------------------------------------------------------- #
# Checkpoints while the release frontier holds.
# ---------------------------------------------------------------------- #


def frontier(replica):
    queue = replica.local
    return list(queue._next_shard_seq), queue.cross_log.log_epoch


class TestCheckpointAcrossAHold:
    def test_a_checkpoint_above_a_held_frontier_certifies_its_routed_state(self):
        system = make_system()
        votes = {}

        def record(source, destination, message):
            if isinstance(message, AgreementCheckpoint):
                votes[(source, message.seq)] = dict(message.sync_state)

        system.network.add_tap(record)
        # Log 1 cannot commit its leg without 2f + 1 replicas: log 0 holds
        # the marker at its release head while it keeps committing.
        for replica in system.log_replicas[1][:2]:
            replica.crash()
        system.clients[0].submit(cross_group_txn("held"))
        for index in range(12):
            system.clients[1 + index % 3].submit(
                put(key_on(system, index % 2), f"v{index}"))
        system.run(400.0)
        for replica in system.log_replicas[0]:
            queue = replica.local
            assert queue.cross_log._held
            stable = replica.log.stable_seq
            # Routing (and so checkpointing) runs past a release hold, and
            # a vote describes the routed cut it names, so the quorum
            # certifies the frontier a lagging replica adopts.
            assert stable > queue._released_seq
            assert votes[(replica.node_id, stable)]["frontiers"]

    def test_a_lagging_replica_adopts_the_frontier_it_missed(self):
        timers = dataclasses.replace(FAST_TIMERS, client_retransmit_ms=10_000.0)
        system = make_system(timers=timers)
        seed_system(system)
        victim = system.log_replicas[0][3]
        log0 = {replica.node_id for replica in system.log_replicas[0]}
        log1 = {replica.node_id for replica in system.log_replicas[1]}
        cut_off = {"victim": True, "bindings": True}

        def tap(source, destination, message):
            # The victim hears checkpoint votes only; log 0 hears no binding
            # from log 1, so it holds the marker while committing behind it.
            name = type(message).__name__
            if (cut_off["victim"] and destination == victim.node_id
                    and name != "AgreementCheckpoint"):
                return DROP
            if (cut_off["bindings"] and source in log1 and destination in log0
                    and name == "CrossLogBinding"):
                return DROP
            return None

        system.network.add_tap(tap)
        primary = system.log_primary(0)
        behind = primary.next_seq - 1
        interval = system.config.checkpoint_interval
        cut = (behind // interval + 1) * interval
        # The marker and the puts behind it fill log 0 up to the next
        # checkpoint exactly, so the victim misses nothing after it.
        system.clients[0].submit(cross_group_txn("lag"))
        for index in range(cut - behind - 1):
            system.clients[1 + index % 3].submit(
                put(key_on(system, index % 2), f"w{index}"))
        system.run_until(lambda: primary.log.last_delivered_seq == cut,
                         5_000.0, "log 0 committing behind the held marker")
        system.run(100.0)
        cut_off["bindings"] = False
        system.run_until(lambda: victim.log.stable_seq >= cut, 5_000.0,
                         "the victim adopting the checkpoint")
        assert victim.checkpoint_syncs == 1
        cut_off["victim"] = False
        for index in range(6):
            system.invoke(put(key_on(system, index % 2), f"after{index}"),
                          client_index=1 + index % 3, timeout_ms=5_000.0)
        system.run(1_000.0)
        peers = [frontier(replica) for replica in system.log_replicas[0]
                 if replica is not victim]
        assert peers == [peers[0]] * len(peers)
        assert frontier(victim) == peers[0]


# ---------------------------------------------------------------------- #
# Fuzz scenario: bit-identical replay over the coordination machinery.
# ---------------------------------------------------------------------- #

MULTILOG_SCHEDULE = FaultSchedule(
    scenario="multilog", seed=3, workload_seed=5, num_requests=30,
    events=(ScheduleEvent(kind="crash", at_ms=20.0, duration_ms=120.0,
                          node="agreement:1"),
            ScheduleEvent(kind="log_move", at_ms=60.0, key_index=1,
                          owner=1)))


class TestMultilogFuzzScenario:
    def test_schedule_completes_with_invariants(self):
        result = run_schedule(MULTILOG_SCHEDULE)
        assert result.completed_all
        assert result.ok, [v.to_json_dict() for v in result.violations]
        # The schedule exercised the coordination machinery, not just the
        # per-log fast path.
        assert result.stats["cross_log_markers"] > 0
        assert result.stats["bindings_sent"] > 0
        assert result.stats["log_epoch"] == 1  # the log_move gene landed

    def test_committed_partition_seed_exercises_ask_and_serve(self):
        """One log-1 replica cut off from log 0 around cross-group markers:
        the PR-time corpus replay covers the fetch path."""
        schedule = next(
            schedule for schedule in load_corpus(CORPUS_DIR)
            if schedule.scenario == "multilog"
            and all(event.kind == "partition" for event in schedule.events))
        result = run_schedule(schedule)
        assert result.completed_all and result.ok
        assert result.stats["bindings_served"] > 0

    def test_bit_identical_replay(self):
        first = run_schedule(MULTILOG_SCHEDULE)
        second = run_schedule(MULTILOG_SCHEDULE)
        assert second.replay_digest == first.replay_digest
        assert second.fingerprint == first.fingerprint

    def test_log_move_is_noop_gene_on_single_log_scenarios(self):
        schedule = FaultSchedule(
            scenario="sharded", seed=0, workload_seed=0, num_requests=10,
            events=(ScheduleEvent(kind="log_move", at_ms=10.0, key_index=0,
                                  owner=1),))
        result = run_schedule(schedule)
        assert result.completed_all
        assert result.ok


# ---------------------------------------------------------------------- #
# Proactive primary rotation.
# ---------------------------------------------------------------------- #

#: planned rotations may cost at most this fraction of fault-free
#: throughput (the failover SLO the reactive path is gated on)
ROTATION_SLO = 0.8


def _drive_single_group(system, num_requests):
    """Submit single-group traffic; returns virtual time to complete it."""
    base = system.total_completed()
    for index in range(num_requests):
        shard = index % system.num_shards
        operation = put(key_on(system, shard), f"r{index}")
        system.clients[index % len(system.clients)].submit(operation)
    start = system.now
    system.run_until(
        lambda: system.total_completed() >= base + num_requests,
        120_000.0, "rotation workload")
    return system.now - start


#: system seeds of the rotation tests: 33 is the default; at 1 a replica
#: that stopped being primary kept its queued requests, and at 11 a
#: replica that entered a view behind the others' stable checkpoint rotated
#: a checkpoint early, alone
ROTATION_SEEDS = (1, 11, 33)


class TestProactiveRotation:
    @pytest.mark.parametrize("seed", ROTATION_SEEDS)
    def test_each_log_rotates_without_deposing(self, seed):
        timers = dataclasses.replace(FAST_TIMERS,
                                     rotation_interval_checkpoints=2)
        system = make_system(timers=timers, seed=seed)
        _drive_single_group(system, 160)
        for log in range(system.num_logs):
            replicas = system.log_replicas[log]
            assert sum(r.planned_rotations for r in replicas) > 0, \
                f"log {log} never rotated"
            assert max(r.view for r in replicas) > 0
            # Planned rotations skip the deposed-marking: the outgoing
            # primary stays in the rotation for future views.
            assert sum(r.primaries_deposed for r in replicas) == 0

    @pytest.mark.parametrize("seed", ROTATION_SEEDS)
    def test_rotation_throughput_within_failover_slo(self, seed):
        elapsed = {}
        for label, interval in (("steady", None), ("rotating", 2)):
            timers = dataclasses.replace(
                FAST_TIMERS, rotation_interval_checkpoints=interval)
            system = make_system(timers=timers, seed=seed)
            elapsed[label] = _drive_single_group(system, 160)
        # Same workload, same seeds: planned rotations may not stretch the
        # completion time beyond the failover SLO's throughput floor.
        assert elapsed["rotating"] <= elapsed["steady"] / ROTATION_SLO, (
            f"rotation cost too high: {elapsed['rotating']:.1f}ms vs "
            f"{elapsed['steady']:.1f}ms steady")
