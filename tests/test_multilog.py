"""Multi-log ordering tests.

The safety-critical properties of the partitioned ordering plane:

* a cross-group marker (multi-shard read or write transaction spanning log
  groups) is released at one cross-log cut even when a touched log changes
  view mid-coordination -- the marker commits atomically under the new
  primary or not at all;
* a Byzantine coordinating primary cannot wedge or corrupt the cut: a
  silent coordinator is fallen over (every touched log's backups collate
  the cut themselves), and a tampered cut broadcast is rejected by the
  binding certificates and released through each queue's own assembly;
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
from repro.config import CrossShardConfig, SystemConfig
from repro.faults import FaultInjector, FaultPlan
from repro.net.faults import LinkFault
from repro.fuzz import FaultSchedule, ScheduleEvent, load_corpus, run_schedule
from repro.fuzz.harness import ScenarioSpec
from repro.fuzz.oracles import ExactlyOnceOracle
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
        # One log has no per-log sequence spaces to tell apart.
        assert all(client.log_of_shard is None for client in system.clients)
        assert all(node.log_of_shard is None
                   for node in system.execution_cluster(0))
        assert not system.propose_log_map_change(shard=1, target_log=0)
        record = system.invoke(cross_group_txn("one-log", num_shards=2))
        assert record.result.value.get("committed") is True
        assert all(client.log_retargets == 0 for client in system.clients)

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
# Byzantine coordinating primary: fallover and corrupt-cut rejection.
# ---------------------------------------------------------------------- #


class TestByzantineCoordinator:
    def test_silent_coordinator_falls_over(self):
        system = make_system()
        seed_system(system)
        # The coordinator is the lowest touched log's primary (log 0).
        system.log_primary(0).local.suppress_cut_broadcast = True
        record = system.invoke(cross_group_txn("quiet"), timeout_ms=30_000.0)
        assert record.result.value.get("committed") is True
        # Let the backups' fallover timers fire: one of them collates and
        # broadcasts the cut the silent coordinator withheld.
        system.run(2_000.0)
        assert sum(queue.cut_fallovers for queue in all_queues(system)) > 0
        for shard in range(system.num_shards):
            assert audit_value(system, shard) == "quiet"

    def test_corrupt_cut_broadcast_rejected_and_released(self):
        system = make_system()
        seed_system(system)
        coordinator = system.log_primary(0)
        coordinator.local.corrupt_cut_broadcast = True
        # Slow the log-0 backups' bindings toward one log-1 backup: the
        # tampered cut (fast link from the coordinator) reaches it while it
        # is still holding -- a released queue skips cut verification
        # entirely, so only a still-holding one exercises the rejection.
        victim = next(replica for replica in system.log_replicas[1]
                      if not replica.is_primary)
        injector = FaultInjector(system)
        plan = FaultPlan()
        for replica in system.log_replicas[0]:
            if replica is not coordinator:
                plan.link_fault(replica.node_id, victim.node_id,
                                LinkFault(extra_delay_ms=60.0), at_ms=0.0)
        injector.install(plan)
        record = system.invoke(cross_group_txn("tamper"), timeout_ms=30_000.0)
        assert record.result.value.get("committed") is True
        system.run(2_000.0)
        # The tampered cut was rejected against the f+1-signer binding
        # certificates; the slow queue released through its own assembly.
        assert sum(queue.invalid_cuts for queue in all_queues(system)) > 0
        for shard in range(system.num_shards):
            assert audit_value(system, shard) == "tamper"


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
        assert all(queue.log_epoch == 1 for queue in all_queues(system))
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
        assert result.stats["cuts_broadcast"] > 0
        assert result.stats["log_epoch"] == 1  # the log_move gene landed

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


class TestProactiveRotation:
    def test_each_log_rotates_without_deposing(self):
        timers = dataclasses.replace(FAST_TIMERS,
                                     rotation_interval_checkpoints=2)
        system = make_system(timers=timers)
        _drive_single_group(system, 160)
        for log in range(system.num_logs):
            replicas = system.log_replicas[log]
            assert sum(r.planned_rotations for r in replicas) > 0, \
                f"log {log} never rotated"
            assert max(r.view for r in replicas) > 0
            # Planned rotations skip the deposed-marking: the outgoing
            # primary stays in the rotation for future views.
            assert sum(r.primaries_deposed for r in replicas) == 0

    def test_rotation_throughput_within_failover_slo(self):
        elapsed = {}
        for label, interval in (("steady", None), ("rotating", 2)):
            timers = dataclasses.replace(
                FAST_TIMERS, rotation_interval_checkpoints=interval)
            system = make_system(timers=timers)
            elapsed[label] = _drive_single_group(system, 160)
        # Same workload, same seeds: planned rotations may not stretch the
        # completion time beyond the failover SLO's throughput floor.
        assert elapsed["rotating"] <= elapsed["steady"] / ROTATION_SLO, (
            f"rotation cost too high: {elapsed['rotating']:.1f}ms vs "
            f"{elapsed['steady']:.1f}ms steady")
