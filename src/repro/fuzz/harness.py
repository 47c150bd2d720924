"""Schedule execution harness: build a scenario, install a genome, audit it.

:func:`run_schedule` is the single entry point everything else (explorer,
shrinker, corpus regression, CLI, tests) goes through: it constructs the
named scenario's :class:`~repro.sharding.system.ShardedSystem`, resolves the
schedule's symbolic node references, installs every event through the
:class:`~repro.faults.injector.FaultInjector`, drives the workload, quiesces
(recover/heal/uninstall everything), lets replies settle, and returns a
:class:`RunResult` carrying the oracle verdicts, the protocol-state coverage
fingerprint, and a replay digest.

Determinism contract: the simulator's virtual time, RNG streams, and trace
stream are fully determined by (scenario, seed, workload_seed, events), so
two runs of the same schedule in the same build produce byte-identical
replay digests -- the property the shrinker relies on to certify a minimal
reproducer.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.kvstore import KeyValueStore, get as kv_get, put as kv_put
from ..config import (
    CryptoCosts,
    CrossShardConfig,
    MultiLogConfig,
    ObservabilityConfig,
    RebalanceConfig,
    ShardingConfig,
    SystemConfig,
    TimerConfig,
)
from ..faults import FaultInjector, FaultPlan, make_behaviour
from ..messages.request import ClientRequest
from ..net.faults import LinkFault
from ..obs import request_trace_id
from ..sharding.messages import MapChange
from ..sharding.system import ShardedSystem
from ..workloads.crossshard import (
    mixed_cross_group_operations,
    mixed_cross_shard_operations,
    seed_operations,
)
from ..workloads.skew import equal_range_boundaries, skew_key
from .oracles import (
    NoProgressDetector,
    OracleViolation,
    RunContext,
    run_oracles,
)
from .schedule import FaultSchedule, ScheduleEvent

#: key space every scenario partitions (matches the skew/rebalance workloads)
KEY_SPACE = 64

#: short timers so adversarial windows resolve quickly in virtual time
_TIMERS = TimerConfig(client_retransmit_ms=80.0, agreement_retransmit_ms=40.0,
                      execution_fetch_ms=20.0, view_change_ms=200.0,
                      batch_timeout_ms=1.0)

#: cheap crypto so a fuzzing campaign gets through many schedules
_CRYPTO = CryptoCosts(mac_ms=0.05, signature_sign_ms=0.5,
                      signature_verify_ms=0.1, threshold_share_ms=1.0,
                      threshold_combine_ms=0.2, threshold_verify_ms=0.1)

#: rebalance wiring (cross-shard links, handoff machinery) without automatic
#: proposals -- map changes are driven by schedule events for determinism
_MANUAL_REBALANCE = RebalanceConfig(enabled=True, min_window_requests=10**9)


@dataclass(frozen=True)
class ScenarioSpec:
    """A named system shape + workload the explorer can aim schedules at."""

    name: str
    num_shards: int = 2
    num_clients: int = 3
    rebalance: bool = False
    cross_shard: bool = False
    #: > 1 partitions the ordering plane into that many agreement logs
    num_logs: int = 1

    @property
    def allows_map_change(self) -> bool:
        return self.rebalance

    def make_config(self) -> SystemConfig:
        return SystemConfig(
            f=1, g=1, h=1, num_clients=self.num_clients, pipeline_depth=16,
            per_shard_windows=True, checkpoint_interval=8, bundle_size=1,
            timers=_TIMERS, crypto=_CRYPTO,
            multilog=MultiLogConfig(num_logs=self.num_logs),
            sharding=ShardingConfig(
                num_shards=self.num_shards, strategy="range",
                range_boundaries=equal_range_boundaries(KEY_SPACE,
                                                        self.num_shards)),
            rebalance=_MANUAL_REBALANCE if self.rebalance else RebalanceConfig(),
            cross_shard=CrossShardConfig(enabled=self.cross_shard),
            observability=ObservabilityConfig(metrics=True, tracing=True),
        )

    def seed_prefix(self) -> List:
        """Setup operations that must complete before faults start.

        The cross-shard audit invariant (equal audit stamps at every cut)
        only holds once the per-shard seed puts have all landed -- they are
        independent single-shard writes, so racing them against multi-shard
        reads would report torn snapshots that are workload artifacts, not
        protocol violations.  The benchmark sequences them the same way.
        """
        if self.cross_shard:
            return seed_operations(KEY_SPACE, self.num_shards)
        return []

    def make_operations(self, workload_seed: int, num_requests: int) -> List:
        rng = random.Random(workload_seed)
        operations: List = []
        if self.num_logs > 1:
            # Cross-group mix: multi-shard markers span log groups, so the
            # schedule races bindings and their fetches against faults.
            return mixed_cross_group_operations(
                num_requests, key_space=KEY_SPACE, num_shards=self.num_shards,
                multi_fraction=0.25, seed=workload_seed)
        if self.cross_shard:
            return mixed_cross_shard_operations(
                num_requests, key_space=KEY_SPACE, num_shards=self.num_shards,
                multi_fraction=0.25, seed=workload_seed)
        for index in range(num_requests):
            key = skew_key(rng.randrange(KEY_SPACE))
            if rng.random() < 0.5:
                operations.append(kv_put(key, f"v{index}"))
            else:
                operations.append(kv_get(key))
        return operations

    def node_refs(self) -> Dict[str, List[str]]:
        """The symbolic node vocabulary mutations may draw targets from."""
        config = self.make_config()
        agreement = [f"agreement:{i}"
                     for i in range(config.num_agreement_nodes
                                    * max(1, self.num_logs))]
        execution = [f"execution:{shard}:{j}"
                     for shard in range(self.num_shards)
                     for j in range(config.num_execution_nodes)]
        clients = [f"client:{i}" for i in range(self.num_clients)]
        return {"agreement": agreement, "execution": execution,
                "clients": clients, "all": agreement + execution + clients}


SCENARIOS: Dict[str, ScenarioSpec] = {
    # static range-sharded deployment: crash/partition/Byzantine/link faults
    "sharded": ScenarioSpec(name="sharded"),
    # rebalance wiring live: map_change events race handoffs and cuts
    "rebalance": ScenarioSpec(name="rebalance", rebalance=True),
    # cross-shard markers + rebalance: votes, fragments, and cuts race
    "crossshard": ScenarioSpec(name="crossshard", rebalance=True,
                               cross_shard=True),
    # two agreement logs over four shards: cross-group markers, cross-log
    # bindings/cuts, and log_move reconfiguration race the fault genome
    "multilog": ScenarioSpec(name="multilog", num_shards=4, num_logs=2,
                             cross_shard=True),
}


def scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r} "
                         f"(known: {sorted(SCENARIOS)})") from None


def resolve_node(system: ShardedSystem, ref: str):
    """Resolve a symbolic node reference against a built system."""
    parts = ref.split(":")
    try:
        if parts[0] == "agreement":
            return system.agreement_ids[int(parts[1])]
        if parts[0] == "execution":
            return system.shard_execution_ids[int(parts[1])][int(parts[2])]
        if parts[0] == "client":
            return system.client_ids[int(parts[1])]
    except (IndexError, ValueError):
        pass
    raise ValueError(f"unresolvable node reference {ref!r}")


@dataclass
class RunResult:
    """Everything one schedule execution produced."""

    schedule: FaultSchedule
    completed: int
    expected: int
    completed_all: bool
    violations: List[OracleViolation]
    fingerprint: frozenset
    replay_digest: str
    final_time_ms: float
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> Dict:
        return {
            "schedule": self.schedule.to_json_dict(),
            "schedule_digest": self.schedule.digest(),
            "completed": self.completed,
            "expected": self.expected,
            "completed_all": self.completed_all,
            "violations": [v.to_json_dict() for v in self.violations],
            "fingerprint_size": len(self.fingerprint),
            "replay_digest": self.replay_digest,
            "final_time_ms": self.final_time_ms,
            "stats": self.stats,
        }


def _install_map_change(system: ShardedSystem, event: ScheduleEvent) -> None:
    """Fire a split/merge proposal at the event's virtual time.

    The proposal is resolved against the *live* map (parent epoch, boundary
    set) when the event fires, so mutated timings race real cut machinery
    rather than failing structural validation.  Proposals the primary
    rejects (one config op already in flight, no splittable boundary) are
    silently dropped -- a no-op gene, not an error.
    """
    def fire() -> None:
        registry = getattr(system.router.partitioner, "registry", None)
        if registry is None:
            return
        primary = None
        for replica in system.agreement_replicas:
            if not replica.crashed and replica.is_primary:
                primary = replica
                break
        if primary is None:
            return
        parent = registry.latest_epoch
        latest = registry.latest
        if event.op == "split":
            change = MapChange(kind="split", parent_epoch=parent,
                               key=skew_key(event.key_index % KEY_SPACE),
                               owner=event.owner % system.num_shards)
        else:
            boundaries = latest.boundaries
            if not boundaries:
                return
            change = MapChange(kind="merge", parent_epoch=parent,
                               key=boundaries[event.key_index % len(boundaries)])
        try:
            primary.proposer.propose_map_change(change)
        except Exception:
            # A racing proposal may be structurally stale by fire time;
            # adversarial schedules treat that as a no-op gene.
            pass

    system.scheduler.call_at(system.now + event.at_ms, fire,
                             label="fuzz:map_change")


def _install_log_move(system, event: ScheduleEvent) -> None:
    """Fire a shard-between-log-groups move at the event's virtual time.

    Resolved against the live log map when the event fires; proposals the
    driver's preconditions reject (a previous change still cutting, a
    primary mid-view-change, the shard already owned by the target) are
    silently dropped -- a no-op gene, like a structurally stale map_change.
    On single-log systems the gene is always a no-op.
    """
    def fire() -> None:
        shard = event.key_index % system.num_shards
        target = event.owner % system.num_logs
        try:
            system.propose_log_map_change(shard, target)
        except Exception:
            pass

    system.scheduler.call_at(system.now + event.at_ms, fire,
                             label="fuzz:log_move")


def install_schedule(system: ShardedSystem,
                     schedule: FaultSchedule) -> FaultInjector:
    """Install every schedule event; returns the injector (for healing)."""
    injector = FaultInjector(system)
    plan = FaultPlan()
    for event in schedule.events:
        if event.kind == "crash":
            node = resolve_node(system, event.node)
            plan.crash(node, at_ms=event.at_ms)
            if event.duration_ms > 0:
                plan.recover(node, at_ms=event.at_ms + event.duration_ms)
        elif event.kind == "partition":
            a = resolve_node(system, event.a)
            b = resolve_node(system, event.b)
            plan.partition(a, b, at_ms=event.at_ms)
            if event.duration_ms > 0:
                plan.heal(a, b, at_ms=event.at_ms + event.duration_ms)
        elif event.kind == "byzantine":
            node = resolve_node(system, event.node)
            behaviour = make_behaviour(event.strategy, node)
            until = (event.at_ms + event.duration_ms
                     if event.duration_ms > 0 else None)
            plan.byzantine(behaviour, at_ms=event.at_ms, until_ms=until)
        elif event.kind == "link_fault":
            src = resolve_node(system, event.a)
            dst = resolve_node(system, event.b)
            fault = LinkFault(drop_probability=event.drop,
                              extra_delay_ms=event.delay_ms,
                              duplicate_probability=event.duplicate,
                              corrupt_probability=event.corrupt,
                              reorder_probability=event.reorder)
            until = (event.at_ms + event.duration_ms
                     if event.duration_ms > 0 else None)
            plan.link_fault(src, dst, fault, at_ms=event.at_ms, until_ms=until)
        elif event.kind == "map_change":
            _install_map_change(system, event)
        elif event.kind == "log_move":
            _install_log_move(system, event)
    injector.install(plan)
    return injector


def _bucket(value: int) -> int:
    """Log2 bucket, so counter fingerprints are scale- not noise-sensitive."""
    return value.bit_length()


def _system_counters(system: ShardedSystem) -> Dict[str, int]:
    counters = {
        "epoch": system.router.partitioner.latest_epoch,
        "epoch_cuts": sum(queue.epoch_cuts for queue in system.message_queues),
        "view": max(replica.view for replica in system.agreement_replicas),
        "view_changes": sum(replica.view_changes_completed
                            for replica in system.agreement_replicas),
        "deposed": sum(replica.primaries_deposed
                       for replica in system.agreement_replicas),
        "checkpoint_syncs": sum(replica.checkpoint_syncs
                                for replica in system.agreement_replicas),
        "retransmissions": sum(client.retransmissions
                               for client in system.clients),
        "misrouted": sum(client.misrouted_replies for client in system.clients),
        "epoch_advances": sum(client.epoch_advances
                              for client in system.clients),
        "cross_retries": sum(client.cross_shard_retries
                             for client in system.clients),
        "net_dropped": system.network.faults.stats_dropped,
        "net_duplicated": system.network.faults.stats_duplicated,
        "net_corrupted": system.network.faults.stats_corrupted,
        "tap_dropped": system.network.stats.drops_by_tap,
    }
    handoffs = fetches = transfers = 0
    for cluster in system.shard_execution_nodes:
        for node in cluster:
            handoffs += node.handoffs.installed
            fetches += node.handoffs.fetches
            transfers += node.state_transfers
    counters["handoffs"] = handoffs
    counters["range_fetches"] = fetches
    counters["state_transfers"] = transfers
    # Multi-log coordination counters: only present on runs with several
    # logs, so single-log corpus seeds keep their fingerprints and digests.
    if system.config.multilog.enabled:
        queues = system.message_queues
        counters["log_epoch"] = system.log_registry.latest_epoch
        counters["cross_log_markers"] = sum(queue.cross_log_markers
                                            for queue in queues)
        for name in ("bindings_sent", "bindings_served", "bindings_rejected",
                     "log_map_cuts"):
            counters[name] = sum(getattr(queue.cross_log, name)
                                 for queue in queues)
    return counters


def compute_fingerprint(system: ShardedSystem) -> frozenset:
    """Protocol-state coverage fingerprint of one execution.

    Tokens are (a) consecutive trace-event *edges* per request -- the path a
    request took through submit/admit/order/commit/stage/release/execute/
    vote/collate/reply, which shifts under retransmissions, view changes,
    handoff stalls, and cross-shard re-serves -- and (b) log2-bucketed
    protocol counters (epochs, cuts, handoffs, fetches, drops, views).  A
    schedule is *novel* when it contributes a token no earlier schedule
    produced.
    """
    tokens = set()
    by_trace: Dict[str, List[str]] = {}
    for record in system.trace_events():
        by_trace.setdefault(record.trace_id, []).append(record.event)
    for events in by_trace.values():
        previous = "start"
        for event in events:
            tokens.add(f"edge:{previous}>{event}")
            previous = event
        # Whole-path signature: retransmissions, re-served replies, and
        # cross-shard fallover change event *multiplicity* even when every
        # consecutive edge was already seen.
        tokens.add("path:" + ">".join(events))
    for name, value in _system_counters(system).items():
        tokens.add(f"ctr:{name}:{_bucket(int(value))}")
    tokens.add(f"ctr:final_t:{_bucket(int(system.now))}")
    return frozenset(tokens)


def compute_replay_digest(system: ShardedSystem, completed_all: bool) -> str:
    """Digest of everything observable about one execution.

    Two runs of the same schedule in the same build must produce the same
    digest -- the bit-identical-replay property the shrinker certifies and
    CI regression replays check.
    """
    trace = [[record.trace_id, record.event, record.node, record.t_ms]
             for record in system.trace_events()]
    completed = [
        [client.node_id.name,
         [[record.timestamp, record.operation.kind,
           json.dumps(record.result.value, sort_keys=True, default=repr),
           record.result.error, record.seq, record.view,
           record.completed_at_ms]
          for record in client.completed]]
        for client in system.clients
    ]
    digests = [sorted(node.app.state_digest().hex()
                      for node in cluster if not node.crashed)
               for cluster in system.shard_execution_nodes]
    payload = json.dumps(
        {"trace": trace, "completed": completed, "digests": digests,
         "t": system.now, "all": completed_all,
         "counters": _system_counters(system)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_schedule(schedule: FaultSchedule, *,
                 weaken_reply_quorum: bool = False,
                 disable_forwarding_defence: bool = False,
                 budget_ms: float = 8000.0,
                 settle_ms: float = 2000.0) -> RunResult:
    """Execute one schedule end-to-end and audit the result.

    ``weaken_reply_quorum`` is a test-only flag that plants the bug the
    acceptance demonstration hunts: clients accept ``g`` matching reply
    authenticators instead of ``g + 1``, which a single re-signing liar
    (:class:`~repro.faults.byzantine.LyingReplyBehaviour`) can then satisfy.
    It must never be set outside the planted-bug demonstration.

    ``disable_forwarding_defence`` is the liveness twin: it stubs out the
    censorship-resistant request path of every agreement replica's proposer
    (no forwarding to the primary, no per-request deadlines escalating to a
    view change), so a censoring or silent primary starves requests
    forever -- the planted bug the
    :class:`~repro.fuzz.oracles.BoundedProgressOracle` must catch.
    """
    problems = schedule.validate()
    if problems:
        raise ValueError(f"invalid schedule: {problems}")
    spec = scenario(schedule.scenario)
    config = spec.make_config()
    system = ShardedSystem(config, KeyValueStore, seed=schedule.seed)
    if weaken_reply_quorum:
        for client in system.clients:
            client.reply_quorum = config.g  # test-only planted bug
    if disable_forwarding_defence:
        for replica in system.agreement_replicas:
            # test-only planted bug
            replica.proposer._forward_to_primary = lambda certificate: None
            replica.proposer._arm_request_deadline = lambda request: None

    # Fault-free seed phase: scenario setup operations complete before any
    # schedule event installs, so event times are anchored at the start of
    # the racing traffic and oracle invariants hold from their baseline.
    prefix = spec.seed_prefix()
    operations = spec.make_operations(schedule.workload_seed,
                                      schedule.num_requests)
    expected = len(prefix) + len(operations)

    def done() -> bool:
        return system.total_completed() >= expected

    detector = NoProgressDetector()
    healed_at = 0.0
    raised: Optional[Exception] = None
    try:
        for index, operation in enumerate(prefix):
            system.clients[index % len(system.clients)].submit(operation)
        while system.total_completed() < len(prefix):
            system.run(50.0)

        injector = install_schedule(system, schedule)
        for index, operation in enumerate(operations):
            system.clients[index % len(system.clients)].submit(operation)

        detector.sample(system.now, system.total_completed())
        elapsed = 0.0
        while elapsed < budget_ms and not done():
            system.run(50.0)
            elapsed += 50.0
            detector.sample(system.now, system.total_completed())
        # Quiesce: recover everything, heal everything, end every Byzantine
        # window -- then give retransmissions room to finish and recovered
        # replicas time to catch up through state transfer (the fixed
        # window runs even when every reply already arrived, so post-fault
        # recovery machinery is part of every run's observable behaviour).
        injector.heal_all()
        healed_at = system.now
        system.run(200.0)
        settled = 200.0
        detector.sample(system.now, system.total_completed())
        while settled < settle_ms and not done():
            system.run(50.0)
            settled += 50.0
            detector.sample(system.now, system.total_completed())
    except Exception as error:   # a handler raised: the run stops there
        raised = error
    completed = system.total_completed()
    completed_all = raised is None and completed >= expected

    fingerprint = compute_fingerprint(system) | {
        f"ctr:stall:{_bucket(int(detector.longest_stall_ms))}"}
    if raised is not None:
        violations = [_raised_in_handler(system, raised)]
        fingerprint |= {f"raised:{type(raised).__name__}"}
    else:
        context = RunContext(healed_at_ms=healed_at, final_time_ms=system.now,
                             expected=expected, completed=completed)
        violations = run_oracles(system, completed_all=completed_all,
                                 context=context)
    stats = _system_counters(system)
    stats["longest_stall_ms"] = int(detector.longest_stall_ms)
    return RunResult(
        schedule=schedule, completed=completed, expected=expected,
        completed_all=completed_all, violations=violations,
        fingerprint=fingerprint,
        replay_digest=compute_replay_digest(system, completed_all),
        final_time_ms=system.now, stats=stats)


def _raised_in_handler(system, error: Exception) -> OracleViolation:
    """The violation a handler's exception is: it names the exception and
    the event that raised it -- its scheduler label and, where it delivers
    a client request or a reply, the request's trace id."""
    event = system.scheduler.last_event
    label = event.label if event is not None else "?"
    # a delivery's args are (source, message, size)
    trace = (_trace_id(event.args[1])
             if event is not None and label == "deliver:" else None)
    return OracleViolation(
        "handler-exception",
        f"{type(error).__name__}: {error} (event {label!r}, "
        f"trace {trace or '-'}, at {system.now:.3f} ms)")


def _trace_id(message) -> Optional[str]:
    """The trace id of the first client request ``message`` carries or
    answers, if any."""
    certificates = getattr(message, "request_certificates", None)
    if certificates is None:
        certificate = getattr(message, "certificate", None)
        certificates = () if certificate is None else (certificate,)
    for certificate in certificates:
        payload = certificate.payload
        if isinstance(payload, ClientRequest):
            return request_trace_id(payload.client, payload.timestamp)
        for reply in getattr(payload, "carried", ()):
            return request_trace_id(reply.client, reply.timestamp)
    return None
