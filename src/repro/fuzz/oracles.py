"""Invariant oracles: reusable post-run assertions over a simulated system.

These promote the safety checks that were buried in individual tests and
workload audits into first-class oracles any harness can run after any
execution -- benign or adversarial.  Each oracle inspects the *final* state
of a (quiesced) system plus the clients' completed-request records and
reports violations; it never mutates the system.

The oracles are deliberately conservative: they flag only states that are
unsafe under the paper's fault assumptions (at most ``g`` Byzantine
execution nodes per shard, ``f`` agreement nodes), never states that are
merely slow or incomplete.  An execution cut short by its budget is reported
as *incomplete* by the harness, not as an oracle violation.

* :class:`ExactlyOnceOracle` -- no client request is answered twice or with
  two different identities, and no completed request was lost by every
  execution cluster (exactly-once across epoch cuts and handoffs);
* :class:`ReplyTableAuditOracle` -- equally-advanced replicas of a cluster
  agree on application state, and the value each client *accepted* matches
  the value the owning cluster's reply tables *recorded* -- the check that
  catches a lying reply accepted below quorum;
* :class:`SnapshotConsistencyOracle` -- multi-shard snapshot reads are never
  torn and conflict transactions never commit (wraps the cross-shard
  workload audit);
* :class:`EpochCutSafetyOracle` -- every role's partition-map epoch cursor
  points into the agreed, contiguous map history.

Safety oracles flag states; *liveness* needs a time reference -- a run that
has not finished yet is not a violation unless it had every chance to.
:class:`RunContext` carries that reference (when the last fault healed, when
the run ended), and :class:`BoundedProgressOracle` uses it to demand that
every request submitted before quiescence completes within a bounded horizon
after the last fault heals.  :class:`NoProgressDetector` is the mid-campaign
companion: sampled by the harness's drive loop, it records the longest
interval with zero completions, a coverage signal and a stall diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..util.ids import Role
from ..workloads.crossshard import (
    audit_cross_group_consistency,
    audit_snapshot_consistency,
    reads_under_no_log_map,
)


@dataclass(frozen=True)
class RunContext:
    """Per-run facts liveness oracles need that the system cannot know.

    ``healed_at_ms`` is the virtual time the harness healed the last fault
    (crash recovery, partition heal, Byzantine uninstall); ``final_time_ms``
    is when the run ended; ``expected``/``completed`` count the requests
    submitted before quiescence and those that finished.
    """

    healed_at_ms: float = 0.0
    final_time_ms: float = 0.0
    expected: int = 0
    completed: int = 0


@dataclass(frozen=True)
class OracleViolation:
    """One invariant breach, attributed to the oracle that found it."""

    oracle: str
    detail: str

    def to_json_dict(self) -> dict:
        return {"oracle": self.oracle, "detail": self.detail}


class Oracle:
    """Base class: a named post-run invariant check."""

    name = "oracle"

    def check(self, system, *, completed_all: bool = True,
              context: Optional[RunContext] = None) -> List[OracleViolation]:
        raise NotImplementedError

    def _violation(self, detail: str) -> OracleViolation:
        return OracleViolation(oracle=self.name, detail=detail)


def _remote_records(client):
    """Completed records that actually crossed the wire (local failures --
    e.g. cross-shard ops over the key cap -- never reached a replica)."""
    return [record for record in client.completed if record.result.error is None]


class ExactlyOnceOracle(Oracle):
    """Every request completes at most once, and nothing completed is lost.

    The reply table's purpose (and its migration across epoch cuts) is that
    a retransmitted request re-serves the cached reply instead of executing
    again.  Duplicate completions at a client, or non-monotone completion
    timestamps, mean a request executed (or was answered) twice.  A
    completed count exceeding what the execution clusters report executed
    means a client accepted a reply no cluster stands behind.
    """

    name = "exactly-once"

    def check(self, system, *, completed_all: bool = True,
              context: Optional[RunContext] = None) -> List[OracleViolation]:
        violations: List[OracleViolation] = []
        total_remote = 0
        for client in system.clients:
            seen = set()
            last_timestamp = 0
            for record in client.completed:
                key = record.timestamp
                if key in seen:
                    violations.append(self._violation(
                        f"{client.node_id} completed timestamp {key} twice"))
                seen.add(key)
                if record.timestamp <= last_timestamp:
                    violations.append(self._violation(
                        f"{client.node_id} completions out of timestamp order "
                        f"({record.timestamp} after {last_timestamp})"))
                last_timestamp = max(last_timestamp, record.timestamp)
            total_remote += len(_remote_records(client))
            # Cross-shard operations complete through their fragments;
            # the per-cluster executed counters account for their markers
            # differently, so only ordinary completions are comparable.
            total_remote -= getattr(client, "cross_shard_completed", 0)
        executed = getattr(system, "total_requests_executed", None)
        if executed is not None and completed_all:
            total_executed = executed()
            if total_executed < total_remote:
                violations.append(self._violation(
                    f"clients completed {total_remote} ordinary remote "
                    f"requests but execution clusters only executed "
                    f"{total_executed} (a reply was accepted that no "
                    "cluster executed)"))
        return violations


class ReplyTableAuditOracle(Oracle):
    """Client-accepted values must match the owning cluster's reply tables.

    Two layers:

    1. *Replica agreement*: replicas of one cluster that have executed the
       same prefix (equal ``max_executed``) are deterministic state machines
       over the same agreed order, so their application state digests must
       be identical.  (Byzantine *taps* corrupt messages in flight, never
       the node's own state, so even a liar's internal state is correct.)
    2. *Client-vs-table audit*: for each client's last completed remote
       request, every non-crashed replica of the owning cluster whose reply
       table holds an entry for that exact timestamp recorded the result it
       vouched for.  If any such entry disagrees with the value the client
       accepted, the client accepted a lie -- unless ``g + 1`` replicas
       actually support the accepted value (which the fault model rules
       out for disagreeing correct replicas).
    """

    name = "reply-table-audit"

    def check(self, system, *, completed_all: bool = True,
              context: Optional[RunContext] = None) -> List[OracleViolation]:
        violations: List[OracleViolation] = []
        clusters = getattr(system, "shard_execution_nodes", None)
        if clusters is None:
            clusters = [system.execution_nodes]
        for shard, cluster in enumerate(clusters):
            frontiers = {}
            for node in cluster:
                if node.crashed:
                    continue
                frontiers.setdefault(node.max_executed, []).append(node)
            for frontier, nodes in frontiers.items():
                digests = {node.app.state_digest() for node in nodes}
                if len(digests) > 1:
                    violations.append(self._violation(
                        f"shard {shard}: replicas at max_executed={frontier} "
                        f"diverge ({len(digests)} distinct state digests)"))
        violations.extend(self._audit_clients(system, clusters))
        return violations

    def _audit_clients(self, system, clusters) -> List[OracleViolation]:
        violations: List[OracleViolation] = []
        router = getattr(system, "router", None)
        for client in system.clients:
            audited = set()
            for record in reversed(_remote_records(client)):
                cluster = self._owning_cluster(system, router, clusters,
                                               record)
                if cluster is None or id(cluster) in audited:
                    continue
                # Each cluster's reply table holds one entry per client --
                # its *latest* reply -- so the newest record per owning
                # cluster is the one with a table entry to audit against.
                audited.add(id(cluster))
                violations.extend(self._audit_record(system, client, cluster,
                                                     record))
        return violations

    def _audit_record(self, system, client, cluster, record):
        violations: List[OracleViolation] = []
        quorum = system.config.reply_quorum
        accepted = record.result.value
        agree = disagree = 0
        recorded_values = set()
        for node in cluster:
            if node.crashed:
                continue
            entry = node.reply_table.get(client.node_id)
            if entry is None or entry.timestamp != record.timestamp:
                continue
            value = entry.result_for(Role.CLIENT).value
            if value == accepted:
                agree += 1
            else:
                disagree += 1
                recorded_values.add(repr(value))
        if disagree and agree < quorum:
            violations.append(self._violation(
                f"{client.node_id} accepted {accepted!r} for timestamp "
                f"{record.timestamp} but the owning cluster's reply "
                f"tables recorded {sorted(recorded_values)} "
                f"({agree} replicas support the accepted value, "
                f"quorum is {quorum})"))
        return violations

    def _owning_cluster(self, system, router, clusters, record):
        """The cluster whose reply table should hold the record (None when
        the request is not single-shard-auditable, e.g. cross-shard ops
        whose tables hold a placeholder, not the assembled result)."""
        if router is None:
            return clusters[0] if len(clusters) == 1 else None
        try:
            shards = router.touched(record.operation)
        except (KeyError, AttributeError):
            return None
        if len(shards) != 1:
            return None
        value = record.result.value
        if isinstance(value, dict) and ("values" in value or "committed" in value):
            # Completed through cross-shard fragments; the reply
            # table holds the sub-reply placeholder, not this value.
            return None
        return clusters[shards[0]]


class SnapshotConsistencyOracle(Oracle):
    """Multi-shard reads are untorn; conflict transactions never commit.

    On a multi-log system the untorn promise is *per log group*:
    independent agreement logs may order two concurrent cross-group
    markers inversely (serialising them is the deferred MVBA cut-ordering
    follow-up), so only stamps served by shards of one log must agree --
    one log under the log map the read executed under, which a log-map
    change may have replaced since.  A read whose fragments name groups
    that no log map had is a violation of its own.
    """

    name = "snapshot-consistency"

    def check(self, system, *, completed_all: bool = True,
              context: Optional[RunContext] = None) -> List[OracleViolation]:
        if system.config.multilog.enabled:
            partitioner = system.router.partitioner

            def shard_of_key(key):
                if not key.endswith("-x-aud"):
                    return None
                return partitioner.shard_of_key(key)

            registry = system.log_registry
            audit = audit_cross_group_consistency(
                system.clients, shard_of_key=shard_of_key,
                log_of_shard=registry.latest.log_of)
            stray = reads_under_no_log_map(
                system.clients, [registry.map_for(epoch).assignment
                                 for epoch in range(registry.latest_epoch + 1)])
        else:
            audit = audit_snapshot_consistency(system.clients)
            stray = 0
        violations: List[OracleViolation] = []
        if stray:
            violations.append(self._violation(
                f"{stray} multi-shard reads were served by log groups no "
                "log map had (a read torn across log epochs)"))
        if audit.torn_reads:
            violations.append(self._violation(
                f"{audit.torn_reads}/{audit.audited_reads} multi-shard "
                "snapshot reads saw unequal audit stamps (torn snapshot)"))
        if audit.conflict_commits:
            violations.append(self._violation(
                f"{audit.conflict_commits} conflict transactions committed "
                "(read validation must abort them on every replica)"))
        return violations


class EpochCutSafetyOracle(Oracle):
    """Every epoch cursor points into the agreed, contiguous map history.

    The partition map evolves only through agreed config operations, so
    after quiescing: the registry's epochs are contiguous from 0; every
    agreement router, execution replica, and client holds an epoch the
    registry knows; and at least one agreement router reached the latest
    agreed epoch (the history is not dark).
    """

    name = "epoch-cut-safety"

    def check(self, system, *, completed_all: bool = True,
              context: Optional[RunContext] = None) -> List[OracleViolation]:
        router = getattr(system, "router", None)
        if router is None:
            return []
        registry = getattr(router.partitioner, "registry", None)
        if registry is None:
            return []
        violations: List[OracleViolation] = []
        latest = registry.latest_epoch
        for epoch in range(latest + 1):
            if not registry.has_epoch(epoch):
                violations.append(self._violation(
                    f"map history has a gap at epoch {epoch}"))
        queues = getattr(system, "message_queues", [])
        for queue in queues:
            if not registry.has_epoch(queue.epoch):
                violations.append(self._violation(
                    f"{queue.owner.node_id} router at unknown epoch "
                    f"{queue.epoch} (latest agreed: {latest})"))
        if queues and completed_all and all(queue.epoch < latest
                                            for queue in queues):
            violations.append(self._violation(
                f"no agreement router reached the latest agreed epoch "
                f"{latest}"))
        for cluster in getattr(system, "shard_execution_nodes", []):
            for node in cluster:
                if node.crashed:
                    continue
                if not registry.has_epoch(node.epoch):
                    violations.append(self._violation(
                        f"{node.node_id} at unknown epoch {node.epoch}"))
        for client in system.clients:
            epoch = getattr(client, "epoch", 0)
            if not registry.has_epoch(epoch):
                violations.append(self._violation(
                    f"{client.node_id} at unknown epoch {epoch}"))
        return violations


class BoundedProgressOracle(Oracle):
    """Every request submitted before quiescence completes within a bounded
    horizon after the last fault heals.

    This is the liveness property the censorship-resistant request path
    exists to guarantee: once the network is reliable again and every
    Byzantine window has closed, retransmission fan-out, backup forwarding,
    and view-change escalation must drive every outstanding request to
    completion.  A run that is merely *slow* is not flagged -- only one
    that was given at least ``horizon_ms`` of healed time and still left
    requests starving.  Without a :class:`RunContext` the oracle is inert
    (a plain safety battery cannot judge liveness).
    """

    name = "bounded-progress"

    def __init__(self, horizon_ms: float = 1500.0) -> None:
        self.horizon_ms = horizon_ms

    def check(self, system, *, completed_all: bool = True,
              context: Optional[RunContext] = None) -> List[OracleViolation]:
        if context is None or completed_all:
            return []
        healed_for = context.final_time_ms - context.healed_at_ms
        if healed_for < self.horizon_ms:
            return []
        return [self._violation(
            f"{context.expected - context.completed} of {context.expected} "
            f"requests still incomplete {healed_for:.0f}ms after the last "
            f"fault healed (liveness horizon: {self.horizon_ms:.0f}ms) -- "
            "the censorship-resistant request path failed to restore "
            "progress")]


class NoProgressDetector:
    """Mid-run stall tracker: the longest interval with zero completions.

    The harness's drive loop calls :meth:`sample` once per step; the
    detector records the longest span of virtual time during which the
    completed count did not move.  It is a *detector*, not an oracle: a
    long stall during an active fault window is expected, so the value
    feeds the coverage fingerprint and the run stats (where the explorer
    can see "this schedule produced a 3s blackout") rather than directly
    raising violations.
    """

    def __init__(self) -> None:
        self._last_completed: Optional[int] = None
        self._stall_started_ms = 0.0
        self.longest_stall_ms = 0.0

    def sample(self, now_ms: float, completed: int) -> None:
        if self._last_completed is None or completed > self._last_completed:
            self._last_completed = completed
            self._stall_started_ms = now_ms
            return
        self.longest_stall_ms = max(self.longest_stall_ms,
                                    now_ms - self._stall_started_ms)


#: the default oracle battery the harness runs after every schedule
DEFAULT_ORACLES = (ExactlyOnceOracle(), ReplyTableAuditOracle(),
                   SnapshotConsistencyOracle(), EpochCutSafetyOracle(),
                   BoundedProgressOracle())


def run_oracles(system, *, completed_all: bool = True,
                context: Optional[RunContext] = None,
                oracles=DEFAULT_ORACLES) -> List[OracleViolation]:
    """Run every oracle; returns all violations (empty = invariants hold)."""
    violations: List[OracleViolation] = []
    for oracle in oracles:
        violations.extend(oracle.check(system, completed_all=completed_all,
                                       context=context))
    return violations
