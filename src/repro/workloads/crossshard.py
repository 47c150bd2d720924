"""Mixed single/multi-shard workloads for the cross-shard benchmark.

The workload models a key-value service where most traffic is single-key
but a configurable fraction of operations spans shards: snapshot reads over
several shards' keys and write transactions that update several shards
atomically.  It is built so that snapshot consistency is *auditable from
the outside*:

* each shard owns one **audit key**; every committed multi-shard write
  transaction writes the *same* monotonically increasing stamp to all the
  audit keys it touches -- always the full set, so at any consistent cut
  of the agreed order the audit keys are equal;
* every multi-shard snapshot read reads two or more audit keys, so a torn
  read (two audit keys with different stamps in one reply) is direct proof
  that the "consistent cut" was not one.  :func:`audit_snapshot_consistency`
  scans the completed records for exactly that.
* each shard also owns one **constant key**, written once at setup and
  never changed: read-validating transactions expect its known value, so
  their vote round (the expensive part of a cross-shard transaction) runs
  on every one of them while the commit outcome stays deterministic.  A
  configurable slice instead expects a value that is deliberately wrong --
  those must abort on every replica, which the audit also checks.

Everything is seeded and deterministic, so benchmark comparisons between
single-shard-only and mixed runs replay bit-identical workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..apps.kvstore import get as kv_get
from ..apps.kvstore import multi_get, put as kv_put, transaction
from ..core.system import SimulatedSystem

#: sentinel value conflict transactions expect (never actually stored)
_CONFLICT_EXPECTED = "__never__"
#: value stored under every constant key at setup
CONST_VALUE = "const"


def _mid_index(key_space: int, num_shards: int, shard: int) -> int:
    """A key index in the middle of ``shard``'s equal range."""
    return (key_space * (2 * shard + 1)) // (2 * num_shards)


def audit_key(key_space: int, num_shards: int, shard: int) -> str:
    """The audit key owned by ``shard`` (sorts inside its equal range)."""
    return f"key-{_mid_index(key_space, num_shards, shard):05d}-x-aud"


def const_key(key_space: int, num_shards: int, shard: int) -> str:
    """The constant key owned by ``shard`` (written once at setup)."""
    return f"key-{_mid_index(key_space, num_shards, shard):05d}-x-const"


def seed_operations(key_space: int, num_shards: int) -> List:
    """Single-shard setup puts: the constant keys and audit stamp zero."""
    operations = []
    for shard in range(num_shards):
        operations.append(kv_put(const_key(key_space, num_shards, shard),
                                 CONST_VALUE))
        operations.append(kv_put(audit_key(key_space, num_shards, shard), 0))
    return operations


def mixed_cross_shard_operations(num_requests: int, *, key_space: int = 64,
                                 num_shards: int = 4,
                                 multi_fraction: float = 0.1,
                                 txn_fraction: float = 0.3,
                                 conflict_fraction: float = 0.1,
                                 write_fraction: float = 0.5,
                                 value_size: int = 32,
                                 seed: int = 0) -> List:
    """The mixed workload: uniform single-key put/get traffic plus a
    ``multi_fraction`` slice of multi-shard operations.

    Multi-shard operations span a random 2..``num_shards`` subset of
    shards: with probability ``txn_fraction`` a write transaction (all the
    touched shards' audit keys get the next stamp; the read set validates
    the constant keys -- or, for a ``conflict_fraction`` slice, expects a
    deliberately wrong value and must abort), otherwise a snapshot read
    over the touched shards' audit keys (plus, half the time, one regular
    key, so reads mix hot multi-shard state with ordinary state).
    """
    rng = random.Random(seed)
    operations = []
    stamp = 0
    for _ in range(num_requests):
        if rng.random() >= multi_fraction:
            index = rng.randrange(key_space)
            key = f"key-{index:05d}"
            if rng.random() < write_fraction:
                operations.append(kv_put(key, "v" * value_size))
            else:
                operations.append(kv_get(key))
            continue
        span = rng.randint(2, num_shards)
        shards = sorted(rng.sample(range(num_shards), span))
        audits = [audit_key(key_space, num_shards, shard) for shard in shards]
        if rng.random() < txn_fraction:
            stamp += 1
            # Committed writers always write the FULL audit set, so the
            # equal-stamps invariant holds at every cut.
            writes = {audit_key(key_space, num_shards, shard): stamp
                      for shard in range(num_shards)}
            if rng.random() < conflict_fraction:
                reads = {const_key(key_space, num_shards, shards[0]):
                         _CONFLICT_EXPECTED}
                stamp -= 1  # this transaction must abort: stamp unused
            else:
                reads = {const_key(key_space, num_shards, shard): CONST_VALUE
                         for shard in shards}
            operations.append(transaction(reads=reads, writes=writes))
        else:
            keys = list(audits)
            if rng.random() < 0.5:
                keys.append(f"key-{rng.randrange(key_space):05d}")
            operations.append(multi_get(keys))
    return operations


def mixed_cross_group_operations(num_requests: int, *, key_space: int = 64,
                                 num_shards: int = 4,
                                 multi_fraction: float = 0.1,
                                 txn_fraction: float = 0.3,
                                 write_fraction: float = 0.5,
                                 value_size: int = 32,
                                 audit_shards: Optional[Sequence[int]] = None,
                                 max_span: Optional[int] = None,
                                 seed: int = 0) -> List:
    """The multi-log variant of the mixed workload: uniform single-key
    traffic plus a ``multi_fraction`` slice of multi-shard operations whose
    transactions are **write-only** (empty read set).

    A multi-log deployment refuses read-validating cross-shard transactions
    (the vote round cannot pin one snapshot across independently ordered
    logs), so the cross-group slice uses snapshot reads and blind write
    transactions only.  The audit domain is ``audit_shards`` (default: all
    shards): committed writers stamp *every* audit key in the domain and
    snapshot reads sample at least two of them, so
    :func:`audit_snapshot_consistency` catches a torn cross-log cut exactly
    as it catches a torn single-log release.  Passing one shard per log
    keeps every multi-shard operation cross-group while bounding its span.
    """
    rng = random.Random(seed)
    domain = sorted(audit_shards) if audit_shards else list(range(num_shards))
    widest = min(max_span or len(domain), len(domain))
    operations = []
    stamp = 0
    for _ in range(num_requests):
        if rng.random() >= multi_fraction:
            index = rng.randrange(key_space)
            key = f"key-{index:05d}"
            if rng.random() < write_fraction:
                operations.append(kv_put(key, "v" * value_size))
            else:
                operations.append(kv_get(key))
            continue
        span = rng.randint(2, widest)
        shards = sorted(rng.sample(domain, span))
        if rng.random() < txn_fraction:
            stamp += 1
            writes = {audit_key(key_space, num_shards, shard): stamp
                      for shard in domain}
            operations.append(transaction(reads={}, writes=writes))
        else:
            keys = [audit_key(key_space, num_shards, shard)
                    for shard in shards]
            if rng.random() < 0.5:
                keys.append(f"key-{rng.randrange(key_space):05d}")
            operations.append(multi_get(keys))
    return operations


def is_audit_read(operation) -> bool:
    """Whether a completed operation is a multi-key read over audit keys."""
    if operation.kind != "multi_get":
        return False
    audit = [key for key in operation.args.get("keys", ())
             if key.endswith("-x-aud")]
    return len(audit) >= 2


def is_conflict_txn(operation) -> bool:
    """Whether a transaction was built to abort (wrong expected value)."""
    if operation.kind != "txn":
        return False
    return _CONFLICT_EXPECTED in operation.args.get("reads", {}).values()


@dataclass(frozen=True)
class AuditResult:
    """Outcome of the snapshot-consistency audit over completed requests."""

    audited_reads: int
    torn_reads: int
    committed_txns: int
    aborted_txns: int
    conflict_commits: int

    @property
    def consistent(self) -> bool:
        return self.torn_reads == 0 and self.conflict_commits == 0


def audit_snapshot_consistency(clients) -> AuditResult:
    """Audit every completed multi-shard reply for snapshot consistency.

    A multi-shard read over audit keys must see *equal* stamps (committed
    writers update them atomically at a cut, so any inequality is a torn
    snapshot), and a conflict transaction must have aborted everywhere.
    """
    audited = torn = committed = aborted = conflict_commits = 0
    for client in clients:
        for record in client.completed:
            operation = record.operation
            value = record.result.value
            if operation.kind == "txn" and isinstance(value, dict):
                if value.get("committed"):
                    committed += 1
                    if is_conflict_txn(operation):
                        conflict_commits += 1
                else:
                    aborted += 1
                continue
            if not is_audit_read(operation) or not isinstance(value, dict):
                continue
            values = value.get("values", {})
            stamps = [values.get(key) for key in operation.args["keys"]
                      if key.endswith("-x-aud")]
            audited += 1
            if len(set(stamps)) > 1:
                torn += 1
    return AuditResult(audited_reads=audited, torn_reads=torn,
                       committed_txns=committed, aborted_txns=aborted,
                       conflict_commits=conflict_commits)


def audit_cross_group_consistency(clients, *, key_space: int = 0,
                                  num_shards: int = 0,
                                  log_of_shard,
                                  shard_of_key=None) -> AuditResult:
    """Audit multi-shard replies against the *multi-log* contract.

    Independent agreement logs may order two concurrent cross-group
    markers inversely (serialising them is the deferred MVBA cut-ordering
    work), so a snapshot read spanning log groups only promises per-group
    atomicity: all audit stamps served by shards of *one* log must be
    equal -- each log releases a marker's parts to its own shards at a
    single slot of its order.  A within-group tear is therefore still a
    protocol violation and is what this audit counts.

    A read is grouped by the logs its certified fragments name
    (``CompletedRequest.groups``): those of the log map it executed under,
    not the latest one, so a read released before a log-map change is
    grouped by the map before it.  A read recorded without groups is
    grouped by ``log_of_shard``.  That the named groups are some log
    epoch's map is :func:`reads_under_no_log_map`'s check.

    ``shard_of_key`` (audit key -> shard, or ``None`` to skip the key)
    overrides the default equal-range audit-key table -- callers holding a
    live partitioner can resolve ownership without knowing the key space.
    """
    if shard_of_key is None:
        shard_of_key = {audit_key(key_space, num_shards, shard): shard
                        for shard in range(num_shards)}.get
    audited = torn = committed = aborted = conflict_commits = 0
    for client in clients:
        for record in client.completed:
            operation = record.operation
            value = record.result.value
            if operation.kind == "txn" and isinstance(value, dict):
                if value.get("committed"):
                    committed += 1
                    if is_conflict_txn(operation):
                        conflict_commits += 1
                else:
                    aborted += 1
                continue
            if not is_audit_read(operation) or not isinstance(value, dict):
                continue
            values = value.get("values", {})
            audited += 1
            group_of = dict(record.groups).get if record.groups else log_of_shard
            by_log = {}
            for key in operation.args["keys"]:
                shard = shard_of_key(key)
                if shard is None:
                    continue
                by_log.setdefault(group_of(shard), []).append(values.get(key))
            if any(len(set(stamps)) > 1 for stamps in by_log.values()):
                torn += 1
    return AuditResult(audited_reads=audited, torn_reads=torn,
                       committed_txns=committed, aborted_txns=aborted,
                       conflict_commits=conflict_commits)


def reads_under_no_log_map(clients, log_maps) -> int:
    """How many completed reads name fragment groups (``(shard, log)``
    pairs, ``CompletedRequest.groups``) that no assignment in ``log_maps``
    (each log epoch's, oldest first) has: a read served across log epochs,
    whose per-group promise :func:`audit_cross_group_consistency` cannot
    judge."""
    return sum(
        1 for client in clients for record in client.completed
        if record.groups and not any(
            all(assignment[shard] == log for shard, log in record.groups)
            for assignment in log_maps))


@dataclass(frozen=True)
class CrossShardWindowResult:
    """Committed client throughput measured over a fixed window."""

    label: str
    duration_ms: float
    completed: int
    completed_per_sec: float
    multi_completed: int
    executed_by_shard: List[int]

    def row(self) -> str:
        shards = "/".join(str(count) for count in self.executed_by_shard)
        return (f"{self.label:<26} {self.completed:>7} "
                f"{self.completed_per_sec:>10.1f}   [{shards}]")


def run_crossshard_window(system: SimulatedSystem, *, operations: Sequence,
                          duration_ms: float, label: str = "",
                          warmup_ms: float = 200.0) -> CrossShardWindowResult:
    """Fixed-window driver measuring *client-completed* requests/second.

    Operations are dealt round-robin over every client (preserving the
    stream's temporal structure); completion is counted at the clients, so
    a cross-shard operation counts once regardless of how many shards it
    touched -- the fair unit for comparing a mixed run against a
    single-shard-only run.
    """
    num_clients = len(system.clients)
    for index, operation in enumerate(operations):
        system.submit(operation, client_index=index % num_clients)

    system.run(warmup_ms)
    completed_before = [len(client.completed) for client in system.clients]
    executed_before = list(system.requests_executed_by_shard())
    system.run(duration_ms)
    completed_after = [len(client.completed) for client in system.clients]
    executed_after = list(system.requests_executed_by_shard())

    completed = sum(after - before for before, after
                    in zip(completed_before, completed_after))
    multi_completed = 0
    for client, before, after in zip(system.clients, completed_before,
                                     completed_after):
        for record in client.completed[before:after]:
            if record.operation.kind in ("multi_get", "txn"):
                multi_completed += 1
    return CrossShardWindowResult(
        label=label,
        duration_ms=duration_ms,
        completed=completed,
        completed_per_sec=1000.0 * completed / max(duration_ms, 1e-9),
        multi_completed=multi_completed,
        executed_by_shard=[after - before for before, after
                           in zip(executed_before, executed_after)],
    )
