"""Epoch-versioned shard -> agreement-log assignment.

The multi-log deployment routes each execution shard's ordered feed through
exactly one of ``K`` independent agreement logs.  :class:`LogMap` is the
immutable assignment at one *log epoch* -- the ordering-plane analogue of
:class:`~repro.sharding.partitioner.PartitionMap` -- and
:class:`LogMapRegistry` is the shared append-only history every role of the
deployment derives identically from the agreed ``LogMapChange`` history.

A log-map change moves one shard between log groups; its position in the
*cross-log cut* (every log orders the change marker, and each queue applies
it exactly when its release frontier crosses the marker) is what makes the
epoch advance a consistent cut over all ``K`` orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import ConfigurationError


@dataclass(frozen=True)
class LogMap:
    """One log epoch's immutable shard -> agreement-log assignment.

    ``assignment[s]`` is the index of the log whose agreement cluster
    orders shard ``s``'s feed.  The number of logs is fixed for the
    lifetime of the deployment -- a change moves shard ownership between
    logs, it never adds or removes clusters (mirroring the partition map's
    fixed-cluster discipline).
    """

    log_epoch: int
    assignment: Tuple[int, ...]
    num_logs: int

    def __post_init__(self) -> None:
        if any(not 0 <= log < self.num_logs for log in self.assignment):
            raise ConfigurationError(
                f"shard owners must be logs in [0, {self.num_logs})")

    @property
    def num_shards(self) -> int:
        return len(self.assignment)

    def log_of(self, shard: int) -> int:
        """The log whose agreement cluster orders ``shard``'s feed."""
        return self.assignment[shard]

    def shards_of_log(self, log: int) -> List[int]:
        """Ascending list of shards in ``log``'s group."""
        return [shard for shard, owner in enumerate(self.assignment)
                if owner == log]

    def move(self, shard: int, target_log: int) -> "LogMap":
        """Reassign ``shard`` to ``target_log`` (a new map at epoch + 1)."""
        if not 0 <= shard < self.num_shards:
            raise ConfigurationError(f"no shard {shard} to move")
        if not 0 <= target_log < self.num_logs:
            raise ConfigurationError(f"no log {target_log} to move to")
        if self.assignment[shard] == target_log:
            raise ConfigurationError(
                f"shard {shard} is already ordered by log {target_log}")
        assignment = list(self.assignment)
        assignment[shard] = target_log
        return LogMap(log_epoch=self.log_epoch + 1,
                      assignment=tuple(assignment), num_logs=self.num_logs)

    def snapshot(self) -> dict:
        """Observability snapshot (registered as a global probe)."""
        return {
            "log_epoch": self.log_epoch,
            "num_logs": self.num_logs,
            "assignment": list(self.assignment),
        }


def initial_log_map(num_shards: int, num_logs: int) -> LogMap:
    """The epoch-0 assignment: contiguous groups of equal size.

    Shard ``s`` belongs to log ``s // (num_shards // num_logs)`` --
    ``SystemConfig`` validation guarantees the division is exact.
    """
    if num_logs < 1 or num_shards < num_logs or num_shards % num_logs:
        raise ConfigurationError(
            f"{num_shards} shards cannot form {num_logs} equal log groups")
    group = num_shards // num_logs
    return LogMap(log_epoch=0,
                  assignment=tuple(s // group for s in range(num_shards)),
                  num_logs=num_logs)


class LogMapRegistry:
    """Append-only history of agreed log maps, indexed by log epoch.

    Shared by every role of one simulated deployment (like the partition
    map registry): the contents are a pure function of the agreed
    ``LogMapChange`` history, so appends are idempotent by epoch -- a map
    already derived by another role is confirmed, never replaced.  Per-node
    log-epoch *cursors* live with the queue / execution / client roles;
    the registry only answers "what was the map at epoch e".
    """

    def __init__(self, initial: LogMap) -> None:
        if initial.log_epoch != 0:
            raise ConfigurationError("the initial log map must be epoch 0")
        self._maps: List[LogMap] = [initial]

    @property
    def latest_epoch(self) -> int:
        return len(self._maps) - 1

    @property
    def latest(self) -> LogMap:
        return self._maps[-1]

    def log_of(self, shard: int) -> int:
        """The log ordering ``shard``'s feed under the newest map."""
        return self._maps[-1].assignment[shard]

    def map_for(self, log_epoch: int) -> LogMap:
        if not 0 <= log_epoch < len(self._maps):
            raise KeyError(f"no log map for epoch {log_epoch}")
        return self._maps[log_epoch]

    def has_epoch(self, log_epoch: int) -> bool:
        return 0 <= log_epoch < len(self._maps)

    def append(self, new_map: LogMap) -> None:
        """Record the map for ``latest_epoch + 1`` (idempotent by epoch)."""
        if new_map.log_epoch <= self.latest_epoch:
            return  # already derived by another role of this deployment
        if new_map.log_epoch != self.latest_epoch + 1:
            raise ConfigurationError(
                f"log maps must be appended in epoch order (have "
                f"{self.latest_epoch}, got {new_map.log_epoch})")
        self._maps.append(new_map)

    def snapshot(self) -> dict:
        return self.latest.snapshot()
