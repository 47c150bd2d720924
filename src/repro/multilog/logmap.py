"""Epoch-versioned shard -> agreement-log assignment.

The multi-log deployment routes each execution shard's ordered feed through
exactly one of ``K`` independent agreement logs.  :class:`LogMap` is the
immutable assignment at one *log epoch* -- the ordering-plane analogue of
:class:`~repro.sharding.partitioner.PartitionMap` -- and, like the partition
map's, its history is one shared :class:`~repro.util.epochs.EpochRegistry`
every role of the deployment derives identically from the agreed
``LogMapChange`` history.

A log-map change moves one shard between log groups; its position in the
*cross-log cut* (every log orders the change marker, and each queue applies
it exactly when its release frontier crosses the marker) is what makes the
epoch advance a consistent cut over all ``K`` orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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

    epoch: int
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
        return LogMap(epoch=self.epoch + 1,
                      assignment=tuple(assignment), num_logs=self.num_logs)

    def snapshot(self) -> dict:
        """Observability snapshot (registered as a global probe)."""
        return {
            "log_epoch": self.epoch,
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
    return LogMap(epoch=0,
                  assignment=tuple(s // group for s in range(num_shards)),
                  num_logs=num_logs)
