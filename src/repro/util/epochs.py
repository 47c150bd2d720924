"""An append-only, epoch-indexed history of agreed maps.

The partition map (key range -> execution cluster) and the log map (shard
-> agreement log) both evolve through config operations ordered by the
agreement log, one epoch per applied change.  Every role of a deployment
derives the same history from the same agreed order, so one
:class:`EpochRegistry` per map is shared by all of them: appends are
idempotent by epoch (a map already derived by another role is confirmed,
never replaced).  Per-node epoch *cursors* live with the queue, execution
and client roles; the registry only answers "what was the map at epoch e".
"""

from __future__ import annotations

from typing import Generic, List, TypeVar

from ..errors import ConfigurationError

#: a map with an ``epoch`` attribute (``PartitionMap``, ``LogMap``)
M = TypeVar("M")


class EpochRegistry(Generic[M]):
    """Append-only history of agreed maps, indexed by epoch."""

    def __init__(self, initial: M) -> None:
        if initial.epoch != 0:
            raise ConfigurationError("the initial map must be epoch 0")
        self._maps: List[M] = [initial]

    @property
    def latest_epoch(self) -> int:
        return len(self._maps) - 1

    @property
    def latest(self) -> M:
        return self._maps[-1]

    def map_for(self, epoch: int) -> M:
        if not 0 <= epoch < len(self._maps):
            raise KeyError(f"no map for epoch {epoch}")
        return self._maps[epoch]

    def has_epoch(self, epoch: int) -> bool:
        return 0 <= epoch < len(self._maps)

    def append(self, new_map: M) -> None:
        """Record the map for ``latest_epoch + 1`` (idempotent by epoch)."""
        if new_map.epoch <= self.latest_epoch:
            return  # already derived by another role of this deployment
        if new_map.epoch != self.latest_epoch + 1:
            raise ConfigurationError(
                f"maps must be appended in epoch order (have "
                f"{self.latest_epoch}, got {new_map.epoch})")
        self._maps.append(new_map)

    def snapshot(self) -> dict:
        """The newest map's snapshot (the ``log_map`` probe)."""
        return self.latest.snapshot()
