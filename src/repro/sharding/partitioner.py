"""Deterministic key partitioners and epoch-versioned partition maps.

Sharded execution only works if *every* correct participant -- each agreement
node's shard router, each execution replica, and each client -- maps a given
key to the same shard.  Partitioners are therefore pure functions of the key
*and the partition-map epoch*: the hash partitioner uses a keyed-nothing
BLAKE2b digest (Python's built-in ``hash`` is randomised per process and must
never be used here), and the key-range partitioner looks the key up in an
immutable :class:`PartitionMap` -- sorted boundaries splitting the key space
into contiguous ranges, plus an ``owners`` tuple assigning each range to one
of the fixed execution clusters.

**Epochs.**  Dynamic rebalancing (``repro.sharding.rebalance``) evolves the
map through *epochs*: a map change (split a range, merge two adjacent ones,
move a boundary) agreed through the ordinary agreement log produces epoch
``e + 1`` from epoch ``e``.  The append-only
:class:`~repro.util.epochs.EpochRegistry` keeps every map ever agreed, so a
participant can answer "who owned key k at epoch e" for any epoch it has
learned -- which is exactly what the deterministic cut semantics need:
batches at or below the map-change batch in the agreed order route by epoch
``e``, batches above it by ``e + 1``.

Keyless operations (``key is None``) fall through to shard 0 so that every
operation has a well-defined owner (rebalancing never moves the keyless
default: only keyed ranges split or merge).
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config import ShardingConfig
from ..errors import ConfigurationError
from ..util.epochs import EpochRegistry

#: shard that owns operations without an extractable key
DEFAULT_SHARD = 0


@dataclass(frozen=True)
class MovedRange:
    """One key range whose owner changed between two partition-map epochs.

    ``lo`` is inclusive, ``hi`` exclusive; ``None`` bounds are the open ends
    of the key space.  The range's application state must be handed off from
    ``old_owner``'s execution cluster to ``new_owner``'s at the epoch cut.
    """

    lo: Optional[str]
    hi: Optional[str]
    old_owner: int
    new_owner: int


@dataclass(frozen=True)
class PartitionMap:
    """One epoch's immutable key-range -> execution-cluster assignment.

    ``boundaries`` are sorted split keys dividing the key space into
    ``len(boundaries) + 1`` contiguous ranges; ``owners[i]`` is the execution
    cluster owning range ``i``.  Unlike the construction-time partitioner,
    a cluster may own several ranges (after a split moved part of a hot
    range to it) or none (after merges drained it); the *number of clusters*
    is fixed for the lifetime of the deployment -- rebalancing moves key
    ownership between clusters, it never adds or removes replicas.
    """

    epoch: int
    boundaries: Tuple[str, ...]
    owners: Tuple[int, ...]
    num_clusters: int

    def __post_init__(self) -> None:
        if len(self.owners) != len(self.boundaries) + 1:
            raise ConfigurationError(
                "a partition map needs exactly one owner per range "
                f"({len(self.boundaries) + 1} ranges, {len(self.owners)} owners)"
            )
        if any(left >= right for left, right in
               zip(self.boundaries, self.boundaries[1:])):
            raise ConfigurationError(
                "partition-map boundaries must be strictly increasing"
            )
        if any(not 0 <= owner < self.num_clusters for owner in self.owners):
            raise ConfigurationError(
                f"range owners must be clusters in [0, {self.num_clusters})"
            )

    # ------------------------------------------------------------------ #
    # Lookup.
    # ------------------------------------------------------------------ #

    @property
    def num_ranges(self) -> int:
        return len(self.owners)

    def range_of_key(self, key: str) -> int:
        """Index of the range containing ``key``."""
        return bisect_right(self.boundaries, key)

    def owner_of_key(self, key: str) -> int:
        return self.owners[self.range_of_key(key)]

    def range_bounds(self, index: int) -> Tuple[Optional[str], Optional[str]]:
        """``[lo, hi)`` bounds of range ``index`` (None = open end)."""
        lo = self.boundaries[index - 1] if index > 0 else None
        hi = self.boundaries[index] if index < len(self.boundaries) else None
        return lo, hi

    def ranges_of_owner(self, owner: int) -> List[int]:
        return [i for i, o in enumerate(self.owners) if o == owner]

    def describe(self) -> str:
        """Human-readable ``[lo, hi) -> owner`` listing (examples, demos)."""
        parts = []
        for index in range(self.num_ranges):
            lo, hi = self.range_bounds(index)
            parts.append(f"[{lo if lo is not None else '-inf'}, "
                         f"{hi if hi is not None else '+inf'}) -> s{self.owners[index]}")
        return "; ".join(parts)

    # ------------------------------------------------------------------ #
    # Map evolution (each returns a *new* map with ``epoch + 1``).
    # ------------------------------------------------------------------ #

    def split(self, at: str, new_owner: int) -> "PartitionMap":
        """Insert boundary ``at``: the upper half of the range containing it
        moves to ``new_owner``; the lower half keeps the old owner."""
        if at in self.boundaries:
            raise ConfigurationError(f"boundary {at!r} already exists")
        index = self.range_of_key(at)
        lo, _ = self.range_bounds(index)
        if lo is not None and at <= lo:
            raise ConfigurationError(f"split key {at!r} not inside its range")
        boundaries = list(self.boundaries)
        owners = list(self.owners)
        boundaries.insert(index, at)
        owners.insert(index + 1, new_owner)
        return PartitionMap(epoch=self.epoch + 1, boundaries=tuple(boundaries),
                            owners=tuple(owners), num_clusters=self.num_clusters)

    def merge(self, at: str) -> "PartitionMap":
        """Remove boundary ``at``: the two adjacent ranges merge and the
        combined range keeps the *left* range's owner (the right range's
        state is handed off to it)."""
        if at not in self.boundaries:
            raise ConfigurationError(f"no boundary {at!r} to merge at")
        index = self.boundaries.index(at)
        boundaries = list(self.boundaries)
        owners = list(self.owners)
        del boundaries[index]
        del owners[index + 1]  # left owner absorbs the combined range
        return PartitionMap(epoch=self.epoch + 1, boundaries=tuple(boundaries),
                            owners=tuple(owners), num_clusters=self.num_clusters)

    def move_boundary(self, old: str, new: str) -> "PartitionMap":
        """Shift boundary ``old`` to ``new`` (must stay strictly between its
        neighbours): the keys between the two positions change owner."""
        if old not in self.boundaries:
            raise ConfigurationError(f"no boundary {old!r} to move")
        if new in self.boundaries:
            raise ConfigurationError(f"boundary {new!r} already exists")
        index = self.boundaries.index(old)
        left = self.boundaries[index - 1] if index > 0 else None
        right = self.boundaries[index + 1] if index + 1 < len(self.boundaries) else None
        if (left is not None and new <= left) or (right is not None and new >= right):
            raise ConfigurationError(
                f"moved boundary {new!r} must stay between its neighbours"
            )
        boundaries = list(self.boundaries)
        boundaries[index] = new
        return PartitionMap(epoch=self.epoch + 1, boundaries=tuple(boundaries),
                            owners=self.owners, num_clusters=self.num_clusters)

    def moved_ranges(self, newer: "PartitionMap") -> List[MovedRange]:
        """Maximal key ranges whose owner differs between this map and
        ``newer`` -- the state that must be handed off at the epoch cut.

        Walks the union of both boundary sets, so any single split / merge /
        move (and in fact any pair of maps over the same clusters) yields
        the exact moved intervals.
        """
        cuts = sorted(set(self.boundaries) | set(newer.boundaries))
        edges: List[Optional[str]] = [None] + list(cuts) + [None]
        moved: List[MovedRange] = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            probe = lo if lo is not None else ""
            old_owner = self.owners[bisect_right(self.boundaries, probe)]
            new_owner = newer.owners[bisect_right(newer.boundaries, probe)]
            if old_owner == new_owner:
                continue
            if moved and moved[-1].hi == lo and moved[-1].old_owner == old_owner \
                    and moved[-1].new_owner == new_owner:
                moved[-1] = MovedRange(lo=moved[-1].lo, hi=hi,
                                       old_owner=old_owner, new_owner=new_owner)
            else:
                moved.append(MovedRange(lo=lo, hi=hi, old_owner=old_owner,
                                        new_owner=new_owner))
        return moved


def key_in_range(key: str, lo: Optional[str], hi: Optional[str]) -> bool:
    """Whether ``key`` lies in ``[lo, hi)`` (None = open end)."""
    if lo is not None and key < lo:
        return False
    if hi is not None and key >= hi:
        return False
    return True


class Partitioner(ABC):
    """Maps routing keys to shard indices in ``[0, num_shards)``."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError("a partitioner needs at least one shard")
        self.num_shards = num_shards

    def shard_of_key(self, key: Optional[str],
                     epoch: Optional[int] = None) -> int:
        """Shard owning ``key`` at partition-map ``epoch`` (default: the
        latest known map; keyless operations go to shard 0)."""
        if key is None:
            return DEFAULT_SHARD
        return self._shard_of(key, epoch)

    @property
    def latest_epoch(self) -> int:
        """Highest partition-map epoch this partitioner knows (0 when the
        partitioning is static)."""
        return 0

    def has_epoch(self, epoch: int) -> bool:
        """Whether partition-map ``epoch`` was agreed (a static
        partitioning knows epoch 0 only)."""
        return epoch == 0

    @abstractmethod
    def _shard_of(self, key: str, epoch: Optional[int]) -> int:
        """Shard owning a non-None key at ``epoch``."""


class HashPartitioner(Partitioner):
    """Stable-hash partitioning: ``blake2b(key) mod num_shards``.

    BLAKE2b is deterministic across processes and machines, so two replicas
    built from the same configuration always agree on the owner of a key --
    the property the router's misroute-rejection check relies on.  Hash
    partitioning has no boundaries, so it never rebalances: every epoch maps
    keys identically.
    """

    def _shard_of(self, key: str, epoch: Optional[int]) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.num_shards


class KeyRangePartitioner(Partitioner):
    """Lexicographic key-range partitioning over an epoch-versioned map.

    Constructed from ``num_shards - 1`` sorted split keys (the epoch-0 map
    assigns range ``i`` to cluster ``i``, reproducing the original static
    behaviour); rebalancing appends later epochs to the shared
    :class:`~repro.util.epochs.EpochRegistry`, and lookups take the epoch
    whose map should answer -- per-node epoch cursors live with the queue,
    execution, and client roles, never here.
    """

    def __init__(self, boundaries: Sequence[str]) -> None:
        num_shards = len(boundaries) + 1
        super().__init__(num_shards)
        initial = PartitionMap(epoch=0, boundaries=tuple(boundaries),
                               owners=tuple(range(num_shards)),
                               num_clusters=num_shards)
        self.registry: EpochRegistry[PartitionMap] = EpochRegistry(initial)

    @property
    def latest_epoch(self) -> int:
        return self.registry.latest_epoch

    def has_epoch(self, epoch: int) -> bool:
        return self.registry.has_epoch(epoch)

    def _shard_of(self, key: str, epoch: Optional[int]) -> int:
        pmap = (self.registry.latest if epoch is None
                else self.registry.map_for(epoch))
        return pmap.owner_of_key(key)


def make_partitioner(sharding: ShardingConfig) -> Partitioner:
    """Build the partitioner described by a :class:`ShardingConfig`."""
    sharding.validate()
    if sharding.strategy == "range":
        return KeyRangePartitioner(tuple(sharding.range_boundaries))
    return HashPartitioner(sharding.num_shards)
