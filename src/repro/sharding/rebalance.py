"""Dynamic shard rebalancing: load-triggered partition-map changes.

The static partitioner chosen at construction time is only right for the
workload it was chosen for; a hot key range saturates one execution cluster
while the others idle.  This module closes the loop:

1. **Trigger** -- every :class:`~repro.sharding.queue.ShardRouterQueue`
   already counts, per observation window, how many released requests each
   cluster (and each key) received.  The :class:`RebalanceController`
   attached to the *primary* agreement replica inspects those counters on a
   timer.
2. **Agreement** -- when a cluster is hot (or two adjacent ranges are cold),
   the controller builds a :class:`~repro.sharding.messages.MapChange` and
   the primary orders it through the ordinary agreement log as a config
   operation: no new protocol phase, the change is just a batch.
3. **Cut** -- the change's position in the agreed global order is the epoch
   cut.  Each shard router releases epoch-``e`` traffic up to the marker,
   applies the change (:func:`apply_map_change` -- deterministically a
   no-op if the change lost a race with a concurrent cut), and routes
   everything after it by epoch ``e + 1``.
4. **Handoff** -- execution clusters hand the moved ranges' state off at
   their own in-stream cut points (see
   :class:`~repro.sharding.execution.ShardExecutionNode`).

Every decision input is a deterministic function of the released (committed)
traffic, so benchmark runs replay bit-identically for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..config import RebalanceConfig
from .messages import MapChange
from .partitioner import PartitionMap, key_in_range

#: upper bound on the number of key ranges a sequence of splits may create
#: (bounds the partition-map size)
MAX_RANGES = 64


def apply_map_change(pmap: PartitionMap, change: MapChange) -> Optional[PartitionMap]:
    """Apply ``change`` to ``pmap``; ``None`` if it is not applicable.

    This is the *cut-time* validity judgement: every correct node evaluates
    it at the same position in the agreed order against the same current
    map, so all of them either apply the change or all treat it as a no-op.
    A change whose ``parent_epoch`` is stale (a concurrent cut won the race)
    or whose keys no longer fit the current boundaries is rejected here --
    never half-applied.
    """
    if change.parent_epoch != pmap.epoch:
        return None
    if not change.well_formed(pmap.num_clusters):
        return None
    try:
        if change.kind == "split":
            return pmap.split(change.key, change.owner)
        if change.kind == "merge":
            return pmap.merge(change.key)
        if change.kind == "move":
            return pmap.move_boundary(change.key, change.to_key)
    except Exception:
        return None
    return None


@dataclass
class ShardLoadWindow:
    """Released-request counters over one observation window.

    Maintained by each shard router (counting at release time, i.e. over
    *committed* traffic, so all replicas observe identical values at the
    same log position); reset at every epoch cut so the window always
    describes the current map.
    """

    num_clusters: int
    requests_by_cluster: List[int] = field(default_factory=list)
    requests_by_key: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.requests_by_cluster:
            self.requests_by_cluster = [0] * self.num_clusters

    @property
    def total(self) -> int:
        return sum(self.requests_by_cluster)

    def note(self, cluster: int, key: Optional[str]) -> None:
        self.requests_by_cluster[cluster] += 1
        if key is not None:
            self.requests_by_key[key] = self.requests_by_key.get(key, 0) + 1

    def reset(self) -> None:
        self.requests_by_cluster = [0] * self.num_clusters
        self.requests_by_key.clear()

    def snapshot(self) -> dict:
        """Window totals for the metrics registry's probes (keys elided --
        only their count, so snapshots stay bounded under hot-key skew)."""
        return {
            "total": self.total,
            "requests_by_cluster": list(self.requests_by_cluster),
            "distinct_keys": len(self.requests_by_key),
        }


def split_point(window: ShardLoadWindow, pmap: PartitionMap,
                range_index: int) -> Optional[str]:
    """The weighted-median key of a range's observed traffic.

    Splitting at the median sends (approximately) half the range's observed
    load to the new owner.  ``None`` when the range's traffic concentrates
    on a single key or its head -- one key cannot be split, and a boundary
    equal to the range's first loaded key would move everything (a plain
    ownership move, which the ``move`` policy covers, not a split).
    """
    lo, hi = pmap.range_bounds(range_index)
    keys = sorted(key for key in window.requests_by_key
                  if key_in_range(key, lo, hi))
    if len(keys) < 2:
        return None
    total = sum(window.requests_by_key[key] for key in keys)
    running = 0
    for key in keys:
        running += window.requests_by_key[key]
        if running * 2 >= total:
            median = key
            break
    # The split boundary is the first loaded key *after* the median mass,
    # so both halves keep at least one loaded key.
    later = [key for key in keys if key > median]
    if not later:
        later = keys[1:]
    return later[0] if later else None


class RebalanceController:
    """The primary's load-watching policy loop.

    ``propose(...)`` is consulted on a timer by the hosting agreement
    replica (only when it is the primary) and returns the next
    :class:`MapChange` to order, or ``None``.  The controller is
    intentionally simple -- split the hottest range of a hot cluster toward
    the least-loaded cluster, merge adjacent cold ranges, honour a cooldown
    -- and entirely mechanical: richer policies (e.g. the approximate-MDP
    controllers of the dynamic-resource-management literature) can replace
    it behind the same two-method surface.
    """

    def __init__(self, config: RebalanceConfig) -> None:
        config.validate()
        self.config = config
        self._last_proposed_at: Optional[float] = None
        # Statistics (benchmarks and the example read these).
        self.splits_proposed = 0
        self.merges_proposed = 0
        self.moves_proposed = 0

    @property
    def proposals(self) -> int:
        return self.splits_proposed + self.merges_proposed + self.moves_proposed

    def snapshot(self) -> dict:
        """Proposal counters for the metrics registry's probes."""
        return {
            "splits_proposed": self.splits_proposed,
            "merges_proposed": self.merges_proposed,
            "moves_proposed": self.moves_proposed,
            "last_proposed_at_ms": self._last_proposed_at,
        }

    def propose(self, window: ShardLoadWindow, pmap: PartitionMap,
                now: float) -> Optional[MapChange]:
        """The next map change worth ordering, or ``None``.

        Side-effect free: the caller reports back with :meth:`note_ordered`
        once the change actually entered the log, and only then does the
        cooldown start -- a proposal the primary had to drop (log watermark
        full, view change in progress) must not silence the controller for
        a whole cooldown while the hot shard stays saturated.
        """
        if not self.config.enabled:
            return None
        if (self._last_proposed_at is not None
                and now - self._last_proposed_at < self.config.cooldown_ms):
            return None
        if window.total < self.config.min_window_requests:
            return None
        return (self._propose_split(window, pmap)
                or self._propose_merge(window, pmap))

    def note_ordered(self, change: MapChange, now: float) -> None:
        """Record that ``change`` was ordered: start the cooldown and count it."""
        self._last_proposed_at = now
        if change.kind == "split":
            self.splits_proposed += 1
        elif change.kind == "merge":
            self.merges_proposed += 1
        else:
            self.moves_proposed += 1

    # ------------------------------------------------------------------ #
    # Policies.
    # ------------------------------------------------------------------ #

    def _range_loads(self, window: ShardLoadWindow,
                     pmap: PartitionMap) -> List[int]:
        loads = [0] * pmap.num_ranges
        for key, count in window.requests_by_key.items():
            loads[pmap.range_of_key(key)] += count
        return loads

    def _propose_split(self, window: ShardLoadWindow,
                       pmap: PartitionMap) -> Optional[MapChange]:
        if pmap.num_ranges >= MAX_RANGES:
            return None
        per_cluster = window.requests_by_cluster
        mean = window.total / max(len(per_cluster), 1)
        hot = max(range(len(per_cluster)), key=lambda c: per_cluster[c])
        if per_cluster[hot] < self.config.hot_ratio * mean:
            return None
        cold = min(range(len(per_cluster)), key=lambda c: per_cluster[c])
        if cold == hot:
            return None
        range_loads = self._range_loads(window, pmap)
        hot_ranges = pmap.ranges_of_owner(hot)
        if not hot_ranges:
            return None
        busiest = max(hot_ranges, key=lambda r: range_loads[r])
        at = split_point(window, pmap, busiest)
        if at is None or at in pmap.boundaries:
            return None
        return MapChange(kind="split", parent_epoch=pmap.epoch, key=at,
                         owner=cold)

    def _propose_merge(self, window: ShardLoadWindow,
                       pmap: PartitionMap) -> Optional[MapChange]:
        # Never merge below the deployment's construction-time granularity:
        # the initial map gave each cluster one range, and keeping at least
        # that many ranges means a later hotspot always has somewhere to go.
        if pmap.num_ranges <= pmap.num_clusters:
            return None
        per_cluster = window.requests_by_cluster
        mean = window.total / max(len(per_cluster), 1)
        ceiling = self.config.cold_ratio * mean
        range_loads = self._range_loads(window, pmap)
        best: Optional[int] = None
        for index in range(pmap.num_ranges - 1):
            # Only the *ranges* need to be cold: their owners may be busy
            # with the current hotspot elsewhere, and merging two abandoned
            # ranges moves next to no state while shrinking the map.
            if range_loads[index] > ceiling or range_loads[index + 1] > ceiling:
                continue
            # A merge keeps the left owner: never idle a cluster by taking
            # its last range (the next split would hand it one back).
            if pmap.owners.count(pmap.owners[index + 1]) == 1:
                continue
            if best is None or (range_loads[index] + range_loads[index + 1]
                                < range_loads[best] + range_loads[best + 1]):
                best = index
        if best is None:
            return None
        return MapChange(kind="merge", parent_epoch=pmap.epoch,
                         key=pmap.boundaries[best])
