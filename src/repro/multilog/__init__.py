"""Multi-log ordering: K independent agreement logs over one shard space.

The ordering plane is partitioned into ``K`` independent ``3f + 1``
agreement clusters ("logs"), each owning a group of execution shards
through an epoch-versioned :class:`~repro.multilog.logmap.LogMap` (the
ordering-plane analogue of the partition map).  Single-group requests flow
through their own log end to end, so committed throughput scales with
``K``; cross-group operations and log-map changes are fixed at one
consistent cut by a cross-log coordination round of ``f + 1``-vouched
per-log sequence bindings (see :mod:`repro.multilog.queue`).
"""

from .client import MultiLogClient
from .logmap import LogMap, initial_log_map
from .messages import (CrossLogBinding, CrossLogBindingBody,
                       CrossLogBindingFetch, LogMapChange)
from .queue import CrossLogRound


def __getattr__(name: str):
    # ``MultiLogSystem`` is an alias of the one builder, kept only because
    # the frozen performance ledger (benchmarks/ledger/workloads.py) imports
    # it under this name.  Resolved on first use: ``repro.sharding.system``
    # itself imports this package.
    if name == "MultiLogSystem":
        from ..sharding.system import ShardedSystem
        return ShardedSystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CrossLogBinding", "CrossLogBindingBody", "CrossLogBindingFetch",
    "CrossLogRound", "LogMap", "LogMapChange", "MultiLogClient",
    "MultiLogSystem", "initial_log_map",
]
