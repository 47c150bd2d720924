"""Sharded execution: one agreement cluster, many execution clusters.

The paper separates agreement from execution so that the ``3f + 1`` ordering
cluster never touches application state.  This subsystem exploits the other
direction of that cut: because ordered batches are opaque to the agreement
cluster, the execution side can be partitioned into ``num_shards``
independent ``2g + 1`` clusters -- each owning a key range or hash slice of
the application state -- behind the *same* agreement cluster.  Routing is a
deterministic function of the agreed global order, so sharding adds no
agreement rounds; execution throughput scales with the number of shards
while ordering capacity stays fixed.

* :mod:`~repro.sharding.partitioner` -- deterministic hash / key-range
  partitioners;
* :mod:`~repro.sharding.router` -- the routing rules (what a batch is,
  which shard owns what at an epoch) shared by agreement nodes, execution
  replicas, and clients;
* :mod:`~repro.sharding.queue` -- the shard-routing message queue installed
  in each agreement node;
* :mod:`~repro.sharding.execution` -- shard execution replicas with misroute
  rejection and per-shard checkpoint/state-transfer lifecycles;
* :mod:`~repro.sharding.client` -- the client's multi-shard operation part
  (:class:`~repro.core.client.ClientNode` collects the ``g + 1`` reply
  quorum from the owning shard only);
* :mod:`~repro.sharding.system` -- :class:`ShardedSystem`, the deployment
  builder (``multilog.num_logs`` agreement clusters, one by default).
"""

from .client import ShardAwareClient
from .execution import ShardExecutionNode
from .messages import (
    CrossShardSubReply,
    CrossShardVote,
    CrossShardVoteFetch,
    MapChange,
    RangeFetch,
    RangeHandoff,
    ShardLocalBatch,
    SubReplyBody,
)
from .partitioner import (
    DEFAULT_SHARD,
    HashPartitioner,
    KeyRangePartitioner,
    MovedRange,
    Partitioner,
    PartitionMap,
    make_partitioner,
)
from .queue import ShardRouterQueue
from .rebalance import RebalanceController, ShardLoadWindow, apply_map_change
from .router import ShardRouter
from .system import ShardedSystem, sharded_topology

__all__ = [
    "CrossShardSubReply",
    "CrossShardVote",
    "CrossShardVoteFetch",
    "DEFAULT_SHARD",
    "HashPartitioner",
    "KeyRangePartitioner",
    "MapChange",
    "SubReplyBody",
    "MovedRange",
    "PartitionMap",
    "Partitioner",
    "RangeFetch",
    "RangeHandoff",
    "RebalanceController",
    "ShardAwareClient",
    "ShardedSystem",
    "ShardExecutionNode",
    "ShardLoadWindow",
    "ShardLocalBatch",
    "ShardRouter",
    "ShardRouterQueue",
    "apply_map_change",
    "make_partitioner",
    "sharded_topology",
]
