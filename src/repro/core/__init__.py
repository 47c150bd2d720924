"""The separated agreement/execution architecture (the paper's contribution).

* :class:`~repro.core.message_queue.QueueCore` -- what the local state
  machine installed in each agreement node is made of: relaying ordered
  batches to the execution cluster and reply certificates back to clients
  (the queue itself is :class:`~repro.sharding.queue.ShardRouterQueue`).
* :class:`~repro.core.client.ClientNode` -- the client protocol (request
  certificates, retransmission, reply-certificate verification).
* :class:`~repro.core.system.SimulatedSystem` -- the base every deployment
  shares; the paper's, :class:`~repro.sharding.system.SeparatedSystem`, is
  the one-shard :class:`~repro.sharding.system.ShardedSystem` (optionally
  with the privacy firewall), and its execution replicas are
  :class:`~repro.sharding.execution.ExecutionNode`.
* :class:`~repro.core.baseline.CoupledSystem` and
  :class:`~repro.core.unreplicated.UnreplicatedSystem` -- the two baselines the
  paper compares against.
"""

from .client import ClientNode, CompletedRequest
from .baseline import CoupledSystem, DirectExecutor
from .unreplicated import UnreplicatedSystem, UnreplicatedServer

__all__ = [
    "ClientNode",
    "CompletedRequest",
    "SeparatedSystem",
    "CoupledSystem",
    "DirectExecutor",
    "UnreplicatedSystem",
    "UnreplicatedServer",
]


def __getattr__(name: str):
    # The paper's deployment is built by ``repro.sharding``, which imports
    # this package: resolved on first use.
    if name == "SeparatedSystem":
        from ..sharding.system import SeparatedSystem
        return SeparatedSystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
