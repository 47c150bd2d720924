"""BASE-style Byzantine agreement library.

The agreement cluster orders client requests with a PBFT-style three-phase
protocol run by ``3f + 1`` replicas (:class:`AgreementReplica`), batches
(bundles) requests in each replica's :class:`Proposer`, checkpoints its log,
and changes views when the primary appears faulty.  It does **not**
execute requests against the application: instead each replica "executes" an
ordered batch against a pluggable *local state machine*
(:class:`~repro.agreement.local.LocalExecutor`).

* In the separated architecture the local state machine is the
  message queue (:class:`~repro.sharding.queue.ShardRouterQueue`), which
  relays ordered batches to the execution cluster and relays reply
  certificates back to clients -- exactly the four-line change to BASE the
  paper describes.
* In the coupled baseline (BASE/Same) the local state machine is the
  :class:`~repro.core.baseline.DirectExecutor`, which runs the application
  and replies to clients directly, reproducing the traditional architecture.
"""

from .local import LocalExecutor, RetryOutcome
from .log import AgreementLog, LogEntry
from .batching import Batcher
from .proposer import Proposer
from .replica import AgreementReplica

__all__ = [
    "LocalExecutor",
    "RetryOutcome",
    "AgreementLog",
    "LogEntry",
    "Batcher",
    "Proposer",
    "AgreementReplica",
]
