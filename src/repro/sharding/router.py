"""The shard router: operation -> owning execution cluster, per epoch.

A router pairs a :class:`~repro.sharding.partitioner.Partitioner` with an
application-supplied *key extractor* (e.g.
:func:`repro.apps.kvstore.extract_key`).  The same router instance (or an
identically-configured one) runs in three places:

* in every agreement node's :class:`~repro.sharding.queue.ShardRouterQueue`,
  to demultiplex the globally agreed sequence into per-shard subsequences;
* in every :class:`~repro.sharding.execution.ShardExecutionNode`, to verify
  that each request in a routed batch really belongs to it (misroute
  rejection: a Byzantine agreement node cannot make a shard execute a
  request it does not own);
* in every sharded :class:`~repro.core.client.ClientNode`, to know which
  shard's ``g + 1`` reply quorum to wait for.

Determinism across these sites is what makes sharding agreement-free: no
extra protocol round decides ownership, the key does.  With dynamic
rebalancing the mapping is additionally a function of the *partition-map
epoch*: every lookup takes the epoch whose map should answer, and each role
keeps its own epoch cursor advanced at the deterministic cut points the
agreed order defines (``None`` asks the latest known map -- correct only for
epoch-unaware callers such as workload drivers on a not-yet-rebalanced
system).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..messages.request import ClientRequest, EncryptedBody
from ..statemachine.interface import Operation
from .partitioner import DEFAULT_SHARD, Partitioner

#: extracts the routing key from an operation (None = keyless)
KeyExtractor = Callable[[Operation], Optional[str]]

#: extracts *all* routing keys from a multi-key operation (None = single-key)
MultiKeyExtractor = Callable[[Operation], Optional[Tuple[str, ...]]]


def _no_key(_: Operation) -> Optional[str]:
    return None


def _no_keys(_: Operation) -> Optional[Tuple[str, ...]]:
    return None


class ShardRouter:
    """Deterministic (request, epoch) -> shard mapping."""

    def __init__(self, partitioner: Partitioner,
                 key_extractor: Optional[KeyExtractor] = None,
                 multi_key_extractor: Optional[MultiKeyExtractor] = None) -> None:
        self.partitioner = partitioner
        self.key_extractor: KeyExtractor = key_extractor or _no_key
        self.multi_key_extractor: MultiKeyExtractor = (multi_key_extractor
                                                       or _no_keys)
        # Ad-hoc classification counters (the router instance is shared by
        # every role of one system, so these are system-wide totals; they
        # are surfaced through the observability hub's global probes).
        self.single_shard_classified = 0
        self.cross_shard_classified = 0

    def snapshot(self) -> dict:
        """Classification counters for the metrics registry's probes."""
        return {
            "num_shards": self.num_shards,
            "latest_epoch": self.latest_epoch,
            "single_shard_classified": self.single_shard_classified,
            "cross_shard_classified": self.cross_shard_classified,
        }

    @property
    def num_shards(self) -> int:
        return self.partitioner.num_shards

    @property
    def latest_epoch(self) -> int:
        return self.partitioner.latest_epoch

    def routing_key(self, request: ClientRequest) -> Optional[str]:
        """The routing key of a client request (None = keyless/opaque)."""
        operation = request.operation
        if isinstance(operation, EncryptedBody):
            return None
        return self.key_extractor(operation)

    def shard_of_operation(self, operation: Operation,
                           epoch: Optional[int] = None) -> int:
        return self.partitioner.shard_of_key(self.key_extractor(operation), epoch)

    def shard_of_request(self, request: ClientRequest,
                         epoch: Optional[int] = None) -> int:
        """Shard owning a client request at ``epoch``.

        Encrypted request bodies (privacy-firewall deployments) hide the key
        from the router; the configuration layer forbids combining sharding
        with the firewall, so an encrypted body here is a protocol violation
        and routes to the default shard rather than crashing the router.
        """
        operation = request.operation
        if isinstance(operation, EncryptedBody):
            return DEFAULT_SHARD
        return self.shard_of_operation(operation, epoch)

    def shards_of_requests(self, requests: List[ClientRequest],
                           epoch: Optional[int] = None) -> List[int]:
        """Distinct owning shards of a batch's requests, in ascending order."""
        return sorted({self.shard_of_request(request, epoch)
                       for request in requests})

    def shards_of_certificates(self, certificates,
                               epoch: Optional[int] = None) -> List[int]:
        """Distinct owning shards of a batch of request *certificates* (the
        shape the agreement layer holds), ascending."""
        return self.shards_of_requests(
            [certificate.payload for certificate in certificates
             if isinstance(certificate.payload, ClientRequest)], epoch)

    # ------------------------------------------------------------------ #
    # Multi-key (cross-shard) classification.
    # ------------------------------------------------------------------ #

    def keys_of_operation(self, operation: Operation) -> Optional[Tuple[str, ...]]:
        """All routing keys of a multi-key operation (None for single-key
        operations, encrypted bodies, and keyless operations)."""
        if isinstance(operation, EncryptedBody):
            return None
        return self.multi_key_extractor(operation)

    def shards_of_operation_keys(self, operation: Operation,
                                 epoch: Optional[int] = None) -> List[int]:
        """Distinct owning shards of *all* of an operation's keys, ascending.

        Single-key (and keyless) operations degenerate to
        ``[shard_of_operation(...)]``, so the result always names at least
        one shard; a length greater than one is exactly the cross-shard
        condition.  Raises ``KeyError`` for an unknown epoch, like every
        other epoch-taking lookup.
        """
        keys = self.keys_of_operation(operation)
        if not keys:
            return [self.shard_of_operation(operation, epoch)]
        return sorted({self.partitioner.shard_of_key(key, epoch)
                       for key in keys})

    def is_cross_shard(self, request: ClientRequest,
                       epoch: Optional[int] = None) -> bool:
        """Whether a request's keys span more than one shard at ``epoch``."""
        operation = request.operation
        if isinstance(operation, EncryptedBody):
            return False
        cross = len(self.shards_of_operation_keys(operation, epoch)) > 1
        if cross:
            self.cross_shard_classified += 1
        else:
            self.single_shard_classified += 1
        return cross
