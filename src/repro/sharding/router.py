"""The shard router: the one home of the routing rules.

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
extra protocol round decides ownership, the key does.  So every site asks
one of the router's two questions and none re-derives an answer:

* **the operation question** -- :meth:`ShardRouter.touched` (the shards an
  operation's keys touch) and :meth:`ShardRouter.targets` (where the
  operation is routed when it is ordered alone: every touched shard if it
  is a cross-shard marker, else its owner);
* **the batch question** -- :meth:`ShardRouter.route`: what an agreed batch
  is (a partition-map change, a log-map change, a cross-shard marker or an
  ordinary batch) and the request certificates each shard owns of it
  (:class:`BatchRoute`).

With dynamic rebalancing the mapping is additionally a function of the
*partition-map epoch*: every question takes the epoch whose map should
answer, and each role keeps its own epoch cursor advanced at the
deterministic cut points the agreed order defines (``None`` asks the latest
known map -- correct only for epoch-unaware callers such as workload drivers
on a not-yet-rebalanced system).
"""

from __future__ import annotations

from typing import (Callable, Iterator, List, Optional, Sequence, Tuple,
                    Union)

from ..crypto.certificate import Certificate
from ..messages.request import ClientRequest, EncryptedBody
from ..multilog.messages import LogMapChange
from ..statemachine.interface import Operation
from .messages import MapChange
from .partitioner import Partitioner

#: extracts the routing key from an operation (None = keyless)
KeyExtractor = Callable[[Operation], Optional[str]]

#: extracts *all* routing keys from a multi-key operation (None = single-key)
MultiKeyExtractor = Callable[[Operation], Optional[Tuple[str, ...]]]

#: what an agreed batch is (:attr:`BatchRoute.kind`)
ORDINARY = "ordinary"
MAP_CHANGE = "map-change"
LOG_MAP_CHANGE = "log-map-change"
CROSS_SHARD = "cross-shard"


def _no_key(_: Operation) -> Optional[str]:
    return None


def _no_keys(_: Operation) -> Optional[Tuple[str, ...]]:
    return None


class BatchRoute:
    """The batch question's answer for one agreed batch at one epoch.

    * A config operation (``kind`` :data:`MAP_CHANGE` or
      :data:`LOG_MAP_CHANGE`, the operation in ``change``) is an empty slot
      on *every* shard: each cluster meets the cut at a deterministic point
      of its own order.
    * A cross-shard marker (:data:`CROSS_SHARD`: cross-shard operations on,
      one plain client request -- ``marker`` -- whose keys span shards at
      the epoch) goes whole to each shard its keys touch.
    * Any other batch is :data:`ORDINARY`: each client request is owned by
      the shard owning its routing key -- except a cross-shard request
      inside a mixed bundle, which nobody owns.  Only a faulty primary
      builds such a bundle (honest ones order markers alone); no shard then
      executes it against partial state, and the client's retransmission
      re-orders it as a marker.  At an epoch the router does not know (a
      forged future one) an ordinary batch owns nothing anywhere.

    An ordinary batch's owners are worked out on first use and kept.
    """

    __slots__ = ("kind", "epoch", "change", "marker", "_router",
                 "_certificates", "_shards", "_owners")

    def __init__(self, router: "ShardRouter",
                 certificates: Sequence[Certificate], epoch: Optional[int],
                 kind: str = ORDINARY,
                 change: Union[MapChange, LogMapChange, None] = None,
                 marker: Optional[ClientRequest] = None,
                 shards: Optional[List[int]] = None,
                 owners: Optional[Tuple[Optional[int], ...]] = None) -> None:
        self.kind = kind
        self.epoch = epoch
        self.change = change
        self.marker = marker
        self._router = router
        self._certificates = tuple(certificates)
        self._shards = shards
        self._owners = owners

    @property
    def shards(self) -> List[int]:
        """Every shard the batch has a slot on, ascending (an ordinary
        batch: the owners of its owned requests)."""
        if self._shards is None:
            self._shards = sorted({owner for owner in self._owner_list()
                                   if owner is not None})
        return self._shards

    def owned(self, shard: int) -> Tuple[Certificate, ...]:
        """The request certificates ``shard`` owns of the batch."""
        if self.kind == ORDINARY:
            return tuple(certificate for certificate, owner
                         in zip(self._certificates, self._owner_list())
                         if owner == shard)
        if self.kind == CROSS_SHARD and shard in self._shards:
            return self._certificates
        return ()

    def loads(self) -> Iterator[Tuple[int, Optional[str]]]:
        """``(shard, key)`` for every key of every client request: each key
        of a multi-key operation loads its own shard (the rebalancer's load
        window counts these)."""
        router = self._router
        for certificate in self._certificates:
            request = certificate.payload
            if not isinstance(request, ClientRequest):
                continue
            operation = request.operation
            for key in (router.keys_of_operation(operation)
                        or (router.routing_key(operation),)):
                yield router.partitioner.shard_of_key(key, self.epoch), key

    def _owner_list(self) -> Tuple[Optional[int], ...]:
        if self._owners is None:
            self._owners = self._router.request_owners(self._certificates,
                                                       self.epoch)
        return self._owners


class ShardRouter:
    """Deterministic (request, epoch) -> shard mapping."""

    def __init__(self, partitioner: Partitioner,
                 key_extractor: Optional[KeyExtractor] = None,
                 multi_key_extractor: Optional[MultiKeyExtractor] = None,
                 cross_shard: bool = False) -> None:
        self.partitioner = partitioner
        self.key_extractor: KeyExtractor = key_extractor or _no_key
        self.multi_key_extractor: MultiKeyExtractor = (multi_key_extractor
                                                       or _no_keys)
        #: whether operations spanning shards are ordered as cross-shard
        #: markers (``CrossShardConfig.enabled``)
        self.cross_shard = cross_shard
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

    # ------------------------------------------------------------------ #
    # The operation question.
    # ------------------------------------------------------------------ #

    def routing_key(self, operation: Operation) -> Optional[str]:
        """The routing key of an operation (None: keyless, or opaque).

        An encrypted body (privacy-firewall deployments) hides the key from
        the router; the configuration layer forbids combining sharding with
        the firewall, so one here is a protocol violation and routes to the
        default shard rather than crashing the router.
        """
        if isinstance(operation, EncryptedBody):
            return None
        return self.key_extractor(operation)

    def shard_of_operation(self, operation: Operation,
                           epoch: Optional[int] = None) -> int:
        """The shard owning ``operation``'s routing key at ``epoch``."""
        return self.partitioner.shard_of_key(self.routing_key(operation), epoch)

    def keys_of_operation(self, operation: Operation) -> Optional[Tuple[str, ...]]:
        """All routing keys of a multi-key operation (None for single-key
        operations, encrypted bodies, and keyless operations)."""
        if isinstance(operation, EncryptedBody):
            return None
        return self.multi_key_extractor(operation)

    def touched(self, operation: Operation,
                epoch: Optional[int] = None) -> List[int]:
        """The shards ``operation`` touches at ``epoch``, ascending: every
        key's shard of a multi-key operation whose keys span shards, else
        the one shard owning it.  More than one shard is exactly the
        cross-shard condition.  Raises ``KeyError`` for an unknown epoch,
        like every other epoch-taking lookup."""
        keys = self.keys_of_operation(operation)
        if keys:
            shards = sorted({self.partitioner.shard_of_key(key, epoch)
                             for key in keys})
            if len(shards) > 1:
                self.cross_shard_classified += 1
                return shards
        self.single_shard_classified += 1
        return [self.shard_of_operation(operation, epoch)]

    def targets(self, operation: Operation,
                epoch: Optional[int] = None) -> List[int]:
        """The shards ``operation`` is routed to when ordered alone at
        ``epoch``: with cross-shard operations on, every shard it touches
        (more than one: it is a cross-shard marker); else its owner."""
        if self.cross_shard:
            return self.touched(operation, epoch)
        return [self.shard_of_operation(operation, epoch)]

    # ------------------------------------------------------------------ #
    # The batch question.
    # ------------------------------------------------------------------ #

    def route(self, certificates: Sequence[Certificate],
              epoch: Optional[int]) -> BatchRoute:
        """What the agreed batch of ``certificates`` is at ``epoch``, and
        what each shard owns of it (:class:`BatchRoute`).

        A config operation or a marker is a batch of exactly one
        certificate; anything smuggled into a mixed batch is neither.
        """
        if len(certificates) == 1:
            payload = certificates[0].payload
            if isinstance(payload, (MapChange, LogMapChange)):
                return BatchRoute(
                    self, certificates, epoch,
                    LOG_MAP_CHANGE if isinstance(payload, LogMapChange)
                    else MAP_CHANGE,
                    change=payload, shards=list(range(self.num_shards)))
            if self.cross_shard and isinstance(payload, ClientRequest):
                try:
                    shards = self.touched(payload.operation, epoch)
                except KeyError:
                    shards = []  # an unknown epoch: nothing is owned
                if len(shards) > 1:
                    return BatchRoute(self, certificates, epoch, CROSS_SHARD,
                                      marker=payload, shards=shards)
                # the one request's owner is known already
                return BatchRoute(self, certificates, epoch,
                                  owners=(shards[0] if shards else None,))
        return BatchRoute(self, certificates, epoch)

    def request_owners(self, certificates: Sequence[Certificate],
                       epoch: Optional[int]) -> Tuple[Optional[int], ...]:
        """Each certificate's owner in an ordinary batch at ``epoch``: None
        for a payload that is no client request, for a cross-shard request
        (nobody's), and for every certificate at an unknown epoch."""
        try:
            return tuple(self._owner(certificate.payload, epoch)
                         for certificate in certificates)
        except KeyError:
            return (None,) * len(certificates)

    def _owner(self, payload, epoch: Optional[int]) -> Optional[int]:
        if not isinstance(payload, ClientRequest):
            return None
        shards = self.targets(payload.operation, epoch)
        return shards[0] if len(shards) == 1 else None
