"""Messages of the multi-log coordination round.

A cross-group operation (a multi-shard read or write-only transaction whose
shards span log groups) and a :class:`LogMapChange` (moving a shard between
groups) must release at **one consistent cut** over the ``K`` independent
agreement orders.  One artifact certifies the cut -- ``f + 1`` matching
:class:`CrossLogBinding` s per touched log -- and every queue certifies it
for itself; :class:`CrossLogBindingFetch` asks for a binding that did not
arrive (the round is described in :mod:`repro.multilog.queue`).

Marker identity on the wire is a small list (``["xs", client, timestamp]``
for client markers, ``["lmc", shard, target, parent]`` for log-map
changes), derivable by every queue from the batch content alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..crypto.certificate import Certificate
from ..messages.agreement import ConfigOperation
from ..messages.request import ClientRequest
from ..net.message import Message
from ..util.ids import NodeId

#: marker-key kinds
XS_MARKER = "xs"
LMC_MARKER = "lmc"

#: a marker key: ("xs", client_name, timestamp) or
#: ("lmc", shard, target_log, parent_log_epoch)
MarkerKey = Tuple

#: leaf types after the kind, per marker kind
_MARKER_SHAPES = {XS_MARKER: (str, int), LMC_MARKER: (int, int, int)}


def marker_key_of(marker: Any) -> Optional[MarkerKey]:
    """``marker`` as received off the wire as a (hashable) key, or None if
    it is not one of the two marker shapes (``bool`` is not an ``int``)."""
    if not isinstance(marker, (tuple, list)) or not marker:
        return None
    shape = (_MARKER_SHAPES.get(marker[0])
             if isinstance(marker[0], str) else None)
    if shape is None or len(marker) != len(shape) + 1 or any(
            type(leaf) is not kind for leaf, kind in zip(marker[1:], shape)):
        return None
    return tuple(marker)


@dataclass(frozen=True)
class LogMapChange(ConfigOperation):
    """A log-map config operation ordered through *every* agreement log.

    ``parent_log_epoch`` names the map the change applies to; applying it
    produces the map of ``parent_log_epoch + 1``.  Every log's primary
    proposes the same change into its own log and each queue holds it at
    its release head until every other log's binding is certified -- so all
    ``K`` orders cross the epoch boundary at one consistent cut.  A change
    whose parent is no longer the releasing queue's epoch is a
    deterministic no-op on every correct node.
    """

    shard: int
    target_log: int
    parent_log_epoch: int

    def well_formed(self, num_shards: int, num_logs: int) -> bool:
        """Structural sanity (semantic validity is judged at the cut)."""
        return (0 <= self.shard < num_shards
                and 0 <= self.target_log < num_logs
                and self.parent_log_epoch >= 0)

    def marker_key(self) -> MarkerKey:
        return (LMC_MARKER, self.shard, self.target_log,
                self.parent_log_epoch)


def client_marker_key(request: ClientRequest) -> MarkerKey:
    """Marker key of a cross-group client marker batch."""
    return (XS_MARKER, request.client.name, request.timestamp)


@dataclass(frozen=True, slots=True)
class CrossLogBindingBody(Message):
    """One log's binding of a marker to its own committed sequence number.

    Sender-agnostic (like checkpoint and sub-reply payloads): every correct
    replica of ``log`` that commits the marker at ``seq`` authenticates the
    same bytes, so ``f + 1`` matching authenticators certify the binding.
    ``shard_frontier`` is set by the source log of a :class:`LogMapChange`
    only: the shard-local sequence number the marker itself receives on the
    moved shard's feed (the source log's final part there), which the target
    log adopts.
    """

    marker: MarkerKey
    log: int
    seq: int
    shard_frontier: Optional[int] = None


@dataclass(frozen=True)
class CrossLogBinding(Message):
    """One replica's partial certificate over a :class:`CrossLogBindingBody`.

    Multicast to the agreement replicas of every *other* log (the MAC
    vector covers exactly them: own-log peers witness the commit
    themselves), so each queue assembles every other touched log's
    ``f + 1``-vouched binding independently.
    """

    body: CrossLogBindingBody
    certificate: Certificate
    sender: NodeId


@dataclass(frozen=True)
class CrossLogBindingFetch(Message):
    """A holding queue asking the receiver for its binding of ``marker``.

    Unauthenticated beyond the link it arrived on: the answer is a binding
    that was multicast anyway, sent once, to an agreement replica.
    """

    marker: MarkerKey
    sender: NodeId
