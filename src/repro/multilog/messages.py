"""Messages of the multi-log coordination round.

A cross-group operation (a multi-shard read or write-only transaction whose
shards span log groups) and a :class:`LogMapChange` (moving a shard between
groups) must release at **one consistent cut** over the ``K`` independent
agreement orders.  The protocol is a deterministic validated-agreement step
built from two artifacts:

* :class:`CrossLogBinding` -- each agreement replica of a touched log binds
  the marker to the sequence number *its own log* committed it at, by
  authenticating a sender-agnostic :class:`CrossLogBindingBody` (mirroring
  the checkpoint / sub-reply payload discipline).  ``f + 1`` matching
  bodies from one log's replicas certify that log's binding: at least one
  correct replica vouches for the sequence number, and a committed batch
  survives view changes at its sequence number, so the binding is stable.

* :class:`CrossLogCut` -- the per-log sequence vector, carried as one
  certified binding body per touched log.  The coordinating log's primary
  collates and broadcasts it (PR 5's collator discipline lifted to the
  ordering plane); any replica can *verify* it independently, and a
  Byzantine coordinator falls over to the backups' timers.

Marker identity on the wire is a small list (``["xs", client, timestamp]``
for client markers, ``["lmc", shard, target, parent]`` for log-map
changes), derivable by every queue from the batch content alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..crypto.certificate import Certificate
from ..messages.agreement import ConfigOperation
from ..messages.request import ClientRequest
from ..net.message import Message
from ..util.ids import NodeId
from ..util.wirecache import pickle_by_fields, wire_of

#: marker-key kinds
XS_MARKER = "xs"
LMC_MARKER = "lmc"

#: a marker key: ("xs", client_name, timestamp) or
#: ("lmc", shard, target_log, parent_log_epoch)
MarkerKey = Tuple


@dataclass(frozen=True)
class LogMapChange(ConfigOperation):
    """A log-map config operation ordered through *every* agreement log.

    ``parent_log_epoch`` names the map the change applies to; applying it
    produces the map of ``parent_log_epoch + 1``.  Every log's primary
    proposes the same change into its own log; each queue holds the marker
    at its release head until the cross-log cut certifies that every log
    committed it, then applies the change -- so all ``K`` orders cross the
    epoch boundary at one consistent cut.  Validity is judged at the cut
    against the releasing queue's current log epoch: a change whose parent
    is no longer current is a deterministic no-op on every correct node.
    """

    shard: int
    target_log: int
    parent_log_epoch: int

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "log-map-change": self.shard,
            "target_log": self.target_log,
            "parent_log_epoch": self.parent_log_epoch,
        }

    def well_formed(self, num_shards: int, num_logs: int) -> bool:
        """Structural sanity (semantic validity is judged at the cut)."""
        return (0 <= self.shard < num_shards
                and 0 <= self.target_log < num_logs
                and self.parent_log_epoch >= 0)

    def marker_key(self) -> MarkerKey:
        return (LMC_MARKER, self.shard, self.target_log,
                self.parent_log_epoch)


def log_map_change_of(
        certificates: Tuple[Certificate, ...]) -> Optional[LogMapChange]:
    """The log-map change carried by a batch, if it is one (same
    single-certificate shape as :func:`~repro.sharding.messages.map_change_of`)."""
    if (len(certificates) == 1
            and isinstance(certificates[0].payload, LogMapChange)):
        return certificates[0].payload
    return None


def client_marker_key(request: ClientRequest) -> MarkerKey:
    """Marker key of a cross-group client marker batch."""
    return (XS_MARKER, request.client.name, request.timestamp)


@pickle_by_fields
@dataclass(frozen=True, slots=True)
class CrossLogBindingBody(Message):
    """One log's binding of a marker to its own committed sequence number.

    Sender-agnostic (like checkpoint and sub-reply payloads): every correct
    replica of ``log`` that commits the marker at ``seq`` authenticates the
    same bytes, so ``f + 1`` matching authenticators certify the binding.
    Client markers bind at *commit* (staging) time -- the sequence number
    is already fixed, and binding before release is what keeps two markers
    ordered inversely by two logs from deadlocking each other's frontiers.
    A :class:`LogMapChange` binds at its *release head* instead, where
    ``shard_frontier`` -- the shard-local sequence number the marker itself
    receives on the moved shard's feed, i.e. the source log's final
    envelope -- is deterministic; the target log adopts it so the shard's
    local order continues without a gap or an overlap (exactly-once across
    the move).
    """

    marker: MarkerKey
    log: int
    seq: int
    shard_frontier: Optional[int] = None

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "xlog-bind": list(self.marker),
            "log": self.log,
            "n": self.seq,
            "frontier": self.shard_frontier,
        }


@dataclass(frozen=True)
class CrossLogBinding(Message):
    """One replica's partial certificate over a :class:`CrossLogBindingBody`.

    Multicast to every agreement replica of every log (the MAC vector
    covers them all), so each queue can assemble every touched log's
    ``f + 1``-vouched binding independently -- the coordinator's collated
    :class:`CrossLogCut` is a fast path, never a trust root.
    """

    body: CrossLogBindingBody
    certificate: Certificate
    sender: NodeId

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "body": wire_of(self.body),
            "certificate": wire_of(self.certificate),
            "sender": self.sender.name,
        }


@dataclass(frozen=True)
class CrossLogCut(Message):
    """The coordinating log's collated cut: one certified binding per log.

    ``bodies[i]`` / ``certificates[i]`` belong to ``logs[i]`` (ascending).
    A receiver trusts nothing about the sender: it re-verifies every
    binding certificate against the named log's membership (``f + 1``
    distinct valid signers over the body) and, for its own log, that the
    bound sequence number matches the marker it is actually holding -- a
    Byzantine coordinator can therefore delay a release, never misplace
    one.
    """

    marker: MarkerKey
    logs: Tuple[int, ...]
    bodies: Tuple[CrossLogBindingBody, ...]
    certificates: Tuple[Certificate, ...]
    sender: NodeId

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "xlog-cut": list(self.marker),
            "logs": list(self.logs),
            "bodies": [wire_of(body) for body in self.bodies],
            "certificates": [wire_of(cert) for cert in self.certificates],
            "sender": self.sender.name,
        }

    def body_for(self, log: int) -> Optional[CrossLogBindingBody]:
        for body in self.bodies:
            if body.log == log:
                return body
        return None
