"""Messages of the sharded execution subsystem.

:class:`ShardedBatch` is what flows from the shard-routing message queues to
one execution cluster: the *complete* globally-ordered batch (so the shard
can verify the untampered agreement certificate) plus the routing header
``(shard, shard_seq, epoch)``.  ``shard_seq`` is the shard's own contiguous
sequence number, assigned deterministically by every correct agreement node
as it delivers batches in global order -- the shard's execution replicas
order, checkpoint, and state-transfer entirely in this local sequence space.
``epoch`` is the partition-map epoch the batch was routed under; it is part
of the ``f + 1``-vouched route binding, so a single Byzantine agreement node
can no more relabel a batch's epoch than its slot.  Only the binding needs
``f + 1`` senders, not the body: on first release the primary's queue sends
the envelope and every other queue a :class:`RouteVoucher` -- the binding
with the agreement-certificate body's digest in place of the batch.

:class:`ShardLocalBatch` is the execution-side view of a routed batch: the
same interface as :class:`~repro.messages.agreement.OrderedBatch` but with
``seq`` bound to the shard-local sequence number and ``request_certificates``
restricted to the requests this shard owns (recomputed locally, never
trusted from the wire).  Because it quacks like an ``OrderedBatch``, the
entire unsharded execution pipeline -- pending ordering, gap fetch,
checkpointing, garbage collection, state transfer -- runs unmodified on
shard-local sequence numbers.

:class:`MapChange` is the rebalancing config operation: the primary places
it in an ordinary agreed batch, and its position in the global order *is*
the epoch cut.  :class:`RangeHandoff` / :class:`RangeFetch` implement the
live state handoff of a moved key range between execution clusters,
mirroring the checkpoint-share pattern: ``g + 1`` matching handoff shares
from the source cluster certify the moved state.

**Cross-shard operations.**  A multi-shard operation (snapshot read, write
transaction) is ordered as a single-certificate *marker* batch -- reusing
the config-operation ordering discipline, but the certificate is the
client's own request -- and its sequence number is a consistent cut.  The
messages here carry the execution side of that protocol:
:class:`SubReplyBody` is one shard's certified fragment of the result
(``g + 1`` matching authenticators from that shard's replicas make it a
sub-certificate), :class:`CrossShardSubReply` transports one replica's
partial towards the touched clusters, :class:`CrossShardVote` /
:class:`CrossShardVoteFetch` exchange read-set observations so every
touched cluster reaches the same commit/abort decision for a transaction,
and :class:`CrossShardReply` is the collator cluster's assembled reply --
the per-shard sub-certificates it carries are what the client actually
trusts, so an equivocating collator can misreport nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..crypto.certificate import Authenticator, Certificate
from ..messages.agreement import (AgreementCertBody, ConfigOperation,
                                  OrderedBatch, body_bytes)
from ..messages.request import ClientRequest, EncryptedBody
from ..net.message import Message
from ..statemachine.nondet import NonDetInput
from ..util.ids import NodeId

#: MapChange.kind values
MAP_CHANGE_KINDS = ("split", "merge", "move")


@dataclass(frozen=True)
class MapChange(ConfigOperation):
    """A partition-map config operation ordered through the agreement log.

    ``parent_epoch`` names the map the change applies to; applying it
    produces the map of ``parent_epoch + 1``.  Validity is judged *at the
    cut* (when the batch carrying the change is released in global order)
    against the releasing node's current epoch: a change racing a concurrent
    cut (``parent_epoch`` no longer current) is a deterministic no-op on
    every correct node, so a stale proposal can never fork the map history.

    * ``split``: insert boundary ``key``; the upper half of the range
      containing it moves to cluster ``owner``.
    * ``merge``: remove boundary ``key``; the right range merges into the
      left range's owner.
    * ``move``: shift boundary ``key`` to ``to_key``.
    """

    kind: str
    parent_epoch: int
    key: str
    to_key: Optional[str] = None
    owner: Optional[int] = None

    def well_formed(self, num_clusters: int) -> bool:
        """Structural sanity (semantic validity is judged at the cut)."""
        if self.kind not in MAP_CHANGE_KINDS or self.parent_epoch < 0:
            return False
        if self.kind == "split":
            return (self.owner is not None
                    and 0 <= self.owner < num_clusters)
        if self.kind == "move":
            return self.to_key is not None and self.to_key != self.key
        return True


def map_change_of(certificates: Tuple[Certificate, ...]) -> Optional[MapChange]:
    """The map change carried by a batch, if it is a map-change batch.

    A map-change batch contains exactly one certificate whose payload is a
    :class:`MapChange`; anything else (including a change smuggled into a
    mixed batch) is not a config operation.
    """
    if len(certificates) == 1 and isinstance(certificates[0].payload, MapChange):
        return certificates[0].payload
    return None


def config_op_of(
        certificates: Tuple[Certificate, ...]) -> Optional[ConfigOperation]:
    """The config operation carried by a batch, if it is a config batch.

    The generic form of :func:`map_change_of`: exactly one certificate
    whose payload is *any* :class:`ConfigOperation` subclass (a partition
    :class:`MapChange`, a multi-log ``LogMapChange``, ...).  Execution
    nodes use this to treat every config marker uniformly -- no owned
    requests, an empty-batch reply -- while the routing layer branches on
    the concrete type.
    """
    if (len(certificates) == 1
            and isinstance(certificates[0].payload, ConfigOperation)):
        return certificates[0].payload
    return None


def cross_shard_request_of(
        certificates: Tuple[Certificate, ...]) -> Optional[ClientRequest]:
    """The client request of a *candidate* cross-shard marker batch.

    Structural test only: a marker batch carries exactly one certificate
    whose payload is a plain (unencrypted) :class:`ClientRequest` -- the
    same single-certificate shape as a config operation, except the
    certificate is the client's own.  Whether the request's keys actually
    span shards is judged by the caller with its router at the governing
    epoch; a multi-key operation whose keys all live on one shard routes
    like any other request.
    """
    if len(certificates) != 1:
        return None
    request = certificates[0].payload
    if not isinstance(request, ClientRequest):
        return None
    if isinstance(request.operation, EncryptedBody):
        return None
    return request


@dataclass(frozen=True)
class ShardedBatch(Message):
    """Routing envelope: one globally-ordered batch addressed to one shard."""

    shard: int
    shard_seq: int
    batch: OrderedBatch
    #: partition-map epoch the batch was routed under (part of the vouched
    #: route binding; map-change markers carry the epoch they *close*)
    epoch: int = 0
    #: agreement log that ordered the batch (part of the vouched route
    #: binding under multi-log ordering; None in single-log deployments)
    log: Optional[int] = None

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return self.batch.padding_bytes


@dataclass(frozen=True)
class RouteVoucher(Message):
    """A routing binding without the batch: one agreement node's vote that
    slot ``(shard, shard_seq)`` holds the batch whose agreement-certificate
    body has digest ``digest``, routed under ``epoch`` by ``log``.

    Only the primary's queue sends the :class:`ShardedBatch` body on first
    release; every other queue sends this in its place.  An execution
    replica counts it exactly like an envelope's vote, and the ``f + 1``-th
    matching vote accepts the body it holds for that binding.
    """

    shard: int
    shard_seq: int
    digest: bytes
    epoch: int = 0
    log: Optional[int] = None


@dataclass(frozen=True)
class ShardLocalBatch(Message):
    """A shard's local view of a routed batch.

    ``seq`` is the shard-local sequence number; ``global_seq`` is the
    sequence number the agreement certificate covers.  ``request_certificates``
    holds only the requests owned by ``shard`` at ``epoch``;
    ``full_request_certificates`` holds the whole batch, which is what the
    agreement certificate's batch digest binds.
    """

    shard: int
    seq: int
    global_seq: int
    view: int
    request_certificates: Tuple[Certificate, ...]
    full_request_certificates: Tuple[Certificate, ...]
    agreement_certificate: Certificate
    nondet: NonDetInput
    epoch: int = 0
    #: agreement log the batch arrived from (None in single-log deployments)
    log: Optional[int] = None

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        # both request tuples are encoded, the owned ones a second time
        return (body_bytes(self.request_certificates)
                + body_bytes(self.full_request_certificates))

    @property
    def cert_body(self) -> AgreementCertBody:
        return self.agreement_certificate.payload

    def to_sharded_batch(self) -> ShardedBatch:
        """Rebuild the routing envelope (peer fetches re-vote the binding)."""
        return ShardedBatch(
            shard=self.shard, shard_seq=self.seq, epoch=self.epoch,
            log=self.log,
            batch=OrderedBatch(seq=self.global_seq, view=self.view,
                               request_certificates=self.full_request_certificates,
                               agreement_certificate=self.agreement_certificate,
                               nondet=self.nondet),
        )


def handoff_payload(epoch: int, lo: Optional[str], hi: Optional[str],
                    source_shard: int, target_shard: int,
                    state_digest: bytes) -> Dict[str, Any]:
    """The canonical payload a range-handoff authenticator covers.

    Like :func:`repro.messages.checkpoint.checkpoint_payload`, it omits the
    sender's identity so every source replica's authenticator covers
    identical bytes and ``g + 1`` matching shares certify the moved state.
    """
    return {
        "range-handoff": epoch,
        "lo": lo,
        "hi": hi,
        "from": source_shard,
        "to": target_shard,
        "digest": state_digest,
    }


@dataclass(frozen=True)
class RangeHandoff(Message):
    """One source replica's share of a moved key range's state.

    Sent by each replica of the losing cluster, at its epoch cut, to every
    replica of the gaining cluster.  ``entries`` is the serialized range
    state (extracted exactly after executing the cut marker), ``reply_table``
    the source cluster's client-dedup table (merged timestamp-monotonically
    at the target, so a client request executed pre-cut is never re-executed
    post-cut), and ``authenticator`` covers :func:`handoff_payload` so the
    target installs only state that ``g + 1`` distinct source replicas vouch
    for.
    """

    epoch: int
    source_shard: int
    target_shard: int
    lo: Optional[str]
    hi: Optional[str]
    entries: bytes
    reply_table: bytes
    state_digest: bytes
    replica: NodeId
    authenticator: Optional["Authenticator"] = None



@dataclass(frozen=True, slots=True)
class SubReplyBody(Message):
    """One shard's fragment of a cross-shard operation's result.

    Produced identically by every correct replica of ``shard`` when the
    marker executes at its slot in the shard-local order, so ``g + 1``
    matching authenticators certify the fragment.  The body is
    sender-agnostic (like checkpoint and handoff payloads): all of a
    shard's replicas authenticate the same bytes.

    ``op_seq`` is the agreement sequence number of the marker -- the
    consistent cut the fragment was read at; ``status`` is ``"ok"``
    (snapshot read), ``"committed"`` / ``"aborted"`` (transaction), or
    ``"epoch-retry"`` (the operation's pinned epoch went stale under a
    rebalance cut; ``epoch`` then carries the epoch the client should
    retry on).  ``values`` holds the shard's owned read results.
    """

    client: NodeId
    timestamp: int
    shard: int
    epoch: int
    view: int
    op_seq: int
    status: str
    values: Dict[str, Any]
    #: agreement log that ordered the marker at this shard's feed, judged
    #: when the fragment was produced (None in single-log deployments).
    #: ``op_seq`` lives in this log's sequence space; carrying the log in
    #: the certified body lets verifiers group fragments by the map that
    #: was actually in force at execution, not the map they see later.
    log: Optional[int] = None


def sub_reply_rounds_consistent(bodies) -> bool:
    """Whether a set of :class:`SubReplyBody` fragments form one answer.

    Every fragment of a cross-shard operation must report the same
    ``status`` and ``epoch``.  Each agreement log assigns the marker its
    *own* sequence number, so ``op_seq`` must match within a log group.
    Fragments group by the certified ``log`` field they carry -- the log
    whose feed actually delivered the marker to that shard, judged at
    execution -- so a log-map change racing the marker cannot mis-group a
    shard that legitimately executed under the old assignment (re-deriving
    the group from the *current* map would wedge such an answer forever:
    cached fragments never change).  With one log no fragment carries the
    field, and ``None`` is that log's one group: ``op_seq`` matches
    everywhere.
    """
    bodies = list(bodies)
    if not bodies:
        return True
    first = bodies[0]
    if any(body.status != first.status or body.epoch != first.epoch
           for body in bodies):
        return False
    per_log: Dict[Optional[int], int] = {}
    for body in bodies:
        if per_log.setdefault(body.log, body.op_seq) != body.op_seq:
            return False
    return True


@dataclass(frozen=True)
class CrossShardSubReply(Message):
    """One replica's partial sub-certificate over a :class:`SubReplyBody`.

    Multicast to every touched cluster's replicas (each of which assembles
    ``g + 1`` matching partials per shard into a full sub-certificate) so
    that any touched cluster can stand in for a crashed collator when the
    client retransmits.
    """

    body: SubReplyBody
    certificate: Certificate
    sender: NodeId


def vote_payload(client: NodeId, timestamp: int, shard: int, epoch: int,
                 observed: Dict[str, Any]) -> Dict[str, Any]:
    """The canonical payload a cross-shard vote authenticator covers.

    Sender-agnostic, so ``g + 1`` matching votes from one shard's replicas
    certify that shard's read-set observations at the cut.
    """
    return {
        "xs-vote": shard,
        "c": client.name,
        "t": timestamp,
        "epoch": epoch,
        "observed": {key: observed[key] for key in sorted(observed)},
    }


@dataclass(frozen=True)
class CrossShardVote(Message):
    """One replica's read-set observations for a cross-shard transaction.

    Each touched cluster observes, at its own marker slot, the current
    values of the transaction's read-set keys it owns, and multicasts them
    to the other touched clusters.  A receiving replica accepts a shard's
    observations only with ``g + 1`` matching votes from that shard's
    replicas; once every peer shard's observations are certified, the
    commit decision (``observed == expected`` for every read key) is a pure
    function of certified data -- identical on every correct replica of
    every touched shard, which is what makes cross-shard aborts
    deterministic.
    """

    client: NodeId
    timestamp: int
    shard: int
    epoch: int
    observed: Dict[str, Any]
    replica: NodeId
    authenticator: Optional["Authenticator"] = None


@dataclass(frozen=True)
class CrossShardVoteFetch(Message):
    """Request to re-send a cross-shard vote (recovery after message loss).

    A replica blocked at a transaction marker re-asks the touched clusters
    it is missing votes from; peers keep recent outbound votes and re-serve
    them, so a blocked replica is self-driving rather than waiting for
    operator intervention (mirrors :class:`RangeFetch`).
    """

    client: NodeId
    timestamp: int
    epoch: int
    shard: int
    replica: NodeId


@dataclass(frozen=True)
class CrossShardReply(Message):
    """The collator cluster's assembled reply for a cross-shard operation.

    ``sub_certificates`` holds one full (``g + 1``-signer) certificate per
    touched shard over that shard's :class:`SubReplyBody`; ``assembled`` is
    the collator's merged result summary.  The client trusts only the
    sub-certificates: it re-derives the result from the certified fragments
    and rejects a reply whose summary disagrees (a Byzantine collator can
    therefore delay an answer, never forge one).
    """

    client: NodeId
    timestamp: int
    status: str
    epoch: int
    collator_shard: int
    sub_certificates: Tuple[Certificate, ...]
    assembled: Dict[str, Any]
    sender: NodeId


@dataclass(frozen=True)
class RangeFetch(Message):
    """Request to re-send a range handoff (recovery after loss or a crash).

    A gaining replica blocked at an epoch cut re-asks the source cluster for
    the moved range; sources keep recent outbound handoffs and re-serve
    them, so a replica that missed the original multicast is self-driving
    rather than waiting for operator intervention.
    """

    epoch: int
    target_shard: int
    lo: Optional[str]
    hi: Optional[str]
    replica: NodeId
