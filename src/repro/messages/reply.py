"""Reply messages.

A reply certificate has the form ``<REPLY, v, n, t, c, E, r>_{E,c,g+1}``:
``g + 1`` execution nodes vouch for the result ``r`` of the request with
timestamp ``t`` from client ``c``, serialized at sequence number ``n`` while
the agreement cluster was in view ``v``.

To support bundling (Figure 5), replies for all the requests in one batch are
collected into a :class:`BatchReplyBody` and the certificate covers the whole
bundle; a single threshold signature (or set of MAC authenticators) therefore
amortises over every reply in the bundle.  With ``bundle_size=1`` this is
exactly the per-request reply certificate of the paper's protocol
description.

The certificate covers the bundle's *certified form* (header plus per-reply
digests: the bodiless view, see :class:`BatchReplyBody`), so one set of
authenticators travels with three renderings of one body: the complete
bundle, each client's :meth:`~BatchReplyBody.view_for` (its own reply,
siblings as digests) and the *bodiless* form (every reply as its digest,
``view_for(None)``).  Where execution replicas answer clients directly,
each result crosses the wire ``g + 1`` times (PBFT's digest replies):

* every agreement node gets a replica's bodiless form -- a quorum of
  matching digests retires the slot;
* ``g + 1`` of the ``2g + 1`` replicas send each client its view, the
  other ``g`` the bodiless form (which replicas rotates with the sequence
  number), and the client counts a bodiless partial only towards a
  collector a carried reply opened;
* a retransmission the replicas answer through an agreement node gets a
  complete single-reply bundle from each, which the node relays once
  ``g + 1`` match.

A replica MACs its partial for every node that may check it, once, and
each frame carries the entries of its receiver and of the nodes that
receiver relays it to (``Certificate.addressed_to``): a ``BatchReply`` to
an agreement node names that node, a ``ClientReply`` -- direct, relayed
or from a queue's cache -- its client, and a retry answer the queue and
the client.  The frames share the body object and its wire memo, so only
the small wrapper is encoded per destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from ..crypto.certificate import Certificate
from ..net.message import Message
from ..statemachine.interface import OperationResult
from ..util.ids import NodeId, Role
from ..util.encoding import mac_form_size
from ..util.wirecache import WireMemoised, same_size, wire_digest
from .request import EncryptedBody


@dataclass(frozen=True, slots=True)
class ReplyBody(Message):
    """The per-request reply fields: ``(v, n, t, c, r)``.

    ``result`` is either a plain :class:`OperationResult` or an
    :class:`~repro.messages.request.EncryptedBody` wrapping one when the
    privacy firewall requires reply bodies to be hidden from agreement and
    filter nodes.
    """

    view: int
    seq: int
    timestamp: int
    client: NodeId
    result: Union[OperationResult, EncryptedBody]

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return self.result.size

    def result_for(self, role: Role) -> OperationResult:
        """Return the result as visible to a node playing ``role``."""
        if isinstance(self.result, EncryptedBody):
            return self.result.open(role)
        return self.result


class _CarriedMemo(WireMemoised):
    """Slot for :attr:`BatchReplyBody.carried`.  Not a field: like the wire
    memo it is left out of frames, comparison and the constructor."""

    __slots__ = ("_carried",)


@dataclass(frozen=True, slots=True)
class BatchReplyBody(_CarriedMemo, Message):
    """All replies for one batch; the payload the reply certificate covers.

    **Certified form.**  What the ``g + 1`` authenticators cover is the
    header (``v, n, shard, epoch``) plus the ordered list of *per-reply
    digests*, not the replies themselves: the body digests as its bodiless
    view (:meth:`authenticated_form`), the one protocol object whose
    digest is not that of its own bytes.  An entry of ``replies`` is
    therefore either a :class:`ReplyBody` carried in full or, in a
    :meth:`view_for` one client, the 32-byte digest standing in for a
    sibling's reply: the view has the digest of the full body, so every
    authenticator made over the bundle verifies over the view, and the
    carried reply is bound structurally -- its digest is *computed* into
    the authenticated list, so altering it, a sibling digest or their order
    invalidates every correct authenticator.

    ``shard`` identifies the execution cluster that produced the reply in
    sharded deployments (``repro.sharding``), in which case ``seq`` is that
    shard's local sequence number and ``epoch`` is the partition-map epoch
    the cluster executed the batch under.  Both are covered by the
    certificate, so a Byzantine node cannot relabel a reply as coming from
    another shard -- or forge an epoch to confuse a client's routing
    expectations -- without invalidating every correct authenticator: a
    certified newer epoch is how a client with a stale map learns, safely,
    that a rebalance moved its key.  Unsharded deployments leave both
    ``None``.
    """

    view: int
    seq: int
    replies: Tuple[Union[ReplyBody, bytes], ...]
    shard: Optional[int] = None
    epoch: Optional[int] = None

    @property
    def carried(self) -> Tuple[ReplyBody, ...]:
        """The replies present in full (all of them, outside a view);
        filtered out of ``replies`` once per object."""
        try:
            return self._carried
        except AttributeError:
            carried = tuple(reply for reply in self.replies
                            if isinstance(reply, ReplyBody))
            object.__setattr__(self, "_carried", carried)
            return carried

    @property
    def complete(self) -> bool:
        """Whether every reply is carried in full: what execution replicas
        send and what anything that serves several clients must hold (a view
        has the same digest, so the digest cannot tell them apart)."""
        return len(self.carried) == len(self.replies)

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return sum(reply.padding_bytes for reply in self.carried)

    def authenticated_form(self) -> "BatchReplyBody":
        """The bodiless view: what the reply certificate covers."""
        return self.view_for(None) if self.carried else self

    def reply_for(self, client: NodeId) -> Optional[ReplyBody]:
        """The reply addressed to ``client``, if carried."""
        for reply in self.carried:
            if reply.client == client:
                return reply
        return None

    def view_for(self, client: Optional[NodeId]) -> "BatchReplyBody":
        """This body as ``client`` needs it: its own reply in full, every
        sibling as its digest (with ``None``, every reply as its digest: the
        bodiless form).  Same certified form, same digest."""
        return BatchReplyBody(
            view=self.view, seq=self.seq, shard=self.shard, epoch=self.epoch,
            replies=tuple(
                reply if not isinstance(reply, ReplyBody) or reply.client == client
                else wire_digest(reply) for reply in self.replies))


class _CertifiedReplies:
    """What the two reply messages share: a certificate over a
    :class:`BatchReplyBody`, whose carried replies travel once, inside it."""

    certificate: Certificate

    @property
    def body(self) -> BatchReplyBody:
        """The certified body.  Whatever is read out of a reply message is
        read from here, so nothing unauthenticated rides along."""
        return self.certificate.payload

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return self.body.padding_bytes


@dataclass(frozen=True)
class BatchReply(_CertifiedReplies, Message):
    """Reply message flowing from the execution cluster towards the clients.

    Execution nodes send it with their own single authenticator (a *partial*
    reply certificate); the agreement cluster, the privacy firewall's top
    row, or the client assembles partials into a full certificate with
    ``g + 1`` distinct signers or one combined threshold signature.  With
    direct replies the body is bodiless, except in the answer to a
    retransmission an agreement node passed on (module docstring).
    """

    seq: int
    certificate: Certificate
    sender: NodeId

    def addressed_to_each(self, nodes: List[NodeId]) -> List["BatchReply"]:
        """This reply as a frame to each of ``nodes``, none of which relays
        it: each MAC vector cut to that node's entry, the body (and its
        wire memo) shared.  Where the codec carries every vector in its
        MAC form, so it carries every cut of one too, as fixed-width pairs;
        if each vector names every one of ``nodes``, each frame keeps one
        pair per vector and the frames are equally long: only the first is
        encoded to size them all."""
        frames = [BatchReply(seq=self.seq, sender=self.sender,
                             certificate=self.certificate.addressed_to((node,)))
                  for node in nodes]
        if all(mac_form_size(authenticator.token) is not None
               and all(node.name in authenticator.token for node in nodes)
               for authenticator in self.certificate.authenticators.values()):
            for frame in frames[1:]:
                same_size(frame, frames[0])
        return frames

    @property
    def well_formed(self) -> bool:
        """Whether a correct execution replica could have sent this: under
        the sequence number the message names, a complete bundle or a
        bodiless one.  Whoever assembles partials checks it first: a
        client's view has the bundle's digest too, and a certificate
        assembled on one could serve no other client."""
        body = self.body
        return (isinstance(body, BatchReplyBody) and body.seq == self.seq
                and (body.complete or not body.carried))


@dataclass(frozen=True)
class ClientReply(_CertifiedReplies, Message):
    """A reply certificate as one client receives it: the certificate over
    that client's :meth:`~BatchReplyBody.view_for` of the bundle, or over
    the bodiless form (a digest reply)."""

    certificate: Certificate

    @classmethod
    def for_client(cls, certificate: Certificate, client: NodeId) -> "ClientReply":
        """``certificate`` (over a bundle) as ``client`` receives it: its
        view of the bundle, each MAC vector cut to its own entry."""
        return cls(certificate.addressed_to(
            (client,), certificate.payload.view_for(client)))
