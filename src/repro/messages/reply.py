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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from ..crypto.certificate import Certificate
from ..net.message import Message
from ..statemachine.interface import OperationResult
from ..util.ids import NodeId, Role
from ..util.wirecache import wire_of
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

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "v": self.view,
            "n": self.seq,
            "t": self.timestamp,
            "c": self.client.name,
            "r": wire_of(self.result),
        }

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        if isinstance(self.result, EncryptedBody):
            return self.result.size
        return self.result.size

    def result_for(self, role: Role) -> OperationResult:
        """Return the result as visible to a node playing ``role``."""
        if isinstance(self.result, EncryptedBody):
            return self.result.open(role)
        return self.result

    def result_is_encrypted(self) -> bool:
        return isinstance(self.result, EncryptedBody)


@dataclass(frozen=True, slots=True)
class BatchReplyBody(Message):
    """All replies for one batch; the payload the reply certificate covers.

    ``shard`` identifies the execution cluster that produced the reply in
    sharded deployments (``repro.sharding``), in which case ``seq`` is that
    shard's local sequence number and ``epoch`` is the partition-map epoch
    the cluster executed the batch under.  Both are covered by the
    certificate, so a Byzantine node cannot relabel a reply as coming from
    another shard -- or forge an epoch to confuse a client's routing
    expectations -- without invalidating every correct authenticator: a
    certified newer epoch is how a client with a stale map learns, safely,
    that a rebalance moved its key.  Unsharded deployments leave both
    ``None`` and their wire format is unchanged.
    """

    view: int
    seq: int
    replies: Tuple[ReplyBody, ...]
    shard: Optional[int] = None
    epoch: Optional[int] = None

    def payload_fields(self) -> Dict[str, Any]:
        fields: Dict[str, Any] = {
            "v": self.view,
            "n": self.seq,
            "replies": [wire_of(reply) for reply in self.replies],
        }
        if self.shard is not None:
            fields["shard"] = self.shard
        if self.epoch is not None:
            fields["epoch"] = self.epoch
        return fields

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return sum(reply.padding_bytes for reply in self.replies)

    def reply_for(self, client: NodeId) -> Optional[ReplyBody]:
        """The reply addressed to ``client``, if any."""
        for reply in self.replies:
            if reply.client == client:
                return reply
        return None


@dataclass(frozen=True)
class BatchReply(Message):
    """Reply message flowing from the execution cluster towards the clients.

    ``certificate`` covers ``body`` (a :class:`BatchReplyBody`).  Execution
    nodes send it with their own single authenticator (a *partial* reply
    certificate); the agreement cluster, the privacy firewall's top row, or
    the client assembles partials into a full certificate with ``g + 1``
    distinct signers or one combined threshold signature.
    """

    seq: int
    body: BatchReplyBody
    certificate: Certificate
    sender: NodeId

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "n": self.seq,
            "body": wire_of(self.body),
            "certificate": wire_of(self.certificate),
            "sender": self.sender.name,
        }

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return self.body.padding_bytes


@dataclass(frozen=True)
class ClientReply(Message):
    """Reply certificate as relayed to one client.

    Contains the full batch body (needed to verify the certificate, which
    covers the bundle) plus the client's own reply extracted from it.
    """

    reply: ReplyBody
    body: BatchReplyBody
    certificate: Certificate

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "reply": wire_of(self.reply),
            "body": wire_of(self.body),
            "certificate": wire_of(self.certificate),
        }

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return self.reply.padding_bytes
