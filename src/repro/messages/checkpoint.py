"""Execution-cluster checkpoint, retransmission, and state-transfer messages.

Execution nodes periodically checkpoint their application state plus their
per-client reply table, multicast ``<CHECKPOINT, n, d>_{i,E,1}`` shares to the
rest of the cluster, and assemble ``g + 1`` matching shares into a *proof of
stability* that lets them garbage-collect older state (Section 3.3.2).

The intra-cluster retransmission protocol (Section 3.3.1) uses
:class:`FetchBatch` to request a missing sequence number from peers, which
answer with either the :class:`BatchTransfer` of that batch or a
:class:`StateTransfer` of a newer stable checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..crypto.certificate import Authenticator, Certificate
from ..net.message import Message
from ..util.ids import NodeId


def checkpoint_payload(seq: int, state_digest: bytes) -> Dict[str, Any]:
    """The canonical payload that checkpoint-share authenticators cover.

    Using a plain dict (rather than a message carrying the voting replica's
    identity) means every replica's authenticator covers identical bytes, so
    the shares can be merged into one transferable proof of stability.
    """
    return {"exec-checkpoint": seq, "digest": state_digest}


@dataclass(frozen=True)
class ExecCheckpointShare(Message):
    """One execution node's vote that its state at ``seq`` digests to ``state_digest``.

    ``authenticator`` covers :func:`checkpoint_payload` so that ``g + 1``
    shares assemble into a transferable proof of stability.
    """

    seq: int
    state_digest: bytes
    replica: NodeId
    authenticator: Optional["Authenticator"] = None


@dataclass(frozen=True)
class ExecCheckpointProof(Message):
    """A proof of stability: ``g + 1`` matching checkpoint shares."""

    seq: int
    state_digest: bytes
    certificate: Certificate


@dataclass(frozen=True)
class FetchBatch(Message):
    """Request to peers for a missing ordered batch (sequence number gap)."""

    seq: int
    replica: NodeId


@dataclass(frozen=True)
class BatchTransfer(Message):
    """Answer to :class:`FetchBatch`: the ordered batch itself -- an
    :class:`OrderedBatch`, or on a shard replica the
    :class:`~repro.sharding.messages.ShardLocalBatch` standing in for one."""

    batch: Message
    replica: NodeId

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return self.batch.padding_bytes


@dataclass(frozen=True)
class StateTransfer(Message):
    """Answer to :class:`FetchBatch` when the batch was garbage collected.

    Carries a stable checkpoint newer than the requested sequence number: the
    serialized application state, the serialized reply table, and the proof of
    stability certifying their digest.
    """

    seq: int
    app_state: bytes
    reply_table: bytes
    proof: ExecCheckpointProof
    replica: NodeId
    #: subsystem state beyond the application (e.g. the sharded nodes'
    #: partition-map epoch); covered by the checkpoint digest
    extra: bytes = b""
