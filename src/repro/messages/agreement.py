"""Agreement-cluster messages.

The internal three-phase protocol (PRE-PREPARE / PREPARE / COMMIT), the
checkpoint and view-change messages of the BASE-style agreement library, and
the two artefacts the rest of the system consumes:

* :class:`AgreementCertBody` -- the payload of the paper's agreement
  certificate ``<COMMIT, v, n, d, A>_{A,E,2f+1}``, binding a batch digest to a
  view and sequence number together with the obliviously chosen
  nondeterminism inputs;
* :class:`OrderedBatch` -- the message the agreement cluster's message queues
  send towards the execution cluster: the request certificates of the batch
  plus the agreement certificate that orders them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..crypto.certificate import Authenticator, Certificate
from ..net.message import Message
from ..statemachine.nondet import NonDetInput
from ..util.ids import NodeId


def body_bytes(certificates: Tuple[Certificate, ...]) -> int:
    """The body bytes the requests of ``certificates`` model."""
    return sum(getattr(cert.payload, "padding_bytes", 0) for cert in certificates)


class ConfigOperation(Message):
    """Marker base for system config operations ordered through the log.

    A config operation (e.g. a partition-map change from
    :mod:`repro.sharding.rebalance`) rides the ordinary agreement path as a
    single-certificate batch signed by the proposing primary: its position
    in the agreed order is what gives the reconfiguration a deterministic
    cut point.  The agreement replica recognises these payloads by type --
    they are not client requests, carry no client timestamp, and never
    enter the reply bookkeeping.
    """


@dataclass(frozen=True)
class AgreementCertBody(Message):
    """Payload of the agreement certificate for one batch.

    ``batch_digest`` is the digest of the ordered tuple of request digests in
    the batch; ``nondet`` carries the agreed nondeterminism inputs.
    """

    view: int
    seq: int
    batch_digest: bytes
    nondet: NonDetInput


@dataclass(frozen=True)
class RoutedCertBody(AgreementCertBody):
    """The agreement-certificate body of a deployment whose queues route:
    it also names the batch's route, so the ``2f + 1`` COMMIT
    authenticators cover everything an execution replica acts on.

    ``route`` holds ``(shard, shard_seq)`` for each shard the batch has a
    slot on (ascending), ``epoch`` is the partition-map epoch it was routed
    under (a map-change marker's: the epoch it closes) and ``log`` the
    agreement log that ordered it (None with one log).  Every correct
    agreement node derives the same route from the prefix below the batch
    -- prepared in the batch's view, or delivered -- which is why its
    COMMIT waits until the batch below it is routed."""

    route: Tuple[Tuple[int, int], ...]
    epoch: int
    log: Optional[int] = None


@dataclass(frozen=True)
class PrePrepare(Message):
    """Primary's PRE-PREPARE for a batch of request certificates."""

    view: int
    seq: int
    batch_digest: bytes
    requests: Tuple[Certificate, ...]
    nondet: NonDetInput
    primary: NodeId

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return body_bytes(self.requests)


@dataclass(frozen=True)
class Prepare(Message):
    """Backup's PREPARE vote for (view, seq, batch_digest)."""

    view: int
    seq: int
    batch_digest: bytes
    replica: NodeId


@dataclass(frozen=True)
class CommitMsg(Message):
    """COMMIT vote for (view, seq, batch_digest).

    ``cert_authenticator`` is the sender's authenticator over the
    corresponding :class:`AgreementCertBody`, addressed to the execution
    cluster (and firewall).  Collecting ``2f + 1`` of these is what turns a
    committed batch into a transferable agreement certificate.
    """

    view: int
    seq: int
    batch_digest: bytes
    replica: NodeId
    cert_authenticator: Optional["Authenticator"] = None


@dataclass(frozen=True)
class AgreementCheckpoint(Message):
    """Agreement-cluster checkpoint vote at sequence number ``seq``.

    ``sync_state`` is the executor's transferable frontier state at the cut
    (for the message queue: per-shard sequence frontiers and the epoch
    cursor), so a replica that fell behind the stable checkpoint can adopt
    it from any vote matching the certified digest (PBFT state transfer).
    Its integrity comes from recomputing ``state_digest`` over the claimed
    state at the receiver.
    """

    seq: int
    state_digest: bytes
    replica: NodeId
    sync_state: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class PreparedProof(Message):
    """Evidence that a batch prepared at a replica (used in view changes)."""

    view: int
    seq: int
    batch_digest: bytes
    requests: Tuple[Certificate, ...]
    nondet: NonDetInput

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return body_bytes(self.requests)


@dataclass(frozen=True)
class ViewChange(Message):
    """VIEW-CHANGE vote for ``new_view``.

    ``prepared`` carries, for every sequence number above the replica's last
    stable checkpoint that prepared locally, the proof needed for the new
    primary to re-propose it.

    ``planned`` marks a proactive rotation vote (the
    ``rotation_interval_checkpoints`` knob): the voter's own rotation
    counter fired, nobody accused the primary.  A replica joining the view
    change treats it as planned only when ``f + 1`` votes say so -- at
    least one of those is correct, so a Byzantine minority cannot shield a
    genuinely failed primary from deposed-marking.
    """

    new_view: int
    last_stable_seq: int
    prepared: Tuple[PreparedProof, ...]
    replica: NodeId
    planned: bool = False

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return sum(proof.padding_bytes for proof in self.prepared)

    def within_watermarks(self, window: int) -> bool:
        """Whether every proof lies in ``(last_stable_seq, last_stable_seq
        + window]``: a correct replica prepares only inside its watermarks
        (PBFT), so a vote with a proof outside them is dropped, and no vote
        makes a new primary re-propose, or fill with null batches, past one
        window above the checkpoint it names."""
        low = self.last_stable_seq
        return all(low < proof.seq <= low + window for proof in self.prepared)


@dataclass(frozen=True)
class NewView(Message):
    """NEW-VIEW announcement from the primary of ``view``.

    ``pre_prepares`` re-proposes every prepared-but-uncommitted batch from the
    previous views so that no agreed ordering is lost across the view change.
    """

    view: int
    view_change_replicas: Tuple[str, ...]
    pre_prepares: Tuple[PrePrepare, ...]
    primary: NodeId

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return sum(pre_prepare.padding_bytes for pre_prepare in self.pre_prepares)


@dataclass(frozen=True)
class OrderedBatch(Message):
    """A batch of requests plus the agreement certificate that orders it.

    This is the unit that flows from the agreement cluster (message queues)
    through the optional privacy firewall to the execution cluster.  The
    request certificates carry the (possibly encrypted) operations; the
    agreement certificate carries the 2f+1 agreement authenticators over
    :class:`AgreementCertBody`.
    """

    seq: int
    view: int
    request_certificates: Tuple[Certificate, ...]
    agreement_certificate: Certificate
    nondet: NonDetInput

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return body_bytes(self.request_certificates)

    @property
    def cert_body(self) -> AgreementCertBody:
        """The agreement certificate payload (view, seq, digest, nondet)."""
        return self.agreement_certificate.payload

    def client_requests(self):
        """The client request messages in batch order."""
        return [cert.payload for cert in self.request_certificates]
