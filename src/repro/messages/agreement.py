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

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..crypto.certificate import Authenticator, Certificate
from ..net.message import Message
from ..statemachine.nondet import NonDetInput
from ..util.ids import NodeId
from ..util.wirecache import wire_of


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

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "v": self.view,
            "n": self.seq,
            "d": self.batch_digest,
            "nondet": wire_of(self.nondet),
        }


@dataclass(frozen=True)
class PrePrepare(Message):
    """Primary's PRE-PREPARE for a batch of request certificates."""

    view: int
    seq: int
    batch_digest: bytes
    requests: Tuple[Certificate, ...]
    nondet: NonDetInput
    primary: NodeId

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "v": self.view,
            "n": self.seq,
            "d": self.batch_digest,
            "nondet": wire_of(self.nondet),
            "primary": self.primary.name,
        }

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return sum(cert.wire_size() for cert in self.requests)


@dataclass(frozen=True)
class Prepare(Message):
    """Backup's PREPARE vote for (view, seq, batch_digest)."""

    view: int
    seq: int
    batch_digest: bytes
    replica: NodeId

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "v": self.view,
            "n": self.seq,
            "d": self.batch_digest,
            "i": self.replica.name,
        }


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

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "v": self.view,
            "n": self.seq,
            "d": self.batch_digest,
            "i": self.replica.name,
        }


@dataclass(frozen=True)
class AgreementCheckpoint(Message):
    """Agreement-cluster checkpoint vote at sequence number ``seq``.

    ``sync_state`` is the executor's transferable frontier state at the cut
    (for the message queue: per-shard sequence frontiers and the epoch
    cursor), so a replica that fell behind the stable checkpoint can adopt
    it from any vote matching the certified digest (PBFT state transfer).
    It rides outside the authenticated fields: its integrity comes from
    recomputing ``state_digest`` over the claimed state at the receiver,
    not from the vote's authenticator, so the authenticated bytes are those
    of a plain checkpoint vote.
    """

    seq: int
    state_digest: bytes
    replica: NodeId
    sync_state: Tuple[Tuple[str, Any], ...] = ()

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "n": self.seq,
            "d": self.state_digest,
            "i": self.replica.name,
        }


@dataclass(frozen=True)
class PreparedProof(Message):
    """Evidence that a batch prepared at a replica (used in view changes)."""

    view: int
    seq: int
    batch_digest: bytes
    requests: Tuple[Certificate, ...]
    nondet: NonDetInput

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "v": self.view,
            "n": self.seq,
            "d": self.batch_digest,
        }


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

    def payload_fields(self) -> Dict[str, Any]:
        fields = {
            "v": self.new_view,
            "h": self.last_stable_seq,
            "prepared": [wire_of(p) for p in self.prepared],
            "i": self.replica.name,
        }
        if self.planned:  # omitted when False: failure votes keep their bytes
            fields["p"] = 1
        return fields


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

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "v": self.view,
            "vc": list(self.view_change_replicas),
            "pp": [wire_of(p) for p in self.pre_prepares],
            "primary": self.primary.name,
        }


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

    def payload_fields(self) -> Dict[str, Any]:
        return {
            "n": self.seq,
            "v": self.view,
            "requests": [wire_of(cert) for cert in self.request_certificates],
            "agreement": wire_of(self.agreement_certificate),
        }

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return sum(
            getattr(cert.payload, "padding_bytes", 0)
            for cert in self.request_certificates
        )

    @property
    def cert_body(self) -> AgreementCertBody:
        """The agreement certificate payload (view, seq, digest, nondet)."""
        return self.agreement_certificate.payload

    def client_requests(self):
        """The client request messages in batch order."""
        return [cert.payload for cert in self.request_certificates]
