"""Authentication certificates.

The paper's protocols exchange *authentication certificates*
``<X>_{S,D,k}``: a statement ``X`` together with evidence that at least ``k``
distinct nodes from the source set ``S`` vouch for ``X``, verifiable by any
node in the destination set ``D``.  Three implementations are supported --
MAC authenticator vectors, public-key signatures, and threshold signatures --
selected by :class:`repro.config.AuthenticationScheme`.

A :class:`Certificate` is the container; creating and verifying the
authenticators inside it is the job of
:class:`repro.crypto.provider.CryptoProvider`, which holds the keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from ..config import AuthenticationScheme
from ..errors import CertificateError
from ..util.ids import NodeId
from ..util.wirecache import WireMemoised


@dataclass(frozen=True, slots=True)
class Authenticator(WireMemoised):
    """One node's evidence that it vouches for a payload digest.

    One authenticator rides in several certificates (a reply's is in the
    bundle's, the bodiless form's and each client's view), so its encoding
    is memoised like a message's.

    ``token`` is scheme-dependent:

    * MAC: a mapping from destination node name to the MAC computed with the
      pairwise secret shared by the signer and that destination;
    * SIGNATURE: the signature bytes, verifiable by anyone;
    * THRESHOLD: this node's signature *share*, combinable into a group
      signature once ``k`` distinct shares are available.
    """

    signer: NodeId
    scheme: AuthenticationScheme
    payload_digest: bytes
    token: Any

    def covers(self, payload_digest: bytes) -> bool:
        """Whether this authenticator was produced over ``payload_digest``."""
        return self.payload_digest == payload_digest


@dataclass
class Certificate(WireMemoised):
    """A payload plus the authenticators collected for it.

    The payload may be any value the wire codec can encode; protocol code
    normally stores a :class:`~repro.net.message.Message`.  For threshold-signed
    certificates the individual shares are replaced (or complemented) by a
    single ``threshold_signature`` representing the whole group.

    A certificate is the one mutable protocol object -- collectors add
    authenticators to it -- so every mutation drops its wire memo: assigning
    a field does (``__setattr__``), and so do :meth:`add` and :meth:`merge`.
    Writing into ``authenticators`` directly is safe only while the
    certificate is being assembled, before anything has asked for its size.
    """

    payload: Any
    scheme: AuthenticationScheme
    authenticators: Dict[NodeId, Authenticator] = field(default_factory=dict)
    threshold_group: Optional[str] = None
    threshold_signature: Optional[bytes] = None

    # ------------------------------------------------------------------ #
    # Mutation.
    # ------------------------------------------------------------------ #

    def __setattr__(self, name: str, value: Any) -> None:
        object.__setattr__(self, name, value)
        object.__setattr__(self, "_wire", None)

    def add(self, authenticator: Authenticator) -> None:
        """Add one node's authenticator (last write wins for a given signer)."""
        if authenticator.scheme is not self.scheme:
            raise CertificateError(
                f"authenticator scheme {authenticator.scheme} does not match "
                f"certificate scheme {self.scheme}"
            )
        self.authenticators[authenticator.signer] = authenticator
        self._wire = None

    def merge(self, other: "Certificate") -> None:
        """Merge the authenticators of ``other`` (same payload) into this one."""
        for authenticator in other.authenticators.values():
            self.add(authenticator)
        if other.threshold_signature is not None:
            self.threshold_signature = other.threshold_signature
            self.threshold_group = other.threshold_group

    def with_payload(self, payload: Any) -> "Certificate":
        """This certificate's evidence attached to ``payload``: another
        rendering of the same statement (a reply bundle as one client sees
        it).  The evidence only verifies if the two have the same digest."""
        return Certificate(payload=payload, scheme=self.scheme,
                           authenticators=dict(self.authenticators),
                           threshold_group=self.threshold_group,
                           threshold_signature=self.threshold_signature)

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #

    @property
    def signers(self) -> FrozenSet[NodeId]:
        """The distinct nodes that contributed authenticators."""
        return frozenset(self.authenticators)

    def count(self, universe: Optional[Iterable[NodeId]] = None) -> int:
        """Number of distinct signers, optionally restricted to ``universe``."""
        signers = self.signers
        if universe is not None:
            signers = signers & frozenset(universe)
        return len(signers)

    def authenticator_list(self) -> List[Authenticator]:
        """Authenticators in deterministic (signer) order."""
        return [self.authenticators[s] for s in sorted(self.authenticators)]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        signer_names = ",".join(sorted(s.name for s in self.authenticators))
        extra = " +threshold" if self.threshold_signature is not None else ""
        return f"<Certificate {self.scheme.value} signers=[{signer_names}]{extra}>"
