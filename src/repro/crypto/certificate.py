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

#: :meth:`Certificate.addressed_to`'s "keep the payload" default
_SAME = object()


@dataclass(frozen=True, slots=True)
class Authenticator(WireMemoised):
    """One node's evidence that it vouches for a payload.  It names no
    digest: a verifier checks ``token`` against its own digest of the
    payload, so attached to another payload it fails.

    One authenticator rides in several certificates (a reply's is in the
    bundle's, the bodiless form's and each client's view), so its encoding
    is memoised like a message's.

    ``token`` is scheme-dependent:

    * MAC: a mapping from destination node name to the MAC computed with the
      pairwise secret shared by the signer and that destination -- in a
      frame, only those of its receiver and of the nodes the receiver
      relays it to (:meth:`Certificate.addressed_to`);
    * SIGNATURE: the signature bytes, verifiable by anyone;
    * THRESHOLD: this node's signature *share*, combinable into a group
      signature once ``k`` distinct shares are available.
    """

    signer: NodeId
    scheme: AuthenticationScheme
    token: Any


@dataclass(init=False)
class Certificate(WireMemoised):
    """A payload plus the authenticators collected for it.

    The payload may be any value the wire codec can encode; protocol code
    normally stores a :class:`~repro.net.message.Message`.  For threshold-signed
    certificates the individual shares are replaced (or complemented) by a
    single ``threshold_signature`` representing the whole group.

    A certificate is the one mutable protocol object -- collectors add
    authenticators to it, inside :mod:`repro.crypto` only -- so every
    mutation drops its wire memo: assigning a field does (``__setattr__``),
    and so does :meth:`add`.
    Writing into ``authenticators`` directly is safe only while the
    certificate is being assembled, before anything has asked for its size.
    """

    payload: Any
    scheme: AuthenticationScheme
    authenticators: Dict[NodeId, Authenticator] = field(default_factory=dict)
    threshold_group: Optional[str] = None
    threshold_signature: Optional[bytes] = None

    def __init__(self, payload: Any, scheme: AuthenticationScheme,
                 authenticators: Optional[Dict[NodeId, Authenticator]] = None,
                 threshold_group: Optional[str] = None,
                 threshold_signature: Optional[bytes] = None) -> None:
        # The fields in one step, not through __setattr__: a certificate is
        # built per frame (addressed_to), and a new one has no memo to drop.
        object.__setattr__(self, "__dict__", {
            "payload": payload, "scheme": scheme,
            "authenticators": {} if authenticators is None else authenticators,
            "threshold_group": threshold_group,
            "threshold_signature": threshold_signature})
        object.__setattr__(self, "_wire", None)

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

    def with_payload(self, payload: Any) -> "Certificate":
        """This certificate's evidence attached to ``payload``: another
        rendering of the same statement (a reply bundle as one client sees
        it).  The evidence only verifies if the two have the same digest."""
        return Certificate(payload=payload, scheme=self.scheme,
                           authenticators=dict(self.authenticators),
                           threshold_group=self.threshold_group,
                           threshold_signature=self.threshold_signature)

    def addressed_to(self, nodes: Iterable[NodeId],
                     payload: Any = _SAME) -> "Certificate":
        """This certificate as a frame to ``nodes`` carries it -- its
        receiver, and the nodes that receiver relays it to: each MAC vector
        keeps only their entries, which every other node cannot check
        anyway.  Signatures and shares are not vectors and stay whole.
        ``payload`` attaches the evidence to another rendering, as
        :meth:`with_payload` does; the payload object is shared, so its
        wire memo is too and only the small wrapper is encoded again."""
        names = [node.name for node in nodes]
        authenticators = {}
        for signer, authenticator in self.authenticators.items():
            token = authenticator.token
            if (authenticator.scheme is AuthenticationScheme.MAC
                    and isinstance(token, dict)):
                kept = {name: token[name] for name in names if name in token}
                if len(kept) < len(token):
                    authenticator = Authenticator(authenticator.signer,
                                                  authenticator.scheme, kept)
            authenticators[signer] = authenticator
        return Certificate(payload=self.payload if payload is _SAME else payload,
                           scheme=self.scheme, authenticators=authenticators,
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
