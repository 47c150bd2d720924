"""Client request messages.

A request certificate has the form ``<REQUEST, o, t, c>_{c,A,1}``: the
operation ``o``, the client timestamp ``t``, and the client identity ``c``,
authenticated by the client to the agreement cluster (one authenticator is
enough, since a client can only hurt itself by issuing bad requests).

When the privacy firewall is deployed, request and reply *bodies* must be
encrypted so that agreement and filter nodes cannot read them; only the
client and the execution nodes hold the decryption key.  :class:`EncryptedBody`
models that end-to-end encryption: the simulation carries the plaintext (the
frames do too, standing in for the ciphertext) but only reveals it to nodes
whose role is in the reader set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional, Union

from ..errors import FirewallError
from ..net.message import Message
from ..statemachine.interface import Operation
from ..util.ids import NodeId, Role
from ..crypto.certificate import Certificate
from ..crypto.digest import digest


#: roles allowed to read encrypted request/reply bodies
DEFAULT_READERS: FrozenSet[Role] = frozenset({Role.CLIENT, Role.EXECUTION, Role.SERVER})

# RequestEnvelope is defined at the end of this module (it wraps a request
# certificate, i.e. a Certificate whose payload is a ClientRequest).


class EncryptedBody:
    """An end-to-end encrypted payload.

    ``open(role)`` returns the plaintext for authorised readers and raises
    :class:`FirewallError` for everyone else -- a confidentiality violation in
    the simulation is therefore an *exception*, which the property-based
    confidentiality tests turn into assertions.
    """

    def __init__(self, plaintext: Any, readers: FrozenSet[Role] = DEFAULT_READERS,
                 size: Optional[int] = None) -> None:
        self._plaintext = plaintext
        self.readers = readers
        self.ciphertext_digest = digest(plaintext)
        if size is not None:
            self.size = size
        elif hasattr(plaintext, "body_size"):
            self.size = max(int(plaintext.body_size), 64)
        else:
            self.size = 64

    def open(self, role: Role) -> Any:
        """Decrypt for a node playing ``role``."""
        if role not in self.readers:
            raise FirewallError(
                f"role {role.value} is not authorised to read an encrypted body"
            )
        return self._plaintext

    def can_open(self, role: Role) -> bool:
        return role in self.readers

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<EncryptedBody {self.ciphertext_digest.hex()[:12]} size={self.size}>"


@dataclass(frozen=True, slots=True)
class ClientRequest(Message):
    """``REQUEST`` message issued by a client.

    ``operation`` is either a plain :class:`~repro.statemachine.interface.Operation`
    or an :class:`EncryptedBody` wrapping one (privacy-firewall deployments).
    ``timestamp`` is the client's monotonically increasing request timestamp.
    """

    operation: Union[Operation, EncryptedBody]
    timestamp: int
    client: NodeId

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        """Model the request body size for network-cost purposes."""
        if isinstance(self.operation, EncryptedBody):
            return self.operation.size
        return self.operation.body_size

    def operation_for(self, role: Role) -> Operation:
        """Return the operation as visible to a node playing ``role``."""
        if isinstance(self.operation, EncryptedBody):
            return self.operation.open(role)
        return self.operation

    def body_is_encrypted(self) -> bool:
        return isinstance(self.operation, EncryptedBody)


@dataclass(frozen=True)
class RequestEnvelope(Message):
    """Transport wrapper carrying a request certificate.

    The certificate's payload is a :class:`ClientRequest` and it carries the
    client's single authenticator (``<REQUEST, o, t, c>_{c,A,1}``).  Clients
    send it to agreement nodes; agreement nodes forward it to the primary and
    relay it (inside an :class:`~repro.messages.agreement.OrderedBatch`)
    towards the execution cluster.
    """

    certificate: "Certificate"

    @property
    def request(self) -> ClientRequest:
        """The wrapped client request."""
        return self.certificate.payload

    @property
    def padding_bytes(self) -> int:  # type: ignore[override]
        return getattr(self.certificate.payload, "padding_bytes", 0)
