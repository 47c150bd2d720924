"""Base class for all protocol messages.

Concrete message types live in :mod:`repro.messages`; this module defines the
minimal contract the network and the cryptographic substrate rely on.  A
message's bytes are its wire codec encoding (registered dataclass fields,
tagged with the class: :func:`repro.util.encoding.canonical_encode`), and
they are what digests, MACs, signatures and sizes are taken over.
"""

from __future__ import annotations

from ..util.encoding import canonical_encode
from ..util.wirecache import WireMemoised, wire_memo


class Message(WireMemoised):
    """Base class for protocol messages: frozen dataclasses registered with
    the wire codec (:func:`repro.net.codec.standard_types`)."""

    #: subclasses declaring ``slots=True`` stay dict-free: the only instance
    #: state of the base is the wire memo's slot (see :class:`WireMemoised`)
    __slots__ = ()

    #: body bytes the message models but does not carry (request and reply
    #: bodies whose size matters but whose content does not)
    padding_bytes: int = 0

    def type_name(self) -> str:
        """Short message type name used for dispatch and logging."""
        return type(self).__name__

    def wire_size(self) -> int:
        """Size in bytes on the simulated wire: the length of the message's
        encoding plus the body bytes it models.  Hashing a payload is
        charged by it too.

        Messages are immutable, so the encoding is made once per object
        (:mod:`repro.util.wirecache`).  Asking for the size keeps the size
        only: this is what the simulated network asks of the outermost
        message it carries, which nothing splices or digests and whose bytes
        repeat its children's.  The asyncio transport never asks: it counts
        the frames it encodes.
        """
        memo = wire_memo(self, "size")
        size = (memo.size if memo is not None
                else len(canonical_encode(self)))
        return size + self.padding_bytes


class CorruptedMessage(Message):
    """Replacement payload delivered when the network corrupts a message.

    Correct receivers must treat it as garbage: it fails every verification
    and carries no usable protocol fields.
    """

    def __init__(self, original_type: str, size: int) -> None:
        self.original_type = original_type
        self.size = size

    def wire_size(self) -> int:
        return self.size
