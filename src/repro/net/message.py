"""Base class for all protocol messages.

Concrete message types live in :mod:`repro.messages`; this module defines the
minimal contract the network and the cryptographic substrate rely on:

* :meth:`Message.to_wire` returns a canonical-encodable representation used
  for digests, MACs, signatures, and size estimation;
* :meth:`Message.type_name` identifies the message type for dispatch and
  debugging.
"""

from __future__ import annotations

from typing import Any, Dict

from ..util.encoding import canonical_encode
from ..util.wirecache import WireMemoised, wire_memo


class Message(WireMemoised):
    """Base class for protocol messages.

    Subclasses are ordinarily frozen dataclasses that implement
    :meth:`payload_fields` (the fields covered by authentication) -- the
    default :meth:`to_wire` composes the type name with those fields so that
    two different message types never authenticate to the same bytes.
    """

    #: subclasses declaring ``slots=True`` stay dict-free: the only instance
    #: state of the base is the wire memo's slot (see :class:`WireMemoised`)
    __slots__ = ()

    #: extra bytes of payload not represented in the wire dict (e.g. modeled
    #: request/reply bodies whose size matters but whose content does not).
    padding_bytes: int = 0

    def payload_fields(self) -> Dict[str, Any]:
        """Return the authenticated fields of this message as a dict."""
        raise NotImplementedError

    def to_wire(self) -> Dict[str, Any]:
        """Canonical-encodable representation of this message."""
        wire = {"__type__": self.type_name()}
        wire.update(self.payload_fields())
        return wire

    def type_name(self) -> str:
        """Short message type name used for dispatch and logging."""
        return type(self).__name__

    def wire_size(self) -> int:
        """Size in bytes of the canonical encoding: what the simulated
        network transmits, and what hashing a payload is charged by.

        Messages are immutable, so the canonical encoding is made once per
        object (:mod:`repro.util.wirecache`).  Asking for the size keeps the
        size only: this is what the simulated network asks of the outermost
        message it carries, which nothing splices or digests and whose bytes
        repeat its children's.  The asyncio transport never asks: it counts
        the frames it encodes.
        """
        memo = wire_memo(self, "size")
        size = (memo.size if memo is not None
                else len(canonical_encode(self.to_wire())))
        return size + self.padding_bytes


class CorruptedMessage(Message):
    """Replacement payload delivered when the network corrupts a message.

    Correct receivers must treat it as garbage: it fails every verification
    and carries no usable protocol fields.
    """

    def __init__(self, original_type: str, size: int) -> None:
        self.original_type = original_type
        self.size = size

    def payload_fields(self) -> Dict[str, Any]:
        return {"original_type": self.original_type, "garbage": True}

    def wire_size(self) -> int:
        return self.size
