"""The byte form of protocol values, for digests, MACs and sizes.

Digests, MACs, and signatures must be computed over a byte string that every
correct node derives identically from the same logical message.  That string
is the wire codec's *tagged* encoding (:mod:`repro.net.codec`): the bytes
the asyncio frames carry, with one encoding per value (dict items in
increasing order of their encoded keys, set members sorted) and a type tag
before every value, so two distinct values never encode alike.

Both functions are looked up by name wherever they are imported, so a
tracer that wraps them sees every encoding made for a digest or a size.
"""

from __future__ import annotations

from typing import Any, Optional


def canonical_encode(value: Any) -> bytes:
    """``value`` in the codec's tagged form (:meth:`Codec.encode_tagged`).

    Raises :class:`~repro.errors.EncodeError` for a value the codec cannot
    name.
    """
    return _encode_tagged(value)


def estimate_size(value: Any) -> int:
    """The length of ``value``'s encoding: its size on the wire, without
    the body bytes a message only models."""
    return len(canonical_encode(value))


def mac_form_size(token: Any) -> Optional[int]:
    """The bytes an authenticator's ``token`` takes in the codec's MAC form,
    which carries a vector as fixed-width (node code, MAC) pairs; None when
    the codec carries it in the tagged form
    (:func:`repro.net.codec.mac_form_size`)."""
    return _mac_form_size(token)


def _mac_form_size(token: Any) -> Optional[int]:
    global _mac_form_size
    from ..net.codec import mac_form_size as _mac_form_size
    return _mac_form_size(token)


def _encode_tagged(value: Any) -> bytes:
    """Bind the process's codec on first use (building it imports every
    message module, which import this one)."""
    global _encode_tagged
    from ..net.codec import default_codec
    _encode_tagged = default_codec().encode_tagged
    return _encode_tagged(value)
