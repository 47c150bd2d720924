"""Canonical, deterministic encoding of protocol values.

Digests, MACs, and signatures must be computed over a byte string that every
correct node derives identically from the same logical message.  Python's
``repr`` is not stable enough (dict ordering, float formatting), so we provide
a small canonical encoder covering the value types that appear in protocol
messages: ``None``, booleans, integers, floats, strings, bytes, and
(recursively) tuples, lists, sets, dictionaries, enums, and objects exposing
``to_wire()``.

**Format.**  Every value starts with a one-byte type tag; variable-length
values carry a big-endian length (4 bytes for the decimal digits of an
``int``, 8 bytes everywhere else).  A list is its item count followed by
its items.  Sets and dictionaries are order-free in Python, so their items
are encoded *separately*, sorted by their bytes, and each written with its
own length prefix.  An enum is its class name and value, an object with
``to_wire()`` its class name and wire form.

**Splice nodes.**  Because a dictionary length-prefixes each value's
finished bytes, the bytes of a nested value can be produced anywhere, at any
time, and dropped in verbatim.  :class:`Spliced` is that: a node wrapping an
object whose ``encoded()`` returns the canonical encoding of its
``to_wire()``; the encoder emits those bytes where the node stands, exactly
as if the wire form had been nested in its place.  Message classes put one
in their wire dict for each nested message or certificate
(:func:`repro.util.wirecache.wire_of`), and ``encoded()`` is memoised on the
object, so a request certificate is encoded once however many envelopes,
pre-prepares, ordered batches and digests it ends up inside.

**Speed.**  The encoder runs for every message a node sends, sizes or
digests and was the largest line of the performance ledger, so it is
written for CPython: one dictionary lookup on the exact ``type()`` picks the
encoder (subclasses are resolved once through the ``isinstance`` order of
the format's definition, then remembered), lengths come from precompiled
``struct`` packers, parts are joined once per container, and the encodings
of small integers and of short strings -- field names, node names, type
names, scheme values: the same few dozen in every message -- are looked up,
not rebuilt.  The straightforward encoder this replaced is kept in
``tests/test_util.py`` as the reference; the two must agree byte for byte.
"""

from __future__ import annotations

import enum
import struct
from typing import Any, Callable, Dict

_pack_len4 = struct.Struct(">I").pack
_pack_len8 = struct.Struct(">Q").pack
_pack_float = struct.Struct(">d").pack

#: strings up to this many characters keep their encoding once built
_INTERN_MAX_CHARS = 48
#: ... until this many are held (the protocol's vocabulary is a few hundred;
#: the cap only stops application keys from growing the table without bound)
_INTERN_MAX_ENTRIES = 8192


class Spliced:
    """A pre-encoded node: ``obj.encoded()`` is emitted verbatim.

    ``obj.encoded()`` must return ``canonical_encode(obj.to_wire())``; the
    node then encodes to exactly what ``obj.to_wire()`` would have in its
    place.  The bytes are asked for when the node is encoded, not when it is
    built, so building a wire dict costs nothing for children that are
    already encoded and a mutable child is read as late as possible.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: Any) -> None:
        self.obj = obj


def _encode_int(value: int) -> bytes:
    digits = str(value).encode("ascii")
    return b"i" + _pack_len4(len(digits)) + digits


def _encode_str(value: str) -> bytes:
    data = value.encode("utf-8")
    return b"s" + _pack_len8(len(data)) + data


_SMALL_INTS: Dict[int, bytes] = {n: _encode_int(n) for n in range(-16, 1024)}
_STRINGS: Dict[str, bytes] = {}


def _encode_exact_int(value: int) -> bytes:
    return _SMALL_INTS.get(value) or _encode_int(value)


def _encode_exact_str(value: str) -> bytes:
    encoded = _STRINGS.get(value)
    if encoded is None:
        encoded = _encode_str(value)
        if len(value) <= _INTERN_MAX_CHARS and len(_STRINGS) < _INTERN_MAX_ENTRIES:
            _STRINGS[value] = encoded
    return encoded


def _encode_bool(value: bool) -> bytes:
    return b"T" if value else b"F"


def _encode_none(value: None) -> bytes:
    return b"N"


def _encode_float(value: float) -> bytes:
    return b"f" + _pack_float(value)


def _encode_bytes(value: bytes) -> bytes:
    return b"b" + _pack_len8(len(value)) + value


def _encode_buffer(value: Any) -> bytes:
    return _encode_bytes(bytes(value))


def _encode_enum(value: enum.Enum) -> bytes:
    return (b"e" + _encode_exact_str(value.__class__.__name__)
            + canonical_encode(value.value))


# The two container encoders below spell out ``canonical_encode``'s two lines
# for each element instead of calling it: one Python call less per element
# is 15-25% of the time of a typical message.

def _encode_list(value: Any) -> bytes:
    parts = [b"l", _pack_len8(len(value))]
    for item in value:
        encoder = _ENCODERS.get(type(item))
        parts.append(encoder(item) if encoder is not None else _encode_other(item))
    return b"".join(parts)


def _encode_set(value: Any) -> bytes:
    parts = [b"z", _pack_len8(len(value))]
    for item in sorted([canonical_encode(item) for item in value]):
        parts.append(_pack_len8(len(item)))
        parts.append(item)
    return b"".join(parts)


def _encode_dict(value: Dict[Any, Any]) -> bytes:
    items = []
    for key, item in value.items():
        encoder = _ENCODERS.get(type(key))
        key_bytes = encoder(key) if encoder is not None else _encode_other(key)
        encoder = _ENCODERS.get(type(item))
        items.append((key_bytes,
                      encoder(item) if encoder is not None else _encode_other(item)))
    items.sort()
    parts = [b"d", _pack_len8(len(items))]
    for key_bytes, item_bytes in items:
        parts += (_pack_len8(len(key_bytes)), key_bytes,
                  _pack_len8(len(item_bytes)), item_bytes)
    return b"".join(parts)


def _encode_object(value: Any) -> bytes:
    return (b"w" + _encode_exact_str(type(value).__name__)
            + canonical_encode(value.to_wire()))


def _encode_spliced(node: Spliced) -> bytes:
    return node.obj.encoded()


#: exact type -> encoder; subclasses are added by :func:`_encode_other`
_ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_exact_int,
    float: _encode_float,
    str: _encode_exact_str,
    bytes: _encode_bytes,
    bytearray: _encode_buffer,
    memoryview: _encode_buffer,
    list: _encode_list,
    tuple: _encode_list,
    set: _encode_set,
    frozenset: _encode_set,
    dict: _encode_dict,
    Spliced: _encode_spliced,
}

#: the format's order of precedence for subclasses: an ``IntEnum`` is an
#: enum, not an integer; a named tuple is a list; a ``dict`` subclass with a
#: ``to_wire`` method is a dictionary
_SUBCLASS_ORDER = (
    (enum.Enum, _encode_enum),
    (int, _encode_int),
    (float, _encode_float),
    (str, _encode_str),
    ((bytes, bytearray, memoryview), _encode_buffer),
    ((list, tuple), _encode_list),
    ((frozenset, set), _encode_set),
    (dict, _encode_dict),
)


def _encode_other(value: Any) -> bytes:
    """Encode a value whose exact type has no encoder yet, and remember it."""
    cls = type(value)
    for base, encoder in _SUBCLASS_ORDER:
        if issubclass(cls, base):
            _ENCODERS[cls] = encoder
            return encoder(value)
    if hasattr(cls, "to_wire"):
        _ENCODERS[cls] = _encode_object
    elif not hasattr(value, "to_wire"):
        raise TypeError(
            f"canonical_encode does not support values of type {cls.__name__}"
        )
    return _encode_object(value)


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into a deterministic byte string.

    The encoding is injective over the supported value domain (a type tag
    precedes every value and variable-length items are length-prefixed), so
    two distinct logical values never encode to the same bytes.
    """
    encoder = _ENCODERS.get(type(value))
    return encoder(value) if encoder is not None else _encode_other(value)


def estimate_size(value: Any) -> int:
    """Estimate the wire size of ``value`` in bytes.

    Used by the network model to charge transmission time.  The canonical
    encoding length is a good proxy for a real serialisation format.
    """
    return len(canonical_encode(value))
