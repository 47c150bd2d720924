"""Cryptographic digests and the MAC primitive.

The paper assumes a collision- and preimage-resistant digest function (SHA-1
in 2003); we use SHA-256.  Digests are computed over the wire codec's
encoding of protocol values (:func:`repro.util.encoding.canonical_encode`),
which has one encoding per value, so all correct nodes derive identical
digests from identical logical messages -- and a node digests the very bytes
a frame carries.

:func:`mac` is the one keyed primitive: MAC entries, the simulated
signatures and shares and the key schedule all go through it.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any

from ..util.encoding import canonical_encode
from ..util.wirecache import WireMemoised, wire_digest

DIGEST_SIZE = 32


def digest(value: Any) -> bytes:
    """Return the SHA-256 digest of ``value``'s encoding.

    ``bytes`` values are hashed as they are (``bytearray`` and
    ``memoryview`` after a copy); a message, certificate or authenticator
    through its memo (:func:`repro.util.wirecache.wire_digest`); anything
    else is first passed through
    :func:`repro.util.encoding.canonical_encode`.
    """
    if isinstance(value, (bytearray, memoryview)):
        value = bytes(value)
    elif isinstance(value, WireMemoised):
        return wire_digest(value)
    elif not isinstance(value, bytes):
        value = canonical_encode(value)
    return hashlib.sha256(value).digest()


def mac(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 of ``data`` under ``key``, in one call into OpenSSL."""
    return hmac.digest(key, data, "sha256")


def digest_hex(value: Any) -> str:
    """Hex string form of :func:`digest` (for logs and debugging)."""
    return digest(value).hex()


def combine_digests(*digests: bytes) -> bytes:
    """Hash a sequence of digests into one (used for incremental checkpoints)."""
    hasher = hashlib.sha256()
    for item in digests:
        hasher.update(item)
    return hasher.digest()
