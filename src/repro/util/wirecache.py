"""Per-object memoisation of wire forms: encode once, splice everywhere.

Every hot path re-derives the same facts about a message over and over: its
canonical wire size (what the simulated network charges for a ``send``),
the SHA-256 digest of its wire form (recomputed by every verification that
touches the payload), and the bytes themselves whenever the message is
nested inside another one.  All are pure functions of the canonical encoding of
``to_wire()``, and protocol objects are immutable once built -- the one
exception, :class:`~repro.crypto.certificate.Certificate`, drops its memo
whenever it is mutated -- so each object needs to be encoded exactly once.

**Where the memo lives.**  On the object: :class:`WireMemoised` gives
messages and certificates one slot holding a :class:`WireMemo` (the size,
the digest once somebody asked for it, the nodes already charged for it,
and -- for a while -- the encoded bytes).  The memo therefore lives exactly
as long as the object and pins nothing: a message the protocol has dropped
is freed at once.  It never travels -- frames and checkpoints carry fields
only (:mod:`repro.net.codec`), so a receiver encodes what it received
itself and a peer's idea of a message's bytes or digest is never trusted.

**How long the bytes are kept.**  Bytes are what memory goes on, and they
are wanted for one thing only: to be spliced into a parent, which happens
within milliseconds of the first encoding, while the object itself may sit
in a log or a retransmission cache until the next checkpoint.  So
``wire_size()`` keeps no bytes at all (the simulated network only ever sizes
the outermost message it carries, and its bytes would be a second copy of
everything nested in it), and :data:`WIRE_CACHE` lets the bytes of all but
the most recently encoded objects go (:meth:`WireCache.keep`; on the
ledger's workloads half the default capacity re-encodes 0.3% more, the
default nothing).
Size, digest and charges stay; whoever asks for old bytes again pays for
one more encoding.

**Composition.**  A parent's ``payload_fields()`` names each nested object
through :func:`wire_of`, which stands a
:class:`~repro.util.encoding.Spliced` node in the wire dict; the encoder
replaces the node with the child's memoised bytes.  A request certificate is
thus encoded once, not once per enclosing ``RequestEnvelope`` /
``PrePrepare`` / ``OrderedBatch`` / digest.  The simulated network sizes
every message it carries (the size drives its bandwidth model and is the
census), which leaves the nested payloads encoded for whoever digests them
next.  The asyncio transport sizes nothing: sender and receiver both count
the frame's length, so a node there encodes only the payloads it goes on to
digest -- each once, through the same memos.

**Charging.**  The memo carries the names of the nodes that have already
been *charged* virtual hashing time for this object, so the cost model stays
per-node honest: the first time a node digests a message it pays
``digest_ms(wire_size)``; later touches by the same node are free, while a
*different* node touching the same object still pays for its own first hash.

:data:`WIRE_CACHE` is the process-wide switch, the hit/miss counters and
the byte budget; it references memos, never messages.
``configure(enabled=False)`` restores the uncached behaviour (nothing is
stored, everything is encoded on demand) -- the benchmark harness uses it
to measure the before/after delta.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Deque, Optional, Set

from .encoding import Spliced, canonical_encode


class WireMemo:
    """The memoised wire facts of one object."""

    __slots__ = ("size", "data", "digest", "_charged")

    def __init__(self, size: int) -> None:
        #: length of the canonical encoding of ``obj.to_wire()`` (the wire
        #: size, without padding)
        self.size = size
        #: the encoding itself, while :data:`WIRE_CACHE` keeps it
        self.data: Optional[bytes] = None
        #: SHA-256 of the encoding, once somebody asked for it
        self.digest: Optional[bytes] = None
        self._charged: Optional[Set[str]] = None

    @property
    def charged(self) -> Set[str]:
        """Names of the nodes already charged virtual hashing time."""
        if self._charged is None:
            self._charged = set()
        return self._charged


class WireCache:
    """The process-wide switch, counters and byte budget of the memos.

    The bytes of the ``capacity`` most recently encoded objects are kept,
    older ones let go (see the module docstring for why that is enough).
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = capacity
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self._recent: Deque[WireMemo] = deque()

    def keep(self, memo: WireMemo, data: bytes) -> None:
        """Hold ``data`` on ``memo`` until ``capacity`` newer ones push it out."""
        memo.data = data
        self._recent.append(memo)
        if len(self._recent) > self.capacity:
            self._recent.popleft().data = None

    def reset(self) -> None:
        """Let all kept bytes go and zero the counters (between benchmarks)."""
        for memo in self._recent:
            memo.data = None
        self._recent.clear()
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> dict:
        """Hit/miss/occupancy counters for the metrics registry's probes."""
        total = self.hits + self.misses
        return {
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "entries": len(self._recent),
            "capacity": self.capacity,
        }

    def configure(self, enabled: bool) -> None:
        """Switch memoisation on or off process-wide.

        Memos already attached to live objects are left where they are and
        ignored while the switch is off.
        """
        self.enabled = enabled


#: the process-wide instance read by messages, crypto providers and benchmarks
WIRE_CACHE = WireCache()


class WireMemoised:
    """Base of objects whose ``to_wire()`` encoding is memoised on themselves.

    The memo is a slot, not a field: the wire codec carries fields only
    (:mod:`repro.net.codec`), so it never travels.
    """

    __slots__ = ("_wire",)

    def encoded(self) -> bytes:
        """Canonical encoding of ``to_wire()`` (what a parent splices in)."""
        memo = wire_memo(self, "bytes", count=False)
        return memo.data if memo is not None else canonical_encode(self.to_wire())


def wire_memo(obj: WireMemoised, need: str, count: bool = True) -> Optional[WireMemo]:
    """The memo of ``obj`` holding what the caller needs; None when disabled.

    ``need`` is ``"size"`` (``size`` only: what the simulated network asks
    of the outermost message it carries, whose bytes nobody wants and would
    be a second copy of everything nested in it), ``"bytes"`` (``data``
    too) or ``"digest"`` (``digest`` too).  Whatever is missing is made by encoding
    ``obj.to_wire()``, children spliced from their own memos.

    ``count`` feeds the hit/miss counters, which keep their old meaning:
    protocol code asking for a message's size or digest.  A parent asking
    for a child's bytes while it is itself being encoded is not counted.
    """
    cache = WIRE_CACHE
    if not cache.enabled:
        return None
    memo = getattr(obj, "_wire", None)
    data = None
    if memo is not None:
        if need == "size" or (need == "digest" and memo.digest is not None):
            cache.hits += count
            return memo
        data = memo.data
    if data is None:
        cache.misses += count
        data = canonical_encode(obj.to_wire())
        if memo is None:
            memo = WireMemo(len(data))
            object.__setattr__(obj, "_wire", memo)
        if need != "size":
            cache.keep(memo, data)
    else:
        cache.hits += count
    if need == "digest":
        memo.digest = hashlib.sha256(data).digest()
    return memo


def wire_digest(child: WireMemoised) -> bytes:
    """SHA-256 of ``child``'s canonical encoding, for a parent whose wire
    form names the child by digest instead of embedding it."""
    memo = wire_memo(child, "digest", count=False)
    if memo is not None:
        return memo.digest
    return hashlib.sha256(canonical_encode(child.to_wire())).digest()


def wire_of(child: Any) -> Any:
    """The wire-dict value for an object nested in a message.

    Every ``payload_fields()`` / ``to_wire()`` that embeds another object's
    wire form goes through here: memoised objects are spliced in by their
    encoded bytes, anything else contributes its ``to_wire()`` dict.  The
    encoding is the same either way.
    """
    if isinstance(child, WireMemoised):
        return Spliced(child)
    return child.to_wire()
