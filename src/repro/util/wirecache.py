"""Per-object memoisation of wire forms: encode once, splice everywhere.

Every hot path re-derives the same facts about a message over and over: its
wire size (what the simulated network charges for a ``send``), the SHA-256
digest of its bytes (recomputed by every verification that touches the
payload), and the bytes themselves whenever the message is nested inside
another one.  All are pure functions of one byte form -- the codec's tagged
encoding (:func:`repro.util.encoding.canonical_encode`), which is also what
the asyncio frames carry -- and protocol objects are immutable once built --
the one exception, :class:`~repro.crypto.certificate.Certificate`, drops its
memo whenever it is mutated -- so each object needs to be encoded exactly
once.

**Where the memo lives.**  On the object: :class:`WireMemoised` gives
messages, certificates and authenticators one slot holding a
:class:`WireMemo` (the size, the digest once somebody asked for it, the
nodes already charged for it, and -- for a while -- the encoded bytes).  The
memo therefore lives exactly as long as the object and pins nothing: a
message the protocol has dropped is freed at once.  It never travels --
frames carry fields only, and a receiver takes its own digests: no
authenticator names one (:class:`~repro.crypto.certificate.Authenticator`).
What a receiver does get is the bytes: the decoder gives a message nested
in a frame (a certificate's payload, a reply in a bundle) a memo holding
the slice it was read from, which is its encoding, since the decoder
accepts only what the encoder writes (:mod:`repro.net.codec`).

**How long the bytes are kept.**  Bytes are what memory goes on, and they
are wanted for one thing only: to be spliced into a parent, which happens
within milliseconds of the first encoding, while the object itself may sit
in a log or a retransmission cache until the next checkpoint.  So
``wire_size()`` keeps no bytes at all (the simulated network only ever sizes
the outermost message it carries, and its bytes would be a second copy of
everything nested in it), and :data:`WIRE_CACHE` lets the bytes of all but
the most recently encoded objects go (:meth:`WireCache.keep`).  Size,
digest and charges stay; whoever asks for old bytes again pays for one more
encoding.

**Composition.**  The codec splices a nested memoised object from its memo
when its bytes are there, and otherwise encodes it and memoises what it
wrote (:func:`remember`).  A request certificate is thus encoded
once, not once per enclosing ``RequestEnvelope`` / ``PrePrepare`` /
``OrderedBatch`` / frame / digest.  The simulated network sizes every
message it carries (the size drives its bandwidth model and is the census),
which leaves the nested payloads encoded for whoever digests them next.
The asyncio transport sizes nothing: sender and receiver both count the
frame's length.  A node there encodes the messages it makes, each once,
and splices them from then on; what it received it digests, checks and
sends on from the bytes it arrived in.  Frames cut from one message for
several receivers, alike but for a MAC entry, share the payload's memo,
so each encodes only its wrapper.

**What a digest covers.**  The object's bytes, save for one class: a reply
bundle digests as its bodiless view
(:meth:`WireMemoised.authenticated_form`, see
:class:`~repro.messages.reply.BatchReplyBody`).

**Charging.**  The memo carries the names of the nodes that have already
been *charged* virtual hashing time for this object, so the cost model stays
per-node honest: the first time a node digests a message it pays
``digest_ms(wire_size)``; later touches by the same node are free, while a
*different* node touching the same object still pays for its own first hash.

:data:`WIRE_CACHE` is the process-wide switch, the hit/miss counters and
the byte budget; it references memos, never messages.
``configure(enabled=False)`` restores the uncached behaviour (nothing is
stored, nothing received keeps its bytes, everything is encoded on demand)
-- the benchmark harness uses it to measure the before/after delta.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Deque, Optional, Set

from .encoding import canonical_encode


class WireMemo:
    """The memoised wire facts of one object."""

    __slots__ = ("size", "data", "digest", "_charged")

    def __init__(self, size: int) -> None:
        #: length of the object's encoding (the wire size, without the
        #: modelled body bytes)
        self.size = size
        #: the encoding itself, while :data:`WIRE_CACHE` keeps it
        self.data: Optional[bytes] = None
        #: SHA-256 of the authenticated form, once somebody asked for it
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
    """Base of objects whose encoding is memoised on themselves.

    The memo is a slot, not a field: the wire codec carries fields only
    (:mod:`repro.net.codec`), so it never travels.
    """

    __slots__ = ("_wire",)

    def authenticated_form(self) -> "WireMemoised":
        """What a digest of this object covers: the object itself, unless a
        class says otherwise."""
        return self


def remember(obj: WireMemoised, memo: Optional[WireMemo], data: bytes) -> None:
    """Memoise ``data``, just encoded, as ``obj``'s bytes (``memo`` is what
    ``obj`` held, if anything)."""
    if memo is None:
        memo = WireMemo(len(data))
        object.__setattr__(obj, "_wire", memo)
    WIRE_CACHE.keep(memo, data)


def wire_memo(obj: WireMemoised, need: str, count: bool = True) -> Optional[WireMemo]:
    """The memo of ``obj`` holding what the caller needs; None when disabled.

    ``need`` is ``"size"`` (``size`` only: what the simulated network asks
    of the outermost message it carries, whose bytes nobody wants and would
    be a second copy of everything nested in it), ``"bytes"`` (``data``
    too) or ``"digest"`` (``digest`` too).  Whatever is missing is made by
    encoding ``obj``, children spliced from their own memos.

    ``count`` feeds the hit/miss counters, which keep their old meaning:
    protocol code asking for a message's size or digest.
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
        data = canonical_encode(obj)
        if memo is None:
            memo = WireMemo(len(data))
            object.__setattr__(obj, "_wire", memo)
        if need != "size":
            cache.keep(memo, data)
    else:
        cache.hits += count
    if need == "digest":
        form = obj.authenticated_form()
        memo.digest = (hashlib.sha256(data).digest() if form is obj
                       else wire_digest(form))
    return memo


def wire_digest(obj: WireMemoised) -> bytes:
    """SHA-256 of ``obj``'s authenticated form, memoised."""
    memo = wire_memo(obj, "digest", count=False)
    if memo is not None:
        return memo.digest
    return hashlib.sha256(canonical_encode(obj.authenticated_form())).digest()
