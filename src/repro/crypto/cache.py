"""Per-node memoisation of successful verifications.

The separated architecture verifies the same authenticators repeatedly: an
agreement node re-checks a reply collector's accumulated authenticators on
every arriving partial, retransmitted request certificates carry bit-identical
MAC vectors, and gap-fetch / retransmission paths re-validate batches whose
certificates were already accepted.  The
:class:`VerifiedCertificateCache` removes that repeated work *per node*:
each :class:`~repro.crypto.provider.CryptoProvider` owns one cache, so no
node ever benefits from another node's verification (a node can only trust
hashes it computed and MACs it checked itself).

**Safety argument.**  Only *successes* are memoised, keyed by the full
SHA-256 payload digest plus the verification parameters:

* a per-authenticator fact (a :data:`~repro.crypto.provider.FactKey`:
  tag, group, signer, payload digest) records "``signer`` vouches for
  ``payload_digest``".  Once one valid authenticator established it, it is
  true forever, so a later authenticator making the same claim is accepted
  without re-checking its token.  An adversary cannot use the cache to make
  a *new* statement: a forged authenticator for a claim never legitimately
  verified misses the cache and fails exactly as it would without it.  A
  group signature's fact holds the signature bytes in the signer's place,
  so a forged one can never hit.
* a per-certificate fact ``("cert", payload_digest, scheme, signers,
  required, universe)`` records "at least ``required`` of ``signers``
  (restricted to ``universe``) vouch for ``payload_digest``".

Node ids and sets of them are the part of a fact that is the same for the
whole deployment, while the id *objects* a verification sees are private to
the message they arrived in (on the asyncio backend a frame's ids are the
codec's interned ones only up to its cap, and every set is built afresh).
A stored fact therefore refers to the cache's one copy of each id and set
(:meth:`VerifiedCertificateCache.add`), not to the message's: a full cache
holds a dozen ids, not four thousand.

Failures are **never cached** -- neither negatively (which would let a
Byzantine sender poison the cache and suppress a later legitimate
certificate for the same statement) nor as a success.  Byzantine and
correct senders therefore see identical cache behaviour.

Virtual-time crypto costs are charged only on misses, which is what makes
the Figure-4 style cost-model benchmarks show the saving; hits are recorded
under a separate ``*_cached`` operation counter so benchmarks and tests can
account for them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Hashable, Tuple

from ..util.ids import NodeId

#: a memoised verification fact (see module docstring for the key shapes)
CacheKey = Tuple[Hashable, ...]


class VerifiedCertificateCache:
    """Bounded LRU set of verification facts proven by one node."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._facts: "OrderedDict[CacheKey, None]" = OrderedDict()
        #: the one copy of each node id and node set that stored facts hold
        self._shared: Dict[Hashable, Hashable] = {}

    def __len__(self) -> int:
        return len(self._facts)

    def seen(self, key: CacheKey) -> bool:
        """Whether ``key`` is a previously proven fact (counts hit/miss)."""
        if key in self._facts:
            self._facts.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def add(self, key: CacheKey) -> None:
        """Record a *successful* verification (failures must never be added).

        Only stored facts reach the table of shared ids and sets, so a failed
        verification leaves no trace there either; it is bounded as the facts
        are, by starting over (facts keep what they already hold).
        """
        shared = self._shared
        if len(shared) >= self.capacity:
            shared.clear()
        key = tuple([shared.setdefault(part, part)
                     if type(part) is NodeId or type(part) is frozenset else part
                     for part in key])
        self._facts[key] = None
        self._facts.move_to_end(key)
        while len(self._facts) > self.capacity:
            self._facts.popitem(last=False)

    def clear(self) -> None:
        self._facts.clear()
        self._shared.clear()
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> dict:
        """Hit/miss/occupancy counters for the metrics registry's probes."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "entries": len(self._facts),
            "capacity": self.capacity,
        }
