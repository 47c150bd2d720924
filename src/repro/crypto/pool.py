"""Parallel certificate verification for the real runtime.

The simulator *models* cryptographic cost by charging virtual time; the
asyncio runtime (:mod:`repro.runtime.asyncio_rt`) makes that cost real by
burning CPU, which immediately makes verification the wall-clock bottleneck:
every authenticator on every inbound message is checked inside the single
event-loop thread.  This module moves that work onto a
``concurrent.futures.ProcessPoolExecutor`` sized to the host
(:class:`repro.config.CryptoPoolConfig`) without changing what the protocol
layer observes:

1. Before an inbound message is dispatched, :func:`extract_verify_jobs`
   walks it for :class:`~repro.crypto.certificate.Certificate` objects and
   flattens every authenticator the *receiving* node could check into a
   self-contained job ``(secret, data, token, burn_ms)`` -- built from the
   provider's own :class:`~repro.crypto.provider.Fact`, so it is the very
   HMAC comparison :class:`~repro.crypto.provider.CryptoProvider` would
   perform, plus the real-time cost the provider would have charged for it.
2. The jobs run in worker processes (:func:`verify_jobs`; workers are
   stateless -- each job carries its key material, so nothing but bytes
   crosses the process boundary).
3. Only the facts that verified **successfully** are recorded in the
   receiving node's :class:`~repro.crypto.cache.VerifiedCertificateCache`,
   under exactly the keys the provider uses -- by construction: the key,
   key material, domain-separated data and cost of each fact are written
   once, in :mod:`repro.crypto.provider`, and both sides read them from
   there, so the pool cannot warm a key the provider never looks up.  The
   node's own in-handler verification then hits the cache and charges
   nothing.

This preserves the cache's safety argument unchanged: failures are never
cached (a forged authenticator is re-checked -- and rejected -- inline by
the destination node), caches stay per-node, and a warmed fact is precisely
a verification that node has already paid for, merely paid on another core.

When the pool is disabled the runtime calls :func:`verify_jobs` in-process:
fallback-to-inline is the same code path minus the executor.
"""

from __future__ import annotations

import hmac
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..config import CryptoCosts, CryptoPoolConfig
from ..errors import CryptoError
from ..net.message import Message
from ..util.ids import NodeId
from ..util.wirecache import wire_memo
from .certificate import Certificate
from .digest import digest, mac
from .keys import Keystore
from .provider import FactKey, certificate_facts

#: one verification: HMAC(secret, data) must equal token; ``burn_ms`` is the
#: emulated real-time cost the worker burns before answering (0 burns nothing)
VerifyJob = Tuple[bytes, bytes, bytes, float]


def spin(milliseconds: float) -> None:
    """Burn ``milliseconds`` of real CPU (the runtime's cost emulation).

    A busy-wait on the monotonic clock rather than ``time.sleep`` because a
    sleeping worker would overlap with every other worker for free; the
    point of the emulation is to model operations that *occupy* a core.
    """
    if milliseconds <= 0:
        return
    import time

    deadline = time.perf_counter() + milliseconds / 1000.0
    while time.perf_counter() < deadline:
        pass


def verify_jobs(jobs: Sequence[VerifyJob]) -> List[bool]:
    """Run a batch of verification jobs; the pool's worker entry point.

    Also the inline fallback: a disabled pool calls this directly in the
    event-loop process, so enabling the pool changes *where* the HMACs are
    computed but never *what* is computed.
    """
    results: List[bool] = []
    for secret, data, token, burn_ms in jobs:
        spin(burn_ms)
        results.append(hmac.compare_digest(mac(secret, data), token))
    return results


def iter_certificates(obj: Any, _depth: int = 0) -> Iterator[Certificate]:
    """Yield every :class:`Certificate` reachable from a message object.

    Walks dataclass fields, sequences, and mappings (certificates nest:
    an ordered batch carries request certificates inside its payload).
    Depth-bounded as a defence against adversarially self-referential
    payloads -- anything deeper than real protocol messages is skipped,
    and skipped certificates are simply verified inline by the node.
    """
    if _depth > 8:
        return
    if isinstance(obj, Certificate):
        yield obj
        yield from iter_certificates(obj.payload, _depth + 1)
        return
    if is_dataclass(obj):  # every wire message is one
        for f in fields(obj):
            yield from iter_certificates(getattr(obj, f.name, None), _depth + 1)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from iter_certificates(item, _depth + 1)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from iter_certificates(value, _depth + 1)


def extract_verify_jobs(node: NodeId, keystore: Keystore, costs: CryptoCosts,
                        message: Any, charge_scale: float = 0.0,
                        ) -> Tuple[List[VerifyJob], List[FactKey]]:
    """Flatten every authenticator ``node`` could verify on ``message``.

    Returns parallel lists: ``jobs[i]`` proves (or refutes) the fact the
    provider caches under ``keys[i]``, both from its own
    :func:`~repro.crypto.provider.certificate_facts`.  What the node cannot
    check (no MAC entry for it, no key for the signer, group or member, a
    token of the wrong type) makes no job: the node rejects it inline.
    ``burn_ms`` is the provider's virtual charge for the check scaled by
    ``charge_scale``: exactly the cost the node no longer pays inline.
    """
    jobs: List[VerifyJob] = []
    keys: List[FactKey] = []
    seen_certs = set()
    for cert in iter_certificates(message):
        if id(cert) in seen_certs:
            continue
        seen_certs.add(id(cert))
        # The provider's digest, uncharged: the node still pays its own
        # digest cost inline.
        memo = (wire_memo(cert.payload, "digest")
                if isinstance(cert.payload, Message) else None)
        payload_digest = memo.digest if memo is not None else digest(cert.payload)
        for fact, key, token in certificate_facts(cert, payload_digest, node.name):
            try:
                secret = fact.material(keystore, node, key)
            except CryptoError:
                continue
            jobs.append((secret, fact.data(key), token,
                         getattr(costs, fact.cost) * charge_scale))
            keys.append(key)
    return jobs, keys


@dataclass
class CryptoPoolStats:
    """Counters for the pool's share of the verification work."""

    batches: int = 0
    jobs: int = 0
    verified: int = 0
    rejected: int = 0
    inline_batches: int = 0

    def snapshot(self) -> dict:
        return {"batches": self.batches, "jobs": self.jobs,
                "verified": self.verified, "rejected": self.rejected,
                "inline_batches": self.inline_batches}


class CryptoPool:
    """A host-sized process pool for batch authenticator verification.

    Lazy: the executor (and its worker processes) is created on first use,
    so building a config with a disabled pool costs nothing.  ``close()``
    shuts the workers down; the owning runtime calls it from its own
    ``close()``.
    """

    def __init__(self, config: Optional[CryptoPoolConfig] = None) -> None:
        self.config = config or CryptoPoolConfig()
        self.stats = CryptoPoolStats()
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def workers(self) -> int:
        return self.config.workers or os.cpu_count() or 1

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def run_inline(self, jobs: Sequence[VerifyJob]) -> List[bool]:
        """The fallback path: verify in the calling process."""
        self.stats.inline_batches += 1
        return self._count(verify_jobs(jobs))

    async def run(self, loop, jobs: Sequence[VerifyJob]) -> List[bool]:
        """Verify a batch, on the pool when it pays, inline otherwise."""
        if not self.enabled or not jobs:
            return self.run_inline(jobs)
        self.stats.batches += 1
        results = await loop.run_in_executor(self.executor(), verify_jobs,
                                             list(jobs))
        return self._count(results)

    def _count(self, results: List[bool]) -> List[bool]:
        self.stats.jobs += len(results)
        self.stats.verified += sum(1 for ok in results if ok)
        self.stats.rejected += sum(1 for ok in results if not ok)
        return results

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
