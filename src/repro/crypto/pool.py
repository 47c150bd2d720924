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
   self-contained job ``(secret, data, token, burn_ms)`` -- the same HMAC
   comparison :class:`~repro.crypto.provider.CryptoProvider` would perform,
   plus the real-time cost the provider would have charged for it.
2. The jobs run in worker processes (:func:`verify_jobs`; workers are
   stateless -- each job carries its key material, so nothing but bytes
   crosses the process boundary).
3. Only the facts that verified **successfully** are recorded in the
   receiving node's :class:`~repro.crypto.cache.VerifiedCertificateCache`,
   under exactly the keys the provider uses.  The node's own in-handler
   verification then hits the cache and charges nothing.

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

from ..config import AuthenticationScheme, CryptoCosts, CryptoPoolConfig
from ..errors import CryptoError, UnknownKeyError
from ..net.message import Message
from ..util.ids import NodeId
from ..util.wirecache import wire_memo
from .certificate import Certificate
from .digest import digest, mac
from .keys import Keystore

#: one verification: HMAC(secret, data) must equal token; ``burn_ms`` is the
#: emulated real-time cost the worker burns before answering (0 burns nothing)
VerifyJob = Tuple[bytes, bytes, bytes, float]

#: the cache key the fact is recorded under on success (provider-compatible)
CacheKey = Tuple


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


def _payload_digest(payload: Any) -> bytes:
    """The digest a :class:`CryptoProvider` would compute for ``payload``.

    Uses the same per-message memo (protocol messages are immutable) and
    the same encoding, so the cache keys built from it are
    byte-identical to the ones the destination node will look up.
    Charges nothing: the node still pays its own digest cost inline.
    """
    memo = wire_memo(payload, "digest") if isinstance(payload, Message) else None
    if memo is not None:
        return memo.digest
    return digest(payload)


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
    if isinstance(obj, Message) or is_dataclass(obj):
        for f in fields(obj) if is_dataclass(obj) else []:
            yield from iter_certificates(getattr(obj, f.name, None), _depth + 1)
        if not is_dataclass(obj) and hasattr(obj, "__dict__"):
            for value in vars(obj).values():
                yield from iter_certificates(value, _depth + 1)
        return
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from iter_certificates(item, _depth + 1)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from iter_certificates(value, _depth + 1)


def extract_verify_jobs(node: NodeId, keystore: Keystore, costs: CryptoCosts,
                        message: Any, charge_scale: float = 0.0,
                        ) -> Tuple[List[VerifyJob], List[CacheKey]]:
    """Flatten every authenticator ``node`` could verify on ``message``.

    Returns parallel lists: ``jobs[i]`` proves (or refutes) the fact that
    would be cached under ``keys[i]``.  Authenticators the node cannot
    check -- MAC vectors with no entry for it, signers with no registered
    key, shares from non-members, tokens of the wrong type -- produce no
    job; the node's inline verification rejects those itself.  ``burn_ms`` is
    the provider's virtual charge for the operation scaled by
    ``charge_scale``, so the pool burns exactly the cost the node no
    longer pays inline.
    """
    jobs: List[VerifyJob] = []
    keys: List[CacheKey] = []
    seen_certs = set()
    for cert in iter_certificates(message):
        if id(cert) in seen_certs:
            continue
        seen_certs.add(id(cert))
        pd = _payload_digest(cert.payload)
        if cert.scheme is AuthenticationScheme.MAC:
            for auth in cert.authenticators.values():
                if not auth.covers(pd):
                    continue
                token = (auth.token.get(node.name)
                         if isinstance(auth.token, dict) else None)
                if not isinstance(token, bytes):
                    continue
                secret = keystore.pair_secret(auth.signer, node)
                jobs.append((secret, pd, token,
                             costs.mac_ms * charge_scale))
                keys.append(("mac", auth.signer, pd))
        elif cert.scheme is AuthenticationScheme.SIGNATURE:
            for auth in cert.authenticators.values():
                if not auth.covers(pd) or not isinstance(auth.token, bytes):
                    continue
                try:
                    key = keystore.private_key(auth.signer)
                except (CryptoError, UnknownKeyError):
                    continue
                jobs.append((key, b"sig:" + pd, auth.token,
                             costs.signature_verify_ms * charge_scale))
                keys.append(("sig", auth.signer, pd))
        elif cert.scheme is AuthenticationScheme.THRESHOLD:
            if cert.threshold_group is None or not keystore.has_threshold_group(
                    cert.threshold_group):
                continue
            group = keystore.threshold_group(cert.threshold_group)
            for auth in cert.authenticators.values():
                if (not auth.covers(pd) or auth.signer not in group.members
                        or not isinstance(auth.token, bytes)):
                    continue
                jobs.append((group.share_key(auth.signer), b"share:" + pd,
                             auth.token, costs.mac_ms * charge_scale))
                keys.append(("share", cert.threshold_group, auth.signer, pd))
            sig = cert.threshold_signature
            if isinstance(sig, bytes):
                jobs.append((group.group_key, b"combined:" + pd, sig,
                             costs.threshold_verify_ms * charge_scale))
                keys.append(("tsig", cert.threshold_group, pd, sig))
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
