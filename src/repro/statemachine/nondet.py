"""Oblivious nondeterminism resolution (Section 3.1.4 of the paper).

Many services need nondeterministic values while executing a request -- NFS
replicas pick last-access timestamps and fresh file handles, for instance.
If each execution replica chose these values independently their states would
diverge.  Traditional BFT systems let the primary pick the values; the
separated architecture goes further and requires the *agreement* cluster to
pick them **obliviously**: without looking at the request body or application
state, so that a compromised agreement node learns nothing confidential and a
compromised execution node cannot influence the choice to create a covert
channel.

The agreement cluster includes a :class:`NonDetInput` (a timestamp and a block
of pseudo-random bits proposed by the primary and sanity-checked by the other
agreement replicas) in every agreement certificate.  The
:class:`AbstractionLayer` on each execution node then maps those inputs
deterministically to whatever application-specific values the service needs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from ..errors import ProtocolError


@dataclass(frozen=True)
class NonDetInput:
    """Nondeterminism inputs chosen by the agreement cluster for one batch.

    ``timestamp_ms`` is the primary's wall-clock proposal (virtual time in the
    simulation) and ``random_bits`` is a block of pseudo-random bytes.  Both
    are chosen without access to request bodies or application state.
    """

    timestamp_ms: float
    random_bits: bytes

    @staticmethod
    def empty() -> "NonDetInput":
        """Neutral input used by deterministic applications and unit tests."""
        return NonDetInput(timestamp_ms=0.0, random_bits=b"\x00" * 16)


class NonDeterminismResolver:
    """Primary-side proposal and backup-side sanity check of nondet inputs."""

    def __init__(self, max_clock_skew_ms: float = 10_000.0,
                 random_bits_len: int = 16) -> None:
        self.max_clock_skew_ms = max_clock_skew_ms
        self.random_bits_len = random_bits_len
        self._last_timestamp = -float("inf")

    def propose(self, now_ms: float, seed: bytes) -> NonDetInput:
        """Primary: propose inputs for the next batch.

        Timestamps are forced to be monotonically non-decreasing and the
        random bits are derived deterministically from ``seed`` so that a
        recovering primary reproduces the same proposal.
        """
        timestamp = max(now_ms, self._last_timestamp)
        self._last_timestamp = timestamp
        random_bits = hashlib.sha256(b"nondet:" + seed).digest()[: self.random_bits_len]
        return NonDetInput(timestamp_ms=timestamp, random_bits=random_bits)

    def sanity_check(self, proposal: NonDetInput, now_ms: float) -> bool:
        """Backup: accept the primary's proposal only if it is reasonable.

        A proposal is reasonable when its timestamp is within the configured
        skew of the backup's own clock and not older than a previously
        accepted proposal, and its random block has the right length.
        """
        if len(proposal.random_bits) != self.random_bits_len:
            return False
        if proposal.timestamp_ms > now_ms + self.max_clock_skew_ms:
            return False
        if proposal.timestamp_ms < self._last_timestamp - self.max_clock_skew_ms:
            return False
        return True

    def accept(self, proposal: NonDetInput) -> None:
        """Record an accepted proposal so later checks enforce monotonicity."""
        self._last_timestamp = max(self._last_timestamp, proposal.timestamp_ms)


class AbstractionLayer:
    """Execution-side deterministic mapping from nondet inputs to app values.

    The layer exposes the derivations the paper's NFS abstraction layer needs:
    per-request timestamps and fresh identifiers (file handles).  All outputs
    are deterministic functions of the agreed :class:`NonDetInput` plus a
    derivation label, so every correct execution replica derives identical
    values.
    """

    def __init__(self, nondet: Optional[NonDetInput] = None) -> None:
        self._nondet = nondet

    def bind(self, nondet: NonDetInput) -> None:
        """Install the nondeterminism inputs for the batch being executed."""
        self._nondet = nondet

    def _require(self) -> NonDetInput:
        if self._nondet is None:
            raise ProtocolError("abstraction layer used before nondet inputs were bound")
        return self._nondet

    def timestamp(self) -> float:
        """The agreed wall-clock timestamp for this batch."""
        return self._require().timestamp_ms

    def derive_bytes(self, label: str, length: int = 16) -> bytes:
        """Deterministic pseudo-random bytes for ``label``."""
        nondet = self._require()
        material = hashlib.sha256(
            b"derive:" + nondet.random_bits + label.encode("utf-8")
        ).digest()
        while len(material) < length:
            material += hashlib.sha256(material).digest()
        return material[:length]

    def derive_handle(self, label: str) -> str:
        """Deterministic opaque identifier (e.g. an NFS file handle)."""
        return self.derive_bytes(label, 12).hex()

    def derive_int(self, label: str, modulus: int) -> int:
        """Deterministic integer in ``[0, modulus)`` for ``label``."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        return int.from_bytes(self.derive_bytes(label, 8), "big") % modulus
