"""The deterministic state machine contract.

Section 2 of the paper requires replicated applications to behave as
deterministic state machines with ``checkpoint`` and ``restore`` operations:
given the same state and the same input, every correct replica transitions to
the same next state and produces the same reply, and a state produced by
``checkpoint`` on one correct replica can be ``restore``d on another.

Applications in :mod:`repro.apps` implement :class:`StateMachine`.
Nondeterministic applications (like NFS timestamps and file handles) wrap a
deterministic core with the :class:`~repro.statemachine.nondet.AbstractionLayer`,
which maps the oblivious nondeterminism inputs chosen by the agreement cluster
into the application-specific values it needs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .nondet import NonDetInput


@dataclass(frozen=True)
class Operation:
    """A client-visible operation submitted to the replicated service.

    ``kind`` names the operation (e.g. ``"read"``, ``"write"``, ``"null"``),
    ``args`` carries its arguments, and ``body_size``/``reply_size`` let
    benchmark applications model payload sizes without shipping real bytes.
    """

    kind: str
    args: Dict[str, Any] = field(default_factory=dict)
    body_size: int = 0
    reply_size: int = 0


@dataclass(frozen=True)
class OperationResult:
    """The reply produced by executing an :class:`Operation`.

    ``value`` is the application-level result; ``size`` models the reply body
    size on the wire; ``processing_ms`` is the application compute time the
    executing node must charge to its virtual clock.
    """

    value: Any
    size: int = 0
    processing_ms: float = 0.0
    error: Optional[str] = None


class StateMachine(ABC):
    """Deterministic application state machine."""

    @abstractmethod
    def execute(self, operation: Operation, nondet: NonDetInput) -> OperationResult:
        """Apply ``operation`` and return its result.

        ``nondet`` carries the nondeterminism inputs chosen by the agreement
        cluster (a timestamp and pseudo-random bits); deterministic
        applications simply ignore it.  Implementations must be deterministic
        functions of (current state, operation, nondet).
        """

    @abstractmethod
    def checkpoint(self) -> bytes:
        """Serialize the current state into a byte string."""

    @abstractmethod
    def restore(self, data: bytes) -> None:
        """Replace the current state with one produced by :meth:`checkpoint`."""

    def state_digest(self) -> bytes:
        """Digest of the current state (used in checkpoint certificates)."""
        from ..crypto.digest import digest

        return digest(self.checkpoint())

    def reset(self) -> None:
        """Return the machine to its initial state.  Subclasses may override."""
        raise NotImplementedError(f"{type(self).__name__} does not support reset()")

    # ------------------------------------------------------------------ #
    # Partial-state handoff (dynamic shard rebalancing).
    # ------------------------------------------------------------------ #

    def extract_range(self, lo: Optional[str], hi: Optional[str]) -> bytes:
        """Remove and serialize the state of keys in ``[lo, hi)``.

        Used by ``repro.sharding`` when a rebalancing epoch cut moves a key
        range to another execution cluster: the losing replicas extract the
        range (deterministically, at the cut point in their local order) and
        hand the bytes off.  ``None`` bounds are the open ends of the key
        space.  Applications that do not partition by key may leave the
        default, which rejects rebalancing rather than corrupting state.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support range extraction"
        )

    def install_range(self, lo: Optional[str], hi: Optional[str],
                      data: bytes) -> None:
        """Replace the state of keys in ``[lo, hi)`` with ``data``.

        The inverse of :meth:`extract_range`: existing keys in the range are
        dropped first, so installing is idempotent and a stale local copy of
        a range that left and returned can never shadow the handed-off
        truth.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support range installation"
        )

    # ------------------------------------------------------------------ #
    # Multi-key sub-operations (cross-shard operations at a consistent cut).
    # ------------------------------------------------------------------ #

    def snapshot_read(self, keys) -> Dict[str, Any]:
        """Read the current values of ``keys`` without mutating state.

        Used by ``repro.sharding`` when a cross-shard operation executes at
        its marker slot: each touched execution cluster reads the keys it
        owns against the deterministic frontier state at the cut, so the
        union of the per-shard fragments is a consistent snapshot of the
        agreed global prefix.  Must be side-effect free -- the same marker
        may be re-read when a duplicate resend is served.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshot reads"
        )

    def apply_writes(self, writes: Dict[str, Any]) -> None:
        """Apply ``writes`` (key -> value) atomically to local state.

        The commit half of a cross-shard write transaction: every touched
        cluster calls it with its owned subset only after the deterministic
        commit decision, so either every shard applies its slice or none
        does.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support transactional writes"
        )
