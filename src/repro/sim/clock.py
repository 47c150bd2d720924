"""Virtual clock for the discrete-event simulator.

Time is measured in virtual milliseconds as a float.  Only the scheduler is
allowed to advance the clock; protocol code reads it as ``now``, a plain
attribute, because it is read on every handler and by most of them.
"""

from __future__ import annotations

from ..errors import SimulationError


class VirtualClock:
    """Monotonically non-decreasing virtual clock."""

    def __init__(self, start: float = 0.0) -> None:
        if not start >= 0:
            raise SimulationError("virtual time cannot start before zero")
        #: current virtual time in milliseconds (advanced by advance_to only)
        self.now = float(start)

    def advance_to(self, when: float) -> None:
        """Advance the clock to ``when``.

        Raises :class:`SimulationError` if ``when`` is in the past; the
        event queue guarantees events are popped in timestamp order, so a
        violation here indicates a kernel bug rather than a protocol bug.
        """
        if when < self.now - 1e-9:
            raise SimulationError(
                f"cannot move the clock backwards from {self.now} to {when}"
            )
        if when > self.now:
            self.now = when

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"VirtualClock(now={self.now:.3f}ms)"
