"""The discrete-event scheduler.

The scheduler is the virtual clock and owns the event queue; it is the only
component allowed to advance time.  Protocol code interacts with it through
:meth:`Scheduler.call_at` / :meth:`Scheduler.call_after` (one-shot callbacks)
and the :class:`Timer` handles they return.

Runtime-backend contract
------------------------
This class is the reference implementation of the scheduler half of the
:class:`~repro.runtime.interface.Runtime` seam.  Any replacement clock
(e.g. the wall-clock scheduler in :mod:`repro.runtime.asyncio_rt`) must
preserve the surface protocol code actually uses, with these semantics:

* **Timer semantics.**  ``call_at`` / ``call_after`` schedule one-shot
  callbacks and return handles exposing ``deadline``, ``active`` (true
  until fired or cancelled -- event state, never a clock comparison), and
  ``cancel()`` (idempotent, no-op after firing).  ``call_after`` rejects
  negative delays.  Two timers for the same instant fire in creation
  order under the simulator; real backends may not guarantee this and
  protocol code must not rely on it.
* **Monotonic time.**  ``now`` (milliseconds) never decreases, and only
  the scheduler advances it.  Under the simulator time jumps between
  events and is exact; real backends derive it from a monotonic clock.
* **Determinism contract.**  ``random`` is the *only* entropy source
  protocol code may touch; it is seeded once and forked by label, so a
  given seed yields a bit-identical run under the simulator.  Real
  backends keep the same RNG (protocol-level draws stay reproducible)
  but lose run-level determinism to socket and OS-thread timing.
* **Progress accounting.**  ``events_processed`` increases monotonically
  with each dispatched event; protocol code uses it only for memoisation
  stamps ("did anything happen since I last looked"), never as a clock.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import LivenessTimeoutError, SimulationError
from ..obs import DISABLED_HUB, ObservabilityHub
from .clock import VirtualClock
from .events import Event, EventQueue
from .rand import DeterministicRandom


class Timer:
    """Handle to a scheduled callback, supporting cancellation and queries."""

    __slots__ = ("_event",)

    def __init__(self, event: Event) -> None:
        self._event = event

    @property
    def deadline(self) -> float:
        """Virtual time at which the callback fires."""
        return self._event.time

    @property
    def active(self) -> bool:
        """True while the callback has neither fired nor been cancelled.

        This is pure event state: a timer scheduled for the *current*
        instant is still active until the scheduler actually runs it
        (inferring liveness from a time comparison misreported exactly that
        case when floating-point noise pushed ``now`` past the deadline).
        """
        return not self._event.cancelled and not self._event.fired

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        self._event.cancel()


class Scheduler(VirtualClock):
    """Discrete-event scheduler with a virtual clock and deterministic RNG.

    The scheduler is its own clock: ``now`` is an attribute of the object
    every process holds, one hop away.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.queue = EventQueue()
        self.random = DeterministicRandom(seed)
        #: observability hub processes pick their registries/tracer up from;
        #: the system builder replaces this before constructing any process.
        #: The hub only ever *observes* (no charges, events, or RNG draws),
        #: so swapping it cannot change the simulation's virtual-time results.
        self.obs: ObservabilityHub = DISABLED_HUB
        #: total number of events executed so far
        self.events_processed = 0
        #: the event most recently taken up: while its callback runs, the
        #: running one (what the caller of `run` reads when a handler raised)
        self.last_event: Optional[Event] = None

    # ------------------------------------------------------------------ #
    # Time and scheduling primitives.
    # ------------------------------------------------------------------ #

    def call_at(self, when: float, callback: Callable[[], None], label: str = "") -> Timer:
        """Schedule ``callback`` at absolute virtual time ``when``."""
        return Timer(self.post(when, label, callback))

    def call_after(self, delay: float, callback: Callable[[], None], label: str = "") -> Timer:
        """Schedule ``callback`` after ``delay`` virtual milliseconds."""
        if not delay >= 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.call_at(self.now + delay, callback, label)

    def post(self, when: float, label: str, callback: Callable[..., None],
             *args) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``.

        The simulator's own events -- a delivery, the end of a node's busy
        period -- are posted directly: nobody cancels them, so they get no
        :class:`Timer`.
        """
        now = self.now
        if not when >= now - 1e-9:   # NaN too: it would break the heap
            raise SimulationError(f"cannot schedule an event at {when} (now is {now})")
        return self.queue.push(when if when > now else now, callback, label, args)

    # ------------------------------------------------------------------ #
    # Running the simulation.
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        if event.time > self.now:   # advance_to, inline: once per event
            self.now = event.time
        else:
            self.advance_to(event.time)
        event.fired = True
        self.events_processed += 1
        self.last_event = event
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` events have been processed.  Returns the final time."""
        processed = 0
        while True:
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.advance_to(until)
                break
            if max_events is not None and processed >= max_events:
                break
            self.step()
            processed += 1
        if until is not None and self.now < until and self.queue.peek_time() is None:
            self.advance_to(until)
        return self.now

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  description: str = "condition") -> float:
        """Run until ``predicate()`` becomes true.

        Raises :class:`LivenessTimeoutError` if the predicate is still false
        when virtual time reaches ``now + timeout`` or the event queue drains.
        """
        deadline = self.now + timeout
        if predicate():
            return self.now
        while True:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > deadline:
                break
            self.step()
            if predicate():
                return self.now
        raise LivenessTimeoutError(
            f"{description} did not hold within {timeout}ms of virtual time "
            f"(now={self.now:.3f}ms, pending events={len(self.queue)})"
        )
