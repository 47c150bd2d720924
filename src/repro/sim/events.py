"""Event queue for the discrete-event simulator.

Events are ordered by (time, sequence) so that events scheduled for the same
virtual instant fire in the order they were scheduled, which keeps the
simulation deterministic for a given seed.

Cancellation uses the standard lazy-deletion trick (cancelled events stay in
the heap and are skipped when popped), but the queue additionally maintains
an O(1) live-event counter and *compacts* the heap whenever cancelled
entries outnumber live ones: long-running simulations cancel one
retransmission timer per answered batch, and without compaction those dead
entries would accumulate and slow every push/pop by a growing log factor.
Compaction preserves the (time, sequence) order keys, so rebuilding the heap
never changes the firing order.

The heap holds ``(time, sequence, event)`` tuples: sequences are unique, so a
comparison is decided by the first two members, in C, and never reaches the
event.  An event carries its callback's arguments, so the simulator's own
events -- a delivery is ``target.deliver(sender, message, size)`` -- cost
the event and its heap entry, with no closure around the call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

#: heaps smaller than this are never compacted (the rebuild would cost more
#: than the dead entries ever could)
_COMPACTION_MIN_SIZE = 64


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled call ``callback(*args)`` (a handle: two events are equal
    when identical).

    ``cancelled`` events stay in the heap but are skipped when popped; the
    owning queue is notified so its live-event counter stays exact and it
    can decide to compact.
    """

    time: float
    sequence: int
    callback: Callable[..., None]
    args: tuple = ()
    label: str = ""
    #: the queue currently holding this event (None once popped)
    queue: Optional["EventQueue"] = field(default=None, repr=False)
    cancelled: bool = False
    #: set by the scheduler when the callback runs (used by Timer.active)
    fired: bool = False

    def cancel(self) -> None:
        """Mark the event so the scheduler will skip it."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancelled()


class EventQueue:
    """Priority queue of :class:`Event` objects keyed by virtual time."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled_in_heap = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events -- O(1)."""
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def push(self, time: float, callback: Callable[..., None], label: str = "",
             args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at virtual ``time`` and return the
        event handle."""
        if not time >= 0:   # also refuses NaN, which would break the heap
            raise SimulationError(f"cannot schedule an event at {time}")
        sequence = next(self._counter)
        event = Event(time, sequence, callback, args, label, self)
        heappush(self._heap, (time, sequence, event))
        self._live += 1
        return event

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or None if the queue is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            event.queue = None
            if not event.cancelled:
                self._live -= 1
                return event
            self._cancelled_in_heap -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event without removing it."""
        while self._heap and self._heap[0][2].cancelled:
            heappop(self._heap)[2].queue = None
            self._cancelled_in_heap -= 1
        if not self._heap:
            return None
        return self._heap[0][0]

    # ------------------------------------------------------------------ #
    # Lazy-deletion accounting.
    # ------------------------------------------------------------------ #

    @property
    def heap_size(self) -> int:
        """Total heap entries including lazily-cancelled ones (for tests)."""
        return len(self._heap)

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the event is still heaped."""
        self._live -= 1
        self._cancelled_in_heap += 1
        if (len(self._heap) >= _COMPACTION_MIN_SIZE
                and self._cancelled_in_heap * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries."""
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2].queue = None
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        self._cancelled_in_heap = 0
