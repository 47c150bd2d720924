"""A dict keyed by sequence number that is trimmed from below by popping.

Protocol nodes keep state per sequence number for a sliding window -- the
batches an execution replica may be asked to resend, its recent reply
bundles, the partial reply certificates a message queue is assembling -- and
drop what has fallen below a horizon that moves with nearly every batch.
Rebuilding the dict with a comprehension walks the whole window to remove
the one entry that left it; :class:`SeqTable` keeps a min-heap of the
sequence numbers beside the dict and pops exactly the entries at or below
the horizon, in whatever order they were inserted (a Byzantine replica names
any sequence number it likes, and retransmissions arrive late).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Hashable, List, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class SeqTable(Dict[K, V]):
    """``dict`` plus :meth:`trim`.

    ``seq_of(key)`` is the sequence number of a key (default: the key is
    the number).  Insert with ``table[key] = value`` only: the other ways of
    filling a dict bypass the heap.  Entries may be removed by any means; a
    heap entry whose key is gone is dropped when the horizon reaches it.
    """

    def __init__(self, seq_of: Optional[Callable[[K], int]] = None) -> None:
        super().__init__()
        self._seq_of = seq_of
        self._heap: List[Tuple[int, K]] = []

    def __setitem__(self, key: K, value: V) -> None:
        if key not in self:
            seq = key if self._seq_of is None else self._seq_of(key)
            heappush(self._heap, (seq, key))
        super().__setitem__(key, value)

    def trim(self, horizon: int) -> None:
        """Remove every entry whose sequence number is ``<= horizon``."""
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            self.pop(heappop(heap)[1], None)
