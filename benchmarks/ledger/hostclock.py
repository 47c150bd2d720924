"""A wall clock rescaled by the measured speed of the host.

The build host runs at two speeds: the same pure-Python loop takes 4.0 ms
when the machine is undisturbed and 5.2 to 9 ms, for seconds to tens of
seconds at a time, when a neighbour is busy; CPU time follows wall time, so
it is the processor that is slower, not the process that is waiting.  Whole
runs land in one mode or the other, so no choice of blocks within a run
(fastest quarter, low percentile, minimum) repeats to better than 10-20%.

:class:`HostClock` therefore times a fixed, stdlib-only piece of work
(:func:`reference_work`) every few milliseconds of the measurement, and
counts the wall time between two samples as ``REFERENCE_S`` divided by their
mean duration of itself.  A duration read from this clock is the time the
same work would have taken on a host that always runs the reference work in
``REFERENCE_S`` -- this host when it is undisturbed.  The reference work is
never counted as elapsed time.
"""

from __future__ import annotations

import hashlib
import pickle
import time

#: duration of :func:`reference_work` on the host all wall-clock numbers are
#: reported for (the build host, undisturbed)
REFERENCE_S = 0.00045
#: wall time between two speed samples: about 4% of the run is sampling
SAMPLE_GAP_S = 0.012

_TABLE = {f"k{i:03d}": ("v" * 32, i, float(i), (i, str(i))) for i in range(64)}
_PAGE = b"x" * 4096


def reference_work() -> None:
    """What the program's layers do, from the standard library alone: a
    pickle round trip, sorting, hashing pages, rebuilding a dict, and
    length-prefixed encoding into a bytearray."""
    for _ in range(3):
        table = pickle.loads(pickle.dumps(_TABLE, pickle.HIGHEST_PROTOCOL))
        sorted(table.items(), key=lambda item: item[1][1] * 7 % 13)
        for _ in range(8):
            hashlib.sha256(_PAGE).digest()
        {key: (value[0] + "y", value[1] + 1) for key, value in table.items()}
        out = bytearray()
        for number in range(200):
            encoded = str(number).encode("ascii")
            out += len(encoded).to_bytes(4, "big")
            out += encoded


class HostClock:
    """Seconds of measurement so far, raw and rescaled to reference speed."""

    def __init__(self) -> None:
        #: wall seconds outside the reference work
        self.raw = 0.0
        #: the same seconds at reference speed
        self.scaled = 0.0
        #: reference-speed seconds per wall second, one per closed gap
        self.factors: list = []
        self._last_end, self._last_cost = self._sample()[1:]

    @staticmethod
    def _sample():
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        return start, end, end - start

    def due(self) -> bool:
        return time.perf_counter() - self._last_end >= SAMPLE_GAP_S

    def read(self) -> float:
        """Sample the host's speed now; returns ``scaled``."""
        start, end, cost = self._sample()
        gap = start - self._last_end
        factor = 2.0 * REFERENCE_S / (self._last_cost + cost)
        self.factors.append(factor)
        self.raw += gap
        self.scaled += gap * factor
        self._last_end, self._last_cost = end, cost
        return self.scaled
