"""Causal request tracing over virtual time.

A *trace* follows one client request end to end.  Its identity is derived
from the fields the protocol already carries everywhere -- the issuing
client's name and the client-local monotonically increasing request
timestamp -- so tracing adds nothing to any wire format: every hop that can
see a ``ClientRequest`` (or the certificate wrapping one) can reconstruct
the trace id with :func:`request_trace_id`.

Each hop records a point *span event* ``(trace_id, event, node, t_ms)``
where ``t_ms`` is the virtual clock reading at the hop.  The event
vocabulary (``submit``, ``admit``, ``order``, ``commit``, ``stage``,
``release``, ``execute``, ``vote_open``, ``vote_done``, ``collate``,
``reply``) is what the critical-path analyzer in
:mod:`repro.analysis.critical_path` folds into per-stage durations.  Most
events are recorded where the request is; ``collate`` is recorded by the
client, when the last touched shard's fragments of a multi-shard operation
certify.

Recording is strictly append-only observation: no charges, no timers, no
RNG, no wall clock, so identical seeds produce byte-identical traces and a
traced run's virtual-time results match an untraced one exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, NamedTuple, Union


class TraceEvent(NamedTuple):
    """One hop of one request: where it was and when (virtual ms)."""

    trace_id: str
    event: str
    node: str
    t_ms: float


def request_trace_id(client: object, timestamp: int) -> str:
    """Trace id of the request ``(client, timestamp)`` -- the pair the
    protocol already uses to deduplicate and route replies."""
    name = getattr(client, "name", None)
    return f"{name if name is not None else client}:{timestamp}"


class Tracer:
    """Bounded append-only buffer of :class:`TraceEvent` records."""

    def __init__(self, enabled: bool = False, capacity: int = 1_000_000) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.dropped = 0
        self._events: List[TraceEvent] = []

    def record(self, trace_id: str, event: str, node: str, t_ms: float) -> None:
        if not self.enabled:
            return
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return
        self._events.append(TraceEvent(trace_id, event, node, t_ms))

    def events(self) -> List[TraceEvent]:
        """The recorded events, in recording order."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def export_jsonl(self, path: Union[str, Path]) -> int:
        """Write one JSON object per event; returns the number written."""
        return write_trace_jsonl(self._events, path)


def write_trace_jsonl(events: Iterable[TraceEvent], path: Union[str, Path]) -> int:
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps({
                "trace_id": event.trace_id,
                "event": event.event,
                "node": event.node,
                "t_ms": event.t_ms,
            }, sort_keys=True) + "\n")
            written += 1
    return written


def read_trace_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            events.append(TraceEvent(record["trace_id"], record["event"],
                                     record["node"], record["t_ms"]))
    return events
