"""Critical-path attribution: fold trace events into per-stage latencies.

The tracer (:mod:`repro.obs.trace`) records point events as a request hops
through the planes.  This module folds those points into the six canonical
stages of a committed request's life -- the quantities the ROADMAP's
scaling questions need answered per request, not per run:

========  =======================  ==========================================
stage     boundary events          what the time is spent on
========  =======================  ==========================================
admit     submit -> admit          client send + primary's request validation
batch     admit -> order           waiting in the batcher for a bundle slot
agree     order -> commit          pre-prepare/prepare/commit rounds
release   commit -> release        pipeline window + shard release frontier
execute   release -> execute       execution-replica queueing + application
reply     execute -> reply         reply certificate assembly + client vote
========  =======================  ==========================================

Three optional stages appear when the workload exercises them: ``vote``
(``vote_open -> vote_done``, the cross-shard read-set vote round),
``collate`` (``execute -> collate``, until the client certifies the last
touched shard's sub-reply fragments of a multi-shard operation), and
``coordinate`` (``coordinate_open -> coordinate_done``, the time a
cross-group marker spends holding a multi-log release frontier while the
cross-log cut certifies).

Events are folded per trace id with min-time semantics: when several nodes
record the same event for one request (every replica admits, commits, and
executes it), the earliest occurrence is taken -- the chain of earliest
occurrences is the fastest causal path that can have produced the reply,
i.e. the critical path.  Only traces that completed (carry a ``reply``
event) contribute, so in-flight requests at the end of a measurement window
do not skew the tails.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .metrics import percentile
from .reporting import format_table

#: the canonical stages, in causal order (always present in a breakdown)
STAGES: Tuple[str, ...] = ("admit", "batch", "agree", "release", "execute", "reply")

#: optional stages, only reported when their events occur
OPTIONAL_STAGES: Tuple[str, ...] = ("vote", "collate", "coordinate")

#: stage name -> (start event, end event)
STAGE_BOUNDARIES: Dict[str, Tuple[str, str]] = {
    "admit": ("submit", "admit"),
    "batch": ("admit", "order"),
    "agree": ("order", "commit"),
    "release": ("commit", "release"),
    "execute": ("release", "execute"),
    "reply": ("execute", "reply"),
    "vote": ("vote_open", "vote_done"),
    "collate": ("execute", "collate"),
    "coordinate": ("coordinate_open", "coordinate_done"),
}


def stage_durations(events: Iterable) -> Dict[str, List[float]]:
    """Per-stage duration samples (ms), one per completed trace per stage.

    ``events`` is any iterable of objects/tuples with ``trace_id``,
    ``event``, and ``t_ms`` fields (``repro.obs.TraceEvent`` or the dicts a
    JSONL trace deserialises to).
    """
    earliest: Dict[str, Dict[str, float]] = {}
    for record in events:
        if isinstance(record, dict):
            trace_id, name, t_ms = record["trace_id"], record["event"], record["t_ms"]
        else:
            trace_id, name, t_ms = record.trace_id, record.event, record.t_ms
        trace = earliest.setdefault(trace_id, {})
        previous = trace.get(name)
        if previous is None or t_ms < previous:
            trace[name] = t_ms

    durations: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    for trace in earliest.values():
        if "reply" not in trace:
            continue
        for stage in STAGES + OPTIONAL_STAGES:
            start_event, end_event = STAGE_BOUNDARIES[stage]
            start = trace.get(start_event)
            end = trace.get(end_event)
            if start is None or end is None:
                continue
            durations.setdefault(stage, []).append(max(0.0, end - start))
    return {stage: samples for stage, samples in durations.items()
            if samples or stage in STAGES}


def _summarise(samples: Sequence[float]) -> Dict[str, float]:
    if not samples:
        return {"samples": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0,
                "p999_ms": 0.0, "max_ms": 0.0}
    ordered = sorted(samples)
    return {
        "samples": len(ordered),
        "mean_ms": sum(ordered) / len(ordered),
        "p50_ms": percentile(ordered, 0.50),
        "p99_ms": percentile(ordered, 0.99),
        "p999_ms": percentile(ordered, 0.999),
        "max_ms": ordered[-1],
    }


def critical_path_breakdown(events: Iterable) -> Dict[str, object]:
    """The per-stage breakdown embedded in every ``BENCH_*.json``.

    Always contains all six canonical stages (empty stages report zeroes so
    schema consumers can rely on the fields existing), plus any optional
    stages the trace exercised, plus the dominant stage -- the one with the
    largest mean contribution to end-to-end latency.
    """
    durations = stage_durations(events)
    stages = {stage: _summarise(durations.get(stage, ())) for stage in STAGES}
    for stage in OPTIONAL_STAGES:
        if durations.get(stage):
            stages[stage] = _summarise(durations[stage])
    populated = {name: summary for name, summary in stages.items()
                 if summary["samples"] > 0}
    dominant = (max(populated, key=lambda name: populated[name]["mean_ms"])
                if populated else "")
    return {
        "traces": max((s["samples"] for s in stages.values()), default=0),
        "stages": stages,
        "dominant_stage": dominant,
        "dominant_mean_ms": populated.get(dominant, {}).get("mean_ms", 0.0),
    }


def format_critical_path_table(breakdown: Dict[str, object],
                               title: Optional[str] = None) -> str:
    """Render a breakdown through the shared fixed-width table formatter."""
    stages: Dict[str, Dict[str, float]] = breakdown["stages"]  # type: ignore[assignment]
    rows = []
    for stage in list(STAGES) + [s for s in stages if s not in STAGES]:
        summary = stages[stage]
        marker = " <- dominant" if stage == breakdown.get("dominant_stage") else ""
        rows.append([stage + marker, summary["samples"], summary["mean_ms"],
                     summary["p50_ms"], summary["p99_ms"], summary["p999_ms"],
                     summary["max_ms"]])
    return format_table(
        ["stage", "samples", "mean ms", "p50 ms", "p99 ms", "p999 ms", "max ms"],
        rows,
        title=title if title is not None else "critical-path breakdown "
        f"({breakdown.get('traces', 0)} completed traces)")
