"""Violation shrinking: minimise a schedule while keeping it violating.

Given a schedule whose execution breached an oracle, iterate simplification
passes to a fixpoint, keeping each simplification only if the shrunk
schedule *still* violates:

1. **drop events** -- remove each gene in turn (ddmin-style, one at a time:
   schedules are short enough that linear passes beat splitting);
2. **narrow windows** -- halve each remaining event's ``duration_ms``;
3. **demote strategies** -- replace a Byzantine strategy with the next
   milder one (``lying_reply -> corrupt_reply -> silent``;
   ``forged_reply -> silent``;
   ``equivocating_primary -> censoring_primary -> slow_primary -> silent``)
   and zero link-fault knobs one at a time.

The deterministic simulator makes the predicate exact: a schedule either
reproduces the violation or it does not, with no flakiness, so the shrunk
reproducer replays bit-identically (the explorer certifies this by replaying
it twice and comparing digests).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Callable, List, Optional

from .schedule import FaultSchedule, ScheduleEvent

#: demotion ladder (mildest last); a strategy not on the ladder is left alone
_DEMOTIONS = {"lying_reply": "corrupt_reply", "corrupt_reply": "silent",
              "forged_reply": "silent",
              "equivocating_primary": "censoring_primary",
              "censoring_primary": "slow_primary",
              "slow_primary": "silent"}

#: hard cap on shrink executions, so a pathological schedule cannot wedge CI
MAX_SHRINK_RUNS = 200


@dataclass
class ShrinkResult:
    """The minimal violating schedule and the proof it still violates."""

    schedule: FaultSchedule
    result: object  # the RunResult of the final (still-violating) schedule
    runs: int


def _narrowed(event: ScheduleEvent) -> Optional[ScheduleEvent]:
    if event.duration_ms < 10.0:
        return None
    return dc_replace(event, duration_ms=round(event.duration_ms / 2.0, 1))


def _demoted(event: ScheduleEvent) -> List[ScheduleEvent]:
    candidates: List[ScheduleEvent] = []
    if event.kind == "byzantine" and event.strategy in _DEMOTIONS:
        candidates.append(dc_replace(event, strategy=_DEMOTIONS[event.strategy]))
    if event.kind == "link_fault":
        for knob in ("drop", "duplicate", "corrupt", "reorder"):
            if getattr(event, knob) > 0.0:
                candidates.append(dc_replace(event, **{knob: 0.0}))
        if event.delay_ms > 0.0:
            candidates.append(dc_replace(event, delay_ms=0.0))
    return candidates


def shrink(schedule: FaultSchedule,
           run: Callable[[FaultSchedule], object]) -> ShrinkResult:
    """Minimise ``schedule`` under the still-violates predicate.

    ``run`` executes a schedule and returns an object with a ``violations``
    list (a :class:`~repro.fuzz.harness.RunResult`).  The original schedule
    is executed once up front to anchor the predicate; if it does not
    violate (it must, if the caller got here through the explorer), it is
    returned unshrunk.
    """
    runs = 0

    def execute(candidate: FaultSchedule):
        nonlocal runs
        runs += 1
        return run(candidate)

    best_result = execute(schedule)
    if not best_result.violations:
        return ShrinkResult(schedule=schedule, result=best_result, runs=runs)
    best = schedule

    changed = True
    while changed and runs < MAX_SHRINK_RUNS:
        changed = False
        # Pass 1: drop each event.
        index = 0
        while index < len(best.events) and runs < MAX_SHRINK_RUNS:
            candidate = best.without_event(index)
            result = execute(candidate)
            if result.violations:
                best, best_result = candidate, result
                changed = True
                # Same index now names the next event.
            else:
                index += 1
        # Pass 2: narrow each remaining window.
        for index in range(len(best.events)):
            if runs >= MAX_SHRINK_RUNS:
                break
            narrowed = _narrowed(best.events[index])
            if narrowed is None:
                continue
            events = list(best.events)
            events[index] = narrowed
            candidate = best.with_events(events)
            result = execute(candidate)
            if result.violations:
                best, best_result = candidate, result
                changed = True
        # Pass 3: demote strategies / zero link knobs.
        for index in range(len(best.events)):
            if runs >= MAX_SHRINK_RUNS:
                break
            for demoted in _demoted(best.events[index]):
                events = list(best.events)
                events[index] = demoted
                candidate = best.with_events(events)
                result = execute(candidate)
                if result.violations:
                    best, best_result = candidate, result
                    changed = True
                    break
    return ShrinkResult(schedule=best, result=best_result, runs=runs)
