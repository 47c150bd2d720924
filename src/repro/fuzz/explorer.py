"""Coverage-guided exploration of the adversarial schedule space.

The explorer is a classic mutational fuzzing loop adapted to protocol
schedules: maintain a corpus of schedules that each contributed novel
protocol-state coverage (trace-edge / counter-bucket tokens from
:func:`repro.fuzz.harness.compute_fingerprint`), repeatedly pick a corpus
parent, mutate its genome (add/remove/perturb/retarget/demote events, reseed
the workload), run the mutant, and keep it if it reached states no earlier
schedule did.  Any oracle violation stops the campaign: the violating
schedule is shrunk to a minimal reproducer and certified by replaying it
twice bit-identically.

Everything is seeded: the same (scenario, seed, budget) arguments explore the
same schedules in the same order.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..faults.byzantine import STRATEGIES
from .harness import RunResult, ScenarioSpec, run_schedule, scenario
from .schedule import FaultSchedule, ScheduleEvent
from .shrink import ShrinkResult, shrink

#: Byzantine strategies mutations may assign (ordered mildest to nastiest,
#: which is also the demotion order the shrinker walks)
MUTATION_STRATEGIES = ("silent", "corrupt_reply", "lying_reply")

#: ordering-plane strategies: only meaningful on an agreement node (they
#: transform PRE-PREPAREs), so mutations target them separately
PRIMARY_STRATEGIES = ("slow_primary", "censoring_primary",
                      "equivocating_primary")

#: client-facing strategies: meaningful on any node that hands replies to
#: clients -- execution replicas directly, agreement nodes when they relay
#: or serve a retransmission from their cache
CLIENT_FACING_STRATEGIES = ("forged_reply",)


def time_horizon_ms(num_requests: int) -> float:
    """Virtual-time horizon mutated event times are drawn from.

    The closed-loop workload completes in a few virtual milliseconds per
    request; genes fired after the last reply are dead weight, so the
    horizon tracks the workload length instead of a fixed constant.
    """
    return 20.0 + 3.0 * num_requests


def random_event(rng: random.Random, spec: ScenarioSpec,
                 num_requests: int) -> ScheduleEvent:
    """Draw one random gene appropriate for the scenario."""
    refs = spec.node_refs()
    kinds = ["crash", "partition", "byzantine", "link_fault"]
    if spec.allows_map_change:
        kinds.append("map_change")
    kind = rng.choice(kinds)
    horizon = time_horizon_ms(num_requests)
    at_ms = round(rng.uniform(0.0, horizon), 1)
    duration = round(rng.uniform(10.0, 2.0 * horizon), 1)
    if kind == "crash":
        # Crashing a client just stalls its own workload; target servers.
        node = rng.choice(refs["agreement"] + refs["execution"])
        return ScheduleEvent(kind="crash", at_ms=at_ms, duration_ms=duration,
                             node=node)
    if kind == "partition":
        a, b = rng.sample(refs["all"], 2)
        return ScheduleEvent(kind="partition", at_ms=at_ms,
                             duration_ms=duration, a=a, b=b)
    if kind == "byzantine":
        # Pick the strategy first: reply attacks need an execution node,
        # ordering-plane attacks an agreement node (a primary attack tap on
        # an execution node would never see a PRE-PREPARE).
        strategy = rng.choice(MUTATION_STRATEGIES + PRIMARY_STRATEGIES
                              + CLIENT_FACING_STRATEGIES)
        if strategy in PRIMARY_STRATEGIES:
            node = rng.choice(refs["agreement"])
        elif strategy in CLIENT_FACING_STRATEGIES:
            node = rng.choice(refs["agreement"] + refs["execution"])
        else:
            node = rng.choice(refs["execution"])
        return ScheduleEvent(kind="byzantine", at_ms=at_ms,
                             duration_ms=duration, node=node,
                             strategy=strategy)
    if kind == "link_fault":
        a, b = rng.sample(refs["all"], 2)
        return ScheduleEvent(
            kind="link_fault", at_ms=at_ms, duration_ms=duration, a=a, b=b,
            drop=round(rng.choice([0.0, 0.3, 0.7, 1.0]), 2),
            delay_ms=round(rng.choice([0.0, 5.0, 25.0, 100.0]), 1),
            duplicate=round(rng.choice([0.0, 0.0, 0.5]), 2),
            corrupt=round(rng.choice([0.0, 0.0, 0.3]), 2),
            reorder=round(rng.choice([0.0, 0.0, 0.4]), 2))
    return ScheduleEvent(kind="map_change", at_ms=at_ms,
                         op=rng.choice(["split", "merge"]),
                         key_index=rng.randrange(64),
                         owner=rng.randrange(spec.num_shards))


def mutate(schedule: FaultSchedule, rng: random.Random,
           spec: ScenarioSpec) -> FaultSchedule:
    """One mutation step: grow, cut, or perturb the genome."""
    events = list(schedule.events)
    roll = rng.random()
    if roll < 0.30 or not events:
        events.append(random_event(rng, spec, schedule.num_requests))
    elif roll < 0.45:
        del events[rng.randrange(len(events))]
    elif roll < 0.75:
        index = rng.randrange(len(events))
        event = events[index]
        events[index] = ScheduleEvent(
            kind=event.kind,
            at_ms=round(max(0.0, event.at_ms * rng.uniform(0.5, 1.5)), 1),
            duration_ms=round(max(0.0,
                                  event.duration_ms * rng.uniform(0.5, 1.5)),
                              1),
            node=event.node, a=event.a, b=event.b, strategy=event.strategy,
            drop=event.drop, delay_ms=event.delay_ms,
            duplicate=event.duplicate, corrupt=event.corrupt,
            reorder=event.reorder, op=event.op,
            key_index=event.key_index, owner=event.owner)
    elif roll < 0.85:
        index = rng.randrange(len(events))
        events[index] = random_event(rng, spec, schedule.num_requests)
    elif roll < 0.93:
        # Reseed the run: same faults, different network delays and
        # delivery interleavings (arrival order is part of the search
        # space -- sub-quorum acceptance bugs are order-dependent).
        return FaultSchedule(scenario=schedule.scenario,
                             seed=rng.randrange(1_000_000),
                             workload_seed=schedule.workload_seed,
                             num_requests=schedule.num_requests,
                             events=tuple(events))
    else:
        # Reseed the workload stream: same faults, different traffic.
        return FaultSchedule(scenario=schedule.scenario, seed=schedule.seed,
                             workload_seed=rng.randrange(1_000_000),
                             num_requests=schedule.num_requests,
                             events=tuple(events))
    return schedule.with_events(events)


@dataclass
class Finding:
    """A confirmed violation: original schedule, minimal reproducer, proof."""

    run: RunResult
    shrunk: ShrinkResult
    replay_digests: List[str]

    @property
    def replays_bit_identically(self) -> bool:
        return len(set(self.replay_digests)) == 1

    def to_json_dict(self) -> Dict:
        return {
            "violations": [v.to_json_dict() for v in self.run.violations],
            "schedule": self.run.schedule.to_json_dict(),
            "shrunk_schedule": self.shrunk.schedule.to_json_dict(),
            "shrunk_violations": [v.to_json_dict()
                                  for v in self.shrunk.result.violations],
            "shrink_runs": self.shrunk.runs,
            "replay_digests": self.replay_digests,
            "replays_bit_identically": self.replays_bit_identically,
        }


@dataclass
class ExploreReport:
    """Outcome of one exploration campaign."""

    scenario: str
    seed: int
    runs: int
    coverage: int
    coverage_history: List[int]
    corpus: List[FaultSchedule]
    findings: List[Finding]
    time_boxed: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json_dict(self) -> Dict:
        return {
            "mode": "explore",
            "scenario": self.scenario,
            "seed": self.seed,
            "runs": self.runs,
            "coverage": self.coverage,
            "coverage_history": self.coverage_history,
            "corpus": [schedule.to_json_dict() for schedule in self.corpus],
            "violations": [finding.to_json_dict()
                           for finding in self.findings],
            "time_boxed": self.time_boxed,
            "pass": self.ok,
        }


def seed_schedules(scenario_name: str, num_requests: int) -> List[FaultSchedule]:
    """Archetype schedules the corpus starts from (one per fault family)."""
    spec = scenario(scenario_name)
    base = FaultSchedule(scenario=scenario_name, num_requests=num_requests)
    refs = spec.node_refs()
    horizon = time_horizon_ms(num_requests)
    # ``refs["execution"]`` is shard-major: shard 0's replicas lead
    cluster_size = len(refs["execution"]) // spec.num_shards
    archetypes = [
        base,  # the benign schedule: baseline coverage
        base.with_events([ScheduleEvent(kind="crash", at_ms=10.0,
                                        duration_ms=horizon,
                                        node=refs["execution"][0])]),
        # A liar whose honest peers reach one client late: the lie is the
        # first direct reply that client sees, every time, so sub-quorum
        # acceptance shows without an arrival-order race.
        base.with_events(
            [ScheduleEvent(kind="byzantine", at_ms=0.0,
                           duration_ms=4.0 * horizon,
                           node=refs["execution"][0], strategy="lying_reply")]
            + [ScheduleEvent(kind="link_fault", at_ms=0.0,
                             duration_ms=4.0 * horizon, a=honest,
                             b=refs["clients"][0], delay_ms=5.0)
               for honest in refs["execution"][1:cluster_size]]),
        base.with_events([ScheduleEvent(kind="link_fault", at_ms=5.0,
                                        duration_ms=horizon,
                                        a=refs["agreement"][0],
                                        b=refs["execution"][0], drop=0.7)]),
    ]
    if spec.allows_map_change:
        archetypes.append(base.with_events([
            ScheduleEvent(kind="map_change", at_ms=15.0, op="split",
                          key_index=16, owner=1),
            ScheduleEvent(kind="crash", at_ms=20.0, duration_ms=horizon,
                          node=refs["execution"][0]),
        ]))
    # Ordering-plane archetypes (appended last so earlier campaigns' run
    # ordering -- and the planted-bug discovery points -- stay stable):
    # attack the initial primary directly.
    archetypes.extend([
        base.with_events([ScheduleEvent(kind="byzantine", at_ms=0.0,
                                        duration_ms=4.0 * horizon,
                                        node=refs["agreement"][0],
                                        strategy="equivocating_primary")]),
        base.with_events([ScheduleEvent(kind="byzantine", at_ms=0.0,
                                        duration_ms=4.0 * horizon,
                                        node=refs["agreement"][0],
                                        strategy="censoring_primary")]),
    ])
    return archetypes


def explore(scenario_name: str, *, budget: int = 50, seed: int = 0,
            num_requests: int = 40, weaken_reply_quorum: bool = False,
            disable_forwarding_defence: bool = False,
            time_box_s: Optional[float] = None,
            run_budget_ms: float = 8000.0,
            progress=None) -> ExploreReport:
    """Run one coverage-guided campaign of up to ``budget`` schedules.

    Stops early on the first confirmed (shrunk + twice-replayed) violation,
    or when the optional wall-clock ``time_box_s`` expires.  Coverage is
    cumulative over the campaign; ``coverage_history`` records its size
    after every run so "strictly growing fingerprints" is checkable from
    the report alone.
    """
    spec = scenario(scenario_name)
    rng = random.Random(seed)
    coverage: set = set()
    coverage_history: List[int] = []
    corpus: List[FaultSchedule] = []
    findings: List[Finding] = []
    started = time.monotonic()
    time_boxed = False

    def run_one(schedule: FaultSchedule) -> RunResult:
        return run_schedule(
            schedule, weaken_reply_quorum=weaken_reply_quorum,
            disable_forwarding_defence=disable_forwarding_defence,
            budget_ms=run_budget_ms)

    queue = seed_schedules(scenario_name, num_requests)
    runs = 0
    while runs < budget:
        if time_box_s is not None and time.monotonic() - started > time_box_s:
            time_boxed = True
            break
        if queue:
            candidate = queue.pop(0)
        else:
            parent = corpus[rng.randrange(len(corpus))] if corpus else \
                FaultSchedule(scenario=scenario_name,
                              num_requests=num_requests)
            candidate = mutate(parent, rng, spec)
        if candidate.validate():
            continue
        result = run_one(candidate)
        runs += 1
        novel = result.fingerprint - coverage
        coverage |= result.fingerprint
        coverage_history.append(len(coverage))
        if progress is not None:
            progress(runs, result, len(novel), len(coverage))
        if result.violations:
            shrunk = shrink(candidate, run=run_one)
            replays = [run_one(shrunk.schedule).replay_digest
                       for _ in range(2)]
            findings.append(Finding(run=result, shrunk=shrunk,
                                    replay_digests=replays))
            break
        if novel:
            corpus.append(candidate)
    return ExploreReport(scenario=scenario_name, seed=seed, runs=runs,
                         coverage=len(coverage),
                         coverage_history=coverage_history, corpus=corpus,
                         findings=findings, time_boxed=time_boxed)
