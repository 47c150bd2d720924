"""Byzantine fuzzing harness tests.

Covers the schedule genome (serialisation, digests, mutation determinism),
the per-link and time-bounded fault plumbing the schedules compile to, the
invariant oracles, fixed regression schedules for the two named races
(crash during a range handoff, partition during a cross-shard vote), the
planted-bug acceptance demonstration (weakened reply quorum is found,
shrunk, and replays bit-identically; the intact quorum masks the same
attack), and the corpus/report artifact contracts CI relies on.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.apps.kvstore import KeyValueStore
from repro.config import NetworkConfig
from repro.faults import FaultInjector, FaultPlan, make_behaviour
from repro.faults.byzantine import STRATEGIES, ByzantineBehaviour
from repro.fuzz import (
    BoundedProgressOracle,
    ExactlyOnceOracle,
    FaultSchedule,
    NoProgressDetector,
    RunContext,
    ScheduleEvent,
    explore,
    load_corpus,
    mutate,
    replay_corpus,
    run_schedule,
    save_corpus,
    save_schedule,
    scenario,
    seed_schedules,
)
from repro.messages.agreement import OrderedBatch
from repro.net.faults import LinkFault, NetworkFaultModel
from repro.net.message import CorruptedMessage
from repro.sharding.system import ShardedSystem
from repro.sim.rand import DeterministicRandom
from repro.util.ids import agreement_id

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import validate_schema  # noqa: E402  (benchmarks/ is not a package)


#: the planted-bug attack: one replica lies (re-signs corrupted replies) for
#: the whole run and its two honest peers reach client 0 five milliseconds
#: late, so the lie is the first direct reply that client sees every time;
#: g + 1 matching authenticators mask it, g accept it
LYING_SCHEDULE = FaultSchedule(
    scenario="sharded", seed=0, workload_seed=0, num_requests=30,
    events=(ScheduleEvent(kind="byzantine", at_ms=0.0, duration_ms=440.0,
                          node="execution:0:0", strategy="lying_reply"),
            ScheduleEvent(kind="link_fault", at_ms=0.0, duration_ms=440.0,
                          a="execution:0:1", b="client:0", delay_ms=5.0),
            ScheduleEvent(kind="link_fault", at_ms=0.0, duration_ms=440.0,
                          a="execution:0:2", b="client:0", delay_ms=5.0)))

#: named race 1: a split fires, then the handoff source crashes mid-transfer
CRASH_DURING_HANDOFF = FaultSchedule(
    scenario="rebalance", seed=5, workload_seed=5, num_requests=30,
    events=(ScheduleEvent(kind="map_change", at_ms=15.0, op="split",
                          key_index=16, owner=1),
            ScheduleEvent(kind="crash", at_ms=20.0, duration_ms=60.0,
                          node="execution:0:0")))

#: named race 2: an asymmetric partition cuts an agreement node off from a
#: shard while cross-shard votes are being gathered
PARTITION_DURING_VOTE = FaultSchedule(
    scenario="crossshard", seed=3, workload_seed=3, num_requests=24,
    events=(ScheduleEvent(kind="partition", at_ms=8.0, duration_ms=40.0,
                          a="agreement:0", b="execution:1:0"),))

#: ordering-plane attack: the view-0 primary sends per-backup conflicting
#: PRE-PREPAREs; no conflicting batch may ever gather a commit quorum
EQUIVOCATING_PRIMARY = FaultSchedule(
    scenario="sharded", seed=2, workload_seed=2, num_requests=30,
    events=(ScheduleEvent(kind="byzantine", at_ms=10.0, duration_ms=400.0,
                          node="agreement:0", strategy="equivocating_primary"),))

#: ordering-plane attack: the primary orders only what it likes; backup
#: forwarding and per-request deadlines must escalate to a view change
CENSORING_PRIMARY = FaultSchedule(
    scenario="sharded", seed=4, workload_seed=4, num_requests=30,
    events=(ScheduleEvent(kind="byzantine", at_ms=10.0, duration_ms=400.0,
                          node="agreement:0", strategy="censoring_primary"),))

#: ordering-plane attack: the primary stays just under the view-change
#: timer, degrading throughput without triggering a clean crash signal
SLOW_PRIMARY = FaultSchedule(
    scenario="sharded", seed=6, workload_seed=6, num_requests=30,
    events=(ScheduleEvent(kind="byzantine", at_ms=10.0, duration_ms=400.0,
                          node="agreement:0", strategy="slow_primary"),))


class TestScheduleGenome:
    def test_json_roundtrip_preserves_digest(self):
        restored = FaultSchedule.from_json(CRASH_DURING_HANDOFF.to_json())
        assert restored == CRASH_DURING_HANDOFF
        assert restored.digest() == CRASH_DURING_HANDOFF.digest()

    def test_digest_is_sensitive_to_every_gene(self):
        base = LYING_SCHEDULE
        assert base.without_event(0).digest() != base.digest()
        reseeded = FaultSchedule(scenario=base.scenario, seed=base.seed + 1,
                                 workload_seed=base.workload_seed,
                                 num_requests=base.num_requests,
                                 events=base.events)
        assert reseeded.digest() != base.digest()

    def test_validation_rejects_malformed_events(self):
        bad_kind = FaultSchedule(
            scenario="sharded",
            events=(ScheduleEvent(kind="meteor", at_ms=0.0),))
        assert bad_kind.validate()
        negative = FaultSchedule(
            scenario="sharded",
            events=(ScheduleEvent(kind="crash", at_ms=-1.0,
                                  node="execution:0:0"),))
        assert negative.validate()
        with pytest.raises(ValueError):
            run_schedule(bad_kind)

    def test_mutation_is_deterministic_and_valid(self):
        spec = scenario("rebalance")
        parent = seed_schedules("rebalance", num_requests=20)[-1]
        mutants_a = []
        rng = random.Random(42)
        for _ in range(50):
            parent = mutate(parent, rng, spec)
            assert parent.validate() == []
            mutants_a.append(parent.digest())
        parent = seed_schedules("rebalance", num_requests=20)[-1]
        rng = random.Random(42)
        mutants_b = [
            (parent := mutate(parent, rng, spec)).digest() for _ in range(50)]
        assert mutants_a == mutants_b


class TestFaultPlumbing:
    def test_link_fault_is_directional(self):
        """Satellite: (src, dst) overrides degrade only that direction."""
        model = NetworkFaultModel(NetworkConfig(),
                                  DeterministicRandom(0, "test-link"))
        a, b = agreement_id(0), agreement_id(1)
        model.set_link_fault(a, b, LinkFault(drop_probability=1.0))
        message = CorruptedMessage("probe", 64)
        assert model.plan(a, b, message, 64) == []
        assert model.plan(b, a, message, 64) != []
        model.clear_link_fault(a, b)
        assert model.plan(a, b, message, 64) != []

    def test_link_fault_adds_directed_delay(self):
        model = NetworkFaultModel(NetworkConfig(min_delay_ms=0.1,
                                                max_delay_ms=0.1),
                                  DeterministicRandom(0, "test-delay"))
        a, b = agreement_id(0), agreement_id(1)
        model.set_link_fault(a, b, LinkFault(extra_delay_ms=50.0))
        message = CorruptedMessage("probe", 64)
        slow = model.plan(a, b, message, 64)[0][0]
        fast = model.plan(b, a, message, 64)[0][0]
        assert slow >= 50.0 > fast

    def test_byzantine_window_installs_and_uninstalls(self):
        """Satellite: behaviours attach at ``at_ms`` and detach at
        ``until_ms`` in virtual time, not for the whole run."""
        spec = scenario("sharded")
        system = ShardedSystem(spec.make_config(), KeyValueStore, seed=0)
        node = system.shard_execution_ids[0][0]
        behaviour = make_behaviour("lying_reply", node)
        injector = FaultInjector(system)
        plan = FaultPlan()
        plan.byzantine(behaviour, at_ms=10.0, until_ms=30.0)
        injector.install(plan)
        system.run(5.0)
        assert not behaviour.installed
        system.run(10.0)
        assert behaviour.installed
        assert behaviour in injector.active_behaviours
        system.run(20.0)
        assert not behaviour.installed
        assert injector.active_behaviours == []


class TestOracles:
    def test_exactly_once_flags_duplicate_completion(self):
        def record(timestamp):
            return SimpleNamespace(
                timestamp=timestamp,
                result=SimpleNamespace(error=None, value="v"))

        client = SimpleNamespace(node_id="C0",
                                 completed=[record(1), record(1)],
                                 cross_shard_completed=0)
        violations = ExactlyOnceOracle().check(
            SimpleNamespace(clients=[client]), completed_all=False)
        assert any("twice" in v.detail for v in violations)

    def test_exactly_once_flags_reordered_completions(self):
        def record(timestamp):
            return SimpleNamespace(
                timestamp=timestamp,
                result=SimpleNamespace(error=None, value="v"))

        client = SimpleNamespace(node_id="C0",
                                 completed=[record(2), record(1)],
                                 cross_shard_completed=0)
        violations = ExactlyOnceOracle().check(
            SimpleNamespace(clients=[client]), completed_all=False)
        assert any("order" in v.detail for v in violations)

    def test_benign_run_passes_every_oracle(self):
        result = run_schedule(FaultSchedule(scenario="sharded",
                                            num_requests=20))
        assert result.completed_all
        assert result.violations == []


class TestFixedSchedules:
    def test_crash_during_range_handoff(self):
        """The handoff source crashing mid-transfer must not lose state or
        strand the new epoch; the run is bit-identically replayable."""
        first = run_schedule(CRASH_DURING_HANDOFF)
        assert first.completed_all
        assert first.violations == []
        assert first.stats["epoch"] >= 1
        assert first.stats["handoffs"] >= 1
        second = run_schedule(CRASH_DURING_HANDOFF)
        assert second.replay_digest == first.replay_digest

    def test_partition_during_cross_shard_vote(self):
        """An asymmetric cut during vote gathering must delay, never split,
        the cross-shard decision."""
        first = run_schedule(PARTITION_DURING_VOTE)
        assert first.completed_all
        assert first.violations == []
        second = run_schedule(PARTITION_DURING_VOTE)
        assert second.replay_digest == first.replay_digest

    def test_lying_replica_is_masked_by_intact_quorum(self):
        result = run_schedule(LYING_SCHEDULE)
        assert result.completed_all
        assert result.violations == []

    def test_forging_agreement_node_is_masked(self):
        """An agreement node forging what it serves from its reply cache,
        while a lossy link makes one client depend on that cache."""
        schedule = FaultSchedule(
            scenario="sharded", seed=3, workload_seed=3, num_requests=30,
            events=(ScheduleEvent(kind="byzantine", at_ms=0.0, duration_ms=440.0,
                                  node="agreement:0", strategy="forged_reply"),
                    ScheduleEvent(kind="link_fault", at_ms=0.0, duration_ms=200.0,
                                  a="execution:0:1", b="client:0", drop=1.0),
                    ScheduleEvent(kind="link_fault", at_ms=0.0, duration_ms=200.0,
                                  a="execution:0:2", b="client:0", drop=1.0)))
        result = run_schedule(schedule)
        assert result.completed_all
        assert result.violations == []
        assert result.stats["retransmissions"] > 0

    def test_lying_replica_caught_with_weakened_quorum(self):
        result = run_schedule(LYING_SCHEDULE, weaken_reply_quorum=True)
        assert any(v.oracle == "reply-table-audit"
                   for v in result.violations)


class _RaisingHandler(ByzantineBehaviour):
    """Its node's handler raises on the first ordered batch it is handed:
    a bug, not an attack, which the campaign must record and survive."""

    def install(self, system) -> None:
        process = system.network.process(self.node)
        handle = process.on_message

        def on_message(sender, message):
            if isinstance(message, OrderedBatch):
                raise RuntimeError("handler bug")
            handle(sender, message)

        process.on_message = on_message


class TestRaisingHandlers:
    def test_a_raising_handler_is_a_violation(self, monkeypatch):
        """The exception does not escape ``run_schedule``: the run stops,
        and its result names the exception and the event that raised it
        -- a delivery of a batch, by the trace id of its first request."""
        monkeypatch.setitem(STRATEGIES, "raising_handler", _RaisingHandler)
        schedule = FaultSchedule(
            scenario="sharded", num_requests=10,
            events=(ScheduleEvent(kind="byzantine", at_ms=0.0, duration_ms=400.0,
                                  node="execution:0:1",
                                  strategy="raising_handler"),))
        result = run_schedule(schedule)
        (violation,) = result.violations
        assert violation.oracle == "handler-exception"
        assert re.match(r"RuntimeError: handler bug \(event 'deliver:', "
                        r"trace C\d+:\d+, at [\d.]+ ms\)$", violation.detail)
        assert not result.completed_all and result.completed < result.expected
        assert "raised:RuntimeError" in result.fingerprint
        assert run_schedule(schedule).replay_digest == result.replay_digest


class TestOrderingPlaneAttacks:
    def test_equivocating_primary_never_commits_conflicting_values(self):
        """Equivocation splits the prepare quorums, so nothing conflicting
        commits; the deposed primary's window ends and every request lands."""
        first = run_schedule(EQUIVOCATING_PRIMARY)
        assert first.completed_all
        assert first.violations == []
        assert first.stats["view_changes"] >= 1
        second = run_schedule(EQUIVOCATING_PRIMARY)
        assert second.replay_digest == first.replay_digest

    def test_censoring_primary_is_deposed_and_requests_complete(self):
        """Backup forwarding plus per-request deadlines escalate censorship
        to a view change; the starved requests complete under the successor."""
        first = run_schedule(CENSORING_PRIMARY)
        assert first.completed_all
        assert first.violations == []
        assert first.stats["view_changes"] >= 1
        second = run_schedule(CENSORING_PRIMARY)
        assert second.replay_digest == first.replay_digest

    def test_slow_primary_degrades_but_never_starves(self):
        """A primary riding just under the view-change timer costs latency
        only -- every request still completes and no invariant breaks."""
        result = run_schedule(SLOW_PRIMARY)
        assert result.completed_all
        assert result.violations == []

    def test_censoring_without_defence_starves_requests(self):
        """The liveness twin of the planted reply-quorum bug: with the
        censorship-resistant request path switched off, a censoring primary
        starves requests past the healed-liveness horizon and the
        bounded-progress oracle flags it."""
        result = run_schedule(CENSORING_PRIMARY,
                              disable_forwarding_defence=True)
        assert not result.completed_all
        assert any(v.oracle == "bounded-progress" for v in result.violations)
        assert result.stats["longest_stall_ms"] > 0

    def test_planted_liveness_bug_found_shrunk_and_replayed(self):
        """Acceptance demonstration (liveness): with forwarding defence
        disabled, the campaign finds a bounded-progress violation within
        budget, shrinks it, and the shrunk schedule replays bit-identically."""
        report = explore("sharded", budget=12, seed=1, num_requests=30,
                         disable_forwarding_defence=True)
        assert report.findings
        finding = report.findings[0]
        assert any(v.oracle == "bounded-progress"
                   for v in finding.run.violations)
        assert finding.shrunk.result.violations
        assert len(finding.shrunk.schedule.events) <= \
            len(finding.run.schedule.events)
        assert finding.replays_bit_identically
        report_json = report.to_json_dict()
        assert validate_schema.validate_fuzz_report(report_json) == []
        assert report_json["pass"] is False


class TestLivenessOracles:
    def test_bounded_progress_is_inert_without_context(self):
        oracle = BoundedProgressOracle(horizon_ms=100.0)
        assert oracle.check(SimpleNamespace(), completed_all=False) == []

    def test_bounded_progress_is_inert_when_complete_or_under_horizon(self):
        oracle = BoundedProgressOracle(horizon_ms=1000.0)
        context = RunContext(healed_at_ms=0.0, final_time_ms=5000.0,
                             expected=10, completed=10)
        assert oracle.check(SimpleNamespace(), completed_all=True,
                            context=context) == []
        short = RunContext(healed_at_ms=0.0, final_time_ms=500.0,
                           expected=10, completed=3)
        assert oracle.check(SimpleNamespace(), completed_all=False,
                            context=short) == []

    def test_bounded_progress_flags_starvation_past_horizon(self):
        oracle = BoundedProgressOracle(horizon_ms=1000.0)
        context = RunContext(healed_at_ms=100.0, final_time_ms=2000.0,
                             expected=10, completed=4)
        violations = oracle.check(SimpleNamespace(), completed_all=False,
                                  context=context)
        assert len(violations) == 1
        assert violations[0].oracle == "bounded-progress"
        assert "6 of 10" in violations[0].detail

    def test_no_progress_detector_tracks_longest_stall(self):
        detector = NoProgressDetector()
        detector.sample(0.0, 0)
        detector.sample(50.0, 0)      # 50ms stall
        detector.sample(100.0, 2)     # progress resets the window
        detector.sample(400.0, 2)     # 300ms stall
        detector.sample(450.0, 5)
        assert detector.longest_stall_ms == 300.0


class TestReorderGene:
    def test_reorder_field_serialises_only_when_set(self):
        """Corpus digest stability: a zero reorder gene is omitted, so
        pre-existing seed files keep their content digests and file names."""
        plain = ScheduleEvent(kind="link_fault", at_ms=0.0, duration_ms=10.0,
                              a="agreement:0", b="agreement:1", drop=0.1)
        schedule = FaultSchedule(scenario="sharded", events=(plain,))
        assert "reorder" not in schedule.to_json_dict()["events"][0]
        reordering = ScheduleEvent(kind="link_fault", at_ms=0.0,
                                   duration_ms=10.0, a="agreement:0",
                                   b="agreement:1", reorder=0.4)
        with_gene = FaultSchedule(scenario="sharded", events=(reordering,))
        data = with_gene.to_json_dict()
        assert data["events"][0]["reorder"] == 0.4
        restored = FaultSchedule.from_json(with_gene.to_json())
        assert restored == with_gene
        assert restored.digest() == with_gene.digest()
        assert validate_schema.validate_schedule(data) == []

    def test_reorder_probability_is_validated(self):
        bad = FaultSchedule(
            scenario="sharded",
            events=(ScheduleEvent(kind="link_fault", at_ms=0.0,
                                  a="agreement:0", b="agreement:1",
                                  reorder=1.5),))
        assert any("reorder" in problem for problem in bad.validate())

    def test_reorder_delays_copies_behind_later_traffic(self):
        model = NetworkFaultModel(NetworkConfig(min_delay_ms=0.1,
                                                max_delay_ms=0.1),
                                  DeterministicRandom(0, "test-reorder"))
        a, b = agreement_id(0), agreement_id(1)
        model.set_link_fault(a, b, LinkFault(reorder_probability=1.0))
        message = CorruptedMessage("probe", 64)
        delayed = model.plan(a, b, message, 64)[0][0]
        plain = model.plan(b, a, message, 64)[0][0]
        assert delayed > plain


class TestExplorer:
    def test_intact_campaign_is_clean_with_growing_coverage(self):
        report = explore("sharded", budget=6, seed=1, num_requests=30)
        assert report.findings == []
        assert report.runs == 6
        history = report.coverage_history
        assert all(b >= a for a, b in zip(history, history[1:]))
        assert history[-1] > history[0]
        assert report.corpus  # novelty seeds were admitted
        assert validate_schema.validate_fuzz_report(report.to_json_dict()) == []

    def test_planted_bug_found_shrunk_and_replayed(self):
        """Acceptance demonstration: with the g-instead-of-g+1 reply quorum
        planted, the campaign finds a violation within budget, shrinks it,
        and the shrunk schedule replays bit-identically."""
        report = explore("sharded", budget=12, seed=1, num_requests=30,
                         weaken_reply_quorum=True)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert any(v.oracle == "reply-table-audit"
                   for v in finding.run.violations)
        assert finding.shrunk.result.violations
        assert len(finding.shrunk.schedule.events) <= \
            len(finding.run.schedule.events)
        assert finding.replays_bit_identically
        report_json = report.to_json_dict()
        assert validate_schema.validate_fuzz_report(report_json) == []
        assert report_json["pass"] is False


class TestCorpusAndArtifacts:
    def test_corpus_roundtrip_and_regression(self, tmp_path):
        seeds = seed_schedules("sharded", num_requests=20)[:2]
        paths = save_corpus(tmp_path, seeds)
        assert len(paths) == len(seeds)
        for path in paths:
            assert validate_schema.validate_schedule_file(path) == []
        assert load_corpus(tmp_path) == sorted(seeds,
                                               key=lambda s: s.digest()[:12])
        report = replay_corpus(tmp_path)
        assert report.ok
        assert report.seeds == len(seeds)

    def test_corpus_regression_compare_lists_moved_digests(self, tmp_path,
                                                           capsys):
        from repro.fuzz.__main__ import main
        corpus = tmp_path / "corpus"
        seeds = seed_schedules("sharded", num_requests=20)[:2]
        save_corpus(corpus, seeds)
        report = tmp_path / "parent.json"
        base = ["corpus-regression", "--corpus-dir", str(corpus)]
        assert main(base + ["--out", str(report)]) == 0
        assert main(base + ["--compare", str(report)]) == 0
        earlier = json.loads(report.read_text())
        moved = earlier["replays"][0]
        moved["replay_digest"] = "0" * 64
        report.write_text(json.dumps(earlier))
        capsys.readouterr()
        assert main(base + ["--compare", str(report)]) == 1
        assert moved["schedule_digest"][:12] in capsys.readouterr().err

    def test_save_schedule_is_idempotent(self, tmp_path):
        first = save_schedule(tmp_path, LYING_SCHEDULE)
        second = save_schedule(tmp_path, LYING_SCHEDULE)
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_schedule_schema_validator(self):
        assert validate_schema.validate_schedule(
            LYING_SCHEDULE.to_json_dict()) == []
        broken = LYING_SCHEDULE.to_json_dict()
        broken["events"][0]["kind"] = "meteor"
        del broken["scenario"]
        errors = validate_schema.validate_schedule(broken)
        assert any("meteor" in e for e in errors)
        assert any("scenario" in e for e in errors)

    def test_fuzz_report_schema_validator_rejects_drift(self):
        report = {"mode": "explore", "scenario": "sharded", "seed": 0,
                  "runs": 2, "coverage": 30, "coverage_history": [31, 30],
                  "corpus": [], "violations": [], "pass": True}
        errors = validate_schema.validate_fuzz_report(report)
        assert any("shrank" in e for e in errors)
        report["coverage_history"] = [29, 30]
        report["violations"] = [{"schedule": {"bogus": True}}]
        errors = validate_schema.validate_fuzz_report(report)
        assert any("pass" in e for e in errors)
