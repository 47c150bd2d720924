"""Observability: metrics registry, request tracing, critical-path analysis.

The tentpole invariants under test:

* instruments are correct (counters, gauges, upper-inclusive histogram
  buckets, nearest-rank quantiles) and their no-op twins do nothing;
* tracing is deterministic -- identical seeds produce identical span
  timestamps -- because every timestamp comes from the virtual clock;
* observability is strictly passive: enabling it leaves the virtual-time
  results of a run bit-identical (the CI overhead gate enforces the same
  property on every benchmark leg);
* the critical-path analyzer folds traces with min-time semantics, ignores
  incomplete traces, and always reports the six canonical stages;
* the artifact schema validator accepts what the benchmarks emit and
  rejects malformed results/traces.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import validate_schema  # noqa: E402  (benchmarks/ is not a package)

from conftest import CHEAP_CRYPTO, FAST_TIMERS, make_config
from repro.analysis.critical_path import (
    STAGES,
    critical_path_breakdown,
    format_critical_path_table,
    stage_durations,
)
from repro.analysis.metrics import percentile, summarize_latencies
from repro.apps.counter import CounterService, increment
from repro.apps.kvstore import KeyValueStore, put
from repro.config import AuthenticationScheme, ObservabilityConfig, SystemConfig
from repro.core import SeparatedSystem
from repro.obs import MetricsRegistry, TraceEvent, Tracer, read_trace_jsonl
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
)
from repro.sharding import ShardedSystem

OBS_ON = ObservabilityConfig(metrics=True, tracing=True)


def obs_system(seed=21, observability=OBS_ON, **overrides):
    config = make_config(observability=observability, **overrides)
    return SeparatedSystem(config, CounterService, seed=seed)


# ---------------------------------------------------------------------- #
# Instruments.
# ---------------------------------------------------------------------- #


class TestInstruments:
    def test_counter_and_gauge(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        gauge = Gauge("g")
        gauge.set(3.5)
        assert gauge.value == 3.5

    def test_histogram_buckets_are_upper_inclusive(self):
        histogram = Histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 1.5, 10.0, 11.0):
            histogram.observe(value)
        buckets = histogram.snapshot()["buckets"]
        # A value exactly on a bound belongs to that bound's bucket.
        assert buckets == {"le_1": 2, "le_10": 2, "overflow": 1}

    def test_histogram_quantile_clamped_to_observed_max(self):
        histogram = Histogram("h", bounds=(1.0, 100.0))
        for value in (0.2, 0.4, 2.0):
            histogram.observe(value)
        # The rank-3 bucket is le_100, but the answer never exceeds the
        # observed maximum.
        assert histogram.quantile(0.999) == 2.0
        # Ranks inside a bucket answer with the bucket's upper bound.
        assert histogram.quantile(0.5) == 1.0

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_snapshot_shape(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(0.5)
        snapshot = histogram.snapshot()
        for field in ("count", "sum", "mean", "min", "max", "p50", "p99",
                      "p999", "buckets"):
            assert field in snapshot

    def test_registry_returns_same_instrument_per_name(self):
        registry = MetricsRegistry("A0")
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_disabled_registry_hands_out_shared_noops(self):
        registry = MetricsRegistry("A0", enabled=False)
        assert registry.counter("x") is NOOP_COUNTER
        assert registry.gauge("g") is NOOP_GAUGE
        assert registry.histogram("h") is NOOP_HISTOGRAM
        registry.register_probe("p", lambda: {"never": "called"})
        assert all(section == {} for section in registry.snapshot().values())

    def test_noop_instruments_do_nothing(self):
        NOOP_COUNTER.inc(100)
        NOOP_GAUGE.set(9.0)
        NOOP_HISTOGRAM.observe(5.0)
        assert NOOP_COUNTER.value == 0
        assert NOOP_GAUGE.value == 0.0
        assert NOOP_HISTOGRAM.count == 0

    def test_probes_are_lazy(self):
        registry = MetricsRegistry("A0")
        calls = []
        registry.register_probe("state", lambda: calls.append(1) or {"n": 1})
        assert calls == []
        assert registry.snapshot()["probes"]["state"] == {"n": 1}
        assert calls == [1]


# ---------------------------------------------------------------------- #
# Percentiles (satellite: nearest-rank bias fix).
# ---------------------------------------------------------------------- #


class TestPercentiles:
    def test_nearest_rank_indices(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.95) == 95
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 0.999) == 100
        assert percentile(samples, 1.0) == 100

    def test_small_sample_sets(self):
        assert percentile([7.0], 0.999) == 7.0
        # rank ceil(0.5 * 2) = 1 -> the first sample, the lower median
        assert percentile([1.0, 2.0], 0.5) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_latency_summary_has_p999(self):
        summary = summarize_latencies(float(i) for i in range(1, 1001))
        assert summary.p999_ms == 999.0
        assert summary.p99_ms == 990.0


# ---------------------------------------------------------------------- #
# Tracer.
# ---------------------------------------------------------------------- #


class TestTracer:
    def test_capacity_drops_rather_than_grows(self):
        tracer = Tracer(enabled=True, capacity=2)
        for i in range(5):
            tracer.record("t", "submit", "C0", float(i))
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record("t", "submit", "C0", 0.0)
        assert tracer.events() == []

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        tracer.record("C0:1", "submit", "C0", 0.0)
        tracer.record("C0:1", "reply", "C0", 4.5)
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        assert read_trace_jsonl(path) == tracer.events()

    def test_identical_seeds_produce_identical_traces(self):
        runs = []
        for _ in range(2):
            system = obs_system(seed=33)
            for _ in range(5):
                system.invoke(increment(1))
            runs.append(system.trace_events())
        assert runs[0] == runs[1]
        assert runs[0]  # non-empty: the comparison is meaningful

    def test_different_seeds_diverge(self):
        traces = []
        for seed in (33, 34):
            system = obs_system(seed=seed)
            for _ in range(5):
                system.invoke(increment(1))
            traces.append(system.trace_events())
        assert traces[0] != traces[1]


# ---------------------------------------------------------------------- #
# Passivity: observability cannot perturb the simulation.
# ---------------------------------------------------------------------- #


class TestZeroOverhead:
    def test_virtual_time_results_identical_on_and_off(self):
        outcomes = {}
        for label, obs in (("off", ObservabilityConfig()), ("on", OBS_ON)):
            system = obs_system(seed=44, observability=obs)
            values = [system.invoke(increment(1)).result.value
                      for _ in range(8)]
            outcomes[label] = (values, system.scheduler.now,
                               system.scheduler.events_processed,
                               system.total_completed())
        assert outcomes["on"] == outcomes["off"]

    def test_disabled_system_exposes_empty_observability(self):
        system = obs_system(seed=44, observability=ObservabilityConfig())
        system.invoke(increment(1))
        assert system.metrics_snapshot() == {}
        assert system.trace_events() == []

    @pytest.mark.parametrize("scheme, relayed", [
        (AuthenticationScheme.THRESHOLD, 4), (AuthenticationScheme.MAC, 0)])
    def test_enabled_system_surfaces_hot_path_metrics(self, scheme, relayed):
        """Agreement nodes relay replies only where execution does not
        answer clients itself (threshold here; MAC replies go direct)."""
        system = obs_system(seed=44, authentication=scheme)
        for _ in range(4):
            system.invoke(increment(1))
        snapshot = system.metrics_snapshot()
        nodes = snapshot["nodes"]
        queue_counters = nodes["A0"]["counters"]
        assert queue_counters["queue.batches_sent"] == 4
        assert queue_counters["queue.replies_forwarded"] == relayed
        assert "agreement.state" in nodes["A0"]["probes"]
        # Ad-hoc crypto counters (the *_cached tallies) ride along.
        assert "digest" in snapshot["crypto_ops"]
        assert "wire_cache" in snapshot["global"]

    @pytest.mark.parametrize("scheme, relayed", [
        (AuthenticationScheme.THRESHOLD, 4), (AuthenticationScheme.MAC, 0)])
    def test_sharded_queue_counts_sends_and_forwards_too(self, scheme, relayed):
        """The router queue sends and forwards through the same helpers as
        the unsharded queue, so the registry's counters move with the
        queue's plain attributes (they used to stay 0 on sharded runs)."""
        config = SystemConfig.sharded(
            2, num_clients=2, pipeline_depth=16, checkpoint_interval=8,
            bundle_size=1, timers=FAST_TIMERS, crypto=CHEAP_CRYPTO,
            observability=OBS_ON, authentication=scheme)
        system = ShardedSystem(config, KeyValueStore, seed=44)
        for index in range(4):
            system.invoke(put(f"key-{index}", "v"))
        counters = system.metrics_snapshot()["nodes"]["A0"]["counters"]
        assert counters["queue.batches_sent"] == 4
        assert counters["queue.replies_forwarded"] == relayed
        queue = system.message_queues[0]
        assert (queue.batches_sent, queue.replies_forwarded) == (4, relayed)


# ---------------------------------------------------------------------- #
# Critical-path analysis.
# ---------------------------------------------------------------------- #


def _trace(trace_id, *points):
    return [TraceEvent(trace_id, event, node, t_ms)
            for event, node, t_ms in points]


class TestCriticalPath:
    def test_stage_durations_fold_one_trace(self):
        events = _trace("C0:1",
                        ("submit", "C0", 0.0), ("admit", "A0", 1.0),
                        ("order", "A0", 3.0), ("commit", "A0", 6.0),
                        ("release", "A0", 6.5), ("execute", "E0", 8.0),
                        ("reply", "C0", 10.0))
        durations = stage_durations(events)
        assert durations["admit"] == [1.0]
        assert durations["batch"] == [2.0]
        assert durations["agree"] == [3.0]
        assert durations["release"] == [0.5]
        assert durations["execute"] == [1.5]
        assert durations["reply"] == [2.0]

    def test_min_time_folding_takes_earliest_occurrence(self):
        # Three replicas commit at different times; the fastest causal
        # path uses the earliest.
        events = _trace("C0:1",
                        ("submit", "C0", 0.0), ("admit", "A0", 1.0),
                        ("order", "A0", 2.0), ("commit", "A2", 9.0),
                        ("commit", "A0", 4.0), ("commit", "A1", 5.0),
                        ("release", "A0", 5.0), ("execute", "E0", 6.0),
                        ("reply", "C0", 7.0))
        assert stage_durations(events)["agree"] == [2.0]

    def test_incomplete_traces_are_excluded(self):
        complete = _trace("C0:1",
                          ("submit", "C0", 0.0), ("admit", "A0", 1.0),
                          ("order", "A0", 2.0), ("commit", "A0", 3.0),
                          ("release", "A0", 4.0), ("execute", "E0", 5.0),
                          ("reply", "C0", 6.0))
        in_flight = _trace("C0:2", ("submit", "C0", 5.0), ("admit", "A0", 6.0))
        breakdown = critical_path_breakdown(complete + in_flight)
        assert breakdown["traces"] == 1

    def test_breakdown_always_reports_all_six_stages(self):
        breakdown = critical_path_breakdown([])
        assert set(STAGES) <= set(breakdown["stages"])
        assert breakdown["traces"] == 0
        assert breakdown["dominant_stage"] == ""

    def test_dominant_stage_and_table(self):
        events = _trace("C0:1",
                        ("submit", "C0", 0.0), ("admit", "A0", 1.0),
                        ("order", "A0", 2.0), ("commit", "A0", 20.0),
                        ("release", "A0", 21.0), ("execute", "E0", 22.0),
                        ("reply", "C0", 23.0))
        breakdown = critical_path_breakdown(events)
        assert breakdown["dominant_stage"] == "agree"
        table = format_critical_path_table(breakdown)
        assert "agree <- dominant" in table

    def test_end_to_end_breakdown_from_live_system(self):
        system = obs_system(seed=55)
        for _ in range(6):
            system.invoke(increment(1))
        breakdown = system.critical_path()
        assert breakdown["traces"] == 6
        for stage in STAGES:
            assert breakdown["stages"][stage]["samples"] == 6
        # Stage durations must sum to the end-to-end reply latency.
        events = system.trace_events()
        first = min(e.t_ms for e in events if e.event == "submit")
        last = max(e.t_ms for e in events if e.event == "reply")
        total = sum(breakdown["stages"][stage]["mean_ms"] * 6
                    for stage in STAGES)
        assert total <= (last - first) * 6 + 1e-9


# ---------------------------------------------------------------------- #
# Artifact schema validation (satellite: CI fails on malformed output).
# ---------------------------------------------------------------------- #


def _valid_bench():
    stage = {"samples": 3, "mean_ms": 1.0, "p50_ms": 1.0, "p99_ms": 2.0,
             "p999_ms": 2.0, "max_ms": 2.0}
    return {
        "benchmark": "hotpath", "mode": "quick", "seed": 42,
        "workload_seed": 7, "pass": True,
        "critical_path": {
            "traces": 3, "dominant_stage": "reply", "dominant_mean_ms": 1.0,
            "stages": {name: dict(stage) for name in STAGES},
        },
    }


class TestSchemaValidation:
    def test_valid_bench_passes(self):
        assert validate_schema.validate_bench(_valid_bench()) == []

    def test_missing_stage_field_fails(self):
        results = _valid_bench()
        del results["critical_path"]["stages"]["agree"]["p999_ms"]
        errors = validate_schema.validate_bench(results)
        assert any("agree.p999_ms" in error for error in errors)

    def test_missing_critical_path_fails_unless_allowed(self):
        results = _valid_bench()
        del results["critical_path"]
        assert validate_schema.validate_bench(results)
        assert validate_schema.validate_bench(
            results, require_critical_path=False) == []

    def test_missing_required_top_level_field_fails(self):
        results = _valid_bench()
        del results["pass"]
        assert any("'pass'" in error
                   for error in validate_schema.validate_bench(results))

    def test_a_census_needs_numbers_per_message_type(self):
        results = _valid_bench()
        results["census"] = {"completed": 4, "per_type": {
            "CrossShardSubReply": {"sends_per_op": 6.0, "bytes_per_op": 900.0}}}
        assert validate_schema.validate_bench(results) == []
        del results["census"]["per_type"]["CrossShardSubReply"]["bytes_per_op"]
        assert any("census.per_type.CrossShardSubReply" in error
                   for error in validate_schema.validate_bench(results))

    def test_valid_trace_lines_pass(self):
        lines = ['{"trace_id": "C0:1", "event": "submit", "node": "C0", "t_ms": 0.0}',
                 '{"trace_id": "C0:1", "event": "reply", "node": "C0", "t_ms": 2.5}']
        assert validate_schema.validate_trace_lines(lines) == []

    def test_unknown_event_and_time_regression_fail(self):
        lines = ['{"trace_id": "t", "event": "teleport", "node": "C0", "t_ms": 1.0}',
                 '{"trace_id": "t", "event": "reply", "node": "C0", "t_ms": 0.5}']
        errors = validate_schema.validate_trace_lines(lines)
        assert any("unknown event" in error for error in errors)
        assert any("decreases" in error for error in errors)

    def test_empty_trace_fails(self):
        assert validate_schema.validate_trace_lines([])

    def test_exported_trace_validates(self, tmp_path):
        system = obs_system(seed=55)
        for _ in range(3):
            system.invoke(increment(1))
        path = tmp_path / "trace.jsonl"
        system.export_trace_jsonl(str(path))
        assert validate_schema.validate_trace_file(path) == []
