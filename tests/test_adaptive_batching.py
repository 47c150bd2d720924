"""Tests for adaptive (AIMD) bundle sizing.

Satellite requirements: bundles grow under open-loop overload, shrink when
the load goes away, never violate the batch-timeout latency bound, and the
whole trajectory is deterministic for a given seed.
"""

import dataclasses
import statistics

import pytest

from conftest import FAST_TIMERS, make_config
from repro.agreement.batching import (
    BUNDLE_DECREASE,
    CONGESTION_REQUESTS,
    AdaptiveBundleController,
    Batcher,
    StaticBundleController,
    make_bundle_controller,
)
from repro.apps.kvstore import KeyValueStore
from repro.apps.null_service import NullService, null_operation
from repro.config import BatchingConfig, ShardingConfig, SystemConfig
from repro.core import SeparatedSystem
from repro.errors import ConfigurationError
from repro.sharding import ShardedSystem
from repro.workloads import run_multishard_workload

ADAPTIVE = BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=32)

#: a bundle-fill window long enough for bundles to actually form in tests
BATCH_5MS = dataclasses.replace(FAST_TIMERS, batch_timeout_ms=5.0)


class TestControllerUnit:
    def test_grows_additively_under_queue_backlog(self):
        controller = AdaptiveBundleController(ADAPTIVE)
        for expected in range(2, 6):
            controller.on_take(backlog_before=10, taken=1, in_flight=0)
            assert controller.current == expected

    def test_grows_under_pipeline_congestion(self):
        controller = AdaptiveBundleController(ADAPTIVE)
        # One request in flight plus a full take: concurrent demand (2)
        # exceeds the current bundle size (1), so the bundle grows.
        controller.on_take(backlog_before=1, taken=1, in_flight=1)
        assert controller.current == 2

    def test_full_take_with_idle_pipeline_is_neutral(self):
        controller = AdaptiveBundleController(ADAPTIVE)
        controller.on_take(backlog_before=1, taken=1, in_flight=0)
        assert controller.current == 1
        assert controller.increases == 0 and controller.decreases == 0

    def test_shrinks_multiplicatively_when_idle(self):
        controller = AdaptiveBundleController(ADAPTIVE)
        for _ in range(7):
            controller.on_take(backlog_before=20, taken=8, in_flight=0)
        grown = controller.current
        assert grown > 2
        controller.on_take(backlog_before=1, taken=1, in_flight=0)
        assert controller.current == max(1, int(grown * BUNDLE_DECREASE))

    def test_partial_take_under_congestion_does_not_shrink(self):
        controller = AdaptiveBundleController(ADAPTIVE)
        for _ in range(5):
            controller.on_take(backlog_before=20, taken=4, in_flight=0)
        grown = controller.current
        assert grown > 4
        # A small timer-forced take while requests are still in flight is
        # the normal gathering step of a saturated loop, not light load.
        controller.on_take(backlog_before=2, taken=2,
                           in_flight=CONGESTION_REQUESTS)
        assert controller.current == grown

    def test_respects_bounds(self):
        config = BatchingConfig(mode="adaptive", min_bundle=2, max_bundle=4)
        controller = AdaptiveBundleController(config)
        for _ in range(10):
            controller.on_take(backlog_before=50, taken=2, in_flight=0)
        assert controller.current == 4
        for _ in range(10):
            controller.on_take(backlog_before=1, taken=1, in_flight=0)
        assert controller.current == 2

    def test_static_controller_never_moves(self):
        controller = StaticBundleController(3)
        controller.on_take(backlog_before=50, taken=3, in_flight=9)
        assert controller.current == 3

    def test_factory_selects_by_config(self):
        static = make_bundle_controller(make_config(bundle_size=4))
        assert isinstance(static, StaticBundleController)
        assert static.current == 4
        adaptive = make_bundle_controller(make_config(batching=ADAPTIVE))
        assert isinstance(adaptive, AdaptiveBundleController)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(mode="magic").validate()
        with pytest.raises(ConfigurationError):
            BatchingConfig(mode="adaptive", min_bundle=4, max_bundle=2).validate()

    def test_batcher_exposes_controller_size(self):
        batcher = Batcher(1, controller=AdaptiveBundleController(ADAPTIVE))
        assert batcher.bundle_size == 1
        batcher.controller.on_take(backlog_before=10, taken=1, in_flight=0)
        assert batcher.bundle_size == 2


def overload_system(seed=21, **overrides):
    """A separated null-service system that saturates under a burst."""
    config = make_config(num_clients=8, app_processing_ms=2.0,
                         timers=BATCH_5MS, batching=ADAPTIVE, **overrides)
    return SeparatedSystem(config, NullService, seed=seed)


def run_burst(system, num_requests=64, timeout_ms=120_000.0):
    for i in range(num_requests):
        system.submit(null_operation(tag=i), client_index=i % len(system.clients))
    system.run_until(lambda: system.total_completed() >= num_requests, timeout_ms,
                     description=f"{num_requests} burst completions")
    return system


class TestAdaptiveIntegration:
    def test_bundles_grow_under_overload(self):
        system = run_burst(overload_system())
        primary = system.agreement_replicas[0]
        assert primary.proposer.batcher.largest_batch > 1
        assert primary.proposer.batcher.controller.increases > 0
        # Bundling actually amortised agreement: fewer batches than requests.
        assert primary.batches_delivered < 64

    def test_bundles_shrink_when_load_stops(self):
        system = run_burst(overload_system())
        primary = system.agreement_replicas[0]
        grown = primary.proposer.batcher.controller.current
        assert grown > 1
        # Sparse follow-up traffic: one request at a time, fully drained.
        for i in range(8):
            system.invoke(null_operation(tag=1000 + i), client_index=0)
            system.run(50.0)
        assert primary.proposer.batcher.controller.current == 1
        assert primary.proposer.batcher.controller.decreases > 0

    def test_latency_bound_at_light_load(self):
        """At light load adaptive bundling must cost no extra latency even
        with a long bundle-fill timeout configured."""
        long_flush = dataclasses.replace(FAST_TIMERS, batch_timeout_ms=100.0)
        adaptive = SeparatedSystem(
            make_config(batching=ADAPTIVE, timers=long_flush), NullService, seed=5)
        static1 = SeparatedSystem(
            make_config(bundle_size=1), NullService, seed=5)
        adaptive_latencies = [adaptive.invoke(null_operation(tag=i)).latency_ms
                              for i in range(10)]
        static_latencies = [static1.invoke(null_operation(tag=i)).latency_ms
                            for i in range(10)]
        adaptive_p50 = statistics.median(adaptive_latencies)
        static_p50 = statistics.median(static_latencies)
        assert adaptive_p50 <= static_p50 * 1.10
        # And no single request waited anywhere near the 100 ms flush bound.
        assert max(adaptive_latencies) < static_p50 + long_flush.batch_timeout_ms

    def test_deterministic_for_a_seed(self):
        def trajectory(seed):
            system = run_burst(overload_system(seed=seed))
            primary = system.agreement_replicas[0]
            return (primary.proposer.batcher.total_batches,
                    primary.proposer.batcher.largest_batch,
                    primary.proposer.batcher.controller.current,
                    tuple(round(l, 9) for l in system.all_latencies_ms()))

        for seed in (3, 21):
            assert trajectory(seed) == trajectory(seed)

    def test_sharded_system_exercises_adaptive_batching(self):
        config = make_config(num_clients=8, app_processing_ms=1.0,
                             timers=BATCH_5MS, batching=ADAPTIVE,
                             sharding=ShardingConfig(num_shards=2))
        system = ShardedSystem(config, KeyValueStore, seed=13)
        result = run_multishard_workload(system, num_requests=64, key_space=32,
                                         distribution="uniform", seed=9)
        assert result.completed == 64
        primary = system.agreement_replicas[0]
        assert primary.proposer.batcher.largest_batch > 1
        # Both shards executed work carved from the grown bundles.
        assert all(count > 0 for count in result.requests_by_shard)
