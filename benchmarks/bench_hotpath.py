"""Hot-path benchmark harness: the verification/encoding fast path.

Measures, before vs after the fast path (``PerfConfig`` switches plus the
process-wide wire cache):

1. **crypto** -- certificate-verification crypto ops per committed request
   on the sharded 4-shard kvstore workload (the cost-model quantity the
   Figure-4 benchmarks charge virtual time for);
2. **wallclock** -- simulator wall-clock events/second on the uniform
   kvstore workload (how fast the machine can push the simulation);
3. **batching** -- adaptive (AIMD) bundle sizing vs static
   ``bundle_size in {1, 4, 16}``: simulated throughput at high offered load
   and p50 latency at low load;
4. **micro** -- ``__slots__`` object sizes/instantiation rate and the event
   queue's O(1) length + cancelled-timer compaction.

Everything is written to ``BENCH_hotpath.json`` (machine-readable, with
explicit pass/fail flags per acceptance criterion).  ``--quick`` shrinks the
workloads for CI smoke runs; ``--check-regression`` compares the *after*
verify-op count per committed request against ``hotpath_baseline.json`` and
exits non-zero on a regression; ``--update-baseline`` rewrites the baseline
from the current measurement.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

from bench_common import current_observability, obs_enabled, set_observability
from repro.analysis import format_table
from repro.apps.kvstore import KeyValueStore
from repro.apps.null_service import NullService
from repro.config import (
    AuthenticationScheme,
    BatchingConfig,
    CryptoCosts,
    PerfConfig,
    SystemConfig,
    TimerConfig,
)
from repro.core import SeparatedSystem
from repro.sharding import ShardedSystem
from repro.util.wirecache import WIRE_CACHE
from repro.workloads import run_latency_benchmark, run_multishard_workload, run_open_loop

#: the crypto-op counters that constitute "certificate verification work"
VERIFY_OPS = ("mac_verify", "signature_verify", "threshold_share_verify",
              "threshold_verify")
#: their cache-hit counterparts (charged nothing, recorded for accounting)
VERIFY_CACHED_OPS = tuple(op + "_cached" for op in VERIFY_OPS) + ("certificate_cached",)

#: timers tuned so the saturated closed loop retransmits sparingly
HOTPATH_TIMERS = TimerConfig(client_retransmit_ms=400.0, agreement_retransmit_ms=200.0,
                             execution_fetch_ms=50.0, view_change_ms=1_000.0,
                             batch_timeout_ms=1.0)
#: cheap MACs and a 1 ms application so execution work dominates (as in
#: bench_shard_scaling) and the verification fast path is visible end to end
HOTPATH_CRYPTO = CryptoCosts(mac_ms=0.05, signature_sign_ms=0.5,
                             signature_verify_ms=0.1, threshold_share_ms=1.0,
                             threshold_combine_ms=0.2, threshold_verify_ms=0.1)

ADAPTIVE = BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=64)

FASTPATH_OFF = PerfConfig(verified_cert_cache=False, digest_memo=False,
                          shard_verify_owned_only=False)


def _set_fast_path(enabled: bool) -> None:
    """Enable/disable the process-wide wire cache (per-system switches are
    carried by ``PerfConfig``)."""
    WIRE_CACHE.configure(enabled=enabled)
    WIRE_CACHE.reset()


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


# ---------------------------------------------------------------------- #
# Section 1 + 2: sharded kvstore, crypto ops and wall-clock events/sec.
# ---------------------------------------------------------------------- #


def build_sharded(perf: PerfConfig, num_shards: int = 4, seed: int = 42,
                  per_shard_windows: bool = False) -> ShardedSystem:
    import dataclasses

    # A 5 ms bundle-fill window lets the adaptive controller assemble
    # multi-request (and therefore multi-shard) bundles under the closed
    # loop; before/after use the identical batching configuration, so the
    # comparison isolates the verification fast path.  The pipeline is
    # pinned to the classic global watermark for the same reason: this
    # benchmark measures the verification/encoding fast path, and the
    # per-shard pipeline (which changes the bundle layout) is measured
    # separately by bench_skew.py.
    timers = dataclasses.replace(HOTPATH_TIMERS, batch_timeout_ms=5.0)
    config = SystemConfig.sharded(
        num_shards=num_shards, num_clients=16, pipeline_depth=64,
        checkpoint_interval=64, app_processing_ms=1.0,
        timers=timers, crypto=HOTPATH_CRYPTO,
        batching=ADAPTIVE, perf=perf,
        per_shard_windows=per_shard_windows,
        observability=current_observability())
    return ShardedSystem(config, KeyValueStore, seed=seed)


def crypto_totals(system) -> Dict[str, int]:
    """Crypto-op counts summed over every process (servers and clients)."""
    totals: Dict[str, int] = {}
    for process in list(system.server_processes()) + list(system.clients):
        for op, count in process.stats.crypto_ops.items():
            totals[op] = totals.get(op, 0) + count
    return totals


def run_hotpath_workload(fast_path: bool, num_requests: int, seed: int = 42,
                         workload_seed: int = 7,
                         per_shard_windows: bool = False,
                         trace_output: Path = None):
    """One uniform 4-shard kvstore run; returns (result, metrics dict).

    ``seed`` drives the simulator (network jitter) and ``workload_seed`` the
    workload RNG; both are explicit so CI reruns are bit-identical.  With
    observability on, ``metrics["critical_path"]`` carries the per-stage
    breakdown folded from the run's trace (and ``trace_output``, when given,
    receives the raw trace as JSONL).
    """
    _set_fast_path(fast_path)
    system = build_sharded(PerfConfig() if fast_path else FASTPATH_OFF, seed=seed,
                           per_shard_windows=per_shard_windows)
    events_before = system.scheduler.events_processed
    wall_start = time.perf_counter()
    result = run_multishard_workload(
        system, label="fast path on" if fast_path else "fast path off",
        num_requests=num_requests, key_space=96, distribution="uniform",
        seed=workload_seed)
    wall_elapsed = max(time.perf_counter() - wall_start, 1e-9)
    events = system.scheduler.events_processed - events_before
    totals = crypto_totals(system)
    verify_ops = sum(totals.get(op, 0) for op in VERIFY_OPS)
    cached_hits = sum(totals.get(op, 0) for op in VERIFY_CACHED_OPS)
    metrics = {
        "completed": result.completed,
        "throughput_rps": result.throughput_rps,
        "mean_latency_ms": result.mean_latency_ms,
        "p95_latency_ms": result.p95_latency_ms,
        "verify_ops": verify_ops,
        "verify_ops_per_request": verify_ops / max(result.completed, 1),
        "verify_cache_hits": cached_hits,
        "digest_ops": totals.get("digest", 0),
        "digest_cached": totals.get("digest_cached", 0),
        "events_processed": events,
        "wall_seconds": wall_elapsed,
        "events_per_sec": events / wall_elapsed,
    }
    if system.config.observability.tracing:
        metrics["critical_path"] = system.critical_path()
        if trace_output is not None:
            system.export_trace_jsonl(str(trace_output))
    _set_fast_path(True)
    return result, metrics


def section_crypto_and_wallclock(quick: bool, seed: int = 42,
                                 workload_seed: int = 7,
                                 trace_output: Path = None) -> Dict:
    num_requests = 96 if quick else 240
    # Wall-clock measurement repeats: virtual metrics are deterministic, but
    # wall-clock is noisy, so take the best (least-interfered) of N runs.
    repeats = 1 if quick else 2
    before_runs = [run_hotpath_workload(False, num_requests, seed, workload_seed)
                   for _ in range(repeats)]
    # The first fast-path-on run is this benchmark's primary measured system:
    # its trace is the one exported and folded into the critical path.
    after_runs = [run_hotpath_workload(True, num_requests, seed, workload_seed,
                                       trace_output=trace_output if i == 0 else None)
                  for i in range(repeats)]
    before = before_runs[0][1]
    after = after_runs[0][1]
    before["events_per_sec"] = max(m["events_per_sec"] for _, m in before_runs)
    after["events_per_sec"] = max(m["events_per_sec"] for _, m in after_runs)
    # Hoist the primary run's breakdown out of the per-config metrics so the
    # results JSON carries exactly one copy, at the top level.
    before.pop("critical_path", None)
    critical_path = after.pop("critical_path", None)

    reduction = 1.0 - (after["verify_ops_per_request"]
                       / max(before["verify_ops_per_request"], 1e-9))
    speedup = after["events_per_sec"] / max(before["events_per_sec"], 1e-9)
    print_section("Hot path: certificate verification ops and wall-clock "
                  "events/sec (4-shard uniform kvstore)")
    print(format_table(
        ["config", "verify ops/req", "cache hits", "digest ops", "digest cached",
         "virtual rps", "events/sec"],
        [["fast path off", before["verify_ops_per_request"], before["verify_cache_hits"],
          before["digest_ops"], before["digest_cached"],
          before["throughput_rps"], before["events_per_sec"]],
         ["fast path on", after["verify_ops_per_request"], after["verify_cache_hits"],
          after["digest_ops"], after["digest_cached"],
          after["throughput_rps"], after["events_per_sec"]]]))
    print(f"verify-op reduction: {100 * reduction:.1f}%   "
          f"wall-clock speedup: {speedup:.2f}x")
    if critical_path is not None:
        from repro.analysis.critical_path import format_critical_path_table
        print()
        print(format_critical_path_table(
            critical_path, title="critical path, fast path on "
            f"({critical_path['traces']} completed traces)"))
    return {
        "critical_path": critical_path,
        "num_requests": num_requests,
        "before": before,
        "after": after,
        "verify_op_reduction": reduction,
        "verify_reduction_pass": reduction >= 0.30,
        "wallclock_speedup": speedup,
        "wallclock_pass": speedup >= 1.5,
    }


# ---------------------------------------------------------------------- #
# Section 3: adaptive vs static bundling.
# ---------------------------------------------------------------------- #


def build_batching_system(bundle, seed: int = 105) -> SeparatedSystem:
    """Null-service separated system with threshold reply certificates (the
    Figure-5 configuration, where bundling matters most).

    ``bundle`` is an int (static bundle size; sizes > 1 use the paper's
    fill-the-bundle flush timeout, as in ``bench_fig5_throughput``) or
    ``"adaptive"`` (AIMD under the same 100 ms flush-timeout bound -- at
    ``min_bundle == 1`` every light-load take is a full bundle taken at
    arrival time, so the timeout never actually delays a request).
    """
    import dataclasses

    timers = HOTPATH_TIMERS
    batching = BatchingConfig()
    bundle_size = 1
    if bundle == "adaptive":
        batching = ADAPTIVE
        timers = dataclasses.replace(timers, batch_timeout_ms=100.0)
    else:
        bundle_size = bundle
        if bundle > 1:
            timers = dataclasses.replace(timers, batch_timeout_ms=100.0)
    config = SystemConfig(
        num_clients=16, pipeline_depth=64, checkpoint_interval=128,
        bundle_size=bundle_size, batching=batching,
        authentication=AuthenticationScheme.THRESHOLD,
        timers=timers, observability=current_observability())
    return SeparatedSystem(config, NullService, seed=seed)


def section_batching(quick: bool) -> Dict:
    duration_ms = 800.0 if quick else 1_500.0
    high_load_rps = 400
    static_sizes = [1, 4, 16]
    high: Dict[str, float] = {}
    max_bundle_seen: Dict[str, int] = {}
    for bundle in static_sizes + ["adaptive"]:
        system = build_batching_system(bundle)
        result = run_open_loop(system, offered_load_rps=high_load_rps,
                               duration_ms=duration_ms, request_bytes=1024,
                               reply_bytes=1024, drain_ms=3_000.0)
        high[str(bundle)] = result.achieved_throughput_rps
        max_bundle_seen[str(bundle)] = max(
            replica.proposer.batcher.largest_batch
            for replica in system.agreement_replicas)

    low: Dict[str, float] = {}
    low_requests = 20 if quick else 40
    for bundle in [1, "adaptive"]:
        system = build_batching_system(bundle)
        latency = run_latency_benchmark(system, label=str(bundle),
                                        request_bytes=1024, reply_bytes=1024,
                                        requests=low_requests, warmup=5)
        low[str(bundle)] = latency.median_ms

    best_static = max(high[str(size)] for size in static_sizes)
    # "matches or beats": a 2% tolerance absorbs simulation noise from the
    # different retransmission trajectories of each configuration.
    high_pass = high["adaptive"] >= 0.98 * best_static
    p50_ratio = low["adaptive"] / max(low["1"], 1e-9)
    low_pass = p50_ratio <= 1.10

    print_section("Adaptive vs static bundling (null service, threshold replies)")
    print(format_table(
        ["bundle", f"high-load rps (offered {high_load_rps})", "largest bundle taken"],
        [[label, high[label], max_bundle_seen[label]]
         for label in [str(s) for s in static_sizes] + ["adaptive"]]))
    print(format_table(
        ["bundle", "low-load p50 ms"],
        [[label, low[label]] for label in ("1", "adaptive")]))
    print(f"adaptive vs best static throughput: {high['adaptive'] / best_static:.2f}x   "
          f"low-load p50 ratio vs bundle=1: {p50_ratio:.2f}")
    return {
        "high_load_rps_offered": high_load_rps,
        "high_load_throughput": high,
        "largest_bundle_taken": max_bundle_seen,
        "low_load_p50_ms": low,
        "high_load_pass": high_pass,
        "low_load_p50_ratio": p50_ratio,
        "low_load_pass": low_pass,
    }


# ---------------------------------------------------------------------- #
# Section 4: micro-benchmarks (__slots__ and the event queue).
# ---------------------------------------------------------------------- #


def section_micro(quick: bool) -> Dict:
    from repro.crypto.certificate import Authenticator
    from repro.sim.events import Event, EventQueue
    from repro.config import AuthenticationScheme as Scheme
    from repro.util.ids import execution_id

    count = 50_000 if quick else 200_000

    class DictEvent:
        """Reference point: the same fields without __slots__."""

        def __init__(self, time, sequence, callback, label="", cancelled=False,
                     fired=False, queue=None):
            self.time = time
            self.sequence = sequence
            self.callback = callback
            self.label = label
            self.cancelled = cancelled
            self.fired = fired
            self.queue = queue

    def instantiation_rate(factory) -> float:
        start = time.perf_counter()
        for i in range(count):
            factory(float(i), i, None)
        return count / max(time.perf_counter() - start, 1e-9)

    # Both by keyword, as EventQueue.push constructs them: a positional call
    # is ~1.6x faster for either class, which would swamp the difference
    # between the classes.
    slotted_rate = instantiation_rate(lambda t, s, c: Event(time=t, sequence=s, callback=c))
    dict_rate = instantiation_rate(lambda t, s, c: DictEvent(time=t, sequence=s, callback=c))

    event = Event(time=0.0, sequence=0, callback=lambda: None)
    auth = Authenticator(signer=execution_id(0), scheme=Scheme.MAC,
                         payload_digest=b"\x00" * 32, token={})

    # Event-queue compaction: push retransmit-style timers, cancel most of
    # them (the reply-arrived pattern), and check the heap stays compact.
    queue = EventQueue()
    events: List[Event] = []
    start = time.perf_counter()
    for i in range(count):
        events.append(queue.push(float(i), lambda: None, label="retransmit"))
        if i % 8 != 0:
            events[-1].cancel()
    push_cancel_rate = count / max(time.perf_counter() - start, 1e-9)
    live = len(queue)
    heap_entries = queue.heap_size

    print_section("Micro: __slots__ and event-queue compaction")
    print(format_table(
        ["metric", "value"],
        [["Event instantiations/sec (slotted)", slotted_rate],
         ["Event instantiations/sec (dict-based reference)", dict_rate],
         ["Event has __dict__", hasattr(event, "__dict__")],
         ["Event shallow bytes", sys.getsizeof(event)],
         ["DictEvent shallow bytes", sys.getsizeof(DictEvent(0.0, 0, None))
          + sys.getsizeof(DictEvent(0.0, 0, None).__dict__)],
         ["Authenticator has __dict__", hasattr(auth, "__dict__")],
         ["queue push+cancel ops/sec", push_cancel_rate],
         ["live events after cancels", live],
         ["heap entries after compaction", heap_entries]]))
    return {
        "event_instantiations_per_sec_slotted": slotted_rate,
        "event_instantiations_per_sec_dict": dict_rate,
        "event_slotted": not hasattr(event, "__dict__"),
        "authenticator_slotted": not hasattr(auth, "__dict__"),
        "event_shallow_bytes": sys.getsizeof(event),
        "queue_push_cancel_ops_per_sec": push_cancel_rate,
        "queue_live_after_cancels": live,
        "queue_heap_entries_after_cancels": heap_entries,
        "compaction_effective": heap_entries <= max(2 * live, 64),
    }


# ---------------------------------------------------------------------- #
# Harness entry point.
# ---------------------------------------------------------------------- #


def run_all(quick: bool, seed: int = 42, workload_seed: int = 7,
            trace_output: Path = None) -> Dict:
    results = {
        "benchmark": "hotpath",
        "mode": "quick" if quick else "full",
        "unix_time": time.time(),
        "seed": seed,
        "workload_seed": workload_seed,
        "observability": obs_enabled(),
        "crypto": section_crypto_and_wallclock(quick, seed, workload_seed,
                                               trace_output=trace_output),
        "batching": section_batching(quick),
        "micro": section_micro(quick),
    }
    critical_path = results["crypto"].pop("critical_path", None)
    if critical_path is not None:
        results["critical_path"] = critical_path
    # Virtual-time criteria are deterministic for a given seed and safe to
    # gate CI on; the wall-clock speedup depends on the machine and is
    # reported (and flagged) but never fails the exit status.
    results["deterministic_pass"] = all([
        results["crypto"]["verify_reduction_pass"],
        results["batching"]["high_load_pass"],
        results["batching"]["low_load_pass"],
    ])
    results["pass"] = results["deterministic_pass"] and results["crypto"]["wallclock_pass"]
    return results


def check_regression(results: Dict, baseline_path: Path) -> int:
    """Compare the deterministic verify-op metric against the baseline."""
    if not baseline_path.exists():
        print(f"regression check: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    measured = results["crypto"]["after"]["verify_ops_per_request"]
    ceiling = baseline["verify_ops_per_committed_request"] * (1.0 + baseline["tolerance"])
    print(f"regression check: measured {measured:.2f} verify ops/request, "
          f"baseline {baseline['verify_ops_per_committed_request']:.2f} "
          f"(+{100 * baseline['tolerance']:.0f}% ceiling {ceiling:.2f})")
    if measured > ceiling:
        print("REGRESSION: verify-op count per committed request exceeds baseline",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads for CI smoke runs")
    parser.add_argument("--seed", type=int, default=42,
                        help="simulator seed (network jitter); explicit so CI "
                             "reruns are bit-identical")
    parser.add_argument("--workload-seed", type=int, default=7,
                        help="workload-generator RNG seed")
    parser.add_argument("--output", type=Path, default=Path("BENCH_hotpath.json"))
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the metrics registry and request tracing "
                             "(the overhead gate compares this against the "
                             "default run; virtual-time results are identical)")
    parser.add_argument("--trace-output", type=Path,
                        default=Path("TRACE_hotpath.jsonl"),
                        help="JSONL destination for the primary run's trace "
                             "(ignored with --no-obs)")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "hotpath_baseline.json")
    parser.add_argument("--check-regression", action="store_true",
                        help="fail if verify ops/request regress above the baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run's measurement")
    args = parser.parse_args(argv)

    set_observability(not args.no_obs)
    results = run_all(quick=args.quick, seed=args.seed,
                      workload_seed=args.workload_seed,
                      trace_output=None if args.no_obs else args.trace_output)
    args.output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")

    status = 0
    if args.update_baseline:
        baseline = {
            "verify_ops_per_committed_request":
                results["crypto"]["after"]["verify_ops_per_request"],
            "tolerance": 0.15,
            "mode": results["mode"],
        }
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote baseline {args.baseline}")
    if args.check_regression:
        status = check_regression(results, args.baseline)
    if not results["crypto"]["wallclock_pass"]:
        print("WARNING: wall-clock speedup below 1.5x on this machine "
              "(timing-dependent; not gated)", file=sys.stderr)
    if not results["deterministic_pass"]:
        failed = [name for name, ok in [
            ("verify reduction >= 30%", results["crypto"]["verify_reduction_pass"]),
            ("adaptive matches/beats static at high load",
             results["batching"]["high_load_pass"]),
            ("adaptive p50 within 10% of bundle=1 at low load",
             results["batching"]["low_load_pass"]),
        ] if not ok]
        print("FAILED criteria: " + "; ".join(failed), file=sys.stderr)
        status = max(status, 1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
