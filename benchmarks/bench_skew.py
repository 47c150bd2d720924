"""Skew benchmark: per-shard pipeline windows vs the global watermark.

Measures, on a 4-shard range-partitioned kvstore under the 80/20 hot-range
workload (80% of requests to the hottest quarter of the key space, i.e.
shard 0):

1. **skew** -- committed-requests/second over a fixed window with skew-aware
   concurrency (``per_shard_windows=True``, the ``SystemConfig.sharded``
   default) versus the single global contiguous watermark
   (``per_shard_windows=False``, the pre-skew-aware behaviour).
   Acceptance: >= 1.5x at 4 shards.  The per-shard committed breakdown
   shows *where* the win comes from: under the global watermark the hot
   shard's unanswered batches hold window slots that starve the cold
   shards.
2. **uniform** -- the hot-path uniform workload (identical configuration to
   ``bench_hotpath.py``'s crypto section) with per-shard pipelining on vs
   off: throughput must not regress, and certificate-verification crypto
   ops per committed request must stay within the committed
   ``hotpath_baseline.json`` ceiling.

Results go to ``BENCH_skew.json``; ``--quick`` shrinks the windows for CI
smoke runs, ``--check-regression`` gates against
``benchmarks/skew_baseline.json`` (plus the hot-path verify-op ceiling) and
``--update-baseline`` rewrites the baseline from the current measurement.
All virtual-time metrics are deterministic for a given ``--seed`` /
``--workload-seed``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_skew.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict

from repro.analysis import format_table
from repro.apps.kvstore import KeyValueStore
from repro.config import (
    BatchingConfig,
    SystemConfig,
    TimerConfig,
)
from repro.sharding import ShardedSystem
from repro.workloads import (
    equal_range_boundaries,
    hot_range_operations,
    run_skew_window,
    shard_affine_clients,
)

from bench_common import collect_critical_path, current_observability, obs_enabled, set_observability
from bench_hotpath import HOTPATH_CRYPTO, run_hotpath_workload

NUM_SHARDS = 4
KEY_SPACE = 64
NUM_CLIENTS = 48
#: fraction of requests (and of clients) hammering the hot shard's range
HOT_FRACTION = 0.8
#: window depth, used both as the global pipeline_depth of the baseline and
#: as the per-shard depth of the skew-aware configuration: the comparison
#: holds the per-component window size fixed and only changes whether one
#: window is shared by all shards or each shard gets its own
WINDOW_DEPTH = 16

#: slow protocol timers so an overloaded hot shard exercises back-pressure,
#: not view changes or retransmission storms
SKEW_TIMERS = TimerConfig(client_retransmit_ms=5_000.0,
                          agreement_retransmit_ms=1_000.0,
                          execution_fetch_ms=50.0, view_change_ms=20_000.0,
                          batch_timeout_ms=5.0)


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def build_skew_system(per_shard_windows: bool, seed: int) -> ShardedSystem:
    config = SystemConfig.sharded(
        NUM_SHARDS, strategy="range",
        range_boundaries=equal_range_boundaries(KEY_SPACE, NUM_SHARDS),
        num_clients=NUM_CLIENTS, pipeline_depth=WINDOW_DEPTH,
        checkpoint_interval=64, app_processing_ms=1.0,
        timers=SKEW_TIMERS, crypto=HOTPATH_CRYPTO,
        batching=BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=64),
        per_shard_windows=per_shard_windows,
        observability=current_observability())
    return ShardedSystem(config, KeyValueStore, seed=seed)


# ---------------------------------------------------------------------- #
# Section 1: committed/sec under 80/20 skew.
# ---------------------------------------------------------------------- #


def section_skew(quick: bool, seed: int, workload_seed: int,
                 trace_output: Path = None) -> Dict:
    num_requests = 8_000 if quick else 20_000
    duration_ms = 700.0 if quick else 2_000.0
    warmup_ms = 200.0 if quick else 300.0
    operations = hot_range_operations(
        num_requests, key_space=KEY_SPACE, hot_fraction=HOT_FRACTION,
        hot_key_fraction=1.0 / NUM_SHARDS, seed=workload_seed)
    affinity = shard_affine_clients(NUM_CLIENTS, NUM_SHARDS,
                                    hot_fraction=HOT_FRACTION)

    runs = {}
    systems = {}
    for label, per_shard_windows in (("global watermark", False),
                                     ("per-shard windows", True)):
        system = build_skew_system(per_shard_windows, seed=seed)
        systems[label] = system
        runs[label] = run_skew_window(
            system, operations=operations, client_shards=affinity,
            duration_ms=duration_ms, warmup_ms=warmup_ms, label=label)

    baseline = runs["global watermark"]
    pershard = runs["per-shard windows"]
    speedup = pershard.committed_per_sec / max(baseline.committed_per_sec, 1e-9)
    cold_base = sum(baseline.committed_by_shard[1:])
    cold_pershard = sum(pershard.committed_by_shard[1:])

    print_section(f"80/20 hot-range skew, {NUM_SHARDS} shards, "
                  f"{NUM_CLIENTS} shard-affine clients, window depth "
                  f"{WINDOW_DEPTH} (global vs per shard)")
    print(format_table(
        ["pipeline", "committed/s", "hot shard", "cold shards", "by shard"],
        [[label, result.committed_per_sec, result.committed_by_shard[0],
          sum(result.committed_by_shard[1:]),
          "/".join(str(count) for count in result.committed_by_shard)]
         for label, result in runs.items()]))
    print(f"skew speedup: {speedup:.2f}x   "
          f"cold-shard committed: {cold_base} -> {cold_pershard}")
    # The skew-aware configuration is this benchmark's primary measured
    # system: its trace feeds the exported JSONL and the critical path.
    critical_path = collect_critical_path(
        systems["per-shard windows"], trace_output,
        title="critical path, per-shard windows under 80/20 skew")
    return {
        "critical_path": critical_path,
        "num_requests": num_requests,
        "duration_ms": duration_ms,
        "hot_fraction": HOT_FRACTION,
        "window_depth": WINDOW_DEPTH,
        "committed_per_sec": {label: result.committed_per_sec
                              for label, result in runs.items()},
        "committed_by_shard": {label: result.committed_by_shard
                               for label, result in runs.items()},
        "clients_by_shard": baseline.clients_by_shard,
        "speedup": speedup,
        "speedup_pass": speedup >= 1.5,
    }


# ---------------------------------------------------------------------- #
# Section 2: uniform workload must not regress.
# ---------------------------------------------------------------------- #


def section_uniform(quick: bool, seed: int, workload_seed: int,
                    hotpath_baseline: Path) -> Dict:
    num_requests = 96 if quick else 240
    _, with_global = run_hotpath_workload(True, num_requests, seed,
                                          workload_seed,
                                          per_shard_windows=False)
    _, with_pershard = run_hotpath_workload(True, num_requests, seed,
                                            workload_seed,
                                            per_shard_windows=True)
    throughput_ratio = (with_pershard["throughput_rps"]
                        / max(with_global["throughput_rps"], 1e-9))

    verify_ceiling = None
    verify_pass = True
    if hotpath_baseline.exists():
        baseline = json.loads(hotpath_baseline.read_text())
        verify_ceiling = (baseline["verify_ops_per_committed_request"]
                          * (1.0 + baseline["tolerance"]))
        verify_pass = with_pershard["verify_ops_per_request"] <= verify_ceiling

    print_section("Uniform workload (hot-path configuration): "
                  "per-shard pipelining must not regress")
    print(format_table(
        ["pipeline", "virtual rps", "verify ops/req", "mean latency ms"],
        [["global watermark", with_global["throughput_rps"],
          with_global["verify_ops_per_request"], with_global["mean_latency_ms"]],
         ["per-shard windows", with_pershard["throughput_rps"],
          with_pershard["verify_ops_per_request"],
          with_pershard["mean_latency_ms"]]]))
    ceiling_text = ("n/a" if verify_ceiling is None else f"{verify_ceiling:.2f}")
    print(f"throughput ratio: {throughput_ratio:.3f}   verify ops/req "
          f"{with_pershard['verify_ops_per_request']:.2f} "
          f"(hot-path ceiling {ceiling_text})")
    return {
        "num_requests": num_requests,
        "global": {key: with_global[key]
                   for key in ("throughput_rps", "verify_ops_per_request",
                               "mean_latency_ms", "p95_latency_ms")},
        "per_shard": {key: with_pershard[key]
                      for key in ("throughput_rps", "verify_ops_per_request",
                                  "mean_latency_ms", "p95_latency_ms")},
        "throughput_ratio": throughput_ratio,
        "throughput_pass": throughput_ratio >= 0.95,
        "verify_ops_ceiling": verify_ceiling,
        "verify_ops_pass": verify_pass,
    }


# ---------------------------------------------------------------------- #
# Harness entry point.
# ---------------------------------------------------------------------- #


def run_all(quick: bool, seed: int, workload_seed: int,
            hotpath_baseline: Path, trace_output: Path = None) -> Dict:
    results = {
        "benchmark": "skew",
        "mode": "quick" if quick else "full",
        "unix_time": time.time(),
        "seed": seed,
        "workload_seed": workload_seed,
        "observability": obs_enabled(),
        "skew": section_skew(quick, seed, workload_seed,
                             trace_output=trace_output),
        "uniform": section_uniform(quick, seed, workload_seed, hotpath_baseline),
    }
    critical_path = results["skew"].pop("critical_path", None)
    if critical_path is not None:
        results["critical_path"] = critical_path
    results["pass"] = all([
        results["skew"]["speedup_pass"],
        results["uniform"]["throughput_pass"],
        results["uniform"]["verify_ops_pass"],
    ])
    return results


def check_regression(results: Dict, baseline_path: Path) -> int:
    """Gate the deterministic metrics against the committed baseline."""
    if not baseline_path.exists():
        print(f"regression check: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    tolerance = baseline["tolerance"]
    speedup = results["skew"]["speedup"]
    speedup_floor = max(1.5, baseline["skew_speedup"] * (1.0 - tolerance))
    ratio = results["uniform"]["throughput_ratio"]
    ratio_floor = baseline["uniform_throughput_ratio_floor"]
    print(f"regression check: skew speedup {speedup:.2f}x "
          f"(floor {speedup_floor:.2f}), uniform throughput ratio "
          f"{ratio:.3f} (floor {ratio_floor:.2f}), verify ops "
          f"{'ok' if results['uniform']['verify_ops_pass'] else 'REGRESSED'}")
    status = 0
    if speedup < speedup_floor:
        print("REGRESSION: skew speedup below baseline floor", file=sys.stderr)
        status = 1
    if ratio < ratio_floor:
        print("REGRESSION: uniform throughput regressed under per-shard "
              "pipelining", file=sys.stderr)
        status = 1
    if not results["uniform"]["verify_ops_pass"]:
        print("REGRESSION: verify ops/request above the hot-path ceiling",
              file=sys.stderr)
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller windows for CI smoke runs")
    parser.add_argument("--seed", type=int, default=11,
                        help="simulator seed (network jitter); explicit so CI "
                             "reruns are bit-identical")
    parser.add_argument("--workload-seed", type=int, default=5,
                        help="workload-generator RNG seed")
    parser.add_argument("--output", type=Path, default=Path("BENCH_skew.json"))
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the metrics registry and request tracing")
    parser.add_argument("--trace-output", type=Path,
                        default=Path("TRACE_skew.jsonl"),
                        help="JSONL destination for the skew run's trace "
                             "(ignored with --no-obs)")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "skew_baseline.json")
    parser.add_argument("--hotpath-baseline", type=Path,
                        default=Path(__file__).parent / "hotpath_baseline.json")
    parser.add_argument("--check-regression", action="store_true",
                        help="fail if the skew speedup or uniform metrics "
                             "regress below the baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run's measurement")
    args = parser.parse_args(argv)

    set_observability(not args.no_obs)
    results = run_all(quick=args.quick, seed=args.seed,
                      workload_seed=args.workload_seed,
                      hotpath_baseline=args.hotpath_baseline,
                      trace_output=None if args.no_obs else args.trace_output)
    args.output.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")

    status = 0
    if args.update_baseline:
        baseline = {
            "skew_speedup": results["skew"]["speedup"],
            "uniform_throughput_ratio_floor": 0.95,
            "tolerance": 0.15,
            "mode": results["mode"],
        }
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote baseline {args.baseline}")
    if args.check_regression:
        status = check_regression(results, args.baseline)
    if not results["pass"]:
        failed = [name for name, ok in [
            ("skew speedup >= 1.5x", results["skew"]["speedup_pass"]),
            ("uniform throughput ratio >= 0.95",
             results["uniform"]["throughput_pass"]),
            ("verify ops/request within hot-path ceiling",
             results["uniform"]["verify_ops_pass"]),
        ] if not ok]
        print("FAILED criteria: " + "; ".join(failed), file=sys.stderr)
        status = max(status, 1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
