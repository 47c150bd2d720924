"""Cross-shard benchmark: consistent-cut operations must not collapse throughput.

Measures, on a 4-shard range-partitioned kvstore:

1. **throughput** -- committed client requests/second over a fixed window
   for the mixed workload (10% multi-shard operations: snapshot reads over
   2..4 shards and write transactions with read-set validation) versus the
   *single-shard-only* run of the identical configuration and seed.
   Acceptance: the mixed run keeps >= 0.8x the single-shard-only
   committed-requests/sec -- ordering every multi-shard operation as its
   own consistent-cut marker costs batching efficiency and (for
   transactions) one vote round-trip, but must not serialise the system.
2. **audit** -- every completed multi-shard reply is audited for snapshot
   consistency: committed transactions stamp all audit keys atomically at
   their cut, so a multi-shard read observing two different stamps is a
   torn snapshot (must never happen), and a conflict transaction (wrong
   expected read value) must abort on every replica.
3. **census** -- sends and bytes per completed operation of the mixed
   run, per message type (``NetworkStats.census()``): the reply path's
   traffic shows as ``CrossShardSubReply``, one per touched replica.

Results go to ``BENCH_crossshard.json``; ``--quick`` shrinks the windows
for CI smoke runs, ``--check-regression`` gates against
``benchmarks/crossshard_baseline.json`` and ``--update-baseline`` rewrites
the baseline from the current measurement.  All virtual-time metrics are
deterministic for a given ``--seed`` / ``--workload-seed``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_crossshard.py --quick
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
    CrossShardConfig,
    SystemConfig,
    TimerConfig,
)
from repro.sharding import ShardedSystem
from repro.workloads import (
    audit_snapshot_consistency,
    equal_range_boundaries,
    mixed_cross_shard_operations,
    run_crossshard_window,
    seed_operations,
)

from bench_common import collect_critical_path, current_observability, obs_enabled, set_observability
from bench_hotpath import HOTPATH_CRYPTO

NUM_SHARDS = 4
KEY_SPACE = 64
NUM_CLIENTS = 32
#: fraction of operations spanning several shards in the mixed run
MULTI_FRACTION = 0.1

#: slow protocol timers so back-pressure, not retransmission storms or view
#: changes, shapes the measurement (mirrors the skew benchmark)
CROSSSHARD_TIMERS = TimerConfig(client_retransmit_ms=5_000.0,
                                agreement_retransmit_ms=1_000.0,
                                execution_fetch_ms=50.0,
                                view_change_ms=20_000.0,
                                batch_timeout_ms=5.0)


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def build_system(seed: int) -> ShardedSystem:
    config = SystemConfig.sharded(
        NUM_SHARDS, strategy="range",
        range_boundaries=equal_range_boundaries(KEY_SPACE, NUM_SHARDS),
        num_clients=NUM_CLIENTS, checkpoint_interval=64,
        app_processing_ms=1.0, timers=CROSSSHARD_TIMERS,
        crypto=HOTPATH_CRYPTO,
        batching=BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=64),
        cross_shard=CrossShardConfig(enabled=True),
        observability=current_observability())
    return ShardedSystem(config, KeyValueStore, seed=seed)


def run_window(multi_fraction: float, label: str, *, quick: bool, seed: int,
               workload_seed: int):
    num_requests = 6_000 if quick else 16_000
    duration_ms = 700.0 if quick else 2_000.0
    warmup_ms = 200.0 if quick else 300.0
    system = build_system(seed)
    # Install the constant and audit keys before the window so every
    # read-validating transaction sees a well-defined expected value.
    for operation in seed_operations(KEY_SPACE, NUM_SHARDS):
        system.invoke(operation)
    operations = mixed_cross_shard_operations(
        num_requests, key_space=KEY_SPACE, num_shards=NUM_SHARDS,
        multi_fraction=multi_fraction, seed=workload_seed)
    result = run_crossshard_window(system, operations=operations,
                                   duration_ms=duration_ms,
                                   warmup_ms=warmup_ms, label=label)
    return system, result


def section_throughput(quick: bool, seed: int, workload_seed: int) -> Dict:
    single_system, single = run_window(0.0, "single-shard only", quick=quick,
                                       seed=seed, workload_seed=workload_seed)
    mixed_system, mixed = run_window(MULTI_FRACTION,
                                     f"{int(MULTI_FRACTION * 100)}% multi-shard",
                                     quick=quick, seed=seed,
                                     workload_seed=workload_seed)
    ratio = mixed.completed_per_sec / max(single.completed_per_sec, 1e-9)
    markers = sum(queue.cross_shard_markers
                  for queue in mixed_system.message_queues)

    print_section(f"Mixed workload, {NUM_SHARDS} shards, {NUM_CLIENTS} "
                  f"clients: committed/sec with {int(MULTI_FRACTION * 100)}% "
                  f"multi-shard operations vs single-shard only")
    print(format_table(
        ["workload", "completed/s", "multi ops", "executed by shard"],
        [[result.label, result.completed_per_sec, result.multi_completed,
          "/".join(str(count) for count in result.executed_by_shard)]
         for result in (single, mixed)]))
    print(f"throughput ratio: {ratio:.3f}   cross-shard markers released "
          f"(per queue max): {markers // max(len(mixed_system.message_queues), 1)}")
    return mixed_system, {
        "duration_ms": single.duration_ms,
        "multi_fraction": MULTI_FRACTION,
        "completed_per_sec": {result.label: result.completed_per_sec
                              for result in (single, mixed)},
        "multi_completed": mixed.multi_completed,
        "executed_by_shard": {result.label: result.executed_by_shard
                              for result in (single, mixed)},
        "throughput_ratio": ratio,
        "throughput_pass": ratio >= 0.8,
        "multi_pass": mixed.multi_completed > 0,
    }


def section_audit(mixed_system) -> Dict:
    # Drain the remaining submitted work so the audit covers the full
    # deterministic stream, then inspect every completed multi-shard reply.
    mixed_system.run(4_000.0)
    audit = audit_snapshot_consistency(mixed_system.clients)
    invalid = sum(client.invalid_cross_shard_replies
                  for client in mixed_system.clients)

    print_section("Snapshot-consistency audit over completed multi-shard replies")
    print(format_table(
        ["audited reads", "torn reads", "committed txns", "aborted txns",
         "conflict commits", "invalid replies"],
        [[audit.audited_reads, audit.torn_reads, audit.committed_txns,
          audit.aborted_txns, audit.conflict_commits, invalid]]))
    verdict = "CONSISTENT" if audit.consistent else "TORN SNAPSHOT DETECTED"
    print(f"audit verdict: {verdict}")
    return {
        "audited_reads": audit.audited_reads,
        "torn_reads": audit.torn_reads,
        "committed_txns": audit.committed_txns,
        "aborted_txns": audit.aborted_txns,
        "conflict_commits": audit.conflict_commits,
        "invalid_replies": invalid,
        "audit_pass": (audit.consistent and audit.audited_reads > 0
                       and audit.committed_txns > 0
                       and audit.aborted_txns > 0),
    }


def section_census(mixed_system) -> Dict:
    """Sends and bytes per completed operation over the whole mixed run
    (seeding, window and drain), per message type."""
    completed = max(mixed_system.total_completed(), 1)
    per_type = {name: {"sends_per_op": counts["sends"] / completed,
                       "bytes_per_op": counts["bytes"] / completed}
                for name, counts in mixed_system.network.stats.census().items()}
    print_section("Census: sends and bytes per completed operation")
    print(format_table(
        ["message type", "sends/op", "bytes/op"],
        [[name, row["sends_per_op"], row["bytes_per_op"]]
         for name, row in sorted(per_type.items(),
                                 key=lambda item: -item[1]["bytes_per_op"])]))
    return {"completed": completed, "per_type": per_type}


def run_all(quick: bool, seed: int, workload_seed: int,
            trace_output: Path = None) -> Dict:
    mixed_system, throughput = section_throughput(quick, seed, workload_seed)
    results = {
        "benchmark": "crossshard",
        "mode": "quick" if quick else "full",
        "unix_time": time.time(),
        "seed": seed,
        "workload_seed": workload_seed,
        "observability": obs_enabled(),
        "throughput": throughput,
        "audit": section_audit(mixed_system),
        "census": section_census(mixed_system),
    }
    # Collect after the audit's drain so the trace covers the full stream,
    # including every cross-shard vote round and fragment (the mixed run is
    # this benchmark's primary measured system).
    critical_path = collect_critical_path(
        mixed_system, trace_output,
        title="critical path, mixed workload with multi-shard operations")
    if critical_path is not None:
        results["critical_path"] = critical_path
    results["pass"] = all([
        results["throughput"]["throughput_pass"],
        results["throughput"]["multi_pass"],
        results["audit"]["audit_pass"],
    ])
    return results


def check_regression(results: Dict, baseline_path: Path) -> int:
    """Gate the deterministic metrics against the committed baseline."""
    if not baseline_path.exists():
        print(f"regression check: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    tolerance = baseline["tolerance"]
    ratio = results["throughput"]["throughput_ratio"]
    floor = max(0.8, baseline["throughput_ratio"] * (1.0 - tolerance))
    print(f"regression check: throughput ratio {ratio:.3f} (floor {floor:.3f}), "
          f"audit {'ok' if results['audit']['audit_pass'] else 'FAILED'}")
    status = 0
    if ratio < floor:
        print("REGRESSION: mixed-workload throughput ratio below the floor",
              file=sys.stderr)
        status = 1
    if not results["audit"]["audit_pass"]:
        print("REGRESSION: snapshot-consistency audit failed", file=sys.stderr)
        status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller windows for CI smoke runs")
    parser.add_argument("--seed", type=int, default=13,
                        help="simulator seed (network jitter); explicit so CI "
                             "reruns are bit-identical")
    parser.add_argument("--workload-seed", type=int, default=7,
                        help="workload-generator RNG seed")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_crossshard.json"))
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the metrics registry and request tracing")
    parser.add_argument("--trace-output", type=Path,
                        default=Path("TRACE_crossshard.jsonl"),
                        help="JSONL destination for the mixed run's trace "
                             "(ignored with --no-obs)")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "crossshard_baseline.json")
    parser.add_argument("--check-regression", action="store_true",
                        help="fail if the throughput ratio or the snapshot "
                             "audit regress below the baseline")
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
            "throughput_ratio": results["throughput"]["throughput_ratio"],
            "tolerance": 0.15,
            "mode": results["mode"],
        }
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote baseline {args.baseline}")
    if args.check_regression:
        status = check_regression(results, args.baseline)
    if not results["pass"]:
        failed = [name for name, ok in [
            ("throughput ratio >= 0.8", results["throughput"]["throughput_pass"]),
            ("multi-shard operations completed",
             results["throughput"]["multi_pass"]),
            ("snapshot-consistency audit", results["audit"]["audit_pass"]),
        ] if not ok]
        print("FAILED criteria: " + "; ".join(failed), file=sys.stderr)
        status = max(status, 1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
