"""Ordering-plane scaling benchmark: K agreement logs over 4K execution shards.

Measures, on a range-partitioned kvstore whose execution side always has
four shards per agreement log:

1. **scaling** -- committed client requests/second over a fixed window at
   K = 1, 2 and 4 agreement logs (offered load and key space scale with
   K), single-group traffic only.  K = 1 is the plain sharded deployment
   (one 3f+1 cluster ordering every shard's feed); K > 1 partitions the
   ordering plane -- the same :class:`~repro.sharding.ShardedSystem`
   builder, with ``multilog.num_logs = K``.
   Acceptance: K = 4 sustains >= 2x the K = 1 committed-requests/sec --
   if splitting the agreement plane four ways cannot even double
   throughput, the ordering plane was never the bottleneck being bought.
2. **cross-group** -- the K = 4 deployment under the same load with 10%
   multi-shard operations spanning log groups (snapshot reads and
   write-only transactions over an audit domain with shards in every
   group).  Every such marker is ordered by each touched log and released
   at one cross-log cut.  Acceptance: >= 0.8x the single-group K = 4
   throughput, nobody having to ask for a binding (or rejecting one) in
   the fault-free run, and a clean per-group snapshot audit: independent
   logs may order two concurrent markers differently (serialising them is
   the deferred MVBA cut-ordering work), so stamps within *one* log's shard
   group must be equal while cross-group stamps may legitimately differ.

Results go to ``BENCH_ordering.json``; ``--quick`` shrinks the windows for
CI smoke runs, ``--check-regression`` gates against
``benchmarks/ordering_baseline.json`` and ``--update-baseline`` rewrites
the baseline from the current measurement.  All virtual-time metrics are
deterministic for a given ``--seed`` / ``--workload-seed``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_ordering_scaling.py --quick
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

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
    audit_cross_group_consistency,
    equal_range_boundaries,
    mixed_cross_group_operations,
    run_crossshard_window,
    seed_operations,
)

from bench_common import collect_critical_path, current_observability, obs_enabled, set_observability
from bench_hotpath import HOTPATH_CRYPTO

SHARDS_PER_LOG = 4
CLIENTS_PER_LOG = 16
KEYS_PER_LOG = 64
LOG_COUNTS = (1, 2, 4)
CROSS_LOGS = 4
#: fraction of operations spanning shards in the cross-group run
MULTI_FRACTION = 0.1
#: widest multi-shard operation (matches the single-log cross-shard bench)
MAX_SPAN = 4

#: slow protocol timers so back-pressure, not retransmission storms or view
#: changes, shapes the measurement; a tight batch window keeps per-request
#: ordering work (not bundling slack) the quantity being scaled
ORDERING_TIMERS = TimerConfig(client_retransmit_ms=5_000.0,
                              agreement_retransmit_ms=1_000.0,
                              execution_fetch_ms=50.0,
                              view_change_ms=20_000.0,
                              batch_timeout_ms=1.0)


def print_section(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def _audit_domain(num_logs: int) -> List[int]:
    """Two audit shards in log 0 (so within-group tears are detectable)
    plus one in every other group (so the slice is genuinely cross-group)."""
    return [0, 1] + [log * SHARDS_PER_LOG for log in range(1, num_logs)]


def build_system(num_logs: int, seed: int, *, cross: bool = False):
    num_shards = SHARDS_PER_LOG * num_logs
    key_space = KEYS_PER_LOG * num_logs
    kwargs = dict(
        num_clients=CLIENTS_PER_LOG * num_logs, checkpoint_interval=64,
        app_processing_ms=0.2, timers=ORDERING_TIMERS, crypto=HOTPATH_CRYPTO,
        batching=BatchingConfig(mode="adaptive", min_bundle=1, max_bundle=16),
        observability=current_observability())
    if cross:
        kwargs["cross_shard"] = CrossShardConfig(enabled=True)
    config = SystemConfig.multilog_sharded(
        num_logs=num_logs, num_shards=num_shards, strategy="range",
        range_boundaries=equal_range_boundaries(key_space, num_shards),
        **kwargs)
    return ShardedSystem(config, KeyValueStore, seed=seed)


def run_window(system, num_logs: int, multi_fraction: float, label: str, *,
               quick: bool, workload_seed: int):
    num_requests = (2_000 if quick else 4_000) * num_logs
    duration_ms = 250.0 if quick else 500.0
    warmup_ms = 80.0 if quick else 150.0
    operations = mixed_cross_group_operations(
        num_requests, key_space=KEYS_PER_LOG * num_logs,
        num_shards=SHARDS_PER_LOG * num_logs, multi_fraction=multi_fraction,
        audit_shards=_audit_domain(num_logs), max_span=MAX_SPAN,
        seed=workload_seed)
    return run_crossshard_window(system, operations=operations,
                                 duration_ms=duration_ms,
                                 warmup_ms=warmup_ms, label=label)


def section_scaling(quick: bool, seed: int, workload_seed: int) -> Dict:
    windows = []
    for num_logs in LOG_COUNTS:
        system = build_system(num_logs, seed)
        windows.append(run_window(
            system, num_logs, 0.0,
            f"K={num_logs} ({SHARDS_PER_LOG * num_logs} shards)",
            quick=quick, workload_seed=workload_seed))
    by_logs = dict(zip(LOG_COUNTS, windows))
    ratio = (by_logs[LOG_COUNTS[-1]].completed_per_sec
             / max(by_logs[LOG_COUNTS[0]].completed_per_sec, 1e-9))

    print_section(f"Ordering-plane scaling: committed/sec at K = "
                  f"{'/'.join(str(k) for k in LOG_COUNTS)} agreement logs "
                  f"({SHARDS_PER_LOG} shards and {CLIENTS_PER_LOG} clients "
                  f"per log)")
    print(format_table(
        ["deployment", "completed/s", "completed", "executed by shard"],
        [[window.label, window.completed_per_sec, window.completed,
          "/".join(str(count) for count in window.executed_by_shard)]
         for window in windows]))
    print(f"scaling ratio K={LOG_COUNTS[-1]} / K={LOG_COUNTS[0]}: {ratio:.2f}")
    return {
        "log_counts": list(LOG_COUNTS),
        "shards_per_log": SHARDS_PER_LOG,
        "completed_per_sec": {str(k): by_logs[k].completed_per_sec
                              for k in LOG_COUNTS},
        "scaling_ratio": ratio,
        "scaling_pass": ratio >= 2.0,
    }


def section_cross_group(quick: bool, seed: int, workload_seed: int,
                        single_group_per_sec: float):
    system = build_system(CROSS_LOGS, seed, cross=True)
    key_space = KEYS_PER_LOG * CROSS_LOGS
    num_shards = SHARDS_PER_LOG * CROSS_LOGS
    for operation in seed_operations(key_space, num_shards):
        system.invoke(operation)
    mixed = run_window(system, CROSS_LOGS, MULTI_FRACTION,
                       f"{int(MULTI_FRACTION * 100)}% cross-group",
                       quick=quick, workload_seed=workload_seed)
    # Let the in-flight tail land so the audit covers completed markers.
    system.run(300.0)
    audit = audit_cross_group_consistency(
        system.clients, key_space=key_space, num_shards=num_shards,
        log_of_shard=system.log_registry.log_of)
    ratio = mixed.completed_per_sec / max(single_group_per_sec, 1e-9)
    queues = system.message_queues
    markers = max(queue.cross_log_markers for queue in queues)
    sent = sum(queue.cross_log.bindings_sent for queue in queues)
    served = sum(queue.cross_log.bindings_served for queue in queues)
    rejected = sum(queue.cross_log.bindings_rejected for queue in queues)

    print_section(f"Cross-group mix at K={CROSS_LOGS}: every marker ordered "
                  f"by each touched log, released at one cross-log cut")
    print(format_table(
        ["workload", "completed/s", "multi ops", "vs single-group"],
        [[mixed.label, mixed.completed_per_sec, mixed.multi_completed,
          f"{ratio:.3f}"]]))
    print(f"cross-log markers (per queue max): {markers}   "
          f"bindings sent: {sent}   served on request: {served}   "
          f"rejected: {rejected}")
    print(format_table(
        ["audited reads", "torn groups", "committed txns"],
        [[audit.audited_reads, audit.torn_reads, audit.committed_txns]]))
    verdict = "CONSISTENT" if audit.consistent else "TORN GROUP DETECTED"
    print(f"per-group snapshot audit: {verdict}")
    return system, {
        "completed_per_sec": mixed.completed_per_sec,
        "multi_completed": mixed.multi_completed,
        "multi_fraction": MULTI_FRACTION,
        "cross_ratio": ratio,
        "cross_log_markers": markers,
        "bindings_sent": sent,
        "bindings_served": served,
        "bindings_rejected": rejected,
        "audited_reads": audit.audited_reads,
        "torn_groups": audit.torn_reads,
        "committed_txns": audit.committed_txns,
        "cross_pass": ratio >= 0.8 and mixed.multi_completed > 0,
        "coordination_pass": served == 0 and rejected == 0,
        "audit_pass": (audit.consistent and audit.audited_reads > 0
                       and audit.committed_txns > 0),
    }


def run_all(quick: bool, seed: int, workload_seed: int,
            trace_output: Path = None) -> Dict:
    scaling = section_scaling(quick, seed, workload_seed)
    cross_system, cross = section_cross_group(
        quick, seed, workload_seed,
        scaling["completed_per_sec"][str(LOG_COUNTS[-1])])
    results = {
        "benchmark": "ordering_scaling",
        "mode": "quick" if quick else "full",
        "unix_time": time.time(),
        "seed": seed,
        "workload_seed": workload_seed,
        "observability": obs_enabled(),
        "scaling": scaling,
        "cross_group": cross,
    }
    # The cross-group run is the system exercising the coordinate stage --
    # its trace is the one worth shipping.
    critical_path = collect_critical_path(
        cross_system, trace_output,
        title="critical path, cross-group mix at K=4")
    if critical_path is not None:
        results["critical_path"] = critical_path
    results["pass"] = all([
        scaling["scaling_pass"],
        cross["cross_pass"],
        cross["coordination_pass"],
        cross["audit_pass"],
    ])
    return results


def check_regression(results: Dict, baseline_path: Path) -> int:
    """Gate the deterministic metrics against the committed baseline."""
    if not baseline_path.exists():
        print(f"regression check: no baseline at {baseline_path}", file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    tolerance = baseline["tolerance"]
    scaling = results["scaling"]["scaling_ratio"]
    cross = results["cross_group"]["cross_ratio"]
    scaling_floor = max(2.0, baseline["scaling_ratio"] * (1.0 - tolerance))
    cross_floor = max(0.8, baseline["cross_ratio"] * (1.0 - tolerance))
    print(f"regression check: scaling ratio {scaling:.2f} (floor "
          f"{scaling_floor:.2f}), cross-group ratio {cross:.3f} (floor "
          f"{cross_floor:.3f}), audit "
          f"{'ok' if results['cross_group']['audit_pass'] else 'FAILED'}")
    status = 0
    if scaling < scaling_floor:
        print("REGRESSION: ordering-plane scaling ratio below the floor",
              file=sys.stderr)
        status = 1
    if cross < cross_floor:
        print("REGRESSION: cross-group throughput ratio below the floor",
              file=sys.stderr)
        status = 1
    if not results["cross_group"]["audit_pass"]:
        print("REGRESSION: per-group snapshot audit failed", file=sys.stderr)
        status = 1
    if not results["cross_group"]["coordination_pass"]:
        print("REGRESSION: bindings asked for or rejected in a fault-free run",
              file=sys.stderr)
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
                        default=Path("BENCH_ordering.json"))
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the metrics registry and request tracing")
    parser.add_argument("--trace-output", type=Path,
                        default=Path("TRACE_ordering.jsonl"),
                        help="JSONL destination for the cross-group run's "
                             "trace (ignored with --no-obs)")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "ordering_baseline.json")
    parser.add_argument("--check-regression", action="store_true",
                        help="fail if the scaling or cross-group ratios or "
                             "the per-group audit regress below the baseline")
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
            "scaling_ratio": results["scaling"]["scaling_ratio"],
            "cross_ratio": results["cross_group"]["cross_ratio"],
            "tolerance": 0.15,
            "mode": results["mode"],
        }
        args.baseline.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote baseline {args.baseline}")
    if args.check_regression:
        status = check_regression(results, args.baseline)
    if not results["pass"]:
        failed = [name for name, ok in [
            (f"K={LOG_COUNTS[-1]} >= 2x K=1 committed/sec",
             results["scaling"]["scaling_pass"]),
            ("cross-group >= 0.8x single-group",
             results["cross_group"]["cross_pass"]),
            ("no binding asked for or rejected",
             results["cross_group"]["coordination_pass"]),
            ("per-group snapshot audit",
             results["cross_group"]["audit_pass"]),
        ] if not ok]
        print("FAILED criteria: " + "; ".join(failed), file=sys.stderr)
        status = max(status, 1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
