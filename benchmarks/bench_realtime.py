"""Wall-clock committed/s on a localhost 3f+1 cluster (the real runtime).

Every other benchmark in this directory measures *virtual* time inside the
deterministic simulator.  This one runs the identical protocol stack on the
asyncio backend (``RuntimeConfig(backend="asyncio")``): replicas are asyncio
tasks exchanging wire-codec frames over real 127.0.0.1 TCP sockets,
timers are wall-clock, and every virtual millisecond the cost model charges
is burned as real CPU (``charge_scale``), so the configured crypto weights
shape wall-clock throughput the way they shape simulated throughput.

One closed-loop leg: every certificate is checked, and its cost burned,
inside the receiving node's handler on the single event-loop thread (the
whole cluster shares one core, as any single-process deployment must).  The
headline number is committed requests per wall-clock second, recorded with
the host's core count.  The gate is liveness -- every queued request
commits -- and a committed/s floor that catches a hang, not a slowdown:
wall-clock numbers on shared hosts are too noisy for more.  A DAMOV-style
breakdown of where wall time goes (serialisation, crypto burn, socket I/O,
per-stage critical path) is embedded alongside.

Run via the single gate entrypoint::

    PYTHONPATH=src python benchmarks/run_gate.py --quick realtime
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from bench_common import (BENCH_TIMERS, collect_critical_path,
                          current_observability, obs_enabled, print_section,
                          set_observability)
from repro.apps import kvstore
from repro.apps.kvstore import KeyValueStore
from repro.config import CryptoCosts, RuntimeConfig, SystemConfig
from repro.core.system import SeparatedSystem

#: real-time cost emulation: the stdlib HMACs standing in for MACs and
#: signatures are microseconds, so the configured virtual costs are burned
#: as real CPU to model the asymmetric-crypto weights the paper assumes
CHARGE_SCALE = 1.0

#: crypto weights for the burn: MAC-dominated (the paper's fast scheme),
#: heavy enough that verification is the wall-clock bottleneck
REALTIME_CRYPTO = CryptoCosts(mac_ms=0.4, signature_sign_ms=5.0,
                              signature_verify_ms=0.7)


def build_system(seed: int, num_clients: int) -> SeparatedSystem:
    config = SystemConfig(
        f=1, g=1, num_clients=num_clients,
        crypto=REALTIME_CRYPTO, timers=BENCH_TIMERS,
        observability=current_observability(),
        runtime=RuntimeConfig(backend="asyncio", charge_scale=CHARGE_SCALE),
    )
    return SeparatedSystem(config, KeyValueStore, seed=seed)


def run_leg(seed: int, workload_seed: int, num_clients: int,
            requests_per_client: int, timeout_s: float,
            trace_output: Optional[Path] = None) -> Tuple[Dict, Optional[Dict]]:
    """The closed loop: every client queues its requests up front and the
    loop runs until all of them commit; committed/s is wall-clock.  Returns
    the leg's figures and its critical-path breakdown (None without obs)."""
    system = build_system(seed=seed, num_clients=num_clients)
    target = num_clients * requests_per_client
    try:
        started = time.perf_counter()
        for i in range(requests_per_client):
            for c in range(num_clients):
                key = f"key-{(i * num_clients + c + workload_seed) % 16}"
                system.submit(kvstore.put(key, f"v-{i}"), client_index=c)
        system.run_until(lambda: system.total_completed() >= target,
                         timeout_ms=timeout_s * 1000.0,
                         description=f"{target} committed requests")
        wall_s = time.perf_counter() - started
        committed = system.total_completed()
        leg = {
            "committed": committed,
            "target": target,
            "wall_s": round(wall_s, 3),
            "committed_per_s": round(committed / wall_s, 2),
            "burned_busy_ms": round(sum(
                p.stats.busy_ms for p in system.server_processes()), 1),
            "transport": system.network.transport.snapshot(),
        }
        critical_path = collect_critical_path(
            system, trace_output=trace_output,
            title="realtime critical path (wall-clock ms)")
        print(f"  {leg['committed_per_s']:8.1f} committed/s "
              f"({committed}/{target} in {wall_s:.2f}s wall, "
              f"burned {leg['burned_busy_ms']:.0f}ms, "
              f"{leg['transport']['frames_delivered']} frames)")
        return leg, critical_path
    finally:
        system.close()


def run_all(quick: bool, seed: int, workload_seed: int,
            trace_output: Optional[Path]) -> Dict:
    cores = os.cpu_count() or 1
    num_clients = 4 if quick else 8
    requests_per_client = 15 if quick else 40
    timeout_s = 120.0 if quick else 420.0

    print_section(f"Real runtime: wall-clock committed/s on localhost "
                  f"({cores} cores)")
    leg, critical_path = run_leg(seed, workload_seed, num_clients,
                                 requests_per_client, timeout_s,
                                 trace_output=trace_output)

    results: Dict = {
        "benchmark": "realtime",
        "mode": "quick" if quick else "full",
        "unix_time": time.time(),
        "seed": seed,
        "workload_seed": workload_seed,
        "observability": obs_enabled(),
        "cores": cores,
        "charge_scale": CHARGE_SCALE,
        "realtime": leg,
    }
    if critical_path is not None:
        results["critical_path"] = critical_path
    results["pass"] = leg["committed"] >= leg["target"]
    return results


def check_regression(results: Dict, baseline_path: Path) -> int:
    """Gate wall-clock results against the committed baseline.

    Wall-clock numbers on shared CI hosts are noisy, so the committed/s
    floor is a hang-catcher, not a performance bound.
    """
    if not baseline_path.exists():
        print(f"regression check: no baseline at {baseline_path}",
              file=sys.stderr)
        return 1
    baseline = json.loads(baseline_path.read_text())
    rate = results["realtime"]["committed_per_s"]
    floor = baseline["min_committed_per_s"]
    status = 0
    if rate < floor:
        print(f"REGRESSION: committed/s {rate:.2f} below hang-catcher floor "
              f"{floor}", file=sys.stderr)
        status = 1
    print(f"regression check: {rate:.1f} committed/s on {results['cores']} "
          f"cores — {'ok' if status == 0 else 'REGRESSED'}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload for CI smoke runs")
    parser.add_argument("--seed", type=int, default=11,
                        help="scheduler RNG seed (protocol-level draws)")
    parser.add_argument("--workload-seed", type=int, default=5,
                        help="key-placement offset for the workload")
    parser.add_argument("--output", type=Path,
                        default=Path("BENCH_realtime.json"))
    parser.add_argument("--no-obs", action="store_true",
                        help="disable the metrics registry and request tracing")
    parser.add_argument("--trace-output", type=Path,
                        default=Path("TRACE_realtime.jsonl"),
                        help="JSONL destination for the leg's trace "
                             "(ignored with --no-obs)")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).parent / "realtime_baseline.json")
    parser.add_argument("--check-regression", action="store_true",
                        help="fail on liveness loss or committed/s below the "
                             "baseline's hang-catcher floor")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline gate thresholds")
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
            "min_committed_per_s": 1.0,
            "mode": results["mode"],
        }
        args.baseline.write_text(json.dumps(baseline, indent=2,
                                            sort_keys=True) + "\n")
        print(f"wrote baseline {args.baseline}")
    if args.check_regression:
        status = check_regression(results, args.baseline)
    if not results["pass"]:
        print("FAILED criteria: closed-loop workload did not fully commit",
              file=sys.stderr)
        status = max(status, 1)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
