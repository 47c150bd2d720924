"""One entrypoint for every CI-gated benchmark.

CI's bench-smoke job is a matrix over benchmark names; each leg runs::

    PYTHONPATH=src python benchmarks/run_gate.py --quick <name>

which maps the name to its benchmark script and committed baseline, runs it
with ``--check-regression``, writes ``BENCH_<name>.json`` and the request
trace ``TRACE_<name>.jsonl`` into the current directory (the artifacts CI
uploads), schema-validates both (a malformed artifact fails the gate), and
prints a one-line summary -- speedup/ratio, the dominant critical-path
stage, and the gate verdict -- to stdout and, when running inside GitHub
Actions, into ``$GITHUB_STEP_SUMMARY``.

Adding a gated benchmark is a one-line edit to :data:`GATES` here plus a
one-word edit to the workflow matrix.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict

import validate_schema

BENCH_DIR = Path(__file__).parent


def _hotpath_summary(results: Dict) -> str:
    crypto = results["crypto"]
    return (f"verify-op reduction {crypto['verify_op_reduction']:.1%}, "
            f"wall-clock {crypto['wallclock_speedup']:.2f}x")


def _skew_summary(results: Dict) -> str:
    return f"skew speedup {results['skew']['speedup']:.2f}x at 4 shards"


def _rebalance_summary(results: Dict) -> str:
    cuts = results["migrate"]["cuts"]
    epochs = cuts.get("epochs", cuts) if isinstance(cuts, dict) else cuts
    return (f"migrating-hotspot speedup {results['migrate']['speedup']:.2f}x, "
            f"{epochs} cuts, exactly-once "
            f"{'ok' if results['safety']['exactly_once'] else 'VIOLATED'}")


def _failover_summary(results: Dict) -> str:
    attacks = results["failover"]["attacks"]
    worst = max(
        (attack["time_to_recover_ms"] for attack in attacks.values()
         if attack["time_to_recover_ms"] is not None),
        default=None)
    missed = sum(1 for attack in attacks.values()
                 if attack["time_to_recover_ms"] is None)
    recover = "SLO missed" if missed else f"worst recover {worst:.0f} ms"
    return (f"{len(attacks)} attacks, {recover}, safety "
            f"{'ok' if results['safety']['safety_pass'] else 'VIOLATED'}")


def _ordering_summary(results: Dict) -> str:
    cross = results["cross_group"]
    return (f"K-log scaling {results['scaling']['scaling_ratio']:.2f}x, "
            f"cross-group ratio {cross['cross_ratio']:.2f}, "
            f"{cross['torn_groups']} torn groups, "
            f"{cross['bindings_served']} bindings asked for")


def _realtime_summary(results: Dict) -> str:
    realtime = results["realtime"]
    return (f"wall-clock {realtime['committed_per_s']:.1f} committed/s on "
            f"{results['cores']} cores, "
            f"{realtime['committed']}/{realtime['target']} committed")


def _crossshard_summary(results: Dict) -> str:
    audit = results["audit"]
    return (f"mixed/single throughput ratio "
            f"{results['throughput']['throughput_ratio']:.2f}, "
            f"{audit['audited_reads']} snapshot reads audited, "
            f"{audit['torn_reads']} torn")


#: benchmark name -> script, committed baseline, and one-line summary
GATES: Dict[str, Dict] = {
    "hotpath": {
        "script": "bench_hotpath.py",
        "baseline": "hotpath_baseline.json",
        "summary": _hotpath_summary,
    },
    "skew": {
        "script": "bench_skew.py",
        "baseline": "skew_baseline.json",
        "summary": _skew_summary,
    },
    "rebalance": {
        "script": "bench_rebalance.py",
        "baseline": "rebalance_baseline.json",
        "summary": _rebalance_summary,
    },
    "crossshard": {
        "script": "bench_crossshard.py",
        "baseline": "crossshard_baseline.json",
        "summary": _crossshard_summary,
    },
    "failover": {
        "script": "bench_failover.py",
        "baseline": "failover_baseline.json",
        "summary": _failover_summary,
    },
    "ordering": {
        "script": "bench_ordering_scaling.py",
        "baseline": "ordering_baseline.json",
        "summary": _ordering_summary,
    },
    "realtime": {
        "script": "bench_realtime.py",
        "baseline": "realtime_baseline.json",
        "summary": _realtime_summary,
    },
}


def _critical_path_note(results: Dict) -> str:
    """The dominant critical-path stage, for the one-line gate summary."""
    critical_path = results.get("critical_path")
    if not isinstance(critical_path, dict) or not critical_path.get("dominant_stage"):
        return ""
    return (f", dominant stage {critical_path['dominant_stage']} "
            f"(mean {critical_path.get('dominant_mean_ms', 0.0):.2f} ms "
            f"over {critical_path.get('traces', 0)} traces)")


def summarise(name: str, output: Path, status: int,
              summary_fn: Callable[[Dict], str]) -> str:
    detail = "no results written"
    if output.exists():
        try:
            results = json.loads(output.read_text())
            detail = summary_fn(results) + _critical_path_note(results)
        except (KeyError, TypeError, ValueError) as error:
            detail = f"unreadable results ({error})"
    verdict = "PASS" if status == 0 else "FAIL"
    return f"{name}: {detail} — {verdict}"


def run_gate(name: str, quick: bool) -> int:
    gate = GATES[name]
    baseline = BENCH_DIR / gate["baseline"]
    if not baseline.exists():
        print(f"{name}: missing committed baseline {baseline}", file=sys.stderr)
        return 1
    output = Path.cwd() / f"BENCH_{name}.json"
    trace = Path.cwd() / f"TRACE_{name}.jsonl"
    command = [sys.executable, str(BENCH_DIR / gate["script"]),
               "--check-regression", "--output", str(output),
               "--trace-output", str(trace)]
    if quick:
        command.insert(2, "--quick")
    status = subprocess.call(command)
    # A leg that writes malformed artifacts fails its gate even if its
    # acceptance criteria passed: CI consumers index into both blindly.
    schema_errors = (validate_schema.validate_bench_file(output)
                     + validate_schema.validate_trace_file(trace))
    for error in schema_errors:
        print(f"schema: {error}", file=sys.stderr)
    if schema_errors:
        status = max(status, 1)
    line = summarise(name, output, status, gate["summary"])
    print(line)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as handle:
            handle.write(f"- {line}\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", choices=sorted(GATES),
                        help="which gated benchmark to run")
    parser.add_argument("--quick", action="store_true",
                        help="smaller windows for CI smoke runs")
    args = parser.parse_args(argv)
    return run_gate(args.bench, quick=args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
