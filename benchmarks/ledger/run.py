"""The performance ledger: one command, four workloads, two clocks.

    python benchmarks/ledger/run.py [--seed N] [--workload NAME] [--smoke]

runs every workload in its own child process, one at a time: an untraced
run for the end-to-end metrics, then a traced run for the per-layer table;
checks the outputs; prints one line per (workload, metric); and writes
``out/ledger.json`` and ``out/TRACE_<workload>.jsonl`` beside this file.

    python benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

is one such run on its own, ending in one JSON line (the form the contract
in BENCHMARK.json is checked with).

    python benchmarks/ledger/run.py --compare A.json B.json

compares two ledgers against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: seconds of measurement per run under --smoke
SMOKE_SECONDS = 0.5


@functools.cache
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_line() -> str:
    return (f"host: nproc={os.cpu_count()} python={platform.python_version()} "
            f"{platform.system()}-{platform.machine()}")


# ---------------------------------------------------------------------- #
# One run, in this process (the child).
# ---------------------------------------------------------------------- #

def child(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    spec = workloads.SPECS[args.workload]
    if args.smoke:
        spec = spec.smoke()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = workloads.run_traced(spec, args.seed, args.seconds, args.smoke,
                                      OUT / f"TRACE_{spec.name}.jsonl")
    else:
        result = workloads.run_untraced(spec, args.seed, args.seconds, args.smoke)
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int,
              smoke: bool) -> dict:
    """One workload in a fresh interpreter, so peak RSS and set-up time are
    its own and no socket, loop or wrapper survives into the next one."""
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"},
                          timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"{workload} (trace={trace}) exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace)
    return result


def units(section: str) -> Dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in contract()[section]}


def report(result: dict, section: str) -> dict:
    """The contract's result object for one run."""
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units(section).items()}
    return {"correct": not result["failures"] and result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


# ---------------------------------------------------------------------- #
# The whole ledger.
# ---------------------------------------------------------------------- #

def ledger(args: argparse.Namespace) -> int:
    spec = contract()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else spec["run_seconds"])
    print(host_line())
    runs: List[dict] = []
    status = 0
    for name in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_child(name, args.seed, seconds, trace, args.smoke)
            runs.append(result)
            summary = report(result, section)
            for metric, entry in summary["metrics"].items():
                print(f"{name:20s} {metric:38s} {entry['value']:14.6g} {entry['unit']}")
            share = result["failed"] / result["attempted"]
            print(f"{name:20s} {'failed_share':38s} {share:14.6g} ratio "
                  f"({result['failed']} of {result['attempted']} attempted, "
                  f"trace={trace})")
            for failure in result["failures"]:
                print(f"{name}: FAILED CHECK: {failure}", file=sys.stderr)
            if not summary["correct"]:
                status = 1
    OUT.mkdir(exist_ok=True)
    (OUT / "ledger.json").write_text(json.dumps(
        {"host": host_line(), "seed": args.seed, "seconds": seconds,
         "smoke": args.smoke, "runs": runs}, indent=1) + "\n")
    print(f"wrote {OUT / 'ledger.json'}")
    return status


# ---------------------------------------------------------------------- #
# Comparing two ledgers.
# ---------------------------------------------------------------------- #

def samples(path: str) -> Dict[tuple, List[float]]:
    """(workload, metric) -> values, over every ledger file in ``path``
    (a ledger.json, or a directory of them: one set of runs)."""
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() else [Path(path)]
    values: Dict[tuple, List[float]] = {}
    for file in files:
        for run in json.loads(file.read_text())["runs"]:
            for metric, value in run["metrics"].items():
                values.setdefault((run["workload"], metric), []).append(value)
    return values


def spread(values: List[float]) -> float:
    """Quartile distance (range below four values) as a share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def compare(before_path: str, after_path: str) -> int:
    before, after = samples(before_path), samples(after_path)
    status = 0
    for metric in contract()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for (workload, key), old in sorted(before.items()):
            new = after.get((workload, key))
            if key != name or not new:
                continue
            base = statistics.median(old)
            worse = sign * (statistics.median(new) - base) / base
            noise = max(spread(old), spread(new))
            if worse > bound:
                verdict, status = "REGRESSION", 1
            elif noise > bound:
                verdict = "unresolved (spread exceeds bound)"
            else:
                verdict = "ok"
            print(f"{workload:20s} {name:26s} {base:12.6g} -> "
                  f"{statistics.median(new):12.6g} {metric['unit']:6s} "
                  f"worse by {worse:+.4f} (bound {bound}, spread {noise:.4f}) "
                  f"{verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract()["workloads"]])
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the operation stream")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one run measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run only: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="small blocks and about a second per run")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)
    if args.compare:
        return compare(*args.compare)
    if args.trace is None:
        return ledger(args)
    if not args.workload:
        parser.error("--trace needs --workload")
    print(host_line(), file=sys.stderr)
    seconds = args.seconds or contract()["run_seconds"]
    result = run_child(args.workload, args.seed, seconds, args.trace, args.smoke)
    for failure in result["failures"]:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps(report(result, section)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
