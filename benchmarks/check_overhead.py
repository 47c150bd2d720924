"""Observability overhead gate: obs on vs off must be virtually identical.

Observability is strictly passive by design: enabling the metrics registry
and request tracing never charges virtual processing time, never schedules
events, and never draws from the deterministic RNG, so every virtual-time
quantity a benchmark reports must be **bit-identical** with observability on
(the gate default) and off (``--no-obs``).  This script enforces that
design invariant for one gate leg by running its benchmark twice and
deep-comparing the two results files after stripping the fields that are
*allowed* to differ -- wall-clock measurements (machine noise) and the
observability outputs themselves::

    PYTHONPATH=src python benchmarks/check_overhead.py --quick hotpath

Any other difference means instrumentation leaked into the simulation
(e.g. an instrument charged time or consumed randomness) and fails CI.

The same comparison proves a refactor ("Proving a refactor" in
docs/BENCHMARKS.md, step 2).  With ``--against BASE_DIR`` nothing runs:
the ``BENCH_<name>.json`` and ``TRACE_<name>.jsonl`` a ``run_gate.py``
leg left in the current directory are compared with the ones the same leg
left in ``BASE_DIR`` on the parent commit -- the results outside the
volatile fields, the trace byte for byte -- and one line per leg goes to
stdout and, inside GitHub Actions, to ``$GITHUB_STEP_SUMMARY``::

    PYTHONPATH=src python benchmarks/check_overhead.py --against ../base-out skew
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).parent

#: gate leg -> benchmark script (mirrors run_gate.GATES; no baselines here
#: because the overhead gate checks determinism, not regressions)
SCRIPTS: Dict[str, str] = {
    "hotpath": "bench_hotpath.py",
    "skew": "bench_skew.py",
    "rebalance": "bench_rebalance.py",
    "crossshard": "bench_crossshard.py",
    "failover": "bench_failover.py",
    "ordering": "bench_ordering_scaling.py",
}

#: fields allowed to differ between the obs-on and obs-off runs, stripped at
#: any nesting depth before the comparison: wall-clock measurements, the
#: wall-clock-derived verdicts, the wall-clock micro section, and the
#: observability outputs themselves
VOLATILE_KEYS = frozenset({
    "unix_time", "wall_seconds", "events_per_sec", "wallclock_speedup",
    "wallclock_pass", "micro", "critical_path", "observability", "pass",
})


def strip_volatile(value):
    """A deep copy with every VOLATILE_KEYS field removed."""
    if isinstance(value, dict):
        return {key: strip_volatile(item) for key, item in value.items()
                if key not in VOLATILE_KEYS}
    if isinstance(value, list):
        return [strip_volatile(item) for item in value]
    return value


def deep_diff(a, b, path: str = "$",
              names=("obs-off run", "obs-on run")) -> List[str]:
    """Paths at which two stripped JSON values differ (empty = identical);
    ``names`` says where a key missing on the other side was found."""
    if type(a) is not type(b):
        return [f"{path}: type {type(a).__name__} != {type(b).__name__}"]
    if isinstance(a, dict):
        diffs: List[str] = []
        for key in sorted(set(a) | set(b)):
            if key not in a:
                diffs.append(f"{path}.{key}: only in {names[1]}")
            elif key not in b:
                diffs.append(f"{path}.{key}: only in {names[0]}")
            else:
                diffs.extend(deep_diff(a[key], b[key], f"{path}.{key}", names))
        return diffs
    if isinstance(a, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        diffs = []
        for index, (left, right) in enumerate(zip(a, b)):
            diffs.extend(deep_diff(left, right, f"{path}[{index}]", names))
        return diffs
    if a != b:
        return [f"{path}: {a!r} != {b!r}"]
    return []


def run_leg(name: str, quick: bool, obs: bool, output: Path) -> int:
    command = [sys.executable, str(BENCH_DIR / SCRIPTS[name]),
               "--output", str(output)]
    if quick:
        command.append("--quick")
    if not obs:
        command.append("--no-obs")
    label = "obs-on" if obs else "obs-off"
    print(f"overhead gate: running {name} ({label}) -> {output}")
    return subprocess.call(command)


def check_overhead(name: str, quick: bool, keep_outputs: bool = True) -> int:
    on_path = Path.cwd() / f"OVERHEAD_{name}_obs_on.json"
    off_path = Path.cwd() / f"OVERHEAD_{name}_obs_off.json"
    for obs, output in ((True, on_path), (False, off_path)):
        status = run_leg(name, quick, obs, output)
        if status != 0:
            # The leg's own acceptance criteria are the regression gate's
            # concern; here a non-zero exit still produced comparable JSON
            # unless the file is missing.
            if not output.exists():
                print(f"overhead gate: {name} ({'obs-on' if obs else 'obs-off'}) "
                      f"wrote no results (exit {status})", file=sys.stderr)
                return 1
    on = strip_volatile(json.loads(on_path.read_text()))
    off = strip_volatile(json.loads(off_path.read_text()))
    diffs = deep_diff(off, on)
    if diffs:
        print(f"overhead gate: {name} virtual-time results DIFFER with "
              f"observability enabled ({len(diffs)} field(s)):", file=sys.stderr)
        for diff in diffs[:20]:
            print(f"  {diff}", file=sys.stderr)
        if len(diffs) > 20:
            print(f"  ... and {len(diffs) - 20} more", file=sys.stderr)
        return 1
    print(f"overhead gate: {name} PASS -- virtual-time results bit-identical "
          "with observability on and off")
    if not keep_outputs:
        on_path.unlink(missing_ok=True)
        off_path.unlink(missing_ok=True)
    return 0


def compare_against(base_dir: Path, name: str) -> int:
    """Compare one leg's artifacts here with those in ``base_dir``."""
    bench, trace = f"BENCH_{name}.json", f"TRACE_{name}.jsonl"
    missing = [str(directory / file) for directory in (base_dir, Path.cwd())
               for file in (bench, trace) if not (directory / file).exists()]
    same = False
    if missing:
        line = f"{name}: missing {', '.join(missing)}"
    else:
        diffs = deep_diff(
            strip_volatile(json.loads((base_dir / bench).read_text())),
            strip_volatile(json.loads(Path(bench).read_text())),
            names=("base", "head"))
        same_trace = (base_dir / trace).read_bytes() == Path(trace).read_bytes()
        results = ("equal outside VOLATILE_KEYS" if not diffs
                   else f"{len(diffs)} field(s) differ, first {diffs[0]}")
        line = (f"{name}: {bench} {results}; {trace} "
                f"{'byte-identical' if same_trace else 'differs'}")
        same = not diffs and same_trace
    print(line)
    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as handle:
            handle.write(f"- {line}\n")
    return 0 if same else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", choices=sorted(SCRIPTS),
                        help="which gate leg to compare")
    parser.add_argument("--quick", action="store_true",
                        help="smaller windows for CI smoke runs")
    parser.add_argument("--against", metavar="BASE_DIR", type=Path,
                        help="compare this directory's gate artifacts with "
                             "BASE_DIR's instead of running anything")
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare_against(args.against, args.bench)
    return check_overhead(args.bench, quick=args.quick)


if __name__ == "__main__":
    raise SystemExit(main())
