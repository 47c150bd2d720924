"""Schema validation for benchmark artifacts (no third-party deps).

CI uploads two machine-readable artifacts per gated benchmark leg: the
``BENCH_<name>.json`` results file and the ``TRACE_<name>.jsonl`` request
trace.  Downstream tooling (the gate summaries, the overhead comparison,
dashboards fed from the artifacts) indexes into both blindly, so a leg that
writes a malformed file must fail its gate rather than silently producing
an artifact nobody can read.  This module is that check: a hand-rolled
validator for exactly the fields the consumers rely on, deliberately
independent of the ``repro`` package so schema drift in the producer cannot
silently relax the contract.

``run_gate.py`` imports and applies it after every leg; it can also be run
standalone::

    python benchmarks/validate_schema.py --bench BENCH_hotpath.json \
        --trace TRACE_hotpath.jsonl

Exit status is non-zero if any file fails, with one line per violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

#: top-level fields every BENCH_*.json must carry
BENCH_REQUIRED = {"benchmark": str, "mode": str, "seed": int,
                  "workload_seed": int, "pass": bool}

#: the six canonical critical-path stages (always present in a breakdown)
REQUIRED_STAGES = ("admit", "batch", "agree", "release", "execute", "reply")

#: per-message-type fields of an optional census, both numeric
CENSUS_FIELDS = ("sends_per_op", "bytes_per_op")

#: per-stage summary fields, all numeric
STAGE_FIELDS = ("samples", "mean_ms", "p50_ms", "p99_ms", "p999_ms", "max_ms")

#: the tracer's event vocabulary (a trace line outside it is malformed);
#: view_change_start/_end are span markers the agreement replicas emit when
#: the ordering plane reconfigures mid-request
TRACE_EVENTS = frozenset({
    "submit", "admit", "order", "commit", "stage", "release", "execute",
    "vote_open", "vote_done", "collate", "reply",
    "view_change_start", "view_change_end",
    "coordinate_open", "coordinate_done",
})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_bench(results: Dict, require_critical_path: bool = True) -> List[str]:
    """Violations in a parsed BENCH_*.json (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(results, dict):
        return ["results: not a JSON object"]
    for field, kind in BENCH_REQUIRED.items():
        if field not in results:
            errors.append(f"results: missing required field '{field}'")
        elif not isinstance(results[field], kind):
            errors.append(f"results.{field}: expected {kind.__name__}, "
                          f"got {type(results[field]).__name__}")

    errors += validate_census(results.get("census"))
    critical_path = results.get("critical_path")
    if critical_path is None:
        if require_critical_path:
            errors.append("results: missing 'critical_path' (obs-enabled "
                          "runs must embed the per-stage breakdown)")
        return errors
    if not isinstance(critical_path, dict):
        return errors + ["critical_path: not a JSON object"]
    if not isinstance(critical_path.get("dominant_stage"), str):
        errors.append("critical_path.dominant_stage: missing or not a string")
    if not _is_number(critical_path.get("traces")):
        errors.append("critical_path.traces: missing or not a number")
    stages = critical_path.get("stages")
    if not isinstance(stages, dict):
        return errors + ["critical_path.stages: missing or not a JSON object"]
    for stage in REQUIRED_STAGES:
        summary = stages.get(stage)
        if not isinstance(summary, dict):
            errors.append(f"critical_path.stages.{stage}: missing")
            continue
        for field in STAGE_FIELDS:
            if not _is_number(summary.get(field)):
                errors.append(f"critical_path.stages.{stage}.{field}: "
                              "missing or not a number")
    return errors


def validate_census(census) -> List[str]:
    """Violations in an optional ``census`` (sends and bytes per completed
    operation, per message type); None means the artifact has none."""
    if census is None:
        return []
    if not isinstance(census, dict) or not isinstance(census.get("per_type"), dict):
        return ["census: not a JSON object with a 'per_type' object"]
    errors = [] if _is_number(census.get("completed")) else [
        "census.completed: missing or not a number"]
    for name, row in census["per_type"].items():
        if not isinstance(row, dict) or not all(
                _is_number(row.get(field)) for field in CENSUS_FIELDS):
            errors.append(f"census.per_type.{name}: needs numeric "
                          + " and ".join(CENSUS_FIELDS))
    return errors


def validate_bench_file(path: Path, require_critical_path: bool = True) -> List[str]:
    if not path.exists():
        return [f"{path}: does not exist"]
    try:
        results = json.loads(path.read_text())
    except ValueError as error:
        return [f"{path}: not valid JSON ({error})"]
    return [f"{path}: {error}"
            for error in validate_bench(results, require_critical_path)]


def validate_trace_lines(lines) -> List[str]:
    """Violations in an iterable of raw JSONL trace lines (empty = valid).

    Virtual time is monotonic and the tracer records in execution order, so
    ``t_ms`` must be non-decreasing across the file -- a violation means the
    trace was reordered or stitched from different runs.
    """
    errors: List[str] = []
    last_t = float("-inf")
    count = 0
    for index, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        count += 1
        try:
            record = json.loads(line)
        except ValueError as error:
            errors.append(f"line {index}: not valid JSON ({error})")
            continue
        if not isinstance(record, dict):
            errors.append(f"line {index}: not a JSON object")
            continue
        for field, kind in (("trace_id", str), ("event", str), ("node", str)):
            if not isinstance(record.get(field), kind):
                errors.append(f"line {index}: '{field}' missing or not a "
                              f"{kind.__name__}")
        event = record.get("event")
        if isinstance(event, str) and event not in TRACE_EVENTS:
            errors.append(f"line {index}: unknown event '{event}'")
        t_ms = record.get("t_ms")
        if not _is_number(t_ms) or t_ms < 0:
            errors.append(f"line {index}: 't_ms' missing, non-numeric, "
                          "or negative")
        elif t_ms < last_t:
            errors.append(f"line {index}: 't_ms' {t_ms} decreases "
                          f"(previous {last_t})")
        else:
            last_t = t_ms
        if len(errors) >= 20:
            errors.append("... (further violations suppressed)")
            break
    if count == 0 and not errors:
        errors.append("trace is empty (obs-enabled runs must record events)")
    return errors


def validate_trace_file(path: Path) -> List[str]:
    if not path.exists():
        return [f"{path}: does not exist"]
    with path.open(encoding="utf-8") as handle:
        return [f"{path}: {error}" for error in validate_trace_lines(handle)]


#: the fuzz schedule genome's event vocabulary (mirrors repro.fuzz.schedule;
#: kept literal here so producer drift cannot relax the artifact contract)
SCHEDULE_EVENT_KINDS = frozenset({
    "crash", "partition", "byzantine", "link_fault", "map_change",
    "log_move",
})

#: top-level fields every fuzz schedule JSON must carry
SCHEDULE_REQUIRED = {"scenario": str, "seed": int, "workload_seed": int,
                     "num_requests": int, "events": list}

#: top-level fields every FUZZ_REPORT_*.json (explore mode) must carry
FUZZ_REPORT_REQUIRED = {"mode": str, "scenario": str, "seed": int,
                        "runs": int, "coverage": int,
                        "coverage_history": list, "corpus": list,
                        "violations": list, "pass": bool}


def validate_schedule(schedule: Dict) -> List[str]:
    """Violations in a parsed fuzz schedule JSON (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(schedule, dict):
        return ["schedule: not a JSON object"]
    for field, kind in SCHEDULE_REQUIRED.items():
        if field not in schedule:
            errors.append(f"schedule: missing required field '{field}'")
        elif not isinstance(schedule[field], kind) or \
                isinstance(schedule[field], bool):
            errors.append(f"schedule.{field}: expected {kind.__name__}, "
                          f"got {type(schedule[field]).__name__}")
    for index, event in enumerate(schedule.get("events") or []):
        where = f"schedule.events[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        kind = event.get("kind")
        if kind not in SCHEDULE_EVENT_KINDS:
            errors.append(f"{where}: unknown event kind {kind!r}")
        for field in ("at_ms", "duration_ms"):
            value = event.get(field)
            if not _is_number(value) or value < 0:
                errors.append(f"{where}.{field}: missing, non-numeric, "
                              "or negative")
    return errors


def validate_schedule_file(path: Path) -> List[str]:
    if not path.exists():
        return [f"{path}: does not exist"]
    try:
        schedule = json.loads(path.read_text())
    except ValueError as error:
        return [f"{path}: not valid JSON ({error})"]
    return [f"{path}: {error}" for error in validate_schedule(schedule)]


def validate_fuzz_report(report: Dict) -> List[str]:
    """Violations in a parsed FUZZ_REPORT_*.json (empty list = valid)."""
    errors: List[str] = []
    if not isinstance(report, dict):
        return ["report: not a JSON object"]
    for field, kind in FUZZ_REPORT_REQUIRED.items():
        if field not in report:
            errors.append(f"report: missing required field '{field}'")
        elif kind is int and isinstance(report[field], bool):
            errors.append(f"report.{field}: expected int, got bool")
        elif not isinstance(report[field], kind):
            errors.append(f"report.{field}: expected {kind.__name__}, "
                          f"got {type(report[field]).__name__}")
    if report.get("mode") not in (None, "explore", "corpus-regression",
                                  "replay"):
        errors.append(f"report.mode: unknown mode {report.get('mode')!r}")
    history = report.get("coverage_history")
    if isinstance(history, list):
        last = 0
        for index, value in enumerate(history):
            if not _is_number(value):
                errors.append(f"report.coverage_history[{index}]: "
                              "not a number")
                break
            if value < last:
                errors.append(f"report.coverage_history[{index}]: coverage "
                              f"shrank ({value} after {last}) -- coverage "
                              "is cumulative and must be non-decreasing")
                break
            last = value
        if history and isinstance(report.get("coverage"), int) and \
                history[-1] != report["coverage"]:
            errors.append("report.coverage: does not match the last "
                          "coverage_history entry")
    for index, seed in enumerate(report.get("corpus") or []):
        for error in validate_schedule(seed):
            errors.append(f"report.corpus[{index}].{error}")
        if len(errors) >= 20:
            errors.append("... (further violations suppressed)")
            break
    for index, finding in enumerate(report.get("violations") or []):
        where = f"report.violations[{index}]"
        if not isinstance(finding, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        for field in ("schedule", "shrunk_schedule"):
            if field in finding:
                for error in validate_schedule(finding[field]):
                    errors.append(f"{where}.{field}.{error}")
        if "replays_bit_identically" in finding and \
                not isinstance(finding["replays_bit_identically"], bool):
            errors.append(f"{where}.replays_bit_identically: not a bool")
    if report.get("violations") and report.get("pass") is True:
        errors.append("report.pass: true despite recorded violations")
    return errors


def validate_fuzz_report_file(path: Path) -> List[str]:
    if not path.exists():
        return [f"{path}: does not exist"]
    try:
        report = json.loads(path.read_text())
    except ValueError as error:
        return [f"{path}: not valid JSON ({error})"]
    return [f"{path}: {error}" for error in validate_fuzz_report(report)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", type=Path, action="append", default=[],
                        help="BENCH_*.json file to validate (repeatable)")
    parser.add_argument("--trace", type=Path, action="append", default=[],
                        help="TRACE_*.jsonl file to validate (repeatable)")
    parser.add_argument("--schedule", type=Path, action="append", default=[],
                        help="fuzz schedule JSON to validate (repeatable)")
    parser.add_argument("--fuzz-report", type=Path, action="append",
                        default=[],
                        help="FUZZ_REPORT_*.json file to validate "
                             "(repeatable)")
    parser.add_argument("--allow-missing-critical-path", action="store_true",
                        help="accept BENCH files without a critical_path "
                             "section (obs-disabled runs)")
    args = parser.parse_args(argv)
    if not (args.bench or args.trace or args.schedule or args.fuzz_report):
        parser.error("nothing to validate: pass --bench, --trace, "
                     "--schedule, and/or --fuzz-report")

    errors: List[str] = []
    for path in args.bench:
        errors.extend(validate_bench_file(
            path, require_critical_path=not args.allow_missing_critical_path))
    for path in args.trace:
        errors.extend(validate_trace_file(path))
    for path in args.schedule:
        errors.extend(validate_schedule_file(path))
    for path in args.fuzz_report:
        errors.extend(validate_fuzz_report_file(path))
    for error in errors:
        print(f"schema: {error}", file=sys.stderr)
    checked = (len(args.bench) + len(args.trace) + len(args.schedule) +
               len(args.fuzz_report))
    if not errors:
        print(f"schema: {checked} artifact(s) valid")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
