"""``python -m repro.fuzz`` -- the Byzantine fuzzing CLI.

Modes:

* ``explore`` -- coverage-guided campaign over one scenario; writes a
  ``FUZZ_REPORT_<scenario>.json`` report and saves the novelty corpus.
  Exit status 1 if a violation was found (the report carries the shrunk
  reproducer and its replay digests).
* ``replay`` -- run one schedule file and print its oracle verdicts; exit 1
  on violation.  This is how a corpus seed downloaded from a CI artifact is
  reproduced locally.
* ``shrink`` -- minimise a violating schedule file to the smallest schedule
  that still violates, and write it next to the input.
* ``corpus-regression`` -- replay every committed corpus seed; exit 1 if any
  replays into a violation (used by PR-time CI).  ``--compare REPORT``
  additionally exits 1, listing the seeds, when a seed's ``replay_digest``
  differs from the one in a report written earlier with ``--out`` -- the
  "artifacts do not move" check of a refactor (docs/BENCHMARKS.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import replay_corpus, save_corpus
from .explorer import explore
from .harness import SCENARIOS, run_schedule
from .schedule import FaultSchedule
from .shrink import shrink


def _load_schedule(path: Path) -> FaultSchedule:
    return FaultSchedule.from_json(Path(path).read_text())


def _write_json(path: Path, data: dict) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def cmd_explore(args: argparse.Namespace) -> int:
    def progress(runs, result, novel, coverage):
        status = "VIOLATION" if result.violations else "ok"
        print(f"[{args.scenario}] run {runs}: {status} "
              f"(+{novel} tokens, coverage {coverage}) "
              f"{result.schedule.describe()}")

    report = explore(args.scenario, budget=args.budget, seed=args.seed,
                     num_requests=args.num_requests,
                     weaken_reply_quorum=args.weaken_reply_quorum,
                     disable_forwarding_defence=args.disable_forwarding_defence,
                     time_box_s=args.time_box_s,
                     progress=progress if args.verbose else None)
    if args.corpus_dir:
        paths = save_corpus(Path(args.corpus_dir), report.corpus)
        print(f"saved {len(paths)} corpus seeds to {args.corpus_dir}")
    out = Path(args.out or f"FUZZ_REPORT_{args.scenario}.json")
    _write_json(out, report.to_json_dict())
    print(f"{args.scenario}: {report.runs} schedules, "
          f"coverage {report.coverage}, "
          f"{len(report.findings)} violation(s) -> {out}")
    for finding in report.findings:
        print("VIOLATION:", file=sys.stderr)
        for violation in finding.run.violations:
            print(f"  {violation.oracle}: {violation.detail}", file=sys.stderr)
        print(f"  shrunk to {len(finding.shrunk.schedule.events)} event(s); "
              f"bit-identical replay: {finding.replays_bit_identically}",
              file=sys.stderr)
    return 1 if report.findings else 0


def cmd_replay(args: argparse.Namespace) -> int:
    schedule = _load_schedule(args.schedule)
    result = run_schedule(
        schedule, weaken_reply_quorum=args.weaken_reply_quorum,
        disable_forwarding_defence=args.disable_forwarding_defence)
    if args.out:
        _write_json(Path(args.out), {"mode": "replay",
                                     **result.to_json_dict(),
                                     "pass": result.ok})
    print(f"replay {schedule.describe()}: completed "
          f"{result.completed}/{result.expected}, "
          f"digest {result.replay_digest[:16]}..., "
          f"{len(result.violations)} violation(s)")
    for violation in result.violations:
        print(f"  {violation.oracle}: {violation.detail}", file=sys.stderr)
    return 1 if result.violations else 0


def cmd_shrink(args: argparse.Namespace) -> int:
    schedule = _load_schedule(args.schedule)

    def run(candidate: FaultSchedule):
        return run_schedule(
            candidate, weaken_reply_quorum=args.weaken_reply_quorum,
            disable_forwarding_defence=args.disable_forwarding_defence)

    shrunk = shrink(schedule, run=run)
    out = Path(args.out or str(args.schedule) + ".shrunk")
    _write_json(out, shrunk.schedule.to_json_dict())
    print(f"shrunk {len(schedule.events)} -> {len(shrunk.schedule.events)} "
          f"event(s) in {shrunk.runs} runs -> {out}")
    return 0


def cmd_corpus_regression(args: argparse.Namespace) -> int:
    def progress(done, total, result):
        status = "VIOLATION" if result.violations else "ok"
        print(f"[{done}/{total}] {status} {result.schedule.describe()}")

    report = replay_corpus(Path(args.corpus_dir),
                           progress=progress if args.verbose else None)
    if args.out:
        _write_json(Path(args.out), report.to_json_dict())
    print(f"corpus-regression: {report.seeds} seed(s), "
          f"{'pass' if report.ok else 'FAIL'}")
    for result in report.results:
        for violation in result.violations:
            print(f"  {result.schedule.digest()[:12]}: "
                  f"{violation.oracle}: {violation.detail}", file=sys.stderr)
    moved = []
    if args.compare:
        earlier = {replay["schedule_digest"]: replay["replay_digest"]
                   for replay in
                   json.loads(Path(args.compare).read_text())["replays"]}
        moved = [result.schedule.digest() for result in report.results
                 if earlier.get(result.schedule.digest())
                 != result.replay_digest]
        print(f"compare {args.compare}: {len(moved)} of {report.seeds} "
              f"replay digest(s) differ")
        for digest in moved:
            print(f"  {digest[:12]}: replay digest moved (or seed not in "
                  f"the earlier report)", file=sys.stderr)
    return 0 if report.ok and not moved else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Byzantine fuzzing: coverage-guided adversarial "
                    "schedule search with invariant oracles")
    sub = parser.add_subparsers(dest="mode", required=True)

    p_explore = sub.add_parser("explore", help="coverage-guided campaign")
    p_explore.add_argument("--scenario", choices=sorted(SCENARIOS),
                           default="sharded")
    p_explore.add_argument("--budget", type=int, default=50,
                           help="max schedules to execute")
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.add_argument("--num-requests", type=int, default=40)
    p_explore.add_argument("--time-box-s", type=float, default=None,
                           help="wall-clock cap on the campaign")
    p_explore.add_argument("--corpus-dir", default=None,
                           help="directory to save novelty corpus seeds")
    p_explore.add_argument("--out", default=None,
                           help="report path (default FUZZ_REPORT_<scenario>.json)")
    p_explore.add_argument("--weaken-reply-quorum", action="store_true",
                           help="TEST ONLY: plant the g-instead-of-g+1 reply "
                                "quorum bug the campaign should find")
    p_explore.add_argument("--disable-forwarding-defence", action="store_true",
                           help="TEST ONLY: plant the censoring-primary "
                                "liveness bug (no backup forwarding or "
                                "request deadlines) the bounded-progress "
                                "oracle should find")
    p_explore.add_argument("--verbose", action="store_true")
    p_explore.set_defaults(func=cmd_explore)

    p_replay = sub.add_parser("replay", help="replay one schedule file")
    p_replay.add_argument("schedule", type=Path)
    p_replay.add_argument("--out", default=None)
    p_replay.add_argument("--weaken-reply-quorum", action="store_true")
    p_replay.add_argument("--disable-forwarding-defence", action="store_true")
    p_replay.set_defaults(func=cmd_replay)

    p_shrink = sub.add_parser("shrink", help="minimise a violating schedule")
    p_shrink.add_argument("schedule", type=Path)
    p_shrink.add_argument("--out", default=None)
    p_shrink.add_argument("--weaken-reply-quorum", action="store_true")
    p_shrink.add_argument("--disable-forwarding-defence", action="store_true")
    p_shrink.set_defaults(func=cmd_shrink)

    p_reg = sub.add_parser("corpus-regression",
                           help="replay every committed corpus seed")
    p_reg.add_argument("--corpus-dir", default="benchmarks/fuzz_corpus")
    p_reg.add_argument("--out", default=None)
    p_reg.add_argument("--compare", default=None, metavar="REPORT",
                       help="fail if any seed's replay_digest differs from "
                            "this earlier --out report")
    p_reg.add_argument("--verbose", action="store_true")
    p_reg.set_defaults(func=cmd_corpus_regression)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
