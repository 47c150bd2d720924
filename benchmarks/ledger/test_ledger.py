"""Checks of the ledger itself.  Run explicitly (not part of tier-1):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spans import TARGETS, Tracer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SIM_WORKLOADS = ("sim-small-failover", "sim-crosslog-mix")
#: virtual-clock results and counts that tracing must not move
PASSIVE = ("virtual_commits_per_s", "virtual_latency_p50_ms",
           "sim.events_per_commit", "outage_virtual_ms", "late_share")


# ---------------------------------------------------------------------- #
# Span arithmetic, on a clock the test advances by hand.
# ---------------------------------------------------------------------- #

class Ticks:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_nested_spans_split_self_time():
    ticks = Ticks()
    tracer = Tracer(clock=ticks)

    def inner():
        ticks.now += 30

    inner = tracer.wrap(inner, "codec", "inner")

    def outer():
        ticks.now += 10
        inner()
        ticks.now += 5

    tracer.wrap(outer, "crypto", "outer")()
    assert tracer.self_ns["crypto"] == 15
    assert tracer.self_ns["codec"] == 30
    assert tracer.calls["crypto"] == tracer.calls["codec"] == 1
    (first, second) = sorted(tracer.spans)
    assert first[1:3] == ("crypto", "outer") and first[5] == -1
    assert second[1:3] == ("codec", "inner") and second[5] == first[0]
    assert (second[3], second[4]) == (10, 40) and (first[3], first[4]) == (0, 45)


def test_reentering_the_top_layer_is_not_a_new_span():
    ticks = Ticks()
    tracer = Tracer(clock=ticks)

    def encode(depth):
        ticks.now += 1
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.wrap(encode, "codec", "encode")
    wrapped(3)
    assert tracer.calls["codec"] == 1
    assert tracer.self_ns["codec"] == 4
    assert len(tracer.spans) == 1


def test_a_layer_re_entered_through_another_is_a_new_span():
    ticks = Ticks()
    tracer = Tracer(clock=ticks)

    def digest():
        ticks.now += 2

    digest = tracer.wrap(digest, "crypto", "digest")

    def encode():
        ticks.now += 3
        digest()

    encode = tracer.wrap(encode, "codec", "encode")

    def verify():
        ticks.now += 1
        encode()

    tracer.wrap(verify, "crypto", "verify")()
    assert tracer.calls == {**dict.fromkeys(tracer.calls, 0), "crypto": 2, "codec": 1}
    assert tracer.self_ns["crypto"] == 3 and tracer.self_ns["codec"] == 3


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=Ticks())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "net", "boom")()
    assert tracer.calls["net"] == 1 and not tracer._stack


def test_install_wraps_every_target_and_uninstall_restores_them():
    import importlib

    def resolve(module_name, class_name, name):
        module = importlib.import_module(module_name)
        return getattr(module if class_name is None
                       else getattr(module, class_name), name, None)

    names = [(m, c, n) for _, m, c, ns in TARGETS for n in ns]
    before = {key: resolve(*key) for key in names}
    from repro.net import message
    from repro.util import wirecache
    encoders = (message.canonical_encode, wirecache.canonical_encode)
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.still_patched()
        assert all(hasattr(resolve(*key), "__wrapped__")
                   for key in names if before[key] is not None)
        # by-name imports of a wrapped function are wrapped too
        assert hasattr(message.canonical_encode, "__wrapped__")
    finally:
        tracer.uninstall()
    assert tracer.still_patched() == []
    assert {key: resolve(*key) for key in names} == before
    assert (message.canonical_encode, wirecache.canonical_encode) == encoders


# ---------------------------------------------------------------------- #
# The whole benchmark, small.
# ---------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def smoke():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    ledger = json.loads((HERE / "out" / "ledger.json").read_text())
    return done.stdout, ledger, elapsed


def test_smoke_runs_all_four_workloads_quickly(smoke):
    _, ledger, elapsed = smoke
    assert elapsed < 30.0
    assert ({(run["workload"], run["trace"]) for run in ledger["runs"]}
            == {(w["name"], trace) for w in CONTRACT["workloads"] for trace in (0, 1)})
    for run in ledger["runs"]:
        assert run["failed"] == 0 and run["failures"] == [] and run["attempted"] > 0


def test_printed_names_are_the_contract_names(smoke):
    stdout, _, _ = smoke
    declared = {m["name"]: m["unit"]
                for section in ("end_to_end", "per_layer") for m in CONTRACT[section]}
    workloads = {w["name"] for w in CONTRACT["workloads"]}
    printed = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in workloads and fields[1] != "failed_share":
            printed.setdefault(fields[0], {})[fields[1]] = fields[3]
    assert set(printed) == workloads
    for workload, metrics in printed.items():
        assert metrics == declared, workload


def test_end_to_end_metrics_are_never_zero(smoke):
    _, ledger, _ = smoke
    for run in ledger["runs"]:
        if run["trace"] == 0:
            for metric in CONTRACT["end_to_end"]:
                assert run["metrics"][metric["name"]] > 0, (run["workload"], metric)


@pytest.mark.parametrize("workload", SIM_WORKLOADS)
def test_tracing_is_passive_on_the_simulator(smoke, workload):
    _, ledger, _ = smoke
    plain, traced = (next(run["metrics"] for run in ledger["runs"]
                          if run["workload"] == workload and run["trace"] == trace)
                     for trace in (0, 1))
    for name in PASSIVE:
        assert plain[name] == traced[name], name


def test_cuts_happen_only_where_logs_are_crossed(smoke):
    _, ledger, _ = smoke
    for run in ledger["runs"]:
        if run["trace"] == 1:
            cuts = run["metrics"]["queue.cuts_per_commit"]
            assert (cuts > 0) == (run["workload"] == "sim-crosslog-mix")
