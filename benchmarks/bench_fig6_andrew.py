"""Figure 6 (table): modified Andrew benchmark times per phase.

The paper runs Andrew-500 against a replicated NFS server under three
configurations -- no replication, BASE, and the privacy-firewall system --
and reports per-phase completion times.  For the Andrew runs the paper
assumes hardware acceleration of the threshold signatures, which we model by
scaling the crypto cost model down.

Shape to reproduce: BASE costs roughly 2x the unreplicated server on this
metadata-heavy workload, and the privacy-firewall system is a further modest
slowdown over BASE (the paper reports ~16%), with the compile phase (5)
dominating total time.
"""

from __future__ import annotations

import pytest

from bench_common import bench_config, print_section
from repro.analysis import format_table
from repro.apps.nfs import NfsService
from repro.config import AuthenticationScheme, CryptoCosts, Deployment
from repro.core import CoupledSystem, SeparatedSystem, UnreplicatedSystem
from repro.workloads import AndrewScale, run_andrew

#: the paper assumes hardware support for threshold signatures in these runs
ACCELERATED = CryptoCosts().scaled(0.1)
SCALE = AndrewScale(directories=3, files_per_directory=2, file_size_bytes=2048,
                    compile_ms_per_file=2.0)
ITERATIONS = 1
#: server-side file-system work per NFS operation.  The paper's NFS server
#: runs against a real file system, so per-operation latency is dominated by
#: file-system/disk work rather than replication protocol cost; without this
#: term the protocol overhead would be the whole story and the ratios between
#: configurations would be far larger than the paper's.
FS_WORK_MS = 2.0


def build(label: str):
    if label == "No replication":
        return UnreplicatedSystem(bench_config(f=0, g=0, crypto=ACCELERATED,
                                               app_processing_ms=FS_WORK_MS),
                                  NfsService, seed=106)
    if label == "BASE":
        return CoupledSystem(bench_config(deployment=Deployment.SAME, crypto=ACCELERATED,
                                          app_processing_ms=FS_WORK_MS),
                             NfsService, seed=106)
    if label == "Firewall":
        return SeparatedSystem(bench_config(authentication=AuthenticationScheme.THRESHOLD,
                                            use_privacy_firewall=True,
                                            crypto=ACCELERATED,
                                            app_processing_ms=FS_WORK_MS),
                               NfsService, seed=106)
    raise ValueError(label)


CONFIG_LABELS = ["No replication", "BASE", "Firewall"]


def run_config(label: str):
    system = build(label)
    return run_andrew(system, label=label, iterations=ITERATIONS, scale=SCALE)


@pytest.mark.parametrize("label", CONFIG_LABELS, ids=CONFIG_LABELS)
def test_fig6_andrew_configuration(benchmark, label):
    """One column of Figure 6: Andrew phases under one configuration."""
    result = benchmark.pedantic(run_config, args=(label,), iterations=1, rounds=1)
    benchmark.extra_info["virtual_total_ms"] = result.total_ms
    print(f"\n[Fig6] {result.row()}")
    assert set(result.phase_ms) == {1, 2, 3, 4, 5}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 5(a): the firewall's Andrew total is above 2 x BASE's "
    "(the current totals: docs/BENCHMARKS.md, 'Figure 6: the strict "
    "xfail'); the cause is not explained yet, and the bound stays until "
    "it is"))
def test_fig6_summary_table(benchmark):
    """Regenerate the whole table and check the paper's ordering."""
    # Keep this table-producing check visible under --benchmark-only by
    # registering a (trivial) timing round with the benchmark fixture.
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    results = {label: run_config(label) for label in CONFIG_LABELS}
    print_section(f"Figure 6: Andrew benchmark ({ITERATIONS} iterations, virtual ms)")
    rows = []
    for phase in range(1, 6):
        rows.append([f"phase {phase}"]
                    + [results[label].phase_ms[phase] for label in CONFIG_LABELS])
    rows.append(["TOTAL"] + [results[label].total_ms for label in CONFIG_LABELS])
    print(format_table(["phase"] + CONFIG_LABELS, rows))

    no_rep = results["No replication"].total_ms
    base = results["BASE"].total_ms
    firewall = results["Firewall"].total_ms
    # Replication costs more than no replication; the firewall costs more
    # than BASE but by a modest factor (paper: ~16%; allow a generous band).
    assert base > no_rep
    assert firewall > base
    assert firewall < 2.0 * base
    # The compile phase dominates, as in the paper.
    for label in CONFIG_LABELS:
        assert results[label].phase_ms[5] == max(results[label].phase_ms.values())
