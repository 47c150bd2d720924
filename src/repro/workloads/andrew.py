"""The modified Andrew benchmark (Figures 6 and 7 of the paper).

The Andrew benchmark has five phases:

1. recursive subdirectory creation,
2. copying a source tree into the new directories,
3. examining file attributes without reading contents (stat),
4. reading every file,
5. "compiling and linking" -- modelled as reading the sources and writing
   object/output files with per-request compute time.

The paper runs Andrew-500 (500 sequential copies of the benchmark) against a
replicated NFS server.  Absolute completion times depend on hardware the
simulation does not model, so the harness uses a scaled-down tree and a
configurable repetition count; the comparison across configurations (No
replication vs BASE vs privacy firewall, with and without faults) is what
reproduces the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..apps.nfs import (
    nfs_create,
    nfs_getattr,
    nfs_lookup,
    nfs_mkdir,
    nfs_read,
    nfs_readdir,
    nfs_write,
)
from ..core.system import SimulatedSystem
from ..statemachine.interface import Operation

PHASE_NAMES = {
    1: "mkdir tree",
    2: "copy sources",
    3: "stat files",
    4: "read files",
    5: "compile and link",
}


@dataclass(frozen=True)
class AndrewScale:
    """Size of one Andrew iteration (scaled down from the original tree)."""

    directories: int = 4
    files_per_directory: int = 3
    file_size_bytes: int = 2048
    compile_ms_per_file: float = 1.0


@dataclass
class AndrewResult:
    """Per-phase and total completion times (virtual milliseconds)."""

    label: str
    iterations: int
    phase_ms: Dict[int, float] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return sum(self.phase_ms.values())

    def row(self) -> str:
        phases = " ".join(f"{self.phase_ms.get(i, 0.0):>10.1f}" for i in range(1, 6))
        return f"{self.label:<24} {phases} {self.total_ms:>12.1f}"


def andrew_phase_operations(phase: int, iteration: int,
                            scale: AndrewScale) -> List[Operation]:
    """The NFS operations issued by one phase of one Andrew iteration."""
    root = f"/andrew{iteration}"
    operations: List[Operation] = []
    if phase == 1:
        operations.append(nfs_mkdir(root))
        for d in range(scale.directories):
            operations.append(nfs_mkdir(f"{root}/dir{d}"))
    elif phase == 2:
        for d in range(scale.directories):
            for f in range(scale.files_per_directory):
                path = f"{root}/dir{d}/src{f}.c"
                operations.append(nfs_create(path))
                operations.append(nfs_write(path, 0, scale.file_size_bytes,
                                            data=f"source-{iteration}-{d}-{f}"))
    elif phase == 3:
        for d in range(scale.directories):
            operations.append(nfs_readdir(f"{root}/dir{d}"))
            for f in range(scale.files_per_directory):
                operations.append(nfs_getattr(f"{root}/dir{d}/src{f}.c"))
    elif phase == 4:
        for d in range(scale.directories):
            for f in range(scale.files_per_directory):
                operations.append(nfs_read(f"{root}/dir{d}/src{f}.c", 0,
                                           scale.file_size_bytes))
    elif phase == 5:
        for d in range(scale.directories):
            for f in range(scale.files_per_directory):
                source = f"{root}/dir{d}/src{f}.c"
                obj = f"{root}/dir{d}/src{f}.o"
                read = nfs_read(source, 0, scale.file_size_bytes)
                compile_read = Operation(kind=read.kind,
                                         args={**read.args,
                                               "processing_ms": scale.compile_ms_per_file},
                                         body_size=read.body_size,
                                         reply_size=read.reply_size)
                operations.append(compile_read)
                operations.append(nfs_create(obj))
                operations.append(nfs_write(obj, 0, scale.file_size_bytes // 2))
        operations.append(nfs_create(f"{root}/program.out"))
        operations.append(nfs_write(f"{root}/program.out", 0,
                                    scale.file_size_bytes * scale.directories // 2))
    else:
        raise ValueError(f"Andrew has phases 1-5, not {phase}")
    return operations


def run_andrew(system: SimulatedSystem, *, label: str, iterations: int = 2,
               scale: Optional[AndrewScale] = None, client_index: int = 0,
               timeout_ms: float = 600_000.0) -> AndrewResult:
    """Run ``iterations`` sequential Andrew iterations and time each phase."""
    scale = scale or AndrewScale()
    result = AndrewResult(label=label, iterations=iterations)
    for phase in range(1, 6):
        start = system.now
        for iteration in range(iterations):
            for operation in andrew_phase_operations(phase, iteration, scale):
                record = system.invoke(operation, client_index=client_index,
                                       timeout_ms=timeout_ms)
                if record.result.error and phase in (1, 2):
                    # Surfacing setup errors early makes benchmark failures
                    # much easier to diagnose than a cascade of later errors.
                    raise RuntimeError(
                        f"Andrew phase {phase} operation failed: {record.result.error}"
                    )
        result.phase_ms[phase] = system.now - start
    return result
