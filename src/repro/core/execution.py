"""The execution replica's old home.

The one execution replica is :class:`repro.sharding.execution.ExecutionNode`
(the paper's deployment is its one-shard case).
"""


def __getattr__(name: str):
    # ``ExecutionNode`` is kept here only because the frozen performance
    # ledger (benchmarks/ledger/spans.py) resolves this module and name.
    # Resolved on first use: ``repro.sharding`` imports ``repro.core``.
    if name == "ExecutionNode":
        from ..sharding.execution import ExecutionNode
        return ExecutionNode
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
