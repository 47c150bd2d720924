"""The client under its multi-log name.

:class:`~repro.core.client.ClientNode` keeps one view cursor per agreement
log, so there is no separate multi-log client.
"""

from ..core.client import ClientNode

# Alias kept only because the frozen performance ledger
# (benchmarks/ledger/spans.py::TARGETS) resolves this module and name.
MultiLogClient = ClientNode
