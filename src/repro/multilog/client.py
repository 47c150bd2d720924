"""The shard-aware client under its multi-log name.

:class:`~repro.sharding.client.ShardAwareClient` keeps one view cursor per
agreement log, so there is no separate multi-log client any more.
"""

from ..sharding.client import ShardAwareClient

# Alias kept only because the frozen performance ledger
# (benchmarks/ledger/spans.py::TARGETS) resolves this module and name.
MultiLogClient = ShardAwareClient
