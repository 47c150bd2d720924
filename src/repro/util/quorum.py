"""Quorum arithmetic for the separated BFT architecture.

These helpers make the paper's replication-cost claims explicit and give the
test suite a single place to check them:

* agreement: ``3f + 1`` replicas, certificates carry ``2f + 1`` authenticators;
* execution: ``2g + 1`` replicas, replies carry ``g + 1`` authenticators;
* privacy firewall: ``(h + 1)^2`` filters arranged in ``h + 1`` rows.
"""

from __future__ import annotations

from typing import Collection, Iterable, Set, Tuple

from ..errors import ConfigurationError


def agreement_cluster_size(f: int) -> int:
    """Minimum number of agreement replicas to tolerate ``f`` Byzantine faults."""
    if f < 0:
        raise ConfigurationError("f must be non-negative")
    return 3 * f + 1


def agreement_quorum(f: int) -> int:
    """Number of agreement authenticators on a valid agreement certificate."""
    if f < 0:
        raise ConfigurationError("f must be non-negative")
    return 2 * f + 1


def execution_cluster_size(g: int) -> int:
    """Minimum number of execution replicas to tolerate ``g`` Byzantine faults."""
    if g < 0:
        raise ConfigurationError("g must be non-negative")
    return 2 * g + 1


def reply_quorum(g: int) -> int:
    """Number of matching execution authenticators on a valid reply certificate."""
    if g < 0:
        raise ConfigurationError("g must be non-negative")
    return g + 1


def coupled_reply_quorum(f: int) -> int:
    """Matching replies a BASE-style coupled system's client voter requires."""
    if f < 0:
        raise ConfigurationError("f must be non-negative")
    return f + 1


def firewall_grid_size(h: int) -> Tuple[int, int]:
    """(rows, columns) of the privacy firewall tolerating ``h`` filter faults."""
    if h < 0:
        raise ConfigurationError("h must be non-negative")
    return (h + 1, h + 1)


def max_agreement_faults(num_nodes: int) -> int:
    """Largest ``f`` an agreement cluster of ``num_nodes`` replicas tolerates."""
    if num_nodes < 1:
        raise ConfigurationError("agreement cluster needs at least one node")
    return (num_nodes - 1) // 3


def max_execution_faults(num_nodes: int) -> int:
    """Largest ``g`` an execution cluster of ``num_nodes`` replicas tolerates."""
    if num_nodes < 1:
        raise ConfigurationError("execution cluster needs at least one node")
    return (num_nodes - 1) // 2


def has_quorum(signers: Iterable[object], required: int,
               universe: Collection[object] | None = None) -> bool:
    """Return True iff ``signers`` contains at least ``required`` distinct
    members, all of which belong to ``universe`` when a universe is given."""
    distinct: Set[object] = set(signers)
    if universe is not None:
        distinct &= set(universe)
    return len(distinct) >= required
