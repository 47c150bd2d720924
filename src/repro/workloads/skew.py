"""Hot-key (skewed) workloads for the sharded architecture.

Real key-value traffic is rarely uniform: a small set of hot keys absorbs
most accesses, and with range partitioning those keys concentrate on one
shard.  This module generates the classic **80/20 hot-range workload** (80%
of requests to the hottest ``hot_key_fraction`` of the key space, which a
range partitioner maps to one shard) plus Zipf-distributed variants, and a
fixed-window driver that measures *committed requests per second* while the
skew is live -- the quantity the per-shard pipeline windows
(:attr:`repro.config.SystemConfig.per_shard_windows`) are designed to protect.

The driver uses **shard-affine closed-loop clients**: each client works one
shard's keys, so a client stuck behind the hot shard never head-of-line
blocks traffic destined for a cold shard at the submission layer (with
mixed per-client streams, the one-outstanding-request client discipline
would serialise hot and cold traffic before it ever reached the system,
masking the server-side pathology this workload exists to expose).  Skew
shows up the way it does in production: most *users* hammer the hot keys.

Everything is seeded and deterministic, so benchmark comparisons between
pipeline configurations replay bit-identical workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..apps.kvstore import get as kv_get
from ..apps.kvstore import put as kv_put
from ..core.system import SimulatedSystem


def skew_key(index: int) -> str:
    """The ``index``-th key of the zero-padded, range-partitionable key space."""
    return f"key-{index:05d}"


def equal_range_boundaries(key_space: int, num_shards: int) -> Tuple[str, ...]:
    """Range-partitioner boundaries splitting ``key_space`` keys into
    ``num_shards`` equal, contiguous ranges (shard 0 owns the lowest --
    hottest -- range)."""
    return tuple(skew_key(key_space * shard // num_shards)
                 for shard in range(1, num_shards))


def hot_range_operations(num_requests: int, *, key_space: int = 64,
                         hot_fraction: float = 0.8,
                         hot_key_fraction: float = 0.25,
                         write_fraction: float = 0.5, value_size: int = 32,
                         seed: int = 0) -> List:
    """The 80/20 hot-range put/get mix.

    With probability ``hot_fraction`` a request targets the hottest
    ``hot_key_fraction`` of the (lexicographically ordered) key space --
    under :func:`equal_range_boundaries` with ``hot_key_fraction = 1 /
    num_shards`` that is exactly shard 0's range -- and otherwise a key
    drawn uniformly from the remainder.
    """
    hot_count = max(1, int(key_space * hot_key_fraction))
    rng = random.Random(seed)
    operations = []
    for _ in range(num_requests):
        if rng.random() < hot_fraction:
            index = rng.randrange(hot_count)
        else:
            index = hot_count + rng.randrange(key_space - hot_count)
        key = skew_key(index)
        if rng.random() < write_fraction:
            operations.append(kv_put(key, "v" * value_size))
        else:
            operations.append(kv_get(key))
    return operations


def migrating_hot_range_operations(num_requests: int, *, key_space: int = 64,
                                   num_phases: int = 3,
                                   hot_fraction: float = 0.8,
                                   hot_key_fraction: float = 0.25,
                                   write_fraction: float = 0.5,
                                   value_size: int = 32,
                                   seed: int = 0) -> List:
    """A hotspot that *moves*: the rebalancer's worst honest adversary.

    The request stream is divided into ``num_phases`` equal phases; within
    each phase, ``hot_fraction`` of the requests target one contiguous
    ``hot_key_fraction`` window of the key space, and the window shifts to a
    different region every phase (phase ``p`` starts at offset ``p *
    key_space / num_phases``).  Static boundaries serialise every phase
    behind whichever shard owns the current window; a rebalancer must keep
    splitting the live hotspot apart -- and re-merging the ranges the
    hotspot abandoned -- to keep all clusters busy.
    """
    hot_count = max(1, int(key_space * hot_key_fraction))
    per_phase = max(1, num_requests // num_phases)
    rng = random.Random(seed)
    operations = []
    for index in range(num_requests):
        phase = min(index // per_phase, num_phases - 1)
        offset = key_space * phase // num_phases
        if rng.random() < hot_fraction:
            key_index = (offset + rng.randrange(hot_count)) % key_space
        else:
            cold = rng.randrange(key_space - hot_count)
            key_index = (offset + hot_count + cold) % key_space
        key = skew_key(key_index)
        if rng.random() < write_fraction:
            operations.append(kv_put(key, "v" * value_size))
        else:
            operations.append(kv_get(key))
    return operations


def zipf_operations(num_requests: int, *, key_space: int = 64,
                    exponent: float = 1.2, write_fraction: float = 0.5,
                    value_size: int = 32, seed: int = 0) -> List:
    """Zipf-distributed put/get mix (rank-``r`` key drawn with weight
    ``1 / r**exponent``); ranks follow key order, so range partitioning
    concentrates the head of the distribution on shard 0."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** exponent for rank in range(key_space)]
    indices = rng.choices(range(key_space), weights=weights, k=num_requests)
    operations = []
    for index in indices:
        key = skew_key(index)
        if rng.random() < write_fraction:
            operations.append(kv_put(key, "v" * value_size))
        else:
            operations.append(kv_get(key))
    return operations


def shard_affine_clients(num_clients: int, num_shards: int, *,
                         hot_shard: int = 0,
                         hot_fraction: float = 0.8) -> List[int]:
    """Assign each client a shard affinity: ``hot_fraction`` of the clients
    work the hot shard, the rest are spread round-robin over the others."""
    hot_clients = max(1, int(round(num_clients * hot_fraction)))
    if num_shards == 1:
        return [hot_shard] * num_clients
    cold_shards = [shard for shard in range(num_shards) if shard != hot_shard]
    affinity = [hot_shard] * hot_clients
    for i in range(num_clients - hot_clients):
        affinity.append(cold_shards[i % len(cold_shards)])
    return affinity


@dataclass(frozen=True)
class SkewWindowResult:
    """Committed throughput measured over a fixed window under live skew."""

    label: str
    duration_ms: float
    committed: int
    committed_per_sec: float
    committed_by_shard: List[int]
    submitted_by_shard: List[int]
    clients_by_shard: List[int]

    def row(self) -> str:
        shards = "/".join(str(count) for count in self.committed_by_shard)
        return (f"{self.label:<26} {self.committed:>7} "
                f"{self.committed_per_sec:>10.1f}   [{shards}]")


def run_ordered_window(system: SimulatedSystem, *, operations: Sequence,
                       duration_ms: float, label: str = "",
                       warmup_ms: float = 200.0) -> SkewWindowResult:
    """Fixed-window driver that preserves the stream's *temporal* structure.

    Operations are dealt round-robin over every client, so each client's
    closed-loop FIFO holds an in-order slice of the stream and the whole
    cohort advances through it roughly in lockstep -- a workload whose
    hotspot migrates over the stream (``migrating_hot_range_operations``)
    therefore migrates over *time* at the servers.  (The shard-affine driver
    below would instead pre-sort the stream into per-shard pools, executing
    all phases concurrently and erasing the very migration a rebalancer
    reacts to.)  Measurement matches :func:`run_skew_window`: per-shard
    executed-request deltas over a fixed window after warmup.
    """
    router = getattr(system, "router", None)
    if router is None:
        raise ValueError("run_ordered_window needs a sharded system (no router)")
    num_shards = router.num_shards
    num_clients = len(system.clients)
    submitted_by_shard = [0] * num_shards
    for index, operation in enumerate(operations):
        system.submit(operation, client_index=index % num_clients)
        submitted_by_shard[router.shard_of_operation(operation, epoch=0)] += 1

    system.run(warmup_ms)
    executed_before = list(system.requests_executed_by_shard())
    system.run(duration_ms)
    executed_after = list(system.requests_executed_by_shard())
    committed_by_shard = [after - before for before, after
                          in zip(executed_before, executed_after)]
    committed = sum(committed_by_shard)
    return SkewWindowResult(
        label=label,
        duration_ms=duration_ms,
        committed=committed,
        committed_per_sec=1000.0 * committed / max(duration_ms, 1e-9),
        committed_by_shard=committed_by_shard,
        submitted_by_shard=submitted_by_shard,
        clients_by_shard=[num_clients // num_shards] * num_shards,
    )


def run_skew_window(system: SimulatedSystem, *, operations: Sequence,
                    client_shards: Sequence[int], duration_ms: float,
                    label: str = "", warmup_ms: float = 200.0) -> SkewWindowResult:
    """Drive shard-affine closed-loop clients and measure a fixed window.

    ``client_shards[i]`` is client ``i``'s shard affinity; each operation is
    routed to the next client affine to its owning shard (operations whose
    shard has no affine client are dropped from the run).  After
    ``warmup_ms`` of ramp-up the executed-request counters are snapshotted,
    the system runs for ``duration_ms``, and committed-requests/second is
    the per-shard executed delta over the window -- clients still hold
    queued work when the window closes, so the measurement reflects
    steady-state capacity rather than tail-drain time.
    """
    router = getattr(system, "router", None)
    if router is None:
        raise ValueError("run_skew_window needs a sharded system (no router)")
    num_shards = router.num_shards
    pools: List[List[int]] = [[] for _ in range(num_shards)]
    for client_index, shard in enumerate(client_shards):
        pools[shard].append(client_index)
    next_in_pool = [0] * num_shards
    submitted_by_shard = [0] * num_shards
    for operation in operations:
        shard = router.shard_of_operation(operation)
        pool = pools[shard]
        if not pool:
            continue
        client_index = pool[next_in_pool[shard] % len(pool)]
        next_in_pool[shard] += 1
        system.submit(operation, client_index=client_index)
        submitted_by_shard[shard] += 1

    system.run(warmup_ms)
    executed_before = list(system.requests_executed_by_shard())
    system.run(duration_ms)
    executed_after = list(system.requests_executed_by_shard())
    committed_by_shard = [after - before for before, after
                          in zip(executed_before, executed_after)]
    committed = sum(committed_by_shard)
    clients_by_shard = [len(pool) for pool in pools]
    return SkewWindowResult(
        label=label,
        duration_ms=duration_ms,
        committed=committed,
        committed_per_sec=1000.0 * committed / max(duration_ms, 1e-9),
        committed_by_shard=committed_by_shard,
        submitted_by_shard=submitted_by_shard,
        clients_by_shard=clients_by_shard,
    )
