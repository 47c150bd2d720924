"""System assembly: the base every deployment builds on.

:class:`SimulatedSystem` is the shared driver (scheduler, keystore, network,
clients, invoke/run helpers).  The paper's architecture -- ``3f + 1``
agreement nodes with message queues, ``2g + 1`` execution nodes, optionally
the ``(h + 1)^2`` privacy-firewall filters -- is the one-shard
:class:`~repro.sharding.system.ShardedSystem`, under the paper's name
:class:`~repro.sharding.system.SeparatedSystem`.  The two baselines
(:class:`~repro.core.baseline.CoupledSystem` and
:class:`~repro.core.unreplicated.UnreplicatedSystem`) extend the same driver,
so benchmarks can swap systems without changing the workload code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import SystemConfig
from ..crypto.keys import Keystore
from ..obs import ObservabilityHub, TraceEvent
from ..runtime import build_runtime
from ..sim.process import Process
from ..util.wirecache import WIRE_CACHE
from ..statemachine.interface import Operation
from .client import ClientNode, CompletedRequest


class SimulatedSystem:
    """Common driver for every deployment style."""

    def __init__(self, config: SystemConfig, seed: Optional[int] = None) -> None:
        self.config = config
        self.keystore = Keystore()
        # The runtime backend supplies the scheduler/network pair: the
        # deterministic virtual-time simulator by default, or the asyncio
        # real-socket backend when config.runtime selects it.  Everything
        # downstream (nodes, certificates, caches, drivers) is identical
        # across backends.
        self.runtime = build_runtime(
            config, seed if seed is not None else config.seed)
        self.scheduler = self.runtime.scheduler
        # The observability hub must be installed before any Process is
        # constructed: each node captures its registry and tracing flag in
        # Process.__init__.  The hub is strictly passive (no charges, no
        # events, no RNG), so virtual-time results are identical with
        # observability on, off, or absent.
        self.obs = ObservabilityHub(config.observability)
        self.scheduler.obs = self.obs
        self.obs.register_global_probe("wire_cache", WIRE_CACHE.snapshot)
        self.network = self.runtime.network
        self.obs.register_global_probe("net_census", self.network.stats.census)
        self.clients: List[ClientNode] = []
        self._completed = 0

    # ------------------------------------------------------------------ #
    # Running the simulation.
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.scheduler.now

    def run(self, duration_ms: float) -> float:
        """Advance virtual time by ``duration_ms`` (processing due events)."""
        return self.scheduler.run(until=self.scheduler.now + duration_ms)

    def run_until(self, predicate: Callable[[], bool], timeout_ms: float,
                  description: str = "condition") -> float:
        """Run until ``predicate`` holds; raises LivenessTimeoutError otherwise."""
        return self.scheduler.run_until(predicate, timeout_ms, description)

    def close(self) -> None:
        """Release runtime resources (sockets; a no-op on the simulator)."""
        self.runtime.close()

    def __enter__(self) -> "SimulatedSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Issuing requests.
    # ------------------------------------------------------------------ #

    def invoke(self, operation: Operation, client_index: int = 0,
               timeout_ms: float = 60_000.0) -> CompletedRequest:
        """Submit ``operation`` from one client and run until its reply arrives."""
        client = self.clients[client_index]
        before = len(client.completed)
        client.submit(operation)
        self.run_until(lambda: len(client.completed) > before, timeout_ms,
                       description=f"reply for client {client.node_id}")
        return client.completed[-1]

    def submit(self, operation: Operation, client_index: int = 0) -> int:
        """Submit without waiting (the client queues behind its outstanding request)."""
        return self.clients[client_index].submit(operation)

    def total_completed(self) -> int:
        """Total requests completed across all clients (O(1): a run-until
        predicate may ask after every event)."""
        return self._completed

    def _note_completion(self) -> None:
        self._completed += 1

    def _add_client(self, client: ClientNode) -> None:
        """Make ``client`` one of this system's clients."""
        client.on_complete = self._note_completion
        self.clients.append(client)
        self.network.register(client)

    def all_latencies_ms(self) -> List[float]:
        """Latencies of every completed request across all clients."""
        return [latency for client in self.clients for latency in client.latencies_ms()]

    # ------------------------------------------------------------------ #
    # Metrics.
    # ------------------------------------------------------------------ #

    def server_processes(self) -> List[Process]:
        """The server-side processes of this deployment (overridden)."""
        return []

    def crypto_op_totals(self) -> Dict[str, int]:
        """Aggregate cryptographic operation counts over all server processes."""
        totals: Dict[str, int] = {}
        for process in self.server_processes():
            for op, count in process.stats.crypto_ops.items():
                totals[op] = totals.get(op, 0) + count
        return totals

    def max_server_utilization(self, elapsed_ms: Optional[float] = None) -> float:
        """Utilisation of the busiest server node over ``elapsed_ms`` (default: now)."""
        window = elapsed_ms if elapsed_ms is not None else max(self.now, 1e-9)
        servers = self.server_processes()
        if not servers:
            return 0.0
        return max(process.stats.utilization(window) for process in servers)

    # ------------------------------------------------------------------ #
    # Observability.
    # ------------------------------------------------------------------ #

    def metrics_snapshot(self) -> Dict[str, object]:
        """Every node's registered instruments and probes, plus the per-node
        crypto operation counters (which surface the ``*_cached`` tallies).

        Empty when ``config.observability.metrics`` is off.
        """
        if not self.config.observability.metrics:
            return {}
        snapshot = self.obs.metrics_snapshot()
        snapshot["crypto_ops"] = self.crypto_op_totals()
        return snapshot

    def trace_events(self) -> List[TraceEvent]:
        """Every recorded trace event, in record order (empty when off)."""
        return self.obs.tracer.events()

    def export_trace_jsonl(self, path: str) -> int:
        """Write the recorded trace to ``path`` as JSONL; returns the count."""
        return self.obs.tracer.export_jsonl(path)

    def critical_path(self) -> Dict[str, object]:
        """Per-stage latency breakdown folded from the recorded trace."""
        from ..analysis.critical_path import critical_path_breakdown

        return critical_path_breakdown(self.trace_events())


def __getattr__(name: str):
    # ``SeparatedSystem`` -- the paper's deployment, the one-shard
    # ``ShardedSystem`` -- is defined with the builder it fixes; this module
    # resolves it under its old home, which the frozen performance ledger
    # (benchmarks/ledger/workloads.py) imports.  Resolved on first use:
    # ``repro.sharding.system`` itself imports this module.
    if name == "SeparatedSystem":
        from ..sharding.system import SeparatedSystem
        return SeparatedSystem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
