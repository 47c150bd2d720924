"""System assembly: build complete deployments on the simulated network.

:class:`SimulatedSystem` is the shared driver (scheduler, keystore, network,
clients, invoke/run helpers); :class:`SeparatedSystem` builds the paper's
architecture -- ``3f + 1`` agreement nodes with message queues, ``2g + 1``
execution nodes, optionally the ``(h + 1)^2`` privacy-firewall filters -- and
wires the restricted communication topology.  The two baselines
(:class:`~repro.core.baseline.CoupledSystem` and
:class:`~repro.core.unreplicated.UnreplicatedSystem`) extend the same driver,
so benchmarks can swap systems without changing the workload code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..agreement.replica import AgreementReplica
from ..config import AuthenticationScheme, Deployment, SystemConfig
from ..crypto.keys import Keystore
from ..errors import ConfigurationError, LivenessTimeoutError
from ..net.topology import Topology
from ..obs import ObservabilityHub, TraceEvent
from ..runtime import build_runtime
from ..sim.process import Process
from ..util.wirecache import WIRE_CACHE
from ..statemachine.interface import Operation, StateMachine
from ..util.ids import NodeId, agreement_id, client_id, execution_id
from .client import ClientNode, CompletedRequest
from .execution import ExecutionNode
from .message_queue import MessageQueue

#: name of the execution cluster's threshold-signature group
EXECUTION_THRESHOLD_GROUP = "execution-replies"


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
            config, seed if seed is not None else config.seed,
            keystore=self.keystore)
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
        """Release runtime resources (sockets, pools; a no-op on the simulator)."""
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
        """Total requests completed across all clients."""
        return sum(len(client.completed) for client in self.clients)

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


class SeparatedSystem(SimulatedSystem):
    """The paper's architecture: separate agreement and execution clusters,
    optionally behind the privacy firewall."""

    def __init__(self, config: SystemConfig,
                 app_factory: Callable[[], StateMachine],
                 num_clients: Optional[int] = None,
                 seed: Optional[int] = None) -> None:
        super().__init__(config, seed=seed)
        count = num_clients if num_clients is not None else config.num_clients
        self.agreement_ids = [agreement_id(i) for i in range(config.num_agreement_nodes)]
        self.execution_ids = [execution_id(i) for i in range(config.num_execution_nodes)]
        self.client_ids = [client_id(i) for i in range(count)]

        threshold_group: Optional[str] = None
        if config.authentication is AuthenticationScheme.THRESHOLD:
            threshold_group = EXECUTION_THRESHOLD_GROUP
            self.keystore.create_threshold_group(
                threshold_group, self.execution_ids, config.reply_quorum)
        self.threshold_group = threshold_group

        # ---------------- Privacy firewall (optional). ---------------- #
        self.firewall = None
        firewall_ids: List[NodeId] = []
        if config.use_privacy_firewall:
            from ..firewall.array import FirewallArray

            self.firewall = FirewallArray(
                config=config, scheduler=self.scheduler, keystore=self.keystore,
                agreement_ids=self.agreement_ids, execution_ids=self.execution_ids,
                client_ids=self.client_ids, threshold_group=threshold_group,
            )
            firewall_ids = self.firewall.node_ids
        self.firewall_ids = firewall_ids

        # ---------------- Topology. ---------------- #
        if config.use_privacy_firewall:
            topology = Topology.privacy_firewall(
                clients=self.client_ids, agreement=self.agreement_ids,
                firewall_rows=self.firewall.row_ids, execution=self.execution_ids)
        elif config.deployment is Deployment.DIFFERENT:
            topology = Topology.separate_clusters(
                clients=self.client_ids, agreement=self.agreement_ids,
                execution=self.execution_ids)
        else:
            topology = Topology.full()
        self.network.topology = topology

        # ---------------- Execution cluster. ---------------- #
        upstream = (self.firewall.top_row_ids if config.use_privacy_firewall
                    else self.agreement_ids)
        self.execution_nodes: List[ExecutionNode] = []
        for node_id in self.execution_ids:
            node = ExecutionNode(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, state_machine=app_factory(),
                agreement_ids=self.agreement_ids, execution_ids=self.execution_ids,
                client_ids=self.client_ids, upstream=upstream,
                threshold_group=threshold_group,
                encrypt_replies=config.use_privacy_firewall,
            )
            self.execution_nodes.append(node)
            self.network.register(node)

        # ---------------- Agreement cluster with message queues. ------- #
        downstream = (self.firewall.bottom_row_ids if config.use_privacy_firewall
                      else self.execution_ids)
        cert_verifiers = self.agreement_ids + self.execution_ids + firewall_ids
        self.message_queues: List[MessageQueue] = []
        self.agreement_replicas: List[AgreementReplica] = []
        for node_id in self.agreement_ids:
            replica = AgreementReplica(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, local=None,  # type: ignore[arg-type]
                agreement_ids=self.agreement_ids, client_ids=self.client_ids,
                cert_verifiers=cert_verifiers,
            )
            queue = MessageQueue(
                owner=replica, config=config, execution_ids=self.execution_ids,
                downstream=downstream, client_ids=self.client_ids,
                threshold_group=threshold_group,
            )
            replica.local = queue
            self.message_queues.append(queue)
            self.agreement_replicas.append(replica)
            self.network.register(replica)

        # ---------------- Co-located verification caches. -------------- #
        # Under Deployment.SAME execution replica i runs on the machine of
        # agreement replica i, and a machine trusts its own verifications:
        # the two roles share one VerifiedCertificateCache, so a request
        # certificate checked during agreement is a cache hit when the
        # co-located execution role validates the ordered batch.  Execution
        # replicas beyond the agreement cluster size (g > f deployments) get
        # their own machines and keep their own caches.
        if (config.deployment is Deployment.SAME
                and config.perf.verified_cert_cache
                and config.perf.share_colocated_cache):
            for replica, node in zip(self.agreement_replicas, self.execution_nodes):
                node.crypto.cache = replica.crypto.cache

        # ---------------- Privacy firewall registration. --------------- #
        if self.firewall is not None:
            for node in self.firewall.nodes:
                self.network.register(node)

        # ---------------- Clients. ---------------- #
        request_verifiers = self.agreement_ids + self.execution_ids + firewall_ids
        self.clients = []
        for node_id in self.client_ids:
            client = ClientNode(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, logs=[self.agreement_ids],
                request_verifiers=request_verifiers,
                reply_quorum=config.reply_quorum,
                reply_clusters=[self.execution_ids],
                encrypt_requests=config.use_privacy_firewall,
            )
            self.clients.append(client)
            self.network.register(client)

    # ------------------------------------------------------------------ #
    # Accessors and fault injection.
    # ------------------------------------------------------------------ #

    def server_processes(self) -> List[Process]:
        processes: List[Process] = list(self.agreement_replicas) + list(self.execution_nodes)
        if self.firewall is not None:
            processes.extend(self.firewall.nodes)
        return processes

    def agreement_replica(self, index: int) -> AgreementReplica:
        return self.agreement_replicas[index]

    def execution_node(self, index: int) -> ExecutionNode:
        return self.execution_nodes[index]

    def crash_agreement(self, index: int) -> None:
        """Crash one agreement replica (tolerated for up to ``f`` replicas)."""
        self.agreement_replicas[index].crash()

    def crash_execution(self, index: int) -> None:
        """Crash one execution replica (tolerated for up to ``g`` replicas)."""
        self.execution_nodes[index].crash()

    def crash_firewall(self, row: int, column: int) -> None:
        """Crash one privacy-firewall filter (tolerated for up to ``h`` filters)."""
        if self.firewall is None:
            raise ConfigurationError("this deployment has no privacy firewall")
        self.firewall.crash(row, column)

    def total_requests_executed(self) -> int:
        """Requests executed by execution node 0 (any correct node would do)."""
        return max(node.requests_executed for node in self.execution_nodes)
