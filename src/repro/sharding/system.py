"""System assembly for the sharded architecture.

:class:`ShardedSystem` extends :class:`~repro.core.system.SimulatedSystem`
with the paper's separation taken one step further: a single ``3f + 1``
agreement cluster orders *all* requests, and ``num_shards`` independent
``2g + 1`` execution clusters -- each with its own application state, reply
cache, checkpoint protocol, and state transfer -- execute the per-shard
subsequences that the deterministic shard routers carve out of the global
order.  Execution capacity therefore grows horizontally with the number of
shards while the agreement cluster stays fixed, which is exactly what the
separation of agreement from execution buys: ordering does not need to know
*what* it orders, so it does not need to grow with application state or load.

The restricted topology mirrors the physical wiring this deployment would
use: clients talk to the agreement cluster (and, for the direct-reply
optimisation, to execution replicas), the agreement cluster talks to every
execution replica, and execution replicas talk only to *their own shard's*
peers -- there is no cross-shard link, so shard isolation is enforced by the
network just like the privacy firewall's wiring is.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..agreement.replica import AgreementReplica
from ..config import AuthenticationScheme, SystemConfig
from ..core.system import SimulatedSystem
from ..errors import ConfigurationError
from ..net.topology import Topology
from ..sim.process import Process
from ..statemachine.interface import StateMachine
from ..util.ids import NodeId, agreement_id, client_id, execution_id
from .client import ShardAwareClient
from .execution import ShardExecutionNode
from .partitioner import make_partitioner
from .queue import ShardRouterQueue
from .rebalance import RebalanceController
from .router import KeyExtractor, ShardRouter

#: name prefix of each shard's threshold-signature group
SHARD_THRESHOLD_GROUP_PREFIX = "execution-replies-shard"


def sharded_topology(clients: List[NodeId], agreement: List[NodeId],
                     shard_execution_ids: List[List[NodeId]],
                     cross_shard_links: bool = False) -> Topology:
    """Physical wiring of the sharded deployment.

    Static deployments have *no* cross-shard links: shard isolation is
    enforced by the network.  Dynamic rebalancing needs the clusters wired
    to each other (``cross_shard_links=True``) so a moved key range's state
    can be handed off at an epoch cut -- the trust model is unchanged, since
    handoffs are accepted only with ``g + 1`` matching source-replica
    shares, never on the say-so of one peer.
    """
    topo = Topology(fully_connected=False)
    topo.add_links(clients, agreement)
    topo.add_links(agreement, agreement)
    for shard_ids in shard_execution_ids:
        topo.add_links(agreement, shard_ids)
        topo.add_links(shard_ids, shard_ids)
        topo.add_links(clients, shard_ids)
    if cross_shard_links:
        for i, left in enumerate(shard_execution_ids):
            for right in shard_execution_ids[i + 1:]:
                topo.add_links(left, right)
    return topo


class ShardedSystem(SimulatedSystem):
    """One agreement cluster in front of ``num_shards`` execution clusters.

    ``app_factory`` is called once per execution replica (``num_shards *
    (2g + 1)`` times); each shard's replicas evolve their own partition of
    the application state.  ``key_extractor`` maps operations to routing keys
    (default: :func:`repro.apps.kvstore.extract_key` when the application
    class exposes one; keyless operations route to shard 0).
    """

    def __init__(self, config: SystemConfig,
                 app_factory: Callable[[], StateMachine],
                 key_extractor: Optional[KeyExtractor] = None,
                 num_clients: Optional[int] = None,
                 seed: Optional[int] = None) -> None:
        if config.use_privacy_firewall:
            raise ConfigurationError(
                "ShardedSystem does not support the privacy firewall "
                "(the shard router must read operation keys)"
            )
        super().__init__(config, seed=seed)
        count = num_clients if num_clients is not None else config.num_clients
        num_shards = config.sharding.num_shards
        cluster_size = config.num_execution_nodes

        if key_extractor is None:
            key_extractor = getattr(app_factory, "extract_key", None)
        multi_key_extractor = getattr(app_factory, "extract_keys", None)
        self.router = ShardRouter(make_partitioner(config.sharding),
                                  key_extractor, multi_key_extractor)
        self.obs.register_global_probe("shard_router", self.router.snapshot)

        self.agreement_ids = [agreement_id(i) for i in range(config.num_agreement_nodes)]
        self.shard_execution_ids: List[List[NodeId]] = [
            [execution_id(shard * cluster_size + j) for j in range(cluster_size)]
            for shard in range(num_shards)
        ]
        self.execution_ids = [node for shard in self.shard_execution_ids
                              for node in shard]
        self.client_ids = [client_id(i) for i in range(count)]

        # ---------------- Per-shard threshold groups. ---------------- #
        shard_threshold_groups: Optional[List[str]] = None
        if config.authentication is AuthenticationScheme.THRESHOLD:
            shard_threshold_groups = []
            for shard, shard_ids in enumerate(self.shard_execution_ids):
                group = f"{SHARD_THRESHOLD_GROUP_PREFIX}{shard}"
                self.keystore.create_threshold_group(group, shard_ids,
                                                     config.reply_quorum)
                shard_threshold_groups.append(group)
        self.shard_threshold_groups = shard_threshold_groups

        # ---------------- Topology. ---------------- #
        self.network.topology = sharded_topology(
            clients=self.client_ids, agreement=self.agreement_ids,
            shard_execution_ids=self.shard_execution_ids,
            cross_shard_links=(config.rebalance.enabled
                               or config.cross_shard.enabled))

        # ---------------- Execution clusters (one per shard). ---------- #
        self.shard_execution_nodes: List[List[ShardExecutionNode]] = []
        for shard, shard_ids in enumerate(self.shard_execution_ids):
            cluster: List[ShardExecutionNode] = []
            group = (shard_threshold_groups[shard]
                     if shard_threshold_groups is not None else None)
            for node_id in shard_ids:
                node = ShardExecutionNode(
                    node_id=node_id, scheduler=self.scheduler, config=config,
                    keystore=self.keystore, state_machine=app_factory(),
                    agreement_ids=self.agreement_ids, execution_ids=shard_ids,
                    client_ids=self.client_ids, upstream=self.agreement_ids,
                    shard=shard, router=self.router, threshold_group=group,
                    shard_execution_ids=self.shard_execution_ids,
                )
                cluster.append(node)
                self.network.register(node)
            self.shard_execution_nodes.append(cluster)

        # ---------------- Agreement cluster with shard routers. -------- #
        cert_verifiers = self.agreement_ids + self.execution_ids
        self.message_queues: List[ShardRouterQueue] = []
        self.agreement_replicas: List[AgreementReplica] = []
        for node_id in self.agreement_ids:
            replica = AgreementReplica(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, local=None,  # type: ignore[arg-type]
                agreement_ids=self.agreement_ids, client_ids=self.client_ids,
                cert_verifiers=cert_verifiers,
            )
            queue = ShardRouterQueue(
                owner=replica, config=config,
                shard_execution_ids=self.shard_execution_ids,
                client_ids=self.client_ids, router=self.router,
                shard_threshold_groups=shard_threshold_groups,
            )
            replica.local = queue
            if config.pipeline.per_shard_depth is not None:
                # Skew-aware concurrency: single-shard bundles with per-shard
                # AIMD controllers and per-shard admission windows (the
                # classifier reads the queue's live partition-map epoch).
                replica.enable_per_shard_batching(queue.request_classifier())
            if config.cross_shard.enabled:
                # Multi-shard requests are ordered as single-certificate
                # consistent-cut markers (classified at the queue's live
                # epoch).
                replica.enable_cross_shard(queue.cross_shard_probe())
            if config.rebalance.enabled:
                # Every replica hosts a rebalance controller (any of them
                # may become primary); only the current primary proposes.
                controller = RebalanceController(config.rebalance)
                replica.attach_rebalancer(controller, queue.load_observation)
                replica.metrics.register_probe("rebalance.controller",
                                               controller.snapshot)
            self.message_queues.append(queue)
            self.agreement_replicas.append(replica)
            self.network.register(replica)

        # ---------------- Clients. ---------------- #
        request_verifiers = self.agreement_ids + self.execution_ids
        self.clients = []
        for node_id in self.client_ids:
            client = ShardAwareClient(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, agreement_ids=self.agreement_ids,
                request_verifiers=request_verifiers,
                shard_execution_ids=self.shard_execution_ids,
                router=self.router,
                shard_threshold_groups=shard_threshold_groups,
            )
            self.clients.append(client)
            self.network.register(client)

    # ------------------------------------------------------------------ #
    # Accessors and fault injection.
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        return len(self.shard_execution_ids)

    def server_processes(self) -> List[Process]:
        processes: List[Process] = list(self.agreement_replicas)
        for cluster in self.shard_execution_nodes:
            processes.extend(cluster)
        return processes

    def agreement_replica(self, index: int) -> AgreementReplica:
        return self.agreement_replicas[index]

    def execution_cluster(self, shard: int) -> List[ShardExecutionNode]:
        return self.shard_execution_nodes[shard]

    def execution_node(self, shard: int, index: int) -> ShardExecutionNode:
        return self.shard_execution_nodes[shard][index]

    def crash_agreement(self, index: int) -> None:
        """Crash one agreement replica (tolerated for up to ``f``)."""
        self.agreement_replicas[index].crash()

    def crash_execution(self, shard: int, index: int) -> None:
        """Crash one execution replica of ``shard`` (up to ``g`` per shard)."""
        self.shard_execution_nodes[shard][index].crash()

    def shard_of_key(self, key: str, epoch: Optional[int] = None) -> int:
        """The shard owning ``key`` (convenience for tests and demos)."""
        return self.router.partitioner.shard_of_key(key, epoch)

    # ------------------------------------------------------------------ #
    # Rebalancing observability (example, benchmarks, tests).
    # ------------------------------------------------------------------ #

    def partition_epoch(self) -> int:
        """The partition-map epoch agreement node 0's router has reached."""
        return self.message_queues[0].epoch

    def partition_map(self):
        """The partition map at :meth:`partition_epoch` (None for hash)."""
        _, pmap = self.message_queues[0].load_observation()
        return pmap

    def shard_load_window(self) -> List[int]:
        """Released requests per cluster in the current observation window."""
        return list(self.message_queues[0].load_window.requests_by_cluster)

    def shard_load_total(self) -> List[int]:
        """Cumulative released requests per cluster since construction."""
        return list(self.message_queues[0].routed_by_shard)

    def epoch_cuts(self) -> int:
        """Epoch cuts applied by agreement node 0's router."""
        return self.message_queues[0].epoch_cuts

    def map_changes(self) -> List:
        """Map changes proposed so far (split/merge/move counters per
        replica's controller; index 0 is usually the primary)."""
        return [replica._rebalancer for replica in self.agreement_replicas]

    def requests_executed_by_shard(self) -> List[int]:
        """Requests executed per shard (max over each shard's correct nodes)."""
        return [max(node.requests_executed for node in cluster)
                for cluster in self.shard_execution_nodes]

    def total_requests_executed(self) -> int:
        """Requests executed across all shards."""
        return sum(self.requests_executed_by_shard())
