"""System assembly: the one deployment builder.

:class:`ShardedSystem` extends :class:`~repro.core.system.SimulatedSystem`
with the paper's separation taken one step further: a ``3f + 1`` agreement
cluster orders requests, and ``num_shards`` independent ``2g + 1`` execution
clusters -- each with its own application state, reply cache, checkpoint
protocol, and state transfer -- execute the per-shard subsequences that the
deterministic shard routers carve out of the agreed order.  Execution
capacity therefore grows horizontally with the number of shards while the
agreement cluster stays fixed, which is exactly what the separation of
agreement from execution buys: ordering does not need to know *what* it
orders, so it does not need to grow with application state or load.

For the same reason the number of agreement clusters is a parameter too:
``config.multilog.num_logs = K`` builds ``K`` independent ``3f + 1``
clusters ("logs"), each running the full agreement protocol over its own
sequence space and feeding the shards the epoch-versioned
:class:`~repro.multilog.logmap.LogMap` assigns it.  Every agreement node
hosts the one :class:`~repro.sharding.queue.ShardRouterQueue` for any
``K``: its cross-log round coordinates the operations spanning log groups
and is idle with ``K = 1``, and nothing here is wired differently for it.

The restricted topology mirrors the physical wiring this deployment would
use: clients talk to every agreement cluster (a request goes to the log
owning its shard; a log-map change may retarget it mid-flight) and, for the
direct-reply optimisation, to execution replicas; agreement replicas of all
logs are wired to each other (bindings and fetches cross logs) and to every
execution replica (after a move, a different log feeds the cluster); and
execution replicas talk only to *their own shard's* peers -- there is no
cross-shard link, so shard isolation is enforced by the network just like
the privacy firewall's wiring is.  Fault bounds are per cluster: ``f``
Byzantine agreement replicas *per log* and ``g`` Byzantine execution
replicas *per shard* -- the coordination round never assembles a quorum
across clusters (every binding certificate is checked against the named
log's own membership).

With one shard and one log the builder makes the paper's deployment,
:class:`SeparatedSystem`: nothing in it is wired differently, apart from
what only one shard can have -- the privacy firewall between the
agreement cluster and the execution cluster, and ``Deployment.SAME``'s
shared machines.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..agreement.replica import AgreementReplica
from ..config import AuthenticationScheme, Deployment, SystemConfig
from ..core.system import SimulatedSystem
from ..errors import ConfigurationError
from ..firewall.array import FirewallArray
from ..multilog.logmap import initial_log_map
from ..multilog.messages import LogMapChange
from ..net.topology import Topology
from ..sim.process import Process
from ..statemachine.interface import StateMachine
from ..util.epochs import EpochRegistry
from ..util.ids import NodeId, agreement_id, client_id, execution_id
from ..core.client import ClientNode
from .execution import ExecutionNode
from .partitioner import make_partitioner
from .queue import ShardRouterQueue
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
    """``K`` agreement logs in front of ``num_shards`` execution clusters.

    ``app_factory`` is called once per execution replica (``num_shards *
    (2g + 1)`` times); each shard's replicas evolve their own partition of
    the application state.  ``key_extractor`` maps operations to routing keys
    (default: :func:`repro.apps.kvstore.extract_key` when the application
    class exposes one; keyless operations route to shard 0).

    With one shard and one log this is the paper's deployment
    (:class:`SeparatedSystem`), and two things only it can have are wired
    here: the privacy firewall (every operation, encrypted or not, routes
    to shard 0, so no router needs to read a key; the configuration
    refuses the firewall anywhere else) and ``Deployment.SAME``, where
    execution replica ``i`` shares agreement replica ``i``'s machine.
    """

    def __init__(self, config: SystemConfig,
                 app_factory: Callable[[], StateMachine],
                 key_extractor: Optional[KeyExtractor] = None,
                 num_clients: Optional[int] = None,
                 seed: Optional[int] = None) -> None:
        super().__init__(config, seed=seed)
        count = num_clients if num_clients is not None else config.num_clients
        num_logs = config.multilog.num_logs
        num_shards = config.sharding.num_shards
        log_size = config.num_agreement_nodes
        cluster_size = config.num_execution_nodes

        if key_extractor is None:
            key_extractor = getattr(app_factory, "extract_key", None)
        multi_key_extractor = getattr(app_factory, "extract_keys", None)
        self.router = ShardRouter(make_partitioner(config.sharding),
                                  key_extractor, multi_key_extractor,
                                  cross_shard=config.cross_shard.enabled)
        self.obs.register_global_probe("shard_router", self.router.snapshot)
        self.log_registry = EpochRegistry(initial_log_map(num_shards,
                                                          num_logs))
        self.obs.register_global_probe("log_map", self.log_registry.snapshot)

        self.log_agreement_ids: List[List[NodeId]] = [
            [agreement_id(log * log_size + i) for i in range(log_size)]
            for log in range(num_logs)
        ]
        self.agreement_ids = [node for ids in self.log_agreement_ids
                              for node in ids]
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

        # ---------------- Privacy firewall (one shard only). ---------- #
        self.firewall: Optional[FirewallArray] = None
        firewall_ids: List[NodeId] = []
        downstream = self.shard_execution_ids
        if config.use_privacy_firewall:
            self.firewall = FirewallArray(
                config=config, scheduler=self.scheduler, keystore=self.keystore,
                agreement_ids=self.agreement_ids, execution_ids=self.execution_ids,
                client_ids=self.client_ids,
                threshold_group=shard_threshold_groups[0])
            firewall_ids = self.firewall.node_ids
            downstream = [self.firewall.bottom_row_ids]
        self.firewall_ids = firewall_ids

        # ---------------- Topology. ---------------- #
        # The agreement ids are flattened over the logs: bindings and cuts
        # flow between every pair of agreement replicas across log
        # boundaries, and every log may come to feed any shard after a
        # log-map change.
        if self.firewall is not None:
            self.network.topology = Topology.privacy_firewall(
                clients=self.client_ids, agreement=self.agreement_ids,
                firewall_rows=self.firewall.row_ids, execution=self.execution_ids)
        elif config.deployment is Deployment.SAME:
            self.network.topology = Topology.full()
        else:
            self.network.topology = sharded_topology(
                clients=self.client_ids, agreement=self.agreement_ids,
                shard_execution_ids=self.shard_execution_ids,
                cross_shard_links=(config.rebalance.enabled
                                   or config.cross_shard.enabled))

        # ---------------- Execution clusters (one per shard). ---------- #
        self.shard_execution_nodes: List[List[ExecutionNode]] = []
        for shard, shard_ids in enumerate(self.shard_execution_ids):
            cluster: List[ExecutionNode] = []
            group = (shard_threshold_groups[shard]
                     if shard_threshold_groups is not None else None)
            owner_ids = self.log_agreement_ids[self._log_of(shard)]
            upstream = (owner_ids if self.firewall is None
                        else self.firewall.top_row_ids)
            for node_id in shard_ids:
                node = ExecutionNode(
                    node_id=node_id, scheduler=self.scheduler, config=config,
                    keystore=self.keystore, state_machine=app_factory(),
                    agreement_ids=owner_ids, execution_ids=shard_ids,
                    client_ids=self.client_ids, upstream=upstream,
                    shard=shard, router=self.router, threshold_group=group,
                    shard_execution_ids=self.shard_execution_ids,
                    log_agreement_ids=self.log_agreement_ids,
                    encrypt_replies=config.use_privacy_firewall,
                )
                cluster.append(node)
                self.network.register(node)
            self.shard_execution_nodes.append(cluster)

        # ---------------- K agreement clusters with shard routers. ----- #
        cert_verifiers = self.execution_ids + firewall_ids
        self.message_queues: List[ShardRouterQueue] = []
        self.agreement_replicas: List[AgreementReplica] = []
        for index, node_id in enumerate(self.agreement_ids):
            log = index // log_size
            replica = AgreementReplica(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, local=None,  # type: ignore[arg-type]
                agreement_ids=self.log_agreement_ids[log],
                client_ids=self.client_ids, cert_verifiers=cert_verifiers,
            )
            queue = ShardRouterQueue(
                owner=replica, config=config,
                shard_execution_ids=self.shard_execution_ids,
                client_ids=self.client_ids, router=self.router,
                log=log, log_agreement_ids=self.log_agreement_ids,
                log_registry=self.log_registry,
                shard_threshold_groups=shard_threshold_groups,
                downstream=downstream,
            )
            replica.local = queue
            self.message_queues.append(queue)
            self.agreement_replicas.append(replica)
            self.network.register(replica)
        self.log_replicas: List[List[AgreementReplica]] = [
            self.agreement_replicas[first:first + log_size]
            for first in range(0, len(self.agreement_replicas), log_size)
        ]

        # ---------------- Co-located verification caches. -------------- #
        # Under Deployment.SAME execution replica i runs on the machine of
        # agreement replica i, and a machine trusts its own verifications:
        # the two roles share one VerifiedCertificateCache, so a request
        # certificate checked during agreement is a cache hit when the
        # co-located execution role validates the ordered batch.  Execution
        # replicas beyond the agreement cluster size (g > f deployments) get
        # their own machines and keep their own caches.
        if (config.deployment is Deployment.SAME
                and config.perf.verified_cert_cache):
            nodes = [node for cluster in self.shard_execution_nodes
                     for node in cluster]
            for replica, node in zip(self.agreement_replicas, nodes):
                node.crypto.cache = replica.crypto.cache

        if self.firewall is not None:
            for node in self.firewall.nodes:
                self.network.register(node)

        # ---------------- Clients. ---------------- #
        request_verifiers = self.agreement_ids + self.execution_ids + firewall_ids
        for node_id in self.client_ids:
            self._add_client(ClientNode(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, logs=self.log_agreement_ids,
                request_verifiers=request_verifiers,
                reply_quorum=config.reply_quorum,
                reply_clusters=self.shard_execution_ids, router=self.router,
                log_of_shard=self._log_of,
                encrypt_requests=config.use_privacy_firewall,
            ))

    # ------------------------------------------------------------------ #
    # Log-map reconfiguration.
    # ------------------------------------------------------------------ #

    def _log_of(self, shard: int) -> int:
        """The log ordering ``shard``'s feed under the newest log map."""
        return self.log_registry.latest.log_of(shard)

    def propose_log_map_change(self, shard: int, target_log: int) -> bool:
        """Order one shard's move between log groups through *every* log.

        Each log's current primary proposes the same change into its own
        log; every queue holds the marker at its release head until the
        cross-log cut certifies that all logs committed it.  The driver
        serializes changes -- one at a time, proposed only when every log's
        primary is free to order a config operation
        (:meth:`~repro.agreement.proposer.Proposer.can_propose_config`) --
        because two *concurrent* log-map cuts could be
        ordered inversely by two logs and deadlock each other's frontiers;
        see ROADMAP for the MVBA-style cut-ordering follow-up.  With one
        log there is nowhere to move a shard, so every proposal is refused.
        """
        parent = self.log_registry.latest_epoch
        change = LogMapChange(shard=shard, target_log=target_log,
                              parent_log_epoch=parent)
        if not change.well_formed(self.num_shards, self.num_logs):
            return False
        if self._log_of(shard) == target_log:
            return False
        if any(queue.cross_log.changing(parent)
               for queue in self.message_queues):
            return False  # a previous change is still cutting
        primaries: List[AgreementReplica] = []
        for replicas in self.log_replicas:
            primary = next((replica for replica in replicas
                            if replica.proposer.can_propose_config()), None)
            if primary is None:
                return False
            primaries.append(primary)
        # All preconditions hold and nothing runs between the checks and
        # the proposals (the simulator is single-threaded), so either every
        # log orders the change or none does.
        return all(primary.proposer.propose_map_change(change)
                   for primary in primaries)

    # ------------------------------------------------------------------ #
    # Accessors and fault injection.
    # ------------------------------------------------------------------ #

    @property
    def num_logs(self) -> int:
        return len(self.log_agreement_ids)

    @property
    def num_shards(self) -> int:
        return len(self.shard_execution_ids)

    def server_processes(self) -> List[Process]:
        processes: List[Process] = list(self.agreement_replicas)
        for cluster in self.shard_execution_nodes:
            processes.extend(cluster)
        if self.firewall is not None:
            processes.extend(self.firewall.nodes)
        return processes

    def agreement_replica(self, index: int) -> AgreementReplica:
        return self.agreement_replicas[index]

    def log_primary(self, log: int) -> Optional[AgreementReplica]:
        """The replica currently acting as ``log``'s primary (if any)."""
        return next((replica for replica in self.log_replicas[log]
                     if replica.is_primary), None)

    def execution_cluster(self, shard: int) -> List[ExecutionNode]:
        return self.shard_execution_nodes[shard]

    def execution_node(self, shard: int, index: int) -> ExecutionNode:
        return self.shard_execution_nodes[shard][index]

    def crash_agreement(self, index: int, log: int = 0) -> None:
        """Crash one agreement replica of ``log`` (up to ``f`` per log)."""
        self.log_replicas[log][index].crash()

    def crash_execution(self, shard: int, index: int) -> None:
        """Crash one execution replica of ``shard`` (up to ``g`` per shard)."""
        self.shard_execution_nodes[shard][index].crash()

    def crash_firewall(self, row: int, column: int) -> None:
        """Crash one privacy-firewall filter (tolerated for up to ``h`` filters)."""
        if self.firewall is None:
            raise ConfigurationError("this deployment has no privacy firewall")
        self.firewall.crash(row, column)

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
        """Released requests per cluster in the current observation window
        (counted while rebalancing is on)."""
        return list(self.message_queues[0].load_window.requests_by_cluster)

    def shard_load_total(self) -> List[int]:
        """Cumulative released requests per cluster since construction
        (counted while rebalancing is on)."""
        return list(self.message_queues[0].routed_by_shard)

    def epoch_cuts(self) -> int:
        """Epoch cuts applied by agreement node 0's router."""
        return self.message_queues[0].epoch_cuts

    def map_changes(self) -> List:
        """Map changes proposed so far (split/merge/move counters per
        queue's controller; index 0 is usually the primary's)."""
        return [queue.rebalancer for queue in self.message_queues]

    def requests_executed_by_shard(self) -> List[int]:
        """Requests executed per shard (max over each shard's correct nodes)."""
        return [max(node.requests_executed for node in cluster)
                for cluster in self.shard_execution_nodes]

    def total_requests_executed(self) -> int:
        """Requests executed across all shards."""
        return sum(self.requests_executed_by_shard())


class SeparatedSystem(ShardedSystem):
    """The paper's architecture: one agreement cluster in front of one
    execution cluster, optionally behind the privacy firewall -- the
    one-shard, one-log :class:`ShardedSystem`, with its one-index
    accessors."""

    def __init__(self, config: SystemConfig,
                 app_factory: Callable[[], StateMachine],
                 num_clients: Optional[int] = None,
                 seed: Optional[int] = None) -> None:
        if config.sharding.num_shards != 1 or config.multilog.num_logs != 1:
            raise ConfigurationError(
                "SeparatedSystem is the one-shard, one-log deployment; "
                "build ShardedSystem for more")
        super().__init__(config, app_factory, num_clients=num_clients, seed=seed)

    @property
    def execution_nodes(self) -> List[ExecutionNode]:
        return self.shard_execution_nodes[0]

    @property
    def threshold_group(self) -> Optional[str]:
        """The execution cluster's threshold-signature group (None unless
        replies are threshold-signed)."""
        groups = self.shard_threshold_groups
        return groups[0] if groups is not None else None

    def execution_node(self, index: int) -> ExecutionNode:  # type: ignore[override]
        return self.shard_execution_nodes[0][index]

    def crash_execution(self, index: int) -> None:  # type: ignore[override]
        """Crash one execution replica (tolerated for up to ``g`` replicas)."""
        self.shard_execution_nodes[0][index].crash()
