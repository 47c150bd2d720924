"""System assembly for the multi-log deployment.

:class:`MultiLogSystem` partitions the *ordering plane* itself: ``K``
independent ``3f + 1`` agreement clusters ("logs"), each running the full
agreement protocol over its own sequence space and fronting the execution
shards of its log group.  Execution clusters are wired exactly as in the
sharded architecture; what changes is upstream of them -- each shard's feed
comes from the log that currently owns it (epoch-versioned
:class:`~repro.multilog.logmap.LogMap`), and the per-replica
:class:`~repro.multilog.queue.MultiLogRouterQueue` adds the cross-log
coordination round for operations spanning groups.

Topology: clients reach every log's agreement cluster (a request goes to
the log owning its shard; a log-map change may retarget it mid-flight);
agreement replicas of *all* logs are wired to each other (bindings and cuts
cross logs) and to every execution replica (after a move, a different log
feeds the cluster); execution clusters keep the cross-shard links when
cross-group operations are on.  Fault bounds are per cluster: ``f``
Byzantine agreement replicas *per log* and ``g`` Byzantine execution
replicas *per shard* -- the coordination round never assembles a quorum
across clusters (every binding certificate is checked against the named
log's own membership).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..agreement.replica import AgreementReplica
from ..config import AuthenticationScheme, SystemConfig
from ..core.system import SimulatedSystem
from ..errors import ConfigurationError
from ..sim.process import Process
from ..statemachine.interface import StateMachine
from ..util.ids import NodeId, agreement_id, client_id, execution_id
from ..sharding.execution import ShardExecutionNode
from ..sharding.partitioner import make_partitioner
from ..sharding.router import KeyExtractor, ShardRouter
from ..sharding.system import SHARD_THRESHOLD_GROUP_PREFIX, sharded_topology
from .client import MultiLogClient
from .logmap import LogMapRegistry, initial_log_map
from .messages import LogMapChange
from .queue import MultiLogRouterQueue


class MultiLogSystem(SimulatedSystem):
    """``K`` agreement logs in front of ``num_shards`` execution clusters."""

    def __init__(self, config: SystemConfig,
                 app_factory: Callable[[], StateMachine],
                 key_extractor: Optional[KeyExtractor] = None,
                 num_clients: Optional[int] = None,
                 seed: Optional[int] = None) -> None:
        if not config.multilog.enabled:
            raise ConfigurationError(
                "MultiLogSystem needs multilog.num_logs > 1 (use "
                "ShardedSystem for a single ordering log)")
        super().__init__(config, seed=seed)
        count = num_clients if num_clients is not None else config.num_clients
        num_logs = config.multilog.num_logs
        num_shards = config.sharding.num_shards
        log_cluster = config.num_agreement_nodes
        exec_cluster = config.num_execution_nodes

        if key_extractor is None:
            key_extractor = getattr(app_factory, "extract_key", None)
        multi_key_extractor = getattr(app_factory, "extract_keys", None)
        self.router = ShardRouter(make_partitioner(config.sharding),
                                  key_extractor, multi_key_extractor)
        self.obs.register_global_probe("shard_router", self.router.snapshot)
        self.log_registry = LogMapRegistry(initial_log_map(num_shards,
                                                           num_logs))
        self.obs.register_global_probe("log_map", self.log_registry.snapshot)

        self.log_agreement_ids: List[List[NodeId]] = [
            [agreement_id(log * log_cluster + i) for i in range(log_cluster)]
            for log in range(num_logs)
        ]
        self.agreement_ids = [node for ids in self.log_agreement_ids
                              for node in ids]
        self.shard_execution_ids: List[List[NodeId]] = [
            [execution_id(shard * exec_cluster + j)
             for j in range(exec_cluster)]
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
        # The sharded wiring over the flattened agreement ids: bindings and
        # cuts flow between every pair of agreement replicas across log
        # boundaries, and every log may come to feed any shard after a
        # log-map change.
        self.network.topology = sharded_topology(
            clients=self.client_ids, agreement=self.agreement_ids,
            shard_execution_ids=self.shard_execution_ids,
            cross_shard_links=config.cross_shard.enabled)

        # ---------------- Execution clusters (one per shard). ---------- #
        initial_map = self.log_registry.latest
        self.shard_execution_nodes: List[List[ShardExecutionNode]] = []
        for shard, shard_ids in enumerate(self.shard_execution_ids):
            cluster: List[ShardExecutionNode] = []
            group = (shard_threshold_groups[shard]
                     if shard_threshold_groups is not None else None)
            owner_ids = self.log_agreement_ids[initial_map.log_of(shard)]
            for node_id in shard_ids:
                node = ShardExecutionNode(
                    node_id=node_id, scheduler=self.scheduler, config=config,
                    keystore=self.keystore, state_machine=app_factory(),
                    agreement_ids=owner_ids, execution_ids=shard_ids,
                    client_ids=self.client_ids, upstream=owner_ids,
                    shard=shard, router=self.router, threshold_group=group,
                    shard_execution_ids=self.shard_execution_ids,
                )
                # Log-map cursor and hooks: every execution cluster meets
                # every log-map cut at one deterministic slot of its own
                # ordered feed; the moved shard's replicas repoint their
                # upstream log right after replying under the old one.
                node.log_map_epoch = 0
                node.on_config_marker = self._make_config_marker_hook()
                node.log_of_shard = (
                    lambda s: self.log_registry.latest.log_of(s))
                cluster.append(node)
                self.network.register(node)
            self.shard_execution_nodes.append(cluster)

        # ---------------- K agreement clusters with log routers. ------- #
        cert_verifiers = self.agreement_ids + self.execution_ids
        self.message_queues: List[MultiLogRouterQueue] = []
        self.agreement_replicas: List[AgreementReplica] = []
        self.log_replicas: List[List[AgreementReplica]] = []
        for log, log_ids in enumerate(self.log_agreement_ids):
            replicas: List[AgreementReplica] = []
            for node_id in log_ids:
                replica = AgreementReplica(
                    node_id=node_id, scheduler=self.scheduler, config=config,
                    keystore=self.keystore, local=None,  # type: ignore[arg-type]
                    agreement_ids=log_ids, client_ids=self.client_ids,
                    cert_verifiers=cert_verifiers,
                )
                queue = MultiLogRouterQueue(
                    owner=replica, config=config,
                    shard_execution_ids=self.shard_execution_ids,
                    client_ids=self.client_ids, router=self.router,
                    log=log, log_agreement_ids=self.log_agreement_ids,
                    log_registry=self.log_registry,
                    shard_threshold_groups=shard_threshold_groups,
                )
                replica.local = queue
                if config.pipeline.per_shard_depth is not None:
                    replica.enable_per_shard_batching(
                        queue.request_classifier())
                if config.cross_shard.enabled:
                    replica.enable_cross_shard(queue.cross_shard_probe())
                self.message_queues.append(queue)
                self.agreement_replicas.append(replica)
                replicas.append(replica)
                self.network.register(replica)
            self.log_replicas.append(replicas)

        # ---------------- Clients. ---------------- #
        request_verifiers = self.agreement_ids + self.execution_ids
        self.clients = []
        for node_id in self.client_ids:
            client = MultiLogClient(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore,
                log_agreement_ids=self.log_agreement_ids,
                request_verifiers=request_verifiers,
                shard_execution_ids=self.shard_execution_ids,
                router=self.router, log_registry=self.log_registry,
                shard_threshold_groups=shard_threshold_groups,
            )
            self.clients.append(client)
            self.network.register(client)

    def _make_config_marker_hook(self):
        log_agreement_ids = self.log_agreement_ids

        def on_config_marker(node: ShardExecutionNode, op) -> None:
            if not isinstance(op, LogMapChange):
                return
            if op.parent_log_epoch != node.log_map_epoch:
                return  # stale/duplicate cut: deterministic no-op
            node.log_map_epoch += 1
            if op.shard == node.shard:
                owner_ids = list(log_agreement_ids[op.target_log])
                node.agreement_ids = owner_ids
                node.upstream = owner_ids

        return on_config_marker

    # ------------------------------------------------------------------ #
    # Log-map reconfiguration.
    # ------------------------------------------------------------------ #

    def propose_log_map_change(self, shard: int, target_log: int) -> bool:
        """Order one shard's move between log groups through *every* log.

        Each log's current primary proposes the same change into its own
        log; every queue holds the marker at its release head until the
        cross-log cut certifies that all logs committed it.  The driver
        serializes changes -- one at a time, proposed only when every log
        is quiescent enough to accept (all preconditions re-checked inside
        :meth:`~repro.agreement.replica.AgreementReplica.propose_map_change`
        would pass) -- because two *concurrent* log-map cuts could be
        ordered inversely by two logs and deadlock each other's frontiers;
        see ROADMAP for the MVBA-style cut-ordering follow-up.
        """
        parent = self.log_registry.latest_epoch
        change = LogMapChange(shard=shard, target_log=target_log,
                              parent_log_epoch=parent)
        if not change.well_formed(self.num_shards, self.num_logs):
            return False
        if self.log_registry.latest.log_of(shard) == target_log:
            return False
        if any(queue.log_epoch != parent or any(
                key[0] == "lmc" for key in queue._held)
               for queue in self.message_queues):
            return False  # a previous change is still cutting
        primaries: List[AgreementReplica] = []
        for replicas in self.log_replicas:
            primary = next(
                (replica for replica in replicas
                 if replica.is_primary and not replica._view_changing
                 and not replica.log.has_pending_config_op()
                 and replica.next_seq <= replica.log.high_watermark), None)
            if primary is None:
                return False
            primaries.append(primary)
        # All preconditions hold and nothing runs between the checks and
        # the proposals (the simulator is single-threaded), so either every
        # log orders the change or none does.
        return all(primary.propose_map_change(change)
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
        return processes

    def log_replica(self, log: int, index: int) -> AgreementReplica:
        return self.log_replicas[log][index]

    def log_queue(self, log: int, index: int) -> MultiLogRouterQueue:
        return self.message_queues[log * len(self.log_agreement_ids[0])
                                   + index]

    def log_primary(self, log: int) -> Optional[AgreementReplica]:
        """The replica currently acting as ``log``'s primary (if any)."""
        return next((replica for replica in self.log_replicas[log]
                     if replica.is_primary), None)

    def execution_cluster(self, shard: int) -> List[ShardExecutionNode]:
        return self.shard_execution_nodes[shard]

    def crash_agreement(self, log: int, index: int) -> None:
        """Crash one agreement replica of ``log`` (up to ``f`` per log)."""
        self.log_replicas[log][index].crash()

    def crash_execution(self, shard: int, index: int) -> None:
        """Crash one execution replica of ``shard`` (up to ``g`` per shard)."""
        self.shard_execution_nodes[shard][index].crash()

    def log_epoch(self) -> int:
        """The log-map epoch queue 0 of log 0 has reached."""
        return self.message_queues[0].log_epoch

    def requests_executed_by_shard(self) -> List[int]:
        return [max(node.requests_executed for node in cluster)
                for cluster in self.shard_execution_nodes]

    def total_requests_executed(self) -> int:
        return sum(self.requests_executed_by_shard())

    def completed_by_log(self) -> List[int]:
        """Requests completed per submitting log (bench observability)."""
        totals = [0] * self.num_logs
        for client in self.clients:
            totals[client._current_log] += len(client.completed)
        return totals
