"""The coupled BASE-style baseline (traditional architecture, Figure 1a).

In the traditional architecture the ``3f + 1`` replicas both agree on the
order of requests *and* execute them; clients act as their own voters and
accept a result once ``f + 1`` replicas report matching replies.

We reuse the agreement library unchanged and plug in a
:class:`DirectExecutor` as its local state machine: instead of enqueueing the
batch for a separate execution cluster, the executor runs the requests
against the application hosted on the same node and replies to the clients
directly.  This is exactly the relationship between BASE and the paper's
modified BASE, inverted.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..agreement.local import LocalExecutor, RetryOutcome
from ..agreement.replica import AgreementReplica
from ..config import AuthenticationScheme, SystemConfig
from ..crypto.certificate import Certificate
from ..messages.reply import BatchReplyBody, ClientReply, ReplyBody
from ..messages.request import ClientRequest
from ..statemachine.interface import StateMachine
from ..statemachine.nondet import NonDetInput
from ..util.ids import NodeId, Role, agreement_id, client_id
from .client import ClientNode
from .message_queue import CachedReply
from .system import SimulatedSystem


class DirectExecutor(LocalExecutor):
    """Local state machine of a coupled (traditional) BFT replica."""

    def __init__(self, config: SystemConfig, state_machine: StateMachine,
                 client_ids: List[NodeId]) -> None:
        self.config = config
        self.app = state_machine
        self.client_ids = list(client_ids)
        #: the hosting agreement replica; set via :meth:`bind_owner`.
        self.owner: Optional[AgreementReplica] = None
        #: last reply sent to each client (exactly-once semantics)
        self.reply_cache: Dict[NodeId, CachedReply] = {}
        self.last_executed_seq = 0
        self.requests_executed = 0

    def bind_owner(self, owner: AgreementReplica) -> None:
        self.owner = owner

    # ------------------------------------------------------------------ #
    # LocalExecutor interface.
    # ------------------------------------------------------------------ #

    def execute_batch(self, seq: int, view: int,
                      request_certificates: Tuple[Certificate, ...],
                      agreement_certificate: Certificate,
                      nondet: NonDetInput) -> None:
        assert self.owner is not None, "DirectExecutor used before bind_owner()"
        replies: List[ReplyBody] = []
        for certificate in request_certificates:
            request: ClientRequest = certificate.payload
            replies.append(self._execute_request(seq, view, request, nondet))
        body = BatchReplyBody(view=view, seq=seq, replies=tuple(replies))
        reply_certificate = self.owner.crypto.new_certificate(
            body, AuthenticationScheme.MAC, [reply.client for reply in replies])
        for reply in replies:
            cached = self.reply_cache.get(reply.client)
            if cached is None or cached.reply.timestamp <= reply.timestamp:
                self.reply_cache[reply.client] = CachedReply(reply, reply_certificate)
            self.owner.send(reply.client,
                            ClientReply.for_client(reply_certificate, reply.client))
        self.last_executed_seq = seq

    def _execute_request(self, seq: int, view: int, request: ClientRequest,
                         nondet: NonDetInput) -> ReplyBody:
        assert self.owner is not None
        cached = self.reply_cache.get(request.client)
        if cached is None or request.timestamp > cached.reply.timestamp:
            operation = request.operation_for(Role.AGREEMENT)
            result = self.app.execute(operation, nondet)
            self.owner.charge(self.config.app_processing_ms + result.processing_ms)
            self.requests_executed += 1
            return ReplyBody(view=view, seq=seq, timestamp=request.timestamp,
                             client=request.client, result=result)
        # Retransmission: reply with the cached timestamp and body.
        return ReplyBody(view=view, seq=seq, timestamp=cached.reply.timestamp,
                         client=request.client, result=cached.reply.result)

    def retry_hint(self, request_certificate: Certificate) -> RetryOutcome:
        assert self.owner is not None
        request: ClientRequest = request_certificate.payload
        cached = self.reply_cache.get(request.client)
        if cached is not None and cached.reply.timestamp >= request.timestamp:
            self.owner.send(request.client, ClientReply.for_client(
                cached.certificate, request.client))
            return RetryOutcome.HANDLED
        return RetryOutcome.NEED_ORDER

    def checkpoint_digest(self, seq: int) -> bytes:
        from ..crypto.digest import digest

        return digest({"seq": seq, "app": self.app.state_digest()})

    def highest_ready_seq(self) -> Optional[int]:
        return None


class CoupledSystem(SimulatedSystem):
    """The traditional BASE-style deployment: 3f + 1 combined replicas."""

    def __init__(self, config: SystemConfig,
                 app_factory: Callable[[], StateMachine],
                 num_clients: Optional[int] = None,
                 seed: Optional[int] = None) -> None:
        super().__init__(config, seed=seed)
        count = num_clients if num_clients is not None else config.num_clients
        self.agreement_ids = [agreement_id(i) for i in range(config.num_agreement_nodes)]
        self.client_ids = [client_id(i) for i in range(count)]

        self.executors: List[DirectExecutor] = []
        self.replicas: List[AgreementReplica] = []
        for node_id in self.agreement_ids:
            executor = DirectExecutor(config, app_factory(), self.client_ids)
            replica = AgreementReplica(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, local=executor,
                agreement_ids=self.agreement_ids, client_ids=self.client_ids,
                cert_verifiers=[],
            )
            executor.bind_owner(replica)
            self.executors.append(executor)
            self.replicas.append(replica)
            self.network.register(replica)

        for node_id in self.client_ids:
            self._add_client(ClientNode(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, logs=[self.agreement_ids],
                request_verifiers=self.agreement_ids,
                reply_quorum=config.f + 1, reply_clusters=[self.agreement_ids],
            ))

    # ------------------------------------------------------------------ #
    # Fault injection helpers.
    # ------------------------------------------------------------------ #

    def crash_replica(self, index: int) -> None:
        """Crash one of the combined agreement/execution replicas."""
        self.replicas[index].crash()

    def server_processes(self):
        return list(self.replicas)
