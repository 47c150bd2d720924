"""The unreplicated baseline: a single server, no fault tolerance.

Figures 4 and 6 of the paper compare the replicated systems against an
unreplicated implementation of the same service; this module provides that
baseline on the same simulated substrate so that the comparison isolates the
replication overhead (extra messages and cryptography) rather than substrate
differences.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..config import AuthenticationScheme, SystemConfig
from ..crypto.keys import Keystore
from ..crypto.provider import CryptoProvider
from ..messages.reply import BatchReplyBody, ClientReply, ReplyBody
from ..messages.request import ClientRequest, RequestEnvelope
from ..net.message import Message
from ..sim.process import Process
from ..sim.scheduler import Scheduler
from ..statemachine.interface import StateMachine
from ..statemachine.nondet import NonDetInput
from ..util.ids import NodeId, Role, client_id, server_id
from .client import ClientNode
from .system import SimulatedSystem


class UnreplicatedServer(Process):
    """A single correct server executing requests in arrival order."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, state_machine: StateMachine,
                 client_ids: List[NodeId]) -> None:
        super().__init__(node_id, scheduler)
        self.config = config
        self.app = state_machine
        self.client_ids = list(client_ids)
        self.crypto = CryptoProvider(node_id, keystore, config.crypto,
                                     charge=self.charge,
                                     record=self.stats.record_crypto,
                                     perf=config.perf)
        self.next_seq = 1
        self.reply_cache: Dict[NodeId, ClientReply] = {}
        self.requests_executed = 0

    def on_message(self, sender: NodeId, message: Message) -> None:
        if not isinstance(message, RequestEnvelope):
            return
        request = self.crypto.authentic_request(message.certificate, self.client_ids)
        if request is not None:
            self._handle_request(request)

    def _handle_request(self, request: ClientRequest) -> None:
        cached = self.reply_cache.get(request.client)
        if (cached is not None
                and cached.body.replies[0].timestamp >= request.timestamp):
            self.send(request.client, cached)
            return
        operation = request.operation_for(Role.SERVER)
        result = self.app.execute(operation, NonDetInput.empty())
        self.charge(self.config.app_processing_ms + result.processing_ms)
        self.requests_executed += 1
        seq = self.next_seq
        self.next_seq += 1
        reply = ReplyBody(view=0, seq=seq, timestamp=request.timestamp,
                          client=request.client, result=result)
        body = BatchReplyBody(view=0, seq=seq, replies=(reply,))
        message = ClientReply(self.crypto.new_certificate(
            body, AuthenticationScheme.MAC, [request.client]))
        self.reply_cache[request.client] = message
        self.send(request.client, message)


class UnreplicatedSystem(SimulatedSystem):
    """Deployment of the unreplicated baseline on the simulated network."""

    def __init__(self, config: SystemConfig,
                 app_factory: Callable[[], StateMachine],
                 num_clients: Optional[int] = None,
                 seed: Optional[int] = None) -> None:
        super().__init__(config, seed=seed)
        count = num_clients if num_clients is not None else config.num_clients
        self.server_id = server_id(0)
        self.client_ids = [client_id(i) for i in range(count)]
        self.server = UnreplicatedServer(
            node_id=self.server_id, scheduler=self.scheduler, config=config,
            keystore=self.keystore, state_machine=app_factory(),
            client_ids=self.client_ids,
        )
        self.network.register(self.server)

        for node_id in self.client_ids:
            self._add_client(ClientNode(
                node_id=node_id, scheduler=self.scheduler, config=config,
                keystore=self.keystore, logs=[[self.server_id]],
                request_verifiers=[self.server_id],
                reply_quorum=1, reply_clusters=[[self.server_id]],
            ))

    def server_processes(self):
        return [self.server]
