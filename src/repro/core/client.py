"""The client protocol (Section 3.1.1 of the paper).

A client issues a request certificate ``<REQUEST, o, t, c>_{c,A,1}`` with a
monotonically increasing timestamp, sends it to the agreement node it
believes is the primary, and waits for a valid reply certificate carrying
``g + 1`` matching execution authenticators (or one threshold signature over
the reply bundle).  If no reply arrives before a timeout the client
retransmits to *all* agreement nodes, doubling the timeout each time.

The same class also serves the two baselines: the coupled BASE-style system
(replies must match across ``f + 1`` of the combined replicas -- the client
is its own voter) and the unreplicated server (quorum of one), configured by
``reply_quorum`` / ``reply_universe``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import AuthenticationScheme, SystemConfig
from ..crypto.certificate import Certificate
from ..crypto.keys import Keystore
from ..crypto.provider import CryptoProvider
from ..messages.reply import BatchReplyBody, ClientReply, ReplyBody
from ..messages.request import ClientRequest, EncryptedBody, RequestEnvelope
from ..net.message import Message
from ..obs import request_trace_id
from ..sim.process import Process
from ..sim.scheduler import Scheduler, Timer
from ..statemachine.interface import Operation, OperationResult
from ..util.ids import NodeId, Role


@dataclass(frozen=True)
class CompletedRequest:
    """Record of one completed request (used by benchmarks and tests)."""

    timestamp: int
    operation: Operation
    result: OperationResult
    issued_at_ms: float
    completed_at_ms: float
    seq: int
    view: int
    #: for a cross-shard operation under multi-log ordering, ``(shard,
    #: log)`` for each touched shard: the log that ordered the marker at
    #: that shard's feed, as the shard's certified fragment says
    groups: Tuple[Tuple[int, int], ...] = ()

    @property
    def latency_ms(self) -> float:
        return self.completed_at_ms - self.issued_at_ms


@dataclass
class _PendingRequest:
    """State for the client's single outstanding request."""

    timestamp: int
    operation: Operation
    envelope: RequestEnvelope
    issued_at_ms: float
    callback: Optional[Callable[[CompletedRequest], None]] = None
    timer: Optional[Timer] = None
    timeout_ms: float = 0.0
    retransmissions: int = 0
    collectors: Dict[bytes, Certificate] = field(default_factory=dict)


class ClientNode(Process):
    """A client of the replicated service."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, agreement_ids: List[NodeId],
                 request_verifiers: List[NodeId],
                 reply_quorum: int, reply_universe: List[NodeId],
                 threshold_group: Optional[str] = None,
                 encrypt_requests: bool = False) -> None:
        super().__init__(node_id, scheduler)
        self.config = config
        self.agreement_ids = list(agreement_ids)
        #: every node that must be able to verify this client's MAC-vector
        #: request authenticators (agreement + execution + firewall nodes).
        self.request_verifiers = list(request_verifiers)
        self.reply_quorum = reply_quorum
        self.reply_universe = list(reply_universe)
        self.threshold_group = threshold_group
        self.encrypt_requests = encrypt_requests
        self.crypto = CryptoProvider(node_id, keystore, config.crypto,
                                     charge=self.charge,
                                     record=self.stats.record_crypto,
                                     perf=config.perf)

        self._next_timestamp = 1
        self._pending: Optional[_PendingRequest] = None
        self._queue: List[tuple] = []
        self._last_known_view = 0

        self.completed: List[CompletedRequest] = []
        self.retransmissions = 0

    # ------------------------------------------------------------------ #
    # Submitting requests.
    # ------------------------------------------------------------------ #

    @property
    def outstanding(self) -> bool:
        """Whether a request is currently awaiting its reply."""
        return self._pending is not None

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, operation: Operation,
               callback: Optional[Callable[[CompletedRequest], None]] = None) -> int:
        """Submit ``operation``; returns the request timestamp.

        A correct client keeps a single request outstanding; additional
        submissions queue behind it and are issued in order as replies arrive.
        """
        timestamp = self._next_timestamp
        self._next_timestamp += 1
        if self._pending is None:
            self._issue(operation, timestamp, callback, issued_at=self.now)
        else:
            # Record the submission time so open-loop benchmarks measure the
            # full response time including queueing behind earlier requests.
            self._queue.append((operation, timestamp, callback, self.now))
        return timestamp

    def _issue(self, operation: Operation, timestamp: int,
               callback: Optional[Callable[[CompletedRequest], None]],
               issued_at: Optional[float] = None) -> None:
        body: Any = operation
        if self.encrypt_requests:
            body = EncryptedBody(operation,
                                 readers=frozenset({Role.CLIENT, Role.EXECUTION}),
                                 size=max(operation.body_size, 64))
        request = ClientRequest(operation=body, timestamp=timestamp,
                                client=self.node_id)
        certificate = self.crypto.new_certificate(
            request, AuthenticationScheme.MAC, self.request_verifiers)
        envelope = RequestEnvelope(certificate=certificate)
        self._pending = _PendingRequest(
            timestamp=timestamp, operation=operation, envelope=envelope,
            issued_at_ms=self.now if issued_at is None else issued_at,
            callback=callback,
            timeout_ms=self.config.timers.client_retransmit_ms,
        )
        if self.tracing:
            self.trace_event(request_trace_id(self.node_id, timestamp), "submit")
        primary = self.agreement_ids[self._last_known_view % len(self.agreement_ids)]
        self.send(primary, envelope)
        self._arm_timer()

    def _arm_timer(self) -> None:
        pending = self._pending
        if pending is None:
            return
        pending.timer = self.set_timer(
            pending.timeout_ms,
            lambda timestamp=pending.timestamp: self._on_timeout(timestamp),
            label=f"{self.node_id}:client-retransmit",
        )

    def _on_timeout(self, timestamp: int) -> None:
        pending = self._pending
        if pending is None or pending.timestamp != timestamp:
            return
        # A retransmission is the same signed request, to every agreement node.
        self.multicast(self.agreement_ids, pending.envelope)
        self.retransmissions += 1
        pending.retransmissions += 1
        pending.timeout_ms *= 2
        self._arm_timer()

    # ------------------------------------------------------------------ #
    # Replies.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, ClientReply):
            self.handle_reply(sender, message)

    def handle_reply(self, sender: NodeId, message: ClientReply) -> None:
        own = self._answer_to_pending(message)
        if own is None:
            return
        if self._collect(self._pending, message.certificate) is None:
            return
        self._complete(self._pending, own, message.body)

    def _answer_to_pending(self, message: ClientReply) -> Optional[ReplyBody]:
        """The reply to the outstanding request that ``message``'s certified
        body carries, if any.  It is read out of the very object the
        authenticators are then verified over, never from beside it."""
        pending = self._pending
        body = message.body
        if pending is None or not isinstance(body, BatchReplyBody):
            return None
        own = body.reply_for(self.node_id)
        if own is None or own.timestamp != pending.timestamp:
            return None
        return own

    def _collect(self, pending: _PendingRequest,
                 certificate: Certificate) -> Optional[Certificate]:
        """Merge partial certificates until the reply quorum is reached."""
        if certificate.scheme is AuthenticationScheme.THRESHOLD:
            if certificate.threshold_signature is None:
                return None
            if self.crypto.verify_certificate(certificate, self.reply_quorum):
                return certificate
            return None
        body = certificate.payload
        digest = self.crypto.payload_digest(body)
        collector = pending.collectors.get(digest)
        if collector is None:
            collector = Certificate(payload=body, scheme=certificate.scheme)
            pending.collectors[digest] = collector
        collector.merge(certificate)
        valid = self.crypto.valid_signers(collector, self.reply_universe)
        if len(valid) >= self.reply_quorum:
            return collector
        return None

    def _complete(self, pending: _PendingRequest, reply, body: BatchReplyBody,
                  groups: Tuple[Tuple[int, int], ...] = ()) -> None:
        result = reply.result_for(Role.CLIENT)
        record = CompletedRequest(
            timestamp=pending.timestamp, operation=pending.operation,
            result=result, issued_at_ms=pending.issued_at_ms,
            completed_at_ms=self.now, seq=reply.seq, view=reply.view,
            groups=groups,
        )
        self.completed.append(record)
        if self.tracing:
            self.trace_event(request_trace_id(self.node_id, pending.timestamp),
                             "reply")
        self.metrics.histogram("client.latency_ms").observe(record.latency_ms)
        self._last_known_view = reply.view
        if pending.timer is not None:
            pending.timer.cancel()
        self._pending = None
        if pending.callback is not None:
            pending.callback(record)
        self._issue_next_queued()

    def _issue_next_queued(self) -> None:
        """The single outstanding request is done: issue the next one."""
        if self._queue:
            operation, timestamp, callback, submitted_at = self._queue.pop(0)
            self._issue(operation, timestamp, callback, issued_at=submitted_at)

    # ------------------------------------------------------------------ #
    # Introspection helpers for benchmarks and tests.
    # ------------------------------------------------------------------ #

    def latencies_ms(self) -> List[float]:
        """Latency of every completed request, in completion order."""
        return [record.latency_ms for record in self.completed]

    def results(self) -> List[Any]:
        """Application-level result values of every completed request."""
        return [record.result.value for record in self.completed]
