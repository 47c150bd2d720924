"""The client protocol (Section 3.1.1 of the paper), for every deployment.

A client issues a request certificate ``<REQUEST, o, t, c>_{c,A,1}`` with a
monotonically increasing timestamp, sends it to the agreement node it
believes is the primary, and waits for a valid reply certificate carrying
``g + 1`` matching execution authenticators (or one threshold signature over
the reply bundle).  If no reply arrives before a timeout the client
retransmits to *all* agreement nodes, doubling the timeout each time.

One class serves every builder.  A deployment hands the client its
agreement **logs** (one list of agreement ids per log) and its **reply
clusters** (one list of node ids per shard), and each request records what
may answer it: the shard whose cluster must certify the reply, that
cluster, the logs the request went to and, for a multi-shard operation, the
cross-shard part's state.  Without a shard router every operation touches
shard 0 and log 0 -- the separated system, the coupled BASE-style baseline
(the combined replicas with quorum ``f + 1``: the client is its own voter)
and the unreplicated server (a cluster of one, quorum of one); their replies
name no shard.

**Shards and epochs.**  With a router the client computes which shard owns
each operation, by the newest partition-map epoch it knows, and accepts a
reply only when ``g + 1`` matching authenticators come from *that* shard's
replicas: ``g + 1`` Byzantine nodes spread across different shards could
otherwise forge a reply.  A reply naming another shard is counted in
:attr:`ClientNode.misrouted_replies`.  A rebalance that moves the key
mid-flight shows as a reply from the new owner carrying a newer certified
``epoch``; the client follows it only when the claim is consistent (the
epoch was agreed and maps the operation to exactly the shard the reply
names -- :meth:`ClientNode._shards_at` asks both halves of that question),
and even then the reply needs ``g + 1`` authenticators from that shard, so
a forged claim buys an attacker nothing the fault bounds did not concede.

**Several agreement logs.**  The client keeps one view cursor per log and
sends each request to the primary of the log that orders its shard's feed
(by the newest log map); a cross-group operation goes to every touched log.
A retransmission re-derives the logs from the newest map, so a log-map
change mid-flight costs a retry, never a double execution: the new owner's
replicas answer from their reply tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

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

if TYPE_CHECKING:  # repro.sharding imports this module
    from ..sharding.router import ShardRouter


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
    """The client's single outstanding request, and what may answer it."""

    timestamp: int
    operation: Operation
    envelope: RequestEnvelope
    issued_at_ms: float
    #: the shard whose cluster must certify the reply: the label its
    #: certified body carries (None without a router: such replies name none)
    shard: Optional[int]
    #: that shard's reply cluster, the only signers the quorum counts
    universe: List[NodeId]
    #: the logs the request went to, ascending; the first one first
    logs: Tuple[int, ...]
    #: a multi-shard operation's state (``sharding.client.CrossShardRequest``)
    cross: Any = None
    callback: Optional[Callable[[CompletedRequest], None]] = None
    timer: Optional[Timer] = None
    timeout_ms: float = 0.0
    retransmissions: int = 0
    collectors: Dict[bytes, Certificate] = field(default_factory=dict)


class ClientNode(Process):
    """A client of the replicated service, in any deployment."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, logs: Sequence[Sequence[NodeId]],
                 request_verifiers: List[NodeId], reply_quorum: int,
                 reply_clusters: Sequence[Sequence[NodeId]],
                 router: Optional[ShardRouter] = None,
                 log_of_shard: Optional[Callable[[int], int]] = None,
                 encrypt_requests: bool = False) -> None:
        super().__init__(node_id, scheduler)
        self.config = config
        self.logs = [list(ids) for ids in logs]
        #: every node that must be able to verify this client's MAC-vector
        #: request authenticators (agreement + execution + firewall nodes).
        self.request_verifiers = list(request_verifiers)
        self.reply_quorum = reply_quorum
        self.reply_clusters = [list(ids) for ids in reply_clusters]
        self.router = router
        #: shard -> the log that orders its feed (newest log map); None in
        #: the unsharded deployments, whose one log orders everything
        self.log_of_shard = log_of_shard
        self.encrypt_requests = encrypt_requests
        self.crypto = CryptoProvider(node_id, keystore, config.crypto,
                                     charge=self.charge,
                                     record=self.stats.record_crypto,
                                     perf=config.perf)

        self._next_timestamp = 1
        self._pending: Optional[_PendingRequest] = None
        self._queue: List[tuple] = []
        #: last known primary view per log
        self._views = [0] * len(self.logs)
        #: the log the last request (or retransmission) went to first
        self._log = 0
        #: partition-map epoch cursor, advanced only by consistent,
        #: authenticated newer-epoch replies
        self.epoch = 0

        self.completed: List[CompletedRequest] = []
        self.retransmissions = 0
        self.log_retargets = 0
        self.misrouted_replies = 0
        self.epoch_advances = 0
        self.cross_shard_completed = 0
        self.cross_shard_retries = 0
        self.invalid_cross_shard_replies = 0
        self.collator_equivocations = 0
        #: the multi-shard operation path, which only a router can take
        self.cross_shard = None
        if router is not None:
            from ..sharding.client import CrossShardRequests
            self.cross_shard = CrossShardRequests(self)

    # ------------------------------------------------------------------ #
    # Submitting requests.
    # ------------------------------------------------------------------ #

    @property
    def outstanding(self) -> bool:
        """Whether a request is currently awaiting its reply."""
        return self._pending is not None

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
        touched = self._touched(operation)
        logs = self._aim(touched)
        cross = None
        if len(touched) > 1:
            problem = self.cross_shard.problem(operation)
            if problem is not None:
                # Fail the request locally instead of raising: _issue also
                # runs inside the reply path (queued submissions pop when
                # the outstanding request completes), where an exception
                # would tear down the whole event dispatch.
                self._fail_locally(operation, timestamp, callback, issued_at,
                                   logs[0], problem)
                return
            operation, cross = self.cross_shard.pin(operation)
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
        # The lowest touched shard answers: the owner, or a multi-shard
        # operation's deterministic collator (unsharded: the one cluster).
        self._pending = _PendingRequest(
            timestamp=timestamp, operation=operation, envelope=envelope,
            issued_at_ms=self.now if issued_at is None else issued_at,
            shard=touched[0], universe=self.reply_clusters[touched[0] or 0],
            logs=logs, cross=cross, callback=callback,
            timeout_ms=self.config.timers.client_retransmit_ms,
        )
        if self.tracing:
            self.trace_event(request_trace_id(self.node_id, timestamp), "submit")
        # A cross-group marker must be ordered by every touched log: the
        # same signed envelope goes to each one's primary guess.
        self.send(self._primary(logs[0]), envelope)
        self._arm_timer()
        for log in logs[1:]:
            self.send(self._primary(log), envelope)

    def _touched(self, operation: Operation) -> List[Optional[int]]:
        """The shards ``operation`` touches at this client's epoch."""
        if self.router is None:
            return [None]
        return self.router.shards_of_operation_keys(operation, epoch=self.epoch)

    def _aim(self, shards: List[Optional[int]]) -> Tuple[int, ...]:
        """The logs ordering ``shards`` (newest log map), ascending; the
        first is the one the request goes to first."""
        log_of = self.log_of_shard
        logs = tuple(sorted({log_of(shard) for shard in shards})) if log_of else (0,)
        if logs[0] != self._log:
            self._log = logs[0]
            self.log_retargets += 1
        return logs

    def _primary(self, log: int) -> NodeId:
        cluster = self.logs[log]
        return cluster[self._views[log] % len(cluster)]

    def _fail_locally(self, operation: Operation, timestamp: int,
                      callback: Optional[Callable[[CompletedRequest], None]],
                      issued_at: Optional[float], log: int, error: str) -> None:
        """Complete a request with a local error without touching the wire."""
        record = CompletedRequest(
            timestamp=timestamp, operation=operation,
            result=OperationResult(value=None, error=error),
            issued_at_ms=self.now if issued_at is None else issued_at,
            completed_at_ms=self.now, seq=0, view=self._views[log])
        self.completed.append(record)
        if callback is not None:
            callback(record)
        self._issue_next_queued()

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
        # A retransmission is the same signed request, to every agreement
        # node of every log that orders the operation by the newest map: a
        # log-map change may have moved a shard mid-flight, and the new
        # owner's cluster is the one that can still answer (its reply tables
        # dedup a request the old owner already executed).
        operation = pending.cross.operation if pending.cross else pending.operation
        pending.logs = self._aim(self._touched(operation))
        self.multicast(self.logs[pending.logs[0]], pending.envelope)
        self.retransmissions += 1
        pending.retransmissions += 1
        pending.timeout_ms *= 2
        self._arm_timer()
        for log in pending.logs[1:]:
            self.multicast(self.logs[log], pending.envelope)

    # ------------------------------------------------------------------ #
    # Replies.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, ClientReply):
            self.handle_reply(sender, message)
        elif self.cross_shard is not None:
            self.cross_shard.on_message(message)

    def handle_reply(self, sender: NodeId, message: ClientReply) -> None:
        own = self._answer_to_pending(message)
        if own is None:
            return
        pending, body = self._pending, message.body
        if pending.cross is not None:
            # A multi-shard operation completes through the assembled reply;
            # an ordinary one counts only if its keys collapsed onto one
            # shard (sharding.client.CrossShardRequests.collapses).
            if not self.cross_shard.collapses(pending, body):
                return
        elif body.epoch is not None and body.epoch > self.epoch:
            self._maybe_advance_epoch(message)
        if body.shard != pending.shard:
            self.misrouted_replies += 1
            return
        if self._collect(pending, message.certificate) is None:
            return
        self._complete(pending, own.result_for(Role.CLIENT), own.seq, own.view)

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

    def _shards_at(self, pending: _PendingRequest,
                   epoch: Optional[int]) -> Optional[List[int]]:
        """The epoch question a reply's claim raises: None unless ``epoch``
        was agreed, else the shards the pending operation touches at it (an
        ordinary request: the one shard its routing key names)."""
        router = self.router
        if router is None or epoch is None or not router.partitioner.has_epoch(epoch):
            return None
        if pending.cross is None:
            return [router.shard_of_operation(pending.operation, epoch)]
        return router.shards_of_operation_keys(pending.cross.operation,
                                               epoch=epoch)

    def _maybe_advance_epoch(self, message: ClientReply) -> None:
        """Adopt the newer epoch a reply to the pending ordinary request
        claims, when the claim is consistent; adoption completes nothing,
        it only re-scopes which shard's replicas the quorum counts."""
        pending, body = self._pending, message.body
        if self._shards_at(pending, body.epoch) == [body.shard]:
            self._adopt_epoch(body.epoch)
            self._expect(pending, body.shard)

    def _adopt_epoch(self, epoch: int) -> None:
        if epoch > self.epoch:
            self.epoch = epoch
            self.epoch_advances += 1

    def _expect(self, pending: _PendingRequest, shard: int) -> None:
        """Scope the pending request's quorum to ``shard``'s replicas."""
        pending.shard = shard
        pending.universe = self.reply_clusters[shard]

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
        valid = self.crypto.valid_signers(collector, pending.universe)
        if len(valid) >= self.reply_quorum:
            return collector
        return None

    def _complete(self, pending: _PendingRequest, result: OperationResult,
                  seq: int, view: int,
                  groups: Tuple[Tuple[int, int], ...] = ()) -> None:
        record = CompletedRequest(
            timestamp=pending.timestamp, operation=pending.operation,
            result=result, issued_at_ms=pending.issued_at_ms,
            completed_at_ms=self.now, seq=seq, view=view, groups=groups,
        )
        self.completed.append(record)
        if self.tracing:
            self.trace_event(request_trace_id(self.node_id, pending.timestamp),
                             "reply")
        self.metrics.histogram("client.latency_ms").observe(record.latency_ms)
        self._views[pending.logs[0]] = view
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
