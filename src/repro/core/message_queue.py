"""The message queue installed as the agreement library's local state machine.

Section 3.2.1 of the paper: each agreement node hosts a message queue
instance that stores ``maxN`` (the highest sequence number in any agreement
certificate received), ``pendingSends`` (request/agreement certificates and
retransmission timers for batches whose reply has not yet arrived), and an
optional per-client reply cache ``cache_c``.

* ``insert`` (here :meth:`MessageQueue.execute_batch`, the name the agreement
  library calls) stores the certificates, multicasts them towards the
  execution cluster, and arms a retransmission timer with exponential
  backoff.
* When a valid reply certificate with ``g + 1`` execution authenticators (or
  one threshold signature) arrives, the queue drops the pending entries for
  that and all lower sequence numbers and cancels their timers.  One rule
  decides the rest: a queue caches and relays every *complete* certificate
  it assembles.  Where the execution replicas answer clients themselves
  (``SystemConfig.direct_replies``) a certificate is the bodiless certified
  form (header plus per-reply digests, same digest): it retires pending
  sends and frees the pipeline, and there is nothing to cache or relay to
  a client -- the clients already hold the replies.  The replicas send
  their partials to the primary of the slot's view alone, and its queue
  relays the completed certificate to every other agreement node, which
  verifies its ``g + 1`` authenticators; a queue whose primary never
  relays retires the slot through its own retransmission timer, which
  every replica answers to every agreement node.  Otherwise (privacy
  firewall, threshold or signature certificates) every queue receives the
  bundle and relays each client its reply.
* ``retryHint`` serves client-initiated retransmissions from the cache, or
  resends the pending certificates, or reports that agreement must be
  re-run.  With direct replies a queue that can do neither of the first
  two first forwards the client's signed request to the execution
  replicas; each that holds the reply answers the queue with a complete
  single-reply partial, and the queue relays the certificate to the
  client (and caches it) once ``g + 1`` match.  Those partials are
  assembled apart from the slot's bodiless collector, so the cost of the
  optional cache is paid on retransmission only.
* Pipeline back-pressure: the agreement replica will not start sequence
  number ``n`` until the queue has seen a reply for ``n - P``
  (:meth:`highest_ready_seq`).

Runtime-backend contract
------------------------
The queue is deliberately runtime-agnostic: it leans only on the invariants
the :class:`~repro.runtime.interface.Runtime` seam guarantees on *every*
backend, which is why it runs unmodified over real sockets:

* Its handlers are atomic (no interleaving on one node), so quorum
  accumulation (``CryptoProvider.assemble``) needs no locking anywhere.
* Retransmission timers rely only on one-shot ``call_after`` semantics and
  ``Timer.cancel()``; nothing assumes virtual time or same-instant firing
  order.
* Duplicate replies and re-deliveries are handled by sequence-number
  checks, not by assuming exactly-once transport; the transport only
  promises *at most* once per send.  Per-link order is the backend's:
  the asyncio transport keeps send order (one TCP stream per directed
  pair), the simulator keeps none (``net/network.py``), so nothing here
  relies on it.
* Reply-certificate verification goes through the node's own
  ``CryptoProvider`` and its ``VerifiedCertificateCache``, inside the
  handler, on either backend.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..agreement.local import LocalExecutor, RetryOutcome
from ..config import AuthenticationScheme, SystemConfig
from ..crypto.certificate import Certificate
from ..messages.agreement import OrderedBatch
from ..messages.reply import BatchReply, ClientReply, ReplyBody
from ..messages.request import ClientRequest, RequestEnvelope
from ..obs import request_trace_id
from ..sim.process import Process
from ..sim.scheduler import Timer
from ..statemachine.nondet import NonDetInput
from ..util.ids import NodeId
from ..util.seqtable import SeqTable


@dataclass
class PendingSend:
    """Book-keeping for one message awaiting its answer.

    ``fire`` (the retransmission timer's callback) calls the queue's *named*
    timer entry point, ``_on_retransmit_timeout`` or a sibling: that is
    where the performance ledger's spans charge timer work to the queue.
    """

    batch: Any
    fire: Callable[[], None]
    label: str
    timeout_ms: float
    timer: Optional[Timer] = None
    retransmissions: int = 0


@dataclass(eq=False)
class DeliveredBatch:
    """A delivered slot as a queue keeps it until the slot's reply: what
    the agreement library delivered, and the :class:`OrderedBatch` that
    goes downstream, built the first time the queue sends it
    (:meth:`QueueCore._ordered_batch`) and the one object from then on.
    Fault-free only the primary's queue sends a slot, so a backup's never
    builds one."""

    seq: int
    view: int
    request_certificates: Tuple[Certificate, ...]
    agreement_certificate: Certificate
    nondet: NonDetInput
    ordered: Optional[OrderedBatch] = None


class CachedReply(NamedTuple):
    """A client's latest reply and the full certificate over the bundle it
    came in (the client's own view of it is cut when it asks)."""

    reply: ReplyBody
    certificate: Certificate


class QueueCore(LocalExecutor):
    """What every queue hosted by an agreement replica is made of.

    The per-client reply cache, the statistics, and the steps all the
    queues repeat: send-and-count, the primary-first rule, retransmit with
    exponential backoff, serve a client retransmission from the cache,
    assemble and forward a reply certificate.  *Where* batches go is what
    :class:`MessageQueue` (one cluster) and
    :class:`~repro.sharding.queue.ShardRouterQueue` (each batch's shards,
    by the route its certificate names) each add.
    """

    def __init__(self, owner: Process, config: SystemConfig,
                 client_ids: List[NodeId]) -> None:
        #: the agreement replica process hosting this queue; provides
        #: send/set_timer/charge and the crypto provider.
        self.owner = owner
        self.config = config
        self.client_ids = list(client_ids)

        self.max_n = 0
        #: per-client cache of the latest certified reply
        self.cache: Dict[NodeId, CachedReply] = {}
        #: per client whose retransmission was passed on to the replicas,
        #: the assembly of their answers (:meth:`_on_retry_answer`)
        self._retries: Dict[NodeId, Dict[Tuple[int, bytes], Optional[Certificate]]] = {}
        self.highest_reply_seq = 0
        #: the other agreement nodes, once :meth:`_backups` needs them
        self._others: Optional[Tuple[NodeId, ...]] = None

        # Statistics used by benchmarks and tests.
        self.batches_sent = 0
        self.replies_forwarded = 0
        self.retransmissions = 0
        self.cache_hits = 0
        self.requests_forwarded = 0
        #: bodiless reply certificates relayed to the backups
        self.certificates_relayed = 0

        # Observability (passive: never charges, never schedules).
        self._c_batches_sent = owner.metrics.counter("queue.batches_sent")
        self._c_replies_forwarded = owner.metrics.counter("queue.replies_forwarded")
        owner.metrics.register_probe("queue.state", self._queue_probe)

    def _queue_probe(self) -> dict:
        """Snapshot of the queue's ad-hoc counters for the metrics registry."""
        return {
            "max_n": self.max_n,
            "batches_sent": self.batches_sent,
            "replies_forwarded": self.replies_forwarded,
            "retransmissions": self.retransmissions,
            "cache_hits": self.cache_hits,
        }

    def _trace_requests(self, certificates: Tuple[Certificate, ...],
                        event: str) -> None:
        """Record one trace event per client request inside a batch."""
        for certificate in certificates:
            request = certificate.payload
            if isinstance(request, ClientRequest):
                self.owner.trace_event(
                    request_trace_id(request.client, request.timestamp), event)

    @property
    def crypto(self):
        return self.owner.crypto  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # Sending and retransmitting.
    # ------------------------------------------------------------------ #

    def _send(self, targets: List[NodeId], batch: DeliveredBatch) -> None:
        self.owner.multicast(targets, self._ordered_batch(batch))
        self.batches_sent += 1
        self._c_batches_sent.inc()

    def _ordered_batch(self, batch: DeliveredBatch) -> OrderedBatch:
        """What a delivered slot sends downstream: one object, sent by the
        primary first and by any queue on retransmission, built when first
        sent.  Its request certificates are addressed to the nodes
        downstream that check them (the replica's ``cert_verifiers``:
        execution replicas, filters, shard replicas); the agreement nodes'
        entries were checked at PRE-PREPARE and no node downstream could
        check them."""
        if batch.ordered is None:
            verifiers = self.owner.cert_verifiers
            batch.ordered = OrderedBatch(
                seq=batch.seq, view=batch.view,
                request_certificates=tuple([
                    certificate.addressed_to(verifiers)
                    for certificate in batch.request_certificates]),
                agreement_certificate=batch.agreement_certificate,
                nondet=batch.nondet)
        return batch.ordered

    def _owner_is_primary(self, view: int) -> bool:
        """Whether the hosting replica is ``view``'s primary: the one node
        that sends a batch's body downstream on first release (the paper's
        primary-first discipline; the others only retransmit)."""
        primary_of = getattr(self.owner, "primary_of", None)
        if primary_of is None:
            return True
        return primary_of(view) == self.owner.node_id

    def _arm(self, pending: PendingSend) -> None:
        pending.timer = self.owner.set_timer(pending.timeout_ms, pending.fire,
                                             label=pending.label)

    def _back_off(self, pending: PendingSend) -> None:
        """What follows every timer-driven resend: count it, double the
        timeout (exponential backoff, as in the paper), re-arm."""
        self.retransmissions += 1
        pending.retransmissions += 1
        pending.timeout_ms *= 2
        self._arm(pending)

    # ------------------------------------------------------------------ #
    # Client retransmissions (BASE's ``retryHint``).
    # ------------------------------------------------------------------ #

    def _serve_from_cache(self, request: ClientRequest) -> bool:
        """Answer a retransmitted request from the reply cache if it holds
        this (or a later) reply for the client."""
        cached = self.cache.get(request.client)
        if cached is None or cached.reply.timestamp < request.timestamp:
            return False
        self.owner.send(request.client, ClientReply.for_client(
            cached.certificate, request.client))
        self.cache_hits += 1
        return True

    @staticmethod
    def _carries(batch: DeliveredBatch, request: ClientRequest) -> bool:
        """Whether a pending batch holds the retransmitted request (config
        markers ride batches too and carry no client timestamp)."""
        for certificate in batch.request_certificates:
            pending_request = certificate.payload
            if (isinstance(pending_request, ClientRequest)
                    and pending_request.client == request.client
                    and pending_request.timestamp == request.timestamp):
                return True
        return False

    def highest_ready_seq(self) -> Optional[int]:
        return self.highest_reply_seq

    # ------------------------------------------------------------------ #
    # Reply certificates.
    # ------------------------------------------------------------------ #

    @abstractmethod
    def on_batch_reply(self, sender: NodeId, message: BatchReply) -> None:
        """An execution replica's partial certificate over a reply bundle
        (the hosting replica hands every :class:`BatchReply` here)."""

    def _admissible(self, message: BatchReply) -> bool:
        """Whether to assemble ``message``: well formed, and carrying the
        whole bundle unless replicas reply directly -- where the queue must
        relay, a bodiless partial arriving first would leave it an
        assembled certificate with nothing to relay."""
        return message.well_formed and (message.body.complete
                                        or self.config.direct_replies)

    def _backups(self, view: int) -> Tuple[NodeId, ...]:
        """Where this queue relays a bodiless reply certificate for a slot
        delivered in ``view``: where the replicas answer clients directly
        they send it to that view's primary alone, whose queue relays it to
        the other agreement nodes; any other queue relays it nowhere."""
        if not self.config.direct_replies or not self._owner_is_primary(view):
            return ()
        if self._others is None:
            own = self.owner.node_id
            self._others = tuple(node for node in self.owner.agreement_ids
                                 if node != own)
        return self._others

    def _assemble_into(self, collectors: Dict[Tuple[int, bytes], Optional[Certificate]],
                       sender: NodeId, certificate: Certificate,
                       universe: List[NodeId], group: Optional[str],
                       relays: Tuple[NodeId, ...] = ()) -> Optional[Certificate]:
        """The full certificate over the body ``certificate`` is over, once
        ``g + 1`` replicas of ``universe`` (the cluster, or one shard's:
        :class:`~repro.sharding.queue.ShardRouterQueue` keeps a table per
        shard) or a threshold signature vouch for it.  Each sender's own
        authenticator merges into ``collectors`` by ``(seq, body digest)``;
        shares count in this queue's ``group``, whatever group a partial
        names.  A MAC vector names this node and else only ``relays``, the
        nodes the queue relays the certificate to: a slot's at the primary
        of its view (:meth:`_backups`), a retry answer's client."""
        body = certificate.payload
        if (certificate.scheme is AuthenticationScheme.THRESHOLD
                and certificate.threshold_signature is not None):
            complete = self.crypto.verify_certificate(certificate, self.config.reply_quorum)
            return certificate if complete else None
        return self.crypto.assemble(
            collectors, (body.seq, self.crypto.payload_digest(body)), certificate,
            sender, universe, self.config.reply_quorum,
            self.config.authentication, group, relays)

    def _forward_replies(self, certificate: Certificate) -> None:
        """Cache a complete certified bundle for each client it answers and
        relay each one its reply, under a certificate that names that
        client alone (:meth:`ClientReply.for_client`; the cache keeps the
        whole one).  A bodiless certificate -- what the queues assemble
        where the replicas answer clients directly -- has nothing to cache
        and no client to relay to: the primary of its view relays it to
        each other agreement node (:meth:`_relay_to_backups`)."""
        body = certificate.payload
        if not body.complete:
            self._relay_to_backups(certificate)
            return
        for reply in body.replies:
            cached = self.cache.get(reply.client)
            if cached is None or cached.reply.timestamp <= reply.timestamp:
                self.cache[reply.client] = CachedReply(reply, certificate)
            self.owner.send(reply.client, ClientReply.for_client(
                certificate, reply.client))
            self.replies_forwarded += 1
            self._c_replies_forwarded.inc()

    def _relay_to_backups(self, certificate: Certificate) -> None:
        """Relay a bodiless reply certificate this queue completed as the
        primary of its view to each backup it is good for -- every vector
        names that backup (a resend names its receiver alone; a certificate
        an agreement node handed over whole may carry anything beside its
        ``g + 1``) -- in a frame cut to it.  The backup checks all ``g + 1``
        authenticators, and retires its pending sends as if it had
        assembled the certificate."""
        tokens = [authenticator.token
                  for authenticator in certificate.authenticators.values()]
        backups = [node for node in self._backups(certificate.payload.view)
                   if all(isinstance(token, dict) and node.name in token
                          for token in tokens)]
        if not backups:
            return
        relay = BatchReply(seq=certificate.payload.seq, certificate=certificate,
                           sender=self.owner.node_id)
        for node, frame in zip(backups, relay.addressed_to_each(backups)):
            self.owner.send(node, frame)
        self.certificates_relayed += 1

    def _forward_request(self, request_certificate: Certificate,
                         replicas: List[NodeId], relayed: bool) -> None:
        """Pass a client retransmission this queue can answer neither from
        its cache nor from a pending send on to the execution ``replicas``
        (direct replies only): each one whose reply table holds the reply
        answers this queue with a complete certificate over it.  Only the
        client's own copy is passed on, each time it comes: a copy a backup
        ``relayed`` to the primary is one that backup's queue passed on
        already.  Answers already gathered for the client are kept."""
        if self.config.direct_replies and not relayed:
            self._retries.setdefault(request_certificate.payload.client, {})
            self.owner.multicast(replicas,
                                 RequestEnvelope(certificate=request_certificate))
            self.requests_forwarded += 1

    def _answers_a_retry(self, message: BatchReply) -> bool:
        """Whether ``message`` is a replica's answer to a passed-on
        retransmission: where replicas answer clients directly, it is the
        one reply message that carries a reply upstream."""
        return self.config.direct_replies and bool(message.body.carried)

    def _on_retry_answer(self, sender: NodeId, message: BatchReply,
                         universe: List[NodeId]) -> None:
        """Assemble the replicas' answers to a retransmission this queue
        passed on -- one reply each, for a client it passed one on for --
        apart from the slot's bodiless collector: that key is the same when
        the slot answered one request, and it completed long ago.  Once
        ``g + 1`` match, cache the certificate and relay it."""
        replies = message.body.replies
        client = replies[0].client if len(replies) == 1 else None
        table = self._retries.get(client)
        if table is None:
            return
        full = self._assemble_into(table, sender, message.certificate,
                                   universe, None, (client,))
        if full is not None:
            del self._retries[client]
            self._forward_replies(full)


class MessageQueue(QueueCore):
    """Local state machine of one agreement node in the separated architecture.

    A stable agreement checkpoint requires no action here: the reply cache
    is explicitly excluded from checkpoints, and pending sends are only
    dropped when their reply arrives.
    """

    def __init__(self, owner: Process, config: SystemConfig,
                 execution_ids: List[NodeId], downstream: List[NodeId],
                 client_ids: List[NodeId],
                 threshold_group: Optional[str] = None) -> None:
        super().__init__(owner, config, client_ids)
        self.execution_ids = list(execution_ids)
        #: where ordered batches are sent: the execution nodes directly, or
        #: the bottom row of the privacy firewall.
        self.downstream = list(downstream)
        self.threshold_group = threshold_group
        self.pending_sends: Dict[int, PendingSend] = {}
        #: partial-certificate assembly, keyed by (seq, body digest)
        self._collectors: SeqTable[Tuple[int, bytes], Optional[Certificate]] = \
            SeqTable(seq_of=itemgetter(0))

    def _queue_probe(self) -> dict:
        return {**super()._queue_probe(),
                "pending_sends": len(self.pending_sends)}

    # ------------------------------------------------------------------ #
    # LocalExecutor interface (called by the agreement replica).
    # ------------------------------------------------------------------ #

    def execute_batch(self, seq: int, view: int,
                      request_certificates: Tuple[Certificate, ...],
                      agreement_certificate: Certificate,
                      nondet: NonDetInput) -> None:
        """The BASE library's ``msgQueue.insert(request cert, agreement cert)``."""
        batch = DeliveredBatch(seq, view, request_certificates,
                               agreement_certificate, nondet)
        self.max_n = max(self.max_n, seq)
        if self.owner.tracing:
            self._trace_requests(batch.request_certificates, "release")
        pending = PendingSend(
            batch=batch, fire=lambda: self._on_retransmit_timeout(seq),
            label=f"{self.owner.node_id}:mq-retransmit:{seq}",
            timeout_ms=self.config.timers.agreement_retransmit_ms)
        self.pending_sends[seq] = pending
        # Optimisation from the paper: on first insertion only the current
        # primary multicasts the batch downstream; every node retransmits if
        # the timeout expires before the reply certificate arrives.
        if self._owner_is_primary(view):
            self._send(self.downstream, batch)
        self._arm(pending)

    def _on_retransmit_timeout(self, seq: int) -> None:
        pending = self.pending_sends.get(seq)
        if pending is not None:
            self._send(self.downstream, pending.batch)
            self._back_off(pending)

    def retry_hint(self, request_certificate: Certificate,
                   relayed: bool = False) -> RetryOutcome:
        """Handle a client-initiated retransmission (BASE's ``retryHint``)."""
        request: ClientRequest = request_certificate.payload
        if self._serve_from_cache(request):
            return RetryOutcome.HANDLED
        for pending in self.pending_sends.values():
            if self._carries(pending.batch, request):
                self._send(self.downstream, pending.batch)
                self.retransmissions += 1
                return RetryOutcome.HANDLED
        self._forward_request(request_certificate, self.execution_ids, relayed)
        return RetryOutcome.NEED_ORDER

    # ------------------------------------------------------------------ #
    # Reply certificates from the execution cluster / privacy firewall.
    # ------------------------------------------------------------------ #

    def on_batch_reply(self, sender: NodeId, message: BatchReply) -> None:
        """Handle a (partial or full) reply certificate flowing back down."""
        if not self._admissible(message):
            return
        if self._answers_a_retry(message):
            self._on_retry_answer(sender, message, self.execution_ids)
            return
        full = self._assemble_into(self._collectors, sender, message.certificate,
                                   self.execution_ids, self.threshold_group,
                                   self._backups(message.body.view))
        if full is not None:
            self._accept_reply(full)

    def _accept_reply(self, certificate: Certificate) -> None:
        """A full reply certificate for its body's ``seq`` has been assembled."""
        seq = certificate.payload.seq
        self.highest_reply_seq = max(self.highest_reply_seq, seq)
        # Drop pending entries for this and all lower sequence numbers.
        for pending_seq in [s for s in self.pending_sends if s <= seq]:
            pending = self.pending_sends.pop(pending_seq)
            if pending.timer is not None:
                pending.timer.cancel()
        # Garbage collect assembly state for old sequence numbers.
        self._collectors.trim(seq - self.config.pipeline_depth)
        self._forward_replies(certificate)
        self.owner.proposer.on_pipeline_progress()
