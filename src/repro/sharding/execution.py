"""The execution replicas (Section 3.3 of the paper), one cluster per shard.

``2g + 1`` application-specific execution replicas process ordered batches in
sequence-number order.  Each node maintains:

* the application state machine (behind the nondeterminism abstraction layer),
* a pending-request list of received-but-not-executed batches,
* ``maxN``, the highest executed sequence number,
* ``reply_c``, the last reply sent to each client (exactly-once semantics),
* its most recent *stable* checkpoint (certified by ``g + 1`` nodes) plus any
  newer, not-yet-stable checkpoints.

Two retransmission mechanisms fill sequence-number gaps: the agreement
cluster re-multicasts unanswered batches, and the execution cluster's
internal protocol fetches missing batches (or a newer stable checkpoint) from
peers.

**Shards.**  The paper's deployment is one execution cluster; the sharded
one runs one cluster per shard behind the same agreement cluster, and the
paper's is its one-shard case (:class:`~repro.sharding.system.SeparatedSystem`).
A replica's peers are the ``2g + 1`` replicas of *its own shard* and its
sequence space is the shard-local one the agreement nodes' queues assign.
It converts each incoming :class:`~repro.messages.agreement.OrderedBatch`
into a :class:`~repro.sharding.messages.ShardLocalBatch` holding the subset
of requests it owns, which it asks its router's batch question
(:meth:`~repro.sharding.router.ShardRouter.route`) for *at the certified
partition-map epoch* -- so the pipeline (in-order execution, gap fetch,
checkpoints, reply cache, state transfer) runs on shard-local sequence
numbers, and a misrouted or tampered batch is rejected rather than executed.

**The certified route.**  The agreement certificate's body is a
:class:`~repro.messages.agreement.RoutedCertBody`: besides the global
sequence number and the batch digest, its ``2f + 1`` COMMIT authenticators
cover the batch's slot on each shard, the routing epoch and the ordering
log.  The replica takes its slot, the epoch and the log from that body, so
a part -- from an agreement node's queue, through the privacy firewall, or
a peer's :class:`~repro.messages.checkpoint.BatchTransfer` -- is accepted
exactly when :meth:`~repro.crypto.provider.CryptoProvider.agreed_batch`
verifies it with the replica's own slot inside the certified route.  No
single agreement node (nor ``f`` of them) can relabel a committed batch's
slot, epoch or log: the relabelled body no longer verifies.  Misroute
rejection (counted in :attr:`ExecutionNode.misroutes`) fires when the
batch's route gives this shard no slot, or when none of the batch's
requests are owned by this shard at the certified epoch.  Ownership is
judged once per body, in ``_localize``; ``_validate_batch`` checks
authenticity alone.

**Cuts.**  A map-change marker and a cross-shard marker each stop the
replica at their slot until data from other execution clusters arrives.
Their semantics live in the replica's two cut participants, built with it:
:class:`~repro.sharding.handoff.RangeHandoffs` and
:class:`~repro.sharding.crossshard.CrossShardOperations`.  A marker slot
runs its participant, in-order execution holds while one of them blocks, a
checkpoint falling on the blocked slot waits until the cut resolves (so a
cluster's checkpoint digest at any sequence number is a deterministic
function of the agreed history, never of message timing), and a state
transfer drops a cut it already carries the outcome of.

**Replies.**  A replica MACs each reply bundle once, for every node that
may check it, and keeps that whole partial certificate (``replies_by_seq``);
what it sends is cut per frame to the receiver's entry and those of the
nodes the receiver relays it to (:mod:`repro.messages.reply`).  Where
clients get their replies directly, a slot's bodiless partial goes upstream
once, to the primary of the slot's view, which relays the completed
certificate to the other agreement nodes -- so it names them all; a
retransmitted batch is answered to every agreement node, each frame naming
its receiver alone; and the answer to a retransmission an agreement node
passed on names that node and the client.  Behind the privacy firewall the
replies go up to the firewall's top row, encrypted for the client.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..config import AuthenticationScheme, SystemConfig
from ..crypto.certificate import Certificate
from ..crypto.keys import Keystore
from ..crypto.provider import CryptoProvider
from ..messages.agreement import OrderedBatch, RoutedCertBody
from ..messages.checkpoint import (
    BatchTransfer,
    ExecCheckpointProof,
    ExecCheckpointShare,
    FetchBatch,
    StateTransfer,
    checkpoint_payload,
)
from ..messages.reply import BatchReply, BatchReplyBody, ClientReply, ReplyBody
from ..messages.request import ClientRequest, EncryptedBody, RequestEnvelope
from ..multilog.messages import LogMapChange
from ..net.codec import decode_reply_table, encode_reply_table
from ..net.message import Message
from ..obs import request_trace_id
from ..sim.process import Process
from ..sim.scheduler import Scheduler
from ..statemachine.interface import StateMachine
from ..statemachine.nondet import AbstractionLayer
from ..util.ids import NodeId, Role
from ..util.seqtable import SeqTable
from .crossshard import CrossShardOperations
from .cut import ShareExchange
from .handoff import RangeHandoffs
from .messages import (
    CrossShardVote,
    CrossShardVoteFetch,
    RangeFetch,
    RangeHandoff,
    ShardLocalBatch,
)
from .router import CROSS_SHARD, LOG_MAP_CHANGE, MAP_CHANGE, BatchRoute, ShardRouter


@dataclass
class StoredCheckpoint:
    """A checkpoint (application state + reply table) awaiting or past stability.

    ``extra`` carries the replica's partition-map epoch, so a replica
    catching up by state transfer lands in the right epoch, not just the
    right application state.  It is covered by the checkpoint digest.
    """

    seq: int
    app_state: bytes
    reply_table: bytes
    digest: bytes
    extra: bytes = b""
    proof: Optional[Certificate] = None

    @property
    def stable(self) -> bool:
        return self.proof is not None


class ExecutionNode(Process):
    """One of the ``2g + 1`` execution replicas of one shard."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, state_machine: StateMachine,
                 agreement_ids: List[NodeId], execution_ids: List[NodeId],
                 client_ids: List[NodeId], upstream: List[NodeId],
                 shard: int, router: ShardRouter,
                 log_agreement_ids: List[List[NodeId]],
                 shard_execution_ids: List[List[NodeId]],
                 threshold_group: Optional[str] = None,
                 encrypt_replies: bool = False) -> None:
        super().__init__(node_id, scheduler)
        self.config = config
        self.app = state_machine
        self.abstraction = AbstractionLayer()
        self.agreement_ids = list(agreement_ids)
        self.execution_ids = list(execution_ids)  # this shard's replicas
        self.client_ids = list(client_ids)
        #: where replies go: the feeding log's agreement nodes, or the top
        #: row of the privacy firewall
        self.upstream = list(upstream)
        self.threshold_group = threshold_group
        self.encrypt_replies = encrypt_replies
        self.shard = shard
        self.router = router
        #: every execution cluster's replica ids (handoffs and votes cross)
        self.shard_execution_ids = [list(ids) for ids in shard_execution_ids]
        #: every agreement log's replica ids (a log-map cut moves the feed)
        self.log_agreement_ids = [list(ids) for ids in log_agreement_ids]
        self.crypto = CryptoProvider(node_id, keystore, config.crypto,
                                     charge=self.charge,
                                     record=self.stats.record_crypto,
                                     perf=config.perf)

        self.max_executed = 0
        #: slot -> the batch received and not executed yet, and the
        #: router's answer it was localized by
        self.pending: Dict[int, Tuple[ShardLocalBatch, BatchRoute]] = {}
        self.reply_table: Dict[NodeId, ReplyBody] = {}
        self.replies_by_seq: SeqTable[int, BatchReply] = SeqTable()
        self.recent_batches: SeqTable[int, ShardLocalBatch] = SeqTable()
        self.checkpoints = Checkpoints(self)
        self._fetching: Dict[int, bool] = {}
        #: gaps given their one fetch period (:meth:`_request_missing`)
        self._awaited: Set[int] = set()
        #: partition-map and log-map epochs (each bumps exactly at its cuts)
        self.epoch = 0
        self.log_map_epoch = 0

        # Statistics used by benchmarks and tests.
        self.requests_executed = 0
        self.batches_executed = 0
        self.duplicate_requests = 0
        self.state_transfers = 0
        self.retries_answered = 0  # forwarded retransmissions answered
        self.misroutes = 0
        self.stale_epoch_batches = 0

        # Observability (passive: never charges, never schedules).
        self._h_exec_batch = self.metrics.histogram(
            "execution.batch_size",
            bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0))
        self._c_exec_requests = self.metrics.counter("execution.requests")
        #: the cut participants
        self.cross_shard = CrossShardOperations(self)
        self.handoffs = RangeHandoffs(self)
        self.metrics.register_probe("execution.state", self._execution_probe)

    def _execution_probe(self) -> dict:
        """Snapshot of the replica's ad-hoc counters for the registry."""
        handoffs, cross = self.handoffs, self.cross_shard
        return {
            "max_executed": self.max_executed,
            "requests_executed": self.requests_executed,
            "batches_executed": self.batches_executed,
            "duplicate_requests": self.duplicate_requests,
            "state_transfers": self.state_transfers,
            "pending_batches": len(self.pending),
            "shard": self.shard,
            "epoch": self.epoch,
            "misroutes": self.misroutes,
            "stale_epoch_batches": self.stale_epoch_batches,
            "epoch_cuts_applied": handoffs.cuts_applied,
            "ranges_sent": handoffs.sent,
            "ranges_installed": handoffs.installed,
            "range_fetches": handoffs.fetches,
            "cross_shard_executed": cross.executed,
            "cross_shard_commits": cross.commits,
            "cross_shard_aborts": cross.aborts,
            "cross_shard_epoch_aborts": cross.epoch_aborts,
            "cross_shard_replies_sent": cross.replies_sent,
            "vote_fetches": cross.fetches,
            "awaiting_ranges": len(handoffs.awaiting),
        }

    # ------------------------------------------------------------------ #
    # Message dispatch.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, OrderedBatch):
            self.handle_ordered_batch(message)
        elif isinstance(message, BatchTransfer):
            if sender in self.execution_ids:
                batch = message.batch
                if isinstance(batch, ShardLocalBatch):
                    # a peer's own filtering is discarded: the batch is
                    # localized afresh from the whole batch it carries
                    batch = batch.to_ordered_batch()
                if isinstance(batch, OrderedBatch):
                    self.handle_ordered_batch(batch)
        elif isinstance(message, FetchBatch):
            self.handle_fetch(sender, message)
        elif isinstance(message, ExecCheckpointShare):
            self.checkpoints.on_share(sender, message)
        elif isinstance(message, StateTransfer):
            self.handle_state_transfer(sender, message)
        elif isinstance(message, RequestEnvelope):
            self.handle_forwarded_request(sender, message)
        elif isinstance(message, RangeHandoff):
            if message.target_shard != self.shard:
                self.misroutes += 1
            elif self.handoffs.receive(sender, message):
                self._advance_cut()
        elif isinstance(message, RangeFetch):
            self.handoffs.serve(sender, message)
        elif isinstance(message, CrossShardVote):
            if self.cross_shard.receive(sender, message):
                self._advance_cut()
        elif isinstance(message, CrossShardVoteFetch):
            self.cross_shard.serve(sender, message)

    # ------------------------------------------------------------------ #
    # Ordered batches: ownership once, in _localize; authenticity, the
    # certified slot included, at acceptance.
    # ------------------------------------------------------------------ #

    def handle_ordered_batch(self, batch: OrderedBatch) -> None:
        """An agreement node's batch, or a peer's transferred one, enters
        the pipeline at this shard's certified slot."""
        localized = self._localize(batch)
        if localized is None:
            self.misroutes += 1
            return
        local, route = localized
        seq = local.seq
        if seq <= self.max_executed:
            # Retransmission from the agreement cluster: resend the partial
            # reply certificate, which is guaranteed to carry a sequence
            # number at least as large as the request's.
            self._resend_replies(local, route)
            return
        if seq in self.pending:
            return
        if not self._validate_batch(local):
            return
        self.pending[seq] = localized
        self.recent_batches[seq] = local
        self.recent_batches.trim(
            self.max_executed - 2 * self.config.checkpoint_interval)
        self.cross_shard.trim()
        if self._awaited:
            self._awaited = {n for n in self._awaited if n > self.max_executed}
        self._process_pending()
        if self.max_executed + 1 < seq and (self.max_executed + 1) not in self.pending:
            self._request_missing(self.max_executed + 1)

    def _localize(self, batch: OrderedBatch
                  ) -> Optional[Tuple[ShardLocalBatch, BatchRoute]]:
        """Build this shard's view of ``batch`` at the slot, epoch and log
        its certificate's route names, with the router's answer it is cut
        by (None if it names no slot here, or nothing is owned).

        The router's answer at the certified epoch says what the batch
        owns here: a config marker owns no client requests (the cut
        semantics execute at its shard-local slot), a cross-shard marker
        travels whole to each touched cluster (each re-derives its owned
        key subset at execution), and an ordinary batch owns the requests
        the router maps here.  A batch owning nothing -- a marker addressed
        to a cluster none of its keys live on -- is a misroute.
        """
        body = batch.cert_body
        if not isinstance(body, RoutedCertBody):
            return None
        slot = dict(body.route).get(self.shard)
        if slot is None:
            return None
        route = self.router.route(batch.request_certificates, body.epoch)
        owned = route.owned(self.shard)
        if not owned and route.change is None:
            return None
        return ShardLocalBatch(
            shard=self.shard, seq=slot, global_seq=batch.seq,
            view=batch.view, request_certificates=owned,
            full_request_certificates=batch.request_certificates,
            agreement_certificate=batch.agreement_certificate,
            nondet=batch.nondet, epoch=body.epoch, log=body.log), route

    def _validate_batch(self, batch: ShardLocalBatch) -> bool:
        """The agreement certificate covers the *global* sequence number,
        the full batch's digest and the route, which must give this shard
        the local batch's slot.  Client authenticators are verified for the
        owned requests only unless ``perf.shard_verify_owned_only`` is off:
        ``f + 1`` correct agreement replicas validated every request before
        committing it, and re-verifying requests another shard executes
        adds no safety for this shard's own state."""
        certificates = batch.full_request_certificates
        if not self.crypto.agreed_batch(batch.agreement_certificate, batch.global_seq,
                                        batch.view, certificates,
                                        self.config.agreement_quorum, self.agreement_ids,
                                        slot=(self.shard, batch.seq)):
            return False
        if not batch.request_certificates:
            return True
        verified = (batch.request_certificates
                    if self.config.perf.shard_verify_owned_only
                    else certificates)
        clients = self.client_ids
        return (all(self.crypto.client_request(cert, clients) is not None
                    for cert in certificates)
                and all(self.crypto.authentic_request(cert, clients) is not None
                        for cert in verified))

    def _resend_replies(self, batch: ShardLocalBatch, route: BatchRoute) -> None:
        """Answer a retransmitted batch to every upstream node, each its
        own frame: a queue retransmits because its reply did not come, so
        the primary's relay is not waited for (a backup whose primary
        crashed, stalls or withholds relays retires its sends here).  A
        cross-shard marker's client is waiting for its fragment, not the
        (empty) marker-slot bundle: that is re-sent too."""
        cached = self.replies_by_seq.get(batch.seq)
        if cached is not None:
            self._resend_upstream(cached)
        else:
            # The batch-level reply was garbage collected; answer per client
            # from the reply table (each answer is a fresh partial
            # certificate over the client's most recent reply, as in
            # Section 3.3).
            seen: set = set()
            for certificate in batch.request_certificates:
                request = certificate.payload
                if not isinstance(request, ClientRequest) or request.client in seen:
                    continue
                seen.add(request.client)
                last = self.reply_table.get(request.client)
                if last is None:
                    continue
                self._resend_upstream(self._send_reply(
                    self._make_reply_body(last.view, last.seq, (last,))))
        if route.kind == CROSS_SHARD:
            self.cross_shard.resend(route.marker.client, route.marker.timestamp)

    def _process_pending(self) -> None:
        while (self.max_executed + 1) in self.pending:
            if self._blocked() is not None:
                # Execution past an epoch cut waits for the cut's inbound
                # ranges, and past a cross-shard transaction marker for the
                # peer shards' votes: the next batch may read keys whose
                # state is still in flight, or that the blocked transaction
                # is about to write.  The cut re-enters this loop.
                return
            self._execute_batch(*self.pending.pop(self.max_executed + 1))
        # A catch-up step (batch or state transfer) may land below the
        # oldest pending batch; keep pulling the next missing sequence number
        # so recovery is self-driving rather than waiting for new traffic to
        # re-trigger the gap check.
        if self.pending and (self.max_executed + 1) < min(self.pending):
            self._request_missing(self.max_executed + 1)

    def _request_missing(self, seq: int) -> None:
        """Ask the peers for a missing batch, after giving the gap one fetch
        period: a link may deliver the batch that fills it after the one
        that revealed it (only the simulator's links reorder), and a peer's
        copy would then arrive only to be answered again."""
        if self._fetching.get(seq):
            return
        self._fetching[seq] = True
        if seq in self._awaited:
            self.multicast([n for n in self.execution_ids if n != self.node_id],
                           FetchBatch(seq=seq, replica=self.node_id))
            label = f"{self.node_id}:fetch:{seq}"
        else:
            self._awaited.add(seq)
            label = f"{self.node_id}:await:{seq}"
        self.set_timer(self.config.timers.execution_fetch_ms,
                       lambda: self._retry_missing(seq), label=label)

    def _retry_missing(self, seq: int) -> None:
        self._fetching.pop(seq, None)
        if seq <= self.max_executed or seq in self.pending:
            return
        self._request_missing(seq)

    # ------------------------------------------------------------------ #
    # Execution: marker slots run their cut participant.
    # ------------------------------------------------------------------ #

    def _blocked(self) -> Optional[ShareExchange]:
        """The participant this replica is blocked at a cut on, if any (a
        blocked replica reaches no further marker, so at most one is)."""
        for participant in (self.handoffs, self.cross_shard):
            if participant.cut is not None:
                return participant
        return None

    def _execute_batch(self, batch: ShardLocalBatch, route: BatchRoute) -> None:
        if route.kind == MAP_CHANGE:
            self.handoffs.execute(route.change)
        if route.change is not None:
            # The slot bookkeeping runs *before* a log-map cut: the reply
            # must travel under the membership that ordered the marker,
            # because the cut may repoint this cluster's upstream at a
            # different agreement log.
            self.finish_marker_slot(batch)
            if route.kind == LOG_MAP_CHANGE:
                self._follow_log_map_change(route.change)
            return
        if batch.epoch != self.epoch:
            # Defence in depth: a certified epoch always matches the
            # in-stream epoch (markers and batches share one ordered
            # feed), so a mismatch here means the certificate was forged
            # somehow -- drop it and re-fetch the truth rather than
            # execute under the wrong map.
            self.misroutes += 1
            self.stale_epoch_batches += 1
            self._request_missing(batch.seq)
            return
        if route.kind == CROSS_SHARD:
            self.cross_shard.execute(batch, route.shards)
            return
        self.abstraction.bind(batch.nondet)
        replies: List[ReplyBody] = []
        for certificate in batch.request_certificates:
            request: ClientRequest = certificate.payload
            replies.append(self._execute_request(batch, request))
        self._h_exec_batch.observe(len(batch.request_certificates))
        self._finish_slot(batch.view, batch.seq, replies)

    def _follow_log_map_change(self, change: LogMapChange) -> None:
        """A log-map cut reached this replica's slot (every cluster meets
        it at one deterministic slot of its ordered feed): the moved
        shard's replicas take their feed from the target log from here on.
        A stale or duplicate cut is a deterministic no-op."""
        if change.parent_log_epoch != self.log_map_epoch:
            return
        self.log_map_epoch += 1
        if change.shard == self.shard:
            owner_ids = list(self.log_agreement_ids[change.target_log])
            self.agreement_ids = owner_ids
            self.upstream = owner_ids

    def finish_marker_slot(self, local: ShardLocalBatch) -> None:
        """Everything a marker does at its slot besides its own semantics,
        in one fixed order: the slot is answered with an empty reply bundle
        (the pipeline settles like for any batch; a cross-shard client's
        answer travels on the sub-reply path); a checkpoint falling on it
        is taken, or deferred while the marker's cut is blocked; then the
        cut gets the chance to resolve at once from shares that arrived
        early.
        """
        self._finish_slot(local.view, local.seq, ())
        self._advance_cut()

    def _finish_slot(self, view: int, seq: int, replies) -> None:
        """Advance to ``seq``, send (and cache) its reply bundle, and take
        the checkpoint if one falls on it."""
        self.max_executed = seq
        self.batches_executed += 1
        message = self._send_reply(self._make_reply_body(view, seq, replies))
        self.replies_by_seq[seq] = message
        self._send_upstream(message)
        self.replies_by_seq.trim(
            self.max_executed - 2 * self.config.pipeline_depth)
        if seq % self.config.checkpoint_interval == 0:
            self._take_checkpoint(seq)

    def _advance_cut(self) -> None:
        """Consume certified shares; once the cut resolves, take the
        checkpoint it deferred and resume in-order execution."""
        blocked = self._blocked()
        if blocked is None:
            return
        deferred = blocked.cut.checkpoint
        if not blocked.advance():
            return
        if deferred is not None:
            self._take_checkpoint(deferred)
        self._process_pending()

    def _execute_request(self, batch: ShardLocalBatch,
                         request: ClientRequest) -> ReplyBody:
        last = self.reply_table.get(request.client)
        last_timestamp = last.timestamp if last is not None else -1
        if request.timestamp > last_timestamp:
            operation = request.operation_for(Role.EXECUTION)
            result = self.app.execute(operation, batch.nondet)
            self.charge(self.config.app_processing_ms + result.processing_ms)
            self.requests_executed += 1
            self._c_exec_requests.inc()
            if self.tracing:
                self.trace_event(
                    request_trace_id(request.client, request.timestamp), "execute")
            if self.encrypt_replies:
                result = EncryptedBody(result, size=max(result.size, 64), readers=frozenset(
                    {Role.CLIENT, Role.EXECUTION}))
            reply = ReplyBody(view=batch.view, seq=batch.seq,
                              timestamp=request.timestamp, client=request.client,
                              result=result)
            self.reply_table[request.client] = reply
            return reply
        # Client-initiated retransmission (t <= t'): acknowledge the new
        # sequence number but reply with the cached timestamp and body.
        self.duplicate_requests += 1
        assert last is not None
        return ReplyBody(view=batch.view, seq=batch.seq,
                         timestamp=last.timestamp, client=request.client,
                         result=last.result)

    # ------------------------------------------------------------------ #
    # Replies.
    # ------------------------------------------------------------------ #

    def _make_reply_body(self, view: int, seq: int,
                    replies: Tuple[ReplyBody, ...]) -> BatchReplyBody:
        """The certified reply body, stamped with the shard and its epoch."""
        return BatchReplyBody(view=view, seq=seq, replies=tuple(replies),
                              shard=self.shard, epoch=self.epoch)

    def _partial_certificate(self, body: BatchReplyBody) -> Certificate:
        """This node's partial reply certificate over ``body``.  A MAC goes
        to each node that may verify the bundle: the agreement nodes and
        the clients it answers, not every client there is."""
        scheme = self.config.authentication
        return self.crypto.new_certificate(
            body, scheme, self.agreement_ids + [reply.client for reply in body.replies],
            self.threshold_group if scheme is AuthenticationScheme.THRESHOLD else None)

    def _carries_replies(self, seq: int) -> bool:
        """Whether this replica answers ``seq``'s clients with their
        replies: ``g + 1`` of the ``2g + 1`` do, the others send the
        bodiless view (digest replies), rotating with ``seq``.  At most
        ``g`` replicas are faulty, so one carried reply at least is
        correct, and a client completes without asking again."""
        index = self.execution_ids.index(self.node_id)
        return (index - seq) % len(self.execution_ids) >= self.config.g

    def _send_reply(self, body: BatchReplyBody) -> BatchReply:
        """Build this node's partial reply certificate, send the clients
        theirs, and return what goes upstream.

        Where clients get their replies directly, each client gets its own
        view of the bundle, or the bodiless form (:meth:`_carries_replies`),
        under a vector naming it alone, and upstream goes the bodiless
        form: a quorum of matching digests retires the slot.  Otherwise
        upstream goes the whole bundle, to relay.  The vector of what is
        returned is whole: it is kept for resends.
        """
        certificate = self._partial_certificate(body)
        if self.config.direct_replies and body.replies:
            bodiless = certificate.with_payload(body.view_for(None))
            carries = self._carries_replies(body.seq)
            for client in dict.fromkeys(reply.client for reply in body.replies):
                self.send(client, ClientReply.for_client(certificate, client)
                          if carries else ClientReply(bodiless.addressed_to((client,))))
            certificate = bodiless
        return BatchReply(seq=body.seq, certificate=certificate,
                          sender=self.node_id)

    def _send_upstream(self, message: BatchReply) -> None:
        """Send a slot's reply upstream the first time.  Where clients get
        their replies directly, it goes to the primary of the slot's view
        alone, its vector naming every upstream node: the primary's queue
        completes the certificate and relays it to the others, each in a
        frame cut to it.  Otherwise every upstream node gets the one
        object, which the firewall or the agreement nodes relay on."""
        if self.config.direct_replies:
            upstream = self.upstream
            self.send(upstream[message.body.view % len(upstream)], BatchReply(
                seq=message.seq, sender=self.node_id,
                certificate=message.certificate.addressed_to(upstream)))
        else:
            self.multicast(self.upstream, message)

    def _resend_upstream(self, message: BatchReply) -> None:
        """Send ``message`` again to every upstream node: where clients
        get their replies directly, each its own frame naming it alone,
        the body shared; otherwise the one object."""
        if not self.config.direct_replies:
            self.multicast(self.upstream, message)
            return
        for node, frame in zip(self.upstream, message.addressed_to_each(self.upstream)):
            self.send(node, frame)

    def handle_forwarded_request(self, sender: NodeId,
                                 envelope: RequestEnvelope) -> None:
        """An agreement node passes on a client retransmission it can
        answer neither from its cache nor from a pending send.  If the
        reply table holds this request's reply (or a later one), answer
        that node with a complete partial certificate over it, which its
        queue relays to the client once ``g + 1`` match -- so its MAC
        vector names that node and the client; otherwise ignore the
        message."""
        certificate = envelope.certificate
        request = self.crypto.client_request(certificate, self.client_ids)
        if sender not in self.agreement_ids or request is None:
            return
        last = self.reply_table.get(request.client)
        if last is None or last.timestamp < request.timestamp:
            return
        if self.crypto.authentic_request(certificate, self.client_ids) is None:
            return
        body = self._make_reply_body(last.view, last.seq, (last,))
        certificate = self._partial_certificate(body).addressed_to(
            (sender, request.client))
        self.send(sender, BatchReply(seq=body.seq, sender=self.node_id,
                                     certificate=certificate))
        self.retries_answered += 1

    # ------------------------------------------------------------------ #
    # Checkpoints and state transfer.  A checkpoint carries the epoch:
    # state transfer must land in the right map, not just the right
    # application state.
    # ------------------------------------------------------------------ #

    def _take_checkpoint(self, seq: int) -> None:
        """Checkpoint the state after ``seq``.  A checkpoint on a blocked
        cut's slot waits for the cut to resolve: it covers the state
        *after* the cut, so its digest is a pure function of the agreed
        history, never of message timing."""
        blocked = self._blocked()
        if blocked is not None:
            blocked.cut.checkpoint = seq
            return
        self.checkpoints.take(seq, self.app.checkpoint(),
                              encode_reply_table(self.reply_table),
                              json.dumps({"epoch": self.epoch}, sort_keys=True).encode())

    def handle_fetch(self, sender: NodeId, message: FetchBatch) -> None:
        if sender not in self.execution_ids:
            return
        stable = self.checkpoints.stable
        if stable is not None and stable.seq >= message.seq:
            self.send(sender, self.checkpoints.transfer())
            return
        batch = self.recent_batches.get(message.seq)  # holds every pending one
        if batch is not None:
            self.send(sender, BatchTransfer(batch=batch, replica=self.node_id))

    def handle_state_transfer(self, sender: NodeId, message: StateTransfer) -> None:
        if sender not in self.execution_ids or message.seq <= self.max_executed:
            return
        checkpoint = self.checkpoints.verified(message)
        if checkpoint is None:
            return
        # Restore: application state, reply table, sequence number, epoch.
        self.app.restore(message.app_state)
        self.reply_table = {reply.client: reply
                            for reply in decode_reply_table(message.reply_table)}
        self.max_executed = message.seq
        if message.extra:
            self.epoch = int(json.loads(message.extra.decode())["epoch"])
            # A checkpoint is never taken while a cut is blocked (cuts defer
            # it), so the restored state carries the outcome of whatever cut
            # this replica was blocked at -- every range of its epoch
            # installed, the transaction decided and its exactly-once
            # fragment in the restored reply table -- and the buffered
            # shares for it are dead weight (a future cut's shares are
            # re-fetchable if dropped here).
            blocked = self._blocked()
            if blocked is not None:
                blocked.unblock()
            self.handoffs.prune_past()
        self.pending = {seq: b for seq, b in self.pending.items() if seq > message.seq}
        self.checkpoints.taken[message.seq] = self.checkpoints.stable = checkpoint
        self.state_transfers += 1
        self._process_pending()


class Checkpoints:
    """One execution replica's checkpoints (Section 3.3.2 of the paper).

    Every ``checkpoint_interval`` slots the replica digests its application
    state, reply table and epoch, and MACs the digest to its cluster peers;
    ``g + 1`` matching shares make the checkpoint stable, which discards
    every older checkpoint, vote and batch.  The stable checkpoint is what
    the replica sends a peer asking for a batch below it (a state
    transfer), and what it takes from one once the proof checks out.
    """

    def __init__(self, node: ExecutionNode) -> None:
        self.node = node
        #: checkpoints taken (or installed) and not garbage collected yet
        self.taken: Dict[int, StoredCheckpoint] = {}
        self.stable: Optional[StoredCheckpoint] = None
        self._votes: Dict[int, Dict[NodeId, ExecCheckpointShare]] = {}

    def take(self, seq: int, app_state: bytes, reply_table: bytes,
             extra: bytes) -> None:
        """Record the checkpoint at ``seq`` and share its digest."""
        node = self.node
        digest = node.crypto.digest(
            app_state + reply_table + extra,
            size_hint=len(app_state) + len(reply_table) + len(extra))
        self.taken[seq] = StoredCheckpoint(seq=seq, app_state=app_state,
                                           reply_table=reply_table, digest=digest,
                                           extra=extra)
        authenticator = node.crypto.mac_authenticator(
            checkpoint_payload(seq, digest), node.execution_ids)
        share = ExecCheckpointShare(seq=seq, state_digest=digest,
                                    replica=node.node_id, authenticator=authenticator)
        self._votes.setdefault(seq, {})[node.node_id] = share
        node.multicast([n for n in node.execution_ids if n != node.node_id], share)
        self._try_stabilize(seq)

    def on_share(self, sender: NodeId, share: ExecCheckpointShare) -> None:
        if sender != share.replica or sender not in self.node.execution_ids:
            return
        self._votes.setdefault(share.seq, {})[sender] = share
        self._try_stabilize(share.seq)

    def _try_stabilize(self, seq: int) -> None:
        checkpoint = self.taken.get(seq)
        if checkpoint is None or checkpoint.stable:
            return
        matching = [share for share in self._votes.get(seq, {}).values()
                    if share.state_digest == checkpoint.digest
                    and share.authenticator is not None
                    and share.authenticator.scheme is AuthenticationScheme.MAC]
        if len(matching) < self.node.config.checkpoint_quorum:
            return
        checkpoint.proof = Certificate(
            payload=checkpoint_payload(seq, checkpoint.digest),
            scheme=AuthenticationScheme.MAC,
            authenticators={share.authenticator.signer: share.authenticator
                            for share in matching})
        self.stable = checkpoint
        # Garbage collection: everything older than the stable checkpoint.
        self.taken = {n: kept for n, kept in self.taken.items() if n >= seq}
        self._votes = {n: votes for n, votes in self._votes.items() if n >= seq}
        node = self.node
        node.pending = {n: entry for n, entry in node.pending.items() if n > seq}
        node.recent_batches.trim(seq)

    def transfer(self) -> StateTransfer:
        """The stable checkpoint, with its proof, for a lagging peer."""
        stable = self.stable
        return StateTransfer(seq=stable.seq, app_state=stable.app_state,
                             reply_table=stable.reply_table,
                             proof=ExecCheckpointProof(seq=stable.seq,
                                                       state_digest=stable.digest,
                                                       certificate=stable.proof),
                             replica=self.node.node_id, extra=stable.extra)

    def verified(self, message: StateTransfer) -> Optional[StoredCheckpoint]:
        """The stable checkpoint a peer's state transfer carries, if its
        state matches the digest ``g + 1`` cluster replicas vouch for."""
        node = self.node
        digest = node.crypto.digest(
            message.app_state + message.reply_table + message.extra,
            size_hint=(len(message.app_state) + len(message.reply_table)
                       + len(message.extra)))
        proof = message.proof
        if (proof.state_digest != digest or proof.seq != message.seq
                or proof.certificate is None
                or proof.certificate.payload != checkpoint_payload(message.seq, digest)):
            return None
        valid = node.crypto.valid_signers(proof.certificate, node.execution_ids)
        if len(valid) < node.config.checkpoint_quorum:
            return None
        return StoredCheckpoint(seq=message.seq, app_state=message.app_state,
                                reply_table=message.reply_table, digest=digest,
                                extra=message.extra, proof=proof.certificate)


#: ``ShardExecutionNode`` is the one execution replica under its old name,
#: kept only because the frozen performance ledger
#: (benchmarks/ledger/spans.py) resolves this module and name.
ShardExecutionNode = ExecutionNode
