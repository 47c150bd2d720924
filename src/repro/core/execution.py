"""The execution cluster (Section 3.3 of the paper).

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

A replica MACs each reply bundle once, for every node that may check it,
and keeps that whole partial certificate (``replies_by_seq``); what it
sends is cut per frame to the receiver's entry -- and, in the answer to a
retransmission an agreement node passed on, the client's, since that node
relays it (:mod:`repro.messages.reply`).  The request certificates of the
batches it receives name only the nodes downstream of agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import AuthenticationScheme, SystemConfig
from ..crypto.certificate import Certificate
from ..crypto.keys import Keystore
from ..crypto.provider import CryptoProvider
from ..messages.agreement import OrderedBatch
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
from ..net.codec import decode_reply_table, encode_reply_table
from ..net.message import Message
from ..obs import request_trace_id
from ..sim.process import Process
from ..sim.scheduler import Scheduler
from ..statemachine.interface import OperationResult, StateMachine
from ..statemachine.nondet import AbstractionLayer
from ..util.ids import NodeId, Role
from ..util.seqtable import SeqTable


@dataclass
class StoredCheckpoint:
    """A checkpoint (application state + reply table) awaiting or past stability.

    ``extra`` carries subsystem state beyond the application -- the sharded
    execution nodes store their partition-map epoch there, so a replica
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
    """One of the ``2g + 1`` execution replicas."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, state_machine: StateMachine,
                 agreement_ids: List[NodeId], execution_ids: List[NodeId],
                 client_ids: List[NodeId], upstream: List[NodeId],
                 threshold_group: Optional[str] = None,
                 encrypt_replies: bool = False) -> None:
        super().__init__(node_id, scheduler)
        self.config = config
        self.app = state_machine
        self.abstraction = AbstractionLayer()
        self.agreement_ids = list(agreement_ids)
        self.execution_ids = list(execution_ids)
        self.client_ids = list(client_ids)
        #: where reply certificates are sent: the agreement nodes, or the top
        #: row of the privacy firewall.
        self.upstream = list(upstream)
        self.threshold_group = threshold_group
        self.encrypt_replies = encrypt_replies
        self.crypto = CryptoProvider(node_id, keystore, config.crypto,
                                     charge=self.charge,
                                     record=self.stats.record_crypto,
                                     perf=config.perf)

        self.max_executed = 0
        self.pending: Dict[int, OrderedBatch] = {}
        self.reply_table: Dict[NodeId, ReplyBody] = {}
        self.replies_by_seq: SeqTable[int, BatchReply] = SeqTable()
        self.recent_batches: SeqTable[int, OrderedBatch] = SeqTable()
        self.checkpoints: Dict[int, StoredCheckpoint] = {}
        self.stable_checkpoint: Optional[StoredCheckpoint] = None
        self._checkpoint_votes: Dict[int, Dict[NodeId, ExecCheckpointShare]] = {}
        self._fetching: Dict[int, bool] = {}

        # Statistics used by benchmarks and tests.
        self.requests_executed = 0
        self.batches_executed = 0
        self.duplicate_requests = 0
        self.state_transfers = 0
        #: forwarded client retransmissions answered from the reply table
        self.retries_answered = 0

        # Observability (passive: never charges, never schedules).
        self._h_exec_batch = self.metrics.histogram(
            "execution.batch_size",
            bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0))
        self._c_exec_requests = self.metrics.counter("execution.requests")
        self.metrics.register_probe("execution.state", self._execution_probe)

    def _execution_probe(self) -> dict:
        """Snapshot of the replica's ad-hoc counters for the registry."""
        return {
            "max_executed": self.max_executed,
            "requests_executed": self.requests_executed,
            "batches_executed": self.batches_executed,
            "duplicate_requests": self.duplicate_requests,
            "state_transfers": self.state_transfers,
            "pending_batches": len(self.pending),
        }

    # ------------------------------------------------------------------ #
    # Message dispatch.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, OrderedBatch):
            self.handle_ordered_batch(message)
        elif isinstance(message, BatchTransfer):
            if sender in self.execution_ids:
                self.handle_ordered_batch(message.batch)
        elif isinstance(message, FetchBatch):
            self.handle_fetch(sender, message)
        elif isinstance(message, ExecCheckpointShare):
            self.handle_checkpoint_share(sender, message)
        elif isinstance(message, StateTransfer):
            self.handle_state_transfer(sender, message)
        elif isinstance(message, RequestEnvelope):
            self.handle_forwarded_request(sender, message)

    # ------------------------------------------------------------------ #
    # Ordered batches.
    # ------------------------------------------------------------------ #

    def handle_ordered_batch(self, batch: OrderedBatch) -> None:
        seq = batch.seq
        if seq <= self.max_executed:
            # Retransmission from the agreement cluster: resend the partial
            # reply certificate, which is guaranteed to carry a sequence
            # number at least as large as the request's.
            self._resend_replies(batch)
            return
        if seq in self.pending:
            return
        if not self._validate_batch(batch):
            return
        self.pending[seq] = batch
        self.recent_batches[seq] = batch
        self._trim_recent()
        self._process_pending()
        if self.max_executed + 1 < seq and (self.max_executed + 1) not in self.pending:
            self._request_missing(self.max_executed + 1)

    def _validate_batch(self, batch: OrderedBatch) -> bool:
        requests = batch.request_certificates
        return (self.crypto.agreed_batch(batch.agreement_certificate, batch.seq,
                                         batch.view, requests,
                                         self.config.agreement_quorum, self.agreement_ids)
                and self._requests_valid(requests, requests))

    def _requests_valid(self, certificates: Tuple[Certificate, ...],
                        verified: Tuple[Certificate, ...]) -> bool:
        """Whether every certificate carries a known client's request, and
        the client authenticators of ``verified`` (a subset) check out."""
        clients = self.client_ids
        return (all(self.crypto.client_request(cert, clients) is not None
                    for cert in certificates)
                and all(self.crypto.authentic_request(cert, clients) is not None
                        for cert in verified))

    def _resend_replies(self, batch: OrderedBatch) -> None:
        cached = self.replies_by_seq.get(batch.seq)
        if cached is not None:
            self._send_upstream(cached)
            return
        # The batch-level reply was garbage collected; answer per client from
        # the reply table (each answer is a fresh partial certificate over the
        # client's most recent reply, as in Section 3.3).
        seen: set = set()
        for certificate in batch.request_certificates:
            request = certificate.payload
            if not isinstance(request, ClientRequest) or request.client in seen:
                continue
            seen.add(request.client)
            last = self.reply_table.get(request.client)
            if last is None:
                continue
            self._send_reply(self._make_reply_body(last.view, last.seq, (last,)))

    def _process_pending(self) -> None:
        while (self.max_executed + 1) in self.pending:
            batch = self.pending[self.max_executed + 1]
            if not self._ready_to_execute(batch):
                # Execution is gated on something other than ordering (e.g.
                # a sharded node awaiting a range handoff at an epoch cut);
                # whoever clears the gate re-enters this loop.
                return
            del self.pending[self.max_executed + 1]
            self._execute_batch(batch)
        # A catch-up step (batch or state transfer) may land below the
        # oldest pending batch; keep pulling the next missing sequence number
        # so recovery is self-driving rather than waiting for new traffic to
        # re-trigger the gap check.
        if self.pending and (self.max_executed + 1) < min(self.pending):
            self._request_missing(self.max_executed + 1)

    def _ready_to_execute(self, batch: OrderedBatch) -> bool:
        """Whether the next in-order batch may execute now (hook for
        subclasses that must gate execution on external state, like the
        sharded nodes' range handoff at an epoch cut)."""
        return True

    def _request_missing(self, seq: int) -> None:
        if self._fetching.get(seq):
            return
        self._fetching[seq] = True
        self.multicast(self._fetch_targets(seq),
                       FetchBatch(seq=seq, replica=self.node_id))
        self.set_timer(self.config.timers.execution_fetch_ms,
                       lambda seq=seq: self._retry_missing(seq),
                       label=f"{self.node_id}:fetch:{seq}")

    def _fetch_targets(self, seq: int) -> List[NodeId]:
        """Who is asked for a missing batch: the cluster's peers."""
        return [n for n in self.execution_ids if n != self.node_id]

    def _retry_missing(self, seq: int) -> None:
        self._fetching.pop(seq, None)
        if seq <= self.max_executed or seq in self.pending:
            return
        self._request_missing(seq)

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #

    def _execute_batch(self, batch: OrderedBatch) -> None:
        self.abstraction.bind(batch.nondet)
        replies: List[ReplyBody] = []
        for certificate in batch.request_certificates:
            request: ClientRequest = certificate.payload
            replies.append(self._execute_request(batch, request))
        self._h_exec_batch.observe(len(batch.request_certificates))
        self._finish_slot(batch.view, batch.seq, replies)

    def _finish_slot(self, view: int, seq: int, replies) -> None:
        """Advance to ``seq``, send (and cache) its reply bundle, and take
        the checkpoint if one falls on it."""
        self.max_executed = seq
        self.batches_executed += 1
        body = self._make_reply_body(view, seq, replies)
        self.replies_by_seq[seq] = self._send_reply(body)
        self._trim_reply_cache()
        if seq % self.config.checkpoint_interval == 0:
            self._take_checkpoint(seq)

    def _execute_request(self, batch: OrderedBatch, request: ClientRequest) -> ReplyBody:
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
            reply = ReplyBody(view=batch.view, seq=batch.seq,
                              timestamp=request.timestamp, client=request.client,
                              result=self._wrap_result(result))
            self.reply_table[request.client] = reply
            return reply
        # Client-initiated retransmission (t <= t'): acknowledge the new
        # sequence number but reply with the cached timestamp and body.
        self.duplicate_requests += 1
        assert last is not None
        return ReplyBody(view=batch.view, seq=batch.seq,
                         timestamp=last.timestamp, client=request.client,
                         result=last.result)

    def _make_reply_body(self, view: int, seq: int,
                         replies: Tuple[ReplyBody, ...]) -> BatchReplyBody:
        """Build the certified reply body (sharded nodes stamp their shard id)."""
        return BatchReplyBody(view=view, seq=seq, replies=tuple(replies))

    def _wrap_result(self, result: OperationResult):
        if not self.encrypt_replies:
            return result
        return EncryptedBody(result, readers=frozenset({Role.CLIENT, Role.EXECUTION}),
                             size=max(result.size, 64))

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
        """Build this node's partial reply certificate and send it.

        Where clients get their replies directly, every upstream node gets
        the bodiless form -- a quorum of matching digests retires the slot
        -- and each client its own view of the bundle, or the bodiless form
        too (:meth:`_carries_replies`); every frame's MAC vector names its
        receiver alone.  Otherwise every upstream node gets the whole
        bundle to relay.  Returns what went upstream with the whole vector,
        kept for resends.
        """
        certificate = self._partial_certificate(body)
        if self.config.direct_replies and body.replies:
            bodiless = certificate.with_payload(body.view_for(None))
            carries = self._carries_replies(body.seq)
            for client in dict.fromkeys(reply.client for reply in body.replies):
                self.send(client, ClientReply.for_client(certificate, client)
                          if carries else ClientReply(bodiless.addressed_to((client,))))
            certificate = bodiless
        message = BatchReply(seq=body.seq, certificate=certificate,
                             sender=self.node_id)
        self._send_upstream(message)
        return message

    def _send_upstream(self, message: BatchReply) -> None:
        """Send ``message`` to every upstream node: where clients get their
        replies directly, each its own frame naming it alone (an agreement
        node relays no bodiless certificate), the body shared; otherwise
        the one object, which the firewall or the agreement nodes relay."""
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

    def _trim_reply_cache(self) -> None:
        self.replies_by_seq.trim(
            self.max_executed - 2 * self.config.pipeline_depth)

    def _trim_recent(self) -> None:
        self.recent_batches.trim(
            self.max_executed - 2 * self.config.checkpoint_interval)

    # ------------------------------------------------------------------ #
    # Checkpoints and proof of stability.
    # ------------------------------------------------------------------ #

    def _checkpoint_extra(self) -> bytes:
        """Subsystem state folded into checkpoints beyond the application
        (the sharded nodes serialize their partition-map epoch here)."""
        return b""

    def _restore_extra(self, extra: bytes) -> None:
        """Reinstall :meth:`_checkpoint_extra` state after a state transfer."""
        return None

    def _take_checkpoint(self, seq: int) -> None:
        app_state = self.app.checkpoint()
        reply_table = encode_reply_table(self.reply_table)
        extra = self._checkpoint_extra()
        digest = self.crypto.digest(
            app_state + reply_table + extra,
            size_hint=len(app_state) + len(reply_table) + len(extra))
        checkpoint = StoredCheckpoint(seq=seq, app_state=app_state,
                                      reply_table=reply_table, digest=digest,
                                      extra=extra)
        self.checkpoints[seq] = checkpoint
        authenticator = self.crypto.mac_authenticator(
            checkpoint_payload(seq, digest), self.execution_ids)
        share = ExecCheckpointShare(seq=seq, state_digest=digest,
                                    replica=self.node_id, authenticator=authenticator)
        self._record_checkpoint_vote(self.node_id, share)
        self.multicast([n for n in self.execution_ids if n != self.node_id], share)
        self._try_stabilize(seq)

    def handle_checkpoint_share(self, sender: NodeId, share: ExecCheckpointShare) -> None:
        if sender != share.replica or sender not in self.execution_ids:
            return
        self._record_checkpoint_vote(sender, share)
        self._try_stabilize(share.seq)

    def _record_checkpoint_vote(self, sender: NodeId, share: ExecCheckpointShare) -> None:
        self._checkpoint_votes.setdefault(share.seq, {})[sender] = share

    def _try_stabilize(self, seq: int) -> None:
        checkpoint = self.checkpoints.get(seq)
        if checkpoint is None or checkpoint.stable:
            return
        votes = self._checkpoint_votes.get(seq, {})
        matching = [share for share in votes.values()
                    if share.state_digest == checkpoint.digest
                    and share.authenticator is not None
                    and share.authenticator.scheme is AuthenticationScheme.MAC]
        if len(matching) < self.config.checkpoint_quorum:
            return
        proof = Certificate(payload=checkpoint_payload(seq, checkpoint.digest),
                            scheme=AuthenticationScheme.MAC,
                            authenticators={share.authenticator.signer: share.authenticator
                                            for share in matching})
        checkpoint.proof = proof
        self.stable_checkpoint = checkpoint
        self._garbage_collect(seq)

    def _garbage_collect(self, stable_seq: int) -> None:
        """Discard checkpoints, votes, and pending batches older than the
        stable checkpoint (Section 3.3.2)."""
        self.checkpoints = {
            seq: cp for seq, cp in self.checkpoints.items() if seq >= stable_seq
        }
        self._checkpoint_votes = {
            seq: votes for seq, votes in self._checkpoint_votes.items()
            if seq >= stable_seq
        }
        self.pending = {seq: b for seq, b in self.pending.items() if seq > stable_seq}
        self.recent_batches.trim(stable_seq)

    # ------------------------------------------------------------------ #
    # Intra-cluster retransmission and state transfer.
    # ------------------------------------------------------------------ #

    def handle_fetch(self, sender: NodeId, message: FetchBatch) -> None:
        if sender not in self.execution_ids:
            return
        if (self.stable_checkpoint is not None
                and self.stable_checkpoint.seq >= message.seq):
            checkpoint = self.stable_checkpoint
            proof_message = ExecCheckpointProof(seq=checkpoint.seq,
                                                state_digest=checkpoint.digest,
                                                certificate=checkpoint.proof)
            self.send(sender, StateTransfer(seq=checkpoint.seq,
                                            app_state=checkpoint.app_state,
                                            reply_table=checkpoint.reply_table,
                                            proof=proof_message,
                                            replica=self.node_id,
                                            extra=checkpoint.extra))
            return
        batch = self.recent_batches.get(message.seq) or self.pending.get(message.seq)
        if batch is not None:
            self.send(sender, BatchTransfer(batch=batch, replica=self.node_id))

    def handle_state_transfer(self, sender: NodeId, message: StateTransfer) -> None:
        if sender not in self.execution_ids:
            return
        if message.seq <= self.max_executed:
            return
        digest = self.crypto.digest(
            message.app_state + message.reply_table + message.extra,
            size_hint=(len(message.app_state) + len(message.reply_table)
                       + len(message.extra)))
        proof = message.proof
        if proof.state_digest != digest or proof.seq != message.seq:
            return
        if proof.certificate is None:
            return
        if proof.certificate.payload != checkpoint_payload(message.seq, digest):
            return
        valid = self.crypto.valid_signers(proof.certificate, self.execution_ids)
        if len(valid) < self.config.checkpoint_quorum:
            return
        # Restore: application state, reply table, and sequence number.
        self.app.restore(message.app_state)
        self.reply_table = {reply.client: reply
                            for reply in decode_reply_table(message.reply_table)}
        self.max_executed = message.seq
        self._restore_extra(message.extra)
        self.pending = {seq: b for seq, b in self.pending.items() if seq > message.seq}
        checkpoint = StoredCheckpoint(seq=message.seq, app_state=message.app_state,
                                      reply_table=message.reply_table, digest=digest,
                                      extra=message.extra,
                                      proof=proof.certificate)
        self.checkpoints[message.seq] = checkpoint
        self.stable_checkpoint = checkpoint
        self.state_transfers += 1
        self._process_pending()
