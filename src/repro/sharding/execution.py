"""Execution replicas of one shard.

A :class:`ShardExecutionNode` is an ordinary
:class:`~repro.core.execution.ExecutionNode` whose peers are the ``2g + 1``
replicas of *its own shard* and whose sequence space is the shard-local one
assigned by the shard routers.  The node converts each incoming
:class:`~repro.sharding.messages.ShardedBatch` into a
:class:`~repro.sharding.messages.ShardLocalBatch` holding the subset of
requests it owns, which it asks its own router's batch question
(:meth:`~repro.sharding.router.ShardRouter.route`) for *at the envelope's
partition-map epoch* -- so the inherited pipeline (in-order execution, gap fetch, per-shard
checkpoints, reply cache, state transfer) runs unchanged on shard-local
sequence numbers, and a misrouted or tampered envelope is rejected rather
than executed.

Misroute rejection (counted in :attr:`ShardExecutionNode.misroutes`) fires
when the envelope is addressed to a different shard, or when none of the
batch's requests are owned by this shard at the claimed epoch (or the epoch
itself is unknown -- a forged future epoch).

**One batch check.**  Ownership is judged once per body, in
``_localize``: every body -- an envelope's, or a peer's transfer, whose
own filtering is discarded -- becomes a :class:`ShardLocalBatch` only
there.  ``_validate_batch`` then checks authenticity alone, with the base
class's check over the whole batch the agreement certificate binds.

**Route authentication.**  The agreement certificate covers the *global*
sequence number; the shard-local ``shard_seq`` and the routing ``epoch`` are
derived, not signed, so a single Byzantine agreement node could relabel a
genuinely committed batch with a wrong slot or a stale epoch and scramble
the shard's execution order or key ownership.  To prevent this, a replica
accepts a ``(shard_seq, epoch, batch)`` binding only once ``f + 1`` distinct
agreement nodes have vouched for it -- every correct agreement node computes
the same deterministic assignment, so ``f + 1`` matching votes always
include a correct one.  The primary's envelope carries the body and a vote;
every other agreement node's :class:`~repro.sharding.messages.RouteVoucher`
carries the same vote without the body.  A body waits, one per slot and
binding, for the vote that completes its binding; a vouched slot whose body
has not come within one fetch period is asked of the shard's peers and of
the vouchers, any one of whose copies then suffices.  Bindings served by
shard peers alone need
``g + 1`` distinct peer votes instead; a recovering replica that cannot
gather them simply waits for the next stable checkpoint, whose
``g + 1``-signed proof certifies everything below it.

**Cuts.**  A map-change marker and a cross-shard marker each stop the
replica at their slot until data from other execution clusters arrives.
Their semantics live in the replica's two cut participants, built with it:
:class:`~repro.sharding.handoff.RangeHandoffs` and
:class:`~repro.sharding.crossshard.CrossShardOperations`.  The replica
reaches them only from its execution hooks: a marker slot runs its
participant, ``_ready_to_execute`` holds the pipeline while one of them
blocks, ``_take_checkpoint`` defers a checkpoint falling on the blocked
slot until the cut resolves (so a cluster's checkpoint digest at any
sequence number is a deterministic function of the agreed history, never
of message timing), and ``_restore_extra`` drops a cut a state transfer
already carries the outcome of.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..core.execution import ExecutionNode
from ..crypto.keys import Keystore
from ..messages.agreement import OrderedBatch
from ..messages.checkpoint import BatchTransfer
from ..messages.reply import BatchReplyBody, ReplyBody
from ..multilog.messages import LogMapChange
from ..net.message import Message
from ..sim.scheduler import Scheduler, Timer
from ..statemachine.interface import StateMachine
from ..util.ids import NodeId
from ..util.seqtable import SeqTable
from .crossshard import CrossShardOperations
from .cut import ShareExchange
from .handoff import RangeHandoffs
from .messages import (
    CrossShardVote,
    CrossShardVoteFetch,
    RangeFetch,
    RangeHandoff,
    RouteVoucher,
    ShardedBatch,
    ShardLocalBatch,
)
from .router import CROSS_SHARD, LOG_MAP_CHANGE, MAP_CHANGE, ShardRouter

#: vouched route binding for one shard-local slot: (agreement-certificate
#: body digest, routing epoch, ordering log -- None outside multi-log)
_RouteBinding = Tuple[bytes, int, Optional[int]]


@dataclass
class _Slot:
    """Everything the replica holds on one shard-local slot's route."""

    #: each voter's binding (an envelope's sender or a voucher's)
    votes: Dict[NodeId, _RouteBinding] = field(default_factory=dict)
    #: the body an envelope brought per binding, held until it is vouched
    bodies: Dict[_RouteBinding, ShardLocalBatch] = field(default_factory=dict)
    #: the binding accepted (f + 1 / g + 1 vouched, body validated)
    accepted: Optional[_RouteBinding] = None
    #: the one fetch period the body was awaited before it was asked for
    awaited: Optional[Timer] = None


class ShardExecutionNode(ExecutionNode):
    """One of the ``2g + 1`` execution replicas of one shard."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, state_machine: StateMachine,
                 agreement_ids: List[NodeId], execution_ids: List[NodeId],
                 client_ids: List[NodeId], upstream: List[NodeId],
                 shard: int, router: ShardRouter,
                 log_agreement_ids: List[List[NodeId]],
                 threshold_group: Optional[str] = None,
                 shard_execution_ids: Optional[List[List[NodeId]]] = None) -> None:
        super().__init__(node_id=node_id, scheduler=scheduler, config=config,
                         keystore=keystore, state_machine=state_machine,
                         agreement_ids=agreement_ids, execution_ids=execution_ids,
                         client_ids=client_ids, upstream=upstream,
                         threshold_group=threshold_group, encrypt_replies=False)
        self.shard = shard
        self.router = router
        #: replica ids of *every* execution cluster (needed to address and
        #: authenticate cross-cluster range handoffs; empty disables them)
        self.shard_execution_ids = [list(ids)
                                    for ids in (shard_execution_ids or [])]
        self.misroutes = 0
        self.stale_epoch_batches = 0
        #: this replica's partition-map epoch (bumps exactly at cut markers)
        self.epoch = 0
        #: route state per shard-local slot
        self._slots: SeqTable[int, _Slot] = SeqTable()
        #: every agreement log's replica ids (a log-map cut may hand this
        #: cluster's feed to another log)
        self.log_agreement_ids = [list(ids) for ids in log_agreement_ids]
        #: this replica's log-map epoch (bumps exactly at log-map cuts)
        self.log_map_epoch = 0
        #: the cut participants
        self.cross_shard = CrossShardOperations(self)
        self.handoffs = RangeHandoffs(self)
        self.metrics.register_probe("shardexec.state", self._shard_exec_probe)

    def _shard_exec_probe(self) -> dict:
        """Snapshot of the shard replica's ad-hoc counters for the registry."""
        handoffs, cross = self.handoffs, self.cross_shard
        return {
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
        if isinstance(message, ShardedBatch):
            self.handle_sharded_batch(sender, message)
        elif isinstance(message, RouteVoucher):
            self.handle_route_voucher(sender, message)
        elif isinstance(message, OrderedBatch):
            # A raw (unrouted) batch has no shard-local sequence number; in a
            # sharded deployment it can only come from a confused or Byzantine
            # sender.
            self.misroutes += 1
        elif isinstance(message, BatchTransfer):
            # Peer fetch responses re-enter through the vote path: the
            # transferred binding counts as one peer vote, never as truth.
            if sender in self.execution_ids and isinstance(message.batch,
                                                           ShardLocalBatch):
                self.handle_sharded_batch(sender, message.batch.to_sharded_batch())
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
        else:
            super().on_message(sender, message)

    # ------------------------------------------------------------------ #
    # Routes: f + 1 vouched bindings per shard-local slot.
    # ------------------------------------------------------------------ #

    def handle_sharded_batch(self, sender: NodeId, message: ShardedBatch) -> None:
        if not self._routable(message):
            return
        local = self._localize(message)
        if local is None:
            self.misroutes += 1
            return
        # Vote on (agreement-certificate *body* digest, epoch, log): the
        # body (view, global seq, batch digest, nondet) is identical across
        # correct senders -- each sender's assembled certificate carries a
        # different authenticator set -- and it binds the batch content,
        # which _validate_batch checks against it at acceptance time.  The
        # epoch and ordering log ride in the vote so a single Byzantine
        # agreement node can no more relabel a batch's routing epoch or its
        # ordering log than its slot: a stale/forged label never gathers
        # f + 1 matching votes.
        digest = self.crypto.payload_digest(message.batch.agreement_certificate.payload)
        self._vote_route(sender, message.shard_seq,
                         (digest, message.epoch, message.log), local)

    def handle_route_voucher(self, sender: NodeId, message: RouteVoucher) -> None:
        """A binding without its body: a vote exactly like an envelope's."""
        if self._routable(message):
            self._vote_route(sender, message.shard_seq,
                             (message.digest, message.epoch, message.log), None)

    def _vote_route(self, sender: NodeId, seq: int, binding: _RouteBinding,
                    local: Optional[ShardLocalBatch]) -> None:
        """Count ``sender``'s vote for ``binding`` at slot ``seq``, keep the
        body an envelope brought, and accept the slot once the binding is
        vouched and a body for it is held.

        A body whose binding is not vouched yet waits, one per slot and
        binding, for the voucher that completes ``f + 1``; only bindings
        some voter still holds keep theirs, so a Byzantine sender varying
        its label replaces its body rather than adding one.
        """
        slot = self._slots.get(seq)
        if slot is None:
            slot = self._slots[seq] = _Slot()
        repeat = slot.votes.get(sender) == binding
        slot.votes[sender] = binding

        if seq <= self.max_executed:
            # Already executed (possibly via state transfer).  Resend the
            # reply certificate only on a *repeat* envelope from the same
            # sender -- that is a genuine retransmission, meaning our earlier
            # reply was lost; first contacts from other agreement nodes are
            # just their initial (now redundant) sends.
            if repeat and local is not None:
                self._resend_replies(local)
            return
        if slot.accepted is not None:
            if slot.accepted != binding:
                self.misroutes += 1
                if slot.accepted[0] == binding[0]:
                    self.stale_epoch_batches += 1
            return
        if local is not None:
            held = set(slot.votes.values())
            slot.bodies = {kept: body for kept, body in slot.bodies.items()
                           if kept in held}
            slot.bodies[binding] = local
        if not self._binding_vouched(slot.votes, binding):
            return
        local = slot.bodies.get(binding)
        if local is not None:
            self.handle_ordered_batch(local)
            if local.seq in self.pending or self.max_executed >= local.seq:
                slot.accepted = binding
                slot.bodies = {}
                if slot.awaited is not None and slot.awaited.active:
                    slot.awaited.cancel()
                    del self._fetching[seq]
                return
            del slot.bodies[binding]  # it failed validation; a later copy may not
        self._request_missing(seq)

    def _request_missing(self, seq: int) -> None:
        """Ask for a missing slot -- but the body of a slot agreement nodes
        already vote for is on its way from the primary, which alone sends
        it and which the network may deliver out of order, late or not at
        all: it gets one fetch period first."""
        slot = self._slots.get(seq)
        if slot is None or slot.awaited is not None or self._fetching.get(seq):
            super()._request_missing(seq)
            return
        self._fetching[seq] = True
        slot.awaited = self.set_timer(
            self.config.timers.execution_fetch_ms,
            lambda: self._retry_missing(seq),
            label=f"{self.node_id}:await-body:{seq}")

    def _fetch_targets(self, seq: int) -> List[NodeId]:
        """The peers, and the agreement nodes that vouched for the slot:
        until the slot is answered each still holds the envelope, which it
        sends back (a primary that state-transferred past the batch never
        sent its body at all)."""
        slot = self._slots.get(seq)
        voters = [voter for voter in (slot.votes if slot is not None else ())
                  if voter in self.agreement_ids]
        return super()._fetch_targets(seq) + voters

    def _routable(self, message) -> bool:
        """Whether a route vote is addressed to this shard (else it is a
        misroute) and its slot near enough to buffer.

        The window bounds the route and pending tables: per-shard
        pipelining lets the agreement cluster run far ahead in aggregate,
        and a Byzantine agreement node could otherwise flood arbitrary
        future slots.  It is generous (twice the checkpoint interval, or
        twice the pipeline window if that is larger) so it never constrains
        a healthy pipeline; legitimate far-ahead traffic is redelivered by
        the router queues' retransmission timers once this replica catches
        up (or it catches up wholesale via a stable checkpoint).
        """
        if message.shard != self.shard:
            self.misroutes += 1
            return False
        window = max(2 * self.config.checkpoint_interval,
                     2 * self.config.pipeline_depth)
        return message.shard_seq <= self.max_executed + window

    def _binding_vouched(self, votes: Dict[NodeId, _RouteBinding],
                         binding: _RouteBinding) -> bool:
        """``f + 1`` agreement senders or ``g + 1`` shard peers vouch for it."""
        agreement_votes = sum(1 for voter, seen in votes.items()
                              if seen == binding and voter in self.agreement_ids)
        if agreement_votes >= self.config.f + 1:
            return True
        peer_votes = sum(1 for voter, seen in votes.items()
                         if seen == binding and voter in self.execution_ids)
        return peer_votes >= self.config.g + 1

    # ------------------------------------------------------------------ #
    # The batch check: ownership once, in _localize; authenticity at
    # acceptance.
    # ------------------------------------------------------------------ #

    def _localize(self, message: ShardedBatch) -> Optional[ShardLocalBatch]:
        """Build this shard's view of the envelope (None if nothing is owned).

        The router's answer at the envelope's epoch says what the batch
        owns here: a config marker owns no client requests (the cut
        semantics execute at its shard-local slot), a cross-shard marker
        travels whole to each touched cluster (each re-derives its owned
        key subset at execution), and an ordinary batch owns the requests
        the router maps here.  A batch owning nothing -- a marker addressed
        to a cluster none of its keys live on, a forged future epoch -- is
        a misroute.
        """
        batch = message.batch
        route = self.router.route(batch.request_certificates, message.epoch)
        owned = route.owned(self.shard)
        if not owned and route.change is None:
            return None
        return ShardLocalBatch(
            shard=self.shard, seq=message.shard_seq, global_seq=batch.seq,
            view=batch.view, request_certificates=owned,
            full_request_certificates=batch.request_certificates,
            agreement_certificate=batch.agreement_certificate,
            nondet=batch.nondet, epoch=message.epoch, log=message.log)

    def _validate_batch(self, batch: ShardLocalBatch) -> bool:
        """The agreement certificate covers the *global* sequence number and
        the digest of the full batch; a config marker carries no client
        request (it is the one local batch owning nothing).  Client
        authenticators are verified for the owned requests
        only (a cross-shard marker's one request is owned whole) unless
        ``perf.shard_verify_owned_only`` is off: the agreement certificate
        carries 2f + 1 commits, so at least f + 1 *correct* agreement
        replicas validated every request certificate before committing it,
        and re-verifying requests another shard will execute adds no safety
        for this shard's own state."""
        certificates = batch.full_request_certificates
        if not self.crypto.agreed_batch(batch.agreement_certificate, batch.global_seq,
                                        batch.view, certificates,
                                        self.config.agreement_quorum, self.agreement_ids):
            return False
        if not batch.request_certificates:
            return True
        verified = (batch.request_certificates
                    if self.config.perf.shard_verify_owned_only
                    else certificates)
        return self._requests_valid(certificates, verified)

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

    def _ready_to_execute(self, batch) -> bool:
        """Execution past an epoch cut waits for the cut's inbound ranges,
        and execution past a cross-shard transaction marker waits for the
        peer shards' votes: the next batch may read keys whose state is
        still in flight from the losing cluster, or that the blocked
        transaction is about to write."""
        return self._blocked() is None

    def _execute_batch(self, batch: ShardLocalBatch) -> None:
        route = self.router.route(batch.full_request_certificates, batch.epoch)
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
            # Defence in depth: an accepted binding always matches the
            # in-stream epoch (markers and batches share one ordered
            # feed), so a mismatch here means the binding was forged
            # past the vote somehow -- drop it and re-fetch the truth
            # rather than execute under the wrong map.
            self.misroutes += 1
            self.stale_epoch_batches += 1
            self._slots.pop(batch.seq, None)
            self._request_missing(batch.seq)
            return
        if route.kind == CROSS_SHARD:
            self.cross_shard.execute(batch, route.shards)
            return
        super()._execute_batch(batch)

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

    def _take_checkpoint(self, seq: int) -> None:
        """A checkpoint on a blocked cut's slot waits for the cut to
        resolve: it covers the state *after* the cut, so its digest is a
        pure function of the agreed history, never of message timing."""
        blocked = self._blocked()
        if blocked is not None:
            blocked.cut.checkpoint = seq
        else:
            super()._take_checkpoint(seq)

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

    def _resend_replies(self, batch) -> None:
        """Also re-send the cached sub-reply on a genuine retransmission:
        the retrying client is waiting for the fragment, not the (empty)
        marker-slot bundle."""
        super()._resend_replies(batch)
        route = self.router.route(batch.full_request_certificates, batch.epoch)
        if route.kind == CROSS_SHARD:
            self.cross_shard.resend(route.marker.client, route.marker.timestamp)

    # ------------------------------------------------------------------ #
    # Checkpoints carry the epoch (state transfer must land in the right
    # map, not just the right application state).
    # ------------------------------------------------------------------ #

    def _checkpoint_extra(self) -> bytes:
        return json.dumps({"epoch": self.epoch}, sort_keys=True).encode()

    def _restore_extra(self, extra: bytes) -> None:
        if not extra:
            return
        self.epoch = int(json.loads(extra.decode())["epoch"])
        # A checkpoint is never taken while a cut is blocked (cuts defer
        # it), so the restored state carries the outcome of whatever cut
        # this replica was blocked at -- every range of its epoch installed,
        # the transaction decided and its exactly-once fragment in the
        # restored reply table -- and the buffered shares for it are dead
        # weight (a future cut's shares are re-fetchable if dropped here).
        blocked = self._blocked()
        if blocked is not None:
            blocked.unblock()
        self.handoffs.prune_past()

    # ------------------------------------------------------------------ #
    # Replies carry the shard id and epoch; route and vote tables are
    # garbage collected with the recent-batch window.
    # ------------------------------------------------------------------ #

    def _make_reply_body(self, view: int, seq: int,
                         replies: Tuple[ReplyBody, ...]) -> BatchReplyBody:
        return BatchReplyBody(view=view, seq=seq, replies=tuple(replies),
                              shard=self.shard, epoch=self.epoch)

    def _trim_recent(self) -> None:
        super()._trim_recent()
        self.cross_shard.trim()
        horizon = self.max_executed - 2 * self.config.checkpoint_interval
        if horizon > 0:
            self._slots.trim(horizon)
