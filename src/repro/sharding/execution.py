"""Execution replicas of one shard.

A :class:`ShardExecutionNode` is an ordinary
:class:`~repro.core.execution.ExecutionNode` whose peers are the ``2g + 1``
replicas of *its own shard* and whose sequence space is the shard-local one
assigned by the shard routers.  The node converts each incoming
:class:`~repro.messages.agreement.OrderedBatch` into a
:class:`~repro.sharding.messages.ShardLocalBatch` holding the subset of
requests it owns, which it asks its own router's batch question
(:meth:`~repro.sharding.router.ShardRouter.route`) for *at the certified
partition-map epoch* -- so the inherited pipeline (in-order execution, gap
fetch, per-shard checkpoints, reply cache, state transfer) runs unchanged
on shard-local sequence numbers, and a misrouted or tampered batch is
rejected rather than executed.

**The certified route.**  The agreement certificate's body is a
:class:`~repro.messages.agreement.RoutedCertBody`: besides the global
sequence number and the batch digest, its ``2f + 1`` COMMIT authenticators
cover the batch's slot on each shard, the routing epoch and the ordering
log.  The replica takes its slot, the epoch and the log from that body, so
a part -- from an agreement node's queue, or a peer's
:class:`~repro.messages.checkpoint.BatchTransfer` -- is accepted exactly
when :meth:`~repro.crypto.provider.CryptoProvider.agreed_batch` verifies it
with the replica's own slot inside the certified route.  No single
agreement node (nor ``f`` of them) can relabel a committed batch's slot,
epoch or log: the relabelled body no longer verifies.

Misroute rejection (counted in :attr:`ShardExecutionNode.misroutes`) fires
when the batch's route gives this shard no slot, or when none of the
batch's requests are owned by this shard at the certified epoch.

**One batch check.**  Ownership is judged once per body, in
``_localize``: every body -- an agreement node's batch, or a peer's
transfer, whose own filtering is discarded -- becomes a
:class:`ShardLocalBatch` only there.  ``_validate_batch`` then checks
authenticity alone, with the base class's check over the whole batch the
agreement certificate binds.

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
from typing import List, Optional, Set, Tuple

from ..config import SystemConfig
from ..core.execution import ExecutionNode
from ..crypto.keys import Keystore
from ..messages.agreement import OrderedBatch, RoutedCertBody
from ..messages.reply import BatchReplyBody, ReplyBody
from ..multilog.messages import LogMapChange
from ..net.message import Message
from ..sim.scheduler import Scheduler
from ..statemachine.interface import StateMachine
from ..util.ids import NodeId
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
from .router import CROSS_SHARD, LOG_MAP_CHANGE, MAP_CHANGE, ShardRouter


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
        #: gaps given their one fetch period (:meth:`_request_missing`)
        self._awaited: Set[int] = set()
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
        if isinstance(message, RangeHandoff):
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
    # The batch check: ownership once, in _localize; authenticity, the
    # certified slot included, at acceptance.
    # ------------------------------------------------------------------ #

    def handle_ordered_batch(self, batch) -> None:
        """An agreement node's batch, or a peer's transferred local view
        (re-derived from the whole batch it carries), enters the pipeline
        at this shard's certified slot."""
        if isinstance(batch, ShardLocalBatch):
            batch = batch.to_ordered_batch()
        local = self._localize(batch)
        if local is None:
            self.misroutes += 1
            return
        super().handle_ordered_batch(local)

    def _request_missing(self, seq: int) -> None:
        """Give a gap one fetch period before asking the peers for it: a
        link may deliver the batch that fills it after the one that
        revealed it, and a peer's copy would then arrive only to be
        answered again (a second reply bundle, a second fragment).

        Only the simulator's links reorder: ``NetworkFaultModel.base_delay``
        (``net/faults.py``) draws each message's delay afresh, and
        ``net/network.py`` promises no per-link order.  Were simulated
        links FIFO this override and ``_awaited`` could go, and the base
        node's immediate fetch would serve both execution nodes."""
        if seq in self._awaited:
            super()._request_missing(seq)
        elif not self._fetching.get(seq):
            self._awaited.add(seq)
            self._fetching[seq] = True
            self.set_timer(self.config.timers.execution_fetch_ms,
                           lambda: self._retry_missing(seq),
                           label=f"{self.node_id}:await:{seq}")

    def _localize(self, batch: OrderedBatch) -> Optional[ShardLocalBatch]:
        """Build this shard's view of ``batch`` at the slot, epoch and log
        its certificate's route names (None if it names no slot here, or
        nothing is owned).

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
            nondet=batch.nondet, epoch=body.epoch, log=body.log)

    def _validate_batch(self, batch: ShardLocalBatch) -> bool:
        """The agreement certificate covers the *global* sequence number,
        the digest of the full batch and the route, which must give this
        shard the local batch's slot; a config marker carries no client
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
                                        self.config.agreement_quorum, self.agreement_ids,
                                        slot=(self.shard, batch.seq)):
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
    # Replies carry the shard id and epoch; cross-shard tables are garbage
    # collected with the recent-batch window.
    # ------------------------------------------------------------------ #

    def _make_reply_body(self, view: int, seq: int,
                         replies: Tuple[ReplyBody, ...]) -> BatchReplyBody:
        return BatchReplyBody(view=view, seq=seq, replies=tuple(replies),
                              shard=self.shard, epoch=self.epoch)

    def _trim_recent(self) -> None:
        super()._trim_recent()
        self.cross_shard.trim()
        self._awaited = {seq for seq in self._awaited if seq > self.max_executed}
