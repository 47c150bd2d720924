"""The shard-routing message queue.

Each agreement node hosts a :class:`ShardRouterQueue` instead of the plain
:class:`~repro.core.message_queue.MessageQueue`.  The agreement library
establishes the same total order of committed batches on every correct
replica, so each queue can assign per-shard sequence numbers
*deterministically*: when the batch at global sequence ``n`` contains
requests owned by shard ``s``, the queue increments its shard-``s`` counter
and every correct agreement node computes the same ``(s, shard_seq)`` pair.
No extra agreement round is needed to shard -- the paper's separation
already provides the total order, and routing is a pure function of it.

Batches may be *staged* out of global order (``stage_batch``, used with
``SystemConfig.per_shard_windows``: a replica hands a batch over the
moment it commits locally, even while an earlier sequence number is still
gathering commit votes).  The queue buffers such arrivals and releases each
shard's parts along a **per-shard frontier over the global order**: a batch
reaches shard ``s`` as soon as every earlier batch is staged -- there is no
waiting for earlier batches to be *answered*, so a stalled shard never
holds back another shard's feed -- and the shard-local sequence numbers
assigned at release are a pure function of the committed prefix.

What a batch is and which shards own what of it is the router's answer
(:meth:`~repro.sharding.router.ShardRouter.route`), asked once per batch at
the queue's epoch cursor and kept from staging to release
(:meth:`ShardRouterQueue._route_of`); the queue and its cross-log round only
read it.  A batch touching requests of several shards (possible when
``bundle_size > 1``) is sent to *every* owning shard; each shard executes
only the subset it owns, so cross-shard bundles cost bandwidth but never
violate ownership.

**One body per replica.**  ``shard_seq`` is not covered by the agreement
certificate, so an execution replica accepts a routing binding only once
``f + 1`` agreement nodes vouch for it -- but only the binding needs
``f + 1`` senders, not the body.  As in the paper's message queue, the
primary's queue sends the :class:`~repro.sharding.messages.ShardedBatch` on
first release; every other queue sends a
:class:`~repro.sharding.messages.RouteVoucher` (the binding with the digest
of the agreement-certificate body in place of the batch).  Every queue arms
the retransmission timer, a retransmission sends the envelope, and a queue
whose replica enters a view as its primary sends the envelope of every part
still pending.

**Epoch cuts.**  With dynamic rebalancing, a
:class:`~repro.sharding.messages.MapChange` config operation occupies one
global sequence number, and the release frontier gives it deterministic cut
semantics for free: every batch released before the marker is routed by the
old partition map, the marker itself is routed to *every* cluster (each
assigns it the next shard-local sequence number, so each cluster meets the
cut at a well-defined point in its own order), the queue applies the change
(or deterministically no-ops it, if a concurrent cut made its parent epoch
stale), and every batch after it routes by the new map.  Envelopes carry the
routing epoch, which becomes part of the ``f + 1``-vouched route binding at
the execution replicas.

The queue also keeps the **per-shard load counters** the rebalancer reads:
released requests per cluster and per key over the current observation
window (reset at each cut, so the window always describes the live map).
Counting at release time means the counters are a pure function of the
committed prefix -- identical on every correct replica at the same log
position -- so the primary's proposals are reproducible.  The rebalance
controller lives here too, beside the window it reads: every queue polls
it on a timer, and the one whose replica is the primary has the change
ordered by that replica's proposer.

The proposer asks this queue what a request is
(:meth:`ShardRouterQueue.request_shard`,
:meth:`ShardRouterQueue.cross_shards`): the router's operation question at
the live epoch, so a freshly admitted request queues by the map that will
route it; routing at release stays authoritative if the epoch moves in
between.

Reply certificates are assembled per shard: ``g + 1`` matching
authenticators must come from the replicas of the shard named inside the
(authenticated) reply body, so a quorum can never be assembled across
clusters -- ``g`` Byzantine nodes *per shard* are tolerated, not ``g``
Byzantine nodes total.

**Several logs.**  The queue orders for one agreement log and routes only
the shards the log map gives that log's group; markers spanning groups and
log-map changes release at one cross-log cut, which the queue's
:class:`~repro.multilog.queue.CrossLogRound` runs (idle with one log).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

from ..agreement.local import RetryOutcome
from ..config import SystemConfig
from ..core.message_queue import PendingSend, QueueCore
from ..crypto.certificate import Certificate
from ..messages.agreement import OrderedBatch
from ..messages.checkpoint import FetchBatch
from ..messages.reply import BatchReply
from ..messages.request import ClientRequest
from ..multilog.logmap import LogMap
from ..multilog.messages import CrossLogBinding, CrossLogBindingFetch
from ..multilog.queue import CrossLogRound
from ..net.message import Message
from ..sim.process import Process
from ..statemachine.nondet import NonDetInput
from ..util.epochs import EpochRegistry
from ..util.ids import NodeId
from ..util.seqtable import SeqTable
from .messages import RouteVoucher, ShardedBatch
from .rebalance import RebalanceController, ShardLoadWindow, apply_map_change
from .router import (CROSS_SHARD, LOG_MAP_CHANGE, MAP_CHANGE, BatchRoute,
                     ShardRouter)

#: (shard, shard-local sequence number)
ShardPart = Tuple[int, int]


class ShardRouterQueue(QueueCore):
    """Local state machine of one agreement node of log ``log`` in the
    sharded architecture."""

    def __init__(self, owner: Process, config: SystemConfig,
                 shard_execution_ids: List[List[NodeId]],
                 client_ids: List[NodeId], router: ShardRouter,
                 log: int, log_agreement_ids: List[List[NodeId]],
                 log_registry: EpochRegistry[LogMap],
                 shard_threshold_groups: Optional[List[str]] = None) -> None:
        super().__init__(owner, config, client_ids)
        self.router = router
        self.shard_execution_ids = [list(ids) for ids in shard_execution_ids]
        self.shard_threshold_groups = shard_threshold_groups
        self.num_shards = router.num_shards
        #: the cross-log round (binds, holds and sends nothing with one log)
        self.cross_log = CrossLogRound(self, log, log_agreement_ids,
                                       log_registry)

        #: per-shard next local sequence number (deterministic across replicas)
        self._next_shard_seq: List[int] = [0] * self.num_shards
        #: committed batches staged out of global order, keyed by global seq
        self._staged: Dict[int, OrderedBatch] = {}
        #: the router's answer for each staged batch (:meth:`_route_of`)
        self._routes: Dict[int, BatchRoute] = {}
        #: highest global sequence number released to the shard frontiers
        #: (every batch at or below it has been routed)
        self._released_seq = 0
        #: book-keeping for batches awaiting their reply, keyed by shard part
        self.shard_pending: Dict[ShardPart, PendingSend] = {}
        #: shard parts not yet answered, per shard: shard_seq -> global seq,
        #: in release order (which is shard-seq order)
        self._unanswered: List[Dict[int, int]] = [dict() for _ in range(self.num_shards)]
        #: global seq -> number of shard parts still awaiting a reply
        self._parts_outstanding: Dict[int, int] = {}
        #: global sequence numbers fully answered above the watermark
        self._answered: Set[int] = set()
        #: reply-certificate assembly, per shard, keyed by (shard_seq, body digest)
        self._shard_collectors: List[SeqTable[Tuple[int, bytes], Optional[Certificate]]] = [
            SeqTable(seq_of=itemgetter(0)) for _ in range(self.num_shards)]

        #: this node's partition-map epoch cursor: the epoch governing the
        #: *next* released batch (advanced exactly at map-change markers)
        self.epoch = 0
        #: released-request load counters over the current observation window
        self.load_window = ShardLoadWindow(num_clusters=self.num_shards)
        #: cumulative released requests per cluster (never reset; the
        #: example and benchmarks read these for observability)
        self.routed_by_shard: List[int] = [0] * self.num_shards

        # Statistics.
        self.misrouted_replies = 0
        self.epoch_cuts = 0
        self.map_changes_rejected = 0
        self.cross_shard_markers = 0
        #: client markers released through a cross-log hold
        self.cross_log_markers = 0

        #: frontier snapshots at checkpoint cuts: global seq -> transferable
        #: state (:meth:`_frontier_state`), captured the moment the
        #: release frontier crosses the cut so the snapshot is a pure
        #: function of the released prefix (release may run ahead of the
        #: delivery pass that emits the checkpoint vote)
        self._sync_snapshots: Dict[int, Tuple[Tuple[str, object], ...]] = {}

        # Observability (passive): time each batch spends buffered between
        # staging (local commit) and release along the per-shard frontier.
        self._staged_at: Dict[int, float] = {}
        self._h_stall = owner.metrics.histogram("shardqueue.frontier_stall_ms")
        self._c_released = owner.metrics.counter("shardqueue.batches_released")
        self._g_staged = owner.metrics.gauge("shardqueue.staged_depth")
        owner.metrics.register_probe("shardqueue.state", self._shard_probe)

        #: the rebalance controller (any replica may become primary, so
        #: every queue carries one; only the primary's proposes)
        self.rebalancer: Optional[RebalanceController] = None
        if config.rebalance.enabled:
            self.rebalancer = RebalanceController(config.rebalance)
            owner.metrics.register_probe("rebalance.controller",
                                         self.rebalancer.snapshot)
            self._arm_rebalance_check()

    def _shard_probe(self) -> dict:
        """Snapshot of the router queue's ad-hoc counters and occupancy."""
        return {
            "epoch": self.epoch,
            "epoch_cuts": self.epoch_cuts,
            "map_changes_rejected": self.map_changes_rejected,
            "cross_shard_markers": self.cross_shard_markers,
            "misrouted_replies": self.misrouted_replies,
            "routed_by_shard": list(self.routed_by_shard),
            "shard_outstanding": [len(parts) for parts in self._unanswered],
            "staged_depth": len(self._staged),
            "load_window": self.load_window.snapshot(),
            "cross_log_markers": self.cross_log_markers,
            **self.cross_log.probe(),
        }

    # ------------------------------------------------------------------ #
    # LocalExecutor interface: routing agreed batches.
    # ------------------------------------------------------------------ #

    def execute_batch(self, seq: int, view: int,
                      request_certificates: Tuple[Certificate, ...],
                      agreement_certificate: Certificate,
                      nondet: NonDetInput) -> None:
        # The agreement replica's contiguous delivery pass; batches already
        # staged (and released) through the out-of-order path are skipped.
        self.stage_batch(seq=seq, view=view,
                         request_certificates=request_certificates,
                         agreement_certificate=agreement_certificate,
                         nondet=nondet)

    def stage_batch(self, seq: int, view: int,
                    request_certificates: Tuple[Certificate, ...],
                    agreement_certificate: Certificate,
                    nondet: NonDetInput) -> None:
        """Accept a *committed* batch in any global-sequence order.

        Batches are buffered until every earlier global sequence number has
        been staged, then released along the per-shard frontiers in global
        order.  The shard-local sequence numbers assigned at release time
        are therefore a pure function of the committed prefix -- identical
        on every correct replica no matter how far out of order the commits
        completed locally -- which is what keeps sharding agreement-free
        even with staging at commit (``SystemConfig.per_shard_windows``).
        A marker is bound for the cross-log round as it stages.
        """
        if seq > self._released_seq and seq not in self._staged:
            batch = self._staged[seq] = OrderedBatch(
                seq=seq, view=view,
                request_certificates=tuple(request_certificates),
                agreement_certificate=agreement_certificate, nondet=nondet)
            self.cross_log.on_stage(batch)
            self.max_n = max(self.max_n, seq)
            self._staged_at[seq] = self.owner.now
            if self.owner.tracing:
                self._trace_requests(batch.request_certificates, "stage")
            self._advance_release_frontier()
            self._g_staged.set(len(self._staged))
        self.cross_log.bind_staged_change()

    def _advance_release_frontier(self) -> None:
        """Release staged batches in global order until a gap, or a marker
        the cross-log round holds (the round calls this again once it has
        certified the cut)."""
        while True:
            next_batch = self._staged.get(self._released_seq + 1)
            if next_batch is None or self.cross_log.holds(next_batch):
                return
            self._released_seq += 1
            del self._staged[self._released_seq]
            self._route_batch(next_batch)
            self._note_checkpoint_cut(self._released_seq)

    def _route_of(self, batch: OrderedBatch) -> BatchRoute:
        """The router's answer for ``batch`` at this queue's epoch cursor:
        asked once per batch (again only if a cut moved the cursor since),
        so staging, the release head and release all read one answer.  It
        tells what a staged batch *will* route to, too: the answer is a
        pure function of the batch and the epoch."""
        route = self._routes.get(batch.seq)
        if route is None or route.epoch != self.epoch:
            route = self._routes[batch.seq] = self.router.route(
                batch.request_certificates, self.epoch)
        return route

    def _route_batch(self, batch: OrderedBatch) -> None:
        """Advance the per-shard frontiers over one released batch: its
        parts go to the shards the router names that this log's group owns.

        A map-change marker's envelope is stamped with the epoch the marker
        *closes*.  A cross-shard marker's slot in each touched shard's local
        sequence is a consistent cut over the global prefix: the release
        frontier has already fed each of those shards every earlier batch
        (the operation's own *pinned* epoch is judged against the routing
        epoch at execution, where a mismatch aborts deterministically).
        """
        route = self._route_of(batch)
        del self._routes[batch.seq]
        self._observe_release(batch)
        if self.owner.tracing:
            self._trace_requests(batch.request_certificates, "release")
        if route.kind == LOG_MAP_CHANGE:
            self.cross_log.cut(batch, route)
            return
        held = self.cross_log.held_marker(route)
        if held is not None:
            self.cross_log_markers += 1
        if route.kind != MAP_CHANGE:
            if route.kind == CROSS_SHARD:
                self.cross_shard_markers += 1
            self._note_load(route)
        self._send_parts(batch, self.cross_log.owned(route.shards))
        if route.kind == MAP_CHANGE:
            self._apply_cut(route.change)
        self.cross_log.finish(held)

    def _observe_release(self, batch: OrderedBatch) -> None:
        staged_at = self._staged_at.pop(batch.seq, None)
        if staged_at is not None:
            self._h_stall.observe(self.owner.now - staged_at)
        self._c_released.inc()

    def _send_parts(self, batch: OrderedBatch, shards) -> None:
        """Give ``batch`` the next shard-local slot of each of ``shards``
        and send it there; with no shard to send to (every request was
        excluded, or the targets all live in another log's group) the slot
        is vacuously answered.  Only the primary's queue sends the
        envelope; every other queue sends a :class:`RouteVoucher` for the
        same slot ("One body per replica" above), and every queue arms the
        retransmission timer."""
        if not shards:
            self._vacuous_answer(batch.seq)
            return
        self._parts_outstanding[batch.seq] = len(shards)
        sends_body = self._owner_is_primary(self.owner.view)
        digest = (None if sends_body else
                  self.crypto.payload_digest(batch.agreement_certificate.payload))
        log = self.cross_log.stamp
        for shard in shards:
            self._next_shard_seq[shard] += 1
            shard_seq = self._next_shard_seq[shard]
            envelope = ShardedBatch(shard=shard, shard_seq=shard_seq,
                                    batch=batch, epoch=self.epoch, log=log)
            self._unanswered[shard][shard_seq] = batch.seq
            part = (shard, shard_seq)
            pending = PendingSend(
                batch=envelope,
                fire=lambda part=part: self._on_shard_retransmit_timeout(part),
                label=f"{self.owner.node_id}:mq-retransmit:s{shard}:{shard_seq}",
                timeout_ms=self.config.timers.agreement_retransmit_ms)
            self.shard_pending[part] = pending
            if sends_body:
                self._send_envelope(envelope)
            else:
                voucher = RouteVoucher(shard=shard, shard_seq=shard_seq,
                                       digest=digest, epoch=self.epoch, log=log)
                self.owner.multicast(self.shard_execution_ids[shard], voucher)
            self._arm(pending)

    def on_view_entered(self, view: int) -> None:
        """A replica that enters a view as its primary sends the envelope of
        every part still pending: the old primary, crashed or censoring, may
        never have sent the bodies its backups only vouched for."""
        if self._owner_is_primary(view):
            for pending in self.shard_pending.values():
                self._send_envelope(pending.batch)

    def _vacuous_answer(self, seq: int) -> None:
        """Mark a slot nobody owes a reply for as answered, so the pipeline
        accounting never waits on it."""
        self._answered.add(seq)
        self._advance_reply_watermark()

    def _advance_reply_watermark(self) -> None:
        """Advance the pipeline back-pressure watermark
        (:meth:`highest_ready_seq`).

        With sharding, replies complete out of global order (a fast shard can
        answer global sequence 9 before a slow one answers 3), so the
        watermark is the highest *contiguously* answered global sequence
        number -- the conservative bound that keeps the paper's pipeline
        invariant (at most ``P`` unanswered sequence numbers) intact.  With
        ``SystemConfig.per_shard_windows`` the proposer bypasses this
        global floor and gates on :meth:`shard_outstanding` instead.
        """
        while (self.highest_reply_seq + 1) in self._answered:
            self.highest_reply_seq += 1
            self._answered.discard(self.highest_reply_seq)

    def _note_load(self, route: BatchRoute) -> None:
        """Count one released batch into the rebalancer's load window."""
        for cluster, key in route.loads():
            self.load_window.note(cluster, key)
            self.routed_by_shard[cluster] += 1

    def _apply_cut(self, change) -> None:
        """Apply a released map change (or deterministically no-op it).

        Runs at the same position of the global order on every correct
        replica, against the same current map -- so either all of them move
        to the new epoch here, or all of them reject the change as stale.
        The load window resets either way: post-cut traffic is judged
        against the map that now routes it.
        """
        registry = getattr(self.router.partitioner, "registry", None)
        if registry is None:
            self.map_changes_rejected += 1
            return  # hash partitioning never rebalances
        new_map = apply_map_change(registry.map_for(self.epoch), change)
        if new_map is None:
            self.map_changes_rejected += 1
            return
        registry.append(new_map)
        self.epoch = new_map.epoch
        self.epoch_cuts += 1
        self.load_window.reset()

    def _send_envelope(self, envelope: ShardedBatch) -> None:
        self._send(self.shard_execution_ids[envelope.shard], envelope)

    def _on_shard_retransmit_timeout(self, part: ShardPart) -> None:
        pending = self.shard_pending.get(part)
        if pending is not None:
            self._send_envelope(pending.batch)
            self._back_off(pending)

    def on_unknown_message(self, sender: NodeId, message: Message) -> None:
        """Cross-log traffic is the round's.  An execution replica that
        holds vouchers for a slot but not its body asks the vouchers too:
        answer with the pending envelope."""
        if isinstance(message, (CrossLogBinding, CrossLogBindingFetch)):
            self.cross_log.on_message(sender, message)
            return
        if not isinstance(message, FetchBatch) or message.replica != sender:
            return
        shard = next((shard for shard, ids in enumerate(self.shard_execution_ids)
                      if sender in ids), None)
        pending = self.shard_pending.get((shard, message.seq))
        if pending is not None:
            self.owner.send(sender, pending.batch)
            self.retransmissions += 1

    def retry_hint(self, request_certificate: Certificate) -> RetryOutcome:
        """Serve a client retransmission from the cache or pending sends."""
        request: ClientRequest = request_certificate.payload
        if self._serve_from_cache(request):
            return RetryOutcome.HANDLED
        # A cross-shard marker has one pending part per *touched* shard
        # and every touched cluster contributes a fragment of the answer:
        # resend them all.  A duplicate marker reaching an execution
        # replica that already executed makes it re-send its cached
        # fragment to the client.
        shards = self.router.targets(request.operation, self.epoch)
        every_part = len(shards) > 1
        # A multi-shard bundle has one pending part per owning shard, each
        # carrying the full request list; resend only to the shard that owns
        # the retransmitted request -- the others cannot regenerate its
        # reply.  Ownership is judged by the *current* epoch; a part routed
        # pre-cut for a since-moved key is retransmitted by its own
        # pending-send timer regardless.
        owner = None if every_part else shards[0]
        outcome = RetryOutcome.NEED_ORDER
        for (shard, _), pending in self.shard_pending.items():
            if ((every_part or shard == owner)
                    and self._carries(pending.batch.batch, request)):
                self._send_envelope(pending.batch)
                self.retransmissions += 1
                outcome = RetryOutcome.HANDLED
                if not every_part:
                    break
        if outcome is RetryOutcome.NEED_ORDER and not every_part:
            # The owning shard's reply tables may hold the reply this
            # queue has no body for; a cross-shard marker is re-served by
            # its own path (above) once re-ordered.
            self._forward_request(request_certificate,
                                  self.shard_execution_ids[owner])
        return outcome

    def seq_answered(self, seq: int) -> bool:
        """Whether every shard part of global sequence ``seq`` is answered
        (true above the contiguous watermark for out-of-order completions)."""
        return seq <= self.highest_reply_seq or seq in self._answered

    def shard_outstanding(self, shard: int) -> int:
        """Batches released towards ``shard`` but not yet answered -- the
        per-shard pipeline occupancy the skew-aware admission gate checks."""
        return len(self._unanswered[shard])

    # ------------------------------------------------------------------ #
    # Checkpoint state transfer.
    # ------------------------------------------------------------------ #

    def _note_checkpoint_cut(self, seq: int) -> None:
        """Snapshot the routing frontiers when release crosses a checkpoint.

        Captured here -- not when the checkpoint vote is emitted -- because
        the release frontier and the hosting replica's contiguous delivery
        pass run apart: out-of-order staging lets release run ahead, and a
        held cross-log marker keeps it behind.  The vote must describe the
        state at exactly the cut, a pure function of the released prefix,
        identical on every correct replica; a vote delivery had to defer is
        cast now.
        """
        if seq % self.config.checkpoint_interval == 0:
            self._sync_snapshots[seq] = self._frontier_state()
            self.owner.on_checkpoint_cut(seq)

    def _frontier_state(self) -> Tuple[Tuple[str, object], ...]:
        """The per-shard sequence counters and the epoch cursors.  A
        replica that adopts these assigns the same ``(shard, shard_seq)``
        pairs to future batches as the replicas that actually released the
        gap."""
        return ((("frontiers", tuple(self._next_shard_seq)),
                 ("epoch", self.epoch)) + self.cross_log.frontier_state())

    def checkpoint_sync_state(
            self, seq: int) -> Optional[Tuple[Tuple[str, object], ...]]:
        """Transferable frontier state at the checkpoint cut, or ``None``
        while the release frontier has not reached it yet."""
        if seq > self._released_seq:
            return None
        return self._sync_snapshots.get(seq, ())

    def on_stable_checkpoint(self, seq: int) -> None:
        self._sync_snapshots = {
            cut: snapshot for cut, snapshot in self._sync_snapshots.items()
            if cut > seq
        }

    def sync_to_checkpoint(self, seq: int,
                           sync_state: Tuple[Tuple[str, object], ...]) -> None:
        """Adopt a quorum-certified checkpoint cut this queue fell behind.

        The skipped batches were released, routed, and answered by the
        other replicas' queues; this queue will never see them.  Jumping
        ``_released_seq`` alone would be unsound -- future batches would be
        assigned stale shard-local sequence numbers that execution replicas
        ignore, wedging this node the moment it becomes primary -- so the
        digest-verified frontier state from the checkpoint votes is adopted
        wholesale.  The reply watermark advances vacuously (the gap's
        replies were collected elsewhere) and load counters simply miss the
        gap: they feed a rebalancing heuristic, not a safety argument.
        """
        state = dict(sync_state)
        self.cross_log.sync_to_checkpoint(seq, state)
        frontiers = state.get("frontiers")
        if frontiers is not None and len(frontiers) == self.num_shards:
            self._next_shard_seq = list(frontiers)
        epoch = state.get("epoch")
        if (epoch is not None and epoch > self.epoch
                and self.router.partitioner.has_epoch(epoch)):
            # The maps themselves are derived deterministically from the
            # agreed config-operation history (shared registry); only the
            # cursor needs transferring.
            self.epoch = epoch
            self.load_window.reset()
        self.max_n = max(self.max_n, seq)
        for stale in [n for n in self._staged if n <= seq]:
            self._staged.pop(stale)
            self._staged_at.pop(stale, None)
            self._routes.pop(stale, None)
        if seq > self._released_seq:
            self._released_seq = seq
            self._advance_release_frontier()
        self._g_staged.set(len(self._staged))
        if seq > self.highest_reply_seq:
            self.highest_reply_seq = seq
            self._answered = {n for n in self._answered if n > seq}
            self._advance_reply_watermark()

    def request_shard(self, request: ClientRequest) -> int:
        """The shard owning ``request`` at this queue's live epoch."""
        return self.router.shard_of_operation(request.operation, self.epoch)

    def cross_shards(self, request: ClientRequest) -> Optional[List[int]]:
        """The shards a cross-shard marker ``request`` touches at the live
        epoch (``None`` for any other request)."""
        shards = self.router.targets(request.operation, self.epoch)
        return shards if len(shards) > 1 else None

    def load_observation(self):
        """The rebalance controller's inputs: the current observation
        window and the partition map it describes."""
        registry = getattr(self.router.partitioner, "registry", None)
        pmap = registry.map_for(self.epoch) if registry is not None else None
        return self.load_window, pmap

    def _arm_rebalance_check(self) -> None:
        self.owner.set_timer(self.config.rebalance.check_interval_ms,
                             self._on_rebalance_check,
                             label=f"{self.owner.node_id}:rebalance-check")

    def _on_rebalance_check(self) -> None:
        """Poll the controller; a primary free to order a config operation
        (one epoch cut at a time) proposes what it suggests."""
        self._arm_rebalance_check()
        proposer = self.owner.proposer
        if not proposer.can_propose_config():
            return
        window, pmap = self.load_observation()
        change = self.rebalancer.propose(window, pmap, now=self.owner.now)
        if change is not None and proposer.propose_map_change(change):
            self.rebalancer.note_ordered(change, now=self.owner.now)

    # ------------------------------------------------------------------ #
    # Reply certificates from the execution clusters.
    # ------------------------------------------------------------------ #

    def on_batch_reply(self, sender: NodeId, message: BatchReply) -> None:
        if not self._admissible(message):
            return
        shard = message.body.shard
        if shard is None or not 0 <= shard < self.num_shards:
            self.misrouted_replies += 1
            return
        # Merge partials until ``g + 1`` *same-shard* signers vouch for it.
        groups = self.shard_threshold_groups
        full = self._assemble_into(
            self._shard_collectors[shard], message.certificate,
            self.shard_execution_ids[shard],
            groups[shard] if groups is not None else None)
        if full is not None:
            self._accept_shard_reply(full)

    def _accept_shard_reply(self, certificate: Certificate) -> None:
        """A full reply certificate for shard part ``(body.shard, body.seq)``."""
        body = certificate.payload
        shard, shard_seq = body.shard, body.seq
        # The shard executes in shard-local order, so a reply for shard_seq
        # settles every part of this shard at or below it: the front of its
        # table, which holds its parts in release (shard-seq) order.
        unanswered = self._unanswered[shard]
        while unanswered:
            settled = next(iter(unanswered))
            if settled > shard_seq:
                break
            global_seq = unanswered.pop(settled)
            pending = self.shard_pending.pop((shard, settled))
            if pending.timer is not None:
                pending.timer.cancel()
            remaining = self._parts_outstanding.get(global_seq, 0) - 1
            if remaining <= 0:
                self._parts_outstanding.pop(global_seq, None)
                if global_seq > self.highest_reply_seq:
                    # A checkpoint sync may have moved the watermark past a
                    # still-pending part; its late reply must not linger.
                    self._answered.add(global_seq)
            else:
                self._parts_outstanding[global_seq] = remaining
        self._advance_reply_watermark()
        # Garbage collect assembly state for old parts of this shard.
        self._shard_collectors[shard].trim(
            shard_seq - self.config.pipeline_depth)
        self._forward_replies(certificate)
