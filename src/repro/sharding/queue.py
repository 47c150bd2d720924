"""The message queue: the agreement library's local state machine, routing.

Each agreement node hosts a :class:`ShardRouterQueue` (the paper's message
queue, Section 3.2.1, is its one-shard case).  The agreement library
establishes the same total order of committed batches on every correct
replica, so each queue can assign per-shard sequence numbers
*deterministically*: when the batch at global sequence ``n`` contains
requests owned by shard ``s``, the queue increments its shard-``s`` counter
and every correct agreement node computes the same ``(s, shard_seq)`` pair.
No extra agreement round is needed to shard -- the paper's separation
already provides the total order, and routing is a pure function of it.

**The certificate covers the route.**  The hosting replica's COMMIT for
``n`` authenticates a :class:`~repro.messages.agreement.RoutedCertBody`:
the batch's ``(shard, shard_seq)`` slots, the partition-map epoch and the
log, which this queue derives (:meth:`ShardRouterQueue.route_body`) once
``n - 1`` is routed: prepared in the replica's current view (routed
*ahead*), or delivered.  A certificate over the route of ``n`` therefore
means that ``f + 1`` correct replicas prepared every batch below it in
``n``'s view, or delivered it -- PBFT's own condition for a batch to
survive every view change -- so the prefix the route counts is final, and
``2f + 1`` COMMIT authenticators vouch for the slot exactly as they vouch
for the batch.  A view change drops the routes derived ahead (the batches
prepared in the old view may be replaced), and routing ahead stops at a
config operation until it is delivered, since the operation moves the
epochs the next routes are derived at.  The replica delivers batches in
global order and the queue applies each delivered batch's certified route
there (:meth:`ShardRouterQueue.execute_batch`).  An execution replica
accepts a part when the certificate verifies with its own slot in the
route, so the queue sends each touched cluster the plain
:class:`~repro.messages.agreement.OrderedBatch`: the primary on first
release, every queue again on its retransmission timer, and a queue whose
replica enters a view as its primary sends every part still
pending, which the old primary may never have sent.

What a batch is and which shards own what of it is the router's answer
(:meth:`~repro.sharding.router.ShardRouter.route`), asked once per batch at
the queue's epoch cursor when its COMMIT is built and kept until delivery
(:meth:`ShardRouterQueue._route_of`).  A batch touching requests of several
shards (possible when ``bundle_size > 1``) is sent to *every* owning shard;
each shard executes only the subset it owns, so cross-shard bundles cost
bandwidth but never violate ownership.

**Epoch cuts.**  With dynamic rebalancing, a
:class:`~repro.sharding.messages.MapChange` config operation occupies one
global sequence number, and routing in global order gives it deterministic
cut semantics for free: every batch routed before the marker is routed by
the old partition map, the marker itself is routed to *every* cluster (each
assigns it the next shard-local sequence number, so each cluster meets the
cut at a well-defined point in its own order), the queue applies the change
(or deterministically no-ops it, if a concurrent cut made its parent epoch
stale), and every batch after it routes by the new map.  The routed body
names the epoch (a marker's: the one it closes), so the certificate covers
it too.

A queue with a rebalancer also keeps the **per-shard load counters** it
reads: routed requests per cluster and per key over the current observation
window (reset at each cut, so the window always describes the live map).
Counting in the global order means the counters are a pure function of the
committed prefix -- identical on every correct replica at the same log
position -- so the primary's proposals are reproducible.  The rebalance
controller lives here too, beside the window it reads: every queue polls
it on a timer, and the one whose replica is the primary has the change
ordered by that replica's proposer.

The proposer asks this queue what a request is
(:meth:`ShardRouterQueue.request_shard`,
:meth:`ShardRouterQueue.cross_shards`): the router's operation question at
the live epoch, so a freshly admitted request queues by the map that will
route it; routing stays authoritative if the epoch moves in between.

Reply certificates are assembled per shard: ``g + 1`` matching
authenticators must come from the replicas of the shard named inside the
(authenticated) reply body, so a quorum can never be assembled across
clusters -- ``g`` Byzantine nodes *per shard* are tolerated, not ``g``
Byzantine nodes total.

**Several logs.**  The queue orders for one agreement log and routes only
the shards the log map gives that log's group; markers spanning groups and
log-map changes release at one cross-log cut, which the queue's
:class:`~repro.multilog.queue.CrossLogRound` runs (idle with one log).
Routing never waits on a cut's hold -- holds gate release only -- but the
target log of a log-map change routes past the change only with the source
log's certified frontier for the moved shard.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..agreement.local import RetryOutcome
from ..config import SystemConfig
from ..core.message_queue import DeliveredBatch, PendingSend, QueueCore
from ..crypto.certificate import Certificate
from ..messages.agreement import AgreementCertBody, RoutedCertBody
from ..messages.reply import BatchReply
from ..messages.request import ClientRequest
from ..multilog.logmap import LogMap
from ..multilog.messages import CrossLogBinding, CrossLogBindingFetch
from ..multilog.queue import CrossLogRound, Cut
from ..net.message import Message
from ..sim.process import Process
from ..statemachine.nondet import NonDetInput
from ..util.epochs import EpochRegistry
from ..util.ids import NodeId
from ..util.seqtable import SeqTable
from .rebalance import RebalanceController, ShardLoadWindow, apply_map_change
from .router import (CROSS_SHARD, LOG_MAP_CHANGE, MAP_CHANGE, BatchRoute,
                     ShardRouter)

#: (shard, shard-local sequence number)
ShardPart = Tuple[int, int]


class _Routed(NamedTuple):
    """A delivered batch on its way to release, and what routing fixed."""

    batch: DeliveredBatch
    route: BatchRoute
    #: the certified slots, one part per shard
    parts: Tuple[ShardPart, ...]
    #: the cross-log cut its release waits for, if any
    cut: Optional[Cut]


class ShardRouterQueue(QueueCore):
    """Local state machine of one agreement node of log ``log`` in the
    sharded architecture."""

    def __init__(self, owner: Process, config: SystemConfig,
                 shard_execution_ids: List[List[NodeId]],
                 client_ids: List[NodeId], router: ShardRouter,
                 log: int, log_agreement_ids: List[List[NodeId]],
                 log_registry: EpochRegistry[LogMap],
                 shard_threshold_groups: Optional[List[str]] = None,
                 downstream: Optional[List[List[NodeId]]] = None) -> None:
        super().__init__(owner, config, client_ids)
        self.router = router
        self.shard_execution_ids = [list(ids) for ids in shard_execution_ids]
        #: where each shard's batches go: its execution replicas, or the
        #: bottom row of the privacy firewall in front of them
        self.downstream = ([list(ids) for ids in downstream]
                           if downstream is not None else self.shard_execution_ids)
        self.shard_threshold_groups = shard_threshold_groups
        self.num_shards = router.num_shards
        #: the cross-log round (binds, holds and sends nothing with one log)
        self.cross_log = CrossLogRound(self, log, log_agreement_ids,
                                       log_registry)

        #: per-shard last assigned local sequence number (deterministic
        #: across replicas)
        self._next_shard_seq: List[int] = [0] * self.num_shards
        #: highest global sequence number delivered: the routes up to it
        #: are applied to ``_next_shard_seq`` and the epoch cursors
        self._routed_seq = 0
        #: the routes derived ahead of delivery, over the batches the
        #: hosting replica prepared in its view: the last one's sequence
        #: number, the per-shard counters after it, and whether it was a
        #: config operation (routing past one waits for its delivery)
        self._ahead_seq = 0
        self._ahead_counters: List[int] = [0] * self.num_shards
        self._ahead_cut = False
        #: the router's answer per sequence number, from the COMMIT that
        #: certifies its route to delivery: seq -> (batch digest, answer)
        self._routes: Dict[int, Tuple[bytes, BatchRoute]] = {}
        #: delivered batches not released yet (a cross-log hold), by seq
        self._staged: Dict[int, _Routed] = {}
        #: highest global sequence number released to the shards
        self._released_seq = 0
        #: book-keeping for batches awaiting their reply, keyed by shard part
        self.shard_pending: Dict[ShardPart, PendingSend] = {}
        #: shard parts not yet answered, per shard: shard_seq -> global seq,
        #: in release order (which is shard-seq order)
        self._unanswered: List[Dict[int, int]] = [dict() for _ in range(self.num_shards)]
        #: global seq -> number of shard parts still awaiting a reply (kept
        #: for batches of several parts)
        self._parts_outstanding: Dict[int, int] = {}
        #: global sequence numbers fully answered above the watermark
        self._answered: Set[int] = set()
        #: reply-certificate assembly, per shard, keyed by (shard_seq, body digest)
        self._shard_collectors: List[SeqTable[Tuple[int, bytes], Optional[Certificate]]] = [
            SeqTable(seq_of=itemgetter(0)) for _ in range(self.num_shards)]

        #: this node's partition-map epoch cursor: the epoch governing the
        #: *next* routed batch (advanced exactly at map-change markers)
        self.epoch = 0
        #: routed-request load counters over the current observation window,
        #: kept while a rebalancer reads them
        self.load_window = ShardLoadWindow(num_clusters=self.num_shards)
        #: cumulative routed requests per cluster (never reset; counted
        #: beside the window)
        self.routed_by_shard: List[int] = [0] * self.num_shards

        # Statistics.
        self.misrouted_replies = 0
        self.epoch_cuts = 0
        self.map_changes_rejected = 0
        self.cross_shard_markers = 0
        #: client markers released through a cross-log hold
        self.cross_log_markers = 0

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

    def route_body(self, body: AgreementCertBody,
                   requests: Tuple[Certificate, ...]) -> Optional[RoutedCertBody]:
        """``body`` with the batch's route: its next slot on each shard it
        goes to, the epoch cursor and the log.  Derivable for the batch
        right above the ones routed ahead (or delivered), unless a config
        operation routed ahead is not delivered yet or a log-map cut awaits
        the source log's frontier."""
        seq = body.seq
        if (seq != self._ahead_seq + 1 or self._ahead_cut
                or self.cross_log.awaiting is not None):
            return None
        route = self._route_of(seq, body.batch_digest, requests)
        parts = tuple((shard, self._ahead_counters[shard] + 1)
                      for shard in self._slotted(route))
        for shard, shard_seq in parts:
            self._ahead_counters[shard] = shard_seq
        self._ahead_seq = seq
        self._ahead_cut = route.change is not None
        return RoutedCertBody(
            view=body.view, seq=seq, batch_digest=body.batch_digest,
            nondet=body.nondet, route=parts, epoch=self.epoch,
            log=self.cross_log.stamp)

    def _route_ahead_from_delivered(self) -> None:
        """Derive the next routes from the delivered prefix again (a view
        change drops the batches prepared in the old view, a delivered
        config operation moved the cursors, a sync jumped them)."""
        self._ahead_seq = self._routed_seq
        self._ahead_counters = list(self._next_shard_seq)
        self._ahead_cut = False

    def _route_of(self, seq: int, batch_digest: bytes,
                  requests: Tuple[Certificate, ...]) -> BatchRoute:
        """The router's answer for the batch at ``seq`` at the epoch
        cursor: asked once per batch (again only if a view change put
        another batch there), so the COMMIT and delivery read one answer."""
        cached = self._routes.get(seq)
        if cached is None or cached[0] != batch_digest:
            cached = self._routes[seq] = (batch_digest,
                                          self.router.route(requests, self.epoch))
        return cached[1]

    def _slotted(self, route: BatchRoute) -> List[int]:
        """The shards a batch gets a slot on: those the router names that
        this log's group owns -- none for a log-map change that does not
        apply here, or when the targets all live in another log's group."""
        if route.kind == LOG_MAP_CHANGE and not self.cross_log.applies(route.change):
            return []
        return self.cross_log.owned(route.shards)

    def execute_batch(self, seq: int, view: int,
                      request_certificates: Tuple[Certificate, ...],
                      agreement_certificate: Certificate,
                      nondet: NonDetInput) -> None:
        """Apply a delivered batch's certified route to the frontiers and
        the epoch cursors (deliveries run in global order), then release it
        unless a cross-log hold keeps it."""
        body: RoutedCertBody = agreement_certificate.payload
        batch = DeliveredBatch(seq, view, request_certificates,
                               agreement_certificate, nondet)
        cached = self._routes.pop(seq, None)
        route = (cached[1] if cached is not None and cached[0] == body.batch_digest
                 else self.router.route(request_certificates, self.epoch))
        for shard, shard_seq in body.route:
            self._next_shard_seq[shard] = shard_seq
        self._routed_seq = seq
        self.max_n = max(self.max_n, seq)
        cut = self.cross_log.on_route(seq, route, body.route)
        if route.kind == MAP_CHANGE:
            self._apply_cut(route.change)
        elif route.kind != LOG_MAP_CHANGE:
            if route.kind == CROSS_SHARD:
                self.cross_shard_markers += 1
            if self.rebalancer is not None:
                self._note_load(route)
        if self._ahead_seq <= seq:
            self._route_ahead_from_delivered()
        if self.owner.tracing:
            self._trace_requests(batch.request_certificates, "stage")
        routed = _Routed(batch, route, body.route, cut)
        if cut is None and not self._staged and seq == self._released_seq + 1:
            # nothing holds the release frontier: release at once
            self._released_seq = seq
            self._release(routed)
        else:
            self._staged[seq] = routed
            self._advance_release_frontier()

    def _advance_release_frontier(self) -> None:
        """Release routed batches in global order until one the cross-log
        round holds (the round calls this again once it certified the cut)."""
        while True:
            routed = self._staged.get(self._released_seq + 1)
            if routed is None or self.cross_log.holds(routed.batch.seq, routed.cut):
                break
            self._released_seq += 1
            del self._staged[self._released_seq]
            self._release(routed)

    def _release(self, routed: _Routed) -> None:
        """Send a released batch's parts and end its cross-log hold."""
        batch = routed.batch
        if self.owner.tracing:
            self._trace_requests(batch.request_certificates, "release")
        self._send_parts(batch, routed.parts)
        if routed.cut is not None:
            if routed.route.kind == CROSS_SHARD:
                self.cross_log_markers += 1
            self.cross_log.finish(routed.cut.key)

    def _send_parts(self, batch: DeliveredBatch, parts: Tuple[ShardPart, ...]) -> None:
        """Send ``batch`` to the shard of each certified part; with no part
        (every request was excluded, or the targets all live in another
        log's group) the slot is vacuously answered.  Only the primary's
        queue sends on first release; every queue arms the retransmission
        timer."""
        if not parts:
            self._vacuous_answer(batch.seq)
            return
        if len(parts) > 1:
            self._parts_outstanding[batch.seq] = len(parts)
        sends = self._owner_is_primary(self.owner.view)
        for part in parts:
            shard, shard_seq = part
            self._unanswered[shard][shard_seq] = batch.seq
            pending = self.shard_pending[part] = PendingSend(
                batch=batch,
                fire=lambda part=part: self._on_shard_retransmit_timeout(part),
                label=f"{self.owner.node_id}:mq-retransmit:s{shard}:{shard_seq}",
                timeout_ms=self.config.timers.agreement_retransmit_ms)
            if sends:
                self._send(self.downstream[shard], batch)
            self._arm(pending)

    def adopt_frontier(self, shard: int, frontier: int) -> None:
        """Continue ``shard``'s local order after ``frontier`` (a log-map
        cut's certified source frontier, on the target log)."""
        self._next_shard_seq[shard] = frontier
        self._route_ahead_from_delivered()

    def on_view_entered(self, view: int) -> None:
        """Routes are derived afresh from the delivered prefix: the
        batches prepared in the old view may be replaced.  A replica that
        enters a view as its primary sends every part still pending: the
        old primary, crashed or censoring, may never have sent them."""
        self._route_ahead_from_delivered()
        if self._owner_is_primary(view):
            for (shard, _), pending in self.shard_pending.items():
                self._send(self.downstream[shard], pending.batch)

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
        """Count one routed batch into the rebalancer's load window."""
        for cluster, key in route.loads():
            self.load_window.note(cluster, key)
            self.routed_by_shard[cluster] += 1

    def _apply_cut(self, change) -> None:
        """Apply a routed map change (or deterministically no-op it).

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

    def _on_shard_retransmit_timeout(self, part: ShardPart) -> None:
        pending = self.shard_pending.get(part)
        if pending is not None:
            self._send(self.downstream[part[0]], pending.batch)
            self._back_off(pending)

    def on_unknown_message(self, sender: NodeId, message: Message) -> None:
        """Cross-log traffic is the round's."""
        if isinstance(message, (CrossLogBinding, CrossLogBindingFetch)):
            self.cross_log.on_message(sender, message)

    def retry_hint(self, request_certificate: Certificate,
                   relayed: bool = False) -> RetryOutcome:
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
                    and self._carries(pending.batch, request)):
                self._send(self.downstream[shard], pending.batch)
                self.retransmissions += 1
                outcome = RetryOutcome.HANDLED
                if not every_part:
                    break
        if outcome is RetryOutcome.NEED_ORDER and not every_part:
            # The owning shard's reply tables may hold the reply this
            # queue has no body for; a cross-shard marker is re-served by
            # its own path (above) once re-ordered.
            self._forward_request(request_certificate,
                                  self.shard_execution_ids[owner], relayed)
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

    def _frontier_state(self) -> Tuple[Tuple[str, object], ...]:
        """The per-shard sequence counters and the epoch cursors.  A
        replica that adopts these assigns the same ``(shard, shard_seq)``
        pairs to future batches as the replicas that actually routed the
        gap."""
        return ((("frontiers", tuple(self._next_shard_seq)),
                 ("epoch", self.epoch)) + self.cross_log.frontier_state())

    def checkpoint_sync_state(
            self, seq: int) -> Optional[Tuple[Tuple[str, object], ...]]:
        """Transferable frontier state at the checkpoint cut -- the replica
        asks right after delivering it -- or ``None`` while a log-map cut
        there awaits the source log's frontier."""
        if seq != self._routed_seq or self.cross_log.awaiting is not None:
            return None
        return self._frontier_state()

    def sync_to_checkpoint(self, seq: int,
                           sync_state: Tuple[Tuple[str, object], ...]) -> None:
        """Adopt a quorum-certified checkpoint cut this queue fell behind.

        The skipped batches were routed and answered by the other replicas'
        queues; this queue will never see them.  Jumping the routed prefix
        alone would be unsound -- future batches would be given stale
        shard-local slots, and this replica's COMMITs would never match its
        peers' -- so the digest-verified frontier state from the checkpoint
        votes is adopted wholesale.  The reply watermark advances vacuously
        (the gap's replies were collected elsewhere) and load counters
        simply miss the gap: they feed a rebalancing heuristic, not a
        safety argument.
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
        self._routed_seq = max(self._routed_seq, seq)
        if self._ahead_seq < seq:
            self._route_ahead_from_delivered()
        self._routes = {n: cached for n, cached in self._routes.items() if n > seq}
        self._staged = {n: routed for n, routed in self._staged.items() if n > seq}
        if seq > self._released_seq:
            self._released_seq = seq
        self._advance_release_frontier()
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
        body = message.body
        shard = body.shard
        if shard is None or not 0 <= shard < self.num_shards:
            self.misrouted_replies += 1
            return
        if self._answers_a_retry(message):
            self._on_retry_answer(sender, message, self.shard_execution_ids[shard])
            return
        # Merge partials until ``g + 1`` *same-shard* signers vouch for it.
        groups = self.shard_threshold_groups
        full = self._assemble_into(
            self._shard_collectors[shard], sender, message.certificate,
            self.shard_execution_ids[shard],
            groups[shard] if groups is not None else None,
            self._backups(body.view))
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
            remaining = self._parts_outstanding.pop(global_seq, 1) - 1
            if remaining > 0:
                self._parts_outstanding[global_seq] = remaining
            elif global_seq > self.highest_reply_seq:
                # A checkpoint sync may have moved the watermark past a
                # still-pending part; its late reply must not linger.
                self._answered.add(global_seq)
        self._advance_reply_watermark()
        # Garbage collect assembly state for old parts of this shard.
        self._shard_collectors[shard].trim(
            shard_seq - self.config.pipeline_depth)
        self._forward_replies(certificate)
        self.owner.proposer.on_pipeline_progress()
