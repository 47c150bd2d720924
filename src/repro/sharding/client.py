"""Shard-aware clients.

A client of the sharded service computes -- with the same deterministic
router every replica uses -- which shard owns each operation it submits, and
then accepts a reply only when ``g + 1`` matching authenticators come from
*that shard's* ``2g + 1`` execution replicas.  A certificate assembled from
another shard's replicas (or a reply body whose authenticated ``shard`` field
does not match the expected owner) is rejected and counted in
:attr:`ShardAwareClient.misrouted_replies`: without this check, ``g + 1``
Byzantine nodes spread across *different* shards could forge a reply even
though no single shard exceeds its fault bound.

**Rebalancing.**  The client keeps its own partition-map epoch cursor;
requests are routed (for reply-quorum purposes -- submission always goes to
the agreement cluster) by the newest map the client knows.  When a rebalance
moves the key mid-flight, the reply arrives from the *new* owner carrying a
newer ``epoch`` inside the authenticated reply body.  The client advances
only when that claim is consistent: the epoch must exist in the agreed map
history and map the pending operation's key to exactly the shard the reply
names -- and even then the reply completes only with ``g + 1`` matching
authenticators from *that* shard's replicas, so a forged epoch buys an
attacker nothing the fault bounds didn't already concede.  A reply naming a
shard no known epoch supports is counted as misrouted, exactly like a wrong
shard was before rebalancing existed.

**Several agreement logs.**  The client keeps one view cursor *per log* and
submits each request to the log that orders its shard's feed (judged by the
newest log map the client knows).  A cross-group operation is submitted to
**every** touched log -- each one must order the marker before the
cross-log cut can release it -- and completes through the same
sub-certified assembled reply as within one log.  On a retransmission
timeout the owning logs are re-derived from the latest map: if a log-map
change moved the shard mid-flight, the retry goes to the *new* owner's
cluster, where the reply table serves a cached answer if the original
already executed -- at-most-once execution is preserved by the execution
replicas' dedup exactly as within one log, so retargeting costs a retry but
never a double execution.  With one log there is one cursor and nothing is
ever retargeted.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..core.client import ClientNode, CompletedRequest
from ..crypto.keys import Keystore
from ..messages.reply import BatchReplyBody, ClientReply, ReplyBody
from ..net.message import Message
from ..sim.scheduler import Scheduler
from ..statemachine.interface import Operation, OperationResult
from ..util.ids import NodeId
from .messages import CrossShardReply, SubReplyBody, sub_reply_rounds_consistent
from .router import ShardRouter

if TYPE_CHECKING:  # repro.multilog imports this module for its client alias
    from ..multilog.logmap import LogMapRegistry


class ShardAwareClient(ClientNode):
    """A client that routes requests to shards and votes per-shard replies."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, log_agreement_ids: List[List[NodeId]],
                 request_verifiers: List[NodeId],
                 shard_execution_ids: List[List[NodeId]],
                 router: ShardRouter, log_registry: LogMapRegistry,
                 shard_threshold_groups: Optional[List[str]] = None) -> None:
        all_execution = [node for shard in shard_execution_ids for node in shard]
        super().__init__(node_id=node_id, scheduler=scheduler, config=config,
                         keystore=keystore, agreement_ids=log_agreement_ids[0],
                         request_verifiers=request_verifiers,
                         reply_quorum=config.reply_quorum,
                         reply_universe=all_execution,
                         threshold_group=None, encrypt_requests=False)
        self.router = router
        self.shard_execution_ids = [list(ids) for ids in shard_execution_ids]
        self.shard_threshold_groups = shard_threshold_groups
        #: this client's partition-map epoch cursor (advanced only by
        #: consistent, authenticated newer-epoch replies)
        self.epoch = 0
        self.log_agreement_ids = [list(ids) for ids in log_agreement_ids]
        self.log_registry = log_registry
        #: shard -> log, used to group sub-reply fragments of a cross-group
        #: operation, whose marker sequence numbers come from *different*
        #: logs' sequence spaces.  None with one log: the verifier then
        #: insists on one global op_seq.
        self.log_of_shard = (log_registry.log_of
                             if config.multilog.enabled else None)
        #: last known primary view per log (the inherited ``_last_known_view``
        #: always describes ``_current_log``)
        self._log_views: Dict[int, int] = {}
        self._current_log = 0
        self.log_retargets = 0
        self._expected_shard: Optional[int] = None
        self._pending_operation: Optional[Operation] = None
        #: in-flight cross-shard operation: the original (unstamped)
        #: operation, its touched shards, and the epoch-retry count
        self._pending_cross: Optional[Dict[str, Any]] = None
        self.misrouted_replies = 0
        self.epoch_advances = 0
        self.cross_shard_completed = 0
        self.cross_shard_retries = 0
        self.invalid_cross_shard_replies = 0
        self.collator_equivocations = 0
        self.metrics.register_probe("shardclient.state", lambda: {
            "epoch": self.epoch,
            "epoch_advances": self.epoch_advances,
            "misrouted_replies": self.misrouted_replies,
            "cross_shard_completed": self.cross_shard_completed,
            "cross_shard_retries": self.cross_shard_retries,
            "invalid_cross_shard_replies": self.invalid_cross_shard_replies,
            "collator_equivocations": self.collator_equivocations,
        })

    def _issue(self, operation: Operation, timestamp: int,
               callback: Optional[Callable[[CompletedRequest], None]],
               issued_at: Optional[float] = None) -> None:
        self._pending_operation = operation
        touched = self.router.shards_of_operation_keys(operation,
                                                       epoch=self.epoch)
        logs = self._aim_at_logs(touched)
        if len(touched) > 1:
            problem = self._cross_shard_problem(operation)
            if problem is not None:
                # Fail the request locally instead of raising: _issue also
                # runs inside the reply path (queued submissions pop when
                # the outstanding request completes), where an exception
                # would tear down the whole event dispatch.
                self._fail_locally(operation, timestamp, callback,
                                   issued_at, problem)
                return
            operation = self._issue_cross_shard(operation, touched)
        else:
            self._pending_cross = None
            self._expect_shard(touched[0])
        super()._issue(operation, timestamp, callback, issued_at=issued_at)
        # A cross-group marker must be *ordered by every touched log*: the
        # inherited submission reached logs[0]'s primary guess; copy the
        # same signed envelope to each other touched log's.
        for log in logs[1:]:
            cluster = self.log_agreement_ids[log]
            view = self._log_views.get(log, 0)
            self.send(cluster[view % len(cluster)], self._pending.envelope)

    def _aim_at_logs(self, shards: List[int]) -> Tuple[int, ...]:
        """Point the inherited submission machinery at the first log that
        orders one of ``shards`` (by the newest log map); returns them all."""
        logs = tuple(sorted({self.log_registry.log_of(shard)
                             for shard in shards}))
        if logs[0] != self._current_log:
            self._log_views[self._current_log] = self._last_known_view
            self._current_log = logs[0]
            self.agreement_ids = self.log_agreement_ids[logs[0]]
            self._last_known_view = self._log_views.get(logs[0], 0)
            self.log_retargets += 1
        return logs

    def _on_timeout(self, timestamp: int) -> None:
        pending = self._pending
        if pending is None or pending.timestamp != timestamp:
            return
        # Re-derive the owning logs from the newest map: a log-map change
        # may have moved a shard mid-flight, and the new owner's cluster is
        # the one that can still answer (its reply tables dedup a request
        # the old owner already executed).
        logs = self._aim_at_logs(self.router.shards_of_operation_keys(
            self._pending_operation, epoch=self.epoch))
        super()._on_timeout(timestamp)
        for log in logs[1:]:
            self.multicast(self.log_agreement_ids[log], pending.envelope)

    def _cross_shard_problem(self, operation: Operation) -> Optional[str]:
        """Why a multi-shard operation cannot be issued (None = it can)."""
        if not self.config.cross_shard.enabled:
            return ("operation touches multiple shards but cross-shard "
                    "operations are disabled (CrossShardConfig.enabled)")
        keys = self.router.keys_of_operation(operation) or ()
        if len(keys) > self.config.cross_shard.max_keys:
            return (f"cross-shard operation touches {len(keys)} keys "
                    f"(max_keys is {self.config.cross_shard.max_keys})")
        if (self.config.multilog.enabled and operation.kind == "txn"
                and operation.args.get("reads")):
            # Under multi-log ordering a read-validating transaction's vote
            # round could deadlock against another ordered inversely by a
            # different log, so the system refuses them outright (see
            # README "Multi-log ordering").  Snapshot reads and write-only
            # transactions remain fully supported across log groups.
            return ("read-validating cross-shard transactions are not "
                    "supported under multi-log ordering (multilog.num_logs "
                    "> 1); use multi_get + write-only txn")
        return None

    def _fail_locally(self, operation: Operation, timestamp: int,
                      callback: Optional[Callable[[CompletedRequest], None]],
                      issued_at: Optional[float], error: str) -> None:
        """Complete a request with a local error without touching the wire."""
        record = CompletedRequest(
            timestamp=timestamp, operation=operation,
            result=OperationResult(value=None, error=error),
            issued_at_ms=self.now if issued_at is None else issued_at,
            completed_at_ms=self.now, seq=0, view=self._last_known_view)
        self.completed.append(record)
        if callback is not None:
            callback(record)
        self._issue_next_queued()

    def _issue_cross_shard(self, operation: Operation,
                           touched: List[int]) -> Operation:
        """Prepare a multi-shard operation: pin this client's epoch cursor
        into the signed request (the cut judges it -- a rebalance racing
        the marker aborts deterministically instead of answering from a
        torn key->shard assignment) and expect the assembled reply from the
        deterministic collator, the lowest touched shard."""
        self._pending_cross = {"operation": operation, "pinned": self.epoch,
                               "touched": list(touched), "retries": 0}
        self._expect_shard(min(touched))
        return dataclasses.replace(
            operation, args={**operation.args, "epoch": self.epoch})

    def _expect_shard(self, shard: int) -> None:
        """Scope the inherited quorum counting to the owning shard: only its
        replicas may contribute the g + 1 matching authenticators."""
        self._expected_shard = shard
        self.reply_universe = self.shard_execution_ids[shard]
        if self.shard_threshold_groups is not None:
            self.threshold_group = self.shard_threshold_groups[shard]

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, CrossShardReply):
            self.handle_cross_shard_reply(sender, message)
            return
        if isinstance(message, ClientReply):
            if self._pending_cross is not None:
                # A cross-shard operation normally completes only through
                # the sub-certified assembled reply; stray per-shard
                # replies (e.g. a reply-table placeholder re-served on a
                # duplicate) must not satisfy the ordinary quorum counting.
                # The one exception: a rebalance cut merged the operation's
                # keys onto a single shard before the marker released, so
                # it executed as an ordinary request there.  Such replies
                # feed the ordinary quorum machinery -- scoped to the one
                # claimed shard -- but the cross-shard expectation is kept
                # until a full quorum actually completes, so a single
                # forged reply can neither complete nor wedge the client.
                if self._collapse_candidate(message):
                    super().on_message(sender, message)
                return
            self._maybe_advance_epoch(message)
            if self._is_misrouted(message):
                self.misrouted_replies += 1
                return
        super().on_message(sender, message)

    def _collapse_candidate(self, message: ClientReply) -> bool:
        """Whether a normal reply plausibly answers a pending multi-shard
        operation that became single-shard.

        A rebalance cut ordered *after* submission can merge every key of
        the operation onto one shard; the release-time router then routes
        it as an ordinary request and normal per-shard replies come back.
        The claim steers quorum counting only when it is consistent: the
        reply's epoch must be at least the pinned epoch (an older epoch
        could never have re-routed a request pinned later), exist in the
        agreed map history, and map the operation's keys to exactly the one
        shard the reply names.  Steering completes nothing by itself -- the
        reply still needs ``g + 1`` matching authenticators from that
        shard's replicas, so a forged claim from one Byzantine replica buys
        nothing: the cross-shard path stays armed until a real quorum
        completes the request.
        """
        cross = self._pending_cross
        if cross is None or self._answer_to_pending(message) is None:
            return False
        body = message.body
        if body.epoch is None or body.shard is None:
            return False
        if body.epoch < cross["pinned"]:
            return False
        if body.epoch != 0:
            registry = getattr(self.router.partitioner, "registry", None)
            if registry is None or not registry.has_epoch(body.epoch):
                return False
        try:
            shards = self.router.shards_of_operation_keys(cross["operation"],
                                                          epoch=body.epoch)
        except KeyError:
            return False
        if len(shards) != 1 or body.shard != shards[0]:
            return False
        if body.epoch > self.epoch:
            self.epoch = body.epoch
            self.epoch_advances += 1
        self._expect_shard(shards[0])
        return True

    def _complete(self, pending, reply, body, groups=()) -> None:
        # Any completion -- assembled cross-shard reply, collapsed ordinary
        # quorum, or local failure -- retires the cross expectation before
        # the next queued submission issues.
        self._pending_cross = None
        super()._complete(pending, reply, body, groups)

    # ------------------------------------------------------------------ #
    # Cross-shard replies.
    # ------------------------------------------------------------------ #

    def handle_cross_shard_reply(self, sender: NodeId,
                                 message: CrossShardReply) -> None:
        """Accept an assembled cross-shard reply on sub-certificate evidence.

        The collator's summary is never trusted: the client re-derives the
        result from the per-shard ``g + 1``-certified fragments and rejects
        a reply whose summary disagrees -- an equivocating collator is
        detected, not believed.  Every fragment must name the same status,
        epoch, and marker sequence number, the fragment shards must be
        exactly the operation's touched set at the reply's epoch, and each
        fragment needs ``g + 1`` valid signers from its own shard's
        replicas (the same per-shard quorum discipline ordinary replies
        use).
        """
        pending = self._pending
        cross = self._pending_cross
        if pending is None or cross is None:
            return
        if (message.client != self.node_id
                or message.timestamp != pending.timestamp):
            return
        bodies = self._verified_sub_bodies(message, pending.timestamp)
        if bodies is None:
            self.invalid_cross_shard_replies += 1
            return
        first = bodies[0]
        merged: Dict[str, Any] = {}
        for body in sorted(bodies, key=lambda body: body.shard):
            merged.update(body.values)
        if message.assembled != merged:
            self.collator_equivocations += 1
            self.invalid_cross_shard_replies += 1
            return
        if first.status == "epoch-retry":
            self._handle_epoch_retry(pending, cross, first.epoch)
            return
        if first.epoch > self.epoch:
            self.epoch = first.epoch
            self.epoch_advances += 1
        operation: Operation = cross["operation"]
        if first.status == "ok":
            result = OperationResult(value={"values": merged},
                                     size=16 + 16 * len(merged))
        elif first.status in ("committed", "aborted"):
            result = OperationResult(value={"committed":
                                            first.status == "committed",
                                            "observed": merged},
                                     size=24 + 16 * len(merged))
        else:
            result = OperationResult(value=None,
                                     error=f"cross-shard {first.status}")
        self._complete_cross(pending, first.view, first.op_seq, result, tuple(
            (body.shard, body.log) for body in bodies if body.log is not None))

    def _verified_sub_bodies(self, message: CrossShardReply,
                             timestamp: int) -> Optional[List[SubReplyBody]]:
        bodies: List[SubReplyBody] = []
        for certificate in message.sub_certificates:
            body = certificate.payload
            if not isinstance(body, SubReplyBody):
                return None
            bodies.append(body)
        if not bodies:
            return None
        first = bodies[0]
        for body in bodies:
            if body.client != self.node_id or body.timestamp != timestamp:
                return None
        if not sub_reply_rounds_consistent(bodies, self.log_of_shard):
            return None
        if first.epoch != 0:
            registry = getattr(self.router.partitioner, "registry", None)
            if registry is None or not registry.has_epoch(first.epoch):
                return None
        operation = (self._pending_cross or {}).get("operation")
        if operation is None:
            return None
        try:
            expected = self.router.shards_of_operation_keys(operation,
                                                            epoch=first.epoch)
        except KeyError:
            return None
        if sorted(body.shard for body in bodies) != expected:
            return None
        for certificate, body in zip(message.sub_certificates, bodies):
            signers = self.crypto.valid_signers(
                certificate, self.shard_execution_ids[body.shard])
            if len(signers) < self.config.reply_quorum:
                return None
        return bodies

    def _handle_epoch_retry(self, pending, cross: Dict[str, Any],
                            new_epoch: int) -> None:
        """A certified deterministic abort: the operation's pinned epoch
        went stale under a rebalance cut.  Adopt the newer epoch and
        transparently re-issue on it (bounded by the retry limit)."""
        if new_epoch > self.epoch:
            self.epoch = new_epoch
            self.epoch_advances += 1
        if cross["retries"] >= self.config.cross_shard.retry_limit:
            self._complete_cross(pending, 0, 0, OperationResult(
                value=None, error="cross-shard epoch retry limit exceeded"))
            return
        retries = cross["retries"] + 1
        self.cross_shard_retries += 1
        if pending.timer is not None:
            pending.timer.cancel()
        self._pending = None
        self._pending_cross = None
        timestamp = self._next_timestamp
        self._next_timestamp += 1
        # Per-client timestamps must stay monotone in *issue* order, and
        # queued submissions were numbered at submit time -- renumber them
        # past the retry's fresh timestamp or the replicas would treat them
        # as retransmissions of the already-answered retry.
        self._queue = [
            (queued, self._next_timestamp + offset, queued_callback,
             submitted_at)
            for offset, (queued, _, queued_callback, submitted_at)
            in enumerate(self._queue)
        ]
        self._next_timestamp += len(self._queue)
        self._issue(cross["operation"], timestamp, pending.callback,
                    issued_at=pending.issued_at_ms)
        if self._pending_cross is not None:
            self._pending_cross["retries"] = retries

    def _complete_cross(self, pending, view: int, seq: int,
                        result: OperationResult,
                        groups: Tuple[Tuple[int, int], ...] = ()) -> None:
        reply = ReplyBody(view=view, seq=seq, timestamp=pending.timestamp,
                          client=self.node_id, result=result)
        body = BatchReplyBody(view=view, seq=seq, replies=(reply,),
                              shard=self._expected_shard, epoch=self.epoch)
        self._pending_cross = None
        self.cross_shard_completed += 1
        self._complete(pending, reply, body, groups)

    def _maybe_advance_epoch(self, message: ClientReply) -> None:
        """Adopt a newer epoch claimed by a reply for our pending request.

        The claim must be *consistent* before it steers quorum counting: the
        epoch has to exist in the agreed map history and map the pending
        operation's key to the very shard the reply names.  Adoption alone
        completes nothing -- the reply still needs ``g + 1`` matching
        authenticators from the named shard's replicas, which correct nodes
        only produce for bodies (epoch included) they actually executed.
        """
        if self._answer_to_pending(message) is None:
            return
        body = message.body
        if body.epoch is None or body.epoch <= self.epoch or body.shard is None:
            return
        registry = getattr(self.router.partitioner, "registry", None)
        if registry is None or not registry.has_epoch(body.epoch):
            return
        if self._pending_operation is None:
            return
        expected = self.router.shard_of_operation(self._pending_operation,
                                                  epoch=body.epoch)
        if body.shard != expected:
            return
        self.epoch = body.epoch
        self.epoch_advances += 1
        self._expect_shard(expected)

    def _is_misrouted(self, message: ClientReply) -> bool:
        """A reply for our outstanding request claiming the wrong shard."""
        return (self._answer_to_pending(message) is not None
                and message.body.shard != self._expected_shard)
