"""A sharded client's multi-shard operations.

:class:`~repro.core.client.ClientNode` is the one client of every
deployment.  Built with a router, it builds the part here,
:class:`CrossShardRequests`, which takes over wherever an operation
touches more than one shard:

* **at issue**, it refuses what cannot be issued (cross-shard operations
  off, too many keys, a read-validating transaction under multi-log
  ordering) and pins the client's epoch cursor into the signed request --
  the cut judges it, so a rebalance racing the marker aborts
  deterministically instead of answering from a torn key -> shard map;
* **on the assembled reply**, it trusts nothing but the per-shard
  ``g + 1``-certified fragments: it re-derives the result from them and
  rejects a collator whose summary disagrees;
* **on a certified epoch retry** (the pinned epoch went stale under a
  rebalance cut), it adopts the newer epoch and re-issues, up to the retry
  limit;
* **on a collapse** -- a cut merged every key onto one shard before the
  marker released, so ordinary replies come back -- it lets those replies
  count, scoped to the one shard a consistent claim names.

The ``ShardAwareClient`` name is kept as an alias of ``ClientNode``: the
performance ledger's tracer (``benchmarks/ledger/spans.py``) resolves it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from ..core.client import ClientNode, _PendingRequest
from ..messages.reply import BatchReplyBody
from ..net.message import Message
from ..statemachine.interface import Operation, OperationResult
from .messages import CrossShardReply, SubReplyBody, sub_reply_rounds_consistent

ShardAwareClient = ClientNode


@dataclasses.dataclass
class CrossShardRequest:
    """A pending multi-shard operation's state."""

    #: the operation as submitted (the request carries it epoch-stamped)
    operation: Operation
    #: the client's epoch cursor when the request was signed
    pinned: int
    retries: int = 0


class CrossShardRequests:
    """The multi-shard operation path of one sharded :class:`ClientNode`."""

    def __init__(self, client: ClientNode) -> None:
        self.client = client
        client.metrics.register_probe("shardclient.state", lambda: {
            "epoch": client.epoch,
            "epoch_advances": client.epoch_advances,
            "misrouted_replies": client.misrouted_replies,
            "cross_shard_completed": client.cross_shard_completed,
            "cross_shard_retries": client.cross_shard_retries,
            "invalid_cross_shard_replies": client.invalid_cross_shard_replies,
            "collator_equivocations": client.collator_equivocations,
        })

    # ------------------------------------------------------------------ #
    # Issue.
    # ------------------------------------------------------------------ #

    def problem(self, operation: Operation) -> Optional[str]:
        """Why a multi-shard operation cannot be issued (None = it can)."""
        config = self.client.config
        if not config.cross_shard.enabled:
            return ("operation touches multiple shards but cross-shard "
                    "operations are disabled (CrossShardConfig.enabled)")
        keys = self.client.router.keys_of_operation(operation) or ()
        if len(keys) > config.cross_shard.max_keys:
            return (f"cross-shard operation touches {len(keys)} keys "
                    f"(max_keys is {config.cross_shard.max_keys})")
        if (config.multilog.enabled and operation.kind == "txn"
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

    def pin(self, operation: Operation) -> Tuple[Operation, CrossShardRequest]:
        """The operation stamped with the client's epoch, and its state."""
        epoch = self.client.epoch
        return (dataclasses.replace(operation,
                                    args={**operation.args, "epoch": epoch}),
                CrossShardRequest(operation=operation, pinned=epoch))

    # ------------------------------------------------------------------ #
    # Replies.
    # ------------------------------------------------------------------ #

    def collapses(self, pending: _PendingRequest, body: BatchReplyBody) -> bool:
        """Whether an ordinary reply to the pending multi-shard operation
        may count towards its quorum.

        A rebalance cut ordered *after* submission can merge every key of
        the operation onto one shard; the release-time router then routes
        it as an ordinary request.  The claim steers quorum counting only
        when it is consistent: the reply's epoch is at least the pinned one
        (an older epoch could never have re-routed a request pinned later)
        and maps the operation's keys to exactly the one shard the reply
        names.  Steering completes nothing by itself -- the reply still
        needs ``g + 1`` matching authenticators from that shard's replicas,
        and the cross-shard path stays armed until a real quorum completes
        the request, so a single forged reply can neither complete nor
        wedge the client.
        """
        client = self.client
        if body.epoch is None or body.epoch < pending.cross.pinned:
            return False
        if client._shards_at(pending, body.epoch) != [body.shard]:
            return False
        client._adopt_epoch(body.epoch)
        client._expect(pending, body.shard)
        return True

    def on_message(self, message: Message) -> None:
        """Accept an assembled cross-shard reply on sub-certificate evidence.

        The collator's summary is never trusted: the result is re-derived
        from the per-shard certified fragments, and a reply whose summary
        disagrees is rejected -- an equivocating collator is detected, not
        believed.
        """
        client = self.client
        pending = client._pending
        if (not isinstance(message, CrossShardReply) or pending is None
                or pending.cross is None or message.client != client.node_id
                or message.timestamp != pending.timestamp):
            return
        bodies = self._verified_sub_bodies(pending, message)
        if bodies is None:
            client.invalid_cross_shard_replies += 1
            return
        first = bodies[0]
        merged: Dict[str, Any] = {}
        for body in sorted(bodies, key=lambda body: body.shard):
            merged.update(body.values)
        if message.assembled != merged:
            client.collator_equivocations += 1
            client.invalid_cross_shard_replies += 1
            return
        if first.status == "epoch-retry":
            self._retry(pending, first.epoch)
            return
        client._adopt_epoch(first.epoch)
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
        self._complete(pending, result, first.op_seq, first.view, tuple(
            (body.shard, body.log) for body in bodies if body.log is not None))

    def _verified_sub_bodies(self, pending: _PendingRequest,
                             message: CrossShardReply
                             ) -> Optional[List[SubReplyBody]]:
        """The certified fragments, if they form one answer: same status,
        epoch and marker sequence number (per log), exactly the shards the
        operation touches at that epoch, and ``g + 1`` valid signers on each
        from its own shard's replicas."""
        client = self.client
        bodies = [certificate.payload for certificate in message.sub_certificates]
        if not bodies or not all(
                isinstance(body, SubReplyBody) and body.client == client.node_id
                and body.timestamp == pending.timestamp for body in bodies):
            return None
        if not sub_reply_rounds_consistent(bodies):
            return None
        expected = client._shards_at(pending, bodies[0].epoch)
        if expected is None or sorted(body.shard for body in bodies) != expected:
            return None
        for certificate, body in zip(message.sub_certificates, bodies):
            signers = client.crypto.valid_signers(
                certificate, client.reply_clusters[body.shard])
            if len(signers) < client.config.reply_quorum:
                return None
        return bodies

    def _retry(self, pending: _PendingRequest, epoch: int) -> None:
        """A certified deterministic abort: the operation's pinned epoch
        went stale under a rebalance cut.  Adopt the newer epoch and
        transparently re-issue on it (bounded by the retry limit)."""
        client, cross = self.client, pending.cross
        client._adopt_epoch(epoch)
        if cross.retries >= client.config.cross_shard.retry_limit:
            self._complete(pending, OperationResult(
                value=None, error="cross-shard epoch retry limit exceeded"),
                0, 0)
            return
        client.cross_shard_retries += 1
        if pending.timer is not None:
            pending.timer.cancel()
        client._pending = None
        timestamp = client._next_timestamp
        client._next_timestamp += 1
        # Per-client timestamps must stay monotone in *issue* order, and
        # queued submissions were numbered at submit time -- renumber them
        # past the retry's fresh timestamp or the replicas would treat them
        # as retransmissions of the already-answered retry.
        client._queue = [
            (queued, client._next_timestamp + offset, queued_callback,
             submitted_at)
            for offset, (queued, _, queued_callback, submitted_at)
            in enumerate(client._queue)
        ]
        client._next_timestamp += len(client._queue)
        client._issue(cross.operation, timestamp, pending.callback,
                      issued_at=pending.issued_at_ms)
        if client._pending is not None and client._pending.cross is not None:
            client._pending.cross.retries = cross.retries + 1

    def _complete(self, pending: _PendingRequest, result: OperationResult,
                  seq: int, view: int,
                  groups: Tuple[Tuple[int, int], ...] = ()) -> None:
        self.client.cross_shard_completed += 1
        self.client._complete(pending, result, seq, view, groups)
