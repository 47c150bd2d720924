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
* **on its fragments**, it trusts nothing but what ``g + 1`` replicas of
  each touched shard certify: every touched replica sends it its
  sub-reply fragment, and it assembles the answer from the certified
  fragments alone;
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
from typing import Any, Dict, Hashable, Optional, Tuple

from ..config import AuthenticationScheme
from ..core.client import ClientNode, _PendingRequest
from ..crypto.certificate import Certificate
from ..messages.reply import BatchReplyBody
from ..net.message import Message
from ..obs import request_trace_id
from ..statemachine.interface import Operation, OperationResult
from ..util.ids import NodeId
from .messages import CrossShardSubReply, SubReplyBody, sub_reply_rounds_consistent

ShardAwareClient = ClientNode


@dataclasses.dataclass
class CrossShardRequest:
    """A pending multi-shard operation's state."""

    #: the operation as submitted (the request carries it epoch-stamped)
    operation: Operation
    #: the client's epoch cursor when the request was signed
    pinned: int
    retries: int = 0
    #: partial sub-certificates merged per ``(shard, body digest)``
    collectors: Dict[Hashable, Optional[Certificate]] = dataclasses.field(
        default_factory=dict)
    #: each sender's live collector key: one per sender bounds ``collectors``
    senders: Dict[NodeId, Hashable] = dataclasses.field(default_factory=dict)
    #: each touched shard's certified fragment
    certified: Dict[int, SubReplyBody] = dataclasses.field(default_factory=dict)


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

    def on_message(self, sender: NodeId, message: Message) -> None:
        """Count one touched replica's sub-reply fragment towards its shard.

        Only the sender's own MAC counts, only towards the shard whose
        cluster it belongs to, and each sender holds one live collector key:
        a Byzantine replica varying its body moves its own entry, never
        crowds out an honest one.  A fragment for another client or another
        timestamp is dropped without being stored.
        """
        client = self.client
        pending = client._pending
        if (not isinstance(message, CrossShardSubReply) or pending is None
                or pending.cross is None):
            return
        body = message.certificate.payload
        mac = message.certificate.authenticators.get(sender)
        if (not isinstance(body, SubReplyBody) or mac is None
                or mac.scheme is not AuthenticationScheme.MAC
                or body.client != client.node_id
                or body.timestamp != pending.timestamp
                or not 0 <= body.shard < len(client.reply_clusters)
                or sender not in client.reply_clusters[body.shard]):
            return
        cross = pending.cross
        key = (body.shard, client.crypto.payload_digest(body))
        previous = cross.senders.get(sender)
        cross.senders[sender] = key
        if (previous not in (None, key)
                and cross.collectors.get(previous) is not None
                and previous not in cross.senders.values()):
            del cross.collectors[previous]
        if client.crypto.assemble(cross.collectors, key, message.certificate,
                                  sender, client.reply_clusters[body.shard],
                                  client.reply_quorum,
                                  AuthenticationScheme.MAC) is None:
            return
        cross.certified[body.shard] = body
        self._answer(pending, body)

    def _answer(self, pending: _PendingRequest, body: SubReplyBody) -> None:
        """Complete (or retry) once every shard the operation touches at the
        newly certified fragment's epoch is certified in one round."""
        client, cross = self.client, pending.cross
        expected = client._shards_at(pending, body.epoch)
        if expected is None or body.shard not in expected:
            client.invalid_cross_shard_replies += 1
            return
        if any(shard not in cross.certified for shard in expected):
            return
        bodies = [cross.certified[shard] for shard in expected]
        if not sub_reply_rounds_consistent(bodies):
            client.invalid_cross_shard_replies += 1
            return
        if client.tracing:
            client.trace_event(request_trace_id(client.node_id,
                                                pending.timestamp), "collate")
        first = bodies[0]
        if first.status == "epoch-retry":
            self._retry(pending, first.epoch)
            return
        client._adopt_epoch(first.epoch)
        merged: Dict[str, Any] = {}
        for fragment in bodies:
            merged.update(fragment.values)
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
            (fragment.shard, fragment.log) for fragment in bodies
            if fragment.log is not None))

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
