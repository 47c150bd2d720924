"""A shard replica's cross-shard participant: operations at the consistent cut.

A cross-shard operation travels whole, as one *marker* batch, to every
cluster it touches; each executes its slice at the marker's shard-local
slot, so its state is the agreed prefix below the marker -- the consistent
cut.  A read-validating transaction first exchanges certified read-set
observations with the peer shards (the vote round, a
:class:`~repro.sharding.cut.ShareExchange`).  Every replica of every
touched cluster then sends its sub-reply fragment to the client, which
assembles ``g + 1`` matching fragments per shard
(:class:`~repro.sharding.client.CrossShardRequests`); a duplicate marker
or a genuine retransmission of the marker's batch re-sends the cached fragment
instead of re-executing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..config import AuthenticationScheme
from ..messages.reply import ReplyBody
from ..messages.request import ClientRequest
from ..obs import request_trace_id
from ..statemachine.interface import OperationResult
from ..util.ids import NodeId, Role
from .cut import ShareExchange
from .messages import (
    CrossShardSubReply,
    CrossShardVote,
    CrossShardVoteFetch,
    ShardLocalBatch,
    SubReplyBody,
    vote_payload,
)

#: (epoch, client, timestamp) identifying one cross-shard transaction's votes
TxnKey = Tuple[int, NodeId, int]

class CrossShardOperations(ShareExchange):
    """Cross-shard vote round: each replica of a touched cluster sends its
    read-set observations at the marker (:class:`CrossShardVote`), keyed
    ``(epoch, client, timestamp)``; plus the sub-reply each replica sends
    the client."""

    label = "vote-fetch"

    def __init__(self, node) -> None:
        super().__init__(node)
        #: latest own sub-reply per client (duplicate-marker resends)
        self._sub_replies: Dict[NodeId, CrossShardSubReply] = {}
        self.executed = 0
        self.commits = 0
        self.aborts = 0
        self.epoch_aborts = 0
        #: sub-reply fragments sent to clients, first sends and re-sends
        #: (the ``cross_shard_replies_sent`` probe key)
        self.replies_sent = 0
        # Observability (passive: never charges, never schedules).
        self._h_vote_round = node.metrics.histogram("crossshard.vote_round_ms")

    # ------------------------------------------------------------------ #
    # The share.
    # ------------------------------------------------------------------ #

    def parse(self, message: CrossShardVote):
        return ((message.epoch, message.client, message.timestamp),
                message.shard,
                vote_payload(message.client, message.timestamp, message.shard,
                             message.epoch, message.observed),
                dict(message.observed))

    def vet(self, message: CrossShardVote, payload, blob, awaited: bool):
        last = self.node.reply_table.get(message.client)
        if (message.client not in self.node.client_ids
                or last is not None and message.timestamp <= last.timestamp):
            return None  # unknown client, or the transaction resolved here
        return self.node.crypto.digest(payload)

    def fetch_for(self, key: TxnKey) -> CrossShardVoteFetch:
        epoch, client, timestamp = key
        return CrossShardVoteFetch(client=client, timestamp=timestamp,
                                   epoch=epoch, shard=self.node.shard,
                                   replica=self.node.node_id)

    def fetch_key(self, message: CrossShardVoteFetch) -> TxnKey:
        return (message.epoch, message.client, message.timestamp)

    # ------------------------------------------------------------------ #
    # The marker.
    # ------------------------------------------------------------------ #

    def execute(self, local: ShardLocalBatch, touched: List[int]) -> None:
        """Execute this cluster's sub-operation of a cross-shard marker, and
        end the slot (``node.finish_marker_slot``).

        A write transaction first exchanges certified read-set observations
        with the peer shards so that every correct replica of every touched
        cluster computes the same commit/abort decision.
        """
        node = self.node
        certificate = local.request_certificates[0]
        request: ClientRequest = certificate.payload
        operation = request.operation_for(Role.EXECUTION)
        last = node.reply_table.get(request.client)
        if last is not None and request.timestamp <= last.timestamp:
            # A re-ordered duplicate (the client retransmitted after losing
            # fragments): consume the slot and re-serve the cached sub-reply
            # instead of re-executing.
            node.duplicate_requests += 1
            node.finish_marker_slot(local)
            self.resend(request.client, request.timestamp)
            return
        self.executed += 1
        if node.tracing:
            node.trace_event(request_trace_id(request.client, request.timestamp),
                             "execute")
        outcome = self._outcome(local, request, operation, touched)
        if outcome is not None:
            self._complete(local, request, *outcome)
        node.finish_marker_slot(local)

    def _key_owned(self, key: str) -> bool:
        node = self.node
        return node.router.partitioner.shard_of_key(key, node.epoch) == node.shard

    def _outcome(self, local: ShardLocalBatch, request: ClientRequest,
                 operation, touched: List[int]
                 ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """This shard's ``(status, values)`` for a cross-shard operation, or
        None for a transaction whose outcome now waits on its vote round."""
        node = self.node
        pinned = operation.args.get("epoch")
        if pinned is not None and pinned != node.epoch:
            # The pinned epoch went stale under the operation (a rebalance
            # cut raced the marker).  Every touched replica judges the same
            # (pinned, cut-epoch) pair, so the abort is deterministic; the
            # sub-reply's epoch tells the client what to retry on.
            self.epoch_aborts += 1
            return "epoch-retry", {}
        if operation.kind == "multi_get":
            return "ok", node.app.snapshot_read(
                [key for key in operation.args.get("keys", ())
                 if self._key_owned(key)])
        if operation.kind != "txn":
            # An unknown multi-key kind cannot be executed consistently.
            return "error", {}
        reads = dict(operation.args.get("reads", {}))
        writes = {key: value
                  for key, value in operation.args.get("writes", {}).items()
                  if self._key_owned(key)}
        if reads and node.config.multilog.enabled:
            # Read-validating transactions are refused under multi-log
            # ordering: two such markers ordered inversely by two logs
            # would deadlock their vote rounds (each cluster blocked at
            # its marker waiting for votes the other only emits past its
            # own block).  The refusal is a pure function of static
            # config and marker content, so every touched replica
            # refuses identically -- no vote round ever opens.  Clients
            # fail these locally; this branch is defence in depth
            # against one smuggled past a correct client.
            return "error", {}
        observed = node.app.snapshot_read(
            [key for key in reads if self._key_owned(key)])
        if not reads:
            # Write-only transaction: the commit decision is vacuous on
            # every shard, so no vote round -- each cluster applies its
            # slice at the marker and the cut makes it atomic.
            node.app.apply_writes(writes)
            self.commits += 1
            return "committed", {}
        self._open_vote_round(local, request, touched, reads, writes, observed)
        return None

    def _complete(self, local: ShardLocalBatch, request: ClientRequest,
                  status: str, values: Dict[str, Any]) -> None:
        """Send the client this replica's sub-reply fragment.

        The fragment body is sender-agnostic, so ``g + 1`` matching partials
        from this cluster certify it at the client; the exactly-once
        reply-table entry makes duplicates re-send the cached fragment
        instead of re-executing -- including across range handoffs, which
        migrate the table.
        """
        node = self.node
        body = SubReplyBody(client=request.client, timestamp=request.timestamp,
                            shard=node.shard, epoch=node.epoch,
                            view=local.view, op_seq=local.global_seq,
                            status=status, values=values, log=local.log)
        node.reply_table[request.client] = ReplyBody(
            view=local.view, seq=local.seq, timestamp=request.timestamp,
            client=request.client,
            result=OperationResult(value={"cross-shard": status}, size=8))
        certificate = node.crypto.new_certificate(body, AuthenticationScheme.MAC,
                                                  [request.client])
        self._sub_replies[request.client] = CrossShardSubReply(
            body=body, certificate=certificate, sender=node.node_id)
        self.resend(request.client, request.timestamp)

    def resend(self, client: NodeId, timestamp: int) -> None:
        """Send ``client`` the cached sub-reply for ``timestamp``, if any."""
        sub = self._sub_replies.get(client)
        if sub is not None and sub.body.timestamp == timestamp:
            self.node.send(client, sub)
            self.replies_sent += 1

    def trim(self) -> None:
        """Drop vote tallies of operations already resolved here (the reply
        table records the resolution; late duplicates replay it)."""
        reply_table = self.node.reply_table

        def live(client: NodeId, timestamp: int) -> bool:
            last = reply_table.get(client)
            return last is None or timestamp > last.timestamp

        self.prune(lambda key: live(key[1], key[2]))

    # ------------------------------------------------------------------ #
    # Cross-shard transactions: the read-set vote round.
    # ------------------------------------------------------------------ #

    def _open_vote_round(self, local: ShardLocalBatch, request: ClientRequest,
                         touched: List[int], reads: Dict[str, Any],
                         writes: Dict[str, Any],
                         observed: Dict[str, Any]) -> None:
        """Send this shard's read-set observations to the peer shards and
        block until theirs are certified.

        The commit decision -- every read key's certified observation equals
        its expected value -- is then a pure function of the agreed cut
        state, evaluated identically by every correct replica of every
        touched shard: aborts are deterministic and atomic by construction.
        Until it is known, execution past the marker is gated (the next
        batch could read keys the transaction is about to write).
        """
        node = self.node
        peers = [replica for shard in touched if shard != node.shard
                 for replica in node.shard_execution_ids[shard]]
        vote = CrossShardVote(
            client=request.client, timestamp=request.timestamp,
            shard=node.shard, epoch=node.epoch, observed=observed,
            replica=node.node_id,
            authenticator=node.crypto.mac_authenticator(
                vote_payload(request.client, request.timestamp, node.shard,
                             node.epoch, observed), peers))
        key: TxnKey = (node.epoch, request.client, request.timestamp)
        trace_id = request_trace_id(request.client, request.timestamp)
        if node.tracing:
            node.trace_event(trace_id, "vote_open")
        self.publish(key, vote, peers)
        certified = dict(observed)

        def decide(elapsed_ms: float) -> None:
            commit = all(certified.get(read_key) == expected
                         for read_key, expected in reads.items())
            if commit:
                node.app.apply_writes(writes)
                self.commits += 1
            else:
                self.aborts += 1
            self._h_vote_round.observe(elapsed_ms)
            if node.tracing:
                node.trace_event(trace_id, "vote_done")
            self._complete(local, request,
                           "committed" if commit else "aborted", observed)

        self.block([(key, shard) for shard in touched if shard != node.shard],
                   lambda item, fragment: certified.update(fragment), decide)
