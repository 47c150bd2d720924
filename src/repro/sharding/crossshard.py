"""A shard replica's cross-shard participant: operations at the consistent cut.

A cross-shard operation travels whole, as one *marker* batch, to every
cluster it touches; each executes its slice at the marker's shard-local
slot, so its state is the agreed prefix below the marker -- the consistent
cut.  A read-validating transaction first exchanges certified read-set
observations with the peer shards (the vote round, a
:class:`~repro.sharding.cut.ShareExchange`).  Every touched cluster sends
its certified sub-reply fragment to all of them, each collates, and the
lowest touched shard answers the client; a duplicate marker re-serves both
instead of re-executing, which is also the crashed-collator fallover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import AuthenticationScheme
from ..crypto.certificate import Certificate
from ..messages.reply import ReplyBody
from ..messages.request import ClientRequest
from ..obs import request_trace_id
from ..statemachine.interface import OperationResult
from ..util.ids import NodeId, Role
from .cut import ShareExchange
from .messages import (
    CrossShardReply,
    CrossShardSubReply,
    CrossShardVote,
    CrossShardVoteFetch,
    ShardLocalBatch,
    SubReplyBody,
    sub_reply_rounds_consistent,
    vote_payload,
)

#: (epoch, client, timestamp) identifying one cross-shard transaction's votes
TxnKey = Tuple[int, NodeId, int]

#: cap on *tentative* collations (sub-reply fragments buffered before this
#: replica's own marker execution names the touched set)
_COLLATION_BUFFER_CAP = 64

#: cap on distinct not-yet-certified fragment collectors per collation (a
#: Byzantine sender varying the body gets one collector per digest)
_COLLECTOR_CAP = 32


@dataclass
class _Collation:
    """Per-client assembly state for one cross-shard operation's sub-replies.

    Every touched cluster's replicas run one of these (not just the
    collator's): partial sub-certificates are merged per ``(shard, body
    digest)`` until ``g + 1`` distinct signers of that shard vouch for the
    fragment, and once every touched shard is certified the assembled
    reply is cached -- the collator sends it immediately, the other
    clusters re-serve it when a duplicate marker signals the client is
    still waiting (the crashed-collator fallover path).
    """

    timestamp: int
    #: touched shards, known once this replica executes its own marker slot
    touched: Optional[List[int]] = None
    collectors: Dict[Tuple[int, bytes], Certificate] = field(default_factory=dict)
    #: each touched shard's certified fragment (its payload is the body)
    full: Dict[int, Certificate] = field(default_factory=dict)
    reply: Optional[CrossShardReply] = None


class CrossShardOperations(ShareExchange):
    """Cross-shard vote round: each replica of a touched cluster sends its
    read-set observations at the marker (:class:`CrossShardVote`), keyed
    ``(epoch, client, timestamp)``; plus the sub-reply collation."""

    label = "vote-fetch"

    def __init__(self, node) -> None:
        super().__init__(node)
        #: latest own sub-reply per client (duplicate-marker resends)
        self._sub_replies: Dict[NodeId, CrossShardSubReply] = {}
        #: collation state per (client, timestamp) -- keyed exactly, so a
        #: forged fragment with an inflated timestamp can only waste one
        #: bounded tentative slot, never displace genuine assembly state
        self._collations: Dict[Tuple[NodeId, int], _Collation] = {}
        self.executed = 0
        self.commits = 0
        self.aborts = 0
        self.epoch_aborts = 0
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
            # the assembled reply): consume the slot and re-serve the cached
            # sub-reply and collation instead of re-executing -- this resend
            # path is also how a crashed collator's duty falls over to the
            # surviving touched clusters.
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
            self._complete(local, request, touched, *outcome)
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
                  touched: List[int], status: str,
                  values: Dict[str, Any]) -> None:
        """Emit this shard's certified sub-reply fragment.

        The fragment body is sender-agnostic, so ``g + 1`` matching partials
        from this cluster certify it; partials go to *every* touched
        cluster's replicas (each assembles the full collation) and the
        exactly-once reply-table entry makes duplicates replay the cached
        fragment instead of re-executing -- including across range handoffs,
        which migrate the table.
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
        verifiers = [replica for shard in touched
                     for replica in node.shard_execution_ids[shard]]
        verifiers.append(request.client)
        certificate = Certificate(payload=body, scheme=AuthenticationScheme.MAC)
        certificate.add(node.crypto.mac_authenticator(body, verifiers))
        message = CrossShardSubReply(body=body, certificate=certificate,
                                     sender=node.node_id)
        self._sub_replies[request.client] = message
        collation = self._collations.setdefault(
            (request.client, request.timestamp), _Collation(request.timestamp))
        collation.touched = list(touched)
        # Older operations of this client are retired (it runs one at a
        # time); higher-timestamped tentative slots stay within their cap.
        self._collations = {
            stored_key: stored for stored_key, stored
            in self._collations.items()
            if stored_key[0] != request.client
            or stored_key[1] >= request.timestamp
        }
        node.multicast(self._replicas_of(touched), message)
        self.receive_sub_reply(node.node_id, message)
        # A slow executor may find every fragment (its own shard's
        # included) already certified from peers' partials; the touched set
        # only became known here, so the assembly must be retried now.
        self._try_collate(request.client, collation)

    def _replicas_of(self, shards) -> List[NodeId]:
        """Every replica of ``shards`` but this one."""
        return [replica for shard in shards
                for replica in self.node.shard_execution_ids[shard]
                if replica != self.node.node_id]

    def resend(self, client: NodeId, timestamp: int) -> None:
        """Re-serve the cached sub-reply (to the touched clusters) and, if
        this cluster holds the complete collation, the assembled reply (to
        the client) -- any surviving touched cluster answers a retrying
        client, collator or not."""
        sub = self._sub_replies.get(client)
        collation = self._collations.get((client, timestamp))
        if sub is not None and sub.body.timestamp == timestamp:
            touched = (collation.touched
                       if collation is not None and collation.touched else
                       range(len(self.node.shard_execution_ids)))
            self.node.multicast(self._replicas_of(touched), sub)
        if (collation is not None and collation.timestamp == timestamp
                and collation.reply is not None):
            self.node.send(client, collation.reply)
            self.replies_sent += 1

    def trim(self) -> None:
        """Drop vote tallies and collations of operations already resolved
        here (the reply table records the resolution; late duplicates
        replay it)."""
        reply_table = self.node.reply_table

        def live(client: NodeId, timestamp: int) -> bool:
            last = reply_table.get(client)
            return last is None or timestamp > last.timestamp

        self.prune(lambda key: live(key[1], key[2]))
        self._collations = {
            key: collation for key, collation in self._collations.items()
            if live(*key) or key[1] == reply_table[key[0]].timestamp
        }

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
            self._complete(local, request, touched,
                           "committed" if commit else "aborted", observed)

        self.block([(key, shard) for shard in touched if shard != node.shard],
                   lambda item, fragment: certified.update(fragment), decide)

    # ------------------------------------------------------------------ #
    # Sub-reply collation.
    # ------------------------------------------------------------------ #

    def receive_sub_reply(self, sender: NodeId,
                          message: CrossShardSubReply) -> None:
        node = self.node
        body = message.body
        if sender != message.sender:
            return
        if not 0 <= body.shard < len(node.shard_execution_ids):
            return
        if sender not in node.shard_execution_ids[body.shard]:
            return
        if body.client not in node.client_ids:
            return
        last = node.reply_table.get(body.client)
        if last is not None and body.timestamp < last.timestamp:
            return  # stale fragment of an operation this client moved past
        collation = self._collations.get((body.client, body.timestamp))
        if collation is None:
            # A tentative slot (own marker not executed yet): bounded, and
            # refusing at the cap is recoverable -- a duplicate marker
            # makes every touched replica re-serve its fragment.
            tentative = sum(1 for stored in self._collations.values()
                            if stored.touched is None)
            if tentative >= _COLLATION_BUFFER_CAP:
                return
            collation = self._collations.setdefault(
                (body.client, body.timestamp), _Collation(body.timestamp))
        if body.shard in collation.full:
            # Already certified (and possibly embedded in a sent reply):
            # never merge into an assembled certificate again.
            return
        digest = node.crypto.payload_digest(body)
        collector_key = (body.shard, digest)
        collector = collation.collectors.get(collector_key)
        if collector is None:
            if len(collation.collectors) >= _COLLECTOR_CAP:
                return
            collector = Certificate(payload=body,
                                    scheme=message.certificate.scheme)
            collation.collectors[collector_key] = collector
        collector.merge(message.certificate)
        valid = node.crypto.valid_signers(collector,
                                          node.shard_execution_ids[body.shard])
        if len(valid) < node.config.reply_quorum:
            return
        collation.full[body.shard] = collector
        collation.collectors = {
            stored: cert for stored, cert in collation.collectors.items()
            if stored[0] != body.shard
        }
        self._try_collate(body.client, collation)

    def _try_collate(self, client: NodeId, collation: _Collation) -> None:
        """Assemble the client reply once every touched shard is certified.

        Every touched cluster assembles (the certified fragments reach them
        all); only the deterministic collator -- the lowest touched shard --
        sends unprompted.  The others hold the assembled reply and serve it
        on a duplicate marker, which is the crashed-collator fallover.
        """
        if collation.touched is None or collation.reply is not None:
            return
        if any(shard not in collation.full for shard in collation.touched):
            return
        bodies = [collation.full[shard].payload for shard in collation.touched]
        first = bodies[0]
        if not sub_reply_rounds_consistent(bodies):
            return  # mixed rounds; the marker resend converges them
        assembled: Dict[str, Any] = {}
        for body in bodies:
            assembled.update(body.values)
        collation.reply = CrossShardReply(
            client=client, timestamp=collation.timestamp, status=first.status,
            epoch=first.epoch, collator_shard=min(collation.touched),
            sub_certificates=tuple(collation.full[shard]
                                   for shard in collation.touched),
            assembled=assembled, sender=self.node.node_id)
        if self.node.tracing:
            self.node.trace_event(request_trace_id(client, collation.timestamp),
                                  "collate")
        if self.node.shard == min(collation.touched):
            self.node.send(client, collation.reply)
            self.replies_sent += 1
