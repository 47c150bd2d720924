"""Execution replicas of one shard.

A :class:`ShardExecutionNode` is an ordinary
:class:`~repro.core.execution.ExecutionNode` whose peers are the ``2g + 1``
replicas of *its own shard* and whose sequence space is the shard-local one
assigned by the shard routers.  The node converts each incoming
:class:`~repro.sharding.messages.ShardedBatch` into a
:class:`~repro.sharding.messages.ShardLocalBatch` by re-deriving, with its own
router *at the envelope's partition-map epoch*, the subset of requests it
owns -- so the inherited pipeline (in-order execution, gap fetch, per-shard
checkpoints, reply cache, state transfer) runs unchanged on shard-local
sequence numbers, and a misrouted or tampered envelope is rejected rather
than executed.

Misroute rejection (counted in :attr:`ShardExecutionNode.misroutes`) fires
when:

* the envelope is addressed to a different shard,
* none of the batch's requests are owned by this shard at the claimed epoch
  (or the epoch itself is unknown -- a forged future epoch), or
* the owned subset claimed by a peer-transferred batch does not match the
  subset this node derives itself.

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

**Epoch cuts and range handoff.**  A rebalancing map change reaches every
cluster as a *marker* batch occupying one shard-local sequence number, so
the cut lands at a deterministic point of each replica's own in-order
execution.  Executing the marker (deterministically a no-op if the change
lost a race) bumps the replica's epoch and, per moved key range:

* the *losing* replica extracts the range's state exactly as of the cut
  (execution is in-order, so its state is the agreed pre-cut prefix) and
  sends a :class:`~repro.sharding.messages.RangeHandoff` share -- range
  entries plus its client-dedup reply table -- to every replica of the
  gaining cluster;
* the *gaining* replica blocks execution past the marker until ``g + 1``
  matching source shares certify the moved state, installs it, merges the
  reply table timestamp-monotonically (so a request executed pre-cut is
  answered from the table, never re-executed -- exactly-once survives the
  cut), and resumes.  A blocked replica re-requests the handoff on a timer
  (:class:`~repro.sharding.messages.RangeFetch`), and a replica that missed
  the cut entirely catches up through the ordinary state-transfer path:
  checkpoints carry the epoch (and post-cut state) under their ``g + 1``
  proof.

Checkpoints falling exactly on a cut are deferred until the cut resolves, so
a cluster's checkpoint digest at any sequence number is a deterministic
function of the agreed history -- never of message timing.  The protocol
itself (block, ``g + 1`` matching shares, fetch timer) is written once in
:mod:`repro.sharding.cut`; :class:`_RangeExchange` and :class:`_VoteExchange`
below only say what a handoff share and a cross-shard vote look like.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..config import AuthenticationScheme, SystemConfig
from ..core.execution import ExecutionNode
from ..crypto.certificate import Certificate
from ..crypto.keys import Keystore
from ..messages.agreement import OrderedBatch
from ..messages.checkpoint import BatchTransfer
from ..messages.reply import BatchReplyBody, ReplyBody
from ..messages.request import ClientRequest
from ..net.message import Message
from ..obs import request_trace_id
from ..sim.scheduler import Scheduler, Timer
from ..statemachine.interface import OperationResult, StateMachine
from ..util.ids import NodeId, Role
from .cut import Item, ShareExchange
from .messages import (
    CrossShardReply,
    CrossShardSubReply,
    CrossShardVote,
    CrossShardVoteFetch,
    MapChange,
    RangeFetch,
    RangeHandoff,
    RouteVoucher,
    ShardedBatch,
    ShardLocalBatch,
    SubReplyBody,
    config_op_of,
    cross_shard_request_of,
    handoff_payload,
    map_change_of,
    sub_reply_rounds_consistent,
    vote_payload,
)
from .rebalance import apply_map_change
from .router import ShardRouter

#: (epoch, lo, hi) identifying one moved key range
RangeKey = Tuple[int, Optional[str], Optional[str]]

#: vouched route binding for one shard-local slot: (agreement-certificate
#: body digest, routing epoch, ordering log -- None outside multi-log)
_RouteBinding = Tuple[bytes, int, Optional[int]]

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
    full: Dict[int, Certificate] = field(default_factory=dict)
    full_bodies: Dict[int, SubReplyBody] = field(default_factory=dict)
    reply: Optional[CrossShardReply] = None


class _RangeExchange(ShareExchange):
    """Range handoff: each replica of the losing cluster sends the moved
    range's state (:class:`RangeHandoff`), keyed ``(epoch, lo, hi)``."""

    label = "range-fetch"

    def parse(self, message: RangeHandoff):
        return ((message.epoch, message.lo, message.hi), message.source_shard,
                handoff_payload(message.epoch, message.lo, message.hi,
                                message.source_shard, message.target_shard,
                                message.state_digest),
                (message.entries, message.reply_table))

    def vet(self, message: RangeHandoff, payload, blob, awaited: bool):
        entries, reply_table = blob
        digest = self.node.crypto.digest(
            entries + reply_table, size_hint=len(entries) + len(reply_table))
        if digest != message.state_digest:
            return None
        if not awaited and message.epoch <= self.node.epoch:
            # A share for a cut already behind us that we are not blocked
            # on: a late duplicate of an installed handoff (the remaining
            # source replicas' redundant sends) or a range that was never
            # ours to gain.  Nothing left to install.
            return None
        return digest

    def fetch_for(self, key: RangeKey) -> RangeFetch:
        epoch, lo, hi = key
        return RangeFetch(epoch=epoch, target_shard=self.node.shard, lo=lo,
                          hi=hi, replica=self.node.node_id)

    def fetch_key(self, message: RangeFetch) -> RangeKey:
        return (message.epoch, message.lo, message.hi)


class _VoteExchange(ShareExchange):
    """Cross-shard vote round: each replica of a touched cluster sends its
    read-set observations at the marker (:class:`CrossShardVote`), keyed
    ``(epoch, client, timestamp)``."""

    label = "vote-fetch"

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


class ShardExecutionNode(ExecutionNode):
    """One of the ``2g + 1`` execution replicas of one shard."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, state_machine: StateMachine,
                 agreement_ids: List[NodeId], execution_ids: List[NodeId],
                 client_ids: List[NodeId], upstream: List[NodeId],
                 shard: int, router: ShardRouter,
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
        #: this replica's partition-map epoch (bumps exactly at cut markers)
        self.epoch = 0
        #: route-binding votes: shard_seq -> voter -> (envelope digest, epoch)
        self._route_votes: Dict[int, Dict[NodeId, _RouteBinding]] = {}
        #: shard_seq -> the accepted (f+1 / g+1 vouched) (digest, epoch)
        self._route_accepted: Dict[int, _RouteBinding] = {}
        #: shard_seq -> binding -> the body an envelope brought for it,
        #: held until the binding is vouched
        self._route_bodies: Dict[int, Dict[_RouteBinding, ShardLocalBatch]] = {}
        #: slots whose body is (or was) awaited one fetch period before it
        #: is asked for: shard_seq -> that period's timer
        self._bodies_awaited: Dict[int, Timer] = {}
        self._ranges = _RangeExchange(self)
        self._votes = _VoteExchange(self)
        #: the exchange whose shares this replica is blocked waiting for at
        #: a cut (inbound ranges of a map change, or a cross-shard
        #: transaction's peer votes); None lets in-order execution proceed
        self._blocked_on: Optional[ShareExchange] = None
        #: checkpoint that fell on the blocked cut's slot
        self._deferred_checkpoint: Optional[int] = None
        #: multi-log hooks (set by the system wiring when there are several
        #: agreement logs; both stay None with one).
        #: ``on_config_marker(node, op)`` runs after a non-partition config
        #: marker's slot bookkeeping -- it is how a log-map cut repoints
        #: this cluster's upstream log and advances ``log_map_epoch``.
        #: ``log_of_shard(shard) -> log`` groups cross-shard sub-reply
        #: fragments whose op_seq lives in per-log sequence spaces.
        self.on_config_marker = None
        self.log_of_shard = None
        self.log_map_epoch = 0

        # ---------------- Cross-shard operation state. ---------------- #
        #: latest own sub-reply per client (duplicate-marker resends)
        self._xs_sub_replies: Dict[NodeId, CrossShardSubReply] = {}
        #: collation state per (client, timestamp) -- keyed exactly, so a
        #: forged fragment with an inflated timestamp can only waste one
        #: bounded tentative slot, never displace genuine assembly state
        self._xs_collations: Dict[Tuple[NodeId, int], _Collation] = {}

        # Statistics used by benchmarks and tests.
        self.stale_epoch_batches = 0
        self.epoch_cuts_applied = 0
        self.ranges_sent = 0
        self.ranges_installed = 0
        self.cross_shard_executed = 0
        self.cross_shard_commits = 0
        self.cross_shard_aborts = 0
        self.cross_shard_epoch_aborts = 0
        self.cross_shard_replies_sent = 0

        # Observability (passive: never charges, never schedules).
        self._h_vote_round = self.metrics.histogram("crossshard.vote_round_ms")
        self._h_cut_install = self.metrics.histogram("rebalance.cut_install_ms")
        self._c_handoff_bytes = self.metrics.counter("rebalance.handoff_bytes")
        self._c_handoff_ranges = self.metrics.counter("rebalance.handoff_ranges")
        self.metrics.register_probe("shardexec.state", self._shard_exec_probe)

    @property
    def range_fetches(self) -> int:
        return self._ranges.fetches

    @property
    def vote_fetches(self) -> int:
        return self._votes.fetches

    def _shard_exec_probe(self) -> dict:
        """Snapshot of the shard replica's ad-hoc counters for the registry."""
        return {
            "shard": self.shard,
            "epoch": self.epoch,
            "misroutes": self.misroutes,
            "stale_epoch_batches": self.stale_epoch_batches,
            "epoch_cuts_applied": self.epoch_cuts_applied,
            "ranges_sent": self.ranges_sent,
            "ranges_installed": self.ranges_installed,
            "range_fetches": self.range_fetches,
            "cross_shard_executed": self.cross_shard_executed,
            "cross_shard_commits": self.cross_shard_commits,
            "cross_shard_aborts": self.cross_shard_aborts,
            "cross_shard_epoch_aborts": self.cross_shard_epoch_aborts,
            "cross_shard_replies_sent": self.cross_shard_replies_sent,
            "vote_fetches": self.vote_fetches,
            "awaiting_ranges": len(self._ranges.awaiting),
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
            elif self._ranges.receive(sender, message):
                self._advance_cut()
        elif isinstance(message, RangeFetch):
            self._ranges.serve(sender, message)
        elif isinstance(message, CrossShardSubReply):
            self.handle_cross_shard_sub_reply(sender, message)
        elif isinstance(message, CrossShardVote):
            if self._votes.receive(sender, message):
                self._advance_cut()
        elif isinstance(message, CrossShardVoteFetch):
            self._votes.serve(sender, message)
        else:
            super().on_message(sender, message)

    def handle_sharded_batch(self, sender: NodeId, message: ShardedBatch) -> None:
        if message.shard != self.shard:
            self.misroutes += 1
            return
        if not self._within_acceptance_window(message.shard_seq):
            # Bound the vote/pending tables: per-shard pipelining lets the
            # agreement cluster run far ahead in aggregate, and a Byzantine
            # agreement node could otherwise flood arbitrary future slots.
            # Legitimate far-ahead traffic is redelivered by the router
            # queues' retransmission timers once this replica catches up
            # (or it catches up wholesale via a stable checkpoint).
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
        if message.shard != self.shard:
            self.misroutes += 1
            return
        if not self._within_acceptance_window(message.shard_seq):
            return
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
        votes = self._route_votes.setdefault(seq, {})
        repeat = votes.get(sender) == binding
        votes[sender] = binding

        if seq <= self.max_executed:
            # Already executed (possibly via state transfer).  Resend the
            # reply certificate only on a *repeat* envelope from the same
            # sender -- that is a genuine retransmission, meaning our earlier
            # reply was lost; first contacts from other agreement nodes are
            # just their initial (now redundant) sends.
            if repeat and local is not None:
                self._resend_replies(local)
            return
        accepted = self._route_accepted.get(seq)
        if accepted is not None:
            if accepted != binding:
                self.misroutes += 1
                if accepted[0] == binding[0]:
                    self.stale_epoch_batches += 1
            return
        bodies = self._route_bodies.setdefault(seq, {})
        if local is not None:
            held = set(votes.values())
            for stale in [kept for kept in bodies if kept not in held]:
                del bodies[stale]
            bodies[binding] = local
        if not self._binding_vouched(votes, binding):
            return
        local = bodies.get(binding)
        if local is not None:
            self.handle_ordered_batch(local)
            if local.seq in self.pending or self.max_executed >= local.seq:
                self._route_accepted[seq] = binding
                del self._route_bodies[seq]
                awaited = self._bodies_awaited.get(seq)
                if awaited is not None and awaited.active:
                    awaited.cancel()
                    del self._fetching[seq]
                return
            del bodies[binding]  # it failed validation; a later copy may not
        self._request_missing(seq)

    def _request_missing(self, seq: int) -> None:
        """Ask for a missing slot -- but the body of a slot agreement nodes
        already vote for is on its way from the primary, which alone sends
        it and which the network may deliver out of order, late or not at
        all: it gets one fetch period first."""
        if (seq not in self._route_votes or seq in self._bodies_awaited
                or self._fetching.get(seq)):
            super()._request_missing(seq)
            return
        self._fetching[seq] = True
        self._bodies_awaited[seq] = self.set_timer(
            self.config.timers.execution_fetch_ms,
            lambda: self._retry_missing(seq),
            label=f"{self.node_id}:await-body:{seq}")

    def _fetch_targets(self, seq: int) -> List[NodeId]:
        """The peers, and the agreement nodes that vouched for the slot:
        until the slot is answered each still holds the envelope, which it
        sends back (a primary that state-transferred past the batch never
        sent its body at all)."""
        voters = [voter for voter in self._route_votes.get(seq, ())
                  if voter in self.agreement_ids]
        return super()._fetch_targets(seq) + voters

    def _within_acceptance_window(self, shard_seq: int) -> bool:
        """Whether a routed slot is near enough to buffer.

        The window is generous (twice the checkpoint interval, or twice the
        pipeline window if that is larger) so it never constrains a healthy
        pipeline; it exists purely to keep the route-vote and pending
        tables bounded against floods.
        """
        window = max(2 * self.config.checkpoint_interval,
                     2 * self.config.pipeline_depth)
        return shard_seq <= self.max_executed + window

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

    def _localize(self, message: ShardedBatch) -> Optional[ShardLocalBatch]:
        """Build this shard's view of the envelope (None if nothing is owned).

        The three batch kinds differ only in the owned subset: an epoch-cut
        marker owns no client requests (the cut semantics execute at its
        shard-local slot), a cross-shard marker travels whole (each touched
        cluster re-derives its owned key subset at execution), and an
        ordinary batch owns the requests this node's router maps here.
        """
        batch = message.batch
        if config_op_of(batch.request_certificates) is not None:
            owned: Tuple = ()
        elif self._cross_touched(batch.request_certificates,
                                 message.epoch) is not None:
            owned = batch.request_certificates
        else:
            owned = self._owned_requests(batch.request_certificates,
                                         message.epoch)
            if not owned:
                return None
        return ShardLocalBatch(
            shard=self.shard, seq=message.shard_seq, global_seq=batch.seq,
            view=batch.view, request_certificates=owned,
            full_request_certificates=batch.request_certificates,
            agreement_certificate=batch.agreement_certificate,
            nondet=batch.nondet, epoch=message.epoch, log=message.log)

    def _cross_touched(self, certificates: Tuple,
                       epoch: int) -> Optional[List[int]]:
        """The shards a cross-shard marker batch touches, if the batch is
        one *this* cluster participates in (None otherwise: not a marker,
        cross-shard disabled, an unknown epoch, or a marker addressed to a
        cluster that owns none of its keys -- a misroute)."""
        if not self.config.cross_shard.enabled:
            return None
        request = cross_shard_request_of(certificates)
        if request is None:
            return None
        try:
            touched = self.router.shards_of_operation_keys(request.operation,
                                                           epoch)
        except KeyError:
            return None
        if len(touched) < 2 or self.shard not in touched:
            return None
        return touched

    def _owned_requests(self, certificates: Tuple, epoch: int) -> Tuple:
        """The subset of a batch's request certificates this shard owns at
        ``epoch`` (empty when the epoch is unknown -- a forged future epoch
        cannot be judged, so nothing is owned under it).  A cross-shard
        request inside a mixed batch is owned by nobody: markers travel
        alone, so only a Byzantine sender builds such a batch."""
        try:
            return tuple(
                cert for cert in certificates
                if isinstance(cert.payload, ClientRequest)
                and self.router.shard_of_request(cert.payload, epoch) == self.shard
                and not (self.config.cross_shard.enabled
                         and self.router.is_cross_shard(cert.payload, epoch))
            )
        except KeyError:
            return ()

    # ------------------------------------------------------------------ #
    # Validation (shard-local batches only).
    # ------------------------------------------------------------------ #

    def _validate_batch(self, batch) -> bool:
        if not isinstance(batch, ShardLocalBatch):
            return False
        if batch.shard != self.shard:
            self.misroutes += 1
            return False
        body = batch.agreement_certificate.payload
        # The agreement certificate covers the *global* sequence number and
        # the digest of the full batch.
        if (getattr(body, "seq", None) != batch.global_seq
                or getattr(body, "view", None) != batch.view):
            return False
        if not self.crypto.verify_certificate(batch.agreement_certificate,
                                              self.config.agreement_quorum,
                                              self.agreement_ids):
            return False
        expected = self.crypto.digest({
            "batch": [self.crypto.payload_digest(cert.payload)
                      for cert in batch.full_request_certificates],
        })
        if expected != body.batch_digest:
            return False
        if config_op_of(batch.full_request_certificates) is not None:
            # Config marker (partition cut, log-map cut, ...): the agreement
            # certificate just verified is the whole authority (2f + 1
            # commits bind the change through the batch digest); it owns no
            # client requests by construction.
            return batch.request_certificates == ()
        touched = self._cross_touched(batch.full_request_certificates,
                                      batch.epoch)
        if touched is not None:
            # Cross-shard marker: the single certificate is the client's
            # own request, verified like any other; ownership is the
            # touched-set membership this node's router derives itself.
            if batch.request_certificates != batch.full_request_certificates:
                self.misroutes += 1
                return False
            request = batch.request_certificates[0].payload
            if request.client not in self.client_ids:
                return False
            return self.crypto.verify_certificate(
                batch.request_certificates[0], 1, [request.client])
        # Fast path (perf.shard_verify_owned_only): client authenticators are
        # verified only for the requests this shard owns.  The agreement
        # certificate just checked above carries 2f + 1 commits, so at least
        # f + 1 *correct* agreement replicas validated every request
        # certificate in the batch before committing it, and the batch digest
        # binds the non-owned payloads; re-verifying requests another shard
        # will execute adds no safety for this shard's own state.
        verify_all = not self.config.perf.shard_verify_owned_only
        for certificate in batch.full_request_certificates:
            request = certificate.payload
            if not isinstance(request, ClientRequest):
                return False
            if request.client not in self.client_ids:
                return False
            owned_here = self._owns_at(request, batch.epoch)
            if (verify_all or owned_here) and not self.crypto.verify_certificate(
                    certificate, 1, [request.client]):
                return False
        # Misroute rejection: the owned subset must be exactly what this
        # node's own router derives at the vouched epoch (peer-transferred
        # batches carry the sender's filtering, which a Byzantine peer could
        # doctor).
        owned = self._owned_requests(batch.full_request_certificates, batch.epoch)
        if not owned or owned != batch.request_certificates:
            self.misroutes += 1
            return False
        return True

    def _owns_at(self, request: ClientRequest, epoch: int) -> bool:
        try:
            return self.router.shard_of_request(request, epoch) == self.shard
        except KeyError:
            return False

    # ------------------------------------------------------------------ #
    # Execution: epoch cuts gate the in-order pipeline.
    # ------------------------------------------------------------------ #

    def _ready_to_execute(self, batch) -> bool:
        """Execution past an epoch cut waits for the cut's inbound ranges,
        and execution past a cross-shard transaction marker waits for the
        peer shards' votes: the next batch may read keys whose state is
        still in flight from the losing cluster, or that the blocked
        transaction is about to write."""
        return self._blocked_on is None

    def _execute_batch(self, batch) -> None:
        if isinstance(batch, ShardLocalBatch):
            change = map_change_of(batch.full_request_certificates)
            if change is not None:
                self._execute_map_change(batch, change)
                return
            config_op = config_op_of(batch.full_request_certificates)
            if config_op is not None:
                # A config operation that is not a partition-map change
                # (a log-map cut moving this cluster between agreement
                # logs) consumes its slot like any marker; the multi-log
                # wiring hooks the semantics.
                self._execute_config_marker(batch, config_op)
                return
            if batch.epoch != self.epoch:
                # Defence in depth: an accepted binding always matches the
                # in-stream epoch (markers and batches share one ordered
                # feed), so a mismatch here means the binding was forged
                # past the vote somehow -- drop it and re-fetch the truth
                # rather than execute under the wrong map.
                self.misroutes += 1
                self.stale_epoch_batches += 1
                self._route_accepted.pop(batch.seq, None)
                self._route_votes.pop(batch.seq, None)
                self._route_bodies.pop(batch.seq, None)
                self._request_missing(batch.seq)
                return
            touched = self._cross_touched(batch.full_request_certificates,
                                          batch.epoch)
            if touched is not None:
                self._execute_cross_shard(batch, touched)
                return
        super()._execute_batch(batch)

    def _execute_map_change(self, local: ShardLocalBatch, change: MapChange) -> None:
        """Execute an epoch-cut marker at its shard-local slot.

        Mirrors the router queues' cut-time judgement exactly: apply the
        change if its parent epoch is current, else no-op.  Either way the
        marker consumes its sequence number and is answered (with an empty
        reply bundle), so the agreement cluster's pipeline accounting never
        distinguishes the two outcomes.
        """
        registry = getattr(self.router.partitioner, "registry", None)
        new_map = None
        if registry is not None and registry.has_epoch(self.epoch):
            old_map = registry.map_for(self.epoch)
            new_map = apply_map_change(old_map, change)
        if new_map is not None:
            registry.append(new_map)
            inbound: List[Item] = []
            for moved in old_map.moved_ranges(new_map):
                key = (new_map.epoch, moved.lo, moved.hi)
                if moved.old_owner == self.shard:
                    self._send_range(key, moved.new_owner)
                elif moved.new_owner == self.shard:
                    inbound.append((key, moved.old_owner))
            self.epoch = new_map.epoch
            self.epoch_cuts_applied += 1
            if inbound:
                self._blocked_on = self._ranges
                self._ranges.block(inbound, self._install_range,
                                   self._h_cut_install.observe)
            # Buffered shares that can never install: past epochs' late
            # duplicates, or ranges that were never ours to gain.
            self._ranges.prune(lambda key: key[0] > self.epoch)
        self._finish_marker_slot(local)

    def _execute_config_marker(self, local: ShardLocalBatch, op) -> None:
        """Execute a non-partition config marker at its shard-local slot.

        The slot bookkeeping (advance, empty reply, checkpoint) runs
        *before* the ``on_config_marker`` hook: the reply must travel
        under the membership that ordered the marker, because a log-map
        cut is about to repoint this cluster's upstream at a different
        agreement log.
        """
        self._finish_marker_slot(local)
        if self.on_config_marker is not None:
            self.on_config_marker(self, op)

    def _finish_marker_slot(self, local: ShardLocalBatch) -> None:
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
        if self._blocked_on is not None:
            self._deferred_checkpoint = seq
        else:
            super()._take_checkpoint(seq)

    def _advance_cut(self) -> None:
        """Consume certified shares; once the cut resolves, take the
        checkpoint it deferred and resume in-order execution."""
        if self._blocked_on is None or not self._blocked_on.advance():
            return
        self._blocked_on = None
        seq, self._deferred_checkpoint = self._deferred_checkpoint, None
        if seq is not None:
            self._take_checkpoint(seq)
        self._process_pending()

    # ------------------------------------------------------------------ #
    # Cross-shard operations at the consistent cut.
    # ------------------------------------------------------------------ #

    def _key_owned(self, key: str) -> bool:
        return self.router.partitioner.shard_of_key(key, self.epoch) == self.shard

    def _execute_cross_shard(self, local: ShardLocalBatch,
                             touched: List[int]) -> None:
        """Execute this cluster's sub-operation of a cross-shard marker.

        Runs at the marker's slot in the shard-local order, so local state
        is exactly the agreed global prefix below the marker restricted to
        this shard -- the consistent cut.  Snapshot reads answer from it
        directly; a write transaction first exchanges certified read-set
        observations with the peer shards so that every correct replica of
        every touched cluster computes the same commit/abort decision.
        """
        certificate = local.request_certificates[0]
        request: ClientRequest = certificate.payload
        operation = request.operation_for(Role.EXECUTION)
        last = self.reply_table.get(request.client)
        if last is not None and request.timestamp <= last.timestamp:
            # A re-ordered duplicate (the client retransmitted after losing
            # the assembled reply): consume the slot and re-serve the cached
            # sub-reply and collation instead of re-executing -- this resend
            # path is also how a crashed collator's duty falls over to the
            # surviving touched clusters.
            self.duplicate_requests += 1
            self._finish_marker_slot(local)
            self._resend_cross_shard(request.client, request.timestamp)
            return
        self.cross_shard_executed += 1
        if self.tracing:
            self.trace_event(request_trace_id(request.client, request.timestamp),
                             "execute")
        outcome = self._cross_shard_outcome(local, request, operation, touched)
        if outcome is not None:
            self._complete_cross_shard(local, request, touched, *outcome)
        self._finish_marker_slot(local)

    def _cross_shard_outcome(self, local: ShardLocalBatch,
                             request: ClientRequest, operation,
                             touched: List[int]
                             ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """This shard's ``(status, values)`` for a cross-shard operation, or
        None for a transaction whose outcome now waits on its vote round."""
        pinned = operation.args.get("epoch")
        if pinned is not None and pinned != self.epoch:
            # The pinned epoch went stale under the operation (a rebalance
            # cut raced the marker).  Every touched replica judges the same
            # (pinned, cut-epoch) pair, so the abort is deterministic; the
            # sub-reply's epoch tells the client what to retry on.
            self.cross_shard_epoch_aborts += 1
            return "epoch-retry", {}
        if operation.kind == "multi_get":
            return "ok", self.app.snapshot_read(
                [key for key in operation.args.get("keys", ())
                 if self._key_owned(key)])
        if operation.kind != "txn":
            # An unknown multi-key kind cannot be executed consistently.
            return "error", {}
        reads = dict(operation.args.get("reads", {}))
        writes = {key: value
                  for key, value in operation.args.get("writes", {}).items()
                  if self._key_owned(key)}
        if reads and self.config.multilog.enabled:
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
        observed = self.app.snapshot_read(
            [key for key in reads if self._key_owned(key)])
        if not reads:
            # Write-only transaction: the commit decision is vacuous on
            # every shard, so no vote round -- each cluster applies its
            # slice at the marker and the cut makes it atomic.
            self.app.apply_writes(writes)
            self.cross_shard_commits += 1
            return "committed", {}
        self._open_vote_round(local, request, touched, reads, writes, observed)
        return None

    def _complete_cross_shard(self, local: ShardLocalBatch,
                              request: ClientRequest, touched: List[int],
                              status: str, values: Dict[str, Any]) -> None:
        """Emit this shard's certified sub-reply fragment.

        The fragment body is sender-agnostic, so ``g + 1`` matching partials
        from this cluster certify it; partials go to *every* touched
        cluster's replicas (each assembles the full collation) and the
        exactly-once reply-table entry makes duplicates replay the cached
        fragment instead of re-executing -- including across range handoffs,
        which migrate the table.
        """
        body = SubReplyBody(client=request.client, timestamp=request.timestamp,
                            shard=self.shard, epoch=self.epoch,
                            view=local.view, op_seq=local.global_seq,
                            status=status, values=values, log=local.log)
        self.reply_table[request.client] = ReplyBody(
            view=local.view, seq=local.seq, timestamp=request.timestamp,
            client=request.client,
            result=OperationResult(value={"cross-shard": status}, size=8))
        verifiers = [node for shard in touched
                     for node in self.shard_execution_ids[shard]]
        verifiers.append(request.client)
        certificate = Certificate(payload=body, scheme=AuthenticationScheme.MAC)
        certificate.add(self.crypto.mac_authenticator(body, verifiers))
        message = CrossShardSubReply(body=body, certificate=certificate,
                                     sender=self.node_id)
        self._xs_sub_replies[request.client] = message
        collation = self._collation_for(request.client, request.timestamp)
        collation.touched = list(touched)
        # Older operations of this client are retired (it runs one at a
        # time); higher-timestamped tentative slots stay within their cap.
        self._xs_collations = {
            stored_key: stored for stored_key, stored
            in self._xs_collations.items()
            if stored_key[0] != request.client
            or stored_key[1] >= request.timestamp
        }
        targets = [node for shard in touched
                   for node in self.shard_execution_ids[shard]
                   if node != self.node_id]
        self.multicast(targets, message)
        self.handle_cross_shard_sub_reply(self.node_id, message)
        # A slow executor may find every fragment (its own shard's
        # included) already certified from peers' partials; the touched set
        # only became known here, so the assembly must be retried now.
        self._try_collate(request.client, collation)

    def _resend_cross_shard(self, client: NodeId, timestamp: int) -> None:
        """Re-serve the cached sub-reply (to the touched clusters) and, if
        this cluster holds the complete collation, the assembled reply (to
        the client) -- any surviving touched cluster answers a retrying
        client, collator or not."""
        sub = self._xs_sub_replies.get(client)
        collation = self._xs_collations.get((client, timestamp))
        if sub is not None and sub.body.timestamp == timestamp:
            touched = (collation.touched
                       if collation is not None and collation.touched else
                       range(len(self.shard_execution_ids)))
            targets = [node for shard in touched
                       for node in self.shard_execution_ids[shard]
                       if node != self.node_id]
            self.multicast(targets, sub)
        if (collation is not None and collation.timestamp == timestamp
                and collation.reply is not None):
            self.send(client, collation.reply)
            self.cross_shard_replies_sent += 1

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
        peers = [node for shard in touched if shard != self.shard
                 for node in self.shard_execution_ids[shard]]
        vote = CrossShardVote(
            client=request.client, timestamp=request.timestamp,
            shard=self.shard, epoch=self.epoch, observed=observed,
            replica=self.node_id,
            authenticator=self.crypto.mac_authenticator(
                vote_payload(request.client, request.timestamp, self.shard,
                             self.epoch, observed), peers))
        key: TxnKey = (self.epoch, request.client, request.timestamp)
        trace_id = request_trace_id(request.client, request.timestamp)
        if self.tracing:
            self.trace_event(trace_id, "vote_open")
        self._votes.publish(key, vote, peers)
        certified = dict(observed)

        def decide(elapsed_ms: float) -> None:
            commit = all(certified.get(read_key) == expected
                         for read_key, expected in reads.items())
            if commit:
                self.app.apply_writes(writes)
                self.cross_shard_commits += 1
            else:
                self.cross_shard_aborts += 1
            self._h_vote_round.observe(elapsed_ms)
            if self.tracing:
                self.trace_event(trace_id, "vote_done")
            self._complete_cross_shard(local, request, touched,
                                       "committed" if commit else "aborted",
                                       observed)

        self._blocked_on = self._votes
        self._votes.block(
            [(key, shard) for shard in touched if shard != self.shard],
            lambda item, fragment: certified.update(fragment), decide)

    # ------------------------------------------------------------------ #
    # Cross-shard sub-reply collation.
    # ------------------------------------------------------------------ #

    def _collation_for(self, client: NodeId, timestamp: int) -> _Collation:
        key = (client, timestamp)
        collation = self._xs_collations.get(key)
        if collation is None:
            collation = _Collation(timestamp=timestamp)
            self._xs_collations[key] = collation
        return collation

    def handle_cross_shard_sub_reply(self, sender: NodeId,
                                     message: CrossShardSubReply) -> None:
        body = message.body
        if sender != message.sender:
            return
        if not 0 <= body.shard < len(self.shard_execution_ids):
            return
        if sender not in self.shard_execution_ids[body.shard]:
            return
        if body.client not in self.client_ids:
            return
        last = self.reply_table.get(body.client)
        if last is not None and body.timestamp < last.timestamp:
            return  # stale fragment of an operation this client moved past
        collation = self._xs_collations.get((body.client, body.timestamp))
        if collation is None:
            # A tentative slot (own marker not executed yet): bounded, and
            # refusing at the cap is recoverable -- a duplicate marker
            # makes every touched replica re-serve its fragment.
            tentative = sum(1 for stored in self._xs_collations.values()
                            if stored.touched is None)
            if tentative >= _COLLATION_BUFFER_CAP:
                return
            collation = self._collation_for(body.client, body.timestamp)
        if body.shard in collation.full:
            # Already certified (and possibly embedded in a sent reply):
            # never merge into an assembled certificate again.
            return
        digest = self.crypto.payload_digest(body)
        collector_key = (body.shard, digest)
        collector = collation.collectors.get(collector_key)
        if collector is None:
            if len(collation.collectors) >= _COLLECTOR_CAP:
                return
            collector = Certificate(payload=body,
                                    scheme=message.certificate.scheme)
            collation.collectors[collector_key] = collector
        collector.merge(message.certificate)
        valid = self.crypto.valid_signers(collector,
                                          self.shard_execution_ids[body.shard])
        if len(valid) < self.config.reply_quorum:
            return
        collation.full[body.shard] = collector
        collation.full_bodies[body.shard] = body
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
        bodies = [collation.full_bodies[shard] for shard in collation.touched]
        first = bodies[0]
        if not sub_reply_rounds_consistent(bodies, self.log_of_shard):
            return  # mixed rounds; the marker resend converges them
        assembled: Dict[str, Any] = {}
        for body in bodies:
            assembled.update(body.values)
        collation.reply = CrossShardReply(
            client=client, timestamp=collation.timestamp, status=first.status,
            epoch=first.epoch, collator_shard=min(collation.touched),
            sub_certificates=tuple(collation.full[shard]
                                   for shard in collation.touched),
            assembled=assembled, sender=self.node_id)
        if self.tracing:
            self.trace_event(request_trace_id(client, collation.timestamp),
                             "collate")
        if self.shard == min(collation.touched):
            self.send(client, collation.reply)
            self.cross_shard_replies_sent += 1

    # ------------------------------------------------------------------ #
    # Range handoff.
    # ------------------------------------------------------------------ #

    def _send_range(self, key: RangeKey, target_shard: int) -> None:
        """Extract a moved range as of the cut and share it with the gainers.

        The extraction *removes* the range locally -- ownership moved, and a
        stale local copy could shadow the handed-off truth if the range ever
        returns -- and the share's authenticator covers the canonical
        handoff payload, so ``g + 1`` matching shares certify the state.
        """
        if not self.shard_execution_ids:
            return
        epoch, lo, hi = key
        entries = self.app.extract_range(lo, hi)
        reply_table = self._serialized_reply_table()
        digest = self.crypto.digest(entries + reply_table,
                                    size_hint=len(entries) + len(reply_table))
        targets = self.shard_execution_ids[target_shard]
        authenticator = self.crypto.mac_authenticator(
            handoff_payload(epoch, lo, hi, self.shard, target_shard, digest),
            targets)
        message = RangeHandoff(epoch=epoch, source_shard=self.shard,
                               target_shard=target_shard, lo=lo, hi=hi,
                               entries=entries, reply_table=reply_table,
                               state_digest=digest, replica=self.node_id,
                               authenticator=authenticator)
        self._ranges.publish(key, message, targets)
        self.ranges_sent += 1
        self._c_handoff_ranges.inc()
        self._c_handoff_bytes.inc(len(entries) + len(reply_table))

    def _install_range(self, item: Item, blob: Tuple[bytes, bytes]) -> None:
        (_, lo, hi), _ = item
        entries, reply_table = blob
        self.app.install_range(lo, hi, entries)
        # Merge the source cluster's dedup table timestamp-monotonically: a
        # request executed there pre-cut must be answered from the table
        # here, never re-executed.  This replica's own table is frozen while
        # blocked at the cut, so the merge is deterministic across peers.
        for _, reply in pickle.loads(reply_table):
            current = self.reply_table.get(reply.client)
            if current is None or current.timestamp < reply.timestamp:
                self.reply_table[reply.client] = reply
        self.ranges_installed += 1

    # ------------------------------------------------------------------ #
    # Checkpoints carry the epoch (state transfer must land in the right
    # map, not just the right application state).
    # ------------------------------------------------------------------ #

    def _resend_replies(self, batch) -> None:
        """Also re-serve cross-shard artifacts on a genuine retransmission:
        the retrying client is waiting for the assembled reply, not the
        (empty) marker-slot bundle."""
        super()._resend_replies(batch)
        certificates = getattr(batch, "full_request_certificates",
                               batch.request_certificates)
        if self.config.cross_shard.enabled:
            request = cross_shard_request_of(certificates)
            if request is not None:
                self._resend_cross_shard(request.client, request.timestamp)

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
        if self._blocked_on is not None:
            self._blocked_on.unblock()
            self._blocked_on = self._deferred_checkpoint = None
        self._ranges.prune(lambda key: key[0] > self.epoch)

    # ------------------------------------------------------------------ #
    # Replies carry the shard id and epoch; vote tables are garbage
    # collected with the recent-batch window.
    # ------------------------------------------------------------------ #

    def _make_reply_body(self, view: int, seq: int,
                         replies: Tuple[ReplyBody, ...]) -> BatchReplyBody:
        return BatchReplyBody(view=view, seq=seq, replies=tuple(replies),
                              shard=self.shard, epoch=self.epoch)

    def _trim_recent(self) -> None:
        super()._trim_recent()
        # Vote tallies and collations of operations already resolved here go
        # (the reply table records the resolution; late duplicates replay it).
        def live(client: NodeId, timestamp: int) -> bool:
            last = self.reply_table.get(client)
            return last is None or timestamp > last.timestamp

        self._votes.prune(lambda key: live(key[1], key[2]))
        self._xs_collations = {
            key: collation for key, collation in self._xs_collations.items()
            if live(*key) or key[1] == self.reply_table[key[0]].timestamp
        }
        horizon = self.max_executed - 2 * self.config.checkpoint_interval
        if horizon <= 0:
            return
        self._route_votes = {
            seq: votes for seq, votes in self._route_votes.items() if seq > horizon
        }
        self._route_accepted = {
            seq: binding for seq, binding in self._route_accepted.items()
            if seq > horizon
        }
        self._route_bodies = {
            seq: bodies for seq, bodies in self._route_bodies.items()
            if seq > horizon
        }
        self._bodies_awaited = {
            seq: timer for seq, timer in self._bodies_awaited.items()
            if seq > horizon
        }
