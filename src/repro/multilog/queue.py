"""The cross-log round of a router queue: cross-log cuts over K agreement orders.

Every agreement replica of log ``l`` hosts a
:class:`~repro.sharding.queue.ShardRouterQueue` that routes only the shards
of its own log group (judged by the epoch-versioned
:class:`~repro.multilog.logmap.LogMap`), and the queue builds one
:class:`CrossLogRound`: the **cross-log coordination round** for operations
spanning groups.  The round has one artifact, the
:class:`~repro.multilog.messages.CrossLogBinding`, and one release rule,
which every queue applies for itself:

* *Publish.*  When a cross-shard marker commits (stages), the queue binds
  it to the sequence number its own log assigned and multicasts the
  binding to the agreement replicas of every other log.  Binding at commit
  time (not at release) keeps two markers ordered inversely by two logs
  from deadlocking each other's release frontiers: the sequence number is
  fixed when the binding is emitted, regardless of release order.

* *Tally, certify, hold.*  Received bindings are tallied one per sender; a
  log's binding is certified once ``f + 1`` of its members sent matching
  bodies whose MACs verify here (checked when the count reaches the
  quorum, usually before this log has committed the marker itself).  When
  the marker reaches the *release head* and its touched shards span
  several log groups, the frontier **holds** until every other touched
  log's binding is certified.  Nothing else releases a marker, so no
  single replica -- of this log or another -- can misplace one.

* A :class:`~repro.multilog.messages.LogMapChange` is ordered by *every*
  log and binds at staging too, as soon as every batch below it is staged.
  The source log's binding carries the moved shard's frontier (the
  shard-local sequence number of the marker itself -- the source's final
  envelope), which is by then a pure function of the staged prefix; the
  target log adopts the frontier at the cut, so the moved shard's local
  order continues gap- and overlap-free (exactly-once across the move).
  Binding at the release head instead could wait behind a held client
  marker whose other log cannot order it while its own release holds the
  change.

* *Ask and serve.*  A holding queue's timer asks, with backoff, the
  members of the logs it still lacks
  (:class:`~repro.multilog.messages.CrossLogBindingFetch`); a queue that
  has its own binding for the marker sends it back.  A binding never
  causes a send, so the round cannot loop, and a replica that missed the
  multicast recovers whatever the arrival order was.

With one log the round has no peers and no marker spans two logs: it
binds, holds and sends nothing, and the queue keeps the envelope's ``log``
stamp and the checkpoint's ``log_epoch`` off the wire.

docs/ARCHITECTURE.md ("Cuts") records why this round has the shape of
:class:`~repro.sharding.cut.ShareExchange` but is not hosted on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..config import AuthenticationScheme
from ..core.message_queue import PendingSend
from ..crypto.certificate import Authenticator, Certificate
from ..messages.agreement import OrderedBatch
from ..net.message import Message
from ..obs import request_trace_id
from ..sharding.messages import config_op_of, cross_shard_request_of
from ..util.ids import NodeId
from .logmap import LogMap, LogMapRegistry
from .messages import (LMC_MARKER, XS_MARKER, CrossLogBinding,
                       CrossLogBindingBody, CrossLogBindingFetch, LogMapChange,
                       MarkerKey, client_marker_key, log_map_change_of,
                       marker_key_of)

#: released markers whose own binding stays servable to a still-holding
#: peer.  Also what is buffered ahead of a hold -- bindings tallied per
#: *sender* (no replica can evict another's), markers certified: a fetch
#: recovers what that drops
BOUND_RETENTION = 64


def __getattr__(name: str):
    # ``MultiLogRouterQueue`` is an alias of the one router queue, kept only
    # because the frozen performance ledger (benchmarks/ledger/spans.py)
    # resolves this module and name.  Resolved on first use:
    # ``repro.sharding.queue`` itself imports this module.
    if name == "MultiLogRouterQueue":
        from ..sharding.queue import ShardRouterQueue
        return ShardRouterQueue
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class _Hold:
    """One marker holding the release frontier."""

    touched: Tuple[int, ...]
    seq: int
    #: log-map changes: the log whose binding carries the shard frontier
    source: Optional[int]
    #: the ask timer, alive exactly while the marker holds
    fetch: PendingSend


class CrossLogRound:
    """One router queue's part in the cross-log round of log ``log``."""

    def __init__(self, queue, log: int, log_agreement_ids: List[List[NodeId]],
                 log_registry: LogMapRegistry) -> None:
        self.queue = queue
        self.log = log
        self.log_agreement_ids = [list(ids) for ids in log_agreement_ids]
        self.log_registry = log_registry
        self.num_logs = len(log_agreement_ids)
        #: who a binding goes to (own-log peers witness the commit themselves)
        self.peer_ids = [node for other, ids in enumerate(log_agreement_ids)
                         if other != log for node in ids]
        #: the log stamped into routed envelopes and carried through to
        #: sub-reply fragments, whose marker sequence numbers live in per-log
        #: spaces; None with one log, which keeps the field off the wire
        self.stamp = log if self.peer_ids else None
        #: this node's log-map epoch cursor: the epoch governing the *next*
        #: released batch (advanced exactly at log-map-change cuts)
        self.log_epoch = 0

        #: own emitted binding per marker (kept after release so this queue
        #: can serve a still-holding peer's fetch)
        self._bound: Dict[MarkerKey, CrossLogBinding] = {}
        #: bindings received: sender -> marker -> (body, the sender's own
        #: authenticator), oldest first.  One live entry per sender and
        #: marker: an equivocating sender replaces its entry, never adds one
        self._tallies: Dict[NodeId, Dict[MarkerKey, tuple]] = {
            node: {} for node in self.peer_ids}
        #: markers currently holding the release frontier
        self._held: Dict[MarkerKey, _Hold] = {}
        #: staged log-map changes not bound yet, by sequence number
        self._unbound_changes: Set[int] = set()
        #: certified bindings of markers not released yet: marker -> log
        #: -> body, oldest first (bounded, but for held markers)
        self._certified: Dict[MarkerKey, Dict[int, CrossLogBindingBody]] = {}
        #: the same of markers released through a hold (bounded): one its
        #: log orders again, under a retransmission, releases on it
        self._released: Dict[MarkerKey, Dict[int, CrossLogBindingBody]] = {}

        # Statistics.
        self.bindings_sent = 0
        self.bindings_served = 0
        self.bindings_rejected = 0
        self.log_map_cuts = 0
        self.log_map_changes_rejected = 0

    def probe(self) -> dict:
        """The round's counters and occupancy, for the queue's probe."""
        return {
            "log": self.log,
            "log_epoch": self.log_epoch,
            "bindings_sent": self.bindings_sent,
            "bindings_served": self.bindings_served,
            "bindings_rejected": self.bindings_rejected,
            "log_map_cuts": self.log_map_cuts,
            "log_map_changes_rejected": self.log_map_changes_rejected,
            "held_markers": len(self._held),
        }

    # ------------------------------------------------------------------ #
    # What the queue asks.
    # ------------------------------------------------------------------ #

    def _log_map(self) -> LogMap:
        return self.log_registry.map_for(self.log_epoch)

    def owned(self, shards) -> List[int]:
        """The subset of ``shards`` this log's group owns: a batch whose
        targets all live in other groups falls through to the queue's
        vacuous answer, so its pipeline never waits on a reply another
        log's clusters owe."""
        lmap = self._log_map()
        return [shard for shard in shards if lmap.log_of(shard) == self.log]

    def applies(self, change: LogMapChange) -> bool:
        """Whether a log-map change moves anything at this queue's epoch."""
        return (change.well_formed(self.queue.num_shards, self.num_logs)
                and change.parent_log_epoch == self.log_epoch
                and self._log_map().log_of(change.shard) != change.target_log)

    def changing(self, parent: int) -> bool:
        """Whether a log-map change past epoch ``parent`` is in flight here:
        the cursor moved off it, or a change holds the release frontier."""
        return self.log_epoch != parent or any(
            key[0] == LMC_MARKER for key in self._held)

    def _coordination_of(self, batch: OrderedBatch):
        """``(marker key, touched logs)`` if ``batch`` needs a cut here.

        Judged at this queue's release-head log epoch, so every correct
        replica of this log classifies identically at the same position of
        its own order.  A stale or malformed log-map change needs no cut
        (it is deterministically rejected at routing), and a multi-shard
        marker whose shards all live in one group releases immediately.
        """
        change = log_map_change_of(batch.request_certificates)
        if change is not None:
            if not self.applies(change):
                return None
            return change.marker_key(), tuple(range(self.num_logs))
        queue = self.queue
        request = queue._cross_shard_marker_of(batch)
        if request is None:
            return None
        shards = queue.router.shards_of_operation_keys(request.operation,
                                                       epoch=queue.epoch)
        lmap = self._log_map()
        logs = tuple(sorted({lmap.log_of(shard) for shard in shards}))
        if len(logs) < 2:
            return None
        return client_marker_key(request), logs

    # ------------------------------------------------------------------ #
    # Binding emission.
    # ------------------------------------------------------------------ #

    def on_stage(self, seq: int, certificates) -> None:
        """A batch newly staged at ``seq``: bind it if it is a marker, and
        note a log-map change to bind once the prefix below it is staged.
        A queue with no other log has nobody to bind for."""
        if not self.peer_ids:
            return
        self._maybe_bind_marker(seq, certificates)
        if log_map_change_of(certificates) is not None:
            self._unbound_changes.add(seq)

    def _maybe_bind_marker(self, seq: int, certificates) -> None:
        """Bind a committing cross-shard marker to its sequence number.

        Emitted for *every* globally multi-shard marker, whether or not
        its shards span log groups here: emission is then a pure function
        of the static partition map (rebalancing is disabled under
        multi-log ordering), so all of a log's replicas emit matching
        bodies no matter how a racing log-map change interleaves with
        their staging -- a within-group marker's bindings are simply never
        waited on.
        """
        queue = self.queue
        if not queue.config.cross_shard.enabled:
            return
        request = cross_shard_request_of(certificates)
        if request is None or not queue.router.is_cross_shard(
                request, epoch=queue.epoch):
            return
        key = client_marker_key(request)
        bound = self._bound.get(key)
        if bound is not None and bound.body.seq == seq:
            return
        self._emit_binding(key, CrossLogBindingBody(marker=key, log=self.log,
                                                    seq=seq))

    def bind_staged_change(self) -> None:
        """Bind the lowest staged log-map change once every batch below it
        is staged.

        Binding at the release head instead would close a cycle: the
        change's head can sit behind a held cross-group marker whose other
        log cannot order that marker while its own release holds the same
        change.  Once the prefix is staged, the moved shard's frontier is
        already a pure function of it: the shard's counter, plus the parts
        the staged-but-unreleased batches below the change route to it,
        plus one for the change's own (the source log's final) envelope.
        Another config operation in that stretch would move the epochs the
        stretch routes under; the change then binds at its release head.
        """
        if not self._unbound_changes:
            return
        queue = self.queue
        seq = min(self._unbound_changes)
        parts = [0] * queue.num_shards
        for below in range(queue._released_seq + 1, seq):
            batch = queue._staged.get(below)
            if batch is None:
                return  # a gap: the next staging tries again
            if config_op_of(batch.request_certificates) is not None:
                self._unbound_changes.discard(seq)
                return
            for shard in queue._route_targets(batch):
                parts[shard] += 1
        self._unbound_changes.discard(seq)
        change = log_map_change_of(queue._staged[seq].request_certificates)
        if self.applies(change):
            self._emit_binding(change.marker_key(), self._change_binding(
                change, seq, queue._next_shard_seq[change.shard]
                + parts[change.shard] + 1))

    def _change_binding(self, change: LogMapChange, seq: int,
                        frontier: int) -> CrossLogBindingBody:
        """This log's binding of a log-map change at ``seq``: the source
        log's carries the moved shard's ``frontier``."""
        source = self._log_map().log_of(change.shard) == self.log
        return CrossLogBindingBody(marker=change.marker_key(), log=self.log,
                                   seq=seq,
                                   shard_frontier=frontier if source else None)

    def _emit_binding(self, key: MarkerKey,
                      body: CrossLogBindingBody) -> None:
        owner = self.queue.owner
        certificate = owner.crypto.new_certificate(
            body, AuthenticationScheme.MAC, self.peer_ids)
        binding = CrossLogBinding(body=body, certificate=certificate,
                                  sender=owner.node_id)
        self._bound[key] = binding
        self.bindings_sent += 1
        owner.multicast(self.peer_ids, binding)

    # ------------------------------------------------------------------ #
    # Binding admission, tally and certification.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: Message) -> None:
        """A :class:`CrossLogBinding` or :class:`CrossLogBindingFetch`."""
        if isinstance(message, CrossLogBinding):
            self._absorb_binding(sender, message)
        else:
            self._serve_binding(sender, message)

    def _vet_binding(self, sender: NodeId, binding: CrossLogBinding):
        """``(marker key, body, the sender's authenticator)`` of a binding
        that is well-typed, names another log in range and comes, on the
        wire and in its fields, from a member of that log; else None."""
        body = binding.body
        if not isinstance(body, CrossLogBindingBody) or binding.sender != sender:
            return None
        key = marker_key_of(body.marker)
        frontier = body.shard_frontier
        if (key is None or type(body.log) is not int
                or type(body.seq) is not int or body.seq <= 0
                or not (frontier is None
                        or (type(frontier) is int and frontier > 0))
                or not 0 <= body.log < self.num_logs or body.log == self.log
                or sender not in self.log_agreement_ids[body.log]):
            return None
        authenticators = getattr(binding.certificate, "authenticators", None)
        authenticator = (authenticators.get(sender)
                         if isinstance(authenticators, dict) else None)
        if (not isinstance(authenticator, Authenticator)
                or authenticator.signer != sender):
            return None
        return key, body, authenticator

    def _absorb_binding(self, sender: NodeId,
                        binding: CrossLogBinding) -> None:
        vetted = self._vet_binding(sender, binding)
        if vetted is None:
            self.bindings_rejected += 1
            return
        key, body, authenticator = vetted
        held = key in self._held
        if not held and key in self._released:
            return  # a late copy: the marker released on f + 1 others
        if self._certified.get(key, {}).get(body.log) == body:
            return  # a late copy: certified on f + 1 others
        tally = self._tallies[sender]
        tally.pop(key, None)
        tally[key] = (body, authenticator)
        if not held and len(tally) > BOUND_RETENTION:
            del tally[next(kept for kept in tally if kept not in self._held)]
        if self._certify(key, body) and held:
            self.queue._advance_release_frontier()

    def _certify(self, key: MarkerKey, body: CrossLogBindingBody) -> bool:
        """Certify ``body`` as its log's binding of the marker once
        ``f + 1`` members of that log sent it under MACs that verify here
        (at least one correct replica vouches per log)."""
        members = self.log_agreement_ids[body.log]
        quorum = self.queue.config.f + 1
        matching: Dict[NodeId, Authenticator] = {}
        for peer in members:
            entry = self._tallies[peer].get(key)
            if entry is not None and entry[0] == body:
                matching[peer] = entry[1]
        if len(matching) < quorum:
            return False  # cannot reach quorum yet: defer the MAC verification
        certificate = Certificate(payload=body, scheme=AuthenticationScheme.MAC,
                                  authenticators=matching)
        if len(self.queue.crypto.valid_signers(certificate, members)) < quorum:
            return False
        self._certified.setdefault(key, {})[body.log] = body
        if len(self._certified) > BOUND_RETENTION:
            del self._certified[next(kept for kept in self._certified
                                     if kept not in self._held)]
        return True

    def _lacking(self, key: MarkerKey, hold: _Hold) -> List[int]:
        """The *other* touched logs without a certified binding yet (this
        queue witnesses its own log's commit directly).  A log-map change's
        source log counts only with the moved shard's frontier."""
        certified = self._certified.get(key, {})
        return [log for log in hold.touched if log != self.log and (
            log not in certified or (log == hold.source and
                                     certified[log].shard_frontier is None))]

    # ------------------------------------------------------------------ #
    # Ask and serve.
    # ------------------------------------------------------------------ #

    def _on_binding_retransmit(self, key: MarkerKey) -> None:
        """The holding queue's timer: ask the logs still lacking."""
        hold = self._held[key]
        self.queue.owner.multicast(
            [node for log in self._lacking(key, hold)
             for node in self.log_agreement_ids[log]],
            CrossLogBindingFetch(marker=key, sender=self.queue.owner.node_id))
        self.queue._back_off(hold.fetch)

    def _serve_binding(self, sender: NodeId,
                       fetch: CrossLogBindingFetch) -> None:
        """Send the asker, a replica of another log, this queue's latest
        binding for the marker (its log may have ordered it again), if any."""
        key = marker_key_of(fetch.marker)
        if key is None or fetch.sender != sender or sender not in self._tallies:
            return
        binding = self._bound.get(key)
        if binding is not None:
            self.bindings_served += 1
            self.queue.owner.send(sender, binding)

    # ------------------------------------------------------------------ #
    # The release head: holds, the log-map cut, release.
    # ------------------------------------------------------------------ #

    def holds(self, batch: OrderedBatch) -> bool:
        """Whether the release frontier must pause before ``batch``: a
        marker spanning log groups waits for every other touched log's
        certified binding.  A queue with no other log waits for nobody."""
        if not self.peer_ids:
            return False
        coordination = self._coordination_of(batch)
        if coordination is None:
            return False
        key, touched = coordination
        hold = self._held.get(key) or self._open_hold(batch, key, touched)
        return bool(self._lacking(key, hold))

    def _open_hold(self, batch: OrderedBatch, key: MarkerKey,
                   touched: Tuple[int, ...]) -> _Hold:
        queue = self.queue
        change = log_map_change_of(batch.request_certificates)
        hold = self._held[key] = _Hold(
            touched=touched, seq=batch.seq,
            source=(None if change is None
                    else self._log_map().log_of(change.shard)),
            fetch=PendingSend(
                batch=key, fire=lambda: self._on_binding_retransmit(key),
                label=f"{queue.owner.node_id}:xlog-binding",
                timeout_ms=queue.config.timers.agreement_retransmit_ms))
        if key in self._released:
            # Ordered again by this log: what released it then stands.
            self._certified[key] = dict(self._released[key])
        self._ensure_bound(change, key, hold)
        if queue.owner.tracing:
            queue.owner.trace_event(self._marker_trace_id(key),
                                    "coordinate_open")
        queue._arm(hold.fetch)
        return hold

    @staticmethod
    def _marker_trace_id(key: MarkerKey) -> str:
        if key[0] == XS_MARKER:
            return request_trace_id(key[1], key[2])
        return f"logmove:{key[1]}:{key[3]}"

    def _ensure_bound(self, change: Optional[LogMapChange], key: MarkerKey,
                      hold: _Hold) -> None:
        """A marker binds at staging; at its release head it binds only if
        that pass was skipped (a checkpoint sync, a config operation below a
        log-map change) or its log ordered it again since."""
        self._unbound_changes.discard(hold.seq)
        bound = self._bound.get(key)
        if bound is not None and bound.body.seq == hold.seq:
            return
        if change is None:
            body = CrossLogBindingBody(marker=key, log=self.log, seq=hold.seq)
        else:
            # The marker itself is the moved shard's next (and, from the
            # source log, final) envelope.
            body = self._change_binding(
                change, hold.seq, self.queue._next_shard_seq[change.shard] + 1)
        self._emit_binding(key, body)

    def held_marker(self, batch: OrderedBatch) -> Optional[MarkerKey]:
        """The key of the client marker ``batch`` is, if it held here."""
        if not self._held:
            return None
        request = self.queue._cross_shard_marker_of(batch)
        key = None if request is None else client_marker_key(request)
        return key if key in self._held else None

    def cut(self, batch: OrderedBatch, change: LogMapChange) -> None:
        """Route a released log-map change to this log's group and apply it.

        Every log routes the marker to each shard it owns *pre-cut* (so
        every execution cluster meets the log-epoch boundary at a
        deterministic slot in its own order; the moved shard's envelope
        from the source log is its final one), then applies the new map.
        The target log additionally adopts the moved shard's certified
        frontier, continuing its shard-local sequence space exactly where
        the source log stopped.  A stale or malformed change is rejected
        and its slot answered vacuously, on every correct replica alike.
        """
        queue = self.queue
        self._unbound_changes.discard(batch.seq)
        key = change.marker_key()
        current = self._log_map()
        if not self.applies(change):
            self.log_map_changes_rejected += 1
            queue._vacuous_answer(batch.seq)
            self.finish(key)
            return
        queue._send_parts(batch, queue._route_targets(batch))
        new_map = current.move(change.shard, change.target_log)
        self.log_registry.append(new_map)
        self.log_epoch = new_map.log_epoch
        self.log_map_cuts += 1
        if self.log == change.target_log:
            # What the hold certified of the source log (never this one).
            source = self._certified[key][current.log_of(change.shard)]
            queue._next_shard_seq[change.shard] = source.shard_frontier
        self.finish(key)

    def finish(self, key: Optional[MarkerKey]) -> None:
        """The marker ``key`` released: end its hold, if it had one."""
        hold = self._held.pop(key, None)
        if hold is None:
            return
        hold.fetch.timer.cancel()
        owner = self.queue.owner
        if owner.tracing:
            owner.trace_event(self._marker_trace_id(key), "coordinate_done")
        for tally in self._tallies.values():
            tally.pop(key, None)
        # Local liveness state, never part of an agreed artifact: replicas
        # that prune differently cannot diverge the protocol.
        self._released[key] = self._certified.pop(key, {})
        if len(self._released) > BOUND_RETENTION:
            stale = next(iter(self._released))
            del self._released[stale]
            self._bound.pop(stale, None)

    # ------------------------------------------------------------------ #
    # Checkpoint state transfer: the log-epoch cursor travels too.
    # ------------------------------------------------------------------ #

    def frontier_state(self) -> Tuple[Tuple[str, object], ...]:
        """The log-epoch cursor, for the checkpoint's sync state (nothing
        with one log: its map never changes)."""
        return (("log_epoch", self.log_epoch),) if self.peer_ids else ()

    def sync_to_checkpoint(self, seq: int, state: dict) -> None:
        log_epoch = state.get("log_epoch")
        if (log_epoch is not None and log_epoch > self.log_epoch
                and self.log_registry.has_epoch(log_epoch)):
            # Maps themselves derive from the agreed change history
            # (shared registry); only the cursor transfers.
            self.log_epoch = log_epoch
        # A hold the checkpoint passed is over: others released the marker.
        for key in [key for key, hold in self._held.items()
                    if hold.seq <= seq]:
            self.finish(key)
        self._unbound_changes = {change for change in self._unbound_changes
                                 if change > seq}
