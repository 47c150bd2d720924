"""The cross-log round of a router queue: cross-log cuts over K agreement orders.

Every agreement replica of log ``l`` hosts a
:class:`~repro.sharding.queue.ShardRouterQueue` that routes only the shards
of its own log group (judged by the epoch-versioned
:class:`~repro.multilog.logmap.LogMap`), and the queue builds one
:class:`CrossLogRound`: the **cross-log coordination round** for operations
spanning groups.  The round never classifies a batch itself: whether a
batch is a marker or a log-map change, and which shards it touches, is the
queue's router answer for it (:class:`~repro.sharding.router.BatchRoute`).
The round has one artifact, the
:class:`~repro.multilog.messages.CrossLogBinding`, and one release rule,
which every queue applies for itself:

* *Publish.*  When a cross-shard marker is delivered (the queue applies
  each batch's route in global order), the queue binds it to the sequence
  number its own log assigned and multicasts the binding to
  the agreement replicas of every other log.  Binding at delivery (not at
  release) keeps two markers ordered inversely by two logs from
  deadlocking each other's release frontiers: the sequence number is fixed
  when the binding is emitted, regardless of release order.

* *Tally, certify, hold.*  Received bindings are tallied one per sender; a
  log's binding is certified once ``f + 1`` of its members sent matching
  bodies whose MACs verify here (checked when the count reaches the
  quorum, usually before this log has committed the marker itself).  When
  the marker reaches the *release head* and its touched shards span
  several log groups, the frontier **holds** until every other touched
  log's binding is certified.  Nothing else releases a marker, so no
  single replica -- of this log or another -- can misplace one.

* A :class:`~repro.multilog.messages.LogMapChange` is ordered by *every*
  log, binds when delivered too, and is applied there.  The source log's
  binding carries the moved shard's frontier: the slot of the change's own
  part on that shard (the source's final one), which its certified route
  names.  The target log routes past the change only once that binding is
  certified (:attr:`CrossLogRound.awaiting`): it continues the moved
  shard's local order exactly where the source stopped (exactly-once
  across the move), and its certificates name the continued slots.  The
  source log never waits on the target, and release holds never gate
  routing, so the wait cannot close a cycle.

* *Ask and serve.*  A holding queue's timer asks, with backoff, the
  members of the logs it still lacks
  (:class:`~repro.multilog.messages.CrossLogBindingFetch`); a queue that
  has its own binding for the marker sends it back.  A binding never
  causes a send, so the round cannot loop, and a replica that missed the
  multicast recovers whatever the arrival order was.

With one log the round has no peers and no marker spans two logs: it
binds, holds and sends nothing, and the queue keeps the certificate's
``log`` and the checkpoint's ``log_epoch`` off the wire.

docs/ARCHITECTURE.md ("Cuts") records why this round has the shape of
:class:`~repro.sharding.cut.ShareExchange` but is not hosted on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..config import AuthenticationScheme
from ..core.message_queue import PendingSend
from ..crypto.certificate import Authenticator, Certificate
from ..net.message import Message
from ..obs import request_trace_id
from ..sharding.router import CROSS_SHARD, LOG_MAP_CHANGE, BatchRoute
from ..util.epochs import EpochRegistry
from ..util.ids import NodeId
from .logmap import LogMap
from .messages import (LMC_MARKER, XS_MARKER, CrossLogBinding,
                       CrossLogBindingBody, CrossLogBindingFetch, LogMapChange,
                       MarkerKey, client_marker_key, marker_key_of)

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


class Cut(NamedTuple):
    """The cross-log cut a routed batch's release waits for."""

    key: MarkerKey
    #: every log the cut spans
    touched: Tuple[int, ...]
    #: log-map changes: the log whose binding carries the shard frontier
    source: Optional[int]


@dataclass
class _Hold:
    """One marker holding the release frontier."""

    cut: Cut
    seq: int
    #: the ask timer, alive exactly while the marker holds
    fetch: PendingSend


class CrossLogRound:
    """One router queue's part in the cross-log round of log ``log``."""

    def __init__(self, queue, log: int, log_agreement_ids: List[List[NodeId]],
                 log_registry: EpochRegistry[LogMap]) -> None:
        self.queue = queue
        self.log = log
        self.log_agreement_ids = [list(ids) for ids in log_agreement_ids]
        self.log_registry = log_registry
        self.num_logs = len(log_agreement_ids)
        #: who a binding goes to (own-log peers witness the commit themselves)
        self.peer_ids = [node for other, ids in enumerate(log_agreement_ids)
                         if other != log for node in ids]
        #: the log routed certificate bodies name, carried through to
        #: sub-reply fragments, whose marker sequence numbers live in per-log
        #: spaces; None with one log, which keeps the field off the wire
        self.stamp = log if self.peer_ids else None
        #: this node's log-map epoch cursor: the epoch governing the *next*
        #: delivered batch (advanced exactly at log-map-change cuts)
        self.log_epoch = 0
        #: ``(change key, source log, moved shard)`` of a log-map change
        #: this (target) log delivered and cannot route past before the
        #: source log's certified frontier arrives
        self.awaiting: Optional[Tuple[MarkerKey, int, int]] = None

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
        log's clusters owe.  With one log that is every shard."""
        if not self.peer_ids:
            return shards
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

    # ------------------------------------------------------------------ #
    # Routing: binding emission and the log-map cut.
    # ------------------------------------------------------------------ #

    def on_route(self, seq: int, route: BatchRoute,
                 parts: Tuple[Tuple[int, int], ...]) -> Optional[Cut]:
        """The round's part in a delivered batch's route (its certified
        ``parts``, at ``seq``): bind a marker, apply a log-map change, and
        return the cut the batch's release waits for -- None for a batch
        that needs none: not a marker, a marker within one group, a stale
        change.

        Judged at this queue's epochs after the delivered prefix, so every
        correct replica of this log classifies identically at the same
        position of its order.
        """
        self._bind(seq, route, parts)
        if route.kind == LOG_MAP_CHANGE:
            return self._route_change(seq, route.change)
        if not self.peer_ids or route.kind != CROSS_SHARD:
            return None
        lmap = self._log_map()
        logs = tuple(sorted({lmap.log_of(shard) for shard in route.shards}))
        return (Cut(client_marker_key(route.marker), logs, None)
                if len(logs) > 1 else None)

    def _bind(self, seq: int, route: BatchRoute,
              parts: Tuple[Tuple[int, int], ...]) -> None:
        """Bind a delivered marker to its sequence number.  A log-map
        change's source log binds it with the moved shard's frontier -- the
        change's own part there, its final one.

        A client binding is emitted for *every* globally multi-shard
        marker, whether or not its shards span log groups here: emission
        is then a pure function of the static partition map (rebalancing
        is disabled under multi-log ordering), so all of a log's replicas
        emit matching bodies no matter how a log-map change interleaves --
        a within-group marker's bindings are simply never waited on.
        """
        if not self.peer_ids:
            return
        if route.kind == CROSS_SHARD:
            key, frontier = client_marker_key(route.marker), None
        elif route.kind == LOG_MAP_CHANGE and self.applies(route.change):
            key = route.change.marker_key()
            source = self._log_map().log_of(route.change.shard) == self.log
            frontier = dict(parts)[route.change.shard] if source else None
        else:
            return
        bound = self._bound.get(key)
        if bound is None or bound.body.seq != seq:
            self._emit_binding(key, CrossLogBindingBody(
                marker=key, log=self.log, seq=seq, shard_frontier=frontier))

    def _route_change(self, seq: int, change: LogMapChange) -> Optional[Cut]:
        """Apply a delivered log-map change; a stale or malformed one is
        rejected (its slot was answered vacuously), on every correct
        replica alike.  The target log awaits the source's frontier before
        routing on."""
        if not self.applies(change):
            self.log_map_changes_rejected += 1
            return None
        key = change.marker_key()
        current = self._log_map()
        source = current.log_of(change.shard)
        new_map = current.move(change.shard, change.target_log)
        self.log_registry.append(new_map)
        self.log_epoch = new_map.epoch
        self.log_map_cuts += 1
        if self.log == change.target_log:
            self.awaiting = (key, source, change.shard)
            self._adopt_frontier()
        return Cut(key, tuple(range(self.num_logs)), source)

    def _adopt_frontier(self) -> bool:
        """Continue the moved shard's order where the source log's
        certified binding says it stopped, if it is here yet."""
        key, source, shard = self.awaiting
        body = self._certified.get(key, {}).get(source)
        if body is None or body.shard_frontier is None:
            return False
        self.awaiting = None
        self.queue.adopt_frontier(shard, body.shard_frontier)
        return True

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
        if not self._certify(key, body):
            return
        if (self.awaiting is not None and self.awaiting[0] == key
                and self._adopt_frontier()):
            self.queue.owner.on_routes_resumed(self.queue._routed_seq)
        if held:
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
        return [log for log in hold.cut.touched if log != self.log and (
            log not in certified or (log == hold.cut.source and
                                     certified[log].shard_frontier is None))]

    # ------------------------------------------------------------------ #
    # Ask and serve.
    # ------------------------------------------------------------------ #

    def _on_binding_retransmit(self, key: MarkerKey) -> None:
        """The holding queue's timer: ask the logs still lacking.  A timer
        that came due while its node was busy waits in the inbox, and the
        hold may be released before it runs."""
        hold = self._held.get(key)
        if hold is None:
            return
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
    # The release head: holds and release.
    # ------------------------------------------------------------------ #

    def holds(self, seq: int, cut: Optional[Cut]) -> bool:
        """Whether the release frontier must pause before the batch at
        ``seq``: a cut waits for every other touched log's certified
        binding.  A batch with no cut waits for nobody."""
        if cut is None:
            return False
        hold = self._held.get(cut.key) or self._open_hold(seq, cut)
        return bool(self._lacking(cut.key, hold))

    def _open_hold(self, seq: int, cut: Cut) -> _Hold:
        queue, key = self.queue, cut.key
        hold = self._held[key] = _Hold(
            cut=cut, seq=seq,
            fetch=PendingSend(
                batch=key, fire=lambda: self._on_binding_retransmit(key),
                label=f"{queue.owner.node_id}:xlog-binding",
                timeout_ms=queue.config.timers.agreement_retransmit_ms))
        if key in self._released:
            # Ordered again by this log: what released it then stands.
            self._certified[key] = dict(self._released[key])
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
        # A hold the checkpoint passed is over: others released the marker,
        # and the frontier a log-map cut awaited is in the adopted state.
        for key in [key for key, hold in self._held.items()
                    if hold.seq <= seq]:
            self.finish(key)
        self.awaiting = None
