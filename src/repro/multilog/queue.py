"""The multi-log shard-routing queue: cross-log cuts over K agreement orders.

Each agreement replica of log ``l`` hosts a :class:`MultiLogRouterQueue` --
a :class:`~repro.sharding.queue.ShardRouterQueue` that routes only the
shards of its own log group (judged by the epoch-versioned
:class:`~repro.multilog.logmap.LogMap`) and adds the **cross-log
coordination round** for operations spanning groups:

* When a *cross-shard marker* commits (stages), the queue binds it to the
  sequence number its own log assigned -- a
  :class:`~repro.multilog.messages.CrossLogBinding` multicast to every
  agreement replica of every log.  Binding at commit time (not at release)
  is what keeps two markers ordered inversely by two logs from deadlocking
  each other's release frontiers: the sequence number is already fixed
  when the binding is emitted, regardless of release order.

* When the marker reaches the queue's *release head* and its touched
  shards span several log groups, the frontier **holds** until one
  consistent cut is certified: either a verified
  :class:`~repro.multilog.messages.CrossLogCut` from the coordinating
  log's primary (the lowest touched log -- PR 5's collator discipline
  lifted to the ordering plane), or the queue's own assembly of ``f + 1``
  matching bindings from every other touched log.  Either way the release
  is backed by the same evidence, so a Byzantine coordinator can delay a
  release but never misplace one; its silence falls over to the backups'
  timers (``CUT_FALLOVER_SCALE x agreement_retransmit_ms``), counted in
  :attr:`cut_fallovers`.

* A :class:`~repro.multilog.messages.LogMapChange` is ordered by *every*
  log and binds at its release head, where the source log's binding
  carries the moved shard's frontier (the shard-local sequence number of
  the marker itself -- the source's final envelope); the target log
  adopts the frontier at the cut, so the moved shard's local order
  continues gap- and overlap-free (exactly-once across the move).

Liveness is self-driving: a holding queue retransmits its own binding with
backoff; a queue that already released answers a retransmitted binding
with its own (and the coordinating primary re-serves the collated cut), so
a replica that missed the original multicast recovers without operator
intervention.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..config import AuthenticationScheme, SystemConfig
from ..core.message_queue import PendingSend, QuorumCollector
from ..crypto.certificate import Certificate
from ..messages.agreement import OrderedBatch
from ..net.message import Message
from ..obs import request_trace_id
from ..sim.process import Process
from ..sim.scheduler import Timer
from ..sharding.messages import cross_shard_request_of
from ..sharding.queue import ShardRouterQueue
from ..sharding.router import ShardRouter
from ..util.ids import NodeId
from .logmap import LogMap, LogMapRegistry
from .messages import (LMC_MARKER, XS_MARKER, CrossLogBinding,
                       CrossLogBindingBody, CrossLogCut, LogMapChange,
                       MarkerKey, client_marker_key, log_map_change_of)

#: released coordination records retained (so the coordinating primary can
#: re-serve a cut, and released queues can answer binding retransmissions)
CUT_META_HORIZON = 64

#: the coordinator log's backups arm their fallover timer at this multiple
#: of ``timers.agreement_retransmit_ms`` once their own binding collation
#: completes; on expiry they broadcast the cut themselves, so a Byzantine
#: (or silent) coordinating primary delays a cross-group operation by at
#: most one timer round
CUT_FALLOVER_SCALE = 2.0


class MultiLogRouterQueue(ShardRouterQueue):
    """Local state machine of one agreement node of one log group."""

    def __init__(self, owner: Process, config: SystemConfig,
                 shard_execution_ids: List[List[NodeId]],
                 client_ids: List[NodeId], router: ShardRouter,
                 log: int, log_agreement_ids: List[List[NodeId]],
                 log_registry: LogMapRegistry,
                 shard_threshold_groups: Optional[List[str]] = None) -> None:
        super().__init__(owner=owner, config=config,
                         shard_execution_ids=shard_execution_ids,
                         client_ids=client_ids, router=router,
                         shard_threshold_groups=shard_threshold_groups)
        self.log = log
        self.log_agreement_ids = [list(ids) for ids in log_agreement_ids]
        self.log_registry = log_registry
        self.num_logs = len(log_agreement_ids)
        self.all_agreement_ids = [node for ids in log_agreement_ids
                                  for node in ids]
        #: this node's log-map epoch cursor: the epoch governing the *next*
        #: released batch (advanced exactly at log-map-change cuts)
        self.log_epoch = 0

        #: own emitted binding per marker (kept after release so this queue
        #: can answer a still-coordinating peer's retransmission)
        self._bound: Dict[MarkerKey, CrossLogBinding] = {}
        #: binding assembly, keyed by (marker, log, body) -- the body is a
        #: frozen value object, so keying by it groups matching partials
        #: without charging a digest per absorbed copy
        self._binding_acc: Dict[Tuple[MarkerKey, int, CrossLogBindingBody],
                                QuorumCollector] = {}
        #: certified bindings per (marker, log)
        self._certified: Dict[Tuple[MarkerKey, int],
                              List[QuorumCollector]] = {}
        #: markers currently holding the release frontier:
        #: marker -> (touched logs, own seq, trace id)
        self._held: Dict[MarkerKey, Tuple[Tuple[int, ...], int, str]] = {}
        #: released coordination records (bounded): marker -> (touched, seq)
        self._cut_meta: Dict[MarkerKey, Tuple[Tuple[int, ...], int]] = {}
        #: structurally verified cuts observed, by marker
        self._verified_cuts: Dict[MarkerKey, CrossLogCut] = {}
        #: markers whose cut this (primary) queue already broadcast
        self._cuts_sent: set = set()
        #: binding retransmission state, present exactly while a marker holds
        self._binding_sends: Dict[MarkerKey, PendingSend] = {}
        self._fallover_timers: Dict[MarkerKey, Timer] = {}

        #: test hooks modelling a Byzantine coordinating primary: stay
        #: silent, or collate a tampered cut (mirrors the agreement-side
        #: ``request_liveness_defence`` fault-injection idiom)
        self.suppress_cut_broadcast = False
        self.corrupt_cut_broadcast = False

        # Statistics.
        self.cross_log_markers = 0
        self.bindings_sent = 0
        self.cuts_broadcast = 0
        self.cut_fallovers = 0
        self.invalid_cuts = 0
        self.log_map_cuts = 0
        self.log_map_changes_rejected = 0

    # ------------------------------------------------------------------ #
    # Probes.
    # ------------------------------------------------------------------ #

    def _shard_probe(self) -> dict:
        probe = super()._shard_probe()
        probe.update({
            "log": self.log,
            "log_epoch": self.log_epoch,
            "cross_log_markers": self.cross_log_markers,
            "bindings_sent": self.bindings_sent,
            "cuts_broadcast": self.cuts_broadcast,
            "cut_fallovers": self.cut_fallovers,
            "invalid_cuts": self.invalid_cuts,
            "log_map_cuts": self.log_map_cuts,
            "log_map_changes_rejected": self.log_map_changes_rejected,
            "held_markers": len(self._held),
        })
        return probe

    # ------------------------------------------------------------------ #
    # Helpers.
    # ------------------------------------------------------------------ #

    def _log_map(self) -> LogMap:
        return self.log_registry.map_for(self.log_epoch)

    def _owned_route_targets(self, batch: OrderedBatch, shards):
        lmap = self._log_map()
        return [shard for shard in shards if lmap.log_of(shard) == self.log]

    def _ordering_log(self):
        return self.log

    def _quorum(self) -> int:
        """``f + 1``: at least one correct replica vouches per log."""
        return self.config.f + 1

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
            if not change.well_formed(self.num_shards, self.num_logs):
                return None
            if change.parent_log_epoch != self.log_epoch:
                return None
            if self._log_map().log_of(change.shard) == change.target_log:
                return None
            return change.marker_key(), tuple(range(self.num_logs))
        request = self._cross_shard_marker_of(batch)
        if request is None:
            return None
        shards = self.router.shards_of_operation_keys(request.operation,
                                                      epoch=self.epoch)
        lmap = self._log_map()
        logs = tuple(sorted({lmap.log_of(shard) for shard in shards}))
        if len(logs) < 2:
            return None
        return client_marker_key(request), logs

    # ------------------------------------------------------------------ #
    # Binding emission.
    # ------------------------------------------------------------------ #

    def stage_batch(self, seq: int, view: int, request_certificates,
                    agreement_certificate, nondet) -> None:
        if seq > self._released_seq and seq not in self._staged:
            self._maybe_bind_marker(seq, tuple(request_certificates))
        super().stage_batch(seq=seq, view=view,
                            request_certificates=request_certificates,
                            agreement_certificate=agreement_certificate,
                            nondet=nondet)

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
        if not self.config.cross_shard.enabled:
            return
        request = cross_shard_request_of(certificates)
        if request is None or not self.router.is_cross_shard(
                request, epoch=self.epoch):
            return
        key = client_marker_key(request)
        bound = self._bound.get(key)
        if bound is not None and bound.body.seq == seq:
            return
        self._emit_binding(key, CrossLogBindingBody(marker=key, log=self.log,
                                                    seq=seq))

    def _emit_binding(self, key: MarkerKey,
                      body: CrossLogBindingBody) -> None:
        certificate = self.crypto.new_certificate(
            body, AuthenticationScheme.MAC, self.all_agreement_ids)
        binding = CrossLogBinding(body=body, certificate=certificate,
                                  sender=self.owner.node_id)
        self._bound[key] = binding
        self.bindings_sent += 1
        self.owner.multicast(self.all_agreement_ids, binding)
        # multicast excludes self: absorb the own partial directly.
        self._absorb_binding(binding)

    # ------------------------------------------------------------------ #
    # Binding assembly and cut collation.
    # ------------------------------------------------------------------ #

    def on_unknown_message(self, sender: NodeId, message: Message) -> None:
        """Cross-log traffic offered by the hosting agreement replica."""
        if isinstance(message, CrossLogBinding):
            self._absorb_binding(message)
        elif isinstance(message, CrossLogCut):
            self._absorb_cut(message)

    def _absorb_binding(self, binding: CrossLogBinding) -> None:
        body = binding.body
        if (not isinstance(body, CrossLogBindingBody)
                or not 0 <= body.log < self.num_logs or body.seq <= 0):
            return
        key = tuple(body.marker)
        acc_key = (key, body.log, body)
        collector = self._binding_acc.get(acc_key)
        duplicate = (collector is not None
                     and binding.sender in collector.certificate.signers)
        if (duplicate and binding.sender != self.owner.node_id
                and key in self._cut_meta and key in self._bound):
            # Only a *retransmitted* binding (a partial this queue already
            # merged) marks its sender as still coordinating a marker this
            # queue released: re-serve our own binding (the sender's
            # original copy may have been lost) and, as the coordinating
            # primary, the collated cut.  First copies are never answered,
            # so two released queues cannot ping-pong answers forever.
            self.owner.send(binding.sender, self._bound[key])
            self._maybe_reserve_cut(key)
            return
        if collector is None:
            collector = QuorumCollector(Certificate(
                payload=body, scheme=binding.certificate.scheme))
            self._binding_acc[acc_key] = collector
        if collector.done:
            return
        collector.certificate.merge(binding.certificate)
        membership = self.log_agreement_ids[body.log]
        if collector.certificate.count(membership) < self._quorum():
            return  # cannot reach quorum yet: defer the MAC verification
        valid = self.crypto.valid_signers(collector.certificate, membership)
        if len(valid) < self._quorum():
            return
        collector.done = True
        self._certified.setdefault((key, body.log), []).append(collector)
        self._on_binding_certified(key)

    def _on_binding_certified(self, key: MarkerKey) -> None:
        if key in self._held:
            self._advance_release_frontier()
        self._maybe_coordinate(key)

    def _release_ready(self, key: MarkerKey,
                       touched: Tuple[int, ...]) -> bool:
        """Own assembly: a certified binding from every *other* touched
        log (this queue witnesses its own log's commit directly).  For a
        log-map change the source log's binding must carry the moved
        shard's frontier."""
        source = self._lmc_source(key)
        for log in touched:
            if log == self.log:
                continue
            entries = self._certified.get((key, log))
            if not entries:
                return False
            if log == source and all(entry.body.shard_frontier is None
                                     for entry in entries):
                return False
        return True

    def _lmc_source(self, key: MarkerKey) -> Optional[int]:
        """The log a log-map change moves its shard *from* -- judged at the
        change's parent epoch, so the answer stays right after the cut has
        already advanced this queue's cursor."""
        if key and key[0] == LMC_MARKER:
            parent = key[3]
            if self.log_registry.has_epoch(parent):
                return self.log_registry.map_for(parent).log_of(key[1])
            return self._log_map().log_of(key[1])
        return None

    def _cut_matches_hold(self, cut: CrossLogCut, touched: Tuple[int, ...],
                          seq: int) -> bool:
        if tuple(cut.logs) != tuple(touched):
            return False
        own = cut.body_for(self.log)
        if own is None or own.seq != seq:
            return False
        source = self._lmc_source(tuple(cut.marker))
        if source is not None and source != self.log:
            body = cut.body_for(source)
            if body is None or body.shard_frontier is None:
                return False
        return True

    def _maybe_coordinate(self, key: MarkerKey) -> None:
        """Coordinator duties of the lowest touched log's replicas."""
        meta = self._held.get(key) or self._cut_meta.get(key)
        if meta is None:
            return
        touched, seq = meta[0], meta[1]
        if not touched or min(touched) != self.log:
            return
        if not self._release_ready(key, touched):
            return
        if not any(entry.body.seq == seq
                   for entry in self._certified.get((key, self.log), [])):
            return  # own log's binding not yet certified for this instance
        if getattr(self.owner, "is_primary", False):
            if key not in self._cuts_sent and not self.suppress_cut_broadcast:
                self._broadcast_cut(key, touched, seq)
        elif key not in self._fallover_timers and key not in self._verified_cuts:
            self._arm_cut_fallover(
                key, (CUT_FALLOVER_SCALE
                      * self.config.timers.agreement_retransmit_ms))

    def _build_cut(self, key: MarkerKey, touched: Tuple[int, ...],
                   seq: int) -> Optional[CrossLogCut]:
        source = self._lmc_source(key)
        bodies: List[CrossLogBindingBody] = []
        certificates: List[Certificate] = []
        for log in sorted(touched):
            entries = self._certified.get((key, log), [])
            if log == self.log:
                entries = [entry for entry in entries if entry.body.seq == seq]
            if log == source:
                entries = [entry for entry in entries
                           if entry.body.shard_frontier is not None]
            if not entries:
                return None
            bodies.append(entries[0].body)
            certificates.append(entries[0].certificate)
        return CrossLogCut(marker=key, logs=tuple(sorted(touched)),
                           bodies=tuple(bodies),
                           certificates=tuple(certificates),
                           sender=self.owner.node_id)

    def _broadcast_cut(self, key: MarkerKey, touched: Tuple[int, ...],
                       seq: int) -> None:
        cut = self._build_cut(key, touched, seq)
        if cut is None:
            return
        if self.corrupt_cut_broadcast:
            # Byzantine collation: misreport another log's sequence number.
            # The body no longer matches its certificate, so every correct
            # receiver rejects the cut (invalid_cuts) and releases through
            # its own assembly instead.
            tampered = tuple(
                CrossLogBindingBody(marker=body.marker, log=body.log,
                                    seq=body.seq + 1,
                                    shard_frontier=body.shard_frontier)
                if body.log != self.log else body
                for body in cut.bodies)
            cut = CrossLogCut(marker=cut.marker, logs=cut.logs,
                              bodies=tampered,
                              certificates=cut.certificates,
                              sender=cut.sender)
        else:
            self._verified_cuts[key] = cut
        self._cuts_sent.add(key)
        self.cuts_broadcast += 1
        targets = [node for log in touched
                   for node in self.log_agreement_ids[log]]
        self.owner.multicast(targets, cut)

    def _maybe_reserve_cut(self, key: MarkerKey) -> None:
        """Re-serve an already-collated cut (the coordinating primary's
        answer to a binding retransmitted by a still-holding peer)."""
        if not getattr(self.owner, "is_primary", False):
            return
        if self.suppress_cut_broadcast or key not in self._cuts_sent:
            return
        cut = self._verified_cuts.get(key)
        if cut is None:
            return
        targets = [node for log in cut.logs
                   for node in self.log_agreement_ids[log]]
        self.owner.multicast(targets, cut)

    def _arm_cut_fallover(self, key: MarkerKey, timeout_ms: float) -> None:
        self._fallover_timers[key] = self.owner.set_timer(
            timeout_ms, lambda key=key: self._on_cut_fallover(key),
            label=f"{self.owner.node_id}:xlog-cut-fallover")

    def _on_cut_fallover(self, key: MarkerKey) -> None:
        self._fallover_timers.pop(key, None)
        if key in self._verified_cuts or key in self._cuts_sent:
            return
        meta = self._held.get(key) or self._cut_meta.get(key)
        if meta is None:
            return
        touched, seq = meta[0], meta[1]
        if not self._release_ready(key, touched):
            return  # assembly regressed is impossible; binding still missing
        self.cut_fallovers += 1
        self._broadcast_cut(key, touched, seq)

    def _absorb_cut(self, cut: CrossLogCut) -> None:
        key = tuple(cut.marker)
        if key in self._verified_cuts or (key not in self._held
                                          and key in self._cut_meta):
            return  # already verified, or released without needing the cut
        if not self._verify_cut(cut):
            self.invalid_cuts += 1
            return
        self._verified_cuts[key] = cut
        timer = self._fallover_timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        held = self._held.get(key)
        if held is not None:
            touched, seq = held[0], held[1]
            if self._cut_matches_hold(cut, touched, seq):
                self._advance_release_frontier()
            else:
                # Valid certificates collated for the wrong instance or
                # touched set: never release on it (own assembly will).
                self.invalid_cuts += 1

    def _verify_cut(self, cut: CrossLogCut) -> bool:
        """Structural verification -- trust only the ``f + 1`` signers."""
        if (len(cut.logs) != len(cut.bodies)
                or len(cut.logs) != len(cut.certificates)):
            return False
        if list(cut.logs) != sorted(set(cut.logs)) or len(cut.logs) < 2:
            return False
        for log, body, certificate in zip(cut.logs, cut.bodies,
                                          cut.certificates):
            if not 0 <= log < self.num_logs:
                return False
            if not isinstance(body, CrossLogBindingBody) or body.log != log:
                return False
            if tuple(body.marker) != tuple(cut.marker):
                return False
            if certificate.payload != body:
                return False
            if any(entry.body == body for entry in
                   self._certified.get((tuple(cut.marker), log), [])):
                # This queue already certified an identical binding for the
                # log; the cut's copy needs no second MAC verification.  (A
                # tampered body never matches: the free payload-equality
                # check above already rejected it.)
                continue
            valid = self.crypto.valid_signers(certificate,
                                              self.log_agreement_ids[log])
            if len(valid) < self._quorum():
                return False
        return True

    # ------------------------------------------------------------------ #
    # Release frontier: holds and routing.
    # ------------------------------------------------------------------ #

    def _release_hold(self, batch: OrderedBatch) -> bool:
        coordination = self._coordination_of(batch)
        if coordination is None:
            return False
        key, touched = coordination
        seq = batch.seq
        held = self._held.get(key)
        if held is None or held[1] != seq:
            trace_id = self._marker_trace_id(key)
            self._held[key] = (touched, seq, trace_id)
            self._ensure_bound(batch, key, seq)
            if self.owner.tracing:
                self.owner.trace_event(trace_id, "coordinate_open")
            pending = PendingSend(
                batch=key, fire=lambda key=key: self._on_binding_retransmit(key),
                label=f"{self.owner.node_id}:xlog-binding",
                timeout_ms=self.config.timers.agreement_retransmit_ms)
            self._binding_sends[key] = pending
            self._arm(pending)
            self._maybe_coordinate(key)
        cut = self._verified_cuts.get(key)
        if cut is not None and self._cut_matches_hold(cut, touched, seq):
            return False
        if self._release_ready(key, touched):
            return False
        return True

    def _marker_trace_id(self, key: MarkerKey) -> str:
        if key[0] == XS_MARKER:
            return request_trace_id(key[1], key[2])
        return f"logmove:{key[1]}:{key[3]}"

    def _ensure_bound(self, batch: OrderedBatch, key: MarkerKey,
                      seq: int) -> None:
        if key[0] == LMC_MARKER:
            change = log_map_change_of(batch.request_certificates)
            frontier = None
            if self._log_map().log_of(change.shard) == self.log:
                # The marker itself is this shard's next (and, from this
                # log, final) envelope.
                frontier = self._next_shard_seq[change.shard] + 1
            self._emit_binding(key, CrossLogBindingBody(
                marker=key, log=self.log, seq=seq, shard_frontier=frontier))
            return
        bound = self._bound.get(key)
        if bound is None or bound.body.seq != seq:
            # Normally bound at staging; re-bind defensively (a checkpoint
            # sync can skip the staging pass for a later-re-ordered marker).
            self._emit_binding(key, CrossLogBindingBody(marker=key,
                                                        log=self.log,
                                                        seq=seq))

    def _on_binding_retransmit(self, key: MarkerKey) -> None:
        pending = self._binding_sends.get(key)
        if pending is not None:
            # The binding is looked up when the timer fires, not when it is
            # armed: a marker re-ordered while it holds is re-bound to its
            # new sequence number, and that binding is the one peers need.
            binding = self._bound.get(key)
            if binding is not None:
                self.owner.multicast(self.all_agreement_ids, binding)
            self._back_off(pending)

    def _route_batch(self, batch: OrderedBatch) -> None:
        change = log_map_change_of(batch.request_certificates)
        if change is not None:
            self._route_log_map_change(batch, change)
            return
        key = None
        request = self._cross_shard_marker_of(batch)
        if request is not None:
            key = client_marker_key(request)
            if key in self._held:
                self.cross_log_markers += 1
        super()._route_batch(batch)
        if key is not None:
            self._finish_coordination(key)

    def _route_log_map_change(self, batch: OrderedBatch,
                              change: LogMapChange) -> None:
        """Route the change marker to this log's group and apply the cut.

        Every log routes the marker to each shard it owns *pre-cut* (so
        every execution cluster meets the log-epoch boundary at a
        deterministic slot in its own order; the moved shard's envelope
        from the source log is its final one), then applies the new map.
        The target log additionally adopts the moved shard's certified
        frontier, continuing its shard-local sequence space exactly where
        the source log stopped.
        """
        self._observe_release(batch)
        key = change.marker_key()
        current = self._log_map()
        if (not change.well_formed(self.num_shards, self.num_logs)
                or change.parent_log_epoch != self.log_epoch
                or current.log_of(change.shard) == change.target_log):
            self.log_map_changes_rejected += 1
            self._vacuous_answer(batch.seq)
            self._finish_coordination(key)
            return
        frontier = None
        if self.log == change.target_log:
            frontier = self._frontier_from_evidence(
                key, current.log_of(change.shard))
        self._send_parts(batch, [shard for shard in range(self.num_shards)
                                 if current.log_of(shard) == self.log])
        new_map = current.move(change.shard, change.target_log)
        self.log_registry.append(new_map)
        self.log_epoch = new_map.log_epoch
        self.log_map_cuts += 1
        if frontier is not None:
            self._next_shard_seq[change.shard] = frontier
        self._finish_coordination(key)

    def _frontier_from_evidence(self, key: MarkerKey,
                                source: int) -> Optional[int]:
        cut = self._verified_cuts.get(key)
        if cut is not None:
            body = cut.body_for(source)
            if body is not None and body.shard_frontier is not None:
                return body.shard_frontier
        for entry in self._certified.get((key, source), []):
            if entry.body.shard_frontier is not None:
                return entry.body.shard_frontier
        return None  # unreachable: the release hold requires the evidence

    def _finish_coordination(self, key: MarkerKey) -> None:
        held = self._held.pop(key, None)
        if held is not None:
            self._cut_meta[key] = (held[0], held[1])
            if self.owner.tracing:
                self.owner.trace_event(held[2], "coordinate_done")
        pending = self._binding_sends.pop(key, None)
        if pending is not None:
            pending.timer.cancel()
        timer = self._fallover_timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        self._prune_coordination_state()

    def _prune_coordination_state(self) -> None:
        """Bound the released-marker bookkeeping (local liveness state
        only -- never part of any agreed or certified artifact, so pruning
        differences between replicas cannot diverge the protocol)."""
        while len(self._cut_meta) > CUT_META_HORIZON:
            stale = next(iter(self._cut_meta))
            self._cut_meta.pop(stale, None)
            self._bound.pop(stale, None)
            self._verified_cuts.pop(stale, None)
            self._cuts_sent.discard(stale)
            self._certified = {
                acc_key: entries for acc_key, entries in
                self._certified.items() if acc_key[0] != stale
            }
            self._binding_acc = {
                acc_key: collector for acc_key, collector in
                self._binding_acc.items() if acc_key[0] != stale
            }

    # ------------------------------------------------------------------ #
    # Checkpoint state transfer: the log-epoch cursor travels too.
    # ------------------------------------------------------------------ #

    def _frontier_state(self):
        return super()._frontier_state() + (("log_epoch", self.log_epoch),)

    def sync_to_checkpoint(self, seq: int, sync_state) -> None:
        state = dict(sync_state)
        log_epoch = state.get("log_epoch")
        if (log_epoch is not None and log_epoch > self.log_epoch
                and self.log_registry.has_epoch(log_epoch)):
            # Maps themselves derive from the agreed change history
            # (shared registry); only the cursor transfers.
            self.log_epoch = log_epoch
        super().sync_to_checkpoint(seq, sync_state)
