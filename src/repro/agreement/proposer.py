"""The proposer: what goes into the next batch, and against which windows.

Every agreement replica builds one :class:`Proposer` with itself: the
primary-side policy of the three-phase protocol -- client request admission
(and forwarding from a backup to the primary), the
:class:`~repro.agreement.batching.Batcher` with its bundle and gather
timers, the queue of cross-shard markers, and config operations.  The
replica keeps PRE-PREPARE / PREPARE / COMMIT, checkpoints and view changes;
the proposer hands it each batch through
:meth:`~repro.agreement.replica.AgreementReplica.pre_prepare`.

What a request is, the proposer asks the replica's local queue
(:meth:`~repro.agreement.local.LocalExecutor.request_shard`,
:meth:`~repro.agreement.local.LocalExecutor.cross_shards`), which answers at
its live partition-map epoch, or ``None`` when it does not shard.  One
admission rule, :meth:`Proposer._admissible`, covers every proposal: a
bundle passes its one shard, a marker its touched shards.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..config import AuthenticationScheme
from ..crypto.certificate import Certificate
from ..messages.agreement import ConfigOperation
from ..messages.request import ClientRequest, RequestEnvelope
from ..obs import request_trace_id
from ..sim.scheduler import Timer
from ..util.ids import NodeId
from .batching import Batcher, make_bundle_controller
from .local import RetryOutcome

#: EWMA smoothing factor for the measured order-to-reply round trip
_RTT_ALPHA = 0.125
#: the RTT-derived gather window is this fraction of the smoothed round trip
_RTT_GATHER_FRACTION = 0.5
#: floor of the RTT-derived gather window (ms)
_MIN_GATHER_MS = 0.5
#: quiet-gap flush window (ms) used instead of ``timers.batch_timeout_ms``
#: when at most one batch is in flight: long enough to cover the
#: reply-to-resubmission round trip of a closed-loop client cohort, and
#: each arrival during the gather pushes the flush out by another
#: ``GATHER_MS`` (a debounce that captures the whole burst), bounded by
#: ``timers.batch_timeout_ms`` from the start of the gather.  At
#: ``min_bundle`` every take happens at arrival time and this window is
#: never armed, so light-load latency is untouched.  Per-shard windows
#: replace it with a window derived from the measured round trip.
GATHER_MS = 6.0


class InFlight(NamedTuple):
    """One own proposal awaiting its reply."""

    #: certificates in the batch (the adaptive-batching congestion signal)
    size: int
    #: shard -> requests the batch owes it (sizes the per-shard windows)
    by_shard: Dict[int, int]
    #: proposal time (RTT sampling, agreement latency)
    sent_at: float


class Proposer:
    """The primary-side policy of one agreement replica."""

    def __init__(self, replica) -> None:
        self.replica = replica
        config = replica.config
        self.config = config
        #: per-shard windows (:attr:`repro.config.SystemConfig.per_shard_windows`):
        #: one FIFO and one admission window per shard the queue names
        self.per_shard = config.per_shard_windows
        #: per-shard flush deadlines (``BatchingConfig.timeout_scale_max``)
        self._per_shard_timeouts = (self.per_shard
                                    and config.batching.timeout_scale_max > 1.0)
        self._adaptive = config.batching.mode == "adaptive"
        self.batcher = Batcher(
            controller=make_bundle_controller(config),
            classifier=self._shard_of if self.per_shard else None,
            controller_factory=lambda: make_bundle_controller(config),
            demote_idle_ms=config.batching.demote_idle_ms,
            metrics=replica.metrics)
        #: highest timestamp ordered (delivered) per client
        self.ordered_timestamp: Dict[NodeId, int] = {}
        #: client requests whose delivery we are waiting for (liveness timer)
        self._request_deadlines: Dict[Tuple[NodeId, int], Timer] = {}
        #: cross-shard requests awaiting their single-certificate marker
        #: batch (drained ahead of the bundles)
        self._markers: List[Certificate] = []
        #: own proposals not yet answered, in proposal order
        self.inflight: Dict[int, InFlight] = {}
        #: smoothed order-to-reply round trip (None until the first sample)
        self.rtt_ewma: Optional[float] = None
        #: simulator event stamp of the last in-flight prune (one scan per event)
        self._prune_stamp: Optional[int] = None
        self._batch_timer: Optional[Timer] = None
        #: absolute bound on the current idle-gather window (None when no
        #: idle gather is in progress)
        self._gather_deadline: Optional[float] = None
        self.cross_shard_ordered = 0

    def _shard_of(self, certificate: Certificate) -> Optional[int]:
        return self.replica.local.request_shard(certificate.payload)

    # ------------------------------------------------------------------ #
    # Admission.
    # ------------------------------------------------------------------ #

    def handle_request(self, sender: NodeId, envelope: RequestEnvelope) -> None:
        replica = self.replica
        certificate = envelope.certificate
        request = replica.crypto.authentic_request(certificate, replica.client_ids)
        if request is None:
            return
        if request.timestamp <= self.ordered_timestamp.get(request.client, -1):
            # Retransmission of a request we have already ordered: let the
            # local state machine serve a cached reply or resend pending
            # certificates; only re-run agreement if it has no trace of it.
            relayed = sender != request.client
            if replica.local.retry_hint(certificate, relayed) is RetryOutcome.HANDLED:
                return
        self._admit(certificate, request)

    def _admit(self, certificate: Certificate, request: ClientRequest) -> None:
        replica = self.replica
        if not self._enqueue(certificate, request):
            return
        if replica.tracing:
            replica.trace_event(request_trace_id(request.client, request.timestamp),
                                "admit")
        self._arm_request_deadline((request.client, request.timestamp))
        if replica.is_primary:
            self.maybe_make_batch()
        else:
            self._forward_to_primary(certificate)

    def _enqueue(self, certificate: Certificate, request: ClientRequest) -> bool:
        """Queue a request for a batch -- a marker alone if it crosses
        shards; False if it is queued already."""
        replica = self.replica
        if replica.local.cross_shards(request) is not None:
            return self._queue_marker(certificate, request)
        return self.batcher.add(certificate, now=replica.now)

    def _queue_marker(self, certificate: Certificate,
                      request: ClientRequest) -> bool:
        """Queue a cross-shard request for a batch of its own, so that its
        sequence number is a clean cut over every touched shard (as for a
        config operation); a retransmission racing it is folded."""
        for pending in self._markers:
            queued: ClientRequest = pending.payload
            if (queued.client == request.client
                    and queued.timestamp == request.timestamp):
                return False
        self._markers.append(certificate)
        return True

    def _forward_to_primary(self, certificate: Certificate) -> None:
        """A request sent to a backup still makes progress (Castro-Liskov
        optimisation); its deadline timer triggers a view change if the
        primary never orders it."""
        replica = self.replica
        replica.send(replica.primary_of(replica.view),
                     RequestEnvelope(certificate=certificate))

    def _arm_request_deadline(self, key: Tuple[NodeId, int]) -> None:
        """Arm the deadline of request ``(client, timestamp)`` unless it runs."""
        if key in self._request_deadlines and self._request_deadlines[key].active:
            return
        self._request_deadlines[key] = self.replica.set_timer(
            self.config.timers.view_change_ms,
            lambda key=key: self._on_request_timeout(key),
            label=f"{self.replica.node_id}:request-deadline")

    def _on_request_timeout(self, key: Tuple[NodeId, int]) -> None:
        if key not in self._request_deadlines:
            return
        del self._request_deadlines[key]
        client, timestamp = key
        if self.ordered_timestamp.get(client, -1) >= timestamp:
            return
        replica = self.replica
        if replica.is_primary:
            # As in PBFT, only a backup suspects the primary: a primary
            # voting alone stops proposing until the backups' own timers
            # fire, which only stalls its view.
            return
        replica.start_view_change(replica.next_view_target(replica.view))

    # ------------------------------------------------------------------ #
    # What the replica tells the proposer.
    # ------------------------------------------------------------------ #

    def on_delivered(self, requests: Sequence[Certificate]) -> None:
        """A batch was delivered: its requests leave queues and deadlines."""
        for certificate in requests:
            request = certificate.payload
            if not isinstance(request, ClientRequest):
                continue  # config operations carry no client bookkeeping
            client, timestamp = request.client, request.timestamp
            self.ordered_timestamp[client] = max(
                self.ordered_timestamp.get(client, -1), timestamp)
            self.batcher.remove(client, timestamp)
            self._markers = [
                marker for marker in self._markers
                if not (marker.payload.client == client
                        and marker.payload.timestamp <= timestamp)]
            for key in [k for k in self._request_deadlines
                        if k[0] == client and k[1] <= timestamp]:
                self._request_deadlines.pop(key).cancel()

    def on_checkpoint_sync(self) -> None:
        """The replica jumped to a stable checkpoint: a starved request
        re-arms on the client's next retransmission."""
        for timer in self._request_deadlines.values():
            timer.cancel()
        self._request_deadlines.clear()

    def on_view_entered(self, dropped: Sequence[Certificate] = ()) -> None:
        """Start the view over.

        The old view's proposals are forgotten (the view change may have
        discarded them; the router queue's released-but-unanswered counts
        still back-pressure whatever survived) and the ``dropped`` requests
        of pre-prepares it did discard are queued again.  Every pending
        request gets a full deadline: one armed in the old view would fire
        moments into this one and depose a primary that had no time to act.
        A backup hands its queue to the new primary, which may never have
        seen it (a deposed primary's queue is exactly what it failed to
        order); a still-faulty primary triggers the next view change.
        """
        replica = self.replica
        self.inflight.clear()
        for certificate in dropped:
            request = certificate.payload
            if request.timestamp > self.ordered_timestamp.get(request.client, -1):
                self._enqueue(certificate, request)
        for timer in self._request_deadlines.values():
            timer.cancel()
        queued = self.batcher.pending_requests() + self._markers
        pending = list(self._request_deadlines)
        pending += [(certificate.payload.client, certificate.payload.timestamp)
                    for certificate in queued]
        self._request_deadlines.clear()
        for key in dict.fromkeys(pending):
            self._arm_request_deadline(key)
        if replica.is_primary:
            replica.set_timer(2.0, self.maybe_make_batch,
                              label=f"{replica.node_id}:enter-view-batch")
            return
        for certificate in queued:
            self._forward_to_primary(certificate)

    def on_pipeline_progress(self) -> None:
        """A reply certificate freed pipeline capacity: the primary
        considers a new batch at once (the group-commit trigger)."""
        self._prune_answered()
        self.maybe_make_batch()

    # ------------------------------------------------------------------ #
    # Forming batches.
    # ------------------------------------------------------------------ #

    def maybe_make_batch(self) -> None:
        """Create a batch now if a full bundle is ready, else arm the batch timer."""
        replica = self.replica
        if not replica.is_primary or replica._view_changing:
            return
        self._drain_bundles(full_only=True)
        if not self._has_pending_work():
            # The queue drained through full-bundle takes: a timer armed for
            # an earlier (now ordered) request must not linger, or it fires
            # mid-gathering of the *next* bundle and flushes it prematurely.
            self._cancel_batch_timer()
            self._gather_deadline = None
            return
        timeout = self.config.timers.batch_timeout_ms
        if (self._adaptive and self._admissible_work()
                and self._batches_in_flight() <= 1):
            # Group commit with double buffering: a long fill wait would
            # idle execution, so gather with a debounced quiet-gap window --
            # each arrival extends the flush, so the burst of re-submissions
            # after a reply lands in one bundle; the batch timeout caps it.
            if self._gather_deadline is None:
                self._gather_deadline = replica.now + timeout
            timeout = min(max(self._gather_deadline - replica.now, 0.0),
                          self._gather_window())
            self._cancel_batch_timer()
        if self._batch_timer is None or not self._batch_timer.active:
            self._arm_batch_timer(timeout)
        elif self._batch_timer.deadline > replica.now + timeout + 1e-9:
            # An earlier (longer) flush deadline is superseded.
            self._batch_timer.cancel()
            self._arm_batch_timer(timeout)

    def _arm_batch_timer(self, delay: float) -> None:
        self._batch_timer = self.replica.set_timer(
            delay, self._on_batch_timeout,
            label=f"{self.replica.node_id}:batch-timeout")

    def _cancel_batch_timer(self) -> None:
        if self._batch_timer is not None and self._batch_timer.active:
            self._batch_timer.cancel()

    def _on_batch_timeout(self) -> None:
        replica = self.replica
        if not replica.is_primary or replica._view_changing:
            return
        base = self.config.timers.batch_timeout_ms
        if not self._per_shard_timeouts:
            self._drain_bundles(full_only=False)
            if self._has_pending_work():
                self._arm_batch_timer(base)  # the windows are full: retry shortly
            return
        # Flush full bundles everywhere, partial ones only where the own
        # fill window expired: a hot shard's stretched window keeps
        # gathering while cold shards flush at the base latency.
        self._drain_bundles(full_only=True)
        for shard in self.batcher.due_shards(replica.now, base):
            if self._admissible(_bundle_shards(shard)):
                self._make_batch(shard)
        if self._has_pending_work():
            deadline = self.batcher.next_flush_deadline(base)
            self._arm_batch_timer(base if deadline is None else min(
                max(deadline - replica.now, 0.05 * base), base))

    def _drain_bundles(self, full_only: bool) -> None:
        """Order every admissible marker, then every admissible bundle
        (full bundles only, or -- on a flush timeout -- partial ones too).

        Queues are scanned in cross-shard FIFO order, but a queue whose
        shard window is full does not block the queues behind it: that
        head-of-line independence is what lets cold shards keep flowing
        while a hot shard's pipeline is at capacity.
        """
        self._prune_answered()
        self._drain_markers()
        progressed = True
        while progressed:
            progressed = False
            shards = (self.batcher.full_shards() if full_only
                      else self.batcher.shards())
            for shard in shards:
                if self._admissible(_bundle_shards(shard)):
                    self._make_batch(shard)
                    progressed = True
                    break

    def _drain_markers(self) -> None:
        """Order every admissible queued marker, in FIFO order.

        A marker is always a complete "bundle" of one.  A queued request
        whose keys collapsed onto a single shard since admission (a
        rebalance merged them) is handed to the batcher instead.
        """
        replica = self.replica
        while self._markers:
            certificate = self._markers[0]
            touched = replica.local.cross_shards(certificate.payload)
            if touched is None:
                self._markers.pop(0)
                self.batcher.add(certificate, now=replica.now)
                continue
            if not self._admissible(touched):
                return
            self._markers.pop(0)
            self._gather_deadline = None
            self._propose([certificate], {shard: 1 for shard in touched})
            self.cross_shard_ordered += 1

    def _make_batch(self, shard: Optional[int]) -> None:
        if shard is not None:
            in_flight = self._shard_requests_in_flight(shard)
        else:
            in_flight = self._requests_in_flight()
        requests = self.batcher.take(in_flight=in_flight, shard=shard,
                                     now=self.replica.now)
        if not requests:
            return
        # Any take ends the current idle-gather episode; the next gather
        # starts a fresh batch-timeout bound (leaving the old deadline in
        # place would shrink later gather windows to zero once it passed).
        self._gather_deadline = None
        self._propose(requests, {} if shard is None else {shard: len(requests)})

    def _propose(self, requests: List[Certificate],
                 by_shard: Dict[int, int]) -> int:
        """Put ``requests`` in flight at the next sequence number."""
        replica = self.replica
        seq = replica.next_seq
        self.inflight[seq] = InFlight(len(requests), by_shard, replica.now)
        replica.pre_prepare(requests)
        return seq

    def can_propose_config(self) -> bool:
        """Whether a config operation would be ordered now: this replica
        leads a settled view, no config operation is in flight (a second
        concurrent cut would no-op, its parent epoch gone stale), and the
        log's ``[h, h + L]`` window has room."""
        replica = self.replica
        return (replica.is_primary and not replica._view_changing
                and not replica.log.has_pending_config_op()
                and replica.next_seq <= replica.log.high_watermark)

    def propose_map_change(self, change: ConfigOperation) -> bool:
        """Order a partition-map change through the agreement log.

        The change rides the normal agreement path as a single-certificate
        batch signed by this primary for its backups (which check it) and
        ``cert_verifiers``; its sequence number is the epoch cut.
        It bypasses the pipeline windows (the cut must not queue behind the
        very hot shard it is trying to relieve).
        """
        if not self.can_propose_config():
            return False
        replica = self.replica
        certificate = replica.crypto.new_certificate(
            change,
            AuthenticationScheme.SIGNATURE
            if self.config.authentication is AuthenticationScheme.SIGNATURE
            else AuthenticationScheme.MAC,
            replica.agreement_ids + replica.cert_verifiers)
        seq = self._propose([certificate], {})
        replica.log.note_config_op(replica.view, seq)
        return True

    # ------------------------------------------------------------------ #
    # Admission: one rule for bundles and markers.
    # ------------------------------------------------------------------ #

    def _admissible(self, shards: Sequence[int]) -> bool:
        """Whether a batch owing work to ``shards`` may take the next
        sequence number.

        The log's ``[h, h + L]`` window always bounds it.  With per-shard
        windows each of ``shards`` must have fewer than ``pipeline_depth``
        batches in flight, so one slow shard never gates another; otherwise
        (or for an unclassified bundle) the paper's global watermark allows
        ``pipeline_depth`` sequence numbers above the answered floor.
        """
        replica = self.replica
        seq = replica.next_seq
        if seq > replica.log.high_watermark:
            return False
        depth = self.config.pipeline_depth
        if self.per_shard and shards:
            return all(self._shard_in_flight(shard) < depth for shard in shards)
        return seq <= self._answered_floor() + depth

    def _answered_floor(self) -> int:
        replica = self.replica
        ready = replica.local.highest_ready_seq()
        return ready if ready is not None else replica.log.last_delivered_seq

    def _has_pending_work(self) -> bool:
        return self.batcher.has_work() or bool(self._markers)

    def _admissible_work(self) -> bool:
        """Whether any pending queue could be ordered right now."""
        if self._markers:
            touched = self.replica.local.cross_shards(self._markers[0].payload)
            if touched is None or self._admissible(touched):
                return True
        return any(self._admissible(_bundle_shards(shard))
                   for shard in self.batcher.shards())

    def _prune_answered(self) -> None:
        """Drop answered proposals from the in-flight table, sampling their
        order-to-reply round trip into the gather-window EWMA.

        Memoised per simulator event: answers only arrive through message
        events, so within one callback the in-flight set can only grow
        (new proposals are unanswered by construction) and one scan
        suffices no matter how many admission checks the pass makes.
        """
        replica = self.replica
        stamp = replica.scheduler.events_processed
        if stamp == self._prune_stamp:
            return
        self._prune_stamp = stamp
        floor = self._answered_floor()
        for seq in [s for s in self.inflight
                    if s <= floor or replica.local.seq_answered(s)]:
            sample = replica.now - self.inflight.pop(seq).sent_at
            self.rtt_ewma = sample if self.rtt_ewma is None else (
                (1.0 - _RTT_ALPHA) * self.rtt_ewma + _RTT_ALPHA * sample)

    def _gather_window(self) -> float:
        """The idle-gather (group-commit debounce) window: with per-shard
        windows it tracks the measured commit round trip, else it is the
        static :data:`GATHER_MS`."""
        if self.per_shard and self.rtt_ewma is not None:
            return min(max(_RTT_GATHER_FRACTION * self.rtt_ewma, _MIN_GATHER_MS),
                       self.config.timers.batch_timeout_ms)
        return GATHER_MS

    def _requests_in_flight(self) -> int:
        self._prune_answered()
        return sum(record.size for record in self.inflight.values())

    def _batches_in_flight(self) -> int:
        self._prune_answered()
        return len(self.inflight)

    def _shard_in_flight(self, shard: int) -> int:
        """Batches in flight that touch ``shard``: own proposals not yet
        answered, cross-checked against the router queue's released-but-
        unanswered count (which also covers an earlier primary's)."""
        self._prune_answered()
        own = sum(1 for record in self.inflight.values()
                  if shard in record.by_shard)
        return max(own, self.replica.local.shard_outstanding(shard))

    def _shard_requests_in_flight(self, shard: int) -> int:
        """Requests in flight owned by ``shard`` (its bundle controller's
        congestion signal)."""
        self._prune_answered()
        return sum(record.by_shard.get(shard, 0)
                   for record in self.inflight.values())


def _bundle_shards(shard: Optional[int]) -> Tuple[int, ...]:
    """The shards a bundle from one batcher queue owes work to (none for
    the unclassified queue)."""
    return () if shard is None else (shard,)
