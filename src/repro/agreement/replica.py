"""The agreement replica.

Each of the ``3f + 1`` agreement nodes runs an :class:`AgreementReplica`,
which implements a PBFT-style three-phase protocol (following Castro &
Liskov, as the BASE library does):

1. the primary of the current view assigns the next sequence number to a
   batch of request certificates and multicasts a ``PRE-PREPARE``;
2. backups validate it (correct primary, view, watermarks, request
   authenticity, batch digest, sane nondeterminism proposal) and multicast
   ``PREPARE``;
3. once a replica has the pre-prepare and ``2f`` matching prepares it is
   *prepared* and multicasts ``COMMIT`` carrying its authenticator over the
   agreement-certificate body;
4. once it has ``2f + 1`` matching commits it is *committed*: it assembles
   the agreement certificate ``<COMMIT, v, n, d, A>_{A,E,2f+1}`` out of the
   commit authenticators and "executes" the batch against its local state
   machine (message queue or direct executor) in sequence-number order.

The replica also implements checkpointing with watermarks, garbage
collection, and a view-change protocol that re-proposes prepared batches so
that an agreed ordering survives a faulty primary.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..config import AuthenticationScheme, SystemConfig
from ..crypto.certificate import Certificate
from ..crypto.keys import Keystore
from ..crypto.provider import CryptoProvider
from ..errors import ProtocolError
from ..messages.agreement import (
    AgreementCertBody,
    AgreementCheckpoint,
    CommitMsg,
    ConfigOperation,
    NewView,
    Prepare,
    PreparedProof,
    PrePrepare,
    ViewChange,
)
from ..messages.reply import BatchReply
from ..messages.request import ClientRequest, RequestEnvelope
from ..net.message import Message
from ..obs import request_trace_id
from ..sim.process import Process
from ..sim.scheduler import Scheduler, Timer
from ..statemachine.nondet import NonDeterminismResolver, NonDetInput
from ..util.ids import NodeId
from .batching import ANY_SHARD, Batcher, make_bundle_controller
from .local import LocalExecutor, RetryOutcome
from .log import AgreementLog, LogEntry

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
#: never armed, so light-load latency is untouched.
GATHER_MS = 6.0
#: upper bound on the view-change escalation delay (ms); a cap below
#: ``timers.view_change_ms`` is treated as ``view_change_ms`` (the backoff
#: never undercuts the base timer)
VIEW_CHANGE_BACKOFF_CAP_MS = 6400.0


class AgreementReplica(Process):
    """One replica of the BASE-style agreement cluster."""

    def __init__(self, node_id: NodeId, scheduler: Scheduler, config: SystemConfig,
                 keystore: Keystore, local: LocalExecutor,
                 agreement_ids: List[NodeId], client_ids: List[NodeId],
                 cert_verifiers: Optional[List[NodeId]] = None) -> None:
        super().__init__(node_id, scheduler)
        self.config = config
        self.local = local
        self.agreement_ids = list(agreement_ids)
        self.client_ids = list(client_ids)
        #: every node that must be able to verify agreement certificates
        #: (agreement peers, execution nodes, and firewall filters).
        self.cert_verifiers = list(cert_verifiers or agreement_ids)
        self.crypto = CryptoProvider(node_id, keystore, config.crypto,
                                     charge=self.charge,
                                     record=self.stats.record_crypto,
                                     perf=config.perf)
        self.index = self.agreement_ids.index(node_id)
        self.f = config.f

        self.view = 0
        self.next_seq = 1
        self.log = AgreementLog(config.checkpoint_interval)
        self.batcher = Batcher(controller=make_bundle_controller(config),
                               metrics=self.metrics)
        self._adaptive_batching = config.batching.mode == "adaptive"
        #: observability instruments (shared no-ops when metrics are off)
        self._h_batch_size = self.metrics.histogram(
            "agreement.batch_size", bounds=(1, 2, 4, 8, 16, 32, 64, 128))
        self._h_agree_ms = self.metrics.histogram("agreement.commit_ms")
        self._c_batches = self.metrics.counter("agreement.batches_delivered")
        self._c_requests = self.metrics.counter("agreement.requests_delivered")
        self.metrics.register_probe("agreement.state", lambda: {
            "view": self.view,
            "view_changes_completed": self.view_changes_completed,
            "primaries_deposed": self.primaries_deposed,
            "checkpoint_syncs": self.checkpoint_syncs,
            "cross_shard_ordered": self.cross_shard_ordered,
            "rtt_ewma_ms": self._rtt_ewma,
            "cert_cache_hits": self.crypto.cache.hits if self.crypto.cache else 0,
            "cert_cache_misses": self.crypto.cache.misses if self.crypto.cache else 0,
        })
        self.nondet = NonDeterminismResolver()

        #: highest timestamp ordered (assigned a sequence number) per client
        self.ordered_timestamp: Dict[NodeId, int] = {}
        #: client requests whose delivery we are waiting for (liveness timer)
        self._request_deadlines: Dict[Tuple[NodeId, int], Timer] = {}
        self._batch_timer: Optional[Timer] = None
        #: request count per own-proposed batch still awaiting its reply
        #: (the adaptive-batching congestion signal)
        self._inflight_batch_sizes: Dict[int, int] = {}
        #: per own-proposed batch: destination shard -> owned request count
        #: (sizes the per-shard pipeline windows and bundle controllers)
        self._inflight_shard_requests: Dict[int, Dict[int, int]] = {}
        #: proposal time per own batch awaiting its reply (RTT sampling)
        self._batch_sent_at: Dict[int, float] = {}
        #: smoothed order-to-reply round trip (None until the first sample)
        self._rtt_ewma: Optional[float] = None
        #: simulator event stamp of the last in-flight prune (one scan per event)
        self._prune_stamp: Optional[int] = None
        #: deterministic request -> shard mapping (set by the sharded system
        #: when per-shard pipelining is configured; None = global pipeline)
        self._shard_classifier = None
        #: cross-shard probe: request -> touched shard list (len >= 2) or
        #: None, judged at the live partition-map epoch (set by the sharded
        #: system when cross-shard operations are enabled)
        self._cross_shard_probe = None
        #: cross-shard requests awaiting their single-certificate marker
        #: batch (drained ahead of the per-shard bundles)
        self._cross_shard_pending: List[Certificate] = []
        #: rebalance controller + load observer (set by the sharded system
        #: when dynamic rebalancing is configured)
        self._rebalancer = None
        self._rebalance_observe = None
        #: absolute bound on the current idle-gather window (None when no
        #: idle gather is in progress)
        self._gather_deadline: Optional[float] = None

        # View change state.
        self._view_change_votes: Dict[int, Dict[NodeId, ViewChange]] = {}
        self._view_changing = False
        self._target_view = 0
        #: consecutive failed view-change escalations since the last
        #: NEW-VIEW (drives the exponential escalation backoff)
        self._view_change_attempts = 0
        #: recently-deposed primaries: node -> last view through which the
        #: local target selection skips it
        self._deposed_until: Dict[NodeId, int] = {}
        #: censorship-resistant request path master switch.  Test-only: the
        #: fuzz harness clears it to plant the "censoring primary never
        #: triggers forwarding or a view change" liveness bug the
        #: bounded-progress oracle must catch.  Never clear it elsewhere.
        self.request_liveness_defence = True
        #: digest-verified transferable frontier state from checkpoint votes,
        #: keyed by (seq, state_digest); consulted on checkpoint state
        #: transfer, pruned as checkpoints stabilise
        self._checkpoint_sync_states: Dict[Tuple[int, bytes],
                                           Tuple[Tuple[str, Any], ...]] = {}

        #: stable checkpoints observed since entering the current view
        #: (drives proactive primary rotation when the knob is set)
        self._stable_checkpoints_in_view = 0

        # Statistics used by benchmarks.
        self.batches_delivered = 0
        self.requests_delivered = 0
        self.view_changes_completed = 0
        self.cross_shard_ordered = 0
        self.primaries_deposed = 0
        self.checkpoint_syncs = 0
        self.planned_rotations = 0

    # ------------------------------------------------------------------ #
    # Role helpers.
    # ------------------------------------------------------------------ #

    def primary_of(self, view: int) -> NodeId:
        """The primary replica for ``view`` (round-robin rotation)."""
        return self.agreement_ids[view % len(self.agreement_ids)]

    def next_view_target(self, from_view: int) -> int:
        """The view this replica votes for when abandoning ``from_view``.

        Normally ``from_view + 1``, but the scan advances past views whose
        round-robin primary was deposed within the last full rotation, so a
        chronically slow or censoring leader cannot recapture the view the
        moment its successor stumbles.  A liveness heuristic only: the
        ``f + 1`` join rule still converges replicas that disagree on the
        skip, and safety never depends on which view is chosen.  The scan is
        bounded to one full rotation: if every candidate is deposed,
        liveness beats placement and the immediate successor is used.
        """
        target = from_view + 1
        for candidate in range(target, target + len(self.agreement_ids)):
            if self._deposed_until.get(self.primary_of(candidate), -1) < candidate:
                return candidate
        return target

    def _note_deposed(self, primary: NodeId, abandoned_view: int) -> None:
        """Skip ``primary`` in target selection for one full rotation."""
        until = abandoned_view + len(self.agreement_ids)
        if self._deposed_until.get(primary, -1) < until:
            self._deposed_until[primary] = until
            self.primaries_deposed += 1

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.node_id

    def enable_per_shard_batching(self, classifier) -> None:
        """Partition the pending-request FIFO by destination shard.

        ``classifier`` maps a :class:`ClientRequest` to its owning shard
        (the shard router's deterministic mapping; with rebalancing it reads
        the router queue's live epoch, so freshly admitted requests queue by
        the current map).  The primary then forms single-shard bundles,
        sizes each shard's bundles with its own AIMD controller, and admits
        sequence numbers against per-shard pipeline windows
        (:attr:`repro.config.PipelineConfig.per_shard_depth`) instead of the
        global contiguous watermark.
        """
        self._shard_classifier = classifier
        self.batcher = Batcher(
            controller=make_bundle_controller(self.config),
            classifier=lambda cert: classifier(cert.payload),
            controller_factory=lambda: make_bundle_controller(self.config),
            demote_idle_ms=self.config.batching.demote_idle_ms,
            metrics=self.metrics)

    def enable_cross_shard(self, probe) -> None:
        """Install the cross-shard request probe (``repro.sharding``).

        ``probe`` maps a :class:`ClientRequest` to the ascending list of
        shards its keys touch at the hosting router queue's live epoch, or
        ``None`` for single-shard requests.  A cross-shard request is then
        ordered exactly like a config operation -- alone, as a
        single-certificate batch -- so its sequence number is a
        deterministic consistent cut over every touched shard's release
        frontier.
        """
        self._cross_shard_probe = probe

    def _probe_cross_shard(self, request) -> Optional[List[int]]:
        if self._cross_shard_probe is None:
            return None
        if not isinstance(request, ClientRequest):
            return None
        return self._cross_shard_probe(request)

    def attach_rebalancer(self, controller, observe) -> None:
        """Install a rebalance controller (``repro.sharding.rebalance``).

        ``observe()`` returns ``(load_window, current_map)`` from the local
        shard router queue; the replica polls it on a timer and -- when it
        is the primary -- orders the controller's proposed map change
        through the agreement log as a config operation.  Backups carry the
        controller too (any of them may become primary) but stay silent.
        """
        self._rebalancer = controller
        self._rebalance_observe = observe
        self._arm_rebalance_timer()

    def _arm_rebalance_timer(self) -> None:
        self.set_timer(self.config.rebalance.check_interval_ms,
                       self._on_rebalance_check,
                       label=f"{self.node_id}:rebalance-check")

    def _on_rebalance_check(self) -> None:
        if self._rebalancer is None:
            return
        self._arm_rebalance_timer()
        if not self.is_primary or self._view_changing:
            return
        if self.log.has_pending_config_op():
            return  # one epoch cut at a time
        window, pmap = self._rebalance_observe()
        change = self._rebalancer.propose(window, pmap, now=self.now)
        if change is not None and self.propose_map_change(change):
            self._rebalancer.note_ordered(change, now=self.now)

    @property
    def _per_shard_admission(self) -> bool:
        return (self.config.pipeline.per_shard_depth is not None
                and self._shard_classifier is not None)

    # ------------------------------------------------------------------ #
    # Message dispatch.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: Message) -> None:
        if isinstance(message, RequestEnvelope):
            self.handle_request(sender, message)
        elif isinstance(message, PrePrepare):
            self.handle_pre_prepare(sender, message)
        elif isinstance(message, Prepare):
            self.handle_prepare(sender, message)
        elif isinstance(message, CommitMsg):
            self.handle_commit(sender, message)
        elif isinstance(message, AgreementCheckpoint):
            self.handle_checkpoint(sender, message)
        elif isinstance(message, ViewChange):
            self.handle_view_change(sender, message)
        elif isinstance(message, NewView):
            self.handle_new_view(sender, message)
        elif isinstance(message, BatchReply):
            # Separated architecture: reply certificates from the execution
            # cluster (possibly via the privacy firewall) are handled by the
            # message queue installed as the local state machine.
            handler = getattr(self.local, "on_batch_reply", None)
            if handler is not None:
                handler(sender, message)
        else:
            # Messages the agreement protocol itself does not speak are
            # offered to the local state machine (the multi-log router queue
            # handles cross-log bindings and their fetches this way);
            # anything still unknown or corrupted is dropped silently, as
            # the Byzantine fault model requires correct nodes to tolerate
            # arbitrary garbage.
            handler = getattr(self.local, "on_unknown_message", None)
            if handler is not None:
                handler(sender, message)
            return

    # ------------------------------------------------------------------ #
    # Client requests.
    # ------------------------------------------------------------------ #

    def handle_request(self, sender: NodeId, envelope: RequestEnvelope) -> None:
        certificate = envelope.certificate
        request = certificate.payload
        if not isinstance(request, ClientRequest):
            return
        if request.client not in self.client_ids:
            return
        if not self.crypto.verify_certificate(certificate, 1, [request.client]):
            return

        last_ordered = self.ordered_timestamp.get(request.client, -1)
        if request.timestamp <= last_ordered:
            # Retransmission of a request we have already ordered: let the
            # local state machine serve a cached reply or resend pending
            # certificates; only re-run agreement if it has no trace of it.
            outcome = self.local.retry_hint(certificate)
            if outcome is RetryOutcome.HANDLED:
                return
        self._admit_request(certificate, request)

    def _admit_request(self, certificate: Certificate, request: ClientRequest) -> None:
        if self._probe_cross_shard(request) is not None:
            added = self._admit_cross_shard(certificate, request)
        else:
            added = self.batcher.add(certificate, now=self.now)
        if not added:
            return
        if self.tracing:
            self.trace_event(request_trace_id(request.client, request.timestamp),
                             "admit")
        self._arm_request_deadline(request)
        if self.is_primary:
            self.maybe_make_batch()
        elif self.request_liveness_defence:
            # Forward to the primary so a request sent to a backup still makes
            # progress (Castro-Liskov optimisation); the deadline timer
            # triggers a view change if the primary never orders it.
            self.send(self.primary_of(self.view),
                      RequestEnvelope(certificate=certificate))

    def _admit_cross_shard(self, certificate: Certificate,
                           request: ClientRequest) -> bool:
        """Queue a cross-shard request for its own marker batch.

        Cross-shard requests bypass the per-shard bundles: a marker must be
        the *only* certificate of its batch, so that its sequence number is
        a clean cut (the same single-certificate discipline config
        operations use).  Duplicates (a retransmission racing the pending
        marker) are folded like the batcher folds them.
        """
        for pending in self._cross_shard_pending:
            queued: ClientRequest = pending.payload
            if (queued.client == request.client
                    and queued.timestamp == request.timestamp):
                return False
        self._cross_shard_pending.append(certificate)
        return True

    def _drop_cross_shard_pending(self, client: NodeId, timestamp: int) -> None:
        self._cross_shard_pending = [
            certificate for certificate in self._cross_shard_pending
            if not (certificate.payload.client == client
                    and certificate.payload.timestamp <= timestamp)
        ]

    def _arm_request_deadline(self, request: ClientRequest) -> None:
        if not self.request_liveness_defence:
            return
        key = (request.client, request.timestamp)
        if key in self._request_deadlines and self._request_deadlines[key].active:
            return
        timer = self.set_timer(
            self.config.timers.view_change_ms,
            lambda key=key: self._on_request_timeout(key),
            label=f"{self.node_id}:request-deadline",
        )
        self._request_deadlines[key] = timer

    def _clear_request_deadline(self, client: NodeId, timestamp: int) -> None:
        for key in [k for k in self._request_deadlines
                    if k[0] == client and k[1] <= timestamp]:
            self._request_deadlines[key].cancel()
            del self._request_deadlines[key]

    def _on_request_timeout(self, key: Tuple[NodeId, int]) -> None:
        if key not in self._request_deadlines:
            return
        del self._request_deadlines[key]
        client, timestamp = key
        if self.ordered_timestamp.get(client, -1) >= timestamp:
            return
        self.start_view_change(self.next_view_target(self.view))

    # ------------------------------------------------------------------ #
    # Primary: batching and PRE-PREPARE.
    # ------------------------------------------------------------------ #

    def maybe_make_batch(self) -> None:
        """Create a batch now if a full bundle is ready, else arm the batch timer."""
        if not self.is_primary or self._view_changing:
            return
        self._drain_bundles(full_only=True)
        if self._has_pending_work():
            timeout = self.config.timers.batch_timeout_ms
            if (self._adaptive_batching and self._admissible_work()
                    and self._batches_in_flight() <= 1):
                # Group commit with double buffering: at most one batch is
                # awaiting execution, so a long bundle-fill wait would idle
                # the execution cluster -- the next bundle's agreement round
                # should overlap the current bundle's execution.  Gather with
                # a debounced quiet-gap window: each arrival extends the
                # flush by the gather window so the whole burst of client
                # re-submissions following a reply lands in one bundle, and
                # the batch-timeout bound caps the total gather time.
                if self._gather_deadline is None:
                    self._gather_deadline = self.now + timeout
                timeout = min(max(self._gather_deadline - self.now, 0.0),
                              self._gather_window())
                self._cancel_batch_timer()
            if self._batch_timer is None or not self._batch_timer.active:
                self._batch_timer = self.set_timer(
                    timeout, self._on_batch_timeout,
                    label=f"{self.node_id}:batch-timeout")
            elif self._batch_timer.deadline > self.now + timeout + 1e-9:
                # An earlier (longer) flush deadline is superseded.
                self._batch_timer.cancel()
                self._batch_timer = self.set_timer(
                    timeout, self._on_batch_timeout,
                    label=f"{self.node_id}:batch-timeout")
        else:
            # The queue drained through full-bundle takes: a timer armed for
            # an earlier (now ordered) request must not linger, or it fires
            # mid-gathering of the *next* bundle and flushes it prematurely.
            self._cancel_batch_timer()
            self._gather_deadline = None

    def _drain_bundles(self, full_only: bool) -> None:
        """Order every admissible bundle (full bundles only, or -- on a
        flush timeout -- partial ones too).

        Queues are scanned in cross-shard FIFO order, but a queue whose
        shard window is full does not block the queues behind it: that
        head-of-line independence is what lets cold shards keep flowing
        while a hot shard's pipeline is at capacity.
        """
        self._prune_answered()
        self._drain_cross_shard()
        progressed = True
        while progressed:
            progressed = False
            shards = (self.batcher.full_shards() if full_only
                      else self.batcher.shards())
            for shard in shards:
                if self._can_start(self.next_seq, shard=shard):
                    self._make_batch(shard=shard)
                    progressed = True
                    break

    def _drain_cross_shard(self) -> None:
        """Order every admissible pending cross-shard marker (FIFO).

        A marker is always a complete "bundle" of one, so it drains on
        every pass -- full-bundle and flush alike.  A queued request whose
        keys collapsed onto a single shard since admission (a rebalance
        merged them) is handed to the ordinary batcher instead.
        """
        while self._cross_shard_pending:
            certificate = self._cross_shard_pending[0]
            request: ClientRequest = certificate.payload
            touched = self._probe_cross_shard(request)
            if touched is None:
                self._cross_shard_pending.pop(0)
                self.batcher.add(certificate, now=self.now)
                continue
            if not self._can_start_cross(self.next_seq, touched):
                return
            self._cross_shard_pending.pop(0)
            self._gather_deadline = None
            seq = self._order_batch([certificate])
            self.log.note_cross_shard(self.view, seq)
            if self._shard_classifier is not None:
                self._inflight_shard_requests[seq] = {shard: 1
                                                      for shard in touched}
            self.cross_shard_ordered += 1

    def _can_start_cross(self, seq: int, touched: List[int]) -> bool:
        """Admission check for a cross-shard marker.

        The marker occupies one slot in *every* touched shard's local
        sequence, so per-shard admission requires room in each touched
        window; the log's ``[h, h + L]`` watermark window applies as
        always.
        """
        if seq > self.log.high_watermark:
            return False
        if self._per_shard_admission:
            depth = self.config.pipeline.per_shard_depth
            return all(self._shard_in_flight(shard) < depth
                       for shard in touched)
        return self._can_start(seq, shard=None)

    def _has_pending_work(self) -> bool:
        """Pending requests anywhere: the per-shard bundles or the
        cross-shard marker queue."""
        return self.batcher.has_work() or bool(self._cross_shard_pending)

    def _admissible_work(self) -> bool:
        """Whether any pending queue could be ordered right now."""
        if self._cross_shard_pending:
            request = self._cross_shard_pending[0].payload
            touched = self._probe_cross_shard(request)
            if touched is None or self._can_start_cross(self.next_seq, touched):
                return True
        return any(self._can_start(self.next_seq, shard=shard)
                   for shard in self.batcher.shards())

    def _cancel_batch_timer(self) -> None:
        if self._batch_timer is not None and self._batch_timer.active:
            self._batch_timer.cancel()

    def on_pipeline_progress(self) -> None:
        """Called by the local state machine when a reply certificate frees
        pipeline capacity: the primary immediately considers a new batch (the
        group-commit trigger for adaptive bundling)."""
        self._prune_answered()
        if self.is_primary and not self._view_changing:
            self.maybe_make_batch()

    @property
    def _per_shard_timeouts(self) -> bool:
        """Per-shard batch timeouts (``BatchingConfig.timeout_scale_max``):
        a congested shard's partial bundle gets a stretched fill window
        while cold shards keep the base flush latency."""
        return (self.config.batching.timeout_scale_max > 1.0
                and self._shard_classifier is not None)

    def _on_batch_timeout(self) -> None:
        if not self.is_primary or self._view_changing:
            return
        base = self.config.timers.batch_timeout_ms
        if self._per_shard_timeouts:
            # Flush full bundles everywhere, but partial bundles only on the
            # shards whose own fill window has expired -- a hot shard's
            # stretched window is still running, so its partial bundle keeps
            # gathering while cold shards flush at the base latency.
            self._drain_bundles(full_only=True)
            for shard in self.batcher.due_shards(self.now, base):
                if self._can_start(self.next_seq, shard=shard):
                    self._make_batch(shard=shard)
            if self._has_pending_work():
                deadline = self.batcher.next_flush_deadline(base)
                delay = base if deadline is None else min(
                    max(deadline - self.now, 0.05 * base), base)
                self._batch_timer = self.set_timer(
                    delay, self._on_batch_timeout,
                    label=f"{self.node_id}:batch-timeout")
            return
        self._drain_bundles(full_only=False)
        if self._has_pending_work():
            # Pipeline is full: try again shortly.
            self._batch_timer = self.set_timer(
                base,
                self._on_batch_timeout,
                label=f"{self.node_id}:batch-timeout",
            )

    def _can_start(self, seq: int, shard=ANY_SHARD) -> bool:
        """Watermark and pipeline back-pressure check for a new sequence number.

        ``shard`` is the candidate bundle's queue key (per-shard batching
        keeps single-shard queues, so it is also the only shard the bundle
        touches).  With per-shard pipelining the bundle is admitted when
        that shard is within its own ``per_shard_depth`` window -- the
        global contiguous answered floor is not consulted, so one slow
        shard's unanswered batches never gate another shard's admission.
        The agreement log's ``[h, h + L]`` watermark window still bounds
        the log in both modes.
        """
        if seq > self.log.high_watermark:
            return False
        if (self._per_shard_admission and shard is not ANY_SHARD
                and shard is not None):
            depth = self.config.pipeline.per_shard_depth
            return self._shard_in_flight(shard) < depth
        ready = self.local.highest_ready_seq()
        floor = ready if ready is not None else self.log.last_delivered_seq
        return seq <= floor + self.config.pipeline_depth

    def _prune_answered(self) -> None:
        """Drop in-flight tracking for answered batches, sampling their
        order-to-reply round trip into the gather-window EWMA.

        Memoised per simulator event: answers only arrive through message
        events, so within one callback the in-flight set can only grow
        (new proposals are unanswered by construction) and one scan
        suffices no matter how many admission checks the pass makes.
        """
        stamp = self.scheduler.events_processed
        if stamp == self._prune_stamp:
            return
        self._prune_stamp = stamp
        ready = self.local.highest_ready_seq()
        floor = ready if ready is not None else self.log.last_delivered_seq
        for seq in [s for s in self._inflight_batch_sizes
                    if s <= floor or self.local.seq_answered(s)]:
            del self._inflight_batch_sizes[seq]
            self._inflight_shard_requests.pop(seq, None)
            sent_at = self._batch_sent_at.pop(seq, None)
            if sent_at is not None:
                sample = self.now - sent_at
                self._rtt_ewma = sample if self._rtt_ewma is None else (
                    (1.0 - _RTT_ALPHA) * self._rtt_ewma + _RTT_ALPHA * sample)

    def _gather_window(self) -> float:
        """The idle-gather (group-commit debounce) window.

        With ``PipelineConfig.rtt_gather`` the window tracks the measured
        commit round trip -- long enough to cover the reply-to-resubmission
        turnaround of closed-loop clients, short enough not to idle a fast
        deployment -- instead of the static :data:`GATHER_MS`.
        """
        if self.config.pipeline.rtt_gather and self._rtt_ewma is not None:
            return min(max(_RTT_GATHER_FRACTION * self._rtt_ewma, _MIN_GATHER_MS),
                       self.config.timers.batch_timeout_ms)
        return GATHER_MS

    def _requests_in_flight(self) -> int:
        """Requests assigned a sequence number but not yet answered by
        execution -- the pipeline-congestion signal for adaptive bundle
        sizing (the demand one bundle could have absorbed)."""
        self._prune_answered()
        return sum(self._inflight_batch_sizes.values())

    def _batches_in_flight(self) -> int:
        """Batches assigned a sequence number but not yet answered."""
        self._prune_answered()
        return len(self._inflight_batch_sizes)

    def _shard_in_flight(self, shard: int) -> int:
        """Batches in flight that touch ``shard``: own proposals not yet
        answered, cross-checked against the router queue's released-but-
        unanswered count (which also covers batches proposed by an earlier
        primary)."""
        self._prune_answered()
        own = sum(1 for by_shard in self._inflight_shard_requests.values()
                  if shard in by_shard)
        return max(own, self.local.shard_outstanding(shard))

    def _shard_requests_in_flight(self, shard: int) -> int:
        """Requests in flight owned by ``shard`` (its bundle controller's
        congestion signal)."""
        self._prune_answered()
        return sum(by_shard.get(shard, 0)
                   for by_shard in self._inflight_shard_requests.values())

    def _make_batch(self, shard=ANY_SHARD) -> None:
        if shard is not ANY_SHARD and shard is not None:
            in_flight = self._shard_requests_in_flight(shard)
        else:
            in_flight = self._requests_in_flight()
        requests = self.batcher.take(in_flight=in_flight, shard=shard,
                                     now=self.now)
        if not requests:
            return
        # Any take ends the current idle-gather episode; the next gather
        # starts a fresh batch-timeout bound (leaving the old deadline in
        # place would shrink later gather windows to zero once it passed).
        self._gather_deadline = None
        seq = self._order_batch(requests)
        if (self._shard_classifier is not None and shard is not ANY_SHARD
                and shard is not None):
            # Per-shard queues are single-shard: the queue key is the owner.
            self._inflight_shard_requests[seq] = {shard: len(requests)}

    def propose_map_change(self, change: ConfigOperation) -> bool:
        """Order a partition-map change through the agreement log.

        The change rides the normal agreement path as a single-certificate
        batch signed by this primary; its sequence number is the epoch cut.
        Admission bypasses the per-shard pipeline windows (the cut must not
        queue behind the very hot shard it is trying to relieve) but still
        respects the log's ``[h, h + L]`` watermark window, and at most one
        config operation may be in flight at a time -- a second concurrent
        cut would deterministically no-op anyway (its parent epoch goes
        stale), so proposing it would burn a sequence number for nothing.
        """
        if not self.is_primary or self._view_changing:
            return False
        if self.log.has_pending_config_op():
            return False
        if self.next_seq > self.log.high_watermark:
            return False
        certificate = self.crypto.new_certificate(
            change,
            AuthenticationScheme.SIGNATURE
            if self.config.authentication is AuthenticationScheme.SIGNATURE
            else AuthenticationScheme.MAC,
            self.cert_verifiers)
        seq = self._order_batch([certificate])
        self.log.note_config_op(self.view, seq)
        return True

    def _order_batch(self, requests: List[Certificate]) -> int:
        """Assign the next sequence number to ``requests`` and pre-prepare it."""
        seq = self.next_seq
        self.next_seq += 1
        self._inflight_batch_sizes[seq] = len(requests)
        self._batch_sent_at[seq] = self.now
        self._h_batch_size.observe(len(requests))
        if self.tracing:
            self._trace_batch(requests, "order")
        batch_digest = self._batch_digest(requests)
        nondet = self.nondet.propose(self.now, seed=batch_digest)
        pre_prepare = PrePrepare(view=self.view, seq=seq, batch_digest=batch_digest,
                                 requests=tuple(requests), nondet=nondet,
                                 primary=self.node_id)
        entry = self.log.entry(self.view, seq)
        entry.pre_prepare = pre_prepare
        self.multicast(self.agreement_ids, pre_prepare)
        # The primary's pre-prepare counts as its prepare.
        self._try_prepared(entry)
        return seq

    def _trace_batch(self, requests, event: str) -> None:
        """Record a span event for every client request of one batch."""
        for certificate in requests:
            request = certificate.payload
            if isinstance(request, ClientRequest):
                self.trace_event(
                    request_trace_id(request.client, request.timestamp), event)

    def _batch_digest(self, requests: List[Certificate]) -> bytes:
        request_digests = [self.crypto.payload_digest(cert.payload) for cert in requests]
        return self.crypto.digest({"batch": request_digests})

    # ------------------------------------------------------------------ #
    # Backups: PRE-PREPARE and PREPARE.
    # ------------------------------------------------------------------ #

    def handle_pre_prepare(self, sender: NodeId, message: PrePrepare) -> None:
        if message.view != self.view or self._view_changing:
            return
        if sender != self.primary_of(self.view) or message.primary != sender:
            return
        if not self.log.in_watermarks(message.seq):
            return
        entry = self.log.entry(self.view, message.seq)
        if entry.pre_prepare is not None:
            if entry.pre_prepare.batch_digest != message.batch_digest:
                # Equivocating primary: trigger a view change.
                self.start_view_change(self.next_view_target(self.view))
            return
        if not self._validate_batch(message):
            return
        entry.pre_prepare = message
        if self._is_config_batch(message.requests):
            entry.config_op = True
        elif (len(message.requests) == 1 and
              self._probe_cross_shard(message.requests[0].payload) is not None):
            entry.cross_shard = True
        self.nondet.accept(message.nondet)
        prepare = Prepare(view=self.view, seq=message.seq,
                          batch_digest=message.batch_digest, replica=self.node_id)
        entry.prepares[self.node_id] = prepare
        self.multicast(self.agreement_ids, prepare)
        self._try_prepared(entry)

    def _validate_batch(self, message: PrePrepare) -> bool:
        """Check request authenticity, digest binding, and nondet sanity."""
        if not message.requests:
            return False
        if self._is_config_batch(message.requests):
            return self._validate_config_batch(message)
        for certificate in message.requests:
            request = certificate.payload
            if not isinstance(request, ClientRequest):
                return False
            if request.client not in self.client_ids:
                return False
            if not self.crypto.verify_certificate(certificate, 1, [request.client]):
                return False
        if self._batch_digest(list(message.requests)) != message.batch_digest:
            return False
        if not self.nondet.sanity_check(message.nondet, self.now):
            return False
        # A cross-shard request inside a mixed bundle is NOT rejected here:
        # classification depends on the partition-map epoch, and a backup
        # whose router lags one cut behind the primary would refuse a
        # correct proposal.  The release-time router handles it instead --
        # judged at the deterministic release epoch, such a request is
        # excluded from routing and ownership everywhere, so it is never
        # executed against partial state and the client's retransmission
        # re-orders it as a proper marker.
        return True

    @staticmethod
    def _is_config_batch(requests: Tuple[Certificate, ...]) -> bool:
        """Whether a batch carries a config operation (exactly one cert
        whose payload is a :class:`ConfigOperation`; a config op smuggled
        into a mixed batch is rejected outright -- the cut semantics need
        the operation alone at its sequence number)."""
        if any(isinstance(cert.payload, ConfigOperation) for cert in requests):
            return (len(requests) == 1
                    and isinstance(requests[0].payload, ConfigOperation))
        return False

    def _validate_config_batch(self, message: PrePrepare) -> bool:
        """Validate a config-operation (map-change) batch.

        Structural checks only: the certificate must be signed by the
        proposing primary and bound into the batch digest.  *Semantic*
        validity -- does the change still apply to the current map? -- is
        deliberately deferred to the cut (release) point, where every
        correct node evaluates it at the same position in the agreed order;
        judging it here against each backup's possibly-lagging epoch would
        let timing decide what must be deterministic.
        """
        certificate = message.requests[0]
        if not self.crypto.verify_certificate(certificate, 1, [message.primary]):
            return False
        if self._batch_digest(list(message.requests)) != message.batch_digest:
            return False
        if not self.nondet.sanity_check(message.nondet, self.now):
            return False
        return True

    def handle_prepare(self, sender: NodeId, message: Prepare) -> None:
        if message.view != self.view or self._view_changing:
            return
        if sender != message.replica or sender not in self.agreement_ids:
            return
        if not self.log.in_watermarks(message.seq):
            return
        entry = self.log.entry(self.view, message.seq)
        entry.prepares[sender] = message
        self._try_prepared(entry)

    def _try_prepared(self, entry: LogEntry) -> None:
        if entry.prepared or entry.pre_prepare is None:
            return
        digest = entry.pre_prepare.batch_digest
        # The pre-prepare counts as the primary's prepare; we need 2f matching
        # prepares from other replicas (our own included when we are a backup).
        others = sum(1 for replica, prepare in entry.prepares.items()
                     if prepare.batch_digest == digest
                     and replica != entry.pre_prepare.primary)
        if others < 2 * self.f:
            return
        entry.prepared = True
        body = self._cert_body(entry)
        authenticator = self._make_cert_authenticator(body)
        commit = CommitMsg(view=entry.view, seq=entry.seq, batch_digest=digest,
                           replica=self.node_id, cert_authenticator=authenticator)
        entry.commits[self.node_id] = commit
        entry.commit_authenticators[self.node_id] = authenticator
        self.multicast(self.agreement_ids, commit)
        self._try_committed(entry)

    def _cert_body(self, entry: LogEntry) -> AgreementCertBody:
        assert entry.pre_prepare is not None
        return AgreementCertBody(view=entry.view, seq=entry.seq,
                                 batch_digest=entry.pre_prepare.batch_digest,
                                 nondet=entry.pre_prepare.nondet)

    def _make_cert_authenticator(self, body: AgreementCertBody):
        """Authenticator over the agreement-certificate body.

        Agreement certificates always use MAC vectors or signatures (threshold
        signatures are reserved for reply certificates); MAC vectors address
        every node that may need to verify the certificate.
        """
        if self.config.authentication is AuthenticationScheme.SIGNATURE:
            return self.crypto.sign(body)
        return self.crypto.mac_authenticator(body, self.cert_verifiers)

    # ------------------------------------------------------------------ #
    # COMMIT and delivery.
    # ------------------------------------------------------------------ #

    def handle_commit(self, sender: NodeId, message: CommitMsg) -> None:
        if message.view != self.view or self._view_changing:
            return
        if sender != message.replica or sender not in self.agreement_ids:
            return
        if not self.log.in_watermarks(message.seq):
            return
        entry = self.log.entry(self.view, message.seq)
        entry.commits[sender] = message
        if message.cert_authenticator is not None:
            entry.commit_authenticators[sender] = message.cert_authenticator
        self._try_committed(entry)

    def _try_committed(self, entry: LogEntry) -> None:
        if entry.committed or not entry.prepared or entry.pre_prepare is None:
            return
        digest = entry.pre_prepare.batch_digest
        if entry.commit_count(digest) < 2 * self.f + 1:
            return
        entry.committed = True
        if self.tracing and entry.pre_prepare is not None:
            self._trace_batch(entry.pre_prepare.requests, "commit")
        sent_at = self._batch_sent_at.get(entry.seq)
        if sent_at is not None:
            self._h_agree_ms.observe(self.now - sent_at)
        if self.config.pipeline.ooo_shard_delivery:
            self._stage_committed(entry)
        self._deliver_in_order()

    def _stage_committed(self, entry: LogEntry) -> None:
        """Hand a just-committed batch to the local executor's out-of-order
        staging buffer (``PipelineConfig.ooo_shard_delivery``).

        The content of a locally *committed* entry is fixed forever (any
        later view must preserve it), so the executor may learn it even
        while an earlier sequence number is still gathering commit votes;
        the shard router buffers the gap and releases each shard's parts
        along its per-shard frontier.  Uncommitted entries are never staged
        -- their content could still change across a view change.
        """
        stage = getattr(self.local, "stage_batch", None)
        if stage is None or entry.staged or entry.pre_prepare is None:
            return
        entry.staged = True
        stage(seq=entry.seq, view=entry.view,
              request_certificates=entry.pre_prepare.requests,
              agreement_certificate=self._assemble_certificate(entry),
              nondet=entry.pre_prepare.nondet)

    def _deliver_in_order(self) -> None:
        """Deliver committed batches to the local state machine in order."""
        while True:
            next_seq = self.log.last_delivered_seq + 1
            entry = self._committed_entry(next_seq)
            if entry is None:
                return
            self._deliver(entry)

    def _committed_entry(self, seq: int) -> Optional[LogEntry]:
        for view in range(self.view, -1, -1):
            entry = self.log.existing_entry(view, seq)
            if entry is not None and entry.committed and not entry.delivered:
                return entry
        return None

    def _assemble_certificate(self, entry: LogEntry) -> Certificate:
        """Assemble the agreement certificate from the commit authenticators."""
        certificate = Certificate(
            payload=self._cert_body(entry),
            scheme=(AuthenticationScheme.SIGNATURE
                    if self.config.authentication is AuthenticationScheme.SIGNATURE
                    else AuthenticationScheme.MAC),
        )
        for replica, authenticator in entry.commit_authenticators.items():
            if authenticator.scheme is certificate.scheme:
                certificate.authenticators[replica] = authenticator
        return certificate

    def _deliver(self, entry: LogEntry) -> None:
        assert entry.pre_prepare is not None
        # Entries already handed over at commit time (out-of-order staging)
        # skip the hand-off: the executor has the batch, and reassembling
        # the certificate here would be pure waste.
        if not entry.staged:
            self.local.execute_batch(
                seq=entry.seq, view=entry.view,
                request_certificates=entry.pre_prepare.requests,
                agreement_certificate=self._assemble_certificate(entry),
                nondet=entry.pre_prepare.nondet,
            )
        entry.delivered = True
        self.log.last_delivered_seq = entry.seq
        self.batches_delivered += 1
        self.requests_delivered += len(entry.pre_prepare.requests)
        self._c_batches.inc()
        self._c_requests.inc(len(entry.pre_prepare.requests))
        for request_cert in entry.pre_prepare.requests:
            request = request_cert.payload
            if not isinstance(request, ClientRequest):
                continue  # config operations carry no client bookkeeping
            previous = self.ordered_timestamp.get(request.client, -1)
            self.ordered_timestamp[request.client] = max(previous, request.timestamp)
            self.batcher.remove(request.client, request.timestamp)
            self._drop_cross_shard_pending(request.client, request.timestamp)
            self._clear_request_deadline(request.client, request.timestamp)
        if self.log.is_checkpoint_seq(entry.seq):
            self._emit_checkpoint(entry.seq)
        if self.is_primary:
            self.maybe_make_batch()

    # ------------------------------------------------------------------ #
    # Checkpoints.
    # ------------------------------------------------------------------ #

    def _emit_checkpoint(self, seq: int) -> None:
        sync_state = self.local.checkpoint_sync_state(seq)
        digest = self.local.checkpoint_digest(seq)
        message = AgreementCheckpoint(seq=seq, state_digest=digest,
                                      replica=self.node_id,
                                      sync_state=sync_state)
        self.log.add_checkpoint_vote(seq, self.node_id, digest)
        self._checkpoint_sync_states[(seq, digest)] = sync_state
        self.multicast(self.agreement_ids, message)
        self._try_stable(seq, digest)

    def handle_checkpoint(self, sender: NodeId, message: AgreementCheckpoint) -> None:
        if sender != message.replica or sender not in self.agreement_ids:
            return
        key = (message.seq, message.state_digest)
        if key not in self._checkpoint_sync_states and message.seq > self.log.stable_seq:
            # Keep the vote's transferable state only if it re-derives the
            # claimed digest: a Byzantine replica can echo the certified
            # digest but cannot forge frontier state that hashes to it.
            expected = self.local.sync_state_digest(message.seq, message.sync_state)
            if expected == message.state_digest:
                self._checkpoint_sync_states[key] = message.sync_state
        self.log.add_checkpoint_vote(message.seq, sender, message.state_digest)
        self._try_stable(message.seq, message.state_digest)

    def _try_stable(self, seq: int, digest: bytes) -> None:
        if seq <= self.log.stable_seq:
            return
        if self.log.checkpoint_support(seq, digest) >= 2 * self.f + 1:
            self.log.mark_stable(seq)
            if seq > self.log.last_delivered_seq:
                self._sync_to_checkpoint(seq, digest)
            self.local.on_stable_checkpoint(seq)
            self._checkpoint_sync_states = {
                key: state for key, state in self._checkpoint_sync_states.items()
                if key[0] > seq
            }
            self._maybe_rotate_primary()

    def _maybe_rotate_primary(self) -> None:
        """Proactive rotation: planned view change every N stable checkpoints.

        Every correct replica counts the same stable checkpoints within a
        view, so all 3f+1 reach the rotation threshold and vote for the
        same next view without any replica having to accuse the primary --
        the view change assembles exactly like a failure-driven one, but
        the outgoing primary is not marked deposed.
        """
        interval = self.config.timers.rotation_interval_checkpoints
        if interval is None or self._view_changing:
            return
        self._stable_checkpoints_in_view += 1
        if self._stable_checkpoints_in_view >= interval:
            self.planned_rotations += 1
            self.start_view_change(self.next_view_target(self.view),
                                   planned=True)

    def _sync_to_checkpoint(self, seq: int, state_digest: bytes) -> None:
        """State transfer: jump a stranded delivery frontier to a stable cut.

        A quorum certified the checkpoint at ``seq``, so every batch up to
        it committed and was answered by correct replicas; this replica
        missed some of them (an equivocating primary fed it conflicting
        pre-prepares, or it fell behind past the watermark window) and can
        no longer replay them once the quorum garbage-collected the
        entries.  Adopt the checkpoint instead: advance the delivery
        frontier, hand the local queue the digest-verified frontier state a
        checkpoint vote carried (the 2f+1 quorum contains at least f+1
        correct voters, so a verified copy always arrived), and drop armed
        request deadlines -- a genuinely starved request re-arms on the
        client's next retransmission.
        """
        self.log.last_delivered_seq = seq
        self.next_seq = max(self.next_seq, seq + 1)
        self.checkpoint_syncs += 1
        sync_state = self._checkpoint_sync_states.get((seq, state_digest), ())
        self.local.sync_to_checkpoint(seq, sync_state)
        for timer in self._request_deadlines.values():
            timer.cancel()
        self._request_deadlines.clear()

    # ------------------------------------------------------------------ #
    # View changes.
    # ------------------------------------------------------------------ #

    def start_view_change(self, new_view: int, planned: bool = False) -> None:
        """Vote to move to ``new_view`` (carrying prepared-batch evidence).

        ``planned`` marks a proactive rotation (the
        ``rotation_interval_checkpoints`` knob): the outgoing primary did
        nothing wrong, so it is not recorded as deposed and stays in the
        rotation for future views.
        """
        if new_view <= self.view and self._target_view >= new_view:
            return
        if not self._view_changing and not planned:
            # Abandoning a live view: its primary failed us (timeout,
            # censorship, or equivocation) -- skip it for a rotation.
            self._note_deposed(self.primary_of(self.view), self.view)
        previous_target = self._target_view if self._view_changing else self.view
        self._view_changing = True
        self._target_view = max(self._target_view, new_view)
        if self.tracing and self._target_view > previous_target:
            self.trace_event(f"view-change:{self._target_view}",
                             "view_change_start")
        prepared = tuple(
            PreparedProof(view=entry.view, seq=entry.seq,
                          batch_digest=entry.pre_prepare.batch_digest,
                          requests=entry.pre_prepare.requests,
                          nondet=entry.pre_prepare.nondet)
            for entry in self.log.prepared_entries_above(self.log.stable_seq)
            if entry.pre_prepare is not None and not entry.delivered
        )
        vote = ViewChange(new_view=self._target_view,
                          last_stable_seq=self.log.stable_seq,
                          prepared=prepared, replica=self.node_id,
                          planned=planned)
        self._record_view_change(self.node_id, vote)
        self.multicast(self.agreement_ids, vote)
        # Escalate if the view change itself stalls, backing off
        # exponentially so cascading view changes under a long partition
        # re-vote ever less often instead of thrashing.
        self.set_timer(self._escalation_delay_ms(),
                       lambda: self._on_view_change_timeout(self._target_view),
                       label=f"{self.node_id}:view-change-escalate")

    def _escalation_delay_ms(self) -> float:
        """Backed-off re-vote delay for the current escalation attempt."""
        timers = self.config.timers
        delay = timers.view_change_ms * (
            timers.view_change_backoff ** (self._view_change_attempts + 1))
        return min(delay, max(VIEW_CHANGE_BACKOFF_CAP_MS,
                              timers.view_change_ms))

    def _on_view_change_timeout(self, attempted_view: int) -> None:
        if self.view >= attempted_view:
            return
        # The attempted view's candidate failed to assemble a NEW-VIEW in
        # time: depose it too, and escalate past it with a longer fuse.
        self._view_change_attempts += 1
        self._note_deposed(self.primary_of(attempted_view), attempted_view)
        self.start_view_change(self.next_view_target(attempted_view))

    def handle_view_change(self, sender: NodeId, message: ViewChange) -> None:
        if sender != message.replica or sender not in self.agreement_ids:
            return
        if message.new_view <= self.view:
            return
        self._record_view_change(sender, message)
        votes = self._view_change_votes.get(message.new_view, {})
        # Join the view change once f + 1 replicas are already moving: this is
        # the standard liveness rule that prevents a slow replica from being
        # left behind.  Join a *planned* rotation as planned -- f + 1 planned
        # votes contain a correct one, so the outgoing primary did nothing
        # wrong and must not be marked deposed by laggards.
        if len(votes) >= self.f + 1 and self._target_view < message.new_view:
            planned = sum(
                1 for vote in votes.values() if vote.planned) >= self.f + 1
            self.start_view_change(message.new_view, planned=planned)
        if (self.primary_of(message.new_view) == self.node_id
                and len(votes) >= 2 * self.f + 1):
            self._send_new_view(message.new_view)

    def _record_view_change(self, sender: NodeId, message: ViewChange) -> None:
        self._view_change_votes.setdefault(message.new_view, {})[sender] = message

    def _send_new_view(self, view: int) -> None:
        if self.view >= view:
            return
        votes = self._view_change_votes.get(view, {})
        # Re-propose every prepared batch reported by any of the 2f + 1 votes,
        # keeping the highest-view evidence per sequence number.
        best: Dict[int, PreparedProof] = {}
        min_stable = 0
        for vote in votes.values():
            min_stable = max(min_stable, vote.last_stable_seq)
            for proof in vote.prepared:
                current = best.get(proof.seq)
                if current is None or proof.view > current.view:
                    best[proof.seq] = proof
        # Re-proposals start at the latest stable checkpoint among the votes
        # (PBFT's min-s) -- NOT at this primary's own delivered frontier.
        # An equivocating old primary can leave replicas stranded behind
        # holes the rest of the group long since delivered; only re-running
        # agreement from the checkpoint lets those laggards catch up, clear
        # their request deadlines, and stop escalating view changes.
        # Replicas that already delivered a re-proposed batch still vote for
        # it but skip re-execution (see _adopt_new_view_batches).
        pre_prepares = [
            PrePrepare(view=view, seq=proof.seq, batch_digest=proof.batch_digest,
                       requests=proof.requests, nondet=proof.nondet,
                       primary=self.node_id)
            for proof in (best[s] for s in sorted(best))
            if proof.seq > min_stable
        ]
        # Fill sequence holes with null batches.  A hole is a sequence number
        # no vote reported prepared: by quorum intersection it cannot have
        # committed anywhere, yet in-order delivery would wait on it forever
        # (a censoring primary that *dropped* a pre-prepare leaves exactly
        # this gap).  An empty batch is agreed through the normal three
        # phases and releases as a vacuous slot downstream.
        floor = min_stable
        for seq in range(floor + 1, max(best, default=floor)):
            if seq in best:
                continue
            digest = self._batch_digest(())
            pre_prepares.append(PrePrepare(
                view=view, seq=seq, batch_digest=digest, requests=(),
                nondet=self.nondet.propose(self.now, seed=digest),
                primary=self.node_id))
        pre_prepares = tuple(sorted(pre_prepares, key=lambda p: p.seq))
        new_view = NewView(view=view,
                           view_change_replicas=tuple(sorted(r.name for r in votes)),
                           pre_prepares=pre_prepares, primary=self.node_id)
        self._enter_view(view)
        self.multicast(self.agreement_ids, new_view)
        self._adopt_new_view_batches(pre_prepares)
        self.next_seq = max(self.next_seq, self.log.last_delivered_seq + 1,
                            max((p.seq for p in pre_prepares), default=0) + 1)
        # Give the NEW-VIEW a head start so backups are already in the new
        # view when the first fresh PRE-PREPARE reaches them.
        self.set_timer(2.0, self.maybe_make_batch,
                       label=f"{self.node_id}:new-view-batch")

    def handle_new_view(self, sender: NodeId, message: NewView) -> None:
        if message.view <= self.view:
            return
        if sender != self.primary_of(message.view) or message.primary != sender:
            return
        self._enter_view(message.view)
        self._adopt_new_view_batches(message.pre_prepares)

    def _enter_view(self, view: int) -> None:
        if self.tracing:
            self.trace_event(f"view-change:{view}", "view_change_end")
        self.view = view
        self._view_changing = False
        self._target_view = view
        self._view_change_attempts = 0
        self._stable_checkpoints_in_view = 0
        self.view_changes_completed += 1
        self.next_seq = max(self.next_seq, self.log.last_delivered_seq + 1)
        # Proposals of the old view may have been discarded by the view
        # change; keeping them in the in-flight tables would count phantom
        # batches against the pipeline windows forever.  The router queue's
        # own released-but-unanswered counts still back-pressure whatever
        # genuinely survived.
        self._inflight_batch_sizes.clear()
        self._inflight_shard_requests.clear()
        self._batch_sent_at.clear()
        # Requests that were pending when the view changed must be re-ordered
        # in the new view; the primary picks them up from the batcher and the
        # backups re-arm their deadlines so that a still-faulty primary (or a
        # lost pre-prepare) triggers the next view change.
        for certificate in (self.batcher.pending_requests()
                            + self._cross_shard_pending):
            request = certificate.payload
            if isinstance(request, ClientRequest):
                self._arm_request_deadline(request)
        if self.is_primary:
            self.set_timer(2.0, self.maybe_make_batch,
                           label=f"{self.node_id}:enter-view-batch")

    def _adopt_new_view_batches(self, pre_prepares: Tuple[PrePrepare, ...]) -> None:
        for pre_prepare in pre_prepares:
            entry = self.log.entry(pre_prepare.view, pre_prepare.seq)
            if pre_prepare.seq <= self.log.last_delivered_seq:
                # Already delivered here: vote so laggards can assemble the
                # prepare/commit quorums they need to catch up, but mark the
                # slot consumed so commit never re-executes it locally.
                entry.staged = True
                entry.delivered = True
            if entry.pre_prepare is None:
                entry.pre_prepare = pre_prepare
            if self._is_config_batch(pre_prepare.requests):
                entry.config_op = True
            if self.node_id != pre_prepare.primary:
                prepare = Prepare(view=pre_prepare.view, seq=pre_prepare.seq,
                                  batch_digest=pre_prepare.batch_digest,
                                  replica=self.node_id)
                entry.prepares[self.node_id] = prepare
                self.multicast(self.agreement_ids, prepare)
            self._try_prepared(entry)
