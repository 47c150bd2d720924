"""Request batching ("bundles").

The BASE library bundles requests when load is high and runs agreement once
per bundle; the paper additionally signs reply bundles with a single
threshold signature so that the expensive public-key operation amortises
across all the replies in the bundle (Section 5.3, Figure 5).

The :class:`Batcher` holds request certificates that have not yet been
assigned to a batch.  The primary drains it with :meth:`take` when either a
full bundle is available or the batch timeout expires with at least one
pending request.  Duplicate requests (same client and timestamp) are folded.

The bundle size is supplied by a controller: :class:`StaticBundleController`
reproduces the paper's fixed ``bundle_size`` (swept by Figure 5), and
:class:`AdaptiveBundleController` replaces it with AIMD on queue depth --
grow the bundle additively while draining a batch leaves backlog behind,
shrink it multiplicatively when a batch-timeout fire finds less than a full
bundle waiting.  The controller only reacts to take-time queue depth, which
is a deterministic function of the simulated trajectory, so adaptive runs
are exactly reproducible for a given seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..config import BatchingConfig, SystemConfig
from ..crypto.certificate import Certificate
from ..messages.request import ClientRequest
from ..obs import NULL_REGISTRY
from ..util.ids import NodeId

#: bundle sizes are small integers; power-of-two buckets resolve them exactly
#: up to the default ``max_bundle``
_BUNDLE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: additive step of the AIMD bundle controller
BUNDLE_INCREASE = 1
#: requests in flight (ordered but unanswered) at or above which the
#: system counts as congested -- with closed-loop clients the backlog
#: accumulates *in the pipeline*, not in the batcher, so the controller
#: must watch both.
CONGESTION_REQUESTS = 1


class StaticBundleController:
    """Fixed bundle size (the paper's ``bundle_size`` configuration)."""

    def __init__(self, bundle_size: int) -> None:
        if bundle_size < 1:
            raise ValueError("bundle_size must be at least 1")
        self._size = bundle_size

    @property
    def current(self) -> int:
        return self._size

    def on_take(self, backlog_before: int, taken: int, in_flight: int = 0) -> None:
        return None

    def fill_timeout_scale(self) -> float:
        """Static bundles keep the base batch-timeout fill window."""
        return 1.0


class AdaptiveBundleController:
    """AIMD bundle sizing on queue depth.

    The backlog a saturated system builds up lives in two queues: requests
    still waiting in the batcher, and requests already ordered but not yet
    answered by the execution cluster (with closed-loop clients the batcher
    drains on every arrival, so the pipeline is where congestion shows).
    The controller watches both at every take; ``in_flight`` is the number
    of *requests* ordered but unanswered at take time, so
    ``in_flight + taken`` is the concurrent demand the system is carrying --
    the bandwidth-delay product the bundle size should track.

    * **Additive increase**: if draining a bundle leaves requests queued
      (``backlog_before - taken > 0``), or the concurrent demand exceeds
      the current bundle size, the next bundle grows by ``increase``
      (amortising agreement and reply certificates over more requests), up
      to ``max_bundle``.  Growth stops exactly when one bundle can absorb
      everything in flight -- more waiting would add latency for nothing.
    * **Multiplicative decrease**: if the flush timer fires with less than
      *half* a bundle waiting while the pipeline is idle, the load is
      genuinely light and the size shrinks by ``decrease_factor`` toward
      ``min_bundle``.  (A nearly-full timer-forced take is the normal
      gathering step of a saturated closed loop; shrinking on it would
      collapse the bundle just when amortisation pays most.)

    The batch timeout itself is untouched, so a pending request is never
    held longer than ``timers.batch_timeout_ms`` regardless of bundle size;
    and at ``min_bundle == 1`` under light load every take is a full bundle
    taken at arrival time, so the timeout never even starts to run.
    """

    def __init__(self, config: BatchingConfig) -> None:
        config.validate()
        self.config = config
        self._size = float(config.min_bundle)
        self.increases = 0
        self.decreases = 0

    @property
    def current(self) -> int:
        return max(self.config.min_bundle, int(self._size))

    def on_take(self, backlog_before: int, taken: int, in_flight: int = 0) -> None:
        congested = in_flight >= CONGESTION_REQUESTS
        if backlog_before - taken > 0 or in_flight + taken > self.current:
            self._size = min(float(self.config.max_bundle),
                             self._size + BUNDLE_INCREASE)
            self.increases += 1
        elif taken * 2 <= self.current and not congested:
            self._size = max(float(self.config.min_bundle),
                             self._size * self.config.decrease_factor)
            self.decreases += 1

    def fill_timeout_scale(self) -> float:
        """Per-shard batch timeouts: stretch a congested shard's fill window.

        The grown bundle size *is* the controller's memory of sustained
        backlog (AIMD only grows it while takes leave work behind), so the
        partial-bundle flush window stretches proportionally -- a hot shard
        under deep backlog waits up to ``timeout_scale_max`` times the base
        window for a fuller, better-amortised bundle, while a cold shard
        (bundle pinned at the minimum) keeps the base flush latency.
        """
        if self.config.timeout_scale_max <= 1.0:
            return 1.0
        heat = self.current / max(1, self.config.min_bundle)
        return min(self.config.timeout_scale_max, max(1.0, heat))


def make_bundle_controller(config: SystemConfig):
    """Build the bundle-size controller selected by ``config.batching``."""
    if config.batching.mode == "adaptive":
        return AdaptiveBundleController(config.batching)
    return StaticBundleController(config.bundle_size)


#: sentinel for "whichever queue is next in FIFO order" (``None`` is a real
#: queue key: the unclassified queue)
ANY_SHARD = object()


class Batcher:
    """FIFO of pending request certificates with duplicate suppression.

    Without a ``classifier`` the batcher is a single FIFO governed by one
    controller, exactly as in the unsharded architecture.  With a
    ``classifier`` (request certificate -> destination shard) it keeps one
    FIFO *per shard*, so the primary can form single-shard bundles and admit
    them against per-shard pipeline windows.

    **Per-shard bundle controllers.**  Each shard's bundle size is owned by
    its own controller, created on demand from ``controller_factory`` the
    first time that shard shows congestion (backlog left behind a take, or
    more of its requests in flight than one bundle absorbs).  Until then the
    shard is governed by the *shared low-load controller* (``controller``),
    which -- because congested takes are diverted to the per-shard instance
    before they can grow it -- stays pinned at the minimum bundle size.  A
    hot shard therefore grows its own bundles to amortise agreement and
    reply certificates, while a cold shard keeps flushing single-request
    bundles at arrival time: one shard's load never inflates another
    shard's batching latency.
    """

    def __init__(self, bundle_size: int = 1, controller=None,
                 classifier: Optional[Callable[[Certificate], int]] = None,
                 controller_factory: Optional[Callable[[], object]] = None,
                 demote_idle_ms: Optional[float] = None,
                 metrics=None) -> None:
        #: the shared (low-load) controller; ``bundle_size`` only seeds the
        #: default static controller.
        self.controller = controller or StaticBundleController(bundle_size)
        #: observability instruments (no-ops unless the owning replica hands
        #: over its live registry); cached so a take costs three no-op calls
        #: when metrics are disabled
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._h_bundle_size = metrics.histogram("batch.bundle_size",
                                                bounds=_BUNDLE_BUCKETS)
        self._h_wait_ms = metrics.histogram("batch.wait_ms")
        self._g_window = metrics.gauge("batch.bundle_window")
        metrics.register_probe("batch.totals", lambda: {
            "total_enqueued": self.total_enqueued,
            "total_batches": self.total_batches,
            "largest_batch": self.largest_batch,
            "demotions": self.demotions,
            "shard_controllers": len(self._shard_controllers),
        })
        self.classifier = classifier
        self._controller_factory = controller_factory
        #: sustained-idle horizon after which a per-shard controller is
        #: demoted back to the shared one (None = keep forever)
        self.demote_idle_ms = demote_idle_ms
        #: per-shard controllers, created lazily on first congestion
        self._shard_controllers: Dict[int, object] = {}
        #: virtual time of each shard's last add/take (demotion clock)
        self._last_active: Dict[Optional[int], float] = {}
        #: pending certificates, one FIFO per shard (key None = unclassified)
        self._queues: Dict[Optional[int], List[Certificate]] = {}
        #: (client, timestamp) -> owning queue key, for dedupe and removal
        self._keys: Dict[Tuple[NodeId, int], Optional[int]] = {}
        #: (client, timestamp) -> global arrival index (cross-shard FIFO)
        self._arrival_of: Dict[Tuple[NodeId, int], int] = {}
        #: (client, timestamp) -> arrival virtual time (per-shard flush clocks)
        self._arrival_time: Dict[Tuple[NodeId, int], float] = {}
        self._arrivals = 0
        self.total_enqueued = 0
        self.total_batches = 0
        self.largest_batch = 0
        self.demotions = 0

    @property
    def bundle_size(self) -> int:
        """The shared controller's current bundle size."""
        return self.controller.current

    def controller_for(self, shard: Optional[int]):
        """The controller governing ``shard`` (shared until first congestion)."""
        if shard is None:
            return self.controller
        return self._shard_controllers.get(shard, self.controller)

    def bundle_size_for(self, shard: Optional[int]) -> int:
        return self.controller_for(shard).current

    def __len__(self) -> int:
        return len(self._keys)

    @staticmethod
    def _key(certificate: Certificate) -> Tuple[NodeId, int]:
        request: ClientRequest = certificate.payload
        return (request.client, request.timestamp)

    def _shard_of(self, certificate: Certificate) -> Optional[int]:
        if self.classifier is None:
            return None
        return self.classifier(certificate)

    def _maybe_demote(self, shard: Optional[int], now: float) -> None:
        """Return a sustained-idle shard to the shared low-load controller.

        A one-time burst promotes a shard to its own AIMD controller; once
        the burst is long over, the private controller's grown bundle size
        is stale memory -- the next lone request would wait behind a bundle
        that will never fill.  Demotion forgets it: the shard re-promotes
        (from scratch) the next time it shows genuine congestion.
        """
        if self.demote_idle_ms is None or shard is None:
            return
        if shard not in self._shard_controllers:
            return
        last = self._last_active.get(shard)
        if last is not None and now - last >= self.demote_idle_ms:
            del self._shard_controllers[shard]
            self.demotions += 1

    def add(self, certificate: Certificate, now: float = 0.0) -> bool:
        """Enqueue a request certificate; returns False if it was a duplicate."""
        key = self._key(certificate)
        if key in self._keys:
            return False
        shard = self._shard_of(certificate)
        self._maybe_demote(shard, now)
        self._keys[key] = shard
        self._queues.setdefault(shard, []).append(certificate)
        self._arrival_of[key] = self._arrivals
        self._arrival_time[key] = now
        self._arrivals += 1
        self._last_active[shard] = now
        self.total_enqueued += 1
        return True

    def contains(self, client: NodeId, timestamp: int) -> bool:
        return (client, timestamp) in self._keys

    # ------------------------------------------------------------------ #
    # Queue inspection.
    # ------------------------------------------------------------------ #

    def _head_arrival(self, shard: Optional[int]) -> int:
        return self._arrival_of[self._key(self._queues[shard][0])]

    def shards(self) -> List[Optional[int]]:
        """Queue keys with pending work, oldest head request first."""
        return sorted((s for s, q in self._queues.items() if q),
                      key=self._head_arrival)

    def full_shards(self) -> List[Optional[int]]:
        """Queues holding at least one full bundle, oldest head first."""
        return [shard for shard in self.shards()
                if len(self._queues[shard]) >= self.bundle_size_for(shard)]

    def backlog(self, shard: Optional[int]) -> int:
        return len(self._queues.get(shard, ()))

    # ------------------------------------------------------------------ #
    # Per-shard flush deadlines (``BatchingConfig.timeout_scale_max``).
    # ------------------------------------------------------------------ #

    def head_arrival_ms(self, shard: Optional[int]) -> float:
        """Arrival time of the queue's oldest pending request."""
        return self._arrival_time[self._key(self._queues[shard][0])]

    def flush_deadline(self, shard: Optional[int], base_timeout_ms: float) -> float:
        """When the queue's partial bundle must be flushed: head arrival
        plus the owning controller's (possibly stretched) fill window."""
        scale = self.controller_for(shard).fill_timeout_scale()
        return self.head_arrival_ms(shard) + base_timeout_ms * scale

    def due_shards(self, now: float, base_timeout_ms: float) -> List[Optional[int]]:
        """Queues whose flush deadline has passed, oldest head first."""
        return [shard for shard in self.shards()
                if self.flush_deadline(shard, base_timeout_ms) <= now + 1e-9]

    def next_flush_deadline(self, base_timeout_ms: float) -> Optional[float]:
        """Earliest flush deadline over all pending queues (None if empty)."""
        deadlines = [self.flush_deadline(shard, base_timeout_ms)
                     for shard in self.shards()]
        return min(deadlines) if deadlines else None

    def has_full_bundle(self) -> bool:
        return bool(self.full_shards())

    def has_work(self) -> bool:
        return bool(self._keys)

    def _pick(self, shard) -> Optional[int]:
        """Resolve the ``ANY_SHARD`` sentinel to the next FIFO candidate queue."""
        if shard is not ANY_SHARD:
            return shard
        candidates = self.full_shards() or self.shards()
        return candidates[0] if candidates else None

    # ------------------------------------------------------------------ #
    # Taking bundles.
    # ------------------------------------------------------------------ #

    def take(self, limit: Optional[int] = None, in_flight: int = 0,
             shard=ANY_SHARD, now: float = 0.0) -> List[Certificate]:
        """Remove and return up to ``limit`` (default: the owning
        controller's bundle size) requests from one queue.

        ``in_flight`` is the number of requests the caller has ordered but
        not yet seen answered (for ``shard``, *that shard's* share) -- the
        congestion signal the adaptive controller uses alongside the queue
        depth.  ``shard`` selects which per-shard FIFO to drain; by default
        the queue whose head request arrived first among those holding a
        full bundle (falling back to overall FIFO order).
        """
        shard = self._pick(shard)
        queue = self._queues.get(shard)
        if not queue:
            return []
        self._maybe_demote(shard, now)
        self._last_active[shard] = now
        backlog = len(queue)
        count = min(backlog, limit if limit is not None
                    else self.bundle_size_for(shard))
        if count == 0:
            return []
        batch = queue[:count]
        del queue[:count]
        if not queue:
            del self._queues[shard]
        for certificate in batch:
            key = self._key(certificate)
            del self._keys[key]
            del self._arrival_of[key]
            self._h_wait_ms.observe(now - self._arrival_time[key])
            del self._arrival_time[key]
        self.total_batches += 1
        self.largest_batch = max(self.largest_batch, count)
        self._note_take(shard, backlog, count, in_flight)
        self._h_bundle_size.observe(count)
        self._g_window.set(self.controller_for(shard).current)
        return batch

    def _note_take(self, shard: Optional[int], backlog_before: int,
                   taken: int, in_flight: int) -> None:
        controller = self.controller_for(shard)
        if (shard is not None and controller is self.controller
                and self._controller_factory is not None):
            congested = (backlog_before - taken > 0
                         or in_flight + taken > controller.current)
            if congested:
                # First congestion on this shard: promote it to its own
                # controller so the shared low-load controller never grows.
                controller = self._controller_factory()
                self._shard_controllers[shard] = controller
        controller.on_take(backlog_before, taken, in_flight)

    def remove(self, client: NodeId, timestamp: int) -> None:
        """Drop a pending request (e.g. because it already committed elsewhere)."""
        key = (client, timestamp)
        if key not in self._keys:
            return
        shard = self._keys.pop(key)
        del self._arrival_of[key]
        del self._arrival_time[key]
        queue = self._queues.get(shard, [])
        queue[:] = [cert for cert in queue if self._key(cert) != key]
        if not queue:
            self._queues.pop(shard, None)

    def pending_requests(self) -> List[Certificate]:
        """The request certificates currently waiting, in arrival order."""
        pending = [cert for queue in self._queues.values() for cert in queue]
        pending.sort(key=lambda cert: self._arrival_of[self._key(cert)])
        return pending
