"""System-wide configuration for the separated BFT architecture.

The paper's replication-cost arithmetic is centralised here:

* the agreement cluster needs ``3f + 1`` replicas to tolerate ``f`` Byzantine
  agreement faults,
* the execution cluster needs only ``2g + 1`` replicas to tolerate ``g``
  Byzantine execution faults,
* the privacy firewall needs ``(h + 1)`` rows of ``(h + 1)`` filters to
  tolerate ``h`` filter faults,
* agreement certificates carry ``2f + 1`` authenticators and reply
  certificates carry ``g + 1`` authenticators (or a single threshold
  signature standing for ``g + 1`` shares).

:class:`SystemConfig` validates these relations at construction time so that a
mis-configured deployment fails fast rather than silently losing its fault
tolerance guarantees.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigurationError


class AuthenticationScheme(enum.Enum):
    """The three certificate implementations supported by the protocol."""

    MAC = "mac"
    SIGNATURE = "signature"
    THRESHOLD = "threshold"


class Deployment(enum.Enum):
    """How agreement and execution replicas map onto physical machines.

    ``SAME`` co-locates the execution replicas on machines that also run
    agreement replicas (the Separate/Same configuration of Figure 3);
    ``DIFFERENT`` places them on disjoint machines.  The distinction only
    matters for the latency/cost accounting of co-located work.
    """

    SAME = "same"
    DIFFERENT = "different"


@dataclass(frozen=True)
class CryptoCosts:
    """Virtual-time cost (in milliseconds) of each cryptographic operation.

    Defaults follow the measurements reported in Section 5 of the paper:
    MAC operations cost 0.2 ms (50 MB/s secure hashing of 1 KB packets),
    producing a threshold signature (i.e. each execution node's share of it)
    costs 15 ms, and verifying one costs 0.7 ms.  Digest cost is charged per
    byte at the same 50 MB/s hashing rate.
    """

    mac_ms: float = 0.2
    signature_sign_ms: float = 5.0
    signature_verify_ms: float = 0.7
    threshold_share_ms: float = 15.0
    threshold_combine_ms: float = 0.5
    threshold_verify_ms: float = 0.7
    digest_bytes_per_ms: float = 50_000.0

    def digest_ms(self, num_bytes: int) -> float:
        """Return the virtual cost of hashing ``num_bytes`` bytes."""
        if num_bytes <= 0:
            return 0.0
        return num_bytes / self.digest_bytes_per_ms

    def scaled(self, factor: float) -> "CryptoCosts":
        """Return a copy with every cost multiplied by ``factor``.

        Used to model hardware-accelerated cryptography (the paper assumes
        hardware threshold-signature support for the Andrew benchmarks).
        """
        return CryptoCosts(
            mac_ms=self.mac_ms * factor,
            signature_sign_ms=self.signature_sign_ms * factor,
            signature_verify_ms=self.signature_verify_ms * factor,
            threshold_share_ms=self.threshold_share_ms * factor,
            threshold_combine_ms=self.threshold_combine_ms * factor,
            threshold_verify_ms=self.threshold_verify_ms * factor,
            digest_bytes_per_ms=self.digest_bytes_per_ms / max(factor, 1e-9),
        )


@dataclass(frozen=True)
class NetworkConfig:
    """Parameters of the simulated unreliable network."""

    min_delay_ms: float = 0.05
    max_delay_ms: float = 0.3
    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    corrupt_probability: float = 0.0

    def validate(self) -> None:
        for name in ("drop_probability", "duplicate_probability",
                     "reorder_probability", "corrupt_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if not 0 <= self.min_delay_ms <= self.max_delay_ms:   # NaN too
            raise ConfigurationError(
                "network delays must satisfy 0 <= min_delay_ms <= max_delay_ms"
            )


@dataclass(frozen=True)
class ShardingConfig:
    """Horizontal partitioning of the execution side (``repro.sharding``).

    The paper's separation argument cuts both ways: because the agreement
    cluster orders *opaque* requests, the execution side can be partitioned
    into independent ``2g + 1`` clusters -- one per key-range or hash shard --
    behind the *same* ``3f + 1`` agreement cluster.  Each shard keeps its own
    application state, reply cache, checkpoints, and state-transfer protocol;
    the shard router demultiplexes the single agreed sequence into per-shard
    subsequences deterministically, so no additional agreement is needed.

    Parameters
    ----------
    num_shards:
        Number of independent execution clusters.  ``1`` degenerates to the
        unsharded separated architecture.
    strategy:
        ``"hash"`` (stable hash of the operation key) or ``"range"``
        (lexicographic key ranges split at ``range_boundaries``).
    range_boundaries:
        For ``"range"``: ``num_shards - 1`` sorted split keys; shard ``i``
        owns keys in ``[boundaries[i-1], boundaries[i])``.
    """

    num_shards: int = 1
    strategy: str = "hash"
    range_boundaries: tuple = ()

    def validate(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be at least 1")
        if self.strategy not in ("hash", "range"):
            raise ConfigurationError(
                f"sharding strategy must be 'hash' or 'range', got {self.strategy!r}"
            )
        if self.strategy == "range":
            boundaries = tuple(self.range_boundaries)
            if len(boundaries) != self.num_shards - 1:
                raise ConfigurationError(
                    "range sharding needs exactly num_shards - 1 boundaries, "
                    f"got {len(boundaries)} for {self.num_shards} shards"
                )
            if any(left >= right for left, right in zip(boundaries, boundaries[1:])):
                raise ConfigurationError(
                    "range_boundaries must be strictly increasing (a repeated "
                    "boundary would create a shard owning an empty key range)"
                )


@dataclass(frozen=True)
class RebalanceConfig:
    """Dynamic shard rebalancing (``repro.sharding.rebalance``).

    The shard boundaries chosen at construction time are only right for the
    workload they were chosen for.  When rebalancing is enabled, the primary
    watches the per-shard load counters its shard router already keeps,
    proposes a partition-map change (split a hot key range, merge two cold
    adjacent ones, or move a boundary) through the ordinary agreement log as
    a config operation, and the change takes effect at a deterministic cut
    in the agreed order: batches at or below the map-change batch route by
    the old epoch, batches above it by the new one, and the moved key
    ranges' state is handed off between execution clusters at the cut.

    Rebalancing requires the ``"range"`` sharding strategy -- hash
    partitioning has no boundaries to move.

    Parameters
    ----------
    enabled:
        Master switch.  Off by default: a static deployment behaves exactly
        as before (and stays on partition-map epoch 0 forever).
    check_interval_ms:
        How often the primary evaluates the load counters.
    cooldown_ms:
        Minimum virtual time between two proposed map changes; epoch cuts
        are cheap but not free (each one hands off state), so the
        controller must not thrash.
    hot_ratio:
        A shard is *hot* when its window load is at least ``hot_ratio``
        times the mean shard load; a hot shard triggers a split of its
        busiest range towards the least-loaded shard.
    cold_ratio:
        Two *adjacent* ranges are merged when each carries at most
        ``cold_ratio`` times the mean shard load and the map holds more
        ranges than execution clusters.
    min_window_requests:
        Minimum number of routed requests in the observation window before
        the controller acts (avoids deciding on noise).
    """

    enabled: bool = False
    check_interval_ms: float = 100.0
    cooldown_ms: float = 400.0
    hot_ratio: float = 2.0
    cold_ratio: float = 0.5
    min_window_requests: int = 64

    def validate(self) -> None:
        if self.check_interval_ms <= 0 or self.cooldown_ms < 0:
            raise ConfigurationError(
                "rebalance check_interval_ms must be positive and "
                "cooldown_ms non-negative"
            )
        if self.hot_ratio < 1.0:
            raise ConfigurationError("hot_ratio must be at least 1.0")
        if not 0.0 < self.cold_ratio <= 1.0:
            raise ConfigurationError("cold_ratio must be in (0, 1]")
        if self.min_window_requests < 1:
            raise ConfigurationError("min_window_requests must be at least 1")


@dataclass(frozen=True)
class CrossShardConfig:
    """Cross-shard operations at a consistent cut (``repro.sharding``).

    Sharded execution runs each shard's subsequence of the agreed order
    independently, so a batch touching ``k`` shards is normally ``k``
    unrelated executions.  When cross-shard operations are enabled, a
    multi-shard operation (a snapshot read over keys on several shards, or
    a write transaction with read-set validation) is ordered through the
    ordinary agreement log as a *marker* batch -- a single-certificate
    batch, exactly like a partition-map config operation -- and its
    agreement sequence number is a deterministic **consistent cut**: every
    touched shard's release frontier reaches the marker with exactly the
    agreed prefix below it executed, each touched cluster executes its
    sub-operation against that frontier state, and every replica of every
    touched cluster sends the client its sub-reply fragment; the client
    answers once ``g + 1`` matching fragments certify each touched shard.

    Parameters
    ----------
    enabled:
        Master switch.  Off by default: multi-shard operations are refused
        at the client and the routing layers never classify markers, so a
        static deployment behaves exactly as before.
    max_keys:
        Upper bound on the number of keys one cross-shard operation may
        touch (bounds marker execution work and sub-reply sizes; a client
        exceeding it has its submission rejected locally).
    retry_limit:
        How many times a client transparently re-issues an operation whose
        pinned epoch went stale under it (a rebalance cut raced the marker;
        every replica reports the same deterministic abort carrying the new
        epoch).  Beyond the limit the operation completes with an error.
    """

    enabled: bool = False
    max_keys: int = 16
    retry_limit: int = 4

    def validate(self) -> None:
        if self.max_keys < 2:
            raise ConfigurationError(
                "cross-shard max_keys must be at least 2 (a single-key "
                "operation is never cross-shard)"
            )
        if self.retry_limit < 0:
            raise ConfigurationError("cross-shard retry_limit must be non-negative")


@dataclass(frozen=True)
class MultiLogConfig:
    """Multi-log ordering: shard the agreement plane itself (``repro.multilog``).

    A single ``3f + 1`` agreement cluster eventually saturates no matter how
    many execution shards sit behind it.  With multi-log ordering the
    ordering plane is partitioned into ``num_logs`` *independent* ``3f + 1``
    agreement logs, each owning an equal, contiguous group of execution
    shards (the :class:`repro.multilog.LogMap`, epoch-versioned exactly like
    the partition map).  Single-group requests flow through their own log
    end to end, so committed throughput scales with the number of logs.

    Cross-group operations (multi-shard reads/transactions whose keys span
    log groups, and ``LogMapChange`` config operations moving a shard
    between groups) are released at one cut by a **cross-log coordination
    round**: every touched log orders the same marker in its own log, each
    of its replicas multicasts a MACed binding of the marker to its own
    sequence number, and every router queue holds the marker at its
    release head until it has itself certified ``f + 1`` matching
    bindings from each other touched log.  There is no coordinator and
    no collated cut message (:mod:`repro.multilog.queue`).

    Parameters
    ----------
    num_logs:
        Number of independent agreement logs.  ``1`` is the single-log
        sharded deployment: :class:`repro.sharding.ShardedSystem` builds it
        from the same code, and the round, built as everywhere, has no
        peer to bind for and nothing to hold.  Requires
        ``sharding.num_shards`` to be divisible by ``num_logs`` so groups
        start out equal; ``LogMapChange`` operations may make them unequal
        later.
    """

    num_logs: int = 1

    @property
    def enabled(self) -> bool:
        return self.num_logs > 1

    def validate(self) -> None:
        if self.num_logs < 1:
            raise ConfigurationError("num_logs must be at least 1")


@dataclass(frozen=True)
class PerfConfig:
    """Hot-path fast-path switches (the verification/encoding fast path).

    All switches default to on; the benchmark harness
    (``benchmarks/bench_hotpath.py``) turns them off to measure the
    before/after delta against the unoptimised protocol.

    Parameters
    ----------
    verified_cert_cache:
        Per-node memoisation of *successful* verifications
        (:class:`repro.crypto.cache.VerifiedCertificateCache`).  Virtual-time
        crypto charges apply only on cache misses; failures are never cached,
        so a Byzantine forgery can never poison a later legitimate check.
    digest_memo:
        Per-node charge-once semantics for payload digests: the first time a
        node hashes a given message object it pays ``digest_ms(wire_size)``,
        later touches of the same object by the same node are free.
    shard_verify_owned_only:
        Shard execution replicas verify client authenticators only for the
        requests their own shard owns.  Safe because the agreement
        certificate (``2f + 1`` commits) proves that ``f + 1`` correct
        agreement replicas verified *every* request certificate in the
        batch, and the batch digest binds the non-owned payloads.
    """

    verified_cert_cache: bool = True
    digest_memo: bool = True
    shard_verify_owned_only: bool = True


@dataclass(frozen=True)
class BatchingConfig:
    """Request-bundling policy for the agreement cluster.

    ``mode="static"`` reproduces the paper's fixed bundle size
    (:attr:`SystemConfig.bundle_size`, swept by Figure 5).  ``mode="adaptive"``
    replaces it with an AIMD controller on queue depth: every time the
    primary drains a bundle and backlog remains, the bundle size grows
    additively (by one) up to ``max_bundle``; every time the queue
    drains with a partial bundle (a batch-timeout fire under light load) it
    shrinks multiplicatively (halves) toward ``min_bundle``.
    The batch timeout is unchanged in either mode, so adaptive bundling can
    never hold a request longer than ``timers.batch_timeout_ms``.
    """

    mode: str = "static"
    min_bundle: int = 1
    max_bundle: int = 64
    #: per-shard batch *timeouts*: a shard's partial-bundle fill window may
    #: stretch up to ``timeout_scale_max`` times ``timers.batch_timeout_ms``
    #: while the shard is congested -- a hot shard under deep backlog can
    #: afford to wait for a fuller (better-amortised) bundle, while a cold
    #: shard keeps the base flush latency.  ``1.0`` disables the stretch and
    #: keeps the single shared flush timer behaviour.
    timeout_scale_max: float = 1.0
    #: demote a per-shard AIMD controller back to the shared low-load
    #: controller after this much idle time on its shard (virtual ms); a
    #: one-time burst then does not leave the shard on a private controller
    #: forever.  ``None`` never demotes.
    demote_idle_ms: Optional[float] = None

    def validate(self) -> None:
        if self.mode not in ("static", "adaptive"):
            raise ConfigurationError(
                f"batching mode must be 'static' or 'adaptive', got {self.mode!r}"
            )
        if self.min_bundle < 1:
            raise ConfigurationError("min_bundle must be at least 1")
        if self.max_bundle < self.min_bundle:
            raise ConfigurationError("max_bundle must be >= min_bundle")
        if self.timeout_scale_max < 1.0:
            raise ConfigurationError("timeout_scale_max must be at least 1.0")
        if self.demote_idle_ms is not None and self.demote_idle_ms <= 0:
            raise ConfigurationError(
                "demote_idle_ms must be positive (or None to never demote)"
            )


@dataclass(frozen=True)
class ObservabilityConfig:
    """Metrics registry and causal request tracing (both off by default).

    Observability is strictly *passive*: enabling it never charges virtual
    processing time, never schedules events, and never draws from the
    deterministic RNG, so the virtual-time results of a run are bit-identical
    whether it is on or off (CI's overhead gate enforces this).  Timestamps
    are always read from the virtual clock -- never the wall clock -- so
    traces from identical seeds are themselves identical.

    ``metrics``
        Hand every node a live :class:`~repro.obs.registry.MetricsRegistry`
        (counters/gauges/histograms over the hot paths).  When false, nodes
        share a single no-op registry whose mutators do nothing.
    ``tracing``
        Record a span event (trace id, event name, node, virtual time) at
        every hop a client request takes through the planes; exportable as
        JSONL and foldable into a per-stage critical-path breakdown.
        The tracer retains at most 1,000,000 events; further ones are
        counted as dropped (bounds memory on very long runs without
        perturbing the simulation).
    """

    metrics: bool = False
    tracing: bool = False

    @property
    def enabled(self) -> bool:
        return self.metrics or self.tracing


@dataclass(frozen=True)
class RuntimeConfig:
    """Which runtime backend executes the deployment.

    ``backend="sim"`` (the default) is the deterministic virtual-time
    simulator every test, benchmark, and fuzz campaign runs on.
    ``backend="asyncio"`` runs the same protocol objects as asyncio tasks
    exchanging codec frames (:mod:`repro.net.codec`) over real localhost
    TCP sockets, with wall-clock timers; see :mod:`repro.runtime.asyncio_rt`
    for the invariants it preserves and the ones (determinism, fault
    injection) it deliberately gives up.

    ``charge_scale``
        Real-runtime cost emulation: every virtual millisecond a node
        charges (crypto, app execution) is burned as ``charge_scale``
        real milliseconds of CPU.  ``0.0`` (default) makes charges free,
        which is right for functional parity tests; benchmarks set it
        positive so the configured cost model -- built to mimic asymmetric
        crypto far heavier than the stdlib HMACs standing in for it --
        shapes wall-clock results too.  Cache-hit verifications charge
        nothing and therefore burn nothing, exactly as in the simulator.
    """

    backend: str = "sim"
    charge_scale: float = 0.0

    def validate(self) -> None:
        if self.backend not in ("sim", "asyncio"):
            raise ConfigurationError(
                f"runtime backend must be 'sim' or 'asyncio', got {self.backend!r}")
        if self.charge_scale < 0:
            raise ConfigurationError("charge_scale must be non-negative")


@dataclass(frozen=True)
class TimerConfig:
    """Retransmission and view-change timers (virtual milliseconds)."""

    client_retransmit_ms: float = 150.0
    agreement_retransmit_ms: float = 60.0
    execution_fetch_ms: float = 40.0
    view_change_ms: float = 400.0
    batch_timeout_ms: float = 1.0
    #: proactive primary rotation: once the stable checkpoint is this many
    #: checkpoint intervals past the view's starting checkpoint (the highest
    #: one in the view-change quorum its NEW-VIEW was built from), every
    #: replica starts a planned view change to the next primary (riding the
    #: ordinary view-change path, so the handover inherits its safety
    #: argument wholesale).  All correct replicas count from the same
    #: starting checkpoint, so the rotation quorum forms without any extra
    #: coordination.  ``None`` (the default) never rotates.
    rotation_interval_checkpoints: Optional[int] = None

    def validate(self) -> None:
        for fld in dataclasses.fields(self):
            if fld.name == "rotation_interval_checkpoints":
                value = getattr(self, fld.name)
                if value is not None and value < 1:
                    raise ConfigurationError(
                        "rotation_interval_checkpoints must be at least 1 "
                        "(or None to disable proactive rotation)")
                continue
            if getattr(self, fld.name) <= 0:
                raise ConfigurationError(f"timer {fld.name} must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of a deployment of the separated architecture.

    Parameters
    ----------
    f:
        Number of Byzantine faults tolerated by the agreement cluster.
    g:
        Number of Byzantine faults tolerated by the execution cluster.
    h:
        Number of Byzantine faults tolerated by the privacy firewall.  Only
        meaningful when ``use_privacy_firewall`` is true.
    num_clients:
        Size of the finite universe of authorised clients.
    pipeline_depth:
        The paper's ``P``: maximum number of agreement-certificate sequence
        numbers outstanding (unanswered) between the clusters.
    per_shard_windows:
        Skew-aware concurrency for sharded execution.  The paper's pipeline
        bound is one *global* window: sequence number ``n`` waits until the
        highest contiguously answered one reaches ``n - pipeline_depth``,
        which with shards serialises every shard behind the slowest (a hot
        shard's unanswered batch freezes the frontier, and cold shards stop
        being admitted although their own pipelines are empty).  When set,
        the primary keeps one bundle FIFO per shard its queue names and
        admits a batch as soon as every shard it touches has fewer than
        ``pipeline_depth`` batches in flight, and the proposer gates on
        each shard's own outstanding parts rather than the contiguously
        answered global frontier; and the adaptive-batching gather window
        follows the measured
        order-to-reply round trip.  Safety is unchanged: the log's
        ``[h, h + L]`` watermark window still bounds how far agreement runs
        ahead of the stable checkpoint.  :meth:`sharded` turns it on; off
        is the paper's global watermark (the skew benchmark's reference).
    checkpoint_interval:
        The paper's ``CP_FREQ``: execution nodes checkpoint after executing
        request ``n`` whenever ``n % checkpoint_interval == 0``.
    bundle_size:
        Number of requests bundled into one agreement/batch and one threshold
        signature (Figure 5 sweeps this).
    """

    f: int = 1
    g: int = 1
    h: int = 1
    num_clients: int = 4
    pipeline_depth: int = 64
    per_shard_windows: bool = False
    checkpoint_interval: int = 128
    bundle_size: int = 1
    authentication: AuthenticationScheme = AuthenticationScheme.MAC
    deployment: Deployment = Deployment.DIFFERENT
    use_privacy_firewall: bool = False
    app_processing_ms: float = 0.0
    crypto: CryptoCosts = field(default_factory=CryptoCosts)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    timers: TimerConfig = field(default_factory=TimerConfig)
    sharding: ShardingConfig = field(default_factory=ShardingConfig)
    rebalance: RebalanceConfig = field(default_factory=RebalanceConfig)
    cross_shard: CrossShardConfig = field(default_factory=CrossShardConfig)
    multilog: MultiLogConfig = field(default_factory=MultiLogConfig)
    perf: PerfConfig = field(default_factory=PerfConfig)
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.f < 0 or self.g < 0 or self.h < 0:
            raise ConfigurationError("fault thresholds f, g, h must be non-negative")
        if self.num_clients < 1:
            raise ConfigurationError("at least one client is required")
        if self.pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be at least 1")
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be at least 1")
        if self.bundle_size < 1:
            raise ConfigurationError("bundle_size must be at least 1")
        if self.use_privacy_firewall and self.authentication is not AuthenticationScheme.THRESHOLD:
            raise ConfigurationError(
                "the privacy firewall requires threshold-signature reply certificates"
            )
        if self.use_privacy_firewall and self.deployment is not Deployment.DIFFERENT:
            raise ConfigurationError(
                "the privacy firewall requires physically separate agreement and "
                "execution machines"
            )
        if self.app_processing_ms < 0:
            raise ConfigurationError("app_processing_ms must be non-negative")
        if self.sharding.num_shards > 1 and self.use_privacy_firewall:
            raise ConfigurationError(
                "sharded execution is incompatible with the privacy firewall: "
                "the shard router must read operation keys, which the firewall "
                "deployment encrypts end-to-end"
            )
        if self.rebalance.enabled and self.sharding.strategy != "range":
            raise ConfigurationError(
                "dynamic shard rebalancing requires the 'range' sharding "
                "strategy (hash partitioning has no boundaries to move)"
            )
        if self.cross_shard.enabled and self.use_privacy_firewall:
            raise ConfigurationError(
                "cross-shard operations are incompatible with the privacy "
                "firewall: the routing layers must read operation keys, "
                "which the firewall deployment encrypts end-to-end"
            )
        if self.multilog.enabled:
            if self.use_privacy_firewall:
                raise ConfigurationError(
                    "multi-log ordering is incompatible with the privacy "
                    "firewall (the log routers must read operation keys)"
                )
            if self.sharding.num_shards % self.multilog.num_logs != 0:
                raise ConfigurationError(
                    f"num_shards ({self.sharding.num_shards}) must be "
                    f"divisible by num_logs ({self.multilog.num_logs}) so "
                    "shard groups start out equal"
                )
            if self.rebalance.enabled:
                raise ConfigurationError(
                    "multi-log ordering and dynamic rebalancing are mutually "
                    "exclusive for now: a partition-map cut is ordered in one "
                    "log but governs key ownership across all of them"
                )
        self.network.validate()
        self.timers.validate()
        self.sharding.validate()
        self.rebalance.validate()
        self.cross_shard.validate()
        self.multilog.validate()
        self.batching.validate()
        self.runtime.validate()

    # ------------------------------------------------------------------ #
    # Cluster sizes (the paper's replication-cost arithmetic).
    # ------------------------------------------------------------------ #

    @property
    def num_agreement_nodes(self) -> int:
        """``3f + 1`` replicas are required for f-resilient Byzantine agreement."""
        return 3 * self.f + 1

    @property
    def num_execution_nodes(self) -> int:
        """``2g + 1`` execution replicas tolerate ``g`` Byzantine faults."""
        return 2 * self.g + 1

    @property
    def num_execution_clusters(self) -> int:
        """Number of independent execution clusters (shards)."""
        return self.sharding.num_shards

    @property
    def agreement_quorum(self) -> int:
        """Authenticators required on an agreement certificate: ``2f + 1``."""
        return 2 * self.f + 1

    @property
    def reply_quorum(self) -> int:
        """Matching execution authenticators required on a reply: ``g + 1``."""
        return self.g + 1

    @property
    def direct_replies(self) -> bool:
        """Whether execution replicas answer clients themselves.

        The paper's 'execution nodes send replies directly to clients'
        optimisation: only valid without the privacy firewall (clients may
        not talk to execution nodes through the firewall topology) and only
        useful for MAC certificates, where the client can count matching
        partials itself.  Both ends read it: where it holds, every
        agreement node gets bodiless reply certificates (they retire its
        pending sends and nothing else), assembled by the primary of the
        slot's view and relayed to the others, ``g + 1`` of the ``2g + 1``
        replicas carry each client its reply and the others send the
        bodiless view, and a queue relays -- and caches -- only the answer
        to a retransmission it passed on to the replicas.
        """
        return (not self.use_privacy_firewall
                and self.authentication is AuthenticationScheme.MAC)

    @property
    def checkpoint_quorum(self) -> int:
        """Execution checkpoint proof of stability needs ``g + 1`` vouchers."""
        return self.g + 1

    @property
    def firewall_rows(self) -> int:
        """The privacy firewall has ``h + 1`` rows of filters."""
        return self.h + 1 if self.use_privacy_firewall else 0

    @property
    def firewall_columns(self) -> int:
        """Each privacy firewall row has ``h + 1`` filter nodes."""
        return self.h + 1 if self.use_privacy_firewall else 0

    @property
    def num_firewall_nodes(self) -> int:
        """Total number of filter nodes: ``(h + 1)^2`` (the provable minimum)."""
        return self.firewall_rows * self.firewall_columns

    @property
    def total_server_machines(self) -> int:
        """Number of distinct server machines in the deployment.

        When agreement and execution share machines (``Deployment.SAME``)
        the execution replicas do not add machines.  When the privacy
        firewall is enabled, the bottom row of filters is co-located with
        agreement nodes whenever there are at least ``h + 1`` of them, which
        the ``3f + 1 >= h + 1`` check captures.
        """
        agreement = self.num_agreement_nodes
        execution = 0 if self.deployment is Deployment.SAME else self.num_execution_nodes
        firewall = 0
        if self.use_privacy_firewall:
            rows = self.firewall_rows
            colocated_rows = 1 if self.num_agreement_nodes >= self.firewall_columns else 0
            firewall = (rows - colocated_rows) * self.firewall_columns
        return agreement + execution + firewall

    # ------------------------------------------------------------------ #
    # Convenience constructors for the paper's evaluation configurations.
    # ------------------------------------------------------------------ #

    @staticmethod
    def base_coupled(**overrides: object) -> "SystemConfig":
        """BASE/Same/MAC: the coupled baseline (agreement == execution nodes)."""
        defaults: dict = dict(
            f=1, g=1, deployment=Deployment.SAME,
            authentication=AuthenticationScheme.MAC,
            use_privacy_firewall=False,
        )
        defaults.update(overrides)
        return SystemConfig(**defaults)

    @staticmethod
    def separate_same_mac(**overrides: object) -> "SystemConfig":
        """Separate/Same/MAC from Figure 3."""
        defaults: dict = dict(
            f=1, g=1, deployment=Deployment.SAME,
            authentication=AuthenticationScheme.MAC,
            use_privacy_firewall=False,
        )
        defaults.update(overrides)
        return SystemConfig(**defaults)

    @staticmethod
    def separate_different_mac(**overrides: object) -> "SystemConfig":
        """Separate/Different/MAC from Figure 3."""
        defaults: dict = dict(
            f=1, g=1, deployment=Deployment.DIFFERENT,
            authentication=AuthenticationScheme.MAC,
            use_privacy_firewall=False,
        )
        defaults.update(overrides)
        return SystemConfig(**defaults)

    @staticmethod
    def separate_different_threshold(**overrides: object) -> "SystemConfig":
        """Separate/Different/Thresh from Figure 3."""
        defaults: dict = dict(
            f=1, g=1, deployment=Deployment.DIFFERENT,
            authentication=AuthenticationScheme.THRESHOLD,
            use_privacy_firewall=False,
        )
        defaults.update(overrides)
        return SystemConfig(**defaults)

    @staticmethod
    def sharded(num_shards: int, strategy: str = "hash",
                range_boundaries: tuple = (), **overrides: object) -> "SystemConfig":
        """Separated architecture with ``num_shards`` execution clusters.

        Sharded deployments default to skew-aware concurrency
        (``per_shard_windows``); pass ``per_shard_windows=False`` to get the
        single global watermark back (the pre-sharding behaviour, and the
        baseline the skew benchmark compares against).
        """
        defaults: dict = dict(
            f=1, g=1, deployment=Deployment.DIFFERENT,
            authentication=AuthenticationScheme.MAC,
            use_privacy_firewall=False, per_shard_windows=True,
            sharding=ShardingConfig(num_shards=num_shards, strategy=strategy,
                                    range_boundaries=tuple(range_boundaries)),
        )
        defaults.update(overrides)
        return SystemConfig(**defaults)

    @staticmethod
    def multilog_sharded(num_logs: int, num_shards: int, strategy: str = "hash",
                         range_boundaries: tuple = (),
                         **overrides: object) -> "SystemConfig":
        """Sharded separated architecture with ``num_logs`` agreement logs.

        Delegates to :meth:`sharded` (so multi-log deployments inherit
        per-shard windows) and partitions the ``num_shards``
        execution clusters into ``num_logs`` equal contiguous groups.
        """
        defaults: dict = dict(multilog=MultiLogConfig(num_logs=num_logs))
        defaults.update(overrides)
        return SystemConfig.sharded(num_shards, strategy,
                                    tuple(range_boundaries), **defaults)

    @staticmethod
    def privacy_firewall(**overrides: object) -> "SystemConfig":
        """Priv/Different/Thresh from Figure 3: the full privacy firewall system."""
        defaults: dict = dict(
            f=1, g=1, h=1, deployment=Deployment.DIFFERENT,
            authentication=AuthenticationScheme.THRESHOLD,
            use_privacy_firewall=True,
        )
        defaults.update(overrides)
        return SystemConfig(**defaults)

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy of this configuration with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
