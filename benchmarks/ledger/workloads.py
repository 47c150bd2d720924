"""The four ledger workloads: systems, traffic, phases and correctness checks.

Everything here runs inside one child process on the benchmark's single
thread: load is generated from completion callbacks inside the system's own
scheduler / event loop.  See README.md for the estimator (blocks, fastest
quarter) and for why each workload exists.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.metrics import percentile
from repro.apps import kvstore
from repro.apps.kvstore import KeyValueStore
from repro.config import (BatchingConfig, CrossShardConfig, CryptoCosts,
                          ObservabilityConfig, RuntimeConfig, SystemConfig,
                          TimerConfig)
from repro.core.system import SeparatedSystem
from repro.core.unreplicated import UnreplicatedSystem
from repro.errors import LivenessTimeoutError
from repro.multilog import MultiLogSystem
from repro.util.wirecache import WIRE_CACHE
from repro.workloads.crossshard import (audit_cross_group_consistency,
                                        mixed_cross_group_operations,
                                        seed_operations)
from repro.workloads.skew import equal_range_boundaries

from hostclock import HostClock
from spans import LAYERS, Tracer

#: protocol-level RNG seed of every system built here; ``--seed`` only
#: chooses the operations
SYSTEM_SEED = 1
KEYS = 256
#: multi-log deployment of ``sim-crosslog-mix``: 2 logs x 2 range shards,
#: two audit shards in log 0 (a tear inside a group is detectable) and one
#: in log 1 (every transaction crosses logs)
LOGS, SHARDS, AUDIT_SHARDS = 2, 4, (0, 1, 2)
CROSSLOG_OPS = 32_768
#: with charge_scale=0 a charge on the asyncio backend is not free: it
#: defers the node's next delivery by a wall-clock timer, which would put the
#: cost model's virtual milliseconds into wall-clock latency.  Wall-clock
#: workloads therefore charge nothing and measure the code itself.
ZERO_COST = CryptoCosts(mac_ms=0.0, signature_sign_ms=0.0,
                        signature_verify_ms=0.0, threshold_share_ms=0.0,
                        threshold_combine_ms=0.0, threshold_verify_ms=0.0,
                        digest_bytes_per_ms=math.inf)
#: the ordering benchmark's slow timers: back-pressure, not retransmission,
#: shapes the run.  A backup of the coordinating log arms its cut fallover
#: after it has released a marker through its own assembly, ignores the
#: primary's cut as no longer needed, and so lets the timer fire: with the
#: default 60 ms retransmit that is a needless cut broadcast per marker and
#: backup, with these timers a few per run.  ``queue.cut_fallovers`` counts
#: them; they are wasted work, not a wrong result.
CROSSLOG_TIMERS = TimerConfig(client_retransmit_ms=5_000.0,
                              agreement_retransmit_ms=1_000.0,
                              execution_fetch_ms=50.0,
                              view_change_ms=20_000.0, batch_timeout_ms=1.0)
#: wall-clock workloads: timers far above any saturated wall-clock latency, so
#: that no retransmission or fetch depends on how busy the host is (the
#: defaults -- 150 ms client, 60 ms queue -- sit inside the latency of 16
#: closed-loop clients and turn a slow moment into a retransmission storm)
RT_TIMERS = dict(client_retransmit_ms=5_000.0, agreement_retransmit_ms=2_000.0,
                 execution_fetch_ms=500.0, view_change_ms=20_000.0)
#: open-loop failover phase (virtual ms)
FAILOVER_CLIENTS, FAILOVER_INTERVAL_MS, LATE_MS = 8, 10.0, 250.0
AGREEMENT_TYPES = ("PrePrepare", "Prepare", "CommitMsg", "AgreementCheckpoint",
                   "ViewChange", "NewView")
STAGES = ("admit", "batch", "agree", "release", "execute", "reply", "vote",
          "collate", "coordinate")


@dataclass(frozen=True)
class Spec:
    """One workload: a cluster, its traffic and the shape of its phases."""

    name: str
    backend: str                  # backend of the wall-clock phases
    clients: int                  # closed-loop clients when saturated
    block: int                    # commits per block (one checkpoint each)
    serial_block: int             # commits per block with one client
    virtual_blocks: int           # blocks the virtual-clock metrics span
    traced_blocks: int = 4        # blocks the traced loop spans on the simulator
    bundle: int = 1
    batch_timeout_ms: float = 1.0
    value_bytes: int = 32
    crosslog: bool = False
    failover: bool = False
    baseline: bool = False

    def smoke(self) -> "Spec":
        """A few seconds of the same shape, for plumbing checks."""
        return replace(self, block=max(16, self.block // 4), serial_block=8,
                       virtual_blocks=2, traced_blocks=2)


SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("rt-small-unbatched", "asyncio", clients=4, block=64,
         serial_block=64, virtual_blocks=4, baseline=True),
    Spec("rt-large-batched", "asyncio", clients=16, block=64,
         serial_block=32, virtual_blocks=12, bundle=8, batch_timeout_ms=5.0,
         value_bytes=4096),
    Spec("sim-small-failover", "sim", clients=4, block=128, serial_block=64,
         virtual_blocks=8, failover=True),
    Spec("sim-crosslog-mix", "sim", clients=16, block=128, serial_block=64,
         virtual_blocks=8, crosslog=True),
)}


# ---------------------------------------------------------------------- #
# Systems and traffic.
# ---------------------------------------------------------------------- #

def build(spec: Spec, backend: str, clients: int, *, obs: bool = False,
          unreplicated: bool = False):
    common = dict(
        # one checkpoint per block: the interval counts sequence numbers,
        # and a static bundle carries up to ``bundle`` commits per number
        num_clients=clients, checkpoint_interval=max(8, spec.block // spec.bundle),
        crypto=ZERO_COST if backend == "asyncio" else CryptoCosts(),
        observability=ObservabilityConfig(metrics=obs, tracing=obs),
        runtime=RuntimeConfig(backend=backend, charge_scale=0.0))
    if spec.crosslog:
        config = SystemConfig.multilog_sharded(
            num_logs=LOGS, num_shards=SHARDS, strategy="range",
            range_boundaries=equal_range_boundaries(KEYS, SHARDS),
            timers=CROSSLOG_TIMERS,
            batching=BatchingConfig(mode="adaptive", min_bundle=1,
                                    max_bundle=16),
            cross_shard=CrossShardConfig(enabled=True), **common)
        return MultiLogSystem(config, KeyValueStore, seed=SYSTEM_SEED)
    timers = TimerConfig(batch_timeout_ms=spec.batch_timeout_ms,
                         **(RT_TIMERS if spec.backend == "asyncio" else {}))
    config = SystemConfig(f=1, g=1, bundle_size=spec.bundle, timers=timers,
                          **common)
    cls = UnreplicatedSystem if unreplicated else SeparatedSystem
    return cls(config, KeyValueStore, seed=SYSTEM_SEED)


def kv_operations(rng: random.Random, spec: Spec) -> Iterator:
    """An endless 50/50 put/get stream over ``KEYS`` keys.

    A ``get`` reads a key that was already written, so reply sizes do not
    depend on how full the store is; every stretch of ``spec.block``
    operations holds as many puts as gets, so bytes per commit do not drift
    with the seed's luck; every put value is unique, so the final state can
    be checked against the acknowledged writes.
    """
    written: List[str] = []
    seen: set = set()
    count = 0
    while True:
        puts = [True] * (spec.block // 2) + [False] * (spec.block - spec.block // 2)
        rng.shuffle(puts)
        for is_put in puts:
            count += 1
            if is_put or not written:
                key = f"k{rng.randrange(KEYS):03d}"
                if key not in seen:
                    seen.add(key)
                    written.append(key)
                yield kvstore.put(key, f"{count:08d}".ljust(spec.value_bytes, "x"))
            else:
                yield kvstore.get(rng.choice(written))


def crosslog_operations(seed: int, block: int) -> Iterator:
    """``mixed_cross_group_operations`` dealt so that every block holds the
    same mix: 10% multi-shard operations, 30% of those write transactions.

    The generator draws each operation's kind at random, and a multi-shard
    operation moves several times the bytes of a single-key one, so the
    undealt stream makes bytes and virtual time per commit wander by 3%
    from seed to seed.  Each kind keeps its own order (the transactions'
    audit stamps stay increasing).
    """
    kinds: Dict[str, list] = {"txn": [], "multi_get": [], "single": []}
    for operation in mixed_cross_group_operations(
            CROSSLOG_OPS, key_space=KEYS, num_shards=SHARDS, multi_fraction=0.1,
            audit_shards=AUDIT_SHARDS, seed=seed):
        kinds.get(operation.kind, kinds["single"]).append(operation)
    streams = {kind: iter(ops) for kind, ops in kinds.items()}
    multi = round(0.1 * block)
    txns = round(0.3 * multi)
    deal = ["txn"] * txns + ["multi_get"] * (multi - txns) + ["single"] * (block - multi)
    rng = random.Random(seed)
    while True:
        rng.shuffle(deal)
        chunk = [next(streams[kind], None) for kind in deal]
        if None in chunk:
            return
        yield from chunk


def operations(spec: Spec, seed: int) -> Iterator:
    if spec.crosslog:
        return crosslog_operations(seed, spec.block)
    return kv_operations(random.Random(seed), spec)


def first_operation(spec: Spec):
    return kvstore.put("key-00000" if spec.crosslog else "k000", "setup")


# ---------------------------------------------------------------------- #
# The closed loop.
# ---------------------------------------------------------------------- #

class ClosedLoop:
    """Clients that each submit their next operation from the completion
    callback of their previous one, cut into blocks of ``block`` commits."""

    def __init__(self, system, ops: Iterator, block: int,
                 probe: Optional[Callable[[], dict]] = None) -> None:
        self.system, self.ops, self.block, self.probe = system, ops, block, probe
        self.clock = HostClock()
        self.counts: List[int] = []          # completions per issued operation
        self.completed = 0
        #: wall submit -> accepted reply, and the clock gap each ended in
        self.latencies_ms: List[float] = []
        self._gaps: List[int] = []
        #: (scaled s, raw s, scheduler ms, events processed, probe()) per
        #: block edge
        self.marks: List[tuple] = []
        self.stopping = False

    def _mark(self) -> None:
        scheduler = self.system.scheduler
        self.marks.append((self.clock.read(), self.clock.raw, scheduler.now,
                           scheduler.events_processed,
                           self.probe() if self.probe else None))

    def _submit(self, client) -> None:
        operation = next(self.ops, None)
        if operation is None:
            self.stopping = True
            return
        index = len(self.counts)
        self.counts.append(0)
        started = time.perf_counter()

        def done(_record) -> None:
            self.latencies_ms.append((time.perf_counter() - started) * 1000.0)
            self._gaps.append(len(self.clock.factors))
            self.counts[index] += 1
            self.completed += 1
            if self.completed % self.block == 0:
                self._mark()
            elif self.clock.due():
                self.clock.read()
            if not self.stopping:
                self._submit(client)

        client.submit(operation, done)

    def run(self, clients: Iterable, *, deadline: float, min_blocks: int,
            max_blocks: int = 1 << 30, timeout_ms: float = 30_000.0) -> None:
        """Whole blocks until the wall-clock ``deadline`` (at least
        ``min_blocks``, at most ``max_blocks``), then drain."""
        self._mark()
        for client in clients:
            self._submit(client)
        try:
            while not self.stopping:
                edges = len(self.marks)
                self.system.run_until(
                    lambda: len(self.marks) > edges or self.stopping,
                    timeout_ms)
                blocks = len(self.marks) - 1
                if blocks >= max_blocks or (blocks >= min_blocks
                                            and time.perf_counter() >= deadline):
                    self.stopping = True
            self.system.run_until(
                lambda: self.completed == len(self.counts), timeout_ms)
        except LivenessTimeoutError:
            # Uncommitted operations are failures, not a crash of the run.
            self.stopping = True

    # -- the measured part: every block but the first (warm-up) ---------- #

    @property
    def measured(self) -> int:
        """Commits in the measured blocks."""
        return (len(self.marks) - 2) * self.block

    def commits_per_s(self) -> float:
        return self.measured / (self.marks[-1][0] - self.marks[1][0])

    def host_factor(self) -> float:
        """Reference-speed seconds per wall second over the measured part."""
        return ((self.marks[-1][0] - self.marks[1][0])
                / (self.marks[-1][1] - self.marks[1][1]))

    def latency_ms(self, share: float) -> float:
        """Quantile of the measured latencies, each at the reference speed
        of the clock gap it ended in."""
        factors = self.clock.factors
        scaled = sorted(latency * factors[gap] for latency, gap in
                        list(zip(self.latencies_ms, self._gaps))
                        [self.block:self.block + self.measured])
        return percentile(scaled, share)

    def failed(self) -> int:
        return sum(1 for count in self.counts if count != 1)


# ---------------------------------------------------------------------- #
# Correctness.
# ---------------------------------------------------------------------- #

def clusters(system) -> List[list]:
    if hasattr(system, "shard_execution_nodes"):
        return system.shard_execution_nodes
    if hasattr(system, "execution_nodes"):
        return [system.execution_nodes]
    return [[system.server]]


def check_state(system, spec: Spec, failures: List[str]) -> None:
    """Replicas agree, and each key holds its last acknowledged write."""
    settle_ms = 100.0 if system.config.runtime.backend == "asyncio" else 500.0
    for _ in range(20):
        states = [[node.app.snapshot() for node in cluster]
                  for cluster in clusters(system)]
        if all(state == cluster[0] for cluster in states for state in cluster):
            break
        system.run(settle_ms)
    else:
        failures.append("execution replicas of one cluster hold different state")
        return
    store = {key: value for cluster in states for key, value in cluster[0].items()}
    if spec.crosslog:
        # Transactions write the audit keys and every put carries the same
        # value, so the oracle here is the workload's own cross-group audit.
        audit = audit_cross_group_consistency(
            system.clients, key_space=KEYS, num_shards=SHARDS,
            log_of_shard=system.log_registry.latest.log_of)
        if audit.torn_reads or not audit.audited_reads or not audit.committed_txns:
            failures.append(f"cross-group audit: {audit}")
        return
    # Several puts of one bundle share a sequence number; any of them may be
    # the last one applied.
    last: Dict[str, Tuple[int, set]] = {}
    for client in system.clients:
        for record in client.completed:
            if record.operation.kind != "put":
                continue
            key, value = record.operation.args["key"], record.operation.args["value"]
            seq, values = last.get(key, (-1, set()))
            if record.seq > seq:
                last[key] = (record.seq, {value})
            elif record.seq == seq:
                values.add(value)
    lost = [key for key, (_, values) in last.items() if store.get(key) not in values]
    if lost:
        failures.append(f"{len(lost)} keys do not hold their last acknowledged put")


def check_exactly_once(system, loops: List[ClosedLoop], extra_issued: int,
                       failures: List[str]) -> Tuple[int, int]:
    attempted = sum(len(loop.counts) for loop in loops) + extra_issued
    failed = sum(loop.failed() for loop in loops)
    recorded = sum(len(client.completed) for client in system.clients)
    if recorded != attempted - failed:
        failures.append(f"clients recorded {recorded} completions for "
                        f"{attempted} operations, {failed} known failed")
    return attempted, failed


# ---------------------------------------------------------------------- #
# Phases.
# ---------------------------------------------------------------------- #

def measure_setup(spec: Spec, smoke: bool) -> float:
    """Median time from constructing the system to its first acknowledged
    commit (servers listening, connections made, first agreement round),
    over at least five set-ups and, where one takes milliseconds, up to 50."""
    samples: List[float] = []
    clock = HostClock()
    least, most = (2, 2) if smoke else (5, 50)
    while len(samples) < least or (len(samples) < most and clock.raw < 1.0):
        started = clock.read()
        system = build(spec, spec.backend, spec.clients)
        try:
            done: list = []
            system.clients[0].submit(first_operation(spec), done.append)
            system.run_until(lambda: bool(done), 30_000.0)
            samples.append(clock.read() - started)
            # Connections accepted but not yet served would be destroyed
            # pending by close(); let them start (outside the timed part).
            system.run(20.0)
        finally:
            system.close()
    return statistics.median(samples)


def prepare(system, spec: Spec) -> int:
    """Workload state that must exist before traffic; returns operations run."""
    if not spec.crosslog:
        return 0
    setup = seed_operations(KEYS, SHARDS)
    for operation in setup:
        system.invoke(operation)
    return len(setup)


def saturate(system, spec: Spec, ops: Iterator, *, seconds: float = 0.0,
             blocks: int = 2, exactly: bool = False, probe=None) -> ClosedLoop:
    """All clients in closed loop: after the warm-up block, whole blocks for
    ``seconds`` of wall time and at least ``blocks``, or ``exactly`` that many."""
    loop = ClosedLoop(system, ops, spec.block, probe)
    loop.run(system.clients, min_blocks=blocks + 1,
             max_blocks=blocks + 1 if exactly else 1 << 30,
             deadline=time.perf_counter() + seconds)
    return loop


def serial(system, spec: Spec, ops: Iterator, seconds: float) -> ClosedLoop:
    """One client, nothing else in flight (the paper's Fig. 3 method)."""
    loop = ClosedLoop(system, ops, spec.serial_block)
    loop.run(system.clients[:1], min_blocks=3,
             deadline=time.perf_counter() + seconds)
    return loop


def virtual_metrics(loop: ClosedLoop, system, blocks: int) -> Dict[str, float]:
    """Virtual-clock throughput and latency over a fixed number of blocks,
    so the same seed gives the same numbers however fast the host is."""
    start, end = loop.marks[1], loop.marks[1 + blocks]
    commits = blocks * loop.block
    latencies = [record.latency_ms for client in system.clients
                 for record in client.completed
                 if start[2] < record.completed_at_ms <= end[2]]
    return {
        "virtual_commits_per_s": commits * 1000.0 / (end[2] - start[2]),
        "virtual_latency_p50_ms": statistics.median(latencies),
    }


def simulator_metrics(loop: ClosedLoop, system, blocks: int) -> Dict[str, float]:
    """What only a loop on the simulator backend has: the virtual clock and
    the scheduler's event count, over the same fixed blocks."""
    events = loop.marks[1 + blocks][3] - loop.marks[1][3]
    return {**virtual_metrics(loop, system, blocks),
            "sim.events_per_commit": events / (blocks * loop.block)}


def virtual_twin(spec: Spec, seed: int, failures: List[str]) -> Tuple[Dict[str, float], int, int]:
    """The cost model's prediction for a wall-clock workload: the same
    cluster and operation stream on the simulator, a fixed number of blocks."""
    system = build(spec, "sim", spec.clients)
    loop = saturate(system, spec, operations(spec, seed),
                    blocks=spec.virtual_blocks, exactly=True)
    attempted, failed = check_exactly_once(system, [loop], 0, failures)
    if not failed:
        check_state(system, spec, failures)
    return virtual_metrics(loop, system, spec.virtual_blocks), attempted, failed


def failover_phase(spec: Spec, seed: int, smoke: bool,
                   failures: List[str]) -> Tuple[Dict[str, float], int, int]:
    """Open loop on the virtual clock across a crash of the primary.

    Requests are sent when they are due whether or not earlier ones were
    answered (a busy client queues them, and ``latency_ms`` then runs from
    the due time), so requests due while there is no primary are counted.
    """
    duration_ms = 1_600.0 if smoke else 4_000.0
    system = build(spec, "sim", FAILOVER_CLIENTS)
    ops = operations(spec, seed)
    start = system.now
    sent = int(duration_ms / FAILOVER_INTERVAL_MS)
    completions: List[int] = [0] * sent

    def send(index: int, operation) -> None:
        def done(_record) -> None:
            completions[index] += 1
        system.clients[index % FAILOVER_CLIENTS].submit(operation, done)

    for index in range(sent):
        system.scheduler.call_at(
            start + index * FAILOVER_INTERVAL_MS,
            lambda index=index, operation=next(ops): send(index, operation),
            label="ledger-open-loop")
    system.scheduler.call_at(start + 0.375 * duration_ms,
                             lambda: system.crash_agreement(0),
                             label="ledger-crash")
    system.run(duration_ms)
    try:
        system.run_until(lambda: sum(completions) >= sent, 20_000.0)
    except LivenessTimeoutError:
        pass  # the unanswered requests are counted below
    records = [record for client in system.clients for record in client.completed]
    replied = sorted(record.completed_at_ms for record in records)
    late = sum(1 for record in records if record.latency_ms > LATE_MS)
    failed = sum(1 for count in completions if count != 1)
    views = {replica.view for replica in system.agreement_replicas
             if not replica.crashed}
    if len(views) != 1 or views == {0}:
        failures.append(f"live agreement replicas ended in views {sorted(views)}")
    if len(records) != sent - failed:
        failures.append(f"failover: {len(records)} completions recorded for "
                        f"{sent} requests, {failed} known failed")
    if not failed:
        check_state(system, spec, failures)
    return {
        "outage_virtual_ms": max((b - a for a, b in zip(replied, replied[1:])),
                                 default=0.0),
        "late_share": (late + sent - len(records)) / sent,
        "agreement.view_changes": float(max(views)),
    }, sent, failed


# ---------------------------------------------------------------------- #
# The untraced run: end-to-end metrics.
# ---------------------------------------------------------------------- #

def wire_bytes(system) -> int:
    """Bytes put on the wire: real frames on asyncio, modelled on the simulator."""
    transport = getattr(system.network, "transport", None)
    return (transport.bytes_on_wire if transport is not None
            else system.network.stats.bytes_sent)


def run_untraced(spec: Spec, seed: int, seconds: float, smoke: bool) -> dict:
    failures: List[str] = []
    metrics = {"setup_s": measure_setup(spec, smoke),
               "outage_virtual_ms": 0.0, "late_share": 0.0}
    system = build(spec, spec.backend, spec.clients)
    try:
        prepared = prepare(system, spec)
        ops = operations(spec, seed)
        # Saturated first: its leading blocks give the virtual-clock numbers,
        # which must not depend on how many serial blocks fitted before.
        loaded = saturate(system, spec, ops, seconds=0.75 * seconds,
                          blocks=spec.virtual_blocks,
                          probe=lambda: wire_bytes(system))
        alone = serial(system, spec, ops, 0.25 * seconds)
        attempted, failed = check_exactly_once(
            system, [loaded, alone], prepared, failures)
        if not failed:
            check_state(system, spec, failures)
        metrics.update({
            "commits_per_s": loaded.commits_per_s(),
            "latency_p50_ms": alone.latency_ms(0.50),
            "wire_bytes_per_commit":
                (loaded.marks[-1][4] - loaded.marks[1][4]) / loaded.measured,
        })
        if spec.backend == "sim":
            metrics.update(simulator_metrics(loaded, system, spec.virtual_blocks))
    finally:
        system.close()
    if spec.backend != "sim":
        virtual, twin_attempted, twin_failed = virtual_twin(spec, seed, failures)
        metrics.update(virtual)
        attempted, failed = attempted + twin_attempted, failed + twin_failed
    if spec.failover:
        during, sent, lost = failover_phase(spec, seed, smoke, failures)
        metrics.update(during)
        attempted, failed = attempted + sent, failed + lost
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics,
            "commits": {"serial": alone.measured, "saturate": loaded.measured}}


# ---------------------------------------------------------------------- #
# The traced run: per-layer metrics.
# ---------------------------------------------------------------------- #

def counters(system, tracer: Tracer) -> Dict[str, float]:
    """Every count the program already keeps, plus the tracer's sums."""
    stats = system.network.stats
    out: Dict[str, float] = {
        "net.sends": stats.sends, "net.bytes": stats.bytes_sent,
        "wirecache.hits": WIRE_CACHE.hits, "wirecache.misses": WIRE_CACHE.misses,
        "bytes_encoded": tracer.bytes_encoded,
    }
    for name, count in stats.per_type.items():
        out[f"type.{name}"] = count
    transport = getattr(system.network, "transport", None)
    if transport is not None:
        for name, value in vars(transport).items():
            out[f"transport.{name}"] = value
    for process in list(system.server_processes()) + list(system.clients):
        for op, count in process.stats.crypto_ops.items():
            out[f"crypto.{op}"] = out.get(f"crypto.{op}", 0) + count
    out["execution.sent"] = sum(node.stats.messages_sent
                                for cluster in clusters(system)
                                for node in cluster)
    out["client.received"] = sum(c.stats.messages_received for c in system.clients)
    out["client.retransmissions"] = sum(c.retransmissions for c in system.clients)
    queues = getattr(system, "message_queues", [])
    out["queue.batches_sent"] = sum(queue.batches_sent for queue in queues)
    out["queue.markers"] = max(
        (getattr(queue, "cross_shard_markers", 0)
         + getattr(queue, "cross_log_markers", 0) for queue in queues), default=0)
    out["queue.cuts"] = sum(getattr(q, "cuts_broadcast", 0) for q in queues)
    out["queue.cut_fallovers"] = sum(getattr(q, "cut_fallovers", 0) for q in queues)
    replicas = getattr(system, "agreement_replicas", [])
    logs = getattr(system, "log_replicas", [replicas])
    out["agreement.view_changes"] = max((r.view for r in replicas), default=0)
    out["agreement.seqs"] = sum(max((r.next_seq for r in log), default=0)
                                for log in logs)
    for layer in LAYERS:
        out[f"self_ns.{layer}"] = tracer.self_ns[layer]
        out[f"calls.{layer}"] = tracer.calls[layer]
    return out


def ratio(useful: float, wasted: float) -> float:
    return useful / (useful + wasted) if useful + wasted else 0.0


def commit_ms_p50(system) -> float:
    """Median of the agreement replicas' own ``agreement.commit_ms``
    histograms, merged, interpolated inside the bucket that holds it."""
    merged: Dict[str, int] = {}
    peak = 0.0
    for node in system.metrics_snapshot()["nodes"].values():
        histogram = node["histograms"].get("agreement.commit_ms")
        if histogram:
            peak = max(peak, histogram["max"])
            for bucket, count in histogram["buckets"].items():
                merged[bucket] = merged.get(bucket, 0) + count
    half, below, lower = sum(merged.values()) / 2.0, 0, 0.0
    for bucket, count in merged.items():
        upper = float(bucket[3:]) if bucket.startswith("le_") else peak
        if count and below + count >= half:
            return lower + (upper - lower) * (half - below) / count
        below, lower = below + count, upper
    return 0.0


def layer_metrics(system, loop: ClosedLoop) -> Dict[str, float]:
    """Per-layer numbers over the measured blocks of the traced loop."""
    first, last = loop.marks[1][4], loop.marks[-1][4]
    delta = {key: last[key] - first.get(key, 0) for key in last}
    commits = loop.measured
    wall_ns = (loop.marks[-1][1] - loop.marks[1][1]) * 1e9
    #: wall milliseconds are reported at reference speed, like every duration
    factor = loop.host_factor()
    #: the program's own clock is the wall clock only on the asyncio backend
    clock_factor = factor if system.config.runtime.backend == "asyncio" else 1.0

    def total(key: str) -> float:
        return float(delta.get(key, 0))

    def per(key: str) -> float:
        return total(key) / commits

    # read now, after the loop has drained: frames sent and never dispatched
    transport = getattr(system.network, "transport", None)
    undelivered = (float(transport.frames_sent - transport.frames_delivered)
                   if transport is not None else 0.0)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_commit"] = per(f"self_ns.{layer}") / 1e6 * factor
        out[f"{layer}.calls_per_commit"] = per(f"calls.{layer}")
    attributed = sum(total(f"self_ns.{layer}") for layer in LAYERS)
    cached = total("crypto.mac_verify_cached") + total("crypto.certificate_cached")
    out.update({
        "codec.bytes_encoded_per_commit": per("bytes_encoded"),
        "codec.wirecache_hit_ratio": ratio(total("wirecache.hits"),
                                           total("wirecache.misses")),
        "net.sends_per_commit": per("net.sends"),
        "net.model_bytes_per_commit": per("net.bytes"),
        "runtime.frames_per_commit": per("transport.frames_sent"),
        "runtime.serialize_ms_per_commit": per("transport.serialize_ms") * factor,
        "runtime.deserialize_ms_per_commit":
            per("transport.deserialize_ms") * factor,
        "runtime.frames_undelivered": undelivered,
        "crypto.mac_sign_per_commit": per("crypto.mac_sign"),
        "crypto.mac_verify_per_commit": per("crypto.mac_verify"),
        "crypto.digest_per_commit": per("crypto.digest"),
        "crypto.verify_cache_hit_ratio": ratio(cached, total("crypto.mac_verify")),
        "crypto.digest_memo_hit_ratio": ratio(total("crypto.digest_cached"),
                                              total("crypto.digest")),
        "agreement.msgs_per_commit":
            sum(total(f"type.{name}") for name in AGREEMENT_TYPES) / commits,
        "agreement.batch_size_mean": commits / max(total("agreement.seqs"), 1.0),
        "agreement.commit_ms_p50": commit_ms_p50(system) * clock_factor,
        "agreement.view_changes": total("agreement.view_changes"),
        "queue.batches_sent_per_commit": per("queue.batches_sent"),
        "queue.cross_markers_per_commit": per("queue.markers"),
        "queue.cuts_per_commit": per("queue.cuts"),
        "queue.cut_fallovers": total("queue.cut_fallovers"),
        "execution.reply_msgs_per_commit": per("execution.sent"),
        "execution.fetches": total("type.FetchBatch"),
        "client.replies_per_commit": per("client.received"),
        "client.retransmissions": total("client.retransmissions"),
        "ledger.coverage": attributed / wall_ns,
        "ledger.unattributed_ms_per_commit":
            (wall_ns - attributed) / commits / 1e6 * factor,
    })
    stages = system.critical_path()["stages"]
    for stage in STAGES:
        out[f"stage.{stage}_p50_ms"] = (
            stages.get(stage, {}).get("p50_ms", 0.0) * clock_factor)
    return out


def run_traced(spec: Spec, seed: int, seconds: float, smoke: bool,
               trace_path) -> dict:
    """Untraced reference legs first, then the same saturated loop with the
    layer wrappers installed and the program's own passive tracer on."""
    failures: List[str] = []
    out: Dict[str, float] = {"baseline.unreplicated_commits_per_s": 0.0,
                             "baseline.replication_cost_x": 0.0,
                             "sim.events_per_commit": 0.0,
                             "outage_virtual_ms": 0.0, "late_share": 0.0}
    loops: List[ClosedLoop] = []
    system = build(spec, spec.backend, spec.clients)
    try:
        prepare(system, spec)
        ops = operations(spec, seed)
        plain = saturate(system, spec, ops, seconds=0.2 * seconds)
        alone = serial(system, spec, ops, 0.15 * seconds)
        loops += [plain, alone]
    finally:
        system.close()
    plain_rate = plain.commits_per_s()
    if spec.baseline:
        system = build(spec, spec.backend, spec.clients, unreplicated=True)
        try:
            single = saturate(system, spec, operations(spec, seed),
                              seconds=0.1 * seconds)
            loops.append(single)
        finally:
            system.close()
        out["baseline.unreplicated_commits_per_s"] = single.commits_per_s()
        out["baseline.replication_cost_x"] = single.commits_per_s() / plain_rate
    tracer = Tracer()
    tracer.install()
    try:
        system = build(spec, spec.backend, spec.clients, obs=True)
        try:
            prepare(system, spec)
            # On the simulator a fixed number of blocks, so that every count
            # per commit repeats exactly for a seed.
            traced = saturate(
                system, spec, operations(spec, seed), seconds=0.5 * seconds,
                blocks=spec.traced_blocks, exactly=spec.backend == "sim",
                probe=lambda: counters(system, tracer))
            loops.append(traced)
            if not traced.failed():
                check_state(system, spec, failures)
            out.update(layer_metrics(system, traced))
            if spec.backend == "sim":
                out.update(simulator_metrics(traced, system, spec.traced_blocks))
        finally:
            system.close()
        attempted, failed = 0, 0
        if spec.failover:
            during, attempted, failed = failover_phase(spec, seed, smoke, failures)
            out.update(during)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(trace_path)
    leftovers = tracer.still_patched()
    if leftovers:
        failures.append(f"still wrapped: {leftovers}")
    out.update({
        "client.serial_latency_p95_ms": alone.latency_ms(0.95),
        "trace.overhead_ratio": plain_rate / traced.commits_per_s(),
        "sim.events_per_s": out["sim.events_per_commit"] * plain_rate,
    })
    return {"attempted": attempted + sum(len(loop.counts) for loop in loops),
            "failed": failed + sum(loop.failed() for loop in loops),
            "failures": failures, "metrics": out,
            "commits": {"serial": alone.measured, "saturate": traced.measured}}
