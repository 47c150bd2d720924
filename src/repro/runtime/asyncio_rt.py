"""The real runtime: asyncio tasks, localhost TCP, wall-clock timers.

This backend runs the *same* protocol objects the simulator runs -- nodes,
message queues, certificates, caches, all untouched -- but replaces the
three simulated substrates with real ones:

* **time**: :class:`RealTimeScheduler` reads the event loop's monotonic
  clock (milliseconds since construction) and arms timers with
  ``loop.call_later``;
* **transport**: :class:`RealTimeNetwork` gives every registered node an
  asyncio TCP server on ``127.0.0.1`` and ships each message as a
  length-prefixed pickled ``(sender, message)`` frame over a per-link
  connection;
* **cost**: virtual-time charges optionally burn real CPU
  (``RuntimeConfig.charge_scale``), and inbound certificate verification
  can be offloaded to a process pool (:class:`repro.crypto.pool.CryptoPool`)
  that warms each node's ``VerifiedCertificateCache`` before dispatch.

Invariants preserved relative to the simulator (the contracts the
boundary-module docstrings in ``sim/`` and ``net/`` state):

* per-node handler atomicity -- the loop is single-threaded and handlers
  are synchronous, so a node never observes two handlers interleaved;
* per-link FIFO -- one TCP connection per (source, destination) ordered
  pair, and a dispatcher that awaits each frame's (optional) pool
  pre-verification before reading the next, so pipelining crypto never
  reorders a link;
* timer semantics -- ``call_at``/``call_after`` handles expose
  ``deadline`` / ``active`` / ``cancel()``, and a cancelled timer never
  fires;
* at-most-once delivery, crashed nodes drop everything, taps observe
  (and may replace or drop) every send before transmission;
* the success-only verification-cache contract -- the pool records only
  facts that verified, under the provider's own keys.

Deliberately **not** preserved: determinism (real scheduling and real
sockets race; the simulator remains the substrate for tests and fuzzing)
and the network fault model (``NetworkConfig`` delays/drops are simulation
devices; here latency is the real localhost stack).  Transport trust:
frames are ``pickle`` on a loopback socket, which is only safe because the
transport is process-local test infrastructure -- the Byzantine threat
model is enforced where it always was, by certificate verification at the
protocol layer, never by the transport.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from ..config import SystemConfig
from ..crypto.keys import Keystore
from ..crypto.pool import CryptoPool, extract_verify_jobs, spin
from ..errors import LivenessTimeoutError, NetworkError, SimulationError
from ..net.message import Message
from ..net.network import DROP, MessageTap, NetworkStats
from ..net.topology import Topology
from ..obs import DISABLED_HUB, ObservabilityHub
from ..sim.process import Process
from ..sim.rand import DeterministicRandom
from ..util.ids import NodeId
from .interface import Runtime

_HEADER = 4  # frame length prefix, big-endian


class RealTimer:
    """Wall-clock timer handle, API-compatible with :class:`~repro.sim.scheduler.Timer`."""

    __slots__ = ("deadline", "_fired", "_cancelled", "_handle")

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self._fired = False
        self._cancelled = False
        self._handle: Optional[asyncio.TimerHandle] = None

    @property
    def active(self) -> bool:
        return not self._fired and not self._cancelled

    def cancel(self) -> None:
        if self._fired:
            return
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class RealTimeScheduler:
    """Scheduler facade over an asyncio event loop.

    ``now`` is wall milliseconds since construction (monotonic), timers are
    ``loop.call_later`` under the hood, and ``run`` / ``run_until`` drive
    the loop from synchronous caller code -- so a deployment built on this
    scheduler is exercised through the exact driver API
    (:meth:`~repro.core.system.SimulatedSystem.run_until` etc.) the
    simulator backend uses.
    """

    def __init__(self, seed: int = 0, poll_interval_ms: float = 0.5) -> None:
        self.loop = asyncio.new_event_loop()
        self.random = DeterministicRandom(seed)
        self.obs: ObservabilityHub = DISABLED_HUB
        self.poll_interval_ms = poll_interval_ms
        self._origin = self.loop.time()
        self._events_processed = 0
        #: async hooks run at the start of every drive (transport startup)
        self._start_hooks: List[Callable[[], Awaitable[None]]] = []

    # ------------------------------------------------------------------ #
    # The Scheduler surface protocol code uses.
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Wall-clock milliseconds since this scheduler was created."""
        return (self.loop.time() - self._origin) * 1000.0

    @property
    def events_processed(self) -> int:
        """Dispatches so far (timer fires + message deliveries).

        Strictly increases between distinct dispatches, which is all the
        protocol layer relies on (it stamps per-event memos with it).
        """
        return self._events_processed

    def note_dispatch(self) -> None:
        """Called by the transport once per delivered message."""
        self._events_processed += 1

    def call_at(self, when: float, callback: Callable[[], None],
                label: str = "") -> RealTimer:
        """Arm ``callback`` for absolute time ``when`` (clamped to now).

        Unlike the simulator this never raises for a past deadline: real
        clocks drift between computing a deadline and arming it, so a
        late timer simply fires as soon as the loop gets to it.
        """
        timer = RealTimer(max(when, self.now))
        delay = max(0.0, (when - self.now) / 1000.0)

        def _fire() -> None:
            if timer._cancelled:
                return
            timer._fired = True
            self._events_processed += 1
            callback()

        timer._handle = self.loop.call_later(delay, _fire)
        return timer

    def call_after(self, delay: float, callback: Callable[[], None],
                   label: str = "") -> RealTimer:
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.call_at(self.now + delay, callback, label)

    # ------------------------------------------------------------------ #
    # Driving the loop (the system driver's run/run_until surface).
    # ------------------------------------------------------------------ #

    def add_start_hook(self, hook: Callable[[], Awaitable[None]]) -> None:
        self._start_hooks.append(hook)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run the loop until wall time ``until`` (required here).

        The simulator's "drain the event queue" default has no real-time
        analogue -- sockets never drain -- so an explicit horizon is
        mandatory.
        """
        if until is None:
            raise SimulationError(
                "the real-time scheduler needs an explicit 'until' horizon")
        self._drive(self._sleep_until(until))
        return self.now

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  description: str = "condition") -> float:
        """Run the loop until ``predicate()`` holds (checked every poll).

        Raises :class:`LivenessTimeoutError` after ``timeout`` wall ms,
        mirroring the simulator's contract.
        """
        if predicate():
            return self.now
        self._drive(self._poll(predicate, self.now + timeout, description))
        return self.now

    def _drive(self, coro) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self._with_startup(coro))

    async def _with_startup(self, coro):
        for hook in self._start_hooks:
            await hook()
        return await coro

    async def _sleep_until(self, until: float) -> None:
        delay = (until - self.now) / 1000.0
        if delay > 0:
            await asyncio.sleep(delay)

    async def _poll(self, predicate: Callable[[], bool], deadline: float,
                    description: str) -> None:
        interval = self.poll_interval_ms / 1000.0
        while True:
            if predicate():
                return
            if self.now >= deadline:
                raise LivenessTimeoutError(
                    f"{description} did not hold within the wall-clock "
                    f"timeout (now={self.now:.1f}ms)")
            await asyncio.sleep(interval)

    def close(self) -> None:
        if not self.loop.is_closed():
            self.loop.close()


@dataclass
class TransportStats:
    """Real-transport counters (in addition to the model-level NetworkStats)."""

    frames_sent: int = 0
    frames_delivered: int = 0
    bytes_on_wire: int = 0
    serialize_ms: float = 0.0
    deserialize_ms: float = 0.0

    def snapshot(self) -> dict:
        return {"frames_sent": self.frames_sent,
                "frames_delivered": self.frames_delivered,
                "bytes_on_wire": self.bytes_on_wire,
                "serialize_ms": round(self.serialize_ms, 3),
                "deserialize_ms": round(self.deserialize_ms, 3)}


class RealTimeNetwork:
    """Message transport over real localhost TCP sockets.

    API-compatible with :class:`repro.net.network.Network`: registration,
    topology enforcement, taps, stats, ``send``/``broadcast``.  Each
    registered node owns one TCP server; each (source, destination) pair
    that ever sends gets one outbound connection fed by a FIFO queue, so
    link ordering matches TCP's.  ``send`` is synchronous (protocol code
    is synchronous): it enqueues the encoded frame and returns; pump tasks
    move frames onto sockets, and per-node server handlers decode, run the
    optional crypto-pool pre-verification, and call ``deliver`` -- all on
    the scheduler's event loop.
    """

    def __init__(self, scheduler: RealTimeScheduler,
                 topology: Optional[Topology] = None,
                 enforce_topology: bool = True,
                 pool: Optional[CryptoPool] = None,
                 keystore: Optional[Keystore] = None,
                 config: Optional[SystemConfig] = None) -> None:
        self.scheduler = scheduler
        self.topology = topology or Topology.full()
        self.enforce_topology = enforce_topology
        self.stats = NetworkStats()
        self.transport = TransportStats()
        self.pool = pool
        self.keystore = keystore
        self.config = config
        self._charge_scale = config.runtime.charge_scale if config else 0.0
        self._processes: Dict[NodeId, Process] = {}
        self._taps: List[MessageTap] = []
        self._servers: Dict[NodeId, asyncio.base_events.Server] = {}
        self._ports: Dict[NodeId, int] = {}
        self._links: Dict[Tuple[NodeId, NodeId], asyncio.Queue] = {}
        self._pumped: Set[Tuple[NodeId, NodeId]] = set()
        self._tasks: Set[asyncio.Task] = set()
        self._writers: List[asyncio.StreamWriter] = []
        self._closed = False
        scheduler.add_start_hook(self._start)

    # ------------------------------------------------------------------ #
    # Registration (same contract as the simulated Network).
    # ------------------------------------------------------------------ #

    def register(self, process: Process) -> None:
        if process.node_id in self._processes:
            raise NetworkError(f"node {process.node_id} registered twice")
        self._processes[process.node_id] = process
        process.attach_network(self)
        self.topology.add_node(process.node_id)
        if self._charge_scale > 0:
            scale = self._charge_scale
            process._burn = lambda ms: spin(ms * scale)

    def process(self, node_id: NodeId) -> Process:
        try:
            return self._processes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    @property
    def node_ids(self) -> List[NodeId]:
        return sorted(self._processes)

    def add_tap(self, tap: MessageTap) -> None:
        self._taps.append(tap)

    def remove_tap(self, tap: MessageTap) -> None:
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Sending.
    # ------------------------------------------------------------------ #

    def send(self, source: NodeId, destination: NodeId, message: Message) -> None:
        if self.enforce_topology:
            self.topology.check(source, destination)
        for tap in list(self._taps):
            replacement = tap(source, destination, message)
            if replacement is DROP:
                self.stats.drops_by_tap += 1
                return
            if replacement is not None:
                message = replacement
        self.stats.record_send(message)
        if destination not in self._processes:
            return
        started = time.perf_counter()
        frame = pickle.dumps((source, message), protocol=pickle.HIGHEST_PROTOCOL)
        self.transport.serialize_ms += (time.perf_counter() - started) * 1000.0
        self.transport.frames_sent += 1
        self.transport.bytes_on_wire += len(frame) + _HEADER
        link = (source, destination)
        queue = self._links.get(link)
        if queue is None:
            queue = self._links[link] = asyncio.Queue()
        queue.put_nowait(frame)
        # A link first used mid-run gets its pump immediately; links used
        # before the first drive are pumped by the startup hook.
        if link not in self._pumped and self.scheduler.loop.is_running():
            self._spawn_pump(link)

    def broadcast(self, source: NodeId, destinations: List[NodeId],
                  message: Message) -> None:
        for destination in destinations:
            if destination != source:
                self.send(source, destination, message)

    # ------------------------------------------------------------------ #
    # Startup / transport tasks (run inside the event loop).
    # ------------------------------------------------------------------ #

    async def _start(self) -> None:
        """Idempotent per-drive startup: servers for every registered node,
        pumps for every link that already has traffic queued."""
        for node_id in list(self._processes):
            if node_id not in self._servers:
                await self._start_server(node_id)
        for link in list(self._links):
            if link not in self._pumped:
                self._spawn_pump(link)

    async def _start_server(self, node_id: NodeId) -> None:
        # A plain callback, not a coroutine: the handler task is created
        # and registered here, at accept time, so ``aclose`` can cancel it
        # even if it has not run yet.
        server = await asyncio.start_server(
            lambda reader, writer, node_id=node_id: self._spawn(
                self._serve(node_id, reader, writer), f"serve:{node_id}"),
            "127.0.0.1", 0)
        self._servers[node_id] = server
        self._ports[node_id] = server.sockets[0].getsockname()[1]

    def _spawn(self, coro, name: str) -> None:
        task = self.scheduler.loop.create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _spawn_pump(self, link: Tuple[NodeId, NodeId]) -> None:
        self._pumped.add(link)
        self._spawn(self._pump(link), f"pump:{link[0]}->{link[1]}")

    async def _pump(self, link: Tuple[NodeId, NodeId]) -> None:
        """Move frames from one link's queue onto its TCP connection."""
        _, destination = link
        queue = self._links[link]
        _, writer = await asyncio.open_connection(
            "127.0.0.1", self._ports[destination])
        self._writers.append(writer)
        while True:
            frame = await queue.get()
            writer.write(len(frame).to_bytes(_HEADER, "big") + frame)
            await writer.drain()

    async def _serve(self, node_id: NodeId, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Per-inbound-connection reader: decode, pre-verify, deliver.

        Frames on one connection are dispatched strictly in order (the
        pool pre-verification is awaited before the next read), so the
        per-link FIFO the sender's TCP stream provides survives dispatch.
        """
        self._writers.append(writer)
        try:
            while True:
                header = await reader.readexactly(_HEADER)
                frame = await reader.readexactly(int.from_bytes(header, "big"))
                started = time.perf_counter()
                sender, message = pickle.loads(frame)
                self.transport.deserialize_ms += (
                    time.perf_counter() - started) * 1000.0
                await self._dispatch(node_id, sender, message)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return

    async def _dispatch(self, node_id: NodeId, sender: NodeId,
                        message: Message) -> None:
        target = self._processes.get(node_id)
        if target is None:
            return
        await self._preverify(target, message)
        self.transport.frames_delivered += 1
        self.stats.deliveries += 1
        self.scheduler.note_dispatch()
        target.deliver(sender, message, message.wire_size())

    async def _preverify(self, target: Process, message: Message) -> None:
        """Warm the destination's verification cache from the crypto pool.

        Only facts that verified are recorded (the cache's success-only
        contract); anything else is left for the node's inline checks.
        Facts already cached are skipped, so nothing is ever paid twice.
        """
        pool, keystore = self.pool, self.keystore
        if pool is None or not pool.enabled or keystore is None:
            return
        crypto = getattr(target, "crypto", None)
        if crypto is None or crypto.cache is None:
            return
        jobs, keys = extract_verify_jobs(
            target.node_id, keystore, crypto.costs, message,
            charge_scale=self._charge_scale)
        fresh = [(job, key) for job, key in zip(jobs, keys)
                 if not crypto.cache.seen(key)]
        if not fresh:
            return
        results = await pool.run(self.scheduler.loop,
                                 [job for job, _ in fresh])
        for (_, key), ok in zip(fresh, results):
            if ok:
                crypto.cache.add(key)

    # ------------------------------------------------------------------ #
    # Teardown.
    # ------------------------------------------------------------------ #

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Stop accepting first.  An accept already in flight needs no more
        # I/O to hand its connection to ``_spawn``; the loop is private to
        # this runtime, so any task that is not ours is such an accept, and
        # waiting for it means the cancellation below misses no handler.
        # A pump still connecting is refused from here on: it stays in
        # ``tasks`` so that its error is collected, not logged.
        for server in self._servers.values():
            server.close()
        tasks = set(self._tasks)
        accepting = asyncio.all_tasks() - tasks - {asyncio.current_task()}
        if accepting:
            await asyncio.wait(accepting)
        tasks |= self._tasks
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for writer in self._writers:
            writer.close()
        for server in self._servers.values():
            await server.wait_closed()


class AsyncioRuntime(Runtime):
    """The asyncio backend: real scheduler + real network + crypto pool."""

    backend = "asyncio"

    def __init__(self, config: SystemConfig, seed: int,
                 keystore: Optional[Keystore] = None) -> None:
        self.config = config
        self.scheduler = RealTimeScheduler(
            seed, poll_interval_ms=config.runtime.poll_interval_ms)
        self.pool = CryptoPool(config.runtime.crypto_pool)
        self.network = RealTimeNetwork(
            self.scheduler, topology=Topology.full(),
            pool=self.pool, keystore=keystore, config=config)
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        loop = self.scheduler.loop
        if not loop.is_closed():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.network.aclose())
        self.pool.close()
        self.scheduler.close()
