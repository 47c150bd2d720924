"""The real runtime: asyncio callbacks, localhost TCP, wall-clock timers.

This backend runs the *same* protocol objects the simulator runs -- nodes,
message queues, certificates, caches, all untouched -- but replaces the
three simulated substrates with real ones:

* **time**: :class:`RealTimeScheduler` reads the event loop's monotonic
  clock (milliseconds since construction) and arms timers with
  ``loop.call_later``;
* **transport**: :class:`RealTimeNetwork` gives every registered node an
  asyncio TCP server on ``127.0.0.1`` and ships each message as a
  length-prefixed frame of the wire codec (:mod:`repro.net.codec`: the
  sender's code, the message's class tag, its fields) over a per-link
  connection.  Both ends are protocol callbacks, so there is one hop from
  the wire to the handler: ``send`` writes the frame to the link's
  transport, and the receiving connection -- an ``asyncio.BufferedProtocol``
  whose reads all land in one preallocated buffer, see :class:`_Inbound` --
  cuts what arrived into frames, decodes each and calls the node's
  ``deliver`` before ``buffer_updated`` returns: no task switch, no queue
  and no per-read allocation in between.  A multicast is encoded once, not
  once per destination; the frames the primary cuts a reply certificate
  into for each backup share the certificate's payload bytes.  A message
  nested in a received frame keeps the bytes it arrived in, so the receiver
  digests, checks and forwards it without encoding it again; the frame
  itself is not kept.  **Every byte count of this backend is in frame
  bytes**: ``send`` counts the length of the frame it made (so
  ``NetworkStats.bytes_sent`` equals ``TransportStats.bytes_on_wire``), and
  the size a node is told it received is the frame's length too
  (``ProcessStats.bytes_received``); no message is sized just to be
  measured.  On the simulator the same counters are ``wire_size()`` (the
  codec encoding plus modelled body bytes), which is what its bandwidth
  model runs on;
* **cost**: virtual-time charges optionally burn real CPU
  (``RuntimeConfig.charge_scale``) on the event-loop thread.  A certificate
  is checked in one place, the receiving node's handler, through its
  ``CryptoProvider``, exactly as on the simulator.

Invariants preserved relative to the simulator (the contracts the
boundary-module docstrings in ``sim/`` and ``net/`` state):

* per-node handler atomicity -- the loop is single-threaded and handlers
  are synchronous, so a node never observes two handlers interleaved;
* per-link FIFO -- one TCP connection per (source, destination) ordered
  pair whose frames are dispatched in the order they are cut from the
  stream;
* timer semantics -- ``call_at``/``call_after`` handles expose
  ``deadline`` / ``active`` / ``cancel()``, and a cancelled timer never
  fires;
* at-most-once delivery, crashed nodes drop everything, taps observe
  (and may replace or drop) every send before transmission;
* a handler's exception reaches the driver -- the first one raised by a
  message handler or a timer callback is re-raised from ``run`` /
  ``run_until`` (the simulator's ``step`` simply propagates it).

Deliberately **not** preserved: determinism (real scheduling and real
sockets race; the simulator remains the substrate for tests and fuzzing)
and the network fault model (``NetworkConfig`` delays/drops are simulation
devices; here latency is the real localhost stack).

Transport trust.  The Byzantine threat model is enforced where it always
was, by certificate verification at the protocol layer; what the transport
guarantees is narrower and holds for any bytes a peer writes:

* decoding builds nothing but values of the codec's registered types --
  no class, function or object the frame names by itself -- and accepts a
  frame only if it decodes completely, canonically (it re-encodes to the
  bytes received) and to a registered ``Message`` (see the codec's
  docstring for what is checked);
* a connection carries one sender: links are one per (source,
  destination), so the first frame binds the connection to the sender it
  names, and a later frame naming another is a forgery.  As on the
  simulator, where ``sender`` is always the true source, one stream cannot
  speak for several nodes (``Checkpoints.on_share``, for one, compares
  ``sender`` with ``share.replica``).  Loopback connections are not
  authenticated, so the first frame's sender is taken as named; that
  authenticity still comes from the certificates;
* bytes it cannot read cost one connection, not the node: a length prefix
  above ``MAX_FRAME_BYTES``, a body the codec refuses or a second sender is
  counted (``TransportStats.frames_rejected``) and that connection closed.

The backlog of a link whose receiver is slow is still unbounded (it sits in
the transport's write buffer).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import (Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple,
                    Union)

from ..config import SystemConfig
from ..errors import (DecodeError, LivenessTimeoutError, NetworkError,
                      SimulationError)
from ..net.codec import default_codec
from ..net.message import Message
from ..net.network import DROP, MessageTap, NetworkStats
from ..net.topology import Topology
from ..obs import DISABLED_HUB, ObservabilityHub
from ..sim.process import Process
from ..sim.rand import DeterministicRandom
from ..util.ids import NodeId
from .interface import Runtime

_HEADER = 4  # frame length prefix, big-endian
#: how often (wall milliseconds) ``run_until`` re-checks its predicate
#: while the event loop runs
POLL_INTERVAL_MS = 0.5
#: a longer frame is a corrupt or hostile stream, not a message: the largest
#: real ones (state transfers, range handoffs) are a few hundred kilobytes
MAX_FRAME_BYTES = 1 << 24
#: every read of every connection of the process lands here (see
#: :class:`_Inbound`): what a plain ``asyncio.Protocol`` is handed instead is
#: a ``bytes`` of this size allocated, and shrunk, per read
READ_BUFFER_BYTES = 1 << 18
_READ_BUFFER = bytearray(READ_BUFFER_BYTES)
_READ_VIEW = memoryview(_READ_BUFFER)


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

    def __init__(self, seed: int = 0) -> None:
        self.loop = asyncio.new_event_loop()
        self.random = DeterministicRandom(seed)
        self.obs: ObservabilityHub = DISABLED_HUB
        self._origin = self.loop.time()
        self._events_processed = 0
        #: the first exception a message handler or timer callback raised,
        #: until a drive (or ``close``) re-raises it
        self._failure: Optional[BaseException] = None
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

    def record_failure(self, exc: BaseException) -> None:
        """Keep the first exception a handler or timer callback raised.

        The simulator's ``step`` lets such an exception propagate to whoever
        drives it; a loop callback has no caller to propagate to (asyncio
        would log it and carry on, and BFT would mask the silent node), so
        it is kept here and re-raised from ``run`` / ``run_until``.
        """
        if self._failure is None:
            self._failure = exc

    def raise_failure(self) -> None:
        """Raise (once) what :meth:`record_failure` kept, if anything."""
        failure, self._failure = self._failure, None
        if failure is not None:
            raise failure

    def call_at(self, when: float, callback: Callable[[], None],
                label: str = "") -> RealTimer:
        """Arm ``callback`` for absolute time ``when`` (clamped to now).

        Unlike the simulator this never raises for a past deadline: real
        clocks drift between computing a deadline and arming it, so a
        late timer simply fires as soon as the loop gets to it.  A NaN
        deadline is refused, as on the simulator.
        """
        if when != when:
            raise SimulationError("timer deadline must be a number, got NaN")
        timer = RealTimer(max(when, self.now))
        delay = max(0.0, (when - self.now) / 1000.0)

        def _fire() -> None:
            if timer._cancelled:
                return
            timer._fired = True
            self._events_processed += 1
            try:
                callback()
            except Exception as exc:
                self.record_failure(exc)

        timer._handle = self.loop.call_later(delay, _fire)
        return timer

    def post(self, when: float, label: str, callback: Callable[..., None],
             *args) -> None:
        """``callback(*args)`` at ``when``, with no handle."""
        self.call_at(when, lambda: callback(*args), label)

    def call_after(self, delay: float, callback: Callable[[], None],
                   label: str = "") -> RealTimer:
        if not delay >= 0:   # NaN too
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
        self.raise_failure()

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
        interval = POLL_INTERVAL_MS / 1000.0
        while True:
            if self._failure is not None or predicate():
                return
            if self.now >= deadline:
                raise LivenessTimeoutError(
                    f"{description} did not hold within the wall-clock "
                    f"timeout (now={self.now:.1f}ms)")
            await asyncio.sleep(interval)

    def close(self) -> None:
        """Close the loop; a failure nobody drove the loop to see is raised
        here rather than lost."""
        if not self.loop.is_closed():
            self.loop.close()
        self.raise_failure()


@dataclass
class TransportStats:
    """Real-transport counters, beside the ``NetworkStats`` both backends keep."""

    frames_sent: int = 0
    frames_delivered: int = 0
    #: frames a node could not read (over-long prefix, body the codec
    #: refuses, a sender other than the connection's first) or a sender
    #: refused to write (longer than ``MAX_FRAME_BYTES``); each is dropped,
    #: never raised
    frames_rejected: int = 0
    bytes_on_wire: int = 0
    serialize_ms: float = 0.0
    deserialize_ms: float = 0.0

    def snapshot(self) -> dict:
        return {"frames_sent": self.frames_sent,
                "frames_delivered": self.frames_delivered,
                "frames_rejected": self.frames_rejected,
                "bytes_on_wire": self.bytes_on_wire,
                "serialize_ms": round(self.serialize_ms, 3),
                "deserialize_ms": round(self.deserialize_ms, 3)}


class _Outbound(asyncio.Protocol):
    """Sending end of one (source, destination) link.

    Frames written while the connection is still being made wait in
    ``backlog`` and go out, in order, from ``connection_made``.  Nothing is
    ever read on this end.
    """

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.backlog: List[bytes] = []

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        if self.backlog:
            transport.write(b"".join(self.backlog))
            self.backlog.clear()

    def write(self, frame: bytes) -> None:
        if self.transport is None:
            self.backlog.append(frame)
        else:
            self.transport.write(frame)


class _Inbound(asyncio.BufferedProtocol):
    """Receiving end of one connection accepted by ``process``'s server:
    splits the byte stream into frames and hands each to the network.

    Reads land in the process-wide ``_READ_BUFFER``.  That is safe because
    the loop calls ``get_buffer``, ``recv_into`` and ``buffer_updated`` back
    to back on its one thread, and ``buffer_updated`` has consumed what
    arrived before it returns: every whole frame is decoded (each field,
    and each nested message's bytes, copied out of the buffer) and
    dispatched, so nothing reads the buffer after the callback.  What a read leaves unfinished is the connection's
    own: a frame whose length is known moves to ``_body``, a ``bytearray`` of
    that length which later reads fill in place (of a long frame only what
    the first read held is ever copied); a length prefix cut short waits in
    ``_carry`` and is put back in front of the next read.
    """

    def __init__(self, network: "RealTimeNetwork", process: Process) -> None:
        self.network = network
        self.process = process
        self.transport: Optional[asyncio.Transport] = None
        self._carry = b""
        self._body: Optional[bytearray] = None
        self._filled = 0
        #: the sender the first frame named: one link carries one source
        self.sender: Optional[NodeId] = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.network._inbound.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.network._inbound.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._body is not None:
            return memoryview(self._body)[self._filled:]
        carried = len(self._carry)
        if not carried:
            return _READ_VIEW
        _READ_BUFFER[:carried] = self._carry
        return _READ_VIEW[carried:]

    def buffer_updated(self, nbytes: int) -> None:
        if self._body is not None:
            self._filled += nbytes
            if self._filled == len(self._body):
                body, self._body = self._body, None
                if not self.network._receive(self, body):
                    self._reject()
            return
        data, position, end = _READ_VIEW, 0, len(self._carry) + nbytes
        while end - position >= _HEADER:
            body = position + _HEADER
            size = int.from_bytes(data[position:body], "big")
            if size > MAX_FRAME_BYTES:
                return self._reject()
            if end - body < size:
                # The rest is still to come: later reads go straight into
                # the frame's own buffer (see ``get_buffer``).
                self._carry = b""
                self._body = bytearray(size)
                self._filled = end - body
                self._body[:self._filled] = data[body:end]
                return
            position = body + size
            if not self.network._receive(self, data[body:position]):
                return self._reject()
        self._carry = bytes(data[position:end]) if position < end else b""

    def _reject(self) -> None:
        """Not a stream one of our links wrote: count it and close this
        connection deliberately; the node's other links are unaffected."""
        self.network.transport.frames_rejected += 1
        self._carry, self._body = b"", None
        self.transport.close()


def _spin(milliseconds: float) -> None:
    """Burn ``milliseconds`` of real CPU (the runtime's cost emulation).

    A busy-wait on the monotonic clock rather than ``time.sleep``: the
    emulated operation *occupies* the event loop's core, as the real one
    would.
    """
    deadline = time.perf_counter() + milliseconds / 1000.0
    while time.perf_counter() < deadline:
        pass


class RealTimeNetwork:
    """Message transport over real localhost TCP sockets.

    API-compatible with :class:`repro.net.network.Network`: registration,
    topology enforcement, taps, stats, ``send``/``broadcast``.  Each
    registered node owns one TCP server; each (source, destination) pair
    that ever sends gets one outbound connection, so link ordering is
    TCP's.  ``send`` is synchronous (protocol code is synchronous): it
    makes the length-prefixed frame, counts its length, writes it to the
    link's transport and returns.  The receiving connection's
    ``buffer_updated`` splits what arrived into frames, and each frame is
    decoded and handed to the destination's ``deliver`` before the callback
    returns -- all on the scheduler's event loop, with no task or queue in
    between.
    """

    def __init__(self, scheduler: RealTimeScheduler,
                 topology: Optional[Topology] = None,
                 enforce_topology: bool = True,
                 config: Optional[SystemConfig] = None) -> None:
        self.scheduler = scheduler
        self.topology = topology or Topology.full()
        self.enforce_topology = enforce_topology
        self.stats = NetworkStats()
        self.transport = TransportStats()
        self.config = config
        self.codec = default_codec()
        self._charge_scale = config.runtime.charge_scale if config else 0.0
        self._processes: Dict[NodeId, Process] = {}
        self._taps: List[MessageTap] = []
        self._servers: Dict[NodeId, asyncio.base_events.Server] = {}
        self._ports: Dict[NodeId, int] = {}
        self._links: Dict[Tuple[NodeId, NodeId], _Outbound] = {}
        #: links opened before their destination's server had a port
        self._unconnected: List[Tuple[_Outbound, NodeId]] = []
        self._inbound: Set[_Inbound] = set()
        self._tasks: Set[asyncio.Task] = set()
        #: the last frame encoded: (source, message, dispatch stamp, bytes).
        #: A multicast sends one message object to every destination within
        #: one dispatch, so it is encoded once; see :meth:`_frame`.
        self._last_frame: Tuple[Any, Any, int, bytes] = (None, None, -1, b"")
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
            process._burn = lambda ms: _spin(ms * scale)

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
        frame = self._frame(source, message)
        self.stats.record_send(message, len(frame))
        # Once teardown has begun nothing new is written or connected.
        if destination not in self._processes or self._closed:
            return
        if len(frame) > MAX_FRAME_BYTES + _HEADER:
            # The receiver would close the link on it; lose the one message.
            self.transport.frames_rejected += 1
            return
        self.transport.frames_sent += 1
        self.transport.bytes_on_wire += len(frame)
        link = self._links.get((source, destination))
        if link is None:
            link = self._links[source, destination] = _Outbound()
            if destination in self._ports:
                self._connect(link, destination)
            else:
                self._unconnected.append((link, destination))
        link.write(frame)

    def _frame(self, source: NodeId, message: Message) -> bytes:
        """The length-prefixed codec frame of ``message`` from ``source``.

        Remembers the last one by object identity, for the length of one
        dispatch (the stamp, as in ``AgreementReplica._prune_answered``):
        the sends of a multicast follow each other inside one outbox flush
        with no protocol code between them.  A tap that substitutes a
        message for one destination returns another object, which gets a
        frame of its own.
        """
        stamp = self.scheduler.events_processed
        last_source, last_message, last_stamp, frame = self._last_frame
        if (last_message is message and last_source is source
                and last_stamp == stamp):
            return frame
        started = time.perf_counter()
        body = self.codec.encode_frame(source, message)
        self.transport.serialize_ms += (time.perf_counter() - started) * 1000.0
        frame = len(body).to_bytes(_HEADER, "big") + body
        self._last_frame = (source, message, stamp, frame)
        return frame

    def broadcast(self, source: NodeId, destinations: List[NodeId],
                  message: Message) -> None:
        for destination in destinations:
            if destination != source:
                self.send(source, destination, message)

    # ------------------------------------------------------------------ #
    # Startup and connections (inside the event loop).
    # ------------------------------------------------------------------ #

    async def _start(self) -> None:
        """Idempotent per-drive startup: a server for every registered node,
        a connection for every link that was written to before it."""
        loop = self.scheduler.loop
        for node_id, process in list(self._processes.items()):
            if node_id not in self._servers:
                server = await loop.create_server(
                    lambda process=process: _Inbound(self, process),
                    "127.0.0.1", 0)
                self._servers[node_id] = server
                self._ports[node_id] = server.sockets[0].getsockname()[1]
        unconnected, self._unconnected = self._unconnected, []
        for link, destination in unconnected:
            self._connect(link, destination)

    def _connect(self, link: _Outbound, destination: NodeId) -> None:
        async def connect() -> None:
            try:
                await self.scheduler.loop.create_connection(
                    lambda: link, "127.0.0.1", self._ports[destination])
            except OSError as exc:
                # Refused by a server that teardown has closed: the link's
                # frames are lost like any sent to a node that is gone.
                # At any other time the run has failed.
                if not self._closed:
                    self.scheduler.record_failure(exc)

        task = self.scheduler.loop.create_task(
            connect(), name=f"connect:{destination}")
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ------------------------------------------------------------------ #
    # Receiving.
    # ------------------------------------------------------------------ #

    def _receive(self, connection: _Inbound,
                 body: Union[memoryview, bytearray]) -> bool:
        """Decode one frame and pass it on; ``False`` if it cannot be read
        or names another sender than the connection's first frame did."""
        started = time.perf_counter()
        try:
            sender, message = self.codec.decode_frame(body)
        except DecodeError:
            return False
        self.transport.deserialize_ms += (time.perf_counter() - started) * 1000.0
        bound = connection.sender
        if bound is None:
            connection.sender = sender
        elif sender is not bound and sender != bound:
            return False
        self._dispatch(connection.process, sender, message, _HEADER + len(body))
        return True

    def _dispatch(self, target: Process, sender: NodeId, message: Message,
                  size: int) -> None:
        """Hand one received message to its node.  ``size`` is what the
        frame took on the wire: the receiver does not encode the message
        just to measure it."""
        self.transport.frames_delivered += 1
        self.stats.deliveries += 1
        self.scheduler.note_dispatch()
        try:
            target.deliver(sender, message, size)
        except Exception as exc:
            self.scheduler.record_failure(exc)

    # ------------------------------------------------------------------ #
    # Teardown.
    # ------------------------------------------------------------------ #

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Stop accepting first.  An accept already in flight needs no more
        # I/O to reach ``connection_made``, and a connect in flight is made
        # or refused at once; the loop is private to this runtime, so every
        # other task on it is one of those.  Awaiting them all leaves no
        # task pending and no exception unretrieved when the loop closes.
        for server in self._servers.values():
            server.close()
        others = asyncio.all_tasks() - {asyncio.current_task()}
        await asyncio.gather(*others, return_exceptions=True)
        # abort, not close: what is still buffered has nowhere to go
        for link in self._links.values():
            if link.transport is not None:
                link.transport.abort()
        for connection in list(self._inbound):
            connection.transport.abort()
        for server in self._servers.values():
            await server.wait_closed()
        await asyncio.sleep(0)  # let the aborted transports close their sockets


class AsyncioRuntime(Runtime):
    """The asyncio backend: real scheduler + real network."""

    backend = "asyncio"

    def __init__(self, config: SystemConfig, seed: int) -> None:
        self.config = config
        self.scheduler = RealTimeScheduler(seed)
        self.network = RealTimeNetwork(
            self.scheduler, topology=Topology.full(), config=config)
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        loop = self.scheduler.loop
        if not loop.is_closed():
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.network.aclose())
        self.scheduler.close()
