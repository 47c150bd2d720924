"""Node/process abstraction with serialized processing and cost accounting.

Each protocol participant (client, agreement replica, execution replica,
firewall filter, baseline server) is a :class:`Process`.  A process handles
one message or timer at a time: a delivery or timer that arrives while the
node is busy is parked in the node's FIFO *inbox* and handled when the node
frees up.  While handling a message the process *charges* virtual processing
time -- cryptographic operations, application execution, per-message
overhead -- and the sum of those charges determines when the node becomes
free again and when its outgoing messages actually hit the network.

The inbox
---------
Handlers run in the order work arrived at the node.  Work that finds the
node idle runs at once.  Work that finds it busy -- inside a handler, before
``busy_until``, or with earlier work still parked -- is appended to the
inbox.  A busy period that leaves anything to do ends in *one* event at
``busy_until``, the wake: it flushes what the period's handler sent and runs
exactly one parked item (one handler per scheduler event, so
``events_processed`` changes between any two handlers), whose end arms the
next wake at the new ``busy_until``.  The wake is armed by the handler's end
if there is an outbox or an inbox by then, else by the first item parked.
So ``k`` items parked behind one handler cost ``k`` events, flushes
included.  They used to cost ``k(k+1)/2`` beside the flushes: every parked
item was an event of its own that fired at ``busy_until``, found the node
busy with its predecessor and scheduled itself again.  Those events fired in
arrival order too, after the outbox flush of the handler they waited for, so
the order of handlers is the same with one exception: work whose event fell
on the exact floating-point instant a busy period ended could run before, or
between, the items parked during that period, depending on when its event
had been put on the queue; it now queues behind them like any other later
arrival.

This per-node serialization is what makes the throughput experiments
(Figure 5) meaningful: an execution node that spends 15 ms producing a
threshold signature for every reply saturates at ~66 requests/second, exactly
the effect the paper reports.

Runtime-backend contract
------------------------
``Process`` is runtime-agnostic: it talks to *a* scheduler and *a* network
(see :mod:`repro.runtime.interface`).  Any backend hosting processes must
preserve these invariants, which protocol code relies on:

* **Handler atomicity.**  ``on_message`` / timer callbacks never interleave
  on one node: a handler runs to completion before the next delivery or
  timer fire is processed.  Every backend gets this from the inbox (work
  that arrives inside a handler is parked) on a single thread of control:
  the simulator's event queue, or the asyncio backend's loop.
* **Send-after-handler.**  Messages sent inside a handler enter the network
  when the handler's charged work completes (the outbox flush), never
  mid-handler -- so a node's outbound messages reflect its post-handler
  state.
* **Charges are exclusive occupancy.**  ``charge(ms)`` models work that
  occupies the node: under the simulator it extends ``busy_until`` (later
  deliveries wait in the inbox); under a real backend it may burn CPU
  instead (the ``_burn`` hook).  Either way, a verification that hits the
  certificate cache charges nothing.
* **Crash semantics.**  A crashed node silently drops deliveries, timer
  fires, and sends, and its inbox is dropped by the wake that finds it
  crashed; ``recover()`` only clears the flag.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Sequence, Tuple)

from ..errors import SimulationError
from ..util.ids import NodeId
from .scheduler import Scheduler, Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..net.network import Network
    from ..net.message import Message


@dataclass
class ProcessStats:
    """Per-node counters collected during a simulation run."""

    messages_received: int = 0
    messages_sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    busy_ms: float = 0.0
    handler_invocations: int = 0
    timer_fires: int = 0
    crypto_ops: Dict[str, int] = field(default_factory=dict)

    def record_crypto(self, op: str, count: int = 1) -> None:
        self.crypto_ops[op] = self.crypto_ops.get(op, 0) + count

    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of virtual time this node spent processing."""
        if elapsed_ms <= 0:
            return 0.0
        return min(1.0, self.busy_ms / elapsed_ms)


class Process:
    """Base class for all simulated nodes.

    Subclasses implement :meth:`on_message` and may use :meth:`send`,
    :meth:`multicast`, :meth:`set_timer`, and :meth:`charge`.
    """

    def __init__(self, node_id: NodeId, scheduler: Scheduler) -> None:
        self.node_id = node_id
        self.scheduler = scheduler
        self.network: Optional["Network"] = None
        self.stats = ProcessStats()
        #: per-node instruments from the scheduler's observability hub (a
        #: shared no-op registry when observability is disabled) plus the
        #: system-wide tracer; ``self.tracing`` is cached so hot paths can
        #: skip trace-id construction with one attribute test.
        self.obs = scheduler.obs
        self.metrics = self.obs.registry_for(node_id.name)
        self.tracing = self.obs.tracer.enabled
        self.crashed = False
        #: real-runtime cost hook: when set (by a real backend's network at
        #: registration), ``charge`` burns CPU through it instead of doing
        #: virtual-time accounting.  ``None`` under the simulator.
        self._burn: Optional[Callable[[float], None]] = None
        self._busy_until = 0.0
        self._in_handler = False
        self._pending_cost = 0.0
        self._outbox: List[Tuple[NodeId, "Message"]] = []
        #: deliveries (argument tuples) and timer callbacks that arrived
        #: while the node was busy, oldest first; see the module docstring
        self._inbox: Deque = deque()
        self._wake_armed = False
        self._wake_label = f"{node_id}:wake"
        self._flush_label = f"{node_id}:flush"

    # ------------------------------------------------------------------ #
    # Wiring.
    # ------------------------------------------------------------------ #

    def attach_network(self, network: "Network") -> None:
        """Connect this process to the simulated network (done by the builder)."""
        self.network = network

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.scheduler.now

    @property
    def busy_until(self) -> float:
        """Virtual time at which this node finishes its current work."""
        return self._busy_until

    # ------------------------------------------------------------------ #
    # Message handling entry points (called by the network).
    # ------------------------------------------------------------------ #

    def deliver(self, sender: NodeId, message: "Message", size: int) -> None:
        """Called by the network when a message arrives at this node.

        If the node is busy, or earlier work is still parked, the delivery
        waits in the inbox; otherwise the handler runs immediately.  Crashed
        nodes drop everything silently.
        """
        if self.crashed:
            return
        if (self._wake_armed or self._in_handler
                or self._busy_until > self.now + 1e-12):
            self._park((sender, message, size))
            return
        self.stats.messages_received += 1
        self.stats.bytes_received += size
        self._run_handler(lambda: self.on_message(sender, message))

    def fire_timer(self, callback: Callable[[], None]) -> None:
        """Run a timer callback under the same busy/cost accounting as messages."""
        if self.crashed:
            return
        if (self._wake_armed or self._in_handler
                or self._busy_until > self.now + 1e-12):
            self._park(callback)
            return
        self.stats.timer_fires += 1
        self._run_handler(callback)

    def _park(self, item) -> None:
        """Queue a delivery (an argument tuple) or a timer callback."""
        self._inbox.append(item)
        # Inside a handler ``busy_until`` is not known yet: its end arms.
        if not self._wake_armed and not self._in_handler:
            self._arm_wake()

    def _arm_wake(self, outbox: Sequence[Tuple[NodeId, "Message"]] = ()) -> None:
        """Schedule the one event that ends the current busy period: it
        flushes ``outbox`` (what the period's handler sent) and takes up the
        inbox."""
        self._wake_armed = True
        self.scheduler.call_at(
            max(self._busy_until, self.now),
            (lambda: self._wake(outbox)) if outbox else self._wake,
            label=self._flush_label if outbox else self._wake_label)

    def _wake(self, outbox: Sequence[Tuple[NodeId, "Message"]] = ()) -> None:
        """The busy period has ended: send what its handler left in the
        outbox, then run the oldest parked item.

        The item re-enters through :meth:`deliver` / :meth:`fire_timer`,
        which count it and -- through :meth:`_run_handler` -- arm the wake
        for whatever is still parked.
        """
        self._wake_armed = False
        self._flush(outbox)
        if self.crashed:
            self._inbox.clear()
            return
        if not self._inbox:
            return
        if self._busy_until > self.now + 1e-12:
            # A charge outside a handler extended the busy period, or a
            # wall-clock timer fired a hair early.
            self._arm_wake()
            return
        item = self._inbox.popleft()
        if type(item) is tuple:
            self.deliver(*item)
        else:
            self.fire_timer(item)

    def _run_handler(self, handler: Callable[[], None]) -> None:
        """Run ``handler`` with cost accounting and deferred sends."""
        if self._in_handler:
            raise SimulationError(f"{self.node_id} re-entered its handler")
        self._in_handler = True
        self._pending_cost = 0.0
        self._outbox = []
        try:
            handler()
        finally:
            self._in_handler = False
        completion = self.now + self._pending_cost
        self._busy_until = completion
        self.stats.busy_ms += self._pending_cost
        self.stats.handler_invocations += 1
        outbox, self._outbox = self._outbox, []
        if outbox and completion <= self.now + 1e-12:
            self._flush(outbox)
            outbox = ()
        # Nothing armed a wake while the handler ran (work that arrived
        # inside it was parked without one), so this is the period's only one.
        if outbox or self._inbox:
            self._arm_wake(outbox)

    def _flush(self, outbox: Sequence[Tuple[NodeId, "Message"]]) -> None:
        if self.crashed or self.network is None:
            return
        for destination, message in outbox:
            self.network.send(self.node_id, destination, message)
            self.stats.messages_sent += 1

    # ------------------------------------------------------------------ #
    # API for subclasses.
    # ------------------------------------------------------------------ #

    def on_message(self, sender: NodeId, message: "Message") -> None:
        """Handle an incoming message.  Subclasses override this."""
        raise NotImplementedError

    def charge(self, milliseconds: float) -> None:
        """Charge ``milliseconds`` of processing time to the current handler.

        Outside of a handler (e.g. during setup) the charge is recorded as
        busy time starting now.

        Under a real-time backend (``_burn`` set) the charge is burned as
        actual CPU immediately and only tallied in ``stats.busy_ms``: the
        wall clock, not virtual accounting, then determines when this node
        gets to its next message.
        """
        if milliseconds < 0:
            raise SimulationError("cannot charge negative processing time")
        if self._burn is not None:
            self._burn(milliseconds)
            self.stats.busy_ms += milliseconds
            return
        if self._in_handler:
            self._pending_cost += milliseconds
        else:
            self._busy_until = max(self._busy_until, self.now) + milliseconds
            self.stats.busy_ms += milliseconds

    def send(self, destination: NodeId, message: "Message") -> None:
        """Send ``message`` to ``destination`` when the current handler completes."""
        if self.crashed:
            return
        if self._in_handler:
            self._outbox.append((destination, message))
            return
        if self.network is None:
            raise SimulationError(f"{self.node_id} is not attached to a network")
        self.network.send(self.node_id, destination, message)
        self.stats.messages_sent += 1

    def multicast(self, destinations: List[NodeId], message: "Message") -> None:
        """Send ``message`` to every node in ``destinations`` (excluding self)."""
        for destination in destinations:
            if destination != self.node_id:
                self.send(destination, message)

    def set_timer(self, delay: float, callback: Callable[[], None],
                  label: str = "") -> Timer:
        """Schedule ``callback`` to run on this node after ``delay`` ms."""
        return self.scheduler.call_after(
            delay, lambda: self.fire_timer(callback),
            label=label or f"{self.node_id}:timer",
        )

    def trace_event(self, trace_id: str, event: str) -> None:
        """Record a span event for ``trace_id`` at this node, now.

        Pure observation -- no charge, no event, no RNG -- so calling it can
        never perturb the simulation.  Callers on hot paths should guard
        with ``if self.tracing`` to avoid building trace ids for nothing.
        """
        self.obs.tracer.record(trace_id, event, self.node_id.name, self.now)

    def crash(self) -> None:
        """Crash this node: it stops sending, receiving, and firing timers."""
        self.crashed = True

    def recover(self) -> None:
        """Clear the crash flag (state recovery is the subclass's business)."""
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.node_id}>"
