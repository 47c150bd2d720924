"""The simulated network.

The :class:`Network` connects :class:`~repro.sim.process.Process` instances
through a :class:`~repro.net.topology.Topology` and a
:class:`~repro.net.faults.NetworkFaultModel`.  A ``send`` consults the
topology (raising :class:`TopologyError` on forbidden links), sizes the
message once, asks the fault model what to do with the transmission, and
schedules zero or more delivery events on the destination process.

Runtime-backend contract
------------------------
This class is the network half of the
:class:`~repro.runtime.interface.Runtime` seam; the socket transport in
:mod:`repro.runtime.asyncio_rt` substitutes for it.  Invariants a
replacement must preserve, because protocol code assumes them:

* **No per-link order here.**  Over real sockets two messages sent
  ``a -> b`` arrive in send order (one ordered TCP stream per directed
  pair).  The simulator promises no order, not even on one fault-free
  link: :meth:`NetworkFaultModel.base_delay` draws each message's
  propagation delay afresh, so a later send can overtake an earlier one
  (``tests/test_sim.py::TestProcess::test_one_fault_free_link_does_not_keep_send_order``).
  Protocol code must not rely on per-link order on either backend.
* **At-most-once delivery.**  A ``send`` yields zero or one delivery --
  never duplicates.  Retransmission is the protocol's job.
* **Taps before transport.**  Registered taps see every send in
  registration order and may rewrite or swallow it (:data:`DROP`); a
  dropped message consumes no transport resources and is invisible to
  the destination.
* **Crash drops.**  Delivery to a crashed process is silently discarded
  at delivery time (not send time -- a node that crashes mid-flight
  still loses the message).
* **Counted once, in the backend's own bytes.**  Every send that passes
  the taps is counted by :meth:`NetworkStats.record_send` with the size
  the backend already has: the message's ``wire_size()`` here (the
  fault model's delays are computed from it), the frame's length over
  sockets.
* **Fault-model scope.**  Configured delays, drops, partitions, and
  reordering are a *simulator* feature: a real transport inherits the
  loss/latency behaviour of its substrate instead, and tests that shape
  faults must run on the simulator backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..sim.scheduler import Scheduler
from ..sim.process import Process
from ..util.ids import NodeId
from .faults import NetworkFaultModel, PerfectNetworkFaults
from .message import Message
from .topology import Topology


@dataclass
class NetworkStats:
    """Aggregate counters for a run, kept by either backend's network.

    Every byte count is in the bytes of the backend that keeps it: the
    ``wire_size()`` on the simulator, where it is computed anyway to
    drive the bandwidth model; the length of the codec frame on
    asyncio, where ``bytes_sent`` therefore equals
    ``TransportStats.bytes_on_wire`` and nothing is encoded to be measured.
    """

    sends: int = 0
    deliveries: int = 0
    bytes_sent: int = 0
    drops_by_topology: int = 0
    drops_by_tap: int = 0
    #: the census: sends and bytes per message type
    per_type: Dict[str, int] = field(default_factory=dict)
    bytes_per_type: Dict[str, int] = field(default_factory=dict)

    def record_send(self, message: Message, size: int) -> None:
        """Count one transmission of ``message`` (after the taps), ``size``
        bytes in the sending backend's own measure."""
        name = message.type_name()
        self.sends += 1
        self.bytes_sent += size
        self.per_type[name] = self.per_type.get(name, 0) + 1
        self.bytes_per_type[name] = self.bytes_per_type.get(name, 0) + size

    def census(self) -> Dict[str, Dict[str, int]]:
        """``{type: {"sends", "bytes"}}`` for the metrics snapshot."""
        return {name: {"sends": count, "bytes": self.bytes_per_type[name]}
                for name, count in sorted(self.per_type.items())}


class _DropSentinel:
    """Returned by a tap to swallow a transmission entirely."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DROP>"


#: a tap returning this sentinel drops the message before the fault model
#: sees it (used by omission-style Byzantine behaviours)
DROP = _DropSentinel()

MessageTap = Callable[[NodeId, NodeId, Message], Optional[Message]]


class Network:
    """Message transport between registered processes."""

    def __init__(self, scheduler: Scheduler,
                 topology: Optional[Topology] = None,
                 faults: Optional[NetworkFaultModel] = None,
                 enforce_topology: bool = True) -> None:
        self.scheduler = scheduler
        self.topology = topology or Topology.full()
        self.faults = faults or PerfectNetworkFaults(scheduler.random.fork("network"))
        self.enforce_topology = enforce_topology
        self.stats = NetworkStats()
        self._processes: Dict[NodeId, Process] = {}
        self._taps: List[MessageTap] = []

    # ------------------------------------------------------------------ #
    # Registration.
    # ------------------------------------------------------------------ #

    def register(self, process: Process) -> None:
        """Register ``process`` as the endpoint for its node id."""
        if process.node_id in self._processes:
            raise NetworkError(f"node {process.node_id} registered twice")
        self._processes[process.node_id] = process
        process.attach_network(self)
        self.topology.add_node(process.node_id)

    def process(self, node_id: NodeId) -> Process:
        """Return the process registered under ``node_id``."""
        try:
            return self._processes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    @property
    def node_ids(self) -> List[NodeId]:
        return sorted(self._processes)

    # ------------------------------------------------------------------ #
    # Observation hooks (used by confidentiality tests and fault injection).
    # ------------------------------------------------------------------ #

    def add_tap(self, tap: MessageTap) -> None:
        """Install an observer called for every send.

        The tap may return a replacement message (used by Byzantine network
        experiments), the :data:`DROP` sentinel to swallow the transmission,
        or ``None`` to leave the message unchanged.  Taps see messages
        *before* fault-model processing.
        """
        self._taps.append(tap)

    def remove_tap(self, tap: MessageTap) -> None:
        """Uninstall a previously added tap (no-op if absent).

        Time-bounded Byzantine behaviours use this to heal: a node can be
        malicious for a window of virtual time and then return to correct
        behaviour.
        """
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Sending.
    # ------------------------------------------------------------------ #

    def send(self, source: NodeId, destination: NodeId, message: Message) -> None:
        """Transmit ``message`` from ``source`` to ``destination``.

        Unknown destinations are ignored (the node may have been removed by a
        fault-injection experiment); forbidden links raise
        :class:`TopologyError` when topology enforcement is on.
        """
        if self.enforce_topology:
            self.topology.check(source, destination)
        if self._taps:
            for tap in list(self._taps):
                replacement = tap(source, destination, message)
                if replacement is DROP:
                    self.stats.drops_by_tap += 1
                    return
                if replacement is not None:
                    message = replacement
        size = message.wire_size()
        self.stats.record_send(message, size)

        target = self._processes.get(destination)
        if target is None:
            return
        deliveries = self.faults.plan(source, destination, message, size)
        scheduler = self.scheduler
        now = scheduler.now
        for delay, payload in deliveries:
            # one event per copy: ``target.deliver(source, payload, size)``;
            # only a payload the fault model replaced is sized again
            scheduler.post(now + delay, "deliver:", target.deliver, source, payload,
                           size if payload is message else payload.wire_size())
        self.stats.deliveries += len(deliveries)

    def broadcast(self, source: NodeId, destinations: List[NodeId], message: Message) -> None:
        """Send ``message`` from ``source`` to every node in ``destinations``."""
        for destination in destinations:
            if destination != source:
                self.send(source, destination, message)
