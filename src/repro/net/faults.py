"""Network fault models.

The paper assumes an unreliable network that can discard, delay, replicate,
reorder, and alter messages.  :class:`NetworkFaultModel` implements exactly
those behaviours, driven by :class:`repro.config.NetworkConfig` probabilities
and a deterministic random stream.  :class:`PerfectNetworkFaults` is the
degenerate model used by unit tests that want fully reliable delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..config import NetworkConfig
from ..sim.rand import DeterministicRandom
from ..util.ids import NodeId
from .message import CorruptedMessage, Message

#: link bandwidth of the simulated network: 100 Mbit/s
BANDWIDTH_BYTES_PER_MS = 12_500.0


@dataclass(frozen=True)
class LinkFault:
    """Targeted fault knobs for one *directed* ``(src, dst)`` link.

    Unlike :meth:`NetworkFaultModel.partition` (which cuts both directions),
    a link fault is asymmetric: ``set_link_fault(a, b, ...)`` degrades only
    ``a -> b`` traffic, so schedules can express one-way partitions and
    lossy or slow links without raising the global probabilities for every
    node pair.
    """

    drop_probability: float = 0.0
    extra_delay_ms: float = 0.0
    duplicate_probability: float = 0.0
    corrupt_probability: float = 0.0
    #: probability a copy crossing this link is reordered behind later
    #: traffic (modelled, like the global knob, as a large extra delay)
    reorder_probability: float = 0.0

    def validate(self) -> None:
        for name in ("drop_probability", "duplicate_probability",
                     "corrupt_probability", "reorder_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"LinkFault.{name} must be in [0, 1]")
        if not self.extra_delay_ms >= 0.0:   # NaN too
            raise ValueError("LinkFault.extra_delay_ms must be >= 0")


class NetworkFaultModel:
    """Stochastic unreliable-network behaviour."""

    def __init__(self, config: NetworkConfig, rng: DeterministicRandom) -> None:
        config.validate()
        self.config = config
        self.rng = rng
        self._partitioned: Set[frozenset] = set()
        self._link_faults: Dict[Tuple[NodeId, NodeId], LinkFault] = {}
        self.stats_dropped = 0
        self.stats_duplicated = 0
        self.stats_corrupted = 0
        self.stats_delivered = 0

    # ------------------------------------------------------------------ #
    # Partitions (used by fault-injection experiments).
    # ------------------------------------------------------------------ #

    def partition(self, a: NodeId, b: NodeId) -> None:
        """Cut the link between ``a`` and ``b`` until healed."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: NodeId, b: NodeId) -> None:
        """Heal a previously cut link."""
        self._partitioned.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        """Heal every partition."""
        self._partitioned.clear()

    def is_partitioned(self, a: NodeId, b: NodeId) -> bool:
        return frozenset((a, b)) in self._partitioned

    # ------------------------------------------------------------------ #
    # Targeted per-link overrides (asymmetric faults).
    # ------------------------------------------------------------------ #

    def set_link_fault(self, src: NodeId, dst: NodeId, fault: LinkFault) -> None:
        """Degrade the directed ``src -> dst`` link until cleared."""
        fault.validate()
        self._link_faults[(src, dst)] = fault

    def clear_link_fault(self, src: NodeId, dst: NodeId) -> None:
        """Restore the directed ``src -> dst`` link."""
        self._link_faults.pop((src, dst), None)

    def clear_link_faults(self) -> None:
        """Restore every directed link."""
        self._link_faults.clear()

    def link_fault(self, src: NodeId, dst: NodeId) -> Optional[LinkFault]:
        return self._link_faults.get((src, dst))

    # ------------------------------------------------------------------ #
    # Per-message decisions.
    # ------------------------------------------------------------------ #

    def base_delay(self, size_bytes: int) -> float:
        """Propagation plus transmission delay for a message of ``size_bytes``."""
        propagation = self.rng.uniform(self.config.min_delay_ms, self.config.max_delay_ms)
        transmission = size_bytes / BANDWIDTH_BYTES_PER_MS
        return propagation + transmission

    def plan(self, source: NodeId, destination: NodeId, message: Message,
             size: int) -> List[Tuple[float, Message]]:
        """Decide drop/duplicate/delay/corrupt for one transmission of
        ``message`` (``size`` bytes on the wire).

        Returns ``(delay_ms, payload)`` pairs: none if the message was
        dropped, more than one if it was duplicated, and a replaced payload
        if it was corrupted.  A link with no partition, no link fault and a
        fault-free configuration takes the early exit: its one draw, the
        propagation delay, is the draw the full path would make.
        """
        if self._partitioned and self.is_partitioned(source, destination):
            self.stats_dropped += 1
            return []
        link = self._link_faults.get((source, destination)) if self._link_faults else None
        config = self.config
        if link is None and not (
                config.drop_probability or config.duplicate_probability
                or config.reorder_probability or config.corrupt_probability):
            self.stats_delivered += 1
            return [(self.base_delay(size), message)]

        if self.rng.chance(config.drop_probability) or (
                link is not None and self.rng.chance(link.drop_probability)):
            self.stats_dropped += 1
            return []

        copies = 1
        if self.rng.chance(config.duplicate_probability):
            copies += 1
            self.stats_duplicated += 1
        if link is not None and self.rng.chance(link.duplicate_probability):
            copies += 1
            self.stats_duplicated += 1

        deliveries: List[Tuple[float, Message]] = []
        for _ in range(copies):
            delay = self.base_delay(size)
            if link is not None:
                delay += link.extra_delay_ms
            if self.rng.chance(config.reorder_probability) or (
                    link is not None
                    and self.rng.chance(link.reorder_probability)):
                # Reordering is modelled as extra delay on this copy.
                delay += self.rng.uniform(0.0, 4.0 * config.max_delay_ms)
            payload: Message = message
            if self.rng.chance(config.corrupt_probability) or (
                    link is not None
                    and self.rng.chance(link.corrupt_probability)):
                payload = CorruptedMessage(message.type_name(), size)
                self.stats_corrupted += 1
            deliveries.append((delay, payload))
            self.stats_delivered += 1
        return deliveries


class PerfectNetworkFaults(NetworkFaultModel):
    """Reliable, low-jitter network used by unit tests: the fault model with
    a fixed delay and no probabilistic faults (partitions and link faults
    still apply)."""

    def __init__(self, rng: Optional[DeterministicRandom] = None,
                 delay_ms: float = 0.1) -> None:
        config = NetworkConfig(min_delay_ms=delay_ms, max_delay_ms=delay_ms)
        super().__init__(config, rng or DeterministicRandom(0, "perfect-net"))
