"""Scheduling of crash faults, recoveries, and Byzantine windows.

A :class:`FaultPlan` is a declarative list of fault events (crash node X at
time T, recover it at time T', partition a link over an interval, make a node
Byzantine for a window, degrade one directed link); the
:class:`FaultInjector` installs them on a running system's scheduler.  The
Andrew-with-failures experiment (Figure 7) crashes one execution server or
one agreement node at the start of the benchmark; the liveness tests and the
fuzzing harness (:mod:`repro.fuzz`) use richer plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.system import SimulatedSystem
from ..net.faults import LinkFault
from ..sim.process import Process
from ..util.ids import NodeId
from .byzantine import ByzantineBehaviour


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action."""

    at_ms: float
    kind: str  # "crash", "recover", "partition", "heal",
    #          # "byzantine", "byzantine_end", "link_fault", "link_heal"
    node: Optional[NodeId] = None
    link: Optional[Tuple[NodeId, NodeId]] = None
    behaviour: Optional[ByzantineBehaviour] = None
    fault: Optional[LinkFault] = None


@dataclass
class FaultPlan:
    """A declarative schedule of fault events."""

    events: List[FaultEvent] = field(default_factory=list)

    def crash(self, node: NodeId, at_ms: float = 0.0) -> "FaultPlan":
        self.events.append(FaultEvent(at_ms=at_ms, kind="crash", node=node))
        return self

    def recover(self, node: NodeId, at_ms: float) -> "FaultPlan":
        self.events.append(FaultEvent(at_ms=at_ms, kind="recover", node=node))
        return self

    def partition(self, a: NodeId, b: NodeId, at_ms: float = 0.0) -> "FaultPlan":
        self.events.append(FaultEvent(at_ms=at_ms, kind="partition", link=(a, b)))
        return self

    def heal(self, a: NodeId, b: NodeId, at_ms: float) -> "FaultPlan":
        self.events.append(FaultEvent(at_ms=at_ms, kind="heal", link=(a, b)))
        return self

    def byzantine(self, behaviour: ByzantineBehaviour, at_ms: float = 0.0,
                  until_ms: Optional[float] = None) -> "FaultPlan":
        """Install ``behaviour`` at ``at_ms``; heal it again at ``until_ms``.

        Time-bounded malice: the node follows the protocol correctly before
        and after the window, so a schedule can probe exactly the interval
        where an attack races a handoff, a vote, or a view change.
        """
        self.events.append(FaultEvent(at_ms=at_ms, kind="byzantine",
                                      node=behaviour.node, behaviour=behaviour))
        if until_ms is not None:
            self.events.append(FaultEvent(at_ms=until_ms, kind="byzantine_end",
                                          node=behaviour.node,
                                          behaviour=behaviour))
        return self

    def link_fault(self, src: NodeId, dst: NodeId, fault: LinkFault,
                   at_ms: float = 0.0,
                   until_ms: Optional[float] = None) -> "FaultPlan":
        """Degrade the directed ``src -> dst`` link over a window."""
        self.events.append(FaultEvent(at_ms=at_ms, kind="link_fault",
                                      link=(src, dst), fault=fault))
        if until_ms is not None:
            self.events.append(FaultEvent(at_ms=until_ms, kind="link_heal",
                                          link=(src, dst)))
        return self


class FaultInjector:
    """Installs a :class:`FaultPlan` onto a system's scheduler."""

    def __init__(self, system: SimulatedSystem) -> None:
        self.system = system
        self.applied: List[FaultEvent] = []
        #: behaviours currently installed (for end-of-run healing)
        self.active_behaviours: List[ByzantineBehaviour] = []

    def _process(self, node: NodeId) -> Process:
        return self.system.network.process(node)

    def install(self, plan: FaultPlan) -> None:
        """Schedule every event in ``plan`` relative to the current time."""
        for event in plan.events:
            when = self.system.now + event.at_ms
            self.system.scheduler.call_at(when, lambda e=event: self._apply(e),
                                          label=f"fault:{event.kind}")

    def _apply(self, event: FaultEvent) -> None:
        if event.kind == "crash" and event.node is not None:
            self._process(event.node).crash()
        elif event.kind == "recover" and event.node is not None:
            self._process(event.node).recover()
        elif event.kind == "partition" and event.link is not None:
            self.system.network.faults.partition(*event.link)
        elif event.kind == "heal" and event.link is not None:
            self.system.network.faults.heal(*event.link)
        elif event.kind == "byzantine" and event.behaviour is not None:
            event.behaviour.install(self.system)
            self.active_behaviours.append(event.behaviour)
        elif event.kind == "byzantine_end" and event.behaviour is not None:
            event.behaviour.uninstall(self.system)
            if event.behaviour in self.active_behaviours:
                self.active_behaviours.remove(event.behaviour)
        elif event.kind == "link_fault" and event.link is not None \
                and event.fault is not None:
            self.system.network.faults.set_link_fault(*event.link, event.fault)
        elif event.kind == "link_heal" and event.link is not None:
            self.system.network.faults.clear_link_fault(*event.link)
        self.applied.append(event)

    def heal_all(self) -> None:
        """Recover every process, heal every partition/link, uninstall every
        behaviour -- quiesce the system so post-run invariants can settle."""
        for process in self.system.server_processes():
            process.recover()
        self.system.network.faults.heal_all()
        self.system.network.faults.clear_link_faults()
        for behaviour in list(self.active_behaviours):
            behaviour.uninstall(self.system)
        self.active_behaviours.clear()
