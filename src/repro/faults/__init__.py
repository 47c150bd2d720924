"""Fault injection: crash faults and Byzantine behaviours.

The paper's fault model allows arbitrary (Byzantine) behaviour from up to
``f`` agreement nodes, ``g`` execution nodes, and ``h`` privacy-firewall
filters.  This package provides:

* :class:`FaultInjector` -- schedule crashes, recoveries, Byzantine windows,
  and targeted link faults at virtual times;
* Byzantine *behaviours* that wrap a correct node and corrupt its outputs
  (wrong reply bodies, re-signed lies, leaked plaintext, silence), used by
  the safety and confidentiality tests -- and the fuzzing harness
  (:mod:`repro.fuzz`) -- to show that the protocol masks them.
"""

from .injector import FaultEvent, FaultInjector, FaultPlan
from .byzantine import (
    ByzantineBehaviour,
    CorruptReplyBehaviour,
    ForgedReplyBehaviour,
    LeakPlaintextBehaviour,
    LyingReplyBehaviour,
    STRATEGIES,
    SilentBehaviour,
    make_behaviour,
    make_byzantine,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "ByzantineBehaviour",
    "CorruptReplyBehaviour",
    "ForgedReplyBehaviour",
    "LeakPlaintextBehaviour",
    "LyingReplyBehaviour",
    "STRATEGIES",
    "SilentBehaviour",
    "make_behaviour",
    "make_byzantine",
]
