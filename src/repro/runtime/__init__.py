"""Pluggable runtimes: one protocol stack, two execution substrates.

``build_runtime`` dispatches on :class:`repro.config.RuntimeConfig`:

* ``backend="sim"`` -- the deterministic virtual-time simulator
  (:class:`~repro.runtime.sim_rt.SimRuntime`), the substrate every test,
  gate benchmark, and fuzz campaign runs on;
* ``backend="asyncio"`` -- real localhost sockets and wall-clock timers
  (:class:`~repro.runtime.asyncio_rt.AsyncioRuntime`); every certificate is
  still checked by the receiving node's handler, as on the simulator.

See :mod:`repro.runtime.interface` for the contract a backend implements
and ``docs/ARCHITECTURE.md`` for where the seam sits in the system.
"""

from .interface import Runtime, build_runtime
from .sim_rt import SimRuntime

__all__ = ["Runtime", "build_runtime", "SimRuntime"]
