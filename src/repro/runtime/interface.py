"""The Runtime seam: what a backend must provide to host a deployment.

Every deployment (:class:`repro.core.system.SimulatedSystem` and its
subclasses) is built against two objects -- a *scheduler* and a *network* --
and drives them through ``run`` / ``run_until``.  A :class:`Runtime` bundles
one compatible pair plus its lifecycle, so the same protocol code runs on
the deterministic virtual-time simulator or on real sockets and wall-clock
timers, chosen by :class:`repro.config.RuntimeConfig`.

A backend's **scheduler** must provide the surface protocol code actually
uses (see :class:`repro.sim.scheduler.Scheduler` for the reference
semantics):

* ``now`` -- monotonically non-decreasing milliseconds;
* ``call_at(when, callback, label)`` / ``call_after(delay, callback,
  label)`` returning timer handles with ``deadline``, ``active``, and
  ``cancel()``;
* ``post(when, label, callback, *args)`` -- ``callback(*args)`` at
  ``when``, for events nobody cancels (a node's end of a busy period);
* ``events_processed`` -- a counter that increases between any two
  distinct dispatches (handlers use it as a cheap "same event?" stamp);
* ``random`` -- a :class:`~repro.sim.rand.DeterministicRandom`;
* ``obs`` -- the observability hub, installed by the system builder
  before any process is constructed;
* ``run(until=...)`` and ``run_until(predicate, timeout, description)``.

Its **network** must provide ``register`` / ``process`` / ``node_ids``,
``send`` / ``broadcast``, ``add_tap`` / ``remove_tap``, a writable
``topology`` attribute, and ``stats`` (see
:class:`repro.net.network.Network`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SystemConfig


class Runtime:
    """One scheduler/network pair plus lifecycle; backends subclass this."""

    #: backend name, as selected by ``RuntimeConfig.backend``
    backend: str = "abstract"

    #: the time source and timer service protocol code schedules against
    scheduler = None
    #: the transport protocol code sends through
    network = None

    def run(self, duration_ms: float) -> float:
        """Advance time by ``duration_ms``, processing whatever comes due."""
        return self.scheduler.run(until=self.scheduler.now + duration_ms)

    def run_until(self, predicate: Callable[[], bool], timeout_ms: float,
                  description: str = "condition") -> float:
        """Run until ``predicate`` holds or ``timeout_ms`` elapses."""
        return self.scheduler.run_until(predicate, timeout_ms, description)

    def close(self) -> None:
        """Release backend resources (sockets, loops)."""

    # -- context-manager sugar so drivers can scope a deployment ---------- #

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_runtime(config: "SystemConfig", seed: int) -> Runtime:
    """Construct the backend selected by ``config.runtime.backend``.

    Imports are local so the default sim path never pays for asyncio
    machinery.
    """
    backend = config.runtime.backend
    if backend == "sim":
        from .sim_rt import SimRuntime

        return SimRuntime(config, seed)
    if backend == "asyncio":
        from .asyncio_rt import AsyncioRuntime

        return AsyncioRuntime(config, seed)
    raise ValueError(f"unknown runtime backend {backend!r}")  # pragma: no cover
