"""The per-system observability hub.

One hub serves one :class:`~repro.core.system.SimulatedSystem`: it owns the
request tracer and the per-node metrics registries, and is attached to the
scheduler (``scheduler.obs``) before any process is constructed so that
:class:`~repro.sim.process.Process` can pick up its registry and the tracer
in its own ``__init__``.  A process built against a scheduler without a hub
(unit tests constructing processes by hand) silently gets the shared
disabled hub, which costs nothing and records nothing.

The hub also accepts *global* probes -- snapshot-time callables for
process-wide state that belongs to no node, such as the wire cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .registry import NULL_REGISTRY, MetricsRegistry
from .trace import Tracer


class ObservabilityHub:
    """Tracer plus per-node registries for one simulated system."""

    def __init__(self, config: Optional[object] = None) -> None:
        # Duck-typed to ObservabilityConfig so this package stays importable
        # without repro.config (and vice versa).
        self.metrics_enabled = bool(getattr(config, "metrics", False))
        self.tracing_enabled = bool(getattr(config, "tracing", False))
        self.tracer = Tracer(enabled=self.tracing_enabled)
        self._registries: Dict[str, MetricsRegistry] = {}
        self._global_probes: Dict[str, Callable[[], object]] = {}

    @property
    def enabled(self) -> bool:
        return self.metrics_enabled or self.tracing_enabled

    def registry_for(self, node: str) -> MetricsRegistry:
        """The (per-node) registry for ``node``; a shared no-op if disabled."""
        if not self.metrics_enabled:
            return NULL_REGISTRY
        registry = self._registries.get(node)
        if registry is None:
            registry = self._registries[node] = MetricsRegistry(node)
        return registry

    def register_global_probe(self, name: str, probe: Callable[[], object]) -> None:
        if self.metrics_enabled:
            self._global_probes[name] = probe

    def metrics_snapshot(self) -> Dict[str, object]:
        """All registries and global probes as JSON-serialisable data."""
        return {
            "nodes": {node: registry.snapshot()
                      for node, registry in sorted(self._registries.items())},
            "global": {name: probe()
                       for name, probe in sorted(self._global_probes.items())},
        }


#: shared hub for schedulers that were never given one (records nothing)
DISABLED_HUB = ObservabilityHub()
