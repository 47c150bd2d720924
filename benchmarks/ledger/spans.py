"""Span recorder for the traced run: layer entry points wrapped from outside.

The traced run wraps a fixed list of entry points per layer (``TARGETS``)
and records a span -- layer, name, start, end, parent -- for every call that
crosses *into* a layer.  A call into the layer already on top of the stack
is not a new span (``canonical_encode`` recurses, ``payload_digest`` is
called by ``verify_mac``), so a span's time is the time the program spent
inside that layer before returning to its caller's layer.  Self time is span
time minus the time of the spans it caused.

Self time and call counts are summed as spans close, so memory does not grow
with run length; the first ``keep`` spans are also kept whole and written to
``TRACE_<workload>.jsonl``.  Wrappers are removed by :meth:`Tracer.uninstall`
and the program is left exactly as it was imported.

What is not wrapped is charged to the caller's layer: ``Scheduler.call_at``
inside ``Network.send`` counts as ``net``, asyncio's own stream and selector
code between two spans counts as unattributed.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pickle
import sys
import time
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("codec", "net", "sim", "runtime", "crypto", "agreement", "queue",
          "execution", "client")
#: the benchmark's own speed sampling runs inside client callbacks; it gets
#: spans of its own so that no program layer is charged for it
BENCH = "bench"

_CRYPTO = ("digest", "payload_digest", "mac_authenticator", "verify_mac",
           "authenticate", "new_certificate", "valid_signers",
           "verify_certificate", "require_certificate")
_QUEUE = ("execute_batch", "stage_batch", "retry_hint", "on_batch_reply",
          "on_unknown_message", "on_stable_checkpoint", "sync_to_checkpoint",
          "checkpoint_sync_state", "_on_retransmit_timeout",
          "_on_shard_retransmit_timeout", "_on_cut_fallover",
          "_on_binding_retransmit")
_ROUTER = ("shard_of_operation", "shard_of_request", "shards_of_requests",
           "shards_of_certificates", "shards_of_operation_keys",
           "is_cross_shard")
#: timers enter a node through ``Process.fire_timer``; wrapping it on each
#: node class charges the callback to the node's own layer
_NODE = ("on_message", "fire_timer")

#: (layer, module, class or None for module-level functions, names)
TARGETS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("codec", "repro.util.encoding", None, ("canonical_encode", "estimate_size")),
    ("codec", "repro.net.message", "Message", ("wire_size",)),
    ("net", "repro.net.network", "Network", ("send",)),
    ("sim", "repro.sim.scheduler", "Scheduler", ("step",)),
    ("runtime", "repro.runtime.asyncio_rt", "RealTimeNetwork",
     ("send", "_dispatch")),
    ("crypto", "repro.crypto.digest", None, ("digest",)),
    ("crypto", "repro.crypto.provider", "CryptoProvider", _CRYPTO),
    ("agreement", "repro.agreement.replica", "AgreementReplica", _NODE),
    ("queue", "repro.core.message_queue", "MessageQueue", _QUEUE),
    ("queue", "repro.sharding.queue", "ShardRouterQueue", _QUEUE),
    ("queue", "repro.multilog.queue", "MultiLogRouterQueue", _QUEUE),
    ("queue", "repro.sharding.router", "ShardRouter", _ROUTER),
    ("execution", "repro.core.execution", "ExecutionNode", _NODE),
    ("execution", "repro.sharding.execution", "ShardExecutionNode", _NODE),
    ("execution", "repro.core.unreplicated", "UnreplicatedServer", _NODE),
    ("execution", "repro.apps.kvstore", "KeyValueStore", ("execute",)),
    ("client", "repro.core.client", "ClientNode", _NODE + ("submit",)),
    ("client", "repro.sharding.client", "ShardAwareClient", _NODE + ("submit",)),
    ("client", "repro.multilog.client", "MultiLogClient", _NODE + ("submit",)),
    (BENCH, "hostclock", "HostClock", ("read",)),
)

_MISSING = object()


class Tracer:
    """Records spans on an in-memory stack; see the module docstring."""

    def __init__(self, keep: int = 50_000,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.keep = keep
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS + (BENCH,), 0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS + (BENCH,), 0)
        #: bytes produced by outermost ``canonical_encode`` calls
        self.bytes_encoded = 0
        self.spans: List[Tuple[int, str, str, int, int, int]] = []
        self._opened = 0
        #: open frames: [layer, name, start, child_ns, index]
        self._stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` recording a span whenever the caller is in another layer."""
        stack, clock = self._stack, self.clock

        def enter() -> list:
            frame = [layer, name, clock(), 0, self._opened]
            self._opened += 1
            stack.append(frame)
            return frame

        def leave(frame: list) -> None:
            end = clock()
            stack.pop()
            duration = end - frame[2]
            self.self_ns[layer] += duration - frame[3]
            self.calls[layer] += 1
            parent = -1
            if stack:
                stack[-1][3] += duration
                parent = stack[-1][4]
            if frame[4] < self.keep:
                self.spans.append((frame[4], layer, name, frame[2], end, parent))

        if inspect.iscoroutinefunction(fn):
            # Sound only while the coroutine never suspends, which holds for
            # ``RealTimeNetwork._dispatch`` with the crypto pool off.
            async def wrapper(*args, **kwargs):
                if stack and stack[-1][0] == layer:
                    return await fn(*args, **kwargs)
                frame = enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    leave(frame)
        else:
            def wrapper(*args, **kwargs):
                if stack and stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counting_encode(self, encode: Callable) -> Callable:
        depth = [0]

        def canonical_encode(value):
            depth[0] += 1
            try:
                data = encode(value)
            finally:
                depth[0] -= 1
            if not depth[0]:
                self.bytes_encoded += len(data)
            return data

        return canonical_encode

    # ------------------------------------------------------------------ #
    # Installing and removing the wrappers.
    # ------------------------------------------------------------------ #

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, module_name, class_name, names in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                for name in names:
                    self._patch_function(layer, module, name)
                continue
            cls = getattr(module, class_name)
            for name in names:
                fn = getattr(cls, name, None)
                # An inherited name already wrapped on the base class (same
                # layer) needs no second wrapper.
                if fn is not None and not hasattr(fn, "__wrapped__"):
                    self._patch(cls, name, self.wrap(
                        fn, layer, f"{class_name}.{name}"))
        # The frame codec is called inline from the transport's read loop,
        # so its spans come from the module's own reference to ``pickle``.
        from repro.runtime import asyncio_rt
        self._patch(asyncio_rt, "pickle", SimpleNamespace(
            dumps=self.wrap(pickle.dumps, "runtime", "pickle.dumps"),
            loads=self.wrap(pickle.loads, "runtime", "pickle.loads"),
            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))

    def _patch_function(self, layer: str, module: Any, name: str) -> None:
        """Wrap a module-level function wherever ``repro`` imported it by name."""
        original = getattr(module, name)
        inner = (self._counting_encode(original)
                 if name == "canonical_encode" else original)
        wrapped = self.wrap(inner, layer, name)
        for holder_name, holder in list(sys.modules.items()):
            if holder is None or not holder_name.startswith("repro"):
                continue
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def still_patched(self) -> List[str]:
        """Names that still resolve to a wrapper (empty after uninstall)."""
        leftovers = []
        for _, module_name, class_name, names in TARGETS:
            module = sys.modules.get(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for name in names:
                if hasattr(getattr(owner, name, None), "__wrapped__"):
                    leftovers.append(f"{module_name}:{class_name}.{name}")
        return leftovers

    def write_jsonl(self, path) -> int:
        """Write the kept spans, one JSON object per line, times in µs from
        the first span's start; returns the number written."""
        origin = self.spans[0][3] if self.spans else 0
        with open(path, "w") as handle:
            for index, layer, name, start, end, parent in sorted(self.spans):
                handle.write(json.dumps({
                    "span": index, "layer": layer, "name": name,
                    "start_us": (start - origin) / 1000.0,
                    "end_us": (end - origin) / 1000.0,
                    "parent": None if parent < 0 else parent}) + "\n")
        return len(self.spans)
