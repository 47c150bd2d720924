"""The runtime seam: backend parity, the crypto pool, real-time scheduler.

The headline contract is *parity*: the same workload pushed through the
virtual-time simulator and the asyncio real-socket backend must commit the
same application state and return the same results (timing aside) -- the
protocol stack is byte-for-byte the same code, only the substrate changes.
The crypto pool additionally must be invisible to the protocol: enabled, it
warms verification caches from worker processes; disabled, the same jobs
verify inline with identical outcomes.
"""

from __future__ import annotations

import asyncio
import gc
import logging
import warnings

import pytest

from conftest import make_config
from repro.apps.kvstore import KeyValueStore, delete, get, put
from repro.config import (
    AuthenticationScheme,
    CryptoCosts,
    CryptoPoolConfig,
    RuntimeConfig,
    SystemConfig,
)
from repro.core.system import SeparatedSystem
from repro.crypto.pool import CryptoPool, extract_verify_jobs, verify_jobs
from repro.crypto.provider import CryptoProvider
from repro.errors import ConfigurationError, LivenessTimeoutError, SimulationError
from repro.runtime import SimRuntime, build_runtime
from repro.runtime.asyncio_rt import AsyncioRuntime, RealTimeScheduler
from repro.util.ids import agreement_id, execution_id


def _runtime_config(backend: str, pool: bool = False,
                    charge_scale: float = 0.0) -> RuntimeConfig:
    return RuntimeConfig(
        backend=backend, charge_scale=charge_scale,
        crypto_pool=CryptoPoolConfig(enabled=pool, workers=2))


def _workload(system: SeparatedSystem, requests: int = 8):
    """A small mixed put/get/delete workload; returns the result values."""
    values = []
    for i in range(requests):
        result = system.invoke(put(f"key-{i % 3}", f"value-{i}"),
                               client_index=i % 2, timeout_ms=30_000)
        values.append(result.result.value)
    values.append(system.invoke(delete("key-1"), timeout_ms=30_000).result.value)
    for i in range(3):
        result = system.invoke(get(f"key-{i}"), client_index=i % 2,
                               timeout_ms=30_000)
        values.append(result.result.value)
    return values


def _run_backend(runtime: RuntimeConfig):
    config = make_config(runtime=runtime)
    system = SeparatedSystem(config, KeyValueStore, seed=11)
    try:
        values = _workload(system)
        states = [node.app.snapshot() for node in system.execution_nodes]
    finally:
        system.close()
    return values, states


class TestBackendParity:
    def test_factory_selects_backend(self, config):
        runtime = build_runtime(config, seed=1)
        assert isinstance(runtime, SimRuntime)
        real = build_runtime(
            make_config(runtime=_runtime_config("asyncio")), seed=1)
        try:
            assert isinstance(real, AsyncioRuntime)
        finally:
            real.close()

    def test_same_committed_state_across_backends(self):
        sim_values, sim_states = _run_backend(_runtime_config("sim"))
        real_values, real_states = _run_backend(_runtime_config("asyncio"))
        assert real_values == sim_values
        # Every execution replica converged to the same store, and the
        # stores agree across backends.
        assert all(state == sim_states[0] for state in sim_states)
        assert real_states == sim_states

    def test_pool_enabled_backend_matches_simulator(self):
        sim_values, sim_states = _run_backend(_runtime_config("sim"))
        pool_values, pool_states = _run_backend(
            _runtime_config("asyncio", pool=True, charge_scale=0.01))
        assert pool_values == sim_values
        assert pool_states == sim_states

    def test_asyncio_backend_uses_real_sockets(self):
        config = make_config(runtime=_runtime_config("asyncio"))
        system = SeparatedSystem(config, KeyValueStore, seed=3)
        try:
            system.invoke(put("k", "v"), timeout_ms=30_000)
            transport = system.network.transport
            assert transport.frames_sent > 0
            assert transport.frames_delivered > 0
            assert transport.bytes_on_wire > 0
            # the model-level census is kept on this backend too
            stats = system.network.stats
            assert sum(stats.bytes_per_type.values()) == stats.bytes_sent
            assert stats.census()["ClientReply"]["sends"] == 3
        finally:
            system.close()

    def test_close_right_after_first_commit_leaves_no_pending_task(self, caplog):
        """Connections accepted but not yet served when ``close()`` comes --
        links are opened lazily, so the first commit leaves several -- must
        be cancelled and awaited, not abandoned with the loop."""
        with caplog.at_level(logging.DEBUG, logger="asyncio"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for seed in range(3):
                system = SeparatedSystem(
                    make_config(runtime=_runtime_config("asyncio")),
                    KeyValueStore, seed=seed)
                try:
                    system.invoke(put("k", "v"), timeout_ms=30_000)
                finally:
                    system.close()
                del system
                gc.collect()  # an abandoned task complains when collected
        complaints = [record.getMessage() for record in caplog.records
                      if record.levelno >= logging.WARNING]
        complaints += [str(warning.message) for warning in caught
                       if issubclass(warning.category, (RuntimeWarning, ResourceWarning))]
        assert complaints == []


class TestCryptoPool:
    def _mac_jobs(self, keystore, costs):
        signer = agreement_id(0)
        verifier = execution_id(0)
        provider = CryptoProvider(signer, keystore, costs=costs)
        certificate = provider.new_certificate(
            {"op": "bind", "seq": 4}, AuthenticationScheme.MAC,
            destinations=[verifier, execution_id(1)])
        return extract_verify_jobs(verifier, keystore, costs, certificate)

    def test_inline_fallback_matches_pool(self, keystore):
        costs = CryptoCosts()
        jobs, keys = self._mac_jobs(keystore, costs)
        assert len(jobs) == len(keys) == 1
        assert keys[0][0] == "mac"
        inline = verify_jobs(jobs)
        disabled = CryptoPool(CryptoPoolConfig(enabled=False))
        assert disabled.run_inline(jobs) == inline == [True]
        assert disabled.stats.inline_batches == 1
        pooled = CryptoPool(CryptoPoolConfig(enabled=True, workers=2))
        loop = asyncio.new_event_loop()
        try:
            assert loop.run_until_complete(pooled.run(loop, jobs)) == inline
            assert pooled.stats.batches == 1
        finally:
            pooled.close()
            loop.close()

    def test_forged_token_is_rejected(self, keystore):
        costs = CryptoCosts()
        jobs, _ = self._mac_jobs(keystore, costs)
        secret, data, token, burn = jobs[0]
        forged = (secret, data, bytes(len(token)), burn)
        assert verify_jobs([jobs[0], forged]) == [True, False]

    def test_threshold_jobs_extracted(self, keystore):
        costs = CryptoCosts()
        members = [execution_id(i) for i in range(3)]
        keystore.create_threshold_group("grp", members, threshold=2)
        providers = [CryptoProvider(m, keystore, costs=costs) for m in members]
        certificate = providers[0].new_certificate(
            {"reply": 1}, AuthenticationScheme.THRESHOLD,
            destinations=members, threshold_group="grp")
        providers[1].authenticate(certificate, members)
        certificate.threshold_signature = providers[1].threshold_combine(
            certificate.payload, "grp", certificate.authenticator_list())
        jobs, keys = extract_verify_jobs(agreement_id(0), keystore, costs,
                                         certificate)
        kinds = sorted(key[0] for key in keys)
        assert kinds == ["share", "share", "tsig"]
        assert verify_jobs(jobs) == [True, True, True]

    def test_pool_requires_asyncio_backend(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(runtime=RuntimeConfig(
                backend="sim", crypto_pool=CryptoPoolConfig(enabled=True)))
        with pytest.raises(ConfigurationError):
            RuntimeConfig(backend="threads").validate()


class TestRealTimeScheduler:
    def test_timers_fire_in_order_and_cancel(self):
        scheduler = RealTimeScheduler(seed=0, poll_interval_ms=0.5)
        fired = []
        scheduler.call_after(10.0, lambda: fired.append("late"))
        scheduler.call_after(1.0, lambda: fired.append("early"))
        cancelled = scheduler.call_after(2.0, lambda: fired.append("cancelled"))
        assert cancelled.active
        cancelled.cancel()
        assert not cancelled.active
        try:
            scheduler.run_until(lambda: len(fired) == 2, timeout=5_000.0,
                                description="both timers")
        finally:
            scheduler.close()
        assert fired == ["early", "late"]
        assert scheduler.events_processed >= 2

    def test_run_until_timeout_raises(self):
        scheduler = RealTimeScheduler(seed=0, poll_interval_ms=0.5)
        try:
            with pytest.raises(LivenessTimeoutError):
                scheduler.run_until(lambda: False, timeout=20.0,
                                    description="never")
        finally:
            scheduler.close()

    def test_run_requires_horizon_and_rejects_negative_delay(self):
        scheduler = RealTimeScheduler(seed=0)
        try:
            with pytest.raises(SimulationError):
                scheduler.run()
            with pytest.raises(SimulationError):
                scheduler.call_after(-1.0, lambda: None)
            before = scheduler.now
            scheduler.run(until=before + 5.0)
            assert scheduler.now >= before + 5.0
        finally:
            scheduler.close()
