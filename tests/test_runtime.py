"""The runtime seam: backend parity, the transport, real-time scheduler.

The headline contract is *parity*: the same workload pushed through the
virtual-time simulator and the asyncio real-socket backend must commit the
same application state and return the same results (timing aside) -- the
protocol stack is byte-for-byte the same code, only the substrate changes.
"""

from __future__ import annotations

import dataclasses
import gc
import logging
import socket
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import cycle, zip_longest

import pytest

from conftest import CHEAP_CRYPTO, FAST_TIMERS, make_config
from repro.apps.counter import CounterService, increment, read_counter
from repro.apps.kvstore import (KeyValueStore, delete, get, multi_get, put,
                                transaction)
from repro.config import CrossShardConfig, RuntimeConfig, SystemConfig, TimerConfig
from repro.core.system import SeparatedSystem
from repro.errors import ConfigurationError, LivenessTimeoutError, SimulationError
from repro.messages.reply import ClientReply
from repro.net.codec import default_codec
from repro.net.message import Message
from repro.net.network import DROP
from repro.runtime import SimRuntime, asyncio_rt, build_runtime
from repro.runtime.asyncio_rt import (
    MAX_FRAME_BYTES,
    AsyncioRuntime,
    RealTimeScheduler,
    _Inbound,
)
from repro.sharding.system import ShardedSystem
from repro.sim.process import Process
from repro.statemachine.interface import Operation
from repro.util.ids import agreement_id, client_id, execution_id, server_id
from repro.util.wirecache import WIRE_CACHE


#: timers no commit on the wall clock outlasts, however loaded the host
#: (as the ledger's rt workloads have them): a test that counts the sends of
#: a commit must not count a retransmission of a slow one
WALL_CLOCK_TIMERS = TimerConfig(client_retransmit_ms=5_000.0,
                                agreement_retransmit_ms=2_000.0,
                                execution_fetch_ms=500.0, view_change_ms=20_000.0,
                                batch_timeout_ms=1.0)


def _runtime_config(backend: str, charge_scale: float = 0.0) -> RuntimeConfig:
    return RuntimeConfig(backend=backend, charge_scale=charge_scale)


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


def _run_sharded(backend: str):
    config = SystemConfig.multilog_sharded(
        num_logs=2, num_shards=4, strategy="range",
        range_boundaries=["key-2", "key-4", "key-6"],
        cross_shard=CrossShardConfig(enabled=True), num_clients=2,
        timers=FAST_TIMERS, crypto=CHEAP_CRYPTO,
        runtime=_runtime_config(backend))
    system = ShardedSystem(config, KeyValueStore, seed=13)
    operations = [put(f"key-{i}", f"v{i}") for i in range(8)] + [
        multi_get(["key-1", "key-3", "key-5", "key-7"]),
        transaction(reads={}, writes={"key-0": "t0", "key-6": "t6"})]
    try:
        values = []
        for index, operation in enumerate(operations):
            result = system.invoke(operation, client_index=index % 2,
                                   timeout_ms=30_000).result
            assert result.error is None
            values.append(result.value)
        states = [node.app.snapshot()
                  for cluster in system.shard_execution_nodes
                  for node in cluster]
    finally:
        system.close()
    return values, states


def _complaints(caplog, caught):
    """What asyncio logged and Python warned about abandoned tasks, pending
    exceptions and unclosed transports."""
    complaints = [record.getMessage() for record in caplog.records
                  if record.levelno >= logging.WARNING]
    complaints += [str(warning.message) for warning in caught
                   if issubclass(warning.category, (RuntimeWarning, ResourceWarning))]
    return complaints


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

    @pytest.mark.parametrize("charge_scale, cached", [
        pytest.param(0.0, True, id="0.0"), pytest.param(0.01, True, id="0.01"),
        pytest.param(0.0, False, id="0.0-uncached")])
    def test_same_committed_state_across_backends(self, charge_scale, cached):
        """Charges are free at scale 0; above it every one is burned as
        real CPU on the event loop (the cost emulation's path).  With the
        wire cache off nothing is memoised: every frame, digest and MAC is
        over a fresh encoding, and no received message keeps its bytes."""
        sim_values, sim_states = _run_backend(_runtime_config("sim"))
        WIRE_CACHE.configure(enabled=cached)
        try:
            real_values, real_states = _run_backend(
                _runtime_config("asyncio", charge_scale=charge_scale))
        finally:
            WIRE_CACHE.configure(enabled=True)
        assert real_values == sim_values
        # Every execution replica converged to the same store, and the
        # stores agree across backends.
        assert all(state == sim_states[0] for state in sim_states)
        assert real_states == sim_states

    def test_sharded_two_log_deployment_matches_across_backends(self):
        """Four range shards ordered by two agreement logs: point writes,
        a read of all four shards and a write transaction across both log
        groups return the same results and leave every shard replica with
        the same store on either backend."""
        sim_values, sim_states = _run_sharded("sim")
        real_values, real_states = _run_sharded("asyncio")
        assert real_values == sim_values
        assert sim_values[-2:] == [
            {"values": {"key-1": "v1", "key-3": "v3", "key-5": "v5",
                        "key-7": "v7"}},
            {"committed": True, "observed": {}}]
        assert real_states == sim_states
        assert sim_states[0] == {"key-0": "t0", "key-1": "v1"}
        assert sim_states[-1] == {"key-6": "t6", "key-7": "v7"}

    def test_an_unknown_backend_is_refused(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(backend="threads").validate()

    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_a_counter_past_64_bits(self, backend):
        """Results are application values of any size: two clients pushing
        a counter past 2**63 get it back on either backend."""
        system = SeparatedSystem(make_config(runtime=_runtime_config(backend)),
                                 CounterService, seed=12)
        try:
            values = [system.invoke(increment(1 << 62), client_index=index % 2,
                                    timeout_ms=30_000).result.value
                      for index in range(3)]
            values.append(system.invoke(increment(-(1 << 64)),
                                        timeout_ms=30_000).result.value)
            values.append(system.invoke(read_counter(),
                                        timeout_ms=30_000).result.value)
        finally:
            system.close()
        assert values == [1 << 62, 1 << 63, 3 << 62, -(1 << 62), -(1 << 62)]

    def test_asyncio_backend_uses_real_sockets(self):
        config = make_config(runtime=_runtime_config("asyncio"),
                             timers=WALL_CLOCK_TIMERS)
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
        assert _complaints(caplog, caught) == []

    @pytest.mark.parametrize("during_close", [True, False])
    def test_close_with_a_link_that_never_connected(self, caplog, during_close):
        """A first send on a link that nobody used, (a) from a timer that
        fires while ``close()`` is already shutting the servers -- dropped --
        and (b) just before ``close()``, so that its connect is still in
        flight and is then refused: either way teardown awaits what it
        started and nothing is logged when the loop is collected."""
        with caplog.at_level(logging.DEBUG, logger="asyncio"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            system = SeparatedSystem(
                make_config(runtime=_runtime_config("asyncio")),
                KeyValueStore, seed=0)
            try:
                system.invoke(put("k", "v"), timeout_ms=30_000)
                network = system.network
                link = (agreement_id(0), client_id(1))   # client 1 never spoke
                assert link not in network._links
                frames = network.transport.frames_sent
                send = lambda: network.send(*link, _Numbered(0))
                if during_close:
                    system.scheduler.call_after(0.0, send)
                else:
                    send()
            finally:
                system.close()
            assert network.transport.frames_sent == frames + (not during_close)
            assert (link in network._links) == (not during_close)
            del system, network, send
            gc.collect()
        assert _complaints(caplog, caught) == []

    def test_lost_direct_replies(self):
        """Every direct reply of the first round is lost on the real
        backend: the client's retransmission completes through an
        agreement node that passes the request on to the replicas and
        relays their certified answer."""
        # The retransmission must find the request executed and answered,
        # even in asyncio's (slow) debug mode.
        timers = dataclasses.replace(FAST_TIMERS, client_retransmit_ms=1_000.0)
        system = SeparatedSystem(
            make_config(runtime=_runtime_config("asyncio"), timers=timers),
            KeyValueStore, seed=9)
        client = system.clients[0]
        executors = set(system.execution_ids)
        lost = []

        def lose_first_round(source, destination, message):
            if (source in executors and isinstance(message, ClientReply)
                    and len(lost) < len(executors)):
                lost.append(message)
                return DROP
            return None

        system.network.add_tap(lose_first_round)
        try:
            record = system.invoke(put("k", "v"), timeout_ms=30_000)
            assert record.result.value == {"stored": True}
            assert client.retransmissions >= 1
            system.run_until(
                lambda: all(node.retries_answered >= 1
                            for node in system.execution_nodes), 30_000)
            queues = system.message_queues
            system.run_until(
                lambda: all(queue.replies_forwarded >= 1 for queue in queues),
                30_000)
            assert all(queue.requests_forwarded >= 1
                       and client.node_id in queue.cache for queue in queues)
        finally:
            system.close()

    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_handler_exception_reaches_the_driver(self, backend):
        """A handler that raises must fail the run on either backend, not
        turn its node into a silent replica that BFT then masks."""
        system = SeparatedSystem(make_config(runtime=_runtime_config(backend)),
                                 KeyValueStore, seed=5)
        broken = system.execution_nodes[1]

        def on_message(sender, message):
            raise RuntimeError("handler bug")

        try:
            system.invoke(put("before", "ok"), timeout_ms=30_000)
            broken.on_message = on_message
            with pytest.raises(RuntimeError, match="handler bug"):
                system.invoke(put("k", "v"), timeout_ms=30_000)
            del broken.on_message
        finally:
            system.close()

    def test_timer_exception_reaches_the_driver_or_close(self):
        def boom():
            raise RuntimeError("timer bug")

        scheduler = RealTimeScheduler(seed=0)
        try:
            scheduler.call_after(0.0, boom)
            with pytest.raises(RuntimeError, match="timer bug"):
                scheduler.run_until(lambda: False, timeout=5_000.0)
            scheduler.run(until=scheduler.now + 1.0)   # raised once, not again
        finally:
            scheduler.close()
        # a timer that fires while the loop runs for the last time, in close()
        runtime = AsyncioRuntime(make_config(runtime=_runtime_config("asyncio")), seed=0)
        runtime.scheduler.call_after(0.0, boom)
        with pytest.raises(RuntimeError, match="timer bug"):
            runtime.close()
        assert runtime.scheduler.loop.is_closed()


# ---------------------------------------------------------------------- #
# The transport on its own: framing, ordering, the frame memo, bad input.
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class _Numbered(Message):
    number: int


@dataclass(frozen=True)
class _Padded(_Numbered):
    padding: bytes = b""


default_codec().register(_Numbered, 250)
default_codec().register(_Padded, 251)


class _Recording(Process):
    def __init__(self, node_id, scheduler):
        super().__init__(node_id, scheduler)
        self.messages = []

    @property
    def numbers(self):
        return [message.number for message in self.messages]

    def on_message(self, sender, message):
        self.messages.append(message)


def _frame(sender, message) -> bytes:
    body = default_codec().encode_frame(sender, message)
    return len(body).to_bytes(4, "big") + body


@pytest.fixture
def runtime():
    runtime = AsyncioRuntime(make_config(runtime=_runtime_config("asyncio")),
                             seed=0)
    yield runtime
    runtime.close()


def _feed(connection, chunk, read_limit=None):
    """Hand ``chunk`` to ``connection`` the way the event loop does: ask for
    a buffer, fill as much of it as one ``recv_into`` of at most
    ``read_limit`` bytes would, report how much that was."""
    chunk = memoryview(chunk)
    while len(chunk):
        buffer = connection.get_buffer(-1)
        assert len(buffer) > 0
        count = min(len(buffer), len(chunk), read_limit or len(chunk))
        buffer[:count] = chunk[:count]
        connection.buffer_updated(count)
        chunk = chunk[count:]


@contextmanager
def _allocation_peak():
    """Yields a list that ends up holding the most bytes allocated at once,
    above what was allocated on entry, while the block ran."""
    peak = []
    already = tracemalloc.is_tracing()
    if not already:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        yield peak
        peak.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        if not already:
            tracemalloc.stop()


def _nodes(runtime, count):
    nodes = [_Recording(server_id(index), runtime.scheduler)
             for index in range(count)]
    for node in nodes:
        runtime.network.register(node)
    return nodes


class TestTransport:
    @pytest.mark.parametrize("chunking", ["bytes", "header-split", "body-split",
                                          "one-chunk"])
    def test_frames_survive_any_chunking(self, runtime, chunking):
        (node,) = _nodes(runtime, 1)
        stream = b"".join(_frame(client_id(0), _Numbered(number))
                          for number in range(100))
        first = len(_frame(client_id(0), _Numbered(0)))
        chunks = {
            "bytes": [stream[i:i + 1] for i in range(len(stream))],
            "header-split": [stream[:first + 2], stream[first + 2:]],
            "body-split": [stream[:first + 9], stream[first + 9:-3], stream[-3:]],
            "one-chunk": [stream],
        }[chunking]
        connection = _Inbound(runtime.network, node)
        for chunk in chunks:
            _feed(connection, chunk)
        assert node.numbers == list(range(100))
        # what a node is told it received is what the frames took on the wire
        assert node.stats.bytes_received == len(stream)
        assert runtime.network.transport.frames_delivered == 100

    def test_connections_interleave_through_the_one_read_buffer(self, runtime):
        """Two connections each cut off mid-frame -- inside a length prefix,
        inside a body -- while the other's reads land in the same buffer:
        what a read leaves unfinished is the connection's own."""
        nodes = _nodes(runtime, 2)
        streams = [b"".join(
            _frame(client_id(index), _Padded(number, bytes([65 + index]) * (number * 53 % 700)))
            for number in range(60)) for index in range(2)]
        connections = [_Inbound(runtime.network, node) for node in nodes]

        def pieces(stream, sizes):
            position = 0
            for size in cycle(sizes):
                if position >= len(stream):
                    return
                yield stream[position:position + size]
                position += size

        for turn in zip_longest(pieces(streams[0], (1, 2, 3, 5, 97, 701, 4099)),
                                pieces(streams[1], (2, 5, 1, 97, 3, 701, 4099))):
            for connection, piece in zip(connections, turn):
                if piece:
                    _feed(connection, piece)
        for index, node in enumerate(nodes):
            assert node.numbers == list(range(60))
            assert all(message.padding == bytes([65 + index]) * (message.number * 53 % 700)
                       for message in node.messages)
            assert node.stats.bytes_received == len(streams[index])

    def test_a_long_frame_is_assembled_in_place(self, runtime):
        """A frame many reads long costs its own bytes and the message made
        of them -- not a new, longer copy of everything so far per read."""
        (node,) = _nodes(runtime, 1)
        padding = b"0123456789abcdef" * (1 << 18)   # 4 MB
        stream = (_frame(client_id(0), _Numbered(1))
                  + _frame(client_id(0), _Padded(2, padding))
                  + _frame(client_id(0), _Numbered(3)))
        connection = _Inbound(runtime.network, node)
        with _allocation_peak() as peak:
            _feed(connection, stream, read_limit=1 << 18)
        assert node.numbers == [1, 2, 3]
        assert node.messages[1].padding == padding
        assert node.stats.bytes_received == len(stream)
        assert peak[0] < 3 * len(padding)

    def test_a_read_allocates_what_arrived_not_what_it_could_have_held(self, runtime):
        """Over real sockets: a plain ``asyncio.Protocol`` is handed a
        ``bytes`` allocated at the loop's full read size, 256 KB, for every
        read, however little arrived."""
        sender, receiver = _nodes(runtime, 2)
        sender.send(receiver.node_id, _Numbered(0))
        runtime.run_until(lambda: receiver.numbers == [0], 30_000.0)
        with _allocation_peak() as peak:
            for number in range(1, 101):
                sender.send(receiver.node_id, _Numbered(number))
                runtime.run_until(lambda: len(receiver.messages) == number + 1,
                                  30_000.0)
        assert receiver.numbers == list(range(101))
        assert peak[0] < 64 * 1024

    def test_a_link_is_fifo(self, runtime):
        """1000 frames on one link arrive in order."""
        sender, receiver = _nodes(runtime, 2)
        for number in range(1000):
            sender.send(receiver.node_id, _Numbered(number))
        runtime.run_until(lambda: len(receiver.numbers) == 1000, 30_000.0)
        assert receiver.numbers == list(range(1000))

    def test_tap_substituting_for_one_destination(self, runtime):
        sender, *receivers = _nodes(runtime, 4)
        forged = _Numbered(2)
        runtime.network.add_tap(
            lambda source, destination, message:
            forged if destination == receivers[1].node_id
            else DROP if destination == receivers[2].node_id else None)
        sender.multicast([node.node_id for node in receivers], _Numbered(1))
        runtime.run_until(lambda: receivers[0].numbers and receivers[1].numbers,
                          30_000.0)
        runtime.run(20.0)
        assert [node.numbers for node in receivers] == [[1], [2], []]
        assert runtime.network.transport.frames_sent == 2

    def test_a_multicast_is_encoded_once(self, monkeypatch):
        """One ``encode_frame`` per distinct ``(source, message)`` of a
        fault-free commit, while every destination still gets its frame."""
        timers = TimerConfig(client_retransmit_ms=5_000.0,
                             agreement_retransmit_ms=2_000.0)
        system = SeparatedSystem(
            make_config(runtime=_runtime_config("asyncio"), timers=timers,
                        checkpoint_interval=1_000), KeyValueStore, seed=4)
        try:
            system.invoke(put("warm", "up"), timeout_ms=30_000)
            system.run(30.0)
            sent, encoded = [], []
            codec = system.network.codec
            encode_frame = codec.encode_frame

            def counting(source, message):
                encoded.append((source, message))
                return encode_frame(source, message)

            monkeypatch.setattr(codec, "encode_frame", counting)
            system.network.add_tap(
                lambda source, destination, message: sent.append((source, message)))
            frames = system.network.transport.frames_sent
            system.invoke(put("k", "v"), timeout_ms=30_000)
            system.run(30.0)
            assert system.network.transport.frames_sent - frames == len(sent) == 37
            distinct = {(source, id(message)) for source, message in sent}
            # 19: each execution replica sends the primary its bodiless
            # reply, and the primary relays the certificate to each backup
            # in a frame cut to it (25 when each replica sent each of the
            # four agreement nodes its own frame; 16 when one object went
            # to all four).
            assert len(encoded) == len(distinct) == 19
            assert system.network.transport.frames_delivered == \
                system.network.transport.frames_sent
        finally:
            system.close()

    def test_no_receiver_encodes_what_it_decoded(self, monkeypatch):
        """On one unbatched commit every message nested in a received frame
        -- a request, a reply bundle, a carried reply, an agreement body --
        keeps the bytes it arrived in: whatever the receiver digests,
        checks or sends on is spliced from them, never encoded again."""
        from test_codec import nested_messages

        timers = TimerConfig(client_retransmit_ms=5_000.0,
                             agreement_retransmit_ms=2_000.0)
        system = SeparatedSystem(
            make_config(runtime=_runtime_config("asyncio"), timers=timers,
                        checkpoint_interval=1_000), KeyValueStore, seed=4)
        try:
            system.invoke(put("warm", "up"), timeout_ms=30_000)
            system.run(30.0)
            codec = system.network.codec
            decode_frame, keep = codec.decode_frame, WIRE_CACHE.keep
            decoded, kept = [], []

            def decoding(body):
                sender, message = decode_frame(body)
                decoded.extend((obj, len(kept)) for obj in nested_messages(message))
                return sender, message

            def keeping(memo, data):
                kept.append(memo)
                keep(memo, data)

            monkeypatch.setattr(codec, "decode_frame", decoding)
            monkeypatch.setattr(WIRE_CACHE, "keep", keeping)
            system.invoke(put("k", "v"), timeout_ms=30_000)
            system.run(30.0)
            # 7 requests (the client's 4, 3 forwarded by backups), 3 agreement
            # bodies, 6 + 3 reply bundles and 2 carried replies (12 + 3
            # bundles when every replica sent every agreement node its own)
            assert len(decoded) == 21
            # none was encoded after it was decoded: each was memoised as it
            # was decoded
            assert sum(memo is getattr(obj, "_wire", None)
                       for obj, after in decoded for memo in kept[after:]) == 0
            assert all(getattr(obj, "_wire", None) in kept[:after]
                       for obj, after in decoded)
        finally:
            system.close()

    def test_every_byte_count_is_in_frame_bytes(self, monkeypatch):
        """Sent, on the wire and received are one number on this backend,
        and no message is encoded just to be measured: no message is ever
        asked for its simulated size."""
        sent, sized = [], set()
        wire_size = Message.wire_size

        def counting(message):
            sized.add(id(message))
            return wire_size(message)

        monkeypatch.setattr(Message, "wire_size", counting)
        system = SeparatedSystem(make_config(runtime=_runtime_config("asyncio")),
                                 KeyValueStore, seed=8)
        try:
            system.network.add_tap(
                lambda source, destination, message: sent.append(message))
            _workload(system)
            stats, transport = system.network.stats, system.network.transport
            processes = [system.network.process(node_id)
                         for node_id in system.network.node_ids]
            system.run(30.0)
            system.run_until(      # every frame written handled by its node
                lambda: transport.frames_delivered == transport.frames_sent
                and not any(process._inbox for process in processes), 30_000.0)
            assert stats.sends == transport.frames_sent == len(sent) > 0
            assert (stats.bytes_sent == transport.bytes_on_wire
                    == sum(process.stats.bytes_received for process in processes))
            assert sum(stats.bytes_per_type.values()) == stats.bytes_sent
            # nothing is: a digest is charged by its payload's encoding
            assert not sized
        finally:
            system.close()

    def test_the_simulator_still_counts_canonical_bytes(self):
        sent = []
        system = SeparatedSystem(make_config(), KeyValueStore, seed=8)
        system.network.add_tap(
            lambda source, destination, message: sent.append(message))
        _workload(system)
        stats = system.network.stats
        assert stats.bytes_sent == sum(message.wire_size() for message in sent)
        census = stats.census()
        for name in census:
            of_type = [m for m in sent if m.type_name() == name]
            assert census[name] == {"sends": len(of_type),
                                    "bytes": sum(m.wire_size() for m in of_type)}

    def test_sends_that_reach_nobody_are_counted_once(self, runtime):
        (sender,) = _nodes(runtime, 1)
        network = runtime.network
        size = len(_frame(sender.node_id, _Numbered(1)))
        network.send(sender.node_id, server_id(9), _Numbered(1))   # never registered
        assert (network.stats.sends, network.stats.bytes_sent) == (1, size)
        runtime.close()
        network.send(sender.node_id, sender.node_id, _Numbered(2))  # after close
        assert (network.stats.sends, network.stats.bytes_sent) == (2, 2 * size)
        assert network.stats.census() == {"_Numbered": {"sends": 2, "bytes": 2 * size}}
        assert network.transport.snapshot()["frames_sent"] == 0
        assert network.transport.snapshot()["bytes_on_wire"] == 0

    def test_unreadable_frames_cost_one_connection_not_the_node(self):
        system = SeparatedSystem(make_config(runtime=_runtime_config("asyncio")),
                                 KeyValueStore, seed=6)
        codec = default_codec()
        not_a_message = (client_id(0)._code.to_bytes(4, "little")
                         + bytes([codec.tag_of(Operation)])
                         + codec.encode(Operation, put("c", "3")))
        trailing = codec.encode_frame(client_id(0), _Numbered(1)) + b"\x00"
        junk = [
            b"\x00\x00\x00\x05hello",                        # body is no frame
            len(not_a_message).to_bytes(4, "big") + not_a_message,
            (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"x",   # over-long prefix
            _frame(client_id(0), _Numbered(1)) + b"\xff\xff\xff\xff",
            len(trailing).to_bytes(4, "big") + trailing,       # a byte too many
        ]
        try:
            system.invoke(put("a", "1"), timeout_ms=30_000)
            port = system.network._ports[execution_id(0)]
            for data in junk:
                with socket.create_connection(("127.0.0.1", port)) as sock:
                    sock.sendall(data)
            result = system.invoke(put("b", "2"), timeout_ms=30_000)
            system.run(20.0)
            assert result.result.error is None
            assert system.network.transport.frames_rejected == len(junk)
            states = [node.app.snapshot() for node in system.execution_nodes]
            assert states[0] == states[1] == states[2] == {"a": "1", "b": "2"}
        finally:
            system.close()

    def test_a_connection_carries_one_sender(self, runtime):
        """Links are one per (source, destination), so a frame naming
        another sender than the connection's first one is a forgery: it is
        rejected and that connection closed, and the node reads on."""
        sender, receiver = _nodes(runtime, 2)
        sender.send(receiver.node_id, _Numbered(0))
        runtime.run_until(lambda: receiver.numbers == [0], 30_000.0)
        port = runtime.network._ports[receiver.node_id]
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(_frame(client_id(0), _Numbered(1))
                         + _frame(client_id(0), _Numbered(2))
                         + _frame(sender.node_id, _Numbered(3))
                         + _frame(client_id(0), _Numbered(4)))
            runtime.run_until(
                lambda: runtime.network.transport.frames_rejected == 1, 30_000.0)
            runtime.run(runtime.scheduler.now + 20.0)
            sock.settimeout(10.0)
            assert sock.recv(1) == b""          # closed by the receiver
        assert receiver.numbers == [0, 1, 2]
        assert [type(m) for m in receiver.messages] == [_Numbered] * 3
        sender.send(receiver.node_id, _Numbered(5))
        runtime.run_until(lambda: receiver.numbers == [0, 1, 2, 5], 30_000.0)
        assert runtime.network.transport.frames_rejected == 1

    def test_over_long_message_is_refused_by_the_sender(self, runtime, monkeypatch):
        """The receiver would close the link on it, and every later message
        on that link would be lost with it."""
        sender, receiver = _nodes(runtime, 2)
        small = len(_frame(sender.node_id, _Numbered(1)))
        monkeypatch.setattr(asyncio_rt, "MAX_FRAME_BYTES", small + 10)
        sender.send(receiver.node_id, _Numbered(1))
        sender.send(receiver.node_id, _Padded(2, b"x" * 200))
        sender.send(receiver.node_id, _Numbered(3))
        runtime.run_until(lambda: len(receiver.numbers) == 2, 30_000.0)
        assert receiver.numbers == [1, 3]
        assert runtime.network.transport.frames_rejected == 1
        assert runtime.network.transport.frames_sent == 2


class TestRealTimeScheduler:
    def test_timers_fire_in_order_and_cancel(self):
        scheduler = RealTimeScheduler(seed=0)
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
        scheduler = RealTimeScheduler(seed=0)
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

    def test_a_nan_deadline_is_refused(self):
        """As on the simulator: a NaN deadline is a caller's bug, and armed
        it would fire at once."""
        scheduler = RealTimeScheduler(seed=0)
        fired = []
        try:
            for arm in (lambda: scheduler.call_at(float("nan"), lambda: fired.append(1)),
                        lambda: scheduler.call_after(float("nan"), lambda: fired.append(2)),
                        lambda: scheduler.post(float("nan"), "nan", fired.append, 3)):
                with pytest.raises(SimulationError):
                    arm()
            scheduler.run(until=scheduler.now + 5.0)
        finally:
            scheduler.close()
        assert fired == []
