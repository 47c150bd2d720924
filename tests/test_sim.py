"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import LivenessTimeoutError, SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue
from repro.sim.process import Process
from repro.sim.rand import DeterministicRandom
from repro.sim.scheduler import Scheduler
from repro.net.message import Message
from repro.net.network import Network
from repro.util.ids import client_id, server_id


class TestClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advances_monotonically(self):
        clock = VirtualClock()
        clock.advance_to(5.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_cannot_start_negative(self):
        with pytest.raises(SimulationError):
            VirtualClock(start=-1.0)


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(5.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(9.0, lambda: order.append("c"))
        while True:
            event = queue.pop()
            if event is None:
                break
            event.callback()
        assert order == ["a", "b", "c"]

    def test_same_time_fires_in_schedule_order(self):
        queue = EventQueue()
        order = []
        for i in range(5):
            queue.push(1.0, lambda i=i: order.append(i))
        while queue.pop() is not None:
            pass
        # callbacks were not invoked above; re-check ordering via sequence field
        queue2 = EventQueue()
        events = [queue2.push(1.0, lambda: None) for _ in range(5)]
        assert [e.sequence for e in events] == sorted(e.sequence for e in events)

    def test_heap_order_never_consults_an_event(self):
        """Entries are ordered by (time, sequence) alone: events define no
        ordering of their own, so no comparison can reach Python code."""
        queue = EventQueue()
        pushed = [queue.push(float(t), lambda: None) for t in (2, 1, 1, 3, 1, 2)]
        assert type(pushed[0]).__lt__ is object.__lt__
        popped = [queue.pop() for _ in pushed]
        assert [(e.time, e.sequence) for e in popped] == sorted(
            (e.time, e.sequence) for e in pushed)
        assert pushed[1] != pushed[2] and len(set(pushed)) == len(pushed)

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, lambda: fired.append(1))
        queue.push(2.0, lambda: fired.append(2))
        event.cancel()
        while True:
            popped = queue.pop()
            if popped is None:
                break
            popped.callback()
        assert fired == [2]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(-1.0, lambda: None)

    def test_bool_and_peek(self):
        queue = EventQueue()
        assert not queue
        queue.push(3.0, lambda: None)
        assert queue
        assert queue.peek_time() == 3.0

    def test_len_tracks_live_events(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        assert len(queue) == 10
        for event in events[:4]:
            event.cancel()
        assert len(queue) == 6
        while queue.pop() is not None:
            pass
        assert len(queue) == 0

    def test_double_cancel_and_cancel_after_pop_keep_count_exact(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        other = queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1
        popped = queue.pop()
        assert popped is other
        popped.cancel()  # cancelling a popped event must not underflow
        assert len(queue) == 0

    def test_compaction_bounds_heap_growth(self):
        """Mass-cancelled retransmit timers are compacted out of the heap."""
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None, label="retransmit")
                  for i in range(400)]
        for i, event in enumerate(events):
            if i % 8 != 0:
                event.cancel()
        live = len(queue)
        assert live == 50
        # Lazy deletion alone would leave 400 entries; compaction keeps the
        # heap within a constant factor of the live count.
        assert queue.heap_size <= 2 * live + 64
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(popped)
        assert len(popped) == live


class TestScheduler:
    def test_call_after_advances_clock(self):
        scheduler = Scheduler()
        fired = []
        scheduler.call_after(10.0, lambda: fired.append(scheduler.now))
        scheduler.run()
        assert fired == [10.0]
        assert scheduler.now == 10.0

    def test_timer_scheduled_for_current_instant_is_active(self):
        """A zero-delay timer is active until the scheduler actually runs
        it -- liveness is explicit event state, not a time comparison."""
        scheduler = Scheduler()
        fired = []
        timer = scheduler.call_after(0.0, lambda: fired.append(scheduler.now))
        assert timer.active
        scheduler.step()
        assert fired == [0.0]
        assert not timer.active

    def test_timer_active_survives_clock_noise(self):
        """An unfired, uncancelled timer stays active even if the clock has
        crept a hair past its deadline (the old ``now - 1e-9`` comparison
        misreported exactly this case)."""
        scheduler = Scheduler()
        timer = scheduler.call_after(1.0, lambda: None)
        scheduler.clock.advance_to(1.0 + 1e-12)
        assert timer.active
        timer.cancel()
        assert not timer.active

    def test_timer_checked_from_simultaneous_event_is_active(self):
        """Two events at the same instant: while the first runs, the second
        (same deadline, unfired) must still report active."""
        scheduler = Scheduler()
        seen = []
        second = {}

        def first():
            seen.append(second["timer"].active)

        def runs_later():
            seen.append("fired")

        first_timer = scheduler.call_at(5.0, first)
        second["timer"] = scheduler.call_at(5.0, runs_later)
        scheduler.run()
        assert seen == [True, "fired"]
        assert not first_timer.active

    def test_run_until_time_bound(self):
        scheduler = Scheduler()
        fired = []
        scheduler.call_after(5.0, lambda: fired.append("early"))
        scheduler.call_after(50.0, lambda: fired.append("late"))
        scheduler.run(until=10.0)
        assert fired == ["early"]
        assert scheduler.now == 10.0

    def test_run_until_predicate(self):
        scheduler = Scheduler()
        state = {"done": False}
        scheduler.call_after(3.0, lambda: state.update(done=True))
        scheduler.run_until(lambda: state["done"], timeout=100.0)
        assert state["done"]

    def test_run_until_raises_on_timeout(self):
        scheduler = Scheduler()
        scheduler.call_after(500.0, lambda: None)
        with pytest.raises(LivenessTimeoutError):
            scheduler.run_until(lambda: False, timeout=10.0)

    def test_cannot_schedule_in_the_past(self):
        scheduler = Scheduler()
        scheduler.call_after(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.call_at(1.0, lambda: None)

    def test_timer_cancellation(self):
        scheduler = Scheduler()
        fired = []
        timer = scheduler.call_after(5.0, lambda: fired.append(1))
        timer.cancel()
        scheduler.run()
        assert fired == []

    def test_chained_events(self):
        scheduler = Scheduler()
        trace = []

        def first():
            trace.append(("first", scheduler.now))
            scheduler.call_after(2.0, second)

        def second():
            trace.append(("second", scheduler.now))

        scheduler.call_after(1.0, first)
        scheduler.run()
        assert trace == [("first", 1.0), ("second", 3.0)]


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a = DeterministicRandom(42)
        b = DeterministicRandom(42)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_forks_are_independent(self):
        root = DeterministicRandom(1)
        fork_a = root.fork("net")
        fork_b = root.fork("workload")
        seq_b = [fork_b.random() for _ in range(5)]
        # Consuming from fork_a must not change fork_b's future values.
        root2 = DeterministicRandom(1)
        fa2 = root2.fork("net")
        fb2 = root2.fork("workload")
        for _ in range(100):
            fa2.random()
        assert seq_b == [fb2.random() for _ in range(5)]

    def test_chance_extremes(self):
        rng = DeterministicRandom(3)
        assert not rng.chance(0.0)
        assert rng.chance(1.0)

    def test_uniform_bounds(self):
        rng = DeterministicRandom(5)
        for _ in range(100):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value <= 3.0

    def test_exponential_non_negative(self):
        rng = DeterministicRandom(5)
        assert rng.exponential(0.0) == 0.0
        assert all(rng.exponential(2.0) >= 0.0 for _ in range(50))


class _EchoMessage(Message):
    def __init__(self, text: str) -> None:
        self.text = text

    def payload_fields(self):
        return {"text": self.text}


class _EchoProcess(Process):
    def __init__(self, node_id, scheduler, cost_ms=0.0):
        super().__init__(node_id, scheduler)
        self.received = []
        self.cost_ms = cost_ms

    def on_message(self, sender, message):
        self.received.append((sender, message.text, self.now))
        self.charge(self.cost_ms)


class TestProcess:
    def _build(self, cost_ms=0.0):
        scheduler = Scheduler(seed=1)
        network = Network(scheduler)
        a = _EchoProcess(client_id(0), scheduler, cost_ms)
        b = _EchoProcess(server_id(0), scheduler, cost_ms)
        network.register(a)
        network.register(b)
        return scheduler, network, a, b

    def test_send_and_receive(self):
        scheduler, network, a, b = self._build()
        a.send(b.node_id, _EchoMessage("hello"))
        scheduler.run()
        assert len(b.received) == 1
        assert b.received[0][1] == "hello"
        assert b.stats.messages_received == 1
        assert a.stats.messages_sent == 1

    def test_processing_cost_serializes_the_node(self):
        scheduler, network, a, b = self._build(cost_ms=10.0)
        a.send(b.node_id, _EchoMessage("one"))
        a.send(b.node_id, _EchoMessage("two"))
        scheduler.run()
        assert len(b.received) == 2
        first_time = b.received[0][2]
        second_time = b.received[1][2]
        # The second message cannot start processing until the first's 10 ms
        # charge has elapsed.
        assert second_time >= first_time + 10.0
        assert b.stats.busy_ms == pytest.approx(20.0)

    def test_crashed_node_receives_nothing(self):
        scheduler, network, a, b = self._build()
        b.crash()
        a.send(b.node_id, _EchoMessage("lost"))
        scheduler.run()
        assert b.received == []

    def test_crashed_node_sends_nothing(self):
        scheduler, network, a, b = self._build()
        a.crash()
        a.send(b.node_id, _EchoMessage("lost"))
        scheduler.run()
        assert b.received == []

    def test_timers_respect_busy_time(self):
        scheduler, network, a, b = self._build(cost_ms=5.0)
        fired = []
        a.send(b.node_id, _EchoMessage("work"))
        b.set_timer(0.01, lambda: fired.append(b.now))
        scheduler.run()
        assert len(fired) == 1

    def test_negative_charge_rejected(self):
        scheduler, network, a, b = self._build()
        with pytest.raises(SimulationError):
            a.charge(-1.0)

    def test_utilization(self):
        scheduler, network, a, b = self._build(cost_ms=10.0)
        a.send(b.node_id, _EchoMessage("one"))
        scheduler.run()
        assert 0.0 < b.stats.utilization(scheduler.now + 100.0) <= 1.0
