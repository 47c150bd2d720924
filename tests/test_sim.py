"""Tests for the discrete-event simulation kernel."""

from dataclasses import dataclass
from math import nan

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import LivenessTimeoutError, SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.events import EventQueue
from repro.sim.process import Process
from repro.sim.rand import DeterministicRandom
from repro.sim.scheduler import Scheduler
from repro.net.codec import default_codec
from repro.net.message import Message
from repro.config import NetworkConfig
from repro.net.faults import NetworkFaultModel
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
        scheduler.advance_to(1.0 + 1e-12)
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

    def test_nan_time_is_refused_where_it_enters(self):
        """A NaN deadline compares false with everything: let into the heap
        it breaks the heap order, and a later finite event pops out of turn
        (here: "cannot move the clock backwards from 18.0 to 12.0", raised
        by ``step`` far from the bad call).  Every way in refuses it."""
        scheduler = Scheduler()
        fired = []
        for delay in [6, nan, 6, nan, 13, nan, 5, 18, 19, 15, 12, 18]:
            if delay != delay:
                with pytest.raises(SimulationError):
                    scheduler.call_after(delay, lambda: None)
            else:
                scheduler.call_after(delay, lambda d=delay: fired.append(d))
        for refused in (lambda: scheduler.call_at(nan, lambda: None),
                        lambda: scheduler.post(nan, "deliver:", fired.append, 0),
                        lambda: scheduler.queue.push(nan, lambda: None)):
            with pytest.raises(SimulationError):
                refused()
        scheduler.run()
        assert fired == [5, 6, 6, 12, 13, 15, 18, 18, 19]
        assert scheduler.now == 19.0

    def test_post_calls_with_its_arguments_in_schedule_order(self):
        """The handle-less form: ``callback(*args)`` at ``when``, in
        (time, sequence) order with timers, and never before now."""
        scheduler = Scheduler()
        order = []
        scheduler.post(2.0, "deliver:", order.append, "post-2")
        scheduler.call_at(1.0, lambda: order.append("timer-1"))
        scheduler.post(1.0, "deliver:", order.append, "post-1")
        scheduler.run()
        assert order == ["timer-1", "post-1", "post-2"]
        with pytest.raises(SimulationError):
            scheduler.post(1.0, "deliver:", order.append, "late")

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


@dataclass(frozen=True)
class _EchoMessage(Message):
    text: str


# the simulator sizes what it carries by its encoding: the codec must know it
default_codec().register(_EchoMessage, 210)


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

    def test_one_fault_free_link_does_not_keep_send_order(self):
        """The simulator promises no per-link order: the fault model draws
        each message's propagation delay afresh, so on one link with no
        fault configured a later send overtakes an earlier one.  (Over
        sockets a link is one TCP stream and keeps send order.)"""
        scheduler = Scheduler(seed=2)
        config = NetworkConfig()
        assert not (config.drop_probability or config.duplicate_probability
                    or config.reorder_probability or config.corrupt_probability)
        network = Network(scheduler, faults=NetworkFaultModel(
            config, scheduler.random.fork("network")))
        a = _EchoProcess(client_id(0), scheduler)
        b = _EchoProcess(server_id(0), scheduler)
        network.register(a)
        network.register(b)
        a.send(b.node_id, _EchoMessage("one"))
        a.send(b.node_id, _EchoMessage("two"))
        scheduler.run()
        assert [text for _, text, _ in b.received] == ["two", "one"]


# ---------------------------------------------------------------------- #
# The inbox, against the re-deferring deliveries it replaced.
# ---------------------------------------------------------------------- #

class _Recorder:
    """Stands in for the network: notes when each outbox flush reaches it."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.sent = []

    def send(self, source, destination, message):
        self.sent.append((self.scheduler.now, message.text))


class _ScriptedProcess(Process):
    """Handles item ``name`` as ``script[name] = (cost, timer)`` says: charge
    ``cost``, send one message (unless ``silent``), and -- if ``timer`` is
    ``(delay, item)`` -- set a timer that handles ``item`` in turn."""

    silent = False

    def __init__(self, scheduler, script):
        super().__init__(server_id(0), scheduler)
        self.script = script
        self.attach_network(_Recorder(scheduler))
        #: (start time, item, events_processed at the start)
        self.handled = []

    def on_message(self, sender, message):
        self.handle(message.text)

    def handle(self, item):
        self.handled.append((self.now, item, self.scheduler.events_processed))
        cost, timer = self.script[item]
        self.charge(cost)
        if not self.silent:
            self.send(client_id(0), _EchoMessage(item))
        if timer is not None:
            delay, timer_item = timer
            self.set_timer(delay, lambda: self.handle(timer_item))


class _ReDeferringProcess(_ScriptedProcess):
    """The reference: ``deliver`` / ``fire_timer`` as they were before the
    inbox.  Work that finds the node busy becomes an event of its own at
    ``busy_until`` and schedules itself again each time it finds the node
    still busy.

    ``tied`` is set when fresh work arrives at the very instant parked work
    is due, or the outbox of the handler before it is due to be flushed --
    the one case where this order depended on when each event had been put
    on the queue, and where the inbox (arrival order, after the flush)
    differs.
    """

    def __init__(self, scheduler, script):
        super().__init__(scheduler, script)
        self.waiting = []   # due time of every deferred event not yet fired
        self.tied = False

    def deliver(self, sender, message, size, fresh=True):
        if self.crashed:
            return
        if self._arrives_busy(fresh):
            self._defer(lambda: self.deliver(sender, message, size, fresh=False))
            return
        self.stats.messages_received += 1
        self.stats.bytes_received += size
        self._run_handler(lambda: self.on_message(sender, message))

    def fire_timer(self, callback, fresh=True):
        if self.crashed:
            return
        if self._arrives_busy(fresh):
            self._defer(lambda: self.fire_timer(callback, fresh=False))
            return
        self.stats.timer_fires += 1
        self._run_handler(callback)

    def _arrives_busy(self, fresh):
        # Nothing is ever parked here, so an armed wake is a pending flush,
        # due at ``busy_until``.
        if fresh and (any(due <= self.now + 1e-12 for due in self.waiting)
                      or (self._wake_armed
                          and self._busy_until <= self.now + 1e-12)):
            self.tied = True
        return self._busy_until > self.now + 1e-12 or self._in_handler

    def _defer(self, retry):
        due = max(self._busy_until, self.now)
        self.waiting.append(due)

        def fire():
            self.waiting.remove(due)
            retry()

        self.scheduler.call_at(due, fire, label="deferred-delivery")


def _drive(cls, arrivals, outage=None, silent=False):
    """One node of class ``cls`` fed ``arrivals`` -- ``(time, cost, timer)``
    with ``timer`` None or ``(delay, cost)`` -- and crashed / recovered at
    the two times of ``outage`` (or never)."""
    scheduler = Scheduler(seed=0)
    script = {}
    for index, (_, cost, timer) in enumerate(arrivals):
        script[f"m{index}"] = (cost, timer and (timer[0], f"t{index}"))
        if timer:
            script[f"t{index}"] = (timer[1], None)
    node = cls(scheduler, script)
    node.silent = silent
    if outage:
        scheduler.call_at(outage[0], node.crash)
        scheduler.call_at(outage[1], node.recover)
    for index, (time, _, _) in enumerate(arrivals):
        scheduler.call_at(time, lambda index=index: node.deliver(
            client_id(0), _EchoMessage(f"m{index}"), 10 + index))
    scheduler.run()
    return node


#: zero (a handler that charges nothing runs at the instant it is woken) and
#: costs whose sums seldom land on the half-millisecond grid of the arrivals
_COSTS = st.sampled_from([0.0, 0.0, 0.3, 0.71, 1.93, 4.37])
_TIMERS = st.one_of(st.none(), st.tuples(
    st.sampled_from([0.0, 0.21, 1.3, 5.1]), _COSTS))
_ARRIVALS = st.lists(
    st.tuples(st.integers(0, 24).map(lambda tick: tick * 0.5), _COSTS, _TIMERS),
    min_size=1, max_size=14)
_OUTAGES = st.one_of(st.none(), st.tuples(
    st.integers(0, 40), st.integers(1, 40)).map(
        lambda pair: (pair[0] * 0.25 + 0.1, (pair[0] + pair[1]) * 0.25 + 0.1)))


#: a timer falls due at the instant (the last one: to the ulp, 8.399999999999999
#: against 8.4) the handler before it is due to flush its outbox
_FLUSH_TIES = (
    [(0.5, 0.0, (1.3, 0.0)), (1.5, 0.0, (0.0, 0.3))],
    [(0.0, 0.3, (1.3, 0.3)), (0.0, 0.0, (1.3, 0.0))],
    [(3.0, 0.3, (5.1, 0.3)), (3.0, 0.0, (5.1, 0.0))],
)


class TestInbox:
    @given(_ARRIVALS, _OUTAGES)
    @example(_FLUSH_TIES[0], None)
    @example(_FLUSH_TIES[1], None)
    @example(_FLUSH_TIES[2], None)
    @settings(max_examples=300, deadline=None)
    def test_same_handlers_at_the_same_times_as_re_deferring(self, arrivals, outage):
        reference = _drive(_ReDeferringProcess, arrivals, outage)
        assume(not reference.tied)
        node = _drive(_ScriptedProcess, arrivals, outage)
        assert ([entry[:2] for entry in node.handled]
                == [entry[:2] for entry in reference.handled])
        assert node.stats == reference.stats
        assert node.network.sent == reference.network.sent   # flush times
        assert not node._inbox
        # one handler per scheduler event, none before the node is free
        stamps = [entry[2] for entry in node.handled]
        assert len(set(stamps)) == len(stamps)
        for (start, item, _), (next_start, _, _) in zip(node.handled, node.handled[1:]):
            assert next_start >= start + node.script[item][0] - 1e-9

    def test_work_arriving_as_the_node_frees_up_queues_behind_the_parked(self):
        """The tie the property test leaves out: ``m2`` arrives at the very
        instant the node is due to take up the parked ``m1``.  Its event was
        put on the queue first, so re-deferring ran it first; the inbox runs
        what arrived first."""
        arrivals = [(0.0, 2.0, None), (1.0, 1.0, None), (2.0, 1.0, None)]
        reference = _drive(_ReDeferringProcess, arrivals)
        node = _drive(_ScriptedProcess, arrivals)
        assert reference.tied
        assert [item for _, item, _ in reference.handled] == ["m0", "m2", "m1"]
        assert [(time, item) for time, item, _ in node.handled] == [
            (0.0, "m0"), (2.0, "m1"), (3.0, "m2")]

    @pytest.mark.parametrize("arrivals, sent, reference_sent", [
        (_FLUSH_TIES[0], ["m0", "m1", "t1", "t0"], ["m0", "m1", "t0", "t1"]),
        (_FLUSH_TIES[1], ["m0", "m1", "t0", "t1"], ["m0", "m1", "t1", "t0"]),
        (_FLUSH_TIES[2], ["m0", "m1", "t0", "t1"], ["m0", "m1", "t1", "t0"]),
    ])
    def test_work_arriving_as_an_outbox_is_due_runs_after_the_flush(
            self, arrivals, sent, reference_sent):
        """The same tie against a flush: a timer falls due at the instant
        the handler before it is due to send.  Its event was put on the
        queue first, so re-deferring ran (and, costing nothing, sent) it
        first; the inbox ends the busy period -- flush included -- before
        it takes up anything new."""
        reference = _drive(_ReDeferringProcess, arrivals)
        node = _drive(_ScriptedProcess, arrivals)
        assert reference.tied
        assert [item for _, item in reference.network.sent] == reference_sent
        assert [item for _, item in node.network.sent] == sent
        # a handler's sends leave at the end of its own busy period
        ends = {item: start + node.script[item][0]
                for start, item, _ in node.handled}
        assert [time for time, _ in node.network.sent] == pytest.approx(
            [ends[item] for item in sent])

    @pytest.mark.parametrize("silent", [True, False])
    @pytest.mark.parametrize("parked", [1, 5, 12])
    def test_a_busy_period_ends_in_one_event(self, parked, silent):
        """``k`` messages parked behind one handler: a wake each, and the
        wake is the event that flushes what the handler before it sent --
        where re-deferring paid a flush per handler and ``k(k+1)/2``
        deferrals."""
        arrivals = [(0.0, 10.0, None)] + [(0.5 + 0.5 * index, 10.0, None)
                                          for index in range(parked)]
        node = _drive(_ScriptedProcess, arrivals, silent=silent)
        reference = _drive(_ReDeferringProcess, arrivals, silent=silent)
        # silent: nothing to flush.  Otherwise the last handler's flush has
        # no wake to ride on.
        assert node.scheduler.events_processed == (
            (parked + 1) + parked + (0 if silent else 1))
        assert reference.scheduler.events_processed == (
            (parked + 1) + parked * (parked + 1) // 2
            + (0 if silent else parked + 1))
        assert [time for time, _, _ in node.handled] == [
            10.0 * index for index in range(parked + 1)]
        assert node.network.sent == reference.network.sent

    def test_zero_cost_handlers_still_get_an_event_each(self):
        arrivals = [(0.0, 5.0, None)] + [(1.0, 0.0, None)] * 4
        node = _drive(_ScriptedProcess, arrivals)
        assert [time for time, _, _ in node.handled] == [0.0] + [5.0] * 4
        stamps = [stamp for _, _, stamp in node.handled]
        assert stamps == sorted(set(stamps))

    def test_parked_timer_is_counted_once_and_runs_inside_fire_timer(self):
        scheduler = Scheduler(seed=0)
        inside = []

        class Probed(_ScriptedProcess):
            depth = 0

            def fire_timer(self, callback):
                Probed.depth += 1
                try:
                    super().fire_timer(callback)
                finally:
                    Probed.depth -= 1

        node = Probed(scheduler, {"work": (5.0, None)})
        node.deliver(client_id(0), _EchoMessage("work"), 1)
        node.set_timer(1.0, lambda: inside.append((node.now, Probed.depth)))
        scheduler.run()
        assert inside == [(5.0, 1)]   # parked at 1.0, run at 5.0, wrapper on the stack
        assert node.stats.timer_fires == 1
        assert node.stats.handler_invocations == 2

    def test_wake_of_a_crashed_node_drops_its_inbox(self):
        scheduler = Scheduler(seed=0)
        node = _ScriptedProcess(scheduler, {"a": (5.0, None), "b": (1.0, None),
                                            "c": (1.0, None), "d": (1.0, None)})
        node.deliver(client_id(0), _EchoMessage("a"), 1)
        scheduler.call_at(1.0, lambda: node.deliver(client_id(0), _EchoMessage("b"), 1))
        scheduler.call_at(2.0, lambda: node.deliver(client_id(0), _EchoMessage("c"), 1))
        scheduler.call_at(3.0, node.crash)
        scheduler.call_at(8.0, node.recover)
        scheduler.call_at(9.0, lambda: node.deliver(client_id(0), _EchoMessage("d"), 1))
        scheduler.run()
        assert [(time, item) for time, item, _ in node.handled] == [(0.0, "a"), (9.0, "d")]
        assert not node._inbox
        assert node.stats.messages_received == 2

    def test_delivery_inside_a_handler_waits_for_it_to_end(self):
        scheduler = Scheduler(seed=0)
        order = []

        class Reentrant(_ScriptedProcess):
            def handle(self, item):
                order.append(("start", item, self.now))
                if item == "outer":
                    self.deliver(client_id(0), _EchoMessage("inner"), 1)
                super().handle(item)
                order.append(("end", item))

        node = Reentrant(scheduler, {"outer": (2.0, None), "inner": (0.0, None)})
        node.deliver(client_id(0), _EchoMessage("outer"), 1)
        scheduler.run()
        assert order == [("start", "outer", 0.0), ("end", "outer"),
                         ("start", "inner", 2.0), ("end", "inner")]
