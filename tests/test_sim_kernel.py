"""Tests for the shared discrete-event kernel (`repro.sim.kernel`)."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profile import KernelProfiler
from repro.sim.kernel import Event, PeriodicProcess, SimulationKernel


def collect(kernel, kinds):
    log = []
    for kind in kinds:
        kernel.on(kind, lambda event, k=kind: log.append((event.time, k, dict(event.data))))
    return log


class TestEventOrdering:
    def test_events_fire_in_time_order(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["a", "b", "c"])
        kernel.schedule(3.0, "c")
        kernel.schedule(1.0, "a")
        kernel.schedule(2.0, "b")
        kernel.run()
        assert [entry[1] for entry in log] == ["a", "b", "c"]

    def test_same_time_ties_break_by_schedule_order(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["first", "second", "third"])
        kernel.schedule(1.0, "first")
        kernel.schedule(1.0, "second")
        kernel.schedule(1.0, "third")
        kernel.run()
        assert [entry[1] for entry in log] == ["first", "second", "third"]

    def test_clock_is_monotonic_and_tracks_events(self):
        kernel = SimulationKernel()
        times = []
        kernel.on("tick", lambda event: times.append(kernel.now))
        for t in (0.5, 1.5, 1.5, 4.0):
            kernel.schedule(t, "tick")
        kernel.run()
        assert times == sorted(times)
        assert kernel.now == 4.0

    def test_events_scheduled_from_handlers_interleave(self):
        kernel = SimulationKernel()
        log = []

        def on_spawn(event):
            log.append(("spawn", kernel.now))
            if kernel.now < 3.0:
                kernel.schedule_in(1.0, "spawn")

        kernel.on("spawn", on_spawn)
        kernel.schedule(1.0, "spawn")
        kernel.run()
        assert log == [("spawn", 1.0), ("spawn", 2.0), ("spawn", 3.0)]

    def test_missing_handler_raises(self):
        kernel = SimulationKernel()
        kernel.schedule(1.0, "unknown")
        with pytest.raises(KeyError):
            kernel.run()

    def test_default_handler_catches_unregistered_kinds(self):
        kernel = SimulationKernel()
        seen = []
        kernel.on_default(lambda event: seen.append(event.kind))
        kernel.schedule(1.0, "anything")
        kernel.run()
        assert seen == ["anything"]


class TestPeekStepCancelPause:
    def test_peek_returns_next_time_without_executing(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        kernel.schedule(2.5, "x")
        assert kernel.peek() == 2.5
        assert log == []
        assert kernel.now == 0.0

    def test_peek_empty_returns_none(self):
        assert SimulationKernel().peek() is None

    def test_step_executes_exactly_one_event(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        kernel.schedule(1.0, "x")
        kernel.schedule(2.0, "x")
        event = kernel.step()
        assert isinstance(event, Event)
        assert len(log) == 1
        assert kernel.now == 1.0
        assert kernel.step() is not None
        assert kernel.step() is None

    def test_cancelled_events_are_skipped(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["keep", "drop"])
        kernel.schedule(1.0, "keep")
        handle = kernel.schedule(2.0, "drop")
        kernel.schedule(3.0, "keep")
        kernel.cancel(handle)
        kernel.run()
        assert [entry[1] for entry in log] == ["keep", "keep"]

    def test_run_until_leaves_later_events_queued(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, "x")
        executed = kernel.run(until=2.0)
        assert executed == 2
        assert kernel.peek() == 3.0
        kernel.run()
        assert len(log) == 3

    def test_run_max_events(self):
        kernel = SimulationKernel()
        collect(kernel, ["x"])
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, "x")
        assert kernel.run(max_events=2) == 2
        assert kernel.peek() == 3.0

    def test_pause_from_handler_stops_run(self):
        kernel = SimulationKernel()
        log = []

        def handler(event):
            log.append(kernel.now)
            kernel.pause()

        kernel.on("x", handler)
        kernel.schedule(1.0, "x")
        kernel.schedule(2.0, "x")
        assert kernel.run() == 1
        assert log == [1.0]
        assert kernel.run() == 1  # resumes where it left off
        assert log == [1.0, 2.0]

    def test_run_stop_predicate(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["x"])
        for t in (1.0, 2.0, 3.0):
            kernel.schedule(t, "x")
        kernel.run(stop=lambda: len(log) >= 2)
        assert len(log) == 2


class _CountdownProcess:
    """A polled process firing at fixed times (co-simulation stand-in)."""

    def __init__(self, fire_times):
        self.remaining = list(fire_times)
        self.fired = []

    def next_event_time(self, now):
        return self.remaining[0] if self.remaining else None

    def handle(self, now):
        self.fired.append(now)
        self.remaining.pop(0)


class TestPolledProcesses:
    def test_process_events_interleave_with_heap_events(self):
        kernel = SimulationKernel()
        log = collect(kernel, ["heap"])
        process = _CountdownProcess([1.5, 3.5])
        kernel.add_process(process)
        kernel.schedule(1.0, "heap")
        kernel.schedule(2.0, "heap")
        kernel.run()
        assert process.fired == [1.5, 3.5]
        assert [entry[0] for entry in log] == [1.0, 2.0]
        assert kernel.now == 3.5

    def test_heap_event_wins_exact_time_tie(self):
        kernel = SimulationKernel()
        order = []
        kernel.on("heap", lambda event: order.append("heap"))

        class TieProcess:
            def __init__(self):
                self.done = False

            def next_event_time(self, now):
                return None if self.done else 1.0

            def handle(self, now):
                order.append("process")
                self.done = True

        kernel.add_process(TieProcess())
        kernel.schedule(1.0, "heap")
        kernel.run()
        assert order == ["heap", "process"]

    def test_peek_sees_process_times(self):
        kernel = SimulationKernel()
        kernel.add_process(_CountdownProcess([0.75]))
        assert kernel.peek() == 0.75


class TestPeriodicProcess:
    def test_fixed_grid_ticks(self):
        from repro.sim.kernel import PeriodicProcess, SimulationKernel

        ticks = []
        kernel = SimulationKernel()
        kernel.add_process(PeriodicProcess(3.0, ticks.append))
        kernel.run(until=9.0)
        assert ticks == [0.0, 3.0, 6.0, 9.0]

    def test_unbounded_run_terminates_when_only_periodic_ticks_remain(self):
        from repro.sim.kernel import PeriodicProcess, SimulationKernel

        ticks = []
        kernel = SimulationKernel()
        kernel.add_process(PeriodicProcess(1.0, ticks.append))
        kernel.on("work", lambda event: None)
        kernel.schedule(2.5, "work")
        executed = kernel.run()  # no until bound: must not spin forever
        # Periodic ticks interleave while heap work remains, then the run stops.
        assert executed >= 1
        assert kernel.now <= 2.5
        assert all(t <= 2.5 for t in ticks)

    def test_unbounded_run_with_only_periodic_process_executes_nothing(self):
        from repro.sim.kernel import PeriodicProcess, SimulationKernel

        kernel = SimulationKernel()
        kernel.add_process(PeriodicProcess(1.0, lambda now: None))
        assert kernel.run() == 0

    def test_invalid_interval(self):
        import pytest

        from repro.sim.kernel import PeriodicProcess

        with pytest.raises(ValueError):
            PeriodicProcess(0.0, lambda now: None)


class TestWakeupContract:
    def test_next_event_time_is_asked_at_registration_and_after_each_handle_only(self):
        kernel = SimulationKernel()
        kernel.on("heap", lambda event: None)
        for t in (0.5, 1.0, 1.25, 2.0, 2.5):
            kernel.schedule(t, "heap")
        process = _CountdownProcess([1.0, 2.0, 3.0])
        polls = []
        poll = process.next_event_time
        process.next_event_time = lambda now: polls.append(now) or poll(now)
        kernel.add_process(process)
        assert polls == [0.0]
        kernel.run()
        # One poll per handle (the last answers None), none per heap event.
        assert polls == [0.0, 1.0, 2.0, 3.0]
        assert process.fired == [1.0, 2.0, 3.0]

    def test_process_answering_none_is_never_woken_again(self):
        kernel = SimulationKernel()
        process = _CountdownProcess([])
        kernel.add_process(process)
        process.remaining.append(1.0)  # too late: the state did not change in handle
        assert kernel.peek() is None
        assert kernel.run() == 0
        assert process.fired == []

    def test_rearm_applies_a_change_made_outside_handle(self):
        kernel = SimulationKernel()
        process = _CountdownProcess([])
        kernel.add_process(process)
        process.remaining.append(1.0)
        kernel.rearm(process)
        assert kernel.peek() == 1.0
        assert kernel.run() == 1
        assert process.fired == [1.0]

    def test_rearm_supersedes_the_pending_wakeup(self):
        kernel = SimulationKernel()
        process = _CountdownProcess([5.0])
        kernel.add_process(process)
        process.remaining[0] = 2.0
        kernel.rearm(process)
        process.remaining[:] = []
        kernel.rearm(process)  # answers None: nothing stays pending
        assert kernel.peek() is None
        assert kernel.step() is None
        assert kernel.run() == 0
        assert kernel.now == 0.0
        assert process.fired == []

    def test_rearm_from_a_heap_event_at_a_grid_instant_still_ticks_after_its_events(self):
        kernel = SimulationKernel()
        log = []
        grid = PeriodicProcess(1.0, lambda now: log.append(("tick", now)))
        kernel.add_process(grid)

        def rearming(event):
            log.append(("a", event.time))
            kernel.rearm(grid)

        kernel.on("a", rearming)
        kernel.on("b", lambda event: log.append(("b", event.time)))
        kernel.schedule(2.0, "a")
        kernel.schedule(2.0, "b")
        assert kernel.run(until=3.0) == 6
        assert log == [
            ("tick", 0.0), ("tick", 1.0), ("a", 2.0), ("b", 2.0), ("tick", 2.0), ("tick", 3.0),
        ]

    def test_rearm_from_a_higher_ranked_handle_does_not_tick_twice(self):
        kernel = SimulationKernel()
        log = []
        low = PeriodicProcess(1.0, lambda now: log.append(("low", now)))

        def high_tick(now):
            log.append(("high", now))
            kernel.rearm(low)  # low already ticked at this instant

        kernel.add_process(low)
        kernel.add_process(PeriodicProcess(1.0, high_tick))
        assert kernel.run(until=2.0) == 6
        assert log == [
            ("low", 0.0), ("high", 0.0), ("low", 1.0), ("high", 1.0), ("low", 2.0), ("high", 2.0),
        ]

    def test_superseded_wakeups_keep_the_nonperiodic_count_exact(self):
        kernel = SimulationKernel()
        process = _CountdownProcess([1.0])
        kernel.add_process(process)
        kernel.add_process(PeriodicProcess(1.0, lambda now: None))
        for _ in range(3):
            kernel.rearm(process)
        assert kernel._nonperiodic_wakeups == 1
        # One non-periodic wakeup keeps an unbounded run going through it.
        # Periodic at 0.0, the process at 1.0; then only periodic ticks remain.
        assert kernel.run() == 2
        assert process.fired == [1.0]
        assert kernel._nonperiodic_wakeups == 0
        assert kernel.run() == 0

    def test_profiler_installed_after_registration_wraps_existing_entries(self):
        kernel = SimulationKernel()
        kernel.on("a", lambda event: None)
        kernel.on_default(lambda event: None)
        kernel.add_process(_CountdownProcess([1.5]))
        profiler = KernelProfiler().install(kernel)
        kernel.schedule(1.0, "a")
        kernel.schedule(2.0, "other")
        assert kernel.run() == 3
        profile = profiler.snapshot()
        assert profile.count_of("a") == profile.count_of("other") == 1
        assert profile.count_of("process:_CountdownProcess") == profile.process_events == 1
        kernel.set_profiler(None)
        kernel.schedule(3.0, "a")
        kernel.run()
        assert profiler.snapshot().count_of("a") == 1


# ----------------------------------------------------------------------
# Equivalence with a brute-force kernel that polls every process per event
# ----------------------------------------------------------------------


class _PollingKernel:
    """Reference semantics: every process is polled before every event.

    Heap events win exact-time ties against processes, and among processes
    the first registered wins.  Without an ``until`` bound a run stops once
    the heap is empty and every pending process is periodic.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._now = 0.0
        self._handlers = {}
        self._default = None
        self._processes = []
        self._paused = False

    @property
    def now(self):
        return self._now

    def on(self, kind, handler):
        self._handlers[kind] = handler

    def on_default(self, handler):
        self._default = handler

    def add_process(self, process):
        self._processes.append(process)

    def rearm(self, process):
        """Nothing to do: every process is polled before every event anyway."""

    def schedule(self, time_s, kind, data=None):
        event = Event(float(time_s), self._seq, kind, {} if data is None else data)
        self._seq += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def schedule_in(self, delay_s, kind, data=None):
        return self.schedule(self._now + delay_s, kind, data)

    def cancel(self, event):
        event.cancelled = True

    def pause(self):
        self._paused = True

    def _next(self):
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        best, best_time = None, float("inf")
        for process in self._processes:
            t = process.next_event_time(self._now)
            if t is not None and t < best_time:
                best, best_time = process, t
        if self._heap and (best is None or self._heap[0][0] <= best_time):
            return self._heap[0][0], None
        return (best_time, best) if best is not None else (None, None)

    def _fire(self, time_s, process):
        self._now = max(self._now, time_s)
        if process is not None:
            process.handle(time_s)
            return Event(self._now, -1, "process", {"process": process})
        event = heapq.heappop(self._heap)[2]
        self._handlers.get(event.kind, self._default)(event)
        return event

    def peek(self):
        return self._next()[0]

    def step(self):
        time_s, process = self._next()
        return None if time_s is None else self._fire(time_s, process)

    def run(self, until=None, max_events=None, stop=None):
        self._paused = False
        executed = 0
        while max_events is None or executed < max_events:
            time_s, process = self._next()
            if time_s is None or (until is not None and time_s > until):
                break
            if until is None and not self._heap:
                pending = [p for p in self._processes if p.next_event_time(self._now) is not None]
                if all(getattr(p, "periodic", False) for p in pending):
                    break
            self._fire(time_s, process)
            executed += 1
            if self._paused or (stop is not None and stop()):
                break
        return executed


class _StatefulProcess:
    """Non-periodic process whose next wake moves only inside its own handle."""

    def __init__(self, log, name, start_s, delays):
        self._log = log
        self._name = name
        self._next_s = start_s
        self._delays = list(delays)

    def next_event_time(self, now):
        return self._next_s

    def handle(self, now):
        self._log.append((self._name, now))
        self._next_s = now + self._delays.pop(0) if self._delays else None

    def retarget(self, now, delay):
        """Move the next wake from outside ``handle`` (the caller then rearms)."""
        self._next_s = None if delay is None else now + delay


#: A coarse time grid so heap events, periodic grids and process wakeups collide.
_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.5])
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.5])
_PROCESS = st.one_of(
    st.tuples(st.just("periodic"), st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.sampled_from([0.0, 0.5, 1.0])),
    st.tuples(st.just("stateful"), _TIMES, st.lists(_DELAYS, max_size=4)),
    # A periodic process whose ticks run actions (rearms included), so
    # rearm is also called from process handles, not only heap events.
    st.tuples(st.just("acting"), st.sampled_from([1.0, 1.5]), st.sampled_from([0.0, 0.5]), st.integers(0, 7)),
)
_ACTION = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS, st.sampled_from(["a", "b", "c"])),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("pause")),
    st.tuples(st.just("add_process"), _PROCESS),
    st.tuples(st.just("rearm"), st.integers(0, 7), st.one_of(st.none(), _DELAYS)),
)
_DRIVE = st.one_of(
    st.tuples(st.just("schedule"), _TIMES, st.sampled_from(["a", "b", "c"])),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("add_process"), _PROCESS),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), _TIMES, st.just(6.0)),
        st.one_of(st.none(), st.integers(0, 6)),
        st.one_of(st.none(), st.integers(1, 30)),
    ),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
    st.tuples(st.just("rearm"), st.integers(0, 7), st.one_of(st.none(), _DELAYS)),
)


class _Scenario:
    """Drives one kernel through a generated program; records what it saw."""

    MAX_SCHEDULED = 60
    #: Rearms retarget non-periodic processes; unbounded, an acting periodic
    #: process could keep one pending forever and an unbounded run would
    #: never end.
    MAX_REARMS = 40
    #: Acting processes may add processes on every tick; the ones added
    #: from ticks are bounded for the same reason.  (Heap events add them
    #: without a cap: there are at most ``MAX_SCHEDULED`` events.)
    MAX_TICK_PROCESSES = 12

    def __init__(self, kernel, actions):
        self.kernel = kernel
        self.actions = actions
        self.log = []
        self.handles = []
        self.processes = []
        self.tick_processes = 0
        self.rearms = 0
        kernel.on("a", self._fire)
        kernel.on("b", self._fire)
        kernel.on_default(self._fire)  # kind "c"

    def _fire(self, event):
        self.log.append(("event", event.data["id"], event.time, self.kernel.now))
        for action in self.actions[event.data["id"] % len(self.actions)]:
            self.apply(action)

    def _schedule(self, time_s, kind, relative):
        if len(self.handles) >= self.MAX_SCHEDULED:
            return
        data = {"id": len(self.handles)}
        schedule = self.kernel.schedule_in if relative else self.kernel.schedule
        self.handles.append(schedule(time_s, kind, data))

    def _add_process(self, spec, from_tick):
        if from_tick:
            if self.tick_processes >= self.MAX_TICK_PROCESSES:
                return
            self.tick_processes += 1
        name = f"p{len(self.processes)}"
        log = self.log
        if spec[0] == "periodic":
            process = PeriodicProcess(
                spec[1], lambda now: log.append((name, now)), start_s=spec[2]
            )
        elif spec[0] == "acting":
            actions = self.actions[spec[3] % len(self.actions)]

            def act(now):
                log.append((name, now))
                for action in actions:
                    self.apply(action, from_tick=True)

            process = PeriodicProcess(spec[1], act, start_s=spec[2])
        else:
            process = _StatefulProcess(self.log, name, spec[1], spec[2])
        self.processes.append(process)
        self.kernel.add_process(process)

    def _rearm(self, index, delay):
        if not self.processes or self.rearms >= self.MAX_REARMS:
            return
        self.rearms += 1
        process = self.processes[index % len(self.processes)]
        if isinstance(process, _StatefulProcess):
            process.retarget(self.kernel.now, delay)
        self.kernel.rearm(process)

    def apply(self, action, from_tick=False):
        op = action[0]
        if op == "schedule":
            self._schedule(action[1], action[2], relative=True)
        elif op == "cancel":
            if self.handles:
                self.kernel.cancel(self.handles[action[1] % len(self.handles)])
        elif op == "pause":
            self.kernel.pause()
        elif op == "add_process":
            self._add_process(action[1], from_tick)
        elif op == "rearm":
            self._rearm(action[1], action[2])

    def drive(self, program):
        kernel = self.kernel
        results = []
        for op in program + [("run", 8.0, None, None), ("run", None, None, None)]:
            if op[0] == "schedule":
                self._schedule(op[1], op[2], relative=False)
            elif op[0] == "run":
                _, until, max_events, stop_at = op
                stop = None if stop_at is None else (lambda n=stop_at: len(self.log) >= n)
                results.append(("run", kernel.run(until=until, max_events=max_events, stop=stop)))
            elif op[0] == "step":
                event = kernel.step()
                results.append(("step", None if event is None else (event.kind, event.time)))
            elif op[0] == "peek":
                results.append(("peek", kernel.peek()))
            else:
                self.apply(op)
            results.append(("now", kernel.now))
        return self.log, results


class TestEquivalenceWithPollingKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        program=st.lists(_DRIVE, min_size=1, max_size=14),
        actions=st.lists(st.lists(_ACTION, max_size=3), min_size=1, max_size=8),
        profiled=st.booleans(),
    )
    def test_same_dispatch_sequence_clock_and_counts(self, program, actions, profiled):
        expected = _Scenario(_PollingKernel(), actions).drive(program)
        kernel = SimulationKernel()
        profiler = KernelProfiler().install(kernel) if profiled else None
        actual = _Scenario(kernel, actions).drive(program)
        assert actual == expected
        if profiler is not None:
            log = actual[0]
            profile = profiler.snapshot()
            assert profile.events_total == len(log)
            assert profile.process_events == sum(1 for entry in log if entry[0] != "event")
