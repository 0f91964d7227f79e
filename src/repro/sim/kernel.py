"""The discrete-event simulation kernel shared by every simulator in the repo.

The kernel owns the clock and decides what happens next.  Two kinds of
participants coexist:

- **Scheduled events**: pushed onto a binary heap with an absolute firing
  time.  A monotonically increasing sequence number breaks time ties, so two
  events scheduled for the same instant always fire in scheduling order --
  this is what makes runs deterministic regardless of heap internals.
- **Polled processes**: objects that compute their own next event time
  (e.g. the CPU-bandwidth scheduler, whose next event depends on mutable
  state such as remaining quota).  The kernel asks a process for
  ``next_event_time`` only when it is registered, right after each of its
  own ``handle`` calls, and when :meth:`SimulationKernel.rearm` is called
  for it, and keeps the answer as a wakeup entry on a second heap keyed
  ``(time, registration rank)``.  A process's wake time may therefore
  change only inside its own ``handle``, with one exception: whoever
  changes it from outside (a heap event's handler, another process's
  ``handle``) calls ``rearm(process)`` right away, which supersedes the
  pending wakeup.  A process that answers ``None`` is never woken again
  unless it is rearmed.

At equal times heap events fire before process wakeups, and among processes
registration order breaks ties.  The clock never moves backwards: it
advances to ``max(now, time)`` when an event or wakeup fires.
``peek``/``step``/``pause`` let a host embed the kernel in a larger
co-simulation and advance it one event at a time; ``run`` is the hot path
and produces the same order as repeated ``step()`` calls -- the determinism
contract every replay-fingerprint test pins down.

Bulk producers (the batched arrival streams of :mod:`repro.sim.arrivals`)
use :meth:`SimulationKernel.reserve_seqs` + :meth:`schedule_at_seq` to hold
a block of sequence numbers up front and fill it in chunks later: events
scheduled lazily keep the exact tie-break rank they would have had if they
had all been pushed eagerly before the run started.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple, runtime_checkable

__all__ = ["Event", "PeriodicProcess", "SimProcess", "SimulationKernel"]


class Event:
    """One scheduled occurrence; ordered by ``(time, seq)``.

    Internally the kernel keeps ``(time, seq, event)`` tuples on its heap:
    sequence numbers are unique, so heap sifts resolve on the first two
    C-compared fields and never call back into Python -- ``__lt__`` below
    exists for API compatibility (sorting event handles in tests), not for
    the hot path.
    """

    __slots__ = ("time", "seq", "kind", "data", "cancelled")

    def __init__(self, time: float, seq: int, kind: str, data: Dict[str, Any]) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.data = data
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        # Equivalent to (time, seq) < (other.time, other.seq) without
        # allocating the tuples: heap sifts call this O(log n) times per
        # push/pop, which makes it one of the hottest functions in a run.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(t={self.time:.6f}, seq={self.seq}, kind={self.kind!r})"


@runtime_checkable
class SimProcess(Protocol):
    """A co-simulated component that computes its own next event time.

    The kernel consults ``next_event_time`` when the process is registered,
    right after each ``handle`` call and on :meth:`SimulationKernel.rearm`,
    never in between: the answer may depend on the process's state, but
    that state may change only inside its own ``handle`` -- or outside it,
    provided ``kernel.rearm(process)`` follows before the kernel moves on.
    ``handle`` is called once the clock has advanced to the answered time.
    Returning ``None`` means the process has nothing left to do; it is then
    never woken again unless it is rearmed.
    """

    def next_event_time(self, now: float) -> Optional[float]:
        ...

    def handle(self, now: float) -> None:
        ...


class PeriodicProcess:
    """A polled process that fires a callback on a fixed time grid.

    Shared by components that need a periodic tick (the platform autoscaler's
    evaluation interval, the fleet's utilisation sampler): ``next_event_time``
    is the next grid point, ``handle`` invokes the callback and advances on
    the grid (not ``now + interval``), so tick times stay exact multiples of
    the interval regardless of clock jitter.

    Periodic processes never run out of ticks; they are marked ``periodic``
    so :meth:`SimulationKernel.run` without an ``until`` bound still
    terminates once the heap drains and only periodic ticks remain.
    """

    periodic = True

    def __init__(self, interval_s: float, callback: Callable[[float], None], start_s: float = 0.0) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = float(interval_s)
        self._callback = callback
        self._next_tick_s = float(start_s)

    def next_event_time(self, now: float) -> Optional[float]:
        return self._next_tick_s

    def handle(self, now: float) -> None:
        self._callback(now)
        self._next_tick_s += self.interval_s


class SimulationKernel:
    """Deterministic discrete-event loop: heap-scheduled events + polled processes."""

    def __init__(self, start_s: float = 0.0) -> None:
        #: Min-heap of (time, seq, event): tuple comparison is C-speed and,
        #: with unique seqs, never falls through to comparing the events.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq_next = 0
        self._now = float(start_s)
        #: Handlers as registered through on() / on_default().
        self._registered: Dict[str, Callable[[Event], None]] = {}
        self._registered_default: Optional[Callable[[Event], None]] = None
        #: What the loop dispatches: the registered handlers, or their
        #: profiled wrappers while a profiler is installed.  Updated in place,
        #: so a loop that hoisted the dict sees every change.
        self._handlers: Dict[str, Callable[[Event], None]] = {}
        self._default_handler: Optional[Callable[[Event], None]] = None
        #: Registered processes; a process's index is its registration rank.
        self._processes: List[SimProcess] = []
        #: Per rank: what the kernel calls to wake the process (its
        #: ``handle``, or a profiled wrapper of it) and its ``periodic`` flag.
        self._process_handles: List[Callable[[float], None]] = []
        self._periodic: List[bool] = []
        #: Min-heap of (wake time, rank, process).  Each process has at most
        #: one *live* entry, the one ``_armed[rank]`` holds (by identity);
        #: an entry superseded by :meth:`rearm` stays on the heap and is
        #: dropped when it reaches the head, never dispatched or counted.
        #: A superseded entry may tie a live one on ``(time, rank)``; the
        #: sift then compares the processes for equality only, never order.
        self._wakeups: List[Tuple[float, int, SimProcess]] = []
        self._armed: List[Optional[Tuple[float, int, SimProcess]]] = []
        #: Registration rank by ``id(process)``, for :meth:`rearm`.
        self._rank_of: Dict[int, int] = {}
        #: Live entries on ``_wakeups`` owned by non-periodic processes.
        self._nonperiodic_wakeups = 0
        self._paused = False
        # Dormant profiling slot (see repro.obs.profile): None dispatches the
        # registered callables themselves, with nothing wrapped around them.
        self._profiler = None

    def set_profiler(self, profiler) -> None:
        """Install an opt-in event profiler (``None`` restores the bare callables).

        Profiling wraps every registered handler and process ``handle``, now
        and on later registration, so the run loop is the same either way.
        """
        self._profiler = profiler
        for kind, handler in self._registered.items():
            self._handlers[kind] = self._dispatched(handler, kind)
        if self._registered_default is not None:
            self._default_handler = self._dispatched(self._registered_default)
        for rank, process in enumerate(self._processes):
            self._process_handles[rank] = self._woken(process)

    def _dispatched(
        self, handler: Callable[[Event], None], kind: Optional[str] = None
    ) -> Callable[[Event], None]:
        profiler = self._profiler
        return handler if profiler is None else profiler.wrap_handler(handler, self._heap, kind)

    def _woken(self, process: SimProcess) -> Callable[[float], None]:
        profiler = self._profiler
        return process.handle if profiler is None else profiler.wrap_process(process)

    # ------------------------------------------------------------------
    # Clock and registration
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register the handler for events of ``kind`` (one handler per kind)."""
        self._registered[kind] = handler
        self._handlers[kind] = self._dispatched(handler, kind)

    def on_default(self, handler: Callable[[Event], None]) -> None:
        """Handler for kinds with no specific registration."""
        self._registered_default = handler
        self._default_handler = self._dispatched(handler)

    def add_process(self, process: SimProcess) -> None:
        """Register a polled co-simulation process and queue its first wakeup.

        Registration order is the tie-break rank among processes.
        """
        rank = len(self._processes)
        self._processes.append(process)
        self._process_handles.append(self._woken(process))
        self._periodic.append(bool(getattr(process, "periodic", False)))
        self._armed.append(None)
        self._rank_of[id(process)] = rank
        self._arm(rank, process)

    def rearm(self, process: SimProcess) -> None:
        """Ask a registered process again for its next event time.

        The one way to move a process's wake time from outside its own
        ``handle``: call it right after changing the state the answer
        depends on.  The new answer supersedes the pending wakeup (a
        superseded wakeup is dropped unseen: it is never dispatched, counted
        or allowed to move the clock), and it keeps the process's
        registration rank, so at any instant the process fires after that
        instant's heap events and in rank order among the processes still
        to fire there.  Answering ``None`` cancels the pending wakeup.
        """
        self._arm(self._rank_of[id(process)], process)

    def _arm(self, rank: int, process: SimProcess) -> None:
        """Ask ``process`` for its next event time; that wakeup supersedes any pending one."""
        periodic = self._periodic[rank]
        if self._armed[rank] is not None:
            self._armed[rank] = None
            if not periodic:
                self._nonperiodic_wakeups -= 1
        wake_s = process.next_event_time(self._now)
        if wake_s is not None:
            entry = (wake_s, rank, process)
            self._armed[rank] = entry
            _heappush(self._wakeups, entry)
            if not periodic:
                self._nonperiodic_wakeups += 1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, time_s: float, kind: str, data: Optional[Dict[str, Any]] = None) -> Event:
        """Schedule an event at absolute time ``time_s``; returns a cancellable handle.

        ``data=None`` shares one immutable empty mapping across events (the
        payload is a read-only contract; pass an explicit dict to attach
        mutable state).
        """
        if time_s.__class__ is not float:
            time_s = float(time_s)
        seq = self._seq_next
        self._seq_next = seq + 1
        # Events are built via __new__ + attribute stores here and in the
        # other schedule_* methods: one Event per simulated occurrence makes
        # construction itself a hot path, and skipping the __init__ frame
        # is measurably cheaper.
        event = _EVENT_NEW(Event)
        event.time = time_s
        event.seq = seq
        event.kind = kind
        event.data = _EMPTY_DATA if data is None else data
        event.cancelled = False
        _heappush(self._heap, (time_s, seq, event))
        return event

    def schedule_in(self, delay_s: float, kind: str, data: Optional[Dict[str, Any]] = None) -> Event:
        """Schedule an event ``delay_s`` seconds after the current time."""
        time_s = self._now + delay_s
        if time_s.__class__ is not float:
            # e.g. numpy-float retry backoffs: coerce so event times (and the
            # replay fingerprints derived from them) stay builtin floats.
            time_s = float(time_s)
        seq = self._seq_next
        self._seq_next = seq + 1
        event = _EVENT_NEW(Event)
        event.time = time_s
        event.seq = seq
        event.kind = kind
        event.data = _EMPTY_DATA if data is None else data
        event.cancelled = False
        _heappush(self._heap, (time_s, seq, event))
        return event

    def reserve_seqs(self, count: int) -> int:
        """Reserve a contiguous block of ``count`` sequence numbers; returns the first.

        A bulk producer that knows how many events it will eventually schedule
        claims its tie-break ranks up front and fills them in later with
        :meth:`schedule_at_seq`.  Events scheduled *after* the reservation get
        larger sequence numbers, exactly as if the reserved block had been
        pushed eagerly first -- which is what keeps chunked arrival streaming
        byte-identical to eager scheduling.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        start = self._seq_next
        self._seq_next += count
        return start

    def schedule_at_seq(
        self, time_s: float, seq: int, kind: str, data: Optional[Dict[str, Any]] = None
    ) -> Event:
        """Schedule an event with a pre-reserved sequence number.

        ``seq`` must come from :meth:`reserve_seqs` and ``time_s`` must not
        lie in the past (the event would otherwise fire late yet rank early).
        ``data=None`` shares one immutable empty mapping across events --
        callers must not mutate the payload of events scheduled this way.
        """
        if time_s < self._now:
            raise ValueError(
                f"cannot schedule reserved-seq event in the past ({time_s} < {self._now})"
            )
        if time_s.__class__ is not float:
            time_s = float(time_s)
        event = _EVENT_NEW(Event)
        event.time = time_s
        event.seq = seq
        event.kind = kind
        event.data = _EMPTY_DATA if data is None else data
        event.cancelled = False
        _heappush(self._heap, (time_s, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Mark a scheduled event as cancelled; it is skipped when popped."""
        event.cancelled = True
        if self._profiler is not None:
            self._profiler.record_cancel()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _prune(self) -> None:
        heap = self._heap
        pruned = 0
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            pruned += 1
        if pruned and self._profiler is not None:
            self._profiler.record_prunes(pruned)
        wakeups = self._wakeups
        armed = self._armed
        while wakeups and armed[wakeups[0][1]] is not wakeups[0]:
            heapq.heappop(wakeups)

    def peek(self) -> Optional[float]:
        """Time of the next event (heap or process) without executing it."""
        self._prune()
        heap_time = self._heap[0][0] if self._heap else None
        wake_time = self._wakeups[0][0] if self._wakeups else None
        if heap_time is None:
            return wake_time
        if wake_time is None:
            return heap_time
        return min(heap_time, wake_time)

    def step(self) -> Optional[Event]:
        """Execute the single next event.

        Advances the clock and dispatches the event's handler (heap events),
        or calls ``handle`` on the owning process (polled events, returned as
        a synthetic ``Event`` of kind ``"process"``).  Returns ``None`` when
        nothing is pending.  Heap events win exact-time ties against polled
        processes; among processes, registration order breaks ties.
        """
        self._prune()
        heap = self._heap
        wakeups = self._wakeups
        if heap and (not wakeups or heap[0][0] <= wakeups[0][0]):
            event = heapq.heappop(heap)[2]
            if event.time > self._now:
                self._now = event.time
            self._handler_for(event.kind)(event)
            return event
        if wakeups:
            process = self._wake(heapq.heappop(wakeups))
            return Event(self._now, -1, "process", {"process": process})
        return None

    def _handler_for(self, kind: str) -> Callable[[Event], None]:
        handler = self._handlers.get(kind, self._default_handler)
        if handler is None:
            raise KeyError(f"no handler registered for event kind {kind!r}")
        return handler

    def _wake(self, entry: Tuple[float, int, SimProcess]) -> SimProcess:
        """Dispatch a popped live wakeup: let its process handle it, then re-arm it."""
        wake_s, rank, process = entry
        self._armed[rank] = None
        if not self._periodic[rank]:
            self._nonperiodic_wakeups -= 1
        # Hand the process its *raw* wake time: a process whose
        # next_event_time regressed behind the clock must get the chance to
        # detect it (the scheduler engine raises on backwards time) rather
        # than having the kernel silently clamp the error away.
        if wake_s > self._now:
            self._now = wake_s
        self._process_handles[rank](wake_s)
        self._arm(rank, process)
        return process

    def pause(self) -> None:
        """Stop the current ``run`` after the in-flight event (for co-simulation)."""
        self._paused = True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Execute events in order; returns the number executed.

        Stops when the queue drains, the next event lies strictly beyond
        ``until``, ``max_events`` events have been executed, ``stop()``
        returns true after an event, or :meth:`pause` was called from a
        handler.  Events beyond ``until`` stay queued for a later ``run``.
        Without an ``until`` bound, the run also stops once only *periodic*
        processes (see :class:`PeriodicProcess`) have pending wakeups -- they
        never drain on their own.

        One loop serves every kernel shape: each pass compares the event-heap
        head with the wakeup-heap head, so its cost does not grow with the
        number of registered processes.  Event order is identical to
        stepping one event at a time.
        """
        self._paused = False
        if max_events is not None and max_events <= 0:
            return 0
        limit = -1 if max_events is None else max_events
        horizon = _INF if until is None else until
        executed = 0
        heap = self._heap
        wakeups = self._wakeups
        armed = self._armed
        handlers = self._handlers
        heappop = heapq.heappop
        while True:
            if heap:
                head = heap[0]
                event = head[2]
                if event.cancelled:
                    heappop(heap)
                    if self._profiler is not None:
                        self._profiler.record_prunes(1)
                    continue
                time_s = head[0]
                is_event = not wakeups or time_s <= wakeups[0][0]
            elif wakeups and (until is not None or self._nonperiodic_wakeups):
                is_event = False
            else:
                break
            if is_event:
                if time_s > horizon:
                    break
                heappop(heap)
                if time_s > self._now:
                    self._now = time_s
                handler = handlers.get(event.kind)
                if handler is None:
                    handler = self._handler_for(event.kind)
                handler(event)
            else:
                entry = wakeups[0]
                if entry[0] > horizon:
                    break
                heappop(wakeups)
                if armed[entry[1]] is not entry:
                    continue  # superseded by rearm()
                self._wake(entry)
            executed += 1
            if executed == limit or self._paused or (stop is not None and stop()):
                break
        return executed


#: Shared payload for bulk-scheduled events with no data.  Never mutate.
_EMPTY_DATA: Dict[str, Any] = {}

_INF = float("inf")

#: Hot-path aliases: module-level loads are cheaper than attribute chains
#: inside the per-event scheduling methods.
_EVENT_NEW = Event.__new__
_heappush = heapq.heappush
