"""The platform simulator: routes requests to sandboxes and tracks cost-relevant metrics.

This is a discrete-event simulation of the serving layer of one function on
one platform, built on the shared :mod:`repro.sim` kernel.  It combines the
pieces defined elsewhere in the package:

- the concurrency model decides how many requests may share a sandbox,
- the contention model stretches execution under concurrent load,
- the serving-architecture model adds per-request overhead,
- the keep-alive policy decides how long idle sandboxes survive,
- the autoscaler (when configured) grows and shrinks the instance pool from
  window-averaged metrics, reproducing the scaling lag of Figure 6.  It runs
  as a *polled kernel process* (it computes its own next evaluation tick)
  rather than being called inline, so it co-simulates cleanly when several
  functions share one kernel.

Event ordering and the clock live in :class:`repro.sim.kernel.SimulationKernel`;
instrumentation flows over a :class:`repro.sim.events.EventBus`, so metrics
collection is just the default subscriber -- tracers and custom probes can
subscribe to the same bus without touching the simulator.  The simulator
publishes the full typed sandbox lifecycle (cold start, busy, idle,
keep-alive expiry, eviction), which is what the fleet placement layer
(:mod:`repro.cluster.fleet`) and the live cost meter
(:mod:`repro.billing.meter`) consume.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.platform.config import FunctionConfig, PlatformConfig
from repro.platform.metrics import FailedRequest, RequestOutcome, SimulationMetrics
from repro.platform.autoscaler import Autoscaler, AutoscalerProcess
from repro.platform.sandbox import ActiveRequest, Sandbox, SandboxState
from repro.sim.arrivals import ArrivalSource, ArrivalStream
from repro.sim.events import (
    EventBus,
    InstanceCountChanged,
    KeepAliveExpired,
    RequestArrived,
    RequestCompleted,
    RequestDenied,
    RequestExecuting,
    RequestFailed,
    SandboxAdmitted,
    SandboxBusy,
    SandboxColdStart,
    SandboxEvicted,
    SandboxIdle,
    SimEvent,
)
from repro.sim.feedback import AdmissionState, FeedbackChannel
from repro.sim.kernel import Event, SimulationKernel
from repro.sim.retry import RetryLoop
from repro.tenancy.admission import AdmissionDecision

__all__ = ["PlatformSimulator", "RequestOutcome", "SimulationMetrics"]

# Hoisted enum members: the arrival hot path compares these per request.
_ADMIT = AdmissionDecision.ADMIT
_DENY = AdmissionDecision.DENY

_EPS = 1e-9
_INF = float("inf")

#: The ready pool is rebuilt from the registry once it holds more than this
#: many entries per live sandbox, so stale entries never outnumber live
#: sandboxes by more than a constant factor.
_POOL_REBUILD_FACTOR = 4

#: Event kinds the simulator schedules on the kernel; the autoscaler is a
#: polled kernel process (:class:`repro.platform.autoscaler.AutoscalerProcess`)
#: rather than a pre-scheduled heap event.
_EVENT_KINDS = ("arrival", "sandbox_ready", "completion", "keepalive_expire")


class PlatformSimulator:
    """Simulates one function deployed on one platform configuration.

    By default each simulator owns a private :class:`SimulationKernel`.  Pass
    a shared ``kernel`` (plus a fleet-unique ``name``) to co-simulate several
    functions in one event loop -- the cluster co-simulation of
    :mod:`repro.cluster.cosim`.  The ``name`` namespaces the simulator's event
    kinds, sandbox names and request ids so co-simulated simulators never
    collide on the shared kernel or bus.

    Pass a :class:`~repro.sim.feedback.FeedbackChannel` to close the state
    loop with the other layers: the simulator then (a) stretches busy times by
    the channel's combined service rate (re-read at every admit/completion
    event, so the CPU-bandwidth scheduler's throttling factor reaches request
    latency), and (b) gates sandbox readiness on the fleet's admission
    outcome -- a queued cold start defers ``sandbox_ready`` by its measured
    queue wait, and a rejected one fails its pending request with a typed
    :class:`~repro.platform.metrics.FailedRequest`.  Without a channel (the
    default), behaviour is byte-identical to the pre-feedback simulator.

    Pass a :class:`~repro.sim.retry.RetryLoop` to model clients that retry:
    the simulator then stamps every failure's ``gave_up`` flag from the
    loop's policy (so metrics agree with what the loop re-injects), and the
    loop feeds retries back in through :meth:`inject_retry` -- a fresh
    ``arrival`` kernel event carrying the attempt count and cumulative
    backoff, which re-enters routing, cold-start and fleet admission gating
    exactly like an organic arrival.  Without a loop (the default) every
    failure is terminal and behaviour is byte-identical to the pre-retry
    simulator.

    Pass an ``admission`` controller (plus the ``tenant`` this simulator's
    deployment belongs to) to meter arrivals against the tenancy layer's
    per-tenant credit accounts *before* routing: denied arrivals fail with a
    typed :class:`~repro.sim.events.RequestDenied` (terminal, no capacity
    burned), credit-queued arrivals park in the controller until refill and
    re-enter routing via :meth:`resume_admission`.  Without a controller (the
    default) arrivals take exactly the pre-tenancy path.
    """

    def __init__(
        self,
        platform: PlatformConfig,
        function: FunctionConfig,
        seed: int = 0,
        bus: Optional[EventBus] = None,
        kernel: Optional[SimulationKernel] = None,
        name: str = "",
        feedback: Optional[FeedbackChannel] = None,
        retry: Optional[RetryLoop] = None,
        obs=None,
        emit_spans: bool = False,
        retain_outcomes: bool = True,
        tenant: str = "",
        admission=None,
    ) -> None:
        self.platform = platform
        self.function = function
        if kernel is not None and not name:
            raise ValueError("co-simulating on a shared kernel requires a unique simulator name")
        self.name = name
        self._id_prefix = f"{name}/" if name else ""
        self._rng = np.random.default_rng(seed)
        self._request_counter = itertools.count()
        self._sandbox_counter = itertools.count()
        self._kernel = kernel if kernel is not None else SimulationKernel()
        for kind in _EVENT_KINDS:
            self._kernel.on(self._kind(kind), getattr(self, f"_handle_{kind}"))
        # Namespaced kind strings are per-simulator constants; the hot paths
        # schedule thousands of these, so skip the per-call f-string.
        self._kind_arrival = self._kind("arrival")
        self._kind_sandbox_ready = self._kind("sandbox_ready")
        self._kind_completion = self._kind("completion")
        self._kind_keepalive_expire = self._kind("keepalive_expire")
        #: Live sandbox registry: terminated sandboxes are discarded on the
        #: spot (:meth:`_discard_sandbox`), so it holds exactly the alive
        #: sandboxes and memory stays bounded over million-request runs.
        self._sandboxes: Dict[str, Sandbox] = {}
        #: Ready pool: a lazily validated min-heap of ``(concurrency, name)``.
        #: Invariant: every ready sandbox below the concurrency limit has an
        #: entry equal to its current ``(concurrency, name)``; any other entry
        #: is stale (its sandbox is gone or its concurrency moved) and is
        #: dropped when it reaches the head (:meth:`_pick_sandbox`).
        self._ready_pool: List[Tuple[int, str]] = []
        self._concurrency_limit = platform.concurrency.max_concurrency
        #: Ingress FIFO: (arrival time, request id, attempts, retry wait,
        #: first-attempt arrival time).
        self._queue: Deque[Tuple[float, str, int, float, float]] = deque()
        #: sandbox -> waiting (arrival time, request id, attempts, retry
        #: wait, first-attempt arrival time).
        self._pending_cold: Dict[str, List[Tuple[float, str, int, float, float]]] = {}
        self._completion_version: Dict[str, int] = {}
        #: sandbox -> fire time of its single pending keep-alive expiry check.
        self._keepalive_pending: Dict[str, float] = {}
        self.metrics = SimulationMetrics(retain_outcomes=retain_outcomes)
        # Each simulator owns its instrumentation bus, so its metrics only ever
        # see its own events.  A caller-supplied bus becomes a downstream
        # observer: every event is forwarded to it, letting one external bus
        # watch several co-simulated simulators without cross-contaminating
        # their metrics.
        self._feedback = feedback
        self._retry = retry
        self._tenant = tenant
        self._admission = admission
        # Span emission (RequestArrived / RequestExecuting markers) is gated:
        # without an observer these per-request publishes are pure overhead.
        # A co-simulation host sets emit_spans for its shared-bus collector;
        # a standalone obs= attaches to this simulator's own kernel and bus.
        self._obs = obs
        self._emit_spans = emit_spans or obs is not None
        self.bus = EventBus()
        self.bus.subscribe(RequestCompleted, self._record_outcome)
        self.bus.subscribe(RequestFailed, self._record_failure)
        self.bus.subscribe(InstanceCountChanged, self._record_instances)
        if bus is not None:
            self.bus.subscribe(SimEvent, bus.publish)
        if obs is not None:
            obs.attach(self._kernel, self.bus)
        self._autoscaler: Optional[Autoscaler] = None
        if platform.autoscaler is not None:
            self._autoscaler = Autoscaler(
                platform.autoscaler,
                max_concurrency=platform.concurrency.max_concurrency,
                alloc_vcpus=function.alloc_vcpus,
            )
            self._kernel.add_process(
                AutoscalerProcess(platform.autoscaler.evaluation_interval_s, self._autoscale_tick)
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def kernel(self) -> SimulationKernel:
        """The underlying event kernel (exposed for co-simulation and tests)."""
        return self._kernel

    def _kind(self, kind: str) -> str:
        """Namespace an event kind with the simulator name (shared-kernel safety)."""
        return f"{self.name}:{kind}" if self.name else kind

    def schedule_arrivals(
        self,
        arrivals: Union[Sequence[float], ArrivalSource, ArrivalStream],
        horizon_s: Optional[float] = None,
    ) -> float:
        """Schedule request arrivals on the kernel; returns the run horizon.

        Does not execute anything -- a co-simulation host schedules arrivals
        for every simulator sharing the kernel and then runs the kernel once.

        ``arrivals`` may be an explicit time sequence (each scheduled as its
        own kernel event up front), an :class:`~repro.sim.arrivals.ArrivalSource`
        or a pre-built :class:`~repro.sim.arrivals.ArrivalStream`: sources are
        generated in vectorized chunks and *streamed* into the kernel with
        their tie-break ranks reserved up front, which is byte-identical to
        eager scheduling while bounding heap memory at millions of requests.
        """
        if isinstance(arrivals, (ArrivalSource, ArrivalStream)):
            stream = arrivals if isinstance(arrivals, ArrivalStream) else ArrivalStream(arrivals)
            if horizon_s is None:
                tail = self.function.service_time_s * 50 + 10.0
                horizon_s = stream.source.last_arrival_s() + tail
            stream.attach(self._kernel, self._kind_arrival)
            return horizon_s
        arrivals = sorted(arrivals)
        if horizon_s is None:
            tail = self.function.service_time_s * 50 + 10.0
            horizon_s = (arrivals[-1] if arrivals else 0.0) + tail
        for arrival in arrivals:
            self._kernel.schedule(arrival, self._kind_arrival)
        return horizon_s

    def run(self, arrivals: Sequence[float], horizon_s: Optional[float] = None) -> SimulationMetrics:
        """Simulate the given request arrival times; returns collected metrics."""
        horizon_s = self.schedule_arrivals(arrivals, horizon_s)
        self._kernel.run(until=horizon_s + _EPS)
        self.metrics.pending_requests = self.pending_request_count
        if self._obs is not None:
            self._obs.finalize(horizon_s)
        return self.metrics

    @property
    def pending_request_count(self) -> int:
        """Requests admitted to the system but not yet executing anywhere.

        Ingress-queued requests plus requests parked behind a cold-starting
        sandbox (including sandboxes whose fleet admission is still queued
        under the feedback layer).  A co-simulation host snapshots this into
        the metrics when the shared run ends, so backpressure that outlives
        the horizon is reported instead of silently censored.

        With the tenancy layer attached, requests parked in the tenant's
        credit queue count too: they arrived but are neither executing,
        completed, failed nor denied, so the conservation law needs them
        here.
        """
        pending = len(self._queue) + sum(len(waiting) for waiting in self._pending_cold.values())
        if self._admission is not None:
            pending += self._admission.queued_count(self.name)
        return pending

    @property
    def in_flight_request_count(self) -> int:
        """Requests admitted into sandboxes and not yet completed.

        Together with :attr:`pending_request_count`, completed and failed
        requests this closes the arrival conservation law
        (``arrivals == completed + failed + pending + in-flight``) at any
        instant -- the invariant the cross-layer conservation test suite
        checks on every configuration.
        """
        return sum(s.concurrency for s in self._sandboxes.values())

    # ------------------------------------------------------------------
    # Event plumbing and instrumentation
    # ------------------------------------------------------------------

    @property
    def _now(self) -> float:
        return self._kernel.now

    def _record_outcome(self, event: RequestCompleted) -> None:
        self.metrics.record(event.outcome)

    def _record_failure(self, event: RequestFailed) -> None:
        self.metrics.record_failure(event.outcome)

    def _record_instances(self, event: InstanceCountChanged) -> None:
        self.metrics.record_instances(event.time_s, event.count)

    def _publish_instance_count(self) -> None:
        self.bus.publish(InstanceCountChanged(self._now, self._instance_count()))

    def _instance_count(self) -> int:
        return len(self._sandboxes)

    # ------------------------------------------------------------------
    # Arrival and routing
    # ------------------------------------------------------------------

    def _handle_arrival(self, event: Event) -> None:
        request_id = f"{self._id_prefix}req-{next(self._request_counter):07d}"
        # Organic arrivals have an empty payload (the hot path skips every
        # dict lookup); retry re-injections (inject_retry) carry their attempt
        # metadata, and chunk-boundary arrivals from a streamed source carry
        # the stream to refill.
        data = event.data
        now = self._now
        if data:
            attempts = int(data.get("attempts", 1))
            retry_wait_s = float(data.get("retry_wait_s", 0.0))
            # Retry re-injections carry the logical request's first-attempt
            # arrival time; organic and chunk-boundary arrivals start here.
            origin_s = float(data.get("origin_s", 0.0)) or now
            stream = data.get("stream")
            if stream is not None:
                # Refill synchronously, inside this event: the next chunk is
                # on the heap before the kernel can pop anything after it,
                # which is what keeps streaming byte-identical to eager
                # scheduling.
                stream.push_next_chunk()
        else:
            attempts = 1
            retry_wait_s = 0.0
            origin_s = now
        self.metrics.record_arrival(attempts)
        if self._emit_spans:
            self.bus.publish(
                RequestArrived(
                    now,
                    request_id,
                    function_name=self.function.name,
                    attempts=attempts,
                    retry_wait_s=retry_wait_s,
                    parent_id=str(data.get("parent_id", "")),
                    tenant=self._tenant,
                )
            )
        if self._admission is not None:
            # Credit metering happens before any capacity is touched.  A
            # denial is terminal (a throttling response, never retried); a
            # queued arrival parks in the controller and re-enters through
            # resume_admission() when the tenant's bucket refills.
            decision = self._admission.admit(
                self.name, now, (request_id, now, attempts, retry_wait_s, origin_s)
            )
            if decision is not _ADMIT:
                if decision is _DENY:
                    self._deny_request(request_id)
                return
        self._route(
            request_id, now, attempts=attempts, retry_wait_s=retry_wait_s, origin_s=origin_s
        )

    def resume_admission(
        self,
        request_id: str,
        arrival_s: float,
        attempts: int,
        retry_wait_s: float,
        origin_s: float,
    ) -> None:
        """Route a credit-released request with its original arrival metadata.

        Called by the :class:`~repro.tenancy.admission.AdmissionController`
        from inside its credit-release kernel event.  ``arrival_s`` is the
        arrival that was parked, so the credit wait is visible in the
        request's latency (and SLO attainment) like any other queueing delay.
        """
        self._route(
            request_id, arrival_s, attempts=attempts, retry_wait_s=retry_wait_s,
            origin_s=origin_s,
        )

    def _deny_request(self, request_id: str) -> None:
        """Record and publish a credit denial (terminal; nothing was routed)."""
        self.metrics.record_denied()
        self.bus.publish(
            RequestDenied(
                self._now,
                request_id,
                tenant=self._tenant,
                function_name=self.function.name,
                reason="credits",
            )
        )

    def inject_retry(
        self,
        delay_s: float,
        attempts: int,
        retry_wait_s: float,
        parent_id: str = "",
        origin_s: float = 0.0,
    ) -> None:
        """Re-inject a failed request as a fresh arrival ``delay_s`` from now.

        Called by the :class:`~repro.sim.retry.RetryLoop` from inside the
        failing event's bus publish.  The arrival gets a new request id from
        the same counter as organic traffic and re-enters the full routing /
        cold-start / fleet-admission path, so retry load experiences -- and
        adds to -- the same backpressure that failed it.  ``parent_id`` (the
        failed attempt's request id) rides on the kernel event so the trace
        layer can link the retry chain; it does not affect simulation state.
        ``origin_s`` (the first attempt's arrival time) rides along so
        deadline-bounded retries and SLO attainment measure from the logical
        request's birth.
        """
        self._kernel.schedule_in(
            delay_s,
            self._kind_arrival,
            {
                "attempts": attempts,
                "retry_wait_s": retry_wait_s,
                "parent_id": parent_id,
                "origin_s": origin_s,
            },
        )

    def _route(
        self,
        request_id: str,
        arrival_s: float,
        attempts: int = 1,
        retry_wait_s: float = 0.0,
        origin_s: float = 0.0,
    ) -> None:
        sandbox = self._pick_sandbox()
        if sandbox is not None:
            self._admit(sandbox, request_id, arrival_s, cold=False,
                        attempts=attempts, retry_wait_s=retry_wait_s, origin_s=origin_s)
            return
        if self.platform.concurrency.is_single or not self._sandboxes:
            # Single-concurrency platforms provision a fresh sandbox per excess
            # request; multi-concurrency platforms also cold-start when scaled
            # to zero.
            sandbox = self._create_sandbox()
            if sandbox.state is SandboxState.TERMINATED:
                # The feedback layer reported the fleet rejected this sandbox's
                # admission; the request it was provisioned for fails instead
                # of waiting for a readiness that will never come.
                self._fail_request(
                    request_id, arrival_s, reason="admission_rejected",
                    sandbox_name=sandbox.name, attempts=attempts, retry_wait_s=retry_wait_s,
                    origin_s=origin_s,
                )
                return
            self._pending_cold.setdefault(sandbox.name, []).append(
                (arrival_s, request_id, attempts, retry_wait_s, origin_s)
            )
            return
        # Multi-concurrency: all instances are at their concurrency limit; the
        # request queues at the ingress until capacity frees or the autoscaler
        # adds instances.
        self._queue.append((arrival_s, request_id, attempts, retry_wait_s, origin_s))

    def _pick_sandbox(self) -> Optional[Sandbox]:
        """Choose a ready sandbox with available concurrency (fewest active requests).

        Ties on concurrency go to the first sandbox in name order: the
        minimum ``(concurrency, name)`` over ready sandboxes below the limit.
        That is the head of the ready pool once stale heads are popped, so a
        pick costs O(log S) amortised instead of a scan of every sandbox, and
        a fleet with every sandbox at its limit answers ``None`` from an
        empty pool.  The valid head stays: :meth:`_admit` pushes the
        sandbox's new entry and the old one goes stale.
        """
        pool = self._ready_pool
        sandboxes = self._sandboxes
        while pool:
            concurrency, name = pool[0]
            sandbox = sandboxes.get(name)
            if sandbox is not None and sandbox.concurrency == concurrency:
                return sandbox
            heapq.heappop(pool)
        return None

    def _pool_push(self, sandbox: Sandbox) -> None:
        """Enter a ready sandbox's current ``(concurrency, name)`` into the pool.

        Called after every change to a ready sandbox's concurrency; a sandbox
        at its limit gets no entry.  When stale entries pile up past
        ``_POOL_REBUILD_FACTOR`` per live sandbox, the pool is rebuilt from
        the registry, which keeps its memory O(live sandboxes).
        """
        concurrency = sandbox.concurrency
        if concurrency >= self._concurrency_limit:
            return
        pool = self._ready_pool
        heapq.heappush(pool, (concurrency, sandbox.name))
        if len(pool) > _POOL_REBUILD_FACTOR * len(self._sandboxes):
            limit = self._concurrency_limit
            pool[:] = [
                (s.concurrency, name)
                for name, s in self._sandboxes.items()
                if s.state is not SandboxState.INITIALIZING and s.concurrency < limit
            ]
            heapq.heapify(pool)

    def _create_sandbox(self) -> Sandbox:
        init_duration = self.platform.placement_delay_s + self.function.init_duration_s
        # Per-simulator, zero-padded names (prefixed with the simulator name in
        # a co-simulation): runs are reproducible regardless of how many
        # sandboxes other simulations in this process created, and the ready
        # pool's (concurrency, name) order breaks ties in creation order.
        sandbox = Sandbox(
            name=f"{self._id_prefix}sandbox-{next(self._sandbox_counter):06d}",
            function_name=self.function.name,
            alloc_vcpus=self.function.alloc_vcpus,
            alloc_memory_gb=self.function.alloc_memory_gb,
            contention=self.platform.contention,
            created_s=self._now,
            init_duration_s=init_duration,
            runtime_workers=self.platform.concurrency.effective_workers,
        )
        self._sandboxes[sandbox.name] = sandbox
        self._completion_version[sandbox.name] = 0
        if self._feedback is None:
            self._kernel.schedule_in(
                init_duration, self._kind_sandbox_ready, {"sandbox": sandbox.name}
            )
        self.bus.publish(
            SandboxColdStart(
                self._now,
                sandbox.name,
                function_name=self.function.name,
                alloc_vcpus=self.function.alloc_vcpus,
                alloc_memory_gb=self.function.alloc_memory_gb,
                init_duration_s=init_duration,
            )
        )
        if self._feedback is not None:
            # The fleet (subscribed downstream of the publish above) has
            # synchronously decided this sandbox's admission by now; gate
            # readiness on the outcome instead of scheduling it blindly.
            self._resolve_admission(sandbox)
        self._publish_instance_count()
        return sandbox

    def _resolve_admission(self, sandbox: Sandbox) -> None:
        """Schedule, defer, or abort ``sandbox_ready`` from the fleet's decision."""
        state = self._feedback.admission_state(sandbox.name)
        if state is AdmissionState.QUEUED:
            # Initialisation cannot start until the sandbox lands on a host;
            # readiness is scheduled from the admission callback instead, so
            # the measured queue wait shifts `sandbox_ready` one-for-one.
            self._feedback.gate_readiness(sandbox.name, self._on_admission_resolved)
            return
        if state is AdmissionState.REJECTED:
            self._abort_sandbox(sandbox)
            return
        # ADMITTED, or None when no admission-publishing fleet is attached.
        self._kernel.schedule_in(
            sandbox.init_duration_s, self._kind_sandbox_ready, {"sandbox": sandbox.name}
        )

    def _on_admission_resolved(self, event: SimEvent) -> None:
        """Feedback-channel callback: a queued sandbox was admitted or rejected."""
        name = event.sandbox_name  # type: ignore[attr-defined]
        sandbox = self._sandboxes.get(name)
        if sandbox is None or sandbox.state is not SandboxState.INITIALIZING:
            return
        if isinstance(event, SandboxAdmitted):
            self._kernel.schedule_in(
                sandbox.init_duration_s, self._kind_sandbox_ready, {"sandbox": name}
            )
            return
        # Late rejection of a queued sandbox.  The stock fleet only rejects at
        # admission time (before any gate exists), but the channel contract
        # allows a fleet to time queue entries out, so the platform must
        # handle it: tear the sandbox down, fail everything waiting on it.
        waiting = self._pending_cold.pop(name, [])
        self._abort_sandbox(sandbox)
        for arrival_s, request_id, attempts, retry_wait_s, origin_s in waiting:
            self._fail_request(
                request_id, arrival_s, reason="admission_rejected", sandbox_name=name,
                attempts=attempts, retry_wait_s=retry_wait_s, origin_s=origin_s,
            )
        self._publish_instance_count()

    def _discard_sandbox(self, sandbox: Sandbox) -> None:
        """Forget a terminated sandbox.

        Keeping every dead sandbox in the registry made routing scans and
        memory grow with the total number ever created -- quadratic over a
        million-request run.  All event handlers treat an unknown sandbox
        name as terminated, so stale kernel events for a discarded sandbox
        are ignored exactly as they were when its record stuck around.
        """
        self._sandboxes.pop(sandbox.name, None)
        self._completion_version.pop(sandbox.name, None)
        self._keepalive_pending.pop(sandbox.name, None)

    def _abort_sandbox(self, sandbox: Sandbox) -> None:
        """Tear down a sandbox whose fleet admission was rejected."""
        sandbox.terminate(self._now)
        self._discard_sandbox(sandbox)
        self.bus.publish(SandboxEvicted(self._now, sandbox.name, reason="admission_rejected"))

    def _fail_request(
        self,
        request_id: str,
        arrival_s: float,
        reason: str,
        sandbox_name: str = "",
        attempts: int = 1,
        retry_wait_s: float = 0.0,
        origin_s: float = 0.0,
    ) -> None:
        # The retry loop is a downstream bus subscriber, but the gave_up flag
        # must already be on the record metrics capture first -- so the
        # publisher asks the loop's policy.  Bus dispatch is synchronous, so
        # no budget can be spent between this query and the loop's handling
        # of the very event it stamps.  Elapsed time since the logical
        # request's first attempt feeds the policy's retry deadline; the
        # publisher and the loop compute it from the same stamps, so they
        # always agree.
        now = self._now
        origin = origin_s or arrival_s
        gave_up = self._retry is not None and not self._retry.will_retry(
            self.name, attempts, now - origin
        )
        # Fleet-issued backpressure hint for the sandbox that rejected us; the
        # retry loop stretches its backoff to honour it.  Zero when the fleet
        # does not issue hints (the default) or no sandbox was involved.
        retry_after = 0.0
        if self._feedback is not None and sandbox_name:
            retry_after = self._feedback.retry_after_s(sandbox_name)
        self.bus.publish(
            RequestFailed(
                now,
                FailedRequest(
                    request_id=request_id,
                    arrival_s=arrival_s,
                    failed_s=now,
                    reason=reason,
                    sandbox_name=sandbox_name,
                    attempts=attempts,
                    retry_wait_s=retry_wait_s,
                    gave_up=gave_up,
                    tenant=self._tenant,
                    origin_s=origin,
                    retry_after_s=retry_after,
                ),
            )
        )

    def _handle_sandbox_ready(self, event: Event) -> None:
        sandbox = self._sandboxes.get(event.data["sandbox"])
        if sandbox is None:
            return
        sandbox.mark_ready(self._now)
        self._pool_push(sandbox)
        waiting = self._pending_cold.pop(sandbox.name, [])
        for index, (arrival_s, request_id, attempts, retry_wait_s, origin_s) in enumerate(waiting):
            # The request(s) that waited for this sandbox experienced the cold start.
            self._admit(sandbox, request_id, arrival_s, cold=True,
                        attempts=attempts, retry_wait_s=retry_wait_s, origin_s=origin_s)
        self._drain_queue()
        self._maybe_schedule_keepalive(sandbox)

    def _admit(
        self,
        sandbox: Sandbox,
        request_id: str,
        arrival_s: float,
        cold: bool,
        attempts: int = 1,
        retry_wait_s: float = 0.0,
        origin_s: float = 0.0,
    ) -> None:
        now = self._now
        overhead = self.platform.serving.sample_overhead_s(self.function.alloc_vcpus, self._rng)
        request = ActiveRequest(
            request_id=request_id,
            arrival_s=arrival_s,
            admitted_s=now,
            remaining_cpu_s=self.function.cpu_time_s,
            io_remaining_s=self.function.io_time_s + overhead,
            overhead_s=overhead,
            cold_start=cold,
            init_wait_s=(now - arrival_s) if cold else 0.0,
            attempts=attempts,
            retry_wait_s=retry_wait_s,
            tenant=self._tenant,
            origin_s=origin_s,
        )
        was_busy = sandbox.state is SandboxState.BUSY
        sandbox.admit(request, now)
        self._pool_push(sandbox)
        self._refresh_rate_factor(sandbox)
        if self._emit_spans:
            self.bus.publish(
                RequestExecuting(
                    now,
                    request_id,
                    sandbox_name=sandbox.name,
                    cold_start=cold,
                    rate_factor=sandbox.rate_factor,
                )
            )
        if not was_busy:
            self.bus.publish(SandboxBusy(now, sandbox.name, sandbox.concurrency))
        self._schedule_completion_check(sandbox)

    def _refresh_rate_factor(self, sandbox: Sandbox) -> None:
        """Re-read the feedback channel's combined slowdown at event-schedule time.

        Called *after* the sandbox advanced its requests to ``now`` (so the
        interval just closed used the factor it was scheduled under) and
        *before* the next completion check is scheduled (so the projection and
        the eventual :meth:`Sandbox.advance` agree on the new rate).  Without
        a channel the factor stays at exactly ``1.0`` -- the float-identical
        pre-feedback behaviour.
        """
        if self._feedback is not None:
            sandbox.rate_factor = self._feedback.service_rate(self._now)

    # ------------------------------------------------------------------
    # Completion handling
    # ------------------------------------------------------------------

    def _schedule_completion_check(self, sandbox: Sandbox) -> None:
        name = sandbox.name
        version = self._completion_version[name] + 1
        self._completion_version[name] = version
        now = self._now
        next_time = sandbox.next_completion_time(now)
        if next_time is None:
            return
        self._kernel.schedule(
            max(next_time, now),
            self._kind_completion,
            {"sandbox": sandbox.name, "version": version},
        )

    def _handle_completion(self, event: Event) -> None:
        name = event.data["sandbox"]
        sandbox = self._sandboxes.get(name)
        if sandbox is None:
            return
        if event.data["version"] != self._completion_version[name]:
            return  # stale check; membership changed since it was scheduled
        now = self._now
        sandbox.advance(now)
        finished = sandbox.completed_requests()
        for request_id, request in finished.items():
            sandbox.remove(request_id, now)
            exec_start = request.exec_start_s if request.exec_start_s is not None else request.admitted_s
            execution_duration = now - exec_start
            self.bus.publish(
                RequestCompleted(
                    now,
                    RequestOutcome(
                        request_id=request_id,
                        arrival_s=request.arrival_s,
                        start_s=exec_start,
                        completion_s=now,
                        execution_duration_s=execution_duration,
                        cold_start=request.cold_start,
                        init_duration_s=request.init_wait_s,
                        queue_delay_s=max(exec_start - request.arrival_s - request.init_wait_s, 0.0),
                        sandbox_name=sandbox.name,
                        service_floor_s=self.function.service_time_s + request.overhead_s,
                        attempts=request.attempts,
                        retry_wait_s=request.retry_wait_s,
                        tenant=request.tenant,
                        origin_s=request.origin_s,
                    ),
                )
            )
        if finished:
            self._pool_push(sandbox)
            self._drain_queue()
            self._maybe_schedule_keepalive(sandbox)
        self._refresh_rate_factor(sandbox)
        self._schedule_completion_check(sandbox)

    def _drain_queue(self) -> None:
        """Move queued requests onto sandboxes with free capacity (FIFO)."""
        while self._queue:
            sandbox = self._pick_sandbox()
            if sandbox is None:
                return
            arrival_s, request_id, attempts, retry_wait_s, origin_s = self._queue.popleft()
            self._admit(sandbox, request_id, arrival_s, cold=False,
                        attempts=attempts, retry_wait_s=retry_wait_s, origin_s=origin_s)

    # ------------------------------------------------------------------
    # Keep-alive and termination
    # ------------------------------------------------------------------

    def _maybe_schedule_keepalive(self, sandbox: Sandbox) -> None:
        if sandbox.state is not SandboxState.IDLE:
            return
        now = self._now
        self.bus.publish(SandboxIdle(now, sandbox.name))
        keep_alive = self.platform.keep_alive.sample_keep_alive_s(
            self._rng, scaled_out_instances=self._instance_count()
        )
        deadline = now + keep_alive
        sandbox.keep_alive_deadline_s = deadline
        name = sandbox.name
        # At most one pending expiry check per sandbox.  Scheduling one event
        # per idle transition (the old scheme) left every superseded check on
        # the heap for the full keep-alive window -- hundreds of thousands of
        # stale entries in a long busy run.  A pending *earlier* check
        # re-arms itself at the current deadline when it fires
        # (:meth:`_handle_keepalive_expire`), so only a deadline that moved
        # earlier than the pending check needs a new event.
        pending = self._keepalive_pending.get(name)
        if pending is not None and pending <= deadline:
            return
        self._keepalive_pending[name] = deadline
        self._kernel.schedule(
            deadline, self._kind_keepalive_expire, {"sandbox": name, "deadline": deadline}
        )

    def _handle_keepalive_expire(self, event: Event) -> None:
        name = event.data["sandbox"]
        checked = event.data["deadline"]
        if self._keepalive_pending.get(name) == checked:
            del self._keepalive_pending[name]
        sandbox = self._sandboxes.get(name)
        if sandbox is None or sandbox.state is not SandboxState.IDLE:
            return
        deadline = sandbox.keep_alive_deadline_s
        if abs(deadline - checked) > 1e-6:
            # The sandbox served more requests since this check was armed.
            # If its current deadline lies beyond this check and nothing else
            # is pending, re-arm at that deadline -- the check this handler
            # suppressed at idle time.  (A deadline *before* this check
            # always has its own earlier pending event.)
            if deadline > checked and self._keepalive_pending.get(name, _INF) > deadline:
                self._keepalive_pending[name] = deadline
                self._kernel.schedule(
                    deadline, self._kind_keepalive_expire, {"sandbox": name, "deadline": deadline}
                )
            return
        sandbox.terminate(self._now)
        self._discard_sandbox(sandbox)
        self.bus.publish(KeepAliveExpired(self._now, sandbox.name))
        self.bus.publish(SandboxEvicted(self._now, sandbox.name, reason="keepalive_expire"))
        self._publish_instance_count()

    # ------------------------------------------------------------------
    # Autoscaling (a polled kernel process, registered in __init__)
    # ------------------------------------------------------------------

    def _autoscale_tick(self, now_s: float) -> None:
        if self._autoscaler is None:
            return
        alive = list(self._sandboxes.values())
        active_requests: float = sum(s.concurrency for s in alive) + len(self._queue)
        queue_weight = self._autoscaler.config.admission_queue_weight
        if self._feedback is not None and queue_weight > 0:
            # Queue-aware autoscaling: cold starts stuck in the fleet's
            # admission queue are demand the concurrency/CPU metrics cannot
            # see (their requests are parked in _pending_cold, not executing).
            # Weigh the simulator's own share of the admission queue into the
            # scale-up signal so the autoscaler reacts to backpressure.
            active_requests += queue_weight * self._feedback.admission_queue_depth(
                self._id_prefix
            )
        busy_vcpus = sum(
            min(float(s.concurrency), s.alloc_vcpus) for s in alive if s.state is SandboxState.BUSY
        )
        self._autoscaler.observe(self._now, active_requests, busy_vcpus, len(alive))
        desired = self._autoscaler.desired_instances(self._now, len(alive))
        current = len(alive)
        if desired > current:
            for _ in range(desired - current):
                self._create_sandbox()
        elif desired < current:
            removable = [s for s in alive if s.state is SandboxState.IDLE]
            for sandbox in removable[: current - desired]:
                sandbox.terminate(self._now)
                self._discard_sandbox(sandbox)
                self.bus.publish(SandboxEvicted(self._now, sandbox.name, reason="scale_down"))
        self._publish_instance_count()
        self._drain_queue()
