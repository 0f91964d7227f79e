"""Exclusive per-layer host-time attribution, installed from outside ``src/``.

The simulator's layers meet at a handful of public seams.  This module wraps
each of them for one traced run, without changing any code under ``src/``:

- callbacks registered through ``EventBus.subscribe``;
- handlers registered through ``SimulationKernel.on``;
- the ``handle`` method of every process registered through
  ``SimulationKernel.add_process``;
- the public cross-layer calls ``SimulationMetrics.record*``,
  ``AdmissionController.admit``, ``ClusterResult.summary`` and
  ``repro.obs.write_obs_artifacts``;
- ``SimulationKernel.run`` itself, so the kernel's own loop is a span too.

Each wrapped callable is tagged with the layer that *owns* it: the module of
the bound object's class (or of the function, for closures).  A wrapper opens
a span on a stack; when it closes, its duration minus the time of the spans
nested inside it is the owning layer's exclusive ("self") time.  So the
kernel's self time is ``SimulationKernel.run`` wall time minus every callback
it dispatched -- heap work and process polling -- and a layer's time never
double-counts the layers it calls into.  The idea of tagging work with the
layer that owns it, instead of restructuring the layers, is MetaSys's
(arXiv 2105.08123).

Installation patches classes for the life of the process, so it is only ever
done in a dedicated traced worker process (see ``worker.py``); the timed runs
never import this module.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Module prefix -> layer name.  The longest matching prefix wins, so
#: ``repro.platform.metrics`` is ``metrics`` while the rest of
#: ``repro.platform`` (invoker, sandbox, autoscaler) is ``platform``.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.kernel", "kernel"),
    ("repro.sim.events", "bus"),
    ("repro.sim.retry", "retry"),
    ("repro.sim.feedback", "feedback"),
    ("repro.platform.metrics", "metrics"),
    ("repro.platform", "platform"),
    ("repro.cluster", "fleet"),
    ("repro.billing", "meter"),
    ("repro.tenancy", "tenancy"),
    ("repro.sched", "sched"),
    ("repro.obs", "obs"),
)

#: Every layer the report names, in report order.  ``other`` is the part of
#: the timed region no span covers (run set-up glue, meter finalisation,
#: result assembly), so the layers' self times sum to the timed wall time.
LAYERS: Tuple[str, ...] = (
    "kernel",
    "platform",
    "metrics",
    "bus",
    "fleet",
    "meter",
    "tenancy",
    "retry",
    "feedback",
    "sched",
    "obs",
    "summary",
    "other",
)


def layer_of_module(module: str) -> str:
    """The layer owning ``module`` (``other`` outside every known prefix)."""
    best = ""
    layer = "other"
    for prefix, name in LAYER_PREFIXES:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best, layer = prefix, name
    return layer


def owner_module(callback: Callable) -> str:
    """The module that owns ``callback``: its bound object's class, else its own."""
    bound = getattr(callback, "__self__", None)
    if bound is not None and not isinstance(bound, type):
        return type(bound).__module__
    return getattr(callback, "__module__", None) or type(callback).__module__


class LayerTracer:
    """Span stack plus per-layer self time and per-(layer, label) call counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Child-time accumulators of the open spans; the bottom entry
        #: collects the time of every top-level span.
        self._stack: List[float] = [0.0]
        self.kernel_events = 0
        self.kernel_processes = 0
        self.admit_calls = 0
        self.admitted = 0
        self.artifact_write_s = 0.0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, layer: str, label: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span charged to ``layer`` and counted under ``label``."""
        self_s = self.self_s
        calls = self.calls
        stack = self._stack
        key = (layer, label)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[key] += 1

        return traced

    def reset(self) -> None:
        """Forget everything measured so far (called at the timed region's start)."""
        self.self_s.clear()
        self.calls.clear()
        self._stack[:] = [0.0]
        self.kernel_events = 0
        self.admit_calls = 0
        self.admitted = 0
        self.artifact_write_s = 0.0

    @property
    def attributed_s(self) -> float:
        """Total time of the top-level spans closed since the last reset."""
        return self._stack[0]

    def count(self, layer: str, label: str = "") -> int:
        """Calls charged to ``layer`` (only those under ``label`` when given)."""
        return sum(
            n for (owner, what), n in self.calls.items()
            if owner == layer and (not label or what == label)
        )

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every seam listed in the module docstring.  Once per process."""
        import repro.obs
        from repro.cluster.cosim import ClusterResult
        from repro.platform.metrics import SimulationMetrics
        from repro.sim.events import EventBus
        from repro.sim.kernel import SimulationKernel
        from repro.tenancy.admission import AdmissionController, AdmissionDecision

        tracer = self
        span = self.span

        subscribe = EventBus.subscribe

        def traced_subscribe(bus, event_type, callback):
            # Returns the wrapper, which is what was subscribed, so a later
            # unsubscribe() of the returned handle still finds it.
            layer = layer_of_module(owner_module(callback))
            return subscribe(bus, event_type, span(layer, event_type.__name__, callback))

        EventBus.subscribe = traced_subscribe

        on = SimulationKernel.on
        add_process = SimulationKernel.add_process
        run = SimulationKernel.run

        def traced_on(kernel, kind, handler):
            layer = layer_of_module(owner_module(handler))
            # Kinds are namespaced per function ("fn-003:arrival"); count them
            # under the bare kind so labels stay few.
            on(kernel, kind, span(layer, kind.rsplit(":", 1)[-1], handler))

        def traced_add_process(kernel, process):
            layer = layer_of_module(type(process).__module__)
            process.handle = span(layer, "process:" + type(process).__name__, process.handle)
            tracer.kernel_processes += 1
            add_process(kernel, process)

        traced_run = span("kernel", "run", run)

        def counted_run(kernel, *args, **kwargs):
            executed = traced_run(kernel, *args, **kwargs)
            tracer.kernel_events += executed
            return executed

        SimulationKernel.on = traced_on
        SimulationKernel.add_process = traced_add_process
        SimulationKernel.run = counted_run

        for name in ("record", "record_failure", "record_denied", "record_arrival",
                     "record_instances"):
            setattr(SimulationMetrics, name, span("metrics", name, getattr(SimulationMetrics, name)))

        admit = span("tenancy", "admit", AdmissionController.admit)
        admit_value = AdmissionDecision.ADMIT

        def counted_admit(controller, *args, **kwargs):
            decision = admit(controller, *args, **kwargs)
            tracer.admit_calls += 1
            if decision is admit_value:
                tracer.admitted += 1
            return decision

        AdmissionController.admit = counted_admit
        ClusterResult.summary = span("summary", "summary", ClusterResult.summary)

        untraced_write = repro.obs.write_obs_artifacts
        write = span("obs", "write_obs_artifacts", untraced_write)

        def timed_write(obs, params):
            if obs is None:
                # No bundle attached: the call writes nothing, so it is no
                # obs work (its few instructions land in ``other``).
                return untraced_write(obs, params)
            start = perf_counter()
            try:
                return write(obs, params)
            finally:
                tracer.artifact_write_s += perf_counter() - start

        repro.obs.write_obs_artifacts = timed_write
