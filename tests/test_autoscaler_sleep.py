"""Autoscalers that sleep through idle stretches equal always-ticking autoscalers.

An idle function's autoscaler stops ticking on the kernel and replays the
ticks it skipped when demand (an arrival, a retry, a credit release) or a
keep-alive expiry wakes it, when a scale-down timer fires, or when the run
ends.  The reference here is the same simulation with the sleep entry
(``PlatformSimulator._fall_asleep``) patched off, so every tick runs on the
kernel.  At the end of each run the two must agree on every instance-timeline
entry, the three autoscaler window columns, the pending scale-down candidate,
every retained outcome and the summary row.
"""

import contextlib
import dataclasses
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.platform.invoker import PlatformSimulator
from repro.platform.presets import get_platform_preset
from repro.sim.retry import RetryPolicy
from repro.tenancy import TenantConfig
from repro.workloads.functions import PYAES_FUNCTION

AUTOSCALED_PRESETS = ("gcp_run_like", "azure_consumption_like", "ibm_code_engine_like")


def _always_ticking():
    """Patch the sleep entry off: every autoscaler tick then runs on the kernel."""
    return mock.patch.object(PlatformSimulator, "_fall_asleep", lambda self, now_s: None)


def _platform(preset, autoscaler, keep_alive_s):
    config = get_platform_preset(preset)
    if keep_alive_s is not None:
        config = dataclasses.replace(
            config,
            keep_alive=dataclasses.replace(
                config.keep_alive, min_keep_alive_s=keep_alive_s, max_keep_alive_s=keep_alive_s
            ),
        )
    return dataclasses.replace(
        config, autoscaler=dataclasses.replace(config.autoscaler, **autoscaler)
    )


def _state(simulator):
    """Everything sleeping may not change, for one platform simulator."""
    scaler = simulator._autoscaler
    metrics = simulator.metrics
    return {
        "instance_timeline": list(metrics.instance_timeline),
        "times": list(scaler._times),
        "active": list(scaler._active),
        "busy": list(scaler._busy),
        "candidate": scaler._last_scale_down_candidate,
        "requests": list(metrics.requests),
        "failures": list(metrics.failures),
        "summary": repr(sorted(metrics.summary().items())),
    }


@contextlib.contextmanager
def _counting_replays():
    """Count the ticks replayed across the simulators of a run."""
    counter = types.SimpleNamespace(replayed=0)
    replay = PlatformSimulator._replay_tick

    def counted(simulator, now_s):
        counter.replayed += 1
        replay(simulator, now_s)

    with mock.patch.object(PlatformSimulator, "_replay_tick", counted):
        yield counter


# ----------------------------------------------------------------------
# Cluster runs
# ----------------------------------------------------------------------

_AUTOSCALER = st.fixed_dictionaries(
    {
        "metric_window_s": st.sampled_from([3.0, 8.0, 60.0]),
        "evaluation_interval_s": st.sampled_from([0.5, 1.0, 2.0, 0.3]),
        "scale_down_delay_s": st.sampled_from([0.0, 2.0, 5.0, 30.0]),
        "min_instances": st.sampled_from([0, 0, 1, 2]),
        "panic_threshold": st.sampled_from([0.0, 2.0]),
        "admission_queue_weight": st.sampled_from([0.0, 0.0, 4.0]),
    }
)

_CLUSTER = st.fixed_dictionaries(
    {
        "preset": st.sampled_from(AUTOSCALED_PRESETS),
        "autoscaler": _AUTOSCALER,
        # Keep-alive expiry while asleep needs a keep-alive shorter than
        # the idle gaps; None keeps the preset's minutes-long window.
        "keep_alive_s": st.sampled_from([1.0, 4.0, 12.0, None]),
        "rps": st.lists(st.sampled_from([0.5, 1.0, 3.0, 8.0]), min_size=1, max_size=3),
        "duration_s": st.sampled_from([1.0, 4.0, 9.0]),
        "poisson": st.booleans(),
        # Idle tail after the traffic: longer than window + scale-down delay.
        "horizon_s": st.sampled_from([None, 40.0, 90.0]),
        "feedback": st.sampled_from(["off", "on"]),
        "max_hosts": st.sampled_from([1, 2, 50]),
        "queue_depth": st.sampled_from([0, 2]),
        "retry": st.sampled_from([None, "backoff", "immediate"]),
        "tenants": st.sampled_from([None, "deny", "queue"]),
        "seed": st.integers(0, 2**16),
    }
)


def _cluster(spec, names=None):
    platform = _platform(spec["preset"], spec["autoscaler"], spec["keep_alive_s"])
    deployments = []
    for index, rps in enumerate(spec["rps"]):
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)
        deployments.append(
            FunctionDeployment(
                function=dataclasses.replace(
                    function, name=f"fn-{index}" if names is None else names[index]
                ),
                platform=platform,
                rps=rps,
                duration_s=spec["duration_s"],
                arrival_process="poisson" if spec["poisson"] else "constant",
            )
        )
    retry = {
        None: None,
        "backoff": RetryPolicy(max_attempts=3, base_backoff_s=0.4, jitter=0.2),
        # Zero backoff: a retry arrives at the very instant its attempt failed.
        "immediate": RetryPolicy(max_attempts=3, base_backoff_s=0.0, max_backoff_s=0.0, jitter=0.0),
    }[spec["retry"]]
    tenants = None
    if spec["tenants"] is not None:
        tenants = [
            TenantConfig(
                name=name,
                credit_capacity=4.0,
                credit_refill_per_s=1.5,
                on_exhausted=spec["tenants"],
            )
            for name in ("t0", "t1")
        ]
    return ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=2.0, memory_gb=4.0),
            max_hosts=spec["max_hosts"],
            queue_depth=spec["queue_depth"],
            sample_interval_s=3.0,
        ),
        billing_platform="gcp_run_request",
        seed=spec["seed"],
        feedback=spec["feedback"],
        retry=retry,
        tenants=tenants,
    )


def _run_cluster(spec, names=None):
    simulator = _cluster(spec, names)
    result = simulator.run(horizon_s=spec["horizon_s"])
    states = {name: _state(sim) for name, sim in simulator.simulators.items()}
    return states, repr(sorted(result.summary().items()))


def _spec(**overrides):
    """One cluster scenario: a single steady function unless overridden."""
    return {
        "preset": "gcp_run_like", "autoscaler": {}, "keep_alive_s": None, "rps": [1.0],
        "duration_s": 4.0, "poisson": False, "horizon_s": None, "feedback": "off",
        "max_hosts": 50, "queue_depth": 0, "retry": None, "tenants": None, "seed": 1,
        **overrides,
    }


def _equal_to_always_ticking(spec, names=None):
    with _always_ticking():
        expected = _run_cluster(spec, names)
    actual = _run_cluster(spec, names)
    assert actual == expected
    return actual


class TestClusterEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(spec=_CLUSTER)
    def test_sleeping_equals_always_ticking(self, spec):
        _equal_to_always_ticking(spec)

    @pytest.mark.parametrize("preset", AUTOSCALED_PRESETS)
    def test_every_preset_sleeps_and_scales_down_from_a_timer(self, preset):
        spec = _spec(
            preset=preset,
            autoscaler={"metric_window_s": 6.0, "scale_down_delay_s": 10.0},
            rps=[4.0, 0.5],
            duration_s=6.0,
            horizon_s=120.0,
            seed=3,
        )
        with _counting_replays() as counted:
            actual = _equal_to_always_ticking(spec)
        assert counted.replayed > 0
        # The preset keep-alive outlives the horizon, so the scale-down to
        # zero happened with no request around: only a timer wake fired it.
        for state in actual[0].values():
            assert state["instance_timeline"][-1][1] == 0
            assert max(count for _, count in state["instance_timeline"]) > 0

    def test_keep_alive_expiry_while_asleep(self):
        spec = _spec(
            autoscaler={"metric_window_s": 3.0, "scale_down_delay_s": 1000.0},
            keep_alive_s=5.0,
            rps=[2.0],
            horizon_s=60.0,
        )
        timeline = _equal_to_always_ticking(spec)[0]["fn-0"]["instance_timeline"]
        # The scale-down timer lies beyond the horizon, so the expiry is what
        # emptied the pool, with the autoscaler asleep.
        assert timeline[-1][1] == 0 < max(count for _, count in timeline)

    def test_rejected_scale_up_keeps_retrying(self):
        # A fleet with no room rejects every cold start, so the pool stays
        # below min_instances while the function is idle: every tick tries
        # again (and the fleet counts each rejection), so none may be skipped.
        spec = _spec(
            autoscaler={"min_instances": 2},
            duration_s=2.0,
            horizon_s=30.0,
            feedback="on",
            max_hosts=0,
            seed=5,
        )
        row = _equal_to_always_ticking(spec)[1]
        # Both arrivals' cold starts, then two per tick on the 2 s grid to 30 s.
        assert "('rejected_no_capacity', 34.0)" in row

    def test_nested_function_names_read_only_their_own_admission_queue(self):
        # ``a``'s id prefix ``a/`` also starts ``a/b``'s sandbox names.  ``a``
        # sleeps while ``a/b`` keeps cold starts queued on the one host, so
        # ``a``'s queue signal must not count them.
        spec = _spec(
            autoscaler={"admission_queue_weight": 4.0, "metric_window_s": 4.0,
                        "evaluation_interval_s": 1.0, "scale_down_delay_s": 10.0,
                        "target_concurrency_fraction": 0.05},
            keep_alive_s=2.0,
            rps=[0.25, 4.0],
            duration_s=9.0,
            poisson=True,
            horizon_s=40.0,
            feedback="on",
            max_hosts=1,
            queue_depth=4,
            seed=2,
        )
        with _counting_replays() as counted:
            _equal_to_always_ticking(spec, names=["a", "a/b"])
        assert counted.replayed > 0

    def test_arrival_exactly_on_a_grid_tick(self):
        # 0.5 rps from t=0 on a 2 s grid: every arrival lands on a tick, and
        # the heap event must still precede the tick of its instant.
        spec = _spec(
            autoscaler={"metric_window_s": 4.0, "evaluation_interval_s": 2.0},
            rps=[0.5],
            duration_s=30.0,
            horizon_s=80.0,
            seed=2,
        )
        with _counting_replays() as counted:
            _equal_to_always_ticking(spec)
        assert counted.replayed > 0


# ----------------------------------------------------------------------
# Standalone PlatformSimulator.run
# ----------------------------------------------------------------------


def _standalone(preset, autoscaler, keep_alive_s, arrivals, horizon_s, seed):
    function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)
    simulator = PlatformSimulator(
        _platform(preset, autoscaler, keep_alive_s), function, seed=seed
    )
    simulator.run(arrivals, horizon_s=horizon_s)
    # The clock is what end-of-run readers (trace replay's meter) close on.
    return _state(simulator), simulator.kernel.now


class TestStandaloneEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        preset=st.sampled_from(AUTOSCALED_PRESETS),
        autoscaler=_AUTOSCALER,
        keep_alive_s=st.sampled_from([1.0, 6.0, None]),
        bursts=st.lists(
            st.tuples(st.floats(0.0, 60.0), st.integers(1, 12), st.sampled_from([0.0, 0.05, 0.5])),
            min_size=0,
            max_size=4,
        ),
        horizon_s=st.sampled_from([None, 50.0, 100.5]),
        seed=st.integers(0, 2**16),
    )
    def test_sleeping_equals_always_ticking(
        self, preset, autoscaler, keep_alive_s, bursts, horizon_s, seed
    ):
        arrivals = [start + k * gap for start, count, gap in bursts for k in range(count)]
        args = (preset, autoscaler, keep_alive_s, arrivals, horizon_s, seed)
        with _always_ticking():
            expected = _standalone(*args)
        assert _standalone(*args) == expected

    def test_run_ends_on_the_always_ticking_clock(self):
        args = ("gcp_run_like", {}, None, [0.0, 0.5, 1.0], 30.0, 0)
        with _always_ticking():
            expected = _standalone(*args)
        with _counting_replays() as counted:
            actual = _standalone(*args)
        assert actual == expected
        assert counted.replayed > 0
        # The last tick on the 2 s grid at or before the horizon.
        assert actual[1] == 30.0


class TestInexactGrid:
    """Grids whose rounding can shrink the window must not sleep.

    On a 0.3 s grid the ticks are stepped ``+= 0.3`` and rounded; the step
    changes across t = 8, so a 3 s window holds 11 samples at t = 8.4 but
    only 10 at t = 8.7.  The same totals then average 10 % higher.
    """

    # One instance's target is exactly one active request, and only the
    # concurrency signal matters (no panic, CPU target at the allocation).
    AUTOSCALER = {
        "metric_window_s": 3.0,
        "target_concurrency_fraction": 0.0125,  # x 80 = 1.0
        "target_cpu_utilization": 1.0,
        "panic_threshold": 0.0,
        "scale_down_delay_s": 100.0,
    }
    # A warm-up request, then 9 at once: the burst's samples are still in
    # the window at t = 8.7, after the function went idle.
    ARRIVALS = [0.0] + [6.25] * 9

    def _run(self, interval_s):
        autoscaler = dict(self.AUTOSCALER, evaluation_interval_s=interval_s)
        args = ("gcp_run_like", autoscaler, None, self.ARRIVALS, 20.0, 0)
        with _always_ticking():
            expected = _standalone(*args)
        with _counting_replays() as counted:
            actual = _standalone(*args)
        assert actual == expected
        return actual[0]["instance_timeline"], counted.replayed

    def test_window_shrinks_on_the_rounded_grid(self):
        tick, sizes = 0.0, {}
        scaler = PlatformSimulator(
            _platform("gcp_run_like", self.AUTOSCALER, None),
            PYAES_FUNCTION.to_function_config(1.0, 2.0),
        )._autoscaler
        for _ in range(40):
            scaler.observe(tick, 0, 0)
            sizes[round(tick, 6)] = len(scaler._times)
            tick += 0.3
        assert sizes[8.4] == 11 and sizes[8.7] == 10

    def test_scale_up_from_a_shrinking_window_is_not_slept_through(self):
        timeline, replayed = self._run(0.3)
        assert replayed == 0
        # Always ticking, the shrunk window asks for one more instance at
        # t = 8.7 with no request around.
        counts = dict((round(t, 6), count) for t, count in timeline)
        assert counts[8.7] == counts[8.4] + 1

    def test_exact_grid_still_sleeps(self):
        assert self._run(0.25)[1] > 0

    def test_preset_grids_are_exact(self):
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0)
        for preset in AUTOSCALED_PRESETS:
            scaler = PlatformSimulator(get_platform_preset(preset), function)._autoscaler
            assert scaler.zero_samples_cannot_scale_up(1e9)
        inexact = PlatformSimulator(
            _platform("gcp_run_like", {"evaluation_interval_s": 0.3}, None), function
        )._autoscaler
        assert not inexact.zero_samples_cannot_scale_up(0.0)


def test_unnamed_simulator_reading_the_admission_queue_never_sleeps():
    from repro.sim.events import EventBus
    from repro.sim.feedback import FeedbackChannel

    channel = FeedbackChannel().attach(EventBus())
    platform = _platform("gcp_run_like", {"admission_queue_weight": 2.0}, None)
    function = PYAES_FUNCTION.to_function_config(1.0, 2.0)
    simulator = PlatformSimulator(platform, function, feedback=channel)
    with _counting_replays() as counted:
        simulator.run([0.0], horizon_s=200.0)
    assert counted.replayed == 0
    assert not simulator._asleep


# ----------------------------------------------------------------------
# Record-free instance series
# ----------------------------------------------------------------------


class TestRecordFreeInstanceSeries:
    def _run(self, retain_outcomes, horizon_s):
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)
        platform = _platform("gcp_run_like", {"evaluation_interval_s": 0.5}, None)
        simulator = PlatformSimulator(platform, function, seed=4, retain_outcomes=retain_outcomes)
        # A burst that scales out, then a long idle stretch on a 0.5 s grid.
        arrivals = [k * 0.01 for k in range(400)]
        simulator.run(arrivals, horizon_s=horizon_s)
        return simulator.metrics

    def test_series_stays_constant_size_and_keeps_the_maximum(self):
        short = self._run(retain_outcomes=False, horizon_s=100.0)
        long = self._run(retain_outcomes=False, horizon_s=5000.0)
        retained = self._run(retain_outcomes=True, horizon_s=5000.0)
        assert len(retained.instance_timeline) > 10_000
        assert short.instance_timeline == long.instance_timeline == []
        assert long.max_instances() == short.max_instances() == retained.max_instances() > 1
        assert long.summary()["max_instances"] == retained.summary()["max_instances"]

    def test_metrics_unit(self):
        from repro.platform.metrics import SimulationMetrics

        bounded = SimulationMetrics(retain_outcomes=False)
        full = SimulationMetrics()
        assert bounded.max_instances() == full.max_instances() == 0
        for index, count in enumerate([0, 2, 5, 3, 0, 4]):
            bounded.record_instances(float(index), count)
            full.record_instances(float(index), count)
        assert bounded.instance_timeline == []
        assert full.instance_timeline == [(0.0, 0), (1.0, 2), (2.0, 5), (3.0, 3), (4.0, 0), (5.0, 4)]
        assert bounded.max_instances() == full.max_instances() == 5


def test_warming_sandboxes_keep_the_autoscaler_awake():
    """A sandbox still initializing can leave without any demand, so no sleep.

    A fleet may reject a queued admission late (the feedback channel allows
    it, e.g. a queue timeout): the platform then tears the sandbox down and
    the instance count drops with no arrival or keep-alive expiry to wake a
    sleeping autoscaler.
    """
    from repro.sim.events import EventBus, SandboxColdStart, SandboxQueued, SandboxRejected
    from repro.sim.feedback import FeedbackChannel

    platform = _platform(
        "gcp_run_like",
        {"target_concurrency_fraction": 0.1, "metric_window_s": 4.0,
         "evaluation_interval_s": 1.0, "scale_down_delay_s": 60.0},
        None,
    )
    function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)

    def run():
        fleet_bus = EventBus()
        simulator = PlatformSimulator(
            platform, function, seed=0, feedback=FeedbackChannel().attach(fleet_bus)
        )
        queued = []

        def stand_in_fleet(event):
            # The first sandbox is placed; every scale-up after it waits.
            if event.sandbox_name != "sandbox-000000":
                queued.append(event.sandbox_name)
                fleet_bus.publish(SandboxQueued(event.time_s, event.sandbox_name, queue_depth=1))

        simulator.bus.subscribe(SandboxColdStart, stand_in_fleet)
        simulator.kernel.on(
            "queue_timeout",
            lambda event: fleet_bus.publish(
                SandboxRejected(event.time, queued[0], reason="queue_timeout")
            ),
        )
        simulator.kernel.schedule(20.0, "queue_timeout")
        simulator.run([k * 0.01 for k in range(60)], horizon_s=40.0)
        assert queued
        return _state(simulator), simulator.kernel.now

    with _always_ticking():
        expected = run()
    assert run() == expected
