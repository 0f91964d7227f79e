"""The indexed ready-sandbox pool picks exactly the sandbox the old scan picked.

``PlatformSimulator._pick_sandbox`` reads the head of a lazily validated
min-heap of ``(concurrency, name)`` entries instead of scanning every live
sandbox.  ``_reference_pick`` below is the scan it replaced, kept verbatim;
every routing decision of every simulator in these runs is checked against
it (``is``, not equality), on multi-concurrency platforms (``gcp_run_like``,
limit 80; ``azure_consumption_like``, limit 16 with 4 runtime workers) and
the single-concurrency ``aws_lambda_like``, through autoscaler scale-down,
keep-alive expiry, fleet feedback with queued and rejected admissions, and
client retries.  The pool's memory bound and the live-only registry are
checked on the same runs.
"""

import dataclasses
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.platform.invoker import _EPS, _POOL_REBUILD_FACTOR
from repro.platform.presets import get_platform_preset
from repro.platform.sandbox import Sandbox, SandboxState
from repro.sim.events import SandboxEvicted
from repro.sim.retry import RetryPolicy
from repro.workloads.functions import PYAES_FUNCTION

RETRY_POLICY = RetryPolicy(max_attempts=3, base_backoff_s=0.2, jitter=0.1)


def _reference_pick(self) -> Optional[Sandbox]:
    """The linear scan the ready pool replaced (``self`` is the simulator)."""
    limit = self.platform.concurrency.max_concurrency
    ready_cutoff = self._now + _EPS
    best: Optional[Sandbox] = None
    best_concurrency = 0
    for sandbox in self._sandboxes.values():
        state = sandbox.state
        if state is not SandboxState.IDLE and state is not SandboxState.BUSY:
            continue
        if sandbox.ready_s > ready_cutoff:
            continue
        concurrency = sandbox.concurrency
        if concurrency >= limit:
            continue
        if (
            best is None
            or concurrency < best_concurrency
            or (concurrency == best_concurrency and sandbox.name < best.name)
        ):
            best = sandbox
            best_concurrency = concurrency
    return best


class PickChecker:
    """Shadows each simulator's ``_pick_sandbox`` with a checked twin.

    Every call asserts that the registry holds no terminated sandbox and
    that the indexed pick is the very object the reference scan picks.
    """

    def __init__(self, cluster: ClusterSimulator) -> None:
        self.picks = 0
        self.found = 0
        self.evictions = {}
        cluster.bus.subscribe(SandboxEvicted, self._count_eviction)
        for simulator in cluster.simulators.values():
            simulator._pick_sandbox = self._checked(simulator)

    def _count_eviction(self, event: SandboxEvicted) -> None:
        self.evictions[event.reason] = self.evictions.get(event.reason, 0) + 1

    def _checked(self, simulator):
        indexed = simulator._pick_sandbox

        def pick():
            assert all(
                s.state is not SandboxState.TERMINATED for s in simulator._sandboxes.values()
            )
            expected = _reference_pick(simulator)
            actual = indexed()
            assert actual is expected, (
                f"{simulator.name} at t={simulator._now}: pool picked "
                f"{getattr(actual, 'name', None)}, scan picked {getattr(expected, 'name', None)}"
            )
            self.picks += 1
            self.found += actual is not None
            return actual

        return pick


def _build(preset, *, seed=0, rps=20.0, duration_s=5.0, num_functions=2, feedback="off",
           retry=None, keep_alive_s=None, max_hosts=100_000, queue_depth=0, host_vcpus=64.0,
           arrival_process="constant"):
    platform = get_platform_preset(preset)
    if keep_alive_s is not None:
        keep_alive = dataclasses.replace(
            platform.keep_alive, min_keep_alive_s=keep_alive_s, max_keep_alive_s=keep_alive_s,
            scale_out_extension_s=0.0,
        )
        platform = dataclasses.replace(platform, keep_alive=keep_alive)
    function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)
    deployments = [
        FunctionDeployment(
            function=dataclasses.replace(function, name=f"fn-{index:02d}"),
            platform=platform,
            rps=rps,
            duration_s=duration_s,
            arrival_process=arrival_process,
        )
        for index in range(num_functions)
    ]
    return ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=host_vcpus, memory_gb=host_vcpus * 2),
            max_hosts=max_hosts,
            queue_depth=queue_depth,
            sample_interval_s=None,
        ),
        seed=seed,
        feedback=feedback,
        retry=retry,
    )


def _assert_pool_bounded(cluster):
    """Between rebuilds the pool holds at most the factor times peak live sandboxes."""
    for simulator in cluster.simulators.values():
        peak = simulator.metrics.max_instances()
        assert len(simulator._ready_pool) <= _POOL_REBUILD_FACTOR * peak


class TestPoolMatchesScan:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        preset=st.sampled_from(["gcp_run_like", "azure_consumption_like", "aws_lambda_like"]),
        rps=st.sampled_from([5.0, 40.0, 150.0]),
        feedback=st.sampled_from(["off", "on"]),
        with_retry=st.booleans(),
        keep_alive_s=st.sampled_from([None, 0.5, 3.0]),
        max_hosts=st.sampled_from([1, 100_000]),
        queue_depth=st.sampled_from([0, 4]),
        arrival_process=st.sampled_from(["constant", "poisson"]),
    )
    def test_every_pick_matches_the_scan(self, seed, preset, rps, feedback, with_retry,
                                         keep_alive_s, max_hosts, queue_depth, arrival_process):
        cluster = _build(
            preset, seed=seed, rps=rps, duration_s=2.0, feedback=feedback,
            retry=RETRY_POLICY if with_retry else None, keep_alive_s=keep_alive_s,
            max_hosts=max_hosts, queue_depth=queue_depth, host_vcpus=2.0,
            arrival_process=arrival_process,
        )
        checker = PickChecker(cluster)
        cluster.run()
        assert checker.picks > 0
        _assert_pool_bounded(cluster)

    def test_autoscaler_scale_down(self):
        """A burst scales gcp_run_like out; the quiet tail scales it back in."""
        cluster = _build("gcp_run_like", seed=3, rps=300.0, duration_s=3.0, num_functions=1)
        checker = PickChecker(cluster)
        cluster.run(horizon_s=200.0)
        assert checker.evictions.get("scale_down", 0) > 0
        assert checker.found < checker.picks  # all-at-limit picks answered None
        _assert_pool_bounded(cluster)

    def test_keepalive_expiry(self):
        """Short keep-alives terminate idle azure_consumption_like sandboxes mid-run."""
        cluster = _build("azure_consumption_like", seed=5, rps=30.0, duration_s=10.0,
                         keep_alive_s=0.2, arrival_process="poisson")
        checker = PickChecker(cluster)
        cluster.run()
        assert checker.evictions.get("keepalive_expire", 0) > 0
        assert checker.found > 0
        _assert_pool_bounded(cluster)

    def test_feedback_queued_and_rejected_admissions_with_retry(self):
        """A one-host fleet queues and rejects cold starts; failures retry."""
        cluster = _build("aws_lambda_like", seed=11, rps=8.0, duration_s=5.0, feedback="on",
                         retry=RETRY_POLICY, keep_alive_s=1.0, max_hosts=1, queue_depth=2,
                         host_vcpus=2.0)
        checker = PickChecker(cluster)
        result = cluster.run()
        assert cluster.fleet.admitted_from_queue > 0
        assert sum(cluster.fleet.reject_reasons.values()) > 0
        assert result.summary()["retried_requests"] > 0
        assert checker.found > 0
        _assert_pool_bounded(cluster)

    def test_multi_concurrency_feedback_rejections(self):
        """gcp_run_like cold starts rejected by a full fleet still route identically."""
        cluster = _build("gcp_run_like", seed=2, rps=150.0, duration_s=3.0, feedback="on",
                         retry=RETRY_POLICY, max_hosts=1, queue_depth=0, host_vcpus=2.0)
        checker = PickChecker(cluster)
        cluster.run()
        assert cluster.fleet.reject_reasons
        assert checker.found > 0
        _assert_pool_bounded(cluster)


class TestPoolBound:
    def test_long_saturated_run_stays_within_rebuild_bound(self):
        """Tens of thousands of pushes never grow the pool past its bound."""
        cluster = _build("gcp_run_like", seed=1, rps=250.0, duration_s=20.0, num_functions=1)
        result = cluster.run()
        simulator = next(iter(cluster.simulators.values()))
        live = len(simulator._sandboxes)
        # Every admit and every completion pushes an entry: without rebuilds
        # the pool would hold orders of magnitude more than the bound.
        assert result.metrics["fn-00"].num_requests > 10 * _POOL_REBUILD_FACTOR * live
        assert len(simulator._ready_pool) <= _POOL_REBUILD_FACTOR * live
        assert all(s.state is not SandboxState.TERMINATED for s in simulator._sandboxes.values())

    def test_rebuild_keeps_only_valid_entries(self):
        """A rebuilt pool holds exactly the ready sandboxes below the limit."""
        cluster = _build("azure_consumption_like", seed=4, rps=60.0, duration_s=4.0,
                         num_functions=1)
        cluster.run()
        simulator = next(iter(cluster.simulators.values()))
        stale = _POOL_REBUILD_FACTOR * len(simulator._sandboxes) + 1
        simulator._ready_pool.extend([(0, "gone")] * stale)
        sandbox = next(iter(simulator._sandboxes.values()))
        simulator._pool_push(sandbox)
        limit = simulator.platform.concurrency.max_concurrency
        assert sorted(simulator._ready_pool) == sorted(
            (s.concurrency, name)
            for name, s in simulator._sandboxes.items()
            if s.state is not SandboxState.INITIALIZING and s.concurrency < limit
        )
