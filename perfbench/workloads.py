"""The benchmark's four workloads: their configs, how they run, how they are checked.

Every workload is an open loop in simulated time (arrivals follow a fixed
schedule or a seeded Poisson process, whatever the simulator does with them)
and is driven through the entry point a user of the simulator would call:

- ``hot_function``: a direct ``ClusterSimulator`` with 4 ``gcp_run_like``
  functions x 250 rps, constant arrivals and ``retain_outcomes=False``; no
  meter, feedback, retry, tenants or obs, and no fleet sampler.  The bare,
  routing-bound path (request routing and sandbox selection dominate).
- ``fanout``: ``cluster_point`` with 512 ``gcp_run_like`` functions x 2 rps,
  ``gcp_run_request`` billing and the fleet sampler.  Each function's
  autoscaler is a polled kernel process, so kernel polling dominates while
  per-function routing stays light.  The most deployments, so also the
  largest set-up.
- ``full_stack``: ``backpressure_point`` on a capacity-bound two-tier fleet
  (8 ``aws_lambda_like`` functions x 5 rps Poisson, ``cost_fit`` placement,
  queue depth 8, 6 hosts) with feedback, retry, 2 ``deny`` tenants refilling
  16 credits/s, 30 s keep-alive and the scheduler co-simulated.  The only
  workload where fleet, meter, tenancy, retry and feedback all do work, and
  failures, retries and denials sit beside successes.
- ``observed``: ``full_stack`` with trace, telemetry and profile artifacts
  written to a work directory -- the ``trace --simulate`` user path, the
  only workload where ``obs`` does work.  Its row must equal ``full_stack``'s.

``run_workload`` returns the row; ``hook_cluster_run`` keeps the live
simulator and result objects, which ``check`` uses to close the conservation
laws the test suite pins.  ``expected_rows.json`` holds each row at
``DEFAULT_SEED``; a change that alters simulated behaviour on purpose updates
it in the same change, using the per-key diff the check prints.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Seed whose rows are committed in ``expected_rows.json``.
DEFAULT_SEED = 1

EXPECTED_ROWS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected_rows.json")

_FULL_STACK: Dict[str, Any] = {
    "num_functions": 8,
    "platform": "aws_lambda_like",
    "billing": "aws_lambda",
    "rps_per_function": 5.0,
    "arrival_process": "poisson",
    "duration_s": 400.0,
    "heterogeneity": "two_tier",
    "placement_policy": "cost_fit",
    "queue_depth": 8,
    "max_hosts": 6,
    "feedback": "on",
    "retry": "on",
    "tenants": 2,
    "tenant_on_exhausted": "deny",
    "tenant_credit_refill_per_s": 16.0,
    "keep_alive_s": 30.0,
    "with_scheduler": True,
}

#: Workload name -> resolved config.  ``runner`` names the entry point; the
#: other keys are its parameters (``observed`` adds its artifact paths at run
#: time, under the work directory).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "hot_function": {
        "runner": "ClusterSimulator",
        "num_functions": 4,
        "platform": "gcp_run_like",
        "workload": "pyaes",
        "vcpus": 1.0,
        "memory_gb": 2.0,
        "rps_per_function": 250.0,
        "duration_s": 25.0,
        "drain_s": 120.0,
        "arrival_process": "constant",
        "retain_outcomes": False,
        "sample_interval_s": None,
    },
    "fanout": {
        "runner": "cluster_point",
        "num_functions": 512,
        "platform": "gcp_run_like",
        "billing": "gcp_run_request",
        "placement_policy": "best_fit",
        "keep_alive_s": 60.0,
        "rps_per_function": 2.0,
        "duration_s": 4.0,
        "sample_interval_s": 10.0,
    },
    "full_stack": {"runner": "backpressure_point", **_FULL_STACK},
    "observed": {
        "runner": "backpressure_point",
        **_FULL_STACK,
        "trace_out": "trace.json",
        "telemetry_out": "telemetry.csv",
        "profile_out": "profile.json",
    },
}

#: Artifact params of ``observed``: relative names, resolved under the work dir.
OBS_KEYS = ("trace_out", "telemetry_out", "profile_out")


@dataclasses.dataclass
class Capture:
    """What one ``ClusterSimulator.run`` call left behind."""

    simulator: Any = None
    result: Any = None
    #: ``time.monotonic()`` at entry into ``run``.
    run_entry_s: Optional[float] = None
    #: ``time.thread_time()`` at entry into ``run``: CPU seconds since the
    #: process started.
    run_entry_cpu_s: Optional[float] = None


def hook_cluster_run(capture: Capture, on_entry=None) -> None:
    """Wrap ``ClusterSimulator.run`` to stamp its entry and keep its objects.

    The stamps are taken before anything else in ``run``; ``on_entry`` (the
    traced worker's tracer reset) runs right after them.
    """
    from repro.cluster.cosim import ClusterSimulator

    run = ClusterSimulator.run

    def captured_run(simulator, *args, **kwargs):
        capture.run_entry_cpu_s = time.thread_time()
        capture.run_entry_s = time.monotonic()
        capture.simulator = simulator
        if on_entry is not None:
            on_entry()
        capture.result = run(simulator, *args, **kwargs)
        return capture.result

    ClusterSimulator.run = captured_run


def _hot_function(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """The direct-simulator workload: build the deployments, run, summarise."""
    from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
    from repro.cluster.fleet import FleetConfig
    from repro.platform.presets import get_platform_preset
    from repro.workloads.functions import get_workload

    platform = get_platform_preset(config["platform"])
    function = get_workload(config["workload"]).to_function_config(
        config["vcpus"], config["memory_gb"], init_duration_s=1.0
    )
    deployments = []
    for index in range(config["num_functions"]):
        deployments.append(
            FunctionDeployment(
                function=dataclasses.replace(function, name=f"fn-{index:03d}"),
                platform=platform,
                rps=config["rps_per_function"],
                duration_s=config["duration_s"],
                arrival_process=config["arrival_process"],
            )
        )
    simulator = ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(sample_interval_s=config["sample_interval_s"]),
        seed=seed,
        retain_outcomes=config["retain_outcomes"],
    )
    # At 250 rps the last burst queues in heavily contended sandboxes; the
    # explicit drain tail lets every request finish before the horizon.
    result = simulator.run(horizon_s=config["duration_s"] + config["drain_s"])
    return {"seed": seed, **result.summary()}


def resolved_config(name: str) -> Tuple[str, Dict[str, Any]]:
    """(runner, parameters) of a workload; also its provenance record."""
    config = dict(WORKLOADS[name])
    return config.pop("runner"), config


def run_workload(name: str, seed: int, work_dir: str) -> Dict[str, Any]:
    """Run one workload to its row (the timed region is the caller's)."""
    runner, config = resolved_config(name)
    if runner == "ClusterSimulator":
        return _hot_function(config, seed)
    for key in OBS_KEYS:
        if key in config:
            config[key] = os.path.join(work_dir, config[key])
    if runner == "cluster_point":
        from repro.analysis.cluster_costs import cluster_point

        return cluster_point(config, seed)
    from repro.analysis.backpressure import backpressure_point

    return backpressure_point(config, seed)


def canonical(row: Mapping[str, Any]) -> str:
    """The row as canonical JSON: sorted keys, floats in round-trip ``repr``."""
    return json.dumps(row, sort_keys=True, default=lambda value: value.item())


def row_hash(row: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical(row).encode()).hexdigest()


def offered_requests(capture: Capture) -> int:
    """Requests the open loop offered: organic arrivals, each retry chain once."""
    return sum(sim.metrics.arrivals - sim.metrics.retry_arrivals
               for sim in capture.simulator.simulators.values())


def check(name: str, seed: int, row: Mapping[str, Any], capture: Capture,
          work_dir: str) -> List[str]:
    """Every output check of one run; returns the failures (empty = correct)."""
    failures: List[str] = []
    simulator, result = capture.simulator, capture.result
    if simulator is None or result is None:
        return ["ClusterSimulator.run was never called"]

    # Arrival conservation per function: every arrival is exactly one of
    # completed, failed, credit-denied, pending or still in flight.  A run
    # without retries or tenants must also have drained: completed + failed
    # + pending == arrivals.
    drained = simulator.retry is None and simulator.admission is None
    for function, sim in simulator.simulators.items():
        m = sim.metrics
        in_flight = sim.in_flight_request_count
        accounted = (m.num_requests + m.failed_requests + m.denied_requests
                     + sim.pending_request_count + in_flight)
        if m.arrivals != accounted or (drained and (in_flight or m.denied_requests)):
            failures.append(
                f"{function}: {m.arrivals} arrivals != {m.num_requests} completed + "
                f"{m.failed_requests} failed + {m.denied_requests} denied + "
                f"{sim.pending_request_count} pending + {in_flight} in flight"
            )

    if result.tenancy is not None:
        for tenant in result.tenancy.tenants:
            if not tenant.conserves():
                failures.append(
                    f"tenant {tenant.name}: {tenant.arrivals} arrivals != {tenant.completed} "
                    f"completed + {tenant.failed} failed + {tenant.denied} denied + "
                    f"{tenant.pending} pending + {tenant.in_flight} in flight"
                )

    fleet = simulator.fleet
    if fleet.admitted != fleet.released + fleet.num_placed:
        failures.append(
            f"fleet: {fleet.admitted} admitted != {fleet.released} released + "
            f"{fleet.num_placed} placed"
        )
    if fleet.queued_total != fleet.admitted_from_queue + fleet.queue_abandoned + len(fleet.queue):
        failures.append("fleet: admission-queue entries do not close")

    if simulator.retry is not None:
        retried = sum(sim.metrics.retry_arrivals for sim in simulator.simulators.values())
        if retried > simulator.retry.retries_scheduled:
            failures.append(
                f"retry: {retried} retry arrivals > {simulator.retry.retries_scheduled} scheduled"
            )
        gave_up = sum(sim.metrics.gave_up_requests for sim in simulator.simulators.values())
        if simulator.retry.gave_up != gave_up:
            failures.append(f"retry: loop gave up {simulator.retry.gave_up} != metrics {gave_up}")

    if not WORKLOADS[name].get("retain_outcomes", True):
        retained = sum(len(sim.metrics.requests) for sim in simulator.simulators.values())
        if retained:
            failures.append(f"{retained} outcomes retained under retain_outcomes=False")

    if "trace_out" in WORKLOADS[name]:
        failures.extend(_check_artifacts(name, work_dir))

    if seed == DEFAULT_SEED:
        failures.extend(_check_expected(name, row))
    return failures


def _check_artifacts(name: str, work_dir: str) -> List[str]:
    """The obs artifacts exist, the Chrome trace is well formed, the profile parses."""
    from repro.obs import validate_chrome_trace

    paths = {key: os.path.join(work_dir, WORKLOADS[name][key]) for key in OBS_KEYS}
    missing = [key for key, path in paths.items()
               if not os.path.isfile(path) or os.path.getsize(path) == 0]
    if missing:
        return [f"obs artifacts missing or empty: {missing}"]
    try:
        with open(paths["trace_out"]) as handle:
            if validate_chrome_trace(json.load(handle)["traceEvents"]) == 0:
                return ["Chrome trace holds no events"]
        with open(paths["profile_out"]) as handle:
            json.load(handle)
    except (ValueError, KeyError) as error:
        return [f"malformed obs artifact: {error}"]
    return []


def _check_expected(name: str, row: Mapping[str, Any]) -> List[str]:
    """At the default seed the row must equal the committed one, key for key."""
    with open(EXPECTED_ROWS) as handle:
        expected = json.load(handle)
    # observed's row is full_stack's, so both compare against that entry.
    reference = expected.get("full_stack" if name == "observed" else name)
    if reference is None:
        return [f"no expected row committed for {name}"]
    actual = json.loads(canonical(row))
    if actual == reference:
        return []
    keys = sorted(set(actual) | set(reference))
    diffs = [
        f"{key}: expected {reference.get(key)!r}, got {actual.get(key)!r}"
        for key in keys
        if actual.get(key) != reference.get(key)
    ]
    return [f"row differs from expected_rows.json[{name!r}]: " + "; ".join(diffs)]
