"""Cluster-cost experiment: fleet size x placement policy x keep-alive, co-simulated.

The paper's provider-side cost arguments (§2.2, §3.3) connect three knobs the
earlier per-layer experiments could only study in isolation: how many
functions share the cluster, how their sandboxes are packed onto hosts, and
how long keep-alive pins idle capacity.  This experiment sweeps all three
through the :mod:`repro.sim.sweep` orchestrator; each grid point runs a full
:class:`~repro.cluster.cosim.ClusterSimulator` co-simulation (every function's
platform simulator, the event-driven fleet, and the live cost meter in one
event loop) and reports fleet utilisation next to the user-side invoice.

Every scenario's seed derives from the base seed and the grid point identity,
so sequential and parallel sweeps produce identical rows.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

from repro.sim.rng import named_generator
from repro.sim.results import ResultStore
from repro.sim.sweep import build_grid, reject_unknown_params, run_sweep

__all__ = ["cluster_point", "cluster_cost_sweep", "DEFAULT_AXES"]

#: Default sweep axes: fleet size (deployed functions) x placement policy x
#: keep-alive window (seconds, scales the platform preset's window).
DEFAULT_AXES: Dict[str, Sequence[object]] = {
    "num_functions": (4, 8),
    "placement_policy": ("first_fit", "best_fit", "worst_fit"),
    "keep_alive_s": (60.0, 300.0),
}

#: The params :func:`cluster_point` reads itself; the retry, tenancy and
#: observability params are accepted on top.
POINT_PARAMS = (
    "num_functions",
    "placement_policy",
    "keep_alive_s",
    "platform",
    "billing",
    "workload",
    "rps_per_function",
    "duration_s",
    "arrival_process",
    "host_vcpus",
    "host_memory_gb",
    "sample_interval_s",
    "feedback",
)


def cluster_point(params: Mapping[str, object], seed: int) -> Dict[str, object]:
    """Sweep runner: one cluster co-simulation grid point.

    Expected params: ``num_functions``, ``placement_policy``
    (``first_fit`` | ``best_fit`` | ``worst_fit``), ``keep_alive_s`` (the
    swept keep-alive window; the preset's window is rescaled so its max
    equals this value), and optionally ``platform`` (preset name, default
    ``gcp_run_like``), ``billing`` (billing-model name, default
    ``gcp_run_request``), ``workload`` (catalog name, default ``pyaes``),
    ``rps_per_function``, ``duration_s``, ``arrival_process``,
    ``host_vcpus``, ``host_memory_gb``, ``sample_interval_s``,
    ``feedback`` (``off`` | ``on``, default ``off``: close the state loop so
    admission outcomes and scheduler throttling shape the
    ``failed_requests`` / ``latency_inflation`` columns), and ``retry``
    (``off`` | ``on``: re-inject failed requests through the client retry
    loop, tunable via the ``retry_*`` params of
    :meth:`repro.sim.retry.RetryPolicy.from_params`; rows then gain the
    retry columns, and when the param is absent entirely rows stay
    byte-identical to the pre-retry output).

    Tenancy params (:func:`repro.tenancy.model.resolve_tenants`):
    ``tenants`` (``off`` | an integer tenant count) plus the
    ``tenant_credit_capacity`` / ``tenant_credit_refill_per_s`` /
    ``tenant_request_cost`` / ``tenant_on_exhausted`` /
    ``tenant_max_queued`` / ``tenant_slo_latency_s`` knobs.  An integer
    turns on credit-metered admission (deployments assigned round-robin)
    and adds the per-tenant fairness/SLO columns; when the param is absent
    entirely rows stay byte-identical to the pre-tenancy output.

    Observability params (all optional, all passive): ``trace_out``
    (request-span export path; ``.jsonl`` for span lines, anything else for
    Chrome ``trace_event`` JSON), ``telemetry_out`` (sampled time-series
    CSV), ``profile_out`` (kernel profile JSON).  Any of them attaches a
    :class:`repro.obs.Observability` to the run; rows stay byte-identical
    either way.

    Any other param raises ``ValueError`` naming it and its closest known
    param, instead of being ignored.

    Imports stay inside the function so the runner is resolvable by dotted
    path in sweep worker processes without import cycles.
    """
    from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
    from repro.cluster.fleet import FleetConfig
    from repro.cluster.host import HostSpec
    from repro.cluster.placement import PlacementPolicy
    from repro.obs import OBS_PARAMS
    from repro.platform.presets import get_platform_preset
    from repro.sim.retry import RETRY_PARAMS, resolve_retry
    from repro.tenancy.model import TENANT_PARAMS
    from repro.traces.generator import HUAWEI_FLAVORS
    from repro.workloads.functions import get_workload

    reject_unknown_params(
        params, POINT_PARAMS + RETRY_PARAMS + TENANT_PARAMS + OBS_PARAMS, "cluster_point"
    )
    num_functions = int(params["num_functions"])  # type: ignore[arg-type]
    policy = PlacementPolicy(str(params["placement_policy"]))
    keep_alive_s = float(params["keep_alive_s"])  # type: ignore[arg-type]
    platform = get_platform_preset(str(params.get("platform", "gcp_run_like")))
    billing = str(params.get("billing", "gcp_run_request"))
    workload = get_workload(str(params.get("workload", "pyaes")))
    rps = float(params.get("rps_per_function", 2.0))  # type: ignore[arg-type]
    duration_s = float(params.get("duration_s", 60.0))  # type: ignore[arg-type]
    arrival_process = str(params.get("arrival_process", "constant"))
    host_spec = HostSpec(
        vcpus=float(params.get("host_vcpus", 16.0)),  # type: ignore[arg-type]
        memory_gb=float(params.get("host_memory_gb", 64.0)),  # type: ignore[arg-type]
    )

    # Rescale the preset's keep-alive window so its max hits the swept value
    # (preserving the min/max ratio keeps the opportunistic ramp shape).
    keep_alive = platform.keep_alive
    factor = keep_alive_s / keep_alive.max_keep_alive_s
    platform = dataclasses.replace(
        platform,
        keep_alive=dataclasses.replace(
            keep_alive,
            min_keep_alive_s=keep_alive.min_keep_alive_s * factor,
            max_keep_alive_s=keep_alive_s,
        ),
    )

    # Functions draw discrete Huawei-like flavors from a named stream, so the
    # population depends only on (seed, "flavors") -- not on sweep ordering.
    flavor_rng = named_generator(seed, "flavors")
    flavor_indices = flavor_rng.integers(0, len(HUAWEI_FLAVORS), size=num_functions)
    deployments: List[FunctionDeployment] = []
    for index in range(num_functions):
        vcpus, memory_gb = HUAWEI_FLAVORS[int(flavor_indices[index])]
        function = workload.to_function_config(vcpus, memory_gb, init_duration_s=1.0)
        function = dataclasses.replace(function, name=f"fn-{index:03d}")
        deployments.append(
            FunctionDeployment(
                function=function,
                platform=platform,
                rps=rps,
                duration_s=duration_s,
                arrival_process=arrival_process,
            )
        )

    feedback = str(params.get("feedback", "off"))
    retry_mode, retry_policy = resolve_retry(params)
    from repro.obs import obs_from_params, write_obs_artifacts
    from repro.tenancy import resolve_tenants

    tenants_mode, tenant_configs = resolve_tenants(params)
    obs = obs_from_params(params)
    simulator = ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=host_spec,
            policy=policy,
            sample_interval_s=float(params.get("sample_interval_s", 10.0)),  # type: ignore[arg-type]
        ),
        billing_platform=billing,
        seed=seed,
        feedback=feedback,
        retry=retry_policy,
        obs=obs,
        tenants=tenant_configs,
    )
    result = simulator.run()
    write_obs_artifacts(obs, params)

    row: Dict[str, object] = {
        "num_functions": num_functions,
        "placement_policy": policy.value,
        "keep_alive_s": keep_alive_s,
        "platform": platform.name,
        "feedback": feedback,
        "seed": seed,
    }
    if retry_mode is not None:
        row["retry"] = retry_mode
    if tenants_mode is not None:
        row["tenants"] = tenants_mode
    summary = result.summary()
    summary.pop("num_functions", None)
    summary.pop("policy", None)
    row.update(summary)
    return row


def cluster_cost_sweep(
    axes: Optional[Mapping[str, Sequence[object]]] = None,
    common: Optional[Mapping[str, object]] = None,
    base_seed: int = 2026,
    processes: Optional[int] = None,
    ordered: bool = True,
    first_point_extra: Optional[Mapping[str, object]] = None,
    backend: Optional[object] = None,
    checkpoint: Optional[str] = None,
) -> ResultStore:
    """Run the cluster-cost grid through the sweep orchestrator.

    ``ordered=False`` uses work-stealing pool execution (identical rows,
    better worker utilisation on heterogeneous grids).

    ``backend`` / ``checkpoint`` pass through to
    :func:`repro.sim.sweep.run_sweep`: any execution backend (including the
    multi-node ``socket-queue`` server) and an optional JSONL journal that
    makes the sweep kill/resume-safe.  Rows are byte-identical across all.

    ``first_point_extra`` merges extra params into the *first* grid point
    only -- how the CLI attaches ``trace_out``/``telemetry_out`` artifact
    paths to a single representative point.  Seeds derive from grid
    identity, not params, so the rows are unchanged.
    """
    scenarios = build_grid(
        runner="repro.analysis.cluster_costs:cluster_point",
        axes=dict(axes or DEFAULT_AXES),
        common=common,
        base_seed=base_seed,
    )
    if first_point_extra:
        scenarios[0] = dataclasses.replace(
            scenarios[0], params={**scenarios[0].params, **first_point_extra}
        )
    return run_sweep(
        scenarios, processes=processes, ordered=ordered, backend=backend, checkpoint=checkpoint
    )


def cluster_costs_experiment() -> List[Dict[str, object]]:
    """The registry entry point: a small default grid, sequential."""
    axes = {
        "num_functions": (4, 8),
        "placement_policy": ("first_fit", "best_fit", "worst_fit"),
        "keep_alive_s": (60.0,),
    }
    store = cluster_cost_sweep(axes=axes, common={"duration_s": 30.0})
    return store.rows
