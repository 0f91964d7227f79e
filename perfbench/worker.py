"""One workload execution in a fresh process; prints one JSON line.

``run.py`` starts one of these per repetition, so set-up time counts the
interpreter start, the imports and the scenario build, and peak RSS is the
workload's own.  Usage (from the root of a checkout)::

    python3 perfbench/worker.py --workload full_stack --seed 1 \\
        --spawned-at <time.monotonic() of the parent> --work-dir .perfbench_work/x

The timed region runs from entry into ``ClusterSimulator.run`` until the
workload's runner returns its row, so the kernel run, ``summary()`` and any
artifact writes are inside it.  It is timed in CPU seconds of this process
(``setup_s`` too: CPU seconds from process start to that entry), normalised
to the reference host speed by a ``calibrate.HostSpeedSampler`` that runs
from the start of ``main``; the raw CPU and wall-clock figures are reported
beside them.  The sampler's slices (about 4% of the time) run in traced
repetitions too, so a traced layer's self time includes the slices that
landed in it.  With ``--trace`` the layer tracer of
``layers.py`` is installed first and the line also carries per-layer
figures; checks run after the timed region in both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from calibrate import SLICE_REFERENCE_S, HostSpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))


def layer_metrics(tracer, capture, wall_s: float, offered: int) -> dict:
    """The per-layer figures of one traced run (self times in seconds)."""
    from layers import LAYERS

    simulator = capture.simulator
    self_s = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    self_s["other"] = wall_s - tracer.attributed_s

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    fleet_calls = tracer.count("fleet", "SandboxColdStart")
    meter = simulator.meter
    metered = meter.num_requests if meter is not None else 0
    retry = simulator.retry
    scheduled = retry.retries_scheduled if retry is not None else 0
    retried_completions = sum(
        1 for sim in simulator.simulators.values()
        for outcome in sim.metrics.requests if outcome.attempts > 1
    )
    figures = {f"{layer}.self_s": value for layer, value in self_s.items()}
    figures.update({
        "kernel.events": tracer.kernel_events,
        "kernel.processes": tracer.kernel_processes,
        "kernel.ns_per_event": per(self_s["kernel"], tracer.kernel_events, 1e9),
        "platform.calls": tracer.count("platform"),
        # Per offered request, the same denominator as requests_per_s.
        "platform.us_per_arrival": per(self_s["platform"], offered, 1e6),
        "metrics.record_calls": tracer.count("metrics"),
        "bus.forwards": tracer.count("bus"),
        "fleet.admit_calls": fleet_calls,
        "fleet.placed_ratio": per(simulator.fleet.admitted, fleet_calls),
        "meter.requests_metered": metered,
        "meter.us_per_request": per(self_s["meter"], metered, 1e6),
        "tenancy.admit_calls": tracer.admit_calls,
        "tenancy.admitted_ratio": per(tracer.admitted, tracer.admit_calls),
        "retry.scheduled": scheduled,
        "retry.completed_ratio": per(retried_completions, scheduled),
        "sched.ticks": tracer.count("sched"),
        "obs.artifact_write_s": tracer.artifact_write_s,
    })
    return figures


def main(argv=None) -> int:
    sampler = HostSpeedSampler()
    sampler.start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    from workloads import Capture, offered_requests, check, hook_cluster_run, row_hash, run_workload

    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    capture = Capture()
    hook_cluster_run(capture, tracer.reset if tracer is not None else None)
    os.makedirs(args.work_dir, exist_ok=True)

    row = run_workload(args.workload, args.seed, args.work_dir)
    end_cpu_s = time.thread_time()
    end_s = time.monotonic()
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if capture.run_entry_s is None:
        print("ClusterSimulator.run was never called", file=sys.stderr)
        return 1
    wall_s = end_s - capture.run_entry_s
    # The headline timings are this single-threaded process's CPU seconds
    # (time spent waiting for a core, steal time included, is not in them),
    # normalised to the reference host speed by the sampler; the raw
    # figures are kept beside them.
    run_s = sampler.normalised_s(capture.run_entry_cpu_s, end_cpu_s)
    offered = offered_requests(capture)
    slices, slice_s = sampler.window(0.0, end_cpu_s)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "row_hash": row_hash(row),
        "setup_s": sampler.normalised_s(0.0, capture.run_entry_cpu_s),
        "setup_cpu_s": capture.run_entry_cpu_s,
        "setup_wall_s": capture.run_entry_s - args.spawned_at,
        "run_s": run_s,
        "run_cpu_s": end_cpu_s - capture.run_entry_cpu_s,
        "run_wall_s": wall_s,
        "host_slowdown": slice_s / slices / SLICE_REFERENCE_S,
        "offered_requests": offered,
        "requests_per_s": offered / run_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": check(args.workload, args.seed, row, capture, args.work_dir),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, capture, wall_s, offered)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
