#!/usr/bin/env python3
"""Host-time benchmark of the cluster co-simulator: four workloads, layer by layer.

Run from the root of a checkout (nothing to build; the simulator is pure
Python under ``src/``)::

    python3 perfbench/run.py --workload full_stack --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --output results.json
    python3 perfbench/run.py --workload all --output new.json --baseline results.json

Each repetition is a fresh worker process (``worker.py``); a run repeats the
workload for ``--seconds``, cycling through four inputs (``--seed`` and three
seeds derived from it), and reports each metric's median over the
repetitions.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``attempted`` counts repetitions and ``failed`` those whose output check
failed.  Any failed check also makes the command exit non-zero.

What is measured
================

Every timing is *host* time of a single-threaded process (the simulated
statistics are deterministic and are checked, never timed), taken as the
process's CPU time and normalised to a fixed host speed.  A shared host
runs the same code up to twice as fast in one second as in the next, and
CPU time alone does not see that, so each worker samples the host's speed
all through its run with a fixed reference workload (``calibrate.py``) and
reports its timings in *reference seconds*: what they would have been on a
host that runs the reference slice in ``SLICE_REFERENCE_S``.  The raw CPU
and wall-clock figures, and the host slowdown the samples found, are kept
in the ``runs`` record of each workload.  End-to-end metrics, from
untraced repetitions with no profiler installed:

- ``requests_per_s``: simulated requests resolved per host second, from
  entry into ``ClusterSimulator.run`` until the workload's runner returns
  its row -- so the kernel run, ``summary()`` and artifact writes are
  inside.  A request is one organic arrival of the open loop: its retries
  are work done for it, not new requests, which keeps the figure from
  swinging with how many retries and denials a seed happens to produce;
- ``setup_s``: host seconds from the worker's process start to entry into
  ``ClusterSimulator.run``: interpreter start, imports, scenario build and
  simulator construction;
- ``peak_rss_mb``: peak resident memory of the worker, read when the timed
  region ends.

Failed output checks are counted by ``failed`` / ``attempted`` on the result
line (the ``failed_checks`` share is the ratio, and is also a per-layer
figure of the traced run); they are not an end-to-end metric because a
metric that is 0 on every healthy run has no spread to bound.

Workloads (open loop in simulated time; inputs derive from ``--seed``; see
``workloads.py`` for the resolved configs):

- ``hot_function``: 4 ``gcp_run_like`` functions x 250 rps on a bare
  ``ClusterSimulator`` (no meter, feedback, retry, tenants, obs or fleet
  sampler).  Exists to expose request routing and sandbox selection, the
  bare per-request path, while bypassing every optional layer.
- ``fanout``: ``cluster_point`` with 512 functions x 2 rps, billing and the
  fleet sampler.  Exists because every function's autoscaler is a polled
  kernel process: kernel polling dominates, routing stays light, and 512
  deployments give the largest set-up.
- ``full_stack``: ``backpressure_point`` on a capacity-bound two-tier fleet
  with feedback, retry, two credit-denying tenants and the scheduler.
  Exists because it is the only workload where fleet, meter, tenancy, retry
  and feedback all do work, with failures, retries and denials beside
  successes.
- ``observed``: ``full_stack`` writing trace, telemetry and profile
  artifacts, the ``trace --simulate`` user path.  Exists because it is the
  only workload where ``obs`` does work; its row must equal ``full_stack``'s.

Per-layer figures come from a separate traced run (``--trace 1``), which
alternates untraced and traced repetitions, asserts that both produce the
same row, and reports ``trace.overhead_ratio`` (traced over untraced run
time, both normalised).  The layers' self times are wall-clock seconds of
the median traced repetition.  ``layers.py`` wraps the layers' public seams from outside ``src/``
and charges each callback's exclusive time to the layer owning it.

Which end-to-end metric each layer should move, and where:

- ``kernel`` (``kernel.self_s``, ``.events``, ``.processes``,
  ``.ns_per_event``): ``requests_per_s`` on ``fanout``; little effect on
  ``hot_function``.
- ``platform`` (``.self_s``, ``.calls``, ``.us_per_arrival``):
  ``requests_per_s`` on ``hot_function`` first, then ``full_stack``.
- ``metrics`` (``.self_s``, ``.record_calls``): ``peak_rss_mb`` and
  ``requests_per_s`` on ``hot_function`` and ``full_stack``.
- ``bus`` (``.self_s``, ``.forwards``): ``requests_per_s`` on every
  workload, a little on each.
- ``fleet`` (``.self_s``, ``.admit_calls``, ``.placed_ratio``):
  ``requests_per_s`` on ``full_stack``; ``hot_function`` should stay flat.
- ``meter`` (``.self_s``, ``.requests_metered``, ``.us_per_request``):
  ``requests_per_s`` on ``full_stack`` and ``fanout``; zero on
  ``hot_function``.
- ``tenancy`` (``.self_s``, ``.admit_calls``, ``.admitted_ratio``),
  ``retry`` (``.self_s``, ``.scheduled``, ``.completed_ratio``),
  ``feedback`` (``.self_s``) and ``sched`` (``.self_s``, ``.ticks``):
  ``requests_per_s`` on ``full_stack``; zero on ``hot_function``.
- ``obs`` (``.self_s``, ``.artifact_write_s``): ``requests_per_s`` and
  ``peak_rss_mb`` on ``observed``; zero on every other workload.
- ``summary`` (``.self_s``): ``requests_per_s`` on ``full_stack`` and
  ``observed``.
- ``other.self_s`` is the timed region no span covers (run glue, meter
  finalisation), so the layers' self times sum to the timed wall time.

Not measured, on purpose: the sweep backends (a multi-process fan-out on a
two-core machine measures the OS scheduler, not the simulator), model
accuracy (the model is not validated against real platforms), and the
paper-figure harness under ``benchmarks/``.  ``benchmarks/bench_kernel.py``,
``BENCH_kernel.json`` and the CI job that runs them are separate from this
benchmark and left as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host_platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import compare, same_file  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, resolved_config  # noqa: E402

#: Every run makes at least this many untraced repetitions.
MIN_REPS = 3
#: A run's repetitions cycle through this many inputs: the seed's own and
#: ones derived from it (``input_seed``), so that its medians do not rest on
#: how many retries and denials one input happens to produce.
INPUTS_PER_RUN = 4
#: Distance between the seeds of a run's inputs.
SEED_STRIDE = 1_000_003
#: A worker that has not finished by then is killed and counted as failed.
WORKER_TIMEOUT_S = 120.0
#: What each untraced repetition contributes to the ``runs`` record.
RUN_KEYS = ("seed", "requests_per_s", "run_s", "run_cpu_s", "run_wall_s", "setup_s", "setup_cpu_s",
            "setup_wall_s", "host_slowdown", "peak_rss_mb", "row_hash")
#: Scratch space for the ``observed`` artifacts, inside the checkout.
WORK_ROOT = ".perfbench_work"


def run_worker(workload: str, seed: int, work_dir: str, trace: bool) -> Dict:
    """One repetition in a fresh process; returns its JSON (``failures`` set on error)."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--work-dir", work_dir]
    if trace:
        command.append("--trace")
    # One thread: numpy's BLAS pool would otherwise start a thread per core.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    try:
        done = subprocess.run(command, capture_output=True, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"failures": [f"worker exited {done.returncode}: " + " | ".join(tail)]}
    return json.loads(lines[-1])


def median(reps: List[Dict], key: str) -> float:
    """The median of ``key`` over a run's repetitions."""
    return statistics.median(rep[key] for rep in reps)


def input_seed(seed: int, rep: int) -> int:
    """The seed of a run's ``rep``-th repetition: ``seed`` itself, then derived ones."""
    return seed + SEED_STRIDE * (rep % INPUTS_PER_RUN)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """All repetitions of one workload for ``seconds``; the result object."""
    work_dir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    failures: List[str] = []
    # Input seed -> the row hash every repetition on that input must produce.
    expected_hash: Dict[int, str] = {}
    references: List[Dict] = []
    untraced: List[Dict] = []
    traced: List[Dict] = []
    try:
        if workload == "observed":
            # Observers only read: the observed row must be full_stack's row.
            for rep in range(INPUTS_PER_RUN):
                reference = run_worker("full_stack", input_seed(seed, rep), work_dir, trace=False)
                references.append(reference)
                failures += [f"full_stack reference: {f}" for f in reference["failures"]]
                if not reference["failures"]:
                    expected_hash[reference["seed"]] = reference["row_hash"]
        start = time.monotonic()
        while True:
            rep_seed = input_seed(seed, len(untraced))
            reps = [run_worker(workload, rep_seed, work_dir, trace=False)]
            if trace:
                reps.append(run_worker(workload, rep_seed, work_dir, trace=True))
            for rep, bucket in zip(reps, (untraced, traced)):
                bucket.append(rep)
                if rep["failures"]:
                    continue
                if rep_seed not in expected_hash and not references:
                    expected_hash[rep_seed] = rep["row_hash"]
                if rep["row_hash"] != expected_hash.get(rep_seed):
                    rep["failures"].append(
                        f"row at seed {rep_seed} differs from "
                        + ("full_stack's" if references else "the first run's")
                    )
            elapsed = time.monotonic() - start
            per_round = elapsed / len(untraced)
            if len(untraced) >= MIN_REPS and elapsed + per_round > seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:  # another run still uses it, or it never existed
            pass

    all_reps = untraced + traced
    failed = sum(1 for rep in all_reps if rep["failures"])
    for rep in all_reps:
        failures.extend(rep["failures"])
    failed += sum(1 for reference in references if reference["failures"])
    all_reps += references
    result: Dict = {"correct": not failures, "attempted": len(all_reps), "failed": failed}
    healthy = [rep for rep in untraced if not rep["failures"]]
    if not healthy:
        result["metrics"] = {}
    elif trace:
        healthy_traced = sorted((rep for rep in traced if not rep["failures"]),
                                key=lambda rep: rep["run_s"])
        metrics = {}
        if healthy_traced:
            # One whole traced repetition (the median one on the seed's own
            # input), so its layers' self times sum to its wall time and its
            # counts agree and depend on the seed alone.
            own = [rep for rep in healthy_traced if rep["seed"] == seed] or healthy_traced
            metrics.update(own[(len(own) - 1) // 2]["layers"])
            metrics["trace.overhead_ratio"] = (
                median(healthy_traced, "run_s") / median(healthy, "run_s")
            )
        metrics["failed_checks"] = failed / len(all_reps)
        result["metrics"] = metrics
    else:
        result["metrics"] = {
            "requests_per_s": median(healthy, "requests_per_s"),
            "setup_s": median(healthy, "setup_s"),
            "peak_rss_mb": median(healthy, "peak_rss_mb"),
        }
    result["failures"] = failures
    result["runs"] = [{key: rep.get(key) for key in RUN_KEYS} for rep in untraced]
    return result


def units() -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json`` when the checkout has it."""
    try:
        with open("BENCHMARK.json") as handle:
            spec = json.load(handle)
    except FileNotFoundError:
        return {}
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def git_sha() -> Optional[str]:
    """HEAD of the checkout's own ``.git`` directory, if it has one."""
    head_path = os.path.join(".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as handle:
            return handle.read().strip()
    packed = os.path.join(".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    return None


def provenance(workloads: List[str], seed: int, seconds: float, trace: bool) -> Dict:
    """Where a result came from: code, interpreter, machine, inputs."""
    import numpy

    return {
        "git_sha": git_sha(),
        "python": host_platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": host_platform.machine(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workloads": {
            name: dict(zip(("runner", "params"), resolved_config(name))) for name in workloads
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long each workload repeats (per workload with 'all')")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer figures from a traced run instead of end-to-end ones")
    parser.add_argument("--output", help="write the full results (with provenance) here")
    parser.add_argument("--baseline", help="compare against an earlier --output file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run from the root of a checkout: src/repro is missing", file=sys.stderr)
        return 2
    if args.output and args.baseline and same_file(args.output, args.baseline):
        print(f"refusing to write results over the baseline {args.baseline}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    record = {"provenance": provenance(names, args.seed, args.seconds, trace), "results": {}}
    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    unit_of = units()
    for name in names:
        result = measure(name, args.seed, args.seconds, trace)
        record["results"][name] = result
        for failure in result["failures"]:
            print(f"CHECK FAILED [{name}] {failure}", file=sys.stderr)
        print(json.dumps({"workload": name, "runs": result["runs"]}, sort_keys=True))

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
    status = 0
    if args.baseline:
        with open(args.baseline) as handle:
            status = compare(json.load(handle), record, sys.stdout)

    results = record["results"]
    # One workload: metrics by their own names; several: prefixed by workload.
    prefix = "{}." if len(names) > 1 else ""
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            prefix.format(name) + key: {"value": value, "unit": unit_of.get(key, "")}
            for name, result in results.items()
            for key, value in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    if not line["correct"]:
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
