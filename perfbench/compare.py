"""Compare two ``run.py --output`` files, metric by metric.

Only like is compared with like: a (workload, metric) pair counts as
comparable when both files ran that workload with the same seed, the same
trace mode and the same resolved config, and both report the metric.  When
no pair is comparable the comparison fails loudly instead of passing
vacuously.  An end-to-end metric that got worse by more than its bound in
``BENCHMARK.json`` is reported as a regression and fails the comparison.
"""

from __future__ import annotations

import json
import os
from typing import Dict, TextIO, Tuple


def same_file(a: str, b: str) -> bool:
    """True when paths ``a`` and ``b`` name one file (existing or not)."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def bounds(path: str = "BENCHMARK.json") -> Dict[str, Tuple[str, float]]:
    """End-to-end metric -> (better direction, bound) from the benchmark spec."""
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except FileNotFoundError:
        return {}
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def _comparable(baseline: Dict, current: Dict, name: str) -> bool:
    old, new = baseline["provenance"], current["provenance"]
    return (
        name in baseline["results"]
        and old["seed"] == new["seed"]
        and old["trace"] == new["trace"]
        and old["workloads"].get(name) == new["workloads"].get(name)
    )


def compare(baseline: Dict, current: Dict, out: TextIO) -> int:
    """Print every comparable pair; 0 = fine, 3 = regression, 2 = nothing compared."""
    limits = bounds()
    pairs = 0
    regressions = 0
    for name, result in current["results"].items():
        if not _comparable(baseline, current, name):
            out.write(f"{name}: not comparable with the baseline (seed, mode or config differ)\n")
            continue
        old_metrics = baseline["results"][name]["metrics"]
        for metric, value in result["metrics"].items():
            if metric not in old_metrics:
                continue
            pairs += 1
            old = old_metrics[metric]
            change = (value - old) / old if old else 0.0
            verdict = ""
            if metric in limits:
                better, bound = limits[metric]
                worse = -change if better == "higher" else change
                if worse > bound:
                    verdict = f"  REGRESSION (bound {bound:.0%})"
                    regressions += 1
            out.write(f"{name}.{metric}: {old:.6g} -> {value:.6g} ({change:+.1%}){verdict}\n")
    if pairs == 0:
        out.write("no comparable (workload, metric) pairs: nothing was compared\n")
        return 2
    out.write(f"compared {pairs} (workload, metric) pairs, {regressions} regressions\n")
    return 3 if regressions else 0
