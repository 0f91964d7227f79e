"""The kernel benchmark's baseline gate fails loudly instead of checking nothing."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernel.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_kernel", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _payload(events, config):
    return {"area": "kernel", "runs": [
        {"name": "kernel_events", "seed": 1, "events": events, "wall_s": 1.0,
         "events_per_s": float(events), "config": config},
    ]}


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestBaselineGate:
    def test_matching_counts_pass(self, bench, tmp_path):
        baseline = _write(tmp_path / "base.json", _payload(10, {"num_events": 10}))
        assert bench.compare_to_baseline(_payload(10, {"num_events": 10}), baseline) == 0

    def test_count_mismatch_on_identical_config_fails(self, bench, tmp_path):
        baseline = _write(tmp_path / "base.json", _payload(10, {"num_events": 10}))
        assert bench.compare_to_baseline(_payload(11, {"num_events": 10}), baseline) == 1

    def test_nothing_comparable_exits_2(self, bench, tmp_path, capsys):
        baseline = _write(tmp_path / "base.json", _payload(10, {"num_events": 10}))
        assert bench.compare_to_baseline(_payload(20, {"num_events": 20}), baseline) == 2
        assert "event counts match" not in capsys.readouterr().out

    def test_output_equal_to_baseline_is_refused_before_running(self, bench, tmp_path, monkeypatch):
        baseline = _write(tmp_path / "base.json", _payload(10, {"num_events": 10}))
        before = Path(baseline).read_bytes()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(bench, "run_benchmarks", lambda quick: pytest.fail("benchmarks ran"))
        assert bench.main(["--quick", "--output", "./base.json", "--baseline", baseline]) == 2
        assert Path(baseline).read_bytes() == before
