"""Trace integrity: spans account for every arrival, across any seeded run.

The acceptance contract of the observability PR: on a traced run with
retries on, the span census must match the domain metrics exactly --
``total == arrivals``, ``roots == arrivals - retry_arrivals``, outcomes
partition into completed / failed / censored, every retry child links to a
failed parent attempt, and timestamps are monotone within each span.
"""

import dataclasses
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cosim import ClusterSimulator, FunctionDeployment
from repro.cluster.fleet import FleetConfig
from repro.cluster.host import HostSpec
from repro.obs import Observability, validate_chrome_trace
from repro.obs import trace as trace_module
from repro.obs.trace import _EXPORT_SLICE, CENSORED, COMPLETED, FAILED, RequestSpan, TraceCollector
from repro.platform.presets import get_platform_preset
from repro.sim.retry import RetryPolicy
from repro.workloads.functions import PYAES_FUNCTION


def _traced_cluster(seed, *, retry=None, feedback="on", max_hosts=1, rps=6.0,
                    duration_s=6.0, num_functions=2, queue_depth=0):
    """A small, saturated cluster run with an Observability attached."""
    preset = get_platform_preset("aws_lambda_like")
    deployments = []
    for index in range(num_functions):
        function = dataclasses.replace(
            PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5),
            name=f"fn-{index:02d}",
        )
        deployments.append(
            FunctionDeployment(function=function, platform=preset, rps=rps, duration_s=duration_s)
        )
    obs = Observability()
    simulator = ClusterSimulator(
        deployments,
        fleet_config=FleetConfig(
            host_spec=HostSpec(vcpus=1.0, memory_gb=2.0),
            max_hosts=max_hosts,
            queue_depth=queue_depth,
            sample_interval_s=2.0,
        ),
        billing_platform="aws_lambda",
        seed=seed,
        feedback=feedback,
        retry=retry,
        obs=obs,
    )
    return simulator.run(), obs


class TestTraceIntegrity:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        retry=st.sampled_from([None, RetryPolicy(max_attempts=3)]),
    )
    def test_spans_account_for_every_arrival(self, seed, retry):
        result, obs = _traced_cluster(seed, retry=retry)
        metrics = list(result.metrics.values())
        arrivals = sum(m.arrivals for m in metrics)
        retry_arrivals = sum(m.retry_arrivals for m in metrics)
        completed = sum(m.num_requests for m in metrics)
        failed = sum(m.failed_requests for m in metrics)

        spans = obs.trace.spans
        # Every arrival opened exactly one span; no span without an arrival.
        assert len(spans) == arrivals
        assert sum(1 for s in spans if s.is_root) == arrivals - retry_arrivals
        # Every span closed by the horizon or was censored at it: the outcome
        # census partitions into the domain metrics' conservation law.
        by_outcome = {}
        for span in spans:
            by_outcome[span.outcome] = by_outcome.get(span.outcome, 0) + 1
        assert by_outcome.get(COMPLETED, 0) == completed
        assert by_outcome.get(FAILED, 0) == failed
        assert by_outcome.get(CENSORED, 0) == arrivals - completed - failed
        assert set(by_outcome) <= {COMPLETED, FAILED, CENSORED}

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    def test_retry_children_link_to_failed_parent_attempts(self, seed):
        _, obs = _traced_cluster(seed, retry=RetryPolicy(max_attempts=4))
        spans = obs.trace.spans
        by_request = {}
        for span in spans:
            by_request.setdefault(span.request_id, []).append(span)
        for span in spans:
            if span.is_root:
                assert span.parent_id == ""
                assert span.attempt == 1
                continue
            parents = by_request.get(span.parent_id, [])
            # The parent attempt exists, failed, and is one attempt behind.
            assert any(
                p.attempt == span.attempt - 1 and p.outcome == FAILED for p in parents
            ), f"no failed parent for {span.request_id} attempt {span.attempt}"

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        retry=st.sampled_from([None, RetryPolicy(max_attempts=3)]),
    )
    def test_timestamps_monotone_within_each_span(self, seed, retry):
        _, obs = _traced_cluster(seed, retry=retry)
        for span in obs.trace.spans:
            assert span.end_s is not None  # finalize() closed or censored it
            assert span.arrival_s <= span.end_s
            if span.exec_start_s is not None:
                assert span.arrival_s <= span.exec_start_s <= span.end_s

    def test_chain_of_walks_attempts_in_order(self):
        _, obs = _traced_cluster(7, retry=RetryPolicy(max_attempts=4))
        chained = [s for s in obs.trace.spans if not s.is_root]
        assert chained, "saturated fixture must produce retries"
        span = max(chained, key=lambda s: s.attempt)
        chain = obs.trace.chain_of(span.request_id)
        assert [s.attempt for s in chain] == list(range(1, span.attempt + 1))
        assert all(s.outcome == FAILED for s in chain[:-1])


class TestChromeExport:
    def test_chrome_trace_is_well_formed(self, tmp_path):
        _, obs = _traced_cluster(11, retry=RetryPolicy(max_attempts=3))
        path = tmp_path / "trace.json"
        obs.write_trace(str(path))
        with open(path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert validate_chrome_trace(events) == len(events)
        # Retry re-injections draw flow arrows: balanced start/finish pairs.
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        # Telemetry counters ride along in the same document.
        assert any(e["ph"] == "C" for e in events)

    def test_jsonl_export_round_trips_span_count(self, tmp_path):
        _, obs = _traced_cluster(11, retry=RetryPolicy(max_attempts=3))
        path = tmp_path / "spans.jsonl"
        obs.write_trace(str(path))
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        requests = [line for line in lines if line["kind"] == "request"]
        sandboxes = [line for line in lines if line["kind"] == "sandbox"]
        assert len(requests) == len(obs.trace.spans)
        assert len(sandboxes) == len(obs.trace.sandbox_spans)


class TestChromeTraceBytes:
    """The streamed Chrome-trace writer emits exactly ``json.dumps``'s bytes."""

    @staticmethod
    def _expected(events):
        return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})

    def test_empty_collector(self, tmp_path):
        trace = TraceCollector()
        path = tmp_path / "empty.json"
        trace.to_chrome_trace(str(path))
        assert path.read_text() == self._expected(trace.chrome_trace())

    def test_retry_flows_and_counters_over_several_slices(self, tmp_path):
        _, obs = _traced_cluster(11, retry=RetryPolicy(max_attempts=3))
        counters = obs.telemetry.chrome_counters()
        events = obs.trace.chrome_trace(counters)
        # Several export slices, the last one partial.
        assert len(events) > _EXPORT_SLICE and len(events) % _EXPORT_SLICE
        assert any(e["ph"] == "s" for e in events) and any(e["ph"] == "C" for e in events)
        path = tmp_path / "trace.json"
        obs.trace.to_chrome_trace(str(path), counters)
        assert path.read_text() == self._expected(events)

    def test_slice_boundaries(self, tmp_path, monkeypatch):
        _, obs = _traced_cluster(11, retry=RetryPolicy(max_attempts=3))
        spans = len(obs.trace.chrome_trace())
        events = obs.trace.chrome_trace(obs.telemetry.chrome_counters())
        count = len(events)
        assert 1 < spans < count - 1
        path = tmp_path / "trace.json"
        # One event per slice; a boundary inside the span events, exactly at
        # the span/counter seam, and inside the counter events; a one-event
        # last slice, one exact slice, one short slice.
        for size in (1, spans - 1, spans, spans + 1, count - 1, count, count + 1):
            monkeypatch.setattr(trace_module, "_EXPORT_SLICE", size)
            obs.trace.to_chrome_trace(str(path), obs.telemetry.iter_chrome_counters())
            assert path.read_text() == self._expected(events), size

    def test_counters_as_one_shot_generator(self, tmp_path):
        _, obs = _traced_cluster(11, retry=RetryPolicy(max_attempts=3))
        counters = obs.telemetry.chrome_counters()
        path = tmp_path / "trace.json"
        obs.trace.to_chrome_trace(str(path), (event for event in counters))
        assert path.read_text() == self._expected(obs.trace.chrome_trace(counters))

    def test_observability_write_trace(self, tmp_path):
        _, obs = _traced_cluster(11, retry=RetryPolicy(max_attempts=3))
        path = tmp_path / "trace.json"
        obs.write_trace(str(path))
        assert path.read_text() == self._expected(obs.trace.chrome_trace(obs.telemetry.chrome_counters()))


def _synthetic_collector(count):
    """A finalized collector of ``count`` completed request spans over 4 functions."""
    trace = TraceCollector()
    for index in range(count):
        function = f"fn-{index % 4:02d}"
        span = RequestSpan(f"{function}/req-{index:07d}", function, 1, "", index * 0.01, 0.0)
        span.exec_start_s = span.arrival_s + 0.002
        span.end_s = span.arrival_s + 0.005
        span.outcome = COMPLETED
        span.sandbox_name = f"{function}/sb-{index % 7:04d}"
        trace.spans.append(span)
    trace.finalize(count * 0.01)
    return trace


class TestChromeTraceMemory:
    @staticmethod
    def _export_peak_bytes(trace, path):
        """Traced-allocation peak of one export, above its starting level."""
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            trace.to_chrome_trace(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - start

    def test_export_peak_does_not_grow_with_event_count(self, tmp_path):
        small = self._export_peak_bytes(_synthetic_collector(2_000), tmp_path / "small.json")
        large = self._export_peak_bytes(_synthetic_collector(20_000), tmp_path / "large.json")
        # Ten times the events must not mean ten times the memory: the writer
        # holds one slice of event dicts, never the whole list.
        assert large < 1.5 * small, (small, large)


class TestValidateChromeTrace:
    def test_rejects_string_dur_and_bool_ts(self):
        good = {"name": "x", "ph": "X", "ts": 0.0, "dur": 5.0, "pid": 1, "tid": 1}
        assert validate_chrome_trace([good]) == 1
        for bad in ({**good, "dur": "5"}, {**good, "ts": True}, {**good, "dur": True}):
            with pytest.raises(ValueError):
                validate_chrome_trace([bad])


class TestStandalonePlatformSimulator:
    def test_obs_attaches_without_a_cluster(self):
        """A lone PlatformSimulator carries its own obs (no shared kernel)."""
        from repro.platform.invoker import PlatformSimulator
        from repro.workloads.traffic import constant_rate_arrivals

        preset = get_platform_preset("gcp_run_like")
        function = PYAES_FUNCTION.to_function_config(1.0, 2.0, init_duration_s=0.5)
        obs = Observability()
        simulator = PlatformSimulator(preset, function, seed=5, obs=obs)
        metrics = simulator.run(constant_rate_arrivals(3.0, 10.0))
        assert len(obs.trace.spans) == metrics.arrivals > 0
        assert obs.summary()["spans"]["completed"] == metrics.num_requests
        assert obs.kernel_profile().events_total > 0
        assert obs.telemetry.samples_taken > 0


class TestObservabilityLifecycle:
    def test_attach_refuses_reuse(self):
        _, obs = _traced_cluster(3)
        try:
            obs.attach(None, None)
        except RuntimeError as error:
            assert "one run" in str(error)
        else:
            raise AssertionError("attach() must refuse a second run")

    def test_summary_census_matches_spans(self):
        result, obs = _traced_cluster(5, retry=RetryPolicy(max_attempts=3))
        census = obs.summary()["spans"]
        metrics = list(result.metrics.values())
        assert census["total"] == sum(m.arrivals for m in metrics)
        assert census["completed"] == sum(m.num_requests for m in metrics)
        assert census["failed"] == sum(m.failed_requests for m in metrics)
