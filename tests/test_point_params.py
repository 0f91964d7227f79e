"""Sweep point runners reject params they do not read instead of ignoring them."""

import pytest

from repro.analysis.backpressure import backpressure_point
from repro.analysis.cluster_costs import cluster_point

CLUSTER = {"num_functions": 2, "placement_policy": "best_fit", "keep_alive_s": 60.0}
BACKPRESSURE = {"queue_depth": 2, "placement_policy": "best_fit", "heterogeneity": "homogeneous"}


class TestClusterPoint:
    def test_misspellings_raise_with_the_closest_key(self):
        params = {**CLUSTER, "rps_per_fucntion": 50, "feedbak": "on"}
        with pytest.raises(ValueError) as raised:
            cluster_point(params, 1)
        message = str(raised.value)
        assert "'rps_per_fucntion' (did you mean 'rps_per_function'?)" in message
        assert "'feedbak' (did you mean 'feedback'?)" in message

    def test_layer_params_are_known(self):
        row = cluster_point(
            {**CLUSTER, "duration_s": 2.0, "retry": "off", "retry_jitter": 0.0,
             "tenants": "off", "tenant_credit_capacity": 5.0, "trace_out": ""},
            1,
        )
        assert row["retry"] == "off" and row["tenants"] == "off"


class TestBackpressurePoint:
    def test_misspellings_raise_with_the_closest_key(self):
        params = {**BACKPRESSURE, "max_host": 3, "with_sheduler": False}
        with pytest.raises(ValueError) as raised:
            backpressure_point(params, 1)
        message = str(raised.value)
        assert "'max_host' (did you mean 'max_hosts'?)" in message
        assert "'with_sheduler' (did you mean 'with_scheduler'?)" in message

    def test_layer_params_are_known(self):
        row = backpressure_point(
            {**BACKPRESSURE, "duration_s": 2.0, "with_scheduler": False, "retry": "on",
             "retry_budget": 3, "tenants": 1, "tenant_on_exhausted": "deny",
             "profile_out": ""},
            1,
        )
        assert row["retry"] == "on" and row["tenants"] == 1
