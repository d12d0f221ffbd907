"""The harness emits exactly the metrics BENCHMARK.json lists."""

import json
import os

from e2ebench import run, sweep, traffic
from e2ebench.spans import Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    CONFIG = json.load(handle)
END_TO_END = {m["name"] for m in CONFIG["end_to_end"]}
PER_LAYER = {m["name"] for m in CONFIG["per_layer"]}

TINY = [
    traffic.TrafficWorkload(name="tiny-degraded", params={"n": 4, "k": 2, "s": 2},
                            pattern="permutation", fault_fraction=0.05),
    traffic.TrafficWorkload(name="tiny-fct", params={"n": 4, "k": 2, "s": 2},
                            pattern="incast", fct=True),
    sweep.SweepWorkload(name="tiny-sweep", params={"n": 4, "k": 2, "s": 2}, sources=16, workers=1),
]


def test_untraced_runs_give_every_end_to_end_metric():
    for workload in TINY:
        result = run.run_batch(workload, 1, 0.01, Recorder(False))
        assert set(result["metrics"]) == END_TO_END
        assert all(value > 0 for value in result["metrics"].values())
        assert result["attempted"] >= run.MIN_TRIALS and result["failed"] == 0
        assert "layers" not in result


def test_traced_runs_give_listed_layer_metrics():
    for workload in TINY:
        result = run.run_batch(workload, 1, 0.01, Recorder(True))
        assert result["failed"] == 0, result["problems"]
        assert set(result["layers"]) <= PER_LAYER
        assert "trace.overhead_pct" in result["layers"]


def test_every_workload_is_listed():
    assert set(run.WORKLOADS) == {w["name"] for w in CONFIG["workloads"]}
    assert set(run._workloads()) | {"serve"} == set(run.WORKLOADS)
