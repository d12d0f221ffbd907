"""The same seed gives byte-identical inputs; another seed does not."""

import json

import pytest

from e2ebench import inputs, stats, traffic
from repro.topology.compiled import build_compiled
from repro.topology.registry import create


def _graph(params):
    return build_compiled(create("abccc", **params))


def test_matrices_repeat_per_seed():
    graph = _graph({"n": 4, "k": 2, "s": 2})
    for workload in (traffic.PERMUTATION, traffic.INCAST_FCT):
        a = workload.matrix(graph, 5, 2)
        b = workload.matrix(graph, 5, 2)
        c = workload.matrix(graph, 6, 2)
        assert a.src.tobytes() == b.src.tobytes() and a.dst.tobytes() == b.dst.tobytes()
        assert a.src.tobytes() != c.src.tobytes() or a.dst.tobytes() != c.dst.tobytes()


def test_fault_draws_repeat_per_seed():
    graph = _graph(traffic.DEGRADED.params)
    a = traffic.DEGRADED.faults(graph, 5, 1)
    b = traffic.DEGRADED.faults(graph, 5, 1)
    c = traffic.DEGRADED.faults(graph, 5, 2)
    assert (a.dead_nodes, a.dead_edges) == (b.dead_nodes, b.dead_edges)
    assert (a.dead_nodes, a.dead_edges) != (c.dead_nodes, c.dead_edges)


def test_request_streams_repeat_per_seed():
    graph = create("abccc", n=4, k=2, s=2).compiled()
    a = json.dumps(inputs.request_stream(graph, 5, 200)).encode()
    b = json.dumps(inputs.request_stream(graph, 5, 200)).encode()
    c = json.dumps(inputs.request_stream(graph, 6, 200)).encode()
    assert a == b and a != c
    kinds = [kind for kind, _, _ in inputs.request_stream(graph, 5, 200)]
    for start in range(0, 200, 4):
        assert sorted(kinds[start:start + 4]) == sorted(inputs.KINDS)


def test_child_seeds_are_stable():
    assert inputs.child(1, "x", 2) == inputs.child(1, "x", 2)
    assert inputs.child(1, "x", 2) != inputs.child(1, "x", 3)
    assert 0 <= inputs.child(1, "x") < 2**63


def test_percentile_needs_ten_samples_beyond():
    values = list(range(200))
    assert stats.percentile(values, 0.95) == 189
    with pytest.raises(ValueError):
        stats.percentile(values[:100], 0.95)
    assert stats.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
