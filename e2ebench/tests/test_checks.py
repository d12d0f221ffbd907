"""The checkers reject what they exist to reject."""

import numpy as np

from e2ebench import checks, traffic
from e2ebench.spans import Recorder
from repro.topology.compiled import build_compiled
from repro.topology.registry import create

SMALL = traffic.TrafficWorkload(
    name="test-permutation", params={"n": 4, "k": 2, "s": 2}, pattern="permutation"
)
SMALL_DEGRADED = traffic.TrafficWorkload(
    name="test-degraded", params={"n": 4, "k": 2, "s": 2}, pattern="permutation",
    fault_fraction=0.05,
)


def _trial(workload, seed=3):
    graph = build_compiled(create("abccc", **workload.params))
    return graph, workload.trial(graph, seed, 0, Recorder(False), "t0")


def test_unmodified_allocation_passes():
    graph, outcome = _trial(SMALL)
    assert SMALL.check(graph, outcome, 3, 0) == []


def test_raising_one_rate_fails_feasibility():
    _, outcome = _trial(SMALL)
    rates = outcome.alloc.rates.copy()
    rates[7] *= 1.01
    assert checks.feasibility(outcome.routes, rates)
    assert checks.feasibility(outcome.routes, outcome.alloc.rates) == []


def test_lowering_one_rate_fails_optimality():
    _, outcome = _trial(SMALL)
    rates = outcome.alloc.rates.copy()
    rates[7] *= 0.99
    unreachable = outcome.routes.unreachable
    assert checks.optimality(outcome.routes, rates, unreachable)
    assert checks.optimality(outcome.routes, outcome.alloc.rates, unreachable) == []


def test_degraded_trial_passes_and_a_bent_route_fails():
    graph, outcome = _trial(SMALL_DEGRADED)
    assert outcome.plan.dead_nodes
    assert SMALL_DEGRADED.check(graph, outcome, 3, 0) == []
    routes = outcome.routes
    flow = int(np.flatnonzero(~np.asarray(routes.unreachable))[0])
    edge_ids = np.asarray(routes.edge_ids).copy()
    edge_ids[int(routes.offsets[flow])] = (edge_ids[int(routes.offsets[flow])] + 1) % routes.num_edges
    bent = type(routes).from_edge_arrays(
        routes.graph, routes.src_nodes, routes.dst_nodes, edge_ids, routes.offsets,
        routes.unreachable,
    )
    assert checks.degraded_routes(bent, outcome.masked, outcome.plan.dead_edges, [flow])


def test_fct_check_wants_finite_times_exactly_for_reachable_flows():
    workload = traffic.TrafficWorkload(
        name="test-incast", params={"n": 4, "k": 2, "s": 2}, pattern="incast", fct=True
    )
    graph, outcome = _trial(workload)
    assert workload.check(graph, outcome, 3, 0) == []
    stats = outcome.fct
    times = np.asarray(stats.completion_times).copy()
    times[0] = np.inf
    broken = type(stats)(completion_times=times, solves=stats.solves)
    assert checks.fct(broken, outcome.routes.unreachable)


def test_sweep_check_against_closed_forms():
    from repro.metrics.engine import sweep_graph_distance_stats

    spec = create("abccc", n=4, k=2, s=2)
    graph = build_compiled(spec)
    n = len(graph.server_indices)
    stats = sweep_graph_distance_stats(graph, sample_sources=16, seed=1, workers=1)
    assert checks.sweep(stats, 16, n, spec.abccc) == []
    wrong = type(stats)(
        diameter=stats.diameter + 40, mean=stats.mean, histogram=stats.histogram,
        pairs=stats.pairs, exact=stats.exact, mean_ci95=stats.mean_ci95,
    )
    assert checks.sweep(wrong, 16, n, spec.abccc)
