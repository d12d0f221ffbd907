"""Vectorized max-min + FCT: certified, and checked against the legacy oracle."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BcubeSpec, FatTreeSpec
from repro.core import AbcccSpec
from repro.faults import MaskedGraph, random_index_failures
from repro.routing.batch import batch_routes
from repro.sim.flow import max_min_allocation, route_all
from repro.topology.compiled import compile_graph
from repro.topology.fastbuild import fast_compiled
from repro.traffic import (
    RouteSet,
    fluid_fct,
    generate_matrix,
    max_min_rates,
)
from tests.maxmin_checks import assert_max_min_fair, edge_loads

PARITY_PATTERNS = (
    ("permutation", {}),
    ("all_to_all", {"max_flows": 300}),
)


def _legacy(spec, matrix):
    """Oracle rates through the legacy dict-walking stack, flow order."""
    net = spec.build()
    servers = net.servers
    flows = matrix.flows(servers)
    routes = route_all(net, flows, spec.route)
    allocation = max_min_allocation(net, flows, routes)
    rates = np.array([allocation.rates[f.flow_id] for f in flows])
    return flows, routes, net, rates


class TestOracleParity:
    """Feasible, certified max-min, and within 1e-12 of sim.flow."""

    @pytest.mark.parametrize("pattern,params", PARITY_PATTERNS)
    @pytest.mark.parametrize("spec", [AbcccSpec(3, 1, 2), AbcccSpec(2, 2, 2)])
    def test_full_stack_matches_oracle_on_fast_abccc(self, spec, pattern, params):
        """Arithmetic batch routes + vectorized filler vs legacy stack."""
        graph = fast_compiled(spec)
        matrix = generate_matrix(pattern, graph.num_servers, seed=11, **params)
        routes = batch_routes(graph, matrix)
        allocation = max_min_rates(routes)
        assert_max_min_fair(routes, allocation)
        _, _, _, legacy = _legacy(spec, matrix)
        np.testing.assert_allclose(
            np.sort(allocation.rates), np.sort(legacy), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("pattern,params", PARITY_PATTERNS)
    @pytest.mark.parametrize(
        "spec", [AbcccSpec(3, 1, 2), BcubeSpec(3, 1), FatTreeSpec(4)]
    )
    def test_allocator_matches_oracle_on_legacy_routes(self, spec, pattern, params):
        """Same routes in => same per-flow rates out, unsorted."""
        net = spec.build()
        graph = compile_graph(net)
        matrix = generate_matrix(pattern, net.num_servers, seed=11, **params)
        flows, routes, _, legacy = _legacy(spec, matrix)
        route_set = RouteSet.from_name_routes(graph, flows, routes)
        allocation = max_min_rates(route_set)
        assert_max_min_fair(route_set, allocation)
        np.testing.assert_allclose(allocation.rates, legacy, rtol=1e-12, atol=0)

    def test_bottlenecks_are_saturated_edges(self):
        graph = fast_compiled(AbcccSpec(3, 2, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=4)
        routes = batch_routes(graph, matrix)
        allocation = max_min_rates(routes)
        assert (allocation.bottleneck_edges >= 0).all()
        # each flow's bottleneck lies on its own route
        offsets = routes.offsets
        for i in range(matrix.num_flows):
            hops = routes.edge_ids[offsets[i] : offsets[i + 1]]
            assert allocation.bottleneck_edges[i] in hops
        # ... and is filled to capacity
        bottlenecks = allocation.bottleneck_edges
        loads = edge_loads(routes, allocation.rates)[bottlenecks]
        np.testing.assert_allclose(loads, routes.capacities()[bottlenecks], rtol=1e-12)


#: small graphs of three families; ABCCC both fast-built (arithmetic
#: routes) and object-built (BFS routes).
GRAPHS = {
    "abccc-fast": lambda: fast_compiled(AbcccSpec(3, 1, 2)),
    "abccc-object": lambda: compile_graph(AbcccSpec(2, 2, 2).build()),
    "bcube": lambda: compile_graph(BcubeSpec(3, 1).build()),
    "fattree": lambda: compile_graph(FatTreeSpec(4).build()),
}
PROPERTY_PATTERNS = {
    "permutation": {},
    "all_to_all": {"max_flows": 120},
    "incast": {},
}


@functools.lru_cache(maxsize=None)
def _graph(name):
    return GRAPHS[name]()


def _edited(routes, rng, double_back, duplicate, mark_lost):
    """``routes`` with hand edits the generators never produce: one route
    walking its first edge back and forth (crossed three times), copies
    of some flows (exactly tied levels) and flows marked unreachable
    while keeping their edges."""
    offsets = routes.offsets
    order = np.arange(routes.num_flows)
    if duplicate:
        extra = rng.choice(routes.num_flows, routes.num_flows // 4 + 1)
        order = np.concatenate([order, extra])
    paths = [routes.edge_ids[offsets[f] : offsets[f + 1]] for f in order]
    lost = np.asarray(routes.unreachable, dtype=bool)[order]
    if double_back:
        walking = [f for f, path in enumerate(paths) if path.size and not lost[f]]
        if walking:
            f = walking[int(rng.integers(len(walking)))]
            paths[f] = np.concatenate([paths[f][:1], paths[f][:1], paths[f]])
    if mark_lost:
        lost[rng.choice(order.size, order.size // 5 + 1, replace=False)] = True
    new_offsets = np.zeros(order.size + 1, dtype=np.int64)
    np.cumsum([path.size for path in paths], out=new_offsets[1:])
    return RouteSet(
        graph=routes.graph,
        src_nodes=np.asarray(routes.src_nodes)[order],
        dst_nodes=np.asarray(routes.dst_nodes)[order],
        edge_ids=np.concatenate(paths).astype(np.int64),
        offsets=new_offsets,
        unreachable=lost,
    )


class TestMaxMinProperties:
    """Certificate-checked allocations over families x patterns x edits."""

    @settings(max_examples=80, deadline=None)
    @given(
        topology=st.sampled_from(sorted(GRAPHS)),
        pattern=st.sampled_from(sorted(PROPERTY_PATTERNS)),
        seed=st.integers(0, 2**16),
        faulty=st.booleans(),
        masked_active=st.booleans(),
        double_back=st.booleans(),
        duplicate=st.booleans(),
        mark_lost=st.booleans(),
    )
    def test_feasible_certified_and_bounded(
        self,
        topology,
        pattern,
        seed,
        faulty,
        masked_active,
        double_back,
        duplicate,
        mark_lost,
    ):
        graph = _graph(topology)
        matrix = generate_matrix(
            pattern, graph.num_servers, seed=seed, **PROPERTY_PATTERNS[pattern]
        )
        masked = None
        if faulty:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # tiny graphs floor counts at one
                plan = random_index_failures(
                    graph,
                    server_fraction=0.05,
                    switch_fraction=0.05,
                    link_fraction=0.05,
                    seed=seed,
                )
            masked = MaskedGraph.from_indices(graph, plan.dead_nodes, plan.dead_edges)
        rng = np.random.default_rng(seed)
        routes = _edited(
            batch_routes(graph, matrix, masked), rng, double_back, duplicate, mark_lost
        )
        active = rng.random(routes.num_flows) < 0.7 if masked_active else None
        allocation = max_min_rates(routes, active=active)

        assert_max_min_fair(routes, allocation, active)
        served = ~routes.unreachable
        if active is not None:
            served &= active
        assert allocation.rounds <= int(served.sum())
        bottlenecks = allocation.bottleneck_edges
        assert (bottlenecks[~served] == -1).all()
        offsets = routes.offsets
        for f in np.flatnonzero(served):
            assert bottlenecks[f] in routes.edge_ids[offsets[f] : offsets[f + 1]]

    def test_exact_ties_freeze_together(self):
        """Identical flows on a shared edge tie exactly and split it."""
        graph = _graph("abccc-fast")
        matrix = generate_matrix("permutation", graph.num_servers, seed=3)
        routes = batch_routes(graph, matrix)
        one = routes.edge_ids[routes.offsets[0] : routes.offsets[1]]
        twins = RouteSet(
            graph=graph,
            src_nodes=np.repeat(routes.src_nodes[:1], 4),
            dst_nodes=np.repeat(routes.dst_nodes[:1], 4),
            edge_ids=np.tile(one, 4),
            offsets=np.arange(5) * one.size,
            unreachable=np.zeros(4, dtype=bool),
        )
        allocation = max_min_rates(twins)
        assert allocation.rounds == 1
        assert (allocation.rates == routes.capacities()[one].min() / 4).all()

    def test_multiplicity_consumes_capacity_per_crossing(self):
        """A flow crossing one edge three times gets a third of it."""
        graph = _graph("abccc-fast")
        walk = RouteSet(
            graph=graph,
            src_nodes=np.array([graph.edge_u[0]]),
            dst_nodes=np.array([graph.edge_v[0]]),
            edge_ids=np.zeros(3, dtype=np.int64),
            offsets=np.array([0, 3]),
            unreachable=np.zeros(1, dtype=bool),
        )
        allocation = max_min_rates(walk)
        assert allocation.rates[0] == walk.capacities()[0] / 3
        assert allocation.bottleneck_edges[0] == 0

    def test_batched_rounds_freeze_many_levels(self):
        """Far fewer rounds than distinct rate levels on a permutation."""
        graph = fast_compiled(AbcccSpec(4, 3, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=7)
        routes = batch_routes(graph, matrix)
        allocation = max_min_rates(routes)
        assert_max_min_fair(routes, allocation)
        assert 4 * allocation.rounds < np.unique(allocation.rates).size


class TestAllocationStats:
    def test_unreachable_flows_rate_zero_and_excluded(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=0)
        routes = batch_routes(graph, matrix)
        # mark two flows unreachable by hand
        unreachable = np.zeros(matrix.num_flows, dtype=bool)
        unreachable[[0, 5]] = True
        hacked = RouteSet(
            graph=graph,
            src_nodes=routes.src_nodes,
            dst_nodes=routes.dst_nodes,
            edge_ids=routes.edge_ids,
            offsets=routes.offsets,
            unreachable=unreachable,
        )
        allocation = max_min_rates(hacked)
        assert allocation.rates[0] == 0.0 and allocation.rates[5] == 0.0
        assert allocation.num_unreachable == 2
        assert allocation.min_rate > 0.0  # stats over served flows only

    def test_jain_in_unit_interval_and_percentiles_sorted(self):
        graph = fast_compiled(AbcccSpec(3, 2, 2))
        matrix = generate_matrix("uniform", graph.num_servers, seed=8)
        allocation = max_min_rates(batch_routes(graph, matrix))
        assert 0.0 < allocation.jain_fairness <= 1.0
        percentiles = allocation.rate_percentiles((0.01, 0.5, 0.99))
        assert percentiles[0.01] <= percentiles[0.5] <= percentiles[0.99]
        assert allocation.min_rate <= allocation.mean_rate <= allocation.max_rate


class TestFluidFct:
    def test_single_flow_completes_at_size_over_rate(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=1)
        routes = batch_routes(graph, matrix)
        allocation = max_min_rates(routes)
        stats = fluid_fct(routes, np.full(matrix.num_flows, 2.0))
        # the slowest flow finishes no earlier than size / its static rate
        assert stats.max_fct >= 2.0 / allocation.rates.max() - 1e-9
        assert np.isfinite(stats.completion_times).all()
        assert stats.num_completed == matrix.num_flows

    def test_rates_only_improve_as_flows_retire(self):
        """Completion order respects size/rate dominance: a flow with the
        same route but half the size never finishes later."""
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=2)
        routes = batch_routes(graph, matrix)
        small = fluid_fct(routes, np.full(matrix.num_flows, 1.0))
        large = fluid_fct(routes, np.full(matrix.num_flows, 3.0))
        assert (large.completion_times >= small.completion_times - 1e-9).all()

    def test_sizes_length_checked(self):
        graph = fast_compiled(AbcccSpec(3, 1, 2))
        matrix = generate_matrix("permutation", graph.num_servers, seed=0)
        routes = batch_routes(graph, matrix)
        with pytest.raises(ValueError, match="one entry per flow"):
            fluid_fct(routes, np.ones(3))
