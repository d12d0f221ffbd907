"""RouteSet construction and batch route extraction, healthy + degraded."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BcubeSpec, FatTreeSpec
from repro.core import AbcccSpec
from repro.core.address import ServerAddress
from repro.core.routing import abccc_route
from repro.faults import MaskedGraph, random_index_failures
from repro.metrics.engine import bitpack_block
from repro.routing.batch import (
    abccc_batch_routes,
    batch_routes,
    bfs_batch_routes,
    bfs_node_paths,
)
from repro.topology.compiled import compile_graph
from repro.topology.fastbuild import fast_compiled
from repro.obs import trace as obs_trace
from repro.serve.engine import _path_nodes
from repro.traffic import RouteSet, RouteSetError, edge_id_array, generate_matrix


@pytest.fixture(scope="module")
def fast_graph():
    return fast_compiled(AbcccSpec(3, 2, 2))


@pytest.fixture(scope="module")
def object_graph():
    return compile_graph(AbcccSpec(3, 2, 2).build())


def _oracle_edge_ids(graph, src_ordinal, dst_ordinal):
    """Edge-id sequence of the per-flow ABCCC router, via names."""
    from repro.core.topology import AbcccParams

    lay = graph.layout
    c = lay.crossbar_size
    params = AbcccParams(n=lay.n, k=lay.k, s=lay.s)

    def addr(o):
        return ServerAddress(lay.crossbar_digits(o // c), o % c)

    route = abccc_route(params, addr(src_ordinal), addr(dst_ordinal))
    nodes = [graph.index[name] for name in route.nodes]
    return [graph.edge_id(u, v) for u, v in zip(nodes, nodes[1:])]


class TestEdgeIdArray:
    def test_round_trip(self, fast_graph):
        u = np.asarray(fast_graph.edge_u[:50], dtype=np.int64)
        v = np.asarray(fast_graph.edge_v[:50], dtype=np.int64)
        ids = edge_id_array(fast_graph, u, v)
        assert np.array_equal(ids, np.arange(50))
        # direction-insensitive
        ids_rev = edge_id_array(fast_graph, v, u)
        assert np.array_equal(ids_rev, np.arange(50))

    def test_non_edge_rejected(self, fast_graph):
        servers = np.asarray(fast_graph.server_indices)
        with pytest.raises(RouteSetError, match="no edge"):
            edge_id_array(
                fast_graph,
                np.array([servers[0]]),
                np.array([servers[-1]]),
            )


class TestArithmeticRoutes:
    def test_matches_per_flow_oracle(self, fast_graph):
        rng = np.random.default_rng(0)
        S = fast_graph.num_servers
        src = rng.integers(0, S, size=150)
        gap = rng.integers(1, S, size=150)
        dst = (src + gap) % S
        routes = abccc_batch_routes(fast_graph, src, dst)
        offsets = routes.offsets
        for i in range(len(src)):
            expect = _oracle_edge_ids(fast_graph, int(src[i]), int(dst[i]))
            got = routes.edge_ids[offsets[i] : offsets[i + 1]].tolist()
            assert got == expect, f"flow {i}: {got} != {expect}"

    def test_multiple_shapes(self):
        for spec in (AbcccSpec(2, 2, 2), AbcccSpec(4, 1, 3)):
            g = fast_compiled(spec)
            rng = np.random.default_rng(1)
            src = rng.integers(0, g.num_servers, size=60)
            gap = rng.integers(1, g.num_servers, size=60)
            dst = (src + gap) % g.num_servers
            routes = abccc_batch_routes(g, src, dst)
            offsets = routes.offsets
            for i in range(60):
                assert (
                    routes.edge_ids[offsets[i] : offsets[i + 1]].tolist()
                    == _oracle_edge_ids(g, int(src[i]), int(dst[i]))
                )


class TestBfsRoutes:
    def test_paths_are_shortest(self, object_graph):
        g = object_graph
        servers = np.asarray(g.server_indices, dtype=np.int64)
        src = servers[:20]
        dst = servers[-20:]
        paths = bfs_node_paths(g, src, dst)
        for s, d, path in zip(src, dst, paths):
            dist = g.bfs_distances(int(s))
            assert path[0] == s and path[-1] == d
            assert len(path) - 1 == dist[int(d)]

    def test_routeset_consistent(self, object_graph):
        g = object_graph
        servers = np.asarray(g.server_indices, dtype=np.int64)
        routes = bfs_batch_routes(g, servers[:10], servers[10:20])
        assert routes.num_flows == 10
        assert routes.num_unreachable == 0
        assert routes.hop_counts.min() >= 1


class TestDispatch:
    def test_fast_graph_uses_arithmetic(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=2)
        routes = batch_routes(fast_graph, m)
        servers = np.asarray(fast_graph.server_indices, dtype=np.int64)
        offsets = routes.offsets
        for i in range(0, m.num_flows, 7):
            assert (
                routes.edge_ids[offsets[i] : offsets[i + 1]].tolist()
                == _oracle_edge_ids(fast_graph, int(m.src[i]), int(m.dst[i]))
            )
        routes.validate_against_matrix(m)

    def test_object_graph_uses_bfs(self, object_graph):
        m = generate_matrix("permutation", len(object_graph.server_indices), seed=2)
        routes = batch_routes(object_graph, m)
        assert routes.num_unreachable == 0
        # BFS paths are shortest: spot-check against per-source distances
        servers = np.asarray(object_graph.server_indices, dtype=np.int64)
        hops = routes.hop_counts
        for i in range(0, m.num_flows, 9):
            dist = object_graph.bfs_distances(int(servers[m.src[i]]))
            assert hops[i] == dist[int(servers[m.dst[i]])]


class TestDegraded:
    def test_dead_endpoint_flows_marked_unreachable(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=5)
        servers = np.asarray(fast_graph.server_indices, dtype=np.int64)
        dead_node = int(servers[m.src[0]])
        masked = MaskedGraph.from_indices(fast_graph, dead_nodes=[dead_node])
        routes = batch_routes(fast_graph, m, masked)
        dead_ordinal = int(np.flatnonzero(servers == dead_node)[0])
        affected = (m.src == dead_ordinal) | (m.dst == dead_ordinal)
        assert np.array_equal(routes.unreachable, affected)
        assert routes.hop_counts[affected].max() == 0

    def test_broken_routes_repaired_around_dead_switch(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=5)
        healthy = batch_routes(fast_graph, m)
        # kill a switch that some healthy route crosses
        plan = random_index_failures(fast_graph, switch_fraction=0.05, seed=3)
        masked = MaskedGraph.from_indices(fast_graph, dead_nodes=plan.dead_nodes)
        routes = batch_routes(fast_graph, m, masked)
        assert routes.num_unreachable == 0  # endpoints are servers, all alive
        # every repaired route avoids every dead node
        node_alive = np.asarray(masked.node_alive)
        eu = np.asarray(fast_graph.edge_u, dtype=np.int64)
        ev = np.asarray(fast_graph.edge_v, dtype=np.int64)
        used = np.unique(routes.edge_ids)
        assert node_alive[eu[used]].all() and node_alive[ev[used]].all()
        # and unaffected flows keep their arithmetic route
        offsets_h, offsets_d = healthy.offsets, routes.offsets
        dead_set = set(int(n) for n in plan.dead_nodes)
        for i in range(m.num_flows):
            h = healthy.edge_ids[offsets_h[i] : offsets_h[i + 1]]
            d = routes.edge_ids[offsets_d[i] : offsets_d[i + 1]]
            touched = any(
                int(eu[e]) in dead_set or int(ev[e]) in dead_set for e in h
            )
            if not touched:
                assert np.array_equal(h, d)

    def test_dead_links_rerouted(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=6)
        plan = random_index_failures(fast_graph, link_fraction=0.02, seed=9)
        masked = MaskedGraph.from_indices(fast_graph, dead_edges=plan.dead_edges)
        routes = batch_routes(fast_graph, m, masked)
        dead = set(int(e) for e in plan.dead_edges)
        assert not dead.intersection(routes.edge_ids.tolist())


class TestRouteSetHelpers:
    def test_crossings_and_load(self, fast_graph):
        m = generate_matrix("all_to_all", fast_graph.num_servers, seed=1, max_flows=80)
        routes = batch_routes(fast_graph, m)
        crossings = routes.crossings()
        assert crossings.sum() == routes.edge_ids.size
        assert routes.max_link_load() == crossings.max()  # unit capacities

    def test_validate_against_matrix_rejects_mismatch(self, fast_graph):
        m = generate_matrix("permutation", fast_graph.num_servers, seed=1)
        other = generate_matrix("uniform", fast_graph.num_servers, seed=1)
        routes = batch_routes(fast_graph, m)
        with pytest.raises(RouteSetError):
            routes.validate_against_matrix(other)


# ----------------------------------------------------------------------
# multi-source repair vs the per-destination oracle
# ----------------------------------------------------------------------
def _oracle_backtrack(view, dist, src):
    """Forward walk src -> dst stepping to the lowest-indexed neighbor
    one BFS level closer to dst (``dist`` = distances from dst)."""
    offsets, neighbors = view.offsets, view.neighbors
    path = [src]
    current = src
    for level in range(int(dist[src]), 0, -1):
        step = None
        for j in range(int(offsets[current]), int(offsets[current + 1])):
            candidate = int(neighbors[j])
            if int(dist[candidate]) == level - 1 and (step is None or candidate < step):
                step = candidate
        assert step is not None, "BFS backtrack found no predecessor"
        path.append(step)
        current = step
    return path


def _oracle_node_paths(view, src_nodes, dst_nodes):
    """One single-source BFS per distinct destination, then a per-flow
    backtrack: the repair :func:`bfs_node_paths` replaced."""
    src_nodes = np.asarray(src_nodes, dtype=np.int64)
    dst_nodes = np.asarray(dst_nodes, dtype=np.int64)
    paths = [None] * len(src_nodes)
    unique_dsts, inverse = np.unique(dst_nodes, return_inverse=True)
    for which, dst in enumerate(unique_dsts):
        dist = view.bfs_distances(int(dst))
        for f in np.flatnonzero(inverse.reshape(-1) == which):
            src = int(src_nodes[f])
            if int(dist[src]) >= 0:
                paths[int(f)] = _oracle_backtrack(view, dist, src)
    return paths


ORACLE_GRAPHS = {
    "abccc-fast": lambda: fast_compiled(AbcccSpec(3, 2, 2)),
    "abccc-object": lambda: compile_graph(AbcccSpec(2, 2, 2).build()),
    "bcube": lambda: compile_graph(BcubeSpec(3, 1).build()),
    "fattree": lambda: compile_graph(FatTreeSpec(4).build()),
}
FAULT_DRAWS = {
    "none": {},
    "server": {"server_fraction": 0.08},
    "switch": {"switch_fraction": 0.08},
    "link": {"link_fraction": 0.08},
    "mixed": {"server_fraction": 0.05, "switch_fraction": 0.05, "link_fraction": 0.05},
}
ORACLE_PATTERNS = {
    "permutation": {},
    "incast": {},
    "all_to_all": {"max_flows": 150},
}


@functools.lru_cache(maxsize=None)
def _oracle_graph(name):
    return ORACLE_GRAPHS[name]()


def _masked(graph, fractions, seed):
    if not fractions:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny graphs floor counts at one
        plan = random_index_failures(graph, seed=seed, **fractions)
    return MaskedGraph.from_indices(graph, plan.dead_nodes, plan.dead_edges)


def _path_edges(graph, path):
    return edge_id_array(graph, path[:-1], path[1:]).tolist()


def _assert_matches_oracle(view, src, dst):
    got = bfs_node_paths(view, src, dst)
    want = _oracle_node_paths(view, src, dst)
    for f, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"flow {f} ({src[f]} -> {dst[f]}): {g} != {w}"
    return got


class TestRepairMatchesOracle:
    """The multi-source BFS returns the old repair's paths node for node."""

    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.sampled_from(sorted(ORACLE_GRAPHS)),
        faults=st.sampled_from(sorted(FAULT_DRAWS)),
        pattern=st.sampled_from(sorted(ORACLE_PATTERNS)),
        seed=st.integers(0, 2**16),
    )
    def test_batch_routes_match_oracle(self, topology, faults, pattern, seed):
        graph = _oracle_graph(topology)
        matrix = generate_matrix(
            pattern, graph.num_servers, seed=seed, **ORACLE_PATTERNS[pattern]
        )
        masked = _masked(graph, FAULT_DRAWS[faults], seed)
        view = masked.sweep_view() if masked is not None else graph
        servers = np.asarray(graph.server_indices, dtype=np.int64)
        src, dst = servers[matrix.src], servers[matrix.dst]
        paths = _assert_matches_oracle(view, src, dst)

        routes = batch_routes(graph, matrix, masked)
        healthy = batch_routes(graph, matrix)
        alive = (
            np.asarray(masked.node_alive, dtype=bool)
            if masked is not None
            else np.ones(graph.num_nodes, dtype=bool)
        )
        edge_ok = alive[np.asarray(graph.edge_u, dtype=np.int64)] & alive[
            np.asarray(graph.edge_v, dtype=np.int64)
        ]
        if masked is not None and len(masked.dead_edge_ids):
            edge_ok[np.asarray(masked.dead_edge_ids, dtype=np.int64)] = False
        arithmetic = topology == "abccc-fast"
        for f in range(matrix.num_flows):
            got = routes.edge_ids[routes.offsets[f] : routes.offsets[f + 1]].tolist()
            kept = healthy.edge_ids[healthy.offsets[f] : healthy.offsets[f + 1]]
            if not (alive[src[f]] and alive[dst[f]]):
                assert routes.unreachable[f] and got == []
            elif arithmetic and edge_ok[kept].all():
                assert got == kept.tolist()
            elif paths[f] is None:
                assert routes.unreachable[f] and got == []
            else:
                assert not routes.unreachable[f]
                assert got == _path_edges(graph, paths[f])

    def test_destination_with_every_neighbor_dead(self):
        graph = _oracle_graph("abccc-fast")
        servers = np.asarray(graph.server_indices, dtype=np.int64)
        victim = int(servers[7])
        offsets = np.asarray(graph.offsets, dtype=np.int64)
        around = np.asarray(graph.neighbors, dtype=np.int64)[
            offsets[victim] : offsets[victim + 1]
        ]
        masked = MaskedGraph.from_indices(graph, dead_nodes=around.tolist())
        src = np.delete(servers, np.concatenate([[7], np.flatnonzero(np.isin(servers, around))]))
        dst = np.where(np.arange(src.size) % 2 == 0, victim, servers[11])
        paths = _assert_matches_oracle(masked.sweep_view(), src, dst)
        assert all(p is None for p, d in zip(paths, dst) if d == victim)
        assert any(p is not None for p in paths)

    @pytest.mark.parametrize(
        "dead", [[-1], [-2, -1], [0], [0, 40, -1]], ids=["last", "last-two", "first", "mixed"]
    )
    def test_degree_zero_rows(self, dead):
        # dead nodes keep their ids with no CSR entries; the last node
        # being dead once cut an edge off the row before it
        graph = _oracle_graph("abccc-fast")
        dead = [d % graph.num_nodes for d in dead]
        masked = MaskedGraph.from_indices(graph, dead_nodes=dead)
        view = masked.sweep_view()
        nodes = np.arange(graph.num_nodes)
        rng = np.random.default_rng(len(dead))
        src, dst = rng.choice(nodes, 300), rng.choice(nodes, 300)
        keep = src != dst
        paths = _assert_matches_oracle(view, src[keep], dst[keep])
        for p, s, d in zip(paths, src[keep], dst[keep]):
            if s in dead or d in dead:
                assert p is None

    def test_unreachable_flows(self):
        # cut one server off by its links: alive but unreachable
        graph = _oracle_graph("abccc-object")
        servers = np.asarray(graph.server_indices, dtype=np.int64)
        victim = int(servers[3])
        cut = [
            e
            for e in range(graph.num_edges)
            if victim in (int(graph.edge_u[e]), int(graph.edge_v[e]))
        ]
        masked = MaskedGraph.from_indices(graph, dead_edges=cut)
        others = servers[servers != victim]
        src = np.concatenate([others[:10], np.full(10, victim)])
        dst = np.concatenate([np.full(10, victim), others[-10:]])
        paths = _assert_matches_oracle(masked.sweep_view(), src, dst)
        assert paths == [None] * 20
        routes = bfs_batch_routes(graph, src, dst, view=masked.sweep_view())
        assert routes.unreachable.all() and routes.edge_ids.size == 0

    @pytest.mark.parametrize("budget", ["default", "tiny"])
    @pytest.mark.parametrize("distinct", [64, 65, 200])
    def test_block_boundaries(self, monkeypatch, budget, distinct):
        graph = fast_compiled(AbcccSpec(3, 3, 2))
        if budget == "tiny":  # one 64-source word per block
            monkeypatch.setenv("REPRO_SWEEP_BUDGET_MB", "0.001")
            assert bitpack_block(graph.num_nodes, len(graph.neighbors), 6) == 64
        masked = _masked(graph, FAULT_DRAWS["mixed"], seed=distinct)
        servers = np.asarray(graph.server_indices, dtype=np.int64)
        rng = np.random.default_rng(distinct)
        dsts = rng.choice(servers, distinct, replace=False)
        dst = np.concatenate([dsts, rng.choice(dsts, 300)])
        src = rng.choice(servers, dst.size)
        keep = src != dst
        assert np.unique(dst[keep]).size == distinct
        _assert_matches_oracle(masked.sweep_view(), src[keep], dst[keep])

    def test_incast_many_flows_one_destination(self):
        graph = fast_compiled(AbcccSpec(3, 3, 2))
        matrix = generate_matrix("incast", graph.num_servers, seed=4)
        masked = _masked(graph, FAULT_DRAWS["mixed"], seed=4)
        servers = np.asarray(graph.server_indices, dtype=np.int64)
        src, dst = servers[matrix.src], servers[matrix.dst]
        assert np.unique(dst).size < src.size // 4
        _assert_matches_oracle(masked.sweep_view(), src, dst)

    def test_empty_and_self_flows(self):
        graph = _oracle_graph("bcube")
        assert bfs_node_paths(graph, [], []) == []
        empty = bfs_batch_routes(graph, [], [])
        assert empty.num_flows == 0 and empty.edge_ids.size == 0
        server = int(graph.server_indices[0])
        assert bfs_node_paths(graph, [server], [server]) == [[server]]
        with pytest.raises(RouteSetError, match="fewer than two nodes"):
            bfs_batch_routes(graph, [server], [server])


class TestBatchPathContract:
    def test_walks_forward_from_src_to_lowest_closer_neighbor(self):
        # BFS from dst, walk from src: each step is the lowest-indexed
        # neighbor one level closer to dst.  The serve engine mirrors
        # this (BFS from src, walk back from dst), so the two agree on
        # length but may pick different paths.
        graph = fast_compiled(AbcccSpec(4, 2, 2))
        servers = np.asarray(graph.server_indices, dtype=np.int64)
        rng = np.random.default_rng(0)
        src = rng.choice(servers, 300)
        dst = rng.choice(servers, 300)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        offsets = np.asarray(graph.offsets, dtype=np.int64)
        neighbors = np.asarray(graph.neighbors, dtype=np.int64)
        for s, d, path in zip(src, dst, bfs_node_paths(graph, src, dst)):
            dist = graph.bfs_distances(int(d))
            assert path[0] == s and path[-1] == d
            assert len(path) == dist[s] + 1
            for here, step in zip(path, path[1:]):
                around = neighbors[offsets[here] : offsets[here + 1]]
                assert step == around[dist[around] == dist[here] - 1].min()
            serve_path = _path_nodes(graph, graph.bfs_distances(int(s)), int(s), int(d))
            assert len(serve_path) == len(path)


class TestRepairCounters:
    def test_degraded_batch_routes_count_repair(self, fast_graph, tmp_path):
        matrix = generate_matrix("permutation", fast_graph.num_servers, seed=5)
        masked = _masked(fast_graph, {"switch_fraction": 0.05}, seed=3)
        tracer = obs_trace.Tracer(path=str(tmp_path / "t.jsonl"))
        previous = obs_trace.set_tracer(tracer)
        try:
            routes = batch_routes(fast_graph, matrix, masked)
            counters = tracer.counters()
        finally:
            obs_trace.set_tracer(previous)
            tracer.close()
        healthy = batch_routes(fast_graph, matrix)
        changed = sum(
            not np.array_equal(
                healthy.edge_ids[healthy.offsets[f] : healthy.offsets[f + 1]],
                routes.edge_ids[routes.offsets[f] : routes.offsets[f + 1]],
            )
            for f in range(matrix.num_flows)
        )
        assert counters["routes.repair_flows"] >= changed > 0
        assert 0 < counters["routes.repair_sources"] <= counters["routes.repair_flows"]
        assert counters["routes.bfs_levels"] > 0
