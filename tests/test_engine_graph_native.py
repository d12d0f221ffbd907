"""Graph-native sweep engine: parity, kernels, sampling, masking.

The contracts under test:

* ``sweep_graph_distance_stats(compile_graph(net))`` ==
  ``sweep_distance_stats(net)`` == the legacy dict-BFS reference —
  field for field, exact and sampled.
* All three BFS kernels (bitpack / dense / flat) produce identical
  ``DistanceStats``, including the sampled-mean confidence interval.
* Index-based source sampling draws the same sources as the legacy
  name-based sampling for any seed (``random.Random(seed).sample``
  over positions vs over the name list).
* Fast-built graphs (no ``Network``) sweep to the same stats as the
  object path.
* ``MaskedGraph.sweep_view()`` reproduces compile-the-subgraph stats.
* Parallel sweeps hand the graph to workers through shared memory and
  release every segment, even when the pool degrades.
"""

from __future__ import annotations

import warnings

import pytest

from repro.baselines import DcellSpec, FiconnSpec
from repro.core import AbcccSpec
from repro.faults import FailureScenario, MaskedGraph
from repro.metrics.distance import legacy_link_hop_stats
from repro.metrics.engine import (
    PARALLEL_THRESHOLD,
    SWEEP_KERNELS,
    resolve_kernel,
    sweep_distance_stats,
    sweep_graph_distance_stats,
    pairwise_distances,
)
from repro.topology import shm
from repro.topology.compiled import (
    HAVE_NUMPY,
    HAVE_SCIPY,
    CSRGraphView,
    compile_graph,
)
from repro.topology.fastbuild import fast_compiled

KERNELS = ("bitpack", "dense", "flat")


def assert_identical(got, want, ci: bool = False):
    assert got.diameter == want.diameter
    assert got.mean == want.mean
    assert got.histogram == want.histogram
    assert got.pairs == want.pairs
    assert got.exact == want.exact
    if ci:
        assert got.mean_ci95 == want.mean_ci95


class TestGraphNativeParity:
    @pytest.mark.parametrize(
        "spec",
        [AbcccSpec(3, 1, 2), DcellSpec(3, 1), FiconnSpec(4, 1)],
        ids=lambda s: s.label,
    )
    def test_exact_matches_network_and_legacy(self, spec):
        net = spec.build()
        want = legacy_link_hop_stats(net)
        via_net = sweep_distance_stats(net)
        via_graph = sweep_graph_distance_stats(compile_graph(net))
        assert_identical(via_net, want)
        assert_identical(via_graph, want)
        assert via_graph.exact and via_graph.mean_ci95 == 0.0

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_sampled_sources_match_legacy_sampling(self, seed):
        # Position-based sampling must pick the same sources as the
        # legacy name-list sampling for the same seed.
        net = AbcccSpec(3, 1, 2).build()
        want = legacy_link_hop_stats(net, sample_sources=5, seed=seed)
        via_net = sweep_distance_stats(net, sample_sources=5, seed=seed)
        via_graph = sweep_graph_distance_stats(
            compile_graph(net), sample_sources=5, seed=seed
        )
        assert_identical(via_net, want)
        assert_identical(via_graph, want)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_forced_kernels_agree(self, kernel):
        net = FiconnSpec(4, 1).build()
        graph = compile_graph(net)
        want = sweep_graph_distance_stats(graph, kernel="flat")
        got = sweep_graph_distance_stats(graph, kernel=kernel)
        assert_identical(got, want, ci=True)

    def test_kernel_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_KERNEL", "flat")
        assert resolve_kernel(None) == "flat"
        monkeypatch.setenv("REPRO_SWEEP_KERNEL", "vectorized-telepathy")
        with pytest.raises(ValueError, match="vectorized-telepathy"):
            resolve_kernel(None)
        with pytest.raises(ValueError):
            resolve_kernel("nope")
        for name in SWEEP_KERNELS:
            assert resolve_kernel(name) in KERNELS

    def test_unreachable_raises_with_graph_label(self):
        net = AbcccSpec(3, 1, 2).build()
        # Cutting one server's every link disconnects it.
        victim = net.servers[0]
        dead_links = [
            (victim, other) for other in list(net.neighbors(victim))
        ]
        broken = net.subgraph_without(dead_links=dead_links)
        with pytest.raises(ValueError, match="unreachable"):
            sweep_graph_distance_stats(compile_graph(broken))


class TestSampling:
    def test_auto_sample_above_threshold(self, monkeypatch):
        from repro.metrics import engine

        net = AbcccSpec(3, 1, 2).build()
        graph = compile_graph(net)
        # Sampling every source degenerates to exact, so shrink the cap.
        monkeypatch.setattr(engine, "AUTO_SAMPLE_SOURCES", 6)
        stats = sweep_graph_distance_stats(graph, auto_sample_threshold=10)
        assert not stats.exact
        want = sweep_graph_distance_stats(graph, sample_sources=6, seed=0)
        assert_identical(stats, want, ci=True)
        off = sweep_graph_distance_stats(
            graph, auto_sample_threshold=10, auto_sample=False
        )
        assert off.exact

    def test_network_wrapper_never_auto_samples(self):
        net = AbcccSpec(3, 1, 2).build()
        stats = sweep_distance_stats(net)
        assert stats.exact

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ci_deterministic_across_kernels(self, kernel):
        # FiConn is not vertex-transitive, so sampled per-source means
        # spread and the CI is strictly positive — and identical across
        # kernels because all three produce exact integer distance sums.
        graph = compile_graph(FiconnSpec(4, 1).build())
        base = sweep_graph_distance_stats(
            graph, sample_sources=6, seed=3, kernel="flat"
        )
        got = sweep_graph_distance_stats(
            graph, sample_sources=6, seed=3, kernel=kernel
        )
        assert base.mean_ci95 > 0.0
        assert got.mean_ci95 == base.mean_ci95
        assert_identical(got, base, ci=True)

    def test_ci_zero_for_exact(self):
        graph = compile_graph(AbcccSpec(3, 1, 2).build())
        assert sweep_graph_distance_stats(graph).mean_ci95 == 0.0


@pytest.mark.skipif(not HAVE_NUMPY, reason="fastbuild requires numpy")
class TestFastBuiltGraphs:
    def test_fastbuild_sweep_matches_object_path(self):
        spec = AbcccSpec(4, 2, 2)
        graph = spec.compiled()
        want = sweep_distance_stats(spec.build())
        got = sweep_graph_distance_stats(graph)
        assert_identical(got, want)

    def test_fastbuild_sampled_with_lazy_names(self):
        # Sampling must not materialize the name list: sources are drawn
        # as positions into server_indices.
        spec = AbcccSpec(4, 2, 2)
        graph = spec.compiled()
        want = sweep_distance_stats(spec.build(), sample_sources=8, seed=1)
        got = sweep_graph_distance_stats(graph, sample_sources=8, seed=1)
        assert_identical(got, want)


class TestMaskedSweep:
    def test_masked_graph_matches_subgraph_compile(self):
        net = AbcccSpec(3, 1, 2).build()
        graph = compile_graph(net)
        victim = net.servers[3]
        u, v = net.servers[0], None
        for cand in net.neighbors(u):
            if net.node(cand).is_server:
                v = cand
                break
        scenario = FailureScenario(
            dead_servers=(victim,),
            dead_switches=(),
            dead_links=((u, v),) if v else (),
        )
        masked = MaskedGraph(graph, scenario)
        got = sweep_graph_distance_stats(masked)
        alive = net.subgraph_without(
            dead_nodes=[victim], dead_links=[(u, v)] if v else []
        )
        want = sweep_distance_stats(alive)
        assert got.diameter == want.diameter
        assert got.mean == want.mean
        assert got.histogram == want.histogram
        assert got.pairs == want.pairs

    def test_masked_default_drops_unreachable(self):
        # Killing a switch in BCCC (s=2) can strand nothing, so cut a
        # server off by links instead: masked sweeps drop those pairs
        # rather than raising.
        net = AbcccSpec(3, 1, 2).build()
        graph = compile_graph(net)
        victim = net.servers[0]
        scenario = FailureScenario(
            dead_servers=(),
            dead_switches=(),
            dead_links=tuple((victim, o) for o in net.neighbors(victim)),
        )
        stats = sweep_graph_distance_stats(MaskedGraph(graph, scenario))
        full = net.num_servers
        # victim is alive but unreachable: its pairs drop from the count.
        assert stats.pairs == (full - 1) * (full - 2)
        assert sum(stats.histogram.values()) == stats.pairs

    @pytest.mark.parametrize("where", ["last", "last-two", "first", "interior"])
    def test_bitpack_with_dead_nodes_matches_flat(self, where):
        # Dead nodes are degree-0 rows of the sweep view.  Trailing ones
        # once clipped the last entry off the row before them, so the
        # bit-packed kernels lost an edge whenever the highest-indexed
        # node was dead.
        graph = fast_compiled(AbcccSpec(3, 2, 2))
        last = graph.num_nodes - 1
        dead = {
            "last": [last],
            "last-two": [last - 1, last],
            "first": [0],
            "interior": [5, last // 2],
        }[where]
        masked = MaskedGraph.from_indices(graph, dead_nodes=dead)
        want = sweep_graph_distance_stats(masked, kernel="flat")
        got = sweep_graph_distance_stats(masked, kernel="bitpack")
        assert got.histogram == want.histogram
        view = masked.sweep_view()
        servers = [int(v) for v in view.server_indices]
        pairs = [(servers[i], servers[-1 - i]) for i in range(len(servers))]
        assert pairwise_distances(view, pairs, kernel="bitpack") == pairwise_distances(
            view, pairs, kernel="flat"
        )

    def test_sweep_view_feeds_pairwise(self):
        net = AbcccSpec(3, 1, 2).build()
        graph = compile_graph(net)
        scenario = FailureScenario(
            dead_servers=(net.servers[5],), dead_switches=(), dead_links=()
        )
        view = MaskedGraph(graph, scenario).sweep_view()
        assert isinstance(view, CSRGraphView)
        index = graph.index
        alive = net.subgraph_without(dead_nodes=[net.servers[5]])
        ga = compile_graph(alive)
        pairs = [(alive.servers[0], alive.servers[-1]), (alive.servers[2], alive.servers[7])]
        want = pairwise_distances(ga, [(ga.index[a], ga.index[b]) for a, b in pairs])
        got = pairwise_distances(view, [(index[a], index[b]) for a, b in pairs])
        assert got == want


class TestParallelHandoff:
    def test_parallel_matches_sequential_and_releases_shm(self):
        net = AbcccSpec(3, 1, 2).build()
        sample = max(PARALLEL_THRESHOLD, 2 * 2)
        want = sweep_distance_stats(net, sample_sources=sample, seed=0)
        got = sweep_distance_stats(net, sample_sources=sample, seed=0, workers=2)
        assert_identical(got, want)
        assert shm.owned_segments() == ()

    def test_degraded_pool_still_releases_shm(self, monkeypatch):
        from repro.metrics import engine

        class AlwaysBroken:
            def __init__(self, *a, **k):
                raise OSError("no semaphores here")

        monkeypatch.setattr(engine, "ProcessPoolExecutor", AlwaysBroken)
        monkeypatch.setattr(engine, "POOL_RETRY_BACKOFF_S", 0.0)
        net = AbcccSpec(3, 1, 2).build()
        sample = max(PARALLEL_THRESHOLD, 4)
        want = sweep_distance_stats(net, sample_sources=sample, seed=0)
        with pytest.warns(engine.DegradedModeWarning):
            got = sweep_distance_stats(
                net, sample_sources=sample, seed=0, workers=2
            )
        assert_identical(got, want)
        assert shm.owned_segments() == ()


class TestPairwiseKernels:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_pairwise_kernels_agree(self, kernel):
        import random as _random

        net = FiconnSpec(4, 1).build()
        graph = compile_graph(net)
        rng = _random.Random(9)
        n = graph.num_servers
        servers = list(graph.server_indices)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(20)]
        pairs = [(servers[a], servers[b]) for a, b in pairs]
        pairs.append((servers[0], servers[0]))  # self-pair -> 0
        want = pairwise_distances(graph, pairs, kernel="flat")
        got = pairwise_distances(graph, pairs, kernel=kernel)
        assert got == want
        assert got[-1] == 0


class TestCSRGraphView:
    def test_view_of_is_idempotent_and_kernel_only(self):
        graph = compile_graph(AbcccSpec(3, 1, 2).build())
        view = CSRGraphView.of(graph)
        assert CSRGraphView.of(view) is view
        assert view.num_nodes == graph.num_nodes
        assert view.num_servers == graph.num_servers
        with pytest.raises(TypeError):
            view.names
        with pytest.raises(TypeError):
            view.index

    def test_view_sweep_matches_graph(self):
        graph = compile_graph(AbcccSpec(3, 1, 2).build())
        want = sweep_graph_distance_stats(graph)
        got = sweep_graph_distance_stats(CSRGraphView.of(graph))
        assert_identical(got, want)
