"""The three traffic workloads: matrix -> (faults) -> routes -> allocation.

Each puts most of its trial in a different layer (see README.md): the
max-min allocator on ``traffic-permutation``, the BFS route repair on
``traffic-degraded`` and the fluid FCT re-solves on
``traffic-incast-fct``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from e2ebench import checks, inputs, spans

#: degraded routes checked per trial for contiguity and liveness.
ROUTE_SAMPLE = 256


@dataclass
class Outcome:
    matrix: Any
    routes: Any
    masked: Any = None
    plan: Any = None
    alloc: Any = None
    fct: Any = None
    #: the trial's layer spans by name, with their counts attached.
    spans: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class TrafficWorkload:
    name: str
    params: Dict[str, int]
    pattern: str
    #: failed share of servers, switches and links per trial (0 = healthy).
    fault_fraction: float = 0.0
    fct: bool = False

    def matrix(self, graph, seed: int, t: int):
        """Trial ``t``'s traffic matrix."""
        from repro.traffic.matrix import generate_matrix

        return generate_matrix(
            self.pattern,
            len(graph.server_indices),
            seed=inputs.child(seed, self.name, "matrix", t),
        )

    def faults(self, graph, seed: int, t: int):
        """Trial ``t``'s index-space fault draw."""
        from repro.faults.plan import random_index_failures

        return random_index_failures(
            graph,
            server_fraction=self.fault_fraction,
            switch_fraction=self.fault_fraction,
            link_fraction=self.fault_fraction,
            seed=inputs.child(seed, self.name, "faults", t),
        )

    def trial(self, graph, seed: int, t: int, rec, run_id: str) -> Outcome:
        from repro.faults.mask import MaskedGraph
        from repro.routing.batch import batch_routes
        from repro.traffic.engine import fluid_fct, max_min_rates

        layer_spans: Dict[str, Any] = {}
        with rec.span("trial", run_id):
            with rec.span("matrix.gen") as layer_spans["matrix.gen"]:
                matrix = self.matrix(graph, seed, t)
            layer_spans["matrix.gen"].counts["flows"] = matrix.num_flows
            masked = plan = None
            if self.fault_fraction:
                with rec.span("faults.draw") as span:
                    plan = self.faults(graph, seed, t)
                span.counts.update(dead_nodes=len(plan.dead_nodes), dead_links=len(plan.dead_edges))
                layer_spans["faults.draw"] = span
                with rec.span("faults.mask") as layer_spans["faults.mask"]:
                    masked = MaskedGraph.from_indices(graph, plan.dead_nodes, plan.dead_edges)
            with rec.span("routes.batch") as span:
                routes = batch_routes(graph, matrix, masked)
            span.counts.update(hops=int(routes.offsets[-1]), unreachable=routes.num_unreachable)
            layer_spans["routes.batch"] = span
            alloc = fct = None
            if self.fct:
                with rec.span("fct.fluid") as span:
                    fct = fluid_fct(routes, matrix.size)
                span.counts.update(
                    solves=fct.solves, ms_per_solve=1000.0 * span.duration / fct.solves
                )
                layer_spans["fct.fluid"] = span
            else:
                with rec.span("alloc.max_min") as span:
                    alloc = max_min_rates(routes)
                served = routes.num_flows - routes.num_unreachable
                span.counts.update(rounds=alloc.rounds, flows_per_round=served / alloc.rounds)
                layer_spans["alloc.max_min"] = span
        return Outcome(matrix, routes, masked, plan, alloc, fct, layer_spans)

    def units(self, outcome: Outcome) -> int:
        """Flows routed and allocated."""
        return outcome.routes.num_flows

    def check(self, graph, outcome: Outcome, seed: int, t: int) -> List[str]:
        routes = outcome.routes
        problems = checks.matrix_endpoints(routes, outcome.matrix)
        if outcome.alloc is not None:
            problems += checks.feasibility(routes, outcome.alloc.rates)
            problems += checks.optimality(routes, outcome.alloc.rates, routes.unreachable)
        if outcome.fct is not None:
            problems += checks.fct(outcome.fct, routes.unreachable)
        if outcome.masked is not None:
            gen = inputs.rng(seed, self.name, "route-sample", t)
            sample = gen.choice(routes.num_flows, min(ROUTE_SAMPLE, routes.num_flows), replace=False)
            problems += checks.degraded_routes(
                routes, outcome.masked, outcome.plan.dead_edges, sample
            )
        return problems

    def layers(self, graph, outcome: Outcome) -> Dict[str, float]:
        """Per-layer numbers of one traced trial."""
        out = spans.layer_metrics(outcome.spans)
        if outcome.plan is not None:
            out.update(_repair_counts(graph, outcome))
        return out


def _repair_counts(graph, outcome: Outcome) -> Dict[str, float]:
    """Broken flows (healthy route touches the mask, endpoints alive),
    the distinct destinations the repair must search from, and how many
    broken flows the repair reconnected."""
    from repro.routing.batch import batch_routes

    healthy = batch_routes(graph, outcome.matrix)
    node_alive = np.asarray(outcome.masked.node_alive, dtype=bool)
    alive_edge = checks.edge_alive(graph, node_alive, outcome.plan.dead_edges)
    edge_ids = np.asarray(healthy.edge_ids, dtype=np.int64)
    hops = np.diff(np.asarray(healthy.offsets, dtype=np.int64))
    flows = np.repeat(np.arange(len(hops)), hops)
    touches = np.zeros(len(hops), dtype=bool)
    touches[flows[~alive_edge[edge_ids]]] = True
    src = np.asarray(healthy.src_nodes, dtype=np.int64)
    dst = np.asarray(healthy.dst_nodes, dtype=np.int64)
    broken = touches & node_alive[src] & node_alive[dst]
    repaired = broken & ~np.asarray(outcome.routes.unreachable, dtype=bool)
    count = int(broken.sum())
    return {
        "routes.broken_flows": count,
        "routes.repair_bfs": int(np.unique(dst[broken]).size),
        "routes.repaired_ratio": int(repaired.sum()) / count if count else 1.0,
    }


PERMUTATION = TrafficWorkload(
    name="traffic-permutation", params={"n": 6, "k": 3, "s": 2}, pattern="permutation"
)
DEGRADED = TrafficWorkload(
    name="traffic-degraded",
    params={"n": 5, "k": 3, "s": 2},
    pattern="permutation",
    fault_fraction=0.01,
)
INCAST_FCT = TrafficWorkload(
    name="traffic-incast-fct", params={"n": 8, "k": 3, "s": 2}, pattern="incast", fct=True
)
