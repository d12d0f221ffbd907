"""Correctness checks that read only public arrays.

They run outside the timed region and judge results by invariants and
certificates, not by bit-matching an oracle, so an allocator that
computes the same max-min rates another way passes the same checks.
Each returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

import numpy as np

#: relative slack of the feasibility check (load <= capacity * (1 + FEAS_TOL)).
FEAS_TOL = 1e-12
#: relative slack when deciding that an edge is saturated and that a
#: flow's rate is the largest on it (sums of up to ~10^4 floats).
CERT_TOL = 1e-9


def _incidence(routes):
    edge_ids = np.asarray(routes.edge_ids, dtype=np.int64)
    hops = np.diff(np.asarray(routes.offsets, dtype=np.int64))
    flows = np.repeat(np.arange(len(hops), dtype=np.int64), hops)
    return edge_ids, flows


def edge_loads(routes, rates) -> np.ndarray:
    edge_ids, flows = _incidence(routes)
    return np.bincount(
        edge_ids, weights=np.asarray(rates, dtype=np.float64)[flows], minlength=routes.num_edges
    )


def feasibility(routes, rates) -> List[str]:
    """No edge is loaded above its capacity."""
    caps = np.asarray(routes.graph.edge_capacity, dtype=np.float64)
    loads = edge_loads(routes, rates)
    over = np.flatnonzero(loads > caps * (1.0 + FEAS_TOL))
    if over.size:
        e = int(over[0])
        return [f"{over.size} edges over capacity, e.g. edge {e}: {float(loads[e])!r} > {float(caps[e])!r}"]
    return []


def optimality(routes, rates, unreachable) -> List[str]:
    """Max-min certificate: every served flow crosses a saturated edge
    on which its rate is the largest."""
    rates = np.asarray(rates, dtype=np.float64)
    served = ~np.asarray(unreachable, dtype=bool)
    problems = []
    if served.any() and not bool((rates[served] > 0).all()):
        problems.append("a served flow has a non-positive rate")
    if bool((rates[~served] != 0).any()):
        problems.append("an unreachable flow has a non-zero rate")
    caps = np.asarray(routes.graph.edge_capacity, dtype=np.float64)
    loads = edge_loads(routes, rates)
    edge_ids, flows = _incidence(routes)
    edge_max = np.zeros(routes.num_edges, dtype=np.float64)
    np.maximum.at(edge_max, edge_ids, rates[flows])
    good = (loads[edge_ids] >= caps[edge_ids] * (1.0 - CERT_TOL)) & (
        rates[flows] >= edge_max[edge_ids] * (1.0 - CERT_TOL)
    )
    certified = np.zeros(len(rates), dtype=bool)
    certified[flows[good]] = True
    missing = np.flatnonzero(served & ~certified)
    if missing.size:
        problems.append(
            f"{missing.size} served flows lack a bottleneck certificate, e.g. flow {int(missing[0])}"
        )
    return problems


def matrix_endpoints(routes, matrix) -> List[str]:
    try:
        routes.validate_against_matrix(matrix)
    except ValueError as error:
        return [f"validate_against_matrix: {error}"]
    return []


def edge_alive(graph, node_alive, dead_edges) -> np.ndarray:
    """Per edge id: both endpoints alive and the edge not failed."""
    u = np.asarray(graph.edge_u, dtype=np.int64)
    v = np.asarray(graph.edge_v, dtype=np.int64)
    alive = node_alive[u] & node_alive[v]
    alive[np.asarray(dead_edges, dtype=np.int64)] = False
    return alive


def degraded_routes(routes, masked, dead_edges, sample: np.ndarray) -> List[str]:
    """Sampled routes are contiguous over alive edges between the right
    endpoints; every unreachable flow is explained by the mask."""
    graph = routes.graph
    node_alive = np.asarray(masked.node_alive, dtype=bool)
    alive_edge = edge_alive(graph, node_alive, dead_edges)
    edge_u = np.asarray(graph.edge_u, dtype=np.int64)
    edge_v = np.asarray(graph.edge_v, dtype=np.int64)
    offsets = np.asarray(routes.offsets, dtype=np.int64)
    edge_ids = np.asarray(routes.edge_ids, dtype=np.int64)
    src = np.asarray(routes.src_nodes, dtype=np.int64)
    dst = np.asarray(routes.dst_nodes, dtype=np.int64)
    unreachable = np.asarray(routes.unreachable, dtype=bool)
    problems: List[str] = []
    empty = offsets[1:] == offsets[:-1]
    if bool((empty != unreachable).any()):
        problems.append("unreachable flags do not match the empty route slices")
    for f in (int(x) for x in sample):
        if unreachable[f]:
            continue
        hops = edge_ids[offsets[f]:offsets[f + 1]]
        if not bool(alive_edge[hops].all()):
            problems.append(f"flow {f} crosses a dead edge or node")
            continue
        here = int(src[f])
        for e in hops:
            if edge_u[e] == here:
                here = int(edge_v[e])
            elif edge_v[e] == here:
                here = int(edge_u[e])
            else:
                problems.append(f"flow {f} route is not contiguous at edge {int(e)}")
                break
        else:
            if here != int(dst[f]):
                problems.append(f"flow {f} route ends at {here}, not {int(dst[f])}")
    lost = np.flatnonzero(unreachable)
    if lost.size:
        labels = np.asarray(masked.component_labels())
        s, d = src[lost], dst[lost]
        explained = ~node_alive[s] | ~node_alive[d] | (labels[s] != labels[d])
        if not bool(explained.all()):
            f = int(lost[np.flatnonzero(~explained)[0]])
            problems.append(f"flow {f} is unreachable with both endpoints alive and connected")
    return problems


def fct(stats, unreachable) -> List[str]:
    """Completion times are finite exactly for the reachable flows."""
    times = np.asarray(stats.completion_times, dtype=np.float64)
    reachable = ~np.asarray(unreachable, dtype=bool)
    problems = []
    if not bool((np.isfinite(times) == reachable).all()):
        problems.append("finite completion times do not match the reachable flows")
    if bool((times[reachable] <= 0).any()):
        problems.append("a reachable flow completes at a non-positive time")
    if stats.solves > len(times):
        problems.append(f"{stats.solves} solves for {len(times)} flows")
    return problems


def sweep(stats, sources: int, num_servers: int, params) -> List[str]:
    """Sampled distance stats against the closed forms in
    :mod:`repro.core.properties`."""
    from repro.core import properties

    problems = []
    diameter = properties.diameter_link_hops(params)
    if not 0 < stats.diameter <= diameter:
        problems.append(f"diameter {stats.diameter} outside (0, {diameter}]")
    if stats.pairs != sources * (num_servers - 1):
        problems.append(f"{stats.pairs} pairs for {sources} sources")
    if sum(stats.histogram.values()) != stats.pairs:
        problems.append("histogram does not sum to the pair count")
    # Over distinct pairs: every differing digit costs two link hops
    # through its level switch (lower bound) and the locality route is
    # never shorter than a shortest path (upper bound).
    distinct = num_servers / (num_servers - 1)
    lower = 2.0 * params.levels * (1.0 - 1.0 / params.n) * distinct
    upper = properties.expected_link_hops(params) * distinct
    slack = stats.mean_ci95
    if not lower - slack <= stats.mean <= upper + slack:
        problems.append(f"mean {stats.mean} outside [{lower}, {upper}] +- {slack}")
    return problems


def serve_answer(answer: Dict[str, Any], expected: Dict[str, Any]) -> List[str]:
    """A served answer equals the library answer to the same request."""
    got, want = json.dumps(answer, sort_keys=True), json.dumps(expected, sort_keys=True)
    if got != want:
        return [f"answer {got[:120]} != library {want[:120]}"]
    return []
