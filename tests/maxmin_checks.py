"""Feasibility and max-min certificate checks for a rate vector.

An allocation is max-min fair exactly when it is feasible and every
served flow crosses a saturated edge on which its rate is the largest
(Bertsekas & Gallager's bottleneck characterisation).  Both checks read
only the RouteSet arrays and the rates, so they hold any allocator to
the same bar whatever order it computes rates in.
"""

import numpy as np

#: relative slack for load <= capacity, for "saturated" and for
#: "largest on the edge" — float sums over a few hundred flows stay
#: orders of magnitude inside it.
TOL = 1e-12


def _incidence(routes):
    edge_ids = np.asarray(routes.edge_ids, dtype=np.int64)
    flows = np.repeat(np.arange(routes.num_flows), np.diff(routes.offsets))
    return edge_ids, flows


def edge_loads(routes, rates):
    """Capacity used per edge (a flow crossing twice counts twice)."""
    edge_ids, flows = _incidence(routes)
    return np.bincount(edge_ids, weights=rates[flows], minlength=routes.num_edges)


def feasibility_problems(routes, rates):
    """Edges loaded above ``capacity * (1 + TOL)``."""
    over = np.flatnonzero(edge_loads(routes, rates) > routes.capacities() * (1 + TOL))
    return [f"edge {int(e)} is over capacity" for e in over]


def certificate_problems(routes, rates, served):
    """Served flows with a non-positive rate or no bottleneck edge;
    unserved flows with a non-zero rate."""
    problems = [
        f"flow {int(f)} is not served but has a rate"
        for f in np.flatnonzero(~served & (rates != 0))
    ]
    problems += [
        f"flow {int(f)} is served at rate <= 0"
        for f in np.flatnonzero(served & ~(rates > 0))
    ]
    edge_ids, flows = _incidence(routes)
    caps = routes.capacities()
    edge_max = np.zeros(routes.num_edges)
    np.maximum.at(edge_max, edge_ids, rates[flows])
    saturated = edge_loads(routes, rates) >= caps * (1 - TOL)
    good = saturated[edge_ids] & (rates[flows] >= edge_max[edge_ids] * (1 - TOL))
    certified = np.zeros(routes.num_flows, dtype=bool)
    certified[flows[good]] = True
    problems += [
        f"flow {int(f)} has no bottleneck edge"
        for f in np.flatnonzero(served & ~certified)
    ]
    return problems


def assert_max_min_fair(routes, allocation, active=None):
    """Both checks on one allocation; ``active`` as passed to the
    allocator."""
    served = ~np.asarray(routes.unreachable, dtype=bool) & (np.diff(routes.offsets) > 0)
    if active is not None:
        served &= np.asarray(active, dtype=bool)
    rates = np.asarray(allocation.rates, dtype=np.float64)
    assert feasibility_problems(routes, rates) == []
    assert certificate_problems(routes, rates, served) == []
