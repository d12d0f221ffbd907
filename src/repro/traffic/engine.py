"""Vectorized max-min fair allocation and fluid FCT over a RouteSet.

The allocator solves the same problem as
:func:`repro.sim.flow.max_min_allocation` — progressive filling — but
freezes every locally-minimal edge per round instead of one rate level,
with every round a handful of array operations over the flow x edge
incidence instead of Python dict walks.  Rates are computed directly,
not accumulated level by level, so they are not bit-for-bit equal to
the legacy loop: the test suite checks every allocation for feasibility
and a max-min certificate (each served flow crosses a saturated edge on
which its rate is the largest) and compares against the legacy oracle,
which stays in the tree for that purpose, to 1e-12 relative.

Flows marked unreachable in the :class:`~repro.traffic.routes.RouteSet`
allocate at rate 0.0 and are excluded from the fairness statistics —
under a degraded network, lost flows are reported, not crashed on.

FCT comes from the fluid trajectory: re-solve max-min over the still
active flows, advance to the next completion instant, retire, repeat.
With structured matrices the number of distinct completion instants is
small, so the loop runs a handful of solves even at 10^5 flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.topology.compiled import HAVE_NUMPY

if HAVE_NUMPY:
    import numpy as _np

#: remaining size at or below which :func:`fluid_fct` retires a flow.
SATURATION_EPS = 1e-12


@dataclass(frozen=True)
class TrafficAllocation:
    """Max-min fair outcome for one RouteSet, batch form.

    Attributes:
        rates: float64 rate per flow (0.0 for unreachable flows).
        bottleneck_edges: saturating edge id per flow, route order,
            -1 for unreachable (or uncapped) flows.
        unreachable: per-flow bool, copied from the RouteSet.
        rounds: batched filling rounds (each freezes every flow on a
            locally-minimal edge, so there are at most as many rounds as
            served flows and usually far fewer than rate levels).
    """

    rates: Any
    bottleneck_edges: Any
    unreachable: Any
    rounds: int

    @property
    def num_flows(self) -> int:
        return len(self.rates)

    @property
    def num_unreachable(self) -> int:
        return int(_np.count_nonzero(self.unreachable))

    def _served(self):
        return self.rates[~self.unreachable]

    @property
    def aggregate_throughput(self) -> float:
        return float(self._served().sum())

    @property
    def min_rate(self) -> float:
        served = self._served()
        return float(served.min()) if served.size else 0.0

    @property
    def max_rate(self) -> float:
        served = self._served()
        return float(served.max()) if served.size else 0.0

    @property
    def mean_rate(self) -> float:
        served = self._served()
        return float(served.mean()) if served.size else 0.0

    @property
    def jain_fairness(self) -> float:
        """Jain's index over served flows, clamped into [0, 1]."""
        served = self._served()
        if not served.size:
            return 0.0
        square_of_sum = float(served.sum()) ** 2
        sum_of_squares = float((served * served).sum())
        return min(square_of_sum / (served.size * sum_of_squares), 1.0)

    def rate_percentiles(self, qs: Sequence[float] = (0.01, 0.50, 0.99)):
        """Nearest-rank percentiles of the served rate distribution."""
        served = _np.sort(self._served())
        if not served.size:
            return {q: 0.0 for q in qs}
        ranks = [min(max(math.ceil(q * served.size) - 1, 0), served.size - 1) for q in qs]
        return {q: float(served[r]) for q, r in zip(qs, ranks)}


def max_min_rates(routes, active: Optional[Any] = None) -> TrafficAllocation:
    """Exact max-min fair rates for a RouteSet, many levels per round.

    Args:
        routes: the flow x edge incidence.
        active: optional per-flow bool — flows outside the mask get
            rate 0.0 and consume no capacity (the FCT loop's retired
            flows).

    Each round computes, per loaded edge, its fair share
    ``L_e = residual_e / crossings_e`` (crossings with multiplicity) and,
    per active flow, ``m_f = min L_e`` over its route.  An edge is a
    *local minimum* when ``L_e`` equals the smallest ``m_f`` among the
    flows crossing it, i.e. when no flow crossing it has ``m_f < L_e``
    — exact comparisons, since every ``m_f`` is a copy of some ``L_e``.
    Every flow crossing a local-minimum edge freezes at its ``m_f`` in
    the same round, and one ``bincount`` over the frozen flows'
    incidence drains residuals and crossing counts.  Freezing only
    ever raises the other edges' ``L_e``, so a local-minimum edge
    saturates at exactly its ``L_e``; the global minimum is always a
    local one, so ``rounds <= flows``.

    Rates are computed directly rather than accumulated increment by
    increment, so they agree with the :mod:`repro.sim.flow` oracle to
    ~1e-14 relative, not bit for bit; the tests check every allocation
    against a feasibility bound and a max-min certificate instead.
    One round costs a few passes over the still-active flow-major
    incidence, which is compacted as flows freeze.
    """
    np = _np
    num_flows = routes.num_flows
    rates = np.zeros(num_flows, dtype=np.float64)
    bottlenecks = np.full(num_flows, -1, dtype=np.int64)
    unreachable = np.asarray(routes.unreachable, dtype=bool)

    flow_active = ~unreachable
    if active is not None:
        flow_active = flow_active & np.asarray(active, dtype=bool)
    hops = np.diff(np.asarray(routes.offsets, dtype=np.int64))
    # A zero-hop flow meets no capacity constraint: rate = inf, like the
    # legacy guard.
    rates[flow_active & (hops == 0)] = math.inf
    loaded = flow_active & (hops > 0)
    flow_ids = np.flatnonzero(loaded)
    flow_len = hops[flow_ids]
    inc_edge = np.asarray(routes.edge_ids)
    if flow_ids.size < num_flows:
        inc_edge = inc_edge[np.repeat(loaded, hops)]
    # Renumber the loaded edges densely (int32 when the incidence
    # allows), so per-round edge arrays scale with the active flows,
    # not the graph.
    counts = np.bincount(inc_edge, minlength=routes.num_edges)
    edge_ids = np.flatnonzero(counts)
    index = np.int32 if inc_edge.size < 2**31 else np.int64
    inc_edge = (np.cumsum(counts > 0, dtype=index) - 1)[inc_edge]
    # float crossing counts: exact, and a drained edge's inf keeps its
    # (never gathered) level finite without a division warning.
    edge_len = counts[edge_ids].astype(np.float64)
    residual = routes.capacities()[edge_ids]
    level = np.empty(edge_ids.size, dtype=np.float64)
    tight = np.empty(edge_ids.size, dtype=bool)
    # per-entry buffers, sliced to the live incidence every round
    gathered = np.empty(inc_edge.size, dtype=np.float64)
    slack_buf = np.empty(inc_edge.size, dtype=bool)
    starts = np.zeros(flow_ids.size, dtype=np.int64)

    rounds = 0
    while flow_ids.size:
        rounds += 1
        if rounds > num_flows:  # pragma: no cover - every round freezes a flow
            raise RuntimeError("max-min filling failed to converge")
        live = inc_edge.size
        np.divide(residual, edge_len, out=level)
        # indices are in range by construction; "clip" skips the check
        share = np.take(level, inc_edge, out=gathered[:live], mode="clip")
        flow_start = starts[: flow_ids.size]
        np.cumsum(flow_len[:-1], out=flow_start[1:])
        flow_min = np.minimum.reduceat(share, flow_start)
        # An edge is a local minimum unless some flow crossing it is
        # held lower elsewhere.
        slack = np.less(np.repeat(flow_min, flow_len), share, out=slack_buf[:live])
        tight.fill(True)
        tight[inc_edge[slack]] = False
        hits = np.flatnonzero(tight[inc_edge])
        # Each frozen flow's first hit, in route order, is its bottleneck.
        owner = np.searchsorted(flow_start, hits, side="right") - 1
        first = np.ones(hits.size, dtype=bool)
        first[1:] = owner[1:] != owner[:-1]
        frozen = owner[first]
        rates[flow_ids[frozen]] = flow_min[frozen]
        bottlenecks[flow_ids[frozen]] = edge_ids[inc_edge[hits[first]]]

        gone = np.zeros(flow_ids.size, dtype=bool)
        gone[frozen] = True
        gone_entries = np.repeat(gone, flow_len)
        drained = inc_edge[gone_entries]
        residual -= np.bincount(
            drained,
            weights=np.repeat(flow_min[frozen], flow_len[frozen]),
            minlength=edge_ids.size,
        )
        edge_len -= np.bincount(drained, minlength=edge_ids.size)
        edge_len[edge_len == 0] = math.inf
        flow_ids = flow_ids[~gone]
        flow_len = flow_len[~gone]
        inc_edge = inc_edge[~gone_entries]

    return TrafficAllocation(
        rates=rates,
        bottleneck_edges=bottlenecks,
        unreachable=unreachable,
        rounds=rounds,
    )


@dataclass(frozen=True)
class FctStats:
    """Flow-completion-time distribution from the fluid trajectory."""

    completion_times: Any  # float64 per flow; inf for unreachable flows
    solves: int

    @property
    def num_completed(self) -> int:
        return int(_np.count_nonzero(_np.isfinite(self.completion_times)))

    def _finite(self):
        times = _np.asarray(self.completion_times)
        return _np.sort(times[_np.isfinite(times)])

    @property
    def mean_fct(self) -> float:
        finite = self._finite()
        return float(finite.mean()) if finite.size else 0.0

    @property
    def max_fct(self) -> float:
        finite = self._finite()
        return float(finite[-1]) if finite.size else 0.0

    def percentile(self, q: float) -> float:
        finite = self._finite()
        if not finite.size:
            return 0.0
        rank = min(max(math.ceil(q * finite.size) - 1, 0), finite.size - 1)
        return float(finite[rank])

    def summary(self) -> Dict[str, float]:
        return {
            "mean_fct": self.mean_fct,
            "p50_fct": self.percentile(0.50),
            "p95_fct": self.percentile(0.95),
            "p99_fct": self.percentile(0.99),
            "max_fct": self.max_fct,
        }


def fluid_fct(routes, sizes, max_solves: Optional[int] = None) -> FctStats:
    """Fluid-model completion times: re-solve, advance, retire.

    All flows start at time zero (the matrices are static snapshots);
    arrivals belong to the event-driven :mod:`repro.sim.fct`, which
    remains the small-scale oracle for that regime.
    """
    np = _np
    sizes = np.asarray(sizes, dtype=np.float64)
    if len(sizes) != routes.num_flows:
        raise ValueError("sizes must have one entry per flow")
    remaining = sizes.copy()
    finish = np.full(routes.num_flows, math.inf, dtype=np.float64)
    active = ~np.asarray(routes.unreachable, dtype=bool)
    now = 0.0
    solves = 0
    limit = routes.num_flows if max_solves is None else max_solves
    while bool(active.any()) and solves < limit + 1:
        allocation = max_min_rates(routes, active=active)
        solves += 1
        rates = allocation.rates
        positive = active & (rates > 0.0)
        if not bool(positive.any()):  # pragma: no cover - invariant
            break
        dt = float((remaining[positive] / rates[positive]).min())
        now += dt
        remaining[positive] -= rates[positive] * dt
        done = positive & (remaining <= SATURATION_EPS)
        finish[done] = now
        active &= ~done
    return FctStats(completion_times=finish, solves=solves)
