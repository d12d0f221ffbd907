"""Batch route extraction on the CSR kernel.

Two batch routers feed the :mod:`repro.traffic` engine:

* :func:`abccc_batch_routes` — the paper's digit-correction algorithm
  (:func:`repro.core.routing.abccc_route`, locality order) computed for
  *every flow at once* as numpy digit arithmetic on a fast-built ABCCC
  layout.  No node names, no per-flow Python: edge ids come straight
  from the closed forms :func:`repro.topology.fastbuild._generate_edges`
  lays the edge arrays out with, so a 163k-server permutation routes in
  milliseconds.  Route-for-route identical to the per-flow oracle (the
  tests assert edge-sequence equality).
* :func:`bfs_batch_routes` — shortest paths for all flows from one
  level-synchronous *multi-source* BFS: the distinct destinations are
  the sources, bit-packed 64 per uint64 word
  (:class:`repro.metrics.engine.BitExpander`), and every flow then
  walks forward from ``src`` at once, each step to the lowest-indexed
  neighbor one BFS level closer to ``dst``.  (The serve engine's
  :func:`repro.serve.engine._path_nodes` runs its BFS from ``src`` and
  walks back from ``dst`` instead, so the two may pick different
  equal-length paths.)  Works on any compiled graph or alive-only
  masked view; unreachable flows come back as empty routes with the
  unreachable bit set, never exceptions.

:func:`batch_routes` dispatches: arithmetic routing when the graph is a
fast-built ABCCC, BFS otherwise — and under a
:class:`~repro.faults.mask.MaskedGraph` it routes arithmetically first,
then repairs only the flows whose healthy route touches a dead
node/edge by the multi-source BFS on the surviving subgraph (the common
case after a small fault draw is that most routes survive untouched).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.metrics.engine import BitExpander, bitpack_block
from repro.obs import trace as _obs
from repro.topology.compiled import HAVE_NUMPY
from repro.traffic.routes import RouteSet, RouteSetError, edge_id_array

if HAVE_NUMPY:
    import numpy as _np


class BatchRoutingError(ValueError):
    """Raised when a batch router cannot serve the requested graph."""


# ----------------------------------------------------------------------
# vectorized ABCCC digit correction
# ----------------------------------------------------------------------
def _is_fast_abccc(graph) -> bool:
    layout = getattr(graph, "layout", None)
    return layout is not None and getattr(layout, "family", None) == "abccc"


def _rest_weight_table(n: int, k: int):
    """``W[l, q]`` = weight of digit position ``q`` in the rest-rank of
    the level-``l`` switch (0 at ``q == l``).

    Mirrors ``_generate_edges``: rest position ``p`` maps to digit
    position ``q = p`` below ``l`` and ``q = p + 1`` above, with
    MSB-first weights ``n^(k-1-p)``.
    """
    levels = k + 1
    table = _np.zeros((levels, levels), dtype=_np.int64)
    for l in range(levels):
        for q in range(levels):
            if q < l:
                table[l, q] = n ** (k - 1 - q)
            elif q > l:
                table[l, q] = n ** (k - q)
    return table


def _abccc_edge_buffer(layout, src_ordinals, dst_ordinals):
    """Per-flow edge-id walks as a padded buffer.

    Returns ``(buf, counts)``: ``buf[f, :counts[f]]`` is flow ``f``'s
    undirected edge-id sequence in route order.  Pure digit arithmetic —
    replays :func:`repro.core.routing.route_with_order` with the
    locality order, one vectorized pass per correction slot.
    """
    np = _np
    n, k, s = layout.n, layout.k, layout.s
    levels = k + 1
    c = layout.crossbar_size
    C = layout.num_crossbars
    has_csw = layout.has_crossbar_switch
    cb_edges = C * c if has_csw else 0  # level links start after these

    src = np.asarray(src_ordinals, dtype=np.int64)
    dst = np.asarray(dst_ordinals, dtype=np.int64)
    num_flows = len(src)
    s_enum, s_idx = src // c, src % c
    d_enum, d_idx = dst // c, dst % c

    # LSB-first digit matrices: ABCCC enumerates crossbars in rank order.
    pw = n ** np.arange(levels, dtype=np.int64)
    sd = (s_enum[:, None] // pw[None, :]) % n
    dd = (d_enum[:, None] // pw[None, :]) % n
    owner_vec = np.arange(levels, dtype=np.int64) // (s - 1)

    differ = sd != dd
    ndiff = differ.sum(axis=1)

    # Locality order as one argsort: rank 0 = source server's own owner
    # group, c+2 = destination's, owner+1 in between (middle groups by
    # ascending owner, levels ascending inside each group) — exactly
    # repro.core.permutation._locality_sequence.
    owner_row = owner_vec[None, :]
    first_present = (differ & (owner_row == s_idx[:, None])).any(axis=1)
    dst_present = (differ & (owner_row == d_idx[:, None])).any(axis=1)
    last_used = dst_present & ~(first_present & (d_idx == s_idx))
    is_first = differ & first_present[:, None] & (owner_row == s_idx[:, None])
    is_last = (
        differ & last_used[:, None] & (owner_row == d_idx[:, None]) & ~is_first
    )
    rank = np.where(is_first, 0, np.where(is_last, c + 2, owner_row + 1))
    key = np.where(differ, rank * (levels + 1) + np.arange(levels)[None, :], 2**40)
    order = np.argsort(key, axis=1, kind="stable")

    max_edges = 4 * levels + 2
    buf = np.empty((num_flows, max_edges), dtype=np.int64)
    cursor = np.zeros(num_flows, dtype=np.int64)

    def append(rows, values) -> None:
        buf[rows, cursor[rows]] = values
        cursor[rows] += 1

    cur_idx = s_idx.copy()
    cur_d = sd.copy()
    cur_enum = s_enum.copy()
    weight_table = _rest_weight_table(n, k)

    for slot in range(levels):
        rows = np.flatnonzero(ndiff > slot)
        if rows.size == 0:
            break
        level = order[rows, slot]
        owner = owner_vec[level]
        # transfer to the owning server of this level, if not there
        need = cur_idx[rows] != owner
        trows, towner = rows[need], owner[need]
        if trows.size:
            base = cur_enum[trows] * c
            append(trows, base + cur_idx[trows])
            append(trows, base + towner)
            cur_idx[trows] = towner
        # correct the digit through the level switch: two level links
        # sharing the switch's (level, rest-rank) slot group
        rest_rank = (cur_d[rows] * weight_table[level]).sum(axis=1)
        base = cb_edges + level * C + rest_rank * n
        old_digit = cur_d[rows, level]
        new_digit = dd[rows, level]
        append(rows, base + old_digit)
        append(rows, base + new_digit)
        cur_enum[rows] += (new_digit - old_digit) * pw[level]
        cur_d[rows, level] = new_digit

    # final transfer to the destination server's in-crossbar slot
    rows = np.flatnonzero(cur_idx != d_idx)
    if rows.size:
        base = cur_enum[rows] * c
        append(rows, base + cur_idx[rows])
        append(rows, base + d_idx[rows])
    return buf, cursor


def _buffer_to_routeset(graph, buf, counts, src_nodes, dst_nodes) -> RouteSet:
    offsets = _np.zeros(len(counts) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=offsets[1:])
    mask = _np.arange(buf.shape[1])[None, :] < counts[:, None]
    return RouteSet.from_edge_arrays(
        graph, src_nodes, dst_nodes, buf[mask], offsets
    )


def abccc_batch_routes(graph, src_ordinals, dst_ordinals) -> RouteSet:
    """Locality-order digit-correction routes for all flows at once.

    ``src_ordinals`` / ``dst_ordinals`` are server ordinals (positions in
    ``graph.server_indices``).  ``graph`` must be a fast-built ABCCC.
    """
    if not _is_fast_abccc(graph):
        raise BatchRoutingError(
            "arithmetic batch routing needs a fast-built ABCCC graph; "
            "use bfs_batch_routes for other graphs"
        )
    layout = graph.layout
    buf, counts = _abccc_edge_buffer(layout, src_ordinals, dst_ordinals)
    servers = _np.asarray(graph.server_indices, dtype=_np.int64)
    return _buffer_to_routeset(
        graph,
        buf,
        counts,
        servers[_np.asarray(src_ordinals, dtype=_np.int64)],
        servers[_np.asarray(dst_ordinals, dtype=_np.int64)],
    )


# ----------------------------------------------------------------------
# multi-source BFS: every destination at once, every flow walked at once
# ----------------------------------------------------------------------
#: (nodes x words) bit matrices a repair block keeps per word column:
#: three distance-mod-3 planes, the frontier, the next level and the
#: unvisited mask (``bitpack_block`` adds the gather buffer).
_REPAIR_NODE_PLANES = 6


def _block_bfs(expander, num_nodes: int, block_dsts, flow_src, flow_word, flow_bit):
    """Bit-packed BFS from ``block_dsts`` (64 per uint64 word).

    Returns ``(planes, hops, levels)``: ``planes[r]`` has bit ``j`` of
    node ``v`` set iff ``dist(block_dsts[j], v) % 3 == r``; ``hops[f]``
    is the distance from flow ``f``'s destination (the bit
    ``flow_bit[f]`` of word ``flow_word[f]``) to ``flow_src[f]``, -1 if
    unreachable; ``levels`` counts expansions.

    Residues suffice because the graph is undirected: a neighbor of a
    node at distance ``t`` sits at ``t - 1``, ``t`` or ``t + 1``, three
    different residues, so the level-``(t-1)`` test of the backtrack
    is a residue test and the storage does not grow with the diameter.
    The union of the planes is the visited set.  The search stops once
    every flow's source is reached.
    """
    np = _np
    width = len(block_dsts)
    cols = np.arange(width, dtype=np.int64)
    planes = np.zeros((3, num_nodes, (width + 63) // 64), dtype=np.uint64)
    planes[0, block_dsts, cols >> 6] = np.uint64(1) << (cols & 63).astype(np.uint64)
    hops = np.full(len(flow_src), -1, dtype=np.int64)
    pending = np.arange(len(flow_src), dtype=np.int64)
    frontier = planes[0]
    level = 0
    while True:
        found = (frontier[flow_src[pending], flow_word[pending]] & flow_bit[pending]) != 0
        hops[pending[found]] = level
        pending = pending[~found]
        if pending.size == 0:
            break
        level += 1
        nxt = expander.expand(frontier)
        unseen = planes[0] | planes[1]
        unseen |= planes[2]
        nxt &= np.invert(unseen, out=unseen)
        if not nxt.any():
            break
        planes[level % 3] |= nxt
        frontier = nxt
    return planes, hops, level


def _block_walks(offsets, neighbors, planes, hops, flow_src, flow_word, flow_bit):
    """Walk every reachable flow of a block forward at once.

    Returns ``(rows, walks)``: ``walks[i, :hops[rows[i]] + 1]`` is flow
    ``rows[i]``'s node path, ``rows`` ordered longest path first so the
    flows still walking at step ``t`` are a prefix.  At each step every
    walking flow gathers its current node's CSR neighbors, keeps those
    one level closer to its destination (residue bit set) and moves to
    the lowest-indexed one (``minimum.reduceat``).
    """
    np = _np
    reach = np.flatnonzero(hops > 0)
    rows = reach[np.argsort(-hops[reach], kind="stable")]
    lengths = hops[rows]
    longest = int(lengths[0]) if rows.size else 0
    walks = np.full((rows.size, longest + 1), -1, dtype=np.int64)
    current = flow_src[rows]
    walks[:, 0] = current
    word, bit = flow_word[rows], flow_bit[rows]
    num_nodes = planes.shape[1]
    walking = rows.size
    for step in range(longest):
        walking = int(np.count_nonzero(lengths[:walking] > step))
        here = current[:walking]
        starts = offsets[here]
        degree = offsets[here + 1] - starts
        seg = np.zeros(walking, dtype=np.int64)
        np.cumsum(degree[:-1], out=seg[1:])
        candidates = neighbors[
            np.arange(int(seg[-1] + degree[-1]), dtype=np.int64)
            + np.repeat(starts - seg, degree)
        ]
        residue = np.repeat((lengths[:walking] - 1 - step) % 3, degree)
        closer = (
            planes[residue, candidates, np.repeat(word[:walking], degree)]
            & np.repeat(bit[:walking], degree)
        ) != 0
        nxt = np.minimum.reduceat(np.where(closer, candidates, num_nodes), seg)
        if bool((nxt == num_nodes).any()):  # pragma: no cover - BFS invariant
            raise BatchRoutingError("BFS backtrack found no predecessor")
        current[:walking] = nxt
        walks[:walking, step + 1] = nxt
    return rows, walks


def _bfs_walks(view, src_nodes, dst_nodes):
    """Shortest walks for every flow from one multi-source BFS.

    Returns ``(hops, walks)``: ``hops[f]`` is the hop distance of flow
    ``f`` (-1 = unreachable) and ``walks[f, :hops[f] + 1]`` its node
    path, ``src`` first (padding is -1).  The distinct destinations are
    BFS sources, 64 per uint64 word, in blocks sized by the sweep
    engine's memory budget (:func:`repro.metrics.engine.bitpack_block`).
    Each path walks forward from ``src`` to the lowest-indexed neighbor
    one BFS level closer to ``dst`` (see :func:`bfs_node_paths`).
    """
    np = _np
    src_nodes = np.asarray(src_nodes, dtype=np.int64)
    dst_nodes = np.asarray(dst_nodes, dtype=np.int64)
    num_flows = len(src_nodes)
    expander = BitExpander(view)
    num_nodes = int(view.num_nodes)
    offsets = np.asarray(view.offsets, dtype=np.int64)
    dsts, inverse = np.unique(dst_nodes, return_inverse=True)
    inverse = inverse.reshape(-1)
    by_dst = np.argsort(inverse, kind="stable")
    block = bitpack_block(num_nodes, expander.entries, _REPAIR_NODE_PLANES)
    bounds = np.searchsorted(inverse[by_dst], np.arange(0, len(dsts) + block, block))
    hops = np.full(num_flows, -1, dtype=np.int64)
    pieces = []
    levels = 0
    for which, lo in enumerate(range(0, len(dsts), block)):
        flows = by_dst[bounds[which] : bounds[which + 1]]
        cols = inverse[flows] - lo
        flow_src, flow_word = src_nodes[flows], cols >> 6
        flow_bit = np.uint64(1) << (cols & 63).astype(np.uint64)
        planes, block_hops, block_levels = _block_bfs(
            expander, num_nodes, dsts[lo : lo + block], flow_src, flow_word, flow_bit
        )
        levels += block_levels
        hops[flows] = block_hops
        rows, walks = _block_walks(
            offsets, expander.neighbors, planes, block_hops,
            flow_src, flow_word, flow_bit,
        )
        pieces.append((flows[rows], walks))
    _obs.counter("routes.repair_flows", num_flows)
    _obs.counter("routes.repair_sources", len(dsts))
    _obs.counter("routes.bfs_levels", levels)
    longest = max((walks.shape[1] for _, walks in pieces), default=1)
    out = np.full((num_flows, longest), -1, dtype=np.int64)
    out[:, 0] = src_nodes
    for flows, walks in pieces:
        out[flows, : walks.shape[1]] = walks
    return hops, out


def _walk_edge_ids(graph, hops, walks):
    """``(edge_ids, offsets)`` of padded walks, one ``edge_id_array`` call."""
    counts = _np.maximum(hops, 0)
    offsets = _np.zeros(len(counts) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=offsets[1:])
    hop = _np.arange(walks.shape[1] - 1)[None, :] < counts[:, None]
    if not bool(hop.any()):
        return _np.empty(0, dtype=_np.int64), offsets
    return edge_id_array(graph, walks[:, :-1][hop], walks[:, 1:][hop]), offsets


def bfs_node_paths(
    view, src_nodes, dst_nodes
) -> List[Optional[List[int]]]:
    """Shortest node paths per flow; ``None`` where unreachable.

    The contract: BFS from ``dst``, then walk forward from ``src``,
    stepping each time to the lowest-indexed neighbor one level closer
    to ``dst``.  (The serve engine's ``_path_nodes`` mirrors it — BFS
    from ``src``, walk back from ``dst`` — so the two may pick
    different paths of the same length.)  All flows share one
    bit-packed multi-source BFS from their distinct destinations.
    """
    hops, walks = _bfs_walks(view, src_nodes, dst_nodes)
    return [
        None if h < 0 else row[: h + 1].tolist()
        for h, row in zip(hops.tolist(), walks)
    ]


def bfs_batch_routes(graph, src_nodes, dst_nodes, view=None) -> RouteSet:
    """Shortest-path :class:`RouteSet` via the multi-source BFS.

    ``view`` (e.g. a masked graph's ``sweep_view()``) carries the
    adjacency to search; edge ids always resolve against ``graph``, so
    a degraded route still indexes the parent capacity arrays.  Paths
    follow the :func:`bfs_node_paths` contract.
    """
    src_nodes = _np.asarray(src_nodes, dtype=_np.int64)
    dst_nodes = _np.asarray(dst_nodes, dtype=_np.int64)
    hops, walks = _bfs_walks(
        view if view is not None else graph, src_nodes, dst_nodes
    )
    if bool((hops == 0).any()):
        flow = int(_np.flatnonzero(hops == 0)[0])
        raise RouteSetError(f"path for flow {flow} has fewer than two nodes")
    edge_ids, offsets = _walk_edge_ids(graph, hops, walks)
    return RouteSet.from_edge_arrays(
        graph, src_nodes, dst_nodes, edge_ids, offsets, hops < 0
    )


# ----------------------------------------------------------------------
# dispatch, healthy or degraded
# ----------------------------------------------------------------------
def _edge_alive(graph, masked):
    """Per-edge-id survival under a mask: both endpoints alive and the
    edge not explicitly failed."""
    node_alive = _np.asarray(masked.node_alive, dtype=bool)
    edge_u = _np.asarray(graph.edge_u, dtype=_np.int64)
    edge_v = _np.asarray(graph.edge_v, dtype=_np.int64)
    alive = node_alive[edge_u] & node_alive[edge_v]
    dead_edges = getattr(masked, "dead_edge_ids", None)
    if dead_edges is not None and len(dead_edges):
        alive[_np.asarray(dead_edges, dtype=_np.int64)] = False
    return alive


def _scatter_segments(dst_flat, dst_offsets, rows, seg_flat, seg_offsets) -> None:
    """Copy ragged segments into their destination rows, vectorized."""
    counts = _np.diff(seg_offsets)
    total = int(counts.sum())
    if total == 0:
        return
    local = _np.arange(total, dtype=_np.int64) - _np.repeat(
        seg_offsets[:-1], counts
    )
    dst_idx = local + _np.repeat(dst_offsets[rows], counts)
    src_idx = local + _np.repeat(seg_offsets[:-1], counts)
    dst_flat[dst_idx] = seg_flat[src_idx]


def batch_routes(graph, matrix, masked=None) -> RouteSet:
    """Routes for a :class:`~repro.traffic.matrix.TrafficMatrix`.

    Healthy fast-built ABCCC: pure arithmetic.  Degraded ABCCC:
    arithmetic first, then multi-source BFS repair of only the flows
    whose route died.  Everything else: multi-source BFS (on the masked
    sweep view when degraded).  Every BFS-routed call bumps the
    ``routes.repair_flows`` / ``routes.repair_sources`` /
    ``routes.bfs_levels`` trace counters.
    """
    servers = _np.asarray(graph.server_indices, dtype=_np.int64)
    src_ord = _np.asarray(matrix.src, dtype=_np.int64)
    dst_ord = _np.asarray(matrix.dst, dtype=_np.int64)
    if src_ord.size and (
        int(src_ord.max()) >= len(servers) or int(dst_ord.max()) >= len(servers)
    ):
        raise BatchRoutingError(
            f"matrix is over {matrix.num_servers} servers but the graph has "
            f"{len(servers)}"
        )
    src_nodes, dst_nodes = servers[src_ord], servers[dst_ord]

    if not _is_fast_abccc(graph):
        view = masked.sweep_view() if masked is not None else graph
        routes = bfs_batch_routes(graph, src_nodes, dst_nodes, view=view)
        if masked is not None:
            routes = _mask_endpoints(routes, masked)
        return routes

    buf, counts = _abccc_edge_buffer(graph.layout, src_ord, dst_ord)
    if masked is None:
        return _buffer_to_routeset(graph, buf, counts, src_nodes, dst_nodes)

    # degraded: keep surviving arithmetic routes, BFS-repair the rest
    np = _np
    edge_alive = _edge_alive(graph, masked)
    node_alive = np.asarray(masked.node_alive, dtype=bool)
    in_range = np.arange(buf.shape[1])[None, :] < counts[:, None]
    dead_hop = in_range & ~edge_alive[np.where(in_range, buf, 0)]
    endpoint_dead = ~node_alive[src_nodes] | ~node_alive[dst_nodes]
    broken = dead_hop.any(axis=1) & ~endpoint_dead
    unreachable = endpoint_dead.copy()

    new_counts = counts.copy()
    repaired_rows = np.flatnonzero(broken)
    seg_flat = np.empty(0, dtype=np.int64)
    seg_offsets = np.zeros(1, dtype=np.int64)
    if repaired_rows.size:
        hops, walks = _bfs_walks(
            masked.sweep_view(), src_nodes[repaired_rows], dst_nodes[repaired_rows]
        )
        seg_flat, seg_offsets = _walk_edge_ids(graph, hops, walks)
        new_counts[repaired_rows] = np.maximum(hops, 0)
        unreachable[repaired_rows] = hops < 0
    new_counts[endpoint_dead] = 0

    offsets = np.zeros(len(new_counts) + 1, dtype=np.int64)
    np.cumsum(new_counts, out=offsets[1:])
    edge_ids = np.empty(int(offsets[-1]), dtype=np.int64)
    keep_rows = np.flatnonzero(~broken & ~endpoint_dead)
    healthy_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=healthy_offsets[1:])
    healthy_flat = buf[in_range]
    if keep_rows.size:
        seg = _ragged_take(healthy_flat, healthy_offsets, keep_rows)
        _scatter_segments(edge_ids, offsets, keep_rows, seg[0], seg[1])
    if repaired_rows.size:
        _scatter_segments(edge_ids, offsets, repaired_rows, seg_flat, seg_offsets)
    return RouteSet.from_edge_arrays(
        graph, src_nodes, dst_nodes, edge_ids, offsets, unreachable
    )


def _ragged_take(flat, offsets, rows) -> Tuple[Sequence[int], Sequence[int]]:
    """``(segments, segment_offsets)`` of ``rows``' slices of a ragged array."""
    counts = offsets[rows + 1] - offsets[rows]
    out_offsets = _np.zeros(len(rows) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=out_offsets[1:])
    total = int(out_offsets[-1])
    idx = (
        _np.arange(total, dtype=_np.int64)
        - _np.repeat(out_offsets[:-1], counts)
        + _np.repeat(offsets[rows], counts)
    )
    return flat[idx], out_offsets


def _mask_endpoints(routes: RouteSet, masked) -> RouteSet:
    """Mark flows with a dead endpoint unreachable (BFS already returns
    empty paths for them when the view dropped the node's entries, but a
    dead *isolated-yet-present* endpoint must not route to itself)."""
    node_alive = _np.asarray(masked.node_alive, dtype=bool)
    endpoint_dead = (
        ~node_alive[_np.asarray(routes.src_nodes, dtype=_np.int64)]
        | ~node_alive[_np.asarray(routes.dst_nodes, dtype=_np.int64)]
    )
    if not bool(endpoint_dead.any()):
        return routes
    counts = _np.asarray(routes.hop_counts).copy()
    counts[endpoint_dead] = 0
    offsets = _np.zeros(len(counts) + 1, dtype=_np.int64)
    _np.cumsum(counts, out=offsets[1:])
    keep = _np.repeat(~endpoint_dead, routes.hop_counts)
    return RouteSet.from_edge_arrays(
        routes.graph,
        routes.src_nodes,
        routes.dst_nodes,
        _np.asarray(routes.edge_ids)[keep],
        offsets,
        _np.asarray(routes.unreachable) | endpoint_dead,
    )
