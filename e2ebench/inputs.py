"""Seeded inputs: every per-trial seed and every request derives from
the benchmark's ``--seed`` through the benchmark's own hashing, so the
same seed gives byte-identical inputs whatever the program changes."""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

import numpy as np


def child(seed: int, *labels: object) -> int:
    """A 63-bit seed for one (seed, label path)."""
    text = "|".join([str(int(seed))] + [str(label) for label in labels])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big") >> 1


def rng(seed: int, *labels: object) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(child(seed, *labels)))


# ----------------------------------------------------------------------
# serve request stream
# ----------------------------------------------------------------------
#: request kinds.  ``scenario`` is a route under one of a few reused
#: failure scenarios (scenario-cache hits); ``whatif`` names fresh
#: failures every time (cache misses).  Nothing in the repository records
#: what mix operators send, so the kinds have equal shares: every
#: per-kind p50 of the traced run rests on the same number of samples,
#: and no kind is chosen to dominate the latency.
KINDS: Tuple[str, ...] = ("route", "distance", "scenario", "whatif")
#: reused scenarios: far below the daemon's default ``--scenario-cache``
#: of 64, so after its first use each one is a cache hit.
SCENARIO_POOL = 4
#: dead components per scenario or what-if: a few of every kind, so each
#: request masks servers, switches and links alike.
DEAD_SERVERS = 8
DEAD_SWITCHES = 4
DEAD_LINKS = 2
#: pairs a what-if samples: the protocol's and ``ServeClient.whatif``'s
#: default ``sample_pairs``.
WHATIF_PAIRS = 200

#: one request: (kind, op, params) — params are what the client sends.
Request = Tuple[str, str, Dict[str, Any]]


def _failures(graph, gen: np.random.Generator) -> Dict[str, Any]:
    names = graph.names
    servers = np.asarray(graph.server_indices, dtype=np.int64)
    is_server = np.zeros(graph.num_nodes, dtype=bool)
    is_server[servers] = True
    switches = np.flatnonzero(~is_server)
    edges = gen.choice(len(graph.edge_u), DEAD_LINKS, replace=False)
    return {
        "dead_servers": [names[int(i)] for i in gen.choice(servers, DEAD_SERVERS, replace=False)],
        "dead_switches": [
            names[int(i)] for i in gen.choice(switches, DEAD_SWITCHES, replace=False)
        ],
        "dead_links": [
            [names[int(graph.edge_u[int(e)])], names[int(graph.edge_v[int(e)])]] for e in edges
        ],
    }


def request_stream(graph, seed: int, count: int) -> List[Request]:
    """``count`` requests drawn from ``seed``.

    Each block of four consecutive requests holds every kind once, in a
    random order, so every run and every prefix of it (the open loop)
    has the same mix, give or take one request per kind.
    """
    num_servers = len(graph.server_indices)
    pool_gen = rng(seed, "serve", "pool")
    pool = [_failures(graph, pool_gen) for _ in range(SCENARIO_POOL)]
    gen = rng(seed, "serve", "stream")
    blocks = np.tile(np.arange(len(KINDS)), (-(-count // len(KINDS)), 1))
    picks = gen.permuted(blocks, axis=1).ravel()[:count]
    stream: List[Request] = []
    for i, pick in enumerate(picks):
        kind = KINDS[int(pick)]
        if kind == "whatif":
            params = _failures(graph, gen)
            params.update(sample_pairs=WHATIF_PAIRS, seed=i)
            stream.append((kind, "whatif", params))
            continue
        src, dst = (int(x) for x in gen.choice(num_servers, 2, replace=False))
        params = {"src": str(src), "dst": str(dst)}
        if kind == "scenario":
            params["scenario"] = pool[int(gen.integers(SCENARIO_POOL))]
        stream.append((kind, "distance" if kind == "distance" else "route", params))
    return stream
