"""Micro-benchmarks: the vectorized traffic engine vs the legacy path.

Two uses:

* under pytest-benchmark (``pytest benchmarks/bench_micro_traffic.py``)
  the individual timers guard matrix generation, batch route extraction
  and the max-min filler against regressions;
* as a script (``python benchmarks/bench_micro_traffic.py [--quick]``)
  it measures, per instance:

  - **legacy vs engine**: the full permutation pipeline (workload ->
    routes -> max-min rates) through the name-dict ``repro.sim.flow``
    oracle and through ``repro.traffic`` on the same fast-built graph —
    ``engine_speedup`` is the legacy/engine ratio at the largest scale
    the legacy path can still finish (the acceptance bar is >= 10x);
  - **degraded routing**: a permutation with 1 % of servers, switches
    and links failed, where ``batch_routes`` keeps the surviving
    arithmetic routes and repairs the broken ones by the multi-source
    BFS — ``routes_s`` is the repair's before/after row;
  - **engine at scale**: the 163k-server permutation and incast that
    the ``traffic-smoke`` CI job budgets (legacy is not attempted
    there — that is the point of the engine).

  Every timing of the legacy-vs-engine and degraded rows is the median
  of :data:`REPEATS` rounds that each run every case once (see
  :func:`_interleaved_medians`): on a shared 2-core host one run of the
  legacy dict path swings by a third.  Results land in
  ``results/BENCH_traffic.json`` and one row per case is upserted into
  ``results/runtimes.csv``.
"""

import argparse
import json
import os
import sys
import time

try:
    import repro  # noqa: F401  (script runs need src/ on the path)
except ImportError:  # pragma: no cover - direct ``python benchmarks/...`` runs
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    )

from repro.core import AbcccSpec
from repro.obs import peak_rss_mb
from repro.routing.batch import batch_routes
from repro.topology.fastbuild import fast_compiled
from repro.traffic import generate_matrix, max_min_rates

RESULTS_PATH = os.path.join("results", "BENCH_traffic.json")

#: legacy-vs-engine comparison instances (quick keeps the first); the
#: largest is about where the legacy dict path stops being reasonable
#: to wait on in a benchmark run.
PARITY = [
    AbcccSpec(3, 2, 2),  # 81 servers
    AbcccSpec(4, 3, 2),  # 1,024 servers
    AbcccSpec(6, 3, 2),  # 5,184 servers — legacy's largest feasible scale
]

#: degraded-routing instances (quick keeps the first) and the failed
#: share of servers, switches and links in each.
DEGRADED = [
    AbcccSpec(4, 3, 2),  # 1,024 servers
    AbcccSpec(6, 3, 2),  # 5,184 servers
]
FAULT_FRACTION = 0.01

#: timed runs per legacy-vs-engine and degraded row; the median is kept.
REPEATS = 3

#: engine-only scale instances (skipped under --quick).
SCALE = [
    AbcccSpec(8, 4, 2),  # 163,840 servers — CI traffic-smoke size
]


def test_bench_matrix_permutation_160k(benchmark):
    matrix = benchmark(generate_matrix, "permutation", 163_840, seed=7)
    assert matrix.num_flows == 163_840


def test_bench_routes_permutation_1k(benchmark):
    graph = fast_compiled(AbcccSpec(4, 3, 2))
    matrix = generate_matrix("permutation", graph.num_servers, seed=7)
    routes = benchmark(batch_routes, graph, matrix)
    assert routes.num_unreachable == 0


def test_bench_allocate_permutation_1k(benchmark):
    graph = fast_compiled(AbcccSpec(4, 3, 2))
    matrix = generate_matrix("permutation", graph.num_servers, seed=7)
    routes = batch_routes(graph, matrix)
    allocation = benchmark(max_min_rates, routes)
    assert allocation.min_rate > 0


def _time(fn) -> tuple:
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _median(values) -> float:
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _interleaved_medians(timers) -> list:
    """Per-key medians of :data:`REPEATS` rounds over all ``timers``.

    A round calls every timer once, so each row's median samples the
    host over the same stretch of the run: its speed drifts by a fifth
    within seconds, and timing one row's repeats back to back left
    that drift between rows, where the gate's calibration (the median
    ratio over all rows) cannot absorb it.
    """
    samples = [[] for _ in timers]
    for _ in range(REPEATS):
        for runs, timer in zip(samples, timers):
            runs.append(timer())
    return [{key: _median(run[key] for run in runs) for key in runs[0]} for runs in samples]


def _legacy_timer(spec, seed: int):
    """One timed run of the full name-dict pipeline the engine replaces."""
    from repro.sim.flow import max_min_allocation, route_all

    net = spec.build()
    servers = net.servers
    matrix = generate_matrix("permutation", len(servers), seed=seed)
    flows = matrix.flows(servers)

    def run() -> dict:
        seconds, allocation = _time(
            lambda: max_min_allocation(net, flows, route_all(net, flows, spec.route))
        )
        assert allocation.min_rate > 0
        return {"legacy_s": round(seconds, 6)}

    return run


def _degraded_timer(graph, seed: int):
    """One timed ``batch_routes`` under a 1 % server/switch/link draw.

    Each run gets a fresh :class:`MaskedGraph`, so its alive-only view
    is built inside the timed call, as in a fault trial.
    """
    from repro.faults import MaskedGraph, random_index_failures

    matrix = generate_matrix("permutation", graph.num_servers, seed=seed)
    plan = random_index_failures(
        graph,
        server_fraction=FAULT_FRACTION,
        switch_fraction=FAULT_FRACTION,
        link_fraction=FAULT_FRACTION,
        seed=seed,
    )

    def run() -> dict:
        masked = MaskedGraph.from_indices(graph, plan.dead_nodes, plan.dead_edges)
        seconds, routes = _time(lambda: batch_routes(graph, matrix, masked))
        return {
            "dead_nodes": len(plan.dead_nodes),
            "dead_links": len(plan.dead_edges),
            "unreachable": routes.num_unreachable,
            "routes_s": round(seconds, 6),
        }

    return run


def _engine_permutation(graph, seed: int) -> dict:
    """Matrix -> routes -> rates on the compiled graph, phase-timed."""
    matrix_s, matrix = _time(
        lambda: generate_matrix("permutation", graph.num_servers, seed=seed)
    )
    routes_s, routes = _time(lambda: batch_routes(graph, matrix))
    allocate_s, allocation = _time(lambda: max_min_rates(routes))
    assert allocation.min_rate > 0
    return {
        "matrix_s": round(matrix_s, 6),
        "routes_s": round(routes_s, 6),
        "allocate_s": round(allocate_s, 6),
        "engine_s": round(matrix_s + routes_s + allocate_s, 6),
    }


def run_traffic_bench(quick: bool = False, out_dir: str = "results") -> dict:
    """Measure legacy-vs-engine, degraded routing and engine-at-scale,
    write JSON + runtimes."""
    from repro.experiments.harness import _append_runtime

    parity = [spec for spec in PARITY if not (quick and spec.num_servers > 2000)]
    degraded = [spec for spec in DEGRADED if not (quick and spec.num_servers > 2000)]
    timers = []
    for spec in parity:
        graph = fast_compiled(spec)
        timers.append(lambda graph=graph: _engine_permutation(graph, seed=7))
        timers.append(_legacy_timer(spec, seed=7))
    timers.extend(_degraded_timer(fast_compiled(spec), seed=7) for spec in degraded)
    medians = iter(_interleaved_medians(timers))

    rows = []
    for spec in parity:
        row = {
            "spec": spec.label,
            "servers": spec.num_servers,
            "flows": spec.num_servers,
            "pattern": "permutation",
        }
        row.update(next(medians))
        row.update(next(medians))
        row["engine_speedup"] = (
            round(row["legacy_s"] / row["engine_s"], 1) if row["engine_s"] else None
        )
        rows.append(row)
    for spec in degraded:
        row = {
            "spec": f"{spec.label} degraded",
            "servers": spec.num_servers,
            "flows": spec.num_servers,
            "pattern": "permutation",
            "fault_fraction": FAULT_FRACTION,
        }
        row.update(next(medians))
        rows.append(row)
    if not quick:
        for spec in SCALE:
            graph = fast_compiled(spec)
            row = {
                "spec": spec.label,
                "servers": spec.num_servers,
                "flows": spec.num_servers,
                "pattern": "permutation",
            }
            row.update(_engine_permutation(graph, seed=7))
            row["legacy_s"] = None  # hours — the engine is the only option
            row["engine_speedup"] = None
            rows.append(row)
            # incast at the same scale: sparse matrix, sub-second solve
            incast_s, _ = _time(
                lambda graph=graph: max_min_rates(
                    batch_routes(
                        graph,
                        generate_matrix("incast", graph.num_servers, seed=7),
                    )
                )
            )
            row["incast_s"] = round(incast_s, 6)
    for row in rows:
        phases = {
            f"traffic.{phase}": row[f"{phase}_s"]
            for phase in ("matrix", "routes", "allocate")
            if f"{phase}_s" in row
        }
        _append_runtime(
            out_dir,
            f"BENCH_traffic:{row['spec']}",
            quick,
            1,
            row.get("engine_s", row["routes_s"]),
            phases=phases,
            peak_rss_mb=peak_rss_mb(),
        )
    report = {
        "benchmark": "traffic",
        "quick": quick,
        "rows": rows,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, os.path.basename(RESULTS_PATH)), "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small instances only")
    parser.add_argument("--out", default="results", help="output directory")
    args = parser.parse_args(argv)
    report = run_traffic_bench(quick=args.quick, out_dir=args.out)
    for row in report["rows"]:
        if "engine_s" not in row:
            print(
                f"{row['spec']:<33} flows={row['flows']:<6} "
                f"routes={row['routes_s']}s (dead nodes={row['dead_nodes']} "
                f"links={row['dead_links']}, unreachable={row['unreachable']})"
            )
            continue
        legacy = f"{row['legacy_s']}s" if row["legacy_s"] is not None else "-"
        speedup = (
            f"({row['engine_speedup']}x)" if row["engine_speedup"] is not None else ""
        )
        print(
            f"{row['spec']:<24} flows={row['flows']:<8} "
            f"engine={row['engine_s']}s "
            f"(matrix={row['matrix_s']} routes={row['routes_s']} "
            f"alloc={row['allocate_s']})  legacy={legacy} {speedup}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
