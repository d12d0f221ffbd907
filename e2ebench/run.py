"""Run one benchmark workload and print its metrics as a JSON line.

    python3 e2ebench/run.py --workload traffic-permutation --seed 1 --seconds 15 --trace 0

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` prints every per-layer
metric (layers a workload does not exercise read 0) and writes the
spans to ``e2ebench/.runs/``.  The last line of standard output is the
result object; problems found by the checks go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, "e2ebench", ".runs")
#: set-ups timed before each trial.  Spreading them over the whole run
#: makes their median sample the host's speed across the run, as the
#: trial median does, rather than at one instant.
BUILDS_PER_TRIAL = 3
MIN_TRIALS = 3


def _bootstrap() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"e2ebench: no program sources at {src}; run from a full checkout")
    # The script's own directory is sys.path[0]; drop it so the
    # benchmark's modules are only importable as ``e2ebench.*``.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [ROOT, src] + [p for p in sys.path if os.path.abspath(p or ".") != here]


def _workloads() -> Dict[str, Any]:
    from e2ebench import sweep, traffic

    return {
        w.name: w
        for w in (traffic.PERMUTATION, traffic.DEGRADED, traffic.INCAST_FCT, sweep.SWEEP)
    }


WORKLOADS = ("traffic-permutation", "traffic-degraded", "traffic-incast-fct", "sweep", "serve")


def run_batch(workload, seed: int, seconds: float, rec) -> Dict[str, Any]:
    """Fresh trials until ``seconds`` of trial time, each preceded by
    :data:`BUILDS_PER_TRIAL` timed set-ups (the trials use the first graph).

    The host-speed reference is timed before the set-ups and after the
    trial, and the end-to-end times of both are rescaled by it
    (:func:`stats.host_scale`).  Per-layer times stay plain wall times.

    In a traced run each trial is replayed untraced on the same inputs,
    so the tracing overhead is measured inside the run, pair by pair.
    """
    from e2ebench import spans, stats
    from repro.topology.compiled import build_compiled
    from repro.topology.registry import create

    spec = create("abccc", **workload.params)
    setups: List[float] = []
    graph = None

    def set_up() -> List[float]:
        nonlocal graph
        builds = []
        for _ in range(BUILDS_PER_TRIAL):
            with rec.span("topology.build", "setup"):
                started = time.perf_counter()
                built = build_compiled(spec)
                builds.append(time.perf_counter() - started)
            if graph is None:
                graph = built
        setups.extend(builds)
        return builds

    off = spans.Recorder(False)
    trial_s: List[float] = []
    #: host-speed-rescaled set-up and trial times, and trial rates.
    scaled_setups: List[float] = []
    scaled_trial_s: List[float] = []
    rates: List[float] = []
    overheads: List[float] = []
    layer_rows: List[Dict[str, float]] = []
    extra: Dict[str, float] = {}
    problems: List[str] = []
    failed = 0
    measured = 0.0
    t = 0

    def replay() -> float:
        started = time.perf_counter()
        workload.trial(graph, seed, t, off, f"t{t}")
        return time.perf_counter() - started

    while t < MIN_TRIALS or measured + trial_s[-1] <= seconds:
        before = stats.reference_s()
        builds = set_up()
        # The replay goes first on odd trials, so whichever of a pair runs
        # on warmer memory does not bias the overhead one way.
        plain = replay() if rec.enabled and t % 2 else 0.0
        started = time.perf_counter()
        outcome = workload.trial(graph, seed, t, rec, f"t{t}")
        elapsed = time.perf_counter() - started
        scale = stats.host_scale(before, stats.reference_s())
        if rec.enabled and not t % 2:
            plain = replay()
        measured += elapsed + plain
        trial_s.append(elapsed)
        scaled_setups += [build * scale for build in builds]
        scaled_trial_s.append(elapsed * scale)
        rates.append(workload.units(outcome) / (elapsed * scale))
        found = workload.check(graph, outcome, seed, t)
        if rec.enabled:
            layer_rows.append(workload.layers(graph, outcome))
            if t == 0 and hasattr(workload, "once"):
                once = workload.once(graph, outcome, rec)
                extra.update(once["layers"])
                found += once["problems"]
            overheads.append(elapsed / plain - 1.0)
        if found:
            failed += 1
            problems += [f"trial {t}: {p}" for p in found]
        t += 1

    result = {
        "attempted": t,
        "failed": failed,
        "problems": problems,
        "graph": graph,
        "metrics": {
            "setup_s": stats.median(scaled_setups),
            "latency_p50_ms": 1000.0 * stats.median(scaled_trial_s),
            "throughput_per_s": stats.median(rates),
            "peak_rss_mb": stats.vm_hwm_mb(),
        },
    }
    if rec.enabled:
        layers = stats.medians(layer_rows)
        layers.update(extra)
        layers["topology.build_s"] = stats.median(setups)
        layers["trace.overhead_pct"] = 100.0 * stats.median(overheads)
        result["layers"] = layers
    return result


def breakdown(rec) -> List[str]:
    """Self time per layer inside the traced trials' span trees."""
    from e2ebench import spans

    totals = spans.self_time_by_name(rec.spans, "trial")
    whole = sum(totals.values())
    if not whole:
        return []
    lines = [f"self time inside the traced trials ({whole:.3f} s):"]
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {name:<16} {value:9.4f} s  {100.0 * value / whole:5.1f} %")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _bootstrap()
    from e2ebench import procs, serve, spans
    from repro.topology.fastbuild import csr_nbytes

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    os.makedirs(SCRATCH, exist_ok=True)
    rec = spans.Recorder(bool(args.trace))
    try:
        if args.workload == "serve":
            result = serve.run(ROOT, SCRATCH, args.seed, args.seconds, rec)
        else:
            result = run_batch(_workloads()[args.workload], args.seed, args.seconds, rec)
    finally:
        # Before any result is printed: no process of the run may outlive it.
        procs.stop_all()

    if args.trace:
        layers = result["layers"]
        layers["topology.csr_mb"] = csr_nbytes(result["graph"]) / 2**20
        wanted = config["per_layer"]
        unknown = set(layers) - {m["name"] for m in wanted}
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
        rec.write(os.path.join(SCRATCH, f"{args.workload}-seed{args.seed}.spans.jsonl"))
        for line in breakdown(rec):
            print(line)
    else:
        wanted = config["end_to_end"]
        values = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    for problem in result["problems"][:20]:
        print(f"e2ebench: {args.workload}: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
