"""Run workloads over a series of seeds and report each metric's spread.

    python3 e2ebench/spread.py --seeds 1-10 [--workloads sweep,serve]
        [--seconds 15] [--save runs.json] [--baseline earlier.json]

For every end-to-end metric of every workload it prints the median over
the seeds, the inter-quartile distance as a share of that median, and
the metric's bound from ``BENCHMARK.json``.  A spread at or above its
bound is marked ``NOISY``; one above a third of its bound is marked
``wide``.
With ``--baseline`` (a file written by ``--save``) it also prints how far
each median moved in the worse direction, against the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from e2ebench import stats  # noqa: E402


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_share(metric: Dict, base: float, now: float) -> float:
    """How much worse ``now`` is than ``base``, as a share of ``base``."""
    change = (now - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--save", help="write the raw results here")
    parser.add_argument("--baseline", help="compare medians with a file from --save")
    args = parser.parse_args(argv)

    baseline = {}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
    raw: Dict[str, List[Dict]] = {}
    for workload in args.workloads.split(","):
        raw[workload] = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, 0)
            raw[workload].append(result)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} failed", flush=True)
        print(f"\n{workload} ({len(raw[workload])} seeds)", flush=True)
        print(f"  {'metric':<18} {'median':>14} {'IQR/median':>11} {'bound':>6}  verdict")
        for metric in config["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in raw[workload]]
            mid, share = stats.median(values), stats.spread(values)
            bound = metric["bound"]
            verdict = "ok"
            if share >= bound:
                verdict = "NOISY"
            elif share > bound / 3:
                verdict = "wide"
            line = f"  {name:<18} {mid:>14.6g} {share:>11.4f} {bound:>6.2f}  {verdict}"
            if workload in baseline:
                before = stats.median(
                    [r["metrics"][name]["value"] for r in baseline[workload]]
                )
                worse = worse_share(metric, before, mid)
                flag = "REGRESSED" if worse > bound else "within bound"
                line += f"  vs baseline {before:.6g}: worse by {worse:+.4f} ({flag})"
            print(line, flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(raw, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
