"""Robust statistics: medians, and percentiles only where the sample
holds at least ten values beyond them; and the host measurements the
benchmark takes beside the program's: peak RSS and the host's speed."""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Sequence

#: a percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
#: iterations of the host-speed reference loop (see README.md).
REFERENCE_LOOPS = 200_000
#: the reference loop's time on a quiet 2-core, 2.0 GHz x86 virtual
#: machine.  Rescaled times read as wall times on that machine.
REFERENCE_S = 0.0125


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile; raises when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    ordered = sorted(values)
    beyond = len(ordered) - math.ceil(q * len(ordered))
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} over {len(ordered)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return float(ordered[max(math.ceil(q * len(ordered)) - 1, 0)])


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def reference_s() -> float:
    """Seconds the host takes for a fixed pure-Python loop.

    On a shared host the CPU's speed changes by up to a factor of two
    for seconds to minutes at a time, and the program's wall time
    follows it.  This loop runs no program code, so timing it next to a
    measurement gives the host's speed at that moment and nothing else.
    """
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - started


def host_scale(before: float, after: float) -> float:
    """Factor that rescales a time measured between two reference loops
    to the host speed of :data:`REFERENCE_S`."""
    return REFERENCE_S / ((before + after) / 2)


def medians(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over a list of per-trial dicts."""
    keys = {key for row in rows for key in row}
    return {key: median([row[key] for row in rows if key in row]) for key in keys}
