"""The ``serve`` workload: ``repro serve`` on loopback TCP, driven by this
one process over two connections.

Two phases share one daemon: an open loop at a fixed rate, each request
timed from its *due* time, then a closed loop whose answered-request
rate is the capacity.  Each daemon spawn and the open loop are
bracketed by the host-speed reference, which rescales ``setup_s`` and
``latency_p50_ms`` as in the batch workloads; the capacity stays as
measured.  A sample of answers is checked against
``repro.serve.engine.execute`` on the same request in this process.
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from e2ebench import checks, inputs, procs, stats

PARAMS = {"n": 8, "k": 3, "s": 2}
#: one worker and two connections keep the load inside two cores.
WORKERS = 1
CONNECTIONS = 2
#: open-loop rate, about half the closed-loop capacity of the program
#: this benchmark was written against (~40 answered requests/s).
OPEN_RATE = 20.0
#: share of ``--seconds`` spent in the open loop; the rest is closed loop.
OPEN_SHARE = 0.7
#: open-loop requests between two host-speed readings (one second).
OPEN_SEGMENT = 20
#: the open loop never holds fewer than this many requests, so that ten
#: lie beyond its p95.
MIN_OPEN_REQUESTS = 200
SETUP_REPEATS = 5
#: reference loops per host-speed reading, whose median is taken: one
#: reading on each side rescales a whole spawn or open-loop segment,
#: so a single slow loop must not decide it.
REFERENCE_REPEATS = 5
#: answers checked against the library per untraced run (traced runs
#: check, and time, every answer).
CHECK_SAMPLE = 64
KINDS = inputs.KINDS
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Sent:
    index: int
    due: float
    sent: float
    done: float
    answer: Optional[Dict[str, Any]]
    error: Optional[str]
    attempts: int


def _host_reference() -> float:
    return stats.median([stats.reference_s() for _ in range(REFERENCE_REPEATS)])


class Daemon:
    """One ``repro serve`` process; always stopped and reaped by ``stop``."""

    def __init__(self, root: str, scratch: str, tag: str) -> None:
        self.ready = os.path.join(scratch, f"serve-{os.getpid()}-{tag}.ready")
        self.log_path = os.path.join(scratch, f"serve-{os.getpid()}-{tag}.log")
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.workers: List[int] = []

    def start(self) -> float:
        """Spawn and wait for the ready file; returns the seconds waited."""
        if os.path.exists(self.ready):
            os.remove(self.ready)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        argv = [sys.executable, "-m", "repro", "serve", "abccc"]
        for key, value in PARAMS.items():
            argv += ["-p", f"{key}={value}"]
        argv += ["--workers", str(WORKERS), "--ready-file", self.ready]
        with open(self.log_path, "wb") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                argv,
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                start_new_session=True,
            )
        while not os.path.exists(self.ready):
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}; see {self.log_path}")
            if time.perf_counter() - started > READY_TIMEOUT_S:
                raise RuntimeError("daemon did not become ready")
            time.sleep(0.002)
        elapsed = time.perf_counter() - started
        with open(self.ready, encoding="utf-8") as handle:
            self.port = int(json.load(handle)["port"])
        os.remove(self.ready)
        self.workers = procs.children(self.proc.pid)
        return elapsed

    def peak_rss_mb(self) -> float:
        """Daemon plus workers, from /proc VmHWM."""
        return sum(stats.vm_hwm_mb(str(pid)) for pid in [self.proc.pid] + self.workers)

    def stop(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.wait() == 0:
            os.remove(self.log_path)  # kept only when the daemon failed
        # The daemon leads its own process group: its workers and any
        # helper it started end with it.
        procs.wait_gone(procs.group(proc.pid) + self.workers, STOP_TIMEOUT_S)


def _call(client, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
    if op == "whatif":
        return client.whatif(**params)
    method = client.route if op == "route" else client.distance
    return method(params["src"], params["dst"], scenario=params.get("scenario"))


def _drive(port: int, stream, start: int, stop_at: Optional[float], rate: Optional[float], t0: float):
    """Send ``stream[start:]`` over :data:`CONNECTIONS` connections.

    Open loop (``rate`` set): request ``i`` is due at
    ``t0 + (i - start) / rate``.
    Closed loop: each connection sends its next request as soon as the
    last one returns, until ``stop_at``.
    """
    from repro.serve.client import ServeClient
    from repro.serve.protocol import ServeError

    counter = itertools.count(start)
    lock = threading.Lock()
    sent: List[Sent] = []
    end = len(stream)

    def connection(slot: int) -> None:
        client = ServeClient(port=port, retries=2, timeout_s=20.0, seed=slot)
        try:
            while True:
                with lock:
                    i = next(counter)
                if i >= end:
                    return
                if rate is not None:
                    due = t0 + (i - start) / rate
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                else:
                    due = time.perf_counter()
                    if due >= stop_at:
                        return
                kind, op, params = stream[i]
                began = time.perf_counter()
                answer = error = None
                try:
                    answer = _call(client, op, params)
                except ServeError as failure:
                    error = failure.code
                except Exception as failure:  # noqa: BLE001 - recorded as a failed request
                    error = f"{type(failure).__name__}: {failure}"
                done = time.perf_counter()
                with lock:
                    sent.append(Sent(i, due, began, done, answer, error, client.last_attempts))
        finally:
            client.close()

    threads = [threading.Thread(target=connection, args=(slot,)) for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(sent, key=lambda s: s.index)


def _queue_wait_p90_ms(snapshot: Dict[str, Any]) -> float:
    """p90 queue wait over every endpoint, from the daemon's histograms."""
    from repro.obs.metrics import Histogram

    merged = Histogram()
    for entry in snapshot.get("metrics", {}).get("histograms", []):
        if entry.get("name") != "serve.queue.wait_seconds":
            continue
        for index, count in (entry.get("buckets") or {}).items():
            merged.buckets[int(index)] = merged.buckets.get(int(index), 0) + int(count)
        merged.count += int(entry.get("count", 0))
        merged.max = max(merged.max, float(entry.get("max", 0.0)))
    value = merged.quantile(0.9)
    return 1000.0 * value if value is not None else 0.0


def _counter(snapshot: Dict[str, Any], name: str) -> float:
    return sum(
        float(entry.get("value", 0.0))
        for entry in snapshot.get("metrics", {}).get("counters", [])
        if entry.get("name") == name
    )


def _shed(snapshot: Dict[str, Any]) -> float:
    return sum(
        value for key, value in snapshot.get("counters", {}).items() if key.startswith("shed")
    )


def judge(graph, stream, everything: List[Sent], sample_size: Optional[int], seed: int, rec):
    """Failed request indices and the problems behind them.

    A request fails when it errs, needs a retry (it was shed or its
    connection broke) or, for the seeded sample checked here, when its
    answer differs from ``execute`` on the same request in this process.
    ``sample_size=None`` checks every answer.  In a traced run the
    execute calls are timed, per kind, and each round trip minus its
    execute time is the transport share.
    """
    from repro.serve.engine import execute
    from repro.serve.protocol import parse_query
    from repro.serve.scenario import ScenarioCache

    failed = set()
    problems: List[str] = []
    for s in everything:
        if s.error is not None or s.attempts > 1:
            failed.add(s.index)
            problems.append(f"request {s.index}: {s.error or 'ok'} after {s.attempts} attempts")
    answered = [s for s in everything if s.index not in failed]
    sample = answered
    if sample_size is not None and len(answered) > sample_size:
        picks = inputs.rng(seed, "serve", "check-sample").choice(
            len(answered), sample_size, replace=False
        )
        sample = [answered[int(i)] for i in sorted(picks)]
    scenarios = ScenarioCache(graph)
    execute_ms: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    transport_ms: List[float] = []
    for s in sample:
        kind, op, params = stream[s.index]
        request = parse_query(op, params)
        with rec.span("serve.execute", f"r{s.index}") as span:
            expected = execute(graph, request, scenarios)
        wrong = checks.serve_answer(s.answer, json.loads(json.dumps(expected)))
        if wrong:
            failed.add(s.index)
            problems += [f"request {s.index} ({kind}): {p}" for p in wrong]
        if rec.enabled:
            execute_ms[kind].append(1000.0 * span.duration)
            transport_ms.append(1000.0 * (s.done - s.sent - span.duration))
    return failed, problems, execute_ms, transport_ms


def run(root: str, scratch: str, seed: int, seconds: float, rec) -> Dict[str, Any]:
    from repro.serve.client import ServeClient
    from repro.topology.registry import create

    with rec.span("topology.build", "setup") as build:
        graph = create("abccc", **PARAMS).compiled()
    n_open = max(int(OPEN_RATE * OPEN_SHARE * seconds), MIN_OPEN_REQUESTS)
    closed_s = max(seconds - n_open / OPEN_RATE, (1 - OPEN_SHARE) * seconds)
    # Enough requests for a closed loop well beyond any plausible capacity.
    stream = inputs.request_stream(graph, seed, n_open + int(closed_s * 400) + 1)

    setups: List[float] = []
    daemons: List[Daemon] = []
    try:
        for repeat in range(SETUP_REPEATS):
            daemon = Daemon(root, scratch, str(repeat))
            daemons.append(daemon)
            before = _host_reference()
            with rec.span("setup.spawn", "setup"):
                spawn = daemon.start()
            setups.append(spawn * stats.host_scale(before, _host_reference()))
            if repeat < SETUP_REPEATS - 1:
                daemon.stop()
        daemon = daemons[-1]
        # The open loop runs in segments, each rescaled by the host-speed
        # readings on either side of it: the host's speed changes within
        # a second, too fast for one reading at each end of the phase.
        opened: List[Sent] = []
        latency_ms: List[float] = []
        before = _host_reference()
        for start in range(0, n_open, OPEN_SEGMENT):
            t0 = time.perf_counter() + 0.05
            end = min(start + OPEN_SEGMENT, n_open)
            segment = _drive(daemon.port, stream[:end], start, None, OPEN_RATE, t0)
            after = _host_reference()
            scale = stats.host_scale(before, after)
            latency_ms += [1000.0 * (s.done - s.due) * scale for s in segment]
            opened += segment
            before = after
        closed_start = time.perf_counter()
        closed = _drive(daemon.port, stream, n_open, closed_start + closed_s, None, closed_start)
        closed_end = closed_start + closed_s
        with ServeClient(port=daemon.port) as client:
            snapshot = client.stats()
        peak_rss = daemon.peak_rss_mb()
    finally:
        for daemon in daemons:
            daemon.stop()

    everything = opened + closed
    sample_size = None if rec.enabled else CHECK_SAMPLE
    failed, problems, execute_ms, transport_ms = judge(graph, stream, everything, sample_size, seed, rec)
    for s in everything:
        rec.add("serve.request", f"r{s.index}", s.sent, s.done, attempts=s.attempts)

    capacity = sum(1 for s in closed if s.error is None and s.done <= closed_end) / closed_s
    result = {
        "attempted": len(everything),
        "failed": len(failed),
        "problems": problems,
        "metrics": {
            "setup_s": stats.median(setups),
            "latency_p50_ms": stats.median(latency_ms),
            "throughput_per_s": capacity,
            "peak_rss_mb": peak_rss,
        },
    }
    if rec.enabled:
        rtt_ms: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        for s in everything:
            rtt_ms[stream[s.index][0]].append(1000.0 * (s.done - s.sent))
        hits = _counter(snapshot, "serve.scenario.cache_hit")
        misses = _counter(snapshot, "serve.scenario.cache_miss")
        layers = {
            "topology.build_s": build.duration,
            "serve.latency_p95_ms": stats.percentile(
                [1000.0 * (s.done - s.due) for s in opened], 0.95
            ),
            "serve.transport_p50_ms": stats.median(transport_ms),
            "serve.queue_wait_p90_ms": _queue_wait_p90_ms(snapshot),
            "serve.scenario_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.shed": _shed(snapshot),
            "serve.retries": sum(s.attempts - 1 for s in everything),
            "serve.late_p90_ms": stats.percentile(
                [1000.0 * (s.sent - s.due) for s in opened], 0.9
            ),
        }
        for kind in KINDS:
            layers[f"serve.{kind}.rtt_p50_ms"] = stats.median(rtt_ms[kind])
            layers[f"serve.{kind}.execute_p50_ms"] = stats.median(execute_ms[kind])
        result["layers"] = layers
    result["graph"] = graph
    return result
