"""Processes the benchmark starts, found through /proc, and stopped.

The program starts processes of its own on the benchmark's behalf: the
sweep's worker pool, and the ``multiprocessing`` resource tracker that
its shared-memory hand-off spawns and that otherwise outlives the
benchmark by a moment.  :func:`stop_all` stops each and waits for it,
so no process of a run is left when the run's result is printed.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable, List

#: seconds a process gets to end after SIGTERM before it is killed.
STOP_TIMEOUT_S = 10.0


def _stat_fields(pid: str) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def _matching(keep: Callable[[List[str]], bool]) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(entry)
        except OSError:
            continue
        # A zombie has ended; its parent only has to reap it.
        if fields[0] != "Z" and keep(fields):
            out.append(int(entry))
    return out


def children(pid: int) -> List[int]:
    """Live pids whose parent is ``pid``."""
    return _matching(lambda fields: int(fields[1]) == pid)


def group(pgid: int) -> List[int]:
    """Live pids in process group ``pgid``."""
    return _matching(lambda fields: int(fields[2]) == pgid)


def wait_gone(pids: List[int], timeout: float = STOP_TIMEOUT_S) -> List[int]:
    """Wait until none of ``pids`` is alive; returns those still alive."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [pid for pid in pids if _alive(pid)]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        return _stat_fields(str(pid))[0] != "Z"
    except OSError:
        return False


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _stop_multiprocessing_helpers() -> None:
    """Stop the resource tracker and fork server, if this process started
    them; each closes its pipe and waits for the helper to exit."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        helper._stop()


def stop_all() -> None:
    """Stop every child of this process and wait until each has ended."""
    _stop_multiprocessing_helpers()
    pids = children(os.getpid())
    alive = pids
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if not alive:
            break
        for pid in alive:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        alive = wait_gone(alive)
    for pid in pids:
        _reap(pid)
