"""A run leaves no process behind: stop_all ends the shared-memory
resource tracker and any other child, and waits for each."""

import json
import os
import subprocess
import sys
import textwrap

from e2ebench.procs import STOP_TIMEOUT_S

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CHILD = textwrap.dedent(
    """
    import json, os, subprocess, sys, time
    from e2ebench import procs
    from repro.topology.registry import create
    from repro.topology.shm import export_graph

    export_graph(create("abccc", n=3, k=2, s=2).compiled()).release()
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    before = procs.children(os.getpid())
    started = time.monotonic()
    procs.stop_all()
    print(json.dumps({"before": len(before), "after": procs.children(os.getpid()),
                      "seconds": time.monotonic() - started}))
    """
)


def test_stop_all_leaves_no_child():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([ROOT, os.path.join(ROOT, "src")]))
    out = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    # The resource tracker and the sleeper were running, and are gone.
    assert result["before"] == 2
    assert result["after"] == []
    # The tracker ignores SIGTERM; it is stopped by closing its pipe, not
    # killed after the timeout.
    assert result["seconds"] < STOP_TIMEOUT_S
