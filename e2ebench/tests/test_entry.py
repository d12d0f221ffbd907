"""The entry point refuses to run without the program's sources."""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "e2ebench"), tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns(".runs", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
