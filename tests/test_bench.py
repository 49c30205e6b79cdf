import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selfcheck_passes():
    # the traced benchmark patches package functions by name; its
    # self-check fails when one is renamed or no longer called
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
