"""Pieces shared by run.py, the pass worker and the traced CLI wrapper."""
from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

# BLAS threads for every process the benchmark starts.  One: OpenBLAS
# threads spin while they wait for each other, so on a few shared cores two
# of them make pass times follow the neighbours' load.  On a 2-core shared VM
# the spread of cli-files' wall_s over five seeds (IQR / median) was 0.15
# with two threads and 0.03 with one, at no cost in median wall time.
BLAS_THREADS = 1

# A child that runs longer than this is killed, so a hung program cannot
# hold a run past its deadline.
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv: list[str], cwd: str | None = None) -> dict:
    """Run argv to completion and return its exit code, stdout, wall time,
    start time (time.monotonic) and peak resident set.

    The child is reaped with os.wait4, so the peak is this child's own
    ru_maxrss and not the maximum over all children of the caller.
    """
    spawn = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, text=True,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.monotonic() - spawn
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "stdout": out,
        "wall_s": wall,
        "spawn": spawn,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def python(*args: str) -> list[str]:
    """argv running this interpreter, so children use the same Python."""
    return [sys.executable, *args]
