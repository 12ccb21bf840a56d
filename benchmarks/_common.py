"""Helpers shared by the benchmark scripts: best-of timing and the machine
record that heads every ``BENCH_*.json`` row.  The scripts import it from
their own directory, as ``python benchmarks/bench_<name>.py`` puts that
directory on ``sys.path``."""

import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np


def best_time(fn, repeats: int) -> float:
    """The shortest of ``repeats`` wall times of ``fn()``, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def machine() -> dict:
    """The git revision, the hardware and the library versions of a run."""
    try:
        rev = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                             text=True, cwd=Path(__file__).resolve().parent).stdout.strip()
    except OSError:
        rev = ""
    return {"git": rev or "unknown", "machine": platform.machine(),
            "processor": platform.processor(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}
