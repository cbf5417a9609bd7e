"""Paths, the pinned environment, run statistics and the environment record.

Imports nothing heavy: run.py pins the BLAS thread count through
pin_environment() before numpy is first imported.
"""

import importlib.util
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# One BLAS thread, which no machine lacks: the oracle's dense eigh then
# times the same whatever the core count, and leaves the other core of a
# 2-core machine to the rest of the system.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The p90 is trustworthy only with this many samples beyond it.
MIN_BEYOND = 10


def checkout_is_complete() -> bool:
    return (SRC / "spincat" / "__init__.py").is_file()


def pin_environment() -> None:
    """Pin BLAS threads, the numpy kernel path and the checkout's source.

    Set on os.environ so that every child interpreter inherits it too.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # numba is optional in spincat; time the numpy kernels wherever we run
    os.environ["SPINCAT_NUMBA"] = "0"
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def tail_report(values) -> dict:
    """p90 with the count of samples beyond it.

    The p90 is "supported" only when at least MIN_BEYOND samples lie
    strictly beyond it; with fewer it is close to the maximum and is
    flagged, so a reader does not take it for a tail.
    """
    value = p90(values)
    beyond = sum(1 for v in values if v > value)
    return {
        "value": value,
        "samples": len(values),
        "beyond": beyond,
        "supported": beyond >= MIN_BEYOND,
    }


def spawn_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running `python -c code`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }
