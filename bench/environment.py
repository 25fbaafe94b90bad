"""Print the benchmark's environment record as JSON.

Usage: python3 bench/environment.py

Results whose records differ are not comparable. BLAS threading is
recorded as the probe finds it; run.py runs this probe with the same
thread settings as the CLI.
"""

from __future__ import annotations

import json
import os
import platform

import numpy
import scipy

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def blas(config: dict) -> str:
    info = config.get("Build Dependencies", {}).get("blas", {})
    return f"{info.get('name', '?')} {info.get('version', '?')}"


def record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


if __name__ == "__main__":
    print(json.dumps(record(), sort_keys=True))
