"""Process environment for the benchmark: BLAS pinning and the source path.

Import this module before numpy.  It pins every BLAS/OpenMP pool to
``BLAS_THREADS`` threads so that runs are comparable across machines and
load levels, and ``use_repo_sources`` puts the checkout's ``src/`` first on
``sys.path`` so the benchmark measures the tree it sits in, not an
installed copy.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


class MissingSources(RuntimeError):
    """The checkout holds no ``src/trifocal`` package to measure."""


def use_repo_sources() -> None:
    if not (SRC / "trifocal" / "__init__.py").is_file():
        raise MissingSources(f"no trifocal package under {SRC}")
    sys.path.insert(0, str(SRC))


def describe() -> dict:
    """nproc, pinned BLAS threads and library versions, for the result record."""
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": blas,
        "python": sys.version.split()[0],
    }
