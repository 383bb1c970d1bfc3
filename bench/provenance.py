"""Where the benchmark finds the program, and the facts recorded beside each result.

The benchmark runs from the root of a source checkout and imports ``cptwell``
from that checkout's ``src`` directory, never from an installed copy.  BLAS is
pinned to one thread before numpy is first imported, so that the closed loop
measures one client on one core.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout does not hold the package sources."""


def pin_blas_threads():
    """Pin every BLAS back end to one thread; must run before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source():
    """Put the checkout's ``src`` first on the path and import ``cptwell`` from it."""
    if not (SRC / "cptwell" / "__init__.py").is_file():
        raise MissingSource(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cptwell

    if Path(cptwell.__file__).resolve().parent != SRC / "cptwell":
        raise MissingSource(f"cptwell was imported from {cptwell.__file__}, not from {SRC}")
    return cptwell


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _blas_name():
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return None


def provenance(seed):
    """Backend, library versions, machine facts, seed and commit for one result."""
    import numpy as np
    from cptwell import kernels

    return {
        "backend": "numba" if kernels.HAS_NUMBA else "numpy",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas_name(),
        "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
    }
