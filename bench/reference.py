"""Single-threaded LAPACK reference times for the cells a run solved.

``lapack_eigvalsh_s`` is ``np.linalg.eigvalsh`` on the symmetrized form of
each cell inside the reality window (where that form exists);
``lapack_eigvals_s`` is ``np.linalg.eigvals`` on the dense H of every cell.
Only the LAPACK call is timed; the matrices are built beforehand.
"""

import time

import numpy as np

import oracle


def lapack_times(cells):
    eigvalsh_s = eigvals_s = 0.0
    for n, lam, mu in cells:
        h = oracle.dense_h(n, lam, mu)
        t0 = time.perf_counter()
        np.linalg.eigvals(h)
        eigvals_s += time.perf_counter() - t0
        if abs(lam) < 1.0 and abs(mu) < 1.0:
            s = oracle.symmetrized(h)
            t0 = time.perf_counter()
            np.linalg.eigvalsh(s)
            eigvalsh_s += time.perf_counter() - t0
    return {
        "reference.lapack_eigvalsh_s": (eigvalsh_s, "s"),
        "reference.lapack_eigvals_s": (eigvals_s, "s"),
    }
