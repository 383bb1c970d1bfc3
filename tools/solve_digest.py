"""sha256 digests of the spectrum core's answers over a fixed survey of cells.

Usage::

    python tools/solve_digest.py SRC_DIR

SRC_DIR is the directory that holds the ``cptwell`` package (``src`` in a
checkout).  The script imports the package from there and runs the solver
core ``cptwell.spectra._solve`` on every cell of ``survey()``, once with
``general`` False (each cell on the branch it routes to) and once with
``general`` True (every cell on the general branch).  It prints one sha256
over the values, ``all_real``, ``complex_pairs``, ``min_gap`` and the failed
rows (their index, error type and message) of every call, then one line per
(branch, n) group with its number of cells and a sha256 over its calls alone.
Run it on two checkouts on one machine: equal digests mean that the core gives
the same bits for every cell, and equal group digests show which groups kept
their bits.

A last line, kept out of the total, is a sha256 over the public one-cell
route ``spectrum_of(build(n, (lam, mu)), reality_tol=tol)`` on every cell of
the routed survey: per cell its values, ``all_real`` and ``min_gap``, or its
error type and message.

The survey holds, per size n, the cells of the acceptance sweeps
(criterion 1: mu = lambda on a 0.01 grid in [-0.98, 0.98] and at +-1.01,
+-1.2, +-1.11, +-1.13; criterion 2: mu = +-lambda at 50 points), the cells a
few ulps from the exceptional points of n = 3 and n = 4, couplings up to
+-1.7e308 (at eight sizes), and a 7 x 7 grid over [-3, 3]^2 for every n in
2..64.  Cells are solved in blocks of at most ``BLOCK`` cells, in survey
order; the grid is also solved with the reality tolerance set to 1e-3.
"""

import hashlib
import os
import sys
from collections import defaultdict

import numpy as np

SIZES = range(2, 65)
BLOCK = 64
# Couplings near the float range, tried at a few sizes only (their cluster
# re-solves are slow) against each other and against ordinary couplings.
HUGE = np.array([s * x for x in (1e154, 1e300, 1.7e308) for s in (1.0, -1.0)])
HUGE_SIZES = (2, 3, 4, 5, 9, 16, 33, 64)
GRID = np.linspace(-3.0, 3.0, 7)


def survey(n):
    """{part: (lam, mu)} of the cells of size n, as float arrays."""
    window = np.round(np.arange(-98, 99) * 0.01, 10)
    edge = np.array([1.01, -1.01, 1.2, -1.2, 1.11, -1.11, 1.13, -1.13])
    acceptance = np.concatenate((window, edge))
    parts = {"criterion 1": (acceptance, acceptance)}
    line = np.linspace(-0.98, 0.98, 50)
    parts["criterion 2"] = (np.concatenate((line, line)), np.concatenate((line, -line)))
    if n in (3, 4):
        centre = 1.0 if n == 3 else np.sqrt(5.0) / 2.0
        ks = np.arange(9) if n == 3 else np.arange(-8, 9)
        ep = np.concatenate([s * (centre + ks * np.spacing(centre)) for s in (1.0, -1.0)])
        parts["exceptional points"] = (ep, ep)
    if n in HUGE_SIZES:
        other = np.concatenate((HUGE, -HUGE, np.repeat([0.5, 1.0, -2.0], 2)))
        lam = np.tile(HUGE, 3)
        parts["huge"] = (np.concatenate((lam, other)), np.concatenate((other, lam)))
    parts["grid"] = (np.repeat(GRID, GRID.size), np.tile(GRID, GRID.size))
    return parts


def records(spectra, n, lam, mu, tol, general):
    """One bytes record per block of cells: its answers and failures."""
    for start in range(0, lam.size, BLOCK):
        block = slice(start, start + BLOCK)
        values, all_real, pairs, gaps, failed = spectra._solve(
            n, lam[block], mu[block], reality_tol=tol, general=general
        )
        failures = "".join(
            f"{row}:{type(exc).__name__}:{exc};" for row, exc in sorted(failed.items())
        )
        yield b"".join((
            np.ascontiguousarray(values, dtype=complex).tobytes(),
            np.asarray(all_real, dtype=bool).tobytes(),
            np.asarray(pairs, dtype=np.int64).tobytes(),
            np.asarray(gaps, dtype=float).tobytes(),
            failures.encode(),
        ))


def cell_records(spectra, errors, n, lam, mu, tol):
    """One bytes record per cell: the answer or failure of `spectrum_of`."""
    for la, m in zip(lam.tolist(), mu.tolist()):
        try:
            s = spectra.spectrum_of(spectra.build(n, (la, m)), reality_tol=tol)
        except errors.NumericalError as exc:
            yield f"{type(exc).__name__}:{exc};".encode()
            continue
        yield b"".join((
            np.ascontiguousarray(s.values, dtype=complex).tobytes(),
            np.asarray(s.all_real, dtype=bool).tobytes(),
            np.asarray(s.min_gap, dtype=float).tobytes(),
        ))


def main(args):
    if len(args) != 1:
        print("usage: python tools/solve_digest.py SRC_DIR", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.abspath(args[0]))
    from cptwell import errors, spectra

    total = hashlib.sha256()
    groups = defaultdict(hashlib.sha256)
    cells = defaultdict(int)
    calls = 0
    one_cell = hashlib.sha256()
    for general in (False, True):
        branch = "general" if general else "routed"
        for n in SIZES:
            for part, (lam, mu) in survey(n).items():
                for tol in (None, 1e-3) if part == "grid" else (None,):
                    cells[branch, n] += lam.size
                    for record in records(spectra, n, lam, mu, tol, general):
                        total.update(record)
                        groups[branch, n].update(record)
                        calls += 1
                    if not general:
                        for record in cell_records(spectra, errors, n, lam, mu, tol):
                            one_cell.update(record)
    print(f"{sum(cells.values())} cells in {calls} calls sha256 {total.hexdigest()}")
    for branch, n in sorted(groups):
        digest = groups[branch, n].hexdigest()
        print(f"  {branch} n={n} {cells[branch, n]} cells sha256 {digest}")
    routed = sum(count for (branch, _), count in cells.items() if branch == "routed")
    print(f"spectrum_of on {routed} routed cells sha256 {one_cell.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
