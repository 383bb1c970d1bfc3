"""Backend agreement and accuracy of the low-level numerical kernels.

Every kernel keeps a plain-Python handle under ``*_py`` next to the public
handle, which is the numba-compiled version of the same function when numba
is importable.  Both handles run in this one process so their outputs can be
compared directly.  Accuracy oracles are numpy's dense eigensolvers, dense
linear solves, and exact log-magnitude sums for the rescaled determinant.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from cptwell import kernels
from cptwell.hamiltonian import build, symmetrize

SEED = 20230817


def sym_parts(n, lam):
    s = symmetrize(build(n, (lam, lam)))
    sd = np.ascontiguousarray(s.s_diag)
    so = np.ascontiguousarray(s.s_off)
    lo, hi = s.gershgorin_bounds()
    return sd, so, lo, hi


def newton_args(n, lam):
    h = build(n, (lam, lam))
    diag = np.ascontiguousarray(h.diag)
    bonds = np.ascontiguousarray(h.bonds)
    rad = h.gershgorin_radius()
    base = np.linspace(2.0 - rad, 2.0 + rad, n).astype(complex)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    guesses = np.ascontiguousarray(base + 1j * 0.1 * signs)
    return diag, bonds, guesses, -rad, rad, rad


class TestBackendAgreement:
    """The compiled and plain handles must produce identical numbers."""

    def test_handles_are_distinct_only_when_numba_is_active(self):
        if kernels.HAS_NUMBA:
            assert kernels.bisect_spectrum is not kernels.bisect_spectrum_py
        else:
            assert kernels.bisect_spectrum is kernels.bisect_spectrum_py

    def test_sturm_count_agrees(self):
        sd, so, lo, hi = sym_parts(25, 0.6)
        shifts = np.linspace(lo, hi, 41)
        tiny = 2.3e-290
        a = kernels.sturm_count(sd, so * so, shifts, tiny)
        b = kernels.sturm_count_py(sd, so * so, shifts, tiny)
        assert np.array_equal(a, b)

    def test_bisect_spectrum_agrees(self):
        sd, so, lo, hi = sym_parts(30, -0.8)
        a = kernels.bisect_spectrum(sd, so * so, lo, hi, 62, 2.3e-290)
        b = kernels.bisect_spectrum_py(sd, so * so, lo, hi, 62, 2.3e-290)
        assert np.array_equal(a, b)

    def test_tridiag_solve_agrees(self):
        sd, so, _, _ = sym_parts(18, 0.4)
        rhs = np.cos(np.arange(18.0))
        a = kernels.tridiag_solve_shifted(sd, so, 1.234, rhs, 1e-280)
        b = kernels.tridiag_solve_shifted_py(sd, so, 1.234, rhs, 1e-280)
        assert np.array_equal(a, b)

    def test_charpoly_terms_agrees_including_the_rescaled_regime(self):
        h = build(400, (0.0, 0.0))
        diag = np.ascontiguousarray(h.diag)
        bonds = np.ascontiguousarray(h.bonds)
        for z in (10.0 + 0.0j, -6.0 + 2.0j, 1.5 + 0.5j):
            pa, da, ea, sa = kernels.charpoly_terms(diag, bonds, z)
            pb, db, eb, sb = kernels.charpoly_terms_py(diag, bonds, z)
            assert (pa, da, ea, sa) == (pb, db, eb, sb)
        assert kernels.charpoly_terms(diag, bonds, 10.0 + 0.0j)[3] > 0

    def test_newton_roots_agrees(self):
        # Not bitwise: the complex abs() in the stop test rounds differently
        # between the runtimes, shifting the final polish step by one.
        diag, bonds, guesses, lo, hi, rad = newton_args(24, 1.05)
        ra, oka, _ = kernels.newton_roots(diag, bonds, guesses, lo, hi, rad, 120, 30, SEED)
        rb, okb, _ = kernels.newton_roots_py(diag, bonds, guesses, lo, hi, rad, 120, 30, SEED)
        assert np.array_equal(oka, okb)
        assert np.max(np.abs(ra - rb)) <= 1e-13 * max(1.0, np.max(np.abs(ra)))


class TestSturmCount:
    def test_counts_are_zero_below_and_n_above_the_spectrum(self):
        sd, so, lo, hi = sym_parts(12, 0.3)
        counts = kernels.sturm_count(sd, so * so, np.array([lo - 1.0, hi + 1.0]), 2.3e-290)
        assert counts.tolist() == [0, 12]

    def test_counts_match_numpy_at_gap_midpoints(self):
        # Shifts sit midway between eigenvalues so the count is unambiguous.
        sd, so, lo, hi = sym_parts(17, -0.55)
        a = np.diag(sd) + np.diag(so, 1) + np.diag(so, -1)
        ev = np.linalg.eigvalsh(a)
        shifts = 0.5 * (ev[:-1] + ev[1:])
        counts = kernels.sturm_count(sd, so * so, shifts, 2.3e-290)
        assert np.array_equal(counts, np.arange(1, 17))

    def test_counts_are_monotone_in_the_shift(self):
        sd, so, lo, hi = sym_parts(9, 0.9)
        counts = kernels.sturm_count(sd, so * so, np.linspace(lo, hi, 50), 2.3e-290)
        assert np.all(np.diff(counts) >= 0)


class TestBisectSpectrum:
    def test_matches_numpy_eigvalsh(self):
        sd, so, lo, hi = sym_parts(50, 0.3)
        got = kernels.bisect_spectrum(sd, so * so, lo, hi, 62, 2.3e-290)
        a = np.diag(sd) + np.diag(so, 1) + np.diag(so, -1)
        assert np.max(np.abs(got - np.linalg.eigvalsh(a))) <= 1e-12

    def test_returns_ascending_values(self):
        sd, so, lo, hi = sym_parts(33, -0.95)
        got = kernels.bisect_spectrum(sd, so * so, lo, hi, 62, 2.3e-290)
        assert np.all(np.diff(got) > 0)


class TestTridiagSolve:
    def test_matches_numpy_solve(self):
        sd, so, _, _ = sym_parts(20, 0.5)
        a = np.diag(sd) + np.diag(so, 1) + np.diag(so, -1)
        rhs = np.sin(np.arange(20.0))
        shift = 0.777
        x = kernels.tridiag_solve_shifted(sd, so, shift, rhs, 1e-280)
        ref = np.linalg.solve(a - shift * np.eye(20), rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    def test_stays_finite_when_shifted_onto_an_eigenvalue(self):
        # Inverse iteration at the ground level: the all-ones right side has a
        # large component on the nodeless eigenvector, so the nearly singular
        # solve must blow up along it while staying finite.
        sd, so, lo, hi = sym_parts(10, 0.2)
        ev = kernels.bisect_spectrum(sd, so * so, lo, hi, 62, 2.3e-290)
        rhs = np.ones(10)
        x = kernels.tridiag_solve_shifted(sd, so, float(ev[0]), rhs, 1e-280)
        assert np.all(np.isfinite(x))
        assert np.linalg.norm(x) > 1e6


class TestCharpolyTerms:
    def test_one_site_recurrence_edge(self):
        p, dp, err, nscale = kernels.charpoly_terms(
            np.array([2.0]), np.zeros(0), 0.5 + 0.0j
        )
        assert p == 1.5 + 0.0j
        assert dp == -1.0 + 0.0j
        assert nscale == 0

    def test_rescaled_magnitude_matches_the_exact_log_sum(self):
        # det(H0 - z I) = prod_k (2 - 2 cos(k pi/(n+1)) - z) overflows doubles
        # near n = 400 at z = 10; compare log magnitudes instead.
        n = 400
        h = build(n, (0.0, 0.0))
        z = 10.0 + 0.0j
        p, _, _, nscale = kernels.charpoly_terms(
            np.ascontiguousarray(h.diag), np.ascontiguousarray(h.bonds), z
        )
        levels = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        ref = np.sum(np.log(np.abs(levels - z.real)))
        got = np.log(abs(p)) + 512.0 * nscale * np.log(2.0)
        assert nscale >= 1
        assert abs(got - ref) <= 1e-9 * abs(ref)

    def test_error_estimate_separates_roots_from_offroot_points(self):
        # At a converged eigenvalue the plain-double value sits inside the
        # noise estimate; midway between eigenvalues (of a size where the
        # noise has not yet swamped the signal) it rises far above it.
        def parts(n, lam):
            h = build(n, (lam, lam))
            s = symmetrize(h)
            lo, hi = s.gershgorin_bounds()
            ev = kernels.bisect_spectrum(
                np.ascontiguousarray(s.s_diag),
                np.ascontiguousarray(s.s_off) ** 2,
                lo,
                hi,
                62,
                2.3e-290,
            )
            return np.ascontiguousarray(h.diag), np.ascontiguousarray(h.bonds), ev

        diag, bonds, ev = parts(60, 0.9)
        p_root, _, err_root, _ = kernels.charpoly_terms(diag, bonds, complex(ev[7]))
        assert abs(p_root) <= 10.0 * err_root

        diag, bonds, ev = parts(12, 0.9)
        mid = 0.5 * (ev[3] + ev[4])
        p_mid, _, err_mid, _ = kernels.charpoly_terms(diag, bonds, complex(mid))
        assert abs(p_mid) > 1e3 * err_mid


class TestNewtonRoots:
    def test_all_roots_match_numpy_in_the_complex_regime(self):
        diag, bonds, guesses, lo, hi, rad = newton_args(40, 1.01)
        roots, ok, _ = kernels.newton_roots(diag, bonds, guesses, lo, hi, rad, 120, 30, SEED)
        assert ok.all()
        from cptwell.hamiltonian import dense

        ref = np.linalg.eigvals(dense(build(40, (1.01, 1.01))))
        worst = 0.0
        pool = list(ref)
        for r in roots:
            j = int(np.argmin([abs(r - y) for y in pool]))
            worst = max(worst, abs(r - pool.pop(j)))
        assert worst <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_same_seed_reproduces_bitwise_identical_roots(self):
        diag, bonds, guesses, lo, hi, rad = newton_args(16, 1.3)
        a = kernels.newton_roots(diag, bonds, guesses, lo, hi, rad, 120, 30, SEED)[0]
        b = kernels.newton_roots(diag, bonds, guesses, lo, hi, rad, 120, 30, SEED)[0]
        assert np.array_equal(a, b)

    def test_info_reports_small_final_residuals(self):
        diag, bonds, guesses, lo, hi, rad = newton_args(12, 0.5)
        roots, ok, info = kernels.newton_roots(diag, bonds, guesses, lo, hi, rad, 120, 30, SEED)
        assert ok.all()
        assert np.all(info[:, 1] >= 1)


class TestEnvironmentFlag:
    def test_disable_variable_forces_the_python_path(self):
        code = (
            "from cptwell import kernels;"
            "assert not kernels.HAS_NUMBA;"
            "assert kernels.bisect_spectrum is kernels.bisect_spectrum_py;"
            "assert kernels.newton_roots is kernels.newton_roots_py;"
            "import numpy as np;"
            "from cptwell.hamiltonian import build;"
            "from cptwell.spectra import spectrum_of;"
            "v = spectrum_of(build(3, (0.0, 0.0))).values.real;"
            "assert abs(v[1] - 2.0) < 1e-12"
        )
        # The child imports the same cptwell as this process, installed or not.
        package_root = os.path.dirname(os.path.dirname(kernels.__file__))
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, CPTWELL_DISABLE_NUMBA="1", PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
