"""Eigenvalue routes and reality-domain scans for the boundary-coupled well.

Independent oracles frozen into this file:

* Dirichlet closed forms 2 - 2 cos(k pi / (n+1)) for the uncoupled chain,
* the two-site closed form 2 +/- sqrt(1 - lambda^2) and its complex
  continuation 2 +/- i sqrt(lambda^2 - 1),
* numpy's dense eigensolvers on the explicitly assembled matrix,
* the characteristic polynomial expanded with exact Fraction arithmetic and
  rooted by numpy's companion-matrix solver.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from cptwell.errors import ConvergenceError, ValidationError
from cptwell.hamiltonian import CouplingPair, build, dense, symmetrize
from cptwell.spectra import (
    REALITY_TOL_FACTOR,
    DomainScan,
    Spectrum,
    char_poly,
    eigen_general,
    eigen_real,
    reality_tolerance,
    scan_domain,
    scan_line,
    spectrum_of,
)


def well(n, lam, mu=None):
    return build(n, CouplingPair(lam, lam if mu is None else mu))


def dirichlet_levels(n):
    k = np.arange(1, n + 1)
    return 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))


def exact_charpoly_coeffs(h):
    """Characteristic polynomial of H - e*I in exact rational arithmetic.

    Expands the determinant by cofactors along the last row, which for a
    tridiagonal matrix is the three-term recurrence
    p_k = (d_k - e) p_{k-1} - super_{k-1} sub_{k-1} p_{k-2}.
    Returns coefficients in ascending powers of e, each a Fraction.
    """
    diag = [Fraction(x) for x in h.diag.tolist()]
    bonds = [Fraction(a) * Fraction(b) for a, b in zip(h.super.tolist(), h.sub.tolist())]
    pm2 = [Fraction(1)]
    pm1 = [diag[0], Fraction(-1)]
    for k in range(1, h.n):
        nxt = [Fraction(0)] * (len(pm1) + 1)
        for i, c in enumerate(pm1):
            nxt[i] += diag[k] * c
            nxt[i + 1] -= c
        for i, c in enumerate(pm2):
            nxt[i] -= bonds[k - 1] * c
        pm2, pm1 = pm1, nxt
    return pm1


def sorted_c(values):
    return np.sort_complex(np.asarray(values))


def multiset_gap(a, b):
    """Worst distance in a greedy nearest-neighbour pairing of two value sets."""
    a = list(np.asarray(a, complex))
    b = list(np.asarray(b, complex))
    assert len(a) == len(b)
    worst = 0.0
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        worst = max(worst, abs(x - b.pop(j)))
    return worst


class TestClosedFormOracles:
    def test_three_site_uncoupled_levels(self):
        s = spectrum_of(well(3, 0.0))
        expect = np.array([2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
        assert np.max(np.abs(s.values.real - expect)) <= 1e-14
        assert np.max(np.abs(s.values.imag)) == 0.0
        assert s.all_real

    def test_ten_site_uncoupled_levels(self):
        s = spectrum_of(well(10, 0.0))
        assert np.max(np.abs(s.values.real - dirichlet_levels(10))) <= 1e-13

    def test_two_site_levels_inside_the_real_window(self):
        s = spectrum_of(well(2, 0.5))
        expect = np.array([2.0 - np.sqrt(3.0) / 2.0, 2.0 + np.sqrt(3.0) / 2.0])
        assert np.max(np.abs(s.values.real - expect)) <= 1e-14
        assert s.all_real and s.min_gap > 1e-8

    def test_two_site_complex_pair_past_the_window(self):
        s = spectrum_of(well(2, 2.0))
        expect = np.array([2.0 - 1j * np.sqrt(3.0), 2.0 + 1j * np.sqrt(3.0)])
        assert np.max(np.abs(sorted_c(s.values) - expect)) <= 1e-10
        assert not s.all_real
        assert s.min_gap == pytest.approx(2.0 * np.sqrt(3.0), abs=1e-10)

    def test_two_site_coalescence_at_unit_coupling(self):
        s = spectrum_of(well(2, 1.0))
        assert np.max(np.abs(s.values - 2.0)) <= 1e-6


class TestEigenReal:
    def test_vectors_are_orthonormal_and_satisfy_the_eigenproblem(self):
        s = symmetrize(well(12, 0.7))
        spec, w = eigen_real(s, want_vectors=True)
        assert np.max(np.abs(w.T @ w - np.eye(12))) <= 1e-12
        a = np.diag(s.s_diag)
        idx = np.arange(11)
        a[idx, idx + 1] = s.s_off
        a[idx + 1, idx] = s.s_off
        snorm = np.max(np.abs(a))
        resid = a @ w - w * spec.values.real
        assert np.max(np.abs(resid)) <= 1e-10 * snorm

    def test_three_site_vectors_match_the_closed_form_with_positive_leading_entry(self):
        _, w = eigen_real(symmetrize(well(3, 0.0)), want_vectors=True)
        half = 0.5
        r = np.sqrt(2.0) / 2.0
        expect = np.array([[half, r, half], [r, 0.0, -r], [half, -r, half]]).T
        assert np.max(np.abs(w - expect.T)) <= 1e-12

    def test_matches_numpy_on_a_large_symmetrizable_well(self):
        s = symmetrize(well(40, 0.95))
        spec = eigen_real(s)
        a = np.diag(s.s_diag)
        idx = np.arange(39)
        a[idx, idx + 1] = s.s_off
        a[idx + 1, idx] = s.s_off
        assert np.max(np.abs(spec.values.real - np.linalg.eigvalsh(a))) <= 1e-12


class TestEigenGeneral:
    CASES = (
        (2, 2.0, 2.0),
        (5, 1.3, 1.3),
        (9, 1.2, 1.2),
        (21, 1.01, 1.01),
        (34, 1.01, 1.01),
        (8, 0.7, -1.4),
    )

    def test_matches_numpy_on_complex_spectra(self):
        for n, lam, mu in self.CASES:
            h = well(n, lam, mu)
            got = eigen_general(h).values
            ref = np.linalg.eigvals(dense(h))
            scale = max(1.0, np.max(np.abs(ref)))
            assert multiset_gap(got, ref) <= 1e-9 * scale, (n, lam, mu)

    def test_agrees_with_the_real_route_when_symmetrizable(self):
        for n, lam in ((3, 0.0), (11, 0.9), (6, -0.6)):
            h = well(n, lam)
            a = eigen_general(h).values
            b = eigen_real(symmetrize(h)).values
            assert np.max(np.abs(sorted_c(a) - sorted_c(b))) <= 1e-9

    def test_complex_values_come_in_exact_conjugate_pairs(self):
        h = well(9, 1.2)
        v = eigen_general(h).values
        tol = reality_tolerance(h)
        pairs = v[np.abs(v.imag) > tol]
        assert pairs.size >= 2 and pairs.size % 2 == 0
        assert np.array_equal(sorted_c(pairs), sorted_c(np.conj(pairs)))
        assert np.max(np.abs(v[np.abs(v.imag) <= tol].imag), initial=0.0) <= tol

    def test_trace_identity(self):
        for n, lam, mu in ((9, 1.2, 1.2), (14, 0.8, -1.1), (30, 0.5, 0.5)):
            v = eigen_general(well(n, lam, mu)).values
            assert abs(v.sum() - 2.0 * n) <= 1e-9 * n

    def test_determinant_identity(self):
        for n, lam, mu in ((7, 1.3, 1.3), (5, -0.6, 0.9)):
            h = well(n, lam, mu)
            det = np.linalg.det(dense(h))
            prod = np.prod(eigen_general(h).values)
            assert abs(prod - det) <= 1e-9 * max(1.0, abs(det))

    def test_reality_tolerance_override_controls_classification(self):
        h = well(2, 1.0000001)
        assert not eigen_general(h).all_real
        assert eigen_general(h, reality_tol=1e-3).all_real


class TestCharPoly:
    def test_two_site_value_at_the_diagonal_energy(self):
        assert char_poly(well(2, 0.0), 2.0) == -1.0

    def test_three_site_center_energy_is_a_root(self):
        assert abs(char_poly(well(3, 0.0), 2.0)) <= 1e-15

    def test_matches_numpy_determinant_at_complex_points(self):
        for n, lam, mu, z in ((7, 0.8, 0.8, 1.37 + 0.2j), (5, -0.6, -0.6, -0.3 + 0.0j)):
            h = well(n, lam, mu)
            ref = np.linalg.det(dense(h) - z * np.eye(n))
            got = char_poly(h, z)
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_vanishes_at_spectrum_points_relative_to_offroot_values(self):
        h = well(6, 0.5)
        spec = spectrum_of(h)
        probe = max(abs(char_poly(h, z)) for z in (0.0, 1.1, 2.3, 4.7))
        for v in spec.values:
            assert abs(char_poly(h, v)) <= 1e-10 * probe


class TestExactPolynomialOracle:
    CASES = (
        (2, 2.0, 2.0),
        (3, 1.3, 1.3),
        (4, 0.5, -0.5),
        (5, 0.3, 0.3),
        (5, 1.2, 1.2),
        (4, -0.8, 0.6),
    )

    def test_roots_of_the_exactly_expanded_polynomial_match_the_solver(self):
        for n, lam, mu in self.CASES:
            h = well(n, lam, mu)
            coeffs = exact_charpoly_coeffs(h)
            ref = np.roots([float(c) for c in reversed(coeffs)])
            got = eigen_general(h).values
            assert multiset_gap(got, ref) <= 1e-8, (n, lam, mu)

    def test_leading_and_constant_coefficients_are_exact(self):
        h = well(4, 0.5, -0.5)
        coeffs = exact_charpoly_coeffs(h)
        assert coeffs[-1] == 1  # monic up to the (-1)^n sign convention
        assert float(coeffs[0]) == pytest.approx(np.linalg.det(dense(h)), rel=1e-12)


class TestSpectralSymmetries:
    def test_coupling_sign_flip_preserves_the_matched_line_spectrum(self):
        # At n = 11, lambda = 1.01 the middle level 2 and the pair 2 +/- 0.09i
        # share the real part 2, so the sorted order of the two solves is a
        # matter of rounding; compare the values as multisets.
        for n, lam in ((6, 0.7), (11, 1.01)):
            a = spectrum_of(well(n, lam)).values
            b = spectrum_of(well(n, -lam)).values
            assert multiset_gap(a, b) <= 1e-10

    def test_opposite_line_is_isospectral_to_the_matched_line(self):
        for n, lam in ((5, 0.6), (16, 0.9), (9, 0.3)):
            a = sorted_c(spectrum_of(well(n, lam, lam)).values)
            b = sorted_c(spectrum_of(well(n, lam, -lam)).values)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_two_site_lines_are_not_isospectral(self):
        # With a single bond the two couplings land on the same pair of
        # entries, so the off-diagonal product differs between the lines:
        # (1 - lam)(1 + lam) on the matched line versus (1 + lam)^2 on the
        # opposite one.  The spectra are 2 +/- sqrt(1 - lam^2) and
        # 2 +/- (1 + lam); every n >= 3 restores the shared end-bond
        # products and with them the isospectrality the classes above pin.
        for lam in (0.3, 0.7, 0.98):
            matched = sorted_c(spectrum_of(well(2, lam, lam)).values)
            opposite = sorted_c(spectrum_of(well(2, lam, -lam)).values)
            gap = np.sqrt(1.0 - lam * lam)
            assert np.max(np.abs(matched - (2.0 + gap * np.array([-1, 1])))) <= 1e-12
            assert np.max(np.abs(opposite - (2.0 + (1 + lam) * np.array([-1, 1])))) <= 1e-12
            assert np.max(np.abs(matched - opposite)) > 0.1


class TestSpectrumType:
    def test_values_are_sorted_by_real_then_imaginary_part(self):
        v = spectrum_of(well(9, 1.2)).values
        order = np.lexsort((v.imag, v.real))
        assert np.array_equal(order, np.arange(9))

    def test_min_gap_is_the_smallest_pairwise_distance(self):
        s = spectrum_of(well(4, 0.0))
        v = s.values
        dist = np.abs(v[:, None] - v[None, :])
        dist[np.diag_indices(4)] = np.inf
        assert s.min_gap == pytest.approx(dist.min(), abs=1e-14)

    def test_to_dict_round_trips_through_json(self):
        s = spectrum_of(well(3, 0.5))
        d = json.loads(json.dumps(s.to_dict()))
        assert [row["re"] for row in d["values"]] == list(s.values.real)
        assert [row["im"] for row in d["values"]] == list(s.values.imag)
        assert d["all_real"] is True
        assert d["min_gap"] == s.min_gap
        assert s.n == 3


class TestScans:
    def test_matched_line_scan_flips_strictly_outside_the_unit_interval(self):
        grid = np.arange(-1.2, 1.2 + 1e-9, 0.05)
        scan = scan_line(6, grid, +1)
        assert scan.diagnostics == []
        for lam, mu, all_real, pairs, min_gap in scan.rows():
            assert mu == lam
            if abs(lam) <= 1.05 + 1e-9:
                assert all_real, lam
            if abs(lam) >= 1.10 - 1e-9:
                assert not all_real and pairs >= 1, lam
            if abs(lam) <= 0.95 + 1e-9:
                assert min_gap > 1e-8

    def test_razor_points_are_degenerate_but_real(self):
        scan = scan_line(6, np.array([-1.0, 1.0]), +1)
        for _, _, all_real, pairs, min_gap in scan.rows():
            assert all_real and pairs == 0
            assert min_gap <= 1e-5

    def test_product_grid_is_row_major_in_lambda_then_mu(self):
        lams = np.array([0.0, 0.5])
        mus = np.array([-0.5, 0.0, 0.5])
        scan = scan_domain(3, lams, mus)
        got = [(row[0], row[1]) for row in scan.rows()]
        assert got == [(l, m) for l in lams for m in mus]

    def test_origin_cell_is_clean(self):
        scan = scan_domain(3, np.array([0.0]), np.array([0.0]))
        rows = list(scan.rows())
        assert rows[0][2] is True and rows[0][3] == 0
        assert rows[0][4] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_complex_pair_count_matches_the_values(self):
        scan = scan_line(5, np.array([1.3]), +1)
        row = next(iter(scan.rows()))
        v = spectrum_of(well(5, 1.3)).values
        tol = reality_tolerance(well(5, 1.3))
        n_real = int(np.sum(np.abs(v.imag) <= tol))
        assert row[3] == (5 - n_real) // 2 and row[3] >= 1

    def test_scans_are_deterministic(self):
        grid = np.arange(-1.2, 1.2 + 1e-9, 0.1)
        a = scan_line(4, grid, -1)
        b = scan_line(4, grid, -1)
        assert np.array_equal(a.lam, b.lam) and np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.all_real, b.all_real)
        assert np.array_equal(a.complex_pairs, b.complex_pairs)
        assert np.array_equal(a.min_gap, b.min_gap)

    def test_invalid_dimension_is_rejected(self):
        with pytest.raises(ValidationError):
            scan_domain(1, np.array([0.0]), np.array([0.0]))

    def test_an_empty_product_grid_is_an_invalid_request(self):
        for lams, mus in (([], [0.0]), ([0.0], []), ([], [])):
            with pytest.raises(ValidationError, match="non-empty"):
                scan_domain(3, np.array(lams), np.array(mus))

    def test_an_empty_line_grid_is_an_invalid_request(self):
        with pytest.raises(ValidationError, match="non-empty"):
            scan_line(3, np.array([]), +1)


class TestCellsUlpsFromAnExceptionalPoint:
    """Pair counts a few ulps from an EP, against exact rational discriminants.

    The discriminants are formed from the matrix's own rounded entries with
    Fraction arithmetic, so they classify the double-precision matrix itself.
    On the complex side every imaginary part clears the reality tolerance at
    least twofold.
    """

    @staticmethod
    def pairs(h):
        v = spectrum_of(h).values
        return int(np.count_nonzero(np.abs(v.imag) > reality_tolerance(h)) // 2)

    @staticmethod
    def bond(h, i):
        return Fraction(float(h.super[i])) * Fraction(float(h.sub[i]))

    def test_four_site_count_follows_the_exact_discriminant(self):
        # With y = 2 - E and end-bond product b, det = y^4 - (2b + 1) y^2 + b^2:
        # a quadratic in y^2 with discriminant 4b + 1, which changes sign at
        # lambda = sqrt(5)/2.  Below zero both mirror levels E, 4 - E turn
        # complex together, with |Im y| ~ sqrt(-(4b + 1)) / 2.
        lam0 = np.sqrt(5.0) / 2.0
        for k in range(-8, 9):
            for sign in (1.0, -1.0):
                h = well(4, sign * (lam0 + k * np.spacing(lam0)))
                disc = 4 * self.bond(h, 0) + 1
                assert disc > 0 or float(-disc) ** 0.5 / 2 > 2 * reality_tolerance(h)
                assert self.pairs(h) == (2 if disc < 0 else 0), (k, sign)

    def test_three_site_count_follows_the_exact_bond_sum(self):
        # With y = 2 - E, det = y^3 - (b0 + b1) y: a complex pair exactly when
        # the bond sum is negative, with |Im| = sqrt(-(b0 + b1)).
        for k in range(9):
            for sign in (1.0, -1.0):
                h = well(3, sign * (1.0 + k * np.spacing(1.0)))
                total = self.bond(h, 0) + self.bond(h, 1)
                assert total >= 0 or float(-total) ** 0.5 > 2 * reality_tolerance(h)
                assert self.pairs(h) == (1 if total < 0 else 0), (k, sign)


class TestSolverFailures:
    @staticmethod
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def test_lapack_failures_are_typed_convergence_errors(self, monkeypatch):
        for name in ("eigvals", "eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, self.fail)
        with pytest.raises(ConvergenceError):
            eigen_general(well(5, 1.3))
        with pytest.raises(ConvergenceError):
            eigen_real(symmetrize(well(5, 0.3)))
        with pytest.raises(ConvergenceError):
            eigen_real(symmetrize(well(5, 0.3)), want_vectors=True)

    def test_scan_records_a_failed_cell_and_continues(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", self.fail)
        scan = scan_line(5, [0.3, 1.3], +1)
        assert scan.complex_pairs.tolist() == [0, -1]
        assert scan.all_real.tolist() == [True, False]
        assert np.isnan(scan.min_gap[1])
        assert len(scan.diagnostics) == 1 and scan.diagnostics[0][0] == 1
        assert "did not converge" in scan.diagnostics[0][3]


class TestRealityTolerance:
    def test_default_scales_with_the_gershgorin_radius(self):
        h = well(3, 0.0)
        assert reality_tolerance(h) == REALITY_TOL_FACTOR * max(1.0, h.gershgorin_radius())

    def test_override_wins(self):
        assert reality_tolerance(well(3, 0.0), 1e-3) == 1e-3

    def test_a_negative_or_non_finite_override_is_rejected(self):
        # n = 4 at lambda = 1.05 is real (its first EP is at sqrt(5)/2) but
        # takes the general branch; lambda = 0.5 takes the real branch.
        for bad in (-1.0, -1e-300, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError):
                reality_tolerance(well(3, 0.0), bad)
            for lam in (1.05, 0.5):
                with pytest.raises(ValidationError):
                    spectrum_of(well(4, lam), reality_tol=bad)
            with pytest.raises(ValidationError):
                scan_line(4, [0.5, 1.05], +1, reality_tol=bad)

    def test_a_zero_override_is_accepted(self):
        assert reality_tolerance(well(3, 0.0), 0.0) == 0.0
        assert spectrum_of(well(4, 1.05), reality_tol=0.0).values.shape == (4,)
