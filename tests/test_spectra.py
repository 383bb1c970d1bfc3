"""Eigenvalue routes and reality-domain scans for the boundary-coupled well.

Independent oracles frozen into this file:

* Dirichlet closed forms 2 - 2 cos(k pi / (n+1)) for the uncoupled chain,
* the two-site closed form 2 +/- sqrt(1 - lambda^2) and its complex
  continuation 2 +/- i sqrt(lambda^2 - 1),
* numpy's dense eigensolvers on the explicitly assembled matrix,
* the characteristic polynomial expanded with exact Fraction arithmetic and
  rooted by numpy's companion-matrix solver.
"""

import cmath
import math
import warnings
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cptwell import hamiltonian, spectra
from cptwell.dieudonne import kernel_basis
from cptwell.errors import ConvergenceError, NotSymmetrizable, NumericalError, ValidationError
from cptwell.hamiltonian import (
    DiscreteHamiltonian,
    bands,
    build,
    dense,
    dense_bands,
    end_bonds,
    gershgorin_radii,
    symmetrize,
)
from cptwell.quasihermitian import biorthogonalize
from cptwell.spectra import (
    BLOCK_ENTRIES,
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
    return build(n, (lam, lam if mu is None else mu))


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
    diag = [Fraction(2)] * h.n
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
        spec, w = eigen_real(s)
        assert np.max(np.abs(w.T @ w - np.eye(12))) <= 1e-12
        a = np.diag(np.full(12, 2.0))
        idx = np.arange(11)
        a[idx, idx + 1] = s.s_off
        a[idx + 1, idx] = s.s_off
        snorm = np.max(np.abs(a))
        resid = a @ w - w * spec.values.real
        assert np.max(np.abs(resid)) <= 1e-10 * snorm

    def test_three_site_vectors_match_the_closed_form_with_positive_leading_entry(self):
        _, w = eigen_real(symmetrize(well(3, 0.0)))
        half = 0.5
        r = np.sqrt(2.0) / 2.0
        expect = np.array([[half, r, half], [r, 0.0, -r], [half, -r, half]]).T
        assert np.max(np.abs(w - expect.T)) <= 1e-12

    def test_matches_numpy_on_a_large_symmetrizable_well(self):
        s = symmetrize(well(40, 0.95))
        spec = spectrum_of(well(40, 0.95))
        a = np.diag(np.full(40, 2.0))
        idx = np.arange(39)
        a[idx, idx + 1] = s.s_off
        a[idx + 1, idx] = s.s_off
        assert np.max(np.abs(spec.values.real - np.linalg.eigvalsh(a))) <= 1e-12

    def test_anything_but_a_symmetrized_form_is_an_invalid_argument(self):
        h = well(4, 0.3)
        for bad in (h, dense(h), None):
            with pytest.raises(ValidationError, match="expects a SymmetrizedForm"):
                eigen_real(bad)

    def test_an_overflowing_bond_product_is_a_numerical_error(self):
        # At n = 2 the single bond carries -1 - lam and -1 + mu, so on
        # mu = -lam its product overflows to +inf and the form is not finite.
        h = well(2, 1e308, -1e308)
        with pytest.raises(NumericalError, match="non-finite"):
            eigen_real(symmetrize(h))
        # spectrum_of sends the cell to the general branch instead, where H is
        # symmetric with the levels 2 -/+ (1 + 1e308).
        spec = spectrum_of(h)
        assert spec.all_real and not spec.values.imag.any()
        assert np.allclose(spec.values.real, [-1e308, 1e308], rtol=3e-16, atol=0.0)


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
            b = spectrum_of(h).values
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

    def test_matches_the_chebyshev_form_of_the_determinant(self):
        # For n >= 3, det(H - E) = U_n(x) + (lam^2 + mu^2) U_{n-2}(x)
        # + lam^2 mu^2 U_{n-4}(x) with x = 1 - E/2, U_k the Chebyshev
        # polynomials of the second kind and U_{-1} = 0.
        rng = np.random.default_rng(20261018)
        for n in range(3, 65):
            for _ in range(6):
                lam, mu = rng.uniform(-2.0, 2.0, 2)
                e = complex(rng.uniform(-1.0, 5.0), rng.uniform(-2.0, 2.0))
                x = 1.0 - e / 2.0
                u = [1.0 + 0.0j, 2.0 * x]  # U_0, U_1, ...
                for _ in range(n - 1):
                    u.append(2.0 * x * u[-1] - u[-2])
                ref = u[n] + (lam**2 + mu**2) * u[n - 2]
                if n >= 4:
                    ref += lam**2 * mu**2 * u[n - 4]
                got = char_poly(well(n, lam, mu), e)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (n, lam, mu, e)

    def test_two_sites_follow_their_own_closed_form(self):
        # The Chebyshev form fails at n = 2, where the single bond carries
        # super = -1 - lam and sub = -1 + mu.
        for lam, mu, e in ((0.3, -0.7, 1.1 + 0.4j), (1.5, 0.2, -0.3j), (-2.0, 2.0, 4.5)):
            ref = (2.0 - e) ** 2 - (1.0 + lam) * (1.0 - mu)
            assert abs(char_poly(well(2, lam, mu), e) - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_twice_rescaled_determinant_matches_the_exact_log_sum(self):
        # det(H0 - z) = prod_k (level_k - z) for the uncoupled well.  At these
        # points the recurrence is rescaled twice, yet the determinant stays
        # below the float maximum; the logs agree up to a multiple of 2 pi i.
        for n, z in ((342, 10.0 + 0.0j), (330, 10.0 - 3.0j), (337, -6.0 + 2.0j)):
            h = well(n, 0.0)
            got = char_poly(h, z)
            ref = np.sum(np.log(dirichlet_levels(n) - z))
            diff = np.log(got) - ref
            turns = diff.imag / (2.0 * np.pi)
            assert abs(diff.real) <= 1e-12 * ref.real, (n, z)
            assert abs(turns - round(turns)) <= 1e-12 * n, (n, z)

    def test_a_point_that_is_not_a_finite_number_is_refused(self):
        # Without the gate, inf and NaN give nan+nanj with RuntimeWarnings and
        # None a bare TypeError.
        h = well(4, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (float("inf"), -np.inf, float("nan"), complex(1.0, np.inf),
                        complex(np.nan, 0.0), None, "x", 10**400):
                with pytest.raises(ValidationError, match="finite number"):
                    char_poly(h, bad)
            assert char_poly(h, 1.5 + 0.25j) == char_poly(h, np.complex128(1.5 + 0.25j))

    def test_a_recurrence_past_the_float_range_is_a_numerical_error(self):
        # A factor |diag - e| or a bond past about 1e158 overflows before the
        # 1e150 rescale, and a bond product past the float range is infinite
        # already; without the check these give NaN with RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h, e in ((well(3, 0.3), 1e200), (well(2, 1e308, -1e308), 0.0),
                         (well(3, 1e200), 0.0), (well(3, 0.3), 1e200j)):
                with pytest.raises(NumericalError, match="left the float range"):
                    char_poly(h, e)
            # A finite recurrence whose determinant overflows keeps its log|det|.
            with pytest.raises(NumericalError, match=r"log\|det\| = "):
                char_poly(well(8, 0.3), 1e100)

    def test_a_determinant_past_the_float_range_is_a_numerical_error(self):
        ref = np.sum(np.log(np.abs(dirichlet_levels(400) - 10.0)))
        with pytest.raises(NumericalError, match=r"log\|det\| = ") as info:
            char_poly(well(400, 0.0), 10.0)
        logged = float(str(info.value).rsplit("= ", 1)[1])
        assert abs(logged - ref) <= 1e-9 * ref

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 400])
    def test_values_and_refusals_equal_a_recurrence_on_an_explicit_diagonal(self, n):
        couplings = (0.0, -0.0, 0.3, -0.41, 0.999999, 1.0, -2.5, 1e160, 1.7e308)
        rng = np.random.default_rng(n)
        points = [*np.linspace(-1.0, 5.0, 7).tolist(),
                  *[complex(a, b) for a, b in rng.uniform(-3.0, 5.0, (7, 2))],
                  1e150, -1e200, 1e300 + 1e300j, 2.0 + 1e160j, 1.7e308]
        outcomes = set()
        for lam in couplings:
            for mu in couplings:
                h = well(n, lam, mu)
                for e in points:
                    ref = explicit_diagonal_char_poly(h, e)
                    try:
                        got = char_poly(h, e)
                    except NumericalError as exc:
                        got = str(exc)
                    if isinstance(ref, str):
                        assert got == ref, (n, lam, mu, e)
                    else:
                        assert type(got) is complex, (n, lam, mu, e)
                        assert (got.real.hex(), got.imag.hex()) == (ref.real.hex(), ref.imag.hex())
                    outcomes.add(type(ref))
        assert outcomes == {complex, str}


def explicit_diagonal_char_poly(h, e):
    """`char_poly`'s recurrence with the diagonal as an explicit array of 2s.

    Returns det(H - e) as a Python complex, or the message of the
    NumericalError that `char_poly` raises.
    """
    z = complex(e)
    diag, bonds = np.full(h.n, 2.0), h.bonds
    pm2, p = 1.0 + 0.0j, diag[0] - z
    nscale = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, h.n):
            pm2, p = p, (diag[k] - z) * p - bonds[k - 1] * pm2
            if abs(p.real) + abs(p.imag) > 1e150:
                pm2, p, nscale = pm2 * 2.0**-512, p * 2.0**-512, nscale + 1
    if not cmath.isfinite(p):
        return f"the recurrence for det(H - e) left the float range at e={e!r}"
    try:
        return complex(math.ldexp(p.real, 512 * nscale), math.ldexp(p.imag, 512 * nscale))
    except OverflowError:
        log_mag = math.log(abs(p)) + 512 * nscale * math.log(2.0)
        return f"det(H - e) overflows the float range: log|det| = {log_mag:.17g}"


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


def exact_taylor_coeffs(h, c, m):
    """Coefficients of det(H - (c + t)) in powers of t, degrees 0..m, as Fractions.

    The three-term recurrence of `exact_charpoly_coeffs` with the diagonal
    shifted by c, truncated at degree m.
    """
    c = Fraction(c)
    diag = [Fraction(2) - c] * h.n
    bonds = [Fraction(a) * Fraction(b) for a, b in zip(h.super.tolist(), h.sub.tolist())]
    pm2 = [Fraction(1)] + [Fraction(0)] * m
    pm1 = ([diag[0], Fraction(-1)] + [Fraction(0)] * m)[: m + 1]
    for k in range(1, h.n):
        shifted = [Fraction(0)] + pm1[:-1]
        pm2, pm1 = pm1, [diag[k] * x - y - bonds[k - 1] * z for x, y, z in zip(pm1, shifted, pm2)]
    return pm1


near_unit = st.builds(lambda sign, k: sign * (1.0 + k * np.spacing(1.0)),
                      st.sampled_from([1.0, -1.0]), st.integers(-6, 6))


@st.composite
def taylor_cells(draw):
    """(n, lambda, mu, c, m): c the real part of one of the cell's LAPACK values."""
    n = draw(st.integers(2, 64))
    coupling = st.one_of(near_unit, st.floats(-3.0, 3.0))
    lam, mu = draw(coupling), draw(coupling)
    values = np.linalg.eigvals(dense(well(n, lam, mu)))
    c = float(values[draw(st.integers(0, n - 1))].real)
    return n, lam, mu, c, draw(st.integers(1, 4))


class TestExactTaylorCoefficients:
    @settings(max_examples=200, deadline=None)
    @given(cell=taylor_cells())
    # The exact constant coefficient rounds to -2.7961990761020457e-16 here;
    # a double-double expansion gives -2.796199076102045e-16, one ulp off.
    @example(cell=(6, 0.7242650100834385, 0.5231691446602884, 0.9447979977322342, 2))
    def test_coefficients_are_the_rounded_exact_ones_up_to_a_power_of_two(self, cell):
        n, lam, mu, c, m = cell
        h = well(n, lam, mu)
        got = spectra._taylor_charpoly(h.super, h.sub, c, m)
        exact = exact_taylor_coeffs(h, c, m)
        assert got.shape == (m + 1,)
        top = max(range(m + 1), key=lambda j: abs(exact[j]))
        if exact[top] == 0:
            assert not got.any()
            return
        # got[top] is exact[top] * 2**s rounded, so the ratio is 2**s to 53 bits.
        ratio = Fraction(float(got[top])) / exact[top]
        s = round(math.log2(ratio.numerator) - math.log2(ratio.denominator))
        assert got.tolist() == [float(x * Fraction(2) ** s) for x in exact], cell


class TestClusterIsolation:
    # A near-real group is re-solved only when no other value lies within 100
    # gaps of its centre; the values here are set by hand.
    GAP = 1e-6

    def resolve(self, third, monkeypatch):
        centres = []

        def taylor(sup, sub, c, m):
            centres.append(c)
            return np.array([-1.0, 0.0, 1.0])  # roots +-1, scaled by r = 1

        monkeypatch.setattr(spectra, "_taylor_charpoly", taylor)
        h = well(3, 0.5)
        values = np.array([1.0, 1.0 + 1e-7, third], dtype=complex)
        got = spectra._resolve_real_clusters(values, h.super, h.sub, self.GAP)
        return values, got, centres

    def test_a_group_with_a_value_within_100_gaps_keeps_lapack_s_values(self, monkeypatch):
        values, got, centres = self.resolve(1.0 + 50 * self.GAP, monkeypatch)
        assert centres == []
        assert got.tobytes() == values.tobytes()

    def test_an_isolated_group_is_re_solved(self, monkeypatch):
        values, got, centres = self.resolve(1.0 + 200 * self.GAP, monkeypatch)
        assert centres == [float(values[:2].real.mean())]
        assert sorted(got[:2].real.tolist()) == [centres[0] - 1.0, centres[0] + 1.0]
        assert got[2] == values[2]


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


# Couplings of the reality window, where every n >= 3 takes the real branch.
WINDOW = st.floats(-0.99, 0.99)
# The cells of TestCellsUlpsFromAnExceptionalPoint, (n, lambda) with mu = lambda:
# a few ulps from the first EP of n = 4 (sqrt(5)/2) and of n = 3 (1).
EP_CELLS = [
    (4, s * (np.sqrt(5.0) / 2.0 + k * np.spacing(np.sqrt(5.0) / 2.0)))
    for k in range(-8, 9) for s in (1.0, -1.0)
] + [(3, s * (1.0 + k * np.spacing(1.0))) for k in range(9) for s in (1.0, -1.0)]


def bitwise_equal(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestExactInvariantProperties:
    """Exact invariants of det(H - E): for n >= 3 the spectrum depends on the
    couplings only through the bond products (1 - lambda^2) and (1 - mu^2) at
    the two ends, and H - 2 is similar to its negative for every n."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 64), WINDOW, WINDOW)
    def test_coupling_signs_leave_the_real_branch_bit_for_bit(self, n, lam, mu):
        # Flipping a sign swaps the two factors of one end-bond product, and a
        # floating-point product does not depend on their order.
        ref = spectrum_of(well(n, lam, mu))
        for other in (well(n, -lam, mu), well(n, lam, -mu)):
            s = spectrum_of(other)
            assert bitwise_equal(s.values, ref.values), (n, lam, mu)
            assert s.all_real and bitwise_equal(np.float64(s.min_gap), np.float64(ref.min_gap))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 64), WINDOW, WINDOW)
    def test_swapping_the_couplings_keeps_the_spectrum(self, n, lam, mu):
        # Swapping them reverses the bond products, i.e. conjugates the
        # symmetrized form by the reversal: the same spectrum up to rounding.
        h = well(n, lam, mu)
        tol = 1e-12 * max(1.0, h.gershgorin_radius())
        a = spectrum_of(h).values
        b = spectrum_of(well(n, mu, lam)).values
        assert np.abs(a - b).max() <= tol, (n, lam, mu)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 64), WINDOW, WINDOW)
    def test_the_spectrum_is_mirror_symmetric_about_two(self, n, lam, mu):
        # D (H - 2) D = -(H - 2) for D = diag((-1)^k): E and 4 - E pair up.
        h = well(n, lam, mu)
        tol = 1e-12 * max(1.0, h.gershgorin_radius())
        v = spectrum_of(h).values
        assert np.abs(v + v[::-1] - 4.0).max() <= tol, (n, lam, mu)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(st.integers(2, 64), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.sampled_from(EP_CELLS).map(lambda cell: (cell[0], cell[1], cell[1])),
    ))
    def test_general_values_equal_their_own_conjugates(self, cell):
        # A real matrix has a conjugation-closed spectrum.  LAPACK's real
        # Hessenberg QR returns complex values as exact conjugate pairs, and so
        # does the cluster re-solve (np.roots of a real polynomial, shifted and
        # scaled by reals); nothing after them enforces it.
        v = eigen_general(well(*cell)).values
        assert np.array_equal(sorted_c(v), sorted_c(v.conj())), cell

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.lists(st.tuples(WINDOW, WINDOW), min_size=1, max_size=6),
           st.sampled_from(["lambda", "mu"]))
    def test_the_core_answers_orbit_images_bit_for_bit(self, n, cells, image):
        # For n >= 3 a sign flip of either coupling leaves both end bond
        # products' bits alone; at n = 2 the single bond (1 + lambda)(1 - mu)
        # keeps them under (lambda, mu) -> (-mu, -lambda).
        lam, mu = np.array(cells).T
        if n == 2:
            lam2, mu2 = -mu, -lam
        else:
            lam2, mu2 = (-lam, mu) if image == "lambda" else (lam, -mu)
        ref = spectra._solve(n, lam, mu)
        got = spectra._solve(n, lam2, mu2)
        assert not ref[4] and not got[4]
        for a, b in zip(ref[:4], got[:4]):
            assert a.tobytes() == b.tobytes(), (n, cells, image)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95),
           st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]))
    def test_two_sites_break_the_sign_invariants(self, a, b, sa, sb):
        # One bond carries both couplings, (1 + lambda)(1 - mu), so the levels
        # 2 -/+ sqrt((1 + lambda)(1 - mu)) move when either sign flips.
        lam, mu = sa * a, sb * b

        def levels(lam, mu):
            return spectrum_of(well(2, lam, mu)).values.real

        for la, m in ((lam, mu), (-lam, mu), (lam, -mu)):
            gap = np.sqrt((1.0 + la) * (1.0 - m))
            assert np.abs(levels(la, m) - (2.0 + gap * np.array([-1.0, 1.0]))).max() <= 1e-12
        assert np.abs(levels(-lam, mu) - levels(lam, mu)).max() > 1e-3
        assert np.abs(levels(lam, -mu) - levels(lam, mu)).max() > 1e-3


class TestHalfSizeBlockOracles:
    """Closed forms that the real branch meets to the last bits.

    Its levels are c -/+ sigma for the singular values sigma of a half-size
    bidiagonal block, with c = 2 the diagonal: an odd chain's middle level is
    c itself, and a two-site level is 2 -/+ one square root.
    """

    def test_uncoupled_levels_match_the_closed_form_to_2e_15(self):
        for n in range(2, 65):
            v = spectrum_of(well(n, 0.0)).values
            assert np.abs(v.real - dirichlet_levels(n)).max() <= 2e-15, n
            assert not v.imag.any()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 32).map(lambda q: 2 * q + 1), WINDOW, WINDOW)
    def test_an_odd_chain_has_the_level_two_exactly(self, n, lam, mu):
        h = well(n, lam, mu)
        assert spectrum_of(h).values[n // 2] == 2.0, (n, lam, mu)

    @settings(max_examples=300, deadline=None)
    @given(WINDOW, WINDOW)
    def test_two_site_levels_equal_the_closed_form_bit_for_bit(self, lam, mu):
        gap = np.sqrt((1.0 + lam) * (1.0 - mu))
        v = spectrum_of(well(2, lam, mu)).values
        assert bitwise_equal(v.real, np.array([2.0 - gap, 2.0 + gap])), (lam, mu)


class TestOneHamiltonianType:
    # A DiscreteHamiltonian is the model's H(lambda, mu) and nothing else: its
    # bands derive from n and the couplings, so the real branch's diagonal 2
    # holds for every instance.
    def test_bands_are_not_arguments(self):
        h = well(3, 0.0)
        with pytest.raises(TypeError):
            DiscreteHamiltonian(3, (h.lam, h.mu), np.array([1.0, 2.0, 3.0]), h.super, h.sub)
        with pytest.raises(TypeError):
            DiscreteHamiltonian(3, (h.lam, h.mu), diag=np.array([1.0, 2.0, 3.0]))

    def test_bands_are_read_only(self):
        h = DiscreteHamiltonian(4, (0.3, -0.2))
        for band in (h.super, h.sub):
            with pytest.raises(ValueError, match="read-only"):
                band[0] = 5.0
        with pytest.raises(FrozenInstanceError):
            h.super = np.ones(3)
        with pytest.raises(FrozenInstanceError):
            h.lam = 0.5

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_bands_equal_the_band_builder_and_build_bit_for_bit(self, n):
        for lam, mu in ((0.0, 0.0), (0.4, -0.3), (-2.5, 0.27), (1e308, -1e308)):
            h = DiscreteHamiltonian(n, (lam, mu))
            built = build(n, (lam, mu))
            assert h.n == built.n == n and type(h.n) is int
            assert (h.lam, h.mu) == (lam, mu)
            for got, want, other in zip((h.super, h.sub), bands(n, lam, mu),
                                        (built.super, built.sub)):
                assert got.dtype == want.dtype and got.shape == want.shape, (n, lam, mu)
                assert got.tobytes() == want.tobytes() == other.tobytes(), (n, lam, mu)

    def test_the_couplings_may_be_a_plain_pair_and_the_size_a_numpy_integer(self):
        h = DiscreteHamiltonian(np.int64(5), (0.3, -0.2))
        assert (type(h.n), type(h.lam), type(h.mu)) == (int, float, float)
        assert spectrum_of(h).values.tobytes() == spectrum_of(well(5, 0.3, -0.2)).values.tobytes()
        with pytest.raises(ValidationError, match="dimension"):
            DiscreteHamiltonian(2.5, (0.3, -0.2))


def refuse(*args, **kwargs):
    raise AssertionError("called off its route")


def assert_one_cell_matches_the_core(n, lam, mu, reality_tol=None):
    """`spectrum_of(build(n, (lam, mu)))` against row 0 of `_solve` on the cell's couplings.

    The values, all_real and min_gap must be equal bit for bit, or both must
    fail with the same error type and message.  Returns whether they failed.
    """
    values, all_real, _, min_gap, failed = spectra._solve(
        n, np.array([lam]), np.array([mu]), reality_tol
    )
    h = build(n, (lam, mu))
    if failed:
        with pytest.raises(NumericalError) as info:
            spectrum_of(h, reality_tol)
        assert type(info.value) is type(failed[0]), (n, lam, mu)
        assert str(info.value) == str(failed[0]), (n, lam, mu)
        return True
    s = spectrum_of(h, reality_tol)
    assert s.values.tobytes() == values[0].tobytes(), (n, lam, mu)
    assert s.all_real is bool(all_real[0]), (n, lam, mu)
    assert np.float64(s.min_gap).tobytes() == min_gap[0].tobytes(), (n, lam, mu)
    return False


# Couplings of the one-cell pin: inside the window, one rounding step from its
# edge, on it, just past it, far outside and near the float range.
PIN_COUPLINGS = [0.0] + [
    sign * x
    for x in (0.3, 1.0 - 2.0**-53, 1.0, 1.01, 2.5, 1e154, 1e300, 1.7e308)
    for sign in (1.0, -1.0)
]


class TestOneCellRoute:
    # spectrum_of solves a real-branch cell from its two boundary bond
    # products, without the bands and outside `_solve`; it must give the
    # core's answer bit for bit, and route every other cell to the core.
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 16, 33, 64])
    def test_spectrum_of_matches_the_core_bit_for_bit(self, n):
        cells = [(lam, mu) for lam in PIN_COUPLINGS for mu in PIN_COUPLINGS]
        if n == 2:
            # (1 + 1e200)(1e200 - 1) overflows to +inf: the general branch.
            cells.append((-1e200, 1e200))
        routed = [spectra._real_branch(*end_bonds(n, lam, mu)) for lam, mu in cells]
        failed = [assert_one_cell_matches_the_core(n, lam, mu) for lam, mu in cells]
        assert 0 < sum(routed) < len(cells)
        # At n = 3 the middle row holds both boundary bonds, so near the float
        # range its Gershgorin radius overflows and the cell fails.
        assert any(failed) == (n == 3)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_a_failing_real_branch_cell_raises_what_the_core_records(self, n, monkeypatch):
        svd = np.linalg.svd

        def spoiled(a, *args, **kwargs):
            v = svd(a, *args, **kwargs)
            v[-1, 0] = np.nan
            return v

        for broken in (TestSolverFailures.fail, spoiled):
            monkeypatch.setattr(np.linalg, "svd", broken)
            assert assert_one_cell_matches_the_core(n, 0.3, -0.6)
            monkeypatch.undo()

    def test_a_real_branch_cell_needs_neither_the_core_nor_the_bands(self, monkeypatch):
        monkeypatch.setattr(spectra, "_solve", refuse)
        monkeypatch.setattr(hamiltonian, "bands", refuse)
        for n, lam, mu in ((2, 0.3, -0.6), (7, 0.98, -0.98), (64, 0.0, 0.5)):
            assert spectrum_of(build(n, (lam, mu))).all_real
        for n, lam, mu in ((2, 1.3, 1.6), (7, 0.98, 1.0), (2, -1e200, 1e200)):
            with pytest.raises(AssertionError, match="off its route"):
                spectrum_of(build(n, (lam, mu)))

    def test_a_good_tolerance_leaves_a_real_branch_cell_as_it_is(self):
        for n in (2, 3, 8):
            for tol in (0.0, 1e-3):
                assert_one_cell_matches_the_core(n, 0.3, -0.5, tol)

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_the_end_bond_products_are_the_bands_first_and_last_bit_for_bit(self, n):
        huge = (1e308, -1e308)
        for lam, mu in ((0.0, 0.0), (0.4, -0.3), (-2.5, 0.27), (1.0, -1.0), (1.0 - 2.0**-53, 0.5),
                        huge, huge[::-1], (1e308, 1e308), (-1e308, 0.2), (0.7, 1e308)):
            sup, sub = bands(n, lam, mu)
            with np.errstate(over="ignore"):
                bonds = sup * sub
            first, last = end_bonds(n, lam, mu)
            assert type(first) is float and type(last) is float
            assert np.float64(first).tobytes() == bonds[0].tobytes(), (n, lam, mu)
            assert np.float64(last).tobytes() == bonds[-1].tobytes(), (n, lam, mu)
            real = ((bonds > 0.0) & (bonds < np.inf)).all()
            assert spectra._real_branch(first, last) is bool(real), (n, lam, mu)

    def test_build_checks_the_size_and_couplings_without_deriving_bands(self, monkeypatch):
        monkeypatch.setattr(hamiltonian, "bands", refuse)
        nan, inf = float("nan"), float("inf")
        for n, pair in ((1, (0.1, 0.2)), (2.5, (0.1, 0.2)), (4, (nan, 0.0)), (4, (0.0, -inf))):
            with pytest.raises(ValidationError):
                build(n, pair)
            with pytest.raises(ValidationError):
                DiscreteHamiltonian(n, pair)
        h = build(4, (0.1, 0.2))
        monkeypatch.undo()
        assert h.super.shape == (3,)

    def test_bands_are_derived_once_on_first_access(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return bands(*args)

        monkeypatch.setattr(hamiltonian, "bands", counted)
        h = build(5, (0.3, -0.2))
        assert calls == []
        first = (h.sub, h.super)
        assert calls == [(5, 0.3, -0.2)]
        assert all(a is b for a, b in zip(first, (h.sub, h.super)))
        assert h.bonds.tobytes() == (h.super * h.sub).tobytes() and len(calls) == 1
        for got, want in zip((h.super, h.sub), bands(5, 0.3, -0.2)):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable


class TestHugeCouplings:
    def test_overflowing_intermediates_raise_no_warnings(self):
        # The bond products overflow here; the cells are answered without a
        # RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = spectrum_of(well(2, 1e308, 0.0))
            assert np.array_equal(s.values, 2.0 + 1e154 * np.array([-1.0, 1.0]))
            assert s.all_real
            scan = scan_domain(3, [1e300], [1e300])
            # Levels 2 and 2 +/- sqrt(2 - lambda^2 - mu^2) = 2 +/- i sqrt(2) 1e300.
            assert scan.complex_pairs.tolist() == [1] and not scan.all_real[0]
            assert scan.min_gap[0] == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-12)
            for n, lam, mu in ((2, 1e308, 1e308), (3, 1e308, 0.0), (5, 1.0, 1e308),
                               (5, 1e154, 1e-300), (9, -1e308, 1e308)):
                spectrum_of(well(n, lam, mu))
                scan_domain(n, [lam, 0.5], [mu, -mu])
                scan_line(n, [lam], -1)

    def test_an_infinite_bond_product_takes_the_general_branch(self):
        # (1 + lambda)(1 - mu) = 1e400 overflows; symmetrizing it would give
        # NaN levels.  The exact levels are 2 -/+ (1 + 1e200).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = spectrum_of(well(2, 1e200, -1e200))
            scan = scan_line(2, [1e200, 0.5], -1)
        assert s.all_real
        assert np.allclose(s.values, 2.0 + 1e200 * np.array([-1.0, 1.0]), rtol=2e-16, atol=0.0)
        assert s.min_gap == pytest.approx(2e200, rel=1e-15)
        assert scan.all_real.tolist() == [True, True] and scan.complex_pairs.tolist() == [0, 0]
        assert scan.min_gap[0] == s.min_gap and scan.diagnostics == []

    def test_an_overflowing_cluster_expansion_keeps_lapacks_values(self):
        # Both levels 2 -/+ sqrt(1.7e308 * (1e100 - 1)) lie within the cluster
        # gap 1e-5 * 1.7e308 of each other, but the bonds are too large to be
        # re-solved; re-solving from an overflowed expansion would give 0, 0.
        levels = np.sqrt(1.7e308) * np.sqrt(1e100) * np.array([-1.0, 1.0])
        for solve in (spectrum_of, eigen_general):
            s = solve(well(2, -1.7e308, 1e100))
            assert np.allclose(s.values, levels, rtol=1e-15, atol=0.0), solve
            assert s.all_real and s.min_gap == pytest.approx(2.0 * levels[1], rel=1e-15)
        # With y = 2 - E, n = 5 has det(H - E) = y (y^4 + (l^2 + m^2 - 4) y^2
        # + l^2 m^2 - 2 (l^2 + m^2) + 3): the levels are 2 and, to relative
        # order 1/m^2, 2 +/- i l and 2 +/- i m.  Re-solving from the
        # overflowed expansion would merge 2 +/- i m into a triple level 2.
        expected = 2.0 + 1j * np.array([-1e307, -1e300, 0.0, 1e300, 1e307])
        v = spectrum_of(well(5, 1e307, 1e300)).values
        v = v[np.argsort(v.imag)]
        assert (np.abs(v - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected))).all()
        assert scan_domain(5, [1e307], [1e300]).complex_pairs.tolist() == [2]

    def test_an_infinite_bond_product_skips_the_cluster_expansion(self, monkeypatch):
        # A bond, or a bond product, past max / (2**27 + 1) (an infinite one
        # included) keeps the re-solve from expanding: the row keeps LAPACK's
        # values.  At n = 64 and (1e154, 1e154) the bond products are -1e308
        # and finite.
        cells = ((2, -1.7e308, 1e100), (5, 1e307, 1e300), (64, 1e154, 1e154))
        with np.errstate(over="ignore", invalid="ignore"):
            for n, lam, mu in cells:
                h = well(n, lam, mu)
                magnitudes = np.abs(np.concatenate((h.super, h.sub, h.bonds)))
                assert (magnitudes > np.finfo(float).max / 134217729.0).any()
            monkeypatch.setattr(spectra, "_taylor_charpoly", refuse)
            for n, lam, mu in cells:
                h = well(n, lam, mu)
                values = np.linalg.eigvals(dense(h))
                gap = spectra.EP_CLUSTER_GAP * h.gershgorin_radius()
                assert spectra._may_cluster(spectra._pairwise_gaps(values[None]), gap)[0]
                again = spectra._resolve_real_clusters(values, h.super, h.sub, gap)
                assert again.tobytes() == values.tobytes(), (n, lam, mu)
                assert eigen_general(h).all_real == (n == 2)

    def test_an_overflowing_gershgorin_radius_is_a_numerical_error(self):
        # The exact levels are 2 and 2 +/- i sqrt(2) 1e308, past the float
        # range; an infinite radius would make every value count as real.
        h = well(3, 1e308, 1e308)
        for tol in (None, 1e-3):
            with pytest.raises(NumericalError, match="Gershgorin radius"):
                spectrum_of(h, reality_tol=tol)
            with pytest.raises(NumericalError, match="Gershgorin radius"):
                eigen_general(h, reality_tol=tol)
            scan = scan_line(3, [1e308, 0.5], +1, reality_tol=tol)
            assert scan.complex_pairs.tolist() == [-1, 0]
            assert scan.all_real.tolist() == [False, True] and np.isnan(scan.min_gap[0])
            assert [d[0] for d in scan.diagnostics] == [0]
            assert "Gershgorin radius" in scan.diagnostics[0][3]

    def test_radius_and_tolerance_overflow_without_a_warning(self):
        h = well(3, 1e308, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert h.gershgorin_radius() == np.inf
            with pytest.raises(NumericalError, match="Gershgorin radius"):
                reality_tolerance(h)
            assert np.isinf(gershgorin_radii(*bands(3, np.array([1e308, -1e308]), 1e308))).all()
            assert h.bonds.tolist() == [-np.inf, -np.inf]
            with pytest.raises(NumericalError, match="Gershgorin radius"):
                kernel_basis(h)
            with pytest.raises(NotSymmetrizable):
                biorthogonalize(h)

    def test_imaginary_parts_near_the_float_maximum_stay_finite(self):
        # The exact levels are 2 +/- 1e308 i; LAPACK returns them as a finite
        # conjugate pair, a rounding from the exact value.
        v = spectrum_of(well(2, 1e308, 1e308)).values
        assert np.isfinite(v).all() and v.real.tolist() == [2.0, 2.0]
        assert v.imag[1] == -v.imag[0] == pytest.approx(1e308, rel=1e-15)


class TestSpectrumType:
    def test_values_are_sorted_by_real_then_imaginary_part(self):
        v = spectrum_of(well(9, 1.2)).values
        order = np.lexsort((v.imag, v.real))
        assert np.array_equal(order, np.arange(9))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.tuples(st.integers(2, 24), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        st.sampled_from(EP_CELLS).map(lambda cell: (cell[0], cell[1], cell[1])),
    ))
    def test_general_values_come_in_lexsort_order(self, cell):
        # Includes the cells whose near-real groups are re-solved.
        v = eigen_general(well(*cell)).values
        assert np.array_equal(np.lexsort((v.imag, v.real)), np.arange(v.size)), cell

    # Hand-built rows with ties: equal real parts, and values that differ
    # only in the sign of a zero.
    PARTS = st.sampled_from([0.0, -0.0, 1.5, -2.25, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(PARTS, PARTS), min_size=4, max_size=4),
                    min_size=1, max_size=5))
    def test_tied_values_keep_lexsort_order(self, rows):
        # The general branch sorts whatever LAPACK returns; here LAPACK returns
        # the hand-built rows (and the re-solve, which would act on their ties,
        # leaves them as they are).  The order, zeros' signs included, must be
        # the stable lexsort's.
        raw = np.array([[complex(re, im) for re, im in row] for row in rows])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvals", lambda a: raw.copy())
            mp.setattr(spectra, "_resolve_real_clusters", lambda values, *rest: values)
            cells = np.full(len(rows), 1.5)
            values = spectra._solve(4, cells, cells, general=True)[0]
        order = np.lexsort((raw.imag, raw.real), axis=-1)
        expect = np.take_along_axis(raw, order, axis=-1)
        assert values.tobytes() == expect.tobytes(), raw

    def test_min_gap_is_the_smallest_pairwise_distance(self):
        s = spectrum_of(well(4, 0.0))
        v = s.values
        dist = np.abs(v[:, None] - v[None, :])
        dist[np.diag_indices(4)] = np.inf
        assert s.min_gap == pytest.approx(dist.min(), abs=1e-14)
        s = spectrum_of(well(3, 0.5))
        assert s.n == 3 and s.all_real is True and type(s.min_gap) is float


class TestScans:
    def test_matched_line_scan_flips_strictly_outside_the_unit_interval(self):
        grid = np.arange(-1.2, 1.2 + 1e-9, 0.05)
        scan = scan_line(6, grid, +1)
        assert scan.diagnostics == []
        for lam, mu, all_real, pairs, min_gap in zip(
            scan.lam, scan.mu, scan.all_real, scan.complex_pairs, scan.min_gap
        ):
            assert mu == lam
            if abs(lam) <= 1.05 + 1e-9:
                assert all_real, lam
            if abs(lam) >= 1.10 - 1e-9:
                assert not all_real and pairs >= 1, lam
            if abs(lam) <= 0.95 + 1e-9:
                assert min_gap > 1e-8

    def test_razor_points_are_degenerate_but_real(self):
        scan = scan_line(6, np.array([-1.0, 1.0]), +1)
        for all_real, pairs, min_gap in zip(scan.all_real, scan.complex_pairs, scan.min_gap):
            assert all_real and pairs == 0
            assert min_gap <= 1e-5

    def test_product_grid_is_row_major_in_lambda_then_mu(self):
        lams = np.array([0.0, 0.5])
        mus = np.array([-0.5, 0.0, 0.5])
        scan = scan_domain(3, lams, mus)
        got = list(zip(scan.lam.tolist(), scan.mu.tolist()))
        assert got == [(l, m) for l in lams for m in mus]

    def test_origin_cell_is_clean(self):
        scan = scan_domain(3, np.array([0.0]), np.array([0.0]))
        assert scan.all_real.tolist()[0] is True and scan.complex_pairs[0] == 0
        assert scan.min_gap[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_complex_pair_count_matches_the_values(self):
        scan = scan_line(5, np.array([1.3]), +1)
        pairs = scan.complex_pairs[0]
        v = spectrum_of(well(5, 1.3)).values
        tol = reality_tolerance(well(5, 1.3))
        n_real = int(np.sum(np.abs(v.imag) <= tol))
        assert pairs == (5 - n_real) // 2 and pairs >= 1

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
        for n in (4.5, 2.5, "4"):
            with pytest.raises(ValidationError, match="integer"):
                scan_domain(n, np.array([0.0]), np.array([0.0]))
            with pytest.raises(ValidationError, match="integer"):
                scan_line(n, np.array([0.0]), +1)

    def test_an_empty_product_grid_is_an_invalid_request(self):
        for lams, mus in (([], [0.0]), ([0.0], []), ([], [])):
            with pytest.raises(ValidationError, match="non-empty"):
                scan_domain(3, np.array(lams), np.array(mus))

    def test_an_empty_line_grid_is_an_invalid_request(self):
        with pytest.raises(ValidationError, match="non-empty"):
            scan_line(3, np.array([]), +1)

    def test_a_grid_that_is_not_a_list_of_numbers_is_an_invalid_request(self):
        for lams, mus in (([[0.1, 0.2]], [0.1]), ([0.1], [[0.1], [0.2]]), (["x"], [0.1])):
            with pytest.raises(ValidationError):
                scan_domain(4, lams, mus)
        for grid in ([[0.1, 0.2]], ["x"], [0.1, None]):
            with pytest.raises(ValidationError):
                scan_line(4, grid, +1)

    def test_a_complex_grid_is_refused_without_a_warning(self):
        # np.array(..., dtype=float) would scan lambda = 0.3 with a ComplexWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid in (np.array([0.3 + 0.1j]), [0.3, 0.2 + 0j], np.complex128(0.3)):
                with pytest.raises(ValidationError, match="complex"):
                    scan_domain(4, grid, [0.2])
                with pytest.raises(ValidationError, match="complex"):
                    scan_domain(4, [0.2], grid)
                with pytest.raises(ValidationError, match="complex"):
                    scan_line(4, grid, +1)

    def test_a_grid_value_past_the_float_range_is_an_invalid_request(self):
        with pytest.raises(ValidationError, match="real"):
            scan_domain(4, [10**400], [0.2])

    def test_a_non_finite_grid_value_is_an_invalid_request(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValidationError, match="finite"):
                scan_domain(4, [0.1, bad], [0.2])
            with pytest.raises(ValidationError, match="finite"):
                scan_domain(4, [0.1], [bad, 0.2])
            with pytest.raises(ValidationError, match="finite"):
                scan_line(4, [0.1, bad], -1)

    def test_the_line_sign_is_plus_or_minus_one(self):
        grid = [0.1, 0.5]
        for bad in (0, 2, -2, 0.5, float("nan"), "+", None, np.array([1, 1])):
            with pytest.raises(ValidationError, match="sign"):
                scan_line(4, grid, bad)
        for sign, expect in ((1, [0.1, 0.5]), (np.int64(-1), [-0.1, -0.5]), (-1.0, [-0.1, -0.5])):
            assert scan_line(4, grid, sign).mu.tolist() == expect

    def test_a_complex_sign_is_refused_without_a_warning(self):
        # 1+0j == 1, so the membership test alone takes it and gives a complex
        # mu with ComplexWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (1 + 0j, -1 + 0j, np.complex128(-1), np.array(1 + 0j)):
                with pytest.raises(ValidationError, match="sign"):
                    scan_line(4, [0.5, 1.5], bad)
            assert scan_line(4, [0.5, 1.5], np.float64(-1)).mu.tolist() == [-0.5, -1.5]

    def test_a_boolean_sign_is_refused(self):
        # True == 1, so a membership test alone would take True for +1.
        for bad in (True, False, np.bool_(True), np.bool_(False), np.array(True)):
            with pytest.raises(ValidationError, match="sign"):
                scan_line(4, [0.1, 0.5], bad)


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


def cell_loop(n, lam, mu, reality_tol=None):
    """The scan of the cells (lam[i], mu[i]) as a loop of one-cell solves.

    Returns (all_real, complex_pairs, min_gap, diagnostics) in the layout of
    `DomainScan`.
    """
    all_real, pairs, gaps, diagnostics = [], [], [], []
    for i, (la, m) in enumerate(zip(lam, mu)):
        h = build(n, (la, m))
        tol = reality_tolerance(h, reality_tol)
        try:
            spec = spectrum_of(h, reality_tol=tol)
        except NumericalError as exc:
            diagnostics.append((i, la, m, str(exc)))
            all_real.append(False)
            pairs.append(-1)
            gaps.append(np.nan)
            continue
        all_real.append(spec.all_real)
        pairs.append(int(np.count_nonzero(np.abs(spec.values.imag) > tol) // 2))
        gaps.append(spec.min_gap)
    return np.array(all_real), np.array(pairs), np.array(gaps), diagnostics


def assert_scan_matches_cell_loop(scan, n, reality_tol=None):
    all_real, pairs, gaps, diagnostics = cell_loop(n, scan.lam, scan.mu, reality_tol)
    assert np.array_equal(scan.all_real, all_real)
    assert np.array_equal(scan.complex_pairs, pairs)
    assert scan.min_gap.tobytes() == gaps.tobytes()
    assert scan.diagnostics == diagnostics


class TestBatchedScanAgainstCellLoop:
    """Scans solve blocks of cells together; each cell must come out as alone."""

    def test_random_product_grids_match_bit_for_bit(self):
        rng = np.random.default_rng(1018)
        for n in (2, 3, 4, 5, 8, 10, 24):
            for tol in (None, 1e-3):
                lams = rng.uniform(-1.3, 1.3, int(rng.integers(1, 7)))
                mus = rng.uniform(-1.3, 1.3, int(rng.integers(1, 7)))
                scan = scan_domain(n, lams, mus, reality_tol=tol)
                assert np.array_equal(scan.lam, np.repeat(lams, mus.size))
                assert np.array_equal(scan.mu, np.tile(mus, lams.size))
                assert_scan_matches_cell_loop(scan, n, tol)

    def test_cells_ulps_from_an_exceptional_point_match_inside_one_batch(self, monkeypatch):
        # The cells of TestCellsUlpsFromAnExceptionalPoint, each line in one
        # block together with ordinary cells on both branches, so the
        # cluster re-solve has to fire for single rows of a batch.
        resolves = []
        resolve = spectra._resolve_real_clusters

        def counted(values, *bands_and_gap):
            resolves.append(values.shape)
            return resolve(values, *bands_and_gap)

        monkeypatch.setattr(spectra, "_resolve_real_clusters", counted)
        lam0 = np.sqrt(5.0) / 2.0
        ordinary = [0.3, -0.7, 1.3, -1.05]
        lines = (
            (4, [s * (lam0 + k * np.spacing(lam0)) for k in range(-8, 9) for s in (1, -1)]),
            (3, [s * (1.0 + k * np.spacing(1.0)) for k in range(9) for s in (1, -1)]),
        )
        for n, grid in lines:
            for sign in (1, -1):
                del resolves[:]
                scan = scan_line(n, ordinary + grid, sign)
                assert resolves, (n, sign)
                assert_scan_matches_cell_loop(scan, n)

    def test_a_grid_longer_than_one_block_matches_bit_for_bit(self, monkeypatch):
        n = 24
        cells = 2 * (BLOCK_ENTRIES // (n * n)) + 7
        blocks = []
        solve = spectra._solve

        def recorded(n, lam, *args):
            blocks.append((lam.shape[0], n))
            return solve(n, lam, *args)

        monkeypatch.setattr(spectra, "_solve", recorded)
        scan = scan_line(n, np.linspace(-1.3, 1.3, cells), -1)
        monkeypatch.undo()
        assert len(blocks) == 3
        assert all(m * k * k <= BLOCK_ENTRIES for m, k in blocks)
        assert sum(m for m, _ in blocks) == cells
        assert_scan_matches_cell_loop(scan, n)

    def test_an_in_window_scan_builds_no_bands(self, monkeypatch):
        # Real-branch cells are solved from their two end bond products.
        monkeypatch.setattr(spectra, "bands", refuse)
        grid = np.linspace(-0.99, 0.99, 9)
        for n in (2, 3, 8, 24):
            assert scan_domain(n, grid, grid[::-1]).all_real.all()
            assert scan_line(n, grid, -1).all_real.all()

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_a_mixed_scan_builds_bands_for_its_general_rows_only(self, n, monkeypatch):
        calls = []

        def recorded(size, lam, mu):
            calls.append((size, lam.copy(), mu.copy()))
            return bands(size, lam, mu)

        monkeypatch.setattr(spectra, "bands", recorded)
        grid = np.array([-2.5, -1.2, -0.6, 0.0, 0.3, 0.99, 1.01, 1.7])
        scan = scan_domain(n, grid, grid)
        monkeypatch.undo()
        general = ~spectra._real_branch(*end_bonds(n, scan.lam, scan.mu))
        assert 0 < general.sum() < general.size
        assert [size for size, _, _ in calls] == [n]
        assert np.array_equal(calls[0][1], scan.lam[general])
        assert np.array_equal(calls[0][2], scan.mu[general])
        assert_scan_matches_cell_loop(scan, n)

    @staticmethod
    def counted_lapack(monkeypatch):
        """Count the stacked calls of each branch's LAPACK routine."""
        calls = {"svd": 0, "eigvals": 0}
        for name in calls:
            solver = getattr(np.linalg, name)

            def counted(a, *args, name=name, solver=solver, **kwargs):
                calls[name] += 1
                return solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return calls

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
    def test_blocks_on_one_or_both_branches_match_bit_for_bit(self, n, monkeypatch):
        # Inside the window every cell takes the real branch; with both
        # couplings above 1 (n = 2: (1 + lambda)(1 - mu) < 0) every cell takes
        # the general one.  A block of one cell takes one branch.
        rng = np.random.default_rng(n)
        inside = rng.uniform(-0.99, 0.99, 5)
        outside = rng.uniform(1.01, 2.5, 5)
        mixed = np.concatenate((inside[:3], outside[:3]))
        for grids, branches in (((inside, inside[::-1]), {"svd"}),
                                ((outside, outside[:3]), {"eigvals"}),
                                ((inside[:1], inside[1:2]), {"svd"}),
                                ((outside[:1], outside[1:2]), {"eigvals"}),
                                ((mixed, mixed[::-1]), {"svd", "eigvals"})):
            for tol in (None, 1e-3):
                calls = self.counted_lapack(monkeypatch)
                scan = scan_domain(n, *grids, reality_tol=tol)
                line = scan_line(n, grids[0], +1, reality_tol=tol)
                monkeypatch.undo()
                assert calls == {name: 2 * (name in branches) for name in calls}, (n, branches)
                assert_scan_matches_cell_loop(scan, n, tol)
                assert_scan_matches_cell_loop(line, n, tol)

    @pytest.mark.parametrize("name", ["svd", "eigvals"])
    def test_a_failure_in_a_block_on_one_branch_matches_the_cell_loop(self, name, monkeypatch):
        # One matrix of the block fails in LAPACK: the block is solved again
        # cell by cell, and the scan records the same failure as a loop of
        # one-cell solves under the same fault.
        n, lams, mus = 5, [0.3, 0.6, -0.2], [-0.5, 0.2, 0.7]
        if name == "eigvals":
            lams, mus = [1.1, 1.3, -1.6], [1.25, -2.0, 1.05]
        h = well(n, lams[1], mus[1])
        target = dense(h) if name == "eigvals" else half_block(h)
        solver = getattr(np.linalg, name)

        def flaky(a, *args, **kwargs):
            if any(np.array_equal(m, target) for m in np.reshape(a, (-1, *target.shape))):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, flaky)
        scan = scan_domain(n, lams, mus)
        assert [d[:3] for d in scan.diagnostics] == [(4, lams[1], mus[1])]
        assert_scan_matches_cell_loop(scan, n)

    def test_skipped_repairs_would_change_nothing(self):
        # The general branch runs the cluster re-solve only where a vectorized
        # test says it could act; on every other row, running it must return
        # the values unchanged.
        resolve = spectra._resolve_real_clusters
        rng = np.random.default_rng(7)
        lam0 = np.sqrt(5.0) / 2.0
        for n, lams, mus in (
            (4, lam0 + np.arange(-8, 9) * np.spacing(lam0), None),
            (3, 1.0 + np.arange(9) * np.spacing(1.0), None),
            (6, rng.uniform(-1.3, 1.3, 40), rng.uniform(-1.3, 1.3, 40)),
            (17, rng.uniform(-1.3, 1.3, 40), rng.uniform(-1.3, 1.3, 40)),
        ):
            mus = lams if mus is None else mus
            sup, sub = bands(n, lams, mus)
            values = np.linalg.eigvals(dense_bands(sup, sub)).astype(complex)
            radii = [build(n, (a, b)).gershgorin_radius() for a, b in zip(lams, mus)]
            scale = np.maximum(1.0, radii)
            gap = spectra.EP_CLUSTER_GAP * scale
            cluster = spectra._may_cluster(spectra._pairwise_gaps(values), gap)
            assert cluster.any() or n > 4
            for k in np.flatnonzero(~cluster):
                again = resolve(values[k], sup[k], sub[k], gap[k])
                assert again.tobytes() == values[k].tobytes(), (n, k)


def half_block(h):
    """The floor(n/2) x ceil(n/2) bidiagonal block of a symmetrizable H.

    Odd sites index its rows and even sites its columns; entry (q, q) is the
    magnitude of bond 2q and (q, q + 1) that of bond 2q + 1.
    """
    s = np.sqrt(h.bonds)
    b = np.zeros((h.n // 2, (h.n + 1) // 2))
    for k, x in enumerate(s):
        b[k // 2, (k + 1) // 2] = x
    return b


class TestSolverFailures:
    # The LAPACK calls behind each branch: the real branch's values are the
    # singular values of a half-size block, the general branch's come from
    # eigvals, and eigen_real's vectors from eigh.
    @staticmethod
    def fail(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def test_lapack_failures_are_typed_convergence_errors(self, monkeypatch):
        for name in ("eigvals", "svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, self.fail)
        with pytest.raises(ConvergenceError):
            eigen_general(well(5, 1.3))
        with pytest.raises(ConvergenceError):
            spectrum_of(well(5, 0.3))
        with pytest.raises(ConvergenceError):
            eigen_real(symmetrize(well(5, 0.3)))

    def test_scan_records_a_failed_cell_and_continues(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", self.fail)
        scan = scan_line(5, [0.3, 1.3], +1)
        assert scan.complex_pairs.tolist() == [0, -1]
        assert scan.all_real.tolist() == [True, False]
        assert np.isnan(scan.min_gap[1])
        assert len(scan.diagnostics) == 1 and scan.diagnostics[0][0] == 1
        assert "did not converge" in scan.diagnostics[0][3]

    def test_a_non_finite_value_is_a_numerical_error_of_its_cell(self, monkeypatch):
        # On either branch the solver hands back a non-finite value for the
        # last cell of its stack; that cell fails with a NumericalError that
        # is not a ConvergenceError, and the other cells come out as before.
        grid = [0.3, 0.6, 1.3, 1.6]
        clean = scan_line(5, grid, +1)
        for name, i in (("svd", 1), ("eigvals", 3)):
            solver = getattr(np.linalg, name)
            for bad in (np.inf, np.nan):

                def spoiled(a, *args, solver=solver, bad=bad, **kwargs):
                    v = solver(a, *args, **kwargs)
                    v[-1, 0] = bad
                    return v

                monkeypatch.setattr(np.linalg, name, spoiled)
                scan = scan_line(5, grid, +1)
                with pytest.raises(NumericalError, match="non-finite") as info:
                    spectrum_of(well(5, grid[i]))
                monkeypatch.undo()
                assert not isinstance(info.value, ConvergenceError)
                assert [d[:3] for d in scan.diagnostics] == [(i, grid[i], grid[i])], name
                assert "non-finite" in scan.diagnostics[0][3]
                assert scan.complex_pairs[i] == -1 and not scan.all_real[i]
                assert np.isnan(scan.min_gap[i])
                rest = np.arange(len(grid)) != i
                assert np.array_equal(scan.complex_pairs[rest], clean.complex_pairs[rest])
                assert np.array_equal(scan.all_real[rest], clean.all_real[rest])
                assert scan.min_gap[rest].tobytes() == clean.min_gap[rest].tobytes()

    def test_a_matrix_that_fails_in_a_batch_costs_only_its_own_cell(self, monkeypatch):
        # LAPACK fails on one matrix of a stacked call; the block is solved
        # again cell by cell, so only that cell is lost, on either branch.
        lams, mus = [0.3, 0.6, 1.1, 1.3], [-0.5, 0.2, 1.25]
        clean = scan_domain(5, lams, mus)
        for name, (lam, mu) in (("eigvals", (1.3, 1.25)), ("svd", (0.6, 0.2))):
            h = well(5, lam, mu)
            target = dense(h) if name == "eigvals" else half_block(h)
            solver = getattr(np.linalg, name)

            def flaky(a, *args, solver=solver, target=target, **kwargs):
                if any(np.array_equal(m, target) for m in np.reshape(a, (-1, *target.shape))):
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, flaky)
            scan = scan_domain(5, lams, mus)
            monkeypatch.undo()
            i = lams.index(lam) * len(mus) + mus.index(mu)
            assert [d[:3] for d in scan.diagnostics] == [(i, lam, mu)], name
            assert "did not converge" in scan.diagnostics[0][3]
            assert scan.complex_pairs[i] == -1 and not scan.all_real[i]
            assert np.isnan(scan.min_gap[i])
            rest = np.arange(clean.lam.size) != i
            assert np.array_equal(scan.complex_pairs[rest], clean.complex_pairs[rest])
            assert np.array_equal(scan.all_real[rest], clean.all_real[rest])
            assert scan.min_gap[rest].tobytes() == clean.min_gap[rest].tobytes()


class TestRealityTolerance:
    def test_default_scales_with_the_gershgorin_radius(self):
        h = well(3, 0.0)
        assert reality_tolerance(h) == REALITY_TOL_FACTOR * max(1.0, h.gershgorin_radius())

    def test_override_wins(self):
        assert reality_tolerance(well(3, 0.0), 1e-3) == 1e-3

    def test_a_negative_or_non_finite_override_is_rejected(self):
        # n = 4 at lambda = 1.05 is real (its first EP is at sqrt(5)/2) but
        # takes the general branch; lambda = 0.5 takes the real branch, which
        # spectrum_of solves outside `_solve`, at every size.
        # A value float() refuses is a ValidationError too, not a bare
        # ValueError or TypeError.
        bads = (-1.0, -1e-300, float("nan"), float("inf"), float("-inf"), "abc", [1e-3],
                object())
        for bad in bads:
            with pytest.raises(ValidationError):
                reality_tolerance(well(3, 0.0), bad)
            for n, lam in ((4, 1.05), (4, 0.5), (2, 0.5), (3, 0.5), (9, 0.5)):
                with pytest.raises(ValidationError, match="reality tolerance"):
                    spectrum_of(well(n, lam), reality_tol=bad)
            with pytest.raises(ValidationError):
                scan_line(4, [0.5, 1.05], +1, reality_tol=bad)
            with pytest.raises(ValidationError, match="reality tolerance"):
                eigen_general(well(3, 0.5), reality_tol=bad)
            with pytest.raises(ValidationError, match="reality tolerance"):
                scan_domain(3, [0.5, 1.05], [0.5], reality_tol=bad)

    def test_a_complex_override_is_refused_without_a_warning(self):
        # float() would keep the real part 1e-3 with a ComplexWarning.
        bad = np.complex128(1e-3 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="reality tolerance"):
                reality_tolerance(well(3, 0.0), bad)
            for n, lam in ((4, 1.05), (4, 0.5)):
                with pytest.raises(ValidationError, match="reality tolerance"):
                    spectrum_of(well(n, lam), reality_tol=bad)
            with pytest.raises(ValidationError, match="reality tolerance"):
                scan_domain(3, [0.5, 1.05], [0.5], reality_tol=bad)

    def test_a_zero_override_is_accepted(self):
        assert reality_tolerance(well(3, 0.0), 0.0) == 0.0
        assert spectrum_of(well(4, 1.05), reality_tol=0.0).values.shape == (4,)
