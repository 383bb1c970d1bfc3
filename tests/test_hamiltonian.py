"""Construction of the boundary-coupled tridiagonal well.

Oracles used here:

* hand-expanded band entries for small sizes (exact in floating point,
  asserted with ``==``),
* the level bound recomputed inline as the Gershgorin radius of the
  complex-symmetric form, from the bond products, and a dense ``eigvals``
  oracle built from the model's definition.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cptwell.continuum import convergence_study, scaled_spectrum
from cptwell.errors import ValidationError
from cptwell.hamiltonian import (
    bands,
    build,
    dense,
    dense_bands,
    level_bound,
)
from cptwell.quasihermitian import closed_form_operators


def well(n, lam, mu=None):
    return build(n, (lam, lam if mu is None else mu))


class TestBuild:
    def test_zero_coupling_gives_the_dirichlet_laplacian_bands(self):
        h = well(3, 0.0)
        assert np.array_equal(h.super, [-1.0, -1.0])
        assert np.array_equal(h.sub, [-1.0, -1.0])

    def test_equal_couplings_skew_both_end_bonds_the_same_way(self):
        h = well(4, 0.5)
        assert np.array_equal(h.super, [-1.5, -1.0, -1.5])
        assert np.array_equal(h.sub, [-0.5, -1.0, -0.5])

    def test_opposite_couplings_skew_the_end_bonds_oppositely(self):
        h = well(5, 0.3, -0.3)
        assert np.array_equal(h.super, [-1.3, -1.0, -1.0, -0.7])
        assert np.array_equal(h.sub, [-0.7, -1.0, -1.0, -1.3])

    def test_two_site_well_loads_both_couplings_on_the_single_bond(self):
        h = well(2, 0.2, 0.7)
        assert h.super[0] == -1.0 - 0.2
        assert h.sub[0] == -1.0 + 0.7
        assert abs(h.super[0] + 1.2) <= 1e-15
        assert abs(h.sub[0] + 0.3) <= 1e-15

    def test_interior_bonds_stay_unperturbed(self):
        h = well(9, 0.8, -0.4)
        assert np.array_equal(h.super[1:-1], -np.ones(6))
        assert np.array_equal(h.sub[1:-1], -np.ones(6))

    def test_dimension_below_two_is_rejected(self):
        with pytest.raises(ValidationError):
            well(1, 0.0)
        with pytest.raises(ValidationError):
            well(0, 0.5)

    def test_a_non_integral_dimension_is_rejected(self):
        for n in (4.5, 2.000001, float("nan"), float("inf"), "4", None):
            with pytest.raises(ValidationError, match="integer"):
                build(n, (0.1, 0.1))

    @pytest.mark.parametrize(
        "construct",
        [
            lambda: closed_form_operators(3.9, 0.3),
            lambda: scaled_spectrum(8.7, 0.2, 1),
            lambda: convergence_study((16.5, 32, 64), 0.2),
        ],
        ids=["closed_form_operators", "scaled_spectrum", "convergence_study"],
    )
    def test_sized_constructors_refuse_a_non_integral_size_like_build(self, construct):
        with pytest.raises(ValidationError, match="integer"):
            construct()

    def test_integer_dimensions_of_any_integer_type_are_accepted(self):
        for n in (4, np.int64(4), np.int32(4), np.uint8(4), 4.0):
            h = build(n, (0.1, 0.1))
            assert type(h.n) is int and h.n == 4 and h.super.shape == (3,)

    def test_non_finite_couplings_are_rejected(self):
        with pytest.raises(ValidationError, match=r"^couplings must be finite, got \(nan, 0\.0\)$"):
            build(4, (float("nan"), 0.0))
        with pytest.raises(ValidationError, match=r"^couplings must be finite, got \(0\.0, inf\)$"):
            build(4, (0.0, float("inf")))
        # The values are formatted as given, not through numpy's repr.
        with pytest.raises(ValidationError, match=r"^couplings must be finite, got \(0\.3, nan\)$"):
            build(4, (0.3, np.float64("nan")))

    def test_a_plain_pair_gives_the_cell_its_couplings(self):
        h = build(4, (0.5, 0.5))
        assert (h.lam, h.mu) == (0.5, 0.5)
        assert h.super[0] == -1.5

    def test_first_corner_pair_sums_to_minus_two_and_differs_by_twice_lambda(self):
        for lam in (-0.9, -0.3, 0.1, 0.45, 0.97, 1.3):
            h = well(6, lam, -0.2)
            assert abs(h.super[0] + h.sub[0] + 2.0) <= 4e-16
            assert abs(h.super[0] - h.sub[0] + 2.0 * lam) <= 4e-16 * (1.0 + abs(lam))

    def test_last_corner_pair_sums_to_minus_two_and_differs_by_twice_mu(self):
        for mu in (-1.1, -0.6, 0.2, 0.8):
            h = well(6, 0.3, mu)
            assert abs(h.super[-1] + h.sub[-1] + 2.0) <= 4e-16
            assert abs(h.super[-1] - h.sub[-1] + 2.0 * mu) <= 4e-16 * (1.0 + abs(mu))

    def test_bonds_are_the_entrywise_band_products(self):
        h = well(5, 0.4, -0.7)
        assert np.array_equal(h.bonds, h.super * h.sub)

    def test_exchange_flip_conjugates_to_the_transpose_exactly(self):
        # J H J == H^T entrywise when mu = lambda, also outside |lambda| < 1.
        for n, lam in ((2, 0.5), (3, 0.5), (6, -0.8), (7, 1.3), (12, 0.05)):
            a = dense(well(n, lam))
            j = np.fliplr(np.eye(n))
            assert np.array_equal(j @ a @ j, a.T)

    def test_a_complex_coupling_is_refused_without_a_warning(self):
        # float() would keep 0.3 and drop the imaginary part with numpy's
        # ComplexWarning; a complex type is refused even with a zero one.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.complex128(0.3 + 0.1j), np.complex64(0.3 + 0.1j), 0.3 + 0.1j,
                        np.array(0.3 + 0.1j), np.complex128(0.3)):
                for pair in ((bad, 0.0), (0.0, bad)):
                    with pytest.raises(ValidationError,
                                       match="^couplings must be real, got .*: complex values"):
                        build(4, pair)

    def test_a_coupling_float_refuses_is_a_validation_error(self):
        for bad in ("a", None, [0.3], object(), 10**400):
            for pair in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(ValidationError, match="couplings must be real"):
                    build(4, pair)

    def test_couplings_that_are_not_a_pair_are_a_validation_error(self):
        for bad in (0.3, None, (0.1, 0.2, 0.3), (0.1,), ()):
            with pytest.raises(ValidationError, match=r"\(lambda, mu\) pair"):
                build(4, bad)

    def test_real_couplings_of_other_types_are_still_accepted(self):
        for pair in (("0.3", "-0.2"), (np.float32(0.3), np.int64(0)), (True, 0),
                     (np.array(0.3), np.float64(-0.2)), [0.3, -0.2], np.array([0.3, -0.2])):
            h = build(4, pair)
            assert (type(h.lam), type(h.mu)) == (float, float)
            assert (h.lam, h.mu) == (float(pair[0]), float(pair[1]))

    def test_band_arrays_are_read_only(self):
        h = well(4, 0.2)
        for band in (h.super, h.sub):
            with pytest.raises(ValueError):
                band[0] = 99.0


class TestStackedBands:
    def test_each_row_is_the_band_of_its_own_build(self):
        lams = np.array([0.0, 0.3, -0.8, 1.3, -1.0])
        mus = np.array([0.5, -0.3, -0.8, 0.2, 1.0])
        for n in (2, 3, 7):
            sup, sub = bands(n, lams, mus)
            stack = dense_bands(sup, sub)
            bounds = level_bound(n, lams, mus)
            for k, (lam, mu) in enumerate(zip(lams, mus)):
                h = well(n, lam, mu)
                assert np.array_equal(sup[k], h.super) and np.array_equal(sub[k], h.sub)
                assert np.array_equal(stack[k], dense(h))
                assert bounds[k] == level_bound(n, h.lam, h.mu)

    # The parent formulas, with the diagonal as an explicit array of 2s.
    @pytest.mark.parametrize("n", [*range(2, 10), 64])
    def test_dense_stacks_equal_an_explicit_diagonal_and_bounds_their_cells_bit_for_bit(self, n):
        huge = 1e308
        lams = np.array([0.0, -0.0, 0.3, -0.41, 1.0, -1.0, 2.5, huge, -huge, huge, 1e300])
        mus = np.array([0.0, 0.7, -0.3, 1.0, -1.0, 0.2, -2.5, huge, huge, -huge, -1e300])
        sup, sub = bands(n, lams, mus)
        diag = np.full(n, 2.0)
        i = np.arange(n)
        bounds = level_bound(n, lams, mus)
        stack = dense_bands(sup, sub)
        assert stack.shape == (lams.size, n, n) and bounds.shape == (lams.size,)
        for k in range(lams.size):
            ref = np.zeros((n, n))
            ref[i, i] = diag
            ref[i[:-1], i[1:]] = sup[k]
            ref[i[1:], i[:-1]] = sub[k]
            assert stack[k].tobytes() == ref.tobytes(), (n, lams[k], mus[k])
            one = np.float64(level_bound(n, float(lams[k]), float(mus[k])))
            assert bounds[k].tobytes() == one.tobytes(), (n, lams[k], mus[k])
        # At n = 3 the middle row holds both end bonds, so 1e308 at both ends
        # overflows the bound; no other size and no single coupling does.
        both_huge = (np.abs(lams) == huge) & (np.abs(mus) == huge)
        assert np.array_equal(np.isinf(bounds), both_huge & (n == 3))


def model_matrix(n, lam, mu):
    """Dense H(lam, mu) written out from the model's definition."""
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    a[0, 1] = -1.0 - lam
    a[n - 1, n - 2] = -1.0 + mu
    if n > 2:
        a[1, 0] = -1.0 + lam
        a[n - 2, n - 1] = -1.0 - mu
    return a


class TestLevelBound:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 9, 64])
    def test_it_is_the_gershgorin_radius_of_the_complex_symmetric_form(self, n):
        # That form has diagonal 2 and off-diagonal sqrt(b_i), so row i sums to
        # 2 + sqrt|b_{i-1}| + sqrt|b_i|; the bound is its largest row sum,
        # from the bond products of the model's own matrix.
        couplings = (0.0, 0.3, -0.41, 1.0, -1.0, 1.0000000000000002, 2.5, -7.0, 1e154)
        for lam in couplings:
            for mu in couplings:
                a = model_matrix(n, lam, mu)
                bonds = [0.0, *(a[i, i + 1] * a[i + 1, i] for i in range(n - 1)), 0.0]
                rows = [2.0 + math.sqrt(abs(bonds[i])) + math.sqrt(abs(bonds[i + 1]))
                        for i in range(n)]
                assert level_bound(n, lam, mu) == pytest.approx(max(rows), rel=4e-16), (lam, mu)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 40), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_it_encloses_every_level_of_a_dense_oracle(self, n, lam, mu):
        # The oracle's own error is the slack: LAPACK fixes a k-fold level only
        # to about eps**(1/k) of the matrix norm, and the model's levels
        # cluster at most threefold (at E = 2 near |coupling| = 1, where the
        # bound is close to 2 at n = 3).
        a = model_matrix(n, lam, mu)
        slack = 4.0 * np.finfo(float).eps ** (1.0 / 3.0) * np.abs(a).sum(axis=1).max()
        assert np.abs(np.linalg.eigvals(a)).max() <= level_bound(n, lam, mu) + slack

    def test_the_closed_forms_per_size_on_exact_cells(self):
        # s_x is 1 at x = 0 and 0 at |x| = 1, so these sums are exact; the
        # interior bonds of n >= 5 keep R at 4 when both end bonds vanish.
        assert level_bound(2, 0.0, 0.0) == 3.0 and level_bound(2, -1.0, 0.3) == 2.0
        assert level_bound(3, 0.0, 0.0) == 4.0 and level_bound(3, 1.0, -1.0) == 2.0
        assert level_bound(4, 0.0, 0.0) == 4.0 and level_bound(4, 1.0, 1.0) == 3.0
        for n in (5, 6, 64):
            assert level_bound(n, 0.0, 0.0) == level_bound(n, 1.0, -1.0) == 4.0

    def test_only_n3_with_both_couplings_near_the_float_range_overflows(self):
        top = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert level_bound(3, 1e308, -1e308) == np.inf
            for n in (2, 4, 5, 64):
                for lam, mu in ((top, top), (top, -top), (-top, top), (-top, -top)):
                    assert math.isfinite(level_bound(n, lam, mu)), (n, lam, mu)
            assert math.isfinite(level_bound(3, top, 0.5))


class TestSerialization:
    def test_dense_places_bands_and_zeros_elsewhere(self):
        h = well(5, 0.3, -0.8)
        a = dense(h)
        assert np.array_equal(np.diag(a), np.full(5, 2.0))
        assert np.array_equal(np.diag(a, 1), h.super)
        assert np.array_equal(np.diag(a, -1), h.sub)
        off = a - np.diag(np.diag(a)) - np.diag(np.diag(a, 1), 1) - np.diag(np.diag(a, -1), -1)
        assert np.count_nonzero(off) == 0
