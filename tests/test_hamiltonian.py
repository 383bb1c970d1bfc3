"""Construction and symmetrization of the boundary-coupled tridiagonal well.

Oracles used here:

* hand-expanded band entries for small sizes (exact in floating point,
  asserted with ``==``),
* dense reconstruction through plain numpy similarity transforms,
* Gershgorin interval arithmetic recomputed inline.
"""

import warnings

import numpy as np
import pytest

from cptwell.continuum import convergence_study, scaled_spectrum
from cptwell.errors import NotSymmetrizable, ValidationError
from cptwell.hamiltonian import (
    bands,
    build,
    dense,
    dense_bands,
    gershgorin_radii,
    symmetrize,
)
from cptwell.quasihermitian import closed_form_operators


def well(n, lam, mu=None):
    return build(n, (lam, lam if mu is None else mu))


def sym_dense(s):
    a = np.diag(np.full(s.n, 2.0))
    idx = np.arange(s.n - 1)
    a[idx, idx + 1] = s.s_off
    a[idx + 1, idx] = s.s_off
    return a


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

    def test_gershgorin_radius_encloses_every_numpy_eigenvalue(self):
        for n, lam, mu in ((4, 0.9, -0.6), (8, 1.4, 1.4), (5, -1.2, 0.3)):
            h = well(n, lam, mu)
            r = h.gershgorin_radius()
            ev = np.linalg.eigvals(dense(h))
            assert np.all(np.abs(ev - 2.0) <= r + 1e-12)

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
            radii = gershgorin_radii(sup, sub)
            for k, (lam, mu) in enumerate(zip(lams, mus)):
                h = well(n, lam, mu)
                assert np.array_equal(sup[k], h.super) and np.array_equal(sub[k], h.sub)
                assert np.array_equal(stack[k], dense(h))
                assert radii[k] == h.gershgorin_radius()

    # The parent formulas, with the diagonal as an explicit array of 2s.
    @pytest.mark.parametrize("n", [*range(2, 10), 64])
    def test_dense_stacks_and_radii_equal_an_explicit_diagonal_bit_for_bit(self, n):
        huge = 1e308
        lams = np.array([0.0, -0.0, 0.3, -0.41, 1.0, -1.0, 2.5, huge, -huge, huge, 1e300])
        mus = np.array([0.0, 0.7, -0.3, 1.0, -1.0, 0.2, -2.5, huge, huge, -huge, -1e300])
        sup, sub = bands(n, lams, mus)
        diag = np.full(n, 2.0)
        i = np.arange(n)
        radii = gershgorin_radii(sup, sub)
        stack = dense_bands(sup, sub)
        assert stack.shape == (lams.size, n, n) and radii.shape == (lams.size,)
        for k in range(lams.size):
            ref = np.zeros((n, n))
            ref[i, i] = diag
            ref[i[:-1], i[1:]] = sup[k]
            ref[i[1:], i[:-1]] = sub[k]
            assert stack[k].tobytes() == ref.tobytes(), (n, lams[k], mus[k])
            rows = [abs(float(diag[r]))
                    + (abs(float(sup[k, r])) if r < n - 1 else 0.0)
                    + (abs(float(sub[k, r - 1])) if r else 0.0) for r in range(n)]
            assert radii[k].tobytes() == np.float64(max(rows)).tobytes(), (n, lams[k], mus[k])
        # At n = 3 the middle row holds both end bonds, so 1e308 at both ends overflows it.
        assert np.isinf(radii[7]) == (n == 3)


class TestSymmetrize:
    def test_zero_coupling_is_already_symmetric_with_unit_weights(self):
        s = symmetrize(well(4, 0.0))
        assert np.array_equal(s.d, np.ones(4))
        assert np.array_equal(s.s_off, -np.ones(3))

    def test_three_site_example_has_geometric_weights_and_sqrt_bond_offdiagonal(self):
        s = symmetrize(well(3, 0.5))
        root3 = np.sqrt(3.0)
        assert abs(s.s_off[0] + root3 / 2.0) <= 1e-15
        assert abs(s.s_off[1] + root3 / 2.0) <= 1e-15
        assert abs(s.d[0] - 1.0) <= 0.0
        assert abs(s.d[1] - 1.0 / root3) <= 1e-15
        assert abs(s.d[2] - 1.0 / 3.0) <= 1e-15

    def test_sign_indefinite_bond_is_rejected_with_location_and_product(self):
        with pytest.raises(NotSymmetrizable) as info:
            symmetrize(well(2, 2.0))
        assert info.value.bond_index == 0
        assert info.value.product <= 0.0

    def test_unit_coupling_kills_a_bond_and_is_rejected(self):
        with pytest.raises(NotSymmetrizable):
            symmetrize(well(5, 1.0))

    def test_similarity_reconstruction_matches_the_symmetric_bands(self):
        for n, lam, mu in ((2, 0.5, 0.5), (5, -0.7, 0.2), (9, 0.9, -0.9), (6, 0.3, 0.8)):
            h = well(n, lam, mu)
            s = symmetrize(h)
            rebuilt = np.diag(1.0 / s.d) @ dense(h) @ np.diag(s.d)
            assert np.max(np.abs(rebuilt - sym_dense(s))) <= 1e-14

    def test_positive_bond_entries_keep_a_positive_off_diagonal(self):
        # n = 2 with lambda < -1 < 1 < mu: super and sub are both positive, so
        # D^-1 H D has +sqrt(super*sub) where -sqrt gave a different matrix.
        h = well(2, -2.5, 2.5)
        s = symmetrize(h)
        assert s.s_off.tolist() == [1.5]
        assert np.array_equal(np.diag(1.0 / s.d) @ dense(h) @ np.diag(s.d), sym_dense(s))
        for n, lam, mu in ((2, -3.0, 1.5), (2, -1.25, 4.0)):
            h = well(n, lam, mu)
            s = symmetrize(h)
            assert s.s_off[0] > 0.0
            rebuilt = np.diag(1.0 / s.d) @ dense(h) @ np.diag(s.d)
            assert np.max(np.abs(rebuilt - sym_dense(s))) <= 4e-16 * np.max(np.abs(dense(h)))

    def test_negative_bond_entries_keep_their_bits(self):
        for n, lam, mu in ((2, 0.5, 0.5), (5, -0.7, 0.2), (9, 0.9, -0.9), (64, 0.3, 0.8)):
            h = well(n, lam, mu)
            assert np.array_equal(symmetrize(h).s_off, -np.sqrt(h.super * h.sub))

    def test_symmetrized_spectrum_matches_the_general_eigenvalues(self):
        for n, lam, mu in ((6, 0.6, -0.6), (11, -0.85, 0.1)):
            h = well(n, lam, mu)
            s = symmetrize(h)
            a = np.sort(np.linalg.eigvalsh(sym_dense(s)))
            b = np.sort(np.linalg.eigvals(dense(h)).real)
            assert np.max(np.abs(a - b)) <= 1e-12


class TestSerialization:
    def test_dense_places_bands_and_zeros_elsewhere(self):
        h = well(5, 0.3, -0.8)
        a = dense(h)
        assert np.array_equal(np.diag(a), np.full(5, 2.0))
        assert np.array_equal(np.diag(a, 1), h.super)
        assert np.array_equal(np.diag(a, -1), h.sub)
        off = a - np.diag(np.diag(a)) - np.diag(np.diag(a, 1), 1) - np.diag(np.diag(a, -1), -1)
        assert np.count_nonzero(off) == 0
