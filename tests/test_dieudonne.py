"""Solution space of the intertwining equation H^T X = X H.

Oracles:

* the equation residual itself, computed with dense numpy arithmetic,
* hand-checked antidiagonal templates on the two structured coupling lines,
* dimension counts against the non-degenerate theory (n independent
  symmetric solutions, one per spectral dyad),
* cross-validation of the two construction routes against each other.
"""

import json

import numpy as np
import pytest

from cptwell.dieudonne import (
    DENSE_ROUTE_MAX,
    INDEPENDENCE_FLOOR,
    RESIDUAL_FACTOR,
    ClosedFormPseudometric,
    PseudometricBasis,
    closed_form,
    kernel_basis,
    residual,
    span_residual,
    spectral_dyads,
)
from cptwell.dieudonne import _intertwining_operator, _symmetric_elements
from cptwell.errors import (
    DegenerateSpectrum,
    NotSymmetrizable,
    ValidationError,
)
from cptwell.hamiltonian import CouplingPair, build, dense
from cptwell.quasihermitian import biorthogonalize

LAMBDAS = (-0.8, -0.4, 0.1, 0.5, 0.9)
MUS = (-0.7, -0.2, 0.3, 0.8)


def well(n, lam, mu=None):
    return build(n, CouplingPair(lam, lam if mu is None else mu))


def entry_norm(h):
    return float(max(np.abs(h.diag).max(), np.abs(h.super).max(), np.abs(h.sub).max()))


class TestResidual:
    def test_zero_matrix_has_zero_residual(self):
        assert residual(well(4, 0.3), np.zeros((4, 4))) == 0.0

    def test_exchange_matrix_solves_the_matched_line_exactly(self):
        for n, lam in ((2, 0.5), (5, 0.3), (8, -0.9), (6, 1.4)):
            j = np.fliplr(np.eye(n))
            assert residual(well(n, lam), j) == 0.0

    def test_identity_defect_is_twice_the_coupling(self):
        for lam in (0.37, -0.62, 0.9):
            h = well(5, lam)
            assert abs(residual(h, np.eye(5)) - 2.0 * abs(lam)) <= 1e-15

    def test_matches_a_dense_reference_computation(self):
        h = well(6, 0.4, -0.2)
        x = np.arange(36.0).reshape(6, 6)
        x = x + x.T
        a = dense(h)
        assert residual(h, x) == pytest.approx(np.max(np.abs(a.T @ x - x @ a)), abs=0.0)


class TestClosedForms:
    def test_exchange_template_is_the_flip_matrix(self):
        cf = closed_form(4, 0.7, "exchange")
        assert cf.variant == "exchange"
        assert cf.alpha == 1.0
        assert np.array_equal(cf.matrix, np.fliplr(np.eye(4)))
        assert residual(well(4, 0.7), cf.matrix) == 0.0

    def test_weighted_template_puts_alpha_on_both_corners(self):
        cf = closed_form(3, 0.5, "weighted")
        expect = np.array([[0.0, 0.0, 1.0 / 3.0], [0.0, 1.0, 0.0], [1.0 / 3.0, 0.0, 0.0]])
        assert np.array_equal(cf.matrix, expect)
        assert cf.alpha == 1.0 / 3.0

    def test_weighted_template_solves_the_opposite_line(self):
        for n, lam in ((2, 0.5), (3, 0.5), (5, 0.3), (7, -0.6), (4, 0.9)):
            cf = closed_form(n, lam, "weighted")
            assert residual(well(n, lam, -lam), cf.matrix) <= 1e-15

    def test_exchange_template_solves_the_matched_line_for_every_tested_size(self):
        for n in range(2, 12):
            cf = closed_form(n, 0.3, "exchange")
            assert residual(well(n, 0.3), cf.matrix) == 0.0

    def test_weighted_template_degenerates_at_minus_one(self):
        with pytest.raises(ValidationError):
            closed_form(4, -1.0, "weighted")

    def test_unknown_variant_and_bad_size_are_rejected(self):
        with pytest.raises(ValidationError):
            closed_form(4, 0.5, "mystery")
        with pytest.raises(ValidationError):
            closed_form(1, 0.5, "exchange")

    def test_serialization_round_trips(self):
        cf = closed_form(3, 0.5, "weighted")
        d = json.loads(json.dumps(cf.to_dict()))
        assert d["n"] == 3 and d["variant"] == "weighted"
        assert d["alpha"] == pytest.approx(1.0 / 3.0, abs=0.0)
        assert np.array_equal(np.asarray(d["matrix"]), cf.matrix)


class TestKernelBasis:
    def test_dimension_equals_the_matrix_size_off_the_degenerate_set(self):
        for n in (2, 3, 5, 8):
            for lam in LAMBDAS:
                for mu in MUS:
                    pm = kernel_basis(well(n, lam, mu))
                    assert pm.dimension == n, (n, lam, mu)

    def test_elements_are_symmetric_normalized_and_small_residual(self):
        h = well(7, 0.45, -0.15)
        pm = kernel_basis(h)
        scale = entry_norm(h)
        for x, r in zip(pm.basis, pm.residuals):
            assert np.array_equal(x, x.T)
            peak = np.unravel_index(np.argmax(np.abs(x)), x.shape)
            assert x[peak] == 1.0
            assert r <= RESIDUAL_FACTOR * scale
        assert pm.independence > INDEPENDENCE_FLOOR

    def test_uncoupled_two_site_span_contains_identity_and_flip(self):
        pm = kernel_basis(well(2, 0.0))
        assert pm.dimension == 2
        assert span_residual(pm, np.eye(2)) <= 1e-10
        assert span_residual(pm, np.fliplr(np.eye(2))) <= 1e-10

    def test_matched_line_span_contains_the_exchange_template(self):
        pm = kernel_basis(well(3, 0.5))
        assert span_residual(pm, np.fliplr(np.eye(3))) <= 1e-10

    def test_opposite_line_span_contains_the_weighted_template(self):
        pm = kernel_basis(well(4, 0.5, -0.5))
        assert span_residual(pm, closed_form(4, 0.5, "weighted").matrix) <= 1e-10

    def test_an_asymmetric_probe_is_far_from_the_span(self):
        pm = kernel_basis(well(3, 0.2))
        probe = np.zeros((3, 3))
        probe[0, 1] = 1.0
        assert span_residual(pm, probe) > 0.1

    def test_complex_spectrum_still_gives_a_full_solution_space(self):
        h = well(5, 1.3)
        pm = kernel_basis(h)
        assert pm.dimension == 5
        assert pm.residuals.max() <= RESIDUAL_FACTOR * entry_norm(h)

    def test_degenerate_coupling_is_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            kernel_basis(well(2, 1.0))
        with pytest.raises(DegenerateSpectrum):
            kernel_basis(well(6, 1.0))

    def test_routes_agree_on_their_common_domain(self):
        h = well(10, 0.35, 0.6)
        a = kernel_basis(h, route="dense")
        b = kernel_basis(h, route="dyad")
        assert a.dimension == b.dimension == 10
        for x in a.basis:
            assert span_residual(b, x) <= 1e-9
        for x in b.basis:
            assert span_residual(a, x) <= 1e-9

    def test_large_sizes_fall_back_to_the_dyad_route(self):
        n = DENSE_ROUTE_MAX + 1
        pm = kernel_basis(well(n, 0.4))
        assert pm.dimension == n
        assert pm.independence > INDEPENDENCE_FLOOR

    def test_dyad_route_requires_a_symmetrizable_matrix(self):
        with pytest.raises(NotSymmetrizable):
            kernel_basis(well(DENSE_ROUTE_MAX + 8, 1.2))

    def test_unknown_route_is_rejected(self):
        with pytest.raises(ValidationError):
            kernel_basis(well(4, 0.2), route="cofactor")

    def test_solutions_transpose_the_spectral_projectors(self):
        for n, lam, mu in ((3, 0.5, 0.5), (4, 0.3, -0.4), (5, -0.7, 0.2)):
            h = well(n, lam, mu)
            pm = kernel_basis(h)
            system = biorthogonalize(h)
            for x in pm.basis:
                for k in range(n):
                    pk = system.projector(k)
                    assert np.max(np.abs(x @ pk - pk.T @ x)) <= 1e-8

    def test_serialization_round_trips(self):
        pm = kernel_basis(well(3, 0.25))
        d = json.loads(json.dumps(pm.to_dict()))
        assert d["n"] == 3 and d["dimension"] == 3
        assert len(d["elements"]) == 3
        assert d["independence"] > 1e-8
        first = np.asarray(d["elements"][0]["matrix"])
        assert span_residual(pm, first) <= 1e-12


def loop_symmetric_basis(n):
    """Reference: the orthonormal symmetric basis, one dense matrix per pair."""
    mats = []
    half = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i, n):
            x = np.zeros((n, n))
            if i == j:
                x[i, i] = 1.0
            else:
                x[i, j] = half
                x[j, i] = half
            mats.append(x)
    return mats


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestDenseRouteAssembly:
    """The index-arithmetic operator and rebuild against the loop construction.

    Equality is bitwise (signed zeros included), so the SVD and every printed
    digit of the dense route are unchanged.
    """

    SIZES = (2, 3, 8, 24, DENSE_ROUTE_MAX)
    COUPLINGS = ((0.41, -0.27), (1.3, 0.2), (0.0, 0.0), (-1.0, 0.5), (-0.0, 0.3))

    def test_operator_matches_the_matrix_products(self):
        for n in self.SIZES:
            for lam, mu in self.COUPLINGS:
                hd = dense(well(n, lam, mu))
                cols = loop_symmetric_basis(n)
                ref = np.empty((n * n, len(cols)))
                for c, x in enumerate(cols):
                    ref[:, c] = (hd.T @ x - x @ hd).reshape(-1)
                assert np.array_equal(bits(_intertwining_operator(hd)), bits(ref)), (n, lam, mu)

    def test_elements_match_the_summed_basis_matrices(self):
        rng = np.random.default_rng(7)
        for n in self.SIZES:
            cols = loop_symmetric_basis(n)
            coefs = rng.standard_normal((3, len(cols)))
            coefs[0, :4] = -0.0
            coefs[1, -3:] = 0.0
            ref = []
            for row in coefs:
                x = np.zeros((n, n))
                for coef, e in zip(row, cols):
                    x += coef * e
                ref.append(x)
            got = _symmetric_elements(coefs, n)
            assert np.array_equal(bits(got), bits(ref)), n


class TestSpectralDyads:
    def test_each_dyad_solves_the_equation(self):
        h = well(6, 0.3)
        scale = entry_norm(h)
        for dyad in spectral_dyads(h):
            assert residual(h, dyad) <= 1e-10 * scale

    def test_dyads_are_rank_one_and_symmetric(self):
        dyads = spectral_dyads(well(5, -0.6))
        assert len(dyads) == 5
        for dyad in dyads:
            assert np.array_equal(dyad, dyad.T)
            sv = np.linalg.svd(dyad, compute_uv=False)
            assert sv[1] <= 1e-12 * sv[0]

    def test_dyads_span_the_kernel_basis(self):
        h = well(6, 0.55, -0.25)
        pm = kernel_basis(h)
        for dyad in spectral_dyads(h):
            assert span_residual(pm, dyad) <= 1e-8

    def test_unit_coupling_is_rejected_at_the_dead_bond(self):
        with pytest.raises(NotSymmetrizable):
            spectral_dyads(well(4, 1.0))
