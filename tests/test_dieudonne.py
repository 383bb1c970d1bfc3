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
    NumericalError,
    ValidationError,
)
from cptwell.hamiltonian import CouplingPair, build, dense
from cptwell.quasihermitian import biorthogonalize

LAMBDAS = (-0.8, -0.4, 0.1, 0.5, 0.9)
MUS = (-0.7, -0.2, 0.3, 0.8)
ROUTES = ("dense", "dyad")


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
    # In the open square both explicit routes apply; each must keep these properties.
    def test_dimension_equals_the_matrix_size_off_the_degenerate_set(self):
        for route in ROUTES:
            for n in (2, 3, 5, 8):
                for lam in LAMBDAS:
                    for mu in MUS:
                        pm = kernel_basis(well(n, lam, mu), route=route)
                        assert pm.dimension == n, (route, n, lam, mu)

    def test_elements_are_symmetric_normalized_and_small_residual(self):
        h = well(7, 0.45, -0.15)
        scale = entry_norm(h)
        for route in ROUTES:
            pm = kernel_basis(h, route=route)
            for x, r in zip(pm.basis, pm.residuals):
                assert np.array_equal(x, x.T)
                peak = np.unravel_index(np.argmax(np.abs(x)), x.shape)
                assert x[peak] == 1.0
                assert r <= RESIDUAL_FACTOR * scale
            assert pm.independence > INDEPENDENCE_FLOOR

    def test_uncoupled_two_site_span_contains_identity_and_flip(self):
        for route in ROUTES:
            pm = kernel_basis(well(2, 0.0), route=route)
            assert pm.dimension == 2
            assert span_residual(pm, np.eye(2)) <= 1e-10
            assert span_residual(pm, np.fliplr(np.eye(2))) <= 1e-10

    def test_matched_line_span_contains_the_exchange_template(self):
        for route in ROUTES:
            pm = kernel_basis(well(3, 0.5), route=route)
            assert span_residual(pm, np.fliplr(np.eye(3))) <= 1e-10

    def test_opposite_line_span_contains_the_weighted_template(self):
        for route in ROUTES:
            pm = kernel_basis(well(4, 0.5, -0.5), route=route)
            assert span_residual(pm, closed_form(4, 0.5, "weighted").matrix) <= 1e-10

    def test_an_asymmetric_probe_is_far_from_the_span(self):
        probe = np.zeros((3, 3))
        probe[0, 1] = 1.0
        for route in ROUTES:
            pm = kernel_basis(well(3, 0.2), route=route)
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
        with pytest.raises(NotSymmetrizable):
            kernel_basis(well(DENSE_ROUTE_MAX + 1, 0.3, -1.0))

    def test_unknown_route_is_rejected(self):
        with pytest.raises(ValidationError):
            kernel_basis(well(4, 0.2), route="cofactor")

    def test_solutions_transpose_the_spectral_projectors(self):
        for n, lam, mu in ((3, 0.5, 0.5), (4, 0.3, -0.4), (5, -0.7, 0.2)):
            h = well(n, lam, mu)
            system = biorthogonalize(h)
            for route in ROUTES:
                pm = kernel_basis(h, route=route)
                for x in pm.basis:
                    for k in range(n):
                        pk = system.projector(k)
                        assert np.max(np.abs(x @ pk - pk.T @ x)) <= 1e-8, (route, n, lam, mu)

    def test_serialization_round_trips(self):
        for route in ROUTES:
            pm = kernel_basis(well(3, 0.25), route=route)
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


def same_bits(a, b):
    return (
        np.array_equal(bits(a.basis), bits(b.basis))
        and np.array_equal(bits(a.residuals), bits(b.residuals))
        and bits(a.independence) == bits(b.independence)
    )


class TestDefaultRoute:
    """Up to DENSE_ROUTE_MAX the default takes the dyad route and hands any
    refusal of it to the dense route, whose answer is then returned unchanged."""

    def test_symmetrizable_input_gets_the_dyad_basis(self):
        # n = 2 carries both couplings on one bond, so (1.3, 0.2) is symmetrizable there.
        for n, lam, mu in ((2, 0.41, -0.27), (2, 1.3, 0.2), (7, 0.45, -0.15), (DENSE_ROUTE_MAX, 0.9, -0.9)):
            h = well(n, lam, mu)
            assert same_bits(kernel_basis(h), kernel_basis(h, route="dyad")), (n, lam, mu)

    def test_non_symmetrizable_input_gets_the_dense_basis(self):
        for n, lam, mu in ((3, 1.3, 1.3), (8, 1.3, 0.2), (DENSE_ROUTE_MAX, 0.3, -1.2)):
            h = well(n, lam, mu)
            with pytest.raises(NotSymmetrizable):
                kernel_basis(h, route="dyad")
            assert same_bits(kernel_basis(h), kernel_basis(h, route="dense")), (n, lam, mu)

    def test_a_failed_dyad_certificate_falls_back_to_the_dense_basis(self):
        h = well(3, 1.0 - 1e-8)
        with pytest.raises(NumericalError, match="residual"):
            kernel_basis(h, route="dyad")
        assert same_bits(kernel_basis(h), kernel_basis(h, route="dense"))

    def test_a_dense_refusal_after_the_fallback_is_the_dense_refusal(self):
        h = well(6, 1.0)
        with pytest.raises(DegenerateSpectrum) as dense_refusal:
            kernel_basis(h, route="dense")
        with pytest.raises(DegenerateSpectrum) as default_refusal:
            kernel_basis(h)
        assert str(default_refusal.value) == str(dense_refusal.value)

    def test_routes_span_the_same_space_at_the_window_edge(self):
        edge = (0.9, 0.99, 0.999, 0.9999)
        for n in (3, 8, 17):
            for i, a_lam in enumerate(edge):
                for j, a_mu in enumerate(edge):
                    lam, mu = (-1) ** i * a_lam, (-1) ** (i + j) * a_mu
                    h = well(n, lam, mu)
                    a = kernel_basis(h)
                    b = kernel_basis(h, route="dense")
                    for x in a.basis:
                        assert span_residual(b, x) <= 1e-9, (n, lam, mu)
                    for x in b.basis:
                        assert span_residual(a, x) <= 1e-9, (n, lam, mu)


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


def loop_dyad_basis(h):
    """Reference: the dyad route one element at a time, through public residual()."""
    n = h.n
    v = np.stack([x.reshape(-1) for x in spectral_dyads(h)], axis=1)
    q, _ = np.linalg.qr(v)
    basis = []
    for k in range(n):
        x = q[:, k].reshape(n, n)
        x = 0.5 * (x + x.T)
        flat = x.reshape(-1)
        basis.append(x / flat[int(np.abs(flat).argmax())])
    residuals = np.array([residual(h, x) for x in basis])
    stacked = np.stack([x.reshape(-1) for x in basis], axis=1)
    return basis, residuals, float(np.linalg.svd(stacked, compute_uv=False)[-1])


class TestDyadRouteAssembly:
    """The array-at-once dyad route, normalization and residuals against the
    per-element loop; equality is bitwise."""

    def test_dyad_route_matches_the_loop_construction(self):
        for n in (2, 3, 9, DENSE_ROUTE_MAX + 1):
            for lam, mu in ((0.41, -0.27), (-0.0, 0.3), (0.9999, -0.9)):
                h = well(n, lam, mu)
                pm = kernel_basis(h, route="dyad")
                basis, residuals, independence = loop_dyad_basis(h)
                assert np.array_equal(bits(pm.basis), bits(basis)), (n, lam, mu)
                assert np.array_equal(bits(pm.residuals), bits(residuals)), (n, lam, mu)
                assert bits(pm.independence) == bits(independence), (n, lam, mu)


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
        # Against the SVD basis: the default basis is built from these dyads.
        h = well(6, 0.55, -0.25)
        pm = kernel_basis(h, route="dense")
        for dyad in spectral_dyads(h):
            assert span_residual(pm, dyad) <= 1e-8

    def test_unit_coupling_is_rejected_at_the_dead_bond(self):
        with pytest.raises(NotSymmetrizable):
            spectral_dyads(well(4, 1.0))
