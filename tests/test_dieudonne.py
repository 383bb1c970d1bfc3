"""Solution space of the intertwining equation H^T X = X H.

Oracles:

* the equation residual itself, computed with dense numpy arithmetic,
* hand-checked antidiagonal templates on the two structured coupling lines,
* dimension counts against the non-degenerate theory (n independent
  symmetric solutions, one per spectral dyad),
* cross-validation of the three construction routes against each other,
* the first-row recurrence run exactly on fractions.Fraction, and the flip
  F H(lambda, mu) F = H(-mu, -lambda), which maps solutions to solutions.
"""

import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cptwell.dieudonne import (
    _certified_basis,
    _intertwining_operator,
    _recurrence_route,
    _symmetric_elements,
)
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
ROUTES = ("dense", "dyad", "recurrence")


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
        pm = kernel_basis(well(n, 0.4), route="dyad")
        assert pm.dimension == n
        assert pm.independence > INDEPENDENCE_FLOOR

    def test_dyad_route_requires_a_symmetrizable_matrix(self):
        with pytest.raises(NotSymmetrizable):
            kernel_basis(well(DENSE_ROUTE_MAX + 8, 1.2), route="dyad")
        with pytest.raises(NotSymmetrizable):
            kernel_basis(well(DENSE_ROUTE_MAX + 1, 0.3, -1.0), route="dyad")

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
    """The default tries the recurrence (behind the degeneracy gate), then the
    dyads, then, up to DENSE_ROUTE_MAX, the dense route; the first route that
    answers is returned unchanged and named in ``route``."""

    def test_the_recurrence_answers_in_and_out_of_the_window(self):
        cells = (
            (2, 0.41, -0.27), (2, 1.3, 0.2), (7, 0.45, -0.15), (DENSE_ROUTE_MAX, 0.9, -0.9),
            (3, 1.3, 1.3), (8, 1.3, 0.2), (DENSE_ROUTE_MAX, 0.3, -1.2), (64, 0.41, -0.27),
        )
        for n, lam, mu in cells:
            h = well(n, lam, mu)
            pm = kernel_basis(h)
            assert pm.route == "recurrence", (n, lam, mu)
            assert same_bits(pm, kernel_basis(h, route="recurrence")), (n, lam, mu)

    def test_a_recurrence_refusal_falls_back_to_the_dyad_basis(self):
        # Near the mu = -lambda corner the recurrence divides by a small bond and grows.
        for n, lam in ((3, 1.0 - 1e-8), (DENSE_ROUTE_MAX + 1, 1.0 - 1e-10)):
            h = well(n, lam, -lam)
            with pytest.raises(NumericalError, match="grew"):
                kernel_basis(h, route="recurrence")
            pm = kernel_basis(h)
            assert pm.route == "dyad", n
            assert same_bits(pm, kernel_basis(h, route="dyad")), n

    def test_a_recurrence_refusal_out_of_the_window_falls_back_to_the_dense_basis(self):
        # Far outside the window the rows grow geometrically.  Without the growth
        # bound the recurrence would pass both certificates at (24, 2.5, 0.3) and
        # (32, -1.5, 2) with spans 5e-8 and 3e-8 from the exact ones, where the
        # dense route's are within 1e-14.
        for n, lam, mu in ((24, 2.5, 0.3), (DENSE_ROUTE_MAX, 2.5, 0.3), (DENSE_ROUTE_MAX, -1.5, 2.0)):
            h = well(n, lam, mu)
            with pytest.raises(NumericalError, match="grew"):
                kernel_basis(h, route="recurrence")
            with pytest.raises(NotSymmetrizable):
                kernel_basis(h, route="dyad")
            pm = kernel_basis(h)
            assert pm.route == "dense", (n, lam, mu)
            assert same_bits(pm, kernel_basis(h, route="dense")), (n, lam, mu)
        with pytest.raises(NotSymmetrizable):
            kernel_basis(well(DENSE_ROUTE_MAX + 1, 2.5, 0.3))

    def test_a_failed_dyad_certificate_falls_back_to_the_dense_basis(self):
        h = well(3, 1.0 - 1e-12, -(1.0 - 1e-12))
        with pytest.raises(NumericalError, match="grew"):
            kernel_basis(h, route="recurrence")
        with pytest.raises(NumericalError, match="residual"):
            kernel_basis(h, route="dyad")
        pm = kernel_basis(h)
        assert pm.route == "dense"
        assert same_bits(pm, kernel_basis(h, route="dense"))

    def test_a_dense_refusal_after_the_fallback_is_the_dense_refusal(self):
        h = well(6, 1.0)
        with pytest.raises(DegenerateSpectrum) as dense_refusal:
            kernel_basis(h, route="dense")
        with pytest.raises(DegenerateSpectrum) as default_refusal:
            kernel_basis(h)
        assert str(default_refusal.value) == str(dense_refusal.value)
        with pytest.raises(DegenerateSpectrum) as recurrence_refusal:
            kernel_basis(h, route="recurrence")
        assert str(recurrence_refusal.value) == str(dense_refusal.value)
        # Without the gate the upward recurrence would answer here.
        assert _certified_basis(h, _recurrence_route(h), "recurrence").dimension == 6

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


def span_gap(a, b):
    """Largest span residual of either basis against the other."""
    return max(
        max(span_residual(b, x) for x in a.basis),
        max(span_residual(a, x) for x in b.basis),
    )


def exact_bands(n, lam, mu):
    """(super, sub) of H(lam, mu) as Fractions, from the model's definition."""
    sup = [Fraction(-1)] * (n - 1)
    sub = [Fraction(-1)] * (n - 1)
    sup[0] = -1 - lam
    sub[n - 2] = -1 + mu
    if n > 2:
        sub[0] = -1 + lam
        sup[n - 2] = -1 - mu
    return sup, sub


def fraction_recurrence(n, lam, mu):
    """Reference: the first-row recurrence in exact arithmetic, entry by entry.

    Oriented by the library's rule: downward from first rows e_k, or, when the
    super-diagonal's smallest bond is the larger, upward from last rows
    e_{n-1-k}, solving entry (i, j) of H^T X = X H for X[i-1, j].  Nothing is
    symmetrized.  Returns the elements and whether the run went downward.
    """
    sup, sub = exact_bands(n, lam, mu)
    down = min(map(abs, sub)) >= min(map(abs, sup))
    elements = []
    for k in range(n):
        x = [[Fraction(0)] * n for _ in range(n)]
        if down:
            x[0][k] = Fraction(1)
            for i in range(n - 1):
                for j in range(n):
                    v = -sup[i - 1] * x[i - 1][j] if i else Fraction(0)
                    if j:
                        v += x[i][j - 1] * sup[j - 1]
                    if j < n - 1:
                        v += x[i][j + 1] * sub[j]
                    x[i + 1][j] = v / sub[i]
        else:
            x[n - 1][n - 1 - k] = Fraction(1)
            for i in range(n - 1, 0, -1):
                for j in range(n):
                    v = -sub[i] * x[i + 1][j] if i < n - 1 else Fraction(0)
                    if j:
                        v += x[i][j - 1] * sup[j - 1]
                    if j < n - 1:
                        v += x[i][j + 1] * sub[j]
                    x[i - 1][j] = v / sup[i - 1]
        elements.append(x)
    return elements, down


def exact_defect(n, lam, mu, x):
    """max|H^T X - X H| in exact arithmetic (the diagonal of H cancels)."""
    sup, sub = exact_bands(n, lam, mu)
    h = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        h[i][i + 1], h[i + 1][i] = sup[i], sub[i]
    return max(
        abs(sum(h[m][i] * x[m][j] - x[i][m] * h[m][j] for m in range(n)))
        for i in range(n)
        for j in range(n)
    )


class TestRecurrenceRoute:
    RATIONAL_COUPLINGS = (
        (Fraction(1, 2), Fraction(-1, 3)),
        (Fraction(3, 2), Fraction(1, 3)),
        (Fraction(-1, 2), Fraction(1, 3)),
    )

    def test_matches_the_exact_recurrence_on_rationals(self):
        directions = set()
        for n in range(2, 7):
            for lam, mu in self.RATIONAL_COUPLINGS:
                exact, down = fraction_recurrence(n, lam, mu)
                directions.add(down)
                pm = kernel_basis(well(n, float(lam), float(mu)), route="recurrence")
                for x, got in zip(exact, pm.basis):
                    assert exact_defect(n, lam, mu, x) == 0, (n, lam, mu)
                    assert all(x[i][j] == x[j][i] for i in range(n) for j in range(n))
                    flat = [v for row in x for v in row]
                    peak = max(flat, key=abs)
                    ref = np.array([[float(v / peak) for v in row] for row in x])
                    assert np.abs(got - ref).max() <= 1e-13, (n, lam, mu)
        assert directions == {True, False}

    def test_the_flip_maps_the_problem_and_its_solutions(self):
        for n in (2, 5, 9, 33):
            for lam, mu in ((0.41, -0.27), (1.3, 0.2), (-0.0, 0.6), (3.0, -0.5)):
                h, g = well(n, lam, mu), well(n, -mu, -lam)
                assert np.array_equal(bits(dense(h)[::-1, ::-1]), bits(dense(g))), (n, lam, mu)
                pm = kernel_basis(g)
                for x in kernel_basis(h).basis:
                    assert span_residual(pm, x[::-1, ::-1]) <= 1e-9, (n, lam, mu)

    def test_growth_overflow_and_zero_bonds_are_refused_without_warnings(self):
        # Growth past the bound, past the float range (inf), and a zero bond in
        # both directions (NaN; the degeneracy gate refuses it first, at every size).
        for h in (well(24, 2.5, 0.3), well(64, 1e200, 0.5), well(5, 1.0, -1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match="grew to"):
                    _recurrence_route(h)

    def test_the_edge_cell_the_dyads_refused_now_answers(self):
        pm = kernel_basis(well(DENSE_ROUTE_MAX + 1, 0.41, 1.0 - 1e-12))
        assert pm.route == "recurrence" and pm.dimension == DENSE_ROUTE_MAX + 1

    def test_out_of_window_cells_above_the_dense_limit_answer(self):
        for lam, mu in ((1.3, 1.3), (3.0, -0.5)):
            pm = kernel_basis(well(64, lam, mu))
            assert pm.route == "recurrence" and pm.dimension == 64, (lam, mu)
        # At (2, 2) the recurrence passes the certificates, but the two edge
        # states are 7e-15 apart, so the degeneracy gate refuses it and the
        # default keeps the dyad route's refusal.
        h = well(64, 2.0, 2.0)
        assert _certified_basis(h, _recurrence_route(h), "recurrence").dimension == 64
        with pytest.raises(DegenerateSpectrum):
            kernel_basis(h, route="recurrence")
        with pytest.raises(NotSymmetrizable):
            kernel_basis(h)

    def test_a_mu_minus_lambda_corner_is_pinned_to_the_recurrence(self):
        # Both directions divide by a bond of 1e-12 here.  Every route passes its
        # certificates, yet each span is about 1e-4 from the exact one.
        pm = kernel_basis(well(7, -(1.0 - 1e-12), 1.0 - 1e-12))
        assert pm.route == "recurrence"

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        lam=st.floats(-0.95, 0.95),
        mu=st.floats(-0.95, 0.95),
    )
    def test_in_the_window_the_default_is_the_recurrence_on_the_dyad_space(self, n, lam, mu):
        h = well(n, lam, mu)
        pm = kernel_basis(h)
        assert pm.route == "recurrence"
        assert pm.residuals.max() <= RESIDUAL_FACTOR * entry_norm(h)
        assert pm.independence > INDEPENDENCE_FLOOR
        assert span_gap(pm, kernel_basis(h, route="dyad")) <= 1e-9


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


def loop_recurrence_basis(h):
    """Reference: the recurrence one element at a time over whole rows, made
    symmetric by the sum triu(X) + triu(X, 1)^T, normalized, checked through
    public residual()."""
    n = h.n
    down = np.abs(h.sub).min() >= np.abs(h.super).min()
    sup, sub = (h.super, h.sub) if down else (h.sub[::-1], h.super[::-1])
    basis = []
    for k in range(n):
        x = np.zeros((n, n))
        x[0, k] = 1.0
        for i in range(n - 1):
            x[i + 1, 1:] = x[i, :-1] * sup
            x[i + 1, :-1] += x[i, 1:] * sub
            if i:
                x[i + 1] -= sup[i - 1] * x[i - 1]
            x[i + 1] /= sub[i]
        x = np.triu(x) + np.triu(x, 1).T
        if not down:
            x = x[::-1, ::-1]
        flat = x.reshape(-1)
        basis.append(x / flat[int(np.abs(flat).argmax())])
    residuals = np.array([residual(h, x) for x in basis])
    stacked = np.stack([x.reshape(-1) for x in basis], axis=1)
    return basis, residuals, float(np.linalg.svd(stacked, compute_uv=False)[-1])


class TestRecurrenceRouteAssembly:
    """The all-elements-at-once recurrence, its in-place mirror and the shared
    normalization against the per-element loop; equality is bitwise."""

    SIZES = (2, 3, 8, 33, 64)
    # Both directions, a zero and a negative-zero coupling, a line, and a cell
    # outside the window.
    COUPLINGS = ((0.41, -0.27), (-0.27, 0.41), (-0.0, 0.3), (0.6, -0.0), (-0.0, -0.0),
                 (0.0, 0.0), (0.7, 0.7), (-0.5, 0.5), (1.3, 1.3), (3.0, -0.5))

    def test_recurrence_route_matches_the_loop_construction(self):
        for n in self.SIZES:
            for lam, mu in self.COUPLINGS:
                h = well(n, lam, mu)
                pm = kernel_basis(h, route="recurrence")
                basis, residuals, independence = loop_recurrence_basis(h)
                assert np.array_equal(bits(pm.basis), bits(basis)), (n, lam, mu)
                assert np.array_equal(bits(pm.residuals), bits(residuals)), (n, lam, mu)
                assert bits(pm.independence) == bits(independence), (n, lam, mu)

    def test_every_element_equals_its_transpose_bit_for_bit(self):
        # The mirrored triangle is exactly the computed one, and every zero of
        # an element is +0.0 divided by its peak: all zeros share one sign.
        for n in self.SIZES:
            for lam, mu in self.COUPLINGS:
                for x in kernel_basis(well(n, lam, mu), route="recurrence").basis:
                    assert np.array_equal(bits(x), bits(x.T)), (n, lam, mu)
                    zeros = np.signbit(x[x == 0.0])
                    assert zeros.all() or not zeros.any(), (n, lam, mu)


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
