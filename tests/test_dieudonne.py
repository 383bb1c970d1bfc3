"""Solution space of the intertwining equation H^T X = X H.

Oracles:

* the equation residual itself, computed with dense numpy arithmetic,
* hand-checked antidiagonal templates on the two structured coupling lines,
* dimension counts against the non-degenerate theory (n independent
  symmetric solutions, one per spectral dyad),
* the spectral dyads, and a test-local SVD null space of the intertwining
  operator, as independent constructions of the same space,
* the first-row recurrence run exactly on fractions.Fraction (entry by entry,
  and as an exact span by rational Gram-Schmidt), and the flip
  F H(lambda, mu) F = H(-mu, -lambda), which maps solutions to solutions.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cptwell.dieudonne import (
    INDEPENDENCE_FLOOR,
    RECURRENCE_GROWTH_MAX,
    RESIDUAL_FACTOR,
    PseudometricBasis,
    kernel_basis,
    residual,
    span_residual,
)
from cptwell.dieudonne import (
    _certified_basis,
    _recurrence_elements,
    _recurrence_route,
)
from cptwell.errors import (
    DegenerateSpectrum,
    NotSymmetrizable,
    NumericalError,
    ValidationError,
)
from cptwell.hamiltonian import build, dense
from cptwell.quasihermitian import biorthogonalize, closed_form_operators, spectral_dyads

LAMBDAS = (-0.8, -0.4, 0.1, 0.5, 0.9)
MUS = (-0.7, -0.2, 0.3, 0.8)


def well(n, lam, mu=None):
    return build(n, (lam, lam if mu is None else mu))


def entry_norm(h):
    return float(max(2.0, np.abs(h.super).max(), np.abs(h.sub).max()))


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


class TestCandidateChecks:
    """``residual`` and ``span_residual`` take only finite real (n, n) matrices."""

    BAD = (
        ("complex", 1j * np.eye(4), "real matrix"),
        ("all NaN", np.full((4, 4), np.nan), "non-finite"),
        ("one inf", np.diag([1.0, np.inf, 1.0, 1.0]), "non-finite"),
        ("strings", np.full((4, 4), "a"), "real matrix"),
        ("objects", [[None] * 4] * 4, "real matrix"),
        ("ragged", [[1.0], [1.0, 2.0]], "not a matrix"),
    )

    @pytest.mark.parametrize("name, x, match", BAD, ids=[b[0] for b in BAD])
    def test_residual_refuses_what_is_not_a_finite_real_matrix(self, name, x, match):
        # Cast to float, the complex candidate read as an exact solution (0.0),
        # with a ComplexWarning; the NaN one gave nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                residual(well(4, 0.3, -0.2), x)

    @pytest.mark.parametrize("name, x, match", BAD, ids=[b[0] for b in BAD])
    def test_span_residual_refuses_what_is_not_a_finite_real_matrix(self, name, x, match):
        pm = kernel_basis(well(4, 0.3, -0.2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                span_residual(pm, x)

    def test_integer_and_boolean_matrices_are_read_as_floats(self):
        h = well(4, 0.3, -0.2)
        pm = kernel_basis(h)
        for x in (np.eye(4, dtype=int), np.eye(4, dtype=bool), np.eye(4).tolist()):
            assert residual(h, x) == residual(h, np.eye(4))
            assert span_residual(pm, x) == span_residual(pm, np.eye(4))

    def test_the_zero_matrix_is_in_every_span(self):
        assert span_residual(kernel_basis(well(4, 0.3, -0.2)), np.zeros((4, 4))) == 0.0

    def test_a_wrong_shape_is_refused_by_both(self):
        h = well(4, 0.3, -0.2)
        with pytest.raises(ValidationError, match="operator size 4"):
            residual(h, np.eye(3))
        with pytest.raises(ValidationError, match="basis size 4"):
            span_residual(kernel_basis(h), np.eye(3))


class TestArgumentTypes:
    def test_each_entry_point_refuses_an_argument_of_another_type(self):
        h = well(4, 0.3, -0.2)
        pm = kernel_basis(h)
        for call, name in (
            (lambda: residual(dense(h), np.eye(4)), "residual"),
            (lambda: kernel_basis((h.lam, h.mu)), "kernel_basis"),
        ):
            with pytest.raises(ValidationError, match=f"{name} expects a DiscreteHamiltonian"):
                call()
        with pytest.raises(ValidationError, match="span_residual expects a PseudometricBasis"):
            span_residual(pm.basis, np.eye(4))


class TestCertificates:
    # Corrupted bases that the recurrence never gives, to reach both refusals.
    def test_an_element_off_the_solution_space_fails_the_residual_certificate(self):
        h = well(6, 0.3, -0.2)
        basis, start = _recurrence_route(h)
        basis[2] = np.eye(6)  # H^T - H is not zero off the line mu = lambda
        with pytest.raises(NumericalError, match="pseudometric residual"):
            _certified_basis(h, basis, start)

    def test_an_overflowing_residual_fails_the_certificate_without_a_warning(self):
        # H^T X - X H overflows to inf - inf here; a NaN residual would compare
        # false against the bound and pass, so the defect must read inf.
        h = well(2, 1e308, 0.3)
        basis = np.full((2, 2, 2), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="pseudometric residual inf exceeds"):
                _certified_basis(h, basis, None)

    def test_a_repeated_element_fails_the_independence_certificate(self):
        h = well(6, 0.3, -0.2)
        basis, _ = _recurrence_route(h)
        basis[3] = basis[2]
        with pytest.raises(NumericalError, match="near-dependent"):
            _certified_basis(h, basis, None)


class TestClosedForms:
    def test_exchange_template_is_the_flip_matrix(self):
        p = closed_form_operators(4, 0.7, "exchange").p
        assert p[0, -1] == 1.0
        assert np.array_equal(p, np.fliplr(np.eye(4)))
        assert residual(well(4, 0.7), p) == 0.0

    def test_weighted_template_puts_alpha_on_both_corners(self):
        p = closed_form_operators(3, 0.5, "weighted").p
        expect = np.array([[0.0, 0.0, 1.0 / 3.0], [0.0, 1.0, 0.0], [1.0 / 3.0, 0.0, 0.0]])
        assert np.array_equal(p, expect)
        assert p[0, -1] == 1.0 / 3.0

    def test_weighted_template_solves_the_opposite_line(self):
        for n, lam in ((2, 0.5), (3, 0.5), (5, 0.3), (7, -0.6), (4, 0.9)):
            p = closed_form_operators(n, lam, "weighted").p
            assert residual(well(n, lam, -lam), p) <= 1e-15

    def test_exchange_template_solves_the_matched_line_for_every_tested_size(self):
        for n in range(2, 12):
            p = closed_form_operators(n, 0.3, "exchange").p
            assert residual(well(n, 0.3), p) == 0.0

    def test_weighted_template_degenerates_at_minus_one(self):
        with pytest.raises(ValidationError):
            closed_form_operators(4, -1.0, "weighted")

    def test_unknown_variant_and_bad_size_are_rejected(self):
        with pytest.raises(ValidationError):
            closed_form_operators(4, 0.5, "mystery")
        with pytest.raises(ValidationError):
            closed_form_operators(1, 0.5, "exchange")


class TestKernelBasis:
    def test_dimension_equals_the_matrix_size_off_the_degenerate_set(self):
        for n in (2, 3, 5, 8):
            for lam in LAMBDAS:
                for mu in MUS:
                    pm = kernel_basis(well(n, lam, mu))
                    assert pm.dimension == n, (n, lam, mu)
        pm = kernel_basis(well(3, 0.25))
        assert pm.n == 3 and pm.dimension == 3 and len(pm.residuals) == 3
        assert pm.independence > 1e-8
        assert span_residual(pm, pm.basis[0]) <= 1e-12

    def test_elements_are_symmetric_normalized_and_small_residual(self):
        h = well(7, 0.45, -0.15)
        scale = entry_norm(h)
        pm = kernel_basis(h)
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
        assert span_residual(pm, closed_form_operators(4, 0.5, "weighted").p) <= 1e-10

    def test_an_asymmetric_probe_is_far_from_the_span(self):
        probe = np.zeros((3, 3))
        probe[0, 1] = 1.0
        pm = kernel_basis(well(3, 0.2))
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
        # Without the gate this cell would answer, 3.9e-5 off the exact span.
        with pytest.raises(DegenerateSpectrum):
            kernel_basis(well(6, -0.999999999999, 1.0))

    def test_routes_agree_on_their_common_domain(self):
        # The recurrence basis against the SVD null space, both ways.
        h = well(10, 0.35, 0.6)
        pm = kernel_basis(h)
        assert pm.dimension == 10
        assert span_gap(pm.basis, svd_null_space(h)) <= 1e-9

    def test_solutions_transpose_the_spectral_projectors(self):
        for n, lam, mu in ((3, 0.5, 0.5), (4, 0.3, -0.4), (5, -0.7, 0.2)):
            h = well(n, lam, mu)
            system = biorthogonalize(h)
            pm = kernel_basis(h)
            for x in pm.basis:
                for k in range(n):
                    pk = system.projector(k)
                    assert np.max(np.abs(x @ pk - pk.T @ x)) <= 1e-8, (n, lam, mu)


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


def svd_null_space(h):
    """Reference: the n symmetric solutions from the SVD of X -> H^T X - X H.

    The operator acts on the orthonormal symmetric basis, one column per basis
    matrix; its n smallest right singular vectors, which must lie well below
    the rest, give the coordinates of the solutions.
    """
    n = h.n
    hd = dense(h)
    cols = loop_symmetric_basis(n)
    a = np.stack([(hd.T @ x - x @ hd).reshape(-1) for x in cols], axis=1)
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    assert sv[-n] <= 1e-13 * sv[0] < 1e-6 * sv[-n - 1], (n, sv[-n - 1 : -n + 1])
    return list(np.tensordot(vt[-n:], np.array(cols), axes=1))


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def same_bits(pm, loop):
    """Whether pm equals the loop construction's (basis, residuals, independence) bitwise."""
    basis, residuals, independence = loop
    return (
        np.array_equal(bits(pm.basis), bits(basis))
        and np.array_equal(bits(pm.residuals), bits(residuals))
        and bits(pm.independence) == bits(independence)
    )


def plain_growth(h):
    """Largest entry of the recurrence from unit first rows, in the library's direction."""
    down = np.abs(h.sub).min() >= np.abs(h.super).min()
    sup, sub = (h.super, h.sub) if down else (h.sub[::-1], h.super[::-1])
    with np.errstate(all="ignore"):
        return float(np.abs(_recurrence_elements(sup, sub)).max())


class TestDefaultRoute:
    """``kernel_basis(h)``: the degeneracy gate, the first-row recurrence
    (re-orthonormalized when its plain run grows past RECURRENCE_GROWTH_MAX),
    then the certificates."""

    def test_the_recurrence_answers_in_and_out_of_the_window(self):
        # Cells whose plain run stays below the bound keep the plain basis bit for bit.
        cells = (
            (2, 0.41, -0.27), (2, 1.3, 0.2), (7, 0.45, -0.15), (32, 0.9, -0.9),
            (3, 1.3, 1.3), (8, 1.3, 0.2), (32, 0.3, -1.2), (64, 0.41, -0.27),
        )
        for n, lam, mu in cells:
            h = well(n, lam, mu)
            assert plain_growth(h) <= RECURRENCE_GROWTH_MAX, (n, lam, mu)
            pm = kernel_basis(h)
            assert not pm.reorthonormalized, (n, lam, mu)
            assert same_bits(pm, loop_recurrence_basis(h)), (n, lam, mu)

    def test_growth_near_a_corner_is_reorthonormalized_onto_the_dyad_space(self):
        # Near the mu = -lambda corner the plain run divides by a small bond and
        # grows; the re-orthonormalized basis spans the dyads' space.
        for n, lam in ((3, 1.0 - 1e-8), (33, 1.0 - 1e-6)):
            h = well(n, lam, -lam)
            assert plain_growth(h) > RECURRENCE_GROWTH_MAX, n
            pm = kernel_basis(h)
            assert pm.residuals.max() <= RESIDUAL_FACTOR * entry_norm(h), n
            assert span_gap(pm.basis, spectral_dyads(h)) <= 1e-8, n

    def test_a_degenerate_spectrum_is_refused_before_the_recurrence(self):
        h = well(6, 1.0)
        with pytest.raises(DegenerateSpectrum, match="minimum eigenvalue gap"):
            kernel_basis(h)
        # Without the gate the upward recurrence would answer here.
        assert _certified_basis(h, *_recurrence_route(h)).dimension == 6

    def test_the_degeneracy_refusal_names_its_relative_threshold(self):
        # The bound is 1e-10 * R, for the level bound R = 3 + max(1, s_1, s_1)
        # = 4 at n = 6 and lambda = mu = 1; the message shows both.
        with pytest.raises(DegenerateSpectrum) as info:
            kernel_basis(well(6, 1.0))
        assert (
            "minimum eigenvalue gap 0.000e+00 <= 1e-10 * level bound 4.000e+00 at n=6"
            in str(info.value)
        )

    def test_a_huge_coupling_with_a_wide_gap_answers(self):
        # The levels are 2 -/+ 8.4e153, 1.7e154 apart, and R = 2 + 8.4e153
        # bounds them: the gap is far above 1e-10 * R.  The Gershgorin radius
        # of the bands, 1e308, refused this cell as degenerate.
        pm = kernel_basis(well(2, 1e308, 0.3))
        assert pm.dimension == 2 and pm.independence == 1.0
        assert pm.residuals.max() <= 2.3e-16

    def test_routes_span_the_same_space_at_the_window_edge(self):
        # The recurrence basis against the SVD null space, both ways.
        edge = (0.9, 0.99, 0.999, 0.9999)
        for n in (3, 8, 17):
            for i, a_lam in enumerate(edge):
                for j, a_mu in enumerate(edge):
                    lam, mu = (-1) ** i * a_lam, (-1) ** (i + j) * a_mu
                    h = well(n, lam, mu)
                    assert span_gap(kernel_basis(h).basis, svd_null_space(h)) <= 1e-9, (n, lam, mu)


def span_distance(xs, ys):
    """Largest relative max-abs distance from a matrix in xs to the span of ys."""
    y = np.stack([e.reshape(-1) for e in ys], axis=1)
    worst = 0.0
    for x in xs:
        t = x.reshape(-1)
        coef = np.linalg.lstsq(y, t, rcond=None)[0]
        worst = max(worst, float(np.abs(t - y @ coef).max() / np.abs(t).max()))
    return worst


def span_gap(xs, ys):
    """Largest span distance of either list of matrices against the other."""
    return max(span_distance(xs, ys), span_distance(ys, xs))


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


def fraction_recurrence(sup, sub):
    """Reference: the first-row recurrence in exact arithmetic, entry by entry.

    Oriented by the library's rule: downward from first rows e_k, or, when the
    super-diagonal's smallest bond is the larger, upward from last rows
    e_{n-1-k}, solving entry (i, j) of H^T X = X H for X[i-1, j].  Nothing is
    symmetrized.  Returns the elements and whether the run went downward.
    """
    n = len(sub) + 1
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


def exact_span(h):
    """Reference: an orthogonal basis of the exact solution space of the stored H.

    The recurrence runs on the stored float bands in exact arithmetic, and
    rational Gram-Schmidt (no square roots) makes its n solutions orthogonal;
    each is scaled by its largest entry before it is rounded to floats.
    """
    sup = [Fraction(float(v)) for v in h.super]
    sub = [Fraction(float(v)) for v in h.sub]
    done = []
    for x in fraction_recurrence(sup, sub)[0]:
        v = [e for row in x for e in row]
        for w, ww in done:
            c = sum(a * b for a, b in zip(v, w)) / ww
            v = [a - c * b for a, b in zip(v, w)]
        done.append((v, sum(a * a for a in v)))
    return [
        np.array([float(a / max(v, key=abs)) for a in v]).reshape(h.n, h.n)
        for v, _ in done
    ]


class TestReferenceSpans:
    """Cells where the plain recurrence grows past RECURRENCE_GROWTH_MAX, against
    references that share no code with the library's construction."""

    GROWN = (
        (3, 1.0 - 1e-12, -(1.0 - 1e-12)), (7, 1.0 - 1e-8, -(1.0 - 1e-12)),
        (33, 1.0 - 1e-6, -(1.0 - 1e-6)), (24, 2.5, 0.3), (32, -1.5, 2.0),
        (40, 2.5, 0.3), (64, 2.5, 0.3), (64, -3.0, 0.3),
    )

    @pytest.mark.parametrize("n", (3, 5, 7, 8))
    def test_mu_minus_lambda_corners_match_the_exact_span(self, n):
        for lam, mu in ((1.0 - 1e-8, -(1.0 - 1e-12)), (1.0 - 1e-12, -(1.0 - 1e-12))):
            h = well(n, lam, mu)
            assert plain_growth(h) > RECURRENCE_GROWTH_MAX, (n, lam, mu)
            if n == 8:
                # The two edge states are 4e-10 and 4e-12 apart: the degeneracy
                # gate refuses both cells, so the basis is checked below it.
                with pytest.raises(DegenerateSpectrum):
                    kernel_basis(h)
                pm = _certified_basis(h, *_recurrence_route(h))
            else:
                pm = kernel_basis(h)
            assert span_gap(pm.basis, exact_span(h)) <= 1e-12, (n, lam, mu)

    def test_grown_cells_match_the_svd_null_space(self):
        # Far outside the window the rows grow geometrically; without the second
        # pass the plain run's spans were 5e-8 and 3e-8 off at (24, 2.5, 0.3)
        # and (32, -1.5, 2).
        cells = (
            (17, -3.0, 0.3), (24, 2.5, 0.3), (32, 2.0, -2.5), (32, 2.5, 0.3),
            (32, -1.5, 2.0), (40, 2.5, 0.3),
        )
        for n, lam, mu in cells:
            h = well(n, lam, mu)
            assert plain_growth(h) > RECURRENCE_GROWTH_MAX, (n, lam, mu)
            assert span_gap(kernel_basis(h).basis, svd_null_space(h)) <= 1e-12, (n, lam, mu)

    def test_random_cells_outside_the_window_match_the_svd_null_space(self):
        # Both passes: cells whose plain run stays below the bound keep its
        # rounding, up to about RECURRENCE_GROWTH_MAX * eps = 2e-10.
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 25))
            lam, mu = rng.choice([-1.0, 1.0], 2) * rng.uniform(1.01, 3.0, 2)
            h = well(n, float(lam), float(mu))
            assert span_gap(kernel_basis(h).basis, svd_null_space(h)) <= 1e-9, (n, lam, mu)

    def test_reorthonormalized_bases_keep_rounding_level_residuals(self):
        # Each recombination is one matrix product, so every new element is a
        # combination of solutions entry for entry.  Taking Q of the QR instead
        # left a residual of 2e-4 at (3, 1 - 1e-12, -(1 - 1e-12)).
        for n, lam, mu in self.GROWN:
            h = well(n, lam, mu)
            assert plain_growth(h) > RECURRENCE_GROWTH_MAX, (n, lam, mu)
            pm = kernel_basis(h)
            assert pm.residuals.max() <= 1e-13 * entry_norm(h), (n, lam, mu)
            assert pm.independence > INDEPENDENCE_FLOOR, (n, lam, mu)

    def test_reorthonormalized_elements_equal_their_transpose_bit_for_bit(self):
        for n, lam, mu in self.GROWN:
            for x in kernel_basis(well(n, lam, mu)).basis:
                assert np.array_equal(bits(x), bits(x.T)), (n, lam, mu)
                zeros = np.signbit(x[x == 0.0])
                assert zeros.all() or not zeros.any(), (n, lam, mu)


def permuted_diagonal(block):
    """Whether each row and each column of a square block has one non-zero entry."""
    nonzero = block != 0
    return bool((nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all())


def stacked_sigma_min(pm):
    """Oracle: the smallest singular value of the n^2 x n stacked basis."""
    stacked = np.stack([x.reshape(-1) for x in pm.basis], axis=1)
    return float(np.linalg.svd(stacked, compute_uv=False)[-1])


class TestIndependenceCertificate:
    """``independence``: the exact SVD after re-orthonormalization, and the
    start rows' O(n) lower bound on the plain run."""

    def test_the_plain_run_bound_clears_the_floor(self):
        # Every plain-run peak is at most RECURRENCE_GROWTH_MAX, so its bound
        # 1/max|peak| cannot fail the independence check.
        assert 1.0 / RECURRENCE_GROWTH_MAX > INDEPENDENCE_FLOOR

    def test_grown_cells_keep_the_exact_smallest_singular_value(self):
        for n, lam, mu in TestReferenceSpans.GROWN:
            pm = kernel_basis(well(n, lam, mu))
            assert pm.reorthonormalized, (n, lam, mu)
            assert bits(pm.independence) == bits(stacked_sigma_min(pm)), (n, lam, mu)

    def test_the_pass_flag_is_read_only(self):
        pm = kernel_basis(well(5, 0.3, -0.2))
        with pytest.raises(AttributeError):
            pm.reorthonormalized = True

    # Plain runs whose start rows form the identity: the bound is exactly 1,
    # and the oracle's SVD reads 0.9999999999999999.
    @example(n=13, lam=-1.0, mu=0.0)
    @example(n=9, lam=-1.0, mu=0.0)
    @example(n=21, lam=-1.0, mu=-0.5)
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 64), lam=st.floats(-3.0, 3.0), mu=st.floats(-3.0, 3.0))
    def test_independence_is_a_lower_bound_above_the_floor(self, n, lam, mu):
        try:
            pm = kernel_basis(well(n, lam, mu))
        except (DegenerateSpectrum, NumericalError):
            assume(False)
        stacked = np.stack([x.reshape(-1) for x in pm.basis], axis=1)
        sigma = np.linalg.svd(stacked, compute_uv=False)
        # A backward-stable SVD moves each singular value by up to about
        # n * eps * sigma_max, so the oracle is compared with that allowance.
        allowance = n * np.finfo(float).eps * sigma[0]
        assert INDEPENDENCE_FLOOR < pm.independence <= sigma[-1] + allowance
        if not pm.reorthonormalized:
            assert pm.independence >= 1.0 / RECURRENCE_GROWTH_MAX
            # The exact fact the bound rests on: the start row (first
            # downward, last upward) of the elements is a permuted diagonal
            # block of the stack, and independence is its smallest entry.
            blocks = [np.stack([x[row] for x in pm.basis]) for row in (0, n - 1)]
            assert any(
                permuted_diagonal(b) and bits(pm.independence) == bits(np.abs(b).max(axis=1).min())
                for b in blocks
            ), (n, lam, mu)


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
                exact, down = fraction_recurrence(*exact_bands(n, lam, mu))
                directions.add(down)
                pm = kernel_basis(well(n, float(lam), float(mu)))
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

    def test_overflow_and_zero_bonds_are_refused_without_warnings(self):
        # Past the float range (inf), and a zero bond in both directions (NaN;
        # the degeneracy gate refuses it first, at every size).
        for h in (well(64, 1e200, 0.5), well(5, 1.0, -1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match="not finite"):
                    _recurrence_route(h)
        # Growth past the bound is answered, also without warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, start = _recurrence_route(well(24, 2.5, 0.3))
        assert np.isfinite(x).all() and start is None

    def test_the_edge_cell_the_dyads_refused_now_answers(self):
        assert kernel_basis(well(33, 0.41, 1.0 - 1e-12)).dimension == 33

    def test_out_of_window_cells_above_the_dense_limit_answer(self):
        for lam, mu in ((1.3, 1.3), (3.0, -0.5), (2.5, 0.3)):
            assert kernel_basis(well(64, lam, mu)).dimension == 64, (lam, mu)
        # At (2, 2) the recurrence passes the certificates, but the two edge
        # states are 7e-15 apart, so the degeneracy gate refuses it.
        h = well(64, 2.0, 2.0)
        assert _certified_basis(h, *_recurrence_route(h)).dimension == 64
        with pytest.raises(DegenerateSpectrum):
            kernel_basis(h)

    def test_a_mu_minus_lambda_corner_is_pinned_to_the_recurrence(self):
        # Both directions divide by a bond of 1e-12 here, yet the plain run does
        # not grow, so no second pass runs.  The basis passes its certificates
        # but is 1.1e-4 from the exact span: cancellation at the last divisor.
        h = well(7, -(1.0 - 1e-12), 1.0 - 1e-12)
        assert plain_growth(h) <= RECURRENCE_GROWTH_MAX
        assert same_bits(kernel_basis(h), loop_recurrence_basis(h))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        lam=st.floats(-0.95, 0.95),
        mu=st.floats(-0.95, 0.95),
    )
    def test_in_the_window_the_default_is_the_recurrence_on_the_dyad_space(self, n, lam, mu):
        h = well(n, lam, mu)
        pm = kernel_basis(h)
        assert pm.residuals.max() <= RESIDUAL_FACTOR * entry_norm(h)
        assert pm.independence > INDEPENDENCE_FLOOR
        assert span_gap(pm.basis, spectral_dyads(h)) <= 1e-9


def loop_recurrence_basis(h):
    """Reference: the recurrence one element at a time over whole rows, made
    symmetric by the sum triu(X) + triu(X, 1)^T, normalized, checked through
    public residual().  Its independence is the smallest |start-row entry|
    (1/peak) of the plain run, or the full SVD where the plain run grows past
    RECURRENCE_GROWTH_MAX (the library re-orthonormalizes those)."""
    n = h.n
    down = np.abs(h.sub).min() >= np.abs(h.super).min()
    sup, sub = (h.super, h.sub) if down else (h.sub[::-1], h.super[::-1])
    basis, peaks, starts = [], [], []
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
        peaks.append(flat[int(np.abs(flat).argmax())])
        basis.append(x / peaks[-1])
        starts.append(abs(basis[-1][0, k] if down else basis[-1][n - 1, n - 1 - k]))
    residuals = np.array([residual(h, x) for x in basis])
    if max(map(abs, peaks)) <= RECURRENCE_GROWTH_MAX:
        return basis, residuals, min(starts)
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
                assert same_bits(kernel_basis(h), loop_recurrence_basis(h)), (n, lam, mu)

    def test_every_element_equals_its_transpose_bit_for_bit(self):
        # The mirrored triangle is exactly the computed one, and every zero of
        # an element is +0.0 divided by its peak: all zeros share one sign.
        for n in self.SIZES:
            for lam, mu in self.COUPLINGS:
                for x in kernel_basis(well(n, lam, mu)).basis:
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
        # The recurrence uses no eigenvectors, so the dyads are an independent check.
        h = well(6, 0.55, -0.25)
        pm = kernel_basis(h)
        for dyad in spectral_dyads(h):
            assert span_residual(pm, dyad) <= 1e-8

    def test_unit_coupling_is_rejected_at_the_dead_bond(self):
        with pytest.raises(NotSymmetrizable):
            spectral_dyads(well(4, 1.0))

    def test_dyads_require_a_symmetrizable_matrix(self):
        # Bond products 1 - lambda^2 < 0 here, though kernel_basis answers both.
        for h in (well(40, 1.2), well(33, 0.3, -1.0)):
            with pytest.raises(NotSymmetrizable):
                spectral_dyads(h)
