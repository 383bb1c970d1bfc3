"""Metric, charge, and Hermitization for the boundary-coupled well.

Oracles:

* two-site biorthogonal systems written out by hand,
* the antidiagonal charge / diagonal metric templates on the matched
  coupling line, checked entry by entry,
* defining identities evaluated with dense numpy arithmetic: C^2 = I,
  Theta = P C, H^T Theta = Theta H, Omega^T Omega = Theta, and similarity
  invariance of the spectrum under Omega.
"""

import warnings

import numpy as np
import pytest

from cptwell import quasihermitian
from cptwell.dieudonne import closed_form, kernel_basis, residual
from cptwell.errors import (
    FactorizationError,
    InadmissiblePseudometric,
    NotDyadRepresentable,
    NotSymmetrizable,
    NumericalError,
    ValidationError,
)
from cptwell.hamiltonian import CouplingPair, build, dense, symmetrize
from cptwell.quasihermitian import (
    IDENTITY_TOL,
    OperatorTriple,
    assemble_charge_spectral,
    biorthogonalize,
    closed_form_operators,
    decompose_inverse_pseudometric,
    metric_from_ansatz,
    omega_factorize,
    symmetry_report,
    theta_adjoint,
)
from cptwell.spectra import eigen_real, spectrum_of


def well(n, lam, mu=None):
    return build(n, CouplingPair(lam, lam if mu is None else mu))


def flip(n):
    return np.fliplr(np.eye(n))


def not_real(good):
    """Inputs shaped like ``good`` that are not real arrays: a complex array,
    a list holding 1j, a list of strings and an object().  A cast to float
    would drop the first one's imaginary part with a ComplexWarning and fail
    on the others with a bare TypeError or ValueError."""
    tilted = np.asarray(good) + 0j
    tilted.flat[1] = 1j
    return tilted, tilted.tolist(), np.full(tilted.shape, "a").tolist(), object()


def refuses_without_warning(call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            call(bad)


class TestBiorthogonalize:
    def test_zero_coupling_collapses_to_one_orthonormal_family(self):
        system = biorthogonalize(well(4, 0.0))
        assert np.array_equal(system.right, system.left)
        assert np.max(np.abs(system.overlaps - 1.0)) <= 1e-14

    def test_two_site_system_matches_the_hand_computation(self):
        system = biorthogonalize(well(2, 0.5))
        root3 = np.sqrt(3.0)
        assert np.max(np.abs(system.values - np.array([2.0 - root3 / 2, 2.0 + root3 / 2]))) <= 1e-14
        expect_right = np.array([[root3 / 2, root3 / 2], [0.5, -0.5]])
        expect_left = np.array([[0.5, 0.5], [root3 / 2, -root3 / 2]])
        assert np.max(np.abs(system.right - expect_right)) <= 1e-14
        assert np.max(np.abs(system.left - expect_left)) <= 1e-14
        assert np.max(np.abs(system.overlaps - root3 / 2)) <= 1e-14

    def test_columns_solve_the_right_and_left_eigenproblems(self):
        h = well(9, 0.65)
        a = dense(h)
        system = biorthogonalize(h)
        scale = np.max(np.abs(a))
        for k in range(9):
            e = system.values[k]
            assert np.max(np.abs(a @ system.right[:, k] - e * system.right[:, k])) <= 1e-10 * scale
            assert np.max(np.abs(a.T @ system.left[:, k] - e * system.left[:, k])) <= 1e-10 * scale

    def test_left_family_is_the_squared_weight_transport_of_the_right(self):
        h = well(5, -0.4)
        d = symmetrize(h).d
        system = biorthogonalize(h)
        for k in range(5):
            v = system.right[:, k] / (d * d)
            v /= np.linalg.norm(v)
            assert min(
                np.max(np.abs(system.left[:, k] - v)),
                np.max(np.abs(system.left[:, k] + v)),
            ) <= 1e-12

    def test_a_cell_with_positive_bond_entries_answers(self):
        # At n = 2 with lambda < -1 < 1 < mu both entries of the bond are
        # positive; a negative symmetrized off-diagonal made the residual 2.1.
        h = well(2, -2.5, 2.5)
        system = biorthogonalize(h)
        assert system.values.tolist() == pytest.approx([0.5, 3.5], abs=1e-14)
        hd = dense(h)
        assert np.max(np.abs(hd @ system.right - system.right * system.values)) <= 1e-14
        assert np.all(system.overlaps > 0.0)

    def test_overlaps_are_positive_and_at_most_one(self):
        system = biorthogonalize(well(3, 0.2))
        assert system.n == 3 and system.values.shape == system.overlaps.shape == (3,)
        assert system.right.shape == system.left.shape == (3, 3)
        system = biorthogonalize(well(8, 0.9))
        assert np.all(system.overlaps > 0.0)
        assert np.all(system.overlaps <= 1.0 + 1e-14)

    def test_cross_overlaps_vanish(self):
        system = biorthogonalize(well(7, 0.8))
        gram = system.left.T @ system.right
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-10

    def test_projectors_are_idempotent_and_complete(self):
        system = biorthogonalize(well(6, 0.3))
        total = np.zeros((6, 6))
        for k in range(6):
            pk = system.projector(k)
            assert np.max(np.abs(pk @ pk - pk)) <= 1e-12
            total += pk
        assert np.max(np.abs(total - np.eye(6))) <= 1e-10

    def test_dead_bond_is_rejected(self):
        with pytest.raises(NotSymmetrizable):
            biorthogonalize(well(5, 1.0))

    @staticmethod
    def tilted(monkeypatch, angle):
        """Make eigen_real return its lowest eigenvector tilted towards the next by ``angle``."""

        def tilt(s):
            spec, w = eigen_real(s)
            w = w.copy()
            w[:, 0] = np.cos(angle) * w[:, 0] + np.sin(angle) * w[:, 1]
            return spec, w

        monkeypatch.setattr(quasihermitian, "eigen_real", tilt)

    def test_a_vector_off_its_eigenspace_fails_the_residual_check(self, monkeypatch):
        self.tilted(monkeypatch, 1e-3)
        with pytest.raises(NumericalError, match="eigenvector residual"):
            biorthogonalize(well(40, 0.0))

    def test_a_non_orthogonal_pair_fails_the_biorthogonality_check(self, monkeypatch):
        # At n = 40 the two lowest levels lie 0.018 apart, so a tilt of 1e-8
        # leaves a residual of about 1e-10 * 0.018, under the residual bound,
        # and a cross overlap of 1e-8, over IDENTITY_TOL.
        self.tilted(monkeypatch, 1e-8)
        with pytest.raises(NumericalError, match="biorthogonality defect 1.000e-08"):
            biorthogonalize(well(40, 0.0))

    def test_a_vanishing_overlap_is_refused(self):
        # One ulp-scale step from the exceptional point at |lambda| = 1 the
        # separately normalized right and left vectors overlap by 1e-12.
        with pytest.raises(NumericalError, match="vanishing overlap 1.000e-12"):
            biorthogonalize(well(5, 1.0 - 1e-12))


class TestDecomposeInversePseudometric:
    def test_identity_pseudometric_gives_unit_coefficients_at_zero_coupling(self):
        system = biorthogonalize(well(4, 0.0))
        nu = decompose_inverse_pseudometric(np.eye(4), system)
        assert np.max(np.abs(nu - 1.0)) <= 1e-12

    def test_round_trips_a_synthesized_admissible_pseudometric(self):
        system = biorthogonalize(well(4, 0.35))
        chosen = np.array([2.0, -1.0, 0.5, 3.0])
        p_inv = sum(
            chosen[m] * np.outer(system.right[:, m], system.right[:, m]) for m in range(4)
        )
        nu = decompose_inverse_pseudometric(np.linalg.inv(p_inv), system)
        assert np.max(np.abs(nu - chosen)) <= 1e-9

    def test_flip_pseudometric_alternates_signs_on_the_matched_line(self):
        system = biorthogonalize(well(3, 0.5))
        nu = decompose_inverse_pseudometric(flip(3), system)
        signs = np.sign(nu)
        assert signs.tolist() == [1.0, -1.0, 1.0]

    def test_two_site_flip_coefficients_match_the_hand_computation(self):
        system = biorthogonalize(well(2, 0.5))
        nu = decompose_inverse_pseudometric(flip(2), system)
        expect = 2.0 / np.sqrt(3.0)
        assert abs(nu[0] - expect) <= 1e-12
        assert abs(nu[1] + expect) <= 1e-12

    def test_matrix_outside_the_dyad_span_is_rejected(self):
        system = biorthogonalize(well(3, 0.5))
        p = np.eye(3)
        p[0, 1] = p[1, 0] = 0.5
        with pytest.raises(NotDyadRepresentable):
            decompose_inverse_pseudometric(p, system)

    def test_singular_pseudometric_is_rejected(self):
        system = biorthogonalize(well(3, 0.5))
        with pytest.raises(ValidationError):
            decompose_inverse_pseudometric(np.zeros((3, 3)), system)


    def test_non_finite_pseudometric_is_rejected(self):
        system = biorthogonalize(well(4, 0.3))
        corner = flip(4)
        corner[0, 3] = np.inf
        for bad in (np.full((4, 4), np.nan), corner):
            with pytest.raises(ValidationError, match="non-finite"):
                decompose_inverse_pseudometric(bad, system)
        for bad in not_real(flip(4)):
            refuses_without_warning(lambda p: decompose_inverse_pseudometric(p, system), bad)


class TestAssembleChargeSpectral:
    def test_zero_coupling_flip_charge_is_the_flip_itself(self):
        system = biorthogonalize(well(4, 0.0))
        nu = decompose_inverse_pseudometric(flip(4), system)
        asm = assemble_charge_spectral(system, nu)
        assert np.max(np.abs(asm.c - flip(4))) <= 1e-13

    def test_matched_line_charge_reproduces_the_closed_form(self):
        for n, lam in ((3, 0.5), (5, -0.7), (16, 0.3), (2, 0.9)):
            h = well(n, lam)
            system = biorthogonalize(h)
            nu = decompose_inverse_pseudometric(flip(n), system)
            asm = assemble_charge_spectral(system, nu)
            expect = closed_form_operators(n, lam).c
            assert np.max(np.abs(asm.c - expect)) <= 1e-10, (n, lam)

    def test_assembly_identities_hold(self):
        system = biorthogonalize(well(6, 0.45))
        nu = decompose_inverse_pseudometric(flip(6), system)
        asm = assemble_charge_spectral(system, nu)
        assert np.all(asm.kappa_sq > 0.0)
        assert np.max(np.abs(asm.omega - system.overlaps * nu * asm.kappa_sq)) <= 1e-10
        assert np.max(np.abs(system.overlaps * asm.omega - asm.signs)) <= 1e-12
        assert np.max(np.abs(asm.c @ asm.c - np.eye(6))) <= 1e-12

    def test_charge_fixes_the_right_vectors_up_to_sign(self):
        system = biorthogonalize(well(5, 0.6))
        nu = decompose_inverse_pseudometric(flip(5), system)
        asm = assemble_charge_spectral(system, nu)
        for k in range(5):
            r = system.right[:, k]
            assert np.max(np.abs(asm.c @ r - asm.signs[k] * r)) <= 1e-10

    def test_metric_from_the_flip_is_positive_diagonal_on_two_sites(self):
        system = biorthogonalize(well(2, 0.5))
        nu = decompose_inverse_pseudometric(flip(2), system)
        asm = assemble_charge_spectral(system, nu)
        theta = flip(2) @ asm.c
        root3 = np.sqrt(3.0)
        expect = np.diag([1.0 / root3, root3])
        assert np.max(np.abs(theta - expect)) <= 1e-13

    def test_vanishing_coefficient_is_inadmissible(self):
        system = biorthogonalize(well(3, 0.2))
        with pytest.raises(InadmissiblePseudometric):
            assemble_charge_spectral(system, np.array([1.0, 0.0, 1.0]))

    def test_the_refusal_names_the_floor_relative_to_the_largest_coefficient(self):
        # No coefficient is small here; the smallest falls under
        # OVERLAP_FLOOR * max(1, max|nu|) = 2.
        system = biorthogonalize(well(3, 0.2))
        with pytest.raises(InadmissiblePseudometric) as info:
            assemble_charge_spectral(system, np.array([1.0, 2e12, 1.5]))
        expected = "min|nu|=1.000e+00 <= 2.000e+00 = 1e-12 * max(1, max|nu|=2.000e+12)"
        assert expected in str(info.value)

    def test_near_the_opposite_line_s_corner_the_refusal_is_relative(self):
        n, lam = 7, 0.999999999999
        system = biorthogonalize(well(n, lam, -lam))
        nu = decompose_inverse_pseudometric(closed_form(n, lam, "weighted").matrix, system)
        low, high = np.abs(nu).min(), np.abs(nu).max()
        assert low > 1.0 and low <= 1e-12 * high
        with pytest.raises(InadmissiblePseudometric, match=r"min\|nu\|=.* <= .*max\|nu\|="):
            assemble_charge_spectral(system, nu)

    def test_assembly_is_deterministic(self):
        h = well(7, 0.25)
        runs = []
        for _ in range(2):
            system = biorthogonalize(h)
            nu = decompose_inverse_pseudometric(flip(7), system)
            runs.append(assemble_charge_spectral(system, nu).c)
        assert np.array_equal(runs[0], runs[1])


    def test_non_finite_coefficients_are_rejected(self):
        system = biorthogonalize(well(4, 0.3))
        nu = decompose_inverse_pseudometric(flip(4), system)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="non-finite"):
                assemble_charge_spectral(system, np.where(np.arange(4) == 2, bad, nu))
        for bad in not_real(nu):
            refuses_without_warning(lambda v: assemble_charge_spectral(system, v), bad)

    @pytest.mark.parametrize("n, x", [(3, 0.999999), (16, 0.9999999)])
    def test_near_the_exceptional_point_only_the_involution_can_refuse(self, n, x):
        # The coefficient identities omega = mu nu kappa^2 and mu omega^2 = 1/mu
        # hold up to rounding; checked against an absolute 1e-10 they refused
        # both cells (defects 1.2e-10 and 1.9e-9).
        system = biorthogonalize(well(n, x))
        try:
            asm = assemble_charge_spectral(system, np.ones(n))
        except NumericalError as exc:
            assert str(exc).startswith("charge involution defect")
        else:
            assert asm.involution == np.abs(asm.c @ asm.c - np.eye(n)).max()
            assert asm.involution <= IDENTITY_TOL


class TestMetricFromAnsatz:
    def test_dyad_sum_with_unit_coefficients_is_the_identity_at_zero_coupling(self):
        pm = kernel_basis(well(3, 0.0))
        target = np.eye(3).reshape(-1)
        stack = np.stack([x.reshape(-1) for x in pm.basis], axis=1)
        coeffs, _, _, _ = np.linalg.lstsq(stack, target, rcond=None)
        am = metric_from_ansatz(pm, coeffs)
        assert am.positive
        assert np.max(np.abs(am.theta - np.eye(3))) <= 1e-13

    def test_reproduces_the_diagonal_metric_from_the_kernel_basis(self):
        pm = kernel_basis(well(3, 0.5))
        target = np.diag([1.0 / 3.0, 1.0, 3.0]).reshape(-1)
        stack = np.stack([x.reshape(-1) for x in pm.basis], axis=1)
        coeffs, _, _, _ = np.linalg.lstsq(stack, target, rcond=None)
        am = metric_from_ansatz(pm, coeffs)
        assert am.positive
        assert np.max(np.abs(am.theta - target.reshape(3, 3))) <= 1e-12
        assert am.residual_bound <= np.abs(coeffs) @ pm.residuals + 1e-30

    def test_indefinite_combination_is_reported_not_raised(self):
        am = metric_from_ansatz([np.eye(2), flip(2)], [0.0, 1.0])
        assert not am.positive
        assert am.smallest_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_plain_matrix_lists_are_accepted(self):
        am = metric_from_ansatz([np.eye(3)], [2.0])
        assert am.positive and am.smallest_eigenvalue == pytest.approx(2.0, abs=0.0)

    def test_an_empty_basis_is_rejected(self):
        for empty in ([], ()):
            with pytest.raises(ValidationError, match="empty basis"):
                metric_from_ansatz(empty, [])

    def test_coefficient_length_mismatch_is_rejected(self):
        with pytest.raises(ValidationError):
            metric_from_ansatz([np.eye(2)], [1.0, 2.0])


    def test_non_finite_coefficients_or_elements_are_rejected(self):
        pm = kernel_basis(well(3, 0.3))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="non-finite"):
                metric_from_ansatz(pm, [1.0, bad, 0.0])
        with pytest.raises(ValidationError, match="non-finite"):
            metric_from_ansatz([np.eye(2), np.full((2, 2), np.nan)], [1.0, 1.0])
        # Cast to float, the complex coefficients [1, 1j, 0] gave the metric
        # of [1, 0, 0].
        for bad in not_real([1.0, 0.0, 0.0]):
            refuses_without_warning(lambda c: metric_from_ansatz(pm, c), bad)
        for bad in not_real(np.eye(2)):
            refuses_without_warning(lambda x: metric_from_ansatz([x, np.eye(2)], [1, 1]), bad)
            refuses_without_warning(lambda x: metric_from_ansatz([np.eye(2), x], [1, 1]), bad)

    def test_elements_of_different_sizes_are_rejected(self):
        with pytest.raises(ValidationError, match="square and of one size"):
            metric_from_ansatz([np.eye(2), np.eye(3)], [1.0, 1.0])

    def test_a_non_square_element_is_rejected(self):
        for bad in (np.ones((2, 3)), np.ones(2), np.ones((2, 2, 2))):
            with pytest.raises(ValidationError, match="square and of one size"):
                metric_from_ansatz([bad], [1.0])


class TestClosedFormOperators:
    def test_zero_coupling_collapses_to_flip_and_identity(self):
        trip = closed_form_operators(4, 0.0)
        assert np.array_equal(trip.p, flip(4))
        assert np.array_equal(trip.c, flip(4))
        assert np.array_equal(trip.theta, np.eye(4))
        rep = symmetry_report(well(4, 0.0), trip)
        assert rep.residual_theta == 0.0
        assert rep.residual_involution == 0.0

    def test_three_site_operators_at_half_coupling(self):
        trip = closed_form_operators(3, 0.5)
        assert np.array_equal(trip.p, flip(3))
        assert trip.c[0, 2] == 3.0
        assert trip.c[2, 0] == 1.0 / 3.0
        assert trip.c[1, 1] == 1.0
        assert np.array_equal(trip.theta, np.diag([1.0 / 3.0, 1.0, 3.0]))
        assert symmetry_report(well(3, 0.5), trip).theta_min_eig == 1.0 / 3.0

    def test_four_site_metric_at_negative_half_coupling(self):
        trip = closed_form_operators(4, -0.5)
        assert np.array_equal(trip.theta, np.diag([3.0, 1.0, 1.0, 1.0 / 3.0]))
        assert symmetry_report(well(4, -0.5), trip).theta_min_eig == 1.0 / 3.0

    def test_two_site_operators_carry_square_root_corners(self):
        trip = closed_form_operators(2, 0.5)
        root3 = np.sqrt(3.0)
        assert trip.c[0, 1] == pytest.approx(root3, abs=1e-15)
        assert trip.c[1, 0] == pytest.approx(1.0 / root3, abs=1e-15)
        assert np.max(np.abs(trip.theta - np.diag([1.0 / root3, root3]))) <= 1e-15
        rep = symmetry_report(well(2, 0.5), trip)
        assert rep.residual_theta <= 1e-15
        assert rep.residual_involution <= 1e-15

    def test_defining_identities_hold_across_the_window(self):
        for n in (2, 3, 4, 7, 12):
            for lam in (-0.9, -0.5, 0.1, 0.5, 0.9):
                trip = closed_form_operators(n, lam)
                h = dense(well(n, lam))
                assert np.max(np.abs(trip.c @ trip.c - np.eye(n))) <= 1e-13, (n, lam)
                assert np.array_equal(trip.theta, trip.p @ trip.c)
                assert np.max(np.abs(h.T @ trip.theta - trip.theta @ h)) <= 1e-12
                assert np.max(np.abs(trip.c @ h - h @ trip.c)) <= 1e-9
                assert symmetry_report(well(n, lam), trip).theta_min_eig > 0.0

    def test_metric_eigenvalues_are_alpha_one_and_its_inverse(self):
        n, lam = 6, 0.6
        trip = closed_form_operators(n, lam)
        alpha = (1.0 - lam) / (1.0 + lam)
        ev = np.sort(np.linalg.eigvalsh(trip.theta))
        expect = np.sort(np.array([alpha] + [1.0] * (n - 2) + [1.0 / alpha]))
        assert np.max(np.abs(ev - expect)) <= 1e-12
        rep = symmetry_report(well(n, lam), trip)
        assert rep.theta_min_eig == pytest.approx(min(alpha, 1.0 / alpha), abs=1e-15)

    def test_charge_eigenvalues_are_plus_minus_one(self):
        ev = np.sort(np.linalg.eigvals(closed_form_operators(6, 0.6).c).real)
        assert np.max(np.abs(ev - np.array([-1.0] * 3 + [1.0] * 3))) <= 1e-12

    def test_charge_trace_counts_the_parity(self):
        for n in (4, 6):
            assert np.trace(closed_form_operators(n, 0.4).c) == 0.0
        for n in (3, 5, 7):
            assert np.trace(closed_form_operators(n, 0.4).c) == 1.0

    def test_beyond_the_window_the_algebra_survives_but_positivity_fails(self):
        trip = closed_form_operators(4, 1.5)
        assert trip.p.shape == trip.c.shape == trip.theta.shape == (4, 4)
        rep = symmetry_report(well(4, 1.5), trip)
        assert rep.theta_min_eig < 0.0
        assert rep.residual_theta <= 1e-12
        assert rep.residual_involution <= 1e-12

    def test_unit_couplings_are_rejected(self):
        with pytest.raises(ValidationError):
            closed_form_operators(3, 1.0)
        with pytest.raises(ValidationError):
            closed_form_operators(3, -1.0)

    def test_a_coupling_that_is_not_a_real_number_is_refused(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (None, "a", np.complex128(0.3 + 0.1j)):
                with pytest.raises(ValidationError, match="couplings must be real"):
                    closed_form_operators(4, bad)

    def test_two_site_outside_the_window_has_no_real_square_roots(self):
        with pytest.raises(ValidationError):
            closed_form_operators(2, 1.5)

    def test_the_weighted_triple_passes_the_symmetry_report(self):
        # On mu = -lambda the charge is J, whose square is I exactly.
        for n in range(2, 9):
            for lam in (-0.9, -0.3, 0.0, 0.4, 0.95):
                trip = closed_form_operators(n, lam, "weighted")
                alpha = (1 - lam) / (1 + lam)
                assert np.array_equal(trip.p, closed_form(n, lam, "weighted").matrix)
                assert np.array_equal(trip.c, flip(n))
                assert np.array_equal(trip.theta, np.diag([alpha] + [1.0] * (n - 2) + [alpha]))
                rep = symmetry_report(well(n, lam, -lam), trip)
                assert rep.residual_involution == 0.0 and rep.residual_commutator == 0.0
                assert rep.residual_p <= 1e-15 and rep.residual_theta <= 1e-15, (n, lam)
                assert rep.theta_min_eig == (alpha if n == 2 else min(alpha, 1.0)), (n, lam)

    def test_the_weighted_metric_is_the_product_of_its_template_and_charge(self):
        for n, lam in ((2, 0.5), (3, -0.7), (6, 0.25)):
            trip = closed_form_operators(n, lam, "weighted")
            assert np.array_equal(trip.theta, trip.p @ trip.c)

    def test_an_unknown_line_is_refused(self):
        with pytest.raises(ValidationError, match="unknown variant"):
            closed_form_operators(4, 0.3, "diagonal")

    @pytest.mark.parametrize("n", [*range(2, 10), 33])
    def test_p_and_c_are_theta_with_rows_or_columns_reversed(self, n):
        # exchange: P = J and C = J Theta; weighted: P = Theta J and C = J.
        # Bit for bit, in fresh arrays, inside and outside the window.
        for lam in (0.0, 0.3, -0.41, 0.999999, -0.999999, 1.2, -2.5, 1e308):
            for variant in ("exchange", "weighted"):
                if variant == "exchange" and n == 2 and abs(lam) > 1.0:
                    continue  # refused: no real square roots
                trip = closed_form_operators(n, lam, variant)
                if variant == "exchange":
                    assert trip.p.tobytes() == flip(n).tobytes()
                    assert trip.c.tobytes() == trip.theta[::-1].tobytes(), (n, lam)
                else:
                    assert trip.c.tobytes() == flip(n).tobytes()
                    assert trip.p.tobytes() == trip.theta[:, ::-1].tobytes(), (n, lam)
                    assert trip.p.tobytes() == closed_form(n, lam, variant).matrix.tobytes()
                arrays = (trip.p, trip.c, trip.theta)
                assert all(a.flags.c_contiguous for a in arrays)
                pairs = zip(arrays, arrays[1:] + arrays[:1])
                assert not any(np.shares_memory(a, b) for a, b in pairs)


class TestArgumentTypes:
    def test_each_entry_point_refuses_an_argument_of_another_type(self):
        h = well(4, 0.3)
        system = biorthogonalize(h)
        trip = closed_form_operators(4, 0.3)
        hamiltonian = "expects a DiscreteHamiltonian"
        for call, message in (
            (lambda: biorthogonalize(dense(h)), f"biorthogonalize {hamiltonian}"),
            (lambda: decompose_inverse_pseudometric(trip.p, h), "expected a BiorthogonalSystem"),
            (lambda: assemble_charge_spectral(h, np.ones(4)), "expected a BiorthogonalSystem"),
            (lambda: omega_factorize(dense(h), trip.theta), f"omega_factorize {hamiltonian}"),
            (lambda: symmetry_report(dense(h), trip), f"symmetry_report {hamiltonian}"),
            (lambda: symmetry_report(h, system), "symmetry_report expects an OperatorTriple"),
        ):
            with pytest.raises(ValidationError, match=message):
                call()


class TestSpectralAgainstClosedForms:
    def test_flip_seeded_assembly_matches_the_templates(self):
        for n in (2, 5, 16):
            for lam in (-0.9, 0.3):
                h = well(n, lam)
                system = biorthogonalize(h)
                nu = decompose_inverse_pseudometric(flip(n), system)
                asm = assemble_charge_spectral(system, nu)
                trip = closed_form_operators(n, lam)
                assert np.max(np.abs(asm.c - trip.c)) <= 1e-9, (n, lam)
                theta = flip(n) @ asm.c
                assert np.max(np.abs(theta - trip.theta)) <= 1e-9, (n, lam)

    def test_kappa_weighted_dyads_rebuild_the_metric(self):
        n, lam = 5, 0.45
        h = well(n, lam)
        system = biorthogonalize(h)
        nu = decompose_inverse_pseudometric(flip(n), system)
        asm = assemble_charge_spectral(system, nu)
        theta = sum(
            asm.kappa_sq[k] * np.outer(system.left[:, k], system.left[:, k])
            for k in range(n)
        )
        assert np.max(np.abs(theta - closed_form_operators(n, lam).theta)) <= 1e-10


class TestOmegaFactorize:
    def test_identity_metric_gives_the_identity_map(self):
        h = well(4, 0.0)
        omega, hermitized = omega_factorize(h, np.eye(4))
        assert np.array_equal(omega, np.eye(4))
        assert np.array_equal(hermitized, dense(h))

    def test_diagonal_metric_gives_the_square_root_weights(self):
        h = well(3, 0.5)
        theta = np.diag([1.0 / 3.0, 1.0, 3.0])
        omega, hermitized = omega_factorize(h, theta)
        assert np.array_equal(omega, np.diag(np.sqrt(np.diag(theta))))
        root3 = np.sqrt(3.0)
        assert abs(hermitized[0, 1] + root3 / 2.0) <= 1e-15
        assert abs(hermitized[1, 2] + root3 / 2.0) <= 1e-15
        assert np.max(np.abs(hermitized - hermitized.T)) <= 1e-15

    def test_hermitized_operator_matches_the_symmetrized_form(self):
        for n, lam in ((3, 0.5), (6, -0.7), (10, 0.9)):
            h = well(n, lam)
            trip = closed_form_operators(n, lam)
            _, hermitized = omega_factorize(h, trip.theta)
            s = symmetrize(h)
            expect = np.diag(s.s_diag)
            idx = np.arange(n - 1)
            expect[idx, idx + 1] = s.s_off
            expect[idx + 1, idx] = s.s_off
            assert np.max(np.abs(hermitized - expect)) <= 1e-12, (n, lam)

    def test_factor_reproduces_the_metric_and_preserves_the_spectrum(self):
        for n, lam in ((4, 0.3), (9, -0.8), (14, 0.6)):
            h = well(n, lam)
            trip = closed_form_operators(n, lam)
            omega, hermitized = omega_factorize(h, trip.theta)
            assert np.max(np.abs(omega.T @ omega - trip.theta)) <= 1e-12
            a = np.sort(np.linalg.eigvalsh(0.5 * (hermitized + hermitized.T)))
            b = np.sort(spectrum_of(h).values.real)
            assert np.max(np.abs(a - b)) <= 1e-10

    def test_indefinite_metric_is_rejected(self):
        with pytest.raises(FactorizationError):
            omega_factorize(well(3, 0.2), np.diag([1.0, -1.0, 1.0]))

    def test_asymmetric_metric_is_rejected(self):
        bad = np.eye(3)
        bad[0, 1] = 0.2
        with pytest.raises(FactorizationError):
            omega_factorize(well(3, 0.2), bad)


    def test_non_finite_metric_is_rejected(self):
        theta = np.diag([1.0 / 3.0, 1.0, 3.0])
        for bad in (np.nan, np.inf):
            poisoned = theta.copy()
            poisoned[1, 1] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                omega_factorize(well(3, 0.5), poisoned)
        for bad in not_real(theta):
            refuses_without_warning(lambda t: omega_factorize(well(3, 0.5), t), bad)


class TestSymmetryReport:
    def test_closed_form_triple_passes_all_checks(self):
        h = well(6, 0.7)
        rep = symmetry_report(h, closed_form_operators(6, 0.7))
        assert rep.residual_p <= 1e-12
        assert rep.residual_theta <= 1e-12
        assert rep.residual_commutator <= 1e-12
        assert rep.residual_involution <= 1e-12
        assert rep.theta_min_eig == pytest.approx(3.0 / 17.0, abs=1e-15)

    def test_zero_coupling_report_is_exactly_clean(self):
        rep = symmetry_report(well(5, 0.0), closed_form_operators(5, 0.0))
        assert (
            rep.residual_p,
            rep.residual_theta,
            rep.residual_commutator,
            rep.residual_involution,
        ) == (0.0, 0.0, 0.0, 0.0)
        assert rep.theta_min_eig == 1.0

    def test_mismatched_line_shows_the_corner_defect(self):
        rep = symmetry_report(well(3, 0.5, -0.5), closed_form_operators(3, 0.5))
        assert rep.residual_p == 1.0
        assert all(type(value) is float for value in vars(rep).values())

    @staticmethod
    def with_field(triple, name, value):
        return OperatorTriple(**{**vars(triple), name: value})

    def test_an_operator_of_another_size_is_refused(self):
        trip = closed_form_operators(4, 0.3)
        for name in ("p", "c", "theta"):
            bad = self.with_field(trip, name, np.eye(3))
            with pytest.raises(ValidationError, match=r"shape \(3, 3\) does not match operator size 4"):
                symmetry_report(well(4, 0.3), bad)

    def test_a_non_finite_operator_is_refused(self):
        trip = closed_form_operators(4, 0.3)
        for name in ("p", "c", "theta"):
            poisoned = getattr(trip, name).copy()
            poisoned[1, 2] = np.nan
            with pytest.raises(ValidationError, match="non-finite"):
                symmetry_report(well(4, 0.3), self.with_field(trip, name, poisoned))

    def test_a_complex_operator_is_refused(self):
        trip = closed_form_operators(4, 0.3)
        for name in ("p", "c", "theta"):
            for bad in not_real(getattr(trip, name)):
                refuses_without_warning(
                    lambda x: symmetry_report(well(4, 0.3), self.with_field(trip, name, x)), bad
                )


class TestThetaAdjoint:
    def test_real_vector_pairs_through_the_metric(self):
        theta = np.diag([1.0 / 3.0, 1.0, 3.0])
        psi = np.array([1.0, 2.0, -1.0])
        assert np.array_equal(theta_adjoint(theta, psi), psi @ theta)

    def test_complex_vector_is_conjugated(self):
        theta = np.eye(2)
        psi = np.array([1.0 + 2.0j, -1.0j])
        assert np.array_equal(theta_adjoint(theta, psi), np.conj(psi))

    def test_a_non_square_metric_is_rejected(self):
        # Without the check, a 3 x 2 metric would pair a length-3 ket into a
        # length-2 row.
        for theta in (np.ones((3, 2)), np.ones(3), np.ones((3, 3, 3))):
            with pytest.raises(ValidationError, match="square matrix"):
                theta_adjoint(theta, np.ones(3))

    def test_a_ket_that_does_not_match_the_metric_is_rejected(self):
        with pytest.raises(ValidationError, match="does not match"):
            theta_adjoint(np.eye(3), np.ones(2))

    def test_a_non_finite_metric_is_rejected(self):
        # Without the gate, a NaN metric gives a NaN row.
        for bad in (np.nan, np.inf):
            theta = np.eye(2)
            theta[0, 1] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                theta_adjoint(theta, np.ones(2))

    def test_a_complex_metric_is_rejected(self):
        with pytest.raises(ValidationError, match="real"):
            theta_adjoint(1j * np.eye(2), np.ones(2))

    def test_a_metric_that_is_not_numeric_is_rejected(self):
        # Without the gate, numpy's UFuncTypeError escapes from the product.
        with pytest.raises(ValidationError, match="real"):
            theta_adjoint([["a"]], np.ones(1))

    def test_a_ket_that_is_not_numeric_is_rejected(self):
        # Without the gate, numpy's TypeError escapes from the conjugate.
        for bad in (["a"], [None]):
            refuses_without_warning(lambda psi: theta_adjoint(np.eye(1), psi), bad)

    def test_a_non_finite_ket_is_rejected(self):
        # Without the gate, a NaN ket gives a NaN row.
        for bad in ([np.nan, 1.0], [1.0, np.inf], [complex(1.0, np.nan), 0.0]):
            with pytest.raises(ValidationError, match="non-finite"):
                theta_adjoint(np.eye(2), bad)

    def test_a_ket_that_is_not_a_vector_is_rejected(self):
        for bad in (np.ones((2, 1)), np.ones((1, 2)), 1.0, [[1.0], [1.0, 2.0]]):
            with pytest.raises(ValidationError):
                theta_adjoint(np.eye(2), bad)

    def test_a_complex_ket_stays_complex(self):
        psi = np.array([1.0 + 2.0j, -1.0j], dtype=np.complex64)
        got = theta_adjoint(np.diag([2.0, 3.0]), psi)
        assert got.dtype == np.complex128
        assert got.tolist() == [2.0 - 4.0j, 3.0j]
