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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cptwell import quasihermitian, spectra
from cptwell.dieudonne import kernel_basis, residual
from cptwell.errors import (
    DegenerateSpectrum,
    FactorizationError,
    InadmissiblePseudometric,
    NotDyadRepresentable,
    NotSymmetrizable,
    NumericalError,
    ValidationError,
)
from cptwell.hamiltonian import build, dense
from cptwell.quasihermitian import (
    IDENTITY_TOL,
    VARIANTS,
    OperatorTriple,
    assemble_charge_spectral,
    biorthogonalize,
    _theta_diagonal,
    closed_form_operators,
    decompose_inverse_pseudometric,
    metric_from_ansatz,
    omega_factorize,
    spectral_dyads,
    symmetry_report,
    theta_adjoint,
)
from cptwell.spectra import spectrum_of


def well(n, lam, mu=None):
    return build(n, (lam, lam if mu is None else mu))


def flip(n):
    return np.fliplr(np.eye(n))


def weights(h):
    """The weights d of S = D^-1 H D: d[0] = 1 and d[i+1] = d[i] sqrt(sub[i] / super[i])."""
    return np.cumprod(np.r_[1.0, np.sqrt(h.sub / h.super)])


def signed_form(h):
    """S = D^-1 H D: diagonal 2 and sqrt(super[i] sub[i]) with the sign of super[i] beside it."""
    off = np.copysign(np.sqrt(h.bonds), h.super)
    return np.diag(np.full(h.n, 2.0)) + np.diag(off, 1) + np.diag(off, -1)


def weighted_template(n, alpha):
    """The antidiagonal of ones with both corners alpha, Theta_D J on mu = -lambda."""
    p = flip(n)
    p[0, -1] = p[-1, 0] = alpha
    return p


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
        d = weights(h)
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

    def test_the_weights_carry_the_eigenvectors_of_the_signed_form(self):
        # Right vectors are D w for orthonormal eigenvectors w of S.  At n = 2
        # with lambda < -1 < 1 < mu both bond entries are positive, and so is
        # S's off-diagonal: the form with -sqrt is another matrix.
        for n, lam, mu in ((2, 0.5, 0.5), (5, -0.7, 0.2), (9, 0.9, -0.9), (6, 0.3, 0.8),
                           (2, -3.0, 1.5), (2, -1.25, 4.0)):
            h = well(n, lam, mu)
            d, s = weights(h), signed_form(h)
            scale = np.max(np.abs(dense(h)))
            assert np.max(np.abs(dense(h) * d / d[:, None] - s)) <= 4e-16 * scale, (n, lam, mu)
            system = biorthogonalize(h)
            w = system.right / d[:, None]
            w /= np.linalg.norm(w, axis=0)
            assert np.max(np.abs(w.T @ w - np.eye(n))) <= 1e-14, (n, lam, mu)
            assert np.max(np.abs(s @ w - w * system.values)) <= 1e-14 * scale, (n, lam, mu)

    def test_values_match_the_general_eigenvalues(self):
        for n, lam, mu in ((6, 0.6, -0.6), (11, -0.85, 0.1)):
            h = well(n, lam, mu)
            ref = np.sort(np.linalg.eigvals(dense(h)).real)
            assert np.max(np.abs(biorthogonalize(h).values - ref)) <= 1e-12, (n, lam, mu)

    @pytest.mark.parametrize("n, lam, mu, bond, product", [
        (5, 1.0, 1.0, 0, -0.0),
        (2, 2.0, 2.0, 0, -3.0),
        (3, 1e200, 0.3, 0, -np.inf),
        (4, 0.3, -1.0, 2, -0.0),
        (40, 1.2, 1.2, 0, 1.0 - 1.2 * 1.2),
        (33, 0.3, -1.0, 31, -0.0),
    ])
    def test_a_bond_product_at_or_below_zero_is_refused_with_its_bond(self, n, lam, mu, bond, product):
        with pytest.raises(NotSymmetrizable) as info:
            biorthogonalize(well(n, lam, mu))
        assert info.value.bond_index == bond
        assert info.value.product == pytest.approx(product, rel=1e-15)

    def test_a_bond_product_that_overflows_to_inf_is_a_numerical_error(self):
        # (1 - 1e200)(-1 - 1e200) is +inf: positive, so no NotSymmetrizable
        # claiming "inf <= 0", but the levels are not finite.
        with pytest.raises(NumericalError, match="non-finite") as info:
            biorthogonalize(well(2, -1e200, 1e200))
        assert not isinstance(info.value, NotSymmetrizable)

    @staticmethod
    def tilted(monkeypatch, angle):
        """Make the eigenpairs come with the lowest vector tilted towards the next by ``angle``."""

        def tilt(n, first, last):
            levels, w = spectra._chiral_eigenpairs(n, first, last)
            w = w.copy()
            w[:, 0] = np.cos(angle) * w[:, 0] + np.sin(angle) * w[:, 1]
            return levels, w

        monkeypatch.setattr(quasihermitian, "_chiral_eigenpairs", tilt)

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
        # R^T P R reads 0.63 off its diagonal, relative to its largest entry.
        system = biorthogonalize(well(3, 0.5))
        p = np.eye(3)
        p[0, 1] = p[1, 0] = 0.5
        with pytest.raises(NotDyadRepresentable, match=r"relative defect 6\.325e-01"):
            decompose_inverse_pseudometric(p, system)

    def test_singular_pseudometric_is_rejected(self):
        system = biorthogonalize(well(3, 0.5))
        with pytest.raises(ValidationError):
            decompose_inverse_pseudometric(np.zeros((3, 3)), system)

    def test_a_pseudometric_at_either_end_of_the_float_range_scales_exactly(self):
        # nu(2**k P) = 2**-k nu(P) bit for bit, with no warning, where the
        # Gram matrix of 2**k P itself would overflow or P^-1 underflow.
        system = biorthogonalize(well(6, 0.3))
        p = sum(np.outer(l, l) for l in system.left.T)
        p /= np.abs(p).max()
        nu = decompose_inverse_pseudometric(p, system)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1023, -1000):
                got = decompose_inverse_pseudometric(np.ldexp(p, k), system)
                assert got.tobytes() == np.ldexp(nu, -k).tobytes(), k
            # r_k^T P r_k of about 1e-320 has no finite inverse.
            with pytest.raises(ValidationError, match="singular"):
                decompose_inverse_pseudometric(1e-320 * flip(6), system)

    # Line cells from n = 2 to 160, in and near the window's edge.
    LINE_SIZES = (2, 3, 4, 5, 7, 8, 16, 33, 48, 64, 160)
    LINE_COUPLINGS = (0.0, 0.3, -0.41, 0.5, -0.7, 0.93, 0.999999, -0.999999, 0.99999999,
                      0.9999999999, 0.999999999999)

    @staticmethod
    def inverse_chain(p, system):
        """nu from P^-1 projected onto the left vectors, the reference oracle.

        nu_k = l_k^T P^-1 l_k / mu_k^2, certified by rebuilding P^-1 from the
        right dyads to 1e-9 relative; None where that reconstruction misses.
        """
        p_inv = np.linalg.inv(p)
        nu = np.einsum("ik,ij,jk->k", system.left, p_inv, system.left) / system.overlaps**2
        defect = np.abs(p_inv - (system.right * nu) @ system.right.T).max()
        return nu if defect <= 1e-9 * np.abs(p_inv).max() else None

    def test_nu_is_the_inverse_chain_s_wherever_that_chain_answers(self):
        checked, refused = 0, []
        for variant, sign in (("exchange", 1.0), ("weighted", -1.0)):
            for n in self.LINE_SIZES:
                for lam in self.LINE_COUPLINGS:
                    try:
                        system = biorthogonalize(well(n, lam, sign * lam))
                    except NumericalError:
                        continue
                    p = closed_form_operators(n, lam, variant).p
                    nu = decompose_inverse_pseudometric(p, system)
                    reference = self.inverse_chain(p, system)
                    if reference is None:
                        refused.append((variant, n, lam))
                        assert np.sign(nu).tolist() == [(-1.0) ** k for k in range(n)]
                        continue
                    checked += 1
                    assert (np.abs(nu - reference) <= 1e-13 * np.abs(reference)).all(), (
                        variant, n, lam)
        assert checked == 208
        # There the rebuilt P^-1 is ill-conditioned, not P incompatible: the
        # Gram form answers, with the alternating types of P = J.
        assert refused == [("exchange", n, lam) for n in self.LINE_SIZES[1:]
                           for lam in (0.99999999, 0.9999999999)
                           if (n, lam) not in ((3, 0.9999999999), (48, 0.99999999))]


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
        nu = decompose_inverse_pseudometric(closed_form_operators(n, lam, "weighted").p, system)
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
                assert np.array_equal(trip.p, weighted_template(n, alpha))
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
        # The exceptional point is refused first, whatever the line.
        with pytest.raises(ValidationError, match="exceptional point"):
            closed_form_operators(4, 1.0, "diagonal")

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
                    alpha = (1 - lam) / (1 + lam)
                    assert trip.p.tobytes() == weighted_template(n, alpha).tobytes(), (n, lam)
                arrays = (trip.p, trip.c, trip.theta)
                assert all(a.flags.c_contiguous for a in arrays)
                pairs = zip(arrays, arrays[1:] + arrays[:1])
                assert not any(np.shares_memory(a, b) for a, b in pairs)


class TestOwnersAgree:
    """biorthogonalize, spectrum_of, Theta_D and spectral_dyads on one cell."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 64),
        st.floats(-0.999999, 0.999999),
        st.floats(-0.999999, 0.999999),
    )
    @example(3, 1.0 - 1e-8, -(1.0 - 1e-8))
    @example(33, 1.0 - 1e-6, -(1.0 - 1e-6))
    @example(33, 0.999999, 1.0 - 1e-12)
    @example(8, -0.0, 0.9)
    def test_the_vector_route_agrees_with_the_other_owners(self, n, lam, mu):
        h = well(n, lam, mu)
        try:
            system = biorthogonalize(h)
        except NumericalError:
            return
        # The levels are spectrum_of's to a few ulps: the same block, its SVD
        # taken with vectors (and for odd n padded square).
        levels = spectrum_of(h).values.real
        ulps = np.abs(system.values - levels) / (np.finfo(float).eps * np.maximum(1.0, np.abs(levels)))
        assert ulps.max() <= 32, (n, lam, mu, ulps.max())
        # l = Theta_D r, renormalized: Theta_D is D^-2 up to the scale alpha_lambda.
        if n >= 3:
            theta_r = _theta_diagonal(n, lam, mu)[:, None] * system.right
            theta_r /= np.linalg.norm(theta_r, axis=0)
            assert np.max(np.abs(theta_r - system.left)) <= 1e-13, (n, lam, mu)
        # The dyads are the outer products of the left vectors, bit for bit.
        try:
            dyads = spectral_dyads(h)
        except NumericalError:
            return
        assert len(dyads) == n
        for x, l in zip(dyads, system.left.T):
            assert np.array_equal(x, np.outer(l, l)), (n, lam, mu)


class TestSpectralDyads:
    # Cells within 1e-6 to 2**-52 of an exceptional point.  The eigenvectors
    # of eigh's dense solve missed the dyad bound (8.2e-10 at n = 33) or
    # biorthogonalize's residual bound (n = 16) here.
    NEAR_EP = ((33, 0.999999, 1.0 - 1e-12), (5, 0.999999, 1.0 - 1e-12),
               (4, 0.9, 1.0 - 2.0**-52), (16, -0.41, -(1.0 - 1e-12)))

    @pytest.mark.parametrize("n, lam, mu", NEAR_EP)
    def test_cells_next_to_an_exceptional_point_answer_within_the_dyad_bound(self, n, lam, mu):
        h = well(n, lam, mu)
        hd = dense(h)
        dyads = spectral_dyads(h)
        assert len(dyads) == n
        worst = max(residual(h, x) / (np.abs(hd).max() * np.abs(x).max()) for x in dyads)
        assert worst <= 1e-10, (n, lam, mu)

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_vanishing_overlap_is_still_refused(self, n):
        with pytest.raises(NumericalError, match="vanishing overlap"):
            spectral_dyads(well(n, 1.0 - 1e-12, 1.0 - 1e-12))

    def test_a_degenerate_spectrum_is_refused_as_biorthogonalize_refuses_it(self):
        with pytest.raises(DegenerateSpectrum, match="biorthogonal pairing is ill-defined"):
            spectral_dyads(well(2, -(1.0 - 1e-12), 1.0 - 1e-12))


class TestArgumentTypes:
    def test_each_entry_point_refuses_an_argument_of_another_type(self):
        h = well(4, 0.3)
        system = biorthogonalize(h)
        trip = closed_form_operators(4, 0.3)
        hamiltonian = "expects a DiscreteHamiltonian"
        for call, message in (
            (lambda: biorthogonalize(dense(h)), f"biorthogonalize {hamiltonian}"),
            (lambda: spectral_dyads((4, (0.3, -0.2))), f"spectral_dyads {hamiltonian}"),
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
            off = -np.sqrt(h.bonds)
            expect = np.diag(np.full(n, 2.0)) + np.diag(off, 1) + np.diag(off, -1)
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

    def test_overflowing_products_read_inf_without_a_warning(self):
        # The matrix products of `residual` and of the commutator overflow at
        # huge couplings (H^T - H holds -2 mu at n = 3); the defect then reads
        # inf, never NaN, and no numpy warning leaks.  One table: every size
        # and coupling pair, `residual` on I and the report on both lines.
        couplings = (0.0, 0.5, 1.0, 2.0, 1e154, -1e154, 1e200, -1e200, 1e308, -1e308)
        fields = ("residual_p", "residual_theta", "residual_commutator", "residual_involution")
        overflowed = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2, 3, 5, 40):
                triples = [closed_form_operators(n, 0.3, variant) for variant in VARIANTS]
                for lam in couplings:
                    for mu in couplings:
                        h = well(n, lam, mu)
                        defects = [residual(h, np.eye(n))]
                        for triple in triples:
                            rep = symmetry_report(h, triple)
                            defects += [getattr(rep, name) for name in fields]
                        assert not np.isnan(defects).any(), (n, lam, mu)
                        overflowed += np.isinf(defects[0])
        assert residual(well(3, 0.0, 1e308), np.eye(3)) == np.inf
        assert overflowed > 0

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
