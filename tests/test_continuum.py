"""Continuum limit of the scaled levels (n+1)^2 E / pi^2.

Oracles:

* the closed form (n+1)^2 (2 - 2 cos(k pi/(n+1))) / pi^2 at zero coupling,
* Taylor analysis of that form: second-order approach to k^2 on size
  ladders at zero coupling,
* measured first-order behaviour at fixed nonzero coupling, where the
  boundary perturbation scales like the lattice spacing: difference ratios
  on a size-doubling ladder approach 2, not 4,
* the secular equation's first-order coefficient at fixed coupling:
  L(h) = 1 + 8 lambda^2/(1 + lambda^2) h + O(h^2) for the ground level.
"""

import numpy as np
import pytest

from cptwell.continuum import PI_SQ, convergence_study, scaled_spectrum
from cptwell.errors import ValidationError
from cptwell.hamiltonian import build
from cptwell.spectra import spectrum_of


def closed_scaled(n, k):
    return (n + 1) ** 2 * (2.0 - 2.0 * np.cos(k * np.pi / (n + 1))) / PI_SQ


class TestScaledSpectrum:
    def test_ten_site_ground_level(self):
        got = scaled_spectrum(10, 0.0, 1)
        assert got.shape == (1,)
        assert abs(got[0] - closed_scaled(10, 1)) <= 1e-12
        assert got[0] == pytest.approx(0.99322, abs=5e-6)

    def test_ten_site_second_level(self):
        got = scaled_spectrum(10, 0.0, 2)
        assert abs(got[1] - closed_scaled(10, 2)) <= 1e-12
        assert got[1] == pytest.approx(3.8924199485253848, abs=1e-12)

    def test_hundred_site_first_three_levels(self):
        got = scaled_spectrum(100, 0.0, 3)
        for k in (1, 2, 3):
            assert abs(got[k - 1] - closed_scaled(100, k)) <= 1e-12
        assert got == pytest.approx([0.999919, 3.99870, 8.99343], abs=1e-4)

    def test_nonzero_coupling_rescales_the_computed_spectrum(self):
        n, lam = 16, 0.5
        got = scaled_spectrum(n, lam, 4)
        ev = np.sort(spectrum_of(build(n, (lam, lam))).values.real)
        assert np.max(np.abs(got - (n + 1) ** 2 * ev[:4] / PI_SQ)) <= 1e-12

    def test_levels_approach_the_squared_mode_numbers(self):
        got = scaled_spectrum(2000, 0.0, 5)
        assert np.max(np.abs(got - np.arange(1.0, 6.0) ** 2)) <= 1e-2

    def test_couplings_outside_the_open_window_are_rejected(self):
        for lam in (1.0, -1.0, 1.5):
            with pytest.raises(ValidationError):
                scaled_spectrum(20, lam, 1)

    def test_level_count_must_fit_the_matrix(self):
        with pytest.raises(ValidationError):
            scaled_spectrum(10, 0.0, 11)
        with pytest.raises(ValidationError):
            scaled_spectrum(10, 0.0, 0)

    def test_window_endpoint_grid_is_all_real_for_powers_of_two(self):
        for n in (8, 16, 32, 64):
            s = spectrum_of(build(n, (0.99, 0.99)))
            assert s.all_real and s.min_gap > 1e-8


class TestConvergenceStudyAtZeroCoupling:
    def test_three_rung_ladder_shows_second_order(self):
        st = convergence_study((20, 40, 80), 0.0)
        assert st.scaled_levels.shape[1] == 1
        assert abs(st.estimated_order[0] - 2.0) <= 0.1

    def test_four_rung_ladder_tightens_the_estimate(self):
        st = convergence_study((20, 40, 80, 160), 0.0)
        assert st.estimated_order[0] == pytest.approx(1.98477213, abs=1e-6)
        d = st.differences[0]
        assert d.shape == (3,)
        assert np.all(d > 0.0)
        assert np.all(np.abs(d[1:]) < np.abs(d[:-1]))

    def test_second_level_converges_at_the_same_order(self):
        st = convergence_study((20, 40, 80, 160), 0.0, levels=2)
        assert st.scaled_levels.shape[1] == 2
        assert abs(st.estimated_order[1] - 2.0) <= 0.1


class TestConvergenceStudyAtFixedCoupling:
    def test_boundary_coupling_drops_the_order_to_one(self):
        # The coupled corner entries perturb the operator at O(h), one power
        # of the lattice spacing below the O(h^2) interior discretization, so
        # a doubling ladder shows difference ratios near 2 rather than 4.
        st = convergence_study((20, 40, 80, 160), 0.5)
        d = st.differences[0]
        ratios = np.abs(d[:-1] / d[1:])
        assert np.max(np.abs(ratios - 2.0)) <= 0.2
        assert abs(st.estimated_order[0] - 1.0) <= 0.05

    @pytest.mark.parametrize("lam", [0.0, 0.1, -0.3, 0.5])
    def test_ground_level_follows_the_first_order_coefficient(self, lam):
        # L(h) = 1 + 8 lam^2/(1 + lam^2) h + O(h^2), from the secular equation;
        # the h^2 coefficient, 3 c^2 - pi^2/12 with c = 4 lam^2/(1 + lam^2),
        # stays below 2 in magnitude for |lam| <= 1/2.
        ladder = (20, 40, 80, 160)
        st = convergence_study(ladder, lam)
        h = 1.0 / (np.asarray(ladder) + 1.0)
        levels = np.asarray(st.scaled_levels)[:, 0]
        slope = 8.0 * lam**2 / (1.0 + lam**2)
        assert np.all(np.abs((levels - 1.0) / h - slope) <= 2.0 * h)

    def test_fixed_coupling_levels_still_approach_the_dirichlet_limit(self):
        st = convergence_study((40, 80, 160, 320), 0.5)
        levels = np.asarray(st.scaled_levels)[:, 0]
        gaps = np.abs(levels - 1.0)
        assert np.all(gaps[1:] < gaps[:-1])
        assert gaps[-1] <= 2e-2


class TestStudyShape:
    def test_rows_report_sizes_levels_and_orders(self):
        st = convergence_study((20, 40, 80, 160), 0.5)
        assert st.sizes == (20, 40, 80, 160)
        assert st.scaled_levels.shape == (4, 1)
        # The first two sizes have no order estimate: the first triple ends at
        # the third size, so orders[k, i - 2] belongs to sizes[i].
        assert st.differences.shape == (1, 3) and st.orders.shape == (1, 2)
        assert st.orders[0, 0] == pytest.approx(0.98863247, abs=1e-6)
        assert st.orders[0, 1] == pytest.approx(0.99995435, abs=1e-6)
        st = convergence_study((20, 40, 80), 0.0, levels=2)
        assert st.sizes == (20, 40, 80) and st.lam == 0.0 and st.estimated_order.shape == (2,)
        assert np.shape(st.scaled_levels) == (3, 2)

    @pytest.mark.parametrize("sizes, lam, levels", [
        ((20, 40, 80, 160), 0.5, 1),
        ((4, 8, 16, 32), 0.5, 3),
        ((4, 8, 16, 32), -0.9, 3),
        ((5, 7, 9, 11, 13), 0.0, 2),
    ])
    def test_arrays_equal_the_per_level_loop(self, sizes, lam, levels):
        # The per-level, per-triple loop the arrays replace; the arithmetic is
        # the same, so the results must be equal, NaN (no estimate) included.
        st = convergence_study(sizes, lam, levels)
        scaled = [scaled_spectrum(n, lam, levels) for n in sizes]
        steps = [1.0 / (n + 1) for n in sizes]
        for k in range(levels):
            level = np.array([row[k] for row in scaled])
            diff = level[1:] - level[:-1]
            est = np.full(len(sizes) - 2, np.nan)
            for i in range(len(sizes) - 2):
                ratio = diff[i] / diff[i + 1] if diff[i + 1] != 0.0 else np.nan
                if ratio > 0.0 and np.isfinite(ratio):
                    est[i] = np.log(ratio) / np.log(np.sqrt(steps[i] / steps[i + 2]))
            assert np.array_equal(st.scaled_levels[:, k], level)
            assert np.array_equal(st.differences[k], diff)
            assert np.array_equal(st.orders[k], est, equal_nan=True)
            assert np.array_equal(st.estimated_order[k], est[-1], equal_nan=True)
        assert np.isnan(st.orders).any() == (levels == 3)

    def test_ladders_must_be_strictly_increasing_with_three_rungs(self):
        with pytest.raises(ValidationError):
            convergence_study((20, 40), 0.0)
        with pytest.raises(ValidationError):
            convergence_study((20, 20, 40), 0.0)
        with pytest.raises(ValidationError):
            convergence_study((40, 20, 80), 0.0)

    def test_levels_must_fit_the_smallest_rung(self):
        with pytest.raises(ValidationError):
            convergence_study((4, 8, 16), 0.0, levels=5)
