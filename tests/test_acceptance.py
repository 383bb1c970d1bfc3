"""Acceptance gate: the nine headline guarantees, one printed line each.

Every test prints ``[ACCEPTANCE k] PASS|FAIL <headline>`` before asserting,
so a pytest run (configured with -s) always shows the complete scoreboard.
Tolerances are pinned here and nowhere weakened.  Two criteria state the
model's behaviour in the form it provably has:

* criterion 1: the window |lambda| <= 0.98 is real for every n, but the
  breakdown outside it does not happen at one fixed distance.  Even sizes up
  to 32 keep a real spectrum at |lambda| = 1.01.  At n = 4, with y = 2 - E,
  det(H(lambda, lambda) - E) = y^4 + (2 lambda^2 - 3) y^2 + (1 - lambda^2)^2,
  a quadratic in y^2 with discriminant 5 - 4 lambda^2, so its first
  exceptional point sits at |lambda| = sqrt(5)/2 ~ 1.118, the farthest for any
  n in 2..64.  The breakdown clauses are therefore: at lambda = +/-1.01 every n
  has the complex-pair count of an independent dense oracle built here from
  the model's definition; every n has a complex pair at lambda = +/-1.2; and
  n = 4 is real at |lambda| = 1.11 and has two pairs at |lambda| = 1.13.
* criterion 8: on the line mu = lambda the lowest level E = 2 - 2 cos(theta)
  solves tan((n+1) theta) ~ 4 lambda^2 theta / (1 + lambda^2), so with
  h = 1/(n+1) the scaled level is
  L(h) = 1 + 8 lambda^2/(1 + lambda^2) h + (3 c^2 - pi^2/12) h^2 + O(h^3),
  c = 4 lambda^2/(1 + lambda^2).  A fixed boundary coupling converges at
  first order: doubling-ladder difference ratios approach 2 (asserted in
  2 +/- 30%), and |(L - 1)/h - 8 lambda^2/(1 + lambda^2)| <= 2h on every rung
  (the h^2 coefficient is about 1.10 at lambda = 1/2).  Zero coupling keeps
  its second-order clause.

One range note: criterion 2 sweeps n in 3..64.  For n >= 3 the two coupling
lines share both end-bond products and hence one symmetrized form; at n = 2
the single bond carries both couplings by the documented convention and the
lines are provably non-isospectral (spectra 2+/-sqrt(1-lambda^2) versus
2+/-(1+lambda)), so the two-site case sits outside the relation being
certified.  The exclusion is stated on the scoreboard line and the true
two-site behaviour is pinned in tests/test_spectra.py.
"""

import time

import numpy as np
import pytest

from cptwell.continuum import convergence_study
from cptwell.dieudonne import kernel_basis, residual, span_residual
from cptwell.hamiltonian import build, dense
from cptwell.quasihermitian import (
    assemble_charge_spectral,
    biorthogonalize,
    closed_form_operators,
    decompose_inverse_pseudometric,
    omega_factorize,
    spectral_dyads,
)
from cptwell.spectra import reality_tolerance, spectrum_of


def well(n, lam, mu=None):
    return build(n, (lam, lam if mu is None else mu))


def model_matrix(n, lam, mu):
    """Dense H(lam, mu) written out from the model's definition."""
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    a[0, 1] = -1.0 - lam
    a[n - 1, n - 2] = -1.0 + mu
    if n > 2:
        a[1, 0] = -1.0 + lam
        a[n - 2, n - 1] = -1.0 - mu
    return a


def oracle_pairs(n, lam):
    """Complex-pair count of H(lam, lam) from a dense eigvals oracle.

    Same reality rule as the library: |Im| above 1e-9 * max(1, r), r the
    largest absolute row sum.
    """
    a = model_matrix(n, lam, lam)
    tol = 1e-9 * max(1.0, float(np.abs(a).sum(axis=1).max()))
    values = np.linalg.eigvals(a)
    return int(np.count_nonzero(np.abs(values.imag) > tol) // 2)


def complex_pairs(h):
    s = spectrum_of(h)
    return int(np.count_nonzero(np.abs(s.values.imag) > reality_tolerance(h)) // 2)


def report(k, ok, detail):
    line = f"[ACCEPTANCE {k}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def warm_both_branches():
    # Run both solver branches once before criterion 1 starts its stopwatch.
    spectrum_of(well(4, 0.5))
    spectrum_of(well(3, 1.01))
    yield


def test_criterion_1_reality_window_and_its_breakdown():
    start = time.perf_counter()
    grid = np.round(np.arange(-98, 99) * 0.01, 10)
    bad_window = []
    for n in range(2, 65):
        for lam in grid:
            s = spectrum_of(well(n, float(lam)))
            ok = (
                s.all_real
                and float(np.max(np.abs(s.values.imag))) <= 1e-9
                and s.min_gap > 1e-8
            )
            if not ok:
                bad_window.append((n, float(lam)))
    oracle_mismatch = []
    real_at_edge = set()
    for n in range(2, 65):
        for lam in (1.01, -1.01):
            pairs = complex_pairs(well(n, lam))
            if pairs != oracle_pairs(n, lam):
                oracle_mismatch.append((n, lam))
            if pairs == 0:
                real_at_edge.add(n)
    no_pair_beyond = sorted(
        {n for n in range(2, 65) for lam in (1.2, -1.2) if complex_pairs(well(n, lam)) < 1}
    )
    four_site = (
        all(spectrum_of(well(4, lam)).all_real for lam in (1.11, -1.11))
        and all(complex_pairs(well(4, lam)) == 2 for lam in (1.13, -1.13))
    )
    elapsed = time.perf_counter() - start
    detail = (
        f"reality window: grid violations={len(bad_window)}, "
        f"pair counts at |lambda|=1.01 off the dense oracle: {oracle_mismatch} "
        f"(sizes real there: {sorted(real_at_edge)}), "
        f"sizes with no complex pair at |lambda|=1.2: {no_pair_beyond}, "
        f"n=4 real at 1.11 and two pairs at 1.13 (EP sqrt(5)/2): {four_site}, "
        f"runtime={elapsed:.1f}s (limit 60s)"
    )
    ok = (
        not bad_window
        and not oracle_mismatch
        and not no_pair_beyond
        and four_site
        and elapsed <= 60.0
    )
    report(1, ok, detail)


def test_criterion_2_isospectral_coupling_lines():
    # The two lines share both end-bond products (1 - lambda^2) for every
    # n >= 3, hence the same symmetrized form and the same spectrum.  At
    # n = 2 the single bond carries both couplings by the documented
    # convention, the products differ ((1-lambda^2) vs (1+lambda)^2), and the
    # relation is structurally unavailable; the sweep therefore starts at 3.
    samples = np.linspace(-0.98, 0.98, 50)
    worst = 0.0
    for n in range(3, 65):
        for lam in samples:
            a = np.sort(spectrum_of(well(n, float(lam), float(lam))).values.real)
            b = np.sort(spectrum_of(well(n, float(lam), -float(lam))).values.real)
            worst = max(worst, float(np.max(np.abs(a - b))))
    report(
        2,
        worst <= 1e-10,
        f"isospectrality of the two lines, n in 3..64: worst gap {worst:.3e} "
        f"(limit 1e-10; n=2 excluded: its single bond makes the lines "
        f"genuinely non-isospectral, e.g. spectra 2+/-sqrt(1-l^2) vs 2+/-(1+l))",
    )


def test_criterion_3_closed_form_pseudometric_residuals():
    lams = (-0.9, -0.5, 0.1, 0.5, 0.9)
    worst = 0.0
    for n in range(2, 65):
        for lam in lams:
            worst = max(worst, residual(well(n, lam), closed_form_operators(n, lam, "exchange").p))
            worst = max(
                worst, residual(well(n, lam, -lam), closed_form_operators(n, lam, "weighted").p)
            )
    report(3, worst <= 1e-13, f"template residuals: worst {worst:.3e} (limit 1e-13)")


def test_criterion_4_closed_form_charge_and_metric():
    lams = (-0.9, -0.5, 0.1, 0.5, 0.9)
    worst_inv = worst_int = worst_eig = 0.0
    exact_product = True
    positive = True
    for n in range(2, 65):
        for lam in lams:
            trip = closed_form_operators(n, lam)
            h = dense(well(n, lam))
            worst_inv = max(worst_inv, float(np.max(np.abs(trip.c @ trip.c - np.eye(n)))))
            exact_product = exact_product and np.array_equal(trip.theta, trip.p @ trip.c)
            worst_int = max(worst_int, float(np.max(np.abs(h.T @ trip.theta - trip.theta @ h))))
            ev = np.sort(np.linalg.eigvalsh(trip.theta))
            positive = positive and bool(ev[0] > 0.0)
            if n >= 3:
                alpha = (1.0 - lam) / (1.0 + lam)
                expect = np.sort(np.array([alpha] + [1.0] * (n - 2) + [1.0 / alpha]))
                worst_eig = max(worst_eig, float(np.max(np.abs(ev - expect))))
    pinned = np.array_equal(closed_form_operators(3, 0.5).theta, np.diag([1.0 / 3.0, 1.0, 3.0]))
    ok = (
        worst_inv <= 1e-13
        and exact_product
        and worst_int <= 1e-12
        and worst_eig <= 1e-12
        and positive
        and pinned
    )
    detail = (
        f"closed forms: |C^2-I| {worst_inv:.2e} (1e-13), Theta=PC exact={exact_product}, "
        f"intertwining {worst_int:.2e} (1e-12), eigenvalue sets {worst_eig:.2e} (1e-12), "
        f"positive={positive}, diag(1/3,1,3) pinned={pinned}"
    )
    report(4, ok, detail)


def test_criterion_5_spectral_charge_assembly():
    lams = np.linspace(-0.85, 0.85, 11)
    worst_c = worst_id = 0.0
    kappa_positive = True
    for n in range(2, 17):
        flip = np.fliplr(np.eye(n))
        for lam in lams:
            h = well(n, float(lam))
            system = biorthogonalize(h)
            nu = decompose_inverse_pseudometric(flip, system)
            asm = assemble_charge_spectral(system, nu)
            kappa_positive = kappa_positive and bool(np.all(asm.kappa_sq > 0.0))
            expect = closed_form_operators(n, float(lam)).c
            worst_c = max(worst_c, float(np.max(np.abs(asm.c - expect))))
            worst_id = max(
                worst_id,
                float(np.max(np.abs(asm.omega - system.overlaps * nu * asm.kappa_sq))),
                float(np.max(np.abs(system.overlaps * asm.omega - asm.signs))),
            )
    ok = worst_c <= 1e-9 and kappa_positive and worst_id <= 1e-10
    detail = (
        f"spectral assembly: charge vs closed form {worst_c:.2e} (1e-9), "
        f"kappa^2 positive={kappa_positive}, weight identities {worst_id:.2e} (1e-10)"
    )
    report(5, ok, detail)


def test_criterion_6_intertwining_solution_space():
    lams = (-0.8, -0.4, 0.1, 0.5, 0.9)
    mus = (-0.7, -0.2, 0.3, 0.8)
    bad_dim = []
    worst_span = 0.0
    for n in range(2, 9):
        for lam in lams:
            for mu in mus:
                h = well(n, lam, mu)
                # The recurrence uses no eigenvectors, so the dyads below are an
                # independent check.
                pm = kernel_basis(h)
                if pm.dimension != n:
                    bad_dim.append((n, lam, mu))
                for dyad in spectral_dyads(h):
                    worst_span = max(worst_span, span_residual(pm, dyad))
    ok = not bad_dim and worst_span <= 1e-8
    detail = (
        f"solution space: wrong dimensions={len(bad_dim)}, "
        f"worst dyad span residual {worst_span:.2e} (1e-8)"
    )
    report(6, ok, detail)


def test_criterion_7_hermitization():
    lams = (0.5, -0.7, 0.9)
    worst_fact = worst_sym = worst_spec = 0.0
    for n in range(2, 33):
        for lam in lams:
            h = well(n, lam)
            theta = closed_form_operators(n, lam).theta
            omega, hermitized = omega_factorize(h, theta)
            worst_fact = max(worst_fact, float(np.max(np.abs(omega.T @ omega - theta))))
            worst_sym = max(worst_sym, float(np.max(np.abs(hermitized - hermitized.T))))
            a = np.sort(np.linalg.eigvalsh(0.5 * (hermitized + hermitized.T)))
            b = np.sort(spectrum_of(h).values.real)
            worst_spec = max(worst_spec, float(np.max(np.abs(a - b))))
    ok = worst_fact <= 1e-12 and worst_sym <= 1e-10 and worst_spec <= 1e-10
    detail = (
        f"hermitization: Omega^T Omega - Theta {worst_fact:.2e} (1e-12), "
        f"asymmetry {worst_sym:.2e} (1e-10), spectrum drift {worst_spec:.2e} (1e-10)"
    )
    report(7, ok, detail)


def test_criterion_8_continuum_convergence():
    ladder = (20, 40, 80, 160)
    free = convergence_study(ladder, 0.0)
    order = float(free.estimated_order[0])
    lam = 0.5
    coupled = convergence_study(ladder, lam)
    d = coupled.differences[0]
    ratios = np.abs(d[:-1] / d[1:])
    ratios_in_band = bool(np.all((ratios >= 1.4) & (ratios <= 2.6)))
    h = 1.0 / (np.asarray(ladder) + 1.0)
    slope = 8.0 * lam**2 / (1.0 + lam**2)
    levels = np.asarray(coupled.scaled_levels)[:, 0]
    excess = np.abs((levels - 1.0) / h - slope) / h
    ok = abs(order - 2.0) <= 0.2 and ratios_in_band and bool(np.all(excess <= 2.0))
    detail = (
        f"continuum: zero-coupling order {order:.4f} (2.0 +/- 0.2), "
        f"coupled difference ratios {np.round(ratios, 4).tolist()} "
        f"(first order: 2 +/- 30%, i.e. [1.4, 2.6]), "
        f"|(L-1)/h - {slope:g}| / h per rung {np.round(excess, 4).tolist()} (limit 2)"
    )
    report(8, ok, detail)


def test_criterion_9_two_site_exceptional_point():
    grid = np.round(np.arange(-99, 100) * 0.01, 10)
    worst = 0.0
    for lam in grid:
        v = np.sort(spectrum_of(well(2, float(lam))).values.real)
        gap = np.sqrt(1.0 - float(lam) ** 2)
        worst = max(worst, float(np.max(np.abs(v - np.array([2.0 - gap, 2.0 + gap])))))
    coalesced = spectrum_of(well(2, 1.0)).values
    worst_ep = float(np.max(np.abs(coalesced - 2.0)))
    v2 = np.sort_complex(spectrum_of(well(2, 2.0)).values)
    expect2 = np.array([2.0 - 1j * np.sqrt(3.0), 2.0 + 1j * np.sqrt(3.0)])
    worst_complex = float(np.max(np.abs(v2 - expect2)))
    ok = worst <= 1e-12 and worst_ep <= 1e-6 and worst_complex <= 1e-10
    detail = (
        f"two-site family: window error {worst:.2e} (1e-12), "
        f"coalescence error {worst_ep:.2e} (1e-6), "
        f"complex branch error {worst_complex:.2e} (1e-10)"
    )
    report(9, ok, detail)
