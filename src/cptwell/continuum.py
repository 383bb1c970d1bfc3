"""Continuum limit of the discrete well: scaled levels and convergence order.

With box length 1 an n-site lattice has spacing h = 1/(n+1), and the discrete
eigenvalues scale as E_k ~ h^2 pi^2 k^2 for the low levels.  The scaled level
(n+1)^2 E_k / pi^2 therefore tends, at zero coupling, exactly to the
particle-in-a-box value k^2 with the O(h^2) error of the three-point second
difference; the closed form is (n+1)^2 (2 - 2 cos(k pi/(n+1))) / pi^2.

For nonzero boundary coupling the coupling is held fixed while n grows (no
n-scaling is imposed), and the study reports the Cauchy differences of the
scaled levels together with Richardson order estimates.  On the line
mu = lambda the lowest level E = 2 - 2 cos(theta) solves
tan((n+1) theta) ~ c theta with c = 4 lambda^2/(1 + lambda^2), so the scaled
ground level is

    L(h) = 1 + 8 lambda^2/(1 + lambda^2) h + (3 c^2 - pi^2/12) h^2 + O(h^3):

the fixed coupling converges to the Dirichlet value at first order, and
difference ratios on a size-doubling ladder approach 2, not 4.

The order estimate for a consecutive size triple compares successive
differences D_i = L(h_{i+1}) - L(h_i):

    p = log(D_i / D_{i+1}) / log(rho),   rho = sqrt(h_i / h_{i+2}),

the geometric mean of the two step ratios, exact for power-law error h^p on
geometric ladders.  The per-level headline estimate comes from the finest
triple.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hamiltonian import CouplingPair, as_int, as_real, build, dimension
from .spectra import spectrum_of

PI_SQ = float(np.pi) ** 2


@dataclass(frozen=True, eq=False)
class ConvergenceStudy:
    """Scaled levels over a size ladder with Richardson order estimates.

    With S sizes and K levels, the arrays are ``scaled_levels`` (S, K), the
    K lowest scaled levels at ``sizes[i]`` in row i; ``differences`` (K, S-1),
    the successive differences of level k over the ladder in row k;
    ``orders`` (K, S-2), the per-triple order estimates of level k in row k
    (NaN where the differences change sign or vanish); and
    ``estimated_order`` (K,), the finest-triple estimates.
    """

    sizes: tuple
    lam: float
    scaled_levels: np.ndarray
    differences: np.ndarray
    orders: np.ndarray
    estimated_order: np.ndarray


def scaled_spectrum(n, lam, levels):
    """The K lowest levels of H(lam, lam) scaled by (n+1)^2 / pi^2."""
    n = dimension(n)
    levels = as_int(levels, "levels")
    lam = as_real(lam, "coupling")
    if not -1.0 < lam < 1.0:
        raise ValidationError(
            f"coupling {lam} is outside the open interval (-1, 1); the scaled "
            "levels are defined on the real branch only"
        )
    if not 1 <= levels <= n:
        raise ValidationError(f"levels must be in 1..{n}, got {levels}")
    values = spectrum_of(build(n, CouplingPair(lam, lam))).values.real
    return (n + 1) ** 2 * values[:levels] / PI_SQ


def convergence_study(sizes, lam, levels=1):
    """Scaled-level convergence over a strictly increasing size ladder."""
    sizes = tuple(dimension(n) for n in sizes)
    if len(sizes) < 3:
        raise ValidationError(
            f"a study needs at least 3 sizes for one order estimate, got {len(sizes)}"
        )
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError(f"sizes must be strictly increasing, got {sizes}")
    levels = as_int(levels, "levels")
    if levels > min(sizes):
        raise ValidationError(
            f"levels {levels} exceeds the smallest ladder size {min(sizes)}"
        )
    scaled = np.array([scaled_spectrum(n, lam, levels) for n in sizes])
    steps = 1.0 / (np.array(sizes) + 1.0)
    rho = np.sqrt(steps[:-2] / steps[2:])
    differences = np.diff(scaled.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = differences[:, :-1] / differences[:, 1:]
        orders = np.log(ratio) / np.log(rho)
    # A vanishing later difference gives a non-finite ratio.
    orders[~((ratio > 0.0) & np.isfinite(ratio))] = np.nan
    return ConvergenceStudy(sizes, float(lam), scaled, differences, orders, orders[:, -1])
