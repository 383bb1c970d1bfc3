"""Solutions of the intertwining equation H^T X = X H.

A real symmetric X satisfying the intertwining (Dieudonne) relation
H^T X = X H is a pseudometric for H: it makes H self-adjoint with respect to
the bilinear form <x, X y>, without any positivity promise.  A tridiagonal H
with non-zero bonds is nonderogatory, so (Taussky and Zassenhaus, Pacific J.
Math. 9 (1959) 893) every solution is symmetric and the solution space has
real dimension exactly n.  Inside the reality window it is spanned by the
rank-one dyads u_k u_k^T built from left eigenvectors.

One construction computes a basis of that space, with no eigenvectors:
entry (i, j) of H^T X = X H gives row i+1 of X from rows i and i-1, divided
by the bond H[i+1, i], so X is fixed by its first row.  The first rows
e_1..e_n give a basis, built for all n elements at once in O(n) vectorized
steps, O(n^3) work in all.  The recurrence runs downward (dividing by the
sub-diagonal) or, on the flipped problem F H F, upward from the last row
(dividing by the super-diagonal): whichever direction's smallest divisor has
the larger magnitude.  Each element is made exactly symmetric by mirroring
its upper triangle, which the recurrence computes from rows above it only.
Any couplings, real or complex spectrum alike.

Near a small bond and far outside the window the unit first rows are an
ill-conditioned basis: the entries grow (by the inverse of the bond, or
geometrically along the rows) and rounding grows with them, although the
solution space itself is well defined.  When an entry of the plain run grows
past RECURRENCE_GROWTH_MAX, the recurrence is run once more, replacing the
computed rows of the whole stack by an orthonormal recombination (a QR
factorization along the element axis) whenever a new row has an entry larger
than 10.  An invertible recombination of solutions is still a basis of the
solution space, so the recurrence goes on from it.  Only a non-finite result
(overflow, a zero bond) is refused.

The recurrence sits behind a degeneracy gate: a minimum eigenvalue gap at the
DegenerateSpectrum threshold (at lambda = mu = 1, say) is refused.  Every
basis then goes through the residual and independence certificates.  A plain
run's independence is read in O(n) from its start rows, e_k / peak_k, which
bound the smallest singular value of the stacked basis from below; a
re-orthonormalized basis takes the SVD of the n^2 x n stack.

Closed-form templates exist on the two structured coupling lines: the
exchange matrix J (antidiagonal of ones) for mu = +lambda, and Theta_D J for
mu = -lambda, with Theta_D = diag(alpha_lambda, 1, ..., 1, 1/alpha_mu) and
alpha_x = (1 - x)/(1 + x) the closed-form metric.

Conventions: norms are max-abs-entry; every computed basis element is scaled
so its largest-magnitude entry equals +1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NumericalError, ValidationError
from .hamiltonian import CouplingPair, DiscreteHamiltonian, dense, dimension, symmetrize
from .spectra import DEGENERACY_THRESHOLD, eigen_real, spectrum_of

# Unused by the library: only bench/tracing.py reads it, to label kernel_basis
# calls, like kernels.HAS_NUMBA.
DENSE_ROUTE_MAX = 32
INDEPENDENCE_FLOOR = 1e-8
RESIDUAL_FACTOR = 1e-10
# Largest entry the plain recurrence may grow to from its unit first rows.
# Rounding errors grow with the entries, so this keeps them near
# 1e6 * eps = 2e-10 relative; past it (far outside the window, or near a small
# bond) the span would drift (3e-8 at n = 32, lambda = -1.5, mu = 2) while
# still passing the residual and independence certificates, so the recurrence
# is run again with re-orthonormalization.
RECURRENCE_GROWTH_MAX = 1e6
# In that second run, a new row larger than this re-orthonormalizes the stack.
_REORTHONORMALIZE_AT = 10.0

VARIANTS = ("exchange", "weighted")


@dataclass(frozen=True, eq=False)
class PseudometricBasis:
    """Basis of the real symmetric solution space of H^T X = X H.

    ``basis`` holds ``dimension`` symmetric (n, n) arrays, each scaled to unit
    max-abs entry with the largest-magnitude entry positive.  ``residuals``
    are the per-element intertwining defects ``max|H^T X - X H|``.
    ``independence`` is a certified lower bound on the smallest singular value
    of the stacked basis (n^2 x n), a linear-independence certificate: the
    exact value when ``reorthonormalized`` (the recurrence's second pass ran),
    otherwise min_k |1/peak_k| from the plain run's start rows.
    """

    n: int
    basis: list
    residuals: np.ndarray
    independence: float
    reorthonormalized: bool

    @property
    def dimension(self):
        return len(self.basis)


@dataclass(frozen=True, eq=False)
class ClosedFormPseudometric:
    """Antidiagonal pseudometric template for one structured coupling line.

    ``exchange`` is the antidiagonal of ones J, intertwining H(lam, +lam);
    ``weighted`` is Theta_D J, antidiagonal ones with both corners
    alpha = (1 - lam)/(1 + lam), intertwining H(lam, -lam).
    """

    n: int
    variant: str
    alpha: float
    matrix: np.ndarray


def _entry_norm(a):
    """max|a_ij|, the matrix norm of every check here (0 for an empty array)."""
    return float(np.abs(a).max(initial=0.0))


def _candidate(x, shape, sized, complex_ok=False):
    """``x`` as a finite float array of ``shape``, else a ValidationError.

    The one input gate of the operator layer.  ``shape`` None asks for a
    square matrix of any size.  ``sized`` ends the shape message: what
    ``shape`` comes from, such as "operator size 4".  Complex input is
    refused, not cast (which would drop the imaginary part), unless
    ``complex_ok``, which keeps it complex; strings, objects and NaN or
    infinite entries are always refused.
    """
    try:
        x = np.asarray(x)
    except ValueError as exc:
        raise ValidationError(f"candidate is not a matrix or vector: {exc}") from None
    if x.dtype.kind not in ("biufc" if complex_ok else "biuf"):
        kind = "numeric" if complex_ok else "real"
        raise ValidationError(f"candidate must be a {kind} matrix or vector, not dtype {x.dtype}")
    if shape is None:
        shape = x.shape[:1] * 2 if x.ndim else None
    if x.shape != shape:
        raise ValidationError(f"candidate shape {x.shape} does not match {sized}")
    if not np.isfinite(x).all():
        raise ValidationError("candidate has a non-finite entry")
    return x.astype(complex if x.dtype.kind == "c" else float, copy=False)


def residual(h, x):
    """Intertwining defect max|H^T X - X H| of a candidate pseudometric."""
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("residual expects a DiscreteHamiltonian")
    x = _candidate(x, (h.n, h.n), f"operator size {h.n}")
    hd = dense(h)
    return _entry_norm(hd.T @ x - x @ hd)


def _peaks(xs):
    """The largest-magnitude entry of each of the stacked elements, sign kept."""
    flat = xs.reshape(xs.shape[0], -1)
    return flat[np.arange(flat.shape[0]), np.abs(flat).argmax(axis=1)]


def _gap_gate(h, min_gap, consequence="the solution space is not guaranteed n-dimensional"):
    """Refuse a minimum gap at the degeneracy threshold; return the threshold's scale.

    ``consequence`` ends the DegenerateSpectrum message: what the caller
    cannot do with a (near-)multiple eigenvalue.
    """
    scale = max(1.0, h.gershgorin_radius())
    if min_gap <= DEGENERACY_THRESHOLD * scale:
        raise DegenerateSpectrum(
            f"minimum eigenvalue gap {min_gap:.3e} at n={h.n}, "
            f"lambda={h.couplings.lam}, mu={h.couplings.mu}; {consequence}"
        )
    return scale


def _recurrence_elements(sup, sub, flip=False, orthonormalize=False):
    """n solutions of H^T X = X H, stacked (n, n, n): first rows e_1..e_n, or a recombination.

    Row i+1 of every element follows from entry (i, j) of the equation,

        X[i+1, j] = (X[i, j-1] sup[j-1] + X[i, j+1] sub[j] - sup[i-1] X[i-1, j]) / sub[i]

    (the diagonal of H is constant, so it cancels).  Entries j >= i+1 of row
    i+1 use entries j >= i of the rows above only, so only the upper triangle
    is computed, and it is mirrored in place onto the lower one to make each
    element exactly symmetric; adding 0.0 then turns every -0.0 into +0.0.
    With ``orthonormalize``, whenever a new row has an entry larger than
    _REORTHONORMALIZE_AT, the rows computed so far are replaced by the
    recombination R^-T X along the element axis, R from the QR factorization
    of the flattened stack, and the recurrence goes on from it.  The new rows
    are orthonormal, and one matrix product keeps each new element a
    combination of the old ones entry for entry; taking Q itself would spread
    rounding of the size of the largest rows over the small ones.
    With ``flip`` the recurrence writes through a view reversed along both
    matrix axes, so the C-contiguous result holds F X F (F the reversal) for
    each solution X of the problem that sup and sub describe.
    """
    n = sub.size + 1
    elements = np.zeros((n, n, n))
    x = elements[:, ::-1, ::-1] if flip else elements
    x[:, 0] = np.eye(n)
    for i in range(n - 1):
        j = i + 1
        row = x[:, j, j:]
        row[...] = x[:, i, i:-1] * sup[i:]
        row[:, :-1] += x[:, i, j + 1 :] * sub[j:]
        if i:
            row -= sup[i - 1] * x[:, i - 1, j:]
        row /= sub[i]
        if orthonormalize and np.abs(row).max() > _REORTHONORMALIZE_AT:
            done = x[:, : j + 1].reshape(n, -1)
            inv_r = np.linalg.inv(np.linalg.qr(done.T, mode="r"))
            x[:, : j + 1] = (inv_r.T @ done).reshape(n, j + 1, n)
    for r in range(1, n):
        x[:, r, :r] = x[:, :r, r]
    elements += 0.0
    return elements


def _recurrence_route(h):
    """First-row recurrence, run in the direction whose smallest divisor is larger.

    Upward is the downward recurrence on the flipped problem F H F, whose
    super- and sub-diagonals are H's sub- and super-diagonals reversed; its
    solutions X' give F X' F for H.  An entry past RECURRENCE_GROWTH_MAX
    reruns it with re-orthonormalization.  Returns the elements scaled in
    place so that each largest-magnitude entry is exactly +1; refused
    (NumericalError) only when they are not finite (overflow, or a zero bond
    in both directions).  No element is zero: each has a unit entry in its
    first (upward: last) row, or is an invertible recombination of such.
    Also returns the index of the start row (0 downward, n-1 upward) when
    the plain run is kept, None after re-orthonormalization.
    """
    if np.abs(h.sub).min() >= np.abs(h.super).min():
        bands, start = (h.super, h.sub, False), 0
    else:
        bands, start = (h.sub[::-1], h.super[::-1], True), h.n - 1
    with np.errstate(all="ignore"):
        x = _recurrence_elements(*bands)
        peak = _peaks(x)
        # Written so that NaN fails it too.
        if not np.abs(peak).max() <= RECURRENCE_GROWTH_MAX:
            x = _recurrence_elements(*bands, orthonormalize=True)
            peak = _peaks(x)
            start = None
    # A NaN or infinite entry makes its element's peak NaN or infinite.
    if not np.isfinite(peak).all():
        raise NumericalError(
            f"first-row recurrence is not finite at n={h.n}, "
            f"lambda={h.couplings.lam}, mu={h.couplings.mu}"
        )
    x /= peak[:, None, None]
    return x, start


def spectral_dyads(h):
    """Rank-one solutions u_k u_k^T from unit left eigenvectors, E_k ascending.

    Left eigenvectors come from the symmetrized form S = D^-1 H D: if
    S w = E w then H^T (D^-1 w) = E (D^-1 w).  Requires couplings inside the
    open unit square and a simple spectrum.
    """
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("spectral_dyads expects a DiscreteHamiltonian")
    sym = symmetrize(h)
    spec, w = eigen_real(sym)
    _gap_gate(h, spec.min_gap)
    u = w / sym.d[:, None]
    u = u / np.linalg.norm(u, axis=0)
    return [np.outer(u[:, k], u[:, k]) for k in range(h.n)]


def kernel_basis(h):
    """All pseudometrics of h: a normalized basis of {X = X^T : H^T X = X H}.

    Degenerate input is refused first (DegenerateSpectrum), so the dimension
    always equals n.  The basis comes from the first-row recurrence and must
    pass the residual and independence certificates (NumericalError).  The
    independence is exact (an SVD) for a re-orthonormalized basis and an
    O(n) lower bound from the start rows for a plain run, where it cannot
    fall below INDEPENDENCE_FLOOR; ``reorthonormalized`` tells them apart.

    With every bond non-zero the solution space is n-dimensional whatever the
    gaps, so the gate refuses some cells that the recurrence answers.  It
    stays because it also refuses inaccurate answers that pass both
    certificates: near the (-, +) corners, e.g. at n = 6, lambda =
    -0.999999999999, mu = 1, the ungated basis lies 3.9e-5 from the exact
    span.  It can go once a check that bounds the span error exists.
    """
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("kernel_basis expects a DiscreteHamiltonian")
    _gap_gate(h, spectrum_of(h).min_gap)
    return _certified_basis(h, *_recurrence_route(h))


def _certified_basis(h, basis, start):
    """Check the residuals and independence of normalized (n, n, n) elements.

    ``start`` is a plain run's start row, or None after re-orthonormalization.
    On a plain run, row ``start`` of element k holds a single non-zero entry,
    1/peak_k, in a distinct column for each k.  Those n rows of the stacked
    basis S form a permuted diagonal block B, and |Sv|^2 = |Bv|^2 +
    |(rest)v|^2 >= |Bv|^2 for the stored floats, so min_k |1/peak_k| =
    sigma_min(B) <= sigma_min(S) is a certified lower bound, read in O(n).
    It is at least 1/RECURRENCE_GROWTH_MAX, above INDEPENDENCE_FLOOR, so that
    check cannot fail there.  A re-orthonormalized basis has recombined start
    rows, so its independence is the exact smallest singular value of S.
    """
    hd = dense(h)
    defect = hd.T @ basis
    defect -= basis @ hd
    residuals = np.abs(defect, out=defect).max(axis=(1, 2), initial=0.0)
    bound = RESIDUAL_FACTOR * _entry_norm(hd)
    if residuals.max(initial=0.0) > bound:
        raise NumericalError(
            f"pseudometric residual {residuals.max():.3e} exceeds {bound:.3e}"
        )
    if start is None:
        stacked = basis.reshape(h.n, -1).T
        independence = float(np.linalg.svd(stacked, compute_uv=False)[-1])
    else:
        independence = float(np.abs(basis[:, start]).max(axis=1).min())
    if independence <= INDEPENDENCE_FLOOR:
        raise NumericalError(
            f"normalized basis is near-dependent (smallest singular value "
            f"{independence:.3e} <= {INDEPENDENCE_FLOOR})"
        )
    return PseudometricBasis(h.n, list(basis), residuals, independence, start is None)


def span_residual(pm, x):
    """Relative max-abs distance from x to the span of a computed basis."""
    if not isinstance(pm, PseudometricBasis):
        raise ValidationError("span_residual expects a PseudometricBasis")
    x = _candidate(x, (pm.n, pm.n), f"basis size {pm.n}")
    b = np.stack([e.reshape(-1) for e in pm.basis], axis=1)
    t = x.reshape(-1)
    scale = float(np.abs(t).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    coef, _, _, _ = np.linalg.lstsq(b, t, rcond=None)
    return float(np.abs(t - b @ coef).max() / scale)


def _theta_diagonal(n, lam, mu):
    """The diagonal (alpha_lam, 1, ..., 1, 1/alpha_mu) of Theta_D, alpha_x = (1 - x)/(1 + x).

    For n >= 3, Theta_D solves H^T X = X H for H(lam, mu) at every
    lam, mu != +-1.  The caller refuses lam = -1 and mu = 1 first.
    """
    return np.r_[(1.0 - lam) / (1.0 + lam), np.ones(n - 2), (1.0 + mu) / (1.0 - mu)]


def closed_form(n, lam, variant):
    """Antidiagonal pseudometric template on a structured coupling line.

    ``exchange`` returns J for H(lam, +lam); ``weighted`` returns Theta_D J
    (`_theta_diagonal` at mu = -lam: antidiagonal ones with both corners
    alpha = (1 - lam)/(1 + lam)) for H(lam, -lam).  The weighted template
    degenerates at lam = -1 where alpha diverges.
    """
    n = dimension(n)
    lam = CouplingPair(lam, lam).lam
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "exchange":
        return ClosedFormPseudometric(n, variant, 1.0, np.eye(n)[::-1].copy())
    if lam == -1.0:
        raise ValidationError("weighted closed form is singular at lambda = -1 (alpha diverges)")
    diagonal = _theta_diagonal(n, lam, -lam)
    matrix = np.diag(diagonal)[:, ::-1].copy()
    return ClosedFormPseudometric(n, variant, float(diagonal[0]), matrix)
