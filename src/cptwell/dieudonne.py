"""Solutions of the intertwining equation H^T X = X H.

A real symmetric X satisfying the intertwining (Dieudonne) relation
H^T X = X H is a pseudometric for H: it makes H self-adjoint with respect to
the bilinear form <x, X y>, without any positivity promise.  A tridiagonal H
with non-zero bonds is nonderogatory, so (Taussky and Zassenhaus, Pacific J.
Math. 9 (1959) 893) every solution is symmetric and the solution space has
real dimension exactly n.  Inside the reality window it is spanned by the
rank-one dyads u_k u_k^T built from left eigenvectors.

Three routes compute a basis of that space:

* recurrence route: entry (i, j) of H^T X = X H gives row i+1 of X from rows
  i and i-1, divided by the bond H[i+1, i], so X is fixed by its first row.
  The first rows e_1..e_n give a basis, built for all n elements at once in
  O(n) vectorized steps, O(n^3) work in all, with no eigenvectors.  The
  recurrence runs downward (dividing by the sub-diagonal) or, on the flipped
  problem F H F, upward from the last row (dividing by the super-diagonal):
  whichever direction's smallest divisor has the larger magnitude.  Each
  element is made exactly symmetric by mirroring its upper triangle, which
  the recurrence computes from rows above it only.  Any couplings, real or
  complex spectrum alike, as long as no entry grows past
  RECURRENCE_GROWTH_MAX: rounding grows with the entries, and they grow near
  a zero bond and far outside the window.
* dyad route: spectral dyads from the symmetrized form, orthonormalized;
  requires every bond product to be positive (|lambda| < 1 and |mu| < 1 for
  n >= 3).  O(n^3) work.
* dense route: singular value decomposition of the intertwining operator
  restricted to the n(n+1)/2-dimensional symmetric subspace; works for any
  couplings, real or complex spectrum alike, for O(n^6) work.

By default the recurrence is tried first, then the dyads, then (for n <= 32
only) the dense route, and the first basis that passes the residual and
independence certificates is returned.  A route that raises NumericalError
(growth past RECURRENCE_GROWTH_MAX, h not symmetrizable, a failed
certificate) hands the request to the next one, and the last refusal
stands.  The recurrence and dense routes sit behind the same degeneracy
gate: a minimum eigenvalue gap at the DegenerateSpectrum threshold (at
lambda = mu = 1, say, where the upward recurrence would still answer) sends
the default request on to the dyads and the dense route, which then refuse
it exactly as they do on their own.  The result records which route
answered.

Closed-form templates exist on the two structured coupling lines: the
exchange matrix J (antidiagonal of ones) for mu = +lambda, and the
corner-weighted antidiagonal with alpha = (1 - lambda)/(1 + lambda) for
mu = -lambda.

Conventions: norms are max-abs-entry; every computed basis element is scaled
so its largest-magnitude entry equals +1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, NumericalError, ValidationError
from .hamiltonian import DiscreteHamiltonian, dense, symmetrize
from .spectra import DEGENERACY_THRESHOLD, eigen_real, spectrum_of

DENSE_ROUTE_MAX = 32
INDEPENDENCE_FLOOR = 1e-8
RESIDUAL_FACTOR = 1e-10
# Largest entry the recurrence may grow to from its unit first rows.  Rounding
# errors grow with the entries, so this keeps them near 1e6 * eps = 2e-10
# relative; far outside the window the rows grow geometrically and the span
# would drift (3e-8 at n = 32, lambda = -1.5, mu = 2) while still passing the
# residual and independence certificates.
RECURRENCE_GROWTH_MAX = 1e6

VARIANTS = ("exchange", "weighted")
ROUTES = ("recurrence", "dyad", "dense")


@dataclass(frozen=True, eq=False)
class PseudometricBasis:
    """Basis of the real symmetric solution space of H^T X = X H.

    ``basis`` holds ``dimension`` symmetric (n, n) arrays, each scaled to unit
    max-abs entry with the largest-magnitude entry positive.  ``residuals``
    are the per-element intertwining defects ``max|H^T X - X H|`` and
    ``independence`` is the smallest singular value of the stacked basis, a
    linear-independence certificate.  ``route`` names the construction that
    produced the basis: "recurrence", "dyad" or "dense".
    """

    n: int
    basis: list
    residuals: np.ndarray
    independence: float
    route: str

    @property
    def dimension(self):
        return len(self.basis)

    def to_dict(self):
        return {
            "n": int(self.n),
            "dimension": int(self.dimension),
            "independence": float(self.independence),
            "elements": [
                {
                    "matrix": [[float(v) for v in row] for row in x],
                    "residual": float(r),
                }
                for x, r in zip(self.basis, self.residuals)
            ],
        }


@dataclass(frozen=True, eq=False)
class ClosedFormPseudometric:
    """Antidiagonal pseudometric template for one structured coupling line.

    ``exchange`` is the antidiagonal of ones J, intertwining H(lam, +lam);
    ``weighted`` keeps antidiagonal ones but sets both corners to
    alpha = (1 - lam)/(1 + lam), intertwining H(lam, -lam).
    """

    n: int
    variant: str
    alpha: float
    matrix: np.ndarray

    def to_dict(self):
        return {
            "n": int(self.n),
            "variant": self.variant,
            "alpha": float(self.alpha),
            "matrix": [[float(v) for v in row] for row in self.matrix],
        }


def _entry_norm_h(h):
    """max|H_ij| straight from the band storage."""
    return max(
        float(np.abs(h.diag).max()),
        float(np.abs(h.super).max()),
        float(np.abs(h.sub).max()),
    )


def residual(h, x):
    """Intertwining defect max|H^T X - X H| of a candidate pseudometric."""
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("residual expects a DiscreteHamiltonian")
    x = np.asarray(x, dtype=float)
    if x.shape != (h.n, h.n):
        raise ValidationError(
            f"candidate shape {x.shape} does not match operator size {h.n}"
        )
    hd = dense(h)
    return float(np.abs(hd.T @ x - x @ hd).max(initial=0.0))


def _peaks(xs):
    """The largest-magnitude entry of each of the stacked elements, sign kept."""
    flat = xs.reshape(xs.shape[0], -1)
    return flat[np.arange(flat.shape[0]), np.abs(flat).argmax(axis=1)]


def _normalize_elements(xs, peak=None):
    """Scale the stacked elements in place so each largest-magnitude entry is exactly +1.

    ``peak`` is ``_peaks(xs)`` when the caller has it already.
    """
    if peak is None:
        peak = _peaks(xs)
    if (peak == 0.0).any():
        raise NumericalError("zero candidate pseudometric cannot be normalized")
    xs /= peak[:, None, None]
    return xs


def _gap_gate(h, min_gap):
    scale = max(1.0, h.gershgorin_radius())
    if min_gap <= DEGENERACY_THRESHOLD * scale:
        raise DegenerateSpectrum(
            f"minimum eigenvalue gap {min_gap:.3e} at n={h.n}, "
            f"lambda={h.couplings.lam}, mu={h.couplings.mu}; the solution "
            "space is not guaranteed n-dimensional"
        )


def _reject_degenerate(h):
    _gap_gate(h, spectrum_of(h).min_gap)


def _symmetric_pairs(n):
    """Orthonormal (Frobenius) basis of the symmetric n x n matrices.

    Element k is w[k] (E_ij + E_ji) for the row-major pair i = iu[k] <= j = ju[k],
    with weight 1/sqrt(2) off the diagonal; on it (i = j) it is E_ii itself.
    """
    iu, ju = np.triu_indices(n)
    return iu, ju, np.where(iu == ju, 1.0, 1.0 / np.sqrt(2.0))


def _intertwining_operator(hd):
    """Matrix of X -> H^T X - X H from the symmetric basis to row-major n*n vectors.

    Column k holds H^T B - B H for the basis element B of `_symmetric_pairs`,
    assembled by scattering rows of H: H^T E_ij has row i of H as its column j,
    and E_ij H has row j of H as its row i.  The H^T terms are added to zeros,
    as a matrix product accumulates them, so the result is bit-identical to
    forming the products, signed zeros included.
    """
    n = hd.shape[0]
    iu, ju, w = _symmetric_pairs(n)
    c = np.arange(iu.size)
    off = iu != ju
    a = np.zeros((n, n, iu.size))
    a[:, ju, c] += w * hd[iu].T
    a[:, iu[off], c[off]] += w[off] * hd[ju[off]].T
    a[iu, :, c] -= w[:, None] * hd[ju]
    a[ju[off], :, c[off]] -= w[off, None] * hd[iu[off]]
    return a.reshape(n * n, iu.size)


def _symmetric_elements(coefs, n):
    """The symmetric matrices with coordinates ``coefs`` (rows) in that basis."""
    iu, ju, w = _symmetric_pairs(n)
    x = np.zeros((coefs.shape[0], n, n))
    x[:, iu, ju] += coefs * w
    x[:, ju, iu] = x[:, iu, ju]
    return x


def _dense_route(h):
    """Null space of X -> H^T X - X H over the symmetric subspace, by SVD, normalized."""
    n = h.n
    a = _intertwining_operator(dense(h))
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = sv[0] * max(a.shape) * float(np.finfo(float).eps)
    rank = int(np.count_nonzero(sv > cutoff))
    dim = a.shape[1] - rank
    if dim != n:
        raise NumericalError(
            f"intertwining kernel dimension {dim} != n={n} "
            f"(singular values near the cutoff: {sv[max(rank - 2, 0):rank + 2]})"
        )
    return _normalize_elements(_symmetric_elements(vt[rank:], n))


def _recurrence_elements(sup, sub, flip=False):
    """The n solutions of H^T X = X H with first rows e_1..e_n, stacked (n, n, n).

    Row i+1 of every element follows from entry (i, j) of the equation,

        X[i+1, j] = (X[i, j-1] sup[j-1] + X[i, j+1] sub[j] - sup[i-1] X[i-1, j]) / sub[i]

    (the diagonal of H is constant, so it cancels).  Entries j >= i+1 of row
    i+1 use entries j >= i of the rows above only, so only the upper triangle
    is computed, and it is mirrored in place onto the lower one to make each
    element exactly symmetric; adding 0.0 then turns every -0.0 into +0.0.
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
    for r in range(1, n):
        x[:, r, :r] = x[:, :r, r]
    elements += 0.0
    return elements


def _recurrence_route(h):
    """First-row recurrence, run in the direction whose smallest divisor is larger.

    Upward is the downward recurrence on the flipped problem F H F, whose
    super- and sub-diagonals are H's sub- and super-diagonals reversed; its
    solutions X' give F X' F for H.  Returns the elements normalized.
    Refused (NumericalError) when an entry grows past RECURRENCE_GROWTH_MAX,
    overflows, or divides by a zero bond.
    """
    with np.errstate(all="ignore"):
        if np.abs(h.sub).min() >= np.abs(h.super).min():
            x = _recurrence_elements(h.super, h.sub)
        else:
            x = _recurrence_elements(h.sub[::-1], h.super[::-1], flip=True)
    # The largest entry is the largest of the peaks the normalization divides by.
    peak = _peaks(x)
    growth = float(np.abs(peak).max())
    # Written so that NaN (a zero bond in both directions) fails it too.
    if not growth <= RECURRENCE_GROWTH_MAX:
        raise NumericalError(
            f"first-row recurrence grew to {growth:.3e} (limit {RECURRENCE_GROWTH_MAX:.0e}) "
            f"at n={h.n}, lambda={h.couplings.lam}, mu={h.couplings.mu}"
        )
    return _normalize_elements(x, peak)


def spectral_dyads(h):
    """Rank-one solutions u_k u_k^T from unit left eigenvectors, E_k ascending.

    Left eigenvectors come from the symmetrized form S = D^-1 H D: if
    S w = E w then H^T (D^-1 w) = E (D^-1 w).  Requires couplings inside the
    open unit square and a simple spectrum.
    """
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("spectral_dyads expects a DiscreteHamiltonian")
    sym = symmetrize(h)
    spec, w = eigen_real(sym, want_vectors=True)
    _gap_gate(h, spec.min_gap)
    u = w / sym.d[:, None]
    u = u / np.linalg.norm(u, axis=0)
    return [np.outer(u[:, k], u[:, k]) for k in range(h.n)]


def _dyad_route(h):
    """Orthonormalized span of the spectral dyads (couplings in the open square), normalized."""
    n = h.n
    v = np.stack([x.reshape(-1) for x in spectral_dyads(h)], axis=1)
    q, r = np.linalg.qr(v)
    rd = np.abs(np.diag(r))
    if rd.min() <= 1e-12 * rd.max():
        raise NumericalError(
            f"spectral dyads are numerically dependent (pivot ratio {rd.min() / rd.max():.3e})"
        )
    x = q.T.reshape(n, n, n)
    return _normalize_elements(0.5 * (x + x.transpose(0, 2, 1)))


def kernel_basis(h, route=None):
    """All pseudometrics of h: a normalized basis of {X = X^T : H^T X = X H}.

    ``route`` picks the construction explicitly ("recurrence", "dyad" or
    "dense").  By default the recurrence route is tried first, behind the
    degeneracy gate; any NumericalError there (a degenerate spectrum, growth
    past RECURRENCE_GROWTH_MAX, a failed residual or independence
    certificate) hands the request to the dyad route.  For n <= DENSE_ROUTE_MAX a refusal of the
    dyad route in turn hands it to the dense route; above that size it
    propagates.  Degenerate input is rejected, so the dimension always
    equals n.
    """
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("kernel_basis expects a DiscreteHamiltonian")
    if route not in (None,) + ROUTES:
        raise ValidationError(f"unknown route {route!r}; expected one of {ROUTES}")
    if route is None:
        try:
            _reject_degenerate(h)
            return _certified_basis(h, _recurrence_route(h), "recurrence")
        except NumericalError:
            route = "dyad"
        if h.n <= DENSE_ROUTE_MAX:
            try:
                return _certified_basis(h, _dyad_route(h), route)
            except NumericalError:
                route = "dense"
    if route == "dyad":
        return _certified_basis(h, _dyad_route(h), route)
    _reject_degenerate(h)
    elements = _recurrence_route(h) if route == "recurrence" else _dense_route(h)
    return _certified_basis(h, elements, route)


def _certified_basis(h, basis, route):
    """Check the residuals and independence of a route's normalized (n, n, n) elements."""
    hd = dense(h)
    defect = hd.T @ basis
    defect -= basis @ hd
    residuals = np.abs(defect, out=defect).max(axis=(1, 2), initial=0.0)
    bound = RESIDUAL_FACTOR * _entry_norm_h(h)
    if residuals.max(initial=0.0) > bound:
        raise NumericalError(
            f"pseudometric residual {residuals.max():.3e} exceeds {bound:.3e}"
        )
    stacked = basis.reshape(h.n, -1).T
    independence = float(np.linalg.svd(stacked, compute_uv=False)[-1])
    if independence <= INDEPENDENCE_FLOOR:
        raise NumericalError(
            f"normalized basis is near-dependent (smallest singular value "
            f"{independence:.3e} <= {INDEPENDENCE_FLOOR})"
        )
    return PseudometricBasis(h.n, list(basis), residuals, independence, route)


def span_residual(pm, x):
    """Relative max-abs distance from x to the span of a computed basis."""
    if not isinstance(pm, PseudometricBasis):
        raise ValidationError("span_residual expects a PseudometricBasis")
    x = np.asarray(x, dtype=float)
    if x.shape != (pm.n, pm.n):
        raise ValidationError(
            f"candidate shape {x.shape} does not match basis size {pm.n}"
        )
    b = np.stack([e.reshape(-1) for e in pm.basis], axis=1)
    t = x.reshape(-1)
    scale = float(np.abs(t).max(initial=0.0))
    if scale == 0.0:
        return 0.0
    coef, _, _, _ = np.linalg.lstsq(b, t, rcond=None)
    return float(np.abs(t - b @ coef).max() / scale)


def closed_form(n, lam, variant):
    """Antidiagonal pseudometric template on a structured coupling line.

    ``exchange`` returns J for H(lam, +lam); ``weighted`` returns antidiagonal
    ones with both corners alpha = (1 - lam)/(1 + lam) for H(lam, -lam).  The
    weighted template degenerates at lam = -1 where alpha diverges.
    """
    n = int(n)
    if n < 2:
        raise ValidationError(f"size must be at least 2, got {n}")
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValidationError(f"coupling must be finite, got {lam}")
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    matrix = np.zeros((n, n))
    idx = np.arange(n)
    matrix[idx, n - 1 - idx] = 1.0
    if variant == "weighted":
        if lam == -1.0:
            raise ValidationError(
                "weighted closed form is singular at lambda = -1 (alpha diverges)"
            )
        alpha = (1.0 - lam) / (1.0 + lam)
        matrix[0, n - 1] = alpha
        matrix[n - 1, 0] = alpha
    else:
        alpha = 1.0
    return ClosedFormPseudometric(n, variant, alpha, matrix)
