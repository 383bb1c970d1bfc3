"""Solutions of the intertwining equation H^T X = X H.

A real symmetric X satisfying the intertwining (Dieudonne) relation
H^T X = X H is a pseudometric for H: it makes H self-adjoint with respect to
the bilinear form <x, X y>, without any positivity promise.  For a tridiagonal
well with simple spectrum the solution space has real dimension exactly n,
spanned by the rank-one dyads u_k u_k^T built from left eigenvectors.

Two routes compute a basis of that space:

* dense route (default for n <= 32): singular value decomposition of the
  intertwining operator restricted to the n(n+1)/2-dimensional symmetric
  subspace; works for any couplings, real or complex spectrum alike.
* dyad route (default above n = 32): spectral dyads from the symmetrized
  form, orthonormalized; requires |lambda| < 1 and |mu| < 1.

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

VARIANTS = ("exchange", "weighted")


@dataclass(frozen=True, eq=False)
class PseudometricBasis:
    """Basis of the real symmetric solution space of H^T X = X H.

    ``basis`` holds ``dimension`` symmetric (n, n) arrays, each scaled to unit
    max-abs entry with the largest-magnitude entry positive.  ``residuals``
    are the per-element intertwining defects ``max|H^T X - X H|`` and
    ``independence`` is the smallest singular value of the stacked basis, a
    linear-independence certificate.
    """

    n: int
    basis: list
    residuals: np.ndarray
    independence: float

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


def _normalize_element(x):
    """Scale so the largest-magnitude entry is exactly +1."""
    flat = x.reshape(-1)
    k = int(np.abs(flat).argmax())
    peak = flat[k]
    if peak == 0.0:
        raise NumericalError("zero candidate pseudometric cannot be normalized")
    return x / peak


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
    return list(x)


def _dense_route(h):
    """Null space of X -> H^T X - X H over the symmetric subspace, by SVD."""
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
    return _symmetric_elements(vt[rank:], n)


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
    """Orthonormalized span of the spectral dyads (couplings in the open square)."""
    n = h.n
    v = np.stack([x.reshape(-1) for x in spectral_dyads(h)], axis=1)
    q, r = np.linalg.qr(v)
    rd = np.abs(np.diag(r))
    if rd.min() <= 1e-12 * rd.max():
        raise NumericalError(
            f"spectral dyads are numerically dependent (pivot ratio {rd.min() / rd.max():.3e})"
        )
    out = []
    for k in range(n):
        x = q[:, k].reshape(n, n)
        out.append(0.5 * (x + x.T))
    return out


def kernel_basis(h, route=None):
    """All pseudometrics of h: a normalized basis of {X = X^T : H^T X = X H}.

    ``route`` picks the construction explicitly ("dense" or "dyad"); by
    default the dense SVD route serves n <= 32 and the dyad route the rest.
    Degenerate input is rejected, so the dimension always equals n.
    """
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("kernel_basis expects a DiscreteHamiltonian")
    if route not in (None, "dense", "dyad"):
        raise ValidationError(f"unknown route {route!r}; expected 'dense' or 'dyad'")
    if route is None:
        route = "dense" if h.n <= DENSE_ROUTE_MAX else "dyad"
    if route == "dense":
        _reject_degenerate(h)
        raw = _dense_route(h)
    else:
        raw = _dyad_route(h)
    basis = [_normalize_element(x) for x in raw]
    residuals = np.array([residual(h, x) for x in basis])
    bound = RESIDUAL_FACTOR * _entry_norm_h(h)
    if residuals.max(initial=0.0) > bound:
        raise NumericalError(
            f"pseudometric residual {residuals.max():.3e} exceeds {bound:.3e}"
        )
    stacked = np.stack([x.reshape(-1) for x in basis], axis=1)
    independence = float(np.linalg.svd(stacked, compute_uv=False)[-1])
    if independence <= INDEPENDENCE_FLOOR:
        raise NumericalError(
            f"normalized basis is near-dependent (smallest singular value "
            f"{independence:.3e} <= {INDEPENDENCE_FLOOR})"
        )
    return PseudometricBasis(h.n, basis, residuals, independence)


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
