"""Eigenvalues, eigenvectors, and reality-domain scans.

Two solver branches cover the whole coupling plane:

* real branch (`eigen_real`): when the matrix symmetrizes, the eigenvalues
  (and, on request, the eigenvectors) come from LAPACK's symmetric solvers
  (``np.linalg.eigvalsh`` / ``np.linalg.eigh``) on the symmetric form;
  everything is real by construction.
* general branch (`eigen_general`): elsewhere, the eigenvalues come from
  LAPACK's Hessenberg QR (``np.linalg.eigvals``) on the dense matrix; values
  that coalesce near the real axis (an exceptional point within a few ulps)
  are re-solved from a double-double Taylor expansion of det(H - E), and
  complex values are paired exactly with their conjugates.

A LAPACK failure surfaces as `ConvergenceError`, so every solver failure stays
a `NumericalError`.

Classification is shared: a spectrum counts as all-real when every |Im| lies at
or below ``reality_tol`` = 1e-9 * max(1, Gershgorin radius) (overridable), and
``min_gap`` is the smallest pairwise distance between the sorted values.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConvergenceError, NumericalError, ValidationError
from .hamiltonian import SymmetrizedForm, build, dense, symmetrize

REALITY_TOL_FACTOR = 1e-9
DEGENERACY_THRESHOLD = 1e-10
# Width, relative to max(1, Gershgorin radius), of the groups of near-real
# eigenvalues that eigen_general re-solves in extended precision.
EP_CLUSTER_GAP = 1e-5


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ordered eigenvalue list with reality classification.

    ``values`` holds all n eigenvalues (multiplicity included) sorted by real
    part, then imaginary part.
    """

    values: np.ndarray
    all_real: bool
    min_gap: float

    @property
    def n(self):
        return self.values.shape[0]

    def to_dict(self):
        return {
            "values": [{"re": float(z.real), "im": float(z.imag)} for z in self.values],
            "all_real": bool(self.all_real),
            "min_gap": float(self.min_gap),
        }


@dataclass(frozen=True, eq=False)
class DomainScan:
    """Per-cell reality classification over a coupling grid.

    Parallel arrays, one entry per scanned cell in row-major (lambda, mu)
    order.  ``complex_pairs`` is -1 for a cell whose solve failed; the failure
    message is kept in ``diagnostics`` and the scan continues.
    """

    lam: np.ndarray
    mu: np.ndarray
    all_real: np.ndarray
    complex_pairs: np.ndarray
    min_gap: np.ndarray
    diagnostics: list = field(default_factory=list)

    def rows(self):
        for i in range(self.lam.shape[0]):
            yield (
                float(self.lam[i]),
                float(self.mu[i]),
                bool(self.all_real[i]),
                int(self.complex_pairs[i]),
                float(self.min_gap[i]),
            )


def reality_tolerance(h, override=None):
    """Scale-aware threshold on |Im| below which a value counts as real.

    An override must be a finite number >= 0.
    """
    if override is None:
        return REALITY_TOL_FACTOR * max(1.0, h.gershgorin_radius())
    tol = float(override)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"reality tolerance must be finite and >= 0, got {override!r}")
    return tol


def _min_gap(values):
    n = values.shape[0]
    if n < 2:
        return float("inf")
    dist = np.abs(values[:, None] - values[None, :])
    dist[np.diag_indices(n)] = np.inf
    return float(dist.min())


def _sorted_values(values):
    order = np.lexsort((values.imag, values.real))
    return values[order]


def _classify(values, tol):
    values = _sorted_values(values)
    all_real = bool(np.abs(values.imag).max(initial=0.0) <= tol)
    return Spectrum(values, all_real, _min_gap(values))


def eigen_real(s, want_vectors=False):
    """All eigenvalues (ascending) of the symmetric form; optional vectors.

    Eigenvalues come from ``np.linalg.eigvalsh`` on the symmetric tridiagonal.
    With vectors requested, ``np.linalg.eigh`` gives values and orthonormal
    vectors together (its values can differ from ``eigvalsh`` at the rounding
    level), and the call returns (Spectrum, W) with W[:, k] the unit
    eigenvector of the k-th ascending eigenvalue, its first significant
    component made positive.
    """
    if not isinstance(s, SymmetrizedForm):
        raise TypeError("eigen_real expects a SymmetrizedForm")
    t = np.diag(s.s_diag) + np.diag(s.s_off, 1) + np.diag(s.s_off, -1)
    if not want_vectors:
        values = _lapack(np.linalg.eigvalsh, t).astype(complex)
        return Spectrum(values, True, _min_gap(values))
    evals, w = _lapack(np.linalg.eigh, t)
    values = evals.astype(complex)
    mag = np.abs(w)
    lead = w[np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0), np.arange(w.shape[1])]
    return Spectrum(values, True, _min_gap(values)), w * np.where(lead < 0.0, -1.0, 1.0)


def _lapack(solver, a):
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigenvalue solver failed: {exc}") from exc


def char_poly(h, e):
    """det(H - e*I) via the three-term recurrence (complex-capable).

    For one site the determinant is just diag[0] - e; the recurrence handles
    that edge because the bond loop is empty.
    """
    diag = np.ascontiguousarray(h.diag)
    bonds = np.ascontiguousarray(h.bonds)
    p, _, _, nscale = kernels.charpoly_terms(diag, bonds, complex(e))
    if nscale:
        p = p * (2.0 ** (512.0 * nscale))
    return complex(p)


def _enforce_conjugate_pairs(values, tol):
    """Pair complex values with their conjugates and make the pairing exact.

    A real matrix has exactly conjugate eigenvalue pairs; a solver returns them
    matched to its accuracy, and averaging the members removes any residual
    asymmetry.
    """
    values = values.copy()
    complex_idx = [i for i in range(values.shape[0]) if abs(values[i].imag) > tol]
    unpaired = set(complex_idx)
    for i in complex_idx:
        if i not in unpaired:
            continue
        target = np.conj(values[i])
        best_j = -1
        best_d = np.inf
        for j in unpaired:
            if j == i or values[j].imag * values[i].imag > 0:
                continue
            d = abs(values[j] - target)
            if d < best_d:
                best_d = d
                best_j = j
        scale = 1.0 + abs(values[i])
        if best_j < 0 or best_d > 1e-7 * scale:
            raise NumericalError(
                f"complex root {complex(values[i])} has no conjugate partner "
                f"(closest mismatch {float(best_d):.3e})"
            )
        re = 0.5 * (values[i].real + values[best_j].real)
        im = 0.5 * (abs(values[i].imag) + abs(values[best_j].imag))
        s = 1.0 if values[i].imag > 0 else -1.0
        values[i] = complex(re, s * im)
        values[best_j] = complex(re, -s * im)
        unpaired.discard(i)
        unpaired.discard(best_j)
    return values


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    # exact product as (hi, lo) via Dekker splitting
    p = a * b
    t = 134217729.0 * a
    a1 = t - (t - a)
    a2 = a - a1
    t = 134217729.0 * b
    b1 = t - (t - b)
    b2 = b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    return _two_sum(p, e + (xh * yl + xl * yh))


def _dd_add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    return _two_sum(s, e + (xl + yl))


def _taylor_charpoly(h, c, m):
    """Coefficients of det(H - (c + t)) in powers of t, degrees 0..m.

    The three-term recurrence runs on truncated polynomials in t, in
    double-double arithmetic with every bond product formed exactly, so the
    coefficients carry about 2**-104 relative error in the running terms.
    Running terms are rescaled together by 2**-512 when they outgrow 1e150,
    which leaves the roots unchanged.
    """
    zero = np.zeros(m + 1)
    p2h, p2l = zero.copy(), zero.copy()
    p2h[0] = 1.0
    ah, al = _two_sum(h.diag[0], -c)
    p1h, p1l = zero.copy(), zero.copy()
    p1h[0], p1l[0], p1h[1] = ah, al, -1.0
    for k in range(1, h.n):
        ah, al = _two_sum(h.diag[k], -c)
        bh, bl = _two_prod(h.super[k - 1], h.sub[k - 1])
        th, tl = _dd_mul(ah, al, p1h, p1l)
        # minus t * p1: an exact shift up one degree, truncated at degree m
        th, tl = _dd_add(th, tl, -np.r_[0.0, p1h[:-1]], -np.r_[0.0, p1l[:-1]])
        uh, ul = _dd_mul(bh, bl, p2h, p2l)
        p2h, p2l = p1h, p1l
        p1h, p1l = _dd_add(th, tl, -uh, -ul)
        if np.abs(p1h).max() > 1e150:
            p1h, p1l, p2h, p2l = (x * 2.0**-512 for x in (p1h, p1l, p2h, p2l))
    return p1h + p1l


def _resolve_real_clusters(h, values):
    """Re-solve near-multiple roots close to the real axis in extended precision.

    LAPACK fixes a k-fold root only to about eps**(1/k) of the matrix norm, so
    within a few ulps of an exceptional point a coalescing group can come out
    on the wrong side of the reality tolerance, e.g. with one member of the
    mirror pair E, 4 - E complex and the other real.  Values within
    ``EP_CLUSTER_GAP`` of the real axis are grouped by real part; a group of
    m >= 2 that lies at least 100 gaps from every other value is replaced by
    the m roots of the double-double Taylor polynomial of det(H - E) about its
    centre, rescaled by the root bound max_j |c_j / c_m|**(1 / (m - j)) before
    rooting.
    """
    gap = EP_CLUSTER_GAP * max(1.0, h.gershgorin_radius())
    values = values.copy()
    near = np.nonzero(np.abs(values.imag) <= gap)[0]
    near = near[np.argsort(values[near].real)]
    for idx in np.split(near, np.nonzero(np.diff(values[near].real) > gap)[0] + 1):
        m = idx.size
        if m < 2:
            continue
        c = float(values[idx].real.mean())
        others = np.delete(values, idx)
        if others.size and np.abs(others - c).min() < 100.0 * gap:
            continue
        co = _taylor_charpoly(h, c, m)
        r = max((abs(co[j]) / abs(co[m])) ** (1.0 / (m - j)) for j in range(m))
        values[idx] = c + r * np.roots((co * r ** np.arange(m + 1))[::-1]) if r > 0.0 else c
    return values


def eigen_general(h, reality_tol=None):
    """All n complex eigenvalues of H for arbitrary couplings.

    LAPACK's values, with groups that coalesce at an exceptional point
    re-solved in double-double arithmetic (`_resolve_real_clusters`).
    """
    roots = _lapack(np.linalg.eigvals, dense(h)).astype(complex)
    roots = _resolve_real_clusters(h, roots)
    tol = reality_tolerance(h, reality_tol)
    values = _enforce_conjugate_pairs(roots, tol)
    return _classify(values, tol)


def spectrum_of(h, reality_tol=None):
    """Route to the right branch: real where symmetrizable, general otherwise."""
    if reality_tol is not None:
        reality_tolerance(h, reality_tol)  # rejects a bad override on either branch
    try:
        s = symmetrize(h)
    except NumericalError:
        return eigen_general(h, reality_tol=reality_tol)
    return eigen_real(s)


def _count_complex_pairs(spec, tol):
    return int(np.count_nonzero(np.abs(spec.values.imag) > tol) // 2)


def scan_domain(n, lambda_grid, mu_grid, reality_tol=None):
    """Classify every (lambda, mu) cell of the product grid.

    Solver failures in single cells are recorded in ``diagnostics`` (with
    complex_pairs = -1 and min_gap = nan) and do not abort the scan.
    """
    lambda_grid = np.atleast_1d(np.asarray(lambda_grid, dtype=float))
    mu_grid = np.atleast_1d(np.asarray(mu_grid, dtype=float))
    if lambda_grid.size == 0 or mu_grid.size == 0:
        raise ValidationError("scan grids must be non-empty")
    pairs = [(lam, mu) for lam in lambda_grid for mu in mu_grid]
    return _scan_pairs(n, pairs, reality_tol)


def scan_line(n, grid, sign, reality_tol=None):
    """Classify along the line mu = sign*lambda for lambda in ``grid``."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValidationError("scan grid must be non-empty")
    pairs = [(lam, sign * lam) for lam in grid]
    return _scan_pairs(n, pairs, reality_tol)


def _scan_pairs(n, pairs, reality_tol):
    m = len(pairs)
    lam = np.empty(m)
    mu = np.empty(m)
    all_real = np.zeros(m, dtype=bool)
    complex_pairs = np.zeros(m, dtype=np.int64)
    min_gap = np.full(m, np.nan)
    diagnostics = []
    for i, (la, m_) in enumerate(pairs):
        lam[i] = la
        mu[i] = m_
        h = build(n, (la, m_))
        tol = reality_tolerance(h, reality_tol)
        try:
            spec = spectrum_of(h, reality_tol=tol)
        except NumericalError as exc:
            diagnostics.append((i, la, m_, str(exc)))
            complex_pairs[i] = -1
            continue
        all_real[i] = spec.all_real
        complex_pairs[i] = _count_complex_pairs(spec, tol)
        min_gap[i] = spec.min_gap
    return DomainScan(lam, mu, all_real, complex_pairs, min_gap, diagnostics)
