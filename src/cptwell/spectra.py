"""Eigenvalues, eigenvectors, and reality-domain scans.

Eigenvalues come from one solver core (`_solve`) that works on stacked bands,
m cells of n sites each: `spectrum_of` and `eigen_general` run it on one cell,
the scans on blocks of at most ``BLOCK_ENTRIES`` matrix entries.  Two solver
branches cover the whole coupling plane:

* real branch: cells whose bond products are all positive and finite
  symmetrize, and their eigenvalues come from one stacked
  ``np.linalg.eigvalsh`` on the symmetric tridiagonals; everything is real by
  construction.  `eigen_real` solves one symmetric form and, on request, gives
  eigenvectors too (``np.linalg.eigh``).
* general branch: elsewhere, the eigenvalues come from one stacked
  ``np.linalg.eigvals`` (Hessenberg QR) on the dense matrices, which returns
  the complex values of a real matrix as exact conjugate pairs.  Values that
  coalesce near the real axis (an exceptional point within a few ulps) are
  re-solved from a double-double Taylor expansion of det(H - E), only on the
  cells where a vectorized test shows that this could change something.

A LAPACK failure surfaces as `ConvergenceError`, so every solver failure stays
a `NumericalError`.  A failed stacked call is retried cell by cell, so only the
failing cells are lost.  A cell whose solve gives a non-finite value, or (on
the general branch) whose Gershgorin radius overflows, fails with a
`NumericalError` of its own.

Classification is shared: a spectrum counts as all-real when every |Im| lies at
or below ``reality_tol`` = 1e-9 * max(1, Gershgorin radius) (overridable), and
``min_gap`` is the smallest pairwise distance between the sorted values.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConvergenceError, NumericalError, ValidationError
from .hamiltonian import (  # noqa: F401 (build stays importable from this module)
    SymmetrizedForm,
    bands,
    build,
    dense_bands,
    dimension,
    gershgorin_radii,
)

REALITY_TOL_FACTOR = 1e-9
DEGENERACY_THRESHOLD = 1e-10
# Width, relative to max(1, Gershgorin radius), of the groups of near-real
# eigenvalues that eigen_general re-solves in extended precision.
EP_CLUSTER_GAP = 1e-5
# Matrix entries (cells x n x n) that one stacked solve may hold; scans run
# their cells in blocks of this size, so memory does not grow with the grid.
BLOCK_ENTRIES = 1 << 16


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
    return _checked_override(override)


def _checked_override(override):
    tol = float(override)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"reality tolerance must be finite and >= 0, got {override!r}")
    return tol


def _adjacent_gaps(values):
    """Smallest gap of each row of ascending real values.

    Rounding is monotone, so no pair is closer than the closest neighbours.
    """
    return (values[..., 1:] - values[..., :-1]).min(axis=-1, initial=np.inf)


def _pairwise_gaps(values):
    """Smallest pairwise distance within each row of complex values."""
    n = values.shape[-1]
    dist = np.abs(values[..., :, None] - values[..., None, :])
    dist[..., np.arange(n), np.arange(n)] = np.inf
    return dist.min(axis=(-2, -1))


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
    t = dense_bands(s.s_diag, s.s_off, s.s_off)
    if not want_vectors:
        evals = _lapack(np.linalg.eigvalsh, t)
        return Spectrum(evals.astype(complex), True, float(_adjacent_gaps(evals)))
    evals, w = _lapack(np.linalg.eigh, t)
    spec = Spectrum(evals.astype(complex), True, float(_adjacent_gaps(evals)))
    mag = np.abs(w)
    lead = w[np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0), np.arange(w.shape[1])]
    return spec, w * np.where(lead < 0.0, -1.0, 1.0)


def _lapack(solver, a):
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigenvalue solver failed: {exc}") from exc


def char_poly(h, e):
    """det(H - e*I) via the three-term recurrence (complex-capable).

    For one site the determinant is just diag[0] - e; the recurrence handles
    that edge because the bond loop is empty.  A determinant past the float
    range raises `NumericalError` carrying its natural log-magnitude.
    """
    p, nscale = kernels.charpoly_terms(h.diag, h.bonds, complex(e))
    try:
        return complex(math.ldexp(p.real, 512 * nscale), math.ldexp(p.imag, 512 * nscale))
    except OverflowError:
        log_mag = math.log(abs(p)) + 512 * nscale * math.log(2.0)
        raise NumericalError(
            f"det(H - e) overflows the float range: log|det| = {log_mag:.17g}"
        ) from None


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


def _taylor_charpoly(diag, sup, sub, c, m):
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
    ah, al = _two_sum(diag[0], -c)
    p1h, p1l = zero.copy(), zero.copy()
    p1h[0], p1l[0], p1h[1] = ah, al, -1.0
    for k in range(1, diag.shape[0]):
        ah, al = _two_sum(diag[k], -c)
        bh, bl = _two_prod(sup[k - 1], sub[k - 1])
        th, tl = _dd_mul(ah, al, p1h, p1l)
        # minus t * p1: an exact shift up one degree, truncated at degree m
        th, tl = _dd_add(th, tl, -np.r_[0.0, p1h[:-1]], -np.r_[0.0, p1l[:-1]])
        uh, ul = _dd_mul(bh, bl, p2h, p2l)
        p2h, p2l = p1h, p1l
        p1h, p1l = _dd_add(th, tl, -uh, -ul)
        if np.abs(p1h).max() > 1e150:
            p1h, p1l, p2h, p2l = (x * 2.0**-512 for x in (p1h, p1l, p2h, p2l))
    return p1h + p1l


def _resolve_real_clusters(values, diag, sup, sub, gap):
    """Re-solve near-multiple roots close to the real axis in extended precision.

    LAPACK fixes a k-fold root only to about eps**(1/k) of the matrix norm, so
    within a few ulps of an exceptional point a coalescing group can come out
    on the wrong side of the reality tolerance, e.g. with one member of the
    mirror pair E, 4 - E complex and the other real.  Values within
    ``gap`` of the real axis are grouped by real part; a group of
    m >= 2 that lies at least 100 gaps from every other value is replaced by
    the m roots of the double-double Taylor polynomial of det(H - E) about its
    centre, rescaled by the root bound max_j |c_j / c_m|**(1 / (m - j)) before
    rooting, unless that polynomial overflows the float range.
    """
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
        co = _taylor_charpoly(diag, sup, sub, c, m)
        if not np.isfinite(co).all():
            continue  # the expansion overflows; LAPACK's values stand
        r = max((abs(co[j]) / abs(co[m])) ** (1.0 / (m - j)) for j in range(m))
        values[idx] = c + r * np.roots((co * r ** np.arange(m + 1))[::-1]) if r > 0.0 else c
    return values


def _may_cluster(values, gap):
    """Rows on which `_resolve_real_clusters` could act.

    Those with two values within ``gap`` of the real axis and within ``gap`` of
    each other in real part.
    """
    near = np.abs(values.imag) <= gap[:, None]
    re = np.sort(np.where(near, values.real, np.nan), axis=1)  # NaNs sort last
    return (np.diff(re, axis=1) <= gap[:, None]).any(axis=1)


def _stacked(solver, a, rows, failed):
    """``solver`` on a stack of matrices in one LAPACK batch, as complex values.

    The batch raises LinAlgError when any one matrix fails; it is then solved
    again matrix by matrix, and each failure is recorded in ``failed`` under
    its row from ``rows``.  Returns the values, NaN where a matrix failed.
    """
    try:
        return solver(a).astype(complex)
    except np.linalg.LinAlgError:
        pass
    out = np.full(a.shape[:-1], np.nan, dtype=complex)
    for k, row in enumerate(rows):
        try:
            out[k] = _lapack(solver, a[k])
        except ConvergenceError as exc:
            failed[int(row)] = exc
    return out


def _refuse_non_finite(failed, rows, x, message="the eigenvalue solve gave a non-finite value"):
    """Fail the rows of ``rows`` where ``x`` is not finite with a `NumericalError`.

    ``x`` has one entry or one row of entries per row; a row that failed
    already keeps its error.
    """
    finite = np.isfinite(x)
    if finite.all():
        return
    for row in rows[~finite.reshape(rows.size, -1).all(axis=1)]:
        failed.setdefault(int(row), NumericalError(message))


# Couplings near the float range overflow in intermediate products (the bond
# products, the Gershgorin radii, the double-double Taylor terms); a cell with a
# non-finite value or radius fails, and numpy's RuntimeWarnings about them,
# which carry the path of the installed source, are not raised.
@np.errstate(over="ignore", invalid="ignore")
def _solve(diag, sup, sub, reality_tol=None, general=False):
    """Eigenvalues and reality classification of m stacked tridiagonals.

    Takes the bands (diag, super, sub) with shapes (m, n), (m, n - 1) and
    (m, n - 1).  Cells whose bond products are all positive and finite take
    the real branch unless ``general`` is set; the rest take the general
    branch.  Returns (values, all_real, complex_pairs, min_gap, failed): the
    values (m, n) sorted by real part, then imaginary part; per cell the
    classification and the smallest pairwise gap; and a dict row ->
    NumericalError of the failed cells, whose values and gap are NaN, with
    all_real false and complex_pairs -1.
    """
    m, n = diag.shape
    override = None if reality_tol is None else _checked_override(reality_tol)
    values = np.empty((m, n), dtype=complex)
    all_real = np.ones(m, dtype=bool)
    complex_pairs = np.zeros(m, dtype=np.int64)
    min_gap = np.empty(m)
    failed = {}
    bonds = sup * sub
    real = np.zeros(m, dtype=bool) if general else ((bonds > 0.0) & (bonds < np.inf)).all(axis=1)

    rows = np.flatnonzero(real)
    if rows.size:
        off = -np.sqrt(bonds[rows])
        v = _stacked(np.linalg.eigvalsh, dense_bands(diag[rows], off, off), rows, failed)
        _refuse_non_finite(failed, rows, v)
        values[rows] = v
        min_gap[rows] = _adjacent_gaps(v.real)

    rows = np.flatnonzero(~real)
    if rows.size:
        d, su, sb = diag[rows], sup[rows], sub[rows]
        scale = np.maximum(1.0, gershgorin_radii(d, su, sb))
        tol = REALITY_TOL_FACTOR * scale if override is None else np.full(rows.size, override)
        gap = EP_CLUSTER_GAP * scale
        v = _stacked(np.linalg.eigvals, dense_bands(d, su, sb), rows, failed)
        _refuse_non_finite(failed, rows, scale, "the Gershgorin radius overflows the float range")
        _refuse_non_finite(failed, rows, v)
        for k in np.flatnonzero(_may_cluster(v, gap)):
            if rows[k] not in failed:
                v[k] = _resolve_real_clusters(v[k], d[k], su[k], sb[k], gap[k])
        v = np.take_along_axis(v, np.lexsort((v.imag, v.real), axis=-1), axis=-1)
        imag = np.abs(v.imag)
        all_real[rows] = imag.max(axis=1, initial=0.0) <= tol
        complex_pairs[rows] = (imag > tol[:, None]).sum(axis=1) // 2
        values[rows] = v
        min_gap[rows] = _pairwise_gaps(v)

    for row in failed:
        values[row] = min_gap[row] = np.nan
        all_real[row] = False
        complex_pairs[row] = -1
    return values, all_real, complex_pairs, min_gap, failed


def _spectrum(h, reality_tol, general):
    """One cell through `_solve`; a failure is raised."""
    values, all_real, _, min_gap, failed = _solve(
        h.diag[None], h.super[None], h.sub[None], reality_tol, general
    )
    if failed:
        raise failed[0]
    return Spectrum(values[0], bool(all_real[0]), float(min_gap[0]))


def eigen_general(h, reality_tol=None):
    """All n complex eigenvalues of H for arbitrary couplings.

    LAPACK's values, with groups that coalesce at an exceptional point
    re-solved in double-double arithmetic (`_resolve_real_clusters`), whether
    or not H symmetrizes.
    """
    return _spectrum(h, reality_tol, general=True)


def spectrum_of(h, reality_tol=None):
    """Route to the right branch: real where symmetrizable, general otherwise."""
    return _spectrum(h, reality_tol, general=False)


def _grid(values, what):
    """A scan axis as a new non-empty 1-D array of finite floats."""
    try:
        axis = np.array(values, dtype=float, ndmin=1)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be real numbers: {exc}") from None
    if axis.ndim != 1:
        raise ValidationError(f"{what} must be one-dimensional, got shape {axis.shape}")
    if axis.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not np.isfinite(axis).all():
        raise ValidationError(f"{what} must be finite, got {axis[~np.isfinite(axis)][0]}")
    return axis


def scan_domain(n, lambda_grid, mu_grid, reality_tol=None):
    """Classify every (lambda, mu) cell of the product grid.

    Solver failures in single cells are recorded in ``diagnostics`` (with
    complex_pairs = -1 and min_gap = nan) and do not abort the scan.
    """
    lambda_grid = _grid(lambda_grid, "scan grid lambda")
    mu_grid = _grid(mu_grid, "scan grid mu")
    lam = np.repeat(lambda_grid, mu_grid.size)
    mu = np.tile(mu_grid, lambda_grid.size)
    return _scan(n, lam, mu, reality_tol)


def scan_line(n, grid, sign, reality_tol=None):
    """Classify along the line mu = sign*lambda for lambda in ``grid``; sign is +1 or -1."""
    if not (np.ndim(sign) == 0 and sign in (1, -1)):
        raise ValidationError(f"scan line sign must be +1 or -1, got {sign!r}")
    grid = _grid(grid, "scan grid")
    return _scan(n, grid, sign * grid, reality_tol)


def _scan(n, lam, mu, reality_tol):
    n = dimension(n)
    m = lam.shape[0]
    all_real = np.empty(m, dtype=bool)
    complex_pairs = np.empty(m, dtype=np.int64)
    min_gap = np.empty(m)
    diagnostics = []
    step = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, m, step):
        block = slice(start, start + step)
        _, all_real[block], complex_pairs[block], min_gap[block], failed = _solve(
            *bands(n, lam[block], mu[block]), reality_tol
        )
        for row, exc in sorted(failed.items()):
            i = start + row
            diagnostics.append((i, lam[i], mu[i], str(exc)))
    return DomainScan(lam, mu, all_real, complex_pairs, min_gap, diagnostics)
