"""Eigenvalues, eigenvectors, and reality-domain scans.

Eigenvalues come from one solver core (`_solve`) that works on the couplings
of m cells of n sites each: `eigen_general` runs it on one cell, the scans on
blocks of at most ``BLOCK_ENTRIES`` matrix entries, and `spectrum_of` on one
cell off the real branch.  Two solver branches cover the whole coupling plane:

* real branch: cells whose bond products are all positive and finite
  symmetrize.  Every interior bond product of the model is 1, so the rule
  (`_real_branch`) reads the first and last products alone.  With the model's
  constant diagonal 2, splitting the sites by parity makes
  T - 2 = [[0, B], [B^T, 0]] with B a bidiagonal block of half the size, and
  the levels are 2 -/+ the singular values of B, plus 2 itself for odd n
  (`_chiral_levels`), from one stacked ``np.linalg.svd`` with no dense
  matrix.  B is the uncoupled chain's block with its two boundary entries
  set.  `spectrum_of` takes a real-branch cell's levels from `_chiral_levels`
  directly, with the same rule and the same bits as `_solve`, but without
  the stacked bookkeeping.  `_chiral_levels` is the only route to real
  levels; `eigen_real` is for eigenvectors, which it takes with their values
  from ``np.linalg.eigh``.
* general branch: elsewhere, the eigenvalues come from one stacked
  ``np.linalg.eigvals`` (Hessenberg QR) on the dense matrices, which `_solve`
  builds from the two off-diagonal `bands` of these cells only and the
  diagonal 2.  It returns the complex values of a real matrix as exact
  conjugate pairs.  Values that coalesce near the real axis (an exceptional
  point within a few ulps) are re-solved from the exact Taylor coefficients
  of det(H - E), taken in integer arithmetic, only on the cells whose
  smallest pairwise gap shows that this could change something and whose
  bonds and bond products stay below about 1.3e300 (`_RESOLVE_MAX`).

A LAPACK failure surfaces as `ConvergenceError`, so every solver failure stays
a `NumericalError`.  A failed stacked call is retried cell by cell, so only the
failing cells are lost.  A cell whose solve gives a non-finite value, or (on
the general branch) whose Gershgorin radius overflows, fails with a
`NumericalError` of its own.

Classification is shared: a spectrum counts as all-real when every |Im| lies at
or below ``reality_tol`` = 1e-9 * max(1, Gershgorin radius) (overridable), and
``min_gap`` is the smallest pairwise distance between the values.
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .hamiltonian import (  # noqa: F401 (build stays importable from this module)
    SymmetrizedForm,
    as_real,
    bands,
    build,
    dense_bands,
    dimension,
    end_bonds,
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
_RADIUS_OVERFLOW = "the Gershgorin radius overflows the float range"
_NON_FINITE_VALUE = "the eigenvalue solve gave a non-finite value"
# The rows of a one-cell solve, as `_chiral_levels` records its failures.
_ONE_ROW = np.zeros(1, dtype=np.int64)


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


@dataclass(frozen=True, eq=False)
class DomainScan:
    """Per-cell reality classification over a coupling grid.

    Parallel 1-D arrays, one entry per scanned cell in row-major (lambda, mu)
    order; there is no row layout here (the CLI builds its own rows).
    ``complex_pairs`` is -1 for a cell whose solve failed; the failure
    message is kept in ``diagnostics`` and the scan continues.
    """

    lam: np.ndarray
    mu: np.ndarray
    all_real: np.ndarray
    complex_pairs: np.ndarray
    min_gap: np.ndarray
    diagnostics: list = field(default_factory=list)


def reality_tolerance(h, override=None):
    """Scale-aware threshold on |Im| below which a value counts as real.

    An override must be a finite number >= 0.  Without one, an overflowing
    Gershgorin radius raises `NumericalError`, as `_solve` fails such a cell.
    """
    if override is not None:
        return _checked_override(override)
    radius = h.gershgorin_radius()
    if not np.isfinite(radius):
        raise NumericalError(_RADIUS_OVERFLOW)
    return REALITY_TOL_FACTOR * max(1.0, radius)


def _checked_override(override):
    tol = as_real(override, "reality tolerance")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"reality tolerance must be finite and >= 0, got {override!r}")
    return tol


def _adjacent_gaps(values):
    """Smallest gap of each row of ascending real values.

    Rounding is monotone, so no pair is closer than the closest neighbours.
    """
    return (values[..., 1:] - values[..., :-1]).min(axis=-1, initial=np.inf)


def _pairwise_gaps(values):
    """Smallest pairwise distance within each row of complex values."""
    m, n = values.shape
    dist = np.abs(values[:, :, None] - values[:, None, :]).reshape(m, n * n)
    dist[:, :: n + 1] = np.inf  # the diagonal of each n x n block
    return dist.min(axis=1)


def eigen_real(s):
    """Eigenvalues (ascending) and orthonormal eigenvectors of the symmetric form.

    ``np.linalg.eigh`` on the dense form gives both (its values can differ
    from `spectrum_of`'s at the rounding level).  Returns (Spectrum, W) with
    W[:, k] the unit eigenvector of the k-th ascending eigenvalue, its first
    significant component made positive.  A non-finite eigenvalue (a bond
    product that overflows to +inf, say) raises `NumericalError`.
    """
    if not isinstance(s, SymmetrizedForm):
        raise ValidationError("eigen_real expects a SymmetrizedForm")
    evals, w = _lapack(np.linalg.eigh, dense_bands(s.s_off, s.s_off))
    if not np.isfinite(evals).all():
        raise NumericalError(_NON_FINITE_VALUE)
    mag = np.abs(w)
    lead = w[np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0), np.arange(w.shape[1])]
    spec = Spectrum(evals.astype(complex), True, float(_adjacent_gaps(evals)))
    return spec, w * np.where(lead < 0.0, -1.0, 1.0)


def _lapack(solver, a):
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigenvalue solver failed: {exc}") from exc


def char_poly(h, e):
    """det(H - e*I) via the three-term recurrence (complex-capable).

    p_k = (2 - e) p_{k-1} - bonds_{k-1} p_{k-2}, with both running terms
    rescaled together by the exact power 2**-512 whenever they grow past
    1e150.  ``e`` must be a finite (real or complex) number.  A determinant
    past the float range raises `NumericalError` carrying its natural
    log-magnitude.  So does a recurrence that leaves the float range itself
    (a factor |2 - e| or a bond past about 1e158, or an infinite bond),
    whose message knows no log-magnitude.
    """
    try:
        z = complex(e)
    except (TypeError, ValueError, OverflowError):
        z = complex(math.nan)  # refused below, with the message of any other bad point
    if not cmath.isfinite(z):
        raise ValidationError(f"char_poly point must be a finite number, got {e!r}")
    bonds, a = h.bonds, np.float64(2.0) - z
    pm2, p = 1.0 + 0.0j, a
    nscale = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, h.n):
            pm2, p = p, a * p - bonds[k - 1] * pm2
            if abs(p.real) + abs(p.imag) > 1e150:
                pm2 *= 2.0**-512
                p *= 2.0**-512
                nscale += 1
    if not cmath.isfinite(p):
        raise NumericalError(
            f"the recurrence for det(H - e) left the float range at e={e!r}"
        )
    try:
        return complex(math.ldexp(p.real, 512 * nscale), math.ldexp(p.imag, 512 * nscale))
    except OverflowError:
        log_mag = math.log(abs(p)) + 512 * nscale * math.log(2.0)
        raise NumericalError(
            f"det(H - e) overflows the float range: log|det| = {log_mag:.17g}"
        ) from None


# Rows with a bond, or a bond product, past this magnitude (an infinite product
# included) keep LAPACK's values and build no expansion: an infinite bond has
# no exact one, and moving the bound would change the answers of the finite
# rows past it (the huge couplings of tools/solve_digest.py).
_RESOLVE_MAX = np.finfo(float).max / 134217729.0


def _dyadic(xs):
    """(numerators, D): the floats as exact integers over D, their least common power of two."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = max(d for _, d in ratios)
    return [a * (den // d) for a, d in ratios], den


def _taylor_charpoly(sup, sub, c, m):
    """Coefficients of det(H - (c + t)) in powers of t, degrees 0..m.

    The three-term recurrence runs on truncated polynomials in t over the
    Python integers: with every input an integer over one power of two D
    (the diagonal 2 as 2 D), the k-th running term is an integer polynomial
    over D**k, exact.  The result is divided by the power of two that brings
    its largest coefficient into [0.5, 1), which leaves the roots unchanged,
    and each coefficient is rounded once.
    """
    n = sup.shape[0] + 1
    ints, den = _dyadic([c, *sup.tolist(), *sub.tolist()])
    a, su, sb = 2 * den - ints[0], ints[1:n], ints[n:]
    p2 = [1] + [0] * m
    p1 = [a, -den] + [0] * (m - 1)
    for k in range(1, n):
        b = su[k - 1] * sb[k - 1]
        # minus t * p1: a shift up one degree, truncated at degree m
        p2, p1 = p1, [a * x - den * y - b * z for x, y, z in zip(p1, [0] + p1, p2)]
    scale = 1 << max(abs(x) for x in p1).bit_length()
    return np.array([x / scale for x in p1])


def _resolve_real_clusters(values, sup, sub, gap):
    """Re-solve near-multiple roots close to the real axis from exact coefficients.

    LAPACK fixes a k-fold root only to about eps**(1/k) of the matrix norm, so
    within a few ulps of an exceptional point a coalescing group can come out
    on the wrong side of the reality tolerance, e.g. with one member of the
    mirror pair E, 4 - E complex and the other real.  Values within
    ``gap`` of the real axis are grouped by real part; a group of
    m >= 2 that lies at least 100 gaps from every other value is replaced by
    the m roots of the Taylor polynomial of det(H - E) about its centre
    (`_taylor_charpoly`), rescaled by the root bound
    max_j |c_j / c_m|**(1 / (m - j)) before rooting.  A row with |sup|, |sub|
    or |sup * sub| past _RESOLVE_MAX, inf included, is returned unchanged,
    without expanding.
    """
    if max(np.abs(sup).max(), np.abs(sub).max(), np.abs(sup * sub).max()) > _RESOLVE_MAX:
        return values
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
        co = _taylor_charpoly(sup, sub, c, m)
        r = max((abs(co[j]) / abs(co[m])) ** (1.0 / (m - j)) for j in range(m))
        values[idx] = c + r * np.roots((co * r ** np.arange(m + 1))[::-1]) if r > 0.0 else c
    return values


def _may_cluster(gaps, gap):
    """Rows on which `_resolve_real_clusters` could act, and a few more.

    It acts on values within ``gap`` of the real axis and of each other in real
    part, so within sqrt(5) * gap: never on a row whose ``gaps`` exceed 3 * gap.
    """
    return gaps <= 3.0 * gap


def _stacked(solver, a, rows, failed, dtype):
    """``solver`` on a stack of matrices in one LAPACK batch, as ``dtype`` values.

    The batch raises LinAlgError when any one matrix fails; it is then solved
    again matrix by matrix, and each failure is recorded in ``failed`` under
    its row from ``rows``.  Returns one value per matrix row (eigenvalues or
    singular values), NaN where a matrix failed.
    """
    try:
        return solver(a).astype(dtype, copy=False)
    except np.linalg.LinAlgError:
        pass
    out = np.full(a.shape[:-1], np.nan, dtype=dtype)
    for k, row in enumerate(rows):
        try:
            out[k] = _lapack(solver, a[k])
        except ConvergenceError as exc:
            failed[int(row)] = exc
    return out


def _real_branch(first, last):
    """Whether cells with these first and last bond products take the real branch.

    Every interior bond product of the model is 1, so a cell symmetrizes
    exactly when both lie in (0, inf).  Takes Python floats or arrays.
    """
    return (first > 0.0) & (first < np.inf) & (last > 0.0) & (last < np.inf)


def _chiral_levels(n, first, last, rows, failed):
    """Ascending eigenvalues of m symmetric n x n tridiagonals with the model's diagonal 2.

    Each matrix's off-diagonal has the magnitude ``first`` at its first bond,
    ``last`` at its last and 1 in between, as in the model; ``first`` and
    ``last`` are scalars or hold one entry per row of ``rows`` (m rows).
    Split by site parity, T - 2 is [[0, B], [B^T, 0]] with the
    floor(n/2) x ceil(n/2) upper-bidiagonal block B[q, q] = s[2q],
    B[q, q + 1] = s[2q + 1] for the magnitudes s of the bonds, so the levels
    are 2 - sigma, then 2 itself for odd n, then 2 + sigma, for the singular
    values sigma of B (Golub & Kahan 1965).  LAPACK computes those to high
    relative accuracy (Demmel & Kahan 1990), in one stacked call through
    `_stacked`.  A failed or non-finite matrix is recorded in ``failed``
    under its row from ``rows``.
    """
    m = rows.size
    p, r = n // 2, (n + 1) // 2
    # The uncoupled chain's B: in row-major order its diagonals are every
    # (r + 1)-th entry, from 0 and 1.
    b = np.zeros((m, p * r))
    b[:, :: r + 1] = 1.0
    b[:, 1 :: r + 1] = 1.0
    b = b.reshape(m, p, r)
    # Bond k sits at B[k // 2, (k + 1) // 2]; for n = 2 both ends are bond 0.
    b[:, 0, 0] = first
    b[:, (n - 2) // 2, (n - 1) // 2] = last
    svd = partial(np.linalg.svd, compute_uv=False)
    sigma = _stacked(svd, b, rows, failed, float)
    # LAPACK returns sigma descending, so 2 - sigma ascends.
    levels = np.empty((m, n))
    levels[:, :p] = 2.0 - sigma
    levels[:, p:r] = 2.0
    levels[:, r:] = 2.0 + sigma[:, ::-1]
    if not np.isfinite(levels).all():
        _refuse_non_finite(failed, rows, levels)
    return levels


def _refuse_non_finite(failed, rows, x, message=_NON_FINITE_VALUE):
    """Fail each row whose entry or row of ``x`` is not finite; a failed row keeps its error."""
    for row in rows[~np.isfinite(x).reshape(rows.size, -1).all(axis=1)]:
        failed.setdefault(int(row), NumericalError(message))


# Couplings near the float range overflow in intermediate products (the bond
# products, the Gershgorin radii); a cell with a non-finite value or radius
# fails, and numpy's RuntimeWarnings about them, which carry the path of the
# installed source, are not raised.
@np.errstate(over="ignore", invalid="ignore")
def _solve(n, lam, mu, reality_tol=None, general=False):
    """Eigenvalues and reality classification of the m cells H(lam[i], mu[i]).

    Takes a size n from `dimension` and two float arrays of m finite
    couplings.  Cells whose first and last bond products (`end_bonds`) are
    positive and finite (`_real_branch`) take the real branch, unless
    ``general`` is set.  Returns (values, all_real, complex_pairs, min_gap,
    failed): the values (m, n) sorted by real part, then imaginary part; per
    cell the classification and the smallest pairwise gap; and a dict row ->
    NumericalError of the failed cells, whose values and gap are NaN, with
    all_real false and complex_pairs -1.
    """
    m = lam.shape[0]
    override = None if reality_tol is None else _checked_override(reality_tol)
    failed = {}
    first, last = end_bonds(n, lam, mu)
    real = np.zeros(m, dtype=bool) if general else _real_branch(first, last)
    values, min_gap = np.empty((m, n), dtype=complex), np.empty(m)
    all_real, complex_pairs = real.copy(), np.zeros(m, dtype=np.int64)

    rows = real.nonzero()[0]
    if rows.size:
        sel = slice(None) if rows.size == m else rows
        v = _chiral_levels(n, np.sqrt(first[sel]), np.sqrt(last[sel]), rows, failed)
        values[sel] = v
        min_gap[sel] = _adjacent_gaps(v)

    rows = (~real).nonzero()[0]
    if rows.size:
        sel = slice(None) if rows.size == m else rows
        su, sb = bands(n, lam[sel], mu[sel])
        scale = np.maximum(1.0, gershgorin_radii(su, sb))
        gap = EP_CLUSTER_GAP * scale
        v = _stacked(np.linalg.eigvals, dense_bands(su, sb), rows, failed, complex)
        if not (np.isfinite(scale).all() and np.isfinite(v).all()):
            _refuse_non_finite(failed, rows, scale, _RADIUS_OVERFLOW)
            _refuse_non_finite(failed, rows, v)
        # The gaps, the cluster test and the classification ignore the order
        # of a row's values, so they come before the sort.
        gaps = _pairwise_gaps(v)
        for k in _may_cluster(gaps, gap).nonzero()[0]:
            if rows[k] not in failed:
                v[k] = _resolve_real_clusters(v[k], su[k], sb[k], gap[k])
                gaps[k] = _pairwise_gaps(v[k, None])[0]
        imag = np.abs(v.imag)
        tol = REALITY_TOL_FACTOR * scale[:, None] if override is None else override
        all_real[sel] = (imag <= tol).all(axis=1)
        complex_pairs[sel] = (imag > tol).sum(axis=1) // 2
        # A stable sort of complex values orders them by real part, then
        # imaginary part, and keeps equal ones (0.0 and -0.0) in place.
        v.sort(axis=1, kind="stable")
        values[sel] = v
        min_gap[sel] = gaps

    for row in failed:
        values[row] = min_gap[row] = np.nan
        all_real[row] = False
        complex_pairs[row] = -1
    return values, all_real, complex_pairs, min_gap, failed


def eigen_general(h, reality_tol=None):
    """All n complex eigenvalues of H for arbitrary couplings.

    LAPACK's values, with groups that coalesce at an exceptional point
    re-solved from exact coefficients (`_resolve_real_clusters`), whether
    or not H symmetrizes.  One cell through `_solve`; a failure is raised.
    """
    lam, mu = np.array([h.lam]), np.array([h.mu])
    values, all_real, _, min_gap, failed = _solve(h.n, lam, mu, reality_tol, general=True)
    if failed:
        raise failed[0]
    return Spectrum(values[0], bool(all_real[0]), float(min_gap[0]))


def spectrum_of(h, reality_tol=None):
    """Route to the right branch: real where symmetrizable, general otherwise.

    A real-branch cell is solved here from its two boundary bond products,
    with `_solve`'s rule and `_chiral_levels`, so with `_solve`'s bits; any
    other cell goes to `eigen_general`, the branch `_solve` would give it
    from the same two products.
    """
    first, last = end_bonds(h.n, h.lam, h.mu)
    if not _real_branch(first, last):
        return eigen_general(h, reality_tol)
    if reality_tol is not None:
        _checked_override(reality_tol)
    failed = {}
    levels = _chiral_levels(h.n, math.sqrt(first), math.sqrt(last), _ONE_ROW, failed)
    if failed:
        raise failed[0]
    return Spectrum(levels[0].astype(complex), True, float(_adjacent_gaps(levels)[0]))


def _grid(values, what):
    """A scan axis as a new non-empty 1-D array of finite floats."""
    axis = as_real(values, what, array=True)
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
    lam = lambda_grid.repeat(mu_grid.size)
    mu = mu_grid[None].repeat(lambda_grid.size, axis=0).ravel()
    return _scan(n, lam, mu, reality_tol)


def scan_line(n, grid, sign, reality_tol=None):
    """Classify along the line mu = sign*lambda for lambda in ``grid``; sign is a real +1 or -1."""
    if np.asarray(sign).dtype.kind in "bc" or not (np.ndim(sign) == 0 and sign in (1, -1)):
        raise ValidationError(f"scan line sign must be a real +1 or -1, got {sign!r}")
    grid = _grid(grid, "scan grid")
    return _scan(n, grid, sign * grid, reality_tol)


def _scan(n, lam, mu, reality_tol):
    n = dimension(n)
    m = lam.shape[0]
    all_real, complex_pairs, min_gap = np.empty(m, bool), np.empty(m, np.int64), np.empty(m)
    diagnostics = []
    step = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, m, step):
        block = slice(start, start + step)
        _, all_real[block], complex_pairs[block], min_gap[block], failed = _solve(
            n, lam[block], mu[block], reality_tol
        )
        for row, exc in sorted(failed.items()):
            i = start + row
            diagnostics.append((i, lam[i], mu[i], str(exc)))
    return DomainScan(lam, mu, all_real, complex_pairs, min_gap, diagnostics)
