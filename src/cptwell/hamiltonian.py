"""Tridiagonal square-well Hamiltonians with boundary couplings.

The family is the n x n real tridiagonal matrix

    H(lambda, mu) = [ 2      -1-lambda                              ]
                    [ -1+lambda   2    -1                           ]
                    [        -1   2    ...                          ]
                    [             ...   2      -1-mu                ]
                    [                  -1+mu    2                   ]

i.e. the discrete Dirichlet Laplacian (diagonal 2, off-diagonals -1) with the
two boundary bonds made asymmetric: the first bond carries super = -1-lambda /
sub = -1+lambda and the last bond super = -1-mu / sub = -1+mu.  For n = 2 the
single bond carries super = -1-lambda and sub = -1+mu, which reduces to the
n >= 3 pattern whenever mu = lambda and keeps the two-parameter family total.

H is not symmetric, but whenever every bond product super[i]*sub[i] is positive
(equivalent to |lambda| < 1 and |mu| < 1) it is diagonally similar to the
symmetric tridiagonal S = D^-1 H D with positive weights D = diag(d), which is
what makes the spectrum real there.

`DiscreteHamiltonian` holds this matrix and no other: it is made from n and the
couplings (a `CouplingPair` or a (lambda, mu) pair), which are checked when it
is made, and its bands are derived from them on first access.  Every interior
bond product is (-1)(-1) = 1, so the first and last bond products
(`end_bonds`, no bands needed) decide which solver branch takes the matrix.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotSymmetrizable, ValidationError


@dataclass(frozen=True, eq=False)
class CouplingPair:
    """Boundary couplings (lam, mu); dimensionless, any finite real values."""

    lam: float
    mu: float

    def __post_init__(self):
        lam, mu = self.lam, self.mu
        if type(lam) is not float or type(mu) is not float:
            lam, mu = as_real(lam, "couplings"), as_real(mu, "couplings")
        if not (math.isfinite(lam) and math.isfinite(mu)):
            raise ValidationError(f"couplings must be finite, got ({self.lam}, {self.mu})")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True, eq=False)
class DiscreteHamiltonian:
    """The matrix H(lambda, mu) with three derived, read-only bands (never dense).

    The size and couplings are checked when it is made; the bands ``diag``,
    ``super`` and ``sub`` are derived by `bands` on the first access to any
    of them and kept, so a second access returns the same arrays.
    """

    n: int
    couplings: CouplingPair

    def __post_init__(self):
        couplings = self.couplings
        if not isinstance(couplings, CouplingPair):
            try:
                lam, mu = couplings
            except (TypeError, ValueError):
                raise ValidationError(
                    f"couplings must be a (lambda, mu) pair, got {couplings!r}"
                ) from None
            couplings = CouplingPair(lam, mu)
        # Frozen fields are written past the dataclass's __setattr__.
        vars(self).update(n=dimension(self.n), couplings=couplings)

    @cached_property
    def _bands(self):
        return tuple(map(_freeze, bands(self.n, self.couplings.lam, self.couplings.mu)))

    @property
    def diag(self):
        return self._bands[0]

    @property
    def super(self):
        return self._bands[1]

    @property
    def sub(self):
        return self._bands[2]

    @property
    @np.errstate(over="ignore")
    def bonds(self):
        """Bond products super[i]*sub[i]; the spectrum depends only on these.

        A product past the float range is +-inf, without a numpy warning.
        """
        return self.super * self.sub

    def gershgorin_radius(self):
        """Upper bound on the spectral radius from row sums."""
        return float(gershgorin_radii(self.diag, self.super, self.sub))


@dataclass(frozen=True, eq=False)
class SymmetrizedForm:
    """Symmetric tridiagonal S = D^-1 H D plus the weights d (d[0] = 1)."""

    s_diag: np.ndarray
    s_off: np.ndarray
    d: np.ndarray

    @property
    def n(self):
        return self.s_diag.shape[0]


def _freeze(a):
    a.flags.writeable = False
    return a


def as_real(x, what, array=False):
    """``x`` as a Python float, or with ``array`` as a new float array (ndim >= 1).

    The one check that input is real.  Complex values are refused, not cast
    (which would drop the imaginary part with a ComplexWarning), and so is
    anything float() refuses: each is a ValidationError.  Finiteness is left
    to the caller.
    """
    try:
        if not np.iscomplexobj(x):
            return np.array(x, dtype=float, ndmin=1) if array else float(x)
        reason = "complex values are not accepted"
    except (TypeError, ValueError, OverflowError) as exc:
        reason = str(exc)
    got = "" if array else f", got {x!r}"
    raise ValidationError(f"{what} must be real{got}: {reason}")


def as_int(x, what):
    """``x`` as a Python int; a value that int() would change is a ValidationError."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} must be an integer, got {x!r}")


def dimension(n):
    """The size n as a Python int; it must be an integer >= 2."""
    size = as_int(n, "dimension")
    if size < 2:
        raise ValidationError(f"dimension must be >= 2, got {size}")
    return size


def end_bonds(n, lam, mu):
    """First and last bond products of H(lam, mu), as `bands` would give them.

    The same float operations as ``super * sub`` on `bands`' first and last
    bonds, so the same bits; for n = 2 the single bond gives both.  An
    overflowing product is +-inf.  Scalars give Python floats.
    """
    if n == 2:
        bond = (-1.0 - lam) * (mu - 1.0)
        return bond, bond
    return (-1.0 - lam) * (lam - 1.0), (-1.0 - mu) * (mu - 1.0)


def bands(n, lam, mu):
    """Bands (diag, super, sub) of H(lam, mu), one cell per coupling pair.

    ``n`` is a size from `dimension` and ``lam`` and ``mu`` are finite
    couplings (the caller checks both), scalars or arrays of one shape; the
    bands get that shape plus a trailing axis of length n, n - 1 and n - 1.
    """
    shape = getattr(lam, "shape", ())
    # The couplings taken from the super- and added to the subdiagonal.
    twist = np.zeros(shape + (n - 1,))
    twist[..., 0] = lam
    twist[..., -1] = mu
    sup = -1.0 - twist
    if n == 2:
        sup[..., 0] = -1.0 - lam  # the single bond: super -1 - lam, sub -1 + mu
    return np.zeros(shape + (n,)) + 2.0, sup, twist - 1.0


# Couplings near the float range overflow the row sums to inf; numpy's warning
# about it would carry the path of the installed source, so it is not raised.
@np.errstate(over="ignore")
def gershgorin_radii(diag, sup, sub):
    """Row-sum bound on the spectral radius of every stacked band triple.

    A row sum past the float range gives an infinite radius.
    """
    r = np.abs(diag)
    r[..., :-1] += np.abs(sup)
    r[..., 1:] += np.abs(sub)
    return r.max(axis=-1)


def build(n, couplings):
    """Construct H(lambda, mu) of dimension n >= 2: ``DiscreteHamiltonian(n, couplings)``."""
    return DiscreteHamiltonian(n, couplings)


def symmetrize(h):
    """Diagonal similarity S = D^-1 H D making H symmetric.

    Requires every bond product super[i]*sub[i] > 0.  The weights follow
    d[i+1] = d[i]*sqrt(sub[i]/super[i]) with d[0] = 1, which gives the
    symmetric off-diagonal s_off[i] = -sqrt(super[i]*sub[i]).  Right
    eigenvectors of H are D w and left eigenvectors (of H^T) are D^-1 w for w
    an eigenvector of S.
    """
    products = h.bonds
    bad = np.nonzero(products <= 0.0)[0]
    if bad.size:
        raise NotSymmetrizable(bad[0], products[bad[0]])
    d = np.empty(h.n)
    d[0] = 1.0
    ratios = np.sqrt(h.sub / h.super)
    np.cumprod(ratios, out=d[1:])
    s_off = -np.sqrt(products)
    return SymmetrizedForm(_freeze(h.diag.copy()), _freeze(s_off), _freeze(d))


def dense(h):
    """Materialize H as a dense array (for the intertwining-equation solver)."""
    return dense_bands(h.diag, h.super, h.sub)


def dense_bands(diag, sup, sub):
    """Dense tridiagonal matrices from bands stacked along the leading axes."""
    n = diag.shape[-1]
    m = np.zeros(diag.shape[:-1] + (n * n,))
    # In row-major order the diagonals are every (n + 1)-th entry, from 0, 1 and n.
    m[..., :: n + 1] = diag
    m[..., 1 :: n + 1] = sup
    m[..., n :: n + 1] = sub
    return m.reshape(diag.shape + (n,))
