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

`DiscreteHamiltonian` holds this matrix and no other: its data is n, lambda
and mu, and its two off-diagonal bands are derived from them on first access;
the constant diagonal 2 is written where a matrix or a row sum is formed.
Every interior bond product is (-1)(-1) = 1, so the first and last bond
products (`end_bonds`, no bands needed) decide which solver branch takes it
and bound its levels (`level_bound`, the scale of every tolerance).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False, init=False)
class DiscreteHamiltonian:
    """H(lambda, mu) of size n, with two derived, read-only bands (never dense).

    ``DiscreteHamiltonian(n, (lam, mu))`` checks the couplings, then the size,
    and keeps them as a Python int and two floats.  The bands ``super`` and
    ``sub`` are derived by `bands` on the first access and kept.
    """

    n: int
    lam: float
    mu: float

    def __init__(self, n, couplings):
        lam, mu = _couplings(couplings)
        # Frozen fields are written past the dataclass's __setattr__.
        vars(self).update(n=dimension(n), lam=lam, mu=mu)

    @cached_property
    def _bands(self):
        return tuple(map(_freeze, bands(self.n, self.lam, self.mu)))

    @property
    def super(self):
        return self._bands[0]

    @property
    def sub(self):
        return self._bands[1]

    @property
    @np.errstate(over="ignore")
    def bonds(self):
        """Bond products super[i]*sub[i]; the spectrum depends only on these.

        A product past the float range is +-inf, without a numpy warning.
        """
        return self.super * self.sub


def _couplings(pair):
    """A (lambda, mu) pair of finite real couplings as two floats, else a ValidationError."""
    try:
        lam, mu = pair
    except (TypeError, ValueError):
        raise ValidationError(f"couplings must be a (lambda, mu) pair, got {pair!r}") from None
    x, y = lam, mu
    if type(x) is not float or type(y) is not float:
        x, y = as_real(lam, "couplings"), as_real(mu, "couplings")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError(f"couplings must be finite, got ({lam}, {mu})")
    return x, y


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
    """Off-diagonal bands (super, sub) of H(lam, mu), one cell per coupling pair.

    ``n`` is a size from `dimension` and ``lam`` and ``mu`` are finite
    couplings (the caller checks both), scalars or arrays of one shape; the
    bands get that shape plus a trailing axis of length n - 1.
    """
    shape = getattr(lam, "shape", ())
    # The couplings taken from the super- and added to the subdiagonal.
    twist = np.zeros(shape + (n - 1,))
    twist[..., 0] = lam
    twist[..., -1] = mu
    sup = -1.0 - twist
    if n == 2:
        sup[..., 0] = -1.0 - lam  # the single bond: super -1 - lam, sub -1 + mu
    return sup, twist - 1.0


# Only n = 3 overflows (both couplings near the float range); numpy's warning
# would carry the path of the installed source, so it is not raised.
@np.errstate(over="ignore")
def level_bound(n, lam, mu):
    """R >= |E| for every level E of H(lam, mu), the same bits on every orbit image.

    R = 2 + max_i (sqrt|b_{i-1}| + sqrt|b_i|), b_{-1} = b_{n-1} = 0, is the
    Gershgorin radius of the complex-symmetric form with off-diagonal
    sqrt(b_i) for the bond products b_i, which has H's spectrum.  The
    interior products are 1, so R is closed in the end bonds' roots
    s_x = sqrt|1 - x| sqrt|1 + x|.  Scalars or arrays of one shape.
    """
    if n == 2:
        return 2.0 + np.sqrt(np.abs(1.0 + lam)) * np.sqrt(np.abs(1.0 - mu))
    s_lam, s_mu = (np.sqrt(np.abs(1.0 - x)) * np.sqrt(np.abs(1.0 + x)) for x in (lam, mu))
    if n == 3:
        return 2.0 + (s_lam + s_mu)  # a sum of two, so the same bits when swapped
    # The interior rows give 3 + 1 from n = 5; the maximum with 0 is a no-op.
    return 3.0 + np.maximum(np.maximum(s_lam, s_mu), float(n > 4))


def build(n, couplings):
    """Construct H(lambda, mu) of dimension n >= 2: ``DiscreteHamiltonian(n, couplings)``."""
    return DiscreteHamiltonian(n, couplings)


def dense(h):
    """Materialize H as a dense array (for the intertwining-equation solver)."""
    return dense_bands(h.super, h.sub)


def dense_bands(sup, sub):
    """Dense tridiagonal matrices, diagonal 2, from bands stacked along the leading axes."""
    n = sup.shape[-1] + 1
    m = np.zeros(sup.shape[:-1] + (n * n,))
    # In row-major order the diagonals are every (n + 1)-th entry, from 0, 1 and n.
    m[..., :: n + 1] = 2.0
    m[..., 1 :: n + 1] = sup
    m[..., n :: n + 1] = sub
    return m.reshape(sup.shape[:-1] + (n, n))
