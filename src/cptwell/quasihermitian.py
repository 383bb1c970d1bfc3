"""Biorthogonal spectral machinery: metric Theta, charge C, hermitizing Omega.

A non-symmetric H with real simple spectrum carries a biorthogonal pair of
eigenbases: right vectors H r_k = E_k r_k and left vectors H^T l_k = E_k l_k
with l_j^T r_k = mu_k delta_jk.  Both families come from one symmetric
eigenproblem through the diagonal similarity S = D^-1 H D: r_k = D w_k and
l_k = D^-1 w_k, so left and right vectors agree up to the componentwise weight
D^-2, Theta_D up to scale.  The w_k come from the SVD of S's half-size chiral
block, as the real-branch levels do (`spectra`).  The left vectors give the spectral
dyads l_k l_k^T, the eigenvector route to the pseudometrics that the
dieudonne module computes without eigenvectors.

On top of that basis the module assembles the operator pair fixing the
physical inner product of the well:

* charge C = sum_n omega_n r_n l_n^T with omega_n = eps_n / mu_n, the unique
  involution (C^2 = I) commuting with H whose sign pattern eps makes every
  kappa_n^2 = omega_n / (mu_n nu_n) positive, where nu_m = 1 / (r_m^T P r_m)
  expands the inverse pseudometric P^-1 = sum_m nu_m r_m r_m^T;
* metric Theta = P C, symmetric positive definite inside the open coupling
  square, in which H is self-adjoint;
* hermitizer Omega with Omega^T Omega = Theta, mapping H to the explicitly
  symmetric Omega H Omega^-1.

The closed forms of the model live here, in `closed_form_operators`, and
nowhere else.  On both coupling lines they start from the diagonal metric
Theta = diag(alpha_lambda, 1, ..., 1, 1/alpha_mu), alpha_x = (1 - x)/(1 + x),
and the exchange matrix J: on mu = +lambda, P = J and C = J Theta; on
mu = -lambda, P = Theta J and C = J.  Everything degenerates at
|lambda| = 1, the exceptional point.

Conventions: eigenvectors unit Euclidean norm with first significant
component positive; matrix norms are max-abs-entry; order Theta = P times C.
"""

from dataclasses import dataclass

import numpy as np

from .dieudonne import RESIDUAL_FACTOR, PseudometricBasis, _candidate, _entry_norm, _gap_gate
from .dieudonne import _intertwining_defect, residual
from .errors import (
    FactorizationError,
    InadmissiblePseudometric,
    NotDyadRepresentable,
    NotSymmetrizable,
    NumericalError,
    ValidationError,
)
from .hamiltonian import DiscreteHamiltonian, _couplings, dense, dimension, end_bonds
from .spectra import _adjacent_gaps, _chiral_eigenpairs

CONSTRUCTION_TOL = 1e-12
IDENTITY_TOL = 1e-10
OVERLAP_FLOOR = 1e-12

VARIANTS = ("exchange", "weighted")


@dataclass(frozen=True, eq=False)
class BiorthogonalSystem:
    """Paired right/left eigenbases r_k, l_k with overlaps mu_k = l_k^T r_k.

    Columns of ``right`` and ``left`` are unit-norm and eigenvalue-ordered
    (ascending); ``values`` holds the shared eigenvalues.  With the sign
    convention both transported from one symmetric eigenvector, every overlap
    is positive.
    """

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    overlaps: np.ndarray

    @property
    def n(self):
        return self.values.shape[0]

    def projector(self, k):
        """Oblique spectral projector r_k l_k^T / mu_k onto the k-th mode."""
        return np.outer(self.right[:, k], self.left[:, k]) / self.overlaps[k]


@dataclass(frozen=True, eq=False)
class ChargeAssembly:
    """Spectral charge C = sum_n omega_n r_n l_n^T and its coefficient set.

    ``nu`` expands the inverse pseudometric over right dyads, ``signs`` is
    eps = sign(nu), ``omega`` = eps/mu, and ``kappa_sq`` = omega/(mu nu) =
    1/(mu^2 |nu|) are the metric weights, so omega = mu nu kappa_sq and
    mu omega^2 = 1/mu up to rounding.  ``involution`` is the defect
    max|C^2 - I| of the assembled charge, its certificate.
    """

    nu: np.ndarray
    omega: np.ndarray
    kappa_sq: np.ndarray
    signs: np.ndarray
    c: np.ndarray
    involution: float


@dataclass(frozen=True, eq=False)
class OperatorTriple:
    """Pseudometric P, charge C and metric Theta = P C for one Hamiltonian.

    It holds the operators only; `symmetry_report` computes their residuals
    and the smallest eigenvalue of Theta.
    """

    p: np.ndarray
    c: np.ndarray
    theta: np.ndarray


@dataclass(frozen=True, eq=False)
class AnsatzMetric:
    """Candidate metric from a coefficient vector over a pseudometric basis.

    ``positive`` certifies positive definiteness (Cholesky success, seconded
    by the smallest eigenvalue); an indefinite result is a property of the
    chosen coefficients and is reported here rather than raised.
    ``residual_bound`` bounds the intertwining defect by linearity when the
    basis carries per-element residuals.
    """

    theta: np.ndarray
    positive: bool
    smallest_eigenvalue: float
    residual_bound: float


@dataclass(frozen=True, eq=False)
class SymmetryReport:
    """Residual record of the full symmetry algebra for one (H, P, C, Theta).

    All norms are max-abs-entry; nonzero values report broken identities
    without judging them (a pseudometric of the wrong coupling line simply
    shows its mismatch here).
    """

    residual_p: float
    residual_theta: float
    residual_commutator: float
    residual_involution: float
    theta_min_eig: float


def _involution_defect(c):
    """max|C^2 - I|, the involution residual of a charge."""
    return _entry_norm(c @ c - np.eye(c.shape[0]))


def _smallest_eigenvalue(theta):
    """Smallest eigenvalue of the symmetric part of a metric."""
    return float(np.linalg.eigvalsh(0.5 * (theta + theta.T))[0])


def biorthogonalize(h):
    """Right and left eigenbases of h with their biorthogonal overlaps.

    Both families are transported from the symmetric S = D^-1 H D, with
    d[0] = 1 and d[i+1] = d[i] sqrt(sub[i] / super[i]): if S w = E w then
    H (D w) = E (D w) and H^T (D^-1 w) = E (D^-1 w).  `_chiral_eigenpairs`
    gives S's levels and unit vectors w (off-diagonal sqrt(super[i] sub[i])
    with the sign of super[i]), each made positive in its first significant
    component.  Requires positive end bond products (NotSymmetrizable) and
    a simple spectrum.
    """
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("biorthogonalize expects a DiscreteHamiltonian")
    n = h.n
    first, last = end_bonds(n, h.lam, h.mu)
    for bond, product in ((0, first), (n - 2, last)):
        if product <= 0.0:
            raise NotSymmetrizable(bond, product)
    ends = np.copysign(np.sqrt([first, last]), h.super[[0, -1]])
    values, w = _chiral_eigenpairs(n, *ends)
    mag = np.abs(w)
    lead = w[np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0), np.arange(n)]
    w *= np.where(lead < 0.0, -1.0, 1.0)
    scale = _gap_gate(h, float(_adjacent_gaps(values)), "biorthogonal pairing is ill-defined")
    d = np.cumprod(np.r_[1.0, np.sqrt(h.sub / h.super)])
    right = w * d[:, None]
    left = w / d[:, None]
    right = right / np.linalg.norm(right, axis=0)
    left = left / np.linalg.norm(left, axis=0)
    overlaps = np.einsum("ik,ik->k", left, right)
    hd = dense(h)
    res_r = _entry_norm(hd @ right - right * values[None, :])
    res_l = _entry_norm(hd.T @ left - left * values[None, :])
    bound = IDENTITY_TOL * scale
    if max(res_r, res_l) > bound:
        raise NumericalError(
            f"eigenvector residual {max(res_r, res_l):.3e} exceeds {bound:.3e}"
        )
    cross = left.T @ right
    off = _entry_norm(cross - np.diag(np.diag(cross)))
    if off > IDENTITY_TOL:
        raise NumericalError(f"biorthogonality defect {off:.3e} exceeds {IDENTITY_TOL}")
    if np.abs(overlaps).min() <= OVERLAP_FLOOR:
        raise NumericalError(
            f"vanishing overlap {overlaps[np.abs(overlaps).argmin()]:.3e}; "
            "too close to an exceptional point"
        )
    return BiorthogonalSystem(values, right, left, overlaps)


def spectral_dyads(h):
    """Rank-one pseudometrics l_k l_k^T from `biorthogonalize`'s left vectors, E_k ascending.

    They span the solution space of H^T X = X H wherever `biorthogonalize`
    certifies its eigenbasis and each X_k passes `kernel_basis`'s bound,
    max|H^T X_k - X_k H| <= RESIDUAL_FACTOR * max|H| * max|X_k|; elsewhere
    they are refused (NumericalError).
    """
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("spectral_dyads expects a DiscreteHamiltonian")
    dyads = [np.outer(l, l) for l in biorthogonalize(h).left.T]
    scale = RESIDUAL_FACTOR * _entry_norm(dense(h))
    for x in dyads:
        defect, bound = residual(h, x), scale * _entry_norm(x)
        if defect > bound:
            raise NumericalError(f"dyad residual {defect:.3e} exceeds {bound:.3e}")
    return dyads


def decompose_inverse_pseudometric(p, system):
    """Coefficients nu of P^-1 = sum_m nu_m r_m r_m^T, eigenvalue-ordered.

    Where H^T P = P H, P r_k is a multiple of l_k, so G = R^T P R is diagonal
    and nu_k = 1 / (r_k^T P r_k) (Mostafazadeh 2002).  An off-diagonal part of
    G past IDENTITY_TOL * max|G| raises NotDyadRepresentable; an r_k^T P r_k
    without a finite inverse (a singular P), ValidationError.
    """
    if not isinstance(system, BiorthogonalSystem):
        raise ValidationError("expected a BiorthogonalSystem")
    p = _candidate(p, (system.n, system.n), f"operator size {system.n}")
    e = np.frexp(_entry_norm(p))[1]  # max|2**-e P| lies in [0.5, 1), so G stays finite
    gram = system.right.T @ np.ldexp(p, -e) @ system.right
    diagonal = np.diag(gram)
    off, scale = _entry_norm(gram - np.diag(diagonal)), _entry_norm(gram)
    if off > IDENTITY_TOL * scale:
        raise NotDyadRepresentable(
            f"pseudometric is not diagonal in the eigenbasis (relative defect {off / scale:.3e})"
        )
    with np.errstate(divide="ignore", over="ignore"):
        nu = np.ldexp(1.0 / diagonal, -e)
    if not np.isfinite(nu).all():
        raise ValidationError("pseudometric is singular: some r_k^T P r_k has no finite inverse")
    return nu


def assemble_charge_spectral(system, nu):
    """Charge C = sum_n omega_n r_n l_n^T from the nu-expansion of P^-1.

    The sign vector eps = sign(nu) is the unique choice making every metric
    weight kappa_n^2 = omega_n/(mu_n nu_n) positive, with omega_n = eps_n/mu_n
    forced by the involution constraint C^2 = I.  max|C^2 - I| at most
    IDENTITY_TOL is the result's one certificate (NumericalError otherwise).
    """
    if not isinstance(system, BiorthogonalSystem):
        raise ValidationError("expected a BiorthogonalSystem")
    nu = _candidate(nu, (system.n,), f"operator size {system.n}")
    low, high = float(np.abs(nu).min()), float(np.abs(nu).max())
    floor = OVERLAP_FLOOR * max(1.0, high)
    if low <= floor:
        raise InadmissiblePseudometric(
            f"dyad coefficient vanishes relative to the largest: min|nu|={low:.3e} "
            f"<= {floor:.3e} = {OVERLAP_FLOOR:g} * max(1, max|nu|={high:.3e}); "
            "this pseudometric cannot support an involutive charge"
        )
    signs = np.sign(nu)
    omega = signs / system.overlaps
    kappa_sq = omega / (system.overlaps * nu)
    c = (system.right * omega[None, :]) @ system.left.T
    involution = _involution_defect(c)
    if involution > IDENTITY_TOL:
        raise NumericalError(f"charge involution defect {involution:.3e}")
    return ChargeAssembly(nu, omega, kappa_sq, signs, c, involution)


def metric_from_ansatz(basis, coeffs):
    """Candidate metric Theta = sum_k coeffs_k X_k with positivity certificate.

    ``basis`` is a PseudometricBasis or any sequence of symmetric intertwining
    matrices (e.g. spectral dyads).  Positivity of the result depends on the
    coefficients alone and is reported, never raised.
    """
    if isinstance(basis, PseudometricBasis):
        mats, residuals = basis.basis, basis.residuals
    else:
        mats = list(basis)
        if not mats:
            raise ValidationError("empty basis")
        # The first element, if square, fixes the size of all.
        sized = "basis elements, which must be square and of one size"
        shape = _candidate(mats[0], None, sized).shape
        mats = [_candidate(x, shape, sized) for x in mats]
        residuals = np.zeros(len(mats))
    coeffs = _candidate(coeffs, (len(mats),), f"basis size {len(mats)}")
    theta = np.zeros_like(mats[0])
    for c, x in zip(coeffs, mats):
        theta = theta + c * x
    smallest = _smallest_eigenvalue(theta)
    try:
        np.linalg.cholesky(0.5 * (theta + theta.T))
        positive = True
    except np.linalg.LinAlgError:
        positive = smallest > CONSTRUCTION_TOL * max(1.0, _entry_norm(theta))
    residual_bound = float(np.abs(coeffs) @ residuals)
    return AnsatzMetric(theta, positive, smallest, residual_bound)


def _theta_diagonal(n, lam, mu):
    """The diagonal (alpha_lam, 1, ..., 1, 1/alpha_mu) of Theta_D, alpha_x = (1 - x)/(1 + x).

    For n >= 3, Theta_D solves H^T X = X H for H(lam, mu) at every
    lam, mu != +-1.  The caller refuses lam = -1 and mu = 1 first.
    """
    return np.r_[(1.0 - lam) / (1.0 + lam), np.ones(n - 2), (1.0 + mu) / (1.0 - mu)]


def closed_form_operators(n, lam, variant="exchange"):
    """Exact triple (P, C, Theta) on a coupling line.

    Theta is the diagonal Theta_D = diag(alpha_lam, 1, ..., 1, 1/alpha_mu),
    alpha_x = (1 - x)/(1 + x), on the line's mu, and J is the exchange matrix:

    * ``exchange``, H(lam, lam): P = J and C = J Theta.  At n = 2, where the
      two boundary weights merge, Theta takes the square roots of Theta_D.
    * ``weighted``, H(lam, -lam): P = Theta J, antidiagonal ones with both
      corners alpha_lam, and C = J.

    Theta is built as a diagonal, not as a product, so its off-diagonal
    entries are exactly zero.  The construction is singular at |lam| = 1.
    """
    lam, _ = _couplings((lam, lam))
    n = dimension(n)
    if lam == 1.0 or lam == -1.0:
        raise ValidationError(
            f"closed forms are singular at the exceptional point lambda={lam}"
        )
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    exchange = np.eye(n)[::-1].copy()
    if variant == "weighted":
        p = np.diag(_theta_diagonal(n, lam, -lam))[:, ::-1].copy()
        # P = Theta J, so Theta is P with its columns reversed.
        return OperatorTriple(p, exchange, p[:, ::-1].copy())
    diagonal = _theta_diagonal(n, lam, lam)
    if n == 2:
        if diagonal[0] <= 0.0:
            raise ValidationError(
                "no real closed form at n=2 outside |lambda| < 1 "
                f"(alpha={diagonal[0]:.3e} is not positive)"
            )
        diagonal = np.sqrt(diagonal)
    theta = np.diag(diagonal)
    return OperatorTriple(exchange, theta[::-1].copy(), theta)


def omega_factorize(h, theta):
    """Hermitizer Omega with Omega^T Omega = Theta, plus Omega H Omega^-1.

    Uses the upper Cholesky factor, which reduces to the entrywise square
    root for diagonal metrics; for the closed-form Theta the hermitized
    matrix is the symmetric tridiagonal with diagonal 2 and off-diagonal
    -sqrt(super[i] sub[i]), inside the window.
    """
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("omega_factorize expects a DiscreteHamiltonian")
    theta = _candidate(theta, (h.n, h.n), f"operator size {h.n}")
    if _entry_norm(theta - theta.T) > CONSTRUCTION_TOL * max(1.0, _entry_norm(theta)):
        raise FactorizationError("metric is not symmetric")
    try:
        lower = np.linalg.cholesky(theta)
    except np.linalg.LinAlgError:
        raise FactorizationError(
            "metric is not positive definite; no real hermitizer exists"
        ) from None
    omega = lower.T
    hd = dense(h)
    hermitized = np.linalg.solve(lower, (omega @ hd).T).T
    return omega, hermitized


def symmetry_report(h, triple):
    """Residuals of all defining identities of a triple against one h."""
    if not isinstance(h, DiscreteHamiltonian):
        raise ValidationError("symmetry_report expects a DiscreteHamiltonian")
    if not isinstance(triple, OperatorTriple):
        raise ValidationError("symmetry_report expects an OperatorTriple")
    shape, sized = (h.n, h.n), f"operator size {h.n}"
    p, c, theta = (_candidate(x, shape, sized) for x in (triple.p, triple.c, triple.theta))
    hd = dense(h)
    return SymmetryReport(
        residual_p=residual(h, p),
        residual_theta=residual(h, theta),
        residual_commutator=float(_intertwining_defect(c, hd, c)),
        residual_involution=_involution_defect(c),
        theta_min_eig=_smallest_eigenvalue(theta),
    )


def theta_adjoint(theta, psi):
    """Metric-adjoint row vector of a ket: conj(psi)^T Theta.

    Theta must be a finite real square matrix; psi a finite vector of
    matching length, which may be complex.
    """
    theta = _candidate(theta, None, "the metric, which must be a square matrix")
    psi = _candidate(psi, theta.shape[:1], f"metric {theta.shape}", complex_ok=True)
    return np.conj(psi) @ theta
