"""CPT-symmetric discrete square well: spectra, pseudometrics, metric and charge.

The model is the n-site Dirichlet lattice Laplacian with one non-Hermitian
boundary coupling pair (lambda at the left edge, mu at the right): a real
tridiagonal matrix whose spectrum is entirely real inside the open coupling
square and complexifies through exceptional points outside.  The package
constructs the operators that turn the non-symmetric H into a unitary quantum
model: all pseudometrics X solving H^T X = X H, the involutive charge C, the
positive metric Theta = P C, and the hermitizing map Omega with
Omega^T Omega = Theta, together with continuum-limit convergence checks and a
deterministic command-line interface.

``import cptwell`` loads the spectrum core (errors, hamiltonian, spectra).
The operator layer (continuum, dieudonne, quasihermitian) loads when one of
its names or modules is first accessed through the package.
"""

import importlib
import types

from .errors import (
    ConvergenceError,
    CptwellError,
    DegenerateSpectrum,
    FactorizationError,
    InadmissiblePseudometric,
    NotDyadRepresentable,
    NotSymmetrizable,
    NumericalError,
    ValidationError,
)
from .hamiltonian import (
    CouplingPair,
    DiscreteHamiltonian,
    SymmetrizedForm,
    build,
    dense,
    symmetrize,
)
from .spectra import (
    DomainScan,
    Spectrum,
    char_poly,
    eigen_general,
    eigen_real,
    reality_tolerance,
    scan_domain,
    scan_line,
    spectrum_of,
)

# The operator layer, imported on first use: spectra and scans never need it.
_OPERATOR_NAMES = {
    "continuum": ("ConvergenceStudy", "convergence_study", "scaled_spectrum"),
    "dieudonne": (
        "ClosedFormPseudometric",
        "PseudometricBasis",
        "closed_form",
        "kernel_basis",
        "residual",
        "span_residual",
        "spectral_dyads",
    ),
    "quasihermitian": (
        "AnsatzMetric",
        "BiorthogonalSystem",
        "ChargeAssembly",
        "OperatorTriple",
        "SymmetryReport",
        "assemble_charge_spectral",
        "biorthogonalize",
        "closed_form_operators",
        "decompose_inverse_pseudometric",
        "metric_from_ansatz",
        "omega_factorize",
        "symmetry_report",
        "theta_adjoint",
    ),
}
_OPERATOR_HOME = {name: module for module, names in _OPERATOR_NAMES.items() for name in names}


def __getattr__(name):
    """An operator-layer module or public name, importing its module (PEP 562).

    A name is looked up in its module on every access, never stored here, so
    that a name rebound in its module (as a tracer does) is seen through the
    package too.
    """
    if name in _OPERATOR_NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OPERATOR_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_OPERATOR_NAMES, *_OPERATOR_HOME})


__version__ = "0.1.0"

# Every public name bound above (modules aside) and every operator-layer name.
__all__ = sorted(
    {name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    | _OPERATOR_HOME.keys()
) + ["__version__"]
