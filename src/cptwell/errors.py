"""Exception hierarchy.

Two broad families matter to callers (and to the CLI exit codes): input that
never reaches the numerics (`ValidationError`) and numerics that cannot deliver
what was asked of them (`NumericalError`).
"""


class CptwellError(Exception):
    """Base class for all package errors."""


class ValidationError(CptwellError):
    """Invalid argument or configuration; nothing was computed."""


class NumericalError(CptwellError):
    """A numerical procedure could not complete or certify its result."""


class NotSymmetrizable(NumericalError):
    """A bond product super[i]*sub[i] <= 0 prevents the diagonal symmetrization.

    Signals a potential complex spectrum or an exceptional point; callers that
    can handle complex spectra should fall back to the general solver.
    """

    def __init__(self, bond_index, product):
        self.bond_index = int(bond_index)
        self.product = float(product)
        super().__init__(
            f"bond {self.bond_index} has super*sub = {self.product!r} <= 0; "
            "the matrix has no positive diagonal symmetrization"
        )


class DegenerateSpectrum(NumericalError):
    """Eigenvalues coincide beyond the degeneracy threshold."""


class ConvergenceError(NumericalError):
    """A LAPACK solve failed (numpy raised LinAlgError), e.g. did not converge."""


class NotDyadRepresentable(NumericalError):
    """The inverse pseudometric is not a sum of right-eigenvector dyads.

    Raised when the reconstruction residual exceeds tolerance, which signals a
    pseudometric incompatible with the eigenbasis of the given Hamiltonian.
    """


class InadmissiblePseudometric(NumericalError):
    """A decomposition coefficient vanished; the charge assembly is undefined."""


class FactorizationError(NumericalError):
    """A matrix factorization (Cholesky / square root) failed, e.g. not SPD."""
