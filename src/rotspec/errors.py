"""Typed failure modes shared across the package, and the defaults that
the library's entry points share with the CLI.

Each error corresponds to one contract violation category and carries a
human-readable message; the CLI maps these onto distinct exit codes.
This module loads no numpy, so the CLI reads the defaults before any
numeric module runs.
"""

MAX_Q = 4096  # default matrix-order budget of every entry point
DEFAULT_RESOLUTION = (256, 256)  # grid points per axis
RATE_FLAG = "O(1/q_{n-1} + 1/q_n)"  # the convergence rate of a general spec


class RotspecError(Exception):
    """Base class for all package errors."""


class InvalidInput(RotspecError):
    """Malformed or out-of-domain input (bad grammar, theta outside (0,1),
    negative tolerance, non-square-free nonsense, dimension mismatch, a
    spec's sum |c| past the float range when it is built, a model value
    c * omega^m that rounds past it, a grid's spans or largest |lambda| +
    ||A|| past it before any solve)."""


class PrecisionExhausted(RotspecError):
    """A decimal input's certified interval is too wide to determine the
    next partial quotient. Carries how many quotients were certified."""

    def __init__(self, message: str, certified_terms: int = 0):
        super().__init__(message)
        self.certified_terms = certified_terms


class IndexOutOfRange(RotspecError):
    """Convergent or partial-quotient index outside the computed range."""


class ConvergenceFailure(RotspecError):
    """An iterative numerical kernel failed to meet its tolerance."""


class InvalidOrder(InvalidInput):
    """Matrix order q < 1 or numerator p outside 0 <= p < q."""


class EmptySpec(InvalidInput):
    """Operator specification with no terms at all."""


class NotHermitian(InvalidInput):
    """Hermitian eigensolver fed a model whose spec is not Hermitian
    (OperatorSpec.is_hermitian, at every order), or a grid fed an array
    that is not exactly Hermitian."""


class NonCanonicalSpec(InvalidInput):
    """A certified bound was requested for a spec outside the canonical
    four-term form; only a convergence rate is available there."""


class ThetaRational(InvalidInput):
    """An operation that requires irrational theta was given an exactly
    rational input."""


class ModelsNotNormal(RotspecError):
    """Spectrum certification and normal_eigenvalues need a normal
    operator, which the spec's coefficients decide (OperatorSpec.is_normal)
    before any model is built; caller should switch to pseudospectrum mode."""


class EmptyCloud(InvalidInput):
    """Set-geometry operation on an empty point cloud."""


class ResourceBudgetExceeded(InvalidInput):
    """Requested levels need matrix orders beyond the configured budget."""


class CertificateViolation(RotspecError):
    """A computed quantity exceeded its certified radius; indicates an
    implementation bug, surfaced loudly."""
