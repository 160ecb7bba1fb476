"""Exception and warning types shared across the package."""


class LieGatesError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(LieGatesError, ValueError):
    """Two operands do not share the required matrix dimension."""


class CapacityError(LieGatesError, ValueError):
    """A construction would exceed the configured dimension cap."""


class MatrixPropertyError(LieGatesError, ValueError):
    """An input matrix lacks a required property (unitary, Hermitian, ...)."""


class ParameterMismatchError(LieGatesError, ValueError):
    """Operands, or a family and its pinned values, disagree on (l, n)."""


class FamilyMismatchError(LieGatesError, ValueError):
    """A generator set of the wrong family was supplied."""


class UnknownGeneratorError(LieGatesError, KeyError):
    """A gate sequence references a generator id that does not exist."""


class ConvergenceError(LieGatesError, RuntimeError):
    """An iterative kernel (such as the LAPACK eigensolver) failed to converge."""


class DepthExhaustedError(LieGatesError, RuntimeError):
    """A recipe needs more commutator nesting than the configured maximum."""


class NotMemberError(LieGatesError):
    """A matrix lies outside the span of a Lie basis.

    Carries the Frobenius norm of the off-span residual.
    """

    def __init__(self, residual: float, message: str | None = None):
        self.residual = float(residual)
        super().__init__(message or f"not a member, residual norm {residual:.6g}")


class BranchCutWarning(UserWarning):
    """An eigenphase lies within the warning margin of the log branch cut."""
