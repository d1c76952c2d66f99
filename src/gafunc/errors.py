"""Exception hierarchy shared across the package."""


class GafuncError(Exception):
    """Base class for all package errors."""


class ParseError(GafuncError):
    """Malformed multivector, matrix, or polynomial text."""


class SignatureMismatchError(GafuncError):
    """Operands belong to different algebras."""


class SingularFunctionError(GafuncError):
    """The requested function is not defined at a root of the minimal polynomial."""

    def __init__(self, function_name, root, reason=""):
        self.function_name = function_name
        self.root = root
        self.reason = reason
        msg = f"{function_name} is singular at root {root}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class NonConvergenceError(GafuncError):
    """Root refinement failed to reach the requested precision."""

    def __init__(self, factor, residual):
        self.factor = factor
        self.residual = residual
        super().__init__(
            f"root refinement did not converge for factor {factor}; residual {residual}"
        )


class RealnessError(GafuncError):
    """A result expected to be real retained a non-negligible imaginary part."""

    def __init__(self, residual, tolerance):
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"imaginary residual {residual} exceeds tolerance {tolerance}"
        )


class VerificationError(GafuncError):
    """An exact identity the computation relies on did not hold, e.g. the
    minimal or characteristic polynomial failed to annihilate its element."""
