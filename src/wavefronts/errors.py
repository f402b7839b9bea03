"""Exception types shared across the package."""


class WavefrontError(Exception):
    """Base class for all package-specific errors."""


class ExprSyntaxError(WavefrontError):
    """Raised by the expression parser; carries the byte offset of the failure."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ConstantOutOfRange(WavefrontError):
    """A variable-free part of a compiled expression is not a finite float."""


class UndeclaredVariable(WavefrontError):
    def __init__(self, name):
        super().__init__(f"undeclared variable {name!r}")
        self.name = name


class DomainError(WavefrontError):
    """Evaluation point (or a finite-difference probe around it) left the domain box."""


class NonFiniteValue(WavefrontError):
    """A field evaluation produced NaN or infinity."""


class SingularJacobian(WavefrontError):
    pass


class MaxIterations(WavefrontError):
    pass


class SeedNotOnCurve(WavefrontError):
    pass


class RankDeficientSeed(WavefrontError):
    pass


class NotOnSigmaStar(WavefrontError):
    pass


class ChartFailure(WavefrontError):
    pass


class DeltaNonEmptyForGraphLike(WavefrontError):
    pass


class DegenerateMetric(WavefrontError):
    pass


class BlowUp(WavefrontError):
    pass


class SliceNotKept(WavefrontError):
    """A characteristic sheet was asked for a time whose slice it did not keep."""


class UnknownGerm(WavefrontError):
    pass


class NotSingularGerm(WavefrontError):
    pass


class FamilyFileError(WavefrontError):
    pass


class FamilySizeError(FamilyFileError):
    """A family file's k or n is outside its bound: a bad input, on which
    the CLI exits 2 as on an argument outside its range."""


class IoError(WavefrontError):
    pass
