"""Exception types shared across the package."""


class LiesymError(Exception):
    """Base class for all package-specific errors."""


class ParseError(LiesymError):
    """Syntax or unknown-symbol error while parsing expression text.

    Carries the byte offset of the offending token in ``offset``.
    """

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnboundSymbolError(LiesymError):
    """A free symbol had no value in the evaluation environment."""


class DomainError(LiesymError):
    """Evaluation left the real domain (fractional power of a non-positive
    base, 0 raised to a negative power, or floating-point overflow)."""


class OrderOverflowError(LiesymError):
    """A total derivative would need jet symbols beyond second order."""


class SamplingError(LiesymError):
    """Random sampling could not produce enough valid points."""


class SingularPointError(LiesymError):
    """Point transformation hit a zero conformal factor."""


class ReductionError(LiesymError):
    """Invariant-variable reduction or the x^2 split is not applicable."""


class WorkerError(LiesymError):
    """A forked process working part of a residual grid failed."""
