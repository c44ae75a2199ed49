"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; everything derives from SympelemError so CLI code can catch one
base type and map it to an exit code.
"""


class SympelemError(Exception):
    pass


class EvenModulus(SympelemError):
    """2 is a zero divisor, so the residue ring is unusable here."""


class ZeroDivisorS(SympelemError):
    """Attempted to localize at a zero divisor (a nilpotent element is one)."""


class DimensionMismatch(SympelemError):
    pass


class BadIndices(SympelemError):
    pass


class NonZeroDet(SympelemError):
    """A 2x2 block that must be singular is not."""


class RowConditionFailed(SympelemError):
    """The 2x2 witness does not carry (lambda, mu) in its first column."""


class AlphabetViolation(SympelemError):
    """A word contains atoms outside the alphabet a stage accepts."""


class StepVerificationFailed(SympelemError):
    """A rewrite step changed the evaluation; indicates a rule bug."""


class ExponentTooSmall(SympelemError):
    """An exponent is too small for the word to clear: conjugation
    decomposition requires m > k, and dilate refuses a homotopy whose
    parameters need an m above the largest it tries."""


class NotHomotopy(SympelemError):
    """A word over R[X] does not evaluate to the identity at X = 0."""


class CoverNotComaximal(SympelemError):
    """The supplied cover data fails its defining equation."""


class LocalWordMismatch(SympelemError):
    """A local word does not evaluate to the target matrix."""


class ParseError(SympelemError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
