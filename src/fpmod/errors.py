"""Exception hierarchy shared by all fpmod components.

InputError subclasses map to CLI exit code 2 (bad input), InternalError
subclasses to exit code 1 (a bug: an internal cross-check failed).
"""


class FpmodError(Exception):
    """Base class for all fpmod errors."""


class InputError(FpmodError):
    """Invalid input supplied by the caller (CLI exit code 2)."""


class InternalError(FpmodError):
    """An internal invariant failed; indicates a bug (CLI exit code 1)."""


class DivisionByZero(InputError):
    pass


class UnsupportedRing(InputError):
    pass


class PrimalityUndecided(InputError):
    """A PrimeField modulus too large for the deterministic primality test."""


class FactorizationTooHard(InputError):
    """An IntegersMod modulus whose factorization trial division cannot finish."""


class DimensionMismatch(InputError):
    pass


class RingMismatch(InputError):
    pass


class NotWellDefined(InputError):
    pass


class SourceMismatch(InputError):
    pass


class SquareDoesNotCommute(InputError):
    pass


class NotARetraction(InputError):
    pass


class ProbeInconclusive(FpmodError):
    """No retraction exists and no probe produced an explicit witness."""


class HypothesisViolation(InputError):
    pass


class LiftFailedAtHorizon(FpmodError):
    pass


class NotDirected(InputError):
    pass


class AxiomViolation(InputError):
    pass


class PreconditionViolation(InputError):
    pass


class InvalidFiltration(InputError):
    pass


class NotInternal(InputError):
    pass


class NotIdempotent(InputError):
    pass


class NotProjective(InputError):
    pass


class DoesNotSpan(InputError):
    pass


class ComponentsDoNotSpan(InternalError):
    pass


class NotFaithfullyFlat(InputError):
    pass


class DeciderDisagreement(InternalError):
    """The two independent projectivity deciders disagreed."""
