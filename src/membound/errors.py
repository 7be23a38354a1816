"""Exception types shared across the package.

Every error the library raises deliberately derives from MemboundError so
callers (the command-line front end in particular) can distinguish domain
failures from programming mistakes.  All of them also subclass ValueError:
they signal bad arguments or bad input data, never internal state.
"""

__all__ = [
    "MemboundError",
    "DistributionError",
    "DomainError",
    "TrivialRegimeError",
    "InfeasibleError",
    "FieldError",
    "FileFormatError",
    "EnumerationTooLargeError",
]


class MemboundError(ValueError):
    """Base class for all library errors."""


class DistributionError(MemboundError):
    """A discrete distribution violates its construction rules."""


class DomainError(MemboundError):
    """An argument lies outside the operation's mathematical domain."""


class TrivialRegimeError(DomainError):
    """The requested error pair admits no informative tester.

    For binary scores this means eps_K + eps_N >= 1 (random guessing already
    achieves the target); for log-loss it means e**-eps_K + e**-eps_N < 1
    (every score in [e**-eps_K, 1 - e**-eps_N] meets both budgets, so rate 0
    is achievable).
    """


class InfeasibleError(DomainError):
    """No score distribution on the solver grid can meet the error budgets."""


class FieldError(MemboundError):
    """A finite-field argument is invalid (non-prime modulus, mixed fields,
    mismatched lengths)."""


class FileFormatError(MemboundError):
    """Input data is malformed: a serialized filter blob that is truncated or
    inconsistent, or a text input file (scores, keys)."""


class EnumerationTooLargeError(DomainError):
    """A brute-force enumeration would exceed the instance-size guard."""
