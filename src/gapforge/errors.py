"""Exception types shared across the package."""


class GapforgeError(Exception):
    """Base class for every error raised by this package."""


class ResourceLimit(GapforgeError):
    """A scan or sieve would exceed the configured memory budget."""


class BadProgression(GapforgeError):
    """Progression parameters violate 0 < b < q < x or gcd(b, q) = 1."""


class EmptyRange(GapforgeError):
    """Fewer than two rough numbers in the requested window."""


class PeriodTooLarge(GapforgeError):
    """The half-period window of primorial(u) is past the scan budget.

    Exact J(u) keeps that window rule, though it scans nothing; the value is
    refused, never approximated.
    """


class Overflow(GapforgeError):
    """A computed parameter would exceed the 64-bit range."""


class InsufficientPrimes(GapforgeError):
    """Not enough fresh primes in (u/2, u] to match the leftover survivors.

    Carries both counts plus whether the sufficient condition
    |N'| <= u / (5 ln u) held, so callers can tell "the construction is
    impossible here" apart from "u is simply too small for the guarantee".
    """

    def __init__(self, needed: int, available: int, condition_holds: bool):
        self.needed = needed
        self.available = available
        self.condition_holds = condition_holds
        super().__init__(
            f"need {needed} fresh primes but only {available} available; "
            f"sufficient condition |N'| <= u/(5 ln u) "
            f"{'holds' if condition_holds else 'fails'}"
        )


class InvalidCertificate(GapforgeError):
    """Certificate failed verification where a valid one is required."""


class DomainError(GapforgeError):
    """Inputs outside the admissible domain: scenario parameters, or a prime
    search that reaches 2**64, past which primality is unproven."""
