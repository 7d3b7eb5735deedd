"""gapforge: explicit covering-system certificates for prime-gap lower bounds.

A measured deficit of primes in a progression b mod q turns into a verified
set of residue classes covering [0, y], which certifies a lower bound on the
maximal gap between rough numbers and hence between primes.  The package
also carries the exact sieving machinery (prime gaps, rough-number gaps,
counts in progressions) needed to test every step at desk scale.
"""

from .arith import (
    factorize,
    is_prime,
    multi_mod,
    primorial,
    totient,
)
from .config import Config, from_env
from .covering import (
    best_residue,
    build_certificate,
    compute_u,
    crt_witness,
    forced_classes,
    greedy_cover,
    match_large_primes,
    scenario_bound,
    sieve_survivors,
    verify_certificate,
)
from .errors import (
    BadProgression,
    DomainError,
    EmptyRange,
    GapforgeError,
    InsufficientPrimes,
    InvalidCertificate,
    Overflow,
    PeriodTooLarge,
    ResourceLimit,
)
from .jacobsthal import jacobsthal_bound_from_certificate, jacobsthal_exact
from .model import (
    FORCED,
    GREEDY,
    MATCHED,
    ClassTable,
    CoveringCertificate,
    CrtWitness,
    GapRecord,
    JacobsthalValue,
    ProgressionStats,
    Rational,
    ScenarioResult,
    VerificationReport,
    certificate_from_dict,
    certificate_from_text,
    certificate_to_dict,
    certificate_to_json,
)
from .sieve import (
    least_prime_ap,
    max_prime_gap,
    prime_count_ap,
    primes_in_range,
    primes_up_to,
    rough_gap_scan,
    scan_deficits,
)

__version__ = "0.1.0"
