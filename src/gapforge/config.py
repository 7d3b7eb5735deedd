"""Runtime limits.

CLI precedence is flags > ``GAPFORGE_*`` environment variables > defaults.

Budget semantics: operations that materialize a whole window (``primes_up_to``,
``sieve_survivors``) require the window to fit in ``memory_budget`` bytes;
segmented scans only allocate one segment at a time and are instead capped at
``memory_budget * 8`` scanned integers (the bit-array reading of the budget).
That cap also bounds exact J(u): its half-period scan must fit it, so the
default budget admits J(29) and refuses J(31).

``segment_size`` counts odd numbers per segment of the sieve kernel, so it
also sets the rough-scan segment (2 * segment_size integers), and progression
terms ``b + k*q`` per segment in ``prime_count_ap``, which costs O(x/q).
"""

import os
from dataclasses import dataclass

DEFAULT_MEMORY_BUDGET = 1 << 30   # bytes
DEFAULT_SEGMENT_SIZE = 1 << 20    # odd numbers (or progression terms) per segment

ENV_PREFIX = "GAPFORGE_"
_ENV_FIELDS = (
    ("memory_budget", "MEMORY_BUDGET"),
    ("segment_size", "SEGMENT_SIZE"),
)


@dataclass(frozen=True)
class Config:
    memory_budget: int = DEFAULT_MEMORY_BUDGET
    segment_size: int = DEFAULT_SEGMENT_SIZE

    def __post_init__(self):
        if self.memory_budget < 1:
            raise ValueError(f"memory_budget must be >= 1, got {self.memory_budget}")
        if self.segment_size < 1 << 16:
            raise ValueError("segment_size must be at least 2**16")

    @property
    def scan_limit(self) -> int:
        """Longest window (in integers) a segmented scan may cover."""
        return self.memory_budget * 8


DEFAULT = Config()


def from_env(**overrides) -> Config:
    """Build a Config from GAPFORGE_* variables, then apply overrides.

    Overrides that are None are ignored, so CLI code can pass flag values
    straight through.  A variable that is not an integer raises ValueError
    naming it.
    """
    values = {}
    for field, env in _ENV_FIELDS:
        raw = os.environ.get(ENV_PREFIX + env)
        if raw is not None:
            try:
                values[field] = int(raw)
            except ValueError:
                raise ValueError(
                    f"{ENV_PREFIX + env}={raw!r} is not an integer"
                ) from None
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return Config(**values)
