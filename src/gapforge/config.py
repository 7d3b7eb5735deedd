"""Runtime limits.

CLI precedence is the ``--memory-budget`` flag > the
``GAPFORGE_MEMORY_BUDGET`` environment variable > the default.

Budget semantics: operations that materialize a whole window (``primes_up_to``,
``sieve_survivors``) require the window to fit in ``memory_budget`` bytes;
segmented scans only allocate one segment at a time and are instead capped at
``memory_budget * 8`` scanned integers (the bit-array reading of the budget).
That cap also bounds exact J(u), though its covering search scans nothing:
the half-period window of its period must fit it, so the default budget
admits J(29) and refuses J(31).  ``scan`` counts each row it holds at about
a kilobyte of the budget, and keeps the rule of a prime table for its
``x``: it refuses ``x + 1 > memory_budget`` as the prime list of x.
"""

import os
from dataclasses import dataclass
from typing import Optional

DEFAULT_MEMORY_BUDGET = 1 << 30   # bytes
ENV_MEMORY_BUDGET = "GAPFORGE_MEMORY_BUDGET"


@dataclass(frozen=True)
class Config:
    memory_budget: int = DEFAULT_MEMORY_BUDGET

    def __post_init__(self):
        if self.memory_budget < 1:
            raise ValueError(f"memory_budget must be >= 1, got {self.memory_budget}")

    @property
    def scan_limit(self) -> int:
        """Longest window (in integers) a segmented scan may cover."""
        return self.memory_budget * 8


DEFAULT = Config()


def from_env(memory_budget: Optional[int] = None) -> Config:
    """Build a Config from GAPFORGE_MEMORY_BUDGET, or from memory_budget if given.

    A memory_budget of None is ignored, so CLI code can pass the flag's
    value straight through.  A variable that is not an integer raises
    ValueError naming it, even when the flag overrides it.
    """
    raw = os.environ.get(ENV_MEMORY_BUDGET)
    try:
        env = None if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MEMORY_BUDGET}={raw!r} is not an integer") from None
    for budget in (memory_budget, env):
        if budget is not None:
            return Config(budget)
    return DEFAULT
