"""The column stages of the construction against list-based oracles.

best_residue counts residues by sorting an int64 column; greedy_cover and
match_large_primes filter and pair int64 columns.  The oracles count with
a dict, filter Python lists and find their primes by trial division, so
they share no code with gapforge.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from gapforge.covering import best_residue, greedy_cover, match_large_primes
from gapforge.errors import InsufficientPrimes
from gapforge.model import GREEDY, MATCHED, ClassTable


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_factors(q):
    return [p for p in range(2, q + 1) if q % p == 0 and _is_prime(p)]


def _best_residue_oracle(survivors, p):
    if not survivors:
        return 0, 0
    counts = {}
    for n in survivors:
        r = n % p
        counts[r] = counts.get(r, 0) + 1
    top = max(counts.values())
    return min(r for r, c in counts.items() if c == top), top


def _greedy_oracle(survivors, q, u):
    classes = []
    remaining = list(survivors)
    for p in _prime_factors(q):
        if 2 * p > u:
            continue
        a, _ = _best_residue_oracle(remaining, p)
        classes.append((p, a))
        remaining = [n for n in remaining if n % p != a]
    return classes, remaining


def _match_oracle(remaining, u):
    """The (p, n mod p) pairs, or the (needed, available) counts that fall short."""
    fresh = [p for p in range(u // 2 + 1, u + 1) if _is_prime(p)]
    if len(remaining) > len(fresh):
        return len(remaining), len(fresh)
    return [(p, n % p) for n, p in zip(remaining, fresh)]


def _table(pairs, kind):
    return ClassTable([p for p, _ in pairs], [a for _, a in pairs], kind)


SMOOTH = [2, 6, 30, 210, 2310, 4, 12, 360]
PRIMES = [2, 3, 5, 7, 11, 13, 101, 1009]


def _survivors(rng):
    """Ascending distinct survivors: empty, short, dense or sparse."""
    size = rng.choice([0, 1, 2, 3, rng.randrange(4, 60), rng.randrange(60, 400)])
    top = rng.choice([size + 1, 4 * size + 8, 10**4, 10**9])
    return sorted(rng.sample(range(top), size))


def test_greedy_cover_matches_list_oracle():
    rng = random.Random(1701)
    for _ in range(600):
        survivors = _survivors(rng)
        q = rng.choice(SMOOTH + PRIMES)
        u = rng.randrange(3, 2 * q + 40)
        classes, rest = greedy_cover(np.array(survivors, dtype=np.int64), q, u)
        want, want_rest = _greedy_oracle(survivors, q, u)
        assert classes == _table(want, GREEDY), (survivors, q, u)
        assert rest.dtype == np.int64
        assert rest.tolist() == want_rest


def test_best_residue_matches_dict_oracle():
    rng = random.Random(1702)
    for _ in range(1500):
        survivors = _survivors(rng)
        p = rng.choice(PRIMES + [rng.randrange(2, 50), max(survivors, default=0) + 1,
                                 10**6 + 3])
        column = np.array(survivors, dtype=np.int64)
        assert best_residue(column, p) == _best_residue_oracle(survivors, p), (survivors, p)


def test_best_residue_ties_take_the_smallest_residue():
    assert best_residue(np.arange(10), 5) == (0, 2)  # every residue twice
    assert best_residue(np.array([1, 3]), 7) == (1, 1)
    assert best_residue(np.array([1, 4, 6, 9]), 5) == (1, 2)  # 1 and 4 twice
    assert best_residue(np.array([3, 4, 8, 11, 13]), 5) == (3, 3)  # 3 three times
    assert best_residue(np.array([], dtype=np.int64), 7) == (0, 0)


def test_best_residue_with_p_above_every_survivor():
    # each survivor is its own residue, so the smallest one wins with one hit
    survivors = np.array([5, 17, 40], dtype=np.int64)
    assert best_residue(survivors, 41) == (5, 1)
    classes, rest = greedy_cover(survivors, 41, 100)
    assert classes == ClassTable([41], [5], GREEDY)
    assert rest.tolist() == [17, 40]


def test_best_residue_allocates_nothing_of_size_p():
    p = 10**12 + 39  # prime
    survivors = np.array([3, 10**9, 10**12], dtype=np.int64)
    tracemalloc.start()
    try:
        result = best_residue(survivors, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (3, 1)
    assert peak < 1 << 16


def test_match_large_primes_matches_list_oracle():
    rng = random.Random(1703)
    for _ in range(400):
        u = rng.randrange(3, 600)
        size = rng.choice([0, 1, 2, rng.randrange(3, 40)])
        remaining = sorted(rng.sample(range(rng.choice([size + 1, 5000])), size))
        want = _match_oracle(remaining, u)
        column = np.array(remaining, dtype=np.int64)
        if isinstance(want, tuple):
            with pytest.raises(InsufficientPrimes) as err:
                match_large_primes(column, u)
            assert (err.value.needed, err.value.available) == want
        else:
            assert match_large_primes(column, u) == _table(want, MATCHED), (remaining, u)
