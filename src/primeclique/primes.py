"""Prime generation: the first n primes, by sieve, kept for the process.

A squarefree natural number stands in for a finite set of primes: 1 is the
empty set, multiplying coprime values is disjoint union, gcd is
intersection, and divisibility is the subset test. The encoding and the
solver apply ``*``, ``//``, ``%`` and ``math.gcd`` to them directly; Python's
arbitrary-precision integers keep that exact at any bit width. Storage is
not what limits scale: a weight holds one prime per closed neighbor, so a
10**4-vertex path has 51-bit weights.

The primes sieved so far are kept in one tuple for the life of the process,
so repeated solves do not sieve again. A larger request sieves a larger
table and rebinds the module name to it; a table is never changed in place,
so a concurrent reader always holds a whole one, and no result depends on
earlier calls.
"""

import itertools
import math

__all__ = ["first_n_primes"]


def _sieve(limit: int) -> list[int]:
    """All primes <= limit, by sieve of Eratosthenes over the odd numbers
    alone: ``flags[i]`` stands for 2i + 1, and the odd multiples of an odd
    prime p from p² on lie p flags apart."""
    if limit < 2:
        return []
    size = (limit + 1) // 2
    flags = bytearray([1]) * size
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytes(len(range(p * p // 2, size, p)))
    return [2, *itertools.compress(range(1, limit + 1, 2), flags)]


# The primes sieved so far, ascending: rebound to a longer tuple, never mutated.
_table: tuple[int, ...] = ()


def _first_primes(n: int) -> tuple[int, ...]:
    """The first n primes, a slice of the kept table, which is grown first
    where it holds fewer than n."""
    global _table
    if n < 0:
        raise ValueError("n must be >= 0")
    table = _table
    if len(table) < n:
        # p_n < n (ln n + ln ln n) for n >= 6; small n handled by the floor of 15.
        bound = 15 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 1
        while len(table) < n:
            table = tuple(_sieve(bound))
            bound *= 2
        _table = table
    return table[:n]


def first_n_primes(n: int) -> list[int]:
    """Return the first n primes in ascending order, as a new list.

    Read from the table kept for the process (module docstring); the sieve
    bound is grown until n primes fit, so the result for a given n never
    depends on prior calls.
    """
    return list(_first_primes(n))
