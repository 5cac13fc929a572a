"""Prime generation and factoring over a basis.

A squarefree natural number stands in for a finite set of primes: 1 is the
empty set, multiplying coprime values is disjoint union, gcd is
intersection, and divisibility is the subset test. The encoding and the
solver apply ``*``, ``//``, ``%`` and ``math.gcd`` to them directly; Python's
arbitrary-precision integers keep that exact at any bit width. Storage is
not what limits scale: a weight holds one prime per closed neighbor, so a
10**4-vertex path has 51-bit weights. Time is: on sparse graphs each level
of the enumeration re-sorts, merges and partitions the whole pivot-free
remainder, so the work grows quadratically (a 10**4-vertex path takes about
16 s in CPython 3.11 on a shared Intel Xeon core).
"""

import math
from itertools import count
from typing import Sequence

__all__ = [
    "first_n_primes",
    "is_prime",
    "factor_over_basis",
]


def _sieve(limit: int) -> list[int]:
    """All primes <= limit, by sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def first_n_primes(n: int) -> list[int]:
    """Return the first n primes in ascending order.

    Deterministic: the sieve bound is grown until n primes fit, so the
    result for a given n never depends on prior calls.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return []
    # p_n < n (ln n + ln ln n) for n >= 6; small n handled by the floor of 15.
    bound = 15 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 1
    while True:
        primes = _sieve(bound)
        if len(primes) >= n:
            return primes[:n]
        bound *= 2


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in count(3, 2):
        if d * d > n:
            return True
        if n % d == 0:
            return False
    raise AssertionError("unreachable")


def factor_over_basis(x: int, basis: Sequence[int]) -> set[int]:
    """Factor squarefree x over an ordered prime basis.

    Returns the unique index set S with x == prod(basis[i] for i in S).
    Raises ValueError when x has a divisor outside the basis.
    """
    if x < 1:
        raise ValueError(f"value must be >= 1, got {x}")
    indices = set()
    for i, p in enumerate(basis):
        if x == 1:
            break
        if x % p == 0:
            indices.add(i)
            x //= p
    if x != 1:
        raise ValueError(f"residue {x} is not 1: value has divisors outside the basis")
    return indices
