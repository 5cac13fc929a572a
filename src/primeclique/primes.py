"""Prime generation: the first n primes, by sieve.

A squarefree natural number stands in for a finite set of primes: 1 is the
empty set, multiplying coprime values is disjoint union, gcd is
intersection, and divisibility is the subset test. The encoding and the
solver apply ``*``, ``//``, ``%`` and ``math.gcd`` to them directly; Python's
arbitrary-precision integers keep that exact at any bit width. Storage is
not what limits scale: a weight holds one prime per closed neighbor, so a
10**4-vertex path has 51-bit weights.
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

