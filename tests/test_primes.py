import math

import pytest

from primeclique.encoding import PrimeAssignment, decode_clique
from primeclique.errors import IntegrityError
from primeclique.primes import _sieve, first_n_primes


def trial_division(n: int) -> bool:
    """Independent primality check for validating first_n_primes."""
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_first_n_primes_small():
    assert first_n_primes(0) == []
    assert first_n_primes(1) == [2]
    assert first_n_primes(5) == [2, 3, 5, 7, 11]


def test_first_n_primes_increasing_and_prime():
    primes = first_n_primes(300)
    assert len(primes) == 300
    assert all(a < b for a, b in zip(primes, primes[1:]))
    assert all(trial_division(p) for p in primes)


def test_first_n_primes_prefix_stable():
    assert first_n_primes(120)[:50] == first_n_primes(50)


def test_first_n_primes_negative():
    with pytest.raises(ValueError):
        first_n_primes(-1)


def test_first_n_primes_matches_trial_division():
    # every n up to 2000, whose sieve limits, odd and even, are the floor of
    # 15 below n = 6 and the estimate above it; the estimate always holds
    # enough primes here, so the limit is never doubled
    primes = [p for p in range(2, 17_400) if trial_division(p)]
    assert len(primes) >= 2000
    for n in range(2001):
        assert first_n_primes(n) == primes[:n]


def test_first_n_primes_does_not_depend_on_earlier_calls():
    # The process keeps one table of primes and grows it on demand: large,
    # small and large requests in turn each read a fresh sieve's primes.
    fresh = _sieve(10_000)
    for n in (1000, 5, 600, 0, 1200, 1):
        assert first_n_primes(n) == fresh[:n]
        assert PrimeAssignment.default(n) == PrimeAssignment(tuple(fresh[:n]))


def test_first_n_primes_returns_a_list_no_later_call_sees():
    got = first_n_primes(600)
    got[0] = 4
    got.append(9)
    del got[1:]
    fresh = _sieve(10_000)
    assert first_n_primes(600) == fresh[:600]
    assert first_n_primes(700) == fresh[:700]
    assert PrimeAssignment.default(600).primes == tuple(fresh[:600])


def test_sieve_matches_trial_division():
    for limit in range(301):
        assert _sieve(limit) == [p for p in range(limit + 1) if trial_division(p)]



# Factoring an id over a prime basis lives in decode_clique, which returns
# 1-based vertex ids rather than 0-based basis indices.
def test_factor_over_basis_examples():
    assert decode_clique(30, PrimeAssignment((2, 3, 5, 7))) == {1, 2, 3}
    assert decode_clique(1, PrimeAssignment((2, 3, 5))) == set()
    assert decode_clique(21, PrimeAssignment((2, 3, 5, 7))) == {2, 4}


def test_factor_over_basis_residue():
    with pytest.raises(IntegrityError, match="residue"):
        decode_clique(22, PrimeAssignment((2, 3, 5)))
