import math

import pytest

from primeclique.encoding import PrimeAssignment, decode_clique
from primeclique.errors import IntegrityError
from primeclique.primes import first_n_primes


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



# Factoring an id over a prime basis lives in decode_clique, which returns
# 1-based vertex ids rather than 0-based basis indices.
def test_factor_over_basis_examples():
    assert decode_clique(30, PrimeAssignment((2, 3, 5, 7))) == {1, 2, 3}
    assert decode_clique(1, PrimeAssignment((2, 3, 5))) == set()
    assert decode_clique(21, PrimeAssignment((2, 3, 5, 7))) == {2, 4}


def test_factor_over_basis_residue():
    with pytest.raises(IntegrityError, match="residue"):
        decode_clique(22, PrimeAssignment((2, 3, 5)))
