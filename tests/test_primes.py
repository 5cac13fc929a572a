import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from primeclique.primes import factor_over_basis, first_n_primes, is_prime


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


def test_is_prime_matches_trial_division():
    for n in range(200):
        assert is_prime(n) == trial_division(n)


def test_factor_over_basis_examples():
    assert factor_over_basis(30, [2, 3, 5, 7]) == {0, 1, 2}
    assert factor_over_basis(1, [2, 3, 5]) == set()
    assert factor_over_basis(21, [2, 3, 5, 7]) == {1, 3}


def test_factor_over_basis_residue():
    with pytest.raises(ValueError, match="residue"):
        factor_over_basis(22, [2, 3, 5])


BASIS = first_n_primes(20)
index_sets = st.sets(st.integers(min_value=0, max_value=19))


def product_of(indices: set[int]) -> int:
    return math.prod(BASIS[i] for i in indices)


@given(index_sets)
def test_factor_over_basis_inverts_product(a):
    assert factor_over_basis(product_of(a), BASIS) == a
