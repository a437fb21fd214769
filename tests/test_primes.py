import pytest

from cyclo4.primes import is_prime


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, limit, q)))
    return flags


def test_matches_a_sieve_below_100000():
    flags = _sieve(100_000)
    assert [n for n in range(100_000) if is_prime(n)] == [
        n for n in range(100_000) if flags[n]
    ]


# Carmichael numbers, and strong pseudoprimes to the bases 2 (2047),
# 2 and 3 (1373653), 2 .. 7 (3215031751) and 2 .. 37 (3825123056546413051)
@pytest.mark.parametrize("n", [561, 1729, 2047, 1373653, 3215031751, 3825123056546413051])
def test_rejects_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [1847, 1849, 1851, 1853])
def test_either_side_of_the_trial_division_bound(n):
    # 1847 is prime; 1849 = 43**2, 1851 = 3 * 617, 1853 = 17 * 109
    assert is_prime(n) == (n == 1847)
