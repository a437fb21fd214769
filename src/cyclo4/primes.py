"""Small number-theory helpers shared across the package."""

from __future__ import annotations

# Deterministic Miller-Rabin witnesses for n < _MR_LIMIT (about 3.3 * 10**24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality: trial division by the bases above settles n < 43**2;
    past that the Miller-Rabin test with them proves it for n < _MR_LIMIT,
    and beyond it a composite could pass."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < 43 * 43:  # a composite this small has a prime factor <= 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> int:
    if isinstance(p, int) and p >= _MR_LIMIT:
        raise ValueError(f"primality is proven only below {_MR_LIMIT}, got {p}")
    if not isinstance(p, int) or p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    return p


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; intended for desk-scale n."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def odd_primes(start: int, stop: int):
    """Odd primes p with start <= p <= stop, ascending."""
    for p in range(max(start, 3) | 1, stop + 1, 2):
        if is_prime(p):
            yield p
