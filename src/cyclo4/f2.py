"""Polynomials over the two-element field, packed as int bitmasks.

Bit i of the mask is the coefficient of X**i. These are internal helpers:
arithmetic, gcd and inverses for the LFSR synthesis, and for constructing
basic irreducible moduli, Ben-Or's irreducibility test and the ordered
search for the canonical (lexicographically smallest) irreducible of each
degree.
"""

from __future__ import annotations

from functools import lru_cache


def degree(a: int) -> int:
    """Degree of the bitmask polynomial; -1 for the zero polynomial."""
    return a.bit_length() - 1


def mul(a: int, b: int) -> int:
    # one pass per bit of the shorter operand
    if a.bit_length() < b.bit_length():
        a, b = b, a
    res = 0
    while b:
        if b & 1:
            res ^= a
        a <<= 1
        b >>= 1
    return res


def mod(a: int, m: int) -> int:
    if not m:
        raise ZeroDivisionError("division by the zero polynomial")
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def mulmod(a: int, b: int, m: int) -> int:
    return mod(mul(a, b), m)


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


def inverse_mod(a: int, m: int) -> int:
    """Inverse of a modulo m, for gcd(a, m) = 1."""
    r0, r1 = m, mod(a, m)
    s0, s1 = 0, 1
    while r1:
        q, r = quo_rem(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ mul(q, s1)
    if r0 != 1:
        raise ZeroDivisionError("element is not invertible")
    return mod(s0, m)


def quo_rem(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by a nonzero b."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def exact_div(a: int, b: int) -> int:
    """The quotient a / b; raises ValueError unless b divides a."""
    q, r = quo_rem(a, b)
    if r:
        raise ValueError("not divisible")
    return q


def is_irreducible(h: int) -> bool:
    """Irreducibility over the two-element field, by Ben-Or's test
    (Ben-Or, "Probabilistic algorithms in finite fields", FOCS 1981):
    gcd(X**(2**i) - X, h) = 1 for i = 1 .. r // 2, r = deg h.

    A reducible h has an irreducible factor of some degree i <= r/2,
    which divides X**(2**i) - X, so the test is exact; it stops at the
    least such i, after a few steps for most candidates. Squaring over
    the two-element field spreads the bits: bit k moves to bit 2k, which
    is reading the binary digits of t in base 4 (power-of-two bases are
    exempt from Python's limit on int-string digits, so any r works)."""
    r = degree(h)
    if r < 1:
        return False
    t = 2
    for _ in range(r // 2):
        t = mod(int(bin(t)[2:], 4), h)
        if gcd(t ^ 2, h) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def lex_smallest_irreducible(r: int) -> int:
    """The irreducible of degree r whose coefficients, read high to low
    as a binary number, are smallest.

    The ordered search tries X**r + l for increasing l. For r >= 2 it
    skips l without a constant term (X divides) and candidates with an
    even number of terms (1 is a root), and returns the first candidate
    that passes ``is_irreducible``, so the result has passed exactly one
    irreducibility test in this call."""
    if r < 1:
        raise ValueError("degree must be positive")
    if r == 1:
        return 2
    for low in range(1, 1 << r, 2):
        h = (1 << r) | low
        if bin(h).count("1") % 2 == 0:
            continue
        if is_irreducible(h):
            return h
    raise RuntimeError(f"internal: no irreducible of degree {r} found")
