"""Polynomials over the two-element field, packed as int bitmasks.

Bit i of the mask is the coefficient of X**i. These are internal helpers:
arithmetic, gcd and inverses for the LFSR synthesis, and for constructing
basic irreducible moduli, irreducibility testing and the canonical
(lexicographically smallest) irreducible of each degree.
"""

from __future__ import annotations

from functools import lru_cache

from .primes import factorize


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
    """Irreducibility over the two-element field, by the Rabin test:
    X**(2**r) = X mod h, and gcd(X**(2**(r/q)) - X, h) = 1 for each prime
    q dividing r. The test is exact for every degree r >= 2."""
    r = degree(h)
    if r <= 0:
        return False
    if r == 1:
        return True
    if h & 1 == 0:
        return False
    x = 2
    t = x
    checkpoints = {r // q for q in factorize(r)}
    for i in range(1, r + 1):
        t = mulmod(t, t, h)
        if i in checkpoints and gcd(t ^ x, h) != 1:
            return False
    return t == x


@lru_cache(maxsize=None)
def lex_smallest_irreducible(r: int) -> int:
    """The irreducible of degree r whose coefficients, read high to low
    as a binary number, are smallest. Precomputed for the degrees that
    arise at desk scale; found by ordered search otherwise. Either way the
    result has passed exactly one irreducibility test in this call."""
    if r < 1:
        raise ValueError("degree must be positive")
    known = _LEX_SMALLEST.get(r)
    if known is not None:
        if not is_irreducible(known):
            raise RuntimeError(f"internal: tabulated degree-{r} entry is reducible")
        return known
    if r == 1:
        return 2
    for low in range(1, 1 << r, 2):
        h = (1 << r) | low
        if bin(h).count("1") % 2 == 0:
            continue
        if is_irreducible(h):
            return h
    raise RuntimeError(f"internal: no irreducible of degree {r} found")


# Lex-smallest irreducibles by degree; regenerated by the ordered search
# above (see the table test, which re-derives a prefix from scratch).
_LEX_SMALLEST = {
    1: 0x2,
    2: 0x7,
    3: 0xb,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11b,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201b,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002b,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001b,
    25: 0x2000009,
    26: 0x400001b,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008d,
    33: 0x20000004b,
    34: 0x40000001b,
    35: 0x800000005,
    36: 0x1000000035,
    37: 0x200000003f,
    38: 0x4000000063,
    39: 0x8000000011,
    40: 0x10000000039,
    41: 0x20000000009,
    42: 0x40000000027,
    43: 0x80000000059,
    44: 0x100000000021,
    45: 0x20000000001b,
    46: 0x400000000003,
    47: 0x800000000021,
    48: 0x100000000002d,
    49: 0x2000000000071,
    50: 0x400000000001d,
    51: 0x800000000004b,
    52: 0x10000000000009,
    53: 0x20000000000047,
    54: 0x4000000000007d,
    55: 0x80000000000047,
    56: 0x100000000000095,
    57: 0x200000000000011,
    58: 0x400000000000063,
    59: 0x80000000000007b,
    60: 0x1000000000000003,
    61: 0x2000000000000027,
    62: 0x4000000000000069,
    63: 0x8000000000000003,
    64: 0x1000000000000001b,
    66: 0x40000000000000009,
    68: 0x1000000000000000a3,
    70: 0x40000000000000002b,
    72: 0x100000000000000005f,
    73: 0x200000000000000001d,
    76: 0x10000000000000000035,
    82: 0x4000000000000000000d7,
    83: 0x800000000000000000095,
    88: 0x1000000000000000000003f,
    92: 0x100000000000000000000065,
    94: 0x400000000000000000000063,
    95: 0x800000000000000000000077,
    96: 0x100000000000000000000006f,
    99: 0x800000000000000000000004b,
    100: 0x10000000000000000000000065,
    102: 0x40000000000000000000000069,
    106: 0x400000000000000000000000063,
    119: 0x800000000000000000000000000101,
    130: 0x400000000000000000000000000000009,
    131: 0x8000000000000000000000000000000f3,
    135: 0x8000000000000000000000000000000059,
    138: 0x4000000000000000000000000000000016d,
    148: 0x100000000000000000000000000000000000a9,
    155: 0x8000000000000000000000000000000000000b1,
    156: 0x1000000000000000000000000000000000000069,
    162: 0x400000000000000000000000000000000000000e7,
    166: 0x400000000000000000000000000000000000000063,
    172: 0x10000000000000000000000000000000000000000003,
    178: 0x400000000000000000000000000000000000000000185,
    179: 0x800000000000000000000000000000000000000000017,
    180: 0x1000000000000000000000000000000000000000000009,
    183: 0x8000000000000000000000000000000000000000000191,
    191: 0x8000000000000000000000000000000000000000000000bb,
    196: 0x10000000000000000000000000000000000000000000000009,
    200: 0x10000000000000000000000000000000000000000000000002d,
    204: 0x1000000000000000000000000000000000000000000000000035,
    210: 0x40000000000000000000000000000000000000000000000000081,
    224: 0x1000000000000000000000000000000000000000000000000000001b5,
    226: 0x4000000000000000000000000000000000000000000000000000000f5,
    231: 0x8000000000000000000000000000000000000000000000000000000095,
    239: 0x80000000000000000000000000000000000000000000000000000000003f,
    243: 0x8000000000000000000000000000000000000000000000000000000000123,
    268: 0x10000000000000000000000000000000000000000000000000000000000000000387,
    292: 0x1000000000000000000000000000000000000000000000000000000000000000000000008b,
    316: 0x1000000000000000000000000000000000000000000000000000000000000000000000000000016b,
    346: 0x4000000000000000000000000000000000000000000000000000000000000000000000000000000000000e7,
    348: 0x1000000000000000000000000000000000000000000000000000000000000000000000000000000000000191,
    372: 0x100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000016d,
    378: 0x40000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000251,
    388: 0x10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000099,
    418: 0x400000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000077,
    420: 0x1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000081,
    442: 0x4000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000a5,
    460: 0x10000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000223,
    466: 0x4000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003c9,
    490: 0x4000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000002a1,
}
