"""Polynomials over the two-element field, packed as int bitmasks.

Bit i of the mask is the coefficient of X**i. These are internal helpers:
arithmetic, gcd and inverses for the LFSR synthesis, and for constructing
basic irreducible moduli, an irreducibility test (Ben-Or's first steps,
then Rabin's) and the ordered search for the canonical (lexicographically
smallest) irreducible of each degree.

Division, remainders, gcd and inverses all run on one step: cancel the
leading term of the higher-degree operand by XOR with the other one,
shifted. Each loop carries the running degree, reads ``bit_length`` once
per step and calls no other function per step.
"""

from __future__ import annotations

from functools import lru_cache

from .primes import factorize

# Ben-Or's gcd steps taken before the test runs as Rabin's. Each costs a
# gcd but stops a candidate with a small factor early; over 12 .. 32, the
# ordered search summed over r = 244 .. 375 and at r = 1018 was fastest
# for 16 .. 24.
_BEN_OR_STEPS = 20


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
    """The remainder of a by a nonzero m."""
    if not m:
        raise ZeroDivisionError("division by the zero polynomial")
    dm = m.bit_length()
    da = a.bit_length()
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length()
    return a


def mulmod(a: int, b: int, m: int) -> int:
    return mod(mul(a, b), m)


def gcd(a: int, b: int) -> int:
    """Euclid's algorithm in one loop (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, ch. 3): each step either swaps the pair so that a
    has the higher degree, or cancels a's leading term with a shifted b.
    The cancellations between two swaps are one remainder step."""
    da, db = a.bit_length(), b.bit_length()
    while db:
        if da < db:
            a, b, da, db = b, a, db, da
        else:
            a ^= b << (da - db)
            da = a.bit_length()
    return a


def inverse_mod(a: int, m: int) -> int:
    """Inverse of a modulo m, for gcd(a, m) = 1.

    The extended form of ``gcd``'s loop: each remainder r carries its
    cofactor s with s*a = r mod m, and a step r0 ^= r1 << k takes
    s0 ^= s1 << k with it. As in the textbook extended Euclid, the cofactor
    of the last nonzero remainder has degree below deg m, so it is the
    inverse, reduced, when that remainder is 1."""
    r0, r1 = m, mod(a, m)
    s0, s1 = 0, 1
    d0, d1 = r0.bit_length(), r1.bit_length()
    while d1:
        if d0 < d1:
            r0, r1, s0, s1, d0, d1 = r1, r0, s1, s0, d1, d0
        else:
            k = d0 - d1
            r0 ^= r1 << k
            s0 ^= s1 << k
            d0 = r0.bit_length()
    if r0 != 1:
        raise ZeroDivisionError("element is not invertible")
    return s0


def quo_rem(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by a nonzero b, as ``mod`` steps with
    the quotient bits collected."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    q = 0
    db = b.bit_length()
    da = a.bit_length()
    while da >= db:
        shift = da - db
        q |= 1 << shift
        a ^= b << shift
        da = a.bit_length()
    return q, a


def exact_div(a: int, b: int) -> int:
    """The quotient a / b; raises ValueError unless b divides a."""
    q, r = quo_rem(a, b)
    if r:
        raise ValueError("not divisible")
    return q


def is_irreducible(h: int) -> bool:
    """Irreducibility over the two-element field, r = deg h: Ben-Or's
    test for its first steps, then Rabin's.

    The loop squares t = X**(2**i) mod h for i = 1 .. r. For
    i <= min(r // 2, _BEN_OR_STEPS) it takes Ben-Or's step (Ben-Or,
    "Probabilistic algorithms in finite fields", FOCS 1981): a nontrivial
    gcd(t - X, h) is a factor of degree dividing i < r. Most reducible
    candidates have a small factor and stop there, and for r <= 41 these
    are all of Ben-Or's steps. Past them it runs Rabin's test
    (Rabin, "Probabilistic algorithms in finite fields", SIAM J. Comput.
    1980): a gcd only at i = r/q for each prime q | r, and at i = r the
    check t = X mod h, which holds iff h is squarefree with every
    irreducible factor of degree dividing r. A proper factor's degree then
    divides some r/q, so the test is exact for every h.

    Squaring over the two-element field spreads the bits: bit k moves to
    bit 2k, which is reading the binary digits of t in base 4
    (power-of-two bases are exempt from Python's limit on int-string
    digits, so any r works). The part above X**r is folded once by
    X**r = low, h = X**r + low, and ``mod`` reduces only what is left,
    about deg low bits. That is cheap for the sparse low parts the ordered
    search meets. An irreducible with a dense low part, such as the
    reciprocal of a sparse one, costs a long product per step instead and
    tests about 2x slower than by Ben-Or's test alone (r = 466: 23 -> 45
    ms, r = 1018: 139 -> 302 ms)."""
    r = degree(h)
    if r < 1:
        return False
    mask = (1 << r) - 1
    low = h & mask
    x = mod(2, h)
    ben_or = min(r // 2, _BEN_OR_STEPS)
    checkpoints = {r // q for q in factorize(r)}
    t = x
    for i in range(1, r + 1):
        s = int(bin(t)[2:], 4)
        t = mod((s & mask) ^ mul(s >> r, low), h)
        if (i <= ben_or or i in checkpoints) and gcd(t ^ x, h) != 1:
            return False
    return t == x


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
