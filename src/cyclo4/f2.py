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

The ordered search spends its time on the candidates with no small
factor: each costs r squarings mod h and a gcd at degree r per full-size
test step. So it first sieves out every candidate with a factor of degree
2 .. 8 by its residues, as Brent and Zimmermann's trinomial searches do
("Algorithms for finding almost irreducible and almost primitive
trinomials", 2003). The test takes its small Ben-Or steps on h folded
mod X**(2**i - 1) - 1, with no gcd at degree r, and squares by a table
spread and shifts at the few set bits of h's low part.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import lru_cache

from .primes import factorize

# Ben-Or's steps taken before the test runs as Rabin's: every step that
# runs folded (2**i <= r), then this many at full size. A full-size step
# costs a gcd at degree r but stops a candidate with a small factor before
# its r squarings. Over 4 .. 12, the searches at r = 244 .. 375 were
# fastest at 7 or 8, the one at r = 1018 at 10 .. 12 (about 10% faster
# than at 8); at r = 8000, 20 .. 40 steps in all were alike within the
# noise (sweep in BENCH_irreducible_search.json).
_BEN_OR_STEPS = 8

# The ordered search sieves out candidates with an irreducible factor of
# degree 2 .. _SIEVE_DEGREE.
_SIEVE_DEGREE = 8

# Below this degree a fourth power by base-16 digits and folds costs less
# than two squarings (r = 246: 0.8x, 700: 1.0x, 1018: 1.1x, 4002: 1.7x).
_FOURTH_POWER_BELOW = 640

# byte b -> its low (high) nibble with bit k moved to bit 2k
_SPREAD_NIBBLE = (0, 1, 4, 5, 16, 17, 20, 21, 64, 65, 68, 69, 80, 81, 84, 85)
_SPREAD_LOW = bytes(_SPREAD_NIBBLE[b & 15] for b in range(256))
_SPREAD_HIGH = bytes(_SPREAD_NIBBLE[b >> 4] for b in range(256))


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


def _spread(t: int) -> int:
    """t(X)**2 without reduction: bit k of t moves to bit 2k. Each byte of
    t becomes two bytes of the square, its low and its high nibble spread
    by a 256-entry table each."""
    n = (t.bit_length() + 7) >> 3
    b = t.to_bytes(n, "little")
    s = bytearray(2 * n)
    s[::2] = b.translate(_SPREAD_LOW)
    s[1::2] = b.translate(_SPREAD_HIGH)
    return int.from_bytes(s, "little")


def _frobenius(h: int) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """The maps t -> t**2 mod h and t -> t**4 mod h, for t of degree below
    r = deg h >= 1.

    The square is ``_spread``. For h = X**r + low with 2 deg low < r, the
    part above X**r is folded by X**r = low, by shifts at the set bits of
    low, until nothing is left above X**r: each round takes at least
    r - deg low > r/2 off the degree. Below r = _FOURTH_POWER_BELOW the
    fourth power reads the binary digits of t in base 16 (power-of-two
    bases are exempt from Python's limit on int-string digits) and folds
    the same way. A dense low part would take many rounds, so ``mod``
    reduces its squares. Elsewhere the fourth power is two squares."""
    r = degree(h)
    mask = (1 << r) - 1
    low = h & mask
    if 2 * degree(low) >= r:

        def square(t: int) -> int:
            return mod(_spread(t), h)

    else:
        shifts = [j for j in range(low.bit_length()) if low >> j & 1]

        def reduce(s: int) -> int:
            hi = s >> r
            while hi:
                s &= mask
                for j in shifts:
                    s ^= hi << j
                hi = s >> r
            return s

        def square(t: int) -> int:
            return reduce(_spread(t))

        if r < _FOURTH_POWER_BELOW:
            return square, lambda t: reduce(int(bin(t)[2:], 16))
    return square, lambda t: square(square(t))


def _fold(h: int, n: int) -> int:
    """h mod X**n - 1, for n >= 1: X**n = 1 adds up the n-bit pieces of h.
    X**n - 1 divides X**(n * 2**k) - 1, so h is folded by the widest such
    modulus first, halving its length in each round."""
    w = n
    while 2 * w < h.bit_length():
        w *= 2
    while w >= n:
        if h >> w:
            h = (h & ((1 << w) - 1)) ^ (h >> w)
        w >>= 1
    return h


def _coprime_folded(h: int, i: int) -> bool:
    """Whether gcd(X**(2**i) - X, h) = 1, for nonzero h and i >= 1, without
    a gcd at the size of h: X**(2**i) - X = X * (X**n - 1), n = 2**i - 1.
    X divides both when it divides h. Otherwise the gcd is
    gcd(X**n - 1, h mod X**n - 1), of degree below n."""
    if not h & 1:
        return False
    n = (1 << i) - 1
    return gcd((1 << n) | 1, _fold(h, n)) == 1


def is_irreducible(h: int) -> bool:
    """Irreducibility over the two-element field, r = deg h: Ben-Or's
    test for its first steps, then Rabin's.

    Step i asks whether gcd(X**(2**i) - X, h) = 1. Up to
    i = min(r // 2, floor(log2 r) + _BEN_OR_STEPS) it is Ben-Or's step
    (Ben-Or, "Probabilistic algorithms in finite fields", FOCS 1981): a
    nontrivial gcd is a factor of degree dividing i < r. Past them the test is
    Rabin's (Rabin, "Probabilistic algorithms in finite fields", SIAM J.
    Comput. 1980): a step only at i = r/q for each prime q | r, and at the
    end the check X**(2**r) = X mod h, which holds iff h is squarefree
    with every irreducible factor of degree dividing r. A proper factor's
    degree then divides some r/q, so the test is exact for every h.

    A step with 2**i <= r runs first, on h folded mod X**(2**i - 1) - 1
    (see ``_coprime_folded``). Each other step takes gcd(t - X, h) on
    t = X**(2**i) mod h, which ``_frobenius`` produces, by fourth powers
    between two steps where it can. For a dense low part (a reciprocal,
    or a modulus handed to ``GaloisRing``) ``mod`` reduces the squares:
    the reciprocal of the canonical irreducible tests in about 15 ms at
    r = 466 and 70 ms at r = 1018, against 1.5 and 5 ms for the canonical
    one (2-vCPU VM). Folding its dense low part by shifts, or once by a
    long product before ``mod``, costs about 3x more per square."""
    r = degree(h)
    if r < 1:
        return False
    steps = set(range(1, min(r // 2, r.bit_length() - 1 + _BEN_OR_STEPS) + 1))
    steps.update(r // q for q in factorize(r))
    full = {i for i in steps if 1 << i > r}
    if not all(_coprime_folded(h, i) for i in sorted(steps - full)):
        return False
    square, fourth = _frobenius(h)
    x = t = mod(2, h)
    i = 0
    for stop in sorted(full) + [r]:
        while i + 2 <= stop:
            t, i = fourth(t), i + 2
        if i < stop:
            t, i = square(t), i + 1
        if i < r and gcd(t ^ x, h) != 1:
            return False
    return t == x


@lru_cache(maxsize=None)
def _sieve_moduli() -> tuple[int, ...]:
    """The irreducibles of degree 2 .. _SIEVE_DEGREE, in increasing order,
    by trial division by the smaller ones."""
    found = [2, 3]
    for q in range(4, 2 << _SIEVE_DEGREE):
        if all(mod(q, g) for g in found if 2 * degree(g) <= degree(q)):
            found.append(q)
    return tuple(found[2:])


@lru_cache(maxsize=None)
def _x_powers(q: int) -> tuple[int, ...]:
    """X**e mod an irreducible q of degree d >= 2 for e < 2**d - 1: a
    period of the powers of X, as X has order dividing 2**d - 1 mod q."""
    top = 1 << degree(q)
    out = [1]
    for _ in range(top - 2):
        e = out[-1] << 1
        out.append(e ^ q if e & top else e)
    return tuple(out)


def _multiples(q: int, k: int) -> list[int]:
    """The multiples of q of degree below k >= deg q."""
    out = [0]
    for j in range(k - degree(q)):
        out += [m ^ (q << j) for m in out]
    return out


def _candidate_lows(r: int) -> Iterator[int]:
    """The low parts l, increasing, of the candidates X**r + l, r >= 2,
    that no factor of degree at most min(r - 1, _SIEVE_DEGREE) divides.

    l runs over blocks [2**k, 2**(k + 1)), the first one [0, 2**k). l must
    be odd (X divides otherwise) and have an even number of terms (X + 1
    divides otherwise). A sieve modulus q divides X**r + l iff
    l = X**r mod q. In the block 2**k + j, j < 2**k, that is
    j = X**r + X**k mod q plus a multiple of q of degree below k: those j
    are struck."""
    moduli = [(q, _x_powers(q)) for q in _sieve_moduli() if degree(q) < r]
    base, k = 0, min(r, _SIEVE_DEGREE)
    while base < 1 << r:
        struck = set()
        for q, powers in moduli:
            n = len(powers)
            target = powers[r % n] ^ (powers[k % n] if base else 0)
            struck.update(map(target.__xor__, _multiples(q, k)))
        for j in range(1, 1 << k, 2):
            low = base | j
            if j not in struck and not bin(low).count("1") & 1:
                yield low
        if base:
            k += 1
        base = 1 << k


@lru_cache(maxsize=None)
def lex_smallest_irreducible(r: int) -> int:
    """The irreducible of degree r whose coefficients, read high to low
    as a binary number, are smallest.

    The ordered search tries X**r + l for increasing l. It skips the
    candidates that a sieve proves reducible (see ``_candidate_lows``) and
    returns the first one that passes ``is_irreducible``, so the result
    has passed exactly one irreducibility test in this call."""
    if r < 1:
        raise ValueError("degree must be positive")
    if r == 1:
        return 2
    for low in _candidate_lows(r):
        h = (1 << r) | low
        if is_irreducible(h):
            return h
    raise RuntimeError(f"internal: no irreducible of degree {r} found")
