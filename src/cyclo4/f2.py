"""Polynomials over the two-element field, packed as int bitmasks.

Bit i of the mask is the coefficient of X**i. These are internal helpers:
arithmetic, gcd and inverses for the LFSR synthesis; for constructing
basic irreducible moduli, an irreducibility test (Ben-Or's first steps,
then Rabin's) and the ordered search for the canonical (lexicographically
smallest) irreducible of each degree; and powers in the residue field
GF(2)[X]/(h), from which ``galois.find_gamma`` lifts its unit of order p.

Products, quotients and powers take _W = 4 bits (a hex digit) per step,
from tables of 16 multiples or powers. Remainders, gcds and inverses
cancel the leading term of the higher-degree operand per step, by XOR
with the other one, shifted: Euclid's quotients are mostly 1-2 bits, and
a table of a long modulus's multiples did not pay in ``mod``. Each loop
carries the running degree and reads ``bit_length`` once per step.

The ordered search tries X**r + l for the odd l in increasing order. Most
candidates have a small factor, which the test looks for first: X + 1,
then its small Ben-Or steps on h folded mod X**(2**i - 1) - 1, with no
gcd at degree r. Its other steps square by a table spread and shifts at
the few set bits of h's low part. Between the two, the test strikes the
candidates whose discriminant mod 8 shows them reducible by Swan's
theorem, from work mod 8 on k x k matrices (k = deg l, where
(k + 1)**2 <= r).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache

from .primes import factorize

# Ben-Or's steps taken before the test runs as Rabin's: every step that
# runs folded (2**i <= r), then this many at full size. A full-size step
# costs a gcd at degree r but stops a candidate with a small factor before
# its r squarings. Over 4 .. 12 (best of 5, 2-vCPU VM, Python 3.11.7),
# the eight searches at r = 244 .. 375 took 28.7 ms in all at 8 and 9,
# 31-32 ms at 4 .. 6; the one at r = 1018 took 108-115 ms at 10 .. 12
# against 121 ms at 8, and the one at r = 4002 206-216 ms at 9 .. 12
# against 235 ms at 8.
_BEN_OR_STEPS = 8

# Below this degree a fourth power by base-16 digits and folds costs less
# than two squarings (r = 246: 0.8x, 700: 1.0x, 1018: 1.1x, 4002: 1.7x).
_FOURTH_POWER_BELOW = 640

# Bits per step of mul, quo_rem and powmod, fixed at 4: ``_digits`` reads
# hex digits. Best of 7, in ms, on the sweep's operands (p = 503 .. 1000)
# and find_gamma's at the 8 rings primes, per bit / W = 2 / 4 / 8 (2-vCPU
# VM): mul 0.88 / 0.32 / 0.20 / 0.45, quo_rem 5.6 / 4.6 / 2.5 / 3.2, powmod
# 2.87 / 2.06 / 1.98 / 9.9 (its 256 powers).
_W = 4
# hex digit character -> its value, for ``_digits``
_HEX_VALUE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))

# byte b -> its low (high) nibble with bit k moved to bit 2k
_SPREAD_NIBBLE = (0, 1, 4, 5, 16, 17, 20, 21, 64, 65, 68, 69, 80, 81, 84, 85)
_SPREAD_LOW = bytes(_SPREAD_NIBBLE[b & 15] for b in range(256))
_SPREAD_HIGH = bytes(_SPREAD_NIBBLE[b >> 4] for b in range(256))


def degree(a: int) -> int:
    """Degree of the bitmask polynomial; -1 for the zero polynomial."""
    return a.bit_length() - 1


def _set_bits(x: int) -> list[int]:
    return [j for j in range(x.bit_length()) if x >> j & 1]


def _digits(x: int, count: int) -> bytearray:
    """The count lowest hex digits of x, most significant first."""
    return bytearray(format(x & (1 << 4 * count) - 1, f"0{count}x"), "ascii").translate(_HEX_VALUE)


def _multiples(a: int) -> list[int]:
    """u*a for u = 0 .. 2**_W - 1, indexed by u."""
    table = [0, a]
    for k in range(1, _W):
        shifted = a << k
        table += [m ^ shifted for m in table]
    return table


def mul(a: int, b: int) -> int:
    """The product, by the comb method (López and Dahab, "High-speed
    software multiplication in F_2^m", INDOCRYPT 2000): the shorter factor
    is read _W bits at a time from the top against a table of the 2**_W
    multiples of the longer one; below 3 * 2**_W bits, by its set bits."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    if b.bit_length() < 3 << _W:
        return _shifted(a, _set_bits(b))
    table = _multiples(a)
    res = 0
    for d in _digits(b, -(-b.bit_length() // _W)):
        res = res << _W ^ table[d]
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
    """Euclid's algorithm (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, ch. 3) with no swaps: one inner loop cancels a's leading
    term with a shifted b until deg a < deg b, the next reduces b by a the
    same way. Each inner loop is one remainder step."""
    da, db = a.bit_length(), b.bit_length()
    while db:
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        if not da:
            return b
        while db >= da:
            b ^= a << (db - da)
            db = b.bit_length()
    return a


def inverse_mod(a: int, m: int) -> int:
    """Inverse of a modulo m, for gcd(a, m) = 1.

    The extended form of ``gcd``'s loops: each remainder r carries its
    cofactor s with s*a = r mod m, and a step r0 ^= r1 << k takes
    s0 ^= s1 << k with it. As in the textbook extended Euclid, the cofactor
    of the last nonzero remainder has degree below deg m, so it is the
    inverse, reduced, when that remainder is 1."""
    r0, r1 = m, mod(a, m)
    s0, s1 = 0, 1
    d0, d1 = r0.bit_length(), r1.bit_length()
    while d1:
        while d0 >= d1:
            k = d0 - d1
            r0 ^= r1 << k
            s0 ^= s1 << k
            d0 = r0.bit_length()
        if not d0:
            r0, s0 = r1, s1
            break
        while d1 >= d0:
            k = d1 - d0
            r1 ^= r0 << k
            s1 ^= s0 << k
            d1 = r1.bit_length()
    if r0 != 1:
        raise ZeroDivisionError("element is not invertible")
    return s0


def quo_rem(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by a nonzero b of degree d. A quotient of
    n >= 8 * 2**_W bits, n >= d/2, takes _W bits per step as in a
    table-driven CRC (Sarwate, CACM 1988): r, of degree below d, starts as a
    without its low k*_W bits, k = ceil(n/_W). Each step appends the next
    _W bits of a to r and cancels bits d .. d + _W - 1 of r by the one
    multiple u*b (deg u < _W) that has them; u is the next quotient digit.
    Other quotients take ``mod``'s steps with the quotient bits collected."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    d = b.bit_length() - 1
    n = a.bit_length() - d
    if n >= 8 << _W and 2 * n >= d:
        k = -(-n // _W)
        cancel, digit = [0] * (1 << _W), bytearray(256)
        for u, m in enumerate(_multiples(b)):
            cancel[m >> d], digit[m >> d] = m, b"0123456789abcdef"[u]
        r = a >> _W * k
        tops = _digits(a, k)
        for i, c in enumerate(tops):
            r = r << _W | c
            tops[i] = t = r >> d
            r ^= cancel[t]
        return int(tops.translate(digit), 1 << _W), r
    q = 0
    db, da = d + 1, n + d
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


def _frobenius(h: int) -> tuple[Callable[[int], int], ...]:
    """The maps t -> t**2 mod h and t -> t**4 mod h, for t of degree below
    r = deg h >= 1, and the reduction s -> s mod h they end with.

    The square is ``_spread``. For h = X**r + low with 2 deg low < r, the
    part above X**r is folded by X**r = low, by shifts at the set bits of
    low, until nothing is left above X**r: each round takes at least
    r - deg low > r/2 off the degree. Below r = _FOURTH_POWER_BELOW the
    fourth power reads the binary digits of t in base 16 (power-of-two
    bases are exempt from Python's limit on int-string digits) and folds
    the same way. A dense low part would take many rounds, so ``mod``
    reduces by h. Elsewhere the fourth power is two squares."""
    r = degree(h)
    mask = (1 << r) - 1
    low = h & mask
    if 2 * degree(low) >= r:

        def reduce(s: int) -> int:
            return mod(s, h)

    else:
        shifts = _set_bits(low)

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

    if r < _FOURTH_POWER_BELOW and 2 * degree(low) < r:
        return square, lambda t: reduce(int(bin(t)[2:], 16)), reduce
    return square, lambda t: square(square(t)), reduce


def powmod(a: int, n: int, h: int) -> int:
    """a**n mod h for n >= 0 and deg h >= 1, by the 2**_W-ary method: each
    base-2**_W digit d of n after the top one costs _W/2 fourth powers by
    ``_frobenius(h)`` and, for d > 0, one product by a**d mod h from a
    table: shifts at its set bits, then the squares' reduction. For a short
    base, such as ``galois.find_gamma``'s X, that is a shift or a few."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    a = mod(a, h)
    if n == 0:
        return 1
    _, fourth, reduce = _frobenius(h)
    powers, shifts = [1], _set_bits(a)
    while len(powers) < 1 << _W:
        powers.append(reduce(_shifted(powers[-1], shifts)))
    bits = [_set_bits(x) for x in powers]
    digits = _digits(n, -(-n.bit_length() // _W))
    t = powers[digits[0]]
    for d in digits[1:]:
        for _ in range(_W // 2):
            t = fourth(t)
        if d:
            t = reduce(_shifted(t, bits[d]))
    return t


def _shifted(t: int, shifts: list[int]) -> int:
    """t times the polynomial with the given set bits."""
    s = 0
    for j in shifts:
        s ^= t << j
    return s


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
    test for its first steps, Swan's parity test, then Rabin's.

    Step i asks whether gcd(X**(2**i) - X, h) = 1. Up to
    i = min(r // 2, floor(log2 r) + _BEN_OR_STEPS) it is Ben-Or's step
    (Ben-Or, "Probabilistic algorithms in finite fields", FOCS 1981): a
    nontrivial gcd is a factor of degree dividing i < r. Past them the test is
    Rabin's (Rabin, "Probabilistic algorithms in finite fields", SIAM J.
    Comput. 1980): a step only at i = r/q for each prime q | r, and at the
    end the check X**(2**r) = X mod h, which holds iff h is squarefree
    with every irreducible factor of degree dividing r. A proper factor's
    degree then divides some r/q, so the test is exact for every h.

    The steps run in order of cost, so that a small factor is found before
    the rest of the plan is built. For r >= 2, step 1 is the test for the
    factors X (h even) and X + 1 (an even number of terms). The steps with
    2**i <= r follow, on h folded mod X**(2**i - 1) - 1 (see
    ``_coprime_folded``). Then, before any gcd at degree r, the parity
    test rejects h = X**r + low when its discriminant mod 8
    (``_discriminant_mod8``) is not Swan's value for an irreducible of
    degree r: 1 for odd r, 5 for even r. It is exact too. Its cost grows
    as (deg low)**2 and more, so it runs only where (deg low + 1)**2 <= r,
    as for every candidate of the search at r = 57 .. 1100: there it costs
    at most a few gcds at degree r. At r = 466 it took 0.1 s on a
    product with deg low = 457, against under 1 ms for the whole test.

    Each other step takes gcd(t - X, h) on t = X**(2**i) mod h, which
    ``_frobenius`` produces, by fourth powers between two steps where it
    can. For a dense low part (a reciprocal, or an h handed to
    ``GaloisRing``) ``mod`` reduces the squares: the reciprocal of the
    canonical irreducible tests in about 15 ms at r = 466 and 70 ms at
    r = 1018, against 1.5 and 5 ms for the canonical one (2-vCPU VM).
    Folding its dense low part by shifts, or once by a long product before
    ``mod``, costs about 3x more per square. A negative or non-int h
    raises ValueError (``gcd`` would loop forever on a negative one)."""
    if not isinstance(h, int) or h < 0:
        raise ValueError("h must be a non-negative int bitmask")
    r = degree(h)
    if r < 2:
        return r == 1
    if not h & 1 or not h.bit_count() & 1:
        return False
    log = r.bit_length() - 1
    if not all(_coprime_folded(h, i) for i in range(2, min(r // 2, log) + 1)):
        return False
    low = h ^ 1 << r
    if low.bit_length() ** 2 <= r and _discriminant_mod8(r, low) not in (None, 5 - 4 * (r & 1)):
        return False
    full = set(range(log + 1, min(r // 2, log + _BEN_OR_STEPS) + 1))
    full.update(r // q for q in factorize(r) if r // q > log)
    square, fourth, _ = _frobenius(h)
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


def _discriminant_mod8(r: int, low: int) -> int | None:
    """D mod 8 for the discriminant D of H = X**r + L, where L is the lift
    of an odd low with 0/1 coefficients and k = deg low < r; 0 when D is
    even; None when r <= 3k - 2d (d below), which this test leaves open.

    Swan's theorem (Swan, "Factorization of polynomials over finite
    fields", Pacific J. Math. 12, 1962; Stickelberger's theorem at the
    prime 2): when h = H mod 2 is squarefree with s irreducible factors,
    D is odd and D = 1 (mod 8) if r - s is even, D = 5 if it is odd. When
    h is not squarefree, D = disc(h) = 0 (mod 2). So an irreducible h has
    D = 1 (mod 8) for odd r and D = 5 for even r, and any other value
    shows h reducible.

    D = (-1)**(r(r-1)/2) * Res(H, H'), with Res(H, G) the product of G(a)
    over the roots a of H. At a root, a**r = -L(a), so a * H'(a) = M(a)
    with M = X * L' - r * L, whose coefficient j is (j - r) * l_j, and the
    roots multiply to (-1)**r * L(0) = (-1)**r. So
    D = (-1)**(r(r+1)/2) * Res(H, M), with M of degree at most k.

    If every coefficient of M is even, so is every M(a), and D. Otherwise
    let d be the highest degree of an odd one. Over the 2-adic integers
    Z_2, Hensel's lemma splits M = P * U with P monic of degree d,
    P = M (mod 2), and U = U(0) (mod 2), an odd constant. Two Newton steps
    give P mod 8: when M = Q * P + R with R = 0 (mod 2**i),
    M - (P + Q(0) * R) * Q = R * (1 - Q(0) * Q) = 0 (mod 2**(i+1)), as
    Q = Q(0) (mod 2), an odd constant. Then Res(H, M) = Res(H, P) *
    Res(H, U), and:

    - Res(H, P) = (-1)**(rd) * N, N the product of H(b) over the roots b
      of P: the determinant of multiplication by H on Z_2[X]/(P).
    - Res(H, U) is U(0)**r times the norm of 1 + 2w, for
      w = (U(a) - U(0)) / (2 U(0)), a polynomial in a of degree at most
      k - d with no constant term. The power sums of the roots of H
      vanish in degrees 0 < j < r - k (Newton's identities: H has no
      terms between X**k and X**r), so for r > 3k - 2d the traces of w
      and w**2 are 0, and the norm det(1 + 2w) = 1 + 2 e1 + 4 e2 (mod 8)
      is 1, as e1 = Tr(w) and 2 e2 = Tr(w)**2 - Tr(w**2). U(0)**r is 1
      (mod 8) for even r. For odd r, M(0) = -r is odd, and
      U(0) = -r * P(0) (mod 8).

    N mod 8 is the determinant mod 8 of the d x d matrix of the rows
    t * X**i mod P, t = X**r + L mod P, over Z/8. Elimination on odd
    pivots (units, each its own inverse mod 8) gives it exactly; a column
    with no odd entry left makes the matrix singular mod 2, and N and D
    even. There the polynomials are Python ints with a coefficient per
    w-bit slot, wide enough that no sum of products overflows into the
    next slot, and reduction mod P is Barrett's, exact for polynomials of
    degree below 2d: two products with mu = X**(2d-1) div P."""
    k = low.bit_length() - 1
    bits = [low >> j & 1 for j in range(k + 1)]
    m = [(j - r) * v & 7 for j, v in enumerate(bits)]
    d = max((j for j, v in enumerate(m) if v & 1), default=-1)
    if d < 0:
        return 0
    if r <= 3 * k - 2 * d:
        return None
    p = [v & 1 for v in m[:d]]  # P without its leading 1

    def remainder(a: list[int]) -> list[int]:
        """a mod P over Z/8, and above it the quotient (unreduced)."""
        a = a[:]
        for j in range(len(a) - 1, d - 1, -1):
            c = a[j] & 7
            for i, v in enumerate(p):
                a[j - d + i] -= c * v
        return a

    for _ in range(2):
        rem = remainder(m)
        p = [(v + rem[d] * s) & 7 for v, s in zip(p, rem)]
    det = (-1) ** (r * (r + 1) // 2 + r * d)
    if r & 1:
        det *= -r * (p[0] if d else 1)  # U(0)**r
    w = (100 * d).bit_length()

    def pack(coeffs) -> int:
        return sum((v & 7) << w * i for i, v in enumerate(coeffs))

    mask, mneg = pack([7] * d), pack([-v for v in p] + [-1])
    mu = pack(remainder([0] * (2 * d - 1) + [1])[d:])

    def reduce(a: int) -> int:
        q = (a >> w * d & mask) * mu >> w * (d - 1) & mask
        return a + q * mneg & mask

    t = 1
    for bit in bin(r)[2:]:
        t = reduce(t * t << w * (bit == "1"))
    rows = [t + pack(remainder(bits)[:d]) & mask]
    for _ in range(1, d):
        rows.append(reduce(rows[-1] << w))
    for j in range(d):
        s = w * j
        i = next((i for i in range(j, d) if rows[i] >> s & 1), None)
        if i is None:
            return 0
        if i != j:
            rows[i], rows[j], det = rows[j], rows[i], -det
        u = rows[j] >> s & 7
        det *= u
        for i in range(j + 1, d):
            f = -(rows[i] >> s) * u & 7
            if f:
                rows[i] = rows[i] + f * rows[j] & mask
    return det & 7


@lru_cache(maxsize=None)
def lex_smallest_irreducible(r: int) -> int:
    """The irreducible of degree r whose coefficients, read high to low
    as a binary number, are smallest: X for r = 1, and otherwise the
    first X**r + l, for the odd l in increasing order (X divides the
    others), that passes ``is_irreducible``."""
    if r < 1:
        raise ValueError("degree must be positive")
    if r == 1:
        return 2
    for h in range((1 << r) | 1, 2 << r, 2):
        if is_irreducible(h):
            return h
    raise RuntimeError(f"internal: no irreducible of degree {r} found")
