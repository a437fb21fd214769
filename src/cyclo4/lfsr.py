"""Linear complexity over Z4: LFSR synthesis, brute force, closed forms.

The linear complexity of a period-T quaternary sequence is the least
degree of a connection polynomial C with C(0) = 1 and
S(X)*C(X) = 0 mod X**T - 1, S being the generating polynomial. Three
independent routes compute it:

* ``reeds_sloane``: register synthesis adapted to the chain ring Z4 by
  2-adic layering. The name is kept for the documented interface; the
  solver is a module reduction, not the Reeds-Sloane recursion. Mod 2
  the annihilation condition says that C mod 2 is a multiple of
  g = (X**T - 1)/gcd(S mod 2, X**T - 1) over GF(2). Writing
  C = lift(g)*lift(u) + 2*lift(v), the mod-4 layer becomes
  W*u + (S mod 2)*v = 0 mod X**T - 1 over GF(2), where 2*W = S*lift(g)
  cyclically and v absorbs the lift carries of g*u. Under X -> 1/X the
  solutions of least degree are the vectors of least shifted degree in
  a rank-2 GF(2)[X]-module, which a (deg g, 0)-shifted weak Popov
  reduction of a 2x2 basis finds (Mulders and Storjohann, "On lattice
  reduction for polynomial matrices", 2003). Minimality is exact, not
  heuristic, by the predictable-degree property of that form. Each
  period costs O(T) big-int row operations on bitmask polynomials.
* ``brute_force_minimal``: exhaustive search in lexicographic order,
  feasible for small periods; the independent oracle for the synthesis.
* ``theorem_lc``: the closed form by the residue class of p mod 8/16.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import f2
from .galois import Z4
from .primes import require_odd_prime
from .ringpoly import RingPolynomial
from .sequence import QuaternarySequence


class ResidueClass(enum.Enum):
    """Residue classes of odd primes driving the closed-form complexity."""

    THREE_MOD_8 = "3 mod 8"
    FIVE_MOD_8 = "5 mod 8 (-3)"
    ONE_MOD_16 = "1 mod 16"
    FIFTEEN_MOD_16 = "15 mod 16 (-1)"
    NINE_MOD_16 = "9 mod 16"
    SEVEN_MOD_16 = "7 mod 16 (-9)"


@dataclass(frozen=True)
class LfsrResult:
    """A linear-complexity value with a witness connection polynomial."""

    lc: int
    connection: RingPolynomial

    def __post_init__(self):
        if self.connection.constant != Z4.one:
            raise ValueError("connection polynomial must have constant term 1")
        if self.connection.degree != self.lc:
            raise ValueError("connection degree must equal the complexity")

    def connection_ints(self) -> list[int]:
        """Coefficients constant term first, matching the 1 + c1*X + ... reading."""
        return [c.value for c in self.connection.coeffs]


def classify_prime(p: int) -> ResidueClass:
    require_odd_prime(p)
    m8 = p % 8
    if m8 == 3:
        return ResidueClass.THREE_MOD_8
    if m8 == 5:
        return ResidueClass.FIVE_MOD_8
    return {
        1: ResidueClass.ONE_MOD_16,
        15: ResidueClass.FIFTEEN_MOD_16,
        9: ResidueClass.NINE_MOD_16,
        7: ResidueClass.SEVEN_MOD_16,
    }[p % 16]


def theorem_lc(p: int) -> int:
    """Closed-form linear complexity of the period-2p sequence."""
    cls = classify_prime(p)
    return {
        ResidueClass.FIVE_MOD_8: 2 * p,
        ResidueClass.THREE_MOD_8: 2 * p - 1,
        ResidueClass.FIFTEEN_MOD_16: p,
        ResidueClass.ONE_MOD_16: p + 1,
        ResidueClass.SEVEN_MOD_16: (p + 1) // 2,
        ResidueClass.NINE_MOD_16: (p + 3) // 2,
    }[cls]


def _period_values(s) -> bytes:
    """One period as bytes, each value reduced mod 4. Bytes (and a
    QuaternarySequence) take no Python-level loop; any other iterable,
    a generator included, is read once."""
    if isinstance(s, QuaternarySequence):
        s = bytes(s.values)
    values = s.translate(_MOD4) if isinstance(s, bytes) else bytes(int(v) % 4 for v in s)
    if not values:
        raise ValueError("empty period")
    return values


# Coefficient sequences over Z4 travel as bytes, one coefficient per byte,
# constant term first.
_MOD4 = bytes(v & 3 for v in range(256))
_ASCII_BIT = tuple(bytes(48 + ((v >> k) & 1) for v in range(256)) for k in (0, 1))
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _layer(coeffs: bytes, k: int) -> int:
    """The GF(2) bitmask polynomial of bit k of each coefficient."""
    return int(coeffs[::-1].translate(_ASCII_BIT[k]), 2)


def _lift_reversed(x: int, length: int) -> bytes:
    """The 0/1 coefficients of X**(length - 1) * x(1/X), for a bitmask
    polynomial x of degree < length."""
    return format(x, f"0{length}b").encode().translate(_DIGITS)


def _lift(x: int, length: int) -> bytes:
    """The 0/1 coefficients of the bitmask polynomial x, padded to length."""
    return _lift_reversed(x, length)[::-1]


def _reverse(x: int, n: int) -> int:
    """X**(n - 1) * x(1/X), for a bitmask polynomial x of degree < n."""
    return int(format(x, f"0{n}b")[::-1], 2)


def _wrap(a: bytes, n: int) -> bytes:
    """a mod (X**n - 1, 4)."""
    if len(a) <= n:
        return a
    out = bytearray(a[:n])
    for i in range(n, len(a)):
        out[i % n] = (out[i % n] + a[i]) & 3
    return out


def _pack(a: bytes, width: int) -> int:
    """One int holding a[i] in the width-byte slot i."""
    buf = bytearray(len(a) * width)
    buf[::width] = a
    return int.from_bytes(buf, "little")


def _cyclic_product(a: bytes, b: bytes, n: int) -> bytes:
    """The coefficients of a*b mod (X**n - 1, 4), for coefficients in 0..3.

    Kronecker substitution: each operand becomes one int with a
    coefficient in every width-byte slot, one big-int product forms the
    whole convolution, and adding the part above slot n onto the low part
    wraps it. Both operands are first wrapped to n slots, so wrapped slot
    k sums the n products a_i*b_j with i + j = k mod n, at most
    9n < 256**width: no carry crosses a slot, and the low byte of a slot
    is its value mod 4.
    """
    width = ((9 * n).bit_length() + 7) // 8
    split = 8 * width * n
    t = _pack(_wrap(a, n), width) * _pack(_wrap(b, n), width)
    t = (t & ((1 << split) - 1)) + (t >> split)
    return t.to_bytes(width * n, "little")[::width].translate(_MOD4)


def verify_connection(s, connection: RingPolynomial) -> bool:
    """True iff the connection polynomial annihilates one period cyclically.

    Behaves exactly like folding the product of the generating polynomial
    with the candidate modulo X**n - 1 and testing for zero, computed as
    one packed-integer cyclic convolution.
    """
    if connection.ring is not Z4:
        raise ValueError("connection polynomial must be over Z4")
    if connection.constant != Z4.one:
        raise ValueError("connection polynomial must have constant term 1")
    values = _period_values(s)
    coeffs = bytes(c.value for c in connection.coeffs)
    return _cyclic_product(values, coeffs, len(values)) == bytes(len(values))


def minimal_connection(period) -> tuple[int, list[int]]:
    """Least-degree cyclic annihilator with unit constant term over Z4.

    Returns ``(degree, coefficients)``, constant term first. Over GF(2)
    the problem is to find the least D with u, v such that u(0) = 1,
    v(0) = 0, deg u <= D - deg g, deg v <= D and W*u + S̄*v = 0 mod
    X**n + 1 (see the module docstring). Substituting X -> 1/X and
    reversing, U = X**(D - deg g) * u(1/X) and V = X**D * v(1/X), turns
    each such pair into a vector (U, V) with deg U + deg g = D > deg V of
    the module

        K = {(U, V) : A*U + B*V = 0 mod X**n + 1},
        A = rev(W) * X**deg g,  B = rev(S̄),

    and back, where rev(x) = X**(n - 1) * x(1/X) is the reversal of n
    coefficients (the common unit X**(n - 1) leaves K as it is). K has the
    basis [[h, c], [0, m']] with g1 = gcd(B, X**n + 1), m' = (X**n + 1)/g1,
    h = g1/gcd(A, g1) and c = (A/gcd(A, g1)) * (B/g1)**-1 mod m'; when
    B = 0, g1 = X**n + 1, m' = 1 and c = 0. Reducing it to
    (deg g, 0)-shifted weak Popov form (Mulders and Storjohann 2003), ties
    pivoting on V, leaves one row whose pivot is U. By the
    predictable-degree property no vector of K with pivot U has a smaller
    shifted degree, so that row is the witness and its shifted degree is
    the linear complexity.
    """
    values = _period_values(period)
    n = len(values)
    if not any(values):
        return 0, [1]

    xn1 = (1 << n) | 1
    sbar = _layer(values, 0)
    sgcd = f2.gcd(sbar, xn1)
    gbar = f2.exact_div(xn1, sgcd)
    gdeg = f2.degree(gbar)
    glift = _lift(gbar, gdeg + 1)
    folded = _cyclic_product(values, glift, n)
    if _layer(folded, 0):
        raise RuntimeError("internal: S*lift(g) is not even cyclically")
    w0 = _layer(folded, 1)

    a = _reverse(w0, n) << gdeg
    b = _reverse(sbar, n)
    # X**n + 1 is its own reciprocal, so g1 = gcd(b, X**n + 1) and m' are
    # the reciprocals of gcd(S̄, X**n + 1) and g. When b = 0, g1 = X**n + 1,
    # m' = 1, and c = 0 as inverse_mod(0, 1) = 0.
    g1 = _reverse(sgcd, f2.degree(sgcd) + 1)
    m1 = _reverse(gbar, gdeg + 1)
    common = f2.gcd(a, g1)
    h = f2.exact_div(g1, common)
    c = f2.mulmod(f2.exact_div(a, common), f2.inverse_mod(f2.exact_div(b, g1), m1), m1)
    urev, vrev = _u_pivot_row((h, c), (0, m1), gdeg)
    degree = f2.degree(urev) + gdeg
    if degree > n:
        raise RuntimeError("internal: no annihilator up to the period length")

    # C0 + 2E = lift(g)*lift(u) over Z4; the v layer absorbs the carries E.
    ulift = _lift_reversed(urev, degree - gdeg + 1)
    prod = _cyclic_product(glift, ulift, degree + 1)  # degree + 1 slots: no wrap
    vlift = _lift_reversed(vrev, degree + 1)
    coeffs = [(x + 2 * y) & 3 for x, y in zip(prod, vlift)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) - 1 != degree:
        raise RuntimeError("internal: witness degree disagrees with the search")
    return degree, coeffs


def _u_pivot_row(r1: tuple[int, int], r2: tuple[int, int], shift: int) -> tuple[int, int]:
    """The row with pivot U of the (shift, 0)-weak Popov form of [r1, r2].

    A row (U, V) has shifted degree max(deg U + shift, deg V) and pivots
    on V when deg V reaches it. While both rows pivot on the same entry,
    the row of larger shifted degree loses its leading term to a shifted
    copy of the other row (a simple transformation); each step lowers the
    pair (shifted degree, pivot) of that row, so the loop ends.
    """

    def lead(row):
        u, v = row
        du = u.bit_length() - 1 + shift if u else -1
        dv = v.bit_length() - 1
        return (dv, 1) if dv >= du else (du, 0)

    (d1, p1), (d2, p2) = lead(r1), lead(r2)
    while p1 == p2:
        if d1 < d2:
            r1, r2, d1, d2 = r2, r1, d2, d1
        k = d1 - d2
        r1 = (r1[0] ^ (r2[0] << k), r1[1] ^ (r2[1] << k))
        d1, p1 = lead(r1)
    return r1 if p1 == 0 else r2


def reeds_sloane(s) -> LfsrResult:
    """Linear complexity of the periodic sequence with a minimal witness.

    The result is verified to annihilate the period cyclically before it
    is returned; minimality is inherent to the synthesis.
    """
    values = _period_values(s)
    lc, coeffs = minimal_connection(values)
    # verify_connection's test, without a round trip through Z4 elements
    if _cyclic_product(values, bytes(coeffs), len(values)) != bytes(len(values)):
        raise RuntimeError("internal: synthesized connection does not annihilate")
    return LfsrResult(lc=lc, connection=RingPolynomial.from_ints(Z4, coeffs))


def brute_force_minimal(s, degree_cap: int | None = None) -> LfsrResult:
    """Exhaustive minimal connection polynomial, the independent oracle.

    Degrees are tried in ascending order; at each degree the 4**L
    coefficient vectors with constant term 1 are scanned in lexicographic
    order (c1 most significant) and the first annihilator wins. The cap
    defaults to the period, which always suffices since 1 + 3*X**n is a
    connection polynomial of any period-n sequence.

    The residual S*C mod (X**n - 1, 4) is one int with a coefficient in
    every byte slot. Column k, the period rotated by k, is what c_k
    contributes, so each base-4 counter step adds the column of every
    digit it changes: a digit going up by one adds it once, and so does
    a digit wrapping from 3 to 0, as 4*column = 0. A slot holds at most
    3 + 3 before the mask, so no carry crosses a slot.
    """
    values = _period_values(s)
    n = len(values)
    cap = n if degree_cap is None else degree_cap
    if cap < 0:
        raise ValueError("degree cap must be nonnegative")
    if not any(values):
        return LfsrResult(lc=0, connection=RingPolynomial.from_ints(Z4, [1]))

    start = _pack(values, 1)
    mask = _pack(b"\x03" * n, 1)
    for degree in range(1, cap + 1):
        shifts = [k % n for k in range(1, degree + 1)]
        columns = [_pack(values[-k:] + values[:-k], 1) for k in shifts]
        digits = [0] * degree
        residual = start
        while residual:
            i = degree - 1
            while i >= 0 and digits[i] == 3:
                digits[i] = 0
                residual = (residual + columns[i]) & mask
                i -= 1
            if i < 0:
                break
            digits[i] += 1
            residual = (residual + columns[i]) & mask
        if not residual:
            return LfsrResult(
                lc=degree, connection=RingPolynomial.from_ints(Z4, [1] + digits)
            )
    raise ValueError(f"no connection polynomial of degree <= {cap} exists")
