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
  a rank-2 GF(2)[X]-module. Its basis [[h, c], [0, m']] is already in
  (deg g, 0)-shifted weak Popov form (Mulders and Storjohann, "On
  lattice reduction for polynomial matrices", 2003): g divides X**T + 1,
  so g(0) = 1 and m' = rev(g) has degree exactly deg g, while c is
  reduced mod m', so deg c < deg g <= deg h + deg g. Row 1 pivots
  strictly on U and row 2 on V, so no reduction step is needed: the
  linear complexity is deg h + deg g. Minimality is exact, not
  heuristic, by the predictable-degree property of that form. Each
  period costs a few GF(2) gcds, divisions and products on bitmask
  polynomials, and at most one modular inverse: c = 0, with no inverse,
  whenever its numerator vanishes mod m', as for the p = +-3 (mod 8)
  sequences.
* ``brute_force_minimal``: exhaustive search in lexicographic order,
  feasible for small periods; the independent oracle for the synthesis.
* ``theorem_lc``: the closed form by the residue class of p mod 8/16.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import index

from . import f2
from .primes import require_odd_prime
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
    """A linear-complexity value with a witness connection polynomial, its
    coefficients in 0..3 constant term first (1 + c1*X + ...)."""

    lc: int
    connection: tuple[int, ...]

    def __post_init__(self):
        if self.connection[0] != 1:
            raise ValueError("connection polynomial must have constant term 1")
        if len(self.connection) != self.lc + 1 or not self.connection[-1]:
            raise ValueError("connection degree must equal the complexity")


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
    """One period (or coefficient vector) as bytes, each value reduced
    mod 4. Bytes (a QuaternarySequence's period is bytes) take no Python
    loop; any other iterable, a generator included, is read once, and each
    of its values must be an integer: a float or a digit string is refused."""
    if isinstance(s, QuaternarySequence):
        s = s.values
    try:
        values = s.translate(_MOD4) if isinstance(s, bytes) else bytes(index(v) % 4 for v in s)
    except TypeError as exc:
        raise ValueError(f"not a period of integers: {exc}") from None
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
    k sums the n products a_i*b_j with i + j = k mod n, at most 9n, or n
    when both operands are 0/1 (as lift(g) and lift(u) are; they are
    tested only where that takes fewer bytes), below 256**width: no carry
    crosses a slot, and the low byte of a slot is its value mod 4.
    """
    a, b = _wrap(a, n), _wrap(b, n)
    width, narrow = ((9 * n).bit_length() + 7) // 8, (n.bit_length() + 7) // 8
    if narrow < width and not a.translate(None, b"\x00\x01") and not b.translate(None, b"\x00\x01"):
        width = narrow
    split = 8 * width * n
    t = _pack(a, width) * _pack(b, width)
    t = (t & ((1 << split) - 1)) + (t >> split)
    return t.to_bytes(width * n, "little")[::width].translate(_MOD4)


def verify_connection(s, connection) -> bool:
    """True iff the connection polynomial annihilates one period cyclically.

    The connection is its coefficients over Z4 (ints or bytes, read mod 4),
    constant term first. Behaves exactly like folding the product of the
    generating polynomial with the candidate modulo X**n - 1 and testing
    for zero, computed as one packed-integer cyclic convolution.
    """
    coeffs = _period_values(connection)
    if coeffs[0] != 1:
        raise ValueError("connection polynomial must have constant term 1")
    values = _period_values(s)
    return _cyclic_product(values, coeffs, len(values)) == bytes(len(values))


def minimal_connection(period) -> tuple[int, bytes]:
    """Least-degree cyclic annihilator with unit constant term over Z4.

    Returns ``(degree, coefficients)``, the coefficients as bytes,
    constant term first. Over GF(2) the problem is to find the least D
    with u, v such that u(0) = 1, v(0) = 0, deg u <= D - deg g,
    deg v <= D and W*u + S̄*v = 0 mod X**n + 1 (see the module docstring).
    Substituting X -> 1/X and reversing, U = X**(D - deg g) * u(1/X) and
    V = X**D * v(1/X), turns each such pair into a vector (U, V) with
    deg U + deg g = D > deg V of the module

        K = {(U, V) : A*U + B*V = 0 mod X**n + 1},
        A = rev(W) * X**deg g,  B = rev(S̄),

    and back, where rev(x) = X**(n - 1) * x(1/X) is the reversal of n
    coefficients (the common unit X**(n - 1) leaves K as it is). K has the
    basis [[h, c], [0, m']] with g1 = gcd(B, X**n + 1), m' = (X**n + 1)/g1,
    h = g1/gcd(A, g1) and c = (A/gcd(A, g1)) * (B/g1)**-1 mod m'; when
    B = 0, g1 = X**n + 1, m' = 1 and c = 0. This basis is already in
    (deg g, 0)-shifted weak Popov form (Mulders and Storjohann 2003):

    * g divides X**n + 1, so g(0) = 1 and m' = rev(g) has degree exactly
      deg g;
    * c is reduced mod m', so deg c < deg g <= deg h + deg g: row 1
      pivots strictly on U, and row 2 = (0, m') pivots on V.

    By the predictable-degree property no vector of K with pivot U has a
    smaller shifted degree than (h, c), so that row is the witness and
    the linear complexity is deg h + deg g.

    Three shortcuts keep the GF(2) work to what the basis needs:

    * X**deg g drops out of gcd(A, g1). g1 is the reversal of
      gcd(S̄, X**n + 1), whose top coefficient is 1, so g1(0) = 1 and X is
      coprime to g1: gcd(A, g1) = gcd(a0, g1) for a0 = rev(W). The factor
      stays in c's numerator (a0/gcd(a0, g1)) * X**deg g, which is
      reduced mod m' before the product.
    * c is that numerator times a unit mod m', so c = 0 exactly when the
      numerator is 0 mod m', and then no inverse is computed. This covers
      a0 = 0 (lift(g) alone annihilates, as for the p = 3 (mod 8)
      sequences, where deg m' is about 2p), m' = 1 (S̄ = 0), and m'
      dividing a0 (the p = 5 (mod 8) sequences, where h = g1).
    * When gcd(a0, g1) = 1 nothing is divided by it.
    """
    values = _period_values(period)
    n = len(values)
    if not any(values):
        return 0, b"\1"

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

    a0 = _reverse(w0, n)
    b = _reverse(sbar, n)
    # X**n + 1 is its own reciprocal, so g1 = gcd(b, X**n + 1) and m' are
    # the reciprocals of gcd(S̄, X**n + 1) and g.
    g1 = _reverse(sgcd, f2.degree(sgcd) + 1)
    m1 = _reverse(gbar, gdeg + 1)
    common = f2.gcd(a0, g1)
    if common == 1:
        h, num = g1, a0
    else:
        h, num = f2.exact_div(g1, common), f2.exact_div(a0, common)
    num = f2.mod(num << gdeg, m1)
    c = f2.mulmod(num, f2.inverse_mod(f2.exact_div(b, g1), m1), m1) if num else 0
    degree = f2.degree(h) + gdeg
    if degree > n:
        raise RuntimeError("internal: no annihilator up to the period length")

    # C0 + 2E = lift(g)*lift(u) over Z4; the v layer absorbs the carries E.
    ulift = _lift_reversed(h, degree - gdeg + 1)
    prod = _cyclic_product(glift, ulift, degree + 1)  # degree + 1 slots: no wrap
    vlift = _lift_reversed(c, degree + 1)
    # prod + 2*vlift, slot by slot: a slot holds at most 3 + 2, so no carry
    packed = int.from_bytes(prod, "little") + 2 * int.from_bytes(vlift, "little")
    coeffs = packed.to_bytes(degree + 1, "little").translate(_MOD4)
    if not coeffs[-1]:
        raise RuntimeError("internal: witness degree disagrees with the search")
    return degree, coeffs


def reeds_sloane(s) -> LfsrResult:
    """Linear complexity of the periodic sequence with a minimal witness.

    The result is verified to annihilate the period cyclically before it
    is returned; minimality is inherent to the synthesis.
    """
    values = _period_values(s)
    lc, coeffs = minimal_connection(values)
    if not verify_connection(values, coeffs):
        raise RuntimeError("internal: synthesized connection does not annihilate")
    return LfsrResult(lc=lc, connection=tuple(coeffs))


def brute_force_minimal(s) -> LfsrResult:
    """Exhaustive minimal connection polynomial, the independent oracle.

    Degrees are tried in ascending order up to the period n; at each
    degree L the 4**L coefficient vectors with constant term 1 are scanned
    in lexicographic order (c1 most significant) and the first annihilator
    wins. Degree n always has one: 1 + 3*X**n annihilates any period-n
    sequence.

    The residual S*C mod (X**n - 1, 4) is one int with a coefficient in
    every byte slot. Column k, the period rotated by k, is what c_k
    contributes, so each base-4 counter step adds the column of every
    digit it changes: a digit going up by one adds it once, and so does
    a digit wrapping from 3 to 0, as 4*column = 0. A slot holds at most
    3 + 3 before the mask, so no carry crosses a slot.
    """
    values = _period_values(s)
    n = len(values)
    if not any(values):
        return LfsrResult(lc=0, connection=(1,))

    start = _pack(values, 1)
    mask = _pack(b"\x03" * n, 1)
    for degree in range(1, n + 1):
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
            return LfsrResult(lc=degree, connection=(1, *digits))
    raise RuntimeError("internal: 1 + 3*X**n does not annihilate the period")
