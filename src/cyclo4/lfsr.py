"""Linear complexity over Z4: LFSR synthesis, brute force, closed forms.

The linear complexity of a period-T quaternary sequence is the least
degree of a connection polynomial C with C(0) = 1 and
S(X)*C(X) = 0 mod X**T - 1, S being the generating polynomial. Three
independent routes compute it:

* ``reeds_sloane``: register synthesis adapted to the chain ring Z4 by
  2-adic layering. Mod 2 the annihilation condition says that C mod 2 is
  a multiple of g = (X**T - 1)/gcd(S mod 2, X**T - 1) over GF(2). Writing
  C = C0 + 2*C1 with C0 the 0/1 lift of g*u, the mod-4 layer becomes
  W*u + (S mod 2)*v = 0 mod X**T - 1 over GF(2), where 2*W = S*lift(g)
  cyclically and v absorbs both C1 and the lift carries of g*u. An
  incremental GF(2) echelon over the shifted columns of W and S finds the
  least degree admitting a solution, together with a witness; minimality
  is exact, not heuristic, because degree-d solvability of the original
  problem and of the reduced linear problem coincide.
* ``brute_force_minimal``: exhaustive search in lexicographic order,
  feasible for small periods; the independent oracle for the synthesis.
* ``theorem_lc``: the closed form by the residue class of p mod 8/16.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import f2
from .primes import require_odd_prime
from .ringpoly import RingPolynomial, Z4
from .sequence import QuaternarySequence


class ResidueClass(enum.Enum):
    """Residue classes of odd primes driving the closed-form complexity."""

    THREE_MOD_8 = "3 mod 8"
    FIVE_MOD_8 = "5 mod 8 (-3)"
    ONE_MOD_16 = "1 mod 16"
    FIFTEEN_MOD_16 = "15 mod 16 (-1)"
    NINE_MOD_16 = "9 mod 16"
    SEVEN_MOD_16 = "7 mod 16 (-9)"

    @property
    def label(self) -> str:
        return self.value


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


def _period_values(s) -> tuple[int, ...]:
    if isinstance(s, QuaternarySequence):
        return s.values
    values = tuple(int(v) % 4 for v in s)
    if not values:
        raise ValueError("empty period")
    return values


def _fold_cyclic(prod: np.ndarray, n: int) -> np.ndarray:
    folded = np.zeros(n, dtype=np.int64)
    for start in range(0, len(prod), n):
        chunk = prod[start : start + n]
        folded[: len(chunk)] += chunk
    return folded


def verify_connection(s, connection: RingPolynomial) -> bool:
    """True iff the connection polynomial annihilates one period cyclically.

    Behaves exactly like folding the product of the generating polynomial
    with the candidate modulo X**n - 1 and testing for zero, computed as
    an exact integer cyclic convolution.
    """
    if connection.ring is not Z4:
        raise ValueError("connection polynomial must be over Z4")
    if connection.constant != Z4.one:
        raise ValueError("connection polynomial must have constant term 1")
    values = _period_values(s)
    cvec = np.array([c.value for c in connection.coeffs], dtype=np.int64)
    svec = np.array(values, dtype=np.int64)
    folded = _fold_cyclic(np.convolve(svec, cvec), len(values))
    return not np.any(folded % 4)


def _rotate(vec: int, n: int) -> int:
    """Multiply a GF(2) bitmask polynomial by X, modulo X**n - 1."""
    vec <<= 1
    if vec >> n:
        vec = (vec & ((1 << n) - 1)) | 1
    return vec


def minimal_connection(period) -> tuple[int, list[int]]:
    """Least-degree cyclic annihilator with unit constant term over Z4.

    Returns ``(degree, coefficients)``, constant term first. The search
    runs over GF(2) data only: candidate degrees d are admitted one at a
    time, each contributing one shifted column of W (the halved even part
    of S*lift(g)) and one of S mod 2 to a growing echelon; the first d
    whose column space reaches the target W yields the witness.
    """
    values = [v % 4 for v in _period_values(period)]
    n = len(values)
    if not any(values):
        return 0, [1]

    sbar = 0
    for i, v in enumerate(values):
        if v % 2:
            sbar |= 1 << i
    xn1 = (1 << n) | 1
    gbar = _gf2_quotient(xn1, f2.gcd(sbar, xn1)) if sbar else 1
    gdeg = f2.degree(gbar)

    glift = np.array([(gbar >> i) & 1 for i in range(gdeg + 1)], dtype=np.int64)
    folded = _fold_cyclic(np.convolve(np.array(values, dtype=np.int64), glift), n) % 4
    if np.any(folded % 2):
        raise RuntimeError("internal: S*lift(g) is not even cyclically")
    w0 = 0
    for i in range(n):
        if folded[i] & 2:
            w0 |= 1 << i

    # Incremental echelon: pivots[lead bit] = (vector, column combination).
    pivots: dict[int, tuple[int, int]] = {}
    columns: list[tuple[str, int]] = []

    def reduce(vec: int, combo: int) -> tuple[int, int]:
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                break
            pv, pc = pivots[top]
            vec ^= pv
            combo ^= pc
        return vec, combo

    def insert(vec: int, kind: str, i: int) -> bool:
        columns.append((kind, i))
        vec, combo = reduce(vec, 1 << (len(columns) - 1))
        if vec:
            pivots[vec.bit_length() - 1] = (vec, combo)
            return True
        return False

    residual, rcombo = reduce(w0, 0)
    ucol, vcol = w0, sbar
    degree = gdeg
    for i in range(1, gdeg + 1):
        vcol = _rotate(vcol, n)
        if insert(vcol, "v", i):
            residual, rcombo = reduce(residual, rcombo)
    while residual:
        degree += 1
        if degree > n:
            raise RuntimeError("internal: no annihilator up to the period length")
        ucol = _rotate(ucol, n)
        if insert(ucol, "u", degree - gdeg):
            residual, rcombo = reduce(residual, rcombo)
        vcol = _rotate(vcol, n)
        if insert(vcol, "v", degree):
            residual, rcombo = reduce(residual, rcombo)

    ubar, vbar = 1, 0
    for cid, (kind, i) in enumerate(columns):
        if (rcombo >> cid) & 1:
            if kind == "u":
                ubar ^= 1 << i
            else:
                vbar ^= 1 << i

    # C0 + 2E = lift(g)*lift(u) over Z4; the v layer absorbs the carries E.
    ulift = np.array(
        [(ubar >> i) & 1 for i in range(max(ubar.bit_length(), 1))], dtype=np.int64
    )
    prod = np.convolve(glift, ulift) % 4
    coeffs = []
    for i in range(max(len(prod), vbar.bit_length())):
        base = int(prod[i]) if i < len(prod) else 0
        carry = (base >> 1) & 1
        high = (carry + ((vbar >> i) & 1)) & 1
        coeffs.append((base & 1) + 2 * high)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) - 1 != degree:
        raise RuntimeError("internal: witness degree disagrees with the search")
    return degree, coeffs


def _gf2_quotient(a: int, b: int) -> int:
    q = 0
    while a.bit_length() >= b.bit_length() and a:
        shift = a.bit_length() - b.bit_length()
        q |= 1 << shift
        a ^= b << shift
    if a:
        raise ValueError("not divisible")
    return q


def reeds_sloane(s) -> LfsrResult:
    """Linear complexity of the periodic sequence with a minimal witness.

    The result is verified to annihilate the period cyclically before it
    is returned; minimality is inherent to the synthesis.
    """
    values = _period_values(s)
    lc, coeffs = minimal_connection(values)
    connection = RingPolynomial.from_ints(Z4, coeffs)
    result = LfsrResult(lc=lc, connection=connection)
    if not verify_connection(values, connection):
        raise RuntimeError("internal: synthesized connection does not annihilate")
    return result


def brute_force_minimal(s, degree_cap: int | None = None) -> LfsrResult:
    """Exhaustive minimal connection polynomial, the independent oracle.

    Degrees are tried in ascending order; at each degree the 4**L
    coefficient vectors with constant term 1 are scanned in lexicographic
    order (c1 most significant) and the first annihilator wins. The cap
    defaults to the period, which always suffices since 1 + 3*X**n is a
    connection polynomial of any period-n sequence.
    """
    values = _period_values(s)
    n = len(values)
    cap = n if degree_cap is None else degree_cap
    if cap < 0:
        raise ValueError("degree cap must be nonnegative")
    if not any(values):
        return LfsrResult(lc=0, connection=RingPolynomial.from_ints(Z4, [1]))

    svec = np.array(values, dtype=np.int64)
    for degree in range(1, cap + 1):
        # window[j, i] = s[(j - 1 - i) mod n]: residue j of the cyclic
        # product S*C receives c_{i+1} * window[j, i].
        window = np.empty((n, degree), dtype=np.int64)
        for i in range(degree):
            window[:, i] = np.roll(svec, i + 1)
        hit = _scan_degree(svec, window, degree)
        if hit is not None:
            return LfsrResult(
                lc=degree, connection=RingPolynomial.from_ints(Z4, [1] + hit)
            )
    raise ValueError(f"no connection polynomial of degree <= {cap} exists")


def _scan_degree(svec, window, degree: int) -> list[int] | None:
    """First coefficient vector (lexicographic) annihilating cyclically."""
    total = 4**degree
    batch = min(total, 1 << 16)
    for start in range(0, total, batch):
        idx = np.arange(start, min(start + batch, total), dtype=np.int64)
        coeffs = np.empty((len(idx), degree), dtype=np.int64)
        rest = idx
        for pos in range(degree - 1, -1, -1):
            coeffs[:, pos] = rest % 4
            rest = rest // 4
        residual = (svec[None, :] + coeffs @ window.T) % 4
        good = ~np.any(residual, axis=1)
        if np.any(good):
            row = int(np.argmax(good))
            return [int(c) for c in coeffs[row]]
    return None
