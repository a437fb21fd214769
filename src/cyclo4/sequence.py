"""The period-2p quaternary sequence and its generating polynomial.

One period is filled from the four cyclotomic classes: 0 on {0} and D0,
1 on D1, 2 on {p} and E0, 3 on E1. The generating polynomial collects one
period as coefficients over Z4; the class indicator polynomials S0, S1,
T0, T1 assemble it as 2*X**p + S1 + 2*T0 + 3*T1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomy import GeneralizedCyclotomy, build_classes
from .galois import Z4
from .primes import require_odd_prime
from .ringpoly import RingPolynomial


@dataclass(frozen=True)
class QuaternarySequence:
    """One period of the quaternary sequence for an odd prime p."""

    p: int
    values: tuple[int, ...]

    def __post_init__(self):
        require_odd_prime(self.p)
        if len(self.values) != 2 * self.p:
            raise ValueError("period must have length 2p")
        if any(v not in (0, 1, 2, 3) for v in self.values):
            raise ValueError("sequence values must lie in {0, 1, 2, 3}")
        if self.values[0] != 0 or self.values[self.p] != 2:
            raise ValueError("anchors violated: s_0 = 0 and s_p = 2 are forced")

    def text(self) -> str:
        """The period as a digit line, e.g. '002231' for p = 3."""
        return "".join(str(v) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)


def generate_sequence(p: int, classes: GeneralizedCyclotomy | None = None) -> QuaternarySequence:
    c = classes if classes is not None else build_classes(p)
    if c.p != p:
        raise ValueError("classes built for a different p")
    values = [0] * (2 * p)
    values[p] = 2
    for block, value in ((c.d1, 1), (c.e0, 2), (c.e1, 3)):
        for u in block:
            values[u] = value
    return QuaternarySequence(p=p, values=tuple(values))


def generating_polynomial(s) -> RingPolynomial:
    """Collect one period (a QuaternarySequence or any value vector) as a
    polynomial over Z4, coefficient i = value at index i."""
    values = s.values if isinstance(s, QuaternarySequence) else s
    return RingPolynomial.from_ints(Z4, values)


def class_sum_polynomials(c: GeneralizedCyclotomy):
    """Indicator polynomials (S0, S1, T0, T1) of D0, D1, E0, E1 over Z4."""

    def indicator(block):
        coeffs = [0] * (2 * c.p)
        for u in block:
            coeffs[u] = 1
        return RingPolynomial.from_ints(Z4, coeffs)

    return indicator(c.d0), indicator(c.d1), indicator(c.e0), indicator(c.e1)
