"""The period-2p quaternary sequence.

The period takes 0 on {0} and D0, 1 on D1, 2 on {p} and E0, 3 on E1.
Read as the coefficients of its generating polynomial over Z4, it is
2*X**p + S1 + 2*T0 + 3*T1 in the indicator polynomials S0, S1, T0, T1 of
D0, D1, E0, E1. ``generate_sequence(p)`` reads it from the class codes of
``cyclotomy.class_labels`` by one byte translation, with no set built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomy import class_labels
from .primes import require_odd_prime

# class code of ``class_labels`` (D0, D1, E0, E1, then 0 and p) -> value
_VALUE = bytes((0, 1, 2, 3, 0, 2)).ljust(256, b"\0")
_DIGIT = bytes.maketrans(b"\0\1\2\3", b"0123")


@dataclass(frozen=True)
class QuaternarySequence:
    """One period of the quaternary sequence for an odd prime p, one value per byte."""

    p: int
    values: bytes

    def __post_init__(self):
        require_odd_prime(self.p)
        if not isinstance(self.values, bytes) or self.values.translate(None, b"\0\1\2\3"):
            raise ValueError("sequence values must lie in {0, 1, 2, 3}, one per byte")
        if len(self.values) != 2 * self.p:
            raise ValueError("period must have length 2p")
        if self.values[0] != 0 or self.values[self.p] != 2:
            raise ValueError("anchors violated: s_0 = 0 and s_p = 2 are forced")

    def text(self) -> str:
        """The period as a digit line, e.g. '002231' for p = 3."""
        return self.values.translate(_DIGIT).decode()

    def __len__(self) -> int:
        return len(self.values)


def generate_sequence(p: int) -> QuaternarySequence:
    _, labels = class_labels(p)
    return QuaternarySequence(p=p, values=labels.translate(_VALUE))
