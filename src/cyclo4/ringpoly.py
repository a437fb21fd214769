"""Dense polynomials over commutative rings of characteristic 4.

Coefficients live in a ring object that knows its ``zero``, its ``one``,
its extension degree ``r`` and how to ``embed`` a Python int; the
elements themselves carry the arithmetic through operators, plus
``is_unit`` and ``inverse`` for the division routine and ``value`` for
the int of an embedded constant. The Galois rings of
:mod:`cyclo4.galois` satisfy this contract, Z4 among them as GR(4, 4),
so one polynomial implementation serves Z4[X] and GR(4**r, 4)[X].

Polynomials are dense coefficient tuples, index ``i`` holding the
coefficient of ``X**i``, normalized so the top stored coefficient is
nonzero. The zero polynomial is the empty tuple; its degree is the
:data:`NEG_INF` sentinel, never a number, which keeps every
``deg r < deg d`` assertion total.
"""

from __future__ import annotations

from typing import Iterable


class NonUnitDivisorError(ValueError):
    """Polynomial division was attempted by a divisor whose leading
    coefficient is not a unit; the quotient is not well defined there."""


class _NegInf:
    """Degree of the zero polynomial: compares below every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return not isinstance(other, _NegInf)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInf)

    def __repr__(self):
        return "NEG_INF"


NEG_INF = _NegInf()


class RingPolynomial:
    """Dense polynomial over a coefficient ring, lowest degree first."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: Iterable = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == ring.zero:
            coeffs.pop()
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("RingPolynomial is immutable")

    @classmethod
    def from_ints(cls, ring, ints: Iterable[int]) -> "RingPolynomial":
        return cls(ring, (ring.embed(n) for n in ints))

    @classmethod
    def monomial(cls, ring, degree: int, coeff=None) -> "RingPolynomial":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        coeff = ring.one if coeff is None else coeff
        return cls(ring, [ring.zero] * degree + [coeff])

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def _check_ring(self, other: "RingPolynomial"):
        if not isinstance(other, RingPolynomial):
            raise TypeError(f"expected RingPolynomial, got {type(other).__name__}")
        if self.ring != other.ring:
            raise ValueError("polynomials over different coefficient rings")

    def __add__(self, other):
        self._check_ring(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return RingPolynomial(self.ring, out)

    def __neg__(self):
        return RingPolynomial(self.ring, (-c for c in self.coeffs))

    def __sub__(self, other):
        self._check_ring(other)
        return self + (-other)

    def __mul__(self, other):
        self._check_ring(other)
        if self.is_zero or other.is_zero:
            return RingPolynomial(self.ring, ())
        zero = self.ring.zero
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return RingPolynomial(self.ring, out)

    def __divmod__(self, divisor):
        """Long division; requires the divisor's leading coefficient to be a unit.

        Under that precondition the quotient/remainder pair is unique with
        deg remainder < deg divisor. No divisibility conclusion may be drawn
        from root-vanishing alone over Z4, so callers that only know values
        at points must come through here.
        """
        self._check_ring(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        lead = divisor.coeffs[-1]
        if not lead.is_unit():
            raise NonUnitDivisorError(
                "division requires a unit leading coefficient in the divisor"
            )
        ring = self.ring
        nd = len(divisor.coeffs)
        if len(self.coeffs) < nd:
            return RingPolynomial(ring, ()), self
        inv = lead.inverse()
        terms = [(j, dj) for j, dj in enumerate(divisor.coeffs) if dj != ring.zero]
        rem = list(self.coeffs)
        quo = [ring.zero] * (len(rem) - nd + 1)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + nd - 1] * inv
            if c == ring.zero:
                continue
            quo[k] = c
            for j, dj in terms:
                rem[k + j] = rem[k + j] - c * dj
        return RingPolynomial(ring, quo), RingPolynomial(ring, rem)

    def evaluate(self, point):
        """Horner evaluation at a point of any characteristic-4 ring.

        A run of zero coefficients costs one power of the point, so a
        sparse polynomial costs about log(degree) products per nonzero
        term. Coefficients of an r = 1 ring (Z4) embed canonically, as
        constants, when the point lives in another ring.
        """
        ring = point.ring
        if ring == self.ring:
            lift = lambda c: c
        elif self.ring.r == 1:
            lift = lambda c: ring.embed(c.value)
        else:
            raise TypeError("cannot evaluate: incompatible coefficient ring")
        coeffs, zero = self.coeffs, self.ring.zero
        if not coeffs:
            return ring.zero
        prev = len(coeffs) - 1
        acc = lift(coeffs[prev])
        for i in range(prev - 1, -1, -1):
            if coeffs[i] != zero:
                step = point if prev - i == 1 else point ** (prev - i)
                acc = acc * step + lift(coeffs[i])
                prev = i
        return acc * point ** prev if prev else acc

    def __eq__(self, other):
        return (
            isinstance(other, RingPolynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero:
                continue
            text = str(c)
            if " " in text:  # multi-term extension-ring coefficient
                text = f"({text})"
            if i == 0:
                parts.append(text)
            elif i == 1:
                parts.append(f"{text}*X")
            else:
                parts.append(f"{text}*X^{i}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"
