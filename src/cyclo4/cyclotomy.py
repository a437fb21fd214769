"""Generalized cyclotomic classes modulo 2p.

For an odd prime p, fix the smallest odd g that is a primitive root both
mod p and mod 2p (for odd g the two conditions coincide, but both are
checked). The even powers of g mod 2p form D0, the odd powers D1, and
their doubles E0, E1; together with {0, p} the four classes partition
Z_2p. D0 and D1 exhaust the odd residues other than p, E0 and E1 the
even residues other than 0.

``class_labels`` walks the powers of g once and writes each residue's
class code into a 2p-byte array. The period is read from that array by
one byte translation, with no set built; ``build_classes`` makes the
four frozensets from it, and they are the only stored record of the
classes: everything that asks which class a residue is in reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .primes import factorize, require_odd_prime

# class codes of ``class_labels``: D0, D1, E0, E1, then the residues 0 and p
D0, D1, E0, E1, ZERO, HALF = range(6)
_UNLABELLED = 255

# code -> 1 for one class's code, 0 for every other byte
_IS_CLASS = tuple(bytes(int(b == code) for b in range(256)) for code in (D0, D1, E0, E1))


def _order_is(g: int, modulus: int, target: int, target_factors) -> bool:
    """True iff g has multiplicative order exactly ``target`` mod ``modulus``."""
    if pow(g, target, modulus) != 1:
        return False
    return all(pow(g, target // q, modulus) != 1 for q in target_factors)


def find_common_primitive_root(p: int) -> int:
    """Smallest odd g >= 3 that is a primitive root mod p and mod 2p."""
    require_odd_prime(p)
    target = p - 1
    target_factors = tuple(factorize(target))
    g = 3
    while True:
        if g % p != 0 and _order_is(g, p, target, target_factors) and _order_is(
            g, 2 * p, target, target_factors
        ):
            return g
        g += 2


@dataclass(frozen=True)
class GeneralizedCyclotomy:
    """The four classes D0, D1, E0, E1 partitioning Z_2p with {0, p}."""

    p: int
    g: int
    d0: frozenset[int]
    d1: frozenset[int]
    e0: frozenset[int]
    e1: frozenset[int]

    @property
    def blocks(self) -> dict[str, frozenset[int]]:
        """The classes by name, in the order D0, D1, E0, E1."""
        return {"D0": self.d0, "D1": self.d1, "E0": self.e0, "E1": self.e1}

    def d_class(self, i: int) -> frozenset[int]:
        return (self.d0, self.d1)[i % 2]

    def e_class(self, i: int) -> frozenset[int]:
        return (self.e0, self.e1)[i % 2]

    def cyclotomic_number(self, i: int, j: int) -> int:
        """Cardinality of (1 + D_i) intersected with E_j, addition mod 2p."""
        n = 2 * self.p
        shifted = {(1 + u) % n for u in self.d_class(i)}
        return len(shifted & self.e_class(j))


def class_labels(p: int) -> tuple[int, bytes]:
    """g and the class code of every residue mod 2p, by one walk over
    t = g**k mod 2p, k = 0 .. p - 2: t is in D(k mod 2) and 2t mod 2p in
    E(k mod 2). Each step takes an even power t and writes t, g*t and
    their doubles. Raises RuntimeError unless the powers label every
    residue other than 0 and p, each class (p - 1)/2 times.

    The array is handed out, not kept: ``GeneralizedCyclotomy`` holds the
    four sets alone, so classes changed by ``dataclasses.replace`` carry no
    stale copy of it."""
    require_odd_prime(p)
    g = find_common_primitive_root(p)
    n = 2 * p
    labels = bytearray([_UNLABELLED]) * n
    labels[0] = ZERO
    labels[p] = HALF
    g2 = g * g % n
    t = 1
    for _ in range((p - 1) // 2):
        u = t * g % n
        labels[t] = D0
        labels[2 * t % n] = E0
        labels[u] = D1
        labels[2 * u % n] = E1
        t = t * g2 % n
    if _UNLABELLED in labels:
        raise RuntimeError("internal: class construction does not cover Z_2p")
    if any(labels.count(code) != (p - 1) // 2 for code in (D0, D1, E0, E1)):
        raise RuntimeError("internal: class cardinalities are off")
    return g, bytes(labels)


def build_classes(p: int) -> GeneralizedCyclotomy:
    g, labels = class_labels(p)
    d0, d1, e0, e1 = (
        frozenset(compress(range(2 * p), labels.translate(is_class))) for is_class in _IS_CLASS
    )
    return GeneralizedCyclotomy(p=p, g=g, d0=d0, d1=d1, e0=e0, e1=e1)
