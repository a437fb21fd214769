"""Generalized cyclotomic classes modulo 2p.

For an odd prime p, fix the smallest odd g that is a primitive root both
mod p and mod 2p (for odd g the two conditions coincide, but both are
checked). The even powers of g mod 2p form D0, the odd powers D1, and
their doubles E0, E1; together with {0, p} the four classes partition
Z_2p. D0 and D1 exhaust the odd residues other than p, E0 and E1 the
even residues other than 0.

``class_labels`` walks the powers of g once, writing the code of each
odd residue into a 2p-byte array, and the doubles take E0, E1 from those
codes by one byte translation. That array is the one record of the
classes: the period is one byte translation of it, ``verify`` reads the
class relations off it by slices, rotations and translations, and the
four sets are built from it only where read (``classes``, the library).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .primes import factorize, require_odd_prime

# class codes of ``class_labels``: D0, D1, E0, E1, then the residues 0 and p
D0, D1, E0, E1, ZERO, HALF = range(6)
CLASS_NAMES = ("D0", "D1", "E0", "E1")
_UNLABELLED = 255

# the code of an odd residue -> the code of its double: D0 -> E0, D1 -> E1
_DOUBLE = bytes.maketrans(bytes((D0, D1)), bytes((E0, E1)))
# class code -> the table taking that code to 1 and every other byte to 0
IS_CLASS = tuple(bytes(int(b == code) for b in range(256)) for code in (D0, D1, E0, E1))


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
    """The classes D0, D1, E0, E1 mod 2p as ``labels``, the code of each residue."""

    p: int
    g: int
    labels: bytes

    def members(self, code: int) -> frozenset[int]:
        """The residues whose class code is ``code``, built on each call."""
        return frozenset(compress(range(2 * self.p), self.labels.translate(IS_CLASS[code])))

    d0, d1, e0, e1 = (property(lambda self, code=code: self.members(code)) for code in range(4))

    @property
    def blocks(self) -> dict[str, frozenset[int]]:
        """The classes by name, in the order D0, D1, E0, E1."""
        return {name: self.members(code) for code, name in enumerate(CLASS_NAMES)}

    def cyclotomic_number(self, i: int, j: int) -> int:
        """Cardinality of (1 + D_i) intersected with E_j, addition mod 2p: the
        code pairs a << 3 | b of (u, u + 1) counted, all formed by one big-int
        shift and or of the labels and their rotation by one (codes are < 8)."""
        labels = self.labels
        pairs = int.from_bytes(labels, "big") << 3 | int.from_bytes(labels[1:] + labels[:1], "big")
        return pairs.to_bytes(len(labels), "big").count((D0 + i % 2) << 3 | (E0 + j % 2))


def class_labels(p: int) -> tuple[int, bytes]:
    """g and the class code of every residue mod 2p, by one walk over
    t = g**k mod 2p, k = 0 .. p - 2: t is in D(k mod 2) and 2t mod 2p in
    E(k mod 2). Each step takes an even power t and writes t and g*t; then
    one slice and translation gives each even residue 2k = 2(k + p) mod 2p
    the E code of whichever of k, k + p is odd. Raises RuntimeError unless
    the powers label every residue other than 0 and p (an odd residue left
    unlabelled leaves its double unlabelled), each class (p - 1)/2 times.

    ``build_classes`` keeps the array in a ``GeneralizedCyclotomy``;
    ``generate_sequence`` translates it into the period."""
    require_odd_prime(p)
    g = find_common_primitive_root(p)
    n = 2 * p
    labels = bytearray([_UNLABELLED]) * n
    labels[0] = ZERO
    labels[p] = HALF
    g2 = g * g % n
    t = 1
    for _ in range((p - 1) // 2):
        labels[t] = D0
        labels[t * g % n] = D1
        t = t * g2 % n
    doubled = bytearray(p - 1)
    doubled[::2] = labels[1:p:2]
    doubled[1::2] = labels[p + 2 :: 2]
    labels[2::2] = doubled.translate(_DOUBLE)
    if _UNLABELLED in labels:
        raise RuntimeError("internal: class construction does not cover Z_2p")
    if any(labels.count(code) != (p - 1) // 2 for code in (D0, D1, E0, E1)):
        raise RuntimeError("internal: class cardinalities are off")
    return g, bytes(labels)


def build_classes(p: int) -> GeneralizedCyclotomy:
    return GeneralizedCyclotomy(p, *class_labels(p))
