"""Generalized cyclotomic classes modulo 2p.

For an odd prime p, fix the smallest odd g that is a primitive root both
mod p and mod 2p (for odd g the two conditions coincide, but both are
checked). The even powers of g mod 2p form D0, the odd powers D1, and
their doubles E0, E1; together with {0, p} the four classes partition
Z_2p. D0 and D1 exhaust the odd residues other than p, E0 and E1 the
even residues other than 0. The four frozensets are the only record of
the classes; everything that asks which class a residue is in reads them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .primes import factorize, require_odd_prime


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


def build_classes(p: int) -> GeneralizedCyclotomy:
    require_odd_prime(p)
    g = find_common_primitive_root(p)
    n = 2 * p
    half = (p - 1) // 2
    d0 = set()
    d1 = set()
    t = 1
    g2 = g * g % n
    for _ in range(half):
        d0.add(t)
        d1.add(t * g % n)
        t = t * g2 % n
    e0 = {2 * u % n for u in d0}
    e1 = {2 * u % n for u in d1}

    blocks = (d0, d1, e0, e1)
    if set().union(*blocks) | {0, p} != set(range(n)):
        raise RuntimeError("internal: class construction does not cover Z_2p")
    # 4 * (p - 1)/2 + 2 = 2p residues covering Z_2p: no residue is in two classes
    if any(len(block) != half for block in blocks):
        raise RuntimeError("internal: class cardinalities are off")

    return GeneralizedCyclotomy(
        p=p,
        g=g,
        d0=frozenset(d0),
        d1=frozenset(d1),
        e0=frozenset(e0),
        e1=frozenset(e1),
    )
