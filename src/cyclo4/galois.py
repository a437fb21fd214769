"""Galois rings of characteristic 4 and their distinguished units.

GR(4**r, 4) is realized as Z4[X]/(f) for a monic degree-r modulus f whose
reduction mod 2 is irreducible over the two-element field (a basic
irreducible). The canonical modulus for a given r is the Graeffe lift of
the lexicographically smallest irreducible of degree r, which makes every
constructed ring, and hence every downstream value, reproducible.

Z4 itself is GR(4, 4), the r = 1 ring of modulus X (the lift of the
degree-1 irreducible X), so the integers mod 4 and their extensions share
one element type. :data:`Z4` is that ring; a modulus is a polynomial over
it, which is why the rings are set up from plain coefficient tuples.

For an odd prime p with r the order of 2 mod p, the unit group (of order
2**r * (2**r - 1)) contains elements of order p; ``find_gamma`` lifts one
from the residue field by one ring squaring and returns it as beta with
gamma = 3*beta, a unit of order 2p satisfying gamma**p = 3 = -1.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import f2
from .primes import require_odd_prime
from .ringpoly import RingPolynomial


# a run of zero slots at least this wide splits the fold into pieces: the
# narrow products then skip more than two 30-bit digits of zeros per digit
# of the high part, which outweighs one more shift and add per round
_FOLD_GAP_BITS = 64

# a slot's (high bit, low bit) as binary digits -> its value
_SLOT_VALUE = {("0", "0"): 0, ("0", "1"): 1, ("1", "0"): 2, ("1", "1"): 3}


class GaloisRing:
    """The ring Z4[X]/(f) for a monic basic irreducible f of degree r.

    Elements are packed into single Python ints (Kronecker substitution):
    base-4 coordinate i occupies the B-bit slot starting at bit i*B, with
    B = bitlen(9r) + 1. A coefficient of the product of two reduced
    elements is at most 9r, so one big-int product computes the whole
    convolution without carries between slots, and an AND with the slot
    mask reduces it mod 4. The part above slot r is folded back with
    X**r = -f_low in multiply-add rounds; each round lowers the top degree
    by r - deg f_low, so the sparse Graeffe moduli need two or three.

    The packed -f_low is split into fold pieces (slot shift, dense run) at
    every run of zero slots at least ``_FOLD_GAP_BITS`` wide, and a round
    adds one narrow product per piece, shifted into place. A canonical
    modulus of large r has its few nonzero low terms in two clusters, near
    slot 0 and near slot r/2 (from h(X)*h(-X) for a sparse h), so a round
    is two narrow products instead of one r/2-slot product; a dense
    modulus gives one piece, the whole -f_low.
    """

    def __init__(self, modulus: RingPolynomial):
        if modulus.ring is not Z4:
            raise ValueError("modulus must be a polynomial over Z4")
        coeffs = tuple(c.value for c in modulus.coeffs)
        r = len(coeffs) - 1
        if r < 1:
            raise ValueError("modulus must have positive degree")
        if coeffs[-1] != 1:
            raise ValueError("modulus must be monic")
        mod2 = sum(1 << i for i, c in enumerate(coeffs) if c % 2)
        if not f2.is_irreducible(mod2):
            raise ValueError("modulus is not basic irreducible (reducible mod 2)")
        self._setup(coeffs, mod2)

    @classmethod
    def _of_irreducible(cls, h: int) -> "GaloisRing":
        """The ring of the Graeffe lift of h, which the caller has already
        tested irreducible over the two-element field."""
        ring = cls.__new__(cls)
        ring._setup(_graeffe_lift(h), h)
        return ring

    def _setup(self, modulus: tuple[int, ...], mod2: int) -> None:
        """Set up the ring of the monic modulus f given by its coefficients
        in 0..3, constant term first, with f mod 2 = mod2 irreducible."""
        r = len(modulus) - 1
        self.r = r
        self._mod2 = mod2
        self._key = (r, modulus)
        self._hash = hash(self._key)
        B = self._slot_bits = (9 * r).bit_length() + 1
        ones = ((1 << (B * r)) - 1) // ((1 << B) - 1)  # 1 in each of r slots
        self._odd = ones
        self._fours = 4 * ones
        self._mask = 3 * ones
        # 2r + 1 slots: a product of reduced elements, or c(X**2) (_at_x_squared)
        self._wide_mask = 3 * (((1 << (B * (2 * r + 1))) - 1) // ((1 << B) - 1))
        self._split = B * r
        neg_low = [(-c) % 4 for c in modulus[:r]]
        self._fold_pieces = _fold_pieces(neg_low, B)
        self._constants = tuple(GaloisRingElement(self, n) for n in range(4))
        self.zero, self.one = self._constants[0], self._constants[1]
        self.x = GaloisRingElement(self, neg_low[0] if r == 1 else 1 << B)
        self._x_teichmuller = not self._at_x_squared(modulus)

    @cached_property
    def modulus(self) -> RingPolynomial:
        """The monic modulus f as a polynomial over :data:`Z4`."""
        return RingPolynomial.from_ints(Z4, self._key[1])

    def _mul_packed(self, a: int, b: int) -> int:
        return self._reduce(a * b)

    def _reduce(self, t: int) -> int:
        """The reduced packed element congruent to t, a packed polynomial of
        at most 2r + 1 slots, each holding a non-negative value below 2**B."""
        wide, split, low, pieces = self._wide_mask, self._split, self._mask, self._fold_pieces
        t &= wide
        high = t >> split
        while high:
            acc = t & low
            for shift, run in pieces:
                acc += (high * run) << shift
            t = acc & wide
            high = t >> split
        return t

    def x_is_teichmuller(self) -> bool:
        """Whether X**(2**r) = X, checked at set-up as f(X**2) = 0 by one
        reduction.

        The coefficient c_k of f goes to slot 2k, and the 2r + 1 slots are
        reduced as a product is. The two conditions are equivalent because
        f is basic irreducible. It then has exactly one root over each root
        of f mod 2 (Hensel), and the Frobenius sigma of GR(4**r, 4), the
        automorphism of order r that lifts squaring mod 2, permutes the
        roots of f, since it fixes the coefficients. For the root xi = X,
        sigma(xi) is therefore the root over xi**2 mod 2. If f(xi**2) = 0,
        then xi**2 is that root, so sigma(xi) = xi**2, sigma**k(xi) =
        xi**(2**k) by induction, and xi**(2**r) = sigma**r(xi) = xi.
        Conversely, xi**(2**r) = xi makes xi Teichmüller, and sigma(xi) =
        xi**2 for a Teichmüller xi (Wan, Lectures on Finite Fields and
        Galois Rings, 2003), so f(xi**2) = sigma(f(xi)) = 0.
        """
        return self._x_teichmuller

    def frobenius(self, x: "GaloisRingElement") -> "GaloisRingElement":
        """sigma(x), the Frobenius automorphism of GR(4**r, 4), as c(X**2)
        for x = c(X).

        sigma fixes the coefficients in Z4, so sigma(c(X)) = c(sigma(X)),
        and sigma(X) = X**2 when X is Teichmüller (:meth:`x_is_teichmuller`).
        Elsewhere c(X) -> c(X**2) is not sigma, and ValueError is raised.
        sigma has order r, and the elements it fixes are exactly the
        embedded Z4 (Wan, Lectures on Finite Fields and Galois Rings, 2003).
        """
        if x.ring != self:
            raise ValueError("element of a different ring")
        if not self._x_teichmuller:
            raise ValueError("X is not Teichmüller: X -> X**2 is not the Frobenius")
        return GaloisRingElement(self, self._at_x_squared(x.coords))

    def _at_x_squared(self, coeffs) -> int:
        """The reduced packed c(X**2) for c(X) of at most r + 1 coefficients,
        constant term first: coefficient k goes to slot 2k, and the 2r + 1
        slots are reduced as a product is."""
        return self._reduce(_pack(coeffs, 2 * self._slot_bits))

    def _lift(self, bits: int) -> "GaloisRingElement":
        """The element with 0/1 coordinates read from the bits of a residue
        mod 2 (bit i for X**i): an element over that residue, read from the
        binary digits of the residue with B - 1 zeros between two of them."""
        pad = "0" * (self._slot_bits - 1)
        return GaloisRingElement(self, int(pad.join(format(bits, "b")), 2))

    def element(self, coords) -> "GaloisRingElement":
        coords = [int(c) % 4 for c in coords]
        if len(coords) > self.r:
            raise ValueError("coordinate vector longer than the extension degree")
        return GaloisRingElement(self, _pack(coords, self._slot_bits))

    def embed(self, n: int) -> "GaloisRingElement":
        """Canonical embedding of Z4: the constant with value n mod 4."""
        return self._constants[int(n) % 4]

    @property
    def unit_group_order(self) -> int:
        return (1 << self.r) * ((1 << self.r) - 1)

    def __eq__(self, other):
        return self is other or (isinstance(other, GaloisRing) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GR(4^{self.r},4)"


class GaloisRingElement:
    """A residue class in GR(4**r, 4): its degree < r representative, packed
    into one int as described on :class:`GaloisRing`."""

    __slots__ = ("ring", "packed")

    def __init__(self, ring: GaloisRing, packed: int):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "packed", packed)

    def __setattr__(self, name, value):
        raise AttributeError("GaloisRingElement is immutable")

    @property
    def coords(self) -> tuple:
        """Base-4 coordinates, coefficient of X**0 first, length r: the high
        and the low bit of every slot, sliced from one binary string."""
        B = self.ring._slot_bits
        bits = format(self.packed, f"0{self.ring._split}b")
        return tuple(map(_SLOT_VALUE.__getitem__, zip(bits[-2::-B], bits[-1::-B])))

    def _check_ring(self, other):
        if not isinstance(other, GaloisRingElement):
            raise TypeError(f"expected GaloisRingElement, got {type(other).__name__}")
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("elements of different rings")

    def is_unit(self) -> bool:
        """Units are exactly the elements with a nonzero mod-2 reduction."""
        return bool(self.packed & self.ring._odd)

    def __add__(self, other):
        self._check_ring(other)
        return GaloisRingElement(self.ring, (self.packed + other.packed) & self.ring._mask)

    def __sub__(self, other):
        self._check_ring(other)
        ring = self.ring
        return GaloisRingElement(ring, (self.packed + ring._fours - other.packed) & ring._mask)

    def __neg__(self):
        ring = self.ring
        return GaloisRingElement(ring, (ring._fours - self.packed) & ring._mask)

    def __mul__(self, other):
        self._check_ring(other)
        return GaloisRingElement(self.ring, self.ring._mul_packed(self.packed, other.packed))

    def __pow__(self, n: int):
        """Left to right from the base on the top bit of n: bitlen(n) - 1
        squarings and popcount(n) - 1 multiplies by the base."""
        if n < 0:
            return self.inverse() ** (-n)
        ring = self.ring
        if n == 0:
            return ring.one
        mul, a = ring._mul_packed, self.packed
        t = a
        for bit in bin(n)[3:]:
            t = mul(t, t)
            if bit == "1":
                t = mul(t, a)
        return GaloisRingElement(ring, t)

    def inverse(self) -> "GaloisRingElement":
        """Unit inverse: invert mod 2 in the residue field, then lift."""
        if not self.is_unit():
            raise ZeroDivisionError("not a unit in the Galois ring")
        ring, B = self.ring, self.ring._slot_bits
        # the low bit of every slot, top slot first: the residue mod 2
        a2 = int(format(self.packed, f"0{ring._split}b")[B - 1 :: B], 2)
        b1 = ring._lift(f2.inverse_mod(a2, ring._mod2))
        b = b1 * (ring.embed(2) - self * b1)
        if self * b != ring.one:
            raise RuntimeError("internal: unit inversion failed")
        return b

    @property
    def value(self) -> int:
        """The int 0..3 of an embedded constant; rejects proper extension elements."""
        if self.packed >> self.ring._slot_bits:
            raise ValueError("element does not lie in the embedded Z4")
        return self.packed

    @property
    def is_embedded_constant(self) -> bool:
        return not self.packed >> self.ring._slot_bits

    def __eq__(self, other):
        return (
            isinstance(other, GaloisRingElement)
            and self.packed == other.packed
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.ring._hash, self.packed))

    def __str__(self):
        if not self.packed:
            return "0"
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                sym = "w" if i == 1 else f"w^{i}"
                parts.append(sym if c == 1 else f"{c}*{sym}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} in {self.ring!r}>"


def _pack(coords, B: int) -> int:
    """One int holding coordinate i, 0..3, in the B-bit slot at bit i*B,
    parsed from one binary string of the slots, top slot first."""
    pad = "0" * (B - 2)
    slots = (pad + "00", pad + "01", pad + "10", pad + "11")
    return int("".join([slots[c] for c in reversed(coords)]) or "0", 2)


def _fold_pieces(coeffs: list[int], B: int) -> tuple[tuple[int, int], ...]:
    """(bit shift, packed run) pieces of the packed coefficient list with
    B-bit slots: the runs between the zero-slot gaps at least
    ``_FOLD_GAP_BITS`` wide. The shifted runs add up to the whole list."""
    groups: list[list[int]] = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if groups and (i - groups[-1][1] - 1) * B < _FOLD_GAP_BITS:
            groups[-1][1] = i
        else:
            groups.append([i, i])
    return tuple(
        (lo * B, sum(coeffs[i] << ((i - lo) * B) for i in range(lo, hi + 1)))
        for lo, hi in groups
    )


def ord2_mod_p(p: int) -> int:
    """The least r >= 1 with 2**r = 1 mod p; divides p - 1."""
    require_odd_prime(p)
    r, t = 1, 2 % p
    while t != 1:
        t = t * 2 % p
        r += 1
    return r


def lift_irreducible(h: int) -> RingPolynomial:
    """Graeffe lift of an irreducible over the two-element field.

    For h of degree r the lift f is the monic polynomial over Z4 with
    f(X**2) = (-1)**r * h(X) * h(-X); it reduces to h mod 2 and divides
    X**(2**r - 1) - 1 in Z4[X], so its roots are units of order dividing
    2**r - 1. One step suffices in characteristic 4.

    The argument is a bitmask (bit i = coefficient of X**i).
    """
    if not f2.is_irreducible(h):
        raise ValueError("polynomial is reducible over the two-element field")
    return RingPolynomial.from_ints(Z4, _graeffe_lift(h))


def _graeffe_lift(h: int) -> tuple[int, ...]:
    """The coefficients in 0..3 of the Graeffe lift of h, constant term
    first, from h(X)*h(-X) over the integers (h is sparse)."""
    r = f2.degree(h)
    terms = [i for i in range(r + 1) if (h >> i) & 1]
    prod = [0] * (2 * r + 1)
    for i in terms:
        for j in terms:
            prod[i + j] += -1 if j % 2 else 1
    if any(prod[1::2]):
        raise RuntimeError("internal: Graeffe product has odd-degree terms")
    sign = -1 if r % 2 else 1
    f = tuple(sign * c % 4 for c in prod[0::2])
    if f[-1] != 1:
        raise RuntimeError("internal: Graeffe lift is not monic of the right degree")
    return f


# GR(4, 4): the lift of X is X itself, so its elements are the constants 0..3
Z4 = GaloisRing._of_irreducible(0b10)


@lru_cache(maxsize=None)
def construct_ring(p: int) -> GaloisRing:
    """The canonical GR(4**r, 4) for an odd prime p, r = ord of 2 mod p.

    The Graeffe lift is checked to make X Teichmüller: X**(2**r) = X, so
    the unit X has order dividing 2**r - 1. The check is f(X**2) = 0 mod
    f, one reduction instead of r squarings; it is equivalent because f
    is basic irreducible (:meth:`GaloisRing.x_is_teichmuller`).
    """
    r = ord2_mod_p(p)
    # lex_smallest_irreducible has tested h once; the lift and the ring trust it
    ring = GaloisRing._of_irreducible(f2.lex_smallest_irreducible(r))
    if not ring.x_is_teichmuller():
        raise RuntimeError("internal: modulus is not a Graeffe lift")
    return ring


def find_gamma(ring: GaloisRing, p: int) -> tuple[GaloisRingElement, GaloisRingElement]:
    """A unit beta of order exactly p and gamma = 3*beta of order exactly 2p.

    With h = f mod 2, m = (2**r - 1)/p and T the Teichmüller lift of the
    residue field GF(2)[X]/(h) into the units, beta = T(s**m) for the least
    s = X, X + 1, X**2, ... (the bitmasks 2, 3, 4, ...) with s**m != 1:

    - ``f2.powmod`` gives c = s**(m * 2**(r - 1) mod (2**r - 1)) mod h, and
      c**2 = s**m as s**(2**r - 1) = 1, so c != 1 exactly when s**m != 1,
      which some s < 2**r meets: at most m < 2**r - 2 residues have s**m = 1.
    - A unit u is T(u mod 2) * (1 + 2a) with (1 + 2a)**2 = 1 (Wan, Lectures
      on Finite Fields and Galois Rings, 2003), so the 0/1 lift of c squares
      to T(c**2) = T(s**m), which has order p as T is injective.

    This is the scan's beta, for every basic irreducible modulus: the first
    u**(|unit group| / p) != 1 over u = X, X + 1, X + 2, ... in base-4
    coordinate order. As (1 + 2a)**(2**r) = 1, u**(2**r) = T(u mod 2), so
    that power is T((u mod 2)**m). The bits of u mod 2 are the parities of
    u's base-4 digits, and the first counter value with parities s is
    sum(s_i * 4**i), which increases with s: the scan stops at the same
    least s. When X is Teichmüller, X**m is the case s = X.
    """
    require_odd_prime(p)
    r = ring.r
    order = (1 << r) - 1
    if order % p != 0:
        raise ValueError(f"p={p} does not divide 2**{r} - 1; wrong ring for this p")
    e = ((order // p) << (r - 1)) % order  # 2**(r - 1) halves exponents mod 2**r - 1
    s = 2
    while (c := f2.powmod(s, e, ring._mod2)) == 1:
        s += 1
    root = ring._lift(c)
    beta = root * root
    if beta ** p != ring.one:
        raise RuntimeError("internal: beta**p != 1")
    gamma = -beta  # 3 * beta
    if gamma ** p != ring.embed(3):
        raise RuntimeError("internal: gamma**p != -1")
    return beta, gamma


@lru_cache(maxsize=128)
def powers_of(x: GaloisRingElement, count: int) -> tuple:
    """(x**0, x**1, ..., x**(count-1)) by one product per entry, cached."""
    out = [x.ring.one]
    for _ in range(count - 1):
        out.append(out[-1] * x)
    return tuple(out)
