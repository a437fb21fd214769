"""Independent oracles the tests check the library against.

The solvability oracle decides A x = b over Z4 by unit-pivot elimination
followed by halving the leftover all-even subsystem into GF(2); minimal
cyclic annihilator degrees then come from trying degrees in ascending
order. The Galois-ring oracles work on plain coordinate tuples (constant
term first) of Z4[X]/(f): the packed slot layout written and read one
shift per slot, a schoolbook product with top-down reduction by the
monic f, the pairwise unit-difference scan over a power table, and
the sequence values S(gamma**v) summed one term at a time. The
generating polynomial and the class indicator polynomials are polynomials
over Z4 read straight off the period and the class sets. Over GF(2)
(bitmask polynomials) there is a coefficient-by-coefficient product, a
schoolbook remainder and Euclid's gcd on it, irreducibility by exhaustive
trial division, by Ben-Or's test and by the Rabin test (both squaring by
bit spreading and that remainder), and an incremental column echelon
that finds the minimal connection polynomial by a route independent of
the library's module reduction, with a plain cyclic annihilation test. Everything here is
deliberately naive and separate from the library's own code paths. The
exceptions compute with the library's tested arithmetic and are naive in
what they do with it: dense Horner evaluates a polynomial with one ring
product per coefficient; the scan for an element of order p powers every
unit candidate in turn, without assuming X is Teichmüller; the
Teichmüller test squares X r times; the power table is a plain chain of
products, one per entry, and so are the four class sums, with no trace;
Lemmas 3 and 4/8 are checked by brute force,
O(p**2), from every product set of the classes and from S(gamma**v),
summed over the power table of gamma for any period and any v, compared
with its table entry for every v; and the class products behind the
factorization check and Lemma 9 are expanded one linear factor at a time,
schoolbook, over that power table. The period itself is rebuilt from
Euler's criterion, without the cyclotomic classes, and the classes as
sets, by a walk of g that adds each power to a set, with the checks in set
form. The order of 2 mod p is found by doubling until 1 comes back.
"""

from __future__ import annotations

from cyclo4.cyclotomy import GeneralizedCyclotomy, find_common_primitive_root
from cyclo4.galois import Z4, powers_of
from cyclo4.ringpoly import RingPolynomial


def z4_solvable(rows: list[list[int]], rhs: list[int]) -> bool:
    aug = [list(r) + [b % 4] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    used_rows: set[int] = set()
    used_cols: set[int] = set()
    while True:
        piv = None
        for i, row in enumerate(aug):
            if i in used_rows:
                continue
            for j in range(ncols):
                if j not in used_cols and row[j] % 2 == 1:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i, j = piv
        inv = pow(aug[i][j], -1, 4)
        aug[i] = [(inv * v) % 4 for v in aug[i]]
        for k in range(len(aug)):
            if k != i and aug[k][j]:
                f = aug[k][j]
                aug[k] = [(vk - f * vi) % 4 for vk, vi in zip(aug[k], aug[i])]
        used_rows.add(i)
        used_cols.add(j)
    basis: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(aug):
        if i in used_rows:
            continue
        vec = 0
        for j in range(ncols):
            if j in used_cols:
                assert row[j] == 0
            else:
                assert row[j] % 2 == 0
                if row[j] == 2:
                    vec |= 1 << j
        b = row[ncols]
        if b % 2 == 1:
            return False
        b = (b // 2) % 2
        while vec:
            top = vec.bit_length() - 1
            if top in basis:
                bv, bb = basis[top]
                vec ^= bv
                b ^= bb
            else:
                basis[top] = (vec, b)
                vec, b = 0, 0
        if b:
            return False
    return True


def cyclic_annihilator_exists(values: list[int], degree: int) -> bool:
    """Is there C with C(0)=1, deg <= degree, S*C = 0 mod (X^n - 1, 4)?"""
    n = len(values)
    rows = [[values[(j - i) % n] for i in range(1, degree + 1)] for j in range(n)]
    rhs = [(-values[j]) % 4 for j in range(n)]
    if degree == 0:
        return all(v % 4 == 0 for v in values)
    return z4_solvable(rows, rhs)


def cyclic_min_degree(values: list[int]) -> int:
    for degree in range(len(values) + 1):
        if cyclic_annihilator_exists(values, degree):
            return degree
    raise AssertionError("1 + 3X^n always annihilates; degree n must succeed")


def pack_slots(coords, B: int) -> int:
    """One int holding coords[i] in the B-bit slot at bit i*B."""
    return sum(c << (i * B) for i, c in enumerate(coords))


def slot_values(packed: int, r: int, B: int) -> tuple:
    """The low two bits of each of the r B-bit slots of packed, slot 0 first."""
    return tuple((packed >> (i * B)) & 3 for i in range(r))


def lift_bits(bits: int, B: int) -> int:
    """Bit i of bits in the B-bit slot at bit i*B."""
    return pack_slots(((bits >> i) & 1 for i in range(bits.bit_length())), B)


def gr_mul(modulus: list[int], a, b) -> tuple:
    """Product of coordinate vectors in Z4[X]/(f), f monic given constant first."""
    r = len(modulus) - 1
    t = [0] * (2 * r - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            t[i + j] += x * y
    for k in range(len(t) - 1, r - 1, -1):
        c = t[k] % 4
        for j, m in enumerate(modulus):
            t[k - r + j] -= c * m
    return tuple(v % 4 for v in t[:r])


def gr_pow(modulus: list[int], a, n: int) -> tuple:
    r = len(modulus) - 1
    result = (1,) + (0,) * (r - 1)
    for bit in bin(n)[2:]:
        result = gr_mul(modulus, result, result)
        if bit == "1":
            result = gr_mul(modulus, result, a)
    return result


def gr_is_unit(a) -> bool:
    return any(c % 2 for c in a)


def pairwise_gamma_failure(powers: list[tuple], p: int) -> str | None:
    """First pair (v1, v2), v1 != v2 mod p, whose power difference is not a
    unit, scanned row by row; None when every such difference is a unit."""
    n = 2 * p
    for v1 in range(n):
        for v2 in range(n):
            if v1 % p != v2 % p:
                diff = [(x - y) % 4 for x, y in zip(powers[v1], powers[v2])]
                if not gr_is_unit(diff):
                    return f"gamma^{v1} - gamma^{v2} is not a unit"
    return None


def sequence_values(powers: list[tuple], values: list[int]) -> list[tuple]:
    """S(gamma**v) = sum over u of s_u * gamma**(u*v) for v = 0..n-1, with
    the power table given as coordinate tuples."""
    n = len(values)
    r = len(powers[0])
    out = []
    for v in range(n):
        acc = [0] * r
        for u, s in enumerate(values):
            for i, c in enumerate(powers[u * v % n]):
                acc[i] += s * c
        out.append(tuple(x % 4 for x in acc))
    return out


def gf2_mul(a: int, b: int) -> int:
    """Schoolbook product of bitmask polynomials, one coefficient pair at a time."""
    out = 0
    for i in range(a.bit_length()):
        for j in range(b.bit_length()):
            out ^= ((a >> i) & (b >> j) & 1) << (i + j)
    return out


def gf2_divmod(a: int, b: int) -> tuple[int, int]:
    q = 0
    while a.bit_length() >= b.bit_length():
        shift = a.bit_length() - b.bit_length()
        q |= 1 << shift
        a ^= b << shift
    return q, a


def gf2_is_irreducible(h: int) -> bool:
    """Irreducibility by trial division by every polynomial of degree 1
    to deg h // 2."""
    r = h.bit_length() - 1
    return r >= 1 and all(gf2_divmod(h, d)[1] for d in range(2, 1 << (r // 2 + 1)))


def gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2_divmod(a, b)[1]
    return a


def gf2_square_mod(t: int, h: int) -> int:
    """t**2 mod h by bit spreading (bit k moves to bit 2k, which is reading
    the binary digits of t in base 4) and the schoolbook remainder."""
    return gf2_divmod(int(bin(t)[2:], 4), h)[1]


def gf2_pow_mod(a: int, n: int, h: int) -> int:
    """a**n mod h by square-and-multiply from the top bit of n: squares by
    bit spreading, products by shifted copies of one factor, each reduced
    by the schoolbook remainder."""
    a = gf2_divmod(a, h)[1]
    t = gf2_divmod(1, h)[1]
    for bit in bin(n)[2:]:
        t = gf2_square_mod(t, h)
        if bit == "1":
            product = 0
            for j in range(a.bit_length()):
                if (a >> j) & 1:
                    product ^= t << j
            t = gf2_divmod(product, h)[1]
    return t


def gf2_is_irreducible_ben_or(h: int) -> bool:
    """Irreducibility by Ben-Or's test: gcd(X**(2**i) - X, h) = 1 for
    i = 1 .. deg h // 2, squaring by bit spreading; exact for every degree."""
    r = h.bit_length() - 1
    if r < 1:
        return False
    t = 2
    for _ in range(r // 2):
        t = gf2_square_mod(t, h)
        if gf2_gcd(t ^ 2, h) != 1:
            return False
    return True


def gf2_is_irreducible_rabin(h: int) -> bool:
    """Irreducibility by the Rabin test: X**(2**r) = X mod h, and
    gcd(X**(2**(r/q)) - X, h) = 1 for each prime q dividing r = deg h.
    Exact for every degree; squares by bit spreading."""
    r = h.bit_length() - 1
    if r <= 0:
        return False
    if r == 1:
        return True
    if h & 1 == 0:
        return False
    x = t = 2
    primes = [q for q in range(2, r + 1) if r % q == 0 and all(q % d for d in range(2, q))]
    checkpoints = {r // q for q in primes}
    for i in range(1, r + 1):
        t = gf2_square_mod(t, h)
        if i in checkpoints and gf2_gcd(t ^ x, h) != 1:
            return False
    return t == x


def horner(poly, point):
    """poly(point) by dense Horner, one ring product per coefficient;
    Z4 coefficients embed as constants when the point is in GR(4**r, 4)."""
    ring = point.ring
    lift = (lambda c: c) if poly.ring == ring else (lambda c: ring.embed(c.value))
    acc = ring.zero
    for c in reversed(poly.coeffs):
        acc = acc * point + lift(c)
    return acc


def generating_polynomial(values) -> RingPolynomial:
    """One period (a QuaternarySequence or any value vector) as a
    polynomial over Z4, coefficient i = value at index i."""
    return RingPolynomial.from_ints(Z4, getattr(values, "values", values))


def indicator_polynomials(classes) -> tuple:
    """The indicator polynomials (S0, S1, T0, T1) of D0, D1, E0, E1 over Z4,
    each with 2p coefficients."""
    def indicator(block):
        return RingPolynomial.from_ints(Z4, [int(u in block) for u in range(2 * classes.p)])

    return tuple(indicator(block) for block in (classes.d0, classes.d1, classes.e0, classes.e1))


def annihilates(values: list[int], coeffs: list[int]) -> bool:
    """Does sum c_i X**i kill sum s_j X**j modulo (X**n - 1, 4)?"""
    n = len(values)
    acc = [0] * n
    for i, c in enumerate(coeffs):
        for j, s in enumerate(values):
            acc[(i + j) % n] += c * s
    return all(x % 4 == 0 for x in acc)


def echelon_minimal_connection(values: list[int]) -> tuple[int, list[int]]:
    """Least-degree cyclic annihilator with constant term 1 over Z4, as
    ``(degree, coefficients)``, constant term first.

    C mod 2 must be a multiple of g = (X**n - 1)/gcd(S mod 2, X**n - 1).
    Writing C = lift(g)*lift(u) + 2*lift(v) (u(0) = 1, v(0) = 0), the mod-4
    layer is W*u + (S mod 2)*v = 0 mod X**n - 1 over GF(2), where
    2*W = S*lift(g) cyclically. Candidate degrees d are admitted one at a
    time, each adding one shifted column of W and one of S mod 2 to a
    growing echelon; the first d whose column space reaches W wins.
    """
    values = [v % 4 for v in values]
    n = len(values)
    if not any(values):
        return 0, [1]
    mask = (1 << n) - 1

    def rotate(vec):  # times X modulo X**n - 1
        vec <<= 1
        return (vec & mask) | (vec >> n)

    sbar = sum(1 << i for i, v in enumerate(values) if v % 2)
    xn1 = (1 << n) | 1
    gbar, rem = gf2_divmod(xn1, gf2_gcd(sbar, xn1))
    assert rem == 0
    gdeg = gbar.bit_length() - 1
    folded = [0] * n
    for i in range(gdeg + 1):
        if (gbar >> i) & 1:
            for j, s in enumerate(values):
                folded[(i + j) % n] += s
    assert all(x % 2 == 0 for x in folded), "S*lift(g) is not even cyclically"
    w0 = sum(1 << i for i, x in enumerate(folded) if x % 4 == 2)

    pivots: dict[int, tuple[int, int]] = {}  # lead bit -> (vector, column combination)
    columns: list[tuple[str, int]] = []

    def reduce(vec, combo):
        while vec and vec.bit_length() - 1 in pivots:
            pv, pc = pivots[vec.bit_length() - 1]
            vec ^= pv
            combo ^= pc
        return vec, combo

    def insert(vec, kind, i):
        columns.append((kind, i))
        vec, combo = reduce(vec, 1 << (len(columns) - 1))
        if vec:
            pivots[vec.bit_length() - 1] = (vec, combo)

    residual, rcombo = w0, 0
    ucol, vcol = w0, sbar
    degree = gdeg
    for i in range(1, gdeg + 1):
        vcol = rotate(vcol)
        insert(vcol, "v", i)
    residual, rcombo = reduce(residual, rcombo)
    while residual:
        degree += 1
        assert degree <= n, "no annihilator up to the period length"
        ucol = rotate(ucol)
        insert(ucol, "u", degree - gdeg)
        vcol = rotate(vcol)
        insert(vcol, "v", degree)
        residual, rcombo = reduce(residual, rcombo)

    ubar, vbar = 1, 0
    for cid, (kind, i) in enumerate(columns):
        if (rcombo >> cid) & 1:
            if kind == "u":
                ubar ^= 1 << i
            else:
                vbar ^= 1 << i
    coeffs = [0] * (degree + 1)
    for i in range(gdeg + 1):
        for j in range(ubar.bit_length()):
            coeffs[i + j] += (gbar >> i) & (ubar >> j) & 1
    coeffs = [(c + 2 * ((vbar >> i) & 1)) % 4 for i, c in enumerate(coeffs)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    assert len(coeffs) - 1 == degree, "witness degree disagrees with the search"
    return degree, coeffs


def teichmuller_by_squarings(ring) -> bool:
    """Whether X**(2**r) = X in the ring, by r squarings of X."""
    t = ring.x
    for _ in range(ring.r):
        t = t * t
    return t == ring.x


def power_chain(x, count: int) -> list:
    """[x**0, ..., x**(count - 1)] by one product per entry."""
    out = [x.ring.one]
    for _ in range(count - 1):
        out.append(out[-1] * x)
    return out


def class_sums_by_chain(ring, classes, gamma) -> dict:
    """The sums of gamma**u over D0, D1, E0 and E1 from one chain gamma,
    gamma**2, ..., gamma**(p-1) of p - 2 products: gamma**k is added to the
    sum of the class of k and subtracted from that of k + p, as
    gamma**(k+p) = -gamma**k once gamma**p = -1."""
    p, blocks = classes.p, classes.blocks
    class_name = {u: name for name, block in blocks.items() for u in block}
    sums = dict.fromkeys(blocks, ring.zero)
    t = gamma
    for k in range(1, p):
        t = t * gamma if k > 1 else t
        sums[class_name[k]] += t
        sums[class_name[k + p]] -= t
    return sums


def scan_beta(ring, p: int):
    """The first power u**(|unit group| / p) distinct from 1 over the units
    u = X, X+1, X+2, ... in base-4 coordinate order: an element of order p,
    found without assuming that X is Teichmüller."""
    exponent = ring.unit_group_order // p
    k = 4  # X
    while True:
        coords = [(k >> (2 * i)) & 3 for i in range(ring.r)]
        if gr_is_unit(coords):
            b = ring.element(coords) ** exponent
            if b != ring.one:
                return b
        k += 1


def lemma3_by_product_sets(classes) -> tuple[bool, str]:
    """Lemma 3 by brute force, O(p**2): the product set v*B for every v in
    every class and both targets B, then the shifts (III)-(V). Returns
    (passed, detail) with the library's texts."""
    p = classes.p
    n = 2 * p
    pm1 = p % 8 in (1, 7)
    problems = []

    def mul_set(v, block):
        return frozenset(v * u % n for u in block)

    for i in (0, 1):
        for v in sorted(classes.d_class(i)):
            for j in (0, 1):
                if mul_set(v, classes.d_class(j)) != classes.d_class(i + j):
                    problems.append(f"(I) {v}*D{j} != D{(i + j) % 2}")
                if mul_set(v, classes.e_class(j)) != classes.e_class(i + j):
                    problems.append(f"(I) {v}*E{j} != E{(i + j) % 2}")
        for v in sorted(classes.e_class(i)):
            for j in (0, 1):
                if mul_set(v, classes.d_class(j)) != classes.e_class(i + j):
                    problems.append(f"(II) {v}*D{j} != E{(i + j) % 2}")
                expect = i + j if pm1 else i + j + 1
                if mul_set(v, classes.e_class(j)) != classes.e_class(expect):
                    problems.append(f"(II) {v}*E{j} != E{expect % 2}")
        shift_e = frozenset((v + p) % n for v in classes.e_class(i))
        if shift_e != classes.d_class(i if pm1 else i + 1):
            problems.append(f"(III) E{i}+p mismatch")
        shift_d = frozenset((v + p) % n for v in classes.d_class(i))
        if shift_d != classes.e_class(i if pm1 else i + 1):
            problems.append(f"(IV) D{i}+p mismatch")
        if pm1:
            folded = frozenset(u + p for u in classes.d_class(i) if u < p) | frozenset(
                u - p for u in classes.d_class(i) if u > p
            )
            if folded != classes.e_class(i):
                problems.append(f"(V) E{i} fold mismatch")
    parts = "I-V" if pm1 else "I-IV (V not applicable)"
    return not problems, problems[0] if problems else f"class relations {parts} hold"


def period_by_euler(p: int) -> tuple[int, ...]:
    """One period from quadratic characters mod p alone.

    The even powers of a primitive root are the quadratic residues mod p,
    so an odd u != p is in D0 iff chi(u) = u**((p-1)/2) mod p is 1; an even
    u != 0 is 2w mod 2p with w odd and chi(w) = chi(u)*chi(2), so it is in
    E0 iff that is 1."""
    def chi(u):
        return 1 if pow(u, (p - 1) // 2, p) == 1 else -1

    values = []
    for u in range(2 * p):
        if u % p == 0:
            values.append(0 if u == 0 else 2)
        elif u % 2:
            values.append(0 if chi(u) == 1 else 1)
        else:
            values.append(2 if chi(u) * chi(2) == 1 else 3)
    return tuple(values)


def sequence_value(ws, v: int):
    """S(gamma**v) = sum over u of s_u * gamma**(u*v) for the workspace's
    gamma and period, any v, summed over the 2p-entry power table."""
    n = 2 * ws.p
    ring, powers = ws.ring, powers_of(ws.gamma, n)
    s1, s2, s3 = (
        sum((powers[u * v % n] for u, s in enumerate(ws.seq.values) if s == k), ring.zero)
        for k in (1, 2, 3)
    )
    return s1 + s2 + s2 - s3  # s1 + 2*s2 + 3*s3, as 3 = -1


def lemma8_by_value_table(ws) -> tuple[bool, str]:
    """Lemmas 4 and 8 by brute force, O(p**2): S(gamma**v) for all 2p
    exponents v (``sequence_value``), each compared with the table entry
    of its class in increasing v. Returns (passed, detail) with the
    library's texts."""
    ring, p, classes = ws.ring, ws.p, ws.classes
    values = [sequence_value(ws, v) for v in range(2 * p)]
    s0 = ws.normalized.s0
    problems = []
    if values[0] != ring.embed((p + 1) % 4):
        problems.append(f"S(1) = {values[0]}, want {(p + 1) % 4}")
    if values[p] != ring.embed(2):
        problems.append(f"S(gamma^p) = {values[p]}, want 2")
    blocks = classes.blocks.items()
    if p % 8 in (3, 5):
        two_s0 = s0 + s0
        expect = {
            "D0": ring.one - two_s0,
            "D1": two_s0 - ring.one,
            "E0": ring.embed(3),
            "E1": ring.embed(3),
        }
        for name, block in blocks:
            for v in sorted(block):
                if values[v] != expect[name]:
                    problems.append(f"S(gamma^{v}) != expected on {name}")
                    break
                if not values[v].is_unit():
                    problems.append(f"S(gamma^{v}) is not a unit on {name}")
                    break
        detail_ok = "values match the p = +-3 (mod 8) table and are units"
    else:
        for name, block in blocks:
            want = 2 if name == "E1" else 0
            for v in sorted(block):
                if values[v] != ring.embed(want):
                    problems.append(f"S(gamma^{v}) != {want} on {name}")
                    break
        detail_ok = "values match the p = +-1 (mod 8) table (0 off E1, 2 on E1)"
    return not problems, problems[0] if problems else detail_ok


def class_products_by_expansion(ws) -> dict:
    """The product of X - gamma**v over v in each class of the workspace,
    by class name, expanded schoolbook one linear factor at a time with
    gamma**v read from the 2p-entry power table."""
    ring = ws.ring
    powers = powers_of(ws.gamma, 2 * ws.p)
    products = {}
    for name, block in ws.classes.blocks.items():
        acc = RingPolynomial(ring, [ring.one])
        for v in sorted(block):
            acc = acc * RingPolynomial(ring, [-powers[v], ring.one])
        products[name] = acc
    return products


def classes_by_set_walk(p: int) -> GeneralizedCyclotomy:
    """The four classes as sets: the even powers of g mod 2p into D0, the
    odd ones into D1, their doubles into E0 and E1. Raises RuntimeError
    unless the sets and {0, p} cover Z_2p with (p - 1)/2 elements each."""
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
        raise RuntimeError("class construction does not cover Z_2p")
    if any(len(block) != half for block in blocks):
        raise RuntimeError("class cardinalities are off")
    return GeneralizedCyclotomy(
        p=p, g=g, d0=frozenset(d0), d1=frozenset(d1), e0=frozenset(e0), e1=frozenset(e1)
    )


def ord2_by_doubling(p: int) -> int:
    """The least r >= 1 with 2**r = 1 mod p, by doubling 2 until 1 comes
    back: up to p - 2 products."""
    r, t = 1, 2 % p
    while t != 1:
        t = t * 2 % p
        r += 1
    return r
