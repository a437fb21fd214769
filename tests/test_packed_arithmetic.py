"""Packed Galois-ring arithmetic and the linear-time checks against the
plain-Python oracles in ``oracles.py``."""

import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cyclo4 import f2
from cyclo4.galois import (
    Z4,
    GaloisRing,
    GaloisRingElement,
    construct_ring,
    find_gamma,
    lift_irreducible,
    powers_of,
)
from cyclo4.ringpoly import RingPolynomial
from cyclo4.verify import CheckStatus, _Workspace, check_factorizations, check_gamma, full_report


def _dense_ring(r: int) -> GaloisRing:
    """A basic irreducible with every coefficient below X**r nonzero, so
    X**r = -f_low lowers the degree by one per reduction round."""
    h = next(
        h for h in range((1 << r) | (1 << (r - 1)) | 1, 1 << (r + 1), 2) if f2.is_irreducible(h)
    )
    coeffs = [1 if (h >> i) & 1 else 2 for i in range(r)] + [1]
    return GaloisRing(RingPolynomial.from_ints(Z4, coeffs))


RINGS = (
    [construct_ring(p) for p in (3, 5, 7, 31, 293)]
    + [GaloisRing(RingPolynomial.from_ints(Z4, [c, 1])) for c in range(4)]
    + [_dense_ring(12)]
)


def _modulus(ring):
    return [c.value for c in ring.modulus.coeffs]


def _from_counter(ring, k):
    return ring.element([(k >> (2 * i)) & 3 for i in range(ring.r)])


def _full_elements(ring):
    """Uniform elements, so of full degree but for a few top zeros."""
    uniform = st.randoms(use_true_random=False).map(lambda rng: rng.randrange(4**ring.r))
    return uniform.map(lambda k: _from_counter(ring, k))


def _elements(ring):
    # hypothesis mostly draws small integers from a wide range, which are
    # elements of low degree whose products need no fold
    small = st.integers(0, 4**ring.r - 1).map(lambda k: _from_counter(ring, k))
    return small | _full_elements(ring)


def _ring_with(count):
    return st.sampled_from(RINGS).flatmap(
        lambda ring: st.tuples(st.just(ring), *[_elements(ring)] * count)
    )


@settings(max_examples=150, deadline=None)
@given(_ring_with(2))
def test_multiply_matches_schoolbook(args):
    ring, a, b = args
    assert (a * b).coords == oracles.gr_mul(_modulus(ring), a.coords, b.coords)


@settings(max_examples=60, deadline=None)
@given(_ring_with(1), st.integers(0, 40))
def test_power_matches_schoolbook(args, n):
    ring, a = args
    assert (a**n).coords == oracles.gr_pow(_modulus(ring), a.coords, n)


@settings(max_examples=60, deadline=None)
@given(_ring_with(1))
def test_inverse_matches_schoolbook(args):
    ring, a = args
    if not a.is_unit():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    one = (1,) + (0,) * (ring.r - 1)
    assert oracles.gr_mul(_modulus(ring), a.coords, a.inverse().coords) == one


@settings(max_examples=100, deadline=None)
@given(_ring_with(3))
def test_ring_axioms(args):
    ring, a, b, c = args
    assert a * (b * c) == (a * b) * c
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a * ring.one == a and a * ring.zero == ring.zero
    assert a + (-a) == ring.zero
    assert a - b == a + (-b)
    assert (a + b).coords == tuple((x + y) % 4 for x, y in zip(a.coords, b.coords))
    assert (a - b).coords == tuple((x - y) % 4 for x, y in zip(a.coords, b.coords))
    assert a.is_unit() == oracles.gr_is_unit(a.coords)
    assert ring.element(a.coords) == a and hash(ring.element(a.coords)) == hash(a)


@pytest.mark.parametrize("p", [31, 73, 89, 127])
def test_sequence_values_match_oracle_when_r_is_small(p):
    # S(gamma**v) sums up to 2p terms of at most 9 per slot, which exceeds
    # the slot width chosen for products when r is much smaller than p.
    # The values are Z4 combinations of the streamed class sums: the sum of
    # gamma**(u*v) over a class C is the class sum over v*C for every v
    # nonzero mod p.
    ws = _Workspace(p)
    n = 2 * p
    product_slot_bits = (9 * ws.ring.r).bit_length() + 1
    assert 9 * n >= 1 << product_slot_bits
    powers = [e.coords for e in oracles.power_chain(ws.gamma, n)]
    blocks, sums = ws.classes.blocks, ws.normalized.sums
    class_name = {u: name for name, block in blocks.items() for u in block}
    for name, block in blocks.items():
        want = oracles.sequence_values(powers, [int(u in block) for u in range(n)])
        assert sums[name].coords == want[1]
        for v in range(n):
            if v % p:
                assert sums[class_name[v * min(block) % n]].coords == want[v], (name, v)


def _with_gamma(ws, gamma):
    return SimpleNamespace(
        ring=ws.ring, p=ws.p, beta=ws.beta, raw_gamma=ws.raw_gamma,
        normalized=ws.normalized, gamma=gamma, gamma_p=gamma**ws.p,
    )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_check_gamma_agrees_with_pairwise_scan(p):
    ws = _Workspace(p)
    table = [e.coords for e in powers_of(ws.gamma, 2 * p)]
    assert oracles.pairwise_gamma_failure(table, p) is None
    assert check_gamma(ws).status is CheckStatus.PASS
    # every x with x**p = -1 is -beta**k, as the elements of order dividing p
    # are the powers of beta; the one test of x - 1 fails where the scan
    # fails, with its text, and only at x = -1
    failures = []
    for k in range(p):
        x = -(ws.beta**k)
        assert x**p == ws.ring.embed(3)
        want = oracles.pairwise_gamma_failure([e.coords for e in powers_of(x, 2 * p)], p)
        got = check_gamma(_with_gamma(ws, x))
        assert got.status is (CheckStatus.PASS if want is None else CheckStatus.FAIL)
        if want is not None:
            failures.append(k)
            assert got.detail == want
    assert failures == [0]


def test_construct_ring_tests_the_modulus_once(monkeypatch):
    calls = []
    real = f2.is_irreducible

    def counting(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(f2, "is_irreducible", counting)
    try:
        for p in (293, 719):
            construct_ring.cache_clear()
            f2.lex_smallest_irreducible.cache_clear()
            calls.clear()
            ring = construct_ring(p)
            h = sum(1 << i for i, c in enumerate(ring.modulus.coeffs) if c.value % 2)
            assert calls.count(h) == 1
            beta, gamma = find_gamma(ring, p)
            assert beta**p == ring.one and gamma**p == ring.embed(3)
    finally:
        construct_ring.cache_clear()
        f2.lex_smallest_irreducible.cache_clear()


def _reciprocal_lift_ring(r: int) -> GaloisRing:
    """The ring of the Graeffe lift of the reciprocal of the canonical
    irreducible of degree r, whose low part sits near X**r."""
    h = f2.lex_smallest_irreducible(r)
    return GaloisRing(lift_irreducible(int(bin(h)[2:][::-1], 2)))


# (ring, number of fold pieces of its modulus)
FOLD_RINGS = [
    (construct_ring(59), 2),
    (construct_ring(131), 2),
    (construct_ring(293), 2),
    (construct_ring(211), 3),
    (_reciprocal_lift_ring(58), 3),
    (_dense_ring(12), 1),
    (_dense_ring(40), 1),
    (construct_ring(73), 1),
]


@pytest.mark.parametrize("ring,count", FOLD_RINGS, ids=lambda v: repr(v))
def test_fold_pieces_add_up_to_the_fold(ring, count):
    pieces = ring._fold_pieces
    assert len(pieces) == count
    neg_low = ring._pack([(-c) % 4 for c in _modulus(ring)[:-1]])
    assert sum(run << shift for shift, run in pieces) == neg_low
    assert all(run & ((1 << ring._slot_bits) - 1) for _, run in pieces)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([ring for ring, _ in FOLD_RINGS]).flatmap(
        lambda ring: st.tuples(st.just(ring), _full_elements(ring), _full_elements(ring))
    )
)
def test_sparse_fold_product_matches_schoolbook(args):
    ring, a, b = args
    got = GaloisRingElement(ring, ring._mul_packed(a.packed, b.packed)).coords
    assert got == oracles.gr_mul(_modulus(ring), a.coords, b.coords)


@pytest.mark.parametrize("p", [3, 7, 11, 31, 43, 59, 131])
def test_beta_is_x_to_the_m_where_that_has_order_p(p):
    # X is Teichmüller in a canonical ring, and X**m != 1 at these p, so
    # find_gamma's least residue s is X itself
    ring = construct_ring(p)
    assert find_gamma(ring, p)[0] == ring.x ** (((1 << ring.r) - 1) // p) != ring.one


@pytest.mark.parametrize("p", [3, 7, 31, 59])
def test_power_table_matches_a_product_chain(p):
    ring = construct_ring(p)
    beta, gamma = find_gamma(ring, p)
    rng = random.Random(p)
    units = []
    while len(units) < 3:
        e = ring.element([rng.randrange(4) for _ in range(ring.r)])
        if e.is_unit():
            units.append(e)
    xs = [gamma, beta, ring.embed(3), ring.embed(2), ring.one, ring.zero, -ring.x] + units
    for x in xs:
        for count in sorted({1, 2, 3, 4, p, p + 1, 2 * p, 2 * p + 1, 3 * p + 2}):
            want = oracles.power_chain(x, count)
            assert list(powers_of.__wrapped__(x, count)) == want, (x, count)


@pytest.fixture
def products(monkeypatch):
    """The list that every ``GaloisRing._mul_packed`` call appends to."""
    calls = []
    real = GaloisRing._mul_packed

    def counting(self, a, b):
        calls.append(self.r)
        return real(self, a, b)

    monkeypatch.setattr(GaloisRing, "_mul_packed", counting)
    return calls


def test_power_makes_one_product_per_squaring_and_set_bit(products):
    ring = construct_ring(59)
    x = ring.x + ring.one
    assert x**0 == ring.one and x**1 == x
    assert len(products) == 0
    y = x**1019
    # 1019 = 0b1111111011: 9 squarings, then 8 multiplies for the set bits below the top
    assert len(products) == 9 + bin(1019).count("1") - 1
    assert y.coords == oracles.gr_pow(_modulus(x.ring), x.coords, 1019)


def test_ring_setup_makes_a_bounded_number_of_products(products):
    construct_ring.cache_clear()
    powers_of.cache_clear()
    try:
        ring = construct_ring(719)
        assert len(products) == 0  # the Teichmüller check is one reduction
        find_gamma(ring, 719)
        # one squaring of the lifted residue, then the powers beta**p and
        # gamma**p, each 9 squarings and 6 multiplies (719 = 0b1011001111)
        assert len(products) <= 1 + 2 * 15
        products.clear()
        ws = _Workspace(293)
        ws.normalized  # the fields are lazy: gamma and its class sums, read here
        # one squaring and two powers by p of 11 products each (293 =
        # 0b100100101); then for the class sums find_gamma(ring, 3)'s five
        # (one squaring, two cubes), omega**2, beta**2 from beta for the
        # second of the two cosets of <4>, and omega * beta**a for each
        assert len(products) <= 1 + 22 + 5 + 1 + 1 + 2
    finally:
        construct_ring.cache_clear()
        powers_of.cache_clear()


def test_full_report_makes_a_bounded_number_of_products(products):
    full_report(293)
    # the workspace's 32, the one power gamma**p that check_gamma and the
    # roots check share, three for the quadratics of lemma6 and lemma7, and
    # the roots check's squares of 1 and gamma**p
    assert len(products) <= 32 + 11 + 3 + 2


@pytest.mark.parametrize("p", [3, 5, 11, 31, 293])
def test_check_gamma_makes_no_product_of_its_own(p, products):
    # gamma is not replaced at these p, so check_gamma reads beta**p as
    # -(gamma**p), the power the roots check shares
    ws = _Workspace(p)
    assert not ws.normalized.replaced
    ws.gamma_p
    products.clear()
    assert check_gamma(ws).status is CheckStatus.PASS
    assert not products


@pytest.mark.parametrize("p", [17, 23, 31, 59, 61])
def test_factorization_check_expands_no_product(p, products, monkeypatch):
    ws = _Workspace(p)
    ws.normalized  # gamma, built before the count starts
    poly_products = []
    real = RingPolynomial.__mul__

    def counting(a, b):
        poly_products.append(1)
        return real(a, b)

    monkeypatch.setattr(RingPolynomial, "__mul__", counting)
    products.clear()
    assert check_factorizations(ws)[0].status is CheckStatus.PASS
    assert not poly_products
    # the power gamma**p, which the roots check reuses, then gamma**(p+2)
    # from it for lemma9
    power = (p.bit_length() - 1) + (bin(p).count("1") - 1)
    assert len(products) <= power + 2
    products.clear()
    assert ws.gamma_p == ws.ring.embed(3)
    assert not products


def test_workspace_memory_stays_linear_in_r():
    # r = 1018: a 2p-entry power table of gamma alone takes about 4 MB; the
    # four class sums and the chain's current power take about 0.3 MB
    construct_ring(1019)
    powers_of.cache_clear()
    tracemalloc.start()
    try:
        ws = _Workspace(1019)
        ws.normalized, ws.seq  # the fields are lazy: what an unfiltered report builds
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# rings whose X is Teichmüller: canonical ones, p = 211 with three fold
# pieces among them, and the reciprocal lift; their Teichmüller elements
# are X and, in a canonical ring, beta of order p
CANONICAL_RINGS = {p: construct_ring(p) for p in (3, 7, 31, 73, 211)}
FROBENIUS_RINGS = [*CANONICAL_RINGS.values(), _reciprocal_lift_ring(58)]
TEICHMULLER_BASES = [(ring, ring.x) for ring in FROBENIUS_RINGS] + [
    (ring, find_gamma(ring, p)[0]) for p, ring in CANONICAL_RINGS.items()
]


def _frobenius_ring_with(count):
    return st.sampled_from(FROBENIUS_RINGS).flatmap(
        lambda ring: st.tuples(st.just(ring), *[_elements(ring)] * count)
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TEICHMULLER_BASES), st.integers(0, 1 << 20))
def test_frobenius_squares_a_teichmuller_element(case, k):
    ring, base = case
    x = base**k
    assert ring.frobenius(x) == x * x


@settings(max_examples=100, deadline=None)
@given(_frobenius_ring_with(2))
def test_frobenius_is_a_ring_homomorphism(args):
    ring, a, b = args
    sigma = ring.frobenius
    assert sigma(a + b) == sigma(a) + sigma(b)
    assert sigma(a * b) == sigma(a) * sigma(b)
    assert sigma(ring.one) == ring.one


@settings(max_examples=30, deadline=None)
@given(_frobenius_ring_with(1))
def test_frobenius_has_order_dividing_r(args):
    ring, a = args
    x = a
    for _ in range(ring.r):
        x = ring.frobenius(x)
    assert x == a


@pytest.mark.parametrize("p", [3, 7, 31])
def test_frobenius_fixes_exactly_the_embedded_constants(p):
    ring = construct_ring(p)
    elements = [_from_counter(ring, k) for k in range(4**ring.r)]
    assert [x for x in elements if ring.frobenius(x) == x] == elements[:4]


@pytest.mark.parametrize("ring", FROBENIUS_RINGS, ids=repr)
def test_frobenius_does_not_square_a_unit_off_the_teichmuller_set(ring):
    # (1 + 2X)**2 = 1, while sigma(1 + 2X) = 1 + 2X**2
    u = ring.one + ring.x + ring.x
    assert u * u == ring.one
    assert ring.frobenius(u) == ring.one + ring.embed(2) * ring.x * ring.x != u * u


def test_frobenius_refuses_a_ring_whose_x_is_not_teichmuller():
    ring = GaloisRing(RingPolynomial.from_ints(Z4, [1, 3, 1]))
    assert not ring.x_is_teichmuller()
    with pytest.raises(ValueError, match="not Teichmüller"):
        ring.frobenius(ring.x)


def test_frobenius_refuses_an_element_of_another_ring():
    with pytest.raises(ValueError, match="different ring"):
        construct_ring(7).frobenius(construct_ring(31).x)
