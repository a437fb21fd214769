import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cyclo4.galois import Z4, GaloisRing, construct_ring
from cyclo4.ringpoly import NEG_INF, NonUnitDivisorError, RingPolynomial


def zp(*ints):
    return RingPolynomial.from_ints(Z4, ints)


class TestZ4:
    def test_is_the_galois_ring_of_modulus_x(self):
        assert isinstance(Z4, GaloisRing) and Z4.r == 1
        assert [c.value for c in Z4.modulus.coeffs] == [0, 1]
        assert Z4.x == Z4.zero

    def test_reduction(self):
        assert Z4.embed(7).value == 3
        assert Z4.embed(-1).value == 3

    def test_units_are_one_and_three(self):
        assert [v for v in range(4) if Z4.embed(v).is_unit()] == [1, 3]

    def test_units_are_self_inverse(self):
        for v in (1, 3):
            assert Z4.embed(v).inverse() == Z4.embed(v)
            assert Z4.embed(v) * Z4.embed(v).inverse() == Z4.one

    def test_two_is_the_nonzero_zero_divisor(self):
        assert Z4.embed(2) * Z4.embed(2) == Z4.zero
        assert Z4.embed(2) != Z4.zero

    def test_non_unit_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            Z4.embed(2).inverse()

    def test_immutably_hashable(self):
        assert len({Z4.embed(1), Z4.embed(5)}) == 1
        with pytest.raises(AttributeError):
            Z4.embed(1).value = 2

    def test_text_is_the_digit(self):
        assert [str(Z4.embed(v)) for v in range(4)] == ["0", "1", "2", "3"]


class TestAddition:
    def test_opposite_constants_cancel(self):
        assert zp(1, 2) + zp(3, 2) == zp()

    def test_additive_identity(self):
        p = zp(2, 0, 1)
        assert p + zp() == p

    def test_full_cancellation_to_zero(self):
        assert zp(-2, 2) + zp(2, 2) == zp()
        assert (zp(-2, 2) + zp(2, 2)).is_zero


class TestMultiplication:
    def test_zero_divisor_leading_coefficients_annihilate(self):
        assert zp(0, 2) * zp(0, 2) == zp()

    def test_unit_linear_product(self):
        assert zp(1, 1) * zp(3, 1) == zp(3, 0, 1)

    def test_multiplicative_identity(self):
        p = zp(1, 0, 3, 2)
        assert p * zp(1) == p

    def test_degree_can_drop_strictly(self):
        # leading zero divisors cancel: (1 + 2X)^2 = 1 exactly
        prod = zp(1, 2) * zp(1, 2)
        assert prod == zp(1) and prod.degree == 0


class TestCyclicReduction:
    def test_xn_wraps_to_one(self):
        assert RingPolynomial.monomial(Z4, 6).mod_cyclic(6) == zp(1)

    def test_annihilating_fold(self):
        p = zp(*([1] + [0] * 9 + [3]))
        assert p.mod_cyclic(10).is_zero

    def test_like_terms_collect(self):
        p = zp(0, 1, 0, 0, 0, 0, 0, 1)  # X + X^7
        assert p.mod_cyclic(6) == zp(0, 2)

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            zp(1).mod_cyclic(0)


class TestDivision:
    def test_unit_quadratic(self):
        q, r = divmod(zp(3, 0, 1), zp(1, 1))
        assert q == zp(3, 1) and r.is_zero

    def test_zero_divisor_dividend_by_x_minus_one(self):
        q, r = divmod(zp(-2, 2), zp(-1, 1))
        assert q == zp(2) and r.is_zero

    def test_division_by_one(self):
        p = zp(2, 3, 1)
        q, r = divmod(p, zp(1))
        assert q == p and r.is_zero

    def test_rejects_non_unit_leading_coefficient(self):
        with pytest.raises(NonUnitDivisorError):
            divmod(zp(1, 1), zp(1, 2))

    def test_rejects_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            divmod(zp(1), zp())

    def test_short_dividend(self):
        q, r = divmod(zp(3), zp(1, 0, 1))
        assert q.is_zero and r == zp(3)


class TestDegreeSentinel:
    def test_zero_polynomial_degree_is_not_a_number(self):
        d = zp().degree
        assert d is NEG_INF
        assert not isinstance(d, int)

    def test_sentinel_orders_below_every_integer(self):
        assert NEG_INF < 0 and NEG_INF < -10**9
        assert not NEG_INF >= 0
        assert 0 > NEG_INF
        assert NEG_INF <= NEG_INF and NEG_INF >= NEG_INF


def random_poly(rng, max_degree=8):
    return zp(*[rng.randrange(4) for _ in range(rng.randrange(max_degree + 1))])


class TestRingAxioms:
    def test_axioms_on_sampled_triples(self):
        rng = random.Random(12345)
        for _ in range(300):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a - a).is_zero

    def test_divmod_round_trip(self):
        rng = random.Random(54321)
        done = 0
        while done < 200:
            a, d = random_poly(rng, 10), random_poly(rng, 5)
            if d.is_zero or not d.coeffs[-1].is_unit():
                continue
            q, r = divmod(a, d)
            assert d * q + r == a
            assert r.degree < d.degree
            done += 1

    def test_cyclic_reduction_is_multiplicative(self):
        rng = random.Random(999)
        for _ in range(200):
            a, b = random_poly(rng, 9), random_poly(rng, 9)
            n = rng.randrange(1, 7)
            lhs = (a * b).mod_cyclic(n)
            rhs = (a.mod_cyclic(n) * b.mod_cyclic(n)).mod_cyclic(n)
            assert lhs == rhs

    def test_unit_leading_times_nonzero_is_nonzero(self):
        rng = random.Random(777)
        done = 0
        while done < 200:
            a, b = random_poly(rng, 6), random_poly(rng, 6)
            if a.is_zero or not a.coeffs[-1].is_unit() or b.is_zero:
                continue
            assert not (a * b).is_zero
            done += 1

    def test_normalization_after_every_operation(self):
        rng = random.Random(4242)
        for _ in range(200):
            a, b = random_poly(rng), random_poly(rng)
            for p in (a + b, a - b, a * b):
                assert not p.coeffs or p.coeffs[-1] != Z4.zero


# Z4, GR(4^3, 4) and GR(4^10, 4)
_RINGS = st.sampled_from((1, 7, 11)).map(lambda p: Z4 if p == 1 else construct_ring(p))


def _elements(ring):
    return st.lists(st.integers(0, 3), min_size=ring.r, max_size=ring.r).map(ring.element)


def _polys(ring, max_degree=60):
    """Dense polynomials, and sparse ones with long runs of zero coefficients."""
    dense = st.lists(_elements(ring), max_size=max_degree + 1)
    sparse = st.dictionaries(st.integers(0, max_degree), _elements(ring), max_size=4).map(
        lambda terms: [terms.get(i, ring.zero) for i in range(max(terms, default=-1) + 1)]
    )
    return st.one_of(dense, sparse).map(lambda coeffs: RingPolynomial(ring, coeffs))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_matches_dense_horner(data):
    # a Z4 polynomial at a point of a larger ring takes the embedding path
    ring = data.draw(_RINGS)
    poly = data.draw(_polys(data.draw(st.sampled_from((Z4, ring)))))
    point = data.draw(_elements(ring))
    assert poly.evaluate(point) == oracles.horner(poly, point)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_divmod_round_trip_on_sparse_and_dense_divisors(data):
    ring = data.draw(_RINGS)
    a = data.draw(_polys(ring))
    d = data.draw(_polys(ring, 30).filter(lambda d: not d.is_zero and d.coeffs[-1].is_unit()))
    q, r = divmod(a, d)
    assert q * d + r == a
    assert r.degree < d.degree
