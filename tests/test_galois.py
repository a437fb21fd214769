import hashlib
import random

import pytest

import oracles
from cyclo4 import galois
from cyclo4.galois import (
    Z4,
    GaloisRing,
    construct_ring,
    find_gamma,
    lift_irreducible,
    ord2_mod_p,
    powers_of,
)
from cyclo4.primes import factorize, odd_primes
from cyclo4.ringpoly import RingPolynomial


def zp(*ints):
    return RingPolynomial.from_ints(Z4, ints)


class TestOrd2:
    @pytest.mark.parametrize("p,r", [(7, 3), (3, 2), (5, 4), (17, 8), (31, 5), (41, 20)])
    def test_known_orders(self, p, r):
        assert ord2_mod_p(p) == r

    def test_order_divides_p_minus_one(self):
        for p in odd_primes(3, 100):
            assert (p - 1) % ord2_mod_p(p) == 0

    @pytest.mark.parametrize("bad", [2, 4, 9, 15, 1, -3])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            ord2_mod_p(bad)

    def test_matches_doubling_below_20000(self):
        for p in odd_primes(3, 20000):
            assert ord2_mod_p(p) == oracles.ord2_by_doubling(p), p

    @pytest.mark.parametrize("p", [1_000_000_007, 998_244_353, 2**31 - 1])
    def test_large_primes_without_a_walk(self, p):
        # 2**r = 1 and no 2**(r/q) = 1: r is the order, found in no p-step loop
        r = ord2_mod_p(p)
        assert (p - 1) % r == 0 and pow(2, r, p) == 1
        assert all(pow(2, r // q, p) != 1 for q in factorize(r))


class TestLift:
    def test_degree_two(self):
        assert lift_irreducible(0b111) == zp(1, 1, 1)

    def test_degree_three(self):
        assert lift_irreducible(0b1011) == zp(3, 1, 2, 1)

    def test_degree_one_x_is_fixed(self):
        assert lift_irreducible(0b10) == zp(0, 1)

    def test_degree_one_x_plus_one(self):
        # The lift must satisfy f | X^(2^1 - 1) - 1 = X - 1, so the root is 1.
        assert lift_irreducible(0b11) == zp(3, 1)

    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            lift_irreducible(0b101)

    def test_lift_reduces_back_mod_two(self):
        for r in (2, 3, 4, 5, 8, 11):
            from cyclo4 import f2

            h = f2.lex_smallest_irreducible(r)
            f = lift_irreducible(h)
            back = 0
            for i, c in enumerate(f.coeffs):
                if c.value % 2:
                    back |= 1 << i
            assert back == h


class TestConstructRing:
    def test_p3(self):
        ring = construct_ring(3)
        assert ring.r == 2 and ring.modulus == zp(1, 1, 1)

    def test_p7(self):
        ring = construct_ring(7)
        assert ring.r == 3 and ring.modulus == zp(3, 1, 2, 1)

    def test_p5_extension_degree(self):
        assert construct_ring(5).r == 4

    def test_root_of_modulus_is_a_unit_of_teichmueller_order(self):
        for p in (3, 5, 7, 11, 17):
            ring = construct_ring(p)
            assert ring.x.is_unit()
            assert ring.x ** ((1 << ring.r) - 1) == ring.one

    def test_rejects_non_basic_modulus(self):
        with pytest.raises(ValueError):
            GaloisRing(zp(1, 0, 1))  # X^2 + 1 reduces to (X+1)^2

    def test_rejects_a_modulus_that_is_not_a_graeffe_lift(self, monkeypatch):
        # X^2 + 3X + 1 reduces to the irreducible X^2 + X + 1 mod 2, but X is
        # not Teichmüller there: X^3 = 3, so X^(2^2) = 3X != X
        monkeypatch.setattr(galois, "_graeffe_lift", lambda h: (1, 3, 1))
        construct_ring.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="not a Graeffe lift"):
                construct_ring(3)
        finally:
            construct_ring.cache_clear()

    def test_one_reduction_check_agrees_with_r_squarings(self):
        for p in odd_primes(3, 499):
            ring = construct_ring(p)
            assert ring.x_is_teichmuller(), p
            assert oracles.teichmuller_by_squarings(ring), p

    @pytest.mark.parametrize("p", [3, 7, 11, 31, 59, 131, 293])
    def test_both_checks_reject_basic_irreducible_mutants(self, p):
        # f + 2X**k reduces to the same irreducible mod 2, so it is basic
        # irreducible, but only the Graeffe lift has the Teichmüller root X
        f = [c.value for c in construct_ring(p).modulus.coeffs]
        r = len(f) - 1
        for k in sorted({0, 1, r // 2, r // 2 + 1, r - 1} - {r}):
            mutant = GaloisRing(zp(*[(c + 2 * (i == k)) % 4 for i, c in enumerate(f)]))
            assert not mutant.x_is_teichmuller(), (p, k)
            assert not oracles.teichmuller_by_squarings(mutant), (p, k)


class TestElementArithmetic:
    def test_omega_cubed_is_one(self):
        ring = construct_ring(3)
        w = ring.x
        assert w * (w * w) == ring.one
        assert w * w == ring.element([3, 3])  # w^2 = 3w + 3

    def test_zeroth_power(self):
        ring = construct_ring(3)
        assert (ring.element([2, 1])) ** 0 == ring.one

    def test_embedded_constants(self):
        ring = construct_ring(3)
        assert ring.embed(3) ** 2 == ring.one
        assert ring.embed(3) * ring.embed(3) == ring.embed(9)

    def test_unit_detection(self):
        ring = construct_ring(3)
        assert not (ring.embed(2) * ring.x).is_unit()
        assert ring.x.is_unit()
        assert not ring.zero.is_unit()

    def test_unit_inverses(self):
        rng = random.Random(31)
        for p in (3, 7, 17):
            ring = construct_ring(p)
            for _ in range(40):
                e = ring.element([rng.randrange(4) for _ in range(ring.r)])
                if e.is_unit():
                    assert e * e.inverse() == ring.one

    def test_unit_group_order_annihilates(self):
        rng = random.Random(13)
        for p in (3, 7):
            ring = construct_ring(p)
            for _ in range(20):
                e = ring.element([rng.randrange(4) for _ in range(ring.r)])
                if e.is_unit():
                    assert e ** ring.unit_group_order == ring.one

    def test_mixed_ring_operands_rejected(self):
        a = construct_ring(3).x
        b = construct_ring(7).x
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            a + b

    def test_embedded_constant_extraction(self):
        ring = construct_ring(3)
        assert ring.embed(2).value == 2
        with pytest.raises(ValueError):
            ring.x.value


def check_gamma_postconditions(p):
    ring = construct_ring(p)
    beta, gamma = find_gamma(ring, p)
    assert beta ** p == ring.one and beta != ring.one
    assert gamma ** p == ring.embed(3)
    assert gamma ** (2 * p) == ring.one
    assert gamma ** 2 != ring.one  # order is exactly 2p, not 2


class TestFindGamma:
    def test_p3_matches_hand_computation(self):
        ring = construct_ring(3)
        beta, gamma = find_gamma(ring, 3)
        assert beta == ring.x
        assert gamma == ring.embed(3) * ring.x
        assert gamma ** 3 == ring.embed(3)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 23, 31, 41, 43])
    def test_postconditions_small(self, p):
        check_gamma_postconditions(p)

    @pytest.mark.parametrize("p", [211, 257, 499])
    def test_postconditions_spot_large(self, p):
        check_gamma_postconditions(p)

    def test_wrong_ring_rejected(self):
        with pytest.raises(ValueError):
            find_gamma(construct_ring(3), 5)

    def test_distinct_powers_differ_by_units(self):
        for p in (3, 5, 7):
            ring = construct_ring(p)
            _, gamma = find_gamma(ring, p)
            pw = powers_of(gamma, 2 * p)
            for v1 in range(2 * p):
                for v2 in range(2 * p):
                    if v1 % p != v2 % p:
                        assert (pw[v1] - pw[v2]).is_unit()

    def test_power_cache_is_incremental_and_consistent(self):
        ring = construct_ring(7)
        _, gamma = find_gamma(ring, 7)
        pw = powers_of(gamma, 14)
        assert pw[0] == ring.one
        for k in range(1, 14):
            assert pw[k] == pw[k - 1] * gamma
            assert pw[k] == gamma ** k


@pytest.mark.slow
def test_find_gamma_postconditions_full_sweep():
    for p in odd_primes(3, 499):
        check_gamma_postconditions(p)


# sha256 of the base-4 digits of beta, "|", then those of gamma, computed
# as X**((2**r - 1)/p) by ring squarings, before find_gamma worked in the
# residue field
_GAMMA_DIGESTS = {
    1019: "2eaf9f0ab042e39de7b838af3bd880be8ee2e0757df3b5453704b8909f3a47f9",
    4001: "df95bf3fec75896e97825f1cfc9d365da55ea0e24ee7134a2f758d8a2e88ada3",
    4003: "8856f7848bc5f4437c23de5b983c5ce6dac0fa05220746ace628564915243706",
    8011: "182b2186e38f2a5155d1dd9d082f07015648e15ad7fc1e39f4281fbed04cad40",
}


@pytest.mark.slow
@pytest.mark.parametrize("p", sorted(_GAMMA_DIGESTS))
def test_find_gamma_golden_at_large_p(p):
    beta, gamma = find_gamma(construct_ring(p), p)
    text = "".join(map(str, beta.coords)) + "|" + "".join(map(str, gamma.coords))
    assert hashlib.sha256(text.encode()).hexdigest() == _GAMMA_DIGESTS[p]


class TestEvaluation:
    def test_zero_polynomial_evaluates_to_zero(self):
        ring = construct_ring(3)
        assert RingPolynomial(Z4, ()).evaluate(ring.x) == ring.zero

    def test_coefficients_embed_canonically(self):
        ring = construct_ring(3)
        w = ring.x
        # 2 + 3X at w: constants enter as embedded Z4 values
        poly = zp(2, 3)
        assert poly.evaluate(w) == ring.embed(2) + ring.embed(3) * w

    def test_same_ring_evaluation(self):
        ring = construct_ring(3)
        poly = RingPolynomial(ring, [ring.one, ring.x])
        assert poly.evaluate(ring.x) == ring.one + ring.x * ring.x

    def test_extension_coefficients_need_extension_points(self):
        ring = construct_ring(3)
        poly = RingPolynomial(ring, [ring.x])
        with pytest.raises(TypeError):
            poly.evaluate(Z4.one)
