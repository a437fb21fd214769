import hashlib
import random
import signal

import pytest

import oracles
from cyclo4 import f2, galois
from cyclo4.galois import (
    Z4,
    CyclotomicRing,
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
            GaloisRing(0b101)  # X^2 + 1 = (X+1)^2

    @pytest.mark.parametrize(
        "bad", [-(1 << 70) - 3, 7.0, zp(1, 1, 1)], ids=["negative", "float", "polynomial"]
    )
    def test_refuses_all_but_a_non_negative_int_at_once(self, bad):
        # a negative h once hung in f2.gcd and a float raised AttributeError;
        # the timer turns a hang into a failure
        def expire(signum, frame):
            raise TimeoutError("no answer within 1 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(ValueError):
                GaloisRing(bad)
            with pytest.raises(ValueError):
                lift_irreducible(bad)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_builds_the_ring_of_the_lift_of_h(self):
        for p in (3, 7, 31, 293):
            h = f2.lex_smallest_irreducible(ord2_mod_p(p))
            assert GaloisRing(h) == construct_ring(p)

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
            mutant = oracles.ring_with_modulus([(c + 2 * (i == k)) % 4 for i, c in enumerate(f)])
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

    @pytest.mark.parametrize("bad", [1.5, 2.7, "2", None], ids=repr)
    def test_element_and_embed_refuse_non_integers(self, bad):
        # int() once truncated a float and parsed a digit string
        ring = construct_ring(3)
        with pytest.raises(ValueError):
            ring.element([bad])
        with pytest.raises(ValueError):
            ring.element([1, bad])
        with pytest.raises(ValueError):
            ring.embed(bad)

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
            order = (1 << ring.r) * ((1 << ring.r) - 1)  # of the unit group of GR(4^r, 4)
            for _ in range(20):
                e = ring.element([rng.randrange(4) for _ in range(ring.r)])
                if e.is_unit():
                    assert e**order == ring.one

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

    @pytest.mark.parametrize("p", [3, 7, 11, 31, 59, 293])
    def test_trace_is_the_sum_of_the_frobenius_conjugates(self, p):
        # Newton's power sums against r Frobenius steps
        assert_trace_is_the_sum_of_the_frobenius_conjugates(construct_ring(p), p)


def assert_trace_is_the_sum_of_the_frobenius_conjugates(ring, seed):
    """Tr against r Frobenius steps, on X**i for i < 20 and on three
    random elements; an element of another ring is refused."""
    rng = random.Random(seed)
    basis = [ring.element([0] * i + [1]) for i in range(min(ring.r, 20))]
    for x in basis + [ring.element([rng.randrange(4) for _ in range(ring.r)]) for _ in "abc"]:
        conjugates, y = [], x
        for _ in range(ring.r):
            conjugates.append(y)
            y = ring.frobenius(y)
        assert ring.embed(ring.trace(x)) == sum(conjugates, ring.zero)
    with pytest.raises(ValueError):
        ring.trace(construct_ring(5).x)


# the 26 odd primes below 300 of which 2 is a primitive root, so r = p - 1
CYCLOTOMIC_PRIMES = [p for p in odd_primes(3, 300) if ord2_mod_p(p) == p - 1]


class TestCyclotomicRing:
    def test_is_the_ring_of_the_graeffe_lift_of_phi_p(self):
        # Phi_p mod 2 is irreducible and lifts to Phi_p itself
        for p in CYCLOTOMIC_PRIMES[:10]:
            ring = CyclotomicRing(p)
            assert ring == GaloisRing((1 << p) - 1) and ring.r == p - 1
            assert ring.x_is_teichmuller() and ring.x**p == ring.one
        assert CyclotomicRing(3) == construct_ring(3)  # Phi_3 is the lex modulus too

    @pytest.mark.parametrize("p", [7, 17, 31, 9, 2, 1, -3])
    def test_refuses_p_unless_2_is_a_primitive_root(self, p):
        with pytest.raises(ValueError):
            CyclotomicRing(p)

    def test_power_sums_match_newtons_identities(self):
        for p in CYCLOTOMIC_PRIMES:
            ring = CyclotomicRing(p)
            assert ring._power_sums == GaloisRing._power_sums.func(ring), p

    @pytest.mark.parametrize("p", [3, 5, 11, 59, 293])
    def test_trace_is_the_sum_of_the_frobenius_conjugates(self, p):
        assert_trace_is_the_sum_of_the_frobenius_conjugates(CyclotomicRing(p), p)

    def test_beta_is_the_scans(self):
        for p in CYCLOTOMIC_PRIMES:
            ring = CyclotomicRing(p)
            beta, gamma = find_gamma(ring, p)
            scanned = GaloisRing._beta(ring, p)  # the residue-field scan
            assert (beta, gamma) == (scanned, -scanned), p
            assert beta == oracles.scan_beta(ring, p), p

    @pytest.mark.parametrize("p", [3, 5, 11, 59, 293])
    def test_find_gamma_reads_beta_without_a_scan(self, p, monkeypatch):
        ring = CyclotomicRing(p)
        scanned = oracles.scan_beta(ring, p)

        def refuse(*args):
            raise AssertionError("scanned the residue field")

        monkeypatch.setattr(f2, "powmod", refuse)
        assert find_gamma(ring, p) == (scanned, -scanned)

    def test_omega_is_a_root_of_y2_y_1(self):
        # the scan's omega or its square: either root serves the descent
        for p in CYCLOTOMIC_PRIMES:
            ring = CyclotomicRing(p)
            omega, scanned = ring.omega(), find_gamma(ring, 3)[0]
            assert omega * omega + omega + ring.one == ring.zero and omega != ring.one
            assert omega in (scanned, scanned * scanned), p

    def test_beta_falls_back_to_the_scan_where_p_divides_m(self, monkeypatch):
        # no known Wieferich prime has 2 as a primitive root, so the branch
        # is forced
        calls, real = [], GaloisRing._beta

        def scan(ring, p):
            calls.append(p)
            return real(ring, p)

        ring = CyclotomicRing(59)
        closed = find_gamma(ring, 59)
        monkeypatch.setattr(GaloisRing, "_beta", scan)
        assert find_gamma(ring, 59) == closed and not calls
        monkeypatch.setattr(galois, "_fermat_quotient", lambda p: 0)
        assert find_gamma(ring, 59) == closed and calls == [59]

    def test_fermat_quotient(self):
        for p in odd_primes(3, 2000):
            assert galois._fermat_quotient(p) == ((1 << (p - 1)) - 1) // p % p
        assert galois._fermat_quotient(1093) == galois._fermat_quotient(3511) == 0


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

    @pytest.mark.parametrize("p", [5, 13, 17, 29, 43])
    def test_omega_on_a_lex_ring_of_even_r(self, p):
        ring = construct_ring(p)
        assert type(ring) is GaloisRing and ring.r % 2 == 0
        omega = ring.omega()
        assert omega * omega + omega + ring.one == ring.zero and omega != ring.one
        assert omega == find_gamma(ring, 3)[0]

    @pytest.mark.parametrize("p", [7, 23, 47])
    def test_omega_refused_where_r_is_odd(self, p):
        # 3 divides 2**r - 1 only for even r; Z4 is the ring of r = 1
        for ring in (construct_ring(p), Z4):
            assert ring.r % 2
            with pytest.raises(ValueError):
                ring.omega()

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
