import tracemalloc
from collections import Counter

import pytest

import oracles
from cyclo4 import cli, cyclotomy
from cyclo4.cyclotomy import build_classes
from cyclo4.galois import Z4, construct_ring, find_gamma, powers_of
from cyclo4.primes import odd_primes
from cyclo4.ringpoly import RingPolynomial
from cyclo4.sequence import QuaternarySequence, generate_sequence
from oracles import generating_polynomial, indicator_polynomials

GOLDEN = {
    3: (0, 0, 2, 2, 3, 1),
    5: (0, 0, 2, 1, 3, 2, 3, 1, 2, 0),
    7: (0, 0, 2, 1, 2, 1, 3, 2, 2, 0, 3, 0, 3, 1),
}


class TestGeneration:
    @pytest.mark.parametrize("p", sorted(GOLDEN))
    def test_golden_periods(self, p):
        assert tuple(generate_sequence(p).values) == GOLDEN[p]

    def test_text_rendering(self):
        assert generate_sequence(3).text() == "002231"
        assert generate_sequence(5).text() == "0021323120"

    def test_anchors_and_alphabet(self):
        for p in odd_primes(3, 80):
            s = generate_sequence(p)
            assert len(s) == 2 * p
            assert s.values[0] == 0 and s.values[p] == 2
            assert set(s.values) <= {0, 1, 2, 3}

    def test_value_multiplicities(self):
        for p in odd_primes(3, 80):
            counts = Counter(generate_sequence(p).values)
            assert counts[0] == (p + 1) // 2
            assert counts[2] == (p + 1) // 2
            assert counts[1] == (p - 1) // 2
            assert counts[3] == (p - 1) // 2

    def test_rejects_broken_periods(self):
        with pytest.raises(ValueError, match="length 2p"):
            QuaternarySequence(p=3, values=bytes((0, 0, 2, 2, 3)))
        with pytest.raises(ValueError, match="anchors"):
            QuaternarySequence(p=3, values=bytes((1, 0, 2, 2, 3, 1)))  # s_0
        with pytest.raises(ValueError, match="anchors"):
            QuaternarySequence(p=3, values=bytes((0, 0, 2, 0, 3, 1)))  # s_p
        with pytest.raises(ValueError, match="must lie in"):
            QuaternarySequence(p=3, values=bytes((0, 0, 2, 2, 4, 1)))

    @pytest.mark.parametrize("kind", [tuple, list, bytearray])
    def test_rejects_a_period_that_is_not_bytes(self, kind):
        # the golden period itself, in any other container
        with pytest.raises(ValueError, match="must lie in"):
            QuaternarySequence(p=7, values=kind(GOLDEN[7]))

    @pytest.mark.parametrize("stray", [0.0, 1.0, 4, -1, 256, "1", None])
    def test_rejects_values_outside_z4(self, stray):
        values = list(GOLDEN[7])
        values[1] = stray
        with pytest.raises(ValueError, match="must lie in"):
            QuaternarySequence(p=7, values=tuple(values))

    def test_rejects_a_float_period(self):
        # it once passed the alphabet check and failed later in the synthesis
        with pytest.raises(ValueError, match="must lie in"):
            QuaternarySequence(p=7, values=tuple(float(v) for v in GOLDEN[7]))

    def test_matches_the_euler_criterion_oracle(self):
        for p in odd_primes(3, 2000):
            assert tuple(generate_sequence(p).values) == oracles.period_by_euler(p), p

    def test_builds_no_class_sets(self, monkeypatch):
        def refuse(p):
            raise AssertionError("class sets built")

        monkeypatch.setattr(cyclotomy, "build_classes", refuse)
        monkeypatch.setattr(cli, "build_classes", refuse)
        assert tuple(generate_sequence(7).values) == GOLDEN[7]
        assert cli.main(["lc", "--p", "13", "--format", "json"]) == 0
        assert cli.main(["sweep", "--from", "3", "--to", "60"]) == 0

    def test_memory_stays_small_at_large_p(self):
        # one byte per residue while walking, and the period is the 2p bytes
        # of one translate: 0.6 MB at p = 104729, 2.2 MB when it was a tuple
        tracemalloc.start()
        try:
            generate_sequence(104729)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestGeneratingPolynomial:
    def test_p3(self):
        assert generating_polynomial(generate_sequence(3)) == RingPolynomial.from_ints(
            Z4, [0, 0, 2, 2, 3, 1]
        )

    def test_p5_coefficient(self):
        poly = generating_polynomial(generate_sequence(5))
        assert poly.coefficient(4) == Z4.embed(3)

    def test_all_zero_values_give_zero_polynomial(self):
        assert generating_polynomial([0] * 10).is_zero


class TestClassSums:
    def test_p3_indicators(self):
        c = build_classes(3)
        s0, s1, t0, t1 = indicator_polynomials(c)
        assert s0 == RingPolynomial.monomial(Z4, 1)
        assert s1 == RingPolynomial.monomial(Z4, 5)
        assert t0 == RingPolynomial.monomial(Z4, 2)
        assert t1 == RingPolynomial.monomial(Z4, 4)

    def test_partition_sum_is_all_ones(self):
        for p in (3, 5, 7, 11):
            c = build_classes(p)
            s0, s1, t0, t1 = indicator_polynomials(c)
            total = (
                s0
                + s1
                + t0
                + t1
                + RingPolynomial.from_ints(Z4, [1])
                + RingPolynomial.monomial(Z4, p)
            )
            assert total == RingPolynomial.from_ints(Z4, [1] * 2 * p)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
    def test_assembly_identity(self, p):
        # one period assembles as 2X^p + S1 + 2T0 + 3T1
        c = build_classes(p)
        s0, s1, t0, t1 = indicator_polynomials(c)
        two = RingPolynomial.from_ints(Z4, [2])
        three = RingPolynomial.from_ints(Z4, [3])
        assembled = (
            RingPolynomial.monomial(Z4, p, Z4.embed(2)) + s1 + two * t0 + three * t1
        )
        assert assembled == generating_polynomial(generate_sequence(p))

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_evaluation_identities_at_gamma(self, p):
        c = build_classes(p)
        ring = construct_ring(p)
        _, gamma = find_gamma(ring, p)
        pw = powers_of(gamma, 2 * p)
        s0, s1, t0, t1 = indicator_polynomials(c)
        # the two odd-class sums add to 1 at any order-2p unit
        assert s0.evaluate(gamma) + s1.evaluate(gamma) == ring.one
        # doubling: T_i(gamma) = S_i(gamma^2)
        assert t0.evaluate(gamma) == s0.evaluate(pw[2])
        assert t1.evaluate(gamma) == s1.evaluate(pw[2])
