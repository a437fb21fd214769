import pytest

import oracles
from cyclo4 import cyclotomy
from cyclo4.cyclotomy import build_classes, find_common_primitive_root
from cyclo4.primes import factorize, odd_primes
from cyclo4.sequence import generate_sequence


class TestPrimitiveRoot:
    @pytest.mark.parametrize("p,g", [(3, 5), (5, 3), (7, 3), (11, 7), (13, 7)])
    def test_smallest_common_roots(self, p, g):
        assert find_common_primitive_root(p) == g

    def test_root_is_primitive_both_ways(self):
        for p in odd_primes(3, 60):
            g = find_common_primitive_root(p)
            assert g % 2 == 1
            for modulus in (p, 2 * p):
                seen = set()
                t = 1
                for _ in range(p - 1):
                    t = t * g % modulus
                    seen.add(t)
                assert len(seen) == p - 1

    @pytest.mark.parametrize("bad", [2, 9, 1])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            find_common_primitive_root(bad)


class TestBuildClasses:
    def test_matches_the_set_walk_oracle(self):
        for p in odd_primes(3, 2000):
            assert build_classes(p) == oracles.classes_by_set_walk(p), p

    @pytest.mark.parametrize("p, g", [(7, 13), (13, 25), (17, 9), (31, 5)])
    def test_rejects_a_root_that_is_not_primitive(self, monkeypatch, p, g):
        # g has order below p - 1 mod 2p, so its powers miss residues
        assert any(pow(g, k, 2 * p) == 1 for k in range(1, p - 1))
        monkeypatch.setattr(cyclotomy, "find_common_primitive_root", lambda _: g)
        with pytest.raises(RuntimeError, match="does not cover Z_2p"):
            build_classes(p)
        with pytest.raises(RuntimeError, match="does not cover Z_2p"):
            generate_sequence(p)

    def test_p3(self):
        c = build_classes(3)
        assert (c.d0, c.d1, c.e0, c.e1) == (
            frozenset({1}),
            frozenset({5}),
            frozenset({2}),
            frozenset({4}),
        )

    def test_blocks_name_the_four_sets(self):
        c = build_classes(7)
        assert c.blocks == {"D0": c.d0, "D1": c.d1, "E0": c.e0, "E1": c.e1}
        assert list(c.blocks) == ["D0", "D1", "E0", "E1"]

    def test_p5(self):
        c = build_classes(5)
        assert c.d0 == {1, 9} and c.d1 == {3, 7}
        assert c.e0 == {2, 8} and c.e1 == {4, 6}

    def test_p7(self):
        c = build_classes(7)
        assert c.d0 == {1, 9, 11} and c.d1 == {3, 5, 13}
        assert c.e0 == {2, 4, 8} and c.e1 == {6, 10, 12}

    def test_partition_invariants(self):
        for p in odd_primes(3, 120):
            c = build_classes(p)
            half = (p - 1) // 2
            blocks = [c.d0, c.d1, c.e0, c.e1]
            assert all(len(b) == half for b in blocks)
            union = set().union(*blocks) | {0, p}
            assert union == set(range(2 * p))
            assert sum(len(b) for b in blocks) + 2 == 2 * p
            odd = {v for v in range(2 * p) if v % 2 == 1 and v != p}
            even = {v for v in range(2 * p) if v % 2 == 0 and v != 0}
            assert c.d0 | c.d1 == odd
            assert c.e0 | c.e1 == even
            assert c.e0 == {2 * u % (2 * p) for u in c.d0}
            assert c.e1 == {2 * u % (2 * p) for u in c.d1}

    def test_d0_is_multiplicatively_closed(self):
        for p in odd_primes(3, 60):
            c = build_classes(p)
            n = 2 * p
            assert all(a * b % n in c.d0 for a in c.d0 for b in c.d0)

    def test_classes_independent_of_root_choice(self):
        for p in odd_primes(3, 60):
            c = build_classes(p)
            g2 = _next_common_root(p, c.g)
            n = 2 * p
            d0_alt = set()
            t = 1
            for _ in range((p - 1) // 2):
                d0_alt.add(t)
                t = t * g2 * g2 % n
            assert frozenset(d0_alt) == c.d0


def _next_common_root(p, after):
    target = p - 1
    factors = tuple(factorize(target))
    g = after + 2
    while True:
        if g % p != 0 and all(
            pow(g, target // q, m) != 1 for q in factors for m in (p, 2 * p)
        ) and pow(g, target, p) == 1 and pow(g, target, 2 * p) == 1:
            return g
        g += 2


class TestCyclotomicNumbers:
    def test_spec_examples(self):
        assert build_classes(7).cyclotomic_number(0, 0) == 1   # (p-3)/4, p = 7 mod 8
        assert build_classes(5).cyclotomic_number(0, 1) == 0   # (p-5)/4, p = 5 mod 8
        assert build_classes(3).cyclotomic_number(0, 0) == 1   # (p+1)/4, p = 3 mod 8

    def test_closed_forms_across_residue_classes(self):
        for p in odd_primes(3, 199):
            c = build_classes(p)
            want00 = {1: p - 5, 7: p - 3, 5: p - 1, 3: p + 1}[p % 8] // 4
            want01 = {1: p - 1, 7: p + 1, 5: p - 5, 3: p - 3}[p % 8] // 4
            assert c.cyclotomic_number(0, 0) == want00, p
            assert c.cyclotomic_number(0, 1) == want01, p

    def test_row_sums(self):
        # (1 + D_0) consists of even residues, avoiding 0 iff p = 3 mod 4;
        # the two counts plus the possible hit at 0 cover all of 1 + D_0.
        for p in odd_primes(3, 60):
            c = build_classes(p)
            total = c.cyclotomic_number(0, 0) + c.cyclotomic_number(0, 1)
            hits_zero = 1 if p % 4 == 1 else 0
            assert total + hits_zero == (p - 1) // 2
