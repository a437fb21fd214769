"""The linear-time lemma3 and lemma8 checks against their O(p**2) oracles in
``oracles.py``, and the factorization and lemma9 checks against the
expanded class products: agreement on every odd prime, mutants that both
must reject, and a bound on the ring sums the lemma8 check makes."""

from collections import Counter
from itertools import combinations, product

import pytest

import oracles
from cyclo4 import verify
from cyclo4.cyclotomy import build_classes
from cyclo4.galois import GaloisRing, GaloisRingElement, construct_ring, find_gamma
from cyclo4.primes import odd_primes
from cyclo4.ringpoly import RingPolynomial
from cyclo4.sequence import QuaternarySequence
from cyclo4.verify import (
    DEFAULT_EXPANSION_CAP,
    CheckStatus,
    _Workspace,
    check_factorizations,
    check_lemma3,
    check_lemma4_lemma8,
    check_lemma5,
    normalize_gamma,
)


def _assert_agree(ws):
    for got, (ok, detail) in (
        (check_lemma3(ws.classes), oracles.lemma3_by_product_sets(ws.classes)),
        (check_lemma4_lemma8(ws), oracles.lemma8_by_value_table(ws)),
    ):
        assert got.status is (CheckStatus.PASS if ok else CheckStatus.FAIL), (ws.p, got)
        if ok:
            assert got.detail == detail


@pytest.mark.parametrize("p", list(odd_primes(3, 199)))
def test_agrees_with_the_quadratic_oracles(p):
    _assert_agree(_Workspace(p))


@pytest.mark.slow
def test_agrees_with_the_quadratic_oracles_below_500():
    for p in odd_primes(211, 499):
        _assert_agree(_Workspace(p))


def _computed(p):
    """A workspace whose gamma and class sums are computed from the true
    classes, and its period read: classes swapped in afterwards reach the
    checks alone, not the values derived from them."""
    ws = _Workspace(p)
    ws.normalized, ws.seq
    return ws


def _swap(classes, a, b, other="d1", **changes):
    """The classes with a in D0 and b in the class ``other`` trading places."""
    moved = {other: getattr(classes, other) - {b} | {a}}
    return oracles.replace_sets(classes, d0=classes.d0 - {a} | {b}, **moved, **changes)


@pytest.mark.parametrize("p", (5, 7, 13, 17, 29, 31))
def test_lemma3_rejects_a_member_swapped_between_d0_and_d1(p):
    c = build_classes(p)
    bad = _swap(c, max(c.d0), max(c.d1))
    assert check_lemma3(bad).status is CheckStatus.FAIL
    assert not oracles.lemma3_by_product_sets(bad)[0]


@pytest.mark.parametrize("p, j", [(31, 3), (127, 3), (151, 5), (223, 3)])
def test_lemma3_rejects_a_short_walk_that_misses_a_swap(p, j):
    # g = h**j for the primitive root h and an odd prime j dividing p - 1
    # lies in D1 and has even order (p - 1)/j. Two cosets of <2> mod p, one
    # in D0 and one in D1, both off the walk of g, trade classes, and
    # E_i = 2*D_i follows. Relations (II)-(V) hold for such classes and
    # every walk value stays in the class of its parity, so only the set
    # equality of the walk with D0 and D1 rejects them.
    c = build_classes(p)
    n = 2 * p
    g = pow(c.g, j, n)
    assert (p - 1) % j == 0 and g % p in {u % p for u in c.d1}
    walk = [pow(g, k, n) for k in range(p - 1)]
    on_walk = {t % p for t in walk}

    def coset(u):
        return {u * pow(2, k, p) % p for k in range(p - 1)}

    a = min(u for u in c.d0 if not coset(u) & on_walk)
    b = min(u for u in c.d1 if not coset(u) & on_walk)
    moved = frozenset(u for u in range(1, n, 2) if u % p in coset(a) | coset(b))
    d0, d1 = c.d0 ^ moved, c.d1 ^ moved
    bad = oracles.replace_sets(
        c, g=g, d0=d0, d1=d1,
        e0=frozenset(2 * u % n for u in d0), e1=frozenset(2 * u % n for u in d1),
    )
    assert all(t in (bad.d0, bad.d1)[k % 2] for k, t in enumerate(walk))
    got = check_lemma3(bad)
    assert got.status is CheckStatus.FAIL
    assert got.detail == f"(I) even powers of g = {g} != D0"
    assert not oracles.lemma3_by_product_sets(bad)[0]


def _sampled_exponents(ws):
    classes = ws.classes
    return (0, ws.p) + tuple(min(b) for b in (classes.d0, classes.d1, classes.e0, classes.e1))


def _blind_spot_period(ws) -> QuaternarySequence:
    """s + 2*e, where e(X) = X * prod (X - beta**w) mod 2 over the 2-cyclotomic
    cosets mod p of the exponents lemma8 evaluates S at.

    S changes by 2*e(gamma**v), and gamma = beta mod 2 has order p there, so
    S keeps its value exactly at the v whose residue mod p is a root: at every
    sampled exponent, and nowhere else."""
    p = ws.p
    roots = set()
    for v in _sampled_exponents(ws):
        w = v % p
        while w not in roots:
            roots.add(w)
            w = 2 * w % p
    assert len(roots) < p, "every residue is a root: no blind spot at this p"
    ring = ws.ring
    e = RingPolynomial(ring, [ring.zero, ring.one])  # X keeps s_0 = 0
    for w in sorted(roots):
        e = e * RingPolynomial(ring, [-(ws.beta**w), ring.one])
    assert e.degree < p  # and s_p = 2
    bits = [c.value % 2 for c in e.coeffs]
    bits += [0] * (2 * p - len(bits))
    return QuaternarySequence(p, bytes((s + 2 * b) % 4 for s, b in zip(ws.seq.values, bits)))


@pytest.mark.parametrize("p", (31, 73, 127))
def test_lemma8_rejects_a_period_not_fixed_by_g_squared(p):
    ws = _Workspace(p)
    sampled = _sampled_exponents(ws)
    before = [oracles.sequence_value(ws, v) for v in sampled]
    ws.seq = _blind_spot_period(ws)
    # S keeps its value at every exponent the check evaluates it at, so only
    # the invariance s_(g^2 u) = s_u stands between this period and a PASS
    assert [oracles.sequence_value(ws, v) for v in sampled] == before
    got = check_lemma4_lemma8(ws)
    assert got.status is CheckStatus.FAIL
    assert got.detail.startswith("s_(g^2 u) != s_u at u = ")
    assert not oracles.lemma8_by_value_table(ws)[0]


@pytest.mark.parametrize("p", (7, 13, 17, 29))
def test_lemma8_rejects_a_class_that_is_not_an_orbit(p):
    ws = _computed(p)
    c = ws.classes
    ws.classes = _swap(c, max(c.d0), max(c.d1))
    got = check_lemma4_lemma8(ws)
    assert got.status is CheckStatus.FAIL
    assert got.detail == f"D0 is not the <g^2>-orbit of {min(ws.classes.d0)}"


def _cyclotomic_number(d, e, n):
    """|(1 + D) intersected with E| mod n, from the sets."""
    return len({(1 + u) % n for u in d} & e)


def test_every_class_check_answers_a_swap_between_two_classes():
    # for every pair of classes, their least members trade places, and
    # apart from that their greatest: 12 swaps a prime, 144 in all. Every
    # check that reads the classes fails, except that the factorization
    # needs only the parity of each class, and the cyclotomic numbers may
    # stay as they were
    tally = Counter()
    names = ("d0", "d1", "e0", "e1")
    for p in (7, 13, 17, 23, 29, 31, 41, 43, 59, 61, 97, 103):
        ws = _computed(p)
        c = ws.classes
        true_counts = [_cyclotomic_number(c.d0, e, 2 * p) for e in (c.e0, c.e1)]
        for (a, b), end in product(combinations(names, 2), (min, max)):
            sets = {name: getattr(c, name) for name in names}
            x, y = end(sets[a]), end(sets[b])
            sets[a], sets[b] = sets[a] - {x} | {y}, sets[b] - {y} | {x}
            ws.classes = bad = oracles.replace_sets(c, **sets)
            assert check_lemma3(bad).status is CheckStatus.FAIL
            assert check_lemma4_lemma8(ws).status is CheckStatus.FAIL
            with pytest.raises(RuntimeError, match="is not a union of orbits"):
                normalize_gamma(ws.ring, bad, ws.raw_gamma)
            counts = [_cyclotomic_number(sets["d0"], sets[e], 2 * p) for e in ("e0", "e1")]
            assert [bad.cyclotomic_number(0, j) for j in (0, 1)] == counts
            got = check_lemma5(bad)
            assert (got.status is CheckStatus.PASS) is (counts == true_counts)
            tally["lemma5", got.status] += 1
            fact, nine = check_factorizations(ws)
            if p <= DEFAULT_EXPANSION_CAP:
                across = a[0] != b[0]  # an odd class and an even one
                assert fact.status is (CheckStatus.FAIL if across else CheckStatus.PASS)
            tally["factorization", fact.status] += 1
            assert nine.status is not CheckStatus.PASS
            tally["lemma9", nine.status] += 1
    assert tally == {
        ("lemma5", CheckStatus.FAIL): 99,
        ("lemma5", CheckStatus.PASS): 45,
        ("factorization", CheckStatus.FAIL): 80,
        ("factorization", CheckStatus.PASS): 40,
        ("factorization", CheckStatus.SKIP): 24,
        ("lemma9", CheckStatus.FAIL): 60,
        ("lemma9", CheckStatus.SKIP): 84,
    }


@pytest.mark.parametrize("p", (7, 13, 17, 29))
def test_lemma8_rejects_broken_classes_before_reading_the_class_sums(p):
    # the class sums come from the classes, so a check that has already
    # found them broken must not compute the sums from them
    ws = _Workspace(p)
    ws.seq
    c = ws.classes
    ws.classes = _swap(c, max(c.d0), max(c.d1))
    assert check_lemma4_lemma8(ws).status is CheckStatus.FAIL
    assert "normalized" not in vars(ws)


@pytest.mark.parametrize("p", (7, 13, 17, 29))
def test_lemma8_rejects_classes_that_do_not_partition(p):
    # an even residue of E1 relabelled D0: D0 has one member too many for
    # the <g^2>-orbit of 1, and S at that residue is not D0's value
    ws = _computed(p)
    c = ws.classes
    x = min(c.e1)
    ws.classes = oracles.replace_sets(c, d0=c.d0 | {x}, e1=c.e1 - {x})
    got = check_lemma4_lemma8(ws)
    assert got.status is CheckStatus.FAIL
    assert got.detail == "D0 is not the <g^2>-orbit of 1"
    assert not oracles.lemma8_by_value_table(ws)[0]


@pytest.mark.parametrize("p", (7, 13, 17, 29))
def test_lemma8_rejects_a_residue_left_out_of_every_class(p):
    # the last residue of D0's walk from 1 taken out: the shorter walk
    # still stays in D0, so only the partition test is left to reject it
    ws = _computed(p)
    c = ws.classes
    n = 2 * p
    last = pow(c.g, p - 3, n)  # (g^2)^((p - 1)/2 - 1)
    ws.classes = oracles.replace_sets(c, d0=c.d0 - {last})
    got = check_lemma4_lemma8(ws)
    assert got.status is CheckStatus.FAIL
    assert got.detail == f"D0, D1, E0, E1 do not partition Z_{n} minus 0 and p"


@pytest.mark.parametrize("p", (31, 293))
def test_lemma8_makes_a_bounded_number_of_ring_sums(p, monkeypatch):
    ws = _computed(p)  # the chain of class sums is not the check's to count
    sums, products = [], []
    real_add, real_mul = GaloisRingElement.__add__, GaloisRing._mul_packed

    def counting_add(a, b):
        sums.append(1)
        return real_add(a, b)

    def counting_mul(ring, a, b):
        products.append(1)
        return real_mul(ring, a, b)

    monkeypatch.setattr(GaloisRingElement, "__add__", counting_add)
    monkeypatch.setattr(GaloisRing, "_mul_packed", counting_mul)
    assert check_lemma4_lemma8(ws).status is CheckStatus.PASS
    # four values of S, each s_0 + s_p plus s_C copies of a class sum for
    # the classes C with s_C = 0, 1, 2, 3, so six additions; and 2*S0 for
    # the p = +-3 (mod 8) table
    assert len(sums) <= 4 * 6 + 1
    assert not products


def test_find_gamma_matches_the_scan_for_every_prime_below_500():
    through_scan = []
    for p in odd_primes(3, 499):
        ring = construct_ring(p)
        beta, _ = find_gamma(ring, p)
        assert beta == oracles.scan_beta(ring, p), p
        if ring.x ** (((1 << ring.r) - 1) // p) == ring.one:
            through_scan.append(p)
    # the primes where X**((2**r - 1)/p) = 1 and the scan goes past X
    assert through_scan == [13, 19, 67, 181, 211, 313, 421]


def test_find_gamma_scans_when_x_is_not_teichmuller():
    # X**2 + 3X + 1 reduces to X**2 + X + 1 mod 2 but is not its Graeffe
    # lift X**2 + X + 1: there X**3 = 3, so X itself is no candidate beta
    ring = oracles.ring_with_modulus([1, 3, 1])
    assert ring.x**3 == ring.embed(3)
    beta, _ = find_gamma(ring, 3)
    assert beta == oracles.scan_beta(ring, 3)
    assert beta**3 == ring.one and beta != ring.one


def test_find_gamma_matches_the_scan_in_a_p7_ring_whose_x_is_not_teichmuller():
    # X**3 + 2X**2 + X + 1 reduces to X**3 + X + 1 mod 2, whose Graeffe lift
    # is X**3 + 2X**2 + X + 3, so X**7 != 1 and X**((2**3 - 1)/7) = X is
    # not of order 7
    ring = oracles.ring_with_modulus([1, 1, 2, 1])
    assert not ring.x_is_teichmuller() and ring.x**7 != ring.one
    beta, _ = find_gamma(ring, 7)
    assert beta == oracles.scan_beta(ring, 7) != ring.x
    assert beta**7 == ring.one and beta != ring.one


def _expansion_verdicts(ws):
    """(status, detail) of factorization and lemma9 from the expanded class
    products, with the library's texts."""
    ring, p = ws.ring, ws.p
    products = oracles.class_products_by_expansion(ws)
    xp = RingPolynomial.monomial(ring, p)
    one = RingPolynomial(ring, [ring.one])
    problems = []
    if RingPolynomial(ring, [ring.one, ring.one]) * products["D0"] * products["D1"] != xp + one:
        problems.append("(X+1)*G0*G1 != X^p + 1")
    x_minus_1 = RingPolynomial(ring, [ring.embed(3), ring.one])
    if x_minus_1 * products["E0"] * products["E1"] != xp - one:
        problems.append("(X-1)*L0*L1 != X^p - 1")
    fact = (
        (CheckStatus.FAIL, problems[0]) if problems else
        (CheckStatus.PASS, "(X+1)G0G1 = X^p+1 and (X-1)L0L1 = X^p-1 exactly")
    )
    if p % 8 in (3, 5):
        return [fact, (CheckStatus.SKIP, "integrality not claimed for p = +-3 (mod 8)")]
    names = {"D0": "G0", "D1": "G1", "E0": "L0", "E1": "L1"}
    bad = next(
        (name for name, poly in products.items()
         if any(any(c.coords[1:]) for c in poly.coeffs)),
        None,
    )
    nine = (
        (CheckStatus.FAIL, f"{names[bad]} has a coefficient outside the embedded Z4") if bad else
        (CheckStatus.PASS, "all product coefficients lie in the embedded Z4")
    )
    return [fact, nine]


def _statuses_agree(ws):
    """The statuses of both checks, asserted equal to the expansion's; the
    texts too where nothing fails (a failing premise names itself instead
    of the product it breaks)."""
    got = check_factorizations(ws)
    want = _expansion_verdicts(ws)
    for result, (status, detail) in zip(got, want):
        assert result.status is status, (ws.p, result)
        if status is not CheckStatus.FAIL:
            assert result.detail == detail
    return [(result.status, result.detail) for result in got]


@pytest.mark.parametrize("p", list(odd_primes(3, DEFAULT_EXPANSION_CAP)))
def test_factorizations_agree_with_the_expanded_products(p):
    ws = _Workspace(p)
    assert [(c.status, c.detail) for c in check_factorizations(ws)] == _expansion_verdicts(ws)


@pytest.mark.slow
def test_factorizations_agree_with_the_expanded_products_above_the_cap(monkeypatch):
    # the proofs need no cap: raised, they still give the expansion's verdicts
    monkeypatch.setattr(verify, "DEFAULT_EXPANSION_CAP", 293)
    for p in odd_primes(67, 293):
        ws = _Workspace(p)
        assert [(c.status, c.detail) for c in check_factorizations(ws)] == _expansion_verdicts(ws)


@pytest.mark.parametrize("p", (5, 7, 13, 17, 31, 61))
def test_factorization_rejects_an_odd_member_swapped_with_an_even_one(p):
    ws = _computed(p)
    c = ws.classes
    ws.classes = _swap(c, max(c.d0), max(c.e0), other="e0")
    fact, _ = _statuses_agree(ws)
    assert fact == (CheckStatus.FAIL, "D0, D1 and {p} do not partition the odd residues")


@pytest.mark.parametrize("p", (5, 7, 13, 17, 31, 61))
def test_factorization_rejects_even_classes_that_overlap(p):
    # one code per residue keeps the classes apart, so the overlaps left
    # are an even residue taken into D0 and 0 taken into E1
    ws = _computed(p)
    c = ws.classes
    x = min(c.e0)
    ws.classes = oracles.replace_sets(c, d0=c.d0 | {x}, e0=c.e0 - {x})
    fact, _ = _statuses_agree(ws)
    assert fact == (CheckStatus.FAIL, "D0, D1 and {p} do not partition the odd residues")
    ws.classes = oracles.replace_sets(c, e1=c.e1 | {0})
    fact, _ = _statuses_agree(ws)
    assert fact == (CheckStatus.FAIL, "E0, E1 and {0} do not partition the even residues")


@pytest.mark.parametrize("p", (7, 17, 23, 31, 41, 47))
def test_lemma9_rejects_a_member_swapped_between_d0_and_d1(p):
    ws = _computed(p)
    c = ws.classes
    ws.classes = _swap(c, max(c.d0), max(c.d1))
    fact, nine = _statuses_agree(ws)
    # the odd residues are still D0, D1 and {p}, so the factorization holds
    assert fact[0] is CheckStatus.PASS
    assert nine == (CheckStatus.FAIL, "(p+2)*D0 != D0")


@pytest.mark.parametrize("p", (3, 7, 17, 31, 59, 61))
def test_rejects_a_gamma_whose_p_th_power_is_not_minus_one(p):
    # beta**p = 1: the odd powers are roots of X**p - 1, not X**p + 1; the
    # products stay integral, and lemma9 agrees that they are
    ws = _Workspace(p)
    ws.gamma = ws.beta
    fact, nine = _statuses_agree(ws)
    assert fact == (CheckStatus.FAIL, "gamma^p != -1")
    assert nine[0] is (CheckStatus.SKIP if p % 8 in (3, 5) else CheckStatus.PASS)


@pytest.mark.parametrize("p", (3, 7, 17, 23, 31, 47, 59))
def test_rejects_a_gamma_not_moved_to_its_p_plus_2_power_by_sigma(p):
    # (gamma (1 + 2X))**p = -(1 + 2X), and sigma(1 + 2X) = 1 + 2X**2 is
    # not (1 + 2X)**(p+2) = 1 + 2X
    ws = _Workspace(p)
    ring = ws.ring
    ws.gamma = ws.gamma * (ring.one + ring.x + ring.x)
    fact, nine = _statuses_agree(ws)
    assert fact == (CheckStatus.FAIL, "gamma^p != -1")
    if p % 8 not in (3, 5):
        assert nine == (CheckStatus.FAIL, "sigma(gamma) != gamma^(p+2)")


@pytest.mark.parametrize("p", (5, 7, 17, 59))
def test_rejects_a_gamma_whose_powers_do_not_differ_by_units(p):
    # gamma = -1 has gamma**p = -1, but its powers are +-1 and differ by 2
    ws = _Workspace(p)
    ws.gamma = ws.ring.embed(3)
    fact, _ = _statuses_agree(ws)
    assert fact == (CheckStatus.FAIL, "gamma - 1 is not a unit")


def test_lemma9_proves_nothing_where_x_is_not_teichmuller():
    # X**3 + 2X**2 + X + 1 is basic irreducible but not the Graeffe lift
    # X**3 + 2X**2 + X + 3, so c(X) -> c(X**2) is not sigma there. The
    # products are still integral, but the check cannot show it, and fails
    # rather than pass unproved
    ws = _Workspace(7)
    ws.ring = oracles.ring_with_modulus([1, 1, 2, 1])
    ws.gamma = ws.raw_gamma  # find_gamma's on that ring, not normalized
    fact, nine = check_factorizations(ws)
    assert (fact.status, fact.detail) == _expansion_verdicts(ws)[0]
    assert _expansion_verdicts(ws)[1][0] is CheckStatus.PASS
    assert (nine.status, nine.detail) == (
        CheckStatus.FAIL, "X is not Teichmüller: X -> X^2 is not the Frobenius"
    )
