"""The linear-time lemma3 and lemma8 checks against their O(p**2) oracles in
``oracles.py``: agreement on every odd prime, mutants that both must
reject, and a bound on the ring sums the lemma8 check makes."""

import dataclasses

import pytest

import oracles
from cyclo4.cyclotomy import build_classes
from cyclo4.galois import Z4, GaloisRing, construct_ring, find_gamma
from cyclo4.primes import odd_primes
from cyclo4.ringpoly import RingPolynomial
from cyclo4.sequence import QuaternarySequence
from cyclo4.verify import CheckStatus, _Workspace, check_lemma3, check_lemma4_lemma8


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


def _swap(classes, a, b, **changes):
    """The classes with a in D0 and b in D1 trading places."""
    return dataclasses.replace(
        classes, d0=classes.d0 - {a} | {b}, d1=classes.d1 - {b} | {a}, **changes
    )


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
    bad = dataclasses.replace(
        c, g=g, d0=d0, d1=d1,
        e0=frozenset(2 * u % n for u in d0), e1=frozenset(2 * u % n for u in d1),
    )
    assert all(t in bad.d_class(k) for k, t in enumerate(walk))
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
    return QuaternarySequence(p, tuple((s + 2 * b) % 4 for s, b in zip(ws.seq.values, bits)))


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
    ws = _Workspace(p)
    c = ws.classes
    ws.classes = _swap(c, max(c.d0), max(c.d1))
    got = check_lemma4_lemma8(ws)
    assert got.status is CheckStatus.FAIL
    assert got.detail == f"D0 is not the <g^2>-orbit of {min(ws.classes.d0)}"


@pytest.mark.parametrize("p", (7, 13, 17, 29))
def test_lemma8_rejects_classes_that_do_not_partition(p):
    # D1 = D0 and E1 = E0 are <g^2>-orbits, but they cover half of Z_2p
    # twice, so the class sums no longer add up to the values of S
    ws = _Workspace(p)
    c = ws.classes
    ws.classes = dataclasses.replace(c, d1=c.d0, e1=c.e0)
    got = check_lemma4_lemma8(ws)
    assert got.status is CheckStatus.FAIL
    assert got.detail == f"D0, D1, E0, E1 do not partition Z_{2 * p} minus 0 and p"
    assert not oracles.lemma8_by_value_table(ws)[0]


@pytest.mark.parametrize("p", (31, 293))
def test_lemma8_makes_a_bounded_number_of_ring_sums(p, monkeypatch):
    ws = _Workspace(p)
    calls = []
    real = GaloisRing.sum

    def counting(self, elements):
        calls.append(len(elements))
        return real(self, elements)

    monkeypatch.setattr(GaloisRing, "sum", counting)
    assert check_lemma4_lemma8(ws).status is CheckStatus.PASS
    # four values of S from the class sums, one sum each of s_0 + s_p and
    # at most three copies of each of the four class sums
    assert len(calls) <= 4
    assert all(terms <= 1 + 4 * 3 for terms in calls)


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
    ring = GaloisRing(RingPolynomial.from_ints(Z4, [1, 3, 1]))
    assert ring.x**3 == ring.embed(3)
    beta, _ = find_gamma(ring, 3)
    assert beta == oracles.scan_beta(ring, 3)
    assert beta**3 == ring.one and beta != ring.one
