"""Packed Galois-ring arithmetic and the linear-time checks against the
plain-Python oracles in ``oracles.py``."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cyclo4 import f2
from cyclo4.galois import Z4, GaloisRing, construct_ring, find_gamma, powers_of
from cyclo4.ringpoly import RingPolynomial
from cyclo4.verify import CheckStatus, _Workspace, check_gamma


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


def _elements(ring):
    def digits(k):
        return [(k >> (2 * i)) & 3 for i in range(ring.r)]

    return st.integers(0, 4**ring.r - 1).map(lambda k: ring.element(digits(k)))


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


@settings(max_examples=60, deadline=None)
@given(_ring_with(2), st.integers(0, 3000))
def test_long_sums_stay_exact(args, k):
    ring, a, b = args
    total = ring.sum([a] * k + [b])
    assert total.coords == tuple((k * x + y) % 4 for x, y in zip(a.coords, b.coords))


def test_sum_rejects_foreign_elements():
    with pytest.raises(ValueError):
        RINGS[0].sum([RINGS[0].one, RINGS[1].one])


@pytest.mark.parametrize("p", [31, 73, 89, 127])
def test_sequence_values_match_oracle_when_r_is_small(p):
    # S(gamma**v) sums up to 2p terms of at most 9 per slot, which exceeds
    # the slot width chosen for products when r is much smaller than p.
    ws = _Workspace(p)
    product_slot_bits = (9 * ws.ring.r).bit_length() + 1
    assert 9 * 2 * p >= 1 << product_slot_bits
    want = oracles.sequence_values([e.coords for e in ws.powers], list(ws.seq.values))
    assert [ws.sequence_value(v).coords for v in range(2 * p)] == want


def _with_powers(ws, powers):
    return SimpleNamespace(
        ring=ws.ring, p=ws.p, beta=ws.beta, raw_gamma=ws.raw_gamma,
        normalized=ws.normalized, powers=powers,
    )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_check_gamma_agrees_with_pairwise_scan(p):
    ws = _Workspace(p)
    assert oracles.pairwise_gamma_failure([e.coords for e in ws.powers], p) is None
    assert check_gamma(ws).status is CheckStatus.PASS
    # power tables of other units fail at the same first pair as the scan
    failures = 0
    for k in range(4, 4 + 40):
        x = ws.ring.element([(k >> (2 * i)) & 3 for i in range(ws.ring.r)])
        if not x.is_unit():
            continue
        powers = powers_of(x, 2 * p)
        want = oracles.pairwise_gamma_failure([e.coords for e in powers], p)
        got = check_gamma(_with_powers(ws, powers))
        assert got.status is (CheckStatus.PASS if want is None else CheckStatus.FAIL)
        if want is not None:
            failures += 1
            assert got.detail == want
    assert failures


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
