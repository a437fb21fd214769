import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cyclo4 import f2

# bitmask polynomials of degree up to 200, many of them short
_POLYS = st.integers(0, 200).flatmap(lambda d: st.integers(0, (1 << (d + 1)) - 1))


def test_known_small_irreducibles():
    assert f2.is_irreducible(0b111)          # X^2 + X + 1
    assert f2.is_irreducible(0b1011)         # X^3 + X + 1
    assert not f2.is_irreducible(0b101)      # X^2 + 1 = (X + 1)^2
    assert not f2.is_irreducible(0b110)      # X(X + 1)
    assert f2.is_irreducible(0b10)           # X
    assert f2.is_irreducible(0b11)           # X + 1
    assert not f2.is_irreducible(1)          # constants are units


def test_rabin_agrees_beyond_trial_division_threshold():
    # X^17 + X^3 + 1 is a classic irreducible trinomial; its square is not.
    h = (1 << 17) | (1 << 3) | 1
    assert f2.is_irreducible(h)
    assert not f2.is_irreducible(f2.mul(h, h))
    assert not f2.is_irreducible(f2.mul(h, 0b111))


def test_table_matches_fresh_ordered_search():
    # Re-derive the canonical entries from scratch for small degrees.
    for r in range(1, 19):
        found = next(h for h in range(1 << r, 1 << (r + 1)) if oracles.gf2_is_irreducible(h))
        assert f2.lex_smallest_irreducible(r) == found


def test_rabin_matches_trial_division_through_degree_11():
    for h in range(1 << 12):
        assert f2.is_irreducible(h) == oracles.gf2_is_irreducible(h), bin(h)


def test_table_entries_have_right_degree_and_are_irreducible():
    for r, h in f2._LEX_SMALLEST.items():
        assert f2.degree(h) == r
        if r <= 64:
            assert f2.is_irreducible(h)


def test_search_fallback_off_table():
    # degree 65 is not in the table; the ordered search must produce it
    h = f2.lex_smallest_irreducible(65)
    assert f2.degree(h) == 65
    assert f2.is_irreducible(h)


def test_inverse_mod_round_trips():
    rng = random.Random(5)
    m = f2.lex_smallest_irreducible(11)
    for _ in range(100):
        a = rng.randrange(1, 1 << 11)
        inv = f2.inverse_mod(a, m)
        assert f2.mulmod(a, inv, m) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        f2.inverse_mod(0, 0b111)


@settings(max_examples=300, deadline=None)
@given(_POLYS, _POLYS)
def test_mul_matches_schoolbook_in_both_orders(a, b):
    want = oracles.gf2_mul(a, b)
    assert f2.mul(a, b) == want
    assert f2.mul(b, a) == want


@settings(max_examples=300, deadline=None)
@given(_POLYS, _POLYS.filter(bool))
def test_quo_rem_divides(a, b):
    q, r = f2.quo_rem(a, b)
    assert f2.degree(r) < f2.degree(b)
    assert oracles.gf2_mul(q, b) ^ r == a


@settings(max_examples=100, deadline=None)
@given(_POLYS, _POLYS.filter(bool))
def test_exact_div(a, b):
    product = oracles.gf2_mul(a, b)
    assert f2.exact_div(product, b) == a
    if f2.quo_rem(product ^ 1, b)[1]:
        with pytest.raises(ValueError):
            f2.exact_div(product ^ 1, b)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        f2.quo_rem(0b101, 0)


@pytest.mark.parametrize(
    "call",
    [lambda: f2.mod(5, 0), lambda: f2.mulmod(3, 5, 0), lambda: f2.inverse_mod(3, 0)],
    ids=["mod", "mulmod", "inverse_mod"],
)
def test_zero_modulus_rejected(call):
    # a zero modulus once looped forever; the alarm turns a hang into a failure
    def expire(signum, frame):
        raise TimeoutError("no answer within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(ZeroDivisionError):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
