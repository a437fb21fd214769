import hashlib
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cyclo4 import f2
from cyclo4.sequence import generate_sequence

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


def test_irreducible_trinomial_and_its_products():
    # X^17 + X^3 + 1 is a classic irreducible trinomial; its square is not.
    h = (1 << 17) | (1 << 3) | 1
    assert f2.is_irreducible(h)
    assert not f2.is_irreducible(f2.mul(h, h))
    assert not f2.is_irreducible(f2.mul(h, 0b111))


# The canonical modulus of each degree r: X^r + LEX_SMALLEST_LOW[r]. The
# degrees are those of ord_2 p for the primes p below 500, plus 65 (no
# such prime) and 1018 (p = 1019).
LEX_SMALLEST_LOW = {
    1: 0x0, 2: 0x3, 3: 0x3, 4: 0x3, 5: 0x5, 6: 0x3, 7: 0x3, 8: 0x1b, 9: 0x3, 10: 0x9,
    11: 0x5, 12: 0x9, 13: 0x1b, 14: 0x21, 15: 0x3, 16: 0x2b, 17: 0x9, 18: 0x9,
    19: 0x27, 20: 0x9, 21: 0x5, 22: 0x3, 23: 0x21, 24: 0x1b, 25: 0x9, 26: 0x1b,
    27: 0x27, 28: 0x3, 29: 0x5, 30: 0x3, 31: 0x9, 32: 0x8d, 33: 0x4b, 34: 0x1b,
    35: 0x5, 36: 0x35, 37: 0x3f, 38: 0x63, 39: 0x11, 40: 0x39, 41: 0x9, 42: 0x27,
    43: 0x59, 44: 0x21, 45: 0x1b, 46: 0x3, 47: 0x21, 48: 0x2d, 49: 0x71, 50: 0x1d,
    51: 0x4b, 52: 0x9, 53: 0x47, 54: 0x7d, 55: 0x47, 56: 0x95, 57: 0x11, 58: 0x63,
    59: 0x7b, 60: 0x3, 61: 0x27, 62: 0x69, 63: 0x3, 64: 0x1b, 65: 0x1b, 66: 0x9,
    68: 0xa3, 70: 0x2b, 72: 0x5f, 73: 0x1d, 76: 0x35, 82: 0xd7, 83: 0x95, 88: 0x3f,
    92: 0x65, 94: 0x63, 95: 0x77, 96: 0x6f, 99: 0x4b, 100: 0x65, 102: 0x69, 106: 0x63,
    119: 0x101, 130: 0x9, 131: 0xf3, 135: 0x59, 138: 0x16d, 148: 0xa9, 155: 0xb1,
    156: 0x69, 162: 0xe7, 166: 0x63, 172: 0x3, 178: 0x185, 179: 0x17, 180: 0x9,
    183: 0x191, 191: 0xbb, 196: 0x9, 200: 0x2d, 204: 0x35, 210: 0x81, 224: 0x1b5,
    226: 0xf5, 231: 0x95, 239: 0x3f, 243: 0x123, 268: 0x387, 292: 0x8b, 316: 0x16b,
    346: 0xe7, 348: 0x191, 372: 0x16d, 378: 0x251, 388: 0x99, 418: 0x77, 420: 0x81,
    442: 0xa5, 460: 0x223, 466: 0x3c9, 490: 0x2a1, 1018: 0x6f5,
}


def test_table_matches_fresh_ordered_search():
    f2.lex_smallest_irreducible.cache_clear()
    try:
        for r, low in LEX_SMALLEST_LOW.items():
            want = (1 << r) | low
            assert f2.lex_smallest_irreducible(r) == want, r
            if r <= 18:
                # the first irreducible of degree r by exhaustive trial division
                candidates = range(1 << r, 2 << r)
                assert next(h for h in candidates if oracles.gf2_is_irreducible(h)) == want, r
            if r <= 65:
                assert oracles.gf2_is_irreducible_rabin(want), r
    finally:
        f2.lex_smallest_irreducible.cache_clear()


def test_table_entries_have_right_degree_and_are_irreducible():
    for r, low in LEX_SMALLEST_LOW.items():
        h = (1 << r) | low
        assert f2.degree(h) == r
        assert f2.is_irreducible(h), r


def test_search_fallback_off_table():
    # degree 65 is the order of 2 modulo no prime; the ordered search must
    # still produce an irreducible of that degree
    f2.lex_smallest_irreducible.cache_clear()
    try:
        h = f2.lex_smallest_irreducible(65)
        assert f2.degree(h) == 65
        assert f2.is_irreducible(h)
    finally:
        f2.lex_smallest_irreducible.cache_clear()


# sha256 of ",".join(hex(lex_smallest_irreducible(r)) for r = 1 .. 400),
# computed with the plain ordered search (no sieve, every step a full gcd)
_SEARCH_DIGEST_1_TO_400 = "989c21714af04ee7b54d2ae830e334a8ea001290fdef9cd1a664310261fe74d1"


def test_search_digest_pinned():
    f2.lex_smallest_irreducible.cache_clear()
    try:
        text = ",".join(hex(f2.lex_smallest_irreducible(r)) for r in range(1, 401))
    finally:
        f2.lex_smallest_irreducible.cache_clear()
    assert hashlib.sha256(text.encode()).hexdigest() == _SEARCH_DIGEST_1_TO_400


@pytest.mark.slow
@pytest.mark.parametrize("r, low", [(4002, 0x16B), (4004, 0x419), (8000, 0x1961)])
def test_search_golden_at_large_degree(r, low):
    # found by the plain ordered search (8000 is the order of 2 mod 16001)
    f2.lex_smallest_irreducible.cache_clear()
    try:
        assert f2.lex_smallest_irreducible(r) == (1 << r) | low
    finally:
        f2.lex_smallest_irreducible.cache_clear()


# full-degree t against h = X**r + low, r = 200 .. 1100 (both sides of
# _FOURTH_POWER_BELOW): a sparse low of degree 2 .. r/2 - 1, whose fold
# takes at least two rounds, or its reciprocal, whose low part is dense
@st.composite
def _kernel_cases(draw):
    r = draw(st.integers(200, 1100))
    d = draw(st.integers(2, r // 2 - 1))
    bits = draw(st.lists(st.integers(0, d - 1), max_size=12))
    low = (1 << d) | sum(1 << j for j in set(bits)) | 1
    h = (1 << r) | low
    if draw(st.booleans()):
        h = int(bin(h)[:1:-1], 2)
    t = (1 << (r - 1)) | draw(st.integers(0, (1 << (r - 1)) - 1))
    return h, t


@settings(max_examples=60, deadline=None)
@given(_kernel_cases())
def test_frobenius_steps_match_schoolbook(case):
    h, t = case
    r, low = f2.degree(h), h & ((1 << f2.degree(h)) - 1)
    square, fourth = f2._frobenius(h)
    if 2 * f2.degree(low) < r:
        # the spread square's part above X**r, times low, reaches X**r again
        assert f2.degree(oracles.gf2_mul(int(bin(t)[2:], 4) >> r, low)) >= r
    for _ in range(3):
        t2 = oracles.gf2_square_mod(t, h)
        t4 = oracles.gf2_square_mod(t2, h)
        assert square(t) == t2
        assert fourth(t) == t4
        t = t4 | (1 << (r - 1))


# h = X**r + low, r = 1 .. 1100, with a sparse low of degree below r/2
# or its reciprocal, whose low part is dense; short bases such as
# find_gamma's, or uniform below 2**r; exponents 0, 1, 2**r - 1 or uniform
# below 2**r
@st.composite
def _powmod_cases(draw):
    r = draw(st.integers(1, 1100))
    bits = draw(st.lists(st.integers(0, max(0, r // 2 - 1)), max_size=8))
    h = (1 << r) | sum(1 << j for j in set(bits)) | 1
    if draw(st.booleans()):
        h = int(bin(h)[:1:-1], 2)
    uniform = st.randoms(use_true_random=False).map(lambda rng: rng.getrandbits(r))
    a = draw(st.integers(0, 15) | uniform)
    n = draw(st.sampled_from([0, 1, (1 << r) - 1]) | uniform)
    return h, a, n


@settings(max_examples=100, deadline=None)
@given(_powmod_cases())
def test_powmod_matches_schoolbook(case):
    h, a, n = case
    assert f2.powmod(a, n, h) == oracles.gf2_pow_mod(a, n, h)


@pytest.mark.parametrize("r", [2, 3, 58, 292])
def test_powmod_of_x_at_the_field_order(r):
    h = f2.lex_smallest_irreducible(r)
    order = (1 << r) - 1
    assert f2.powmod(2, order, h) == 1
    assert f2.powmod(2, order + 1, h) == 2


@settings(max_examples=300, deadline=None)
@given(_POLYS.filter(bool), st.integers(1, 9))
def test_folded_step_matches_full_gcd(h, i):
    # gcd(X**(2**i) - X, h) = 1 without a gcd at the size of h, for every
    # nonzero h: even ones (X divides both) and 2**i - 1 past deg h included
    assert f2._coprime_folded(h, i) == (oracles.gf2_gcd(h, (1 << (1 << i)) ^ 2) == 1)


def test_folded_step_at_degrees_1_and_2():
    for h in range(2, 8):
        for i in range(1, 4):
            assert f2._coprime_folded(h, i) == (oracles.gf2_gcd(h, (1 << (1 << i)) ^ 2) == 1)


def test_is_irreducible_matches_trial_division_through_degree_11():
    for h in range(1 << 12):
        assert f2.is_irreducible(h) == oracles.gf2_is_irreducible(h), bin(h)


@settings(max_examples=500, deadline=None)
@given(_POLYS)
def test_is_irreducible_matches_rabin_oracle(h):
    want = oracles.gf2_is_irreducible_rabin(h)
    assert f2.is_irreducible(h) == want
    assert oracles.gf2_is_irreducible_ben_or(h) == want


# a polynomial g of degree 200 .. 1100, far past the exhaustive degrees
_LARGE = st.integers(200, 1100).flatmap(lambda d: st.integers(1 << d, (2 << d) - 1))


@settings(max_examples=60, deadline=None)
@given(_LARGE)
def test_linear_factor_rejected_at_large_degree(g):
    # X * g and (X + 1) * g: step 1 sees them before any other step
    assert not f2.is_irreducible(oracles.gf2_mul(0b10, g))
    assert not f2.is_irreducible(oracles.gf2_mul(0b11, g))


def _irreducible_from(k: int, start: int) -> int:
    """The first irreducible X**k + low for low = start, start + 1, ...
    (mod 2**k), by Ben-Or's oracle."""
    low = start
    while not oracles.gf2_is_irreducible_ben_or((1 << k) | low):
        low = (low + 1) % (1 << k)
    return (1 << k) | low


# products of up to three irreducible factors of degree 2 .. 45, repeats
# allowed: their least factor often lies past Ben-Or's first steps
_PRODUCTS = st.lists(
    st.integers(2, 45).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, (1 << k) - 1))),
    min_size=1,
    max_size=3,
).map(lambda specs: [_irreducible_from(k, start) for k, start in specs])


@settings(max_examples=100, deadline=None)
@given(_PRODUCTS)
def test_is_irreducible_matches_oracles_on_products(factors):
    h = 1
    for g in factors:
        h = f2.mul(h, g)
    assert f2.is_irreducible(h) == (len(factors) == 1)
    assert oracles.gf2_is_irreducible_ben_or(h) == (len(factors) == 1)
    assert oracles.gf2_is_irreducible_rabin(h) == (len(factors) == 1)


def _checkpoints(r: int) -> set[int]:
    """The steps ``is_irreducible`` takes at r >= 2, in its plan: step 1
    (the factors X and X + 1), the folded steps up to min(r/2, log2 r),
    the full-size Ben-Or steps past them and Rabin's steps r/q."""
    log = r.bit_length() - 1
    folded = range(2, min(r // 2, log) + 1)
    full = range(log + 1, min(r // 2, log + f2._BEN_OR_STEPS) + 1)
    primes = [q for q in range(2, r + 1) if r % q == 0 and all(q % d for d in range(2, q))]
    return {1, *folded, *full} | {r // q for q in primes}


def _gcd_steps_and_fixed_point(h: int) -> tuple[set[int], bool]:
    """The checkpoints i with gcd(X**(2**i) - X, h) != 1, and whether
    X**(2**r) = X mod h, by the plain ``mulmod``."""
    r = f2.degree(h)
    steps, t, hits = _checkpoints(r), 2, set()
    for i in range(1, r + 1):
        t = f2.mulmod(t, t, h)
        if i in steps and f2.gcd(t ^ 2, h) != 1:
            hits.add(i)
    return hits, t == 2


def test_products_of_two_irreducibles_of_equal_degree_rejected():
    # h times its reciprocal (which is h itself for X^2 + X + 1, the only
    # irreducible of degree 2) has no factor below degree k, so the test
    # rejects it only at step k: Ben-Or's last step for k <= 12, Rabin's
    # checkpoint r/2 past it.
    for k in range(2, 41):
        h = f2.lex_smallest_irreducible(k)
        reciprocal = int(bin(h)[:1:-1], 2)
        for product in (f2.mul(h, h), f2.mul(h, reciprocal)):
            assert not f2.is_irreducible(product), (k, bin(product))
            assert not oracles.gf2_is_irreducible_rabin(product), k


@pytest.mark.parametrize("k", range(21, 31))
def test_three_distinct_irreducibles_of_one_degree_rejected_at_r_over_3(k):
    # X**(2**3k) = X modulo the squarefree product, and no Ben-Or step
    # i <= 14 < k (r = 63 .. 90) sees a factor: only the checkpoint r/3 = k
    # rejects it.
    a = _irreducible_from(k, 1)
    b = _irreducible_from(k, (a + 1) & ((1 << k) - 1))
    c = _irreducible_from(k, (b + 1) & ((1 << k) - 1))
    assert len({a, b, c}) == 3
    product = f2.mul(f2.mul(a, b), c)
    assert _gcd_steps_and_fixed_point(product) == ({k}, True)
    assert not f2.is_irreducible(product)


@pytest.mark.parametrize("a, b", [(21, 22), (21, 23), (22, 25), (23, 24), (25, 27), (29, 31)])
def test_product_of_coprime_degrees_rejected_by_final_comparison(a, b):
    # every factor's degree is above 20, past Ben-Or's steps (at most 13
    # at r <= 60), and divides no r/q, so no gcd step sees one; only
    # X**(2**r) != X mod h rejects the product
    product = f2.mul(f2.lex_smallest_irreducible(a), f2.lex_smallest_irreducible(b))
    assert _gcd_steps_and_fixed_point(product) == (set(), False)
    assert not f2.is_irreducible(product)


def _plan_trace(monkeypatch, h: int) -> tuple[bool, int, int]:
    """``is_irreducible(h)``, with the number of its gcds at degree
    r = deg h and the step i it reached, t = X**(2**i) mod h, counted
    through wrapped ``gcd`` and ``_frobenius`` maps."""
    r = f2.degree(h)
    real_gcd, real_frobenius = f2.gcd, f2._frobenius
    counts = {"gcds": 0, "step": 0}

    def gcd(a, b):
        counts["gcds"] += max(a.bit_length(), b.bit_length()) > r
        return real_gcd(a, b)

    def frobenius(m):
        square, fourth = real_frobenius(m)

        def counted_square(t):
            counts["step"] += 1
            return square(t)

        def counted_fourth(t):
            counts["step"] += 2
            return fourth(t)

        return counted_square, counted_fourth

    monkeypatch.setattr(f2, "gcd", gcd)
    monkeypatch.setattr(f2, "_frobenius", frobenius)
    return f2.is_irreducible(h), counts["gcds"], counts["step"]


def _two_factor_product(r: int, d: int) -> int:
    return f2.mul(f2.lex_smallest_irreducible(d), f2.lex_smallest_irreducible(r - d))


@pytest.mark.parametrize(
    "r, d", [(r, d) for r in (100, 466) for d in range(1, r.bit_length())]
)
def test_small_factor_rejected_with_no_gcd_at_degree_r(monkeypatch, r, d):
    # d <= floor(log2 r): step 1 or a folded step sees the factor
    assert _plan_trace(monkeypatch, _two_factor_product(r, d)) == (False, 0, 0)


@pytest.mark.parametrize(
    "r, d",
    [(r, d) for r in (100, 466) for d in range(r.bit_length(), r.bit_length() + f2._BEN_OR_STEPS)],
)
def test_factor_past_the_folds_rejected_at_its_own_step(monkeypatch, r, d):
    # floor(log2 r) < d <= floor(log2 r) + 8: the full-size Ben-Or step d
    # sees the factor, before any squaring past X**(2**d)
    irreducible, gcds, step = _plan_trace(monkeypatch, _two_factor_product(r, d))
    assert not irreducible
    assert 1 <= gcds and step <= d


def test_reciprocals_of_table_entries_accepted():
    # the reciprocal of an irreducible is irreducible; its low part is
    # dense, so ``mod`` reduces every square
    for r, low in LEX_SMALLEST_LOW.items():
        if r < 2:
            continue
        reciprocal = int(bin((1 << r) | low)[:1:-1], 2)
        assert f2.degree(reciprocal) == r
        assert f2.degree(reciprocal ^ (1 << r)) >= r // 2, r
        assert f2.is_irreducible(reciprocal), r


def test_inverse_mod_round_trips():
    rng = random.Random(5)
    m = f2.lex_smallest_irreducible(11)
    for _ in range(100):
        a = rng.randrange(1, 1 << 11)
        inv = f2.inverse_mod(a, m)
        assert f2.mulmod(a, inv, m) == 1


# polynomials of degree 1 .. 100, and moduli with a proper factor as products of two
_FACTORS = st.integers(1, 100).flatmap(lambda d: st.integers(1 << d, (2 << d) - 1))
_COMPOSITES = st.tuples(_FACTORS, _FACTORS).map(lambda fg: oracles.gf2_mul(*fg))


@settings(max_examples=200, deadline=None)
@given(_POLYS, _COMPOSITES)
def test_inverse_mod_on_composite_moduli(a, m):
    if oracles.gf2_gcd(a, m) == 1:
        inv = f2.inverse_mod(a, m)
        assert f2.degree(inv) < f2.degree(m)
        assert oracles.gf2_divmod(oracles.gf2_mul(a, inv), m)[1] == 1
    else:
        with pytest.raises(ZeroDivisionError):
            f2.inverse_mod(a, m)


@settings(max_examples=300, deadline=None)
@given(_POLYS, _POLYS)
def test_gcd_matches_schoolbook_in_both_orders(a, b):
    want = oracles.gf2_gcd(a, b)
    assert f2.gcd(a, b) == want
    assert f2.gcd(b, a) == want
    assert f2.gcd(a, 0) == a and f2.gcd(0, a) == a


def _odd_layer(p: int) -> int:
    """S mod 2 of the period-2p sequence, as a bitmask polynomial."""
    return sum(1 << i for i, v in enumerate(generate_sequence(p).values) if v % 2)


@pytest.mark.parametrize("p", [997, 1297])
def test_kernels_at_synthesis_sizes(p):
    # the synthesis's operands at 2p = 1994 and 2594 bits, far past the
    # hypothesis draws: S mod 2 against X**2p + 1, whose gcd g has degree 2
    # (p = 997) and 1946 (p = 1297)
    sbar, xn1 = _odd_layer(p), (1 << 2 * p) | 1
    g = oracles.gf2_gcd(sbar, xn1)
    assert g != 1
    assert f2.gcd(sbar, xn1) == g == f2.gcd(xn1, sbar)
    m, rem = oracles.gf2_divmod(xn1, g)
    assert rem == 0
    assert f2.quo_rem(xn1, g) == (m, 0) and f2.exact_div(xn1, g) == m
    assert f2.quo_rem(sbar, m) == oracles.gf2_divmod(sbar, m)
    assert f2.mod(sbar, m) == oracles.gf2_divmod(sbar, m)[1]
    # S/g is coprime to the composite (X**2p + 1)/g; S itself shares g with X**2p + 1
    a = f2.exact_div(sbar, g)
    inv = f2.inverse_mod(a, m)
    assert f2.degree(inv) < f2.degree(m)
    assert oracles.gf2_divmod(f2.mul(a, inv), m)[1] == 1
    with pytest.raises(ZeroDivisionError):
        f2.inverse_mod(sbar, xn1)


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
