import hashlib
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclo4
from cyclo4 import cli, f2, lfsr
from cyclo4.lfsr import (
    LfsrResult,
    ResidueClass,
    brute_force_minimal,
    classify_prime,
    minimal_connection,
    reeds_sloane,
    theorem_lc,
    verify_connection,
)
from cyclo4.primes import odd_primes
from cyclo4.sequence import generate_sequence

import oracles
from oracles import cyclic_annihilator_exists, cyclic_min_degree


class TestClassification:
    @pytest.mark.parametrize(
        "p,cls",
        [
            (41, ResidueClass.NINE_MOD_16),
            (31, ResidueClass.FIFTEEN_MOD_16),
            (5, ResidueClass.FIVE_MOD_8),
            (3, ResidueClass.THREE_MOD_8),
            (17, ResidueClass.ONE_MOD_16),
            (7, ResidueClass.SEVEN_MOD_16),
        ],
    )
    def test_examples(self, p, cls):
        assert classify_prime(p) is cls

    def test_every_odd_prime_gets_exactly_one_label(self):
        for p in odd_primes(3, 300):
            classify_prime(p)  # raises if unmapped

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            classify_prime(2)


class TestTheorem:
    @pytest.mark.parametrize(
        "p,lc", [(3, 5), (5, 10), (7, 4), (17, 18), (31, 31), (41, 22)]
    )
    def test_reported_values(self, p, lc):
        assert theorem_lc(p) == lc

    def test_case_formulas(self):
        for p in odd_primes(3, 200):
            lc = theorem_lc(p)
            m8, m16 = p % 8, p % 16
            if m8 == 5:
                assert lc == 2 * p
            elif m8 == 3:
                assert lc == 2 * p - 1
            elif m16 == 15:
                assert lc == p
            elif m16 == 1:
                assert lc == p + 1
            elif m16 == 7:
                assert lc == (p + 1) // 2
            else:
                assert lc == (p + 3) // 2


class TestVerifyConnection:
    def test_full_period_shift_witness(self):
        assert verify_connection(generate_sequence(5), [1] + [0] * 9 + [3])

    def test_one_does_not_annihilate_nonzero(self):
        assert not verify_connection(generate_sequence(3), (1,))

    def test_p7_witness(self):
        assert verify_connection(generate_sequence(7), (1, 0, 1, 1, 3))

    def test_rejects_non_unit_constant(self):
        with pytest.raises(ValueError):
            verify_connection(generate_sequence(3), (2, 1))

    def test_coefficients_are_read_mod_4_from_any_sequence(self):
        s = generate_sequence(7)
        for witness in ((1, 0, 1, 1, 3), [1, 0, 1, 1, 3], bytes([1, 0, 1, 1, 3])):
            assert verify_connection(s, witness)
        # 5 = 1 and -1 = 3 mod 4
        assert verify_connection(s, [5, 4, 1, 9, -1])
        assert not verify_connection(s, bytes([5, 0, 1, 1, 2]))
        with pytest.raises(ValueError, match="constant term 1"):
            verify_connection(s, [2, 0, 1, 1, 3])

    @pytest.mark.parametrize("bad", [[0.5, 1], ["1", "2"], [None]])
    @pytest.mark.parametrize(
        "route",
        [
            reeds_sloane,
            minimal_connection,
            brute_force_minimal,
            lambda bad: verify_connection(bad, [1]),
            lambda bad: verify_connection([1, 2], bad),
        ],
        ids=["reeds_sloane", "minimal", "brute", "period", "connection"],
    )
    def test_refuses_values_that_are_not_integers(self, route, bad):
        # a float is not truncated, nor a digit string parsed
        with pytest.raises(ValueError, match="not a period of integers"):
            route(bad)

    def test_agrees_with_polynomial_route(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randrange(2, 12)
            values = [rng.randrange(4) for _ in range(n)]
            coeffs = [1] + [rng.randrange(4) for _ in range(rng.randrange(0, n))]
            product = oracles.z4_cyclic_product(values, coeffs, n)
            assert verify_connection(values, coeffs) == (product == bytes(n))

    @pytest.mark.parametrize("n", [28, 29, 30, 31, 57])
    def test_full_slots(self, n):
        # with the first connection a wrapped slot sums 3 + 9(n - 1), past one byte from n = 30
        values = [3] * n
        for coeffs in ([1] + [3] * (n - 1), [1] + [3] * (n - 2) + [2], [1] + [3] * (2 * n)):
            assert verify_connection(values, coeffs) == oracles.annihilates(values, coeffs)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_oracle_past_the_period(self, data):
        # connections longer than the period wrap around before the product
        n = data.draw(st.integers(1, 40))
        values = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        tail = data.draw(st.lists(st.integers(0, 3), max_size=3 * n))
        coeffs = [1] + tail
        assert verify_connection(values, coeffs) == oracles.annihilates(values, coeffs)


class TestCyclicProduct:
    # Slots are sized for the largest wrapped sum: n products of 0/1
    # operands (one byte up to n = 255), 9n otherwise (two bytes from n = 29).
    @pytest.mark.parametrize("n", [1, 2, 28, 29, 255, 256, 300])
    def test_full_slots_of_both_widths(self, n):
        ones, threes = b"\x01" * n, b"\x03" * n
        for a, b in ((ones, ones), (ones, threes), (threes, threes), (ones + ones, ones)):
            assert lfsr._cyclic_product(a, b, n) == oracles.z4_cyclic_product(a, b, n), n

    @pytest.mark.parametrize("n", [7281, 7282, 65535, 65536])
    def test_all_ones_at_the_wide_slot_boundaries(self, n):
        # every wrapped slot sums exactly n ones; 0/1 operands take two-byte
        # slots from n = 7282 (where 9n needs three) and fill them at 65535
        ones = b"\x01" * n
        assert lfsr._cyclic_product(ones, ones, n) == bytes([n % 4]) * n

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_schoolbook(self, data):
        # 0/1 or 0..3 operands, longer than n so that they wrap first
        n = data.draw(st.integers(1, 40) | st.integers(240, 300))
        ops = [
            bytes(data.draw(st.lists(st.integers(0, top), min_size=1, max_size=n + 20)))
            for top in (data.draw(st.sampled_from([1, 3])), data.draw(st.sampled_from([1, 3])))
        ]
        assert lfsr._cyclic_product(*ops, n) == oracles.z4_cyclic_product(*ops, n)


@st.composite
def _square_factor_periods(draw):
    """Periods whose odd layer S mod 2 is a multiple of f**2 modulo
    X**n + 1, for f = X + 1 or X**2 + X + 1 and n a multiple of 2 or 6: so
    f**2 divides gcd(S mod 2, X**n + 1)."""
    f, step = draw(st.sampled_from([(0b11, 2), (0b111, 6)]))
    n = step * draw(st.integers(1, 64 // step))
    r, high = draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, (1 << n) - 1))
    sbar = oracles.gf2_divmod(oracles.gf2_mul(oracles.gf2_mul(f, f), r), (1 << n) | 1)[1]
    return f, [((sbar >> i) & 1) + 2 * ((high >> i) & 1) for i in range(n)]


def _assert_matches_echelon(values):
    lc, coeffs = minimal_connection(values)
    assert lc == oracles.echelon_minimal_connection(list(values))[0], values
    assert coeffs[0] == 1 and len(coeffs) == lc + 1 and coeffs[-1] != 0
    assert oracles.annihilates(list(values), coeffs), values


class TestAgainstEchelon:
    """The module-reduction solver against the incremental echelon oracle."""

    def test_every_period_up_to_length_6(self):
        for n in range(1, 7):
            for values in itertools.product(range(4), repeat=n):
                _assert_matches_echelon(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=1, max_size=64))
    def test_random_periods(self, values):
        _assert_matches_echelon(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0, 2]), min_size=1, max_size=64))
    def test_all_even_periods(self, values):
        # S mod 2 = 0, so g = 1 and the module's B vanishes
        _assert_matches_echelon(values)

    @settings(max_examples=150, deadline=None)
    @given(_square_factor_periods())
    def test_repeated_factor_in_the_odd_layer(self, case):
        f, values = case
        sbar = sum(1 << i for i, v in enumerate(values) if v % 2)
        common = oracles.gf2_gcd(sbar, (1 << len(values)) | 1)
        assert oracles.gf2_divmod(common, oracles.gf2_mul(f, f))[1] == 0
        _assert_matches_echelon(values)

    @pytest.mark.parametrize(
        "start,stop", [(3, 1000), pytest.param(1001, 4001, marks=pytest.mark.slow)]
    )
    def test_closed_form_for_every_odd_prime(self, start, stop):
        primes = odd_primes(start, stop)
        assert [p for p in primes if reeds_sloane(generate_sequence(p)).lc != theorem_lc(p)] == []


# sha256 of bytes(connection), one prime per residue class in 500 .. 1000
_CONNECTION_DIGESTS = {
    509: (1018, "c79efb48c0d9bcdaf174ca20245010b7719026281604537b9ffb59495f32d11e"),
    523: (1045, "a6af5bcbe3a36e36557d624184304132e95d016b313916becd59174676a35307"),
    569: (286, "ed578d7b094524a52b863269b00e1034dab151bbb47b0960fd75023a076a0c3a"),
    593: (594, "b97c82720f3abc9443e9d3750f62b0827f8763165fa4f161f86a6f1e84be1865"),
    751: (751, "ef5132bb29a4f1f5f3a2a75dbd0d850b123f370616ba5ae321f13e012aad92c8"),
    983: (492, "b834c621a265dd32195ee49a8cc66b18f398242148a052299b2f969ef9581a36"),
}


def test_connection_digests_pinned():
    assert {classify_prime(p) for p in _CONNECTION_DIGESTS} == set(ResidueClass)
    for p, (lc, digest) in _CONNECTION_DIGESTS.items():
        result = reeds_sloane(generate_sequence(p))
        assert result.lc == lc, p
        assert hashlib.sha256(bytes(result.connection)).hexdigest() == digest, p


def _shortcuts(values, monkeypatch) -> set[str]:
    """Which shortcuts ``minimal_connection`` takes on a nonzero period,
    read off its calls gcd(S̄, X**n + 1), gcd(a0, g1) and inverse_mod."""
    calls = []

    def spy(name):
        fn = getattr(f2, name)

        def wrapped(*args):
            out = fn(*args)
            calls.append((name, args, out))
            return out

        return wrapped

    with monkeypatch.context() as m:
        m.setattr(f2, "gcd", spy("gcd"))
        m.setattr(f2, "inverse_mod", spy("inverse_mod"))
        minimal_connection(values)
    _, (a0, _), common = calls[1]
    found = {"inverse"} if any(name == "inverse_mod" for name, _, _ in calls) else set()
    if not a0:
        found.add("a0 = 0")
    if common == 1:
        found.add("common = 1")
    if not any(v % 2 for v in values):
        found.add("m' = 1")
    return found


def _nonzero_periods():
    rng = random.Random(16)
    short = [v for n in range(1, 5) for v in itertools.product(range(4), repeat=n) if any(v)]
    randoms = [[rng.randrange(4) for _ in range(rng.randrange(5, 40))] for _ in range(200)]
    sequences = [generate_sequence(p).values for p in odd_primes(3, 60)]
    return short + randoms + sequences


@pytest.mark.parametrize("shortcut", ["a0 = 0", "common = 1", "m' = 1"])
def test_synthesis_shortcuts_match_echelon(shortcut, monkeypatch):
    # a0 = 0 and m' = 1 give c = 0 with no inverse; common = 1 skips the
    # exact divisions by gcd(a0, g1)
    hits = 0
    for values in _nonzero_periods():
        found = _shortcuts(values, monkeypatch)
        if shortcut in found:
            hits += 1
            assert shortcut == "common = 1" or "inverse" not in found, values
            _assert_matches_echelon(values)
    assert hits >= 10


def test_sequences_take_the_shortcuts_by_residue_class(monkeypatch):
    # p = 3 (mod 8): W = 0, so a0 = 0; p = 5 (mod 8): common = 1 and m'
    # divides a0, so c = 0 with no inverse; the other classes need it
    for p in odd_primes(3, 300):
        found = _shortcuts(generate_sequence(p).values, monkeypatch)
        if p % 8 == 3:
            assert found == {"a0 = 0"}, p
        elif p % 8 == 5:
            assert found == {"common = 1"}, p
        else:
            assert "inverse" in found and "a0 = 0" not in found, p


def test_import_leaves_numpy_out():
    # cyclo4 has no third-party runtime dependency: the import and every
    # command route (brute force included) load only the standard library
    src = str(Path(cyclo4.__file__).parents[1])
    code = f"""
import sys
bare = set(sys.modules)
sys.path.insert(0, {src!r})
import cyclo4
from cyclo4 import cli
argvs = (["seq", "--p", "5"], ["lc", "--p", "5", "--method", "brute"], ["verify", "--p", "7"],
         ["sweep", "--from", "3", "--to", "50"])
codes = [cli.main(argv) for argv in argvs]
loaded = {{name.partition(".")[0] for name in set(sys.modules) - bare}}
print(codes, sorted(loaded - set(sys.stdlib_module_names) - {{"cyclo4"}}))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines()[-1] == "[0, 0, 0, 0] []"


class TestReedsSloane:
    @pytest.mark.parametrize(
        "p,lc", [(3, 5), (5, 10), (7, 4), (17, 18), (31, 31), (41, 22)]
    )
    def test_golden_complexities(self, p, lc):
        result = reeds_sloane(generate_sequence(p))
        assert result.lc == lc

    def test_result_invariants(self):
        for p in (3, 5, 7, 17, 31, 41):
            s = generate_sequence(p)
            result = reeds_sloane(s)
            assert isinstance(result.connection, tuple)
            assert set(result.connection) <= {0, 1, 2, 3}
            assert result.connection[0] == 1
            assert len(result.connection) == result.lc + 1 and result.connection[-1] != 0
            assert verify_connection(s, result.connection)

    def test_all_zero_period(self):
        result = reeds_sloane([0] * 10)
        assert result.lc == 0 and result.connection == (1,)

    def test_no_shorter_annihilator_exists(self):
        # minimality cross-checked against the solvability oracle
        for p in (3, 5, 7):
            s = generate_sequence(p)
            lc = reeds_sloane(s).lc
            assert not cyclic_annihilator_exists(list(s.values), lc - 1)

    def test_exhaustive_small_periods_against_oracle(self):
        for n in range(1, 6):
            for values in itertools.product(range(4), repeat=n):
                lc, coeffs = minimal_connection(values)
                assert lc == cyclic_min_degree(list(values)), values
                assert coeffs[0] == 1
                assert verify_connection(values, coeffs), values

    def test_random_periods_against_oracle(self):
        rng = random.Random(99)
        for _ in range(250):
            n = rng.randrange(6, 15)
            values = [rng.randrange(4) for _ in range(n)]
            lc, coeffs = minimal_connection(values)
            assert lc == cyclic_min_degree(values)
            assert verify_connection(values, coeffs)

    def test_any_iterable_reads_as_the_same_period(self):
        # a generator is consumed by its first pass, so the period is read once
        values = generate_sequence(31).values
        want = reeds_sloane(values)
        assert reeds_sloane(iter(values)) == want
        assert reeds_sloane(bytes(values)) == want
        # bytes are reduced mod 4 too; unreduced ones would overflow the packed slots
        assert reeds_sloane(bytes([252, 255, 254])) == reeds_sloane([0, 3, 2])

    def test_rejects_empty_period(self):
        with pytest.raises(ValueError):
            reeds_sloane([])

    def test_checks_its_result_with_verify_connection_once(self, monkeypatch):
        calls = []

        def counting(values, connection):
            calls.append(tuple(connection))
            return verify_connection(values, connection)

        monkeypatch.setattr(lfsr, "verify_connection", counting)
        for p in (3, 7, 17):
            calls.clear()
            result = reeds_sloane(generate_sequence(p))
            assert calls == [result.connection]

    def test_rejects_a_synthesis_that_does_not_annihilate(self, monkeypatch):
        # 1 + X is monic with unit constant term but does not kill the p = 7 period
        monkeypatch.setattr(lfsr, "minimal_connection", lambda values: (1, [1, 1]))
        with pytest.raises(RuntimeError, match="does not annihilate"):
            reeds_sloane(generate_sequence(7))


class TestBruteForce:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_agrees_with_synthesis(self, p):
        s = generate_sequence(p)
        brute = brute_force_minimal(s)
        assert brute.lc == reeds_sloane(s).lc
        assert verify_connection(s, brute.connection)

    def test_constant_period(self):
        result = brute_force_minimal([2] * 6)
        assert result.lc == 1
        assert verify_connection([2] * 6, result.connection)

    def test_impulse_period(self):
        result = brute_force_minimal([1, 0, 0, 0, 0])
        assert result.lc == 5
        assert result.connection == (1, 0, 0, 0, 0, 3)

    def test_all_zero(self):
        assert brute_force_minimal([0, 0, 0]).lc == 0

    def test_lexicographic_first_hit(self):
        # every period of length <= 4 walks the counter through carries over
        # several digits; the random ones reach length 5
        rng = random.Random(321)
        short = [list(v) for n in range(1, 5) for v in itertools.product(range(4), repeat=n)]
        randoms = [[rng.randrange(4) for _ in range(rng.randrange(2, 6))] for _ in range(60)]
        for values in short + randoms:
            result = brute_force_minimal(values)
            assert result.lc == cyclic_min_degree(values), values
            got = result.connection[1:]
            # recompute the first lexicographic annihilator naively
            first = None
            for cand in itertools.product(range(4), repeat=result.lc):
                if verify_connection(values, (1, *cand)):
                    first = cand
                    break
            if result.lc == 0:
                assert got == ()
            else:
                padded = got + (0,) * (result.lc - len(got))
                assert padded == first, values


class TestLfsrResult:
    def test_rejects_non_unit_constant(self):
        with pytest.raises(ValueError):
            LfsrResult(lc=1, connection=(2, 1))

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            LfsrResult(lc=3, connection=(1, 1))
        with pytest.raises(ValueError):
            LfsrResult(lc=2, connection=(1, 1, 0))  # degree 1, not 2

    def test_serialization_order(self, capsys):
        # 1 + X**2 + X**3 + 3X**4, constant term first in the result and in lc's output
        assert reeds_sloane(generate_sequence(7)).connection == (1, 0, 1, 1, 3)
        assert cli.main(["lc", "--p", "7"]) == 0
        assert capsys.readouterr().out == "lc = 4\nconnection = [1, 0, 1, 1, 3]\n"
