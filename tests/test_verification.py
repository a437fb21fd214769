import dataclasses
from types import SimpleNamespace

import pytest

import oracles
from cyclo4 import f2, verify
from cyclo4.cyclotomy import build_classes
from cyclo4.galois import (
    Z4,
    GaloisRing,
    construct_ring,
    find_gamma,
    lift_irreducible,
    powers_of,
)
from cyclo4.lfsr import theorem_lc
from cyclo4.primes import odd_primes
from cyclo4.ringpoly import NonUnitDivisorError, RingPolynomial
from cyclo4.verify import (
    DEFAULT_EXPANSION_CAP,
    CheckStatus,
    check_factorizations,
    check_gamma,
    check_lemma3,
    check_lemma5,
    check_roots_guard,
    full_report,
    normalize_gamma,
    _Workspace,
)

# one prime per residue class mod 16, plus the three smallest
SAMPLE_PRIMES = (3, 5, 7, 11, 13, 17, 23, 31, 41, 43)


@pytest.fixture(scope="module")
def workspaces():
    return {p: _Workspace(p) for p in SAMPLE_PRIMES}


class TestNormalization:
    @pytest.mark.parametrize("p", SAMPLE_PRIMES)
    def test_class_sum_becomes_unit(self, p, workspaces):
        ng = workspaces[p].normalized
        assert ng.s0.is_unit()
        if ng.replaced:
            assert ng.exponent == min(workspaces[p].classes.d1)

    @pytest.mark.parametrize("p", (3, 7, 17))
    def test_sums_add_to_one(self, p, workspaces):
        ws = workspaces[p]
        pw = powers_of(ws.gamma, 2 * p)
        s0 = sum((pw[v] for v in ws.classes.d0), ws.ring.zero)
        s1 = sum((pw[v] for v in ws.classes.d1), ws.ring.zero)
        assert s0 + s1 == ws.ring.one

    @pytest.mark.parametrize("p", (7, 23, 47, 71, 79, 89, 103, 113, 137, 151, 191, 199))
    def test_replaced_table_is_reindexed_raw_table(self, p):
        # the odd primes <= 199 whose gamma is replaced: the raw class sums,
        # permuted, must equal the replacement's sums over its power table
        # built by multiplication
        ws = _Workspace(p)
        assert ws.normalized.replaced
        assert ws.gamma == ws.raw_gamma**ws.normalized.exponent
        pw = powers_of.__wrapped__(ws.gamma, 2 * p)
        assert ws.normalized.sums == {
            name: sum((pw[u] for u in block), ws.ring.zero)
            for name, block in ws.classes.blocks.items()
        }

    def test_unit_sum_left_unchanged(self):
        # p = 3: S0(gamma) = gamma = 3w is already a unit
        ring = construct_ring(3)
        _, gamma = find_gamma(ring, 3)
        ng = normalize_gamma(ring, build_classes(3), gamma)
        assert not ng.replaced and ng.gamma == gamma


def _omega(ring, p):
    """What normalize_gamma takes for omega: None for p = +-1 (mod 8), else
    find_gamma's root of Y**2 + Y + 1."""
    return None if p % 8 in (1, 7) else find_gamma(ring, 3)[0]


def _traced_and_chained(p, classes=None):
    """The raw class sums of p by traces and by the oracle's chain of
    products, over the true classes or the given ones."""
    ws = _Workspace(p)
    classes = classes or ws.classes
    traced = verify._class_sums(ws.ring, classes, ws.raw_gamma, _omega(ws.ring, p))
    return traced, oracles.class_sums_by_chain(ws.ring, classes, ws.raw_gamma)


def _assert_traces_agree_with_the_chain(primes):
    routes, replaced = set(), False
    for p in primes:
        traced, chained = _traced_and_chained(p)
        assert traced == chained, p
        routes.add(p % 8 in (1, 7))
        replaced = replaced or _Workspace(p).normalized.replaced
    # both trace routes, down to Z4 and to Z4[omega], and a replaced gamma
    assert routes == {True, False} and replaced


class TestClassSumsAsTraces:
    def test_agree_with_the_chain_for_every_prime_to_293(self):
        _assert_traces_agree_with_the_chain(odd_primes(3, 293))

    @pytest.mark.slow
    def test_agree_with_the_chain_for_every_prime_from_294_to_1100(self):
        _assert_traces_agree_with_the_chain(odd_primes(294, 1100))

    @pytest.mark.parametrize("p", (5, 11, 13, 19, 29, 43))
    def test_omega_is_a_root_of_y2_y_1(self, p):
        self._assert_omega_is_a_root(p)
        # X mod 2 has order prime to 3 at 29 and 43 (not at 13 or 19, where
        # its order is prime to p), so find_gamma goes past X for omega
        ring = construct_ring(p)
        past_x = f2.powmod(0b10, ((1 << ring.r) - 1) // 3, ring._mod2) == 1
        assert past_x is (p in (29, 43))

    @pytest.mark.slow
    @pytest.mark.parametrize("p", (4003, 8011))
    def test_omega_is_a_root_of_y2_y_1_at_large_r(self, p):
        # p = 3 (mod 8) both; find_gamma goes past X at 8011 (r = 2670)
        self._assert_omega_is_a_root(p)

    @staticmethod
    def _assert_omega_is_a_root(p):
        ring = construct_ring(p)
        omega = find_gamma(ring, 3)[0]
        assert omega * omega + omega + ring.one == ring.zero
        assert (omega - ring.one).is_unit()

    @pytest.mark.parametrize("p", (5, 7, 11, 13, 17, 23, 29, 31, 41, 43))
    @pytest.mark.parametrize("i", (0, 1))
    def test_a_wrong_power_sum_changes_the_sums(self, p, i, monkeypatch):
        real = verify._power_sums

        def bumped(ring):
            sums = real(ring)
            sums[i] = (sums[i] + 1) % 4
            return sums

        monkeypatch.setattr(verify, "_power_sums", bumped)
        traced, chained = _traced_and_chained(p)
        assert traced != chained

    @pytest.mark.parametrize("p", (3, 5, 11, 13, 19, 29, 43))
    def test_omega_one_fails_the_sums_and_the_premise(self, p, monkeypatch):
        # with omega = 1 each coset's (c0, c1) reads (0, -t1), so D0 + D1,
        # minus the sum of t1 = 2 c0 - c1 over the cosets, is -2, not 1
        ws = _Workspace(p)
        ring = ws.ring
        got = verify._class_sums(ring, ws.classes, ws.raw_gamma, ring.one)
        assert got["D0"] + got["D1"] == ring.embed(2)
        real = verify._class_sums
        with monkeypatch.context() as m:
            m.setattr(verify, "_class_sums", lambda *args: real(*args[:3], ring.one))
            with pytest.raises(RuntimeError, match="D0 and D1 do not add to 1"):
                normalize_gamma(ring, ws.classes, ws.raw_gamma)
        monkeypatch.setattr(verify, "find_gamma", lambda ring, p: (ring.one, -ring.one))
        with pytest.raises(RuntimeError, match="omega is not a root of Y"):
            normalize_gamma(ring, ws.classes, ws.raw_gamma)

    @pytest.mark.parametrize("p", (7, 11, 13, 17, 23, 29, 31, 41, 43, 73))
    def test_a_swapped_coset_moves_its_trace(self, p):
        # the odd lifts of one coset of <q> in D0 and one in D1 trade
        # classes: both are still unions of orbits, so the traces follow
        # the new classes, and the sums change
        c = build_classes(p)
        q = 2 if p % 8 in (1, 7) else 4

        def odd_lifts(a):
            coset = {a * pow(q, k, p) % p for k in range(p - 1)}
            return frozenset(w if w % 2 else w + p for w in coset)

        moved = odd_lifts(min(c.d0)) | odd_lifts(min(c.d1))
        swapped = dataclasses.replace(c, d0=c.d0 ^ moved, d1=c.d1 ^ moved)
        traced, chained = _traced_and_chained(p, swapped)
        assert traced == chained
        assert traced != _traced_and_chained(p)[0]

    def test_orbits_shorter_than_the_ring_degree_are_refused(self):
        # GR(4**6, 4) holds units of order 7, but sigma has order 6 and the
        # orbits of u -> 9u mod 14 have 3 elements: each trace would count
        # its orbit twice
        ring = GaloisRing(lift_irreducible(f2.lex_smallest_irreducible(6)))
        _, gamma = find_gamma(ring, 7)
        with pytest.raises(RuntimeError, match="D0 is not a union of orbits"):
            normalize_gamma(ring, build_classes(7), gamma)

    @pytest.mark.parametrize("p", (5, 7, 11, 13, 17, 29))
    def test_a_class_that_is_not_a_union_of_orbits_is_refused(self, p):
        ws = _Workspace(p)
        c = ws.classes
        a, b = max(c.d0), max(c.d1)
        bad = dataclasses.replace(c, d0=c.d0 - {a} | {b}, d1=c.d1 - {b} | {a})
        with pytest.raises(RuntimeError, match="D0 is not a union of orbits"):
            normalize_gamma(ws.ring, bad, ws.raw_gamma)


class TestIndividualChecks:
    @pytest.mark.parametrize("p", (3, 5, 7, 17, 31))
    def test_check_gamma_names_the_broken_postcondition(self, p, workspaces):
        ws = workspaces[p]
        ring, beta = ws.ring, ws.beta
        off = beta * (ring.one + ring.x + ring.x)  # (1 + 2X)**p = 1 + 2X
        cases = [
            # find_gamma giving 1 and -1, or beta (1 + 2X) and its negative
            ((ring.one, -ring.one), "beta does not have order p"),
            ((off, -off), "beta does not have order p"),
            # gamma = beta has gamma**p = 1
            ((beta, beta), "gamma**p != -1"),
            # -beta**2 has order 2p as well, but it is not -beta
            ((beta, -(beta * beta)), "gamma != -beta"),
        ]
        for (b, g), detail in cases:
            mutant = SimpleNamespace(
                ring=ring, p=p, beta=b, raw_gamma=g, gamma=g, gamma_p=g**p,
                normalized=ws.normalized,
            )
            got = check_gamma(mutant)
            assert (got.status, got.detail) == (CheckStatus.FAIL, detail)

    @pytest.mark.parametrize("p", SAMPLE_PRIMES)
    def test_class_relations(self, p, workspaces):
        assert check_lemma3(workspaces[p].classes).status is CheckStatus.PASS

    @pytest.mark.parametrize("p", SAMPLE_PRIMES)
    def test_cyclotomic_counts(self, p, workspaces):
        assert check_lemma5(workspaces[p].classes).status is CheckStatus.PASS

    def test_spectrum_values_match_hand_table(self, workspaces):
        # p = 7 is -1 mod 8: zero off E1, two on E1
        ws = workspaces[7]
        for v in ws.classes.e1:
            assert oracles.sequence_value(ws, v) == ws.ring.embed(2)
        for v in ws.classes.d0 | ws.classes.d1 | ws.classes.e0:
            assert oracles.sequence_value(ws, v) == ws.ring.zero
        # p = 5 is -3 mod 8: constant 3 on the even classes
        ws = workspaces[5]
        for v in ws.classes.e0 | ws.classes.e1:
            assert oracles.sequence_value(ws, v) == ws.ring.embed(3)

    def test_spectrum_agrees_with_horner_evaluation(self, workspaces):
        for p in (3, 5, 7):
            ws = workspaces[p]
            poly = oracles.generating_polynomial(ws.seq)
            pw = powers_of(ws.gamma, 2 * p)
            for v in range(2 * p):
                assert oracles.sequence_value(ws, v) == poly.evaluate(pw[v])

    def test_spectrum_anchor_values(self, workspaces):
        # S(1) = p + 1 and S(gamma^p) = 2, reduced mod 4
        for p in (3, 5, 7, 17):
            ws = workspaces[p]
            poly = oracles.generating_polynomial(ws.seq)
            pw = powers_of(ws.gamma, 2 * p)
            assert poly.evaluate(pw[0]) == ws.ring.embed((p + 1) % 4)
            assert poly.evaluate(pw[p]) == ws.ring.embed(2)

    def test_p3_factorization_by_hand(self, workspaces):
        # (X + 1)(X - gamma)(X - gamma^5) = X^3 + 1 in GR(4^2, 4)
        ws = workspaces[3]
        ring = ws.ring
        x_plus_1 = RingPolynomial(ring, [ring.one, ring.one])
        pw = powers_of(ws.gamma, 2 * ws.p)
        f1 = RingPolynomial(ring, [-pw[1], ring.one])
        f5 = RingPolynomial(ring, [-pw[5], ring.one])
        expected = RingPolynomial.monomial(ring, 3) + RingPolynomial(ring, [ring.one])
        assert x_plus_1 * f1 * f5 == expected

    def test_factorization_degrees(self, workspaces):
        ws = workspaces[7]
        fact, nine = check_factorizations(ws)
        assert fact.status is CheckStatus.PASS
        assert nine.status is CheckStatus.PASS  # 7 = -1 mod 8: integrality claimed

    def test_lemma9_skipped_for_pm3(self, workspaces):
        _, nine = check_factorizations(workspaces[3])
        assert nine.status is CheckStatus.SKIP

    def test_expansion_cap_skips(self):
        # 67 is the first prime above the cap
        assert DEFAULT_EXPANSION_CAP == 61
        fact, nine = check_factorizations(_Workspace(67))
        for check in (fact, nine):
            assert check.status is CheckStatus.SKIP
            assert check.detail == "skipped: p > expansion cap 61"


# witnesses the guard must reject, with the first problem it names
WITNESS_MUTANTS = {
    # the 2X**p term dropped: X**2p + 1 is 2 wherever x**2p = 1
    "no-2Xp": (
        lambda p: [1] + [0] * (2 * p - 1) + [1],
        "witness does not vanish at gamma^0",
    ),
    # X**2p - 1 itself vanishes at every gamma**j, and it divides itself
    "X2p-1": (
        lambda p: [3] + [0] * (2 * p - 1) + [1],
        "witness is divisible by X^2p - 1, guard violated",
    ),
}


class TestRootsGuard:
    @pytest.mark.parametrize("p", list(odd_primes(3, 61)))
    def test_vanishing_without_divisibility(self, p):
        # the ring-element polynomial oracle: Horner at all 2p powers of
        # gamma and a long division, against the guard's Z4 lists
        ws = _Workspace(p)
        n = 2 * p
        coeffs = verify._roots_witness(p)   # X^2p - 1 + 2(X^p + 1)
        witness = RingPolynomial.from_ints(Z4, coeffs)
        for x in powers_of(ws.gamma, n):
            assert witness.evaluate(x) == ws.ring.zero
        divisor = [-1] + [0] * (n - 1) + [1]
        quotient, rem = divmod(witness, RingPolynomial.from_ints(Z4, divisor))
        int_quotient, int_rem = verify._divide_by_monic(coeffs, [d % 4 for d in divisor])
        assert quotient == RingPolynomial.from_ints(Z4, [int_quotient])
        assert rem == RingPolynomial.from_ints(Z4, int_rem)
        assert not rem.is_zero
        assert rem == RingPolynomial.from_ints(Z4, [2] + [0] * (p - 1) + [2])
        assert check_roots_guard(ws).status is CheckStatus.PASS

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_vanishing_is_checked_at_gamma_to_the_p(self, p, workspaces):
        # at gamma = 2, gamma**p = 2**p = 0 and the witness y*y + 2y + 1 is 1:
        # the vanishing first fails at gamma^1, where gamma**p stands for
        # every odd j
        ring, two = workspaces[p].ring, workspaces[p].ring.embed(2)
        got = check_roots_guard(SimpleNamespace(ring=ring, p=p, gamma_p=two**p))
        assert got.status is CheckStatus.FAIL
        assert got.detail == "witness does not vanish at gamma^1"

    @pytest.mark.parametrize("p", (3, 5, 7, 17))
    @pytest.mark.parametrize("wrong", ("2", "X"))
    def test_rejects_a_wrong_gamma_to_the_p(self, p, wrong, workspaces):
        # y*y + 2y + 1 = (y + 1)**2 is 1 at y = 2, and at y = X the square
        # of the unit X + 1
        ring = workspaces[p].ring
        y = ring.embed(2) if wrong == "2" else ring.x
        got = check_roots_guard(SimpleNamespace(ring=ring, p=p, gamma_p=y))
        assert got.status is CheckStatus.FAIL
        assert got.detail == "witness does not vanish at gamma^1"

    @pytest.mark.parametrize("p", (3, 5, 7, 17))
    @pytest.mark.parametrize("mutant", WITNESS_MUTANTS)
    def test_rejects_a_wrong_witness(self, p, mutant, workspaces, monkeypatch):
        witness, detail = WITNESS_MUTANTS[mutant]
        monkeypatch.setattr(verify, "_roots_witness", witness)
        got = check_roots_guard(workspaces[p])
        assert got.status is CheckStatus.FAIL
        assert got.detail == detail

    def test_division_refuses_non_unit_leads_rather_than_guessing(self):
        # no code path may divide by 2X - 2 even though 1 and 3 are roots
        two_x_minus_2 = RingPolynomial.from_ints(Z4, [-2, 2])
        with pytest.raises(NonUnitDivisorError):
            divmod(RingPolynomial.from_ints(Z4, [1, 1]), two_x_minus_2)


class TestFullReport:
    @pytest.mark.parametrize("p", SAMPLE_PRIMES)
    def test_everything_passes(self, p, workspaces):
        report = full_report(p)
        assert report.ok
        assert {c.check_id for c in report.checks} == {
            "gamma",
            "lemma3",
            "lemma5",
            "lemma6",
            "lemma7",
            "lemma8",
            "factorization",
            "lemma9",
            "roots",
            "theorem",
        }

    def test_rejects_p2(self):
        with pytest.raises(ValueError):
            full_report(2)

    def test_rejects_unknown_filter(self):
        with pytest.raises(ValueError):
            full_report(7, only={"nonsense"})

    def test_rejects_unknown_filter_before_building_the_ring(self, monkeypatch):
        def no_workspace(p):
            raise AssertionError("the workspace was built")

        monkeypatch.setattr(verify, "_Workspace", no_workspace)
        with pytest.raises(ValueError, match="unknown checks"):
            full_report(7, only={"bogus"})

    def test_rejects_empty_filter_before_building_the_ring(self, monkeypatch):
        def no_workspace(p):
            raise AssertionError("the workspace was built")

        monkeypatch.setattr(verify, "_Workspace", no_workspace)
        with pytest.raises(ValueError, match="empty check filter"):
            full_report(7, only=set())

    def test_filtered_report(self):
        report = full_report(7, only={"lemma6", "lemma7"})
        assert [c.check_id for c in report.checks] == ["lemma6", "lemma7"]

    @pytest.mark.parametrize("only", [{"lemma3", "lemma5"}, {"theorem"}])
    @pytest.mark.parametrize("p", (7, 4003))
    def test_checks_that_read_no_ring_build_none(self, p, only, monkeypatch):
        # p = 4003 (r = 4002): the ring, gamma and its class sums take
        # about 0.3 s there, the classes and the synthesis milliseconds
        def refuse(*args):
            raise AssertionError("the ring or gamma was built")

        monkeypatch.setattr(verify, "construct_ring", refuse)
        monkeypatch.setattr(verify, "find_gamma", refuse)
        report = full_report(p, only=only)
        assert [c.check_id for c in report.checks] == sorted(only)
        assert all(c.status is CheckStatus.PASS for c in report.checks)

    def test_a_ring_check_builds_the_ring_once(self, monkeypatch):
        built = []
        real = verify.construct_ring

        def counting(p):
            built.append(p)
            return real(p)

        monkeypatch.setattr(verify, "construct_ring", counting)
        assert full_report(17, only={"lemma6"}).ok
        assert built == [17]

    @pytest.mark.parametrize("only", [{"lemma9"}, {"factorization"}])
    @pytest.mark.parametrize("p", (67, 8011))
    def test_skipped_expansion_checks_build_no_ring(self, p, only, monkeypatch):
        built = []
        real = verify.construct_ring

        def counting(p):
            built.append(p)
            return real(p)

        monkeypatch.setattr(verify, "construct_ring", counting)
        report = full_report(p, only=only)
        assert built == []
        [name] = only
        assert report.render() == f"{name} SKIP skipped: p > expansion cap 61"

    def test_filtered_report_still_rejects_a_composite(self):
        with pytest.raises(ValueError, match="odd prime"):
            full_report(9, only={"lemma5"})

    @pytest.mark.parametrize("p", (3, 7, 17, 31, 59, 137))
    def test_each_check_alone_matches_the_full_report(self, p):
        for check in full_report(p).checks:
            assert full_report(p, only={check.check_id}).checks == (check,)

    def test_render_format(self):
        report = full_report(3, only={"lemma5"})
        line = report.render()
        assert line.startswith("lemma5 PASS ")

    def test_residue_class_coverage_mod_16(self):
        covered = {}
        for p in odd_primes(3, 199):
            covered.setdefault(p % 16, []).append(p)
        assert set(covered) == {1, 3, 5, 7, 9, 11, 13, 15}
        assert all(len(v) >= 2 for v in covered.values())


@pytest.mark.slow
def test_full_report_every_prime_below_500():
    for p in odd_primes(3, 499):
        report = full_report(p)
        for check in report.checks:
            if check.status is CheckStatus.SKIP:
                above_cap = p > DEFAULT_EXPANSION_CAP
                assert check.check_id in ("factorization", "lemma9"), (p, check.render())
                assert above_cap or (check.check_id == "lemma9" and p % 8 in (3, 5))
            else:
                assert check.status is CheckStatus.PASS, (p, check.render())
        theorem = next(c for c in report.checks if c.check_id == "theorem")
        assert theorem.detail == f"lc = {theorem_lc(p)} = closed form"


@pytest.mark.slow
def test_full_report_at_the_frontier_p_1019():
    # r = 1018: the ordered irreducible search finds X^1018 + 0x6f5
    report = full_report(1019)
    assert [c.check_id for c in report.checks] == list(verify._CHECK_ORDER)
    for check in report.checks:
        # factorization and lemma9 are past the expansion cap
        skipped = check.check_id in ("factorization", "lemma9")
        want = CheckStatus.SKIP if skipped else CheckStatus.PASS
        assert check.status is want, check.render()


@pytest.mark.slow
@pytest.mark.parametrize("p", (1933, 2003, 1913, 1999, 2017, 2039))
def test_full_report_near_2000_one_prime_per_class(p):
    # p = 13, 3, 9, 15, 1, 7 (mod 16), r = 644, 286, 239, 333, 336, 1019
    report = full_report(p)
    assert [c.check_id for c in report.checks] == list(verify._CHECK_ORDER)
    for check in report.checks:
        skipped = check.check_id in ("factorization", "lemma9")
        want = CheckStatus.SKIP if skipped else CheckStatus.PASS
        assert check.status is want, check.render()
