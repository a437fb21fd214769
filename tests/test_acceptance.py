"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line so a -s run shows the whole gate at a
glance. Criterion 3 carries a documented defect: the golden witness
recorded for p=31 is provably not a connection polynomial of the sequence
(see the matching strict-xfail test); the other five golden witnesses
verify exactly.
"""

import time

import pytest

from cyclo4.lfsr import brute_force_minimal, reeds_sloane, theorem_lc, verify_connection
from cyclo4.primes import odd_primes
from cyclo4.sequence import generate_sequence
from cyclo4.verify import CheckStatus, full_report

GOLDEN_SEQUENCES = {
    3: (0, 0, 2, 2, 3, 1),
    5: (0, 0, 2, 1, 3, 2, 3, 1, 2, 0),
    7: (0, 0, 2, 1, 2, 1, 3, 2, 2, 0, 3, 0, 3, 1),
}

GOLDEN_LC = {3: 5, 5: 10, 7: 4, 17: 18, 31: 31, 41: 22}

# Golden connection polynomials, constant term first.
GOLDEN_WITNESSES = {
    3: [1, 1, 1, 1, 1, 1],
    5: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3],
    7: [1, 0, 1, 1, 3],
    17: [1, 1] + [0] * 15 + [3, 3],
    31: [1] + [0] * 30 + [3],
    41: [1, 0, 2, 3, 0, 2, 2, 3, 3, 3, 1, 2, 3, 1, 1, 1, 2, 2, 0, 1, 2, 0, 3],
}


def report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_golden_sequences():
    generate_sequence(3)  # warm caches; the criterion times the generation itself
    start = time.perf_counter()
    got = {p: generate_sequence(p).values for p in GOLDEN_SEQUENCES}
    elapsed = time.perf_counter() - start
    got = {p: tuple(values) for p, values in got.items()}
    ok = got == GOLDEN_SEQUENCES and elapsed < 1e-3
    report(1, ok, f"golden sequences p=3,5,7 exact in {elapsed * 1e6:.0f} us (< 1 ms)")


def test_criterion_2_golden_complexities():
    start = time.perf_counter()
    got = {p: reeds_sloane(generate_sequence(p)).lc for p in GOLDEN_LC}
    elapsed = time.perf_counter() - start
    ok = got == GOLDEN_LC and elapsed < 1.0
    report(2, ok, f"synthesized lc {got} in {elapsed:.2f}s (< 1 s)")


def test_criterion_3_golden_witnesses():
    valid = {p: w for p, w in GOLDEN_WITNESSES.items() if p != 31}
    ok = True
    for p, coeffs in valid.items():
        ok = ok and verify_connection(generate_sequence(p), coeffs)
        ok = ok and len(coeffs) - 1 == theorem_lc(p) and coeffs[-1] != 0
    report(
        3,
        ok,
        "golden witnesses for p=3,5,7,17,41 annihilate at the closed-form "
        "degree (the recorded p=31 witness is itself wrong; see the xfail test)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the recorded p=31 witness 1+3X^31 would force s_{u+31} = s_u, "
    "contradicting s_0=0 and s_31=2, so it cannot annihilate",
)
def test_criterion_3_recorded_p31_witness():
    ok = verify_connection(generate_sequence(31), GOLDEN_WITNESSES[31])
    if not ok:
        print("criterion 3: FAIL recorded p=31 witness does not annihilate "
              "(defective golden value; corrected witness verified below)")
    assert ok


def test_criterion_3_corrected_p31_witness():
    # the closed-form proof's own construction for p = -1 (mod 16)
    p = 31
    coeffs = [1] + [2] * (p - 1) + [1]  # (X+1)(X^p - 1)/(X - 1)
    assert verify_connection(generate_sequence(p), coeffs)
    assert len(coeffs) - 1 == theorem_lc(p)


def test_criterion_4_theorem_sweep():
    start = time.perf_counter()
    mismatches = [
        p
        for p in odd_primes(3, 499)
        if reeds_sloane(generate_sequence(p)).lc != theorem_lc(p)
    ]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 120.0
    report(
        4,
        ok,
        f"synthesis equals closed form for all 94 odd primes <= 499 "
        f"in {elapsed:.1f}s (< 120 s); mismatches: {mismatches}",
    )


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        s = generate_sequence(p)
        brute = brute_force_minimal(s)
        synth = reeds_sloane(s)
        ok = ok and brute.lc == synth.lc
        ok = ok and verify_connection(s, brute.connection)
        ok = ok and verify_connection(s, synth.connection)
    elapsed = time.perf_counter() - start
    report(5, ok, f"brute force agrees with synthesis for p=3,5,7 in {elapsed:.1f}s (< 30 s)")


def test_criterion_6_lemma_suite():
    wanted = {"lemma3", "lemma5", "lemma6", "lemma7", "lemma8"}
    start = time.perf_counter()
    failures = []
    coverage = {}
    for p in odd_primes(3, 199):
        rep = full_report(p, only=wanted)
        for check in rep.checks:
            if check.status is CheckStatus.FAIL:
                failures.append((p, check.check_id))
        coverage.setdefault(p % 16, 0)
        coverage[p % 16] += 1
    elapsed = time.perf_counter() - start
    classes_ok = set(coverage) == {1, 3, 5, 7, 9, 11, 13, 15} and all(
        n >= 2 for n in coverage.values()
    )
    ok = not failures and classes_ok and elapsed < 60.0
    report(
        6,
        ok,
        f"class, count, quadratic, value and spectrum checks pass for all odd "
        f"p <= 199 (every class mod 16 covered >= 2x) in {elapsed:.1f}s (< 60 s); "
        f"failures: {failures}",
    )


def test_criterion_7_factorizations():
    failures = []
    skipped_nine = 0
    for p in odd_primes(3, 61):
        rep = full_report(p, only={"factorization", "lemma9"})
        by_id = {c.check_id: c for c in rep.checks}
        if by_id["factorization"].status is not CheckStatus.PASS:
            failures.append((p, "factorization"))
        if p % 8 in (1, 7):
            if by_id["lemma9"].status is not CheckStatus.PASS:
                failures.append((p, "lemma9"))
        else:
            if by_id["lemma9"].status is not CheckStatus.SKIP:
                failures.append((p, "lemma9-should-skip"))
            skipped_nine += 1
    ok = not failures
    report(
        7,
        ok,
        f"(X+1)G0G1 = X^p+1 and (X-1)L0L1 = X^p-1 exactly for all odd p <= 61; "
        f"integrality holds for p = +-1 (mod 8) and is skipped {skipped_nine}x "
        f"otherwise; failures: {failures}",
    )


def test_criterion_8_zero_divisor_regression():
    failures = []
    for p in (3, 5, 7, 17):
        rep = full_report(p, only={"roots"})
        if rep.checks[0].status is not CheckStatus.PASS:
            failures.append(p)
    ok = not failures
    report(
        8,
        ok,
        "X^2p - 1 + 2(X^p + 1) vanishes at every gamma^j yet is not divisible "
        f"by X^2p - 1; failures: {failures}",
    )
