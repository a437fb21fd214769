"""Tests of the benchmark's own code: every output check accepts what cyclo4
prints today and rejects a corrupted copy; the strata hold what they claim;
the tracer's self times add up; BENCHMARK.json names what run.py prints.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import pytest

import checks
import run
import tracer
import workload
from checks import CheckFailed
from cyclo4 import cli, galois
from cyclo4.sequence import generate_sequence


def cli_output(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def ring_output(p: int):
    ring = galois.construct_ring(p)
    beta, gamma = galois.find_gamma(ring, p)
    return [c.value for c in ring.modulus.coeffs], list(beta.coords), list(gamma.coords)


# --- references ------------------------------------------------------------------


def test_sieve_and_ord2():
    assert checks.sieve(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [checks.ord2(p) for p in (3, 7, 31, 73, 293, 719)] == [2, 3, 5, 9, 292, 359]


@pytest.mark.parametrize("p", [3, 5, 7, 17, 31, 41, 97, 293])
def test_period_from_euler_criterion_matches_the_package(p):
    assert checks.period(p) == list(generate_sequence(p).values)


def test_lc_table_golden_values():
    # the six golden complexities for p in {3, 5, 7, 17, 31, 41}
    assert [checks.lc_formula(p) for p in (3, 5, 7, 17, 31, 41)] == [5, 10, 4, 18, 31, 22]


def test_ben_or_irreducible():
    assert checks.ben_or_irreducible(0b1011)  # X^3 + X + 1
    assert not checks.ben_or_irreducible(0b1001)  # X^3 + 1 = (X + 1)(X^2 + X + 1)
    assert not checks.ben_or_irreducible(0b10101)  # (X^2 + X + 1)^2


# --- verify ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [17, 29, 67])
def test_verify_check_accepts_real_output(p):
    checks.check_verify(p, *cli_output("verify", "--p", str(p)))


def test_verify_check_rejects_a_fail_line():
    code, text = cli_output("verify", "--p", "17")
    with pytest.raises(CheckFailed, match="lemma6 is FAIL"):
        checks.check_verify(17, code, text.replace("lemma6 PASS", "lemma6 FAIL"))


def test_verify_check_rejects_a_flipped_lc():
    code, text = cli_output("verify", "--p", "17")
    assert "lc = 18 = closed form" in text
    with pytest.raises(CheckFailed, match="theorem states lc 19"):
        checks.check_verify(17, code, text.replace("lc = 18", "lc = 19"))


def test_verify_check_rejects_a_wrong_skip_and_a_missing_line():
    code, text = cli_output("verify", "--p", "29")  # 29 = 5 mod 8: lemma9 skips
    with pytest.raises(CheckFailed, match="lemma9 is PASS"):
        checks.check_verify(29, code, text.replace("lemma9 SKIP", "lemma9 PASS"))
    dropped = "\n".join(line for line in text.split("\n") if not line.startswith("roots"))
    with pytest.raises(CheckFailed, match="printed checks"):
        checks.check_verify(29, code, dropped)


# --- sweep, lc, seq ------------------------------------------------------------------


def test_sweep_check_accepts_real_output_and_drops_elapsed_ms():
    stable = checks.check_sweep(3, 61, *cli_output("sweep", "--from", "3", "--to", "61"))
    assert stable[0] == "3,3 mod 8,2,5,5,true"


def test_sweep_check_rejects_a_flipped_lc_and_a_missing_prime():
    code, text = cli_output("sweep", "--from", "3", "--to", "61")
    flipped = text.replace("41,9 mod 16,20,22,22,", "41,9 mod 16,20,22,23,")
    assert flipped != text
    with pytest.raises(CheckFailed, match="p=41: lc_reeds_sloane 23"):
        checks.check_sweep(3, 61, code, flipped)
    dropped = "\n".join(line for line in text.split("\n") if not line.startswith("43,"))
    with pytest.raises(CheckFailed, match="cover"):
        checks.check_sweep(3, 61, code, dropped)


@pytest.mark.parametrize("p", [3, 31, 37, 41])
def test_lc_and_seq_checks_accept_real_output(p):
    checks.check_lc_json(p, *cli_output("lc", "--p", str(p), "--format", "json"))
    checks.check_seq_json(p, *cli_output("seq", "--p", str(p), "--format", "json"))


def test_lc_check_rejects_a_flipped_lc_and_a_broken_connection():
    code, text = cli_output("lc", "--p", "41", "--format", "json")
    obj = json.loads(text)
    with pytest.raises(CheckFailed, match="the table gives 22"):
        checks.check_lc_json(41, code, json.dumps({**obj, "lc": obj["lc"] + 1}))
    broken = list(obj["connection"])
    broken[1] = (broken[1] + 1) % 4
    with pytest.raises(CheckFailed, match="does not annihilate"):
        checks.check_lc_json(41, code, json.dumps({**obj, "connection": broken}))


def test_seq_check_rejects_a_changed_value():
    code, text = cli_output("seq", "--p", "17", "--format", "json")
    values = json.loads(text)
    values[1] = (values[1] + 1) % 4
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_seq_json(17, code, json.dumps(values))


# --- rings ------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 7, 31, 73])
def test_ring_check_accepts_real_output(p):
    checks.check_ring(p, *ring_output(p))


def test_ring_check_rejects_a_reducible_modulus():
    # the Graeffe lift of X^3 + 1 = (X + 1)(X^2 + X + 1): every other
    # property holds, only irreducibility mod 2 fails
    _, beta, gamma = ring_output(7)
    lift = checks.poly_mul([1, 0, 0, 1], [1, 0, 0, -1 % 4])
    modulus = [(-c) % 4 for c in lift[::2]]
    assert modulus[-1] == 1
    with pytest.raises(CheckFailed, match="reducible mod 2"):
        checks.check_ring(7, modulus, beta, gamma)


def test_ring_check_rejects_a_wrong_lift_and_wrong_units():
    modulus, beta, gamma = ring_output(31)
    bad = list(modulus)
    bad[0] = (bad[0] + 2) % 4  # same reduction mod 2, no longer the Graeffe lift
    with pytest.raises(CheckFailed, match="h\\(-X\\)"):
        checks.check_ring(31, bad, beta, gamma)
    with pytest.raises(CheckFailed, match="beta\\^p != 1"):
        checks.check_ring(31, modulus, gamma, [3 * c % 4 for c in gamma])
    with pytest.raises(CheckFailed, match="gamma != 3\\*beta"):
        checks.check_ring(31, modulus, beta, beta)


# --- workloads ----------------------------------------------------------------------


def test_verify_strata_hold_what_their_labels_say():
    primes = set(checks.sieve(499))
    drawn = [p for _, stratum in workload.VERIFY_STRATA for p in stratum]
    assert set(drawn) <= primes
    assert any(p <= 61 for p in drawn) and any(checks.ord2(p) >= 290 for p in drawn)
    all_classes = {checks.class_label(p) for p in (3, 5, 17, 31, 41, 23)}
    for seed in range(10):
        assert {checks.class_label(p) for p in workload.draw("verify", seed)} == all_classes


def test_rings_primes_are_primes_above_499_with_r_in_band():
    for _, stratum in workload.RINGS_STRATA:
        for p in stratum:
            assert p > 499 and p in checks.sieve(p) and 240 <= checks.ord2(p) <= 400


def test_draw_is_a_function_of_workload_and_seed():
    for name in ("verify", "sweep", "rings"):
        assert workload.draw(name, 7) == workload.draw(name, 7)
    assert len({tuple(workload.draw("verify", s)) for s in range(20)}) > 1


@pytest.mark.parametrize("start", workload.SWEEP_STARTS)
def test_sweep_chunks_tile_the_range(start):
    chunks = workload.sweep_chunks(start, workload.SWEEP_STOP)
    assert chunks[0][0] == start and chunks[-1][1] == workload.SWEEP_STOP
    covered = [q for lo, hi in chunks for q in checks.sieve(hi) if q >= lo]
    assert covered == [q for q in checks.sieve(workload.SWEEP_STOP) if q >= start]
    sizes = [len([q for q in checks.sieve(hi) if q >= lo]) for lo, hi in chunks]
    half = workload.SWEEP_CHUNK // 2
    assert half <= sizes[-1] < workload.SWEEP_CHUNK + half
    assert set(sizes[:-1]) == {workload.SWEEP_CHUNK}


# --- calibration ------------------------------------------------------------------------


def test_scale_divides_out_the_loop_time():
    import calibrate

    ref = calibrate.REF_S
    assert calibrate.scale(2.0, [ref] * 3) == pytest.approx(2.0)
    # the mean of the loop times, the fastest and slowest tenth left out
    loops = [ref * 2] * 8 + [ref * 10, ref / 10]
    assert calibrate.scale(2.0, loops) == pytest.approx(1.0)
    assert calibrate.scale(3.0, [ref, ref * 2]) == pytest.approx(2.0)
    assert calibrate.scale(2.0, [ref * 4] * 3, sensitivity=0.5) == pytest.approx(1.0)
    assert calibrate.kernel() == calibrate.kernel()


def test_job_seconds_sums_per_operation_means():
    import calibrate

    loops = [calibrate.REF_S] * 4
    rounds = [
        {"ops": [[7, 1.0], [11, 5.0]], "loops": loops},
        {"ops": [[7, 3.0], [11, 6.0]], "loops": loops},
        {"ops": [[7, 2.0]], "loops": loops},  # operation 11 failed
    ]
    assert workload.job_seconds(rounds, 1.0) == pytest.approx(2.0 + 5.5)
    for r in rounds:
        r["loops"] = [calibrate.REF_S / 2] * 4
    assert workload.job_seconds(rounds) == pytest.approx(7.5)
    assert workload.job_seconds(rounds, 1.0) == pytest.approx(15.0)
    assert workload.job_seconds(rounds, 0.5) == pytest.approx(7.5 * 2**0.5)


# --- tracer and BENCHMARK.json ---------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_it():
    from cyclo4 import verify

    originals = (galois.construct_ring, verify.construct_ring, cli.full_report)
    assert originals[0] is originals[1]
    t = tracer.Tracer()
    t.install()
    try:
        assert galois.construct_ring is not originals[0]
        assert verify.construct_ring is galois.construct_ring
        assert cli.full_report is not originals[2]
        cli_output("verify", "--p", "7")
    finally:
        t.uninstall()
    assert (galois.construct_ring, verify.construct_ring, cli.full_report) == originals
    layers = t.take_round()
    assert layers["cli.main"][0] == 1 and layers["verify.full_report"][0] == 1
    assert layers["galois.mul"][0] > 0 and layers["verify.check_theorem"][0] == 1
    assert all(self_s >= 0 for _, self_s in layers.values())


def test_self_time_excludes_children():
    t = tracer.Tracer({})
    inner = t._wrap("inner", lambda: time.sleep(0.02))
    outer = t._wrap("outer", lambda: (inner(), time.sleep(0.01)))
    outer()
    layers = t.take_round()
    assert layers["inner"][1] >= 0.02
    assert 0.01 <= layers["outer"][1] < 0.02


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["verify", "sweep", "rings"]
    layers = {name.rsplit("_", 1)[0] for name in run.PER_LAYER} - {"trace.overhead"}
    assert layers <= set(tracer.TRACED)
