"""One workload in one interpreter: draw the inputs, time rounds, check outputs.

Started by run.py with the environment pinned (one BLAS thread, a fixed
hash seed, cyclo4 importable from the checkout's src/). Prints one JSON
object on its last stdout line.

A round runs the workload's fixed job once. Before every operation the
lru caches of construct_ring, powers_of and lex_smallest_irreducible are
cleared, because a cyclo4 command-line user pays ring construction on
every call; the garbage collector runs between rounds, outside the timer.
The calibration loop runs before the first operation of a round and after
every operation, outside the operations' timers. job_s is the sum over the
operations of a round of each operation's mean wall time, scaled to
reference seconds by the mean time of the loop over the same rounds and
the workload's sensitivity to it (see calibrate.py).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time

import calibrate
import checks
import tracer
from cyclo4 import cli, f2, galois

# lru-cached originals, kept before any tracer wraps them
CACHED = (galois.construct_ring, galois.powers_of, f2.lex_smallest_irreducible)

# Each workload draws one prime per stratum with random.Random(f"{name}:{seed}").
# Primes in one stratum cost about the same, so the seed changes which primes
# run but hardly the work in a round. See README.md for the make-up.
VERIFY_STRATA = (
    ("p <= 31, p = +-1 mod 8: factorization and lemma9 run", (17, 23, 31)),
    ("p <= 61, p = +-3 mod 8, r 58-60: factorization runs, lemma9 skips", (59, 61)),
    ("1 mod 16, r 28-48", (97, 113)),
    ("9 mod 16, r 29-68", (137, 233)),
    ("15 mod 16, r 7-39", (79, 127)),
    ("7 mod 16, r 15-51", (103, 151)),
    ("3 mod 8, r 50-138", (131, 139, 251)),
    ("5 mod 8, r >= 290", (293,)),
)
RINGS_STRATA = (
    ("r 260-303, 1-27 candidates before the first irreducible", (521, 607)),
    ("r 244-375, 6-106 candidates", (733, 739, 751)),
    ("r 284-299, 44-89 candidates", (569, 599)),
    ("r 359, 90 candidates", (719,)),
)
SWEEP_STARTS = (503, 509, 521, 523, 541)
SWEEP_STOP = 1000
# The swept range runs as consecutive `sweep` calls of this many primes, so
# that a round has about ten operations of about a second each.
SWEEP_CHUNK = 8
# Slope of log round time over log calibration-loop time, fitted over 15-20
# runs of each workload on the reference VM: 0.64 (verify), 0.94 (sweep)
# and 0.93 (rings). sweep and rings move with the loop, verify moves less.
SENSITIVITY = {"verify": 0.64, "sweep": 1.0, "rings": 1.0}
LC_SAMPLE = 3  # primes of the swept range whose `lc` and `seq` output is checked
# a traced run alternates untraced and traced rounds, two of each at least
MIN_ROUNDS = {0: 3, 1: 4}


def draw(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return [rng.choice(primes) for _, primes in VERIFY_STRATA]
    if workload == "rings":
        return [rng.choice(primes) for _, primes in RINGS_STRATA]
    if workload == "sweep":
        start = rng.choice(SWEEP_STARTS)
        return [start, SWEEP_STOP]
    raise ValueError(f"unknown workload {workload!r}")


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


def ring_op(p: int) -> tuple[int, tuple, float]:
    t0 = time.perf_counter()
    ring = galois.construct_ring(p)
    beta, gamma = galois.find_gamma(ring, p)
    elapsed = time.perf_counter() - t0
    modulus = [c.value for c in ring.modulus.coeffs]
    return 0, (modulus, list(beta.coords), list(gamma.coords)), elapsed


def sweep_chunks(start: int, stop: int) -> list[tuple[int, int]]:
    """[start, stop] as consecutive ranges of SWEEP_CHUNK primes each."""
    primes = [q for q in checks.sieve(stop) if q >= start]
    groups = [primes[i : i + SWEEP_CHUNK] for i in range(0, len(primes), SWEEP_CHUNK)]
    if len(groups) > 1 and len(groups[-1]) < SWEEP_CHUNK // 2:
        groups[-2:] = [groups[-2] + groups[-1]]
    bounds = [(group[0], group[-1]) for group in groups]
    bounds[0] = (start, bounds[0][1])
    bounds[-1] = (bounds[-1][0], stop)
    return bounds


def operations(workload: str, inputs: list[int]):
    """[(label, thunk)]: one thunk per operation of a round."""
    if workload == "verify":
        return [(p, lambda p=p: run_cli(["verify", "--p", str(p)])) for p in inputs]
    if workload == "sweep":
        return [((lo, hi), lambda lo=lo, hi=hi: run_cli(["sweep", "--from", str(lo), "--to", str(hi)]))
                for lo, hi in sweep_chunks(*inputs)]
    return [(p, lambda p=p: ring_op(p)) for p in inputs]


def check_output(workload: str, label, code: int, output) -> object:
    """Raise CheckFailed if wrong; return the part that must repeat exactly."""
    if workload == "verify":
        checks.check_verify(label, code, output)
        return output
    if workload == "sweep":
        return checks.check_sweep(*label, code, output)
    checks.check_ring(label, *output)
    return output


def check_lc_sample(workload: str, seed: int, inputs: list[int]) -> None:
    """`lc --format json` and `seq --format json` on primes of the swept range."""
    start, stop = inputs
    in_range = [q for q in checks.sieve(stop) if q >= start]
    for p in random.Random(f"{workload}:{seed}:lc").sample(in_range, LC_SAMPLE):
        code, text, _ = run_cli(["lc", "--p", str(p), "--format", "json"])
        checks.check_lc_json(p, code, text)
        code, text, _ = run_cli(["seq", "--p", str(p), "--format", "json"])
        checks.check_seq_json(p, code, text)


def run_round(ops) -> tuple[list, list[float], int]:
    """Run one round; return ([(label, code, output, seconds)], loop seconds,
    failed). An operation that failed has no entry."""
    gc.collect()
    results, failed = [], 0
    loops = [calibrate.measure()]
    for label, thunk in ops:
        for cached in CACHED:
            cached.cache_clear()
        try:
            code, output, elapsed = thunk()
        except Exception as exc:  # noqa: BLE001 - an operation that raises counts as failed
            print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
        else:
            if code in (cli.EXIT_INVALID, cli.EXIT_INTERNAL):
                failed += 1
            else:
                results.append((label, code, output, elapsed))
        loops.append(calibrate.measure())
    return results, loops, failed


def job_seconds(rounds: list[dict], sensitivity: float | None = None) -> float:
    """Sum over the operations of a round of each one's mean wall time
    (labels are distinct within a round); in reference seconds unless the
    sensitivity is None.

    A mean, not a median: an operation's time, like the calibration loop's,
    follows the mix of fast and slow phases it ran in, and means of the
    two follow that mix alike where medians jump between phases.
    """
    per_op: dict[str, list[float]] = {}
    for r in rounds:
        for label, elapsed in r["ops"]:
            per_op.setdefault(str(label), []).append(elapsed)
    seconds = sum(statistics.mean(times) for times in per_op.values())
    if sensitivity is None:
        return seconds
    loops = [loop for r in rounds for loop in r["loops"]]
    return calibrate.scale(seconds, loops, sensitivity)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("verify", "sweep", "rings"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    inputs = draw(args.workload, args.seed)
    ops = operations(args.workload, inputs)
    sensitivity = SENSITIVITY[args.workload]
    trace = tracer.Tracer() if args.trace else None
    rounds: list[dict] = []
    attempted = failed = 0
    reference = None
    problems: list[str] = []
    began = time.perf_counter()
    longest = 0.0
    # start a round only if one as long as the longest so far ends in time
    while (len(rounds) < MIN_ROUNDS[args.trace]
           or time.perf_counter() - began + longest <= args.seconds):
        traced = trace is not None and len(rounds) % 2 == 1
        if traced:
            trace.install()
        start = time.perf_counter()
        try:
            results, loops, round_failed = run_round(ops)
        finally:
            if traced:
                trace.uninstall()
        longest = max(longest, time.perf_counter() - start)
        attempted += len(ops)
        failed += round_failed
        record = {"traced": traced, "loops": loops,
                  "ops": [[label, elapsed] for label, _, _, elapsed in results]}
        if traced:
            record["layers"] = trace.take_round()
        rounds.append(record)
        # outputs are checked after the round, outside its timer
        try:
            stable = [(label, check_output(args.workload, label, code, output))
                      for label, code, output, _ in results]
            if reference is None:
                reference = stable
            elif stable != reference:
                raise checks.CheckFailed("round output differs from the first round's")
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    if args.workload == "sweep":
        try:
            check_lc_sample(args.workload, args.seed, inputs)
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    untraced = [r for r in rounds if not r["traced"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": inputs,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "job_s": job_seconds(untraced, sensitivity),
        "job_wall_s": job_seconds(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds": rounds,
    }
    if trace is not None:
        traced_rounds = [r for r in rounds if r["traced"]]
        report["overhead_ratio"] = job_seconds(traced_rounds, sensitivity) / report["job_s"]
        report["layers"] = {
            name: {
                "calls": statistics.median_low(r["layers"].get(name, (0, 0.0))[0] for r in traced_rounds),
                "self_s": statistics.median(r["layers"].get(name, (0, 0.0))[1] for r in traced_rounds),
            }
            for name in tracer.TRACED
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
