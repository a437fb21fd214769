"""Benchmark entry point; run from the root of a cyclo4 checkout.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

With --trace 0 the last stdout line reports the end-to-end metrics job_s,
setup_s and peak_rss_mb; with --trace 1 it reports the per-layer metrics
of a traced run and the tracing overhead. The full record of the run goes
to .perfbench/<workload>-seed<n>-trace<t>.json. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh interpreters timed per run, half before and half after the workload
# so that the median spans the run, after one untimed warm-up that also
# writes the bytecode caches.
SETUP_PROBES = 10
TIME_LIMIT_S = 170

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "galois.construct_ring_s", "galois.lift_irreducible_s", "galois.find_gamma_s",
    "galois.powers_of_s", "galois.mul_calls", "galois.mul_s", "galois.pow_calls",
    "f2.lex_smallest_irreducible_s", "f2.is_irreducible_calls", "f2.is_irreducible_s",
    "verify.full_report_s", "verify.normalize_gamma_s", "verify.check_gamma_s",
    "verify.check_lemma3_s", "verify.check_lemma5_s", "verify.check_lemma6_s",
    "verify.check_lemma7_s", "verify.check_lemma4_lemma8_s", "verify.check_factorizations_s",
    "verify.check_roots_guard_s", "verify.check_theorem_s",
    "lfsr.reeds_sloane_s", "lfsr.minimal_connection_s", "lfsr.verify_connection_s",
    "ringpoly.mul_calls", "ringpoly.mul_s", "ringpoly.divmod_s", "ringpoly.evaluate_s",
    "cyclotomy.build_classes_s", "sequence.generate_sequence_s", "cli.main_s",
    "trace.overhead_ratio",
)

# Prints the import's wall time and the same in reference seconds, scaled by
# the calibration loop run twice after it (after one untimed run).
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import cyclo4\n"
    "from cyclo4.cli import build_parser\n"
    "build_parser()\n"
    "seconds = time.perf_counter() - t0\n"
    "sys.path.append(sys.argv[1])\n"
    "import calibrate\n"
    "calibrate.kernel()\n"
    "loops = [calibrate.measure(), calibrate.measure()]\n"
    "print(seconds, calibrate.scale(seconds, loops))\n"
)


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CYCLO4_EXPANSION_CAP", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_child(argv: list[str], env: dict[str, str], deadline: float) -> str:
    """Run a child interpreter to its end; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_probe(env: dict[str, str], deadline: float) -> tuple[float, float]:
    """(wall seconds, reference seconds) of one fresh interpreter's import."""
    seconds, scaled = run_child(["-c", SETUP_PROBE, str(HERE)], env, deadline).split()
    return float(seconds), float(scaled)


def layer_metrics(report: dict) -> dict[str, dict]:
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            metrics[name] = {"value": report["overhead_ratio"], "unit": "ratio"}
            continue
        layer, kind = name.rsplit("_", 1)
        entry = report["layers"][layer]
        if kind == "calls":
            metrics[name] = {"value": entry["calls"], "unit": "count"}
        else:
            metrics[name] = {"value": entry["self_s"], "unit": "s"}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "sweep", "rings"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cyclo4" / "__init__.py").is_file():
        print(f"error: no cyclo4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = pinned_env()
    try:
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup = [setup_probe(env, deadline) for _ in range(probes + 1)]
        report = json.loads(run_child(
            [str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline,
        ))
        setup = setup[1:] + [setup_probe(env, deadline) for _ in range(probes)]
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(report)
    else:
        report["setup_probes_s"] = setup
        values = {"job_s": report["job_s"], "setup_s": statistics.median(s for _, s in setup),
                  "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"metrics": metrics, "report": report}, indent=1) + "\n")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
