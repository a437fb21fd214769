"""Command-line front end: classes, seq, lc, verify, sweep.

Exit codes: 0 success, 1 invalid input, 2 verification failure,
3 internal error. Machine-readable output is deterministic apart from
the wall-clock ``elapsed_ms`` column of ``sweep``: JSON is emitted with
sorted keys and no other floating point or timing, CSV with a fixed
header, so identical inputs produce files that agree byte for byte in
every other column.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .cyclotomy import build_classes
from .lfsr import brute_force_minimal, classify_prime, reeds_sloane, theorem_lc
from .galois import ord2_mod_p
from .primes import odd_primes
from .sequence import generate_sequence
from .verify import CHECK_TOKENS, full_report

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_INTERNAL = 3

BRUTE_FORCE_LIMIT = 7

CSV_HEADER = "p,residue_class,r,lc_theorem,lc_reeds_sloane,match,elapsed_ms"


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_classes(args) -> int:
    c = build_classes(args.p)
    blocks = {name: sorted(block) for name, block in c.blocks.items()}
    if args.format == "json":
        sys.stdout.write(_emit_json({"p": c.p, "g": c.g, **blocks}))
    else:
        print(f"p = {c.p}")
        print(f"g = {c.g}")
        for name, block in blocks.items():
            print(f"{name} = {block}")
    return EXIT_OK


def cmd_seq(args) -> int:
    s = generate_sequence(args.p)
    if args.format == "json":
        sys.stdout.write(_emit_json(list(s.values)))
    else:
        print(s.text())
    return EXIT_OK


def cmd_lc(args) -> int:
    p = args.p
    if args.method == "theorem":
        lc, connection = theorem_lc(p), None
    else:
        s = generate_sequence(p)
        if args.method == "brute":
            if p > BRUTE_FORCE_LIMIT and not args.force:
                raise ValueError(
                    f"brute-force search is exponential; p > {BRUTE_FORCE_LIMIT} "
                    "needs --force"
                )
            result = brute_force_minimal(s)
        else:
            result = reeds_sloane(s)
        lc, connection = result.lc, list(result.connection)
    if args.format == "json":
        obj = {"p": p, "method": args.method, "lc": lc}
        if connection is not None:
            obj["connection"] = connection
        sys.stdout.write(_emit_json(obj))
    else:
        print(f"lc = {lc}")
        if connection is not None:
            print(f"connection = {connection}")
    return EXIT_OK


def cmd_verify(args) -> int:
    only = None
    if args.lemmas is not None:
        only = set()
        for token in args.lemmas.split(","):
            token = token.strip()
            if token not in CHECK_TOKENS:
                raise ValueError(
                    f"unknown check {token!r}; valid: "
                    + ", ".join(sorted(set(CHECK_TOKENS)))
                )
            only.add(CHECK_TOKENS[token])
    report = full_report(args.p, only=only)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    if not 3 <= args.start <= args.stop:
        raise ValueError("need 3 <= from <= to")
    records = []
    for p in odd_primes(args.start, args.stop):
        s = generate_sequence(p)
        t0 = time.perf_counter()
        lc_rs = reeds_sloane(s).lc
        elapsed_ms = int(round((time.perf_counter() - t0) * 1000))
        lc_thm = theorem_lc(p)
        records.append(
            {
                "p": p,
                "residue_class": classify_prime(p).value,
                "r": ord2_mod_p(p),
                "lc_theorem": lc_thm,
                "lc_reeds_sloane": lc_rs,
                "match": lc_thm == lc_rs,
                "elapsed_ms": elapsed_ms,
            }
        )
    mismatches = sum(1 for rec in records if not rec["match"])
    if args.format == "json":
        payload = _emit_json(
            {"records": records, "summary": {"primes": len(records), "mismatches": mismatches}}
        )
    else:
        lines = [CSV_HEADER]
        for rec in records:
            lines.append(
                f"{rec['p']},{rec['residue_class']},{rec['r']},{rec['lc_theorem']},"
                f"{rec['lc_reeds_sloane']},{'true' if rec['match'] else 'false'},"
                f"{rec['elapsed_ms']}"
            )
        payload = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(payload)
    print(f"{len(records)} primes, {mismatches} mismatches", file=sys.stderr)
    return EXIT_OK if mismatches == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclo4",
        description="Period-2p quaternary sequences over Z4: generation, "
        "linear complexity, and algebraic verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_p(sp):
        sp.add_argument("--p", type=int, required=True, help="odd prime")

    sp = sub.add_parser("classes", help="the cyclotomic classes mod 2p")
    add_p(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_classes)

    sp = sub.add_parser("seq", help="one period of the sequence")
    add_p(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_seq)

    sp = sub.add_parser("lc", help="linear complexity of the sequence")
    add_p(sp)
    sp.add_argument(
        "--method", choices=("reeds-sloane", "brute", "theorem"), default="reeds-sloane"
    )
    sp.add_argument("--force", action="store_true", help="allow large brute-force runs")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_lc)

    sp = sub.add_parser("verify", help="run the algebraic checks")
    add_p(sp)
    sp.add_argument(
        "--lemmas",
        help="comma-separated check filter (numbers like 6,7 or names like roots)",
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="compare synthesis with the closed form")
    sp.add_argument("--from", dest="start", type=int, required=True)
    sp.add_argument("--to", dest="stop", type=int, required=True)
    sp.add_argument("--out", help="output file (stdout if omitted)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that code means verification
        # failure here, so fold bad usage into the invalid-input code
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # noqa: BLE001 - map anything unexpected to exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
