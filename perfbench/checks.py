"""Output checks for the benchmark, written without the package's code.

Each ``check_*`` function takes what a cyclo4 entry point returned and
raises ``CheckFailed`` on the first way it is wrong. The reference values
come from first principles: a prime sieve, the order of 2 mod p, the
period built from Euler's criterion, the closed-form table of the paper's
abstract, and schoolbook arithmetic in Z4[X]/(f). None of it runs inside
a timed region.
"""

from __future__ import annotations

import json
import re


class CheckFailed(Exception):
    """An output disagrees with its independently computed reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- (1) primes and the order of 2 ----------------------------------------


def sieve(limit: int) -> list[int]:
    """All primes <= limit, by the sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(range(q * q, limit + 1, q)))
    return [n for n in range(limit + 1) if flags[n]]


def ord2(p: int) -> int:
    """The least r >= 1 with 2**r = 1 mod p."""
    r, t = 1, 2 % p
    while t != 1:
        t, r = t * 2 % p, r + 1
    return r


# --- (2) the period, from its definition -----------------------------------


def period(p: int) -> list[int]:
    """One period of the sequence, from Euler's criterion.

    u is in D0 iff u is odd, u != p and u mod p is a square mod p; D1 holds
    the other odd u != p; E0 = 2*D0 and E1 = 2*D1 mod 2p. The sequence is
    0 on {0} and D0, 1 on D1, 2 on {p} and E0, 3 on E1.
    """
    n = 2 * p
    d0 = {u for u in range(1, n, 2) if u != p and pow(u % p, (p - 1) // 2, p) == 1}
    d1 = {u for u in range(1, n, 2) if u != p} - d0
    values = [0] * n
    values[p] = 2
    for u in d1:
        values[u] = 1
    for u in d0:
        values[2 * u % n] = 2
    for u in d1:
        values[2 * u % n] = 3
    return values


# --- (3) the abstract's table -----------------------------------------------


def lc_formula(p: int) -> int:
    """Linear complexity by the residue of p mod 8 and mod 16."""
    if p % 8 == 5:
        return 2 * p
    if p % 8 == 3:
        return 2 * p - 1
    return {15: p, 1: p + 1, 7: (p + 1) // 2, 9: (p + 3) // 2}[p % 16]


def class_label(p: int) -> str:
    """The residue-class label the sweep output writes for p."""
    if p % 8 == 3:
        return "3 mod 8"
    if p % 8 == 5:
        return "5 mod 8 (-3)"
    return {1: "1 mod 16", 15: "15 mod 16 (-1)", 9: "9 mod 16", 7: "7 mod 16 (-9)"}[p % 16]


# --- verify -------------------------------------------------------------------

CHECK_IDS = (
    "gamma", "lemma3", "lemma5", "lemma6", "lemma7",
    "lemma8", "factorization", "lemma9", "roots", "theorem",
)
EXPANSION_CAP = 61


def check_verify(p: int, exit_code: int, text: str) -> None:
    """Every check passes, except the SKIPs the report promises.

    lemma9 is SKIP for p = +-3 (mod 8); factorization and lemma9 are SKIP
    above the expansion cap. The theorem line states the table's lc.
    """
    lines = text.strip().split("\n")
    ids = tuple(line.split(" ", 1)[0] for line in lines)
    require(ids == CHECK_IDS, f"p={p}: verify printed checks {ids}")
    for line in lines:
        check_id, status, detail = (line.split(" ", 2) + [""])[:3]
        skip = (check_id in ("factorization", "lemma9") and p > EXPANSION_CAP) or (
            check_id == "lemma9" and p % 8 in (3, 5)
        )
        want = "SKIP" if skip else "PASS"
        require(status == want, f"p={p}: {check_id} is {status}, expected {want}")
        if check_id == "theorem":
            m = re.fullmatch(r"lc = (\d+) = closed form", detail)
            require(m is not None, f"p={p}: theorem line reads {detail!r}")
            require(
                int(m.group(1)) == lc_formula(p),
                f"p={p}: theorem states lc {m.group(1)}, the table gives {lc_formula(p)}",
            )
    require(exit_code == 0, f"p={p}: verify exited {exit_code}")


# --- sweep and lc -----------------------------------------------------------

SWEEP_HEADER = "p,residue_class,r,lc_theorem,lc_reeds_sloane,match,elapsed_ms"


def check_sweep(start: int, stop: int, exit_code: int, text: str) -> list[str]:
    """One row per prime in [start, stop], each agreeing with the table.

    Returns the rows without their elapsed_ms column, which is the part
    of the output that must repeat exactly between runs.
    """
    lines = text.strip().split("\n")
    require(lines[0] == SWEEP_HEADER, f"sweep header reads {lines[0]!r}")
    want_primes = [q for q in sieve(stop) if q >= max(start, 3)]
    got_primes = []
    stable = []
    for line in lines[1:]:
        fields = line.split(",")
        require(len(fields) == 7, f"sweep row {line!r} has {len(fields)} fields")
        p, label, r, lc_thm, lc_rs, match, elapsed = fields
        p = int(p)
        got_primes.append(p)
        require(label == class_label(p), f"p={p}: residue class {label!r}")
        require(int(r) == ord2(p), f"p={p}: r={r}, ord2 gives {ord2(p)}")
        want = lc_formula(p)
        require(int(lc_thm) == want, f"p={p}: lc_theorem {lc_thm}, the table gives {want}")
        require(int(lc_rs) == want, f"p={p}: lc_reeds_sloane {lc_rs}, the table gives {want}")
        require(match == "true", f"p={p}: match reads {match!r}")
        require(elapsed.isdigit(), f"p={p}: elapsed_ms reads {elapsed!r}")
        stable.append(line.rsplit(",", 1)[0])
    require(got_primes == want_primes, f"sweep rows cover {len(got_primes)} primes, "
            f"the sieve gives {len(want_primes)} in [{start}, {stop}]")
    require(exit_code == 0, f"sweep exited {exit_code}")
    return stable


def annihilates(connection: list[int], values: list[int]) -> bool:
    """S(X)*C(X) = 0 mod (X**n - 1, 4), one rotation of the period per term."""
    n = len(values)
    acc = [0] * n
    for j, c in enumerate(connection):
        if c:
            shift = j % n
            rotated = values[n - shift :] + values[: n - shift]
            acc = [a + c * v for a, v in zip(acc, rotated)]
    return all(a % 4 == 0 for a in acc)


def check_lc_json(p: int, exit_code: int, text: str) -> None:
    """`lc --format json`: the table's lc and a connection that annihilates."""
    require(exit_code == 0, f"p={p}: lc exited {exit_code}")
    obj = json.loads(text)
    lc, connection = obj["lc"], obj["connection"]
    require(obj["p"] == p, f"lc output is for p={obj['p']}, not {p}")
    require(lc == lc_formula(p), f"p={p}: lc {lc}, the table gives {lc_formula(p)}")
    require(all(c in (0, 1, 2, 3) for c in connection), f"p={p}: coefficient outside Z4")
    require(connection[0] == 1, f"p={p}: connection constant term {connection[0]}")
    require(len(connection) == lc + 1 and connection[-1] != 0,
            f"p={p}: connection degree {len(connection) - 1} is not lc {lc}")
    require(annihilates(connection, period(p)),
            f"p={p}: connection does not annihilate the period")


def check_seq_json(p: int, exit_code: int, text: str) -> None:
    """`seq --format json` equals the period built from Euler's criterion."""
    require(exit_code == 0, f"p={p}: seq exited {exit_code}")
    require(json.loads(text) == period(p), f"p={p}: sequence differs from its definition")


# --- (5) schoolbook Z4[X]/(f) --------------------------------------------------


def gf2_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def gf2_mulmod(a: int, b: int, m: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a.bit_length() >= m.bit_length():
            a ^= m
    return acc


def gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def ben_or_irreducible(h: int) -> bool:
    """Ben-Or: h of degree r is irreducible over GF(2) iff
    gcd(X**(2**i) - X, h) = 1 for every 1 <= i <= r/2."""
    r = h.bit_length() - 1
    if r < 1:
        return False
    t = 2  # X
    for _ in range(r // 2):
        t = gf2_mulmod(t, t, h)
        if gf2_gcd(h, t ^ 2) != 1:
            return False
    return True


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            out[i : i + len(b)] = [x + c * y for x, y in zip(out[i : i + len(b)], b)]
    return [x % 4 for x in out]


def z4_mulmod(a: list[int], b: list[int], f: list[int]) -> list[int]:
    """a*b in Z4[X]/(f), f monic of degree r, by schoolbook multiply and
    top-down reduction."""
    r = len(f) - 1
    t = poly_mul(a, b)
    for k in range(len(t) - 1, r - 1, -1):
        c = t[k] % 4
        if c:
            t[k - r : k + 1] = [x - c * y for x, y in zip(t[k - r : k + 1], f)]
    return [x % 4 for x in t[:r]] + [0] * (r - len(t))


def z4_pow(a: list[int], n: int, f: list[int]) -> list[int]:
    result = [1] + [0] * (len(f) - 2)
    while n:
        if n & 1:
            result = z4_mulmod(result, a, f)
        n >>= 1
        if n:
            a = z4_mulmod(a, a, f)
    return result


def check_ring(p: int, modulus: list[int], beta: list[int], gamma: list[int]) -> None:
    """construct_ring and find_gamma for p.

    f is monic of degree r = ord2(p) with f mod 2 irreducible (Ben-Or),
    f(X**2) = (-1)**r * h(X) * h(-X) for h = f mod 2, beta**p = 1 != beta
    and gamma = 3*beta.
    """
    r = ord2(p)
    require(len(modulus) == r + 1, f"p={p}: modulus has degree {len(modulus) - 1}, r={r}")
    require(modulus[-1] == 1, f"p={p}: modulus is not monic")
    require(all(c in (0, 1, 2, 3) for c in modulus), f"p={p}: modulus coefficient outside Z4")
    h = sum(1 << i for i, c in enumerate(modulus) if c % 2)
    require(ben_or_irreducible(h), f"p={p}: modulus is reducible mod 2")
    bits = [(h >> i) & 1 for i in range(r + 1)]
    sign = -1 if r % 2 else 1
    graeffe = [sign * c % 4 for c in poly_mul(bits, [(-1) ** i * b for i, b in enumerate(bits)])]
    f_of_x2 = [0] * (2 * r + 1)
    f_of_x2[::2] = modulus
    require(graeffe == f_of_x2, f"p={p}: f(X^2) != (-1)^r h(X) h(-X)")
    one = [1] + [0] * (r - 1)
    require(len(beta) == r and len(gamma) == r, f"p={p}: beta or gamma has the wrong length")
    require(beta != one, f"p={p}: beta = 1")
    require(z4_pow(list(beta), p, modulus) == one, f"p={p}: beta^p != 1")
    require(list(gamma) == [3 * c % 4 for c in beta], f"p={p}: gamma != 3*beta")
