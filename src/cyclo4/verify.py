"""Mechanical checks of the algebraic identities behind the closed forms.

Every statement is tested exactly, inside GR(4**r, 4) where it lives:
class multiplication relations, the cyclotomic counts, the quadratic
satisfied by the class sum S0(gamma), its explicit values by residue
class, the evaluation spectrum of the generating polynomial at the
order-2p units, the factorizations of X**p + 1 and X**p - 1 into class
products, and the guard example showing that vanishing at every power of
gamma does not imply divisibility by X**2p - 1 over Z4. No table of the
powers of gamma is kept: the values read are Z4 combinations of four
class sums, Gauss periods read as one trace per coset of <2> or <4> mod p
from the power sums of the modulus, and the class products are never
expanded. Their statements are proved from premises on the classes,
gamma**p and one Frobenius step, each checked exactly.

A report is a list of uniform check entries so the command-line front end
can render one line per check and reflect failures in its exit status.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import mul

from .cyclotomy import CLASS_NAMES, D0, D1, E0, E1, IS_CLASS, GeneralizedCyclotomy, build_classes
from .galois import GaloisRing, GaloisRingElement, construct_ring, find_gamma
from .lfsr import reeds_sloane, theorem_lc
from .primes import require_odd_prime
from .sequence import generate_sequence

# factorization and lemma9 are proved in O(p) and need no cap; it remains
# only because verify's output, and the benchmark's output check with it,
# pin SKIP above 61. Deleting it is ROADMAP item 5, which also changes that
# benchmark check.
DEFAULT_EXPANSION_CAP = 61


class CheckStatus(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIP = "SKIP"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: CheckStatus
    detail: str

    def render(self) -> str:
        return f"{self.check_id} {self.status.value} {self.detail}"


@dataclass(frozen=True)
class LemmaReport:
    p: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status is not CheckStatus.FAIL for c in self.checks)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)


@dataclass(frozen=True)
class NormalizedGamma:
    """An order-2p unit whose class sum over D0 is a unit, with its class sums.

    When the class sum of the original gamma is not a unit, gamma is
    replaced by gamma**v for the smallest v in D1, which swaps the roles
    of the two odd classes; the exponent records the substitution.
    ``sums`` maps D0, D1, E0 and E1 to the sum of gamma**u over the class.
    """

    gamma: GaloisRingElement
    exponent: int
    sums: dict = field(repr=False)

    @property
    def s0(self) -> GaloisRingElement:
        """The class sum over D0, the unit the normalization asks for."""
        return self.sums["D0"]

    @property
    def replaced(self) -> bool:
        return self.exponent != 1


def normalize_gamma(
    ring: GaloisRing, classes: GeneralizedCyclotomy, gamma: GaloisRingElement
) -> NormalizedGamma:
    """Replace gamma by gamma**v, v in D1, if needed to make S0 a unit.

    The two class sums add to 1, so they cannot both be non-units; the
    substitution is therefore always available and deterministic. v is a
    unit mod 2p, so u -> v*u maps a class C one to one onto v*C, and the
    sums of gamma**v are those of gamma over the classes v*C.

    The raw sums (``_class_sums``) are Gauss periods, one trace per orbit
    of the Frobenius sigma, so no power table is built. They rest on
    gamma**p = -1 (``find_gamma`` makes it so and ``check_gamma`` checks
    it) and on the premises checked here:

    - Traces. Tr(x), the sum of sigma**k(x) over k < r, is Z4-linear, so
      Tr(x) = sum x_i P_i for x = sum x_i X**i, with P_i = Tr(X**i). The
      sigma**k(X) are roots of f that are distinct mod 2 (X mod 2 generates
      the residue field), so they differ by units and f is the product of
      Y - sigma**k(X); P_i is the i-th power sum of its roots. Newton's
      identities hold over any commutative ring: for f = sum c_k X**k,
      P_0 = r and P_i = -(i c_(r-i) + sum over 0 < j < i of c_(r-j) P_(i-j)),
      with no division, over the few j with c_(r-j) != 0.
    - Orbits. beta = -gamma has beta**p = 1 and p divides 2**r - 1, so beta
      is Teichmüller and sigma(beta) = beta**2 (Wan, Lectures on Finite
      Fields and Galois Rings, 2003). gamma**u = (-1)**u beta**(u mod p),
      and p + 2 keeps the parity of u and doubles u mod p, so
      sigma**k(gamma**u) = gamma**((p + 2)**k u mod 2p), where
      (p + 2)**2 = p + 4 (mod 2p). Let q = 2 for p = +-1 (mod 8) and q = 4
      otherwise. Each class is checked to be a union of orbits of
      u -> (p + q) u mod 2p of 2r/q elements each, so the orbit of u sums
      to the sum of sigma**(kq/2)(gamma**u) over k < 2r/q. For q = 2 that
      is Tr(gamma**u) = (-1)**u Tr(beta**a), a = u mod p.
    - Down to Z4[omega]. For q = 4 (2 is then a non-residue mod p, so r is
      even) it is (-1)**u T(beta**a), with T the sum of sigma**(2k) over
      k < r/2: the trace down to the ring fixed by sigma**2, GR(4**2, 4) =
      Z4 + Z4 omega. omega = ``find_gamma(ring, 3)[0]`` is checked to be a
      root of Y**2 + Y + 1, so it is Teichmüller of order 3 and
      sigma(omega) = omega**2 = -1 - omega. T is linear over that ring and
      Tr = T + sigma(T), whose values at 1, omega and omega**2 are 2, -1
      and -1. For T(x) = c0 + c1 omega, t1 = Tr(x) is 2 c0 - c1 and
      t2 = Tr(omega x) is -c0 - c1, so c0 = 3 (t1 - t2) and c1 = -c0 - t2.

    Tr is invariant under sigma and T under sigma**2, so both depend only
    on the coset of a under <q> in the units mod p: one trace (two for
    q = 4) per coset, read by the orbits of both parities over it.
    """
    omega = None
    if classes.p % 8 in (3, 5):
        omega = find_gamma(ring, 3)[0]
        if omega * omega + omega + ring.one != ring.zero:
            raise RuntimeError("internal: omega is not a root of Y^2 + Y + 1")
    sums = _class_sums(ring, classes, gamma, omega)
    if sums["D0"] + sums["D1"] != ring.one:
        raise RuntimeError("internal: class sums over D0 and D1 do not add to 1")
    if sums["D0"].is_unit():
        return NormalizedGamma(gamma=gamma, exponent=1, sums=sums)
    labels = classes.labels
    v = labels.index(D1)
    moved = {}
    for code, name in enumerate(CLASS_NAMES):
        image = labels[v * labels.index(code) % len(labels)]
        if image > E1 or _scaled(labels, code, v) != labels.translate(IS_CLASS[image]):
            raise RuntimeError(f"internal: {v}*{name} is not a class")
        moved[name] = sums[CLASS_NAMES[image]]
    if not moved["D0"].is_unit():
        raise RuntimeError("internal: neither class sum is a unit")
    return NormalizedGamma(gamma=gamma**v, exponent=v, sums=moved)


def _scaled(labels: bytes, code: int, factor: int) -> bytearray:
    """The indicator of factor*C mod 2p, for the class C coded ``code``."""
    n = len(labels)
    image = bytearray(n)
    for u in compress(range(n), labels.translate(IS_CLASS[code])):
        image[factor * u % n] = 1
    return image


def _power_sums(ring: GaloisRing) -> list[int]:
    """P_i = Tr(X**i) in 0..3 for i < r, by Newton's identities on the
    nonzero coefficients of the modulus (``normalize_gamma``)."""
    r = ring.r
    f = [c.value for c in ring.modulus.coeffs]
    terms = [(j, f[r - j]) for j in range(1, r) if f[r - j]]
    sums = [r % 4]
    for i in range(1, r):
        acc = i * f[r - i]
        for j, c in terms:
            if j >= i:
                break
            acc += c * sums[i - j]
        sums.append(-acc % 4)
    return sums


def _class_sums(
    ring: GaloisRing,
    classes: GeneralizedCyclotomy,
    gamma: GaloisRingElement,
    omega: GaloisRingElement | None,
) -> dict:
    """The sums of gamma**u over D0, D1, E0 and E1 from one trace per coset
    of <q> mod p: q = 2 where omega is None, else q = 4 and the traces go
    down to Z4[omega]. ``normalize_gamma`` has the proof and checks omega."""
    p, r, labels = classes.p, ring.r, classes.labels
    n = 2 * p
    m, size = (p + 2, r) if omega is None else (p + 4, r // 2)
    orbits = {}  # class name -> ((-1)**u, least residue mod p) per orbit
    for code, name in enumerate(CLASS_NAMES):
        reps = orbits[name] = []
        # 1 on the members not yet walked; compress reads it as it goes
        left = bytearray(labels.translate(IS_CLASS[code]))
        for u in compress(range(n), left):
            orbit, w = [u], m * u % n
            while w != u:
                orbit.append(w)
                w = m * w % n
            if len(orbit) != size or not all(left[w] for w in orbit):
                raise RuntimeError(f"internal: {name} is not a union of orbits of u -> {m}u")
            for w in orbit:
                left[w] = 0
            reps.append((-1 if u % 2 else 1, min(w % p for w in orbit)))
    power_sums = _power_sums(ring)

    def trace(x):
        return sum(map(mul, x.coords, power_sums)) % 4

    beta = -gamma
    traces, steps, x, at = {}, {}, None, 0
    for a in sorted({a for reps in orbits.values() for _, a in reps}):
        if a - at not in steps:
            steps[a - at] = beta ** (a - at)
        x = steps[a - at] if x is None else x * steps[a - at]
        at, t1 = a, trace(x)
        if omega is None:
            traces[a] = (t1, 0)
        else:
            t2 = trace(omega * x)
            c0 = 3 * (t1 - t2)
            traces[a] = (c0, -c0 - t2)
    sums = {}
    for name, reps in orbits.items():
        c0 = sum(sign * traces[a][0] for sign, a in reps) % 4
        c1 = sum(sign * traces[a][1] for sign, a in reps) % 4
        sums[name] = sum((omega,) * c1, ring.embed(c0))
    return sums


class _Workspace:
    """What the per-prime checks share, each field computed when first read."""

    def __init__(self, p: int):
        require_odd_prime(p)
        self.p = p

    classes = cached_property(lambda ws: build_classes(ws.p))
    ring = cached_property(lambda ws: construct_ring(ws.p))
    _found = cached_property(lambda ws: find_gamma(ws.ring, ws.p))  # (beta, raw gamma)
    beta = property(lambda ws: ws._found[0])
    raw_gamma = property(lambda ws: ws._found[1])
    normalized = cached_property(lambda ws: normalize_gamma(ws.ring, ws.classes, ws.raw_gamma))
    gamma = cached_property(lambda ws: ws.normalized.gamma)
    seq = cached_property(lambda ws: generate_sequence(ws.p))
    gamma_p = cached_property(lambda ws: ws.gamma**ws.p)
    factorizations = cached_property(lambda ws: check_factorizations(ws))


def check_gamma(ws: _Workspace) -> CheckResult:
    """Order facts for beta and gamma plus the distinct-power unit property.

    gamma**a - gamma**b = gamma**b (gamma**(a-b) - 1), so gamma**d - 1 must
    be a unit for all d != 0 (mod p), and d = 1 decides it. gamma**p = -1
    gives y = -gamma with y**p = 1, so y is Teichmüller (a unit is xi*(1+2a)
    and (1+2a)**p = 1+2a) of order 1 or p, and mod 2 gamma**d - 1 is
    y**d + 1, nonzero for every such d or for none. gamma**2p = 1 needs
    no product of its own: it follows from gamma**p = -1. Where the raw
    gamma is exactly -beta, beta**p is read as -(raw gamma)**p, as p is
    odd, so that an unreplaced gamma costs this check no product.
    """
    problems = []
    ring, p = ws.ring, ws.p
    raw_gamma_p = ws.gamma_p if ws.raw_gamma is ws.gamma else ws.raw_gamma**p
    opposite = ws.raw_gamma == -ws.beta
    beta_p = -raw_gamma_p if opposite else ws.beta**p
    if beta_p != ring.one or ws.beta == ring.one:
        problems.append("beta does not have order p")
    if raw_gamma_p != ring.embed(3):
        problems.append("gamma**p != -1")
    if not opposite:
        problems.append("gamma != -beta")
    if not ws.normalized.s0.is_unit():
        problems.append("normalized class sum is not a unit")
    if not (ws.gamma - ring.one).is_unit():  # where the pairwise scan first fails
        problems.append("gamma^0 - gamma^1 is not a unit")
    detail = problems[0] if problems else (
        f"beta^p=1, gamma^p=-1, gamma^2p=1, distinct powers differ by units"
        + ("" if not ws.normalized.replaced else
           f"; gamma normalized via exponent {ws.normalized.exponent}")
    )
    return CheckResult("gamma", CheckStatus.FAIL if problems else CheckStatus.PASS, detail)


def check_lemma3(classes: GeneralizedCyclotomy) -> CheckResult:
    """Multiplicative and shift relations among D0, D1, E0, E1, in O(p).

    (I) and (II) need no product sets. The walk t = g**k mod 2p for
    k = 0..p-2 must give D0 at even k and D1 at odd k, as sets, and
    g**(p-1) = 1 mod 2p. Then D_i is the set of g**k with k = i (mod 2),
    and since exponents add mod the even number p - 1, v*D_j = D_(i+j)
    for every v = g**a in D_i. With E_i = 2*D_i and 2*E_i = E_(i+eps),
    where eps = 0 for p = +-1 (mod 8) and 1 otherwise, the rest follows:
    v*E_j = 2*(v*D_j) = E_(i+j) for v in D_i, and for v = 2w in E_i
    (w in D_i) v*D_j = 2*(w*D_j) = E_(i+j) and
    v*E_j = 2*(2*(w*D_j)) = 2*E_(i+j) = E_(i+j+eps).
    Set equality matters: a walk of a non-primitive g covers only part
    of each class, so membership of its values would pass corrupted
    classes.
    """
    p, g, labels = classes.p, classes.g, classes.labels
    n = 2 * p
    pm1 = p % 8 in (1, 7)
    problems = []

    walked = bytearray(n), bytearray(n)  # 1 where reached at an even k, at an odd k
    t = 1
    for k in range(p - 1):
        walked[k % 2][t] = 1
        t = t * g % n
    inside = [labels.translate(table) for table in IS_CLASS]  # 0/1 on D0, D1, E0, E1
    for i in (0, 1):
        if walked[i] != inside[i]:
            problems.append(f"(I) {('even', 'odd')[i]} powers of g = {g} != D{i}")
    if t != 1:
        problems.append(f"(I) g^(p-1) != 1 for g = {g}")
    for i in (0, 1):
        if _scaled(labels, D0 + i, 2) != inside[2 + i]:
            problems.append(f"(II) 2*D{i} != E{i}")
        expect = i if pm1 else i + 1
        if _scaled(labels, E0 + i, 2) != inside[2 + expect % 2]:
            problems.append(f"(II) 2*E{i} != E{expect % 2}")
    rotated = labels[p:] + labels[:p]  # the code of u + p at u
    for i in (0, 1):
        j = i if pm1 else 1 - i
        if rotated.translate(IS_CLASS[2 + i]) != inside[j]:
            problems.append(f"(III) E{i}+p mismatch")
        shift_d = rotated.translate(IS_CLASS[i])
        if shift_d != inside[2 + j]:
            problems.append(f"(IV) D{i}+p mismatch")
        # the fold takes u below p up by p and u above p down: D_i + p, less p + p
        if pm1 and b"\0" + shift_d[1:] != inside[2 + i]:
            problems.append(f"(V) E{i} fold mismatch")
    parts = "I-V" if pm1 else "I-IV (V not applicable)"
    detail = problems[0] if problems else f"class relations {parts} hold"
    return CheckResult("lemma3", CheckStatus.FAIL if problems else CheckStatus.PASS, detail)


def check_lemma5(classes: GeneralizedCyclotomy) -> CheckResult:
    """Closed forms of the cyclotomic numbers [0,0] and [0,1] by p mod 8."""
    p = classes.p
    want00 = {1: (p - 5) // 4, 7: (p - 3) // 4, 5: (p - 1) // 4, 3: (p + 1) // 4}[p % 8]
    want01 = {1: (p - 1) // 4, 7: (p + 1) // 4, 5: (p - 5) // 4, 3: (p - 3) // 4}[p % 8]
    got00 = classes.cyclotomic_number(0, 0)
    got01 = classes.cyclotomic_number(0, 1)
    ok = got00 == want00 and got01 == want01
    detail = (
        f"[0,0]={got00}, [0,1]={got01} match the p={p % 8} (mod 8) closed forms"
        if ok
        else f"[0,0]={got00} (want {want00}), [0,1]={got01} (want {want01})"
    )
    return CheckResult("lemma5", CheckStatus.PASS if ok else CheckStatus.FAIL, detail)


def check_lemma6(ws: _Workspace) -> CheckResult:
    """The class sum satisfies S0**2 = S0 + c with c fixed by p mod 8.

    The constant is (p-1)/4 for p = 1, 5 (mod 8) and -(p+1)/4 for
    p = 3, 7 (mod 8), everything reduced mod 4. (For p = 7 (mod 8) the
    sign is invisible mod 4 since (p+1)/2 = 0 there; for p = 3 (mod 8)
    it matters, as the value 2 + rho of the class sum confirms.)
    """
    p = ws.p
    const = (p - 1) // 4 if p % 8 in (1, 5) else -((p + 1) // 4)
    s0 = ws.normalized.s0
    ok = s0 * s0 == s0 + ws.ring.embed(const)
    detail = (
        f"S0^2 = S0 + {const % 4} holds"
        if ok
        else f"S0^2 != S0 + {const % 4} for S0 = {s0}"
    )
    return CheckResult("lemma6", CheckStatus.PASS if ok else CheckStatus.FAIL, detail)


def check_lemma7(ws: _Workspace) -> CheckResult:
    """Explicit value of the unit class sum by the residue of p mod 16."""
    ring, s0 = ws.ring, ws.normalized.s0
    m16 = ws.p % 16
    three = ring.embed(3)
    if m16 in (1, 15):
        ok = s0 == ring.one
        want = "1"
    elif m16 in (7, 9):
        ok = s0 == three
        want = "3"
    elif m16 in (5, 11):
        ok = s0 * s0 + three * s0 + three == ring.zero
        want = "a root of r^2 + 3r + 3"
    else:
        t = s0 - ring.embed(2)
        ok = t * t + three * t + three == ring.zero
        want = "2 + a root of r^2 + 3r + 3"
    detail = f"S0 = {want} for p = {m16} (mod 16)" if ok else f"S0 = {s0}, expected {want}"
    return CheckResult("lemma7", CheckStatus.PASS if ok else CheckStatus.FAIL, detail)


def check_lemma4_lemma8(ws: _Workspace) -> CheckResult:
    """Value table of S(gamma**v) over the whole of Z_2p, in O(p).

    g is a unit mod 2p, so u -> g**2 * u permutes Z_2p, and the period
    satisfies s_(g^2 u) = s_u. Substituting w = g**2 * u gives
    S(gamma**(g^2 v)) = sum_u s_u gamma**(g^2 u v) = sum_w s_w gamma**(w v)
    = S(gamma**v). Each class is the <g**2>-orbit of its least element,
    so S is constant on it, and one value per class, at that least
    element (where the full scan would first fail), decides the table.

    As gamma**p = -1, S(1) = sum_u s_u and S(gamma**p) = sum_u (-1)**u s_u.
    Once the checks above pass and the classes partition Z_2p minus {0, p},
    s_u = s_C on each class C, and for v in a class u -> u*v maps C one to
    one onto the class T of v*min(C): both are <g**2>-orbits, of ord_p(g**2)
    elements each. So S(gamma**v) = s_0 + (-1)**v s_p plus, over the classes
    C, s_C times the class sum of T.
    """
    ring, p, classes = ws.ring, ws.p, ws.classes
    n, labels = 2 * p, classes.labels
    seq = ws.seq.values
    problems = []
    value = ring.embed(sum(seq))
    if value != ring.embed((p + 1) % 4):
        problems.append(f"S(1) = {value}, want {(p + 1) % 4}")
    value = ring.embed(sum(seq[0::2]) - sum(seq[1::2]))
    if value != ring.embed(2):
        problems.append(f"S(gamma^p) = {value}, want 2")
    g2 = classes.g * classes.g % n
    if math.gcd(g2, n) != 1:
        problems.append(f"g^2 = {g2} is not a unit mod {n}")
    bad = next((u for u in range(n) if seq[g2 * u % n] != seq[u]), None)
    if bad is not None:
        problems.append(f"s_(g^2 u) != s_u at u = {bad}")
    least = [labels.index(code) for code in (D0, D1, E0, E1)]
    for code, (name, t) in enumerate(zip(CLASS_NAMES, least)):
        # the walk keeps the code of C and does not come back within |C| steps
        for _ in range(labels.count(code) - 1):
            t = t * g2 % n
            if t == least[code] or labels[t] != code:
                problems.append(f"{name} is not the <g^2>-orbit of {least[code]}")
                break
    # the residues in no class, their codes left in order, must be 0 and p alone
    if labels.translate(None, bytes(range(E1 + 1))) != labels[:1] + labels[p : p + 1]:
        problems.append(f"D0, D1, E0, E1 do not partition Z_{n} minus 0 and p")
    if problems:
        # one value per class stands for the class only once the orbits hold
        return CheckResult("lemma8", CheckStatus.FAIL, problems[0])
    s0, sums = ws.normalized.s0, ws.normalized.sums
    values = {}
    for name, v in zip(CLASS_NAMES, least):
        terms = [sums[CLASS_NAMES[labels[v * m % n]]] for m in least for _ in range(seq[m])]
        values[name] = sum(terms, ring.embed(seq[0] + (-1) ** v * seq[p]))
    if p % 8 in (3, 5):
        two_s0 = s0 + s0
        expect = {
            "D0": ring.one - two_s0,
            "D1": two_s0 - ring.one,
            "E0": ring.embed(3),
            "E1": ring.embed(3),
        }
        for name, v in zip(CLASS_NAMES, least):
            if values[name] != expect[name]:
                problems.append(f"S(gamma^{v}) != expected on {name}")
            elif not values[name].is_unit():
                problems.append(f"S(gamma^{v}) is not a unit on {name}")
        detail_ok = "values match the p = +-3 (mod 8) table and are units"
    else:
        for name, v in zip(CLASS_NAMES, least):
            want = 2 if name == "E1" else 0
            if values[name] != ring.embed(want):
                problems.append(f"S(gamma^{v}) != {want} on {name}")
        detail_ok = "values match the p = +-1 (mod 8) table (0 off E1, 2 on E1)"
    detail = problems[0] if problems else detail_ok
    return CheckResult("lemma8", CheckStatus.FAIL if problems else CheckStatus.PASS, detail)


def check_factorizations(ws: _Workspace) -> list[CheckResult]:
    """The class-product factorizations of X**p +- 1 and, for p = +-1
    (mod 8), integrality of the products, each proved from premises checked
    here in O(p) work on the class labels and a few ring operations.

    Let G0, G1, L0 and L1 be the products of X - gamma**v over v in D0, D1,
    E0 and E1. None of them is expanded.

    factorization: D0, D1 and {p} partition the odd residues mod 2p, E0,
    E1 and {0} the even ones, gamma**p = -1 and gamma - 1 is a unit. Then
    gamma**2p = 1, so gamma**v depends on v mod 2p only, and (gamma**v)**p
    = (-1)**v: the p powers at odd v are roots of X**p + 1 and the p at
    even v roots of X**p - 1. Two of one parity, at v != w, differ by
    gamma**w (gamma**d - 1) with d = v - w even and nonzero mod 2p, so
    d != 0 (mod p). y = -gamma has y**p = 1 and is gamma mod 2, which is
    not 1 as gamma - 1 is a unit; so y mod 2 has order p, and
    gamma**d - 1 = y**d - 1 (mod 2) is a unit. A monic f with a root a is
    (X - a) g, and at a root b with b - a a unit, g(b) = 0; so a monic
    degree-p polynomial with p roots whose differences are units is the
    product of X minus each. Hence
    X**p + 1 = (X - gamma**p) G0 G1 = (X + 1) G0 G1 and
    X**p - 1 = (X - gamma**0) L0 L1 = (X - 1) L0 L1.

    lemma9: X is Teichmüller, sigma(gamma) = gamma**(p+2) and (p+2)*C = C
    mod 2p for each class C. With X Teichmüller, c(X) -> c(X**2) is the
    Frobenius sigma (:meth:`GaloisRing.frobenius`), an automorphism whose
    fixed elements are exactly the embedded Z4. A non-unit gamma = 2b has
    gamma**2 = 0, so sigma(gamma) = 2 sigma(b) = 0 makes b even and
    gamma = 0, whose products have the roots 0 and 1 only and lie in Z4.
    A unit gamma is xi (1 + 2a) with xi Teichmüller, so sigma(xi) = xi**2,
    and (1 + 2a)**2 = 1 (Wan 2003). Then sigma(gamma) = gamma**(p+2) reads
    xi**p = (1 + 2 sigma(a)) (1 + 2a), which is Teichmüller and 1 mod 2,
    hence 1; so gamma**2p = 1, and sigma maps gamma**v to
    gamma**((p+2)v mod 2p). v -> (p+2)v is one to one mod 2p (p + 2 is a
    unit) with image C on C, so sigma permutes the roots of each product.
    Applied to the coefficients, sigma therefore fixes each product, and
    its coefficients lie in Z4. (p+2)v = p + 2v mod 2p for odd v, so
    (p+2)*D0 = D0 says that 2 is a square mod p: p = +-1 (mod 8). The
    statement is not claimed otherwise, and lemma9 is SKIP.

    Both checks are skipped for p above DEFAULT_EXPANSION_CAP.
    """
    p = ws.p
    if p > DEFAULT_EXPANSION_CAP:
        note = f"skipped: p > expansion cap {DEFAULT_EXPANSION_CAP}"
        return [
            CheckResult("factorization", CheckStatus.SKIP, note),
            CheckResult("lemma9", CheckStatus.SKIP, note),
        ]
    ring, labels, gamma, gamma_p = ws.ring, ws.classes.labels, ws.gamma, ws.gamma_p

    # D0 and D1 must leave p alone of the odd residues, and hold no even one
    odd, even = labels[1::2], labels[::2]
    problems = []
    if odd.translate(None, bytes((D0, D1))) != labels[p : p + 1] or D0 in even or D1 in even:
        problems.append("D0, D1 and {p} do not partition the odd residues")
    if even.translate(None, bytes((E0, E1))) != labels[:1] or E0 in odd or E1 in odd:
        problems.append("E0, E1 and {0} do not partition the even residues")
    if gamma_p != ring.embed(3):
        problems.append("gamma^p != -1")
    if not (gamma - ring.one).is_unit():
        problems.append("gamma - 1 is not a unit")
    fact = CheckResult(
        "factorization",
        CheckStatus.FAIL if problems else CheckStatus.PASS,
        problems[0] if problems else "(X+1)G0G1 = X^p+1 and (X-1)L0L1 = X^p-1 exactly",
    )

    if p % 8 in (3, 5):
        nine = CheckResult(
            "lemma9", CheckStatus.SKIP, "integrality not claimed for p = +-3 (mod 8)"
        )
    else:
        problems = []
        if not ring.x_is_teichmuller():
            problems.append("X is not Teichmüller: X -> X^2 is not the Frobenius")
        elif ring.frobenius(gamma) != gamma_p * gamma * gamma:
            problems.append("sigma(gamma) != gamma^(p+2)")
        for code, name in enumerate(CLASS_NAMES):
            if _scaled(labels, code, p + 2) != labels.translate(IS_CLASS[code]):
                problems.append(f"(p+2)*{name} != {name}")
        nine = CheckResult(
            "lemma9",
            CheckStatus.FAIL if problems else CheckStatus.PASS,
            problems[0] if problems else "all product coefficients lie in the embedded Z4",
        )
    return [fact, nine]


def _roots_witness(p: int) -> list[int]:
    """X**2p + 2X**p + 1 = (X**p + 1)**2 over Z4, constant term first."""
    return [1] + [0] * (p - 1) + [2] + [0] * (p - 1) + [1]


def _divide_by_monic(w: list[int], d: list[int]) -> tuple[int, list[int]]:
    """(q, w - q*d) over Z4 for lists of one length, d monic: q is w's lead."""
    return w[-1], [(c - w[-1] * e) % 4 for c, e in zip(w, d)]


def check_roots_guard(ws: _Workspace) -> CheckResult:
    """Vanishing at every gamma**j must not imply divisibility over Z4.

    The witness X**2p + 2X**p + 1 = X**2p - 1 + 2(X**p + 1) has terms at
    X**0, X**p and X**2p only, so at x = gamma**j it is y*y + y + y + 1
    with y = x**p: 1 for even j and gamma**p for odd j, two points for all
    2p. Divided by the monic X**2p - 1, it leaves the remainder 2X**p + 2.
    """
    ring, p = ws.ring, ws.p
    witness = _roots_witness(p)
    problems = []
    for j, y in enumerate((ring.one, ws.gamma_p)):
        if sum((y * y,) * witness[-1] + (y,) * witness[p], ring.embed(witness[0])) != ring.zero:
            problems.append(f"witness does not vanish at gamma^{j}")
            break
    divisor = [3] + [0] * (2 * p - 1) + [1]  # X**2p - 1
    quotient, rem = _divide_by_monic(witness, divisor)
    if [(quotient * d + r) % 4 for d, r in zip(divisor, rem)] != witness:
        problems.append("quotient * (X^2p - 1) + remainder != witness")
    if not any(rem):
        problems.append("witness is divisible by X^2p - 1, guard violated")
    if rem != [2] + [0] * (p - 1) + [2] + [0] * p:
        problems.append("unexpected remainder under division by X^2p - 1")
    detail = problems[0] if problems else "vanishes at all gamma^j yet is not divisible"
    return CheckResult("roots", CheckStatus.FAIL if problems else CheckStatus.PASS, detail)


def check_theorem(ws: _Workspace) -> CheckResult:
    """Synthesized linear complexity equals the closed form."""
    want = theorem_lc(ws.p)
    got = reeds_sloane(ws.seq).lc
    ok = got == want
    detail = f"lc = {got} = closed form" if ok else f"lc = {got}, closed form {want}"
    return CheckResult("theorem", CheckStatus.PASS if ok else CheckStatus.FAIL, detail)


# Every check in report order, as a function of the workspace. Each entry
# looks its check up by name when called, so rebinding ``verify.check_*``
# reaches the report.
_CHECKS = {
    "gamma": lambda ws: check_gamma(ws),
    "lemma3": lambda ws: check_lemma3(ws.classes),
    "lemma5": lambda ws: check_lemma5(ws.classes),
    "lemma6": lambda ws: check_lemma6(ws),
    "lemma7": lambda ws: check_lemma7(ws),
    "lemma8": lambda ws: check_lemma4_lemma8(ws),
    "factorization": lambda ws: ws.factorizations[0],
    "lemma9": lambda ws: ws.factorizations[1],
    "roots": lambda ws: check_roots_guard(ws),
    "theorem": lambda ws: check_theorem(ws),
}

# Tokens accepted by the report filter; bare numbers name the identity checks.
CHECK_TOKENS = {
    "3": "lemma3",
    "5": "lemma5",
    "6": "lemma6",
    "7": "lemma7",
    "4": "lemma8",
    "8": "lemma8",
    "9": "lemma9",
    **{name: name for name in _CHECKS},
}


def full_report(p: int, only: Iterable[str] | None = None) -> LemmaReport:
    """Run every applicable check for p (or the nonempty ``only`` subset)
    and aggregate."""
    wanted = set(_CHECKS) if only is None else set(only)
    if not wanted:
        raise ValueError("empty check filter")
    unknown = wanted - _CHECKS.keys()
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    ws = _Workspace(p)
    return LemmaReport(p, tuple(check(ws) for name, check in _CHECKS.items() if name in wanted))
