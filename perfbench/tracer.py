"""Spans around cyclo4's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function in every cyclo4 namespace
that binds it (``verify`` and ``cli`` import several functions by name) and
each traced method on its class; ``uninstall`` puts the originals back, so
untraced rounds run the unmodified code. A span is (name, start, end,
parent index); spans stay in memory until ``take_round`` turns them into
per-name call counts and self times (a span's duration minus the time its
child spans cover).
"""

from __future__ import annotations

import importlib
import sys
import time

# metric prefix -> (module, attribute); "Class.method" names a method
TRACED = {
    "cli.main": ("cyclo4.cli", "main"),
    "cyclotomy.build_classes": ("cyclo4.cyclotomy", "build_classes"),
    "sequence.generate_sequence": ("cyclo4.sequence", "generate_sequence"),
    "f2.lex_smallest_irreducible": ("cyclo4.f2", "lex_smallest_irreducible"),
    "f2.is_irreducible": ("cyclo4.f2", "is_irreducible"),
    "galois.construct_ring": ("cyclo4.galois", "construct_ring"),
    "galois.lift_irreducible": ("cyclo4.galois", "lift_irreducible"),
    "galois.find_gamma": ("cyclo4.galois", "find_gamma"),
    "galois.powers_of": ("cyclo4.galois", "powers_of"),
    "galois.mul": ("cyclo4.galois", "GaloisRingElement.__mul__"),
    "galois.pow": ("cyclo4.galois", "GaloisRingElement.__pow__"),
    "ringpoly.mul": ("cyclo4.ringpoly", "RingPolynomial.__mul__"),
    "ringpoly.divmod": ("cyclo4.ringpoly", "RingPolynomial.__divmod__"),
    "ringpoly.evaluate": ("cyclo4.ringpoly", "RingPolynomial.evaluate"),
    "lfsr.reeds_sloane": ("cyclo4.lfsr", "reeds_sloane"),
    "lfsr.minimal_connection": ("cyclo4.lfsr", "minimal_connection"),
    "lfsr.verify_connection": ("cyclo4.lfsr", "verify_connection"),
    "verify.full_report": ("cyclo4.verify", "full_report"),
    "verify.normalize_gamma": ("cyclo4.verify", "normalize_gamma"),
    "verify.check_gamma": ("cyclo4.verify", "check_gamma"),
    "verify.check_lemma3": ("cyclo4.verify", "check_lemma3"),
    "verify.check_lemma5": ("cyclo4.verify", "check_lemma5"),
    "verify.check_lemma6": ("cyclo4.verify", "check_lemma6"),
    "verify.check_lemma7": ("cyclo4.verify", "check_lemma7"),
    "verify.check_lemma4_lemma8": ("cyclo4.verify", "check_lemma4_lemma8"),
    "verify.check_factorizations": ("cyclo4.verify", "check_factorizations"),
    "verify.check_roots_guard": ("cyclo4.verify", "check_roots_guard"),
    "verify.check_theorem": ("cyclo4.verify", "check_theorem"),
}


class Tracer:
    def __init__(self, traced: dict[str, tuple[str, str]] = TRACED):
        self.traced = traced
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (module_name, attr) in self.traced.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, method, self._wrap(name, owner.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "cyclo4" or mod_name.startswith("cyclo4."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_round(self) -> dict[str, tuple[int, float]]:
        """{name: (calls, self seconds)} over the spans recorded since the
        last call; the spans are then dropped."""
        if self._stack:
            raise RuntimeError("spans still open")
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start - covered))
        self.spans.clear()
        return out
