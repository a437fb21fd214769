import importlib
import re
from pathlib import Path

import cyclo4
from cyclo4 import f2
from cyclo4.galois import construct_ring

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_all_is_the_readme_library_import():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```python\nfrom cyclo4 import \(([^)]*)\)", readme).group(1)
    names = [name.strip() for name in block.split(",") if name.strip()]
    assert sorted(cyclo4.__all__) == sorted(names + ["__version__"])
    assert all(hasattr(cyclo4, name) for name in cyclo4.__all__)


def test_readme_library_block_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    # the comment on the synthesis shows the start of the result's repr
    shown = re.search(r"# (LfsrResult\(.*?)…", block).group(1)
    assert repr(namespace["result"]).startswith(shown)
    out = capsys.readouterr().out
    assert out and "FAIL" not in out


def test_perfbench_bindings_resolve(monkeypatch):
    # the benchmark wraps these names and clears these caches; a deletion
    # in the package must not leave it binding something that is gone
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workload = importlib.import_module("workload")
    for module_name, attr in tracer.TRACED.values():
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr)), attr
    assert len(workload.CACHED) == 3
    assert all(callable(fn.cache_clear) for fn in workload.CACHED)


def test_perfbench_counts_the_search_candidates(monkeypatch):
    # the ordered search tries X**r + low for low = 1, 3, ..., its answer's
    # low, each by one is_irreducible call, so the benchmark's
    # f2.is_irreducible_calls counts its candidates
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    for p, candidates in ((521, 53), (719, 180), (739, 212)):
        construct_ring.cache_clear()
        f2.lex_smallest_irreducible.cache_clear()
        tracer.install()
        try:
            ring = construct_ring(p)
        finally:
            tracer.uninstall()
        calls = tracer.take_round().get("f2.is_irreducible", (0, 0.0))[0]
        low = sum(1 << i for i, c in enumerate(ring.modulus.coeffs[:-1]) if c.value % 2)
        assert calls == (low + 1) // 2 == candidates, p
