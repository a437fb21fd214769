import re
from pathlib import Path

import cyclo4


def test_all_is_the_readme_library_import():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```python\nfrom cyclo4 import \(([^)]*)\)", readme).group(1)
    names = [name.strip() for name in block.split(",") if name.strip()]
    assert sorted(cyclo4.__all__) == sorted(names + ["__version__"])
    assert all(hasattr(cyclo4, name) for name in cyclo4.__all__)
