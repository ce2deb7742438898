"""Packaging: every data file in the package ships with it."""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "gacalc"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_every_data_file_matches_a_package_data_glob():
    # The tests run from the source tree, so a data file left out of
    # package-data (machines, netlists) fails only in an installed copy.
    import tomllib

    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["gacalc"]
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    data = {
        path
        for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc") and "__pycache__" not in path.parts
    }
    assert data, "no data files found"
    assert sorted(p.relative_to(PACKAGE).as_posix() for p in data - shipped) == []
