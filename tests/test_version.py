from pathlib import Path

import pytest

import pintsolve as ps

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_package_version_has_one_source():
    # pyproject.toml reads the version from the package, so the two agree
    meta = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "pintsolve.__version__"
    }
    assert ps.__version__.count(".") == 2
