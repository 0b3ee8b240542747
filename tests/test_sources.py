import warnings
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lcsdyn").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_compiles_without_warnings(path):
    # invalid escapes in string literals warn at compile time (a SyntaxWarning
    # from Python 3.12 on), which a cached .pyc would otherwise hide
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")
