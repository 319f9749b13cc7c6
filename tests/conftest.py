import functools
import os
from pathlib import Path

import pytest
from hypothesis import settings

# ``python -m infolat`` child processes import the package from the
# repository's src, like the tests themselves (pyproject's pythonpath
# reaches only the pytest process)
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


@pytest.fixture(scope="session", autouse=True)
def checked_transpose():
    """``poset.transpose``, bound in ``poset`` and in each module that
    imports it by name, behind a checker of its precondition: m >= 1
    rows, n >= 1, and 0 <= row < 2**n for every row.  A call outside it
    returns a wrong answer without an error, so the suite fails it."""
    from infolat import poset, powerdomain, relation
    modules = (poset, relation, powerdomain)
    transpose = poset.transpose

    @functools.wraps(transpose)
    def checked(rows, n):
        assert len(rows) >= 1 and n >= 1, f"{len(rows)} x {n} matrix"
        assert all(0 <= row < 1 << n for row in rows), f"a row past {n} bits"
        return transpose(rows, n)

    for module in modules:
        module.transpose = checked
    yield checked
    for module in modules:
        module.transpose = transpose
