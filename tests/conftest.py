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


def rebind(modules, name, value):
    """Bind ``name`` to ``value`` in each module for the session, then
    give each module back its own binding."""
    own = [getattr(module, name) for module in modules]
    for module in modules:
        setattr(module, name, value)
    yield value
    for module, kernel in zip(modules, own):
        setattr(module, name, kernel)


@pytest.fixture(scope="session", autouse=True)
def checked_transpose():
    """``poset.transpose``, bound in ``poset`` and in each module that
    imports it by name, behind a checker of its precondition: m >= 1
    rows, n >= 1, and 0 <= row < 2**n for every row.  A call outside it
    returns a wrong answer without an error, so the suite fails it."""
    from infolat import poset, powerdomain, relation
    transpose = poset.transpose

    @functools.wraps(transpose)
    def checked(rows, n):
        assert len(rows) >= 1 and n >= 1, f"{len(rows)} x {n} matrix"
        assert all(0 <= row < 1 << n for row in rows), f"a row past {n} bits"
        return transpose(rows, n)

    yield from rebind((poset, relation, powerdomain), "transpose", checked)


@pytest.fixture(scope="session", autouse=True)
def checked_fibres():
    """``poset.fibres`` behind a checker that each label is in
    ``0 .. k-1``: unchecked, ``fibres((-1, 0), 2)`` reads label -1 as
    label 1.  Only ``poset`` binds it."""
    from infolat import poset
    fibres = poset.fibres

    @functools.wraps(fibres)
    def checked(labels, k):
        labels = list(labels)
        assert all(0 <= b < k for b in labels), f"a label outside 0 .. {k - 1}"
        return fibres(labels, k)

    yield from rebind((poset,), "fibres", checked)


@pytest.fixture(scope="session", autouse=True)
def checked_image_rows():
    """``poset.image_rows``, bound in ``poset`` and in each module that
    imports it by name, behind a checker of its precondition: square
    rows, one image per row, each in ``0 .. k-1``."""
    from infolat import loci, loi, poset, tini
    image_rows = poset.image_rows

    @functools.wraps(image_rows)
    def checked(rows, images, k):
        n = len(rows)
        assert len(images) == n, f"{len(images)} images for {n} rows"
        assert all(0 <= row < 1 << n for row in rows), f"a row past {n} bits"
        assert all(0 <= v < k for v in images), f"an image outside 0 .. {k - 1}"
        return image_rows(rows, images, k)

    yield from rebind((poset, loci, loi, tini), "image_rows", checked)
