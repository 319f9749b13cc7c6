"""The recorded mutants still apply; running them is
``python tests/run_mutants.py``, outside the suite."""

from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_applies_once():
    stale = [(file, old) for file, old, _, _ in MUTANTS
             if (ROOT / file).read_text(encoding="utf-8").count(old) != 1]
    assert stale == []
