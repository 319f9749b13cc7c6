"""The recorded mutants still apply; running them is
``python tests/run_mutants.py``, outside the suite."""

import subprocess
import sys
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent

# imports every test module named on the command line with the
# Egli-Milner rows, which every powerdomain is built from, made to raise
IMPORT_WITHOUT_POWERDOMAINS = """
import importlib, sys
import infolat.powerdomain

def refuse(*args):
    raise AssertionError("a powerdomain was built at import")

infolat.powerdomain._em_rows = refuse
for name in sys.argv[1:]:
    importlib.import_module(name)
"""


def test_every_mutant_applies_once():
    stale = [(file, old) for file, old, _, _ in MUTANTS
             if (ROOT / file).read_text(encoding="utf-8").count(old) != 1]
    assert stale == []


def test_no_test_module_builds_a_powerdomain_at_import():
    """A mutant that breaks ``plotkin`` must fail tests, not stop a whole
    file at collection, which ``run_mutants.py`` can only score as an
    error."""
    names = sorted(path.stem for path in (ROOT / "tests").glob("test_*.py"))
    run = subprocess.run(
        [sys.executable, "-c", IMPORT_WITHOUT_POWERDOMAINS, *names],
        cwd=ROOT / "tests", capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
