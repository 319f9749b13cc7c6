import os
from pathlib import Path

from hypothesis import settings

# ``python -m infolat`` child processes import the package from the
# repository's src, like the tests themselves (pyproject's pythonpath
# reaches only the pytest process)
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")
