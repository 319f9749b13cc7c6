"""Run each mutant of ``tests/mutants.py`` against its tests.

    python tests/run_mutants.py

Copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to a
temporary directory (``pyproject.toml`` puts the copy's own ``src`` on
the path, ahead of ``PYTHONPATH``, so they go together, and
``tests/test_format.py`` reads the README's examples), applies one
mutant at a time there, runs its tests with ``pytest -x`` and restores
the file.  A
mutant is killed when a test fails and survives when all pass; one that
no longer applies, or a run that ends otherwise (a collection or usage
error), is an error.  A run still going after ``TIMEOUT_S`` seconds is
stopped, its pytest process killed, and the mutant counts as killed
with the verdict ``timeout``: a mutant that makes the library loop.
Prints two lines per mutant and exits 1 unless every mutant was killed.
Standard library only, besides the suite's own pytest.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns("__pycache__")
TIMEOUT_S = 60


def run_one(work: Path, env: dict, file: str, old: str, new: str,
            tests: list[str]) -> tuple[str, str]:
    """Verdict and detail (the first failing test, or pytest's last line)."""
    path = work / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return "error", f"old text occurs {text.count(old)} times"
    path.write_text(text.replace(old, new), encoding="utf-8")
    # a fresh example database, so no mutant replays another's failures
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rf",
             "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", f"no result in {TIMEOUT_S} s"
    finally:
        path.write_text(text, encoding="utf-8")
    lines = run.stdout.splitlines() or [run.stderr.strip()]
    failed = [line for line in lines if line.startswith("FAILED ")]
    verdict = {0: "survived", 1: "killed"}.get(run.returncode, "error")
    return verdict, (failed[0] if failed else lines[-1])


def main() -> int:
    start = time.perf_counter()
    verdicts = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=SKIP)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=SKIP)
        shutil.copy2(ROOT / "pyproject.toml", work)
        shutil.copy2(ROOT / "README.md", work)
        env = dict(os.environ, PYTHONPATH=str(work / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        for i, (file, old, new, tests) in enumerate(MUTANTS):
            t0 = time.perf_counter()
            verdict, detail = run_one(work, env, file, old, new, tests)
            verdicts.append(verdict)
            first = old.strip().splitlines()[0]
            print(f"{i:3} {verdict:8} {time.perf_counter() - t0:6.1f}s  "
                  f"{file}: {first}\n{'':20}{detail}", flush=True)
    killed = verdicts.count("killed") + verdicts.count("timeout")
    print(f"{killed} of {len(verdicts)} killed "
          f"({verdicts.count('timeout')} by the time limit) in "
          f"{time.perf_counter() - start:.1f}s")
    return 0 if killed == len(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
