"""Run the mutation catalogue of `tests/mutants.py`.

For each entry: copy `src/` to a temporary directory, replace the entry's old
text (it must occur exactly once in its file) by the new one, and run the
entry's tests with `-x` against the copy.  An entry is killed when pytest
reports a failing test (exit status 1).  The run fails when an entry
survives, no longer matches, or its tests cannot run (a missing node id, a
collection error).

    python tests/run_mutants.py

takes about two seconds per entry; it is a CI step of its own, not part of
the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS, Mutant  # noqa: E402


def run(mutant: Mutant) -> str:
    """'killed', 'survived', 'stale' (the old text does not occur exactly
    once) or 'error: ...' for one entry."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "capax" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        probe = subprocess.run([sys.executable, "-c", "import capax; print(capax.__file__)"],
                               env=env, capture_output=True, text=True)
        if not probe.stdout.startswith(str(src)):
            return f"error: capax imported from {probe.stdout.strip() or probe.stderr.strip()}"
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"error: pytest exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main(mutants=MUTANTS) -> int:
    """Run every entry, print one line each; 0 when every entry is killed."""
    bad = 0
    for mutant in mutants:
        outcome = run(mutant)
        bad += outcome != "killed"
        print(f"{outcome.splitlines()[0]:>8}  {mutant.file}: {mutant.name}", flush=True)
        if outcome.startswith("error"):
            print(outcome, flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
