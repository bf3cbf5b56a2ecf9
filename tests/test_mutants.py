"""The mutation catalogue stays applicable, and its runner fails on a
mutant that survives or no longer matches.  The catalogue itself runs as a
CI step of its own (`python tests/run_mutants.py`)."""

from pathlib import Path

import pytest

import run_mutants
from mutants import MUTANTS, Mutant

SRC = Path(__file__).resolve().parents[1] / "src" / "capax"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_entry_matches_exactly_once(mutant):
    assert mutant.old != mutant.new and mutant.tests
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1


def test_a_surviving_mutant_fails_the_run(capsys):
    # a docstring edit changes no behaviour, so its test passes
    harmless = Mutant("docstring", "ground.py", '"""Render as "p/q"', '"""Render as p/q',
                      ("tests/test_ground.py",))
    assert run_mutants.main([harmless]) == 1
    assert "survived" in capsys.readouterr().out


def test_an_entry_that_stops_matching_fails_the_run(capsys):
    stale = Mutant("stale", "ground.py", "no such text", "", ("tests/test_ground.py",))
    assert run_mutants.main([stale]) == 1
    assert "stale" in capsys.readouterr().out
