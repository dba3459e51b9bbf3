"""``tools/reach_census.py``: every ``src/`` def that ``tools/compare_cli.py``'s
commands never enter is declared, with the reason it stays."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def reach_census(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import reach_census
    return reach_census


def test_every_def_the_commands_never_enter_is_declared():
    """Both BLAS legs run every command; each def neither enters is
    declared, and no declared def is entered."""
    run = subprocess.run([sys.executable, str(TOOLS / "reach_census.py")],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "0 not declared, 0 declared wrongly, 0 commands failed" in run.stdout


def test_the_census_fails_on_an_undeclared_def_and_an_entered_declared_one(
        reach_census, monkeypatch, capsys):
    """With the legs replaced by a set of entered defs: a def that nothing
    enters and no name declares fails the census, and so does a declared
    def that is entered."""
    every = reach_census.defs()
    names = {name: key for key, name in every.items()}
    entered = {key for key, name in every.items() if reach_census.declared_as(name) is None}
    entered -= {names["autodiff.as_var"]}
    entered |= {names["autodiff.Var.shape"]}
    monkeypatch.setattr(reach_census, "run_legs", lambda: (entered, []))
    assert reach_census.main() == 1
    out = capsys.readouterr().out
    assert "autodiff.as_var (line" in out and "NOT DECLARED" in out
    assert "autodiff.Var.shape: declared, but entered or no def" in out
    assert "1 not declared, 1 declared wrongly" in out
