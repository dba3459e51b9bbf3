"""The coverage of ``tools/compare_cli.py``'s command list: no command runs."""

from pathlib import Path

import pytest

from styleshift import cli
from styleshift import micro_net as mn
from styleshift import test_time_shift as ts

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture
def compare_cli(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import compare_cli
    return compare_cli


def flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def test_the_byte_gate_runs_every_subcommand_mode_and_augmentation(compare_cli):
    """Every subcommand runs, every shift mode is evaluated (by ``eval`` or a
    sweep's config) and every augmentation but ``none`` is trained, so a
    change to any of them shows in the gate's files."""
    commands = compare_cli.commands()
    subcommands = cli.build_parser()._subparsers._group_actions[0].choices
    assert {argv[0] for argv in commands} == set(subcommands)
    configs = [compare_cli.CONFIGS[flag(argv, "--config")] for argv in commands
               if argv[0] in ("train", "sweep")]
    modes = {flag(argv, "--mode") for argv in commands if argv[0] == "eval"}
    modes |= {doc["eval"]["mode"] for doc in configs if "eval" in doc}
    assert {ts.ShiftMode(m).kind for m in modes - {None}} == set(ts.MODE_NAMES)
    augs = {doc["train"].get("aug", "none") for doc in configs}
    assert augs - {"none"} == set(mn.AUG_KINDS) - {"none"}
