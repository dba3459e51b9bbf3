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


def test_the_byte_gate_trains_strided_blocks_with_balancing_and_dsu(compare_cli):
    """One sweep trains a net with stride-2 blocks under style balancing and
    DSU, so the input gradients of strided convolutions are under the gate;
    the list has 61 commands."""
    commands = compare_cli.commands()
    strided = [compare_cli.CONFIGS[flag(argv, "--config")] for argv in commands
               if argv[0] == "sweep" and "net" in compare_cli.CONFIGS[flag(argv, "--config")]]
    assert len(strided) == 1
    doc = strided[0]
    assert any(blk.get("stride", 1) == 2 for blk in doc["net"]["blocks"][1:])
    assert doc["train"]["sb"] and doc["train"]["aug"] == "dsu"
    assert len(commands) == 61
