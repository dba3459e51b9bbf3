"""The coverage of ``tools/compare_cli.py``'s command list: no command runs."""

from pathlib import Path

import pytest

from styleshift import autodiff as ad
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


def split_sizes(compare_cli, argv):
    """The elements of block1's ReLU and the most multiply-adds of a conv in
    a full batch of the ``train`` command ``argv``, on the default network."""
    doc = compare_cli.CONFIGS[flag(argv, "--config")]
    gen = next(cmd for cmd in compare_cli.commands()
               if cmd[0] == "gen-data" and flag(cmd, "--out") == doc.get("dataset", "data"))
    data = compare_cli.CONFIGS[flag(gen, "--config")]
    batch = min(doc["train"]["batch_size"],
                data["n_classes"] * data["n_sources"] * data["per_cell_train"])
    size, cin, relu, macs = data["image_size"], 1, [], []
    for blk in mn.NetConfig().blocks:
        size = (size - 1) // blk.stride + 1   # 3x3, padded by 1
        relu.append(batch * blk.out_channels * size * size)
        macs.append(relu[-1] * cin * 9)
        size, cin = size // 2 if blk.pool else size, blk.out_channels
    return relu[0], max(macs)


def test_the_byte_gate_runs_every_subcommand_mode_and_augmentation(compare_cli):
    """Every subcommand runs, every shift mode is evaluated (by ``eval`` or a
    sweep's config) and every augmentation but ``none`` is trained, so a
    change to any of them shows in the gate's files. Some ``train`` is large
    enough that block1's ReLU and a conv's GEMMs split over the runner
    (``autodiff.SPLIT_MIN``, ``autodiff.GEMM_SPLIT_MIN``)."""
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
    sizes = [split_sizes(compare_cli, argv) for argv in commands if argv[0] == "train"]
    assert any(relu >= ad.SPLIT_MIN and macs >= ad.GEMM_SPLIT_MIN for relu, macs in sizes)
