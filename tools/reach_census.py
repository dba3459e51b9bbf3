"""Name every def under ``src/`` that ``tools/compare_cli.py``'s commands never enter.

Usage: python tools/reach_census.py

The command list of ``compare_cli.commands()`` runs twice, once at each of
compare_cli's BLAS legs (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS at 1, and unset), each time in one fresh process that calls
``styleshift.cli.main`` for every command in one work directory. A profile
hook, set on the main thread and for every thread started later
(``sys.setprofile``, ``threading.setprofile``) before the first command,
so also on the runner's threads, records each function it sees entered.

Every def under ``src/`` (functions, methods, nested defs and lambdas, not
comprehensions) that neither leg entered is printed with the reason it is
kept, from ``DECLARED``. Exits 1 if a def is neither entered nor declared,
if a declared def is entered or names no def, or if a command fails;
else 0.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import compare_cli

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

# Defs no command enters, by why they stay, as ``module.qualname``. A name
# covers the defs nested in it too, and a class name its methods.
DECLARED = {
    "references the tests check production code against": (
        "style_ops.adain", "style_ops.efdmix", "tensor_core.channel_mean",
        "tensor_core.channel_std", "tensor_core.channel_stats", "tensor_core.style_vector_to_stats",
        "tensor_core.ChannelStats", "tensor_core.as_feature_map",
        "style_balance.style_balance_batch", "style_balance.effective_counts",
        "micro_net.finite_difference_check"),
    "bound by perfbench/": (
        "micro_net.evaluate", "test_time_shift.ts_apply", "test_time_shift.decide",
        "test_time_shift._first_decision", "test_time_shift.build_registry",
        "tensor_core.style_vector", "autodiff.sum_axes", "autodiff.reshape",
        "experiment.shift_mode_from_name"),
    "error paths": ("autodiff._spent", "errors.PnmParseError.__init__"),
    "test conveniences": (
        "autodiff.Var.shape", "autodiff.Var.__radd__", "autodiff.Var.__rsub__",
        "autodiff.Var.__rtruediv__", "autodiff.Var.__neg__", "experiment.SeedOutcome.rows",
        "micro_net.EvalResult.overall_accuracy", "test_time_shift.nearest_sample"),
}
REASONS = {name: reason for reason, group in DECLARED.items() for name in group}

LEG = """
import sys
sys.path[:0] = [{tools!r}]
import reach_census
reach_census.run_leg({out!r})
"""


def _key(code) -> tuple[str, int, str]:
    return str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_qualname


def run_leg(out: str) -> None:
    """Import ``styleshift`` and run every command in the current directory
    under the profile hook; write the ``src/`` functions entered, and the
    failed commands, to ``out``."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    failed = []
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        from styleshift import cli

        for name, doc in compare_cli.CONFIGS.items():
            Path(name).write_text(json.dumps(doc))
        for argv in compare_cli.commands():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main([*argv, "--workdir", "."])
            if code:
                failed.append(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    src = str(SRC.resolve())
    Path(out).write_text(json.dumps({
        "entered": [_key(c) for c in entered if c.co_filename.startswith(src)],
        "failed": failed}))


def defs() -> dict[tuple[str, int, str], str]:
    """Every def under ``src/``, keyed as ``_key`` keys a code object, to its
    ``module.qualname``."""
    found = {}
    for path in sorted((SRC / "styleshift").glob("*.py")):
        stack = [compile(path.read_text(), str(path.resolve()), "exec")]
        while stack:
            code = stack.pop()
            if code.co_flags & inspect.CO_NEWLOCALS and code.co_name not in COMPREHENSIONS:
                found[_key(code)] = f"{path.stem}.{code.co_qualname}"
            stack += [c for c in code.co_consts if inspect.iscode(c)]
    return found


def run_legs() -> tuple[set, list[str]]:
    """The keys of the ``src/`` functions either leg entered, and the failed
    commands. The two legs run at once, each in its own work directory."""
    entered, failed = set(), []
    with tempfile.TemporaryDirectory() as tmp:
        legs = []
        for one in (True, False):
            env = {k: v for k, v in os.environ.items() if k not in compare_cli.BLAS_VARS}
            if one:
                env.update(dict.fromkeys(compare_cli.BLAS_VARS, "1"))
            env["PYTHONPATH"] = str(SRC)
            work = Path(tmp) / f"leg_{int(one)}"
            work.mkdir()
            out = work.with_suffix(".json")
            legs.append((one, out, subprocess.Popen(
                [sys.executable, "-c", LEG.format(tools=str(TOOLS), out=str(out))],
                cwd=work, env=env)))
        for one, out, proc in legs:
            if proc.wait():
                raise RuntimeError(f"the leg with BLAS {'at 1' if one else 'unset'} "
                                   f"exited {proc.returncode}")
            leg = json.loads(out.read_text())
            entered |= {tuple(k) for k in leg["entered"]}
            failed += [f"BLAS {'at 1' if one else 'unset'}: {line}" for line in leg["failed"]]
    return entered, failed


def declared_as(name: str) -> str | None:
    """The declared name that covers the def ``name``, or None."""
    return next((d for d in REASONS if name == d or name.startswith(d + ".")), None)


def census() -> tuple[list[tuple[str, int]], list[str], list[str]]:
    """The name and line of every def that neither leg entered, the declared
    names that cover an entered def or no def, and the failed commands."""
    entered, failed = run_legs()
    every = defs()
    never = sorted((name, key[1]) for key, name in every.items() if key not in entered)
    covering = {declared_as(name) for name in every.values()}
    reached = {declared_as(name) for key, name in every.items() if key in entered}
    wrong = sorted(d for d in REASONS if d not in covering or d in reached)
    return never, wrong, failed


def main() -> int:
    never, wrong, failed = census()
    undeclared = 0
    for name, line in never:
        covered = declared_as(name)
        undeclared += covered is None
        print(f"{name} (line {line}): {REASONS[covered] if covered else 'NOT DECLARED'}")
    for name in wrong:
        print(f"{name}: declared, but entered or no def")
    for line in failed:
        print(f"failed: {line}")
    print(f"{len(never)} defs never entered, {undeclared} not declared, "
          f"{len(wrong)} declared wrongly, {len(failed)} commands failed")
    return 1 if undeclared or wrong or failed else 0


if __name__ == "__main__":
    sys.exit(main())
