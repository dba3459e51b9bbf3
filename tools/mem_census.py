"""Say where a training step's traced memory peaks, and what is live there.

Usage: python tools/mem_census.py

Two steps run under ``tracemalloc``, each one forward and backward of a 32 px
net (``NetConfig()``, seed 91) on uniform images: batch 63 with DSU at block1
and block2, the training shape of the benchmark's sweep-aug workload, and
batch 21 with style balancing at block1, that of tsb-train. For each step it
prints the traced peak and where it falls: in the forward, or inside the
innermost vjp whose run raised it, named by the function that made the vjp.
Then it runs the step again and, at that vjp's entry, prints the live bytes
grouped by the function that allocated them, largest first. The last line is
a JSON summary: per step the peak in MB, the vjp and the live MB per
function.
"""

from __future__ import annotations

import ast
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from styleshift import autodiff as ad  # noqa: E402
from styleshift import micro_net as mn  # noqa: E402
from styleshift.style_balance import BatchMeta  # noqa: E402

SRC = Path(ad.__file__).resolve().parent
TOP = 12   # allocating functions printed per step


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def step_inputs(kind: str, n: int):
    """The net, images, labels and hook ops of one step; the same on every call."""
    rng = _rng(90)
    x, y, d = rng.uniform(size=(n, 1, 32, 32)), np.arange(n) % 7, np.arange(n) % 3
    net = mn.MicroNet.init(mn.NetConfig(), seed=91)
    if kind == "dsu":
        ops = [(hook, mn.DsuHookOp.draw(n, net.config.channels_at(hook), _rng(93)))
               for hook in ("block1", "block2")]
    else:
        ops = [("block1", mn.SbHookOp(BatchMeta(d, y, 3, net.config.n_classes), _rng(94)))]
    return net, x, y, ops


def run_step(net, x, y, ops) -> None:
    res = net.forward(x, ops)
    ad.softmax_cross_entropy(res.logits, y).backward()


class VjpProbe:
    """Wrap the vjp of every Var made while installed, so each call of one is
    numbered and its traced peak before and after is recorded; on call
    ``snap_at`` a snapshot is taken at the vjp's entry."""

    def __init__(self, snap_at: int | None = None):
        self.calls: list[list] = []   # [name, g's shape, peak at entry, peak at exit, exit rank]
        self.snap_at = snap_at
        self.snapshot = None
        self._exits = 0

    def wrap(self, vjp):
        name = vjp.__qualname__.split(".<locals>")[0]

        def probed(g):
            call = len(self.calls)
            self.calls.append([name, g.shape, tracemalloc.get_traced_memory()[1], 0, 0])
            if call == self.snap_at:
                self.snapshot = tracemalloc.take_snapshot()
            held = [g]
            del g   # as ``backward`` does, leave the vjp the only holder of its gradient
            try:
                return vjp(held.pop())
            finally:
                self.calls[call][3:] = tracemalloc.get_traced_memory()[1], self._exits
                self._exits += 1

        return probed

    def __enter__(self):
        init = self._init = ad.Var.__init__
        probe = self

        def __init__(var, value, parents=(), vjp=None):
            init(var, value, parents, None if vjp is None else probe.wrap(vjp))

        ad.Var.__init__ = __init__
        return self

    def __exit__(self, *exc):
        ad.Var.__init__ = self._init


def peak_call(calls, peak: int) -> int | None:
    """The call that raised the traced peak to ``peak``: of the calls whose
    run raised it, the innermost, which exits first; None when none did."""
    raised = [i for i, (_, _, before, after, _) in enumerate(calls) if before < peak <= after]
    return min(raised, key=lambda i: calls[i][4]) if raised else None


def _functions(path: Path) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every def in a module."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    out.append((child.lineno, child.end_lineno, name))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text()), f"{path.stem}.")
    return out


def by_function(snapshot) -> dict[str, int]:
    """Live bytes per allocating function: the innermost def of the package
    that encloses the allocating line, or ``other`` outside the package."""
    defs: dict[str, list] = {}
    live: dict[str, int] = {}
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        path = Path(frame.filename)
        name = "other"
        if path.parent == SRC:
            if frame.filename not in defs:
                defs[frame.filename] = _functions(path)
            inside = [(last - first, qual) for first, last, qual in defs[frame.filename]
                      if first <= frame.lineno <= last]
            name = min(inside)[1] if inside else path.stem
        live[name] = live.get(name, 0) + stat.size
    return dict(sorted(live.items(), key=lambda kv: -kv[1]))


def _traced_step(kind: str, n: int, probe: VjpProbe) -> int:
    """Run one step with ``probe`` installed; its traced peak in bytes."""
    inputs = step_inputs(kind, n)   # made before tracing starts
    tracemalloc.start()
    try:
        with probe:
            run_step(*inputs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def census(kind: str, n: int) -> dict:
    probe = VjpProbe()
    peak = _traced_step(kind, n, probe)
    call = peak_call(probe.calls, peak)
    summary = {"step": f"{kind} batch {n}", "peak_mb": round(peak / 1e6, 2), "vjp": None,
               "g_shape": None, "live_mb": {}}
    if call is not None:
        summary["vjp"], summary["g_shape"] = probe.calls[call][0], list(probe.calls[call][1])
        again = VjpProbe(snap_at=call)
        _traced_step(kind, n, again)
        summary["live_mb"] = {name: round(size / 1e6, 2)
                              for name, size in by_function(again.snapshot).items()
                              if size >= 5e3}
    return summary


def main() -> int:
    summaries = [census("dsu", 63), census("sb", 21)]
    for s in summaries:
        where = (f"in {s['vjp']}'s vjp, g of shape {tuple(s['g_shape'])}" if s["vjp"]
                 else "outside any vjp (the forward)")
        print(f"{s['step']}: peak {s['peak_mb']:.2f} MB, {where}")
        if s["live_mb"]:
            print(f"  live at that vjp's entry: {sum(s['live_mb'].values()):.2f} MB")
        for name, mb in list(s["live_mb"].items())[:TOP]:
            print(f"  {mb:8.2f} MB  {name}")
    print(json.dumps(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
