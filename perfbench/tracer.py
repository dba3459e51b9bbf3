"""Outside-in span tracer for the styleshift layers.

The tracer replaces public module attributes with timing wrappers, records one
span per call (name, start, end, parent, run id) in memory, and puts every
attribute back on ``restore``. Backward time is taken by wrapping the ``_vjp``
closure of each Var an op returns. Nothing in the package is edited: the
wrappers sit at the names the callers resolve at call time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from styleshift import autodiff, cli, domain_data, experiment, micro_net
from styleshift import style_balance, test_time_shift
from styleshift.autodiff import Var

ELEMENTWISE_OPS = ("add", "sub", "mul", "div", "sqrt", "mean", "sum_axes",
                   "clamp_min", "take_batch", "reshape")
BLOCKS = ("block1", "block2", "block3")


def _block_names(net_cfg: micro_net.NetConfig) -> dict:
    """(out_channels, in_channels) of each conv weight -> hook name."""
    names, cin = {}, net_cfg.in_channels
    for hook, blk in zip(net_cfg.hook_names, net_cfg.blocks):
        names[(blk.out_channels, cin)] = hook
        cin = blk.out_channels
    return names


class Tracer:
    def __init__(self, net_cfg: micro_net.NetConfig):
        self.spans: list[list] = []      # [name, start, end, parent index, run id]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = ""
        self._patches: list[tuple] = []
        self._blocks = _block_names(net_cfg)

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.run_id])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- wrappers -----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def _time_vjp(self, var, name: str, on_bwd=None) -> None:
        vjp = var._vjp
        if vjp is None:
            return

        def timed_vjp(g):
            self.counts["autodiff.backward.nodes"] += 1
            if on_bwd is not None:
                on_bwd()
            return self.call(name, vjp, g)

        var._vjp = timed_vjp

    def wrap(self, owner, attr: str, name, grad: bool = False, on_result=None) -> None:
        """Span every call of owner.attr under ``name`` (a string, or a
        function of the call's arguments returning one). ``on_result(args,
        out)`` runs after the call and may return a hook for the backward.

        With ``grad`` the span gets a ``.fwd`` suffix and the returned Var
        (or the first item of a returned tuple) times its backward as ``.bwd``.
        """
        tracer = self

        def wrapper_of(fn):
            def wrapper(*args, **kwargs):
                base = name if isinstance(name, str) else name(args)
                idx = tracer.begin(base + ".fwd" if grad else base)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
                bwd_hook = on_result(args, out) if on_result else None
                if grad:
                    var = out[0] if isinstance(out, tuple) else out
                    tracer._time_vjp(var, base + ".bwd", bwd_hook)
                return out
            return wrapper

        self._patch(owner, attr, wrapper_of)

    def install(self) -> None:
        """Wrap the public functions of every layer."""
        for op in ELEMENTWISE_OPS:
            self.wrap(autodiff, op, "autodiff.elementwise", grad=True,
                      on_result=self._count("autodiff.elementwise.calls"))
        self.wrap(autodiff, "conv2d", self._conv_name, grad=True,
                  on_result=self._conv_counts)
        self.wrap(autodiff, "relu", "autodiff.relu", grad=True)
        self.wrap(autodiff, "avg_pool2", "autodiff.avg_pool2", grad=True)
        self.wrap(autodiff, "global_avg_pool", "autodiff.head", grad=True)
        self.wrap(autodiff, "linear", "autodiff.head", grad=True)
        self.wrap(autodiff, "softmax_cross_entropy", "autodiff.loss", grad=True)
        self._patch(Var, "backward", self._backward_wrapper)

        self.wrap(micro_net, "train", "micro_net.train",
                  on_result=self._count("micro_net.train.calls"))
        self.wrap(micro_net, "evaluate", "micro_net.evaluate")
        self.wrap(micro_net.MicroNet, "forward", "micro_net.forward")
        self.wrap(micro_net.MicroNet, "style_vectors_at", "micro_net.style_vectors_at")

        self.wrap(micro_net, "build_balance_plan", "style_balance.plan",
                  on_result=self._plan_counts)
        self.wrap(style_balance, "select_samples", "style_balance.select")
        self.wrap(micro_net, "sb_apply_var", "style_balance.apply", grad=True)

        for kind, attr in (("dsu", "dsu_var"), ("mixstyle", "mixstyle_var"),
                           ("efdmix", "efdmix_hook")):
            self.wrap(micro_net, attr, f"style_ops.{kind}.fwd",
                      on_result=self._count(f"style_ops.{kind}.fired"))
        self.wrap(test_time_shift, "adain", "style_ops.adain")

        self.wrap(micro_net, "batch_style_vectors", "tensor_core.batch_style_vectors")
        self.wrap(test_time_shift, "style_vector", "tensor_core.style_vector",
                  on_result=self._count("tensor_core.style_vector.calls"))

        self.wrap(micro_net, "ts_apply", "test_time_shift.ts_apply",
                  on_result=self._ts_counts)
        self.wrap(test_time_shift, "decide", "test_time_shift.decide")
        self.wrap(test_time_shift, "build_registry", "test_time_shift.build_registry")

        self.wrap(domain_data, "render_sample", "domain_data.render",
                  on_result=self._count("domain_data.images"))
        self.wrap(domain_data, "write_pnm", "domain_data.write_pnm")
        self.wrap(domain_data, "read_pnm", "domain_data.read_pnm")

        self.wrap(cli, "run_seed", "experiment.run_seed", on_result=self._sweep_point)
        for module in (cli, experiment):
            self.wrap(module, "generate_data", "experiment.generate_data")
            self.wrap(module, "load_split", "experiment.load_split")
        self.wrap(cli, "cmd_sweep", "cli.sweep")

    def restore(self) -> list[str]:
        """Put every wrapped attribute back; return those that did not stick."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        lost = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patches
                if owner.__dict__[attr] is not original]
        self._patches.clear()
        return lost

    # -- counters ----------------------------------------------------------

    def _count(self, key: str):
        def bump(args, out):
            self.counts[key] += 1
        return bump

    def _conv_name(self, args) -> str:
        w = args[1].value
        return f"autodiff.conv2d.{self._blocks[w.shape[:2]]}"

    def _conv_counts(self, args, out):
        """FLOPs and bytes of the GEMMs conv2d forms, from the array shapes.

        Forward multiplies the (Cin*9, OH*OW) im2col matrix by the weights;
        backward forms dW and dcols with one GEMM each, twice the FLOPs.
        Bytes count the GEMM operands and results as float64.
        """
        w = args[1].value
        bs, cout, oh, ow = out.value.shape
        cols = bs * w.shape[1] * w.shape[2] * w.shape[3] * oh * ow
        flop = 2.0 * cols * cout
        key = f"autodiff.conv2d.{self._blocks[w.shape[:2]]}"
        self.counts[key + ".flop"] += flop
        self.counts[key + ".bytes"] += 8.0 * (cols + w.size + out.value.size)

        bwd_bytes = 8.0 * (out.value.size + 2 * cols + 2 * w.size)

        def on_bwd():  # holds no array: the Var it hangs on must stay collectable
            self.counts[key + ".flop"] += 2.0 * flop
            self.counts[key + ".bytes"] += bwd_bytes
        return on_bwd

    def _plan_counts(self, args, plan):
        c = self.counts
        c["style_balance.batches"] += 1
        c["style_balance.moves"] += len(plan.moves)
        c["style_balance.skipped"] += len(plan.skipped)
        c["style_balance.capped"] += len(plan.warnings)
        c["style_balance.degenerate"] += sum(1 for mv in plan.moves if mv.degenerate)
        c["style_balance.distance_evals"] += plan.distance_evals

    def _ts_counts(self, args, out):
        self.counts["test_time_shift.ts_apply.calls"] += 1
        self.counts["test_time_shift.shifted"] += bool(out[1].shifted)

    def _sweep_point(self, args, out):
        if self.parent_name() == "cli.sweep":
            self.counts["cli.sweep.points"] += 1

    def _backward_wrapper(self, backward):
        def traced_backward(var, seed=None):
            if self.parent_name() == "micro_net.train":
                self.counts["micro_net.train.steps"] += 1
            return self.call("autodiff.backward", backward, var, seed)

        return traced_backward

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Per span name: inclusive seconds and self seconds (duration minus
        the time its direct children cover)."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return total, own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values from the spans and counters of one traced run."""
    total, own = tracer.totals()
    c = tracer.counts
    m: dict[str, float] = {}
    conv_s = 0.0
    gflop = 0.0
    for blk in BLOCKS:
        key = f"autodiff.conv2d.{blk}"
        for phase in ("fwd", "bwd"):
            m[f"{key}.{phase}_s"] = total[f"{key}.{phase}"]
            conv_s += total[f"{key}.{phase}"]
        m[f"{key}.gflop"] = c[f"{key}.flop"] / 1e9
        m[f"{key}.mbytes"] = c[f"{key}.bytes"] / 1e6
        gflop += c[f"{key}.flop"] / 1e9
    m["autodiff.conv2d.gflop"] = gflop
    m["autodiff.conv2d.gflop_per_s"] = gflop / conv_s if conv_s else 0.0
    for op in ("relu", "avg_pool2", "head", "loss", "elementwise"):
        for phase in ("fwd", "bwd"):
            m[f"autodiff.{op}.{phase}_s"] = total[f"autodiff.{op}.{phase}"]
    m["autodiff.elementwise.calls"] = c["autodiff.elementwise.calls"]
    m["autodiff.backward.self_s"] = own["autodiff.backward"]
    m["autodiff.backward.nodes"] = c["autodiff.backward.nodes"]

    m["micro_net.train.self_s"] = own["micro_net.train"]
    m["micro_net.train.calls"] = c["micro_net.train.calls"]
    m["micro_net.train.steps"] = c["micro_net.train.steps"]
    m["micro_net.forward.self_s"] = own["micro_net.forward"]
    m["micro_net.evaluate.self_s"] = own["micro_net.evaluate"]
    m["micro_net.style_vectors_at_s"] = total["micro_net.style_vectors_at"]

    m["style_balance.plan_s"] = total["style_balance.plan"]
    m["style_balance.select_s"] = total["style_balance.select"]
    m["style_balance.apply.fwd_s"] = total["style_balance.apply.fwd"]
    m["style_balance.apply.bwd_s"] = total["style_balance.apply.bwd"]
    for key in ("batches", "moves", "skipped", "capped", "degenerate", "distance_evals"):
        m[f"style_balance.{key}"] = c[f"style_balance.{key}"]
    attempts = c["style_balance.moves"] + c["style_balance.skipped"]
    m["style_balance.move_yield"] = c["style_balance.moves"] / attempts if attempts else 0.0

    for kind in ("dsu", "mixstyle", "efdmix"):
        m[f"style_ops.{kind}.fwd_s"] = total[f"style_ops.{kind}.fwd"]
        m[f"style_ops.{kind}.fired"] = c[f"style_ops.{kind}.fired"]
    m["style_ops.adain_s"] = total["style_ops.adain"]

    m["tensor_core.batch_style_vectors_s"] = total["tensor_core.batch_style_vectors"]
    m["tensor_core.style_vector_s"] = total["tensor_core.style_vector"]
    m["tensor_core.style_vector.calls"] = c["tensor_core.style_vector.calls"]

    calls = c["test_time_shift.ts_apply.calls"]
    m["test_time_shift.ts_apply.self_s"] = own["test_time_shift.ts_apply"]
    m["test_time_shift.ts_apply.calls"] = calls
    m["test_time_shift.decide_s"] = total["test_time_shift.decide"]
    m["test_time_shift.build_registry_s"] = total["test_time_shift.build_registry"]
    m["test_time_shift.shifted"] = c["test_time_shift.shifted"]
    m["test_time_shift.shift_ratio"] = c["test_time_shift.shifted"] / calls if calls else 0.0

    for key in ("render", "write_pnm", "read_pnm"):
        m[f"domain_data.{key}_s"] = total[f"domain_data.{key}"]
    m["domain_data.images"] = c["domain_data.images"]

    m["experiment.run_seed.self_s"] = own["experiment.run_seed"]
    m["experiment.generate_data_s"] = total["experiment.generate_data"]
    m["experiment.load_split_s"] = total["experiment.load_split"]
    m["cli.sweep.self_s"] = own["cli.sweep"]
    m["cli.sweep.points"] = c["cli.sweep.points"]
    return m
