"""Command-line experiment harness.

Subcommands: gen-data, train, stats, eval, sweep, report. All artifacts land
under --workdir; outputs are byte-stable for identical inputs and seeds, and
wall-clock timings go to a sidecar .log next to each primary output.
Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import domain_data as dd
from . import micro_net as mn
from . import test_time_shift as tts
from .errors import ConfigError, StyleShiftError
from .experiment import (
    DataConfig,
    EvalConfig,
    ExperimentConfig,
    evaluate_rows,
    fitted_net,
    generate_data,
    load_split,
    method_label,
    registry_stage,
    run_seed,
    source_split,
    train_stage,
)
from .tensor_core import from_json, read_json

EVAL_COLUMNS = ("method", "target", "seed", "accuracy", "shift_rate")


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(columns)
        out.writerows([_fmt(row[c]) for c in columns] for row in rows)


def append_sidecar(path: Path, message: str) -> None:
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(str(path) + ".log", "a") as fh:
        fh.write(f"{stamp} {message}\n")


def _load_dataset(workdir: Path, dataset: str) -> tuple[dd.DatasetManifest, Path]:
    root = workdir / dataset
    return dd.load_manifest(root / "manifest.json"), root


# -- commands -------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    workdir = Path(args.workdir)
    cfg = from_json(DataConfig, read_json(workdir / args.config))
    out = workdir / args.out
    t0 = time.perf_counter()
    manifest = generate_data(cfg, out, args.seed)
    append_sidecar(out / "manifest.json",
                   f"gen-data seed={args.seed} samples={len(manifest.samples)} "
                   f"wall={time.perf_counter() - t0:.2f}s")
    print(f"wrote {len(manifest.samples)} samples to {out}")
    return 0


def cmd_train(args) -> int:
    workdir = Path(args.workdir)
    doc = read_json(workdir / args.config)
    dataset = doc.pop("dataset", "data")
    if type(dataset) is not str:
        raise ConfigError(f"dataset must be a JSON string, got {dataset!r}")
    cfg = from_json(ExperimentConfig, doc)
    manifest, root = _load_dataset(workdir, dataset)
    t0 = time.perf_counter()
    net, metrics, _ = train_stage(cfg, manifest, root, cfg.train.seed)

    ckpt = workdir / args.out_checkpoint
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    net.save(ckpt)

    audit = workdir / args.audit_log
    audit.parent.mkdir(parents=True, exist_ok=True)
    with open(audit, "w") as fh:
        for rec in metrics.audit:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    metrics_csv = workdir / (args.metrics_csv or (str(args.out_checkpoint) + ".epochs.csv"))
    write_csv(metrics_csv, ("epoch", "loss", "accuracy"), metrics.epochs)
    append_sidecar(ckpt, f"train wall={time.perf_counter() - t0:.2f}s "
                         f"final_acc={metrics.epochs[-1]['accuracy']:.4f}")
    print(f"checkpoint {ckpt} | final train accuracy "
          f"{metrics.epochs[-1]['accuracy']:.4f} | {len(metrics.audit)} balancing records")
    return 0


def cmd_stats(args) -> int:
    workdir = Path(args.workdir)
    alpha = None if args.alpha is None else tts.checked_alpha(args.alpha)  # before any read
    net = mn.MicroNet.load(workdir / args.checkpoint)
    manifest, root = _load_dataset(workdir, args.dataset)
    protocol = "single_domain" if args.single_domain else "leave_one_out"
    split = source_split(manifest, root, protocol, args.pseudo_labels, net.tags.seed)
    registry, _ = registry_stage(net, split, args.layer, alpha, args.pseudo_labels)
    out = workdir / args.out_registry
    out.parent.mkdir(parents=True, exist_ok=True)
    tts.save_registry(registry, out)
    print(f"registry {out}: layer={registry.layer} alpha={registry.alpha_default} "
          f"spread={registry.spread!r}")
    for i, name in enumerate(registry.names):
        print(f"  {name}: |centroid| = {float(np.linalg.norm(registry.centroids[i]))!r}")
    return 0


def cmd_eval(args) -> int:
    workdir = Path(args.workdir)
    # the flags are checked before any file is read
    flags = EvalConfig(mode=args.mode, alpha=args.alpha, pool_size=args.pool_size)
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    mode = tts.ShiftMode(flags.mode, flags.pool_size)
    net = mn.MicroNet.load(workdir / args.checkpoint)
    registry = tts.load_registry(workdir / args.registry)
    manifest, root = _load_dataset(workdir, args.dataset)
    label = args.method_label or method_label(net.tags.sb, mode.kind, net.tags.aug)
    t0 = time.perf_counter()
    rows = evaluate_rows(net, registry, manifest, root, load_split(manifest, root, "test"), mode,
                         [flags.alpha], args.seed, label, net.tags.seed)[0]
    out = workdir / args.out_csv
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, EVAL_COLUMNS, rows)
    append_sidecar(out, f"eval mode={args.mode} pool_seed={args.seed} "
                        f"wall={time.perf_counter() - t0:.2f}s")
    for row in rows:
        print(f"{row['target']}: accuracy {row['accuracy']:.4f} "
              f"shift_rate {row['shift_rate']:.4f}")
    return 0


# -- sweep ---------------------------------------------------------------------

def apply_sweep_param(cfg: ExperimentConfig, param: str, value: float) -> ExperimentConfig:
    if param == "alpha":
        return replace(cfg, eval=replace(cfg.eval, alpha=value))
    if param == "keep_fraction":
        imbalance = dd.ImbalanceSpec(kind="data", keep_fraction=value)
        return replace(cfg, data=replace(cfg.data, imbalance=imbalance))
    raise ConfigError(f"unknown sweep parameter {param!r}")


def _sweep_task(points, seed: int, workdir) -> list[dict]:
    """Train one seed at the first (value, config) point and evaluate it at
    every point's alpha: the points of an alpha sweep differ only there, and
    any other sweep gives a task one point."""
    outcome = run_seed(points[0][1], seed, workdir, [cfg.eval.alpha for _, cfg in points])
    return [{"value": value, **row}
            for (value, _), rows in zip(points, outcome.rows_per_alpha) for row in rows]


def cmd_sweep(args) -> int:
    workdir = Path(args.workdir)
    cfg = from_json(ExperimentConfig, read_json(workdir / args.config))
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc
    if not values:
        raise ConfigError("--values is empty")
    # every point's config is built, and so checked, before the first gen-data
    points = [(value, apply_sweep_param(cfg, args.param, value)) for value in values]
    for _, point in points:
        fitted_net(point.net, point.data.image_size, point.data.n_classes)
    sweep_dir = workdir / args.out_dir
    if args.param == "alpha":  # alpha changes only evaluation: train once per seed
        tasks = [(points, seed, sweep_dir) for seed in cfg.seeds]
    else:  # the data changes with the value: train once per point, in its own directory
        names = [f"{args.param}_{value:g}" for value in values]
        if len(set(names)) < len(names):
            raise ConfigError(f"--values {args.values!r} name one point directory twice; "
                              f"values must differ in their first 6 significant digits")
        tasks = [([point], seed, sweep_dir / name)
                 for point, name in zip(points, names) for seed in cfg.seeds]
    t0 = time.perf_counter()
    rows = [{"param": args.param, **row} for task in tasks for row in _sweep_task(*task)]
    rows.sort(key=lambda r: (r["param"], r["value"], r["seed"], r["target"]))
    out = workdir / args.out_csv
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, ("param", "value") + EVAL_COLUMNS, rows)
    append_sidecar(out, f"sweep {args.param} x{len(values)} seeds x{len(cfg.seeds)} "
                        f"wall={time.perf_counter() - t0:.2f}s")
    print(f"swept {args.param} over {values}: {len(rows)} rows -> {out}")
    return 0


# -- report ---------------------------------------------------------------------

SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_chart(series: dict[str, list[tuple[float, float]]], x_label: str,
               y_label: str) -> str:
    # imported here: saxutils imports urllib.request, 7 MB that no other command needs
    from xml.sax.saxutils import escape
    width, height, margin = 640, 420, 60
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys + [1e-9])
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{escape(x_label)}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{escape(y_label)}</text>',
    ]
    for tick in (x_lo, (x_lo + x_hi) / 2, x_hi):
        parts.append(f'<text x="{px(tick):.1f}" y="{height - margin + 18}" '
                     f'text-anchor="middle" font-size="11">{tick:g}</text>')
    for tick in (y_lo, (y_lo + y_hi) / 2, y_hi):
        parts.append(f'<text x="{margin - 6}" y="{py(tick) + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{tick:.3g}</text>')
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = SVG_COLORS[i % len(SVG_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in sorted(pts))
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 16 * i + 4}" '
                     f'font-size="11" fill="{color}">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _report_cell(row: dict, col: str, where: str) -> str:
    if row[col] is None:  # csv.DictReader's fill for a row short of fields
        raise ConfigError(f"{where}: no value in column {col!r}; the row has fewer fields "
                          f"than the header")
    return row[col]


def _report_number(text: str, col: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value):
        raise ConfigError(f"{where}: column {col!r} holds {text!r}, not a finite number")
    return value


def cmd_report(args) -> int:
    workdir = Path(args.workdir)
    in_path = workdir / args.in_csv
    try:
        with open(in_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read {in_path}: {exc}") from exc
    if not rows:
        raise StyleShiftError(f"input CSV {in_path} has no data rows")
    series_col = args.series_col
    if series_col is None:  # omitted: group by method where the CSV has one
        series_col = "method" if "method" in rows[0] else None
    for col in (args.x_col, args.y_col, series_col):
        if col is not None and col not in rows[0]:
            raise ConfigError(f"column {col!r} not in {sorted(rows[0])}")
    groups: dict[tuple[str, float], list[float]] = {}
    for i, row in enumerate(rows, 1):
        where = f"{in_path} data row {i}"
        series = "all" if series_col is None else _report_cell(row, series_col, where)
        x, y = (_report_number(_report_cell(row, col, where), col, where)
                for col in (args.x_col, args.y_col))
        groups.setdefault((series, x), []).append(y)
    means = [{"series": s, args.x_col: x,
              f"mean_{args.y_col}": float(np.mean(vals)), "n": len(vals)}
             for (s, x), vals in sorted(groups.items())]
    out_csv = workdir / (args.out_csv or (str(args.in_csv) + ".means.csv"))
    write_csv(out_csv, ("series", args.x_col, f"mean_{args.y_col}", "n"), means)
    series: dict[str, list[tuple[float, float]]] = {}
    for rec in means:
        series.setdefault(rec["series"], []).append(
            (rec[args.x_col], rec[f"mean_{args.y_col}"]))
    out_svg = workdir / args.out_svg
    out_svg.write_text(_svg_chart(series, args.x_col, f"mean {args.y_col}"))
    print(f"report: {len(means)} grouped rows -> {out_csv}, chart -> {out_svg}")
    return 0


# -- entry point -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="styleshift",
        description="Synthetic domain-generalization experiments with style "
                    "balancing and test-time style shifting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic multi-domain dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a classifier per a train-config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--audit-log", required=True)
    p.add_argument("--metrics-csv", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("stats", help="build a style registry from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--layer", default="block2")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out-registry", required=True)
    p.add_argument("--pseudo-labels", type=int, default=None)
    p.add_argument("--single-domain", action="store_true")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("eval", help="evaluate a checkpoint under a shift mode")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--registry", required=True)
    p.add_argument("--mode", default="proposed")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--pool-size", type=int, default=tts.DEFAULT_NEAREST_POOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method-label", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="run an experiment grid over one parameter")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, choices=("alpha", "keep_fraction"))
    p.add_argument("--values", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-dir", default="sweep")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="grouped means and an SVG line chart")
    p.add_argument("--in-csv", required=True)
    p.add_argument("--out-svg", required=True)
    p.add_argument("--out-csv", default=None)
    p.add_argument("--x-col", default="value")
    p.add_argument("--y-col", default="accuracy")
    p.add_argument("--series-col", default=None)
    p.set_defaults(fn=cmd_report)

    for sp in sub.choices.values():
        sp.add_argument("--workdir", default=".")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (StyleShiftError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
