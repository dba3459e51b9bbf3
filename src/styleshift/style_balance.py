"""Training-time style balancing.

Within each mini-batch and for each class independently, per-domain sample
counts are equalized by restyling redundant samples from surplus domains as
members of deficit domains. Redundancy is judged by style-vector proximity:
the iterative selection repeatedly finds the closest pair and removes the
member whose next-nearest neighbour is closer. A selected sample is restyled
by sorted-value mixing of two randomly chosen carrier samples from the
destination domain; gradient passes straight through to the moved sample
(coefficient 1) and with weights lam / 1-lam to the carriers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Var
from .errors import CarrierUnavailableError, DimensionError, StyleShiftError
from .style_ops import DEFAULT_LAMBDA_SHAPE, sample_lambda, sort_permutation
from .tensor_core import batch_style_vectors

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BatchMeta:
    """Per-sample domain and class ids for one mini-batch (0-based)."""

    domains: np.ndarray
    classes: np.ndarray
    n_domains: int
    n_classes: int

    def __post_init__(self):
        d = np.asarray(self.domains, dtype=np.intp)
        c = np.asarray(self.classes, dtype=np.intp)
        if d.shape != c.shape or d.ndim != 1:
            raise DimensionError("domain/class label arrays must be equal-length 1-D")
        if self.n_domains < 1 or self.n_classes < 1:
            raise ValueError("n_domains and n_classes must be positive")
        if d.size and (d.min() < 0 or d.max() >= self.n_domains):
            raise ValueError("domain id out of range")
        if c.size and (c.min() < 0 or c.max() >= self.n_classes):
            raise ValueError("class id out of range")
        object.__setattr__(self, "domains", d)
        object.__setattr__(self, "classes", c)

    @property
    def batch_size(self) -> int:
        return self.domains.shape[0]


@dataclass(frozen=True)
class BalanceTargets:
    """Integer per-domain targets for one class, summing to the class total."""

    q: float
    targets: np.ndarray


@dataclass
class Move:
    sample: int
    src: int
    dst: int
    cls: int
    lam: float
    carrier1: int
    carrier2: int
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "sample": int(self.sample),
            "from": int(self.src),
            "to": int(self.dst),
            "lambda": float(self.lam),
            "degenerate": bool(self.degenerate),
        }


@dataclass
class MovePlan:
    """Executed (and skipped) moves for one batch, plus instrumentation."""

    moves: list[Move] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    distance_evals: int = 0

    def to_audit_dicts(self) -> list[dict]:
        """One dict per class that attempted moves: {class, moves: [...]}."""
        by_class: dict[int, list[Move]] = {}
        for mv in self.moves:
            by_class.setdefault(mv.cls, []).append(mv)
        return [
            {"class": int(k), "moves": [mv.to_dict() for mv in moves]}
            for k, moves in sorted(by_class.items())
        ]


@dataclass
class SelectionResult:
    selected: list[int]
    capped: bool
    distance_evals: int


def compute_targets(counts) -> BalanceTargets:
    """Per-domain targets for one class: floor of the average everywhere,
    with the remainder given to the domains holding the most samples
    (ties broken by ascending domain id). Minimizes the number of moves."""
    counts = np.asarray(counts, dtype=np.intp)
    n = counts.shape[0]
    if n < 2:
        raise ValueError("balancing needs at least 2 domains")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    total = int(counts.sum())
    q = total / n
    base = total // n
    remainder = total - base * n
    targets = np.full(n, base, dtype=np.intp)
    if remainder:
        order = sorted(range(n), key=lambda i: (-counts[i], i))
        for i in order[:remainder]:
            targets[i] += 1
    return BalanceTargets(q=q, targets=targets)


def move_slots(counts, targets) -> tuple[np.ndarray, np.ndarray]:
    """Greedy per-sample moves for one class as parallel (src, dst) arrays:
    one slot per surplus sample, ascending by source, paired with one slot
    per deficit sample, ascending by destination."""
    counts = np.asarray(counts, dtype=np.intp)
    gap = np.asarray(targets, dtype=np.intp) - counts
    ids = np.arange(counts.shape[0])
    src = np.repeat(ids, np.maximum(-gap, 0))
    dst = np.repeat(ids, np.maximum(gap, 0))
    if src.shape != dst.shape:
        raise StyleShiftError("move plan invariant violated: totals differ")
    return src, dst


def select_samples(styles, m: int) -> SelectionResult:
    """Iteratively pick m redundant pool members by style proximity.

    Each round finds the closest pair (i*, j*) (lexicographically smallest on
    ties) and removes whichever of the two sits closer to the rest of the pool
    (j* on ties). The move count is capped at pool_size - 1 so the domain
    keeps at least one original-style sample.
    """
    styles = np.asarray(styles, dtype=np.float64)
    if styles.ndim != 2:
        raise DimensionError("styles must be a (pool, dim) array")
    pool_size = styles.shape[0]
    if m == 0 or pool_size < 2:
        capped = m > 0
        if capped:
            logger.warning("select_samples: pool of %d cannot move %d samples", pool_size, m)
        return SelectionResult(selected=[], capped=capped, distance_evals=0)
    capped = m > pool_size - 1
    if capped:
        logger.warning(
            "select_samples: move count %d capped at %d (pool keeps one sample)",
            m, pool_size - 1)
        m = pool_size - 1

    diffs = styles[:, None, :] - styles[None, :, :]
    dists = np.sqrt((diffs * diffs).sum(axis=-1))
    evals = pool_size * pool_size  # full pairwise matrix, computed once

    active = list(range(pool_size))
    selected: list[int] = []
    for _ in range(m):
        best = None
        best_d = np.inf
        for a_pos, i in enumerate(active):
            for j in active[a_pos + 1:]:
                if dists[i, j] < best_d:
                    best_d = dists[i, j]
                    best = (i, j)
        i_star, j_star = best
        others = [z for z in active if z != i_star and z != j_star]
        min_i = min((dists[z, i_star] for z in others), default=np.inf)
        min_j = min((dists[z, j_star] for z in others), default=np.inf)
        pick = i_star if min_i < min_j else j_star
        selected.append(pick)
        active.remove(pick)
    return SelectionResult(selected=selected, capped=capped, distance_evals=evals)


def pick_style_carriers(meta: BatchMeta, dst: int,
                        rng: np.random.Generator) -> tuple[int, int, bool]:
    """Two batch indices from domain ``dst`` drawn uniformly without
    replacement (any class). A single candidate is returned twice with the
    degeneracy flag set; zero candidates raise."""
    candidates = np.flatnonzero(meta.domains == dst)
    if candidates.size == 0:
        raise CarrierUnavailableError(f"no sample of domain {dst} in batch")
    if candidates.size == 1:
        only = int(candidates[0])
        return only, only, True
    pair = rng.choice(candidates.size, size=2, replace=False)
    return int(candidates[pair[0]]), int(candidates[pair[1]]), False


def _place_mix(f1: np.ndarray, f2: np.ndarray, lam: float, tau, kappa, eta) -> np.ndarray:
    """lam * f1[kappa] + (1 - lam) * f2[eta], placed at the sort positions tau;
    all arrays are (C, H*W)."""
    mixed = lam * np.take_along_axis(f1, kappa, axis=-1) \
        + (1.0 - lam) * np.take_along_axis(f2, eta, axis=-1)
    out = np.empty_like(f1)
    np.put_along_axis(out, tau, mixed, axis=-1)
    return out


def sb_apply_var(x: Var, moves: list[Move], frozen=None):
    """Apply a move plan to a feature batch with the stop-gradient contract.

    Backward routes the full upstream gradient to each moved sample (identity)
    and lam / 1-lam to its carriers along the matched sort positions. Returns
    (output, state); passing ``state`` back as ``frozen`` replays the
    transform with the original permutations and detached copies held fixed,
    so a replay on the same input reproduces the output bit for bit.
    """
    b, c, h, w = x.value.shape
    out = x.value.copy()
    state = []
    for idx, mv in enumerate(moves):
        f1 = x.value[mv.carrier1].reshape(c, -1)
        f2 = x.value[mv.carrier2].reshape(c, -1)
        if frozen is None:
            base = x.value[mv.sample].copy()
            tau, kappa, eta = (sort_permutation(f) for f in (base.reshape(c, -1), f1, f2))
        else:
            tau, kappa, eta, base = frozen[idx]
        placed = _place_mix(f1, f2, mv.lam, tau, kappa, eta).reshape(c, h, w)
        out[mv.sample] = placed if frozen is None else placed + (x.value[mv.sample] - base)
        state.append((tau, kappa, eta, base))

    perms = [st[:3] for st in state]

    def vjp(g):
        dx = g.copy()
        for mv, (tau, kappa, eta) in zip(moves, perms):
            g_sorted = np.take_along_axis(g[mv.sample].reshape(c, -1), tau, axis=-1)
            d1 = np.zeros((c, h * w))
            np.put_along_axis(d1, kappa, mv.lam * g_sorted, axis=-1)
            dx[mv.carrier1] += d1.reshape(c, h, w)
            d2 = np.zeros((c, h * w))
            np.put_along_axis(d2, eta, (1.0 - mv.lam) * g_sorted, axis=-1)
            dx[mv.carrier2] += d2.reshape(c, h, w)
        return (dx,)

    return Var(out, (x,), vjp), state


def build_balance_plan(styles, meta: BatchMeta, rng: np.random.Generator,
                       lambda_shape: float = DEFAULT_LAMBDA_SHAPE) -> MovePlan:
    """Decide which samples move where for one batch, drawing carriers and
    mixing coefficients; no features are modified."""
    styles = np.asarray(styles, dtype=np.float64)
    if styles.shape[0] != meta.batch_size:
        raise DimensionError("styles/meta batch size mismatch")
    plan = MovePlan()
    for k in range(meta.n_classes):
        in_class = meta.classes == k
        counts = np.bincount(meta.domains[in_class], minlength=meta.n_domains)
        if counts.sum() == 0:
            continue
        srcs, dsts = move_slots(counts, compute_targets(counts).targets)
        for src in np.unique(srcs).tolist():
            destinations = dsts[srcs == src].tolist()
            m = len(destinations)
            cell_ids = np.flatnonzero(in_class & (meta.domains == src))
            result = select_samples(styles[cell_ids], m)
            plan.distance_evals += result.distance_evals
            if result.capped:
                plan.warnings.append(
                    f"class {k} domain {src}: move count {m} capped at {len(result.selected)}")
            for local, dst in zip(result.selected, destinations):
                sample = int(cell_ids[local])
                try:
                    c1, c2, degenerate = pick_style_carriers(meta, dst, rng)
                except CarrierUnavailableError as exc:
                    logger.warning("skipping move of sample %d to domain %d: %s",
                                   sample, dst, exc)
                    plan.skipped.append(
                        {"sample": sample, "from": src, "to": dst, "class": k,
                         "reason": str(exc)})
                    continue
                lam = sample_lambda(rng, lambda_shape)
                plan.moves.append(Move(sample=sample, src=src, dst=dst, cls=k,
                                       lam=lam, carrier1=c1, carrier2=c2,
                                       degenerate=degenerate))
    return plan


def style_balance_batch(batch, meta: BatchMeta, rng: np.random.Generator,
                        lambda_shape: float = DEFAULT_LAMBDA_SHAPE):
    """Balance per-class domain counts in a feature batch.

    Returns (new_batch, MovePlan); samples not scheduled to move pass through
    unchanged.
    """
    x = np.asarray(batch, dtype=np.float64)
    plan = build_balance_plan(batch_style_vectors(x), meta, rng, lambda_shape)
    out, _ = sb_apply_var(Var(x), plan.moves)
    return out.value, plan


def effective_counts(meta: BatchMeta, plan: MovePlan) -> np.ndarray:
    """(n_domains, n_classes) per-cell counts after applying the plan."""
    counts = np.zeros((meta.n_domains, meta.n_classes), dtype=np.intp)
    np.add.at(counts, (meta.domains, meta.classes), 1)
    for mv in plan.moves:
        counts[mv.src, mv.cls] -= 1
        counts[mv.dst, mv.cls] += 1
    return counts
