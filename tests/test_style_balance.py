import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fd_grad, rel_err, weighted_sum
from styleshift import style_balance as sb
from styleshift import style_ops as so
from styleshift import tensor_core as tc
from styleshift.autodiff import Var
from styleshift.errors import CarrierUnavailableError, StyleShiftError

RNG = lambda seed: np.random.Generator(np.random.PCG64(seed))


def brute_force_selection(styles, m):
    """Independent re-implementation of the iterative pair selection,
    recomputing every pairwise distance from scratch each round."""
    styles = np.asarray(styles, dtype=np.float64)
    pool = list(range(len(styles)))
    if len(pool) < 2:
        return []
    m = min(m, len(pool) - 1)
    picked = []
    for _ in range(m):
        best, best_d = None, np.inf
        for a in range(len(pool)):
            for b in range(a + 1, len(pool)):
                i, j = pool[a], pool[b]
                d = float(np.linalg.norm(styles[i] - styles[j]))
                if d < best_d:
                    best_d, best = d, (i, j)
        i_star, j_star = best
        others = [z for z in pool if z != i_star and z != j_star]
        min_i = min((float(np.linalg.norm(styles[z] - styles[i_star])) for z in others),
                    default=np.inf)
        min_j = min((float(np.linalg.norm(styles[z] - styles[j_star])) for z in others),
                    default=np.inf)
        pick = i_star if min_i < min_j else j_star
        picked.append(pick)
        pool.remove(pick)
    return picked


# -- targets -------------------------------------------------------------------

def test_compute_targets_integer_average():
    t = sb.compute_targets([6, 2, 1])
    assert t.q == pytest.approx(3.0)
    np.testing.assert_array_equal(t.targets, [3, 3, 3])


def test_compute_targets_remainder_to_largest():
    t = sb.compute_targets([4, 2, 1])
    assert t.q == pytest.approx(7 / 3)
    np.testing.assert_array_equal(t.targets, [3, 2, 2])


def test_compute_targets_single_domain_class():
    t = sb.compute_targets([5, 0, 0])
    np.testing.assert_array_equal(t.targets, [2, 2, 1])


def test_compute_targets_invariants():
    rng = RNG(0)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        counts = rng.integers(0, 13, size=n)
        t = sb.compute_targets(counts)
        assert t.targets.sum() == counts.sum()
        assert np.all(np.abs(t.targets - t.q) < 1.0)


def test_compute_targets_all_zero_is_noop():
    t = sb.compute_targets([0, 0, 0])
    np.testing.assert_array_equal(t.targets, [0, 0, 0])


def test_compute_targets_needs_two_domains():
    with pytest.raises(ValueError):
        sb.compute_targets([4])


# -- move slots -------------------------------------------------------------------

def greedy_move_matrix(counts, targets):
    """Reference plan, the loop the planner used before ``move_slots``: each
    surplus domain, in ascending id, fills the remaining deficits in
    ascending id. Returns {(src, dst): count}."""
    deficits = {d: int(targets[d] - counts[d]) for d in range(len(counts))
                if targets[d] > counts[d]}
    matrix = {}
    for src in range(len(counts)):
        give = int(counts[src] - targets[src])
        if give <= 0:
            continue
        for dst in sorted(deficits):
            if give == 0:
                break
            take = min(give, deficits[dst])
            if take > 0:
                matrix[(src, dst)] = take
                deficits[dst] -= take
                give -= take
    return matrix


def slot_pairs(counts):
    src, dst = sb.move_slots(counts, sb.compute_targets(counts).targets)
    return list(zip(src.tolist(), dst.tolist()))


def test_move_slots_hand_case():
    assert slot_pairs([6, 2, 1]) == [(0, 1), (0, 2), (0, 2)]


def test_move_slots_balanced_is_empty():
    assert slot_pairs([3, 3, 3]) == []


def test_move_slots_second_hand_case():
    assert slot_pairs([4, 2, 1]) == [(0, 2)]


def test_move_slots_checks_totals():
    with pytest.raises(StyleShiftError):
        sb.move_slots([4, 2], sb.compute_targets([5, 2]).targets)


def test_move_slots_flow_conservation():
    rng = RNG(1)
    for _ in range(100):
        counts = rng.integers(0, 10, size=int(rng.integers(2, 6)))
        targets = sb.compute_targets(counts).targets
        src, dst = sb.move_slots(counts, targets)
        assert np.all(src != dst)
        out = np.bincount(src, minlength=len(counts))
        into = np.bincount(dst, minlength=len(counts))
        np.testing.assert_array_equal(counts - out + into, targets)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=2, max_size=5))
def test_move_slots_equal_the_greedy_reference(counts):
    targets = sb.compute_targets(counts).targets
    want = [pair for pair, n in greedy_move_matrix(counts, targets).items()
            for _ in range(n)]
    assert slot_pairs(counts) == want


# -- selection ----------------------------------------------------------------------

def test_select_samples_spec_example():
    styles = np.array([[0.0], [0.1], [0.5], [1.0]])
    res = sb.select_samples(styles, 1)
    assert res.selected == [1]
    assert not res.capped


def test_select_samples_zero_distance_pair():
    styles = np.array([[0.0], [5.0], [5.0], [9.0]])
    res = sb.select_samples(styles, 1)
    assert res.selected[0] in (1, 2)


def test_select_samples_m_zero():
    res = sb.select_samples(np.zeros((4, 2)), 0)
    assert res.selected == [] and not res.capped


def test_select_samples_caps_at_pool_minus_one():
    styles = RNG(2).normal(size=(3, 2))
    res = sb.select_samples(styles, 5)
    assert res.capped and len(res.selected) == 2


def test_select_samples_matches_brute_force():
    rng = RNG(3)
    for _ in range(300):
        p = int(rng.integers(2, 13))
        styles = rng.normal(size=(p, int(rng.integers(1, 5))))
        m = int(rng.integers(0, p))
        assert sb.select_samples(styles, m).selected == brute_force_selection(styles, m)


def test_select_samples_brute_force_with_ties():
    rng = RNG(4)
    for _ in range(100):
        p = int(rng.integers(3, 10))
        styles = rng.integers(0, 3, size=(p, 2)).astype(float)  # many exact ties
        m = int(rng.integers(1, p))
        assert sb.select_samples(styles, m).selected == brute_force_selection(styles, m)


# -- carriers ----------------------------------------------------------------------

def _meta(domains, classes, n_domains=None, n_classes=None):
    domains = np.asarray(domains)
    classes = np.asarray(classes)
    return sb.BatchMeta(domains, classes,
                        n_domains or int(domains.max()) + 1,
                        n_classes or int(classes.max()) + 1)


def test_pick_style_carriers_two_candidates():
    meta = _meta([0, 1, 1], [0, 0, 0])
    c1, c2, degenerate = sb.pick_style_carriers(meta, 1, RNG(5))
    assert {c1, c2} == {1, 2} and not degenerate


def test_pick_style_carriers_degenerate_single():
    meta = _meta([0, 1], [0, 0])
    c1, c2, degenerate = sb.pick_style_carriers(meta, 1, RNG(6))
    assert c1 == c2 == 1 and degenerate


def test_pick_style_carriers_unavailable():
    meta = _meta([0, 0], [0, 0], n_domains=2)
    with pytest.raises(CarrierUnavailableError):
        sb.pick_style_carriers(meta, 1, RNG(7))


def test_pick_style_carriers_uniform_over_pairs():
    meta = _meta([0, 1, 1, 1, 1], [0, 0, 0, 0, 0])
    rng = RNG(8)
    freq = {}
    draws = 10_000
    for _ in range(draws):
        c1, c2, _ = sb.pick_style_carriers(meta, 1, rng)
        key = tuple(sorted((c1, c2)))
        freq[key] = freq.get(key, 0) + 1
    assert len(freq) == 6
    for count in freq.values():
        assert abs(count / draws - 1 / 6) < 0.02


# -- the SB transform (sb_apply_var) --------------------------------------------

def _restyle(f, f1, f2, lam):
    """Forward value of sample f after one move with carriers f1 and f2."""
    move = sb.Move(sample=0, src=0, dst=1, cls=0, lam=lam, carrier1=1, carrier2=2)
    out, _ = sb.sb_apply_var(Var(np.stack([f, f1, f2])), [move])
    return out.value[0]


def test_sb_transform_identity_carriers():
    rng = RNG(9)
    f = rng.normal(size=(2, 3, 3))
    np.testing.assert_allclose(_restyle(f, f, f, 0.37), f, rtol=1e-12, atol=1e-12)


def test_sb_transform_lambda_one_is_efdm():
    rng = RNG(10)
    f, f1, f2 = rng.normal(size=(3, 2, 3, 3))
    out = _restyle(f, f1, f2, 1.0)
    for c in range(2):
        np.testing.assert_array_equal(out[c].ravel(),
                                      so.efdmix(f[c].ravel(), f1[c].ravel(), 0.0))


def test_sb_transform_hand_case():
    f = np.array([[[3.0, 1.0, 2.0]]])
    f1 = np.array([[[10.0, 30.0, 20.0]]])
    f2 = np.array([[[100.0, 300.0, 200.0]]])
    out = _restyle(f, f1, f2, 0.5)
    np.testing.assert_allclose(out.ravel(), [165.0, 55.0, 110.0])


def test_sb_transform_gradient_contract():
    rng = RNG(11)
    batch = rng.normal(size=(3, 2, 2, 3))
    lam = 0.3
    moves = [sb.Move(sample=0, src=0, dst=1, cls=0, lam=lam, carrier1=1, carrier2=2)]
    w = rng.normal(size=batch.shape)
    x = Var(batch.copy())
    out, state = sb.sb_apply_var(x, moves)
    weighted_sum(out, w).backward()

    # unit coefficient straight through to the moved sample
    np.testing.assert_allclose(x.grad[0], w[0], atol=1e-12)

    # finite differences of the frozen replay (permutations and the detached
    # copy held at their recorded values)
    def f(xx):
        v, _ = sb.sb_apply_var(Var(xx), moves, frozen=state)
        return float(np.sum(w * v.value))

    assert rel_err(fd_grad(f, batch.copy()), x.grad) < 1e-4


def test_sb_apply_var_degenerate_carriers_accumulate():
    rng = RNG(12)
    batch = rng.normal(size=(2, 1, 2, 2))
    moves = [sb.Move(sample=0, src=0, dst=1, cls=0, lam=0.25,
                     carrier1=1, carrier2=1, degenerate=True)]
    w = rng.normal(size=batch.shape)
    x = Var(batch.copy())
    out, state = sb.sb_apply_var(x, moves)
    weighted_sum(out, w).backward()

    def f(xx):
        v, _ = sb.sb_apply_var(Var(xx), moves, frozen=state)
        return float(np.sum(w * v.value))

    assert rel_err(fd_grad(f, batch.copy()), x.grad) < 1e-4


# -- whole-batch balancing ------------------------------------------------------

def _random_batch(rng, n_domains, n_classes, batch_size, c=2, hw=3):
    x = rng.normal(size=(batch_size, c, hw, hw))
    domains = rng.integers(0, n_domains, size=batch_size)
    domains[:n_domains] = np.arange(n_domains)  # every domain present
    classes = rng.integers(0, n_classes, size=batch_size)
    meta = _meta(domains, classes, n_domains, n_classes)
    return x, meta


def test_style_balance_batch_balanced_is_identity():
    rng = RNG(13)
    x = rng.normal(size=(6, 2, 3, 3))
    meta = _meta([0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1], 3, 2)
    out, plan = sb.style_balance_batch(x, meta, RNG(14))
    np.testing.assert_array_equal(out, x)
    assert plan.moves == []


def test_style_balance_batch_single_domain_class():
    rng = RNG(15)
    x = rng.normal(size=(8, 2, 3, 3))
    # class 0 lives only in domain 0 (6 samples); domains 1, 2 hold class 1
    domains = np.array([0, 0, 0, 0, 0, 0, 1, 2])
    classes = np.array([0, 0, 0, 0, 0, 0, 1, 1])
    meta = _meta(domains, classes, 3, 2)
    out, plan = sb.style_balance_batch(x, meta, RNG(16))
    moved = [mv for mv in plan.moves if mv.cls == 0]
    assert len(moved) == 4
    assert sorted(mv.dst for mv in moved) == [1, 1, 2, 2]
    counts = sb.effective_counts(meta, plan)
    np.testing.assert_array_equal(counts[:, 0], [2, 2, 2])


def test_style_balance_batch_counts_match_targets():
    rng = RNG(17)
    for trial in range(50):
        n_domains = int(rng.integers(2, 5))
        n_classes = int(rng.integers(2, 4))
        x, meta = _random_batch(rng, n_domains, n_classes, int(rng.integers(12, 33)))
        out, plan = sb.style_balance_batch(x, meta, RNG(1000 + trial))
        assert not plan.skipped  # all domains present, so no carrier failures
        counts = sb.effective_counts(meta, plan)
        for k in range(n_classes):
            orig = np.bincount(meta.domains[meta.classes == k], minlength=n_domains)
            target = sb.compute_targets(orig).targets
            np.testing.assert_array_equal(counts[:, k], target)
            assert counts[:, k].sum() == orig.sum()  # conservation


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), n_domains=st.integers(2, 4), n_classes=st.integers(1, 3),
       layout=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=24))
def test_balance_plan_properties_over_random_layouts(seed, n_domains, n_classes, layout):
    # domains and classes are drawn freely, so some domains miss the batch
    # and moves into them are skipped
    domains = np.array([d % n_domains for d, _ in layout])
    classes = np.array([c % n_classes for _, c in layout])
    meta = _meta(domains, classes, n_domains, n_classes)
    styles = RNG(seed).normal(size=(len(layout), 4))
    plan = sb.build_balance_plan(styles, meta, RNG(seed + 1))
    for mv in plan.moves:
        assert mv.src != mv.dst
        assert meta.domains[mv.sample] == mv.src and meta.classes[mv.sample] == mv.cls
        assert meta.domains[mv.carrier1] == mv.dst and meta.domains[mv.carrier2] == mv.dst
    assert plan.warnings == []  # a surplus domain keeps a sample: no move is capped
    counts = sb.effective_counts(meta, plan)
    for skip in plan.skipped:
        assert not np.any(meta.domains == skip["to"])
        counts[skip["from"], skip["class"]] -= 1
        counts[skip["to"], skip["class"]] += 1
    for k in range(n_classes):
        orig = np.bincount(domains[classes == k], minlength=n_domains)
        np.testing.assert_array_equal(counts[:, k], sb.compute_targets(orig).targets)


def test_style_balance_batch_untouched_rows_pass_through():
    rng = RNG(18)
    x, meta = _random_batch(rng, 3, 2, 18)
    out, plan = sb.style_balance_batch(x, meta, RNG(19))
    moved = {mv.sample for mv in plan.moves}
    for b in range(18):
        if b not in moved:
            np.testing.assert_array_equal(out[b], x[b])


def test_style_balance_stats_transplant():
    rng = RNG(20)
    x, meta = _random_batch(rng, 3, 2, 18, c=2, hw=4)
    out, plan = sb.style_balance_batch(x, meta, RNG(21))
    assert plan.moves
    for mv in plan.moves:
        for c in range(2):
            got = np.sort(out[mv.sample, c].ravel())
            mix = mv.lam * np.sort(x[mv.carrier1, c].ravel()) \
                + (1 - mv.lam) * np.sort(x[mv.carrier2, c].ravel())
            np.testing.assert_array_equal(got, mix)


def test_style_balance_pure_efdm_case_stats():
    rng = RNG(22)
    x = rng.normal(size=(4, 2, 3, 3))
    out = _restyle(x[0], x[2], x[2], 0.7)
    np.testing.assert_allclose(tc.style_vector(out), tc.style_vector(x[2]), atol=1e-6)


def test_move_plan_audit_schema():
    rng = RNG(23)
    x, meta = _random_batch(rng, 3, 3, 24)
    _, plan = sb.style_balance_batch(x, meta, RNG(24))
    rows = plan.to_audit_dicts()
    assert rows
    for row in rows:
        json.dumps(row)  # serializable
        assert set(row) == {"class", "moves"}
        for mv in row["moves"]:
            assert set(mv) == {"sample", "from", "to", "lambda", "degenerate"}
            assert 0.0 <= mv["lambda"] <= 1.0


def test_distance_work_scales_quadratically():
    # fixed N*K = 4; per-cell sizes proportional to B => work grows as B^2
    work = {}
    for batch in (32, 64, 128):
        u = batch // 8
        rng = RNG(25)
        x = rng.normal(size=(batch, 1, 2, 2))
        domains = np.concatenate([np.repeat([0, 1], [3 * u, u]),
                                  np.repeat([0, 1], [u, 3 * u])])
        classes = np.repeat([0, 1], 4 * u)
        meta = _meta(domains, classes, 2, 2)
        _, plan = sb.style_balance_batch(x, meta, RNG(26))
        work[batch] = plan.distance_evals
    assert work[64] == pytest.approx(4 * work[32], rel=0.10)
    assert work[128] == pytest.approx(16 * work[32], rel=0.10)


def test_determinism_same_seed_same_plan():
    rng = RNG(27)
    x, meta = _random_batch(rng, 3, 2, 20)
    out1, plan1 = sb.style_balance_batch(x, meta, RNG(99))
    out2, plan2 = sb.style_balance_batch(x, meta, RNG(99))
    np.testing.assert_array_equal(out1, out2)
    assert [mv.to_dict() for mv in plan1.moves] == [mv.to_dict() for mv in plan2.moves]
