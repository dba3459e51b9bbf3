"""Reference tests for the autodiff conv, pool and relu layers.

Each op is checked against a direct implementation written for clarity, not
speed: a nested-loop convolution, a reshape-mean pool and ``max(x, 0)``.
The layers take channel-major (C, B, H, W) activations; the NCHW references
get the transposed arrays.
Shapes are drawn with hypothesis so strided, unpadded, odd-sized and
multi-channel cases are covered, not only the network's 3x3/stride-1/pad-1.
The runner that inference runs its chunks on is checked at the end.
"""

import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from styleshift import autodiff as ad
from styleshift.autodiff import Var

from helpers import fd_grad, rel_err, weighted_sum

RNG = lambda seed: np.random.Generator(np.random.PCG64(seed))


def conv_reference(x, w, b, stride, pad):
    """Direct NCHW convolution: one dot product per output element."""
    bs, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    out = np.empty((bs, cout, oh, ow))
    for n in range(bs):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[n, o, i, j] = np.sum(patch * w[o]) + b[o]
    return out


def swap(a):
    """(B, C, H, W) <-> (C, B, H, W)."""
    return a.transpose(1, 0, 2, 3)


def conv_reference_cm(x, w, b, stride, pad):
    return swap(conv_reference(swap(x), w, b, stride, pad))


@st.composite
def conv_cases(draw):
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.sampled_from([0, 1]))
    k = draw(st.sampled_from([1, 3]))
    cin = draw(st.sampled_from([1, 3]))
    cout = draw(st.integers(1, 3))
    batch = draw(st.sampled_from([1, 2, 3]))
    h = draw(st.integers(max(k - 2 * pad, 1), 7))
    wd = draw(st.integers(max(k - 2 * pad, 1), 7))
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(cin, batch, h, wd))   # channel-major, as conv2d takes it
    w = rng.normal(size=(cout, cin, k, k))
    b = rng.normal(size=cout)
    return x, w, b, stride, pad, rng


@settings(max_examples=40, deadline=None)
@given(conv_cases())
def test_conv2d_forward_matches_nested_loops(case):
    x, w, b, stride, pad, _ = case
    out = ad.conv2d(Var(x), Var(w), Var(b), stride=stride, pad=pad).value
    np.testing.assert_allclose(out, conv_reference_cm(x, w, b, stride, pad),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(conv_cases())
def test_conv2d_gradients_match_finite_differences(case):
    x, w, b, stride, pad, rng = case
    probe = rng.normal(size=conv_reference_cm(x, w, b, stride, pad).shape)
    xv, wv, bv = Var(x), Var(w), Var(b)
    weighted_sum(ad.conv2d(xv, wv, bv, stride=stride, pad=pad), probe).backward()

    def loss(xx, ww, bb):
        return float(np.sum(probe * conv_reference_cm(xx, ww, bb, stride, pad)))

    # the loss is linear in each argument, so central differences have no
    # truncation error and a large step keeps rounding noise far below 1e-4
    step = 1e-2
    assert rel_err(xv.grad, fd_grad(lambda v: loss(v, w, b), x.copy(), step)) <= 1e-4
    assert rel_err(wv.grad, fd_grad(lambda v: loss(x, v, b), w.copy(), step)) <= 1e-4
    assert rel_err(bv.grad, fd_grad(lambda v: loss(x, w, v), b.copy(), step)) <= 1e-4


def test_conv2d_rejects_channel_mismatch():
    with pytest.raises(ValueError):
        ad.conv2d(Var(np.zeros((2, 1, 4, 4))), Var(np.zeros((1, 3, 3, 3))), Var(np.zeros(1)))


@settings(max_examples=40, deadline=None)
@given(cout=st.integers(2, 17), batch=st.integers(1, 64), h=st.integers(1, 32),
       wd=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_conv2d_bias_gradient_has_the_bits_of_the_nchw_sum(cout, batch, h, wd, seed):
    """With 2 or more output channels, conv2d's bias gradient is byte for
    byte the sum over (B, OH, OW) of the same gradient laid out NCHW, so the
    layout does not reach a trained bias."""
    rng = RNG(seed)
    bv = Var(rng.normal(size=cout))
    out = ad.conv2d(rng.normal(size=(1, batch, h, wd)), rng.normal(size=(cout, 1, 1, 1)), bv,
                    pad=0)
    g = rng.normal(size=out.shape)
    out.backward(seed=g)
    want = np.ascontiguousarray(swap(g)).sum(axis=(0, 2, 3))
    assert bv.grad.tobytes() == want.tobytes()


def conv_backward_reference(x, w, g, stride, pad):
    """conv2d's backward as one whole patch gradient: the patch matrix and
    ``dW = g2 @ cols.T``, then ``dcols = W2.T @ g2`` and the col2im that adds
    each kernel offset's rows of ``dcols`` into the padded input gradient,
    offsets in row-major order. Returns (dx, dW, db)."""
    cin, bs, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh, ow = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((cin, kh, kw, bs, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    g2 = g.reshape(cout, bs * oh * ow)
    dw = (g2 @ cols.reshape(cin * kh * kw, -1).T).reshape(w.shape)
    db = np.ascontiguousarray(g.sum(axis=(2, 3)).T).sum(axis=0)
    dcols = (w.reshape(cout, -1).T @ g2).reshape(cin, kh, kw, bs, oh, ow)
    dxp = np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
    return dxp[:, :, pad:pad + h, pad:pad + wd], dw, db


@st.composite
def conv_backward_cases(draw):
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    k = draw(st.sampled_from([1, 3]))
    cin, cout, batch = draw(st.integers(1, 9)), draw(st.integers(2, 17)), draw(st.integers(1, 64))
    h = draw(st.integers(max(k - 2 * pad, 1), 20))
    wd = draw(st.integers(max(k - 2 * pad, 1), 20))
    return cin, cout, batch, h, wd, k, stride, pad, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(conv_backward_cases())
def test_conv2d_gradients_have_the_bits_of_one_whole_patch_gradient(case):
    """conv2d's input, weight and bias gradients are byte for byte those of
    the whole-patch-gradient backward, and so are those of a second run of
    its vjp, which rebuilds the patch matrix that the first run freed."""
    cin, cout, batch, h, wd, k, stride, pad, seed = case
    rng = RNG(seed)
    x, w = rng.normal(size=(cin, batch, h, wd)), rng.normal(size=(cout, cin, k, k))
    b = rng.normal(size=cout)
    out = ad.conv2d(Var(x), Var(w), Var(b), stride=stride, pad=pad)
    g = rng.normal(size=out.shape)
    want = [a.tobytes() for a in conv_backward_reference(x, w, g, stride, pad)]
    for _ in range(2):
        assert [a.tobytes() for a in out._vjp(g)] == want


def pool_reference(x):
    b, c, h, w = x.shape
    return x.reshape(b, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


even = st.integers(1, 4).map(lambda n: 2 * n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), even, even, st.integers(0, 2**32 - 1))
def test_avg_pool2_matches_reshape_mean_and_its_adjoint(batch, ch, h, w, seed):
    rng = RNG(seed)
    x = rng.uniform(-1.0, 1.0, size=(batch, ch, h, w))
    xv = Var(x)
    out = ad.avg_pool2(xv)
    assert np.max(np.abs(out.value - pool_reference(x))) <= 1e-15
    # the backward is the exact adjoint: <pool(x), g> = <x, pool*(g)>
    g = rng.uniform(-1.0, 1.0, size=out.shape)
    out.backward(seed=g)
    lhs, rhs = np.sum(out.value * g), np.sum(x * xv.grad)
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(x * xv.grad))


@pytest.mark.parametrize("shape", [(1, 1, 3, 4), (2, 1, 4, 5), (1, 2, 5, 5)])
def test_avg_pool2_rejects_odd_sizes(shape):
    with pytest.raises(ValueError):
        ad.avg_pool2(Var(np.zeros(shape)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_global_avg_pool_matches_plane_means_and_its_adjoint(ch, batch, h, w, seed):
    """(C, B, H, W) -> the C-contiguous (B, C) means of each plane; the
    backward is the exact adjoint."""
    rng = RNG(seed)
    x = rng.uniform(-1.0, 1.0, size=(ch, batch, h, w))
    xv = Var(x)
    out = ad.global_avg_pool(xv)
    want = [[np.mean(x[c, n]) for c in range(ch)] for n in range(batch)]
    assert out.value.flags.c_contiguous
    assert np.max(np.abs(out.value - want)) <= 1e-15
    g = rng.uniform(-1.0, 1.0, size=out.shape)
    out.backward(seed=g)
    lhs, rhs = np.sum(out.value * g), np.sum(x * xv.grad)
    assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(x * xv.grad))


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 6)), elements=finite))
def test_relu_forward_is_max_with_zero(x):
    np.testing.assert_array_equal(ad.relu(Var(x)).value, np.maximum(x, 0.0))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 6)), elements=finite))
def test_relu_gradient_is_zero_at_nonpositive_inputs(x):
    xv = Var(x)
    g = np.arange(1.0, x.size + 1.0).reshape(x.shape)
    ad.relu(xv).backward(seed=g)
    np.testing.assert_array_equal(xv.grad, np.where(x > 0, g, 0.0))


def test_relu_gradient_at_exact_zero():
    xv = Var(np.array([-1.0, -0.0, 0.0, 1e-300, 2.0]))
    ad.relu(xv).backward(seed=np.ones(5))
    np.testing.assert_array_equal(xv.grad, [0.0, 0.0, 0.0, 1.0, 1.0])


def test_second_backward_through_a_freed_graph_raises():
    """backward frees the graph it sweeps; a second sweep that reaches a freed
    node raises instead of treating it as a leaf, and leaf grads stay put."""
    x, w = Var(np.array([1.0, -2.0, 3.0])), Var(np.array([0.5, 0.5, -1.0]))
    hidden = ad.relu(ad.mul(x, w))
    loss = ad.sum_axes(ad.mul(hidden, 2.0), (0,), keepdims=False)
    loss.backward()
    grads = (x.grad.copy(), w.grad.copy())
    with pytest.raises(RuntimeError, match="freed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="freed"):
        ad.sum_axes(hidden, (0,), keepdims=False).backward()  # a new root on a freed node
    assert hidden.grad is None
    np.testing.assert_array_equal(x.grad, grads[0])
    np.testing.assert_array_equal(w.grad, grads[1])


# -- folded conv blocks -------------------------------------------------------------

@st.composite
def block_cases(draw):
    """A channel-major conv -> relu [-> pool] block whose 3x3 conv output is
    even wherever it is pooled."""
    stride = draw(st.sampled_from([1, 2]))
    pad = draw(st.sampled_from([0, 1]))
    pool = draw(st.booleans())
    oh, ow = (draw(even if pool else st.integers(1, 7)) for _ in range(2))
    h, wd = ((o - 1) * stride + 3 - 2 * pad + draw(st.integers(0, stride - 1)) for o in (oh, ow))
    cin, cout, batch = draw(st.sampled_from([1, 3])), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = RNG(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(cin, batch, h, wd))
    w, b = rng.normal(size=(cout, cin, 3, 3)), rng.normal(size=cout)
    g = rng.normal(size=(cout, batch, oh // 2, ow // 2) if pool else (cout, batch, oh, ow))
    return x, w, b, stride, pad, pool, draw(st.booleans()), g


def _block_nodes(x, w, b, stride, pad, pool):
    nodes = [ad.conv2d(x, w, b, stride=stride, pad=pad)]
    nodes.append(ad.relu(nodes[-1]))
    if pool:
        nodes.append(ad.avg_pool2(nodes[-1]))
    return nodes


@settings(max_examples=40, deadline=None)
@given(block_cases())
def test_a_folded_block_gives_the_bits_of_its_ops_and_frees_their_outputs(case):
    """One fold node gives the value and the input, weight and bias
    gradients of conv2d -> relu [-> avg_pool2] byte for byte, for a Var or a
    constant input; once its ops' nodes are dropped their outputs are freed,
    and a second backward through it raises."""
    x, w, b, stride, pad, pool, constant, g = case
    runs = []
    for folded in (False, True):
        leaves = [x if constant else Var(x), Var(w), Var(b)]
        nodes = _block_nodes(*leaves, stride, pad, pool)
        if folded:
            inner = [weakref.ref(node.value) for node in nodes[:-1]]
            out = ad.fold(nodes[-1], [v for v in leaves if isinstance(v, Var)])
            del nodes
            assert all(ref() is None for ref in inner)
        else:
            out = nodes[-1]
        value = out.value.tobytes()
        out.backward(seed=g)
        runs.append([value] + [v.grad.tobytes() for v in leaves if isinstance(v, Var)])
    assert runs[1] == runs[0]
    with pytest.raises(RuntimeError, match="freed"):
        out.backward(seed=g)


def test_fold_rejects_an_out_that_does_not_reach_a_named_input():
    a, b = Var(np.ones(3)), Var(np.ones(3))
    with pytest.raises(ValueError):
        ad.fold(ad.relu(b), [ad.relu(a)])
    with pytest.raises(ValueError):
        ad.fold(ad.add(a, b), [a, ad.relu(b)])
    with pytest.raises(ValueError):
        ad.fold(a, [a])


def test_a_twin_gives_the_bits_of_running_its_op_again():
    """``(x - m) * twin(x - m)`` gives the value and gradients of
    ``(x - m) * (x - m)`` byte for byte, with one array for both factors."""
    rng = RNG(7)
    xs, ms, g = rng.normal(size=(3, 4)), rng.normal(size=(3, 1)), rng.normal(size=(3, 4))
    runs = []
    for twinned in (False, True):
        x, m = Var(xs), Var(ms)
        d = ad.sub(x, m)
        e = ad.twin(d) if twinned else ad.sub(x, m)
        assert (e.value is d.value) == twinned
        out = ad.mul(d, e)
        out.backward(seed=g)
        runs.append([out.value.tobytes(), x.grad.tobytes(), m.grad.tobytes()])
    assert runs[1] == runs[0]


# -- the runner ------------------------------------------------------------------

def test_runner_raises_the_earliest_error_and_stays_usable():
    """Tasks 1 and 3 raise: task 1's error is the one raised, after task 0's
    result was yielded, and a later map runs every task."""
    runner = ad.Runner(3)

    def task(i):
        if i in (1, 3):
            raise KeyError(i)
        return i

    got = []
    with pytest.raises(KeyError) as caught:
        for value in runner.map(task, range(6)):
            got.append(value)
    assert got == [0] and caught.value.args == (1,)
    assert list(runner.map(lambda i: i * i, range(8))) == [i * i for i in range(8)]


def test_a_nested_map_runs_inline_on_the_tasks_thread():
    """A map called inside a task runs its tasks on that task's thread."""
    runner = ad.Runner(2)

    def outer(i):
        inner = list(runner.map(lambda j: threading.get_ident(), range(4)))
        return threading.get_ident(), inner

    for ident, inner in runner.map(outer, range(4)):
        assert inner == [ident] * 4


def runner_threads() -> set:
    return {t.ident for t in threading.enumerate() if t.name.startswith("styleshift-runner")}


def test_back_to_back_maps_start_at_most_size_minus_one_threads():
    """2000 maps in a row on a runner of size 2 leave at most one thread of
    it alive, though a helper of one map may still be returning when the
    next one starts; a runner resized to 3 then runs on at most two."""
    before = runner_threads()
    runner = ad.Runner(2)
    for i in range(2000):
        assert list(runner.map(lambda j: j + i, range(2))) == [i, i + 1]
    assert len(runner_threads() - before) <= 1
    runner.size = 3
    for i in range(200):
        assert list(runner.map(lambda j: j + i, range(3))) == [i, i + 1, i + 2]
    assert len(runner_threads() - before) <= 2


class Result:
    """A task's result that a weakref can follow."""


def gone(ref, timeout=2.0) -> bool:
    """Whether ``ref``'s object is freed within ``timeout`` s: a worker may
    still be returning from the task that made it."""
    deadline = time.monotonic() + timeout
    while ref() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
    return ref() is None


def test_the_runner_keeps_no_result_it_has_yielded():
    """While a map is still running, every result it yielded before the
    current one is freed."""
    refs = []
    for value in ad.Runner(2).map(lambda i: Result(), range(64)):
        assert all(gone(ref) for ref in refs)
        refs.append(weakref.ref(value))


def test_closing_a_map_starts_no_further_task():
    """Once ``close()`` of a map that has yielded its first result returns,
    no further task starts, and the tasks not yet started never run."""
    started = []

    def task(i):
        started.append(i)
        time.sleep(0.001)
        return i

    tasks = ad.Runner(2).map(task, range(500))
    assert next(tasks) == 0
    tasks.close()
    count = len(started)
    time.sleep(0.05)
    assert len(started) == count < 500


def test_a_tasks_interrupt_reaches_the_caller_at_its_turn():
    """A task that raises KeyboardInterrupt hands it to the caller after the
    earlier tasks' results, and the next map runs every task."""
    runner = ad.Runner(2)

    def task(i):
        if i == 3:
            raise KeyboardInterrupt
        return i

    got = []
    with pytest.raises(KeyboardInterrupt):
        for value in runner.map(task, range(8)):
            got.append(value)
    assert got == [0, 1, 2]
    assert list(runner.map(lambda i: -i, range(8))) == [-i for i in range(8)]


def test_a_map_runs_on_at_most_size_threads_the_caller_among_them():
    """With more seats than CPUs and a short switch interval, a map of many
    short tasks yields in order from at most ``size`` threads, the caller's
    among them. Every other task sleeps, so no thread can take them all."""
    size = ad._usable_cpus() + 1

    def task(i):
        if i % 2:
            time.sleep(0.0002)
        return i, sum(range(i % 50)), threading.get_ident()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = list(ad.Runner(size).map(task, range(1000)))
    finally:
        sys.setswitchinterval(interval)
    assert [row[:2] for row in got] == [(i, sum(range(i % 50))) for i in range(1000)]
    threads = {row[2] for row in got}
    assert threading.get_ident() in threads and len(threads) <= size


@pytest.mark.skipif(ad.OPENBLAS_THREADS is None, reason="numpy bundles no settable OpenBLAS")
def test_overlapping_blas_holds_restore_the_count_once():
    """Two holds that overlap in time keep BLAS at one thread until the last
    one ends, which restores the count the first one found."""
    get, put = ad.OPENBLAS_THREADS
    before = get()
    put(2)
    try:
        first, second = ad.one_blas_thread(), ad.one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert get() == 1
        second.__exit__(None, None, None)
        assert get() == 2
    finally:
        put(before)
