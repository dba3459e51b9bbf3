"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just enough machinery for a small convolutional classifier and the
differentiable style transforms that hook into it: elementwise arithmetic
with broadcasting, axis reductions, conv/pool/linear layers and a fused
softmax cross-entropy. Gradients accumulate on leaf variables (those without
a vjp) after calling ``backward`` on a scalar; intermediate gradients are not
kept, and ``backward`` frees the graph as it sweeps it, so a graph can be
differentiated once.

Importing the module pins glibc's mmap and trim thresholds and its arena
count (see ``_pin_allocator``).

``RUNNER`` is the package's one pool of threads (``Runner``): a persistent
``ThreadPoolExecutor`` whose threads help the calling thread drain one queue
of tasks per ``map`` call, up to one task per usable CPU at once, or every
task inline where numpy's OpenBLAS thread count cannot be set. Inference
runs its chunks on it (``micro_net``), and ``conv2d``, ``relu`` and
``avg_pool2`` split their forward and backward work over it. While any of
its tasks runs, BLAS runs on one thread (``one_blas_thread``); a call made
from inside a task runs inline. Every split keeps each output bit
independent of the number of workers:

- padding and the patch matrix are cut by ranges of samples (``_ranges``),
  the col2im sums, ReLU and pooling by ranges of channels; each output
  element is computed by the same operations either way, so any cut is
  exact;
- the weight gradient ``dW = g2 @ cols.T`` sums over batch x pixels, so it
  stays one GEMM, run while the patch-gradient tasks run;
- the forward GEMM and the patch-gradient GEMM ``w2.T @ g2`` are cut only
  along rows (output channels, input channels), into blocks that the shape
  alone fixes (``_row_blocks``); ``conv2d`` and the inference pass both run
  the one forward, ``conv_cm``, so they get the same blocks.

Ops smaller than ``SPLIT_MIN`` elements, and convs under ``GEMM_SPLIT_MIN``
multiply-adds, run whole, and the GEMMs split only where BLAS runs on one
thread of its own: where it runs on more, its own threads split them
better. No task calls an op that returns a Var, or creates
a Var, so each op still runs, and can be timed, on the calling thread as one
call.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import queue
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait

import numpy as np
from numpy.lib.stride_tricks import as_strided

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8   # glibc's mallopt ids


def _pin_allocator() -> None:
    """Keep freed heap pages in this process instead of returning them to the OS.

    ``backward`` frees each training step's graph, tens of MB, and the next
    step allocates it again. With glibc's dynamic thresholds the freed heap
    top is trimmed back to the OS at every step (and arrays above the dynamic
    mmap threshold are unmapped on free), so each step faults its pages in
    anew: about 40% slower training. Both thresholds are set because setting
    either turns the dynamic adjustment off; 32 MiB is the largest mmap
    threshold glibc accepts on 64-bit. One arena serves every thread: the
    runner's threads (``RUNNER``) would otherwise each get an arena of their
    own, whose freed pages the pinned trim threshold never gives back, so
    each thread would add its tasks' memory to the peak. Where the C library
    has no ``mallopt`` (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_ARENA_MAX, 1)


_pin_allocator()


def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy links, or
    None where it links none (another BLAS, or a numpy built without one)."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    put.argtypes, put.restype = (ctypes.c_int,), None
    return get, put


OPENBLAS_THREADS = _openblas_threads()
_blas_lock = threading.Lock()
_blas_holds = [0, None]   # holds in force, and the count the first hold found


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block, as the runner's
    tasks need, one per CPU; the last block to end restores the count the
    first one found, so blocks that overlap in time (on several threads)
    cannot restore each other's. A lone training on an idle host runs faster
    at the default count. A no-op without such an OpenBLAS. The count is
    process-wide: other threads' BLAS calls meanwhile run on one thread too."""
    if OPENBLAS_THREADS is None:
        yield
        return
    get, put = OPENBLAS_THREADS
    with _blas_lock:
        if not _blas_holds[0]:
            _blas_holds[1] = get()
            put(1)
        _blas_holds[0] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holds[0] -= 1
            if not _blas_holds[0]:
                put(_blas_holds[1])


def _own_blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS runs at outside the runner's holds
    (``one_blas_thread``), or None where it cannot be read."""
    if OPENBLAS_THREADS is None:
        return None
    with _blas_lock:
        return _blas_holds[1] if _blas_holds[0] else OPENBLAS_THREADS[0]()


def _usable_cpus() -> int:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


_IN_TASK = contextvars.ContextVar("styleshift_runner_task", default=False)


def _task(fn, args):
    _IN_TASK.set(True)   # in this task's context copy: a nested map runs inline
    return fn(*args)


def _run_next(fn, claims: queue.SimpleQueue) -> bool:
    """Claim the next task of one ``Runner.map`` call and run it into its
    future, unless the caller cancelled it; False once none is left."""
    try:
        future, args, context = claims.get_nowait()
    except queue.Empty:
        return False
    if future.set_running_or_notify_cancel():
        try:
            future.set_result(context.run(_task, fn, args))
        except BaseException as exc:  # re-raised by the caller at this task's turn
            future.set_exception(exc)
    return True


def _drain(fn, claims: queue.SimpleQueue) -> None:
    while _run_next(fn, claims):
        pass


class Runner:
    """One persistent pool for the package's parallel work: a
    ``ThreadPoolExecutor``, started on first use at its default size, and
    the thread that calls ``map``. ``size`` is read at each call.

    ``map(fn, *iterables)`` yields ``fn(*args)`` for each tuple of arguments,
    in order. The call puts one claim per task on a queue of its own: the
    task's future, its arguments and its own copy of the caller's context
    (numpy's ``errstate`` lives there). Up to ``size - 1`` helpers on the
    executor drain the queue, and so does the caller whenever the result it
    is to yield next is not done, so up to ``size`` tasks run at once; BLAS
    runs on one thread until the last task is done (``one_blas_thread``).
    The runner drops each result once it is yielded. A task's error is raised when its
    turn to be yielded comes, so the earliest task's error is the one raised;
    the tasks not yet started are then cancelled, and the call returns once
    the running ones end, leaving the runner usable. With one task, a size of
    1, or when called from inside a task, ``map`` runs the tasks inline, one
    after another: nested calls never wait on the pool they run in.
    """

    def __init__(self, size: int):
        self.size = size
        self._pool: ThreadPoolExecutor | None = None

    def seats(self) -> int:
        """The tasks that ``map`` would run at once if called here now."""
        return 1 if _IN_TASK.get() else max(1, self.size)

    def map(self, fn, *iterables):
        args = list(zip(*iterables))
        if len(args) < 2 or self.seats() < 2:
            for a in args:
                yield fn(*a)
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(thread_name_prefix="styleshift-runner")
        claims = queue.SimpleQueue()
        futures = [Future() for _ in args]
        for future, a in zip(futures, args):   # a context is entered by one thread at a time
            claims.put((future, a, contextvars.copy_context()))
        with one_blas_thread():
            for _ in range(min(self.size, len(args)) - 1):
                self._pool.submit(_drain, fn, claims)
            try:
                for i in range(len(futures)):
                    future, futures[i] = futures[i], None
                    while not future.done() and _run_next(fn, claims):
                        pass
                    yield future.result()
            finally:
                left = [f for f in futures if f is not None and not f.cancel()]
                wait(left)


# One worker per usable CPU; one where BLAS's thread count cannot be set: its
# GEMMs may then take every CPU, and more workers than CPUs slow them down.
RUNNER = Runner(1 if OPENBLAS_THREADS is None else _usable_cpus())


def _each(fn, items) -> None:
    """``fn(item)`` for each of ``items`` as tasks of ``RUNNER``."""
    for _ in RUNNER.map(fn, items):
        pass


def _spent(g):
    raise RuntimeError("backward reached a node whose graph an earlier backward "
                       "already freed; run the forward again")


class Var:
    """A node in the computation graph holding a float64 array."""

    __slots__ = ("value", "grad", "_parents", "_vjp")
    __array_ufunc__ = None  # ndarray <op> Var defers to the reflected operator

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp  # maps upstream grad -> tuple of parent grads

    @property
    def shape(self):
        return self.value.shape

    def backward(self, seed=None):
        """Accumulate d(self)/d(leaf) into every leaf's ``.grad``, freeing each
        node's closure and parents once its vjp has run. A later backward that
        reaches a freed node raises ``RuntimeError``."""
        if seed is None:
            if self.value.size != 1:
                raise ValueError("backward() without seed requires a scalar")
            seed = np.ones_like(self.value)
        order = []
        seen = set()

        def visit(node):
            stack = [(node, False)]
            while stack:
                n, expanded = stack.pop()
                if expanded:
                    order.append(n)
                    continue
                if id(n) in seen:
                    continue
                seen.add(id(n))
                stack.append((n, True))
                for p in n._parents:
                    stack.append((p, False))

        visit(self)
        grads = {id(self): np.asarray(seed, dtype=np.float64)}
        while order:  # reverse topological order; popping drops the sweep's reference
            node = order.pop()
            g = grads.pop(id(node), None)
            if node._vjp is None:  # a leaf: the only nodes that keep .grad
                if g is not None:
                    node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            parents, vjp = node._parents, node._vjp
            # every consumer of this node has run: free its closure and inputs
            node._parents, node._vjp = (), _spent
            if g is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # -- operator sugar --------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward op."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = Var(a.value + b.value, (a, b),
              lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))
    return out


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(a.value - b.value, (a, b),
               lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)))


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(a.value * b.value, (a, b),
               lambda g: (_unbroadcast(g * b.value, a.value.shape),
                          _unbroadcast(g * a.value, b.value.shape)))


def div(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    return Var(a.value / b.value, (a, b),
               lambda g: (_unbroadcast(g / b.value, a.value.shape),
                          _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape)))


def sqrt(a) -> Var:
    a = as_var(a)
    root = np.sqrt(a.value)
    return Var(root, (a,), lambda g: (g * (0.5 / root),))


def mean(a, axes, keepdims: bool = True) -> Var:
    a = as_var(a)
    axes = tuple(axes)
    count = float(np.prod([a.value.shape[ax] for ax in axes]))
    out_val = a.value.mean(axis=axes, keepdims=keepdims)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg, a.value.shape) / count,)

    return Var(out_val, (a,), vjp)


def sum_axes(a, axes, keepdims: bool = True) -> Var:
    a = as_var(a)
    axes = tuple(axes)
    out_val = a.value.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        gg = g if keepdims else np.expand_dims(g, axes)
        return (np.broadcast_to(gg, a.value.shape).copy(),)

    return Var(out_val, (a,), vjp)


def relu(a) -> Var:
    a = as_var(a)
    v = a.value
    out, mask = np.empty(v.shape), np.empty(v.shape, dtype=bool)
    parts = _ranges(v.shape[0], v.size) if v.ndim else [...]

    def forward(part):
        np.greater(v[part], 0, out=mask[part])
        np.maximum(v[part], 0.0, out=out[part])

    def vjp(g):
        dx = np.empty(v.shape)
        _each(lambda part: np.multiply(g[part], mask[part], out=dx[part]), parts)
        return (dx,)

    _each(forward, parts)
    return Var(out, (a,), vjp)


def clamp_min(a, floor: float) -> Var:
    """max(a, floor) with zero gradient in the clamped region."""
    a = as_var(a)
    mask = a.value > floor
    return Var(np.where(mask, a.value, floor), (a,), lambda g: (g * mask,))


def take_batch(a, index) -> Var:
    """Index the leading axis with a fixed integer array (e.g. a permutation)."""
    a = as_var(a)
    index = np.asarray(index, dtype=np.intp)

    def vjp(g):
        out = np.zeros_like(a.value)
        np.add.at(out, index, g)
        return (out,)

    return Var(a.value[index], (a,), vjp)


def reshape(a, shape) -> Var:
    a = as_var(a)
    old = a.value.shape
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


# -- network layers -------------------------------------------------------

# Below these sizes an op runs whole on the calling thread: waking a worker
# took 30-75 us on the 2-vCPU host these were measured on, and a GEMM cut into
# row blocks packs its other operand once per block. All are read at call time.
SPLIT_MIN = 400_000             # elements of a data-movement or elementwise op
GEMM_SPLIT_MIN = 10_000_000     # multiply-adds of a conv whose GEMMs split


def _splits_gemms(macs: int) -> bool:
    """Whether a conv of ``macs`` multiply-adds splits its GEMMs over the
    runner: at ``GEMM_SPLIT_MIN`` and above, and only where BLAS runs on one
    thread of its own. Where it runs on more, its threads split a GEMM
    without packing an operand once per block, and ran block2's forward at
    batch 63 in 2.9 ms against 4.4 ms for the runner's row blocks."""
    return macs >= GEMM_SPLIT_MIN and _own_blas_threads() == 1


def _ranges(n: int, size: int) -> list[slice]:
    """``range(n)`` (the samples or channels of an op over ``size`` elements) in one
    contiguous slice per runner seat, or whole below ``SPLIT_MIN``. For data
    movement and elementwise ops, where any cut gives the same bits."""
    parts = min(n, RUNNER.seats()) if size >= SPLIT_MIN else 1
    return [slice(n * k // parts, n * (k + 1) // parts) for k in range(max(parts, 1))]


def _row_blocks(n: int, split: bool) -> list[slice]:
    """The row blocks of a conv GEMM over ``n`` output (forward) or input
    (patch gradient) channels: two, cut at a multiple of 4 channels, when
    the conv splits its GEMMs (``_splits_gemms``) and n is at least 8;
    otherwise one.

    Fixed by the shape (and BLAS's own thread count), never by the number of
    workers, so the bits do not depend on it. On the OpenBLAS this was measured on (Sapphire Rapids),
    blocks cut at a multiple of 4 rows gave the whole GEMM's bits at every
    shape tried, at 1 and 2 BLAS threads. Cuts at other rows did not at some
    small shapes, nor did 1-row blocks (numpy runs those as gemv), nor did
    splits by columns (samples) on 8 px nets.
    """
    if n < 8 or not split:
        return [slice(0, n)]
    cut = 4 * ((n + 4) // 8)
    return [slice(0, cut), slice(cut, n)]


def conv_cm(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1,
            pad: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """2-D convolution of a channel-major input, (Cin, B, H, W) in any
    strides, zero-padded by ``pad``: the (Cout, B, OH, OW) output and the
    (Cin*kh*kw, B*OH*OW) patch matrix its GEMM multiplied.

    The forward of ``conv2d`` and of the tape-free inference pass, so both
    get the same bits. The padding and the patch matrix are built per range
    of samples (``_ranges``), then the GEMM and the bias per block of output
    channels (``_row_blocks``), each range or block a task of ``RUNNER``.
    """
    cin, bs, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"conv channel mismatch: input {cin}, weight {cin_w}")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    cols = np.empty((cin, kh, kw, bs, oh, ow))

    def patches(part):  # one copy of the padded samples' windows: one GIL release
        xp = np.zeros((cin, part.stop - part.start, h + 2 * pad, wd + 2 * pad))
        xp[:, :, pad:pad + h, pad:pad + wd] = x[:, part]
        c, n, r, q = xp.strides
        cols[:, :, :, part] = as_strided(xp, (cin, kh, kw, xp.shape[1], oh, ow),
                                         (c, r, q, n, r * stride, q * stride), writeable=False)

    _each(patches, _ranges(bs, cols.size))
    cols = cols.reshape(cin * kh * kw, bs * oh * ow)
    w2 = w.reshape(cout, cin * kh * kw)
    y = np.empty((cout, bs, oh, ow))

    def rows(r):  # straight into its rows of the output
        block = y.reshape(cout, bs * oh * ow)[r]
        np.matmul(w2[r], cols, out=block)
        block += b[r, None]

    _each(rows, _row_blocks(cout, _splits_gemms(cols.size * cout)))
    return y, cols


def conv2d(x, w, b, stride: int = 1, pad: int = 1) -> Var:
    """2-D convolution, channel-major: (Cin, B, H, W) -> (Cout, B, OH, OW).

    The forward is ``conv_cm``. The backward forms the weight gradient with
    one GEMM over the patch matrix, and the patch gradient with one GEMM per
    block of input channels (``_row_blocks``), each summed into that block's
    input gradient. Where the conv splits its GEMMs (``_splits_gemms``), the
    weight task and the block tasks run on ``RUNNER`` together. An input that
    is not a Var is a constant: the backward forms no gradient for it.
    """
    needs_dx = isinstance(x, Var)
    x, w, b = as_var(x), as_var(w), as_var(b)
    cin, bs, h, wd = x.value.shape
    cout, _, kh, kw = w.value.shape
    out, cols = conv_cm(x.value, w.value, b.value, stride, pad)
    oh, ow = out.shape[2:]
    w2 = w.value.reshape(cout, cin * kh * kw)
    split = _splits_gemms(cols.size * cout)

    def vjp(g):
        g2, grads = g.reshape(cout, bs * oh * ow), [None, None, None]

        def weights():
            grads[1] = (g2 @ cols.T).reshape(w.value.shape)
            # per-plane sums, then over samples: the bits of the (B, Cout, OH, OW) sum
            grads[2] = np.ascontiguousarray(g.sum(axis=(2, 3)).T).sum(axis=0)

        def inputs(c):
            n = c.stop - c.start
            dcols = (w2.T[c.start * kh * kw:c.stop * kh * kw] @ g2).reshape(n, kh, kw, bs, oh, ow)
            dxp = np.zeros((n, bs, h + 2 * pad, wd + 2 * pad))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
            grads[0][c] = dxp[:, :, pad:pad + h, pad:pad + wd]

        tasks = [weights]
        if needs_dx:
            grads[0] = np.empty((cin, bs, h, wd))
            tasks += [functools.partial(inputs, c) for c in _row_blocks(cin, split)]
        if split:
            _each(lambda task: task(), tasks)
        else:
            for task in tasks:
                task()
        return tuple(grads)

    return Var(out, (x, w, b), vjp)


def pool2(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2x2 average of the trailing (H, W) axes, which must be even, into
    ``out`` where given; the forward of ``avg_pool2`` and of the tape-free
    inference pass."""
    out = np.add(v[..., 0::2, 0::2], v[..., 0::2, 1::2], out=out)
    out += v[..., 1::2, 0::2]
    out += v[..., 1::2, 1::2]
    out *= 0.25
    return out


def avg_pool2(x) -> Var:
    """2x2 average pooling; spatial dims must be even."""
    x = as_var(x)
    v = x.value
    h, w = v.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool2 needs even spatial dims, got {h}x{w}")
    out = np.empty(v.shape[:2] + (h // 2, w // 2))
    parts = _ranges(v.shape[0], v.size)
    _each(lambda part: pool2(v[part], out[part]), parts)

    def vjp(g):
        dx = np.empty_like(v)

        def spread(part):
            quarter, part_dx = g[part] * 0.25, dx[part]
            for i in (0, 1):
                for j in (0, 1):
                    part_dx[:, :, i::2, j::2] = quarter

        _each(spread, parts)
        return (dx,)

    return Var(out, (x,), vjp)


def global_avg_pool(x) -> Var:
    """(C, B, H, W) -> (B, C) spatial mean, computed as ``MicroNet.infer`` computes it."""
    x = as_var(x)
    plane = x.value.shape[2] * x.value.shape[3]
    return Var(np.ascontiguousarray(x.value.mean(axis=(2, 3)).T), (x,),
               lambda g: (np.broadcast_to(g.T[:, :, None, None], x.value.shape) / plane,))


def linear(x, w, b) -> Var:
    """(B, F) @ (F, K) + (K,)."""
    x, w, b = as_var(x), as_var(w), as_var(b)
    out = x.value @ w.value + b.value

    def vjp(g):
        return (g @ w.value.T, x.value.T @ g, g.sum(axis=0))

    return Var(out, (x, w, b), vjp)


def softmax_cross_entropy(logits, labels) -> Var:
    """Mean softmax cross-entropy of (B, K) logits against integer labels."""
    logits = as_var(logits)
    labels = np.asarray(labels, dtype=np.intp)
    bs = logits.value.shape[0]
    shifted = logits.value - logits.value.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / expv.sum(axis=1, keepdims=True)
    nll = -np.log(probs[np.arange(bs), labels] + 1e-300)
    loss = nll.mean()

    def vjp(g):
        d = probs.copy()
        d[np.arange(bs), labels] -= 1.0
        return (g * d / bs,)

    return Var(loss, (logits,), vjp)
