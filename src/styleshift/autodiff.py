"""Minimal reverse-mode autodiff over float64 numpy arrays.

Just enough machinery for a small convolutional classifier and the
differentiable style transforms that hook into it: elementwise arithmetic
with broadcasting, axis reductions, conv/pool/linear layers and a fused
softmax cross-entropy. Gradients accumulate on leaf variables (those without
a vjp) after calling ``backward`` on a scalar; intermediate gradients are not
kept, and ``backward`` frees the graph as it sweeps it, so a graph can be
differentiated once.

The tape keeps only what the vjps read. ``chain`` folds a conv block's
``conv2d`` -> ``relu`` [-> ``avg_pool2``] nodes into one, so per block it
keeps the conv's patch matrix (or its input, where that is a constant), the
ReLU mask and the block's output; the conv and ReLU outputs, which no vjp
reads, are freed as the block's forward ends, and the pool keeps only a
shape.

Importing the module pins glibc's mmap and trim thresholds and its arena
count (see ``_pin_allocator``).

``RUNNER`` is the package's one pool of threads (``Runner``): a persistent
``ThreadPoolExecutor`` whose threads help the calling thread drain one queue
of tasks per ``map`` call, up to one task per usable CPU at once, or every
task inline where numpy's OpenBLAS thread count cannot be set. Inference
runs its chunks on it (``micro_net``); while any of its tasks runs, BLAS
runs on one thread (``one_blas_thread``), and a call made from inside a task
runs inline. The layers (``conv2d``, ``relu``, ``avg_pool2``, and
``conv_cm``, the conv forward that inference shares) never use the runner:
each runs whole on the thread that calls it, so training runs on the calling
thread, with BLAS at its own thread count.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
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
    runner's threads (``Runner``) would otherwise each get an arena of their
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
    ``ThreadPoolExecutor`` of ``size - 1`` threads, started on first use and
    started again when ``size``, read at each call, has changed, and the
    thread that calls ``map``.

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
        self._pool_threads = 0

    def map(self, fn, *iterables):
        args = list(zip(*iterables))
        if len(args) < 2 or self.size < 2 or _IN_TASK.get():
            for a in args:
                yield fn(*a)
            return
        # an executor starts threads up to its max_workers whenever none is idle,
        # as when a helper of the last map is still returning: hold it at size - 1
        if self._pool_threads != self.size - 1:
            if self._pool is not None:
                self._pool.shutdown()
            self._pool = ThreadPoolExecutor(self.size - 1, thread_name_prefix="styleshift-runner")
            self._pool_threads = self.size - 1
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
    mask = a.value > 0
    return Var(np.maximum(a.value, 0.0), (a,), lambda g: (g * mask,))


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

def _patches(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    """The (Cin*kh*kw, B*OH*OW) patch matrix of a channel-major input,
    (Cin, B, H, W) in any strides, zero-padded by ``pad``: the one im2col,
    which ``conv_cm`` multiplies and ``conv2d``'s backward rebuilds for a
    constant input."""
    cin, bs, h, wd = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.zeros((cin, bs, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    c, n, r, q = xp.strides
    cols = np.ascontiguousarray(as_strided(xp, (cin, kh, kw, bs, oh, ow),
                                           (c, r, q, n, r * stride, q * stride), writeable=False))
    return cols.reshape(cin * kh * kw, bs * oh * ow)   # the padded copy is freed on return


def conv_cm(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1,
            pad: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """2-D convolution of a channel-major input, (Cin, B, H, W) in any
    strides, zero-padded by ``pad``: the (Cout, B, OH, OW) output and the
    (Cin*kh*kw, B*OH*OW) patch matrix its one GEMM multiplied.

    The forward of ``conv2d`` and of the tape-free inference pass, so both
    get the same bits.
    """
    cin, bs, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"conv channel mismatch: input {cin}, weight {cin_w}")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    cols = _patches(x, kh, kw, stride, pad)
    y = np.empty((cout, bs, oh, ow))
    np.matmul(w.reshape(cout, cin * kh * kw), cols, out=y.reshape(cout, bs * oh * ow))
    y += b[:, None, None, None]
    return y, cols


def conv2d(x, w, b, stride: int = 1, pad: int = 1) -> Var:
    """2-D convolution, channel-major: (Cin, B, H, W) -> (Cout, B, OH, OW).

    The forward is ``conv_cm``. The backward forms the weight gradient and
    the patch gradient with one GEMM each over the patch matrix, and sums the
    patch gradient into the input gradient. An input that is not a Var is a
    constant: the backward forms no gradient for it.

    The tape keeps the patch matrix for a Var input. For a constant input,
    whose patch matrix is kh*kw times its size, it keeps the input instead
    and the backward rebuilds the patches (``_patches``), the same bits.
    """
    needs_dx = isinstance(x, Var)
    x, w, b = as_var(x), as_var(w), as_var(b)
    cin, bs, h, wd = x.value.shape
    cout, _, kh, kw = w.value.shape
    out, cols = conv_cm(x.value, w.value, b.value, stride, pad)
    oh, ow = out.shape[2:]
    w2 = w.value.reshape(cout, cin * kh * kw)
    if not needs_dx:
        cols = None

    def vjp(g):
        g2 = g.reshape(cout, bs * oh * ow)
        patches = cols if needs_dx else _patches(x.value, kh, kw, stride, pad)
        dw = (g2 @ patches.T).reshape(w.value.shape)
        # per-plane sums, then over samples: the bits of the (B, Cout, OH, OW) sum
        db = np.ascontiguousarray(g.sum(axis=(2, 3)).T).sum(axis=0)
        if not needs_dx:
            return (None, dw, db)
        dcols = (w2.T @ g2).reshape(cin, kh, kw, bs, oh, ow)
        dxp = np.zeros((cin, bs, h + 2 * pad, wd + 2 * pad))
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
        return (np.ascontiguousarray(dxp[:, :, pad:pad + h, pad:pad + wd]), dw, db)

    return Var(out, (x, w, b), vjp)


def pool2(v: np.ndarray) -> np.ndarray:
    """2x2 average of the trailing (H, W) axes, which must be even; the
    forward of ``avg_pool2`` and of the tape-free inference pass."""
    out = v[..., 0::2, 0::2] + v[..., 0::2, 1::2]
    out += v[..., 1::2, 0::2]
    out += v[..., 1::2, 1::2]
    out *= 0.25
    return out


def avg_pool2(x) -> Var:
    """2x2 average pooling; spatial dims must be even. The tape keeps only
    the input's shape: the gradient spreads a quarter of g over each 2x2
    window, C-contiguous."""
    x = as_var(x)
    v = x.value
    shape = v.shape
    h, w = shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool2 needs even spatial dims, got {h}x{w}")

    def vjp(g):
        quarter = g * 0.25
        dx = np.empty(shape)
        for i in (0, 1):
            for j in (0, 1):
                dx[:, :, i::2, j::2] = quarter
        return (dx,)

    return Var(pool2(v), (x,), vjp)


def chain(*nodes: Var) -> Var:
    """Fold a chain of nodes, each the only consumer of the one before it,
    into one tape node: a conv block's ``conv2d`` -> ``relu`` [-> ``avg_pool2``].

    The node has the last node's value, the first node's parents and a vjp
    that runs the nodes' vjps from last to first. It keeps the vjps, not the
    nodes, so once the caller drops them their values are freed: per block
    the tape keeps the conv's patch matrix (or its constant input), the ReLU
    mask and the block's output. The folded nodes are spent, as ``backward``
    leaves a node whose vjp has run.
    """
    for prev, node in zip(nodes, nodes[1:]):
        if len(node._parents) != 1 or node._parents[0] is not prev:
            raise ValueError("chain needs each node to have the one before it as its only parent")
    parents, vjps = nodes[0]._parents, [node._vjp for node in nodes]
    for node in nodes:
        node._parents, node._vjp = (), _spent

    def vjp(g):
        for step in reversed(vjps[1:]):
            (g,) = step(g)
        return vjps[0](g)

    return Var(nodes[-1].value, parents, vjp)


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
