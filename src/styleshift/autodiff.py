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
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

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
    inference workers (``micro_net``) would otherwise each get an arena of
    their own, whose freed pages the pinned trim threshold never gives back,
    so each worker would add its chunks' memory to the peak. Where the C
    library has no ``mallopt`` (not glibc) this does nothing.
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


@contextlib.contextmanager
def one_blas_thread():
    """Run numpy's OpenBLAS on one thread inside the block, as the inference
    workers (``micro_net``) need, one per CPU; restore its count after, which
    runs a lone training faster on an idle host. A no-op without such an
    OpenBLAS. The count is process-wide: other threads' BLAS calls meanwhile
    run on one thread too."""
    if OPENBLAS_THREADS is None:
        yield
        return
    get, put = OPENBLAS_THREADS
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


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

def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Channel-major padded input (Cin, B, Hp, Wp) -> patch matrix (Cin*kh*kw, B*OH*OW)."""
    c, b = xp.shape[0], xp.shape[1]
    cols = np.empty((c, kh, kw, b, oh, ow), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(c * kh * kw, b * oh * ow)


def pad_cm(x: np.ndarray, pad: int) -> np.ndarray:
    """A channel-major (C, B, H, W) array zero-padded by ``pad`` on each side
    of its trailing (H, W) axes, in a new buffer."""
    c, b, h, w = x.shape
    xp = np.zeros((c, b, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    return xp


def conv_cm(xp: np.ndarray, w: np.ndarray, b: np.ndarray,
            stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Channel-major 2-D convolution of a padded input (``pad_cm``):
    (Cin, B, Hp, Wp) -> (Cout, B, OH, OW), and the (Cin*kh*kw, B*OH*OW) patch
    matrix its one GEMM multiplied.

    The forward of ``conv2d`` and of the tape-free inference pass: both hand
    this function the same values, so both get the same bits.
    """
    cin, bs, hp, wp = xp.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ValueError(f"conv channel mismatch: input {cin}, weight {cin_w}")
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    cols = _im2col(xp, kh, kw, stride, oh, ow)
    y = w.reshape(cout, cin * kh * kw) @ cols
    y += b[:, None]
    return y.reshape(cout, bs, oh, ow), cols


def conv2d(x, w, b, stride: int = 1, pad: int = 1) -> Var:
    """2-D convolution, NCHW layout, square stride/pad.

    The input is padded into a channel-major buffer (``pad_cm``) so that the
    forward (``conv_cm``), the weight gradient and the patch gradient are each
    one 2-D GEMM over the (Cin*kh*kw, B*OH*OW) patch matrix. An input that is
    not a Var is a constant: the backward forms no gradient for it.
    """
    needs_dx = isinstance(x, Var)
    x, w, b = as_var(x), as_var(w), as_var(b)
    bs, cin, h, wd = x.value.shape
    cout, _, kh, kw = w.value.shape
    xp = pad_cm(x.value.transpose(1, 0, 2, 3), pad)
    y, cols = conv_cm(xp, w.value, b.value, stride)
    oh, ow = y.shape[2:]
    padded = xp.shape
    w2 = w.value.reshape(cout, cin * kh * kw)
    out = np.ascontiguousarray(y.transpose(1, 0, 2, 3))

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(cout, bs * oh * ow)
        dw = (g2 @ cols.T).reshape(w.value.shape)
        db = g.sum(axis=(0, 2, 3))
        if not needs_dx:
            return (None, dw, db)
        dcols = (w2.T @ g2).reshape(cin, kh, kw, bs, oh, ow)
        dxp = np.zeros(padded)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, i, j]
        dx = np.ascontiguousarray(dxp[:, :, pad:pad + h, pad:pad + wd].transpose(1, 0, 2, 3))
        return (dx, dw, db)

    return Var(out, (x, w, b), vjp)


def pool2(v: np.ndarray) -> np.ndarray:
    """2x2 average of the trailing (H, W) axes, which must be even; the
    forward of ``avg_pool2`` and of the tape-free inference pass."""
    return (v[..., 0::2, 0::2] + v[..., 0::2, 1::2]
            + v[..., 1::2, 0::2] + v[..., 1::2, 1::2]) * 0.25


def avg_pool2(x) -> Var:
    """2x2 average pooling; spatial dims must be even."""
    x = as_var(x)
    v = x.value
    h, w = v.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool2 needs even spatial dims, got {h}x{w}")
    out = pool2(v)

    def vjp(g):
        quarter = g * 0.25
        dx = np.empty_like(v)
        for i in (0, 1):
            for j in (0, 1):
                dx[:, :, i::2, j::2] = quarter
        return (dx,)

    return Var(out, (x,), vjp)


def global_avg_pool(x) -> Var:
    """(B, C, H, W) -> (B, C) spatial mean."""
    x = as_var(x)
    b, c, h, w = x.value.shape

    def vjp(g):
        return (np.broadcast_to(g[:, :, None, None], x.value.shape) / (h * w),)

    return Var(x.value.mean(axis=(2, 3)), (x,), vjp)


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
