"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are stored as C-contiguous float64 numpy arrays. The graph holds
nodes, not values: each differentiable operation gives its result a small
``_Node`` with the parents' nodes (a leaf tensor is its own node) and a
backward closure, and each closure keeps only what its backward reads (shapes,
flags, a relu mask, the operand arrays it multiplies by). So an intermediate
value lives only as long as its caller, or a closure that reads it, holds it.
``Tensor.backward()`` walks the nodes in reverse topological order and
accumulates gradients into the ``.grad`` buffers of leaves that require them.
Backward frees the graph as it goes: once a node's closure has run, its
gradient, closure and parents are dropped, so only leaves keep ``.grad`` and a
graph supports one backward.

Scope is deliberately small: exactly the operations the adaptation pipeline
needs, each one checked against central finite differences in the test suite.
"""

from __future__ import annotations

import contextlib
import ctypes
import sys
import warnings

import numpy as np

from .errors import DegenerateSimilarityWarning

_grad_enabled = True


def _retain_freed_memory() -> None:
    """Keep freed heap memory in the process (glibc; a no-op elsewhere).

    Under glibc's default thresholds each step's multi-MB temporaries are unmapped
    or trimmed when freed and faulted in again by the next step. Blocks below 64 MiB
    (the largest is the 37.7 MB im2col at batch 64, 32 channels) come from the heap,
    which is trimmed only above 1 GiB."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_retain_freed_memory()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (pure forward passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """The graph state of one operation's result: its parents' nodes (None for
    a parent that needs no gradient), its backward closure and, while a
    backward runs, its incoming gradient. It holds no value."""

    __slots__ = ("_parents", "_backward_fn", "grad")
    requires_grad = True  # a node exists only where some parent needs a gradient

    def __init__(self, parents: tuple, backward_fn):
        self._parents = parents
        self._backward_fn = backward_fn
        self.grad: np.ndarray | None = None


class Tensor:
    """A dense n-dimensional float64 value with optional gradient tracking.

    A leaf (``_node`` is None) is its own graph node and keeps ``.grad``; an
    operation's result that needs a gradient points at its ``_Node``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        # order="C" keeps 0-d scalars 0-d; ascontiguousarray would promote them to (1,)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward_fn(self):
        return None if self._node is None else self._node._backward_fn

    @_backward_fn.setter
    def _backward_fn(self, fn):
        self._node._backward_fn = fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    # -- graph -----------------------------------------------------------

    def backward(self):
        """Accumulate dself/dleaf into every reachable leaf's ``.grad``; self must be a scalar.

        The walk runs over graph nodes, which hold no values; each closure
        keeps only the arrays its own backward reads. Each non-leaf node is
        freed as soon as its closure has run: its gradient, closure and
        parents are dropped (with them the saved arrays the closure held), so
        only leaves keep ``.grad``. A second backward through a freed node
        raises ``RuntimeError``.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar output, got shape {self.shape}")
        grad = np.ones_like(self.data)

        order = _toposort(self)
        root = order[-1]
        root.grad = grad if root.grad is None else root.grad + grad
        while order:
            # popping keeps the list from holding a freed node alive
            node = order.pop()
            if node._backward_fn is None:
                continue
            if node.grad is not None:
                for parent, g in zip(node._parents, node._backward_fn(node.grad)):
                    if g is None or parent is None or not parent.requires_grad:
                        continue
                    parent.grad = g if parent.grad is None else parent.grad + g
            node.grad = None
            node._backward_fn = _freed_backward
            node._parents = ()


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _freed_backward(grad):
    """Stands in for the closure of a node that a backward has freed."""
    raise RuntimeError("backward through a graph that a previous backward already freed")


def _graph_node(t: Tensor):
    """The graph node of ``t``: its ``_Node``, or ``t`` itself for a leaf."""
    return t if t._node is None else t._node


def _toposort(root: Tensor) -> list:
    """The graph nodes reachable from ``root``, parents before children; root's node is last."""
    order: list = []
    visited: set[int] = set()
    stack: list[tuple] = [(_graph_node(root), False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent is not None:
                stack.append((parent, False))
    return order


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(_graph_node(p) if p.requires_grad else None for p in parents),
                          backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    a_shape, b_shape = a.shape, b.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _result(out, (a, b), backward)


def sub(a, b) -> Tensor:
    """a - b, which IEEE 754 defines as a + (-b): the same bits forward and backward."""
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_data, b_data = a.data, b.data
    a_grad, b_grad = a.requires_grad, b.requires_grad
    out = a_data * b_data

    def backward(g):
        ga = _unbroadcast(g * b_data, a_data.shape) if a_grad else None
        gb = _unbroadcast(g * a_data, b_data.shape) if b_grad else None
        return ga, gb

    return _result(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    a_data, b_data = a.data, b.data
    a_grad, b_grad = a.requires_grad, b.requires_grad
    out = a_data / b_data

    def backward(g):
        ga = _unbroadcast(g / b_data, a_data.shape) if a_grad else None
        gb = _unbroadcast(-g * a_data / (b_data * b_data), b_data.shape) if b_grad else None
        return ga, gb

    return _result(out, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        return (-g,)

    return _result(-a.data, (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    root = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / root,)

    return _result(root, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _result(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    a_data = a.data

    def backward(g):
        return (g / a_data,)

    return _result(np.log(a_data), (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)
    # only a graph reads the mask; graph-free inference skips writing it
    mask = a.data > 0.0 if _grad_enabled and a.requires_grad else None

    def backward(g):
        return (g * mask,)

    return _result(out, (a,), backward)


# -- shape and reduction ------------------------------------------------


def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    old_shape = a.shape
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(old_shape),)

    return _result(out, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _result(out, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    """The sum over ``axis`` divided by the count, as numpy's mean computes it: the same bits."""
    a = as_tensor(a)
    axes = range(a.ndim) if axis is None else axis if isinstance(axis, tuple) else (axis,)
    count = np.prod([a.shape[ax] for ax in axes])
    return div(tsum(a, axis, keepdims), float(count))


def take_rows(a, indices) -> Tensor:
    """Differentiable row gather: out[i] = a[indices[i]]."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"take_rows needs a 1-d index list, got shape {idx.shape}")
    if a.data.shape[0] == 0 and idx.size > 0:
        raise ValueError("take_rows on an empty tensor")
    out = a.data[idx]
    shape = a.shape

    def backward(g):
        ga = np.zeros(shape)
        np.add.at(ga, idx, g)
        return (ga,)

    return _result(out, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    out = a_data @ b_data

    def backward(g):
        return g @ b_data.T, a_data.T @ g

    return _result(out, (a, b), backward)


# -- convolution --------------------------------------------------------

# Columns of one im2col chunk when a convolution runs a few samples at a
# time: 8 samples at 16 x 16, so a chunk's window matrix is 4.7 MB at 32
# input channels rather than 37.7 MB for a batch of 64, and stays in cache.
CHUNK_COLUMNS = 2048


def sample_chunks(n: int, h: int, w: int) -> list[slice]:
    """Consecutive slices of about CHUNK_COLUMNS // (H*W) samples that cover range(n).

    A lone trailing sample joins the chunk before it: a one-row matrix
    product goes through a matrix-vector kernel, whose sums can differ in the
    last bit from the same row computed inside a larger product.
    """
    step = max(1, CHUNK_COLUMNS // (h * w))
    starts = list(range(0, max(n - 1, 1), step))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _im2col(a: np.ndarray, k: int) -> np.ndarray:
    """The (C*k*k, N*H*W) matrix of zero-padded k x k windows of N x C x H x W ``a``.

    Rows run over (channel, kernel row, kernel column) and columns over
    (sample, row, column), so one GEMM with an O x (C*k*k) kernel matrix
    gives the convolution for the whole batch.
    """
    n, c, h, w = a.shape
    p = k // 2
    # pad channel-major so the window copy below writes rows in order
    padded = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype=np.float64)
    padded[:, :, p : p + h, p : p + w] = a.transpose(1, 0, 2, 3)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (k, k), axis=(2, 3))
    return windows.transpose(0, 4, 5, 1, 2, 3).reshape(c * k * k, n * h * w)


def _conv_chunked(a: np.ndarray, kmat: np.ndarray, k: int) -> np.ndarray:
    """Same-padded convolution of N x C x H x W ``a`` with an O x (C*k*k) kernel matrix.

    Runs over ``sample_chunks``: one chunk's im2col matrix and one GEMM at a
    time, written into a C-contiguous N x O x H x W array. Every output
    column is the same dot product as in the whole-batch GEMM, so the result
    is bitwise that of ``kmat @ _im2col(a, k)``.
    """
    n, _, h, w = a.shape
    o = kmat.shape[0]
    out = np.empty((n, o, h, w), dtype=np.float64)
    for s in sample_chunks(n, h, w):
        out[s] = (kmat @ _im2col(a[s], k)).reshape(o, -1, h, w).transpose(1, 0, 2, 3)
    return out


def conv2d(x, weight) -> Tensor:
    """2-d convolution, stride 1, zero padding that preserves H and W.

    ``x`` is N x C x H x W, ``weight`` is O x C x k x k with odd k. When the
    graph needs the weight gradient, forward is one GEMM of the kernel matrix
    with the im2col matrix of ``x``, kept for the weight gradient: one GEMM
    of the output gradient with that same matrix. Otherwise (no grad, or a
    kernel that needs none) forward runs in sample chunks (``_conv_chunked``).
    The input gradient, computed only when ``x`` requires grad, is the
    chunked same-padded convolution of the output gradient with the kernel
    flipped in space and transposed in channels.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 4:
        raise ValueError(f"conv2d input must be N x C x H x W, got shape {x.shape}")
    if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
        raise ValueError(f"conv2d kernel must be O x C x k x k, got shape {weight.shape}")
    n, c, h, w = x.shape
    o, c2, k, _ = weight.shape
    if c2 != c:
        raise ValueError(f"conv2d channel mismatch: input has {c}, kernel expects {c2}")
    if k % 2 != 1:
        raise ValueError(f"conv2d kernel size must be odd to preserve H and W, got {k}")

    w_data, x_grad = weight.data, x.requires_grad
    kmat = w_data.reshape(o, c * k * k)
    cols = None
    if _grad_enabled and weight.requires_grad:
        cols = _im2col(x.data, k)
        out = (kmat @ cols).reshape(o, n, h, w).transpose(1, 0, 2, 3)
    else:
        out = _conv_chunked(x.data, kmat, k)

    def backward(g):
        gw = None
        if cols is not None:
            g_mat = g.transpose(1, 0, 2, 3).reshape(o, n * h * w)
            gw = (g_mat @ cols.T).reshape(o, c, k, k)
        if not x_grad:
            return None, gw
        flipped = w_data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * k * k)
        return _conv_chunked(g, flipped, k), gw

    return _result(out, (x, weight), backward)


# -- probability heads --------------------------------------------------


def softmax(logits) -> Tensor:
    """Numerically stable softmax along the last axis (max subtraction)."""
    logits = as_tensor(logits)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        return (probs * (g - inner),)

    return _result(probs, (logits,), backward)


def cross_entropy(probs, label: int) -> Tensor:
    """-log p[label] for a single probability vector.

    Training paths use :func:`softmax_cross_entropy`; this direct form exists
    for probability inputs and is clamped at 1e-300 so the result stays finite.
    """
    probs = as_tensor(probs)
    if probs.ndim != 1:
        raise ValueError(f"cross_entropy expects a 1-d probability vector, got shape {probs.shape}")
    label = int(label)
    if not 0 <= label < probs.shape[0]:
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    p = max(float(probs.data[label]), 1e-300)
    out = np.float64(-np.log(p))
    shape = probs.shape

    def backward(g):
        gp = np.zeros(shape)
        gp[label] = -float(g) / p
        return (gp,)

    return _result(out, (probs,), backward)


def _stable_softmax(logits, op: str):
    """The N x C logits tensor, its data z, and z's row-max-shifted logsumexp and softmax."""
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"{op} expects N x C logits, got shape {logits.shape}")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1)) + zmax[:, 0]
    return logits, z, lse, np.exp(z - lse[:, None])


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Fused softmax + cross-entropy from logits: the mean loss over a batch.

    ``logits`` is N x C, ``labels`` length N.
    """
    logits, z, lse, probs = _stable_softmax(logits, "softmax_cross_entropy")
    y = np.asarray(labels, dtype=np.intp)
    n, c = logits.shape
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match batch size {n}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"label out of range for {c} classes: {y[(y < 0) | (y >= c)][0]}")
    losses = lse - z[np.arange(n), y]

    def backward(g):
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        return (delta * (float(g) / n),)

    return _result(losses.mean(), (logits,), backward)


def softmax_entropy(logits) -> Tensor:
    """Per-row Shannon entropy of softmax(logits), differentiable.

    Computed as logsumexp(z) - sum(p * z), which stays finite for any finite
    logits. Returns a length-N vector for N x C input. It keeps this forward
    rather than taking ``stream.entropy`` of the softmax: the two round
    differently, and the entropy-minimization baselines' results rest on
    these bits.
    """
    logits, z, lse, probs = _stable_softmax(logits, "softmax_entropy")
    s = (probs * z).sum(axis=1)
    ent = lse - s

    def backward(g):
        return (probs * (s[:, None] - z) * np.asarray(g)[:, None],)

    return _result(ent, (logits,), backward)


# -- normalization statistics ------------------------------------------


def channel_stats(x, eps: float = 0.0) -> tuple[Tensor, Tensor]:
    """Per-(sample, channel) spatial mean and population std of N x C x H x W.

    The std is sqrt(var + eps): eps > 0 keeps it differentiable on constant
    channels, and eps=0 gives the exact population std.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ValueError(f"channel_stats expects N x C x H x W, got shape {x.shape}")
    mu = tmean(x, axis=(2, 3))
    centered = sub(x, reshape(mu, mu.shape[0], mu.shape[1], 1, 1))
    var = tmean(mul(centered, centered), axis=(2, 3))
    return mu, sqrt(add(var, eps))


def instance_norm(x, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-(sample, channel) standardization with a learnable affine.

    output = gamma * (x - mu) / sqrt(var + eps) + beta, with mu/var computed
    over the spatial dimensions of each sample and channel independently.
    One graph node with a closed-form backward (see ``_normalize``).
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim != 4:
        raise ValueError(f"instance_norm expects N x C x H x W, got shape {x.shape}")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ValueError(
            f"instance_norm affine parameters must have shape ({c},), got gamma {gamma.shape}, beta {beta.shape}"
        )
    if eps < 0:
        raise ValueError("instance_norm eps must be >= 0")
    return _normalize(x, gamma, beta, (2, 3), eps)


def _normalize(x: Tensor, gamma: Tensor, beta: Tensor, axes: tuple[int, ...], eps: float) -> Tensor:
    """gamma * (x - mu) / sqrt(var + eps) + beta, statistics pooled over ``axes``.

    ``x`` is N x C x H x W and ``axes`` is (2, 3) for instance statistics or
    (0, 2, 3) for batch statistics; ``gamma`` and ``beta`` have shape (C,).
    One graph node. With xhat the normalized input and means taken over
    ``axes``, the input gradient is the closed form
    gamma / sqrt(var + eps) * (g - mean(g) - xhat * mean(g * xhat)),
    computed only when ``x`` needs a gradient.
    """
    c = x.shape[1]
    g4, b4 = gamma.data.reshape(1, c, 1, 1), beta.data.reshape(1, c, 1, 1)
    centered = x.data - x.data.mean(axis=axes, keepdims=True)
    # out holds the squares first; the in-place steps keep two full-size buffers
    out = np.multiply(centered, centered)
    std = np.sqrt(out.mean(axis=axes, keepdims=True) + eps)
    xhat = np.divide(centered, std, out=centered)
    np.multiply(g4, xhat, out=out)
    out += b4
    x_grad = x.requires_grad

    def backward(g):
        g_xhat = g * xhat
        ggamma, gbeta = g_xhat.sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))
        if not x_grad:
            return None, ggamma, gbeta
        gx = np.multiply(xhat, g_xhat.mean(axis=axes, keepdims=True), out=g_xhat)
        np.subtract(g, gx, out=gx)
        gx -= g.mean(axis=axes, keepdims=True)
        gx *= g4 / std
        return gx, ggamma, gbeta

    return _result(out, (x, gamma, beta), backward)


# -- similarity ---------------------------------------------------------


def unit_rows(x: np.ndarray) -> np.ndarray:
    """Rows of a 2-d array scaled to unit L2 norm.

    A zero-norm row stays zero, so its cosine with anything is 0 rather than
    NaN and cannot poison a downstream softmax; it raises a
    DegenerateSimilarityWarning.
    """
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        warnings.warn("cosine similarity of a zero-norm vector, returning 0", DegenerateSimilarityWarning)
    return np.divide(x, norms[:, None], out=np.zeros_like(x), where=norms[:, None] != 0)


def cosine_sim(a, b) -> float:
    """Cosine similarity of two vectors, clipped into [-1, 1]; 0.0 for a zero vector."""
    va = np.ravel(a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64))
    vb = np.ravel(b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64))
    if va.shape != vb.shape:
        raise ValueError(f"cosine_sim shape mismatch: {va.shape} vs {vb.shape}")
    ua, ub = unit_rows(np.stack([va, vb]))
    return float(np.clip(ua @ ub, -1.0, 1.0))
