"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are stored as C-contiguous float64 numpy arrays. Each differentiable
operation records its parents and a backward closure; ``Tensor.backward()``
walks the graph in reverse topological order and accumulates gradients into
``.grad`` buffers of tensors that require them.

Scope is deliberately small: exactly the operations the adaptation pipeline
needs, each one checked against central finite differences in the test suite.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np

from .errors import DegenerateSimilarityWarning

_grad_enabled = True


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


class Tensor:
    """A dense n-dimensional float64 value with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        # order="C" keeps 0-d scalars 0-d; ascontiguousarray would promote them to (1,)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """A view of the same data with the graph cut off."""
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.grad = None
        t.requires_grad = False
        t._parents = ()
        t._backward_fn = None
        return t

    def zero_grad(self):
        self.grad = None

    def copy(self) -> "Tensor":
        t = Tensor(self.data.copy(), requires_grad=self.requires_grad)
        return t

    # -- graph -----------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None):
        """Accumulate dself/dleaf into every reachable leaf's ``.grad``."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.shape}")

        order = _toposort(self)
        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(order):
            if node._backward_fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._backward_fn(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

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
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
            stack.append((parent, False))
    return order


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
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

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(out, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _result(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _result(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
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

    def backward(g):
        return (g / a.data,)

    return _result(np.log(a.data), (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)

    def backward(g):
        return (g * (a.data > 0.0),)

    return _result(out, (a,), backward)


# -- shape and reduction ------------------------------------------------


def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old_shape = a.shape
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(old_shape),)

    return _result(out, (a,), backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _result(out, (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return _result(out, (a,), backward)


def take_rows(a, indices) -> Tensor:
    """Differentiable row gather: out[i] = a[indices[i]]."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f"take_rows needs a 1-d index list, got shape {idx.shape}")
    if a.data.shape[0] == 0 and idx.size > 0:
        raise ValueError("take_rows on an empty tensor")
    out = a.data[idx]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g)
        return (ga,)

    return _result(out, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return _result(out, (a, b), backward)


# -- convolution --------------------------------------------------------


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


def conv2d(x, weight) -> Tensor:
    """2-d convolution, stride 1, zero padding that preserves H and W.

    ``x`` is N x C x H x W, ``weight`` is O x C x k x k with odd k. Forward
    is one GEMM of the kernel matrix with the im2col matrix of ``x``, and
    the weight gradient is one GEMM of the output gradient with that same
    matrix. The input gradient, computed only when ``x`` requires grad, is
    the same-padded convolution of the output gradient with the kernel
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

    cols = _im2col(x.data, k)
    out = (weight.data.reshape(o, c * k * k) @ cols).reshape(o, n, h, w).transpose(1, 0, 2, 3)

    def backward(g):
        g_mat = g.transpose(1, 0, 2, 3).reshape(o, n * h * w)
        gw = (g_mat @ cols.T).reshape(o, c, k, k)
        if not x.requires_grad:
            return None, gw
        flipped = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * k * k)
        gx = (flipped @ _im2col(g, k)).reshape(c, n, h, w).transpose(1, 0, 2, 3)
        return gx, gw

    return _result(out, (x, weight), backward)


# -- probability heads --------------------------------------------------


def softmax(logits, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max subtraction)."""
    logits = as_tensor(logits)
    z = logits.data - logits.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * probs).sum(axis=axis, keepdims=True)
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

    def backward(g):
        gp = np.zeros_like(probs.data)
        gp[label] = -float(g) / p
        return (gp,)

    return _result(out, (probs,), backward)


def softmax_cross_entropy(logits, labels, reduction: str = "mean") -> Tensor:
    """Fused softmax + cross-entropy from logits, for a batch of labels.

    ``logits`` is N x C, ``labels`` length N. ``reduction`` is "mean" or
    "none" (per-sample loss vector).
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects N x C logits, got shape {logits.shape}")
    y = np.asarray(labels, dtype=np.intp)
    n, c = logits.shape
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match batch size {n}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"label out of range for {c} classes: {y[(y < 0) | (y >= c)][0]}")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1)) + zmax[:, 0]
    losses = lse - z[np.arange(n), y]
    probs = np.exp(z - lse[:, None])

    if reduction == "mean":
        out = losses.mean()
    elif reduction == "none":
        out = losses
    else:
        raise ValueError(f"unknown reduction {reduction!r}")

    def backward(g):
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        if reduction == "mean":
            return (delta * (float(g) / n),)
        return (delta * np.asarray(g)[:, None],)

    return _result(out, (logits,), backward)


def softmax_entropy(logits) -> Tensor:
    """Per-row Shannon entropy of softmax(logits), differentiable.

    Computed as logsumexp(z) - sum(p * z), which stays finite for any finite
    logits. Returns a length-N vector for N x C input.
    """
    logits = as_tensor(logits)
    if logits.ndim != 2:
        raise ValueError(f"softmax_entropy expects N x C logits, got shape {logits.shape}")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=1)) + zmax[:, 0]
    probs = np.exp(z - lse[:, None])
    s = (probs * z).sum(axis=1)
    ent = lse - s

    def backward(g):
        return (probs * (s[:, None] - z) * np.asarray(g)[:, None],)

    return _result(ent, (logits,), backward)


# -- normalization statistics ------------------------------------------


def channel_stats(x, eps: float = 0.0) -> tuple[Tensor, Tensor]:
    """Per-(sample, channel) spatial mean and population std of N x C x H x W.

    With ``eps`` > 0 the std is smoothed as sqrt(var + eps), which keeps it
    differentiable on constant channels; eps=0 gives the exact population std.
    """
    x = as_tensor(x)
    if x.ndim != 4:
        raise ValueError(f"channel_stats expects N x C x H x W, got shape {x.shape}")
    mu = tmean(x, axis=(2, 3))
    centered = sub(x, reshape(mu, mu.shape[0], mu.shape[1], 1, 1))
    var = tmean(mul(centered, centered), axis=(2, 3))
    sigma = sqrt(add(var, eps)) if eps else sqrt(var)
    return mu, sigma


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
    gamma / sqrt(var + eps) * (g - mean(g) - xhat * mean(g * xhat)).
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

    def backward(g):
        g_xhat = g * xhat
        ggamma = g_xhat.sum(axis=(0, 2, 3))
        gx = np.multiply(xhat, g_xhat.mean(axis=axes, keepdims=True), out=g_xhat)
        np.subtract(g, gx, out=gx)
        gx -= g.mean(axis=axes, keepdims=True)
        gx *= g4 / std
        return gx, ggamma, g.sum(axis=(0, 2, 3))

    return _result(out, (x, gamma, beta), backward)


# -- similarity ---------------------------------------------------------


def cosine_sim(a, b) -> float:
    """Cosine similarity of two vectors, clipped into [-1, 1].

    Zero-norm input yields 0.0 with a DegenerateSimilarityWarning instead of
    NaN, so a degenerate feature cannot poison a downstream softmax.
    """
    va = np.ravel(a.data if isinstance(a, Tensor) else np.asarray(a, dtype=np.float64))
    vb = np.ravel(b.data if isinstance(b, Tensor) else np.asarray(b, dtype=np.float64))
    if va.shape != vb.shape:
        raise ValueError(f"cosine_sim shape mismatch: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        warnings.warn("cosine similarity of a zero-norm vector, returning 0", DegenerateSimilarityWarning)
        return 0.0
    return float(np.clip(float(va @ vb) / (na * nb), -1.0, 1.0))
