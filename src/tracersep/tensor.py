"""Dense tensor kernels with reverse-mode automatic differentiation.

Everything else in the package computes on these. Arrays are flat row-major
float32 (runtime default) or float64 (test/oracle mode); the precision is a
run-level switch and is never mixed inside one graph. Feature maps are
(..., H, W, C): the map ops (convolutions, pixel (un)shuffle, `channel`)
work on the trailing three axes and treat any leading axes as a batch, so
one graph carries a whole training batch. 3x3 convolutions are zero padded,
so they keep H x W.

Every op makes its output node through `_result`, handing it a closure
backward(g). When the node records (grad mode on, some input needing a
gradient), backward(g) receives the node's gradient g and adds into the
gradient of each input that needs one; an input that needs none costs
nothing. The closure refers to the op's inputs, never to its own node, so a
graph holds no reference cycle. A 3x3 conv adds its bias inside its kernel,
as the dense kernel under `linear` and the pointwise conv does, so a biased
conv is one node.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
from typing import Callable, Iterable, Sequence

import numpy as np

_DTYPES = {"f32": np.float32, "f64": np.float64}
_state = {"dtype": np.float32, "grad": True}

TSR_MAGIC = b"MSCDTTSR"

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

# The f32 gelu sweeps a large map in pieces of at most this many bytes, small
# enough that a piece and its f64 scratch stay in a core's L2 cache.
_BLOCK_BYTES = 1 << 18

# Phi(x) - 1/2 ~ x * p(x^2) / q(x^2) on [-4 sqrt2, 4 sqrt2], Phi the Gaussian
# CDF, coefficients lowest order first. This is the rational erf(z) ~
# z * p(z^2) / q(z^2), fitted in f64 to scipy.special.erf on [0, 4] by
# iteratively reweighted linear least squares of the relative error (which
# ends at 2.0e-9), rescaled by Phi(x) = (1 + erf(x / sqrt2)) / 2. Outside the
# interval it is clamped: there erf is 1 - 1.5e-8 or closer to 1.
_PHI_CLAMP = 4.0 * math.sqrt(2.0)
_PHI_P = (0.3989422812036352, 0.03273980395489869, 0.004800970138051448,
          0.0001701307146009049, 8.387999157052066e-06, 5.1756394092526845e-08,
          -7.292401716342152e-11)
_PHI_Q = (1.0, 0.24873322512508644, 0.028489653918644994, 0.0019327582135221326,
          8.172224317783526e-05, 1.9721092569905833e-06)


def _dtype(name: str):
    if name not in _DTYPES:
        raise ValueError(f"unknown dtype {name!r}, expected 'f32' or 'f64'")
    return _DTYPES[name]


def _swap(key: str, value):
    """Generator body of the context managers below: set _state[key] to
    value, yield, and restore the old value however the block exits."""
    old, _state[key] = _state[key], value
    try:
        yield
    finally:
        _state[key] = old


@contextlib.contextmanager
def precision(name: str):
    """Temporarily switch the default dtype ('f32' or 'f64')."""
    yield from _swap("dtype", _dtype(name))


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference / metrics)."""
    yield from _swap("grad", False)


def make_rng(seed: int) -> np.random.Generator:
    """Named counter-based generator; all stochastic ops take one explicitly."""
    return np.random.Generator(np.random.Philox(seed))


class Tensor:
    """Node of the reverse-mode graph, backed by a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_prev", "_backward")

    def __init__(self, data):
        arr = np.asarray(data, dtype=_state["dtype"])
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite values rejected at tensor boundary")
        self.data = arr
        self.grad = None
        self.requires_grad = False
        self.op = "leaf"
        self._prev: tuple = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    def backward(self) -> None:
        """Accumulate d(self)/d(x) into the grad of every x that needs one.

        The graph is used up: once a node has passed its gradient on, it drops
        its backward closure and its inputs, so a second backward through it
        passes nothing on.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar")
        self.grad = np.ones_like(self.data)
        order = topological_order(self)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
            node._backward, node._prev = None, ()

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(op={self.op}, shape={self.data.shape}, dtype={self.data.dtype})"


_serials = itertools.count()


class Parameter(Tensor):
    """Trainable tensor with a unique dotted name path.

    `serial` numbers parameters in the order they are created, which is also
    the order an init draws them in; `Module.parameters` sorts on it.
    """

    __slots__ = ("name", "serial")

    def __init__(self, data, name: str):
        # parameters stay trainable even if created under no_grad
        super().__init__(data)
        self.requires_grad = True
        self.name = name
        self.serial = next(_serials)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


class Module:
    """Base of every class that owns parameters."""

    def parameters(self) -> list[Parameter]:
        """Every Parameter reachable from this module, once, in creation order.

        The walk follows attributes and the lists and tuples inside them, and
        enters no object but a Module. Creation order is the init's draw
        order and the checkpoint's record order.
        """
        found: dict[int, Parameter] = {}
        entered: set[int] = set()
        stack: list = [self]
        while stack:
            x = stack.pop()
            if isinstance(x, Parameter):
                found[id(x)] = x
            elif isinstance(x, (Module, list, tuple)) and id(x) not in entered:
                entered.add(id(x))
                stack.extend(vars(x).values() if isinstance(x, Module) else x)
        return sorted(found.values(), key=lambda p: p.serial)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else _state["dtype"]
    return _result(np.asarray(x, dtype=dtype), (), "const")


def _result(data: np.ndarray, prev: Sequence[Tensor], op: str,
            backward: Callable[[np.ndarray], None] | None = None) -> Tensor:
    """The node of op's output data; every op makes its node here.

    The node records, keeping prev and backward, when grad mode is on and an
    input needs a gradient. backward(g) receives the node's gradient and adds
    into the gradient of each input that needs one, and only of those.
    """
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.op = op
    t.requires_grad = _state["grad"] and any(p.requires_grad for p in prev)
    t._prev = tuple(prev) if t.requires_grad else ()
    t._backward = backward if t.requires_grad else None
    return t


def topological_order(root: Tensor) -> list[Tensor]:
    """root and the ancestors that need a gradient, each after all of its inputs."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return topo


def _grad(t: Tensor) -> np.ndarray:
    """t's gradient buffer, zeroed on first use.

    Backward passes add into it, or into slices or reshaped views of it, in
    place; it is C-contiguous whatever the layout of t.data, so a reshape of
    it is always a view.
    """
    if t.grad is None:
        t.grad = np.zeros(t.data.shape, t.data.dtype)
    return t.grad


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add g into t's gradient when t needs one."""
    if t.requires_grad:
        buf = _grad(t)
        buf += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------

# op -> (forward, gradient for a, gradient for b), the gradients of
# g = d(loss)/d(out) before they are summed back to an operand's shape
_BINARY = {
    "add": (np.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (np.subtract, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a),
}


def _binary(op: str, a, b) -> Tensor:
    """The broadcasting kernel under add, sub and mul. A number operand
    becomes a const in the dtype of the Tensor one."""
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    forward, grad_a, grad_b = _BINARY[op]

    def backward(g):
        for t, grad in ((a, grad_a), (b, grad_b)):
            if t.requires_grad:
                _accum(t, _unbroadcast(grad(g, a.data, b.data), t.data.shape))
    return _result(forward(a.data, b.data), (a, b), op, backward)


def add(a, b) -> Tensor:
    return _binary("add", a, b)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b)


def abs_(a: Tensor) -> Tensor:
    return _result(np.abs(a.data), (a,), "abs", lambda g: _accum(a, g * np.sign(a.data)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over the last two axes, batched over the leading ones. No package
    op calls it: the fused-op oracle's reference does, and perfbench's
    patch-site test requires it."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects rank >= 2 operands")

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))
    return _result(np.matmul(a.data, b.data), (a, b), "matmul", backward)


def _norm_axes(axis, ndim) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def _spread(g: np.ndarray, a: Tensor, axes: tuple, keepdims: bool) -> np.ndarray:
    """A reduction's output gradient g broadcast back over a's shape."""
    return np.broadcast_to(g if keepdims else np.expand_dims(g, axes), a.data.shape)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    return _result(a.data.sum(axis=axes, keepdims=keepdims), (a,), "sum",
                   lambda g: _accum(a, _spread(g, a, axes, keepdims)))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    count = int(np.prod([a.data.shape[ax] for ax in axes])) if axes else 1
    return _result(a.data.mean(axis=axes, keepdims=keepdims), (a,), "mean",
                   lambda g: _accum(a, _spread(g, a, axes, keepdims) / count))


def reshape(a: Tensor, shape) -> Tensor:
    return _result(a.data.reshape(shape), (a,), "reshape",
                   lambda g: _accum(a, g.reshape(a.data.shape)))


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)

    def backward(g):
        offsets = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        for p, gp in zip(parts, np.split(g, offsets, axis=axis)):
            _accum(p, gp)
    return _result(np.concatenate([p.data for p in parts], axis=axis), parts, "concat",
                   backward)


def split(a: Tensor, n: int) -> list[Tensor]:
    """Split the last axis into n equal parts; each part's data is a view of a's."""
    if n < 1 or a.data.shape[-1] % n:
        raise ValueError(f"last axis of {a.data.shape} does not split into {n} equal parts")
    width = a.data.shape[-1] // n
    parts = []
    for i in range(n):
        cols = slice(i * width, (i + 1) * width)

        def backward(g, cols=cols):
            _grad(a)[..., cols] += g
        parts.append(_result(a.data[..., cols], (a,), "split", backward))
    return parts


def channel(a: Tensor, k: int) -> Tensor:
    """Select channel k of a (..., H, W, C) feature map."""
    def backward(g):
        _grad(a)[..., k] += g
    return _result(np.ascontiguousarray(a.data[..., k]), (a,), "channel", backward)


# ---------------------------------------------------------------------------
# activations and normalization
# ---------------------------------------------------------------------------

def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return _flush_subnormals(e / e.sum(axis=axis, keepdims=True))


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """The input gradient of a softmax y along axis, given its output gradient g."""
    return _flush_subnormals(y * (g - (g * y).sum(axis=axis, keepdims=True)))


def _flush_subnormals(x: np.ndarray) -> np.ndarray:
    """x with every entry of magnitude below the dtype's smallest normal set to 0.

    A saturated softmax row holds probabilities far below that, and on x86
    every later multiply or add that reads or yields a subnormal takes a
    slow microcode path, about 100x the normal cost. Flushing them changes
    no entry by more than the dtype's smallest normal (1.2e-38 in f32).
    """
    x[np.abs(x) < np.finfo(x.dtype).tiny] = 0.0
    return x


def _rows_per_block(row_bytes: int) -> int:
    """Rows of row_bytes each that fit in one _BLOCK_BYTES piece (at least 1)."""
    return max(1, _BLOCK_BYTES // max(row_bytes, 1))


def _horner(coefs, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.multiply(t, coefs[-1], out=out)
    np.add(out, coefs[-2], out=out)
    for c in coefs[-3::-1]:
        np.multiply(out, t, out=out)
        np.add(out, c, out=out)
    return out


def _phi_half(x: np.ndarray, t: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Overwrite the f64 array x, already clamped to +-_PHI_CLAMP, with
    Phi(x) - 1/2 from the _PHI_P/_PHI_Q rational.

    t, p and q are scratch arrays of x's shape. The erf it implies,
    2 * (Phi(sqrt2 z) - 1/2) rounded once to f32, is within 2 f32 ulp of
    scipy.special.erf (0.53 ulp measured over [-10, 10]). Evaluating the
    same rational in f32 is not: its dozen roundings cost up to 6 ulp near
    erf = 1.
    """
    np.multiply(x, x, out=t)
    _horner(_PHI_P, t, p)
    _horner(_PHI_Q, t, q)
    np.multiply(x, p, out=x)
    return np.divide(x, q, out=x)


def _gelu_f32(x: np.ndarray, keep_phi: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(x * phi, phi) for an f32 x, phi the Gaussian CDF, computed over pieces
    of rows in f64 scratch. phi is rounded to f32 before the product, so y is
    the same either way; without keep_phi, phi lives only in a piece-sized
    buffer and None is returned in its place."""
    x2 = x.reshape(math.prod(x.shape[:-1]), x.shape[-1]) if x.ndim else x.reshape(1, 1)
    n, m = x2.shape
    y = np.empty(x2.shape, np.float32)
    rows = _rows_per_block(m * 8)
    phi = np.empty((n if keep_phi else min(rows, n), m), np.float32)
    z, t, p, q = np.empty((4, min(rows, n), m))
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        zb = np.clip(x2[r0:r1], -_PHI_CLAMP, _PHI_CLAMP, out=z[:r1 - r0])
        _phi_half(zb, t[:r1 - r0], p[:r1 - r0], q[:r1 - r0])
        phi_b = np.add(zb, 0.5, out=phi[r0:r1] if keep_phi else phi[:r1 - r0])
        np.multiply(x2[r0:r1], phi_b, out=y[r0:r1])
    return y.reshape(x.shape), phi.reshape(x.shape) if keep_phi else None


def _gelu(x: np.ndarray, keep_phi: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """(x * phi, phi), phi the exact erf-based Gaussian CDF of x, not the tanh
    approximation; phi may be None without keep_phi. f64 takes scipy's erf,
    f32 the fitted rational of _phi_half. scipy is imported here, not with
    the module, so an f32 run never loads it."""
    if x.dtype == np.float32:
        return _gelu_f32(x, keep_phi)
    from scipy.special import erf
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * phi, phi


def _gelu_slope(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """d gelu / dx = phi + x * pdf at x."""
    pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return phi + x * pdf


def gelu(a: Tensor) -> Tensor:
    y, phi = _gelu(a.data, keep_phi=_state["grad"] and a.requires_grad)
    return _result(y, (a,), "gelu", lambda g: _accum(a, g * _gelu_slope(a.data, phi)))


def geglu(a: Tensor) -> Tensor:
    """gelu(gate) * value for a = gate | value, the two halves of a's last axis.

    One node, whose backward keeps phi(gate) but not gelu(gate): it makes
    gelu(gate) again as gate * phi, the product the forward rounded, so the
    output and gradients are bytewise those of `gelu` and `mul` on the
    `split` halves.
    """
    if a.data.shape[-1] % 2:
        raise ValueError(f"last axis of {a.data.shape} does not split into gate | value")
    h = a.data.shape[-1] // 2
    gate, val = a.data[..., :h], a.data[..., h:]
    y, phi = _gelu(gate, keep_phi=_state["grad"] and a.requires_grad)
    y *= val

    def backward(g):
        buf = _grad(a)
        buf[..., :h] += (g * val) * _gelu_slope(gate, phi)
        buf[..., h:] += g * (gate * phi)
    return _result(y, (a,), "geglu", backward)


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError("leaky_relu slope must lie in (0, 1)")

    def backward(g):
        # factor 1 where a >= 0, else slope, looked up by the mask's bytes
        factor = np.array([slope, 1.0], a.data.dtype).take((a.data >= 0).view(np.uint8))
        _accum(a, g * factor)
    return _result(np.maximum(a.data, slope * a.data), (a,), "leaky_relu", backward)


def layer_norm(a: Tensor, axis: int, epsilon: float = 1e-5,
               scale_shift: Tensor | None = None) -> Tensor:
    """Per-position normalization y over `axis` (population variance).

    Without scale_shift the output is y. With it, `axis` is a's last, of C
    entries, and scale_shift is a (..., 2C) row scale | shift whose leading
    axes are a's first ones; the output is scale * y + shift, broadcast over
    a's remaining axes. That is one node, whose output and gradients are
    bytewise those of layer_norm, mul and add on the split halves. It keeps
    neither y nor scale * y: its backward makes y again from a, the same
    arithmetic as the forward's.
    """
    mean = a.data.mean(axis=axis, keepdims=True)
    d = a.data - mean
    var = (d * d).mean(axis=axis, keepdims=True)  # np.var's arithmetic, one pass fewer
    inv = 1.0 / np.sqrt(var + epsilon)
    out, prev = d * inv, (a,)
    if scale_shift is not None:
        c, lead = a.data.shape[-1], scale_shift.data.shape[:-1]
        if (axis % a.data.ndim != a.data.ndim - 1 or scale_shift.data.shape[-1] != 2 * c
                or a.data.shape[:len(lead)] != lead):
            raise ValueError(f"scale | shift {scale_shift.data.shape} vs layer_norm of "
                             f"{a.data.shape} over axis {axis}")
        # the row with a singleton for each axis of a it broadcasts over
        row = lead + (1,) * (a.data.ndim - len(lead) - 1) + (2 * c,)
        scale, shift = np.split(scale_shift.data.reshape(row), 2, axis=-1)
        out *= scale
        out += shift
        prev = (a, scale_shift)

    def backward(g):
        y = out
        if scale_shift is not None:
            y = (a.data - mean) * inv
            if scale_shift.requires_grad:
                buf = _grad(scale_shift).reshape(row)
                buf[..., :c] += _unbroadcast(g * y, scale.shape)
                buf[..., c:] += _unbroadcast(g, shift.shape)
            g = g * scale
        if a.requires_grad:
            gm = g.mean(axis=axis, keepdims=True)
            gym = (g * y).mean(axis=axis, keepdims=True)
            _accum(a, inv * (g - gm - y * gym))
    return _result(out, prev, "layer_norm", backward)


# ---------------------------------------------------------------------------
# channel attention
# ---------------------------------------------------------------------------

def _permute_last(x: np.ndarray, perm: tuple) -> np.ndarray:
    """x with its last len(perm) axes permuted by perm; leading axes stay."""
    n = x.ndim - len(perm)
    return x.transpose(tuple(range(n)) + tuple(n + p for p in perm))


def _qkv_heads(qkv: np.ndarray, heads: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-head views q, k, v of a (..., H, W, 3C) q | k | v map: q as
    (..., heads, H*W, C/heads), k and v as (..., heads, C/heads, H*W). They
    are views when qkv is C-contiguous, as a gradient buffer always is."""
    *lead, h, w, c3 = qkv.shape
    x = qkv.reshape(*lead, h * w, 3, heads, c3 // (3 * heads))
    q, k, v = (x[..., i, :, :] for i in range(3))
    return _permute_last(q, (1, 0, 2)), _permute_last(k, (1, 2, 0)), _permute_last(v, (1, 2, 0))


def _attention_weights(qkv: np.ndarray, gamma: np.ndarray, eps: float) -> tuple:
    """(q, k, v head views, |gamma| + eps, scores k q^T, their softmax)."""
    q, k, v = _qkv_heads(qkv, gamma.shape[0])
    scale = np.abs(gamma) + np.asarray(eps, gamma.dtype)
    scores = np.matmul(k, q)
    return q, k, v, scale, scores, _softmax(scores / scale, -1)


def _check_attention(qkv: Tensor, gamma: Tensor) -> None:
    heads = gamma.data.shape[0]
    if (qkv.data.ndim < 3 or gamma.data.shape != (heads, 1, 1)
            or qkv.data.shape[-1] % (3 * heads)):
        raise ValueError(f"q | k | v map {qkv.data.shape} does not split into 3 x "
                         f"{heads} heads of gamma {gamma.data.shape}")


def attention_weights(qkv: Tensor, gamma: Tensor, eps: float) -> Tensor:
    """The per-head maps (..., heads, C/heads, C/heads) that `channel_attention`
    mixes v's channels with; each row sums to 1. It records no graph."""
    _check_attention(qkv, gamma)
    return _result(_attention_weights(qkv.data, gamma.data, eps)[-1], (), "attention_weights")


def channel_attention(qkv: Tensor, gamma: Tensor, eps: float) -> Tensor:
    """Transposed attention of a (..., H, W, 3C) q | k | v map: the (..., H,
    W, C) map whose channels are v's, mixed within each head by
    softmax(k q^T / (|gamma| + eps)), with gamma (heads, 1, 1).

    One node, whose output and gradients are bytewise those of the split,
    reshape, transpose, abs, add, matmul, div and softmax nodes it replaces.
    Its output is a view of the mixed map's (..., heads, C/heads, H*W) array;
    besides it, the node keeps only the per-head scores and weights.
    """
    _check_attention(qkv, gamma)
    *lead, h, w, c3 = qkv.data.shape
    heads = gamma.data.shape[0]
    q, k, v, scale, scores, attn = _attention_weights(qkv.data, gamma.data, eps)
    mixed = np.matmul(attn, v)  # (..., heads, C/heads, H*W)
    out = _permute_last(mixed, (2, 0, 1)).reshape(*lead, h, w, c3 // 3)

    def backward(g):
        # the mixed map's gradient in the mixed map's layout, one C-ordered copy
        g = g.reshape(*lead, h * w, heads, c3 // (3 * heads))
        gm = np.ascontiguousarray(_permute_last(g, (1, 2, 0)))
        gs = _softmax_grad(attn, np.matmul(gm, v.swapaxes(-1, -2)), -1)
        g_scores = gs / scale
        if gamma.requires_grad:
            g_scale = _unbroadcast(-gs * scores / (scale * scale), scale.shape)
            _accum(gamma, g_scale * np.sign(gamma.data))
        if qkv.requires_grad:
            gq, gk, gv = _qkv_heads(_grad(qkv), heads)
            gv += np.matmul(attn.swapaxes(-1, -2), gm)
            gk += np.matmul(g_scores, q.swapaxes(-1, -2))
            gq += np.matmul(k.swapaxes(-1, -2), g_scores)
    return _result(out, (qkv, gamma), "channel_attention", backward)


# ---------------------------------------------------------------------------
# pixel shuffle / unshuffle ((..., H, W, C) layout)
# ---------------------------------------------------------------------------

def _unshuffle_arr(x: np.ndarray, r: int) -> np.ndarray:
    *lead, h, w, c = x.shape
    y = x.reshape(-1, h // r, r, w // r, r, c).transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(y).reshape(*lead, h // r, w // r, r * r * c)


def _shuffle_arr(x: np.ndarray, r: int) -> np.ndarray:
    *lead, h, w, c = x.shape
    y = x.reshape(-1, h, w, r, r, c // (r * r)).transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(y).reshape(*lead, h * r, w * r, c // (r * r))


def pixel_unshuffle(a: Tensor, r: int) -> Tensor:
    h, w, _ = a.data.shape[-3:]
    if h % r or w % r:
        raise ValueError(f"spatial extents {h}x{w} not divisible by factor {r}")
    return _result(_unshuffle_arr(a.data, r), (a,), "pixel_unshuffle",
                   lambda g: _accum(a, _shuffle_arr(g, r)))


def pixel_shuffle(a: Tensor, r: int) -> Tensor:
    c = a.data.shape[-1]
    if c % (r * r):
        raise ValueError(f"channel count {c} not divisible by {r * r}")
    return _result(_shuffle_arr(a.data, r), (a,), "pixel_shuffle",
                   lambda g: _accum(a, _unshuffle_arr(g, r)))


# ---------------------------------------------------------------------------
# convolutions (spatial extents preserved, 3x3 zero padded)
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, kernel: Tensor, mode: str, bias: Tensor | None = None,
           residual: Tensor | None = None) -> Tensor:
    """2-D convolution on (..., H, W, C) maps, each map of the leading axes on
    its own; 3x3 kernels see zeros outside the map. The bias, one per output
    channel, and then the residual, a map of the output's shape, are added
    inside the kernel, so a biased conv with a residual is one node.

    modes: 'pointwise_1x1' kernel (Cin, Cout); 'depthwise_3x3' kernel (3, 3, C);
    'full_3x3' kernel (3, 3, Cin, Cout).
    """
    if x.data.ndim < 3:
        raise ValueError(f"conv2d expects (..., H, W, C) maps, got shape {x.data.shape}")
    if mode == "pointwise_1x1":
        return _dense(x, kernel, bias, "conv1x1", residual)
    if mode == "depthwise_3x3":
        return _conv_depthwise(x, kernel, bias, residual)
    if mode == "full_3x3":
        return _conv_full3x3(x, kernel, bias, residual)
    raise ValueError(f"unknown conv mode {mode!r}")


def _items(x: np.ndarray) -> np.ndarray:
    """(..., H, W, C) as (N, H, W, C), the leading axes flattened into N."""
    return x.reshape((-1,) + x.shape[-3:])


def _windows(xs: np.ndarray) -> np.ndarray:
    """(N, H, W, C) as the (N, H, W, C, 3, 3) windows of a zero-padded 3x3.

    Window [n, i, j, c] holds input (i + di - 1, j + dj - 1) of item n and
    channel c at [di, dj], and 0 outside the map. It is a strided view of a
    zero-padded (N, H + 2, W + 2, C) copy, the one array it allocates.
    """
    n, h, w, c = xs.shape
    padded = np.zeros((n, h + 2, w + 2, c), xs.dtype)
    padded[:, 1:-1, 1:-1] = xs
    return np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))


def _kernel_node(x: Tensor, k: Tensor, bias: Tensor | None, residual: Tensor | None,
                 op: str, y: np.ndarray, backward: Callable[[np.ndarray], None]) -> Tensor:
    """The node of a kernel's output y, given as rows of x's leading shape:
    the bias and then the residual are added to y in place. The bias's
    gradient is the output gradient summed back to its shape, the residual's
    is the output gradient itself, and backward(g) handles x and k."""
    y = y.reshape(x.data.shape[:-1] + y.shape[-1:])
    prev = [x, k]
    if bias is not None:
        y += bias.data
        prev.append(bias)
    if residual is not None:
        if residual.data.shape != y.shape:
            raise ValueError(f"{op}: residual {residual.data.shape} vs output {y.shape}")
        y += residual.data
        prev.append(residual)
    if len(prev) == 2:
        return _result(y, prev, op, backward)

    def with_addends(g):
        if bias is not None and bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        if residual is not None:
            _accum(residual, g)
        backward(g)
    return _result(y, prev, op, with_addends)


def _window_rows(xs: np.ndarray) -> np.ndarray:
    """(N, H, W, C) as the (N, H, 3, 3, W*C) rows of its _windows: entry
    [n, i, di, dj, j*C + c] is window [n, i, j, c] at [di, dj]. Merging W and
    C is free, as W's stride in the padded copy is C items, so this is still a
    view of that copy and each row is W*C contiguous items."""
    n, h, w, c = xs.shape
    return _windows(xs).transpose(0, 1, 4, 5, 2, 3).reshape(n, h, 3, 3, w * c)


def _depthwise_rows(xs: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The zero-padded 3x3 depthwise correlation of xs (N, H, W, C) with k
    (3, 3, C), as one multiply-accumulate pass over the window rows against k
    tiled along W. The inner loop runs over a whole W*C row rather than over
    C, and each output still adds its nine products in (di, dj) order, so for
    C >= 2 the result is bytewise that of the per-pixel einsum
    nhwcij,ijc->nhwc. (At C = 1 numpy makes the column tap the inner loop of
    either einsum, and f64 results can differ in the last bits.)"""
    n, h, w, c = xs.shape
    y = np.einsum("nhijk,ijk->nhk", _window_rows(xs), np.tile(k, (1, 1, w)))
    return y.reshape(n, h, w, c)


def _conv_depthwise(x: Tensor, k: Tensor, bias: Tensor | None,
                    residual: Tensor | None) -> Tensor:
    xs = _items(x.data)
    c = xs.shape[3]
    if k.data.shape != (3, 3, c):
        raise ValueError(f"depthwise kernel {k.data.shape} vs input channels {c}")

    def backward(g):
        # x's gradient is the same zero-padded correlation of the output
        # gradient with the flipped kernel; xs is padded again here rather
        # than kept padded, so the graph holds no copy of it. k's gradient
        # stays per pixel: it sums the pixels one after another, an order a
        # row-wise contraction would change
        gs = _items(g)
        if k.requires_grad:
            _accum(k, np.einsum("nhwcij,nhwc->ijc", _windows(xs), gs))
        if x.requires_grad:
            _accum(x, _depthwise_rows(gs, k.data[::-1, ::-1]).reshape(x.data.shape))
    y = _depthwise_rows(xs, k.data)
    return _kernel_node(x, k, bias, residual, "conv_dw3x3", y, backward)


def _cols(xs: np.ndarray) -> np.ndarray:
    """(N, H, W, C) as the (N*H*W, 9*C) rows of its _windows, tap-major:
    column (3*di + dj)*C + c of a row holds window entry [c, di, dj]. This is
    the one im2col copy of a full 3x3 pass."""
    return _windows(xs).transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * xs.shape[3])


def _conv_full3x3(x: Tensor, k: Tensor, bias: Tensor | None,
                  residual: Tensor | None) -> Tensor:
    xs = _items(x.data)
    ci = xs.shape[3]
    if k.data.ndim != 4 or k.data.shape[:3] != (3, 3, ci):
        raise ValueError(f"3x3 kernel {k.data.shape} vs input channels {ci}")
    co = k.data.shape[3]

    def backward(g):
        # as in _conv_depthwise: x's gradient correlates the output gradient
        # with the flipped kernel, and the rows are built again here rather
        # than kept, so the graph holds no 9x copy of xs
        gs = _items(g)
        if k.requires_grad:
            _accum(k, (_cols(xs).T @ gs.reshape(-1, co)).reshape(k.data.shape))
        if x.requires_grad:
            flipped = k.data[::-1, ::-1].swapaxes(2, 3).reshape(9 * co, ci)
            _accum(x, (_cols(gs) @ flipped).reshape(x.data.shape))
    # one GEMM over the window rows, not a matmul per tap
    y = _cols(xs) @ k.data.reshape(9 * ci, co)
    return _kernel_node(x, k, bias, residual, "conv3x3", y, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x @ W (+ b) for x (..., in): every leading axis, or none, is a row."""
    return _dense(x, weight, bias, "linear")


def _dense(x: Tensor, w: Tensor, bias: Tensor | None, op: str,
           residual: Tensor | None = None) -> Tensor:
    """x @ w (+ bias) (+ residual) over x's last axis, x's leading axes
    flattened into rows.

    The one dense kernel, under `linear` and the pointwise convolution: one
    GEMM over the rows, with the addends added in place.
    """
    if x.data.ndim < 1 or w.data.ndim != 2 or w.data.shape[0] != x.data.shape[-1]:
        raise ValueError(f"{op}: input {x.data.shape} vs weight {w.data.shape}")
    rows = x.data.reshape(-1, w.data.shape[0])

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accum(x, (g @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, rows.T @ g)
    return _kernel_node(x, w, bias, residual, op, rows @ w.data, backward)


# ---------------------------------------------------------------------------
# gradient checking and optimization
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[], Tensor], params: Sequence[Parameter],
               h: float = 1e-5, max_elems: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic gradients of f() and central differences.

    f must be a scalar-valued closure over `params`, evaluable repeatedly.
    """
    for p in params:
        p.grad = None
    loss = f()
    if loss.data.size != 1:
        raise ValueError("grad_check expects a scalar loss")
    loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = ga.reshape(-1)
        idx = np.arange(flat.size)
        if max_elems is not None and flat.size > max_elems:
            gen = rng if rng is not None else make_rng(0)
            idx = gen.choice(flat.size, size=max_elems, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f().data)
            flat[i] = orig - h
            fm = float(f().data)
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise FloatingPointError("non-finite intermediate in grad_check")
            num = (fp - fm) / (2.0 * h)
            rel = abs(float(gflat[i]) - num) / max(abs(float(gflat[i])), abs(num), 1e-8)
            worst = max(worst, rel)
    return worst


class Adam:
    """Bias-corrected Adam; moment buffers in `params` order."""

    def __init__(self, params: Sequence[Parameter], lr: float = 2e-4,
                 beta1: float = 0.9, beta2: float = 0.99, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _unfilled_param(shape, name: str) -> Parameter:
    p = Parameter((), name)  # an empty array passes the finite check unread
    p.data = np.empty(shape, dtype=_state["dtype"])
    return p


def normal_param(rng: np.random.Generator | None, shape, std: float, name: str) -> Parameter:
    """A parameter drawn from rng or, with no rng, left unwritten for a load to fill."""
    if rng is None:
        return _unfilled_param(shape, name)
    return Parameter(rng.standard_normal(shape) * std, name)


def fused_normal_params(rng: np.random.Generator | None, specs, branches: int) -> list[Parameter]:
    """Parameters whose last axis joins `branches` equal pieces, one per branch.

    specs lists (piece shape, std, name). Pieces are drawn branch by branch
    and, within a branch, in spec order, the order separate normal_param
    calls per branch would draw them, and are written straight into one
    array per spec in the default dtype, or, with no rng, left unwritten.
    """
    shapes = [shape[:-1] + (branches * shape[-1],) for shape, _, _ in specs]
    if rng is None:
        return [_unfilled_param(shape, name) for shape, (_, _, name) in zip(shapes, specs)]
    arrays = [np.empty(shape, dtype=_state["dtype"]) for shape in shapes]
    for i in range(branches):
        for arr, (shape, std, _) in zip(arrays, specs):
            arr[..., i * shape[-1]:(i + 1) * shape[-1]] = rng.standard_normal(shape) * std
    return [Parameter(arr, name) for arr, (_, _, name) in zip(arrays, specs)]


def zeros_param(shape, name: str) -> Parameter:
    return Parameter(np.zeros(shape), name)


def ones_param(shape, name: str) -> Parameter:
    return Parameter(np.ones(shape), name)


# ---------------------------------------------------------------------------
# .tsr serialization
# ---------------------------------------------------------------------------

def write_tsr_record(fh, arr: np.ndarray, hasher=None) -> None:
    """Write arr as one .tsr record at fh's position, feeding hasher every byte."""
    arr = np.asarray(arr)
    if arr.ndim:  # ascontiguousarray would promote rank 0 to rank 1
        arr = np.ascontiguousarray(arr)
    if arr.dtype == np.float32:
        tag, fmt = 0, "<f4"
    elif arr.dtype == np.float64:
        tag, fmt = 1, "<f8"
    else:
        raise ValueError(f"unsupported dtype {arr.dtype} for .tsr")
    header = TSR_MAGIC + bytes([tag, arr.ndim]) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype(fmt, copy=False).reshape(-1).view(np.uint8)
    fh.write(header)
    fh.write(payload)
    if hasher is not None:
        hasher.update(header)
        hasher.update(payload)


def read_tsr_record(fh, out: np.ndarray | None = None, hasher=None) -> np.ndarray:
    """Read one .tsr record from fh's position, leaving fh just past it.

    The header is checked against the bytes left in the file before anything
    is allocated. The payload is read into `out` when it is a C-contiguous
    array of the header's shape and dtype, else into a new aligned array;
    the array read into is returned. hasher (a hashlib object) is fed every
    byte of the record.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < 10:
        raise ValueError(f"truncated header: expected at least 10 bytes, found {left}")
    head = fh.read(10)
    if head[:8] != TSR_MAGIC:
        raise ValueError(f"bad magic {head[:8]!r}")
    tag, rank = head[8], head[9]
    if tag not in (0, 1):
        raise ValueError(f"unknown dtype tag {tag}")
    header = 10 + 8 * rank
    if left < header:
        raise ValueError(f"truncated header: a rank-{rank} header needs {header} bytes, "
                         f"found {left}")
    dims = fh.read(8 * rank)
    shape = struct.unpack(f"<{rank}Q", dims)
    fmt = "<f4" if tag == 0 else "<f8"
    expected = header + math.prod(shape) * np.dtype(fmt).itemsize
    if left < expected:
        raise ValueError(f"shape {shape} {fmt} expects {expected} bytes, found {left}")
    if (out is None or out.shape != shape or out.dtype != fmt
            or not out.flags.c_contiguous):
        out = np.empty(shape, dtype=fmt)
    payload = out.reshape(-1).view(np.uint8)
    got = fh.readinto(payload)
    if got != payload.size:
        raise ValueError(f"shape {shape} {fmt} expects {expected} bytes, "
                         f"read {header + got}")
    if hasher is not None:
        hasher.update(head)
        hasher.update(dims)
        hasher.update(payload)
    return out


def save_tsr(path, arr: np.ndarray) -> None:
    """Write arr as a .tsr file: one record."""
    with open(path, "wb") as fh:
        write_tsr_record(fh, arr)


def load_tsr(path) -> np.ndarray:
    """Read a .tsr file; a file whose size disagrees with its header is rejected."""
    with open(path, "rb") as fh:
        try:
            arr = read_tsr_record(fh)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        size = os.fstat(fh.fileno()).st_size
        if size != fh.tell():
            raise ValueError(f"{path}: shape {arr.shape} {arr.dtype.str} expects "
                             f"{fh.tell()} bytes, found {size}")
    return arr
