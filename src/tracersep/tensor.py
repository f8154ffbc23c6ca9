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
from scipy.special import erf

_DTYPES = {"f32": np.float32, "f64": np.float64}
_state = {"dtype": np.float32, "grad": True, "fill": True}

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


def set_dtype(name: str) -> None:
    _state["dtype"] = _dtype(name)


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


@contextlib.contextmanager
def unfilled():
    """Build parameters without initial values, for a load to fill in place.

    Inside, the parameter factories below allocate each array in the default
    dtype and neither draw from their generator nor write the array.
    """
    yield from _swap("fill", False)


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

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

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
    "div": (np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
}


def _binary(op: str, a, b) -> Tensor:
    """The broadcasting kernel under add, sub, mul and div. A number operand
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


def div(a, b) -> Tensor:
    return _binary("div", a, b)


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), "neg", lambda g: _accum(a, -g))


def abs_(a: Tensor) -> Tensor:
    return _result(np.abs(a.data), (a,), "abs", lambda g: _accum(a, g * np.sign(a.data)))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over the last two axes, batched over the leading ones, for two
    computed operands (attention); a dense layer is `linear`."""
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


def transpose(a: Tensor, axes) -> Tensor:
    return _result(a.data.transpose(axes), (a,), "transpose",
                   lambda g: _accum(a, g.transpose(np.argsort(axes))))


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

def softmax(a: Tensor, axis: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = _flush_subnormals(e / e.sum(axis=axis, keepdims=True))

    def backward(g):
        _accum(a, _flush_subnormals(y * (g - (g * y).sum(axis=axis, keepdims=True))))
    return _result(y, (a,), "softmax", backward)


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


def gelu(a: Tensor) -> Tensor:
    # exact erf-based Gaussian CDF, not the tanh approximation; f64 takes
    # scipy's erf, f32 the fitted rational of _phi_half
    if a.data.dtype == np.float32:
        y, phi = _gelu_f32(a.data, keep_phi=_state["grad"] and a.requires_grad)
    else:
        phi = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
        y = a.data * phi

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * a.data * a.data)
        _accum(a, g * (phi + a.data * pdf))
    return _result(y, (a,), "gelu", backward)


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError("leaky_relu slope must lie in (0, 1)")

    def backward(g):
        # factor 1 where a >= 0, else slope, looked up by the mask's bytes
        factor = np.array([slope, 1.0], a.data.dtype).take((a.data >= 0).view(np.uint8))
        _accum(a, g * factor)
    return _result(np.maximum(a.data, slope * a.data), (a,), "leaky_relu", backward)


def layer_norm(a: Tensor, axis: int, epsilon: float = 1e-5) -> Tensor:
    """Parameter-free per-position normalization over `axis` (population variance)."""
    d = a.data - a.data.mean(axis=axis, keepdims=True)
    var = (d * d).mean(axis=axis, keepdims=True)  # np.var's arithmetic, one pass fewer
    inv = 1.0 / np.sqrt(var + epsilon)
    y = d * inv

    def backward(g):
        gm = g.mean(axis=axis, keepdims=True)
        gym = (g * y).mean(axis=axis, keepdims=True)
        _accum(a, inv * (g - gm - y * gym))
    return _result(y, (a,), "layer_norm", backward)


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

def conv2d(x: Tensor, kernel: Tensor, mode: str, bias: Tensor | None = None) -> Tensor:
    """2-D convolution on (..., H, W, C) maps, each map of the leading axes on
    its own; 3x3 kernels see zeros outside the map. The bias, one per output
    channel, is added inside the kernel, so a biased conv is one node.

    modes: 'pointwise_1x1' kernel (Cin, Cout); 'depthwise_3x3' kernel (3, 3, C);
    'full_3x3' kernel (3, 3, Cin, Cout).
    """
    if x.data.ndim < 3:
        raise ValueError(f"conv2d expects (..., H, W, C) maps, got shape {x.data.shape}")
    if mode == "pointwise_1x1":
        return _dense(x, kernel, bias, "conv1x1")
    if mode == "depthwise_3x3":
        return _conv_depthwise(x, kernel, bias)
    if mode == "full_3x3":
        return _conv_full3x3(x, kernel, bias)
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


def _conv3x3(x: Tensor, k: Tensor, bias: Tensor | None, op: str, y: np.ndarray,
             backward: Callable[[np.ndarray], None]) -> Tensor:
    """The node of a 3x3 kernel's output y, of x's leading shape: the bias is
    added to y in place, and its gradient is the output gradient summed back
    to the bias's shape. backward(g) handles x and k."""
    y = y.reshape(x.data.shape[:-1] + y.shape[-1:])
    if bias is None:
        return _result(y, (x, k), op, backward)
    y += bias.data

    def biased(g):
        if bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
        backward(g)
    return _result(y, (x, k, bias), op, biased)


def _conv_depthwise(x: Tensor, k: Tensor, bias: Tensor | None) -> Tensor:
    xs = _items(x.data)
    c = xs.shape[3]
    if k.data.shape != (3, 3, c):
        raise ValueError(f"depthwise kernel {k.data.shape} vs input channels {c}")

    def backward(g):
        # x's gradient is the same zero-padded correlation of the output
        # gradient with the flipped kernel; xs is padded again here rather
        # than kept padded, so the graph holds no copy of it
        gs = _items(g)
        if k.requires_grad:
            _accum(k, np.einsum("nhwcij,nhwc->ijc", _windows(xs), gs))
        if x.requires_grad:
            gx = np.einsum("nhwcij,ijc->nhwc", _windows(gs), k.data[::-1, ::-1])
            _accum(x, gx.reshape(x.data.shape))
    # one multiply-accumulate pass over the windows, not a ufunc pass per tap
    y = np.einsum("nhwcij,ijc->nhwc", _windows(xs), k.data)
    return _conv3x3(x, k, bias, "conv_dw3x3", y, backward)


def _cols(xs: np.ndarray) -> np.ndarray:
    """(N, H, W, C) as the (N*H*W, 9*C) rows of its _windows, tap-major:
    column (3*di + dj)*C + c of a row holds window entry [c, di, dj]. This is
    the one im2col copy of a full 3x3 pass."""
    return _windows(xs).transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * xs.shape[3])


def _conv_full3x3(x: Tensor, k: Tensor, bias: Tensor | None) -> Tensor:
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
    return _conv3x3(x, k, bias, "conv3x3", y, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x @ W (+ b) for x (..., in): every leading axis, or none, is a row."""
    return _dense(x, weight, bias, "linear")


def _dense(x: Tensor, w: Tensor, bias: Tensor | None, op: str) -> Tensor:
    """x @ w (+ bias) over x's last axis, x's leading axes flattened into rows.

    The one dense kernel, under `linear` and the pointwise convolution: one
    GEMM over the rows, with the bias added in place.
    """
    if x.data.ndim < 1 or w.data.ndim != 2 or w.data.shape[0] != x.data.shape[-1]:
        raise ValueError(f"{op}: input {x.data.shape} vs weight {w.data.shape}")
    rows = x.data.reshape(-1, w.data.shape[0])
    y = rows @ w.data
    if bias is not None:
        y += bias.data

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accum(x, (g @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, rows.T @ g)
        if bias is not None and bias.requires_grad:
            _accum(bias, _unbroadcast(g, bias.data.shape))
    prev = (x, w) if bias is None else (x, w, bias)
    return _result(y.reshape(x.data.shape[:-1] + (-1,)), prev, op, backward)


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
    """Bias-corrected Adam; moment buffers keyed by parameter name."""

    def __init__(self, params: Sequence[Parameter], lr: float = 2e-4,
                 beta1: float = 0.9, beta2: float = 0.99, eps: float = 1e-8,
                 m: dict | None = None, v: dict | None = None):
        """m and v resume saved moment buffers; a fresh run starts them at zero."""
        self.params = list(params)
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = m if m is not None else {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = v if v is not None else {p.name: np.zeros_like(p.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[p.name]
            v = self.v[p.name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def _unfilled_param(shape, name: str) -> Parameter:
    p = Parameter((), name)  # an empty array passes the finite check unread
    p.data = np.empty(shape, dtype=_state["dtype"])
    return p


def make_param(shape, name: str, values: Callable[[], np.ndarray]) -> Parameter:
    """A parameter holding values(), or, inside `unfilled`, one left unwritten."""
    if not _state["fill"]:
        return _unfilled_param(shape, name)
    return Parameter(values(), name)


def normal_param(rng: np.random.Generator, shape, std: float, name: str) -> Parameter:
    return make_param(shape, name, lambda: rng.standard_normal(shape) * std)


def fused_normal_params(rng: np.random.Generator, specs, branches: int) -> list[Parameter]:
    """Parameters whose last axis joins `branches` equal pieces, one per branch.

    specs lists (piece shape, std, name). Pieces are drawn branch by branch
    and, within a branch, in spec order, the order separate normal_param
    calls per branch would draw them, and are written straight into one
    array per spec in the default dtype.
    """
    shapes = [shape[:-1] + (branches * shape[-1],) for shape, _, _ in specs]
    if not _state["fill"]:
        return [_unfilled_param(shape, name) for shape, (_, _, name) in zip(shapes, specs)]
    arrays = [np.empty(shape, dtype=_state["dtype"]) for shape in shapes]
    for i in range(branches):
        for arr, (shape, std, _) in zip(arrays, specs):
            arr[..., i * shape[-1]:(i + 1) * shape[-1]] = rng.standard_normal(shape) * std
    return [Parameter(arr, name) for arr, (_, _, name) in zip(arrays, specs)]


def zeros_param(shape, name: str) -> Parameter:
    return make_param(shape, name, lambda: np.zeros(shape))


def ones_param(shape, name: str) -> Parameter:
    return make_param(shape, name, lambda: np.ones(shape))


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
