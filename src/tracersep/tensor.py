"""Dense tensor kernels with reverse-mode automatic differentiation.

Everything else in the package computes on these. Arrays are flat row-major
float32 (runtime default) or float64 (test/oracle mode); the precision is a
run-level switch and is never mixed inside one graph. Feature maps are
(..., H, W, C): the map ops (convolutions, pixel (un)shuffle, `channel`)
work on the trailing three axes and treat any leading axes as a batch, so
one graph carries a whole training batch. 3x3 convolutions are zero padded,
so they keep H x W.
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


def set_dtype(name: str) -> None:
    if name not in _DTYPES:
        raise ValueError(f"unknown dtype {name!r}, expected 'f32' or 'f64'")
    _state["dtype"] = _DTYPES[name]


@contextlib.contextmanager
def precision(name: str):
    """Temporarily switch the default dtype ('f32' or 'f64')."""
    old = _state["dtype"]
    set_dtype(name)
    try:
        yield
    finally:
        _state["dtype"] = old


@contextlib.contextmanager
def no_grad():
    """Disable graph recording (inference / metrics)."""
    old = _state["grad"]
    _state["grad"] = False
    try:
        yield
    finally:
        _state["grad"] = old


@contextlib.contextmanager
def unfilled():
    """Build parameters without initial values, for a load to fill in place.

    Inside, the parameter factories below allocate each array in the default
    dtype and neither draw from their generator nor write the array.
    """
    old = _state["fill"]
    _state["fill"] = False
    try:
        yield
    finally:
        _state["fill"] = old


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
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    def backward(self) -> None:
        """Accumulate d(self)/d(x) into the grad of every x that needs one.

        The graph is used up: once a node has passed its gradient on, it drops
        its backward closure (which refers back to the node) and its inputs.
        A graph is then freed as soon as it is unreferenced, not at the next
        cyclic garbage collection, and a second backward through it passes
        nothing on.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar")
        self.grad = np.ones_like(self.data)
        order = topological_order(self)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward()
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


def _result(data: np.ndarray, prev: Sequence[Tensor], op: str) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.op = op
    if _state["grad"] and any(p.requires_grad for p in prev):
        t.requires_grad = True
        t._prev = tuple(prev)
    else:
        t.requires_grad = False
        t._prev = ()
    t._backward = None
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


def _grad(t: Tensor) -> np.ndarray | None:
    """t's gradient buffer, zeroed on first use; None when t needs no gradient.

    Backward passes add into it, or into slices or reshaped views of it, in
    place; it is C-contiguous whatever the layout of t.data, so a reshape of
    it is always a view.
    """
    if not t.requires_grad:
        return None
    if t.grad is None:
        t.grad = np.zeros(t.data.shape, t.data.dtype)
    return t.grad


def _accum(t: Tensor, g: np.ndarray) -> None:
    buf = _grad(t)
    if buf is not None:
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

def add(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = _result(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def backward():
            _accum(a, _unbroadcast(out.grad, a.data.shape))
            _accum(b, _unbroadcast(out.grad, b.data.shape))
        out._backward = backward
    return out


def sub(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = _result(a.data - b.data, (a, b), "sub")
    if out.requires_grad:
        def backward():
            _accum(a, _unbroadcast(out.grad, a.data.shape))
            _accum(b, _unbroadcast(-out.grad, b.data.shape))
        out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = _result(a.data * b.data, (a, b), "mul")
    if out.requires_grad:
        def backward():
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
            _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))
        out._backward = backward
    return out


def div(a, b) -> Tensor:
    a = _as_tensor(a, b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a)
    out = _result(a.data / b.data, (a, b), "div")
    if out.requires_grad:
        def backward():
            _accum(a, _unbroadcast(out.grad / b.data, a.data.shape))
            _accum(b, _unbroadcast(-out.grad * a.data / (b.data * b.data), b.data.shape))
        out._backward = backward
    return out


def neg(a: Tensor) -> Tensor:
    out = _result(-a.data, (a,), "neg")
    if out.requires_grad:
        def backward():
            _accum(a, -out.grad)
        out._backward = backward
    return out


def abs_(a: Tensor) -> Tensor:
    out = _result(np.abs(a.data), (a,), "abs")
    if out.requires_grad:
        sign = np.sign(a.data)

        def backward():
            _accum(a, out.grad * sign)
        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b over the last two axes, batched over the leading ones, for two
    computed operands (attention); a dense layer is `linear`."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects rank >= 2 operands")
    out = _result(np.matmul(a.data, b.data), (a, b), "matmul")
    if out.requires_grad:
        def backward():
            if a.requires_grad:
                ga = np.matmul(out.grad, b.data.swapaxes(-1, -2))
                _accum(a, _unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.matmul(a.data.swapaxes(-1, -2), out.grad)
                _accum(b, _unbroadcast(gb, b.data.shape))
        out._backward = backward
    return out


def _norm_axes(axis, ndim) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    out = _result(a.data.sum(axis=axes, keepdims=keepdims), (a,), "sum")
    if out.requires_grad:
        def backward():
            g = out.grad
            if not keepdims:
                for ax in sorted(axes):
                    g = np.expand_dims(g, ax)
            _accum(a, np.broadcast_to(g, a.data.shape))
        out._backward = backward
    return out


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    count = int(np.prod([a.data.shape[ax] for ax in axes])) if axes else 1
    out = _result(a.data.mean(axis=axes, keepdims=keepdims), (a,), "mean")
    if out.requires_grad:
        def backward():
            g = out.grad
            if not keepdims:
                for ax in sorted(axes):
                    g = np.expand_dims(g, ax)
            _accum(a, np.broadcast_to(g, a.data.shape) / count)
        out._backward = backward
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = _result(a.data.reshape(shape), (a,), "reshape")
    if out.requires_grad:
        def backward():
            _accum(a, out.grad.reshape(a.data.shape))
        out._backward = backward
    return out


def transpose(a: Tensor, axes) -> Tensor:
    out = _result(a.data.transpose(axes), (a,), "transpose")
    if out.requires_grad:
        inv = np.argsort(axes)

        def backward():
            _accum(a, out.grad.transpose(inv))
        out._backward = backward
    return out


def concat(parts: Iterable[Tensor], axis: int) -> Tensor:
    parts = list(parts)
    out = _result(np.concatenate([p.data for p in parts], axis=axis), parts, "concat")
    if out.requires_grad:
        sizes = [p.data.shape[axis] for p in parts]
        offsets = np.cumsum(sizes)[:-1]

        def backward():
            for p, g in zip(parts, np.split(out.grad, offsets, axis=axis)):
                _accum(p, g)
        out._backward = backward
    return out


def split(a: Tensor, n: int) -> list[Tensor]:
    """Split the last axis into n equal parts; each part's data is a view of a's."""
    if n < 1 or a.data.shape[-1] % n:
        raise ValueError(f"last axis of {a.data.shape} does not split into {n} equal parts")
    width = a.data.shape[-1] // n
    parts = []
    for i in range(n):
        cols = slice(i * width, (i + 1) * width)
        out = _result(a.data[..., cols], (a,), "split")
        if out.requires_grad:
            def backward(out=out, cols=cols):
                _grad(a)[..., cols] += out.grad
            out._backward = backward
        parts.append(out)
    return parts


def channel(a: Tensor, k: int) -> Tensor:
    """Select channel k of a (..., H, W, C) feature map."""
    out = _result(np.ascontiguousarray(a.data[..., k]), (a,), "channel")
    if out.requires_grad:
        def backward():
            _grad(a)[..., k] += out.grad
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# activations and normalization
# ---------------------------------------------------------------------------

def softmax(a: Tensor, axis: int) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = _flush_subnormals(e / e.sum(axis=axis, keepdims=True))
    out = _result(y, (a,), "softmax")
    if out.requires_grad:
        def backward():
            g = out.grad
            _accum(a, _flush_subnormals(y * (g - (g * y).sum(axis=axis, keepdims=True))))
        out._backward = backward
    return out


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
    out = _result(y, (a,), "gelu")
    if out.requires_grad:
        def backward():
            pdf = _INV_SQRT2PI * np.exp(-0.5 * a.data * a.data)
            _accum(a, out.grad * (phi + a.data * pdf))
        out._backward = backward
    return out


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError("leaky_relu slope must lie in (0, 1)")
    out = _result(np.maximum(a.data, slope * a.data), (a,), "leaky_relu")
    if out.requires_grad:
        def backward():
            # factor 1 where a >= 0, else slope, looked up by the mask's bytes
            factor = np.array([slope, 1.0], a.data.dtype).take((a.data >= 0).view(np.uint8))
            _accum(a, out.grad * factor)
        out._backward = backward
    return out


def layer_norm(a: Tensor, axis: int, epsilon: float = 1e-5) -> Tensor:
    """Parameter-free per-position normalization over `axis` (population variance)."""
    d = a.data - a.data.mean(axis=axis, keepdims=True)
    var = (d * d).mean(axis=axis, keepdims=True)  # np.var's arithmetic, one pass fewer
    inv = 1.0 / np.sqrt(var + epsilon)
    y = d * inv
    out = _result(y, (a,), "layer_norm")
    if out.requires_grad:
        def backward():
            g = out.grad
            gm = g.mean(axis=axis, keepdims=True)
            gym = (g * y).mean(axis=axis, keepdims=True)
            _accum(a, inv * (g - gm - y * gym))
        out._backward = backward
    return out


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
    out = _result(_unshuffle_arr(a.data, r), (a,), "pixel_unshuffle")
    if out.requires_grad:
        def backward():
            _accum(a, _shuffle_arr(out.grad, r))
        out._backward = backward
    return out


def pixel_shuffle(a: Tensor, r: int) -> Tensor:
    c = a.data.shape[-1]
    if c % (r * r):
        raise ValueError(f"channel count {c} not divisible by {r * r}")
    out = _result(_shuffle_arr(a.data, r), (a,), "pixel_shuffle")
    if out.requires_grad:
        def backward():
            _accum(a, _unshuffle_arr(out.grad, r))
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# convolutions (spatial extents preserved, 3x3 zero padded)
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, kernel: Tensor, mode: str, bias: Tensor | None = None) -> Tensor:
    """2-D convolution on (..., H, W, C) maps, each map of the leading axes on
    its own; 3x3 kernels see zeros outside the map.

    modes: 'pointwise_1x1' kernel (Cin, Cout); 'depthwise_3x3' kernel (3, 3, C);
    'full_3x3' kernel (3, 3, Cin, Cout).
    """
    if x.data.ndim < 3:
        raise ValueError(f"conv2d expects (..., H, W, C) maps, got shape {x.data.shape}")
    if mode == "pointwise_1x1":
        out = _dense(x, kernel, None, "conv1x1")
    elif mode == "depthwise_3x3":
        out = _conv_depthwise(x, kernel)
    elif mode == "full_3x3":
        out = _conv_full3x3(x, kernel)
    else:
        raise ValueError(f"unknown conv mode {mode!r}")
    if bias is not None:
        out = add(out, bias)
    return out


def _taps(h: int, w: int):
    """Yield (di, dj, out window, in window) for the 9 taps of a zero-padded 3x3.

    Output (i, j) reads input (i + di - 1, j + dj - 1). Reads outside the
    h x w input would see zeros, so the windows leave them out and no padded
    copy is made. A window indexes the (H, W) axes of an (N, H, W, C) array:
    every item of the leading axis is covered.
    """
    def spans(n, d):
        start, stop = max(0, 1 - d), min(n, n + 1 - d)
        return slice(start, stop), slice(start + d - 1, stop + d - 1)

    for di in range(3):
        rows_out, rows_in = spans(h, di)
        for dj in range(3):
            cols_out, cols_in = spans(w, dj)
            yield di, dj, (slice(None), rows_out, cols_out), (slice(None), rows_in, cols_in)


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


def _conv_depthwise(x: Tensor, k: Tensor) -> Tensor:
    xs = _items(x.data)
    c = xs.shape[3]
    if k.data.shape != (3, 3, c):
        raise ValueError(f"depthwise kernel {k.data.shape} vs input channels {c}")
    # one multiply-accumulate pass over the windows, not a ufunc pass per tap
    y = np.einsum("nhwcij,ijc->nhwc", _windows(xs), k.data)
    out = _result(y.reshape(x.data.shape), (x, k), "conv_dw3x3")
    if out.requires_grad:
        def backward():
            # x's gradient is the same zero-padded correlation of the output
            # gradient with the flipped kernel; xs is padded again here rather
            # than kept padded, so the graph holds no copy of it
            g = _items(out.grad)
            gx, gk = _grad(x), _grad(k)
            if gk is not None:
                gk += np.einsum("nhwcij,nhwc->ijc", _windows(xs), g)
            if gx is not None:
                flipped = k.data[::-1, ::-1]
                gx += np.einsum("nhwcij,ijc->nhwc", _windows(g), flipped).reshape(gx.shape)
        out._backward = backward
    return out


def _conv_full3x3(x: Tensor, k: Tensor) -> Tensor:
    xs = _items(x.data)
    n, h, w, ci = xs.shape
    if k.data.shape[:3] != (3, 3, ci):
        raise ValueError(f"3x3 kernel {k.data.shape} vs input channels {ci}")
    co = k.data.shape[3]
    y = np.zeros((n, h, w, co), dtype=xs.dtype)
    for di, dj, o, i in _taps(h, w):
        win = xs[i]
        y[o] += (win.reshape(-1, ci) @ k.data[di, dj]).reshape(win.shape[:3] + (co,))
    out = _result(y.reshape(x.data.shape[:-1] + (co,)), (x, k), "conv3x3")
    if out.requires_grad:
        def backward():
            gout = _items(out.grad)
            gx, gk = _grad(x), _grad(k)
            gxs = None if gx is None else _items(gx)
            for di, dj, o, i in _taps(h, w):
                win = xs[i]
                g = gout[o].reshape(-1, co)
                if gk is not None:
                    gk[di, dj] += win.reshape(-1, ci).T @ g
                if gxs is not None:
                    gxs[i] += (g @ k.data[di, dj].T).reshape(win.shape)
        out._backward = backward
    return out


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
    prev = (x, w) if bias is None else (x, w, bias)
    out = _result(y.reshape(x.data.shape[:-1] + (-1,)), prev, op)
    if out.requires_grad:
        def backward():
            g = out.grad.reshape(-1, out.grad.shape[-1])
            if x.requires_grad:
                _accum(x, (g @ w.data.T).reshape(x.data.shape))
            _accum(w, rows.T @ g)
            if bias is not None:
                _accum(bias, _unbroadcast(g, bias.data.shape))
        out._backward = backward
    return out


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
