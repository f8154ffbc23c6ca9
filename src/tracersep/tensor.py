"""Dense tensor kernels with reverse-mode automatic differentiation.

Everything else in the package computes on these. Arrays are flat row-major
float32 (runtime default) or float64 (test/oracle mode); the precision is a
run-level switch and is never mixed inside one graph. Feature maps are
H x W x C, and 3x3 convolutions are zero padded, so they keep H x W.
"""
from __future__ import annotations

import contextlib
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

# Elementwise kernels sweep a large map in pieces of at most this many bytes,
# small enough that a piece and its scratch stay in a core's L2 cache.
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


def default_dtype() -> np.dtype:
    return _state["dtype"]


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

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=_state["dtype"])
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite values rejected at tensor boundary")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad and _state["grad"]
        self.op = "leaf"
        self._prev: tuple = ()
        self._backward: Callable[[], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar")
        self.grad = np.ones_like(self.data)
        for node in reversed(topological_order(self)):
            if node._backward is not None:
                node._backward()

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


class Parameter(Tensor):
    """Trainable tensor with a unique dotted name path."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        # parameters stay trainable even if created under no_grad
        super().__init__(data)
        self.requires_grad = True
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    t = Tensor.__new__(Tensor)
    dtype = like.data.dtype if like is not None else _state["dtype"]
    t.data = np.asarray(x, dtype=dtype)
    t.grad = None
    t.requires_grad = False
    t.op = "const"
    t._prev = ()
    t._backward = None
    return t


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


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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
                if a.grad is None:
                    a.grad = np.zeros_like(a.data)
                part = a.grad[..., cols]
                part += out.grad
            out._backward = backward
        parts.append(out)
    return parts


def channel(a: Tensor, k: int) -> Tensor:
    """Select channel k of an H x W x C feature map."""
    out = _result(np.ascontiguousarray(a.data[:, :, k]), (a,), "channel")
    if out.requires_grad:
        def backward():
            g = np.zeros_like(a.data)
            g[:, :, k] = out.grad
            _accum(a, g)
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
    y = e / e.sum(axis=axis, keepdims=True)
    out = _result(y, (a,), "softmax")
    if out.requires_grad:
        def backward():
            g = out.grad
            _accum(a, y * (g - (g * y).sum(axis=axis, keepdims=True)))
        out._backward = backward
    return out


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
    mask = a.data >= 0
    out = _result(np.where(mask, a.data, slope * a.data), (a,), "leaky_relu")
    if out.requires_grad:
        def backward():
            _accum(a, out.grad * np.where(mask, 1.0, slope).astype(a.data.dtype))
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
# pixel shuffle / unshuffle (H x W x C layout)
# ---------------------------------------------------------------------------

def _unshuffle_arr(x: np.ndarray, r: int) -> np.ndarray:
    h, w, c = x.shape
    y = x.reshape(h // r, r, w // r, r, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(y.reshape(h // r, w // r, r * r * c))


def _shuffle_arr(x: np.ndarray, r: int) -> np.ndarray:
    h, w, c = x.shape
    y = x.reshape(h, w, r, r, c // (r * r)).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(y.reshape(h * r, w * r, c // (r * r)))


def pixel_unshuffle(a: Tensor, r: int) -> Tensor:
    h, w, _ = a.data.shape
    if h % r or w % r:
        raise ValueError(f"spatial extents {h}x{w} not divisible by factor {r}")
    out = _result(_unshuffle_arr(a.data, r), (a,), "pixel_unshuffle")
    if out.requires_grad:
        def backward():
            _accum(a, _shuffle_arr(out.grad, r))
        out._backward = backward
    return out


def pixel_shuffle(a: Tensor, r: int) -> Tensor:
    c = a.data.shape[2]
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
    """2-D convolution on H x W x C maps; 3x3 kernels see zeros outside the map.

    modes: 'pointwise_1x1' kernel (Cin, Cout); 'depthwise_3x3' kernel (3, 3, C);
    'full_3x3' kernel (3, 3, Cin, Cout).
    """
    if mode == "pointwise_1x1":
        out = _conv_pointwise(x, kernel)
    elif mode == "depthwise_3x3":
        out = _conv_depthwise(x, kernel)
    elif mode == "full_3x3":
        out = _conv_full3x3(x, kernel)
    else:
        raise ValueError(f"unknown conv mode {mode!r}")
    if bias is not None:
        out = add(out, bias)
    return out


def _taps(h: int, w: int, r0: int = 0, r1: int | None = None):
    """Yield (di, dj, out window, in window) for the 9 taps of a zero-padded 3x3.

    Output (i, j) reads input (i + di - 1, j + dj - 1). Reads outside the
    h x w input would see zeros, so the windows leave them out and no padded
    copy is made. Only output rows r0 <= i < r1 (default all) are covered.
    """
    r1 = h if r1 is None else r1

    def spans(lo, hi, n, d):
        start, stop = max(lo, 1 - d), min(hi, n + 1 - d)
        return slice(start, stop), slice(start + d - 1, stop + d - 1)

    for di in range(3):
        rows_out, rows_in = spans(r0, r1, h, di)
        for dj in range(3):
            cols_out, cols_in = spans(0, w, w, dj)
            yield di, dj, (rows_out, cols_out), (rows_in, cols_in)


def _conv_pointwise(x: Tensor, k: Tensor) -> Tensor:
    h, w, ci = x.data.shape
    if k.data.shape[0] != ci:
        raise ValueError(f"pointwise kernel {k.data.shape} vs input channels {ci}")
    y = x.data.reshape(h * w, ci) @ k.data
    out = _result(y.reshape(h, w, -1), (x, k), "conv1x1")
    if out.requires_grad:
        def backward():
            g = out.grad.reshape(h * w, -1)
            if x.requires_grad:
                _accum(x, (g @ k.data.T).reshape(h, w, ci))
            _accum(k, x.data.reshape(h * w, ci).T @ g)
        out._backward = backward
    return out


def _conv_depthwise(x: Tensor, k: Tensor) -> Tensor:
    h, w, c = x.data.shape
    if k.data.shape != (3, 3, c):
        raise ValueError(f"depthwise kernel {k.data.shape} vs input channels {c}")
    # row blocks of _BLOCK_BYTES: the centre tap writes a block, then each
    # other tap multiplies into one scratch block and adds it in
    y = np.empty_like(x.data)
    rows = _rows_per_block(w * c * x.data.itemsize)
    scratch = np.empty(min(rows, h) * w * c, dtype=x.data.dtype)
    for r0 in range(0, h, rows):
        r1 = min(h, r0 + rows)
        np.multiply(x.data[r0:r1], k.data[1, 1], out=y[r0:r1])
        for di, dj, o, i in _taps(h, w, r0, r1):
            part = y[o]
            if (di, dj) == (1, 1) or not part.size:
                continue
            prod = scratch[:part.size].reshape(part.shape)
            np.multiply(x.data[i], k.data[di, dj], out=prod)
            np.add(part, prod, out=part)
    out = _result(y, (x, k), "conv_dw3x3")
    if out.requires_grad:
        def backward():
            g = out.grad
            gk = np.empty_like(k.data)
            gx = np.zeros_like(x.data) if x.requires_grad else None
            for di, dj, o, i in _taps(h, w):
                gk[di, dj] = (x.data[i] * g[o]).sum(axis=(0, 1))
                if gx is not None:
                    gx[i] += k.data[di, dj] * g[o]
            _accum(x, gx)  # a no-op, gx None, when x needs no gradient
            _accum(k, gk)
        out._backward = backward
    return out


def _conv_full3x3(x: Tensor, k: Tensor) -> Tensor:
    h, w, ci = x.data.shape
    if k.data.shape[:3] != (3, 3, ci):
        raise ValueError(f"3x3 kernel {k.data.shape} vs input channels {ci}")
    co = k.data.shape[3]
    y = np.zeros((h, w, co), dtype=x.data.dtype)
    for di, dj, o, i in _taps(h, w):
        win = x.data[i]
        y[o] += (win.reshape(-1, ci) @ k.data[di, dj]).reshape(win.shape[:2] + (co,))
    out = _result(y, (x, k), "conv3x3")
    if out.requires_grad:
        def backward():
            gk = np.empty_like(k.data)
            gx = np.zeros_like(x.data) if x.requires_grad else None
            for di, dj, o, i in _taps(h, w):
                win = x.data[i]
                g = out.grad[o].reshape(-1, co)
                gk[di, dj] = win.reshape(-1, ci).T @ g
                if gx is not None:
                    gx[i] += (g @ k.data[di, dj].T).reshape(win.shape)
            _accum(x, gx)  # a no-op, gx None, when x needs no gradient
            _accum(k, gk)
        out._backward = backward
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """y = x @ W (+ b)."""
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ValueError(f"linear: {x.data.shape} @ {weight.data.shape}")
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
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
    head = fh.read(10)
    if head[:8] != TSR_MAGIC:
        raise ValueError(f"bad magic {head[:8]!r}")
    if left < 10:
        raise ValueError(f"truncated header: expected at least 10 bytes, found {left}")
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
