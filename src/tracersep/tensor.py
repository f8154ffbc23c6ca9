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


def gelu(a: Tensor) -> Tensor:
    # exact erf-based Gaussian CDF, not the tanh approximation
    phi = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = _result((a.data * phi).astype(a.data.dtype), (a,), "gelu")
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
    mu = a.data.mean(axis=axis, keepdims=True)
    var = a.data.var(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    y = (a.data - mu) * inv
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


def _taps(h: int, w: int):
    """Yield (di, dj, out window, in window) for the 9 taps of a zero-padded 3x3.

    Output (i, j) reads input (i + di - 1, j + dj - 1). Reads outside the
    h x w input would see zeros, so the windows leave them out and no padded
    copy is made.
    """
    def spans(n, d):
        return slice(max(0, 1 - d), min(n, n + 1 - d)), slice(max(0, d - 1), min(n, n + d - 1))

    for di in range(3):
        rows_out, rows_in = spans(h, di)
        for dj in range(3):
            cols_out, cols_in = spans(w, dj)
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
    y = np.zeros_like(x.data)
    for di, dj, o, i in _taps(h, w):
        y[o] += x.data[i] * k.data[di, dj]
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

def save_tsr(path, arr: np.ndarray, hasher=None) -> None:
    """Write arr as a .tsr file; hasher (a hashlib object) is fed every byte written."""
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
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    if hasher is not None:
        hasher.update(header)
        hasher.update(payload)


def load_tsr(path, out: np.ndarray | None = None, hasher=None) -> np.ndarray:
    """Read a .tsr file in one pass; a file whose size disagrees with its header is rejected.

    The payload is read straight into an array of the header's shape and
    dtype: into `out` when it is a C-contiguous array of that shape and dtype,
    else into a new aligned array. The array read into is returned. hasher (a
    hashlib object) is fed every byte of the file, so its digest can be
    checked without reading the file again.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(10)
        if head[:8] != TSR_MAGIC:
            raise ValueError(f"{path}: bad magic {head[:8]!r}")
        if size < 10:
            raise ValueError(f"{path}: truncated header: expected at least 10 bytes, "
                             f"found {size}")
        tag, rank = head[8], head[9]
        if tag not in (0, 1):
            raise ValueError(f"{path}: unknown dtype tag {tag}")
        header = 10 + 8 * rank
        if size < header:
            raise ValueError(f"{path}: truncated header: a rank-{rank} header needs "
                             f"{header} bytes, found {size}")
        dims = fh.read(8 * rank)
        shape = struct.unpack(f"<{rank}Q", dims)
        fmt = "<f4" if tag == 0 else "<f8"
        expected = header + math.prod(shape) * np.dtype(fmt).itemsize
        if size != expected:
            raise ValueError(f"{path}: shape {shape} {fmt} expects {expected} bytes, "
                             f"found {size}")
        if (out is None or out.shape != shape or out.dtype != fmt
                or not out.flags.c_contiguous):
            out = np.empty(shape, dtype=fmt)
        payload = out.reshape(-1).view(np.uint8)
        got = fh.readinto(payload)
        if got != payload.size:
            raise ValueError(f"{path}: shape {shape} {fmt} expects {expected} bytes, "
                             f"read {header + got}")
    if hasher is not None:
        hasher.update(head)
        hasher.update(dims)
        hasher.update(payload)
    return out
