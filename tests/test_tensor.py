"""Autograd core: op oracles, gradient checks, optimizer, serialization."""
import gc
import hashlib
import math
import tracemalloc
import zlib
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from tracersep import tensor as T
from tracersep.tensor import (Adam, Parameter, Tensor, grad_check, load_tsr,
                              make_rng, no_grad, precision, save_tsr)


@pytest.fixture(autouse=True)
def f64():
    with precision("f64"):
        yield


def test_rejects_nonfinite_at_boundary():
    with pytest.raises(ValueError):
        Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        Tensor([np.inf])


def test_precision_switch():
    assert Tensor([1.0]).data.dtype == np.float64
    with precision("f32"):
        assert Tensor([1.0]).data.dtype == np.float32
    with pytest.raises(ValueError):
        T.set_dtype("f16")


def test_softmax_examples():
    out = T.softmax(Tensor([1.0, 1.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-12)
    out = T.softmax(Tensor([0.0]), axis=0)
    assert np.allclose(out.data, [1.0])
    out = T.softmax(Tensor([0.0, math.log(3.0)]), axis=0)
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one_extreme():
    rng = make_rng(3)
    x = Tensor(rng.uniform(-1e4, 1e4, size=(6, 9)))
    out = T.softmax(x, axis=1)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("prec", ["f32", "f64"])
def test_saturated_softmax_flushes_subnormals(prec):
    dt = np.float32 if prec == "f32" else np.float64
    tiny = np.finfo(dt).tiny
    # f32 exp(-90) and exp(-100) are subnormal; f64 exp(-720), exp(-740) are
    logits = np.array([[0.0, -90.0, -100.0, -200.0, -5.0],
                       [0.0, -720.0, -740.0, -800.0, -1.0],
                       [3.0, 2.0, 1.0, 0.0, -1.0]])
    probe = make_rng(7).standard_normal(logits.shape)
    with precision(prec):
        x = Parameter(logits, "x")
        out = T.softmax(x, axis=1)
        T.sum_(out * Tensor(probe)).backward()
        a, g = x.data, probe.astype(dt)
    e = np.exp(a - a.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    gx = y * (g - (g * y).sum(axis=1, keepdims=True))
    assert np.count_nonzero((y != 0) & (y < tiny)) > 0  # the plain formula has some
    for got, plain in ((out.data, y), (x.grad, gx)):
        assert not np.any((got != 0) & (np.abs(got) < tiny))
        keep = np.abs(plain) >= tiny
        assert got[keep].tobytes() == plain[keep].tobytes()
        assert np.all(got[~keep] == 0)


def test_softmax_invalid_axis():
    with pytest.raises(ValueError):
        T.softmax(Tensor([1.0, 2.0]), axis=3)


def test_gelu_examples():
    assert T.gelu(Tensor([0.0])).data[0] == 0.0
    assert abs(T.gelu(Tensor([100.0])).data[0] - 100.0) < 1e-12
    # 1 * Phi(1), Phi from the exact Gaussian CDF
    phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(T.gelu(Tensor([1.0])).data[0] - phi1) < 1e-12
    assert abs(phi1 - 0.8413447460685429) < 1e-12


SWEEP = np.linspace(-10.0, 10.0, 2_000_001).astype(np.float32)


def f32_ulp(y):
    # the f32 ulp of the binade of each f64 value, not of its rounded f32
    _, e = np.frexp(np.abs(y))
    return np.maximum(np.ldexp(1.0, e - 24), 2.0 ** -149)


def test_f32_erf_within_two_ulp_of_scipy():
    # the erf that f32 gelu's rational implies: erf(z) = 2 * (Phi(sqrt2 z) - 1/2)
    x = np.clip(SWEEP.astype(np.float64) * math.sqrt(2.0), -T._PHI_CLAMP, T._PHI_CLAMP)
    scratch = np.empty((3,) + x.shape)
    got = (2.0 * T._phi_half(x, *scratch)).astype(np.float32)
    want = erf(SWEEP.astype(np.float64))
    assert np.max(np.abs(got - want) / f32_ulp(want)) <= 2.0
    assert got[0] == -1.0 and got[-1] == 1.0 and got[len(got) // 2] == 0.0


def test_f32_gelu_against_f64_gelu():
    with precision("f32"):
        got = T.gelu(Tensor(SWEEP)).data
    assert got.dtype == np.float32
    want = T.gelu(Tensor(SWEEP.astype(np.float64))).data
    # half an f32 ulp of |gelu| < 8 (2.4e-7) plus |x| < 5.66, where phi is not
    # 0 or 1 in f32, times phi's error (6e-8)
    assert np.max(np.abs(got - want)) < 6e-7


def test_f32_gelu_output_does_not_depend_on_grad_mode():
    x = make_rng(2).standard_normal((40, 37, 30)).astype(np.float32)
    with precision("f32"):
        traced = T.gelu(Parameter(x, "x"))
        with no_grad():
            untraced = T.gelu(Parameter(x, "x"))
    assert traced.data.tobytes() == untraced.data.tobytes()


def test_f64_gelu_is_scipy_erf():
    x = make_rng(4).standard_normal((6, 5, 4)) * 3.0
    want = x * (0.5 * (1.0 + erf(x * math.sqrt(0.5))))
    assert T.gelu(Tensor(x)).data.tobytes() == want.tobytes()


def test_leaky_relu_examples():
    x = Tensor([2.0, -2.0, 0.0])
    out = T.leaky_relu(x, 0.1)
    assert np.allclose(out.data, [2.0, -0.2, 0.0], atol=1e-15)
    with pytest.raises(ValueError):
        T.leaky_relu(x, 1.5)


@pytest.mark.parametrize("prec", ["f32", "f64"])
def test_leaky_relu_is_the_masked_formula_bit_for_bit(prec):
    with precision(prec):
        dt = np.float32 if prec == "f32" else np.float64
        tiny = np.finfo(dt).smallest_subnormal
        vals = np.concatenate([make_rng(3).standard_normal(500),
                               [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny]]).astype(dt)
        vals = vals.reshape(2, 11, 23)  # the backward's lookup on a map-shaped mask
        probe = make_rng(4).standard_normal(vals.shape).astype(dt)
        x = Parameter(vals, "x")
        out = T.leaky_relu(x, 0.1)
        T.sum_(out * Tensor(probe)).backward()
    mask = vals >= 0
    assert out.data.tobytes() == np.where(mask, vals, 0.1 * vals).tobytes()
    assert x.grad.tobytes() == (probe * np.where(mask, 1.0, 0.1).astype(dt)).tobytes()


def test_layer_norm_examples():
    const = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), axis=1)
    assert np.allclose(const.data, 0.0, atol=1e-12)
    two = T.layer_norm(Tensor([[1.0, 3.0]]), axis=1)
    # population variance = 1, so (x - 2)/sqrt(1 + eps)
    assert np.allclose(two.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_against_two_pass_oracle():
    rng = make_rng(11)
    x = rng.standard_normal((4, 5, 7))
    mu = x.mean(axis=2, keepdims=True)
    var = x.var(axis=2, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-5)
    got = T.layer_norm(Tensor(x), axis=2).data
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("prec", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(64, 64, 48), (8, 8, 384), (5, 3, 7)])
def test_layer_norm_bit_equal_to_np_var_formula(prec, shape):
    with precision(prec):
        x = Tensor(make_rng(zlib.crc32(repr(shape).encode())).standard_normal(shape) * 3.0 + 1.0)
        a = x.data
        # the np.var formula, which centres the input a second time itself
        inv = 1.0 / np.sqrt(a.var(axis=2, keepdims=True) + 1e-5)
        want = (a - a.mean(axis=2, keepdims=True)) * inv
        assert T.layer_norm(x, axis=2).data.tobytes() == want.tobytes()


def test_pixel_unshuffle_definition():
    x = Tensor(np.array([[[1.0], [2.0]], [[3.0], [4.0]]]))  # 2x2x1
    out = T.pixel_unshuffle(x, 2)
    assert out.data.shape == (1, 1, 4)
    assert list(out.data.reshape(-1)) == [1.0, 2.0, 3.0, 4.0]


def test_pixel_shuffle_inverse_bit_exact():
    rng = make_rng(7)
    x = rng.standard_normal((8, 8, 3))
    back = T.pixel_shuffle(T.pixel_unshuffle(Tensor(x), 2), 2).data
    assert np.array_equal(back, x)


def test_pixel_unshuffle_shapes_and_errors():
    out = T.pixel_unshuffle(Tensor(np.zeros((32, 32, 2))), 2)
    assert out.data.shape == (16, 16, 8)
    with pytest.raises(ValueError):
        T.pixel_unshuffle(Tensor(np.zeros((5, 4, 1))), 2)
    with pytest.raises(ValueError):
        T.pixel_shuffle(Tensor(np.zeros((4, 4, 3))), 2)


def _conv_oracle_pointwise(x, k):
    h, w, ci = x.shape
    co = k.shape[1]
    y = np.zeros((h, w, co))
    for i in range(h):
        for j in range(w):
            for o in range(co):
                for c in range(ci):
                    y[i, j, o] += x[i, j, c] * k[c, o]
    return y


def _conv_oracle_depthwise(x, k):
    h, w, c = x.shape
    y = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            for ch in range(c):
                for di in range(3):
                    for dj in range(3):
                        r, s = i + di - 1, j + dj - 1
                        if 0 <= r < h and 0 <= s < w:
                            y[i, j, ch] += x[r, s, ch] * k[di, dj, ch]
    return y


def _conv_oracle_full(x, k):
    h, w, ci = x.shape
    co = k.shape[3]
    y = np.zeros((h, w, co))
    for i in range(h):
        for j in range(w):
            for o in range(co):
                for c in range(ci):
                    for di in range(3):
                        for dj in range(3):
                            r, s = i + di - 1, j + dj - 1
                            if 0 <= r < h and 0 <= s < w:
                                y[i, j, o] += x[r, s, c] * k[di, dj, c, o]
    return y


def test_conv_pointwise_identity_and_zero():
    rng = make_rng(5)
    x = rng.standard_normal((4, 4, 3))
    out = T.conv2d(Tensor(x), Tensor(np.eye(3)), "pointwise_1x1")
    assert np.array_equal(out.data, x)
    out = T.conv2d(Tensor(x), Tensor(np.zeros((3, 5))), "pointwise_1x1")
    assert np.all(out.data == 0.0)


def test_conv_against_bruteforce_oracles():
    rng = make_rng(9)
    x = rng.standard_normal((5, 5, 2))
    kp = rng.standard_normal((2, 3))
    got = T.conv2d(Tensor(x), Tensor(kp), "pointwise_1x1").data
    assert np.max(np.abs(got - _conv_oracle_pointwise(x, kp))) < 1e-12
    kd = rng.standard_normal((3, 3, 2))
    kf = rng.standard_normal((3, 3, 2, 3))
    # 1-wide maps have taps whose whole window falls outside the input
    for shape in ((5, 5, 2), (1, 1, 2), (1, 6, 2), (6, 1, 2), (2, 3, 2)):
        x = rng.standard_normal(shape)
        got = T.conv2d(Tensor(x), Tensor(kd), "depthwise_3x3").data
        assert np.max(np.abs(got - _conv_oracle_depthwise(x, kd))) < 1e-12, shape
        got = T.conv2d(Tensor(x), Tensor(kf), "full_3x3").data
        assert got.shape == shape[:2] + (3,)
        assert np.max(np.abs(got - _conv_oracle_full(x, kf))) < 1e-12, shape


# derandomized so the suite sees the same examples on every run; the f64
# fixture only sets the precision, so reusing it across examples is safe
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(h=st.integers(1, 7), w=st.integers(1, 7), ci=st.integers(1, 4),
       co=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_conv3x3_property_zero_padded(h, w, ci, co, seed):
    rng = make_rng(seed)
    x = Parameter(rng.standard_normal((h, w, ci)), "x")
    kd = Parameter(rng.standard_normal((3, 3, ci)), "kd")
    kf = Parameter(rng.standard_normal((3, 3, ci, co)), "kf")
    got = T.conv2d(x, kd, "depthwise_3x3").data
    assert np.max(np.abs(got - _conv_oracle_depthwise(x.data, kd.data))) < 1e-12
    got = T.conv2d(x, kf, "full_3x3").data
    assert np.max(np.abs(got - _conv_oracle_full(x.data, kf.data))) < 1e-12
    probe_d = Tensor(rng.standard_normal((h, w, ci)))
    probe_f = Tensor(rng.standard_normal((h, w, co)))
    err = grad_check(lambda: T.sum_(T.conv2d(x, kd, "depthwise_3x3") * probe_d)
                     + T.sum_(T.conv2d(x, kf, "full_3x3") * probe_f),
                     [x, kd, kf], max_elems=12, rng=make_rng(0))
    assert err < 1e-4


def _taps(h, w):
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


def _mode(k):
    return "full_3x3" if k.ndim == 4 else "depthwise_3x3"


def _per_tap_3x3(x, k, g):
    """(y, gx, gk) of a zero-padded 3x3 conv from full-size per-tap products:
    depthwise for a (3, 3, C) kernel k, full for a (3, 3, Cin, Cout) one, g
    the gradient of y."""
    xs, gs = T._items(x), T._items(g)
    full = k.ndim == 4
    y, gx, gk = np.zeros(gs.shape), np.zeros_like(xs), np.zeros_like(k)
    for di, dj, o, i in _taps(*xs.shape[1:3]):
        if full:
            y[o] += xs[i] @ k[di, dj]
            gk[di, dj] += np.tensordot(xs[i], gs[o], axes=([0, 1, 2], [0, 1, 2]))
            gx[i] += gs[o] @ k[di, dj].T
        else:
            y[o] += xs[i] * k[di, dj]
            gk[di, dj] += (xs[i] * gs[o]).sum(axis=(0, 1, 2))
            gx[i] += k[di, dj] * gs[o]
    return y.reshape(g.shape), gx.reshape(x.shape), gk


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lead=st.lists(st.integers(1, 3), max_size=2), h=st.integers(1, 6),
       w=st.integers(1, 6), ci=st.integers(1, 4), co=st.integers(1, 4),
       full=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_3x3_backward_against_per_tap_formula(lead, h, w, ci, co, full, seed):
    rng = make_rng(seed)
    shape = tuple(lead) + (h, w, ci)
    kshape = (3, 3, ci, co) if full else (3, 3, ci)
    x = Parameter(rng.standard_normal(shape), "x")
    k = Parameter(rng.standard_normal(kshape), "k")
    g = rng.standard_normal(shape[:-1] + kshape[-1:])
    y = T.conv2d(x, k, _mode(k.data))
    T.sum_(y * Tensor(g)).backward()
    for got, want in zip((y.data, x.grad, k.grad), _per_tap_3x3(x.data, k.data, g)):
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("shape, kshape", [
    ((1, 8, 8, 1536), (3, 3, 1536)), ((1, 16, 16, 144), (3, 3, 144)),
    ((4, 16, 16, 128), (3, 3, 128)), ((1, 64, 64, 48), (3, 3, 48, 2)),
    ((1, 64, 64, 2), (3, 3, 2, 48)), ((1, 32, 32, 64), (3, 3, 64, 64)),
    ((8, 16, 16, 8), (3, 3, 8, 32))], ids=lambda shape: "x".join(map(str, shape)))
def test_f32_3x3_at_model_widths_against_f64_per_tap_formula(shape, kshape):
    # The f64 formulas run on the same f32 values, so the difference is the
    # rounding of the f32 kernel. Each output entry is a sum of m products:
    # 9 taps times Cin for y and Cout for x.grad (1 and 1 for the depthwise
    # conv), the N*H*W positions for k.grad. In any order of summation, with
    # or without fused multiply-adds, rounding moves such a sum by at most
    # gamma_m * sum|terms|, gamma_m = m*u / (1 - m*u) (Higham, "Accuracy and
    # Stability of Numerical Algorithms", section 3.1); u is f32's unit
    # roundoff 2**-24, plus f64's 2**-53 for the reference's own rounding.
    # sum|terms| is the same formula on |x|, |k| and |g|, entry by entry.
    rng = make_rng(shape[-1])
    with precision("f32"):
        x = Parameter(rng.standard_normal(shape), "x")
        k = Parameter(rng.standard_normal(kshape), "k")
        g = Tensor(rng.standard_normal(shape[:-1] + kshape[-1:]))
        y = T.conv2d(x, k, _mode(k.data))
        T.sum_(y * g).backward()
    assert y.data.dtype == x.grad.dtype == k.grad.dtype == np.float32
    x64, k64, g64 = (a.astype(np.float64) for a in (x.data, k.data, g.data))
    refs = zip(_per_tap_3x3(x64, k64, g64), _per_tap_3x3(*(np.abs(a) for a in (x64, k64, g64))))
    ci, co = kshape[2:] if len(kshape) == 4 else (1, 1)
    u = 2.0 ** -24 + 2.0 ** -53
    for got, (ref, ref_abs), m in zip((y.data, x.grad, k.grad), refs,
                                      (9 * ci, 9 * co, math.prod(shape[:3]))):
        gamma = m * u / (1 - m * u)
        assert np.all(np.abs(got - ref) <= gamma * ref_abs)


@pytest.mark.parametrize("kshape", [(3, 3, 64), (3, 3, 64, 64)],
                         ids=["depthwise_3x3", "full_3x3"])
def test_3x3_graph_holds_no_padded_copy(kshape):
    # tracemalloc sees numpy's allocations. A recording node keeps its output;
    # a padded copy of x (2.37 MB here, against 2.10 MB of output) or the full
    # conv's window rows (18.9 MB) must not outlive the forward, since the
    # backward builds them again.
    rng = make_rng(43)
    x = Parameter(rng.standard_normal((4, 32, 32, 64)), "x")
    k = Parameter(rng.standard_normal(kshape), "k")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = T.conv2d(x, k, _mode(k.data))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert y.requires_grad and y._backward is not None
    assert held <= y.data.nbytes + (64 << 10)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(h=st.integers(1, 9), w=st.integers(1, 6), c=st.integers(1, 4),
       co=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(h=1, w=5, c=3, co=2, seed=0)
@example(h=6, w=1, c=3, co=2, seed=1)
@example(h=1, w=1, c=3, co=2, seed=2)
@example(h=9, w=4, c=3, co=2, seed=3)
def test_3x3_forward_against_oracle(h, w, c, co, seed):
    # h = 1 and w = 1 leave taps whose whole window falls outside the input
    rng = make_rng(seed)
    x = rng.standard_normal((h, w, c))
    kd = rng.standard_normal((3, 3, c))
    kf = rng.standard_normal((3, 3, c, co))
    got = T.conv2d(Tensor(x), Tensor(kd), "depthwise_3x3").data
    assert np.max(np.abs(got - _conv_oracle_depthwise(x, kd))) < 1e-12
    got = T.conv2d(Tensor(x), Tensor(kf), "full_3x3").data
    assert np.max(np.abs(got - _conv_oracle_full(x, kf))) < 1e-12


@pytest.mark.parametrize("h, w, rows", [(1, 5, 1), (1, 5, 3), (6, 1, 4), (1, 1, 1), (5, 1, 1),
                                        (7, 4, 3), (7, 4, 2), (8, 3, 5), (16, 8, 3)])
def test_f32_gelu_pieces_are_bytewise_one_piece(monkeypatch, h, w, rows):
    # An (h, w, 3) map is h*w rows of 3 for _gelu_f32. Shrinking the piece to
    # `rows` map rows splits it into pieces of rows*w rows: 1 row for w = 1,
    # rows = 1, and a short last piece where rows does not divide h. y and
    # x.grad must not depend on where the pieces end.
    x = (3.0 * make_rng(h * 100 + w * 10 + rows).standard_normal((h, w, 3))).astype(np.float32)
    probe = np.linspace(-1.0, 1.0, x.size, dtype=np.float32).reshape(x.shape)

    def run():
        p = Parameter(x, "x")
        y = T.gelu(p)
        T.sum_(y * Tensor(probe)).backward()
        return y.data.tobytes() + p.grad.tobytes()

    with precision("f32"):
        whole = run()
        monkeypatch.setattr(T, "_BLOCK_BYTES", rows * w * 3 * 8)
        assert T._rows_per_block(3 * 8) == rows * w
        assert run() == whole


def test_conv_shape_errors():
    x = Tensor(np.zeros((4, 4, 3)))
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(np.zeros((2, 5))), "pointwise_1x1")
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(np.zeros((3, 3, 2))), "depthwise_3x3")
    with pytest.raises(ValueError):
        T.conv2d(x, Tensor(np.zeros((3, 3, 3))), "banana")
    # a full 3x3 kernel is (3, 3, Cin, Cout), no fewer axes and no more
    for kshape in ((3, 3, 3), (3, 3, 3, 2, 1)):
        with pytest.raises(ValueError):
            T.conv2d(x, Tensor(np.zeros(kshape)), "full_3x3")


def _linear_oracle(x, w, b):
    want = np.zeros(x.shape[:-1] + w.shape[1:])
    for row in np.ndindex(*x.shape[:-1]):
        for o in range(w.shape[1]):
            want[row + (o,)] = b[o]
            for c in range(w.shape[0]):
                want[row + (o,)] += x[row + (c,)] * w[c, o]
    return want


def test_linear_examples():
    rng = make_rng(13)
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    for shape in ((3, 4), (4,), (2, 3, 4)):  # rows, one vector, two leading axes
        x = rng.standard_normal(shape)
        got = T.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert got.shape == shape[:-1] + (2,)
        assert np.max(np.abs(got - _linear_oracle(x, w, b))) < 1e-12
        ident = T.linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4))).data
        assert np.array_equal(ident, x)
        with pytest.raises(ValueError):
            T.linear(Tensor(x), Tensor(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        T.linear(Tensor(x), Tensor(np.zeros(4)))


def test_grad_check_quadratic():
    w = Parameter(np.array([3.0]), "w")
    err = grad_check(lambda: T.sum_(w * w), [w])
    assert err < 1e-10
    # the analytic gradient itself
    w.grad = None
    loss = T.sum_(w * w)
    loss.backward()
    assert abs(w.grad[0] - 6.0) < 1e-12


def test_grad_check_softmax_sum_is_constant():
    x = Parameter(make_rng(1).standard_normal(5), "x")
    # central differences of a constant function return rounding noise near
    # 1e-11, and the rel-err denominator floors at 1e-8, so allow that noise
    err = grad_check(lambda: T.sum_(T.softmax(x, axis=0)), [x])
    assert err < 1e-2
    x.grad = None
    loss = T.sum_(T.softmax(x, axis=0))
    loss.backward()
    assert np.max(np.abs(x.grad)) < 1e-10


@pytest.mark.parametrize("op", [
    "add", "sub", "mul", "div", "abs", "matmul", "mean", "softmax", "gelu",
    "leaky_relu", "layer_norm", "unshuffle", "conv_pw", "conv_dw",
    "conv_full", "transpose_concat", "channel", "split",
])
def test_grad_check_op_family(op):
    # a stable per-op seed: hash() of a str changes with PYTHONHASHSEED
    rng = make_rng(zlib.crc32(op.encode()))
    a = Parameter(rng.standard_normal((4, 4, 2)), "a")
    b = Parameter(rng.standard_normal((4, 4, 2)) + 2.0, "b")
    kpw = Parameter(rng.standard_normal((2, 3)), "kpw")
    kdw = Parameter(rng.standard_normal((3, 3, 2)), "kdw")
    kfull = Parameter(rng.standard_normal((3, 3, 2, 2)), "kfull")
    builders = {
        "add": (lambda: T.sum_((a + b) * (a + b)), [a, b]),
        "sub": (lambda: T.sum_((a - b) * (a - b)), [a, b]),
        "mul": (lambda: T.sum_(a * b * a), [a, b]),
        "div": (lambda: T.sum_(a / b), [a, b]),
        "abs": (lambda: T.sum_(T.abs_(a + 0.3)), [a]),
        "matmul": (lambda: T.sum_(T.matmul(T.reshape(a, (4, 8)),
                                           T.reshape(b, (8, 4)))
                                  * T.matmul(T.reshape(b, (4, 8)),
                                             T.reshape(a, (8, 4)))), [a, b]),
        "mean": (lambda: T.sum_(T.mean(a * a, axis=(0, 2))), [a]),
        "softmax": (lambda: T.sum_(T.softmax(a, axis=1) * b), [a, b]),
        "gelu": (lambda: T.sum_(T.gelu(a) * b), [a, b]),
        "leaky_relu": (lambda: T.sum_(T.leaky_relu(a + 0.05) * b), [a, b]),
        "layer_norm": (lambda: T.sum_(T.layer_norm(a, axis=2) * b), [a, b]),
        "unshuffle": (lambda: T.sum_(T.pixel_unshuffle(a, 2)
                                     * T.pixel_unshuffle(b, 2)), [a, b]),
        "conv_pw": (lambda: T.sum_(T.conv2d(a, kpw, "pointwise_1x1")
                                   * T.conv2d(b, kpw, "pointwise_1x1")), [a, kpw]),
        "conv_dw": (lambda: T.sum_(T.conv2d(a, kdw, "depthwise_3x3") * a), [a, kdw]),
        "conv_full": (lambda: T.sum_(T.conv2d(a, kfull, "full_3x3") * a), [a, kfull]),
        "transpose_concat": (lambda: T.sum_(
            T.concat([T.transpose(a, (2, 0, 1)), T.transpose(b, (2, 0, 1))], axis=0)
            * T.concat([T.transpose(b, (2, 0, 1)), T.transpose(a, (2, 0, 1))],
                       axis=0)), [a, b]),
        "channel": (lambda: T.sum_(T.channel(a, 1) * T.channel(b, 0)), [a, b]),
        "split": (lambda: T.sum_(_split_product(T.concat([a, b], axis=2))), [a, b]),
    }
    f, params = builders[op]
    err = grad_check(f, params, h=1e-5, max_elems=12, rng=make_rng(0))
    assert err < 1e-4, f"{op}: rel err {err}"


def _split_product(x):
    # every part feeds the result through a different op, one part twice
    p0, p1, p2, p3 = T.split(x, 4)
    return p0 * p1 + T.gelu(p2) * p0 - p3


def test_split_views_and_errors():
    x = Tensor(make_rng(3).standard_normal((2, 3, 6)))
    parts = T.split(x, 3)
    for i, p in enumerate(parts):
        assert np.shares_memory(p.data, x.data)
        assert np.array_equal(p.data, x.data[..., 2 * i:2 * i + 2])
    with pytest.raises(ValueError):
        T.split(x, 4)
    with pytest.raises(ValueError):
        T.split(x, 0)


@pytest.mark.parametrize("op", ["pointwise_1x1", "depthwise_3x3", "full_3x3", "matmul",
                                "linear", "biased_depthwise_3x3", "biased_full_3x3",
                                "add", "sub", "mul", "div"])
def test_backward_skips_the_gradient_of_an_input_that_needs_none(op):
    # x is once a const and once a parameter; k's gradient must not depend on
    # it, and neither x nor the const bias gets a gradient buffer
    rng = make_rng(zlib.crc32(op.encode()))
    mode = op.removeprefix("biased_")
    shapes = {"pointwise_1x1": ((4, 5, 3), (3, 2)), "depthwise_3x3": ((4, 5, 3), (3, 3, 3)),
              "full_3x3": ((4, 5, 3), (3, 3, 3, 2)), "matmul": ((4, 3), (3, 2)),
              "linear": ((2, 4, 3), (3, 2))}
    xs, ks = shapes.get(mode, ((4, 5, 3), (5, 1)))  # the binary ops broadcast k
    x_data, k_data = rng.standard_normal(xs), rng.standard_normal(ks)
    bias = Tensor(rng.standard_normal(ks[-1]))
    calls = {"matmul": T.matmul, "linear": lambda x, k: T.linear(x, k, bias),
             "add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div}

    def grads(x):
        k = Parameter(k_data, "k")
        if op in calls:
            y = calls[op](x, k)
        else:
            y = T.conv2d(x, k, mode, bias if op != mode else None)
        probe = np.linspace(-1.0, 1.0, y.data.size).reshape(y.data.shape)
        T.sum_(y * Tensor(probe)).backward()
        return k.grad

    const = Tensor(x_data)
    trained = Parameter(x_data, "x")
    assert grads(const).tobytes() == grads(trained).tobytes()
    assert const.grad is None and trained.grad is not None and bias.grad is None


@pytest.mark.parametrize("prec", ["f32", "f64"])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)], ids=["lead0", "lead1", "lead2"])
@pytest.mark.parametrize("kshape", [(3, 3, 4), (3, 3, 4, 3)],
                         ids=["depthwise_3x3", "full_3x3"])
def test_biased_conv_is_one_node_bytewise_conv_plus_add(prec, lead, kshape):
    # the bias inside the 3x3 kernel against the conv node followed by an add
    # node: output and the x, k and bias gradients must be the same bytes
    rng = make_rng(len(lead) * 10 + len(kshape))
    shape = lead + (5, 6, 4)
    with precision(prec):
        x = Parameter(rng.standard_normal(shape), "x")
        k = Parameter(rng.standard_normal(kshape), "k")
        b = Parameter(rng.standard_normal(kshape[-1]), "b")
        probe = Tensor(rng.standard_normal(shape[:-1] + kshape[-1:]))

        def run(conv):
            for p in (x, k, b):
                p.grad = None
            y = conv()
            inputs = y._prev
            T.sum_(y * probe).backward()
            return [a.tobytes() for a in (y.data, x.grad, k.grad, b.grad)], inputs

        mode = _mode(k.data)
        got, inputs = run(lambda: T.conv2d(x, k, mode, b))
        want, _ = run(lambda: T.add(T.conv2d(x, k, mode), b))
    assert len(inputs) == 3 and all(p is q for p, q in zip(inputs, (x, k, b)))
    assert got == want


def test_mean_sum_axes():
    rng = make_rng(17)
    x = rng.standard_normal((3, 4, 5))
    assert np.allclose(T.mean(Tensor(x), axis=1).data, x.mean(axis=1))
    assert np.allclose(T.sum_(Tensor(x)).data, x.sum())
    assert np.allclose(T.sum_(Tensor(x), axis=(0, 2), keepdims=True).data,
                       x.sum(axis=(0, 2), keepdims=True))


def test_backward_requires_scalar():
    x = Parameter(np.ones(3), "x")
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_no_grad_suppresses_graph():
    x = Parameter(np.ones(3), "x")
    with no_grad():
        y = T.sum_(x * x)
    assert not y.requires_grad
    assert y._prev == ()


def test_backward_releases_the_graph():
    # each node drops its closure and its inputs once its gradient is passed on
    x = Parameter(np.array([1.5, -2.0]), "x")
    h = T.gelu(x * x)
    loss = T.sum_(h * x)
    loss.backward()
    assert all(t._backward is None and t._prev == () for t in (h, loss))
    assert x.grad is not None


def test_an_unused_graph_is_freed_without_cyclic_collection():
    # a backward closure refers to its op's inputs, never to its own node, so
    # reference counting frees a graph that backward never ran on
    rng = make_rng(44)
    x = Parameter(rng.standard_normal((2, 5, 4, 3)), "x")
    k = Parameter(rng.standard_normal((3, 3, 3, 2)), "k")
    b = Parameter(rng.standard_normal(2), "b")
    gc.collect()
    gc.disable()
    try:
        y = T.softmax(T.conv2d(T.gelu(x) * 2.0 - x, k, "full_3x3", b), axis=-1)
        loss = T.mean(T.split(y, 2)[1]) / 3.0
        assert loss.requires_grad
        del y, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shared_subexpression_accumulates():
    # y = (x + x) * x = 2x^2, dy/dx = 4x
    x = Parameter(np.array([1.5]), "x")
    y = T.sum_((x + x) * x)
    y.backward()
    assert abs(x.grad[0] - 6.0) < 1e-12


def test_shared_input_gradient_is_the_sum_of_its_single_use_gradients():
    # each backward adds into x's one buffer, whole or a slice at a time
    rng = make_rng(41)
    x = Parameter(rng.standard_normal((5, 4, 6)), "x")
    kd = Parameter(rng.standard_normal((3, 3, 6)), "kd")
    kf = Parameter(rng.standard_normal((3, 3, 6, 2)), "kf")
    uses = [lambda: T.conv2d(x, kd, "depthwise_3x3"), lambda: T.conv2d(x, kf, "full_3x3"),
            lambda: T.split(x, 2)[1], lambda: T.channel(x, 4)]
    probes = [Tensor(rng.standard_normal(s)) for s in ((5, 4, 6), (5, 4, 2), (5, 4, 3), (5, 4))]

    def grad_of(*chosen):
        x.grad = None
        total = T.sum_(uses[chosen[0]]() * probes[chosen[0]])
        for i in chosen[1:]:
            total = total + T.sum_(uses[i]() * probes[i])
        total.backward()
        return x.grad.copy()

    singles = [grad_of(i) for i in range(len(uses))]
    # both orders, so that each backward once finds the buffer already written
    for order in (range(len(uses)), reversed(range(len(uses)))):
        assert np.max(np.abs(grad_of(*order) - sum(singles))) < 1e-12


def test_adam_first_step_magnitude():
    p = Parameter(np.array([1.0, -2.0]), "p")
    opt = Adam([p], lr=2e-4)
    p.grad = np.array([0.5, -3.0])
    opt.step()
    # after bias correction m̂ = g, v̂ = g², so the step is lr·g/(|g|+eps) ≈ lr·sign(g)
    assert np.allclose(p.data, [1.0 - 2e-4, -2.0 + 2e-4], atol=1e-9)


def test_adam_zero_grad_no_move():
    p = Parameter(np.array([1.0]), "p")
    opt = Adam([p], lr=2e-4)
    p.grad = np.zeros(1)
    opt.step()
    assert p.data[0] == 1.0


def test_adam_matches_reference_trajectory():
    """Three steps against a line-by-line reference implementation."""
    rng = make_rng(23)
    init = rng.standard_normal(4)
    grads = [rng.standard_normal(4) for _ in range(3)]
    p = Parameter(init.copy(), "p")
    opt = Adam([p], lr=1e-2, beta1=0.9, beta2=0.99, eps=1e-8)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    ref = init.copy()
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.99 * v + 0.01 * g * g
        mh = m / (1 - 0.9 ** t)
        vh = v / (1 - 0.99 ** t)
        ref -= 1e-2 * mh / (np.sqrt(vh) + 1e-8)
    assert np.max(np.abs(p.data - ref)) < 1e-12


@pytest.mark.parametrize("prec", ["f32", "f64"])
def test_adam_is_the_allocating_formula_bit_for_bit(prec):
    """Four steps against the formula written with temporaries; parameter b
    gets a gradient only on the first and third step, and c is rank 0. The
    parameters start far below the step size, so they keep every bit of it."""
    dt = np.float32 if prec == "f32" else np.float64
    rng = make_rng(29)
    inits = [np.array(1e-4 * rng.standard_normal(shape), dt) for shape in ((5, 3), (7,), ())]
    grads = [[rng.standard_normal(x.shape).astype(dt) for x in inits] for _ in range(4)]
    with precision(prec):
        params = [Parameter(x.copy(), name) for x, name in zip(inits, "abc")]
        opt = Adam(params, lr=1e-2, beta1=0.9, beta2=0.99, eps=1e-8)
        for t, gs in enumerate(grads):
            params[0].grad = gs[0].copy()
            params[1].grad = gs[1].copy() if t % 2 == 0 else None
            params[2].grad = gs[2].copy()
            opt.step()
    refs = [x.copy() for x in inits]
    ms = [np.zeros_like(x) for x in inits]
    vs = [np.zeros_like(x) for x in inits]
    for t, gs in enumerate(grads, start=1):
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.99 ** t
        for j, (p, m, v) in enumerate(zip(refs, ms, vs)):
            g = gs[j] if j != 1 or t % 2 == 1 else np.zeros_like(p)
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.99
            v += (1.0 - 0.99) * g * g
            p -= 1e-2 * (m / c1) / (np.sqrt(v / c2) + 1e-8)
    for p, ref, m, v in zip(params, refs, ms, vs):
        assert p.data.dtype == dt
        assert p.data.tobytes() == ref.tobytes()
        assert opt.m[p.name].tobytes() == m.tobytes()
        assert opt.v[p.name].tobytes() == v.tobytes()


def test_adam_duplicate_names_rejected():
    a = Parameter(np.ones(1), "w")
    b = Parameter(np.ones(1), "w")
    with pytest.raises(ValueError):
        Adam([a, b])


def test_tsr_roundtrip(tmp_path):
    rng = make_rng(29)
    for arr in (rng.standard_normal((3, 5)).astype(np.float64),
                rng.standard_normal((2, 2, 2)).astype(np.float32),
                np.array(3.25)):
        path = tmp_path / "x.tsr"
        save_tsr(path, arr)
        back = load_tsr(path)
        assert back.dtype == arr.dtype
        assert np.array_equal(back, arr)
    raw = (tmp_path / "x.tsr").read_bytes()
    assert raw[:8] == b"MSCDTTSR"


def test_tsr_reads_into_out_and_hashes_every_byte(tmp_path):
    path = tmp_path / "x.tsr"
    arr = make_rng(3).standard_normal((3, 4))
    written = hashlib.sha256()
    with open(path, "wb") as fh:
        T.write_tsr_record(fh, arr, written)
    assert written.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()
    read = hashlib.sha256()
    out = np.empty((3, 4))
    with open(path, "rb") as fh:
        assert T.read_tsr_record(fh, out=out, hasher=read) is out
    assert read.hexdigest() == written.hexdigest()
    assert np.array_equal(out, arr)
    # an `out` of another shape or dtype is left alone
    for other in (np.zeros((4, 3)), np.zeros((3, 4), dtype=np.float32)):
        with open(path, "rb") as fh:
            back = T.read_tsr_record(fh, out=other)
        assert back is not other and not other.any()
        assert back.dtype == np.float64 and np.array_equal(back, arr)
        assert back.flags.aligned and back.flags.writeable and back.flags.c_contiguous


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs=st.lists(st.tuples(st.lists(st.integers(0, 4), max_size=3),
                                st.sampled_from([np.float32, np.float64]),
                                st.integers(0, 2**32 - 1)), min_size=1, max_size=5))
def test_tsr_records_back_to_back_read_back_bit_equal(tmp_path, specs):
    arrays = []
    for shape, dtype, seed in specs:
        bits = np.random.default_rng(seed).integers(0, 256, size=math.prod(shape)
                                                    * np.dtype(dtype).itemsize, dtype=np.uint8)
        arrays.append(bits.view(dtype).reshape(shape))  # any bit pattern, NaNs included
    path = tmp_path / "records.tsrs"
    with open(path, "wb") as fh:
        for arr in arrays:
            T.write_tsr_record(fh, arr)
    with open(path, "rb") as fh:
        for arr in arrays:
            back = T.read_tsr_record(fh)
            assert back.shape == arr.shape and back.dtype == arr.dtype
            assert back.tobytes() == arr.tobytes()
        assert fh.read() == b""


def test_tsr_size_must_match_header(tmp_path):
    good = tmp_path / "good.tsr"
    save_tsr(good, np.arange(6.0).reshape(2, 3))  # 10 + 2*8 header + 48 payload
    raw = good.read_bytes()
    assert len(raw) == 74
    cases = {
        "long.tsr": (raw + bytes(8), "expects 74 bytes, found 82"),
        "short.tsr": (raw[:-3], "expects 74 bytes, found 71"),
        "header.tsr": (raw[:20], "needs 26 bytes, found 20"),
        "tagless.tsr": (raw[:9], "at least 10 bytes, found 9"),
        "empty.tsr": (b"", "at least 10 bytes, found 0"),
        "magic5.tsr": (raw[:5], "at least 10 bytes, found 5"),
    }
    for name, (data, message) in cases.items():
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message) as info:
            load_tsr(path)
        assert name in str(info.value)


def test_tsr_bad_magic(tmp_path):
    p = tmp_path / "bad.tsr"
    p.write_bytes(b"NOTMAGIC" + bytes(16))
    with pytest.raises(ValueError):
        load_tsr(p)


def test_determinism_bit_identical():
    def run():
        rng = make_rng(4)
        x = Tensor(rng.standard_normal((6, 6, 2)))
        k = Tensor(rng.standard_normal((3, 3, 2)))
        return T.conv2d(x, k, "depthwise_3x3").data.tobytes()
    assert run() == run()


@dataclass
class _Config:
    width: int
    held: object


class _Holder(T.Module):
    def __init__(self, *items):
        self.items = items


def test_module_parameters_each_once_in_creation_order():
    p = [Parameter(np.zeros(2), f"p{i}") for i in range(6)]
    stray = Parameter(np.zeros(2), "stray")
    root = T.Module()
    root.cfg = _Config(3, stray)  # the walk enters no object but a Module
    root.plain = Tensor(np.ones(2))
    root.last = p[5]
    root.nested = [[_Holder(p[4], p[1])], (_Holder(p[3], (p[0],)), [p[2]])]
    root.again = p[4]
    root.cycle = root
    found = root.parameters()
    assert [q.name for q in found] == [f"p{i}" for i in range(6)]
    assert all(q is want for q, want in zip(found, p))
