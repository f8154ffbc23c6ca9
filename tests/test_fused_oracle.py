"""The fused block against the formulations it replaces.

Each block path used to keep one parameter per branch: separate q, k and v
1x1 + depthwise chains in attention, separate gate and value chains in the
feed-forward network, and separate scale and shift maps in the modulation.
The per-branch reference classes and functions below keep that formulation.
The tests feed them slices of the fused tensors and require the same outputs
and gradients, and require the fused init to draw the same numbers as the
per-branch init did.

The block then fused its ops: the modulation is one layer_norm node, the
attention core one channel_attention node, the gate one geglu node, and each
residual is added inside the output 1x1. The unfused reference below keeps
the block as split, reshape, transpose, matmul, div, softmax, gelu, mul and
add nodes on the fused parameters; f32 toy training and `separate` through it
must give the same bytes. The package runs no transpose, div or softmax
node, so those three are defined here on `T._result`.
"""
import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from tracersep import tensor as T
from tracersep import transformer
from tracersep.diffusion import Denoiser
from tracersep.evaluation import PhantomSpec, gen_phantom
from tracersep.latent import ModulationParams, PriorEncoder, modulate
from tracersep.pipeline import ModelConfig, SeparationModel, TrainConfig, separate, train_step
from tracersep.tensor import Adam, Parameter, Tensor, make_rng, precision
from tracersep.transformer import (GAMMA_EPS, AttentionParams, BlockParams,
                                   FeedForwardParams, UNet, gdfn, mdta,
                                   transformer_block)

# fused attribute -> the per-branch attributes joined along its last axis
LAYOUT = {
    AttentionParams: [("qkv_pw", ["q_pw", "k_pw", "v_pw"]),
                      ("qkv_dw", ["q_dw", "k_dw", "v_dw"]),
                      ("out_pw", ["out_pw"]), ("gamma", ["gamma"])],
    FeedForwardParams: [("in_pw", ["gate_pw", "val_pw"]),
                        ("in_dw", ["gate_dw", "val_dw"]),
                        ("out_pw", ["out_pw"])],
    ModulationParams: [("w", ["scale_w", "shift_w"]), ("b", ["scale_b", "shift_b"])],
}


# -- per-branch reference: init -------------------------------------------

class PerBranchAttentionParams(T.Module):
    def __init__(self, channels, heads, rng, prefix):
        self.heads = heads
        std = (1.0 / channels) ** 0.5
        self.q_pw = T.normal_param(rng, (channels, channels), std, f"{prefix}.q_pw")
        self.q_dw = T.normal_param(rng, (3, 3, channels), 1.0 / 3.0, f"{prefix}.q_dw")
        self.k_pw = T.normal_param(rng, (channels, channels), std, f"{prefix}.k_pw")
        self.k_dw = T.normal_param(rng, (3, 3, channels), 1.0 / 3.0, f"{prefix}.k_dw")
        self.v_pw = T.normal_param(rng, (channels, channels), std, f"{prefix}.v_pw")
        self.v_dw = T.normal_param(rng, (3, 3, channels), 1.0 / 3.0, f"{prefix}.v_dw")
        self.out_pw = T.normal_param(rng, (channels, channels), std, f"{prefix}.out_pw")
        self.gamma = Parameter(np.ones((heads, 1, 1)), f"{prefix}.gamma")


class PerBranchFeedForwardParams(T.Module):
    def __init__(self, channels, expansion, rng, prefix):
        hidden = max(1, round(expansion * channels))
        self.hidden = hidden
        std = (1.0 / channels) ** 0.5
        self.gate_pw = T.normal_param(rng, (channels, hidden), std, f"{prefix}.gate_pw")
        self.gate_dw = T.normal_param(rng, (3, 3, hidden), 1.0 / 3.0, f"{prefix}.gate_dw")
        self.val_pw = T.normal_param(rng, (channels, hidden), std, f"{prefix}.val_pw")
        self.val_dw = T.normal_param(rng, (3, 3, hidden), 1.0 / 3.0, f"{prefix}.val_dw")
        self.out_pw = T.normal_param(rng, (hidden, channels), (1.0 / hidden) ** 0.5,
                                     f"{prefix}.out_pw")


class PerBranchModulationParams(T.Module):
    def __init__(self, in_dim, channels, rng, prefix):
        std = 1e-2 / in_dim ** 0.5
        self.scale_w = T.normal_param(rng, (in_dim, channels), std, f"{prefix}.scale.w")
        self.scale_b = Parameter(np.ones(channels), f"{prefix}.scale.b")
        self.shift_w = T.normal_param(rng, (in_dim, channels), std, f"{prefix}.shift.w")
        self.shift_b = T.zeros_param((channels,), f"{prefix}.shift.b")


# -- reference ops the package does not run (test_tensor grad-checks them) --

def transpose(a, axes):
    return T._result(a.data.transpose(axes), (a,), "transpose",
                     lambda g: T._accum(a, g.transpose(np.argsort(axes))))


def div(a, b):
    def backward(g):
        if a.requires_grad:
            T._accum(a, T._unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            T._accum(b, T._unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))
    return T._result(np.divide(a.data, b.data), (a, b), "div", backward)


def softmax(a, axis):
    y = T._softmax(a.data, axis)
    return T._result(y, (a,), "softmax",
                     lambda g: T._accum(a, T._softmax_grad(y, g, axis)))


# -- per-branch reference: forward ----------------------------------------

def _chain(m, pw, dw):
    return T.conv2d(T.conv2d(m, pw, "pointwise_1x1"), dw, "depthwise_3x3")


def _permute_last(x, perm):
    n = x.data.ndim - len(perm)
    return transpose(x, tuple(range(n)) + tuple(n + p for p in perm))


def _heads_view(x, heads, perm=(1, 2, 0)):
    """(..., H, W, C) as (..., H*W, heads, C/heads) with its last three axes
    permuted by perm in one transpose; by default (..., heads, C/heads, H*W)."""
    *lead, h, w, c = x.data.shape
    return _permute_last(T.reshape(x, (*lead, h * w, heads, c // heads)), perm)


def ref_mdta(m, p, residual=None):
    h, w, c = m.data.shape
    heads = p.heads
    q = _chain(m, p.q_pw, p.q_dw)
    k = _chain(m, p.k_pw, p.k_dw)
    kh = _heads_view(k, heads)
    qh = transpose(_heads_view(q, heads), (0, 2, 1))
    scores = div(T.matmul(kh, qh), T.abs_(p.gamma) + GAMMA_EPS)
    attn = softmax(scores, axis=-1)
    vh = _heads_view(_chain(m, p.v_pw, p.v_dw), heads)
    y = T.reshape(transpose(T.matmul(attn, vh), (2, 0, 1)), (h, w, c))
    y = T.conv2d(y, p.out_pw, "pointwise_1x1")
    return y + (m if residual is None else residual)


def ref_gdfn(m, p, residual=None):
    gate = _chain(m, p.gate_pw, p.gate_dw)
    val = _chain(m, p.val_pw, p.val_dw)
    y = T.conv2d(T.gelu(gate) * val, p.out_pw, "pointwise_1x1")
    return y + (m if residual is None else residual)


def ref_modulate(m, latent_flat, p, epsilon=1e-5):
    c = m.data.shape[2]
    lrow = T.reshape(latent_flat, (1, -1))
    scale = T.reshape(T.linear(lrow, p.scale_w, p.scale_b), (1, 1, c))
    shift = T.reshape(T.linear(lrow, p.shift_w, p.shift_b), (1, 1, c))
    return scale * T.layer_norm(m, axis=2, epsilon=epsilon) + shift


def ref_block(m, latent_flat, p):
    m = ref_mdta(ref_modulate(m, latent_flat, p.mod1), p.attn, residual=m)
    return ref_gdfn(ref_modulate(m, latent_flat, p.mod2), p.ffn, residual=m)


# -- unfused reference: the fused parameters through unfused ops -----------

def unfused_modulate(m, latent_flat, params):
    c = m.data.shape[-1]
    affine = T.linear(latent_flat, params.w, params.b)
    affine = T.reshape(affine, latent_flat.data.shape[:-1] + (1, 1, 2 * c))
    scale, shift = T.split(affine, 2)
    return scale * T.layer_norm(m, axis=-1) + shift


def unfused_mdta(m, params, residual=None):
    *lead, h, w, c = m.data.shape
    heads = params.heads
    q, k, v = T.split(_chain(m, params.qkv_pw, params.qkv_dw), 3)
    kh = _heads_view(k, heads)
    qh = _heads_view(q, heads, (1, 0, 2))  # (..., heads, HW, C/h)
    scores = div(T.matmul(kh, qh), T.abs_(params.gamma) + GAMMA_EPS)
    attn = softmax(scores, axis=-1)
    mixed = T.matmul(attn, _heads_view(v, heads))  # (..., heads, C/h, HW)
    y = T.reshape(_permute_last(mixed, (2, 0, 1)), (*lead, h, w, c))
    y = T.conv2d(y, params.out_pw, "pointwise_1x1")
    return y + (m if residual is None else residual)


def unfused_gdfn(m, params, residual=None):
    gate, val = T.split(_chain(m, params.in_pw, params.in_dw), 2)
    y = T.conv2d(T.gelu(gate) * val, params.out_pw, "pointwise_1x1")
    return y + (m if residual is None else residual)


def use_unfused_block(monkeypatch):
    """transformer_block, and through it the U-net, runs the unfused ops;
    returns the list that records the name of each unfused call."""
    calls = []
    for name, unfused in (("modulate", unfused_modulate), ("mdta", unfused_mdta),
                          ("gdfn", unfused_gdfn)):
        def counted(*args, name=name, unfused=unfused, **kwargs):
            calls.append(name)
            return unfused(*args, **kwargs)
        monkeypatch.setattr(transformer, name, counted)
    return calls


# -- helpers ----------------------------------------------------------------

def per_branch(fused):
    """Per-branch parameters copied from slices of `fused`'s tensors."""
    ref = SimpleNamespace(heads=getattr(fused, "heads", None))
    for attr, parts in LAYOUT[type(fused)]:
        data = getattr(fused, attr).data
        width = data.shape[-1] // len(parts)
        for i, name in enumerate(parts):
            piece = data[..., i * width:(i + 1) * width].copy()
            setattr(ref, name, Parameter(piece, name))
    return ref


def branch_pairs(fused, ref):
    """(fused parameter, per-branch parameters joined in its last axis)."""
    return [(getattr(fused, attr), [getattr(ref, n) for n in parts])
            for attr, parts in LAYOUT[type(fused)]]


def grads_of(run, inputs, params, probe):
    for p in inputs + params:
        p.grad = None
    out = run()
    T.sum_(out * probe).backward()
    return out.data.copy(), [p.grad.copy() for p in inputs]


def assert_matches(fused_run, ref_run, inputs, pairs, probe, tol=1e-10):
    fused_params = [f for f, _ in pairs]
    ref_params = [r for _, parts in pairs for r in parts]
    out, in_grads = grads_of(fused_run, inputs, fused_params, probe)
    fused_grads = [f.grad.copy() for f in fused_params]
    want, want_in_grads = grads_of(ref_run, inputs, ref_params, probe)
    assert np.max(np.abs(out - want)) < tol
    for got, exp in zip(in_grads, want_in_grads):
        assert np.max(np.abs(got - exp)) < tol
    for (f, parts), g in zip(pairs, fused_grads):
        exp = np.concatenate([r.grad for r in parts], axis=-1)
        assert g.shape == exp.shape, f.name
        assert np.max(np.abs(g - exp)) < tol, f.name


def enliven(mod: ModulationParams, rng):
    # the init draws the modulation near zero; give it weight so scale and
    # shift differ from (1, 0) and their gradients are exercised
    mod.w.data[:] = rng.standard_normal(mod.w.data.shape)
    mod.b.data[:] += 0.5 * rng.standard_normal(mod.b.data.shape)


@pytest.fixture
def f64():
    with precision("f64"):
        yield


# -- output and gradient equivalence -----------------------------------------


@pytest.mark.parametrize("channels,heads", [(8, 2), (6, 3), (1, 1)])
def test_mdta_matches_per_branch(f64, channels, heads):
    rng = make_rng(30)
    params = AttentionParams(channels, heads, make_rng(31), "attn")
    ref = per_branch(params)
    m = Parameter(rng.standard_normal((5, 4, channels)), "m")
    probe = Tensor(rng.standard_normal((5, 4, channels)))
    assert_matches(lambda: mdta(m, params), lambda: ref_mdta(m, ref), [m],
                   branch_pairs(params, ref), probe)


@pytest.mark.parametrize("channels,expansion", [(4, 2.0), (3, 1.5), (5, 4.0)])
def test_gdfn_matches_per_branch(f64, channels, expansion):
    rng = make_rng(32)
    params = FeedForwardParams(channels, expansion, make_rng(33), "ffn")
    ref = per_branch(params)
    m = Parameter(rng.standard_normal((4, 6, channels)), "m")
    probe = Tensor(rng.standard_normal((4, 6, channels)))
    assert_matches(lambda: gdfn(m, params), lambda: ref_gdfn(m, ref), [m],
                   branch_pairs(params, ref), probe)


def test_modulate_matches_per_branch(f64):
    rng = make_rng(34)
    params = ModulationParams(6, 3, make_rng(35), "mod")
    enliven(params, rng)
    ref = per_branch(params)
    m = Parameter(rng.standard_normal((4, 5, 3)), "m")
    latent = Parameter(rng.standard_normal(6), "latent")
    probe = Tensor(rng.standard_normal((4, 5, 3)))
    assert_matches(lambda: modulate(m, latent, params),
                   lambda: ref_modulate(m, latent, ref), [m, latent],
                   branch_pairs(params, ref), probe)


def test_transformer_block_matches_per_branch(f64):
    rng = make_rng(36)
    params = BlockParams(8, 2, 6, 2.0, make_rng(37), "blk")
    enliven(params.mod1, rng)
    enliven(params.mod2, rng)
    subs = ("mod1", "attn", "mod2", "ffn")
    ref = SimpleNamespace(**{s: per_branch(getattr(params, s)) for s in subs})
    pairs = [pair for s in subs for pair in branch_pairs(getattr(params, s),
                                                         getattr(ref, s))]
    m = Parameter(rng.standard_normal((4, 4, 8)), "m")
    latent = Parameter(rng.standard_normal(6), "latent")
    probe = Tensor(rng.standard_normal((4, 4, 8)))
    assert_matches(lambda: transformer_block(m, latent, params),
                   lambda: ref_block(m, latent, ref), [m, latent], pairs, probe)


# -- init reproduces the per-branch draw sequence -----------------------------

def _blocks(unet):
    return [b for blocks in unet.enc_blocks + unet.dec_blocks for b in blocks]


@contextlib.contextmanager
def per_branch_blocks(monkeypatch):
    """UNet builds its blocks from the per-branch parameter classes."""
    with monkeypatch.context() as mp:
        mp.setattr(transformer, "AttentionParams", PerBranchAttentionParams)
        mp.setattr(transformer, "FeedForwardParams", PerBranchFeedForwardParams)
        mp.setattr(transformer, "ModulationParams", PerBranchModulationParams)
        yield


def per_branch_model(model: SeparationModel, monkeypatch):
    """The per-branch parameters SeparationModel drew before the fusion, built
    in its construction order from the same sub-configs and seed."""
    with per_branch_blocks(monkeypatch):
        rng = make_rng(model.cfg.init_seed)
        groups = [PriorEncoder(model.msp_encoder.cfg, rng, "msp"),
                  PriorEncoder(model.cond_encoder.cfg, rng, "cond"),
                  Denoiser(model.denoiser.cfg, rng, "denoiser"),
                  UNet(model.unet.cfg, rng, "unet")]
    # SeparationModel starts every modulation path at zero weight
    for blk in _blocks(groups[-1]):
        for mod in (blk.mod1, blk.mod2):
            mod.scale_w.data[:] = 0.0
            mod.shift_w.data[:] = 0.0
    return groups


def expected_fused(unet, ref_unet, ref_params):
    """Parameter name -> the value its per-branch pieces give."""
    want = {p.name: p.data for p in ref_params}
    for blk, rblk in zip(_blocks(unet), _blocks(ref_unet)):
        for sub in ("mod1", "attn", "mod2", "ffn"):
            for attr, parts in LAYOUT[type(getattr(blk, sub))]:
                pieces = [getattr(getattr(rblk, sub), n) for n in parts]
                for p in pieces:
                    del want[p.name]
                want[getattr(getattr(blk, sub), attr).name] = np.concatenate(
                    [p.data for p in pieces], axis=-1)
    return want


def assert_bit_equal(params, want):
    assert sorted(p.name for p in params) == sorted(want)
    for p in params:
        assert p.data.dtype == want[p.name].dtype, p.name
        assert np.array_equal(p.data, want[p.name]), p.name


TOY = dict(d=32, n_tracers=2, lpeb_width=32, denoiser_hidden=256, unet_levels=2,
           unet_heads=[1, 2], unet_channels=[8, 16], unet_blocks=[1, 1],
           gdfn_expansion=4.0)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("init_seed", [0, 2, 7])
def test_separation_model_init_is_per_branch_draw_sequence(monkeypatch, dtype, init_seed):
    with precision(dtype):
        model = SeparationModel(ModelConfig(**TOY, init_seed=init_seed))
        groups = per_branch_model(model, monkeypatch)
    ref_params = [p for g in groups for p in g.parameters()]
    assert (len(ref_params), len(model.parameters())) == (103, 73)
    assert_bit_equal(model.parameters(),
                     expected_fused(model.unet, groups[-1], ref_params))


def test_full_scale_init_is_per_branch_draw_sequence(monkeypatch):
    model = SeparationModel(ModelConfig(init_seed=1))
    groups = per_branch_model(model, monkeypatch)
    ref_params = [p for g in groups for p in g.parameters()]
    assert (len(ref_params), len(model.parameters())) == (760, 420)
    assert sum(p.data.size for p in model.parameters()) == 27_668_364
    assert_bit_equal(model.parameters(),
                     expected_fused(model.unet, groups[-1], ref_params))


def test_unet_init_draws_modulation_like_per_branch(monkeypatch):
    # SeparationModel zeroes the modulation weights; the UNet alone keeps the
    # drawn values, so this checks the scale | shift draws themselves
    cfg = transformer.UNetConfig(levels=2, heads=[1, 2], channels=[4, 8],
                                 blocks=[1, 2], d=3)
    unet = UNet(cfg, make_rng(5))
    with per_branch_blocks(monkeypatch):
        ref = UNet(cfg, make_rng(5))
    assert np.any(_blocks(unet)[0].mod1.w.data != 0.0)
    assert_bit_equal(unet.parameters(),
                     expected_fused(unet, ref, ref.parameters()))


# -- the fused ops are bytewise the unfused ones ---------------------------

@pytest.mark.parametrize("prec", ["f32", "f64"])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["lead0", "lead1"])
def test_fused_block_is_bytewise_the_unfused_ops(monkeypatch, prec, lead):
    rng = make_rng(38)
    with precision(prec):
        params = BlockParams(8, 2, 6, 2.0, make_rng(39), "blk")
        enliven(params.mod1, rng)
        enliven(params.mod2, rng)
        m = Parameter(rng.standard_normal(lead + (4, 5, 8)), "m")
        latent = Parameter(rng.standard_normal(lead + (6,)), "latent")
        probe = Tensor(rng.standard_normal(lead + (4, 5, 8)))
        inputs = [m, latent] + params.parameters()

        def run():
            for p in inputs:
                p.grad = None
            out = transformer_block(m, latent, params)
            T.sum_(out * probe).backward()
            return [a.tobytes() for a in [out.data] + [p.grad for p in inputs]]

        got = run()
        calls = use_unfused_block(monkeypatch)
        want = run()
    assert sorted(calls) == ["gdfn", "mdta", "modulate", "modulate"]
    assert got == want


def test_toy_training_and_separate_are_bytewise_those_of_the_unfused_block(monkeypatch):
    # 5 f32 steps of the acceptance gate's toy recipe, then a separate of a
    # held-out phantom: same losses, parameter bytes and output bytes
    def run():
        model = SeparationModel(ModelConfig(**TOY, diffusion_steps=4, init_seed=2))
        cfg = TrainConfig()
        opt = Adam(model.parameters(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                   eps=cfg.eps)
        rng = make_rng(0)
        pairs = [gen_phantom(s, PhantomSpec(size=32)) for s in range(4)]
        losses = [train_step(pairs, model, opt, cfg, rng, step, cfg.steps)
                  for step in range(5)]
        fused, raw, latent = separate(gen_phantom(9, PhantomSpec(size=32)).dual, model, 9)
        return (losses, [p.data.tobytes() for p in model.parameters()],
                [a.tobytes() for a in fused + raw + [latent]])

    got = run()
    calls = use_unfused_block(monkeypatch)
    want = run()
    assert calls
    assert got == want
