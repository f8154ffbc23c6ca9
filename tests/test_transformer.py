"""Channel attention, gated feed-forward, blocks, and the U-net."""
import numpy as np
import pytest

from tracersep import tensor as T
from tracersep.tensor import (Parameter, Tensor, grad_check, make_rng, no_grad,
                              precision)
from tracersep.transformer import (AttentionParams, BlockParams,
                                   FeedForwardParams, UNet, UNetConfig,
                                   attention_map, gdfn, mdta,
                                   transformer_block, unet_forward)


@pytest.fixture(autouse=True)
def f64():
    with precision("f64"):
        yield


def toy_unet(seed=0, d=4, n_tracers=2):
    cfg = UNetConfig(levels=2, heads=[1, 2], channels=[4, 8], blocks=[1, 1],
                     n_tracers=n_tracers, d=d)
    return UNet(cfg, make_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        UNetConfig(levels=2, heads=[1], channels=[4, 8], blocks=[1, 1])
    with pytest.raises(ValueError):
        UNetConfig(levels=2, heads=[1, 3], channels=[4, 8], blocks=[1, 1])
    with pytest.raises(ValueError):
        UNetConfig(levels=2, heads=[1, 1], channels=[4, 6], blocks=[1, 1])
    with pytest.raises(ValueError):
        UNetConfig(levels=2, heads=[1, 1], channels=[4, 8], blocks=[1, 1],
                   gdfn_expansion=0.5)


def test_attention_rows_sum_to_one():
    rng = make_rng(1)
    params = AttentionParams(8, 2, make_rng(0), "attn")
    m = Tensor(rng.standard_normal((4, 4, 8)))
    attn = attention_map(m, params).data
    assert attn.shape == (2, 4, 4)
    assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) < 1e-6


def test_mdta_zero_projection_is_identity():
    params = AttentionParams(4, 1, make_rng(0), "attn")
    params.out_pw.data[:] = 0.0
    rng = make_rng(2)
    m = Tensor(rng.standard_normal((4, 4, 4)))
    out = mdta(m, params)
    assert np.array_equal(out.data, m.data)


def test_mdta_single_channel_scalar_softmax():
    # C=1, one head: the attention map is a 1x1 softmax == 1, so the output is
    # the value path plus residual
    params = AttentionParams(1, 1, make_rng(3), "attn")
    rng = make_rng(4)
    m = Tensor(rng.standard_normal((3, 3, 1)))
    attn = attention_map(m, params).data
    assert np.allclose(attn, 1.0)
    v_pw = Tensor(params.qkv_pw.data[:, 2:3])
    v_dw = Tensor(params.qkv_dw.data[:, :, 2:3])
    v = T.conv2d(T.conv2d(m, v_pw, "pointwise_1x1"), v_dw, "depthwise_3x3")
    want = T.conv2d(v, params.out_pw, "pointwise_1x1").data + m.data
    assert np.max(np.abs(mdta(m, params).data - want)) < 1e-12


def test_mdta_head_mismatch():
    params = AttentionParams(4, 3, make_rng(0), "attn")
    with pytest.raises(ValueError):
        mdta(Tensor(np.zeros((4, 4, 4))), params)


def test_mdta_shape_preserved():
    params = AttentionParams(8, 2, make_rng(5), "attn")
    m = Tensor(make_rng(6).standard_normal((5, 7, 8)))
    assert mdta(m, params).data.shape == (5, 7, 8)


def test_gdfn_zero_branches_are_identity():
    rng = make_rng(7)
    m = Tensor(rng.standard_normal((4, 4, 4)))
    hidden = 8
    for branch, cols in (("gate", slice(0, hidden)), ("val", slice(hidden, 2 * hidden))):
        params = FeedForwardParams(4, 2.0, make_rng(0), "ffn")
        assert params.hidden == hidden
        params.in_pw.data[:, cols] = 0.0
        params.in_dw.data[:, :, cols] = 0.0
        out = gdfn(m, params)
        assert np.array_equal(out.data, m.data), branch


def test_gdfn_against_direct_formula():
    from scipy.special import erf
    params = FeedForwardParams(3, 2.0, make_rng(8), "ffn")
    assert params.hidden == 6
    rng = make_rng(9)
    m = rng.standard_normal((4, 4, 3))
    got = gdfn(Tensor(m), params).data

    def conv_pw(x, k):
        return x @ k

    def conv_dw(x, k):
        xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
        y = np.zeros_like(x)
        for di in range(3):
            for dj in range(3):
                y += xp[di:di + 4, dj:dj + 4, :] * k[di, dj]
        return y

    pw, dw = params.in_pw.data, params.in_dw.data
    gate = conv_dw(conv_pw(m, pw[:, :6]), dw[:, :, :6])
    val = conv_dw(conv_pw(m, pw[:, 6:]), dw[:, :, 6:])
    gelu = gate * 0.5 * (1.0 + erf(gate / np.sqrt(2.0)))
    want = conv_pw(gelu * val, params.out_pw.data) + m
    assert np.max(np.abs(got - want)) < 1e-10


def test_block_zero_projections_pass_through():
    params = BlockParams(4, 1, 8, 2.0, make_rng(10), "blk")
    params.attn.out_pw.data[:] = 0.0
    params.ffn.out_pw.data[:] = 0.0
    rng = make_rng(11)
    m = Tensor(rng.standard_normal((4, 4, 4)))
    latent = Tensor(rng.standard_normal(8))
    out = transformer_block(m, latent, params)
    assert np.array_equal(out.data, m.data)


def test_block_shape_preserved():
    params = BlockParams(8, 2, 8, 2.0, make_rng(12), "blk")
    rng = make_rng(13)
    m = Tensor(rng.standard_normal((8, 8, 8)))
    latent = Tensor(rng.standard_normal(8))
    assert transformer_block(m, latent, params).data.shape == (8, 8, 8)


def test_block_grad_check():
    params = BlockParams(2, 1, 4, 2.0, make_rng(14), "blk")
    rng = make_rng(15)
    m = Parameter(rng.standard_normal((3, 3, 2)), "m")
    latent = Parameter(rng.standard_normal(4), "latent")
    probe = Tensor(rng.standard_normal((3, 3, 2)))

    def f():
        return T.sum_(transformer_block(m, latent, params) * probe)

    err = grad_check(f, [m, latent] + params.parameters(), h=1e-5,
                     max_elems=6, rng=make_rng(0))
    assert err < 1e-4


def test_unet_output_count_and_shape():
    unet = toy_unet()
    rng = make_rng(16)
    dual = rng.uniform(0, 1, size=(32, 32))
    masked = dual * (rng.uniform(size=(32, 32)) > 0.5)
    latent = Tensor(rng.standard_normal((4, 2)))
    outs = unet_forward(dual, masked, latent, unet)
    assert len(outs) == 2
    for o in outs:
        assert o.data.shape == (32, 32)


def test_unet_divisibility_and_shape_errors():
    unet = toy_unet()
    with pytest.raises(ValueError):
        unet.forward(np.zeros((31, 32)), np.zeros((31, 32)),
                     Tensor(np.zeros(8)))
    with pytest.raises(ValueError):
        unet.forward(np.zeros((32, 32)), np.zeros((16, 16)),
                     Tensor(np.zeros(8)))


def test_unet_zeroed_blocks_ignore_latent():
    """With every block's output projections zeroed, the net is a conv-only
    skeleton and the latent cannot reach the output."""
    unet = toy_unet()
    for blocks in unet.enc_blocks + unet.dec_blocks:
        for b in blocks:
            b.attn.out_pw.data[:] = 0.0
            b.ffn.out_pw.data[:] = 0.0
    rng = make_rng(17)
    dual = rng.uniform(0, 1, size=(16, 16))
    masked = dual.copy()
    with no_grad():
        a = unet_forward(dual, masked, Tensor(rng.standard_normal((4, 2))), unet)
        b = unet_forward(dual, masked, Tensor(rng.standard_normal((4, 2))), unet)
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data)


def test_unet_deterministic():
    rng = make_rng(18)
    dual = rng.uniform(0, 1, size=(16, 16))
    latent = rng.standard_normal((4, 2))
    with no_grad():
        a = unet_forward(dual, dual, Tensor(latent), toy_unet(seed=3))[0].data
        b = unet_forward(dual, dual, Tensor(latent), toy_unet(seed=3))[0].data
    assert np.array_equal(a, b)


def test_full_scale_config_constructs_and_runs():
    cfg = UNetConfig(levels=4, heads=[1, 2, 4, 8], channels=[48, 96, 192, 384],
                     blocks=[3, 5, 6, 6], d=8)
    with precision("f32"):
        unet = UNet(cfg, make_rng(0))
        rng = make_rng(19)
        dual = rng.uniform(0, 1, size=(64, 64))
        latent = Tensor(rng.standard_normal((8, 2)))
        with no_grad():
            outs = unet_forward(dual, dual, latent, unet)
    assert len(outs) == 2
    assert outs[0].data.shape == (64, 64)
    assert np.all(np.isfinite(outs[0].data))


def test_unet_toy_grad_check():
    cfg = UNetConfig(levels=2, heads=[1, 1], channels=[4, 8], blocks=[1, 1],
                     d=2)
    unet = UNet(cfg, make_rng(20))
    rng = make_rng(21)
    dual = rng.uniform(0, 1, size=(8, 8))
    latent = Parameter(rng.standard_normal((2, 2)), "latent")
    probe = Tensor(rng.standard_normal((8, 8)))

    def f():
        outs = unet_forward(dual, dual, latent, unet)
        return T.sum_(outs[0] * probe) + T.sum_(outs[1] * probe)

    params = [latent] + unet.parameters()
    err = grad_check(f, params, h=1e-5, max_elems=2, rng=make_rng(1))
    assert err < 1e-4
