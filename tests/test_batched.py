"""A leading batch axis through the ops and the model, checked against items.

Every op and model function that takes (..., H, W, C) maps, or latents with
leading axes, must give for a batch what it gives for each item on its own:
the same outputs, the same input gradients, and parameter gradients that are
the sum of the items' ones. All in f64.

Outputs are compared entry by entry, gradients normwise. A parameter
gradient is a sum over the items, and an input gradient a sum over the
paths through the graph, and the batch and the items add these terms in
different orders: an entry near zero may carry the rounding of the
gradient's largest entries.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracersep import tensor as T
from tracersep.diffusion import Denoiser, DenoiserConfig, build_schedule, forward_sample
from tracersep.evaluation import PhantomSpec, gen_phantom
from tracersep.latent import LpebConfig, PriorEncoder, extract_condition, extract_msp
from tracersep.pipeline import (ModelConfig, SeparationModel, _batch_losses,
                                _item_losses)
from tracersep.tensor import Parameter, Tensor, make_rng, precision
from tracersep.transformer import BlockParams, transformer_block

TOL = dict(rtol=1e-12, atol=1e-12)


@pytest.fixture(autouse=True)
def f64():
    with precision("f64"):
        yield


def check_batched(f, arrays, params, lead, consts=()):
    """f over arrays with leading axes `lead` against f over each item.

    Every array becomes a trainable input; the arrays in consts are passed
    after them as they are. Checks the output, each input's gradient and each
    parameter's gradient under a random linear probe. Each gradient must lie
    within 1e-12 * max(1, largest entry) of the items' one: an item's own
    input gradient, or the sum of the items' parameter gradients.
    """
    for p in params:
        p.grad = None
    xs = [Parameter(a, f"x{i}") for i, a in enumerate(arrays)]
    out = f(*xs, *consts)
    probe = make_rng(99).standard_normal(out.data.shape)
    T.sum_(out * Tensor(probe)).backward()
    grads = [x.grad for x in xs]
    param_grads = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    for idx in np.ndindex(*lead):
        items = [Parameter(a[idx], f"x{i}") for i, a in enumerate(arrays)]
        item_out = f(*items, *(c[idx] for c in consts))
        np.testing.assert_allclose(out.data[idx], item_out.data, **TOL)
        T.sum_(item_out * Tensor(probe[idx])).backward()
        for g, item in zip(grads, items):
            assert_normwise_close(g[idx], item.grad, item.name)
    for g, p in zip(param_grads, params):  # the items' gradients, summed
        assert_normwise_close(g, p.grad, p.name)


def assert_normwise_close(got, want, name):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= TOL["atol"] * scale, name


leads = st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple)


@st.composite
def maps(draw, even=False, channels=(1, 4)):
    """(seed, lead, H, W, C) of a random (..., H, W, C) map."""
    lead = draw(leads)
    step = 2 if even else 1
    h = draw(st.integers(1, 3)) * step
    w = draw(st.integers(1, 3)) * step
    c = draw(st.integers(*channels))
    return draw(st.integers(0, 2**32 - 1)), lead, h, w, c


def random_map(seed, lead, h, w, c):
    return make_rng(seed).standard_normal(lead + (h, w, c))


@pytest.mark.parametrize("mode", ["pointwise_1x1", "depthwise_3x3", "full_3x3"])
@settings(max_examples=25, deadline=None)
@given(spec=maps(), co=st.integers(1, 3))
def test_conv2d_batch_matches_items(mode, spec, co):
    seed, lead, h, w, c = spec
    shape = {"pointwise_1x1": (c, co), "depthwise_3x3": (3, 3, c),
             "full_3x3": (3, 3, c, co)}[mode]
    k = Parameter(make_rng(seed + 1).standard_normal(shape), "k")
    check_batched(lambda x: T.conv2d(x, k, mode), [random_map(*spec)], [k], lead)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
       ci=st.integers(1, 4), co=st.integers(1, 3))
def test_linear_batch_matches_rows(seed, lead, ci, co):
    # no leading axis at all compares a 1-D input with itself
    rng = make_rng(seed)
    w = Parameter(rng.standard_normal((ci, co)), "w")
    b = Parameter(rng.standard_normal(co), "b")
    check_batched(lambda x: T.linear(x, w, b), [rng.standard_normal(lead + (ci,))], [w, b],
                  lead)


@settings(max_examples=25, deadline=None)
@given(spec=maps(even=True))
def test_pixel_unshuffle_batch_matches_items(spec):
    check_batched(lambda x: T.pixel_unshuffle(x, 2), [random_map(*spec)], [], spec[1])


@settings(max_examples=25, deadline=None)
@given(spec=maps(channels=(1, 3)))
def test_pixel_shuffle_batch_matches_items(spec):
    seed, lead, h, w, c = spec
    x = random_map(seed, lead, h, w, 4 * c)
    check_batched(lambda x: T.pixel_shuffle(x, 2), [x], [], lead)


@settings(max_examples=25, deadline=None)
@given(spec=maps(even=True))
def test_pixel_shuffle_inverts_unshuffle_with_leading_axes(spec):
    x = random_map(*spec)
    back = T.pixel_shuffle(T.pixel_unshuffle(Tensor(x), 2), 2).data
    assert back.tobytes() == x.tobytes()
    y = random_map(*spec[:4], 4 * spec[4])
    assert T.pixel_unshuffle(T.pixel_shuffle(Tensor(y), 2), 2).data.tobytes() == y.tobytes()


@settings(max_examples=25, deadline=None)
@given(spec=maps(), data=st.data())
def test_channel_batch_matches_items(spec, data):
    k = data.draw(st.integers(0, spec[4] - 1))
    check_batched(lambda x: T.channel(x, k), [random_map(*spec)], [], spec[1])


@settings(max_examples=25, deadline=None)
@given(spec=maps(channels=(2, 5)))
def test_layer_norm_batch_matches_items(spec):
    check_batched(lambda x: T.layer_norm(x, axis=-1), [random_map(*spec)], [], spec[1])


@settings(max_examples=25, deadline=None)
@given(spec=maps(channels=(1, 3)))
def test_split_batch_matches_items(spec):
    seed, lead, h, w, c = spec

    def f(x):
        a, b = T.split(x, 2)
        return a * b + b
    check_batched(f, [random_map(seed, lead, h, w, 2 * c)], [], lead)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3))
@example(seed=1998, n=2)  # attn.qkv_dw's gradient differs by 4e-12 relative in one entry
@example(seed=445, n=2)  # m's gradient differs by 1.1e-11 in one entry, its largest is 145
def test_transformer_block_batch_matches_items(seed, n):
    # covers modulate, the heads view, channel attention, mdta and gdfn
    blk = BlockParams(4, 2, 6, 2.0, make_rng(seed), "blk")
    for mod in (blk.mod1, blk.mod2):
        mod.w.data[:] = make_rng(seed + 1).standard_normal(mod.w.data.shape)
    rng = make_rng(seed + 2)
    m, latent = rng.standard_normal((n, 4, 2, 4)), rng.standard_normal((n, 6))
    check_batched(lambda m, lat: transformer_block(m, lat, blk), [m, latent],
                  blk.parameters(), (n,))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_denoiser_per_item_steps_match_items(seed, n):
    dn = Denoiser(DenoiserConfig(d=3, n_tracers=2, hidden=5, steps=4), make_rng(seed), "dn")
    rng = make_rng(seed + 1)
    t = rng.integers(1, 5, size=n)
    latent, cond = rng.standard_normal((n, 3, 2)), rng.standard_normal((n, 3))
    check_batched(lambda lat, c, t: dn(lat, t, c), [latent, cond], dn.parameters(), (n,),
                  consts=[t])


def test_forward_sample_per_item_steps_match_items():
    sched = build_schedule(4, 0.1, 0.99)
    rng = make_rng(4)
    latent, eps = rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3, 2))
    t = np.array([1, 4, 2, 4])
    got = forward_sample(Tensor(latent), sched, t, Tensor(eps)).data
    for i in range(4):
        want = forward_sample(Tensor(latent[i]), sched, int(t[i]), Tensor(eps[i])).data
        assert got[i].tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="step 0 outside"):
        forward_sample(Tensor(latent), sched, np.array([1, 0, 2, 3]), Tensor(eps))
    with pytest.raises(ValueError, match="steps of shape"):
        forward_sample(Tensor(latent), sched, np.array([1, 2]), Tensor(eps))


def test_encoders_batch_matches_items():
    enc = PriorEncoder(LpebConfig(width=4, res_blocks=1, d=5, n_heads=2), make_rng(0), "enc")
    pairs = [gen_phantom(s, PhantomSpec(size=8)) for s in range(3)]
    dual = np.stack([p.dual for p in pairs])
    singles = [np.stack(s) for s in zip(*(p.singles for p in pairs))]
    prior = extract_msp(dual, singles, enc).data
    cond = extract_condition(dual, singles[0], enc).data
    assert prior.shape == (3, 5, 2) and cond.shape == (3, 5)
    for i, p in enumerate(pairs):
        np.testing.assert_allclose(prior[i], extract_msp(p.dual, p.singles, enc).data, **TOL)
        np.testing.assert_allclose(cond[i], extract_condition(p.dual, p.singles[0], enc).data,
                                   **TOL)


@pytest.mark.parametrize("teacher_forcing", [False, True])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_batch_loss_and_gradients_are_the_item_mean(n, teacher_forcing):
    """One graph over the batch against n graphs of one item each, same draws."""
    model = SeparationModel(ModelConfig(
        d=4, lpeb_width=4, lpeb_res_blocks=1, denoiser_hidden=8, unet_levels=2,
        unet_heads=[1, 2], unet_channels=[4, 8], unet_blocks=[1, 1], init_seed=0))
    for blocks in model.unet.enc_blocks + model.unet.dec_blocks:
        for blk in blocks:  # live modulation paths, so the latent reaches the loss
            for mod in (blk.mod1, blk.mod2):
                mod.w.data[:] = make_rng(7).standard_normal(mod.w.data.shape)
    params = model.parameters()
    batch = [gen_phantom(s, PhantomSpec(size=8)) for s in range(n)]

    rng = make_rng(42)
    items = []
    for p in params:
        p.grad = None
    for pair in batch:
        dm, tm = _item_losses(pair, model, rng, teacher_forcing)
        items.append((float(dm.data), float(tm.data)))
        (dm + tm).backward()
    item_grads = [p.grad / n for p in params]

    for p in params:
        p.grad = None
    dm, tm = _batch_losses(batch, model, make_rng(42), teacher_forcing)
    (dm + tm).backward()
    want_dm, want_tm = np.mean(items, axis=0)
    assert abs(float(dm.data) - want_dm) < 1e-10
    assert abs(float(tm.data) - want_tm) < 1e-10
    for p, want in zip(params, item_grads):
        np.testing.assert_allclose(p.grad, want, rtol=0, atol=1e-10, err_msg=p.name)
        assert np.any(p.grad), p.name
