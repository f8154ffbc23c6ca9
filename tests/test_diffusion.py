"""Schedule algebra, forward/reverse sampling, denoiser, latent loss."""
import re

import numpy as np
import pytest

from tracersep import tensor as T
from tracersep.diffusion import (Denoiser, DenoiserConfig, build_schedule,
                                 denoise_full, forward_sample, loss_dm,
                                 reverse_step)
from tracersep.tensor import Adam, Tensor, grad_check, make_rng, precision


@pytest.fixture(autouse=True)
def f64():
    with precision("f64"):
        yield


def test_schedule_defaults_and_product_oracle():
    sched = build_schedule()
    assert sched.T == 4
    sched = build_schedule(4, 0.1, 0.4)
    assert np.allclose(sched.beta, [0.1, 0.2, 0.3, 0.4])
    assert abs(sched.alpha_bar_at(4) - 0.9 * 0.8 * 0.7 * 0.6) < 1e-15
    assert abs(sched.alpha_bar_at(4) - 0.3024) < 1e-12


def test_schedule_zero_beta():
    # alpha_bar 1 at step 1 would leave reverse_step nothing to divide by
    with pytest.raises(ValueError, match=re.escape(
            "beta_start and beta_end must satisfy 0 < beta_start <= beta_end < 1, "
            "got 0.0 and 0.0")):
        build_schedule(4, 0.0, 0.0)


def test_schedule_invariants():
    for be in (0.4, 0.99):
        sched = build_schedule(4, 0.1, be)
        for t in range(1, 5):
            assert sched.alpha_bar_at(t) <= sched.alpha_bar_at(t - 1)
            assert abs(sched.alpha_bar_at(t)
                       - sched.alpha_at(t) * sched.alpha_bar_at(t - 1)) < 1e-15
            assert 0.0 <= sched.beta[t - 1] < 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule(0)
    with pytest.raises(ValueError):
        build_schedule(4, 0.5, 0.1)
    with pytest.raises(ValueError):
        build_schedule(4, 0.1, 1.0)


def test_forward_sample_examples():
    sched = build_schedule(4, 0.1, 0.4)
    one = Tensor(np.ones((1, 1)))
    got = forward_sample(one, sched, 4, one).data[0, 0]
    want = np.sqrt(0.3024) + np.sqrt(1 - 0.3024)
    assert abs(got - want) < 1e-12
    assert abs(want - 1.385134) < 1e-6  # 0.549909... + 0.835224...
    eps0 = forward_sample(one, sched, 4, Tensor(np.zeros((1, 1)))).data[0, 0]
    assert abs(eps0 - np.sqrt(0.3024)) < 1e-15


def test_forward_sample_errors():
    sched = build_schedule(4, 0.1, 0.4)
    latent = Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        forward_sample(latent, sched, 0, latent)
    with pytest.raises(ValueError):
        forward_sample(latent, sched, 5, latent)
    with pytest.raises(ValueError):
        forward_sample(latent, sched, 2, Tensor(np.zeros((2, 2))))


@pytest.mark.parametrize("beta_end", [0.4, 0.99])
def test_reverse_single_step_identity(beta_end):
    """reverse_step on sqrt(ab_t) L + sqrt(1-ab_t) eps with eps_hat = eps
    lands exactly on sqrt(ab_{t-1}) L + c_t eps."""
    sched = build_schedule(4, 0.1, beta_end)
    rng = make_rng(1)
    latent = Tensor(rng.standard_normal((5, 2)))
    eps = Tensor(rng.standard_normal((5, 2)))
    for t in range(1, 5):
        noisy = forward_sample(latent, sched, t, eps)
        out = reverse_step(noisy, eps, t, sched).data
        ab = sched.alpha_bar_at(t)
        abp = sched.alpha_bar_at(t - 1)
        a = sched.alpha_at(t)
        c_t = np.sqrt(a) * (1 - abp) / np.sqrt(1 - ab)
        want = np.sqrt(abp) * latent.data + c_t * eps.data
        assert np.max(np.abs(out - want)) < 1e-10, f"t={t}"


def test_forward_sample_variance_contract():
    sched = build_schedule(4, 0.1, 0.99)
    rng = make_rng(21)
    n = 100_000
    for t in (1, 4):
        ab = sched.alpha_bar_at(t)
        eps = rng.standard_normal(n)
        with T.no_grad():
            samples = forward_sample(Tensor(np.zeros(n)), sched, t,
                                     Tensor(eps)).data
        var = samples.var()
        se = (1 - ab) * np.sqrt(2.0 / (n - 1))  # std error of sample variance
        assert abs(var - (1 - ab)) < 3 * se


def small_denoiser(seed=0, d=3, hidden=8):
    return Denoiser(DenoiserConfig(d=d, n_tracers=2, hidden=hidden, steps=4),
                    make_rng(seed), "dn")


def test_denoiser_shapes_and_errors():
    dn = small_denoiser()
    out = dn(Tensor(np.zeros((3, 2))), 2, Tensor(np.zeros(3)))
    assert out.data.shape == (3, 2)
    with pytest.raises(ValueError):
        dn(Tensor(np.zeros((3, 2))), 2, Tensor(np.zeros(4)))


def test_denoiser_rejects_out_of_range_steps():
    dn = small_denoiser()
    latent, cond = Tensor(np.zeros((3, 2))), Tensor(np.zeros(3))
    for t in (0, 5):  # 0 used to run as t = steps, steps + 1 to raise IndexError
        with pytest.raises(ValueError, match=f"step {t} outside"):
            dn(latent, t, cond)
    with pytest.raises(ValueError, match="step 0 outside"):
        dn(Tensor(np.zeros((3, 3, 2))), np.array([2, 0, 4]), Tensor(np.zeros((3, 3))))
    with pytest.raises(ValueError, match="steps of shape"):
        dn(Tensor(np.zeros((3, 3, 2))), np.array([1, 2]), Tensor(np.zeros((3, 3))))


def test_denoise_full_identity_with_zero_denoiser():
    dn = small_denoiser()
    for p in dn.parameters():
        p.data[:] = 0.0
    sched = build_schedule(4, 0.1, 0.4)
    start = Tensor(make_rng(2).standard_normal((3, 2)))
    out = denoise_full(start, Tensor(np.zeros(3)), dn, sched)
    # a zero noise estimate leaves only each step's 1 / sqrt(alpha) scale
    assert np.allclose(out.data * np.sqrt(sched.alpha_bar_at(4)), start.data,
                       rtol=1e-14, atol=0)


def test_denoise_full_deterministic():
    sched = build_schedule(4, 0.1, 0.99)
    rng = make_rng(3)
    start = rng.standard_normal((3, 2))
    cond = rng.standard_normal(3)
    a = denoise_full(Tensor(start), Tensor(cond), small_denoiser(7), sched).data
    b = denoise_full(Tensor(start), Tensor(cond), small_denoiser(7), sched).data
    assert np.array_equal(a, b)


def test_denoise_full_grad_check():
    sched = build_schedule(4, 0.1, 0.4)
    dn = small_denoiser(d=2, hidden=4)
    dn.cfg.d = 2
    rng = make_rng(5)
    start = Tensor(rng.standard_normal((2, 2)))
    cond = Tensor(rng.standard_normal(2))
    target = Tensor(rng.standard_normal((2, 2)))

    def f():
        return T.sum_(denoise_full(start, cond, dn, sched) * target)

    err = grad_check(f, dn.parameters(), h=1e-5, max_elems=8, rng=make_rng(0))
    assert err < 1e-4


def test_denoiser_overfits_single_pair():
    """Trained to predict one fixed injected noise, the rollout endpoint lands
    on the analytic trajectory endpoint."""
    sched = build_schedule(4, 0.1, 0.4)
    dn = small_denoiser(seed=11)
    rng = make_rng(13)
    latent = Tensor(rng.standard_normal((3, 2)))
    eps = Tensor(rng.standard_normal((3, 2)))
    cond = Tensor(rng.standard_normal(3))
    opt = Adam(dn.parameters(), lr=1e-2)
    for i in range(2000):
        if i in (1000, 1600):  # staged decay to settle the endpoint tightly
            opt.lr *= 0.1
        loss = None
        x = forward_sample(latent, sched, sched.T, eps)
        for t in range(sched.T, 0, -1):
            eps_hat = dn(x, t, cond)
            term = T.sum_((eps_hat - eps) * (eps_hat - eps))
            loss = term if loss is None else loss + term
            x = reverse_step(x, Tensor(eps_hat.data.copy()), t, sched)
        opt.zero_grad()
        loss.backward()
        opt.step()
    # analytic endpoint of the exact-eps_hat trajectory
    x = forward_sample(latent, sched, sched.T, eps).data
    for t in range(sched.T, 0, -1):
        ab = sched.alpha_bar_at(t)
        a = sched.alpha_at(t)
        x = (x - eps.data * (1 - a) / np.sqrt(1 - ab)) / np.sqrt(a)
    got = denoise_full(forward_sample(latent, sched, sched.T, eps),
                       cond, dn, sched).data
    assert np.max(np.abs(got - x)) < 1e-3


def test_loss_dm_examples():
    rng = make_rng(17)
    a = rng.standard_normal((4, 2))
    assert loss_dm(Tensor(a), Tensor(a)).data == 0.0
    assert abs(loss_dm(Tensor(a + 2.0), Tensor(a)).data - 2.0) < 1e-12
    b = rng.standard_normal((4, 2))
    want = np.abs(a - b).sum() / 8.0
    assert abs(loss_dm(Tensor(a), Tensor(b)).data - want) < 1e-12
    with pytest.raises(ValueError):
        loss_dm(Tensor(a), Tensor(np.zeros((2, 2))))
