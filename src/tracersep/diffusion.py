"""Diffusion over the compact prior: schedule, noising, deterministic reverse
iteration, the conditional denoiser, and the latent reconstruction loss."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class DiffusionSchedule:
    T: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray

    def alpha_at(self, t: int) -> float:
        return float(self.alpha[t - 1])

    def alpha_bar_at(self, t: int) -> float:
        # alpha_bar_at(0) == 1 by convention
        return float(self.alpha_bar[t - 1]) if t >= 1 else 1.0


def build_schedule(steps: int = 4, beta_start: float = 0.1,
                   beta_end: float = 0.99) -> DiffusionSchedule:
    """Linearly spaced betas; alpha_t = 1 - beta_t, alpha_bar_t = prod alpha."""
    if steps < 1:
        raise ValueError("need at least one step")
    if not (0.0 <= beta_start <= beta_end < 1.0):
        raise ValueError(f"invalid beta range [{beta_start}, {beta_end}]")
    beta = np.linspace(beta_start, beta_end, steps, dtype=np.float64)
    alpha = 1.0 - beta
    return DiffusionSchedule(steps, beta, alpha, np.cumprod(alpha))


def _check_step(t, steps: int) -> np.ndarray:
    """t, an int or an array of ints, as an array; every entry must lie in
    [1, steps]."""
    arr = np.asarray(t)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"steps must be integers, got {t!r}")
    bad = arr[(arr < 1) | (arr > steps)]
    if bad.size:
        raise ValueError(f"step {int(bad[0])} outside [1, {steps}]")
    return arr


def forward_sample(latent: Tensor, sched: DiffusionSchedule, t,
                   eps: Tensor) -> Tensor:
    """sqrt(alpha_bar_t) * L + sqrt(1 - alpha_bar_t) * eps.

    t is one step for the whole latent, or an array of steps, one per item of
    the latent's leading axes: latents (N, d, n) take t of shape (N,).
    """
    t = _check_step(t, sched.T)
    if eps.data.shape != latent.data.shape:
        raise ValueError(f"noise shape {eps.data.shape} vs latent {latent.data.shape}")
    if latent.data.shape[:t.ndim] != t.shape:
        raise ValueError(f"steps of shape {t.shape} vs latent {latent.data.shape}")
    ab = sched.alpha_bar[t - 1].reshape(t.shape + (1,) * (latent.data.ndim - t.ndim))
    return latent * np.sqrt(ab) + eps * np.sqrt(1.0 - ab)


def reverse_step(latent_t: Tensor, eps_hat: Tensor, t: int,
                 sched: DiffusionSchedule) -> Tensor:
    """Deterministic reverse update (no variance term) at one step t."""
    _check_step(t, sched.T)
    ab = sched.alpha_bar_at(t)
    a = sched.alpha_at(t)
    if ab >= 1.0:
        if np.any(eps_hat.data != 0.0):
            raise ZeroDivisionError(
                f"alpha_bar == 1 at step {t} with nonzero noise estimate")
        return latent_t * float(1.0 / np.sqrt(a))
    coef = (1.0 - a) / np.sqrt(1.0 - ab)
    return (latent_t - eps_hat * float(coef)) * float(1.0 / np.sqrt(a))


@dataclass
class DenoiserConfig:
    d: int = 256
    n_tracers: int = 2
    hidden: int = 64
    steps: int = 4

    def __post_init__(self):
        for name in ("d", "n_tracers", "hidden", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"denoiser {name} must be >= 1, got {getattr(self, name)}")


class Denoiser(T.Module):
    """MLP over (flattened noisy latent, condition vector, one-hot timestep)."""

    def __init__(self, cfg: DenoiserConfig, rng: np.random.Generator, prefix: str):
        self.cfg = cfg
        out_dim = cfg.d * cfg.n_tracers
        in_dim = out_dim + cfg.d + cfg.steps
        h = cfg.hidden
        self.w1 = T.normal_param(rng, (in_dim, h), (2.0 / in_dim) ** 0.5, f"{prefix}.w1")
        self.b1 = T.zeros_param((h,), f"{prefix}.b1")
        self.w2 = T.normal_param(rng, (h, h), (2.0 / h) ** 0.5, f"{prefix}.w2")
        self.b2 = T.zeros_param((h,), f"{prefix}.b2")
        self.w3 = T.normal_param(rng, (h, out_dim), (1.0 / h) ** 0.5, f"{prefix}.w3")
        self.b3 = T.zeros_param((out_dim,), f"{prefix}.b3")
        # direct input path, initialized at one: at the high-noise steps of a
        # short schedule the best noise estimate is close to the input itself,
        # which keeps early reverse rollouts bounded instead of amplifying
        self.skip = T.ones_param((out_dim,), f"{prefix}.skip")

    def __call__(self, latent_t: Tensor, t, condition: Tensor) -> Tensor:
        """Noise estimate (..., d, n) for latents (..., d, n) and conditions
        (..., d); t is one step for all items or an array of steps, one per
        item of the leading axes."""
        cfg = self.cfg
        lead = condition.data.shape[:-1]
        if condition.data.shape[-1:] != (cfg.d,) or latent_t.data.shape != lead + (
                cfg.d, cfg.n_tracers):
            raise ValueError(f"condition {condition.data.shape} and latent "
                             f"{latent_t.data.shape}, expected (..., {cfg.d}) and "
                             f"(..., {cfg.d}, {cfg.n_tracers})")
        t = _check_step(t, cfg.steps)
        if t.shape not in ((), lead):
            raise ValueError(f"steps of shape {t.shape} for items of shape {lead}")
        onehot = np.eye(cfg.steps)[np.broadcast_to(t, lead) - 1]
        flat_in = T.reshape(latent_t, lead + (-1,))
        x = T.concat([flat_in, condition, Tensor(onehot)], axis=-1)
        x = T.gelu(T.linear(x, self.w1, self.b1))
        x = T.gelu(T.linear(x, self.w2, self.b2))
        x = T.linear(x, self.w3, self.b3) + flat_in * self.skip
        return T.reshape(x, latent_t.data.shape)


def denoise_full(start: Tensor, condition: Tensor, denoiser: Denoiser,
                 sched: DiffusionSchedule) -> Tensor:
    """Run all T reverse steps from the step-T latent down to the estimate."""
    x = start
    for t in range(sched.T, 0, -1):
        eps_hat = denoiser(x, t, condition)
        x = reverse_step(x, eps_hat, t, sched)
    return x


def loss_dm(latent_hat: Tensor, latent: Tensor) -> Tensor:
    """Mean absolute error over all latent elements."""
    if latent_hat.data.shape != latent.data.shape:
        raise ValueError(f"shape mismatch {latent_hat.data.shape} vs {latent.data.shape}")
    return T.mean(T.abs_(latent_hat - latent))
