"""Compact latent priors: per-tracer extraction and feature modulation.

The encoder compresses an image pair into one d-vector per tracer (a d x n
matrix for n tracers). The same trunk architecture, with separate weights and
a single head, produces the inference-time condition vector from the dual
image and its masked texture. Images may carry leading batch axes, (..., H,
W); every output then carries the same leading axes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

UNSHUFFLE = 2  # pixel-unshuffle factor applied to the image pair before the trunk
SLOPE = 0.1  # leaky-ReLU negative slope in the trunk


@dataclass
class LpebConfig:
    width: int = 64
    res_blocks: int = 2
    d: int = 256
    n_heads: int = 2

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("channel width must be positive")
        if self.n_heads < 1:
            raise ValueError("need at least one head")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.res_blocks < 0:
            raise ValueError(f"res_blocks must be >= 0, got {self.res_blocks}")


class PriorEncoder(T.Module):
    """Conv trunk + global average pool + one linear head per tracer."""

    def __init__(self, cfg: LpebConfig, rng: np.random.Generator, prefix: str):
        self.cfg = cfg
        w = cfg.width
        in_ch = 2 * UNSHUFFLE ** 2
        self.conv_in = T.normal_param(rng, (3, 3, in_ch, w), (2.0 / (9 * in_ch)) ** 0.5,
                                      f"{prefix}.conv_in.k")
        self.conv_in_b = T.zeros_param((w,), f"{prefix}.conv_in.b")
        self.res = []
        for i in range(cfg.res_blocks):
            std = (2.0 / (9 * w)) ** 0.5
            self.res.append((
                T.normal_param(rng, (3, 3, w, w), std, f"{prefix}.res{i}.k1"),
                T.zeros_param((w,), f"{prefix}.res{i}.b1"),
                T.normal_param(rng, (3, 3, w, w), std, f"{prefix}.res{i}.k2"),
                T.zeros_param((w,), f"{prefix}.res{i}.b2"),
            ))
        self.heads = []
        for i in range(cfg.n_heads):
            self.heads.append((
                T.normal_param(rng, (w, cfg.d), (1.0 / w) ** 0.5, f"{prefix}.head{i}.w"),
                T.zeros_param((cfg.d,), f"{prefix}.head{i}.b"),
            ))

    def trunk(self, a: np.ndarray, b: np.ndarray) -> Tensor:
        """Pooled trunk features (..., width) of the image pairs (a, b), each
        (..., H, W); every pair is pooled on its own."""
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
        x = Tensor(np.stack([a, b], axis=-1))
        x = T.pixel_unshuffle(x, UNSHUFFLE)
        x = T.leaky_relu(T.conv2d(x, self.conv_in, "full_3x3", self.conv_in_b), SLOPE)
        for k1, b1, k2, b2 in self.res:
            h = T.leaky_relu(T.conv2d(x, k1, "full_3x3", b1), SLOPE)
            h = T.conv2d(h, k2, "full_3x3", b2)
            x = T.leaky_relu(x + h, SLOPE)
        return T.mean(x, axis=(-3, -2))

    def head(self, pooled: Tensor, i: int) -> Tensor:
        """Head i of pooled features (..., width): (..., d)."""
        return T.linear(pooled, *self.heads[i])


def extract_msp(dual: np.ndarray, singles: list[np.ndarray],
                encoder: PriorEncoder) -> Tensor:
    """(..., d, n) prior for n tracers; column i comes from the (dual, single_i)
    pair via head i.

    dual and each single are (..., H, W). All pairs go through one trunk call.
    """
    n = encoder.cfg.n_heads
    if len(singles) != n:
        raise ValueError(f"{len(singles)} tracers vs {n} heads")
    for single in singles:
        if single.shape != dual.shape:
            raise ValueError(f"shape mismatch {dual.shape} vs {single.shape}")
    singles = np.stack(singles, axis=-3)  # (..., n, H, W)
    pooled = encoder.trunk(np.broadcast_to(dual[..., None, :, :], singles.shape), singles)
    lead = pooled.data.shape[:-2]
    per_tracer = T.split(T.reshape(pooled, lead + (-1,)), n)  # (..., width) each
    cols = [T.reshape(encoder.head(p, i), lead + (-1, 1)) for i, p in enumerate(per_tracer)]
    return T.concat(cols, axis=-1)


def extract_condition(dual: np.ndarray, masked_dual: np.ndarray,
                      encoder: PriorEncoder) -> Tensor:
    """Condition (..., d) from (dual, dual * texture mask); single head."""
    return encoder.head(encoder.trunk(dual, masked_dual), 0)


class ModulationParams(T.Module):
    """One linear map turning the flattened prior into per-channel scale | shift.

    `w` is (in_dim, 2C) and `b` is (2C,) = [ones | zeros], so columns :C give
    the scale and C: the shift.
    """

    def __init__(self, in_dim: int, channels: int, rng: np.random.Generator,
                 prefix: str):
        std = 1e-2 / in_dim ** 0.5
        (self.w,) = T.fused_normal_params(rng, [((in_dim, channels), std, f"{prefix}.w")], 2)
        self.b = T.Parameter(np.concatenate([np.ones(channels), np.zeros(channels)]),
                             f"{prefix}.b")


def modulate(m: Tensor, latent_flat: Tensor, params: ModulationParams) -> Tensor:
    """scale(L) * LayerNorm(M) + shift(L), broadcast over spatial positions.

    m is (..., H, W, C) and latent_flat (..., L), with the same leading axes.
    """
    c = m.data.shape[-1]
    if params.w.data.shape[1] != 2 * c:
        raise ValueError(f"modulation for {params.w.data.shape[1] // 2} channels "
                         f"applied to {c}-channel features")
    return T.layer_norm(m, axis=-1, scale_shift=T.linear(latent_flat, params.w, params.b))
